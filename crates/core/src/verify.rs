//! Structural verification at quiescence.
//!
//! Theorem 1's validity notion: "when all updating processes are completed,
//! the new search structure must be correct in the sense that every
//! possible search reaches the right node using only pointers (and no
//! links)". The checker validates, for a quiesced tree:
//!
//! * per-node sanity: ordering, bounds, kind/level consistency;
//! * per-level chains: lows meet highs, leftmost is −∞, rightmost is +∞
//!   with a nil link;
//! * the **Fig. 2 invariant**: each nonleaf level, read as a flat pair
//!   sequence (ignoring each node's leftmost pointer and the links), equals
//!   the sequence of `(high value, link)` of the level below — "level i+1
//!   is actually repeated at level i";
//! * global key order across the leaf chain;
//! * page accounting: every allocated page is a reachable node, the prime
//!   block, or awaiting deferred reclamation;
//! * optionally, the compression guarantee: every node except the root has
//!   at least `k` pairs.

use crate::error::Result;
use crate::key::Bound;
use crate::node::{Node, NodeKind};
use crate::tree::BLinkTree;
use blink_pagestore::PageId;
use std::collections::HashSet;

/// Outcome of [`BLinkTree::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Human-readable invariant violations (empty = valid).
    pub errors: Vec<String>,
    /// Tree height (levels).
    pub height: u32,
    /// Live (reachable, non-deleted) nodes.
    pub node_count: usize,
    /// Leaves among them.
    pub leaf_count: usize,
    /// Total pairs stored in leaves.
    pub leaf_pairs: usize,
    /// Non-root nodes with fewer than `k` pairs (violations only when
    /// minimum fill is being enforced).
    pub underfull_nodes: usize,
    /// Nodes holding more than `2k` pairs — always violations. A tree
    /// reopened with a smaller `k` than it was built with has them.
    pub overfull_nodes: usize,
    /// Mean leaf fill as a fraction of capacity `2k`.
    pub avg_leaf_fill: f64,
    /// Pages owned by a co-resident structure (the record heap's gauge via
    /// `TreeConfig::external_pages`) that the page accounting credited —
    /// including shard-resident open pages and recycle-queued pages, which
    /// are live heap pages like any other.
    pub external_pages: usize,
}

impl VerifyReport {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Panics with the violation list if the tree is invalid.
    pub fn assert_ok(&self) {
        assert!(
            self.is_ok(),
            "tree invariants violated:\n  {}",
            self.errors.join("\n  ")
        );
    }
}

impl BLinkTree {
    /// Verifies the whole structure. Call only at quiescence (no concurrent
    /// updaters); concurrent readers are fine. With `require_min_fill`,
    /// additionally checks §5's compression guarantee (≥ k pairs per
    /// non-root node).
    pub fn verify(&self, require_min_fill: bool) -> Result<VerifyReport> {
        let mut rep = VerifyReport::default();
        let prime = self.read_prime()?;
        rep.height = prime.height;

        if prime.leftmost.len() != prime.height as usize {
            rep.errors
                .push("prime: leftmost array length != height".into());
        }
        if prime.leftmost.last() != Some(&prime.root) {
            rep.errors
                .push("prime: root is not the leftmost node of the top level".into());
        }

        let mut seen: HashSet<PageId> = HashSet::new();
        seen.insert(self.prime_pid);
        // (high, link) sequence per level, for the Fig. 2 check.
        let mut high_link_below: Option<Vec<(Bound, PageId)>> = None;
        let mut level_first_node: Vec<PageId> = Vec::new();

        for level in 0..prime.height as u8 {
            let Some(first) = prime.leftmost_at(level) else {
                rep.errors
                    .push(format!("prime: missing leftmost pointer at level {level}"));
                break;
            };
            level_first_node.push(first);
            let mut chain: Vec<(PageId, Node)> = Vec::new();
            let mut cur = Some(first);
            let mut prev_high = Bound::NegInf;
            let mut hops = 0usize;
            while let Some(pid) = cur {
                hops += 1;
                if hops > 1_000_000 {
                    rep.errors
                        .push(format!("level {level}: link chain does not terminate"));
                    break;
                }
                let node = match self.try_read(pid, Node::decode_probe)? {
                    Some(n) => n,
                    None => {
                        rep.errors
                            .push(format!("level {level}: unreadable node {pid}"));
                        break;
                    }
                };
                self.check_node(level, pid, &node, prev_high, &mut rep);
                if !seen.insert(pid) {
                    rep.errors.push(format!("node {pid} reachable twice"));
                }
                prev_high = node.high;
                cur = node.link;
                chain.push((pid, node));
            }
            if let Some((_, last)) = chain.last() {
                if last.high != Bound::PosInf {
                    rep.errors
                        .push(format!("level {level}: rightmost high is {}", last.high));
                }
            }
            rep.node_count += chain.len();

            if level == 0 {
                self.check_leaf_level(&chain, &mut rep);
            } else {
                self.check_fig2(
                    level,
                    &chain,
                    high_link_below.as_deref().unwrap_or(&[]),
                    &mut rep,
                );
                // The leftmost pointer of the level's first node points to
                // the leftmost node of the level below.
                if let Some((pid, node)) = chain.first() {
                    let expect = level_first_node[level as usize - 1];
                    if node.p0 != Some(expect) {
                        rep.errors.push(format!(
                            "level {level}: first node {pid} p0 {:?} != leftmost below {expect}",
                            node.p0
                        ));
                    }
                }
            }
            if level + 1 == prime.height as u8 {
                if chain.len() != 1 {
                    rep.errors
                        .push(format!("top level has {} nodes, expected 1", chain.len()));
                } else if chain[0].0 != prime.root {
                    rep.errors
                        .push("top level node is not the prime root".into());
                }
            }
            for (pid, node) in &chain {
                if node.is_root != (*pid == prime.root) {
                    rep.errors
                        .push(format!("node {pid}: root bit inconsistent with prime"));
                }
                if *pid != prime.root && node.pairs() < self.cfg.k {
                    rep.underfull_nodes += 1;
                    if require_min_fill {
                        rep.errors.push(format!(
                            "node {pid} at level {level} has {} < k={} pairs",
                            node.pairs(),
                            self.cfg.k
                        ));
                    }
                }
                if node.pairs() > self.cfg.max_pairs() {
                    rep.overfull_nodes += 1;
                    rep.errors.push(format!("node {pid} exceeds 2k pairs"));
                }
            }
            high_link_below = Some(
                chain
                    .iter()
                    .filter(|(_, n)| n.link.is_some())
                    .map(|(_, n)| (n.high, n.link.unwrap()))
                    .collect(),
            );
        }

        // Page accounting: live store pages = reachable nodes + prime +
        // deleted-but-unreclaimed pages + pages owned by a co-resident
        // structure (the record heap, when index and heap share the store).
        let external = self
            .cfg
            .external_pages
            .as_ref()
            .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
            .unwrap_or(0);
        rep.external_pages = external;
        let expected = rep.node_count + 1 + self.freelist.pending_count() + external;
        let live = self.store.live_pages();
        if live != expected {
            rep.errors.push(format!(
                "page accounting: {live} live pages, expected {expected} \
                 ({} nodes + prime + {} pending reclaim + {external} external)",
                rep.node_count,
                self.freelist.pending_count()
            ));
        }
        Ok(rep)
    }

    fn check_node(
        &self,
        level: u8,
        pid: PageId,
        node: &Node,
        prev_high: Bound,
        rep: &mut VerifyReport,
    ) {
        if node.deleted {
            rep.errors
                .push(format!("deleted node {pid} reachable at level {level}"));
        }
        if node.level != level {
            rep.errors.push(format!(
                "node {pid}: level {} != chain level {level}",
                node.level
            ));
        }
        let want_kind = if level == 0 {
            NodeKind::Leaf
        } else {
            NodeKind::Internal
        };
        if node.kind != want_kind {
            rep.errors
                .push(format!("node {pid}: wrong kind for level {level}"));
        }
        if node.low != prev_high {
            rep.errors.push(format!(
                "node {pid}: low {} != previous high {prev_high}",
                node.low
            ));
        }
        if node.low >= node.high {
            rep.errors.push(format!(
                "node {pid}: empty range ({}, {}]",
                node.low, node.high
            ));
        }
        if !node.entries.windows(2).all(|w| w[0].0 < w[1].0) {
            rep.errors
                .push(format!("node {pid}: keys not strictly ascending"));
        }
        if let Some(&(first, _)) = node.entries.first() {
            if Bound::Key(first) <= node.low {
                rep.errors
                    .push(format!("node {pid}: first key {first} ≤ low {}", node.low));
            }
        }
        if let Some(&(last, _)) = node.entries.last() {
            let bad = match node.kind {
                NodeKind::Leaf => Bound::Key(last) > node.high,
                NodeKind::Internal => Bound::Key(last) >= node.high,
            };
            if bad {
                rep.errors
                    .push(format!("node {pid}: last key {last} vs high {}", node.high));
            }
        }
        if node.kind == NodeKind::Internal && node.p0.is_none() {
            rep.errors.push(format!("internal node {pid} without p0"));
        }
    }

    fn check_leaf_level(&self, chain: &[(PageId, Node)], rep: &mut VerifyReport) {
        rep.leaf_count = chain.len();
        let mut last_key: Option<u64> = None;
        for (pid, node) in chain {
            rep.leaf_pairs += node.pairs();
            for &(k, _) in &node.entries {
                if let Some(prev) = last_key {
                    if k <= prev {
                        rep.errors.push(format!(
                            "leaf {pid}: key {k} not greater than previous {prev}"
                        ));
                    }
                }
                last_key = Some(k);
            }
        }
        if rep.leaf_count > 0 {
            rep.avg_leaf_fill =
                rep.leaf_pairs as f64 / (rep.leaf_count as f64 * self.cfg.max_pairs() as f64);
        }
    }

    /// Fig. 2: the flat pair sequence of this internal level must equal the
    /// (high, link) sequence of the level below. Flattening reads, across
    /// the level's chain: every entry `(v, p)` of every node, with each
    /// non-first node's p₀ contributing the pair `(node.low, p0)` — that is
    /// precisely "ignore the leftmost pointer [of the level] and the links".
    fn check_fig2(
        &self,
        level: u8,
        chain: &[(PageId, Node)],
        below: &[(Bound, PageId)],
        rep: &mut VerifyReport,
    ) {
        let mut flat: Vec<(Bound, PageId)> = Vec::new();
        for (idx, (pid, node)) in chain.iter().enumerate() {
            if idx > 0 {
                match node.p0 {
                    Some(p0) => flat.push((node.low, p0)),
                    None => rep.errors.push(format!("internal node {pid} without p0")),
                }
            }
            for &(k, p) in &node.entries {
                match PageId::from_raw(p as u32) {
                    Some(p) => flat.push((Bound::Key(k), p)),
                    None => rep.errors.push(format!("node {pid}: nil child pointer")),
                }
            }
        }
        if flat != below {
            rep.errors.push(format!(
                "Fig. 2 invariant broken at level {level}: {} pairs above vs {} (high, link) \
                 pairs below{}",
                flat.len(),
                below.len(),
                first_divergence(&flat, below)
            ));
        }
    }
}

fn first_divergence(a: &[(Bound, PageId)], b: &[(Bound, PageId)]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!(
                "; first divergence at index {i}: ({}, {}) vs ({}, {})",
                x.0, x.1, y.0, y.1
            );
        }
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use blink_pagestore::{PageStore, StoreConfig};
    use std::sync::Arc;

    fn tree(k: usize) -> Arc<BLinkTree> {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        BLinkTree::create(store, TreeConfig::with_k(k)).unwrap()
    }

    #[test]
    fn fresh_tree_verifies() {
        let t = tree(4);
        let rep = t.verify(false).unwrap();
        rep.assert_ok();
        assert_eq!(rep.height, 1);
        assert_eq!(rep.node_count, 1);
        assert_eq!(rep.leaf_count, 1);
    }

    #[test]
    fn verifies_after_heavy_insertion() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..2000u64 {
            t.insert(&mut s, i * 7 % 4096, i).ok();
        }
        let rep = t.verify(false).unwrap();
        rep.assert_ok();
        assert!(rep.height >= 3);
        assert!(rep.leaf_pairs > 1000);
        // After pure insertion every node already has ≥ k pairs.
        assert_eq!(rep.underfull_nodes, 0);
        t.verify(true).unwrap().assert_ok();
    }

    #[test]
    fn detects_planted_corruption() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..200u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        // Corrupt a leaf's high value behind the tree's back.
        let prime = t.prime_snapshot().unwrap();
        let first_leaf = prime.leftmost_at(0).unwrap();
        let mut node = t.read_node(first_leaf).unwrap();
        node.high = Bound::Key(0);
        t.write_node(first_leaf, &node).unwrap();
        let rep = t.verify(false).unwrap();
        assert!(!rep.is_ok(), "corruption must be detected");
    }
}

//! Crash recovery: structural repair after a WAL replay.
//!
//! A durable store (see the `blink-durable` crate) replays its log on open,
//! which lands the pages in a state *some* prefix of the page-operation
//! history produced — exactly the states Sagiv's protocols keep
//! search-correct for concurrent readers, but not necessarily *quiescently
//! valid* in Theorem 1's sense: a crash can strand a half-split (sibling
//! linked, separator not yet in the parent), a half-rearrangement (one
//! child rewritten, the other not), an interrupted root switch, or pages
//! whose deferred reclamation never happened.
//!
//! Repair exploits the paper's own Fig. 2 invariant — "each nonleaf level
//! is precisely the `(high value, link)` sequence of the level below" —
//! which makes every index level *derived data*. The leaf chain is the
//! truth; everything above is reconstructible:
//!
//! 1. **Normalize the leaf chain.** Walk from the never-changing leftmost
//!    leaf (§3.3) following links. A half-rearrangement shows up as an
//!    overlap between a node's range and its successor's; trimming the left
//!    node to the boundary the right node already carries completes (or
//!    rolls back) the interrupted step — the pair data is identical in both
//!    copies, so either direction preserves the key set.
//! 2. **Rebuild the index levels** bottom-up from the chain's
//!    `(high, link)` sequence, write a fresh prime block.
//! 3. **Garbage-collect**: free every allocated page that is not the prime
//!    block, a chain leaf, or a rebuilt index node — this reclaims split
//!    orphans, merged-away nodes awaiting deferred release, and the old
//!    index wholesale.
//!
//! The repair writes through the same journaled store, so a crash *during*
//! recovery is itself recoverable: the leaf chain stays walkable after
//! every single-page write above, and the next repair simply starts over.

use crate::config::TreeConfig;
use crate::counters::TreeCounters;
use crate::error::{Result, TreeError};
use crate::key::Bound;
use crate::node::{Node, NodeKind};
use crate::prime::PrimeBlock;
use crate::tree::BLinkTree;
use blink_pagestore::{PageId, PageStore};
use std::collections::HashSet;
use std::sync::Arc;

/// What [`BLinkTree::open_or_recover`] did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// False: the tree opened clean (validated + verified, nothing
    /// rewritten). True: structural repair ran.
    pub repaired: bool,
    /// WAL records the store replayed before the tree was opened (filled
    /// in by the durable layer; 0 for non-durable stores).
    pub wal_records_replayed: u64,
    /// Leaves on the (normalized) chain.
    pub leaves: usize,
    /// Leaves rewritten to resolve range overlaps/gaps from interrupted
    /// rearrangements.
    pub trimmed_leaves: usize,
    /// Leaves dropped because a neighbor already covered their range
    /// (completed merges whose loser survived the crash).
    pub dropped_leaves: usize,
    /// Index nodes written by the Fig. 2 rebuild.
    pub rebuilt_internal_nodes: usize,
    /// Unreachable pages returned to the free list.
    pub freed_pages: usize,
    /// Height after recovery.
    pub height: u32,
}

impl BLinkTree {
    /// Opens a tree, repairing it if the shutdown was dirty.
    ///
    /// Fast path: a clean [`BLinkTree::open`] whose [`BLinkTree::verify`]
    /// passes returns immediately. A node with more than `2k` pairs means
    /// `cfg.k` is smaller than the `k` the tree was built with — no crash
    /// leaves one — so that fails with [`TreeError::Config`] before the
    /// repair writes anything. Otherwise the structural repair above
    /// runs; the result is re-verified before it is returned. Call on a
    /// quiesced store only (recovery is single-threaded by nature).
    pub fn open_or_recover(
        store: Arc<PageStore>,
        cfg: TreeConfig,
        prime_pid: PageId,
    ) -> Result<(Arc<BLinkTree>, RecoveryStats)> {
        BLinkTree::open_or_recover_protected(store, cfg, prime_pid, &HashSet::new())
    }

    /// [`BLinkTree::open_or_recover`] for a store the tree shares with a
    /// co-resident structure: pages in `protected` (e.g. the record heap's
    /// pages, enumerated by their magic) are exempt from the repair's
    /// orphan collection — they are someone else's data, not tree garbage.
    pub fn open_or_recover_protected(
        store: Arc<PageStore>,
        cfg: TreeConfig,
        prime_pid: PageId,
        protected: &HashSet<PageId>,
    ) -> Result<(Arc<BLinkTree>, RecoveryStats)> {
        if let Ok(tree) = BLinkTree::open(Arc::clone(&store), cfg.clone(), prime_pid) {
            if let Ok(report) = tree.verify(false) {
                if report.overfull_nodes > 0 {
                    return Err(TreeError::Config(
                        "nodes hold more than 2k pairs: reopen with the k the tree was built with",
                    ));
                }
                if report.is_ok() {
                    let stats = RecoveryStats {
                        repaired: false,
                        leaves: report.leaf_count,
                        height: report.height,
                        ..RecoveryStats::default()
                    };
                    return Ok((tree, stats));
                }
            }
        }
        let tree = BLinkTree::open_unchecked(store, cfg, prime_pid)?;
        let stats = tree.repair(protected)?;
        let report = tree.verify(false)?;
        if !report.is_ok() {
            return Err(TreeError::Corrupt(
                "recovery repair did not restore the tree invariants",
            ));
        }
        TreeCounters::bump(&tree.counters.recoveries);
        Ok((tree, stats))
    }

    /// One full repair pass (see module docs). Assumes exclusive access.
    fn repair(&self, protected: &HashSet<PageId>) -> Result<RecoveryStats> {
        let mut st = RecoveryStats {
            repaired: true,
            ..RecoveryStats::default()
        };
        let prime = self.read_prime()?;
        let first_leaf = prime
            .leftmost_at(0)
            .ok_or(TreeError::Corrupt("prime block lost the leaf level"))?;

        let mut chain = self.collect_leaf_chain(first_leaf)?;
        self.normalize_leaf_chain(&mut chain, &mut st)?;
        let index_pids = self.rebuild_index_levels(&chain, first_leaf, &mut st)?;
        self.collect_garbage(&chain, &index_pids, protected, &mut st)?;

        st.leaves = chain.len();
        st.height = self.read_prime()?.height;
        Ok(st)
    }

    /// Walks the leaf chain from the leftmost leaf. Deleted nodes still
    /// linked in (a crash between a merge's unlink and its tombstone
    /// write cannot happen — the unlink *is* the tombstone bypass — but a
    /// collapse interrupted elsewhere may leave one) are skipped.
    fn collect_leaf_chain(&self, first_leaf: PageId) -> Result<Vec<(PageId, Node, bool)>> {
        let mut chain: Vec<(PageId, Node, bool)> = Vec::new();
        let mut cur = Some(first_leaf);
        let mut hops = 0usize;
        while let Some(pid) = cur {
            hops += 1;
            if hops > 100_000_000 {
                return Err(TreeError::Corrupt("leaf chain does not terminate"));
            }
            let node = self.read_node(pid)?;
            cur = node.link;
            if node.deleted {
                // Unlink it: the page is garbage-collected afterwards, so a
                // surviving chain link to it would dangle.
                match chain.last_mut() {
                    Some(prev) => {
                        prev.1.link = node.link;
                        prev.2 = true;
                    }
                    None => {
                        return Err(TreeError::Corrupt(
                            "leftmost leaf is deleted (it never is, §3.3)",
                        ))
                    }
                }
                continue;
            }
            if node.kind != NodeKind::Leaf || node.level != 0 {
                return Err(TreeError::Corrupt("non-leaf node on the leaf chain"));
            }
            chain.push((pid, node, false));
        }
        if chain.is_empty() {
            return Err(TreeError::Corrupt("leaf chain is empty"));
        }
        Ok(chain)
    }

    /// Resolves range overlaps/gaps between adjacent leaves (interrupted
    /// rearrangements), fixes the outer bounds, clears stray root bits,
    /// and rewrites every modified leaf.
    fn normalize_leaf_chain(
        &self,
        chain: &mut Vec<(PageId, Node, bool)>,
        st: &mut RecoveryStats,
    ) -> Result<()> {
        // Stray root bits: the true root is re-established by the rebuild.
        for entry in chain.iter_mut() {
            if entry.1.is_root {
                entry.1.is_root = false;
                entry.2 = true;
            }
            if entry.1.merge_target.is_some() {
                entry.1.merge_target = None;
                entry.2 = true;
            }
        }

        let mut i = 1;
        while i < chain.len() {
            let prev_low = chain[i - 1].1.low;
            let prev_high = chain[i - 1].1.high;
            let low = chain[i].1.low;
            let high = chain[i].1.high;
            if low == prev_high {
                i += 1;
                continue;
            }
            if low > prev_high {
                // A gap. No live key can be in it (nothing reachable ever
                // covered it); stretch this node's low to close it.
                chain[i].1.low = prev_high;
                chain[i].2 = true;
                st.trimmed_leaves += 1;
                i += 1;
                continue;
            }
            // Overlap: the moved pairs exist in both nodes.
            if high <= prev_high {
                // Fully covered by the left node (a merge's loser still
                // chained in): drop it.
                let (_, dropped, _) = chain.remove(i);
                chain[i - 1].1.link = dropped.link;
                chain[i - 1].2 = true;
                st.dropped_leaves += 1;
                continue;
            }
            if low <= prev_low {
                if i - 1 > 0 {
                    // The right node covers the whole left node: drop the
                    // left one.
                    chain.remove(i - 1);
                    chain[i - 2].1.link = Some(chain[i - 1].0);
                    chain[i - 2].2 = true;
                    st.dropped_leaves += 1;
                    i -= 1;
                } else {
                    // The left node is the leftmost leaf (never dropped):
                    // trim this node's duplicated low keys instead.
                    let boundary = prev_high;
                    let node = &mut chain[i].1;
                    node.entries.retain(|&(k, _)| Bound::Key(k) > boundary);
                    node.low = boundary;
                    chain[i].2 = true;
                    st.trimmed_leaves += 1;
                    i += 1;
                }
                continue;
            }
            // Partial overlap: trim the left node down to the boundary the
            // right node carries — completing (or rolling back) the
            // interrupted rearrangement; the key set is unchanged.
            let boundary = low;
            let left = &mut chain[i - 1].1;
            left.entries.retain(|&(k, _)| Bound::Key(k) <= boundary);
            left.high = boundary;
            chain[i - 1].2 = true;
            st.trimmed_leaves += 1;
            i += 1;
        }

        // Outer bounds.
        if chain[0].1.low != Bound::NegInf {
            chain[0].1.low = Bound::NegInf;
            chain[0].2 = true;
            st.trimmed_leaves += 1;
        }
        let last = chain.last_mut().expect("chain is nonempty");
        if last.1.high != Bound::PosInf {
            last.1.high = Bound::PosInf;
            last.2 = true;
            st.trimmed_leaves += 1;
        }

        for (pid, node, dirty) in chain.iter() {
            if *dirty {
                self.write_node(*pid, node)?;
            }
        }
        Ok(())
    }

    /// Rebuilds every index level from the leaf chain (Fig. 2: each level
    /// is the `(high, link)` sequence of the level below), then writes the
    /// new prime block. Returns the freshly allocated index page ids.
    fn rebuild_index_levels(
        &self,
        chain: &[(PageId, Node, bool)],
        first_leaf: PageId,
        st: &mut RecoveryStats,
    ) -> Result<Vec<PageId>> {
        let mut leftmost = vec![first_leaf];
        let mut children: Vec<(PageId, Bound)> =
            chain.iter().map(|(pid, n, _)| (*pid, n.high)).collect();
        let mut index_pids: Vec<PageId> = Vec::new();
        let mut level: u8 = 0;

        while children.len() > 1 {
            level = level
                .checked_add(1)
                .ok_or(TreeError::Corrupt("rebuilt tree too tall"))?;
            // Pointers per node: ≤ 2k keeps pairs ≤ 2k - 1 < the cap, and
            // even distribution avoids a degenerate single-pointer tail.
            let per = self.cfg.max_pairs().max(2);
            let n = children.len();
            let groups = n.div_ceil(per);
            let mut pids = Vec::with_capacity(groups);
            for _ in 0..groups {
                pids.push(self.store.alloc()?);
            }
            let mut next: Vec<(PageId, Bound)> = Vec::with_capacity(groups);
            let mut prev_high = Bound::NegInf;
            let mut idx = 0usize;
            for g in 0..groups {
                let size = n / groups + usize::from(g < n % groups);
                let group = &children[idx..idx + size];
                idx += size;
                let mut node = Node::new_internal(level);
                node.low = prev_high;
                node.high = group.last().expect("nonempty group").1;
                node.p0 = Some(group[0].0);
                node.link = pids.get(g + 1).copied();
                node.is_root = false;
                node.entries = (1..group.len())
                    .map(|j| {
                        (
                            group[j - 1].1.expect_key("separator in rebuilt level"),
                            u64::from(group[j].0.to_raw()),
                        )
                    })
                    .collect();
                self.write_node(pids[g], &node)?;
                st.rebuilt_internal_nodes += 1;
                next.push((pids[g], node.high));
                prev_high = node.high;
            }
            index_pids.extend_from_slice(&pids);
            leftmost.push(pids[0]);
            children = next;
        }

        let root_pid = children[0].0;
        let mut root = self.read_node(root_pid)?;
        if !root.is_root {
            root.is_root = true;
            self.write_node(root_pid, &root)?;
        }
        let prime = PrimeBlock {
            height: u32::from(level) + 1,
            root: root_pid,
            leftmost,
        };
        self.write_prime(&prime)?;
        Ok(index_pids)
    }

    /// Frees every allocated page that is not the prime block, a chain
    /// leaf, a rebuilt index node, or protected (owned by a co-resident
    /// structure such as the record heap).
    fn collect_garbage(
        &self,
        chain: &[(PageId, Node, bool)],
        index_pids: &[PageId],
        protected: &HashSet<PageId>,
        st: &mut RecoveryStats,
    ) -> Result<()> {
        let mut reachable: HashSet<PageId> =
            HashSet::with_capacity(chain.len() + index_pids.len() + protected.len() + 1);
        reachable.insert(self.prime_pid);
        reachable.extend(chain.iter().map(|(pid, _, _)| *pid));
        reachable.extend(index_pids.iter().copied());
        reachable.extend(protected.iter().copied());
        for pid in self.store.allocated_pages() {
            if !reachable.contains(&pid) {
                self.store.free(pid)?;
                st.freed_pages += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use blink_pagestore::{Page, StoreConfig};

    fn populated(k: usize, n: u64) -> (Arc<PageStore>, PageId, TreeConfig) {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let cfg = TreeConfig::with_k(k);
        let tree = BLinkTree::create(Arc::clone(&store), cfg.clone()).unwrap();
        let prime = tree.prime_page();
        let mut s = tree.session();
        for i in 0..n {
            tree.insert(&mut s, i * 3, i).unwrap();
        }
        (store, prime, cfg)
    }

    fn reopen(
        store: &Arc<PageStore>,
        cfg: &TreeConfig,
        prime: PageId,
    ) -> (Arc<BLinkTree>, RecoveryStats) {
        BLinkTree::open_or_recover(Arc::clone(store), cfg.clone(), prime).unwrap()
    }

    fn assert_contents(tree: &BLinkTree, n: u64) {
        let mut s = tree.session();
        for i in 0..n {
            assert_eq!(
                tree.search(&mut s, i * 3).unwrap(),
                Some(i),
                "key {}",
                i * 3
            );
        }
        assert_eq!(tree.count(&mut s).unwrap(), n as usize);
    }

    #[test]
    fn clean_tree_opens_without_repair() {
        let (store, prime, cfg) = populated(4, 500);
        let (tree, st) = reopen(&store, &cfg, prime);
        assert!(!st.repaired);
        assert_contents(&tree, 500);
    }

    #[test]
    fn a_smaller_k_is_refused_before_the_repair_writes() {
        let (store, prime, cfg) = populated(8, 500);
        let puts = || store.stats().snapshot().puts;
        let before = puts();
        let err = BLinkTree::open_or_recover(Arc::clone(&store), TreeConfig::with_k(4), prime)
            .unwrap_err();
        assert!(matches!(err, TreeError::Config(_)), "{err:?}");
        assert_eq!(puts(), before, "the refused open wrote a page");
        // At the k it was built with, the tree opens clean.
        let (tree, st) = reopen(&store, &cfg, prime);
        assert!(!st.repaired);
        assert_eq!(tree.verify(false).unwrap().overfull_nodes, 0);
        assert_contents(&tree, 500);
    }

    #[test]
    fn leaked_page_triggers_repair_and_gc() {
        let (store, prime, cfg) = populated(4, 500);
        // A page allocated but never linked anywhere — a split that
        // crashed right after its sibling allocation.
        store.alloc().unwrap();
        let (tree, st) = reopen(&store, &cfg, prime);
        assert!(st.repaired);
        assert!(st.freed_pages >= 1);
        assert_contents(&tree, 500);
        tree.verify(false).unwrap().assert_ok();
    }

    #[test]
    fn half_split_is_completed() {
        let (store, prime, cfg) = populated(2, 400);
        // Simulate a crash after the split's two child writes but before
        // the separator insert: split a leaf manually and stop there.
        let tree = BLinkTree::open(Arc::clone(&store), cfg.clone(), prime).unwrap();
        let p = tree.prime_snapshot().unwrap();
        let mut leaf_pid = p.leftmost_at(0).unwrap();
        // Find a middle leaf with enough pairs to split.
        loop {
            let n = tree.read_node(leaf_pid).unwrap();
            if n.pairs() >= 3 || n.link.is_none() {
                break;
            }
            leaf_pid = n.link.unwrap();
        }
        let mut left = tree.read_node(leaf_pid).unwrap();
        if left.pairs() >= 3 {
            let q = store.alloc().unwrap();
            let right = left.split(q);
            tree.write_node(q, &right).unwrap();
            tree.write_node(leaf_pid, &left).unwrap();
            // ... crash: no separator reaches the parent.
        }
        drop(tree);
        let (tree, st) = reopen(&store, &cfg, prime);
        assert!(st.repaired);
        assert_contents(&tree, 400);
        tree.verify(false).unwrap().assert_ok();
    }

    #[test]
    fn interrupted_root_switch_is_repaired() {
        let (store, prime, cfg) = populated(2, 300);
        // Clear the root bit behind the tree's back — the state after a
        // root split wrote the old root but crashed before the new root
        // and prime reached storage. BLinkTree::open refuses this; the
        // recovery path must not.
        let tree = BLinkTree::open(Arc::clone(&store), cfg.clone(), prime).unwrap();
        let p = tree.prime_snapshot().unwrap();
        let mut root = tree.read_node(p.root).unwrap();
        root.is_root = false;
        tree.write_node(p.root, &root).unwrap();
        drop(tree);
        assert!(BLinkTree::open(Arc::clone(&store), cfg.clone(), prime).is_err());
        let (tree, st) = reopen(&store, &cfg, prime);
        assert!(st.repaired);
        assert_contents(&tree, 300);
    }

    #[test]
    fn half_rearrangement_overlap_is_trimmed() {
        let (store, prime, cfg) = populated(2, 200);
        let tree = BLinkTree::open(Arc::clone(&store), cfg.clone(), prime).unwrap();
        // Fake "right gained, left not yet rewritten": move the boundary
        // of some leaf's right neighbor two keys to the left without
        // touching the leaf itself.
        let p = tree.prime_snapshot().unwrap();
        let first = p.leftmost_at(0).unwrap();
        let left = tree.read_node(first).unwrap();
        let right_pid = left.link.expect("tree has several leaves");
        let mut right = tree.read_node(right_pid).unwrap();
        let moved: Vec<(Key, u64)> = left.entries.iter().rev().take(1).copied().collect();
        right.low = Bound::Key(moved[0].0 - 1);
        for &(k, v) in &moved {
            right.entries.insert(0, (k, v));
        }
        tree.write_node(right_pid, &right).unwrap();
        drop(tree);
        let (tree, st) = reopen(&store, &cfg, prime);
        assert!(st.repaired);
        assert!(st.trimmed_leaves >= 1);
        assert_contents(&tree, 200);
        tree.verify(false).unwrap().assert_ok();
    }

    #[test]
    fn unreclaimed_deferred_pages_are_collected() {
        // Deletions + compression defer page frees; a crash loses the
        // in-memory deferred list, leaving allocated-but-unreachable pages.
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let cfg = TreeConfig::with_k(2);
        let tree = BLinkTree::create(Arc::clone(&store), cfg.clone()).unwrap();
        let prime = tree.prime_page();
        let mut s = tree.session();
        for i in 0..400u64 {
            tree.insert(&mut s, i, i).unwrap();
        }
        for i in 0..300u64 {
            tree.delete(&mut s, i).unwrap();
        }
        tree.compress_drain(&mut s, 100_000).unwrap();
        // Crash without reclaim(): pending pages stay allocated.
        assert!(tree.pending_reclaim() > 0);
        drop(tree);
        let (tree, st) = reopen(&store, &cfg, prime);
        assert!(st.repaired);
        assert!(st.freed_pages > 0);
        let mut s = tree.session();
        for i in 300..400u64 {
            assert_eq!(tree.search(&mut s, i).unwrap(), Some(i));
        }
        tree.verify(false).unwrap().assert_ok();
    }

    #[test]
    fn deleted_node_on_the_chain_is_unlinked_before_gc() {
        let (store, prime, cfg) = populated(2, 300);
        // Mark a middle leaf deleted while its predecessor still links to
        // it (an interrupted collapse can leave this). Repair must both
        // skip it AND redirect the predecessor — otherwise GC frees the
        // page behind a live link.
        let tree = BLinkTree::open(Arc::clone(&store), cfg.clone(), prime).unwrap();
        let p = tree.prime_snapshot().unwrap();
        let first = p.leftmost_at(0).unwrap();
        let victim_pid = tree.read_node(first).unwrap().link.expect("several leaves");
        let mut victim = tree.read_node(victim_pid).unwrap();
        let orphaned: Vec<Key> = victim.entries.iter().map(|&(k, _)| k).collect();
        victim.deleted = true;
        tree.write_node(victim_pid, &victim).unwrap();
        drop(tree);
        let (tree, st) = reopen(&store, &cfg, prime);
        assert!(st.repaired);
        tree.verify(false).unwrap().assert_ok();
        let mut s = tree.session();
        // The victim's keys are gone (it was deleted), everything else
        // survives and the chain is fully walkable.
        for i in 0..300u64 {
            let key = i * 3;
            let expect = (!orphaned.contains(&key)).then_some(i);
            assert_eq!(tree.search(&mut s, key).unwrap(), expect, "key {key}");
        }
    }

    #[test]
    fn corrupt_prime_is_unrecoverable() {
        let (store, prime, cfg) = populated(4, 50);
        store.put(prime, &Page::zeroed(4096)).unwrap();
        assert!(BLinkTree::open_or_recover(store, cfg, prime).is_err());
    }
}

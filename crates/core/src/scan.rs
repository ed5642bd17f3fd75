//! Streaming range scans: a lazy cursor over the leaf links.
//!
//! PR 3 redesigned `range(lo, hi) -> Vec` into [`Scan`], a cursor that
//! walks the leaf chain **incrementally**: it visits one leaf at a time,
//! reads it whole out of the buffer pool (optimistically, like every
//! traversal read; pins are never held between `next` calls),
//! buffers at most one leaf's worth of matching pairs, and then follows the
//! link. A 50k-key scan therefore costs O(2k) transient memory instead of
//! materializing 50k pairs, and never blocks writers.
//!
//! The protocol is the paper's lock-free reader discipline, unchanged:
//!
//! * the cursor key (`cursor` = smallest key not yet covered) makes every
//!   re-read idempotent — a restart can only re-harvest keys the caller
//!   already consumed, and those are filtered out;
//! * each leaf reached over a link is validated with the §5.2 checks
//!   (expected level, deletion bit → merge pointer, `wrong_node`); any
//!   failure re-descends from the root at the cursor, bounded by the
//!   restart budget;
//! * overtaking splits/compressions between two `next` calls are absorbed
//!   the same way an in-flight `search` absorbs them.
//!
//! Two forms are provided: [`Scan`] is a *detached* cursor whose `next`
//! takes the tree and session explicitly (the `Db` facade interleaves it
//! with record fetches on the same session); [`ScanIter`], from
//! [`BLinkTree::scan`], bundles tree + session into a plain `Iterator` and
//! brackets the logical operation for §5.3 reclamation.

use crate::error::Result;
use crate::key::{Bound, Key};
use crate::node::{Next, Node};
use crate::traverse::Budget;
use crate::tree::BLinkTree;
use blink_pagestore::{PageId, Session};
use std::collections::VecDeque;

/// A detached streaming cursor over `[lo, hi]` (both inclusive).
///
/// Holds no locks, no pins and no page references between calls — only
/// plain state (cursor key, one buffered leaf's pairs, a link hint). Obtain
/// one with [`BLinkTree::scan_cursor`], or use the iterator form
/// [`BLinkTree::scan`].
#[derive(Debug)]
pub struct Scan {
    hi: Key,
    /// Smallest key not yet covered by a harvested leaf.
    cursor: Key,
    /// Link pointer of the previously harvested leaf (the next hop).
    next_link: Option<PageId>,
    /// Pairs harvested from the current leaf, not yet handed out.
    buf: VecDeque<(Key, u64)>,
    done: bool,
    budget: Budget,
}

impl Scan {
    pub(crate) fn new(lo: Key, hi: Key, max_restarts: u64) -> Scan {
        Scan {
            hi,
            cursor: lo,
            next_link: None,
            buf: VecDeque::new(),
            done: lo > hi,
            budget: Budget::new(max_restarts),
        }
    }

    /// The next pair in key order, or `None` when the range is exhausted.
    ///
    /// `tree` must be the tree the cursor was created for, and `session`
    /// the calling worker's session (restarts and link follows are counted
    /// on it, exactly as for point operations). A terminal error fuses the
    /// cursor: the error is returned once and every later call yields
    /// `Ok(None)` — an error-skipping consumer terminates rather than
    /// retrying the failed leaf forever.
    pub fn next(&mut self, tree: &BLinkTree, session: &mut Session) -> Result<Option<(Key, u64)>> {
        loop {
            if let Some(pair) = self.buf.pop_front() {
                return Ok(Some(pair));
            }
            if self.done {
                return Ok(None);
            }
            if let Err(e) = self.fill(tree, session) {
                self.done = true;
                return Err(e);
            }
        }
    }

    /// Advances to the leaf covering `self.cursor`, harvests its matching
    /// pairs into `buf`, and moves the cursor past it. The leaf is read
    /// whole by the tree's one page read ([`BLinkTree::try_read`]): an
    /// unlatched probe the store validates, latched only on its fallback.
    /// Nothing is held between leaves.
    /// Each hop's latency lands in the tree's scan-hop histogram.
    fn fill(&mut self, tree: &BLinkTree, session: &mut Session) -> Result<()> {
        let t0 = std::time::Instant::now();
        let r = self.fill_inner(tree, session);
        tree.counters
            .scan_hop_hist
            .record(t0.elapsed().as_nanos() as u64);
        r
    }

    fn fill_inner(&mut self, tree: &BLinkTree, session: &mut Session) -> Result<()> {
        // Reach a node at the leaf level: over the previous leaf's link
        // when possible, else by descending from the root at the cursor.
        // The leaf is read whole — the pairs are what a scan is after.
        let mut hop = self.next_link.take();
        loop {
            let leaf = match hop.take() {
                Some(link) => {
                    tree.note_link(session);
                    let mut cur = link;
                    tree.step_node(session, &mut cur, 0, |pid| {
                        tree.try_read(pid, Node::decode_probe)
                    })?
                }
                // Route in place down to the leaf, then read it whole.
                None => Some(
                    tree.descend_with(session, self.cursor, 0, false, &mut self.budget, |pid| {
                        tree.try_read(pid, Node::decode_probe)
                    })?
                    .node,
                ),
            };
            // moveright until the node covers the cursor (§5.2: a wrong
            // node — data moved left past us — forces a restart, as does
            // an unreadable one).
            let Some(node) = leaf.filter(|node| !node.wrong_node(self.cursor)) else {
                self.budget.restart(session, &tree.counters)?;
                continue;
            };
            match node.next(self.cursor) {
                Next::Here => {
                    self.harvest(&node);
                    return Ok(());
                }
                Next::Link(l) => hop = Some(l),
                Next::Child(_) => unreachable!("level-0 node routed to a child"),
            }
        }
    }

    /// Copies the covering leaf's in-range pairs and advances the cursor.
    fn harvest(&mut self, node: &Node) {
        for &(k, val) in &node.entries {
            if k >= self.cursor && k <= self.hi {
                self.buf.push_back((k, val));
            }
        }
        if node.high >= Bound::Key(self.hi) {
            self.done = true;
            return;
        }
        // high < Key(hi) ≤ Key(u64::MAX), so the +1 cannot overflow.
        self.cursor = node.high.expect_key("finite high below hi") + 1;
        match node.link {
            Some(l) => self.next_link = Some(l),
            None => self.done = true, // rightmost (only under churn)
        }
    }
}

/// Iterator form of [`Scan`]: owns the session borrow and brackets the
/// logical operation (the §5.3 reclamation horizon covers the whole scan,
/// so no leaf the cursor may still visit is released mid-scan).
#[derive(Debug)]
pub struct ScanIter<'t, 's> {
    tree: &'t BLinkTree,
    session: &'s mut Session,
    scan: Scan,
}

impl Iterator for ScanIter<'_, '_> {
    type Item = Result<(Key, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.scan.next(self.tree, self.session).transpose()
    }
}

impl Drop for ScanIter<'_, '_> {
    fn drop(&mut self) {
        self.session.end_op();
    }
}

impl BLinkTree {
    /// Opens a streaming scan over `[lo, hi]` as an iterator of
    /// `Result<(key, value)>`. Lock-free; see [`Scan`] for the protocol.
    /// The borrow of `session` lasts for the iterator's lifetime; the
    /// logical operation ends when the iterator is dropped.
    pub fn scan<'t, 's>(&'t self, session: &'s mut Session, lo: Key, hi: Key) -> ScanIter<'t, 's> {
        session.begin_op();
        ScanIter {
            scan: Scan::new(lo, hi, self.config().max_restarts),
            tree: self,
            session,
        }
    }

    /// Opens a *detached* streaming cursor over `[lo, hi]`. The caller
    /// passes the tree and a session to every [`Scan::next`] call and is
    /// responsible for op bracketing ([`Session::begin_op`]/`end_op`) if it
    /// wants the §5.3 reclamation horizon to cover the scan.
    pub fn scan_cursor(&self, lo: Key, hi: Key) -> Scan {
        Scan::new(lo, hi, self.config().max_restarts)
    }
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
    fn streams_in_order_without_materializing() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..5_000u64 {
            t.insert(&mut s, i, i * 3).unwrap();
        }
        let mut seen = 0u64;
        let mut prev = None;
        for pair in t.scan(&mut s, 0, u64::MAX) {
            let (k, v) = pair.unwrap();
            assert_eq!(v, k * 3);
            if let Some(p) = prev {
                assert!(k > p, "scan must be strictly ascending");
            }
            prev = Some(k);
            seen += 1;
        }
        assert_eq!(seen, 5_000);
    }

    #[test]
    fn empty_when_lo_exceeds_hi() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..100u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        assert_eq!(t.scan(&mut s, 50, 49).count(), 0);
        assert_eq!(t.scan(&mut s, u64::MAX, 0).count(), 0);
        assert_eq!(t.range(&mut s, 50, 49).unwrap(), vec![]);
        // Degenerate one-key range is inclusive on both ends.
        let one: Vec<_> = t.scan(&mut s, 7, 7).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(one, vec![(7, 7)]);
    }

    #[test]
    fn inclusive_bounds_at_node_boundaries() {
        let t = tree(2); // small k: many leaves
        let mut s = t.session();
        for i in 0..400u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        // Find actual leaf boundaries (each non-last leaf's finite high).
        let prime = t.prime_snapshot().unwrap();
        let mut pid = prime.leftmost_at(0);
        let mut boundaries = Vec::new();
        while let Some(p) = pid {
            let node = t.read_node(p).unwrap();
            if let Some(h) = node.high.key() {
                boundaries.push(h);
            }
            pid = node.link;
        }
        assert!(boundaries.len() > 10, "tree should have many leaves");
        for &b in &boundaries {
            // [b, b] and [b, b+1] and [b+1, ...]: the boundary key lands in
            // the left leaf, b+1 in the right one; both ends inclusive.
            let got: Vec<_> = t
                .scan(&mut s, b, b + 1)
                .collect::<Result<Vec<_>>>()
                .unwrap();
            let want: Vec<(u64, u64)> = (b..=b + 1).filter(|&k| k < 400).map(|k| (k, k)).collect();
            assert_eq!(got, want, "boundary {b}");
            let single: Vec<_> = t.scan(&mut s, b, b).collect::<Result<Vec<_>>>().unwrap();
            assert_eq!(single, vec![(b, b)], "boundary {b} single");
        }
    }

    #[test]
    fn cursor_survives_a_split_under_its_feet() {
        let t = tree(2);
        let mut s = t.session();
        // Even keys preloaded.
        for i in (0..2_000u64).step_by(2) {
            t.insert(&mut s, i, i).unwrap();
        }
        let mut writer = t.session();
        let mut cur = t.scan_cursor(0, 1_999);
        let mut got = Vec::new();
        let mut step = 0u64;
        while let Some(pair) = cur.next(&t, &mut s).unwrap() {
            got.push(pair);
            // Interleave splits: odd-key inserts between cursor steps force
            // leaf splits across the whole range, including ahead of and
            // behind the cursor.
            for _ in 0..3 {
                let k = (step * 997 + 1) % 2_000;
                if k % 2 == 1 {
                    t.insert(&mut writer, k, k).unwrap();
                }
                step += 1;
            }
        }
        // Every preloaded even key must be present exactly once, in order.
        let evens: Vec<u64> = got.iter().map(|&(k, _)| k).filter(|k| k % 2 == 0).collect();
        assert_eq!(evens, (0..2_000u64).step_by(2).collect::<Vec<_>>());
        // No duplicates at all (idempotent re-reads are filtered).
        let mut keys: Vec<u64> = got.iter().map(|&(k, _)| k).collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "cursor must not yield duplicates");
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending order");
    }

    #[test]
    fn concurrent_split_thread_during_scan() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let t = tree(2);
        {
            let mut s = t.session();
            for i in (0..10_000u64).step_by(2) {
                t.insert(&mut s, i, i).unwrap();
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut s = t.session();
                let mut k = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    t.insert(&mut s, k % 10_000, k).ok();
                    k += 2;
                }
            })
        };
        for _ in 0..5 {
            let mut s = t.session();
            let mut prev = None;
            let mut evens = 0u64;
            for pair in t.scan(&mut s, 0, 9_999) {
                let (k, _) = pair.unwrap();
                if let Some(p) = prev {
                    assert!(k > p, "ascending under concurrent splits");
                }
                prev = Some(k);
                if k % 2 == 0 {
                    evens += 1;
                }
            }
            assert_eq!(evens, 5_000, "preloaded keys never go missing");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn range_compatibility_wrapper_matches_scan() {
        let t = tree(3);
        let mut s = t.session();
        for i in (0..1_000u64).step_by(3) {
            t.insert(&mut s, i, i + 1).unwrap();
        }
        let via_range = t.range(&mut s, 100, 500).unwrap();
        let via_scan: Vec<_> = t
            .scan(&mut s, 100, 500)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(via_range, via_scan);
        assert!(!via_range.is_empty());
    }
}

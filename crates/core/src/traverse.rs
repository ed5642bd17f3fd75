//! Traversal: `movedown` / `movedown-and-stack` / `moveright` (Fig. 4/5)
//! plus the §5.2 restart machinery.
//!
//! Traversals never lock (readers are lock-free); they validate every node
//! they read and **restart** when compression has moved data out from under
//! them: "Essentially, our approach is to solve the problem when it occurs
//! rather than to avoid it at all cost" (§1). The two §5.2 hazards and
//! their handling:
//!
//! 1. *Reading a deleted node*: follow its merge pointer (the \[4\] trick).
//! 2. *Reading a node whose low value is at or above the search value*
//!    (data moved left past us), or a freed/reallocated page: restart the
//!    descent from the root.
//!
//! Restarts are counted on the session and bounded by
//! `TreeConfig::max_restarts`.
//!
//! Every node a traversal examines — the prime block at descent start,
//! every index level and the leaves — comes through the tree's one page
//! read (`BLinkTree::read_page`, behind `try_read` and `read_prime`): a
//! probe of the page in place in its frame with no pin and no latch,
//! which the store validates against the frame's seqlock before it hands
//! the result back. A descent step reads only what it routes on —
//! [`Node::route`]: the header and a binary search over the pairs, giving
//! the child or link to follow and what the §5.2 checks need — so the
//! §2.2 "private snapshot" a process reasons over is that [`Route`]. Only
//! a scan's harvested leaf is read whole, as a [`Node`]. Sagiv's readers
//! "do not use any lock and can read a node even if it is locked by an
//! updater", and here they write nothing another process reads. Only when
//! no probe can be taken (page not resident, writer mid-mutation) or the
//! probe fails validation does the store fall back to a pinned, latched
//! frame guard, which is gone before the read returns. Writers' re-reads
//! under the paper lock (`lock_covering`) take the same read: no other
//! process writes a node while its paper lock is held, so the probe sees
//! the image a latched read would.

use crate::counters::TreeCounters;
use crate::error::{Result, TreeError};
use crate::key::{Bound, Key};
use crate::node::{Next, Node, Route};
use crate::tree::BLinkTree;
use blink_pagestore::{PageId, Session};

/// Bounded restart budget shared across one logical operation.
#[derive(Debug)]
pub(crate) struct Budget {
    left: u64,
    total: u64,
}

impl Budget {
    pub(crate) fn new(max: u64) -> Budget {
        Budget {
            left: max,
            total: max,
        }
    }

    /// Records a restart (on the session and tree-wide); errors out once
    /// the budget is exhausted.
    pub(crate) fn restart(&mut self, session: &mut Session, counters: &TreeCounters) -> Result<()> {
        session.note_restart();
        TreeCounters::bump(&counters.restarts);
        if self.left == 0 {
            return Err(TreeError::TooManyRestarts {
                attempts: self.total,
            });
        }
        self.left -= 1;
        Ok(())
    }
}

/// Result of a descent: the first node reached at the target level (read
/// unlocked: its route toward the key, or the whole node for a scan) and,
/// when requested, the stack of nodes through which the descent passed
/// (`movedown-and-stack`).
#[derive(Debug)]
pub(crate) struct Descent<R = Route> {
    pub pid: PageId,
    pub node: R,
    /// One pointer per level above `target_level`, top of tree first; the
    /// last element is the node at `target_level + 1` we descended through.
    pub stack: Vec<PageId>,
}

/// What [`BLinkTree::step_node`] checks of a node it read: a [`Route`] at
/// every descent level, the whole [`Node`] for a scan's harvested leaf.
pub(crate) trait Stepped {
    fn level(&self) -> u8;
    fn deleted(&self) -> bool;
    fn merge_target(&self) -> Option<PageId>;
    fn wrong_node(&self, v: Key) -> bool;
}

impl Stepped for Route {
    fn level(&self) -> u8 {
        self.level
    }
    fn deleted(&self) -> bool {
        self.deleted
    }
    fn merge_target(&self) -> Option<PageId> {
        self.merge_target
    }
    fn wrong_node(&self, v: Key) -> bool {
        Route::wrong_node(self, v)
    }
}

impl Stepped for Node {
    fn level(&self) -> u8 {
        self.level
    }
    fn deleted(&self) -> bool {
        self.deleted
    }
    fn merge_target(&self) -> Option<PageId> {
        self.merge_target
    }
    fn wrong_node(&self, v: Key) -> bool {
        Node::wrong_node(self, v)
    }
}

impl BLinkTree {
    /// Escalating bounded wait used where the paper says "wait for a while
    /// and then read again" (§3.3, §5.2).
    pub(crate) fn bounded_wait(&self, attempt: u32) {
        crate::counters::TreeCounters::bump(&self.counters.waits);
        if attempt < 32 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(
                50 << (attempt / 64).min(6),
            ));
        }
    }

    /// Pointer to the leftmost node at `level`, waiting (bounded) for the
    /// level to exist — the §3.3 race where an insertion needs a level that
    /// a concurrent root split has not yet published in the prime block.
    pub(crate) fn leftmost_at_level(&self, level: u8) -> Result<PageId> {
        for attempt in 0..self.cfg.wait_retries {
            let prime = self.read_prime()?;
            if let Some(pid) = prime.leftmost_at(level) {
                return Ok(pid);
            }
            self.bounded_wait(attempt);
        }
        Err(TreeError::TooManyRestarts {
            attempts: u64::from(self.cfg.wait_retries),
        })
    }

    /// `movedown` / `movedown-and-stack` (Fig. 4/5), generalized to stop at
    /// `target_level` (0 for leaves; higher for locating split parents and
    /// compression parents). Returns the first node reached at that level;
    /// the caller continues with `moveright` (with or without locks).
    pub(crate) fn descend(
        &self,
        session: &mut Session,
        v: Key,
        target_level: u8,
        with_stack: bool,
        budget: &mut Budget,
    ) -> Result<Descent> {
        self.descend_with(session, v, target_level, with_stack, budget, |pid| {
            self.try_route(pid, v)
        })
    }

    /// [`BLinkTree::descend`], reading the node it lands on with
    /// `read_target` instead of routing it: a scan reads its first leaf
    /// whole, once.
    pub(crate) fn descend_with<R: Stepped>(
        &self,
        session: &mut Session,
        v: Key,
        target_level: u8,
        with_stack: bool,
        budget: &mut Budget,
        read_target: impl Fn(PageId) -> Result<Option<R>>,
    ) -> Result<Descent<R>> {
        'restart: loop {
            let prime = self.read_prime()?;
            if prime.height <= u32::from(target_level) {
                // Target level does not exist yet (§3.3): wait and re-read.
                budget.restart(session, &self.counters)?;
                self.bounded_wait(0);
                continue 'restart;
            }
            let mut current = prime.root;
            let mut expected_level = (prime.height - 1) as u8;
            let mut stack = Vec::new();
            loop {
                if expected_level == target_level {
                    let Some(node) = self
                        .step_node(session, &mut current, expected_level, &read_target)?
                        .filter(|n| !n.wrong_node(v))
                    else {
                        budget.restart(session, &self.counters)?;
                        continue 'restart;
                    };
                    return Ok(Descent {
                        pid: current,
                        node,
                        stack,
                    });
                }
                let Some(route) = self
                    .step_node(session, &mut current, expected_level, |pid| {
                        self.try_route(pid, v)
                    })?
                    .filter(|r| !r.wrong_node(v))
                else {
                    budget.restart(session, &self.counters)?;
                    continue 'restart;
                };
                match route.next {
                    Next::Link(l) => {
                        self.note_link(session);
                        current = l;
                    }
                    Next::Child(c) => {
                        if with_stack {
                            stack.push(current);
                        }
                        expected_level -= 1;
                        current = c;
                    }
                    Next::Here => unreachable!("leaf above target level"),
                }
            }
        }
    }

    /// Reads the node at `*current` with `read` (a route, or the whole
    /// node), following merge pointers of deleted nodes (updating
    /// `*current` as it goes). Returns `None` — meaning the caller must
    /// restart — when the page is unreadable, the node is not at the
    /// expected level (freed and reallocated), or a merge chain dead-ends.
    pub(crate) fn step_node<R: Stepped>(
        &self,
        session: &mut Session,
        current: &mut PageId,
        expected_level: u8,
        read: impl Fn(PageId) -> Result<Option<R>>,
    ) -> Result<Option<R>> {
        // Merge chains are short (one hop in steady state); bound defensively.
        for _ in 0..64 {
            let Some(node) = read(*current)? else {
                return Ok(None);
            };
            if node.level() != expected_level {
                return Ok(None);
            }
            if node.deleted() {
                match node.merge_target() {
                    Some(t) => {
                        session.note_merge_pointer();
                        *current = t;
                        continue;
                    }
                    None => return Ok(None),
                }
            }
            return Ok(Some(node));
        }
        Ok(None)
    }

    /// The locked-search loop at the heart of `insert` (Fig. 5): starting
    /// from `hint`, lock a node at `level`, re-read it, and keep moving
    /// right / restarting until holding the lock on the node where `v`
    /// belongs ("we lock A and read it again to check whether v belongs in
    /// A, since A might have been split between the time we first read it
    /// and the moment we lock it").
    pub(crate) fn lock_covering(
        &self,
        session: &mut Session,
        v: Key,
        hint: PageId,
        level: u8,
        budget: &mut Budget,
    ) -> Result<(PageId, Node)> {
        let mut current = hint;
        loop {
            self.store.lock(current, session);
            let node = match self.try_read(current, Node::decode_probe)? {
                Some(n) => n,
                None => {
                    self.store.unlock(current, session);
                    budget.restart(session, &self.counters)?;
                    current = self.descend(session, v, level, false, budget)?.pid;
                    continue;
                }
            };
            if node.deleted {
                self.store.unlock(current, session);
                match node.merge_target {
                    Some(t) => {
                        session.note_merge_pointer();
                        current = t;
                    }
                    None => {
                        budget.restart(session, &self.counters)?;
                        current = self.descend(session, v, level, false, budget)?.pid;
                    }
                }
                continue;
            }
            if node.level != level || node.wrong_node(v) {
                self.store.unlock(current, session);
                budget.restart(session, &self.counters)?;
                current = self.descend(session, v, level, false, budget)?.pid;
                continue;
            }
            if Bound::Key(v) > node.high {
                // moveright, dropping the lock first (Fig. 5 unlocks before
                // calling moveright — locks are never held while moving).
                let link = node
                    .link
                    .expect("node with finite high value must have a link");
                self.store.unlock(current, session);
                self.note_link(session);
                current = link;
                continue;
            }
            return Ok((current, node));
        }
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
    fn budget_exhaustion_reports_total() {
        let t = tree(2);
        let mut s = t.session();
        s.begin_op();
        let mut b = Budget::new(2);
        assert!(b.restart(&mut s, t.counters()).is_ok());
        assert!(b.restart(&mut s, t.counters()).is_ok());
        match b.restart(&mut s, t.counters()) {
            Err(TreeError::TooManyRestarts { attempts }) => assert_eq!(attempts, 2),
            other => panic!("expected TooManyRestarts, got {other:?}"),
        }
        assert_eq!(s.stats().restarts, 3);
        assert_eq!(t.counters().snapshot().restarts, 3);
        s.end_op();
        let _ = t;
    }

    #[test]
    fn descend_collects_stack_top_down() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..500u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        s.begin_op();
        let mut b = Budget::new(100);
        let d = t.descend(&mut s, 250, 0, true, &mut b).unwrap();
        s.end_op();
        let prime = t.read_prime().unwrap();
        assert_eq!(
            d.stack.len() as u32,
            prime.height - 1,
            "one entry per nonleaf level"
        );
        assert_eq!(d.stack[0], prime.root, "stack starts at the root");
        // Each stack entry is an internal node one level below the previous.
        for (i, pid) in d.stack.iter().enumerate() {
            let n = t.read_node(*pid).unwrap();
            assert_eq!(u32::from(n.level), prime.height - 1 - i as u32);
        }
        // The landing node is a leaf covering the key.
        let leaf = t.read_node(d.pid).unwrap();
        assert!(leaf.is_leaf());
        assert!(crate::key::Bound::contains(leaf.low, leaf.high, 250));
        assert_eq!(d.node.next, Next::Here);
        assert_eq!(d.node.value, Some(250), "the leaf route carries the value");
    }

    #[test]
    fn descend_to_intermediate_level() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..2_000u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        s.begin_op();
        let mut b = Budget::new(100);
        for level in 0..t.height().unwrap() as u8 {
            let d = t.descend(&mut s, 999, level, false, &mut b).unwrap();
            let node = t.read_node(d.pid).unwrap();
            assert_eq!((d.node.level, node.level), (level, level));
            assert!(crate::key::Bound::contains(node.low, node.high, 999));
        }
        s.end_op();
    }

    #[test]
    fn descend_waits_for_missing_level_then_gives_up() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let cfg = TreeConfig {
            max_restarts: 3,
            wait_retries: 3,
            ..TreeConfig::with_k(2)
        };
        let t = BLinkTree::create(store, cfg).unwrap();
        let mut s = t.session();
        s.begin_op();
        let mut b = Budget::new(3);
        // Level 5 will never exist: the bounded §3.3 wait must expire.
        let r = t.descend(&mut s, 1, 5, false, &mut b);
        assert!(matches!(r, Err(TreeError::TooManyRestarts { .. })));
        s.end_op();
    }

    #[test]
    fn step_node_follows_merge_chain() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..200u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        // Force merges, keeping deleted nodes around (no reclaim).
        let prime = t.read_prime().unwrap();
        let first = prime.leftmost_at(0).unwrap();
        for i in 0..150u64 {
            t.delete(&mut s, i).unwrap();
        }
        t.compress_drain(&mut s, 100_000).unwrap();
        // Deleted leaves are no longer on the live link chain; sweep the
        // page space to find one (no reclamation has run, so they remain
        // readable — that is the point).
        let _ = first;
        let mut found_deleted = false;
        for raw in 1..=t.store.capacity() as u32 {
            let probe = PageId::from_raw(raw).unwrap();
            if let Ok(Some(n)) = t.try_read(probe, Node::decode_probe) {
                if n.deleted && n.level == 0 {
                    found_deleted = true;
                    let mut cur = probe;
                    s.begin_op();
                    let stepped = t
                        .step_node(&mut s, &mut cur, 0, |pid| {
                            t.try_read(pid, Node::decode_probe)
                        })
                        .unwrap();
                    s.end_op();
                    let n2 = stepped.expect("merge chain must resolve");
                    assert!(!n2.deleted);
                    assert_eq!(n2.level, 0);
                    assert_ne!(cur, probe, "step must have moved");
                    assert!(s.stats().merge_pointer_follows > 0);
                    break;
                }
            }
        }
        assert!(
            found_deleted,
            "workload should have left a deleted leaf to probe"
        );
    }

    #[test]
    fn lock_covering_moves_right_under_lock() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..300u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        let prime = t.read_prime().unwrap();
        let leftmost = prime.leftmost_at(0).unwrap();
        s.begin_op();
        let mut b = Budget::new(100);
        // Hint far left of the target: lock_covering must chase links.
        let (pid, node) = t.lock_covering(&mut s, 299, leftmost, 0, &mut b).unwrap();
        assert!(crate::key::Bound::contains(node.low, node.high, 299));
        assert_eq!(s.held_locks(), &[pid]);
        t.store.unlock(pid, &mut s);
        s.end_op();
        assert!(s.stats().link_follows > 0, "must have moved right");
    }
}

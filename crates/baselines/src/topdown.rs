//! A top-down lock-coupling B-tree — the \[2\]-family baseline.
//!
//! This is the "top-down solutions" style Sagiv's introduction contrasts
//! with: **every** process, readers included, locks every node on its path
//! (shared for readers, exclusive for updaters), releasing an ancestor only
//! after acquiring the descendant. Updaters restructure *preemptively* on
//! the way down (CLRS-style, minimum degree `t = k`): an insert splits any
//! full node it passes, a delete tops up any minimal node it passes
//! (borrow from a sibling or merge), so one downward pass always suffices.
//!
//! Structure: no links, no high values — a plain B-tree over the same page
//! format (the `link`/`high`/`low` fields of [`Node`] are simply unused,
//! pinned at `None`/±∞). Nodes hold between `k-1` and `2k-1` pairs (the
//! CLRS convention; preemptive splitting requires an odd maximum). Data
//! lives in the leaves; internal keys are separators (`≤ sep` goes left).
//!
//! Costs this baseline makes measurable, per the paper's argument:
//! readers take a lock per level (rw-lock traffic on the root for
//! everything), and writers exclusive-lock the meta/root, serializing at
//! the top of the tree.

use crate::rwlock::RwLockTable;
use blink_pagestore::{LogicalClock, PageId, PageStore, Session, SessionRegistry, WriteIntent};
use sagiv_blink::key::Bound;
use sagiv_blink::node::{Node, NodeKind};
use sagiv_blink::prime::PrimeBlock;
use sagiv_blink::{Key, Result, TreeCounters, TreeError};
use std::sync::Arc;

/// A top-down lock-coupling B-tree (Bayer–Schkolnick style).
#[derive(Debug)]
pub struct TopDownTree {
    store: Arc<PageStore>,
    locks: RwLockTable,
    k: usize,
    prime_pid: PageId,
    registry: Arc<SessionRegistry>,
    counters: TreeCounters,
}

impl TopDownTree {
    /// Creates a fresh tree. Requires `k ≥ 2` (CLRS minimum degree).
    pub fn create(store: Arc<PageStore>, k: usize) -> Result<Arc<TopDownTree>> {
        if k < 2 {
            return Err(TreeError::Config("top-down baseline requires k >= 2"));
        }
        if 2 * k > sagiv_blink::node::max_pairs_for_page(store.page_size()) {
            return Err(TreeError::Config("2k pairs do not fit in one page"));
        }
        let registry = SessionRegistry::new(Arc::new(LogicalClock::new()));
        let prime_pid = store.alloc()?;
        let root = store.alloc()?;
        let mut leaf = Node::new_leaf();
        leaf.is_root = true;
        store.put(root, &leaf.encode(store.page_size()))?;
        store.put(
            prime_pid,
            &PrimeBlock::initial(root).encode(store.page_size()),
        )?;
        Ok(Arc::new(TopDownTree {
            locks: RwLockTable::new(Arc::clone(&store)),
            store,
            k,
            prime_pid,
            registry,
            counters: TreeCounters::default(),
        }))
    }

    pub fn session(&self) -> Session {
        self.registry.open()
    }

    pub fn counters(&self) -> &TreeCounters {
        &self.counters
    }

    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    pub fn height(&self) -> Result<u32> {
        Ok(self.read_prime()?.height)
    }

    fn max_pairs(&self) -> usize {
        2 * self.k - 1
    }

    fn min_pairs(&self) -> usize {
        self.k - 1
    }

    fn read_node(&self, pid: PageId) -> Result<Node> {
        // Decodes straight from the page's pinned buffer-pool frame.
        Node::decode(&self.store.read(pid)?)
    }

    fn write_node(&self, pid: PageId, node: &Node) -> Result<()> {
        let mut w = self.store.write_page(pid, WriteIntent::Overwrite)?;
        node.encode_into(w.bytes_mut());
        w.commit()?;
        Ok(())
    }

    fn read_prime(&self) -> Result<PrimeBlock> {
        PrimeBlock::decode(&self.store.read(self.prime_pid)?)
    }

    fn write_prime(&self, prime: &PrimeBlock) -> Result<()> {
        let mut w = self
            .store
            .write_page(self.prime_pid, WriteIntent::Overwrite)?;
        prime.encode_into(w.bytes_mut());
        w.commit()?;
        Ok(())
    }

    // ==================================================================
    // search: shared-lock crabbing
    // ==================================================================

    pub fn search(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        session.begin_op();
        let r = (|| {
            // The prime block stands in for the "root pointer lock".
            self.locks.lock_shared(self.prime_pid, session);
            let prime = self.read_prime()?;
            let mut cur = prime.root;
            self.locks.lock_shared(cur, session);
            self.locks.unlock_shared(self.prime_pid, session);
            loop {
                let node = self.read_node(cur)?;
                if node.is_leaf() {
                    let r = node.leaf_get(v);
                    self.locks.unlock_shared(cur, session);
                    return Ok(r);
                }
                let child = node.pointer(node.child_index(v));
                self.locks.lock_shared(child, session);
                self.locks.unlock_shared(cur, session);
                cur = child;
            }
        })();
        session.end_op();
        r
    }

    // ==================================================================
    // insert: exclusive crabbing with preemptive splits
    // ==================================================================

    /// Returns `true` if the key was new.
    pub fn insert(&self, session: &mut Session, v: Key, value: u64) -> Result<bool> {
        session.begin_op();
        let r = self.insert_inner(session, v, value);
        session.end_op();
        r
    }

    fn insert_inner(&self, session: &mut Session, v: Key, value: u64) -> Result<bool> {
        self.locks.lock_exclusive(self.prime_pid, session);
        let mut prime = self.read_prime()?;
        let mut cur = prime.root;
        self.locks.lock_exclusive(cur, session);
        let mut node = self.read_node(cur)?;

        if node.pairs() == self.max_pairs() {
            // Preemptive root split: build a new root above, while still
            // holding the prime lock so nobody can see the intermediate
            // state.
            let (new_root, _) = self.split_root(&mut prime, cur, &mut node)?;
            self.locks.lock_exclusive(new_root, session);
            self.locks.unlock_exclusive(cur, session);
            cur = new_root;
            node = self.read_node(cur)?;
        }
        self.locks.unlock_exclusive(self.prime_pid, session);

        loop {
            if node.is_leaf() {
                let inserted = node.leaf_insert(v, value);
                if inserted {
                    self.write_node(cur, &node)?;
                }
                self.locks.unlock_exclusive(cur, session);
                return Ok(inserted);
            }
            let ci = node.child_index(v);
            let child_pid = node.pointer(ci);
            self.locks.lock_exclusive(child_pid, session);
            let mut child = self.read_node(child_pid)?;
            if child.pairs() == self.max_pairs() {
                // Split the full child while holding the parent; then decide
                // which half covers v.
                let (sep, right_pid) =
                    self.split_child(cur, &mut node, ci, child_pid, &mut child)?;
                if v > sep {
                    self.locks.lock_exclusive(right_pid, session);
                    self.locks.unlock_exclusive(child_pid, session);
                    self.locks.unlock_exclusive(cur, session);
                    cur = right_pid;
                    node = self.read_node(cur)?;
                    continue;
                }
            }
            self.locks.unlock_exclusive(cur, session);
            cur = child_pid;
            node = child;
        }
    }

    /// Splits the full root `pid`; returns (new root pid, sibling pid).
    fn split_root(
        &self,
        prime: &mut PrimeBlock,
        pid: PageId,
        node: &mut Node,
    ) -> Result<(PageId, PageId)> {
        node.is_root = false;
        let q = self.store.alloc()?;
        let (sep, right) = split_plain(node, self.k);
        self.write_node(q, &right)?;
        self.write_node(pid, node)?;

        let r = self.store.alloc()?;
        let mut root = Node::new_internal(node.level + 1);
        root.is_root = true;
        root.p0 = Some(pid);
        root.entries = vec![(sep, u64::from(q.to_raw()))];
        self.write_node(r, &root)?;
        prime.push_root(r);
        self.write_prime(prime)?;
        TreeCounters::bump(&self.counters.splits);
        TreeCounters::bump(&self.counters.root_splits);
        Ok((r, q))
    }

    /// Splits full child `child_pid` (at pointer index `ci` of `parent`);
    /// returns (separator, new right sibling pid).
    fn split_child(
        &self,
        parent_pid: PageId,
        parent: &mut Node,
        ci: usize,
        child_pid: PageId,
        child: &mut Node,
    ) -> Result<(Key, PageId)> {
        debug_assert_eq!(parent.pointer(ci), child_pid);
        let q = self.store.alloc()?;
        let (sep, right) = split_plain(child, self.k);
        parent.internal_insert_sep(sep, q);
        self.write_node(q, &right)?;
        self.write_node(child_pid, child)?;
        self.write_node(parent_pid, parent)?;
        TreeCounters::bump(&self.counters.splits);
        Ok((sep, q))
    }

    // ==================================================================
    // delete: exclusive crabbing with preemptive top-ups
    // ==================================================================

    pub fn delete(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        session.begin_op();
        let r = self.delete_inner(session, v);
        session.end_op();
        r
    }

    fn delete_inner(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        self.locks.lock_exclusive(self.prime_pid, session);
        let mut prime = self.read_prime()?;
        let mut cur = prime.root;
        self.locks.lock_exclusive(cur, session);
        let mut node = self.read_node(cur)?;

        // Lazy root collapse: a previous delete may have merged the root's
        // last two children, leaving an internal root with one pointer.
        while !node.is_leaf() && node.pairs() == 0 {
            let child = node.pointer(0);
            self.locks.lock_exclusive(child, session);
            let mut child_node = self.read_node(child)?;
            child_node.is_root = true;
            self.write_node(child, &child_node)?;
            prime.collapse_to(child, u32::from(child_node.level) + 1);
            self.write_prime(&prime)?;
            self.store.free(cur)?; // exclusive locks guarantee no readers
            self.locks.unlock_exclusive(cur, session);
            TreeCounters::bump(&self.counters.root_collapses);
            cur = child;
            node = child_node;
        }
        self.locks.unlock_exclusive(self.prime_pid, session);

        loop {
            if node.is_leaf() {
                let old = node.leaf_remove(v);
                if old.is_some() {
                    self.write_node(cur, &node)?;
                }
                self.locks.unlock_exclusive(cur, session);
                return Ok(old);
            }
            let ci = node.child_index(v);
            let child_pid = node.pointer(ci);
            self.locks.lock_exclusive(child_pid, session);
            let child = self.read_node(child_pid)?;
            let next_pid = if child.pairs() == self.min_pairs() {
                // Top up before descending so the child can afford to lose
                // a pair (or, if internal, a merge below it).
                self.top_up(session, cur, &mut node, ci, child_pid, child, v)?
            } else {
                child_pid
            };
            if next_pid != child_pid {
                // child was merged away; its lock was already released.
            }
            self.locks.unlock_exclusive(cur, session);
            cur = next_pid;
            node = self.read_node(cur)?;
        }
    }

    /// CLRS-style fix-up of a minimal child before descending into it.
    /// Returns the pid of the node now covering `v` (the child itself, or
    /// the merged survivor). Holds parent + child + one sibling — three
    /// simultaneous locks, like Sagiv's compression but on the hot path of
    /// every deletion that passes a minimal node.
    #[allow(clippy::too_many_arguments)]
    fn top_up(
        &self,
        session: &mut Session,
        parent_pid: PageId,
        parent: &mut Node,
        ci: usize,
        child_pid: PageId,
        mut child: Node,
        v: Key,
    ) -> Result<PageId> {
        // Try the left sibling first, then the right.
        if ci > 0 {
            let left_pid = parent.pointer(ci - 1);
            self.locks.lock_exclusive(left_pid, session);
            let mut left = self.read_node(left_pid)?;
            if left.pairs() > self.min_pairs() {
                rotate_right(parent, ci - 1, &mut left, &mut child);
                self.write_node(child_pid, &child)?;
                self.write_node(left_pid, &left)?;
                self.write_node(parent_pid, parent)?;
                self.locks.unlock_exclusive(left_pid, session);
                TreeCounters::bump(&self.counters.redistributes);
                return Ok(child_pid);
            }
            // Merge child into left (left is minimal too).
            merge_plain(parent, ci - 1, &mut left, &mut child);
            self.write_node(left_pid, &left)?;
            self.write_node(parent_pid, parent)?;
            self.locks.unlock_exclusive(child_pid, session);
            self.store.free(child_pid)?;
            TreeCounters::bump(&self.counters.merges);
            return Ok(left_pid); // caller descends into the survivor
        }
        let right_pid = parent.pointer(ci + 1);
        self.locks.lock_exclusive(right_pid, session);
        let mut right = self.read_node(right_pid)?;
        if right.pairs() > self.min_pairs() {
            rotate_left(parent, ci, &mut child, &mut right);
            self.write_node(child_pid, &child)?;
            self.write_node(right_pid, &right)?;
            self.write_node(parent_pid, parent)?;
            self.locks.unlock_exclusive(right_pid, session);
            TreeCounters::bump(&self.counters.redistributes);
            return Ok(child_pid);
        }
        merge_plain(parent, ci, &mut child, &mut right);
        self.write_node(child_pid, &child)?;
        self.write_node(parent_pid, parent)?;
        self.locks.unlock_exclusive(right_pid, session);
        self.store.free(right_pid)?;
        TreeCounters::bump(&self.counters.merges);
        let _ = v;
        Ok(child_pid)
    }
}

/// Splits a full plain B-tree node (no links/high values). Returns the
/// separator to insert into the parent and the new right node.
fn split_plain(node: &mut Node, k: usize) -> (Key, Node) {
    debug_assert_eq!(node.pairs(), 2 * k - 1);
    let mut right = Node {
        kind: node.kind,
        is_root: false,
        deleted: false,
        level: node.level,
        low: Bound::NegInf,
        high: Bound::PosInf,
        link: None,
        merge_target: None,
        p0: None,
        entries: Vec::new(),
    };
    match node.kind {
        NodeKind::Leaf => {
            // Left keeps k pairs; the separator is a *copy* of the left
            // maximum (data stays in the leaves).
            right.entries = node.entries.split_off(k);
            (node.entries.last().unwrap().0, right)
        }
        NodeKind::Internal => {
            // The median moves up.
            right.entries = node.entries.split_off(k);
            let (sep, sep_ptr) = node.entries.pop().unwrap();
            right.p0 = PageId::from_raw(sep_ptr as u32);
            (sep, right)
        }
    }
}

/// Moves one pair from `left` into `child` through the separator at
/// `parent.entries[si]` (a "rotate right").
fn rotate_right(parent: &mut Node, si: usize, left: &mut Node, child: &mut Node) {
    let sep = parent.entries[si].0;
    match child.kind {
        NodeKind::Leaf => {
            let moved = left.entries.pop().unwrap();
            child.entries.insert(0, moved);
            parent.entries[si].0 = left.entries.last().unwrap().0;
        }
        NodeKind::Internal => {
            let (lk, lp) = left.entries.pop().unwrap();
            let old_p0 = child.p0.expect("internal child without p0");
            child.entries.insert(0, (sep, u64::from(old_p0.to_raw())));
            child.p0 = PageId::from_raw(lp as u32);
            parent.entries[si].0 = lk;
        }
    }
}

/// Moves one pair from `right` into `child` through the separator at
/// `parent.entries[si]` (a "rotate left").
fn rotate_left(parent: &mut Node, si: usize, child: &mut Node, right: &mut Node) {
    let sep = parent.entries[si].0;
    match child.kind {
        NodeKind::Leaf => {
            let moved = right.entries.remove(0);
            child.entries.push(moved);
            parent.entries[si].0 = moved.0;
        }
        NodeKind::Internal => {
            let r_p0 = right.p0.expect("internal sibling without p0");
            child.entries.push((sep, u64::from(r_p0.to_raw())));
            let (rk, rp) = right.entries.remove(0);
            right.p0 = PageId::from_raw(rp as u32);
            parent.entries[si].0 = rk;
        }
    }
}

/// Merges `right` into `left` through the separator at `parent.entries[si]`
/// and removes that separator from the parent.
fn merge_plain(parent: &mut Node, si: usize, left: &mut Node, right: &mut Node) {
    let (sep, _) = parent.entries.remove(si);
    if left.kind == NodeKind::Internal {
        let r_p0 = right.p0.expect("internal sibling without p0");
        left.entries.push((sep, u64::from(r_p0.to_raw())));
    }
    left.entries.append(&mut right.entries);
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_pagestore::StoreConfig;

    fn tree(k: usize) -> Arc<TopDownTree> {
        TopDownTree::create(PageStore::new(StoreConfig::with_page_size(4096)), k).unwrap()
    }

    #[test]
    fn requires_k_at_least_two() {
        assert!(TopDownTree::create(PageStore::new(StoreConfig::default()), 1).is_err());
    }

    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        let t = tree(2);
        let mut s = t.session();
        let mut model = BTreeMap::new();
        let mut x: u64 = 7;
        for step in 0..6000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 300;
            match step % 5 {
                0..=2 => {
                    let got = t.insert(&mut s, key, step).unwrap();
                    let want = !model.contains_key(&key);
                    if want {
                        model.insert(key, step);
                    }
                    assert_eq!(got, want, "insert {key} at step {step}");
                }
                3 => {
                    assert_eq!(
                        t.delete(&mut s, key).unwrap(),
                        model.remove(&key),
                        "delete {key} at step {step}"
                    );
                }
                _ => {
                    assert_eq!(
                        t.search(&mut s, key).unwrap(),
                        model.get(&key).copied(),
                        "search {key} at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn deletions_shrink_the_tree() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..500u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        assert!(t.height().unwrap() > 2);
        for i in 0..500u64 {
            assert_eq!(t.delete(&mut s, i).unwrap(), Some(i));
        }
        // One more delete triggers the lazy root collapse chain.
        assert_eq!(t.delete(&mut s, 0).unwrap(), None);
        assert!(
            t.height().unwrap() <= 2,
            "top-down deletes must shrink the tree"
        );
        assert!(t.counters().snapshot().merges > 0);
    }

    #[test]
    fn readers_take_a_lock_per_level() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..500u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        let mut reader = t.session();
        reader.reset_stats();
        t.search(&mut reader, 250).unwrap();
        let st = reader.stats();
        let h = t.height().unwrap() as u64;
        assert_eq!(
            st.locks_acquired,
            h + 1,
            "a top-down reader locks the prime block plus one node per level"
        );
        // …whereas Sagiv readers lock nothing (contrast asserted in E1).
        assert!(st.max_simultaneous_locks >= 2);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let t = tree(3);
        let mut handles = vec![];
        for w in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut s = t.session();
                let base = w * 100_000;
                for i in 0..800u64 {
                    t.insert(&mut s, base + i, i).unwrap();
                }
                for i in (0..800u64).step_by(2) {
                    assert_eq!(t.delete(&mut s, base + i).unwrap(), Some(i));
                }
                for i in 0..800u64 {
                    let want = if i % 2 == 0 { None } else { Some(i) };
                    assert_eq!(t.search(&mut s, base + i).unwrap(), want);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

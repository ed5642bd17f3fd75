//! The Lehman–Yao Blink-tree — reference \[8\] of Sagiv's paper.
//!
//! Same node structure (high values + links), same lock type, same
//! lock-free readers. The difference is the insertion ascent: after
//! splitting a node, Lehman–Yao **keeps the child locked while acquiring
//! the parent's lock** (and couples locks when moving right at the parent
//! level), so that one updater can never overtake another on the way up.
//! An inserter therefore holds up to **three** locks simultaneously —
//! exactly the cost Sagiv's overtaking argument removes. Deletion is the
//! trivial leaf rewrite; nodes are never merged (the acknowledged weakness
//! §1 quotes: "space may be wasted and the height of the tree may be
//! bigger than necessary").
//!
//! Experiment E1 contrasts the per-process `max_simultaneous_locks` of this
//! tree (3) with Sagiv's (1); E3 contrasts the space behaviour.

use blink_pagestore::{LogicalClock, PageId, PageStore, Session, SessionRegistry, WriteIntent};
use sagiv_blink::key::Bound;
use sagiv_blink::node::{Next, Node};
use sagiv_blink::prime::PrimeBlock;
use sagiv_blink::{Key, Result, TreeCounters, TreeError};
use std::sync::Arc;

/// A concurrent Blink-tree following Lehman & Yao (1981).
#[derive(Debug)]
pub struct LehmanYaoTree {
    store: Arc<PageStore>,
    k: usize,
    prime_pid: PageId,
    registry: Arc<SessionRegistry>,
    counters: TreeCounters,
    wait_retries: u32,
}

impl LehmanYaoTree {
    /// Creates a fresh tree: prime block + one empty leaf root.
    pub fn create(store: Arc<PageStore>, k: usize) -> Result<Arc<LehmanYaoTree>> {
        if k == 0 {
            return Err(TreeError::Config("k must be at least 1"));
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
        Ok(Arc::new(LehmanYaoTree {
            store,
            k,
            prime_pid,
            registry,
            counters: TreeCounters::default(),
            wait_retries: 1000,
        }))
    }

    /// Opens a worker session.
    pub fn session(&self) -> Session {
        self.registry.open()
    }

    /// Minimum-fill parameter `k` (nodes hold up to `2k` pairs).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Structural event counters.
    pub fn counters(&self) -> &TreeCounters {
        &self.counters
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Current height.
    pub fn height(&self) -> Result<u32> {
        Ok(self.read_prime()?.height)
    }

    fn max_pairs(&self) -> usize {
        2 * self.k
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

    /// `movedown` (optionally stacking), lock-free. Lehman–Yao needs no
    /// restart machinery: without compression, data only ever moves right.
    fn movedown(
        &self,
        session: &mut Session,
        v: Key,
        stack: Option<&mut Vec<PageId>>,
    ) -> Result<PageId> {
        let prime = self.read_prime()?;
        let mut current = prime.root;
        let mut node = self.read_node(current)?;
        let mut stack_sink = stack;
        while !node.is_leaf() {
            match node.next(v) {
                Next::Link(l) => {
                    session.note_link_follow();
                    current = l;
                }
                Next::Child(c) => {
                    if let Some(s) = stack_sink.as_deref_mut() {
                        s.push(current);
                    }
                    current = c;
                }
                Next::Here => unreachable!(),
            }
            node = self.read_node(current)?;
        }
        Ok(current)
    }

    /// Lock-free `moveright` + lookup (identical to Sagiv's Fig. 4 — the
    /// search procedure is taken from \[8\] unchanged).
    pub fn search(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        session.begin_op();
        let r = (|| {
            let mut current = self.movedown(session, v, None)?;
            let mut node = self.read_node(current)?;
            loop {
                match node.next(v) {
                    Next::Here => return Ok(node.leaf_get(v)),
                    Next::Link(l) => {
                        session.note_link_follow();
                        current = l;
                        node = self.read_node(current)?;
                    }
                    Next::Child(_) => unreachable!(),
                }
            }
        })();
        session.end_op();
        r
    }

    /// Locked `moveright` with lock coupling: acquire the next node's lock
    /// *before* releasing the current one (this is what forbids overtaking
    /// in \[8\], at the price of holding two locks during the move).
    fn moveright_coupled(
        &self,
        session: &mut Session,
        mut current: PageId,
        v: Key,
    ) -> Result<(PageId, Node)> {
        let mut node = self.read_node(current)?;
        while Bound::Key(v) > node.high {
            let link = node.link.expect("finite high implies a link");
            session.note_link_follow();
            self.store.lock(link, session); // second lock held briefly
            self.store.unlock(current, session);
            current = link;
            node = self.read_node(current)?;
        }
        Ok((current, node))
    }

    /// Lehman–Yao insertion. Returns `true` if the key was new.
    pub fn insert(&self, session: &mut Session, v: Key, value: u64) -> Result<bool> {
        session.begin_op();
        let r = self.insert_inner(session, v, value);
        if r.is_err() {
            self.store.unlock_all(session);
        }
        session.end_op();
        r
    }

    fn insert_inner(&self, session: &mut Session, v: Key, value: u64) -> Result<bool> {
        let mut stack = Vec::new();
        let leaf = self.movedown(session, v, Some(&mut stack))?;

        // Lock the leaf, then moveright under lock coupling.
        self.store.lock(leaf, session);
        let (mut current, mut node) = self.moveright_coupled(session, leaf, v)?;

        let mut pair_key = v;
        let mut pair_val = value;
        let mut level: u8 = 0;
        loop {
            if level == 0 {
                if node.leaf_get(pair_key).is_some() {
                    self.store.unlock(current, session);
                    return Ok(false);
                }
                node.leaf_insert(pair_key, pair_val);
            } else {
                node.internal_insert_sep(
                    pair_key,
                    PageId::from_raw(pair_val as u32).expect("nil sibling pointer"),
                );
            }

            if node.pairs() <= self.max_pairs() {
                self.write_node(current, &node)?;
                self.store.unlock(current, session);
                return Ok(true);
            }

            if node.is_root {
                self.split_root(session, current, node)?;
                return Ok(true);
            }

            // Split; unlike Sagiv, keep the child locked while locking the
            // parent (no overtaking on the way up).
            let q = self.store.alloc()?;
            let right = node.split(q);
            self.write_node(q, &right)?;
            self.write_node(current, &node)?;
            TreeCounters::bump(&self.counters.splits);

            pair_key = node.high.expect_key("split separator");
            pair_val = u64::from(q.to_raw());
            level += 1;

            let parent_hint = match stack.pop() {
                Some(t) => t,
                None => self.leftmost_at_level(level)?,
            };
            self.store.lock(parent_hint, session); // child still locked: 2 locks
            let (parent, parent_node) = self.moveright_coupled(session, parent_hint, pair_key)?; // 3 during moves
            self.store.unlock(current, session); // release the child

            current = parent;
            node = parent_node;
        }
    }

    fn split_root(&self, session: &mut Session, pid: PageId, mut node: Node) -> Result<()> {
        node.is_root = false;
        let q = self.store.alloc()?;
        let right = node.split(q);
        self.write_node(q, &right)?;
        self.write_node(pid, &node)?;

        let r = self.store.alloc()?;
        let mut root = Node::new_internal(node.level + 1);
        root.is_root = true;
        root.high = Bound::PosInf;
        root.p0 = Some(pid);
        root.entries = vec![(
            node.high.expect_key("separator under new root"),
            u64::from(q.to_raw()),
        )];
        self.write_node(r, &root)?;

        let mut prime = self.read_prime()?;
        prime.push_root(r);
        let mut w = self
            .store
            .write_page(self.prime_pid, WriteIntent::Overwrite)?;
        prime.encode_into(w.bytes_mut());
        w.commit()?;
        self.store.unlock(pid, session);
        TreeCounters::bump(&self.counters.splits);
        TreeCounters::bump(&self.counters.root_splits);
        Ok(())
    }

    fn leftmost_at_level(&self, level: u8) -> Result<PageId> {
        for _ in 0..self.wait_retries {
            let prime = self.read_prime()?;
            if let Some(pid) = prime.leftmost_at(level) {
                return Ok(pid);
            }
            std::thread::yield_now();
        }
        Err(TreeError::TooManyRestarts {
            attempts: u64::from(self.wait_retries),
        })
    }

    /// \[8\]'s trivial deletion: locate, lock, rewrite the leaf. "No further
    /// action is taken even if the node becomes less than half full."
    pub fn delete(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        session.begin_op();
        let r = (|| {
            let leaf = self.movedown(session, v, None)?;
            self.store.lock(leaf, session);
            let (current, mut node) = self.moveright_coupled(session, leaf, v)?;
            let old = node.leaf_remove(v);
            if old.is_some() {
                self.write_node(current, &node)?;
            }
            self.store.unlock(current, session);
            Ok(old)
        })();
        if r.is_err() {
            self.store.unlock_all(session);
        }
        session.end_op();
        r
    }

    /// Leaf-chain census (for the space experiments): (leaf count, pair
    /// count, average fill vs 2k).
    pub fn leaf_stats(&self) -> Result<(usize, usize, f64)> {
        let prime = self.read_prime()?;
        let mut cur = prime.leftmost_at(0);
        let mut leaves = 0usize;
        let mut pairs = 0usize;
        while let Some(pid) = cur {
            let n = self.read_node(pid)?;
            leaves += 1;
            pairs += n.pairs();
            cur = n.link;
        }
        let fill = if leaves == 0 {
            0.0
        } else {
            pairs as f64 / (leaves as f64 * self.max_pairs() as f64)
        };
        Ok((leaves, pairs, fill))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_pagestore::StoreConfig;

    fn tree(k: usize) -> Arc<LehmanYaoTree> {
        LehmanYaoTree::create(PageStore::new(StoreConfig::with_page_size(4096)), k).unwrap()
    }

    #[test]
    fn insert_search_delete_roundtrip() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..500u64 {
            // gcd(7, 2048) = 1, so all 500 keys are distinct.
            assert!(t.insert(&mut s, i * 7 % 2048, i).unwrap());
        }
        for i in 0..500u64 {
            let k = i * 7 % 2048;
            assert!(t.search(&mut s, k).unwrap().is_some(), "key {k}");
        }
        assert!(t.height().unwrap() >= 3);
        assert!(t.delete(&mut s, 7).unwrap().is_some());
        assert_eq!(t.search(&mut s, 7).unwrap(), None);
        assert_eq!(t.delete(&mut s, 7).unwrap(), None);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let t = tree(2);
        let mut s = t.session();
        assert!(t.insert(&mut s, 5, 1).unwrap());
        assert!(!t.insert(&mut s, 5, 2).unwrap());
        assert_eq!(t.search(&mut s, 5).unwrap(), Some(1));
    }

    #[test]
    fn insert_holds_up_to_three_locks() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..2000u64 {
            t.insert(&mut s, i * 2654435761 % 65536, i).ok();
        }
        let st = s.stats();
        assert!(
            st.max_simultaneous_locks >= 2,
            "LY ascent must couple locks, saw max {}",
            st.max_simultaneous_locks
        );
        assert!(
            st.max_simultaneous_locks <= 3,
            "LY never holds more than 3, saw {}",
            st.max_simultaneous_locks
        );
    }

    #[test]
    fn deletions_never_shrink_the_tree() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..400u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        let (leaves_before, _, _) = t.leaf_stats().unwrap();
        let h = t.height().unwrap();
        for i in 0..400u64 {
            t.delete(&mut s, i).unwrap();
        }
        let (leaves_after, pairs, fill) = t.leaf_stats().unwrap();
        assert_eq!(leaves_before, leaves_after, "[8] never merges nodes");
        assert_eq!(pairs, 0);
        assert_eq!(fill, 0.0);
        assert_eq!(t.height().unwrap(), h, "[8] never shrinks the tree");
    }

    #[test]
    fn concurrent_inserts_are_consistent() {
        let t = tree(2);
        let mut handles = vec![];
        for w in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut s = t.session();
                for i in 0..1000u64 {
                    t.insert(&mut s, w * 10_000 + i, i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut s = t.session();
        for w in 0..4u64 {
            for i in 0..1000u64 {
                assert_eq!(t.search(&mut s, w * 10_000 + i).unwrap(), Some(i));
            }
        }
    }
}

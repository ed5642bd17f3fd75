//! The B\*-tree handle and low-level page plumbing.
//!
//! [`BLinkTree`] owns the page store, the prime block, the compression
//! queue, the deferred free list and the session registry. The actual
//! protocols live in sibling modules: traversal in [`crate::traverse`],
//! the logical operations in [`crate::ops`], compression in
//! [`crate::compress`].

use crate::compress::queue::CompressionQueue;
use crate::config::TreeConfig;
use crate::counters::TreeCounters;
use crate::error::{Result, TreeError};
use crate::key::Key;
use crate::node::{Node, Route};
use crate::prime::PrimeBlock;
use blink_pagestore::{
    DeferredFreeList, LogicalClock, PageId, PageProbe, PageStore, Session, SessionRegistry,
    StoreError, WriteIntent,
};
use std::sync::Arc;

/// Outcome of an insertion (§3.2: an insertion of an existing key reports
/// "v is already in the tree" and makes no changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The pair was added.
    Inserted,
    /// The key was already present; nothing changed.
    Duplicate,
}

/// Test-only hook fired inside a node read's probe closure, after the
/// decode and before the store validates the run (see
/// `BLinkTree::read_page`; prime-block reads do not fire it): lets a test
/// place a concurrent split deterministically inside the validation
/// window. Fires at most once per arming, then disarms itself. The
/// `AtomicBool` gate keeps the cost on the hot path to one relaxed load.
#[doc(hidden)]
#[derive(Default)]
pub struct OptimisticTestHook {
    armed: std::sync::atomic::AtomicBool,
    f: parking_lot::Mutex<Option<Box<dyn FnMut() + Send>>>,
}

impl OptimisticTestHook {
    /// Arms the hook with a closure to run inside the next validation
    /// window.
    pub fn arm(&self, f: Box<dyn FnMut() + Send>) {
        *self.f.lock() = Some(f);
        self.armed.store(true, std::sync::atomic::Ordering::Release);
    }

    pub(crate) fn fire(&self) {
        if self.armed.load(std::sync::atomic::Ordering::Relaxed)
            && self.armed.swap(false, std::sync::atomic::Ordering::AcqRel)
        {
            if let Some(mut f) = self.f.lock().take() {
                f();
            }
        }
    }
}

/// Teaches the pagestore's latch auditor (the `latch-audit` feature) to read
/// a tree node's level out of raw frame bytes, so the frame-latch level rule
/// (descend top-down; same level only left-to-right while overtaking) can be
/// checked against real page contents. Registered once per process; a no-op
/// when the feature is off.
fn register_audit_level_probe() {
    blink_pagestore::audit::register_level_probe(|b| {
        if b.len() >= 4 && u16::from_le_bytes([b[0], b[1]]) == crate::node::MAGIC {
            Some(b[3])
        } else {
            None
        }
    });
}

impl std::fmt::Debug for OptimisticTestHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimisticTestHook")
            .field(
                "armed",
                &self.armed.load(std::sync::atomic::Ordering::Relaxed),
            )
            .finish()
    }
}

/// A concurrent B\*-tree (Blink-tree) with overtaking insertions and
/// concurrent compression, per Sagiv (JCSS 1986).
///
/// All operations take a [`Session`] (the paper's *process*): obtain one per
/// worker thread with [`BLinkTree::session`]. The tree itself is `Sync`;
/// share it through an `Arc`.
#[derive(Debug)]
pub struct BLinkTree {
    pub(crate) store: Arc<PageStore>,
    pub(crate) cfg: TreeConfig,
    pub(crate) prime_pid: PageId,
    pub(crate) clock: Arc<LogicalClock>,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) freelist: DeferredFreeList,
    pub(crate) queue: CompressionQueue,
    pub(crate) counters: TreeCounters,
    /// See [`OptimisticTestHook`]; a no-op unless a test arms it.
    #[doc(hidden)]
    pub optimistic_hook: OptimisticTestHook,
}

impl BLinkTree {
    /// Creates a fresh tree in `store`: a prime block plus one empty leaf
    /// that is the initial root.
    pub fn create(store: Arc<PageStore>, cfg: TreeConfig) -> Result<Arc<BLinkTree>> {
        // Refuse a bad config before allocating anything.
        cfg.validate(store.page_size())?;
        let prime_pid = store.alloc()?;
        let root = store.alloc()?;
        let mut leaf = Node::new_leaf();
        leaf.is_root = true;
        store.put(root, &leaf.encode(store.page_size()))?;
        store.put(
            prime_pid,
            &PrimeBlock::initial(root).encode(store.page_size()),
        )?;
        BLinkTree::open_unchecked(store, cfg, prime_pid)
    }

    /// Re-opens a tree previously created in `store` (the prime block's
    /// address "must be known to the operating system", §3.3 — callers keep
    /// it; `create` always places it in the store's first page). Validates
    /// the prime block and the root before returning.
    pub fn open(
        store: Arc<PageStore>,
        cfg: TreeConfig,
        prime_pid: PageId,
    ) -> Result<Arc<BLinkTree>> {
        let tree = BLinkTree::open_unchecked(store, cfg, prime_pid)?;
        let prime = tree.read_prime()?;
        let root = tree.read_node(prime.root)?;
        if !root.is_root || root.deleted {
            return Err(TreeError::Corrupt("prime block points to a non-root node"));
        }
        if u32::from(root.level) + 1 != prime.height {
            return Err(TreeError::Corrupt("root level disagrees with prime height"));
        }
        Ok(tree)
    }

    /// Builds a handle without validating the prime block or root — the
    /// one constructor: `create` and `open` end here, and the
    /// crash-recovery path ([`BLinkTree::open_or_recover`]) repairs trees
    /// that `open` would rightly reject.
    pub(crate) fn open_unchecked(
        store: Arc<PageStore>,
        cfg: TreeConfig,
        prime_pid: PageId,
    ) -> Result<Arc<BLinkTree>> {
        cfg.validate(store.page_size())?;
        register_audit_level_probe();
        let clock = Arc::new(LogicalClock::new());
        Ok(Arc::new(BLinkTree {
            store,
            cfg,
            prime_pid,
            registry: SessionRegistry::new(Arc::clone(&clock)),
            clock,
            freelist: DeferredFreeList::new(),
            queue: CompressionQueue::new(),
            counters: TreeCounters::default(),
            optimistic_hook: OptimisticTestHook::default(),
        }))
    }

    /// The prime block's page id (pass to [`BLinkTree::open`] to re-attach).
    pub fn prime_page(&self) -> PageId {
        self.prime_pid
    }

    /// Opens a session (a worker identity). One per thread.
    pub fn session(&self) -> Session {
        self.registry.open()
    }

    /// Tree configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// The underlying store (for stats and experiments).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Structural event counters.
    pub fn counters(&self) -> &TreeCounters {
        &self.counters
    }

    /// Counts a link follow on both the session and the tree-wide counter.
    pub(crate) fn note_link(&self, session: &mut Session) {
        session.note_link_follow();
        TreeCounters::bump(&self.counters.link_follows);
    }

    /// The compression work outstanding: queued items plus items a worker
    /// has popped and not yet finished, so a quiesce loop that waits for 0
    /// cannot pass while a worker is mid-item. 0 when fully compressed or
    /// when the underflow policy is [`UnderflowPolicy::Ignore`].
    ///
    /// [`UnderflowPolicy::Ignore`]: crate::UnderflowPolicy::Ignore
    pub fn queue_len(&self) -> usize {
        self.queue.outstanding()
    }

    /// Pages awaiting deferred reclamation.
    pub fn pending_reclaim(&self) -> usize {
        self.freelist.pending_count()
    }

    /// Current height (number of levels).
    pub fn height(&self) -> Result<u32> {
        Ok(self.read_prime()?.height)
    }

    /// Releases deleted pages whose deletion time precedes every running
    /// process's start time *and* every queued compression stack's stamp —
    /// the §5.3/§5.4 rule. Safe to call from any thread at any time.
    pub fn reclaim(&self) -> Result<usize> {
        let horizon = self
            .registry
            .min_active_start()
            .min(self.queue.min_stamp().unwrap_or(u64::MAX));
        let n = self.freelist.reclaim(horizon, &self.store)?;
        TreeCounters::add(&self.counters.reclaimed, n as u64);
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Page-level plumbing.
    // ------------------------------------------------------------------

    /// The one page read of the tree: `decode` runs over `pid`'s bytes
    /// **in place**, in its frame, without a pin or a latch when the page
    /// is resident, else over a latched read ([`PageStore::read_probe`]).
    /// The store validates the run before it returns, so the result is a
    /// consistent image of the page: for a traversal, the §2.2 private
    /// snapshot it reasons over; for a writer's re-read under the paper
    /// lock, the node itself, which no other process writes meanwhile.
    fn read_page<T>(&self, pid: PageId, decode: impl Fn(&PageProbe<'_>) -> Result<T>) -> Result<T> {
        self.store.read_probe(pid, |p| {
            let decoded = decode(p);
            if pid != self.prime_pid {
                self.optimistic_hook.fire();
            }
            decoded
        })?
    }

    /// [`BLinkTree::read_page`] for the protocols: `Ok(None)` when the page
    /// was freed, reallocated to something undecodable, or is out of
    /// bounds — all of which traversals answer with a restart (§5.2).
    pub(crate) fn try_read<T>(
        &self,
        pid: PageId,
        decode: impl Fn(&PageProbe<'_>) -> Result<T>,
    ) -> Result<Option<T>> {
        match self.read_page(pid, decode) {
            Ok(v) => Ok(Some(v)),
            Err(TreeError::Corrupt(_))
            | Err(TreeError::Store(StoreError::PageFreed(_) | StoreError::OutOfBounds(_))) => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads and decodes a node; hard-fails on any problem. Inside the
    /// protocols this is used only when the page is guaranteed live (e.g. a
    /// child whose parent is locked); it is public for tools, figures and
    /// tests that inspect quiesced trees. The decoded [`Node`] is this
    /// process's §2.2 private snapshot.
    pub fn read_node(&self, pid: PageId) -> Result<Node> {
        self.read_page(pid, Node::decode_probe)
    }

    /// Routes `v` through the node at `pid` ([`Node::route`]) — what every
    /// descent level reads: the header and a binary search over the pairs,
    /// in place. `Ok(None)` asks for a restart.
    pub(crate) fn try_route(&self, pid: PageId, v: Key) -> Result<Option<Route>> {
        self.try_read(pid, |p| Node::route(p, v))
    }

    /// Encodes and writes a node (one indivisible, journaled `put`),
    /// serializing directly into the page's frame.
    pub(crate) fn write_node(&self, pid: PageId, node: &Node) -> Result<()> {
        let mut w = self.store.write_page(pid, WriteIntent::Overwrite)?;
        node.encode_into(w.bytes_mut());
        w.commit()?;
        Ok(())
    }

    /// Reads the prime block, like every traversal read (it starts every
    /// descent).
    pub(crate) fn read_prime(&self) -> Result<PrimeBlock> {
        self.read_page(self.prime_pid, PrimeBlock::decode_probe)
    }

    /// Rewrites the prime block. Callers must hold the lock on the current
    /// root (§3.3: "a process rewrites it only when it has a lock on the
    /// root"), which is what makes the lockless write race-free.
    pub(crate) fn write_prime(&self, prime: &PrimeBlock) -> Result<()> {
        let mut w = self
            .store
            .write_page(self.prime_pid, WriteIntent::Overwrite)?;
        prime.encode_into(w.bytes_mut());
        w.commit()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_pagestore::StoreConfig;

    fn tree(k: usize) -> Arc<BLinkTree> {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        BLinkTree::create(store, TreeConfig::with_k(k)).unwrap()
    }

    #[test]
    fn create_initializes_single_leaf_root() {
        let t = tree(4);
        assert_eq!(t.height().unwrap(), 1);
        let prime = t.read_prime().unwrap();
        let root = t.read_node(prime.root).unwrap();
        assert!(root.is_leaf());
        assert!(root.is_root);
        assert_eq!(root.pairs(), 0);
        assert_eq!(root.low, crate::key::Bound::NegInf);
        assert_eq!(root.high, crate::key::Bound::PosInf);
        assert_eq!(root.link, None);
        assert_eq!(prime.leftmost_at(0), Some(prime.root));
    }

    #[test]
    fn create_rejects_bad_config() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        assert!(BLinkTree::create(store, TreeConfig::with_k(0)).is_err());
    }

    #[test]
    fn queue_len_counts_an_item_until_its_worker_finishes() {
        let t = tree(4);
        t.queue
            .enqueue_if_absent(crate::compress::queue::QueueItem {
                pid: t.prime_page(),
                level: 0,
                high: crate::key::Bound::PosInf,
                stack: Vec::new(),
                stamp: 0,
                attempts: 0,
            });
        assert_eq!(t.queue_len(), 1);
        let (token, _item) = t.queue.pop().unwrap();
        assert_eq!(t.queue_len(), 1, "a popped item is still outstanding");
        t.queue.finish(token);
        assert_eq!(t.queue_len(), 0);
    }

    #[test]
    fn reclaim_on_fresh_tree_is_noop() {
        let t = tree(4);
        assert_eq!(t.reclaim().unwrap(), 0);
        assert_eq!(t.pending_reclaim(), 0);
        assert_eq!(t.queue_len(), 0);
    }
}

#[cfg(test)]
mod open_tests {
    use super::*;
    use crate::config::TreeConfig;
    use blink_pagestore::StoreConfig;

    #[test]
    fn open_reattaches_to_existing_tree() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let prime_pid;
        {
            let t = BLinkTree::create(Arc::clone(&store), TreeConfig::with_k(2)).unwrap();
            prime_pid = t.prime_page();
            let mut s = t.session();
            for i in 0..300u64 {
                t.insert(&mut s, i, i * 2).unwrap();
            }
        } // handle dropped; pages persist in the store
        let t2 = BLinkTree::open(Arc::clone(&store), TreeConfig::with_k(2), prime_pid).unwrap();
        let mut s = t2.session();
        for i in 0..300u64 {
            assert_eq!(t2.search(&mut s, i).unwrap(), Some(i * 2));
        }
        t2.insert(&mut s, 1000, 1).unwrap();
        assert_eq!(t2.search(&mut s, 1000).unwrap(), Some(1));
        t2.verify(false).unwrap().assert_ok();
    }

    #[test]
    fn open_rejects_garbage_prime() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let junk = store.alloc().unwrap();
        assert!(BLinkTree::open(store, TreeConfig::with_k(2), junk).is_err());
    }

    #[test]
    fn open_rejects_stale_root_pointer() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let t = BLinkTree::create(Arc::clone(&store), TreeConfig::with_k(2)).unwrap();
        let prime_pid = t.prime_page();
        // Corrupt: clear the root bit behind the tree's back.
        let prime = t.read_prime().unwrap();
        let mut root = t.read_node(prime.root).unwrap();
        root.is_root = false;
        t.write_node(prime.root, &root).unwrap();
        assert!(BLinkTree::open(store, TreeConfig::with_k(2), prime_pid).is_err());
    }
}

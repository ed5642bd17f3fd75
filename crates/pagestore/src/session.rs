//! Sessions: the paper's *processes*.
//!
//! Every logical operation (search, insert, delete, compression step) is
//! carried out by a process. A [`Session`] represents one worker thread's
//! identity across many logical operations. It provides:
//!
//! * the **starting time** of the operation currently in flight, which §5.3
//!   uses to decide when a deleted node may be released ("a deleted node can
//!   be released when all the currently running processes have started after
//!   its deletion time");
//! * a record of the **locks currently held**, which lets tests assert the
//!   paper's protocol bounds (an insertion process never holds more than one
//!   lock, a compression process never more than three) and lets experiment
//!   E1 measure them;
//! * counters for **restarts** and **link follows**, the two overheads the
//!   paper argues are small (§1, §5.2).

use crate::clock::{LogicalClock, Timestamp, IDLE};
use crate::page::PageId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-session instrumentation. Plain fields: a session is single-threaded.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Logical operations started.
    pub ops: u64,
    /// Paper-lock acquisitions.
    pub locks_acquired: u64,
    /// Maximum number of locks held simultaneously at any point.
    pub max_simultaneous_locks: usize,
    /// Sum over acquisitions of the number of locks held *after* acquiring;
    /// `lock_held_sum / locks_acquired` is the mean simultaneity.
    pub lock_held_sum: u64,
    /// Traversal restarts (wrong node reached; §5.2).
    pub restarts: u64,
    /// Link (right-neighbor) pointers followed during traversals.
    pub link_follows: u64,
    /// Times this session followed a deleted node's merge pointer.
    pub merge_pointer_follows: u64,
}

impl SessionStats {
    /// Mean number of locks held simultaneously, taken over acquisitions.
    pub fn mean_simultaneous_locks(&self) -> f64 {
        if self.locks_acquired == 0 {
            0.0
        } else {
            self.lock_held_sum as f64 / self.locks_acquired as f64
        }
    }

    /// Element-wise sum, for aggregating across sessions.
    pub fn merge(&mut self, other: &SessionStats) {
        self.ops += other.ops;
        self.locks_acquired += other.locks_acquired;
        self.max_simultaneous_locks = self
            .max_simultaneous_locks
            .max(other.max_simultaneous_locks);
        self.lock_held_sum += other.lock_held_sum;
        self.restarts += other.restarts;
        self.link_follows += other.link_follows;
        self.merge_pointer_follows += other.merge_pointer_follows;
    }
}

/// One session's published operation start time, alone on its cache line:
/// the session stores it twice per operation, and only
/// [`SessionRegistry::min_active_start`] reads it from other threads.
#[derive(Debug)]
#[repr(align(64))]
struct StartStamp(AtomicU64);

/// Tracks every live session's current operation start time.
///
/// `min_active_start()` is the reclamation horizon of §5.3 (combined by the
/// tree with the minimum timestamp of queued compression stacks, §5.4).
/// Each session publishes its start in its own padded stamp; the registry
/// mutex is taken only to open or close a session and to compute the
/// horizon, never by an operation's `begin_op`/`end_op`.
#[derive(Debug)]
pub struct SessionRegistry {
    clock: Arc<LogicalClock>,
    active: Mutex<HashMap<u64, Arc<StartStamp>>>,
    next_id: AtomicU64,
}

impl SessionRegistry {
    pub fn new(clock: Arc<LogicalClock>) -> Arc<SessionRegistry> {
        Arc::new(SessionRegistry {
            clock,
            active: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        })
    }

    /// Opens a new session (a worker's identity). The session starts idle.
    pub fn open(self: &Arc<SessionRegistry>) -> Session {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let published = Arc::new(StartStamp(AtomicU64::new(IDLE)));
        self.active.lock().insert(id, Arc::clone(&published));
        Session {
            id,
            registry: Arc::clone(self),
            start: IDLE,
            published,
            held: Vec::with_capacity(4),
            stats: SessionStats::default(),
        }
    }

    /// The clock all sessions stamp against.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    /// Earliest start time among operations currently in flight ([`IDLE`] if
    /// every session is between operations). Deleted nodes stamped strictly
    /// before this may be reclaimed, as far as reader visibility goes.
    pub fn min_active_start(&self) -> Timestamp {
        self.active
            .lock()
            .values()
            .map(|s| s.0.load(Ordering::SeqCst))
            .min()
            .unwrap_or(IDLE)
    }

    fn close(&self, id: u64) {
        self.active.lock().remove(&id);
    }
}

/// One worker's identity: operation timestamps, held locks, instrumentation.
#[derive(Debug)]
pub struct Session {
    id: u64,
    registry: Arc<SessionRegistry>,
    start: Timestamp,
    /// Where `start` is published for the §5.3 horizon.
    published: Arc<StartStamp>,
    held: Vec<PageId>,
    stats: SessionStats,
}

impl Session {
    /// Unique id (used as lock owner tag).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Marks the start of a logical operation; returns its start timestamp.
    ///
    /// The stamp is [`LogicalClock::now`], a load: starting an operation
    /// writes no line another session writes, and two operations may share
    /// a stamp. §5.3 needs only that the stamp is no later than any
    /// deletion the operation could still see, and the clock's module docs
    /// show both cases — a load before a deletion's tick yields a stamp at
    /// most the deletion's, so the horizon holds the page; a load that
    /// sees the tick also sees the unlink. A compression stack queued by a
    /// deletion (§5.4) carries its operation's start stamp
    /// ([`Session::start_stamp`]) as `QueueItem.stamp`; the stack's
    /// pointers were read during that operation, so the same argument
    /// covers them for as long as the queue pins the stamp.
    pub fn begin_op(&mut self) -> Timestamp {
        let t = self.registry.clock.now();
        self.publish_start(t);
        self.stats.ops += 1;
        t
    }

    /// Marks the end of the current logical operation. The process must have
    /// released every lock (all paper protocols do).
    pub fn end_op(&mut self) {
        debug_assert!(
            self.held.is_empty(),
            "logical operation ended while holding locks: {:?}",
            self.held
        );
        self.publish_start(IDLE);
    }

    /// Sets the running operation's start stamp and publishes it. `SeqCst`
    /// pairs with the horizon's `SeqCst` loads, so every stamp sits in one
    /// total order with them, as it did under the registry mutex.
    fn publish_start(&mut self, t: Timestamp) {
        self.start = t;
        self.published.0.store(t, Ordering::SeqCst);
    }

    /// Start timestamp of the operation in flight ([`IDLE`] when idle).
    pub fn start_stamp(&self) -> Timestamp {
        self.start
    }

    /// The pages this session currently holds paper locks on, in acquisition
    /// order.
    pub fn held_locks(&self) -> &[PageId] {
        &self.held
    }

    /// Instrumentation so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Resets instrumentation (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Records a traversal restart (§5.2).
    pub fn note_restart(&mut self) {
        self.stats.restarts += 1;
    }

    /// Records following a link (right-neighbor) pointer.
    pub fn note_link_follow(&mut self) {
        self.stats.link_follows += 1;
    }

    /// Records following a deleted node's merge pointer.
    pub fn note_merge_pointer(&mut self) {
        self.stats.merge_pointer_follows += 1;
    }

    /// Records that this session took a lock on `pid`: the store's paper
    /// locks call it, and so may a lock table outside the store (the
    /// top-down baseline's shared/exclusive page locks).
    pub fn note_lock(&mut self, pid: PageId) {
        debug_assert!(
            !self.held.contains(&pid),
            "session {} locked {} twice",
            self.id,
            pid
        );
        self.held.push(pid);
        self.stats.locks_acquired += 1;
        self.stats.lock_held_sum += self.held.len() as u64;
        self.stats.max_simultaneous_locks = self.stats.max_simultaneous_locks.max(self.held.len());
    }

    /// Records that this session released its lock on `pid`; the pair of
    /// [`Session::note_lock`], for the same callers.
    pub fn note_unlock(&mut self, pid: PageId) {
        match self.held.iter().rposition(|&p| p == pid) {
            Some(i) => {
                self.held.remove(i);
            }
            None => panic!(
                "session {} unlocked {} which it does not hold",
                self.id, pid
            ),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            debug_assert!(self.held.is_empty(), "session dropped while holding locks");
        }
        self.registry.close(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<SessionRegistry> {
        SessionRegistry::new(Arc::new(LogicalClock::new()))
    }

    #[test]
    fn begin_end_op_updates_horizon() {
        let reg = registry();
        let mut s1 = reg.open();
        let mut s2 = reg.open();
        assert_eq!(reg.min_active_start(), IDLE);

        let t1 = s1.begin_op();
        assert_eq!(reg.min_active_start(), t1);
        let t2 = s2.begin_op();
        assert!(t2 >= t1);
        assert_eq!(reg.min_active_start(), t1);

        s1.end_op();
        assert_eq!(reg.min_active_start(), t2);
        s2.end_op();
        assert_eq!(reg.min_active_start(), IDLE);
    }

    #[test]
    fn begin_op_only_reads_the_clock() {
        let reg = registry();
        let mut a = reg.open();
        let mut b = reg.open();
        let before = reg.clock().now();
        let (ta, tb) = (a.begin_op(), b.begin_op());
        a.end_op();
        b.end_op();
        assert_eq!(
            (ta, tb),
            (before, before),
            "concurrent starts share a stamp"
        );
        assert_eq!(reg.clock().now(), before, "starting an op moved the clock");
    }

    #[test]
    fn closing_sessions_removes_them() {
        let reg = registry();
        let mut s = reg.open();
        let t = s.begin_op();
        assert_eq!(reg.min_active_start(), t);
        // Dropped mid-operation: the session no longer holds the horizon.
        drop(s);
        assert_eq!(reg.min_active_start(), IDLE);
    }

    #[test]
    fn lock_bookkeeping_tracks_max_and_mean() {
        let reg = registry();
        let mut s = reg.open();
        let a = PageId::from_raw(1).unwrap();
        let b = PageId::from_raw(2).unwrap();
        let c = PageId::from_raw(3).unwrap();
        s.note_lock(a); // held 1
        s.note_lock(b); // held 2
        s.note_lock(c); // held 3
        s.note_unlock(b);
        s.note_unlock(a);
        s.note_unlock(c);
        let st = s.stats();
        assert_eq!(st.locks_acquired, 3);
        assert_eq!(st.max_simultaneous_locks, 3);
        assert!((st.mean_simultaneous_locks() - 2.0).abs() < 1e-9);
        assert!(s.held_locks().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlock_without_lock_panics() {
        let reg = registry();
        let mut s = reg.open();
        s.note_unlock(PageId::from_raw(5).unwrap());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SessionStats {
            ops: 1,
            locks_acquired: 2,
            max_simultaneous_locks: 1,
            lock_held_sum: 2,
            restarts: 0,
            link_follows: 3,
            merge_pointer_follows: 0,
        };
        let b = SessionStats {
            ops: 2,
            locks_acquired: 4,
            max_simultaneous_locks: 3,
            lock_held_sum: 8,
            restarts: 1,
            link_follows: 0,
            merge_pointer_follows: 2,
        };
        a.merge(&b);
        assert_eq!(a.ops, 3);
        assert_eq!(a.locks_acquired, 6);
        assert_eq!(a.max_simultaneous_locks, 3);
        assert_eq!(a.lock_held_sum, 10);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.link_follows, 3);
        assert_eq!(a.merge_pointer_follows, 2);
    }
}

//! Logical clock used for §5.3's deferred reclamation.
//!
//! The paper records "the time of [a node's] deletion" and "for each running
//! process its starting time". We use a global monotonically increasing
//! logical counter instead of wall-clock time: it is cheap, totally ordered,
//! and makes the reclamation rule deterministic in tests.
//!
//! Only deletions write the clock. §5.3 frees a node once every running
//! process "started after its deletion time", so a process needs a start
//! stamp no later than any deletion it could still see — not a unique one.
//! A deleter takes its stamp with [`LogicalClock::tick`] after unlinking the
//! node; a process starting an operation only reads [`LogicalClock::now`]
//! ([`crate::Session::begin_op`]), so a read-only workload writes nothing
//! here. The reclamation rule keeps a page stamped `d` while some running
//! process's start `s` has `s <= d`, and both cases of a reader that starts
//! while a deletion runs are covered:
//!
//! * the reader's load precedes the deletion's tick in the clock's
//!   modification order: it read a value no greater than the one the tick
//!   returns, so `s <= d` and the horizon holds the page;
//! * the reader's load reads the tick's value or a later one: the tick is a
//!   release (`AcqRel`) and every later tick continues its release
//!   sequence, so the reader's `Acquire` load synchronizes with it and the
//!   unlink, written before the tick, happens before the reader's
//!   operation. The reader cannot reach the node by the links it removed,
//!   only by a pointer it read before — and it read none, having not yet
//!   started.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing logical timestamp source, alone on its cache
/// line: deleters write it and every operation's start reads it, so
/// nothing else may share the line they bounce.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct LogicalClock {
    next: AtomicU64,
}

/// A logical timestamp. Larger means later.
pub type Timestamp = u64;

/// Timestamp used for "not currently running an operation": it never blocks
/// reclamation because every real stamp is smaller.
pub const IDLE: Timestamp = u64::MAX;

impl LogicalClock {
    /// A clock starting at time `1` (0 is reserved as "never").
    pub fn new() -> LogicalClock {
        LogicalClock {
            next: AtomicU64::new(1),
        }
    }

    /// Returns a fresh timestamp strictly greater than all previously
    /// issued: a deletion's stamp, taken after the node is unlinked. The
    /// release half publishes the unlink to every [`LogicalClock::now`]
    /// that reads this tick or a later one (see the module docs).
    pub fn tick(&self) -> Timestamp {
        self.next.fetch_add(1, Ordering::AcqRel)
    }

    /// The stamp the next [`LogicalClock::tick`] will issue: greater than
    /// every tick already issued, and no greater than any tick still to
    /// come. An operation's start stamp; reading it writes nothing.
    pub fn now(&self) -> Timestamp {
        self.next.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ticks_are_strictly_increasing() {
        let c = LogicalClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert_eq!(c.now(), b + 1);
    }

    #[test]
    fn now_brackets_the_ticks() {
        // A start read before a tick is no later than it; one read after is
        // later, and reading never moves the clock.
        let c = LogicalClock::new();
        let before = c.now();
        assert_eq!(c.now(), before);
        let d = c.tick();
        assert!(before <= d);
        assert!(c.now() > d);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let c = Arc::new(LogicalClock::new());
        let mut handles = vec![];
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate timestamps issued");
    }
}

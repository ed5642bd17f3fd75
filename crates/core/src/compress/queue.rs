//! The compression queue (§5.4).
//!
//! A deletion that leaves a node under-full records, *while still holding
//! the node's lock*, the four pieces of information §5.4 lists: a pointer to
//! the node, its level, its high value, and its stack (the root-to-node
//! pointer path from `movedown-and-stack`), stamped with the starting time
//! of the deleting process.
//!
//! Queue discipline, also per §5.4:
//! * a record "is uniquely identified by the pointer to that node" — at most
//!   one entry per page, with update-in-place when re-enqueued under lock
//!   (the held lock guarantees the new high value is at least as recent);
//! * re-enqueues *without* the node lock (case 2 fallback) must **not**
//!   overwrite existing info ("the information on the queue must have been
//!   put there after the process removed A and, hence, is more recent");
//! * higher levels pop first (footnote 17: "it is a good idea to give
//!   priority to nodes having a higher level and remove them first");
//! * timestamps of both queued items and items currently being compressed
//!   bound the reclamation horizon (§5.4's release rule), hence the
//!   pop-token/in-flight mechanism.

use crate::key::Bound;
use blink_pagestore::PageId;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Logical timestamp (re-exported type from the substrate clock).
pub type Timestamp = u64;

/// Everything §5.4 stores per queued node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueItem {
    /// (1) A pointer to the node.
    pub pid: PageId,
    /// (2) The level of the node (never changes).
    pub level: u8,
    /// (3) The high value of the node as of enqueue time.
    pub high: Bound,
    /// (4) The stack of pointers from the root to the node's parent level,
    /// bottom of the path last (so `last()` is the parent-level hint).
    pub stack: Vec<PageId>,
    /// Starting time of the deletion process that created the stack.
    pub stamp: Timestamp,
    /// How many times this item has been requeued (implementation detail
    /// used by drains to detect lack of progress; not in the paper).
    pub attempts: u32,
}

#[derive(Debug, PartialEq, Eq)]
struct HeapKey {
    level: u8,
    seq: Reverse<u64>,
    pid: PageId,
}

impl Ord for HeapKey {
    fn cmp(&self, other: &HeapKey) -> std::cmp::Ordering {
        // Max-heap: highest level first, then FIFO.
        (self.level, &self.seq).cmp(&(other.level, &other.seq))
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &HeapKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct Inner {
    items: HashMap<PageId, QueueItem>,
    heap: BinaryHeap<HeapKey>,
    in_flight: HashMap<u64, Timestamp>,
    next_token: u64,
    seq: u64,
}

/// Handle returned by [`CompressionQueue::pop`]; keeps the popped item's
/// timestamp pinned for reclamation until [`CompressionQueue::finish`].
#[derive(Debug)]
#[must_use = "finish() must be called to unpin the item's timestamp"]
pub struct PopToken(u64);

/// A shared compression queue (§5.4 option 2; per-process queues are just
/// separate instances, option 3).
#[derive(Debug, Default)]
pub struct CompressionQueue {
    inner: Mutex<Inner>,
}

impl CompressionQueue {
    pub fn new() -> CompressionQueue {
        CompressionQueue::default()
    }

    fn push_heap(inner: &mut Inner, pid: PageId, level: u8) {
        inner.seq += 1;
        inner.heap.push(HeapKey {
            level,
            seq: Reverse(inner.seq),
            pid,
        });
    }

    /// Enqueues `item`, or updates the existing entry for the same page
    /// (caller holds the node's lock, so `item.high` is current). The stamp
    /// kept is the older of the two — timestamps only guard reclamation, so
    /// conservative is safe.
    pub fn enqueue_update(&self, mut item: QueueItem) {
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.items.get(&item.pid) {
            item.stamp = item.stamp.min(existing.stamp);
            item.attempts = item.attempts.max(existing.attempts);
            inner.items.insert(item.pid, item);
            // Heap already has (possibly stale) entries for this pid; the
            // authoritative map makes extra heap keys harmless.
        } else {
            let (pid, level) = (item.pid, item.level);
            inner.items.insert(pid, item);
            Self::push_heap(&mut inner, pid, level);
        }
    }

    /// Enqueues only if no entry for the page exists (§5.4 case 2: the
    /// caller does not hold the node's lock, so existing info is fresher).
    pub fn enqueue_if_absent(&self, item: QueueItem) {
        let mut inner = self.inner.lock();
        if !inner.items.contains_key(&item.pid) {
            let (pid, level) = (item.pid, item.level);
            inner.items.insert(pid, item);
            Self::push_heap(&mut inner, pid, level);
        }
    }

    /// Pops the highest-level item. Its timestamp stays pinned (visible to
    /// [`CompressionQueue::min_stamp`]) until the token is finished.
    pub fn pop(&self) -> Option<(PopToken, QueueItem)> {
        let mut inner = self.inner.lock();
        while let Some(key) = inner.heap.pop() {
            if let Some(item) = inner.items.remove(&key.pid) {
                inner.next_token += 1;
                let token = inner.next_token;
                inner.in_flight.insert(token, item.stamp);
                return Some((PopToken(token), item));
            }
            // Stale heap key (item was updated or removed); skip.
        }
        None
    }

    /// Unpins a popped item's timestamp.
    pub fn finish(&self, token: PopToken) {
        self.inner.lock().in_flight.remove(&token.0);
    }

    /// Drops any queued entry for `pid` (used when a node is deleted:
    /// "the compression process should remove it from the queue").
    pub fn remove(&self, pid: PageId) {
        self.inner.lock().items.remove(&pid);
    }

    /// Whether the page is currently queued.
    pub fn contains(&self, pid: PageId) -> bool {
        self.inner.lock().items.contains_key(&pid)
    }

    /// Queued item count (not counting in-flight).
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Queued items plus popped items not yet finished: the work still
    /// outstanding.
    pub fn outstanding(&self) -> usize {
        let inner = self.inner.lock();
        inner.items.len() + inner.in_flight.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Oldest timestamp among queued and in-flight items — the queue's
    /// contribution to the §5.4 reclamation horizon.
    pub fn min_stamp(&self) -> Option<Timestamp> {
        let inner = self.inner.lock();
        inner
            .items
            .values()
            .map(|i| i.stamp)
            .chain(inner.in_flight.values().copied())
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId::from_raw(n).unwrap()
    }

    fn item(p: u32, level: u8, stamp: u64) -> QueueItem {
        QueueItem {
            pid: pid(p),
            level,
            high: Bound::Key(u64::from(p) * 10),
            stack: vec![],
            stamp,
            attempts: 0,
        }
    }

    #[test]
    fn pops_higher_levels_first_then_fifo() {
        let q = CompressionQueue::new();
        q.enqueue_update(item(1, 0, 10));
        q.enqueue_update(item(2, 2, 11));
        q.enqueue_update(item(3, 0, 12));
        q.enqueue_update(item(4, 1, 13));
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(t, i)| {
                q.finish(t);
                i.pid.to_raw()
            })
        })
        .collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn update_replaces_and_keeps_oldest_stamp() {
        let q = CompressionQueue::new();
        q.enqueue_update(item(1, 0, 10));
        let mut newer = item(1, 0, 50);
        newer.high = Bound::Key(777);
        q.enqueue_update(newer);
        assert_eq!(q.len(), 1);
        let (t, got) = q.pop().unwrap();
        assert_eq!(
            got.high,
            Bound::Key(777),
            "high value must be the fresher one"
        );
        assert_eq!(got.stamp, 10, "stamp must stay conservative");
        q.finish(t);
    }

    #[test]
    fn enqueue_if_absent_does_not_overwrite() {
        let q = CompressionQueue::new();
        q.enqueue_update(item(1, 0, 10));
        let mut other = item(1, 0, 99);
        other.high = Bound::Key(123);
        q.enqueue_if_absent(other);
        let (t, got) = q.pop().unwrap();
        assert_eq!(
            got.high,
            Bound::Key(10),
            "absent-mode enqueue must not clobber"
        );
        q.finish(t);
        // Now absent: it inserts.
        q.enqueue_if_absent(item(2, 0, 5));
        assert!(q.contains(pid(2)));
    }

    #[test]
    fn in_flight_pins_min_stamp() {
        let q = CompressionQueue::new();
        q.enqueue_update(item(1, 0, 10));
        q.enqueue_update(item(2, 0, 20));
        assert_eq!(q.min_stamp(), Some(10));
        let (t, i) = q.pop().unwrap();
        assert_eq!(i.stamp, 10);
        assert_eq!(
            q.min_stamp(),
            Some(10),
            "popped item still pins the horizon"
        );
        q.finish(t);
        assert_eq!(q.min_stamp(), Some(20));
    }

    #[test]
    fn remove_and_stale_heap_keys() {
        let q = CompressionQueue::new();
        q.enqueue_update(item(1, 0, 10));
        q.enqueue_update(item(2, 0, 20));
        q.remove(pid(1));
        assert!(!q.contains(pid(1)));
        let (t, got) = q.pop().unwrap();
        assert_eq!(
            got.pid,
            pid(2),
            "stale heap key for removed item is skipped"
        );
        q.finish(t);
        assert!(q.pop().is_none());
    }

    #[test]
    fn empty_queue_behaviour() {
        let q = CompressionQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.min_stamp(), None);
        assert!(q.pop().is_none());
    }
}

//! Queue-driven compression workers (§5.4).
//!
//! §5.4: "The advantage of this approach is the ability to dynamically
//! change the number of compression processes according to the load on the
//! system. A compression process can be stopped as soon as it finishes
//! compressing a node." A background worker is a step of an
//! [`Upkeep`] loop over [`BLinkTree::compress_upkeep`]: a `Db` adds one to
//! its store's loop, and a [`CompressorPool`] runs N loops of its own.

use crate::counters::TreeCounters;
use crate::error::Result;
use crate::node::Node;
use crate::tree::BLinkTree;
use blink_pagestore::{PageId, Session, Upkeep};
use std::sync::Arc;
use std::time::Duration;

use super::queue::QueueItem;
use super::RearrangeOutcome;

/// Outcome of one worker step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressStep {
    /// The queue was empty.
    Idle,
    /// A rearrangement (or a verified no-op) completed for the item.
    Done,
    /// The item was put back to be considered again later.
    Requeued,
    /// The item was dropped: another process is (or will be) responsible
    /// for the node, or the node's level became the root (Theorem 2's
    /// discard argument).
    Discarded,
}

/// Counters from a [`BLinkTree::compress_drain`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    pub done: u64,
    pub requeued: u64,
    pub discarded: u64,
}

/// How long an idle compression worker waits before it looks again.
const WORKER_TICK: Duration = Duration::from_millis(1);

/// A pool of §5.4 queue-compression workers: N loops, each a
/// [`BLinkTree::compress_upkeep`] step of one item.
#[derive(Debug)]
pub struct CompressorPool {
    workers: Vec<Upkeep>,
}

impl CompressorPool {
    /// Spawns `n` workers (threads `blink-compress-<i>`) over the tree's
    /// shared queue.
    pub fn spawn(tree: &Arc<BLinkTree>, n: usize) -> CompressorPool {
        let workers = (0..n)
            .map(|w| {
                let upkeep = Upkeep::spawn(&format!("blink-compress-{w}"), WORKER_TICK);
                let (tree, mut session) = (Arc::clone(tree), tree.session());
                upkeep.add_step(move || tree.compress_upkeep(&mut session, 1));
                upkeep
            })
            .collect();
        CompressorPool { workers }
    }

    /// Stops the workers and waits for them to exit; a worker's panic
    /// resumes here.
    pub fn stop(self) {
        self.workers.into_iter().for_each(Upkeep::stop);
    }
}

impl BLinkTree {
    /// Pops one node from the compression queue and compresses it (§5.4).
    /// Safe to run from any number of threads concurrently with all other
    /// operations (Theorem 2).
    pub fn compress_step(&self, session: &mut Session) -> Result<CompressStep> {
        let Some((token, item)) = self.queue.pop() else {
            return Ok(CompressStep::Idle);
        };
        session.begin_op();
        let r = self.process_item(session, &item);
        if r.is_err() {
            self.store.unlock_all(session);
        }
        session.end_op();
        // The pop token pins the item's timestamp (and so its stack's
        // deleted nodes) until processing finishes.
        self.queue.finish(token);
        r
    }

    /// One background §5.4 step: up to `max_items` (at least 1) worker
    /// steps, ending early at an empty queue or a requeued item (it waits
    /// on work in flight), then §5.3 reclamation. A background step has no
    /// caller to fail: an error is counted in `compress_errors` and ends
    /// the step. Returns whether all `max_items` were finished, so more
    /// may be queued.
    pub fn compress_upkeep(&self, session: &mut Session, max_items: usize) -> bool {
        let more = (0..max_items).all(|_| {
            let step = self.counted(self.compress_step(session));
            matches!(step, Some(CompressStep::Done | CompressStep::Discarded))
        });
        self.counted(self.reclaim());
        more
    }

    /// Runs worker steps until the queue is empty, progress stalls, or
    /// `max_steps` is reached. Intended for tests and single-threaded
    /// drains; background workers are [`BLinkTree::compress_upkeep`]
    /// steps.
    pub fn compress_drain(&self, session: &mut Session, max_steps: usize) -> Result<DrainStats> {
        let mut stats = DrainStats::default();
        let mut stalls: u32 = 0;
        for _ in 0..max_steps {
            match self.compress_step(session)? {
                CompressStep::Idle => break,
                CompressStep::Done => {
                    stats.done += 1;
                    stalls = 0;
                }
                CompressStep::Discarded => {
                    stats.discarded += 1;
                    stalls = 0;
                }
                CompressStep::Requeued => {
                    stats.requeued += 1;
                    stalls += 1;
                    if stalls as usize > self.queue.len() * 4 + 16 {
                        break; // every remaining item is blocked on in-flight work
                    }
                    self.bounded_wait(stalls);
                }
            }
        }
        Ok(stats)
    }

    /// Inline compression (abstract / §5.4 option 3): the deleting process
    /// itself compresses the node it just under-filled, then any cascades.
    /// Runs inside the deletion's open operation (whose start stamp already
    /// protects the item's stack). Items that cannot make progress now stay
    /// on the shared queue as a fallback for other inline deleters (or an
    /// eventual scanner pass).
    pub(crate) fn compress_inline(&self, session: &mut Session, first: QueueItem) -> Result<()> {
        self.queue.enqueue_update(first);
        let mut stalls: u32 = 0;
        for _ in 0..1024 {
            let Some((token, item)) = self.queue.pop() else {
                break;
            };
            let r = self.process_item(session, &item);
            if r.is_err() {
                self.store.unlock_all(session);
            }
            self.queue.finish(token);
            match r? {
                CompressStep::Requeued => {
                    stalls += 1;
                    if stalls > 8 {
                        break; // leave it for whoever unblocks it
                    }
                    self.bounded_wait(stalls);
                }
                _ => stalls = 0,
            }
        }
        Ok(())
    }

    fn requeue(&self, item: &QueueItem) {
        let mut again = item.clone();
        again.attempts = again.attempts.saturating_add(1);
        self.queue.enqueue_update(again);
        TreeCounters::bump(&self.counters.requeues);
    }

    /// §5.4's per-item procedure.
    fn process_item(&self, session: &mut Session, item: &QueueItem) -> Result<CompressStep> {
        // 1. Locate and lock the parent F — "the node, in the level
        //    immediately above A, that should contain the high value of A".
        let Some((f_pid, f)) = self.locate_parent(session, item)? else {
            TreeCounters::bump(&self.counters.discards);
            return Ok(CompressStep::Discarded);
        };

        // 2. Does F still have the pair (p, v) = (pointer to A, A's high
        //    value from the queue), with v immediately following p?
        let Some(j) = f.find_pair(item.pid, item.high) else {
            let a = self.try_read(item.pid, Node::decode_probe)?;
            self.store.unlock(f_pid, session);
            return match a {
                Some(a) if !a.deleted && a.high == item.high => {
                    // High value unchanged: the pointer has simply not been
                    // inserted into F yet — consider A again later.
                    self.requeue(item);
                    Ok(CompressStep::Requeued)
                }
                _ => {
                    // High value changed (split/compression after the item
                    // was queued): whoever changed it is responsible now.
                    TreeCounters::bump(&self.counters.discards);
                    Ok(CompressStep::Discarded)
                }
            };
        };

        // Special case: the pointer to A is the only one in F.
        if f.pointer_count() == 1 {
            if f.is_root {
                // Root with one child: try to shrink the tree.
                if self.try_collapse_root(session, f_pid, f)? {
                    return Ok(CompressStep::Done);
                }
                self.requeue(item);
                return Ok(CompressStep::Requeued);
            }
            // "either F is also on the queue and must be compressed before
            // A, or more pointers should be inserted into F" — wait.
            self.store.unlock(f_pid, session);
            self.requeue(item);
            return Ok(CompressStep::Requeued);
        }

        if j + 1 < f.pointer_count() {
            // Case (1): A is not the rightmost pointer. Lock A, then its
            // right neighbor B, and check F has the pointer to B.
            let a_pid = item.pid;
            self.store.lock(a_pid, session);
            let a = self.read_node(a_pid)?; // F locked & pointer present ⇒ live
            debug_assert!(!a.deleted);
            match a.link {
                Some(b_pid) if f.pointer(j + 1) == b_pid => {
                    self.store.lock(b_pid, session);
                    let b = self.read_node(b_pid)?;
                    // May yield NewRoot when F is a two-pointer root whose
                    // children merge — §5.4's second special case.
                    let _out: RearrangeOutcome = self.rearrange_children(
                        session,
                        f_pid,
                        f,
                        j,
                        a_pid,
                        a,
                        b_pid,
                        b,
                        Some(item),
                    )?;
                    Ok(CompressStep::Done)
                }
                _ => {
                    // A split in flight: its new sibling is not in F yet.
                    // Put A back (we hold its lock, so update is safe).
                    self.requeue(item);
                    self.store.unlock(a_pid, session);
                    self.store.unlock(f_pid, session);
                    Ok(CompressStep::Requeued)
                }
            }
        } else {
            // Case (2): A is the rightmost pointer in F — try the left
            // neighbor: pick the preceding pointer, lock it, and verify its
            // link points at A.
            let b_pid = f.pointer(j - 1);
            self.store.lock(b_pid, session);
            let b = self.read_node(b_pid)?;
            if b.link == Some(item.pid) {
                self.store.lock(item.pid, session);
                let a = self.read_node(item.pid)?;
                let _out: RearrangeOutcome = self.rearrange_children(
                    session,
                    f_pid,
                    f,
                    j - 1,
                    b_pid,
                    b,
                    item.pid,
                    a,
                    Some(item),
                )?;
                Ok(CompressStep::Done)
            } else {
                self.store.unlock(b_pid, session);
                self.store.unlock(f_pid, session);
                // No lock held on A: existing queue info is fresher, so only
                // insert if absent (§5.4's explicit caveat).
                self.queue.enqueue_if_absent(item.clone());
                TreeCounters::bump(&self.counters.requeues);
                Ok(CompressStep::Requeued)
            }
        }
    }

    /// Finds and locks the parent of the queued node: start from the top of
    /// the item's stack, restart from the root/leftmost when the hint is
    /// outdated, move right by high values, lock, and re-validate ("a node
    /// is locked only after it has been found to be the one that should
    /// contain the high value of A; and after it has been locked, it is
    /// read again").
    ///
    /// Returns `None` when the whole parent level is gone — the node's own
    /// level became the root after it was queued, so "nothing has to be
    /// done about A".
    fn locate_parent(
        &self,
        session: &mut Session,
        item: &QueueItem,
    ) -> Result<Option<(PageId, Node)>> {
        let parent_level = item.level + 1;
        let mut current = match item.stack.last() {
            Some(&d) => d,
            None => match self.parent_search_root(parent_level)? {
                Some(pid) => pid,
                None => return Ok(None),
            },
        };
        let mut hops: u32 = 0;
        loop {
            hops += 1;
            if hops > self.cfg.wait_retries.max(64) {
                // Could not stabilize; have the caller retry later.
                return Ok(None);
            }
            let restart = |tree: &BLinkTree| tree.parent_search_root(parent_level);
            let node = match self.try_read(current, Node::decode_probe)? {
                Some(n) => n,
                None => match restart(self)? {
                    Some(pid) => {
                        current = pid;
                        continue;
                    }
                    None => return Ok(None),
                },
            };
            if node.deleted {
                match node.merge_target {
                    Some(t) => {
                        session.note_merge_pointer();
                        // A merge keeps the level; a root collapse points
                        // downward — in that case the parent level is gone
                        // (the paper detects this as "a deleted node whose
                        // link is nil").
                        current = t;
                        continue;
                    }
                    None => match restart(self)? {
                        Some(pid) => {
                            current = pid;
                            continue;
                        }
                        None => return Ok(None),
                    },
                }
            }
            if node.level != parent_level {
                // Followed a root-collapse merge pointer downward, or the
                // page was recycled: if the parent level no longer exists,
                // discard; otherwise restart the search.
                match restart(self)? {
                    Some(pid) => {
                        current = pid;
                        continue;
                    }
                    None => return Ok(None),
                }
            }
            if item.high <= node.low {
                // Outdated hint landed right of the target: restart left.
                match restart(self)? {
                    Some(pid) => {
                        current = pid;
                        continue;
                    }
                    None => return Ok(None),
                }
            }
            if item.high > node.high {
                self.note_link(session);
                current = node.link.expect("finite high value implies a link");
                continue;
            }
            // Candidate found: lock and re-validate.
            self.store.lock(current, session);
            match self.try_read(current, Node::decode_probe)? {
                Some(n)
                    if !n.deleted
                        && n.level == parent_level
                        && item.high > n.low
                        && item.high <= n.high =>
                {
                    return Ok(Some((current, n)));
                }
                _ => {
                    self.store.unlock(current, session);
                    // Moved under us; loop re-evaluates from the same page
                    // (unlocked read path handles every case).
                }
            }
        }
    }

    /// Where to restart a parent search: the leftmost node at the parent
    /// level, or `None` if that level does not exist any more.
    fn parent_search_root(&self, parent_level: u8) -> Result<Option<PageId>> {
        let prime = self.read_prime()?;
        Ok(prime.leftmost_at(parent_level))
    }
}

//! Tree compression (§5).
//!
//! Two operating modes share one core:
//!
//! * [`scanner`] — §5.1/Fig. 7: a pass over each level, examining disjoint
//!   pairs of adjacent siblings under their parent.
//! * [`worker`] — §5.4: deletions enqueue under-full nodes; workers drain
//!   the queue (shared or per-worker), highest level first.
//!
//! In the background each runs as a step of a
//! [`blink_pagestore::Upkeep`] loop: [`worker::CompressorPool`],
//! [`scanner::ScannerDaemon`], or the step a `Db` adds to its store's loop.
//!
//! Both funnel into `BLinkTree::rearrange_children`: with the parent `F`
//! and two adjacent children `L`, `R` locked (three simultaneous locks, the
//! paper's maximum), merge or redistribute and rewrite in §5.2's order —
//! the child that gains data first, then the parent, then the other child —
//! unlocking each node as soon as it is rewritten. Root shrinking
//! (`BLinkTree::try_collapse_root`) follows §5.4's four-step procedure.

pub mod queue;
pub mod scanner;
pub mod worker;

use crate::counters::TreeCounters;
use crate::error::Result;
use crate::node::{rearrange, Node, Rearrange, Side};
use crate::tree::BLinkTree;
use blink_pagestore::{PageId, Session};
use queue::QueueItem;

/// What a rearrangement step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RearrangeOutcome {
    /// Both children already had ≥ k pairs; nothing was written.
    Nothing,
    /// The right child was merged into the left and deleted.
    Merged,
    /// Pairs were redistributed between the children.
    Balanced,
    /// The merge left the root with a single child, which became the new
    /// root (§5.4's two-children-root special case).
    NewRoot,
}

impl BLinkTree {
    /// A background step's result, its error counted in
    /// `compress_errors`: the step has no caller to return it to, so it
    /// ends and the loop tries again next tick.
    pub(crate) fn counted<T>(&self, r: Result<T>) -> Option<T> {
        r.inspect_err(|_| TreeCounters::bump(&self.counters.compress_errors))
            .ok()
    }

    /// Rearranges children `l` (at `f.pointer(jl)`) and `r` (at
    /// `f.pointer(jl+1)`) under their locked parent `f`. All three locks are
    /// held on entry and released inside, each immediately after its node is
    /// rewritten. `item` carries the §5.4 queue context (stack + stamp) for
    /// cascading enqueues; the scanner passes `None` (the next pass visits
    /// parents anyway).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rearrange_children(
        &self,
        session: &mut Session,
        f_pid: PageId,
        mut f: Node,
        jl: usize,
        l_pid: PageId,
        mut l: Node,
        r_pid: PageId,
        mut r: Node,
        item: Option<&QueueItem>,
    ) -> Result<RearrangeOutcome> {
        debug_assert_eq!(f.pointer(jl), l_pid);
        debug_assert_eq!(f.pointer(jl + 1), r_pid);
        debug_assert_eq!(l.link, Some(r_pid));
        debug_assert_eq!(
            f.followval(jl),
            l.high,
            "parent separator must match child high"
        );
        debug_assert_eq!(l.high, r.low);

        match rearrange(&mut l, &mut r, l_pid, self.cfg.k) {
            Rearrange::None => {
                // Footnote 15: "F, A, and B are unlocked without rewriting".
                self.store.unlock(r_pid, session);
                self.store.unlock(l_pid, session);
                self.store.unlock(f_pid, session);
                Ok(RearrangeOutcome::Nothing)
            }
            Rearrange::Merged => {
                let removed = f.entries.remove(jl);
                debug_assert_eq!(removed.1 as u32, r_pid.to_raw());
                if !self.cfg.merge_pointers {
                    // Ablation (E9): without the [4] trick, readers of the
                    // deleted node must restart from the root.
                    r.merge_target = None;
                }

                if f.is_root && f.entries.is_empty() {
                    // §5.4: root with two children that were just merged —
                    // the merged child becomes the new root, four steps:
                    debug_assert_eq!(l.link, None, "sole child of the root must be rightmost");
                    // (1) rewrite the surviving child with its root bit on;
                    l.is_root = true;
                    self.write_node(l_pid, &l)?;
                    // (2) rewrite the prime block, release the new root;
                    let mut prime = self.read_prime()?;
                    prime.collapse_to(l_pid, u32::from(l.level) + 1);
                    self.write_prime(&prime)?;
                    self.store.unlock(l_pid, session);
                    // (3) rewrite the other (merged-away) child, release;
                    self.write_node(r_pid, &r)?;
                    self.store.unlock(r_pid, session);
                    self.queue.remove(r_pid);
                    self.freelist.defer(r_pid, self.clock.tick());
                    // (4) rewrite F as deleted, release.
                    f.deleted = true;
                    f.is_root = false;
                    f.merge_target = Some(l_pid);
                    f.entries.clear();
                    f.p0 = None;
                    self.write_node(f_pid, &f)?;
                    self.store.unlock(f_pid, session);
                    self.queue.remove(f_pid);
                    self.freelist.defer(f_pid, self.clock.tick());
                    TreeCounters::bump(&self.counters.merges);
                    TreeCounters::bump(&self.counters.root_collapses);
                    return Ok(RearrangeOutcome::NewRoot);
                }

                // Ordinary merge. Write order (§5.2): gainer L, parent F,
                // then the deleted R; enqueue cascades while still locked.
                self.write_node(l_pid, &l)?;
                if let Some(item) = item {
                    if l.pairs() < self.cfg.k {
                        self.queue.enqueue_update(QueueItem {
                            pid: l_pid,
                            level: l.level,
                            high: l.high,
                            stack: item.stack.clone(),
                            stamp: item.stamp,
                            attempts: 0,
                        });
                        TreeCounters::bump(&self.counters.enqueues);
                    }
                }
                self.store.unlock(l_pid, session);

                self.write_node(f_pid, &f)?;
                if let Some(item) = item {
                    if f.pairs() < self.cfg.k && !f.is_root {
                        let parent_stack =
                            item.stack[..item.stack.len().saturating_sub(1)].to_vec();
                        self.queue.enqueue_update(QueueItem {
                            pid: f_pid,
                            level: f.level,
                            high: f.high,
                            stack: parent_stack,
                            stamp: item.stamp,
                            attempts: 0,
                        });
                        TreeCounters::bump(&self.counters.enqueues);
                    }
                }
                self.store.unlock(f_pid, session);

                self.write_node(r_pid, &r)?;
                self.store.unlock(r_pid, session);
                self.queue.remove(r_pid);
                self.freelist.defer(r_pid, self.clock.tick());
                TreeCounters::bump(&self.counters.merges);
                Ok(RearrangeOutcome::Merged)
            }
            Rearrange::Balanced { gainer } => {
                // Replace the separator with L's new high value.
                f.entries[jl].0 = l.high.expect_key("separator after rebalance");
                // Ablation (E9): the naive order always writes left child,
                // then parent, then right child, ignoring which side gained
                // — widening the §5.2 wrong-node window for rightward
                // shifts.
                let effective = if self.cfg.gainer_first_writes {
                    gainer
                } else {
                    Side::Left
                };
                match effective {
                    Side::Left => {
                        self.write_node(l_pid, &l)?;
                        self.store.unlock(l_pid, session);
                        self.write_node(f_pid, &f)?;
                        self.store.unlock(f_pid, session);
                        self.write_node(r_pid, &r)?;
                        self.store.unlock(r_pid, session);
                    }
                    Side::Right => {
                        self.write_node(r_pid, &r)?;
                        self.store.unlock(r_pid, session);
                        self.write_node(f_pid, &f)?;
                        self.store.unlock(f_pid, session);
                        self.write_node(l_pid, &l)?;
                        self.store.unlock(l_pid, session);
                    }
                }
                TreeCounters::bump(&self.counters.redistributes);
                Ok(RearrangeOutcome::Balanced)
            }
        }
    }

    /// §5.4 root collapse: `f` is the locked root with a single pointer.
    /// Descends the single-child chain, locking as it goes, until a node
    /// `D` with more than one child (or a leaf) is found; `D` becomes the
    /// new root and every chain node is marked deleted (merge pointers
    /// aimed at their children so in-flight readers escape downward, then
    /// restart on the level mismatch).
    ///
    /// Returns `true` if the root was replaced; `false` if the chain could
    /// not be collapsed now (a child had a pending right sibling whose
    /// separator has not reached its parent yet).
    pub(crate) fn try_collapse_root(
        &self,
        session: &mut Session,
        f_pid: PageId,
        f: Node,
    ) -> Result<bool> {
        debug_assert!(f.is_root && !f.is_leaf() && f.pointer_count() == 1);
        let mut chain: Vec<(PageId, Node)> = vec![(f_pid, f)];
        let mut child_pid = chain[0].1.pointer(0);
        loop {
            self.store.lock(child_pid, session);
            let child = self.read_node(child_pid)?; // parent locked ⇒ live
            if child.link.is_some() {
                // The level is not really singleton: a split's separator is
                // still in flight. Unlock everything and let the caller
                // retry later.
                self.store.unlock(child_pid, session);
                for (pid, _) in chain.iter().rev() {
                    self.store.unlock(*pid, session);
                }
                return Ok(false);
            }
            if !child.is_leaf() && child.pointer_count() == 1 {
                chain.push((child_pid, child.clone()));
                child_pid = child.pointer(0);
                continue;
            }
            // `child` is D, the new root.
            let mut d = child;
            d.is_root = true;
            self.write_node(child_pid, &d)?;
            let mut prime = self.read_prime()?;
            prime.collapse_to(child_pid, u32::from(d.level) + 1);
            self.write_prime(&prime)?;
            self.store.unlock(child_pid, session);

            // Mark the chain deleted, deepest first; merge pointers aim at
            // each node's sole child (the paper's "deleted node points to
            // the node with which it was merged" generalized downward).
            let mut next_child = child_pid;
            for (pid, node) in chain.iter_mut().rev() {
                node.deleted = true;
                node.is_root = false;
                node.merge_target = self.cfg.merge_pointers.then_some(next_child);
                node.entries.clear();
                node.p0 = None;
                self.write_node(*pid, node)?;
                self.store.unlock(*pid, session);
                self.queue.remove(*pid);
                self.freelist.defer(*pid, self.clock.tick());
                next_child = *pid;
                TreeCounters::bump(&self.counters.root_collapses);
            }
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests;

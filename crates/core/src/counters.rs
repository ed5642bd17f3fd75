//! Tree-wide event counters (splits, merges, compression activity).
//!
//! These complement the per-process [`blink_pagestore::SessionStats`]: the
//! experiments report both (e.g. E3 tracks merges/redistributes over time,
//! E4 correlates restarts with compression events).
//!
//! Every counter is declared once, by the store's `store_stats!` macro:
//! it generates [`TreeCounters`] (striped counters, so threads bumping
//! `link_follows` or `restarts` write disjoint cache lines), the
//! [`CountersSnapshot`] copy, `delta()` and by-name access
//! (`COUNTER_NAMES`, `counter()`, `for_each_counter()`). `scan_hops` is
//! derived: the count of the scan-hop histogram.

blink_pagestore::store_stats! {
    /// Striped relaxed counters for structural events.
    stats TreeCounters;
    /// Point-in-time copy of [`TreeCounters`].
    snapshot CountersSnapshot;
    counters {
        /// Node splits (insert-into-unsafe).
        splits,
        /// Root splits (insert-into-unsafe-root): a new root was created.
        root_splits,
        /// Sibling merges performed by compression.
        merges,
        /// Sibling redistributions performed by compression.
        redistributes,
        /// Levels removed by root collapses.
        root_collapses,
        /// Nodes enqueued for compression (deletion underflow or cascades).
        enqueues,
        /// Queue items put back for later (§5.4's "put A back on the queue").
        requeues,
        /// Queue items discarded because another process is responsible
        /// (Theorem 2's "the process discards A").
        discards,
        /// Bounded waits taken where the paper says "wait for a while"
        /// (§3.3 prime race, §5.2 pending parent pointer).
        waits,
        /// Pages released by deferred reclamation.
        reclaimed,
        /// Errors a background §5 step met (a queue drain, a scanner pass
        /// or their `reclaim`): the step ends and runs again next tick.
        compress_errors,
        /// Structural repairs run by [`crate::tree::BLinkTree::open_or_recover`]
        /// (0 when every shutdown was clean).
        recoveries,
        /// Traversal restarts across every session (tree-wide; the per-session
        /// `SessionStats::restarts` only covers one worker's ops).
        restarts,
        /// Link follows across every session (tree-wide counterpart of
        /// `SessionStats::link_follows` — the paper's "extra page reads").
        link_follows,
    }
    hists {
        /// Latency of each scan cursor leaf hop (each [`crate::scan::Scan`]
        /// `fill`: link follow or re-descent plus harvest).
        scan_hop_hist,
    }
    derived {
        scan_hops = scan_hop_hist.count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let c = TreeCounters::default();
        TreeCounters::bump(&c.splits);
        let a = c.snapshot();
        TreeCounters::bump(&c.splits);
        TreeCounters::add(&c.merges, 3);
        let d = c.snapshot().delta(&a);
        assert_eq!(d.splits, 1);
        assert_eq!(d.merges, 3);
        assert_eq!(d.root_splits, 0);
    }
}

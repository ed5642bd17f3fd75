//! Fault injection: simulated crashes at WAL record boundaries, plus a
//! seeded per-site **fault plan** for chaos testing.
//!
//! A [`FaultInjector`] is shared by a durable store's WAL and file backend.
//! Arming it with [`crash_after_wal_records`](FaultInjector::crash_after_wal_records)`(n)`
//! lets the next `n` WAL appends through and then **trips**: every later
//! disk effect (WAL append, page-file write, fsync) fails with
//! [`StoreError::Io`], exactly as if the machine lost power after the `n`-th
//! record reached stable storage. Nothing that was already durable is
//! touched, so "crash and reopen" is: arm, run a workload until it errors,
//! drop the store, recover from the directory.
//!
//! The durable prefix is deterministic — records `1..=n` — because the
//! store writes ahead: a page-file write only happens after its WAL record
//! was accepted, and writes after the trip are suppressed. That makes
//! crash-point matrix tests exact rather than probabilistic.
//!
//! ## Fault plans
//!
//! Where the crash switch models power loss, a [`FaultPlan`] models a
//! **bad disk**: a schedule of [`PlannedFault`]s, each saying "the Nth
//! operation at [`FaultSite`] X draws [`FaultKind`] Y". Sites count their
//! operations from the moment the plan is armed ([`FaultInjector::set_plan`]),
//! so a plan is deterministic for a fixed workload. The kinds map to the
//! error taxonomy the store promises to survive:
//!
//! * [`FaultKind::Transient`] — fails exactly the Nth op; the retry that
//!   re-drives the site succeeds (an EINTR/EAGAIN-class hiccup).
//! * [`FaultKind::Permanent`] — fails the Nth op and every one after it
//!   (a dead device); retries exhaust and the error surfaces typed.
//! * [`FaultKind::TornWrite`] — the Nth write persists only a `k`-byte
//!   prefix before failing (power loss mid-`pwrite`); page checksums
//!   catch the mangled image on the next read and recovery repairs it
//!   from the WAL base+delta chain.
//! * [`FaultKind::BitFlip`] — read sites only: the Nth read succeeds but
//!   one bit of the returned buffer is flipped; the disk image stays
//!   clean (bit rot in the I/O path or DRAM). Checksum verification
//!   turns it into a typed `ChecksumMismatch`.
//!
//! [`FaultPlan::chaos`] derives a small random schedule from a seed with
//! an inline xorshift generator — the basis of the `tests/chaos.rs`
//! matrix. It never emits `BitFlip` at a write site nor `TornWrite` at a
//! read site, and never corrupts the meta file undetectably (meta writes
//! draw only fail/torn faults, which the atomic tmp+rename protocol
//! already confines to the tmp file).

use blink_pagestore::{Result, StoreError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Where in the I/O stack a [`PlannedFault`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A WAL record append (the segment-file write). A torn append
    /// writes the record's first `k` bytes and **poisons** the store:
    /// nothing may follow a torn record.
    WalAppend = 0,
    /// A WAL segment fsync — the commit point. A planned fault here is
    /// indistinguishable from a real `fsync` failure and **poisons** the
    /// store (see `StoreHealth`).
    WalFsync = 1,
    /// A page-file read (pool miss, bypass, recovery replay).
    PageRead = 2,
    /// A page-file write (write-back, bypass, checkpoint sweep, replay).
    PageWrite = 3,
    /// A checkpoint meta-file write (the tmp-file write before the
    /// atomic rename).
    MetaWrite = 4,
}

/// Number of [`FaultSite`] variants (per-site op counters).
const NSITES: usize = 5;

/// What a [`PlannedFault`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail exactly the scheduled op; the retry succeeds.
    Transient,
    /// Fail the scheduled op and every later op at the same site.
    Permanent,
    /// Write sites only: persist only the first `k` bytes, then fail.
    TornWrite(usize),
    /// Read sites only: complete the read, then XOR the given bit index
    /// (mod buffer length) into the returned buffer. Disk stays clean.
    BitFlip(u64),
}

/// One scheduled fault: the `nth` (1-based, counted from plan arming)
/// operation at `site` draws `kind`.
#[derive(Debug, Clone, Copy)]
pub struct PlannedFault {
    pub site: FaultSite,
    pub nth: u64,
    pub kind: FaultKind,
}

/// What an I/O site must do for the operation it just announced via
/// [`FaultInjector::plan_outcome`].
#[derive(Debug)]
pub enum FaultOutcome {
    /// No fault scheduled here: perform the op normally.
    Proceed,
    /// Fail the op with this error without touching the disk.
    Fail(StoreError),
    /// Write only the first `k` bytes, then fail (write sites).
    Torn(usize),
    /// Perform the read, then flip bit `bit % (len * 8)` of the buffer.
    FlipBit(u64),
}

impl FaultOutcome {
    /// Collapses the outcome to pass/fail for sites with no buffer to
    /// tear or flip (WAL fsyncs): `Proceed` passes, anything
    /// else fails loudly.
    pub fn pass_or_fail(self) -> Result<()> {
        match self {
            FaultOutcome::Proceed => Ok(()),
            FaultOutcome::Fail(e) => Err(e),
            FaultOutcome::Torn(_) | FaultOutcome::FlipBit(_) => {
                Err(StoreError::Io("injected I/O fault".to_string()))
            }
        }
    }
}

/// A schedule of [`PlannedFault`]s, built by hand or derived from a seed.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    pub faults: Vec<PlannedFault>,
}

/// One step of the xorshift64 generator used for seeded plans (and by
/// `tests/chaos.rs` for its workloads — no external RNG crates).
pub fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: schedule `kind` at the `nth` op of `site`.
    pub fn fail_nth(mut self, site: FaultSite, nth: u64, kind: FaultKind) -> FaultPlan {
        self.faults.push(PlannedFault { site, nth, kind });
        self
    }

    /// Derives a small random schedule (1–4 faults) from `seed`, with op
    /// indices drawn from `1..=horizon`. Kind/site combinations that the
    /// store cannot be expected to survive detectably are never emitted:
    /// `BitFlip` only at `PageRead`, `TornWrite` only at `PageWrite` and
    /// `MetaWrite`, and nothing silently corrupting (every fault either
    /// fails loudly or is caught by a checksum).
    pub fn chaos(seed: u64, horizon: u64) -> FaultPlan {
        let mut s = seed | 1; // xorshift state must be nonzero
        let horizon = horizon.max(1);
        let mut plan = FaultPlan::new();
        let count = 1 + xorshift64(&mut s) % 4;
        for _ in 0..count {
            let site = match xorshift64(&mut s) % 5 {
                0 => FaultSite::WalAppend,
                1 => FaultSite::WalFsync,
                2 => FaultSite::PageRead,
                3 => FaultSite::PageWrite,
                _ => FaultSite::MetaWrite,
            };
            let nth = 1 + xorshift64(&mut s) % horizon;
            let kind = match xorshift64(&mut s) % 4 {
                0 => FaultKind::Permanent,
                1 if site == FaultSite::PageRead => FaultKind::BitFlip(xorshift64(&mut s)),
                2 if matches!(site, FaultSite::PageWrite | FaultSite::MetaWrite) => {
                    FaultKind::TornWrite((xorshift64(&mut s) % 512) as usize)
                }
                _ => FaultKind::Transient,
            };
            plan.faults.push(PlannedFault { site, nth, kind });
        }
        plan
    }
}

/// Shared crash switch and fault-plan host (see module docs).
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Remaining WAL-record budget; negative = unlimited.
    budget: AtomicI64,
    /// Set once the budget is exhausted; everything fails afterwards.
    tripped: AtomicBool,
    armed: AtomicBool,
    /// Artificial latency added to every WAL fsync, in nanoseconds
    /// (0 = none). Lets tests hold a commit leader's fsync open long
    /// enough that committers wait behind it, to observe batching and
    /// early-return bugs deterministically.
    fsync_delay_ns: AtomicU64,
    /// Fast-path gate for the plan: sites skip the counter and the lock
    /// entirely until a plan is armed.
    plan_active: AtomicBool,
    /// Per-site operation counters, 1-based from plan arming.
    site_ops: [AtomicU64; NSITES],
    /// The armed schedule. Taken only on planned-site ops while a plan is
    /// active — never on the production fast path.
    plan: Mutex<Vec<PlannedFault>>,
}

fn crashed<T>() -> Result<T> {
    Err(StoreError::Io(
        "simulated crash (fault injection)".to_string(),
    ))
}

fn site_is_write(site: FaultSite) -> bool {
    matches!(
        site,
        FaultSite::WalAppend | FaultSite::WalFsync | FaultSite::PageWrite | FaultSite::MetaWrite
    )
}

impl FaultInjector {
    pub fn new() -> FaultInjector {
        FaultInjector {
            budget: AtomicI64::new(-1),
            ..FaultInjector::default()
        }
    }

    /// Arms `plan` and restarts every site's op counter at zero, so the
    /// schedule's `nth` indices are relative to this call. Replaces any
    /// earlier plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        {
            let mut p = self.plan.lock();
            *p = plan.faults;
        }
        for c in &self.site_ops {
            c.store(0, Ordering::SeqCst);
        }
        self.plan_active.store(true, Ordering::SeqCst);
    }

    /// Disarms the plan (op counters keep their values for inspection).
    pub fn clear_plan(&self) {
        self.plan_active.store(false, Ordering::SeqCst);
    }

    /// Announces one operation at `site` and returns what the site must
    /// do for it. Call exactly once per physical attempt — a retry is a
    /// new attempt and advances the counter, which is what lets a
    /// `Transient` fault heal on the retry and a `Permanent` one keep
    /// failing. A single relaxed load when no plan is armed.
    pub fn plan_outcome(&self, site: FaultSite) -> FaultOutcome {
        if !self.plan_active.load(Ordering::Relaxed) {
            return FaultOutcome::Proceed;
        }
        let n = self.site_ops[site as usize].fetch_add(1, Ordering::SeqCst) + 1;
        let plan = self.plan.lock();
        for f in plan.iter().filter(|f| f.site == site) {
            let hit = match f.kind {
                FaultKind::Permanent => n >= f.nth,
                _ => n == f.nth,
            };
            if !hit {
                continue;
            }
            return match f.kind {
                FaultKind::Transient => {
                    FaultOutcome::Fail(StoreError::Io("injected transient I/O fault".to_string()))
                }
                FaultKind::Permanent => {
                    FaultOutcome::Fail(StoreError::Io("injected permanent I/O fault".to_string()))
                }
                // A torn read or a flipped write bit would be a plan bug;
                // normalize to a loud failure instead of silent nonsense.
                FaultKind::TornWrite(k) if site_is_write(site) => FaultOutcome::Torn(k),
                FaultKind::BitFlip(bit) if !site_is_write(site) => FaultOutcome::FlipBit(bit),
                FaultKind::TornWrite(_) | FaultKind::BitFlip(_) => {
                    FaultOutcome::Fail(StoreError::Io("injected I/O fault".to_string()))
                }
            };
        }
        FaultOutcome::Proceed
    }

    /// Dilates every subsequent WAL fsync by `d` (tests only; zero
    /// restores normal speed).
    pub fn set_fsync_delay(&self, d: Duration) {
        self.fsync_delay_ns
            .store(d.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Called by the WAL at the start of an fsync: sleeps out any
    /// configured artificial latency.
    pub fn fsync_delay(&self) {
        let ns = self.fsync_delay_ns.load(Ordering::Relaxed);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }

    /// Allows `n` more WAL records, then trips. `n = 0` trips on the very
    /// next record.
    pub fn crash_after_wal_records(&self, n: u64) {
        self.budget
            .store(i64::try_from(n).expect("budget fits i64"), Ordering::SeqCst);
        self.tripped.store(false, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// True once the simulated crash happened.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Called by the WAL before appending a record. Consumes one unit of
    /// budget; trips when the budget is exhausted.
    pub fn on_wal_record(&self) -> Result<()> {
        if !self.armed.load(Ordering::SeqCst) {
            return Ok(());
        }
        if self.tripped.load(Ordering::SeqCst) {
            return crashed();
        }
        let left = self.budget.fetch_sub(1, Ordering::SeqCst);
        if left <= 0 {
            self.tripped.store(true, Ordering::SeqCst);
            return crashed();
        }
        Ok(())
    }

    /// Called by the backend/WAL before any non-append disk effect
    /// (page-file write, fsync). Fails once tripped.
    pub fn check(&self) -> Result<()> {
        if self.tripped.load(Ordering::SeqCst) {
            return crashed();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_injector_is_transparent() {
        let f = FaultInjector::new();
        for _ in 0..1000 {
            f.on_wal_record().unwrap();
            f.check().unwrap();
        }
        assert!(!f.tripped());
    }

    #[test]
    fn trips_exactly_after_budget() {
        let f = FaultInjector::new();
        f.crash_after_wal_records(3);
        for _ in 0..3 {
            f.on_wal_record().unwrap();
        }
        assert!(!f.tripped());
        assert!(f.on_wal_record().is_err());
        assert!(f.tripped());
        assert!(f.check().is_err());
        assert!(f.on_wal_record().is_err());
    }

    #[test]
    fn zero_budget_trips_immediately() {
        let f = FaultInjector::new();
        f.crash_after_wal_records(0);
        assert!(f.check().is_ok(), "not tripped until a record is attempted");
        assert!(f.on_wal_record().is_err());
        assert!(f.check().is_err());
    }

    #[test]
    fn unplanned_injector_always_proceeds() {
        let f = FaultInjector::new();
        for _ in 0..100 {
            assert!(matches!(
                f.plan_outcome(FaultSite::PageWrite),
                FaultOutcome::Proceed
            ));
        }
    }

    #[test]
    fn transient_fault_fires_exactly_once() {
        let f = FaultInjector::new();
        f.set_plan(FaultPlan::new().fail_nth(FaultSite::PageRead, 3, FaultKind::Transient));
        assert!(matches!(
            f.plan_outcome(FaultSite::PageRead),
            FaultOutcome::Proceed
        ));
        // Other sites do not consume this site's schedule.
        assert!(matches!(
            f.plan_outcome(FaultSite::PageWrite),
            FaultOutcome::Proceed
        ));
        assert!(matches!(
            f.plan_outcome(FaultSite::PageRead),
            FaultOutcome::Proceed
        ));
        assert!(matches!(
            f.plan_outcome(FaultSite::PageRead),
            FaultOutcome::Fail(StoreError::Io(_))
        ));
        // The retry (op 4) heals.
        assert!(matches!(
            f.plan_outcome(FaultSite::PageRead),
            FaultOutcome::Proceed
        ));
    }

    #[test]
    fn permanent_fault_fails_forever_after() {
        let f = FaultInjector::new();
        f.set_plan(FaultPlan::new().fail_nth(FaultSite::PageWrite, 2, FaultKind::Permanent));
        assert!(matches!(
            f.plan_outcome(FaultSite::PageWrite),
            FaultOutcome::Proceed
        ));
        for _ in 0..10 {
            assert!(matches!(
                f.plan_outcome(FaultSite::PageWrite),
                FaultOutcome::Fail(StoreError::Io(_))
            ));
        }
    }

    #[test]
    fn torn_and_bitflip_outcomes_carry_their_payload() {
        let f = FaultInjector::new();
        f.set_plan(
            FaultPlan::new()
                .fail_nth(FaultSite::PageWrite, 1, FaultKind::TornWrite(17))
                .fail_nth(FaultSite::PageRead, 1, FaultKind::BitFlip(99)),
        );
        assert!(matches!(
            f.plan_outcome(FaultSite::PageWrite),
            FaultOutcome::Torn(17)
        ));
        assert!(matches!(
            f.plan_outcome(FaultSite::PageRead),
            FaultOutcome::FlipBit(99)
        ));
    }

    #[test]
    fn misplaced_kinds_normalize_to_loud_failures() {
        let f = FaultInjector::new();
        f.set_plan(
            FaultPlan::new()
                .fail_nth(FaultSite::PageRead, 1, FaultKind::TornWrite(8))
                .fail_nth(FaultSite::PageWrite, 1, FaultKind::BitFlip(3)),
        );
        assert!(matches!(
            f.plan_outcome(FaultSite::PageRead),
            FaultOutcome::Fail(StoreError::Io(_))
        ));
        assert!(matches!(
            f.plan_outcome(FaultSite::PageWrite),
            FaultOutcome::Fail(StoreError::Io(_))
        ));
    }

    #[test]
    fn set_plan_restarts_site_counters() {
        let f = FaultInjector::new();
        f.set_plan(FaultPlan::new().fail_nth(FaultSite::MetaWrite, 1, FaultKind::Transient));
        assert!(matches!(
            f.plan_outcome(FaultSite::MetaWrite),
            FaultOutcome::Fail(_)
        ));
        f.set_plan(FaultPlan::new().fail_nth(FaultSite::MetaWrite, 1, FaultKind::Transient));
        assert!(
            matches!(f.plan_outcome(FaultSite::MetaWrite), FaultOutcome::Fail(_)),
            "re-arming restarts the 1-based count"
        );
        f.clear_plan();
        assert!(matches!(
            f.plan_outcome(FaultSite::MetaWrite),
            FaultOutcome::Proceed
        ));
    }

    #[test]
    fn chaos_plans_are_deterministic_and_well_formed() {
        for seed in 0..64u64 {
            let a = FaultPlan::chaos(seed, 200);
            let b = FaultPlan::chaos(seed, 200);
            assert_eq!(a.faults.len(), b.faults.len());
            assert!((1..=4).contains(&a.faults.len()));
            for (fa, fb) in a.faults.iter().zip(&b.faults) {
                assert_eq!(fa.site, fb.site);
                assert_eq!(fa.nth, fb.nth);
                assert_eq!(fa.kind, fb.kind);
                assert!((1..=200).contains(&fa.nth));
                match fa.kind {
                    FaultKind::BitFlip(_) => assert_eq!(fa.site, FaultSite::PageRead),
                    FaultKind::TornWrite(_) => assert!(matches!(
                        fa.site,
                        FaultSite::PageWrite | FaultSite::MetaWrite
                    )),
                    _ => {}
                }
            }
        }
    }
}

//! The paper's locks (`core.lock_wait*` in the ledger): §2.2's `lock(x)`
//! excludes other lockers but never blocks `get(x)`. Each page's
//! [`PaperLock`] lives in its slot, apart from the frame latch a read or
//! write takes, so a locked page stays readable.

use super::PageStore;
use crate::audit::{self, LockClass};
use crate::page::PageId;
use crate::session::Session;
use crate::stats::StoreStats;
use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The paper's lock: exclusive among lockers, invisible to readers.
#[derive(Debug, Default)]
pub(super) struct PaperLock {
    owner: Mutex<Option<u64>>,
    cv: Condvar,
}

impl PaperLock {
    /// Acquires the lock for `sid`, waiting while another session owns it:
    /// forever with no `deadline`, else until it passes (a deadline of
    /// "now" never waits — `try_lock`). Returns the nanoseconds spent
    /// waiting (0 when uncontended), or `None` when the deadline won.
    fn acquire(&self, sid: u64, deadline: Option<Instant>) -> Option<u64> {
        let mut owner = self.owner.lock();
        // Only the unbounded wait would deadlock on itself.
        assert!(
            deadline.is_some() || *owner != Some(sid),
            "session {sid} attempted recursive lock"
        );
        let mut wait_ns = 0;
        if owner.is_some() {
            let t0 = Instant::now();
            while owner.is_some() {
                match deadline {
                    None => self.cv.wait(&mut owner),
                    Some(d) => {
                        if self.cv.wait_until(&mut owner, d).timed_out() {
                            return None;
                        }
                    }
                }
            }
            wait_ns = t0.elapsed().as_nanos() as u64;
        }
        *owner = Some(sid);
        drop(owner);
        // Paper locks are not RAII (the protocols release them in different
        // scopes), so the auditor registration is manual and `unlock`
        // undoes it. The internal `owner` mutex is an implementation detail
        // (held only for the handful of instructions around the state
        // change) and is deliberately not a `LockClass` of its own.
        audit::acquire_manual(LockClass::PaperLock, self as *const PaperLock as usize);
        Some(wait_ns)
    }

    fn unlock(&self, sid: u64) {
        let mut owner = self.owner.lock();
        assert_eq!(
            *owner,
            Some(sid),
            "unlock by session {sid} which is not the owner ({:?})",
            *owner
        );
        *owner = None;
        drop(owner);
        audit::release_manual(LockClass::PaperLock, self as *const PaperLock as usize);
        self.cv.notify_one();
    }
}

impl PageStore {
    /// `lock(x)`: blocks until this session holds the paper lock on `pid`.
    ///
    /// Readers are unaffected; only other `lock` calls wait.
    pub fn lock(&self, pid: PageId, session: &mut Session) {
        let acquired = self.lock_until(pid, session, None);
        debug_assert!(acquired, "an unbounded lock wait cannot time out");
    }

    /// Non-blocking lock attempt.
    pub fn try_lock(&self, pid: PageId, session: &mut Session) -> bool {
        self.lock_until(pid, session, Some(Instant::now()))
    }

    /// Lock with a timeout; used by deadlock-watchdog tests (E7). Returns
    /// `true` on acquisition.
    pub fn lock_timeout(&self, pid: PageId, session: &mut Session, timeout: Duration) -> bool {
        self.lock_until(pid, session, Some(Instant::now() + timeout))
    }

    fn lock_until(&self, pid: PageId, session: &mut Session, deadline: Option<Instant>) -> bool {
        let slot = self
            .slot(pid)
            .expect("locking a page that was never allocated");
        let Some(wait_ns) = slot.lock.acquire(session.id(), deadline) else {
            return false;
        };
        StoreStats::bump(&self.stats.lock_acquires);
        if wait_ns > 0 {
            self.stats.lock_wait_hist.record(wait_ns);
        }
        session.note_lock(pid);
        true
    }

    /// `unlock(x)`.
    pub fn unlock(&self, pid: PageId, session: &mut Session) {
        let slot = self
            .slot(pid)
            .expect("unlocking a page that was never allocated");
        session.note_unlock(pid);
        slot.lock.unlock(session.id());
    }

    /// Releases every lock the session still holds (used by restart paths in
    /// tests and by panic-safety cleanup in the harness).
    pub fn unlock_all(&self, session: &mut Session) {
        while let Some(&pid) = session.held_locks().last() {
            self.unlock(pid, session);
        }
    }
}

//! The one background loop: [`Upkeep`].
//!
//! Sagiv runs compression "in the background as a low priority job"
//! (§5.1), by processes that "can be stopped as soon as [they finish]
//! compressing a node" (§5.4). Every background thread of the storage,
//! tree, durable and `Db` layers is an `Upkeep`: a named thread that runs
//! its steps once per tick, wakes early on a nudge, and stops and joins
//! when dropped. A step is a closure over a plain function its layer's
//! tests call directly — the store's write-back
//! (`PageStore::flusher_pass`), a tree's §5 queue drain
//! (`BLinkTree::compress_upkeep`) or scanner pass. A step handles its own
//! errors: the loop has no caller to return them to.
//!
//! A store owns at most one loop ([`crate::PageStore::add_upkeep_step`]),
//! and other layers add steps to it instead of starting threads of their
//! own.
//!
//! ## Lifetime
//!
//! A step must not own what owns its loop (a store keeps its loop in a
//! field): it keeps a `Weak` and upgrades it per tick. If that temporary
//! `Arc` turns out to be the last, the owner drops on the loop's own
//! thread, and so does this `Upkeep`; its drop then signals the stop and
//! detaches instead of joining itself.
//!
//! ## Locking
//!
//! The control mutex is class [`LockClass::UpkeepCtl`], a pure leaf: it is
//! held around the stop flag, the steps waiting to join the loop and the
//! condvar waits, never while a step runs.

use crate::audit::{self, Audited, LockClass};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::fmt;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One step of a loop. Returns whether it stopped with work left, in
/// which case the loop runs its next tick at once instead of waiting.
type Step = Box<dyn FnMut() -> bool + Send>;

/// What the control mutex guards.
#[derive(Default)]
struct Ctl {
    stop: bool,
    /// A nudge arrived while the loop was not waiting: skip the next wait.
    nudged: bool,
    /// Steps added since the loop last looked; they join at its next tick.
    added: Vec<Step>,
    /// Ticks completed, so a waiter can tell that one ended.
    ticks: u64,
}

#[derive(Default)]
struct Shared {
    ctl: Mutex<Ctl>,
    /// Signaled to start a tick early (a nudge, the stop).
    cv_work: Condvar,
    /// Signaled at the end of every tick.
    cv_tick: Condvar,
}

impl Shared {
    /// The only place `ctl` is locked: registers as `UpkeepCtl` (a leaf —
    /// nothing else is ever acquired under it).
    fn lock_ctl(&self) -> Audited<MutexGuard<'_, Ctl>> {
        audit::audited(LockClass::UpkeepCtl, self as *const Shared as usize, || {
            self.ctl.lock()
        })
    }

    /// The loop: wait a tick (unless the last one had work left), run
    /// every step, signal the tick's end.
    fn run(&self, tick: Duration) {
        /// Marks the loop stopped when it exits — also when a step
        /// panics — so no waiter waits on a dead loop.
        struct Exit<'a>(&'a Shared);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                self.0.lock_ctl().stop = true;
                self.0.cv_tick.notify_all();
            }
        }
        let _exit = Exit(self);
        let mut steps: Vec<Step> = Vec::new();
        let mut busy = false;
        loop {
            {
                let mut ctl = self.lock_ctl();
                if !busy && !ctl.stop && !ctl.nudged {
                    self.cv_work
                        .wait_until(ctl.guard_mut(), Instant::now() + tick);
                }
                ctl.nudged = false;
                if ctl.stop {
                    return;
                }
                steps.append(&mut ctl.added);
            }
            busy = false;
            for step in &mut steps {
                busy |= step();
            }
            self.lock_ctl().ticks += 1;
            self.cv_tick.notify_all();
        }
    }
}

/// A named background thread that runs its steps once per tick; see the
/// module docs.
pub struct Upkeep {
    shared: Arc<Shared>,
    join: Option<JoinHandle<()>>,
}

impl fmt::Debug for Upkeep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Upkeep").finish_non_exhaustive()
    }
}

impl Upkeep {
    /// Starts a loop on a thread named `name` that ticks every `tick`. It
    /// has no steps until [`Upkeep::add_step`] gives it some.
    pub fn spawn(name: &str, tick: Duration) -> Upkeep {
        let shared = Arc::new(Shared::default());
        let looped = Arc::clone(&shared);
        let join = thread::Builder::new()
            .name(name.into())
            .spawn(move || looped.run(tick))
            .expect("spawn upkeep thread");
        let join = Some(join);
        Upkeep { shared, join }
    }

    /// Adds a step; it runs from the loop's next tick on, for as long as
    /// the loop runs. It returns whether it stopped with work left.
    pub fn add_step(&self, step: impl FnMut() -> bool + Send + 'static) {
        self.shared.lock_ctl().added.push(Box::new(step));
    }

    /// Wakes the loop for a tick now, then waits until `done()` holds,
    /// checking it at the end of every tick, for at most `deadline`.
    /// Returns at once if the loop has stopped. A step must not call
    /// this: it would wait on itself.
    pub fn nudge_until(&self, done: impl Fn() -> bool, deadline: Duration) {
        let until = Instant::now() + deadline;
        let mut ctl = self.shared.lock_ctl();
        ctl.nudged = true;
        self.shared.cv_work.notify_one();
        while !done() && !ctl.stop && Instant::now() < until {
            self.shared.cv_tick.wait_until(ctl.guard_mut(), until);
        }
    }

    /// Wakes the loop and waits until the tick running now, or else the
    /// next one, has ended: a step that sees a flag set before this call
    /// has then finished any run that began before it. Returns at once if
    /// the loop has stopped. A step must not call this.
    pub fn wait_tick(&self) {
        let mut ctl = self.shared.lock_ctl();
        let seen = ctl.ticks;
        ctl.nudged = true;
        self.shared.cv_work.notify_one();
        while ctl.ticks == seen && !ctl.stop {
            self.shared.cv_tick.wait(ctl.guard_mut());
        }
    }

    /// Stops the loop and joins it; a step's panic resumes here.
    pub fn stop(mut self) {
        if let Err(panic) = self.halt() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Signals the stop and joins the thread — unless this runs on the
    /// loop's own thread (a step dropped the loop's owner), where a join
    /// would deadlock: the loop sees the flag and exits by itself.
    fn halt(&mut self) -> thread::Result<()> {
        {
            let mut ctl = self.shared.lock_ctl();
            ctl.stop = true;
            self.shared.cv_work.notify_all();
            self.shared.cv_tick.notify_all();
        }
        match self.join.take() {
            Some(j) if j.thread().id() != thread::current().id() => j.join(),
            _ => Ok(()),
        }
    }
}

impl Drop for Upkeep {
    /// Stops and joins the loop (a no-op after [`Upkeep::stop`]). A step's
    /// panic was reported by the panic hook on the loop's thread; `stop`
    /// is the way to have it resume in the caller.
    fn drop(&mut self) {
        drop(self.halt());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn steps_run_every_tick_and_the_loop_stops_on_drop() {
        let runs = Arc::new(AtomicU64::new(0));
        let up = Upkeep::spawn("blink-test-loop", Duration::from_millis(1));
        let r = Arc::clone(&runs);
        up.add_step(move || {
            r.fetch_add(1, Ordering::Relaxed);
            false
        });
        up.wait_tick();
        up.wait_tick();
        assert!(runs.load(Ordering::Relaxed) >= 1);
        drop(up);
        // Joined: the loop's thread is gone, and its step with it.
        assert_eq!(Arc::strong_count(&runs), 1);
    }

    #[test]
    fn a_nudge_ends_the_wait_before_the_tick() {
        let up = Upkeep::spawn("blink-test-loop", Duration::from_secs(60));
        let runs = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&runs);
        up.add_step(move || {
            r.fetch_add(1, Ordering::Relaxed);
            false
        });
        let t0 = Instant::now();
        up.nudge_until(|| runs.load(Ordering::Relaxed) > 0, Duration::from_secs(10));
        assert!(runs.load(Ordering::Relaxed) > 0);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn a_step_panic_stops_the_loop_and_resumes_on_stop() {
        let up = Upkeep::spawn("blink-test-loop", Duration::from_millis(1));
        up.add_step(|| panic!("step failed"));
        up.wait_tick(); // returns: the dead loop marked itself stopped
        let stopped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| up.stop()));
        assert!(stopped.is_err(), "the step's panic must reach stop()");
    }
}

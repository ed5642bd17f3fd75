//! The closed-loop client: replays a tape against anything that can run
//! the four KV ops, times every op, checks every result, and bins both
//! into the window's slices.

use crate::hist::Hist;
use crate::spec::{Workload, CLIENTS, SCAN_LEN};
use crate::stats::median;
use crate::tape::{fill_value, value_ok, Kind, Op};
use blink_db::{DbSession, PutOutcome};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The four ops, however they are carried out. `bench` runs them through
/// [`DbSession`]; `bench-trace` runs them layer by layer with spans.
pub trait Exec {
    /// Passes the stored value to `f`; `None` when the key is absent.
    fn get<R>(&mut self, key: u64, f: impl FnMut(&[u8]) -> R) -> Result<Option<R>, String>;
    /// True when the key was new.
    fn put(&mut self, key: u64, value: &[u8]) -> Result<bool, String>;
    /// True when the key was present.
    fn delete(&mut self, key: u64) -> Result<bool, String>;
    /// Passes up to `limit` pairs with key >= `lo`, ascending, to `f`.
    fn scan(&mut self, lo: u64, limit: usize, f: impl FnMut(u64, &[u8])) -> Result<(), String>;
}

impl Exec for DbSession<'_> {
    fn get<R>(&mut self, key: u64, f: impl FnMut(&[u8]) -> R) -> Result<Option<R>, String> {
        self.get_with(key, f).map_err(|e| e.to_string())
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<bool, String> {
        DbSession::put(self, key, value)
            .map(|o| o == PutOutcome::Inserted)
            .map_err(|e| e.to_string())
    }

    fn delete(&mut self, key: u64) -> Result<bool, String> {
        DbSession::delete(self, key).map_err(|e| e.to_string())
    }

    fn scan(&mut self, lo: u64, limit: usize, mut f: impl FnMut(u64, &[u8])) -> Result<(), String> {
        for pair in DbSession::scan(self, lo, u64::MAX).take(limit) {
            let (k, v) = pair.map_err(|e| e.to_string())?;
            f(k, &v);
        }
        Ok(())
    }
}

/// What one client (or, summed, one window) did and saw.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Ops that returned an error or a wrong result.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Puts that created a key / deletes that removed one: with the
    /// preload they give the exact key count, whatever the interleaving.
    pub inserted: u64,
    pub deleted: u64,
    pub get_hits: u64,
    pub get_misses: u64,
    /// Key + value bytes handed to `put`.
    pub put_user_bytes: u64,
    pub scan_pairs: u64,
}

impl Tally {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure.clone();
        }
        self.inserted += o.inserted;
        self.deleted += o.deleted;
        self.get_hits += o.get_hits;
        self.get_misses += o.get_misses;
        self.put_user_bytes += o.put_user_bytes;
        self.scan_pairs += o.scan_pairs;
    }
}

/// Runs one op and checks its result into `tally`. Shared by the timed
/// loop and by anything else that replays tape ops.
pub fn run_op<E: Exec>(exec: &mut E, w: &Workload, op: Op, value: &[u8], tally: &mut Tally) {
    tally.attempted += 1;
    let key = op.key;
    match op.kind {
        Kind::Get => match exec.get(key, |v| value_ok(key, v)) {
            Ok(Some(true)) => tally.get_hits += 1,
            Ok(Some(false)) => tally.fail(|| format!("get({key}) returned a wrong value")),
            Ok(None) if w.every_get_hits() => tally.fail(|| format!("get({key}) lost the key")),
            Ok(None) => tally.get_misses += 1,
            Err(e) => tally.fail(|| format!("get({key}): {e}")),
        },
        Kind::Put => match exec.put(key, value) {
            Ok(inserted) => {
                tally.inserted += inserted as u64;
                tally.put_user_bytes += 8 + value.len() as u64;
            }
            Err(e) => tally.fail(|| format!("put({key}): {e}")),
        },
        Kind::Delete => match exec.delete(key) {
            Ok(removed) => tally.deleted += removed as u64,
            Err(e) => tally.fail(|| format!("delete({key}): {e}")),
        },
        Kind::Scan => {
            let (mut pairs, mut bad, mut prev) = (0usize, false, None);
            let r = exec.scan(key, SCAN_LEN, |k, v| {
                bad |= k < key || prev.is_some_and(|p| k <= p) || !value_ok(k, v);
                prev = Some(k);
                pairs += 1;
            });
            tally.scan_pairs += pairs as u64;
            let want = SCAN_LEN.min((w.key_space - key) as usize);
            match r {
                Err(e) => tally.fail(|| format!("scan({key}): {e}")),
                Ok(()) if bad => tally.fail(|| format!("scan({key}) out of order or wrong value")),
                Ok(()) if pairs > SCAN_LEN || (w.every_get_hits() && pairs != want) => {
                    tally.fail(|| format!("scan({key}) returned {pairs} pairs, want {want}"))
                }
                Ok(()) => {}
            }
        }
    }
}

/// One slice of one client's window.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub ops: u64,
    /// Latency per op kind, indexed by `Kind as usize`.
    pub hist: [Hist; 4],
}

#[derive(Debug)]
pub struct Window {
    pub slice_len: Duration,
    /// `slices[i]` sums every client's ops that completed in slice `i`.
    pub slices: Vec<Slice>,
    pub tally: Tally,
}

impl Window {
    /// Appends another window's slices (of the same length) and tally.
    pub fn absorb(&mut self, other: Window) {
        assert_eq!(self.slice_len, other.slice_len);
        self.slices.extend(other.slices);
        self.tally.add(&other.tally);
    }

    pub fn seconds(&self) -> f64 {
        self.slice_len.as_secs_f64() * self.slices.len() as f64
    }

    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    /// Ops completed per second, slice by slice.
    pub fn slice_ops_per_s(&self) -> Vec<f64> {
        let len = self.slice_len.as_secs_f64();
        self.slices.iter().map(|s| s.ops as f64 / len).collect()
    }

    /// Each slice's `p`-th percentile of `kind` in µs; slices with no
    /// sample of `kind` are left out.
    pub fn slice_percentiles_us(&self, kind: Kind, p: f64) -> Vec<f64> {
        self.slices
            .iter()
            .filter_map(|s| s.hist[kind as usize].percentile(p))
            .map(|ns| ns / 1e3)
            .collect()
    }

    /// Median over slices of ops completed per second.
    pub fn ops_per_s(&self) -> f64 {
        median(self.slice_ops_per_s())
    }

    /// Median over slices of the slice's `p`-th percentile, in µs; `None`
    /// when no slice has a sample of `kind`.
    pub fn percentile_us(&self, kind: Kind, p: f64) -> Option<f64> {
        let per_slice = self.slice_percentiles_us(kind, p);
        (!per_slice.is_empty()).then(|| median(per_slice))
    }

    /// Every sample of `kind` in the window, for whole-window diagnostics.
    pub fn hist(&self, kind: Kind) -> Hist {
        let mut h = Hist::new();
        for s in &self.slices {
            h.merge(&s.hist[kind as usize]);
        }
        h
    }
}

fn run_client<E: Exec>(
    exec: &mut E,
    w: &Workload,
    tape: &[Op],
    pos: &mut usize,
    slice_len: Duration,
    n_slices: usize,
) -> (Vec<Slice>, Tally) {
    let mut slices = vec![Slice::default(); n_slices];
    let mut tally = Tally::default();
    let mut buf = [0u8; 1 << 10];
    let slice_ns = slice_len.as_nanos() as u64;
    let start = Instant::now();
    loop {
        let op = tape[*pos % tape.len()];
        // The value is made before the clock starts: generating input is
        // the benchmark's cost, not the store's.
        let value: &[u8] = match op.kind {
            Kind::Put => fill_value(&mut buf, op.key, op.len as usize),
            _ => &[],
        };
        let t0 = Instant::now();
        run_op(exec, w, op, value, &mut tally);
        let t1 = Instant::now();
        let slice = (t1.duration_since(start).as_nanos() as u64 / slice_ns) as usize;
        if slice >= n_slices {
            // Completed past the window's end: attempted, checked and
            // tallied, but not part of the window's rates and latencies.
            break;
        }
        *pos += 1;
        slices[slice].ops += 1;
        slices[slice].hist[op.kind as usize].record(t1.duration_since(t0).as_nanos() as u64);
    }
    (slices, tally)
}

/// Runs `CLIENTS` closed-loop clients for `seconds`, cut into `n_slices`,
/// each on its own tape from `pos[client]` (advanced on return), each with
/// the executor `make_exec(client)` builds on the client's own thread.
pub fn run_window<E: Exec>(
    w: &Workload,
    tapes: &[Vec<Op>],
    pos: &mut [usize],
    seconds: f64,
    n_slices: usize,
    make_exec: impl Fn(usize) -> E + Sync,
) -> Window {
    let slice_len = Duration::from_secs_f64(seconds / n_slices as f64);
    let barrier = Barrier::new(CLIENTS);
    let per_client: Vec<(Vec<Slice>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pos
            .iter_mut()
            .enumerate()
            .map(|(c, pos)| {
                let (barrier, make_exec, tape) = (&barrier, &make_exec, &tapes[c]);
                scope.spawn(move || {
                    let mut exec = make_exec(c);
                    barrier.wait();
                    run_client(&mut exec, w, tape, pos, slice_len, n_slices)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut slices = vec![Slice::default(); n_slices];
    let mut tally = Tally::default();
    for (client_slices, client_tally) in &per_client {
        tally.add(client_tally);
        for (sum, s) in slices.iter_mut().zip(client_slices) {
            sum.ops += s.ops;
            for (a, b) in sum.hist.iter_mut().zip(&s.hist) {
                a.merge(b);
            }
        }
    }
    Window {
        slice_len,
        slices,
        tally,
    }
}

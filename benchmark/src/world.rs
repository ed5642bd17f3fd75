//! Set-up and the after-run audit, through the public `Db` API only.

use crate::spec::{Workload, CLIENTS};
use crate::tape::{fill_value, generate, initial_len, load_order, value_ok, Op};
use crate::{ctx, Res};
use blink_db::Db;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A loaded database ready for its windows, and what getting there cost.
#[derive(Debug)]
pub struct World {
    pub db: Db,
    /// The durable directory; `None` in memory.
    pub dir: Option<PathBuf>,
    pub tapes: Vec<Vec<Op>>,
    pub loaded_keys: u64,
    /// Tape generation + load + (durable) sync/checkpoint, drop and reopen.
    pub setup_s: f64,
    /// The `Db::open` of the reopen alone; durable workloads only.
    pub reopen_s: Option<f64>,
    /// `Debug` of the `DbConfig` the windows run under.
    pub config: String,
}

pub fn setup(w: &'static Workload, seed: u64, data_root: &Path) -> Res<World> {
    let t0 = Instant::now();
    let tapes: Vec<Vec<Op>> = (0..CLIENTS).map(|c| generate(w, seed, c)).collect();
    // Per process, so concurrent runs cannot collide.
    let dir = w
        .durable
        .then(|| data_root.join(format!("{}-{}", w.name, std::process::id())));
    if let Some(dir) = &dir {
        // A stale directory is this benchmark's own (the pid is in the
        // name); a store found there would be reopened, not created.
        let _ = std::fs::remove_dir_all(dir);
        ctx(std::fs::create_dir_all(dir), "create data dir")?;
    }
    let mut db = ctx(Db::open(w.load_config(dir.as_deref())), "open for load")?;
    let mut loaded_keys = 0;
    {
        let mut s = db.session();
        let mut buf = [0u8; 1 << 10];
        for key in load_order(w, seed).filter(|&k| w.is_preloaded(k)) {
            let value = fill_value(&mut buf, key, initial_len(w, key));
            ctx(s.put(key, value), "load put")?;
            loaded_keys += 1;
        }
    }
    let mut reopen_s = None;
    if w.durable {
        if w.checkpoint_before_reopen {
            ctx(db.checkpoint(), "checkpoint after load")?;
        } else {
            ctx(db.sync(), "sync after load")?;
        }
        drop(db);
        let t_open = Instant::now();
        db = ctx(Db::open(w.run_config(dir.as_deref())), "reopen after load")?;
        reopen_s = Some(t_open.elapsed().as_secs_f64());
    }
    Ok(World {
        db,
        config: format!("{:?}", w.run_config(dir.as_deref())),
        dir,
        tapes,
        loaded_keys,
        setup_s: t0.elapsed().as_secs_f64(),
        reopen_s,
    })
}

/// What a full pass over the database found.
#[derive(Debug, Default)]
pub struct Audit {
    pub keys: u64,
    /// Key + value bytes of every live pair.
    pub user_bytes: u64,
    /// Every way the database disagreed with what the run must have left.
    pub problems: Vec<String>,
}

/// Reads every pair back (ascending keys, self-checking values), compares
/// the key count with `expected_keys` both by scan and by `count()`, and
/// runs the store's own structural `verify()`. Quiesced databases only.
pub fn audit(db: &Db, expected_keys: u64) -> Audit {
    let mut a = Audit::default();
    let mut s = db.session();
    let mut prev = None;
    let mut bad_pairs = 0u64;
    for pair in s.scan(0, u64::MAX) {
        match pair {
            Ok((k, v)) => {
                bad_pairs += (prev.is_some_and(|p| k <= p) || !value_ok(k, &v)) as u64;
                prev = Some(k);
                a.keys += 1;
                a.user_bytes += 8 + v.len() as u64;
            }
            Err(e) => {
                a.problems.push(format!("audit scan: {e}"));
                break;
            }
        }
    }
    if bad_pairs > 0 {
        a.problems.push(format!(
            "{bad_pairs} pairs out of order or with a wrong value"
        ));
    }
    if a.keys != expected_keys {
        a.problems.push(format!(
            "scan found {} keys, preload + inserted - deleted = {expected_keys}",
            a.keys
        ));
    }
    match s.count() {
        Ok(n) if n as u64 == expected_keys => {}
        Ok(n) => a
            .problems
            .push(format!("count() = {n}, expected {expected_keys}")),
        Err(e) => a.problems.push(format!("count(): {e}")),
    }
    match db.verify() {
        Ok(rep) => a.problems.extend(rep.errors),
        Err(e) => a.problems.push(format!("verify(): {e}")),
    }
    a
}

/// Bytes in the regular files directly under `dir` (a store directory is
/// flat: page file, WAL segments, meta).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

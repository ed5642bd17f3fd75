//! Where and on what a result was measured: the fingerprint every record
//! carries, the process's peak memory, and the command line.

use crate::json::Json;
use crate::Res;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The arguments both binaries take. The driver passes `--workload`,
/// `--seed`, `--seconds` and `--trace`; the rest are for people.
#[derive(Debug, Clone)]
pub struct Args {
    /// `None` runs every workload, each in a child process.
    pub workload: Option<String>,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `--trace` as given: 0 is `bench`'s pass, 1 is `bench-trace`'s.
    pub trace: Option<bool>,
    /// Run two sets and fail if any end-to-end metric disagrees by more
    /// than its bound.
    pub agree: bool,
    /// Run this many sets of every workload and print the spread table.
    pub sets: usize,
    /// Where result records and durable data go.
    pub out_dir: PathBuf,
}

impl Args {
    pub fn parse() -> Res<Args> {
        // Run from the repo root the benchmark lives in `benchmark/`; run
        // from its own directory it is the current directory.
        let home = if Path::new("benchmark/Cargo.toml").exists() {
            "benchmark/out"
        } else {
            "out"
        };
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: None,
            agree: false,
            sets: 1,
            out_dir: PathBuf::from(home),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let num = |v: String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => a.workload = Some(value()?),
                "--seed" => a.seed = num(value()?)? as u64,
                "--seconds" => a.seconds = num(value()?)?,
                "--sets" => a.sets = num(value()?)? as usize,
                "--out-dir" => a.out_dir = PathBuf::from(value()?),
                "--trace" => a.trace = Some(num(value()?)? != 0.0),
                "--quick" => a.seconds = 2.0,
                "--agree" => {
                    a.agree = true;
                    a.sets = 2;
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !(a.seconds > 0.0 && a.seconds <= 3600.0) || a.sets == 0 {
            return Err("--seconds must be in (0, 3600] and --sets at least 1".to_string());
        }
        Ok(a)
    }

    /// Warm-up before each measured window: a tenth of `--seconds`.
    pub fn warmup_s(&self) -> f64 {
        self.seconds / 10.0
    }
}

fn run(prog: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(prog).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// The commit the working tree is at, or `nogit` outside a repository (the
/// driver's checkouts are plain directories).
pub fn commit() -> String {
    run("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "nogit".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    read("/proc/mounts")?
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (mount, ty) = (f.nth(1)?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, ty)| ty)
}

/// Commit, toolchain, host, data filesystem, seed and window lengths.
pub fn fingerprint(args: &Args) -> Json {
    let cpu = read("/proc/cpuinfo").and_then(|c| {
        c.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    Json::obj()
        .with("commit", commit())
        .with(
            "dirty",
            run("git", &["status", "--porcelain"]).map(|s| !s.is_empty()),
        )
        .with("rustc", run("rustc", &["--version"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("cpu_model", cpu)
        .with(
            "kernel",
            read("/proc/sys/kernel/osrelease").map(|k| k.trim().to_string()),
        )
        .with("data_fs", fs_type(&args.out_dir))
        .with("seed", args.seed)
        .with("clients", crate::spec::CLIENTS)
        .with("warmup_s", args.warmup_s())
        .with("window_s", args.seconds)
        .with("rounds", crate::spec::ROUNDS)
        .with("slices_per_round", crate::spec::SLICES_PER_ROUND)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Writes `record` to `<out_dir>/<name>.json`; a failure to write is
/// reported, not fatal — stdout already carries the result.
pub fn write_record(out_dir: &Path, name: &str, record: &Json) {
    let path = out_dir.join(format!("{name}.json"));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|_| std::fs::write(&path, record.encode() + "\n"))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

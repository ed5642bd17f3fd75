//! Repo-specific latch-protocol lint (see [`blink_bench::lint`]).
//!
//! Usage:
//!
//! ```text
//! latch_lint [ROOT]      lint crates/*/src under ROOT (default: the
//!                        workspace root two levels above this crate's
//!                        manifest), exit 1 on any violation
//! latch_lint --self-test prove the lint still catches a seeded-violation
//!                        fixture, exit 1 if any expected rule went quiet
//! ```

use blink_bench::lint;
use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate sits at <root>/crates/bench")
        .to_path_buf()
}

fn self_test() -> ExitCode {
    let fixture = workspace_root().join("crates/bench/tests/fixtures/lint_bad.rs.txt");
    let src = std::fs::read_to_string(&fixture)
        .unwrap_or_else(|e| panic!("read {}: {e}", fixture.display()));
    // The fixture impersonates an allowlisted pagestore file so every rule
    // (including the unsafe SAFETY-comment one) is exercised at once, and
    // then wal.rs, heap.rs, db.rs and core's tree.rs for the rules keyed to
    // the log, the heap, the `Db` and the tree.
    let found: Vec<_> = [
        "crates/pagestore/src/store/mod.rs",
        "crates/durable/src/wal.rs",
        "crates/pagestore/src/heap.rs",
        "crates/db/src/db.rs",
        "crates/core/src/tree.rs",
    ]
    .into_iter()
    .flat_map(|label| lint::lint_source(label, &src))
    .collect();
    // (rule, text its message must name — wrapper-only has one seeded
    // violation per family that is not a plain lock).
    let expected = [
        ("wrapper-only", ".allocated.lock("),
        ("wrapper-only", ".pool.claim("),
        (
            "wrapper-only",
            "frame_hinted(` outside [\"probe_unlatched\"]",
        ),
        ("wrapper-only", "frames.get("),
        ("wrapper-only", "backend_write_page("),
        ("wrapper-only", ".log_put_base("),
        ("wrapper-only", ".log_put_edits("),
        ("wrapper-only", "sync_data("),
        ("wrapper-only", ".write_all("),
        ("wrapper-only", "allocated_pages("),
        ("wrapper-only", ".read_with("),
        ("wrapper-only", "store.read("),
        ("wrapper-only", ".tick()"),
        ("no-std-sync", ""),
        ("unsafe-safety-comment", ""),
        // As core's tree.rs, the fixture's `unsafe` is outside the allowlist.
        ("unsafe-allowlist", ""),
        ("store-stats-macro", ""),
        ("upkeep-only-thread", ""),
    ];
    let mut ok = true;
    for (rule, what) in expected {
        let label = format!("{rule} {what}");
        let label = label.trim_end();
        if found.iter().any(|v| v.rule == rule && v.msg.contains(what)) {
            println!("self-test: rule `{label}` fires");
        } else {
            println!("self-test: FAIL — rule `{label}` did not fire on the fixture");
            ok = false;
        }
    }
    if ok {
        println!("self-test: all rules fire");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-test") {
        return self_test();
    }
    let root = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(workspace_root);
    match lint::lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("latch_lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("latch_lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("latch_lint: error scanning {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}

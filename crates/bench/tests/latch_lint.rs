//! The latch-protocol lint, run as a test: the real tree must be clean,
//! and the checked-in negative fixture must still trip every rule.

use blink_bench::lint;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate sits at <root>/crates/bench")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let violations = lint::lint_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        violations.is_empty(),
        "latch_lint found violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixture_trips_every_rule() {
    let fixture = workspace_root().join("crates/bench/tests/fixtures/lint_bad.rs.txt");
    let src = std::fs::read_to_string(&fixture).expect("read fixture");
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
    for (rule, what) in [
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
        ("unsafe-allowlist", ""),
        ("store-stats-macro", ""),
        ("upkeep-only-thread", ""),
    ] {
        assert!(
            found.iter().any(|v| v.rule == rule && v.msg.contains(what)),
            "rule `{rule}` {what} did not fire on the fixture; found: {found:?}"
        );
    }
}

#[test]
fn unsafe_outside_allowlist_trips() {
    let found = lint::lint_source("crates/core/src/tree.rs", "fn f() { unsafe { g() } }\n");
    assert!(found.iter().any(|v| v.rule == "unsafe-allowlist"));
}

//! `latch_lint` — a repo-specific source lint for the latch protocol.
//!
//! The runtime auditor (`blink_pagestore::audit`, behind `latch-audit`)
//! can only judge lock orders it observes. This pass closes the other
//! half of the loop statically: every lock in a *named family* must be
//! acquired through its single audited wrapper function, so a new call
//! site cannot bypass registration; `std::sync` primitives (which the
//! auditor cannot see) are banned in favor of the vendored `parking_lot`;
//! `unsafe` stays confined to the allowlisted pagestore files and
//! always carries a `// SAFETY:` justification; `StoreStats` and
//! `TreeCounters` fields are declared only through the `store_stats!`
//! macro so snapshot/delta can never silently miss one; and outside their
//! tests, the product crates start a thread only in `Upkeep::spawn`, so
//! background work is a step of the one loop type.
//!
//! It is deliberately hand-rolled (no crate registry in the build
//! environment): a line scanner with comment, string and char-literal
//! stripping, brace-depth function tracking, and whitespace-insensitive
//! needle matching. It is a lint, not a parser — it errs on the side of
//! flagging, and the fix is always "go through the wrapper".

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (e.g. `wrapper-only`, `no-std-sync`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// A lock family that must only be acquired inside its audited wrapper
/// (or a routine that must only be called from its one funnel).
struct WrapperRule {
    /// Where the rule applies: crate-relative paths
    /// (`pagestore/src/pool.rs`), or directories (ending in `/`) whose
    /// every file it polices, or [`ALL`].
    paths: &'static [&'static str],
    /// Whitespace-free needles that constitute a raw acquisition.
    needles: &'static [&'static str],
    /// Functions allowed to contain the raw acquisition (the wrappers).
    allowed_fns: &'static [&'static str],
    /// The wrapper callers must use instead (for the message).
    use_instead: &'static str,
}

/// The page store's directory: its rules police every file in it, so a
/// function moved between its files keeps its rules.
const STORE: &str = "pagestore/src/store/";

/// Every linted file.
const ALL: &str = "";

/// The background loop's file: the one place a product crate starts a
/// thread (in `Upkeep::spawn`).
const UPKEEP: &str = "pagestore/src/upkeep.rs";

/// The product crates, whose non-test code may start a thread only in
/// `Upkeep::spawn`.
const PRODUCT: &[&str] = &["pagestore/src/", "core/src/", "durable/src/", "db/src/"];

/// Whitespace-free needles that start a thread.
const THREAD_NEEDLES: &[&str] = &["thread::spawn(", "thread::Builder"];

/// The named lock families and their single audited wrappers. Keep in
/// sync with the `LockClass` taxonomy in `blink_pagestore::audit`.
const WRAPPER_RULES: &[WrapperRule] = &[
    WrapperRule {
        paths: &["pagestore/src/pool.rs"],
        needles: &[".state.lock(", ".state.try_lock("],
        allowed_fns: &["lock_shard"],
        use_instead: "BufferPool::lock_shard (PoolShard)",
    },
    WrapperRule {
        paths: &[STORE],
        needles: &[
            ".data.read(",
            ".data.write(",
            ".data.try_read(",
            ".data.try_write(",
        ],
        allowed_fns: &["latch_read", "latch_write"],
        use_instead: "PageStore::latch_read / latch_write (FrameLatch)",
    },
    WrapperRule {
        paths: &[STORE],
        needles: &[".allocated.lock(", ".allocated.try_lock("],
        allowed_fns: &["latch"],
        use_instead: "Slot::latch (SlotLatch)",
    },
    WrapperRule {
        paths: &[STORE],
        needles: &[".free.lock(", ".free.try_lock("],
        allowed_fns: &["lock_free"],
        use_instead: "PageStore::lock_free (FreeList)",
    },
    // Not locks, but the same shape of rule: the page-access core of
    // the page store is one claim loop, one unpinned lookup and three backend
    // writers, and a new call site of any would be a second copy to keep
    // in step by hand.
    WrapperRule {
        paths: &[STORE],
        needles: &[".pool.claim("],
        // …plus the tests that stage a half-finished claim or a pin.
        allowed_fns: &[
            "claim_frame",
            "sweep_racing_a_miss_claim",
            "hinted_read_never_serves_an_unmapped_frame",
        ],
        use_instead: "PageStore::claim_frame (the frame funnel, via read / write_page)",
    },
    // The only frame lookup that takes no pin: a frame found this way can
    // be repurposed mid-read, so only the owner-and-seqlock validation in
    // `probe_unlatched` may use it.
    WrapperRule {
        paths: &[STORE],
        needles: &["frame_hinted("],
        allowed_fns: &["probe_unlatched"],
        use_instead: "PageStore::probe_unlatched (validates the unpinned frame)",
    },
    // A page's own frame in a store without a backend, found without the
    // pool: the funnel and the unlatched probe read through it, and alloc
    // and free own and disown it. A fifth lookup would be a second path to
    // the bytes that skips their checks.
    WrapperRule {
        paths: &[STORE],
        needles: &["frames.get("],
        // …plus the frame-table unit tests' lookup of a page's frame.
        allowed_fns: &[
            "claim_frame",
            "probe_unlatched",
            "alloc",
            "free",
            "frame_of",
        ],
        use_instead: "PageStore::claim_frame / probe_unlatched (the frame-table lookups)",
    },
    WrapperRule {
        paths: &[STORE],
        needles: &["backend_write_page("],
        allowed_fns: &[
            "backend_write_page",
            "write_back_frame",
            "write_back_victim",
            "write_bypass",
        ],
        use_instead: "PageStore::write_back_frame (sweeps) / write_back_victim (eviction) / \
                      write_bypass (no frame)",
    },
    // One way to log a page write: only `log_page_write` picks and appends
    // the record (a base, or the edits against the prior image).
    WrapperRule {
        paths: &[STORE, "durable/src/store.rs"],
        needles: &[
            ".log_put(",
            ".log_put_base(",
            ".log_put_delta(",
            ".log_put_edits(",
        ],
        // …plus the durable store's tests that forge a crashed log's tail
        // or an older build's log.
        allowed_fns: &[
            "log_page_write",
            "delta_replay_gates_on_the_page_lsn",
            "crashed_mixed_log",
            "a_v2_log_continued_in_v3_segments_replays",
        ],
        use_instead: "PageStore::log_page_write (the one page-write record)",
    },
    WrapperRule {
        paths: &["pagestore/src/heap.rs"],
        needles: &[".open.lock(", ".open.try_lock("],
        allowed_fns: &["lock_open"],
        use_instead: "RecordHeap::lock_open (HeapShard)",
    },
    WrapperRule {
        paths: &["pagestore/src/heap.rs"],
        needles: &[".recycle.lock(", ".recycle.try_lock("],
        allowed_fns: &["lock_recycle"],
        use_instead: "RecordHeap::lock_recycle (HeapRecycle)",
    },
    // One whole-store pass over the heap: `survey` and `live_records` both
    // ride `sweep`, so a second pass re-reading every page cannot return.
    WrapperRule {
        paths: &["pagestore/src/heap.rs"],
        needles: &["allocated_pages("],
        allowed_fns: &["sweep"],
        use_instead: "RecordHeap::sweep (the one whole-store pass)",
    },
    WrapperRule {
        paths: &["durable/src/wal.rs"],
        needles: &[".inner.lock(", ".inner.try_lock("],
        allowed_fns: &["lock_inner"],
        use_instead: "Wal::lock_inner (WalAppend)",
    },
    // One commit fsync: besides the segment-header sync in `open` and the
    // outgoing-segment sync in `rotate`, only the commit leader fsyncs.
    WrapperRule {
        paths: &["durable/src/wal.rs"],
        needles: &["sync_data("],
        allowed_fns: &["open", "rotate", "fsync_appended"],
        use_instead: "Wal::commit_pipelined (the one commit fsync, in fsync_appended)",
    },
    // One append path: besides the segment headers written by `open` and
    // `rotate`, only `append_record` writes to a segment. (The tests forge
    // segments with `std::fs::write`, which this needle does not match.)
    WrapperRule {
        paths: &["durable/src/wal.rs"],
        needles: &[".write_all("],
        allowed_fns: &["open", "rotate", "append_record"],
        use_instead: "Wal::append_record (the one write-through append)",
    },
    WrapperRule {
        paths: &["durable/src/wal.rs"],
        needles: &[".ctl.lock(", ".ctl.try_lock("],
        allowed_fns: &["lock_ctl"],
        use_instead: "Wal::lock_ctl (WalBatch)",
    },
    WrapperRule {
        paths: &[UPKEEP],
        needles: &[".ctl.lock(", ".ctl.try_lock("],
        allowed_fns: &["lock_ctl"],
        use_instead: "Upkeep's lock_ctl (UpkeepCtl)",
    },
    // One way from a leaf's record id to its record: a get and a scan
    // both follow it through `fetch`, so the retry over a record freed
    // under the read and the dangling-id check are written once.
    WrapperRule {
        paths: &["db/src/"],
        needles: &[".read_with("],
        allowed_fns: &["fetch"],
        use_instead: "db::fetch (the one index-to-heap read)",
    },
    // One page read in the tree: every node and prime-block read goes
    // through `read_page`, so the store's validated probe, its latched
    // fallback and the test hook's window are reached one way.
    WrapperRule {
        paths: &["core/src/"],
        needles: &["store.read(", ".read_probe("],
        allowed_fns: &["read_page"],
        use_instead: "BLinkTree::read_page (the tree's one page read)",
    },
    // Only a deletion ticks the §5.3 clock: an operation's start only
    // reads it (`Session::begin_op`), so a read-only workload writes no
    // shared line there. The four deferral sites are in the compression
    // steps; the clock's own tests tick it too.
    WrapperRule {
        paths: &[ALL],
        needles: &[".tick()"],
        allowed_fns: &[
            "rearrange_children",
            "try_collapse_root",
            "ticks_are_strictly_increasing",
            "now_brackets_the_ticks",
            "concurrent_ticks_are_unique",
        ],
        use_instead: "a deletion's stamp in compress/mod.rs (an op's start is LogicalClock::now)",
    },
    WrapperRule {
        paths: &["pagestore/src/health.rs"],
        needles: &[".latched.lock(", ".latched.try_lock("],
        allowed_fns: &["lock_latched"],
        use_instead: "StoreHealth::lock_latched (HealthLatch)",
    },
];

/// Files allowed to contain `unsafe` blocks (each still needs `// SAFETY:`),
/// by crate-relative path: exactly the pagestore files that hold one — the
/// frame pool's probe copy, the page store's chunked table and its pushes,
/// and the carry-less-multiply CRC path.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "pagestore/src/pool.rs",
    "pagestore/src/store/mod.rs",
    "pagestore/src/store/table.rs",
    "pagestore/src/crc.rs",
];

/// How many raw lines above an `unsafe` the `// SAFETY:` justification may
/// *start* when there is no contiguous comment block directly above (the
/// block-walk below extends this arbitrarily far through `//` lines).
const SAFETY_WINDOW: usize = 3;

/// `std::sync` primitives that bypass the latch auditor.
const BANNED_STD_SYNC: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Per-file scanner state that must survive across lines.
#[derive(Default)]
struct ScanState {
    in_block_comment: bool,
    /// `(fn_name, brace_depth_at_decl)` — innermost last.
    fn_stack: Vec<(String, usize)>,
    depth: usize,
    /// Depth at which a `macro_rules! store_stats` body opened, if inside.
    in_store_stats_macro: Option<usize>,
    /// A `#[cfg(test)]` attribute waits for the item it applies to.
    cfg_test_pending: bool,
    /// Depth at which a `#[cfg(test)]` item's body opened, if inside.
    in_test: Option<usize>,
}

/// Whether the crate-relative `path` is `key`, or lies under `key` when
/// that names a directory (ends in `/`), or `key` is [`ALL`].
fn path_matches(key: &str, path: &str) -> bool {
    key == ALL || path == key || (key.ends_with('/') && path.starts_with(key))
}

/// Lints one file's source. `path_label` should be the repo-relative path
/// (its crate-relative part selects which rules apply); it is echoed into
/// findings.
pub fn lint_source(path_label: &str, src: &str) -> Vec<Violation> {
    let path = path_label.strip_prefix("crates/").unwrap_or(path_label);
    let is_stats = path == "pagestore/src/stats.rs";
    let is_product = PRODUCT.iter().any(|k| path_matches(k, path));
    let is_test_file = path.ends_with("/tests.rs");
    let mut st = ScanState::default();
    let mut out = Vec::new();
    let raw_lines: Vec<&str> = src.lines().collect();

    for (idx, raw) in raw_lines.iter().enumerate() {
        let lineno = idx + 1;
        let mut flag = |rule: &'static str, msg: String| {
            out.push(Violation {
                file: path_label.to_string(),
                line: lineno,
                rule,
                msg,
            });
        };
        let code = strip_line(raw, &mut st.in_block_comment);
        let flat: String = code.chars().filter(|c| !c.is_whitespace()).collect();

        // Track `macro_rules! store_stats` extent before depth updates.
        if is_stats && flat.contains("macro_rules!store_stats") {
            st.in_store_stats_macro = Some(st.depth);
        }

        // Test tracking: a `#[cfg(test)]` item (usually `mod tests`) is
        // test code until its braces close; one ending in `;` (a `use`, an
        // out-of-line `mod tests;`) opens nothing.
        let item = match flat.find("#[cfg(test)]") {
            Some(at) => {
                st.cfg_test_pending = true;
                &flat[at + "#[cfg(test)]".len()..]
            }
            None => flat.as_str(),
        };
        if st.cfg_test_pending && st.in_test.is_none() && !item.is_empty() {
            if item.contains('{') {
                st.in_test = Some(st.depth);
                st.cfg_test_pending = false;
            } else if item.ends_with(';') {
                st.cfg_test_pending = false;
            }
        }

        // Function tracking: a `fn name` token on this line scopes needle
        // matches until its braces close.
        if let Some(name) = fn_name(&code) {
            st.fn_stack.push((name, st.depth));
        }

        let current_fn = st.fn_stack.last().map(|(n, _)| n.as_str());

        // Rule: wrapper-only lock sites.
        let rules = WRAPPER_RULES.iter();
        for rule in rules.filter(|r| r.paths.iter().any(|k| path_matches(k, path))) {
            for needle in rule.needles {
                if flat.contains(needle)
                    && !current_fn.is_some_and(|f| rule.allowed_fns.contains(&f))
                {
                    let (fns, instead) = (rule.allowed_fns, rule.use_instead);
                    flag(
                        "wrapper-only",
                        format!("raw `{needle}` outside {fns:?}; go through {instead}"),
                    );
                }
            }
        }

        // Rule: outside tests, a product crate starts a thread only in
        // `Upkeep::spawn`; background work is a step of that loop.
        let in_test = is_test_file || st.in_test.is_some();
        if is_product
            && !in_test
            && THREAD_NEEDLES.iter().any(|n| flat.contains(n))
            && !(path == UPKEEP && current_fn == Some("spawn"))
        {
            flag(
                "upkeep-only-thread",
                format!(
                    "a thread started outside Upkeep::spawn ({UPKEEP}); add a step to \
                     a loop (PageStore::add_upkeep_step, Upkeep::add_step) instead"
                ),
            );
        }

        // Rule: no std::sync lock primitives (parking_lot only — the
        // auditor instruments parking_lot guards; std's are invisible to
        // it, and poisoning corrupts panic-path semantics).
        for prim in BANNED_STD_SYNC {
            let direct = format!("std::sync::{prim}");
            let hit = flat.contains(direct.as_str())
                || (flat.contains("std::sync::{") && brace_import_has(&flat, prim));
            if hit {
                flag(
                    "no-std-sync",
                    format!(
                        "std::sync::{prim} bypasses the latch auditor; use the \
                         vendored parking_lot::{prim}"
                    ),
                );
            }
        }

        // Rule: unsafe confinement + SAFETY comments.
        if has_word(&code, "unsafe") {
            if !UNSAFE_ALLOWLIST.contains(&path) {
                flag(
                    "unsafe-allowlist",
                    format!("`unsafe` outside the allowlisted files {UNSAFE_ALLOWLIST:?}"),
                );
            } else if !safety_justified(&raw_lines, idx) {
                flag(
                    "unsafe-safety-comment",
                    format!(
                        "`unsafe` without a `// SAFETY:` comment within \
                         {SAFETY_WINDOW} lines above"
                    ),
                );
            }
        }

        // Rule: telemetry structs are declared only via store_stats!.
        let by_hand = ["structStoreStats", "structTreeCounters"];
        if by_hand.iter().any(|n| flat.contains(n))
            && !(is_stats && st.in_store_stats_macro.is_some())
        {
            flag(
                "store-stats-macro",
                "StoreStats and TreeCounters may only be declared through \
                 the store_stats! macro in stats.rs (by-name access and \
                 snapshot/delta are generated from the same field list)"
                    .to_string(),
            );
        }

        // Depth bookkeeping (after matching: decls and their bodies count).
        for c in code.chars() {
            match c {
                '{' => st.depth += 1,
                '}' => {
                    st.depth = st.depth.saturating_sub(1);
                    while st.fn_stack.last().is_some_and(|&(_, d)| d >= st.depth) {
                        st.fn_stack.pop();
                    }
                    if st.in_store_stats_macro.is_some_and(|d| d >= st.depth) {
                        st.in_store_stats_macro = None;
                    }
                    if st.in_test.is_some_and(|d| d >= st.depth) {
                        st.in_test = None;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Lints every `crates/*/src/**/*.rs` under `root`. Vendored code
/// (`vendor/`) is exempt by construction: it is outside `crates/`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        out.extend(lint_source(&label, &src));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Strips line comments, block comments (tracking multi-line state via
/// `in_block`), string literals and char literals, so needles never match
/// inside text and brace counting stays honest.
fn strip_line(raw: &str, in_block: &mut bool) -> String {
    let b = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut i = 0;
    while i < b.len() {
        if *in_block {
            if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => break, // line comment
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                *in_block = true;
                i += 2;
            }
            b'"' => {
                // Skip the string literal (escapes honored; an unterminated
                // string just consumes the rest of the line — good enough
                // for a lint; the repo has no multi-line strings in scope).
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' => {
                // Char literal ('x' or '\x') vs lifetime ('a in types):
                // only the former has a closing quote 2-3 bytes out.
                if i + 2 < b.len() && b[i + 1] != b'\\' && b[i + 2] == b'\'' {
                    i += 3;
                } else if i + 3 < b.len() && b[i + 1] == b'\\' && b[i + 3] == b'\'' {
                    i += 4;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Extracts `name` from the first `fn name` token pair on the line.
fn fn_name(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while let Some(pos) = code[i..].find("fn ") {
        let at = i + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        if before_ok {
            let rest = code[at + 3..].trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        i = at + 3;
    }
    None
}

/// Whether `word` occurs in `code` delimited by non-identifier characters.
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while let Some(pos) = code[i..].find(word) {
        let at = i + pos;
        let end = at + word.len();
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = end >= code.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        i = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether the `unsafe` on `raw_lines[idx]` carries a `SAFETY:` comment:
/// on the line itself, within [`SAFETY_WINDOW`] lines above, or anywhere
/// in the contiguous `//` comment block ending directly above it (the
/// usual shape — a multi-line justification whose `// SAFETY:` head may
/// sit arbitrarily far up).
fn safety_justified(raw_lines: &[&str], idx: usize) -> bool {
    let lo = idx.saturating_sub(SAFETY_WINDOW);
    if raw_lines[lo..=idx].iter().any(|l| l.contains("SAFETY:")) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = raw_lines[i].trim_start();
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else if !t.is_empty() || idx - i > SAFETY_WINDOW {
            break;
        }
    }
    false
}

/// Whether a whitespace-free `use std::sync::{...}` import list names
/// `prim` as one of its items (`Mutex`, `Mutex as Foo`, nested rename).
fn brace_import_has(flat: &str, prim: &str) -> bool {
    let Some(start) = flat.find("std::sync::{") else {
        return false;
    };
    let list = &flat[start + "std::sync::{".len()..];
    let list = list.split('}').next().unwrap_or(list);
    list.split(',')
        .any(|item| item == prim || item.starts_with(&format!("{prim} as ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_wrapper_site_passes() {
        let src = "impl BufferPool {\n    fn lock_shard(&self) {\n        \
                   let g = shard.state.try_lock();\n    }\n}\n";
        assert!(lint_source("crates/pagestore/src/pool.rs", src).is_empty());
    }

    #[test]
    fn raw_site_outside_wrapper_flagged() {
        let src = "fn evict(&self) {\n    let g = shard.state.lock();\n}\n";
        let v = lint_source("crates/pagestore/src/pool.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wrapper-only");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn needle_in_comment_or_string_ignored() {
        let src = "fn doc() {\n    // shard.state.lock() is not for you\n    \
                   let s = \"shard.state.lock()\";\n    let _ = s;\n}\n";
        assert!(lint_source("crates/pagestore/src/pool.rs", src).is_empty());
    }

    #[test]
    fn pipeline_and_flusher_locks_require_their_wrappers() {
        // The commit monitor's one mutex (WalBatch)…
        let v = lint_source(
            "crates/durable/src/wal.rs",
            "fn commit_pipelined(&self) {\n    let g = self.ctl.lock();\n    let h = self.ctl.try_lock();\n}\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "wrapper-only"));
        let ok = lint_source(
            "crates/durable/src/wal.rs",
            "fn lock_ctl(&self) {\n    let g = self.ctl.lock();\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        // …and the control mutex of the loop the flusher runs on
        // (UpkeepCtl).
        let v = lint_source(
            "crates/pagestore/src/upkeep.rs",
            "fn nudge(&self) {\n    let g = self.ctl.lock();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wrapper-only");
        let ok = lint_source(
            "crates/pagestore/src/upkeep.rs",
            "fn lock_ctl(&self) {\n    let g = self.ctl.lock();\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn only_upkeep_spawn_starts_a_product_thread() {
        let stray = "fn start(&self) {\n    std::thread::spawn(move || run());\n}\n";
        for path in [
            "crates/pagestore/src/store/writeback.rs",
            "crates/core/src/compress/worker.rs",
            "crates/durable/src/wal.rs",
            "crates/db/src/db.rs",
        ] {
            let v = lint_source(path, stray);
            assert_eq!(v.len(), 1, "{path}: {v:?}");
            assert_eq!(v[0].rule, "upkeep-only-thread");
        }
        let v = lint_source(
            "crates/core/src/compress/scanner.rs",
            "fn spawn() {\n    let t = std::thread::Builder::new();\n}\n",
        );
        assert_eq!(v.len(), 1, "only upkeep.rs's spawn may: {v:?}");
        let home = "fn spawn(name: &str) {\n    let j = thread::Builder::new().name(n);\n}\n";
        assert!(lint_source("crates/pagestore/src/upkeep.rs", home).is_empty());
        // Test code and the non-product crates start threads freely.
        let tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                     std::thread::spawn(|| ());\n    }\n}\nfn g() {\n    std::thread::spawn(|| ());\n}\n";
        let v = lint_source("crates/pagestore/src/heap.rs", tests);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 9, "only the call after the test module: {v:?}");
        assert!(lint_source("crates/core/src/compress/tests.rs", stray).is_empty());
        assert!(lint_source("crates/bench/src/bin/paper/main.rs", stray).is_empty());
    }

    #[test]
    fn health_latch_requires_its_wrapper() {
        let v = lint_source(
            "crates/pagestore/src/health.rs",
            "fn poison(&self) {\n    let g = self.latched.lock();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wrapper-only");
        let ok = lint_source(
            "crates/pagestore/src/health.rs",
            "fn lock_latched(&self) {\n    let g = self.latched.lock();\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn heap_whole_store_pass_is_pinned_to_sweep() {
        let v = lint_source(
            "crates/pagestore/src/heap.rs",
            "fn heap_pages(&self) {\n    let all = self.store.allocated_pages();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wrapper-only");
        let ok = lint_source(
            "crates/pagestore/src/heap.rs",
            "fn sweep(&self) {\n    for pid in self.store.allocated_pages() {}\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn frame_table_lookup_is_pinned_to_its_four_users() {
        let v = lint_source(
            "crates/pagestore/src/store/mod.rs",
            "fn peek(&self) {\n    let f = frames.get(pid.index());\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("the frame-table lookups"));
        for user in ["claim_frame", "probe_unlatched", "alloc", "free"] {
            let src = format!("fn {user}(&self) {{\n    let f = frames.get(pid.index());\n}}\n");
            let ok = lint_source("crates/pagestore/src/store/mod.rs", &src);
            assert!(ok.is_empty(), "{user}: {ok:?}");
        }
    }

    #[test]
    fn record_read_is_pinned_to_the_fetch_loop() {
        let v = lint_source(
            "crates/db/src/scan.rs",
            "fn resolve(&mut self) {\n    let v = self.db.heap.read_with(rid, |b| b.to_vec());\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("the one index-to-heap read"));
        let ok = lint_source(
            "crates/db/src/db.rs",
            "fn fetch(db: &Db) {\n    let r = db.heap.read_with(rid, &mut f);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn tree_page_read_is_pinned_to_read_page() {
        for line in [
            "let g = self.store.read(pid)?;",
            "let n = self.store.read_probe(pid, f)?;",
        ] {
            let src = format!("fn peek(&self) {{\n    {line}\n}}\n");
            let v = lint_source("crates/core/src/compress/worker.rs", &src);
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].msg.contains("the tree's one page read"));
        }
        let ok = lint_source(
            "crates/core/src/tree.rs",
            "fn read_page(&self) {\n    self.store.read_probe(pid, f)\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn clock_tick_is_pinned_to_the_deferral_sites() {
        for path in [
            "crates/pagestore/src/session.rs",
            "crates/core/src/ops.rs",
            "crates/db/src/db.rs",
        ] {
            let v = lint_source(
                path,
                "fn begin_op(&mut self) {\n    let t = self.clock.tick();\n}\n",
            );
            assert_eq!(v.len(), 1, "{path}: {v:?}");
            assert!(v[0].msg.contains("LogicalClock::now"));
        }
        let ok = lint_source(
            "crates/core/src/compress/mod.rs",
            "fn rearrange_children(&self) {\n    self.freelist.defer(r_pid, self.clock.tick());\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        // The definition and a read are not ticks.
        let ok = lint_source(
            "crates/pagestore/src/clock.rs",
            "pub fn tick(&self) -> u64 {\n    self.next.fetch_add(1, AcqRel)\n}\nfn f() {\n    let t = clock.now();\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn unpinned_frame_lookup_is_pinned_to_probe_unlatched() {
        let v = lint_source(
            "crates/pagestore/src/store/funnel.rs",
            "fn read_unlatched(&self) {\n    let f = self.pool.frame_hinted(pid);\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("go through PageStore::probe_unlatched"));
        let ok = lint_source(
            "crates/pagestore/src/store/funnel.rs",
            "fn probe_unlatched(&self) {\n    let f = self.pool.frame_hinted(pid);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn store_rules_police_every_file_of_the_store() {
        // A frame latch taken raw in a store file other than `mod.rs`
        // (where the wrappers live) trips.
        let v = lint_source(
            "crates/pagestore/src/store/page_log.rs",
            "fn peek(&self) {\n    let g = frame.data.read();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("latch_read / latch_write"));
        // A file of the same name elsewhere is not the store's.
        let ok = lint_source(
            "crates/harness/src/table.rs",
            "fn peek(&self) {\n    let g = frame.data.read();\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn mmap_unsafe_is_outside_the_allowlist() {
        // Only the allowlisted files may hold `unsafe`; a `SAFETY:`
        // comment does not admit another one.
        let v = lint_source(
            "crates/pagestore/src/mmap.rs",
            "fn f() {\n    // SAFETY: bounds checked above.\n    unsafe { g() }\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unsafe-allowlist");
    }

    #[test]
    fn crc_unsafe_needs_a_safety_comment() {
        let bare = "fn f() {\n    unsafe { g() }\n}\n";
        let v = lint_source("crates/pagestore/src/crc.rs", bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unsafe-safety-comment");
        let ok = lint_source(
            "crates/pagestore/src/crc.rs",
            "fn f() {\n    // SAFETY: the feature was detected.\n    unsafe { g() }\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn std_sync_direct_and_import_flagged() {
        let v = lint_source("crates/x/src/a.rs", "use std::sync::Mutex;\n");
        assert_eq!(v[0].rule, "no-std-sync");
        let v = lint_source("crates/x/src/a.rs", "use std::sync::{Arc, Mutex};\n");
        assert_eq!(v.len(), 1, "{v:?}");
        let ok = lint_source("crates/x/src/a.rs", "use std::sync::{Arc, atomic};\n");
        assert!(ok.is_empty());
    }

    #[test]
    fn unsafe_rules() {
        let v = lint_source("crates/x/src/a.rs", "fn f() { unsafe { g() } }\n");
        assert_eq!(v[0].rule, "unsafe-allowlist");
        let v = lint_source(
            "crates/pagestore/src/pool.rs",
            "fn f() {\n    unsafe { g() }\n}\n",
        );
        assert_eq!(v[0].rule, "unsafe-safety-comment");
        let ok = lint_source(
            "crates/pagestore/src/pool.rs",
            "fn f() {\n    // SAFETY: g is fine here.\n    unsafe { g() }\n}\n",
        );
        assert!(ok.is_empty());
        // `unsafe_code` in a forbid attribute is not the `unsafe` token.
        let ok = lint_source("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert!(ok.is_empty());
    }

    #[test]
    fn store_stats_outside_macro_flagged() {
        let v = lint_source(
            "crates/pagestore/src/other.rs",
            "pub struct StoreStats { pub x: u64 }\n",
        );
        assert_eq!(v[0].rule, "store-stats-macro");
        let v = lint_source(
            "crates/core/src/counters.rs",
            "pub struct TreeCounters {}\n",
        );
        assert_eq!(v[0].rule, "store-stats-macro");
        let ok = lint_source(
            "crates/pagestore/src/stats.rs",
            "macro_rules! store_stats {\n    () => {\n        pub struct StoreStats {}\n    };\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }
}

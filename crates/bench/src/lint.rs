//! `latch_lint` — a repo-specific source lint for the latch protocol.
//!
//! The runtime auditor (`blink_pagestore::audit`, behind `latch-audit`)
//! can only judge lock orders it observes. This pass closes the other
//! half of the loop statically: every lock in a *named family* must be
//! acquired through its single audited wrapper function, so a new call
//! site cannot bypass registration; `std::sync` primitives (which the
//! auditor cannot see) are banned in favor of the vendored `parking_lot`;
//! `unsafe` stays confined to the two allowlisted pagestore files and
//! always carries a `// SAFETY:` justification; and `StoreStats` fields
//! are declared only inside the `store_stats!` macro so snapshot/delta
//! can never silently miss one.
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
    /// File basename the rule applies to.
    file: &'static str,
    /// Whitespace-free needles that constitute a raw acquisition.
    needles: &'static [&'static str],
    /// Functions allowed to contain the raw acquisition (the wrappers).
    allowed_fns: &'static [&'static str],
    /// The wrapper callers must use instead (for the message).
    use_instead: &'static str,
}

/// The named lock families and their single audited wrappers. Keep in
/// sync with the `LockClass` taxonomy in `blink_pagestore::audit`.
const WRAPPER_RULES: &[WrapperRule] = &[
    WrapperRule {
        file: "pool.rs",
        needles: &[".state.lock(", ".state.try_lock("],
        allowed_fns: &["lock_shard"],
        use_instead: "BufferPool::lock_shard (PoolShard)",
    },
    WrapperRule {
        file: "store.rs",
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
        file: "store.rs",
        needles: &[".allocated.lock(", ".allocated.try_lock("],
        allowed_fns: &["latch"],
        use_instead: "Slot::latch (SlotLatch)",
    },
    WrapperRule {
        file: "store.rs",
        needles: &[".slots.read(", ".slots.write("],
        allowed_fns: &["slots_read", "slots_write"],
        use_instead: "PageStore::slots_read / slots_write (SlotsMap)",
    },
    WrapperRule {
        file: "store.rs",
        needles: &[".free.lock(", ".free.try_lock("],
        allowed_fns: &["lock_free"],
        use_instead: "PageStore::lock_free (FreeList)",
    },
    // Not locks, but the same shape of rule: the page-access core of
    // store.rs is one claim loop and three backend writers, and a new call
    // site of either would be a second copy to keep in step by hand.
    WrapperRule {
        file: "store.rs",
        needles: &[".pool.claim("],
        // …plus the one test that stages a half-finished claim by hand.
        allowed_fns: &[
            "claim_frame",
            "flush_racing_a_miss_claim_leaves_the_victim_to_the_claimant",
        ],
        use_instead: "PageStore::claim_frame (the frame funnel, via read / write_page)",
    },
    WrapperRule {
        file: "store.rs",
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
    WrapperRule {
        file: "heap.rs",
        needles: &[".open.lock(", ".open.try_lock("],
        allowed_fns: &["lock_open"],
        use_instead: "RecordHeap::lock_open (HeapShard)",
    },
    WrapperRule {
        file: "heap.rs",
        needles: &[".recycle.lock(", ".recycle.try_lock("],
        allowed_fns: &["lock_recycle"],
        use_instead: "RecordHeap::lock_recycle (HeapRecycle)",
    },
    WrapperRule {
        file: "wal.rs",
        needles: &[".inner.lock(", ".inner.try_lock("],
        allowed_fns: &["lock_inner"],
        use_instead: "Wal::lock_inner (WalAppend)",
    },
    WrapperRule {
        file: "wal.rs",
        needles: &[".flushed.lock(", ".flushed.try_lock("],
        allowed_fns: &["lock_flushed"],
        use_instead: "Wal::lock_flushed (CommitWindow)",
    },
    WrapperRule {
        file: "wal.rs",
        needles: &["slot.lock(", "slot.try_lock("],
        allowed_fns: &["lock_slot"],
        use_instead: "Wal::lock_slot (WalSlot)",
    },
    WrapperRule {
        file: "wal.rs",
        needles: &[
            ".ctl.lock(",
            ".ctl.try_lock(",
            ".gate.lock(",
            ".gate.try_lock(",
        ],
        allowed_fns: &["lock_ctl", "lock_gate"],
        use_instead: "Wal::lock_ctl / lock_gate (WalBatch)",
    },
    WrapperRule {
        file: "flusher.rs",
        needles: &[".ctl.lock(", ".ctl.try_lock("],
        allowed_fns: &["lock_ctl"],
        use_instead: "FlusherShared::lock_ctl (FlusherQueue)",
    },
    WrapperRule {
        file: "db.rs",
        needles: &[".read_sessions.lock(", ".read_sessions.try_lock("],
        allowed_fns: &["lock_sessions"],
        use_instead: "Db::lock_sessions (SessionPool)",
    },
    WrapperRule {
        file: "health.rs",
        needles: &[".latched.lock(", ".latched.try_lock("],
        allowed_fns: &["lock_latched"],
        use_instead: "StoreHealth::lock_latched (HealthLatch)",
    },
];

/// Files allowed to contain `unsafe` blocks (each still needs `// SAFETY:`).
/// `mmap.rs` is the hand-rolled mapping for the zero-syscall read path.
const UNSAFE_ALLOWLIST: &[&str] = &["pool.rs", "store.rs", "mmap.rs"];

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
}

/// Lints one file's source. `path_label` should be the repo-relative path
/// (its basename selects which rules apply); it is echoed into findings.
pub fn lint_source(path_label: &str, src: &str) -> Vec<Violation> {
    let base = path_label.rsplit('/').next().unwrap_or(path_label);
    let is_stats = base == "stats.rs";
    let mut st = ScanState::default();
    let mut out = Vec::new();
    let raw_lines: Vec<&str> = src.lines().collect();

    for (idx, raw) in raw_lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = strip_line(raw, &mut st.in_block_comment);
        let flat: String = code.chars().filter(|c| !c.is_whitespace()).collect();

        // Track `macro_rules! store_stats` extent before depth updates.
        if is_stats && flat.contains("macro_rules!store_stats") {
            st.in_store_stats_macro = Some(st.depth);
        }

        // Function tracking: a `fn name` token on this line scopes needle
        // matches until its braces close.
        if let Some(name) = fn_name(&code) {
            st.fn_stack.push((name, st.depth));
        }

        let current_fn = st.fn_stack.last().map(|(n, _)| n.as_str());

        // Rule: wrapper-only lock sites.
        for rule in WRAPPER_RULES.iter().filter(|r| r.file == base) {
            for needle in rule.needles {
                if flat.contains(needle)
                    && !current_fn.is_some_and(|f| rule.allowed_fns.contains(&f))
                {
                    out.push(Violation {
                        file: path_label.to_string(),
                        line: lineno,
                        rule: "wrapper-only",
                        msg: format!(
                            "raw `{}` outside {:?}; go through {}",
                            needle, rule.allowed_fns, rule.use_instead
                        ),
                    });
                }
            }
        }

        // Rule: no std::sync lock primitives (parking_lot only — the
        // auditor instruments parking_lot guards; std's are invisible to
        // it, and poisoning corrupts panic-path semantics).
        for prim in BANNED_STD_SYNC {
            let direct = format!("std::sync::{prim}");
            let hit = flat.contains(direct.as_str())
                || (flat.contains("std::sync::{") && brace_import_has(&flat, prim));
            if hit {
                out.push(Violation {
                    file: path_label.to_string(),
                    line: lineno,
                    rule: "no-std-sync",
                    msg: format!(
                        "std::sync::{prim} bypasses the latch auditor; use the \
                         vendored parking_lot::{prim}"
                    ),
                });
            }
        }

        // Rule: unsafe confinement + SAFETY comments.
        if has_word(&code, "unsafe") {
            if !UNSAFE_ALLOWLIST.contains(&base) {
                out.push(Violation {
                    file: path_label.to_string(),
                    line: lineno,
                    rule: "unsafe-allowlist",
                    msg: format!("`unsafe` outside the allowlisted files {UNSAFE_ALLOWLIST:?}"),
                });
            } else {
                if !safety_justified(&raw_lines, idx) {
                    out.push(Violation {
                        file: path_label.to_string(),
                        line: lineno,
                        rule: "unsafe-safety-comment",
                        msg: format!(
                            "`unsafe` without a `// SAFETY:` comment within \
                             {SAFETY_WINDOW} lines above"
                        ),
                    });
                }
            }
        }

        // Rule: StoreStats fields are declared only via store_stats!.
        if flat.contains("structStoreStats") && !(is_stats && st.in_store_stats_macro.is_some()) {
            out.push(Violation {
                file: path_label.to_string(),
                line: lineno,
                rule: "store-stats-macro",
                msg: "StoreStats may only be declared by the store_stats! macro \
                      in stats.rs (by-name access and snapshot/delta are \
                      generated from the same field list)"
                    .to_string(),
            });
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
        // The commit pipeline's control/gate mutexes (WalBatch)…
        let v = lint_source(
            "crates/durable/src/wal.rs",
            "fn run_leader(&self) {\n    let g = ps.ctl.lock();\n    let b = cell.gate.lock();\n}\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "wrapper-only"));
        let ok = lint_source(
            "crates/durable/src/wal.rs",
            "fn lock_ctl(&self) {\n    let g = ps.ctl.lock();\n}\n\
             fn lock_gate(&self) {\n    let b = cell.gate.lock();\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        // …and the flusher's control mutex (FlusherQueue).
        let v = lint_source(
            "crates/pagestore/src/flusher.rs",
            "fn kick(&self) {\n    let g = self.ctl.lock();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wrapper-only");
        let ok = lint_source(
            "crates/pagestore/src/flusher.rs",
            "fn lock_ctl(&self) {\n    let g = self.ctl.lock();\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
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
    fn mmap_unsafe_is_allowlisted_but_still_needs_safety() {
        let v = lint_source(
            "crates/pagestore/src/mmap.rs",
            "fn f() {\n    unsafe { g() }\n}\n",
        );
        assert_eq!(v[0].rule, "unsafe-safety-comment");
        let ok = lint_source(
            "crates/pagestore/src/mmap.rs",
            "fn f() {\n    // SAFETY: bounds checked above.\n    unsafe { g() }\n}\n",
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
        let ok = lint_source(
            "crates/pagestore/src/stats.rs",
            "macro_rules! store_stats {\n    () => {\n        pub struct StoreStats {}\n    };\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }
}

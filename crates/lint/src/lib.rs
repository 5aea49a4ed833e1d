//! `nck-lint` — workspace-aware static analysis for repo-specific
//! invariants.
//!
//! The invariants this workspace's concurrency and serving layers rely
//! on — unsafe containment, a panic-free request path, the lock
//! hierarchy, a frozen wire schema — used to live only in
//! ARCHITECTURE.md prose. This crate machine-checks them. It is
//! registry-free by construction: a hand-rolled token-level lexer (in
//! the style of the vendored serde derive — see [`lexer`]) feeds four
//! rules, each emitting CI-failing diagnostics with `file:line:col`
//! spans:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-audit` | `unsafe` only in allowlisted files, always with `// SAFETY:` |
//! | `panic-path`   | no `unwrap`/`expect`/`panic!`/indexing on the request path |
//! | `lock-order`   | nested lock acquisitions follow the declared hierarchy |
//! | `wire-schema`  | serialized protocol surface matches the checked-in golden |
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p nck-lint            # human output, exit 1 on findings
//! cargo run -p nck-lint -- --json  # machine-readable report
//! cargo run -p nck-lint -- --rule wire-schema --bless  # re-pin schema
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod files;
pub mod lexer;
mod rules;

pub use diag::{Diagnostic, EscapeUse, Report, RuleSummary};

use std::io;
use std::path::{Path, PathBuf};

/// Classifies lock acquisition receivers into named classes.
///
/// A `.lock()` (or `.read()`/`.write()`, when listed in `methods`)
/// whose enclosing file ends with `file_suffix` and whose receiver
/// ident matches `receiver` (any receiver when `None`) belongs to lock
/// class `class`.
#[derive(Debug, Clone)]
pub struct LockClassSpec {
    /// Path suffix the acquisition's file must end with.
    pub file_suffix: String,
    /// Receiver ident (`state` in `self.state.lock()`); `None` matches
    /// every receiver in the file.
    pub receiver: Option<String>,
    /// Acquisition method names (`lock`, or `read`/`write` for RwLocks).
    pub methods: Vec<String>,
    /// The class name, as it appears in the declared hierarchy.
    pub class: String,
}

impl LockClassSpec {
    /// A `Mutex`-style spec (`.lock()` only).
    pub fn mutex(file_suffix: &str, receiver: Option<&str>, class: &str) -> Self {
        LockClassSpec {
            file_suffix: file_suffix.to_owned(),
            receiver: receiver.map(str::to_owned),
            methods: vec!["lock".to_owned()],
            class: class.to_owned(),
        }
    }
}

/// Everything a lint run needs to know about the tree it checks.
///
/// [`LintConfig::for_workspace`] encodes this repository's invariants;
/// the self-tests build configs pointing at known-bad fixtures instead.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root; every path below is relative to it.
    pub root: PathBuf,
    /// Files where `unsafe` (and `allow(unsafe_code)`) is permitted.
    pub unsafe_allowlist: Vec<String>,
    /// Request-path modules held to the no-panic rule.
    pub panic_path_modules: Vec<String>,
    /// Path prefixes the lock-order analysis covers.
    pub lock_scope: Vec<String>,
    /// Receiver → class table for lock acquisitions.
    pub lock_classes: Vec<LockClassSpec>,
    /// Declared lock hierarchy, outermost first. Nesting must follow
    /// this order; anything else is a diagnostic.
    pub lock_hierarchy: Vec<String>,
    /// Path prefixes whose Serialize/Deserialize containers form the
    /// wire schema.
    pub wire_files: Vec<String>,
    /// The golden schema file, relative to `root`.
    pub golden_path: String,
    /// Path prefixes excluded from the walk entirely (fixtures of
    /// intentionally-bad code).
    pub skip_prefixes: Vec<String>,
}

impl LintConfig {
    /// The configuration for **this** workspace: mmap is the only
    /// unsafe module, the socket request path is panic-free, and the
    /// lock hierarchy runs cache stripe → single-flight map →
    /// single-flight slot → admission queue → connection writer.
    pub fn for_workspace(root: &Path) -> LintConfig {
        let s = str::to_owned;
        LintConfig {
            root: root.to_path_buf(),
            unsafe_allowlist: vec![s("crates/graph/src/io/mmap.rs")],
            panic_path_modules: vec![
                s("crates/serve/src/server.rs"),
                s("crates/serve/src/frame.rs"),
                s("crates/serve/src/queue.rs"),
                s("crates/serve/src/wire.rs"),
                s("crates/api/src/service.rs"),
            ],
            lock_scope: vec![
                s("crates/engine/src/"),
                s("crates/serve/src/"),
                s("crates/api/src/"),
            ],
            lock_classes: vec![
                // ShardedLru stripes: every mutex in cache.rs is a
                // stripe, whatever the local binding is called.
                LockClassSpec::mutex("engine/src/cache.rs", None, "sharded_lru_stripe"),
                // SingleFlight: the slot map, then per-slot state (the
                // Condvar waits on slot state and re-enters the same
                // class, which is not an acquisition).
                LockClassSpec::mutex("engine/src/flight.rs", Some("slots"), "single_flight_map"),
                LockClassSpec::mutex("engine/src/flight.rs", Some("state"), "single_flight_slot"),
                // The admission queue's one mutex.
                LockClassSpec::mutex("serve/src/queue.rs", Some("state"), "admission_queue"),
                // Per-connection writer mutex (innermost: held only for
                // the duration of one frame write).
                LockClassSpec::mutex("serve/src/server.rs", Some("writer"), "conn_writer"),
                // The engine's PPR workspace pool (solo and blocked
                // scratch): leaf mutexes, locked only for a pop or push
                // and never held across another acquisition.
                LockClassSpec::mutex("engine/src/engine.rs", Some("solo"), "ppr_workspace_pool"),
                LockClassSpec::mutex("engine/src/engine.rs", Some("block"), "ppr_workspace_pool"),
                // The ContextRW matching and scoring-workspace pools:
                // leaves like the PPR pools, locked only to check a
                // workspace out or put it back.
                LockClassSpec::mutex(
                    "engine/src/engine.rs",
                    Some("matching"),
                    "match_workspace_pool",
                ),
                LockClassSpec::mutex(
                    "engine/src/engine.rs",
                    Some("scoring"),
                    "scoring_workspace_pool",
                ),
            ],
            lock_hierarchy: vec![
                s("sharded_lru_stripe"),
                s("single_flight_map"),
                s("single_flight_slot"),
                s("admission_queue"),
                s("conn_writer"),
                s("ppr_workspace_pool"),
                s("match_workspace_pool"),
                s("scoring_workspace_pool"),
            ],
            wire_files: vec![s("crates/api/src/"), s("crates/serve/src/wire.rs")],
            golden_path: s("crates/lint/wire_schema.golden"),
            skip_prefixes: vec![s("crates/lint/tests/fixtures")],
        }
    }
}

/// The rules, in execution order.
pub const ALL_RULES: &[&str] = &["unsafe-audit", "panic-path", "lock-order", "wire-schema"];

/// Runs the selected rules (all of them when `rules` is empty) over the
/// workspace and returns the combined report.
///
/// `bless` only affects `wire-schema`: instead of diffing against the
/// golden file, it rewrites it.
pub fn run(cfg: &LintConfig, rules: &[String], bless: bool) -> io::Result<Report> {
    for rule in rules {
        if !ALL_RULES.contains(&rule.as_str()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown rule `{rule}` (rules: {})", ALL_RULES.join(", ")),
            ));
        }
    }
    let enabled = |name: &str| rules.is_empty() || rules.iter().any(|r| r == name);
    let files = files::collect(&cfg.root, &cfg.skip_prefixes)?;
    let mut report = Report::default();
    if enabled("unsafe-audit") {
        rules::unsafe_audit::run(&files, cfg, &mut report);
    }
    if enabled("panic-path") {
        rules::panic_path::run(&files, cfg, &mut report);
    }
    if enabled("lock-order") {
        rules::lock_order::run(&files, cfg, &mut report);
    }
    if enabled("wire-schema") {
        rules::wire_schema::run(&files, cfg, bless, &mut report);
    }
    Ok(report)
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

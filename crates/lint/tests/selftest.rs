//! The lint's own acceptance suite: every rule must catch its
//! known-bad fixture in `tests/fixtures/`, and the real workspace must
//! be clean.
//!
//! The fixtures live under `tests/fixtures/` (not compiled by cargo —
//! only top-level files in `tests/` are test targets) and are excluded
//! from the production walk by `LintConfig::for_workspace`'s
//! `skip_prefixes`.

#![forbid(unsafe_code)]

use nck_lint::{LintConfig, LockClassSpec, Report};
use std::path::PathBuf;

fn lint_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    lint_dir().join("../..").canonicalize().unwrap()
}

/// A config whose root is `crates/lint` itself, so the fixtures are
/// inside the walk; every rule is then pointed at its fixture.
fn fixture_config() -> LintConfig {
    let s = str::to_owned;
    LintConfig {
        root: lint_dir(),
        unsafe_allowlist: vec![s("tests/fixtures/unsafe_no_safety.rs")],
        panic_path_modules: vec![s("tests/fixtures/panic_path.rs")],
        lock_scope: vec![s("tests/fixtures/")],
        lock_classes: vec![
            LockClassSpec::mutex("fixtures/lock_order.rs", Some("stripe"), "stripe_class"),
            LockClassSpec::mutex("fixtures/lock_order.rs", Some("queue"), "queue_class"),
        ],
        lock_hierarchy: vec![s("stripe_class"), s("queue_class")],
        wire_files: vec![s("tests/fixtures/wire_v1.rs")],
        golden_path: s("tests/fixtures/wire_v1.rs"), // overridden per test
        skip_prefixes: vec![],
    }
}

fn diags_for<'a>(
    report: &'a Report,
    rule: &'a str,
    file_suffix: &'a str,
) -> impl Iterator<Item = &'a nck_lint::Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(move |d| d.rule == rule && d.file.ends_with(file_suffix))
}

#[test]
fn unsafe_outside_the_allowlist_is_flagged() {
    let cfg = fixture_config();
    let report = nck_lint::run(&cfg, &["unsafe-audit".to_owned()], false).unwrap();
    let diags: Vec<_> = diags_for(&report, "unsafe-audit", "unsafe_outside.rs").collect();
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("outside the allowlist") && d.line == 8),
        "the unsafe block must be flagged with its span: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("allow(unsafe_code)")),
        "the allow(unsafe_code) attribute must be flagged: {diags:?}"
    );
}

#[test]
fn allowlisted_unsafe_requires_safety_comments() {
    let cfg = fixture_config();
    let report = nck_lint::run(&cfg, &["unsafe-audit".to_owned()], false).unwrap();
    let diags: Vec<_> = diags_for(&report, "unsafe-audit", "unsafe_no_safety.rs").collect();
    assert_eq!(
        diags.len(),
        1,
        "exactly the undocumented block is flagged (stacked impls share \
         one SAFETY comment): {diags:?}"
    );
    assert_eq!(diags[0].line, 17, "span points at the undocumented block");
    assert!(diags[0].message.contains("SAFETY"));
}

#[test]
fn panic_path_constructs_and_hatches_are_accounted_for() {
    let cfg = fixture_config();
    let report = nck_lint::run(&cfg, &["panic-path".to_owned()], false).unwrap();
    let diags: Vec<_> = diags_for(&report, "panic-path", "panic_path.rs").collect();

    let flagged = |needle: &str| diags.iter().filter(|d| d.message.contains(needle)).count();
    assert_eq!(flagged("`.unwrap()`"), 1, "{diags:?}");
    assert_eq!(flagged("`.expect(…)`"), 1);
    assert_eq!(flagged("`panic!`"), 1);
    assert_eq!(flagged("`unreachable!`"), 1);
    assert_eq!(flagged("`todo!`"), 1);
    assert_eq!(flagged("`unimplemented!`"), 1);
    // v[0] in `flagged` + v[0] under the reasonless hatch.
    assert_eq!(flagged("slice indexing"), 2);
    assert_eq!(flagged("without a reason"), 1);
    assert_eq!(flagged("unused escape hatch"), 1);
    assert_eq!(diags.len(), 10, "no extra findings: {diags:?}");

    // The one valid hatch is reported as used, with its reason.
    assert_eq!(report.escapes.len(), 1, "{:?}", report.escapes);
    assert!(report.escapes[0].reason.contains("index 0 is checked"));
    assert_eq!(report.escapes[0].sites, 1);
}

#[test]
fn lock_order_violations_are_flagged_and_clean_nesting_is_not() {
    let cfg = fixture_config();
    let report = nck_lint::run(&cfg, &["lock-order".to_owned()], false).unwrap();
    let diags: Vec<_> = diags_for(&report, "lock-order", "lock_order.rs").collect();

    assert!(
        diags.iter().any(|d| d.message.contains("inversion")
            && d.message.contains("queue_class")
            && d.message.contains("stripe_class")),
        "the inverted acquisition must be flagged: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("self-nesting")),
        "double-locking the same class must be flagged: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("undeclared") && d.message.contains("unclassified:other")),
        "nesting an undeclared mutex must be flagged: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("cyclic")),
        "stripe→queue plus queue→stripe is a cycle: {diags:?}"
    );
    // `sequential_is_fine`, `declared_order_is_fine`, and
    // `scoped_guard_releases_at_block_end` contribute no findings.
    assert_eq!(diags.len(), 4, "{diags:?}");
}

#[test]
fn wire_schema_drift_is_flagged_field_by_field() {
    let golden = std::env::temp_dir().join("nck_lint_selftest_wire.golden");
    let golden_str = golden.to_str().unwrap().to_owned();

    // Bless from v1…
    let mut cfg = fixture_config();
    cfg.wire_files = vec!["tests/fixtures/wire_v1.rs".to_owned()];
    cfg.golden_path = golden_str.clone();
    let report = nck_lint::run(&cfg, &["wire-schema".to_owned()], true).unwrap();
    assert!(report.is_clean(), "bless never diagnoses: {report:?}");

    // …v1 against its own golden is clean…
    let report = nck_lint::run(&cfg, &["wire-schema".to_owned()], false).unwrap();
    assert!(report.is_clean(), "{report:?}");

    // …and v2 (field deleted, variant added) drifts loudly.
    cfg.wire_files = vec!["tests/fixtures/wire_v2.rs".to_owned()];
    let report = nck_lint::run(&cfg, &["wire-schema".to_owned()], false).unwrap();
    let drifted: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "wire-schema")
        .collect();
    assert!(
        drifted.iter().any(|d| d.message.contains("WireRequest")
            && d.message.contains("deadline_ms")
            && d.file.ends_with("wire_v2.rs")),
        "the deleted field must be named, with a span in the source: {drifted:?}"
    );
    assert!(
        drifted
            .iter()
            .any(|d| d.message.contains("Mode") && d.message.contains("Compare")),
        "the added variant must be named: {drifted:?}"
    );
    std::fs::remove_file(&golden).ok();
}

/// The acceptance criterion verbatim: deleting `deadline_ms` from the
/// *real* `WireRequest` fails against the *real* committed golden.
#[test]
fn deleting_a_field_from_the_real_wire_request_fails_the_pin() {
    let root = repo_root();
    let real_wire = std::fs::read_to_string(root.join("crates/serve/src/wire.rs")).unwrap();
    let mutated: String = real_wire
        .lines()
        .filter(|l| !l.contains("pub deadline_ms"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(mutated, real_wire, "the field must exist to be deleted");

    // A scratch tree holding only the mutated wire.rs plus the real
    // golden file.
    let scratch = std::env::temp_dir().join("nck_lint_selftest_realwire");
    let wire_dir = scratch.join("crates/serve/src");
    std::fs::create_dir_all(&wire_dir).unwrap();
    std::fs::write(wire_dir.join("wire.rs"), mutated).unwrap();
    std::fs::copy(
        root.join("crates/lint/wire_schema.golden"),
        scratch.join("wire_schema.golden"),
    )
    .unwrap();

    let mut cfg = LintConfig::for_workspace(&scratch);
    cfg.wire_files = vec!["crates/serve/src/wire.rs".to_owned()];
    cfg.golden_path = "wire_schema.golden".to_owned();
    let report = nck_lint::run(&cfg, &["wire-schema".to_owned()], false).unwrap();
    let hit = report.diagnostics.iter().find(|d| {
        d.rule == "wire-schema"
            && d.file == "crates/serve/src/wire.rs"
            && d.message.contains("WireRequest")
            && d.message.contains("deadline_ms")
    });
    assert!(
        hit.is_some(),
        "deleting deadline_ms must produce a spanned WireRequest drift: {:?}",
        report.diagnostics
    );
    assert!(hit.unwrap().line > 0, "diagnostic carries a real span");
    std::fs::remove_dir_all(&scratch).ok();
}

/// Growing the wire surface is gated exactly like shrinking it: a new
/// field added to the real `QueryOverrides` without re-pinning the
/// golden must fail the clean-tree gate (this is the rule that forces
/// every wire field through a reviewed `--bless`).
#[test]
fn adding_an_unpinned_field_to_query_overrides_fails_the_pin() {
    let root = repo_root();
    let real_types = std::fs::read_to_string(root.join("crates/api/src/types.rs")).unwrap();
    let anchor = "    pub epsilon: Option<f64>,";
    assert!(real_types.contains(anchor), "anchor field must exist");
    let mutated = real_types.replace(
        anchor,
        "    pub epsilon: Option<f64>,\n    pub lane_stride: Option<usize>,",
    );
    assert_ne!(mutated, real_types);

    // A scratch tree holding only the mutated types.rs plus the real
    // (now stale) golden file.
    let scratch = std::env::temp_dir().join("nck_lint_selftest_addedfield");
    let api_dir = scratch.join("crates/api/src");
    std::fs::create_dir_all(&api_dir).unwrap();
    std::fs::write(api_dir.join("types.rs"), mutated).unwrap();
    std::fs::copy(
        root.join("crates/lint/wire_schema.golden"),
        scratch.join("wire_schema.golden"),
    )
    .unwrap();

    let mut cfg = LintConfig::for_workspace(&scratch);
    cfg.wire_files = vec!["crates/api/src/types.rs".to_owned()];
    cfg.golden_path = "wire_schema.golden".to_owned();
    let report = nck_lint::run(&cfg, &["wire-schema".to_owned()], false).unwrap();
    let hit = report.diagnostics.iter().find(|d| {
        d.rule == "wire-schema"
            && d.file == "crates/api/src/types.rs"
            && d.message.contains("QueryOverrides")
            && d.message.contains("lane_stride")
    });
    assert!(
        hit.is_some(),
        "an unpinned added field must produce a QueryOverrides drift: {:?}",
        report.diagnostics
    );
    assert!(hit.unwrap().line > 0, "diagnostic carries a real span");
    std::fs::remove_dir_all(&scratch).ok();
}

/// The real tree is clean — the same gate CI runs.
#[test]
fn the_workspace_itself_is_clean() {
    let cfg = LintConfig::for_workspace(&repo_root());
    let report = nck_lint::run(&cfg, &[], false).unwrap();
    assert!(
        report.is_clean(),
        "nck-lint must exit 0 on the committed tree:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The four rules all ran and actually inspected code.
    assert_eq!(report.summaries.len(), 4);
    assert!(report.summaries.iter().all(|s| s.sites > 0));
}

#[test]
fn unknown_rule_names_are_rejected() {
    let cfg = LintConfig::for_workspace(&repo_root());
    let err = nck_lint::run(&cfg, &["no-such-rule".to_owned()], false).unwrap_err();
    assert!(err.to_string().contains("no-such-rule"));
}

//! `nck`'s exit statuses: an argument error exits 2 with the usage
//! text, a run-time failure exits 1 with the error alone — for every
//! subcommand, `serve` included.

#![forbid(unsafe_code)]

use std::process::{Command, Output, Stdio};

/// Runs `nck` with stdin at EOF, so a `serve` that gets past its
/// arguments drains and exits.
fn nck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nck"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("nck runs")
}

fn prints_usage(out: &Output) -> bool {
    String::from_utf8_lossy(&out.stderr).contains("USAGE:")
}

#[test]
fn build_graph_run_failure_exits_1_without_usage() {
    let missing = std::env::temp_dir().join(format!("nck-missing-{}.nt", std::process::id()));
    let image = std::env::temp_dir().join(format!("nck-never-{}.nckg", std::process::id()));
    let out = nck(&[
        "build-graph",
        "--in",
        missing.to_str().unwrap(),
        "--out",
        image.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!prints_usage(&out), "a run-time failure printed the usage");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
    assert!(!image.exists());
}

#[test]
fn build_graph_argument_errors_exit_2_with_usage() {
    for args in [
        &["build-graph", "--bogus", "x"][..],
        &["build-graph", "--out", "g.nckg"],
        &["build-graph", "--scale", "huge", "--out", "g.nckg"],
        &[
            "build-graph",
            "--in",
            "a.nt",
            "--scale",
            "small",
            "--out",
            "g.nckg",
        ],
    ] {
        let out = nck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(prints_usage(&out), "{args:?}: no usage text");
    }
}

#[test]
fn gen_run_failure_exits_1_without_usage() {
    let out_path = std::env::temp_dir()
        .join(format!("nck-no-such-dir-{}", std::process::id()))
        .join("x.nt");
    let out = nck(&["gen", "--kind", "tiny", "--out", out_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!prints_usage(&out), "a run-time failure printed the usage");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot create"));
}

#[test]
fn gen_argument_errors_exit_2_with_usage() {
    for args in [
        &["gen", "--kind", "bogus", "--out", "x.nt"][..],
        &["gen", "--out", "x.nt"],
        &["gen", "--kind", "tiny", "--out", "x.nt", "--seed", "many"],
    ] {
        let out = nck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(prints_usage(&out), "{args:?}: no usage text");
    }
}

#[test]
fn removed_store_backend_is_an_argument_error() {
    let out = nck(&[
        "query",
        "--graph",
        "missing.nt",
        "--query",
        "A",
        "--backend",
        "store",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(prints_usage(&out), "no usage text");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--backend must be csr or compact"));
}

#[test]
fn serve_argument_errors_exit_2_with_usage() {
    for args in [
        &["serve", "--graph", "g.nt", "--bogus"][..],
        &["serve", "--graph", "g.nt", "--workers", "0"],
        &["serve", "--graph", "g.nt", "--queue-depth", "0"],
        &["serve", "--graph", "g.nt", "--max-connections", "0"],
        &["serve", "--graph", "g.nt", "--max-frame-bytes", "0"],
        &["serve"],
    ] {
        let out = nck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(prints_usage(&out), "{args:?}: no usage text");
    }
}

#[test]
fn serve_run_failure_exits_1_without_usage() {
    let missing = std::env::temp_dir().join(format!("nck-missing-{}.nt", std::process::id()));
    let out = nck(&[
        "serve",
        "--graph",
        missing.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!prints_usage(&out), "a run-time failure printed the usage");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn no_parallel_is_an_unexpected_argument() {
    for args in [
        &["query", "--graph", "g.nt", "--query", "A", "--no-parallel"][..],
        &[
            "batch",
            "--graph",
            "g.nt",
            "--queries",
            "q",
            "--no-parallel",
        ],
        &["serve", "--graph", "g.nt", "--no-parallel"],
    ] {
        let out = nck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(prints_usage(&out), "{args:?}: no usage text");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(r#"unexpected argument "--no-parallel""#),
            "{args:?}: {out:?}"
        );
    }
}

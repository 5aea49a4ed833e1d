//! `nck batch` end to end: it answers every line of its query file as
//! one batch, one answer per line in file order, on stdout alone. With
//! `--json` each line is byte for byte what `nck query --json` prints
//! for that line, and a compact image answers exactly as the N-Triples
//! file it was built from, with no format flag.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Options that keep the debug binary fast on the tiny graph. Mining
/// keeps the CLI's default walk budget: at 2,000 walks the first two
/// tiny query sets mine no metapath that reaches a candidate, and the
/// query fails with an empty context.
const OPTIONS: [&str; 5] = ["--json", "--context-size", "20", "--top", "5"];

fn nck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nck"))
        .args(args)
        .output()
        .expect("nck runs")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("a UTF-8 temp path")
}

/// stdout of a run that must succeed.
fn stdout_of(args: &[&str]) -> String {
    let out = nck(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// A scratch directory removed on drop, pass or fail.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn batch_prints_one_query_json_line_per_query_on_both_formats() {
    let dir = Scratch(std::env::temp_dir().join(format!("nck-cli-batch-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let nt = dir.0.join("tiny.nt");
    let image = dir.0.join("tiny.nckg");
    let all_queries = dir.0.join("all-queries.txt");
    let queries = dir.0.join("queries.txt");
    stdout_of(&[
        "gen",
        "--kind",
        "tiny",
        "--out",
        path(&nt),
        "--queries-out",
        path(&all_queries),
    ]);
    stdout_of(&["build-graph", "--in", path(&nt), "--out", path(&image)]);

    // The first 3 query lines, with the `# label` comments before them.
    let text = std::fs::read_to_string(&all_queries).unwrap();
    let mut kept = Vec::new();
    let mut lines = Vec::new();
    for line in text.lines() {
        if lines.len() == 3 {
            break;
        }
        kept.push(line);
        if !line.starts_with('#') {
            lines.push(line);
        }
    }
    assert_eq!(lines.len(), 3, "nck gen wrote fewer than 3 query sets");
    std::fs::write(&queries, kept.join("\n") + "\n").unwrap();

    let batch = |graph: &Path| {
        let mut args = vec!["batch", "--graph", path(graph), "--queries", path(&queries)];
        args.extend(OPTIONS);
        let out = nck(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("queries/s"), "{stderr}");
        assert!(stderr.contains("hit rate"), "{stderr}");
        // The `bytes` column of each cache row: `-` for the result and
        // context caches, whose entries have no byte cost, and the PPR
        // cache's byte count.
        let bytes = |cache: &str| {
            let row = stderr
                .lines()
                .find(|l| l.split_whitespace().next() == Some(cache))
                .unwrap_or_else(|| panic!("no {cache} row:\n{stderr}"));
            row.split_whitespace().nth(6).map(str::to_owned)
        };
        assert_eq!(bytes("result").as_deref(), Some("-"), "{stderr}");
        assert_eq!(bytes("context").as_deref(), Some("-"), "{stderr}");
        assert!(
            bytes("ppr").is_some_and(|b| b.parse::<usize>().is_ok()),
            "{stderr}"
        );
        String::from_utf8(out.stdout).expect("UTF-8 stdout")
    };
    let from_nt = batch(&nt);
    let answers: Vec<&str> = from_nt.lines().collect();
    assert_eq!(answers.len(), lines.len(), "one line per query:\n{from_nt}");
    for (line, answer) in lines.iter().zip(&answers) {
        let mut args = vec!["query", "--graph", path(&nt), "--query", line];
        args.extend(OPTIONS);
        assert_eq!(stdout_of(&args).trim_end(), *answer, "{line}");
    }
    assert_eq!(batch(&image), from_nt, "the image answers as its source");
}

#[test]
fn removed_batch_flags_are_unexpected_arguments() {
    for removed in [
        &["--mode", "compare"][..],
        &["--repeat", "2"],
        &["--chunk", "3"],
        &["--clients", "2"],
        &["--graph-format", "compact"],
    ] {
        let mut args = vec!["batch", "--graph", "g.nt", "--queries", "q.txt"];
        args.extend(removed);
        let out = nck(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unexpected argument"), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?}: no usage text");
    }
}

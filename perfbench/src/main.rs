//! End-to-end and per-layer benchmark of the notable-characteristics
//! pipeline: three workloads through the public API at `nck`'s default
//! configuration, every answer checked against an in-process reference.
//! See `README.md` next to this crate for the workloads and metrics.
//!
//! ```text
//! nck-perfbench --workload profile_cold|serve_hot|serve_override
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod cold;
mod gen;
mod layers;
mod report;
mod served;
mod setup;
mod trace;

use notable_characteristics::datagen::Dataset;
use report::Tally;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: nck-perfbench --workload profile_cold|serve_hot|serve_override \
                     --seed N --seconds S --trace 0|1";

/// Service set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The workloads.
const WORKLOADS: &[&str] = &["profile_cold", "serve_hot", "serve_override"];

/// What every workload runs on.
pub struct Env {
    pub dataset: Dataset,
    /// The dataset written as N-Triples.
    pub nt: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    dir: PathBuf,
}

impl Env {
    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.dir
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed))
    }
}

/// A workload's result.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed reconciliation checks.
    pub checks: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join(", "))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: Args) -> Result<(bool, String), String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dataset = gen::dataset();
    let nt = dir.join(format!("yago-{}.nt", gen::GRAPH_SEED));
    gen::write_graph(&dataset, &nt)?;
    let env = Env {
        dataset,
        nt,
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir,
    };
    let outcome = match env.workload.as_str() {
        "profile_cold" => cold::run(&env)?,
        "serve_hot" => served::run(&env, &served::HOT)?,
        _ => served::run(&env, &served::OVERRIDE)?,
    };
    let catalog = if env.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for (name, unit) in catalog {
        if let Some(v) = outcome.metrics.get(name) {
            println!("{:<28} {v:>16.6} {unit}", name);
        }
    }
    let failures: Vec<String> = outcome
        .tally
        .failed
        .iter()
        .map(|(why, n)| format!("{why:?} {n}"))
        .collect();
    println!(
        "attempted {} answered {} failed {} [{}]",
        outcome.tally.attempted,
        outcome.tally.answered,
        outcome.tally.failed_total(),
        failures.join(", ")
    );
    let mut problems = outcome.checks;
    if let Err(e) = outcome.tally.verdict() {
        problems.push(e);
    }
    for p in &problems {
        eprintln!("nck-perfbench: check failed: {p}");
    }
    let correct = problems.is_empty();
    let line = report::result_line(correct, &outcome.tally, &outcome.metrics, catalog)?;
    Ok((correct, line))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nck-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("nck-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

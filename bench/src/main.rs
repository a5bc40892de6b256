//! The repo benchmark. One invocation measures one workload:
//!
//! ```text
//! appfit-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the timed pass (end-to-end metrics, tracing off),
//! `--trace 1` the traced pass (per-layer metrics). Without
//! `--workload` every workload runs, each pass in a fresh child
//! process, so a workload's peak memory is its own. `--smoke` shrinks
//! every loop to a couple of iterations and the million-task inputs to
//! a sixteenth or less, with all checks still on.
//! The last line of standard output is the result as one JSON object;
//! the exit code is 0 only if every output check passed.

mod direct;
mod metrics;
mod probe;
mod serve;
mod span;
mod specs;
mod stats;

use std::path::Path;
use std::process::{Command, ExitCode};

use metrics::{Metrics, RUN_SECONDS};
use specs::{DEFAULT_SEED, WORKLOADS};

/// Where spans, sockets and journals go, relative to the package
/// directory the process moves into (a Unix socket path must stay
/// under 108 bytes, which an absolute checkout path may not).
const OUT_DIR: &str = "out";

/// How much one run measures.
pub struct Plan {
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

impl Plan {
    /// Length of the request loop: the traced pass keeps half of its
    /// time for the layer probes.
    pub fn loop_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Repetitions of a probe or warm-up: `full`, or 1 under `--smoke`.
    pub fn reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Fewest timed samples a median is taken over.
    pub fn min_samples(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }
}

/// What one run found.
pub struct Report {
    attempted: u64,
    failed: u64,
    /// Every output check passed (beyond the per-request ones counted
    /// in `failed`).
    correct: bool,
    /// The exact results two runs on one seed must agree on, as JSON.
    checks: String,
    metrics: Metrics,
}

impl Report {
    pub fn new(attempted: u64, failed: u64, checks: String, metrics: Metrics) -> Report {
        Report {
            attempted,
            failed,
            correct: failed == 0,
            checks,
            metrics,
        }
    }

    /// A run too broken to measure.
    pub fn broken(attempted: u64, failed: u64, checks: String) -> Report {
        Report {
            correct: false,
            ..Report::new(attempted.max(1), failed, checks, Metrics::default())
        }
    }

    /// Marks the run incorrect unless `ok`.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
        }
    }
}

/// Writes a run's spans to `out/trace-<workload>.jsonl`.
pub fn write_spans(workload: &str, threads: &[&[span::Span]]) {
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}.jsonl"));
    if let Err(e) = span::write_jsonl(&path, threads) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

struct Args {
    workload: Option<String>,
    describe: bool,
    plan: Plan,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        describe: false,
        plan: Plan {
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            traced: false,
            smoke: false,
        },
    };
    let plan = &mut args.plan;
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                plan.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                plan.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => plan.smoke = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(plan.seconds >= 0.0 && plan.seconds <= 120.0) {
        return Err("--seconds must be within 0..=120".into());
    }
    if plan.seed > u64::MAX - 8 {
        return Err("--seed is too large".into());
    }
    if plan.smoke {
        // The loops then stop at their minimum sample counts.
        plan.seconds = 0.0;
    }
    Ok(args)
}

fn run_one(workload: &str, plan: &Plan) -> ExitCode {
    let report = match specs::direct_text(workload, plan.seed, plan.smoke) {
        Some(text) => direct::run(workload, &text, plan),
        None if workload == "serve-grid" => serve::run(plan),
        None => {
            eprintln!("unknown workload `{workload}`");
            return ExitCode::from(2);
        }
    };
    for def in metrics::defs(plan.traced) {
        if let Some(value) = report.metrics.get(def.name) {
            println!("{workload} {} = {value} {}", def.name, def.unit);
        }
    }
    println!(
        "{workload} ops_attempted = {}, ops_failed = {}",
        report.attempted, report.failed
    );
    println!("checks {workload} seed={} {}", plan.seed, report.checks);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        report.metrics.render(plan.traced)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, both passes, each in a child process of its own.
fn run_all(plan: &Plan) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &plan.seed.to_string()])
                .args(["--seconds", &plan.seconds.to_string()]);
            if plan.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child, so none outlives this loop.
            let ok = child.status().is_ok_and(|status| status.success());
            if !ok {
                eprintln!("{} --trace {trace} failed", workload.name);
            }
            all_ok &= ok;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", metrics::describe());
        return ExitCode::SUCCESS;
    }
    let prepared = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .and_then(|()| std::fs::create_dir_all(OUT_DIR));
    if let Err(e) = prepared {
        eprintln!(
            "cannot prepare {}/{OUT_DIR}: {e}",
            env!("CARGO_MANIFEST_DIR")
        );
        return ExitCode::FAILURE;
    }
    match &args.workload {
        None => run_all(&args.plan),
        Some(workload) => run_one(workload, &args.plan),
    }
}

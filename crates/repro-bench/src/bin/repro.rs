//! `repro` — regenerates every table and figure of the paper, and
//! runs declarative scenarios.
//!
//! ```text
//! repro <command> [--scale small|medium|paper] [--seed N]
//!
//! commands:
//!   table1             Table I  — benchmark inventory
//!   fig1               Figure 1 — dataflow vs fork-join
//!   fig3               Figure 3 — App_FIT replication percentages
//!   fig4               Figure 4 — replication overheads
//!   fig5               Figure 5 — shared-memory scalability
//!   fig6               Figure 6 — distributed scalability
//!   ablate-oracle      A1 — App_FIT vs offline knapsack oracles
//!   ablate-sweep       A2 — replication vs error-rate multiplier
//!   ablate-epoch       A4 — sharded-engine epoch sensitivity
//!   ablate-recovery    A5 — replication vs checkpoint/restart under crashes
//!   all                everything above
//!
//! scenario subcommands (NAME = preset name or spec-file path):
//!   scenario list                 preset catalog
//!   scenario show NAME            print the spec text
//!   scenario run NAME             run and summarize
//!   scenario record NAME --out F  run, write the binary trace to F
//!   scenario replay F             re-run F's spec, assert bitwise identity
//!   scenario diff A B             compare two traces
//!
//! resident scenario service:
//!   serve <--socket PATH | --stdio> [--workers N] [--catalog-capacity N]
//!                                 run the server (shared graph
//!                                 catalog + worker pool) until EOF
//!                                 or a shutdown request
//!   serve-submit SOCKET NAME [--trace] [--timing] [--recovery] [--out-dir DIR]
//!                                 submit a preset or spec file (its
//!                                 whole [sweep] grid, if any) to a
//!                                 running server
//!   serve-shutdown SOCKET         stop a running server
//!
//! model checking:
//!   check-shards [--budget-secs N] [--preemption-bound N]
//!                [--scenario NAME] [--mode epoch|lookahead]
//!                                 exhaustively explore the shard
//!                                 protocol's interleavings (the full
//!                                 catalog, or one scenario/mode)
//! ```
//!
//! (The cluster-scale grid lives in the separate `sweep` binary.)

use std::process::ExitCode;

use repro_bench::context::ExperimentScale;
use repro_bench::{ablations, fig1, fig3, fig4, fig5, fig6, scenario_cli, serve_cli, table1};

struct Options {
    scale: ExperimentScale,
    seed: u64,
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut command = None;
    let mut options = Options {
        scale: ExperimentScale::Paper,
        seed: 2016,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                options.scale = ExperimentScale::parse(v)?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            other if command.is_none() => command = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok((command.ok_or("missing command")?, options))
}

fn run_command(cmd: &str, opt: &Options) -> Result<(), String> {
    match cmd {
        "table1" => print!("{}", table1::render(&table1::run(opt.scale))),
        "fig1" => print!("{}", fig1::render(&fig1::run())),
        "fig3" => print!("{}", fig3::render(&fig3::run(opt.scale, &[10.0, 5.0]))),
        "fig4" => print!("{}", fig4::render(&fig4::run(opt.scale))),
        "fig5" => print!("{}", fig5::render(&fig5::run(opt.scale, opt.seed))),
        "fig6" => print!("{}", fig6::render(&fig6::run(opt.scale, opt.seed))),
        "ablate-oracle" => print!(
            "{}",
            ablations::render_oracle(&ablations::run_oracle(opt.scale, 10.0, opt.seed))
        ),
        "ablate-sweep" => print!(
            "{}",
            ablations::render_sweep(&ablations::run_sweep(
                opt.scale,
                &[1.5, 2.0, 5.0, 10.0, 20.0, 50.0]
            ))
        ),
        "ablate-epoch" => print!(
            "{}",
            ablations::render_epoch_sensitivity(&ablations::run_epoch_sensitivity(
                opt.scale,
                8,
                &[0.25, 1.0, 4.0, 16.0],
            ))
        ),
        "ablate-recovery" => print!(
            "{}",
            ablations::render_recovery(&ablations::run_recovery(&[0.5, 1.0, 2.0, 5.0]))
        ),
        "all" => {
            for c in [
                "table1",
                "fig1",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "ablate-oracle",
                "ablate-sweep",
                "ablate-epoch",
                "ablate-recovery",
            ] {
                run_command(c, opt)?;
                println!();
            }
        }
        other => return Err(format!("unknown command `{other}` (try `all`)")),
    }
    Ok(())
}

/// `repro check-shards`: ad-hoc front end for the `shard-check`
/// explorer — the whole catalog by default, or one scenario/mode for
/// digging into larger configs interactively.
fn check_shards(args: &[String]) -> Result<(), String> {
    let mut budget_secs: u64 = 120;
    let mut preemption_bound: Option<u32> = None;
    let mut scenario: Option<String> = None;
    let mut mode: Option<shard_check::Mode> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget-secs" => {
                let v = it.next().ok_or("--budget-secs needs a value")?;
                budget_secs = v.parse().map_err(|e| format!("bad budget: {e}"))?;
            }
            "--preemption-bound" => {
                let v = it.next().ok_or("--preemption-bound needs a value")?;
                preemption_bound = Some(v.parse().map_err(|e| format!("bad bound: {e}"))?);
            }
            "--scenario" => {
                scenario = Some(it.next().ok_or("--scenario needs a name")?.clone());
            }
            "--mode" => {
                let v = it.next().ok_or("--mode needs epoch|lookahead")?;
                mode = Some(shard_check::Mode::parse(v)?);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let budget = std::time::Duration::from_secs(budget_secs);
    match scenario {
        None => {
            let report = shard_check::run_exhaustive_small(budget, preemption_bound);
            print!("{}", report.render());
            if report.passed() {
                Ok(())
            } else {
                Err("shard-check: exploration failed".into())
            }
        }
        Some(name) => {
            let sc = shard_check::scenario::find(&name).ok_or_else(|| {
                let known: Vec<_> = shard_check::scenario::catalog()
                    .iter()
                    .map(|s| s.name.clone())
                    .collect();
                format!("unknown scenario `{name}` (catalog: {})", known.join(", "))
            })?;
            let cfg = shard_check::ExploreConfig {
                preemption_bound,
                budget: Some(budget),
                ..shard_check::ExploreConfig::default()
            };
            let modes: Vec<shard_check::Mode> = match mode {
                Some(m) => vec![m],
                None => shard_check::Mode::ALL.to_vec(),
            };
            let mut ok = true;
            for m in modes {
                let stats = shard_check::explore(&sc, m, &cfg);
                println!("{}", stats.summary_line());
                if let Some(cex) = &stats.counterexample {
                    print!("{}", cex.to_text());
                }
                ok &= stats.passed_exhaustively();
            }
            if ok {
                Ok(())
            } else {
                Err("shard-check: exploration failed".into())
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check-shards") {
        return match check_shards(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("scenario") {
        return match scenario_cli::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let serve_dispatch = match args.first().map(String::as_str) {
        Some("serve") => Some(serve_cli::serve(&args[1..])),
        Some("serve-submit") => Some(serve_cli::submit(&args[1..])),
        Some("serve-shutdown") => Some(serve_cli::shutdown(&args[1..])),
        _ => None,
    };
    if let Some(result) = serve_dispatch {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (cmd, opt) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "error: {e}\n\nusage: repro <command> [--scale small|medium|paper] [--seed N]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run_command(&cmd, &opt) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

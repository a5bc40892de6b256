//! The direct workloads: one request is spec **text** in →
//! `Trace::to_bytes` bytes out, through `ScenarioSpec::parse` →
//! `build_graph` → `record_on_with{timing}` → `to_bytes`, on one
//! thread, closed loop.

use std::sync::Arc;
use std::time::Instant;

use cluster_sim::SimGraph;
use scenario::{
    build_graph, record_on_with, Outcome, ScenarioError, ScenarioSpec, Trace, TraceOptions,
};
use scenario_serve::journal::fnv1a64;

use crate::metrics::Metrics;
use crate::probe::{self, rss_mb, Cell};
use crate::span::{per_request_s, unattributed_frac, Tracer};
use crate::stats::median;
use crate::{Plan, Report};

const TRACE_OPTIONS: TraceOptions = TraceOptions {
    timing: true,
    recovery: false,
};

/// Everything one request produced, and when.
struct Reply {
    spec: ScenarioSpec,
    graph: SimGraph,
    outcome: Outcome,
    trace: Trace,
    bytes: Vec<u8>,
    /// Text in → graph ready: parse + validate + `build_graph`, what
    /// the service's graph catalog amortises.
    setup_s: f64,
    /// Text in → bytes out.
    request_s: f64,
}

fn request(text: &str, tr: &mut Tracer) -> Result<Reply, ScenarioError> {
    tr.next_request();
    tr.enter("request");
    let start = Instant::now();
    let spec = tr.time("spec.parse", || ScenarioSpec::parse(text))?;
    let graph = tr.time("graph.build", || build_graph(&spec))?;
    let setup_s = start.elapsed().as_secs_f64();
    let (outcome, trace) = tr.time("engine.record", || {
        record_on_with(&spec, &graph, TRACE_OPTIONS)
    })?;
    let bytes = tr.time("trace.encode", || trace.to_bytes());
    let request_s = start.elapsed().as_secs_f64();
    tr.exit();
    Ok(Reply {
        spec,
        graph,
        outcome,
        trace,
        bytes,
        setup_s,
        request_s,
    })
}

/// The exact results two run sets must agree on bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Checks {
    makespan_bits: u64,
    fit_bits: u64,
    decided: u64,
    replicated: u64,
    trace_fnv1a64: u64,
    windows: u64,
}

impl Checks {
    fn of(reply: &Reply) -> Result<Checks, String> {
        let appfit = reply.outcome.appfit.ok_or("not an App_FIT run")?;
        // The sequential engine accounts every decision before the
        // next, so the target must hold exactly. The sharded engine's
        // per-window forks decide against a frozen total and do
        // overshoot (sweep-1m ends 2.4 % over); there the achieved FIT
        // is pinned bit for bit instead of judged.
        let windowed = reply.outcome.delivery.is_some();
        if !windowed && appfit.current_fit > appfit.threshold {
            return Err(format!(
                "App_FIT missed its target: {} > {}",
                appfit.current_fit, appfit.threshold
            ));
        }
        Ok(Checks {
            makespan_bits: reply.outcome.report.makespan.to_bits(),
            fit_bits: appfit.current_fit.to_bits(),
            decided: appfit.decided,
            replicated: appfit.replicated,
            trace_fnv1a64: fnv1a64(&reply.bytes),
            windows: reply.outcome.delivery.map_or(0, |d| d.windows),
        })
    }

    fn json(&self) -> String {
        format!(
            "{{\"makespan_bits\": \"{:016x}\", \"fit_bits\": \"{:016x}\", \"decided\": {}, \
             \"replicated\": {}, \"trace_fnv1a64\": \"{:016x}\", \"shard.windows\": {}}}",
            self.makespan_bits,
            self.fit_bits,
            self.decided,
            self.replicated,
            self.trace_fnv1a64,
            self.windows
        )
    }
}

/// The closed loop with its output checks: every reply must match the
/// first one's [`Checks`], and the first must survive a decode.
struct Loop<'a> {
    text: &'a str,
    tracer: Tracer,
    first: Option<Checks>,
    attempted: u64,
    failed: u64,
    last: Option<Reply>,
}

impl Loop<'_> {
    /// One request; `None` (and a counted failure) if it errored or
    /// its output was wrong.
    fn step(&mut self) -> Option<(f64, f64)> {
        self.attempted += 1;
        // The previous reply's memory must be gone before the next
        // request allocates its own, or the peak doubles.
        self.last = None;
        let verdict = request(self.text, &mut self.tracer)
            .map_err(|e| e.to_string())
            .and_then(|reply| self.check(reply));
        if let Err(message) = &verdict {
            eprintln!("request {} failed: {message}", self.attempted);
            self.failed += 1;
        }
        verdict.ok()
    }

    fn check(&mut self, reply: Reply) -> Result<(f64, f64), String> {
        let checks = Checks::of(&reply)?;
        let times = (reply.request_s, reply.setup_s);
        match &self.first {
            Some(first) if *first != checks => {
                Err(format!("output changed: {checks:?} after {first:?}"))
            }
            Some(_) => {
                self.last = Some(reply);
                Ok(times)
            }
            None => {
                // Graph and outcome go first, so that decoding does not
                // raise the process's peak above a request's own.
                let Reply { trace, bytes, .. } = reply;
                let decoded = Trace::from_bytes(&bytes).map_err(|e| e.to_string())?;
                if decoded != trace || decoded.to_bytes() != bytes {
                    return Err("trace does not round-trip through bytes".into());
                }
                self.first = Some(checks);
                Ok(times)
            }
        }
    }
}

/// Runs a direct workload: the timed pass, or the traced one.
pub fn run(workload: &str, text: &str, plan: &Plan) -> Report {
    let mut lp = Loop {
        text,
        tracer: Tracer::new(Instant::now(), false),
        first: None,
        attempted: 0,
        failed: 0,
        last: None,
    };
    let mut m = Metrics::default();
    for _ in 0..plan.reps(2) {
        lp.step();
    }

    // Timed samples; in the traced pass every second request records
    // spans, so both kinds see the same machine state.
    let mut plain: Vec<(f64, f64)> = Vec::new();
    let mut spanned: Vec<(f64, f64)> = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < plan.min_samples() || start.elapsed().as_secs_f64() < plan.loop_seconds() {
        rounds += 1;
        plain.extend(lp.step());
        if plan.traced {
            lp.tracer.set_on(true);
            spanned.extend(lp.step());
            lp.tracer.set_on(false);
        }
    }

    let checks = lp
        .first
        .as_ref()
        .map_or_else(|| "null".into(), Checks::json);
    if plain.is_empty() || lp.last.is_none() || (plan.traced && spanned.is_empty()) {
        return Report::broken(lp.attempted, lp.failed, checks);
    }
    let requests: Vec<f64> = plain.iter().map(|s| s.0).collect();
    let setups: Vec<f64> = plain.iter().map(|s| s.1).collect();
    let engines: Vec<f64> = plain.iter().map(|s| s.0 - s.1).collect();
    let reply = lp.last.take().expect("checked above");
    let tasks = reply.graph.len() as f64;
    println!(
        "{workload}: {} timed requests, {} tasks each",
        plain.len(),
        tasks
    );

    if !plan.traced {
        m.set("request_ms_p50", median(&requests) * 1e3);
        m.set("tasks_per_s", tasks / median(&engines));
        m.set("setup_s", median(&setups));
        drop(reply);
        m.set("peak_rss_mb", rss_mb("VmHWM"));
        return Report::new(lp.attempted, lp.failed, checks, m);
    }

    let spans = lp.tracer.spans();
    let p50 = |name: &str| median(&per_request_s(spans, name));
    let traced_requests: Vec<f64> = spanned.iter().map(|s| s.0).collect();
    m.set(
        "trace.overhead_frac",
        median(&traced_requests) / median(&requests) - 1.0,
    );
    m.set(
        "trace.unattributed_frac",
        median(&unattributed_frac(spans, "request")),
    );
    m.set("spec.parse_us", p50("spec.parse") * 1e6);
    m.set("graph.build_s", p50("graph.build"));
    m.set("graph.build_ns_per_task", p50("graph.build") * 1e9 / tasks);
    m.set("graph.tasks", tasks);
    m.set("graph.edges", reply.graph.edge_count() as f64);
    m.set("trace.encode_s", p50("trace.encode"));
    m.set("trace.bytes", reply.bytes.len() as f64);
    m.set(
        "trace.encode_mb_s",
        reply.bytes.len() as f64 / 1e6 / p50("trace.encode"),
    );
    let recorded_s = p50("engine.record");
    crate::write_spans(workload, &[spans]);

    let Reply {
        spec, graph, bytes, ..
    } = reply;
    probe::spec(text, &mut m);
    probe::trace_decode(&[bytes], plan, &mut m);
    let cells = [Cell {
        spec,
        graph: Arc::new(graph),
    }];
    probe::engine(&cells, recorded_s, plan, &mut m);

    // Resident growth across one more build, with nothing else alive.
    let [Cell { spec, graph }] = cells;
    drop(graph);
    let before = rss_mb("VmRSS");
    let graph = build_graph(&spec).expect("built before");
    m.set("graph.rss_mb", rss_mb("VmRSS") - before);
    drop(graph);

    Report::new(lp.attempted, lp.failed, checks, m)
}

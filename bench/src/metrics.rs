//! The metric tables — the single source `BENCHMARK.json` is printed
//! from (`--describe`) — and the collector a run fills.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::specs::WORKLOADS;

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 20;

/// A metric's name, unit and which direction is better.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics with the share of the parent's median each may
/// worsen by: three times the worst relative IQR in `NOISE.md`,
/// rounded up. Set-up time gets the largest bound: its spread is set
/// by the odd `serve-grid` process whose cold starts are all slow, and
/// what the bound is held against, the median of a run set, moved by
/// 0.4 % at most between sets.
pub const END_TO_END: &[(Def, f64)] = &[
    (lower("request_ms_p50", "ms"), 0.08),
    (higher("tasks_per_s", "tasks/s"), 0.08),
    (lower("peak_rss_mb", "MiB"), 0.07),
    (lower("setup_s", "s"), 0.12),
];

/// Per-layer metrics of the traced pass. A workload that never enters
/// a layer reports 0 for it. Exact counts carry a direction only
/// because the file format wants one.
pub const PER_LAYER: &[Def] = &[
    // scenario::spec
    lower("spec.parse_us", "us"),
    lower("spec.expand_us", "us"),
    lower("spec.graph_key_us", "us"),
    lower("spec.render_us", "us"),
    // cluster_sim::{graph,stream} + workloads::streamed via scenario::build_graph
    lower("graph.build_s", "s"),
    lower("graph.build_ns_per_task", "ns"),
    lower("graph.tasks", "count"),
    lower("graph.edges", "count"),
    lower("graph.rss_mb", "MiB"),
    // cluster_sim::shard via run_on (no sink)
    lower("shard.sim_s", "s"),
    lower("shard.ns_per_task", "ns"),
    lower("shard.windows", "count"),
    lower("shard.ns_per_window", "ns"),
    higher("shard.events_coalesced", "count"),
    lower("shard.delivery_batches", "count"),
    higher("shard.batches_recycled", "count"),
    lower("shard.auto_config_s", "s"),
    lower("shard.sim_s_shards1", "s"),
    higher("shard.threads2_speedup", "x"),
    // cluster_sim::sim
    lower("sim.sim_s", "s"),
    lower("sim.ns_per_task", "ns"),
    lower("sim.delayed_ns_per_task", "ns"),
    // appfit_core
    lower("appfit.decide_ns", "ns"),
    lower("hooks.record_overhead_s", "s"),
    lower("appfit.decided", "count"),
    lower("appfit.replicated_frac", "frac"),
    lower("appfit.fit_over_target", "frac"),
    // scenario::trace
    lower("trace.encode_s", "s"),
    higher("trace.encode_mb_s", "MB/s"),
    lower("trace.bytes", "count"),
    lower("trace.decode_s", "s"),
    // scenario_serve::proto
    higher("proto.hex_encode_mb_s", "MB/s"),
    higher("proto.hex_decode_mb_s", "MB/s"),
    lower("proto.render_us_per_cell", "us"),
    lower("proto.parse_us_per_cell", "us"),
    lower("proto.request_parse_us", "us"),
    // scenario_serve::catalog
    lower("catalog.hit_ns", "ns"),
    lower("catalog.miss_s", "s"),
    higher("catalog.hits", "count"),
    lower("catalog.builds", "count"),
    // scenario_serve::admission
    lower("admission.admit_ns", "ns"),
    higher("admission.admitted", "count"),
    lower("admission.rejected", "count"),
    lower("admission.shed", "count"),
    // scenario_serve::{pool,service}
    lower("service.run_all_ms", "ms"),
    lower("service.engine_ms", "ms"),
    lower("service.overhead_ms", "ms"),
    higher("service.scaling", "x"),
    // scenario_serve::{server,client}
    lower("server.ping_us", "us"),
    lower("server.wire_ms", "ms"),
    lower("server.bytes_per_grid", "count"),
    lower("client.request_ms_tail", "ms"),
    higher("client.tail_percentile", "%"),
    lower("client.retries", "count"),
    // scenario_serve::journal
    lower("journal.append_us_per_cell", "us"),
    higher("journal.resume_cells_per_s", "1/s"),
    lower("journal.bytes_per_grid", "count"),
    // the benchmark's own tracing
    lower("trace.overhead_frac", "frac"),
    lower("trace.unattributed_frac", "frac"),
];

/// The metrics one pass reports: every end-to-end metric for the timed
/// pass, every per-layer metric for the traced one.
pub fn defs(traced: bool) -> Vec<&'static Def> {
    if traced {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|(d, _)| d).collect()
    }
}

/// The text of `BENCHMARK.json`.
pub fn describe() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    let rows = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        writeln!(out, "  \"{key}\": [").unwrap();
        writeln!(out, "    {}", rows.join(",\n    ")).unwrap();
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    };
    rows(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
        false,
    );
    rows(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|(d, bound)| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                    d.name, d.unit, d.better
                )
            })
            .collect(),
        false,
    );
    rows(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name, d.unit, d.better
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// The values one run measured, keyed by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records a value; the name must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            defs(false)
                .iter()
                .chain(&defs(true))
                .any(|d| d.name == name),
            "`{name}` is not a declared metric"
        );
        assert!(value.is_finite(), "`{name}` is not finite");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end
    /// metric of an untraced run, every per-layer metric of a traced
    /// one (0 where the workload never enters the layer).
    pub fn render(&self, traced: bool) -> String {
        let fields: Vec<String> = defs(traced)
            .iter()
            .map(|d| {
                let value = self.get(d.name).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn benchmark_json_is_what_describe_prints() {
        assert_eq!(include_str!("../../BENCHMARK.json"), describe());
    }

    #[test]
    fn tables_meet_the_file_format_limits() {
        let defs: Vec<&Def> = END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER).collect();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            defs.len() + WORKLOADS.len(),
            "a name is used twice"
        );
        for d in &defs {
            assert!(well_formed(d.unit, 16, "_/%.-"), "{}", d.unit);
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(d, _)| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn render_fills_unentered_layers_with_zero() {
        let mut m = Metrics::default();
        m.set("graph.tasks", 2048.0);
        let text = m.render(true);
        assert!(text.contains("\"graph.tasks\": {\"value\": 2048, \"unit\": \"count\"}"));
        assert!(text.contains("\"server.ping_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert!(!text.contains("setup_s"));
        assert!(m
            .render(false)
            .contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}

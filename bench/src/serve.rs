//! The `serve-grid` workload: an in-process `serve_unix` server with
//! two workers on a real Unix socket, and two closed-loop clients that
//! each submit a 64-cell traced `[sweep]` grid, wait for `done`, check
//! the reply and submit again. One request is `submit` → `done` with
//! every cell's trace received and hex-decoded.

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scenario::{build_graph, record_on_with, ScenarioSpec, TraceOptions};
use scenario_serve::journal::fnv1a64;
use scenario_serve::proto::{from_hex, read_request, to_hex};
use scenario_serve::{
    serve_unix_with, Admission, AdmissionConfig, CatalogConfig, CellReply, GraphCatalog, Request,
    Response, RetryPolicy, RetryingClient, RunOptions, RunSummary, ServerOptions, Service,
    ServiceConfig, SubmitOptions, UnixClient,
};

use crate::metrics::Metrics;
use crate::probe::{self, median_s, rss_mb, timed, Cell};
use crate::span::{per_request_s, unattributed_frac, Span, Tracer};
use crate::specs::{grid_text, GRID_CELLS, GRID_CELL_TASKS};
use crate::stats::{median, tail};
use crate::{Plan, Report, OUT_DIR};

const CLIENTS: u64 = 2;
const WORKERS: usize = 2;
const TRACE_OPTIONS: TraceOptions = TraceOptions {
    timing: false,
    recovery: false,
};

fn submit_options(token: Option<String>) -> SubmitOptions {
    SubmitOptions {
        trace: true,
        token,
        ..SubmitOptions::default()
    }
}

/// A running in-process server.
struct Server {
    path: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Binds a fresh socket under `out/` and serves it on a thread;
    /// returns once the socket accepts connections.
    fn start(workers: usize, journal_dir: Option<PathBuf>) -> Result<Server, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = Path::new(OUT_DIR).join(format!(
            "sg-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let service = Arc::new(Service::new(ServiceConfig {
            workers,
            catalog: CatalogConfig::default(),
            admission: AdmissionConfig::default(),
        }));
        let options = ServerOptions {
            journal_dir,
            ..ServerOptions::default()
        };
        // A crashed run with this process id may have left the file.
        let _ = std::fs::remove_file(&path);
        let bound = path.clone();
        let thread = std::thread::spawn(move || serve_unix_with(service, &bound, &options));
        let server = Server { path, thread };
        // The socket file appears at `bind`, a moment before `listen`:
        // only a connection that succeeds shows the server is up.
        let deadline = Instant::now() + Duration::from_secs(10);
        while std::os::unix::net::UnixStream::connect(&server.path).is_err() {
            if server.thread.is_finished() || Instant::now() > deadline {
                return Err(format!(
                    "server on {} did not come up",
                    server.path.display()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(server)
    }

    fn client(&self) -> RetryingClient {
        RetryingClient::new(&self.path, RetryPolicy::default())
    }

    /// Asks the server to stop and waits until its thread has ended.
    fn stop(self) -> Result<(), String> {
        UnixClient::connect_unix(&self.path)
            .and_then(UnixClient::shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One client's grid with the reply a correct server must give: each
/// cell's summary and trace bytes from a direct `record_on_with` of
/// the same expanded cell.
struct Grid {
    text: String,
    cells: Vec<Cell>,
    expected: Vec<CellReply>,
}

impl Grid {
    fn new(seed: u64, client: u64) -> Result<Grid, String> {
        let text = grid_text(seed, client);
        let spec = ScenarioSpec::parse(&text).map_err(|e| e.to_string())?;
        let specs = spec.expand();
        let graph = Arc::new(build_graph(&specs[0]).map_err(|e| e.to_string())?);
        let mut expected = Vec::new();
        for cell in &specs {
            let (outcome, trace) =
                record_on_with(cell, &graph, TRACE_OPTIONS).map_err(|e| e.to_string())?;
            expected.push(CellReply {
                outcome: Ok(RunSummary::of(&cell.name, &outcome)),
                trace: Some(trace.to_bytes()),
            });
        }
        let cells = specs
            .into_iter()
            .map(|spec| Cell {
                spec,
                graph: Arc::clone(&graph),
            })
            .collect();
        Ok(Grid {
            text,
            cells,
            expected,
        })
    }

    /// The exact results two run sets must agree on: a hash over every
    /// cell's summary line and trace bytes, plus the decision totals.
    fn checks(&self) -> String {
        let mut all = Vec::new();
        let (mut decided, mut replicated) = (0, 0);
        for reply in &self.expected {
            let summary = reply.outcome.as_ref().expect("expected replies are Ok");
            all.extend_from_slice(summary.render_fields().as_bytes());
            all.extend_from_slice(reply.trace.as_deref().expect("traced"));
            if let Some(a) = summary.appfit {
                decided += a.decided;
                replicated += a.replicated;
            }
        }
        format!(
            "{{\"decided\": {decided}, \"replicated\": {replicated}, \"grid_fnv1a64\": \"{:016x}\"}}",
            fnv1a64(&all)
        )
    }
}

/// What one client thread brings home.
#[derive(Default)]
struct ClientRun {
    attempted: u64,
    failed: u64,
    retries: u64,
    /// Seconds per request with spans off and on.
    plain: Vec<f64>,
    spanned: Vec<f64>,
    /// From the first timed submit to the last reply.
    busy_s: f64,
    spans: Vec<Span>,
}

/// One closed-loop client: warm up, wait for the other, then submit
/// until the time is up.
fn client_loop(
    server: &Server,
    grid: &Grid,
    plan: &Plan,
    origin: Instant,
    barrier: &Barrier,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = server.client();
    let mut tracer = Tracer::new(origin, false);
    let mut submit = |run: &mut ClientRun, tracer: &mut Tracer| -> Option<f64> {
        run.attempted += 1;
        tracer.next_request();
        let (replies, secs) = timed(|| {
            tracer.time("client.submit", || {
                client.submit(&grid.text, &submit_options(None))
            })
        });
        match replies {
            Ok(replies) if replies == grid.expected => Some(secs),
            Ok(_) => {
                eprintln!(
                    "request {}: reply differs from the direct run",
                    run.attempted
                );
                run.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("request {}: {e}", run.attempted);
                run.failed += 1;
                None
            }
        }
    };
    for _ in 0..plan.reps(4) {
        submit(&mut run, &mut tracer);
    }
    barrier.wait();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < plan.min_samples() || start.elapsed().as_secs_f64() < plan.loop_seconds() {
        rounds += 1;
        let sample = submit(&mut run, &mut tracer);
        run.plain.extend(sample);
        if plan.traced {
            tracer.set_on(true);
            let sample = submit(&mut run, &mut tracer);
            run.spanned.extend(sample);
            tracer.set_on(false);
        }
    }
    run.busy_s = start.elapsed().as_secs_f64();
    run.retries = client.retries();
    run.spans = tracer.spans().to_vec();
    run
}

/// Seconds from nothing to the first grid fully answered: a new
/// `Service`, a new socket bound, a client connected, an empty catalog.
fn cold_start(grid: &Grid) -> Result<f64, String> {
    let start = Instant::now();
    let server = Server::start(WORKERS, None)?;
    let replies = server
        .client()
        .submit(&grid.text, &submit_options(None))
        .map_err(|e| e.to_string());
    let secs = start.elapsed().as_secs_f64();
    server.stop()?;
    if replies? != grid.expected {
        return Err("cold start: reply differs from the direct run".into());
    }
    Ok(secs)
}

pub fn run(plan: &Plan) -> Report {
    match measure(plan) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("serve-grid: {message}");
            Report::broken(1, 1, "null".into())
        }
    }
}

fn measure(plan: &Plan) -> Result<Report, String> {
    let grids: Vec<Grid> = (0..CLIENTS)
        .map(|c| Grid::new(plan.seed, c))
        .collect::<Result<_, _>>()?;
    let checks = format!(
        "[{}]",
        grids
            .iter()
            .map(Grid::checks)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    if !plan.traced {
        let mut colds = Vec::new();
        for _ in 0..plan.reps(9).max(2) {
            attempted += 1;
            match cold_start(&grids[0]) {
                Ok(secs) => colds.push(secs),
                Err(message) => {
                    eprintln!("{message}");
                    failed += 1;
                }
            }
        }
        if colds.is_empty() {
            return Ok(Report::broken(attempted, failed, checks));
        }
        m.set("setup_s", median(&colds));
        println!("serve-grid: {} cold starts", colds.len());
    }

    let server = Server::start(WORKERS, None)?;
    let origin = Instant::now();
    let barrier = Barrier::new(grids.len());
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = grids
            .iter()
            .map(|grid| scope.spawn(|| client_loop(&server, grid, plan, origin, &barrier)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stats = server.client().stats().map_err(|e| e.to_string())?;
    server.stop()?;

    attempted += runs.iter().map(|r| r.attempted).sum::<u64>();
    let retries: u64 = runs.iter().map(|r| r.retries).sum();
    // A retried request was refused or torn once: that is a failure.
    failed += runs.iter().map(|r| r.failed).sum::<u64>() + retries;
    let plain: Vec<f64> = runs.iter().flat_map(|r| r.plain.iter().copied()).collect();
    if plain.is_empty() || runs.iter().any(|r| plan.traced && r.spanned.is_empty()) {
        return Ok(Report::broken(attempted, failed, checks));
    }
    println!(
        "serve-grid: {} timed requests from {CLIENTS} closed-loop clients, {GRID_CELLS} cells of \
         {GRID_CELL_TASKS} tasks each",
        plain.len()
    );

    if !plan.traced {
        m.set("request_ms_p50", median(&plain) * 1e3);
        // Each client's own rate, summed: a client that stops first
        // does not count the other's last request as idle time.
        let grid_tasks = (GRID_CELLS * GRID_CELL_TASKS) as f64;
        m.set(
            "tasks_per_s",
            runs.iter()
                .map(|r| r.plain.len() as f64 * grid_tasks / r.busy_s)
                .sum(),
        );
        m.set("peak_rss_mb", rss_mb("VmHWM"));
    } else {
        let spanned: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.spanned.iter().copied())
            .collect();
        m.set(
            "trace.overhead_frac",
            median(&spanned) / median(&plain) - 1.0,
        );
        if let Some((percentile, secs)) = tail(&plain) {
            m.set("client.tail_percentile", percentile);
            m.set("client.request_ms_tail", secs * 1e3);
        }
        m.set("catalog.hits", stats.catalog.hits as f64);
        m.set("catalog.builds", stats.catalog.builds as f64);
        m.set("admission.admitted", stats.admission.admitted as f64);
        m.set("admission.rejected", stats.admission.rejected as f64);
        m.set("admission.shed", stats.admission.shed as f64);
        let (replica_spans, probe_retries) = layers(&grids[0], median(&plain), plan, &mut m)?;
        m.set("client.retries", (retries + probe_retries) as f64);
        let mut threads: Vec<&[Span]> = runs.iter().map(|r| r.spans.as_slice()).collect();
        threads.push(&replica_spans);
        crate::write_spans("serve-grid", &threads);
    }

    let mut report = Report::new(attempted, failed, checks, m);
    report.require(
        stats.catalog.builds == 1,
        "catalog.builds == 1 on the server",
    );
    report.require(
        stats.admission.rejected == 0 && stats.admission.shed == 0,
        "no submit refused or shed",
    );
    Ok(report)
}

/// The request's pipeline replayed on this thread, a span around each
/// call into a layer: what the server does between reading a `submit`
/// and writing `done`, then what the client does with the lines.
/// Returns the bytes the server would have put on the wire and the
/// cells' encoded traces.
fn replica(grid: &Grid, catalog: &GraphCatalog, tr: &mut Tracer) -> (usize, Vec<Vec<u8>>) {
    let wire = Request::Submit {
        id: "r1".into(),
        options: submit_options(None),
        spec_text: grid.text.clone(),
    }
    .render();
    tr.next_request();
    tr.enter("request");
    let request = tr.time("proto.request_parse", || {
        read_request(&mut Cursor::new(wire.as_bytes()))
    });
    let Ok(Some(Ok(Request::Submit { spec_text, .. }))) = request else {
        panic!("own submit frame does not parse");
    };
    let spec = tr
        .time("spec.parse", || ScenarioSpec::parse(&spec_text))
        .expect("benchmark text parses");
    let cells = tr.time("spec.expand", || spec.expand());
    let total = cells.len();
    let mut wire_bytes = 0;
    let mut encoded = Vec::with_capacity(total);
    for (index, cell) in cells.iter().enumerate() {
        let graph = tr
            .time("catalog.get", || catalog.get_or_build(cell))
            .expect("benchmark graph builds");
        let (outcome, trace) = tr
            .time("engine.record", || {
                record_on_with(cell, &graph, TRACE_OPTIONS)
            })
            .expect("benchmark cell runs");
        let bytes = tr.time("trace.encode", || trace.to_bytes());
        let responses = [
            Response::Result {
                id: "r1".into(),
                index,
                total,
                summary: RunSummary::of(&cell.name, &outcome),
            },
            Response::Trace {
                id: "r1".into(),
                index,
                bytes: bytes.clone(),
            },
        ];
        let lines = tr.time("proto.render", || {
            responses.each_ref().map(Response::render)
        });
        wire_bytes += lines[0].len() + lines[1].len();
        tr.time("proto.parse", || {
            for line in &lines {
                std::hint::black_box(Response::parse(line.trim_end()).expect("own line parses"));
            }
        });
        encoded.push(bytes);
    }
    tr.exit();
    let done = Response::Done {
        id: "r1".into(),
        cells: total,
    };
    (wire_bytes + done.render().len(), encoded)
}

/// Per-layer numbers of the traced pass, each timed from outside
/// around the layer's public functions. Returns the replica's spans
/// and the retries the probes' clients needed.
fn layers(
    grid: &Grid,
    request_s: f64,
    plan: &Plan,
    m: &mut Metrics,
) -> Result<(Vec<Span>, u64), String> {
    let cells = GRID_CELLS as f64;

    // spec, engine, trace and proto through the replayed pipeline.
    let catalog = GraphCatalog::new(CatalogConfig::default());
    let mut tr = Tracer::new(Instant::now(), false);
    replica(grid, &catalog, &mut tr);
    tr.set_on(true);
    let mut replayed = (0, Vec::new());
    for _ in 0..plan.reps(9) {
        replayed = replica(grid, &catalog, &mut tr);
    }
    let (wire_bytes, encoded) = replayed;
    let spans = tr.spans().to_vec();
    let p50 = |name: &str| median(&per_request_s(&spans, name));
    m.set(
        "trace.unattributed_frac",
        median(&unattributed_frac(&spans, "request")),
    );
    m.set("proto.request_parse_us", p50("proto.request_parse") * 1e6);
    m.set("spec.parse_us", p50("spec.parse") * 1e6);
    m.set(
        "proto.render_us_per_cell",
        p50("proto.render") * 1e6 / cells,
    );
    m.set("proto.parse_us_per_cell", p50("proto.parse") * 1e6 / cells);
    let trace_bytes: usize = encoded.iter().map(Vec::len).sum();
    m.set("trace.encode_s", p50("trace.encode"));
    m.set("trace.bytes", trace_bytes as f64);
    m.set(
        "trace.encode_mb_s",
        trace_bytes as f64 / 1e6 / p50("trace.encode"),
    );
    m.set("server.bytes_per_grid", wire_bytes as f64);
    let recorded_s = p50("engine.record");
    m.set("service.engine_ms", recorded_s * 1e3);
    println!(
        "serve-grid: engine (record_on_with over the grid's cells) is {:.1} % of the socket \
         request's median",
        100.0 * recorded_s / request_s
    );

    let all: Vec<u8> = encoded.concat();
    let mut hex = String::new();
    let encode_s = median_s(plan.reps(5), || hex = to_hex(&all));
    let decode_s = median_s(plan.reps(5), || {
        std::hint::black_box(from_hex(&hex).expect("own hex decodes"));
    });
    m.set("proto.hex_encode_mb_s", all.len() as f64 / 1e6 / encode_s);
    m.set("proto.hex_decode_mb_s", all.len() as f64 / 1e6 / decode_s);

    // catalog: a hit on the warm catalog, a miss on a fresh one.
    let first = &grid.cells[0];
    let lookups = plan.reps(10_000);
    let hits_s = timed(|| {
        for _ in 0..lookups {
            std::hint::black_box(catalog.get_or_build(&first.spec).expect("resident"));
        }
    })
    .1;
    m.set("catalog.hit_ns", hits_s * 1e9 / lookups as f64);
    m.set(
        "catalog.miss_s",
        median_s(plan.reps(9), || {
            let fresh = GraphCatalog::new(CatalogConfig::default());
            std::hint::black_box(fresh.get_or_build(&first.spec).expect("builds"));
        }),
    );
    let before = rss_mb("VmRSS");
    let mut built = None;
    let build_s = median_s(plan.reps(9), || {
        built = Some(build_graph(&first.spec).expect("builds"));
    });
    m.set("graph.rss_mb", (rss_mb("VmRSS") - before).max(0.0));
    let graph = built.expect("built at least once");
    m.set("graph.build_s", build_s);
    m.set(
        "graph.build_ns_per_task",
        build_s * 1e9 / graph.len() as f64,
    );
    m.set("graph.tasks", graph.len() as f64);
    m.set("graph.edges", graph.edge_count() as f64);
    drop(graph);

    // admission: one grid admitted and released.
    let gate = Admission::new(AdmissionConfig::default());
    let admits_s = timed(|| {
        for _ in 0..lookups {
            drop(std::hint::black_box(gate.try_admit(GRID_CELLS, WORKERS)));
        }
    })
    .1;
    m.set("admission.admit_ns", admits_s * 1e9 / lookups as f64);

    probe::spec(&grid.text, m);
    probe::trace_decode(&encoded, plan, m);
    probe::engine(&grid.cells, recorded_s, plan, m);

    // pool + service: the grid through `Service::run_all`, no socket.
    let spec = ScenarioSpec::parse(&grid.text).map_err(|e| e.to_string())?;
    let options = RunOptions {
        trace: Some(TRACE_OPTIONS),
        deadline: None,
    };
    let run_all_s = |workers: usize| -> Result<f64, String> {
        let service = Service::new(ServiceConfig {
            workers,
            catalog: CatalogConfig::default(),
            admission: AdmissionConfig::default(),
        });
        let mut samples = Vec::new();
        for warm in [true, false] {
            for _ in 0..if warm { 1 } else { plan.reps(9) } {
                let (results, secs) = timed(|| service.run_all(&spec, options));
                let results = results.map_err(|e| e.to_string())?;
                if results.iter().any(Result::is_err) {
                    return Err("a cell failed under Service::run_all".into());
                }
                if !warm {
                    samples.push(secs);
                }
            }
        }
        Ok(median(&samples))
    };
    let (one, two) = (run_all_s(1)?, run_all_s(WORKERS)?);
    m.set("service.run_all_ms", two * 1e3);
    m.set("service.overhead_ms", (one - recorded_s) * 1e3);
    m.set("service.scaling", one / two);

    // server + client: one client alone on an idle server.
    let server = Server::start(WORKERS, None)?;
    let mut client = server.client();
    let submit_s = |client: &mut RetryingClient, token: Option<String>| -> Result<f64, String> {
        let (replies, secs) = timed(|| client.submit(&grid.text, &submit_options(token)));
        if replies.map_err(|e| e.to_string())? != grid.expected {
            return Err("probe: reply differs from the direct run".into());
        }
        Ok(secs)
    };
    submit_s(&mut client, None)?;
    let pings: Vec<f64> = (0..plan.reps(1_000))
        .map(|_| timed(|| client.ping()).1)
        .collect();
    m.set("server.ping_us", median(&pings) * 1e6);
    let alone: Vec<f64> = (0..plan.reps(9))
        .map(|_| submit_s(&mut client, None))
        .collect::<Result<_, _>>()?;
    m.set("server.wire_ms", (median(&alone) - two) * 1e3);
    let mut retries = client.retries();
    // The server joins its connection threads: hang up first.
    drop(client);
    server.stop()?;

    // journal: the same submit with a grid token on a journalling
    // server, then the completed token submitted again.
    let dir = Path::new(OUT_DIR).join(format!("journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(WORKERS, Some(dir.clone()))?;
    let mut client = server.client();
    submit_s(&mut client, None)?;
    let (mut bare, mut tokened) = (Vec::new(), Vec::new());
    let reps = plan.reps(7);
    for i in 0..reps {
        bare.push(submit_s(&mut client, None)?);
        tokened.push(submit_s(&mut client, Some(format!("t{i}")))?);
    }
    let resumed: Vec<f64> = (0..plan.reps(5))
        .map(|_| submit_s(&mut client, Some("t0".into())))
        .collect::<Result<_, _>>()?;
    retries += client.retries();
    drop(client);
    server.stop()?;
    let journal_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    m.set(
        "journal.append_us_per_cell",
        (median(&tokened) - median(&bare)) * 1e6 / cells,
    );
    m.set("journal.resume_cells_per_s", cells / median(&resumed));
    m.set("journal.bytes_per_grid", journal_bytes as f64 / reps as f64);
    Ok((spans, retries))
}

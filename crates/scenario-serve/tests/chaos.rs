//! Seeded chaos sweep against a live socket server.
//!
//! The hardening invariant under fault injection: every submitted cell
//! either completes **bit-identical** to the direct run or yields
//! exactly one typed error — never a hang, never a corrupted result —
//! and the server itself survives every client's misbehavior.

#![cfg(unix)]

mod common;

use common::wait_for_socket;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scenario::{preset, record_with, ScenarioSpec, TraceOptions};
use scenario_serve::{
    chaos, serve_unix_with, ChaosPlan, Client, ErrorKind, ServerOptions, Service, ServiceConfig,
    SubmitOptions,
};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "scenario-serve-chaos-{}-{tag}.sock",
        std::process::id()
    ))
}

/// The grid under chaos, renamed so its cell names (and hence the
/// worker-panic registry entries) cannot collide with other tests in
/// this binary.
fn chaos_grid(name: &str) -> ScenarioSpec {
    let mut grid = preset("grid-smoke").expect("catalog preset");
    grid.name = name.to_string();
    grid
}

#[test]
fn seeded_fault_sweep_never_hangs_and_the_server_survives() {
    let path = socket_path("sweep");
    let service = Arc::new(Service::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let server = {
        let path = path.clone();
        // Delayed accepts are a server-side fault class; every
        // connection in the sweep passes through one.
        let options = ServerOptions {
            accept_delay: Some(Duration::from_millis(2)),
            ..ServerOptions::default()
        };
        std::thread::spawn(move || serve_unix_with(service, &path, &options))
    };
    wait_for_socket(&path);

    let grid = chaos_grid("chaos-sweep");
    let cells = grid.expand();
    let direct: Vec<scenario::Outcome> = cells
        .iter()
        .map(|cell| scenario::run(cell).expect("direct run"))
        .collect();

    for seed in 0..16u64 {
        let plan = ChaosPlan::from_seed(seed);
        let armed = plan.panic_cell.map(|k| cells[k % cells.len()].name.clone());
        if let Some(name) = &armed {
            chaos::arm_panic(name);
        }

        let stream = UnixStream::connect(&path).expect("server accepts");
        // A stuck protocol would otherwise hang the test; any timeout
        // surfaces as a typed Io error, which the invariant permits.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(plan.reader(stream.try_clone().expect("clone")));
        let writer = plan.writer(stream);
        match Client::new(reader, writer) {
            // The fault hit the greeting: a typed error, not a hang
            // (reaching this arm at all is the invariant — ClientError
            // is the typed surface).
            Err(_greeting_fault) => {}
            Ok(mut client) => {
                match client.submit(&grid.to_string(), SubmitOptions::default()) {
                    // Transport died mid-exchange: typed, and the
                    // whole submission is void — nothing partial to
                    // trust, nothing hung.
                    Err(_transport_fault) => {}
                    Ok(replies) => {
                        assert_eq!(replies.len(), cells.len(), "seed {seed}: full stream");
                        for (k, reply) in replies.iter().enumerate() {
                            match &reply.outcome {
                                Ok(summary) => assert_eq!(
                                    summary.makespan_bits,
                                    direct[k].report.makespan.to_bits(),
                                    "seed {seed} cell {k}: completed cells are bit-identical"
                                ),
                                Err(e) => assert!(
                                    matches!(
                                        e.kind,
                                        ErrorKind::CellFailed | ErrorKind::DeadlineExceeded
                                    ),
                                    "seed {seed} cell {k}: unexpected kind {}",
                                    e.kind
                                ),
                            }
                        }
                    }
                }
            }
        }

        // A fault may have stopped the submission before the armed
        // cell ran; disarm so it cannot leak into a later seed.
        if let Some(name) = &armed {
            let _ = chaos::take_armed_panic(name);
        }

        // The server must shrug the connection off and keep serving.
        // An aborted grid may still be draining, so poll the inflight
        // counter down instead of snapshotting it.
        let mut probe =
            Client::connect_unix(&path).unwrap_or_else(|e| panic!("seed {seed}: server died: {e}"));
        probe.ping().expect("server answers after chaos");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = probe.stats().expect("stats after chaos");
            if stats.admission.inflight == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "seed {seed}: admission permits leaked: {} inflight",
                stats.admission.inflight
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // After the whole sweep, a clean tracing run is still bit-exact.
    let trace_options = TraceOptions {
        timing: true,
        recovery: true,
    };
    let mut client = Client::connect_unix(&path).expect("connects");
    let replies = client
        .submit(
            &grid.to_string(),
            SubmitOptions {
                trace: true,
                timing: true,
                recovery: true,
                ..SubmitOptions::default()
            },
        )
        .expect("clean run after the sweep");
    for (reply, cell) in replies.iter().zip(&cells) {
        reply.outcome.as_ref().expect("cell runs");
        let (_, direct) = record_with(cell, trace_options).expect("direct");
        assert_eq!(
            reply.trace.as_ref().expect("trace"),
            &direct.to_bytes(),
            "{}: byte-identical after surviving the sweep",
            cell.name
        );
    }

    client.shutdown().expect("clean shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn injected_worker_panic_is_one_typed_error_and_spares_siblings() {
    let path = socket_path("panic");
    let service = Arc::new(Service::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve_unix_with(service, &path, &ServerOptions::default()))
    };
    wait_for_socket(&path);

    let grid = chaos_grid("chaos-panic");
    let cells = grid.expand();
    let victim = 3usize;
    chaos::arm_panic(&cells[victim].name);

    let mut client = Client::connect_unix(&path).expect("connects");
    let replies = client
        .submit(&grid.to_string(), SubmitOptions::default())
        .expect("stream completes despite the panic");
    assert_eq!(replies.len(), cells.len());
    for (k, reply) in replies.iter().enumerate() {
        if k == victim {
            let e = reply.outcome.as_ref().expect_err("victim fails");
            assert_eq!(e.kind, ErrorKind::CellFailed);
        } else {
            let summary = reply.outcome.as_ref().expect("sibling unharmed");
            let direct = scenario::run(&cells[k]).expect("direct");
            assert_eq!(summary.makespan_bits, direct.report.makespan.to_bits());
        }
    }

    // Panics are one-shot: the immediate resubmit runs clean.
    let replies = client
        .submit(&grid.to_string(), SubmitOptions::default())
        .expect("resubmit");
    assert!(
        replies.iter().all(|r| r.outcome.is_ok()),
        "one-shot panic consumed; retry is clean"
    );

    client.shutdown().expect("clean shutdown");
    server.join().expect("server thread").expect("clean exit");
}

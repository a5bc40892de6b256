//! Unix-socket integration: a real server thread, concurrent clients
//! over real sockets, byte-level conformance against direct runs, and
//! clean shutdown.

#![cfg(unix)]

mod common;

use common::wait_for_socket;
use std::path::PathBuf;
use std::sync::Arc;

use scenario::{preset, record_with, TraceOptions};
use scenario_serve::{serve_unix, Client, Service, ServiceConfig, SubmitOptions};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "scenario-serve-test-{}-{tag}.sock",
        std::process::id()
    ))
}

#[test]
fn concurrent_clients_get_bit_identical_results_over_the_socket() {
    let path = socket_path("roundtrip");
    let service = Arc::new(Service::new(ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    }));
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve_unix(service, &path))
    };
    wait_for_socket(&path);

    let options = SubmitOptions {
        trace: true,
        timing: true,
        recovery: true,
        ..SubmitOptions::default()
    };
    let trace_options = TraceOptions {
        timing: true,
        recovery: true,
    };

    // Client A submits the single smoke run, client B the 8-cell
    // grid-smoke sweep, concurrently over separate connections.
    let smoke = preset("smoke").expect("catalog preset");
    let grid = preset("grid-smoke").expect("catalog preset");
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut client = Client::connect_unix(&path).expect("connects");
            client.ping().expect("pong");
            client
                .submit(&smoke.to_string(), options.clone())
                .expect("submits")
        });
        let b = scope.spawn(|| {
            let mut client = Client::connect_unix(&path).expect("connects");
            client
                .submit(&grid.to_string(), options.clone())
                .expect("submits")
        });
        (a.join().expect("client A"), b.join().expect("client B"))
    });

    // Every served trace must be byte-identical to the direct run —
    // the trace embeds the canonical cell spec, the decision stream,
    // timing and recovery events, so this is the full bit-identity
    // contract over a real socket.
    assert_eq!(a.len(), 1);
    let (_, direct) = record_with(&smoke, trace_options).expect("direct smoke");
    assert_eq!(a[0].trace.as_ref().expect("trace"), &direct.to_bytes());

    let cells = grid.expand();
    assert_eq!(b.len(), cells.len());
    for (reply, cell) in b.iter().zip(&cells) {
        let summary = reply.outcome.as_ref().expect("cell runs");
        assert_eq!(summary.name, cell.name);
        let (outcome, direct) = record_with(cell, trace_options).expect("direct cell");
        assert_eq!(reply.trace.as_ref().expect("trace"), &direct.to_bytes());
        assert_eq!(
            summary.makespan_bits,
            outcome.report.makespan.to_bits(),
            "{}: makespan bits over the wire",
            cell.name
        );
    }

    // The smoke spec and the grid share a graph key; however the
    // interleaving fell, the catalog must have built exactly one graph
    // for all nine cells.
    let mut client = Client::connect_unix(&path).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.catalog.builds, 1,
        "one build for smoke + 8 grid cells"
    );
    assert_eq!(stats.catalog.hits + stats.catalog.misses, 9);
    assert_eq!(
        stats.admission.admitted, 9,
        "all nine cells passed admission"
    );
    assert_eq!(stats.admission.inflight, 0);

    client.shutdown().expect("clean shutdown");
    server
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn submissions_without_tracing_answer_summaries_only() {
    let path = socket_path("plain");
    let service = Arc::new(Service::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve_unix(service, &path))
    };
    wait_for_socket(&path);

    let smoke = preset("smoke").expect("catalog preset");
    let mut client = Client::connect_unix(&path).expect("connects");
    let replies = client
        .submit(&smoke.to_string(), SubmitOptions::default())
        .expect("submits");
    assert_eq!(replies.len(), 1);
    assert!(replies[0].trace.is_none(), "no trace requested");
    let summary = replies[0].outcome.as_ref().expect("cell runs");
    let direct = scenario::run(&smoke).expect("direct");
    assert_eq!(summary.makespan_bits, direct.report.makespan.to_bits());
    let appfit = summary.appfit.as_ref().expect("App_FIT policy");
    let direct_appfit = direct.appfit.expect("App_FIT policy");
    assert_eq!(appfit.fit_bits, direct_appfit.current_fit.to_bits());
    assert_eq!(appfit.decided, direct_appfit.decided);
    assert_eq!(appfit.replicated, direct_appfit.replicated);

    client.shutdown().expect("clean shutdown");
    server.join().expect("server thread").expect("clean exit");
}

//! Slow-reader backpressure: a client that submits a big traced grid
//! and then never reads must be disconnected within the server's write
//! timeout, while a sibling connection's cells complete bit-identical
//! and every admitted cell is released.

#![cfg(unix)]

mod common;

use common::wait_for_socket;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scenario::{
    preset, record_with, EngineSpec, FaultSpec, PolicySpec, RecoverySpec, ScenarioSpec,
    SweepSection, TargetSpec, TopologySpec, TraceOptions, WorkloadSpec,
};
use scenario_serve::proto::Request;
use scenario_serve::{
    serve_unix_with, Client, ServerOptions, Service, ServiceConfig, SubmitOptions,
};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "scenario-serve-backpressure-{}-{tag}.sock",
        std::process::id()
    ))
}

/// A grid whose traces are far larger than a Unix socket's buffers, so
/// an unread connection genuinely stalls the server's writes.
fn big_traced_grid() -> ScenarioSpec {
    ScenarioSpec {
        name: "backpressure-grid".into(),
        topology: TopologySpec::distributed(2),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 2,
            tasks_per_chain: 2_000,
            flops_per_task: 1.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 12,
            cross_node_every: 3,
            seed: 7,
        },
        faults: FaultSpec {
            multiplier: 10.0,
            p_due: 0.01,
            p_sdc: 0.005,
            seed: 11,
            ..FaultSpec::default()
        },
        policy: PolicySpec::AppFit {
            target: TargetSpec::Fraction(0.4),
        },
        recovery: RecoverySpec::default(),
        engine: EngineSpec::Sequential,
        sweep: Some(SweepSection {
            seed: vec![1, 2, 3, 4],
            ..SweepSection::default()
        }),
    }
}

#[test]
fn stalled_reader_is_disconnected_while_siblings_complete_bit_identically() {
    let path = socket_path("stall");
    let service = Arc::new(Service::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let server = {
        let path = path.clone();
        let options = ServerOptions {
            write_timeout: Some(Duration::from_millis(500)),
            ..ServerOptions::default()
        };
        std::thread::spawn(move || serve_unix_with(service, &path, &options))
    };
    wait_for_socket(&path);

    // The stalled reader: submit a multi-megabyte traced grid over a
    // raw socket and then read nothing — not even the greeting.
    let grid = big_traced_grid();
    grid.validate().expect("grid spec");
    let mut stalled = UnixStream::connect(&path).expect("connects");
    let submit = Request::Submit {
        id: "stall-1".into(),
        options: SubmitOptions {
            trace: true,
            timing: true,
            recovery: true,
            ..SubmitOptions::default()
        },
        spec_text: grid.to_string(),
    };
    stalled
        .write_all(submit.render().as_bytes())
        .expect("submit line written");

    // Meanwhile a well-behaved sibling connection must be served
    // bit-identically, stalled peer or not.
    let trace_options = TraceOptions {
        timing: true,
        recovery: true,
    };
    let smoke = preset("smoke").expect("catalog preset");
    let mut sibling = Client::connect_unix(&path).expect("connects");
    let replies = sibling
        .submit(
            &smoke.to_string(),
            SubmitOptions {
                trace: true,
                timing: true,
                recovery: true,
                ..SubmitOptions::default()
            },
        )
        .expect("sibling completes");
    let (_, direct) = record_with(&smoke, trace_options).expect("direct run");
    assert_eq!(
        replies[0].trace.as_ref().expect("trace"),
        &direct.to_bytes(),
        "sibling trace is byte-identical despite the stalled peer"
    );

    // The server must cut the stalled connection within its write
    // timeout once the socket buffers fill. Reading anything here
    // would relieve the very backpressure under test, so the probe is
    // a write: once the server closes its end, the probe byte answers
    // a broken pipe.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if stalled.write_all(b"\n").is_err() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never disconnected the stalled reader"
        );
    }

    // Every admitted cell must be released once the stalled connection
    // dies — the grid's unsent cells are shed or dropped, never leaked.
    let mut probe = Client::connect_unix(&path).expect("connects");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = probe.stats().expect("stats");
        if stats.admission.inflight == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "admission permits leaked: {} still inflight",
            stats.admission.inflight
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Close the remaining client ends before joining: the server's
    // per-connection threads only exit on EOF, and join waits on them.
    drop(sibling);
    drop(stalled);
    probe.shutdown().expect("clean shutdown");
    server.join().expect("server thread").expect("clean exit");
}

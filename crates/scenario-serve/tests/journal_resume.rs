//! Resumable grids end-to-end: a tokened sweep interrupted mid-grid
//! resumes on a **fresh** service (simulating a killed-and-restarted
//! server) with traces byte-equal to an uninterrupted run.

#![cfg(unix)]

mod common;

use common::wait_for_socket;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use scenario::{preset, ScenarioSpec};
use scenario_serve::{
    chaos, serve_unix_with, CellReply, Client, ClientError, ErrorKind, ServerOptions, Service,
    ServiceConfig, SubmitOptions,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scenario-serve-journal-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Starts a fresh single-use server (its own `Service`, shared journal
/// dir) and runs `f` against the socket; shuts the server down after.
fn with_server<T>(socket: &Path, journal_dir: &Path, f: impl FnOnce(&Path) -> T) -> T {
    let service = Arc::new(Service::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let options = ServerOptions {
        journal_dir: Some(journal_dir.to_path_buf()),
        ..ServerOptions::default()
    };
    let server = {
        let socket = socket.to_path_buf();
        std::thread::spawn(move || serve_unix_with(service, &socket, &options))
    };
    wait_for_socket(socket);
    let result = f(socket);
    Client::connect_unix(socket)
        .expect("connects for shutdown")
        .shutdown()
        .expect("clean shutdown");
    server.join().expect("server thread").expect("clean exit");
    result
}

fn grid(name: &str) -> ScenarioSpec {
    let mut grid = preset("grid-smoke").expect("catalog preset");
    grid.name = name.to_string();
    grid
}

fn traced() -> SubmitOptions {
    SubmitOptions {
        trace: true,
        timing: true,
        recovery: true,
        token: None,
        ..SubmitOptions::default()
    }
}

fn submit(socket: &Path, spec: &ScenarioSpec, token: &str) -> Result<Vec<CellReply>, ClientError> {
    let mut client = Client::connect_unix(socket)?;
    client.submit(
        &spec.to_string(),
        SubmitOptions {
            token: Some(token.to_string()),
            ..traced()
        },
    )
}

fn journal_cells(journal_dir: &Path, token: &str) -> usize {
    let text = std::fs::read_to_string(journal_dir.join(format!("{token}.journal")))
        .expect("journal file exists");
    text.lines().filter(|l| l.starts_with("cell ")).count()
}

#[test]
fn interrupted_grid_resumes_on_a_fresh_service_byte_identically() {
    let dir = temp_dir("resume");
    let socket = dir.join("serve.sock");
    let spec = grid("journal-resume");
    let cells = spec.expand();

    // The uninterrupted reference, with its own journal directory.
    let reference = with_server(&socket, &dir.join("journal-ref"), |socket| {
        submit(socket, &spec, "grid").expect("reference run")
    });
    assert!(reference.iter().all(|r| r.outcome.is_ok()));

    // The interrupted run: an injected worker panic fails one cell, so
    // its siblings complete (and journal) while the victim does not —
    // a mid-grid interruption with a deterministic shape.
    let victim = 4usize;
    let journal_dir = dir.join("journal");
    with_server(&socket, &journal_dir, |socket| {
        chaos::arm_panic(&cells[victim].name);
        let replies = submit(socket, &spec, "grid").expect("stream completes");
        let e = replies[victim].outcome.as_ref().expect_err("victim fails");
        assert_eq!(e.kind, ErrorKind::CellFailed);
    });
    assert_eq!(
        journal_cells(&journal_dir, "grid"),
        cells.len() - 1,
        "every cell but the victim committed to the journal"
    );

    // "Restart": a brand-new Service (empty catalog, fresh admission)
    // on the same socket path and journal directory. The resubmitted
    // token replays the journaled cells and runs only the victim.
    let resumed = with_server(&socket, &journal_dir, |socket| {
        submit(socket, &spec, "grid").expect("resumed run")
    });
    assert_eq!(resumed.len(), reference.len());
    for (k, (resumed, reference)) in resumed.iter().zip(&reference).enumerate() {
        assert_eq!(
            resumed.outcome.as_ref().expect("resumed cell"),
            reference.outcome.as_ref().expect("reference cell"),
            "cell {k}: summary after resume"
        );
        assert_eq!(
            resumed.trace.as_ref().expect("trace"),
            reference.trace.as_ref().expect("trace"),
            "cell {k}: resumed trace is byte-equal to the uninterrupted run"
        );
    }
    assert_eq!(
        journal_cells(&journal_dir, "grid"),
        cells.len(),
        "the resumed run journaled the missing cell"
    );
}

#[test]
fn same_token_different_spec_is_refused_with_token_mismatch() {
    let dir = temp_dir("mismatch");
    let socket = dir.join("serve.sock");
    let journal_dir = dir.join("journal");
    let first = grid("journal-first");
    let second = grid("journal-second");

    with_server(&socket, &journal_dir, |socket| {
        submit(socket, &first, "shared").expect("first spec claims the token");
        match submit(socket, &second, "shared") {
            Err(ClientError::Rejected { kind, .. }) => {
                assert_eq!(kind, ErrorKind::TokenMismatch);
            }
            other => panic!("expected token-mismatch, got {:?}", other.map(|r| r.len())),
        }
        // The original spec still replays fine.
        submit(socket, &first, "shared").expect("original spec replays");
    });
}

#[test]
fn torn_journal_tail_is_discarded_and_the_grid_still_resumes() {
    let dir = temp_dir("torn");
    let socket = dir.join("serve.sock");
    let journal_dir = dir.join("journal");
    let spec = grid("journal-torn");
    let cells = spec.expand();

    let reference = with_server(&socket, &journal_dir, |socket| {
        submit(socket, &spec, "torn").expect("full run")
    });
    assert_eq!(journal_cells(&journal_dir, "torn"), cells.len());

    // Tear the journal mid-record: drop the last committed cell line's
    // tail and append garbage, as a crash mid-write would.
    let path = journal_dir.join("torn.journal");
    let text = std::fs::read_to_string(&path).expect("journal");
    let keep = text
        .lines()
        .filter(|l| l.starts_with("cell "))
        .nth(cells.len() - 2)
        .map(|last_kept| text.find(last_kept).expect("substring") + last_kept.len() + 1)
        .expect("enough committed cells");
    let mut file = std::fs::File::create(&path).expect("rewrite");
    file.write_all(&text.as_bytes()[..keep]).expect("prefix");
    file.write_all(b"cell 7 hash=deadbeef").expect("torn tail");
    drop(file);

    let resumed = with_server(&socket, &journal_dir, |socket| {
        submit(socket, &spec, "torn").expect("resumes past the torn tail")
    });
    for (k, (resumed, reference)) in resumed.iter().zip(&reference).enumerate() {
        assert_eq!(
            resumed.trace.as_ref().expect("trace"),
            reference.trace.as_ref().expect("trace"),
            "cell {k}: byte-equal after discarding the torn tail"
        );
    }
}

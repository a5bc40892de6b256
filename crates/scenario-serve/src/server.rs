//! Serving the protocol: one request at a time per connection,
//! concurrency across connections (each connection gets a thread) and
//! within grids (cells fan out over the service's worker pool).
//!
//! The failure-mode surface lives here too: submits bounce off the
//! admission gate with typed `busy` errors, per-submit deadlines are
//! anchored the moment the request is read, write timeouts disconnect
//! stalled readers instead of wedging pool workers, tokened submits
//! replay from (and append to) the completion journal, and binding a
//! leftover socket probes for a live server before unlinking it.

use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scenario::{ScenarioSpec, TraceOptions};

use crate::journal::{fnv1a64, GridHeader, GridJournal, Journal};
use crate::proto::{self, ErrorKind, HexDigits, Request, Response, RunSummary, SubmitOptions};
use crate::service::{RunOptions, Service, SubmitError};

/// Why a connection stopped being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// The client went away (EOF).
    Eof,
    /// The client asked the whole server to stop.
    Shutdown,
}

/// Server-side knobs beyond service sizing.
#[derive(Debug, Clone, Default)]
pub struct ServerOptions {
    /// Directory for per-token grid completion journals; `None`
    /// disables resumable grids.
    pub journal_dir: Option<PathBuf>,
    /// Fsync every committed journal record (`--journal-fsync`).
    /// Off: commits survive a killed server (page cache) but not a
    /// host crash. On: commits are on stable storage before the cell's
    /// result is acknowledged — one disk flush per cell.
    pub journal_fsync: bool,
    /// Kernel-level write timeout per connection: a client that stops
    /// reading for this long is disconnected (its admitted cells are
    /// shed) instead of blocking a serving thread forever.
    pub write_timeout: Option<Duration>,
    /// Artificial delay before serving each accepted connection
    /// (chaos testing only).
    pub accept_delay: Option<Duration>,
}

/// Serves one connection until EOF or `shutdown`, with no journal.
/// Answers every request before reading the next; responses for a
/// submit stream in canonical cell order.
pub fn serve_connection(
    service: &Service,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> io::Result<ServeExit> {
    serve_connection_with(service, None, reader, writer)
}

/// [`serve_connection`] with an optional completion journal for
/// tokened submits.
pub fn serve_connection_with(
    service: &Service,
    journal: Option<&Journal>,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> io::Result<ServeExit> {
    let mut out = Outbox {
        writer,
        buf: Vec::new(),
    };
    out.buf.extend_from_slice(proto::GREETING.as_bytes());
    out.buf.push(b'\n');
    out.send()?;
    loop {
        let request = match proto::read_request(reader)? {
            None => return Ok(ServeExit::Eof),
            Some(Err(message)) => {
                out.respond(&Response::error("-", ErrorKind::Protocol, message))?;
                continue;
            }
            Some(Ok(request)) => request,
        };
        match request {
            Request::Ping { id } => out.respond(&Response::Pong { id })?,
            Request::Stats { id } => out.respond(&Response::Stats {
                id,
                stats: service.stats(),
            })?,
            Request::Shutdown { id } => {
                out.respond(&Response::Bye { id })?;
                return Ok(ServeExit::Shutdown);
            }
            Request::Submit {
                id,
                options,
                spec_text,
            } => submit(service, journal, &mut out, &id, &options, &spec_text)?,
        }
    }
}

/// One connection's way out: everything is rendered into `buf`, which
/// is kept for the life of the connection, and leaves in one
/// `write_all` + `flush` — per response, and per cell of a submit.
struct Outbox<'a, W: Write> {
    writer: &'a mut W,
    buf: Vec<u8>,
}

impl<W: Write> Outbox<'_, W> {
    /// Writes out what `buf` holds and empties it.
    fn send(&mut self) -> io::Result<()> {
        self.writer.write_all(&self.buf)?;
        self.buf.clear();
        self.writer.flush()
    }

    fn respond(&mut self, response: &Response) -> io::Result<()> {
        response.render_into(&mut self.buf);
        self.send()
    }

    /// Renders one cell's `result` line and, when it has a trace, its
    /// `trace` line, whose hex digits it returns. `fields` is the
    /// summary's field tail, fresh or journalled.
    fn render_cell(
        &mut self,
        id: &str,
        index: usize,
        total: usize,
        fields: &str,
        trace: Option<&[u8]>,
    ) -> Option<HexDigits<'_>> {
        proto::result_line(&mut self.buf, id, index, total, fields);
        trace.map(|bytes| proto::trace_line(&mut self.buf, id, index, bytes))
    }
}

fn submit(
    service: &Service,
    journal: Option<&Journal>,
    out: &mut Outbox<'_, impl Write>,
    id: &str,
    options: &SubmitOptions,
    spec_text: &str,
) -> io::Result<()> {
    // The deadline clock starts the moment the request is in hand:
    // queue wait, graph builds, and runs all count against it.
    let deadline = options
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let spec = match ScenarioSpec::parse(spec_text) {
        Err(e) => {
            return out.respond(&Response::error(id, ErrorKind::InvalidSpec, e.to_string()));
        }
        Ok(spec) => spec,
    };
    if let Err(e) = spec.validate() {
        return out.respond(&Response::error(id, ErrorKind::InvalidSpec, e));
    }
    let run_options = RunOptions {
        trace: options.trace.then_some(TraceOptions {
            timing: options.timing,
            recovery: options.recovery,
        }),
        deadline,
    };
    let cells = spec.expand();
    let total = cells.len();

    // Tokened submits replay completed cells from the journal and run
    // (then record) only the rest.
    let mut grid_journal: Option<GridJournal> = None;
    if let (Some(journal), Some(token)) = (journal, &options.token) {
        let header = GridHeader {
            spec_hash: fnv1a64(spec.to_string().as_bytes()),
            cells: total,
            recording: options.recording_signature(),
        };
        match journal.resume(token, header) {
            Err(e) => {
                return out.respond(&Response::error(
                    id,
                    ErrorKind::Internal,
                    format!("journal: {e}"),
                ));
            }
            Ok(Err(reason)) => {
                return out.respond(&Response::error(id, ErrorKind::TokenMismatch, reason));
            }
            Ok(Ok(grid)) => grid_journal = Some(grid),
        }
    }
    let pending: Vec<(usize, ScenarioSpec)> = cells
        .into_iter()
        .enumerate()
        .filter(|(index, _)| {
            grid_journal
                .as_ref()
                .is_none_or(|grid| !grid.completed().contains_key(index))
        })
        .collect();

    // Interleave journal replay with fresh results so the stream stays
    // in canonical order: before fresh cell k, every journaled cell
    // below k is emitted from its stored fields and trace.
    let mut write_error: Option<io::Error> = None;
    let mut next_emit = 0usize;
    let replay_below = |limit: usize,
                        next_emit: &mut usize,
                        grid_journal: &Option<GridJournal>,
                        out: &mut Outbox<'_, _>|
     -> io::Result<()> {
        while *next_emit < limit {
            let index = *next_emit;
            *next_emit += 1;
            let Some(entry) = grid_journal
                .as_ref()
                .and_then(|grid| grid.completed().get(&index))
            else {
                continue;
            };
            out.render_cell(id, index, total, &entry.fields, entry.trace.as_deref());
            out.send()?;
        }
        Ok(())
    };

    let outcome =
        service.run_cells_streaming(pending, total, run_options, |index, total, result| {
            if write_error.is_some() {
                return false;
            }
            let wrote = (|| -> io::Result<()> {
                replay_below(index, &mut next_emit, &grid_journal, out)?;
                next_emit = index + 1;
                match result {
                    Err(cell_error) => out.respond(&Response::Error {
                        id: id.into(),
                        kind: cell_error.kind,
                        cell: Some(index),
                        retry_after_ms: None,
                        message: cell_error.message,
                    }),
                    Ok(run) => {
                        let fields = RunSummary::of(&run.spec.name, &run.outcome).render_fields();
                        let trace_bytes = run.trace.as_ref().map(|t| t.to_bytes());
                        let hex =
                            out.render_cell(id, index, total, &fields, trace_bytes.as_deref());
                        // The journal commits before the socket
                        // acknowledges. A failing journal write
                        // degrades to non-resumable serving rather
                        // than failing the submit: the result is
                        // already in hand.
                        if let Some(grid) = &mut grid_journal {
                            if grid.record(index, &fields, hex).is_err() {
                                grid_journal = None;
                            }
                        }
                        out.send()
                    }
                }
            })();
            if let Err(e) = wrote {
                // Stop streaming and shed the rest of the submit; the
                // connection is torn down with the error below.
                write_error = Some(e);
                return false;
            }
            true
        });
    if let Some(e) = write_error {
        return Err(e);
    }
    if let Err(busy) = outcome {
        return out.respond(&Response::Error {
            id: id.into(),
            kind: ErrorKind::Busy,
            cell: None,
            retry_after_ms: Some(busy.retry_after_ms),
            message: SubmitError::Busy(busy).to_string(),
        });
    }
    // Anything journaled past the last fresh cell (or everything, on a
    // fully-completed replay).
    replay_below(total, &mut next_emit, &grid_journal, out)?;
    out.respond(&Response::Done {
        id: id.into(),
        cells: total,
    })
}

/// Serves the protocol on stdin/stdout (`repro serve --stdio`): a
/// single connection, exiting on EOF or `shutdown`.
pub fn serve_stdio(service: &Service) -> io::Result<ServeExit> {
    serve_stdio_with(service, &ServerOptions::default())
}

/// [`serve_stdio`] with server options (the journal applies; write
/// timeouts cannot be set on stdio and are ignored).
pub fn serve_stdio_with(service: &Service, options: &ServerOptions) -> io::Result<ServeExit> {
    let journal = match &options.journal_dir {
        None => None,
        Some(dir) if options.journal_fsync => Some(Journal::open_fsync(dir)?),
        Some(dir) => Some(Journal::open(dir)?),
    };
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_connection_with(
        service,
        journal.as_ref(),
        &mut stdin.lock(),
        &mut stdout.lock(),
    )
}

/// Binds `path` and serves until a client sends `shutdown`
/// (`repro serve --socket <path>`). Each connection is served on its
/// own thread; all of them share the service's catalog and pool. The
/// socket file is removed on the way out.
#[cfg(unix)]
pub fn serve_unix(service: Arc<Service>, path: &Path) -> io::Result<()> {
    serve_unix_with(service, path, &ServerOptions::default())
}

/// [`serve_unix`] with server options: journal directory, per-client
/// write timeout, chaos accept delay.
///
/// A leftover socket file is probed before binding: if a server still
/// answers on it, binding refuses with `AddrInUse` (never displace a
/// live server); if the connect fails, the file is a stale remnant of
/// a dead server and is unlinked.
#[cfg(unix)]
pub fn serve_unix_with(
    service: Arc<Service>,
    path: &Path,
    options: &ServerOptions,
) -> io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};

    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!(
                        "{} already has a live server; refusing to displace it",
                        path.display()
                    ),
                ));
            }
            Err(_) => {
                // Stale: a dead server's remnant. Unlink and bind.
                std::fs::remove_file(path)?;
            }
        }
    }
    let listener = UnixListener::bind(path)?;
    let journal = match &options.journal_dir {
        None => None,
        Some(dir) if options.journal_fsync => Some(Arc::new(Journal::open_fsync(dir)?)),
        Some(dir) => Some(Arc::new(Journal::open(dir)?)),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Some(delay) = options.accept_delay {
            std::thread::sleep(delay);
        }
        let stream = stream?;
        stream.set_write_timeout(options.write_timeout)?;
        let service = Arc::clone(&service);
        let journal = journal.clone();
        let stop = Arc::clone(&stop);
        let wake_path = path.to_path_buf();
        handles.push(std::thread::spawn(move || {
            let exit = serve_stream(&service, journal.as_deref(), &stream);
            if matches!(exit, Ok(ServeExit::Shutdown)) {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can observe the flag.
                let _ = UnixStream::connect(&wake_path);
            }
        }));
    }
    for handle in handles {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(unix)]
fn serve_stream(
    service: &Service,
    journal: Option<&Journal>,
    stream: &std::os::unix::net::UnixStream,
) -> io::Result<ServeExit> {
    let mut reader = io::BufReader::new(stream.try_clone()?);
    // No `BufWriter`: the connection's own buffer already gathers each
    // response into one write.
    let mut writer = stream;
    serve_connection_with(service, journal, &mut reader, &mut writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    /// Drives one in-memory connection end to end.
    fn converse(input: &str) -> (Vec<String>, ServeExit) {
        converse_with(input, None)
    }

    fn converse_with(input: &str, journal: Option<&Journal>) -> (Vec<String>, ServeExit) {
        let service = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let mut reader = io::Cursor::new(input.as_bytes().to_vec());
        let mut output = Vec::new();
        let exit =
            serve_connection_with(&service, journal, &mut reader, &mut output).expect("serves");
        let text = String::from_utf8(output).expect("utf8");
        (text.lines().map(str::to_string).collect(), exit)
    }

    #[test]
    fn greets_pings_and_shuts_down() {
        let (lines, exit) = converse("ping a\nshutdown b\n");
        assert_eq!(lines, [proto::GREETING, "pong a", "bye b"]);
        assert_eq!(exit, ServeExit::Shutdown);
    }

    #[test]
    fn eof_is_a_clean_exit() {
        let (lines, exit) = converse("");
        assert_eq!(lines, [proto::GREETING]);
        assert_eq!(exit, ServeExit::Eof);
    }

    #[test]
    fn malformed_requests_get_typed_errors_and_service_continues() {
        let (lines, exit) = converse("warp x\nping ok\n");
        assert!(lines[1].starts_with("error - kind=protocol"), "{lines:?}");
        assert_eq!(lines[2], "pong ok");
        assert_eq!(exit, ServeExit::Eof);
    }

    #[test]
    fn submit_streams_results_then_done() {
        let spec = scenario::preset("smoke")
            .expect("catalog preset")
            .to_string();
        let (lines, _) = converse(&format!("submit s1 trace\n{spec}end\nstats q\n"));
        assert!(
            lines[1].starts_with("result s1 0 1 name=smoke "),
            "{lines:?}"
        );
        assert!(lines[2].starts_with("trace s1 0 "), "{lines:?}");
        assert_eq!(lines[3], "done s1 cells=1");
        assert!(lines[4].contains("builds=1"), "{lines:?}");
        assert!(lines[4].contains("admitted=1"), "{lines:?}");
        assert!(lines[4].contains("inflight=0"), "{lines:?}");
    }

    #[test]
    fn bad_specs_answer_typed_errors_then_keep_serving() {
        let (lines, exit) = converse("submit s1\nnot a spec\nend\nping p\n");
        assert!(
            lines[1].starts_with("error s1 kind=invalid-spec"),
            "{lines:?}"
        );
        assert_eq!(lines[2], "pong p");
        assert_eq!(exit, ServeExit::Eof);
    }

    #[test]
    fn an_expired_deadline_answers_per_cell_typed_errors_then_done() {
        let spec = scenario::preset("grid-smoke")
            .expect("catalog preset")
            .to_string();
        let (lines, _) = converse(&format!("submit d1 deadline-ms=0\n{spec}end\n"));
        let errors: Vec<&String> = lines
            .iter()
            .filter(|l| l.starts_with("error d1 kind=deadline-exceeded"))
            .collect();
        assert_eq!(errors.len(), 8, "{lines:?}");
        for (k, line) in errors.iter().enumerate() {
            assert!(line.contains(&format!("cell={k}")), "{line}");
        }
        assert_eq!(lines.last().expect("done"), "done d1 cells=8");
    }

    #[test]
    fn tokened_resubmits_replay_from_the_journal_byte_identically() {
        let dir = std::env::temp_dir().join(format!(
            "scenario-serve-server-journal-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&dir).expect("journal dir");
        let spec = scenario::preset("grid-smoke")
            .expect("catalog preset")
            .to_string();
        let submit = format!("submit j1 trace timing recovery token=grid-a\n{spec}end\n");
        let (first, _) = converse_with(&submit, Some(&journal));
        let (second, _) = converse_with(&submit, Some(&journal));
        assert_eq!(first, second, "replay is byte-identical to the original");
        assert!(second.iter().any(|l| l.starts_with("result j1 7 8 ")));
        // A different spec under the same token is refused.
        let other = scenario::preset("smoke")
            .expect("catalog preset")
            .to_string();
        let (refused, _) = converse_with(
            &format!("submit j2 trace timing recovery token=grid-a\n{other}end\n"),
            Some(&journal),
        );
        assert!(
            refused[1].starts_with("error j2 kind=token-mismatch"),
            "{refused:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

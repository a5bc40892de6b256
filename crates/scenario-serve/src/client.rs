//! A small typed client for the `scenario-serve/v2` protocol — what
//! `repro serve-submit`, the thin sweep driver and the verify gate
//! speak.
//!
//! Failures are structured, never hangs or panics: a server that
//! closes mid-submit or mid-stream surfaces as
//! [`ClientError::ServerClosed`], a full admission queue as
//! [`ClientError::Busy`] with its retry-after hint, a refused submit
//! as [`ClientError::Rejected`] with the protocol's typed kind. The
//! [`RetryingClient`] wrapper turns the retryable subset of those into
//! reconnect-and-resubmit with exponential backoff, deterministic
//! jitter, and a bounded retry budget.

use std::io::{self, BufRead, BufReader, Write};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::chaos::ChaosRng;
use crate::proto::{self, ErrorKind, Request, Response, RunSummary, SubmitOptions};
use crate::service::{CellError, ServiceStats};

/// One answered cell of a submission: a summary, or that cell's typed
/// failure (sibling cells are unaffected either way).
#[derive(Debug, Clone, PartialEq)]
pub struct CellReply {
    /// The cell's summary, or its typed per-cell error.
    pub outcome: Result<RunSummary, CellError>,
    /// The cell's trace bytes when tracing was requested (successful
    /// cells only).
    pub trace: Option<Vec<u8>>,
}

impl CellReply {
    /// The summary, for callers that treat any cell failure as fatal.
    pub fn summary(&self) -> Result<&RunSummary, ClientError> {
        self.outcome.as_ref().map_err(|e| ClientError::Rejected {
            kind: e.kind,
            message: e.message.clone(),
        })
    }
}

/// A typed client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level I/O failed (connect, read, write).
    Io(io::Error),
    /// The server closed the connection mid-exchange; `during` names
    /// the phase (e.g. `"greeting"`, `"submit stream"`).
    ServerClosed {
        /// What the client was waiting for when the stream ended.
        during: &'static str,
    },
    /// The admission queue was full; retry after the hint.
    Busy {
        /// Server-suggested back-off, in milliseconds.
        retry_after_ms: u64,
        /// The server's message.
        message: String,
    },
    /// The server refused the request for a non-retryable reason
    /// (invalid spec, token mismatch, …).
    Rejected {
        /// The protocol's typed kind.
        kind: ErrorKind,
        /// The server's message.
        message: String,
    },
    /// The peer spoke something that is not the protocol (torn frame,
    /// version mismatch, out-of-order response).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::ServerClosed { during } => {
                write!(f, "server closed the connection during {during}")
            }
            ClientError::Busy {
                retry_after_ms,
                message,
            } => write!(f, "server busy (retry after {retry_after_ms}ms): {message}"),
            ClientError::Rejected { kind, message } => write!(f, "{kind}: {message}"),
            ClientError::Protocol(message) => write!(f, "protocol: {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Is retrying (with a fresh connection where needed) reasonable?
    /// Busy, transport, and torn-frame failures are; typed refusals
    /// (invalid spec, token mismatch) are not.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Busy { .. }
            | ClientError::Io(_)
            | ClientError::ServerClosed { .. }
            | ClientError::Protocol(_) => true,
            ClientError::Rejected { .. } => false,
        }
    }

    /// The server's back-off hint, if it sent one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Busy { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }

    /// Flattens into `io::Error` for callers on `io::Result` plumbing.
    pub fn into_io(self) -> io::Error {
        match self {
            ClientError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        }
    }
}

/// A connected protocol client (greeting already consumed).
pub struct Client<R, W> {
    reader: R,
    writer: W,
    next_id: u64,
    v2: bool,
    /// The response line being read, kept between responses.
    line: String,
}

#[cfg(unix)]
/// A [`Client`] over a Unix-domain socket.
pub type UnixClient =
    Client<BufReader<std::os::unix::net::UnixStream>, std::os::unix::net::UnixStream>;

#[cfg(unix)]
impl UnixClient {
    /// Connects to a `repro serve --socket` server.
    pub fn connect_unix(path: &Path) -> Result<Self, ClientError> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        Client::new(BufReader::new(stream.try_clone()?), stream)
    }
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// Wraps an established connection, consuming and checking the
    /// server greeting. Both the v2 and v1 greetings are accepted; on
    /// a v1 server the v2-only submit options (deadline, token) are
    /// refused client-side rather than sent and misparsed.
    pub fn new(mut reader: R, writer: W) -> Result<Self, ClientError> {
        let mut greeting = String::new();
        if reader.read_line(&mut greeting)? == 0 {
            return Err(ClientError::ServerClosed { during: "greeting" });
        }
        let v2 = match greeting.trim() {
            proto::GREETING => true,
            proto::GREETING_V1 => false,
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected greeting `{other}` (want `{}` or `{}`)",
                    proto::GREETING,
                    proto::GREETING_V1
                )));
            }
        };
        Ok(Client {
            reader,
            writer,
            next_id: 0,
            v2,
            line: String::new(),
        })
    }

    /// Did the server greet with the v2 protocol?
    pub fn server_is_v2(&self) -> bool {
        self.v2
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.writer.write_all(request.render().as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn receive(&mut self, during: &'static str) -> Result<Response, ClientError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(ClientError::ServerClosed { during });
        }
        Response::parse(self.line.trim_end()).map_err(ClientError::Protocol)
    }

    /// Classifies a whole-request error response.
    fn request_error(kind: ErrorKind, retry_after_ms: Option<u64>, message: String) -> ClientError {
        match kind {
            ErrorKind::Busy => ClientError::Busy {
                retry_after_ms: retry_after_ms.unwrap_or(0),
                message,
            },
            kind => ClientError::Rejected { kind, message },
        }
    }

    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!("r{}", self.next_id)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Ping { id: id.clone() })?;
        match self.receive("ping")? {
            Response::Pong { id: got } if got == id => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Catalog + admission counter snapshot.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Stats { id: id.clone() })?;
        match self.receive("stats")? {
            Response::Stats { id: got, stats } if got == id => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a spec and collects every cell reply, in canonical
    /// expansion order. Per-cell failures land in their
    /// [`CellReply::outcome`]; whole-request refusals (`busy`, invalid
    /// spec, token mismatch) and transport failures are the `Err`
    /// side.
    pub fn submit(
        &mut self,
        spec_text: &str,
        options: SubmitOptions,
    ) -> Result<Vec<CellReply>, ClientError> {
        if !self.v2 && (options.deadline_ms.is_some() || options.token.is_some()) {
            return Err(ClientError::Protocol(
                "server speaks v1: deadlines and grid tokens are unsupported".into(),
            ));
        }
        let id = self.fresh_id();
        self.send(&Request::Submit {
            id: id.clone(),
            options,
            spec_text: spec_text.to_string(),
        })?;
        let mut cells: Vec<CellReply> = Vec::new();
        loop {
            match self.receive("submit stream")? {
                Response::Result {
                    id: got,
                    index,
                    summary,
                    ..
                } if got == id => {
                    if index != cells.len() {
                        return Err(ClientError::Protocol(format!(
                            "result for cell {index} arrived at position {}",
                            cells.len()
                        )));
                    }
                    cells.push(CellReply {
                        outcome: Ok(summary),
                        trace: None,
                    });
                }
                Response::Trace {
                    id: got,
                    index,
                    bytes,
                } if got == id => {
                    let cell = cells.get_mut(index).ok_or_else(|| {
                        ClientError::Protocol("trace before its result line".into())
                    })?;
                    cell.trace = Some(bytes);
                }
                Response::Done { id: got, cells: n } if got == id => {
                    if cells.len() != n {
                        return Err(ClientError::Protocol(format!(
                            "server answered {} of {n} cells",
                            cells.len()
                        )));
                    }
                    return Ok(cells);
                }
                Response::Error {
                    id: got,
                    kind,
                    cell,
                    retry_after_ms,
                    message,
                } if got == id => match cell {
                    // A per-cell failure: record it in order, keep
                    // streaming the siblings.
                    Some(index) => {
                        if index != cells.len() {
                            return Err(ClientError::Protocol(format!(
                                "error for cell {index} arrived at position {}",
                                cells.len()
                            )));
                        }
                        cells.push(CellReply {
                            outcome: Err(CellError { kind, message }),
                            trace: None,
                        });
                    }
                    None => return Err(Self::request_error(kind, retry_after_ms, message)),
                },
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Asks the server to stop, consuming the client.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Shutdown { id: id.clone() })?;
        match self.receive("shutdown")? {
            Response::Bye { id: got } if got == id => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response: {}", response.render().trim()))
}

/// Backoff shape for [`RetryingClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retry attempts allowed beyond the first try.
    pub budget: u32,
    /// First back-off delay, in milliseconds; doubles per attempt.
    pub base_delay_ms: u64,
    /// Back-off ceiling, in milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 4,
            base_delay_ms: 25,
            max_delay_ms: 2_000,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based): exponential
    /// in `attempt` with half-magnitude jitter, floored by the
    /// server's `retry_after_ms` hint when one was sent.
    pub fn delay_ms(&self, attempt: u32, retry_after_ms: Option<u64>, rng: &mut ChaosRng) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms)
            .max(1);
        let jittered = exp / 2 + rng.below(exp / 2 + 1);
        jittered.max(retry_after_ms.unwrap_or(0))
    }
}

/// A reconnecting, retrying Unix-socket client.
///
/// Retryable failures — `busy` (honoring the retry-after hint),
/// transport errors, mid-stream disconnects, torn frames — trigger
/// reconnect and resubmission with exponential backoff and seeded
/// jitter, up to the policy's budget. Typed refusals (invalid spec,
/// token mismatch) surface immediately.
///
/// Resubmission is made idempotent by the grid token: submit with
/// [`SubmitOptions::token`] against a journaling server and a retry
/// replays already-completed cells from the journal instead of
/// re-running them. Without a token a retry re-runs the grid, which is
/// wasteful but safe — runs are deterministic.
#[cfg(unix)]
pub struct RetryingClient {
    path: PathBuf,
    policy: RetryPolicy,
    rng: ChaosRng,
    client: Option<UnixClient>,
    retries: u64,
}

#[cfg(unix)]
impl RetryingClient {
    /// Targets a server socket; connects lazily on first use.
    pub fn new(path: impl Into<PathBuf>, policy: RetryPolicy) -> Self {
        let rng = ChaosRng::new(policy.seed);
        RetryingClient {
            path: path.into(),
            policy,
            rng,
            client: None,
            retries: 0,
        }
    }

    /// Retry attempts performed so far (across all calls).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn client(&mut self) -> Result<&mut UnixClient, ClientError> {
        if self.client.is_none() {
            self.client = Some(UnixClient::connect_unix(&self.path)?);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    fn with_retries<T>(
        &mut self,
        mut call: impl FnMut(&mut UnixClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            let result = self.client().and_then(&mut call);
            let error = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            // Transport-tainted states need a fresh connection; a
            // clean `busy` keeps the one it has.
            if !matches!(error, ClientError::Busy { .. }) {
                self.client = None;
            }
            if attempt >= self.policy.budget || !error.is_retryable() {
                return Err(error);
            }
            let delay = self
                .policy
                .delay_ms(attempt, error.retry_after_ms(), &mut self.rng);
            std::thread::sleep(Duration::from_millis(delay));
            attempt += 1;
            self.retries += 1;
        }
    }

    /// [`Client::ping`], with retries.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.with_retries(|client| client.ping())
    }

    /// [`Client::stats`], with retries.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        self.with_retries(|client| client.stats())
    }

    /// [`Client::submit`], with reconnect + resubmit on retryable
    /// failures. Pass a token to make retries idempotent against a
    /// journaling server.
    pub fn submit(
        &mut self,
        spec_text: &str,
        options: &SubmitOptions,
    ) -> Result<Vec<CellReply>, ClientError> {
        self.with_retries(|client| client.submit(spec_text, options.clone()))
    }

    /// [`Client::shutdown`] (no retries: a dead server is already
    /// shut down).
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        match self.client.take() {
            Some(client) => client.shutdown(),
            None => UnixClient::connect_unix(&self.path)?.shutdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A client over an in-memory transcript: `served` is what the
    /// server sent (greeting first), writes go to a sink.
    fn canned(served: &str) -> Result<Client<Cursor<Vec<u8>>, Vec<u8>>, ClientError> {
        Client::new(Cursor::new(served.as_bytes().to_vec()), Vec::new())
    }

    #[test]
    fn half_closed_pipe_during_greeting_is_typed() {
        match canned("") {
            Err(ClientError::ServerClosed { during: "greeting" }) => {}
            Err(other) => panic!("expected ServerClosed, got {other:?}"),
            Ok(_) => panic!("expected ServerClosed, got a live client"),
        }
    }

    #[test]
    fn foreign_greetings_are_protocol_errors() {
        assert!(matches!(
            canned("scenario-serve/v9\n"),
            Err(ClientError::Protocol(_))
        ));
    }

    #[test]
    fn server_closing_mid_submit_surfaces_server_closed_not_a_hang() {
        // Greeting, then the server dies before answering the submit.
        let mut client = canned("scenario-serve/v2\n").expect("greeting ok");
        match client.submit("scenario = x\n", SubmitOptions::default()) {
            Err(ClientError::ServerClosed {
                during: "submit stream",
            }) => {}
            other => panic!("expected ServerClosed, got {other:?}"),
        }
    }

    #[test]
    fn server_closing_mid_stream_after_partial_results_is_typed() {
        let mut client = canned(
            "scenario-serve/v2\nresult r1 0 2 name=a tasks=1 makespan-bits=0000000000000000 \
             recovery-events=0\n",
        )
        .expect("greeting ok");
        match client.submit("scenario = x\n", SubmitOptions::default()) {
            Err(ClientError::ServerClosed {
                during: "submit stream",
            }) => {}
            other => panic!("expected ServerClosed, got {other:?}"),
        }
    }

    #[test]
    fn torn_frames_are_protocol_errors() {
        let mut client =
            canned("scenario-serve/v2\nresult r1 0 2 name=a tas").expect("greeting ok");
        match client.submit("scenario = x\n", SubmitOptions::default()) {
            Err(ClientError::Protocol(_)) => {}
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    #[test]
    fn busy_refusals_carry_their_retry_hint() {
        let mut client = canned(
            "scenario-serve/v2\nerror r1 kind=busy retry-after-ms=120 admission queue full\n",
        )
        .expect("greeting ok");
        match client.submit("scenario = x\n", SubmitOptions::default()) {
            Err(ClientError::Busy {
                retry_after_ms: 120,
                ..
            }) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
    }

    #[test]
    fn per_cell_errors_keep_sibling_cells() {
        let mut client = canned(concat!(
            "scenario-serve/v2\n",
            "result r1 0 2 name=a tasks=1 makespan-bits=0000000000000000 recovery-events=0\n",
            "error r1 kind=cell-failed cell=1 worker panicked\n",
            "done r1 cells=2\n",
        ))
        .expect("greeting ok");
        let cells = client
            .submit("scenario = x\n", SubmitOptions::default())
            .expect("grid completes");
        assert_eq!(cells.len(), 2);
        assert!(cells[0].outcome.is_ok());
        let err = cells[1].outcome.as_ref().expect_err("cell 1 failed");
        assert_eq!(err.kind, ErrorKind::CellFailed);
    }

    #[test]
    fn v1_servers_are_accepted_but_v2_options_are_refused_client_side() {
        let mut client = canned("scenario-serve/v1\npong r1\n").expect("v1 greeting ok");
        assert!(!client.server_is_v2());
        client.ping().expect("v1 ping works");
        let err = client
            .submit(
                "scenario = x\n",
                SubmitOptions {
                    token: Some("t".into()),
                    ..SubmitOptions::default()
                },
            )
            .expect_err("token needs v2");
        assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn backoff_grows_exponentially_and_honors_the_server_hint() {
        let policy = RetryPolicy::default();
        let mut rng = ChaosRng::new(7);
        for attempt in 0..6 {
            let lo = (policy.base_delay_ms << attempt).min(policy.max_delay_ms) / 2;
            let hi = (policy.base_delay_ms << attempt).min(policy.max_delay_ms);
            let d = policy.delay_ms(attempt, None, &mut rng);
            assert!(
                d >= lo && d <= hi,
                "attempt {attempt}: {d} not in [{lo},{hi}]"
            );
        }
        assert!(
            policy.delay_ms(0, Some(5_000), &mut rng) >= 5_000,
            "server hint floors the delay"
        );
        // Same seed, same jitter: the schedule is replayable.
        let mut a = ChaosRng::new(9);
        let mut b = ChaosRng::new(9);
        let da: Vec<u64> = (0..5).map(|k| policy.delay_ms(k, None, &mut a)).collect();
        let db: Vec<u64> = (0..5).map(|k| policy.delay_ms(k, None, &mut b)).collect();
        assert_eq!(da, db);
    }
}

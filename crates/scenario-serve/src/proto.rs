//! The `scenario-serve/v2` line protocol.
//!
//! Everything is UTF-8 lines; `id` is a client-chosen whitespace-free
//! token echoed verbatim on every response to the request. Grammar:
//!
//! ```text
//! server → client on connect:
//!   scenario-serve/v2
//!
//! client → server:
//!   ping <id>
//!   stats <id>
//!   shutdown <id>
//!   submit <id> [trace] [timing] [recovery] [deadline-ms=<n>] [token=<t>]
//!   <spec lines…>
//!   end
//!
//! server → client:
//!   pong <id>
//!   stats <id> entries=<n> hits=<n> misses=<n> builds=<n> evictions=<n> build-secs=<f>
//!             admitted=<n> rejected=<n> shed=<n> inflight=<n>
//!   result <id> <k> <n> name=<cell> tasks=<n> makespan-bits=<hex16> recovery-events=<n>
//!              [fit-bits=<hex16> decided=<n> replicated=<n>]
//!   trace <id> <k> <hex bytes>
//!   done <id> cells=<n>
//!   error <id> kind=<kind> [cell=<k>] [retry-after-ms=<n>] <message…>
//!   bye <id>
//! ```
//!
//! Version 2 is a strict superset of v1: every v1 request line is a
//! valid v2 request, and v2-only response fields are either appended
//! after the v1 fields (`stats`) or optional `key=value` words a v1
//! reader folds into the free-text message (`error`). A v2 client
//! accepts both greetings and simply refrains from sending
//! `deadline-ms=`/`token=` to a v1 server.
//!
//! A `submit` answers with one `result` line per cell in canonical
//! expansion order (`k` = 0..n), each followed by its `trace` line
//! when tracing was requested, then `done`. A *cell* failure is an
//! `error` line carrying `cell=<k>` in place of that cell's `result`
//! line (the grid continues); an error without `cell=` aborts the
//! whole request (`busy`, `invalid-spec`, `token-mismatch`, …).
//! Floats travel as the hex of their IEEE-754 bits (`f64::to_bits`)
//! so nothing rounds; trace byte streams travel hex-encoded: the
//! server emits lowercase digits, a reader accepts either case, and
//! anything else in the hex word (a sign, a space, a non-ASCII byte,
//! an odd digit count) is a protocol error naming the first bad
//! offset. The completion journal stores traces with the same codec.

use std::io::{self, BufRead, Write};

use scenario::Outcome;

/// The greeting/version line the server sends on connect.
pub const GREETING: &str = "scenario-serve/v2";

/// The previous protocol version's greeting; v2 clients accept it and
/// downgrade (no deadlines, no grid tokens).
pub const GREETING_V1: &str = "scenario-serve/v1";

/// Machine-readable classification of an `error` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The admission queue is full; retry after the carried hint.
    Busy,
    /// The submit's deadline expired before this work could start.
    DeadlineExceeded,
    /// The submitted spec failed to parse or validate.
    InvalidSpec,
    /// One cell of a grid failed (ran, but errored or panicked).
    CellFailed,
    /// A grid token was reused with a different spec or options.
    TokenMismatch,
    /// The request line itself was malformed.
    Protocol,
    /// Anything else (also what legacy v1 error lines map to).
    Internal,
}

impl ErrorKind {
    /// The wire word for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::InvalidSpec => "invalid-spec",
            ErrorKind::CellFailed => "cell-failed",
            ErrorKind::TokenMismatch => "token-mismatch",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire word; unknown kinds map to [`ErrorKind::Internal`]
    /// so a newer server never breaks an older client.
    pub fn parse(word: &str) -> ErrorKind {
        match word {
            "busy" => ErrorKind::Busy,
            "deadline-exceeded" => ErrorKind::DeadlineExceeded,
            "invalid-spec" => ErrorKind::InvalidSpec,
            "cell-failed" => ErrorKind::CellFailed,
            "token-mismatch" => ErrorKind::TokenMismatch,
            "protocol" => ErrorKind::Protocol,
            _ => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Is `token` a valid grid token (journal-file safe)?
pub fn valid_token(token: &str) -> bool {
    !token.is_empty()
        && token.len() <= 64
        && token
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// What a `submit` should record, stream back, and be bounded by.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Stream each cell's recorded trace bytes (a `trace` line per
    /// cell).
    pub trace: bool,
    /// Record the per-task timing stream in those traces.
    pub timing: bool,
    /// Record the recovery-event stream in those traces.
    pub recovery: bool,
    /// End-to-end deadline for the whole submit (queue wait + graph
    /// build + run), measured from the moment the server reads the
    /// request. Cells that cannot *start* before it expires answer a
    /// typed `deadline-exceeded` error instead of running.
    pub deadline_ms: Option<u64>,
    /// Client-chosen grid token keying the server's completion
    /// journal: a resubmit with the same token (and identical spec +
    /// options) skips already-completed cells. Must satisfy
    /// [`valid_token`].
    pub token: Option<String>,
}

impl SubmitOptions {
    /// The three recording flags as a compact signature (journal
    /// headers compare this: a token resumed with different recording
    /// options could not be served bit-identically).
    pub fn recording_signature(&self) -> u8 {
        (self.trace as u8) | (self.timing as u8) << 1 | (self.recovery as u8) << 2
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Echo token.
        id: String,
    },
    /// Catalog + admission counter snapshot.
    Stats {
        /// Echo token.
        id: String,
    },
    /// Run a spec (expanding `[sweep]` grids).
    Submit {
        /// Echo token.
        id: String,
        /// Recording options.
        options: SubmitOptions,
        /// The scenario spec text (without the `end` terminator).
        spec_text: String,
    },
    /// Stop the server after answering.
    Shutdown {
        /// Echo token.
        id: String,
    },
}

/// Summary of one finished cell, carrying exactly the fields the
/// verify gate diffs bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// The cell's (expanded) name.
    pub name: String,
    /// Tasks simulated.
    pub tasks: usize,
    /// IEEE-754 bits of the virtual makespan.
    pub makespan_bits: u64,
    /// Recovery actions the engine took.
    pub recovery_events: usize,
    /// App_FIT statistics when the cell's policy was App_FIT.
    pub appfit: Option<AppFitSummary>,
}

/// App_FIT fields of a [`RunSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppFitSummary {
    /// IEEE-754 bits of the final unprotected App_FIT.
    pub fit_bits: u64,
    /// Decisions taken.
    pub decided: u64,
    /// Replicate decisions taken.
    pub replicated: u64,
}

impl RunSummary {
    /// Summarizes a finished run.
    pub fn of(name: &str, outcome: &Outcome) -> Self {
        RunSummary {
            name: name.to_string(),
            tasks: outcome.report.task_count(),
            makespan_bits: outcome.report.makespan.to_bits(),
            recovery_events: outcome.report.recovery().len(),
            appfit: outcome.appfit.map(|a| AppFitSummary {
                fit_bits: a.current_fit.to_bits(),
                decided: a.decided,
                replicated: a.replicated,
            }),
        }
    }

    /// Renders the `key=value` field tail of a `result` line (also the
    /// per-cell payload the completion journal stores verbatim).
    pub fn render_fields(&self) -> String {
        let mut out = format!(
            "name={} tasks={} makespan-bits={:016x} recovery-events={}",
            self.name, self.tasks, self.makespan_bits, self.recovery_events,
        );
        if let Some(a) = &self.appfit {
            out.push_str(&format!(
                " fit-bits={:016x} decided={} replicated={}",
                a.fit_bits, a.decided, a.replicated
            ));
        }
        out
    }

    /// Parses the field tail produced by [`render_fields`].
    ///
    /// [`render_fields`]: RunSummary::render_fields
    pub fn parse_fields(words: &mut std::str::SplitWhitespace<'_>) -> Result<Self, String> {
        let mut summary = RunSummary {
            name: field(words.next(), "name")?.to_string(),
            tasks: field(words.next(), "tasks")?.parse().map_err(bad_num)?,
            makespan_bits: u64::from_str_radix(field(words.next(), "makespan-bits")?, 16)
                .map_err(bad_num)?,
            recovery_events: field(words.next(), "recovery-events")?
                .parse()
                .map_err(bad_num)?,
            appfit: None,
        };
        if let Some(word) = words.next() {
            summary.appfit = Some(AppFitSummary {
                fit_bits: u64::from_str_radix(field(Some(word), "fit-bits")?, 16)
                    .map_err(bad_num)?,
                decided: field(words.next(), "decided")?.parse().map_err(bad_num)?,
                replicated: field(words.next(), "replicated")?
                    .parse()
                    .map_err(bad_num)?,
            });
        }
        Ok(summary)
    }
}

/// A server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `ping`.
    Pong {
        /// Echo token.
        id: String,
    },
    /// Answer to `stats`.
    Stats {
        /// Echo token.
        id: String,
        /// Catalog + admission counters.
        stats: crate::service::ServiceStats,
    },
    /// One cell of a `submit`, in canonical expansion order.
    Result {
        /// Echo token.
        id: String,
        /// Cell index, 0-based.
        index: usize,
        /// Total cells in this submission.
        total: usize,
        /// The cell's summary.
        summary: RunSummary,
    },
    /// A cell's recorded trace bytes (follows its `result` line).
    Trace {
        /// Echo token.
        id: String,
        /// Cell index, 0-based.
        index: usize,
        /// The `scenario::Trace::to_bytes` stream.
        bytes: Vec<u8>,
    },
    /// A `submit` finished.
    Done {
        /// Echo token.
        id: String,
        /// Cells answered.
        cells: usize,
    },
    /// Anything failed. With `cell`, one cell of a grid failed (the
    /// error replaces that cell's `result` line and the grid
    /// continues); without, the whole request failed.
    Error {
        /// Echo token (`-` when the request line itself was bad).
        id: String,
        /// Machine-readable classification.
        kind: ErrorKind,
        /// The failing cell's index for per-cell errors.
        cell: Option<usize>,
        /// Back-off hint for [`ErrorKind::Busy`], in milliseconds.
        retry_after_ms: Option<u64>,
        /// Human-readable message, newline-free.
        message: String,
    },
    /// Answer to `shutdown`; the connection closes after it.
    Bye {
        /// Echo token.
        id: String,
    },
}

impl Response {
    /// A whole-request error with no optional fields.
    pub fn error(id: &str, kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error {
            id: id.into(),
            kind,
            cell: None,
            retry_after_ms: None,
            message: message.into(),
        }
    }
}

/// Reads one request. `Ok(None)` is clean EOF; `Ok(Some(Err(msg)))`
/// is a malformed request the server should answer with `error -` and
/// survive.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Result<Request, String>>> {
    let mut line = String::new();
    // Blank lines between requests are tolerated.
    while line.trim().is_empty() {
        if !read_line(reader, &mut line)? {
            return Ok(None);
        }
    }
    let mut words = line.split_whitespace();
    let verb = words.next().expect("the line is not blank");
    let id = match words.next() {
        Some(id) => id.to_string(),
        None => return Ok(Some(Err(format!("`{verb}` needs an id")))),
    };
    let request = match verb {
        "ping" => Request::Ping { id },
        "stats" => Request::Stats { id },
        "shutdown" => Request::Shutdown { id },
        "submit" => {
            let mut options = SubmitOptions::default();
            for flag in words.by_ref() {
                if let Some(ms) = flag.strip_prefix("deadline-ms=") {
                    match ms.parse() {
                        Ok(ms) => options.deadline_ms = Some(ms),
                        Err(e) => return Ok(Some(Err(format!("bad deadline-ms: {e}")))),
                    }
                    continue;
                }
                if let Some(token) = flag.strip_prefix("token=") {
                    if !valid_token(token) {
                        return Ok(Some(Err(format!(
                            "invalid token `{token}` (want 1-64 chars of [A-Za-z0-9._-])"
                        ))));
                    }
                    options.token = Some(token.to_string());
                    continue;
                }
                match flag {
                    "trace" => options.trace = true,
                    "timing" => options.timing = true,
                    "recovery" => options.recovery = true,
                    other => return Ok(Some(Err(format!("unknown submit flag `{other}`")))),
                }
            }
            let mut spec_text = String::new();
            let mut body = String::new();
            loop {
                if !read_line(reader, &mut body)? {
                    return Ok(Some(Err("EOF inside submit body (missing `end`)".into())));
                }
                if body.trim() == "end" {
                    break;
                }
                spec_text.push_str(&body);
                spec_text.push('\n');
            }
            Request::Submit {
                id,
                options,
                spec_text,
            }
        }
        other => return Ok(Some(Err(format!("unknown request `{other}`")))),
    };
    if words.next().is_some() {
        return Ok(Some(Err(format!("trailing words after `{verb}`"))));
    }
    Ok(Some(Ok(request)))
}

impl Request {
    /// Renders the request as protocol lines (including `end` for
    /// submits), newline-terminated.
    pub fn render(&self) -> String {
        match self {
            Request::Ping { id } => format!("ping {id}\n"),
            Request::Stats { id } => format!("stats {id}\n"),
            Request::Shutdown { id } => format!("shutdown {id}\n"),
            Request::Submit {
                id,
                options,
                spec_text,
            } => {
                let mut line = format!("submit {id}");
                if options.trace {
                    line.push_str(" trace");
                }
                if options.timing {
                    line.push_str(" timing");
                }
                if options.recovery {
                    line.push_str(" recovery");
                }
                if let Some(ms) = options.deadline_ms {
                    line.push_str(&format!(" deadline-ms={ms}"));
                }
                if let Some(token) = &options.token {
                    line.push_str(&format!(" token={token}"));
                }
                let body = spec_text.trim_end_matches('\n');
                format!("{line}\n{body}\nend\n")
            }
        }
    }
}

impl Response {
    /// Renders the response as one newline-terminated line.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.render_into(&mut out);
        String::from_utf8(out).expect("a rendered line is UTF-8 fields and ASCII hex")
    }

    /// Appends the response to `out` as one newline-terminated line —
    /// the only renderer of the wire format: the server renders into
    /// its per-connection buffer with this, [`render`] wraps it.
    ///
    /// [`render`]: Response::render
    pub fn render_into(&self, out: &mut Vec<u8>) {
        let wrote = match self {
            Response::Pong { id } => writeln!(out, "pong {id}"),
            Response::Stats { id, stats } => writeln!(
                out,
                "stats {id} entries={} hits={} misses={} builds={} evictions={} build-secs={} \
                 admitted={} rejected={} shed={} inflight={}",
                stats.catalog.entries,
                stats.catalog.hits,
                stats.catalog.misses,
                stats.catalog.builds,
                stats.catalog.evictions,
                stats.catalog.build_secs,
                stats.admission.admitted,
                stats.admission.rejected,
                stats.admission.shed,
                stats.admission.inflight,
            ),
            Response::Result {
                id,
                index,
                total,
                summary,
            } => {
                result_line(out, id, *index, *total, &summary.render_fields());
                Ok(())
            }
            Response::Trace { id, index, bytes } => {
                trace_line(out, id, *index, bytes);
                Ok(())
            }
            Response::Done { id, cells } => writeln!(out, "done {id} cells={cells}"),
            Response::Error {
                id,
                kind,
                cell,
                retry_after_ms,
                message,
            } => {
                let mut line = format!("error {id} kind={}", kind.as_str());
                if let Some(cell) = cell {
                    line.push_str(&format!(" cell={cell}"));
                }
                if let Some(ms) = retry_after_ms {
                    line.push_str(&format!(" retry-after-ms={ms}"));
                }
                writeln!(out, "{line} {}", message.replace('\n', "; "))
            }
            Response::Bye { id } => writeln!(out, "bye {id}"),
        };
        wrote.expect("writing to a Vec<u8> cannot fail");
    }

    /// Parses one response line (the client side).
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut rest = line;
        let verb = next_word(&mut rest).ok_or("empty response line")?;
        let id = next_word(&mut rest)
            .ok_or_else(|| format!("`{verb}` response needs an id"))?
            .to_string();
        let mut words = rest.split_whitespace();
        match verb {
            "pong" => Ok(Response::Pong { id }),
            "bye" => Ok(Response::Bye { id }),
            "done" => Ok(Response::Done {
                id,
                cells: field(words.next(), "cells")?.parse().map_err(bad_num)?,
            }),
            "stats" => {
                let catalog = crate::catalog::CatalogStats {
                    entries: field(words.next(), "entries")?.parse().map_err(bad_num)?,
                    hits: field(words.next(), "hits")?.parse().map_err(bad_num)?,
                    misses: field(words.next(), "misses")?.parse().map_err(bad_num)?,
                    builds: field(words.next(), "builds")?.parse().map_err(bad_num)?,
                    evictions: field(words.next(), "evictions")?.parse().map_err(bad_num)?,
                    build_secs: field(words.next(), "build-secs")?
                        .parse()
                        .map_err(bad_num)?,
                };
                // The admission tail is a v2 addition: absent from a v1
                // server's line, in which case the counters read zero.
                let mut admission = crate::admission::AdmissionStats::default();
                if let Some(word) = words.next() {
                    admission.admitted = field(Some(word), "admitted")?.parse().map_err(bad_num)?;
                    admission.rejected =
                        field(words.next(), "rejected")?.parse().map_err(bad_num)?;
                    admission.shed = field(words.next(), "shed")?.parse().map_err(bad_num)?;
                    admission.inflight =
                        field(words.next(), "inflight")?.parse().map_err(bad_num)?;
                }
                Ok(Response::Stats {
                    id,
                    stats: crate::service::ServiceStats { catalog, admission },
                })
            }
            "error" => {
                let mut kind = ErrorKind::Internal;
                let mut cell = None;
                let mut retry_after_ms = None;
                let mut message = String::new();
                let mut head = true;
                for word in words {
                    if head {
                        if let Some(k) = word.strip_prefix("kind=") {
                            kind = ErrorKind::parse(k);
                            continue;
                        }
                        if let Some(c) = word.strip_prefix("cell=") {
                            cell = Some(c.parse().map_err(bad_num)?);
                            continue;
                        }
                        if let Some(ms) = word.strip_prefix("retry-after-ms=") {
                            retry_after_ms = Some(ms.parse().map_err(bad_num)?);
                            continue;
                        }
                        // First non-field word: everything from here on
                        // (fields included) is message text. Legacy v1
                        // error lines land here wholesale.
                        head = false;
                    }
                    push_word(&mut message, word);
                }
                Ok(Response::Error {
                    id,
                    kind,
                    cell,
                    retry_after_ms,
                    message,
                })
            }
            "trace" => {
                // Everything after the index is the hex word, handed
                // to the decoder whole instead of scanned for a word
                // boundary first; the decoder rejects inner whitespace.
                let index = next_word(&mut rest).ok_or("trace needs an index")?;
                Ok(Response::Trace {
                    id,
                    index: index.parse().map_err(bad_num)?,
                    bytes: from_hex(rest.trim())?,
                })
            }
            "result" => {
                let index = words.next().ok_or("result needs an index")?;
                let total = words.next().ok_or("result needs a total")?;
                let index = index.parse().map_err(bad_num)?;
                let total = total.parse().map_err(bad_num)?;
                Ok(Response::Result {
                    id,
                    index,
                    total,
                    summary: RunSummary::parse_fields(&mut words)?,
                })
            }
            other => Err(format!("unknown response `{other}`")),
        }
    }
}

/// Strips the expected `key=` prefix off a `key=value` word.
fn field<'a>(word: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let word = word.ok_or_else(|| format!("missing `{key}=`"))?;
    word.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| format!("expected `{key}=…`, got `{word}`"))
}

fn bad_num(e: impl std::fmt::Display) -> String {
    format!("bad number: {e}")
}

/// Appends `result <id> <k> <n> <fields>\n` to `out`; `fields` is a
/// [`RunSummary::render_fields`] tail, fresh or replayed verbatim from
/// the completion journal.
pub(crate) fn result_line(out: &mut Vec<u8>, id: &str, index: usize, total: usize, fields: &str) {
    writeln!(out, "result {id} {index} {total} {fields}")
        .expect("writing to a Vec<u8> cannot fail");
}

/// Appends `trace <id> <k> <hex>\n` to `out` and returns the hex word
/// it wrote, so a caller that also journals the trace reuses the
/// digits instead of encoding twice.
pub fn trace_line<'a>(out: &'a mut Vec<u8>, id: &str, index: usize, bytes: &[u8]) -> HexDigits<'a> {
    write!(out, "trace {id} {index} ").expect("writing to a Vec<u8> cannot fail");
    let start = out.len();
    hex_into(out, bytes);
    let end = out.len();
    out.push(b'\n');
    HexDigits(&out[start..end])
}

/// A hex word written by this module's encoder: only [`trace_line`]
/// makes one, so whoever takes it need not check the digits again.
#[derive(Debug, Clone, Copy)]
pub struct HexDigits<'a>(&'a [u8]);

impl<'a> HexDigits<'a> {
    /// The digits, lowercase ASCII.
    pub fn as_bytes(self) -> &'a [u8] {
        self.0
    }
}

/// Appends `word` to `text`, one space after what is already there.
pub(crate) fn push_word(text: &mut String, word: &str) {
    if !text.is_empty() {
        text.push(' ');
    }
    text.push_str(word);
}

/// Splits the next whitespace-delimited word off the front of `rest`.
pub(crate) fn next_word<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let trimmed = rest.trim_start();
    if trimmed.is_empty() {
        return None;
    }
    let end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
    let (word, tail) = trimmed.split_at(end);
    *rest = tail;
    Some(word)
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`HEX_VALUES`]; no digit's
/// value shares a bit with it.
const NOT_HEX: u8 = 0x80;

/// The value of every byte read as a hex digit of either case, or
/// [`NOT_HEX`].
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut value = 0;
    while value < 16 {
        let digit = HEX_DIGITS[value];
        table[digit as usize] = value as u8;
        table[digit.to_ascii_uppercase() as usize] = value as u8;
        value += 1;
    }
    table
};

/// Appends the lowercase hex of `bytes` to `out`: the one encoder
/// behind the socket, the journal and [`to_hex`].
fn hex_into(out: &mut Vec<u8>, bytes: &[u8]) {
    let start = out.len();
    out.resize(start + bytes.len() * 2, 0);
    for (pair, &byte) in out[start..].chunks_exact_mut(2).zip(bytes) {
        pair[0] = HEX_DIGITS[usize::from(byte >> 4)];
        pair[1] = HEX_DIGITS[usize::from(byte & 0x0f)];
    }
}

/// Lowercase hex of `bytes`.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = Vec::new();
    hex_into(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Inverse of [`to_hex`], for untrusted input: exactly pairs of
/// `[0-9a-fA-F]` decode, anything else is an error naming the first
/// bad byte offset. Allocates `hex.len() / 2` bytes.
pub fn from_hex(hex: &str) -> Result<Vec<u8>, String> {
    let hex = hex.as_bytes();
    if !hex.len().is_multiple_of(2) {
        return Err(format!("odd-length hex ({} digits)", hex.len()));
    }
    // Decode first and look for damage once at the end: a bad byte's
    // marker survives in the OR of every table value seen.
    let mut seen = 0u8;
    let mut bytes = vec![0u8; hex.len() / 2];
    for (byte, pair) in bytes.iter_mut().zip(hex.chunks_exact(2)) {
        let (high, low) = (
            HEX_VALUES[usize::from(pair[0])],
            HEX_VALUES[usize::from(pair[1])],
        );
        seen |= high | low;
        *byte = high << 4 | low;
    }
    if seen & NOT_HEX != 0 {
        let offset = hex
            .iter()
            .position(|&b| HEX_VALUES[usize::from(b)] == NOT_HEX)
            .expect("a marked byte was seen");
        return Err(format!(
            "bad hex: byte 0x{:02x} at offset {offset}",
            hex[offset]
        ));
    }
    Ok(bytes)
}

/// Reads one `\n`-terminated line into `line` (cleared first, line
/// ending stripped); `false` at EOF.
fn read_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<bool> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Ok(false);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionStats;
    use crate::catalog::CatalogStats;
    use crate::service::ServiceStats;

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Ping { id: "a1".into() },
            Request::Stats { id: "s".into() },
            Request::Shutdown { id: "z".into() },
            Request::Submit {
                id: "r9".into(),
                options: SubmitOptions {
                    trace: true,
                    timing: false,
                    recovery: true,
                    deadline_ms: Some(1500),
                    token: Some("grid-7.a_b".into()),
                },
                spec_text: "scenario = smoke\n[topology]\nnodes = 4\n".into(),
            },
            Request::Submit {
                id: "v1".into(),
                options: SubmitOptions::default(),
                spec_text: "scenario = smoke\n".into(),
            },
        ] {
            let mut bytes = request.render().into_bytes();
            let mut reader = std::io::Cursor::new(&mut bytes);
            let back = read_request(&mut reader)
                .expect("io")
                .expect("not EOF")
                .expect("well-formed");
            assert_eq!(request, back);
        }
    }

    #[test]
    fn v1_submit_lines_still_parse() {
        // The exact line grammar a v1 client renders must stay valid.
        let mut bytes = b"submit s1 trace timing\nscenario = x\nend\n".to_vec();
        let mut reader = std::io::Cursor::new(&mut bytes);
        let back = read_request(&mut reader)
            .expect("io")
            .expect("not EOF")
            .expect("well-formed");
        assert_eq!(
            back,
            Request::Submit {
                id: "s1".into(),
                options: SubmitOptions {
                    trace: true,
                    timing: true,
                    ..SubmitOptions::default()
                },
                spec_text: "scenario = x\n".into(),
            }
        );
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::Pong { id: "a".into() },
            Response::Bye { id: "b".into() },
            Response::Done {
                id: "c".into(),
                cells: 8,
            },
            Response::Error {
                id: "-".into(),
                kind: ErrorKind::Protocol,
                cell: None,
                retry_after_ms: None,
                message: "two words".into(),
            },
            Response::Error {
                id: "x".into(),
                kind: ErrorKind::Busy,
                cell: None,
                retry_after_ms: Some(250),
                message: "queue full".into(),
            },
            Response::Error {
                id: "y".into(),
                kind: ErrorKind::CellFailed,
                cell: Some(3),
                retry_after_ms: None,
                message: "worker panicked".into(),
            },
            Response::Stats {
                id: "d".into(),
                stats: ServiceStats {
                    catalog: CatalogStats {
                        entries: 2,
                        hits: 9,
                        misses: 3,
                        builds: 3,
                        evictions: 1,
                        build_secs: 0.5,
                    },
                    admission: AdmissionStats {
                        admitted: 17,
                        rejected: 2,
                        shed: 4,
                        inflight: 1,
                    },
                },
            },
            Response::Trace {
                id: "e".into(),
                index: 3,
                bytes: vec![0x00, 0xff, 0x7a],
            },
            Response::Result {
                id: "f".into(),
                index: 1,
                total: 8,
                summary: RunSummary {
                    name: "smoke+seed=2".into(),
                    tasks: 512,
                    makespan_bits: 1.25f64.to_bits(),
                    recovery_events: 0,
                    appfit: Some(AppFitSummary {
                        fit_bits: 0.5f64.to_bits(),
                        decided: 512,
                        replicated: 100,
                    }),
                },
            },
            Response::Result {
                id: "g".into(),
                index: 0,
                total: 1,
                summary: RunSummary {
                    name: "plain".into(),
                    tasks: 1,
                    makespan_bits: 0,
                    recovery_events: 2,
                    appfit: None,
                },
            },
        ] {
            let line = response.render();
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            let back = Response::parse(line.trim_end()).expect("parses");
            assert_eq!(response, back, "{line}");
        }
    }

    #[test]
    fn legacy_v1_error_lines_parse_as_internal() {
        let back = Response::parse("error s1 something went wrong").expect("parses");
        assert_eq!(
            back,
            Response::Error {
                id: "s1".into(),
                kind: ErrorKind::Internal,
                cell: None,
                retry_after_ms: None,
                message: "something went wrong".into(),
            }
        );
    }

    #[test]
    fn v1_stats_lines_parse_with_zero_admission_counters() {
        let back = Response::parse(
            "stats d entries=2 hits=9 misses=3 builds=3 evictions=1 build-secs=0.5",
        )
        .expect("parses");
        match back {
            Response::Stats { stats, .. } => {
                assert_eq!(stats.catalog.builds, 3);
                assert_eq!(stats.admission, AdmissionStats::default());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_survivable_errors() {
        for bad in [
            "submit",
            "warp x",
            "ping a b",
            "submit x fast",
            "submit x deadline-ms=abc",
            "submit x token=has/slash",
            "submit x token=",
        ] {
            let mut bytes = format!("{bad}\n").into_bytes();
            let mut reader = std::io::Cursor::new(&mut bytes);
            let result = read_request(&mut reader).expect("io").expect("not EOF");
            assert!(result.is_err(), "`{bad}` must be a protocol error");
        }
    }

    #[test]
    fn token_validation() {
        assert!(valid_token("grid-7.a_B"));
        assert!(!valid_token(""));
        assert!(!valid_token("has space"));
        assert!(!valid_token("dot/dot"));
        assert!(!valid_token(&"x".repeat(65)));
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = to_hex(&bytes);
        assert!(
            hex.starts_with("000102") && hex.ends_with("fdfeff"),
            "lowercase out"
        );
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert_eq!(
            from_hex(&hex.to_uppercase()).unwrap(),
            bytes,
            "either case in"
        );
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn from_hex_survives_a_multibyte_char_across_a_pair() {
        // Sliced as `&str` pairs this panicked inside the `é`.
        let err = from_hex("a\u{e9}1").expect_err("not hex");
        assert!(err.contains("offset 1"), "{err}");
        assert!(Response::parse("trace r1 0 a\u{e9}1").is_err());
    }

    #[test]
    fn from_hex_takes_hex_digits_only() {
        // `u8::from_str_radix` took a sign: "+f" decoded to 15.
        for (bad, at) in [
            ("+f", 0),
            ("-1", 0),
            (" 1", 0),
            ("1 ", 1),
            ("0x", 1),
            ("\u{80}", 0),
            ("\u{ff}", 0),
            ("0g", 1),
            ("G0", 0),
        ] {
            let err = from_hex(&format!("00{bad}00")).expect_err(bad);
            assert!(err.contains(&format!("offset {}", at + 2)), "{bad}: {err}");
        }
        for byte in (0..=255u8).filter(|b| !b.is_ascii_hexdigit() && b.is_ascii()) {
            let word = String::from_utf8(vec![b'0', byte]).expect("ascii");
            assert!(from_hex(&word).is_err(), "0x{byte:02x} is not a hex digit");
        }
        assert!(
            (0x80..=0xff).all(|byte: usize| HEX_VALUES[byte] == NOT_HEX),
            "no byte of a multi-byte char is a digit"
        );
        assert!(from_hex("00a").unwrap_err().contains("odd-length"));
        assert!(from_hex("010g").unwrap_err().contains("offset 3"));
    }

    #[test]
    fn a_trace_line_is_verb_id_index_then_one_hex_word() {
        let trace = |bytes: &[u8]| Response::Trace {
            id: "r1".into(),
            index: 0,
            bytes: bytes.to_vec(),
        };
        assert_eq!(
            Response::parse("trace r1 0 00FFab"),
            Ok(trace(&[0, 255, 0xab]))
        );
        assert_eq!(
            Response::parse("  trace \t r1  0   00ff  "),
            Ok(trace(&[0, 255]))
        );
        assert_eq!(Response::parse("trace r1 0"), Ok(trace(&[])));
        assert!(
            Response::parse("trace r1 0 00 ff").is_err(),
            "space in the hex"
        );
        assert!(Response::parse("trace r1").is_err(), "no index");
        assert!(Response::parse("trace r1 x 00").is_err(), "bad index");
    }

    #[test]
    fn blank_lines_before_a_request_cost_no_stack() {
        let mut bytes = "\n \r\n".repeat(200_000).into_bytes();
        bytes.extend_from_slice(b"ping late\n");
        let mut reader = std::io::Cursor::new(&mut bytes);
        let request = read_request(&mut reader).expect("io").expect("not EOF");
        assert_eq!(request, Ok(Request::Ping { id: "late".into() }));
        assert!(read_request(&mut reader).expect("io").is_none(), "then EOF");
    }
}

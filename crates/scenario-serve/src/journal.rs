//! The per-grid completion journal behind resumable submits.
//!
//! When the server runs with a journal directory, every tokened
//! submit appends each cell's summary (and trace bytes, when
//! recorded) to `<dir>/<token>.journal` as it completes. A resubmit
//! of the same token replays completed cells straight from the
//! journal — byte-identical to what the interrupted stream carried —
//! and runs only the rest. A server killed mid-grid and restarted on
//! the same directory therefore *resumes* a sweep instead of redoing
//! it.
//!
//! ## Format
//!
//! UTF-8 lines, append-only:
//!
//! ```text
//! grid spec-hash=<hex16> cells=<n> recording=<n>
//! trace <index> <hex bytes>          (only when tracing)
//! cell <index> hash=<hex16> <summary fields…>
//! ```
//!
//! The `cell` line is the commit marker: a `trace` line not followed
//! by its `cell` line (a torn write from a killed server) does not
//! count. Each record is written with a single `write_all`, so after
//! a crash at most the final line is torn; loading stops at the first
//! malformed or trailing-unterminated line and re-runs anything past
//! it. Resuming then **truncates** the file back to the last committed
//! record, so fresh appends land on a clean line boundary instead of
//! growing an unreachable suffix behind the tear. `hash` is the FNV-1a
//! of the summary fields, checked on load — a corrupted entry is
//! re-run, never replayed wrong.
//!
//! The header pins the grid identity: a token resubmitted with a
//! different spec (hash of its canonical rendering), cell count, or
//! recording options is refused with a typed `token-mismatch` error
//! rather than silently mixing two grids' results.
//!
//! ## Durability
//!
//! By default a committed record is **process-crash durable only**:
//! the single `write_all` lands the bytes in the OS page cache, so a
//! `kill -9`'d (or panicking) server replays every committed cell on
//! restart, but a *host* crash or power loss may lose records the
//! kernel had not yet written back. Opening the journal with
//! [`Journal::open_fsync`] (the server's `--journal-fsync` flag)
//! upgrades the guarantee to **host-crash durable**: every
//! [`GridJournal::record`] is followed by `sync_data`, so a record is
//! acknowledged only once it is on stable storage — at the cost of one
//! disk flush per completed cell. The directory entry itself is synced
//! once at journal creation, covering the first-append rename window.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::proto::{from_hex, next_word, push_word, valid_token, HexDigits};

/// FNV-1a 64-bit hash (std-only, stable across platforms).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// What pins a tokened grid's identity across resubmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridHeader {
    /// FNV-1a of the spec's canonical rendering.
    pub spec_hash: u64,
    /// Expanded cell count.
    pub cells: usize,
    /// [`crate::proto::SubmitOptions::recording_signature`].
    pub recording: u8,
}

impl GridHeader {
    fn render(&self) -> String {
        format!(
            "grid spec-hash={:016x} cells={} recording={}\n",
            self.spec_hash, self.cells, self.recording
        )
    }

    fn parse(line: &str) -> Option<GridHeader> {
        let mut words = line.split_whitespace();
        if words.next()? != "grid" {
            return None;
        }
        let spec_hash = u64::from_str_radix(words.next()?.strip_prefix("spec-hash=")?, 16).ok()?;
        let cells = words.next()?.strip_prefix("cells=")?.parse().ok()?;
        let recording = words.next()?.strip_prefix("recording=")?.parse().ok()?;
        Some(GridHeader {
            spec_hash,
            cells,
            recording,
        })
    }
}

/// One journaled cell completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The summary's `key=value` field tail, stored verbatim so a
    /// replayed `result` line is byte-identical to the original.
    pub fields: String,
    /// The cell's recorded trace bytes, when the grid records traces.
    pub trace: Option<Vec<u8>>,
}

/// A directory of per-token grid journals.
pub struct Journal {
    dir: PathBuf,
    fsync: bool,
}

impl Journal {
    /// Opens (creating if needed) the journal directory with the
    /// default page-cache durability (survives `kill -9`, not a host
    /// crash — see the module docs).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Journal> {
        Journal::open_with(dir, false)
    }

    /// Opens the journal directory with host-crash durability: every
    /// committed record is `sync_data`'d before it is acknowledged.
    pub fn open_fsync(dir: impl Into<PathBuf>) -> io::Result<Journal> {
        Journal::open_with(dir, true)
    }

    fn open_with(dir: impl Into<PathBuf>, fsync: bool) -> io::Result<Journal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if fsync {
            // Make the directory entry durable so a journal file
            // created after a host crash is actually findable.
            File::open(&dir)?.sync_all()?;
        }
        Ok(Journal { dir, fsync })
    }

    /// Whether committed records are flushed to stable storage.
    pub fn fsync(&self) -> bool {
        self.fsync
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens the grid journal for `token`, loading any completions a
    /// previous run recorded. `Ok(Err(reason))` is a token mismatch:
    /// the token exists but pins a different grid.
    pub fn resume(
        &self,
        token: &str,
        header: GridHeader,
    ) -> io::Result<Result<GridJournal, String>> {
        // Defense in depth: the protocol validates tokens too, but the
        // token becomes a file name right here.
        if !valid_token(token) {
            return Ok(Err(format!("invalid grid token `{token}`")));
        }
        let path = self.dir.join(format!("{token}.journal"));
        let mut completed = BTreeMap::new();
        let mut valid_len: u64 = 0;
        let mut on_disk: u64 = 0;
        match File::open(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
            Ok(mut file) => {
                // Bytes, not a `String`: a corrupt byte that breaks
                // UTF-8 is damage to truncate, not an I/O error.
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                on_disk = bytes.len() as u64;
                match load_entries(&bytes, header) {
                    Ok((entries, len)) => {
                        completed = entries;
                        valid_len = len;
                    }
                    Err(reason) => return Ok(Err(reason)),
                }
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if valid_len < on_disk {
            // Drop the torn/corrupt suffix so fresh appends land on a
            // clean line boundary instead of growing an unreachable
            // tail behind the tear.
            file.set_len(valid_len)?;
        }
        if valid_len == 0 {
            file.write_all(header.render().as_bytes())?;
        }
        if self.fsync && (valid_len < on_disk || valid_len == 0) {
            // The truncation / header rewrite must be durable before
            // any record appended after it claims to be.
            file.sync_data()?;
        }
        Ok(Ok(GridJournal {
            file,
            header,
            completed,
            fsync: self.fsync,
            record: Vec::new(),
        }))
    }
}

/// The line in a `\n`-split chunk of a journal file. A file killed
/// mid-write may end in a torn, unterminated line: only
/// `\n`-terminated lines count, and one that is not UTF-8 is corrupt
/// like any other malformed line.
fn terminated_line(chunk: &[u8]) -> Option<&str> {
    let line = std::str::from_utf8(chunk.strip_suffix(b"\n")?).ok()?;
    Some(line.trim_end_matches('\r'))
}

/// Parses a journal file's body against the expected header. Returns
/// the completions plus the byte length of the trusted prefix (through
/// the last committed `cell` line) — the caller truncates anything
/// after it.
fn load_entries(
    bytes: &[u8],
    expected: GridHeader,
) -> Result<(BTreeMap<usize, JournalEntry>, u64), String> {
    let mut chunks = bytes.split_inclusive(|&b| b == b'\n');
    let header_chunk = chunks.next().unwrap_or_default();
    let header = match terminated_line(header_chunk).and_then(GridHeader::parse) {
        // An empty or header-torn file holds no completions; the
        // caller truncates to zero and rewrites the header.
        None => return Ok((BTreeMap::new(), 0)),
        Some(header) => header,
    };
    if header != expected {
        return Err(format!(
            "grid token already used for a different grid \
             (journal pins spec-hash={:016x} cells={} recording={}, \
             resubmit has spec-hash={:016x} cells={} recording={})",
            header.spec_hash,
            header.cells,
            header.recording,
            expected.spec_hash,
            expected.cells,
            expected.recording,
        ));
    }
    let mut completed = BTreeMap::new();
    let mut pending_trace: Option<(usize, Vec<u8>)> = None;
    let mut offset = header_chunk.len() as u64;
    let mut valid_len = offset;
    for chunk in chunks {
        let Some(line) = terminated_line(chunk) else {
            break;
        };
        let mut rest = line;
        let verb = next_word(&mut rest);
        let mut words = rest.split_whitespace();
        let committed = match verb {
            Some("trace") => {
                let parsed = (|| {
                    let index: usize = next_word(&mut rest)?.parse().ok()?;
                    let bytes = from_hex(rest.trim()).ok()?;
                    Some((index, bytes))
                })();
                match parsed {
                    Some(pair) => pending_trace = Some(pair),
                    // Torn or corrupt: everything from here on is
                    // untrusted.
                    None => break,
                }
                false
            }
            Some("cell") => {
                let parsed = (|| {
                    let index: usize = words.next()?.parse().ok()?;
                    let hash =
                        u64::from_str_radix(words.next()?.strip_prefix("hash=")?, 16).ok()?;
                    let mut fields = String::new();
                    words.for_each(|word| push_word(&mut fields, word));
                    Some((index, hash, fields))
                })();
                let Some((index, hash, fields)) = parsed else {
                    break;
                };
                if index >= expected.cells || fnv1a64(fields.as_bytes()) != hash {
                    // Corrupt entry: skip it (the cell just re-runs),
                    // but trust nothing after it either.
                    break;
                }
                let trace = match pending_trace.take() {
                    Some((trace_index, bytes)) if trace_index == index => Some(bytes),
                    // An orphaned trace belongs to a torn record; the
                    // cell line is the commit marker, so a mismatched
                    // pairing voids the entry.
                    Some(_) => break,
                    None => None,
                };
                completed.insert(index, JournalEntry { fields, trace });
                true
            }
            _ => break,
        };
        offset += chunk.len() as u64;
        if committed {
            // The `cell` line commits: everything through here is the
            // trusted prefix. A trailing trace without its cell line
            // stays past `valid_len` and is truncated away.
            valid_len = offset;
        }
    }
    Ok((completed, valid_len))
}

/// One token's open grid journal: loaded completions plus an appender.
pub struct GridJournal {
    file: File,
    header: GridHeader,
    completed: BTreeMap<usize, JournalEntry>,
    fsync: bool,
    /// The record being appended, kept between cells.
    record: Vec<u8>,
}

impl GridJournal {
    /// Cells a previous run already completed, keyed by expansion
    /// index.
    pub fn completed(&self) -> &BTreeMap<usize, JournalEntry> {
        &self.completed
    }

    /// The pinned grid identity.
    pub fn header(&self) -> GridHeader {
        self.header
    }

    /// Appends one cell completion; `trace_hex` is the cell's trace as
    /// [`crate::proto::trace_line`] encoded it for the socket, so a
    /// journalled trace is encoded once. The whole record goes out in
    /// a single `write_all` so a crash tears at most the final line;
    /// with fsync enabled ([`Journal::open_fsync`]) the record is also
    /// `sync_data`'d, making the commit host-crash durable before this
    /// returns.
    pub fn record(
        &mut self,
        index: usize,
        fields: &str,
        trace_hex: Option<HexDigits<'_>>,
    ) -> io::Result<()> {
        let record = &mut self.record;
        record.clear();
        if let Some(hex) = trace_hex {
            write!(record, "trace {index} ")?;
            record.extend_from_slice(hex.as_bytes());
            record.push(b'\n');
        }
        writeln!(
            record,
            "cell {index} hash={:016x} {fields}",
            fnv1a64(fields.as_bytes())
        )?;
        self.file.write_all(record)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> GridHeader {
        GridHeader {
            spec_hash: 0xabcd1234,
            cells: 4,
            recording: 3,
        }
    }

    /// Records a cell the way the server does: the trace's digits come
    /// from the wire line's encoder.
    fn record(grid: &mut GridJournal, index: usize, fields: &str, trace: Option<&[u8]>) {
        let mut line = Vec::new();
        let hex = trace.map(|bytes| crate::proto::trace_line(&mut line, "t", index, bytes));
        grid.record(index, fields, hex).expect("record");
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scenario-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_then_resumes_completions() {
        let dir = tempdir("roundtrip");
        let journal = Journal::open(&dir).expect("open");
        {
            let mut grid = journal
                .resume("tok-1", header())
                .expect("io")
                .expect("fresh token");
            assert!(grid.completed().is_empty());
            record(&mut grid, 0, "name=a tasks=1", Some(&[1, 2, 3]));
            record(&mut grid, 2, "name=c tasks=3", None);
        }
        let grid = journal
            .resume("tok-1", header())
            .expect("io")
            .expect("same grid");
        assert_eq!(grid.completed().len(), 2);
        assert_eq!(grid.completed()[&0].fields, "name=a tasks=1");
        assert_eq!(
            grid.completed()[&0].trace.as_deref(),
            Some(&[1u8, 2, 3][..])
        );
        assert_eq!(grid.completed()[&2].trace, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reused_token_with_a_different_grid_is_refused() {
        let dir = tempdir("mismatch");
        let journal = Journal::open(&dir).expect("open");
        drop(journal.resume("tok", header()).expect("io").expect("fresh"));
        let mut other = header();
        other.spec_hash ^= 1;
        let refusal = journal.resume("tok", other).expect("io");
        assert!(refusal.is_err(), "spec-hash mismatch refused");
        let mut other = header();
        other.recording = 0;
        assert!(
            journal.resume("tok", other).expect("io").is_err(),
            "recording mismatch refused"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_tails_are_discarded_not_replayed() {
        let dir = tempdir("torn");
        let journal = Journal::open(&dir).expect("open");
        {
            let mut grid = journal.resume("tok", header()).expect("io").expect("fresh");
            record(&mut grid, 0, "name=a tasks=1", None);
        }
        let path = dir.join("tok.journal");
        // A good entry, then three kinds of damage: an unterminated
        // (torn) cell line, an orphaned trace, a bad hash.
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(b"trace 1 0102\ncell 1 hash=0000000000000000 name=b")
            .expect("w");
        drop(file);
        let grid = journal.resume("tok", header()).expect("io").expect("same");
        assert_eq!(grid.completed().len(), 1, "only the committed entry");
        assert!(grid.completed().contains_key(&0));

        std::fs::write(
            &path,
            format!(
                "{}cell 0 hash=deadbeefdeadbeef name=a tasks=1\n",
                header().render()
            ),
        )
        .expect("write");
        let grid = journal.resume("tok", header()).expect("io").expect("same");
        assert!(grid.completed().is_empty(), "bad hash voids the entry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_trace_lines_are_torn_tails_not_crashes() {
        let dir = tempdir("badhex");
        let journal = Journal::open(&dir).expect("open");
        let path = dir.join("tok.journal");
        let fields = "name=b tasks=2";
        let cell = format!("cell 1 hash={:016x} {fields}\n", fnv1a64(fields.as_bytes()));
        // A multi-byte char straddling a digit pair, a sign
        // `from_str_radix` would have taken, a space inside the hex
        // word, and a byte that is not UTF-8 at all.
        for bad in [
            "trace 1 a\u{e9}1\n".as_bytes(),
            b"trace 1 +f\n",
            b"trace 1 01 02\n",
            b"trace 1 0\xff\n",
        ] {
            {
                let mut grid = journal.resume("tok", header()).expect("io").expect("fresh");
                record(&mut grid, 0, "name=a tasks=1", Some(&[1, 2, 3]));
            }
            let committed = std::fs::metadata(&path).expect("journal file").len();
            let mut file = OpenOptions::new().append(true).open(&path).expect("open");
            file.write_all(bad).expect("w");
            file.write_all(cell.as_bytes()).expect("w");
            drop(file);
            let grid = journal.resume("tok", header()).expect("io").expect("same");
            assert_eq!(grid.completed().len(), 1, "nothing past the damage counts");
            assert_eq!(
                grid.completed()[&0].trace.as_deref(),
                Some(&[1u8, 2, 3][..])
            );
            drop(grid);
            assert_eq!(
                std::fs::metadata(&path).expect("journal file").len(),
                committed,
                "the damaged tail is truncated away"
            );
            std::fs::remove_file(&path).expect("reset");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replayed_fields_hash_checks_protect_byte_identity() {
        let fields = "name=smoke+seed=1 tasks=512 makespan-bits=3ff0000000000000";
        let hash = fnv1a64(fields.as_bytes());
        assert_ne!(hash, fnv1a64(b"name=smoke+seed=2"));
        assert_eq!(hash, fnv1a64(fields.as_bytes()), "stable");
    }

    #[test]
    fn fsync_journal_round_trips_like_the_default() {
        let dir = tempdir("fsync");
        let journal = Journal::open_fsync(&dir).expect("open");
        assert!(journal.fsync());
        assert!(!Journal::open(&dir).expect("open").fsync());
        {
            let mut grid = journal.resume("tok", header()).expect("io").expect("fresh");
            record(&mut grid, 0, "name=a tasks=1", Some(&[9]));
            record(&mut grid, 3, "name=d tasks=4", None);
        }
        // Durable records resume identically through either opening.
        let grid = Journal::open(&dir)
            .expect("open")
            .resume("tok", header())
            .expect("io")
            .expect("same grid");
        assert_eq!(grid.completed().len(), 2);
        assert_eq!(grid.completed()[&0].trace.as_deref(), Some(&[9u8][..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_tokens_never_touch_the_filesystem() {
        let dir = tempdir("badtok");
        let journal = Journal::open(&dir).expect("open");
        assert!(journal.resume("../escape", header()).expect("io").is_err());
        assert!(std::fs::read_dir(&dir).expect("dir").next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

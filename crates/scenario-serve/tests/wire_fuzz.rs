//! Mutation fuzz of the three parsers that read bytes from outside the
//! process — `Response::parse` (a server's lines, client side),
//! `read_request` (a client's lines, server side) and the journal
//! loader behind `Journal::resume` (a file a killed server left) —
//! plus the exact round-trip properties of the hex codec and the
//! renderer.
//!
//! Each case renders a valid stream, damages it (flip, insert, delete,
//! truncate; any byte value, so UTF-8 breaks too) and requires of the
//! parser an `Ok`, an `Err` or a trusted prefix: no panic, and no more
//! heap than a small multiple of the input, which a buffer sized from
//! an unchecked length field would exceed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use proptest::prelude::*;
use scenario_serve::proto::{from_hex, read_request, to_hex};
use scenario_serve::{
    AdmissionStats, AppFitSummary, CatalogStats, ErrorKind, GridHeader, Journal, Request, Response,
    RunSummary, ServiceStats, SubmitOptions,
};

thread_local! {
    /// Heap bytes this thread holds, and the most it has held since
    /// [`peak_heap`] last reset it. A test runs on one thread, so
    /// other tests' allocations stay out of its count.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count(delta: isize) {
    // The cells have no destructor, so they outlive every allocation
    // the thread makes; `try_with` only guards the teardown itself.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every request goes to `System` unchanged and its answer is
// returned unchanged, so `System`'s guarantees are this allocator's;
// the counting beside it touches two thread-local integers and never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's `layout` is passed on as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above, which is `System`'s,
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`; returns its result and the most heap the thread held
/// during the call beyond what it held going in.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.get();
    PEAK.set(before);
    let result = f();
    (result, (PEAK.get() - before) as usize)
}

/// The allocation bound: linear in the input with room for growth
/// doubling (old and new buffer alive at once) and per-call constants
/// such as a B-tree node or a path.
fn assert_linear_heap(peak: usize, input: usize) {
    assert!(
        peak <= 8 * input + 16 * 1024,
        "{peak} heap bytes for {input} input bytes"
    );
}

/// One edit: what to do, where (taken modulo the length), and with
/// which byte.
type Edit = (u8, usize, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..6)
}

fn damage(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for &(op, at, byte) in edits {
        let len = bytes.len();
        match op {
            0 if len > 0 => bytes[at % len] ^= byte | 1,
            1 => bytes.insert(at % (len + 1), byte),
            2 if len > 0 => {
                bytes.remove(at % len);
            }
            _ => bytes.truncate(at % (len + 1)),
        }
    }
    bytes
}

/// A response of every variant in turn, its contents drawn from the
/// numbers and bytes the case generated.
fn response(pick: u8, a: u64, b: u64, bytes: &[u8]) -> Response {
    let id = format!("r{}", a % 1000);
    let index = (b % 64) as usize;
    match pick % 8 {
        0 => Response::Pong { id },
        1 => Response::Bye { id },
        2 => Response::Done { id, cells: index },
        3 => Response::Stats {
            id,
            stats: ServiceStats {
                catalog: CatalogStats {
                    entries: index,
                    hits: a,
                    misses: b,
                    builds: a ^ b,
                    evictions: a % 7,
                    build_secs: (b % 10_000) as f64 / 64.0,
                },
                admission: AdmissionStats {
                    admitted: b,
                    rejected: a,
                    shed: b % 5,
                    inflight: a % 3,
                },
            },
        },
        4 => Response::Error {
            id,
            kind: [ErrorKind::Busy, ErrorKind::CellFailed, ErrorKind::Protocol][(a % 3) as usize],
            cell: a.is_multiple_of(2).then_some(index),
            retry_after_ms: b.is_multiple_of(2).then_some(b % 5000),
            message: format!("cell {a} gave up after {b} tries"),
        },
        5 => Response::Result {
            id,
            index,
            total: 64,
            summary: RunSummary {
                name: format!("grid+seed={a}"),
                tasks: (b % 4096) as usize,
                makespan_bits: a.rotate_left(17) ^ b,
                recovery_events: (a % 9) as usize,
                appfit: (!b.is_multiple_of(3)).then_some(AppFitSummary {
                    fit_bits: b.rotate_left(29) ^ a,
                    decided: a % 4096,
                    replicated: b % 4096,
                }),
            },
        },
        _ => Response::Trace {
            id,
            index,
            bytes: bytes.to_vec(),
        },
    }
}

fn request(pick: u8, a: u64, b: u64) -> Request {
    let id = format!("q{}", a % 1000);
    match pick % 4 {
        0 => Request::Ping { id },
        1 => Request::Stats { id },
        2 => Request::Shutdown { id },
        _ => Request::Submit {
            id,
            options: SubmitOptions {
                trace: a.is_multiple_of(2),
                timing: a.is_multiple_of(3),
                recovery: a.is_multiple_of(5),
                deadline_ms: b.is_multiple_of(2).then_some(b % 100_000),
                token: b
                    .is_multiple_of(3)
                    .then(|| format!("grid-{}.{}", a % 97, b % 89)),
            },
            spec_text: format!("scenario = fuzz-{a}\n[topology]\nnodes = {}\n", b % 64 + 1),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hex_round_trips_exactly(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let hex = to_hex(&bytes);
        prop_assert_eq!(hex.len(), bytes.len() * 2);
        prop_assert!(hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')));
        prop_assert_eq!(from_hex(&hex), Ok(bytes.clone()));
        prop_assert_eq!(from_hex(&hex.to_uppercase()), Ok(bytes));
    }

    #[test]
    fn render_into_matches_render_and_parses_back(
        pick in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let response = response(pick, a, b, &bytes);
        let line = response.render();
        let mut out = b"already here\n".to_vec();
        response.render_into(&mut out);
        prop_assert_eq!(&out[13..], line.as_bytes(), "render_into appends render()'s bytes");
        prop_assert_eq!(Response::parse(line.trim_end()), Ok(response));
    }

    #[test]
    fn damaged_response_lines_parse_or_fail_without_panic(
        pick in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        edits in edits(),
    ) {
        let line = response(pick, a, b, &bytes).render().into_bytes();
        // A client reads lines as UTF-8; what is not becomes U+FFFD,
        // a multi-byte char, wherever the damage fell.
        let damaged = String::from_utf8_lossy(&damage(line, &edits)).into_owned();
        for line in damaged.lines() {
            let (parsed, peak) = peak_heap(|| Response::parse(line));
            assert_linear_heap(peak, line.len());
            if let Ok(Response::Trace { bytes, .. }) = parsed {
                prop_assert!(bytes.len() <= line.len() / 2);
            }
        }
    }

    #[test]
    fn damaged_request_streams_read_or_fail_without_panic(
        picks in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..4),
        edits in edits(),
    ) {
        let stream: String = picks.iter().map(|&(pick, a, b)| request(pick, a, b).render()).collect();
        let damaged = damage(stream.into_bytes(), &edits);
        let mut reader = Cursor::new(damaged.as_slice());
        // A line that is not UTF-8 is an I/O error: the server hangs
        // up. Anything else is a request or a typed refusal.
        let ((), peak) = peak_heap(|| while let Ok(Some(_)) = read_request(&mut reader) {});
        assert_linear_heap(peak, damaged.len());
    }

    #[test]
    fn damaged_journals_resume_from_a_trusted_prefix(
        cells in proptest::collection::vec(
            (any::<u64>(), proptest::option::of(proptest::collection::vec(any::<u8>(), 0..80))),
            1..5,
        ),
        edits in edits(),
    ) {
        let dir = std::env::temp_dir().join(format!("scenario-serve-wire-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&dir).expect("journal dir");
        let header = GridHeader { spec_hash: 0x5eed, cells: cells.len(), recording: 1 };
        let path = dir.join("fuzz.journal");
        {
            let mut grid = journal.resume("fuzz", header).expect("io").expect("fresh token");
            let mut line = Vec::new();
            for (index, (seed, trace)) in cells.iter().enumerate() {
                line.clear();
                let hex = trace
                    .as_deref()
                    .map(|bytes| scenario_serve::proto::trace_line(&mut line, "-", index, bytes));
                grid.record(index, &format!("name=c{seed} tasks={index}"), hex).expect("record");
            }
        }
        let intact = std::fs::read(&path).expect("journal file");
        let header_line = &intact[..=intact.iter().position(|&b| b == b'\n').expect("header line")];
        let resumed = journal.resume("fuzz", header).expect("io").expect("same grid");
        prop_assert_eq!(resumed.completed().len(), cells.len(), "the intact journal replays whole");
        drop(resumed);

        let damaged = damage(intact.clone(), &edits);
        std::fs::write(&path, &damaged).expect("write damage");
        let (resumed, peak) = peak_heap(|| journal.resume("fuzz", header).expect("never an I/O error"));
        assert_linear_heap(peak, damaged.len());
        // A header damaged into another valid header pins another
        // grid: a typed refusal that leaves the file alone.
        if let Ok(grid) = resumed {
            let kept = std::fs::read(&path).expect("journal file");
            prop_assert!(
                damaged.starts_with(&kept) || kept == header_line,
                "what stays on disk is a prefix of what was there, or a fresh header"
            );
            prop_assert!(kept.ends_with(b"\n"), "appends land on a line boundary");
            let again = journal.resume("fuzz", header).expect("io").expect("same grid");
            prop_assert_eq!(again.completed(), grid.completed(), "the kept prefix loads the same");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

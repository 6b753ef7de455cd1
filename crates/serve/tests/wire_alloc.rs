//! The wire codec allocates nothing for the hot messages: once the frame
//! buffers have grown, `write_frame` into a reused `Vec` plus
//! `decode_payload` of a `Place`, `Placed`, `Depart`, `Departed`,
//! `Predict` (no co-runners), `Prediction`, `ReportOutcome` or
//! `OutcomeRecorded` performs no heap allocation, and a message holding a
//! `Vec` allocates only that `Vec` as it grows: capacity 4, then doubling.
//!
//! The allocation count comes from a counting `#[global_allocator]`, which
//! is why this is a test binary of its own (one allocator per binary, one
//! test per binary so nothing else allocates while it counts).

use gaugur_gamesim::{GameId, Resolution};
use gaugur_serve::wire::{self, BatchPlaceResult, OutcomeReport, Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one encode into `buf` and one decode of its payload,
/// after a warm-up round has grown `buf` and the thread's frame buffer.
fn allocations_per_frame<T>(buf: &mut Vec<u8>, msg: &T) -> u64
where
    T: serde::Serialize + serde::Deserialize + PartialEq + Debug,
{
    let round = |buf: &mut Vec<u8>| {
        buf.clear();
        wire::write_frame(buf, msg).unwrap();
        let back: T = wire::decode_payload(&buf[4..]).unwrap();
        assert_eq!(&back, msg);
        // Dropped here, so the count includes what the decoded value holds.
    };
    round(buf);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    round(buf);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn hot_frames_allocate_nothing_and_batches_only_their_vec() {
    let fhd = Resolution::Fhd1080;
    let report = OutcomeReport {
        session: 1 << 40,
        observed_fps: 54.123_456_789,
        predicted_fps: 58.987_654_321,
        model_version: 3,
    };
    let mut buf = Vec::new();

    let free: [(&str, u64); 8] = [
        (
            "Place",
            allocations_per_frame(
                &mut buf,
                &Request::Place {
                    game: GameId(17),
                    resolution: fhd,
                },
            ),
        ),
        (
            "Placed",
            allocations_per_frame(
                &mut buf,
                &Response::Placed {
                    session: u64::MAX,
                    server: 1234,
                    predicted_fps: 57.318_640_136_718_75,
                    model_version: 2,
                },
            ),
        ),
        (
            "Depart",
            allocations_per_frame(&mut buf, &Request::Depart { session: 987_654 }),
        ),
        (
            "Departed",
            allocations_per_frame(
                &mut buf,
                &Response::Departed {
                    session: 987_654,
                    server: 12,
                },
            ),
        ),
        (
            "Predict",
            allocations_per_frame(
                &mut buf,
                &Request::Predict {
                    game: GameId(4),
                    resolution: Resolution::Hd720,
                    others: vec![],
                    qos: 60.0,
                },
            ),
        ),
        (
            "Prediction",
            allocations_per_frame(
                &mut buf,
                &Response::Prediction {
                    feasible: true,
                    degradation: 0.812_5,
                    fps: 97.5,
                    model_version: 2,
                    cached: true,
                },
            ),
        ),
        (
            "ReportOutcome",
            allocations_per_frame(&mut buf, &Request::ReportOutcome { report }),
        ),
        (
            "OutcomeRecorded",
            allocations_per_frame(
                &mut buf,
                &Response::OutcomeRecorded {
                    accepted: 15,
                    stale: 1,
                    dropped: 0,
                },
            ),
        ),
    ];
    for (frame, allocations) in free {
        assert_eq!(allocations, 0, "{frame}");
    }

    // Allocations, reallocations included, of the one `Vec` each holds.
    let vec_only: [(&str, u64, u64); 3] = [
        (
            "Predict with co-runners",
            1,
            allocations_per_frame(
                &mut buf,
                &Request::Predict {
                    game: GameId(4),
                    resolution: Resolution::Hd720,
                    others: vec![(GameId(1), fhd), (GameId(2), fhd), (GameId(9), fhd)],
                    qos: 60.0,
                },
            ),
        ),
        (
            "PlaceBatch of 16",
            3,
            allocations_per_frame(
                &mut buf,
                &Request::PlaceBatch {
                    requests: (0..16).map(|g| (GameId(g), fhd)).collect(),
                },
            ),
        ),
        (
            "PlacedBatch of 16",
            3,
            allocations_per_frame(
                &mut buf,
                &Response::PlacedBatch {
                    model_version: 7,
                    results: (0..16)
                        .map(|i| BatchPlaceResult::Placed {
                            session: 1_000 + i,
                            server: i as usize * 3,
                            predicted_fps: 40.0 + i as f64 / 3.0,
                        })
                        .collect(),
                },
            ),
        ),
    ];
    for (frame, expected, allocations) in vec_only {
        assert_eq!(allocations, expected, "{frame}");
    }
}

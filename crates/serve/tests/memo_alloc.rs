//! A memo lookup that hits performs no heap allocation: keys are fixed-size
//! inline values, and a hit neither grows a table nor builds a query plan —
//! through `predict_with`, the first stage, the resident pass and the exact
//! sums `MemoizedFps` asks for the `before` colocations alike. Finishing a
//! memoized bound, `PredictorFps`'s scalar sum, allocates nothing either.
//!
//! The allocation count comes from a counting `#[global_allocator]`, which
//! is why this is a test binary of its own (one allocator per binary, one
//! test per binary so nothing else allocates while it counts).

use gaugur_core::{GAugur, Placement};
use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server};
use gaugur_sched::{ColocationBatch, FpsModel, PredictScratch, PredictorFps};
use gaugur_serve::{MemoizedFps, ModelHandle, PredictionMemo};
use std::alloc::{GlobalAlloc, Layout, System};
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn memo_hits_allocate_nothing() {
    let catalog = GameCatalog::generate(42, 8);
    let config = gaugur_core::GAugurConfig {
        plan: gaugur_core::ColocationPlan {
            pairs: 40,
            triples: 10,
            quads: 5,
            seed: 3,
        },
        ..Default::default()
    };
    let handle = ModelHandle::from_model(GAugur::build(&Server::reference(7), &catalog, config));
    let model = handle.get();
    let memo = PredictionMemo::new(1 << 16);
    let fps = MemoizedFps {
        model: &model,
        memo: &memo,
        qos: 60.0,
    };
    let mut scratch = PredictScratch::new();
    let res = Resolution::Fhd1080;

    let target: Placement = (GameId(0), res);
    let others = [
        (GameId(3), res),
        (GameId(1), Resolution::Hd720),
        (GameId(2), res),
    ];
    let mut batch = ColocationBatch::new();
    for g in 1..8u32 {
        batch.push_extended(&[(GameId(g), res), (GameId((g + 3) % 8), res)], target);
    }
    let (mut sums, mut bounds) = (Vec::new(), Vec::new());

    // Warm: entries resident, scratch and output buffers grown.
    let (first, cached) = memo.predict_with(&model, 60.0, target, &others, &mut scratch);
    assert!(!cached);
    fps.predict_colocation_sums(&batch, &mut scratch, &mut sums);
    let warm = sums.clone();
    assert!(memo.resident_colocation_bounds(&model, &batch, &mut bounds));
    memo.colocation_bounds(&model, &batch, &mut scratch, &mut bounds);

    // The warm pass: one prediction and seven sums missed; the resident
    // pass and the first stage hit the seven sums.
    assert_eq!(memo.counts(), (7 + 7, 1 + 7));
    let n = allocations_during(|| {
        let (again, cached) = memo.predict_with(&model, 60.0, target, &others, &mut scratch);
        assert!(cached && again == first);
        fps.predict_colocation_sums(&batch, &mut scratch, &mut sums);
        assert!(memo.resident_colocation_bounds(&model, &batch, &mut bounds));
        memo.colocation_bounds(&model, &batch, &mut scratch, &mut bounds);
    });
    assert_eq!(n, 0, "memo hits allocated {n} times");
    assert_eq!(sums, warm);
    let exact: Vec<f64> = bounds
        .iter()
        .map(|b| b.exact().expect("an exact sum"))
        .collect();
    assert_eq!(exact, warm);
    // One prediction and seven sums three times over: every lookup a hit.
    assert_eq!(memo.counts(), (7 + 7 + 1 + 7 + 7 + 7, 1 + 7));

    // Bounds a first stage memoized and nobody finished, as a pruned
    // candidate leaves them; a later pass hits them and finishes one member
    // by member. The first finish grows the scalar path's feature buffer.
    let mut bounded = ColocationBatch::new();
    for g in 1..3u32 {
        bounded.push_extended(
            &[(GameId(g), Resolution::Hd720), (GameId(g + 4), res)],
            target,
        );
    }
    memo.colocation_bounds(&model, &bounded, &mut scratch, &mut bounds);
    memo.colocation_bounds(&model, &bounded, &mut scratch, &mut bounds);
    let warm = memo.finish_colocation_sum(&model, &bounded, 0, &mut scratch);
    let mut finished = f64::NAN;
    let n = allocations_during(|| {
        memo.colocation_bounds(&model, &bounded, &mut scratch, &mut bounds);
        assert!(bounds[1].exact().is_none(), "a memoized bound");
        finished = memo.finish_colocation_sum(&model, &bounded, 1, &mut scratch);
    });
    assert_eq!(n, 0, "finishing a memoized bound allocated {n} times");
    let reference = PredictorFps::rm(&model.gaugur);
    for (i, got) in [warm, finished].into_iter().enumerate() {
        let want = reference.predict_colocation_sum(bounded.members(i));
        assert_eq!(got.to_bits(), want.to_bits(), "colocation {i}");
    }
}

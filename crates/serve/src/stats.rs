//! Daemon observability: the telemetry spine. One collector
//! ([`Telemetry`]) holds one single-writer block of counters per writing
//! thread, built from one histogram type, and everything the daemon reports
//! — the `Stats` snapshot, the Prometheus exposition ([`crate::trace`]), the
//! rolling windows behind the SLO engine ([`crate::slo`]) — is merged from
//! it on demand.
//!
//! Collection runs on the request hot path, so it is plain unlocked
//! load+store increments into the writing thread's own block: no
//! allocation, and nothing shared but the slow-request ring (one
//! sequence-number RMW per request; its mutex only when a request beats the
//! ring's floor). Snapshots are not atomic across counters (a concurrent
//! request may straddle one), which is fine for monitoring; tests that need
//! exact reconciliation quiesce the daemon first.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::slo::{bucket_bounded_max, GameSlo, SloReport, WindowView, WINDOWS_SECS};
use crate::trace::{RequestTrace, SlowLog, SlowMeta, SlowRequest, Stage, N_STAGES, REQUEST_STAGES};
use crate::wire::REQUEST_KINDS;

/// Upper bounds (µs) of the latency histogram buckets; the final implicit
/// bucket is overflow. Spans 1 µs service times to multi-second stalls.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    5, 10, 25, 50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000,
];

/// Number of histogram counters (`LATENCY_BUCKETS_US` plus overflow).
pub const N_BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1;

/// Index into an [`N_BUCKETS`]-wide histogram for a duration in µs: the
/// first bucket whose upper bound contains it, or the overflow bucket.
pub fn bucket_index(us: u64) -> usize {
    LATENCY_BUCKETS_US
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(N_BUCKETS - 1)
}

/// The one histogram wire type: a latency distribution merged across
/// writers, per request kind, per stage, and per window for the
/// whole-place service time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Samples recorded (the sum of `buckets`).
    pub count: u64,
    /// Sum of all sample durations (µs); feeds the exposition's `_sum`.
    pub total_us: u64,
    /// Largest observed sample (µs); bucket-bounded in a window (see
    /// [`crate::slo`]).
    pub max_us: u64,
    /// Histogram counts per bucket of [`LATENCY_BUCKETS_US`] (+ overflow).
    pub buckets: Vec<u64>,
}

impl StageStats {
    /// Mean sample duration (µs); 0 with no samples.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }

    /// Approximate percentile (0..=100): the upper bound of the bucket
    /// holding the p-th sample, or `max_us` when the rank falls in the
    /// open-ended overflow bucket (reporting `u64::MAX` there used to poison
    /// downstream aggregation). Returns 0 with no samples.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let n: u64 = self.buckets.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(self.max_us);
            }
        }
        self.max_us
    }
}

/// Per-request-kind counters in snapshot (wire) form.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Handler latency of every request of this kind; its `count` is
    /// `ok + errors`.
    pub latency: StageStats,
}

impl RequestStats {
    /// Total requests of this kind.
    pub fn total(&self) -> u64 {
        self.ok + self.errors
    }
}

/// Full daemon state snapshot, as served to `Stats` requests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Version of the currently loaded model.
    pub model_version: u64,
    /// Sessions currently placed on the fleet.
    pub active_sessions: u64,
    /// Fleet size the daemon was configured with.
    pub servers: usize,
    /// Connections the acceptor has admitted.
    pub connections_accepted: u64,
    /// Connections fully disposed of — served to EOF/error, or shed with a
    /// terminal reply. After a quiesced shutdown this reconciles with
    /// `connections_accepted`.
    pub connections_closed: u64,
    /// Connections turned away with `Overloaded`.
    pub overloaded_rejections: u64,
    /// Connections turned away with `ShuttingDown` (queue closed for drain).
    pub shutdown_rejections: u64,
    /// Frames that failed to decode.
    pub malformed_frames: u64,
    /// Sessions admitted into the fleet (`Place` and `PlaceBatch` items).
    /// Conservation invariant: `placements_admitted` = placements confirmed
    /// to clients + `placements_rolled_back`.
    pub placements_admitted: u64,
    /// Admitted sessions departed again by the daemon itself because the
    /// reply carrying them could not be delivered (dead client); these never
    /// leak into `active_sessions`.
    pub placements_rolled_back: u64,
    /// Placement shards the fleet is partitioned into (1 = the classic
    /// single-lock fleet).
    pub shards: usize,
    /// Sessions currently placed, per shard (indexed by shard id).
    /// Conservation invariant: sums to `active_sessions` at any quiesced
    /// snapshot.
    pub shard_active_sessions: Vec<u64>,
    /// Sessions whose id did not route back to the shard that owns them
    /// (must stay 0; anything else is an id-scheme bug).
    pub shard_misrouted_sessions: u64,
    /// Two-phase admits that lost the re-validation race and re-scored.
    pub place_admit_retries: u64,
    /// Two-phase admits that exhausted their retries and fell back to the
    /// next-best shard's candidate.
    pub place_admit_fallbacks: u64,
    /// `Depart` requests naming a session id that was not placed (already
    /// departed, rolled back, or never existed).
    pub depart_unknown_sessions: u64,
    /// Prediction-memo hits.
    pub cache_hits: u64,
    /// Prediction-memo misses.
    pub cache_misses: u64,
    /// Per-server score-cache hits (placement `before` sums served from
    /// cache instead of recomputed).
    pub score_hits: u64,
    /// Per-server score-cache misses (full server-sum recomputations).
    pub score_misses: u64,
    /// Outcome reports accepted into the feedback buffer (fresh or stale).
    pub feedback_accepted: u64,
    /// Accepted reports whose `model_version` predated the current model;
    /// buffered as training data but excluded from drift statistics.
    pub feedback_stale: u64,
    /// Outcome reports rejected (unknown session or non-finite FPS).
    pub feedback_dropped: u64,
    /// Outcome records currently buffered for the next retrain.
    pub feedback_buffered: u64,
    /// Outcome records evicted from full ring shards. Conservation
    /// invariant: `feedback_accepted` = `feedback_buffered` +
    /// `feedback_evicted` + records consumed by snapshots (snapshots do not
    /// drain, so accepted = buffered + evicted at all times).
    pub feedback_evicted: u64,
    /// Distinct (game, game) colocation pairs with outcome aggregates.
    pub feedback_pairs: u64,
    /// Current overall Page–Hinkley drift score (0 when quiescent).
    pub drift_score: f64,
    /// Mean absolute relative FPS error over the sliding feedback window.
    pub windowed_mae: f64,
    /// Times the drift detector tripped since startup.
    pub drift_trips: u64,
    /// Background retrains that completed and published a new model version.
    pub retrains_ok: u64,
    /// Background retrains that failed (too few samples, unusable data, or
    /// injected faults); these never bump the model version.
    pub retrains_failed: u64,
    /// Wall-clock duration of the most recent successful retrain (ms).
    pub last_retrain_ms: u64,
    /// Outcome samples used by the most recent successful retrain.
    pub last_retrain_samples: u64,
    /// Counters per request kind.
    pub per_request: BTreeMap<String, RequestStats>,
    /// Merged per-stage pipeline timings (see [`crate::trace`]); keyed by
    /// [`crate::trace::STAGES`] names.
    pub per_stage: BTreeMap<String, StageStats>,
    /// Worst-N slowest requests with per-stage breakdowns, slowest first.
    pub slow_requests: Vec<SlowRequest>,
    /// Windowed SLO evaluation (burn rates, alert states, rolling views);
    /// `None` from stats sources that predate the SLO engine.
    pub slo: Option<SloReport>,
}

impl StatsSnapshot {
    /// Memo hit rate in [0, 1]; 0 with no lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Score-cache hit rate in [0, 1]; 0 with no lookups.
    pub fn score_hit_rate(&self) -> f64 {
        let total = self.score_hits + self.score_misses;
        if total == 0 {
            0.0
        } else {
            self.score_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "daemon statistics")?;
        writeln!(
            f,
            "  uptime:            {:.1} s",
            self.uptime_ms as f64 / 1e3
        )?;
        writeln!(f, "  model version:     {}", self.model_version)?;
        writeln!(f, "  active sessions:   {}", self.active_sessions)?;
        writeln!(f, "  servers:           {}", self.servers)?;
        writeln!(
            f,
            "  connections:       {} accepted / {} closed",
            self.connections_accepted, self.connections_closed
        )?;
        writeln!(f, "  overloaded:        {}", self.overloaded_rejections)?;
        writeln!(f, "  shed at shutdown:  {}", self.shutdown_rejections)?;
        writeln!(f, "  malformed frames:  {}", self.malformed_frames)?;
        writeln!(
            f,
            "  placements:        {} admitted / {} rolled back",
            self.placements_admitted, self.placements_rolled_back
        )?;
        if self.shards > 1 {
            writeln!(
                f,
                "  shards:            {} ({} admit retries / {} fallbacks), per-shard active {:?}",
                self.shards,
                self.place_admit_retries,
                self.place_admit_fallbacks,
                self.shard_active_sessions
            )?;
        }
        if self.depart_unknown_sessions > 0 {
            writeln!(f, "  unknown departs:   {}", self.depart_unknown_sessions)?;
        }
        writeln!(
            f,
            "  prediction memo:   {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate()
        )?;
        writeln!(
            f,
            "  score cache:       {} hits / {} misses ({:.1}% hit rate)",
            self.score_hits,
            self.score_misses,
            100.0 * self.score_hit_rate()
        )?;
        writeln!(
            f,
            "  feedback:          {} accepted ({} stale) / {} dropped, {} buffered / {} evicted, {} pairs",
            self.feedback_accepted,
            self.feedback_stale,
            self.feedback_dropped,
            self.feedback_buffered,
            self.feedback_evicted,
            self.feedback_pairs
        )?;
        writeln!(
            f,
            "  drift:             score {:.4}, windowed MAE {:.4}, {} trips",
            self.drift_score, self.windowed_mae, self.drift_trips
        )?;
        writeln!(
            f,
            "  retrains:          {} ok / {} failed, last {} ms over {} samples",
            self.retrains_ok, self.retrains_failed, self.last_retrain_ms, self.last_retrain_samples
        )?;
        if let Some(slo) = &self.slo {
            let burns = slo
                .objectives
                .iter()
                .map(|o| {
                    format!(
                        "{} {} ({:.1}/{:.1})",
                        o.name, o.state, o.fast_burn, o.slow_burn
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                f,
                "  slo:               {} — {burns}, {} transitions",
                slo.state, slo.transitions
            )?;
        }
        writeln!(
            f,
            "  {:<14} {:>8} {:>8} {:>10} {:>10} {:>10}",
            "request", "ok", "errors", "p50", "p95", "p99"
        )?;
        for (kind, rs) in &self.per_request {
            if rs.total() == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<14} {:>8} {:>8} {:>9}µs {:>9}µs {:>9}µs",
                kind,
                rs.ok,
                rs.errors,
                rs.latency.percentile_us(50.0),
                rs.latency.percentile_us(95.0),
                rs.latency.percentile_us(99.0)
            )?;
        }
        if self.per_stage.values().any(|st| st.count > 0) {
            writeln!(
                f,
                "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "stage", "count", "mean", "p50", "p99", "max"
            )?;
            for (stage, st) in &self.per_stage {
                if st.count == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {:<14} {:>8} {:>8.1}µs {:>9}µs {:>9}µs {:>9}µs",
                    stage,
                    st.count,
                    st.mean_us(),
                    st.percentile_us(50.0),
                    st.percentile_us(99.0),
                    st.max_us
                )?;
            }
        }
        if !self.slow_requests.is_empty() {
            writeln!(f, "  slowest requests (stage breakdown, µs)")?;
            for slow in &self.slow_requests {
                let breakdown = crate::trace::STAGES
                    .iter()
                    .zip(&slow.stage_us)
                    .filter(|(_, &us)| us > 0)
                    .map(|(name, us)| format!("{name} {us}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                writeln!(
                    f,
                    "    #{:<8} {:<14} {:>9}µs  [{breakdown}]",
                    slow.seq, slow.kind, slow.total_us
                )?;
            }
        }
        Ok(())
    }
}

/// Ring length in seconds; must exceed the longest window so writing the
/// current second never clobbers a second still inside any window.
const RING_SLOTS: usize = 308;

/// Single-writer increment: every counter below has exactly one writing
/// thread, so a plain load+store (one unlocked add) replaces a locked RMW on
/// the request hot path. Readers sum with relaxed loads: every value they
/// see is one the writer stored, so a sum never steps backwards, but no
/// snapshot is consistent across counters.
#[inline]
fn bump(counter: &AtomicU64, delta: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(delta),
        Ordering::Relaxed,
    );
}

/// The one latency histogram behind every per-kind, per-stage and per-second
/// distribution: [`LATENCY_BUCKETS_US`] buckets (+ overflow), the sum and the
/// largest sample.
#[derive(Default)]
struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    fn record(&self, us: u64) {
        bump(&self.buckets[bucket_index(us)], 1);
        bump(&self.sum_us, us);
        if us > self.max_us.load(Ordering::Relaxed) {
            self.max_us.store(us, Ordering::Relaxed);
        }
    }

    fn clear(&self) {
        for counter in self.buckets.iter().chain([&self.sum_us, &self.max_us]) {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// The one merge: the sum of `parts` in wire form — every bucket
    /// present, `count` the sum of the buckets, `max_us` the largest sample.
    fn merged<'a>(parts: impl IntoIterator<Item = &'a Histogram>) -> StageStats {
        let mut sum = StageStats {
            buckets: vec![0; N_BUCKETS],
            ..StageStats::default()
        };
        for part in parts {
            for (merged, bucket) in sum.buckets.iter_mut().zip(&part.buckets) {
                *merged += bucket.load(Ordering::Relaxed);
            }
            sum.total_us += part.sum_us.load(Ordering::Relaxed);
            sum.max_us = sum.max_us.max(part.max_us.load(Ordering::Relaxed));
        }
        sum.count = sum.buckets.iter().sum();
        sum
    }
}

/// One second of one worker's telemetry: what the SLO engine and the
/// window gauges read, nothing more. (The place histogram's `max_us` is kept
/// up like any other and never reported: a window's maximum is
/// bucket-bounded, as its wire format always was.)
#[derive(Default)]
struct Second {
    /// `second + 1` this slot currently holds (0 = never written). The
    /// writer zeroes and restamps on rollover; readers ignore slots whose
    /// stamp falls outside the window being merged.
    stamp: AtomicU64,
    requests_ok: AtomicU64,
    requests_err: AtomicU64,
    /// Whole-request service time of `place`/`place_batch` requests.
    place: Histogram,
    place_attempts: AtomicU64,
    place_qos_rejected: AtomicU64,
    outcomes_total: AtomicU64,
    outcomes_below_floor: AtomicU64,
    err_sum_micros: AtomicU64,
    err_count: AtomicU64,
}

impl Second {
    /// Zero every counter (rollover; only the owning worker calls this).
    fn clear(&self) {
        self.place.clear();
        let scalars = [
            &self.requests_ok,
            &self.requests_err,
            &self.place_attempts,
            &self.place_qos_rejected,
            &self.outcomes_total,
            &self.outcomes_below_floor,
            &self.err_sum_micros,
            &self.err_count,
        ];
        for counter in scalars {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// One writer's since-boot per-game counters: an open-addressed table the
/// owning thread fills and any thread reads, with no lock on either side.
/// Entries never move — a game that finds no room near its home slot goes to
/// a chained table twice the size — so a game keeps its slot for good and a
/// reader's sums never step backwards.
struct GameTable {
    /// `game + 1` per slot; 0 = free.
    keys: Box<[AtomicU64]>,
    /// `[place_attempts, qos_rejected, outcomes, outcomes_below_floor]`.
    counts: Box<[[AtomicU64; 4]]>,
    next: OnceLock<Box<GameTable>>,
}

impl GameTable {
    /// Slots of the first table (a power of two): game ids are dense, so the
    /// paper's 100-game catalogue sits collision-free in its home slots.
    const SLOTS: usize = 256;
    /// Slots tried from a game's home slot before the chained table is.
    const PROBES: usize = 8;

    fn new(slots: usize) -> GameTable {
        GameTable {
            keys: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            counts: (0..slots).map(|_| Default::default()).collect(),
            next: OnceLock::new(),
        }
    }

    /// The counters of `game`, claimed on first use. Writer only.
    fn entry(&self, game: u32) -> &[AtomicU64; 4] {
        let claimed = u64::from(game) + 1;
        for probe in 0..Self::PROBES {
            let i = (game as usize + probe) & (self.keys.len() - 1);
            let key = self.keys[i].load(Ordering::Relaxed);
            if key == 0 {
                self.keys[i].store(claimed, Ordering::Relaxed);
            }
            if key == 0 || key == claimed {
                return &self.counts[i];
            }
        }
        self.next
            .get_or_init(|| Box::new(GameTable::new(self.keys.len() * 2)))
            .entry(game)
    }

    fn merge_into(&self, merged: &mut BTreeMap<u64, GameSlo>) {
        for (key, counts) in self.keys.iter().zip(self.counts.iter()) {
            let key = key.load(Ordering::Relaxed);
            if key == 0 {
                continue;
            }
            let [attempts, rejected, outcomes, below] =
                std::array::from_fn(|i| counts[i].load(Ordering::Relaxed));
            let game = merged.entry(key - 1).or_default();
            game.place_attempts += attempts;
            game.qos_rejected += rejected;
            game.outcomes += outcomes;
            game.outcomes_below_floor += below;
        }
        if let Some(next) = self.next.get() {
            next.merge_into(merged);
        }
    }
}

/// Since-boot lifecycle counters. Each has one writing thread per block: the
/// acceptor counts connections in, shed, and closed unserved; workers count
/// the rest.
#[derive(Debug, Clone, Copy)]
pub enum Counter {
    /// Connections the acceptor admitted.
    Connections,
    /// Connections fully disposed of (served to EOF/error, or shed with a
    /// terminal reply).
    ConnectionsClosed,
    /// Connections turned away with `Overloaded`.
    Overloaded,
    /// Connections turned away with `ShuttingDown`.
    ShutdownRejected,
    /// Frames that failed to decode.
    Malformed,
    /// Sessions admitted into the fleet.
    Admitted,
    /// Admissions rolled back because their reply was undeliverable.
    RolledBack,
    /// Two-phase admits that lost their re-validation race and re-scored.
    AdmitRetries,
    /// Two-phase admits that exhausted their retries.
    AdmitFallbacks,
    /// `Depart` requests naming an unknown session id.
    DepartUnknown,
}

const N_COUNTERS: usize = Counter::DepartUnknown as usize + 1;

#[derive(Default)]
struct KindTotals {
    ok: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

/// Everything one thread writes: a since-boot part (per request kind, per
/// stage, lifecycle, per game) and a ring of per-second windows. The ring is
/// allocated whole up front and is most of the block's size, which is why
/// it holds only what the SLO engine reads: per-kind and per-stage
/// histograms and lifecycle counters exist only since boot. The acceptor
/// records nothing windowed, so its ring is empty. Aligned so that
/// neighbouring blocks share no cache line.
#[repr(align(64))]
struct Block {
    kinds: [KindTotals; REQUEST_KINDS.len()],
    stages: [Histogram; N_STAGES],
    lifecycle: [AtomicU64; N_COUNTERS],
    games: GameTable,
    ring: Box<[Second]>,
}

/// The daemon's one telemetry collector: a single-writer block per writing
/// thread (each worker, plus the acceptor) and the slow-request ring. The
/// `Stats` snapshot, the exposition and the rolling windows are all merged
/// from here.
///
/// A request is written at two points: [`Writer::record`] before its reply,
/// so a scrape from another connection right after the reply finds it
/// counted, and [`Writer::flush`] after the write attempt, which is what the
/// stages time; a `Stats` request's own snapshot, taken before both, holds
/// neither. The first point writes only the since-boot part; the second
/// writes the stage samples there and the outcome count and whole-place
/// latency into the current second. Folding expired seconds into the
/// totals instead would need a reader/writer protocol to keep concurrent
/// scrapes monotone.
pub struct Telemetry {
    blocks: Vec<Block>,
    slow: SlowLog,
    started_us: u64,
}

impl Telemetry {
    /// A collector for `workers` worker threads plus the acceptor, a
    /// worst-`slow_capacity` slow-request ring, and uptime counted from
    /// `started_us`.
    pub fn new(workers: usize, slow_capacity: usize, started_us: u64) -> Telemetry {
        let block = |ring_slots: usize| Block {
            kinds: Default::default(),
            stages: Default::default(),
            lifecycle: Default::default(),
            games: GameTable::new(GameTable::SLOTS),
            ring: (0..ring_slots).map(|_| Second::default()).collect(),
        };
        Telemetry {
            blocks: (0..workers.max(1))
                .map(|_| block(RING_SLOTS))
                .chain([block(0)])
                .collect(),
            slow: SlowLog::new(slow_capacity),
            started_us,
        }
    }

    /// Index of the acceptor's block (workers are `0..acceptor()`).
    pub fn acceptor(&self) -> usize {
        self.blocks.len() - 1
    }

    /// Add `n` to a lifecycle counter in block `writer`; only the thread
    /// that owns the block may call this.
    pub fn note(&self, writer: usize, counter: Counter, n: u64) {
        bump(&self.blocks[writer].lifecycle[counter as usize], n);
    }

    /// Position worker `worker` on the second `now_us` falls in, zeroing and
    /// restamping the slot if it still holds an older second. Only the
    /// owning worker thread may ask for, and write through, its index.
    pub fn writer(&self, worker: usize, now_us: u64) -> Writer<'_> {
        let block = &self.blocks[worker];
        let sec = now_us / 1_000_000;
        let second = &block.ring[(sec % RING_SLOTS as u64) as usize];
        if second.stamp.load(Ordering::Relaxed) != sec + 1 {
            second.clear();
            second.stamp.store(sec + 1, Ordering::Relaxed);
        }
        Writer {
            slow: &self.slow,
            block,
            second,
            now_us,
        }
    }

    /// Merge every block's since-boot part: uptime at `now_us`, lifecycle
    /// counters, per-kind and per-stage histograms (every kind and stage is
    /// always present, zeroed when unobserved) and the slow-request ring.
    /// The daemon fills in the fields other subsystems own.
    pub fn snapshot(&self, now_us: u64) -> StatsSnapshot {
        let sum = |of: &dyn Fn(&Block) -> &AtomicU64| -> u64 {
            let load = |b| of(b).load(Ordering::Relaxed);
            self.blocks.iter().map(load).sum()
        };
        let total = |counter: Counter| sum(&|b| &b.lifecycle[counter as usize]);
        let per_request = REQUEST_KINDS.iter().enumerate().map(|(k, kind)| {
            let stats = RequestStats {
                ok: sum(&|b| &b.kinds[k].ok),
                errors: sum(&|b| &b.kinds[k].errors),
                latency: Histogram::merged(self.blocks.iter().map(|b| &b.kinds[k].latency)),
            };
            (kind.to_string(), stats)
        });
        let per_stage = Stage::ALL.iter().map(|&stage| {
            let parts = self.blocks.iter().map(|b| &b.stages[stage as usize]);
            (stage.name().to_string(), Histogram::merged(parts))
        });
        StatsSnapshot {
            uptime_ms: now_us.saturating_sub(self.started_us) / 1_000,
            connections_accepted: total(Counter::Connections),
            connections_closed: total(Counter::ConnectionsClosed),
            overloaded_rejections: total(Counter::Overloaded),
            shutdown_rejections: total(Counter::ShutdownRejected),
            malformed_frames: total(Counter::Malformed),
            placements_admitted: total(Counter::Admitted),
            placements_rolled_back: total(Counter::RolledBack),
            place_admit_retries: total(Counter::AdmitRetries),
            place_admit_fallbacks: total(Counter::AdmitFallbacks),
            depart_unknown_sessions: total(Counter::DepartUnknown),
            per_request: per_request.collect(),
            per_stage: per_stage.collect(),
            slow_requests: self.slow.snapshot(),
            ..StatsSnapshot::default()
        }
    }

    /// Merge every worker's ring into one [`WindowView`] per entry of
    /// [`WINDOWS_SECS`]. Each window covers the `window_secs` seconds ending
    /// at (and including) the partial second of `now_us`; slots stamped in
    /// the future (the clock moved backwards) or past the window are
    /// ignored, so clock skips simply empty the windows. A window's `max_us`
    /// is bucket-bounded (the upper bound of its highest bucket), not the largest sample:
    /// Prometheus `histogram_quantile` semantics.
    pub fn views(&self, now_us: u64) -> Vec<WindowView> {
        let view = |&window_secs: &u64| self.view(window_secs, now_us / 1_000_000);
        WINDOWS_SECS.iter().map(view).collect()
    }

    fn view(&self, window_secs: u64, now_sec: u64) -> WindowView {
        let mut live: Vec<(u64, &Second)> = Vec::new();
        for second in self.blocks.iter().flat_map(|b| b.ring.iter()) {
            let stamp = second.stamp.load(Ordering::Relaxed);
            if stamp != 0 && stamp - 1 <= now_sec && now_sec - (stamp - 1) < window_secs {
                live.push((stamp, second));
            }
        }
        let sum = |of: &dyn Fn(&Second) -> &AtomicU64| -> u64 {
            let load = |(_, second): &(u64, &Second)| of(second).load(Ordering::Relaxed);
            live.iter().map(load).sum()
        };
        let mut place_latency = Histogram::merged(live.iter().map(|(_, second)| &second.place));
        place_latency.max_us = bucket_bounded_max(&place_latency.buckets);
        let mut active: Vec<u64> = live.iter().map(|&(stamp, _)| stamp).collect();
        active.sort_unstable();
        active.dedup();
        WindowView {
            window_secs,
            active_secs: active.len() as u64,
            requests_ok: sum(&|s| &s.requests_ok),
            requests_err: sum(&|s| &s.requests_err),
            place_latency,
            place_attempts: sum(&|s| &s.place_attempts),
            place_qos_rejected: sum(&|s| &s.place_qos_rejected),
            outcomes_total: sum(&|s| &s.outcomes_total),
            outcomes_below_floor: sum(&|s| &s.outcomes_below_floor),
            err_sum_micros: sum(&|s| &s.err_sum_micros),
            err_count: sum(&|s| &s.err_count),
        }
    }

    /// Merge the per-writer since-boot per-game QoS counters.
    pub fn per_game(&self) -> BTreeMap<u64, GameSlo> {
        let mut merged = BTreeMap::new();
        for block in &self.blocks {
            block.games.merge_into(&mut merged);
        }
        merged
    }
}

/// One worker's handle on its block for one clock reading: what is written
/// through it lands in the since-boot part and, where the SLO engine reads
/// it, in the second `now_us` falls in. The daemon makes one per frame, from
/// the frame's one clock read.
pub struct Writer<'a> {
    slow: &'a SlowLog,
    block: &'a Block,
    second: &'a Second,
    /// The clock reading (µs) this writer was positioned with.
    pub now_us: u64,
}

impl Writer<'_> {
    /// Add `n` to a lifecycle counter of this worker's block.
    pub fn note(&self, counter: Counter, n: u64) {
        bump(&self.block.lifecycle[counter as usize], n);
    }

    /// Record a queue-wait sample (one per connection, at dequeue).
    pub fn queue_wait(&self, us: u64) {
        self.block.stages[Stage::QueueWait as usize].record(us);
    }

    /// First flush point, before the reply is written: the outcome and
    /// handler latency of one request of kind `kind` (an index into
    /// [`REQUEST_KINDS`]).
    pub fn record(&self, kind: usize, ok: bool, latency_us: u64) {
        let totals = &self.block.kinds[kind];
        bump(if ok { &totals.ok } else { &totals.errors }, 1);
        totals.latency.record(latency_us);
    }

    /// Second flush point, after the write attempt: one since-boot sample
    /// for each of the six request stages (a stage that did not run
    /// contributes a zero-duration sample, so every request stage's count
    /// equals the number of handled requests), the windowed outcome count,
    /// the windowed whole-request latency of a placement (`is_place`), and
    /// an offer to the slow-request ring carrying the request's identity.
    pub fn flush(
        &self,
        kind: usize,
        ok: bool,
        is_place: bool,
        trace: &RequestTrace,
        meta: SlowMeta,
    ) {
        let second = self.second;
        bump(
            if ok {
                &second.requests_ok
            } else {
                &second.requests_err
            },
            1,
        );
        for &stage in REQUEST_STAGES.iter() {
            self.block.stages[stage as usize].record(trace.get(stage));
        }
        if is_place {
            second.place.record(trace.total_us());
        }
        self.slow.offer(REQUEST_KINDS[kind], trace, meta);
    }

    /// Record one placement attempt for `game`: admitted, or rejected on
    /// saturation.
    pub fn place_attempt(&self, game: u32, admitted: bool) {
        let [attempts, rejected, ..] = self.block.games.entry(game);
        bump(&self.second.place_attempts, 1);
        bump(attempts, 1);
        if !admitted {
            bump(&self.second.place_qos_rejected, 1);
            bump(rejected, 1);
        }
    }

    /// Record one ingested outcome report for `game`: whether observed FPS
    /// fell below the QoS floor, and its absolute relative FPS error.
    pub fn outcome(&self, game: u32, below_floor: bool, abs_rel_err: f64) {
        let [_, _, outcomes, below] = self.block.games.entry(game);
        bump(&self.second.outcomes_total, 1);
        bump(outcomes, 1);
        if below_floor {
            bump(&self.second.outcomes_below_floor, 1);
            bump(below, 1);
        }
        if abs_rel_err.is_finite() && abs_rel_err >= 0.0 {
            bump(&self.second.err_sum_micros, (abs_rel_err * 1e6) as u64);
            bump(&self.second.err_count, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::REQUEST_STAGES;
    use proptest::prelude::*;

    const PLACE: usize = 0;
    const PREDICT: usize = 3;

    fn one_worker() -> Telemetry {
        Telemetry::new(1, 0, 0)
    }

    /// Per-kind latency of `place` after recording `samples` at time 0.
    fn place_latency(samples: &[(bool, u64)]) -> StageStats {
        let t = one_worker();
        for &(ok, us) in samples {
            t.writer(0, 0).record(PLACE, ok, us);
        }
        t.snapshot(0).per_request["place"].latency.clone()
    }

    fn place_trace(total_us: u64) -> RequestTrace {
        let mut t = RequestTrace::new();
        t.add(Stage::Place, total_us);
        t
    }

    /// One handled request at `now_us`, both flush points.
    fn handle(t: &Telemetry, worker: usize, now_us: u64, ok: bool, is_place: bool, us: u64) {
        let w = t.writer(worker, now_us);
        w.record(PLACE, ok, us);
        w.flush(PLACE, ok, is_place, &place_trace(us), SlowMeta::default());
    }

    const SEC: u64 = 1_000_000;

    #[test]
    fn percentiles_track_the_histogram() {
        let t = one_worker();
        for _ in 0..99 {
            t.writer(0, 0).record(PREDICT, true, 3);
        }
        t.writer(0, 0).record(PREDICT, true, 900); // one slow outlier (≤1000 bucket)
        let rs = t.snapshot(0).per_request["predict"].clone();
        assert_eq!(rs.latency.count, rs.total());
        assert_eq!(rs.latency.percentile_us(50.0), 5);
        assert_eq!(rs.latency.percentile_us(99.0), 5);
        assert_eq!(rs.latency.percentile_us(100.0), 1_000);
        assert_eq!(StageStats::default().percentile_us(50.0), 0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max_not_u64_max() {
        // A latency beyond the last bucket bound used to make percentile_us
        // return u64::MAX, which poisoned the load driver's aggregates.
        let rs = place_latency(&[(true, 3_456_789)]); // overflow (> 1s)
        assert_eq!(rs.max_us, 3_456_789);
        assert_eq!(rs.percentile_us(50.0), 3_456_789);
        assert_eq!(rs.percentile_us(100.0), 3_456_789);

        // Mixed: fast requests keep their bucket bounds, only ranks landing
        // in the overflow bucket use the observed max.
        let mut samples = vec![(true, 4); 9];
        samples.push((true, 2_000_000));
        let rs = place_latency(&samples);
        assert_eq!(rs.percentile_us(50.0), 5);
        assert_eq!(rs.percentile_us(90.0), 5);
        assert_eq!(rs.percentile_us(100.0), 2_000_000);
        assert_eq!(rs.max_us, 2_000_000);
    }

    // The one histogram's bucket-boundary behaviour. The same samples
    // recorded as a kind's latency and as a stage's durations merge into
    // equal values of the one wire type.
    #[test]
    fn percentile_bucket_boundaries() {
        let both = |samples: &[u64]| {
            let t = one_worker();
            for &us in samples {
                let mut trace = RequestTrace::new();
                trace.add(Stage::Decode, us);
                let w = t.writer(0, 0);
                w.record(PLACE, true, us);
                w.flush(PLACE, true, true, &trace, SlowMeta::default());
            }
            let snap = t.snapshot(0);
            let rs = snap.per_request["place"].clone();
            let st = snap.per_stage["decode"].clone();
            assert_eq!(rs.latency, st);
            assert_eq!(rs.total(), st.count);
            st
        };
        // 10 samples exactly on bucket 0's upper bound (≤5µs), 10 in the
        // next bucket (≤10µs).
        let st = both(&[[5u64; 10], [6u64; 10]].concat());
        // p=50 → rank 10, which is the *last* sample of bucket 0: a rank
        // landing exactly on a bucket edge stays in the lower bucket.
        assert_eq!(st.percentile_us(50.0), 5);
        // Any rank past the edge crosses into the next bucket's bound.
        assert_eq!(st.percentile_us(50.1), 10);
        // p=0 clamps the rank to 1: the first bucket with samples.
        assert_eq!(st.percentile_us(0.0), 5);
        // p=100 is the last bucket with samples.
        assert_eq!(st.percentile_us(100.0), 10);
        // The sum feeds the exporter's `_sum` series.
        assert_eq!(st.total_us, 10 * 5 + 10 * 6);
        // Empty → 0.
        assert_eq!(StageStats::default().percentile_us(50.0), 0);

        // Overflow-bucket rank reports the observed max, not a bound.
        let st = both(&[1_000_000, 1_000_001]); // last real bucket's edge, first value past it
        assert_eq!(st.buckets[N_BUCKETS - 2], 1);
        assert_eq!(st.buckets[N_BUCKETS - 1], 1);
        assert_eq!(st.percentile_us(50.0), 1_000_000);
        assert_eq!(st.percentile_us(100.0), 1_000_001);
        assert_eq!(st.max_us, 1_000_001);
    }

    #[test]
    fn every_kind_and_stage_is_preregistered() {
        let snap = one_worker().snapshot(0);
        let empty = StageStats {
            buckets: vec![0; N_BUCKETS],
            ..StageStats::default()
        };
        for kind in REQUEST_KINDS {
            assert_eq!(snap.per_request[kind].latency, empty, "{kind}");
        }
        for stage in Stage::ALL {
            assert_eq!(snap.per_stage[stage.name()], empty, "{}", stage.name());
        }
    }

    // The ring is allocated whole per worker: 308 of these.
    #[test]
    fn a_second_holds_only_what_the_windows_read() {
        assert_eq!(std::mem::size_of::<Second>(), 192);
    }

    #[test]
    fn uptime_counts_from_the_start_reading() {
        let t = Telemetry::new(1, 0, 5 * SEC);
        assert_eq!(t.snapshot(5 * SEC).uptime_ms, 0);
        assert_eq!(t.snapshot(5 * SEC + 2_500_000).uptime_ms, 2_500);
        // A clock that jumps backwards must not underflow.
        assert_eq!(t.snapshot(0).uptime_ms, 0);
    }

    #[test]
    fn every_request_stage_gets_one_sample_per_request() {
        let t = Telemetry::new(3, 4, 0);
        let stages = |us: [u64; 6]| {
            let mut trace = RequestTrace::new();
            for (stage, us) in REQUEST_STAGES.iter().zip(us) {
                trace.add(*stage, us);
            }
            trace
        };
        // A request that never predicts, places or waits for a shard lock
        // still contributes zero-duration samples to those stages.
        let depart = stages([7, 0, 0, 0, 2, 3]);
        t.writer(0, 0)
            .flush(2, true, false, &depart, SlowMeta::default());
        let place = stages([5, 40, 60, 9, 3, 4]);
        t.writer(1, 0)
            .flush(PLACE, true, true, &place, SlowMeta::default());
        let place = stages([6, 30, 50, 0, 2, 9]);
        t.writer(2, 0)
            .flush(PLACE, true, true, &place, SlowMeta::default());
        let snap = t.snapshot(0).per_stage;
        for stage in REQUEST_STAGES {
            assert_eq!(snap[stage.name()].count, 3, "{}", stage.name());
            assert_eq!(snap[stage.name()].buckets.iter().sum::<u64>(), 3);
        }
        assert_eq!(snap["predict"].total_us, 70);
        assert_eq!(snap["place"].max_us, 60);
        assert_eq!(snap["place_admit_wait"].total_us, 9);
        assert_eq!(snap["place_admit_wait"].max_us, 9);
        assert_eq!(snap["queue_wait"].count, 0);
        // Blocks merge: workers 0..3 each recorded one request.
        assert_eq!(snap["decode"].total_us, 18);
    }

    #[test]
    fn queue_wait_is_per_connection() {
        let t = Telemetry::new(2, 4, 0);
        t.writer(0, 0).queue_wait(11);
        t.writer(1, 0).queue_wait(3);
        let snap = t.snapshot(0).per_stage;
        assert_eq!(snap["queue_wait"].count, 2);
        assert_eq!(snap["queue_wait"].total_us, 14);
        assert_eq!(snap["queue_wait"].max_us, 11);
        assert_eq!(t.views(0)[0].request_rate(), 0.0, "no request was handled");
    }

    #[test]
    fn windows_fill_and_expire_at_exact_boundaries() {
        let t = one_worker();
        handle(&t, 0, 5 * SEC, true, true, 100);

        // Same second: present in every window.
        let v = t.views(5 * SEC);
        assert_eq!(v[0].requests_ok, 1);
        assert_eq!(v[1].requests_ok, 1);
        assert_eq!(v[2].requests_ok, 1);
        assert_eq!(v[0].active_secs, 1);

        // 9 seconds later (age 9 < 10): still inside the 10 s window.
        assert_eq!(t.views((5 + 9) * SEC)[0].requests_ok, 1);

        // Age 10: just expired from 10 s, still in 1 m and 5 m.
        let v = t.views((5 + 10) * SEC);
        assert_eq!(v[0].requests_ok, 0);
        assert_eq!(v[0].active_secs, 0);
        assert_eq!(v[1].requests_ok, 1);
        assert_eq!(v[2].requests_ok, 1);

        // Age 59 vs 60 for the 1 m window.
        assert_eq!(t.views((5 + 59) * SEC)[1].requests_ok, 1);
        let v = t.views((5 + 60) * SEC);
        assert_eq!(v[1].requests_ok, 0);
        assert_eq!(v[2].requests_ok, 1);

        // Age 299 vs 300 for the 5 m window.
        assert_eq!(t.views((5 + 299) * SEC)[2].requests_ok, 1);
        assert_eq!(t.views((5 + 300) * SEC)[2].requests_ok, 0);
    }

    #[test]
    fn empty_windows_read_as_zero_everywhere() {
        let t = Telemetry::new(4, 0, 0);
        for v in t.views(0) {
            assert_eq!(v.active_secs, 0);
            assert_eq!(v.request_rate(), 0.0);
            assert_eq!(v.qos_reject_ratio(), 0.0);
            assert_eq!(v.outcome_below_floor_ratio(), 0.0);
            assert_eq!(v.windowed_mae(), 0.0);
            assert_eq!(v.place_p99_us(), 0);
            assert_eq!(v.place_attempts, 0);
            assert_eq!(v.place_latency.count, 0);
            assert_eq!(v.place_latency.buckets, vec![0; N_BUCKETS]);
        }
        assert!(t.per_game().is_empty());
    }

    #[test]
    fn a_clock_skip_empties_every_window() {
        let t = one_worker();
        handle(&t, 0, 0, true, false, 0);
        assert_eq!(t.views(0)[2].requests_ok, 1);
        // The clock leaps far past every window (e.g. a suspended VM).
        let later = 10_000 * SEC;
        for v in t.views(later) {
            assert_eq!(v.requests_ok, 0);
            assert_eq!(v.active_secs, 0);
        }
        // Recording after the skip starts a fresh window.
        handle(&t, 0, later, true, false, 0);
        assert_eq!(t.views(later)[0].requests_ok, 1);
    }

    #[test]
    fn a_stalled_clock_accumulates_into_one_second() {
        let t = one_worker();
        for _ in 0..50 {
            handle(&t, 0, 7_500_000, true, true, 30);
        }
        let v = t.views(7_500_000);
        assert_eq!(v[0].requests_ok, 50);
        assert_eq!(v[0].active_secs, 1, "a frozen clock is one active second");
        assert_eq!(v[0].request_rate(), 5.0, "rate spreads over the window");
        assert_eq!(v[0].place_latency.count, 50);
    }

    #[test]
    fn a_backwards_clock_hides_future_slots_until_overwritten() {
        let t = one_worker();
        handle(&t, 0, 100 * SEC, true, false, 0);
        // Backwards: the slot at second 100 is "future" at second 50.
        for v in t.views(50 * SEC) {
            assert_eq!(v.requests_ok, 0, "future-stamped slots are ignored");
        }
        handle(&t, 0, 50 * SEC, true, false, 0);
        assert_eq!(t.views(50 * SEC)[0].requests_ok, 1);
    }

    #[test]
    fn ring_wraparound_zeroes_stale_slots() {
        let t = one_worker();
        for _ in 0..9 {
            handle(&t, 0, 3 * SEC, true, true, 2_000_000);
        }
        t.writer(0, 3 * SEC).place_attempt(1, true);
        // One full ring later the same slot index holds a different second;
        // the writer must zero it before reusing it.
        let later = (3 + RING_SLOTS as u64) * SEC;
        handle(&t, 0, later, true, true, 1);
        let v = t.views(later);
        assert_eq!(v[0].requests_ok, 1, "stale counts were cleared");
        assert_eq!(v[2].requests_ok, 1);
        assert_eq!(v[2].place_latency.total_us, 1);
        assert_eq!(v[2].place_latency.max_us, 5);
        assert_eq!(v[2].place_attempts, 0);
        // The since-boot part is not windowed.
        assert_eq!(t.snapshot(later).per_stage["place"].count, 10);
    }

    #[test]
    fn games_that_collide_or_overflow_the_table_keep_their_own_counters() {
        let t = one_worker();
        let w = t.writer(0, 0);
        // Every id here shares home slot 7 of the first table (and of the
        // chained ones, whose sizes are multiples of it), so the probe
        // window fills and the rest chain; a huge id is as good as a small.
        let games: Vec<u32> = (0..40)
            .map(|i| 7 + i * 4 * GameTable::SLOTS as u32)
            .chain([u32::MAX])
            .collect();
        for (n, &game) in games.iter().enumerate() {
            for _ in 0..=n {
                w.place_attempt(game, false);
            }
            w.outcome(game, true, 0.0);
        }
        let merged = t.per_game();
        assert_eq!(merged.len(), games.len());
        for (n, game) in games.iter().enumerate() {
            let counts = merged[&u64::from(*game)];
            assert_eq!(counts.place_attempts, n as u64 + 1, "game {game}");
            assert_eq!(counts.qos_rejected, n as u64 + 1);
            assert_eq!(counts.outcomes, 1);
            assert_eq!(counts.outcomes_below_floor, 1);
        }
    }

    // What the three old sinks never had: scrapes racing the writers. Every
    // counter has one writing thread, so anything a scrape sums may lag but
    // never steps backwards, and is exact once the writers are joined.
    #[test]
    fn concurrent_scrapes_are_monotone_and_exact_after_join() {
        use std::sync::atomic::AtomicBool;
        // Every number in the since-boot JSON is a counter, a bucket, a sum
        // or a maximum (the slow ring, whose entries come and go, is off).
        let series = |t: &Telemetry| -> Vec<u64> {
            let json = serde_json::to_string(&t.snapshot(0)).unwrap()
                + &serde_json::to_string(&t.per_game()).unwrap();
            let numbers = json.split(|c: char| !c.is_ascii_digit());
            numbers.filter_map(|n| n.parse().ok()).collect()
        };
        let write = |t: &Telemetry, worker: usize, i: u64| {
            let w = t.writer(worker, 0);
            let us = (i % 7) * 40 + worker as u64;
            w.queue_wait(us);
            w.place_attempt((i % 5) as u32, !i.is_multiple_of(3));
            w.outcome((i % 5) as u32, i.is_multiple_of(2), 0.5);
            w.note(Counter::Admitted, 1);
            w.record(worker, !i.is_multiple_of(4), us);
            let trace = place_trace(us);
            w.flush(worker, true, worker == 0, &trace, SlowMeta::default());
            t.note(worker, Counter::ConnectionsClosed, 1);
        };
        // The writers run for as long as the scraper scrapes: the overlap is
        // forced by the flag, not hoped for from timing. Each touches every
        // game before the first scrape, so the series keep their layout.
        let t = Telemetry::new(2, 0, 0);
        let warmed = std::sync::Barrier::new(3);
        let stop = AtomicBool::new(false);
        let done: Vec<u64> = std::thread::scope(|scope| {
            let spawn = |worker: usize| {
                let (t, write, warmed, stop) = (&t, &write, &warmed, &stop);
                scope.spawn(move || {
                    (0..5).for_each(|i| write(t, worker, i));
                    warmed.wait();
                    let mut i = 5;
                    while !stop.load(Ordering::Relaxed) {
                        write(t, worker, i);
                        i += 1;
                    }
                    i
                })
            };
            let writers = [spawn(0), spawn(1)];
            warmed.wait();
            let mut last = series(&t);
            for _ in 0..300 {
                let now = series(&t);
                assert_eq!(now.len(), last.len());
                for (i, (was, is)) in last.iter().zip(&now).enumerate() {
                    assert!(is >= was, "series {i} stepped back: {was} -> {is}");
                }
                last = now;
            }
            stop.store(true, Ordering::Relaxed);
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(
            done.iter().all(|&n| n > 5),
            "the writers ran beside the scrapes"
        );
        // Exact: the same writes replayed on one thread read the same.
        let replay = Telemetry::new(2, 0, 0);
        for (worker, &n) in done.iter().enumerate() {
            (0..n).for_each(|i| write(&replay, worker, i));
        }
        assert_eq!(series(&t), series(&replay));
        assert_eq!(t.views(0), replay.views(0));
    }

    proptest! {
        // Merged windows equal the field-wise sum of the same samples
        // recorded into one single-worker collector per worker at the same
        // times. Each sample is a request; a placement also counts an
        // attempt (admitted when ok) and any other request an outcome, so
        // every scalar a window holds is exercised.
        #[test]
        fn merged_views_equal_per_worker_sums(
            samples in proptest::collection::vec(
                (0usize..4, 0u64..2_000_000, any::<bool>(), any::<bool>()),
                1..60,
            ),
            start_sec in 0u64..400,
            spread_secs in 0u64..8,
        ) {
            let merged = Telemetry::new(4, 0, 0);
            let singles: Vec<Telemetry> = (0..4).map(|_| one_worker()).collect();
            let second = |i: usize| start_sec + (i as u64) % (spread_secs + 1);
            for (i, &(worker, us, ok, is_place)) in samples.iter().enumerate() {
                let now_us = second(i) * SEC;
                for (t, worker) in [(&merged, worker), (&singles[worker], 0)] {
                    handle(t, worker, now_us, ok, is_place, us);
                    let w = t.writer(worker, now_us);
                    if is_place {
                        w.place_attempt(worker as u32, ok);
                    } else {
                        w.outcome(worker as u32, !ok, us as f64 / 1e6);
                    }
                }
            }
            let now_sec = start_sec + spread_secs;
            let sum_of = |parts: Vec<&StageStats>| {
                let mut sum = StageStats {
                    buckets: vec![0; N_BUCKETS],
                    ..StageStats::default()
                };
                for st in parts {
                    sum.count += st.count;
                    sum.total_us += st.total_us;
                    for (b, &v) in st.buckets.iter().enumerate() {
                        sum.buckets[b] += v;
                    }
                }
                sum.max_us = bucket_bounded_max(&sum.buckets);
                sum
            };
            let got = merged.views(now_sec * SEC);
            let parts: Vec<Vec<WindowView>> =
                singles.iter().map(|t| t.views(now_sec * SEC)).collect();
            for (wi, view) in got.iter().enumerate() {
                let parts: Vec<&WindowView> = parts.iter().map(|p| &p[wi]).collect();
                let total = |of: fn(&WindowView) -> u64| parts.iter().map(|p| of(p)).sum::<u64>();
                // Active seconds are the distinct seconds written inside the
                // window, not a sum over workers.
                let active: std::collections::BTreeSet<u64> = (0..samples.len())
                    .map(second)
                    .filter(|&sec| now_sec - sec < view.window_secs)
                    .collect();
                let want = WindowView {
                    window_secs: view.window_secs,
                    active_secs: active.len() as u64,
                    requests_ok: total(|p| p.requests_ok),
                    requests_err: total(|p| p.requests_err),
                    place_latency: sum_of(parts.iter().map(|p| &p.place_latency).collect()),
                    place_attempts: total(|p| p.place_attempts),
                    place_qos_rejected: total(|p| p.place_qos_rejected),
                    outcomes_total: total(|p| p.outcomes_total),
                    outcomes_below_floor: total(|p| p.outcomes_below_floor),
                    err_sum_micros: total(|p| p.err_sum_micros),
                    err_count: total(|p| p.err_count),
                };
                prop_assert_eq!(view, &want, "window {}", wi);
                prop_assert_eq!(want.place_latency.count, want.place_latency.buckets.iter().sum::<u64>());
            }
        }
    }
}

//! The unified online-prediction interface and its batched query plan.
//!
//! Every interference model in the workspace — [`GAugur`] here, the
//! Sigmoid/SMiTe/VBP baselines in `gaugur-baselines` — answers the same
//! three questions: how much does a target degrade under a co-runner set,
//! does it still meet a QoS floor, and (for the hot path) both of those
//! over a whole batch of queries at once. [`InterferencePredictor`] is
//! that contract; the scheduler and serving daemon program against it
//! instead of concrete model types.
//!
//! [`DegradationBatch`] is the query plan: co-runner sets are stored as
//! spans into one shared placement pool, so scoring every member of one
//! colocation ([`DegradationBatch::push_colocation`]) shares a single
//! intensity gather instead of materializing `k` filtered `Vec`s.
//!
//! Scratch-buffer ownership: the caller owns a [`FeatureBuffer`] (and the
//! output `Vec`), one per worker; a batch call borrows them, overwrites
//! their contents, and leaves the grown capacity behind. Predictors never
//! keep internal mutable state, so one immutable predictor can serve any
//! number of workers, each with its own scratch.

use crate::features::{
    aggregate_excluding, flatten_sensitivity_into, FeatureBuffer, AGGREGATE_INTENSITY_WIDTH,
    NO_SKIP,
};
use crate::gaugur::GAugur;
use crate::train::Placement;
use std::ops::Range;

/// One co-runner span inside a [`DegradationBatch`]: `len` placements
/// starting at `start` in the pool, with `skip` (an index *within the
/// span*) excluded, or nothing excluded when `skip == NO_SKIP`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: usize,
    skip: usize,
}

/// A batch of degradation queries against one predictor.
///
/// Reusable: `clear` and refill each decision round; the backing storage
/// is retained.
#[derive(Debug, Default)]
pub struct DegradationBatch {
    targets: Vec<Placement>,
    pool: Vec<Placement>,
    spans: Vec<Span>,
}

impl DegradationBatch {
    /// A fresh, empty batch.
    pub fn new() -> DegradationBatch {
        DegradationBatch::default()
    }

    /// Drop all queries, keeping capacity.
    pub fn clear(&mut self) {
        self.targets.clear();
        self.pool.clear();
        self.spans.clear();
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when no queries are queued.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Queue one query: degradation of `target` under co-runners `others`.
    pub fn push(&mut self, target: Placement, others: &[Placement]) {
        let start = self.pool.len();
        self.pool.extend_from_slice(others);
        self.targets.push(target);
        self.spans.push(Span {
            start,
            len: others.len(),
            skip: NO_SKIP,
        });
    }

    /// Queue one query per member of a colocation: member `i`'s co-runner
    /// set is the other `members`. The members are pooled once and shared
    /// by all `members.len()` queries, so a batched predictor can reuse
    /// one intensity gather across them.
    pub fn push_colocation(&mut self, members: &[Placement]) {
        let start = self.pool.len();
        self.pool.extend_from_slice(members);
        for (i, &m) in members.iter().enumerate() {
            self.targets.push(m);
            self.spans.push(Span {
                start,
                len: members.len(),
                skip: i,
            });
        }
    }

    /// The target of query `i`.
    pub fn target(&self, i: usize) -> Placement {
        self.targets[i]
    }

    /// Materialize query `i`'s co-runner set into `out` (cleared first).
    /// Used by the scalar fallback; batched implementations read the span
    /// directly instead.
    pub fn copy_others_into(&self, i: usize, out: &mut Vec<Placement>) {
        out.clear();
        let span = self.spans[i];
        for (j, &p) in self.pool[span.start..span.start + span.len]
            .iter()
            .enumerate()
        {
            if j != span.skip {
                out.push(p);
            }
        }
    }

    fn span(&self, i: usize) -> Span {
        self.spans[i]
    }

    fn pool_slice(&self, span: Span) -> &[Placement] {
        &self.pool[span.start..span.start + span.len]
    }
}

/// The unified online interface of every interference model.
///
/// Implementations must be immutable (`&self`) and [`Sync`]: the scheduler
/// shares one predictor across workers, each bringing its own scratch.
pub trait InterferencePredictor: Sync {
    /// Predicted degradation ratio (colocated FPS / solo FPS) of `target`
    /// under the co-runner set `others`.
    fn predict_degradation(&self, target: Placement, others: &[Placement]) -> f64;

    /// Does `target` meet `qos` FPS under the co-runner set `others`?
    fn meets_qos(&self, qos: f64, target: Placement, others: &[Placement]) -> bool;

    /// Short display name ("GAugur(RM)", "Sigmoid", …) for tables and logs.
    fn name(&self) -> &'static str;

    /// Answer every query in `batch`, writing `batch.len()` degradation
    /// ratios into `out` (cleared first) in query order. Must be
    /// bit-identical to calling [`predict_degradation`] per query.
    ///
    /// The default materializes each co-runner set into the scratch and
    /// loops; batched models override this with one fused evaluation.
    ///
    /// [`predict_degradation`]: InterferencePredictor::predict_degradation
    fn predict_degradation_batch(
        &self,
        batch: &DegradationBatch,
        scratch: &mut FeatureBuffer,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let mut others = std::mem::take(&mut scratch.others);
        for i in 0..batch.len() {
            batch.copy_others_into(i, &mut others);
            out.push(self.predict_degradation(batch.target(i), &others));
        }
        scratch.others = others;
    }

    /// The first of two stages answering `batch`: one value per query in
    /// `out` (cleared first), in query order — an upper bound on the
    /// query's degradation ratio, compared as `f64` (NaN bounds nothing),
    /// or, when this returns `true`, the ratio itself.
    /// [`finish_degradation_batch`] then gives the exact ratio of any query
    /// from what this left in `scratch`. A caller that can tell from the
    /// bound that a query's ratio cannot matter skips the second stage.
    ///
    /// The default has one stage: [`predict_degradation_batch`], exact.
    ///
    /// [`finish_degradation_batch`]: InterferencePredictor::finish_degradation_batch
    /// [`predict_degradation_batch`]: InterferencePredictor::predict_degradation_batch
    fn bound_degradation_batch(
        &self,
        batch: &DegradationBatch,
        scratch: &mut FeatureBuffer,
        out: &mut Vec<f64>,
    ) -> bool {
        self.predict_degradation_batch(batch, scratch, out);
        true
    }

    /// The second stage: the degradation ratios of queries `queries` of
    /// `batch`, one per query into `out`, after a
    /// [`bound_degradation_batch`] of the same batch through the same
    /// `scratch` returned `false` (and nothing used the scratch since).
    /// Bit-identical to [`predict_degradation`]; the default calls it
    /// query by query.
    ///
    /// [`bound_degradation_batch`]: InterferencePredictor::bound_degradation_batch
    /// [`predict_degradation`]: InterferencePredictor::predict_degradation
    fn finish_degradation_batch(
        &self,
        batch: &DegradationBatch,
        queries: Range<usize>,
        scratch: &mut FeatureBuffer,
        out: &mut [f64],
    ) {
        let mut others = std::mem::take(&mut scratch.others);
        for (i, v) in queries.zip(out) {
            batch.copy_others_into(i, &mut others);
            *v = self.predict_degradation(batch.target(i), &others);
        }
        scratch.others = others;
    }
}

impl GAugur {
    /// Every query's RM features into `scratch.rows`, one row after
    /// another, from one intensity gather per distinct colocation span: the
    /// 15 `I_G` features with target prefixes, all 92 without.
    fn gather_rows(&self, batch: &DegradationBatch, scratch: &mut FeatureBuffer) {
        let FeatureBuffer {
            intensities, rows, ..
        } = scratch;
        rows.clear();
        if self.rm_prefixes.is_some() {
            // Grown for the whole batch at once, not row by row.
            rows.reserve(batch.len() * AGGREGATE_INTENSITY_WIDTH);
        }
        let mut gathered: Option<(usize, usize)> = None;
        for i in 0..batch.len() {
            let span = batch.span(i);
            if gathered != Some((span.start, span.len)) {
                intensities.clear();
                for &(id, res) in batch.pool_slice(span) {
                    intensities.push(self.profiles.get(id).intensity_at(res));
                }
                gathered = Some((span.start, span.len));
            }
            if self.rm_prefixes.is_none() {
                flatten_sensitivity_into(self.profiles.get(batch.target(i).0), rows);
            }
            aggregate_excluding(intensities, span.skip, rows);
        }
    }
}

impl InterferencePredictor for GAugur {
    fn predict_degradation(&self, target: Placement, others: &[Placement]) -> f64 {
        GAugur::predict_degradation(self, target, others)
    }

    fn meets_qos(&self, qos: f64, target: Placement, others: &[Placement]) -> bool {
        self.predict_qos(qos, target, others)
    }

    fn name(&self) -> &'static str {
        "GAugur(RM)"
    }

    /// Fused batch path: one intensity gather per distinct colocation span
    /// and one model call for every row. With target prefixes, a row is its
    /// 15 `I_G` features, applied to its target's prefix with three other
    /// rows in the lanes of one block; otherwise it is all 92
    /// RM features, and each row walks the RM's trees. Bit-identical to the
    /// scalar path either way: features come from the same aggregation
    /// code, the prefix path reaches the same exit leaves, and every path
    /// sums them in tree order.
    fn predict_degradation_batch(
        &self,
        batch: &DegradationBatch,
        scratch: &mut FeatureBuffer,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if batch.is_empty() {
            return;
        }
        self.gather_rows(batch, scratch);
        let FeatureBuffer {
            rows,
            scaled,
            block,
            ..
        } = scratch;
        match &self.rm_prefixes {
            Some(prefixes) => {
                prefixes.predict_rows(&batch.targets, rows, block, out);
                for v in out.iter_mut() {
                    *v = self.rm.clamp(*v);
                }
            }
            None => {
                let width = rows.len() / batch.len();
                let rows = rows.chunks_exact(width);
                out.extend(rows.map(|row| self.rm.predict_into(row, scaled)));
            }
        }
    }

    /// With target prefixes, the RM's first stage: each row's leaf sum over
    /// its first 100 trees, kept in `scratch`, and its clamped bound —
    /// monotone roundings of a bound on the raw sum, so `≥` the clamped
    /// ratio. Without, one exact stage.
    fn bound_degradation_batch(
        &self,
        batch: &DegradationBatch,
        scratch: &mut FeatureBuffer,
        out: &mut Vec<f64>,
    ) -> bool {
        let Some(prefixes) = &self.rm_prefixes else {
            self.predict_degradation_batch(batch, scratch, out);
            return true;
        };
        out.clear();
        self.gather_rows(batch, scratch);
        let FeatureBuffer {
            rows,
            block,
            partials,
            ..
        } = scratch;
        partials.clear();
        prefixes.bound_rows(&batch.targets, rows, block, partials, out);
        for v in out.iter_mut() {
            *v = self.rm.clamp(*v);
        }
        false
    }

    /// The RM's second stage, continuing each row's leaf sum from the
    /// first: the same bits as [`GAugur::predict_degradation_batch`].
    fn finish_degradation_batch(
        &self,
        batch: &DegradationBatch,
        queries: Range<usize>,
        scratch: &mut FeatureBuffer,
        out: &mut [f64],
    ) {
        let prefixes = self
            .rm_prefixes
            .as_ref()
            .expect("a two-stage answer comes from target prefixes");
        let FeatureBuffer {
            rows,
            block,
            partials,
            ..
        } = scratch;
        let free = &rows
            [queries.start * AGGREGATE_INTENSITY_WIDTH..queries.end * AGGREGATE_INTENSITY_WIDTH];
        let (targets, partials) = (&batch.targets[queries.clone()], &partials[queries]);
        prefixes.finish_rows(targets, free, partials, block, out);
        for v in out.iter_mut() {
            *v = self.rm.clamp(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaugur::GAugurConfig;
    use crate::train::ColocationPlan;
    use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server};

    fn quick_build() -> (GameCatalog, GAugur) {
        let server = Server::reference(31);
        let catalog = GameCatalog::generate(42, 10);
        let config = GAugurConfig {
            plan: ColocationPlan {
                pairs: 25,
                triples: 8,
                quads: 0,
                seed: 2,
            },
            ..GAugurConfig::default()
        };
        let gaugur = GAugur::build(&server, &catalog, config);
        (catalog, gaugur)
    }

    #[test]
    fn batched_degradation_is_bit_identical_to_scalar() {
        let (catalog, gaugur) = quick_build();
        let ids: Vec<GameId> = catalog.games().iter().map(|g| g.id).collect();
        let res = Resolution::Fhd1080;

        let mut batch = DegradationBatch::new();
        let mut expected = Vec::new();

        // Explicit-others queries, including the empty co-runner set.
        for w in ids.windows(3) {
            let target = (w[0], res);
            let others = [(w[1], res), (w[2], Resolution::Hd720)];
            batch.push(target, &others);
            expected.push(gaugur.predict_degradation(target, &others));
            batch.push(target, &[]);
            expected.push(gaugur.predict_degradation(target, &[]));
        }
        // Shared-colocation queries: every member of one group.
        for w in ids.windows(4) {
            let members: Vec<Placement> = w.iter().map(|&g| (g, res)).collect();
            batch.push_colocation(&members);
            for i in 0..members.len() {
                let others: Vec<Placement> = members
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &p)| p)
                    .collect();
                expected.push(gaugur.predict_degradation(members[i], &others));
            }
        }

        let mut scratch = FeatureBuffer::new();
        let mut out = Vec::new();
        gaugur.predict_degradation_batch(&batch, &mut scratch, &mut out);
        assert_eq!(out.len(), expected.len());
        for (i, (a, b)) in out.iter().zip(&expected).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "query {i}: {a} vs {b}");
        }

        // The scalar-fallback default must agree too (it is the reference
        // the baselines inherit).
        struct ScalarOnly<'a>(&'a GAugur);
        impl InterferencePredictor for ScalarOnly<'_> {
            fn predict_degradation(&self, t: Placement, o: &[Placement]) -> f64 {
                self.0.predict_degradation(t, o)
            }
            fn meets_qos(&self, q: f64, t: Placement, o: &[Placement]) -> bool {
                self.0.predict_qos(q, t, o)
            }
            fn name(&self) -> &'static str {
                "scalar"
            }
        }
        let mut fallback = Vec::new();
        ScalarOnly(&gaugur).predict_degradation_batch(&batch, &mut scratch, &mut fallback);
        assert_eq!(fallback.len(), expected.len());
        for (a, b) in fallback.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn trait_meets_qos_is_the_cm_judgement() {
        let (catalog, gaugur) = quick_build();
        let res = Resolution::Fhd1080;
        let t = (catalog[0].id, res);
        let o = [(catalog[1].id, res)];
        let p: &dyn InterferencePredictor = &gaugur;
        assert_eq!(p.meets_qos(60.0, t, &o), gaugur.predict_qos(60.0, t, &o));
        assert_eq!(p.name(), "GAugur(RM)");
    }

    #[test]
    fn batch_reuse_after_clear_is_clean() {
        let (catalog, gaugur) = quick_build();
        let res = Resolution::Fhd1080;
        let t = (catalog[0].id, res);
        let o = [(catalog[1].id, res)];

        let mut batch = DegradationBatch::new();
        let mut scratch = FeatureBuffer::new();
        let mut out = Vec::new();

        batch.push_colocation(&[t, o[0], (catalog[2].id, res)]);
        gaugur.predict_degradation_batch(&batch, &mut scratch, &mut out);
        assert_eq!(out.len(), 3);

        batch.clear();
        assert!(batch.is_empty());
        batch.push(t, &o);
        gaugur.predict_degradation_batch(&batch, &mut scratch, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].to_bits(),
            gaugur.predict_degradation(t, &o).to_bits()
        );
    }
}

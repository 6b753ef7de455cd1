//! Feature-vector assembly for the prediction models (paper Section 3.4).
//!
//! The number of colocated games varies, but the models need fixed-width
//! inputs. The paper's Eq. (5) folds the colocated set's intensities into
//! `2R + 1` statistics:
//!
//! `I_G = [|G|, (mean_1, var_1), …, (mean_R, var_R)]`
//!
//! Summing the intensities instead would be wrong, because game intensity is
//! not additive (Observation 5). Note the paper defines the spread as
//! `var_G = (1/|G|)·sqrt(Σ(I − mean)²)` — a scaled standard deviation rather
//! than a textbook variance — and we follow the paper's formula exactly.

use crate::profile::GameProfile;
use crate::train::Placement;
use gaugur_gamesim::{ResourceVec, ALL_RESOURCES, NUM_RESOURCES};
use gaugur_ml::splits::LANES;

/// Number of features of the aggregate-intensity transform (`2R + 1`).
pub const AGGREGATE_INTENSITY_WIDTH: usize = 2 * NUM_RESOURCES + 1;

/// Sentinel for "exclude no index" in [`aggregate_excluding`].
pub(crate) const NO_SKIP: usize = usize::MAX;

/// Paper Eq. (5): fold the per-game intensity vectors of a colocated set into
/// `[|G|, (mean_r, var_r) …]`.
pub fn aggregate_intensity(intensities: &[ResourceVec]) -> Vec<f64> {
    let mut out = Vec::with_capacity(AGGREGATE_INTENSITY_WIDTH);
    aggregate_intensity_into(intensities, &mut out);
    out
}

/// [`aggregate_intensity`] appended to a reusable buffer (bit-identical
/// output, no allocation once `out` has capacity).
pub fn aggregate_intensity_into(intensities: &[ResourceVec], out: &mut Vec<f64>) {
    aggregate_excluding(intensities, NO_SKIP, out);
}

/// [`aggregate_intensity`] over all intensities *except* index `skip` (none
/// when `skip` is [`NO_SKIP`]), appended to `out`. Bit-identical to
/// filtering the slice first: the non-skipped elements are visited in the
/// same order, so every float summation runs in the same order. This is
/// what lets one colocation's intensity gather be shared across its
/// members (member `i`'s co-runner set is "everyone but `i`").
pub(crate) fn aggregate_excluding(intensities: &[ResourceVec], skip: usize, out: &mut Vec<f64>) {
    debug_assert!(
        skip == NO_SKIP || skip < intensities.len(),
        "skip index out of range"
    );
    let count = if skip < intensities.len() {
        intensities.len() - 1
    } else {
        intensities.len()
    };
    let n = count as f64;
    out.push(count as f64);
    for r in ALL_RESOURCES {
        if count == 0 {
            out.push(0.0);
            out.push(0.0);
            continue;
        }
        let mean = intensities
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != skip)
            .map(|(_, i)| i[r])
            .sum::<f64>()
            / n;
        let sumsq: f64 = intensities
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != skip)
            .map(|(_, i)| (i[r] - mean).powi(2))
            .sum();
        // The paper's formula: (1/|G|)·sqrt(Σ(I − mean)²).
        let var = sumsq.sqrt() / n;
        out.push(mean);
        out.push(var);
    }
}

/// Width of the flattened sensitivity-curve block for granularity `k`.
pub fn sensitivity_width(granularity: usize) -> usize {
    NUM_RESOURCES * (granularity + 1)
}

/// Flatten a game's sensitivity curves into one block (resource-major).
pub fn flatten_sensitivity(profile: &GameProfile) -> Vec<f64> {
    let mut out = Vec::with_capacity(sensitivity_width(profile.granularity));
    flatten_sensitivity_into(profile, &mut out);
    out
}

/// [`flatten_sensitivity`] appended to a reusable buffer.
pub fn flatten_sensitivity_into(profile: &GameProfile, out: &mut Vec<f64>) {
    for curve in &profile.sensitivity {
        out.extend_from_slice(&curve.samples);
    }
}

/// Regression-model features (paper Eq. 4): the target game's sensitivity
/// curves plus the aggregate intensity of the co-runners.
pub fn rm_features(target: &GameProfile, corunner_intensities: &[ResourceVec]) -> Vec<f64> {
    let mut out = Vec::with_capacity(rm_width(target.granularity));
    rm_features_into(target, corunner_intensities, &mut out);
    out
}

/// [`rm_features`] appended to a reusable buffer (bit-identical output).
pub fn rm_features_into(
    target: &GameProfile,
    corunner_intensities: &[ResourceVec],
    out: &mut Vec<f64>,
) {
    flatten_sensitivity_into(target, out);
    aggregate_intensity_into(corunner_intensities, out);
}

/// Width of the RM feature vector for granularity `k`.
pub fn rm_width(granularity: usize) -> usize {
    sensitivity_width(granularity) + AGGREGATE_INTENSITY_WIDTH
}

/// Classification-model features (paper Eq. 3): the QoS requirement and the
/// target's solo FPS, then the RM features.
///
/// One engineered interaction is added to the paper's inputs: the ratio
/// `qos / solo_fps`, i.e. the degradation threshold the game must stay
/// above. Tree splits are axis-aligned, so without this ratio the CM would
/// need many splits to rediscover `δ · solo ≥ qos`; with it the QoS boundary
/// is a single split. (Both raw inputs are retained.)
pub fn cm_features(
    qos: f64,
    solo_fps: f64,
    target: &GameProfile,
    corunner_intensities: &[ResourceVec],
) -> Vec<f64> {
    let mut out = Vec::with_capacity(cm_width(target.granularity));
    cm_features_into(qos, solo_fps, target, corunner_intensities, &mut out);
    out
}

/// [`cm_features`] appended to a reusable buffer (bit-identical output).
pub fn cm_features_into(
    qos: f64,
    solo_fps: f64,
    target: &GameProfile,
    corunner_intensities: &[ResourceVec],
    out: &mut Vec<f64>,
) {
    out.extend_from_slice(&cm_head(qos, solo_fps));
    rm_features_into(target, corunner_intensities, out);
}

/// Number of features a CM row has before the RM features.
pub(crate) const CM_HEAD_WIDTH: usize = 3;

/// The features a CM row has before the RM features: the QoS requirement,
/// the target's solo FPS and their ratio.
pub(crate) fn cm_head(qos: f64, solo_fps: f64) -> [f64; CM_HEAD_WIDTH] {
    [qos, solo_fps, qos / solo_fps.max(1.0)]
}

/// Width of the CM feature vector for granularity `k`.
pub fn cm_width(granularity: usize) -> usize {
    rm_width(granularity) + CM_HEAD_WIDTH
}

/// Reusable scratch space for the zero-allocation inference path.
///
/// One `FeatureBuffer` is owned exclusively by one worker (in its
/// `WorkerState` in the serving daemon, stack-local elsewhere); the
/// predictor borrows it for the duration of one batch call and leaves its
/// capacity behind for the next call. Nothing in it is meaningful between
/// calls, except what a first scoring stage leaves for the second
/// ([`crate::InterferencePredictor::bound_degradation_batch`]).
#[derive(Debug, Default)]
pub struct FeatureBuffer {
    /// Gathered intensity vectors of one colocation.
    pub(crate) intensities: Vec<ResourceVec>,
    /// Packed feature rows (row-major): all RM features, or only the `I_G`
    /// ones when the RM scores rows from target prefixes.
    pub(crate) rows: Vec<f64>,
    /// Leaf bitvectors of one row, started from its target's prefix.
    pub(crate) bits: Vec<u32>,
    /// The same for one block of [`LANES`] rows, tree-major.
    pub(crate) block: Vec<[u32; LANES]>,
    /// Each row's leaf sum after the RM's first stage, which its second
    /// stage continues.
    pub(crate) partials: Vec<f64>,
    /// Standardized copy of a feature row (SVM models only).
    pub(crate) scaled: Vec<f64>,
    /// Materialized co-runner sets for the scalar fallback path.
    pub(crate) others: Vec<Placement>,
}

impl FeatureBuffer {
    /// A fresh, empty buffer. Capacity grows on first use and is retained.
    pub fn new() -> FeatureBuffer {
        FeatureBuffer::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Profiler, ProfilingConfig};
    use gaugur_gamesim::{GameCatalog, Server};

    fn profile() -> GameProfile {
        let server = Server::reference(3);
        let cat = GameCatalog::generate(42, 5);
        Profiler::new(ProfilingConfig::default()).profile_game(&server, &cat[0])
    }

    #[test]
    fn aggregate_width_is_2r_plus_1() {
        let a = aggregate_intensity(&[ResourceVec::ZERO, ResourceVec::ZERO]);
        assert_eq!(a.len(), AGGREGATE_INTENSITY_WIDTH);
        assert_eq!(a[0], 2.0);
    }

    #[test]
    fn aggregate_matches_paper_formula() {
        let i1 = ResourceVec([0.2; 7]);
        let i2 = ResourceVec([0.6; 7]);
        let a = aggregate_intensity(&[i1, i2]);
        // mean = 0.4; var = sqrt(0.04 + 0.04) / 2 = sqrt(0.08)/2.
        assert!((a[1] - 0.4).abs() < 1e-12);
        assert!((a[2] - 0.08_f64.sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_is_permutation_invariant() {
        let i1 = ResourceVec([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]);
        let i2 = ResourceVec([0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]);
        let i3 = ResourceVec([0.0, 0.9, 0.1, 0.8, 0.2, 0.7, 0.3]);
        let a = aggregate_intensity(&[i1, i2, i3]);
        let b = aggregate_intensity(&[i3, i1, i2]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_corunner_set_is_well_defined() {
        let a = aggregate_intensity(&[]);
        assert_eq!(a[0], 0.0);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn feature_widths_are_consistent() {
        let p = profile();
        let ints = [ResourceVec::ZERO];
        assert_eq!(flatten_sensitivity(&p).len(), sensitivity_width(10));
        assert_eq!(rm_features(&p, &ints).len(), rm_width(10));
        assert_eq!(cm_features(60.0, 100.0, &p, &ints).len(), cm_width(10));
        assert_eq!(rm_width(10), 7 * 11 + 15);
        assert_eq!(cm_width(10), 7 * 11 + 15 + 3);
    }

    #[test]
    fn cm_features_lead_with_qos_and_solo_fps() {
        let p = profile();
        let f = cm_features(60.0, 123.0, &p, &[ResourceVec::ZERO]);
        assert_eq!(f[0], 60.0);
        assert_eq!(f[1], 123.0);
    }

    mod bit_identity {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn cached_profile() -> &'static GameProfile {
            static PROFILE: OnceLock<GameProfile> = OnceLock::new();
            PROFILE.get_or_init(profile)
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        fn to_resource_vecs(raw: Vec<Vec<f64>>) -> Vec<ResourceVec> {
            raw.into_iter()
                .map(|v| ResourceVec(v.try_into().expect("7-wide")))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn into_variants_match_allocating_variants(
                raw in proptest::collection::vec(
                    proptest::collection::vec(0.0f64..1.0, NUM_RESOURCES), 0..6),
                qos in 10.0f64..120.0,
                solo in 30.0f64..200.0,
            ) {
                let p = cached_profile();
                let ints = to_resource_vecs(raw);

                let mut out = vec![999.0]; // pre-existing content must survive
                aggregate_intensity_into(&ints, &mut out);
                prop_assert_eq!(bits(&out[1..]), bits(&aggregate_intensity(&ints)));

                let mut out = Vec::new();
                rm_features_into(p, &ints, &mut out);
                prop_assert_eq!(bits(&out), bits(&rm_features(p, &ints)));

                let mut out = Vec::new();
                cm_features_into(qos, solo, p, &ints, &mut out);
                prop_assert_eq!(bits(&out), bits(&cm_features(qos, solo, p, &ints)));
            }

            #[test]
            fn excluding_aggregate_matches_filtering_first(
                raw in proptest::collection::vec(
                    proptest::collection::vec(0.0f64..1.0, NUM_RESOURCES), 1..6),
                skip_seed in 0usize..1_000_000,
            ) {
                let ints = to_resource_vecs(raw);
                let skip = skip_seed % ints.len();
                let filtered: Vec<ResourceVec> = ints
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != skip)
                    .map(|(_, &i)| i)
                    .collect();

                let mut out = Vec::new();
                aggregate_excluding(&ints, skip, &mut out);
                prop_assert_eq!(bits(&out), bits(&aggregate_intensity(&filtered)));
            }
        }
    }
}

//! Seeded inputs: the placement catalogs of the three workloads, the zipf
//! sampler that draws from them and the device relabelings that make a
//! request's labeling differ from the cached one.
//!
//! Catalog *content* is fixed; the seed picks the request order, the zipf
//! draws and the labelings. The daemon therefore solves the same canonical
//! instances under every seed, which keeps the work per run comparable,
//! while the bytes it receives change with the seed.

use std::collections::HashSet;
use tessel_core::ir::PlacementSpec;
use tessel_models::config::{gpt_config_for_gpus, mt5_config_for_gpus, FlavaConfig};
use tessel_models::cost::CostModel;
use tessel_placement::shapes::{
    flava_k_shape, gpt_m_shape, mt5_nn_shape, synthetic_placement, ShapeKind,
};
use tessel_service::cache::{CacheKey, CacheParams};
use tessel_service::wire::SearchRequest;

/// One cacheable search: a placement in its base labeling plus the request
/// parameters that form the rest of the cache key.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Human-readable name, e.g. `K-Shape-8 cap=8 nr=3 n=8`.
    pub label: String,
    /// The placement in its base labeling.
    pub placement: PlacementSpec,
    /// `max_repetend_micro_batches` (the NR cap).
    pub nr: usize,
    /// `num_micro_batches`.
    pub n: usize,
}

impl Entry {
    fn new(label: String, placement: PlacementSpec, nr: usize, n: usize) -> Self {
        Entry {
            label: format!("{label} nr={nr} n={n}"),
            placement,
            nr,
            n,
        }
    }

    /// The daemon's cache key for this entry: canonical fingerprint plus
    /// search parameters.
    pub fn cache_key(&self) -> u64 {
        let params = CacheParams {
            num_micro_batches: self.n,
            max_repetend_micro_batches: self.nr,
        };
        CacheKey::new(self.placement.canonicalize().fingerprint, &params).raw()
    }

    /// The search request for this entry with `placement` as sent.
    pub fn request(&self, placement: PlacementSpec) -> SearchRequest {
        let mut request = SearchRequest::for_placement(placement);
        request.num_micro_batches = Some(self.n);
        request.max_repetend_micro_batches = Some(self.nr);
        request
    }
}

/// SplitMix64: a small, seedable generator with good statistical quality,
/// enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.unit() * bound as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut running = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                running += w / total;
                running
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A device relabeling of `placement` drawn from `rng` (never the identity
/// when the placement has more than one device).
pub fn relabel(placement: &PlacementSpec, rng: &mut Rng) -> PlacementSpec {
    let devices = placement.num_devices();
    let mut perm: Vec<usize> = (0..devices).collect();
    while devices > 1 && perm.iter().enumerate().all(|(i, &p)| i == p) {
        rng.shuffle(&mut perm);
    }
    let order: Vec<usize> = (0..placement.num_blocks()).collect();
    placement
        .permuted(&perm, &order)
        .expect("a shuffled identity is a device permutation")
}

/// The placements of the paper's evaluation: GPT M-shape, mT5 NN-shape and
/// Flava K-shape at 8, 16 and 32 GPUs.
fn model_placements() -> Vec<(String, PlacementSpec)> {
    let cost = CostModel::paper_default();
    let mut out = Vec::new();
    for gpus in [8, 16, 32] {
        let gpt = gpt_config_for_gpus(gpus).expect("Table III has a GPT row for 8/16/32 GPUs");
        let mt5 = mt5_config_for_gpus(gpus).expect("Table III has an mT5 row for 8/16/32 GPUs");
        out.push((
            format!("GPT-M-{gpus}gpu"),
            gpt_m_shape(&gpt, &cost, gpus).expect("GPT M-shape fits"),
        ));
        out.push((
            format!("mT5-NN-{gpus}gpu"),
            mt5_nn_shape(&mt5, &cost, gpus).expect("mT5 NN-shape fits"),
        ));
        out.push((
            format!("Flava-K-{gpus}gpu"),
            flava_k_shape(&FlavaConfig::default(), &cost, gpus, false).expect("Flava K-shape fits"),
        ));
    }
    out
}

fn synthetic(kind: ShapeKind, devices: usize) -> PlacementSpec {
    synthetic_placement(kind, devices).expect("synthetic shapes exist for two or more devices")
}

/// Whether a probe on a 2-CPU host put a solve of this synthetic instance
/// over about 100 ms: X-shape from 5 devices at NR 3 and up (X-8 at NR 3
/// takes about a second), K-shape from 6 devices at NR 4 (K-8 at NR 4 about
/// 0.6 s). One such solve would dominate a whole `cold-solve` pass.
fn too_slow(kind: ShapeKind, devices: usize, nr: usize) -> bool {
    match kind {
        ShapeKind::X => devices >= 5 && nr >= 3,
        ShapeKind::K => devices >= 6 && nr >= 4,
        _ => false,
    }
}

/// The `hit-heavy` catalog: the model placements plus the synthetic shapes
/// at 4 and 8 devices, at NR 3 and 4 (X-shape at 8 devices only at NR 2,
/// K-shape at 8 devices only at NR 3).
pub fn hit_heavy() -> Vec<Entry> {
    let mut out = Vec::new();
    for (label, placement) in model_placements() {
        for nr in [3, 4] {
            out.push(Entry::new(label.clone(), placement.clone(), nr, 8));
        }
    }
    for kind in ShapeKind::all() {
        for devices in [4, 8] {
            let placement = synthetic(kind, devices);
            let nrs: Vec<usize> = [3, 4]
                .into_iter()
                .filter(|&nr| !too_slow(kind, devices, nr))
                .collect();
            let nrs = if nrs.is_empty() { vec![2] } else { nrs };
            for nr in nrs {
                out.push(Entry::new(
                    format!("{kind}-{devices}"),
                    placement.clone(),
                    nr,
                    8,
                ));
            }
        }
    }
    out
}

/// The `cold-solve` catalog: one entry per distinct canonical placement.
/// Synthetic shapes at 4, 5, 6 and 8 devices each appear under several
/// memory capacities (no cap, then caps from the device count upwards), and
/// the model placements once each. Every placement is paired with an NR cap
/// from 2–4 and a micro-batch count from {8, 12, 16} by rotation, skipping
/// the instances [`too_slow`] names.
pub fn cold_solve() -> Vec<Entry> {
    let mut out = Vec::new();
    let mut rotation = 0usize;
    let mut next_params = |kind: Option<(ShapeKind, usize)>| loop {
        let nr = 2 + rotation % 3;
        let n = [8, 12, 16][(rotation / 3) % 3];
        rotation += 1;
        if !kind.is_some_and(|(kind, devices)| too_slow(kind, devices, nr)) {
            return (nr, n);
        }
    };
    for kind in ShapeKind::all() {
        for devices in [4, 5, 6, 8] {
            let base = synthetic(kind, devices);
            let d = devices as i64;
            for cap in [None, Some(d), Some(d + 1), Some(d + 2), Some(2 * d)] {
                let (nr, n) = next_params(Some((kind, devices)));
                let label = match cap {
                    Some(cap) => format!("{kind}-{devices} cap={cap}"),
                    None => format!("{kind}-{devices}"),
                };
                out.push(Entry::new(label, base.with_memory_capacity(cap), nr, n));
            }
        }
    }
    for (label, placement) in model_placements() {
        let (nr, n) = next_params(None);
        out.push(Entry::new(label, placement, nr, n));
    }
    out
}

/// The `mixed-zipf` catalog: the `hit-heavy` entries first, so they hold
/// the popular zipf ranks, then every `cold-solve` entry that does not repeat
/// one of them.
pub fn mixed() -> Vec<Entry> {
    let mut out = hit_heavy();
    let mut keys: HashSet<u64> = out.iter().map(Entry::cache_key).collect();
    out.extend(
        cold_solve()
            .into_iter()
            .filter(|e| keys.insert(e.cache_key())),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_repeat_per_seed_and_differ_across_seeds() {
        let zipf = Zipf::new(50, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..500).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 50));
        let top = ranks.iter().filter(|&&r| r == 0).count();
        let last = ranks.iter().filter(|&&r| r == 49).count();
        assert!(
            top > 5 * last.max(1),
            "rank 0 drawn {top}x, rank 49 {last}x"
        );
    }

    #[test]
    fn cold_solve_entries_are_distinct_canonical_placements() {
        let catalog = cold_solve();
        assert!(catalog.len() >= 100, "{} entries", catalog.len());
        let fingerprints: HashSet<_> = catalog
            .iter()
            .map(|e| e.placement.canonicalize().fingerprint)
            .collect();
        assert_eq!(
            fingerprints.len(),
            catalog.len(),
            "two entries share a fingerprint"
        );
    }

    #[test]
    fn every_catalog_has_distinct_cache_keys() {
        for catalog in [hit_heavy(), cold_solve(), mixed()] {
            let keys: HashSet<u64> = catalog.iter().map(Entry::cache_key).collect();
            assert_eq!(keys.len(), catalog.len());
        }
        assert!(mixed().len() > cold_solve().len());
    }

    #[test]
    fn relabeled_variants_keep_the_fingerprint_and_change_the_labeling() {
        let mut rng = Rng::new(3);
        for entry in hit_heavy() {
            let variant = relabel(&entry.placement, &mut rng);
            assert_ne!(variant, entry.placement, "{}", entry.label);
            assert_eq!(
                variant.canonicalize().fingerprint,
                entry.placement.canonicalize().fingerprint,
                "{}",
                entry.label
            );
        }
    }
}

//! The three workloads, their seeded request streams and the reference
//! answers every response is checked against.

use crate::catalog::{self, Entry, Rng, Zipf};
use tessel_core::fingerprint::{Fingerprint, DEFAULT_NODE_BUDGET};
use tessel_core::ir::PlacementSpec;
use tessel_core::search::{SearchConfig, TesselSearch};
use tessel_service::wire::SearchResponse;

/// Relabeled variants prepared per catalog entry, besides its base labeling.
pub const VARIANTS: usize = 8;
/// Zipf exponent of the `hit-heavy` and `mixed-zipf` request streams.
pub const ZIPF_EXPONENT: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HitHeavy,
    ColdSolve,
    MixedZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HitHeavy, Workload::ColdSolve, Workload::MixedZipf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitHeavy => "hit-heavy",
            Workload::ColdSolve => "cold-solve",
            Workload::MixedZipf => "mixed-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn catalog(self) -> Vec<Entry> {
        match self {
            Workload::HitHeavy => catalog::hit_heavy(),
            Workload::ColdSolve => catalog::cold_solve(),
            Workload::MixedZipf => catalog::mixed(),
        }
    }

    /// Closed-loop clients, each on its own keep-alive connection.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdSolve => 1,
            Workload::HitHeavy | Workload::MixedZipf => 2,
        }
    }

    /// Whether the daemon persists its cache through the journal.
    pub fn journal(self) -> bool {
        self == Workload::MixedZipf
    }

    /// Whether set-up warms the cache with the whole catalog.
    pub fn warmed(self) -> bool {
        self == Workload::HitHeavy
    }
}

/// What the in-process search gives for one catalog entry.
#[derive(Debug, Clone)]
pub struct Reference {
    pub fingerprint: Fingerprint,
    pub period: u64,
    pub bubble_rate: f64,
    pub canon_nodes: u64,
    pub solver_nodes: u64,
    pub candidates: u64,
    pub repetend_solves: u64,
}

/// The search configuration the daemon uses for `entry` (shipped defaults:
/// one solver thread, one portfolio thread, no candidate limit).
pub fn search_config(entry: &Entry) -> SearchConfig {
    SearchConfig::default()
        .with_micro_batches(entry.n)
        .with_max_repetend_micro_batches(entry.nr)
        .with_portfolio_threads(1)
        .with_solver_threads(1)
}

pub fn reference(entry: &Entry) -> Result<Reference, String> {
    let (canon, stats) = entry.placement.canonicalize_budgeted(DEFAULT_NODE_BUDGET);
    let outcome = TesselSearch::new(search_config(entry))
        .run(&canon.placement)
        .map_err(|e| format!("{}: reference search failed: {e}", entry.label))?;
    Ok(Reference {
        fingerprint: canon.fingerprint,
        period: outcome.repetend.period,
        bubble_rate: outcome.repetend.bubble_rate(&canon.placement),
        canon_nodes: stats.nodes,
        solver_nodes: outcome.stats.solver.nodes,
        candidates: outcome.stats.candidates_considered as u64,
        repetend_solves: outcome.stats.repetend_solves as u64,
    })
}

/// One request of a stream: a catalog entry in one of its labelings
/// (variant 0 is the base labeling, the rest are relabeled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pick {
    pub entry: usize,
    pub variant: usize,
}

impl Pick {
    pub fn relabeled(self) -> bool {
        self.variant > 0
    }
}

/// A workload's catalog with every labeling's request body serialized up
/// front, so clients spend no time building requests.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub entries: Vec<Entry>,
    /// `placements[entry][variant]`.
    pub placements: Vec<Vec<PlacementSpec>>,
    /// `bodies[entry][variant]`: the JSON request body.
    pub bodies: Vec<Vec<String>>,
    zipf: Zipf,
}

impl Prepared {
    pub fn new(workload: Workload, seed: u64) -> Prepared {
        let entries = workload.catalog();
        let mut rng = Rng::new(seed);
        let placements: Vec<Vec<PlacementSpec>> = entries
            .iter()
            .map(|entry| {
                let mut variants = vec![entry.placement.clone()];
                variants
                    .extend((0..VARIANTS).map(|_| catalog::relabel(&entry.placement, &mut rng)));
                variants
            })
            .collect();
        let bodies = entries
            .iter()
            .zip(&placements)
            .map(|(entry, variants)| {
                variants
                    .iter()
                    .map(|p| {
                        serde_json::to_string(&entry.request(p.clone()))
                            .expect("search requests serialize")
                    })
                    .collect()
            })
            .collect();
        let zipf = Zipf::new(entries.len(), ZIPF_EXPONENT);
        Prepared {
            workload,
            seed,
            entries,
            placements,
            bodies,
            zipf,
        }
    }

    pub fn body(&self, pick: Pick) -> &str {
        &self.bodies[pick.entry][pick.variant]
    }

    /// Request `index` of the zipf stream: a zipf-ranked entry, relabeled
    /// half of the time. A pure function of seed and index, so concurrent
    /// clients can share one stream through an atomic counter.
    pub fn zipf_pick(&self, index: usize) -> Pick {
        let mut rng = Rng::new(self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let entry = self.zipf.sample(&mut rng);
        Pick {
            entry,
            variant: self.variant(&mut rng),
        }
    }

    /// Pass `pass` over the whole catalog in a seeded order, each entry
    /// once, relabeled half of the time.
    pub fn catalog_pass(&self, pass: usize) -> Vec<Pick> {
        let mut rng = Rng::new(self.seed ^ (pass as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|entry| Pick {
                entry,
                variant: self.variant(&mut rng),
            })
            .collect()
    }

    fn variant(&self, rng: &mut Rng) -> usize {
        if rng.unit() < 0.5 {
            0
        } else {
            1 + rng.below(VARIANTS)
        }
    }
}

/// Checks one daemon answer for `pick` against the reference: the schedule
/// is valid for the placement as sent, and fingerprint, period, bubble rate
/// and micro-batch count match the in-process search. A relabeled answer is
/// held to the same reference as the base labeling, so it has the exact
/// variant's period.
pub fn check_answer(
    prepared: &Prepared,
    references: &[Option<Reference>],
    pick: Pick,
    response: &SearchResponse,
) -> Result<(), String> {
    let entry = &prepared.entries[pick.entry];
    let fail = |what: String| {
        Err(format!(
            "{} (variant {}): {what}",
            entry.label, pick.variant
        ))
    };
    let Some(reference) = &references[pick.entry] else {
        return fail("no reference answer".into());
    };
    if response.fingerprint != reference.fingerprint {
        return fail(format!(
            "fingerprint {} != reference {}",
            response.fingerprint, reference.fingerprint
        ));
    }
    if response.period != reference.period {
        return fail(format!(
            "period {} != reference {}",
            response.period, reference.period
        ));
    }
    if (response.bubble_rate - reference.bubble_rate).abs() > 1e-9 {
        return fail(format!(
            "bubble rate {} != reference {}",
            response.bubble_rate, reference.bubble_rate
        ));
    }
    if response.num_micro_batches != entry.n {
        return fail(format!(
            "{} micro-batches, asked for {}",
            response.num_micro_batches, entry.n
        ));
    }
    if let Err(e) = response
        .schedule
        .validate(&prepared.placements[pick.entry][pick.variant])
    {
        return fail(format!("schedule does not validate: {e}"));
    }
    Ok(())
}

//! The untraced run: end-to-end metrics through real sockets against a
//! daemon child process.
//!
//! The timed window is a series of *epochs*, each served by its own daemon:
//! `hit-heavy` has one (the warmed set-up daemon), `cold-solve` one per
//! catalog pass and `mixed-zipf` one per [`EPOCH_SECONDS`] of traffic, each
//! starting from an empty cache. Restarts between epochs are not timed.
//! Timings are taken per *slice* — half a second of `hit-heavy` arrivals, a
//! `cold-solve` pass, a `mixed-zipf` epoch — so that every slice carries the
//! same mix.

use crate::daemon::Daemon;
use crate::stats::{mean, median, percentile};
use crate::traffic::{drive, drive_all, scrape, verdicts, ClientLog};
use crate::workload::{reference, Pick, Prepared, Reference, Workload};
use crate::{Metric, Outcome, State};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tessel_service::HttpClient;

/// Length of a `hit-heavy` slice.
const SLICE_SECONDS: f64 = 0.5;
/// Length of a `mixed-zipf` epoch: long enough for the cache to go from
/// empty to mostly hits.
const EPOCH_SECONDS: f64 = 3.0;
/// Gap between the stream positions of consecutive `mixed-zipf` epochs, so
/// each epoch draws its own part of the seeded stream.
const EPOCH_STRIDE: usize = 1 << 32;
/// `bubble_rate_mean` of the zipf workloads averages this many leading
/// requests of each epoch's stream, so that it does not depend on how many
/// requests a run completes.
fn quality_prefix(workload: Workload) -> usize {
    match workload {
        Workload::HitHeavy => 20_000,
        Workload::MixedZipf => 2_000,
        Workload::ColdSolve => 0,
    }
}

/// Daemon set-ups per run; `setup_s` is their median. Warming the
/// `hit-heavy` cache takes about 0.4 s, a bare daemon start a few ms.
fn setups(workload: Workload) -> usize {
    if workload.warmed() {
        5
    } else {
        21
    }
}

/// One daemon's share of the timed window.
struct Epoch {
    logs: Vec<ClientLog>,
    seconds: f64,
    peak_rss_mb: f64,
}

pub fn run(prepared: &Prepared, seconds: f64, state: &State) -> Result<Outcome, String> {
    let workload = prepared.workload;
    let references = prepared
        .entries
        .iter()
        .map(|entry| reference(entry).map(Some))
        .collect::<Result<Vec<_>, _>>()?;

    let mut setup_times = Vec::new();
    let mut kept = None;
    let setups = setups(workload);
    for i in 0..setups {
        let started = Instant::now();
        let (daemon, mut clients) = start(prepared, state, &format!("setup{i}"))?;
        if workload.warmed() {
            warm(&mut clients[0], prepared)?;
        }
        setup_times.push(started.elapsed().as_secs_f64());
        if i + 1 == setups {
            kept = Some((daemon, clients));
        } else {
            drop(clients);
            daemon.stop()?;
        }
    }
    let (mut daemon, mut clients) = kept.expect("at least one set-up");

    let mut violations = Vec::new();
    let mut extra_failures = 0u64;
    let mut epochs = Vec::new();
    let mixed_epochs = (seconds / EPOCH_SECONDS).ceil().max(1.0) as usize;
    loop {
        let index = epochs.len();
        let epoch = run_epoch(
            prepared,
            index,
            seconds,
            &daemon,
            clients,
            &mut violations,
            &mut extra_failures,
        )?;
        epochs.push(epoch);
        daemon.stop()?;
        let done = match workload {
            Workload::HitHeavy => true,
            Workload::ColdSolve => epochs.iter().map(|e| e.seconds).sum::<f64>() >= seconds,
            Workload::MixedZipf => epochs.len() >= mixed_epochs,
        };
        if done {
            break;
        }
        (daemon, clients) = start(prepared, state, &format!("epoch{}", index + 1))?;
    }

    // Slice durations, and which slice each answer of each epoch falls in.
    let slices: Vec<f64> = match workload {
        Workload::HitHeavy => {
            let window = epochs[0].seconds;
            let whole = (window / SLICE_SECONDS).floor().max(1.0) as usize;
            let mut slices = vec![SLICE_SECONDS; whole];
            slices[whole - 1] = window - SLICE_SECONDS * (whole - 1) as f64;
            slices
        }
        Workload::ColdSolve | Workload::MixedZipf => epochs.iter().map(|e| e.seconds).collect(),
    };
    let slice_of = |epoch: usize, done_ns: u64| match workload {
        Workload::HitHeavy => {
            ((done_ns as f64 / 1e9 / SLICE_SECONDS) as usize).min(slices.len() - 1)
        }
        Workload::ColdSolve | Workload::MixedZipf => epoch,
    };

    let mut slice_latencies_ms: Vec<Vec<f64>> = vec![Vec::new(); slices.len()];
    let mut slice_ok = vec![0u64; slices.len()];
    let mut latencies_ms = Vec::new();
    let mut attempted = 0u64;
    let mut ok = 0u64;
    let (mut hits, mut coalesced) = (0u64, 0u64);
    let mut quality = Vec::new();
    // Leading requests only, so the mean does not depend on how far a run
    // got: the first catalog pass, or each epoch's zipf prefix.
    let in_quality_prefix = |seq: usize| match workload {
        Workload::ColdSolve => seq < prepared.entries.len(),
        Workload::HitHeavy | Workload::MixedZipf => seq % EPOCH_STRIDE < quality_prefix(workload),
    };
    let quality_expected = match workload {
        Workload::ColdSolve => prepared.entries.len(),
        Workload::HitHeavy | Workload::MixedZipf => quality_prefix(workload) * epochs.len(),
    };
    for (index, epoch) in epochs.iter().enumerate() {
        for log in &epoch.logs {
            violations.extend(log.errors.iter().cloned());
            let verdicts = verdicts(prepared, &references, log, &mut violations);
            for answer in &log.answers {
                attempted += 1;
                let slice = slice_of(index, answer.done_ns);
                let latency_ms = answer.latency_ns as f64 / 1e6;
                latencies_ms.push(latency_ms);
                slice_latencies_ms[slice].push(latency_ms);
                let Some(verdict) = answer.body.map(|id| &verdicts[id]) else {
                    continue;
                };
                hits += u64::from(verdict.cached);
                coalesced += u64::from(verdict.coalesced);
                let expected = match workload {
                    Workload::HitHeavy => verdict.cached,
                    Workload::ColdSolve => !verdict.cached && !verdict.coalesced,
                    Workload::MixedZipf => true,
                };
                if !expected {
                    violations.push(format!(
                        "request {} answered with cached={} coalesced={} on {}",
                        answer.seq,
                        verdict.cached,
                        verdict.coalesced,
                        workload.name()
                    ));
                }
                if verdict.ok && expected {
                    ok += 1;
                    slice_ok[slice] += 1;
                }
                if verdict.ok && in_quality_prefix(answer.seq) {
                    quality.push(verdict.bubble_rate);
                }
            }
        }
    }
    let failed = (attempted - ok + extra_failures).min(attempted);
    // Clients finish in any order; a fixed summation order keeps the mean
    // bit-identical between runs of one seed.
    quality.sort_by(f64::total_cmp);
    let mut outcome = Outcome::new(attempted, failed, violations);
    // Each timing is taken per slice, and the run reports the slice at the
    // fast quartile: other load on the host only ever slows a slice, so
    // this keeps a disturbed minority of slices from moving the figure.
    let per_slice = |f: &dyn Fn(usize) -> Option<f64>, higher_is_better: bool| {
        let values: Vec<f64> = (0..slices.len()).filter_map(f).collect();
        percentile(&values, if higher_is_better { 75.0 } else { 25.0 }).unwrap_or(0.0)
    };
    let ms = |p| per_slice(&|i| percentile(&slice_latencies_ms[i], p), false);
    let rss: Vec<f64> = epochs.iter().map(|e| e.peak_rss_mb).collect();
    outcome.metrics = vec![
        Metric::new(
            "throughput_rps",
            per_slice(&|i| Some(slice_ok[i] as f64 / slices[i]), true),
            "req/s",
        ),
        Metric::new("latency_p50_ms", ms(50.0), "ms"),
        Metric::new("latency_p90_ms", ms(90.0), "ms"),
        Metric::new(
            "bubble_rate_mean",
            mean(&quality).unwrap_or(0.0),
            "fraction",
        ),
        Metric::new("setup_s", median(&setup_times).unwrap_or(0.0), "s"),
        Metric::new("peak_rss_mb", median(&rss).unwrap_or(0.0), "MiB"),
    ];
    outcome.samples = slice_latencies_ms.iter().map(Vec::len).min().unwrap_or(0);
    outcome.counters = reference_counters(&references);
    outcome
        .counters
        .push(("bubble_rate_mean", mean(&quality).unwrap_or(0.0)));

    let window: f64 = slices.iter().sum();
    let pooled = |p| percentile(&latencies_ms, p).unwrap_or(0.0);
    outcome.notes.push(format!(
        "window {window:.3} s: {} epochs, {} slices; {attempted} answers: {hits} cache hits, {coalesced} coalesced, {} solved",
        epochs.len(),
        slices.len(),
        attempted - hits - coalesced,
    ));
    outcome.notes.push(format!(
        "whole window pooled: {:.2} req/s, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
        ok as f64 / window,
        pooled(50.0),
        pooled(90.0),
        pooled(99.0)
    ));
    outcome.notes.push(format!(
        "req/s per slice: {:?}",
        (0..slices.len())
            .map(|i| (slice_ok[i] as f64 / slices[i]).round())
            .collect::<Vec<_>>()
    ));
    outcome
        .notes
        .push(format!("peak RSS per epoch (MiB): {rss:?}"));
    outcome.notes.push(format!("set-ups (s): {setup_times:?}"));
    if quality.len() < quality_expected {
        outcome.notes.push(format!(
            "bubble_rate_mean covers only {} of the {quality_expected} answers it is defined over",
            quality.len()
        ));
    }
    Ok(outcome)
}

/// Starts a daemon for `prepared`'s workload (with a journal named after
/// `label` when the workload keeps one) and connects its clients.
pub fn start(
    prepared: &Prepared,
    state: &State,
    label: &str,
) -> Result<(Daemon, Vec<HttpClient>), String> {
    let workload = prepared.workload;
    let journal = workload
        .journal()
        .then(|| state.scratch_file(&format!("{label}.journal")));
    let daemon = Daemon::start(journal.as_deref())?;
    let clients = (0..workload.clients())
        .map(|_| HttpClient::new(daemon.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok((daemon, clients))
}

/// Sends every catalog entry once in its base labeling.
pub fn warm(client: &mut HttpClient, prepared: &Prepared) -> Result<(), String> {
    for entry in 0..prepared.entries.len() {
        let pick = Pick { entry, variant: 0 };
        match client.call("POST", "/v1/search", Some(prepared.body(pick))) {
            Ok((200, _)) => {}
            other => {
                return Err(format!(
                    "warming {} failed: {other:?}",
                    prepared.entries[entry].label
                ))
            }
        }
    }
    Ok(())
}

/// Runs epoch `index` against `daemon` and applies the daemon-side checks:
/// no solve on `hit-heavy`, no cache hit on `cold-solve`.
fn run_epoch(
    prepared: &Prepared,
    index: usize,
    seconds: f64,
    daemon: &Daemon,
    mut clients: Vec<HttpClient>,
    violations: &mut Vec<String>,
    extra_failures: &mut u64,
) -> Result<Epoch, String> {
    let workload = prepared.workload;
    let solves_before = scrape(daemon.addr(), "tessel_solver_solves_total")?;
    let started = Instant::now();
    let logs = match workload {
        Workload::HitHeavy => zipf_stream(prepared, seconds, 0, started, clients),
        Workload::MixedZipf => zipf_stream(
            prepared,
            EPOCH_SECONDS.min(seconds),
            index * EPOCH_STRIDE,
            started,
            clients,
        ),
        Workload::ColdSolve => {
            let picks = prepared.catalog_pass(index);
            let first_seq = index * picks.len();
            let mut stream = picks.into_iter().enumerate();
            vec![drive(&mut clients[0], prepared, started, || {
                stream.next().map(|(i, pick)| (first_seq + i, pick))
            })]
        }
    };
    let elapsed = started.elapsed().as_secs_f64();
    match workload {
        Workload::HitHeavy => {
            let solves = scrape(daemon.addr(), "tessel_solver_solves_total")? - solves_before;
            if solves > 0.0 {
                violations.push(format!("{solves} solves after set-up on hit-heavy"));
                *extra_failures += solves as u64;
            }
        }
        Workload::ColdSolve => {
            let hits = scrape(daemon.addr(), "tessel_cache_hits_total")?;
            if hits > 0.0 {
                violations.push(format!("{hits} cache hits in cold-solve pass {index}"));
                *extra_failures += hits as u64;
            }
        }
        Workload::MixedZipf => {}
    }
    Ok(Epoch {
        logs,
        seconds: elapsed,
        peak_rss_mb: daemon.peak_rss_mb()?,
    })
}

/// The zipf stream from position `first_seq` for `seconds`, shared by all
/// clients through one counter.
fn zipf_stream(
    prepared: &Prepared,
    seconds: f64,
    first_seq: usize,
    started: Instant,
    mut clients: Vec<HttpClient>,
) -> Vec<ClientLog> {
    let next = AtomicUsize::new(first_seq);
    let end = started + Duration::from_secs_f64(seconds);
    drive_all(&mut clients, prepared, started, &|| {
        (Instant::now() < end).then(|| {
            let seq = next.fetch_add(1, Ordering::Relaxed);
            (seq, prepared.zipf_pick(seq))
        })
    })
}

/// Work counts of the reference searches: identical on every run of the
/// same program.
pub fn reference_counters(references: &[Option<Reference>]) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&Reference) -> u64| references.iter().flatten().map(f).sum::<u64>() as f64;
    vec![
        ("solver.nodes", sum(|r| r.solver_nodes)),
        ("search.candidates", sum(|r| r.candidates)),
        ("search.repetend_solves", sum(|r| r.repetend_solves)),
        ("fingerprint.canon_nodes", sum(|r| r.canon_nodes)),
    ]
}

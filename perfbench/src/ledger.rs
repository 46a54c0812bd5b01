//! The traced run: the per-layer ledger.
//!
//! Each workload's traced request list (one catalog pass for `cold-solve`,
//! the first [`TRACED_REQUESTS`] of the zipf stream otherwise) goes through
//! four phases:
//!
//! 1. **Socket.** A fresh daemon child process, as in the untraced run,
//!    takes the list from the workload's clients, then one client sends the
//!    list again (every answer now a cache hit). Transport, admission and
//!    single-flight counters come from its `/metrics`.
//! 2. **Pipeline.** In one thread, each request is decoded, canonicalized,
//!    looked up in a benchmark-owned `ShardedCache` and, on a miss, searched
//!    (`TesselSearch::run`, with its phase times as child spans), simulated,
//!    inserted and journaled; `ScheduleService::search` answers the same
//!    request as a sibling span and its answer is encoded. Which of the
//!    replica and the service goes first alternates between requests.
//! 3. **Hit replay.** `ScheduleService::search` on the list again, all hits.
//! 4. **Tracing cost.** The hit path (decode, canonicalize, cache get) with
//!    and without span recording, alternating.

use crate::e2e::{start, warm};
use crate::spans::{self_times, Recorder};
use crate::stats::{mean, median, percentile};
use crate::traffic::{drive, drive_all, sample, scrape_all, verdicts, ClientLog};
use crate::workload::{check_answer, search_config, Pick, Prepared, Reference, Workload};
use crate::{Metric, Outcome, State};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tessel_core::fingerprint::DEFAULT_NODE_BUDGET;
use tessel_core::search::TesselSearch;
use tessel_runtime::{instantiate, simulate, ClusterSpec, CommMode};
use tessel_service::cache::{CacheConfig, CacheJournal, CacheKey, CacheParams, CachedSearch};
use tessel_service::wire::{SearchRequest, SearchResponse};
use tessel_service::{ScheduleService, ServiceConfig, ShardedCache};
use tessel_solver::IncumbentSink;

/// Length of the traced request list of the zipf workloads.
pub const TRACED_REQUESTS: usize = 2000;
/// Rounds of the tracing-cost comparison.
const OVERHEAD_ROUNDS: usize = 3;

/// Spans inside `ScheduleService::search`'s scope: the ledger reconciles
/// their self times against the service call.
const SERVICE_LAYERS: [&str; 9] = [
    "fingerprint.canonicalize",
    "cache.get",
    "search.run",
    "search.repetend",
    "search.warmup",
    "search.cooldown",
    "runtime.simulate",
    "cache.insert",
    "cache.journal_append",
];

fn service_config(workload: Workload, state: &State, name: &str) -> ServiceConfig {
    let mut config = ServiceConfig::default();
    if workload.journal() {
        config.cache_path = Some(state.scratch_file(name));
    }
    config
}

pub fn run(prepared: &Prepared, state: &State) -> Result<Outcome, String> {
    let workload = prepared.workload;
    let list: Vec<Pick> = match workload {
        Workload::ColdSolve => prepared.catalog_pass(0),
        Workload::HitHeavy | Workload::MixedZipf => (0..TRACED_REQUESTS)
            .map(|i| prepared.zipf_pick(i))
            .collect(),
    };
    let requests: Vec<SearchRequest> = list
        .iter()
        .map(|&pick| serde_json::from_str(prepared.body(pick)).expect("prepared bodies decode"))
        .collect();
    let mut violations = Vec::new();

    let socket = socket_phase(prepared, state, &list)?;
    let mut pipeline = Pipeline::new(prepared, state)?;
    if workload.warmed() {
        pipeline.warm()?;
    }
    let mut recorder = Recorder::new();
    for (i, &pick) in list.iter().enumerate() {
        if let Err(e) = pipeline.request(&mut recorder, i, pick) {
            violations.push(e);
        }
    }
    let hit_replay = pipeline.hit_replay(&list, &requests, &mut violations);
    let tracing_cost = pipeline.tracing_cost(&list);

    // Socket answers are checked against the pipeline's in-process searches.
    let mut socket_ok = 0u64;
    let mut socket_attempted = 0u64;
    let mut hit_latencies_ms = Vec::new();
    let mut cached_answers = 0usize;
    for (phase, log) in socket.logs.iter().enumerate() {
        violations.extend(log.errors.iter().cloned());
        let verdicts = verdicts(prepared, &pipeline.references, log, &mut violations);
        for answer in &log.answers {
            socket_attempted += 1;
            let Some(verdict) = answer.body.map(|id| &verdicts[id]) else {
                continue;
            };
            socket_ok += u64::from(verdict.ok);
            if verdict.cached {
                hit_latencies_ms.push(answer.latency_ns as f64 / 1e6);
                // The hit ratio describes the workload's own traffic, not
                // the replay that follows it.
                if phase + 1 < socket.logs.len() {
                    cached_answers += 1;
                }
            }
        }
    }
    let workload_answers: usize = socket.logs[..socket.logs.len() - 1]
        .iter()
        .map(|log| log.answers.len())
        .sum();

    // Self times per layer.
    let spans = recorder.spans();
    let selfs = self_times(spans);
    // name -> (total self time, durations)
    let mut by_name: BTreeMap<&str, (u64, Vec<f64>)> = BTreeMap::new();
    for (span, &own) in spans.iter().zip(&selfs) {
        let slot = by_name.entry(span.name).or_default();
        slot.0 += own;
        slot.1.push(span.duration() as f64);
    }
    let total_ns = |name: &str| by_name.get(name).map_or(0, |s| s.0) as f64;
    let duration_ns = |name: &str| by_name.get(name).map_or(0.0, |s| s.1.iter().sum());
    let median_us = |name: &str| {
        by_name
            .get(name)
            .and_then(|s| median(&s.1))
            .map_or(0.0, |ns| ns / 1e3)
    };
    let service_ns = total_ns("service.search");
    let attributed_ns: f64 = SERVICE_LAYERS.iter().map(|name| total_ns(name)).sum();
    let unattributed = if service_ns > 0.0 {
        (service_ns - attributed_ns) / service_ns
    } else {
        0.0
    };

    let p50_socket_hit_us = percentile(&socket.replay_latencies_us(), 50.0).unwrap_or(0.0);
    let p50_inprocess_hit_us = percentile(&hit_replay.all_us(), 50.0).unwrap_or(0.0);
    let counts = &pipeline.counts;
    let run_s = duration_ns("search.run") / 1e9;
    let metrics = vec![
        Metric::new(
            "http.overhead_us",
            p50_socket_hit_us - p50_inprocess_hit_us,
            "us",
        ),
        Metric::new("http.connections", socket.connections as f64, "count"),
        Metric::new(
            "http.keepalive_reuses",
            socket.keepalive_reuses as f64,
            "count",
        ),
        Metric::new("http.queue_wait_p99_ms", socket.queue_wait_p99_ms, "ms"),
        Metric::new("http.shed", socket.shed as f64, "count"),
        Metric::new(
            "http.hit_latency_p99_ms",
            percentile(&hit_latencies_ms, 99.0).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("wire.decode_us", median_us("wire.decode"), "us"),
        Metric::new("wire.encode_us", median_us("wire.encode"), "us"),
        Metric::new(
            "wire.response_bytes",
            median(&pipeline.response_bytes).unwrap_or(0.0),
            "bytes",
        ),
        Metric::new(
            "fingerprint.canon_us",
            median_us("fingerprint.canonicalize"),
            "us",
        ),
        Metric::new(
            "fingerprint.canon_nodes",
            counts.canon_nodes as f64,
            "count",
        ),
        Metric::new("cache.get_us", median_us("cache.get"), "us"),
        Metric::new("cache.insert_us", median_us("cache.insert"), "us"),
        Metric::new(
            "cache.journal_append_us",
            median_us("cache.journal_append"),
            "us",
        ),
        Metric::new(
            "cache.hit_ratio",
            cached_answers as f64 / workload_answers.max(1) as f64,
            "fraction",
        ),
        Metric::new("singleflight.coalesced", socket.coalesced as f64, "count"),
        Metric::new(
            "service.hit_us.exact",
            median(&hit_replay.exact_us).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "service.hit_us.relabeled",
            median(&hit_replay.relabeled_us).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "service.miss_overhead_ms",
            median(&pipeline.miss_overhead_ms).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("search.run_ms", duration_ns("search.run") / 1e6, "ms"),
        Metric::new(
            "search.repetend_ms",
            total_ns("search.repetend") / 1e6,
            "ms",
        ),
        Metric::new("search.warmup_ms", total_ns("search.warmup") / 1e6, "ms"),
        Metric::new(
            "search.cooldown_ms",
            total_ns("search.cooldown") / 1e6,
            "ms",
        ),
        Metric::new(
            "search.first_incumbent_ms",
            median(&pipeline.first_incumbent_ms).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("search.candidates", counts.candidates as f64, "count"),
        Metric::new(
            "search.repetend_solves",
            counts.repetend_solves as f64,
            "count",
        ),
        Metric::new(
            "search.feasibility_probes",
            counts.feasibility_probes as f64,
            "count",
        ),
        Metric::new("solver.nodes", counts.solver_nodes as f64, "count"),
        Metric::new(
            "solver.nodes_per_s",
            if run_s > 0.0 {
                counts.solver_nodes as f64 / run_s
            } else {
                0.0
            },
            "1/s",
        ),
        Metric::new(
            "solver.prune_ratio",
            if counts.solver_nodes > 0 {
                counts.pruned as f64 / counts.solver_nodes as f64
            } else {
                0.0
            },
            "fraction",
        ),
        Metric::new("runtime.simulate_us", median_us("runtime.simulate"), "us"),
        Metric::new("ledger.unattributed_frac", unattributed, "fraction"),
        Metric::new("trace.overhead_frac", tracing_cost, "fraction"),
    ];

    let operations = socket_attempted + 2 * list.len() as u64;
    let failed =
        (socket_attempted - socket_ok + pipeline.failed + hit_replay.failed).min(operations);
    let mut outcome = Outcome::new(operations, failed, violations);
    outcome.metrics = metrics;
    let mut quality = pipeline.bubble_rates.clone();
    quality.sort_by(f64::total_cmp);
    outcome.counters = vec![
        ("solver.nodes", counts.solver_nodes as f64),
        ("search.candidates", counts.candidates as f64),
        ("search.repetend_solves", counts.repetend_solves as f64),
        ("fingerprint.canon_nodes", counts.canon_nodes as f64),
        ("bubble_rate_mean", mean(&quality).unwrap_or(0.0)),
    ];
    outcome.samples = hit_latencies_ms.len();

    // The ledger table: self time per layer, largest first. Shares are of
    // the layer spans' total; the replica's envelope (`request`) and the
    // sibling service call, which repeats the replica's work, have none.
    let shared = |name: &str| name != "request" && name != "service.search";
    let layer_total: f64 = by_name
        .iter()
        .filter(|(name, _)| shared(name))
        .map(|(_, s)| s.0 as f64)
        .sum();
    let mut rows: Vec<(&str, u64, usize)> = by_name
        .iter()
        .map(|(name, s)| (*name, s.0, s.1.len()))
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    outcome.notes.push(format!(
        "ledger over {} requests ({} misses); self time per span, share of all layer self time:",
        list.len(),
        pipeline.misses
    ));
    for (name, own, count) in rows {
        let share = if shared(name) && layer_total > 0.0 {
            format!("{:5.1}%", 100.0 * own as f64 / layer_total)
        } else {
            "    -".to_string()
        };
        outcome.notes.push(format!(
            "  {name:<26} {:>10.3} ms  {share}  x{count}",
            own as f64 / 1e6
        ));
    }
    let spans_path = state.record_file(&format!(
        "spans-{}-seed{}.jsonl",
        workload.name(),
        prepared.seed
    ));
    recorder
        .write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    outcome
        .notes
        .push(format!("spans written to {}", spans_path.display()));
    Ok(outcome)
}

struct SocketPhase {
    /// One log per workload client, then the hit replay's log last.
    logs: Vec<ClientLog>,
    connections: u64,
    keepalive_reuses: u64,
    shed: u64,
    queue_wait_p99_ms: f64,
    coalesced: u64,
}

impl SocketPhase {
    fn replay_latencies_us(&self) -> Vec<f64> {
        self.logs
            .last()
            .map(|log| {
                log.answers
                    .iter()
                    .map(|a| a.latency_ns as f64 / 1e3)
                    .collect()
            })
            .unwrap_or_default()
    }
}

fn socket_phase(prepared: &Prepared, state: &State, list: &[Pick]) -> Result<SocketPhase, String> {
    let (daemon, mut clients) = start(prepared, state, "socket")?;
    if prepared.workload.warmed() {
        warm(&mut clients[0], prepared)?;
    }
    let next = AtomicUsize::new(0);
    let mut logs = drive_all(&mut clients, prepared, Instant::now(), &|| {
        let i = next.fetch_add(1, Ordering::Relaxed);
        list.get(i).map(|&pick| (i, pick))
    });
    let mut replay = list.iter().copied().enumerate();
    logs.push(drive(&mut clients[0], prepared, Instant::now(), || {
        replay.next()
    }));
    drop(clients);
    let metrics = scrape_all(daemon.addr())?;
    daemon.stop()?;
    let counter = |name: &str| sample(&metrics, name).map(|v| v as u64);
    Ok(SocketPhase {
        logs,
        connections: counter("tessel_http_connections_accepted_total")?,
        keepalive_reuses: counter("tessel_http_keepalive_reuses_total")?,
        shed: counter("tessel_admission_shed_total")?,
        queue_wait_p99_ms: histogram_p99_ms(&metrics, "tessel_admission_wait_seconds"),
        coalesced: counter("tessel_coalesced_total")?,
    })
}

/// The upper bound, in ms, of the bucket holding the 99th percentile of a
/// Prometheus duration histogram (0 when it is empty).
fn histogram_p99_ms(metrics: &str, name: &str) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let buckets: Vec<(f64, f64)> = metrics
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total == 0.0 {
        return 0.0;
    }
    buckets
        .iter()
        .find(|(_, count)| *count >= 0.99 * total)
        .map_or(0.0, |(le, _)| le * 1e3)
}

#[derive(Debug, Default)]
struct Counts {
    canon_nodes: u64,
    solver_nodes: u64,
    pruned: u64,
    candidates: u64,
    repetend_solves: u64,
    feasibility_probes: u64,
}

/// The in-process replica of the service pipeline plus the real service.
struct Pipeline<'a> {
    prepared: &'a Prepared,
    service: ScheduleService,
    cache: ShardedCache,
    journal: Option<CacheJournal>,
    references: Vec<Option<Reference>>,
    counts: Counts,
    misses: usize,
    failed: u64,
    miss_overhead_ms: Vec<f64>,
    first_incumbent_ms: Vec<f64>,
    response_bytes: Vec<f64>,
    bubble_rates: Vec<f64>,
}

struct HitReplay {
    exact_us: Vec<f64>,
    relabeled_us: Vec<f64>,
    failed: u64,
}

impl HitReplay {
    fn all_us(&self) -> Vec<f64> {
        self.exact_us
            .iter()
            .chain(&self.relabeled_us)
            .copied()
            .collect()
    }
}

/// What the replica found for one request.
struct Traced {
    canon_ns: u64,
    run_ns: u64,
    simulate_ns: u64,
}

impl<'a> Pipeline<'a> {
    fn new(prepared: &'a Prepared, state: &State) -> Result<Self, String> {
        let workload = prepared.workload;
        let service = ScheduleService::new(service_config(workload, state, "service.journal"))
            .map_err(|e| format!("service: {e}"))?;
        let journal = workload.journal().then(|| {
            CacheJournal::new(
                state.scratch_file("replica.journal"),
                service.config().journal_compact_every,
            )
        });
        Ok(Pipeline {
            prepared,
            cache: ShardedCache::new(&CacheConfig::default()),
            journal,
            service,
            references: vec![None; prepared.entries.len()],
            counts: Counts::default(),
            misses: 0,
            failed: 0,
            miss_overhead_ms: Vec::new(),
            first_incumbent_ms: Vec::new(),
            response_bytes: Vec::new(),
            bubble_rates: Vec::new(),
        })
    }

    /// Fills the service and the replica with the whole catalog, untimed.
    fn warm(&mut self) -> Result<(), String> {
        let mut scratch = Recorder::new();
        for entry in 0..self.prepared.entries.len() {
            let pick = Pick { entry, variant: 0 };
            let request: SearchRequest =
                serde_json::from_str(self.prepared.body(pick)).expect("prepared bodies decode");
            self.service
                .search(&request)
                .map_err(|e| format!("warming {}: {e}", self.prepared.entries[entry].label))?;
            let root = scratch.open("request", entry, None);
            self.replica(&mut scratch, entry, pick, &request, root)?;
        }
        self.counts = Counts::default();
        self.misses = 0;
        self.first_incumbent_ms.clear();
        Ok(())
    }

    /// Replays one request through replica and service, checking the
    /// service's answer.
    fn request(&mut self, recorder: &mut Recorder, i: usize, pick: Pick) -> Result<(), String> {
        let body = self.prepared.body(pick);
        let (decoded, _) = recorder.time("wire.decode", i, None, || {
            serde_json::from_str::<SearchRequest>(body)
        });
        let request = decoded.map_err(|e| format!("decode: {e}"))?;

        let service_first = i.is_multiple_of(2);
        let mut answer = None;
        if service_first {
            answer = Some(self.service_search(recorder, i, &request));
        }
        let root = recorder.open("request", i, None);
        let traced = self.replica(recorder, i, pick, &request, root);
        recorder.close(root);
        if !service_first {
            answer = Some(self.service_search(recorder, i, &request));
        }
        let (response, service_ns) = answer.expect("the service answered");
        let traced = traced.inspect_err(|_| self.failed += 1)?;
        let response = response.inspect_err(|_| self.failed += 1)?;
        if let Some(traced) = traced {
            self.miss_overhead_ms.push(
                (service_ns as f64
                    - traced.canon_ns as f64
                    - traced.run_ns as f64
                    - traced.simulate_ns as f64)
                    / 1e6,
            );
        }

        let (text, _) = recorder.time("wire.encode", i, None, || serde_json::to_string(&response));
        let text = text.map_err(|e| format!("encode: {e}"))?;
        self.response_bytes.push(text.len() as f64);
        self.bubble_rates.push(response.bubble_rate);
        check_answer(self.prepared, &self.references, pick, &response)
            .inspect_err(|_| self.failed += 1)
    }

    fn service_search(
        &self,
        recorder: &mut Recorder,
        i: usize,
        request: &SearchRequest,
    ) -> (Result<SearchResponse, String>, u64) {
        let (response, id) =
            recorder.time("service.search", i, None, || self.service.search(request));
        (
            response.map_err(|e| format!("service: {e}")),
            recorder.spans()[id].duration(),
        )
    }

    /// Canonicalize, look up and, on a miss, search, simulate, insert and
    /// journal — each call in its own span under `root`. Returns the miss
    /// path's timings, or `None` on a hit.
    fn replica(
        &mut self,
        recorder: &mut Recorder,
        i: usize,
        pick: Pick,
        request: &SearchRequest,
        root: usize,
    ) -> Result<Option<Traced>, String> {
        let entry = &self.prepared.entries[pick.entry];
        let ((canon, canon_stats), canon_id) =
            recorder.time("fingerprint.canonicalize", i, Some(root), || {
                request.placement.canonicalize_budgeted(DEFAULT_NODE_BUDGET)
            });
        self.counts.canon_nodes += canon_stats.nodes;
        let params = CacheParams {
            num_micro_batches: entry.n,
            max_repetend_micro_batches: entry.nr,
        };
        let key = CacheKey::new(canon.fingerprint, &params);
        let cache = &self.cache;
        let (found, _) = recorder.time("cache.get", i, Some(root), || cache.get(key));
        if found.is_some() {
            return Ok(None);
        }

        self.misses += 1;
        let first_incumbent: Arc<Mutex<Option<Instant>>> = Arc::default();
        let sink = {
            let first = first_incumbent.clone();
            IncumbentSink::new(move |_| {
                first
                    .lock()
                    .expect("incumbent clock lock")
                    .get_or_insert_with(Instant::now);
            })
        };
        let config = search_config(entry).with_incumbent_sink(sink);
        let started = Instant::now();
        let (outcome, run_id) = recorder.time("search.run", i, Some(root), || {
            TesselSearch::new(config).run(&canon.placement)
        });
        let outcome = outcome.map_err(|e| format!("{}: search failed: {e}", entry.label))?;
        if let Some(first) = *first_incumbent.lock().expect("incumbent clock lock") {
            self.first_incumbent_ms
                .push(first.duration_since(started).as_secs_f64() * 1e3);
        }
        // The phases interleave inside the run; laid end to end from its
        // start they keep their durations, which is all self time needs.
        let phases = outcome.stats.phase_times;
        let mut cursor = recorder.spans()[run_id].start;
        for (name, duration) in [
            ("search.repetend", phases.repetend),
            ("search.warmup", phases.warmup),
            ("search.cooldown", phases.cooldown),
        ] {
            let end = cursor + duration.as_nanos() as u64;
            recorder.record(name, i, Some(run_id), cursor, end);
            cursor = end;
        }
        let stats = &outcome.stats;
        self.counts.solver_nodes += stats.solver.nodes;
        self.counts.pruned += stats.solver.pruned_bound + stats.solver.pruned_dominance;
        self.counts.candidates += stats.candidates_considered as u64;
        self.counts.repetend_solves += stats.repetend_solves as u64;
        self.counts.feasibility_probes += stats.feasibility_probes as u64;

        let cluster = ClusterSpec::v100_cluster(canon.placement.num_devices());
        let (report, simulate_id) = recorder.time("runtime.simulate", i, Some(root), || {
            instantiate(&canon.placement, &outcome.schedule, CommMode::NonBlocking)
                .and_then(|program| simulate(&program, &cluster, CommMode::NonBlocking))
        });
        let report = report.map_err(|e| format!("{}: simulation failed: {e}", entry.label))?;
        let bubble_rate = outcome.repetend.bubble_rate(&canon.placement);
        self.references[pick.entry].get_or_insert(Reference {
            fingerprint: canon.fingerprint,
            period: outcome.repetend.period,
            bubble_rate,
            canon_nodes: canon_stats.nodes,
            solver_nodes: stats.solver.nodes,
            candidates: stats.candidates_considered as u64,
            repetend_solves: stats.repetend_solves as u64,
        });
        let run_ns = recorder.spans()[run_id].duration();
        let cached = Arc::new(CachedSearch {
            fingerprint: canon.fingerprint,
            params,
            canonical_placement: canon.placement,
            period: outcome.repetend.period,
            repetend_micro_batches: outcome.repetend.num_micro_batches(),
            bubble_rate,
            schedule: outcome.schedule,
            utilization: report.utilization_summary(),
            solver: outcome.stats.solver,
            search_millis: run_ns / 1_000_000,
        });
        recorder.time("cache.insert", i, Some(root), || {
            cache.insert(key, cached.clone())
        });
        if let Some(journal) = &self.journal {
            let (appended, _) = recorder.time("cache.journal_append", i, Some(root), || {
                journal.append(cache, key, &cached)
            });
            appended.map_err(|e| format!("journal append: {e}"))?;
        }
        let spans = recorder.spans();
        Ok(Some(Traced {
            canon_ns: spans[canon_id].duration(),
            run_ns,
            simulate_ns: spans[simulate_id].duration(),
        }))
    }

    /// `ScheduleService::search` on every request again: all cache hits.
    fn hit_replay(
        &self,
        list: &[Pick],
        requests: &[SearchRequest],
        violations: &mut Vec<String>,
    ) -> HitReplay {
        let mut replay = HitReplay {
            exact_us: Vec::new(),
            relabeled_us: Vec::new(),
            failed: 0,
        };
        for (&pick, request) in list.iter().zip(requests) {
            let started = Instant::now();
            let result = self.service.search(request);
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            match result {
                Ok(response) if response.cached => {
                    if pick.relabeled() {
                        replay.relabeled_us.push(us);
                    } else {
                        replay.exact_us.push(us);
                    }
                }
                Ok(_) => {
                    replay.failed += 1;
                    violations.push(format!(
                        "hit replay of entry {} was not a cache hit",
                        pick.entry
                    ));
                }
                Err(e) => {
                    replay.failed += 1;
                    violations.push(format!("hit replay: {e}"));
                }
            }
        }
        replay
    }

    /// Relative cost of span recording on the hit path: decode,
    /// canonicalize and cache get, timed with and without spans.
    fn tracing_cost(&self, list: &[Pick]) -> f64 {
        let (mut plain_ns, mut traced_ns) = (0u128, 0u128);
        for round in 0..OVERHEAD_ROUNDS {
            for (i, &pick) in list.iter().enumerate() {
                let body = self.prepared.body(pick);
                let entry = &self.prepared.entries[pick.entry];
                let params = CacheParams {
                    num_micro_batches: entry.n,
                    max_repetend_micro_batches: entry.nr,
                };
                let plain = || {
                    let started = Instant::now();
                    let request: SearchRequest =
                        serde_json::from_str(body).expect("prepared bodies decode");
                    let (canon, _) = request.placement.canonicalize_budgeted(DEFAULT_NODE_BUDGET);
                    std::hint::black_box(self.cache.get(CacheKey::new(canon.fingerprint, &params)));
                    started.elapsed().as_nanos()
                };
                let traced = || {
                    let mut recorder = Recorder::new();
                    let started = Instant::now();
                    let root = recorder.open("request", i, None);
                    let (request, _) = recorder.time("wire.decode", i, None, || {
                        serde_json::from_str::<SearchRequest>(body).expect("prepared bodies decode")
                    });
                    let ((canon, _), _) =
                        recorder.time("fingerprint.canonicalize", i, Some(root), || {
                            request.placement.canonicalize_budgeted(DEFAULT_NODE_BUDGET)
                        });
                    let key = CacheKey::new(canon.fingerprint, &params);
                    std::hint::black_box(
                        recorder.time("cache.get", i, Some(root), || self.cache.get(key)),
                    );
                    recorder.close(root);
                    std::hint::black_box(recorder.spans().len());
                    started.elapsed().as_nanos()
                };
                if (round + i) % 2 == 0 {
                    plain_ns += plain();
                    traced_ns += traced();
                } else {
                    traced_ns += traced();
                    plain_ns += plain();
                }
            }
        }
        if plain_ns == 0 {
            0.0
        } else {
            (traced_ns as f64 - plain_ns as f64) / plain_ns as f64
        }
    }
}

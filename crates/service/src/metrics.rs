//! Daemon metrics: the service, transport and cluster instruments behind
//! `GET /metrics`.
//!
//! Every series is declared once, with its name and help text: stored ones
//! as fields of an [`instruments!`] struct, ones sampled at scrape time as a
//! [`Desc`]. Each struct renders its part of the page in Prometheus text
//! exposition format. Counters and
//! gauges are relaxed atomics (the hot path adds a handful of increments per
//! request). Latency lives in two [`tessel_obs::HistogramFamily`]s, one
//! labeled by endpoint and one by request-lifecycle stage.

use tessel_obs::{instruments, Desc};
use tessel_solver::SolverTotals;

/// The fixed label set of the per-endpoint request-duration histogram family.
///
/// Paths are coarsened to this set by [`ServiceMetrics::endpoint_label`] so an
/// attacker probing random URLs cannot mint unbounded label values.
pub const ENDPOINT_LABELS: [&str; 12] = [
    "/v1/search",
    "/v1/search/batch",
    "/v1/cache",
    "/v1/cluster",
    "/v1/debug/requests",
    "/v1/debug/inflight",
    "/v1/debug/timeseries",
    "/v1/debug/trace",
    "/v1/debug/loglevel",
    "/metrics",
    "/healthz",
    "other",
];

/// The fixed label set of the per-stage duration histogram family — the span
/// taxonomy of the request lifecycle (see `docs/ARCHITECTURE.md`).
pub const STAGE_LABELS: [&str; 11] = [
    "parse",
    "queue_wait",
    "cache_lookup",
    "singleflight_wait",
    "remote_fetch",
    "solve",
    "solver_warmstart",
    "solver_parallel",
    "translate",
    "serialize",
    "write",
];

instruments! {
    /// Live metrics of a [`crate::ScheduleService`].
    pub struct ServiceMetrics {
        requests: Metric::counter("tessel_requests_total", "Search requests received."),
        cache_hits: Metric::counter(
            "tessel_cache_hits_total",
            "Requests served from the result cache."
        ),
        cache_misses: Metric::counter(
            "tessel_cache_misses_total",
            "Requests that ran a full search."
        ),
        coalesced: Metric::counter(
            "tessel_coalesced_total",
            "Requests coalesced onto an in-flight search."
        ),
        timeouts: Metric::counter(
            "tessel_timeouts_total",
            "Requests that exceeded their deadline."
        ),
        errors: Metric::counter("tessel_errors_total", "Requests that failed for other reasons."),
        in_flight: Metric::gauge("tessel_in_flight_searches", "Searches currently running."),
        solver_solves: Metric::counter(
            "tessel_solver_solves_total",
            "Exact-solver invocations across completed searches."
        ),
        solver_nodes: Metric::counter(
            "tessel_solver_nodes_total",
            "Branch-and-bound nodes expanded across completed searches."
        ),
        solver_pruned_bound: Metric::counter(
            "tessel_solver_pruned_bound_total",
            "Solver nodes pruned by the makespan lower bound."
        ),
        solver_pruned_dominance: Metric::counter(
            "tessel_solver_pruned_dominance_total",
            "Solver nodes pruned by state dominance."
        ),
        solver_steals: Metric::counter(
            "tessel_solver_steals_total",
            "Subtree tasks stolen between parallel solver workers."
        ),
        solver_shared_memo_hits: Metric::counter(
            "tessel_solver_shared_memo_hits_total",
            "Dominance prunes served by another solver worker's record."
        ),
        solver_cas_retries: Metric::counter(
            "tessel_solver_cas_retries_total",
            "Contention events (lost CAS races, discarded seqlock reads, skipped mid-build segments) in the solver's lock-free shared structures."
        ),
        solver_steal_failures: Metric::counter(
            "tessel_solver_steal_failures_total",
            "Solver steal attempts that lost the deque-top race."
        ),
        solver_memo_drops: Metric::counter(
            "tessel_solver_memo_drops_total",
            "Finish vectors the bounded-probe dominance table declined to memoise."
        ),
        // Any nonzero value means the exact canonical labeling broke its
        // contract.
        fingerprint_paranoia_mismatches: Metric::counter(
            "tessel_fingerprint_paranoia_mismatches_total",
            "Canonical-form mismatches caught by the --paranoid-fingerprints lookup re-comparison that trusted fingerprint equality would have accepted."
        ),
        // Nonzero means a peer is confused or hostile: the check is the only
        // defence against a consistent but mislabeled peer payload.
        fingerprint_wire_mismatches: Metric::counter(
            "tessel_fingerprint_wire_mismatches_total",
            "Replication/warm-up entries rejected because the shipped placement did not re-canonicalize to its claimed fingerprint (always checked)."
        ),
        // See `tessel_core::fingerprint::DEFAULT_NODE_BUDGET`.
        canon_budget_exhausted: Metric::counter(
            "tessel_fingerprint_canon_budget_exhausted_total",
            "Canonical-labeling searches that hit the node budget and completed greedily."
        ),
        batch_deduped: Metric::counter(
            "tessel_batch_deduped_total",
            "Batch-search members deduplicated within their batch (fingerprint-identical to another member)."
        ),
        journal_stale_dropped: Metric::counter(
            "tessel_cache_journal_stale_dropped_total",
            "Journal records dropped at startup because re-canonicalization no longer reproduces their stored fingerprint."
        ),
        endpoint_durations: HistogramFamily::labeled(
            "tessel_http_request_duration_seconds",
            "End-to-end request duration by endpoint.",
            "endpoint",
            &ENDPOINT_LABELS
        ),
        stage_durations: HistogramFamily::labeled(
            "tessel_request_stage_duration_seconds",
            "Time spent per request-lifecycle stage.",
            "stage",
            &STAGE_LABELS
        ),
    }
}

/// Rendered from [`ServiceMetrics::hit_rate`]: hits ÷ (hits + misses), 0
/// before the first lookup. Coalesced and failed requests are in neither
/// count.
const CACHE_HIT_RATE: Desc = Desc::gauge("tessel_cache_hit_rate", "Cache hit rate.");
const CACHE_ENTRIES: Desc = Desc::gauge("tessel_cache_entries", "Entries currently cached.");
const CACHE_EVICTIONS: Desc =
    Desc::counter("tessel_cache_evictions_total", "LRU evictions so far.");

impl ServiceMetrics {
    /// Folds one completed search's aggregate solver effort into the
    /// daemon-lifetime counters.
    pub fn record_solver(&self, totals: &SolverTotals) {
        self.solver_solves.add(totals.solves);
        self.solver_nodes.add(totals.nodes);
        self.solver_pruned_bound.add(totals.pruned_bound);
        self.solver_pruned_dominance.add(totals.pruned_dominance);
        self.solver_steals.add(totals.steals);
        self.solver_shared_memo_hits.add(totals.shared_memo_hits);
        self.solver_cas_retries.add(totals.cas_retries);
        self.solver_steal_failures.add(totals.steal_failures);
        self.solver_memo_drops.add(totals.memo_drops);
    }

    /// Cache hits ÷ (hits + misses), 0 before the first lookup. Coalesced
    /// and failed requests are in neither count.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.cache_hits.get();
        let looked_up = hits + self.cache_misses.get();
        if looked_up == 0 {
            0.0
        } else {
            hits as f64 / looked_up as f64
        }
    }

    /// Coarsens a request path to its [`ENDPOINT_LABELS`] entry: an exact
    /// match, or a `/`-separated sub-path of a collection endpoint.
    #[must_use]
    pub fn endpoint_label(path: &str) -> &'static str {
        const COLLECTIONS: [&str; 3] = ["/v1/cache", "/v1/cluster", "/v1/debug/trace"];
        let within = |label: &str| {
            COLLECTIONS.contains(&label)
                && path
                    .strip_prefix(label)
                    .is_some_and(|rest| rest.starts_with('/'))
        };
        ENDPOINT_LABELS
            .into_iter()
            .find(|&label| path == label || within(label))
            .unwrap_or("other")
    }

    /// Records one completed request into the per-endpoint duration
    /// histogram. `label` must come from [`ServiceMetrics::endpoint_label`];
    /// anything else lands under `other`.
    pub fn observe_endpoint_micros(&self, label: &str, micros: u64) {
        if !self.endpoint_durations.observe_micros(label, micros) {
            self.endpoint_durations.observe_micros("other", micros);
        }
    }

    /// Appends the service's series to `out`; the cache gauges are sampled
    /// by the caller.
    pub fn render(&self, out: &mut String, cache_entries: u64, cache_evictions: u64) {
        for metric in [
            &self.requests,
            &self.cache_hits,
            &self.cache_misses,
            &self.coalesced,
            &self.timeouts,
            &self.errors,
            &self.in_flight,
            &self.solver_solves,
            &self.solver_nodes,
            &self.solver_pruned_bound,
            &self.solver_pruned_dominance,
            &self.solver_steals,
            &self.solver_shared_memo_hits,
            &self.solver_cas_retries,
            &self.solver_steal_failures,
            &self.solver_memo_drops,
            &self.fingerprint_paranoia_mismatches,
            &self.fingerprint_wire_mismatches,
            &self.canon_budget_exhausted,
            &self.batch_deduped,
            &self.journal_stale_dropped,
        ] {
            metric.render(out);
        }
        CACHE_HIT_RATE.render(out, self.hit_rate());
        CACHE_ENTRIES.render(out, cache_entries);
        CACHE_EVICTIONS.render(out, cache_evictions);
        self.endpoint_durations.render(out);
        self.stage_durations.render(out);
    }
}

instruments! {
    /// Live transport-level metrics of the HTTP event loop.
    ///
    /// Owned by [`crate::HttpServer`]; the event-loop thread updates the
    /// gauges as connections open, go idle and close.
    pub struct TransportMetrics {
        connections_open: Metric::gauge("tessel_http_connections_open", "Connections currently open."),
        connections_idle: Metric::gauge(
            "tessel_http_connections_idle",
            "Open connections with no request in flight."
        ),
        connections_accepted: Metric::counter(
            "tessel_http_connections_accepted_total",
            "Connections accepted since startup."
        ),
        keepalive_reuses: Metric::counter(
            "tessel_http_keepalive_reuses_total",
            "Requests served over a reused (kept-alive) connection."
        ),
        pipelined_requests: Metric::counter(
            "tessel_http_pipelined_requests_total",
            "Requests parsed behind an in-flight request on the same connection."
        ),
        idle_closed: Metric::counter(
            "tessel_http_idle_closed_total",
            "Connections closed by the idle-timeout sweep."
        ),
        rejected_per_ip: Metric::counter(
            "tessel_http_rejected_per_ip_total",
            "Connections rejected by the per-IP accept cap."
        ),
        // Admission-control series live under `tessel_admission_` (not
        // `tessel_http_`): they describe queueing policy, not the socket
        // layer, and the bench tooling greps for them by that prefix.
        admission_queue_depth: Metric::gauge(
            "tessel_admission_queue_depth",
            "Requests currently waiting in the admission queue."
        ),
        admission_shed: Metric::counter(
            "tessel_admission_shed_total",
            "Requests shed by the admission queue under overload."
        ),
        admission_wait: HistogramFamily::unlabeled(
            "tessel_admission_wait_seconds",
            "Time requests waited in the admission queue."
        ),
    }
}

impl TransportMetrics {
    /// Appends the transport's series to `out`.
    pub fn render(&self, out: &mut String) {
        for metric in [
            &self.connections_open,
            &self.connections_idle,
            &self.connections_accepted,
            &self.keepalive_reuses,
            &self.pipelined_requests,
            &self.idle_closed,
            &self.rejected_per_ip,
            &self.admission_queue_depth,
            &self.admission_shed,
        ] {
            metric.render(out);
        }
        self.admission_wait.render(out);
    }
}

instruments! {
    /// Live counters of the cluster tier.
    ///
    /// Owned by [`crate::cluster::Cluster`]; the request path counts remote
    /// hits/misses/errors and the replication worker counts deliveries.
    pub struct ClusterMetrics {
        remote_hits: Metric::counter(
            "tessel_cluster_remote_hits_total",
            "Local misses served by the ring owner's cache."
        ),
        remote_misses: Metric::counter(
            "tessel_cluster_remote_misses_total",
            "Local misses the ring owner also missed."
        ),
        // An unreachable peer, an open circuit or an unusable payload.
        remote_errors: Metric::counter(
            "tessel_cluster_remote_errors_total",
            "Owner fetches that degraded to a local solve."
        ),
        replications_sent: Metric::counter(
            "tessel_cluster_replications_sent_total",
            "Entries successfully replicated to their owner."
        ),
        replications_received: Metric::counter(
            "tessel_cluster_replications_received_total",
            "Entries accepted from a non-owner daemon."
        ),
        replications_rejected: Metric::counter(
            "tessel_cluster_replications_rejected_total",
            "Replication payloads rejected by validation."
        ),
        replication_errors: Metric::counter(
            "tessel_cluster_replication_errors_total",
            "Replication deliveries that failed."
        ),
        replication_dropped: Metric::counter(
            "tessel_cluster_replication_dropped_total",
            "Replication jobs dropped by the bounded queue."
        ),
        warmup_entries: Metric::counter(
            "tessel_cluster_warmup_entries_total",
            "Entries streamed from peers during startup warm-up."
        ),
    }
}

// Named without the `_total` suffix: a configured-peer count is a gauge, and
// Prometheus reserves `_total` for counters.
const PEERS: Desc = Desc::gauge("tessel_cluster_peers", "Configured peers.");
const PEERS_HEALTHY: Desc = Desc::gauge(
    "tessel_cluster_peers_healthy",
    "Peers whose last contact succeeded.",
);
const CIRCUITS_OPEN: Desc = Desc::gauge(
    "tessel_cluster_circuits_open",
    "Peers with an open circuit right now.",
);

impl ClusterMetrics {
    /// Appends the cluster's series to `out`; the peer gauges are sampled
    /// by the caller from the peer table.
    pub fn render(&self, out: &mut String, peers: u64, peers_healthy: u64, circuits_open: u64) {
        for metric in [
            &self.remote_hits,
            &self.remote_misses,
            &self.remote_errors,
            &self.replications_sent,
            &self.replications_received,
            &self.replications_rejected,
            &self.replication_errors,
            &self.replication_dropped,
            &self.warmup_entries,
        ] {
            metric.render(out);
        }
        PEERS.render(out, peers);
        PEERS_HEALTHY.render(out, peers_healthy);
        CIRCUITS_OPEN.render(out, circuits_open);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_counts_only_hits_and_misses() {
        let m = ServiceMetrics::default();
        assert_eq!(m.hit_rate(), 0.0);
        m.cache_hits.add(2);
        m.cache_misses.inc();
        m.coalesced.add(5);
        m.errors.add(5);
        assert!((m.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_labels_coarsen_to_a_fixed_set() {
        assert_eq!(ServiceMetrics::endpoint_label("/v1/search"), "/v1/search");
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/search/batch"),
            "/v1/search/batch"
        );
        assert_eq!(ServiceMetrics::endpoint_label("/v1/cache"), "/v1/cache");
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/cache/deadbeef"),
            "/v1/cache"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/cluster/export/a"),
            "/v1/cluster"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/debug/requests"),
            "/v1/debug/requests"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/debug/inflight"),
            "/v1/debug/inflight"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/debug/timeseries"),
            "/v1/debug/timeseries"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label(&format!("/v1/debug/trace/{}", "a".repeat(32))),
            "/v1/debug/trace"
        );
        assert_eq!(
            ServiceMetrics::endpoint_label("/v1/debug/loglevel"),
            "/v1/debug/loglevel"
        );
        assert_eq!(ServiceMetrics::endpoint_label("/v1/debug/nope"), "other");
        assert_eq!(ServiceMetrics::endpoint_label("/metrics"), "/metrics");
        assert_eq!(ServiceMetrics::endpoint_label("/../../etc/passwd"), "other");
        assert_eq!(ServiceMetrics::endpoint_label("/v1/searchx"), "other");
    }

    #[test]
    fn histogram_families_render_bucket_series() {
        let m = ServiceMetrics::default();
        m.observe_endpoint_micros("/v1/search", 3_000);
        m.observe_endpoint_micros("no-such-endpoint", 10); // lands in `other`
        m.stage_durations.observe_micros("solve", 2_500);
        m.stage_durations.observe_micros("write", 80);
        m.stage_durations.observe_micros("not-a-stage", 1); // dropped
        let mut text = String::new();
        m.render(&mut text, 0, 0);
        assert!(text.contains("# TYPE tessel_http_request_duration_seconds histogram"));
        assert!(text.contains(
            "tessel_http_request_duration_seconds_bucket{endpoint=\"/v1/search\",le=\"0.005\"} 1"
        ));
        assert!(
            text.contains("tessel_http_request_duration_seconds_count{endpoint=\"/v1/search\"} 1")
        );
        assert!(text.contains("tessel_http_request_duration_seconds_count{endpoint=\"other\"} 1"));
        assert!(text.contains(
            "tessel_request_stage_duration_seconds_bucket{stage=\"solve\",le=\"0.0025\"} 1"
        ));
        assert!(text.contains("tessel_request_stage_duration_seconds_count{stage=\"write\"} 1"));
        // The unknown stage was dropped, not folded anywhere.
        let total: u64 = STAGE_LABELS
            .iter()
            .map(|label| {
                let needle =
                    format!("tessel_request_stage_duration_seconds_count{{stage=\"{label}\"}} ");
                text.lines()
                    .find(|line| line.starts_with(&needle))
                    .and_then(|line| line.rsplit(' ').next())
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 2);
    }
}

//! Golden test of the `GET /metrics` exposition.
//!
//! Pins, in order, every `# HELP`/`# TYPE` line of the page a real
//! [`HttpServer`] serves — standalone and in cluster mode — plus the sample
//! line of every service, transport and cluster counter and gauge for a
//! fixed set of recorded values. Live-page values (sampler rates, histogram
//! sums) move between runs, so the samples come from a direct render of the
//! three metric structs. Both live pages also pass the exposition-format
//! checker.

use std::sync::Arc;
use tessel_service::http::http_call;
use tessel_service::{
    ClusterConfig, ClusterMetrics, HttpServer, PeerConfig, ScheduleService, ServerConfig,
    ServiceConfig, ServiceMetrics, TransportMetrics,
};
use tessel_solver::SolverTotals;

/// Every family of the standalone page except the trailing live-plane gauge.
const LOCAL_FAMILIES: &str = "\
# HELP tessel_requests_total Search requests received.
# TYPE tessel_requests_total counter
# HELP tessel_cache_hits_total Requests served from the result cache.
# TYPE tessel_cache_hits_total counter
# HELP tessel_cache_misses_total Requests that ran a full search.
# TYPE tessel_cache_misses_total counter
# HELP tessel_coalesced_total Requests coalesced onto an in-flight search.
# TYPE tessel_coalesced_total counter
# HELP tessel_timeouts_total Requests that exceeded their deadline.
# TYPE tessel_timeouts_total counter
# HELP tessel_errors_total Requests that failed for other reasons.
# TYPE tessel_errors_total counter
# HELP tessel_in_flight_searches Searches currently running.
# TYPE tessel_in_flight_searches gauge
# HELP tessel_solver_solves_total Exact-solver invocations across completed searches.
# TYPE tessel_solver_solves_total counter
# HELP tessel_solver_nodes_total Branch-and-bound nodes expanded across completed searches.
# TYPE tessel_solver_nodes_total counter
# HELP tessel_solver_pruned_bound_total Solver nodes pruned by the makespan lower bound.
# TYPE tessel_solver_pruned_bound_total counter
# HELP tessel_solver_pruned_dominance_total Solver nodes pruned by state dominance.
# TYPE tessel_solver_pruned_dominance_total counter
# HELP tessel_solver_steals_total Subtree tasks stolen between parallel solver workers.
# TYPE tessel_solver_steals_total counter
# HELP tessel_solver_shared_memo_hits_total Dominance prunes served by another solver worker's record.
# TYPE tessel_solver_shared_memo_hits_total counter
# HELP tessel_solver_cas_retries_total Contention events (lost CAS races, discarded seqlock reads, skipped mid-build segments) in the solver's lock-free shared structures.
# TYPE tessel_solver_cas_retries_total counter
# HELP tessel_solver_steal_failures_total Solver steal attempts that lost the deque-top race.
# TYPE tessel_solver_steal_failures_total counter
# HELP tessel_solver_memo_drops_total Finish vectors the bounded-probe dominance table declined to memoise.
# TYPE tessel_solver_memo_drops_total counter
# HELP tessel_fingerprint_paranoia_mismatches_total Canonical-form mismatches caught by the --paranoid-fingerprints lookup re-comparison that trusted fingerprint equality would have accepted.
# TYPE tessel_fingerprint_paranoia_mismatches_total counter
# HELP tessel_fingerprint_wire_mismatches_total Replication/warm-up entries rejected because the shipped placement did not re-canonicalize to its claimed fingerprint (always checked).
# TYPE tessel_fingerprint_wire_mismatches_total counter
# HELP tessel_fingerprint_canon_budget_exhausted_total Canonical-labeling searches that hit the node budget and completed greedily.
# TYPE tessel_fingerprint_canon_budget_exhausted_total counter
# HELP tessel_batch_deduped_total Batch-search members deduplicated within their batch (fingerprint-identical to another member).
# TYPE tessel_batch_deduped_total counter
# HELP tessel_cache_journal_stale_dropped_total Journal records dropped at startup because re-canonicalization no longer reproduces their stored fingerprint.
# TYPE tessel_cache_journal_stale_dropped_total counter
# HELP tessel_cache_hit_rate Cache hit rate.
# TYPE tessel_cache_hit_rate gauge
# HELP tessel_cache_entries Entries currently cached.
# TYPE tessel_cache_entries gauge
# HELP tessel_cache_evictions_total LRU evictions so far.
# TYPE tessel_cache_evictions_total counter
# HELP tessel_http_request_duration_seconds End-to-end request duration by endpoint.
# TYPE tessel_http_request_duration_seconds histogram
# HELP tessel_request_stage_duration_seconds Time spent per request-lifecycle stage.
# TYPE tessel_request_stage_duration_seconds histogram
# HELP tessel_http_connections_open Connections currently open.
# TYPE tessel_http_connections_open gauge
# HELP tessel_http_connections_idle Open connections with no request in flight.
# TYPE tessel_http_connections_idle gauge
# HELP tessel_http_connections_accepted_total Connections accepted since startup.
# TYPE tessel_http_connections_accepted_total counter
# HELP tessel_http_keepalive_reuses_total Requests served over a reused (kept-alive) connection.
# TYPE tessel_http_keepalive_reuses_total counter
# HELP tessel_http_pipelined_requests_total Requests parsed behind an in-flight request on the same connection.
# TYPE tessel_http_pipelined_requests_total counter
# HELP tessel_http_idle_closed_total Connections closed by the idle-timeout sweep.
# TYPE tessel_http_idle_closed_total counter
# HELP tessel_http_rejected_per_ip_total Connections rejected by the per-IP accept cap.
# TYPE tessel_http_rejected_per_ip_total counter
# HELP tessel_admission_queue_depth Requests currently waiting in the admission queue.
# TYPE tessel_admission_queue_depth gauge
# HELP tessel_admission_shed_total Requests shed by the admission queue under overload.
# TYPE tessel_admission_shed_total counter
# HELP tessel_admission_wait_seconds Time requests waited in the admission queue.
# TYPE tessel_admission_wait_seconds histogram
";

/// The families cluster mode adds, between the local ones and the
/// live-plane gauge.
const CLUSTER_FAMILIES: &str = "\
# HELP tessel_cluster_remote_hits_total Local misses served by the ring owner's cache.
# TYPE tessel_cluster_remote_hits_total counter
# HELP tessel_cluster_remote_misses_total Local misses the ring owner also missed.
# TYPE tessel_cluster_remote_misses_total counter
# HELP tessel_cluster_remote_errors_total Owner fetches that degraded to a local solve.
# TYPE tessel_cluster_remote_errors_total counter
# HELP tessel_cluster_replications_sent_total Entries successfully replicated to their owner.
# TYPE tessel_cluster_replications_sent_total counter
# HELP tessel_cluster_replications_received_total Entries accepted from a non-owner daemon.
# TYPE tessel_cluster_replications_received_total counter
# HELP tessel_cluster_replications_rejected_total Replication payloads rejected by validation.
# TYPE tessel_cluster_replications_rejected_total counter
# HELP tessel_cluster_replication_errors_total Replication deliveries that failed.
# TYPE tessel_cluster_replication_errors_total counter
# HELP tessel_cluster_replication_dropped_total Replication jobs dropped by the bounded queue.
# TYPE tessel_cluster_replication_dropped_total counter
# HELP tessel_cluster_warmup_entries_total Entries streamed from peers during startup warm-up.
# TYPE tessel_cluster_warmup_entries_total counter
# HELP tessel_cluster_peers Configured peers.
# TYPE tessel_cluster_peers gauge
# HELP tessel_cluster_peers_healthy Peers whose last contact succeeded.
# TYPE tessel_cluster_peers_healthy gauge
# HELP tessel_cluster_circuits_open Peers with an open circuit right now.
# TYPE tessel_cluster_circuits_open gauge
";

/// The live-plane gauge family that closes every page.
const TIMESERIES_FAMILY: &str = "\
# HELP tessel_timeseries_last Most recent live-plane sample per series.
# TYPE tessel_timeseries_last gauge
";

/// Counter and gauge samples of [`recorded_page`], in page order.
const RECORDED_SAMPLES: &str = "\
tessel_requests_total 30
tessel_cache_hits_total 20
tessel_cache_misses_total 10
tessel_coalesced_total 4
tessel_timeouts_total 5
tessel_errors_total 6
tessel_in_flight_searches 7
tessel_solver_solves_total 11
tessel_solver_nodes_total 12000
tessel_solver_pruned_bound_total 13
tessel_solver_pruned_dominance_total 14
tessel_solver_steals_total 15
tessel_solver_shared_memo_hits_total 16
tessel_solver_cas_retries_total 17
tessel_solver_steal_failures_total 18
tessel_solver_memo_drops_total 19
tessel_fingerprint_paranoia_mismatches_total 21
tessel_fingerprint_wire_mismatches_total 22
tessel_fingerprint_canon_budget_exhausted_total 23
tessel_batch_deduped_total 24
tessel_cache_journal_stale_dropped_total 25
tessel_cache_hit_rate 0.6666666666666666
tessel_cache_entries 26
tessel_cache_evictions_total 27
tessel_http_connections_open 31
tessel_http_connections_idle 32
tessel_http_connections_accepted_total 33
tessel_http_keepalive_reuses_total 34
tessel_http_pipelined_requests_total 35
tessel_http_idle_closed_total 36
tessel_http_rejected_per_ip_total 37
tessel_admission_queue_depth 38
tessel_admission_shed_total 39
tessel_cluster_remote_hits_total 41
tessel_cluster_remote_misses_total 42
tessel_cluster_remote_errors_total 43
tessel_cluster_replications_sent_total 44
tessel_cluster_replications_received_total 45
tessel_cluster_replications_rejected_total 46
tessel_cluster_replication_errors_total 47
tessel_cluster_replication_dropped_total 48
tessel_cluster_warmup_entries_total 49
tessel_cluster_peers 3
tessel_cluster_peers_healthy 2
tessel_cluster_circuits_open 1
";

/// `GET /metrics` from a fresh daemon, standalone or as a cluster member
/// whose one peer never answers.
fn served_page(clustered: bool) -> String {
    let cluster = clustered.then(|| {
        let peer = PeerConfig {
            node_id: "b".into(),
            addr: "127.0.0.1:9".into(),
        };
        let mut config = ClusterConfig::new("a", vec![peer]);
        config.probe_interval = std::time::Duration::ZERO;
        config
    });
    let service = ScheduleService::new(ServiceConfig {
        cluster,
        ..ServiceConfig::default()
    })
    .unwrap();
    let server = HttpServer::serve(
        Arc::new(service),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let (status, body) =
        http_call(&server.local_addr().to_string(), "GET", "/metrics", None).unwrap();
    server.shutdown();
    assert_eq!(status, 200, "{body}");
    body
}

/// The `# HELP`/`# TYPE` lines of `page`, newline-terminated.
fn family_lines(page: &str) -> String {
    page.lines()
        .filter(|line| line.starts_with("# "))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The samples of `page`'s counter and gauge families, newline-terminated.
fn counter_and_gauge_samples(page: &str) -> String {
    let mut kind = "";
    let mut out = String::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            kind = rest.rsplit(' ').next().unwrap();
        } else if !line.starts_with('#') && matches!(kind, "counter" | "gauge") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The service, transport and cluster metrics rendered with a distinct
/// value recorded in every stored series.
fn recorded_page() -> String {
    let service = ServiceMetrics::default();
    for (metric, value) in [
        (&service.requests, 30),
        (&service.cache_hits, 20),
        (&service.cache_misses, 10),
        (&service.coalesced, 4),
        (&service.timeouts, 5),
        (&service.errors, 6),
        (&service.in_flight, 7),
        (&service.fingerprint_paranoia_mismatches, 21),
        (&service.fingerprint_wire_mismatches, 22),
        (&service.canon_budget_exhausted, 23),
        (&service.batch_deduped, 24),
        (&service.journal_stale_dropped, 25),
    ] {
        metric.add(value);
    }
    service.record_solver(&SolverTotals {
        solves: 11,
        nodes: 12_000,
        pruned_bound: 13,
        pruned_dominance: 14,
        steals: 15,
        shared_memo_hits: 16,
        cas_retries: 17,
        steal_failures: 18,
        memo_drops: 19,
        warmstart_micros: 0,
        parallel_micros: 0,
    });
    let transport = TransportMetrics::default();
    for (metric, value) in [
        (&transport.connections_open, 31),
        (&transport.connections_idle, 32),
        (&transport.connections_accepted, 33),
        (&transport.keepalive_reuses, 34),
        (&transport.pipelined_requests, 35),
        (&transport.idle_closed, 36),
        (&transport.rejected_per_ip, 37),
        (&transport.admission_queue_depth, 38),
        (&transport.admission_shed, 39),
    ] {
        metric.add(value);
    }
    let cluster = ClusterMetrics::default();
    for (metric, value) in [
        (&cluster.remote_hits, 41),
        (&cluster.remote_misses, 42),
        (&cluster.remote_errors, 43),
        (&cluster.replications_sent, 44),
        (&cluster.replications_received, 45),
        (&cluster.replications_rejected, 46),
        (&cluster.replication_errors, 47),
        (&cluster.replication_dropped, 48),
        (&cluster.warmup_entries, 49),
    ] {
        metric.add(value);
    }
    let mut page = String::new();
    service.render(&mut page, 26, 27);
    transport.render(&mut page);
    cluster.render(&mut page, 3, 2, 1);
    page
}

#[test]
fn standalone_page_declares_the_pinned_families_in_order() {
    let page = served_page(false);
    assert_valid_exposition(&page);
    assert_eq!(
        family_lines(&page),
        format!("{LOCAL_FAMILIES}{TIMESERIES_FAMILY}")
    );
    assert_eq!(family_lines(&page).matches("# TYPE ").count(), 37);
}

#[test]
fn cluster_page_adds_the_cluster_families_before_the_live_plane() {
    let page = served_page(true);
    assert_valid_exposition(&page);
    assert_eq!(
        family_lines(&page),
        format!("{LOCAL_FAMILIES}{CLUSTER_FAMILIES}{TIMESERIES_FAMILY}")
    );
    assert_eq!(family_lines(&page).matches("# TYPE ").count(), 49);
}

#[test]
fn recorded_values_render_as_the_pinned_samples() {
    let page = recorded_page();
    assert_valid_exposition(&page);
    assert_eq!(counter_and_gauge_samples(&page), RECORDED_SAMPLES);
}

/// Asserts `text` is valid Prometheus text exposition: every sample's
/// family has exactly one preceding `# HELP` and `# TYPE`, histogram
/// samples use only `_bucket`/`_sum`/`_count` suffixes, and sample lines
/// parse as `name{labels} value`.
fn assert_valid_exposition(text: &str) {
    use std::collections::{HashMap, HashSet};
    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            assert!(helped.insert(name.clone()), "duplicate HELP for {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap().to_string();
            let kind = parts.next().expect("TYPE line missing kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "bad TYPE kind {kind} for {name}"
            );
            assert!(
                helped.contains(&name),
                "TYPE before HELP (or missing HELP) for {name}"
            );
            assert!(
                typed.insert(name.clone(), kind).is_none(),
                "duplicate TYPE for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment line: {line}");
        // Sample line: name[{labels}] value
        let (series, value) = line.rsplit_once(' ').expect("sample missing value");
        assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name}"
        );
        if let Some(labels) = series
            .split_once('{')
            .map(|(_, rest)| rest.strip_suffix('}').expect("unterminated label set"))
        {
            for pair in labels.split(',') {
                let (key, val) = pair.split_once('=').expect("label without =");
                assert!(!key.is_empty() && val.starts_with('"') && val.ends_with('"'));
            }
        }
        // Resolve the family: histogram suffixes strip to the declared
        // family name, everything else must be declared verbatim.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| typed.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        let kind = typed
            .get(family)
            .unwrap_or_else(|| panic!("sample {name} has no TYPE"));
        assert!(helped.contains(family), "sample {name} has no HELP");
        if kind == "histogram" {
            assert_ne!(
                name, family,
                "histogram family {family} sampled without a suffix"
            );
        }
    }
}

#[test]
fn exposition_validator_rejects_malformed_pages() {
    let ok = "# HELP m_total h\n# TYPE m_total counter\nm_total 1\n";
    assert_valid_exposition(ok);
    for bad in [
        "m_total 1\n",                   // no HELP/TYPE
        "# HELP m_total h\nm_total 1\n", // no TYPE
        "# HELP m_total h\n# HELP m_total h\n# TYPE m_total counter\nm_total 1\n",
        "# HELP m_total h\n# TYPE m_total counter\nm_total one\n",
    ] {
        assert!(
            std::panic::catch_unwind(|| assert_valid_exposition(bad)).is_err(),
            "validator accepted: {bad:?}"
        );
    }
}

//! The cluster tier: one logical cache across a fleet of daemons.
//!
//! PR 2 made cache identity *canonical* — isomorphic placements share a
//! fingerprint — but each daemon still kept its own cache, so a fleet
//! re-solved what a sibling already proved. This module shards the logical
//! cache across the fleet with a consistent-hash ring ([`ring`]):
//!
//! * Every fingerprint has one **owner** daemon. A local cache miss on a
//!   non-owner consults the owner (`GET /v1/cache/{fp}` over the keep-alive
//!   [`crate::HttpClient`]) before solving; a hit comes back **slim** — the
//!   exact canonical labeling makes fingerprint equality trustworthy, so the
//!   owner ships only the canonical-labeled schedule, the requester pairs it
//!   with its *own* canonical placement and translates it into its labeling
//!   exactly like a local hit, then caches it locally so the next identical
//!   request is local.
//! * A node that solves a placement it does not own **replicates** the entry
//!   to the owner asynchronously ([`replicate`]) — the requester never waits.
//! * On startup a node **warms** itself by streaming the entries it owns from
//!   every peer (`GET /v1/cluster/export/{node}`), so a restarted owner
//!   recovers its shard of the logical cache without re-solving.
//! * Membership is **static** (`--node-id` / `--peer` flags). Health probes
//!   and circuit breakers ([`peers`]) make an unreachable owner degrade to
//!   *solve locally* — never to a failed request.
//!
//! `GET /v1/cluster` reports ring membership and peer health;
//! `tessel_cluster_*` metrics count remote hits/misses, replication traffic
//! and peer state.

pub mod peers;
pub mod replicate;
pub mod ring;

use crate::cache::{CacheParams, CachedSearch};
pub use crate::metrics::ClusterMetrics;
use crate::wire::{CacheExchange, ClusterStatusResponse, OwnerInfo, WireSearchEntry};
use peers::{PeerConfig, PeerSet};
use replicate::Replicator;
use ring::HashRing;
use std::sync::Arc;
use std::time::Duration;
use tessel_core::fingerprint::{CanonicalPlacement, Fingerprint};

/// Configuration of a cluster member.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This daemon's ring identity (`--node-id`).
    pub node_id: String,
    /// The other fleet members (`--peer ID=HOST:PORT`, repeatable).
    pub peers: Vec<PeerConfig>,
    /// Virtual nodes per member on the consistent-hash ring.
    pub vnodes: usize,
    /// Interval between background `/healthz` probes of each peer.
    pub probe_interval: Duration,
    /// TCP connect timeout for peer calls.
    pub connect_timeout: Duration,
    /// Socket read/write timeout for peer calls.
    pub peer_timeout: Duration,
    /// Consecutive failures after which a peer's circuit opens.
    pub circuit_failure_threshold: u64,
    /// How long an open circuit rejects calls before the next real attempt.
    pub circuit_cooldown: Duration,
    /// Bounded depth of the asynchronous replication queue.
    pub replication_queue_depth: usize,
}

impl ClusterConfig {
    /// A config for `node_id` with `peers` and every tuning knob at its
    /// default.
    #[must_use]
    pub fn new(node_id: impl Into<String>, peers: Vec<PeerConfig>) -> Self {
        ClusterConfig {
            node_id: node_id.into(),
            peers,
            vnodes: ring::DEFAULT_VNODES,
            probe_interval: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(500),
            peer_timeout: Duration::from_secs(5),
            circuit_failure_threshold: 3,
            circuit_cooldown: Duration::from_secs(5),
            replication_queue_depth: 256,
        }
    }
}

/// What consulting the ring produced for a cache miss.
#[derive(Debug)]
pub enum RemoteFetch {
    /// This node owns the fingerprint (or has no usable peer for it): solve
    /// locally and do not replicate.
    LocalOwner,
    /// The owner returned a matching entry (already validated).
    Hit(Arc<CachedSearch>),
    /// The owner answered but has no matching entry; solve locally and
    /// replicate the result to it.
    Miss,
    /// The owner is unreachable (or its circuit is open, or its payload was
    /// unusable); solve locally and replicate once it recovers.
    Unavailable,
}

/// A cluster member: ring, peer table, replication worker and metrics.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    ring: Arc<HashRing>,
    peers: Arc<PeerSet>,
    metrics: Arc<ClusterMetrics>,
    replicator: Replicator,
}

impl Cluster {
    /// Validates the membership and starts the prober and replication worker.
    ///
    /// # Errors
    ///
    /// Rejects an empty node id, duplicate peer ids, a peer reusing this
    /// node's id, and unresolvable peer addresses.
    pub fn new(config: ClusterConfig) -> std::io::Result<Self> {
        if config.node_id.is_empty() {
            return Err(invalid("cluster node id must not be empty"));
        }
        for (i, peer) in config.peers.iter().enumerate() {
            if peer.node_id == config.node_id {
                return Err(invalid(&format!(
                    "peer `{}` reuses this node's id",
                    peer.node_id
                )));
            }
            if config.peers[..i].iter().any(|p| p.node_id == peer.node_id) {
                return Err(invalid(&format!("duplicate peer id `{}`", peer.node_id)));
            }
        }
        let members = std::iter::once(config.node_id.clone())
            .chain(config.peers.iter().map(|p| p.node_id.clone()));
        let ring = Arc::new(HashRing::new(members, config.vnodes));
        let peers = Arc::new(PeerSet::new(
            &config.peers,
            config.connect_timeout,
            config.peer_timeout,
            config.circuit_failure_threshold,
            config.circuit_cooldown,
            config.probe_interval,
        )?);
        let metrics = Arc::new(ClusterMetrics::default());
        let replicator = Replicator::spawn(
            ring.clone(),
            peers.clone(),
            metrics.clone(),
            config.replication_queue_depth,
        );
        Ok(Cluster {
            config,
            ring,
            peers,
            metrics,
            replicator,
        })
    }

    /// This daemon's ring identity.
    #[must_use]
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// The (shared) consistent-hash ring.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The peer table, in `--peer` order (trace assembly fans out over it).
    #[must_use]
    pub fn peers(&self) -> &[Arc<peers::Peer>] {
        self.peers.peers()
    }

    /// The live cluster counters.
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The ring owner of `fingerprint`.
    #[must_use]
    pub fn owner_of(&self, fingerprint: Fingerprint) -> &str {
        self.ring.owner_of(fingerprint)
    }

    /// `true` when this node owns `fingerprint`.
    #[must_use]
    pub fn owns(&self, fingerprint: Fingerprint) -> bool {
        self.owner_of(fingerprint) == self.config.node_id
    }

    /// Consults the ring for a locally missed `(canon, params)` request and,
    /// when a remote daemon owns it, fetches the entry from the owner.
    ///
    /// A returned [`RemoteFetch::Hit`] has already been validated: the
    /// fingerprint and parameters match the request, and — because the
    /// exact canonical labeling makes fingerprint equality trustworthy —
    /// the slim wire entry (no placement shipped) is adopted against the
    /// *requester's own* canonical placement. The remote schedule must
    /// validate against that local placement, so a confused or corrupted
    /// peer can never inject a bogus schedule.
    #[must_use]
    pub fn fetch_from_owner(
        &self,
        canon: &CanonicalPlacement,
        params: &CacheParams,
    ) -> RemoteFetch {
        let fingerprint = canon.fingerprint;
        let owner = self.ring.owner_of(fingerprint);
        if owner == self.config.node_id {
            return RemoteFetch::LocalOwner;
        }
        let Some(peer) = self.peers.get(owner) else {
            return RemoteFetch::LocalOwner;
        };
        let path = format!("/v1/cache/{fingerprint}");
        // Propagate the originating request's trace ID so the owner's flight
        // recorder and logs correlate with the requester's.
        let trace = tessel_obs::current_trace_id();
        let headers: Vec<(&str, &str)> = trace
            .as_ref()
            .map(|id| ("X-Tessel-Trace-Id", id.as_str()))
            .into_iter()
            .collect();
        match peer.call_with_headers("GET", &path, None, &headers) {
            Ok((200, body)) => match serde_json::from_str::<CacheExchange>(&body) {
                Ok(exchange) => {
                    let usable = exchange.entries.into_iter().find(|entry| {
                        entry.fingerprint == fingerprint
                            && entry.params == *params
                            && entry.schedule.validate(&canon.placement).is_ok()
                    });
                    match usable {
                        Some(entry) => {
                            self.metrics.remote_hits.inc();
                            RemoteFetch::Hit(Arc::new(entry.into_cached(canon.placement.clone())))
                        }
                        None => {
                            // The owner has the fingerprint but not these
                            // parameters (or sent something unusable).
                            self.metrics.remote_misses.inc();
                            RemoteFetch::Miss
                        }
                    }
                }
                Err(_) => {
                    self.metrics.remote_errors.inc();
                    RemoteFetch::Unavailable
                }
            },
            Ok((404, _)) => {
                self.metrics.remote_misses.inc();
                RemoteFetch::Miss
            }
            Ok(_) | Err(_) => {
                self.metrics.remote_errors.inc();
                RemoteFetch::Unavailable
            }
        }
    }

    /// Queues `entry` for asynchronous replication to its owner, unless this
    /// node is the owner. Returns whether a replication was enqueued.
    pub fn replicate_if_remote(&self, entry: &Arc<CachedSearch>) -> bool {
        let fingerprint = entry.fingerprint;
        if self.owns(fingerprint) {
            return false;
        }
        self.replicator.enqueue(fingerprint, entry.clone());
        true
    }

    /// Streams this node's ring-owned entries from every peer (startup
    /// warm-up), handing each full wire entry to `adopt` along with the
    /// fingerprint the exchange claims for it. The caller validates and
    /// inserts (same bar as `PUT /v1/cache/{fp}`) and returns whether the
    /// entry was adopted. Returns how many entries were warmed.
    pub fn warm_from_peers(
        &self,
        mut adopt: impl FnMut(Fingerprint, WireSearchEntry) -> bool,
    ) -> usize {
        let path = format!("/v1/cluster/export/{}", self.config.node_id);
        // One trace ID spans the whole warm-up sweep, so every peer's export
        // request (and flight-recorder entry) correlates to this startup.
        let trace = tessel_obs::TraceId::generate();
        let headers = [("X-Tessel-Trace-Id", trace.as_str())];
        let mut warmed = 0usize;
        for peer in self.peers.peers() {
            let Ok((200, body)) = peer.call_with_headers("GET", &path, None, &headers) else {
                tessel_obs::debug(
                    "cluster",
                    "warm-up export unavailable from peer",
                    &[
                        ("peer", peer.node_id()),
                        ("addr", peer.addr()),
                        ("trace_id", trace.as_str()),
                    ],
                );
                continue; // unreachable or pre-cluster peer: warm from the rest
            };
            let Ok(exchanges) = serde_json::from_str::<Vec<CacheExchange>>(&body) else {
                continue;
            };
            for exchange in exchanges {
                for entry in exchange.entries {
                    if adopt(exchange.fingerprint, entry) {
                        warmed += 1;
                    }
                }
            }
        }
        self.metrics.warmup_entries.add(warmed as u64);
        tessel_obs::info(
            "cluster",
            "warm-up from peers finished",
            &[
                ("node", &self.config.node_id),
                ("entries", &warmed.to_string()),
                ("trace_id", trace.as_str()),
            ],
        );
        warmed
    }

    /// The `/v1/cluster` status document, optionally resolving the owner of
    /// one fingerprint (`?fp=`).
    #[must_use]
    pub fn status(&self, fingerprint: Option<Fingerprint>) -> ClusterStatusResponse {
        ClusterStatusResponse {
            node_id: self.config.node_id.clone(),
            vnodes: self.ring.vnodes_per_node(),
            nodes: self.ring.nodes().to_vec(),
            peers: self.peers.peers().iter().map(|p| p.status()).collect(),
            owner: fingerprint.map(|fp| {
                let node = self.ring.owner_of(fp).to_string();
                OwnerInfo {
                    fingerprint: fp,
                    is_local: node == self.config.node_id,
                    node,
                }
            }),
        }
    }

    /// Appends the cluster series of `GET /metrics` to `out`, sampling the
    /// peer gauges from the peer table.
    pub fn render_metrics(&self, out: &mut String) {
        self.metrics.render(
            out,
            self.peers.peers().len() as u64,
            self.peers.healthy_count(),
            self.peers.circuit_open_count(),
        );
    }

    /// Stops the prober and the replication worker. Idempotent; also run on
    /// drop.
    pub fn shutdown(&self) {
        self.replicator.shutdown();
        self.peers.shutdown();
    }
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(id: &str) -> PeerConfig {
        PeerConfig {
            node_id: id.into(),
            addr: "127.0.0.1:9".into(),
        }
    }

    fn quick_config(node: &str, peers: Vec<PeerConfig>) -> ClusterConfig {
        let mut config = ClusterConfig::new(node, peers);
        config.probe_interval = Duration::ZERO; // no prober in unit tests
        config.connect_timeout = Duration::from_millis(50);
        config.peer_timeout = Duration::from_millis(50);
        config
    }

    #[test]
    fn membership_is_validated() {
        assert!(Cluster::new(quick_config("", vec![peer("b")])).is_err());
        assert!(Cluster::new(quick_config("a", vec![peer("a")])).is_err());
        assert!(Cluster::new(quick_config("a", vec![peer("b"), peer("b")])).is_err());
        let cluster = Cluster::new(quick_config("a", vec![peer("b")])).unwrap();
        assert_eq!(cluster.ring().nodes(), ["a".to_string(), "b".to_string()]);
        cluster.shutdown();
    }

    #[test]
    fn ownership_splits_between_members() {
        let cluster = Cluster::new(quick_config("a", vec![peer("b")])).unwrap();
        let mut local = 0;
        for raw in 0..64u64 {
            if cluster.owns(Fingerprint(raw.wrapping_mul(0x9e37_79b9_7f4a_7c15))) {
                local += 1;
            }
        }
        assert!(local > 0 && local < 64, "one node owns everything: {local}");
        cluster.shutdown();
    }

    #[test]
    fn unreachable_owner_reports_unavailable_then_circuit_open() {
        let mut config = quick_config("a", vec![peer("b")]);
        config.circuit_failure_threshold = 1;
        config.circuit_cooldown = Duration::from_secs(30);
        let cluster = Cluster::new(config).unwrap();
        // Find a placement-free fingerprint owned by the dead peer.
        let fp = (0..1024u64)
            .map(|raw| Fingerprint(raw.wrapping_mul(0x2545_f491_4f6c_dd1d)))
            .find(|&fp| !cluster.owns(fp))
            .expect("some fingerprint is owned by b");
        // Build a trivial canonical placement carrying that fingerprint.
        let mut b = tessel_core::ir::PlacementSpec::builder("p", 1);
        b.add_block("f0", tessel_core::ir::BlockKind::Forward, [0], 1, 0, [])
            .unwrap();
        let mut canon = b.build().unwrap().canonicalize();
        canon.fingerprint = fp;
        let params = CacheParams {
            num_micro_batches: 4,
            max_repetend_micro_batches: 2,
        };
        assert!(matches!(
            cluster.fetch_from_owner(&canon, &params),
            RemoteFetch::Unavailable
        ));
        // The failure tripped the breaker: the next fetch is rejected
        // instantly, still as Unavailable (degrade, never fail).
        assert!(matches!(
            cluster.fetch_from_owner(&canon, &params),
            RemoteFetch::Unavailable
        ));
        assert_eq!(cluster.peers.circuit_open_count(), 1);
        assert_eq!(cluster.metrics().remote_errors.get(), 2);
        cluster.shutdown();
    }
}

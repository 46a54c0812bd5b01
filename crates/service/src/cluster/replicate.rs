//! Asynchronous replication of locally solved results to their ring owner.
//!
//! A node that solves a placement it does not own sends the entry to the
//! owner with `PUT /v1/cache/{fp}` — *after* answering its client. The
//! request path only enqueues onto a bounded channel; a single background
//! worker drains it, so replication never adds latency to a search response
//! and a dead owner costs nothing but a counter
//! (`tessel_cluster_replication_errors_total`). A full queue drops the
//! newest job (the entry is still cached locally and still discoverable by
//! the owner's next warm-up) rather than blocking a worker thread.

use super::ring::HashRing;
use super::{peers::PeerSet, ClusterMetrics};
use crate::cache::CachedSearch;
use crate::wire::{CacheExchange, WireSearchEntry};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use tessel_core::fingerprint::Fingerprint;

/// One entry travelling to its owner.
struct Job {
    fingerprint: Fingerprint,
    entry: Arc<CachedSearch>,
    /// Trace ID of the request whose solve produced the entry, captured at
    /// enqueue time (the worker thread has no request context of its own)
    /// and attached to the PUT so the owner's records join that trace.
    origin_trace: Option<tessel_obs::TraceId>,
}

/// The background replication worker and its bounded queue.
#[derive(Debug)]
pub struct Replicator {
    tx: Mutex<Option<SyncSender<Job>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    metrics: Arc<ClusterMetrics>,
}

impl Replicator {
    /// Spawns the worker.
    #[must_use]
    pub fn spawn(
        ring: Arc<HashRing>,
        peers: Arc<PeerSet>,
        metrics: Arc<ClusterMetrics>,
        queue_depth: usize,
    ) -> Self {
        let (tx, rx): (SyncSender<Job>, Receiver<Job>) = sync_channel(queue_depth.max(1));
        let worker_metrics = metrics.clone();
        let handle = std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                let owner = ring.owner_of(job.fingerprint);
                let Some(peer) = peers.get(owner) else {
                    // The owner is this node itself (or an unknown id): the
                    // enqueuer is expected to filter these out, but a race
                    // with shutdown is harmless — just skip.
                    continue;
                };
                // Replication ships the *full* entry (placement included):
                // unlike a remote hit, the owner has no local canonical
                // placement to pair a slim entry with, and the owner
                // re-canonicalizes the shipped placement before adopting.
                let exchange = CacheExchange {
                    fingerprint: job.fingerprint,
                    entries: vec![WireSearchEntry::full(&job.entry)],
                };
                let body = match serde_json::to_string(&exchange) {
                    Ok(body) => body,
                    Err(_) => {
                        worker_metrics.replication_errors.inc();
                        continue;
                    }
                };
                let path = format!("/v1/cache/{}", job.fingerprint);
                let headers: Vec<(&str, &str)> = job
                    .origin_trace
                    .as_ref()
                    .map(|id| ("X-Tessel-Trace-Id", id.as_str()))
                    .into_iter()
                    .collect();
                let outcome = peer.call_with_headers("PUT", &path, Some(&body), &headers);
                match outcome {
                    Ok((status, _)) if (200..300).contains(&status) => {
                        worker_metrics.replications_sent.inc();
                    }
                    other => {
                        worker_metrics.replication_errors.inc();
                        let detail = match &other {
                            Ok((status, _)) => format!("owner answered {status}"),
                            Err(e) => e.to_string(),
                        };
                        let trace = job
                            .origin_trace
                            .as_ref()
                            .map(|id| id.as_str().to_string())
                            .unwrap_or_default();
                        tessel_obs::warn(
                            "cluster",
                            "replication to owner failed",
                            &[
                                ("owner", owner),
                                ("fingerprint", &job.fingerprint.to_string()),
                                ("error", &detail),
                                ("trace_id", &trace),
                            ],
                        );
                    }
                }
            }
        });
        Replicator {
            tx: Mutex::new(Some(tx)),
            handle: Mutex::new(Some(handle)),
            metrics,
        }
    }

    /// Enqueues `entry` for delivery to the owner of `fingerprint`. Never
    /// blocks: a full queue drops the job and bumps
    /// `tessel_cluster_replication_dropped_total`.
    pub fn enqueue(&self, fingerprint: Fingerprint, entry: Arc<CachedSearch>) {
        let tx = self.tx.lock().expect("replicator sender lock");
        let Some(tx) = tx.as_ref() else {
            return; // shut down
        };
        match tx.try_send(Job {
            fingerprint,
            entry,
            origin_trace: tessel_obs::current_trace_id(),
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.metrics.replication_dropped.inc();
            }
        }
    }

    /// Drains the queue and joins the worker. Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        // Dropping the sender lets the worker finish the queued jobs and
        // exit its recv loop.
        self.tx.lock().expect("replicator sender lock").take();
        if let Some(handle) = self.handle.lock().expect("replicator handle lock").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

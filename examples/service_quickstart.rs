//! Quickstart for the in-process schedule-search service: no sockets, just
//! the library API — submit a search, watch the second (and a device-permuted
//! third) request hit the canonical-fingerprint cache, and read the metrics.
//!
//! ```bash
//! cargo run --release --example service_quickstart
//! ```

use std::time::Instant;
use tessel::placement::shapes::{synthetic_placement, ShapeKind};
use tessel::service::wire::SearchRequest;
use tessel::service::{ScheduleService, ServiceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = ScheduleService::new(ServiceConfig {
        default_micro_batches: 8,
        default_max_repetend: 3,
        ..ServiceConfig::default()
    })?;

    let placement = synthetic_placement(ShapeKind::X, 4)?;

    // First request: a cache miss that runs the full Tessel search.
    let miss = service.search(&SearchRequest::for_placement(placement.clone()))?;
    println!(
        "miss : fingerprint={} period={} bubble={:.1}% searched in {}ms",
        miss.fingerprint,
        miss.period,
        miss.bubble_rate * 100.0,
        miss.search_millis
    );

    // Second, identical request: served from the cache.
    let sent = Instant::now();
    let hit = service.search(&SearchRequest::for_placement(placement.clone()))?;
    println!(
        "hit  : cached={} identical schedule={} answered in {:.2}ms",
        hit.cached,
        hit.schedule == miss.schedule,
        sent.elapsed().as_secs_f64() * 1e3
    );

    // A device-relabeled variant of the same placement still hits, via the
    // canonical fingerprint; its schedule comes back in *its* labeling.
    let devices = placement.num_devices();
    let rotation: Vec<usize> = (0..devices).map(|d| (d + 1) % devices).collect();
    let order: Vec<usize> = (0..placement.num_blocks()).collect();
    let rotated = placement.permuted(&rotation, &order)?;
    let permuted_hit = service.search(&SearchRequest::for_placement(rotated.clone()))?;
    println!(
        "perm : cached={} same fingerprint={} valid in its own labeling={}",
        permuted_hit.cached,
        permuted_hit.fingerprint == miss.fingerprint,
        permuted_hit.schedule.validate(&rotated).is_ok()
    );

    // Per-device utilization comes from the cluster simulator.
    for row in &miss.utilization.devices {
        println!(
            "dev {}: busy {:>4.1}% comm {:>4.1}% wait {:>4.1}%",
            row.device,
            row.busy_fraction * 100.0,
            row.comm_fraction * 100.0,
            row.wait_fraction * 100.0
        );
    }

    let metrics = service.metrics();
    println!(
        "metrics: {} requests, {} hits, {} misses (hit rate {:.0}%)",
        metrics.requests.get(),
        metrics.cache_hits.get(),
        metrics.cache_misses.get(),
        metrics.hit_rate() * 100.0
    );
    Ok(())
}

//! `events_check` — strict validator for `specstab-events/v1` NDJSON
//! trace files.
//!
//! Usage: `events_check <trace.ndjson>...`
//!
//! Each file is parsed line-by-line through the strict JSON reader and
//! checked against the stream discipline (one stream per file: schema
//! header first, one shard id, dense sequence numbers, monotonic
//! timestamps), the lease discipline of coordinator traces, and the batch
//! counter invariant (a stream with zero launched lanes cannot carry idle
//! lane-steps). Exit code 0 when every file validates; 1 with a
//! diagnostic on stderr otherwise. CI runs this over the traces the
//! distributed-pipeline job produces.

use specstab_telemetry::counters::CounterSnapshot;
use specstab_telemetry::event::{parse_ndjson, validate_events, Event, EventKind};

/// Batch counter invariants on every counter-carrying event: idle
/// lane-steps are only accumulated inside a batch loop, so they cannot
/// appear without launched lanes, and the per-daemon-class fallback
/// counters partition the scalar-fallback total (each fallback is
/// attributed to exactly one class). Returns the last (most aggregated)
/// counter snapshot for the summary line.
fn check_batch_counters(events: &[Event]) -> Result<CounterSnapshot, String> {
    let mut totals = CounterSnapshot::default();
    for e in events {
        let counters = match &e.kind {
            EventKind::ShardEnd { counters, .. } => counters,
            EventKind::CampaignEnd { counters, .. } => counters,
            _ => continue,
        };
        if counters.batch_lanes == 0 && counters.batch_idle_lane_steps != 0 {
            return Err(format!(
                "event seq {}: {} idle lane-steps with zero batch lanes launched",
                e.seq, counters.batch_idle_lane_steps
            ));
        }
        let class_fallbacks = counters.batch_fallback_sync_groups
            + counters.batch_fallback_rr_groups
            + counters.batch_fallback_rand_groups
            + counters.batch_fallback_dist_groups;
        // Legacy traces carry the total without the class split (parsed
        // as zeros), so the partition is only enforced once any class
        // counter is present.
        if class_fallbacks != 0 && class_fallbacks != counters.batch_scalar_fallbacks {
            return Err(format!(
                "event seq {}: per-class fallbacks ({class_fallbacks}) do not partition the \
                 scalar-fallback total ({})",
                e.seq, counters.batch_scalar_fallbacks
            ));
        }
        totals = *counters;
    }
    Ok(totals)
}

/// Lease discipline for coordinator traces: every `lease_expired` must
/// reference a `(shard_id, lease_id)` pair previously granted to the same
/// worker, and lease ids must never be reused by a later grant.
fn check_lease_discipline(events: &[Event]) -> Result<(), String> {
    let mut granted: Vec<(u64, u64, &str)> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::LeaseGranted { shard_id, worker, lease_id, .. } => {
                if granted.iter().any(|(_, id, _)| id == lease_id) {
                    return Err(format!("event seq {}: lease id {lease_id} reused", e.seq));
                }
                granted.push((*shard_id, *lease_id, worker));
            }
            EventKind::LeaseExpired { shard_id, worker, lease_id } => {
                let known = granted
                    .iter()
                    .any(|(s, id, w)| s == shard_id && id == lease_id && *w == worker);
                if !known {
                    return Err(format!(
                        "event seq {}: lease {lease_id} on shard {shard_id} expired for \
                         worker {worker} but was never granted",
                        e.seq
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = parse_ndjson(&text).map_err(|e| format!("{path}: {e}"))?;
    validate_events(&events).map_err(|e| format!("{path}: {e}"))?;
    check_lease_discipline(&events).map_err(|e| format!("{path}: {e}"))?;
    let totals = check_batch_counters(&events).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!(
        "{path}: ok ({} events; batch: {} lanes, {} idle lane-steps, {} scalar fallbacks; \
         routed sync/rr/rand/dist: {}/{}/{}/{})",
        events.len(),
        totals.batch_lanes,
        totals.batch_idle_lane_steps,
        totals.batch_scalar_fallbacks,
        totals.batch_routed_sync_groups,
        totals.batch_routed_rr_groups,
        totals.batch_routed_rand_groups,
        totals.batch_routed_dist_groups
    ))
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: events_check <trace.ndjson>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match check_file(path) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("events_check: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

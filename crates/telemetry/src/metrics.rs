//! The `specstab-metrics/v1` sidecar: runtime metrics distilled from an
//! event stream.
//!
//! `metrics.json` is the artifact you look at to understand *how* a
//! campaign ran — wall clock per cell/group/shard, throughput, engine
//! counter totals — while `campaign.json` stays the artifact that says
//! *what* it computed. The two never mix: metrics carry timestamps and
//! host-dependent counters and are therefore non-reproducible by design,
//! which is exactly why they are a separate file instead of extra fields
//! on the deterministic artifact.

use crate::counters::CounterSnapshot;
use crate::event::{Event, EventKind};
use crate::json::{obj, Json};

/// Schema identifier written into every metrics sidecar.
pub const METRICS_SCHEMA: &str = "specstab-metrics/v1";

fn moves_per_sec(moves: u64, wall_us: u64) -> Json {
    if wall_us == 0 {
        return Json::Num(0.0);
    }
    #[allow(clippy::cast_precision_loss)]
    Json::Num(moves as f64 / (wall_us as f64 / 1_000_000.0))
}

/// Builds the `specstab-metrics/v1` sidecar from an event sequence.
///
/// Totals prefer the `campaign_end` event when present (its counters cover
/// the whole campaign — for a coordinator, the sum of the workers'
/// uploaded counters); otherwise they are reconstructed by summing
/// `shard_end` events, with total wall clock taken as the slowest shard.
/// Cell and group rows are carried over in stream order. Traces
/// containing lease-lifecycle events (a `campaign serve` or
/// `run --workers` coordinator) additionally get a `serve` object with
/// lease/upload counts and per-worker accepted-cell tallies.
#[must_use]
pub fn metrics_from_events(events: &[Event]) -> Json {
    let mut cells = Vec::new();
    let mut groups = Vec::new();
    let mut shards = Vec::new();
    let mut campaign_end = None;
    let mut shard_totals = CounterSnapshot::default();
    let mut shard_cells = 0u64;
    let mut shard_wall_max = 0u64;
    let mut total_moves = 0u64;
    let mut leases_granted = 0u64;
    let mut leases_expired = 0u64;
    let mut partials_accepted = 0u64;
    let mut partials_rejected = 0u64;
    // Per-worker accepted shard/cell tallies, in first-seen order.
    let mut workers: Vec<(String, u64, u64)> = Vec::new();

    for e in events {
        match &e.kind {
            EventKind::Cell(c) => {
                total_moves += c.moves;
                let mut fields = vec![
                    ("topology", Json::Str(c.topology.clone())),
                    ("protocol", Json::Str(c.protocol.clone())),
                    ("daemon", Json::Str(c.daemon.clone())),
                    ("init", Json::Str(c.init.clone())),
                    ("seed_index", Json::UInt(c.seed_index)),
                    ("wall_us", Json::UInt(c.wall_us)),
                    ("moves", Json::UInt(c.moves)),
                    ("ok", Json::Bool(c.outcome.is_ok())),
                ];
                if let Some(shard) = e.shard {
                    fields.insert(0, ("shard", Json::UInt(shard)));
                }
                cells.push(obj(fields));
            }
            EventKind::Group { key, runs, errors, converged, violations, wall_us } => {
                groups.push(obj(vec![
                    ("key", Json::Str(key.clone())),
                    ("runs", Json::UInt(*runs)),
                    ("errors", Json::UInt(*errors)),
                    ("converged", Json::UInt(*converged)),
                    ("violations", Json::UInt(*violations)),
                    ("wall_us", Json::UInt(*wall_us)),
                ]));
            }
            EventKind::ShardEnd { cells: n, wall_us, counters } => {
                shard_totals.add(counters);
                shard_cells += n;
                shard_wall_max = shard_wall_max.max(*wall_us);
                shards.push(obj(vec![
                    ("shard", e.shard.map_or(Json::Null, Json::UInt)),
                    ("cells", Json::UInt(*n)),
                    ("wall_us", Json::UInt(*wall_us)),
                    ("moves_per_sec", moves_per_sec(counters.moves, *wall_us)),
                    ("counters", counters.to_json()),
                ]));
            }
            EventKind::CampaignEnd { cells, errors, violations, wall_us, counters } => {
                campaign_end = Some((*cells, *errors, *violations, *wall_us, *counters));
            }
            EventKind::LeaseGranted { .. } => leases_granted += 1,
            EventKind::LeaseExpired { .. } => leases_expired += 1,
            EventKind::PartialAccepted { worker, cells, .. } => {
                partials_accepted += 1;
                match workers.iter_mut().find(|(w, _, _)| w == worker) {
                    Some((_, shards, total)) => {
                        *shards += 1;
                        *total += cells;
                    }
                    None => workers.push((worker.clone(), 1, *cells)),
                }
            }
            EventKind::PartialRejected { .. } => partials_rejected += 1,
            _ => {}
        }
    }

    let totals = match campaign_end {
        Some((n, errors, violations, wall_us, counters)) => obj(vec![
            ("cells", Json::UInt(n)),
            ("errors", Json::UInt(errors)),
            ("violations", Json::UInt(violations)),
            ("wall_us", Json::UInt(wall_us)),
            ("moves_per_sec", moves_per_sec(counters.moves, wall_us)),
            ("counters", counters.to_json()),
        ]),
        None => obj(vec![
            ("cells", Json::UInt(shard_cells)),
            ("wall_us", Json::UInt(shard_wall_max)),
            ("moves_per_sec", moves_per_sec(total_moves, shard_wall_max)),
            ("counters", shard_totals.to_json()),
        ]),
    };

    let mut fields = vec![
        ("schema", Json::Str(METRICS_SCHEMA.into())),
        ("totals", totals),
        ("shards", Json::Arr(shards)),
        ("groups", Json::Arr(groups)),
        ("cells", Json::Arr(cells)),
    ];
    // Only coordinator traces carry lease-lifecycle events; plain runs keep
    // their sidecar shape unchanged.
    if leases_granted + leases_expired + partials_accepted + partials_rejected > 0 {
        let worker_rows = workers
            .into_iter()
            .map(|(worker, shards_accepted, cells_accepted)| {
                obj(vec![
                    ("worker", Json::Str(worker)),
                    ("shards_accepted", Json::UInt(shards_accepted)),
                    ("cells_accepted", Json::UInt(cells_accepted)),
                ])
            })
            .collect();
        fields.push((
            "serve",
            obj(vec![
                ("leases_granted", Json::UInt(leases_granted)),
                ("leases_expired", Json::UInt(leases_expired)),
                ("partials_accepted", Json::UInt(partials_accepted)),
                ("partials_rejected", Json::UInt(partials_rejected)),
                ("workers", Json::Arr(worker_rows)),
            ]),
        ));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CellEvent, CellOutcomeEvent, EVENTS_SCHEMA};

    fn counters(moves: u64) -> CounterSnapshot {
        CounterSnapshot { steps: moves / 2, moves, ..Default::default() }
    }

    fn ev(shard: Option<u64>, seq: u64, kind: EventKind) -> Event {
        Event { shard, seq, t_us: seq, kind }
    }

    fn cell(seed_index: u64, moves: u64) -> EventKind {
        EventKind::Cell(CellEvent {
            topology: "ring:8".into(),
            protocol: "ssme".into(),
            daemon: "sync".into(),
            init: "burst:0".into(),
            seed_index,
            wall_us: 100,
            moves,
            outcome: Ok(CellOutcomeEvent { steps_run: 5, stabilization_steps: 3, converged: true }),
        })
    }

    #[test]
    fn sidecar_prefers_campaign_totals_and_lists_rows() {
        let events = vec![
            ev(None, 0, EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "run".into() }),
            ev(None, 1, cell(0, 40)),
            ev(None, 2, cell(1, 60)),
            ev(
                None,
                3,
                EventKind::Group {
                    key: "g".into(),
                    runs: 2,
                    errors: 0,
                    converged: 2,
                    violations: 0,
                    wall_us: 200,
                },
            ),
            ev(
                None,
                4,
                EventKind::CampaignEnd {
                    cells: 2,
                    errors: 0,
                    violations: 0,
                    wall_us: 1_000_000,
                    counters: counters(100),
                },
            ),
        ];
        let m = metrics_from_events(&events);
        assert_eq!(m.req("schema").unwrap().as_str().unwrap(), METRICS_SCHEMA);
        let totals = m.req("totals").unwrap();
        assert_eq!(totals.req("cells").unwrap().as_u64().unwrap(), 2);
        let mps = totals.req("moves_per_sec").unwrap().as_f64().unwrap();
        assert!((mps - 100.0).abs() < 1e-9, "100 moves over 1s, got {mps}");
        assert_eq!(m.req("cells").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(m.req("groups").unwrap().as_arr().unwrap().len(), 1);
        assert!(m.req("shards").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn sidecar_reconstructs_totals_from_shard_ends() {
        let events = vec![
            ev(
                Some(0),
                0,
                EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "shard".into() },
            ),
            ev(Some(0), 1, EventKind::ShardEnd { cells: 3, wall_us: 500, counters: counters(30) }),
            ev(
                Some(1),
                0,
                EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "shard".into() },
            ),
            ev(Some(1), 1, EventKind::ShardEnd { cells: 4, wall_us: 900, counters: counters(70) }),
        ];
        let m = metrics_from_events(&events);
        let totals = m.req("totals").unwrap();
        assert_eq!(totals.req("cells").unwrap().as_u64().unwrap(), 7);
        assert_eq!(totals.req("wall_us").unwrap().as_u64().unwrap(), 900);
        assert_eq!(totals.req("counters").unwrap().req("moves").unwrap().as_u64().unwrap(), 100);
        assert_eq!(m.req("shards").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn sidecar_gains_serve_section_only_for_coordinator_traces() {
        let plain = metrics_from_events(&[ev(None, 0, cell(0, 40))]);
        assert!(plain.get("serve").is_none(), "plain runs carry no serve section");

        let events = vec![
            ev(
                None,
                0,
                EventKind::LeaseGranted {
                    shard_id: 0,
                    worker: "w1".into(),
                    lease_id: 1,
                    lease_ms: 30_000,
                },
            ),
            ev(None, 1, EventKind::LeaseExpired { shard_id: 0, worker: "w1".into(), lease_id: 1 }),
            ev(
                None,
                2,
                EventKind::LeaseGranted {
                    shard_id: 0,
                    worker: "w2".into(),
                    lease_id: 2,
                    lease_ms: 30_000,
                },
            ),
            ev(None, 3, EventKind::PartialAccepted { shard_id: 0, worker: "w2".into(), cells: 9 }),
            ev(None, 4, EventKind::PartialAccepted { shard_id: 1, worker: "w2".into(), cells: 3 }),
            ev(
                None,
                5,
                EventKind::PartialRejected { worker: "w3".into(), reason: "bad schema".into() },
            ),
        ];
        let serve = metrics_from_events(&events);
        let serve = serve.req("serve").unwrap();
        assert_eq!(serve.req("leases_granted").unwrap().as_u64().unwrap(), 2);
        assert_eq!(serve.req("leases_expired").unwrap().as_u64().unwrap(), 1);
        assert_eq!(serve.req("partials_accepted").unwrap().as_u64().unwrap(), 2);
        assert_eq!(serve.req("partials_rejected").unwrap().as_u64().unwrap(), 1);
        let workers = serve.req("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].req("worker").unwrap().as_str().unwrap(), "w2");
        assert_eq!(workers[0].req("shards_accepted").unwrap().as_u64().unwrap(), 2);
        assert_eq!(workers[0].req("cells_accepted").unwrap().as_u64().unwrap(), 12);
    }

    #[test]
    fn sidecar_round_trips_through_the_strict_reader() {
        let events = vec![
            ev(None, 0, EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "run".into() }),
            ev(None, 1, cell(0, 40)),
        ];
        let rendered = metrics_from_events(&events).render();
        let back = Json::parse(&rendered).expect("metrics sidecar parses strictly");
        assert_eq!(back.req("schema").unwrap().as_str().unwrap(), METRICS_SCHEMA);
    }
}

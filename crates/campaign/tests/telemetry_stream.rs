//! End-to-end gates for the telemetry layer, driven through the real
//! `campaign` binary (`CARGO_BIN_EXE_campaign`):
//!
//! * the acceptance scenario — `campaign run --workers 3 --trace ...
//!   --metrics ...` must produce a schema-valid `specstab-events/v1`
//!   coordinator stream and a `specstab-metrics/v1` sidecar **while the
//!   JSON artifact stays byte-identical to the checked-in golden**
//!   (telemetry never perturbs determinism);
//! * the shard streams — every `campaign shard --trace` stream of a real
//!   3-shard plan validates on its own and carries the per-shard rows.

use specstab_telemetry::{parse_ndjson, validate_events, EventKind, Json};
use std::path::PathBuf;
use std::process::Command;

const GOLDEN: &str = include_str!("golden/campaign_golden.json");

fn campaign_exe() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("specstab-telemetry-test-{}-{name}", std::process::id()))
}

#[test]
fn traced_workers_run_is_schema_valid_and_keeps_the_golden_byte_identical() {
    let json_path = temp_path("golden.json");
    let trace_path = temp_path("events.ndjson");
    let metrics_path = temp_path("metrics.json");
    let output = Command::new(campaign_exe())
        .args(["run", "--topologies", "ring:8,torus:3x4", "--protocols", "ssme"])
        .args(["--daemons", "sync,central-rand,dist:0.5", "--faults", "0,2,witness"])
        .args(["--seeds", "3", "--seed", "51966", "--max-steps", "500000"])
        .args(["--workers", "3", "--cells-in-json"])
        .arg("--json")
        .arg(&json_path)
        .arg("--trace")
        .arg(&trace_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .expect("campaign run spawns");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "campaign run failed:\n{stderr}");
    assert!(stderr.contains("[serve]"), "coordinator heartbeat reaches stderr:\n{stderr}");

    // Determinism: the artifact of the traced 3-worker run is the golden,
    // byte for byte.
    let artifact = std::fs::read_to_string(&json_path).expect("artifact written");
    assert_eq!(artifact, GOLDEN, "telemetry must not perturb the deterministic artifact");

    // The coordinator's event stream parses strictly, validates, and
    // covers the served lifecycle: leases, one acceptance per shard
    // covering every cell, the merge, and the workers' summed counters.
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_ndjson(&text).expect("trace parses");
    validate_events(&events).expect("trace validates");
    let has = |tag: &str| events.iter().any(|e| e.kind.tag() == tag);
    for tag in ["stream", "campaign_start", "plan", "lease_granted", "merge_start", "merge_end"] {
        assert!(has(tag), "coordinator trace carries a '{tag}' event");
    }
    let accepted_cells: u64 = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PartialAccepted { cells, .. } => Some(*cells),
            _ => None,
        })
        .sum();
    assert_eq!(accepted_cells, 54, "accepted partials cover every cell once");
    let end_moves = events.iter().find_map(|e| match &e.kind {
        EventKind::CampaignEnd { counters, .. } => Some(counters.moves),
        _ => None,
    });
    assert!(end_moves.is_some_and(|m| m > 0), "campaign_end sums worker counters: {end_moves:?}");

    // The metrics sidecar parses strictly and its totals agree with the
    // campaign.
    let metrics = Json::parse(&std::fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics parse");
    assert_eq!(metrics.req("schema").unwrap().as_str().unwrap(), "specstab-metrics/v1");
    let totals = metrics.req("totals").unwrap();
    assert_eq!(totals.req("cells").unwrap().as_u64().unwrap(), 54);
    assert_eq!(totals.req("errors").unwrap().as_u64().unwrap(), 0);
    assert!(totals.req("counters").unwrap().req("moves").unwrap().as_u64().unwrap() > 0);

    for p in [&json_path, &trace_path, &metrics_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// Every `campaign shard --trace` stream of a real 3-shard plan validates
/// on its own and carries `shard_start`, one `cell` per shard cell, the
/// shard's `group` rows and `shard_end`.
#[test]
fn shard_streams_validate_and_carry_per_shard_rows() {
    let plan_path = temp_path("plan.json");
    let status = Command::new(campaign_exe())
        .args(["plan", "--topologies", "ring:6,path:5", "--protocols", "ssme"])
        .args(["--daemons", "sync,central-rr", "--faults", "0,1", "--seeds", "2"])
        .args(["--shards", "3", "--out"])
        .arg(&plan_path)
        .status()
        .expect("campaign plan spawns");
    assert!(status.success(), "campaign plan failed");
    let mut total_cells = 0;
    for id in 0..3 {
        let out = temp_path(&format!("shard-{id}.partial.json"));
        let trace = temp_path(&format!("shard-{id}.events.ndjson"));
        let status = Command::new(campaign_exe())
            .args(["shard", "--shard", &id.to_string(), "--plan"])
            .arg(&plan_path)
            .arg("--out")
            .arg(&out)
            .arg("--trace")
            .arg(&trace)
            .status()
            .expect("campaign shard spawns");
        assert!(status.success(), "campaign shard {id} failed");
        let events = parse_ndjson(&std::fs::read_to_string(&trace).expect("trace"))
            .expect("shard stream parses");
        validate_events(&events).expect("shard stream validates");
        assert!(events.iter().all(|e| e.shard == Some(id)), "stamped with shard {id}");
        let count = |tag: &str| events.iter().filter(|e| e.kind.tag() == tag).count();
        let Some(EventKind::ShardStart { start, end }) =
            events.iter().map(|e| &e.kind).find(|k| k.tag() == "shard_start")
        else {
            panic!("shard {id} stream has no shard_start");
        };
        assert_eq!(count("cell") as u64, end - start, "one cell event per shard cell");
        assert!(count("group") > 0, "shard {id} carries group rows");
        assert_eq!(count("shard_end"), 1);
        total_cells += count("cell");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&trace);
    }
    let _ = std::fs::remove_file(&plan_path);
    assert_eq!(total_cells, 16, "the shards tile the plan");
}

//! End-to-end drills for the serve subsystem, in-process on
//! `127.0.0.1:0`: elastic pull-workers against a real coordinator socket,
//! an abandoned lease expiring and being re-dispatched, a coordinator
//! "crash" resumed from its spool, wire-level duplicate/reject handling,
//! and the `/status` snapshot — with the final artifact byte-identical to
//! a single-process run every time. One more drill drives the real
//! `campaign run --workers` binary and kills one of its worker processes.

use specstab_campaign::artifact::to_json;
use specstab_campaign::executor::{run_campaign_sequential, CampaignConfig};
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_campaign::plan::CampaignPlan;
use specstab_campaign::serve::http::{request, CoordinatorUrl};
use specstab_campaign::serve::wire::{
    counters_header, lease_request, renew_request, LeaseReply, UploadReply, COUNTERS_HEADER,
};
use specstab_campaign::serve::{run_worker, Coordinator, ServeOptions, WorkOptions};
use specstab_campaign::shard::execute_shard;
use specstab_telemetry::{parse_ndjson, validate_events, CounterSnapshot, EventKind, Json};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder()
        .topologies(["ring:6", "path:5"])
        .protocols(["ssme"])
        .daemons(["sync", "dist:0.5"])
        .fault_bursts([0, 1])
        .seeds(0..3)
        .build()
}

fn config() -> CampaignConfig {
    CampaignConfig { max_steps: 100_000, seed: 0xFEED, ..CampaignConfig::default() }
}

fn golden() -> String {
    to_json(&run_campaign_sequential(&matrix(), &config()), true)
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specstab-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn worker_opts(addr: &str, id: &str) -> WorkOptions {
    WorkOptions {
        coordinator: format!("http://{addr}"),
        worker_id: id.to_string(),
        threads: 1,
        lease_only: false,
    }
}

/// The full fault drill: a ghost worker leases a shard and dies (lease
/// expiry → re-dispatch), two elastic workers finish the campaign, and
/// the artifact is byte-identical to the single-process run. The
/// coordinator trace validates and shows the whole lease lifecycle.
#[test]
fn expired_lease_is_redispatched_and_artifact_stays_byte_identical() {
    let dir = scratch("drill");
    let trace_path = dir.join("serve.events.ndjson");
    let plan = CampaignPlan::new(&matrix(), &config(), 4);
    let coordinator = Coordinator::bind(
        plan,
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 400,
            spool: dir.join("spool"),
            trace_path: Some(trace_path.clone()),
            stop_after_uploads: None,
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());

    // The ghost leases the first shard and abandons it: a deterministic
    // stand-in for a worker killed mid-shard.
    let ghost = run_worker(&WorkOptions { lease_only: true, ..worker_opts(&addr, "ghost") })
        .expect("ghost leases");
    assert_eq!(ghost.abandoned, 1);

    let workers: Vec<_> = ["w1", "w2"]
        .into_iter()
        .map(|id| {
            let opts = worker_opts(&addr, id);
            std::thread::spawn(move || run_worker(&opts))
        })
        .collect();
    let summaries: Vec<_> =
        workers.into_iter().map(|h| h.join().expect("worker thread").expect("worker ok")).collect();
    let result = serve.join().expect("serve thread").expect("serve ok").expect("completed");

    assert_eq!(to_json(&result, true), golden(), "served artifact drifted from single-process");
    let executed: u64 = summaries.iter().map(|s| s.executed).sum();
    assert_eq!(executed, 4, "all four shards executed by the elastic pool");

    // The trace is a valid specstab-events/v1 stream recording the ghost's
    // grant, its expiry, and an acceptance for every shard.
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_ndjson(&text).expect("trace parses");
    validate_events(&events).expect("trace validates");
    let ghost_expired = events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::LeaseExpired { worker, .. } if worker == "ghost"));
    assert!(ghost_expired, "the abandoned lease must expire in the trace");
    let accepted =
        events.iter().filter(|e| matches!(e.kind, EventKind::PartialAccepted { .. })).count();
    assert_eq!(accepted, 4, "one acceptance per shard, duplicates dropped silently");
    // The workers' uploaded counter deltas reach the coordinator's total.
    let moves = events.iter().find_map(|e| match &e.kind {
        EventKind::CampaignEnd { counters, .. } => Some(counters.moves),
        _ => None,
    });
    assert!(moves.is_some_and(|m| m > 0), "campaign_end carries summed counters: {moves:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator killed after the first upload resumes from its spool:
/// the restarted instance re-accepts the checkpoint from disk (worker
/// `"spool"`, no re-lease of the completed shard) and only the remaining
/// shards are executed again.
#[test]
fn killed_coordinator_resumes_from_spool_without_rerunning_shards() {
    let dir = scratch("resume");
    let spool = dir.join("spool");
    let plan = CampaignPlan::new(&matrix(), &config(), 3);

    // Phase 1: crash (via fault injection) after one accepted upload.
    let coordinator = Coordinator::bind(
        plan.clone(),
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 30_000,
            spool: spool.clone(),
            trace_path: None,
            stop_after_uploads: Some(1),
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());
    let w = run_worker(&worker_opts(&addr, "w1")).expect("worker survives the crash");
    assert!(w.executed >= 1);
    let crashed = serve.join().expect("serve thread").expect("no error");
    assert!(crashed.is_none(), "fault injection stops before completion");
    let spooled = std::fs::read_dir(&spool).expect("spool").count();
    assert!(spooled >= 1, "accepted upload was checkpointed to the spool");

    // Phase 2: a new coordinator on the same spool resumes and finishes.
    let trace_path = dir.join("resume.events.ndjson");
    let coordinator = Coordinator::bind(
        plan,
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 30_000,
            spool,
            trace_path: Some(trace_path.clone()),
            stop_after_uploads: None,
        },
    )
    .expect("rebind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());
    let w2 = run_worker(&worker_opts(&addr, "w2")).expect("worker ok");
    let result = serve.join().expect("serve thread").expect("serve ok").expect("completed");
    assert_eq!(to_json(&result, true), golden(), "resumed artifact drifted");

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_ndjson(&text).expect("trace parses");
    let mut resumed_shards = Vec::new();
    let mut leased_shards = Vec::new();
    for e in &events {
        match &e.kind {
            EventKind::PartialAccepted { shard_id, worker, .. } if worker == "spool" => {
                resumed_shards.push(*shard_id);
            }
            EventKind::LeaseGranted { shard_id, .. } => leased_shards.push(*shard_id),
            _ => {}
        }
    }
    assert!(!resumed_shards.is_empty(), "the spooled checkpoint must be replayed");
    for shard in &resumed_shards {
        assert!(
            !leased_shards.contains(shard),
            "shard {shard} was resumed from spool yet leased again"
        );
    }
    assert_eq!(w2.executed as usize + resumed_shards.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wire-level behaviour, driven without `run_worker`: `/plan` and
/// `/status` payloads, manual lease + bogus renew, fingerprint rejection,
/// and the duplicate-upload acknowledgement.
#[test]
fn wire_endpoints_status_duplicates_and_rejections() {
    let dir = scratch("wire");
    let trace_path = dir.join("wire.events.ndjson");
    let plan = CampaignPlan::new(&matrix(), &config(), 2);
    let total_cells = plan.cells.len();
    let coordinator = Coordinator::bind(
        plan.clone(),
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 30_000,
            spool: dir.join("spool"),
            trace_path: Some(trace_path.clone()),
            stop_after_uploads: None,
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());
    let url = CoordinatorUrl::parse(&format!("http://{addr}")).expect("url");

    // GET /plan returns the coordinator's own plan.
    let (status, body) = request(&url, "GET", "/plan", &[], b"").expect("plan");
    assert_eq!(status, 200);
    let fetched = CampaignPlan::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
    assert_eq!(fetched.fingerprint(), plan.fingerprint());

    // GET /status is a specstab-metrics/v1 snapshot of the lease table.
    let (status, body) = request(&url, "GET", "/status", &[], b"").expect("status");
    assert_eq!(status, 200);
    let snapshot = Json::parse(std::str::from_utf8(&body).unwrap()).expect("parses");
    assert_eq!(snapshot.req("schema").unwrap().as_str().unwrap(), "specstab-metrics/v1");
    let serve_obj = snapshot.req("serve").unwrap();
    assert_eq!(serve_obj.req("shards_total").unwrap().as_u64().unwrap(), 2);
    assert_eq!(serve_obj.req("completed").unwrap().as_u64().unwrap(), 0);

    // Manual lease: granted with the plan's fingerprint; a bogus renew is
    // refused while renewing the real lease succeeds.
    let (status, body) =
        request(&url, "POST", "/lease", &[], lease_request("manual").as_bytes()).expect("lease");
    assert_eq!(status, 200);
    let granted = LeaseReply::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
    let LeaseReply::Granted(lease) = granted else { panic!("expected a grant, got {granted:?}") };
    assert_eq!(lease.plan_fingerprint, plan.fingerprint());
    let (_, body) =
        request(&url, "POST", "/renew", &[], renew_request("manual", lease.lease_id).as_bytes())
            .expect("renew");
    assert_eq!(std::str::from_utf8(&body).unwrap(), "{\"renewed\":true}");
    let (_, body) = request(&url, "POST", "/renew", &[], renew_request("manual", 999).as_bytes())
        .expect("bogus renew");
    assert_eq!(std::str::from_utf8(&body).unwrap(), "{\"renewed\":false}");

    // A partial from a different plan is rejected with a 400.
    let mut foreign = execute_shard(&plan, 0, 1).expect("shard 0");
    foreign.plan_fingerprint ^= 1;
    let (status, body) = request(
        &url,
        "POST",
        "/upload",
        &[("x-specstab-worker", "saboteur")],
        foreign.to_json().as_bytes(),
    )
    .expect("rejected upload");
    assert_eq!(status, 400);
    let reply = UploadReply::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
    assert!(matches!(reply, UploadReply::Rejected { .. }), "got {reply:?}");

    // A malformed counters header is rejected like a malformed body, and
    // the shard stays pending: the next valid upload is fresh.
    let shard0 = execute_shard(&plan, 0, 1).expect("shard 0");
    let (status, body) = request(
        &url,
        "POST",
        "/upload",
        &[("x-specstab-worker", "manual"), (COUNTERS_HEADER, "1,2,3,4,5,6,7,8")],
        shard0.to_json().as_bytes(),
    )
    .expect("rejected upload");
    assert_eq!(status, 400);
    let reply = UploadReply::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
    assert!(
        matches!(&reply, UploadReply::Rejected { reason } if reason.contains(COUNTERS_HEADER)),
        "got {reply:?}"
    );

    // A valid upload is accepted; uploading the identical partial again is
    // acknowledged as a duplicate, not double-counted — neither are its
    // counters.
    let counters = counters_header(&CounterSnapshot {
        batch_routed_sync_groups: 3,
        ..CounterSnapshot::default()
    });
    for (round, expect_duplicate) in [(1, false), (2, true)] {
        let (status, body) = request(
            &url,
            "POST",
            "/upload",
            &[("x-specstab-worker", "manual"), (COUNTERS_HEADER, &counters)],
            shard0.to_json().as_bytes(),
        )
        .expect("upload");
        assert_eq!(status, 200, "round {round}");
        let reply = UploadReply::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
        assert_eq!(reply, UploadReply::Accepted { duplicate: expect_duplicate }, "round {round}");
    }
    let (_, body) = request(&url, "GET", "/status", &[], b"").expect("status");
    let snapshot = Json::parse(std::str::from_utf8(&body).unwrap()).expect("parses");
    let routed = snapshot.req("serve").and_then(|s| s.req("batch_groups")?.req("routed_sync"));
    assert_eq!(routed.and_then(Json::as_u64), Ok(3), "uploaded counters reach /status");

    // Finish the campaign so the coordinator thread joins cleanly.
    let shard1 = execute_shard(&plan, 1, 1).expect("shard 1");
    let (status, _) = request(
        &url,
        "POST",
        "/upload",
        &[("x-specstab-worker", "manual")],
        shard1.to_json().as_bytes(),
    )
    .expect("final upload");
    assert_eq!(status, 200);
    let result = serve.join().expect("serve thread").expect("serve ok").expect("completed");
    assert_eq!(result.cells.len(), total_cells);
    assert_eq!(to_json(&result, true), golden());

    // Both rejections are traced.
    let events =
        parse_ndjson(&std::fs::read_to_string(&trace_path).expect("trace")).expect("parses");
    let rejected: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PartialRejected { reason, .. } => Some(reason.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(rejected.len(), 2, "{rejected:?}");
    assert!(rejected[1].contains(COUNTERS_HEADER), "{rejected:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing `watch` aborts the accept loop with its error, even while
/// no worker ever connects.
#[test]
fn watch_error_aborts_the_coordinator() {
    let dir = scratch("watch");
    let coordinator = Coordinator::bind(
        CampaignPlan::new(&matrix(), &config(), 2),
        "127.0.0.1:0",
        ServeOptions { spool: dir.join("spool"), ..ServeOptions::default() },
    )
    .expect("bind");
    let mut polls = 0;
    let outcome = coordinator.run_watched(|| {
        polls += 1;
        if polls < 3 {
            Ok(())
        } else {
            Err("worker gone".into())
        }
    });
    assert_eq!(outcome.err().as_deref(), Some("worker gone"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pids of the live children of `parent`, from the `ppid` field of
/// `/proc/<pid>/stat` (the field after the parenthesized command name).
fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
            let ppid = stat.rsplit_once(')').and_then(|(_, rest)| rest.split_whitespace().nth(1));
            ppid.and_then(|p| p.parse::<u32>().ok()) == Some(parent)
        })
        .collect()
}

/// `campaign run --workers 2` with one worker killed mid-campaign exits
/// non-zero naming the worker, without waiting for the lease to expire,
/// and leaves neither worker processes nor its temp work dir behind.
#[cfg(target_os = "linux")]
#[test]
fn run_workers_fails_fast_when_a_worker_dies() {
    let started = Instant::now();
    let mut run = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["run", "--workers", "2", "--topologies", "ring:1024", "--protocols", "ssme"])
        .args(["--daemons", "central-rand", "--faults", "0", "--seeds", "16"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("campaign run spawns");
    let mut workers = children_of(run.id());
    while workers.len() < 2 && started.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(20));
        workers = children_of(run.id());
    }
    let stop = |run: &mut std::process::Child, pids: &[u32]| {
        for pid in pids {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        let _ = run.kill();
    };
    if workers.len() != 2 {
        stop(&mut run, &workers);
        panic!("expected 2 worker processes, found {workers:?}");
    }
    let killed = Command::new("kill").args(["-9", &workers[0].to_string()]).status();
    assert!(killed.is_ok_and(|s| s.success()), "kill -9 worker {}", workers[0]);
    let status = loop {
        if let Some(status) = run.try_wait().expect("try_wait") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(120) {
            stop(&mut run, &workers);
            panic!("run --workers hung after a worker died");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let run_pid = run.id();
    let stderr = run.wait_with_output().map(|o| o.stderr).unwrap_or_default();
    let stderr = String::from_utf8_lossy(&stderr);
    assert!(!status.success(), "run must fail:\n{stderr}");
    assert!(stderr.contains("worker local-") && stderr.contains("exited with"), "{stderr}");
    for pid in &workers {
        assert!(!std::path::Path::new(&format!("/proc/{pid}")).exists(), "worker {pid} reaped");
    }
    let work_dir = std::env::temp_dir().join(format!("specstab-campaign-{run_pid}"));
    assert!(!work_dir.exists(), "{} left behind", work_dir.display());
}

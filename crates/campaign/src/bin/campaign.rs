//! The `campaign` CLI: sweep scenario grids in parallel and render
//! speculation profiles — in one process, or as a plan/shard/merge
//! pipeline across processes and machines.
//!
//! ```text
//! campaign                                   # the default 648-cell matrix
//! campaign --list-protocols                  # print the protocol registry
//! campaign --protocols all                   # every registered protocol,
//!                                            # on its compatible topologies
//! campaign --topologies ring:12,torus:4x5 --daemons sync,central-rand,dist:0.5 \
//!          --faults 0,2 --seeds 12 --json out.json --csv out.csv
//!
//! # Distributed pipeline (byte-identical to the single-process run):
//! campaign plan  --seeds 12 --shards 3 --out plan.json
//! campaign shard --plan plan.json --shard 0 --out shard-0.partial.json
//! campaign shard --plan plan.json --shard 1 --out shard-1.partial.json
//! campaign shard --plan plan.json --shard 2 --out shard-2.partial.json
//! campaign merge --json out.json shard-*.partial.json
//!
//! # Campaign as a service: lease shards to elastic pull-workers over HTTP
//! campaign serve --plan plan.json --listen 0.0.0.0:7177 --spool spool/ --json out.json
//! campaign work  --coordinator http://coordinator:7177     # on any machine, any count
//!
//! # The same service on one machine: a loopback coordinator plus 3
//! # `campaign work` processes (--threads sets threads per worker):
//! campaign run --workers 3 --seeds 12 --json out.json
//! ```
//!
//! Protocols are registry names (see `--list-protocols`); combinations a
//! protocol cannot run — incompatible topologies, witness injection for
//! protocols without a witness — are skipped up front with a note, so
//! `--protocols all` sweeps exactly the runnable grid.

use specstab_campaign::artifact::{to_csv, to_json, write_atomic, PartialArtifact};
use specstab_campaign::executor::{
    resolve_topology, run_campaign_with_progress, set_batching_enabled, CampaignConfig,
    CampaignResult,
};
use specstab_campaign::matrix::{Cell, InitMode, ScenarioMatrix};
use specstab_campaign::merge::merge_partials;
use specstab_campaign::plan::{group_boundaries, CampaignPlan};
use specstab_campaign::report::speculation_profile_table;
use specstab_campaign::serve::{run_worker, Coordinator, ServeOptions, WorkOptions};
use specstab_campaign::shard::execute_shard;
use specstab_campaign::trace::emit_result_events;
use specstab_protocols::registry;
use specstab_telemetry::{
    global, metrics_from_events, parse_ndjson, EventKind, Heartbeat, TraceWriter,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn usage() -> ! {
    eprintln!(
        "usage: campaign [run|plan|shard|merge|serve|work] [options]\n\
         \n\
         campaign [run] [--topologies <spec,..>] [--protocols <name,..|all>] \
         [--daemons <spec,..>] [--faults <k|witness,..>] [--seeds <count>] [--threads <n>] \
         [--workers <n>] [--max-steps <n>] [--seed <base>] [--batch on|off] [--json <path>] \
         [--csv <path>] [--trace <path>] [--metrics <path>] [--cells-in-json] \
         [--list-protocols]\n\
         campaign plan  [matrix options as above] --shards <n> [--out <path>]\n\
         campaign shard --plan <path> --shard <id> [--threads <n>] [--batch on|off] \
         [--out <path>] [--trace <path>]\n\
         campaign merge [--json <path>] [--csv <path>] [--cells-in-json] [--trace <path>] \
         <partial.json>..\n\
         campaign serve --plan <path> [--listen <addr>] [--spool <dir>] [--lease-ms <n>] \
         [--stop-after-uploads <n>] [--json <path>] [--csv <path>] [--cells-in-json] \
         [--trace <path>] [--metrics <path>]\n\
         campaign work  --coordinator <http://host:port> [--worker-id <id>] [--threads <n>] \
         [--batch on|off] [--lease-only]\n\
         \n\
         run --workers N serves the plan from a loopback coordinator (as campaign serve)\n\
         to N local campaign work processes (--threads then sets threads PER WORKER,\n\
         default 1); artifacts are byte-identical to the in-process run (--workers 0).\n\
         A worker that dies fails the run.\n\
         \n\
         --batch toggles the lane-packed batched group engine (default on; forwarded to\n\
         run's worker processes). Sync, central-rr, central-rand and dist:<p> groups\n\
         of packed protocols route through it (the central modes up to the protocol's\n\
         measured crossover: n = 128 on the byte-lane rings, n = 32 on ssme); the\n\
         random daemons step per-lane RNG streams that replay the scalar seeds exactly.\n\
         Batched and scalar execution produce byte-identical artifacts — off exists for\n\
         A/B timing and differential testing.\n\
         \n\
         serve coordinates a plan over HTTP: pull-workers (campaign work) lease shards,\n\
         execute, and upload partials; expired leases are re-dispatched; every accepted\n\
         partial is spooled to disk (default spool: serve_spool/) so a killed coordinator\n\
         resumes without re-running completed shards. GET /status serves a live\n\
         specstab-metrics/v1 snapshot. The final artifact is byte-identical to a\n\
         single-process run of the same plan.\n\
         \n\
         --trace writes a specstab-events/v1 NDJSON event stream (with --workers N it is\n\
         the coordinator's stream of leases, acceptances and merge); --metrics\n\
         distills the stream into a specstab-metrics/v1 runtime sidecar. Both are pure\n\
         observability: JSON/CSV artifacts stay byte-identical with tracing on.\n\
         \n\
         defaults: topologies ring:12,torus:3x4,tree:12,path:12,ring:1024,torus:32x32  \n\
         \x20         protocols ssme  \n\
         \x20         daemons sync,central-rand,dist:0.5  faults 0,2,witness  seeds 12\n\
         protocols:      {} | all  (see --list-protocols)\n\
         topology specs: {}\n\
         daemon specs:   sync | central-rr | central-rand | central-min | central-max \
         | central-oldest | dist:<p> | kbounded:<k>[:<p>] \
         | adversary-central | adversary-dist (greedy Γ1-disorder adversaries, ssme only)",
        registry::names().join(" | "),
        specstab_topology::spec::SPEC_GRAMMAR
    );
    std::process::exit(2)
}

/// Renders the protocol registry (the `--list-protocols` output).
fn registry_table() -> String {
    let mut out = String::from("registered protocols:\n");
    let rows: Vec<[String; 6]> = registry::PROTOCOLS
        .iter()
        .map(|p| {
            [
                p.name.to_string(),
                p.states.to_string(),
                p.topology.to_string(),
                if p.has_witness { "yes".into() } else { "-".into() },
                if p.batched { "yes".into() } else { "-".into() },
                p.summary.to_string(),
            ]
        })
        .collect();
    let headers = ["name", "states", "topology", "witness", "batched", "summary"];
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut line = |cells: &[String]| {
        let mut s = String::from("  ");
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(cell);
            s.extend(std::iter::repeat_n(' ', widths[i] - cell.chars().count()));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(&headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rows {
        line(row.as_ref());
    }
    out
}

struct Args {
    topologies: Vec<String>,
    protocols: Vec<String>,
    daemons: Vec<String>,
    faults: Vec<InitMode>,
    seeds: u64,
    threads: usize,
    workers: usize,
    shards: usize,
    max_steps: usize,
    seed: u64,
    json: Option<String>,
    csv: Option<String>,
    out: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    cells_in_json: bool,
    batch: bool,
}

/// Parses a `--batch` value (`on`/`off`).
fn parse_batch(val: &str) -> bool {
    match val {
        "on" => true,
        "off" => false,
        _ => usage(),
    }
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        topologies: vec![
            "ring:12".into(),
            "torus:3x4".into(),
            "tree:12".into(),
            "path:12".into(),
            // Large instances: with the CSR topology + stamp-based step
            // loop these sweep at >1e7 moves/s, so thousand-vertex cells
            // are part of the default grid rather than a special request.
            "ring:1024".into(),
            "torus:32x32".into(),
        ],
        protocols: vec!["ssme".into()],
        daemons: vec!["sync".into(), "central-rand".into(), "dist:0.5".into()],
        faults: vec![InitMode::Burst(0), InitMode::Burst(2), InitMode::Witness],
        seeds: 12,
        threads: 0,
        workers: 0,
        shards: 0,
        max_steps: 2_000_000,
        seed: 0xC0FFEE,
        json: None,
        csv: None,
        out: None,
        trace: None,
        metrics: None,
        cells_in_json: false,
        batch: true,
    };
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--help" || key == "-h" {
            usage();
        }
        if key == "--list-protocols" {
            print!("{}", registry_table());
            std::process::exit(0);
        }
        if key == "--cells-in-json" {
            args.cells_in_json = true;
            i += 1;
            continue;
        }
        let Some(val) = argv.get(i + 1).cloned() else { usage() };
        match key {
            "--topologies" => args.topologies = split_list(&val),
            "--protocols" => {
                args.protocols = registry::parse_protocol_list(&val).unwrap_or_else(|e| fail(&e));
            }
            "--daemons" => args.daemons = split_list(&val),
            "--faults" => {
                args.faults = split_list(&val)
                    .iter()
                    .map(|f| InitMode::parse(f).unwrap_or_else(|e| fail(&e)))
                    .collect();
            }
            "--seeds" => args.seeds = val.parse().unwrap_or_else(|_| usage()),
            "--threads" => args.threads = val.parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = val.parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = val.parse().unwrap_or_else(|_| usage()),
            "--max-steps" => args.max_steps = val.parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val.parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = parse_batch(&val),
            "--json" => args.json = Some(val),
            "--csv" => args.csv = Some(val),
            "--out" => args.out = Some(val),
            "--trace" => args.trace = Some(val),
            "--metrics" => args.metrics = Some(val),
            _ => usage(),
        }
        i += 2;
    }
    if args.topologies.is_empty()
        || args.protocols.is_empty()
        || args.daemons.is_empty()
        || args.faults.is_empty()
        || args.seeds == 0
    {
        usage();
    }
    args
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',').filter(|p| !p.is_empty()).map(str::to_string).collect()
}

fn fail(msg: &str) -> ! {
    eprintln!("campaign error: {msg}");
    std::process::exit(2)
}

/// Opens the `--trace` event stream when one was requested; every
/// subcommand funnels through here so streams carry a consistent header.
fn open_trace(path: Option<&str>, shard: Option<u64>, source: &str) -> Option<TraceWriter> {
    path.map(|p| TraceWriter::create(Path::new(p), shard, source).unwrap_or_else(|e| fail(&e)))
}

/// Emits one event into an open trace (no-op without `--trace`), dying on
/// write failure — a requested trace that silently loses events would be
/// worse than no trace.
fn trace_emit(trace: &mut Option<TraceWriter>, kind: EventKind) {
    if let Some(w) = trace.as_mut() {
        w.emit(kind).unwrap_or_else(|e| fail(&e));
    }
}

/// Flushes the trace and, when `--metrics` was also given, writes the
/// metrics sidecar next to it.
fn finish_trace(trace: Option<TraceWriter>, trace_path: Option<&str>, metrics: Option<&str>) {
    let Some(w) = trace else { return };
    w.finish().unwrap_or_else(|e| fail(&e));
    let path = trace_path.expect("trace writer implies a trace path");
    eprintln!("campaign: event stream -> {path}");
    if let Some(out) = metrics {
        write_metrics(path, out);
    }
}

/// Reads a finished trace back through the strict parser and writes the
/// `specstab-metrics/v1` sidecar distilled from it.
fn write_metrics(trace: &str, out: &str) {
    let text =
        std::fs::read_to_string(trace).unwrap_or_else(|e| fail(&format!("reading {trace}: {e}")));
    let events = parse_ndjson(&text).unwrap_or_else(|e| fail(&format!("parsing {trace}: {e}")));
    if let Err(e) = std::fs::write(out, metrics_from_events(&events).render()) {
        fail(&format!("writing {out}: {e}"));
    }
    eprintln!("campaign: metrics sidecar -> {out}");
}

/// Upfront compatibility filter: parses each topology once and asks the
/// registry (i.e. each harness's typed topology check) which
/// (topology, protocol) pairs can run, and which protocols support the
/// witness scenario. Returns the keep-predicate inputs plus human-readable
/// skip notes. Unparseable or disconnected topologies stay in the matrix —
/// they surface as per-cell errors exactly as before.
fn compatibility(args: &Args) -> (HashSet<(String, String)>, HashSet<String>, Vec<String>) {
    let mut incompatible: HashSet<(String, String)> = HashSet::new();
    let mut no_witness: HashSet<String> = HashSet::new();
    let mut notes = Vec::new();
    let mut graphs = HashMap::new();
    for t in &args.topologies {
        if let Ok(pair) = resolve_topology(t) {
            graphs.insert(t.clone(), pair);
        }
    }
    for p in &args.protocols {
        for t in &args.topologies {
            let Some((g, diam)) = graphs.get(t) else { continue };
            match registry::check_topology(p, g, *diam) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    notes.push(format!("skipping {p} on {t}: {e}"));
                    incompatible.insert((t.clone(), p.clone()));
                }
                Err(e) => fail(&e),
            }
        }
        let wants_witness = args.faults.contains(&InitMode::Witness);
        let has_witness = registry::info(p).is_some_and(|i| i.has_witness);
        if wants_witness && !has_witness {
            notes.push(format!(
                "skipping witness init for {p}: no adversarial witness construction"
            ));
            no_witness.insert(p.clone());
        }
    }
    (incompatible, no_witness, notes)
}

/// Builds the (compatibility-filtered) matrix the argument set describes,
/// printing skip notes.
fn build_matrix(args: &Args) -> ScenarioMatrix {
    let (incompatible, no_witness, notes) = compatibility(args);
    for note in &notes {
        eprintln!("campaign: {note}");
    }
    let keep = |cell: &Cell| {
        let topo_ok = !incompatible.contains(&(cell.topology.clone(), cell.protocol.clone()));
        let witness_ok = cell.init != InitMode::Witness || !no_witness.contains(&cell.protocol);
        topo_ok && witness_ok
    };
    let matrix = ScenarioMatrix::builder()
        .topologies(args.topologies.clone())
        .protocols(args.protocols.clone())
        .daemons(args.daemons.clone())
        .init_modes(args.faults.clone())
        .seeds(0..args.seeds)
        .build_where(keep);
    if matrix.is_empty() {
        fail("no runnable cells (every combination was skipped or an axis is empty)");
    }
    eprintln!(
        "campaign: {} cells ({} topologies x {} protocols x {} daemons x {} bursts x {} seeds{})",
        matrix.len(),
        args.topologies.len(),
        args.protocols.len(),
        args.daemons.len(),
        args.faults.len(),
        args.seeds,
        if notes.is_empty() { "" } else { ", incompatible combinations skipped" },
    );
    matrix
}

fn config_of(args: &Args) -> CampaignConfig {
    CampaignConfig {
        threads: args.threads,
        max_steps: args.max_steps,
        seed: args.seed,
        early_stop_margin: 3,
    }
}

/// Renders the profile table, writes the requested artifacts, surfaces
/// cell errors/bound violations, and exits accordingly — the shared tail
/// of `campaign [run]` and `campaign merge`.
fn emit_result(result: &CampaignResult, json: Option<&str>, csv: Option<&str>, cells: bool) -> ! {
    print!("{}", speculation_profile_table(result));
    if let Some(path) = json {
        let body = to_json(result, cells);
        if let Err(e) = write_atomic(Path::new(path), &body) {
            fail(&format!("writing {path}: {e}"));
        }
        eprintln!("campaign: JSON artifact -> {path}");
    }
    if let Some(path) = csv {
        if let Err(e) = write_atomic(Path::new(path), &to_csv(result)) {
            fail(&format!("writing {path}: {e}"));
        }
        eprintln!("campaign: CSV artifact -> {path}");
    }
    if result.total_errors() > 0 {
        // Surface *what* failed, not just how often: distinct messages
        // (e.g. typed unsupported-scenario or incompatible-topology
        // errors from harnesses) with their cell counts.
        let mut by_msg: BTreeMap<&str, u64> = BTreeMap::new();
        for cell in &result.cells {
            if let Err(e) = &cell.outcome {
                *by_msg.entry(e.as_str()).or_default() += 1;
            }
        }
        eprintln!("campaign: {} cells errored:", result.total_errors());
        for (msg, count) in by_msg {
            eprintln!("campaign:   {count} x {msg}");
        }
        std::process::exit(1);
    }
    if result.total_violations() > 0 {
        eprintln!("campaign: {} BOUND VIOLATIONS", result.total_violations());
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// The shared tail of `campaign serve` and `run --workers`: the metrics
/// sidecar read back from the coordinator's finished trace, then
/// [`emit_result`]. A coordinator stopped by fault injection exits 3.
fn emit_coordinated(
    outcome: Option<CampaignResult>,
    trace: Option<&str>,
    metrics: Option<&str>,
    json: Option<&str>,
    csv: Option<&str>,
    cells: bool,
) -> ! {
    let Some(result) = outcome else {
        eprintln!("campaign: serve stopped before completion (fault injection)");
        std::process::exit(3);
    };
    if let (Some(trace), Some(out)) = (trace, metrics) {
        write_metrics(trace, out);
    }
    emit_result(&result, json, csv, cells);
}

/// `campaign [run]`: the default sweep — in-process, or over `--workers N`
/// local `campaign work` processes pulling from a loopback coordinator
/// (byte-identical either way).
fn cmd_run(argv: &[String]) -> ! {
    let args = parse_args(argv);
    set_batching_enabled(args.batch);
    if args.metrics.is_some() && args.trace.is_none() {
        fail("--metrics requires --trace (the sidecar is distilled from the event stream)");
    }
    let matrix = build_matrix(&args);
    let config = config_of(&args);
    if args.workers > 0 {
        run_on_loopback(&args, &matrix, &config);
    }
    let mut trace = open_trace(args.trace.as_deref(), None, "run");
    trace_emit(
        &mut trace,
        EventKind::CampaignStart {
            cells: matrix.len() as u64,
            groups: group_boundaries(matrix.cells()).len().saturating_sub(1) as u64,
            seed: config.seed,
            max_steps: config.max_steps as u64,
        },
    );
    let before = global().snapshot();
    let heartbeat = Heartbeat::new(matrix.len() as u64);
    let result = run_campaign_with_progress(&matrix, &config, Some(&heartbeat));
    heartbeat.finish();
    let counters = global().snapshot().delta(&before);
    eprintln!(
        "campaign: done in {:?} on {} threads ({:.0} cells/s)",
        result.wall,
        result.threads_used,
        result.cells.len() as f64 / result.wall.as_secs_f64().max(1e-9),
    );
    if let Some(w) = trace.as_mut() {
        emit_result_events(w, &result.cells, &result.groups).unwrap_or_else(|e| fail(&e));
    }
    trace_emit(
        &mut trace,
        EventKind::CampaignEnd {
            cells: result.cells.len() as u64,
            errors: result.total_errors(),
            violations: result.total_violations(),
            wall_us: u64::try_from(result.wall.as_micros()).unwrap_or(u64::MAX),
            counters,
        },
    );
    finish_trace(trace, args.trace.as_deref(), args.metrics.as_deref());
    emit_result(&result, args.json.as_deref(), args.csv.as_deref(), args.cells_in_json);
}

/// `run --workers N`: serves the plan from a loopback coordinator to N
/// local `campaign work` processes, then ends through the same tail as
/// `campaign serve`. Whatever happens, the workers are reaped and the
/// temp work dir (the coordinator's spool) is removed before exiting.
fn run_on_loopback(args: &Args, matrix: &ScenarioMatrix, config: &CampaignConfig) -> ! {
    // ~4 group-aligned shards per worker: over-decomposition keeps
    // stragglers from idling the others, and any group-aligned split
    // merges to the same bytes.
    let shard_count =
        if args.shards > 0 { args.shards } else { args.workers.saturating_mul(4).max(1) };
    let plan = CampaignPlan::new(matrix, config, shard_count);
    let work_dir = std::env::temp_dir().join(format!("specstab-campaign-{}", std::process::id()));
    // A stale spool left under a reused pid must not be replayed.
    let _ = std::fs::remove_dir_all(&work_dir);
    let mut workers = Vec::with_capacity(args.workers);
    let outcome = serve_loopback(args, plan, &work_dir, &mut workers);
    // Once the coordinator returns, the workers have nothing left to do;
    // some may sit in a lease back-off, so they are stopped, not awaited.
    for (_, child) in &mut workers {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = outcome.unwrap_or_else(|e| fail(&e));
    emit_coordinated(
        outcome,
        args.trace.as_deref(),
        args.metrics.as_deref(),
        args.json.as_deref(),
        args.csv.as_deref(),
        args.cells_in_json,
    );
}

/// Binds the coordinator on `127.0.0.1:0` (spool in `work_dir`, trace at
/// `--trace`), spawns the workers into `workers`, and runs the
/// coordinator while [`check_workers`] watches them.
fn serve_loopback(
    args: &Args,
    plan: CampaignPlan,
    work_dir: &Path,
    workers: &mut Vec<(String, Child)>,
) -> Result<Option<CampaignResult>, String> {
    let options = ServeOptions {
        spool: work_dir.to_path_buf(),
        trace_path: args.trace.as_deref().map(PathBuf::from),
        ..ServeOptions::default()
    };
    let shards = plan.shards.len();
    let coordinator = Coordinator::bind(plan, "127.0.0.1:0", options)?;
    let url = format!(
        "http://{}",
        coordinator.local_addr().map_err(|e| format!("reading the coordinator address: {e}"))?
    );
    let exe = std::env::current_exe().map_err(|e| format!("locating campaign binary: {e}"))?;
    eprintln!("campaign: {shards} shards over {} workers at {url}", args.workers);
    for i in 0..args.workers {
        let id = format!("local-{i}");
        let mut cmd = Command::new(&exe);
        cmd.args(["work", "--coordinator", &url, "--worker-id", &id])
            .args(["--threads", &args.threads.max(1).to_string()]);
        if !args.batch {
            cmd.args(["--batch", "off"]);
        }
        let child =
            cmd.stdout(Stdio::null()).spawn().map_err(|e| format!("spawning worker {id}: {e}"))?;
        workers.push((id, child));
    }
    coordinator.run_watched(|| check_workers(workers))
}

/// Fails naming the first worker that exited non-zero, or once every
/// worker has exited — the coordinator polls this while shards are still
/// missing, so either case means they never will be.
fn check_workers(workers: &mut [(String, Child)]) -> Result<(), String> {
    let mut live = 0;
    for (id, child) in workers.iter_mut() {
        match child.try_wait() {
            Ok(None) => live += 1,
            Ok(Some(status)) if status.success() => {}
            Ok(Some(status)) => return Err(format!("worker {id} exited with {status}")),
            Err(e) => return Err(format!("waiting on worker {id}: {e}")),
        }
    }
    if live == 0 {
        let last = workers.last().map_or("", |(id, _)| id.as_str());
        return Err(format!("every worker (local-0..{last}) exited before the campaign completed"));
    }
    Ok(())
}

/// `campaign plan`: enumerate the matrix and write the shard plan.
fn cmd_plan(argv: &[String]) -> ! {
    let args = parse_args(argv);
    let matrix = build_matrix(&args);
    let shard_count = if args.shards > 0 { args.shards } else { 4 };
    let plan = CampaignPlan::new(&matrix, &config_of(&args), shard_count);
    let path = args.out.as_deref().unwrap_or("campaign_plan.json");
    if let Err(e) = std::fs::write(path, plan.to_json()) {
        fail(&format!("writing {path}: {e}"));
    }
    let groups = group_boundaries(&plan.cells).len().saturating_sub(1);
    let mut trace = open_trace(args.trace.as_deref(), None, "plan");
    trace_emit(
        &mut trace,
        EventKind::CampaignStart {
            cells: plan.cells.len() as u64,
            groups: groups as u64,
            seed: plan.config.seed,
            max_steps: plan.config.max_steps as u64,
        },
    );
    trace_emit(
        &mut trace,
        EventKind::Plan { cells: plan.cells.len() as u64, shards: plan.shards.len() as u64 },
    );
    finish_trace(trace, args.trace.as_deref(), None);
    eprintln!(
        "campaign: plan -> {path} ({} cells, {groups} groups, {} shards)",
        plan.cells.len(),
        plan.shards.len()
    );
    for s in &plan.shards {
        eprintln!("campaign:   shard {}: cells {}..{} ({})", s.id, s.start, s.end, s.end - s.start);
    }
    std::process::exit(0);
}

/// `campaign shard`: execute one shard of a plan file into a partial
/// artifact. Cell errors are recorded in the partial (the merge decides
/// the final exit code), so a shard run only fails on I/O or plan
/// problems.
fn cmd_shard(argv: &[String]) -> ! {
    let mut plan_path: Option<String> = None;
    let mut shard_id: Option<usize> = None;
    let mut threads = 1usize;
    let mut out: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        let Some(val) = argv.get(i + 1).cloned() else { usage() };
        match argv[i].as_str() {
            "--plan" => plan_path = Some(val),
            "--shard" => shard_id = Some(val.parse().unwrap_or_else(|_| usage())),
            "--threads" => threads = val.parse().unwrap_or_else(|_| usage()),
            "--batch" => set_batching_enabled(parse_batch(&val)),
            "--out" => out = Some(val),
            "--trace" => trace_path = Some(val),
            _ => usage(),
        }
        i += 2;
    }
    let (Some(plan_path), Some(shard_id)) = (plan_path, shard_id) else { usage() };
    let text = std::fs::read_to_string(&plan_path)
        .unwrap_or_else(|e| fail(&format!("reading {plan_path}: {e}")));
    let plan = CampaignPlan::from_json(&text)
        .unwrap_or_else(|e| fail(&format!("parsing {plan_path}: {e}")));
    let mut trace = open_trace(trace_path.as_deref(), Some(shard_id as u64), "shard");
    let started = std::time::Instant::now();
    let before = global().snapshot();
    if let Some(shard) = plan.shards.get(shard_id) {
        trace_emit(
            &mut trace,
            EventKind::ShardStart { start: shard.start as u64, end: shard.end as u64 },
        );
    }
    let partial = execute_shard(&plan, shard_id, threads).unwrap_or_else(|e| fail(&e));
    if let Some(w) = trace.as_mut() {
        emit_result_events(w, &partial.cells, &partial.groups).unwrap_or_else(|e| fail(&e));
    }
    trace_emit(
        &mut trace,
        EventKind::ShardEnd {
            cells: partial.cells.len() as u64,
            wall_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            counters: global().snapshot().delta(&before),
        },
    );
    finish_trace(trace, trace_path.as_deref(), None);
    let out = out.unwrap_or_else(|| format!("shard-{shard_id}.partial.json"));
    // Atomic write: a shard worker killed mid-write must never leave a
    // truncated partial for a later merge or coordinator spool resume.
    if let Err(e) = write_atomic(Path::new(&out), &partial.to_json()) {
        fail(&format!("writing {out}: {e}"));
    }
    eprintln!(
        "campaign: shard {shard_id} (cells {}..{}) done in {:?} -> {out}",
        partial.start,
        partial.end,
        started.elapsed()
    );
    std::process::exit(0);
}

/// `campaign serve`: the networked coordinator — lease shards to
/// pull-workers over HTTP, fold uploads incrementally, spool checkpoints,
/// write the final artifact when the tiling completes.
fn cmd_serve(argv: &[String]) -> ! {
    let mut plan_path: Option<String> = None;
    let mut listen = String::from("127.0.0.1:7177");
    let mut options = ServeOptions::default();
    let mut json: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut cells_in_json = false;
    let mut trace_path: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--cells-in-json" {
            cells_in_json = true;
            i += 1;
            continue;
        }
        let Some(val) = argv.get(i + 1).cloned() else { usage() };
        match argv[i].as_str() {
            "--plan" => plan_path = Some(val),
            "--listen" => listen = val,
            "--spool" => options.spool = PathBuf::from(val),
            "--lease-ms" => options.lease_ms = val.parse().unwrap_or_else(|_| usage()),
            "--stop-after-uploads" => {
                options.stop_after_uploads = Some(val.parse().unwrap_or_else(|_| usage()));
            }
            "--json" => json = Some(val),
            "--csv" => csv = Some(val),
            "--trace" => trace_path = Some(val),
            "--metrics" => metrics = Some(val),
            _ => usage(),
        }
        i += 2;
    }
    let Some(plan_path) = plan_path else { usage() };
    if metrics.is_some() && trace_path.is_none() {
        fail("--metrics requires --trace (the sidecar is distilled from the event stream)");
    }
    options.trace_path = trace_path.as_deref().map(PathBuf::from);
    let text = std::fs::read_to_string(&plan_path)
        .unwrap_or_else(|e| fail(&format!("reading {plan_path}: {e}")));
    let plan = CampaignPlan::from_json(&text)
        .unwrap_or_else(|e| fail(&format!("parsing {plan_path}: {e}")));
    let coordinator = Coordinator::bind(plan, &listen, options).unwrap_or_else(|e| fail(&e));
    let outcome = coordinator.run().unwrap_or_else(|e| fail(&e));
    emit_coordinated(
        outcome,
        trace_path.as_deref(),
        metrics.as_deref(),
        json.as_deref(),
        csv.as_deref(),
        cells_in_json,
    );
}

/// `campaign work`: the elastic pull-worker loop against a coordinator.
fn cmd_work(argv: &[String]) -> ! {
    let mut opts = WorkOptions {
        coordinator: String::new(),
        worker_id: format!("worker-{}", std::process::id()),
        threads: 1,
        lease_only: false,
    };
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--lease-only" {
            opts.lease_only = true;
            i += 1;
            continue;
        }
        let Some(val) = argv.get(i + 1).cloned() else { usage() };
        match argv[i].as_str() {
            "--coordinator" => opts.coordinator = val,
            "--worker-id" => opts.worker_id = val,
            "--threads" => opts.threads = val.parse().unwrap_or_else(|_| usage()),
            "--batch" => set_batching_enabled(parse_batch(&val)),
            _ => usage(),
        }
        i += 2;
    }
    if opts.coordinator.is_empty() {
        usage();
    }
    let summary = run_worker(&opts).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "campaign: worker {} done ({} executed, {} duplicates, {} abandoned)",
        opts.worker_id, summary.executed, summary.duplicates, summary.abandoned
    );
    std::process::exit(0);
}

/// `campaign merge`: fold partial artifacts into the final artifact.
fn cmd_merge(argv: &[String]) -> ! {
    let mut json: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut cells_in_json = false;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--cells-in-json" => {
                cells_in_json = true;
                i += 1;
            }
            "--json" | "--csv" | "--trace" => {
                let Some(val) = argv.get(i + 1).cloned() else { usage() };
                match argv[i].as_str() {
                    "--json" => json = Some(val),
                    "--csv" => csv = Some(val),
                    _ => trace_path = Some(val),
                }
                i += 2;
            }
            flag if flag.starts_with("--") => usage(),
            path => {
                inputs.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        fail("merge needs at least one partial artifact");
    }
    let partials: Vec<PartialArtifact> = inputs
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p)
                .unwrap_or_else(|e| fail(&format!("reading {}: {e}", p.display())));
            PartialArtifact::from_json(&text)
                .unwrap_or_else(|e| fail(&format!("parsing {}: {e}", p.display())))
        })
        .collect();
    eprintln!("campaign: merging {} partials", partials.len());
    let mut trace = open_trace(trace_path.as_deref(), None, "merge");
    trace_emit(&mut trace, EventKind::MergeStart { partials: partials.len() as u64 });
    let result = merge_partials(partials).unwrap_or_else(|e| fail(&e));
    trace_emit(
        &mut trace,
        EventKind::MergeEnd {
            cells: result.cells.len() as u64,
            groups: result.groups.len() as u64,
        },
    );
    finish_trace(trace, trace_path.as_deref(), None);
    emit_result(&result, json.as_deref(), csv.as_deref(), cells_in_json);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("plan") => cmd_plan(&argv[1..]),
        Some("shard") => cmd_shard(&argv[1..]),
        Some("merge") => cmd_merge(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("work") => cmd_work(&argv[1..]),
        Some("run") => cmd_run(&argv[1..]),
        // Bare flags: the historical single-process interface (`campaign
        // --topologies ...`), equivalent to `campaign run`.
        _ => cmd_run(&argv),
    }
}

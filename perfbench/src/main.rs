//! `perfbench` — the specstab campaign benchmark.
//!
//! One command runs a named workload in this process through the
//! campaign library's public API, checks every repetition's artifact, and
//! prints every metric by name with its unit:
//!
//! ```text
//! bash perfbench/run.sh \
//!     --workload default-grid --seed 12648430 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it warms up, repeats the workload for `--seconds` and
//! reports the end-to-end metrics (medians); with `--trace 1` it
//! runs one untraced and one traced repetition and reports the per-layer
//! breakdown. The last line of standard output is the result object;
//! the lines before it are the environment header and sample summaries.
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod report;
mod trace;
mod workloads;

use report::{describe, header, median, peak_rss_mb, result_line, Metric};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::{
    check, fnv1a, in_process_reference, pinned_digest, run_rep, setup, Scale, Verdict, Workload,
    DEFAULT_SEED,
};

const USAGE: &str = "usage: perfbench --workload <default-grid|lanes|sharded-small> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Scratch space (spools, span files), inside the checkout.
const WORK_DIR: &str = ".bench_build/perfbench-work";

/// Set-up samples taken alone in each of the two set-up phases, one before
/// and one after the repetitions (each repetition adds one more). Fast
/// set-ups are sampled most, since their noise is largest.
const SETUP_SAMPLES: usize = 40;

/// Share of `--seconds` each set-up phase may take.
const SETUP_PHASE_SHARE: f64 = 0.1;

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args =
        Args { workload: Workload::DefaultGrid, seed: DEFAULT_SEED, seconds: 30, trace: false };
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let val = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        match key.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload '{val}'"))?);
            }
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad seed '{val}'"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| format!("bad seconds '{val}'"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{val}'")),
                };
            }
            _ => return Err(format!("unknown option '{key}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Everything one benchmark run reports.
struct Outcome {
    /// Summary lines printed before the result line.
    lines: Vec<String>,
    /// Cells attempted over every repetition.
    attempted: u64,
    /// Failures counted against `attempted`.
    failed: u64,
    /// The reported metrics.
    metrics: Vec<Metric>,
    /// FNV-1a digest of the last repetition's artifact (read by the
    /// self-test).
    #[cfg_attr(not(test), allow(dead_code))]
    digest: u64,
}

/// Runs one benchmark invocation. `pinned` overrides the recorded digest
/// table (the self-test corrupts it on purpose).
fn run(args: &Args, scale: Scale, pinned: Option<Option<u64>>) -> Result<Outcome, String> {
    let work_dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let (w, seed) = (args.workload, args.seed);
    let pinned = pinned.unwrap_or_else(|| pinned_digest(w, scale, seed));
    let mut lines = vec![format!("header {}", header(w.name(), seed, args.seconds, args.trace))];
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut reference: Option<String> = None;
    let mut checked = |rep: &workloads::Rep, verdicts: &mut Vec<Verdict>| {
        if reference.is_none() {
            reference = rep.prepared.plan.as_ref().map(in_process_reference);
        }
        verdicts.push(check(rep, pinned, reference.as_deref()));
    };

    let (metrics, digest, layer_failures) = if args.trace {
        let untraced = run_rep(w, scale, seed, &mut Tracer::new(false), &work_dir)?;
        checked(&untraced, &mut verdicts);
        let mut tracer = Tracer::new(true);
        let traced = run_rep(w, scale, seed, &mut tracer, &work_dir)?;
        checked(&traced, &mut verdicts);
        let b = layers::breakdown(seed, untraced.wall_s, &traced, &mut tracer)?;
        let spans = work_dir.join(format!("spans-{}-{seed}.ndjson", w.name()));
        tracer.write(&spans)?;
        lines.push(format!(
            "traced wall {:.6} s vs untraced {:.6} s; spans -> {}",
            traced.wall_s,
            untraced.wall_s,
            spans.display()
        ));
        (b.metrics, fnv1a(traced.artifact.as_bytes()), b.failed_checks)
    } else {
        let budget = args.seconds as f64;
        // Warm-up, untimed: one repetition of the tiny grid brings in code
        // pages and the allocator's arenas on every thread the run uses.
        run_rep(w, Scale::Tiny, seed, &mut Tracer::new(false), &work_dir)?;
        let mut setups = sample_setups(w, scale, seed, &work_dir, budget * SETUP_PHASE_SHARE)?;
        let started = Instant::now();
        let mut walls = Vec::new();
        let mut last;
        let mut rss_mb = None;
        loop {
            let rep = run_rep(w, scale, seed, &mut Tracer::new(false), &work_dir)?;
            // Peak memory through the first repetition: later repetitions
            // and the served run's in-process reference only add allocator
            // noise that varies with the repetition count.
            rss_mb.get_or_insert_with(peak_rss_mb);
            checked(&rep, &mut verdicts);
            walls.push(rep.wall_s);
            setups.push(rep.setup_s);
            let steps: u64 = rep
                .result
                .cells
                .iter()
                .filter_map(|c| c.outcome.as_ref().ok())
                .map(|o| o.steps_run as u64)
                .sum();
            last = (rep.result.cells.len(), steps, fnv1a(rep.artifact.as_bytes()));
            // Start another repetition only if it should end within budget.
            if started.elapsed().as_secs_f64() + rep.wall_s > budget {
                break;
            }
        }
        setups.extend(sample_setups(w, scale, seed, &work_dir, budget * SETUP_PHASE_SHARE)?);
        let (cells, steps, digest) = last;
        let wall = median(&walls);
        lines.push(describe("wall_s", "s", &walls));
        lines.push(describe("setup_s", "s", &setups));
        lines.push(format!("{cells} cells, {steps} engine steps per repetition"));
        let metrics = vec![
            Metric::new("wall_s", wall, "s"),
            Metric::new("cells_per_s", cells as f64 / wall, "1/s"),
            Metric::new("steps_per_s", steps as f64 / wall, "1/s"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", rss_mb.unwrap_or_default(), "MiB"),
        ];
        (metrics, digest, Vec::new())
    };

    let attempted: u64 = verdicts.iter().map(|v| v.cells).sum();
    let failed: u64 =
        verdicts.iter().map(Verdict::failed).sum::<u64>() + layer_failures.len() as u64;
    for v in &verdicts {
        for c in &v.failed_checks {
            lines.push(format!("CHECK FAILED: {c}"));
        }
    }
    for c in &layer_failures {
        lines.push(format!("CHECK FAILED: {c}"));
    }
    lines.push(format!(
        "artifact digest {digest:#018x} ({}); failed_frac {} = {failed} / {attempted}",
        match pinned {
            Some(p) if p == digest => "matches the pinned digest".to_string(),
            Some(p) => format!("pinned {p:#018x}"),
            None => "no digest pinned at this seed".to_string(),
        },
        failed as f64 / attempted.max(1) as f64
    ));
    Ok(Outcome { lines, attempted, failed, metrics, digest })
}

/// Times set-up alone, up to `SETUP_SAMPLES` times within `seconds` (at
/// least once).
fn sample_setups(
    w: Workload,
    scale: Scale,
    seed: u64,
    work_dir: &std::path::Path,
    seconds: f64,
) -> Result<Vec<f64>, String> {
    let phase = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty()
        || (samples.len() < SETUP_SAMPLES
            && phase.elapsed().as_secs_f64() + median(&samples) <= seconds)
    {
        let dir = workloads::fresh_dir(work_dir, "setup")?;
        let t = Instant::now();
        let prepared = setup(w, scale, seed, &mut Tracer::new(false), &dir)?;
        samples.push(t.elapsed().as_secs_f64());
        drop(prepared);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    Ok(samples)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args, Scale::Full, None) {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            println!("{}", result_line(out.failed == 0, out.attempted, out.failed, &out.metrics));
            if out.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Reads the metric names and units of one `BENCHMARK.json` list.
#[cfg(test)]
fn benchmark_metrics(list: &str) -> Vec<(String, String)> {
    use specstab_telemetry::Json;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.req(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.req("name").and_then(Json::as_str).expect("name").to_string(),
                m.req("unit").and_then(Json::as_str).expect("unit").to_string(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs share the process-global engine counters, so they take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn tiny(workload: Workload, trace: bool, pinned: Option<Option<u64>>) -> Outcome {
        let args = Args { workload, seed: DEFAULT_SEED, seconds: 0, trace };
        run(&args, Scale::Tiny, pinned).expect("tiny run succeeds")
    }

    fn emitted(out: &Outcome) -> Vec<(String, String)> {
        out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    #[test]
    fn every_benchmark_metric_is_emitted_with_its_unit() {
        let _turn = SERIAL.lock().expect("no test panicked while holding the lock");
        let end_to_end = benchmark_metrics("end_to_end");
        let per_layer = benchmark_metrics("per_layer");
        for w in Workload::ALL {
            let out = tiny(w, false, None);
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.lines);
            assert_eq!(emitted(&out), end_to_end, "{} end-to-end metrics", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
            let out = tiny(w, true, None);
            assert_eq!(out.failed, 0, "{} traced: {:?}", w.name(), out.lines);
            assert_eq!(emitted(&out), per_layer, "{} per-layer metrics", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{:?}", out.metrics);
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads() {
        use specstab_telemetry::Json;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).expect("read")).expect("parse");
        let names: Vec<String> = json
            .req("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.req("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn a_corrupted_pinned_digest_trips_the_correctness_check() {
        let _turn = SERIAL.lock().expect("no test panicked while holding the lock");
        for w in Workload::ALL {
            let good = tiny(w, false, None);
            assert_eq!(good.failed, 0);
            let pinned = tiny(w, false, Some(Some(good.digest)));
            assert_eq!(pinned.failed, 0, "{}: the true digest passes", w.name());
            let corrupted = tiny(w, false, Some(Some(good.digest ^ 1)));
            assert!(corrupted.failed >= 1, "{}: a wrong digest must fail the run", w.name());
            assert!(corrupted.lines.iter().any(|l| l.contains("CHECK FAILED: artifact digest")));
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload lanes --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Lanes, 7, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload lanes --trace 2")).is_err());
    }
}

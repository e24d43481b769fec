//! Metric records, sample statistics, the run header and the result line.

use specstab_telemetry::{obj, Json};

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric record.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// Median of `xs` (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `xs` that has at least ten samples above it,
/// as `(percentile, value)`; `None` below eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// One human-readable summary line of a sampled timing: median, tail
/// percentile (or the maximum, when there are too few samples for one)
/// and the sample count.
pub fn describe(name: &str, unit: &str, xs: &[f64]) -> String {
    let tail = match tail(xs) {
        Some((p, v)) => format!("p{p:.0} {v:.6} {unit}"),
        None => format!(
            "max {:.6} {unit} (fewer than 11 samples)",
            xs.iter().fold(0.0, |a: f64, &b| a.max(b))
        ),
    };
    format!("{name}: median {:.6} {unit}, {tail}, n = {}", median(xs), xs.len())
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (each metric as `{"value", "unit"}`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]),
                )
            })
            .collect(),
    );
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", metrics),
    ])
    .render_compact()
}

/// The environment header printed with every result: core count, CPU
/// model, compiler, source commit and seed. Numbers from different
/// machines do not compare; the header says which machine they came from.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"], &[]).unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git repository names its commit;
    // GIT_DIR keeps git from searching parent directories.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], &[("GIT_DIR", ".git")])
    } else {
        None
    }
    .unwrap_or_else(|| "unavailable (not a git checkout)".into());
    obj(vec![
        ("benchmark", Json::Str("specstab-perfbench".into())),
        ("workload", Json::Str(workload.into())),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::UInt(seconds)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::UInt(nproc as u64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        ("commit", Json::Str(commit)),
    ])
    .render_compact()
}

/// First line of a command's standard output, if it ran successfully.
fn command_line(program: &str, args: &[&str], env: &[(&str, &str)]) -> Option<String> {
    let out =
        std::process::Command::new(program).args(args).envs(env.iter().copied()).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout).lines().next().unwrap_or("").trim().to_string()
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

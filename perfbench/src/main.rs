//! Layered benchmark of the Svärd reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|characterize|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload through the repository's figure-level entry
//! points for `--seconds` seconds and prints the end-to-end metrics.
//! `--trace 1` runs the traced pass instead: it times calls into every layer
//! from this crate's own files and prints the per-layer metrics. Both check
//! the outputs; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is nonzero when a
//! correctness check fails. See `README.md` for the metric definitions.

mod characterize;
mod cycle;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use svard_analysis::descriptive::median;
use svard_server::json::Json;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["sweep", "characterize", "serve"];

/// Worker threads, executors and client connections: two, or fewer on a
/// smaller host. Pinned so results compare like with like, and recorded.
pub fn pinned_threads() -> usize {
    stats::nproc().clamp(1, 2)
}

/// `n` input seeds derived from the workload seed: `seed * n + k`, so the
/// pools of different workload seeds never overlap.
pub fn sub_seeds(seed: u64, n: u64) -> Vec<u64> {
    (0..n)
        .map(|k| seed.wrapping_mul(n).wrapping_add(k))
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with the given name, value and unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one pass (timed or traced) measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweep points, characterized rows).
    pub attempted: u64,
    /// Operations that failed: a failed correctness check, a simulation that
    /// ran into its cycle cap, or an errored or refused served job.
    pub failed: u64,
    /// Correctness checks by name: `true` when passed.
    pub checks: BTreeMap<String, bool>,
    /// Metrics to print.
    pub metrics: Vec<Metric>,
    /// Context printed on the report line (digests, sample counts, ...).
    pub report: BTreeMap<String, Json>,
}

impl Outcome {
    /// Record a correctness check.
    pub fn check(&mut self, name: &str, passed: bool) {
        let entry = self.checks.entry(name.to_string()).or_insert(true);
        *entry &= passed;
    }

    /// Add a report entry.
    pub fn note(&mut self, key: &str, value: Json) {
        self.report.insert(key.to_string(), value);
    }

    /// Absorb another section's checks, metrics and report entries (not its
    /// operation counts, which belong to the workload's own section).
    pub fn absorb(&mut self, prefix: &str, other: Outcome) {
        for (name, passed) in other.checks {
            self.check(&name, passed);
        }
        self.metrics.extend(other.metrics);
        for (key, value) in other.report {
            self.report.insert(format!("{prefix}{key}"), value);
        }
    }
}

/// A float for the report line.
pub fn num(value: f64) -> Json {
    Json::Num(value)
}

/// An unsigned integer for the report line.
pub fn uint(value: u64) -> Json {
    Json::Int(i128::from(value))
}

/// End-to-end measurements shared by every workload.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// One entry per measured round.
    pub rounds: Vec<Round>,
}

/// The work one round completed and how long it took.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall seconds.
    pub wall_s: f64,
    /// Points completed.
    pub points: u64,
    /// Simulated DRAM cycles of non-failed simulations.
    pub sim_cycles: u64,
    /// Simulated instructions of non-failed simulations.
    pub sim_instr: u64,
    /// Time from each point's previous event to its arrival, in ms.
    pub latencies_ms: Vec<f64>,
}

impl Timed {
    /// The end-to-end metrics: the median set-up, median rates over the
    /// rounds, and exact latency percentiles over every sample.
    pub fn metrics(&self, out: &mut Outcome) -> Result<(), String> {
        let rate = |f: fn(&Round) -> u64| -> f64 {
            let per_round: Vec<f64> = self
                .rounds
                .iter()
                .map(|r| f(r) as f64 / r.wall_s.max(1e-9))
                .collect();
            median(&per_round)
        };
        let samples: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        let lat = |q: f64| {
            stats::percentile(&samples, q).ok_or_else(|| {
                format!(
                    "{} latency samples are too few for p{}",
                    samples.len(),
                    q * 100.0
                )
            })
        };
        out.metrics.extend([
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("points_per_s", rate(|r| r.points), "1/s"),
            Metric::new("sim_cycles_per_s", rate(|r| r.sim_cycles), "1/s"),
            Metric::new("sim_instr_per_s", rate(|r| r.sim_instr), "1/s"),
            Metric::new("point_latency_ms_p50", lat(0.5)?, "ms"),
            Metric::new("point_latency_ms_p90", lat(0.9)?, "ms"),
            Metric::new("peak_rss_mb", stats::peak_rss_mb()?, "MB"),
        ]);
        out.note("setup_repetitions", uint(self.setup_s.len() as u64));
        out.note(
            "round_wall_s",
            Json::Arr(self.rounds.iter().map(|r| num(r.wall_s)).collect()),
        );
        out.note("latency_samples", uint(samples.len() as u64));
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join("|")));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// The timed end-to-end pass of one workload.
fn timed(args: &Args, threads: usize) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sweep" => cycle::timed(
            &cycle::CycleWorkload::sweep(args.seed),
            threads,
            args.seconds,
        ),
        "characterize" => {
            characterize::timed(&characterize::CharWorkload::own(args.seed), args.seconds)
        }
        _ => serve::timed(&serve::ServeWorkload::own(args.seed, threads), args.seconds),
    }
}

/// The traced pass: every layer's section, on the workload's own input where
/// the workload uses that layer and on the reference input otherwise, plus
/// the `hammer` section (Fig. 13 shape). The workload's own section supplies
/// the operation counts and `trace_overhead_ratio`.
fn traced(args: &Args, threads: usize) -> Result<Outcome, String> {
    let (seed, workload) = (args.seed, args.workload.as_str());
    let serve_input = match workload {
        "serve" => serve::ServeWorkload::own(seed, threads),
        _ => serve::ServeWorkload::reference(seed, threads),
    };
    let cycle_input = match workload {
        "sweep" => cycle::CycleWorkload::sweep(seed),
        "serve" => cycle::CycleWorkload::served_grid(serve_input.grids.first().ok_or("no grid")?),
        _ => cycle::CycleWorkload::reference(seed),
    };
    let char_input = match workload {
        "characterize" => characterize::CharWorkload::own(seed),
        _ => characterize::CharWorkload::reference(seed),
    };
    let mut hammer = cycle::traced(&cycle::CycleWorkload::hammer(seed), threads, false)?;
    let failed_ratio = hammer.failed as f64 / hammer.attempted.max(1) as f64;
    for m in &mut hammer.metrics {
        m.name = format!("hammer.{}", m.name);
    }
    hammer
        .metrics
        .push(Metric::new("hammer.failed_ratio", failed_ratio, "ratio"));
    let sections = [
        ("cycle.", cycle::traced(&cycle_input, threads, true)?),
        ("hammer.", hammer),
        ("characterize.", characterize::traced(&char_input)?),
        ("serve.", serve::traced(&serve_input)?),
    ];
    let own = match workload {
        "sweep" => "cycle.",
        "characterize" => "characterize.",
        _ => "serve.",
    };
    let mut out = Outcome::default();
    for (prefix, mut section) in sections {
        if prefix == own {
            out.attempted = section.attempted;
            out.failed = section.failed;
            let wall = |key: &str| section.report.get(key).and_then(Json::as_f64);
            let (Some(traced_s), Some(untraced_s)) =
                (wall("traced_wall_s"), wall("untraced_wall_s"))
            else {
                return Err("own section reported no walls".to_string());
            };
            section.metrics.push(Metric::new(
                "trace_overhead_ratio",
                traced_s / untraced_s,
                "ratio",
            ));
        }
        out.absorb(prefix, section);
    }
    Ok(out)
}

/// The commit the working directory is checked out at, or `unknown`. Git is
/// asked only when the working directory is itself a checkout, so a
/// repository above it is never read.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let threads = pinned_threads();
    let calibration = stats::calibration_ms();
    let mut out = if args.trace {
        traced(&args, threads)?
    } else {
        timed(&args, threads)?
    };
    if out.attempted == 0 {
        return Err("no operation was attempted".to_string());
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let correct = out.checks.values().all(|&passed| passed);
    let host: BTreeMap<String, Json> = [
        ("nproc", uint(stats::nproc() as u64)),
        ("threads", uint(threads as u64)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("commit", Json::Str(commit())),
        ("calibration_ms", num(calibration)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    out.note("host", Json::Obj(host));
    out.note("workload", Json::str(&args.workload));
    out.note("seed", uint(args.seed));
    out.note("trace", Json::Bool(args.trace));
    let checks = out
        .checks
        .iter()
        .map(|(k, &v)| (k.clone(), Json::Bool(v)))
        .collect();
    out.note("checks", Json::Obj(checks));
    let mut report = BTreeMap::new();
    report.insert(
        "report".to_string(),
        Json::Obj(std::mem::take(&mut out.report)),
    );
    println!("{}", Json::Obj(report).render());

    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), num(m.value));
            entry.insert("unit".to_string(), Json::str(m.unit));
            (m.name.clone(), Json::Obj(entry))
        })
        .collect();
    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Json::Bool(correct));
    result.insert("attempted".to_string(), uint(out.attempted));
    result.insert("failed".to_string(), uint(out.failed));
    result.insert("metrics".to_string(), Json::Obj(metrics));
    println!("{}", Json::Obj(result).render());
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: a correctness check failed (see the report line)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

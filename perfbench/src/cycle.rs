//! The cycle-loop workloads — `sweep` (Fig. 12 shape) and `hammer` (Fig. 13
//! shape) — and the cycle-loop section of the traced pass.
//!
//! The timed pass goes through `EvaluationHarness` streaming evaluate only.
//! Each mix gets a harness of its own, so every streamed point is one
//! simulation and its `mem.cycles` tells exactly whether that simulation ran
//! into `max_cycles`.

use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svard_analysis::descriptive::median;
use svard_core::Svard;
use svard_cpusim::workload::{TraceGenerator, WorkloadMix, WorkloadSpec};
use svard_defenses::DefenseKind;
use svard_dram::address::BankId;
use svard_memsim::{MemoryConfig, MemoryRequest, MemorySystem, MitigationHook, PreventiveAction};
use svard_obs::{Collect, MetricsSnapshot, Profiler, Recorder};
use svard_server::json::Json;
use svard_system::runner::{run_mix_with_mode, run_mix_with_sink};
use svard_system::{
    parallel, EvaluationHarness, EvaluationPoint, SimMode, SweepPoint, SystemConfig,
};
use svard_vulnerability::{ModuleSpec, ProfileGenerator};

use crate::stats::{secs, truncated, Digest};
use crate::{num, uint, Metric, Outcome, Round, Timed};

/// Scaled worst-case `HC_first` values of both cycle-loop workloads.
const HC_VALUES: [u64; 2] = [1024, 64];
/// Svärd bin count (4-bit identifiers).
const BINS: usize = 16;

/// One cycle-loop workload: a system configuration and its mixes.
#[derive(Debug, Clone)]
pub struct CycleWorkload {
    /// System configuration (instructions, rows, seed, cycle cap).
    pub config: SystemConfig,
    /// Workload mixes, one harness each.
    pub mixes: Vec<WorkloadMix>,
}

fn table4(instructions: u64, cores: usize, rows: usize, seed: u64) -> SystemConfig {
    let mut config = SystemConfig::table4_scaled()
        .with_instructions(instructions)
        .with_cores(cores);
    config.memory.geometry.rows_per_bank = rows;
    config.seed = seed;
    config
}

impl CycleWorkload {
    /// Fig. 12 shape: sixteen benign 8-core mixes ([`stratified_mixes`]),
    /// 10K instructions per core, 1024 rows per bank.
    pub fn sweep(seed: u64) -> CycleWorkload {
        CycleWorkload {
            config: table4(10_000, 8, 1024, seed),
            mixes: stratified_mixes(16, 8, seed),
        }
    }

    /// Fig. 13 shape: Hydra- and RRS-targeting attackers on all eight cores,
    /// 20K instructions per core. Measured in the traced pass only (see
    /// `README.md` for why it is not a timed workload).
    pub fn hammer(seed: u64) -> CycleWorkload {
        CycleWorkload {
            config: table4(20_000, 8, 1024, seed),
            mixes: vec![
                WorkloadMix::adversarial(WorkloadSpec::adversarial_hydra(), 8),
                WorkloadMix::adversarial(WorkloadSpec::adversarial_rrs(), 8),
            ],
        }
    }

    /// The cycle-loop input for traced runs of workloads that never enter
    /// the cycle loop: two `sweep` mixes.
    pub fn reference(seed: u64) -> CycleWorkload {
        let mut sweep = CycleWorkload::sweep(seed);
        sweep.mixes.truncate(2);
        sweep
    }

    /// The simulations a served grid runs: the configuration and mixes of
    /// the harness the server's bridge builds for it.
    pub fn served_grid(grid: &svard_server::protocol::GridSpec) -> CycleWorkload {
        let (harness, _) = svard_server::bridge::build_harness(grid);
        CycleWorkload {
            config: harness.config().clone(),
            mixes: harness.mixes().to_vec(),
        }
    }

    fn rows(&self) -> usize {
        self.config.memory.geometry.rows_per_bank
    }
}

/// Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// `count` benign mixes of `cores` catalogue workloads each, stratified
/// rather than drawn independently. Each workload fills a fixed share of
/// the `count × cores` slots, proportional to the weight
/// `WorkloadMix::generate` draws it with (`0.3 + 0.7 × intensity / 80`),
/// so every seed simulates the same workloads equally often. The seed
/// decides which workloads share a mix and on which core each runs. No
/// workload appears twice in one mix while no share exceeds `count`.
pub fn stratified_mixes(count: usize, cores: usize, seed: u64) -> Vec<WorkloadMix> {
    let mut catalogue = WorkloadSpec::catalogue();
    let mut rng = StdRng::seed_from_u64(seed);
    shuffle(&mut catalogue, &mut rng);
    let slots = count * cores;
    let weights: Vec<f64> = catalogue
        .iter()
        .map(|spec| 0.3 + 0.7 * f64::from(spec.intensity()) / 80.0)
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w * slots as f64 / total).collect();
    // Largest remainder: floor every share, then hand the leftover slots to
    // the largest fractional parts.
    let mut shares: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |i: usize| exact.get(i).map_or(0.0, |x| x - x.floor());
        frac(b).total_cmp(&frac(a))
    });
    let leftover = slots.saturating_sub(shares.iter().sum());
    for &i in by_remainder.iter().take(leftover) {
        if let Some(share) = shares.get_mut(i) {
            *share += 1;
        }
    }
    // Lay the slots out workload by workload and deal them round-robin, so
    // consecutive copies of one workload land in different mixes.
    let mut mixes: Vec<WorkloadMix> = (0..count)
        .map(|id| WorkloadMix {
            id,
            workloads: Vec::with_capacity(cores),
        })
        .collect();
    let copies = catalogue
        .iter()
        .zip(&shares)
        .flat_map(|(spec, &share)| std::iter::repeat_n(spec, share));
    for (slot, spec) in copies.enumerate() {
        if let Some(mix) = slot.checked_rem(count).and_then(|m| mixes.get_mut(m)) {
            mix.workloads.push(spec.clone());
        }
    }
    for mix in &mut mixes {
        shuffle(&mut mix.workloads, &mut rng);
    }
    mixes
}

/// Harnesses (one per mix) and the sweep points they evaluate.
struct Prepared {
    harnesses: Vec<EvaluationHarness>,
    points: Vec<SweepPoint>,
}

/// Every defense × {No Svärd, Svärd-S0} × `HC_FIRST`, in Fig. 12 order
/// (defense-major, then `HC_first`, then provider).
fn sweep_points(w: &CycleWorkload) -> Vec<SweepPoint> {
    let profile =
        ProfileGenerator::new(w.config.seed).generate(&ModuleSpec::s0().scaled(w.rows()), 1);
    let svards: Vec<Svard> = HC_VALUES
        .iter()
        .map(|&hc| Svard::build(&profile, hc, BINS))
        .collect();
    let mut points = Vec::new();
    for defense in DefenseKind::ALL {
        for (&hc_first, svard) in HC_VALUES.iter().zip(&svards) {
            for provider in [svard.baseline_provider(), svard.provider()] {
                points.push(SweepPoint {
                    defense,
                    provider,
                    hc_first,
                });
            }
        }
    }
    points
}

/// Set-up: profile generation, Svärd builds and harness construction (alone
/// and baseline runs).
fn prepare(w: &CycleWorkload, threads: usize, profiler: &Profiler) -> Prepared {
    let points = sweep_points(w);
    let harnesses = w
        .mixes
        .iter()
        .map(|mix| {
            EvaluationHarness::with_threads_mode_profiler(
                w.config.clone(),
                vec![mix.clone()],
                threads,
                SimMode::FastForward,
                profiler.clone(),
            )
        })
        .collect();
    Prepared { harnesses, points }
}

/// One streamed point of one mix.
#[derive(Debug, Clone, PartialEq)]
struct PointResult {
    mix: usize,
    index: usize,
    /// Canonical rendering: the point's normalized metrics and merged
    /// cycle-domain snapshot, floats in round-trip form.
    line: String,
    cycles: u64,
}

fn render(mix: usize, index: usize, point: &EvaluationPoint, snap: &MetricsSnapshot) -> String {
    let n = &point.normalized;
    format!(
        "mix={mix} point={index} defense={} provider={} hc_first={} ws={:?} hs={:?} ms={:?} metrics={}",
        point.defense,
        point.provider,
        point.hc_first,
        n.weighted_speedup,
        n.harmonic_speedup,
        n.max_slowdown,
        snap.to_json()
    )
}

/// Evaluate every point on every mix through the harnesses' streaming
/// evaluate. Returns the points in (mix, index) order, the latency of each
/// arrival since the previous event of its evaluate call (its start or the
/// previous point), in ms, and the wall seconds.
fn evaluate(prep: &Prepared) -> (Vec<PointResult>, Vec<f64>, f64) {
    let start = Instant::now();
    let mut results = Vec::new();
    let mut latencies = Vec::new();
    for (mix, harness) in prep.harnesses.iter().enumerate() {
        let state = Mutex::new((Instant::now(), Vec::new(), Vec::new()));
        harness.evaluate_all_streamed(&prep.points, |index, point, snap| {
            let now = Instant::now();
            let mut guard = state.lock().unwrap_or_else(PoisonError::into_inner);
            let (last, lat, out) = &mut *guard;
            lat.push(now.duration_since(*last).as_secs_f64() * 1e3);
            *last = now;
            out.push(PointResult {
                mix,
                index,
                line: render(mix, index, point, snap),
                cycles: snap.counter("mem.cycles"),
            });
            true
        });
        let (_, lat, out) = state.into_inner().unwrap_or_else(PoisonError::into_inner);
        latencies.extend(lat);
        results.extend(out);
    }
    results.sort_by_key(|r| (r.mix, r.index));
    (results, latencies, secs(start))
}

/// The work counts of one evaluation: (points, failed simulations, cycles
/// and instructions of the non-failed ones).
fn tally(w: &CycleWorkload, results: &[PointResult]) -> (u64, u64, u64, u64) {
    let max = w.config.max_cycles;
    let ok: Vec<&PointResult> = results
        .iter()
        .filter(|r| !truncated(r.cycles, max))
        .collect();
    let per_sim_instr = w.config.instructions_per_core * w.config.cores as u64;
    (
        results.len() as u64,
        (results.len() - ok.len()) as u64,
        ok.iter().map(|r| r.cycles).sum(),
        ok.len() as u64 * per_sim_instr,
    )
}

/// Labels of the points whose simulation ran into the cycle cap.
fn truncated_labels(w: &CycleWorkload, prep: &Prepared, results: &[PointResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .filter(|r| truncated(r.cycles, w.config.max_cycles))
            .filter_map(|r| {
                let p = prep.points.get(r.index)?;
                Some(Json::Str(format!(
                    "mix{} {} {} hc={}",
                    r.mix,
                    p.defense,
                    p.provider.name(),
                    p.hc_first
                )))
            })
            .collect(),
    )
}

/// Digest of one evaluation's canonical lines.
fn digest(results: &[PointResult]) -> Digest {
    Digest::of(&results.iter().map(|r| r.line.as_str()).collect::<Vec<_>>())
}

/// The timed pass: round after round for `seconds` (at least two rounds),
/// set up (one set-up sample per round) and evaluate the whole grid. Every
/// round must reproduce the first round's lines byte for byte.
pub fn timed(w: &CycleWorkload, threads: usize, seconds: f64) -> Result<Outcome, String> {
    let mut t = Timed::default();
    let mut out = Outcome::default();
    let mut first: Option<Vec<PointResult>> = None;
    let mut labels = Json::Arr(Vec::new());
    let start = Instant::now();
    while t.rounds.len() < 2 || secs(start) < seconds {
        let setup_start = Instant::now();
        let prep = prepare(w, threads, &Profiler::disabled());
        t.setup_s.push(secs(setup_start));
        let (results, latencies, wall_s) = evaluate(&prep);
        let (points, _, sim_cycles, sim_instr) = tally(w, &results);
        let reference = first.get_or_insert_with(|| {
            labels = truncated_labels(w, &prep, &results);
            results.clone()
        });
        out.check("rounds_byte_identical", results == *reference);
        // A point fails if it differs from the first round or its simulation
        // ran into the cycle cap.
        let failed = results
            .iter()
            .zip(reference.iter())
            .filter(|(r, first)| r != first || truncated(r.cycles, w.config.max_cycles))
            .count()
            + reference.len().abs_diff(results.len());
        out.attempted += points;
        out.failed += failed as u64;
        t.rounds.push(Round {
            wall_s,
            points,
            sim_cycles,
            sim_instr,
            latencies_ms: latencies,
        });
    }
    let first = first.unwrap_or_default();
    out.note("output_digest", Json::Str(digest(&first).hex()));
    out.note("truncated_points", labels);
    out.note("points_per_round", uint(first.len() as u64));
    t.metrics(&mut out)?;
    Ok(out)
}

/// Running totals of one defense's hook calls.
#[derive(Debug, Default, Clone, Copy)]
struct HookTotals {
    /// `on_activation` calls.
    calls: u64,
    /// Preventive actions those calls returned.
    actions: u64,
    /// Wall nanoseconds inside `on_activation`.
    activation_ns: u64,
    /// Wall nanoseconds inside `on_refresh_tick`.
    refresh_ns: u64,
}

impl HookTotals {
    fn add(&mut self, other: HookTotals) {
        self.calls += other.calls;
        self.actions += other.actions;
        self.activation_ns += other.activation_ns;
        self.refresh_ns += other.refresh_ns;
    }

    /// Defense self time: activations and refresh ticks.
    fn self_ns(&self) -> u64 {
        self.activation_ns + self.refresh_ns
    }
}

/// A [`MitigationHook`] that times the wrapped defense. It changes nothing
/// the defense does; its totals land in `sink` when the memory system drops
/// it at the end of the run.
struct TimedHook {
    inner: Box<dyn MitigationHook>,
    totals: HookTotals,
    sink: Arc<Mutex<HookTotals>>,
}

impl MitigationHook for TimedHook {
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        cycle: u64,
        out: &mut Vec<PreventiveAction>,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.inner.on_activation(bank, row, cycle, out);
        self.totals.activation_ns += start.elapsed().as_nanos() as u64;
        self.totals.calls += 1;
        self.totals.actions += out.len().saturating_sub(before) as u64;
    }

    fn on_refresh_tick(&mut self, cycle: u64) {
        let start = Instant::now();
        self.inner.on_refresh_tick(cycle);
        self.totals.refresh_ns += start.elapsed().as_nanos() as u64;
    }

    fn report_obs(&self, out: &mut dyn Collect) {
        self.inner.report_obs(out);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Drop for TimedHook {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.add(self.totals);
        }
    }
}

/// One replayed simulation of the traced pass.
struct TaskTrace {
    defense: DefenseKind,
    wall_ns: u64,
    cycles: u64,
    truncated: bool,
    stats: svard_memsim::MemStats,
    metrics: MetricsSnapshot,
    hook: HookTotals,
}

fn build_defense(w: &CycleWorkload, point: &SweepPoint) -> Box<dyn MitigationHook> {
    point.defense.build(
        point.provider.clone(),
        w.rows(),
        w.config.seed ^ point.hc_first,
    )
}

/// Replay every (mix, point) simulation through the public single-run entry
/// point with a timed defense and a recording sink: one mix at a time, its
/// points on `threads` workers, as the harness schedules them.
fn replay(w: &CycleWorkload, points: &[SweepPoint], threads: usize) -> (Vec<TaskTrace>, f64) {
    let start = Instant::now();
    let traces = w.mixes.iter().flat_map(|mix| {
        parallel::par_map(points, threads, |_, point| {
            let sink = Arc::new(Mutex::new(HookTotals::default()));
            let hook = TimedHook {
                inner: build_defense(w, point),
                totals: HookTotals::default(),
                sink: Arc::clone(&sink),
            };
            let start = Instant::now();
            let (run, _) = run_mix_with_sink(
                mix,
                &w.config,
                Box::new(hook),
                SimMode::FastForward,
                Recorder::with_trace_capacity(0),
            );
            let wall_ns = start.elapsed().as_nanos() as u64;
            let hook = *sink.lock().unwrap_or_else(PoisonError::into_inner);
            TaskTrace {
                defense: point.defense,
                wall_ns,
                cycles: run.cycles,
                truncated: truncated(run.cycles, w.config.max_cycles),
                stats: run.mem_stats,
                metrics: run.metrics,
                hook,
            }
        })
    });
    let traces = traces.collect();
    (traces, secs(start))
}

/// Row-hit probe stream: the first 64 cache lines, over and over.
fn hit_stream(i: u64) -> u64 {
    (i % 64) * 64
}

/// Row-conflict probe stream: two rows of one bank, alternately.
fn conflict_stream(i: u64) -> u64 {
    (i % 2) << 18
}

/// Requests per second of the bare memory system on a fixed address
/// stream, and the statistics it left.
fn memsim_probe(address: fn(u64) -> u64) -> (f64, svard_memsim::MemStats) {
    const REQUESTS: u64 = 200_000;
    let mut mem = MemorySystem::new(MemoryConfig::table4());
    let (mut issued, mut done) = (0u64, 0u64);
    let start = Instant::now();
    while done < REQUESTS {
        while issued < REQUESTS
            && mem
                .enqueue(MemoryRequest::read(issued, address(issued), 0))
                .is_ok()
        {
            issued += 1;
        }
        done += mem.run_until_idle(10_000_000).len() as u64;
    }
    (REQUESTS as f64 / secs(start), mem.stats().clone())
}

/// Trace events per second of `TraceGenerator::next_event` on the
/// workload's own specs.
fn trace_probe(w: &CycleWorkload) -> f64 {
    const EVENTS: u64 = 50_000;
    let mut total = 0u64;
    let start = Instant::now();
    for mix in &w.mixes {
        for (core, spec) in mix.workloads.iter().take(w.config.cores).enumerate() {
            let mut gen = TraceGenerator::new(spec, core, w.config.seed);
            for _ in 0..EVENTS {
                black_box(gen.next_event());
            }
            total += EVENTS;
        }
    }
    total as f64 / secs(start)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The cycle-loop section of the traced pass: `system`, `memsim`, `cpusim`
/// and `defenses` metrics, the fast-forward vs per-cycle check, and the
/// traced and untraced walls of the same work. `probes` adds the bare
/// memory-system probes, whose input does not depend on `w`.
pub fn traced(w: &CycleWorkload, threads: usize, probes: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Untraced: the timed pass's entry point, once.
    let plain = prepare(w, threads, &Profiler::disabled());
    let (results, _, untraced_wall) = evaluate(&plain);
    let (points, failed, _, _) = tally(w, &results);
    out.attempted = points;
    out.failed = failed;

    // Harness phases and tasks, from the harness's own span profiler.
    let profiler = Profiler::new(1 << 16);
    let profiled = prepare(w, threads, &profiler);
    let phase_s = |name: &str| -> f64 {
        profiled
            .harnesses
            .iter()
            .flat_map(|h| h.prep_profile())
            .filter(|p| p.phase == name)
            .map(|p| p.wall_seconds)
            .sum()
    };
    let (alone_s, baseline_s) = (phase_s("alone_runs"), phase_s("baseline_runs"));
    let (mut busy, mut capacity) = (0.0, 0.0);
    for harness in &profiled.harnesses {
        let (_, profile) = harness.evaluate_all_profiled(&profiled.points);
        busy += profile.busy_seconds;
        capacity += profile.wall_seconds * profile.threads as f64;
    }
    let task_ms: Vec<f64> = profiler
        .snapshot_spans()
        .iter()
        .filter(|s| s.name == "harness.sim_task")
        .map(|s| s.dur_us as f64 / 1e3)
        .collect();

    // Traced: every simulation replayed with a timed defense.
    let (traces, traced_wall) = replay(w, &plain.points, threads);
    let replay_cycles: Vec<u64> = traces.iter().map(|t| t.cycles).collect();
    let harness_cycles: Vec<u64> = results.iter().map(|r| r.cycles).collect();
    out.check("replay_matches_harness", replay_cycles == harness_cycles);

    // One point per workload, fast-forward against per-cycle.
    let benign = traces
        .iter()
        .position(|t| !t.truncated)
        .ok_or("every simulation truncated")?;
    let (m, p) = (benign / plain.points.len(), benign % plain.points.len());
    let (Some(mix), Some(point)) = (w.mixes.get(m), plain.points.get(p)) else {
        return Err("replay and harness disagree on the task list".to_string());
    };
    let fast = run_mix_with_mode(
        mix,
        &w.config,
        build_defense(w, point),
        SimMode::FastForward,
    );
    let slow = run_mix_with_mode(mix, &w.config, build_defense(w, point), SimMode::PerCycle);
    out.check("ff_equals_percycle", fast == slow);

    let ok: Vec<&TaskTrace> = traces.iter().filter(|t| !t.truncated).collect();
    let ok_cycles: u64 = ok.iter().map(|t| t.cycles).sum();
    let loop_ns: u64 = ok
        .iter()
        .map(|t| t.wall_ns.saturating_sub(t.hook.self_ns()))
        .sum();
    let skipped: u64 = ok
        .iter()
        .filter_map(|t| t.metrics.hists.get("diag.mem.skip_span").map(|h| h.sum))
        .sum();
    let ff_skips: u64 = ok
        .iter()
        .map(|t| t.metrics.counter("diag.mem.ff_skips"))
        .sum();
    let acts: u64 = ok.iter().map(|t| t.stats.activations).sum();
    let hits: u64 = ok.iter().map(|t| t.stats.row_hits).sum();
    let accesses: u64 = ok
        .iter()
        .map(|t| t.stats.row_hits + t.stats.row_misses + t.stats.row_conflicts)
        .sum();
    let throttle: u64 = traces.iter().map(|t| t.stats.throttle_stalls).sum();

    let mut per_defense = [HookTotals::default(); DefenseKind::ALL.len()];
    for t in &traces {
        let slot = DefenseKind::ALL
            .iter()
            .position(|&d| d == t.defense)
            .and_then(|i| per_defense.get_mut(i));
        if let Some(slot) = slot {
            slot.add(t.hook);
        }
    }
    let defense_ns: u64 = traces.iter().map(|t| t.hook.self_ns()).sum();
    let task_ns: u64 = traces.iter().map(|t| t.wall_ns).sum();

    out.metrics.extend([
        Metric::new("system.alone_runs_s", alone_s, "s"),
        Metric::new("system.baseline_runs_s", baseline_s, "s"),
        Metric::new("system.task_ms_p50", median(&task_ms), "ms"),
        Metric::new(
            "system.task_ms_max",
            task_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        Metric::new("system.worker_utilization", ratio(busy, capacity), "ratio"),
        Metric::new(
            "memsim.ns_per_sim_cycle",
            ratio(loop_ns as f64, ok_cycles as f64),
            "ns",
        ),
        Metric::new(
            "memsim.ff_skipped_cycle_share",
            ratio(skipped as f64, ok_cycles as f64),
            "ratio",
        ),
        Metric::new("memsim.ff_skips", ff_skips as f64, "count"),
        Metric::new(
            "memsim.acts_per_kcycle",
            ratio(acts as f64 * 1e3, ok_cycles as f64),
            "1/kcycle",
        ),
        Metric::new(
            "memsim.row_hit_ratio",
            ratio(hits as f64, accesses as f64),
            "ratio",
        ),
        Metric::new("memsim.throttle_stall_cycles", throttle as f64, "count"),
        Metric::new("cpusim.trace_events_per_s", trace_probe(w), "1/s"),
    ]);
    if probes {
        out.metrics.extend([
            Metric::new(
                "memsim.probe_hit_reqs_per_s",
                memsim_probe(hit_stream).0,
                "1/s",
            ),
            Metric::new(
                "memsim.probe_conflict_reqs_per_s",
                memsim_probe(conflict_stream).0,
                "1/s",
            ),
        ]);
    }
    for (defense, t) in DefenseKind::ALL.iter().zip(per_defense) {
        let kind = defense.to_string().to_lowercase();
        out.metrics.extend([
            Metric::new(
                format!("defenses.{kind}.on_activation_ns"),
                ratio(t.activation_ns as f64, t.calls as f64),
                "ns",
            ),
            Metric::new(format!("defenses.{kind}.calls"), t.calls as f64, "count"),
            Metric::new(
                format!("defenses.{kind}.actions_per_kact"),
                ratio(t.actions as f64 * 1e3, t.calls as f64),
                "1/kact",
            ),
        ]);
    }
    out.metrics.push(Metric::new(
        "defenses.self_share",
        ratio(defense_ns as f64, task_ns as f64),
        "ratio",
    ));

    out.note("traced_wall_s", num(traced_wall));
    out.note("untraced_wall_s", num(untraced_wall));
    out.note("output_digest", Json::Str(digest(&results).hex()));
    out.note("truncated_points", truncated_labels(w, &plain, &results));
    out.note("task_samples", uint(task_ms.len() as u64));
    out.note(
        "ff_check_point",
        Json::Str(format!(
            "mix{m} {} {} hc={}",
            point.defense,
            point.provider.name(),
            point.hc_first
        )),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> CycleWorkload {
        CycleWorkload {
            config: table4(1_000, 2, 256, seed),
            mixes: WorkloadMix::generate(2, 2, seed),
        }
    }

    #[test]
    fn digest_is_identical_at_one_and_two_threads() {
        let w = tiny(3);
        let (one, _, _) = evaluate(&prepare(&w, 1, &Profiler::disabled()));
        let (two, _, _) = evaluate(&prepare(&w, 2, &Profiler::disabled()));
        assert_eq!(one.len(), 2 * 20);
        assert_eq!(digest(&one), digest(&two));
        assert_eq!(one, two);
    }

    #[test]
    fn capped_runs_are_classified_truncated() {
        let mut w = tiny(5);
        w.config.max_cycles = 500;
        let (results, _, _) = evaluate(&prepare(&w, 1, &Profiler::disabled()));
        let (points, failed, cycles, instr) = tally(&w, &results);
        assert_eq!(failed, points, "every run hits a 500-cycle cap");
        assert_eq!((cycles, instr), (0, 0));
        // The runner itself still calls such a run finished.
        let point = &sweep_points(&w)[0];
        let run = run_mix_with_mode(
            &w.mixes[0],
            &w.config,
            build_defense(&w, point),
            SimMode::FastForward,
        );
        assert!(truncated(run.cycles, w.config.max_cycles));
        assert!(run.all_finished());
    }

    #[test]
    fn stratified_mixes_fill_fixed_shares_without_repeats() {
        let census = |seed: u64| {
            let mixes = stratified_mixes(16, 8, seed);
            assert_eq!(mixes.len(), 16);
            let mut names = Vec::new();
            for mix in &mixes {
                assert_eq!(mix.workloads.len(), 8);
                let mut own: Vec<&str> = mix.workloads.iter().map(|w| w.name).collect();
                own.sort_unstable();
                own.dedup();
                assert_eq!(own.len(), 8, "a workload repeats within mix {}", mix.id);
                names.extend(own);
            }
            names.sort_unstable();
            names
        };
        assert_eq!(census(1), census(2));
        assert_ne!(stratified_mixes(16, 8, 1), stratified_mixes(16, 8, 2));
        assert_eq!(stratified_mixes(16, 8, 3), stratified_mixes(16, 8, 3));
    }

    #[test]
    fn probe_streams_hit_and_conflict_as_named() {
        let (_, hits) = memsim_probe(hit_stream);
        assert!(hits.row_hits * 10 > (hits.row_hits + hits.row_misses + hits.row_conflicts) * 9);
        let (_, conflicts) = memsim_probe(conflict_stream);
        assert!(conflicts.row_conflicts * 10 > conflicts.activations * 9);
    }

    #[test]
    fn timed_hook_does_not_perturb_the_run() {
        let w = tiny(7);
        let points = sweep_points(&w);
        let (traces, _) = replay(&w, &points, 2);
        let (results, _, _) = evaluate(&prepare(&w, 2, &Profiler::disabled()));
        let replayed: Vec<u64> = traces.iter().map(|t| t.cycles).collect();
        let streamed: Vec<u64> = results.iter().map(|r| r.cycles).collect();
        assert_eq!(replayed, streamed);
        assert!(traces.iter().all(|t| t.hook.calls > 0));
    }
}

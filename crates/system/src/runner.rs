//! Running multiprogrammed mixes and collecting Fig. 12-style data points.
//!
//! # Fast-forwarding and parallel sweeps
//!
//! [`run_mix`] drives every core and the memory controller cycle by cycle, but
//! fast-forwards over *stall windows*: whenever no core can make progress until
//! the memory system's next event (completion, scheduling opportunity or
//! refresh), the loop jumps straight to that event, with core cycle counters and
//! memory statistics advanced exactly as per-cycle ticking would have.
//! [`run_mix_percycle`] keeps the strictly per-cycle reference semantics; the
//! equivalence tests assert both produce identical results.
//!
//! [`EvaluationHarness`] fans its simulations out across OS threads. Every
//! simulation derives its seeds from the configuration alone (workload traces
//! from `config.seed`, defenses from `config.seed ^ hc_first`), so results are
//! deterministic and independent of thread count and scheduling.
//!
//! # Quiet-defense replay
//!
//! Many sweep points never make their defense act: at high `HC_first`, or for
//! trackers whose thresholds a short run cannot cross, the defended run is
//! the no-defense baseline cycle for cycle. The harness therefore logs, while
//! it simulates each mix's baseline, every `on_activation(bank, row, cycle)`
//! and `on_refresh_tick(cycle)` call the controller makes (12 bytes a call;
//! a mix whose cycle or row exceeds `u32` gets no log). An untraced task
//! first builds its defense and feeds it that log
//! ([`EvaluationHarness::run_defended`]):
//!
//! - if the defense requests no preventive action on any logged activation,
//!   the task's result is the baseline [`RunResult`] with the defense's
//!   `report_obs` merged into its snapshot;
//! - at the first requested action, that defense is dropped and a fresh one
//!   runs the full simulation.
//!
//! This is exact. Preventive actions are the only way a [`MitigationHook`]
//! changes what the controller does, so a defense that stays quiet leaves the
//! whole system — cores, controller, and therefore the calls the defense
//! itself receives — on the baseline trajectory. By induction over the call
//! sequence, the defense sees precisely the logged calls, reaches the same
//! final state as in a full run, and the run's cycles, statistics and IPCs
//! are the baseline's. Traced tasks (a recording [`ObsSink`]) always simulate,
//! because their cycle-stamped event stream exists only in a full run. Each
//! replay attempt records a `harness.replay` span, arg 1 if the defense
//! stayed quiet and 0 if it fell back.

use svard_cpusim::metrics::SystemMetrics;
use svard_cpusim::workload::{WorkloadMix, WorkloadSpec};
use svard_cpusim::SimpleCore;
use svard_defenses::provider::SharedThresholdProvider;
use svard_defenses::DefenseKind;
use svard_memsim::{CompletedRequest, MemStats, MemorySystem, MitigationHook, NoMitigation};
use svard_obs::{MetricsSnapshot, NoopSink, ObsSink, PhaseProfile, Profiler, Recorder};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::config::SystemConfig;
use crate::parallel;
use crate::replay::{ActivationLog, LogRecorder};

/// Shared bookkeeping of a streamed sweep: per-task result slots in input
/// order, per-point outstanding-mix counters, and the running summary.
struct StreamState {
    slots: Vec<Option<(SystemMetrics, MetricsSnapshot)>>,
    remaining: Vec<usize>,
    results: Vec<Option<EvaluationPoint>>,
    summary: MetricsSnapshot,
}

/// How the simulation loop advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Skip stall windows in O(1) per event (the default; results are identical
    /// to [`SimMode::PerCycle`]).
    #[default]
    FastForward,
    /// Tick every single cycle. Reference semantics for equivalence tests and
    /// speedup measurements.
    PerCycle,
}

/// Result of simulating one mix on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-core IPC.
    pub per_core_ipc: Vec<f64>,
    /// Memory-system statistics.
    pub mem_stats: MemStats,
    /// Merged observability snapshot: the `mem.*` counters, anything the sink
    /// recorded, and the defense's pulled `defense.*` report. `diag.*` entries
    /// appear only in fast-forward runs with a recording sink; strip them with
    /// [`MetricsSnapshot::canonical`] when comparing across modes.
    pub metrics: MetricsSnapshot,
    /// Cycles simulated until every core finished (or the cycle cap).
    pub cycles: u64,
}

impl RunResult {
    /// Whether every core reached its instruction budget.
    pub fn all_finished(&self) -> bool {
        self.per_core_ipc.iter().all(|&ipc| ipc > 0.0)
    }
}

/// One data point of Fig. 12 / Fig. 13: a defense under a threshold provider at a
/// given scaled worst-case `HC_first`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationPoint {
    /// Which defense was evaluated.
    pub defense: DefenseKind,
    /// The threshold provider's name ("No Svärd", "Svärd-S0", ...).
    pub provider: String,
    /// The scaled worst-case `HC_first`.
    pub hc_first: u64,
    /// Metrics normalized to the no-defense baseline, averaged over mixes.
    pub normalized: SystemMetrics,
}

/// One configuration to simulate in a sweep: a defense under a threshold
/// provider at a scaled worst-case `HC_first`.
#[derive(Clone)]
pub struct SweepPoint {
    /// Defense to evaluate.
    pub defense: DefenseKind,
    /// Threshold provider the defense consults.
    pub provider: SharedThresholdProvider,
    /// Scaled worst-case `HC_first` (also salts the defense's RNG seed).
    pub hc_first: u64,
}

/// Simulate one workload mix on one memory-system configuration, fast-forwarding
/// over stall windows.
pub fn run_mix(
    mix: &WorkloadMix,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
) -> RunResult {
    run_mix_with_mode(mix, config, mitigation, SimMode::FastForward)
}

/// [`run_mix`] with strictly per-cycle semantics (reference implementation).
pub fn run_mix_percycle(
    mix: &WorkloadMix,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
) -> RunResult {
    run_mix_with_mode(mix, config, mitigation, SimMode::PerCycle)
}

/// Simulate one workload mix with an explicit [`SimMode`].
pub fn run_mix_with_mode(
    mix: &WorkloadMix,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
    mode: SimMode,
) -> RunResult {
    run_mix_with_sink(mix, config, mitigation, mode, NoopSink).0
}

/// Simulate one workload mix with an explicit [`SimMode`] and observability
/// sink, returning the run result together with the sink (which owns any
/// recorded event trace). With [`NoopSink`] this is exactly
/// [`run_mix_with_mode`]; with a [`Recorder`] every issued command, refresh,
/// preventive action and throttle decision is captured cycle-stamped.
pub fn run_mix_with_sink<S: ObsSink>(
    mix: &WorkloadMix,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
    mode: SimMode,
    sink: S,
) -> (RunResult, S) {
    let mut memory =
        MemorySystem::with_mitigation_and_sink(config.memory.clone(), mitigation, sink);
    let mut cores: Vec<SimpleCore> = mix
        .workloads
        .iter()
        .take(config.cores)
        .enumerate()
        .map(|(id, spec)| {
            SimpleCore::new(
                id,
                spec,
                config.core,
                config.instructions_per_core,
                config.seed,
            )
        })
        .collect();
    let mut cycles = 0u64;
    let mut completions: Vec<CompletedRequest> = Vec::new();
    while cycles < config.max_cycles && cores.iter().any(|c| !c.finished()) {
        let mut any_core_progress = false;
        for core in &mut cores {
            any_core_progress |= core.tick(&mut memory);
        }
        // One issue increments exactly one of activations/row_hits; together with
        // refreshes this detects any scheduling or refresh activity of the tick.
        let sched_before = {
            let s = memory.stats();
            s.activations + s.row_hits + s.refreshes
        };
        completions.clear();
        memory.tick_into(&mut completions);
        for done in &completions {
            if let Some(core) = cores.get_mut(done.core) {
                core.on_completion(done.id);
            }
        }
        cycles += 1;

        // Fast-forward: if neither the cores nor the memory system did anything
        // this cycle, the whole system is stalled and its state is frozen until
        // the memory system's next event — jump to the cycle just before it. The
        // skipped cycles are no-ops for cores and memory alike, so statistics
        // stay cycle-identical (see the equivalence tests).
        if mode == SimMode::FastForward && !any_core_progress && completions.is_empty() {
            let sched_after = {
                let s = memory.stats();
                s.activations + s.row_hits + s.refreshes
            };
            // If the memory system was also quiet, the system state is unchanged
            // and every core is still stalled — no further check needed. If the
            // memory did schedule something (e.g. freed a queue slot), fall back
            // to asking each core whether the new state unblocks it.
            let all_stalled = sched_after == sched_before
                || cores
                    .iter()
                    .all(|c| c.next_ready_cycle(cycles, &memory).is_none());
            if all_stalled && cores.iter().any(|c| !c.finished()) {
                if let Some(next_event) = memory.next_event_cycle() {
                    let target = (next_event - 1).min(config.max_cycles);
                    if target > memory.cycle() {
                        let skip = target - memory.cycle();
                        memory.skip_to_cycle(target);
                        for core in &mut cores {
                            core.skip_stalled_cycles(skip);
                        }
                        cycles += skip;
                    }
                }
            }
        }
    }
    let result = RunResult {
        per_core_ipc: cores.iter().map(|c| c.ipc()).collect(),
        mem_stats: memory.stats().clone(),
        metrics: memory.metrics(),
        cycles,
    };
    (result, memory.into_sink())
}

/// Simulate one workload running alone on one core of the baseline system (the
/// `IPC_alone` reference for the multiprogrammed metrics).
pub fn run_alone(spec: &WorkloadSpec, config: &SystemConfig) -> f64 {
    run_alone_with_mode(spec, config, SimMode::FastForward)
}

fn run_alone_with_mode(spec: &WorkloadSpec, config: &SystemConfig, mode: SimMode) -> f64 {
    let mix = WorkloadMix {
        id: 0,
        workloads: vec![spec.clone()],
    };
    let single = SystemConfig {
        cores: 1,
        ..config.clone()
    };
    run_mix_with_mode(&mix, &single, Box::new(NoMitigation), mode)
        .per_core_ipc
        .first()
        .copied()
        .unwrap_or(0.0)
}

/// One mix's no-defense baseline: the run, its system metrics, and the log of
/// the hook calls it made (`None` if they did not fit the compact encoding).
struct Baseline {
    run: RunResult,
    metrics: SystemMetrics,
    log: Option<ActivationLog>,
}

/// Evaluation harness that caches the per-mix alone-IPC vectors and baseline
/// runs, so that each defense configuration costs at most one extra simulation
/// per mix (none when the defense stays quiet on the baseline, see the module
/// notes) — and fans those simulations out across OS threads.
pub struct EvaluationHarness {
    config: SystemConfig,
    mixes: Vec<WorkloadMix>,
    alone_ipc: Vec<Vec<f64>>,
    baselines: Vec<Baseline>,
    threads: usize,
    mode: SimMode,
    prep_profile: Vec<PhaseProfile>,
    profiler: Profiler,
}

impl EvaluationHarness {
    /// Prepare the harness: runs each workload alone and each mix on the
    /// no-defense baseline, in parallel across all available cores.
    pub fn new(config: SystemConfig, mixes: Vec<WorkloadMix>) -> Self {
        Self::with_threads_and_mode(
            config,
            mixes,
            parallel::default_threads(),
            SimMode::default(),
        )
    }

    /// [`new`](Self::new) with an explicit worker-thread count and simulation
    /// mode (used by benchmarks and equivalence tests).
    pub fn with_threads_and_mode(
        config: SystemConfig,
        mixes: Vec<WorkloadMix>,
        threads: usize,
        mode: SimMode,
    ) -> Self {
        Self::with_threads_mode_profiler(config, mixes, threads, mode, Profiler::disabled())
    }

    /// [`with_threads_and_mode`](Self::with_threads_and_mode) with a
    /// wall-clock span [`Profiler`]: the construction phases and every worker
    /// task record spans (`harness.alone_runs`, `harness.alone_run`,
    /// `harness.baseline_runs`, `harness.baseline_run`, `harness.sweep`,
    /// `harness.sim_task`) into it, and the aggregate [`PhaseProfile`]s are
    /// derived from the same timing source. Spans never feed back into
    /// simulation state, so every result is bit-identical whether the
    /// profiler is enabled or disabled.
    pub fn with_threads_mode_profiler(
        config: SystemConfig,
        mixes: Vec<WorkloadMix>,
        threads: usize,
        mode: SimMode,
        profiler: Profiler,
    ) -> Self {
        // Alone runs: the alone IPC depends only on the workload spec (the run is
        // single-core with a fixed seed), so simulate each distinct spec once and
        // share the result across every mix slot that uses it.
        let slots: Vec<(usize, &WorkloadSpec)> = mixes
            .iter()
            .enumerate()
            .flat_map(|(m, mix)| {
                mix.workloads
                    .iter()
                    .take(config.cores)
                    .map(move |spec| (m, spec))
            })
            .collect();
        let mut unique_specs: Vec<&WorkloadSpec> = Vec::new();
        let spec_index: Vec<usize> = slots
            .iter()
            .map(|&(_, spec)| {
                unique_specs
                    .iter()
                    .position(|&u| u == spec)
                    .unwrap_or_else(|| {
                        unique_specs.push(spec);
                        unique_specs.len() - 1
                    })
            })
            .collect();
        // lint: allow(determinism) -- span profiling measures the harness, never simulation state
        let alone_start = profiler.now_us();
        let timed_alone = parallel::par_map(&unique_specs, threads, |i, &spec| {
            // lint: allow(determinism) -- per-task busy time never feeds back into results
            let task_start = profiler.now_us();
            let ipc = run_alone_with_mode(spec, &config, mode);
            // lint: allow(determinism) -- per-task busy time never feeds back into results
            let task_us = profiler.now_us().saturating_sub(task_start);
            profiler.record("harness.alone_run", task_start, task_us, i as u64);
            (ipc, task_us)
        });
        // lint: allow(determinism) -- span profiling measures the harness, never simulation state
        let alone_us = profiler.now_us().saturating_sub(alone_start);
        profiler.record(
            "harness.alone_runs",
            alone_start,
            alone_us,
            unique_specs.len() as u64,
        );
        let alone_profile = PhaseProfile {
            phase: "alone_runs",
            wall_seconds: us_to_seconds(alone_us),
            tasks: unique_specs.len(),
            busy_seconds: timed_alone.iter().map(|&(_, us)| us_to_seconds(us)).sum(),
            threads,
        };
        let unique_ipc: Vec<f64> = timed_alone.into_iter().map(|(ipc, _)| ipc).collect();
        let mut alone_ipc: Vec<Vec<f64>> = vec![Vec::new(); mixes.len()];
        for (&(m, _), &u) in slots.iter().zip(&spec_index) {
            if let (Some(per_mix), Some(&ipc)) = (alone_ipc.get_mut(m), unique_ipc.get(u)) {
                per_mix.push(ipc);
            }
        }
        // Baseline (no defense) runs: one task per mix, each logging the hook
        // calls that quiet-defense replay feeds to the sweep's defenses.
        // lint: allow(determinism) -- span profiling measures the harness, never simulation state
        let baseline_start = profiler.now_us();
        let timed_baseline = parallel::par_map(&mixes, threads, |m, mix| {
            // lint: allow(determinism) -- per-task busy time never feeds back into results
            let task_start = profiler.now_us();
            let (recorder, log) = LogRecorder::new();
            let run = run_mix_with_mode(mix, &config, Box::new(recorder), mode);
            let alone = alone_ipc.get(m).map_or(&[] as &[f64], Vec::as_slice);
            let baseline = Baseline {
                metrics: SystemMetrics::compute(alone, &run.per_core_ipc),
                run,
                log: log.finish(),
            };
            // lint: allow(determinism) -- per-task busy time never feeds back into results
            let task_us = profiler.now_us().saturating_sub(task_start);
            profiler.record("harness.baseline_run", task_start, task_us, m as u64);
            (baseline, task_us)
        });
        // lint: allow(determinism) -- span profiling measures the harness, never simulation state
        let baseline_us = profiler.now_us().saturating_sub(baseline_start);
        profiler.record(
            "harness.baseline_runs",
            baseline_start,
            baseline_us,
            mixes.len() as u64,
        );
        let baseline_profile = PhaseProfile {
            phase: "baseline_runs",
            wall_seconds: us_to_seconds(baseline_us),
            tasks: mixes.len(),
            busy_seconds: timed_baseline
                .iter()
                .map(|&(_, us)| us_to_seconds(us))
                .sum(),
            threads,
        };
        let baselines: Vec<Baseline> = timed_baseline.into_iter().map(|(b, _)| b).collect();
        Self {
            config,
            mixes,
            alone_ipc,
            baselines,
            threads,
            mode,
            prep_profile: vec![alone_profile, baseline_profile],
            profiler,
        }
    }

    /// Wall-clock profiles of the construction phases (`alone_runs` and
    /// `baseline_runs`): task counts, wall seconds, summed busy seconds and
    /// worker utilization.
    pub fn prep_profile(&self) -> &[PhaseProfile] {
        &self.prep_profile
    }

    /// The mixes under evaluation.
    pub fn mixes(&self) -> &[WorkloadMix] {
        &self.mixes
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The wall-clock span profiler this harness records into (disabled by
    /// default; see
    /// [`with_threads_mode_profiler`](Self::with_threads_mode_profiler)).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Evaluate one defense under one threshold provider, returning metrics
    /// normalized to the no-defense baseline and averaged across mixes.
    pub fn evaluate(
        &self,
        defense: DefenseKind,
        provider: SharedThresholdProvider,
        hc_first: u64,
    ) -> EvaluationPoint {
        let provider_name = provider.name().to_string();
        match self
            .evaluate_all(&[SweepPoint {
                defense,
                provider,
                hc_first,
            }])
            .pop()
        {
            Some(point) => point,
            // Unreachable: evaluate_all returns one point per input point.
            None => EvaluationPoint {
                defense,
                provider: provider_name,
                hc_first,
                normalized: ZERO_METRICS,
            },
        }
    }

    /// Evaluate a whole sweep, fanning the individual (point × mix) simulations
    /// out across worker threads. Results are returned in input order; every
    /// simulation seeds its defense from `config.seed ^ hc_first` and its traces
    /// from `config.seed`, so the output is bit-identical to a serial sweep.
    pub fn evaluate_all(&self, points: &[SweepPoint]) -> Vec<EvaluationPoint> {
        let tasks = self.tasks(points);
        let normalized = parallel::par_map(&tasks, self.threads, |_, &(p, m)| {
            self.simulate_task(points, p, m, NoopSink).0
        });
        self.aggregate(points, &normalized)
    }

    /// [`evaluate_all`](Self::evaluate_all) with a [`Recorder`] sink per
    /// simulation, additionally returning the event trace as JSON lines.
    ///
    /// Sections appear in input order — one header line per `(point, mix)`
    /// task followed by that simulation's cycle-stamped events — and contain
    /// only canonical (cycle-domain) events, so the returned bytes are
    /// identical for any worker-thread count and for fast-forward vs.
    /// per-cycle simulation.
    pub fn evaluate_all_traced(&self, points: &[SweepPoint]) -> (Vec<EvaluationPoint>, String) {
        let tasks = self.tasks(points);
        let outcomes = parallel::par_map(&tasks, self.threads, |_, &(p, m)| {
            let (norm, _, sink) = self.simulate_task(points, p, m, Recorder::new());
            (norm, sink)
        });
        let mut trace = String::new();
        for (&(p, m), (_, sink)) in tasks.iter().zip(&outcomes) {
            let Some(point) = points.get(p) else { continue };
            trace.push_str(&format!(
                "{{\"section\":{{\"defense\":\"{}\",\"provider\":\"{}\",\"hc_first\":{},\"mix\":{m}}}}}\n",
                point.defense,
                point.provider.name(),
                point.hc_first,
            ));
            trace.push_str(&sink.trace_jsonl());
        }
        let normalized: Vec<SystemMetrics> = outcomes.iter().map(|(n, _)| *n).collect();
        (self.aggregate(points, &normalized), trace)
    }

    /// [`evaluate_all`](Self::evaluate_all) plus a wall-clock profile of the
    /// sweep phase (task count, wall seconds, summed busy seconds, worker
    /// utilization). The evaluation results are bit-identical to
    /// `evaluate_all`; only the measurement rides along.
    pub fn evaluate_all_profiled(
        &self,
        points: &[SweepPoint],
    ) -> (Vec<EvaluationPoint>, PhaseProfile) {
        // lint: allow(determinism) -- span profiling measures the harness, never simulation state
        let sweep_start = self.profiler.now_us();
        let tasks = self.tasks(points);
        let timed = parallel::par_map(&tasks, self.threads, |_, &(p, m)| {
            // lint: allow(determinism) -- per-task busy time never feeds back into results
            let task_start = self.profiler.now_us();
            let (norm, _, _) = self.simulate_task(points, p, m, NoopSink);
            // lint: allow(determinism) -- per-task busy time never feeds back into results
            let task_us = self.profiler.now_us().saturating_sub(task_start);
            self.profiler
                .record("harness.sim_task", task_start, task_us, task_arg(p, m));
            (norm, task_us)
        });
        // lint: allow(determinism) -- span profiling measures the harness, never simulation state
        let sweep_us = self.profiler.now_us().saturating_sub(sweep_start);
        self.profiler
            .record("harness.sweep", sweep_start, sweep_us, tasks.len() as u64);
        let profile = PhaseProfile {
            phase: "sweep",
            wall_seconds: us_to_seconds(sweep_us),
            tasks: tasks.len(),
            busy_seconds: timed.iter().map(|&(_, us)| us_to_seconds(us)).sum(),
            threads: self.threads,
        };
        let normalized: Vec<SystemMetrics> = timed.iter().map(|(n, _)| *n).collect();
        (self.aggregate(points, &normalized), profile)
    }

    /// [`evaluate_all`](Self::evaluate_all) that streams every completed
    /// point through `on_point` the moment its last mix simulation finishes
    /// (see [`evaluate_masked_streamed`](Self::evaluate_masked_streamed)).
    pub fn evaluate_all_streamed<F>(
        &self,
        points: &[SweepPoint],
        on_point: F,
    ) -> (Vec<Option<EvaluationPoint>>, MetricsSnapshot)
    where
        F: Fn(usize, &EvaluationPoint, &MetricsSnapshot) -> bool + Sync,
    {
        let mask = vec![true; points.len()];
        self.evaluate_masked_streamed(points, &mask, on_point)
    }

    /// Evaluate the subset of `points` whose `run_point` flag is set,
    /// streaming each completed [`EvaluationPoint`] through `on_point` the
    /// moment its last mix simulation finishes — the entry point the sweep
    /// server builds resumable jobs on.
    ///
    /// Every completed point's values are **bit-identical** to the
    /// corresponding [`evaluate_all`](Self::evaluate_all) output: per-mix
    /// results land in input-order slots and are reduced in mix order, so the
    /// f64 addition sequence matches the batch path exactly, regardless of
    /// worker count or completion order. `on_point` receives the point index,
    /// the finished point, and the canonical [`MetricsSnapshot`] merged over
    /// that point's mixes; returning `false` cancels the sweep (in-flight
    /// simulations finish, no new ones start). Callbacks are serialized under
    /// an internal lock — keep them fast and non-blocking.
    ///
    /// Returns one slot per input point (`None` for masked-out points and for
    /// points not completed before a cancellation) plus the merged canonical
    /// snapshot over all completed points.
    pub fn evaluate_masked_streamed<F>(
        &self,
        points: &[SweepPoint],
        run_point: &[bool],
        on_point: F,
    ) -> (Vec<Option<EvaluationPoint>>, MetricsSnapshot)
    where
        F: Fn(usize, &EvaluationPoint, &MetricsSnapshot) -> bool + Sync,
    {
        let n_mixes = self.mixes.len();
        let results: Vec<Option<EvaluationPoint>> = vec![None; points.len()];
        // Position of each selected point among the selected set (slot base).
        let mut sel_pos: Vec<Option<usize>> = vec![None; points.len()];
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        for p in 0..points.len() {
            if run_point.get(p).copied().unwrap_or(false) {
                if let Some(slot) = sel_pos.get_mut(p) {
                    *slot = Some(tasks.len() / n_mixes.max(1));
                }
                tasks.extend((0..n_mixes).map(|m| (p, m)));
            }
        }
        if n_mixes == 0 {
            return (results, MetricsSnapshot::default());
        }
        let state = Mutex::new(StreamState {
            slots: (0..tasks.len()).map(|_| None).collect(),
            remaining: vec![n_mixes; tasks.len() / n_mixes],
            results,
            summary: MetricsSnapshot::default(),
        });
        let cancel = AtomicBool::new(false);
        parallel::par_for_each(&tasks, self.threads, &cancel, |t, &(p, m)| {
            // lint: allow(determinism) -- per-task busy time never feeds back into results
            let task_start = self.profiler.now_us();
            let (norm, metrics, _) = self.simulate_task(points, p, m, NoopSink);
            // lint: allow(determinism) -- per-task busy time never feeds back into results
            let task_us = self.profiler.now_us().saturating_sub(task_start);
            self.profiler
                .record("harness.sim_task", task_start, task_us, task_arg(p, m));
            let (Some(point), Some(&Some(si))) = (points.get(p), sel_pos.get(p)) else {
                return;
            };
            // lint: allow(panic) -- poisoned only if a worker panicked; propagating is correct
            let mut st = state.lock().unwrap();
            if let Some(slot) = st.slots.get_mut(t) {
                *slot = Some((norm, metrics));
            }
            match st.remaining.get_mut(si) {
                Some(rem) if *rem > 0 => {
                    *rem -= 1;
                    if *rem > 0 {
                        return;
                    }
                }
                _ => return,
            }
            // Last mix of this point: reduce in mix order (the same f64
            // addition sequence as `aggregate`) and stream the result.
            let base = si * n_mixes;
            let mut sums = ZERO_METRICS;
            let mut point_metrics = MetricsSnapshot::default();
            for m in 0..n_mixes {
                if let Some(Some((norm, snap))) = st.slots.get(base + m) {
                    sums.weighted_speedup += norm.weighted_speedup;
                    sums.harmonic_speedup += norm.harmonic_speedup;
                    sums.max_slowdown += norm.max_slowdown;
                    point_metrics.merge(snap);
                }
            }
            let n = n_mixes as f64;
            let done = EvaluationPoint {
                defense: point.defense,
                provider: point.provider.name().to_string(),
                hc_first: point.hc_first,
                normalized: SystemMetrics {
                    weighted_speedup: sums.weighted_speedup / n,
                    harmonic_speedup: sums.harmonic_speedup / n,
                    max_slowdown: sums.max_slowdown / n,
                },
            };
            st.summary.merge(&point_metrics);
            if !on_point(p, &done, &point_metrics) {
                cancel.store(true, Ordering::Release);
            }
            if let Some(slot) = st.results.get_mut(p) {
                *slot = Some(done);
            }
        });
        // lint: allow(panic) -- poisoned only if a worker panicked; propagating is correct
        let st = state.into_inner().unwrap();
        (st.results, st.summary)
    }

    /// The flattened `(point, mix)` work list of a sweep, in input order.
    fn tasks(&self, points: &[SweepPoint]) -> Vec<(usize, usize)> {
        let n_mixes = self.mixes.len();
        (0..points.len())
            .flat_map(|p| (0..n_mixes).map(move |m| (p, m)))
            .collect()
    }

    /// Run mix `m` under the hook `build` makes, exactly as
    /// [`run_mix_with_mode`] would in this harness's mode — but answered from
    /// the mix's baseline when the hook stays quiet on the baseline's logged
    /// hook calls (see "Quiet-defense replay" in the module notes). `build`
    /// must return an identically configured hook on every call; it is called
    /// a second time when the first hook acts and the run falls back to
    /// simulation. `None` if `m` is out of range.
    pub fn run_defended(
        &self,
        m: usize,
        build: &dyn Fn() -> Box<dyn MitigationHook>,
    ) -> Option<RunResult> {
        Some(self.replay_or_simulate(self.mixes.get(m)?, self.baselines.get(m)?, build))
    }

    /// [`run_defended`](Self::run_defended) on a mix and its baseline.
    fn replay_or_simulate(
        &self,
        mix: &WorkloadMix,
        baseline: &Baseline,
        build: &dyn Fn() -> Box<dyn MitigationHook>,
    ) -> RunResult {
        if let Some(log) = &baseline.log {
            // lint: allow(determinism) -- span profiling measures the harness, never simulation state
            let start = self.profiler.now_us();
            let mut hook = build();
            let quiet = log.replay_is_quiet(hook.as_mut());
            // lint: allow(determinism) -- span profiling measures the harness, never simulation state
            let dur = self.profiler.now_us().saturating_sub(start);
            self.profiler
                .record("harness.replay", start, dur, u64::from(quiet));
            if quiet {
                let mut run = baseline.run.clone();
                hook.report_obs(&mut run.metrics);
                return run;
            }
        }
        run_mix_with_mode(mix, &self.config, build(), self.mode)
    }

    /// Run one `(point, mix)` task with the given sink, returning the metrics
    /// normalized to that mix's no-defense baseline together with the run's
    /// canonical observability snapshot (mode-independent: `diag.*`
    /// diagnostics are stripped). Untraced tasks go through
    /// [`run_defended`](Self::run_defended); traced ones always simulate.
    fn simulate_task<S: ObsSink>(
        &self,
        points: &[SweepPoint],
        p: usize,
        m: usize,
        sink: S,
    ) -> (SystemMetrics, MetricsSnapshot, S) {
        let (Some(point), Some(mix), Some(alone), Some(base)) = (
            points.get(p),
            self.mixes.get(m),
            self.alone_ipc.get(m),
            self.baselines.get(m),
        ) else {
            // Unreachable: tasks() only produces in-range indices.
            return (ZERO_METRICS, MetricsSnapshot::default(), sink);
        };
        let build = || {
            point.defense.build(
                point.provider.clone(),
                self.config.memory.geometry.rows_per_bank,
                self.config.seed ^ point.hc_first,
            )
        };
        let (run, sink) = if S::ENABLED {
            run_mix_with_sink(mix, &self.config, build(), self.mode, sink)
        } else {
            (self.replay_or_simulate(mix, base, &build), sink)
        };
        let metrics = SystemMetrics::compute(alone, &run.per_core_ipc);
        (
            metrics.normalized_to(&base.metrics),
            run.metrics.canonical(),
            sink,
        )
    }

    /// Average the per-task normalized metrics over mixes, one result per
    /// sweep point, in input order.
    fn aggregate(
        &self,
        points: &[SweepPoint],
        normalized: &[SystemMetrics],
    ) -> Vec<EvaluationPoint> {
        let n_mixes = self.mixes.len();
        points
            .iter()
            .enumerate()
            .map(|(p, point)| {
                let mut sums = ZERO_METRICS;
                for m in 0..n_mixes {
                    if let Some(norm) = normalized.get(p * n_mixes + m) {
                        sums.weighted_speedup += norm.weighted_speedup;
                        sums.harmonic_speedup += norm.harmonic_speedup;
                        sums.max_slowdown += norm.max_slowdown;
                    }
                }
                let n = n_mixes as f64;
                EvaluationPoint {
                    defense: point.defense,
                    provider: point.provider.name().to_string(),
                    hc_first: point.hc_first,
                    normalized: SystemMetrics {
                        weighted_speedup: sums.weighted_speedup / n,
                        harmonic_speedup: sums.harmonic_speedup / n,
                        max_slowdown: sums.max_slowdown / n,
                    },
                }
            })
            .collect()
    }
}

/// All-zero metrics, used as the fallback for unreachable index paths.
const ZERO_METRICS: SystemMetrics = SystemMetrics {
    weighted_speedup: 0.0,
    harmonic_speedup: 0.0,
    max_slowdown: 0.0,
};

/// Microseconds to seconds, for [`PhaseProfile`] output.
fn us_to_seconds(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Span argument encoding one `(point, mix)` task: point index in the high
/// 32 bits, mix index in the low 32.
fn task_arg(p: usize, m: usize) -> u64 {
    ((p as u64) << 32) | (m as u64 & 0xffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svard_defenses::provider::UniformThreshold;

    fn tiny_mixes(n: usize) -> Vec<WorkloadMix> {
        WorkloadMix::generate(n, 2, 3)
    }

    #[test]
    fn mixes_run_to_completion() {
        let config = SystemConfig::tiny();
        let mix = &tiny_mixes(1)[0];
        let result = run_mix(mix, &config, Box::new(NoMitigation));
        assert!(result.all_finished());
        assert!(result.cycles < config.max_cycles);
        assert!(result.mem_stats.requests_completed() > 0);
        // The observability snapshot rides along and agrees with the stats.
        assert_eq!(
            result.metrics.counter("mem.reads_completed"),
            result.mem_stats.reads_completed
        );
        assert_eq!(result.metrics.counter("mem.cycles"), result.cycles);
    }

    #[test]
    fn fast_forward_matches_per_cycle_simulation() {
        let config = SystemConfig::tiny();
        for mix in &tiny_mixes(2) {
            let fast = run_mix(mix, &config, Box::new(NoMitigation));
            let slow = run_mix_percycle(mix, &config, Box::new(NoMitigation));
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn fast_forward_matches_per_cycle_for_every_defense() {
        use svard_cpusim::workload::WorkloadSpec;
        let mut config = SystemConfig::tiny();
        config.instructions_per_core = 3_000;
        let mut mixes = tiny_mixes(1);
        mixes.push(WorkloadMix::adversarial(
            WorkloadSpec::adversarial_rrs(),
            config.cores,
        ));
        mixes.push(WorkloadMix::adversarial(
            WorkloadSpec::adversarial_hydra(),
            config.cores,
        ));
        for mix in &mixes {
            for defense in DefenseKind::ALL {
                let build = || {
                    defense.build(
                        Arc::new(UniformThreshold::new(256)) as SharedThresholdProvider,
                        config.memory.geometry.rows_per_bank,
                        7,
                    )
                };
                let fast = run_mix(mix, &config, build());
                let slow = run_mix_percycle(mix, &config, build());
                assert_eq!(fast, slow, "defense {defense}, mix {}", mix.id);
            }
        }
    }

    #[test]
    fn alone_ipc_is_at_least_shared_ipc() {
        let config = SystemConfig::tiny();
        let mix = &tiny_mixes(1)[0];
        let shared = run_mix(mix, &config, Box::new(NoMitigation));
        for (core, spec) in mix.workloads.iter().take(config.cores).enumerate() {
            let alone = run_alone(spec, &config);
            assert!(
                alone >= shared.per_core_ipc[core] * 0.95,
                "core {core}: alone {alone} vs shared {}",
                shared.per_core_ipc[core]
            );
        }
    }

    #[test]
    fn aggressive_defense_at_low_threshold_costs_performance() {
        let config = SystemConfig::tiny();
        let harness = EvaluationHarness::new(config, tiny_mixes(2));
        let strict = harness.evaluate(DefenseKind::Para, Arc::new(UniformThreshold::new(64)), 64);
        let relaxed = harness.evaluate(
            DefenseKind::Para,
            Arc::new(UniformThreshold::new(64 * 1024)),
            64 * 1024,
        );
        assert!(strict.normalized.weighted_speedup <= relaxed.normalized.weighted_speedup + 0.02);
        assert!(relaxed.normalized.weighted_speedup > 0.9);
        assert!(strict.normalized.weighted_speedup <= 1.01);
    }

    fn para_points(hcs: &[u64]) -> Vec<SweepPoint> {
        hcs.iter()
            .map(|&hc| SweepPoint {
                defense: DefenseKind::Para,
                provider: Arc::new(UniformThreshold::new(hc)) as SharedThresholdProvider,
                hc_first: hc,
            })
            .collect()
    }

    #[test]
    fn streamed_sweep_is_bit_identical_to_batch_sweep() {
        let config = SystemConfig::tiny();
        let mixes = tiny_mixes(2);
        let points = para_points(&[64, 1024, 4096]);
        let reference = EvaluationHarness::with_threads_and_mode(
            config.clone(),
            mixes.clone(),
            1,
            SimMode::FastForward,
        )
        .evaluate_all(&points);
        for threads in [1, 2, 8] {
            let harness = EvaluationHarness::with_threads_and_mode(
                config.clone(),
                mixes.clone(),
                threads,
                SimMode::FastForward,
            );
            let streamed = Mutex::new(Vec::new());
            let (slots, summary) = harness.evaluate_all_streamed(&points, |p, point, metrics| {
                streamed
                    .lock()
                    .unwrap()
                    .push((p, point.clone(), metrics.clone()));
                true
            });
            // Every slot filled, and bit-identical to the batch result.
            let completed: Vec<EvaluationPoint> = slots.into_iter().map(|s| s.unwrap()).collect();
            assert_eq!(completed, reference, "threads = {threads}");
            // The callback saw each point exactly once, with the same values.
            let mut seen = streamed.into_inner().unwrap();
            seen.sort_by_key(|(p, _, _)| *p);
            assert_eq!(seen.len(), points.len());
            for (i, (p, point, metrics)) in seen.iter().enumerate() {
                assert_eq!(*p, i);
                assert_eq!(point, &reference[i]);
                assert!(metrics.counter("mem.cycles") > 0);
            }
            // The summary is the merge of the per-point snapshots.
            let mut merged = MetricsSnapshot::default();
            for (_, _, metrics) in &seen {
                merged.merge(metrics);
            }
            assert_eq!(summary, merged);
        }
    }

    #[test]
    fn masked_streamed_sweep_skips_unselected_points() {
        let config = SystemConfig::tiny();
        let mixes = tiny_mixes(2);
        let points = para_points(&[64, 1024, 4096]);
        let harness =
            EvaluationHarness::with_threads_and_mode(config, mixes, 2, SimMode::FastForward);
        let reference = harness.evaluate_all(&points);
        let mask = [true, false, true];
        let (slots, _) = harness.evaluate_masked_streamed(&points, &mask, |_, _, _| true);
        assert_eq!(slots[0].as_ref(), Some(&reference[0]));
        assert_eq!(slots[1], None);
        assert_eq!(slots[2].as_ref(), Some(&reference[2]));
    }

    #[test]
    fn streamed_sweep_can_be_cancelled_by_the_callback() {
        let config = SystemConfig::tiny();
        let mixes = tiny_mixes(1);
        let points = para_points(&[64, 128, 256, 512, 1024, 2048, 4096, 8192]);
        let harness =
            EvaluationHarness::with_threads_and_mode(config, mixes, 1, SimMode::FastForward);
        let (slots, _) = harness.evaluate_all_streamed(&points, |p, _, _| p == 0);
        let completed = slots.iter().filter(|s| s.is_some()).count();
        assert!(
            completed < points.len(),
            "cancellation did not stop the sweep"
        );
        // Whatever did complete matches the batch values exactly.
        let reference = harness.evaluate_all(&points);
        for (slot, expect) in slots.iter().zip(&reference) {
            if let Some(point) = slot {
                assert_eq!(point, expect);
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let config = SystemConfig::tiny();
        let mixes = tiny_mixes(2);
        let points: Vec<SweepPoint> = [64u64, 1024]
            .iter()
            .map(|&hc| SweepPoint {
                defense: DefenseKind::Para,
                provider: Arc::new(UniformThreshold::new(hc)) as SharedThresholdProvider,
                hc_first: hc,
            })
            .collect();
        let serial = EvaluationHarness::with_threads_and_mode(
            config.clone(),
            mixes.clone(),
            1,
            SimMode::FastForward,
        );
        let parallel =
            EvaluationHarness::with_threads_and_mode(config, mixes, 4, SimMode::FastForward);
        let a = serial.evaluate_all(&points);
        let b = parallel.evaluate_all(&points);
        assert_eq!(a, b);
    }
}

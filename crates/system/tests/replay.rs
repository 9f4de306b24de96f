//! Quiet-defense replay is exact: a task answered from the baseline's logged
//! hook calls equals the full simulation it stands in for.
//!
//! `evaluate_all_traced` always simulates, so it is the reference for the
//! untraced `evaluate_all`, which replays wherever the defense stays quiet.
//! The `harness.replay` spans (arg 1 = answered by replay, 0 = fell back)
//! prove that both paths were taken, so the equalities are not vacuous.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use svard_cpusim::workload::WorkloadMix;
use svard_defenses::provider::{SharedThresholdProvider, UniformThreshold};
use svard_defenses::DefenseKind;
use svard_memsim::{BankId, MitigationHook, NoMitigation, PreventiveAction};
use svard_obs::Profiler;
use svard_system::runner::run_mix_with_mode;
use svard_system::{EvaluationHarness, SimMode, SweepPoint, SystemConfig};

fn small_config() -> SystemConfig {
    let mut config = SystemConfig::tiny();
    config.memory.geometry.rows_per_bank = 512;
    config
}

fn harness(config: &SystemConfig, mixes: &[WorkloadMix]) -> EvaluationHarness {
    EvaluationHarness::with_threads_mode_profiler(
        config.clone(),
        mixes.to_vec(),
        2,
        SimMode::FastForward,
        Profiler::new(1 << 12),
    )
}

/// `(answered by replay, fell back)` counts of the harness's replay spans.
fn replay_outcomes(harness: &EvaluationHarness) -> (usize, usize) {
    let spans = harness.profiler().snapshot_spans();
    let replays = spans.iter().filter(|s| s.name == "harness.replay");
    let quiet = replays.clone().filter(|s| s.arg == 1).count();
    (quiet, replays.count() - quiet)
}

#[test]
fn replayed_sweep_equals_fully_simulated_sweep_for_every_defense() {
    let config = small_config();
    let mixes = WorkloadMix::generate(2, config.cores, 91);
    let rows = config.memory.geometry.rows_per_bank;
    let mut points = Vec::new();
    for defense in DefenseKind::ALL {
        for hc_first in [1024u64, 64] {
            points.push(SweepPoint {
                defense,
                provider: Arc::new(UniformThreshold::new(hc_first)) as SharedThresholdProvider,
                hc_first,
            });
        }
    }
    let harness = harness(&config, &mixes);

    let replayed = harness.evaluate_all(&points);
    let (quiet, acted) = replay_outcomes(&harness);
    assert_eq!(
        quiet + acted,
        points.len() * mixes.len(),
        "one attempt per task"
    );
    assert!(quiet > 0, "no task was answered by replay");
    assert!(acted > 0, "no task fell back to simulation");

    let (simulated, _) = harness.evaluate_all_traced(&points);
    assert_eq!(replayed, simulated);
    assert_eq!(
        replay_outcomes(&harness),
        (quiet, acted),
        "traced tasks must always simulate"
    );

    // Per run, the whole `RunResult` (IPCs, statistics, cycles and the
    // snapshot with the defense's own report) matches a direct simulation.
    for point in &points {
        for (m, mix) in mixes.iter().enumerate() {
            let build = || point.defense.build(point.provider.clone(), rows, 5);
            let direct = run_mix_with_mode(mix, &config, build(), SimMode::FastForward);
            assert_eq!(
                harness.run_defended(m, &build),
                Some(direct),
                "{} at HC_first {}, mix {m}",
                point.defense,
                point.hc_first
            );
        }
    }
}

/// Remembers the last activation it saw; never acts.
struct LastActivation(Rc<Cell<Option<(BankId, usize, u64)>>>);

impl MitigationHook for LastActivation {
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        cycle: u64,
        _: &mut Vec<PreventiveAction>,
    ) {
        self.0.set(Some((bank, row, cycle)));
    }

    fn name(&self) -> &str {
        "last-activation"
    }
}

/// Quiet until the given activation, where it refreshes a neighbour row.
struct FireAt((BankId, usize, u64));

impl MitigationHook for FireAt {
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        cycle: u64,
        out: &mut Vec<PreventiveAction>,
    ) {
        if (bank, row, cycle) == self.0 {
            out.push(PreventiveAction::RefreshRow { bank, row: row ^ 1 });
        }
    }

    fn name(&self) -> &str {
        "fire-at"
    }
}

#[test]
fn hook_acting_only_on_the_last_logged_activation_falls_back() {
    let config = small_config();
    let mixes = WorkloadMix::generate(1, config.cores, 92);
    let mix = &mixes[0];
    let last = Rc::new(Cell::new(None));
    let spy = Box::new(LastActivation(Rc::clone(&last)));
    let baseline = run_mix_with_mode(mix, &config, spy, SimMode::FastForward);
    let target = last.get().expect("the baseline activates rows");

    let harness = harness(&config, &mixes);
    let build = || Box::new(FireAt(target)) as Box<dyn MitigationHook>;
    let result = harness.run_defended(0, &build).expect("mix 0 exists");
    assert_eq!(replay_outcomes(&harness), (0, 1), "replay must fall back");
    assert_eq!(
        result,
        run_mix_with_mode(mix, &config, build(), SimMode::FastForward)
    );
    assert_ne!(
        result.mem_stats, baseline.mem_stats,
        "the action had no cost"
    );
    assert_eq!(
        baseline,
        run_mix_with_mode(mix, &config, Box::new(NoMitigation), SimMode::FastForward)
    );
}

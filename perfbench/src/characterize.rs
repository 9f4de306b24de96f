//! The `characterize` workload (Figs. 3/5/8 shape) and the
//! characterization section of the traced pass.
//!
//! The timed pass characterizes one strided bank of each representative
//! module (H1, M0, S0) through `TestInfrastructure::characterize_module`,
//! clusters the measured `HC_first` values and builds Svärd from each
//! profile. It never enters the cycle loop.

use std::hint::black_box;
use std::time::Instant;

use svard_analysis::descriptive::median;
use svard_analysis::kmeans::{kmeans_1d, silhouette_score_1d, silhouette_sweep};
use svard_bender::{CharacterizationConfig, ModuleCharacterization, TestInfrastructure};
use svard_chip::{ChipConfig, SimChip};
use svard_core::Svard;
use svard_dram::address::BankId;
use svard_dram::DataPattern;
use svard_server::json::Json;
use svard_vulnerability::{ModuleSpec, ModuleVulnerabilityProfile, ProfileGenerator};

use crate::stats::{secs, Digest};
use crate::{num, sub_seeds, uint, Metric, Outcome, Round, Timed};

/// Bytes per simulated row.
const ROW_BYTES: usize = 256;
/// Scaled worst-case `HC_first` Svärd is built for.
const SVARD_HC: u64 = 64;
/// Svärd bin count (4-bit identifiers).
const BINS: usize = 16;
/// k range of the silhouette sweep (Fig. 8).
const K_MAX: usize = 8;

/// One characterization workload: modules, profile seeds, bank size and
/// row stride.
#[derive(Debug, Clone)]
pub struct CharWorkload {
    modules: Vec<ModuleSpec>,
    seeds: Vec<u64>,
    rows: usize,
    stride: usize,
}

impl CharWorkload {
    /// H1, M0 and S0, each generated from four profile seeds, at 2048 rows
    /// per bank: every 16th row of one bank. Four chips per module keep the
    /// run's figures from hinging on one profile's bitflip density.
    pub fn own(seed: u64) -> CharWorkload {
        CharWorkload {
            modules: ModuleSpec::representative(),
            seeds: sub_seeds(seed, 4),
            rows: 2048,
            stride: 16,
        }
    }

    /// The characterization input for traced runs of the other workloads:
    /// one profile seed, every 128th row.
    pub fn reference(seed: u64) -> CharWorkload {
        CharWorkload {
            seeds: sub_seeds(seed, 1),
            stride: 128,
            ..CharWorkload::own(seed)
        }
    }

    fn config(&self) -> CharacterizationConfig {
        CharacterizationConfig::paper().with_stride(self.stride)
    }

    /// (profile seed, module) pairs, in characterization order.
    fn inputs(&self) -> impl Iterator<Item = (u64, &ModuleSpec)> + '_ {
        self.seeds
            .iter()
            .flat_map(|&seed| self.modules.iter().map(move |spec| (seed, spec)))
    }

    fn profile(&self, seed: u64, spec: &ModuleSpec) -> ModuleVulnerabilityProfile {
        ProfileGenerator::new(seed).generate(&spec.scaled(self.rows), 1)
    }

    fn profiles(&self) -> Vec<ModuleVulnerabilityProfile> {
        self.inputs()
            .map(|(seed, spec)| self.profile(seed, spec))
            .collect()
    }

    /// Rows characterized per module.
    fn rows_per_module(&self) -> u64 {
        self.rows.div_ceil(self.stride) as u64
    }
}

fn infrastructure(profile: &ModuleVulnerabilityProfile) -> TestInfrastructure {
    TestInfrastructure::new(SimChip::new(
        profile.clone(),
        ChipConfig::for_characterization(ROW_BYTES),
    ))
}

/// DRAM cycles of the hammer programs one row's characterization runs:
/// the worst-case-data-pattern search plus the hammer-count sweep, at the
/// chip's clock.
fn cycles_per_row(infra: &TestInfrastructure, config: &CharacterizationConfig) -> u64 {
    let hammer_counts = config
        .data_patterns
        .iter()
        .map(|_| config.wcdp_hammer_count)
        .chain(config.hammer_counts.iter().copied());
    let ns: f64 = hammer_counts
        .map(|hc| infra.hammer_program_duration_ns(hc, config.t_agg_on_ns))
        .sum::<f64>()
        * config.iterations.max(1) as f64;
    let t_ck_ps = infra.chip().config().timing.t_ck_ps.max(1);
    (ns * 1000.0 / t_ck_ps as f64) as u64
}

/// DRAM commands the chip model executed (ACT, PRE, RD, WR).
fn chip_commands(infra: &TestInfrastructure) -> u64 {
    let s = infra.chip().stats();
    s.activations + s.precharges + s.reads + s.writes
}

fn hc_first_points(result: &ModuleCharacterization) -> Vec<f64> {
    result
        .all_hc_first_values()
        .iter()
        .map(|&v| v as f64)
        .collect()
}

/// One module of one round: characterization, clustering and Svärd build.
struct ModuleRun {
    line: String,
    characterize_s: f64,
    cycles: u64,
    commands: u64,
}

/// Characterize `profile` on `infra`, a fresh chip built from it.
fn run_module(
    w: &CharWorkload,
    profile: &ModuleVulnerabilityProfile,
    mut infra: TestInfrastructure,
) -> ModuleRun {
    let config = w.config();
    let start = Instant::now();
    let result = infra.characterize_module(&[0], &config);
    let characterize_s = secs(start);
    let curve = silhouette_sweep(&hc_first_points(&result), 2..=K_MAX, profile.seed());
    let svard = Svard::build(profile, SVARD_HC, BINS);
    ModuleRun {
        line: format!(
            "{result:?} silhouette={curve:?} thresholds={:?}",
            svard.scaled_thresholds()
        ),
        characterize_s,
        cycles: cycles_per_row(&infra, &config)
            * result
                .banks
                .iter()
                .map(|b| b.rows.len() as u64)
                .sum::<u64>(),
        commands: chip_commands(&infra),
    }
}

/// The timed pass: round after round for `seconds` (at least two rounds),
/// set up and characterize every module. A round's set-up (profiles and
/// fresh chips) is one set-up sample. Every round must reproduce the first.
pub fn timed(w: &CharWorkload, seconds: f64) -> Result<Outcome, String> {
    let mut t = Timed::default();
    let mut out = Outcome::default();
    let mut first: Option<Vec<String>> = None;
    let rows = w.rows_per_module();
    let start = Instant::now();
    while t.rounds.len() < 2 || secs(start) < seconds {
        let (mut setup_s, mut wall_s, mut runs) = (0.0, 0.0, Vec::new());
        // One module at a time, so the working set is one profile and one
        // chip rather than every module's.
        for (seed, spec) in w.inputs() {
            let setup_start = Instant::now();
            let profile = w.profile(seed, spec);
            let infra = infrastructure(&profile);
            setup_s += secs(setup_start);
            let run_start = Instant::now();
            runs.push(run_module(w, &profile, infra));
            wall_s += secs(run_start);
        }
        t.setup_s.push(setup_s);
        let lines: Vec<String> = runs.iter().map(|r| r.line.clone()).collect();
        let reference = first.get_or_insert_with(|| lines.clone());
        let differing = lines
            .iter()
            .zip(reference.iter())
            .filter(|(a, b)| a != b)
            .count();
        out.check(
            "rounds_byte_identical",
            differing == 0 && lines.len() == reference.len(),
        );
        out.attempted += rows * runs.len() as u64;
        out.failed += rows * differing as u64;
        t.rounds.push(Round {
            wall_s,
            points: rows * runs.len() as u64,
            sim_cycles: runs.iter().map(|r| r.cycles).sum(),
            sim_instr: runs.iter().map(|r| r.commands).sum(),
            latencies_ms: runs
                .iter()
                .map(|r| r.characterize_s * 1e3 / rows as f64)
                .collect(),
        });
    }
    out.note(
        "output_digest",
        Json::Str(Digest::of(&first.unwrap_or_default()).hex()),
    );
    out.note("rows_per_module", uint(rows));
    t.metrics(&mut out)?;
    Ok(out)
}

/// Mean wall nanoseconds of one call of `f`, over every item.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        f(item);
    }
    start.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// The characterization section of the traced pass: `vulnerability`,
/// `core`, `chip`, `bender` and `analysis` metrics, and the traced and
/// untraced walls of the same characterization.
pub fn traced(w: &CharWorkload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = w.config();

    let start = Instant::now();
    let profiles = w.profiles();
    let profile_s = secs(start);

    let start = Instant::now();
    let svards: Vec<Svard> = profiles
        .iter()
        .map(|p| Svard::build(p, SVARD_HC, BINS))
        .collect();
    let svard_ms = secs(start) * 1e3 / svards.len() as f64;
    let lookups: Vec<_> = svards
        .iter()
        .map(Svard::provider)
        .flat_map(|provider| (0..w.rows * 8).map(move |row| (provider.clone(), row % w.rows)))
        .collect();
    let lookup_ns = mean_ns(&lookups, |(provider, row)| {
        black_box(provider.victim_threshold(BankId::default(), *row));
    });

    // Untraced: the figure-level entry point.
    let start = Instant::now();
    let untraced: Vec<ModuleCharacterization> = profiles
        .iter()
        .map(|p| infrastructure(p).characterize_module(&[0], &config))
        .collect();
    let untraced_wall = secs(start);

    // Traced: the same rows through `characterize_row`, one timed call each.
    let mut row_ms = Vec::new();
    let mut bitflips = 0;
    let start = Instant::now();
    for (profile, expected) in profiles.iter().zip(&untraced) {
        let mut infra = infrastructure(profile);
        let mut rows = Vec::new();
        for row in (0..w.rows).step_by(w.stride) {
            let row_start = Instant::now();
            rows.push(infra.characterize_row(0, row, &config));
            row_ms.push(secs(row_start) * 1e3);
        }
        bitflips += infra.chip().stats().bitflips_materialized;
        let matches = matches!(expected.banks.as_slice(), [bank] if bank.rows == rows);
        out.check("traced_characterization_matches", matches);
    }
    let traced_wall = secs(start);
    let ber_calls = row_ms.len() as u64
        * config.iterations.max(1) as u64
        * (config.data_patterns.len() + config.hammer_counts.len()) as u64;

    // Clustering, timed per call over the Fig. 8 k range.
    let (mut kmeans_ms, mut silhouette_ms) = (Vec::new(), Vec::new());
    for (result, profile) in untraced.iter().zip(&profiles) {
        let (points, result_seed) = (hc_first_points(result), profile.seed());
        for k in (2..=K_MAX).filter(|&k| k <= points.len()) {
            let start = Instant::now();
            let clusters = kmeans_1d(&points, k, result_seed, 60);
            kmeans_ms.push(secs(start) * 1e3);
            let start = Instant::now();
            black_box(silhouette_score_1d(&points, &clusters.assignments));
            silhouette_ms.push(secs(start) * 1e3);
        }
    }

    // Chip primitives on every characterized row of a fresh chip.
    let pattern = DataPattern::RowStripe;
    let first = profiles.first().ok_or("no profiles")?;
    let mut chip = SimChip::new(first.clone(), ChipConfig::for_characterization(ROW_BYTES));
    let sample: Vec<usize> = (1..w.rows - 1).step_by(w.stride).collect();
    let fill_ns = mean_ns(&sample, |&row| {
        black_box(chip.fill_row(0, row, pattern.victim_byte()).is_ok());
    });
    let hammer_ns = mean_ns(&sample, |&row| {
        black_box(
            chip.hammer_double_sided(0, row, config.wcdp_hammer_count, config.t_agg_on_ns)
                .is_ok(),
        );
    });
    let count_ns = mean_ns(&sample, |&row| {
        black_box(chip.count_bitflips(0, row, pattern.victim_byte()).is_ok());
    });

    let rows_total = (w.rows * profiles.len()) as f64;
    out.metrics.extend([
        Metric::new(
            "vulnerability.profile_rows_per_s",
            rows_total / profile_s,
            "1/s",
        ),
        Metric::new("core.svard_build_ms", svard_ms, "ms"),
        Metric::new("core.threshold_lookup_ns", lookup_ns, "ns"),
        Metric::new("chip.hammer_ns", hammer_ns, "ns"),
        Metric::new("chip.count_bitflips_ns", count_ns, "ns"),
        Metric::new("chip.fill_row_ns", fill_ns, "ns"),
        Metric::new("chip.bitflips", bitflips as f64, "count"),
        Metric::new("bender.row_ms", median(&row_ms), "ms"),
        Metric::new("bender.measure_ber_calls", ber_calls as f64, "count"),
        Metric::new("analysis.kmeans_ms", median(&kmeans_ms), "ms"),
        Metric::new("analysis.silhouette_ms", median(&silhouette_ms), "ms"),
    ]);
    out.attempted = row_ms.len() as u64;
    out.note("traced_wall_s", num(traced_wall));
    out.note("untraced_wall_s", num(untraced_wall));
    out.note(
        "output_digest",
        Json::Str(
            Digest::of(
                &untraced
                    .iter()
                    .map(|r| format!("{r:?}"))
                    .collect::<Vec<_>>(),
            )
            .hex(),
        ),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_exactly() {
        let w = CharWorkload {
            rows: 256,
            stride: 64,
            ..CharWorkload::reference(9)
        };
        let profiles = w.profiles();
        let lines = || -> Vec<String> {
            profiles
                .iter()
                .map(|p| run_module(&w, p, infrastructure(p)).line)
                .collect()
        };
        assert_eq!(lines(), lines());
        let run = run_module(&w, &profiles[0], infrastructure(&profiles[0]));
        assert!(run.cycles > 0 && run.commands > 0);
    }
}

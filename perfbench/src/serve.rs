//! The `serve` workload — an in-process `svard-server` under a closed loop
//! of client connections — and the server section of the traced pass.
//!
//! Each connection submits a small grid under a fresh job id as soon as its
//! previous job finished, cycling through a pool of grid seeds. Every served
//! point line must equal the line an in-process evaluation of its grid
//! renders.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use svard_analysis::descriptive::median;
use svard_defenses::DefenseKind;
use svard_server::bridge::build_harness;
use svard_server::client::{Client, JobOutcome};
use svard_server::json::Json;
use svard_server::protocol::{point_line, GridSpec, PROVIDER_NONE};
use svard_server::server::{serve, ServerConfig, ServerHandle};

use crate::stats::{secs, truncated, Digest};
use crate::{num, sub_seeds, uint, Metric, Outcome, Round, Timed};

/// Rounds of a timed run; each serves a freshly started server.
const ROUNDS: usize = 10;
/// Server starts timed before each round (set-up samples; the median over
/// the run is reported). The last start of a round serves it.
const STARTS_PER_ROUND: usize = 10;
/// Span-ring capacity of a traced server.
const SPAN_CAPACITY: usize = 1 << 14;
/// Job id the reference lines are rendered under.
const REFERENCE_ID: &str = "reference";

/// One serving workload: the grids jobs submit and the load shape.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Job `j` of a connection submits `grids[j % grids.len()]`.
    pub grids: Vec<GridSpec>,
    /// Concurrent client connections, and server executors.
    connections: usize,
    /// Jobs per connection in a traced session.
    traced_jobs: usize,
}

impl ServeWorkload {
    /// Every defense × {none, S0} × {1024, 64} on one 2-core mix of 2K
    /// instructions per core: 20 small points per job, so the per-job fixed
    /// cost dominates. Jobs cycle through 128 grid seeds, so the run's
    /// simulated work does not hinge on the two applications one seed draws.
    pub fn own(seed: u64, threads: usize) -> ServeWorkload {
        let grid = |seed| GridSpec {
            defenses: DefenseKind::ALL.to_vec(),
            providers: vec![PROVIDER_NONE.to_string(), "S0".to_string()],
            hc_values: vec![1024, 64],
            mixes: 1,
            cores: 2,
            instructions: 2_000,
            rows: 1024,
            seed,
            bins: 16,
            workers: 1,
        };
        ServeWorkload {
            grids: sub_seeds(seed, 128).into_iter().map(grid).collect(),
            connections: threads,
            traced_jobs: 20,
        }
    }

    /// The server input for traced runs of the other workloads: the first
    /// eight grids, five jobs per connection.
    pub fn reference(seed: u64, threads: usize) -> ServeWorkload {
        let mut own = ServeWorkload::own(seed, threads);
        own.grids.truncate(8);
        own.traced_jobs = 5;
        own
    }
}

/// Server state directories live under the working directory (the
/// checkout) and are removed when the run ends.
struct StateDir(PathBuf);

impl StateDir {
    fn new() -> StateDir {
        StateDir(Path::new(".bench_state").join(format!("serve-{}", std::process::id())))
    }

    fn fresh(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only removes the parent when no other run still uses it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

/// Start the server and wait for its first answer: the set-up a user pays.
fn start_and_ping(
    w: &ServeWorkload,
    dir: PathBuf,
    spans: usize,
) -> Result<(ServerHandle, f64), String> {
    let begin = Instant::now();
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: dir,
        executors: w.connections,
        profile_spans: spans,
        ..ServerConfig::default()
    })?;
    let mut client = Client::connect(&handle.addr().to_string())?;
    client.send_line("{\"type\":\"ping\"}")?;
    match client.read_line()? {
        Some(line) if line.contains("pong") => Ok((handle, secs(begin))),
        other => Err(format!("unexpected ping answer {other:?}")),
    }
}

/// What a closed-loop session served. Each job is checked against its
/// grid's reference as soon as it finishes; no served line is kept.
#[derive(Debug, Default)]
struct Tally {
    /// Jobs submitted.
    jobs: u64,
    /// Jobs that errored or were refused.
    errored: u64,
    /// Jobs whose point lines all equal the reference.
    matched: u64,
    /// Set when the session itself broke (no grid to submit, a client
    /// thread panicked).
    broken: bool,
    /// Points of the submitted jobs.
    attempted: u64,
    /// Points that differ from the reference, ran into the cycle cap, or
    /// belong to an errored job.
    failed: u64,
    /// Point lines received.
    served: u64,
    /// Simulated cycles of the matched jobs' non-failed simulations.
    sim_cycles: u64,
    /// Simulated instructions of the matched jobs' non-failed simulations.
    sim_instr: u64,
    /// Time from the previous event (submit or previous point) to each
    /// point's arrival, in ms.
    gaps_ms: Vec<f64>,
    /// Time from submit to each job's first point, in ms.
    first_ms: Vec<f64>,
    /// The first few job errors.
    errors: Vec<String>,
}

impl Tally {
    fn error(&mut self, e: String) {
        self.errored += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// Count one finished (or failed) job against its grid's reference.
    fn job(&mut self, job_id: &str, reference: &Reference, outcome: Result<JobOutcome, String>) {
        let per_job = reference.lines.len() as u64;
        self.jobs += 1;
        self.attempted += per_job;
        let o = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.failed += per_job;
                self.error(e);
                return;
            }
        };
        let mut prev = 0.0;
        for &t in &o.point_latencies {
            self.gaps_ms.push((t - prev) * 1e3);
            prev = t;
        }
        self.first_ms
            .extend(o.point_latencies.first().map(|&t| t * 1e3));
        self.served += o.point_lines.len() as u64;
        let got = normalized(job_id, &o.point_lines);
        let differs: Vec<bool> = reference
            .lines
            .iter()
            .enumerate()
            .map(|(i, line)| got.get(&i) != Some(line))
            .collect();
        self.failed += differs
            .iter()
            .zip(&reference.truncated)
            .filter(|(&d, &t)| d || t)
            .count() as u64;
        if got.len() == reference.lines.len() && !differs.contains(&true) {
            self.matched += 1;
            self.sim_cycles += reference.sim_cycles;
            self.sim_instr += reference.sim_instr;
        }
    }

    fn merge(&mut self, other: Tally) {
        self.jobs += other.jobs;
        self.errored += other.errored;
        self.matched += other.matched;
        self.broken |= other.broken;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.served += other.served;
        self.sim_cycles += other.sim_cycles;
        self.sim_instr += other.sim_instr;
        self.gaps_ms.extend(other.gaps_ms);
        self.first_ms.extend(other.first_ms);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Whether every job that did not error served exactly its reference.
    fn all_matched(&self) -> bool {
        !self.broken && self.matched + self.errored == self.jobs
    }
}

/// Drive a closed loop on every connection until `deadline` seconds passed
/// or each connection finished `jobs` jobs. Job `n` of connection `conn`
/// submits grid `(n + conn) % grids`.
fn session(
    w: &ServeWorkload,
    references: &[Reference],
    handle: &ServerHandle,
    deadline: f64,
    jobs: usize,
    tag: &str,
) -> (Tally, f64) {
    let addr = handle.addr().to_string();
    let begin = Instant::now();
    let tally = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..w.connections)
            .map(|conn| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut client = Client::connect(&addr);
                    for n in 0..jobs {
                        if secs(begin) >= deadline {
                            break;
                        }
                        let grid = (n + conn).checked_rem(w.grids.len());
                        let (Some(spec), Some(reference)) = (
                            grid.and_then(|g| w.grids.get(g)),
                            grid.and_then(|g| references.get(g)),
                        ) else {
                            tally.broken = true;
                            break;
                        };
                        let job_id = format!("{tag}-c{conn}-j{n}");
                        let outcome = match client.as_mut() {
                            Ok(c) => c.run_job(&job_id, spec),
                            Err(e) => Err(e.clone()),
                        };
                        if outcome.is_err() {
                            // A failed stream leaves the connection unusable.
                            client = Client::connect(&addr);
                        }
                        tally.job(&job_id, reference, outcome);
                    }
                    tally
                })
            })
            .collect();
        let mut total = Tally::default();
        for worker in workers {
            match worker.join() {
                Ok(tally) => total.merge(tally),
                Err(_) => total.broken = true,
            }
        }
        total
    });
    (tally, secs(begin))
}

/// The grid evaluated in-process, as reference point lines by index, plus
/// the simulated cycles and instructions of its non-failed simulations.
struct Reference {
    lines: Vec<String>,
    /// Whether each point's simulation ran into its cycle cap.
    truncated: Vec<bool>,
    sim_cycles: u64,
    sim_instr: u64,
}

fn reference(grid: &GridSpec) -> Result<Reference, String> {
    let (harness, points) = build_harness(grid);
    let slots = Mutex::new(vec![None; points.len()]);
    let (streamed, _) = harness.evaluate_all_streamed(&points, |i, point, snap| {
        let line = point_line(REFERENCE_ID, i, point, &snap.to_json());
        let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some((line, snap.counter("mem.cycles")));
        }
        true
    });
    let batch = harness.evaluate_all(&points);
    if streamed.into_iter().collect::<Option<Vec<_>>>() != Some(batch) {
        return Err("streamed evaluation differs from evaluate_all".to_string());
    }
    let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    let per_sim_instr = grid.instructions * grid.cores as u64 * grid.mixes as u64;
    let max_cycles = harness.config().max_cycles;
    if grid.mixes != 1 {
        return Err("the truncation check needs one mix per grid point".to_string());
    }
    let mut r = Reference {
        lines: Vec::new(),
        truncated: Vec::new(),
        sim_cycles: 0,
        sim_instr: 0,
    };
    for (line, cycles) in slots.into_iter().flatten() {
        let capped = truncated(cycles, max_cycles);
        if !capped {
            r.sim_cycles += cycles;
            r.sim_instr += per_sim_instr;
        }
        r.truncated.push(capped);
        r.lines.push(line);
    }
    Ok(r)
}

/// Digest of every grid's reference lines.
fn digest(references: &[Reference]) -> Digest {
    let mut digest = Digest::default();
    for line in references.iter().flat_map(|r| &r.lines) {
        digest.line(line);
    }
    digest
}

/// Served lines of one job, with the job id replaced by the reference id.
fn normalized(job_id: &str, lines: &[String]) -> BTreeMap<usize, String> {
    let own = format!("\"job_id\":{}", Json::str(job_id).render());
    let reference = format!("\"job_id\":{}", Json::str(REFERENCE_ID).render());
    lines
        .iter()
        .map(|line| {
            let index = Json::parse(line)
                .ok()
                .and_then(|r| r.get("index").and_then(Json::as_usize))
                .unwrap_or(usize::MAX);
            (index, line.replacen(&own, &reference, 1))
        })
        .collect()
}

fn references(w: &ServeWorkload) -> Result<Vec<Reference>, String> {
    w.grids.iter().map(reference).collect()
}

/// The timed pass: evaluate the references first, then run `ROUNDS` rounds
/// of `seconds / ROUNDS` each. A round starts the server
/// `STARTS_PER_ROUND` times (each start is a set-up sample; the last one
/// serves) and runs the closed loop on it, checking every job as it
/// finishes. Job ids carry the round, so no job resumes another's journal.
pub fn timed(w: &ServeWorkload, seconds: f64) -> Result<Outcome, String> {
    let references = references(w)?;
    let dirs = StateDir::new();
    // Every server of the run shares one state directory, made before the
    // first start: a start then opens an existing directory, as a restarted
    // server does, and the timing leaves out a filesystem `mkdir` whose cost
    // follows the disk journal's state more than the server's.
    let state = dirs.fresh("state");
    std::fs::create_dir_all(&state).map_err(|e| format!("create state dir: {e}"))?;
    let mut t = Timed::default();
    let mut total = Tally::default();
    for round in 0..ROUNDS {
        let mut servers = Vec::new();
        for _ in 0..STARTS_PER_ROUND {
            let (handle, setup_s) = start_and_ping(w, state.clone(), 0)?;
            t.setup_s.push(setup_s);
            servers.push(handle);
        }
        let server = servers.pop().ok_or("no set-up ran")?;
        // Each stop waits out an accept-poll interval; stop the spare
        // servers in parallel so those waits overlap.
        std::thread::scope(|scope| {
            for spare in servers {
                scope.spawn(move || spare.shutdown());
            }
        });
        let round_s = seconds / ROUNDS as f64;
        let (mut tally, wall_s) = session(
            w,
            &references,
            &server,
            round_s,
            usize::MAX,
            &format!("r{round}"),
        );
        server.shutdown();
        t.rounds.push(Round {
            wall_s,
            points: tally.served,
            sim_cycles: tally.sim_cycles,
            sim_instr: tally.sim_instr,
            latencies_ms: std::mem::take(&mut tally.gaps_ms),
        });
        total.merge(tally);
    }

    let mut out = Outcome::default();
    out.check("served_lines_match_in_process", total.all_matched());
    out.attempted = total.attempted;
    out.failed = total.failed;
    out.note("output_digest", Json::Str(digest(&references).hex()));
    out.note("jobs", uint(total.jobs));
    out.note(
        "job_errors",
        Json::Arr(total.errors.iter().map(|e| Json::str(e)).collect()),
    );
    t.metrics(&mut out)?;
    Ok(out)
}

/// `name.sum / name.count` of a histogram in the `metrics` exposition.
fn exposition_mean(lines: &[String], name: &str) -> f64 {
    let value = |suffix: &str| {
        lines.iter().find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(suffix))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
    };
    match (value(".sum "), value(".count ")) {
        (Some(sum), Some(count)) if count > 0.0 => sum / count,
        _ => 0.0,
    }
}

/// The server section of the traced pass: the same number of jobs served
/// dark and with span tracing on, the server's own histograms, and the
/// frame-parse cost.
pub fn traced(w: &ServeWorkload) -> Result<Outcome, String> {
    let references = references(w)?;
    let dirs = StateDir::new();
    let mut out = Outcome::default();

    let (dark, _) = start_and_ping(w, dirs.fresh("dark"), 0)?;
    let (dark_tally, untraced_wall) =
        session(w, &references, &dark, f64::INFINITY, w.traced_jobs, "dark");
    dark.shutdown();

    let (lit, _) = start_and_ping(w, dirs.fresh("traced"), SPAN_CAPACITY)?;
    let (tally, traced_wall) =
        session(w, &references, &lit, f64::INFINITY, w.traced_jobs, "traced");
    let exposition = Client::connect(&lit.addr().to_string())?.fetch_metrics()?;
    lit.shutdown();

    out.check(
        "served_lines_match_in_process",
        dark_tally.all_matched() && tally.all_matched(),
    );
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    let exec_us = exposition_mean(&exposition, "server.point_exec_us");

    let frame = format!(
        "{{\"type\":\"submit\",\"job_id\":\"parse\",\"grid\":{}}}",
        w.grids.first().ok_or("no grid")?.to_json().render()
    );
    const PARSES: u32 = 2_000;
    let begin = Instant::now();
    for _ in 0..PARSES {
        let request = Json::parse(&frame)?;
        let grid = GridSpec::from_json(request.get("grid").ok_or("submit frame without grid")?)?;
        std::hint::black_box(grid);
    }
    let parse_us = secs(begin) * 1e6 / f64::from(PARSES);

    out.metrics.extend([
        Metric::new("server.first_point_ms_p50", median(&tally.first_ms), "ms"),
        Metric::new("server.point_exec_us_mean", exec_us, "us"),
        Metric::new(
            "server.journal_fsync_us_mean",
            exposition_mean(&exposition, "server.journal_fsync_us"),
            "us",
        ),
        Metric::new(
            "server.queue_wait_us_mean",
            exposition_mean(&exposition, "server.queue_wait_us"),
            "us",
        ),
        Metric::new("server.parse_us", parse_us, "us"),
        Metric::new(
            "server.exec_share",
            exec_us * tally.served as f64 / (traced_wall * 1e6 * w.connections as f64),
            "ratio",
        ),
    ]);
    out.note("traced_wall_s", num(traced_wall));
    out.note("untraced_wall_s", num(untraced_wall));
    out.note("output_digest", Json::Str(digest(&references).hex()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(job_id: &str, index: usize, value: u32) -> String {
        format!("{{\"type\":\"point\",\"job_id\":\"{job_id}\",\"index\":{index},\"v\":{value}}}")
    }

    #[test]
    fn tally_checks_each_job_against_its_reference() {
        let reference = Reference {
            lines: vec![point(REFERENCE_ID, 0, 1), point(REFERENCE_ID, 1, 2)],
            truncated: vec![false, true],
            sim_cycles: 100,
            sim_instr: 10,
        };
        let served = |lines: Vec<String>| {
            Ok(JobOutcome {
                points: lines.len(),
                resumed: 0,
                summary_line: String::new(),
                point_latencies: vec![0.001; lines.len()],
                point_lines: lines,
            })
        };
        let mut t = Tally::default();
        // Arrival order does not matter; the job id is normalized.
        t.job(
            "a",
            &reference,
            served(vec![point("a", 1, 2), point("a", 0, 1)]),
        );
        assert!(t.all_matched());
        assert_eq!(
            (t.attempted, t.failed, t.sim_cycles, t.served),
            (2, 1, 100, 2)
        );
        t.job(
            "b",
            &reference,
            served(vec![point("b", 0, 1), point("b", 1, 3)]),
        );
        assert!(!t.all_matched());
        assert_eq!((t.failed, t.sim_cycles), (2, 100));

        let mut errored = Tally::default();
        errored.job("c", &reference, Err("refused".to_string()));
        assert!(errored.all_matched());
        assert_eq!((errored.failed, errored.errors.len()), (2, 1));
    }

    #[test]
    fn exposition_mean_reads_sum_over_count() {
        let lines: Vec<String> = [
            "server.point_exec_us.count 4",
            "server.point_exec_us.sum 10",
            "server.point_exec_us.bucket.3 4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(exposition_mean(&lines, "server.point_exec_us"), 2.5);
        assert_eq!(exposition_mean(&lines, "server.queue_wait_us"), 0.0);
    }
}

//! A simple core model: 4-wide issue/retire, 128-entry instruction window, in-order
//! retirement past outstanding LLC misses (Table 4).

use svard_memsim::{MemoryRequest, MemorySystem, RequestKind};
use svard_obs::ObsSink;

use crate::cache::{CacheOutcome, LastLevelCache};
use crate::workload::{TraceGenerator, WorkloadSpec};

/// Static core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued/retired per cycle.
    pub width: u32,
    /// Instruction-window (ROB) capacity.
    pub window: u64,
    /// Maximum outstanding LLC misses.
    pub max_outstanding_misses: usize,
}

impl CoreConfig {
    /// The paper's Table 4 core: 4-wide, 128-entry instruction window.
    pub fn table4() -> Self {
        Self {
            width: 4,
            window: 128,
            max_outstanding_misses: 16,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::table4()
    }
}

#[derive(Debug, Clone, Copy)]
struct OutstandingMiss {
    seq: u64,
    request_id: u64,
    done: bool,
}

/// One simulated core executing a synthetic trace against a shared memory system.
#[derive(Debug)]
pub struct SimpleCore {
    /// Core index (used to tag memory requests).
    pub id: usize,
    config: CoreConfig,
    /// Adversarial access patterns model an attacker that bypasses the cache
    /// (e.g. via `clflush`), so every access reaches DRAM.
    bypass_llc: bool,
    trace: TraceGenerator,
    llc: LastLevelCache,
    issued: u64,
    retired: u64,
    instruction_limit: u64,
    non_mem_remaining: u32,
    next_access: Option<(u64, bool)>,
    pending_request: Option<MemoryRequest>,
    pending_is_demand: bool,
    outstanding: Vec<OutstandingMiss>,
    next_request_id: u64,
    cycles: u64,
    finish_cycle: Option<u64>,
    /// The last retire attempt was a no-op and none of its inputs (outstanding
    /// completions, issued, retired) have changed since — the retire scan can be
    /// skipped until a completion arrives or an instruction issues.
    retire_quiet: bool,
}

impl SimpleCore {
    /// Create a core running `spec` for `instruction_limit` instructions.
    pub fn new(
        id: usize,
        spec: &WorkloadSpec,
        config: CoreConfig,
        instruction_limit: u64,
        seed: u64,
    ) -> Self {
        let mut trace = TraceGenerator::new(spec, id, seed);
        let first = trace.next_event();
        let mut core = Self {
            id,
            config,
            bypass_llc: spec.is_adversarial(),
            trace,
            llc: LastLevelCache::table4_per_core(),
            issued: 0,
            retired: 0,
            instruction_limit,
            non_mem_remaining: first.non_mem_instructions,
            next_access: None,
            pending_request: None,
            pending_is_demand: false,
            outstanding: Vec::new(),
            next_request_id: (id as u64) << 48,
            cycles: 0,
            finish_cycle: None,
            retire_quiet: false,
        };
        // Stash the first event's memory access as the next access to perform.
        core.stash_event(first);
        core
    }

    fn stash_event(&mut self, event: crate::workload::TraceEvent) {
        self.non_mem_remaining = event.non_mem_instructions;
        self.next_access = Some((event.address, event.is_write));
    }

    /// True once the core has issued (and retired) its instruction budget.
    pub fn finished(&self) -> bool {
        self.retired >= self.instruction_limit
    }

    /// Instructions retired so far.
    pub fn retired_instructions(&self) -> u64 {
        self.retired
    }

    /// Cycles this core has been ticked.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Retired instructions per cycle, measured at the cycle the core finished (or
    /// now, if it has not finished yet).
    pub fn ipc(&self) -> f64 {
        let cycles = self.finish_cycle.unwrap_or(self.cycles).max(1);
        self.retired as f64 / cycles as f64
    }

    /// The core's LLC (for statistics).
    pub fn llc(&self) -> &LastLevelCache {
        &self.llc
    }

    /// Notify the core that one of its memory requests completed.
    pub fn on_completion(&mut self, request_id: u64) {
        if let Some(m) = self
            .outstanding
            .iter_mut()
            .find(|m| m.request_id == request_id)
        {
            m.done = true;
            self.retire_quiet = false;
        }
    }

    /// Advance the core by one cycle, issuing LLC misses into `memory`.
    ///
    /// Returns whether the tick made any progress: retired or issued an
    /// instruction, enqueued a request, or mutated cache state while trying. A
    /// `false` return means this tick was a pure stall — and the core will keep
    /// stalling until the memory system's state changes, which is what the
    /// system runner's fast-forwarding relies on.
    pub fn tick<S: ObsSink>(&mut self, memory: &mut MemorySystem<S>) -> bool {
        if self.finished() {
            return false;
        }
        self.cycles += 1;
        let mut progressed = false;

        // --- Retire: in order, up to `width`, never past an incomplete miss. -----
        // Skipped while quiescent: a fruitless retire attempt stays fruitless
        // until a completion arrives or an instruction issues.
        if !self.retire_quiet {
            // One pass: drop retired completed misses and find the oldest
            // incomplete.
            let retired_now = self.retired;
            let mut oldest_incomplete: Option<u64> = None;
            self.outstanding.retain(|m| {
                if !m.done {
                    oldest_incomplete = Some(oldest_incomplete.map_or(m.seq, |o| o.min(m.seq)));
                    true
                } else {
                    m.seq > retired_now + 1
                }
            });
            let retire_limit = oldest_incomplete.map_or(self.issued, |seq| seq.saturating_sub(1));
            let retire_to = (self.retired + self.config.width as u64)
                .min(retire_limit)
                .min(self.issued)
                .min(self.instruction_limit);
            if retire_to > self.retired {
                self.retired = retire_to;
                progressed = true;
            } else {
                self.retire_quiet = true;
            }
            if self.finished() && self.finish_cycle.is_none() {
                self.finish_cycle = Some(self.cycles);
                return true;
            }
        }

        // --- Issue: up to `width` instructions, window and MSHR permitting. ------
        let mut slots = self.config.width as u64;
        while slots > 0 {
            if self.issued >= self.instruction_limit {
                break;
            }
            if self.issued - self.retired >= self.config.window {
                break; // instruction window full
            }
            // Retry a request the memory controller previously rejected.
            if let Some(req) = self.pending_request.take() {
                let req_id = req.id;
                match memory.enqueue(req) {
                    Ok(()) => {
                        if self.pending_is_demand {
                            self.outstanding.push(OutstandingMiss {
                                seq: self.issued + 1,
                                request_id: req_id,
                                done: false,
                            });
                        }
                        self.issued += 1;
                        slots -= 1;
                        progressed = true;
                        self.advance_trace();
                    }
                    Err(req) => {
                        self.pending_request = Some(req);
                        break;
                    }
                }
                continue;
            }
            if self.non_mem_remaining > 0 {
                // Issue the whole run of non-memory instructions that fits in the
                // remaining slots, window and budget in one step (equivalent to,
                // but cheaper than, one loop iteration per instruction).
                let n = u64::from(self.non_mem_remaining)
                    .min(slots)
                    .min(self.instruction_limit - self.issued)
                    .min(self.config.window - (self.issued - self.retired));
                self.non_mem_remaining -= n as u32;
                self.issued += n;
                slots -= n;
                progressed = true;
                continue;
            }
            // The next instruction is the stashed memory access.
            let Some((address, is_write)) = self.next_access else {
                self.issued += 1;
                slots -= 1;
                progressed = true;
                continue;
            };
            // A miss needs a free MSHR. Check before touching the LLC: the
            // access installs the line on a miss, so a blocked access that
            // went ahead would hit on its retry and never reach memory.
            if !self.mshr_available() && (self.bypass_llc || !self.llc.contains(address)) {
                break; // MSHRs full; retry next cycle
            }
            // From here the tick always mutates state (LLC recency, request
            // ids, writeback enqueue, pending-request bookkeeping).
            progressed = true;
            let outcome = if self.bypass_llc {
                CacheOutcome::Miss { writeback: None }
            } else {
                self.llc.access(address, is_write)
            };
            match outcome {
                CacheOutcome::Hit => {
                    self.issued += 1;
                    slots -= 1;
                    self.advance_trace();
                }
                CacheOutcome::Miss { writeback } => {
                    // Issue the writeback first (not tracked for retirement).
                    if let Some(wb_addr) = writeback {
                        let wb = MemoryRequest::new(
                            self.alloc_request_id(),
                            RequestKind::Write,
                            wb_addr,
                            self.id,
                        );
                        if memory.enqueue(wb).is_err() {
                            // Drop the writeback on queue pressure; it does not gate
                            // core progress and the line is modelled as rewritten.
                        }
                    }
                    let id = self.alloc_request_id();
                    let kind = if is_write {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    // Stores retire without waiting for DRAM; only loads block
                    // retirement.
                    let demand = !is_write;
                    let req = MemoryRequest::new(id, kind, address, self.id);
                    match memory.enqueue(req) {
                        Ok(()) => {
                            if demand {
                                self.outstanding.push(OutstandingMiss {
                                    seq: self.issued + 1,
                                    request_id: id,
                                    done: false,
                                });
                            }
                            self.issued += 1;
                            slots -= 1;
                            self.advance_trace();
                        }
                        Err(req) => {
                            self.pending_request = Some(req);
                            self.pending_is_demand = demand;
                            break;
                        }
                    }
                }
            }
        }
        if progressed {
            // Issuing (or enqueueing) changes the retire inputs.
            self.retire_quiet = false;
        }
        progressed
    }

    /// Whether a [`tick`](Self::tick) against the current memory-system state
    /// would make any observable progress (retire or issue at least one
    /// instruction, or mutate cache/memory state while trying).
    ///
    /// When this returns `false` the core is *stalled*: its next tick would only
    /// increment the cycle counter, and that stays true until the memory system
    /// reaches its next event (a completion, a scheduling opportunity that frees a
    /// queue slot, or a refresh). This is what lets the system runner fast-forward
    /// whole stall windows; the blocked conditions below mirror the early exits of
    /// `tick` exactly.
    pub fn can_make_progress<S: ObsSink>(&self, memory: &MemorySystem<S>) -> bool {
        if self.finished() {
            return false;
        }
        // Cheap path first: can the first issue slot do anything? (Mirrors the
        // issue loop's break conditions.)
        if self.issued < self.instruction_limit && self.issued - self.retired < self.config.window {
            match &self.pending_request {
                Some(req) => {
                    // A previously rejected request is retried first; it makes
                    // progress iff the corresponding queue has room.
                    let accepted = match req.kind {
                        RequestKind::Read => memory.can_accept_read(),
                        RequestKind::Write => memory.can_accept_write(),
                    };
                    if accepted {
                        return true;
                    }
                }
                None => match self.next_access {
                    None => return true,
                    Some(_) if self.non_mem_remaining > 0 || self.mshr_available() => return true,
                    // MSHRs full: only an LLC hit can issue. A blocked miss
                    // leaves the LLC untouched (see `tick`), so it stays
                    // blocked until a completion frees an MSHR.
                    Some((address, _)) => {
                        if !self.bypass_llc && self.llc.contains(address) {
                            return true;
                        }
                    }
                },
            }
        }
        // Issue is blocked; can anything retire this cycle? (Mirrors the retire
        // section of `tick`.)
        let oldest_incomplete = self
            .outstanding
            .iter()
            .filter(|m| !m.done)
            .map(|m| m.seq)
            .min();
        let retire_limit = oldest_incomplete.map_or(self.issued, |seq| seq.saturating_sub(1));
        let retire_to = (self.retired + self.config.width as u64)
            .min(retire_limit)
            .min(self.issued)
            .min(self.instruction_limit);
        retire_to > self.retired
    }

    /// The next cycle (strictly after `now`) at which this core will do work, or
    /// `None` if it is finished or stalled until the memory system's next event.
    pub fn next_ready_cycle<S: ObsSink>(&self, now: u64, memory: &MemorySystem<S>) -> Option<u64> {
        if self.can_make_progress(memory) {
            Some(now + 1)
        } else {
            None
        }
    }

    /// Account for `n` skipped stall cycles (during which
    /// [`can_make_progress`](Self::can_make_progress) was `false`), keeping the
    /// cycle counter — and therefore IPC — identical to ticking through the stall.
    pub fn skip_stalled_cycles(&mut self, n: u64) {
        if !self.finished() {
            self.cycles += n;
        }
    }

    /// Whether fewer than `max_outstanding_misses` demand misses are in flight.
    fn mshr_available(&self) -> bool {
        self.outstanding.iter().filter(|m| !m.done).count() < self.config.max_outstanding_misses
    }

    fn alloc_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    fn advance_trace(&mut self) {
        let event = self.trace.next_event();
        self.non_mem_remaining = event.non_mem_instructions;
        self.next_access = Some((event.address, event.is_write));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svard_memsim::MemoryConfig;

    fn run_core(spec: &WorkloadSpec, instructions: u64) -> (f64, u64) {
        let mut memory = MemorySystem::new(MemoryConfig::small(4096));
        let mut core = SimpleCore::new(0, spec, CoreConfig::table4(), instructions, 7);
        let mut cycles = 0u64;
        while !core.finished() && cycles < 5_000_000 {
            core.tick(&mut memory);
            for done in memory.tick() {
                core.on_completion(done.id);
            }
            cycles += 1;
        }
        assert!(core.finished(), "core did not finish in time");
        (core.ipc(), memory.stats().requests_completed())
    }

    #[test]
    fn compute_bound_workload_reaches_near_peak_ipc() {
        // A workload with tiny working set: everything hits in the LLC after warmup.
        let spec = WorkloadSpec {
            name: "tiny",
            class: crate::workload::WorkloadClass::MediaBench,
            mem_per_kilo_instr: 20,
            working_set_bytes: 64 << 10,
            sequential_fraction: 0.9,
            read_fraction: 0.7,
            zipf_exponent: 0.0,
        };
        let (ipc, _) = run_core(&spec, 50_000);
        assert!(ipc > 3.0, "ipc = {ipc}");
    }

    #[test]
    fn memory_bound_workload_is_limited_by_dram() {
        let spec = WorkloadSpec {
            name: "thrash",
            class: crate::workload::WorkloadClass::Ycsb,
            mem_per_kilo_instr: 100,
            working_set_bytes: 256 << 20,
            sequential_fraction: 0.05,
            read_fraction: 0.9,
            zipf_exponent: 0.0,
        };
        let (ipc, requests) = run_core(&spec, 50_000);
        assert!(ipc < 2.0, "ipc = {ipc}");
        assert!(requests > 1000, "requests = {requests}");
    }

    #[test]
    fn misses_blocked_on_full_mshrs_still_reach_memory() {
        // Read-only, so no dirty victims: every LLC miss is exactly one read.
        let spec = WorkloadSpec {
            name: "thrash",
            class: crate::workload::WorkloadClass::Ycsb,
            mem_per_kilo_instr: 200,
            working_set_bytes: 256 << 20,
            sequential_fraction: 0.05,
            read_fraction: 1.0,
            zipf_exponent: 0.0,
        };
        let config = CoreConfig {
            max_outstanding_misses: 1,
            ..CoreConfig::table4()
        };
        let mut memory = MemorySystem::new(MemoryConfig::small(4096));
        let mut core = SimpleCore::new(0, &spec, config, 20_000, 7);
        let mut cycles = 0u64;
        while !core.finished() && cycles < 5_000_000 {
            core.tick(&mut memory);
            for done in memory.tick() {
                core.on_completion(done.id);
            }
            cycles += 1;
        }
        assert!(core.finished(), "core did not finish in time");
        memory.run_until_idle(1_000_000);
        assert!(core.llc().misses() > 100);
        assert_eq!(memory.stats().requests_completed(), core.llc().misses());
    }

    #[test]
    fn ipc_is_deterministic() {
        let spec = &WorkloadSpec::catalogue()[0];
        let (a, _) = run_core(spec, 20_000);
        let (b, _) = run_core(spec, 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn finished_core_stops_counting_cycles() {
        let spec = &WorkloadSpec::catalogue()[8];
        let mut memory = MemorySystem::new(MemoryConfig::small(1024));
        let mut core = SimpleCore::new(0, spec, CoreConfig::table4(), 5_000, 3);
        for _ in 0..2_000_000 {
            if core.finished() {
                break;
            }
            core.tick(&mut memory);
            for done in memory.tick() {
                core.on_completion(done.id);
            }
        }
        assert!(core.finished());
        let ipc_at_finish = core.ipc();
        // Extra ticks after finishing must not change the IPC.
        for _ in 0..100 {
            core.tick(&mut memory);
        }
        assert_eq!(core.ipc(), ipc_at_finish);
        assert_eq!(core.retired_instructions(), 5_000);
    }
}

//! The defense-facing call stream of a no-defense baseline run, logged
//! compactly so a sweep can replay it into a defense instead of simulating.
//!
//! A defense sees the controller only through [`MitigationHook`]:
//! `on_activation(bank, row, cycle)` and `on_refresh_tick(cycle)` in, and
//! preventive actions out. While it requests no action the controller runs
//! exactly as it does with no defense, so it receives exactly the calls the
//! baseline run made. [`ActivationLog::replay_is_quiet`] feeds a defense those
//! calls and reports whether it stayed quiet throughout; see the runner's
//! "Quiet-defense replay" notes for how the harness uses the answer.

use std::cell::RefCell;
use std::rc::Rc;

use svard_memsim::{BankId, MitigationHook, PreventiveAction};

/// `Call::bank` value marking a refresh tick rather than an activation.
const REFRESH_TICK: u16 = u16::MAX;

/// One logged hook call: 12 bytes. `bank` indexes the log's bank table, or is
/// [`REFRESH_TICK`] (then `row` is unused).
#[derive(Debug, Clone, Copy)]
struct Call {
    cycle: u32,
    row: u32,
    bank: u16,
}

const _: () = assert!(std::mem::size_of::<Call>() == 12);

/// Every hook call of one baseline run, in call order.
#[derive(Debug)]
pub(crate) struct ActivationLog {
    banks: Box<[BankId]>,
    calls: Box<[Call]>,
}

impl ActivationLog {
    /// Feed every logged call to `hook`, in order. Returns `false` at the
    /// first activation for which `hook` requests a preventive action (the
    /// hook's state is then partial and must be discarded), `true` if it
    /// requested none.
    pub(crate) fn replay_is_quiet(&self, hook: &mut dyn MitigationHook) -> bool {
        let mut actions: Vec<PreventiveAction> = Vec::new();
        for call in self.calls.iter() {
            let cycle = u64::from(call.cycle);
            if call.bank == REFRESH_TICK {
                hook.on_refresh_tick(cycle);
                continue;
            }
            let Some(&bank) = self.banks.get(usize::from(call.bank)) else {
                return false;
            };
            hook.on_activation(bank, call.row as usize, cycle, &mut actions);
            if !actions.is_empty() {
                return false;
            }
        }
        true
    }
}

/// The log under construction, shared between a [`LogRecorder`] (owned by
/// the memory system) and the caller that collects it after the run.
#[derive(Debug, Default)]
struct Building {
    banks: Vec<BankId>,
    calls: Vec<Call>,
    /// A cycle, row or bank-table index did not fit its field: no log.
    overflowed: bool,
}

impl Building {
    fn push(&mut self, bank: u16, row: usize, cycle: u64) {
        match (u32::try_from(cycle), u32::try_from(row)) {
            (Ok(cycle), Ok(row)) if !self.overflowed => self.calls.push(Call { cycle, row, bank }),
            _ => self.overflow(),
        }
    }

    fn overflow(&mut self) {
        self.overflowed = true;
        self.calls = Vec::new();
    }
}

/// The no-defense baseline ([`svard_memsim::NoMitigation`]) that also logs
/// every call it receives.
#[derive(Debug)]
pub(crate) struct LogRecorder(Rc<RefCell<Building>>);

/// Handle to a [`LogRecorder`]'s log, for collecting it after the run.
#[derive(Debug)]
pub(crate) struct LogHandle(Rc<RefCell<Building>>);

impl LogRecorder {
    /// A recorder and the handle its log is collected through.
    pub(crate) fn new() -> (LogRecorder, LogHandle) {
        let shared = Rc::new(RefCell::new(Building::default()));
        (LogRecorder(Rc::clone(&shared)), LogHandle(shared))
    }
}

impl LogHandle {
    /// The recorded log, stored at exact size; `None` if any call overflowed
    /// the compact encoding.
    pub(crate) fn finish(self) -> Option<ActivationLog> {
        let built = self.0.take();
        (!built.overflowed).then(|| ActivationLog {
            banks: built.banks.into_boxed_slice(),
            calls: built.calls.into_boxed_slice(),
        })
    }
}

impl MitigationHook for LogRecorder {
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        cycle: u64,
        _out: &mut Vec<PreventiveAction>,
    ) {
        let mut log = self.0.borrow_mut();
        let index = match log.banks.iter().position(|&b| b == bank) {
            Some(index) => index,
            None => {
                log.banks.push(bank);
                log.banks.len() - 1
            }
        };
        match u16::try_from(index) {
            Ok(index) if index != REFRESH_TICK => log.push(index, row, cycle),
            _ => log.overflow(),
        }
    }

    fn on_refresh_tick(&mut self, cycle: u64) {
        self.0.borrow_mut().push(REFRESH_TICK, 0, cycle);
    }

    fn name(&self) -> &str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts calls and requests a refresh on activation number `fire_at`.
    struct Counting {
        activations: usize,
        ticks: Vec<u64>,
        fire_at: Option<usize>,
    }

    impl MitigationHook for Counting {
        fn on_activation(
            &mut self,
            bank: BankId,
            row: usize,
            _cycle: u64,
            out: &mut Vec<PreventiveAction>,
        ) {
            self.activations += 1;
            if self.fire_at == Some(self.activations) {
                out.push(PreventiveAction::RefreshRow { bank, row });
            }
        }

        fn on_refresh_tick(&mut self, cycle: u64) {
            self.ticks.push(cycle);
        }

        fn name(&self) -> &str {
            "counting"
        }
    }

    fn bank(b: usize) -> BankId {
        BankId {
            bank: b,
            ..BankId::default()
        }
    }

    fn recorded(calls: &[(Option<usize>, usize, u64)]) -> Option<ActivationLog> {
        let (mut recorder, handle) = LogRecorder::new();
        for &(b, row, cycle) in calls {
            match b {
                Some(b) => recorder.on_activation(bank(b), row, cycle, &mut Vec::new()),
                None => recorder.on_refresh_tick(cycle),
            }
        }
        drop(recorder);
        handle.finish()
    }

    #[test]
    fn replay_delivers_calls_in_order_and_detects_actions() {
        let calls = [
            (Some(1), 10, 5),
            (None, 0, 7),
            (Some(2), 11, 9),
            (Some(1), 12, 12),
        ];
        let log = recorded(&calls).unwrap();
        assert_eq!(log.banks.len(), 2);
        let mut quiet = Counting {
            activations: 0,
            ticks: Vec::new(),
            fire_at: None,
        };
        assert!(log.replay_is_quiet(&mut quiet));
        assert_eq!((quiet.activations, quiet.ticks), (3, vec![7]));
        let mut loud = Counting {
            activations: 0,
            ticks: Vec::new(),
            fire_at: Some(2),
        };
        assert!(!log.replay_is_quiet(&mut loud));
        assert_eq!(loud.activations, 2, "replay stops at the first action");
    }

    #[test]
    fn values_beyond_32_bits_leave_no_log() {
        assert!(recorded(&[(Some(0), 1, u64::from(u32::MAX))]).is_some());
        assert!(recorded(&[(Some(0), 1, u64::from(u32::MAX) + 1)]).is_none());
        assert!(recorded(&[(None, 0, 1 << 40), (Some(0), 1, 2)]).is_none());
        assert!(recorded(&[(Some(0), 1 << 33, 2)]).is_none());
    }
}

//! Engine selection: the three engines a [`Simulator`] can run a
//! circuit on, and the auto-selection policy. Every run goes through
//! [`Simulator::compile`], which resolves the engine once per circuit
//! and keeps it in the [`crate::CompiledCircuit`]. Dispatch is
//! panic-free: an unsupported circuit yields a structured
//! [`SimError`] instead of a crash.
//!
//! * [`Engine::Statevector`] — the dense trajectory executor: exact
//!   for every gate and for coherent context-dependent noise, but
//!   exponential in qubits (hard cap 24).
//! * [`Engine::Stabilizer`] — CHP tableau + serial Pauli frames:
//!   linear scaling for Clifford circuits, one frame per shot. The
//!   reference implementation for the frame model, and the
//!   bit-identity oracle of the batched engine.
//! * [`Engine::FrameBatch`] — the same frame model propagated 64
//!   shots per machine word with bit-identical seeded counts; the
//!   engine the large-scale workloads run on.
//!
//! ## Selection rules (`Engine::Auto`, the default)
//!
//! The frame engines' circuit class is *Clifford + diagonal
//! rotations + classical feed-forward*: Clifford gates conjugate the
//! frames, arbitrary-angle diagonal rotations (`Rz`, `Rzz`, `T`)
//! fold into the coherent phase banks, conditional Pauli gates are
//! exact feed-forward, and conditional diagonal rotations rewrite
//! into bank terms against their measured source qubit (see
//! [`crate::pauli_frame`]). The rules:
//!
//! 1. A circuit outside that class — a non-diagonal non-Clifford
//!    gate (`Rx(θ)`, `T`-free `U`, `Can`), or a conditional wrapping
//!    a non-Pauli non-diagonal gate → statevector, **if** it fits
//!    the dense cap; otherwise no engine supports the circuit and
//!    dispatch returns [`SimError::NoSupportingEngine`] naming both
//!    the cap and the offending gate.
//! 2. A frame-representable circuit (feed-forward included) on more
//!    than [`AUTO_DENSE_MAX_QUBITS`] qubits → the batched frame
//!    engine (the dense engine would be infeasible; the serial frame
//!    engine would leave a ~64× factor on the table). Dynamic
//!    circuits never trigger a dense fallback at scale.
//! 3. A circuit the dense engine *can* afford → statevector, because
//!    it treats coherent crosstalk (and arbitrary-angle rotations)
//!    exactly where the frame engines apply the twirl approximation.
//!    Force `Engine::FrameBatch`/`Engine::Stabilizer` to study the
//!    twirled model at small sizes.

use crate::error::SimError;
use crate::executor::Simulator;
use crate::pauli_frame::{stabilizer_check, stabilizer_supports};
use ca_circuit::ScheduledCircuit;

/// Hard qubit cap of the dense statevector engine (2ⁿ amplitudes).
pub const DENSE_MAX_QUBITS: usize = 24;

/// Largest qubit count for which `Auto` still prefers the dense
/// engine on Clifford circuits: exactly the dense feasibility cap, so
/// `Auto` only trades exact coherent-noise treatment for the twirl
/// approximation when the dense engine genuinely cannot run.
pub const AUTO_DENSE_MAX_QUBITS: usize = DENSE_MAX_QUBITS;

/// Which engine a [`Simulator`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Pick per circuit: see the module-level selection rules.
    #[default]
    Auto,
    /// Always the dense statevector engine.
    Statevector,
    /// Always the serial stabilizer/Pauli-frame engine (errors on
    /// circuits outside the Clifford + diagonal + feed-forward class).
    Stabilizer,
    /// Always the bit-parallel batched frame engine: 64 shots per
    /// word, bit-identical seeded counts to [`Engine::Stabilizer`]
    /// (errors on circuits outside the Clifford + diagonal +
    /// feed-forward class).
    FrameBatch,
}

/// Validates that every instruction's operand list matches its gate's
/// declared arity. Shared pre-flight for all engines: the simulators'
/// inner loops assume 1- and 2-qubit operand lists and must never see
/// a malformed instruction (constructible in release builds, where
/// the circuit builder's debug assertion is compiled out).
pub fn check_gate_arities(sc: &ScheduledCircuit) -> Result<(), SimError> {
    for si in &sc.items {
        let gate = si.instruction.gate;
        let expected = gate.num_qubits();
        // Barrier is variadic (reports 0); everything else is exact.
        if expected != 0 && si.instruction.qubits.len() != expected {
            return Err(SimError::UnsupportedGateArity {
                gate: gate.name(),
                expected,
                got: si.instruction.qubits.len(),
            });
        }
    }
    Ok(())
}

impl Engine {
    /// The engine's name in logs, reports and errors.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Engine::Auto => "auto",
            Engine::Statevector => "statevector",
            Engine::Stabilizer => "stabilizer",
            Engine::FrameBatch => "frame-batch",
        }
    }
}

impl Simulator {
    /// Resolves the concrete engine for a circuit according to the
    /// simulator's [`Engine`] setting and the module-level selection
    /// rules; never returns [`Engine::Auto`].
    ///
    /// Forced engines always resolve (compiling reports unsupported
    /// circuits); `Auto` detects the no-engine case up front and
    /// returns [`SimError::NoSupportingEngine`] naming both the dense
    /// qubit cap and the Clifford requirement.
    pub(crate) fn resolve_engine(&self, sc: &ScheduledCircuit) -> Result<Engine, SimError> {
        if self.engine != Engine::Auto {
            return Ok(self.engine);
        }
        check_gate_arities(sc)?;
        if stabilizer_supports(sc) && sc.num_qubits > AUTO_DENSE_MAX_QUBITS {
            Ok(Engine::FrameBatch)
        } else if sc.num_qubits <= DENSE_MAX_QUBITS {
            Ok(Engine::Statevector)
        } else {
            let blocking_gate = match stabilizer_check(sc) {
                Err(SimError::NotClifford { gate })
                | Err(SimError::UnsupportedConditional { gate }) => gate,
                Err(SimError::ConditionalClbitOutOfRange { .. }) => "feed-forward",
                _ => "unknown",
            };
            Err(SimError::NoSupportingEngine {
                qubits: sc.num_qubits,
                dense_max: DENSE_MAX_QUBITS,
                blocking_gate,
            })
        }
    }

    /// The name of the engine this circuit resolves to, or the
    /// dispatch error.
    pub fn engine_name_for(&self, sc: &ScheduledCircuit) -> Result<&'static str, SimError> {
        Ok(self.resolve_engine(sc)?.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use ca_circuit::{schedule_asap, Circuit, Gate, GateDurations};
    use ca_device::{uniform_device, Topology};

    fn sched(qc: &Circuit) -> ca_circuit::ScheduledCircuit {
        schedule_asap(qc, GateDurations::default())
    }

    #[test]
    fn auto_prefers_dense_at_small_sizes() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(2), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        assert_eq!(sim.resolve_engine(&sched(&qc)), Ok(Engine::Statevector));
        assert_eq!(sim.engine_name_for(&sched(&qc)).unwrap(), "statevector");
    }

    #[test]
    fn auto_selects_frame_batch_at_scale() {
        let n = 40;
        let sim =
            Simulator::with_config(uniform_device(Topology::line(n), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(n, 0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        assert_eq!(sim.resolve_engine(&sched(&qc)), Ok(Engine::FrameBatch));
        assert_eq!(sim.engine_name_for(&sched(&qc)).unwrap(), "frame-batch");
    }

    #[test]
    fn auto_reports_no_engine_for_wide_non_clifford() {
        // A non-diagonal non-Clifford rotation above the dense cap:
        // no engine can run it, and the error must name both
        // constraints.
        let n = 40;
        let sim =
            Simulator::with_config(uniform_device(Topology::line(n), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(n, 0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.append(Gate::Rx(0.3), [0]);
        let sc = sched(&qc);
        let err = match sim.resolve_engine(&sc) {
            Err(e) => e,
            Ok(engine) => panic!("expected no-engine error, resolved {engine:?}"),
        };
        assert_eq!(
            err,
            SimError::NoSupportingEngine {
                qubits: n,
                dense_max: DENSE_MAX_QUBITS,
                blocking_gate: "rx",
            }
        );
        // The sampling APIs surface the same error instead of failing
        // deep inside the dense executor at run time.
        assert_eq!(sim.run_counts(&sc, 10, 1).unwrap_err(), err);
        let z = ca_circuit::PauliString::identity(n);
        assert_eq!(sim.expect_paulis(&sc, &[z], 10, 1).unwrap_err(), err);
    }

    #[test]
    fn auto_runs_feed_forward_on_frames_at_scale() {
        // Clifford + feed-forward above the dense cap must resolve to
        // the batched frame engine — no dense fallback for dynamic
        // circuits (the Fig. 9 workload class at device scale).
        let n = 40;
        let sim =
            Simulator::with_config(uniform_device(Topology::line(n), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(n, 1);
        qc.h(0).cx(0, 1).h(0).measure(0, 0);
        qc.gate_if(Gate::Z, [1], 0, true);
        qc.gate_if(Gate::Rz(0.3), [1], 0, true);
        assert_eq!(sim.resolve_engine(&sched(&qc)), Ok(Engine::FrameBatch));
        assert_eq!(sim.engine_name_for(&sched(&qc)).unwrap(), "frame-batch");
    }

    #[test]
    fn auto_names_the_gate_behind_an_unsupported_conditional() {
        // A conditional wrapping a non-Clifford, non-diagonal gate
        // above the dense cap: structured error naming the gate on
        // every engine, never a silent dense fallback.
        let n = 40;
        let mut qc = Circuit::new(n, 1);
        qc.measure(0, 0).gate_if(Gate::Rx(0.3), [1], 0, true);
        let sc = sched(&qc);
        let dev = uniform_device(Topology::line(n), 0.0);
        let auto = Simulator::with_config(dev.clone(), NoiseConfig::ideal());
        assert!(auto.resolve_engine(&sc).is_err());
        assert_eq!(
            auto.run_counts(&sc, 10, 1).unwrap_err(),
            SimError::NoSupportingEngine {
                qubits: n,
                dense_max: DENSE_MAX_QUBITS,
                blocking_gate: "rx",
            }
        );
        for engine in [Engine::Stabilizer, Engine::FrameBatch] {
            let sim = Simulator::with_engine(dev.clone(), NoiseConfig::ideal(), engine);
            assert_eq!(
                sim.run_counts(&sc, 10, 1).unwrap_err(),
                SimError::UnsupportedConditional { gate: "rx" },
                "{engine:?}"
            );
        }
        // The dense engine itself is only stopped by its qubit cap.
        let wide = Simulator::with_engine(dev, NoiseConfig::ideal(), Engine::Statevector);
        assert_eq!(
            wide.run_counts(&sc, 10, 1).unwrap_err(),
            SimError::DenseCapExceeded {
                qubits: n,
                max: DENSE_MAX_QUBITS,
            }
        );
    }

    #[test]
    fn forced_engines_are_respected() {
        let dev = uniform_device(Topology::line(2), 0.0);
        let mut sim = Simulator::with_config(dev, NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        for (engine, name) in [
            (Engine::Stabilizer, "stabilizer"),
            (Engine::Statevector, "statevector"),
            (Engine::FrameBatch, "frame-batch"),
        ] {
            sim.engine = engine;
            assert_eq!(sim.resolve_engine(&sched(&qc)), Ok(engine));
            assert_eq!(sim.engine_name_for(&sched(&qc)).unwrap(), name);
        }
    }

    #[test]
    fn all_engines_agree_on_ideal_bell() {
        let dev = uniform_device(Topology::line(2), 0.0);
        let sim = Simulator::with_config(dev, NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let sc = sched(&qc);
        for engine in [Engine::Statevector, Engine::Stabilizer, Engine::FrameBatch] {
            let mut s = sim.clone();
            s.engine = engine;
            let res = s.run_counts(&sc, 1000, 7).unwrap();
            let p00 = res.probability(0b00);
            assert!((p00 + res.probability(0b11) - 1.0).abs() < 1e-12);
            assert!((p00 - 0.5).abs() < 0.08, "{engine:?}: {p00}");
        }
    }

    #[test]
    fn dense_engine_rejects_arity_mismatch() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(3), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(3, 0);
        qc.push(ca_circuit::Instruction {
            gate: Gate::Cz,
            qubits: vec![0, 1, 2],
            clbit: None,
            condition: None,
            merged: false,
        });
        let sc = sched(&qc);
        let err = sim.run_counts(&sc, 5, 3).unwrap_err();
        assert_eq!(
            err,
            SimError::UnsupportedGateArity {
                gate: "cz",
                expected: 2,
                got: 3
            }
        );
    }
}

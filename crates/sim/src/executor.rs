//! Trajectory executor: runs a scheduled circuit shot by shot against
//! the context-aware noise model.
//!
//! Per shot, coherent Z/ZZ phases accumulate in *scalar pending banks*
//! (one per qubit / crosstalk edge) and are flushed lazily —
//! immediately before any non-diagonal unitary on an involved qubit,
//! before projections, and at the end. This is exact for diagonal
//! noise and makes dynamical decoupling work with no special casing:
//! the inserted X pulses conjugate earlier flushed phases precisely as
//! on hardware.
//!
//! Diagonal 1q gates (`Rz`, the compiler's compensations, and `Z`,
//! `S`, `S†`, `T`, `T†` as `Rz` up to a global phase) do not touch the
//! state when they run: each adds its angle to the qubit's *gate-phase
//! bank*, which the next flush takes with the noise bank. A gate-error
//! Pauli landing on a qubit folds that qubit's gate-phase bank into its
//! own pass, so the error sits after every gate phase already run, as
//! if each had been applied in place; the noise banks stay pending
//! across it.
//!
//! **A flush has no pass of its own.** It applies the `Rzz` of the
//! qubit's other edges and *returns* the qubit's pending diagonal: the
//! noise and gate `Rz`, the damping K0 and the dephasing kick. The
//! gate that forced the flush multiplies it into its own matrix; a 2q
//! gate folds in both operands' diagonals and its own edge's pending
//! `Rzz`. A measurement or reset folds it into its collapse pass; the
//! final flush applies it.
//!
//! **The norm is deferred.** Amplitude damping draws first. A draw
//! `r < 1−γ` cannot jump whatever the weights, so it reads nothing and
//! leaves K0 = `diag(1, √(1−γ))` unnormalised in the diagonal. Any
//! other draw reads the qubit's weights once and jumps iff
//! `r·(w_lo+w_hi) ≥ w_lo+(1−γ)·w_hi` and `γ·w_hi > 0`, renormalising on
//! that read. A measurement reads its qubit's weights once, and one
//! pass zeroes the other half and scales the kept one by the pending
//! diagonal and the norm. The trajectory renormalises once, at the end.
//! A running lower bound `Π(1−γ)` on the squared norm forces a read
//! before it would fall below `2⁻⁵⁰⁰`.
//!
//! Two ordering rules keep a read equal to the unfused walk's:
//! - a jump follows the gate edge's `Rzz` (it does not commute with
//!   `|0⟩⟨1|`), so a read applies that pending `Rzz` first;
//! - the partner operand, flushed first, may hold an unnormalised K0
//!   that changes the weights, so a read applies its diagonal first.
//!
//! The draw order is the unfused walk's: per flush one draw for the
//! damping branch, then one for the dephasing kick. Folding moves
//! amplitudes by rounding only (`cis(a)·cis(b)` is not `cis(a+b)` in
//! floating point, and a folded matrix rounds its products once more).

use crate::engine::Engine;
use crate::error::SimError;
use crate::insert::InsertionSet;
use crate::noise::{damping_prob, dephasing_prob, t_phi_us, NoiseConfig, ShotNoise};
use crate::obs_util::{time_engine_phase, PhaseTimer};
use crate::pauli_frame::diagonal_angle_1q;
use crate::plan::{map_shots, seed_schedule_from_env, ExecutionPlan, PlanOp};
use crate::result::RunResult;
use crate::statevector::{rz_diag, Diag, State, IDENTITY_DIAG};
use ca_circuit::c64::C64;
use ca_circuit::matrix::{Mat2, Mat4};
use ca_circuit::pauli::PauliString;
use ca_circuit::{Gate, ScheduledCircuit};
use ca_device::{phase_rad, Device};
use rand::rngs::StdRng;
use rand::RngExt;

/// The simulator: a device, a noise configuration, and an engine
/// selection policy (see [`crate::engine`]).
#[derive(Clone, Debug)]
pub struct Simulator {
    /// Device under simulation.
    pub device: Device,
    /// Enabled noise processes.
    pub config: NoiseConfig,
    /// Backend selection (defaults to [`Engine::Auto`]).
    pub engine: Engine,
}

impl Simulator {
    /// Creates a simulator with the full noise model.
    pub fn new(device: Device) -> Self {
        Self::with_engine(device, NoiseConfig::default(), Engine::Auto)
    }

    /// Creates a simulator with an explicit noise configuration.
    pub fn with_config(device: Device, config: NoiseConfig) -> Self {
        Self::with_engine(device, config, Engine::Auto)
    }

    /// Creates a simulator pinned to a specific engine.
    pub fn with_engine(device: Device, config: NoiseConfig, engine: Engine) -> Self {
        // There is one seed schedule; reading the variable only warns
        // (once) about a stale `CA_SIM_SEED_SCHEDULE` value.
        seed_schedule_from_env();
        Self {
            device,
            config,
            engine,
        }
    }

    /// Runs one trajectory; returns the final state and classical bits.
    ///
    /// Phase attribution: per-shot parameter draws, bank accrual, and
    /// measurement/readout randomness count as *sampling*; statevector
    /// updates (gates, flushed phases, Kraus applications) count as
    /// *propagation* — so the dense rows of the scaling bench report
    /// the same phase columns as the frame engines.
    pub(crate) fn trajectory(&self, plan: &ExecutionPlan, rng: &mut StdRng) -> (State, Vec<bool>) {
        let mut phase = PhaseTimer::start();
        let n = plan.sc.num_qubits;
        let shot = ShotNoise::sample(&self.device, &self.config, rng);
        phase.tick_sampling();
        let mut bits = vec![false; plan.sc.num_clbits.max(1)];
        let mut walk = Walk {
            sim: self,
            plan,
            st: State::zero(n),
            rz: vec![0.0; n],
            gate_rz: vec![0.0; n],
            rzz: vec![0.0; plan.edge_pairs.len()],
            deco_dt: vec![0.0; n],
            norm: NormBound(1.0),
        };

        for op in &plan.ops {
            match *op {
                PlanOp::Segment(i) => {
                    let seg = &plan.segments[i];
                    for &(q, th) in &seg.rz_static {
                        walk.rz[q] += th;
                    }
                    for &(e, th) in &plan.seg_edges[i] {
                        walk.rzz[e] += th;
                    }
                    for q in 0..n {
                        let rate = shot.z_rate_khz(&self.device, q);
                        if rate != 0.0 {
                            walk.rz[q] += phase_rad(rate, seg.signed_dt(q));
                        }
                        walk.deco_dt[q] += seg.dt();
                    }
                    phase.tick_sampling();
                }
                PlanOp::Project { item } => {
                    let si = &plan.sc.items[item];
                    let q = si.instruction.qubits[0];
                    let d = walk.flush(q, None, None, rng);
                    phase.tick_propagation();
                    // The plan emits `Project` for measure and reset only.
                    let reset = si.instruction.gate == Gate::Reset;
                    let outcome = walk.st.measure_diag(q, d, reset, rng);
                    walk.norm = NormBound(1.0);
                    if !reset {
                        let recorded = if self.config.readout_error {
                            let p = self.device.calibration.qubits[q].readout_err;
                            if rng.random::<f64>() < p {
                                !outcome
                            } else {
                                outcome
                            }
                        } else {
                            outcome
                        };
                        if let Some(c) = si.instruction.clbit {
                            bits[c] = recorded;
                        }
                    }
                    phase.tick_sampling();
                }
                PlanOp::Apply { item } => {
                    let si = &plan.sc.items[item];
                    let instr = &si.instruction;
                    if let Some(cond) = instr.condition {
                        if bits[cond.clbit] != cond.value {
                            continue;
                        }
                    }
                    let gate = instr.gate;
                    if !gate.is_unitary() {
                        continue;
                    }
                    match instr.qubits.len() {
                        1 => {
                            let q = instr.qubits[0];
                            if let Some(th) = diagonal_angle_1q(gate) {
                                walk.gate_rz[q] += th;
                            } else {
                                let d = walk.flush(q, None, None, rng);
                                // ca-lint: allow(panic) -- plan stage validated gate arity and unitarity
                                let m = gate.matrix1().expect("1q unitary");
                                walk.st.apply_1q(&fold_1q(m, d), q);
                            }
                            if self.config.gate_error && !gate.is_virtual() && !instr.merged {
                                let p = self.device.calibration.qubits[q].gate_err_1q;
                                if p > 0.0 && rng.random::<f64>() < p {
                                    let k = rng.random_range(0..3usize);
                                    walk.land_pauli(q, [Gate::X, Gate::Y, Gate::Z][k]);
                                }
                            }
                        }
                        2 => {
                            let (a, b) = (instr.qubits[0], instr.qubits[1]);
                            if let Gate::Rzz(th) = gate {
                                walk.st.apply_rzz(th, a, b);
                            } else {
                                // ca-lint: allow(panic) -- plan stage validated gate arity and unitarity
                                let m = gate.matrix2().expect("2q unitary");
                                let m = if gate.is_diagonal() {
                                    m
                                } else {
                                    let edge = plan.edge_index.get(&(a.min(b), a.max(b))).copied();
                                    let mut da = walk.flush(a, edge, None, rng);
                                    let db = walk.flush(b, edge, Some((a, &mut da)), rng);
                                    let zz = edge.map_or(0.0, |e| walk.take_rzz(e));
                                    fold_2q(m, da, db, zz)
                                };
                                walk.st.apply_2q(&m, a, b);
                            }
                            if self.config.gate_error {
                                let scale = plan.sc.durations.two_qubit_error_scale(&gate);
                                let p = self.device.calibration.gate_err_2q(a, b) * scale;
                                if p > 0.0 && rng.random::<f64>() < p {
                                    let k = rng.random_range(1..16usize);
                                    let pa = k % 4;
                                    let pb = k / 4;
                                    let paulis =
                                        [None, Some(Gate::X), Some(Gate::Y), Some(Gate::Z)];
                                    if let Some(g) = paulis[pa] {
                                        walk.land_pauli(a, g);
                                    }
                                    if let Some(g) = paulis[pb] {
                                        walk.land_pauli(b, g);
                                    }
                                }
                            }
                        }
                        // Every public entry point runs
                        // `check_gate_arities` first, so operand
                        // lists here are exactly 1 or 2 long.
                        _ => unreachable!("gate arity validated before execution"), // ca-lint: allow(panic) -- gate arity validated before execution
                    }
                    phase.tick_propagation();
                }
            }
        }
        // Final flush so the returned state carries all trailing noise,
        // then the one renormalisation the deferred norm needs.
        for q in 0..n {
            let d = walk.flush(q, None, None, rng);
            walk.st.apply_diag(d, q);
        }
        let mut st = walk.st;
        if walk.norm != NormBound(1.0) {
            st.renormalize();
        }
        phase.tick_propagation();
        phase.finish();
        (st, bits)
    }

    /// Runs `shots` and gathers classical-bit counts on the engine the
    /// [`Engine`] policy selects for this circuit: a one-shot
    /// [`Self::compile`]. Unsupported circuits yield a [`SimError`],
    /// never a panic.
    pub fn run_counts(
        &self,
        sc: &ScheduledCircuit,
        shots: usize,
        seed: u64,
    ) -> Result<RunResult, SimError> {
        self.compile(sc, seed)?
            .run_counts(shots, &InsertionSet::empty(), None)
    }

    /// Averages the quantum expectation values of the given Pauli
    /// strings over `shots`, compiling like [`Self::run_counts`].
    pub fn expect_paulis(
        &self,
        sc: &ScheduledCircuit,
        paulis: &[PauliString],
        shots: usize,
        seed: u64,
    ) -> Result<Vec<f64>, SimError> {
        self.compile(sc, seed)?
            .expect_paulis(paulis, shots, &InsertionSet::empty(), None)
    }

    /// Convenience: single Pauli expectation.
    pub fn expect_pauli(
        &self,
        sc: &ScheduledCircuit,
        pauli: &PauliString,
        shots: usize,
        seed: u64,
    ) -> Result<f64, SimError> {
        Ok(self.expect_paulis(sc, std::slice::from_ref(pauli), shots, seed)?[0])
    }

    /// Runs `shots` trajectories of a prebuilt plan on the dense
    /// statevector engine — the entry the compiled-artifact layer
    /// uses, so cached plans skip replanning. `workers` caps the shot
    /// threads (see [`crate::plan::worker_count`]); `cancel` is polled
    /// at shot-chunk boundaries.
    pub(crate) fn run_counts_dense_plan(
        &self,
        plan: &ExecutionPlan,
        shots: usize,
        seed: u64,
        workers: Option<usize>,
        cancel: Option<&crate::cancel::CancelToken>,
    ) -> Result<RunResult, SimError> {
        debug_assert!(plan.sc.num_qubits <= crate::engine::DENSE_MAX_QUBITS);
        let nbits = plan.sc.num_clbits;
        let parts = map_shots(
            shots,
            seed,
            workers,
            cancel,
            std::collections::BTreeMap::<u64, usize>::new,
            |rng, counts| {
                let (_, bits) = self.trajectory(plan, rng);
                *counts.entry(pack_bits(&bits, nbits)).or_insert(0) += 1;
            },
        )?;
        Ok(time_engine_phase("reduction", || {
            RunResult::from_parts(shots, nbits, parts)
        }))
    }

    /// Dense-engine Pauli expectations of a prebuilt plan (no
    /// sampling noise beyond the stochastic noise processes
    /// themselves), with the worker cap and cancellation of
    /// [`Self::run_counts_dense_plan`]. The per-chunk sums fold in
    /// chunk order, so the result does not depend on the worker count.
    /// Each trajectory's expectation evaluation counts as *reduction*.
    pub(crate) fn expect_paulis_dense_plan(
        &self,
        plan: &ExecutionPlan,
        paulis: &[PauliString],
        shots: usize,
        seed: u64,
        workers: Option<usize>,
        cancel: Option<&crate::cancel::CancelToken>,
    ) -> Result<Vec<f64>, SimError> {
        debug_assert!(plan.sc.num_qubits <= crate::engine::DENSE_MAX_QUBITS);
        let parts = map_shots(
            shots,
            seed,
            workers,
            cancel,
            || vec![0.0; paulis.len()],
            |rng, acc| {
                let (st, _) = self.trajectory(plan, rng);
                time_engine_phase("reduction", || {
                    for (i, p) in paulis.iter().enumerate() {
                        acc[i] += st.expect_pauli(p);
                    }
                });
            },
        )?;
        Ok(time_engine_phase("reduction", || {
            let mut out = vec![0.0; paulis.len()];
            for part in parts {
                for (o, p) in out.iter_mut().zip(part.iter()) {
                    *o += p;
                }
            }
            for o in &mut out {
                *o /= shots as f64;
            }
            out
        }))
    }

    /// Runs a single dense trajectory (deterministic for a given seed)
    /// and returns the final state and classical bits. Test hook;
    /// always uses the statevector engine (a tableau has no `State`).
    #[cfg(test)]
    pub(crate) fn run_single(&self, sc: &ScheduledCircuit, seed: u64) -> (State, Vec<bool>) {
        let plan = ExecutionPlan::build(sc, &self.device, &self.config)
            .expect("run_single: unplannable circuit");
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        self.trajectory(&plan, &mut rng)
    }
}

/// A lower bound on the state's squared norm: the product of the `1−γ`
/// of every damping step decided without a read since the state was
/// last normalised (exactly 1 when none was).
#[derive(Clone, Copy, Debug, PartialEq)]
struct NormBound(f64);

impl NormBound {
    /// `2⁻⁵⁰⁰`: the lowest bound a skipped read may leave. Amplitudes
    /// stay far above the subnormal range below it.
    const MIN: f64 = f64::from_bits(0x20b0_0000_0000_0000);

    /// Whether a damping step with decay probability `gamma` and draw
    /// `r` may skip its weight read: `r < 1−γ` rules a jump out for any
    /// weights, and the bound, lowered by `1−γ`, stays at or above
    /// [`Self::MIN`]. Otherwise the step reads, which renormalises.
    fn skip_read(&mut self, gamma: f64, r: f64) -> bool {
        let keep = 1.0 - gamma;
        let skip = r < keep && self.0 * keep >= Self::MIN;
        self.0 = if skip { self.0 * keep } else { 1.0 };
        skip
    }
}

/// One trajectory in flight: its state and pending banks.
struct Walk<'a> {
    sim: &'a Simulator,
    plan: &'a ExecutionPlan,
    st: State,
    /// Per qubit: the accrued coherent Z noise angle.
    rz: Vec<f64>,
    /// Per qubit: the summed angles of the diagonal 1q gates run
    /// since the last flush (or the last gate-error Pauli on it).
    gate_rz: Vec<f64>,
    /// Per crosstalk edge: the accrued ZZ angle.
    rzz: Vec<f64>,
    /// Per qubit: the idle time its decoherence has not yet been
    /// applied for.
    deco_dt: Vec<f64>,
    /// Lower bound on the state's squared norm.
    norm: NormBound,
}

impl Walk<'_> {
    /// Flushes qubit `q`'s banks and returns its pending diagonal, not
    /// yet applied: the noise and gate `Rz`, the damping K0 (without
    /// its norm unless a read decided it) and the dephasing kick. The
    /// `Rzz` of every incident edge but `gate_edge` is applied here.
    ///
    /// Damping draws `r` first. When `r < 1−γ` no weights can make it
    /// jump, so nothing is read, unless skipping the read would take
    /// [`Self::norm`] below [`NormBound::MIN`]. A read sees the
    /// state the unfused walk would: `partner`'s pending diagonal (the
    /// other operand of the same gate, flushed first) is applied before
    /// it, and so is `gate_edge`'s `Rzz`, which a jump must follow.
    fn flush(
        &mut self,
        q: usize,
        gate_edge: Option<usize>,
        partner: Option<(usize, &mut Diag)>,
        rng: &mut StdRng,
    ) -> Diag {
        let rz = std::mem::take(&mut self.rz[q]) + std::mem::take(&mut self.gate_rz[q]);
        let mut d = if rz.abs() > 1e-15 {
            rz_diag(rz)
        } else {
            IDENTITY_DIAG
        };
        let plan = self.plan;
        for &e in &plan.incident[q] {
            if Some(e) != gate_edge {
                self.flush_edge(e);
            }
        }
        let dt = std::mem::take(&mut self.deco_dt[q]);
        if !(self.sim.config.decoherence && dt > 0.0) {
            return d;
        }
        let cal = &self.sim.device.calibration.qubits[q];
        let gamma = damping_prob(dt, cal.t1_us);
        if gamma > 0.0 {
            let r: f64 = rng.random();
            if self.norm.skip_read(gamma, r) {
                d[1] = d[1].scale((1.0 - gamma).sqrt());
            } else {
                if let Some((p, dp)) = partner {
                    self.st.apply_diag(std::mem::replace(dp, IDENTITY_DIAG), p);
                }
                if let Some(e) = gate_edge {
                    self.flush_edge(e);
                }
                d = self
                    .st
                    .damping_step(gamma, r, d, q)
                    .unwrap_or(IDENTITY_DIAG);
            }
        }
        let p_z = dephasing_prob(dt, t_phi_us(cal.t1_us, cal.t2_us));
        if p_z > 0.0 && rng.random::<f64>() < p_z {
            d = [d[0] * C64::new(0.0, -1.0), d[1] * C64::new(0.0, 1.0)];
        }
        d
    }

    /// Takes edge `e`'s pending ZZ angle, or 0 when it is below the
    /// flush threshold (which then stays pending).
    fn take_rzz(&mut self, e: usize) -> f64 {
        if self.rzz[e].abs() > 1e-15 {
            std::mem::take(&mut self.rzz[e])
        } else {
            0.0
        }
    }

    /// Applies edge `e`'s pending ZZ angle, if above the threshold.
    fn flush_edge(&mut self, e: usize) {
        let th = self.take_rzz(e);
        if th != 0.0 {
            let (a, b) = self.plan.edge_pairs[e];
            self.st.apply_rzz(th, a, b);
        }
    }

    /// Lands a gate-error Pauli on `q` after every gate phase already
    /// accrued there, as if each diagonal gate had been applied when it
    /// ran: the qubit's gate-phase bank is folded into the Pauli's
    /// pass. The noise banks stay pending across it.
    fn land_pauli(&mut self, q: usize, pauli: Gate) {
        let th = std::mem::take(&mut self.gate_rz[q]);
        if let Some(m) = pauli.matrix1() {
            let d = if th != 0.0 {
                rz_diag(th)
            } else {
                IDENTITY_DIAG
            };
            self.st.apply_1q(&fold_1q(m, d), q);
        }
    }
}

/// `m·diag(d)`: a 1q gate with its qubit's pending diagonal folded in
/// (exactly `m` when `d` is the identity).
fn fold_1q(mut m: Mat2, d: Diag) -> Mat2 {
    if d != IDENTITY_DIAG {
        for row in &mut m.0 {
            for (e, &dc) in row.iter_mut().zip(&d) {
                *e *= dc;
            }
        }
    }
    m
}

/// `m·(diag(d_b) ⊗ diag(d_a))·Rzz(zz)`: a 2q gate on `(a, b)` with
/// both qubits' pending diagonals and its own edge's pending ZZ folded
/// in (exactly `m` when all three are identities). Column `k` of the
/// matrix is basis state `a + 2b`.
fn fold_2q(mut m: Mat4, da: Diag, db: Diag, zz: f64) -> Mat4 {
    if da == IDENTITY_DIAG && db == IDENTITY_DIAG && zz == 0.0 {
        return m;
    }
    let (even, odd) = (C64::cis(-zz / 2.0), C64::cis(zz / 2.0));
    let cols = [
        da[0] * db[0] * even,
        da[1] * db[0] * odd,
        da[0] * db[1] * odd,
        da[1] * db[1] * even,
    ];
    for row in &mut m.0 {
        for (e, &dc) in row.iter_mut().zip(&cols) {
            *e *= dc;
        }
    }
    m
}

/// Packs classical bits little-endian into a u64 key.
pub fn pack_bits(bits: &[bool], nbits: usize) -> u64 {
    let mut k = 0u64;
    for (i, &b) in bits.iter().take(nbits.min(64)).enumerate() {
        if b {
            k |= 1 << i;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_circuit::{schedule_asap, Circuit, GateDurations, PauliString};
    use ca_device::{uniform_device, Topology};

    fn ideal_sim(n: usize) -> Simulator {
        Simulator::with_config(uniform_device(Topology::line(n), 0.0), NoiseConfig::ideal())
    }

    fn sched(qc: &Circuit) -> ScheduledCircuit {
        schedule_asap(qc, GateDurations::default())
    }

    #[test]
    fn ideal_bell_counts() {
        let sim = ideal_sim(2);
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 400, 7).unwrap();
        assert_eq!(res.shots, 400);
        let p00 = res.probability(0b00);
        let p11 = res.probability(0b11);
        assert!((p00 + p11 - 1.0).abs() < 1e-12, "only correlated outcomes");
        assert!((p00 - 0.5).abs() < 0.1);
    }

    #[test]
    fn expectation_mode_is_noiseless_for_ideal() {
        let sim = ideal_sim(1);
        let mut qc = Circuit::new(1, 0);
        qc.h(0);
        let x = sim
            .expect_pauli(&sched(&qc), &PauliString::parse("X").unwrap(), 10, 3)
            .unwrap();
        assert!((x - 1.0).abs() < 1e-10);
    }

    #[test]
    fn conditional_gate_fires_on_one() {
        let sim = ideal_sim(2);
        let mut qc = Circuit::new(2, 2);
        // Prepare |1⟩, measure → bit 0 = 1 → X on qubit 1 → measure 1.
        qc.x(0)
            .measure(0, 0)
            .gate_if(Gate::X, [1], 0, true)
            .measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 50, 5).unwrap();
        assert!((res.probability(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_gate_skipped_on_zero() {
        let sim = ideal_sim(2);
        let mut qc = Circuit::new(2, 2);
        qc.measure(0, 0)
            .gate_if(Gate::X, [1], 0, true)
            .measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 50, 5).unwrap();
        assert!((res.probability(0b00) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zz_crosstalk_dephases_idle_plus_state() {
        // Two idle coupled qubits in |++⟩ accrue U11; Ramsey contrast
        // on qubit 0 oscillates with θ = 2πν·τ.
        let dev = uniform_device(Topology::line(2), 100.0);
        let sim = Simulator::with_config(dev, NoiseConfig::coherent_only());
        let mut qc = Circuit::new(2, 0);
        qc.h(0).h(1);
        qc.barrier(Vec::<usize>::new());
        qc.delay(2500.0, 0).delay(2500.0, 1);
        let x = sim
            .expect_pauli(&sched(&qc), &PauliString::parse("XI").unwrap(), 1, 2)
            .unwrap();
        // θ = 2π·100kHz·2.5µs = π/2·... = 1.5708 rad; with the Rz(−θ)
        // local terms, ⟨X⟩ = cos(θ)·cos(θ)... measured against exact:
        let theta = ca_device::phase_rad(100.0, 2500.0);
        // Exact: state (|0⟩+|1⟩)/√2 ⊗ same under U11:
        // ⟨X₀⟩ = cos(θ)·cos(θ_z + ...). Compute numerically instead:
        use crate::statevector::State;
        let mut st = State::zero(2);
        let h = ca_circuit::Gate::H.matrix1().unwrap();
        st.apply_1q(&h, 0);
        st.apply_1q(&h, 1);
        st.apply_rzz(theta, 0, 1);
        st.apply_rz(-theta, 0);
        st.apply_rz(-theta, 1);
        let expect = st.expect_pauli(&PauliString::parse("XI").unwrap());
        assert!((x - expect).abs() < 1e-9, "sim {x} vs exact {expect}");
    }

    #[test]
    fn x2_echo_cancels_single_qubit_z_noise() {
        // Quasi-static detuning alone; an X at the middle of the idle
        // refocuses it exactly.
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].quasistatic_khz = 50.0;
        let cfg = NoiseConfig {
            quasistatic: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        // Without echo: big dephasing.
        let mut bare = Circuit::new(1, 0);
        bare.h(0).delay(4000.0, 0).h(0);
        let z_bare = sim
            .expect_pauli(&sched(&bare), &PauliString::parse("Z").unwrap(), 200, 11)
            .unwrap();
        assert!(z_bare < 0.8, "bare Ramsey dephases: {z_bare}");
        // With echo: X in the middle, phases cancel; end with X to undo.
        let mut echo = Circuit::new(1, 0);
        echo.h(0).delay(2000.0, 0).x(0).delay(2000.0, 0).h(0);
        // After refocusing, state is X·|+⟩-path → H·X·|+⟩… measure Z:
        // H X Rz(0) |+⟩ = H X |+⟩ = H|+⟩ = |0⟩ → ⟨Z⟩ = +1.
        let z_echo = sim
            .expect_pauli(&sched(&echo), &PauliString::parse("Z").unwrap(), 200, 11)
            .unwrap();
        assert!(
            (z_echo - 1.0).abs() < 1e-9,
            "echo refocuses exactly: {z_echo}"
        );
    }

    #[test]
    fn staggered_dd_cancels_zz_but_aligned_does_not() {
        let dev = uniform_device(Topology::line(2), 80.0);
        let sim = Simulator::with_config(dev, NoiseConfig::coherent_only());
        // Zero-width pulses make the DD cancellation algebraically
        // exact; realistic pulse widths are exercised elsewhere.
        let durations = GateDurations {
            one_qubit: 0.0,
            ..GateDurations::default()
        };
        let sched = |qc: &Circuit| schedule_asap(qc, durations);
        let tau = 2000.0;
        // Aligned: X on both qubits at the same midpoint.
        let mut aligned = Circuit::new(2, 0);
        aligned.h(0).h(1);
        aligned.barrier(Vec::<usize>::new());
        aligned.delay(tau, 0).delay(tau, 1);
        aligned.x(0).x(1);
        aligned.delay(tau, 0).delay(tau, 1);
        aligned.x(0).x(1);
        aligned.barrier(Vec::<usize>::new());
        aligned.h(0).h(1);
        // Staggered: qubit 1 echoes at the quarter points instead.
        let mut staggered = Circuit::new(2, 0);
        staggered.h(0).h(1);
        staggered.barrier(Vec::<usize>::new());
        staggered.delay(tau, 0);
        staggered.delay(tau / 2.0, 1).x(1).delay(tau, 1);
        staggered.x(0);
        staggered.delay(tau, 0);
        staggered.x(1).delay(tau / 2.0, 1);
        staggered.x(0);
        staggered.barrier(Vec::<usize>::new());
        staggered.h(0).h(1);
        let z = PauliString::parse("ZI").unwrap();
        let za = sim.expect_pauli(&sched(&aligned), &z, 1, 1).unwrap();
        let zs = sim.expect_pauli(&sched(&staggered), &z, 1, 1).unwrap();
        // Aligned cancels local Z but leaves ZZ: ⟨Z₀⟩ = cos(θ_zz_total).
        let theta = ca_device::phase_rad(80.0, 2.0 * tau);
        assert!((za - theta.cos()).abs() < 1e-9, "aligned leaves ZZ: {za}");
        assert!(
            (zs - 1.0).abs() < 1e-9,
            "staggered cancels everything: {zs}"
        );
    }

    #[test]
    fn t1_decay_statistics() {
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].t1_us = 50.0;
        dev.calibration.qubits[0].t2_us = 100.0;
        let cfg = NoiseConfig {
            decoherence: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        let mut qc = Circuit::new(1, 1);
        qc.x(0).delay(50_000.0, 0).measure(0, 0);
        let res = sim.run_counts(&sched(&qc), 2000, 13).unwrap();
        let p1 = res.probability(1);
        let expect = (-1.0f64).exp(); // decay over exactly T1.
        assert!((p1 - expect).abs() < 0.05, "p1 {p1} vs {expect}");
    }

    #[test]
    fn norm_bound_forces_a_renormalise_before_underflow() {
        // T1 ≪ the circuit: 4000 damping steps of 200 ns at T1 = 1 µs,
        // 0.8 ms in all. Every draw is 0, below any 1−γ, so no step
        // needs its read to decide the branch: only the bound forces
        // one. Kept excited, the state's norm² falls as fast as the
        // bound.
        let gamma = damping_prob(200.0, 1.0);
        let keep = 1.0 - gamma;
        let steps = 4000;
        assert_eq!(keep.powi(steps), 0.0, "the unread product underflows");
        let mut bound = NormBound(1.0);
        let mut st = State::basis(1, 1);
        let mut reads = 0;
        for _ in 0..steps {
            if bound.skip_read(gamma, 0.0) {
                st.apply_diag([C64::real(1.0), C64::real(keep.sqrt())], 0);
            } else {
                reads += 1;
                let d = st.damping_step(gamma, 0.0, IDENTITY_DIAG, 0);
                st.apply_diag(d.expect("a zero draw never jumps"), 0);
                assert_eq!(bound, NormBound(1.0));
                assert!((st.norm_sqr() - 1.0).abs() < 1e-12, "a read renormalises");
            }
            assert!(bound.0 >= NormBound::MIN);
            assert!(
                st.norm_sqr() >= bound.0 * (1.0 - 1e-9),
                "the bound is a lower bound"
            );
        }
        assert!(reads >= 2, "{reads} forced reads");
        assert!(st.amps[1].re.is_normal());
    }

    #[test]
    fn readout_error_flips_bits() {
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].readout_err = 0.2;
        let cfg = NoiseConfig {
            readout_error: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        let mut qc = Circuit::new(1, 1);
        qc.measure(0, 0);
        let res = sim.run_counts(&sched(&qc), 3000, 17).unwrap();
        let p1 = res.probability(1);
        assert!((p1 - 0.2).abs() < 0.03, "readout flips ~20%: {p1}");
    }

    #[test]
    fn measurement_neighbor_accrues_conditional_phase() {
        // Fig. 9 physics: measuring q0 while q1 idles next to it makes
        // q1 pick up Rz(±θ) conditioned on the outcome.
        let dev = uniform_device(Topology::line(2), 50.0);
        let sim = Simulator::with_config(dev, NoiseConfig::coherent_only());
        let mut qc = Circuit::new(2, 1);
        qc.x(0); // deterministic outcome 1
        qc.h(1);
        qc.measure(0, 0);
        let sc = sched(&qc);
        let (st, bits) = sim.run_single(&sc, 5);
        assert!(bits[0]);
        // q1's Bloch vector rotated by the accumulated phase; its X
        // expectation is cos of the total accrued angle.
        let x1 = st.expect_pauli(&PauliString::parse("IX").unwrap());
        assert!(x1 < 0.999, "phase accrued during readout window: {x1}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use ca_circuit::{schedule_asap, Circuit, GateDurations, PauliString};
    use ca_device::{uniform_device, Topology};

    fn sched(qc: &Circuit) -> ScheduledCircuit {
        schedule_asap(qc, GateDurations::default())
    }

    #[test]
    fn reset_reinitializes_mid_circuit() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(1), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(1, 1);
        qc.x(0).reset(0).measure(0, 0);
        let res = sim.run_counts(&sched(&qc), 50, 3).unwrap();
        assert!((res.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_measurements_of_entangled_pair_agree() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(2), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 300, 9).unwrap();
        // Never anti-correlated.
        assert_eq!(res.probability(0b01), 0.0);
        assert_eq!(res.probability(0b10), 0.0);
    }

    #[test]
    fn gate_error_statistics_scale_with_rate() {
        let mut dev = uniform_device(Topology::line(2), 0.0);
        let keys: Vec<_> = dev.calibration.edges.keys().copied().collect();
        for k in keys {
            dev.calibration.edges.get_mut(&k).unwrap().gate_err_2q = 0.25;
        }
        let cfg = NoiseConfig {
            gate_error: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        // Identity-equivalent pair of ECRs; depolarizing error shows up
        // as a drop in the return probability.
        let mut qc = Circuit::new(2, 2);
        qc.ecr(0, 1).ecr(0, 1).measure(0, 0).measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 2000, 5).unwrap();
        let p00 = res.probability(0b00);
        // Two gates at p=0.25: survival ≈ (1−p)² + small returns.
        assert!(p00 < 0.75, "depolarizing must reduce p00: {p00}");
        assert!(p00 > 0.45, "but not destroy it: {p00}");
    }

    #[test]
    fn virtual_rz_between_halves_shifts_ramsey_phase() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(1), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(1, 0);
        qc.h(0).rz(1.234, 0).h(0);
        let z = sim
            .expect_pauli(&sched(&qc), &PauliString::parse("Z").unwrap(), 1, 1)
            .unwrap();
        assert!((z - 1.234f64.cos()).abs() < 1e-10);
    }

    #[test]
    fn barrier_only_circuit_is_identity() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(2), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 0);
        qc.barrier(Vec::<usize>::new());
        let (st, _) = sim.run_single(&sched(&qc), 1);
        assert!((st.amps[0].norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pack_bits_is_little_endian() {
        assert_eq!(pack_bits(&[true, false, true], 3), 0b101);
        assert_eq!(pack_bits(&[false, true], 2), 0b10);
    }
}

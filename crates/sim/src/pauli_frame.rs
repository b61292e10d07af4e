//! Stabilizer-engine shot sampler: one reference tableau run plus
//! per-shot Pauli frames, with the context-aware noise model mapped
//! onto Pauli-twirled stochastic channels.
//!
//! ## How noise survives the Clifford approximation
//!
//! The dense engine accumulates every coherent Z/ZZ phase in scalar
//! *pending banks* and applies them exactly. The frame engines keep
//! the identical banks — same timeline segments, same signed-time echo
//! bookkeeping — but at each *flush point* convert the accumulated
//! angle θ into its Pauli twirl: a stochastic `Z` (or `Z⊗Z`) flip
//! with probability `sin²(θ/2)`. Two bank rules make the compiler
//! physics survive:
//!
//! * a 1q Clifford that conjugates `Z → ±Z` (X/Y DD pulses, virtual
//!   phases) does **not** flush; it toggles the bank sign, exactly as
//!   the pulse toggles the physical accumulation frame. Staggered DD
//!   and Walsh sequences therefore drive the banks to ~0 before any
//!   twirl happens — suppression is preserved *coherently*;
//! * basis-changing 1q gates (`H`, `Sx`…), entangling gates,
//!   measurements, and circuit end flush. Flushing at two-qubit gates
//!   is the paper's twirled-layer boundary: leftover coherent phases
//!   become stochastic Pauli noise there, which is precisely the
//!   approximation Pauli twirling makes physical.
//!
//! Decoherence is applied as the Pauli-twirl of amplitude damping
//! (`X`/`Y`/`Z` each with γ/4) plus pure dephasing; depolarizing gate
//! error and readout error are already Pauli/classical channels and
//! match the dense engine exactly.
//!
//! ## One bank walk, two interpreters
//!
//! The banks are walked once per circuit, by
//! `BatchPlan::from_frame`, into the seed-free frame program of
//! [`crate::frame_batch`] that both frame engines run. This module
//! lowers a scheduled circuit into the per-item frame actions that
//! walk reads ([`FramePlan`]), runs the seed's reference tableau, and
//! holds the serial engine: an interpreter of the program one shot at
//! a time, with scalar frames and single-lane draws.
//!
//! ## Factored pending banks and hashed noise draws
//!
//! Per qubit the Z bank is stored *factored* as `(θ_static, t_signed)`
//! — the deterministic phase plus the signed idle time that the
//! shot's stochastic Z rate multiplies at flush:
//! `θ = θ_static + phase_rad(rate, t_signed)`. Both components are
//! RNG-independent (sign toggles negate both), which is what lets one
//! seed-free program carry the entire bank evolution. Each flush op
//! keeps the factored pair: the serial engine evaluates θ from it with
//! the shot's own rate, while the batch engine reads a threshold
//! table precomputed for every per-lane noise code. The serial engine
//! never reads those tables, so it checks them, with the batch
//! engine's ladders, output-cone pruning, sharding and reductions.
//! The bank walk the two share is checked against the dense engine
//! (`frame_batch_bank_draws_match_dense_ramsey`). Every noise draw is
//! a pure hash of `(seed, shot, site)`
//! ([`crate::plan::shot_site_seed`]), so shot `i` makes the same
//! decisions no matter how shots are chunked over threads or packed
//! into 64-lane words.
//!
//! ## Measurement randomness
//!
//! Shots reuse one reference tableau sample; a shot's outcome is the
//! reference bit XOR the frame's X component. The frame's Z component
//! is freshly randomized wherever `Z_q` stabilizes the state (at
//! initialisation and after every measurement/reset) — physically
//! invisible, but it supplies the per-shot randomness that later
//! collapses need (the Stim trick).
//!
//! ## Classical feed-forward
//!
//! Dynamic circuits are first-class. A conditional **Pauli** gate is
//! exact: the reference run keeps its own classical register and
//! fires the gate against *its* recorded bits, and a shot whose
//! recorded bit disagrees with the reference's multiplies the Pauli
//! into its frame — precisely the operator by which the two
//! evolutions then differ. `Reset` is the same mechanism fused
//! (measure, then X when excited). A conditional **diagonal
//! rotation** (the outcome-conditioned `Rz` of CA-EC's Fig. 9b
//! compensation) is rewritten against the measured source qubit:
//! firing on `m` means applying `exp(−i(θ/2)·Z_q·(I∓Z_src)/2)`, an
//! unconditional local-plus-edge bank term that cancels coherently
//! against the crosstalk phases accrued during the measurement
//! window — the cancellation CA-EC exists to deliver — before any
//! twirl happens. Unconditional diagonal rotations of arbitrary
//! angle (`Rz`, `Rzz`, `T`) likewise fold into the banks. What stays
//! out of reach is a conditional that wraps a non-Pauli,
//! non-diagonal gate (`H`, `Sx`, `Rx(θ)`, any 2q conditional): the
//! deviation between fired and unfired shots is not a Pauli, and
//! [`stabilizer_check`] reports it as a structured error.

use crate::error::SimError;
use crate::executor::{pack_bits, Simulator};
use crate::frame_batch::{BatchOp, BatchPlan};
use crate::insert::InsertionSet;
use crate::noise::ShotNoise;
use crate::plan::{
    bern_theta, bern_threshold, damping_thresholds, fair_plane, lt_lane, map_shots_indexed, pick,
    shot_key, site, site_draw, ExecutionPlan, PlanOp,
};
use crate::result::{PauliFlips, RunResult};
use crate::stabilizer::{pack_pauli, pauli_from_bits, pauli_to_bits, Tableau};
use ca_circuit::clifford::{conjugation_table_1q, conjugation_table_2q, Table2Q};
use ca_circuit::pauli::{Pauli, PauliString};
use ca_circuit::{Gate, ScheduledCircuit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// First classical-bit index the frame engines' conditionals cannot
/// read (conditions are evaluated against a packed 64-bit key).
pub const COND_CLBIT_MAX: usize = 64;

/// True when the stabilizer engine can execute the scheduled circuit:
/// every unconditional gate is a Clifford or a diagonal rotation
/// (folded into the coherent banks), and every feed-forward condition
/// wraps a Pauli gate (applied exactly) or a single-qubit diagonal
/// rotation (rewritten into bank terms against the measured source).
pub fn stabilizer_supports(sc: &ScheduledCircuit) -> bool {
    stabilizer_check(sc).is_ok()
}

/// [`stabilizer_supports`] with the blocking construct named: `Err`
/// carries the first gate (or conditional construct) that rules the
/// frame representation out.
pub fn stabilizer_check(sc: &ScheduledCircuit) -> Result<(), SimError> {
    crate::engine::check_gate_arities(sc)?;
    for si in &sc.items {
        let g = si.instruction.gate;
        if let Some(cond) = si.instruction.condition {
            if cond.clbit >= COND_CLBIT_MAX {
                return Err(SimError::ConditionalClbitOutOfRange {
                    clbit: cond.clbit,
                    max: COND_CLBIT_MAX,
                });
            }
            let supported =
                g.is_pauli() || (g.is_unitary() && g.num_qubits() == 1 && g.is_diagonal());
            if !supported {
                return Err(SimError::UnsupportedConditional { gate: g.name() });
            }
            continue;
        }
        if !is_structural(g) && !g.is_clifford() && !g.is_diagonal() {
            return Err(SimError::NotClifford { gate: g.name() });
        }
    }
    Ok(())
}

/// Non-unitary circuit-structure ops both support predicates admit.
fn is_structural(g: Gate) -> bool {
    matches!(
        g,
        Gate::Measure | Gate::Reset | Gate::Delay(_) | Gate::Barrier
    )
}

/// True when the circuit is *static Clifford*: no feed-forward and
/// every gate exactly Clifford — the class both frame engines
/// represented before conditional and diagonal-bank support landed.
/// Noise learning pins its frame-batch fast path with this stricter
/// predicate so that learning circuits carrying arbitrary-angle
/// diagonal compensations (CA-EC) keep running on the exact dense
/// engine at small sizes instead of silently switching to the
/// twirled bank model.
pub fn clifford_supports(sc: &ScheduledCircuit) -> bool {
    sc.items.iter().all(|si| {
        let g = si.instruction.gate;
        si.instruction.condition.is_none() && (is_structural(g) || g.is_clifford())
    })
}

/// The `Rz`-equivalent rotation angle of a single-qubit diagonal
/// unitary (up to global phase): the angle the frame engines fold
/// into the qubit's coherent Z bank.
pub(crate) fn diagonal_angle_1q(gate: Gate) -> Option<f64> {
    match gate {
        Gate::I => Some(0.0),
        Gate::Z => Some(std::f64::consts::PI),
        Gate::S => Some(std::f64::consts::FRAC_PI_2),
        Gate::Sdg => Some(-std::f64::consts::FRAC_PI_2),
        Gate::T => Some(std::f64::consts::FRAC_PI_4),
        Gate::Tdg => Some(-std::f64::consts::FRAC_PI_4),
        Gate::Rz(t) => Some(t),
        _ => None,
    }
}

/// The Pauli a conditional Pauli gate injects.
fn pauli_of(gate: Gate) -> Option<Pauli> {
    match gate {
        Gate::I => Some(Pauli::I),
        Gate::X => Some(Pauli::X),
        Gate::Y => Some(Pauli::Y),
        Gate::Z => Some(Pauli::Z),
        _ => None,
    }
}

/// Per-item precomputed frame action.
pub(crate) enum ItemOp {
    One {
        q: usize,
        /// Shared conjugation table (one allocation per distinct gate
        /// per plan, refcounted across items and re-dressed plans).
        table: Arc<[(i8, Pauli); 4]>,
        /// `Some(s)` when the gate conjugates `Z → s·Z` (bank toggles,
        /// no flush); `None` when it changes basis (flush first).
        z_sign: Option<i8>,
    },
    Two {
        a: usize,
        b: usize,
        /// Shared conjugation table (see [`ItemOp::One::table`]).
        table: Arc<Table2Q>,
        diagonal: bool,
    },
    /// Conditional Pauli gate — exact classical feed-forward. The
    /// reference run applies the Pauli when *its* recorded bit
    /// matches `value`; a shot whose recorded bit disagrees with the
    /// reference's multiplies the Pauli into its frame (the two
    /// evolutions then differ by exactly that Pauli).
    CondPauli {
        q: usize,
        pauli: Pauli,
        clbit: usize,
        value: bool,
        /// Ordinal of this conditional among the circuit's conditional
        /// Paulis: indexes [`RefBits::fired`], the seed-dependent
        /// record of whether the reference run fired it.
        cond: usize,
        /// True for physical pulses (X/Y): the qubit's banks flush
        /// first (the bank evolution must stay shot-independent, so
        /// a per-shot sign toggle is not an option) and a fired shot
        /// draws the 1q depolarizing error.
        physical: bool,
    },
    /// Virtual diagonal rotation folded into the qubit's coherent Z
    /// bank: cancels coherently against accrued crosstalk phases
    /// (the CA-EC mechanism) and twirls with the rest of the bank at
    /// the next flush.
    BankRz { q: usize, theta: f64 },
    /// Diagonal ZZ rotation folded into an edge bank, plus the
    /// pulse-stretched gate's own two-qubit depolarizing draw.
    BankRzz {
        a: usize,
        b: usize,
        edge: usize,
        theta: f64,
    },
    /// Conditional diagonal rotation rewritten against the measured
    /// source qubit `a` (which stays collapsed in its post-measurement
    /// eigenstate): firing on `m = 1` means applying
    /// `exp(−i(θ/2)·Z_q·(I−Z_a)/2)`, i.e. `Rz(θ/2)` on `q` plus
    /// `Rzz(∓θ/2)` on the `(a, q)` edge — two shot-independent bank
    /// terms. Exact before the twirl whenever the source qubit is not
    /// re-excited before the edge bank flushes; conditions therefore
    /// act on the measured *state* (readout-error flips on the
    /// recorded bit are not seen by this path).
    CondBankRz {
        q: usize,
        theta: f64,
        edge: Option<(usize, f64)>,
    },
}

/// The seed-dependent half of a frame run: what the noiseless
/// reference run recorded. Shots XOR their frames against these bits,
/// so every frame program is seed-free and one program serves every
/// seed of a circuit (see [`FramePlan::reference`]).
pub(crate) struct RefBits {
    /// Reference measurement outcomes, in plan (time) order.
    pub(crate) outcomes: Vec<bool>,
    /// Whether the reference run fired each conditional Pauli, by
    /// [`ItemOp::CondPauli::cond`] ordinal.
    pub(crate) fired: Vec<bool>,
}

/// The frame-simulation plan: the shared [`ExecutionPlan`] plus the
/// per-item conjugation tables. Seed-free: the reference run that a
/// seed determines is computed separately ([`Self::reference`]).
///
/// Owns its data (the circuit and timeline plan sit behind [`Arc`]s),
/// so frame plans are cacheable `Send + Sync` artifacts. Twirl
/// instances of one schedule share the `Arc<ExecutionPlan>` — the
/// timeline segments are twirl-independent — while each instance
/// carries its own item ops (see
/// [`crate::session::Session::compiled_dressed`]).
pub struct FramePlan {
    /// The circuit this plan executes. Equal to `plan.sc` except for
    /// re-dressed twirl instances, where merged Pauli slots differ
    /// (the timeline is unaffected — merged gates are zero-width and
    /// error-free).
    pub(crate) sc: Arc<ScheduledCircuit>,
    pub(crate) plan: Arc<ExecutionPlan>,
    /// Frame action per scheduled item (None for structural ops).
    pub(crate) items: Vec<Option<ItemOp>>,
    /// Number of conditional Paulis (the length of
    /// [`RefBits::fired`]).
    pub(crate) conds: usize,
}

/// Exact cache key for conjugation tables: gate mnemonic plus the
/// angle's bit pattern (zero for parameterless gates).
fn table_key(gate: &Gate) -> (&'static str, u64) {
    let angle = match *gate {
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Rzz(t) => t,
        _ => 0.0,
    };
    (gate.name(), angle.to_bits())
}

impl FramePlan {
    /// Builds the frame plan over a prebuilt (possibly shared)
    /// timeline plan. `sc` may differ from `plan.sc` only at merged
    /// single-qubit Pauli slots — the re-dressed-twirl contract; the
    /// timeline, item indices, and op stream are identical by
    /// construction there.
    pub(crate) fn build_with_plan(
        sc: Arc<ScheduledCircuit>,
        plan: Arc<ExecutionPlan>,
    ) -> Result<Self, SimError> {
        let _s = ca_obs::span("sim.compile", "frame-plan");
        stabilizer_check(&sc)?;
        let mut cache1: BTreeMap<(&'static str, u64), Arc<[(i8, Pauli); 4]>> = BTreeMap::new();
        let mut cache2: BTreeMap<(&'static str, u64), Arc<Table2Q>> = BTreeMap::new();
        let mut items = Vec::with_capacity(sc.items.len());
        let mut conds = 0usize;
        for (i, si) in sc.items.iter().enumerate() {
            let gate = si.instruction.gate;
            if !gate.is_unitary() || gate == Gate::Barrier {
                items.push(None);
                continue;
            }
            if let Some(cond) = si.instruction.condition {
                let q = si.instruction.qubits[0];
                let op = if let Some(pauli) = pauli_of(gate) {
                    conds += 1;
                    ItemOp::CondPauli {
                        q,
                        pauli,
                        clbit: cond.clbit,
                        value: cond.value,
                        cond: conds - 1,
                        physical: !gate.is_virtual(),
                    }
                } else {
                    // `stabilizer_check` admitted it, so it is a 1q
                    // diagonal rotation: rewrite against the measured
                    // source qubit (see [`ItemOp::CondBankRz`]). A
                    // gate that is diagonal but unknown to the angle
                    // table stays a structured error, never a panic.
                    let theta = diagonal_angle_1q(gate)
                        .ok_or(SimError::UnsupportedConditional { gate: gate.name() })?;
                    match plan.cond_source.get(&i).copied().flatten() {
                        Some(aux) if aux != q => {
                            let edge = plan.edge_index[&(aux.min(q), aux.max(q))];
                            let th_edge = if cond.value {
                                -theta / 2.0
                            } else {
                                theta / 2.0
                            };
                            ItemOp::CondBankRz {
                                q,
                                theta: theta / 2.0,
                                edge: Some((edge, th_edge)),
                            }
                        }
                        // Conditioned on the target's own measurement:
                        // the edge term collapses to a global phase.
                        Some(_) => ItemOp::CondBankRz {
                            q,
                            theta: theta / 2.0,
                            edge: None,
                        },
                        // Bit never written before this point: the
                        // condition resolves statically against 0.
                        None => ItemOp::CondBankRz {
                            q,
                            theta: if cond.value { 0.0 } else { theta },
                            edge: None,
                        },
                    }
                };
                items.push(Some(op));
                continue;
            }
            if !gate.is_clifford() {
                // `stabilizer_check` admitted it, so it is diagonal:
                // fold the rotation into the coherent banks. Gates
                // outside the angle tables stay structured errors,
                // never panics.
                let op = match si.instruction.qubits.len() {
                    1 => ItemOp::BankRz {
                        q: si.instruction.qubits[0],
                        theta: diagonal_angle_1q(gate)
                            .ok_or(SimError::NotClifford { gate: gate.name() })?,
                    },
                    _ => {
                        let Gate::Rzz(theta) = gate else {
                            return Err(SimError::NotClifford { gate: gate.name() });
                        };
                        let (a, b) = (si.instruction.qubits[0], si.instruction.qubits[1]);
                        ItemOp::BankRzz {
                            a,
                            b,
                            edge: plan.edge_index[&(a.min(b), a.max(b))],
                            theta,
                        }
                    }
                };
                items.push(Some(op));
                continue;
            }
            let op = match si.instruction.qubits.len() {
                1 => {
                    let table = cache1
                        .entry(table_key(&gate))
                        .or_insert_with(|| Arc::new(conjugation_table_1q(gate)))
                        .clone();
                    let z_sign = match table[Pauli::Z.index()] {
                        (s, Pauli::Z) => Some(s),
                        _ => None,
                    };
                    ItemOp::One {
                        q: si.instruction.qubits[0],
                        table,
                        z_sign,
                    }
                }
                2 => {
                    let table = cache2
                        .entry(table_key(&gate))
                        .or_insert_with(|| Arc::new(conjugation_table_2q(gate)))
                        .clone();
                    ItemOp::Two {
                        a: si.instruction.qubits[0],
                        b: si.instruction.qubits[1],
                        table,
                        diagonal: gate.is_diagonal(),
                    }
                }
                got => {
                    // Unreachable after `stabilizer_check`, but kept as
                    // a structured error so no caller path can panic.
                    return Err(SimError::UnsupportedGateArity {
                        gate: gate.name(),
                        expected: gate.num_qubits(),
                        got,
                    });
                }
            };
            items.push(Some(op));
        }
        Ok(Self {
            sc,
            plan,
            items,
            conds,
        })
    }

    /// The noiseless reference run for `seed`: the measurement
    /// outcomes and conditional firings every shot is compared
    /// against, plus the final tableau (which only expectations read).
    /// A pure function of the plan and the seed, so callers may run it
    /// again rather than keep the tableau.
    pub(crate) fn reference(&self, seed: u64) -> (RefBits, Tableau) {
        // Timed as part of the frame plan: the reference run is its
        // seed-dependent half.
        let _s = ca_obs::span("sim.compile", "frame-plan");
        let sc = &self.sc;
        let items = &self.items;
        // Reference run: the *noiseless* circuit on the tableau. The
        // reference carries its own classical register so conditional
        // Paulis fire against the reference's recorded bits; bank
        // rotations are invisible here (they live frame-side).
        //
        // The Pauli gates of the circuit (DD pulses, twirl dressing —
        // the bulk of a DD-compiled workload) are not applied to the
        // tableau at all: they accumulate in a packed Pauli *skeleton*
        // frame that later gates conjugate in O(1), measurements XOR
        // into their recorded outcome, and one final sweep folds into
        // the tableau signs. The circuit-level semantics are those of
        // a gate-by-gate tableau walk; only the mapping of the
        // reference RNG stream onto random-outcome measurements
        // differs from one.
        let pauli1: Vec<Option<(bool, bool)>> = sc
            .items
            .iter()
            .zip(items)
            .map(|(si, it)| match it {
                Some(ItemOp::One { .. }) => pauli_of(si.instruction.gate).map(pauli_to_bits),
                _ => None,
            })
            .collect();
        let words = sc.num_qubits.div_ceil(64);
        let mut skx = vec![0u64; words];
        let mut skz = vec![0u64; words];
        let mut tableau = Tableau::zero(sc.num_qubits);
        let mut ref_rng = StdRng::seed_from_u64(seed ^ 0xC1F0_0D5E_ED00_55AA);
        let x_table = conjugation_table_1q(Gate::X);
        let mut ref_bits = vec![false; sc.num_clbits.max(1)];
        let mut ref_outcomes = Vec::new();
        let mut fired_bits = vec![false; self.conds];
        macro_rules! sk_get {
            ($q:expr) => {
                pauli_from_bits(
                    skx[$q / 64] >> ($q % 64) & 1 == 1,
                    skz[$q / 64] >> ($q % 64) & 1 == 1,
                )
            };
        }
        macro_rules! sk_set {
            ($q:expr, $p:expr) => {{
                let (x, z) = pauli_to_bits($p);
                skx[$q / 64] = skx[$q / 64] & !(1 << ($q % 64)) | (x as u64) << ($q % 64);
                skz[$q / 64] = skz[$q / 64] & !(1 << ($q % 64)) | (z as u64) << ($q % 64);
            }};
        }
        for op in &self.plan.ops {
            match *op {
                PlanOp::Segment(_) => {}
                // ca-lint: allow(panic) -- plan construction guarantees unitary items at Apply ops
                PlanOp::Apply { item } => match items[item].as_ref().expect("unitary item") {
                    ItemOp::One { q, table, .. } => {
                        if let Some((px, pz)) = pauli1[item] {
                            skx[*q / 64] ^= (px as u64) << (*q % 64);
                            skz[*q / 64] ^= (pz as u64) << (*q % 64);
                            continue;
                        }
                        // Conjugate the skeleton letter through the
                        // gate (its sign is a global phase).
                        let (_, np) = table[sk_get!(*q).index()];
                        sk_set!(*q, np);
                        tableau.apply_1q(table, *q);
                    }
                    ItemOp::Two { a, b, table, .. } => {
                        let (_, (na, nb)) = table[sk_get!(*a).index() + 4 * sk_get!(*b).index()];
                        sk_set!(*a, na);
                        sk_set!(*b, nb);
                        tableau.apply_2q(table, *a, *b);
                    }
                    ItemOp::CondPauli {
                        q,
                        pauli,
                        clbit,
                        value,
                        cond,
                        ..
                    } => {
                        let fired = ref_bits[*clbit] == *value;
                        fired_bits[*cond] = fired;
                        if fired {
                            let (px, pz) = pauli_to_bits(*pauli);
                            skx[*q / 64] ^= (px as u64) << (*q % 64);
                            skz[*q / 64] ^= (pz as u64) << (*q % 64);
                        }
                    }
                    ItemOp::BankRz { .. } | ItemOp::BankRzz { .. } | ItemOp::CondBankRz { .. } => {}
                },
                PlanOp::Project { item } => {
                    let si = &sc.items[item];
                    let q = si.instruction.qubits[0];
                    match si.instruction.gate {
                        Gate::Measure => {
                            // The skeleton's X component flips the
                            // Z-basis outcome; the frame itself is
                            // untouched by the projection.
                            let outcome = tableau.measure(q, &mut ref_rng)
                                ^ (skx[q / 64] >> (q % 64) & 1 == 1);
                            if let Some(c) = si.instruction.clbit {
                                ref_bits[c] = outcome;
                            }
                            ref_outcomes.push(outcome);
                        }
                        Gate::Reset => {
                            tableau.reset(q, &mut ref_rng, &x_table);
                            // Reset re-pins the *true* state to |0⟩:
                            // the deferred frame at q is dead.
                            skx[q / 64] &= !(1 << (q % 64));
                            skz[q / 64] &= !(1 << (q % 64));
                        }
                        _ => unreachable!(), // ca-lint: allow(panic) -- plan construction guarantees the op kind at this slot
                    }
                }
            }
        }
        tableau.conjugate_by_pauli(&skx, &skz);
        (
            RefBits {
                outcomes: ref_outcomes,
                fired: fired_bits,
            },
            tableau,
        )
    }
}

/// The serial frame engine: interprets the frame program that
/// [`BatchPlan::from_frame`] compiles one shot at a time, with scalar
/// frames and single-lane draws — no pruning, sharding or transposes.
/// It is the reference the strip runner's bit-parallel machinery is
/// checked against.
impl BatchPlan {
    /// Runs one shot of the program: propagates a Pauli frame with
    /// sampled noise and returns `(frame_x, frame_z, classical bits)`.
    /// Every draw is a pure hash of `(seed, shot, site)`
    /// ([`crate::plan::site`]); ladder draws ([`lt_lane`]) read this
    /// shot's lane bit of the planes the strip runner compares 64
    /// lanes at a time, so shot `i` makes the decisions of lane
    /// `i mod 64` of word `i / 64`, in any order. A flush's Z
    /// threshold comes from the op's factored bank and this shot's
    /// own Z rate ([`ShotNoise::sample_v2`]), never from the op's
    /// table. `shot_idx` is the global shot index; it also looks up
    /// the shot's Pauli insertions in `ins`, which are RNG-free frame
    /// XORs.
    fn shot(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        seed: u64,
        shot_idx: usize,
        ins: &InsertionSet,
    ) -> (Vec<u64>, Vec<u64>, Vec<bool>) {
        let n = self.frame.sc.num_qubits;
        let t_start = ca_obs::enabled().then(std::time::Instant::now); // ca-lint: allow(wall-clock) -- obs-gated timing attribution; never feeds results
        let noise = ShotNoise::sample_v2(&sim.device, &sim.config, seed, shot_idx as u64);
        // Per-shot and per-word stream keys: direct draws complete
        // `shot_site_seed` from `skey`; ladder/fair draws complete
        // `plane_base` from `wkey` and read this shot's lane bit.
        let skey = shot_key(seed, shot_idx as u64);
        let wkey = shot_key(seed, (shot_idx / 64) as u64);
        let lane = (shot_idx % 64) as u32;
        let mut fx = vec![0u64; n.div_ceil(64)];
        let mut fz = vec![0u64; n.div_ceil(64)];

        // Ladder draw: this shot's lane bit of the site's bit-planes.
        macro_rules! lt {
            ($site:expr, $t:expr) => {
                lt_lane(site_draw(wkey, $site), lane, $t)
            };
        }
        // Fair coin: lane bit of the site's plane 0.
        macro_rules! fair {
            ($site:expr) => {
                fair_plane(site_draw(wkey, $site)) >> lane & 1 == 1
            };
        }
        // 1q depolarizing error: a hit ladder, then this shot's own
        // uniform pick among X, Y, Z.
        macro_rules! depolarize_1q {
            ($op:expr, $q:expr, $p:expr) => {
                if $p > 0.0 && lt!(site::id(site::GATE_HIT, $op, $q), bern_threshold($p)) {
                    let k = pick(site_draw(skey, site::id(site::GATE_SEL, $op, $q)), 3) as usize;
                    inject(&mut fx, &mut fz, $q, [Pauli::X, Pauli::Y, Pauli::Z][k]);
                }
            };
        }

        // Initial Z-frame randomization: Z stabilizes |0…0⟩.
        for q in 0..n {
            set(&mut fz, q, fair!(site::id(site::INIT_Z, 0, q)));
        }
        if let Some(t0) = t_start {
            let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            ca_obs::observe_ns("engine", "sampling", ns);
        }
        let mut bits = vec![false; self.frame.sc.num_clbits.max(1)];
        for bop in &self.ops {
            match *bop {
                BatchOp::Flush {
                    q,
                    op,
                    stat,
                    time,
                    ref edges,
                    deco,
                    ..
                } => {
                    // This shot's own threshold: the rate (and hence θ)
                    // varies by shot, while the ladder reads the same
                    // site planes every lane of the word reads.
                    // `bern_theta` folds in the |θ| dead-zone.
                    let rate = noise.z_rate_khz(&sim.device, q);
                    let t = bern_theta(stat + ca_device::phase_rad(rate, time));
                    if t > 0 && lt!(site::id(site::FLUSH_Z, op, q), t) {
                        toggle(&mut fz, q);
                    }
                    for edge in edges {
                        if lt!(site::id(site::FLUSH_ZZ, op, edge.e), edge.t) {
                            toggle(&mut fz, edge.a);
                            toggle(&mut fz, edge.b);
                        }
                    }
                    if let Some((gamma, p_z)) = deco {
                        // Pauli twirl of amplitude damping: one uniform
                        // against γ/4, γ/2, 3γ/4 (X / Y / Z bands).
                        if gamma > 0.0 {
                            let base = site_draw(wkey, site::id(site::DECO_DAMP, op, q));
                            let [l1, l2, l3] =
                                damping_thresholds(gamma).map(|t| lt_lane(base, lane, t));
                            if l2 {
                                toggle(&mut fx, q);
                            }
                            if l1 != l3 {
                                toggle(&mut fz, q);
                            }
                        }
                        if p_z > 0.0 && lt!(site::id(site::DECO_DEPH, op, q), bern_threshold(p_z)) {
                            toggle(&mut fz, q);
                        }
                    }
                }
                BatchOp::Gate1 {
                    q,
                    op,
                    ref m,
                    err_p,
                } => {
                    let (x, z) = m.apply(u64::from(get(&fx, q)), u64::from(get(&fz, q)));
                    set(&mut fx, q, x != 0);
                    set(&mut fz, q, z != 0);
                    depolarize_1q!(op, q, err_p);
                }
                BatchOp::Gate2 {
                    a,
                    b,
                    op,
                    ref m,
                    err_p,
                } => {
                    let frame = [get(&fx, a), get(&fz, a), get(&fx, b), get(&fz, b)];
                    let [xa, za, xb, zb] = m.apply(frame.map(u64::from));
                    set(&mut fx, a, xa != 0);
                    set(&mut fz, a, za != 0);
                    set(&mut fx, b, xb != 0);
                    set(&mut fz, b, zb != 0);
                    if err_p > 0.0 && lt!(site::id(site::GATE_HIT, op, a), bern_threshold(err_p)) {
                        let k =
                            pick(site_draw(skey, site::id(site::GATE_SEL, op, a)), 15) as usize + 1;
                        inject(&mut fx, &mut fz, a, Pauli::from_index(k % 4));
                        inject(&mut fx, &mut fz, b, Pauli::from_index(k / 4));
                    }
                }
                BatchOp::Measure {
                    q,
                    op,
                    meas,
                    clbit,
                    readout,
                } => {
                    let mut outcome = reference.outcomes[meas] ^ get(&fx, q);
                    if let Some(p) = readout.filter(|&p| p > 0.0) {
                        if lt!(site::id(site::READOUT, op, q), bern_threshold(p)) {
                            outcome = !outcome;
                        }
                    }
                    if let Some(c) = clbit {
                        bits[c] = outcome;
                    }
                    // Post-collapse Z randomization.
                    set(&mut fz, q, fair!(site::id(site::MEAS_Z, op, q)));
                }
                BatchOp::Reset { q, op } => {
                    set(&mut fx, q, false);
                    set(&mut fz, q, fair!(site::id(site::RESET_Z, op, q)));
                }
                BatchOp::CondGate {
                    q,
                    op,
                    x,
                    z,
                    clbit,
                    value,
                    cond,
                    err_p,
                } => {
                    let fired = bits[clbit] == value;
                    if fired != reference.fired[cond] {
                        if x {
                            toggle(&mut fx, q);
                        }
                        if z {
                            toggle(&mut fz, q);
                        }
                    }
                    if fired {
                        depolarize_1q!(op, q, err_p);
                    }
                }
                // Scheduled per-shot Pauli insertions (PEC): pure frame
                // XORs after the item's own error draws.
                BatchOp::Anchor { item } => {
                    for &(_, q, p) in ins.for_shot(item, shot_idx) {
                        inject(&mut fx, &mut fz, q, p);
                    }
                }
            }
        }
        if let Some(t0) = t_start {
            let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            ca_obs::observe_ns("engine", "shot", ns);
        }
        (fx, fz, bits)
    }

    /// Shot-sampled classical counts on the serial engine.
    /// `cancel` is polled at shot-chunk boundaries.
    pub(crate) fn serial_counts(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        ins: &InsertionSet,
        params: crate::plan::ShotParams<'_>,
    ) -> Result<RunResult, SimError> {
        let crate::plan::ShotParams {
            shots,
            seed,
            workers,
            cancel,
        } = params;
        let nbits = self.frame.sc.num_clbits;
        let parts = map_shots_indexed(
            shots,
            workers,
            cancel,
            std::collections::BTreeMap::<u64, usize>::new,
            |i, counts| {
                let (_, _, bits) = self.shot(sim, reference, seed, i, ins);
                *counts.entry(pack_bits(&bits, nbits)).or_insert(0) += 1;
            },
        )?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            RunResult::from_parts(shots, nbits, parts)
        }))
    }

    /// Frame-averaged Pauli expectations on the serial engine.
    /// `cancel` is polled at shot-chunk boundaries.
    pub(crate) fn serial_expectations(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        tableau: &Tableau,
        paulis: &[PauliString],
        ins: &InsertionSet,
        params: crate::plan::ShotParams<'_>,
    ) -> Result<Vec<f64>, SimError> {
        let crate::plan::ShotParams {
            shots,
            seed,
            workers,
            cancel,
        } = params;
        let prepared = packed_observables(tableau, paulis);
        let sums = map_shots_indexed(
            shots,
            workers,
            cancel,
            || vec![0.0; prepared.len()],
            |i, acc| {
                let (fx, fz, _) = self.shot(sim, reference, seed, i, ins);
                for (o, (r, px, pz)) in prepared.iter().enumerate() {
                    if *r == 0 {
                        continue;
                    }
                    let mut parity = 0u64;
                    for w in 0..fx.len() {
                        parity ^= (fx[w] & pz[w]) ^ (fz[w] & px[w]);
                    }
                    let flip = parity.count_ones() % 2 == 1;
                    acc[o] += if flip { -*r as f64 } else { *r as f64 };
                }
            },
        )?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            let mut out = vec![0.0; paulis.len()];
            for part in sums {
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

    /// Per-shot ±1 outcomes on the serial engine (see
    /// [`PauliFlips`]). `cancel` is polled at shot-chunk boundaries.
    pub(crate) fn serial_flips(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        tableau: &Tableau,
        paulis: &[PauliString],
        ins: &InsertionSet,
        params: crate::plan::ShotParams<'_>,
    ) -> Result<PauliFlips, SimError> {
        let crate::plan::ShotParams {
            shots,
            seed,
            workers,
            cancel,
        } = params;
        let prepared = packed_observables(tableau, paulis);
        let words = shots.div_ceil(64);
        // Per-worker bitvectors cover disjoint shot indices, so the
        // merge is a plain OR — order-independent and exact.
        let parts = map_shots_indexed(
            shots,
            workers,
            cancel,
            || vec![vec![0u64; words]; prepared.len()],
            |i, acc| {
                let (fx, fz, _) = self.shot(sim, reference, seed, i, ins);
                for (o, (_, px, pz)) in prepared.iter().enumerate() {
                    let mut parity = 0u64;
                    for w in 0..fx.len() {
                        parity ^= (fx[w] & pz[w]) ^ (fz[w] & px[w]);
                    }
                    if parity.count_ones() % 2 == 1 {
                        acc[o][i / 64] |= 1 << (i % 64);
                    }
                }
            },
        )?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            let mut flips = vec![vec![0u64; words]; prepared.len()];
            for part in parts {
                for (acc, obs) in flips.iter_mut().zip(part.iter()) {
                    for (a, w) in acc.iter_mut().zip(obs.iter()) {
                        *a |= w;
                    }
                }
            }
            PauliFlips {
                shots,
                refs: prepared.iter().map(|(r, _, _)| *r).collect(),
                flips,
            }
        }))
    }
}

/// Reference expectation and packed masks per observable.
fn packed_observables(tableau: &Tableau, paulis: &[PauliString]) -> Vec<(i32, Vec<u64>, Vec<u64>)> {
    paulis
        .iter()
        .map(|p| {
            let r = tableau.expect(p); // ca-lint: allow(panic) -- `Tableau::expect` is a Pauli expectation, not an Option unwrap
            let (px, pz) = pack_pauli(p);
            (r, px, pz)
        })
        .collect()
}

#[inline]
fn get(v: &[u64], q: usize) -> bool {
    v[q / 64] >> (q % 64) & 1 == 1
}

#[inline]
fn set(v: &mut [u64], q: usize, on: bool) {
    if on {
        v[q / 64] |= 1 << (q % 64);
    } else {
        v[q / 64] &= !(1 << (q % 64));
    }
}

#[inline]
fn toggle(v: &mut [u64], q: usize) {
    v[q / 64] ^= 1 << (q % 64);
}

/// Multiplies the frame by `p` at qubit `q` (signs are irrelevant for
/// frames, so this is a bitwise XOR in the symplectic picture).
#[inline]
fn inject(fx: &mut [u64], fz: &mut [u64], q: usize, p: Pauli) {
    let (x, z) = pauli_to_bits(p);
    if x {
        toggle(fx, q);
    }
    if z {
        toggle(fz, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use ca_circuit::{schedule_asap, Circuit, GateDurations};
    use ca_device::{uniform_device, Topology};

    fn sched(qc: &Circuit) -> ScheduledCircuit {
        schedule_asap(qc, GateDurations::default())
    }

    fn ideal(n: usize) -> Simulator {
        Simulator::with_config(uniform_device(Topology::line(n), 0.0), NoiseConfig::ideal())
    }

    /// `sim` pinned to the serial frame engine.
    fn serial(sim: &Simulator) -> Simulator {
        Simulator {
            engine: crate::Engine::Stabilizer,
            ..sim.clone()
        }
    }

    #[test]
    fn supports_clifford_diagonals_and_feed_forward() {
        let mut ok = Circuit::new(2, 1);
        ok.h(0)
            .ecr(0, 1)
            .rz(std::f64::consts::FRAC_PI_2, 1)
            .measure(0, 0);
        assert!(stabilizer_supports(&sched(&ok)));
        // Arbitrary-angle *diagonal* rotations fold into the banks.
        let mut diag = Circuit::new(2, 1);
        diag.rz(0.3, 0).rzz(0.7, 0, 1).append(Gate::T, [1]);
        diag.measure(0, 0);
        assert!(stabilizer_supports(&sched(&diag)));
        // Non-diagonal non-Clifford rotations stay out.
        let mut bad = Circuit::new(1, 0);
        bad.append(Gate::Rx(0.3), [0]);
        assert_eq!(
            stabilizer_check(&sched(&bad)),
            Err(SimError::NotClifford { gate: "rx" })
        );
        // Conditional Paulis and conditional diagonal rotations are
        // first-class feed-forward...
        let mut cond = Circuit::new(2, 1);
        cond.measure(0, 0)
            .gate_if(Gate::X, [1], 0, true)
            .gate_if(Gate::Rz(0.4), [1], 0, true);
        assert!(stabilizer_supports(&sched(&cond)));
        // ...conditional basis-changing gates are not.
        let mut bad_cond = Circuit::new(2, 1);
        bad_cond.measure(0, 0).gate_if(Gate::H, [1], 0, true);
        assert_eq!(
            stabilizer_check(&sched(&bad_cond)),
            Err(SimError::UnsupportedConditional { gate: "h" })
        );
        // Conditions must read the packed 64-bit classical register.
        let mut wide = Circuit::new(2, 70);
        wide.measure(0, 65).gate_if(Gate::X, [1], 65, true);
        assert_eq!(
            stabilizer_check(&sched(&wide)),
            Err(SimError::ConditionalClbitOutOfRange { clbit: 65, max: 64 })
        );
    }

    #[test]
    fn conditional_pauli_feed_forward_is_exact() {
        let sim = ideal(2);
        let eng = serial(&sim);
        // |1⟩ outcome fires the X: deterministic |11⟩.
        let mut fire = Circuit::new(2, 2);
        fire.x(0)
            .measure(0, 0)
            .gate_if(Gate::X, [1], 0, true)
            .measure(1, 1);
        let res = eng.run_counts(&sched(&fire), 100, 5).unwrap();
        assert!((res.probability(0b11) - 1.0).abs() < 1e-12);
        // |0⟩ outcome skips it: deterministic |00⟩.
        let mut skip = Circuit::new(2, 2);
        skip.measure(0, 0)
            .gate_if(Gate::X, [1], 0, true)
            .measure(1, 1);
        let res = eng.run_counts(&sched(&skip), 100, 5).unwrap();
        assert!((res.probability(0b00) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn feed_forward_bell_distribution_is_deterministic() {
        // The Fig. 9 protocol, ideal: GHZ, X-basis aux measurement,
        // conditional Z correction, disentangle. Both data bits must
        // be 0 on every shot, for either aux outcome — only exact
        // per-shot feed-forward gets this right.
        let sim = ideal(3);
        let eng = serial(&sim);
        let mut qc = Circuit::new(3, 3);
        qc.h(0).cx(0, 1).cx(1, 2);
        qc.h(0).measure(0, 0);
        qc.gate_if(Gate::Z, [1], 0, true);
        qc.cx(1, 2).h(1);
        qc.measure(1, 1).measure(2, 2);
        let res = eng.run_counts(&sched(&qc), 400, 9).unwrap();
        for &k in res.counts.keys() {
            assert_eq!(k & 0b110, 0, "data bits must stay 0, got key {k:#b}");
        }
        assert!((res.marginal_one(0) - 0.5).abs() < 0.1, "aux is unbiased");
    }

    #[test]
    fn conditional_clbit_values_follow_the_latest_write() {
        // The condition reads the bit's value at execution time, not
        // the first measurement's: overwrite the bit, then fire.
        let sim = ideal(3);
        let eng = serial(&sim);
        let mut qc = Circuit::new(3, 2);
        qc.x(0).measure(0, 0); // bit 0 = 1
                               // Barrier keeps the second measurement *after* the first in
                               // time (ASAP would otherwise start it at t = 0).
        qc.barrier(vec![0, 1, 2]);
        qc.measure(1, 0); // overwritten: bit 0 = 0
        qc.gate_if(Gate::X, [2], 0, true).measure(2, 1);
        let res = eng.run_counts(&sched(&qc), 80, 3).unwrap();
        assert!(
            (res.probability(0b00) - 1.0).abs() < 1e-12,
            "overwritten bit must suppress the conditional"
        );
    }

    #[test]
    fn ideal_bell_counts_match_physics() {
        let sim = ideal(2);
        let eng = serial(&sim);
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let res = eng.run_counts(&sched(&qc), 2000, 7).unwrap();
        assert_eq!(res.shots, 2000);
        let p00 = res.probability(0b00);
        let p11 = res.probability(0b11);
        assert!((p00 + p11 - 1.0).abs() < 1e-12, "only correlated outcomes");
        assert!((p00 - 0.5).abs() < 0.05, "fair split: {p00}");
    }

    #[test]
    fn measurement_randomness_across_shots() {
        // H;M must be ~50/50 across shots even with zero noise — the
        // init-Z randomization supplies the entropy.
        let sim = ideal(1);
        let eng = serial(&sim);
        let mut qc = Circuit::new(1, 1);
        qc.h(0).measure(0, 0);
        let res = eng.run_counts(&sched(&qc), 4000, 3).unwrap();
        assert!(
            (res.probability(1) - 0.5).abs() < 0.04,
            "p1 {}",
            res.probability(1)
        );
    }

    #[test]
    fn repeated_measurement_is_consistent_within_a_shot() {
        let sim = ideal(1);
        let eng = serial(&sim);
        let mut qc = Circuit::new(1, 2);
        qc.h(0).measure(0, 0).measure(0, 1);
        let res = eng.run_counts(&sched(&qc), 500, 5).unwrap();
        assert_eq!(
            res.probability(0b01) + res.probability(0b10),
            0.0,
            "bits agree"
        );
    }

    #[test]
    fn ideal_expectations_are_exact() {
        let sim = ideal(2);
        let eng = serial(&sim);
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        let sc = sched(&qc);
        let obs = [
            PauliString::parse("ZZ").unwrap(),
            PauliString::parse("XX").unwrap(),
            PauliString::parse("YY").unwrap(),
            PauliString::parse("ZI").unwrap(),
        ];
        let got = eng.expect_paulis(&sc, &obs, 50, 9).unwrap();
        assert!((got[0] - 1.0).abs() < 1e-12);
        assert!((got[1] - 1.0).abs() < 1e-12);
        assert!((got[2] + 1.0).abs() < 1e-12);
        assert!(got[3].abs() < 1e-12);
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
        let eng = serial(&sim);
        let mut qc = Circuit::new(1, 1);
        qc.measure(0, 0);
        let res = eng.run_counts(&sched(&qc), 4000, 17).unwrap();
        assert!((res.probability(1) - 0.2).abs() < 0.03);
    }

    #[test]
    fn x2_echo_cancels_quasistatic_noise() {
        // The frame engine must preserve DD refocusing: with the echo
        // the pending bank cancels *before* any twirl, so the Ramsey
        // contrast stays perfect; without it the twirl dephases.
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].quasistatic_khz = 50.0;
        let cfg = NoiseConfig {
            quasistatic: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        let eng = serial(&sim);
        let z = PauliString::parse("Z").unwrap();

        let mut bare = Circuit::new(1, 0);
        bare.h(0).delay(4000.0, 0).h(0);
        let z_bare = eng
            .expect_paulis(&sched(&bare), std::slice::from_ref(&z), 400, 11)
            .unwrap()[0];
        assert!(z_bare < 0.8, "bare Ramsey dephases: {z_bare}");

        let mut echo = Circuit::new(1, 0);
        echo.h(0).delay(2000.0, 0).x(0).delay(2000.0, 0).h(0);
        let z_echo = eng
            .expect_paulis(&sched(&echo), std::slice::from_ref(&z), 400, 11)
            .unwrap()[0];
        assert!(
            (z_echo - 1.0).abs() < 1e-12,
            "echo refocuses exactly: {z_echo}"
        );
    }

    #[test]
    fn staggered_dd_beats_aligned_under_twirl() {
        // The aligned sequence leaves the ZZ bank full at the final
        // flush (twirled into ZZ flips); staggering zeroes it.
        let dev = uniform_device(Topology::line(2), 80.0);
        let sim = Simulator::with_config(dev, NoiseConfig::coherent_only());
        let eng = serial(&sim);
        let durations = GateDurations {
            one_qubit: 0.0,
            ..GateDurations::default()
        };
        let sched0 = |qc: &Circuit| schedule_asap(qc, durations);
        let tau = 2000.0;
        let mut aligned = Circuit::new(2, 0);
        aligned.h(0).h(1);
        aligned.barrier(Vec::<usize>::new());
        aligned.delay(tau, 0).delay(tau, 1);
        aligned.x(0).x(1);
        aligned.delay(tau, 0).delay(tau, 1);
        aligned.x(0).x(1);
        aligned.barrier(Vec::<usize>::new());
        aligned.h(0).h(1);
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
        let za = eng
            .expect_paulis(&sched0(&aligned), std::slice::from_ref(&z), 600, 1)
            .unwrap()[0];
        let zs = eng
            .expect_paulis(&sched0(&staggered), std::slice::from_ref(&z), 600, 1)
            .unwrap()[0];
        assert!(
            (zs - 1.0).abs() < 1e-12,
            "staggered cancels everything: {zs}"
        );
        // Aligned: twirled ZZ leaves ⟨Z⟩ ≈ 1 − 2·sin²(θ/2) = cos θ.
        let theta = ca_device::phase_rad(80.0, 2.0 * tau);
        assert!(
            (za - theta.cos()).abs() < 0.1,
            "aligned ≈ cos θ: {za} vs {}",
            theta.cos()
        );
    }

    #[test]
    fn t1_decay_statistics_approximate_dense() {
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].t1_us = 50.0;
        dev.calibration.qubits[0].t2_us = 100.0;
        let cfg = NoiseConfig {
            decoherence: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        let eng = serial(&sim);
        let mut qc = Circuit::new(1, 1);
        qc.x(0).delay(50_000.0, 0).measure(0, 0);
        let res = eng.run_counts(&sched(&qc), 4000, 13).unwrap();
        // Twirled damping decays the excited population as
        // 1 − γ/2 (X and Y kicks re-equilibrate) rather than 1 − γ;
        // accept the twirl approximation's band around e^{-1}.
        let p1 = res.probability(1);
        assert!(p1 > 0.2 && p1 < 0.75, "twirled T1 decay in band: {p1}");
    }

    #[test]
    fn large_clifford_circuit_runs_fast() {
        // 60 qubits — impossible dense, instant with frames.
        let n = 60;
        let dev = uniform_device(Topology::line(n), 60.0);
        let sim = Simulator::with_config(dev, NoiseConfig::default());
        let eng = serial(&sim);
        let mut qc = Circuit::new(n, n);
        for q in 0..n {
            qc.h(q);
        }
        for q in (0..n - 1).step_by(2) {
            qc.ecr(q, q + 1);
        }
        for q in 0..n {
            qc.measure(q, q);
        }
        let res = eng.run_counts(&sched(&qc), 200, 21).unwrap();
        assert_eq!(res.shots, 200);
        assert_eq!(res.num_clbits, n);
    }

    #[test]
    fn arity_mismatch_is_an_error_not_a_panic() {
        // Construct the malformed instruction directly (the builder's
        // debug assertion would catch it in dev builds; release-built
        // callers and deserialized circuits reach the engine).
        let sim = ideal(3);
        let eng = serial(&sim);
        let mut qc = Circuit::new(3, 1);
        qc.push(ca_circuit::Instruction {
            gate: Gate::X,
            qubits: vec![0, 1, 2],
            clbit: None,
            condition: None,
            merged: false,
        });
        qc.measure(0, 0);
        let err = eng.run_counts(&sched(&qc), 10, 1).unwrap_err();
        assert_eq!(
            err,
            SimError::UnsupportedGateArity {
                gate: "x",
                expected: 1,
                got: 3
            }
        );
    }
}

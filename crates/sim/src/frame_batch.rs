//! Bit-parallel batched Pauli-frame engine: 64 shots per machine word.
//!
//! The serial sampler in [`crate::pauli_frame`] propagates one frame
//! per shot. This engine packs the frames of 64 shots into one `u64`
//! *bit-plane per qubit* (`fx[q]`/`fz[q]`, bit `j` = shot-lane `j`)
//! and conjugates all 64 frames per gate with a handful of word-wide
//! XOR/AND operations — the standard Stim-style batching that turns
//! the per-gate cost from O(shots) into O(shots/64).
//!
//! ## One program, two interpreters
//!
//! The pending Z/ZZ banks are RNG-*independent* (the stochastic rate
//! multiplies the signed time only at flush), so `BatchPlan::from_frame`
//! walks them **once per circuit** into a linear, seed-free [`BatchOp`]
//! program: the only code that accrues, toggles and flushes banks. The
//! serial engine ([`crate::Engine::Stabilizer`]) interprets it one shot
//! at a time, this engine 64 lanes per word.
//!
//! ## Why the counts are bit-identical to the serial engine
//!
//! Ignoring signs (frames never need them), conjugation by a Clifford
//! acts **GF(2)-linearly** on a Pauli's symplectic bits: the image of
//! `Y = i·XZ` is the XOR of the images of `X` and `Z`. Each cached
//! conjugation table therefore collapses to a tiny GF(2) matrix
//! ([`Symp1`]: 2×2, [`Symp2`]: 4×4), which this engine applies
//! word-wise and the serial engine one bit at a time.
//!
//! Every noise draw is a pure hash of `(seed, shot, site)`
//! ([`crate::plan::shot_site_seed`]), where the site names the draw's
//! structural location (noise class, plan-op index, qubit/edge —
//! [`crate::plan::site`]). A uniform draw is read MSB-first as
//! bit-planes ([`crate::plan::plane`]), each a hash of
//! `(seed, 64-shot word, site, k)` whose bit `j` belongs to lane `j`.
//! The serial engine reads its one lane bit from the same planes
//! ([`crate::plan::lt_lane`]), so lane `j` of word `w` makes exactly
//! the decisions shot `64·w + j` makes, whatever order either engine
//! evaluates them in. At run time a strip hashes every op's noise masks
//! 64 lanes per word and then applies them to the planes word-wise.
//!
//! The result: classical counts are bit-for-bit equal to the serial
//! engine's for any seed, any shot count (tail strips simply run fewer
//! lanes), and any worker-thread count (strips are independent;
//! expectation sums are reduced in strip order, and each shot
//! contributes an integer ±1, so even the f64 accumulations are
//! exact).
//!
//! That equality checks what this engine does bit-parallel: block
//! ladders, per-lane noise codes and bank tables (the serial engine
//! computes each flush threshold itself and never reads the tables),
//! output-cone pruning, sharding and strip reductions. The bank walk
//! both share is checked against the dense engine
//! (`frame_batch_bank_draws_match_dense_ramsey`).
//!
//! ## Output-cone pruning
//!
//! A run samples only what its outputs can see. Before the strips
//! run, [`BatchPlan::liveness`] walks the program backwards from the
//! outputs — the measured clbits for counts, the observable supports
//! for expectations and flips — and marks a noise site live only when
//! its mask can reach one under the frame propagation rules. The
//! sampling pass hashes live sites only (and derives a qubit's
//! per-lane noise codes only when one of its bank flushes is live);
//! the propagation pass reads live words only. A dead site's mask
//! would have landed on frame planes no output reads, and every
//! draw is a pure hash of `(seed, shot, site)`, so skipping it moves
//! no other draw: pruned output is bit-identical to the unpruned
//! serial engine. On a sparse layer of a wide device the idle lattice
//! is dead, and sampling cost follows the driven qubits rather than
//! the device width. Feed-forward programs, whose lanes read clbits
//! mid-program, are not pruned.
//!
//! ## Block ladders and per-lane bank thresholds
//!
//! A Bernoulli draw compares each lane's uniform, read MSB-first one
//! bit-plane at a time, against a threshold ([`lt_mask`]). The word
//! ladders run branch-free over blocks of [`LADDER_BLOCK`] planes and
//! test for an exit only between blocks; a step past the point where
//! every lane is decided, or where every remaining threshold bit is 0,
//! adds no lane, so the blocks are exact. A bank flush's threshold
//! differs per lane: each lane carries a one-byte noise code, the
//! flush transposes its lanes' top threshold bytes into
//! [`LADDER_BLOCK`] threshold words for one block, and the lanes that
//! block leaves undecided (about 1 in 256) finish one by one on their
//! own threshold ([`bank_mask`]).
//!
//! Classical feed-forward batches too: a conditional gate becomes a
//! lane-masked [`BatchOp::CondGate`] whose per-lane firing decision
//! is read from the lane's packed classical key and XOR-ed against
//! the shared reference run's — the serial engine's exact rule,
//! evaluated 64 shots at a time — while conditional *diagonal*
//! rotations compile away entirely into the precomputed banks.

use crate::error::SimError;
use crate::executor::Simulator;
use crate::insert::InsertionSet;
use crate::noise::{damping_prob, dephasing_prob, t_phi_us};
use crate::pauli_frame::{FramePlan, ItemOp, RefBits};
use crate::plan::{
    bern_theta, bern_threshold, damping_thresholds, fair_plane, ladder_step, lattice_idx,
    lattice_value, lt_mask, lt_masks, map_batches, pick, plane, shot_key, site, site_draw,
    worker_count, ExecutionPlan, PlanOp, LADDER_BLOCK, LATTICE_STEPS,
};
use crate::result::{PauliFlips, RunResult};
use crate::stabilizer::{pauli_to_bits, Tableau};
use ca_circuit::clifford::Table2Q;
use ca_circuit::pauli::{Pauli, PauliString};
use ca_circuit::Gate;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shot-lanes per batch word.
pub const LANES: usize = 64;

/// Words per cache-blocked strip: the runner walks the program once
/// per `[u64; 4]` strip (256 shot-lanes), quartering the per-op walk
/// overhead relative to single-word batches while the working set
/// (four planes per touched qubit) stays cache-resident.
pub const STRIP_WORDS: usize = 4;

/// Shots per strip.
pub const STRIP_SHOTS: usize = STRIP_WORDS * LANES;

/// The GF(2) symplectic action of a 1q Clifford on one qubit's
/// `(x, z)` frame bits, as lane masks (all-ones or all-zeros).
#[derive(Clone, Copy)]
pub(crate) struct Symp1 {
    /// x-input contribution to the x output.
    xx: u64,
    /// z-input contribution to the x output.
    xz: u64,
    /// x-input contribution to the z output.
    zx: u64,
    /// z-input contribution to the z output.
    zz: u64,
}

impl Symp1 {
    fn from_table(table: &[(i8, Pauli); 4]) -> Self {
        let (x_to_x, x_to_z) = pauli_to_bits(table[Pauli::X.index()].1);
        let (z_to_x, z_to_z) = pauli_to_bits(table[Pauli::Z.index()].1);
        debug_assert_eq!(table[Pauli::I.index()].1, Pauli::I);
        debug_assert_eq!(
            pauli_to_bits(table[Pauli::Y.index()].1),
            (x_to_x ^ z_to_x, x_to_z ^ z_to_z),
            "conjugation must be GF(2)-linear on symplectic bits"
        );
        let m = |b: bool| if b { u64::MAX } else { 0 };
        Self {
            xx: m(x_to_x),
            xz: m(z_to_x),
            zx: m(x_to_z),
            zz: m(z_to_z),
        }
    }

    fn is_identity(&self) -> bool {
        self.xx == u64::MAX && self.xz == 0 && self.zx == 0 && self.zz == u64::MAX
    }

    #[inline]
    pub(crate) fn apply(&self, x: u64, z: u64) -> (u64, u64) {
        ((x & self.xx) ^ (z & self.xz), (x & self.zx) ^ (z & self.zz))
    }
}

/// The GF(2) symplectic action of a 2q Clifford on `(x_a, z_a, x_b,
/// z_b)`: `mat[out][in]` lane masks.
#[derive(Clone, Copy)]
pub(crate) struct Symp2 {
    mat: [[u64; 4]; 4],
}

impl Symp2 {
    fn from_table(table: &Table2Q) -> Self {
        // Images of the four symplectic basis vectors X⊗I, Z⊗I,
        // I⊗X, I⊗Z (table index = first.index() + 4·second.index()).
        let col = |idx: usize| -> [bool; 4] {
            let (_, (pa, pb)) = table[idx];
            let (xa, za) = pauli_to_bits(pa);
            let (xb, zb) = pauli_to_bits(pb);
            [xa, za, xb, zb]
        };
        let cols = [
            col(Pauli::X.index()),
            col(Pauli::Z.index()),
            col(4 * Pauli::X.index()),
            col(4 * Pauli::Z.index()),
        ];
        #[cfg(debug_assertions)]
        for idx in 0..16 {
            let (pa, pb) = (Pauli::from_index(idx % 4), Pauli::from_index(idx / 4));
            let (xa, za) = pauli_to_bits(pa);
            let (xb, zb) = pauli_to_bits(pb);
            let input = [xa, za, xb, zb];
            let mut predicted = [false; 4];
            for (i, &on) in input.iter().enumerate() {
                if on {
                    for o in 0..4 {
                        predicted[o] ^= cols[i][o];
                    }
                }
            }
            let (_, (qa, qb)) = table[idx];
            let (axa, aza) = pauli_to_bits(qa);
            let (axb, azb) = pauli_to_bits(qb);
            debug_assert_eq!(
                predicted,
                [axa, aza, axb, azb],
                "2q conjugation must be GF(2)-linear on symplectic bits"
            );
        }
        let m = |b: bool| if b { u64::MAX } else { 0 };
        let mut mat = [[0u64; 4]; 4];
        for (i, c) in cols.iter().enumerate() {
            for o in 0..4 {
                mat[o][i] = m(c[o]);
            }
        }
        Self { mat }
    }

    /// The identity action: used when an op exists only for its error
    /// draw (bank-folded `Rzz`, whose rotation lives in the banks but
    /// whose pulse still depolarizes).
    fn identity() -> Self {
        let mut mat = [[0u64; 4]; 4];
        for (i, row) in mat.iter_mut().enumerate() {
            row[i] = u64::MAX;
        }
        Self { mat }
    }

    #[inline]
    pub(crate) fn apply(&self, v: [u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (o, slot) in out.iter_mut().enumerate() {
            let row = &self.mat[o];
            *slot = (v[0] & row[0]) ^ (v[1] & row[1]) ^ (v[2] & row[2]) ^ (v[3] & row[3]);
        }
        out
    }
}

/// One crosstalk edge flushing at a [`BatchOp::Flush`] point.
pub(crate) struct FlushEdge {
    pub(crate) a: usize,
    pub(crate) b: usize,
    /// Plan edge index — the site unit (`FLUSH_ZZ` draws are
    /// addressed per edge, not per qubit).
    pub(crate) e: usize,
    /// `bern_theta(θ)` — the ladder threshold of the edge's draw.
    pub(crate) t: u64,
}

/// One step of the precompiled frame program — the one description
/// of the bank evolution. Two interpreters run it: the strip runner
/// ([`BatchPlan::run_strip`]) 64 lanes per word, and the serial engine
/// one shot at a time (`BatchPlan::shot` in [`crate::pauli_frame`]).
/// Each op carries its plan-op index `op`, which addresses the
/// counter-based draws by structural site, so the walk order does not
/// matter.
pub(crate) enum BatchOp {
    /// A twirl-flush point for qubit `q`.
    Flush {
        q: usize,
        /// Plan-op index of this flush (site addressing). The final
        /// end-of-circuit flushes use `plan.ops.len()`.
        op: usize,
        /// Deterministic phase of the flushed Z bank (0.0 when the
        /// bank is empty).
        stat: f64,
        /// Signed idle time of the flushed Z bank, which the shot's
        /// stochastic Z rate multiplies (0.0 when the bank is empty).
        time: f64,
        /// The strip runner's thresholds from `stat` and `time` by
        /// per-lane noise code (`slot · 33 + lattice index`, see
        /// [`bank_table`]); absent when both are exactly zero (no
        /// draw on any lane). The serial engine never reads it.
        table: Option<Arc<[u64]>>,
        /// Every threshold in `table` is below 2⁵⁶: the top bytes the
        /// sampling pass would transpose are all zero, so it skips
        /// the transpose.
        top_zero: bool,
        /// Crosstalk edges flushing here, in incident-edge order.
        edges: Vec<FlushEdge>,
        /// `(γ, p_z)` of the decoherence twirl, when enabled and the
        /// qubit accrued idle time.
        deco: Option<(f64, f64)>,
    },
    /// 1q frame conjugation + depolarizing draw (`err_p = 0` ⇒ none).
    Gate1 {
        q: usize,
        op: usize,
        m: Symp1,
        err_p: f64,
    },
    /// 2q frame conjugation + two-qubit depolarizing draw.
    Gate2 {
        a: usize,
        b: usize,
        op: usize,
        m: Symp2,
        err_p: f64,
    },
    /// Measurement against the shared reference outcome.
    Measure {
        q: usize,
        op: usize,
        /// Ordinal of this measurement in plan order: indexes
        /// [`RefBits::outcomes`], the seed-dependent reference outcome.
        meas: usize,
        clbit: Option<usize>,
        /// Readout flip probability; `None` when readout error is
        /// disabled (no draw at all, matching the serial path).
        readout: Option<f64>,
    },
    /// Reset to |0⟩: clear X, randomize Z.
    Reset { q: usize, op: usize },
    /// Conditional Pauli gate (classical feed-forward): per lane, the
    /// condition is evaluated against the lane's packed classical key
    /// and the Pauli's plane bits are XOR-ed in exactly when the
    /// lane's firing decision differs from the reference run's — the
    /// serial engine's exact rule, word-wide. A fired lane of a
    /// physical pulse additionally draws its depolarizing error.
    CondGate {
        q: usize,
        op: usize,
        /// Plane bits of the injected Pauli.
        x: bool,
        z: bool,
        clbit: usize,
        value: bool,
        /// Conditional ordinal: indexes [`RefBits::fired`], whether
        /// the shared reference run fired the gate.
        cond: usize,
        /// 1q depolarizing probability for fired lanes (0 ⇒ no draw).
        err_p: f64,
    },
    /// Per-shot Pauli-insertion anchor for a scheduled item: applies
    /// whatever insertions the run's [`InsertionSet`] carries for the
    /// batch's shot-lanes at this item. RNG-free (a pure plane XOR),
    /// so it exists in every plan at zero cost to plain runs and
    /// keeps insertion runs bit-identical to the serial sampler.
    Anchor { item: usize },
}

impl BatchOp {
    /// The qubit whose sites key every draw this op makes — the
    /// shard owning this qubit samples this op (see [`crate::shard`]).
    /// A 2q gate's hit/selector sites address its first qubit only;
    /// flush edge draws are keyed by plan edge id, and each edge id is
    /// reachable from exactly one flush, so they follow the flush's
    /// qubit. Anchors draw nothing and nominally belong to qubit 0.
    fn owner(&self) -> usize {
        match self {
            BatchOp::Flush { q, .. }
            | BatchOp::Gate1 { q, .. }
            | BatchOp::Measure { q, .. }
            | BatchOp::Reset { q, .. }
            | BatchOp::CondGate { q, .. } => *q,
            BatchOp::Gate2 { a, .. } => *a,
            BatchOp::Anchor { .. } => 0,
        }
    }

    /// Noise sites this op samples: the independent draw groups the
    /// output-cone pruner marks live or dead one by one (see
    /// [`Liveness`]). In push order: a flush's bank, each of its
    /// edges, then its decoherence pair; a gate's error (all its mask
    /// words come from one hit draw); a measurement's readout flip,
    /// then its post-collapse Z; a reset's Z.
    fn sites(&self) -> usize {
        match self {
            BatchOp::Flush {
                table, edges, deco, ..
            } => usize::from(table.is_some()) + edges.len() + usize::from(deco.is_some()),
            BatchOp::Gate1 { err_p, .. }
            | BatchOp::Gate2 { err_p, .. }
            | BatchOp::CondGate { err_p, .. } => usize::from(*err_p > 0.0),
            BatchOp::Measure { readout, .. } => {
                1 + usize::from(matches!(readout, Some(p) if *p > 0.0))
            }
            BatchOp::Reset { .. } => 1,
            BatchOp::Anchor { .. } => 0,
        }
    }

    /// Mask-buffer words per strip word of this op's site `k` when it
    /// is live: the decoherence pair pushes X and Z, a 1q error X and
    /// Z, a 2q error both qubits' X and Z, every other site one Z (or
    /// readout) word. Must stay in lockstep with both the sampling
    /// pushes and the propagation `next!()` consumption.
    fn site_words(&self, k: usize) -> usize {
        match self {
            BatchOp::Flush { deco, .. } if deco.is_some() && k + 1 == self.sites() => 2,
            BatchOp::Gate1 { .. } | BatchOp::CondGate { .. } => 2,
            BatchOp::Gate2 { .. } => 4,
            _ => 1,
        }
    }
}

/// The outputs a run reads, which seed the output-cone pruner.
pub(crate) enum Outputs<'a> {
    /// Classical counts: every clbit below [`LANES`] (the packed key).
    Clbits,
    /// Observable parities over the final frame planes, as support
    /// plane selectors `(qubit, x, z)`.
    Support(&'a [(usize, bool, bool)]),
}

/// Which noise sites of a batch program can reach a run's outputs,
/// and the compacted mask-buffer layout that follows.
///
/// Site indices: the initial-Z draw of qubit `q` is site `q`; op `i`'s
/// draw groups ([`BatchOp::sites`]) follow from
/// [`BatchPlan::site_base`]`[i]`. A dead site is neither hashed by the
/// sampling pass nor read by the propagation pass: its mask would
/// only reach frame planes no output reads. No other site's draw
/// moves, because every draw is a pure hash of `(seed, shot, site)`.
pub(crate) struct Liveness {
    site: Vec<bool>,
    /// Per qubit: its row in the sampling pass's per-lane noise-code
    /// bytes, or [`NO_CODES`]. Only a qubit with a live bank flush
    /// reads its codes, so only those qubits get a row.
    codes: Vec<u32>,
    /// The qubits with a row, ascending: row `r` belongs to
    /// `coded[r]`, so a contiguous qubit range owns a contiguous run
    /// of rows.
    coded: Vec<usize>,
    /// Per op: mask-buffer words per strip word its live sites push
    /// (the unit the sharded merge copies per op).
    words: Vec<u32>,
    /// Mask-buffer words per strip word: the sampling pass pushes
    /// exactly `stride · wc` words, in the order the propagation pass
    /// consumes them.
    stride: usize,
}

/// [`Liveness::codes`] of a qubit no live bank flush reads.
const NO_CODES: u32 = u32::MAX;

impl Liveness {
    /// Live sites, for the observability counters.
    fn live_count(&self) -> usize {
        self.site.iter().filter(|&&l| l).count()
    }
}

/// The seed-free frame program both frame engines run.
///
/// Owns its data like [`FramePlan`]: a fully compiled, cacheable
/// `Send + Sync` artifact (the session layer stores one per circuit
/// behind an [`std::sync::Arc`] and shares it across seeds and runs).
pub struct BatchPlan {
    pub(crate) frame: FramePlan,
    pub(crate) ops: Vec<BatchOp>,
    n: usize,
    /// Per op: index of its first noise site (see [`Liveness`]).
    site_base: Vec<usize>,
    /// Noise sites in the whole program, initial-Z sites included.
    sites: usize,
    /// Whether the program carries classical feed-forward: lanes then
    /// read clbits mid-program, and the pruner keeps every site.
    feed_forward: bool,
}

/// Bank-flush thresholds for every per-lane noise code: code
/// `slot · LATTICE_STEPS + idx` holds
/// `bern_theta(stat + phase_rad(sign · δ + lattice(idx) · σ, time))`
/// with `sign = [0, +1, −1][slot]` — the exact f64 expression the
/// serial sampler evaluates from [`crate::noise::ShotNoise::sample_v2`]
/// and [`crate::noise::ShotNoise::z_rate_khz`], so both engines
/// compare identical hash words against identical thresholds. `cp`/`qk` are the *gated*
/// per-qubit rates (0.0 when the channel is off), mirroring the
/// sampler's gating bit for bit.
fn bank_table(stat: f64, time: f64, cp: f64, qk: f64) -> Arc<[u64]> {
    // Twirl randomizes `stat` per flush, so memoization rarely hits
    // and the sin cost here is the dominant compile expense. Only the
    // codes the runtime can emit need fresh entries: with parity
    // gated off (`cp == 0`) every lane lands in slot 0, and with
    // quasistatic gated off (`qk == 0`) every lattice index collapses
    // to `det = 0` — the unreachable / collapsed entries are filled
    // by copy, cutting the per-table sin count up to 99×.
    let mut t = Vec::with_capacity(3 * LATTICE_STEPS);
    for sign in [0.0f64, 1.0, -1.0] {
        if sign != 0.0 && cp <= 0.0 {
            t.extend_from_within(0..LATTICE_STEPS);
            continue;
        }
        if qk > 0.0 {
            for idx in 0..LATTICE_STEPS {
                let rate = sign * cp + lattice_value(idx) * qk;
                t.push(bern_theta(stat + ca_device::phase_rad(rate, time)));
            }
        } else {
            let v = bern_theta(stat + ca_device::phase_rad(sign * cp, time));
            t.extend(std::iter::repeat_n(v, LATTICE_STEPS));
        }
    }
    t.into()
}

/// Transposes an 8×8 bit matrix held one row per byte: bit `c` of
/// byte `r` moves to bit `r` of byte `c`.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// The first [`LADDER_BLOCK`] transposed threshold words of a bank
/// flush: entry `k` holds the lanes whose own threshold
/// `table[codes[j]]` has MSB-first bit `k` set. Each group of eight
/// lanes packs its thresholds' top bytes into one word, and one 8×8
/// transpose turns it into eight plane-aligned bytes: byte `7 − k` of
/// the transpose holds bit `7 − k` of each top byte, which is
/// MSB-first bit `k` of each threshold.
#[inline]
fn transposed_thresholds(table: &[u64], codes: &[u8]) -> [u64; LADDER_BLOCK as usize] {
    let mut tp = [0u64; LADDER_BLOCK as usize];
    for (g, group) in codes.chunks_exact(8).enumerate() {
        let mut top = 0u64;
        for (i, &c) in group.iter().enumerate() {
            top |= (table[c as usize] >> 56) << (8 * i);
        }
        let cols = transpose8(top);
        for (k, t) in tp.iter_mut().enumerate() {
            *t |= (cols >> (8 * (7 - k)) & 0xFF) << (8 * g);
        }
    }
    tp
}

/// The lanes of one strip word whose uniform draw at a bank flush's
/// site (plane base `base`) is below their own threshold
/// `table[codes[j]]`: bit `j` equals `lt_lane(base, j, table[codes[j]])`.
/// One branch-free block of [`LADDER_BLOCK`] planes over the
/// transposed thresholds decides a lane with probability 1 − 2⁻⁸;
/// the rare lanes still undecided finish one by one on their own
/// threshold from plane [`LADDER_BLOCK`] on. `top_zero` says every
/// threshold in `table` is below 2⁵⁶, so the transposed words are
/// all zero and are not built.
fn bank_mask(base: u64, table: &[u64], codes: &[u8], top_zero: bool) -> u64 {
    let tp = if top_zero {
        [0; LADDER_BLOCK as usize]
    } else {
        transposed_thresholds(table, codes)
    };
    let mut zm = 0u64;
    let mut undecided = u64::MAX;
    for (k, &tk) in tp.iter().enumerate() {
        ladder_step(&mut zm, &mut undecided, tk, plane(base, k as u32));
    }
    while undecided != 0 {
        let j = undecided.trailing_zeros();
        undecided &= undecided - 1;
        let t = table[codes[j as usize] as usize];
        for k in LADDER_BLOCK..64 {
            if t << k == 0 {
                break;
            }
            let ubit = plane(base, k) >> j & 1;
            if ubit != t >> (63 - k) & 1 {
                zm |= (1 - ubit) << j;
                break;
            }
        }
    }
    zm
}

/// The scalar pending banks of the one bank walk
/// ([`BatchPlan::from_frame`]), and the program it emits.
struct Banks<'a> {
    sim: &'a Simulator,
    plan: &'a ExecutionPlan,
    /// Per qubit: the Z bank's deterministic phase.
    stat: Vec<f64>,
    /// Per qubit: the Z bank's signed idle time.
    time: Vec<f64>,
    /// Per plan edge: the ZZ bank's phase.
    rzz: Vec<f64>,
    /// Per qubit: idle time since its last decoherence twirl.
    deco_dt: Vec<f64>,
    /// Bank tables memoized on the exact f64 inputs: a homogeneous
    /// brickwork workload produces only a handful of distinct
    /// (stat, time, δ, σ) combinations, so the 99-entry sin tables
    /// cost next to nothing at compile time.
    tables: BTreeMap<(u64, u64, u64, u64), Arc<[u64]>>,
    ops: Vec<BatchOp>,
}

impl Banks<'_> {
    /// Twirls qubit `q`'s banks at plan op `op_i`: emits one
    /// [`BatchOp::Flush`] for its Z bank, the nonzero ZZ banks of its
    /// incident edges and its accrued decoherence, and empties them.
    /// Emits nothing when all three are empty.
    fn flush(&mut self, q: usize, op_i: usize) {
        let (config, plan) = (&self.sim.config, self.plan);
        let cal = &self.sim.device.calibration.qubits[q];
        let (stat, time) = (self.stat[q], self.time[q]);
        self.stat[q] = 0.0;
        self.time[q] = 0.0;
        let table = (stat != 0.0 || time != 0.0).then(|| {
            let cp = if config.charge_parity && cal.charge_parity_khz > 0.0 {
                cal.charge_parity_khz
            } else {
                0.0
            };
            let qk = if config.quasistatic && cal.quasistatic_khz > 0.0 {
                cal.quasistatic_khz
            } else {
                0.0
            };
            self.tables
                .entry((stat.to_bits(), time.to_bits(), cp.to_bits(), qk.to_bits()))
                .or_insert_with(|| bank_table(stat, time, cp, qk))
                .clone()
        });
        let top_zero = table
            .as_ref()
            .is_some_and(|t| t.iter().all(|&v| v >> 56 == 0));
        let mut edges = Vec::new();
        for &e in &plan.incident[q] {
            let th = self.rzz[e];
            if th.abs() > 1e-15 {
                self.rzz[e] = 0.0;
                let (a, b) = plan.edge_pairs[e];
                edges.push(FlushEdge {
                    a,
                    b,
                    e,
                    t: bern_theta(th),
                });
            }
        }
        let deco = if config.decoherence && self.deco_dt[q] > 0.0 {
            let dt = self.deco_dt[q];
            self.deco_dt[q] = 0.0;
            Some((
                damping_prob(dt, cal.t1_us),
                dephasing_prob(dt, t_phi_us(cal.t1_us, cal.t2_us)),
            ))
        } else {
            None
        };
        if table.is_some() || !edges.is_empty() || deco.is_some() {
            self.ops.push(BatchOp::Flush {
                q,
                op: op_i,
                stat,
                time,
                table,
                top_zero,
                edges,
                deco,
            });
        }
    }
}

impl BatchPlan {
    /// Builds the frame plan and compiles it into the frame program
    /// (see [`Self::from_frame`]).
    #[cfg(test)]
    pub(crate) fn build(
        sim: &Simulator,
        sc: &ca_circuit::ScheduledCircuit,
    ) -> Result<Self, SimError> {
        let sc = Arc::new(sc.clone());
        let plan = ExecutionPlan::build_arc(sc.clone(), &sim.device, &sim.config)?;
        let frame = FramePlan::build_with_plan(sc, Arc::new(plan))?;
        Ok(Self::from_frame(sim, frame))
    }

    /// Compiles the frame program for an already-built frame plan:
    /// the one walk of the pending Z/ZZ banks. It accrues the
    /// timeline's phases and signed times in scalar banks, negates
    /// them at pulses that conjugate `Z → −Z`, and emits a
    /// [`BatchOp::Flush`] wherever the frame model twirls them; both
    /// frame engines interpret the result. The program is seed-free:
    /// runs take the seed's reference bits ([`FramePlan::reference`])
    /// separately, so one program serves every seed of a circuit. It
    /// follows the instance's own bank toggles (twirl X/Y pulses flip
    /// bank signs), so every twirl instance compiles its own program
    /// over the shared timeline plan.
    pub(crate) fn from_frame(sim: &Simulator, frame: FramePlan) -> Self {
        let _s = ca_obs::span("sim.compile", "batch-program");
        let n = frame.sc.num_qubits;
        let config = &sim.config;
        let plan = &*frame.plan;
        let mut banks = Banks {
            sim,
            plan,
            stat: vec![0.0; n],
            time: vec![0.0; n],
            rzz: vec![0.0; plan.edge_pairs.len()],
            deco_dt: vec![0.0; n],
            tables: BTreeMap::new(),
            ops: Vec::new(),
        };
        let mut meas_i = 0usize;

        // Only qubits an item can flush or negate mid-stream (those an
        // `Apply` or `Project` op touches) need their signed time
        // accrued segment by segment; every other qubit's bank is read
        // exactly once (at the final flush), so their accrual
        // collapses to one shared scalar. Idle sign is +1, so the
        // shared accumulator performs the identical f64 add sequence
        // a per-qubit walk would — the final bank values are
        // bit-identical.
        let mut streamed = vec![false; n];
        for op in plan.ops.iter() {
            if let PlanOp::Project { item } | PlanOp::Apply { item } = *op {
                for &q in &frame.sc.items[item].instruction.qubits {
                    streamed[q] = true;
                }
            }
        }
        let streamed_list: Vec<usize> = (0..n).filter(|&q| streamed[q]).collect();
        let mut idle_elapsed = 0.0f64;

        for (op_i, op) in plan.ops.iter().enumerate() {
            match *op {
                PlanOp::Segment(i) => {
                    let seg = &plan.segments[i];
                    for &(q, th) in &seg.rz_static {
                        banks.stat[q] += th;
                    }
                    for &(e, th) in &plan.seg_edges[i] {
                        banks.rzz[e] += th;
                    }
                    let dt = seg.dt();
                    idle_elapsed += dt;
                    for &q in &streamed_list {
                        banks.time[q] += seg.signed_dt(q);
                        banks.deco_dt[q] += dt;
                    }
                }
                PlanOp::Project { item } => {
                    let si = &frame.sc.items[item];
                    let q = si.instruction.qubits[0];
                    banks.flush(q, op_i);
                    match si.instruction.gate {
                        Gate::Measure => {
                            meas_i += 1;
                            banks.ops.push(BatchOp::Measure {
                                q,
                                op: op_i,
                                meas: meas_i - 1,
                                clbit: si.instruction.clbit,
                                readout: config
                                    .readout_error
                                    .then(|| sim.device.calibration.qubits[q].readout_err),
                            });
                        }
                        Gate::Reset => banks.ops.push(BatchOp::Reset { q, op: op_i }),
                        _ => unreachable!(), // ca-lint: allow(panic) -- plan construction guarantees the op kind at this slot
                    }
                }
                PlanOp::Apply { item } => {
                    let si = &frame.sc.items[item];
                    // Depolarizing probabilities of the item's pulse (0
                    // with gate error off or for a virtual 1q gate); a
                    // 2q pulse's error scales with its stretch.
                    let err_1q = |q: usize, pulse: bool| {
                        let p = sim.device.calibration.qubits[q].gate_err_1q;
                        if pulse && config.gate_error {
                            p
                        } else {
                            0.0
                        }
                    };
                    let err_2q = |a: usize, b: usize| {
                        let scale = frame
                            .sc
                            .durations
                            .two_qubit_error_scale(&si.instruction.gate);
                        let p = sim.device.calibration.gate_err_2q(a, b) * scale;
                        if config.gate_error {
                            p
                        } else {
                            0.0
                        }
                    };
                    // ca-lint: allow(panic) -- plan construction guarantees unitary items at Apply ops
                    match frame.items[item].as_ref().expect("unitary item") {
                        ItemOp::CondPauli {
                            q,
                            pauli,
                            clbit,
                            value,
                            cond,
                            physical,
                        } => {
                            let q = *q;
                            if *physical {
                                // The bank evolution must stay
                                // shot-independent, so a feed-forward
                                // pulse flushes rather than toggling.
                                banks.flush(q, op_i);
                            }
                            let (x, z) = pauli_to_bits(*pauli);
                            let err_p = err_1q(q, *physical);
                            banks.ops.push(BatchOp::CondGate {
                                q,
                                op: op_i,
                                x,
                                z,
                                clbit: *clbit,
                                value: *value,
                                cond: *cond,
                                err_p,
                            });
                        }
                        ItemOp::BankRz { q, theta } => {
                            banks.stat[*q] += *theta;
                        }
                        ItemOp::BankRzz { a, b, edge, theta } => {
                            banks.rzz[*edge] += *theta;
                            let err_p = err_2q(*a, *b);
                            if err_p > 0.0 {
                                banks.ops.push(BatchOp::Gate2 {
                                    a: *a,
                                    b: *b,
                                    op: op_i,
                                    m: Symp2::identity(),
                                    err_p,
                                });
                            }
                        }
                        ItemOp::CondBankRz { q, theta, edge } => {
                            banks.stat[*q] += *theta;
                            if let Some((e, th)) = edge {
                                banks.rzz[*e] += *th;
                            }
                        }
                        ItemOp::One { q, table, z_sign } => {
                            let q = *q;
                            match z_sign {
                                Some(s) => {
                                    if *s < 0 {
                                        banks.stat[q] = -banks.stat[q];
                                        banks.time[q] = -banks.time[q];
                                        for &e in &plan.incident[q] {
                                            banks.rzz[e] = -banks.rzz[e];
                                        }
                                    }
                                }
                                None => banks.flush(q, op_i),
                            }
                            let m = Symp1::from_table(table);
                            let pulse = !si.instruction.gate.is_virtual() && !si.instruction.merged;
                            let err_p = err_1q(q, pulse);
                            if !m.is_identity() || err_p > 0.0 {
                                banks.ops.push(BatchOp::Gate1 {
                                    q,
                                    op: op_i,
                                    m,
                                    err_p,
                                });
                            }
                        }
                        ItemOp::Two {
                            a,
                            b,
                            table,
                            diagonal,
                        } => {
                            let (a, b) = (*a, *b);
                            if !diagonal {
                                banks.flush(a, op_i);
                                banks.flush(b, op_i);
                            }
                            banks.ops.push(BatchOp::Gate2 {
                                a,
                                b,
                                op: op_i,
                                m: Symp2::from_table(table),
                                err_p: err_2q(a, b),
                            });
                        }
                    }
                    banks.ops.push(BatchOp::Anchor { item });
                }
            }
        }
        let final_op = plan.ops.len();
        for q in 0..n {
            if !streamed[q] {
                // Settle the deferred idle accrual: the shared scalar
                // holds exactly the value the per-qubit walk would
                // have accumulated (idle sign is +1 in every segment).
                banks.time[q] = idle_elapsed;
                banks.deco_dt[q] = idle_elapsed;
            }
            banks.flush(q, final_op);
        }

        let ops = banks.ops;
        let mut site_base = Vec::with_capacity(ops.len());
        let mut sites = n;
        for op in &ops {
            site_base.push(sites);
            sites += op.sites();
        }
        let feed_forward = ops.iter().any(|op| matches!(op, BatchOp::CondGate { .. }));
        Self {
            frame,
            ops,
            n,
            site_base,
            sites,
            feed_forward,
        }
    }

    /// The output cone: walks the program backwards from `outputs`
    /// and marks a noise site live only when its mask can reach an
    /// output under the frame propagation rules. Noise XORs into a
    /// frame plane and never moves liveness; a Clifford moves it
    /// along its symplectic matrix (input `i` is live when it feeds a
    /// live output); a measurement reads its qubit's X plane into a
    /// clbit and overwrites the Z plane; a reset overwrites both.
    /// Feed-forward programs keep every site (a lane's frame then
    /// depends on its clbits mid-program).
    pub(crate) fn liveness(&self, outputs: Outputs<'_>) -> Liveness {
        let n = self.n;
        if self.feed_forward {
            return self.layout(vec![true; self.sites]);
        }
        let mut site = vec![false; self.sites];
        let mut lx = vec![false; n];
        let mut lz = vec![false; n];
        let mut clbit = [false; LANES];
        match outputs {
            Outputs::Clbits => clbit = [true; LANES],
            Outputs::Support(support) => {
                for &(q, x_obs, z_obs) in support {
                    // The parity reads fx under a Z-type letter and
                    // fz under an X-type one (Y reads both).
                    lx[q] |= z_obs;
                    lz[q] |= x_obs;
                }
            }
        }
        for (op, &base) in self.ops.iter().zip(&self.site_base).rev() {
            match op {
                BatchOp::Flush {
                    q,
                    table,
                    edges,
                    deco,
                    ..
                } => {
                    let q = *q;
                    let mut k = base;
                    if table.is_some() {
                        site[k] = lz[q];
                        k += 1;
                    }
                    for edge in edges {
                        site[k] = lz[edge.a] || lz[edge.b];
                        k += 1;
                    }
                    if deco.is_some() {
                        site[k] = lx[q] || lz[q];
                    }
                }
                BatchOp::Gate1 { q, m, err_p, .. } => {
                    let q = *q;
                    if *err_p > 0.0 {
                        site[base] = lx[q] || lz[q];
                    }
                    let (x, z) = (lx[q], lz[q]);
                    lx[q] = (m.xx != 0 && x) || (m.zx != 0 && z);
                    lz[q] = (m.xz != 0 && x) || (m.zz != 0 && z);
                }
                BatchOp::Gate2 { a, b, m, err_p, .. } => {
                    let (a, b) = (*a, *b);
                    let after = [lx[a], lz[a], lx[b], lz[b]];
                    if *err_p > 0.0 {
                        site[base] = after.iter().any(|&l| l);
                    }
                    let before: [bool; 4] =
                        std::array::from_fn(|i| (0..4).any(|o| after[o] && m.mat[o][i] != 0));
                    [lx[a], lz[a], lx[b], lz[b]] = before;
                }
                BatchOp::Measure {
                    q,
                    clbit: c,
                    readout,
                    ..
                } => {
                    let q = *q;
                    let read = c.is_some_and(|c| c < LANES && clbit[c]);
                    let mut k = base;
                    if matches!(readout, Some(p) if *p > 0.0) {
                        site[k] = read;
                        k += 1;
                    }
                    site[k] = lz[q];
                    lz[q] = false;
                    lx[q] |= read;
                    if let Some(c) = c.filter(|&c| c < LANES) {
                        // An earlier write to this clbit is overwritten.
                        clbit[c] = false;
                    }
                }
                BatchOp::Reset { q, .. } => {
                    site[base] = lz[*q];
                    lx[*q] = false;
                    lz[*q] = false;
                }
                // Unreachable: feed-forward programs returned above.
                BatchOp::CondGate { .. } => {}
                BatchOp::Anchor { .. } => {}
            }
        }
        site[..n].copy_from_slice(&lz);
        self.layout(site)
    }

    /// The compacted buffer layout and noise-code rows of a live-site
    /// mask.
    fn layout(&self, site: Vec<bool>) -> Liveness {
        let n = self.n;
        let mut codes = vec![NO_CODES; n];
        let mut stride = site[..n].iter().filter(|&&l| l).count();
        let mut words = Vec::with_capacity(self.ops.len());
        for (op, &base) in self.ops.iter().zip(&self.site_base) {
            let w: usize = (0..op.sites())
                .filter(|&k| site[base + k])
                .map(|k| op.site_words(k))
                .sum();
            words.push(w as u32);
            stride += w;
            if let BatchOp::Flush {
                q, table: Some(_), ..
            } = op
            {
                if site[base] {
                    codes[*q] = 0;
                }
            }
        }
        let coded: Vec<usize> = (0..n).filter(|&q| codes[q] != NO_CODES).collect();
        for (row, &q) in coded.iter().enumerate() {
            codes[q] = row as u32;
        }
        Liveness {
            site,
            codes,
            coded,
            words,
            stride,
        }
    }

    /// [`Self::liveness`] for one run, counted into the
    /// `engine.sites_live` / `engine.sites_pruned` observability
    /// counters (once per run, in program sites). The counters read
    /// only the mask, never the RNG.
    fn pruned(&self, outputs: Outputs<'_>) -> Liveness {
        let live = self.liveness(outputs);
        if ca_obs::enabled() {
            let n = live.live_count();
            ca_obs::counter_add("engine.sites_live", n as u64);
            ca_obs::counter_add("engine.sites_pruned", (self.sites - n) as u64);
        }
        live
    }

    /// The sampling pass for qubits `q_lo..q_hi`: hashes the
    /// range's initial-Z planes and the noise-mask words of every
    /// program op *owned* by a qubit in the range (see
    /// [`BatchOp::owner`]) into `out`, in program order. Called once
    /// with the full range by the unsharded strip path, or once per
    /// contiguous shard by the sharded path — per-shard buffers merged
    /// in op order reproduce the full-range buffer word for word (see
    /// [`crate::shard`]), because every draw here is a pure function
    /// of the hoisted stream keys and the op's own sites. Sites that
    /// `live` marks dead are skipped: they push no words.
    #[allow(clippy::too_many_arguments)]
    fn sample_ops(
        &self,
        sim: &Simulator,
        live: &Liveness,
        wkeys: &[u64; STRIP_WORDS],
        inner: &[u64],
        wc: usize,
        q_lo: usize,
        q_hi: usize,
        out: &mut Vec<u64>,
    ) {
        // Per-lane noise codes (charge-parity slot × detuning lattice
        // index, one byte per lane) of the range's qubits whose codes a
        // live bank flush reads, one row per such qubit. The gating
        // mirrors `ShotNoise::sample_v2` exactly.
        let config = &sim.config;
        let lanes = wc * LANES;
        let rows =
            live.coded.partition_point(|&q| q < q_lo)..live.coded.partition_point(|&q| q < q_hi);
        let mut codes = vec![0u8; rows.len() * lanes];
        for (row, &q) in codes.chunks_exact_mut(lanes).zip(&live.coded[rows.clone()]) {
            let cal = &sim.device.calibration.qubits[q];
            let par = config.charge_parity && cal.charge_parity_khz > 0.0;
            let s = site::id(site::NOISE, 0, q);
            for (c, &key) in row.iter_mut().zip(inner) {
                let h = site_draw(key, s);
                let slot = if par {
                    if h >> 63 & 1 == 1 {
                        1
                    } else {
                        2
                    }
                } else {
                    0
                };
                *c = (slot * LATTICE_STEPS + lattice_idx(h)) as u8;
            }
        }

        // The mask buffer: pushed in the exact order the propagation
        // pass consumes the range's words.
        for q in q_lo..q_hi {
            if !live.site[q] {
                continue;
            }
            let s = site::id(site::INIT_Z, 0, q);
            for w in 0..wc {
                out.push(fair_plane(site_draw(wkeys[w], s)));
            }
        }
        for (bop, &sb) in self.ops.iter().zip(&self.site_base) {
            let owner = bop.owner();
            if owner < q_lo || owner >= q_hi {
                continue;
            }
            match bop {
                BatchOp::Flush {
                    q,
                    op,
                    table,
                    top_zero,
                    edges,
                    deco,
                    ..
                } => {
                    let q = *q;
                    let mut k = sb;
                    if let Some(table) = table.as_ref().filter(|_| live.site[k]) {
                        let s = site::id(site::FLUSH_Z, *op, q);
                        let row = (live.codes[q] as usize - rows.start) * lanes;
                        for w in 0..wc {
                            let lane_codes = &codes[row + w * LANES..row + (w + 1) * LANES];
                            let b = site_draw(wkeys[w], s);
                            out.push(bank_mask(b, table, lane_codes, *top_zero));
                        }
                    }
                    k += usize::from(table.is_some());
                    for edge in edges {
                        if live.site[k] {
                            let s = site::id(site::FLUSH_ZZ, *op, edge.e);
                            for w in 0..wc {
                                out.push(lt_mask(site_draw(wkeys[w], s), edge.t));
                            }
                        }
                        k += 1;
                    }
                    if let Some((gamma, p_z)) = deco.as_ref().filter(|_| live.site[k]) {
                        // Three damping thresholds over one plane
                        // ladder (X on the middle band, Z where the
                        // outer bands disagree), dephasing folded into
                        // the same Z mask word.
                        let ds = site::id(site::DECO_DAMP, *op, q);
                        let ps = site::id(site::DECO_DEPH, *op, q);
                        let ts = damping_thresholds(*gamma);
                        let pt = bern_threshold(*p_z);
                        for w in 0..wc {
                            let (mut mx, mut mz) = (0u64, 0u64);
                            if *gamma > 0.0 {
                                let [m1, m2, m3] = lt_masks(site_draw(wkeys[w], ds), ts);
                                mx = m2;
                                mz = m1 ^ m3;
                            }
                            if *p_z > 0.0 {
                                mz ^= lt_mask(site_draw(wkeys[w], ps), pt);
                            }
                            out.push(mx);
                            out.push(mz);
                        }
                    }
                }
                BatchOp::Gate1 { q, op, m: _, err_p } => {
                    if *err_p > 0.0 && live.site[sb] {
                        let t = bern_threshold(*err_p);
                        let hs = site::id(site::GATE_HIT, *op, *q);
                        let ss = site::id(site::GATE_SEL, *op, *q);
                        for w in 0..wc {
                            let mut hit = lt_mask(site_draw(wkeys[w], hs), t);
                            let mut xm = 0u64;
                            let mut zm = 0u64;
                            while hit != 0 {
                                let j = hit.trailing_zeros() as usize;
                                hit &= hit - 1;
                                let k = pick(site_draw(inner[w * LANES + j], ss), 3) as usize;
                                let (x, z) = pauli_to_bits([Pauli::X, Pauli::Y, Pauli::Z][k]);
                                if x {
                                    xm |= 1 << j;
                                }
                                if z {
                                    zm |= 1 << j;
                                }
                            }
                            out.push(xm);
                            out.push(zm);
                        }
                    }
                }
                BatchOp::Gate2 {
                    a,
                    b: _,
                    op,
                    m: _,
                    err_p,
                } => {
                    if *err_p > 0.0 && live.site[sb] {
                        let t = bern_threshold(*err_p);
                        let hs = site::id(site::GATE_HIT, *op, *a);
                        let ss = site::id(site::GATE_SEL, *op, *a);
                        for w in 0..wc {
                            let mut hit = lt_mask(site_draw(wkeys[w], hs), t);
                            let mut xa = 0u64;
                            let mut za = 0u64;
                            let mut xb = 0u64;
                            let mut zb = 0u64;
                            while hit != 0 {
                                let j = hit.trailing_zeros() as usize;
                                hit &= hit - 1;
                                let k = pick(site_draw(inner[w * LANES + j], ss), 15) as usize + 1;
                                let (x1, z1) = pauli_to_bits(Pauli::from_index(k % 4));
                                let (x2, z2) = pauli_to_bits(Pauli::from_index(k / 4));
                                let bit = 1u64 << j;
                                if x1 {
                                    xa |= bit;
                                }
                                if z1 {
                                    za |= bit;
                                }
                                if x2 {
                                    xb |= bit;
                                }
                                if z2 {
                                    zb |= bit;
                                }
                            }
                            out.push(xa);
                            out.push(za);
                            out.push(xb);
                            out.push(zb);
                        }
                    }
                }
                BatchOp::Measure { q, op, readout, .. } => {
                    let rt = match readout {
                        Some(p) if *p > 0.0 => Some(bern_threshold(*p)),
                        _ => None,
                    };
                    let rs = site::id(site::READOUT, *op, *q);
                    let ms = site::id(site::MEAS_Z, *op, *q);
                    let live_r = live.site[sb];
                    let live_m = live.site[sb + usize::from(rt.is_some())];
                    for w in 0..wc {
                        if let Some(t) = rt.filter(|_| live_r) {
                            out.push(lt_mask(site_draw(wkeys[w], rs), t));
                        }
                        if live_m {
                            out.push(fair_plane(site_draw(wkeys[w], ms)));
                        }
                    }
                }
                BatchOp::Reset { q, op } => {
                    if live.site[sb] {
                        let s = site::id(site::RESET_Z, *op, *q);
                        for w in 0..wc {
                            out.push(fair_plane(site_draw(wkeys[w], s)));
                        }
                    }
                }
                BatchOp::CondGate { q, op, err_p, .. } => {
                    // The hit/selector hashes are pure functions, so
                    // they are sampled for every hit lane here; the
                    // propagation pass masks them by the lanes that
                    // actually fired.
                    if *err_p > 0.0 && live.site[sb] {
                        let t = bern_threshold(*err_p);
                        let hs = site::id(site::GATE_HIT, *op, *q);
                        let ss = site::id(site::GATE_SEL, *op, *q);
                        for w in 0..wc {
                            let mut hit = lt_mask(site_draw(wkeys[w], hs), t);
                            let mut xm = 0u64;
                            let mut zm = 0u64;
                            while hit != 0 {
                                let j = hit.trailing_zeros() as usize;
                                hit &= hit - 1;
                                let k = pick(site_draw(inner[w * LANES + j], ss), 3) as usize;
                                let (ex, ez) = pauli_to_bits([Pauli::X, Pauli::Y, Pauli::Z][k]);
                                if ex {
                                    xm |= 1 << j;
                                }
                                if ez {
                                    zm |= 1 << j;
                                }
                            }
                            out.push(xm);
                            out.push(zm);
                        }
                    }
                }
                BatchOp::Anchor { .. } => {}
            }
        }
    }

    /// Runs one strip of `active ≤ STRIP_SHOTS` shot-lanes starting
    /// at global shot index `base` (a multiple of [`STRIP_SHOTS`]):
    /// `wc = ceil(active/64)` bit-plane words per qubit walk the
    /// program together, so the per-op dispatch cost is paid once per
    /// 256 shots instead of once per 64.
    ///
    /// Every decision is a counter-based hash of `(seed, shot, site)`
    /// — the identical pure function the serial sampler evaluates —
    /// so lane `j` of strip word `w` reproduces shot
    /// `base + 64·w + j` bit-for-bit regardless of walk order, worker
    /// count, or tail occupancy. Order-independence makes the whole
    /// strip two clean passes: a *sampling* pass hashes every noise
    /// decision into a linear mask buffer with no frame state at all,
    /// then a *propagation* pass replays the op stream as
    /// straight-line word arithmetic over the buffer. Lane-uniform
    /// probabilities compare whole 64-lane bit-planes against the
    /// threshold via the [`lt_mask`] ladder (≈ `1 + log₂(1/ε)` planes
    /// instead of 64 scalar draws), evaluated in branch-free blocks of
    /// [`LADDER_BLOCK`] planes. Lane-varying bank thresholds are read
    /// per lane from a one-byte noise code: a flush transposes its
    /// lanes' top threshold bytes into [`LADDER_BLOCK`] threshold
    /// words, walks one block over them, and finishes the rare lanes
    /// still undecided one by one on their own thresholds.
    ///
    /// `shards > 1` additionally fans the sampling pass out across
    /// that many contiguous qubit shards (see [`crate::shard`]) —
    /// a wall-clock knob only, with no effect on the output. `live`
    /// prunes the sampling pass to the run's output cone; dead sites
    /// read zero masks, which only reach frame planes no output reads.
    #[allow(clippy::too_many_arguments)]
    fn run_strip(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        live: &Liveness,
        seed: u64,
        base: usize,
        active: usize,
        ins: &InsertionSet,
        shards: usize,
    ) -> StripOut {
        let n = self.n;
        let mut phase = crate::obs_util::PhaseTimer::start();
        let wc = active.div_ceil(LANES);
        let lanes = wc * LANES;

        // ---- Sampling pass ------------------------------------------------
        // Hoisted stream keys: one mix64 per lane (per-shot draws) and
        // per word (bit-plane draws), reused by every site hash below.
        let mut inner = vec![0u64; lanes];
        for (l, k) in inner.iter_mut().enumerate() {
            *k = shot_key(seed, (base + l) as u64);
        }
        let mut wkeys = [0u64; STRIP_WORDS];
        for (w, k) in wkeys.iter_mut().enumerate().take(wc) {
            *k = shot_key(seed, (base / LANES + w) as u64);
        }

        // Sampling fans out across contiguous qubit shards when the
        // strip has worker threads to spare (see [`crate::shard`]);
        // `shards <= 1` samples the full range inline. Either way the
        // buffer contents are identical word for word, so the shard
        // count never shows up in results.
        let noise = if shards <= 1 {
            let mut noise = Vec::with_capacity(live.stride * wc);
            self.sample_ops(sim, live, &wkeys, &inner, wc, 0, n, &mut noise);
            noise
        } else {
            let ranges = crate::shard::qubit_ranges(n, shards);
            let bufs = map_batches(ranges.len(), Some(shards), |i| {
                let (lo, hi) = ranges[i];
                let mut buf = Vec::with_capacity(live.stride * wc / ranges.len() + wc);
                self.sample_ops(sim, live, &wkeys, &inner, wc, lo, hi, &mut buf);
                buf
            });
            let init_lens: Vec<usize> = ranges
                .iter()
                .map(|&(lo, hi)| live.site[lo..hi].iter().filter(|&&l| l).count() * wc)
                .collect();
            let mut shard_of = vec![0u32; n];
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                for s in &mut shard_of[lo..hi] {
                    *s = i as u32;
                }
            }
            let sched: Vec<(u32, u32)> = self
                .ops
                .iter()
                .zip(&live.words)
                .filter_map(|(bop, &words)| {
                    let words = words * wc as u32;
                    (words > 0).then_some((shard_of[bop.owner()], words))
                })
                .collect();
            crate::shard::merge_op_order(&bufs, &init_lens, &sched, live.stride * wc)
        };
        debug_assert_eq!(noise.len(), live.stride * wc);
        phase.tick_sampling();

        // ---- Propagation pass ---------------------------------------------
        let mut fx = vec![0u64; n * wc];
        let mut fz = vec![0u64; n * wc];
        let mut key_planes = [[0u64; STRIP_WORDS]; LANES];
        let mut cur = 0usize;
        macro_rules! next {
            () => {{
                let v = noise[cur];
                cur += 1;
                v
            }};
        }
        // Initial Z-frame randomization: Z stabilizes |0…0⟩. Dead
        // sites (here and below) read no words; the planes they would
        // have randomized or flipped are read by no output.
        for q in (0..n).filter(|&q| live.site[q]) {
            for w in 0..wc {
                fz[q * wc + w] = next!();
            }
        }
        for (bop, &sb) in self.ops.iter().zip(&self.site_base) {
            match bop {
                BatchOp::Flush {
                    q,
                    table,
                    edges,
                    deco,
                    ..
                } => {
                    let q = *q;
                    let mut k = sb;
                    if table.is_some() {
                        if live.site[k] {
                            for w in 0..wc {
                                fz[q * wc + w] ^= next!();
                            }
                        }
                        k += 1;
                    }
                    for edge in edges {
                        if live.site[k] {
                            for w in 0..wc {
                                let m = next!();
                                fz[edge.a * wc + w] ^= m;
                                fz[edge.b * wc + w] ^= m;
                            }
                        }
                        k += 1;
                    }
                    if deco.is_some() && live.site[k] {
                        for w in 0..wc {
                            fx[q * wc + w] ^= next!();
                            fz[q * wc + w] ^= next!();
                        }
                    }
                }
                BatchOp::Gate1 { q, op: _, m, err_p } => {
                    let q = *q;
                    for w in 0..wc {
                        let (nx, nz) = m.apply(fx[q * wc + w], fz[q * wc + w]);
                        fx[q * wc + w] = nx;
                        fz[q * wc + w] = nz;
                    }
                    if *err_p > 0.0 && live.site[sb] {
                        for w in 0..wc {
                            fx[q * wc + w] ^= next!();
                            fz[q * wc + w] ^= next!();
                        }
                    }
                }
                BatchOp::Gate2 {
                    a,
                    b,
                    op: _,
                    m,
                    err_p,
                } => {
                    let (a, b) = (*a, *b);
                    for w in 0..wc {
                        let out = m.apply([
                            fx[a * wc + w],
                            fz[a * wc + w],
                            fx[b * wc + w],
                            fz[b * wc + w],
                        ]);
                        fx[a * wc + w] = out[0];
                        fz[a * wc + w] = out[1];
                        fx[b * wc + w] = out[2];
                        fz[b * wc + w] = out[3];
                    }
                    if *err_p > 0.0 && live.site[sb] {
                        for w in 0..wc {
                            fx[a * wc + w] ^= next!();
                            fz[a * wc + w] ^= next!();
                            fx[b * wc + w] ^= next!();
                            fz[b * wc + w] ^= next!();
                        }
                    }
                }
                BatchOp::Measure {
                    q,
                    op: _,
                    meas,
                    clbit,
                    readout,
                } => {
                    let q = *q;
                    let rm = if reference.outcomes[*meas] {
                        u64::MAX
                    } else {
                        0
                    };
                    let armed = matches!(readout, Some(p) if *p > 0.0);
                    let live_r = armed && live.site[sb];
                    let live_m = live.site[sb + usize::from(armed)];
                    for w in 0..wc {
                        let mut out = rm ^ fx[q * wc + w];
                        if live_r {
                            out ^= next!();
                        }
                        if let Some(c) = clbit {
                            if *c < LANES {
                                key_planes[*c][w] = out;
                            }
                        }
                        // Post-collapse Z randomization.
                        fz[q * wc + w] = if live_m { next!() } else { 0 };
                    }
                }
                BatchOp::Reset { q, op: _ } => {
                    let q = *q;
                    for w in 0..wc {
                        fx[q * wc + w] = 0;
                        fz[q * wc + w] = if live.site[sb] { next!() } else { 0 };
                    }
                }
                BatchOp::CondGate {
                    q,
                    op: _,
                    x,
                    z,
                    clbit,
                    value,
                    cond,
                    err_p,
                } => {
                    let q = *q;
                    let vm = if *value { u64::MAX } else { 0 };
                    let rm = if reference.fired[*cond] { u64::MAX } else { 0 };
                    for w in 0..wc {
                        // Lanes whose classical bit equals `value`.
                        let fired = !(key_planes[*clbit][w] ^ vm);
                        let diff = fired ^ rm;
                        if *x {
                            fx[q * wc + w] ^= diff;
                        }
                        if *z {
                            fz[q * wc + w] ^= diff;
                        }
                        if *err_p > 0.0 && live.site[sb] {
                            fx[q * wc + w] ^= next!() & fired;
                            fz[q * wc + w] ^= next!() & fired;
                        }
                    }
                }
                BatchOp::Anchor { item } => {
                    for &(shot, q, p) in ins.in_shot_range(*item, base, base + active) {
                        let l = shot - base;
                        let (x, z) = pauli_to_bits(p);
                        let bit = 1u64 << (l % LANES);
                        if x {
                            fx[q * wc + l / LANES] ^= bit;
                        }
                        if z {
                            fz[q * wc + l / LANES] ^= bit;
                        }
                    }
                }
            }
        }
        debug_assert_eq!(cur, noise.len());

        // Per-lane classical keys from the clbit planes (sparse
        // transpose: zero plane bits contribute nothing).
        let mut keys = vec![0u64; lanes];
        for (c, planes) in key_planes.iter().enumerate() {
            for (w, &plane) in planes.iter().enumerate().take(wc) {
                let mut p = plane;
                while p != 0 {
                    let j = p.trailing_zeros() as usize;
                    p &= p - 1;
                    keys[w * LANES + j] |= 1u64 << c;
                }
            }
        }
        phase.tick_propagation();
        phase.finish();
        ca_obs::counter_add("engine.batches", wc as u64);
        ca_obs::counter_add("engine.shots", active as u64);
        StripOut { fx, fz, keys, wc }
    }

    /// Runs every strip of a run over the output cone of `outputs`
    /// and returns `reduce(strip, active lanes)` per strip, in strip
    /// order. `cancel` is polled at the start of every strip: each
    /// strip returns `Result`, and the first error in strip order
    /// aborts the whole run with no partial result.
    fn map_strips<T: Send>(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        ins: &InsertionSet,
        params: crate::plan::ShotParams<'_>,
        outputs: Outputs<'_>,
        reduce: impl Fn(&StripOut, usize) -> T + Sync,
    ) -> Result<Vec<T>, SimError> {
        let crate::plan::ShotParams {
            shots,
            seed,
            workers,
            cancel,
        } = params;
        let live = self.pruned(outputs);
        let strips = shots.div_ceil(STRIP_SHOTS);
        let shards = crate::shard::shard_count(self.n, strips, worker_count(workers, usize::MAX));
        map_batches(strips, workers, |s| -> Result<T, SimError> {
            crate::cancel::check_opt(cancel)?;
            let base = s * STRIP_SHOTS;
            let active = STRIP_SHOTS.min(shots - base);
            let out = self.run_strip(sim, reference, &live, seed, base, active, ins, shards);
            Ok(crate::obs_util::time_engine_phase("reduction", || {
                reduce(&out, active)
            }))
        })
        .into_iter()
        .collect()
    }

    /// Shot-sampled classical counts over this prepared plan.
    pub(crate) fn counts(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        ins: &InsertionSet,
        params: crate::plan::ShotParams<'_>,
    ) -> Result<RunResult, SimError> {
        let parts = self.map_strips(
            sim,
            reference,
            ins,
            params,
            Outputs::Clbits,
            |out, active| sorted_keys(&out.keys[..active]),
        )?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            RunResult::from_strip_keys(params.shots, self.frame.sc.num_clbits, parts)
        }))
    }

    /// Reference expectation plus the observable's support as
    /// per-qubit plane selectors: lane-parity word =
    /// XOR over support of (z_obs ? fx[q] : 0) ^ (x_obs ? fz[q] : 0).
    fn prepare_observables(tableau: &Tableau, paulis: &[PauliString]) -> PreparedObs {
        paulis
            .iter()
            .map(|p| {
                let r = tableau.expect(p); // ca-lint: allow(panic) -- `Tableau::expect` is a Pauli expectation, not an Option unwrap
                let support: Vec<(usize, bool, bool)> = p
                    .paulis
                    .iter()
                    .enumerate()
                    .filter(|(_, &pl)| pl != Pauli::I)
                    .map(|(q, &pl)| {
                        let (x, z) = pauli_to_bits(pl);
                        (q, x, z)
                    })
                    .collect();
                (r, support)
            })
            .collect()
    }

    /// Frame-averaged Pauli expectations over this prepared plan.
    pub(crate) fn expectations(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        tableau: &Tableau,
        paulis: &[PauliString],
        ins: &InsertionSet,
        params: crate::plan::ShotParams<'_>,
    ) -> Result<Vec<f64>, SimError> {
        let prepared = Self::prepare_observables(tableau, paulis);
        let support = support_union(&prepared);
        let partials = self.map_strips(
            sim,
            reference,
            ins,
            params,
            Outputs::Support(&support),
            |out, active| -> Vec<f64> {
                prepared
                    .iter()
                    .map(|(r, support)| {
                        if *r == 0 {
                            return 0.0;
                        }
                        let mut sum = 0i64;
                        for w in 0..out.wc {
                            let (aw, mask) = word_lanes(active, w);
                            let flips = (strip_parity(out, w, support) & mask).count_ones() as i64;
                            sum += aw as i64 - 2 * flips;
                        }
                        (*r as i64 * sum) as f64
                    })
                    .collect()
            },
        )?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            let mut out = vec![0.0; paulis.len()];
            for part in partials {
                for (o, p) in out.iter_mut().zip(part.iter()) {
                    *o += p;
                }
            }
            for o in &mut out {
                *o /= params.shots as f64;
            }
            out
        }))
    }

    /// Per-shot ±1 outcomes over this prepared plan: strip word `w`'s
    /// masked parity word *is* word `w` of the shot bitvector, so the
    /// result is assembled with no per-shot work at all.
    pub(crate) fn flips(
        &self,
        sim: &Simulator,
        reference: &RefBits,
        tableau: &Tableau,
        paulis: &[PauliString],
        ins: &InsertionSet,
        params: crate::plan::ShotParams<'_>,
    ) -> Result<PauliFlips, SimError> {
        let shots = params.shots;
        let prepared = Self::prepare_observables(tableau, paulis);
        let support = support_union(&prepared);
        let partials = self.map_strips(
            sim,
            reference,
            ins,
            params,
            Outputs::Support(&support),
            |out, active| -> Vec<Vec<u64>> {
                prepared
                    .iter()
                    .map(|(_, support)| {
                        (0..out.wc)
                            .map(|w| strip_parity(out, w, support) & word_lanes(active, w).1)
                            .collect()
                    })
                    .collect()
            },
        )?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            let mut flips = vec![vec![0u64; shots.div_ceil(LANES)]; paulis.len()];
            for (s, per_obs) in partials.iter().enumerate() {
                for (o, obs_words) in per_obs.iter().enumerate() {
                    for (w, word) in obs_words.iter().enumerate() {
                        flips[o][s * STRIP_WORDS + w] = *word;
                    }
                }
            }
            PauliFlips {
                shots,
                refs: prepared.iter().map(|(r, _)| *r).collect(),
                flips,
            }
        }))
    }
}

/// `(reference expectation, support plane selectors)` per observable.
type PreparedObs = Vec<(i32, Vec<(usize, bool, bool)>)>;

/// One strip's shot keys, sorted in the strip's worker for the
/// counts reduction ([`RunResult::from_strip_keys`]).
fn sorted_keys(keys: &[u64]) -> Vec<u64> {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    keys
}

/// Every observable's support selectors in one list: the outputs an
/// expectation or flips run reads.
fn support_union(prepared: &PreparedObs) -> Vec<(usize, bool, bool)> {
    prepared
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .collect()
}

/// The active lanes of strip word `w` in a strip of `active` shots,
/// and their lane mask.
#[inline]
fn word_lanes(active: usize, w: usize) -> (usize, u64) {
    let aw = LANES.min(active - w * LANES);
    (
        aw,
        if aw == LANES {
            u64::MAX
        } else {
            (1u64 << aw) - 1
        },
    )
}

/// Lane-parity word of one observable against one word of a
/// strip's final planes (layout `[q * wc + w]`).
#[inline]
fn strip_parity(out: &StripOut, w: usize, support: &[(usize, bool, bool)]) -> u64 {
    let mut parity = 0u64;
    for &(q, x_obs, z_obs) in support {
        if z_obs {
            parity ^= out.fx[q * out.wc + w];
        }
        if x_obs {
            parity ^= out.fz[q * out.wc + w];
        }
    }
    parity
}

/// The finished state of one strip: per-qubit plane words laid out
/// `[q * wc + w]`, per-lane classical keys (`w * 64 + j`), and the
/// strip's word count `wc ≤ STRIP_WORDS`.
struct StripOut {
    fx: Vec<u64>,
    fz: Vec<u64>,
    keys: Vec<u64>,
    wc: usize,
}

/// Verifies a 1q table's symplectic form against direct lookups —
/// exposed for the property tests.
#[cfg(test)]
fn symp1_matches_table(table: &[(i8, Pauli); 4]) -> bool {
    let m = Symp1::from_table(table);
    Pauli::ALL.iter().all(|&p| {
        let (x, z) = pauli_to_bits(p);
        let lane = |b: bool| if b { 1u64 } else { 0 };
        let (nx, nz) = m.apply(lane(x), lane(z));
        (nx == 1, nz == 1) == pauli_to_bits(table[p.index()].1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert::PauliInsertion;
    use crate::noise::NoiseConfig;
    use crate::session::CompiledCircuit;
    use crate::Engine;
    use ca_circuit::clifford::{conjugation_table_1q, conjugation_table_2q};
    use ca_circuit::{schedule_asap, Circuit, GateDurations, ScheduledCircuit};
    use ca_device::{uniform_device, Topology};

    fn sched(qc: &Circuit) -> ScheduledCircuit {
        schedule_asap(qc, GateDurations::default())
    }

    /// `sc` compiled at `seed` for the serial oracle and for the batch
    /// engine.
    fn serial_and_batch(
        sim: &Simulator,
        sc: &ScheduledCircuit,
        seed: u64,
    ) -> (CompiledCircuit, CompiledCircuit) {
        let on = |engine| {
            let sim = Simulator {
                engine,
                ..sim.clone()
            };
            sim.compile(sc, seed).unwrap()
        };
        (on(Engine::Stabilizer), on(Engine::FrameBatch))
    }

    #[test]
    fn symplectic_forms_match_tables() {
        // Every rotation angle `Gate::is_clifford` admits: k·π/2.
        let angles: Vec<f64> = (-3..=4)
            .map(|k| f64::from(k) * std::f64::consts::FRAC_PI_2)
            .collect();
        let fixed = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::Sx,
            Gate::Sxdg,
        ];
        let rotations = angles
            .iter()
            .flat_map(|&t| [Gate::Rx(t), Gate::Ry(t), Gate::Rz(t)]);
        for g in fixed.into_iter().chain(rotations) {
            assert!(g.is_clifford(), "{g:?}");
            assert!(symp1_matches_table(&conjugation_table_1q(g)), "{g:?}");
        }
        let rzz = angles.iter().map(|&t| Gate::Rzz(t));
        for g in [Gate::Cx, Gate::Cz, Gate::Ecr].into_iter().chain(rzz) {
            let table = conjugation_table_2q(g);
            let m = Symp2::from_table(&table);
            for idx in 0..16 {
                let (pa, pb) = (Pauli::from_index(idx % 4), Pauli::from_index(idx / 4));
                let (xa, za) = pauli_to_bits(pa);
                let (xb, zb) = pauli_to_bits(pb);
                let lane = |b: bool| if b { 1u64 } else { 0 };
                let out = m.apply([lane(xa), lane(za), lane(xb), lane(zb)]);
                let (_, (qa, qb)) = table[idx];
                let (exa, eza) = pauli_to_bits(qa);
                let (exb, ezb) = pauli_to_bits(qb);
                assert_eq!(
                    [out[0] == 1, out[1] == 1, out[2] == 1, out[3] == 1],
                    [exa, eza, exb, ezb],
                    "{g:?} on pair {idx}"
                );
            }
        }
    }

    /// A noisy 5-qubit Clifford workload exercising every channel.
    fn noisy_workload() -> (Simulator, Circuit) {
        let mut dev = uniform_device(Topology::line(5), 60.0);
        for q in 0..5 {
            dev.calibration.qubits[q].quasistatic_khz = 30.0;
            dev.calibration.qubits[q].charge_parity_khz = 3.0;
            dev.calibration.qubits[q].t1_us = 80.0;
            dev.calibration.qubits[q].t2_us = 90.0;
            dev.calibration.qubits[q].readout_err = 0.03;
            dev.calibration.qubits[q].gate_err_1q = 0.002;
        }
        let sim = Simulator::with_config(dev, NoiseConfig::default());
        let mut qc = Circuit::new(5, 5);
        qc.h(0).sx(1).x(2).s(3).h(4);
        qc.ecr(0, 1).cx(2, 3);
        qc.delay(800.0, 4);
        qc.x(4);
        qc.delay(800.0, 4);
        qc.cz(1, 2).ecr(3, 4);
        qc.reset(2);
        qc.h(2);
        for q in 0..5 {
            qc.measure(q, q);
        }
        (sim, qc)
    }

    #[test]
    fn batch_counts_bit_identical_to_serial() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        let none = InsertionSet::empty();
        for (shots, seed) in [
            (1usize, 3u64),
            (63, 5),
            (64, 7),
            (65, 9),
            (200, 11),
            (4096, 13),
        ] {
            let (serial, batch) = serial_and_batch(&sim, &sc, seed);
            let a = serial.run_counts(shots, &none, None).unwrap();
            let b = batch.run_counts(shots, &none, None).unwrap();
            assert_eq!(a, b, "shots {shots} seed {seed}");
        }
    }

    /// The serial engine computes every bank threshold itself, from
    /// the flush's factored bank and the shot's own Z rate, and never
    /// reads the flush's per-code table: with the +δ and −δ
    /// charge-parity slots of every table swapped (still a valid
    /// table, of the opposite parity), serial counts stay put while
    /// batch counts move.
    #[test]
    fn serial_engine_never_reads_bank_tables() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        let plan = BatchPlan::build(&sim, &sc).unwrap();
        let mut swapped = BatchPlan::build(&sim, &sc).unwrap();
        let mut tables = 0;
        for op in &mut swapped.ops {
            if let BatchOp::Flush {
                table: Some(table), ..
            } = op
            {
                let mut t = table.to_vec();
                let (plus, minus) = t[LATTICE_STEPS..].split_at_mut(LATTICE_STEPS);
                plus.swap_with_slice(minus);
                *table = t.into();
                tables += 1;
            }
        }
        assert!(tables > 0, "the workload flushes banks");
        let (bits, _) = plan.frame.reference(5);
        let none = InsertionSet::empty();
        let params = crate::plan::ShotParams {
            shots: 500,
            seed: 5,
            workers: None,
            cancel: None,
        };
        let serial = plan.serial_counts(&sim, &bits, &none, params).unwrap();
        let batch = |p: &BatchPlan| p.counts(&sim, &bits, &none, params).unwrap();
        assert_eq!(batch(&plan), serial);
        assert_eq!(
            swapped.serial_counts(&sim, &bits, &none, params).unwrap(),
            serial
        );
        assert_ne!(batch(&swapped), serial, "batch reads the tables");
    }

    /// Direct strip-level check, bypassing the dispatch policy: every
    /// shard count hands `run_strip` the identical mask buffer, so the
    /// final planes and classical keys match word for word — including
    /// shard counts that do not divide the qubit count and a tail
    /// strip with partial lanes.
    #[test]
    fn sharded_strip_matches_unsharded_for_every_shard_count() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        let plan = BatchPlan::build(&sim, &sc).unwrap();
        let (bits, _) = plan.frame.reference(17);
        let live = plan.liveness(Outputs::Clbits);
        let ins = InsertionSet::empty();
        for (base, active) in [(0usize, STRIP_SHOTS), (STRIP_SHOTS, 77)] {
            let reference = plan.run_strip(&sim, &bits, &live, 17, base, active, &ins, 1);
            for shards in [2usize, 3, 5] {
                let got = plan.run_strip(&sim, &bits, &live, 17, base, active, &ins, shards);
                assert_eq!(reference.fx, got.fx, "fx diverges at {shards} shards");
                assert_eq!(reference.fz, got.fz, "fz diverges at {shards} shards");
                assert_eq!(reference.keys, got.keys, "keys diverge at {shards} shards");
                assert_eq!(reference.wc, got.wc);
            }
        }
    }

    /// Strips the trailing measurement round so expectations see the
    /// frame state (shared by the expectation-identity tests; counts
    /// tests keep the measurements — they are uniformly supported).
    fn without_measurements(mut qc: Circuit) -> Circuit {
        qc.instructions.retain(|i| i.gate != Gate::Measure);
        qc
    }

    #[test]
    fn batch_expectations_bit_identical_to_serial() {
        let (sim, qc) = noisy_workload();
        let qc = without_measurements(qc);
        let sc = sched(&qc);
        let (serial, batch) = serial_and_batch(&sim, &sc, 17);
        let obs = [
            PauliString::parse("ZZIII").unwrap(),
            PauliString::parse("IXXII").unwrap(),
            PauliString::parse("IIIZZ").unwrap(),
            PauliString::parse("YIIIY").unwrap(),
        ];
        let none = InsertionSet::empty();
        let a = serial.expect_paulis(&obs, 300, &none, None).unwrap();
        let b = batch.expect_paulis(&obs, 300, &none, None).unwrap();
        assert_eq!(a, b, "expectation sums are integer-exact");
    }

    #[test]
    fn counts_independent_of_worker_count() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        let (_, batch) = serial_and_batch(&sim, &sc, 23);
        let none = InsertionSet::empty();
        let reference = batch.run_counts(500, &none, Some(1)).unwrap();
        for workers in [2usize, 3, 8] {
            let got = batch.run_counts(500, &none, Some(workers)).unwrap();
            assert_eq!(reference, got, "{workers} workers");
        }
    }

    #[test]
    fn insertions_flip_outcomes_and_stay_bit_identical() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        // Insert an X on qubit 2 right after the final H(2) for half
        // the shots: those shots' bit 2 must flip relative to the
        // uninserted run, identically on both engines.
        let h2 = sc
            .items
            .iter()
            .enumerate()
            .filter(|(_, si)| si.instruction.gate == Gate::H && si.instruction.qubits == [2])
            .map(|(i, _)| i)
            .next_back()
            .unwrap();
        let shots = 150usize;
        let list: Vec<PauliInsertion> = (0..shots)
            .filter(|s| s % 2 == 0)
            .map(|shot| PauliInsertion {
                shot,
                item: h2,
                qubit: 2,
                pauli: Pauli::X,
            })
            .collect();
        let ins = InsertionSet::build(&sc, &list).unwrap();
        let (serial, batch) = serial_and_batch(&sim, &sc, 5);
        let a = serial.run_counts(shots, &ins, None).unwrap();
        let b = batch.run_counts(shots, &ins, None).unwrap();
        assert_eq!(a, b, "insertion runs must stay bit-identical");
        let plain = batch
            .run_counts(shots, &InsertionSet::empty(), None)
            .unwrap();
        assert_ne!(a, plain, "insertions must change sampled outcomes");
    }

    #[test]
    fn expect_flips_matches_expect_paulis() {
        let (sim, qc) = noisy_workload();
        let qc = without_measurements(qc);
        let sc = sched(&qc);
        let (serial, batch) = serial_and_batch(&sim, &sc, 9);
        let obs = [
            PauliString::parse("ZZIII").unwrap(),
            PauliString::parse("IXXII").unwrap(),
            PauliString::parse("YIIIY").unwrap(),
        ];
        let none = InsertionSet::empty();
        // 130 shots: two full words plus a partial tail word.
        let fs = serial.expect_flips(&obs, 130, &none, None).unwrap();
        let fb = batch.expect_flips(&obs, 130, &none, None).unwrap();
        assert_eq!(fs, fb, "per-shot flips must be bit-identical");
        let means = batch.expect_paulis(&obs, 130, &none, None).unwrap();
        for (o, m) in means.iter().enumerate() {
            assert_eq!(fb.mean(o), *m, "observable {o}");
        }
    }

    /// A noisy dynamic workload: mid-circuit measurement, conditional
    /// Pauli corrections (X/Y/Z), an outcome-conditioned diagonal
    /// rotation, bank-folded Rz/Rzz, and a reset — every new
    /// feed-forward path in one circuit.
    fn dynamic_workload_with(final_round: bool) -> (Simulator, Circuit) {
        let (sim, _) = noisy_workload();
        let mut qc = Circuit::new(5, 5);
        qc.h(0).cx(0, 1).cx(1, 2).h(1);
        qc.measure(1, 0);
        qc.gate_if(Gate::Z, [2], 0, true);
        qc.gate_if(Gate::X, [0], 0, false);
        qc.gate_if(Gate::Y, [3], 0, true);
        qc.gate_if(Gate::Rz(0.37), [2], 0, true);
        qc.rz(0.21, 3).rzz(0.5, 3, 4);
        qc.reset(1);
        qc.h(1).ecr(3, 4);
        if final_round {
            for q in 0..5 {
                qc.measure(q, q);
            }
        }
        (sim, qc)
    }

    fn dynamic_workload() -> (Simulator, Circuit) {
        dynamic_workload_with(true)
    }

    #[test]
    fn conditional_circuits_stay_bit_identical_to_serial() {
        let (sim, qc) = dynamic_workload();
        let sc = sched(&qc);
        let none = InsertionSet::empty();
        for (shots, seed) in [(1usize, 3u64), (63, 5), (64, 7), (65, 9), (257, 11)] {
            let (serial, batch) = serial_and_batch(&sim, &sc, seed);
            let a = serial.run_counts(shots, &none, None).unwrap();
            let b = batch.run_counts(shots, &none, None).unwrap();
            assert_eq!(a, b, "shots {shots} seed {seed}");
        }
        // Worker-count independence holds through feed-forward too.
        let (_, batch) = serial_and_batch(&sim, &sc, 23);
        let reference = batch.run_counts(300, &none, Some(1)).unwrap();
        for workers in [2usize, 3, 8] {
            let got = batch.run_counts(300, &none, Some(workers)).unwrap();
            assert_eq!(reference, got, "{workers} workers");
        }
    }

    #[test]
    fn conditional_expectations_bit_identical_to_serial() {
        // Keep the mid-circuit measurement (it feeds the conditions);
        // only the final readout round is absent.
        let (sim, qc) = dynamic_workload_with(false);
        let sc = sched(&qc);
        let (serial, batch) = serial_and_batch(&sim, &sc, 17);
        let obs = [
            PauliString::parse("ZZIII").unwrap(),
            PauliString::parse("IIZZI").unwrap(),
            PauliString::parse("XIIII").unwrap(),
        ];
        let none = InsertionSet::empty();
        let a = serial.expect_paulis(&obs, 130, &none, None).unwrap();
        let b = batch.expect_paulis(&obs, 130, &none, None).unwrap();
        assert_eq!(a, b, "expectation sums are integer-exact");
    }

    #[test]
    fn wide_device_tail_lanes() {
        // 127 qubits (two serial frame words) with a non-multiple-of-64
        // shot count: exercises both word-boundary paths at once.
        let n = 127;
        let dev = uniform_device(Topology::line(n), 40.0);
        let sim = Simulator::with_config(dev, NoiseConfig::default());
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
        let sc = sched(&qc);
        let (serial, batch) = serial_and_batch(&sim, &sc, 31);
        let none = InsertionSet::empty();
        let a = serial.run_counts(70, &none, None).unwrap();
        let b = batch.run_counts(70, &none, None).unwrap();
        assert_eq!(a, b);
    }

    /// The 16-pair shape of the 1121-qubit benchmark: 16 disjoint
    /// driven pairs spread over the lattice, two ECR rounds, all 32
    /// driven qubits measured, the rest idle.
    fn sixteen_pair_condor() -> (Simulator, ScheduledCircuit) {
        let device = ca_device::presets::condor_like(1121);
        let n = device.num_qubits();
        let edges = &device.topology.edges;
        let mut used = vec![false; n];
        let mut pairs = Vec::new();
        for &(a, b) in edges.iter().step_by(edges.len() / 16) {
            if pairs.len() < 16 && !used[a] && !used[b] {
                used[a] = true;
                used[b] = true;
                pairs.push((a, b));
            }
        }
        assert_eq!(pairs.len(), 16);
        let mut qc = Circuit::new(n, 32);
        for &(a, b) in &pairs {
            qc.h(a).h(b);
        }
        for _ in 0..2 {
            for &(a, b) in &pairs {
                qc.ecr(a, b);
            }
        }
        for (c, &q) in pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .collect::<Vec<_>>()
            .iter()
            .enumerate()
        {
            qc.measure(q, c);
        }
        let noise = NoiseConfig {
            readout_error: false,
            ..NoiseConfig::default()
        };
        (Simulator::with_config(device, noise), sched(&qc))
    }

    /// A disabled or broken pruner fails here: on the 16-pair 1121q
    /// shape the counts cone reaches at most the 32 driven qubits, so
    /// at least 90% of the banked qubits' per-lane noise codes — and
    /// most program sites — are skipped, while the run stays
    /// bit-identical to the unpruned serial engine.
    #[test]
    fn pruner_skips_most_noise_codes_on_the_16_pair_condor_shape() {
        let (sim, sc) = sixteen_pair_condor();
        let plan = BatchPlan::build(&sim, &sc).unwrap();
        let live = plan.liveness(Outputs::Clbits);
        let banked: Vec<usize> = (0..plan.n)
            .filter(|&q| {
                plan.ops.iter().any(
                    |op| matches!(op, BatchOp::Flush { q: fq, table: Some(_), .. } if *fq == q),
                )
            })
            .collect();
        let coded = banked
            .iter()
            .filter(|&&q| live.codes[q] != NO_CODES)
            .count();
        assert!(
            banked.len() > 1000,
            "every idle qubit banks: {}",
            banked.len()
        );
        assert!(coded > 0, "the driven qubits' banks reach the outputs");
        assert!(
            coded * 10 <= banked.len(),
            "pruner derives noise codes for {coded} of {} banked qubits",
            banked.len()
        );
        assert!(live.live_count() * 10 <= plan.sites, "most sites are dead");
        let (serial, batch) = serial_and_batch(&sim, &sc, 4);
        let none = InsertionSet::empty();
        let serial = serial.run_counts(70, &none, None).unwrap();
        for workers in [1usize, 3] {
            let got = batch.run_counts(70, &none, Some(workers)).unwrap();
            assert_eq!(serial, got, "{workers} workers");
        }
    }

    /// Random bank tables over the full code range: thresholds of
    /// every magnitude, exact zeros, and a cluster just above 2⁻⁹ whose
    /// top byte is zero (the lanes a transposed block leaves to the
    /// per-lane tail).
    fn random_table(seed: u64) -> Vec<u64> {
        (0..3 * LATTICE_STEPS as u64)
            .map(|c| {
                let h = crate::plan::mix64(seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                match h % 4 {
                    0 => h >> (h % 64),
                    1 => 0,
                    2 => (1 << 55) | (h >> 10),
                    _ => h,
                }
            })
            .collect()
    }

    fn random_codes(seed: u64) -> Vec<u8> {
        (0..LANES as u64)
            .map(|j| (crate::plan::mix64(seed ^ j) % (3 * LATTICE_STEPS as u64)) as u8)
            .collect()
    }

    #[test]
    fn transposed_thresholds_match_a_per_lane_build() {
        for seed in 0..200u64 {
            let table = random_table(seed);
            let codes = random_codes(seed.wrapping_mul(31) + 7);
            let mut naive = [0u64; LADDER_BLOCK as usize];
            for (j, &c) in codes.iter().enumerate() {
                for (k, word) in naive.iter_mut().enumerate() {
                    *word |= (table[c as usize] >> (63 - k) & 1) << j;
                }
            }
            assert_eq!(transposed_thresholds(&table, &codes), naive, "seed {seed}");
        }
    }

    /// Bit `j` of a bank flush's mask is the serial engine's single-lane
    /// ladder on lane `j`'s own threshold, including the lanes only the
    /// per-lane tail decides.
    #[test]
    fn bank_mask_matches_per_lane_ladders() {
        let mut tail_fired = 0;
        for seed in 0..300u64 {
            let codes = random_codes(seed ^ 0xABCD);
            let base = crate::plan::plane_base(seed, 3, 11);
            // The mixed table, and the same table shifted below 2⁵⁶
            // (the transpose-free path).
            let mixed = random_table(seed);
            let small: Vec<u64> = mixed.iter().map(|&t| t >> 8).collect();
            for table in [mixed, small] {
                let top_zero = table.iter().all(|&t| t >> 56 == 0);
                let mask = bank_mask(base, &table, &codes, top_zero);
                for (j, &c) in codes.iter().enumerate() {
                    let t = table[c as usize];
                    let want = crate::plan::lt_lane(base, j as u32, t);
                    assert_eq!(mask >> j & 1 == 1, want, "seed {seed} lane {j} t {t:#x}");
                    let top_block = (0..LADDER_BLOCK).all(|k| plane(base, k) >> j & 1 == 0);
                    tail_fired += usize::from(want && t >> 56 == 0 && top_block);
                }
            }
        }
        assert!(tail_fired > 0, "some lanes fire only in the tail");
    }

    /// The final flush of a qubit read under a Z letter: its bank and
    /// edge draws only flip Z and are dead, its decoherence draw can
    /// flip X and stays live. Feed-forward programs keep every site.
    #[test]
    fn z_letter_final_flush_keeps_only_its_x_type_site() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&without_measurements(qc));
        let plan = BatchPlan::build(&sim, &sc).unwrap();
        let support = [(0usize, false, true)];
        let live = plan.liveness(Outputs::Support(&support));
        let final_op = plan.frame.plan.ops.len();
        let (flush, &sb) = plan
            .ops
            .iter()
            .zip(&plan.site_base)
            .find(|(op, _)| matches!(op, BatchOp::Flush { q: 0, op, .. } if *op == final_op))
            .unwrap();
        let BatchOp::Flush {
            table, edges, deco, ..
        } = flush
        else {
            unreachable!()
        };
        assert!(table.is_some() && !edges.is_empty() && deco.is_some());
        let sites = &live.site[sb..sb + flush.sites()];
        assert!(sites[..sites.len() - 1].iter().all(|&l| !l), "{sites:?}");
        assert!(sites[sites.len() - 1], "decoherence flips X");

        let (sim, qc) = dynamic_workload();
        let plan = BatchPlan::build(&sim, &sched(&qc)).unwrap();
        let live = plan.liveness(Outputs::Support(&support));
        assert!(live.site.iter().all(|&l| l), "feed-forward prunes nothing");
    }
}

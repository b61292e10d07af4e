//! Dense statevector with the operations the trajectory engine needs:
//! 1q/2q unitaries, fast diagonal Z/ZZ rotations (the coherent-error
//! workhorse), Pauli expectations, projective measurement, and the
//! amplitude-damping read and jump step.
//!
//! Every kernel walks the index blocks its qubits split the amplitude
//! vector into (`chunks_exact_mut(2·bit)` halves) instead of testing
//! `i & bit` on all `2ⁿ` indices, and looks at its matrix once per
//! call: diagonal, anti-diagonal and sparse (at most two non-zeros per
//! row) matrices take shorter paths than the dense formula.
//!
//! **Exactness rule (per-kernel shortcuts).** A kernel's structural
//! shortcuts never change a result bit. A path may drop only terms
//! whose matrix entry is exactly `0` and skip only multiplications by
//! an exact `1`; every product and sum that remains runs in the order
//! of the dense formula — no reassociation, no fused multiply-add, and
//! no new reduction order in [`State::renormalize`] or
//! [`State::prob_one`]. Dropping `0·x` can only turn a `−0` into `+0`,
//! so amplitudes compare equal (`==` per component) to the dense
//! formula's, which the `#[cfg(test)]` reference kernels at the end of
//! this file check on random states.
//!
//! Two kernels lie outside that rule, because each folds the flush's
//! pending diagonal and a norm into its one write pass and so rounds
//! differently from the sequence it replaces: [`State::damping_step`]
//! (the damping read and jump) and [`State::measure_diag`] (measure or
//! reset with the pending diagonal). Property tests hold them to the
//! reference kernels' `Rz`, Kraus and renormalise, and diagonal,
//! renormalise and project: the same branch on the same draw, every
//! amplitude within 1e-14. The trajectory-level folds they enable are
//! held to the 1e-12 expectation goldens in `tests/dense_goldens.rs`.

use ca_circuit::c64::{C64, ONE, ZERO};
use ca_circuit::matrix::{Mat2, Mat4};
use ca_circuit::pauli::{Pauli, PauliString};
use rand::RngExt;

/// A pure state of `n` qubits: `2^n` complex amplitudes, qubit `q` is
/// bit `q` of the basis index (little-endian, matching `ca-circuit`'s
/// matrix convention).
#[derive(Clone, Debug)]
pub struct State {
    /// Number of qubits.
    pub n: usize,
    /// Amplitudes, length `2^n`.
    pub amps: Vec<C64>,
}

impl State {
    /// |0…0⟩.
    pub fn zero(n: usize) -> Self {
        assert!(
            n <= crate::engine::DENSE_MAX_QUBITS,
            "statevector limited to {} qubits",
            crate::engine::DENSE_MAX_QUBITS
        );
        let mut amps = vec![ZERO; 1 << n];
        amps[0] = ONE;
        Self { n, amps }
    }

    /// A computational basis state.
    pub fn basis(n: usize, index: usize) -> Self {
        let mut amps = vec![ZERO; 1 << n];
        amps[index] = ONE;
        Self { n, amps }
    }

    /// Squared norm (should stay ≈1 between explicit renormalisations).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Rescales to unit norm.
    pub fn renormalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            let inv = 1.0 / n;
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
    }

    /// Applies a 2×2 unitary to qubit `q`.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        let [[m00, m01], [m10, m11]] = m.0;
        let halves = self
            .amps
            .chunks_exact_mut(2 * bit)
            .map(|block| block.split_at_mut(bit));
        if m01 == ZERO && m10 == ZERO {
            for (lo, hi) in halves {
                scale_unless_one(lo, m00);
                scale_unless_one(hi, m11);
            }
        } else if m00 == ZERO && m11 == ZERO {
            if m01 == ONE && m10 == ONE {
                for (lo, hi) in halves {
                    lo.swap_with_slice(hi);
                }
            } else {
                for (lo, hi) in halves {
                    for (x0, x1) in lo.iter_mut().zip(hi.iter_mut()) {
                        (*x0, *x1) = (m01 * *x1, m10 * *x0);
                    }
                }
            }
        } else {
            for (lo, hi) in halves {
                for (x0, x1) in lo.iter_mut().zip(hi.iter_mut()) {
                    let (a0, a1) = (*x0, *x1);
                    *x0 = m00 * a0 + m01 * a1;
                    *x1 = m10 * a0 + m11 * a1;
                }
            }
        }
    }

    /// Applies a 4×4 unitary to qubits `(a, b)` where `a` is the
    /// low-order index bit of the matrix (first listed operand).
    pub fn apply_2q(&mut self, m: &Mat4, a: usize, b: usize) {
        assert!(a != b && a.max(b) < self.n, "bad qubit pair ({a}, {b})");
        match sparse_rows(m) {
            Some(rows) => for_each_quad(&mut self.amps, a, b, |p| {
                let v = p.each_ref().map(|x| **x);
                for (out, [(c0, e0), (c1, e1)]) in p.into_iter().zip(rows) {
                    *out = e0 * v[c0] + e1 * v[c1];
                }
            }),
            None => for_each_quad(&mut self.amps, a, b, |p| {
                let v = p.each_ref().map(|x| **x);
                for (out, row) in p.into_iter().zip(&m.0) {
                    let mut acc = ZERO;
                    for (&e, &vc) in row.iter().zip(&v) {
                        acc += e * vc;
                    }
                    *out = acc;
                }
            }),
        }
    }

    /// Fast diagonal: `Rz(θ)` on `q`.
    pub fn apply_rz(&mut self, theta: f64, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        let [e0, e1] = rz_diag(theta);
        for block in self.amps.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            scale(lo, e0);
            scale(hi, e1);
        }
    }

    /// Fast diagonal: `Rzz(θ)` on `(a, b)`.
    pub fn apply_rzz(&mut self, theta: f64, a: usize, b: usize) {
        assert!(a != b && a.max(b) < self.n, "bad qubit pair ({a}, {b})");
        let (lo, hi) = (1usize << a.min(b), 1usize << a.max(b));
        let even = C64::cis(-theta / 2.0);
        let odd = C64::cis(theta / 2.0);
        // Quadrants by (hi bit, lo bit): equal bits get `even`.
        for block in self.amps.chunks_exact_mut(2 * hi) {
            let (h0, h1) = block.split_at_mut(hi);
            for (half, first, second) in [(h0, even, odd), (h1, odd, even)] {
                for sub in half.chunks_exact_mut(2 * lo) {
                    let (l0, l1) = sub.split_at_mut(lo);
                    scale(l0, first);
                    scale(l1, second);
                }
            }
        }
    }

    /// Probability that qubit `q` reads 1.
    pub fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        self.amps
            .chunks_exact(2 * bit)
            .flat_map(|block| &block[bit..])
            .map(|a| a.norm_sqr())
            .sum()
    }

    /// Projective Z measurement of `q`: collapses, renormalises, and
    /// returns the outcome.
    pub fn measure(&mut self, q: usize, rng: &mut impl RngExt) -> bool {
        let p1 = self.prob_one(q);
        let outcome = rng.random::<f64>() < p1;
        self.project(q, outcome);
        outcome
    }

    /// Forces qubit `q` into the given outcome (collapse + renormalise).
    pub fn project(&mut self, q: usize, outcome: bool) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        for block in self.amps.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            let cleared = if outcome { lo } else { hi };
            cleared.fill(ZERO);
        }
        self.renormalize();
    }

    /// Resets qubit `q` to |0⟩ (measure, then classical flip if 1).
    pub fn reset(&mut self, q: usize, rng: &mut impl RngExt) {
        let outcome = self.measure(q, rng);
        if outcome {
            self.apply_x(q);
        }
    }

    /// Pauli-X on qubit `q`: swaps the paired amplitudes directly, so
    /// the classical flip in [`Self::reset`] needs no gate matrix.
    pub fn apply_x(&mut self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        for block in self.amps.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            lo.swap_with_slice(hi);
        }
    }

    /// Expectation value of a signed Pauli string (real by Hermiticity).
    pub fn expect_pauli(&self, p: &PauliString) -> f64 {
        assert_eq!(p.paulis.len(), self.n);
        // P|i⟩ = phase·|i ^ flip⟩, phase = i^{#Y}·(−1)^{popcount(i & minus)}
        // (Y|0⟩ = i|1⟩, Y|1⟩ = −i|0⟩, Z|1⟩ = −|1⟩).
        let (mut flip, mut minus, mut ys) = (0usize, 0usize, 0u32);
        for (q, pq) in p.paulis.iter().enumerate() {
            let bit = 1usize << q;
            match pq {
                Pauli::I => {}
                Pauli::X => flip |= bit,
                Pauli::Y => {
                    flip |= bit;
                    minus |= bit;
                    ys += 1;
                }
                Pauli::Z => minus |= bit,
            }
        }
        // ⟨ψ|P|ψ⟩ = Σ_i Re(conj(ψ_j)·phase·ψ_i) with j = i ^ flip. A
        // phase of ±1 or ±i only selects and negates the two real
        // products below, exactly as the complex product would.
        let odd_ys = ys % 2 == 1;
        let negate_base = ys % 4 >= 2;
        let mut acc = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            if a.norm_sqr() < 1e-30 {
                continue;
            }
            let b = self.amps[i ^ flip];
            let term = if odd_ys {
                b.im * a.re - b.re * a.im
            } else {
                b.re * a.re + b.im * a.im
            };
            let negate = negate_base ^ ((i & minus).count_ones() % 2 == 1);
            acc += if negate { -term } else { term };
        }
        acc * p.sign as f64
    }

    /// Samples a full computational-basis bitstring without collapsing
    /// (returns the basis index).
    pub fn sample_index(&self, rng: &mut impl RngExt) -> usize {
        let r: f64 = rng.random::<f64>() * self.norm_sqr();
        let mut acc = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                return i;
            }
        }
        self.amps.len() - 1
    }

    /// `Σ|a|²` over the amplitudes with qubit `q` at 0 and at 1.
    fn weights(&self, q: usize) -> (f64, f64) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        let (mut w_lo, mut w_hi) = (0.0, 0.0);
        for block in self.amps.chunks_exact(2 * bit) {
            let (lo, hi) = block.split_at(bit);
            w_lo += lo.iter().map(|a| a.norm_sqr()).sum::<f64>();
            w_hi += hi.iter().map(|a| a.norm_sqr()).sum::<f64>();
        }
        (w_lo, w_hi)
    }

    /// Applies the diagonal `diag(d[0], d[1])` to qubit `q`, skipping
    /// an entry that is exactly one.
    pub(crate) fn apply_diag(&mut self, d: Diag, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        for block in self.amps.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            scale_unless_one(lo, d[0]);
            scale_unless_one(hi, d[1]);
        }
    }

    /// One Monte-Carlo-wavefunction step of amplitude damping with decay
    /// probability `gamma` and draw `r` on qubit `q`, whose pending
    /// diagonal `d` (not yet applied) precedes the Kraus pair
    /// `K0 = diag(1, √(1−γ))`, `K1 = √γ·|0⟩⟨1|`.
    ///
    /// One read pass sums `w_lo` and `w_hi` of the state, which need
    /// not be normalised; `d` must be unitary, so it leaves them as
    /// they are. The step jumps when `r·(w_lo+w_hi) ≥ w_lo +
    /// (1−γ)·w_hi` (the draw falls past K0's share of the weight) and
    /// `γ·w_hi > 0`, so a zero-weight jump takes K0 instead and nothing
    /// divides by zero.
    /// A jump moves the high half, times `d[1]/√w_hi`, onto the low
    /// half and returns `None`. Otherwise nothing is written: the
    /// returned diagonal is `d·K0/√(w_lo + (1−γ)·w_hi)`, and either
    /// branch leaves the state normalised once it is applied.
    pub(crate) fn damping_step(&mut self, gamma: f64, r: f64, d: Diag, q: usize) -> Option<Diag> {
        let g = gamma.clamp(0.0, 1.0);
        let (w_lo, w_hi) = self.weights(q);
        let keep = 1.0 - g;
        let w0 = w_lo + keep * w_hi;
        if r * (w_lo + w_hi) >= w0 && g * w_hi > 0.0 {
            let bit = 1usize << q;
            let e1 = d[1].scale(1.0 / w_hi.sqrt());
            for block in self.amps.chunks_exact_mut(2 * bit) {
                let (lo, hi) = block.split_at_mut(bit);
                for (x0, x1) in lo.iter_mut().zip(hi.iter_mut()) {
                    *x0 = *x1 * e1;
                    *x1 = ZERO;
                }
            }
            return None;
        }
        let inv = if w0 > 0.0 { 1.0 / w0.sqrt() } else { 1.0 };
        Some([d[0].scale(inv), d[1].scale(keep.sqrt() * inv)])
    }

    /// Projective Z measurement of `q` with its pending diagonal `d`
    /// folded in, on a state that need not be normalised; with `reset`
    /// an outcome of 1 is then flipped to |0⟩. One read pass sums
    /// `w_lo` and `w_hi`; one draw reads 1 when it falls below
    /// `|d₁|²·w_hi / (|d₀|²·w_lo + |d₁|²·w_hi)`; one write pass zeroes
    /// the other half and scales the kept one by `d_k/√(|d_k|²·w_k)`
    /// (onto the low half for a reset of 1). Returns the outcome.
    pub(crate) fn measure_diag(
        &mut self,
        q: usize,
        d: Diag,
        reset: bool,
        rng: &mut impl RngExt,
    ) -> bool {
        let (w_lo, w_hi) = self.weights(q);
        let (m0, m1) = (d[0].norm_sqr() * w_lo, d[1].norm_sqr() * w_hi);
        let outcome = rng.random::<f64>() < m1 / (m0 + m1);
        let (kept, e) = if outcome { (m1, d[1]) } else { (m0, d[0]) };
        let e = e.scale(if kept > 0.0 { 1.0 / kept.sqrt() } else { 0.0 });
        let bit = 1usize << q;
        for block in self.amps.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            match (outcome, reset) {
                (false, _) => {
                    scale(lo, e);
                    hi.fill(ZERO);
                }
                (true, false) => {
                    lo.fill(ZERO);
                    scale(hi, e);
                }
                (true, true) => {
                    for (x0, x1) in lo.iter_mut().zip(hi.iter_mut()) {
                        *x0 = *x1 * e;
                        *x1 = ZERO;
                    }
                }
            }
        }
        outcome
    }

    /// Fidelity |⟨other|self⟩|².
    pub fn fidelity(&self, other: &State) -> f64 {
        let ip: C64 = self
            .amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| b.conj() * *a)
            .sum();
        ip.norm_sqr()
    }
}

/// A single-qubit diagonal `diag(d[0], d[1])`: the form a pending
/// flush takes before it is applied or folded into a gate.
pub(crate) type Diag = [C64; 2];

/// The identity [`Diag`].
pub(crate) const IDENTITY_DIAG: Diag = [ONE, ONE];

/// `Rz(θ)` as a [`Diag`].
pub(crate) fn rz_diag(theta: f64) -> Diag {
    [C64::cis(-theta / 2.0), C64::cis(theta / 2.0)]
}

/// `x ← x·e` over a slice.
fn scale(xs: &mut [C64], e: C64) {
    for x in xs {
        *x *= e;
    }
}

/// [`scale`], skipped when `e` is exactly one.
fn scale_unless_one(xs: &mut [C64], e: C64) {
    if e != ONE {
        scale(xs, e);
    }
}

/// Each row of a 4×4 matrix as its non-zero `(column, entry)` pairs in
/// column order, padded with a zero entry (whose `0·x` term leaves the
/// row's sum unchanged), or `None` when some row has more than two
/// non-zeros (ECR, CX, CZ and SWAP-like gates have at most two).
fn sparse_rows(m: &Mat4) -> Option<[[(usize, C64); 2]; 4]> {
    let mut rows = [[(0, ZERO); 2]; 4];
    for (row, entries) in rows.iter_mut().zip(&m.0) {
        let mut nonzeros = entries.iter().enumerate().filter(|(_, &e)| e != ZERO);
        for slot in row.iter_mut() {
            if let Some((c, &e)) = nonzeros.next() {
                *slot = (c, e);
            }
        }
        if nonzeros.next().is_some() {
            return None;
        }
    }
    Some(rows)
}

/// Calls `f` on every group of four amplitudes that differ only in
/// bits `a` and `b`, ordered by the matrix index of
/// [`State::apply_2q`]: `(neither, a, b, both)`.
fn for_each_quad(amps: &mut [C64], a: usize, b: usize, mut f: impl FnMut([&mut C64; 4])) {
    let (lo, hi) = (1usize << a.min(b), 1usize << a.max(b));
    for block in amps.chunks_exact_mut(2 * hi) {
        let (h0, h1) = block.split_at_mut(hi);
        for (s0, s1) in h0.chunks_exact_mut(2 * lo).zip(h1.chunks_exact_mut(2 * lo)) {
            let (x00, x01) = s0.split_at_mut(lo);
            let (x10, x11) = s1.split_at_mut(lo);
            for (((p00, p01), p10), p11) in x00.iter_mut().zip(x01).zip(x10).zip(x11) {
                // `p01` has only the lower of the two bits set.
                if a < b {
                    f([p00, p01, p10, p11]);
                } else {
                    f([p00, p10, p01, p11]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_circuit::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-10;

    #[test]
    fn hadamard_makes_plus_state() {
        let mut s = State::zero(1);
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        assert!((s.amps[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        assert!((s.amps[1].re - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        assert!((s.expect_pauli(&PauliString::parse("X").unwrap()) - 1.0).abs() < TOL);
    }

    #[test]
    fn bell_state_via_cx() {
        let mut s = State::zero(2);
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        s.apply_2q(&Gate::Cx.matrix2().unwrap(), 0, 1);
        assert!((s.expect_pauli(&PauliString::parse("ZZ").unwrap()) - 1.0).abs() < TOL);
        assert!((s.expect_pauli(&PauliString::parse("XX").unwrap()) - 1.0).abs() < TOL);
        assert!(s.expect_pauli(&PauliString::parse("ZI").unwrap()).abs() < TOL);
    }

    #[test]
    fn apply_2q_respects_qubit_order() {
        // CX with control 1, target 0 on |01⟩ (qubit1=0, qubit0=1):
        // index 1 → control clear → unchanged.
        let mut s = State::basis(2, 1);
        s.apply_2q(&Gate::Cx.matrix2().unwrap(), 1, 0);
        assert!(s.amps[1].approx_eq(ONE, TOL));
        // |10⟩ (index 2, qubit1=1): flips qubit 0 → |11⟩ (index 3).
        let mut s = State::basis(2, 2);
        s.apply_2q(&Gate::Cx.matrix2().unwrap(), 1, 0);
        assert!(s.amps[3].approx_eq(ONE, TOL));
    }

    #[test]
    fn rz_diag_matches_dense() {
        let mut a = State::zero(2);
        a.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        a.apply_1q(&Gate::H.matrix1().unwrap(), 1);
        let mut b = a.clone();
        a.apply_rz(0.37, 1);
        b.apply_1q(&Gate::Rz(0.37).matrix1().unwrap(), 1);
        for (x, y) in a.amps.iter().zip(b.amps.iter()) {
            assert!(x.approx_eq(*y, TOL));
        }
    }

    #[test]
    fn rzz_diag_matches_dense() {
        let mut a = State::zero(2);
        a.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        a.apply_1q(&Gate::H.matrix1().unwrap(), 1);
        let mut b = a.clone();
        a.apply_rzz(0.81, 0, 1);
        b.apply_2q(&Gate::Rzz(0.81).matrix2().unwrap(), 0, 1);
        for (x, y) in a.amps.iter().zip(b.amps.iter()) {
            assert!(x.approx_eq(*y, TOL));
        }
    }

    #[test]
    fn measurement_statistics() {
        let mut ones = 0;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            let mut s = State::zero(1);
            s.apply_1q(&Gate::Ry(1.0).matrix1().unwrap(), 0);
            if s.measure(0, &mut rng) {
                ones += 1;
            }
        }
        let expect = (0.5f64).sin().powi(2); // sin²(θ/2), θ=1.
        let freq = ones as f64 / 2000.0;
        assert!((freq - expect).abs() < 0.04, "freq {freq} vs {expect}");
    }

    #[test]
    fn projection_collapses() {
        let mut s = State::zero(2);
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        s.apply_2q(&Gate::Cx.matrix2().unwrap(), 0, 1);
        s.project(0, true);
        assert!((s.prob_one(1) - 1.0).abs() < TOL);
        assert!((s.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn amplitude_damping_relaxes_excited_state() {
        // γ = 1: the excited state must fully decay to |0⟩.
        let mut s = State::basis(1, 1);
        assert!(s.damping_step(1.0, 0.5, IDENTITY_DIAG, 0).is_none());
        assert!((s.prob_one(0)).abs() < TOL);
        assert!((s.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn kraus_statistics_partial_damping() {
        let g = 0.3f64;
        let mut rng = StdRng::seed_from_u64(7);
        let mut decayed = 0;
        for _ in 0..3000 {
            let mut s = State::basis(1, 1);
            if let Some(d) = s.damping_step(g, rng.random(), rz_diag(0.4), 0) {
                s.apply_diag(d, 0);
            }
            if s.prob_one(0) < 0.5 {
                decayed += 1;
            }
        }
        let freq = decayed as f64 / 3000.0;
        assert!((freq - g).abs() < 0.03, "freq {freq} vs {g}");
    }

    #[test]
    fn expect_pauli_y() {
        let mut s = State::zero(1);
        // S·H|0⟩ = |+i⟩, the +1 eigenstate of Y.
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        s.apply_1q(&Gate::S.matrix1().unwrap(), 0);
        assert!((s.expect_pauli(&PauliString::parse("Y").unwrap()) - 1.0).abs() < TOL);
        // Signed string flips the expectation.
        assert!((s.expect_pauli(&PauliString::parse("-Y").unwrap()) + 1.0).abs() < TOL);
    }

    #[test]
    fn sample_index_distribution() {
        let mut s = State::zero(1);
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ones = 0;
        for _ in 0..2000 {
            ones += s.sample_index(&mut rng);
        }
        assert!((ones as f64 / 2000.0 - 0.5).abs() < 0.04);
    }

    #[test]
    fn damping_with_an_empty_high_half_never_jumps() {
        // Qubit 0 has no excited weight, and the state's norm² is 1/4,
        // so most draws land above K0's weight: each must still keep
        // K0 and, once its diagonal is applied, leave finite amplitudes
        // of unit norm, for every γ including 1.
        for gamma in [0.0, 0.5, 1.0] {
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..64 {
                let mut s = State::zero(2);
                s.apply_1q(&Gate::H.matrix1().unwrap(), 1);
                s.amps.iter_mut().for_each(|a| *a = a.scale(0.5));
                let d = s.damping_step(gamma, rng.random(), rz_diag(0.7), 0);
                s.apply_diag(d.expect("no weight to jump from"), 0);
                assert!(s.amps.iter().all(|a| a.re.is_finite() && a.im.is_finite()));
                assert!((s.norm_sqr() - 1.0).abs() < TOL);
            }
        }
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = State::basis(1, 0);
        let b = State::basis(1, 1);
        assert!(a.fidelity(&b).abs() < TOL);
        assert!((a.fidelity(&a) - 1.0).abs() < TOL);
    }
}

/// The index-testing kernels the blocked ones replaced, kept as the
/// oracle for the module's exactness rule, and the Kraus-channel
/// sampler [`State::damping_step`] fuses, kept as its oracle.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn apply_1q(s: &mut State, m: &Mat2, q: usize) {
        let bit = 1usize << q;
        let (m00, m01, m10, m11) = (m.0[0][0], m.0[0][1], m.0[1][0], m.0[1][1]);
        for i in 0..s.amps.len() {
            if i & bit == 0 {
                let j = i | bit;
                let a0 = s.amps[i];
                let a1 = s.amps[j];
                s.amps[i] = m00 * a0 + m01 * a1;
                s.amps[j] = m10 * a0 + m11 * a1;
            }
        }
    }

    pub fn apply_2q(s: &mut State, m: &Mat4, a: usize, b: usize) {
        let ba = 1usize << a;
        let bb = 1usize << b;
        for i in 0..s.amps.len() {
            if i & ba == 0 && i & bb == 0 {
                let idx = [i, i | ba, i | bb, i | ba | bb];
                let v = idx.map(|k| s.amps[k]);
                for (r, &out_i) in idx.iter().enumerate() {
                    let mut acc = ZERO;
                    for (c, &vc) in v.iter().enumerate() {
                        acc += m.0[r][c] * vc;
                    }
                    s.amps[out_i] = acc;
                }
            }
        }
    }

    pub fn apply_rz(s: &mut State, theta: f64, q: usize) {
        let bit = 1usize << q;
        let e0 = C64::cis(-theta / 2.0);
        let e1 = C64::cis(theta / 2.0);
        for (i, a) in s.amps.iter_mut().enumerate() {
            *a *= if i & bit == 0 { e0 } else { e1 };
        }
    }

    pub fn apply_rzz(s: &mut State, theta: f64, a: usize, b: usize) {
        let ba = 1usize << a;
        let bb = 1usize << b;
        let even = C64::cis(-theta / 2.0);
        let odd = C64::cis(theta / 2.0);
        for (i, amp) in s.amps.iter_mut().enumerate() {
            let parity = ((i & ba != 0) as u8) ^ ((i & bb != 0) as u8);
            *amp *= if parity == 0 { even } else { odd };
        }
    }

    pub fn prob_one(s: &State, q: usize) -> f64 {
        let bit = 1usize << q;
        s.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    pub fn project(s: &mut State, q: usize, outcome: bool) {
        let bit = 1usize << q;
        for (i, a) in s.amps.iter_mut().enumerate() {
            if (i & bit != 0) != outcome {
                *a = ZERO;
            }
        }
        s.renormalize();
    }

    pub fn apply_x(s: &mut State, q: usize) {
        let bit = 1usize << q;
        for i in 0..s.amps.len() {
            if i & bit == 0 {
                s.amps.swap(i, i | bit);
            }
        }
    }

    pub fn expect_pauli(s: &State, p: &PauliString) -> f64 {
        let mut acc = 0.0;
        for (i, a) in s.amps.iter().enumerate() {
            if a.norm_sqr() < 1e-30 {
                continue;
            }
            let mut j = i;
            let mut phase = C64::real(1.0);
            for (q, pq) in p.paulis.iter().enumerate() {
                let bit = 1usize << q;
                let b = i & bit != 0;
                match pq {
                    Pauli::I => {}
                    Pauli::X => j ^= bit,
                    Pauli::Y => {
                        j ^= bit;
                        phase *= if b {
                            C64::new(0.0, -1.0)
                        } else {
                            C64::new(0.0, 1.0)
                        };
                    }
                    Pauli::Z => {
                        if b {
                            phase = -phase;
                        }
                    }
                }
            }
            let term = s.amps[j].conj() * phase * *a;
            acc += term.re;
        }
        acc * p.sign as f64
    }

    pub fn branch_weight(s: &State, k: &Mat2, q: usize) -> f64 {
        let bit = 1usize << q;
        let mut w = 0.0;
        for i in 0..s.amps.len() {
            if i & bit == 0 {
                let j = i | bit;
                let n0 = k.0[0][0] * s.amps[i] + k.0[0][1] * s.amps[j];
                let n1 = k.0[1][0] * s.amps[i] + k.0[1][1] * s.amps[j];
                w += n0.norm_sqr() + n1.norm_sqr();
            }
        }
        w
    }

    pub fn apply_kraus_1q(s: &mut State, kraus: &[Mat2], q: usize, rng: &mut impl RngExt) {
        let r: f64 = rng.random();
        let mut acc = 0.0;
        for (idx, k) in kraus.iter().enumerate() {
            acc += branch_weight(s, k, q);
            if r < acc || idx == kraus.len() - 1 {
                apply_1q(s, k, q);
                s.renormalize();
                return;
            }
        }
    }
}

/// The blocked kernels against [`reference`]: equal amplitudes (`==`
/// per component, so `±0` compare equal) and equal reductions on
/// random states, for every gate matrix and structured random ones.
#[cfg(test)]
mod exactness {
    use super::*;
    use crate::noise::amplitude_damping_kraus;
    use ca_circuit::Gate;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A normalised random state. Some amplitudes are exactly zero and
    /// some tiny, so the `±0` and `< 1e-30` cases get exercised.
    fn random_state(n: usize, rng: &mut StdRng) -> State {
        let mut s = State::zero(n);
        for a in &mut s.amps {
            *a = match rng.random_range(0..8u32) {
                0 => ZERO,
                1 => C64::new(1e-17, -1e-18),
                _ => C64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5),
            };
        }
        s.amps[0] = C64::new(0.5, 0.25);
        s.renormalize();
        s
    }

    fn angle(rng: &mut StdRng) -> f64 {
        rng.random_range(-7.0..7.0)
    }

    /// A matrix entry that is exactly zero, exactly one, or random.
    fn entry(rng: &mut StdRng, zero_weight: u32) -> C64 {
        match rng.random_range(0..zero_weight + 2) {
            0 => ONE,
            1 => C64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5),
            _ => ZERO,
        }
    }

    fn one_qubit_matrices(rng: &mut StdRng) -> Vec<Mat2> {
        let mut gates = vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
        ];
        for _ in 0..2 {
            gates.push(Gate::Rx(angle(rng)));
            gates.push(Gate::Ry(angle(rng)));
            gates.push(Gate::Rz(angle(rng)));
            gates.push(Gate::U {
                theta: angle(rng),
                phi: angle(rng),
                lam: angle(rng),
            });
        }
        let mut out: Vec<Mat2> = gates.iter().filter_map(Gate::matrix1).collect();
        out.extend(amplitude_damping_kraus(rng.random()));
        for zero_weight in [0, 1, 3] {
            for _ in 0..4 {
                let mut m = Mat2::zero();
                for e in m.0.iter_mut().flatten() {
                    *e = entry(rng, zero_weight);
                }
                out.push(m);
            }
        }
        out
    }

    fn two_qubit_matrices(rng: &mut StdRng) -> Vec<Mat4> {
        let mut gates = vec![Gate::Cx, Gate::Cz, Gate::Ecr];
        for _ in 0..2 {
            gates.push(Gate::Rzz(angle(rng)));
            gates.push(Gate::Can {
                alpha: angle(rng),
                beta: angle(rng),
                gamma: angle(rng),
            });
        }
        let mut out: Vec<Mat4> = gates.iter().filter_map(Gate::matrix2).collect();
        let mut swap = Mat4::zero();
        for (r, c) in [(0, 0), (1, 2), (2, 1), (3, 3)] {
            swap.0[r][c] = ONE;
        }
        out.push(swap);
        for zero_weight in [0, 2, 6] {
            for _ in 0..4 {
                let mut m = Mat4::zero();
                for e in m.0.iter_mut().flatten() {
                    *e = entry(rng, zero_weight);
                }
                out.push(m);
            }
        }
        out
    }

    fn random_pauli(n: usize, rng: &mut StdRng) -> PauliString {
        let mut p = PauliString::identity(n);
        for pq in &mut p.paulis {
            *pq = Pauli::ALL[rng.random_range(0..4usize)];
        }
        p.sign = if rng.random::<bool>() { 1 } else { -1 };
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn blocked_kernels_match_reference(n in 1..11usize, seed in 0..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = random_state(n, &mut rng);
            for q in 0..n {
                for m in one_qubit_matrices(&mut rng) {
                    let (mut got, mut want) = (s.clone(), s.clone());
                    got.apply_1q(&m, q);
                    reference::apply_1q(&mut want, &m, q);
                    prop_assert_eq!(&got.amps, &want.amps, "apply_1q {:?} on {}", m, q);
                }
                let theta = angle(&mut rng);
                let (mut got, mut want) = (s.clone(), s.clone());
                got.apply_rz(theta, q);
                reference::apply_rz(&mut want, theta, q);
                prop_assert_eq!(&got.amps, &want.amps, "apply_rz on {}", q);
                let d = [entry(&mut rng, 1), entry(&mut rng, 1)];
                let (mut got, mut want) = (s.clone(), s.clone());
                got.apply_diag(d, q);
                reference::apply_1q(&mut want, &Mat2([[d[0], ZERO], [ZERO, d[1]]]), q);
                prop_assert_eq!(&got.amps, &want.amps, "apply_diag on {}", q);
                let (mut got, mut want) = (s.clone(), s.clone());
                got.apply_x(q);
                reference::apply_x(&mut want, q);
                prop_assert_eq!(&got.amps, &want.amps, "apply_x on {}", q);
                prop_assert_eq!(s.prob_one(q), reference::prob_one(&s, q));
                for outcome in [false, true] {
                    let (mut got, mut want) = (s.clone(), s.clone());
                    got.project(q, outcome);
                    reference::project(&mut want, q, outcome);
                    prop_assert_eq!(&got.amps, &want.amps, "project {} on {}", outcome, q);
                }
            }
            // Both operand orders: every ordered pair of distinct qubits.
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    for m in two_qubit_matrices(&mut rng) {
                        let (mut got, mut want) = (s.clone(), s.clone());
                        got.apply_2q(&m, a, b);
                        reference::apply_2q(&mut want, &m, a, b);
                        prop_assert_eq!(&got.amps, &want.amps, "apply_2q {:?} on ({}, {})", m, a, b);
                    }
                    let theta = angle(&mut rng);
                    let (mut got, mut want) = (s.clone(), s.clone());
                    got.apply_rzz(theta, a, b);
                    reference::apply_rzz(&mut want, theta, a, b);
                    prop_assert_eq!(&got.amps, &want.amps, "apply_rzz on ({}, {})", a, b);
                }
            }
            for _ in 0..16 {
                let p = random_pauli(n, &mut rng);
                prop_assert_eq!(s.expect_pauli(&p), reference::expect_pauli(&s, &p), "{:?}", p);
            }
        }

        /// The damping read/jump step is not held to `==`: it folds the
        /// pending phase and the renormalisation into one scale, which
        /// rounds differently. On a state scaled by `2⁻²⁰⁰` (the
        /// deferred norm; a power of two scales every weight exactly)
        /// it must take the reference's branch on the same draw and,
        /// once its diagonal is applied, agree to 1e-14 per amplitude
        /// component with `Rz` + Kraus + renormalise on the normalised
        /// state.
        #[test]
        fn damping_step_matches_rz_then_kraus(n in 1..9usize, seed in 0..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = random_state(n, &mut rng);
            let mut scaled = s.clone();
            scaled.amps.iter_mut().for_each(|a| *a = a.scale(TINY));
            for q in 0..n {
                for gamma in [rng.random::<f64>(), rng.random::<f64>() * 1e-3, 1.0] {
                    let theta = angle(&mut rng);
                    let draw = rng.random::<u64>();
                    let r: f64 = StdRng::seed_from_u64(draw).random();
                    let mut got = scaled.clone();
                    let kept = got.damping_step(gamma, r, rz_diag(theta), q);
                    if let Some(d) = kept {
                        got.apply_diag(d, q);
                    }
                    let mut want = s.clone();
                    reference::apply_rz(&mut want, theta, q);
                    let kraus = amplitude_damping_kraus(gamma);
                    let k0_weight = reference::branch_weight(&want, &kraus[0], q);
                    reference::apply_kraus_1q(&mut want, &kraus, q, &mut StdRng::seed_from_u64(draw));
                    prop_assert_eq!(kept.is_none(), r >= k0_weight, "branch on {} at γ {}", q, gamma);
                    assert_close(&got, &want, &format!("damping on {q} at γ {gamma}"))?;
                }
            }
        }

        /// The fused measure against `diag(d)`, renormalise, measure
        /// (and `X` on a reset of 1) on the reference kernels: the same
        /// outcome on the same draw, and amplitudes within 1e-14, from
        /// a state scaled by `2⁻²⁰⁰` and pending diagonals that carry a
        /// phase and a damping K0.
        #[test]
        fn fused_measure_matches_diag_then_project(n in 1..9usize, seed in 0..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = random_state(n, &mut rng);
            let mut scaled = s.clone();
            scaled.amps.iter_mut().for_each(|a| *a = a.scale(TINY));
            for q in 0..n {
                for reset in [false, true] {
                    let theta = angle(&mut rng);
                    let keep = [1.0, rng.random::<f64>()][rng.random_range(0..2usize)];
                    let d = [C64::cis(-theta / 2.0), C64::cis(theta / 2.0).scale(keep.sqrt())];
                    let draw = rng.random::<u64>();
                    let mut got = scaled.clone();
                    let outcome = got.measure_diag(q, d, reset, &mut StdRng::seed_from_u64(draw));
                    let mut want = s.clone();
                    reference::apply_1q(&mut want, &Mat2([[d[0], ZERO], [ZERO, d[1]]]), q);
                    want.renormalize();
                    let r: f64 = StdRng::seed_from_u64(draw).random();
                    let want_outcome = r < reference::prob_one(&want, q);
                    reference::project(&mut want, q, want_outcome);
                    if reset && want_outcome {
                        reference::apply_x(&mut want, q);
                    }
                    prop_assert_eq!(outcome, want_outcome, "outcome on {}", q);
                    assert_close(&got, &want, &format!("measure on {q}, reset {reset}"))?;
                }
            }
        }
    }

    /// `2⁻²⁰⁰`: an unnormalised state's scale that rounds nothing.
    const TINY: f64 = 6.223_015_277_861_142e-61;

    /// Every amplitude component within 1e-14.
    fn assert_close(got: &State, want: &State, what: &str) -> Result<(), TestCaseError> {
        for (a, b) in got.amps.iter().zip(&want.amps) {
            prop_assert!(
                (a.re - b.re).abs() <= 1e-14 && (a.im - b.im).abs() <= 1e-14,
                "{}: {:?} vs {:?}",
                what,
                a,
                b
            );
        }
        Ok(())
    }
}

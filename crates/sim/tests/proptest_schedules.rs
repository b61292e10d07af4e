//! Property tests for the counter-based seed schedule.
//!
//! Three layers of guarantees:
//!
//! * **Engine equivalence** — the serial stabilizer engine and the
//!   bit-parallel batch engine produce bit-identical counts at every
//!   shot count (full words, partial tail lanes, single shots) and
//!   every worker count.
//! * **Statistical equivalence** — the batch engine's hashed noise
//!   draws and the dense engine's sequential stream sample the *same*
//!   physical noise model, so on a circuit where the frame twirl is
//!   exact their distributions must agree up to shot noise (TVD band
//!   on a 4-qubit Ramsey circuit).
//! * **Primitive soundness** — the per-(shot, site) hash has no
//!   collisions over a large structured grid and avalanches on
//!   single-bit input flips; the bit-plane threshold ladders
//!   ([`lt_lane`], [`lt_masks`]) agree lane-for-lane with the
//!   reference word ladder [`lt_mask`], and the block-evaluated word
//!   ladders agree with the sequential one-plane-at-a-time ladder on
//!   thresholds whose exits straddle block boundaries.

use ca_circuit::{schedule_asap, Circuit, GateDurations, ScheduledCircuit};
use ca_device::{uniform_device, Device, Topology};
use ca_sim::plan::{bern_theta, bern_threshold, lt_lane, lt_mask, lt_masks, plane, shot_site_seed};
use ca_sim::{CompiledCircuit, Engine, InsertionSet, NoiseConfig, Simulator};
use proptest::prelude::*;

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

/// A noisy line device with every stochastic channel switched on.
fn noisy_device(n: usize) -> Device {
    let mut dev = uniform_device(Topology::line(n), 60.0);
    for q in 0..n {
        dev.calibration.qubits[q].quasistatic_khz = 30.0;
        dev.calibration.qubits[q].charge_parity_khz = 3.0;
        dev.calibration.qubits[q].t1_us = 80.0;
        dev.calibration.qubits[q].t2_us = 90.0;
        dev.calibration.qubits[q].readout_err = 0.03;
        dev.calibration.qubits[q].gate_err_1q = 0.002;
    }
    dev
}

/// A brickwork Clifford layer with a measurement round: H row, two
/// staggered ECR rows, measure all.
fn layer_circuit(n: usize) -> ScheduledCircuit {
    let mut qc = Circuit::new(n, n);
    for q in 0..n {
        qc.h(q);
    }
    for q in (0..n - 1).step_by(2) {
        qc.ecr(q, q + 1);
    }
    for q in (1..n - 1).step_by(2) {
        qc.ecr(q, q + 1);
    }
    for q in 0..n {
        qc.measure(q, q);
    }
    schedule_asap(&qc, GateDurations::default())
}

fn noisy_sim(n: usize) -> Simulator {
    Simulator::with_config(noisy_device(n), NoiseConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Serial and batch must agree bit-for-bit. Shot counts weight the
    // word-boundary cases (partial tail lanes, exactly one word, one
    // shot) that the bit-plane sampler has to mask correctly.
    #[test]
    fn serial_and_batch_bit_identical_under_pinned_schedules(
        shots in prop_oneof![
            Just(1usize), Just(63), Just(64), Just(65), Just(127), Just(129),
            1..300usize,
        ],
        seed in 0..u64::MAX,
    ) {
        let sim = noisy_sim(6);
        let sc = layer_circuit(6);
        let (serial, batch) = serial_and_batch(&sim, &sc, seed);
        let none = InsertionSet::empty();
        let serial = serial.run_counts(shots, &none, None).unwrap();
        let one = batch.run_counts(shots, &none, Some(1)).unwrap();
        prop_assert_eq!(
            &serial, &one,
            "serial vs batch diverge: shots {} seed {}", shots, seed
        );
        for workers in [2usize, 8] {
            let got = batch.run_counts(shots, &none, Some(workers)).unwrap();
            prop_assert_eq!(
                &one, &got,
                "worker-count dependence: shots {} workers {}", shots, workers
            );
        }
    }

    // The reference word ladder and its two decompositions: a single
    // lane of `lt_mask` is `lt_lane`, and `lt_masks` over shared
    // planes matches the standalone ladder entry-for-entry.
    #[test]
    fn ladder_decompositions_match_reference(
        base in 0..u64::MAX,
        t0 in prop_oneof![Just(0u64), Just(u64::MAX), Just(1u64 << 63), 0..u64::MAX],
        t1 in prop_oneof![Just(0u64), Just(u64::MAX), Just(1u64), 0..u64::MAX],
        t2 in 0..u64::MAX,
    ) {
        let reference = lt_mask(base, t0);
        for lane in 0..64u32 {
            prop_assert_eq!(
                lt_lane(base, lane, t0),
                reference >> lane & 1 == 1,
                "lane {} base {:#x} t {:#x}", lane, base, t0
            );
        }
        let joint = lt_masks(base, [t0, t1, t2]);
        for (i, &t) in [t0, t1, t2].iter().enumerate() {
            prop_assert_eq!(
                joint[i], lt_mask(base, t),
                "entry {} base {:#x} t {:#x}", i, base, t
            );
        }
        prop_assert_eq!(lt_masks(base, [t1])[0], lt_mask(base, t1));
    }
}

// An independent oracle for the frame engines' per-lane bank
// thresholds: the dense engine draws each shot's charge-parity sign
// and quasi-static detuning from its own sequential stream and applies
// the accumulated phase exactly, sharing no sampling code with the
// hashed bit-plane ladders. In each circuit below every qubit's bank
// flushes once, at its closing H, so the frame engine's Pauli twirl is
// exact in distribution and both engines sample the same outcome
// distribution. Four measured qubits keep the outcome space small (16
// patterns), so the empirical TVD between two 8192-shot runs of the
// same distribution concentrates well below the 0.1 band asserted
// here.
//
// The Ramsey case checks the bank's magnitude. The asymmetric echo
// (`h`, τ₁, `x`, τ₂ = τ₁/2, `h`) checks its sign: the X pulse negates
// the bank instead of flushing it, so the phase that survives is that
// of τ₁ − τ₂. A walk that kept the bank's sign would dephase over
// τ₁ + τ₂ and move every marginal well outside the 0.05 band.
#[test]
fn frame_batch_bank_draws_match_dense_ramsey() {
    let n = 4;
    let shots = 8192;
    let mut dev = uniform_device(Topology::line(n), 0.0);
    for q in 0..n {
        dev.calibration.qubits[q].quasistatic_khz = 30.0;
        dev.calibration.qubits[q].charge_parity_khz = 12.0;
        dev.calibration.qubits[q].readout_err = 0.03;
        dev.calibration.qubits[q].gate_err_1q = 0.002;
    }
    let noise = NoiseConfig {
        charge_parity: true,
        quasistatic: true,
        gate_error: true,
        readout_error: true,
        ..NoiseConfig::ideal()
    };
    let mut ramsey = Circuit::new(n, n);
    let mut echo = Circuit::new(n, n);
    for q in 0..n {
        ramsey
            .h(q)
            .delay(1500.0 * (q + 1) as f64, q)
            .h(q)
            .measure(q, q);
        let tau = 2000.0 * (q + 1) as f64;
        echo.h(q)
            .delay(tau, q)
            .x(q)
            .delay(tau / 2.0, q)
            .h(q)
            .measure(q, q);
    }
    for (name, qc) in [("ramsey", ramsey), ("echo", echo)] {
        let sc = schedule_asap(&qc, GateDurations::default());
        let run = |engine| {
            Simulator::with_engine(dev.clone(), noise, engine)
                .run_counts(&sc, shots, 41)
                .unwrap()
        };
        let frame = run(Engine::FrameBatch);
        let dense = run(Engine::Statevector);
        let mut tvd = 0.0f64;
        for pattern in 0..16u64 {
            tvd += (frame.probability(pattern) - dense.probability(pattern)).abs();
        }
        tvd /= 2.0;
        assert!(
            tvd < 0.1,
            "{name}: frame/dense TVD {tvd:.4} outside the shot-noise band"
        );
        for c in 0..n {
            let d = (frame.marginal_one(c) - dense.marginal_one(c)).abs();
            assert!(d < 0.05, "{name} clbit {c}: marginal gap {d:.4}");
        }
    }
}

// 100k structured (shot, site) points — the densest region the
// engines actually use — must map to 100k distinct draw seeds.
#[test]
fn shot_site_seed_has_no_collisions_on_structured_grid() {
    let mut seeds: Vec<u64> = Vec::with_capacity(100_000);
    for shot in 0..1000u64 {
        for site in 0..100u64 {
            seeds.push(shot_site_seed(11, shot, site));
        }
    }
    seeds.sort_unstable();
    let before = seeds.len();
    seeds.dedup();
    assert_eq!(seeds.len(), before, "shot_site_seed collided on the grid");
}

// Single-bit flips of either coordinate must flip about half the
// output bits: the per-(shot, site) draws sit adjacent in shot and
// site space, so weak diffusion would correlate neighbouring lanes.
#[test]
fn shot_site_seed_avalanches_on_single_bit_flips() {
    let mut total = 0u64;
    let mut flips = 0u64;
    for i in 0..64u64 {
        let (shot, site) = (i.wrapping_mul(977), i.wrapping_mul(1213) ^ 5);
        let h = shot_site_seed(7, shot, site);
        for b in 0..64 {
            total += 2;
            flips += (h ^ shot_site_seed(7, shot ^ (1 << b), site)).count_ones() as u64;
            flips += (h ^ shot_site_seed(7, shot, site ^ (1 << b))).count_ones() as u64;
        }
    }
    let mean = flips as f64 / total as f64;
    assert!(
        (28.0..=36.0).contains(&mean),
        "avalanche mean {mean:.2} bits, expected ~32"
    );
}

/// The sequential word ladder the block ladders replaced, kept as
/// their reference: one plane at a time, exiting as soon as every
/// lane is decided or every remaining threshold bit is 0.
fn sequential_lt_mask(base: u64, t: u64) -> u64 {
    let mut result = 0u64;
    let mut undecided = u64::MAX;
    for k in 0..64 {
        if undecided == 0 || t << k == 0 {
            break;
        }
        let p = plane(base, k);
        if t >> (63 - k) & 1 == 1 {
            result |= undecided & !p;
            undecided &= p;
        } else {
            undecided &= !p;
        }
    }
    result
}

/// Thresholds whose sequential exits straddle the 8-plane block
/// boundaries (7, 8, 9, 15, 16, 17 and 63 leading zeros, with and
/// without low bits below the leading one), the edge values 0, 1,
/// 2⁶³ and `u64::MAX`, and the Bernoulli thresholds of the noise
/// rates the engines draw.
fn ladder_thresholds() -> Vec<u64> {
    let mut ts = vec![0, 1, 1 << 63, u64::MAX];
    for lz in [7u32, 8, 9, 15, 16, 17, 63] {
        let lead = 1u64 << (63 - lz);
        ts.push(lead);
        ts.push(lead | 0x5DEE_CE66_D1CE_5EED_u64.checked_shr(lz + 1).unwrap_or(0));
        ts.push(lead | (lead - 1));
    }
    ts.extend([1e-4, 1e-3, 0.01, 0.5].map(bern_threshold));
    ts
}

// The block-evaluated ladders must equal the sequential ladder bit
// for bit: past the sequential exit a block step adds no lane, so
// evaluating whole blocks of planes is exact.
#[test]
fn block_ladders_match_the_sequential_ladder() {
    let ts = ladder_thresholds();
    let bases: Vec<u64> = (0..24u64).map(|i| shot_site_seed(3, i, 17)).collect();
    for &base in &bases {
        for &t in &ts {
            let reference = sequential_lt_mask(base, t);
            assert_eq!(lt_mask(base, t), reference, "base {base:#x} t {t:#x}");
            assert_eq!(lt_masks(base, [t])[0], reference, "N=1 t {t:#x}");
        }
        for &t0 in &ts {
            for &t1 in &ts {
                let pair = lt_masks(base, [t0, t1]);
                assert_eq!(pair, [t0, t1].map(|t| sequential_lt_mask(base, t)));
            }
        }
        for (i, &t0) in ts.iter().enumerate() {
            for &t1 in &ts[i..] {
                for &t2 in &ts[i..] {
                    let ladders = [t0, t1, t2];
                    assert_eq!(
                        lt_masks(base, ladders),
                        ladders.map(|t| sequential_lt_mask(base, t)),
                        "base {base:#x} ts {ladders:#x?}"
                    );
                }
            }
        }
    }
}

/// A bank-threshold tail workload: every qubit banks a static `rz`
/// between Hadamards, several rounds deep, then reads out in the
/// X basis. Most angles put the bank threshold between 2⁻⁹ and 2⁻⁸:
/// its top byte is zero, so a lane's first eight planes decide it only
/// when one of them is set, and about one lane in 256 is left for its
/// own threshold past the 8-plane block, where about half of them
/// fire. Two larger angles keep non-zero top threshold bytes in the
/// transposed block. Per-lane charge parity and quasi-static
/// detuning spread the thresholds across noise codes.
fn bank_tail_circuit(n: usize, angles: &[f64]) -> ScheduledCircuit {
    let mut qc = Circuit::new(n, n);
    for _ in 0..4 {
        for q in 0..n {
            qc.h(q).rz(angles[q % angles.len()], q);
        }
    }
    for q in 0..n {
        qc.h(q).measure(q, q);
    }
    schedule_asap(&qc, GateDurations::default())
}

/// Angles of [`bank_tail_circuit`]: four just above
/// `sin²(θ/2) = 2⁻⁹` (θ ≈ 0.0884), two large.
const TAIL_ANGLES: [f64; 6] = [0.0890, 0.0905, 1.2, 0.0897, 0.3, 0.0912];

#[test]
fn bank_tail_thresholds_stay_bit_identical_to_serial() {
    for &theta in TAIL_ANGLES.iter().filter(|&&a| a < 0.1) {
        assert_eq!(bern_theta(theta).leading_zeros(), 8, "θ = {theta}");
    }
    let n = 6;
    let sim = noisy_sim(n);
    let sc = bank_tail_circuit(n, &TAIL_ANGLES);
    for (shots, seed) in [(2048usize, 5u64), (777, 6)] {
        let (serial, batch) = serial_and_batch(&sim, &sc, seed);
        let none = InsertionSet::empty();
        let serial = serial.run_counts(shots, &none, None).unwrap();
        for workers in [1usize, 2, 3] {
            let got = batch.run_counts(shots, &none, Some(workers)).unwrap();
            assert_eq!(serial, got, "shots {shots} workers {workers}");
        }
    }
}

//! Pinned dense-engine outputs.
//!
//! The statevector kernels' structural shortcuts may only get faster,
//! never change a result bit (see the exactness rule in `ca-sim`'s
//! `statevector` module). The trajectory's folds — diagonal 1q gates
//! held in a gate-phase bank, each flush's pending diagonal folded
//! into the gate that forced it, damping decided from the draw and
//! the norm deferred — move amplitudes by rounding only. So:
//!
//! - the count maps of two 8-qubit circuits under the full noise model
//!   are pinned exactly;
//! - learned PEC overheads γ and layer fidelities at a tiny budget are
//!   pinned as `f64::to_bits` and re-pinned when a fold moves their
//!   last bits;
//! - full-noise CA-EC and CA-EC+DD decay expectations, with error
//!   Paulis landing on the compensation gates, must stay within 1e-12
//!   of the values the unfused walk recorded (one `apply_rz` per
//!   virtual `Rz`, the damping step as `Rz` + Kraus + renormalise);
//! - a strong-damping circuit (T1 of about one ECR, mid-circuit
//!   measure and reset, ECRs on edges with pending ZZ) pins its counts
//!   exactly and its expectations within 1e-12 of the unfused walk.
//!
//! They assume the platform's `sin`/`cos`/`exp` return the same bits
//! as where they were recorded (x86-64 Linux, glibc).

use ca_experiments::layer_fidelity::fig8_device;
use ca_experiments::pec::learn_gamma;
use ca_sim::{InsertionSet, Session};
use context_aware_compiling::prelude::*;

const N: usize = 8;

/// `(strategy, γ bits, LF bits)` at depths [1, 2], 16 trajectories,
/// one twirl instance, seed 1, on `fig8_device(37)`.
const LEARNED: [(Strategy, u64, u64); 2] = [
    (Strategy::CaEc, 0x3ffe_f725_43ab_bf26, 0x3fe6_a086_b968_42ca),
    (
        Strategy::CaEcPlusDd,
        0x4000_ac84_6c9e_5781,
        0x3fe5_c12f_7472_a7e7,
    ),
];

/// Counts of [`ghz`] at 300 shots, seed 7.
#[rustfmt::skip]
const GHZ_COUNTS: [(u64, usize); 25] = [
    (0, 129), (1, 1), (2, 3), (4, 1), (8, 2), (15, 1), (32, 3), (63, 1), (64, 4), (95, 1),
    (126, 1), (127, 2), (128, 2), (129, 1), (191, 1), (192, 2), (223, 3), (224, 2), (225, 1),
    (239, 1), (240, 2), (247, 1), (251, 3), (254, 1), (255, 131),
];

/// Counts of [`rotations`] at 300 shots, seed 7.
#[rustfmt::skip]
const ROTATION_COUNTS: [(u64, usize); 71] = [
    (0, 26), (2, 1), (8, 6), (12, 1), (16, 8), (18, 2), (20, 1), (22, 1), (24, 1), (26, 1),
    (32, 23), (40, 1), (48, 3), (56, 1), (64, 31), (65, 3), (68, 3), (72, 5), (78, 1), (80, 8),
    (82, 1), (84, 3), (88, 1), (94, 3), (96, 7), (100, 1), (104, 3), (108, 1), (112, 2), (114, 1),
    (118, 1), (120, 4), (124, 2), (126, 2), (127, 1), (128, 19), (130, 4), (132, 5), (136, 5),
    (144, 7), (146, 1), (148, 1), (152, 1), (160, 13), (162, 1), (164, 3), (168, 4), (176, 7),
    (180, 1), (183, 1), (184, 5), (188, 3), (190, 1), (192, 17), (194, 1), (196, 1), (200, 1),
    (208, 5), (218, 1), (220, 1), (222, 1), (224, 8), (232, 3), (234, 1), (236, 1), (238, 1),
    (239, 1), (240, 10), (241, 1), (248, 3), (254, 1),
];

fn ghz() -> Circuit {
    let mut qc = Circuit::new(N, N);
    qc.h(0);
    for q in 0..N - 1 {
        qc.cx(q, q + 1);
    }
    for q in 0..N {
        qc.measure(q, q);
    }
    qc
}

/// Non-diagonal `ry`/`rx` rotations around a CX chain: dense-only.
fn rotations() -> Circuit {
    let mut qc = Circuit::new(N, N);
    for q in 0..N {
        qc.ry(0.3 + 0.11 * q as f64, q);
    }
    for q in 0..N - 1 {
        qc.cx(q, q + 1);
    }
    for q in 0..N {
        qc.rx(0.2 + 0.07 * q as f64, q);
        qc.measure(q, q);
    }
    qc
}

#[test]
fn learned_gamma_and_lf_bits_are_pinned() {
    let device = fig8_device(37);
    let budget = Budget {
        trajectories: 16,
        instances: 1,
        seed: 1,
    };
    for (strategy, gamma, lf) in LEARNED {
        let r = learn_gamma(&device, strategy, &[1, 2], &budget).unwrap();
        assert_eq!(
            (r.gamma_learned.to_bits(), r.lf.to_bits()),
            (gamma, lf),
            "{}: γ {} LF {}",
            r.label,
            r.gamma_learned,
            r.lf
        );
    }
}

#[test]
fn dense_counts_are_pinned_at_every_worker_count() {
    let sim = Simulator::with_engine(
        uniform_device(Topology::line(N), 60.0),
        NoiseConfig::default(),
        Engine::Statevector,
    );
    let session = Session::new(sim.clone());
    for (qc, pinned) in [
        (ghz(), &GHZ_COUNTS[..]),
        (rotations(), &ROTATION_COUNTS[..]),
    ] {
        let sc = schedule_asap(&qc, GateDurations::default());
        let want: Vec<(u64, usize)> = pinned.to_vec();
        let direct = sim.run_counts(&sc, 300, 7).unwrap();
        assert_eq!(direct.counts.into_iter().collect::<Vec<_>>(), want);
        let compiled = session.compiled(&sc, 7).unwrap();
        for workers in [1usize, 2, 3] {
            let got = compiled
                .run_counts(300, &InsertionSet::empty(), Some(workers))
                .unwrap();
            assert_eq!(
                got.counts.into_iter().collect::<Vec<_>>(),
                want,
                "{workers} workers"
            );
        }
    }
}

/// Full-noise CA-EC and CA-EC+DD decay circuits of the Fig. 8 layer
/// on `fig8_device(37)`, with every edge's 2q gate error raised to
/// [`RAISED_GATE_ERR_2Q`] so error Paulis land on the compiled `Rzz`
/// compensation gates while virtual `Rz` phases are still pending.
/// One `(strategy, depth)` job per row, 64 shots, one expectation per
/// Fig. 8 partition.
const RAISED_GATE_ERR_2Q: f64 = 0.2;

/// `⟨P⟩` bits per partition of [`decay_jobs`], in job order, as the
/// unfused walk computed them (seed 5).
#[rustfmt::skip]
const DECAY_EXPECTATIONS: [[u64; 6]; 6] = [
    [0x3fe608737476a73a, 0x3fe780bbfea8f56c, 0x3fe778507202f896, 0x3fec3b9a18e6ae3d, 0x3feeecad7d0e4eb0, 0x3fefa080097ea1e6],
    [0x3fe33c1ac2120e63, 0x3fe0432d81e809f9, 0x3fe26d73162250dd, 0x3fee0937d8129a1b, 0x3feff6fd9e29ce8a, 0x3feeabd54633d711],
    [0x3fd52a94c4926524, 0x3fc6adddf9c17900, 0x3fcef9bcc1803db9, 0x3fed1794ba2e1e60, 0x3feacdf810f30008, 0x3feb7a721f974bb1],
    [0x3fe72b977f126fd9, 0x3fe5e7c6d2d28580, 0x3fe830c5489f1a4f, 0x3feec5a8582b5e12, 0x3fefe482e1db545a, 0x3fef9e453469c746],
    [0x3fe559b3a3a1cc74, 0x3fe479f445e58bd7, 0x3fdf8a253ff29023, 0x3fe9e7299df16d7e, 0x3fef7c1e4f31700a, 0x3fefec5d717a4a50],
    [0x3fc1f6d71e2e81a6, 0x3fc760354abb7567, 0x3fdcefb5ee70860c, 0x3fef4947de917af8, 0x3feed06efde8aa85, 0x3fef92f8d15efe27],
];

/// `(strategy, depth, compiled decay circuit, observables)` per row of
/// [`DECAY_EXPECTATIONS`]: X/Y preparations alternate over the qubits,
/// so every partition's signal carries the Z phases the compiler
/// compensates.
fn decay_jobs(device: &Device) -> Vec<(Strategy, usize, ScheduledCircuit, Vec<PauliString>)> {
    use ca_experiments::layer_fidelity::{partitions, LAYER_GATES};
    use ca_mitigation::learn::{layer_circuit, propagate_through_layers};
    let n = device.num_qubits();
    let preps: Vec<(usize, Pauli)> = (0..n)
        .map(|q| (q, if q % 2 == 0 { Pauli::X } else { Pauli::Y }))
        .collect();
    let mut jobs = Vec::new();
    for strategy in [Strategy::CaEc, Strategy::CaEcPlusDd] {
        for depth in [1, 2, 4] {
            let qc = layer_circuit(n, &preps, &LAYER_GATES, depth);
            let opts = CompileOptions::new(strategy, 11 + depth as u64);
            let sc = compile(&qc, device, &opts).unwrap();
            let observables = partitions()
                .iter()
                .map(|part| {
                    let mut p = PauliString::identity(n);
                    for &q in part {
                        p.paulis[q] = preps[q].1;
                    }
                    propagate_through_layers(&p, &LAYER_GATES, depth)
                })
                .collect();
            jobs.push((strategy, depth, sc, observables));
        }
    }
    jobs
}

#[test]
fn decay_expectations_stay_within_tolerance_of_the_unfused_walk() {
    let mut device = fig8_device(37);
    for edge in device.calibration.edges.values_mut() {
        edge.gate_err_2q = RAISED_GATE_ERR_2Q;
    }
    let jobs = decay_jobs(&device);
    assert_eq!(jobs.len(), DECAY_EXPECTATIONS.len());
    let sim = Simulator::with_engine(device, NoiseConfig::default(), Engine::Statevector);
    for ((strategy, depth, sc, obs), pinned) in jobs.iter().zip(DECAY_EXPECTATIONS) {
        let got = sim.expect_paulis(sc, obs, 64, 5).unwrap();
        for ((p, &v), bits) in obs.iter().zip(&got).zip(pinned) {
            let want = f64::from_bits(bits);
            assert!(
                (v - want).abs() <= 1e-12,
                "{strategy:?} depth {depth} {p:?}: {v} vs pinned {want}"
            );
        }
    }
}

/// [`strong_damping`]'s qubits relax within about one ECR: T1 0.35 µs,
/// T2 0.5 µs, against 480 ns ECRs and a 4 µs mid-circuit readout.
fn strong_damping_sim() -> Simulator {
    let mut device = uniform_device(Topology::line(5), 120.0);
    for q in &mut device.calibration.qubits {
        q.t1_us = 0.35;
        q.t2_us = 0.5;
    }
    Simulator::with_engine(device, NoiseConfig::default(), Engine::Statevector)
}

/// Three rounds of ECRs on the 5q line's crosstalk edges; idle delays
/// leave ZZ pending on edge (1, 2) when its ECR flushes the pair; X
/// and H keep re-exciting the qubits; a measure of qubit 2 and a reset
/// of qubit 3 in the first two rounds; final measures on every qubit
/// when `measured`.
fn strong_damping(measured: bool) -> Circuit {
    let mut qc = Circuit::new(5, if measured { 6 } else { 1 });
    for round in 0..3 {
        let t = 0.3 * round as f64;
        qc.h(0).sx(1).ry(0.7 + t, 2).x(3).h(4);
        qc.ecr(0, 1).ecr(2, 3);
        qc.rz(0.4 + t, 1).x(4).delay(300.0, 4);
        qc.delay(300.0, 1).delay(300.0, 2);
        qc.ecr(1, 2).x(0).ecr(3, 4);
        if round < 2 {
            qc.measure(2, 0).reset(3);
        }
        qc.x(1).h(3).ry(1.1 - t, 2).ecr(2, 3).sx(0).ecr(0, 1).x(4);
    }
    // Aligned last gates leave little idle time to the end, so the
    // expectations keep some signal.
    qc.barrier(Vec::<usize>::new());
    qc.rx(0.5, 0).ry(0.9, 1).sx(2).h(3).rx(1.3, 4);
    if measured {
        for q in 0..5 {
            qc.measure(q, q + 1);
        }
    }
    qc
}

/// Counts of [`strong_damping`]`(true)` at 300 shots, seed 3.
#[rustfmt::skip]
const STRONG_DAMPING_COUNTS: [(u64, usize); 54] = [
    (0, 1), (2, 13), (3, 8), (4, 1), (5, 1), (6, 13), (7, 6), (8, 1), (9, 3), (10, 9), (11, 9),
    (12, 2), (13, 3), (14, 7), (15, 5), (17, 5), (18, 15), (19, 15), (20, 2), (21, 3), (22, 12),
    (23, 10), (24, 6), (25, 2), (26, 15), (27, 16), (29, 1), (30, 12), (31, 3), (34, 7), (35, 4),
    (37, 1), (38, 4), (39, 4), (40, 1), (42, 4), (43, 6), (44, 1), (45, 3), (46, 5), (47, 2),
    (50, 9), (51, 8), (52, 2), (53, 1), (54, 9), (55, 5), (57, 1), (58, 4), (59, 5), (60, 3),
    (61, 3), (62, 3), (63, 6),
];

/// `(Pauli, ⟨P⟩ bits)` of [`strong_damping`]`(false)` at 200
/// trajectories, seed 9, as the unfused walk computed them.
const STRONG_DAMPING_EXPECTATIONS: [(&str, u64); 6] = [
    ("ZIIII", 0xbfe5e78d85904e57),
    ("IZIII", 0x3fc23f5cfcdccce2),
    ("IIXII", 0xbfa34bb934a11ee4),
    ("XXIII", 0x3f079f9cac9f76c0),
    ("IIIZY", 0x3fc2cb761f8b9686),
    ("ZZZZZ", 0xbf5704ac41b6125a),
];

/// [`strong_damping`] against the unfused walk: its counts exactly
/// (every branch decision), its expectations within 1e-12. Over both
/// runs, 52% of its damping steps read their weights and half of the
/// reads jump; about 4,600 reads first apply the partner's pending
/// diagonal and 1,500 the gate edge's pending ZZ, the two orderings a
/// read must keep.
#[test]
fn strong_damping_counts_and_expectations_are_pinned() {
    let sim = strong_damping_sim();
    let sc = schedule_asap(&strong_damping(true), GateDurations::default());
    let got: Vec<(u64, usize)> = sim
        .run_counts(&sc, 300, 3)
        .unwrap()
        .counts
        .into_iter()
        .collect();
    assert_eq!(got, STRONG_DAMPING_COUNTS);
    let sc = schedule_asap(&strong_damping(false), GateDurations::default());
    let obs: Vec<PauliString> = STRONG_DAMPING_EXPECTATIONS
        .iter()
        .map(|(p, _)| PauliString::parse(p).unwrap())
        .collect();
    let got = sim.expect_paulis(&sc, &obs, 200, 9).unwrap();
    for (v, (p, bits)) in got.iter().zip(STRONG_DAMPING_EXPECTATIONS) {
        let want = f64::from_bits(bits);
        assert!((v - want).abs() <= 1e-12, "{p}: {v} vs pinned {want}");
    }
}

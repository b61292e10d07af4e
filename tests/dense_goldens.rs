//! Pinned dense-engine outputs. The statevector kernels may only get
//! faster, never change a result bit (see the exactness rule in
//! `ca-sim`'s `statevector` module), so any kernel change that moves a
//! bit of these values fails here.
//!
//! The values are `f64::to_bits` of learned PEC overheads γ and layer
//! fidelities at a tiny budget, and the full count maps of two 8-qubit
//! circuits under the full noise model. They assume the platform's
//! `sin`/`cos`/`exp` return the same bits as where they were recorded
//! (x86-64 Linux, glibc).

use ca_experiments::layer_fidelity::fig8_device;
use ca_experiments::pec::learn_gamma;
use ca_sim::{InsertionSet, Session};
use context_aware_compiling::prelude::*;

const N: usize = 8;

/// `(strategy, γ bits, LF bits)` at depths [1, 2], 16 trajectories,
/// one twirl instance, seed 1, on `fig8_device(37)`.
const LEARNED: [(Strategy, u64, u64); 2] = [
    (Strategy::CaEc, 0x3ffe_f725_43ab_bf2c, 0x3fe6_a086_b968_42cc),
    (
        Strategy::CaEcPlusDd,
        0x4000_ac84_6c9e_5789,
        0x3fe5_c12f_7472_a7e3,
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

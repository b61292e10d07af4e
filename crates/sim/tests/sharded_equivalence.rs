//! Bit-identity of the qubit-sharded strip sampler at Osprey scale.
//!
//! The frame-batch strip runner fans its sampling pass out across contiguous
//! qubit shards when a run has more worker threads than strips (see
//! `ca_sim`'s shard module). Sharding is a wall-clock knob only: the
//! per-shard buffers merged in op order must reproduce the unsharded
//! buffer word for word, so counts must be bit-identical across
//! every worker count — and equal to the serial engine — including
//! odd shot counts with partial tail lanes.
//! At 433 qubits the worker-count sweep actually crosses the
//! sharded/unsharded dispatch boundary (narrow devices never shard),
//! which is exactly the boundary these tests pin.

use ca_circuit::{schedule_asap, Circuit, GateDurations, ScheduledCircuit};
use ca_device::{presets, Device};
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

/// A sparse layer-fidelity-style workload on a wide heavy-hex device:
/// eigenstate prep and a few ECR rounds on a small driven sublattice,
/// the rest of the lattice idle, then a measured register. The driven
/// and measured qubits span several shard boundaries at every shard
/// count the dispatch policy can pick.
fn sparse_workload(device: &Device, measured: usize) -> ScheduledCircuit {
    let n = device.num_qubits();
    let mut qc = Circuit::new(n, measured);
    let actives: Vec<usize> = (0..8).map(|i| i * n / 8).collect();
    for &q in &actives {
        qc.h(q);
    }
    qc.barrier(Vec::<usize>::new());
    for _ in 0..2 {
        for &q in &actives {
            if let Some(&(a, b)) = device
                .topology
                .edges
                .iter()
                .find(|&&(a, b)| a == q || b == q)
            {
                qc.ecr(a, b);
            }
        }
        qc.barrier(Vec::<usize>::new());
    }
    for (c, &q) in actives.iter().take(measured).enumerate() {
        qc.measure(q, c);
    }
    schedule_asap(&qc, GateDurations::default())
}

fn sim_433() -> Simulator {
    let noise = NoiseConfig {
        readout_error: false,
        ..NoiseConfig::default()
    };
    Simulator::with_config(presets::osprey_like(7), noise)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // Worker counts 1/2/8 cross the shard dispatch boundary at 433
    // qubits (1 worker → unsharded, 8 workers with ≤ 2 strips → up to
    // 8 shards); all must agree bit-for-bit with each other and with
    // the serial engine. Shot counts weight the strip boundaries: one partial strip, exactly one strip, a tail
    // strip with partial lanes.
    #[test]
    fn sharded_counts_are_worker_invariant_at_433q(
        shots in prop_oneof![
            Just(5usize), Just(64), Just(255), Just(256), Just(257), Just(300),
        ],
        seed in 0..u64::MAX,
    ) {
        let sim = sim_433();
        let sc = sparse_workload(&sim.device, 6);
        let (serial, batch) = serial_and_batch(&sim, &sc, seed);
        let none = InsertionSet::empty();
        let serial = serial.run_counts(shots, &none, None).unwrap();
        let one = batch.run_counts(shots, &none, Some(1)).unwrap();
        prop_assert_eq!(
            &serial, &one,
            "serial vs batch diverge at 433q: shots {} seed {}", shots, seed
        );
        for workers in [2usize, 8] {
            let got = batch.run_counts(shots, &none, Some(workers)).unwrap();
            prop_assert_eq!(
                &one, &got,
                "worker/shard-count dependence at 433q: shots {} workers {}", shots, workers
            );
        }
    }
}

// A narrow circuit on a wide device: crosstalk edges and Stark terms
// reach past the circuit's registers at 433 and 1121 qubits and must
// be dropped, not indexed — the engine-level mirror of the timeline
// `build_segments` regression. Counts must also stay worker-invariant
// in this shape (the plan is narrow while the device is wide).
#[test]
fn narrow_circuit_on_wide_devices_runs_and_stays_invariant() {
    for device in [presets::osprey_like(3), presets::condor_like(3)] {
        let n = device.num_qubits();
        let mut qc = Circuit::new(5, 2);
        qc.h(0).ecr(0, 1).delay(500.0, 3);
        qc.measure(0, 0).measure(1, 1);
        let sc = schedule_asap(&qc, GateDurations::default());
        let sim = Simulator::with_config(device, NoiseConfig::default());
        let (_, batch) = serial_and_batch(&sim, &sc, 9);
        let none = InsertionSet::empty();
        let one = batch.run_counts(130, &none, Some(1)).unwrap();
        let eight = batch.run_counts(130, &none, Some(8)).unwrap();
        assert_eq!(one, eight, "worker dependence on {n}-qubit device");
        assert_eq!(one.shots, 130);
    }
}

/// A pruning workload on a wide lattice: eight driven qubits spread
/// over the device, each prepared in superposition, left to accrue
/// crosstalk from its idle neighbours, entangled with one neighbour
/// and rotated back before readout, so the dead-to-live ZZ edges
/// flush right before a basis change. Only `measured` of them are
/// read; the rest of the lattice is idle.
fn cone_workload(device: &Device, measured: usize) -> ScheduledCircuit {
    let n = device.num_qubits();
    let mut qc = Circuit::new(n, measured);
    let actives: Vec<usize> = (0..8).map(|i| i * n / 8 + 3).collect();
    for &q in &actives {
        qc.h(q).delay(700.0, q);
    }
    for &q in &actives {
        if let Some(&(a, b)) = device
            .topology
            .edges
            .iter()
            .find(|&&(a, b)| a == q || b == q)
        {
            qc.ecr(a, b);
        }
        qc.h(q);
    }
    for (c, &q) in actives.iter().take(measured).enumerate() {
        qc.measure(q, c);
    }
    schedule_asap(&qc, GateDurations::default())
}

fn wide_sim(device: Device) -> Simulator {
    Simulator::with_config(device, NoiseConfig::default())
}

// Output-cone pruning on the sharded path: at 433 and 1121 qubits the
// counts cone is a few dozen qubits, and the pruned, sharded sampler
// must still match the unpruned serial engine bit for bit at every
// worker count (1 → unsharded, 2/3 → sharded on a one-strip run).
#[test]
fn pruned_sharded_counts_match_serial_at_433q_and_1121q() {
    for device in [presets::osprey_like(11), presets::condor_like(11)] {
        let n = device.num_qubits();
        let sim = wide_sim(device);
        let sc = cone_workload(&sim.device, 5);
        for (shots, seed) in [(200usize, 7u64), (300, 8)] {
            let (serial, batch) = serial_and_batch(&sim, &sc, seed);
            let none = InsertionSet::empty();
            let serial = serial.run_counts(shots, &none, None).unwrap();
            for workers in [1usize, 2, 3] {
                let got = batch.run_counts(shots, &none, Some(workers)).unwrap();
                assert_eq!(serial, got, "{n}q shots {shots} workers {workers}");
            }
        }
    }
}

// Expectations and flips read observable supports: X/Y letters keep a
// qubit's Z plane live, Z letters only its X plane.
#[test]
fn pruned_sharded_expectations_and_flips_match_serial_at_433q() {
    let sim = wide_sim(presets::osprey_like(12));
    let sc = cone_workload(&sim.device, 0);
    let n = sim.device.num_qubits();
    let a = |i: usize| i * n / 8 + 3;
    let word = |letters: &[(usize, char)]| {
        let mut s = vec!['I'; n];
        for &(q, l) in letters {
            s[q] = l;
        }
        ca_circuit::PauliString::parse(&s.into_iter().collect::<String>()).unwrap()
    };
    let obs = [
        word(&[(a(0), 'Z'), (a(3), 'X')]),
        word(&[(a(5), 'Y')]),
        word(&[(a(1), 'Z'), (a(2), 'Z'), (a(7), 'X'), (a(6) + 1, 'Z')]),
    ];
    let (serial, batch) = serial_and_batch(&sim, &sc, 21);
    let none = InsertionSet::empty();
    let e = serial.expect_paulis(&obs, 300, &none, None).unwrap();
    let f = serial.expect_flips(&obs, 300, &none, None).unwrap();
    for workers in [1usize, 2, 3] {
        let got = batch
            .expect_paulis(&obs, 300, &none, Some(workers))
            .unwrap();
        assert_eq!(e, got, "expectations at {workers} workers");
        let got = batch.expect_flips(&obs, 300, &none, Some(workers)).unwrap();
        assert_eq!(f, got, "flips at {workers} workers");
    }
}

// Bank thresholds just above 2⁻⁹ leave about one lane in 256
// undecided after the transposed 8-plane block; those lanes finish on
// their own thresholds. Sixteen driven qubits spread across the
// lattice bank a static `rz` between Hadamards for four rounds (two
// larger angles keep non-zero top threshold bytes), and the pruned,
// sharded sampler must match the serial engine at every worker count.
#[test]
fn bank_threshold_tail_lanes_match_serial_at_433q_and_1121q() {
    const ANGLES: [f64; 4] = [0.0890, 0.0905, 1.2, 0.0897];
    for device in [presets::osprey_like(13), presets::condor_like(13)] {
        let n = device.num_qubits();
        let sim = wide_sim(device);
        let actives: Vec<usize> = (0..16).map(|i| i * n / 16 + 5).collect();
        let mut qc = Circuit::new(n, actives.len());
        for _ in 0..4 {
            for (i, &q) in actives.iter().enumerate() {
                qc.h(q).rz(ANGLES[i % ANGLES.len()], q);
            }
        }
        for (c, &q) in actives.iter().enumerate() {
            qc.h(q).measure(q, c);
        }
        let sc = schedule_asap(&qc, GateDurations::default());
        // 250 shots run one strip, sharded at 2 and 3 workers; 400
        // run two unsharded strips, the second with 144 lanes.
        for (shots, seed) in [(250usize, 9u64), (400, 10)] {
            let (serial, batch) = serial_and_batch(&sim, &sc, seed);
            let none = InsertionSet::empty();
            let serial = serial.run_counts(shots, &none, None).unwrap();
            for workers in [1usize, 2, 3] {
                let got = batch.run_counts(shots, &none, Some(workers)).unwrap();
                assert_eq!(serial, got, "{n}q shots {shots} workers {workers}");
            }
        }
    }
}

//! Quickstart: compile one circuit with every suppression strategy and
//! compare the resulting fidelities on a noisy device, through the
//! session/job API (plans compile once into cached `CompiledCircuit`
//! artifacts; twirl instances run as parallel jobs).
//!
//! Run with: `cargo run --release --example quickstart`

use context_aware_compiling::prelude::*;
use context_aware_compiling::sim::{Job, Session};

fn main() {
    // A synthetic fixed-frequency device: 4-qubit line, 90 kHz
    // always-on ZZ on every coupled pair plus realistic coherence
    // numbers.
    let device = uniform_device(Topology::line(4), 90.0);

    // A Ramsey-style workload exposing two error contexts at once:
    // qubits 2,3 idle in superposition (case I) while qubits 0,1 run
    // repeated ECR gates whose control neighbours the idle pair.
    let mut qc = Circuit::new(4, 0);
    qc.h(2).h(3);
    qc.barrier(Vec::<usize>::new());
    for _ in 0..8 {
        qc.ecr(1, 0);
        qc.delay(480.0, 2).delay(480.0, 3);
        qc.barrier(Vec::<usize>::new());
    }
    qc.h(2).h(3);

    // One session = one simulator + one LRU plan cache. Every job
    // below compiles through it; resubmitting a circuit/seed pair
    // reuses the cached CompiledCircuit outright.
    let session = Session::new(Simulator::with_config(
        device.clone(),
        NoiseConfig {
            readout_error: false,
            ..NoiseConfig::default()
        },
    ));

    // Fidelity of the idle register returning to |00⟩.
    let observables: Vec<PauliString> = ["IIII", "IIZI", "IIIZ", "IIZZ"]
        .iter()
        .map(|s| PauliString::parse(s).unwrap())
        .collect();

    println!("strategy        P(00) on the idle pair");
    for strategy in Strategy::ALL {
        // Four independently twirled compile instances, submitted as
        // one job batch: the session fans them out across worker
        // threads and builds each distinct circuit's seed-free
        // program once, in its plan cache.
        let instances = 4u64;
        let jobs: Vec<Job> = (0..instances)
            .map(|seed| {
                let compiled =
                    compile(&qc, &device, &CompileOptions::new(strategy, seed)).expect("compile");
                Job::expect(compiled, observables.clone(), 60, seed ^ 0xA5)
            })
            .collect();
        let total: f64 = session
            .submit(&jobs)
            .into_iter()
            .map(|r| {
                let vals = r.expect("simulate");
                let vals = vals.expectations().expect("expect job");
                vals.iter().sum::<f64>() / vals.len() as f64
            })
            .sum();
        println!("{:<14}  {:.4}", strategy.label(), total / instances as f64);
    }
    let stats = session.cache_stats();
    println!();
    println!("Expected shape: bare lowest; context-aware strategies highest.");
    println!(
        "plan cache: {} programs built, {} reused",
        stats.misses, stats.hits
    );
}

//! Cycle-benchmarking-style Pauli-channel learning.
//!
//! The protocol generalizes the layer-fidelity recipe (Fig. 8) from
//! *one random Pauli per partition* to *every* Pauli of every
//! partition: for experiment `e`, each partition prepares the
//! eigenstate of its `((e mod (4^k−1)) + 1)`-th Pauli, the compiled
//! layer is applied `d` times, and the sign-corrected expectation of
//! the Clifford-propagated Pauli is fitted to `A·λ^d` with
//! [`ca_metrics::fit_decay`]. The fitted `λ` is the (orbit-averaged)
//! *Pauli fidelity* of the layer's twirled noise channel for that
//! Pauli; the full fidelity vector transforms into the channel's
//! error probabilities ([`crate::channel`]).
//!
//! All partitions are disjoint, so one simulation per depth measures
//! every partition simultaneously — the experiment count is set by
//! the widest partition (15 for pairs), not by the qubit count.
//! Clifford-compiled strategies run on the bit-parallel frame-batch
//! engine (the learner's circuits are pure Clifford); non-Clifford
//! strategies (CA-EC's compensation angles) fall back to
//! `Engine::Auto`, i.e. the dense engine at small sizes.
//!
//! SPAM robustness: state-preparation/measurement error lands in the
//! fit's amplitude `A`, not in `λ` — the standard cycle-benchmarking
//! argument — so the learned channel is genuinely per-layer.

use crate::channel::{index_paulis, LayerChannel, PartitionChannel};
use crate::error::MitigationError;
use ca_circuit::clifford::propagate_2q;
use ca_circuit::{schedule_asap, Circuit, Gate, Pauli, PauliString, ScheduledCircuit};
use ca_core::{pipeline, CompileOptions, Context, Strategy};
use ca_device::Device;
use ca_metrics::fit_decay;
use ca_sim::{clifford_supports, Engine, Job, NoiseConfig, Session, Simulator};

/// Budget and seeding of one learning run.
#[derive(Clone, Debug)]
pub struct LearnConfig {
    /// Layer repetition depths the decays are fitted over (≥ 2).
    pub depths: Vec<usize>,
    /// Shots per expectation estimate.
    pub shots: usize,
    /// Independent twirl/compile instances averaged per data point.
    pub instances: usize,
    /// Base RNG seed (compilation twirl, simulation noise).
    pub seed: u64,
    /// Noise processes enabled during learning. Defaults to the
    /// layer-fidelity experiments' model: everything but readout
    /// error (the learner measures in expectation mode).
    pub noise: NoiseConfig,
}

impl LearnConfig {
    /// A small deterministic budget for tests.
    pub fn quick(seed: u64) -> Self {
        Self {
            depths: vec![1, 2, 4],
            shots: 192,
            instances: 1,
            seed,
            noise: NoiseConfig {
                readout_error: false,
                ..NoiseConfig::default()
            },
        }
    }

    /// A benchmark-quality budget.
    pub fn full(seed: u64) -> Self {
        Self {
            depths: vec![1, 2, 4, 8],
            shots: 1024,
            instances: 4,
            seed,
            noise: NoiseConfig {
                readout_error: false,
                ..NoiseConfig::default()
            },
        }
    }
}

/// A learned per-layer noise channel plus its diagnostics.
#[derive(Clone, Debug)]
pub struct LearnedLayer {
    /// The projected (valid) Pauli channel, one factor per partition.
    pub channel: LayerChannel,
    /// Layer fidelity implied by the cleaned channel — comparable to
    /// the Fig. 8 LF numbers.
    pub lf: f64,
    /// Raw fitted λ per partition per Pauli index (index 0 unused).
    pub raw_lambdas: Vec<Vec<f64>>,
    /// Every engine the decay circuits ran on: the distinct engine
    /// names, sorted and joined by `+`. `"frame-batch"` for Clifford
    /// strategies; a non-Clifford strategy whose compiled circuits
    /// are Clifford only for some twirl instances reads
    /// `"frame-batch+statevector"`.
    pub engine: String,
}

/// Builds the benchmark circuit: Pauli-eigenstate preparation on
/// every partition, then `depth` copies of the ECR layer. The same
/// builder serves the learner and the PEC executor, so anchors found
/// in one apply to the other.
pub fn layer_circuit(
    n: usize,
    preps: &[(usize, Pauli)],
    layer: &[(usize, usize)],
    depth: usize,
) -> Circuit {
    let mut qc = Circuit::new(n, 0);
    for &(q, p) in preps {
        match p {
            Pauli::I | Pauli::Z => {}
            Pauli::X => {
                qc.h(q);
            }
            Pauli::Y => {
                qc.h(q);
                qc.s(q);
            }
        }
    }
    qc.barrier(Vec::<usize>::new());
    for _ in 0..depth {
        for &(c, t) in layer {
            qc.ecr(c, t);
        }
        qc.barrier(Vec::<usize>::new());
    }
    qc
}

/// Propagates a Pauli string through `d` applications of the layer's
/// Clifford action (signs tracked).
pub fn propagate_through_layers(
    prep: &PauliString,
    layer: &[(usize, usize)],
    d: usize,
) -> PauliString {
    let mut p = prep.clone();
    for _ in 0..d {
        for &(c, t) in layer {
            p = propagate_2q(&p, Gate::Ecr, c, t);
        }
    }
    p
}

/// Learns the per-layer Pauli channel of `layer` compiled under
/// `strategy`, one independent channel factor per partition.
/// `partitions` must be disjoint (gate pairs, idle pairs, idle
/// singles — as produced by the layer-fidelity experiments).
pub fn learn_layer_channel(
    device: &Device,
    strategy: Strategy,
    layer: &[(usize, usize)],
    partitions: &[Vec<usize>],
    config: &LearnConfig,
) -> Result<LearnedLayer, MitigationError> {
    if config.depths.len() < 2 {
        return Err(MitigationError::NotEnoughDepths {
            got: config.depths.len(),
        });
    }
    let n = device.topology.num_qubits;
    let widths: Vec<usize> = partitions.iter().map(Vec::len).collect();
    let pauli_counts: Vec<usize> = widths.iter().map(|&k| (1 << (2 * k)) - 1).collect();
    let experiments = pauli_counts.iter().copied().max().unwrap_or(0);

    // One session per engine policy: strictly Clifford decay circuits
    // run on the pinned frame-batch session, CA-EC's non-Clifford
    // compensations on the auto session (dense at small sizes). Every
    // (experiment, depth, instance) point is a distinct circuit that
    // runs once, so no job could hit a cached plan: both sessions run
    // uncached.
    let frame_session = Session::with_capacity(
        Simulator::with_engine(device.clone(), config.noise, Engine::FrameBatch),
        0,
    );
    let auto_session = Session::with_capacity(
        Simulator::with_engine(device.clone(), config.noise, Engine::Auto),
        0,
    );

    // Compile every (experiment, depth, instance) point up front and
    // run them as one job batch per session — experiments fan out
    // across worker threads at job granularity.
    let compile_span = ca_obs::span("learn", "compile-points")
        .with_arg("experiments", experiments as f64)
        .with_arg("depths", config.depths.len() as f64)
        .with_arg("instances", config.instances as f64);
    let mut indices_by_e: Vec<Vec<usize>> = Vec::with_capacity(experiments);
    let mut frame_jobs: Vec<Job> = Vec::new();
    let mut auto_jobs: Vec<Job> = Vec::new();
    // Per (e, depth index): (on_frame_session, job index) per instance.
    let mut tags: Vec<Vec<Vec<(bool, usize)>>> = Vec::with_capacity(experiments);
    let mut engines = std::collections::BTreeSet::new();
    for e in 0..experiments {
        // This experiment's Pauli index per partition (1-based; every
        // partition is exercised in every experiment).
        let indices: Vec<usize> = pauli_counts.iter().map(|&c| (e % c) + 1).collect();
        let preps: Vec<(usize, Pauli)> = partitions
            .iter()
            .zip(indices.iter())
            .flat_map(|(part, &idx)| {
                index_paulis(idx, part.len())
                    .into_iter()
                    .zip(part.iter())
                    .map(|(p, &q)| (q, p))
            })
            .collect();
        let mut prep_string = PauliString::identity(n);
        for &(q, p) in &preps {
            prep_string.paulis[q] = p;
        }

        let mut e_tags = Vec::with_capacity(config.depths.len());
        for &d in &config.depths {
            // Circuit construction and observable propagation are
            // attributed separately from the compile pipeline: at deep
            // depths the Clifford propagation of every partition's
            // observable is real wall time that would otherwise vanish
            // from the learn breakdown.
            let build_span = ca_obs::span("learn", "build-point")
                .with_arg("experiment", e as f64)
                .with_arg("depth", d as f64);
            let circuit = layer_circuit(n, &preps, layer, d);
            let observables: Vec<PauliString> = partitions
                .iter()
                .map(|part| {
                    let mut p = PauliString::identity(n);
                    for &q in part {
                        p.paulis[q] = prep_string.paulis[q];
                    }
                    propagate_through_layers(&p, layer, d)
                })
                .collect();
            drop(build_span);
            let mut inst_tags = Vec::with_capacity(config.instances);
            for inst in 0..config.instances {
                let seed = config
                    .seed
                    .wrapping_add(inst as u64 * 7919)
                    .wrapping_add(e as u64 * 104729)
                    .wrapping_add(d as u64);
                let opts = CompileOptions::new(strategy, seed);
                let pm = pipeline(&opts);
                let mut ctx = Context::new(device, seed);
                let sc = pm.compile(&circuit, &mut ctx)?;
                let on_frame = clifford_supports(&sc);
                let session = if on_frame {
                    &frame_session
                } else {
                    &auto_session
                };
                engines.insert(session.simulator().engine_name_for(&sc)?);
                let job = Job::expect(sc, observables.clone(), config.shots, seed ^ 0x77);
                let jobs = if on_frame {
                    &mut frame_jobs
                } else {
                    &mut auto_jobs
                };
                inst_tags.push((on_frame, jobs.len()));
                jobs.push(job);
            }
            e_tags.push(inst_tags);
        }
        indices_by_e.push(indices);
        tags.push(e_tags);
    }

    drop(compile_span);
    ca_obs::counter_add("learn.points", (frame_jobs.len() + auto_jobs.len()) as u64);

    let frame_out = {
        let _s = ca_obs::span("learn", "simulate").with_arg("jobs", frame_jobs.len() as f64);
        frame_session.submit(&frame_jobs)
    };
    let auto_out = {
        let _s = ca_obs::span("learn", "simulate").with_arg("jobs", auto_jobs.len() as f64);
        auto_session.submit(&auto_jobs)
    };
    let value_of = |&(on_frame, idx): &(bool, usize)| -> Result<Vec<f64>, MitigationError> {
        let out = if on_frame {
            &frame_out[idx]
        } else {
            &auto_out[idx]
        };
        match out {
            Ok(o) => Ok(o.expectations().expect("expect job").to_vec()), // ca-lint: allow(panic) -- learner submits expect jobs only
            Err(e) => Err(e.clone().into()),
        }
    };

    // Fitted λ samples per (partition, Pauli index).
    let mut samples: Vec<Vec<Vec<f64>>> = pauli_counts
        .iter()
        .map(|&c| vec![Vec::new(); c + 1])
        .collect();
    for (e, e_tags) in tags.iter().enumerate() {
        let xs: Vec<f64> = config.depths.iter().map(|&d| d as f64).collect();
        let mut ys: Vec<Vec<f64>> = vec![Vec::new(); partitions.len()];
        for inst_tags in e_tags {
            let mut acc = vec![0.0; partitions.len()];
            for tag in inst_tags {
                let vals = value_of(tag)?;
                for (a, v) in acc.iter_mut().zip(vals.iter()) {
                    *a += v;
                }
            }
            for (part_ys, a) in ys.iter_mut().zip(acc.iter()) {
                part_ys.push(a / config.instances as f64);
            }
        }
        for (pi, part_ys) in ys.iter().enumerate() {
            // Per-partition fit timing + progress: the learner is the
            // slowest pipeline stage (ROADMAP item 5), so each decay
            // fit is individually visible in traces.
            let _s = ca_obs::span("learn", "fit-partition")
                .with_arg("experiment", e as f64)
                .with_arg("partition", pi as f64);
            let lambda = fit_decay(&xs, part_ys).lambda.clamp(1e-6, 1.0);
            samples[pi][indices_by_e[e][pi]].push(lambda);
            ca_obs::counter_add("learn.fits", 1);
        }
        ca_obs::counter_add("learn.experiments_done", 1);
    }

    let mut channels = Vec::with_capacity(partitions.len());
    let mut raw_lambdas = Vec::with_capacity(partitions.len());
    for (part, part_samples) in partitions.iter().zip(samples.iter()) {
        let mut fidelities = vec![1.0; part_samples.len()];
        for (idx, list) in part_samples.iter().enumerate().skip(1) {
            debug_assert!(!list.is_empty(), "every Pauli index gets measured");
            fidelities[idx] = list.iter().sum::<f64>() / list.len() as f64;
        }
        raw_lambdas.push(fidelities.clone());
        channels.push(PartitionChannel::from_fidelities(part.clone(), &fidelities));
    }
    let channel = LayerChannel {
        partitions: channels,
    };
    let lf = channel.layer_fidelity();
    Ok(LearnedLayer {
        channel,
        lf,
        raw_lambdas,
        engine: engines.into_iter().collect::<Vec<_>>().join("+"),
    })
}

/// Schedules a circuit with the device's calibrated durations —
/// convenience for tests and demos that bypass the compile pipeline.
pub fn schedule_plain(qc: &Circuit, device: &Device) -> ScheduledCircuit {
    schedule_asap(qc, device.durations())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_device::{uniform_device, Topology};

    fn line_device(n: usize, zz_khz: f64) -> Device {
        uniform_device(Topology::line(n), zz_khz)
    }

    #[test]
    fn rejects_single_depth() {
        let dev = line_device(2, 0.0);
        let cfg = LearnConfig {
            depths: vec![2],
            ..LearnConfig::quick(1)
        };
        let err =
            learn_layer_channel(&dev, Strategy::Bare, &[(0, 1)], &[vec![0, 1]], &cfg).unwrap_err();
        assert_eq!(err, MitigationError::NotEnoughDepths { got: 1 });
    }

    #[test]
    fn noiseless_layer_learns_the_identity_channel() {
        let dev = line_device(2, 0.0);
        let cfg = LearnConfig {
            noise: NoiseConfig::ideal(),
            ..LearnConfig::quick(3)
        };
        let learned =
            learn_layer_channel(&dev, Strategy::Bare, &[(0, 1)], &[vec![0, 1]], &cfg).unwrap();
        assert_eq!(learned.engine, "frame-batch");
        assert!((learned.lf - 1.0).abs() < 1e-9, "LF {}", learned.lf);
        assert!((learned.channel.partitions[0].probs[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn engine_names_every_engine_the_learn_used() {
        // Some of CA-EC's compiled decay circuits on this layer carry
        // no non-Clifford compensation and run on frame-batch, the
        // rest on the dense engine: the learn must name both.
        let dev = line_device(2, 70.0);
        let cfg = LearnConfig {
            depths: vec![1, 2],
            shots: 16,
            instances: 2,
            ..LearnConfig::quick(2)
        };
        let learned =
            learn_layer_channel(&dev, Strategy::CaEc, &[(0, 1)], &[vec![0, 1]], &cfg).unwrap();
        assert_eq!(learned.engine, "frame-batch+statevector");
    }

    #[test]
    fn depolarizing_gate_error_is_recovered() {
        // Only 2q depolarizing error: each ECR injects a uniform
        // non-identity pair Pauli with probability p, so the learned
        // pair channel's total error probability must come out ≈ p.
        let mut dev = line_device(2, 0.0);
        let keys: Vec<_> = dev.calibration.edges.keys().copied().collect();
        let p = 0.06;
        for k in keys {
            dev.calibration.edges.get_mut(&k).unwrap().gate_err_2q = p;
        }
        let cfg = LearnConfig {
            depths: vec![1, 2, 4, 8],
            shots: 2048,
            instances: 1,
            seed: 11,
            noise: NoiseConfig {
                gate_error: true,
                ..NoiseConfig::ideal()
            },
        };
        let learned =
            learn_layer_channel(&dev, Strategy::Bare, &[(0, 1)], &[vec![0, 1]], &cfg).unwrap();
        let err_p = learned.channel.error_probability();
        assert!(
            (err_p - p).abs() < 0.02,
            "learned error probability {err_p} vs injected {p}"
        );
        // Valid distribution by construction.
        let probs = &learned.channel.partitions[0].probs;
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn idle_partitions_learn_their_twirled_dephasing() {
        // A 3-qubit line with ZZ crosstalk: the layer couples (0,1),
        // qubit 2 idles next to the target and accrues twirled ZZ/Z
        // noise — its learned single-qubit channel must show Z-type
        // error (f_X < 1) while staying a valid distribution.
        let dev = line_device(3, 70.0);
        let cfg = LearnConfig::quick(5);
        let learned = learn_layer_channel(
            &dev,
            Strategy::Bare,
            &[(0, 1)],
            &[vec![0, 1], vec![2]],
            &cfg,
        )
        .unwrap();
        let idle = &learned.channel.partitions[1];
        let f = idle.fidelities();
        assert!(f[1] < 0.999, "idle spectator must dephase: f_X = {}", f[1]);
        assert!((idle.probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(learned.lf < 1.0);
    }
}

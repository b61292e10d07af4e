//! `wide_1121q`: 65536-shot counts jobs over a fixed 16-pair driven
//! region of the 1121-qubit Condor lattice, each through
//! `Session::run` with a fresh seed. The only workload that reaches
//! qubit-sharded strip sampling (`ca_sim::shard`, at >= 192 qubits).
//!
//! One operation is one job. Checks: every job's counts sum to its
//! shots; one job's counts are bit-identical at 1 and 2 workers; a
//! small-shot job matches the serial stabilizer engine bit for bit.

use std::time::Instant;

use ca_circuit::{schedule_asap, Circuit, GateDurations, ScheduledCircuit};
use ca_device::Device;
use ca_experiments::large_scale::{condor_device, sparse_device_layer};
use ca_sim::session::{Job, JobOutput, Session};
use ca_sim::{Engine, NoiseConfig, RunResult, Simulator};

use crate::common::{self, another, median, mix, secs, Args, Outcome, TraceWindow};

const SHOTS: usize = 65536;
const ORACLE_SHOTS: usize = 512;
const SETUPS: usize = 5;

fn noise() -> NoiseConfig {
    NoiseConfig {
        readout_error: false,
        ..NoiseConfig::default()
    }
}

/// 16 pairs spread evenly over the device's sparse layer: prepared,
/// driven for two ECR rounds and read out; the rest of the lattice
/// idles.
fn driven_region(device: &Device) -> ScheduledCircuit {
    let full = sparse_device_layer(&device.topology);
    let step = (full.len() / 16).max(1);
    let layer: Vec<(usize, usize)> = full.iter().copied().step_by(step).take(16).collect();
    let driven: Vec<usize> = layer.iter().flat_map(|&(a, b)| [a, b]).collect();
    let mut qc = Circuit::new(device.num_qubits(), driven.len());
    for &q in &driven {
        qc.h(q);
    }
    qc.barrier(Vec::<usize>::new());
    for _ in 0..2 {
        for &(c, t) in &layer {
            qc.ecr(c, t);
        }
        qc.barrier(Vec::<usize>::new());
    }
    for (c, &q) in driven.iter().enumerate() {
        qc.measure(q, c);
    }
    schedule_asap(&qc, GateDurations::default())
}

fn counts_job(
    session: &Session,
    sc: &ScheduledCircuit,
    shots: usize,
    seed: u64,
) -> Option<RunResult> {
    match session.run(&Job::counts(sc.clone(), shots, seed)) {
        Ok(JobOutput::Counts(r)) => Some(r),
        _ => None,
    }
}

fn counts_ok(r: &Option<RunResult>, shots: usize) -> bool {
    r.as_ref()
        .is_some_and(|r| r.shots == shots && r.counts.values().sum::<usize>() == shots)
}

/// Runs jobs until `seconds` pass; returns their walls and the
/// segment's.
fn jobs(
    session: &Session,
    sc: &ScheduledCircuit,
    seconds: f64,
    seed: u64,
    stream: u64,
    out: &mut Outcome,
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut walls = Vec::new();
    while another(start, seconds, &walls) {
        let s = mix(seed, stream, walls.len() as u64);
        let t = Instant::now();
        let r = counts_job(session, sc, SHOTS, s);
        walls.push(secs(t));
        out.check(counts_ok(&r, SHOTS), || {
            format!("job seed {s}: counts do not sum to {SHOTS}")
        });
    }
    (walls, secs(start))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut cold = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        // Set-up ends with the first job, which fills the session's
        // plan caches: the device alone builds in milliseconds.
        let t = Instant::now();
        let device = condor_device(1121);
        let sc = driven_region(&device);
        let session = Session::new(Simulator::with_config(device.clone(), noise()));
        let first = Instant::now();
        let r = counts_job(&session, &sc, SHOTS, mix(args.seed, 0, k as u64));
        cold.push(secs(first));
        setup.push(secs(t));
        out.check(counts_ok(&r, SHOTS), || "cold job counts".into());
        kept = Some((device, sc, session));
    }
    let (device, sc, session) = kept.expect("at least one set-up");

    let (walls, wall) = if args.trace {
        let half = args.seconds / 2.0;
        let (untraced, _) = jobs(&session, &sc, half, args.seed, 1, &mut out);
        let window = TraceWindow::open();
        let traced = jobs(&session, &sc, half, args.seed, 2, &mut out);
        let d = window.close();
        common::sim_layers(&d, traced.0.len(), &mut out);
        common::trace_summary(
            &mut out,
            common::attributed_seconds(&d),
            traced.0.iter().sum(),
            median(&untraced),
            median(&traced.0),
        );
        traced
    } else {
        jobs(&session, &sc, args.seconds, args.seed, 1, &mut out)
    };
    out.finish_end_to_end(median(&setup), median(&cold), &walls, wall);

    // Worker invariance across the shard dispatch boundary, timed at
    // 1 and 2 workers on one compiled job.
    let s = mix(args.seed, 3, 0);
    match session.compiled(&sc, s) {
        Ok(compiled) => {
            let ins = compiled.insertions(&[]).expect("empty insertion set");
            let at = |w: usize| {
                let t = Instant::now();
                let r = compiled.run_counts(SHOTS, &ins, Some(w)).ok();
                (secs(t), r)
            };
            let (w1, r1) = at(1);
            let (w2, r2) = at(2);
            out.check(r1.is_some() && r1 == r2, || {
                "counts differ between 1 and 2 workers".into()
            });
            out.layers.insert("shard.job_s_w1", w1);
            out.layers.insert("shard.job_s_w2", w2);
            out.layers.insert("shard.parallel_eff", w1 / (2.0 * w2));
            common::engine_mix(&mut out, &[compiled.engine_name()]);
        }
        Err(e) => out.check(false, || format!("compile: {e}")),
    }

    // Independent reference: the serial stabilizer engine.
    let s = mix(args.seed, 4, 0);
    let served = counts_job(&session, &sc, ORACLE_SHOTS, s);
    let oracle = Simulator::with_engine(device, noise(), Engine::Stabilizer)
        .compile(&sc, s)
        .and_then(|c| c.run_counts(ORACLE_SHOTS, &c.insertions(&[])?, None))
        .ok();
    out.check(served.is_some() && served == oracle, || {
        "frame-batch counts differ from the serial stabilizer oracle".into()
    });
    out
}

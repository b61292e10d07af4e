//! `lf_sweep_127q`: the 127-qubit Eagle layer-fidelity sweep (bare,
//! uniform DD, CA-DD at depths 1/2/4/8, twirl-ensemble path on), run
//! once on a fresh `Session` and again on the same, warm one.
//!
//! Operations are sweeps: `cold_ms` is the cold sweep, `op_p50_ms`
//! the warm rerun. Checks: LF ordering bare < DD < CA-DD; cold and
//! warm LFs bit-identical; and, once per run, one CA-DD point's
//! frame-batch counts bit-identical to the serial stabilizer engine.

use std::time::Instant;

use ca_circuit::Circuit;
use ca_core::{compile, CompileOptions, Strategy};
use ca_device::Device;
use ca_experiments::large_scale::{
    eagle_device, measure_large_layer_fidelity_session_with, sparse_device_layer,
};
use ca_experiments::Budget;
use ca_sim::{Engine, NoiseConfig, Session, Simulator};

use crate::common::{self, another, median, mix, secs, Args, Outcome, TraceWindow};

const DEPTHS: [usize; 4] = [1, 2, 4, 8];
const TRAJECTORIES: usize = 8192;
const INSTANCES: usize = 8;
const ORACLE_SHOTS: usize = 1024;
const SETUPS: usize = 7;
const STRATEGIES: [(Strategy, &str); 3] = [
    (Strategy::Bare, "lf.bare_cold_s"),
    (Strategy::UniformDd, "lf.dd_cold_s"),
    (Strategy::CaDd, "lf.ca_dd_cold_s"),
];

fn noise() -> NoiseConfig {
    NoiseConfig {
        readout_error: false,
        ..NoiseConfig::default()
    }
}

/// One sweep over the three strategies: per-strategy walls and LFs.
fn sweep(session: &Session, seed: u64, engines: &mut Vec<String>) -> (Vec<f64>, Vec<f64>) {
    let budget = Budget {
        trajectories: TRAJECTORIES,
        instances: INSTANCES,
        seed,
    };
    let mut walls = Vec::new();
    let mut lfs = Vec::new();
    for (strategy, _) in STRATEGIES {
        let t = Instant::now();
        let r =
            measure_large_layer_fidelity_session_with(session, strategy, &DEPTHS, &budget, true);
        walls.push(secs(t));
        lfs.push(r.lf);
        engines.push(r.engine);
    }
    (walls, lfs)
}

struct Sweeps {
    cold: Vec<f64>,
    warm: Vec<f64>,
    per_strategy_cold: Vec<Vec<f64>>,
    engines: Vec<String>,
    segment: f64,
}

impl Sweeps {
    fn pair_walls(&self) -> Vec<f64> {
        self.cold
            .iter()
            .zip(&self.warm)
            .map(|(c, w)| c + w)
            .collect()
    }
}

/// Cold-then-warm sweep pairs until `seconds` pass.
fn pairs(device: &Device, seconds: f64, seed: u64, stream: u64, out: &mut Outcome) -> Sweeps {
    let start = Instant::now();
    let mut s = Sweeps {
        cold: Vec::new(),
        warm: Vec::new(),
        per_strategy_cold: Vec::new(),
        engines: Vec::new(),
        segment: 0.0,
    };
    while another(start, seconds, &s.pair_walls()) {
        let budget_seed = mix(seed, stream, s.cold.len() as u64);
        let session = Session::new(Simulator::with_config(device.clone(), noise()));
        let (cold_walls, cold_lfs) = sweep(&session, budget_seed, &mut s.engines);
        let (warm_walls, warm_lfs) = sweep(&session, budget_seed, &mut s.engines);
        s.cold.push(cold_walls.iter().sum());
        s.warm.push(warm_walls.iter().sum());
        s.per_strategy_cold.push(cold_walls);
        out.check(
            cold_lfs[0] < cold_lfs[1] && cold_lfs[1] < cold_lfs[2],
            || format!("seed {budget_seed}: LF ordering bare < DD < CA-DD broken: {cold_lfs:?}"),
        );
        out.check(cold_lfs == warm_lfs, || {
            format!("seed {budget_seed}: warm LFs {warm_lfs:?} differ from cold {cold_lfs:?}")
        });
    }
    s.segment = secs(start);
    s
}

/// One CA-DD point (every sparse-layer pair prepared, driven once,
/// read out), sampled on frame-batch and on the serial stabilizer
/// engine: the counts must agree bit for bit.
fn oracle_check(device: &Device, seed: u64, out: &mut Outcome) {
    let layer = sparse_device_layer(&device.topology);
    let driven: Vec<usize> = layer.iter().flat_map(|&(a, b)| [a, b]).collect();
    let mut qc = Circuit::new(device.num_qubits(), driven.len());
    for &(c, _) in &layer {
        qc.h(c);
    }
    qc.barrier(Vec::<usize>::new());
    for &(c, t) in &layer {
        qc.ecr(c, t);
    }
    qc.barrier(Vec::<usize>::new());
    for (bit, &q) in driven.iter().enumerate() {
        qc.measure(q, bit);
    }
    let counts = |engine: Engine| {
        let sc = compile(&qc, device, &CompileOptions::new(Strategy::CaDd, seed)).ok()?;
        let compiled = Simulator::with_engine(device.clone(), noise(), engine)
            .compile(&sc, seed)
            .ok()?;
        let ins = compiled.insertions(&[]).ok()?;
        compiled.run_counts(ORACLE_SHOTS, &ins, None).ok()
    };
    let batch = counts(Engine::FrameBatch);
    out.check(
        batch.is_some() && batch == counts(Engine::Stabilizer),
        || "frame-batch counts differ from the serial stabilizer oracle".into(),
    );
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The device, plus a small sweep of every strategy on a throwaway
    // session, which builds lazily initialised tables before timing.
    let (setup, device) = common::median_of(SETUPS, || {
        let device = eagle_device(127);
        let session = Session::new(Simulator::with_config(device.clone(), noise()));
        let budget = Budget {
            trajectories: 512,
            instances: 2,
            seed: args.seed,
        };
        for (strategy, _) in STRATEGIES {
            measure_large_layer_fidelity_session_with(&session, strategy, &[1, 2], &budget, true);
        }
        device
    });

    let s = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = pairs(&device, half, args.seed, 1, &mut out);
        let window = TraceWindow::open();
        let traced = pairs(&device, half, args.seed, 2, &mut out);
        let d = window.close();
        let walls = traced.pair_walls();
        common::sim_layers(&d, walls.len(), &mut out);
        common::trace_summary(
            &mut out,
            common::attributed_seconds(&d),
            walls.iter().sum(),
            median(&untraced.pair_walls()),
            median(&walls),
        );
        traced
    } else {
        pairs(&device, args.seconds, args.seed, 1, &mut out)
    };
    for (i, (_, metric)) in STRATEGIES.iter().enumerate() {
        let xs: Vec<f64> = s.per_strategy_cold.iter().map(|w| w[i]).collect();
        out.layers.insert(metric, median(&xs));
    }
    let engines: Vec<&str> = s.engines.iter().map(String::as_str).collect();
    common::engine_mix(&mut out, &engines);
    out.finish_end_to_end(setup, median(&s.cold), &s.warm, s.segment);
    // Both sweeps of a pair count as operations.
    out.end_to_end.insert(
        "ops_per_s",
        (s.cold.len() + s.warm.len()) as f64 / s.segment.max(1e-9),
    );

    oracle_check(&device, mix(args.seed, 5, 0), &mut out);
    out
}

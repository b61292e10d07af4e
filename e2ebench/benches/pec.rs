//! `pec_learn_10q`: learns the sparse 10-qubit Fig. 8 layer's Pauli
//! channel and its PEC overhead γ under all five strategies, at the
//! `pec --smoke` budget (depths 1/2/4, 192 trajectories, 4 twirl
//! instances), seeded from the workload seed.
//!
//! One operation is one learn: the five `learn_gamma` calls in turn.
//! Checks, on every learn: the pec bench's γ ordering (bare ≫ DD >
//! CA-DD ≈ CA-EC, and CA-EC+DD below DD) and an invertible channel for
//! every strategy but bare. The bench's "CA-EC+DD at the minimum" holds
//! only at its full budget, so at this one it is not asserted.

use std::time::Instant;

use ca_core::Strategy;
use ca_device::Device;
use ca_experiments::layer_fidelity::fig8_device;
use ca_experiments::pec::{learn_gamma, PecGammaResult};
use ca_experiments::Budget;

use crate::common::{self, another, median, mix, secs, Args, Outcome, TraceWindow};

const DEPTHS: [usize; 3] = [1, 2, 4];
const SETUPS: usize = 7;
const STRATEGIES: [(Strategy, &str); 5] = [
    (Strategy::Bare, "learn.bare_s"),
    (Strategy::UniformDd, "learn.dd_s"),
    (Strategy::CaDd, "learn.ca_dd_s"),
    (Strategy::CaEc, "learn.ca_ec_s"),
    (Strategy::CaEcPlusDd, "learn.ca_ec_dd_s"),
];

fn budget(seed: u64) -> Budget {
    Budget {
        trajectories: 192,
        instances: 4,
        seed,
    }
}

/// One learn: per-strategy walls and results, or the first error.
fn learn(device: &Device, seed: u64) -> Result<(Vec<f64>, Vec<PecGammaResult>), String> {
    let mut walls = Vec::with_capacity(STRATEGIES.len());
    let mut results = Vec::with_capacity(STRATEGIES.len());
    for (strategy, _) in STRATEGIES {
        let t = Instant::now();
        let r = learn_gamma(device, strategy, &DEPTHS, &budget(seed))
            .map_err(|e| format!("{}: {e}", strategy.label()))?;
        walls.push(secs(t));
        results.push(r);
    }
    Ok((walls, results))
}

/// The pec bench's acceptance ordering, plus invertibility.
fn ordering_holds(r: &[PecGammaResult]) -> Result<(), String> {
    let g: Vec<f64> = r.iter().map(|x| x.gamma_learned).collect();
    let (bare, dd, ca_dd, ca_ec, both) = (g[0], g[1], g[2], g[3], g[4]);
    let fails = [
        (bare > 2.0 * dd, "bare must dwarf DD"),
        (dd > ca_dd, "DD must exceed CA-DD"),
        (dd > ca_ec, "DD must exceed CA-EC"),
        (
            (ca_dd - ca_ec).abs() < 0.5 * (dd - ca_dd.min(ca_ec)),
            "CA-DD and CA-EC must sit at parity",
        ),
        (dd > both, "DD must exceed CA-EC+DD"),
        (
            r[1..].iter().all(|x| x.invertible),
            "every strategy but bare must invert",
        ),
    ];
    match fails.iter().find(|(ok, _)| !ok) {
        None => Ok(()),
        Some((_, why)) => Err(format!("{why} (γ = {g:.3?})")),
    }
}

/// Walls of the learns run in one measured segment.
struct Learns {
    walls: Vec<f64>,
    per_strategy: Vec<Vec<f64>>,
    segment: f64,
}

/// Learns until `seconds` pass.
fn learns(device: &Device, seconds: f64, seed: u64, stream: u64, out: &mut Outcome) -> Learns {
    let start = Instant::now();
    let (mut walls, mut per) = (Vec::new(), Vec::new());
    while another(start, seconds, &walls) {
        let s = mix(seed, stream, walls.len() as u64);
        let t = Instant::now();
        let learned = learn(device, s);
        walls.push(secs(t));
        match learned {
            Ok((w, results)) => {
                let verdict = ordering_holds(&results);
                out.check(verdict.is_ok(), || {
                    format!("learn seed {s}: {}", verdict.err().unwrap_or_default())
                });
                per.push(w);
            }
            Err(e) => out.check(false, || format!("learn seed {s}: {e}")),
        }
    }
    Learns {
        walls,
        per_strategy: per,
        segment: secs(start),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut device = None;
    for k in 0..SETUPS {
        // Device construction plus a small bare and CA-EC learn, which
        // warm the frame and dense paths' lazily built state before
        // timing starts.
        let t = Instant::now();
        let dev = fig8_device(37);
        let small = Budget {
            trajectories: 16,
            instances: 1,
            seed: mix(args.seed, 0, k as u64),
        };
        let warm = [Strategy::Bare, Strategy::CaEc]
            .map(|s| learn_gamma(&dev, s, &DEPTHS[..2], &small).is_ok());
        setup.push(secs(t));
        out.check(warm == [true; 2], || "set-up learns".into());
        device = Some(dev);
    }
    let device = device.expect("at least one set-up");

    let l = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = learns(&device, half, args.seed, 1, &mut out);
        let window = TraceWindow::open();
        let traced = learns(&device, half, args.seed, 2, &mut out);
        let d = window.close();
        let ops = traced.walls.len();
        common::sim_layers(&d, ops, &mut out);
        let per_op = 1.0 / ops.max(1) as f64;
        let points = d.counter("learn.points") as f64;
        out.layers.insert("learn.points", points * per_op);
        out.layers.insert(
            "learn.fit_s",
            d.total_seconds("learn/fit-partition") * per_op,
        );
        out.layers
            .insert("learn.wht_s", d.total_seconds("channel/wht") * per_op);
        // Every point runs `trajectories` shots; the frame-batch engine
        // counts its own, the dense engine runs the rest.
        let frame =
            d.counter("engine.shots") as f64 / (points * budget(0).trajectories as f64).max(1.0);
        out.layers.insert("engine.mix.frame-batch", frame);
        out.layers.insert("engine.mix.statevector", 1.0 - frame);
        common::trace_summary(
            &mut out,
            common::attributed_seconds(&d),
            traced.walls.iter().sum(),
            median(&untraced.walls),
            median(&traced.walls),
        );
        traced
    } else {
        learns(&device, args.seconds, args.seed, 1, &mut out)
    };
    for (i, (_, metric)) in STRATEGIES.iter().enumerate() {
        let xs: Vec<f64> = l.per_strategy.iter().map(|w| w[i]).collect();
        out.layers.insert(metric, median(&xs));
    }
    // No state carries across learns (each builds its own sessions),
    // so every learn is cold: the first one stands for the cold start.
    let cold = l.walls.first().copied().unwrap_or(0.0);
    out.finish_end_to_end(median(&setup), cold, &l.walls, l.segment);
    out
}

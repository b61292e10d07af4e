//! The PEC executor: sign-weighted sampling of the inverse channel.
//!
//! For each shot, one element of the quasi-probability inverse is
//! drawn per (layer application × partition); its Paulis become
//! per-shot frame insertions ([`ca_sim::insert`]) anchored at the
//! layer's last two-qubit gate item, and the product of the drawn
//! signs weights the shot's measured eigenvalue. The estimator
//! `γ_total · mean(sign · outcome)` is unbiased for the noiseless
//! expectation of everything the learned channel accounts for, with
//! standard error `γ_total · σ/√N` — the sampling-overhead cost made
//! explicit (Sec. V-B).
//!
//! **One compiled plan serves every sampled instance**: the executor
//! compiles through the session's plan cache
//! ([`ca_sim::Session::compiled`] → [`ca_sim::CompiledCircuit`]) and
//! replays the artifact for the mitigated and the unmitigated
//! (paired, same noise streams) estimate, so thousands of PEC
//! instances cost thousands of frame batches, not thousands of
//! compilations — and repeated runs over the same circuit reuse the
//! cached plan outright.

use crate::error::MitigationError;
use crate::invert::QuasiChannel;
use ca_circuit::{PauliString, ScheduledCircuit};
use ca_metrics::{mean, mitigated_estimate, std_err, MitigatedEstimate};
use ca_sim::{InsertionSet, PauliInsertion, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Budget and seeding of one PEC run.
#[derive(Clone, Copy, Debug)]
pub struct PecConfig {
    /// Shots (= sampled inverse-channel instances).
    pub shots: usize,
    /// Seed for both the noise streams and the quasi-probability
    /// sampling.
    pub seed: u64,
    /// Worker-thread override (`None` = `CA_SIM_WORKERS` / host).
    pub workers: Option<usize>,
}

/// The result of one PEC run, with the paired unmitigated estimate.
#[derive(Clone, Debug)]
pub struct PecRun {
    /// Sign-weighted, γ-rescaled estimate and its standard error.
    pub mitigated: MitigatedEstimate,
    /// Unmitigated estimate over the same shots and noise streams.
    pub raw: f64,
    /// Standard error of [`Self::raw`].
    pub raw_std_err: f64,
    /// `γ_layer^anchors` — the total sampling-overhead factor.
    pub gamma_total: f64,
    /// Fraction of shots that drew an odd number of negative
    /// quasi-probability elements (approaches 1/2 as γ_total grows —
    /// the signal-cancellation mechanism behind the overhead).
    pub negative_fraction: f64,
    /// Total Pauli insertions scheduled across all shots.
    pub insertions: usize,
}

/// Finds the per-layer insertion anchor items of a compiled circuit:
/// the two-qubit unitary items in schedule order, chunked into layer
/// applications of `gates_per_layer` gates; each chunk's last item is
/// the anchor "immediately after this layer application". Fails when
/// the two-qubit gate count is not a multiple of the layer size
/// (e.g. a strategy that adds two-qubit compensation gates).
pub fn layer_anchor_items(
    sc: &ScheduledCircuit,
    gates_per_layer: usize,
) -> Result<Vec<usize>, MitigationError> {
    let mut items: Vec<(f64, usize)> = sc
        .items
        .iter()
        .enumerate()
        .filter(|(_, si)| si.instruction.gate.is_unitary() && si.instruction.qubits.len() == 2)
        .map(|(i, si)| (si.t1(), i))
        .collect();
    if gates_per_layer == 0 || !items.len().is_multiple_of(gates_per_layer) {
        return Err(MitigationError::AnchorMismatch {
            two_qubit_items: items.len(),
            gates_per_layer,
        });
    }
    items.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(items
        .chunks(gates_per_layer)
        .map(|chunk| chunk.last().expect("non-empty chunk").1) // ca-lint: allow(panic) -- chunks() yields non-empty chunks
        .collect())
}

/// Runs PEC for one Pauli observable on a compiled circuit whose
/// layer applications are anchored at `anchors`: samples the inverse
/// channel per shot, executes every instance against one compiled
/// plan (its seed-free program cached in the session), and returns
/// the mitigated and paired raw estimates.
pub fn mitigate_pauli(
    session: &Session,
    sc: &ScheduledCircuit,
    anchors: &[usize],
    quasi: &QuasiChannel,
    observable: &PauliString,
    config: &PecConfig,
) -> Result<PecRun, MitigationError> {
    if config.shots == 0 {
        return Err(MitigationError::NoShots);
    }
    let prepared = session.compiled(sc, config.seed)?;
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9EC0_11EC_5A3B_0001);
    let mut signs = vec![1i8; config.shots];
    let mut list: Vec<PauliInsertion> = Vec::new();
    for (shot, sign) in signs.iter_mut().enumerate() {
        for &item in anchors {
            for part in &quasi.partitions {
                let (idx, s) = part.sample(&mut rng);
                if s < 0 {
                    *sign = -*sign;
                }
                for (qubit, pauli) in part.index_paulis(idx) {
                    list.push(PauliInsertion {
                        shot,
                        item,
                        qubit,
                        pauli,
                    });
                }
            }
        }
    }
    let ins = prepared.insertions(&list)?;
    let obs = std::slice::from_ref(observable);
    let flips = prepared.expect_flips(obs, config.shots, &ins, config.workers)?;
    let raw_flips =
        prepared.expect_flips(obs, config.shots, &InsertionSet::empty(), config.workers)?;

    let gamma_total = quasi.gamma.powi(anchors.len() as i32);
    let signed: Vec<f64> = signs
        .iter()
        .enumerate()
        .map(|(i, &s)| s as f64 * flips.value(0, i))
        .collect();
    let raw_vals: Vec<f64> = (0..config.shots).map(|i| raw_flips.value(0, i)).collect();
    let negative = signs.iter().filter(|&&s| s < 0).count();
    Ok(PecRun {
        mitigated: mitigated_estimate(&signed, gamma_total)?,
        raw: mean(&raw_vals),
        raw_std_err: std_err(&raw_vals),
        gamma_total,
        negative_fraction: negative as f64 / config.shots as f64,
        insertions: ins.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invert::invert;
    use crate::learn::{layer_circuit, learn_layer_channel, propagate_through_layers, LearnConfig};
    use ca_circuit::Pauli;
    use ca_core::{compile, CompileOptions, Strategy};
    use ca_device::{uniform_device, Topology};
    use ca_sim::{Engine, NoiseConfig, Simulator};

    /// A 2-qubit device whose only noise is 2q depolarizing error —
    /// the cleanest end-to-end PEC check: the learner sees exactly a
    /// Pauli channel, so the inverse cancels it (up to shot noise).
    fn depol_setup(p: f64) -> (ca_device::Device, NoiseConfig) {
        let mut dev = uniform_device(Topology::line(2), 0.0);
        let keys: Vec<_> = dev.calibration.edges.keys().copied().collect();
        for k in keys {
            dev.calibration.edges.get_mut(&k).unwrap().gate_err_2q = p;
        }
        let noise = NoiseConfig {
            gate_error: true,
            ..NoiseConfig::ideal()
        };
        (dev, noise)
    }

    #[test]
    fn anchors_cover_each_layer_application() {
        let dev = uniform_device(Topology::line(4), 0.0);
        let layer = [(0usize, 1usize), (2, 3)];
        let qc = layer_circuit(4, &[(0, Pauli::Z)], &layer, 3);
        let sc = compile(&qc, &dev, &CompileOptions::new(Strategy::Bare, 3)).unwrap();
        let anchors = layer_anchor_items(&sc, layer.len()).unwrap();
        assert_eq!(anchors.len(), 3, "one anchor per layer application");
        // Mismatched layer size is a structured error.
        let err = layer_anchor_items(&sc, 4).unwrap_err();
        assert!(matches!(err, MitigationError::AnchorMismatch { .. }));
    }

    #[test]
    fn pec_cancels_a_learned_depolarizing_channel() {
        let p = 0.05;
        let (dev, noise) = depol_setup(p);
        let layer = [(0usize, 1usize)];
        let parts = [vec![0usize, 1]];
        let cfg = LearnConfig {
            depths: vec![1, 2, 4, 8],
            shots: 2048,
            instances: 1,
            seed: 23,
            noise,
        };
        let learned = learn_layer_channel(&dev, Strategy::Bare, &layer, &parts, &cfg).unwrap();
        let quasi = invert(&learned.channel).unwrap();
        assert!(quasi.gamma > 1.0, "noisy channel must cost γ > 1");

        // Mitigate ⟨ZZ propagated⟩ after 4 layer applications.
        let depth = 4;
        let preps = [(0usize, Pauli::Z), (1usize, Pauli::Z)];
        let qc = layer_circuit(2, &preps, &layer, depth);
        let sc = compile(&qc, &dev, &CompileOptions::new(Strategy::Bare, 31)).unwrap();
        let anchors = layer_anchor_items(&sc, layer.len()).unwrap();
        assert_eq!(anchors.len(), depth);
        let mut prep = ca_circuit::PauliString::identity(2);
        prep.paulis[0] = Pauli::Z;
        prep.paulis[1] = Pauli::Z;
        let observable = propagate_through_layers(&prep, &layer, depth);

        let session = Session::new(Simulator::with_engine(dev, noise, Engine::FrameBatch));
        let run = mitigate_pauli(
            &session,
            &sc,
            &anchors,
            &quasi,
            &observable,
            &PecConfig {
                shots: 6000,
                seed: 5,
                workers: None,
            },
        )
        .unwrap();

        // The raw signal decays measurably; the mitigated one must be
        // closer to the ideal value 1 and statistically consistent
        // with it.
        assert!(run.raw < 0.9, "raw decays: {}", run.raw);
        let ideal = 1.0;
        assert!(
            (run.mitigated.value - ideal).abs() < (run.raw - ideal).abs(),
            "mitigated {} must beat raw {}",
            run.mitigated.value,
            run.raw
        );
        assert!(
            (run.mitigated.value - ideal).abs() < 4.0 * run.mitigated.std_err.max(0.01),
            "mitigated {} ± {} vs ideal",
            run.mitigated.value,
            run.mitigated.std_err
        );
        // The γ accounting shows up as an amplified error bar.
        assert!(run.gamma_total > 1.0);
        assert!(run.mitigated.std_err > run.raw_std_err);
        assert!(run.insertions > 0);
    }

    #[test]
    fn empty_anchor_list_degenerates_to_raw() {
        let (dev, noise) = depol_setup(0.03);
        let layer = [(0usize, 1usize)];
        let qc = layer_circuit(2, &[(0, Pauli::Z)], &layer, 1);
        let sc = compile(&qc, &dev, &CompileOptions::new(Strategy::Bare, 7)).unwrap();
        let quasi = invert(&crate::channel::LayerChannel {
            partitions: vec![crate::channel::PartitionChannel::identity(vec![0, 1])],
        })
        .unwrap();
        let mut obs = ca_circuit::PauliString::identity(2);
        obs.paulis[0] = Pauli::Z;
        let observable = propagate_through_layers(&obs, &layer, 1);
        let session = Session::new(Simulator::with_engine(dev, noise, Engine::FrameBatch));
        let run = mitigate_pauli(
            &session,
            &sc,
            &[],
            &quasi,
            &observable,
            &PecConfig {
                shots: 500,
                seed: 9,
                workers: None,
            },
        )
        .unwrap();
        assert_eq!(run.gamma_total, 1.0);
        assert_eq!(run.insertions, 0);
        assert!((run.mitigated.value - run.raw).abs() < 1e-12);
    }
}

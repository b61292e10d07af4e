//! Twirl-ensemble compilation: one schedule, many twirl instances.
//!
//! Twirled instances of a circuit differ only in which Pauli sits in
//! each merged twirl slot (see [`crate::twirl`]): merged Paulis take
//! no schedule time, draw no gate error, and cast no Stark shadow, so
//! every instance of a `(circuit, strategy)` point has *bit-identical
//! timing* — the same scheduled items, idle windows, DD pulse
//! placements, and noise-timeline segments. Compiling a sweep point
//! therefore does not need to run the pass pipeline once per
//! instance: this module compiles the **base instance** once, records
//! where its merged twirl slots sit, and derives every other instance
//! as a *dressing* — a `(item, Pauli)` substitution list the
//! simulator's compiled-artifact layer applies without replanning
//! (`ca-sim`'s `Session::compiled_dressed`).
//!
//! Soundness is checked, not assumed: the base seed's twirl draws are
//! re-derived through the same slot-matching used for every other
//! instance and must reproduce the base schedule's own merged Paulis
//! exactly; any disagreement is a structured [`CompileError`] and the
//! caller falls back to independent compilation. Strategies whose
//! post-twirl passes *read* the twirl Paulis (CA-EC commutes
//! compensations through them) are not shareable and are rejected up
//! front.

use crate::error::CompileError;
use crate::pass::Context;
use crate::strategies::{pipeline, CompileOptions, Strategy};
use crate::twirl::pauli_twirl;
use ca_circuit::{stratify, Circuit, Pauli, ScheduledCircuit};
use ca_device::Device;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One compiled twirl ensemble: the base schedule plus per-instance
/// Pauli dressings over its merged twirl slots.
#[derive(Clone, Debug)]
pub struct TwirlEnsemble {
    /// The base instance, compiled through the full pass pipeline
    /// with `seeds[0]`.
    pub base: ScheduledCircuit,
    /// Item indices of the merged twirl slots, in schedule order.
    pub slots: Vec<usize>,
    /// Per seed (parallel to the input seed list): the full dressing
    /// `(item, Pauli)` across every slot. `dressings[0]` reproduces
    /// the base schedule's own Paulis.
    pub dressings: Vec<Vec<(usize, Pauli)>>,
}

/// True when `options` compiles through a pipeline whose post-twirl
/// passes are functions of *timing and non-Pauli gates only*, so all
/// twirl instances share one schedule. CA-EC reads the twirl Paulis
/// (its compensations commute through them), and untwirled options
/// have no ensemble to share.
pub fn ensemble_shareable(options: &CompileOptions) -> bool {
    options.twirl
        && matches!(
            options.strategy,
            Strategy::Bare | Strategy::UniformDd | Strategy::StaggeredDd | Strategy::CaDd
        )
}

/// The Pauli a merged twirl slot carries, if the item is one.
fn slot_pauli(sc: &ScheduledCircuit, item: usize) -> Option<Pauli> {
    let instr = &sc.items[item].instruction;
    if !instr.merged || instr.qubits.len() != 1 || instr.condition.is_some() {
        return None;
    }
    match instr.gate {
        ca_circuit::Gate::I => Some(Pauli::I),
        ca_circuit::Gate::X => Some(Pauli::X),
        ca_circuit::Gate::Y => Some(Pauli::Y),
        ca_circuit::Gate::Z => Some(Pauli::Z),
        _ => None,
    }
}

/// Re-derives the twirl draws of `seed` on the stratified circuit and
/// maps them onto the base schedule's per-qubit slot lists.
fn dressing_for_seed(
    stratified: &ca_circuit::LayeredCircuit,
    slots_by_qubit: &[Vec<usize>],
    seed: u64,
) -> Result<Vec<(usize, Pauli)>, CompileError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, record) = pauli_twirl(stratified, &mut rng);
    // Per qubit, twirl draws in emission order sorted (stably) by
    // output-layer index = time order, matching the schedule's
    // per-qubit slot order.
    let nq = slots_by_qubit.len();
    let mut draws: Vec<Vec<(usize, Pauli)>> = vec![Vec::new(); nq];
    for &(layer, qubit, pauli) in &record.inserted {
        draws[qubit].push((layer, pauli));
    }
    let mut dressing = Vec::new();
    for (q, (slots, qdraws)) in slots_by_qubit.iter().zip(draws.iter_mut()).enumerate() {
        qdraws.sort_by_key(|&(layer, _)| layer);
        if slots.len() != qdraws.len() {
            return Err(CompileError::EnsembleShapeMismatch {
                qubit: q,
                slots: slots.len(),
                draws: qdraws.len(),
            });
        }
        for (&item, &(_, pauli)) in slots.iter().zip(qdraws.iter()) {
            dressing.push((item, pauli));
        }
    }
    dressing.sort_by_key(|&(item, _)| item);
    Ok(dressing)
}

/// Compiles a twirl ensemble: the full pipeline once (for `seeds[0]`),
/// then one dressing per seed. Instances with the same seed get the
/// same dressing as an independent `compile` call with that seed
/// would produce — validated by the built-in self-check on the base
/// seed.
pub fn compile_twirl_ensemble(
    circuit: &Circuit,
    device: &Device,
    options: &CompileOptions,
    seeds: &[u64],
) -> Result<TwirlEnsemble, CompileError> {
    if !ensemble_shareable(options) {
        return Err(CompileError::EnsembleUnsupported {
            label: options.strategy.label(),
        });
    }
    let base_seed = seeds.first().copied().unwrap_or(options.seed);
    let base_options = CompileOptions {
        seed: base_seed,
        ..*options
    };
    let mut ctx = Context::new(device, base_seed);
    let base = pipeline(&base_options).compile(circuit, &mut ctx)?;

    let mut slots = Vec::new();
    let mut slots_by_qubit: Vec<Vec<usize>> = vec![Vec::new(); base.num_qubits];
    for item in 0..base.items.len() {
        if slot_pauli(&base, item).is_some() {
            slots.push(item);
            slots_by_qubit[base.items[item].instruction.qubits[0]].push(item);
        }
    }

    let stratified = stratify(circuit);
    let mut dressings = Vec::with_capacity(seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let dressing = dressing_for_seed(&stratified, &slots_by_qubit, seed)?;
        if i == 0 {
            // Self-check: the base seed's re-derived dressing must
            // reproduce the base schedule's own merged Paulis, or the
            // slot↔draw correspondence is unsound for every seed.
            for &(item, pauli) in &dressing {
                if slot_pauli(&base, item) != Some(pauli) {
                    return Err(CompileError::EnsembleSelfCheckFailed { item });
                }
            }
        }
        dressings.push(dressing);
    }
    Ok(TwirlEnsemble {
        base,
        slots,
        dressings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::compile;
    use ca_device::{uniform_device, Topology};

    fn workload(n: usize) -> Circuit {
        let mut qc = Circuit::new(n, 0);
        for q in 0..n {
            qc.h(q);
        }
        qc.barrier(Vec::<usize>::new());
        for layer in 0..3 {
            let mut q = layer % 2;
            while q + 1 < n {
                qc.ecr(q, q + 1);
                q += 2;
            }
            qc.barrier(Vec::<usize>::new());
        }
        qc
    }

    #[test]
    fn shareability_matches_strategy() {
        for s in Strategy::ALL {
            let opts = CompileOptions::new(s, 1);
            let expect = !matches!(s, Strategy::CaEc | Strategy::CaEcPlusDd);
            assert_eq!(ensemble_shareable(&opts), expect, "{}", s.label());
        }
        assert!(!ensemble_shareable(&CompileOptions::untwirled(
            Strategy::CaDd,
            1
        )));
    }

    #[test]
    fn dressed_base_matches_independent_compiles() {
        // The ensemble's dressings, substituted into the base
        // schedule, must reproduce each seed's independent pipeline
        // compile exactly — items, gates, timing, everything.
        let dev = uniform_device(Topology::line(6), 60.0);
        let qc = workload(6);
        for strategy in [Strategy::Bare, Strategy::UniformDd, Strategy::CaDd] {
            let opts = CompileOptions::new(strategy, 0);
            let seeds = [11u64, 12, 13, 14];
            let ens = compile_twirl_ensemble(&qc, &dev, &opts, &seeds).unwrap();
            assert!(!ens.slots.is_empty(), "twirl slots exist");
            for (i, &seed) in seeds.iter().enumerate() {
                let mut dressed = ens.base.clone();
                for &(item, pauli) in &ens.dressings[i] {
                    dressed.items[item].instruction.gate = pauli.gate();
                }
                let independent = compile(&qc, &dev, &CompileOptions { seed, ..opts }).unwrap();
                assert_eq!(
                    dressed,
                    independent,
                    "{} seed {seed}: dressed base must equal the independent compile",
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn caec_and_untwirled_are_rejected() {
        let dev = uniform_device(Topology::line(4), 60.0);
        let qc = workload(4);
        let err = compile_twirl_ensemble(&qc, &dev, &CompileOptions::new(Strategy::CaEc, 1), &[1])
            .unwrap_err();
        assert_eq!(err, CompileError::EnsembleUnsupported { label: "CA-EC" });
        let err = compile_twirl_ensemble(
            &qc,
            &dev,
            &CompileOptions::untwirled(Strategy::Bare, 1),
            &[1],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::EnsembleUnsupported { label: "bare" });
    }
}

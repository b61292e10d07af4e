#![forbid(unsafe_code)]
//! # context-aware-compiling
//!
//! A from-scratch Rust reproduction of *"Suppressing Correlated Noise
//! in Quantum Computers via Context-Aware Compiling"* (ISCA 2024):
//! a compiler that suppresses correlated coherent errors on
//! fixed-frequency superconducting devices through context-aware
//! dynamical decoupling (graph-colored Walsh sequences, Algorithm 1)
//! and context-aware error compensation (zero-overhead absorption of
//! known Z/ZZ phases, Algorithm 2), together with every substrate the
//! evaluation needs: circuit IR, device models, a physics-faithful
//! noisy simulator, analysis tooling, and the experiment drivers that
//! regenerate each figure and table of the paper.
//!
//! ## Quick start
//!
//! ```
//! use context_aware_compiling::prelude::*;
//!
//! // A 4-qubit device with always-on ZZ crosstalk.
//! let device = uniform_device(Topology::line(4), 80.0);
//!
//! // A circuit with a jointly idle pair next to a repeated ECR.
//! let mut qc = Circuit::new(4, 0);
//! qc.h(2).h(3);
//! qc.ecr(0, 1).ecr(0, 1);
//! qc.h(2).h(3);
//!
//! // Compile with context-aware dynamical decoupling and simulate.
//! let compiled = compile(&qc, &device, &CompileOptions::untwirled(Strategy::CaDd, 7)).unwrap();
//! let sim = Simulator::with_config(device, NoiseConfig::coherent_only());
//! let z = sim.expect_pauli(&compiled, &PauliString::parse("IIZI").unwrap(), 1, 7).unwrap();
//! assert!(z > 0.99);
//! ```
//!
//! The crates are re-exported under their short names; see DESIGN.md
//! for the architecture and EXPERIMENTS.md for the paper-vs-measured
//! record.

pub use ca_circuit as circuit;
pub use ca_core as core;
pub use ca_device as device;
pub use ca_experiments as experiments;
pub use ca_metrics as metrics;
pub use ca_mitigation as mitigation;
pub use ca_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use ca_circuit::{
        schedule_asap, stratify, Circuit, Gate, GateDurations, Pauli, PauliString, ScheduledCircuit,
    };
    pub use ca_core::{
        ca_dd, ca_ec, compile, pauli_twirl, CaDdConfig, CaEcConfig, CompileOptions, Context,
        PassManager, Strategy,
    };
    pub use ca_device::{
        eagle_like, nazca_like, uniform_device, Calibration, Device, NoiseProfile, Topology,
    };
    pub use ca_experiments::{Budget, Figure, Series};
    pub use ca_metrics::{fit_decay, gamma_from_layer_fidelity, DecayFit};
    pub use ca_sim::{Engine, NoiseConfig, RunResult, SimError, Simulator, State, Tableau};
}

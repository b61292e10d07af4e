//! Repo-codified rule scopes. These mirror the bit-identity contract
//! in the README: which crates produce user-visible results, where
//! the clock may be read, where the environment may be read, and
//! which ca-sim modules are sanctioned RNG consumers.

/// Scope configuration for a lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose outputs are user-visible results; hash-order
    /// iteration here can leak nondeterminism into counts or
    /// expectation values.
    pub result_crates: Vec<&'static str>,
    /// Crates allowed to read the wall clock (`ca-obs` is the
    /// instrumentation layer; `ca-bench` exists to measure time).
    pub clock_crates: Vec<&'static str>,
    /// The single module allowed to call `std::env::var*`.
    pub env_module: &'static str,
    /// ca-sim modules sanctioned to touch `rand`. Frame-engine draws
    /// are pure hashes from `plan::shot_site_seed` and need no `rand`
    /// at all; the dense engine's draws come from per-chunk streams
    /// seeded by `plan::chunk_seed`, and the tableau's reference run
    /// from one seeded stream.
    pub sim_rng_modules: Vec<&'static str>,
    /// Directories `lint_workspace` never descends into.
    pub skip_dirs: Vec<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            result_crates: vec![
                "crates/sim",
                "crates/core",
                "crates/circuit",
                "crates/mitigation",
                "crates/server",
            ],
            clock_crates: vec!["crates/obs", "crates/bench"],
            env_module: "crates/obs/src/env.rs",
            sim_rng_modules: vec![
                "crates/sim/src/noise.rs",
                "crates/sim/src/plan.rs",
                "crates/sim/src/pauli_frame.rs",
                "crates/sim/src/stabilizer.rs",
                "crates/sim/src/statevector.rs",
                "crates/sim/src/executor.rs",
            ],
            skip_dirs: vec!["target", ".git", "crates/shims", "crates/lint/fixtures"],
        }
    }
}

//! Compiled artifacts and the session/job layer: compile a plan once,
//! run millions of shots many times.
//!
//! Context-aware compilation is deterministic given the schedule,
//! device calibration, noise configuration, and seed — so the
//! expensive planning work (timeline segmentation, batch-program
//! emission) is a pure function of a structural key, and only the
//! cheap reference tableau run depends on the seed. This module makes
//! the compiled result a first-class value:
//!
//! * [`CompiledCircuit`] — an owned, `Send + Sync` artifact: a shared
//!   seed-free program (the scheduled circuit, the noise-timeline
//!   [`ExecutionPlan`], the resolved engine and its precompiled frame
//!   program) plus the seed. The seed's reference run happens on
//!   first use; the reference *tableau* is kept only once an
//!   expectation or flips run asks for it (counts read just the
//!   reference bits). Running an artifact never replans. [`Simulator::compile`] is the one way shots run:
//!   the one-shot [`Simulator`] entry points compile and run one
//!   artifact, so their results are the artifact's at the same seed,
//!   for any shot and worker count.
//! * [`Session`] — a simulator (shared by every artifact it compiles)
//!   plus an LRU plan cache and a job API. The cache holds the
//!   seed-*independent* program per circuit: the timeline plan and the
//!   batch program with its bank tables and serial item table, built
//!   once and shared by every seed. Re-seeded submissions of one
//!   circuit (twirl averaging, paired PEC estimates, fresh-seed
//!   serving) therefore pay only the reference run.
//!   [`Session::submit`] fans independent jobs out across worker
//!   threads at *job* granularity (twirl ensembles run concurrently)
//!   while shot-level chunking stays inside each job. Results are
//!   deterministic regardless of cache hits, eviction history, or
//!   worker count. The env toggle `CA_SIM_PLAN_CACHE=0` disables
//!   caching (CI runs the equivalence suites both ways).
//! * [`Session::compiled_dressed`] / [`Job::with_dressing`] — the
//!   twirl-ensemble fast path: twirl instances of one schedule
//!   differ only in which merged Pauli occupies each twirl slot
//!   (merged gates are zero-width, error-free, and Stark-invisible),
//!   so every instance provably shares the base's timeline. An
//!   instance is derived by substituting those Paulis and building
//!   only its frame program (cached per instance) over the *shared*
//!   `Arc<ExecutionPlan>` — the pass pipeline and segmentation are
//!   never paid again — and is bit-identical to compiling the dressed
//!   circuit from scratch.

use crate::cancel::CancelToken;
use crate::engine::{Engine, DENSE_MAX_QUBITS};
use crate::error::SimError;
use crate::executor::Simulator;
use crate::frame_batch::BatchPlan;
use crate::insert::{InsertionSet, PauliInsertion};
use crate::pauli_frame::{FramePlan, RefBits};
use crate::plan::{map_batches, ExecutionPlan};
use crate::result::{PauliFlips, RunResult};
use crate::stabilizer::Tableau;
use ca_circuit::pauli::Pauli;
use ca_circuit::{Gate, PauliString, ScheduledCircuit};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The engine a program resolved to, with its seed-free precompiled
/// program.
enum Backend {
    /// Dense statevector: the timeline plan is the whole program.
    Dense,
    /// The frame program (with the [`FramePlan`] it was compiled
    /// from), run by the serial engine one shot at a time when
    /// `serial` — the batch engine's reference — and bit-parallel, 64
    /// shots per word, otherwise.
    Frame { plan: BatchPlan, serial: bool },
}

/// The seed-independent half of a compiled artifact, and the entry
/// type of a [`Session`]'s plan cache: a circuit, its timeline
/// plan and — built the first time a seeded artifact needs it — its
/// engine program. Every seed of the circuit shares one program; a
/// twirl instance's program shares its base circuit's timeline plan.
pub(crate) struct Program {
    sc: Arc<ScheduledCircuit>,
    plan: Arc<ExecutionPlan>,
    backend: OnceLock<Arc<Backend>>,
}

impl Program {
    /// A program over `plan`, whose circuit may differ from `sc` only
    /// at merged Pauli slots (see [`Simulator::build_backend`]).
    fn new(sc: Arc<ScheduledCircuit>, plan: Arc<ExecutionPlan>) -> Self {
        Self {
            sc,
            plan,
            backend: OnceLock::new(),
        }
    }

    /// The engine program, built on first use. Two threads racing on
    /// the first build each compile the same deterministic program;
    /// one is kept.
    fn backend(&self, sim: &Simulator) -> Result<Arc<Backend>, SimError> {
        if let Some(b) = self.backend.get() {
            return Ok(b.clone());
        }
        let built = Arc::new(sim.build_backend(&self.sc, &self.plan)?);
        Ok(self.backend.get_or_init(|| built).clone())
    }
}

/// The seed-dependent half of a frame artifact, computed on first
/// use: the reference bits every run reads, and the reference tableau
/// that only expectation and flips runs read. Both come from the same
/// deterministic reference run ([`FramePlan::reference`]).
#[derive(Default)]
struct Reference {
    bits: OnceLock<RefBits>,
    tableau: OnceLock<Tableau>,
}

/// An owned, hashable, reusable compiled execution artifact: a shared
/// seed-free [`Program`] plus the seed.
///
/// `Send + Sync`: safe to share behind an [`Arc`] and run from many
/// threads at once. All run methods take `&self` and are
/// bit-identical to the corresponding one-shot [`Simulator`] calls
/// with the same circuit and seed, for any shot count and worker
/// count.
pub struct CompiledCircuit {
    sim: Arc<Simulator>,
    program: Arc<Program>,
    backend: Arc<Backend>,
    reference: Reference,
    seed: u64,
}

impl std::fmt::Debug for CompiledCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCircuit")
            .field("engine", &self.engine_name())
            .field("qubits", &self.program.sc.num_qubits)
            .field("items", &self.program.sc.items.len())
            .field("seed", &self.seed)
            .finish()
    }
}

fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    fn _check() {
        _assert_send_sync::<CompiledCircuit>();
        _assert_send_sync::<Session>();
    }
};

impl CompiledCircuit {
    /// The seed fixed at compile time: it seeds the reference tableau
    /// run and every shot's noise stream, so repeated runs (with
    /// different insertion sets, shot counts, or worker counts) stay
    /// shot-wise paired.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled circuit this artifact executes.
    pub fn circuit(&self) -> &ScheduledCircuit {
        &self.program.sc
    }

    /// The shared seed-free program this artifact runs.
    #[cfg(test)]
    pub(crate) fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Whether this artifact has built its reference tableau (only
    /// expectation and flips runs need one).
    #[cfg(test)]
    pub(crate) fn has_reference_tableau(&self) -> bool {
        self.reference.tableau.get().is_some()
    }

    /// Name of the engine the artifact resolved to.
    pub fn engine_name(&self) -> &'static str {
        match *self.backend {
            Backend::Dense => "statevector",
            Backend::Frame { serial: true, .. } => "stabilizer",
            Backend::Frame { serial: false, .. } => "frame-batch",
        }
    }

    /// Validates a raw insertion list against this artifact's circuit.
    pub fn insertions(&self, list: &[PauliInsertion]) -> Result<InsertionSet, SimError> {
        InsertionSet::build(&self.program.sc, list)
    }

    /// Shot parameters of one run of this artifact.
    fn params<'a>(
        &self,
        shots: usize,
        workers: Option<usize>,
        cancel: Option<&'a CancelToken>,
    ) -> crate::plan::ShotParams<'a> {
        crate::plan::ShotParams {
            shots,
            seed: self.seed,
            workers,
            cancel,
        }
    }

    /// The seed's reference bits, from the reference run on first use.
    fn ref_bits(&self, frame: &FramePlan) -> &RefBits {
        self.reference
            .bits
            .get_or_init(|| frame.reference(self.seed).0)
    }

    /// The seed's reference bits and tableau, from one reference run
    /// on first use.
    fn ref_tableau(&self, frame: &FramePlan) -> (&RefBits, &Tableau) {
        let tableau = self.reference.tableau.get_or_init(|| {
            let (bits, tableau) = frame.reference(self.seed);
            // Already set by an earlier counts run: the same bits.
            let _ = self.reference.bits.set(bits);
            tableau
        });
        (self.ref_bits(frame), tableau)
    }

    /// Shot-sampled classical counts without recompiling.
    pub fn run_counts(
        &self,
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
    ) -> Result<RunResult, SimError> {
        self.run_counts_cancel(shots, ins, workers, None)
    }

    /// [`Self::run_counts`] with a cooperative [`CancelToken`],
    /// polled at shot-chunk / batch-strip boundaries: a cancelled or
    /// deadline-expired token aborts with [`SimError::Cancelled`] /
    /// [`SimError::DeadlineExceeded`] and no partial result.
    pub fn run_counts_cancel(
        &self,
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<RunResult, SimError> {
        match &*self.backend {
            Backend::Dense => {
                if !ins.is_empty() {
                    return Err(SimError::UnsupportedOnEngine {
                        engine: "statevector",
                        operation: "per-shot Pauli insertions",
                    });
                }
                self.sim.run_counts_dense_plan(
                    &self.program.plan,
                    shots,
                    self.seed,
                    workers,
                    cancel,
                )
            }
            Backend::Frame { plan, serial } => {
                let bits = self.ref_bits(&plan.frame);
                let params = self.params(shots, workers, cancel);
                if *serial {
                    plan.serial_counts(&self.sim, bits, ins, params)
                } else {
                    plan.counts(&self.sim, bits, ins, params)
                }
            }
        }
    }

    /// Frame- (or trajectory-) averaged Pauli expectations without
    /// recompiling.
    pub fn expect_paulis(
        &self,
        paulis: &[PauliString],
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
    ) -> Result<Vec<f64>, SimError> {
        self.expect_paulis_cancel(paulis, shots, ins, workers, None)
    }

    /// [`Self::expect_paulis`] with a cooperative [`CancelToken`]
    /// (see [`Self::run_counts_cancel`]).
    pub fn expect_paulis_cancel(
        &self,
        paulis: &[PauliString],
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<f64>, SimError> {
        match &*self.backend {
            Backend::Dense => {
                if !ins.is_empty() {
                    return Err(SimError::UnsupportedOnEngine {
                        engine: "statevector",
                        operation: "per-shot Pauli insertions",
                    });
                }
                self.sim.expect_paulis_dense_plan(
                    &self.program.plan,
                    paulis,
                    shots,
                    self.seed,
                    workers,
                    cancel,
                )
            }
            Backend::Frame { plan, serial } => {
                let (bits, tableau) = self.ref_tableau(&plan.frame);
                let params = self.params(shots, workers, cancel);
                if *serial {
                    plan.serial_expectations(&self.sim, bits, tableau, paulis, ins, params)
                } else {
                    plan.expectations(&self.sim, bits, tableau, paulis, ins, params)
                }
            }
        }
    }

    /// Per-shot ±1 outcomes (sign-resolved expectations — the PEC
    /// estimator input) without recompiling. Frame engines only.
    pub fn expect_flips(
        &self,
        paulis: &[PauliString],
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
    ) -> Result<PauliFlips, SimError> {
        self.expect_flips_cancel(paulis, shots, ins, workers, None)
    }

    /// [`Self::expect_flips`] with a cooperative [`CancelToken`]
    /// (see [`Self::run_counts_cancel`]).
    pub fn expect_flips_cancel(
        &self,
        paulis: &[PauliString],
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<PauliFlips, SimError> {
        match &*self.backend {
            Backend::Dense => Err(SimError::UnsupportedOnEngine {
                engine: "statevector",
                operation: "per-shot sign-resolved outcomes",
            }),
            Backend::Frame { plan, serial } => {
                let (bits, tableau) = self.ref_tableau(&plan.frame);
                let params = self.params(shots, workers, cancel);
                if *serial {
                    plan.serial_flips(&self.sim, bits, tableau, paulis, ins, params)
                } else {
                    plan.flips(&self.sim, bits, tableau, paulis, ins, params)
                }
            }
        }
    }
}

/// Applies a twirl dressing to a copy of `base`, validating that
/// every target is a merged single-qubit Pauli slot.
fn apply_dressing(
    base: &ScheduledCircuit,
    dressing: &[(usize, Pauli)],
) -> Result<ScheduledCircuit, SimError> {
    let mut sc = base.clone();
    for &(item, pauli) in dressing {
        let Some(si) = sc.items.get_mut(item) else {
            return Err(SimError::InvalidDressing {
                item,
                reason: "target item index out of range",
            });
        };
        let instr = &mut si.instruction;
        let is_slot = instr.merged
            && instr.qubits.len() == 1
            && instr.condition.is_none()
            && matches!(instr.gate, Gate::I | Gate::X | Gate::Y | Gate::Z);
        if !is_slot {
            return Err(SimError::InvalidDressing {
                item,
                reason: "target item is not a merged single-qubit Pauli slot",
            });
        }
        instr.gate = pauli.gate();
    }
    Ok(sc)
}

/// Renders a caught panic payload for [`SimError::JobPanicked`]
/// (`panic!` carries `&str` or `String` in practice; anything else
/// is reported generically).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Simulator {
    /// Compiles `sc` into an owned, reusable [`CompiledCircuit`]:
    /// resolves the engine per the simulator's [`Engine`] policy,
    /// builds the timeline plan, and precompiles the frame programs.
    /// The uncached single-compile entry point — sessions cache the
    /// seed-free program on top, and every one-shot run
    /// ([`Self::run_counts`], [`Self::expect_paulis`]) goes through
    /// here.
    pub fn compile(&self, sc: &ScheduledCircuit, seed: u64) -> Result<CompiledCircuit, SimError> {
        let sc = Arc::new(sc.clone());
        let plan = Arc::new(ExecutionPlan::build_arc(
            sc.clone(),
            &self.device,
            &self.config,
        )?);
        seeded(
            &Arc::new(self.clone()),
            Arc::new(Program::new(sc, plan)),
            seed,
        )
    }

    /// Resolves the engine for `sc` and compiles its seed-free
    /// program over a prebuilt timeline plan. For frame backends,
    /// `plan.sc` may differ from `sc` at merged single-qubit Pauli
    /// slots (the re-dressed-twirl contract: the timeline is identical
    /// there); the dense backend replays exact unitaries from
    /// `plan.sc`, so it requires `plan.sc == sc` and gets a fresh plan
    /// from the caller otherwise.
    fn build_backend(
        &self,
        sc: &Arc<ScheduledCircuit>,
        plan: &Arc<ExecutionPlan>,
    ) -> Result<Backend, SimError> {
        let frame = |serial| -> Result<Backend, SimError> {
            let frame = FramePlan::build_with_plan(sc.clone(), plan.clone())?;
            Ok(Backend::Frame {
                plan: BatchPlan::from_frame(self, frame),
                serial,
            })
        };
        Ok(match self.resolve_engine(sc)? {
            Engine::Statevector => {
                if sc.num_qubits > DENSE_MAX_QUBITS {
                    return Err(SimError::DenseCapExceeded {
                        qubits: sc.num_qubits,
                        max: DENSE_MAX_QUBITS,
                    });
                }
                debug_assert!(
                    *plan.sc == **sc,
                    "dense backends replay unitaries from the plan's circuit"
                );
                Backend::Dense
            }
            Engine::Stabilizer => frame(true)?,
            // `resolve_engine` never returns `Auto`.
            Engine::FrameBatch | Engine::Auto => frame(false)?,
        })
    }
}

/// Assembles a [`CompiledCircuit`]: `program` (its engine program
/// built on first use) seeded with `seed`. The reference run the seed
/// determines is deferred to the artifact's first run.
fn seeded(
    sim: &Arc<Simulator>,
    program: Arc<Program>,
    seed: u64,
) -> Result<CompiledCircuit, SimError> {
    let _s = ca_obs::span("sim.compile", "artifact");
    ca_obs::counter_add("sim.compiles", 1);
    let backend = program.backend(sim)?;
    Ok(CompiledCircuit {
        sim: sim.clone(),
        program,
        backend,
        reference: Reference::default(),
        seed,
    })
}

/// One unit of work for [`Session::submit`].
#[derive(Clone, Debug)]
pub struct Job {
    /// The (base) scheduled circuit to execute.
    pub circuit: Arc<ScheduledCircuit>,
    /// Optional twirl dressing: merged-slot Pauli substitutions
    /// applied via the shared-plan fast path
    /// ([`Session::compiled_dressed`]).
    pub dressing: Option<Vec<(usize, Pauli)>>,
    /// Per-shot Pauli insertions (PEC); empty for plain runs.
    pub insertions: Vec<PauliInsertion>,
    /// What to measure.
    pub request: JobRequest,
    /// Shots.
    pub shots: usize,
    /// Seed for the reference run and every shot's noise stream.
    pub seed: u64,
    /// Cooperative cancellation handle (see [`Job::with_cancel`]).
    /// Cloning the job shares the token: cancelling one clone cancels
    /// all of them.
    pub cancel: Option<CancelToken>,
    /// Relative deadline, armed when the job is submitted (see
    /// [`Job::with_deadline`]) — queue wait counts against it.
    pub deadline: Option<std::time::Duration>,
}

/// What a [`Job`] measures.
#[derive(Clone, Debug)]
pub enum JobRequest {
    /// Classical-bit counts.
    Counts,
    /// Averaged Pauli expectations.
    Expect(Vec<PauliString>),
    /// Per-shot ±1 outcomes (frame engines only).
    Flips(Vec<PauliString>),
}

/// A [`Job`]'s result.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// Classical-bit counts.
    Counts(RunResult),
    /// Averaged Pauli expectations.
    Expect(Vec<f64>),
    /// Per-shot ±1 outcomes.
    Flips(PauliFlips),
}

impl JobOutput {
    /// The expectation vector, when the job requested one.
    pub fn expectations(&self) -> Option<&[f64]> {
        match self {
            JobOutput::Expect(v) => Some(v),
            _ => None,
        }
    }
}

impl Job {
    /// An expectation job.
    pub fn expect(
        circuit: impl Into<Arc<ScheduledCircuit>>,
        observables: impl Into<Vec<PauliString>>,
        shots: usize,
        seed: u64,
    ) -> Self {
        Self {
            circuit: circuit.into(),
            dressing: None,
            insertions: Vec::new(),
            request: JobRequest::Expect(observables.into()),
            shots,
            seed,
            cancel: None,
            deadline: None,
        }
    }

    /// A counts job.
    pub fn counts(circuit: impl Into<Arc<ScheduledCircuit>>, shots: usize, seed: u64) -> Self {
        Self {
            circuit: circuit.into(),
            dressing: None,
            insertions: Vec::new(),
            request: JobRequest::Counts,
            shots,
            seed,
            cancel: None,
            deadline: None,
        }
    }

    /// A per-shot ±1 outcomes job.
    pub fn flips(
        circuit: impl Into<Arc<ScheduledCircuit>>,
        observables: impl Into<Vec<PauliString>>,
        shots: usize,
        seed: u64,
    ) -> Self {
        Self {
            circuit: circuit.into(),
            dressing: None,
            insertions: Vec::new(),
            request: JobRequest::Flips(observables.into()),
            shots,
            seed,
            cancel: None,
            deadline: None,
        }
    }

    /// Attaches a twirl dressing (shared-schedule ensemble instance).
    pub fn with_dressing(mut self, dressing: Vec<(usize, Pauli)>) -> Self {
        self.dressing = Some(dressing);
        self
    }

    /// Attaches per-shot Pauli insertions.
    pub fn with_insertions(mut self, insertions: Vec<PauliInsertion>) -> Self {
        self.insertions = insertions;
        self
    }

    /// Attaches a relative deadline. The countdown starts when the
    /// job is submitted ([`Session::run`] / [`Session::submit`]), so
    /// time spent queued behind other jobs counts against it; once it
    /// expires the job stops at the next shot-chunk boundary with
    /// [`SimError::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a caller-held [`CancelToken`]: cancelling it (from
    /// any thread) stops the job at the next shot-chunk boundary with
    /// [`SimError::Cancelled`], freeing its worker.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The token execution polls for this job, arming the relative
    /// deadline *now* (submission time). `None` when the job carries
    /// neither a token nor a deadline — the zero-overhead default.
    fn armed_token(&self) -> Option<CancelToken> {
        match (&self.cancel, self.deadline) {
            (Some(token), Some(deadline)) => {
                token.set_deadline_in(deadline);
                Some(token.clone())
            }
            (Some(token), None) => Some(token.clone()),
            (None, Some(deadline)) => {
                let token = CancelToken::new();
                token.set_deadline_in(deadline);
                Some(token)
            }
            (None, None) => None,
        }
    }
}

/// The session's LRU of seed-free [`Program`]s, keyed by the
/// circuit's 64-bit structural hash. Hits are verified against the
/// stored circuit, so hash collisions degrade to misses instead of
/// serving a wrong plan.
struct ProgramCache {
    capacity: usize,
    stamp: u64,
    entries: BTreeMap<u64, (Arc<Program>, u64)>,
    stats: CacheStats,
}

impl ProgramCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            stamp: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn get(&mut self, key: u64, sc: &ScheduledCircuit) -> Option<Arc<Program>> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.entries.get_mut(&key) {
            Some((p, used)) if *p.sc == *sc => {
                *used = stamp;
                self.stats.hits += 1;
                ca_obs::counter_add("session.exec_cache.hit", 1);
                return Some(p.clone());
            }
            // 64-bit key collision: the entry under this key is a
            // different circuit. Degrades to a miss (the caller
            // recompiles); never serves a wrong plan.
            Some(_) => {
                self.stats.verify_mismatches += 1;
                ca_obs::counter_add("session.exec_cache.verify_mismatch", 1);
            }
            None => {}
        }
        self.stats.misses += 1;
        ca_obs::counter_add("session.exec_cache.miss", 1);
        None
    }

    fn insert(&mut self, key: u64, program: Arc<Program>) {
        if self.capacity == 0 {
            return;
        }
        self.stamp += 1;
        self.entries.insert(key, (program, self.stamp));
        while self.entries.len() > self.capacity {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.entries.remove(&oldest);
            self.stats.evictions += 1;
            ca_obs::counter_add("session.exec_cache.eviction", 1);
        }
    }
}

/// Plan-cache traffic counters (see [`Session::cache_stats`]). A
/// lookup is one circuit's seed-free program: a plain compile looks up
/// one, a frame-engine twirl instance two (its base circuit's timeline
/// and its own program).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Program lookups served from the cache.
    pub hits: u64,
    /// Program lookups that built the program fresh.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Lookups whose 64-bit key matched a different circuit: the hit
    /// was rejected by verification and rebuilt (also counted in
    /// `misses`).
    pub verify_mismatches: u64,
    /// Programs currently cached.
    pub len: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default plan-cache capacity: large enough to hold a full
/// multi-strategy sweep's twirl ensemble. Each entry is one circuit's
/// seed-free program — about 1 MB for a 1121-qubit circuit, mostly its
/// per-qubit bank tables, so 128 distinct 1121-qubit circuits can hold
/// ~130 MB. Fresh seeds of one circuit add no entry.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// The plan-cache capacity [`Session::new`] resolves from the
/// `CA_SIM_PLAN_CACHE` environment variable: a number sets the
/// capacity, `0`/`off` disables caching, unset means
/// [`DEFAULT_PLAN_CACHE_CAPACITY`]. A set-but-invalid value is *not*
/// silently absorbed: `ca_obs::var_parsed_with` warns once on stderr
/// and bumps the `obs.env.invalid` counter before the default
/// applies.
pub fn plan_cache_capacity_from_env() -> usize {
    ca_obs::var_parsed_with("CA_SIM_PLAN_CACHE", |v| {
        if v.eq_ignore_ascii_case("off") {
            Some(0)
        } else {
            v.parse().ok()
        }
    })
    .unwrap_or(DEFAULT_PLAN_CACHE_CAPACITY)
}

/// A simulator with a plan cache and a job API — the serving layer:
/// build each distinct circuit's seed-free program once, seed it per
/// submission, and fan independent jobs out across worker threads.
///
/// Results are deterministic: bit-identical across cache hits and
/// misses, eviction histories, and worker counts.
pub struct Session {
    /// Shared by every artifact the session compiles.
    sim: Arc<Simulator>,
    /// Seed-free programs per circuit.
    programs: Mutex<ProgramCache>,
}

impl Session {
    /// A session over a simulator, with the default cache capacity
    /// (or as overridden/disabled by the `CA_SIM_PLAN_CACHE` env
    /// var: a number sets the capacity, `0`/`off` disables caching).
    pub fn new(sim: Simulator) -> Self {
        Self::with_capacity(sim, plan_cache_capacity_from_env())
    }

    /// A session with an explicit cache capacity (0 disables caching).
    pub fn with_capacity(sim: Simulator, capacity: usize) -> Self {
        Self {
            sim: Arc::new(sim),
            programs: Mutex::new(ProgramCache::new(capacity)),
        }
    }

    /// The underlying simulator configuration.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The locked plan cache. Lock scopes cover only cache lookups
    /// and inserts, which run no engine code.
    fn programs(&self) -> std::sync::MutexGuard<'_, ProgramCache> {
        self.programs.lock().expect("program cache") // ca-lint: allow(panic) -- fail-stop on poisoned cache; cached plans are unreliable after a panic
    }

    /// Plan-cache traffic counters and current size: hits, misses,
    /// evictions, and verification rejections of colliding keys.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.programs();
        CacheStats {
            len: cache.entries.len(),
            ..cache.stats
        }
    }

    /// The seed-free program for `sc`, through the plan cache. On a
    /// miss the program takes `timeline` when given (a twirl instance
    /// shares its base circuit's timeline plan) and builds the
    /// timeline plan from `sc` otherwise; its engine program is built
    /// by the first seeded artifact that needs it.
    fn program(
        &self,
        sc: &ScheduledCircuit,
        timeline: Option<Arc<ExecutionPlan>>,
    ) -> Result<Arc<Program>, SimError> {
        let key = sc.structural_hash();
        if let Some(hit) = self.programs().get(key, sc) {
            return Ok(hit);
        }
        let sc = Arc::new(sc.clone());
        let plan = match timeline {
            Some(plan) => plan,
            None => Arc::new(ExecutionPlan::build_arc(
                sc.clone(),
                &self.sim.device,
                &self.sim.config,
            )?),
        };
        let program = Arc::new(Program::new(sc, plan));
        self.programs().insert(key, program.clone());
        Ok(program)
    }

    /// The compiled artifact for `(sc, seed)`: the circuit's cached
    /// program (timeline plan and engine program, verified against the
    /// circuit, so hash collisions can only cost a rebuild) seeded with
    /// `seed`.
    pub fn compiled(&self, sc: &ScheduledCircuit, seed: u64) -> Result<CompiledCircuit, SimError> {
        seeded(&self.sim, self.program(sc, None)?, seed)
    }

    /// The compiled artifact for a dressed twirl instance: the base
    /// circuit's timeline plan is shared across every instance and
    /// seed, and each instance's frame program across its seeds; only
    /// the reference run is per seed. Falls back to an independent
    /// compile when the dressed circuit resolves to the dense engine
    /// (which replays unitaries from its own plan).
    pub fn compiled_dressed(
        &self,
        base: &ScheduledCircuit,
        dressing: &[(usize, Pauli)],
        seed: u64,
    ) -> Result<CompiledCircuit, SimError> {
        let dressed = apply_dressing(base, dressing)?;
        // Resolve through the simulator's own dispatch so this branch
        // can never disagree with the engine `build_backend` picks.
        // Dense resolution: the plan must be built from the dressed
        // circuit itself.
        let frame_capable = self.sim.resolve_engine(&dressed)? != Engine::Statevector;
        let timeline = if frame_capable {
            Some(self.program(base, None)?.plan.clone())
        } else {
            None
        };
        seeded(&self.sim, self.program(&dressed, timeline)?, seed)
    }

    /// Runs one job (compiling through the cache). The job's relative
    /// deadline, if any, is armed now. Panics anywhere in the job —
    /// including plan compilation — surface as
    /// [`SimError::JobPanicked`], exactly as in [`Self::submit`], so
    /// a hostile circuit cannot unwind through the caller's thread.
    pub fn run(&self, job: &Job) -> Result<JobOutput, SimError> {
        let token = job.armed_token();
        self.run_caught(job, None, token.as_ref())
    }

    fn run_with_workers(
        &self,
        job: &Job,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<JobOutput, SimError> {
        let _job_span = ca_obs::span("session", "job")
            .with_arg("shots", job.shots as f64)
            .with_arg("seed", job.seed as f64);
        ca_obs::counter_add("session.jobs", 1);
        // A job cancelled while queued never compiles at all.
        crate::cancel::check_opt(cancel)?;
        let compiled = match &job.dressing {
            Some(dressing) => self.compiled_dressed(&job.circuit, dressing, job.seed)?,
            None => self.compiled(&job.circuit, job.seed)?,
        };
        let ins = compiled.insertions(&job.insertions)?;
        match &job.request {
            JobRequest::Counts => Ok(JobOutput::Counts(
                compiled.run_counts_cancel(job.shots, &ins, workers, cancel)?,
            )),
            JobRequest::Expect(obs) => Ok(JobOutput::Expect(
                compiled.expect_paulis_cancel(obs, job.shots, &ins, workers, cancel)?,
            )),
            JobRequest::Flips(obs) => Ok(JobOutput::Flips(
                compiled.expect_flips_cancel(obs, job.shots, &ins, workers, cancel)?,
            )),
        }
    }

    /// [`Self::run_with_workers`] with the panic boundary: a job that
    /// panics (an engine invariant violation, a malformed calibration
    /// index) fails *itself* with [`SimError::JobPanicked`] instead of
    /// unwinding through the batch fan-out and poisoning every other
    /// job in the submission.
    fn run_caught(
        &self,
        job: &Job,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<JobOutput, SimError> {
        // AssertUnwindSafe: job execution never holds the session's
        // cache lock while running user circuits (lock scopes cover
        // only LRU get/insert, which call no engine code), so a caught
        // panic cannot leave a cache entry half-written.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_with_workers(job, workers, cancel)
        }))
        .unwrap_or_else(|payload| {
            ca_obs::counter_add("session.job_panics", 1);
            Err(SimError::JobPanicked {
                message: panic_message(payload.as_ref()),
            })
        })
    }

    /// Runs a batch of independent jobs, fanned out across worker
    /// threads at job granularity (shot-level chunking stays inside
    /// each job). Results come back in job order and are
    /// bit-identical for every worker count and cache state. A
    /// panicking job fails with [`SimError::JobPanicked`] without
    /// affecting the other jobs; relative deadlines are armed at
    /// submission, so queue wait counts against them.
    pub fn submit(&self, jobs: &[Job]) -> Vec<Result<JobOutput, SimError>> {
        let _batch_span = ca_obs::span("session", "submit").with_arg("jobs", jobs.len() as f64);
        if ca_obs::enabled() {
            ca_obs::gauge_set(
                "session.workers",
                crate::plan::worker_count(None, jobs.len()) as f64,
            );
        }
        let tokens: Vec<Option<CancelToken>> = jobs.iter().map(Job::armed_token).collect();
        // Queue wait = time from submission until a worker picks the
        // job up; the clock is read only when observability is on.
        let submitted = ca_obs::enabled().then(std::time::Instant::now); // ca-lint: allow(wall-clock) -- obs-gated timing attribution; never feeds results
        if jobs.len() <= 1 {
            // A lone job runs inline with the full shot-level fan-out
            // (the batch path below pins inner workers to one thread),
            // through the same span/gauge/histogram instrumentation as
            // every other submission.
            return jobs
                .iter()
                .zip(&tokens)
                .map(|(job, token)| {
                    if let Some(t0) = submitted {
                        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        ca_obs::observe_ns("session", "job.queue_wait", ns);
                    }
                    self.run_caught(job, None, token.as_ref())
                })
                .collect();
        }
        // Jobs occupy the worker threads; pin each job's inner shot
        // fan-out to one thread to avoid oversubscription. (Results
        // are worker-count independent either way.)
        map_batches(jobs.len(), None, |i| {
            if let Some(t0) = submitted {
                let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                ca_obs::observe_ns("session", "job.queue_wait", ns);
            }
            self.run_caught(&jobs[i], Some(1), tokens[i].as_ref())
        })
    }

    /// Submits one twirl ensemble: every instance is a dressing over
    /// `base` (see `ca-core`'s `compile_twirl_ensemble`) and runs as
    /// its own job via the shared-plan fast path. `seeds[i]` seeds
    /// instance `i`'s noise streams.
    pub fn submit_ensemble(
        &self,
        base: &ScheduledCircuit,
        dressings: &[Vec<(usize, Pauli)>],
        observables: &[PauliString],
        shots: usize,
        seeds: &[u64],
    ) -> Vec<Result<Vec<f64>, SimError>> {
        let base = Arc::new(base.clone());
        let jobs: Vec<Job> = dressings
            .iter()
            .zip(seeds.iter())
            .map(|(dressing, &seed)| {
                Job::expect(base.clone(), observables.to_vec(), shots, seed)
                    .with_dressing(dressing.clone())
            })
            .collect();
        self.submit(&jobs)
            .into_iter()
            .map(|r| {
                r.map(|out| match out {
                    JobOutput::Expect(v) => v,
                    _ => unreachable!("expect jobs return expectations"), // ca-lint: allow(panic) -- sessions submit expect jobs only
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use ca_circuit::{schedule_asap, Circuit, GateDurations};
    use ca_device::{uniform_device, Topology};

    fn noisy_sim(n: usize) -> Simulator {
        let mut dev = uniform_device(Topology::line(n), 60.0);
        for q in 0..n {
            dev.calibration.qubits[q].quasistatic_khz = 30.0;
            dev.calibration.qubits[q].t1_us = 80.0;
            dev.calibration.qubits[q].t2_us = 90.0;
            dev.calibration.qubits[q].readout_err = 0.02;
            dev.calibration.qubits[q].gate_err_1q = 0.002;
        }
        Simulator::with_engine(dev, NoiseConfig::default(), Engine::FrameBatch)
    }

    fn workload(n: usize) -> ScheduledCircuit {
        let mut qc = Circuit::new(n, n);
        for q in 0..n {
            qc.h(q);
        }
        for q in (0..n - 1).step_by(2) {
            qc.ecr(q, q + 1);
        }
        qc.delay(700.0, 0);
        qc.x(0);
        qc.delay(700.0, 0);
        for q in 0..n {
            qc.measure(q, q);
        }
        schedule_asap(&qc, GateDurations::default())
    }

    #[test]
    fn compiled_circuit_is_send_sync_and_reusable() {
        let sim = noisy_sim(5);
        let sc = workload(5);
        let compiled = sim.compile(&sc, 7).unwrap();
        let none = InsertionSet::empty();
        let a = compiled.run_counts(300, &none, None).unwrap();
        // Reuse across threads.
        let arc = Arc::new(compiled);
        let b = std::thread::scope(|s| {
            let arc = arc.clone();
            s.spawn(move || arc.run_counts(300, &none, None).unwrap())
                .join()
                .unwrap()
        });
        assert_eq!(a, b, "same artifact, same seed, same counts");
        assert_eq!(a, sim.run_counts(&sc, 300, 7).unwrap(), "matches one-shot");
    }

    #[test]
    fn cache_hits_are_bit_identical_and_lru_evicts() {
        let sim = noisy_sim(4);
        let session = Session::with_capacity(sim, 1);
        let sc_a = workload(4);
        let mut qc = Circuit::new(4, 4);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let sc_b = schedule_asap(&qc, GateDurations::default());

        let cold = session.run(&Job::counts(sc_a.clone(), 257, 5)).unwrap();
        let warm = session.run(&Job::counts(sc_a.clone(), 257, 5)).unwrap();
        assert_eq!(cold, warm, "cache hit must be bit-identical");
        assert_eq!(session.cache_stats().hits, 1);

        // Capacity 1: compiling B evicts A; resubmitting A recompiles
        // and still matches.
        session.run(&Job::counts(sc_b.clone(), 64, 5)).unwrap();
        assert_eq!(session.cache_stats().len, 1);
        let recompiled = session.run(&Job::counts(sc_a.clone(), 257, 5)).unwrap();
        assert_eq!(cold, recompiled, "eviction never changes results");
        let stats = session.cache_stats();
        assert_eq!(stats.hits, 1, "A was evicted, so no further hits");
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn disabled_cache_matches_enabled() {
        let sc = workload(5);
        let cached = Session::with_capacity(noisy_sim(5), 16);
        let uncached = Session::with_capacity(noisy_sim(5), 0);
        let job = Job::counts(sc, 111, 13);
        let a = cached.run(&job).unwrap();
        let b = cached.run(&job).unwrap();
        let c = uncached.run(&job).unwrap();
        let d = uncached.run(&job).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(c, d);
        assert_eq!(uncached.cache_stats().len, 0);
    }

    #[test]
    fn submit_is_deterministic_across_worker_counts() {
        let sim = noisy_sim(5);
        let session = Session::with_capacity(sim, 16);
        let sc = Arc::new(workload(5));
        let obs = vec![PauliString::parse("ZZIII").unwrap()];
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::expect(sc.clone(), obs.clone(), 193, 100 + i as u64))
            .collect();
        let serial: Vec<_> = jobs.iter().map(|j| session.run(j).unwrap()).collect();
        let parallel: Vec<_> = session
            .submit(&jobs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(serial, parallel, "job fan-out must not change results");
    }

    /// 64 fresh seeds of one circuit share one seed-free program
    /// through the plan cache, none builds a reference tableau
    /// until an expectation asks for one, and every result equals the
    /// uncached session's.
    #[test]
    fn fresh_seeds_share_one_program_and_defer_the_tableau() {
        let sc = workload(6);
        let cached = Session::with_capacity(noisy_sim(6), 128);
        let uncached = Session::with_capacity(noisy_sim(6), 0);
        let none = InsertionSet::empty();
        let obs = vec![
            PauliString::parse("ZZIIII").unwrap(),
            PauliString::parse("IXYIIZ").unwrap(),
        ];
        let artifacts: Vec<CompiledCircuit> = (0..64)
            .map(|i| cached.compiled(&sc, 1000 + i).unwrap())
            .collect();
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (63, 1, 1));
        for (i, a) in artifacts.iter().enumerate() {
            assert!(Arc::ptr_eq(a.program(), artifacts[0].program()), "seed {i}");
            let counts = a.run_counts(257, &none, None).unwrap();
            assert!(!a.has_reference_tableau(), "counts need no tableau");
            let cold = uncached
                .run(&Job::counts(sc.clone(), 257, a.seed()))
                .unwrap();
            assert_eq!(JobOutput::Counts(counts), cold, "seed {}", a.seed());
        }
        for a in artifacts.iter().step_by(9) {
            let e = a.expect_paulis(&obs, 193, &none, None).unwrap();
            assert!(a.has_reference_tableau());
            let cold = uncached
                .run(&Job::expect(sc.clone(), obs.clone(), 193, a.seed()))
                .unwrap();
            assert_eq!(JobOutput::Expect(e), cold, "seed {}", a.seed());
            // The tableau's run also left the counts' reference intact.
            let counts = a.run_counts(100, &none, None).unwrap();
            let cold = uncached
                .run(&Job::counts(sc.clone(), 100, a.seed()))
                .unwrap();
            assert_eq!(JobOutput::Counts(counts), cold);
        }
    }

    #[test]
    fn dense_artifacts_compile_and_reject_frame_only_ops() {
        let dev = uniform_device(Topology::line(2), 0.0);
        let sim = Simulator::with_config(dev, NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 2);
        qc.h(0).append(Gate::Rx(0.3), [1]);
        qc.measure(0, 0).measure(1, 1);
        let sc = schedule_asap(&qc, GateDurations::default());
        let compiled = sim.compile(&sc, 3).unwrap();
        assert_eq!(compiled.engine_name(), "statevector");
        let counts = compiled
            .run_counts(100, &InsertionSet::empty(), None)
            .unwrap();
        assert_eq!(counts, sim.run_counts(&sc, 100, 3).unwrap());
        let err = compiled
            .expect_flips(
                &[PauliString::parse("ZI").unwrap()],
                10,
                &InsertionSet::empty(),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedOnEngine { .. }));
    }

    #[test]
    fn compiled_dressed_rejects_non_slot_targets() {
        let session = Session::with_capacity(noisy_sim(4), 8);
        let sc = workload(4);
        // No merged slots in this hand-built circuit: every item is a
        // physical gate or structural op.
        let err = session
            .compiled_dressed(&sc, &[(0, Pauli::X)], 7)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidDressing {
                reason: "target item is not a merged single-qubit Pauli slot",
                ..
            }
        ));
        let err = session
            .compiled_dressed(&sc, &[(usize::MAX, Pauli::X)], 7)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidDressing {
                reason: "target item index out of range",
                ..
            }
        ));
    }

    #[test]
    fn nan_delay_is_a_structured_error() {
        let sim = noisy_sim(2);
        let mut qc = Circuit::new(2, 1);
        qc.h(0).delay(f64::NAN, 0).measure(0, 0);
        let sc = schedule_asap(&qc, GateDurations::default());
        let err = sim.compile(&sc, 1).unwrap_err();
        assert!(matches!(err, SimError::NonFiniteTime { .. }), "{err:?}");
        // The one-shot entry points surface the same error.
        let err2 = sim.run_counts(&sc, 10, 1).unwrap_err();
        assert_eq!(err, err2);
    }
}

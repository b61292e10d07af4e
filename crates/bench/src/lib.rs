#![forbid(unsafe_code)]
//! # ca-bench
//!
//! Benchmark harness: one `cargo bench` target per paper table/figure
//! (each prints the regenerated rows next to the paper's claims), a
//! compiler-performance bench (timing the passes' O(d²n)/O(dn)
//! scaling), and ablation benches for the design choices DESIGN.md §6
//! calls out.
//!
//! The [`obs`] module binds the benches to `ca-obs`: each perf bench
//! raises the level to `summary` so its `BENCH_*.json` document can
//! carry a per-phase wall-time breakdown (noise sampling vs frame
//! propagation vs reduction vs plan compilation) and the run metadata
//! (git revision, core count, worker count, plan-cache capacity,
//! observability level) needed to compare timings across machines and
//! PRs.

#![warn(missing_docs)]

use serde::{Serialize, Value};

/// Prints a standard header for a figure bench.
pub fn header(id: &str, claim: &str) {
    println!();
    println!("################################################################");
    println!("# {id}");
    println!("# paper claim: {claim}");
    println!("################################################################");
}

/// Adapter: serialises an already-built [`Value`] tree (the benches
/// assemble their JSON documents by hand).
pub struct Raw(pub Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Bench-side observability helpers: level setup, run metadata, and
/// phase breakdowns for the `BENCH_*.json` documents.
pub mod obs {
    use serde::{Serialize, Value};

    pub use ca_obs::{snapshot, Snapshot};

    /// Initialises observability for a bench run: honours `CA_OBS`
    /// when the user set it, otherwise raises the level to `summary`
    /// so phase breakdowns are populated.
    pub fn init() {
        ca_obs::enable_summary_if_off();
    }

    /// Run metadata attached to every perf-bench JSON document, so
    /// recorded timings can be compared across machines and PRs:
    /// the checkout's git revision, the host's available cores, the
    /// resolved session worker count, the plan-cache capacity, and
    /// the observability level and the seed schedule the run executed
    /// under.
    pub fn run_metadata() -> Value {
        let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
        Value::Obj(vec![
            (
                "git_rev".into(),
                git_rev().unwrap_or_else(|| "unknown".into()).to_value(),
            ),
            ("available_parallelism".into(), cores.to_value()),
            (
                "workers".into(),
                ca_sim::plan::worker_count(None, usize::MAX).to_value(),
            ),
            (
                "plan_cache_capacity".into(),
                ca_sim::session::plan_cache_capacity_from_env().to_value(),
            ),
            ("obs_level".into(), ca_obs::level().name().to_value()),
            (
                "seed_schedule".into(),
                ca_sim::plan::seed_schedule_from_env().name().to_value(),
            ),
        ])
    }

    /// The revision checked out at the workspace root, read from
    /// `.git` directly; `None` outside a git clone.
    fn git_rev() -> Option<String> {
        let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.git");
        let head = std::fs::read_to_string(format!("{git}/HEAD")).ok()?;
        let Some(name) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        if let Ok(rev) = std::fs::read_to_string(format!("{git}/{name}")) {
            return Some(rev.trim().to_string());
        }
        let packed = std::fs::read_to_string(format!("{git}/packed-refs")).ok()?;
        packed.lines().find_map(|line| {
            let (rev, refname) = line.split_once(' ')?;
            (refname == name).then(|| rev.to_string())
        })
    }

    /// Seconds attributed to each instrumented phase since `base`:
    /// the engines' noise-sampling / frame-propagation / reduction
    /// split, the pass-pipeline compile time, and the simulator-side
    /// plan compilation (timeline plan + frame program + batch
    /// program — the leaf spans, so nothing is double-counted).
    pub fn phase_breakdown(base: &Snapshot) -> Value {
        let d = ca_obs::snapshot().since(base);
        let plan_s = d.total_seconds("sim.compile/timeline-plan")
            + d.total_seconds("sim.compile/frame-plan")
            + d.total_seconds("sim.compile/batch-program");
        Value::Obj(vec![
            (
                "sampling_seconds".into(),
                d.total_seconds("engine/sampling").to_value(),
            ),
            (
                "propagation_seconds".into(),
                d.total_seconds("engine/propagation").to_value(),
            ),
            (
                "reduction_seconds".into(),
                d.total_seconds("engine/reduction").to_value(),
            ),
            (
                "pipeline_compile_seconds".into(),
                d.total_seconds("compile/pipeline").to_value(),
            ),
            ("plan_compile_seconds".into(), plan_s.to_value()),
            // Learner-side phases outside the engines: per-point
            // circuit construction / observable propagation, decay
            // fits, and the Walsh–Hadamard channel transforms.
            (
                "circuit_construction_seconds".into(),
                d.total_seconds("learn/build-point").to_value(),
            ),
            (
                "fit_seconds".into(),
                d.total_seconds("learn/fit-partition").to_value(),
            ),
            (
                "wht_seconds".into(),
                d.total_seconds("channel/wht").to_value(),
            ),
        ])
    }

    /// Flushes observability per the active level ([`ca_obs::finish`])
    /// and, when a Chrome trace file was written (`CA_OBS=trace:…`),
    /// re-reads it and asserts it is well-formed JSON whose complete
    /// spans cover at least `min_categories` distinct instrumented
    /// layers — the check CI's trace smoke job relies on.
    pub fn finish(min_categories: usize) {
        let Some(path) = ca_obs::finish() else {
            return;
        };
        let text = std::fs::read_to_string(&path).expect("read trace file back"); // ca-lint: allow(panic) -- bench smoke assertion must fail loudly in CI
        let doc = serde_json::parse_value(&text).expect("trace file must be valid JSON"); // ca-lint: allow(panic) -- bench smoke assertion must fail loudly in CI
        let events = match lookup(&doc, "traceEvents") {
            Some(Value::Arr(events)) => events,
            _ => panic!("trace file must carry a traceEvents array"), // ca-lint: allow(panic) -- bench smoke assertion must fail loudly in CI
        };
        let mut categories = std::collections::BTreeSet::new();
        for event in events {
            if let (Some(Value::Str(ph)), Some(Value::Str(cat))) =
                (lookup(event, "ph"), lookup(event, "cat"))
            {
                if ph == "X" {
                    categories.insert(cat.clone());
                }
            }
        }
        assert!(
            categories.len() >= min_categories,
            "trace {} must contain spans from >= {min_categories} \
             instrumented layers, got {categories:?}",
            path.display()
        );
        println!(
            "  trace: {} ({} events, {} span categories)",
            path.display(),
            events.len(),
            categories.len()
        );
    }

    fn lookup<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
        match value {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

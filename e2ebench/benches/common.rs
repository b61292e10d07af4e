//! Shared plumbing: arguments, seeds, statistics, the metric tables,
//! provenance, and the per-layer numbers read back from `ca-obs`.

use std::collections::BTreeMap;
use std::time::Instant;

use ca_obs::Snapshot;

/// End-to-end metrics, printed by every untraced run on every
/// workload: `(name, unit)`. What "one operation" is depends on the
/// workload (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cold_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// A layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.overhead_ms_mean", "ms"),
    ("server.request_ms_p50", "ms"),
    ("server.queue_depth_max", "count"),
    ("server.rejected", "count"),
    ("circuit.parse_job_us", "us"),
    ("circuit.schedule_us", "us"),
    ("session.compile_us", "us"),
    ("session.l1_hit_rate", "frac"),
    ("session.l2_hit_rate", "frac"),
    ("session.evictions", "count"),
    ("session.verify_mismatches", "count"),
    ("engine.mix.statevector", "frac"),
    ("engine.mix.stabilizer", "frac"),
    ("engine.mix.frame-batch", "frac"),
    ("execute.ghz_ms", "ms"),
    ("execute.dense_ms", "ms"),
    ("engine.sampling_s", "s"),
    ("engine.propagation_s", "s"),
    ("engine.reduction_s", "s"),
    ("engine.shots", "count"),
    ("core.pipeline_s", "s"),
    ("session.plan_compile_s", "s"),
    ("learn.bare_s", "s"),
    ("learn.dd_s", "s"),
    ("learn.ca_dd_s", "s"),
    ("learn.ca_ec_s", "s"),
    ("learn.ca_ec_dd_s", "s"),
    ("learn.points", "count"),
    ("learn.fit_s", "s"),
    ("learn.wht_s", "s"),
    ("lf.bare_cold_s", "s"),
    ("lf.dd_cold_s", "s"),
    ("lf.ca_dd_cold_s", "s"),
    ("shard.job_s_w1", "s"),
    ("shard.job_s_w2", "s"),
    ("shard.parallel_eff", "frac"),
    ("obs.overhead_frac", "frac"),
    ("attributed_fraction", "frac"),
];

/// Command-line arguments: `--workload`, `--seed`, `--seconds`, `--trace`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// SplitMix64 finaliser: derives independent input seeds from the
/// workload seed (`mix(seed, stream, index)`).
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from [`mix`].
pub fn unit(seed: u64, stream: u64, index: u64) -> f64 {
    (mix(seed, stream, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile of a sample (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` `times` times and returns the median wall seconds, with
/// the last call's value.
pub fn median_of<T>(times: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        walls.push(secs(t));
        last = Some(out);
    }
    (median(&walls), last.expect("at least one call"))
}

/// Whether a measurement loop should start another operation: always
/// the first, then only while the next one is expected to finish
/// inside the budget.
pub fn another(start: Instant, seconds: f64, op_walls: &[f64]) -> bool {
    if op_walls.is_empty() {
        return true;
    }
    let mean = op_walls.iter().sum::<f64>() / op_walls.len() as f64;
    secs(start) + mean <= seconds
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations and stand-alone checks attempted.
    pub attempted: u64,
    /// Of those, how many failed a correctness check.
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form lines printed above the result (check details).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked item; a failed check keeps its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Fills the end-to-end metrics every workload shares.
    pub fn finish_end_to_end(&mut self, setup_s: f64, cold_s: f64, op_walls: &[f64], wall_s: f64) {
        let ms: Vec<f64> = op_walls.iter().map(|s| s * 1e3).collect();
        let e = &mut self.end_to_end;
        e.insert("setup_s", setup_s);
        e.insert("op_p50_ms", median(&ms));
        e.insert("op_p95_ms", percentile(&ms, 95.0));
        e.insert("ops_per_s", op_walls.len() as f64 / wall_s.max(1e-9));
        e.insert("cold_ms", cold_s * 1e3);
        let mut sorted = ms.clone();
        sorted.sort_by(f64::total_cmp);
        self.notes.push(format!(
            "{} ops, wall ms min {:.2} p50 {:.2} max {:.2}",
            ms.len(),
            sorted.first().copied().unwrap_or(0.0),
            median(&ms),
            sorted.last().copied().unwrap_or(0.0),
        ));
    }
}

/// Where a traced run switches `ca-obs` on: the delta snapshot covers
/// exactly the traced segment.
pub struct TraceWindow {
    base: Snapshot,
}

impl TraceWindow {
    pub fn open() -> TraceWindow {
        ca_obs::set_level(ca_obs::Level::Summary);
        TraceWindow {
            base: ca_obs::snapshot(),
        }
    }

    pub fn close(self) -> Snapshot {
        let delta = ca_obs::snapshot().since(&self.base);
        ca_obs::set_level(ca_obs::Level::Off);
        delta
    }
}

/// Wall seconds of the disjoint leaf phases the program's spans
/// attribute: engine sampling/propagation/reduction, plan compile,
/// the pass pipeline, and the learner's build/fit/WHT steps.
pub fn attributed_seconds(d: &Snapshot) -> f64 {
    [
        "engine/sampling",
        "engine/propagation",
        "engine/reduction",
        "sim.compile/timeline-plan",
        "sim.compile/frame-plan",
        "sim.compile/batch-program",
        "compile/pipeline",
        "learn/build-point",
        "learn/fit-partition",
        "channel/wht",
    ]
    .iter()
    .map(|k| d.total_seconds(k))
    .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The engine, pipeline and session-cache layers read from a traced
/// segment's counters and spans, per operation where it is a cost.
pub fn sim_layers(d: &Snapshot, ops: usize, out: &mut Outcome) {
    let per = 1.0 / ops.max(1) as f64;
    let l = &mut out.layers;
    l.insert(
        "engine.sampling_s",
        d.total_seconds("engine/sampling") * per,
    );
    l.insert(
        "engine.propagation_s",
        d.total_seconds("engine/propagation") * per,
    );
    l.insert(
        "engine.reduction_s",
        d.total_seconds("engine/reduction") * per,
    );
    l.insert("engine.shots", d.counter("engine.shots") as f64 * per);
    l.insert("core.pipeline_s", d.total_seconds("compile/pipeline") * per);
    l.insert(
        "session.plan_compile_s",
        (d.total_seconds("sim.compile/timeline-plan")
            + d.total_seconds("sim.compile/frame-plan")
            + d.total_seconds("sim.compile/batch-program"))
            * per,
    );
    // Means, not percentiles: ca-obs keeps exact sums and counts but
    // log2-bucketed percentiles.
    l.insert(
        "session.compile_us",
        d.histogram("sim.compile/artifact")
            .map_or(0.0, |h| h.mean() / 1e3),
    );
    let (h1, m1) = (
        d.counter("session.cache.hit"),
        d.counter("session.cache.miss"),
    );
    let (h2, m2) = (
        d.counter("session.exec_cache.hit"),
        d.counter("session.exec_cache.miss"),
    );
    l.insert("session.l1_hit_rate", ratio(h1, h1 + m1));
    l.insert("session.l2_hit_rate", ratio(h2, h2 + m2));
    l.insert(
        "session.evictions",
        (d.counter("session.cache.eviction") + d.counter("session.exec_cache.eviction")) as f64,
    );
    l.insert(
        "session.verify_mismatches",
        (d.counter("session.cache.verify_mismatch")
            + d.counter("session.exec_cache.verify_mismatch")) as f64,
    );
}

/// Records the traced segment's attribution and its cost over the
/// untraced one; flags attribution below the 90% the ROADMAP asks.
pub fn trace_summary(
    out: &mut Outcome,
    attributed_s: f64,
    traced_wall_s: f64,
    untraced_op: f64,
    traced_op: f64,
) {
    let fraction = attributed_s / traced_wall_s.max(1e-12);
    out.layers.insert("attributed_fraction", fraction);
    out.layers.insert(
        "obs.overhead_frac",
        traced_op / untraced_op.max(1e-12) - 1.0,
    );
    if fraction < 0.9 {
        out.notes.push(format!(
            "FLAG: phases explain only {:.1}% of the traced wall time (< 90%)",
            fraction * 100.0
        ));
    }
}

/// Shares of jobs by resolved engine name.
pub fn engine_mix(out: &mut Outcome, engines: &[&str]) {
    for (metric, name) in [
        ("engine.mix.statevector", "statevector"),
        ("engine.mix.stabilizer", "stabilizer"),
        ("engine.mix.frame-batch", "frame-batch"),
    ] {
        let n = engines.iter().filter(|e| **e == name).count();
        out.layers
            .insert(metric, ratio(n as u64, engines.len() as u64));
    }
}

/// The checkout's revision, read from `.git` in the working
/// directory (the benchmark runs from the repository root); `None`
/// outside a git clone.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, refname) = line.split_once(' ')?;
        (refname == name).then(|| rev.to_string())
    })
}

/// The run's provenance, one JSON object.
pub fn provenance(args: &Args) -> String {
    let git = git_rev().unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    let schedule = format!("{:?}", ca_sim::plan::seed_schedule_from_env());
    format!(
        "{{\"git_rev\":\"{git}\",\"available_parallelism\":{cores},\"workers\":{},\
         \"seed_schedule\":\"{schedule}\",\"ca_obs\":\"{}\",\"workload\":\"{}\",\
         \"workload_seed\":{},\"seconds\":{},\"trace\":{},\"profile\":\"{}\"}}",
        ca_sim::plan::worker_count(None, usize::MAX),
        // Untraced serve runs keep the level `Server::bind` forced.
        if args.trace {
            "off, then summary"
        } else {
            ca_obs::level().name()
        },
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

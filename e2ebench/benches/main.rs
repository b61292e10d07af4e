//! End-to-end and per-layer benchmark of the served job, the PEC
//! learn, the 127-qubit layer-fidelity sweep and 1121-qubit sampling.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve_mix8|pec_learn_10q|lf_sweep_127q|wide_1121q> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures with instrumentation off (the serve workload
//! runs at the `summary` level `Server::bind` forces) and prints the
//! end-to-end metrics. `--trace 1` pins engine workers to one, times
//! an untraced and a traced half, and prints the per-layer metrics.
//! Both check every output. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod common;
mod lf;
mod pec;
mod serve;
mod wide;

use common::{Args, Outcome, END_TO_END, PER_LAYER};

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            std::process::exit(2);
        }
    };
    if args.trace {
        // Phase sums must not over-count busy time across threads:
        // the traced run keeps every engine on one worker.
        std::env::set_var("CA_SIM_WORKERS", "1");
    }
    ca_obs::set_level(ca_obs::Level::Off);

    let mut out = match args.workload.as_str() {
        "serve_mix8" => serve::run(&args),
        "pec_learn_10q" => pec::run(&args),
        "lf_sweep_127q" => lf::run(&args),
        "wide_1121q" => wide::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let attempted = out.attempted;
    let ok_frac = 1.0 - out.failed as f64 / attempted.max(1) as f64;
    out.end_to_end.insert("ok_frac", ok_frac);
    out.end_to_end.insert("peak_rss_mb", common::peak_rss_mb());
    println!("provenance {}", common::provenance(&args));
    report(&args, &out);
}

fn report(args: &Args, out: &Outcome) {
    for note in &out.notes {
        println!("  {note}");
    }
    let table =
        |title: &str, list: &[(&str, &str)], values: &std::collections::BTreeMap<&str, f64>| {
            println!("-- {title} --");
            for (name, unit) in list {
                if let Some(v) = values.get(name) {
                    println!("  {name:<28} {v:>16.6} {unit}");
                }
            }
        };
    table("end to end", END_TO_END, &out.end_to_end);
    if args.trace {
        table("per layer", PER_LAYER, &out.layers);
    }
    let (list, values) = if args.trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.end_to_end)
    };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

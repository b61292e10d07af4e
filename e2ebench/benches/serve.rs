//! `serve_mix8`: an in-process `ca-server` on loopback (8-qubit line
//! device, default `ServerConfig`) driven by a closed loop of two
//! clients, one tenant each, each waiting for its reply. Of every four
//! requests a client sends, three are the 8-qubit GHZ counts job and
//! one is an 8-qubit job with non-diagonal `rx`/`ry` rotations that
//! only the dense engine runs. Every request is QASM 3 at 1024 shots
//! with a fresh seed.
//!
//! One operation is one request, timed at the client. Checks: every
//! reply is a 200 whose counts sum to the shots asked for; GHZ replies
//! put their mass on 0…0/1…1 inside a band around the frame-batch
//! engine's estimate under the same noise model; and the first replies
//! of each kind equal an in-process `Session` replay of the same
//! (circuit, seed, shots).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ca_circuit::{schedule_asap, Circuit, GateDurations};
use ca_device::{uniform_device, Device, Topology};
use ca_server::{parse_job, Server, ServerConfig, ServerHandle};
use ca_sim::{Engine, NoiseConfig, Session, Simulator};

use crate::common::{self, median, mix, secs, unit, Args, Outcome, TraceWindow};

const QUBITS: usize = 8;
const SHOTS: usize = 1024;
const CLIENTS: usize = 2;
const SETUPS: usize = 5;
const REPLAYS_PER_KIND: usize = 4;
const REFERENCE_SHOTS: usize = 1 << 16;
/// Allowed gap between the dense engine's GHZ mass and the frame
/// engine's twirled estimate, on top of six binomial σ.
const TWIRL_ALLOWANCE: f64 = 0.03;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Ghz,
    Dense,
}

fn ghz() -> Circuit {
    let mut qc = Circuit::new(QUBITS, QUBITS);
    qc.h(0);
    for q in 0..QUBITS - 1 {
        qc.cx(q, q + 1);
    }
    for q in 0..QUBITS {
        qc.measure(q, q);
    }
    qc
}

/// Rotations whose angles come from the workload seed: non-diagonal,
/// so no frame engine can run the circuit.
fn dense(seed: u64) -> Circuit {
    let mut qc = Circuit::new(QUBITS, QUBITS);
    for q in 0..QUBITS {
        qc.ry(0.3 + 0.9 * unit(seed, 10, q as u64), q);
    }
    for q in 0..QUBITS - 1 {
        qc.cx(q, q + 1);
    }
    for q in 0..QUBITS {
        qc.rx(0.2 + 0.7 * unit(seed, 11, q as u64), q);
        qc.measure(q, q);
    }
    qc
}

fn device() -> Device {
    uniform_device(Topology::line(QUBITS), 60.0)
}

/// The generated inputs: each kind's QASM, already JSON-encoded.
struct Inputs {
    ghz: String,
    dense: String,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let encode = |qc: &Circuit| {
            serde_json::to_string(&ca_circuit::to_qasm3(qc)).expect("a string encodes")
        };
        Inputs {
            ghz: encode(&ghz()),
            dense: encode(&dense(seed)),
        }
    }

    fn body(&self, tenant: &str, kind: Kind, seed: u64) -> String {
        let qasm = match kind {
            Kind::Ghz => &self.ghz,
            Kind::Dense => &self.dense,
        };
        format!("{{\"tenant\":\"{tenant}\",\"shots\":{SHOTS},\"seed\":{seed},\"qasm\":{qasm}}}")
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes
/// after each reply): the status and the body. This workload's count
/// maps fit one piece, so replies are never chunked.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or("reply has no header end")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, payload.to_string()))
}

/// `{"shots": n, "counts": {"0101…": k, …}}` → (n, outcome → count).
fn parse_counts(body: &str) -> Option<(usize, BTreeMap<u64, usize>)> {
    let v = serde_json::parse_value(body).ok()?;
    let shots = v.get("shots").as_f64()? as usize;
    let mut counts = BTreeMap::new();
    for (key, n) in v.get("counts").as_obj()? {
        counts.insert(u64::from_str_radix(key, 2).ok()?, n.as_f64()? as usize);
    }
    Some((shots, counts))
}

struct Reply {
    kind: Kind,
    seed: u64,
    body: String,
    latency_s: f64,
    result: Result<(u16, String), String>,
}

fn submit(addr: SocketAddr, inputs: &Inputs, tenant: &str, kind: Kind, seed: u64) -> Reply {
    let body = inputs.body(tenant, kind, seed);
    let t = Instant::now();
    let result = http(addr, "POST", "/v1/jobs", &body);
    Reply {
        kind,
        seed,
        body,
        latency_s: secs(t),
        result,
    }
}

/// The reply's counts, if it is a well-formed 200 for `SHOTS` shots.
fn served_counts(reply: &Reply) -> Result<BTreeMap<u64, usize>, String> {
    let (status, body) = reply.result.as_ref().map_err(Clone::clone)?;
    if *status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let (shots, counts) = parse_counts(body).ok_or("unparsable counts")?;
    let total: usize = counts.values().sum();
    if shots != SHOTS || total != SHOTS {
        return Err(format!(
            "counts sum to {total} (shots {shots}), asked {SHOTS}"
        ));
    }
    Ok(counts)
}

/// GHZ mass band: the frame-batch engine's estimate of P(0…0 or 1…1)
/// under the same noise model, ± six binomial σ at `SHOTS` shots plus
/// the twirl allowance.
struct Band {
    center: f64,
    half_width: f64,
}

impl Band {
    fn new(device: &Device, seed: u64) -> Band {
        let sc = schedule_asap(&ghz(), GateDurations::default());
        let sim =
            Simulator::with_engine(device.clone(), NoiseConfig::default(), Engine::FrameBatch);
        let p = sim
            .compile(&sc, seed)
            .and_then(|c| c.run_counts(REFERENCE_SHOTS, &c.insertions(&[])?, None))
            .map_or(0.0, |r| ghz_mass(&r.counts, REFERENCE_SHOTS));
        Band {
            center: p,
            half_width: 6.0 * (p * (1.0 - p) / SHOTS as f64).sqrt() + TWIRL_ALLOWANCE,
        }
    }

    fn contains(&self, p: f64) -> bool {
        (p - self.center).abs() <= self.half_width
    }
}

fn ghz_mass(counts: &BTreeMap<u64, usize>, shots: usize) -> f64 {
    let ones = (1u64 << QUBITS) - 1;
    (counts.get(&0).copied().unwrap_or(0) + counts.get(&ones).copied().unwrap_or(0)) as f64
        / shots as f64
}

fn check(reply: &Reply, band: &Band, out: &mut Outcome) {
    match served_counts(reply) {
        Err(e) => out.check(false, || {
            format!("{:?} seed {}: {e}", reply.kind, reply.seed)
        }),
        Ok(counts) if reply.kind == Kind::Ghz => {
            let p = ghz_mass(&counts, SHOTS);
            out.check(band.contains(p), || {
                format!(
                    "GHZ seed {}: mass {p:.4} outside {:.4} ± {:.4}",
                    reply.seed, band.center, band.half_width
                )
            });
        }
        Ok(_) => out.check(true, String::new),
    }
}

/// The closed loop: `CLIENTS` clients, each sending its next request
/// when the last reply arrives, until `seconds` pass.
fn load(
    addr: SocketAddr,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    stream: u64,
) -> (Vec<Reply>, f64) {
    let start = Instant::now();
    let replies = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let tenant = format!("t{client}");
                    let mut replies = Vec::new();
                    while secs(start) < seconds {
                        let j = replies.len() as u64;
                        let kind = if j % 4 == 3 { Kind::Dense } else { Kind::Ghz };
                        let s = mix(seed, stream * 16 + client as u64, j);
                        replies.push(submit(addr, inputs, &tenant, kind, s));
                    }
                    replies
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    (replies, secs(start))
}

/// A fresh server, ready and primed: one request of each kind per
/// tenant. Returns the handle and the first (cold) request's wall.
fn set_up(inputs: &Inputs, seed: u64, band: &Band, out: &mut Outcome) -> (ServerHandle, f64) {
    let handle = Server::bind(
        "127.0.0.1:0",
        device(),
        NoiseConfig::default(),
        ServerConfig::default(),
    )
    .expect("bind a loopback port");
    let ready = http(handle.addr(), "GET", "/healthz", "");
    out.check(matches!(ready, Ok((200, _))), || {
        format!("healthz: {ready:?}")
    });
    let mut cold = 0.0;
    for client in 0..CLIENTS {
        for (i, kind) in [Kind::Ghz, Kind::Dense].into_iter().enumerate() {
            let reply = submit(
                handle.addr(),
                inputs,
                &format!("t{client}"),
                kind,
                mix(seed, 9, i as u64),
            );
            if client == 0 && i == 0 {
                cold = reply.latency_s;
            }
            check(&reply, band, out);
        }
    }
    (handle, cold)
}

/// Replays the first replies of each kind through an in-process
/// `Session` built the way the server builds a tenant's, and checks
/// the counts match. Returns (kind, engine, execute s) per replay.
fn replay(replies: &[Reply], out: &mut Outcome) -> Vec<(Kind, &'static str, f64)> {
    let session = Session::with_capacity(
        Simulator::with_engine(device(), NoiseConfig::default(), Engine::Auto),
        ServerConfig::default().cache_capacity,
    );
    let mut timings = Vec::new();
    for kind in [Kind::Ghz, Kind::Dense] {
        for reply in replies
            .iter()
            .filter(|r| r.kind == kind)
            .take(REPLAYS_PER_KIND)
        {
            let Ok(served) = served_counts(reply) else {
                continue; // already counted as failed
            };
            let local = parse_job(reply.body.as_bytes())
                .map_err(|e| e.message)
                .and_then(|job| {
                    let sc = schedule_asap(&job.circuit, GateDurations::default());
                    let compiled = session.compiled(&sc, job.seed).map_err(|e| e.to_string())?;
                    let ins = compiled.insertions(&[]).map_err(|e| e.to_string())?;
                    let t = Instant::now();
                    let r = compiled
                        .run_counts(job.shots, &ins, None)
                        .map_err(|e| e.to_string())?;
                    timings.push((kind, compiled.engine_name(), secs(t)));
                    Ok(r.counts)
                });
            out.check(local.as_ref() == Ok(&served), || {
                format!(
                    "{kind:?} seed {}: served counts differ from the Session replay",
                    reply.seed
                )
            });
        }
    }
    timings
}

fn stats(addr: SocketAddr) -> Option<serde::Value> {
    let (status, body) = http(addr, "GET", "/stats", "").ok()?;
    (status == 200).then(|| serde_json::parse_value(&body).ok())?
}

fn rejected(stats: &Option<serde::Value>) -> f64 {
    stats.as_ref().map_or(0.0, |s| {
        let c = s.get("counters");
        c.get("server.rejected_queue_full").as_f64().unwrap_or(0.0)
            + c.get("server.rejected_quota").as_f64().unwrap_or(0.0)
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::new(args.seed);
    let band = Band::new(&device(), mix(args.seed, 8, 0));

    let mut setup = Vec::new();
    let mut cold = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let (handle, c) = set_up(&inputs, mix(args.seed, 7, k as u64), &band, &mut out);
        setup.push(secs(t));
        cold.push(c);
        if let Some(old) = server.replace(handle) {
            old.shutdown();
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();

    let (replies, wall) = if args.trace {
        let half = args.seconds / 2.0;
        ca_obs::set_level(ca_obs::Level::Off);
        let (untraced, _) = load(addr, &inputs, half, args.seed, 1);
        for r in &untraced {
            check(r, &band, &mut out);
        }
        let window = TraceWindow::open();
        let before = stats(addr);
        let polling = AtomicBool::new(true);
        let (traced, depth_max) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut max = 0.0f64;
                while polling.load(Ordering::Acquire) {
                    if let Some(s) = stats(addr) {
                        max = max.max(s.get("queue_depth").as_f64().unwrap_or(0.0));
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
                max
            });
            let traced = load(addr, &inputs, half, args.seed, 2);
            polling.store(false, Ordering::Release);
            (traced, poller.join().expect("stats poller"))
        });
        let after = stats(addr);
        let d = window.close();
        serve_layers(&mut out, &d, &untraced, &traced.0);
        out.layers.insert("server.queue_depth_max", depth_max);
        out.layers
            .insert("server.rejected", rejected(&after) - rejected(&before));
        traced
    } else {
        load(addr, &inputs, args.seconds, args.seed, 1)
    };
    for r in &replies {
        check(r, &band, &mut out);
    }
    let masses: Vec<f64> = replies
        .iter()
        .filter(|r| r.kind == Kind::Ghz)
        .filter_map(|r| served_counts(r).ok())
        .map(|c| ghz_mass(&c, SHOTS))
        .collect();
    out.notes.push(format!(
        "GHZ mass: median {:.4} (min {:.4}, max {:.4}) in band {:.4} ± {:.4}",
        median(&masses),
        masses.iter().copied().fold(f64::INFINITY, f64::min),
        masses.iter().copied().fold(0.0, f64::max),
        band.center,
        band.half_width
    ));
    server.shutdown();

    let timings = replay(&replies, &mut out);
    let exec = |kind: Kind| {
        let xs: Vec<f64> = timings
            .iter()
            .filter(|t| t.0 == kind)
            .map(|t| t.2 * 1e3)
            .collect();
        median(&xs)
    };
    out.layers.insert("execute.ghz_ms", exec(Kind::Ghz));
    out.layers.insert("execute.dense_ms", exec(Kind::Dense));
    let engine_of = |kind: Kind| {
        timings
            .iter()
            .find(|t| t.0 == kind)
            .map_or("unknown", |t| t.1)
    };
    let engines: Vec<&str> = replies.iter().map(|r| engine_of(r.kind)).collect();
    common::engine_mix(&mut out, &engines);

    let walls: Vec<f64> = replies.iter().map(|r| r.latency_s).collect();
    out.finish_end_to_end(median(&setup), median(&cold), &walls, wall);
    out
}

/// Per-layer numbers of the traced half: the server's own request
/// span against client latency, the parse/schedule cost of the
/// workload's bodies, and the session/engine layers.
fn serve_layers(out: &mut Outcome, d: &ca_obs::Snapshot, untraced: &[Reply], traced: &[Reply]) {
    let client_ms =
        |rs: &[Reply]| median(&rs.iter().map(|r| r.latency_s * 1e3).collect::<Vec<_>>());
    // The p50 is log2-bucketed, as /stats shows it. The overhead is
    // exact: client time less the request spans' total, per request
    // (the 250 ms /stats polls add their own short spans to it).
    out.layers.insert(
        "server.request_ms_p50",
        d.histogram("server/request")
            .map_or(0.0, |h| h.p50() as f64 / 1e6),
    );
    let client_s: f64 = traced.iter().map(|r| r.latency_s).sum();
    let n = traced.len().max(1) as f64;
    out.layers.insert(
        "server.overhead_ms_mean",
        (client_s - d.total_seconds("server/request")) * 1e3 / n,
    );

    let mut parse_us = Vec::new();
    let mut schedule_us = Vec::new();
    for r in traced {
        let t = Instant::now();
        let job = parse_job(r.body.as_bytes());
        parse_us.push(secs(t) * 1e6);
        if let Ok(job) = job {
            let t = Instant::now();
            std::hint::black_box(schedule_asap(&job.circuit, GateDurations::default()));
            schedule_us.push(secs(t) * 1e6);
        }
    }
    let (parse, schedule) = (median(&parse_us), median(&schedule_us));
    out.layers.insert("circuit.parse_job_us", parse);
    out.layers.insert("circuit.schedule_us", schedule);

    common::sim_layers(d, traced.len(), out);
    // Parse and schedule run inside the request span but carry no
    // span of their own: their benchmark-timed cost stands in. The
    // wall is the client's, so time outside the server's request span
    // counts as unattributed.
    let attributed =
        common::attributed_seconds(d) + (parse + schedule) * 1e-6 * traced.len() as f64;
    out.notes.push(format!(
        "traced seconds: client {client_s:.3}, server/request {:.3}, server/job {:.3}, \
         attributed {attributed:.3}",
        d.total_seconds("server/request"),
        d.total_seconds("server/job"),
    ));
    common::trace_summary(
        out,
        attributed,
        client_s,
        client_ms(untraced),
        client_ms(traced),
    );
}

//! End-to-end tests over a real loopback socket: submit jobs (QASM
//! and native), stream chunked counts, exercise every rejection path
//! (malformed JSON, bad QASM, quota, queue-full backpressure,
//! deadline), and read `/stats`.

use ca_device::{uniform_device, Topology};
use ca_server::{QuotaConfig, Server, ServerConfig, ServerHandle};
use ca_sim::session::{Job, Session};
use ca_sim::{Engine, NoiseConfig, Simulator};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const QUBITS: usize = 4;

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 16,
        chunk_entries: 4,
        io_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    }
}

fn spawn(config: ServerConfig) -> ServerHandle {
    let device = uniform_device(Topology::line(QUBITS), 60.0);
    Server::bind("127.0.0.1:0", device, NoiseConfig::default(), config).expect("bind loopback")
}

/// A parsed response: status code, headers (lowercase names), body
/// (chunked transfer decoded).
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn request(handle: &ServerHandle, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let payload = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    );
    // A rejected connection may be answered and closed before the
    // whole request lands; the response is still readable.
    let _ = stream.write_all(raw.as_bytes());
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("receive");
    parse_response(&bytes)
}

fn parse_response(bytes: &[u8]) -> Response {
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminator");
    let head = String::from_utf8_lossy(&bytes[..head_end]);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .map(|line| {
            let (k, v) = line.split_once(':').expect("header colon");
            (k.trim().to_ascii_lowercase(), v.trim().to_string())
        })
        .collect();
    let raw_body = &bytes[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
    let body = if chunked {
        decode_chunked(raw_body)
    } else {
        raw_body.to_vec()
    };
    Response {
        status,
        headers,
        body,
    }
}

fn decode_chunked(mut raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = raw
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&raw[..line_end]).expect("chunk size utf8"),
            16,
        )
        .expect("hex chunk size");
        raw = &raw[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..];
    }
}

/// The exporter output for a Bell-like circuit measuring every qubit.
fn bell_qasm() -> String {
    let mut qc = ca_circuit::Circuit::new(QUBITS, QUBITS);
    qc.h(0);
    for q in 0..QUBITS - 1 {
        qc.cx(q, q + 1);
    }
    for q in 0..QUBITS {
        qc.measure(q, q);
    }
    ca_circuit::to_qasm3(&qc)
}

fn job_body(qasm: &str, shots: usize, seed: u64, extra: &str) -> String {
    let qasm_json = serde_json::to_string(&qasm.to_string()).expect("encode qasm");
    format!("{{\"shots\":{shots},\"seed\":{seed},\"qasm\":{qasm_json}{extra}}}")
}

/// Parses `{"shots":...,"num_clbits":...,"counts":{"0101":n,...}}`
/// back into a key->count map on the packed-bit keys.
fn counts_from_json(body: &str) -> BTreeMap<u64, usize> {
    let value = serde_json::parse_value(body).expect("valid counts JSON");
    let mut out = BTreeMap::new();
    if let serde::Value::Obj(entries) = value.get("counts") {
        for (bits, count) in entries {
            let key = u64::from_str_radix(bits, 2).expect("bitstring key");
            out.insert(key, count.as_f64().expect("count") as usize);
        }
    }
    out
}

#[test]
fn healthz_and_unknown_routes() {
    let handle = spawn(test_config());
    assert_eq!(request(&handle, "GET", "/healthz", None).status, 200);
    assert_eq!(request(&handle, "GET", "/nope", None).status, 404);
    assert_eq!(request(&handle, "DELETE", "/v1/jobs", None).status, 405);
    handle.shutdown();
}

#[test]
fn qasm_job_round_trips_bit_identical_to_direct_session() {
    let handle = spawn(test_config());
    let shots = 513; // odd: exercises tail lanes through the whole stack
    let seed = 42;
    let body = job_body(&bell_qasm(), shots, seed, "");
    let response = request(&handle, "POST", "/v1/jobs", Some(&body));
    assert_eq!(response.status, 200, "body: {}", response.body_text());
    let served = counts_from_json(&response.body_text());

    // The same device/noise/engine stack, driven directly.
    let device = uniform_device(Topology::line(QUBITS), 60.0);
    let sim = Simulator::with_engine(device, NoiseConfig::default(), Engine::Auto);
    let session = Session::with_capacity(sim, 4);
    let qc = ca_circuit::parse(&bell_qasm()).expect("own qasm");
    let sc = ca_circuit::schedule_asap(&qc, ca_circuit::GateDurations::default());
    let reference = session
        .run(&Job::counts(sc, shots, seed))
        .expect("direct run");
    let reference_counts = match reference {
        ca_sim::session::JobOutput::Counts(r) => r.counts,
        other => panic!("expected counts, got {other:?}"),
    };
    assert_eq!(
        served, reference_counts,
        "served counts must be bit-identical"
    );
    handle.shutdown();
}

#[test]
fn native_schema_submits_and_matches_qasm_submission() {
    let handle = spawn(test_config());
    let qc = ca_circuit::parse(&bell_qasm()).expect("bell circuit");
    let circuit_json = serde_json::to_string(&qc).expect("encode circuit");
    let native = format!("{{\"shots\":128,\"seed\":7,\"circuit\":{circuit_json}}}");
    let via_native = request(&handle, "POST", "/v1/jobs", Some(&native));
    assert_eq!(via_native.status, 200, "body: {}", via_native.body_text());

    let via_qasm = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some(&job_body(&bell_qasm(), 128, 7, "")),
    );
    assert_eq!(via_qasm.status, 200);
    assert_eq!(
        counts_from_json(&via_native.body_text()),
        counts_from_json(&via_qasm.body_text()),
        "native and QASM encodings of one circuit must agree bit-for-bit"
    );
    handle.shutdown();
}

#[test]
fn large_count_maps_stream_chunked() {
    // chunk_entries = 4 and a 4-qubit superposition (16 outcomes)
    // forces the chunked path.
    let handle = spawn(test_config());
    let response = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some(&job_body(&bell_qasm(), 4096, 3, "")),
    );
    assert_eq!(response.status, 200);
    let total: usize = counts_from_json(&response.body_text()).values().sum();
    assert_eq!(total, 4096, "chunked body must reassemble to all shots");
    handle.shutdown();
}

#[test]
fn malformed_json_and_bad_qasm_get_400() {
    let handle = spawn(test_config());
    let garbage = request(&handle, "POST", "/v1/jobs", Some("{not json"));
    assert_eq!(garbage.status, 400);
    assert!(garbage.body_text().contains("malformed JSON"));

    let bad_qasm = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some("{\"shots\":8,\"qasm\":\"OPENQASM 3.0;\\nqubit[2] q;\\nfrobnicate q[0];\"}"),
    );
    assert_eq!(bad_qasm.status, 400);
    assert!(
        bad_qasm.body_text().contains("line 3"),
        "qasm errors carry position: {}",
        bad_qasm.body_text()
    );

    let no_shots = request(&handle, "POST", "/v1/jobs", Some("{\"qasm\":\"x\"}"));
    assert_eq!(no_shots.status, 400);

    let too_wide = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some("{\"shots\":8,\"qasm\":\"OPENQASM 3.0;\\nqubit[9] q;\\nh q[0];\"}"),
    );
    assert_eq!(too_wide.status, 400);
    assert!(too_wide.body_text().contains("device"));
    handle.shutdown();
}

#[test]
fn narrow_circuit_on_wide_device_serves_counts() {
    // A 2-qubit job on the 4-qubit device: crosstalk edges past the
    // circuit's registers used to panic inside plan compilation and
    // kill the worker thread (the client saw an empty reply). The
    // engine must skip out-of-register couplings and the job must
    // round-trip normally.
    let handle = spawn(test_config());
    let mut qc = ca_circuit::Circuit::new(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.measure(0, 0);
    qc.measure(1, 1);
    let narrow = ca_circuit::to_qasm3(&qc);
    let response = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some(&job_body(&narrow, 256, 9, "")),
    );
    assert_eq!(response.status, 200, "body: {}", response.body_text());
    let counts = counts_from_json(&response.body_text());
    assert_eq!(counts.values().sum::<usize>(), 256);
    // Both workers must still be alive afterwards.
    for _ in 0..4 {
        let again = request(
            &handle,
            "POST",
            "/v1/jobs",
            Some(&job_body(&narrow, 16, 1, "")),
        );
        assert_eq!(again.status, 200);
    }
    handle.shutdown();
}

#[test]
fn shot_quota_rejects_with_retry_after() {
    let config = ServerConfig {
        quota: QuotaConfig {
            shots_per_sec: 10.0,
            burst_shots: 1000.0,
        },
        ..test_config()
    };
    let handle = spawn(config);
    let first = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some(&job_body(&bell_qasm(), 900, 1, "")),
    );
    assert_eq!(first.status, 200, "body: {}", first.body_text());
    let second = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some(&job_body(&bell_qasm(), 900, 1, "")),
    );
    assert_eq!(second.status, 429, "body: {}", second.body_text());
    assert!(second.header("retry-after").is_some());
    assert!(second.body_text().contains("quota"));

    // Another tenant's bucket is untouched.
    let other = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some(&job_body(&bell_qasm(), 900, 1, ",\"tenant\":\"other\"")),
    );
    assert_eq!(other.status, 200);
    handle.shutdown();
}

#[test]
fn zero_capacity_queue_backpressures_with_429() {
    let config = ServerConfig {
        queue_capacity: 0,
        ..test_config()
    };
    let handle = spawn(config);
    let response = request(&handle, "GET", "/healthz", None);
    assert_eq!(response.status, 429);
    assert!(response.body_text().contains("overloaded"));
    handle.shutdown();
}

#[test]
fn expired_deadline_returns_structured_timeout() {
    let handle = spawn(test_config());
    let response = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some(&job_body(&bell_qasm(), 4096, 1, ",\"deadline_ms\":0")),
    );
    assert_eq!(response.status, 408, "body: {}", response.body_text());
    assert!(response.body_text().contains("deadline"));

    // The worker that absorbed the expired job still serves.
    let healthy = request(
        &handle,
        "POST",
        "/v1/jobs",
        Some(&job_body(&bell_qasm(), 64, 1, "")),
    );
    assert_eq!(healthy.status, 200);
    handle.shutdown();
}

#[test]
fn stats_surface_cache_and_counters() {
    let handle = spawn(test_config());
    for seed in 0..3 {
        // Same circuit+seed twice -> guaranteed plan-cache hits.
        for _ in 0..2 {
            let response = request(
                &handle,
                "POST",
                "/v1/jobs",
                Some(&job_body(&bell_qasm(), 64, seed, ",\"tenant\":\"stats-t\"")),
            );
            assert_eq!(response.status, 200);
        }
    }
    let stats = request(&handle, "GET", "/stats", None);
    assert_eq!(stats.status, 200);
    let doc = serde_json::parse_value(&stats.body_text()).expect("stats JSON");
    let tenant = doc.get("tenants").get("stats-t");
    assert!(
        tenant.get("cache_hits").as_f64().unwrap_or(0.0) >= 3.0,
        "repeat submissions must hit the plan cache: {}",
        stats.body_text()
    );
    assert!(tenant.get("quota_shots_available").as_f64().is_some());
    assert!(
        doc.get("counters")
            .get("server.jobs_ok")
            .as_f64()
            .unwrap_or(0.0)
            >= 6.0,
        "obs counters must appear in /stats"
    );
    assert!(
        doc.get("latencies")
            .get("server/request")
            .as_obj()
            .is_some(),
        "request latency percentiles must appear in /stats"
    );
    handle.shutdown();
}

#[test]
fn fresh_seeds_of_one_circuit_hit_the_plan_cache() {
    // Serving draws a fresh seed per request: every seed after the
    // first must reuse the circuit's cached program.
    const SEEDS: u64 = 6;
    let handle = spawn(test_config());
    for seed in 0..SEEDS {
        let response = request(
            &handle,
            "POST",
            "/v1/jobs",
            Some(&job_body(
                &bell_qasm(),
                64,
                1000 + seed,
                ",\"tenant\":\"fresh-t\"",
            )),
        );
        assert_eq!(response.status, 200);
    }
    let stats = request(&handle, "GET", "/stats", None);
    assert_eq!(stats.status, 200);
    let doc = serde_json::parse_value(&stats.body_text()).expect("stats JSON");
    let hits = doc
        .get("tenants")
        .get("fresh-t")
        .get("cache_hits")
        .as_f64()
        .unwrap_or(0.0);
    assert!(
        hits >= (SEEDS - 1) as f64,
        "fresh seeds must share one cached program: {}",
        stats.body_text()
    );
    handle.shutdown();
}

#[test]
fn concurrent_submissions_are_bit_identical_to_serial_replay() {
    let handle = spawn(test_config());
    let jobs: Vec<(usize, u64)> = (0..8).map(|i| (65 + i, 100 + i as u64)).collect();

    // Fire all jobs from parallel client threads.
    let concurrent: Vec<BTreeMap<u64, usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(shots, seed)| {
                let handle = &handle;
                scope.spawn(move || {
                    let response = request(
                        handle,
                        "POST",
                        "/v1/jobs",
                        Some(&job_body(&bell_qasm(), shots, seed, "")),
                    );
                    assert_eq!(response.status, 200);
                    counts_from_json(&response.body_text())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // Replay serially against a fresh session.
    let device = uniform_device(Topology::line(QUBITS), 60.0);
    let sim = Simulator::with_engine(device, NoiseConfig::default(), Engine::Auto);
    let session = Session::with_capacity(sim, 4);
    let qc = ca_circuit::parse(&bell_qasm()).expect("bell");
    let sc = ca_circuit::schedule_asap(&qc, ca_circuit::GateDurations::default());
    for (&(shots, seed), served) in jobs.iter().zip(&concurrent) {
        let reference = session
            .run(&Job::counts(sc.clone(), shots, seed))
            .expect("serial replay");
        let reference_counts = match reference {
            ca_sim::session::JobOutput::Counts(r) => r.counts,
            other => panic!("expected counts, got {other:?}"),
        };
        assert_eq!(served, &reference_counts, "shots={shots} seed={seed}");
    }
    handle.shutdown();
}

//! Machine-readable serving-layer benchmark: boots an in-process
//! `ce-serve` instance and drives `POST /evaluate` over real sockets at
//! several concurrency levels, separating the *cold* path (every key
//! computed by the worker pool, closed-loop clients) from the *hot* path
//! (every key replayed from the response cache, **pipelined** clients —
//! each connection keeps a window of requests in flight, which is what
//! lets a single-core host express the event loop's batched-syscall
//! throughput instead of measuring loopback round-trips). Writes
//! `BENCH_serve.json` with p50/p99 latency and throughput per level,
//! alongside the previous architecture's hot throughput for comparison.
//!
//! Usage:
//!
//! ```text
//! bench_serve [output-path]      # full run, default: BENCH_serve.json
//! bench_serve --smoke            # small functional pass, writes nothing
//! bench_serve --check [path]     # validate a committed BENCH_serve.json
//! bench_serve --help             # print usage
//! ```
//!
//! An unknown option is a usage error (exit 2) and writes nothing.
//!
//! `--smoke` shrinks the working set and request counts to something CI
//! can afford while still exercising both phases end to end, including
//! the byte-for-byte response verification. `--check` parses an existing
//! results file and fails unless every concurrency level is present with
//! a plausible hot throughput, so CI catches a stale or hand-mangled
//! file without re-running the benchmark. The output also embeds a
//! `ce-manifest` provenance record over the working set's evaluations
//! (input hash over the canonical request keys, result hash over the
//! evaluation bytes); `--check` re-derives both hashes on the current
//! checkout and fails on any drift — timings are machine-specific, the
//! manifest is not.
//!
//! Before timing anything, every response body is checked byte-for-byte
//! against encoding the direct library call — the serving layer's
//! determinism contract is a precondition of the numbers meaning
//! anything. The JSON is hand-rolled (the vendored serde has no
//! serde_json companion).

use ce_bench::cli::{parse_bench_args, BenchArgs};
use ce_core::{provenance, EvalScratch, StrategyKind};
use ce_datacenter::Fleet;
use ce_manifest::{verify, Manifest, Recomputed};
use ce_serve::{
    build_explorer, execute, manifest_from_json, start, ComputeKind, ComputeRequest, Json, Limits,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Instant;

/// Client threads per timed run.
const CONCURRENCY_LEVELS: [usize; 3] = [1, 4, 16];

/// Distinct `/evaluate` keys in the working set (the cold phase computes
/// each once; the hot phase replays them round-robin from the cache).
const DISTINCT_KEYS: usize = 64;

/// Requests per client in the full hot phase.
const HOT_REQUESTS_PER_CLIENT: usize = 4096;

/// In-flight requests per connection in the hot phase.
const PIPELINE_DEPTH: usize = 32;

/// Hot-path requests/sec measured at each level by the previous
/// thread-per-connection architecture (PR 4 baseline, same host class),
/// recorded in the output so the docs can show the speedup.
const PREV_HOT_REQUESTS_PER_SEC: [(usize, f64); 3] = [(1, 50440.0), (4, 54363.7), (16, 51192.7)];

/// Exits with a diagnostic; benchmarks fail loudly, not with a backtrace.
fn die(context: &str, detail: &str) -> ! {
    eprintln!("bench_serve: {context}: {detail}");
    std::process::exit(1);
}

/// The `i`-th working-set request body: same site context (one shared
/// explorer), distinct design, so each body is a distinct canonical key.
fn body(i: usize) -> String {
    format!(
        r#"{{"site":"UT","strategy":"renewables_battery","design":{{"solar_mw":{},"wind_mw":{},"battery_mwh":{}}}}}"#,
        100 + 5 * (i % 8),
        50 + 10 * (i / 8),
        25 + i
    )
}

/// The encoded request bytes for working-set key `i`. Byte-identical
/// repeats are what the server's raw-bytes memo keys on, so the hot path
/// reuses these buffers verbatim.
fn request_bytes(i: usize) -> Vec<u8> {
    let body = body(i);
    format!(
        "POST /evaluate HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One persistent keep-alive client connection with a response cursor.
struct Client {
    stream: TcpStream,
    buffer: Vec<u8>,
    /// Consumed prefix of `buffer` (compacted periodically, not per
    /// response — pipelined bursts stay `O(n)`).
    pos: usize,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = match TcpStream::connect(addr) {
            Ok(stream) => stream,
            Err(e) => die("connect", &e.to_string()),
        };
        let _ = stream.set_nodelay(true);
        Self {
            stream,
            buffer: Vec::new(),
            pos: 0,
        }
    }

    /// Reads until one full response is buffered, verifies a 200 status
    /// and the exact expected body bytes, and consumes it.
    fn read_response(&mut self, expected: &str) {
        let head_end = loop {
            if let Some(at) = find_subslice(&self.buffer[self.pos..], b"\r\n\r\n") {
                break self.pos + at + 4;
            }
            self.fill();
        };
        let head = String::from_utf8_lossy(&self.buffer[self.pos..head_end]).to_string();
        if !head.starts_with("HTTP/1.1 200") {
            die("non-200 response", head.lines().next().unwrap_or(""));
        }
        let content_length = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| die("response", "missing content-length"));
        while self.buffer.len() < head_end + content_length {
            self.fill();
        }
        if &self.buffer[head_end..head_end + content_length] != expected.as_bytes() {
            die("determinism", "served body differs from library bytes");
        }
        self.pos = head_end + content_length;
        if self.pos > 256 * 1024 {
            self.buffer.copy_within(self.pos.., 0);
            let live = self.buffer.len() - self.pos;
            self.buffer.truncate(live);
            self.pos = 0;
        }
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => die("read response", "server closed the connection"),
            Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
            Err(e) => die("read response", &e.to_string()),
        }
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

struct PhaseTiming {
    requests: usize,
    p50_us: u64,
    p99_us: u64,
    requests_per_sec: f64,
}

fn timing_from(latencies: &mut [u64], elapsed: f64) -> PhaseTiming {
    latencies.sort_unstable();
    let quantile = |q: f64| -> u64 {
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    PhaseTiming {
        requests: latencies.len(),
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        requests_per_sec: latencies.len() as f64 / elapsed,
    }
}

/// Closed-loop phase: each client sends one request at a time and waits
/// for its response. Right for the cold phase, where computation (not
/// the socket path) dominates and coalescing/queueing behavior matters.
fn run_closed_loop(
    addr: SocketAddr,
    clients: usize,
    work_per_client: &[Vec<usize>],
    expected: &[String],
) -> PhaseTiming {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let work = work_per_client[c].clone();
            let expected = expected.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut latencies = Vec::with_capacity(work.len());
                for key in work {
                    let request = request_bytes(key);
                    let sent = Instant::now();
                    if let Err(e) = client.stream.write_all(&request) {
                        die("send request", &e.to_string());
                    }
                    client.read_response(&expected[key]);
                    latencies.push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(mut client_latencies) => latencies.append(&mut client_latencies),
            Err(_) => die("client thread", "panicked"),
        }
    }
    timing_from(&mut latencies, started.elapsed().as_secs_f64())
}

/// Pipelined phase: each client keeps up to `depth` requests in flight
/// on its connection, writing each burst as one syscall and then reading
/// the batched responses in order. Latency is measured per request from
/// burst write to response verification.
fn run_pipelined(
    addr: SocketAddr,
    clients: usize,
    work_per_client: &[Vec<usize>],
    expected: &[String],
    depth: usize,
) -> PhaseTiming {
    let started = Instant::now();
    let requests: Vec<Vec<u8>> = (0..expected.len()).map(request_bytes).collect();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let work = work_per_client[c].clone();
            let expected = expected.to_vec();
            let requests = requests.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut latencies = Vec::with_capacity(work.len());
                let mut burst: Vec<u8> = Vec::with_capacity(depth * 192);
                for window in work.chunks(depth) {
                    burst.clear();
                    for &key in window {
                        burst.extend_from_slice(&requests[key]);
                    }
                    let sent = Instant::now();
                    if let Err(e) = client.stream.write_all(&burst) {
                        die("send burst", &e.to_string());
                    }
                    for &key in window {
                        client.read_response(&expected[key]);
                        latencies
                            .push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(mut client_latencies) => latencies.append(&mut client_latencies),
            Err(_) => die("client thread", "panicked"),
        }
    }
    timing_from(&mut latencies, started.elapsed().as_secs_f64())
}

fn phase_json(t: &PhaseTiming) -> String {
    format!(
        "{{\"requests\": {}, \"p50_us\": {}, \"p99_us\": {}, \"requests_per_sec\": {:.1}}}",
        t.requests, t.p50_us, t.p99_us, t.requests_per_sec
    )
}

/// The working set's library-derived ground truth: the byte-exact
/// reference bodies every served response must match, plus a
/// `ce-manifest` provenance record over the evaluations behind them.
struct Reference {
    bodies: Vec<String>,
    manifest: Manifest,
}

/// Reference bytes for every working-set key, straight from the library:
/// the contract every served response must match. Alongside the bodies,
/// builds the provenance manifest: input hash over the newline-joined
/// canonical request keys (the server's cache identities), result hash
/// over the evaluations in key order — both re-derivable bit-for-bit by
/// `--check` on any checkout.
fn reference(keys: usize) -> Reference {
    let limits = Limits::default();
    let mut scratch = EvalScratch::default();
    let mut explorer = None;
    let mut bodies = Vec::with_capacity(keys);
    let mut canonical_keys = Vec::with_capacity(keys);
    let mut evaluations = Vec::with_capacity(keys);
    let mut scenario: Option<(i32, u64, StrategyKind)> = None;
    for i in 0..keys {
        let json = match Json::parse(&body(i)) {
            Ok(json) => json,
            Err(e) => die("request body", &e.to_string()),
        };
        let request = match ComputeRequest::parse(ComputeKind::Evaluate, &json, &limits) {
            Ok(request) => request,
            Err(e) => die("request parse", &e.message),
        };
        let explorer = explorer.get_or_insert_with(|| match build_explorer(request.context()) {
            Ok(explorer) => explorer,
            Err(e) => die("explorer", &e.message),
        });
        let ComputeRequest::Evaluate {
            strategy, design, ..
        } = &request
        else {
            die("request", "working-set bodies must be /evaluate requests");
        };
        let ctx = request.context();
        scenario.get_or_insert((ctx.year, ctx.seed, *strategy));
        evaluations.push(explorer.evaluate_with(*strategy, design, &mut scratch));
        canonical_keys.push(request.canonical_key());
        bodies.push(execute(&request, explorer, &mut scratch).encode());
    }
    let (year, seed, strategy) =
        scenario.unwrap_or_else(|| die("reference", "working set is empty"));
    let fleet = Fleet::meta_us();
    let ba = fleet
        .site("UT")
        .unwrap_or_else(|| die("fleet", "site UT missing"));
    let manifest = provenance::build_manifest(
        "serve",
        ba.ba().code(),
        strategy.canonical_key(),
        &[year],
        &[seed],
        &canonical_keys.join("\n"),
        &evaluations,
    );
    Reference { bodies, manifest }
}

/// Runs cold + hot phases at every concurrency level. `hot_per_client`
/// scales the hot phase (shrunk under `--smoke`); `expected` holds the
/// library-derived reference body for each working-set key.
fn run_benchmark(
    hot_per_client: usize,
    keys: usize,
    expected: &[String],
) -> Vec<(usize, PhaseTiming, PhaseTiming)> {
    let mut results = Vec::new();
    for concurrency in CONCURRENCY_LEVELS {
        // A fresh server per level: the cold phase must actually be cold.
        let config = ServerConfig {
            workers: 4,
            queue_capacity: 1024,
            cache_capacity: 2 * keys,
            ..ServerConfig::default()
        };
        let handle = match start(config) {
            Ok(handle) => handle,
            Err(e) => die("bind", &e.to_string()),
        };
        let addr = handle.addr();

        // Cold: the working set striped across clients, each key once.
        let mut cold_work: Vec<Vec<usize>> = vec![Vec::new(); concurrency];
        for key in 0..keys {
            cold_work[key % concurrency].push(key);
        }
        let cold = run_closed_loop(addr, concurrency, &cold_work, expected);

        // Hot: round-robin replay of the (now fully cached) working set,
        // pipelined so the event loop sees full read buffers.
        let hot_work: Vec<Vec<usize>> = (0..concurrency)
            .map(|c| (0..hot_per_client).map(|r| (c + r) % keys).collect())
            .collect();
        let hot = run_pipelined(addr, concurrency, &hot_work, expected, PIPELINE_DEPTH);

        eprintln!(
            "concurrency {concurrency}: cold p50 {} µs p99 {} µs ({:.0} req/s), hot p50 {} µs p99 {} µs ({:.0} req/s)",
            cold.p50_us, cold.p99_us, cold.requests_per_sec, hot.p50_us, hot.p99_us, hot.requests_per_sec
        );
        results.push((concurrency, cold, hot));
        handle.shutdown();
    }
    results
}

fn results_json(
    results: &[(usize, PhaseTiming, PhaseTiming)],
    hot_per_client: usize,
    manifest: &Manifest,
) -> String {
    let entries: Vec<String> = results
        .iter()
        .map(|(concurrency, cold, hot)| {
            let prev = PREV_HOT_REQUESTS_PER_SEC
                .iter()
                .find(|(c, _)| c == concurrency)
                .map_or(0.0, |(_, v)| *v);
            format!(
                "    {{\n      \"concurrency\": {concurrency},\n      \"cold\": {},\n      \"hot\": {},\n      \"prev_requests_per_sec\": {prev:.1}\n    }}",
                phase_json(cold),
                phase_json(hot)
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"serve_evaluate\",\n  \"workers\": 4,\n  \"pipeline_depth\": {PIPELINE_DEPTH},\n  \"distinct_keys\": {DISTINCT_KEYS},\n  \"hot_requests_per_client\": {hot_per_client},\n  \"prev\": \"prev_requests_per_sec is the thread-per-connection architecture's hot path on the same host class\",\n  \"determinism\": \"every response body byte-compared against the direct library encoding\",\n  \"manifest_note\": \"manifest: ce-manifest provenance record over the working set's evaluations in key order; --check re-derives both hashes and fails on any drift\",\n  \"manifest\": {},\n  \"levels\": [\n{}\n  ]\n}}\n",
        manifest.to_json(),
        entries.join(",\n")
    )
}

/// `--check`: validates a committed results file without re-running.
fn check(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => die("check: read", &format!("{path}: {e}")),
    };
    let json = match Json::parse(&text) {
        Ok(json) => json,
        Err(e) => die("check: parse", &e.to_string()),
    };
    let levels = json
        .get("levels")
        .and_then(Json::as_array)
        .unwrap_or_else(|| die("check", "missing levels array"));
    for want in CONCURRENCY_LEVELS {
        let level = levels
            .iter()
            .find(|l| l.get("concurrency").and_then(Json::as_f64) == Some(want as f64))
            .unwrap_or_else(|| die("check", &format!("no entry for concurrency {want}")));
        for phase in ["cold", "hot"] {
            let rps = level
                .get(phase)
                .and_then(|p| p.get("requests_per_sec"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| {
                    die(
                        "check",
                        &format!("c={want}: missing {phase} requests_per_sec"),
                    )
                });
            if !(rps.is_finite() && rps > 0.0) {
                die(
                    "check",
                    &format!("c={want}: implausible {phase} rate {rps}"),
                );
            }
        }
        if level
            .get("prev_requests_per_sec")
            .and_then(Json::as_f64)
            .is_none()
        {
            die("check", &format!("c={want}: missing prev_requests_per_sec"));
        }
    }

    // Provenance: lift the embedded manifest back into a typed record,
    // check it is the canonical byte spelling, then re-derive the working
    // set's evaluations and demand both hashes reproduce bit-for-bit.
    // The timings above are machine-specific; the manifest is not.
    let block = json
        .get("manifest")
        .unwrap_or_else(|| die("check", "missing manifest block"));
    let manifest = match manifest_from_json(block) {
        Ok(manifest) => manifest,
        Err(e) => die("check", &e),
    };
    if block.encode() != manifest.to_json() {
        die("check", "manifest block is not the canonical byte spelling");
    }
    let fresh = reference(DISTINCT_KEYS).manifest;
    if let Err(e) = verify(&manifest, |_| Recomputed {
        input_hash: fresh.input_hash.clone(),
        result_hash: fresh.result_hash.clone(),
    }) {
        die("check", &format!("manifest: {e}"));
    }
    println!("bench_serve --check: {path} ok (schema + manifest re-derived)");
    std::process::exit(0);
}

const USAGE: &str = "usage: bench_serve [output-path]
       bench_serve --smoke
       bench_serve --check [path]
       bench_serve --help
";

fn main() -> ExitCode {
    let BenchArgs {
        smoke,
        check: validate,
        path,
    } = match parse_bench_args("bench_serve", USAGE, std::env::args().skip(1)) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if validate {
        check(path.as_deref().unwrap_or("BENCH_serve.json"));
    }
    if smoke {
        // Small enough for CI, but both phases run and every response
        // is still byte-verified. Writes nothing.
        let reference = reference(16);
        let results = run_benchmark(64, 16, &reference.bodies);
        for (concurrency, _, hot) in &results {
            if hot.requests == 0 {
                die("smoke", &format!("no hot requests at c={concurrency}"));
            }
        }
        println!("bench_serve --smoke: ok");
        return ExitCode::SUCCESS;
    }
    let out_path = path.unwrap_or_else(|| "BENCH_serve.json".to_string());
    let reference = reference(DISTINCT_KEYS);
    let results = run_benchmark(HOT_REQUESTS_PER_CLIENT, DISTINCT_KEYS, &reference.bodies);
    let json = results_json(&results, HOT_REQUESTS_PER_CLIENT, &reference.manifest);
    if let Err(e) = std::fs::write(&out_path, &json) {
        die("write benchmark output", &e.to_string());
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

//! The `serve_cold` and `serve_hot` workloads: an in-process `ce-serve`
//! driven over loopback sockets by one generator thread that uses at most
//! `nproc` keep-alive connections.
//!
//! `serve_cold` is open loop: `POST /evaluate` requests with distinct keys
//! are due on a fixed schedule and each is timed from the moment it was
//! due. `serve_hot` is closed loop: each connection keeps a window of
//! pipelined replays of a small cached working set in flight. Every body
//! is compared with the library's own encoding of the same request.

use crate::stats::{fnv1a, median, peak_rss_mb, quantile, trim_heap, Rng};
use crate::sweep::{self, build_explorer, fill_group, score, Invariants, Scratch};
use crate::trace::{Layer, Recorder, Trace};
use crate::{EndToEnd, LayerReport, Outcome, RunArgs};
use ce_core::{CarbonExplorer, EvalScratch, StrategyKind};
use ce_datacenter::Fleet;
use ce_serve::cache::{CachedBody, RawMemo, ShardCache};
use ce_serve::sys::{PollFd, POLLIN, POLLOUT};
use ce_serve::{
    evaluation_json, execute, http, manifest_json, request_manifest, start, ComputeKind,
    ComputeRequest, Context, ExplorerCache, Json, ServerConfig, ServerHandle,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The open-loop arrival rate at which `serve_cold` latency is reported.
pub const REFERENCE_RPS: f64 = 1000.0;
/// The p99 limit the saturation phase's requests must meet.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Shares of `--seconds` spent warming up, at the reference rate, and
/// saturated. The reference and saturation time are each split into
/// `SEGMENTS` that alternate, so both sample the whole run rather than one
/// stretch of it.
const WARM_SHARE: f64 = 0.05;
const REFERENCE_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.45;
const SEGMENTS: usize = 4;
/// Distinct keys the saturation phase cycles through: 16 times the 256
/// entries of the response cache and of the raw-request memo, so a key has
/// long been evicted from both when it comes round again, and every
/// request is computed afresh.
pub const SATURATION_KEYS: usize = 4096;
/// Synthesis years of the `serve_cold` contexts.
const YEARS: [i32; 2] = [2020, 2021];
/// Seeds per (site, year) among the `serve_cold` contexts.
const SEEDS_PER_YEAR: usize = 2;
/// One `serve_cold` request in this many goes to one of the nine cold
/// contexts, in turn; the rest cycle through the three hot ones. With an
/// explorer cache of four, every cold request misses and the hot three
/// stay cached, so explorer builds are a fixed minority share.
const COLD_EVERY: usize = 64;
/// One `serve_cold` request in this many asks for a manifest.
const MANIFEST_EVERY: usize = 32;
/// Distinct keys in the `serve_hot` working set.
const HOT_KEYS: usize = 64;
/// `serve_hot` uses one pipelined connection (never more than `nproc`).
/// With two, the connections' bursts fall into step or out of step with
/// each other from run to run, which swings the p99 between two levels.
pub const HOT_CONNECTIONS: usize = 1;
/// `serve_hot` keeps 129 to 256 requests in flight, so the server's event
/// loop has a batch buffered whenever the generator's wake-up is late
/// (with 16 to 32 in flight, the rate swung with how fast the scheduler
/// handed the cores over). A window of 1024 requests lasts about 2 ms, so
/// a stall of the shared host spoils few windows, and still has ten
/// requests beyond its p99.
pub const HOT_LOOP: ClosedLoop = ClosedLoop {
    depth: 256,
    refill_at: 128,
    window: 1024,
};
/// The saturation phase of `serve_cold`: the server computes one request
/// per connection at a time and buffers the rest, so four in flight on
/// each connection keep its workers busy (sixteen measured no faster), and
/// the backlog cannot grow.
pub const SATURATION_LOOP: ClosedLoop = ClosedLoop {
    depth: 4,
    refill_at: 2,
    window: 256,
};
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Latency percentiles are taken per window and reported as the median
/// over windows, so one scheduling stall moves one window only.
const COLD_WINDOW_S: f64 = 1.0;
/// Longest wait for outstanding responses after sending stops.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// The server as it ships, on an ephemeral loopback port.
fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------- inputs

/// One (site, year, seed) context.
#[derive(Clone)]
struct Ctx {
    state: &'static str,
    year: i32,
    seed: u64,
    avg_mw: f64,
}

/// One `/evaluate` request, compactly; its body is re-rendered on demand.
#[derive(Clone, Copy)]
struct Spec {
    ctx: u8,
    strategy: u8,
    /// Solar, wind, battery and extra capacity, in thousandths.
    design: [u64; 4],
    manifest: bool,
}

fn thousandths(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

impl Spec {
    fn body(&self, contexts: &[Ctx]) -> String {
        let c = &contexts[self.ctx as usize];
        let [s, w, b, e] = self.design.map(thousandths);
        format!(
            "{{\"site\":\"{}\",\"year\":{},\"seed\":{},\"strategy\":\"{}\",\"design\":{{\"solar_mw\":{s},\"wind_mw\":{w},\"battery_mwh\":{b},\"extra_capacity_fraction\":{e}}}{}}}",
            c.state,
            c.year,
            c.seed,
            StrategyKind::ALL[self.strategy as usize].canonical_key(),
            if self.manifest { ",\"manifest\":true" } else { "" }
        )
    }
}

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /evaluate HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The twelve `serve_cold` contexts; the first three are the hot ones.
fn cold_contexts(seed: u64) -> Vec<Ctx> {
    let fleet = Fleet::meta_us();
    let mut out = Vec::new();
    for (y, &year) in YEARS.iter().enumerate() {
        for slot in 0..SEEDS_PER_YEAR {
            for (i, &state) in sweep::SITES.iter().enumerate() {
                out.push(Ctx {
                    state,
                    year,
                    seed: sweep::site_seed(seed, 10 + i + 3 * (slot + SEEDS_PER_YEAR * y)),
                    avg_mw: fleet.site(state).expect("site").avg_power_mw(),
                });
            }
        }
    }
    out
}

/// Draws distinct-keyed requests: every strategy, skewed contexts, a
/// fixed share with manifests.
struct SpecSource {
    rng: Rng,
    contexts: usize,
    avg_mw: Vec<f64>,
    seen: HashSet<(u8, u8, [u64; 4], bool)>,
    drawn: usize,
}

impl SpecSource {
    fn new(seed: u64, contexts: &[Ctx], capacity: usize) -> Self {
        Self {
            rng: Rng::new(seed ^ 0xc01d),
            contexts: contexts.len(),
            avg_mw: contexts.iter().map(|c| c.avg_mw).collect(),
            // Sized for every request up front, so it never rehashes and
            // its memory does not jump with the request count.
            seen: HashSet::with_capacity(capacity),
            drawn: 0,
        }
    }

    fn next(&mut self) -> Spec {
        let n = self.drawn;
        let ctx = if n % COLD_EVERY == COLD_EVERY - 1 {
            3 + (n / COLD_EVERY) % (self.contexts - 3)
        } else {
            n % 3
        };
        loop {
            let avg = self.avg_mw[ctx];
            let mut milli = |hi: f64| (self.rng.unit() * hi * 1000.0) as u64;
            let design = [
                milli(30.0 * avg),
                milli(30.0 * avg),
                milli(24.0 * avg),
                milli(1.0),
            ];
            let spec = Spec {
                ctx: ctx as u8,
                strategy: self.rng.below(4) as u8,
                design,
                manifest: self.drawn % MANIFEST_EVERY == MANIFEST_EVERY - 1,
            };
            if self
                .seen
                .insert((spec.ctx, spec.strategy, spec.design, spec.manifest))
            {
                self.drawn += 1;
                return spec;
            }
        }
    }
}

/// The `serve_hot` working set: two UT contexts, every strategy.
fn hot_contexts(seed: u64) -> Vec<Ctx> {
    let avg_mw = Fleet::meta_us().site("UT").expect("site").avg_power_mw();
    (0..2)
        .map(|i| Ctx {
            state: "UT",
            year: 2020,
            seed: sweep::site_seed(seed, 40 + i),
            avg_mw,
        })
        .collect()
}

fn hot_specs(seed: u64, contexts: &[Ctx]) -> Vec<Spec> {
    let mut rng = Rng::new(seed ^ 0x407);
    let mut milli = |hi: f64| (rng.unit() * hi * 1000.0) as u64;
    let specs: Vec<Spec> = (0..HOT_KEYS)
        .map(|i| {
            let ctx = (i / 4) % contexts.len();
            let avg = contexts[ctx].avg_mw;
            Spec {
                ctx: ctx as u8,
                strategy: (i % 4) as u8,
                design: [
                    milli(30.0 * avg),
                    milli(30.0 * avg),
                    milli(24.0 * avg),
                    milli(1.0),
                ],
                manifest: false,
            }
        })
        .collect();
    let distinct: HashSet<_> = specs
        .iter()
        .map(|s| (s.ctx, s.strategy, s.design))
        .collect();
    assert_eq!(distinct.len(), HOT_KEYS, "working-set keys are distinct");
    specs
}

/// The library's own answer to a request body: `ComputeRequest::parse`,
/// the explorer `build_explorer` would build, `execute` and `Json::encode`.
struct Library {
    explorers: HashMap<String, Arc<CarbonExplorer>>,
    scratch: EvalScratch,
}

impl Library {
    fn new() -> Self {
        Self {
            explorers: HashMap::new(),
            scratch: EvalScratch::default(),
        }
    }

    fn explorer(&mut self, ctx: &Context) -> Arc<CarbonExplorer> {
        Arc::clone(
            self.explorers
                .entry(ctx.canonical_key())
                .or_insert_with(|| {
                    Arc::new(ce_serve::build_explorer(ctx).expect("benchmark contexts build"))
                }),
        )
    }

    fn body(&mut self, body: &str) -> String {
        let json = Json::parse(body).expect("generated bodies are JSON");
        let limits = server_config().limits;
        let request = ComputeRequest::parse(ComputeKind::Evaluate, &json, &limits)
            .expect("generated bodies are valid requests");
        let explorer = self.explorer(request.context());
        execute(&request, &explorer, &mut self.scratch).encode()
    }
}

// ------------------------------------------------------------ generator

mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    extern "C" {
        pub fn ppoll(
            fds: *mut ce_serve::sys::PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::ffi::c_int;
    }
}

/// Waits until a socket in `fds` is ready or `timeout` passes. Unlike
/// `poll(2)`'s millisecond timeout, `ppoll(2)` takes nanoseconds, which
/// lets one thread pace sub-millisecond arrivals without spinning.
fn wait_ready(fds: &mut [PollFd], timeout: Duration) {
    let spec = ffi::Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    let nfds = std::ffi::c_ulong::try_from(fds.len()).expect("a handful of fds");
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` structs
    // laid out as `struct pollfd`, and `nfds` is its length; `spec` is a
    // valid `struct timespec` that outlives the call; a null signal mask
    // leaves the mask unchanged. ppoll writes only the `revents` fields.
    // An error (EINTR) is treated as a spurious wake-up.
    unsafe {
        ffi::ppoll(fds.as_mut_ptr(), nfds, &spec, std::ptr::null());
    }
}

mod sched {
    #[repr(C)]
    pub struct Param {
        pub priority: std::ffi::c_int,
    }

    pub const SCHED_IDLE: std::ffi::c_int = 5;

    extern "C" {
        pub fn sched_setscheduler(
            pid: std::ffi::c_int,
            policy: std::ffi::c_int,
            param: *const Param,
        ) -> std::ffi::c_int;
    }
}

/// Moves the calling thread to `SCHED_IDLE`, which runs only when no other
/// thread of any priority wants the core. Returns whether it worked.
fn become_idle_class() -> bool {
    let param = sched::Param { priority: 0 };
    // SAFETY: pid 0 names the calling thread, `param` is a valid
    // `struct sched_param` that outlives the call, and SCHED_IDLE needs
    // no privilege; the call only changes this thread's policy.
    unsafe { sched::sched_setscheduler(0, sched::SCHED_IDLE, &param) == 0 }
}

/// Keeps every core busy at idle priority while alive, so a core that a
/// server or generator thread wakes on is already running instead of
/// halted (on a virtual machine, waking a halted core waits for the host).
/// Idle-class threads yield to every other thread, so they take no time
/// from the program under test.
struct KeepAwake {
    stop: Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let threads = (0..nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !become_idle_class() {
                        return;
                    }
                    // ce:ordering(a stop flag; it publishes no other data)
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A parsed response: status and the body's place in the read buffer.
struct Response {
    status: u16,
    body: std::ops::Range<usize>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Takes one complete response off `buf[*pos..]`, if there is one.
fn take_response(buf: &[u8], pos: &mut usize) -> Result<Option<Response>, String> {
    let Some(at) = find(&buf[*pos..], b"\r\n\r\n") else {
        return Ok(None);
    };
    let head_end = *pos + at + 4;
    let head = std::str::from_utf8(&buf[*pos..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let status: u16 = head
        .get(9..12)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {}", head.lines().next().unwrap_or("")))?;
    let length: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("response without content-length")?;
    if buf.len() < head_end + length {
        return Ok(None);
    }
    *pos = head_end + length;
    Ok(Some(Response {
        status,
        body: head_end..head_end + length,
    }))
}

/// One keep-alive connection with its pipelined requests.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    input: Vec<u8>,
    in_pos: usize,
    /// Indices of sent requests, oldest first (responses come in order).
    inflight: VecDeque<usize>,
}

impl Conn {
    fn connect(handle: &ServerHandle) -> Result<Self, String> {
        let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            out: Vec::new(),
            out_pos: 0,
            input: Vec::with_capacity(64 * 1024),
            in_pos: 0,
            inflight: VecDeque::new(),
        })
    }

    fn flush(&mut self) -> Result<(), String> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads what is available; `false` if nothing was.
    fn fill(&mut self) -> Result<bool, String> {
        // Keep only unparsed bytes, so the buffer never holds more than the
        // responses still in flight, whatever the timing of the reads.
        self.input.drain(..self.in_pos);
        self.in_pos = 0;
        let mut got = false;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => {
                    self.input.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn poll_fd(&self) -> PollFd {
        let events = if self.out_pos < self.out.len() {
            POLLIN | POLLOUT
        } else {
            POLLIN
        };
        PollFd::new(self.stream.as_raw_fd(), events)
    }

    /// A blocking round trip on an idle connection (used for `/stats`).
    fn roundtrip(&mut self, request: &[u8]) -> Result<(u16, String), String> {
        assert!(
            self.inflight.is_empty(),
            "round trips use an idle connection"
        );
        self.out.extend_from_slice(request);
        let deadline = Instant::now() + DRAIN_LIMIT;
        loop {
            self.flush()?;
            self.fill()?;
            if let Some(r) = take_response(&self.input, &mut self.in_pos)? {
                let body = String::from_utf8_lossy(&self.input[r.body]).into_owned();
                return Ok((r.status, body));
            }
            if Instant::now() > deadline {
                return Err("no response within the drain limit".to_string());
            }
            wait_ready(&mut [self.poll_fd()], Duration::from_millis(10));
        }
    }
}

/// Connects `n` connections and checks each answers `/healthz`.
fn connect_all(handle: &ServerHandle, n: usize) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|_| {
            let mut conn = Conn::connect(handle)?;
            let (status, _) = conn.roundtrip(b"GET /healthz HTTP/1.1\r\nhost: bench\r\n\r\n")?;
            if status != 200 {
                return Err(format!("/healthz answered {status}"));
            }
            Ok(conn)
        })
        .collect()
}

/// Server counters read from `/stats`.
#[derive(Clone, Copy, Default)]
struct ServerCounters {
    requests: f64,
    computed: f64,
    cache_hits: f64,
    shed: f64,
    polls: f64,
    wakeups: f64,
}

fn read_stats(conn: &mut Conn) -> Result<ServerCounters, String> {
    let (status, body) = conn.roundtrip(b"GET /stats HTTP/1.1\r\nhost: bench\r\n\r\n")?;
    let json = Json::parse(&body).map_err(|e| format!("/stats: {e}"))?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let eval = json
        .get("endpoints")
        .and_then(|e| e.get("evaluate"))
        .ok_or("/stats: no evaluate endpoint")?;
    let field = |name: &str| eval.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let shards = json.get("shards").and_then(Json::as_array).unwrap_or(&[]);
    let shard_sum = |name: &str| -> f64 {
        shards
            .iter()
            .filter_map(|s| s.get(name).and_then(Json::as_f64))
            .sum()
    };
    Ok(ServerCounters {
        requests: field("requests"),
        computed: field("computed"),
        cache_hits: field("cache_hits"),
        shed: field("shed"),
        polls: shard_sum("polls"),
        wakeups: shard_sum("wakeups"),
    })
}

/// What happened to one request.
#[derive(Clone, Copy)]
struct Sent {
    spec: Spec,
    /// When it was due (open loop) or sent (closed loop), ns since epoch.
    due_ns: u64,
    /// How late the generator sent it, ns.
    lag_ns: u64,
    /// Response time minus `due_ns`; `None` until answered.
    latency_ns: Option<u64>,
    status: u16,
    body_hash: u64,
    body_len: usize,
}

/// The generator: one thread, at most `nproc` connections.
struct Generator {
    conns: Vec<Conn>,
    epoch: Instant,
    /// Records from index `base` on; a closed loop retires answered ones.
    sent: VecDeque<Sent>,
    base: usize,
    /// Fingerprint bodies for checking after the run (open loop).
    hash_bodies: bool,
}

/// Sees each answered request with its record and body; `false` marks
/// the response as failed.
type Check<'a> = dyn FnMut(usize, &Sent, &[u8]) -> bool + 'a;

impl Generator {
    /// A generator expecting to hold at most `records` requests at once.
    /// An open loop keeps every record, so it reserves them all up front:
    /// untouched reserved pages cost no resident memory, while growth by
    /// doubling would make peak memory jump with the request count.
    fn new(conns: Vec<Conn>, hash_bodies: bool, records: usize) -> Self {
        Self {
            conns,
            epoch: Instant::now(),
            sent: VecDeque::with_capacity(records),
            base: 0,
            hash_bodies,
        }
    }

    fn next_index(&self) -> usize {
        self.base + self.sent.len()
    }

    /// Every record still held, oldest first.
    fn records(&mut self) -> &[Sent] {
        self.sent.make_contiguous()
    }

    /// Moves every record out, answered or not.
    fn take_records(&mut self) -> Vec<Sent> {
        self.base += self.sent.len();
        self.sent.drain(..).collect()
    }

    /// Drops answered records from the front.
    fn retire_answered(&mut self) {
        while self.sent.front().is_some_and(|r| r.latency_ns.is_some()) {
            self.sent.pop_front();
            self.base += 1;
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Queues raw request `raw` for `spec` on connection `conn`.
    fn push_to(&mut self, conn: usize, spec: Spec, raw: &[u8], due_ns: u64, lag_ns: u64) {
        let index = self.next_index();
        self.sent.push_back(Sent {
            spec,
            due_ns,
            lag_ns,
            latency_ns: None,
            status: 0,
            body_hash: 0,
            body_len: 0,
        });
        let conn = &mut self.conns[conn];
        conn.out.extend_from_slice(raw);
        conn.inflight.push_back(index);
    }

    /// Queues request `spec` on the least-loaded connection.
    fn push(&mut self, spec: Spec, body: &str, due: Instant, now: Instant) {
        let conn = (0..self.conns.len())
            .min_by_key(|&c| self.conns[c].inflight.len())
            .expect("at least one connection");
        let (due_ns, now_ns) = (self.ns(due), self.ns(now));
        self.push_to(
            conn,
            spec,
            &request_bytes(body),
            due_ns,
            now_ns.saturating_sub(due_ns),
        );
    }

    /// Flushes, reads and records every complete response; returns how
    /// many completed. `check` sees each response body with its index.
    fn pump(&mut self, check: &mut Check, failed: &mut u64) -> Result<usize, String> {
        let mut done = 0;
        let epoch = self.epoch;
        for conn in &mut self.conns {
            conn.flush()?;
            if !conn.fill()? {
                continue;
            }
            let now = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            while let Some(r) = take_response(&conn.input, &mut conn.in_pos)? {
                let index = conn
                    .inflight
                    .pop_front()
                    .ok_or("a response nobody asked for")?;
                let body = &conn.input[r.body.clone()];
                let record = &mut self.sent[index - self.base];
                record.latency_ns = Some(now.saturating_sub(record.due_ns));
                record.status = r.status;
                if self.hash_bodies {
                    record.body_hash = fnv1a(body);
                }
                record.body_len = body.len();
                if r.status != 200 || !check(index, record, body) {
                    *failed += 1;
                }
                done += 1;
            }
        }
        Ok(done)
    }

    fn wait(&mut self, timeout: Duration) {
        let mut fds: Vec<PollFd> = self.conns.iter().map(Conn::poll_fd).collect();
        wait_ready(&mut fds, timeout);
    }

    /// Waits for every outstanding response, up to the drain limit.
    fn drain(&mut self, check: &mut Check, failed: &mut u64) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_LIMIT;
        while self.outstanding() > 0 {
            self.pump(check, failed)?;
            if Instant::now() > deadline {
                return Err(format!("{} responses missing", self.outstanding()));
            }
            self.wait(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Sends `source`'s requests at `rate` per second for `duration`, open
    /// loop, then drains. Returns the index range of the phase's requests.
    fn open_loop(
        &mut self,
        source: &mut SpecSource,
        contexts: &[Ctx],
        rate: f64,
        duration: Duration,
        failed: &mut u64,
    ) -> Result<std::ops::Range<usize>, String> {
        let first = self.next_index();
        let start = Instant::now();
        let end = start + duration;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut next_due = start;
        let mut accept_all = |_: usize, _: &Sent, _: &[u8]| true;
        while next_due < end {
            let now = Instant::now();
            while next_due <= now && next_due < end {
                let spec = source.next();
                let body = spec.body(contexts);
                self.push(spec, &body, next_due, now);
                next_due += interval;
            }
            self.pump(&mut accept_all, failed)?;
            let now = Instant::now();
            if next_due > now {
                self.wait(next_due - now);
            }
        }
        self.drain(&mut accept_all, failed)?;
        Ok(first..self.next_index())
    }
}

/// Latency statistics over a set of answered requests.
struct Window {
    p50_ms: f64,
    p99_ms: f64,
    per_strategy_p50_us: [f64; 4],
}

/// A request's latency in ms and its strategy. An unanswered or failed
/// request misses every latency limit, so its latency is infinite.
fn sample(r: &Sent) -> (f64, u8) {
    let ms = match r.latency_ns {
        Some(ns) if r.status == 200 => ns as f64 / 1e6,
        _ => f64::INFINITY,
    };
    (ms, r.spec.strategy)
}

fn window_stats(samples: impl ExactSizeIterator<Item = (f64, u8)>) -> Window {
    // Reserved at full size up front, as `Generator::new` explains.
    let n = samples.len();
    let mut all: Vec<f64> = Vec::with_capacity(n);
    let mut by_strategy: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(n));
    for (ms, strategy) in samples {
        all.push(ms);
        by_strategy[strategy as usize].push(ms * 1e3);
    }
    Window {
        p50_ms: quantile(&mut all, 0.50),
        p99_ms: quantile(&mut all, 0.99),
        per_strategy_p50_us: by_strategy.map(|mut v| quantile(&mut v, 0.50)),
    }
}

/// Splits records into consecutive windows of `size` requests; a trailing
/// window under half that size is dropped.
fn windows(records: &[Sent], size: usize) -> Vec<Window> {
    records
        .chunks(size)
        .filter(|w| w.len() * 2 >= size || records.len() < size)
        .map(|w| window_stats(w.iter().map(sample)))
        .collect()
}

/// Medians over windows of p50, p99 and per-strategy p50.
fn median_window(ws: &[Window]) -> Window {
    let field = |f: &dyn Fn(&Window) -> f64| {
        let mut v: Vec<f64> = ws.iter().map(f).collect();
        median(&mut v)
    };
    Window {
        p50_ms: field(&|w| w.p50_ms),
        p99_ms: field(&|w| w.p99_ms),
        per_strategy_p50_us: std::array::from_fn(|s| field(&|w| w.per_strategy_p50_us[s])),
    }
}

/// Checks every answered request's body against the library's encoding;
/// returns how many differ.
fn verify_bodies(records: &[Sent], contexts: &[Ctx]) -> u64 {
    let chunks: Vec<&[Sent]> = records
        .chunks(records.len().div_ceil(nproc()).max(1))
        .collect();
    let mismatches = ce_parallel::par_map(&chunks, |chunk| {
        let mut library = Library::new();
        chunk
            .iter()
            .filter(|r| r.status == 200)
            .filter(|r| {
                let expected = library.body(&r.spec.body(contexts));
                expected.len() != r.body_len || fnv1a(expected.as_bytes()) != r.body_hash
            })
            .count() as u64
    });
    mismatches.into_iter().sum()
}

// ---------------------------------------------------------- closed loop

/// A fixed set of requests with the library's answer to each, replayed in
/// turn by a closed loop.
struct WorkingSet {
    contexts: Vec<Ctx>,
    specs: Vec<Spec>,
    requests: Vec<Vec<u8>>,
    expected: Vec<String>,
}

impl WorkingSet {
    /// Renders `specs` and asks the library for every answer, in parallel.
    fn new(contexts: Vec<Ctx>, specs: Vec<Spec>) -> Self {
        let bodies: Vec<String> = specs.iter().map(|s| s.body(&contexts)).collect();
        let chunks: Vec<&[String]> = bodies
            .chunks(bodies.len().div_ceil(nproc()).max(1))
            .collect();
        let expected = ce_parallel::par_map(&chunks, |chunk| {
            let mut library = Library::new();
            chunk.iter().map(|b| library.body(b)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        trim_heap();
        Self {
            requests: bodies.iter().map(|b| request_bytes(b)).collect(),
            expected,
            contexts,
            specs,
        }
    }
}

/// How a closed loop keeps its connections busy.
pub struct ClosedLoop {
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// A connection is topped up again once no more than this many of its
    /// requests are still in flight.
    pub refill_at: usize,
    /// Rates and latency percentiles are taken per window of this many
    /// answered requests.
    pub window: usize,
}

/// A closed loop collapses its windows to their medians once a second, so
/// the memory its records take does not grow with the rate it reaches.
const SUMMARY_S: f64 = 1.0;

/// What a closed loop measured: per second, the median window.
#[derive(Default)]
struct ClosedRun {
    windows: Vec<Window>,
    rates: Vec<f64>,
    sent: usize,
    /// Mean latency of every answered request, µs.
    mean_latency_us: f64,
}

impl ClosedRun {
    /// Keeps the median of `windows` and of `rates`, and empties both.
    fn summarize(&mut self, windows: &mut Vec<Window>, rates: &mut Vec<f64>) {
        if !windows.is_empty() {
            self.windows.push(median_window(windows));
            self.rates.push(median(rates));
            windows.clear();
            rates.clear();
        }
    }
}

/// Replays `set` in turn for `duration` as `shape` says, comparing every
/// body with the library's.
fn closed_loop(
    gen: &mut Generator,
    set: &WorkingSet,
    shape: &ClosedLoop,
    duration: Duration,
    failed: &mut u64,
) -> Result<ClosedRun, String> {
    let start = Instant::now();
    let end = start + duration;
    // Request `first + k` carries working-set key `k % keys`.
    let first = gen.next_index();
    let keys = set.specs.len();
    let mut samples: Vec<(f64, u8)> = Vec::with_capacity(2 * shape.window);
    let (mut latency_sum, mut answered) = (0.0, 0usize);
    let mut run = ClosedRun::default();
    // This second's windows and rates.
    let (mut windows, mut rates) = (Vec::new(), Vec::new());
    let mut window_start = start;
    let mut summary_start = start;
    while Instant::now() < end {
        let due_ns = gen.ns(Instant::now());
        for c in 0..gen.conns.len() {
            if gen.conns[c].inflight.len() <= shape.refill_at {
                for _ in gen.conns[c].inflight.len()..shape.depth {
                    let key = (gen.next_index() - first) % keys;
                    gen.push_to(c, set.specs[key], &set.requests[key], due_ns, 0);
                }
            }
        }
        let done = gen.pump(
            &mut |i, record, body| {
                samples.push(sample(record));
                body == set.expected[(i - first) % keys].as_bytes()
            },
            failed,
        )?;
        gen.retire_answered();
        if samples.len() >= shape.window {
            let now = Instant::now();
            rates.push(samples.len() as f64 / (now - window_start).as_secs_f64());
            windows.push(window_stats(samples.iter().copied()));
            latency_sum += samples.iter().map(|(ms, _)| ms * 1e3).sum::<f64>();
            answered += samples.len();
            samples.clear();
            window_start = now;
            if (now - summary_start).as_secs_f64() >= SUMMARY_S {
                run.summarize(&mut windows, &mut rates);
                summary_start = now;
            }
        }
        if done == 0 {
            gen.wait(Duration::from_millis(1));
        }
    }
    run.summarize(&mut windows, &mut rates);
    gen.drain(
        &mut |i, _, body| body == set.expected[(i - first) % keys].as_bytes(),
        failed,
    )?;
    gen.retire_answered();
    run.sent = gen.next_index() - first;
    run.mean_latency_us = latency_sum / answered.max(1) as f64;
    Ok(run)
}

// ----------------------------------------------------------- serve_cold

/// The most open-loop requests one `serve_cold` run sends in `seconds`.
fn max_open_requests(seconds: f64) -> usize {
    (REFERENCE_RPS * (WARM_SHARE + REFERENCE_SHARE) * seconds) as usize + 1024
}

/// Boots the server, connects, and primes the three hot contexts' explorers
/// with one request each: the state users find a freshly started server in.
fn cold_setup(contexts: &[Ctx], seconds: f64) -> Result<(ServerHandle, Generator, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    let mut primed = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some((handle, _)) = kept.take() {
            ServerHandle::shutdown(handle);
            trim_heap();
        }
        primed.clear();
        let t = Instant::now();
        let handle = start(server_config()).map_err(|e| format!("bind: {e}"))?;
        let mut conns = connect_all(&handle, nproc())?;
        for ctx in 0..3u8 {
            let spec = Spec {
                ctx,
                strategy: 0,
                design: [0; 4],
                manifest: false,
            };
            let (status, body) = conns[0].roundtrip(&request_bytes(&spec.body(contexts)))?;
            if status != 200 {
                return Err(format!("priming request answered {status}"));
            }
            primed.push((spec, body));
        }
        times.push(t.elapsed().as_secs_f64());
        kept = Some((handle, conns));
    }
    let mut library = Library::new();
    for (spec, body) in &primed {
        if library.body(&spec.body(contexts)) != *body {
            return Err("a priming response differs from the library's".to_string());
        }
    }
    let (handle, conns) = kept.expect("at least one set-up");
    Ok((
        handle,
        Generator::new(conns, true, max_open_requests(seconds)),
        median(&mut times),
    ))
}

struct ColdRun {
    /// Every open-loop request, warm-up included.
    open: Vec<Sent>,
    /// Index ranges of the reference-rate segments in `open`.
    reference: Vec<std::ops::Range<usize>>,
    /// The saturation segments' windows.
    saturated: ClosedRun,
}

/// Warm-up, then reference-rate segments alternating with saturation
/// segments.
fn cold_phases(
    gen: &mut Generator,
    source: &mut SpecSource,
    pool: &WorkingSet,
    seconds: f64,
    failed: &mut u64,
) -> Result<ColdRun, String> {
    let secs = Duration::from_secs_f64;
    let contexts = &pool.contexts;
    gen.open_loop(
        source,
        contexts,
        REFERENCE_RPS,
        secs(WARM_SHARE * seconds),
        failed,
    )?;
    let mut open = gen.take_records();
    let mut reference = Vec::new();
    let mut saturated = ClosedRun::default();
    let reference_s = REFERENCE_SHARE * seconds / SEGMENTS as f64;
    let saturation_s = SATURATION_SHARE * seconds / SEGMENTS as f64;
    for _ in 0..SEGMENTS {
        gen.open_loop(source, contexts, REFERENCE_RPS, secs(reference_s), failed)?;
        let segment = gen.take_records();
        reference.push(open.len()..open.len() + segment.len());
        open.extend(segment);
        let run = closed_loop(gen, pool, &SATURATION_LOOP, secs(saturation_s), failed)?;
        saturated.windows.extend(run.windows);
        saturated.rates.extend(run.rates);
        saturated.sent += run.sent;
    }
    Ok(ColdRun {
        open,
        reference,
        saturated,
    })
}

pub fn run_cold(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = cold(args, &mut outcome) {
        outcome.problem(e);
    }
    outcome
}

fn cold(args: &RunArgs, outcome: &mut Outcome) -> Result<(), String> {
    let contexts = cold_contexts(args.seed);
    let mut source = SpecSource::new(
        args.seed,
        &contexts,
        SATURATION_KEYS + max_open_requests(args.seconds),
    );
    let pool_specs = (0..SATURATION_KEYS).map(|_| source.next()).collect();
    let pool = WorkingSet::new(contexts, pool_specs);
    let (handle, mut gen, setup_s) = cold_setup(&pool.contexts, args.seconds)?;
    let mut failed = 0;
    let awake = KeepAwake::start();
    let run = cold_phases(&mut gen, &mut source, &pool, args.seconds, &mut failed);
    drop(awake);
    handle.shutdown();
    let mut run = run?;

    // Peak memory of serving, before the benchmark's own checks allocate.
    let peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    let reference: Vec<Sent> = run
        .reference
        .iter()
        .flat_map(|r| run.open[r.clone()].to_vec())
        .collect();
    let ws = windows(&reference, (REFERENCE_RPS * COLD_WINDOW_S) as usize);
    let reference_window = median_window(&ws);
    let saturated_p99 = median_window(&run.saturated.windows).p99_ms;
    let capacity = median(&mut run.saturated.rates);
    if saturated_p99 > P99_LIMIT_MS {
        outcome.problem(format!(
            "saturated p99 {saturated_p99:.1} ms is over the {P99_LIMIT_MS} ms limit"
        ));
    }
    let mismatched = verify_bodies(&run.open, &pool.contexts);
    outcome.attempted = (run.open.len() + run.saturated.sent) as u64;
    outcome.failed = failed + mismatched;
    if mismatched > 0 {
        outcome.problem(format!(
            "{mismatched} served bodies differ from the library's"
        ));
    }
    let mut lag: Vec<f64> = run.open.iter().map(|s| s.lag_ns as f64 / 1e6).collect();
    eprintln!(
        "serve_cold: {} open-loop requests, reference windows {} x {} requests, generator lag p99 {:.3} ms; \
         {} saturated requests over {} s, p99 {saturated_p99:.2} ms",
        run.open.len(),
        ws.len(),
        reference.len() / ws.len().max(1),
        quantile(&mut lag, 0.99),
        run.saturated.sent,
        run.saturated.rates.len(),
    );
    outcome.end_to_end = Some(EndToEnd {
        setup_s,
        peak_rss_mb,
        throughput_per_s: capacity,
        latency_p50_ms: reference_window.p50_ms,
        latency_p99_ms: reference_window.p99_ms,
        latency_samples: reference.len(),
        us_per_point: reference_window.per_strategy_p50_us,
    });
    Ok(())
}

// ------------------------------------------------------------ serve_hot

/// The `serve_hot` working set: two UT contexts, every strategy.
fn hot_set(seed: u64) -> WorkingSet {
    let contexts = hot_contexts(seed);
    let specs = hot_specs(seed, &contexts);
    WorkingSet::new(contexts, specs)
}

/// Boots the server and fills its caches with the working set, checking
/// every fill response.
fn hot_setup(set: &WorkingSet, reps: usize) -> Result<(ServerHandle, Generator, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<(ServerHandle, Generator)> = None;
    for _ in 0..reps {
        if let Some((handle, _)) = kept.take() {
            handle.shutdown();
            trim_heap();
        }
        let t = Instant::now();
        let handle = start(server_config()).map_err(|e| format!("bind: {e}"))?;
        let mut gen = Generator::new(connect_all(&handle, HOT_CONNECTIONS)?, false, 4096);
        let mut failed = 0;
        for spec in &set.specs {
            let now = Instant::now();
            gen.push(*spec, &spec.body(&set.contexts), now, now);
        }
        gen.drain(
            &mut |i, _, body| body == set.expected[i].as_bytes(),
            &mut failed,
        )?;
        if failed > 0 {
            return Err(format!("{failed} working-set fills failed"));
        }
        times.push(t.elapsed().as_secs_f64());
        gen.retire_answered();
        kept = Some((handle, gen));
    }
    let (handle, gen) = kept.expect("at least one set-up");
    Ok((handle, gen, median(&mut times)))
}

pub fn run_hot(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = hot(args, &mut outcome) {
        outcome.problem(e);
    }
    outcome
}

fn hot(args: &RunArgs, outcome: &mut Outcome) -> Result<(), String> {
    let set = hot_set(args.seed);
    let (handle, mut gen, setup_s) = hot_setup(&set, SETUP_REPS)?;
    let mut failed = 0;
    let awake = KeepAwake::start();
    // A short unmeasured warm-up, then the measured run.
    let secs = Duration::from_secs_f64;
    let run = closed_loop(
        &mut gen,
        &set,
        &HOT_LOOP,
        secs(0.05 * args.seconds),
        &mut failed,
    )
    .and_then(|_| {
        closed_loop(
            &mut gen,
            &set,
            &HOT_LOOP,
            secs(0.95 * args.seconds),
            &mut failed,
        )
    });
    drop(awake);
    handle.shutdown();
    let mut run = run?;
    let latency = median_window(&run.windows);
    outcome.attempted = run.sent as u64;
    outcome.failed = failed;
    eprintln!(
        "serve_hot: {} requests over {} s, depth {} on {} connections",
        run.sent,
        run.windows.len(),
        HOT_LOOP.depth,
        gen.conns.len()
    );
    outcome.end_to_end = Some(EndToEnd {
        setup_s,
        peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        throughput_per_s: median(&mut run.rates),
        latency_p50_ms: latency.p50_ms,
        latency_p99_ms: latency.p99_ms,
        latency_samples: run.sent,
        us_per_point: latency.per_strategy_p50_us,
    });
    Ok(())
}

// --------------------------------------------------------- traced runs

/// The explorer-cache policy of `ce_serve::ExplorerCache` (most recently
/// used at the back, evict the front), used to predict which lookups of
/// the replay miss on the server.
struct LruShadow {
    keys: Vec<String>,
    capacity: usize,
}

impl LruShadow {
    /// `true` on a hit.
    fn touch(&mut self, key: &str) -> bool {
        if let Some(pos) = self.keys.iter().position(|k| k == key) {
            let k = self.keys.remove(pos);
            self.keys.push(k);
            return true;
        }
        self.keys.push(key.to_string());
        if self.keys.len() > self.capacity {
            self.keys.remove(0);
        }
        false
    }
}

/// One in-process replay of the server's request path, single-threaded,
/// with a span around each call.
struct ServeReplay {
    memo: RawMemo,
    cache: ShardCache,
    shadow: LruShadow,
    explorers: ExplorerCache,
    /// Per context: the explorer invariants and the evaluation buffers.
    scratch: HashMap<String, (Invariants, Scratch)>,
    limits: ce_serve::Limits,
    misses: u64,
    lookups: u64,
    points: u64,
    battery_hours: u64,
}

impl ServeReplay {
    /// A replay whose explorer cache already holds every context (built
    /// here, untimed), so that lookups time the hit path and predicted
    /// misses time the build separately.
    fn new(contexts: &[Ctx], warm: &[usize]) -> Self {
        let config = server_config();
        let explorers = ExplorerCache::new(contexts.len());
        let limits = config.limits.clone();
        let mut shadow = LruShadow {
            keys: Vec::new(),
            capacity: config.explorer_cache_capacity.max(1),
        };
        for c in contexts {
            explorers
                .get_or_build(&context_of(c))
                .expect("benchmark contexts build");
        }
        for &w in warm {
            shadow.touch(&context_of(&contexts[w]).canonical_key());
        }
        Self {
            memo: RawMemo::new(config.cache_capacity.max(64)),
            cache: ShardCache::new(config.cache_capacity),
            shadow,
            explorers,
            scratch: HashMap::new(),
            limits,
            misses: 0,
            lookups: 0,
            points: 0,
            battery_hours: 0,
        }
    }

    /// Replays one raw request; returns the response body bytes and the
    /// wire bytes written.
    fn request(&mut self, raw: &[u8], rec: &mut Recorder, id: u32, wire: &mut Vec<u8>) -> Arc<str> {
        rec.enter(Layer::Request, id);
        let head = rec.time(Layer::HeadParse, id, || {
            let mut scan = 0;
            let end = http::find_head_end(raw, &mut scan).expect("complete head");
            http::parse_head(&raw[..end]).expect("valid head")
        });
        let body = &raw[head.head_len..head.head_len + head.content_length];
        // The raw-request memo is keyed by the body's hash; on a memo hit
        // the response cache is read in the same step, as the server does.
        let (memo, cache) = (&self.memo, &mut self.cache);
        let (hash, memo_key, mut cached) = rec.time(Layer::CacheRead, id, || {
            let hash = ce_serve::hash::hash_bytes(body);
            match memo.get(hash, ComputeKind::Evaluate, body) {
                Some((key, _)) => (hash, Some(Arc::clone(key)), cache.get(key)),
                None => (hash, None, None),
            }
        });
        let mut request = None;
        let key = match memo_key {
            Some(key) => key,
            None => {
                let text = std::str::from_utf8(body).expect("UTF-8 body");
                let json = rec.time(Layer::JsonParse, id, || Json::parse(text).expect("JSON"));
                let limits = &self.limits;
                let (parsed, key) = rec.time(Layer::RequestParse, id, || {
                    let r = ComputeRequest::parse(ComputeKind::Evaluate, &json, limits)
                        .expect("valid request");
                    let key: Arc<str> = Arc::from(r.canonical_key().as_str());
                    (r, key)
                });
                let memo = &mut self.memo;
                rec.time(Layer::CacheWrite, id, || {
                    memo.insert(hash, body.to_vec(), Arc::clone(&key), parsed.clone())
                });
                let cache = &mut self.cache;
                cached = rec.time(Layer::CacheRead, id, || cache.get(&key));
                request = Some(parsed);
                key
            }
        };
        let out = match cached {
            Some(CachedBody::Full(body)) => body,
            Some(CachedBody::Chunked(_)) => panic!("evaluate bodies are never chunked"),
            None => {
                let request = match request {
                    Some(r) => r,
                    None => self
                        .memo
                        .get(hash, ComputeKind::Evaluate, body)
                        .expect("memoized")
                        .1
                        .clone(),
                };
                let encoded = self.compute(&request, rec, id);
                let cache = &mut self.cache;
                rec.time(Layer::CacheWrite, id, || {
                    cache.insert(&key, CachedBody::Full(Arc::clone(&encoded)))
                });
                encoded
            }
        };
        rec.time(Layer::Write, id, || {
            wire.clear();
            http::write_response(wire, 200, &[("x-ce-cache", "miss")], &out)
        });
        rec.exit();
        out
    }

    /// The worker's part: explorer lookup (and build on a predicted
    /// miss), the evaluation through the stage functions, the response
    /// JSON with its manifest, and the encoding.
    fn compute(&mut self, request: &ComputeRequest, rec: &mut Recorder, id: u32) -> Arc<str> {
        let ComputeRequest::Evaluate {
            ctx,
            strategy,
            design,
            manifest,
        } = request
        else {
            panic!("the replay carries /evaluate requests only");
        };
        rec.enter(Layer::ExplorerLookup, id);
        let explorer = self.explorers.get_or_build(ctx).expect("context builds");
        let ctx_key = ctx.canonical_key();
        self.lookups += 1;
        let explorer = if self.shadow.touch(&ctx_key) {
            explorer
        } else {
            self.misses += 1;
            let ce_serve::DemandSource::Site(state) = &ctx.source else {
                panic!("benchmark contexts are sites");
            };
            Arc::new(build_explorer(state, ctx.year, ctx.seed, rec, id))
        };
        rec.exit();

        rec.enter(Layer::Execute, id);
        rec.enter(Layer::CoreEvaluate, id);
        let (inv, scratch) = self
            .scratch
            .entry(ctx_key)
            .or_insert_with(|| (Invariants::new(&explorer), Scratch::new(&explorer)));
        fill_group(
            &explorer,
            *strategy,
            design.solar_mw,
            design.wind_mw,
            scratch,
            rec,
            id,
        );
        let eval = score(&explorer, inv, *strategy, *design, scratch, rec, id);
        rec.exit();
        self.points += 1;
        if strategy.uses_battery() {
            self.battery_hours += explorer.demand().len() as u64;
        }
        let mut json = evaluation_json(&eval);
        if *manifest {
            rec.enter(Layer::ManifestBuild, id);
            let m = request_manifest(request, std::slice::from_ref(&eval));
            if let Json::Obj(fields) = &mut json {
                fields.push(("manifest".to_string(), manifest_json(&m)));
            }
            rec.exit();
        }
        rec.exit();
        rec.time(Layer::Encode, id, || json.encode_arc())
    }
}

fn context_of(c: &Ctx) -> Context {
    Context {
        source: ce_serve::DemandSource::Site(c.state.to_string()),
        year: c.year,
        seed: c.seed,
    }
}

/// Replays `requests` through a fresh [`ServeReplay`] once, after
/// replaying the first `prefill` of them untimed to fill its caches;
/// returns the loop's wall time and the bodies' fingerprints.
fn replay_pass(
    contexts: &[Ctx],
    warm: &[usize],
    requests: &[Vec<u8>],
    traced: bool,
    epoch: Instant,
    prefill: usize,
) -> (f64, Vec<(u64, usize)>, Recorder, ServeReplay) {
    let mut replay = ServeReplay::new(contexts, warm);
    let mut silent = Recorder::new(false, epoch, 0);
    let mut wire = Vec::with_capacity(4096);
    for raw in &requests[..prefill] {
        replay.request(raw, &mut silent, 0, &mut wire);
    }
    replay.misses = 0;
    replay.lookups = 0;
    replay.points = 0;
    replay.battery_hours = 0;
    let mut rec = Recorder::new(traced, epoch, 0);
    let mut bodies = Vec::with_capacity(requests.len());
    let t = Instant::now();
    for (i, raw) in requests.iter().enumerate() {
        let body = replay.request(raw, &mut rec, i as u32, &mut wire);
        bodies.push(body);
    }
    let wall = t.elapsed().as_secs_f64();
    let prints = bodies
        .iter()
        .map(|b| (fnv1a(b.as_bytes()), b.len()))
        .collect();
    (wall, prints, rec, replay)
}

/// Alternating untraced and traced replay passes within `budget_s`; fills
/// the replay-derived per-layer metrics and returns (traced passes, mean
/// traced self time per request in µs).
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    report: &mut LayerReport,
    outcome: &mut Outcome,
    contexts: &[Ctx],
    warm: &[usize],
    requests: &[Vec<u8>],
    expected: &[(u64, usize)],
    prefill: usize,
    budget_s: f64,
    traces: &mut Vec<Trace>,
) -> f64 {
    let epoch = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut replay_trace = Trace::default();
    let (mut lookups, mut misses, mut points, mut hours) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    while traced.is_empty()
        || (start.elapsed().as_secs_f64() < budget_s && replay_trace.len() < crate::SPAN_BUDGET)
    {
        let (wall, _, _, _) = replay_pass(contexts, warm, requests, false, epoch, prefill);
        untraced.push(wall);
        let (wall, prints, rec, replay) =
            replay_pass(contexts, warm, requests, true, epoch, prefill);
        traced.push(wall);
        outcome.attempted += requests.len() as u64;
        let bad = prints.iter().zip(expected).filter(|(a, b)| a != b).count() as u64;
        if bad > 0 {
            outcome.failed += bad;
            outcome.problem(format!("{bad} replayed bodies differ from the library's"));
        }
        lookups += replay.lookups;
        misses += replay.misses;
        points += replay.points;
        hours += replay.battery_hours;
        replay_trace.absorb(rec);
    }
    let passes = traced.len();
    let totals = replay_trace.totals();
    report.kernel_layers(&totals, passes);
    let per_pass = |n: u64| n as f64 / passes as f64;
    report.set(
        "grid.synthesize_ms",
        totals.mean_us(Layer::GridSynthesize) / 1e3,
    );
    report.set(
        "grid.synthesize_calls",
        per_pass(totals.calls(Layer::GridSynthesize)),
    );
    report.set(
        "datacenter.demand_trace_ms",
        totals.mean_us(Layer::DemandTrace) / 1e3,
    );
    report.set(
        "core.explorer_new_ms",
        totals.mean_us(Layer::ExplorerNew) / 1e3,
    );
    if points > 0 {
        report.set(
            "core.points_per_supply_fill",
            points as f64 / totals.calls(Layer::GridSupplyFill).max(1) as f64,
        );
        report.set(
            "core.self_us",
            totals.self_us(Layer::CoreEvaluate) / points as f64,
        );
    }
    report.set("battery.hours_simulated", per_pass(hours));
    report.set("manifest.build_us", totals.mean_us(Layer::ManifestBuild));
    for (layer, name) in [
        (Layer::HeadParse, "serve.head_parse_us"),
        (Layer::JsonParse, "serve.json_parse_us"),
        (Layer::RequestParse, "serve.request_parse_us"),
        (Layer::ExplorerLookup, "serve.explorer_lookup_us"),
        (Layer::Execute, "serve.execute_us"),
        (Layer::Encode, "serve.encode_us"),
        (Layer::CacheRead, "serve.cache_read_us"),
        (Layer::CacheWrite, "serve.cache_write_us"),
        (Layer::Write, "serve.write_us"),
        (Layer::Request, "serve.dispatch_us"),
    ] {
        report.set(name, totals.mean_us(layer));
    }
    if lookups > 0 {
        report.set("serve.explorer_miss_share", misses as f64 / lookups as f64);
    }
    let traced_total: f64 = traced.iter().sum();
    report.set(
        "trace.overhead_share",
        median(&mut traced) / median(&mut untraced) - 1.0,
    );
    report.set(
        "trace.reconcile_gap",
        (totals.total_self_us() - traced_total * 1e6).abs() / (traced_total * 1e6),
    );
    traces.push(replay_trace);
    totals.total_self_us() / (passes * requests.len()) as f64
}

/// `/stats` deltas over a live phase, and the live latency the replayed
/// layers leave unexplained.
fn live_layers(
    report: &mut LayerReport,
    before: ServerCounters,
    after: ServerCounters,
    mean_live_us: f64,
    replay_us_per_request: f64,
) {
    let requests = (after.requests - before.requests).max(1.0);
    report.set("serve.computed", after.computed - before.computed);
    report.set(
        "serve.cache_hit_share",
        (after.cache_hits - before.cache_hits) / requests,
    );
    report.set("serve.shed", after.shed - before.shed);
    report.set(
        "serve.polls_per_request",
        (after.polls - before.polls) / requests,
    );
    report.set(
        "serve.wakeups_per_request",
        (after.wakeups - before.wakeups) / requests,
    );
    report.set(
        "serve.unattributed_us",
        mean_live_us - replay_us_per_request,
    );
}

pub fn run_cold_traced(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = cold_traced(args, &mut outcome) {
        outcome.problem(e);
    }
    outcome
}

fn cold_traced(args: &RunArgs, outcome: &mut Outcome) -> Result<(), String> {
    let contexts = cold_contexts(args.seed);
    let mut source = SpecSource::new(args.seed, &contexts, max_open_requests(args.seconds));
    let (handle, mut gen, _) = cold_setup(&contexts, args.seconds)?;
    let mut failed = 0;
    let secs = Duration::from_secs_f64;
    let awake = KeepAwake::start();
    let live = (|| -> Result<_, String> {
        let warm = secs(WARM_SHARE * args.seconds);
        gen.open_loop(&mut source, &contexts, REFERENCE_RPS, warm, &mut failed)?;
        let before = read_stats(&mut gen.conns[0])?;
        let range = gen.open_loop(
            &mut source,
            &contexts,
            REFERENCE_RPS,
            secs(0.4 * args.seconds),
            &mut failed,
        )?;
        let after = read_stats(&mut gen.conns[0])?;
        Ok((before, after, range))
    })();
    drop(awake);
    handle.shutdown();
    let (before, after, range) = live?;
    let mismatched = verify_bodies(gen.records(), &contexts);
    outcome.attempted += gen.records().len() as u64;
    outcome.failed += failed + mismatched;
    if mismatched > 0 {
        outcome.problem(format!(
            "{mismatched} served bodies differ from the library's"
        ));
    }

    let live_records = &gen.records()[range];
    let requests: Vec<Vec<u8>> = live_records
        .iter()
        .map(|r| request_bytes(&r.spec.body(&contexts)))
        .collect();
    let expected: Vec<(u64, usize)> = live_records
        .iter()
        .map(|r| (r.body_hash, r.body_len))
        .collect();
    let mut report = LayerReport::default();
    let mut traces = Vec::new();
    let per_request = replay_layers(
        &mut report,
        outcome,
        &contexts,
        &[0, 1, 2],
        &requests,
        &expected,
        0,
        0.4 * args.seconds,
        &mut traces,
    );
    let answered: Vec<f64> = live_records
        .iter()
        .filter_map(|r| r.latency_ns)
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let mean_live_us = answered.iter().sum::<f64>() / answered.len().max(1) as f64;
    live_layers(&mut report, before, after, mean_live_us, per_request);
    let mut lag: Vec<f64> = live_records.iter().map(|r| r.lag_ns as f64 / 1e6).collect();
    report.set("gen.lag_p99_ms", quantile(&mut lag, 0.99));
    let refs: Vec<&Trace> = traces.iter().collect();
    report.write_spans(args, &refs);
    outcome.per_layer = Some(report);
    Ok(())
}

pub fn run_hot_traced(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = hot_traced(args, &mut outcome) {
        outcome.problem(e);
    }
    outcome
}

fn hot_traced(args: &RunArgs, outcome: &mut Outcome) -> Result<(), String> {
    let set = hot_set(args.seed);
    let (handle, mut gen, _) = hot_setup(&set, 1)?;
    let mut failed = 0;
    let awake = KeepAwake::start();
    let live = (|| -> Result<_, String> {
        let before = read_stats(&mut gen.conns[0])?;
        let run = closed_loop(
            &mut gen,
            &set,
            &HOT_LOOP,
            Duration::from_secs_f64(0.4 * args.seconds),
            &mut failed,
        )?;
        let after = read_stats(&mut gen.conns[0])?;
        Ok((before, after, run))
    })();
    drop(awake);
    handle.shutdown();
    let (before, after, run) = live?;
    outcome.attempted += run.sent as u64;
    outcome.failed += failed;

    // The replay stream: the working set in the order the live run sent it.
    let stream_len = HOT_KEYS * 320;
    let requests: Vec<Vec<u8>> = (0..stream_len)
        .map(|i| set.requests[i % HOT_KEYS].clone())
        .collect();
    let expected: Vec<(u64, usize)> = (0..stream_len)
        .map(|i| {
            let body = &set.expected[i % HOT_KEYS];
            (fnv1a(body.as_bytes()), body.len())
        })
        .collect();
    let mut report = LayerReport::default();
    let mut traces = Vec::new();
    let per_request = replay_layers(
        &mut report,
        outcome,
        &set.contexts,
        &[0, 1],
        &requests,
        &expected,
        HOT_KEYS,
        0.4 * args.seconds,
        &mut traces,
    );
    live_layers(&mut report, before, after, run.mean_latency_us, per_request);
    let refs: Vec<&Trace> = traces.iter().collect();
    report.write_spans(args, &refs);
    outcome.per_layer = Some(report);
    Ok(())
}

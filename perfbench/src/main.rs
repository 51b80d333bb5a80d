//! The repository's benchmark: one command, three workloads, end-to-end
//! metrics by name and unit, per-layer metrics from a separate traced run,
//! and correctness gates on every run. See `perfbench/README.md`.

mod serve;
mod stats;
mod sweep;
mod trace;

use ce_serve::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: ce-perfbench --workload <sweep|serve_cold|serve_hot> --seed <u64>
                    --seconds <s> --trace <0|1>
       ce-perfbench --repeat <n> [--workload <name>]... [--seconds <s>]
       ce-perfbench --help

One run builds the workload's inputs from --seed, measures for --seconds,
checks every output against the library and prints, as the last line of
standard output, {\"correct\", \"attempted\", \"failed\", \"metrics\"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A failed correctness gate still prints the line, then exits with 1.

--repeat n runs each named workload (all three by default) in two sets of
n fresh processes with distinct seeds, and prints every end-to-end
metric's median and quartiles per set, its spread (q3 - q1) / median, and
the drift of the second median from the first, against the bounds in
BENCHMARK.json. It exits with 1 if a spread or drift is out of bounds.";

/// The recorded settings of every workload, printed by `--help`.
fn settings() -> String {
    format!(
        "Settings:
  sweep       CarbonExplorer::optimal, 4 strategies x sites {:?}, on
              ce_parallel with at most nproc threads
  serve_cold  POST /evaluate, one generator thread, nproc keep-alive
              connections: open loop at the reference rate {} req/s with
              distinct keys, alternating with a saturated closed loop
              ({} in flight per connection, {} keys cycled through caches
              of 256) whose completion rate is the capacity; p99 limit
              {} ms
  serve_hot   closed loop, pipelined depth {} on {} keep-alive
              connection(s), one generator thread",
        sweep::SITES,
        serve::REFERENCE_RPS,
        serve::SATURATION_LOOP.depth,
        serve::SATURATION_KEYS,
        serve::P99_LIMIT_MS,
        serve::HOT_LOOP.depth,
        serve::HOT_CONNECTIONS,
    )
}

/// The workloads, in the order `--repeat` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    ServeCold,
    ServeHot,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Sweep, Workload::ServeCold, Workload::ServeHot];

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings, as given on the command line.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The end-to-end metrics. Every workload reports all of them; what each
/// one counts on each workload is tabled in `perfbench/README.md`.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    /// Samples behind the latency percentiles (reported on stderr).
    pub latency_samples: usize,
    /// Indexed like `StrategyKind::ALL`.
    pub us_per_point: [f64; 4],
}

impl EndToEnd {
    fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let [r, b, c, bc] = self.us_per_point;
        vec![
            ("setup_s", "s", self.setup_s),
            ("peak_rss_mb", "MB", self.peak_rss_mb),
            ("throughput_per_s", "1/s", self.throughput_per_s),
            ("latency_p50_ms", "ms", self.latency_p50_ms),
            ("latency_p99_ms", "ms", self.latency_p99_ms),
            ("us_per_point.renewables", "us", r),
            ("us_per_point.battery", "us", b),
            ("us_per_point.cas", "us", c),
            ("us_per_point.battery_cas", "us", bc),
        ]
    }
}

/// Every per-layer metric and its unit. A traced run reports all of them;
/// a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("grid.synthesize_ms", "ms"),
    ("grid.synthesize_calls", "count"),
    ("grid.supply_fill_us", "us"),
    ("grid.supply_fill_calls", "count"),
    ("datacenter.demand_trace_ms", "ms"),
    ("core.explorer_new_ms", "ms"),
    ("core.points_per_supply_fill", "points/fill"),
    ("core.self_us", "us/point"),
    ("scheduler.cost_order_us", "us"),
    ("scheduler.cost_order_calls", "count"),
    ("scheduler.schedule_us", "us"),
    ("scheduler.schedule_calls", "count"),
    ("scheduler.combined_us", "us"),
    ("scheduler.combined_calls", "count"),
    ("battery.dispatch_us", "us"),
    ("battery.dispatch_calls", "count"),
    ("battery.hours_simulated", "hours"),
    ("timeseries.deficit_stats_us", "us"),
    ("timeseries.deficit_stats_calls", "count"),
    ("parallel.busy_share", "share"),
    ("parallel.imbalance", "ratio"),
    ("manifest.build_us", "us"),
    ("serve.head_parse_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.request_parse_us", "us"),
    ("serve.explorer_lookup_us", "us"),
    ("serve.explorer_miss_share", "share"),
    ("serve.execute_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.cache_read_us", "us"),
    ("serve.cache_write_us", "us"),
    ("serve.write_us", "us"),
    ("serve.dispatch_us", "us"),
    ("serve.computed", "count"),
    ("serve.cache_hit_share", "share"),
    ("serve.shed", "count"),
    ("serve.polls_per_request", "count/req"),
    ("serve.wakeups_per_request", "count/req"),
    ("serve.unattributed_us", "us"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.reconcile_gap", "share"),
    ("trace.spans", "count"),
];

/// A traced run stops adding replay passes once it holds this many spans,
/// which bounds its memory and the span files it writes.
pub const SPAN_BUDGET: usize = 250_000;

/// The per-layer metrics of a traced run, all starting at 0.
pub struct LayerReport {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Default for LayerReport {
    fn default() -> Self {
        Self {
            values: PER_LAYER.iter().map(|&(n, u)| (n, u, 0.0)).collect(),
        }
    }
}

impl LayerReport {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        slot.2 = value;
    }

    /// Mean self time per call and calls per pass of the per-point stage
    /// layers, from `passes` replays of the same work.
    pub fn kernel_layers(&mut self, totals: &trace::LayerTotals, passes: usize) {
        use trace::Layer;
        for (layer, us, calls) in [
            (
                Layer::GridSupplyFill,
                "grid.supply_fill_us",
                "grid.supply_fill_calls",
            ),
            (
                Layer::CostOrder,
                "scheduler.cost_order_us",
                "scheduler.cost_order_calls",
            ),
            (
                Layer::Schedule,
                "scheduler.schedule_us",
                "scheduler.schedule_calls",
            ),
            (
                Layer::Combined,
                "scheduler.combined_us",
                "scheduler.combined_calls",
            ),
            (
                Layer::Dispatch,
                "battery.dispatch_us",
                "battery.dispatch_calls",
            ),
            (
                Layer::DeficitStats,
                "timeseries.deficit_stats_us",
                "timeseries.deficit_stats_calls",
            ),
        ] {
            self.set(us, totals.mean_us(layer));
            self.set(calls, totals.calls(layer) as f64 / passes as f64);
        }
    }

    /// Writes the traces' spans to `perfbench/out/` and records how many.
    pub fn write_spans(&mut self, args: &RunArgs, traces: &[&trace::Trace]) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let mut count = 0;
        for (i, t) in traces.iter().enumerate() {
            let path = dir.join(format!(
                "{}-seed{}-part{i}.spans.tsv",
                args.workload.name(),
                args.seed
            ));
            count += t.len();
            if let Err(e) = t.write_tsv(&path) {
                eprintln!("ce-perfbench: cannot write {}: {e}", path.display());
            }
        }
        self.set("trace.spans", count as f64);
    }
}

/// What a run found: counts, failures and one set of metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub end_to_end: Option<EndToEnd>,
    pub per_layer: Option<LayerReport>,
}

impl Outcome {
    /// Records a correctness problem (the first few are printed).
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 16 {
            self.problems.push(message);
        }
    }

    fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        match (&self.end_to_end, &self.per_layer) {
            (Some(e), _) => e.metrics(),
            (None, Some(l)) => l.values.clone(),
            (None, None) => Vec::new(),
        }
    }
}

fn result_line(outcome: &Outcome, correct: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, unit, value)) in outcome.metrics().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn run(args: &RunArgs) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Sweeps never use more worker threads than the host has cores.
    let threads = ce_parallel::max_threads().min(nproc);
    std::env::set_var("CE_THREADS", threads.to_string());
    eprintln!(
        "ce-perfbench: workload {} seed {} seconds {} trace {} (nproc {nproc}, threads {threads})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut outcome = match (args.workload, args.trace) {
        (Workload::Sweep, false) => sweep::run(args),
        (Workload::Sweep, true) => sweep::run_traced(args),
        (Workload::ServeCold, false) => serve::run_cold(args),
        (Workload::ServeCold, true) => serve::run_cold_traced(args),
        (Workload::ServeHot, false) => serve::run_hot(args),
        (Workload::ServeHot, true) => serve::run_hot_traced(args),
    };
    if outcome.attempted == 0 {
        outcome.problem("no operation was attempted".to_string());
    }
    for (name, unit, value) in outcome.metrics() {
        if !value.is_finite() {
            outcome.problem(format!("{name} is not finite"));
        }
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    if let Some(e) = &outcome.end_to_end {
        eprintln!("  (latency percentiles over {} samples)", e.latency_samples);
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "  failed_share {failed_share} ({} of {})",
        outcome.failed, outcome.attempted
    );
    for problem in &outcome.problems {
        eprintln!("ce-perfbench: FAILED: {problem}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    if !correct {
        // Keep the line valid JSON whatever a broken run measured.
        outcome.end_to_end = None;
        outcome.per_layer = None;
    }
    println!("{}", result_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

enum Command {
    Help,
    Run(RunArgs),
    Repeat {
        runs: usize,
        workloads: Vec<Workload>,
        seconds: Option<f64>,
    },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workloads = Vec::new();
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repeat = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads
                    .push(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                });
            }
            "--repeat" => {
                let v = value()?;
                let n: usize = v.parse().map_err(|_| format!("bad --repeat `{v}`"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs per set".to_string());
                }
                repeat = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(runs) = repeat {
        if seed.is_some() || trace.is_some() {
            return Err("--repeat chooses its own seeds and runs untraced".to_string());
        }
        if workloads.is_empty() {
            workloads = Workload::ALL.to_vec();
        }
        return Ok(Command::Repeat {
            runs,
            workloads,
            seconds,
        });
    }
    if workloads.len() != 1 {
        return Err("give exactly one --workload".to_string());
    }
    Ok(Command::Run(RunArgs {
        workload: workloads[0],
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// An end-to-end metric's contract entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_contract() -> Result<(Vec<Bound>, f64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = json
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: run_seconds")?;
    let bounds = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: end_to_end")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    Ok((bounds, seconds))
}

/// Runs one fresh process and returns its metrics by name.
fn run_child(exe: &PathBuf, workload: Workload, seed: u64, seconds: f64) -> Result<Json, String> {
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let json = Json::parse(last).map_err(|e| format!("seed {seed}: bad result line: {e}"))?;
    if !out.status.success() || json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed}: run failed: {last}",
            workload.name()
        ));
    }
    json.get("metrics")
        .cloned()
        .ok_or_else(|| format!("seed {seed}: no metrics"))
}

fn repeat(runs: usize, workloads: &[Workload], seconds: Option<f64>) -> Result<bool, String> {
    let (bounds, contract_seconds) = read_contract()?;
    let seconds = seconds.unwrap_or(contract_seconds);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for &workload in workloads {
        let mut sets: [Vec<Json>; 2] = Default::default();
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..runs {
                let seed = (s * runs + r + 1) as u64;
                set.push(run_child(&exe, workload, seed, seconds)?);
                eprint!(".");
            }
        }
        eprintln!();
        println!(
            "{} ({runs} runs per set, {seconds} s each): spread = (q3 - q1) / median; drift = how much worse set B's median is",
            workload.name()
        );
        println!(
            "  {:<26} {:>12} {:>12} {:>12} {:>7}   {:>12} {:>7}   {:>7} {:>6}  verdict",
            "metric", "A median", "A q1", "A q3", "spread", "B median", "spread", "drift", "bound"
        );
        for b in &bounds {
            let values = |set: &[Json]| -> Vec<f64> {
                set.iter()
                    .filter_map(|m| m.get(&b.name)?.get("value")?.as_f64())
                    .collect()
            };
            let (a, bv) = (values(&sets[0]), values(&sets[1]));
            if a.len() != runs || bv.len() != runs {
                return Err(format!(
                    "{}: metric {} missing from a run",
                    workload.name(),
                    b.name
                ));
            }
            let [a1, am, a3] = stats::quartiles(&a);
            let [b1, bm, b3] = stats::quartiles(&bv);
            let (sa, sb) = ((a3 - a1) / am, (b3 - b1) / bm);
            let drift = if b.higher_is_better {
                (am - bm) / am
            } else {
                (bm - am) / am
            };
            let spread_checked = b.name != "setup_s";
            let within = drift <= b.bound && (!spread_checked || (sa <= b.bound && sb <= b.bound));
            let steady = !spread_checked || (sa < b.bound / 3.0 && sb < b.bound / 3.0);
            all_ok &= within;
            let verdict = match (within, steady) {
                (false, _) => "OUT OF BOUND",
                (true, false) => "ok (spread above bound/3)",
                (true, true) => "ok",
            };
            println!(
                "  {:<26} {am:>12.4} {a1:>12.4} {a3:>12.4} {sa:>7.3}   {bm:>12.4} {sb:>7.3}   {drift:>7.3} {:>6}  {verdict}",
                b.name, b.bound
            );
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}\n\n{}", settings());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(run_args)) => run(&run_args),
        Ok(Command::Repeat {
            runs,
            workloads,
            seconds,
        }) => match repeat(runs, &workloads, seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ce-perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("ce-perfbench: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["out.json"])).is_err());
        assert!(parse_args(&args(&["--workload", "sweep", "--seed"])).is_err());
        assert!(parse_args(&args(&["--workload", "nope", "--help"])).is_err());
        assert!(matches!(parse_args(&args(&["--help"])), Ok(Command::Help)));
    }

    #[test]
    fn a_full_run_line_parses() {
        let parsed = parse_args(&args(&[
            "--workload",
            "serve_hot",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        let Ok(Command::Run(run)) = parsed else {
            panic!("expected a run");
        };
        assert_eq!(run.workload, Workload::ServeHot);
        assert_eq!((run.seed, run.seconds, run.trace), (3, 10.0, true));
    }

    #[test]
    fn every_per_layer_name_is_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}

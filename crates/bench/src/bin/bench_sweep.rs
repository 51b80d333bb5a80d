//! Machine-readable sweep benchmark: times the point-per-point reference
//! (`explore_serial`) against the supply-major factorized traversal
//! (`explore`) on one 540-point grid per strategy and writes
//! `BENCH_sweep.json` with per-strategy µs/point, points/sec, and a
//! per-stage breakdown (schedule vs dispatch vs stats µs per call), so
//! CI and the docs can track the factorization's speedup over time.
//!
//! Usage:
//!
//! ```text
//! bench_sweep [output-path]       # full run, default: BENCH_sweep.json
//! bench_sweep --smoke [path]      # tiny grids + 1 iteration: CI-speed
//!                                 # end-to-end run (correctness gates,
//!                                 # stage probes, schema self-check);
//!                                 # default: target/BENCH_sweep_smoke.json
//! bench_sweep --check [path]      # no timing: parse an existing output
//!                                 # file, validate its schema, and
//!                                 # re-derive its provenance manifest
//! bench_sweep --help              # print usage
//! ```
//!
//! An unknown option is a usage error (exit 2) and writes nothing.
//!
//! The JSON is hand-rolled (the vendored serde has no serde_json
//! companion); the schema is flat enough that `format!` is fine, and
//! `--check` re-parses it with `ce-serve`'s `Json` parser so CI verifies
//! the committed artifact stays machine-readable.
//!
//! Every output embeds a `ce-manifest` provenance record over the exact
//! evaluations the correctness gate compared (every strategy's factorized
//! sweep, in case order). Timings are machine-specific, but the
//! *evaluations* are bitwise deterministic — so `--check` re-runs them and
//! `ce_manifest::verify` fails the artifact if the committed result hash
//! no longer reproduces on the current checkout.

use ce_battery::{simulate_dispatch_stats, ClcBattery};
use ce_bench::cli::{parse_bench_args, BenchArgs};
use ce_core::{provenance, CarbonExplorer, DesignSpace, EvaluatedDesign, StrategyKind};
use ce_datacenter::Fleet;
use ce_grid::GridDataset;
use ce_manifest::{verify, Manifest, Recomputed};
use ce_scheduler::{
    combined_dispatch_stats, CasConfig, CombinedConfig, CombinedScratch, CostOrder,
    GreedyScheduler, ScheduleScratch,
};
use ce_serve::{manifest_from_json, Json};
use ce_timeseries::kernels;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Timed runs per path; the minimum is reported (standard practice for
/// wall-clock microbenchmarks — noise is strictly additive).
const ITERATIONS: u32 = 3;

/// Calls per timed iteration when probing individual pipeline stages: a
/// single stage call is tens of µs, too close to timer resolution to
/// time alone.
const STAGE_REPS: u32 = 64;

struct PathTiming {
    total_us: f64,
    us_per_point: f64,
    points_per_sec: f64,
}

/// Per-call cost of the pipeline stages behind one evaluation, probed on
/// the grid's central design point. Arms that fuse a stage into another
/// (battery and combined dispatch stream their stats) report the fused
/// stage only; unused stages are 0.
struct StageTiming {
    schedule_us: f64,
    dispatch_us: f64,
    stats_us: f64,
}

fn time_path<F: FnMut()>(mut run: F, points: usize, iterations: u32) -> PathTiming {
    run(); // warm-up: scratch sizing, page faults, branch history
    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    let total_us = best * 1e6;
    PathTiming {
        total_us,
        us_per_point: total_us / points as f64,
        points_per_sec: points as f64 / best,
    }
}

fn time_stage<F: FnMut()>(mut run: F, reps: u32, iterations: u32) -> f64 {
    run(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let start = Instant::now();
        for _ in 0..reps {
            run();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e6 / f64::from(reps)
}

/// Times each pipeline stage of `strategy` in isolation on the central
/// design point of `space`, with the renewable supply — and, for the CAS
/// arm, the per-day cost permutations — prebuilt exactly as the sweep
/// engine prebuilds them per supply group.
fn stage_breakdown(
    explorer: &CarbonExplorer,
    strategy: StrategyKind,
    space: &DesignSpace,
    reps: u32,
    iterations: u32,
) -> StageTiming {
    let mid = |(lo, hi, _): (f64, f64, usize)| 0.5 * (lo + hi);
    let battery_mwh = mid(space.battery);
    let demand = explorer.demand();
    let intensity = explorer.grid_intensity();
    let supply = explorer
        .grid()
        .scaled_renewables(mid(space.solar), mid(space.wind));
    let peak = demand.max().unwrap_or(0.0);
    let capacity_cap = peak * (1.0 + mid(space.extra_capacity));
    let flexible_ratio = explorer.workload().flexible_fraction();

    let mut stages = StageTiming {
        schedule_us: 0.0,
        dispatch_us: 0.0,
        stats_us: 0.0,
    };
    match strategy {
        StrategyKind::RenewablesOnly => {
            stages.stats_us = time_stage(
                || {
                    black_box(kernels::deficit_stats_dot_slices(
                        demand.values(),
                        supply.values(),
                        intensity.values(),
                    ));
                },
                reps,
                iterations,
            );
        }
        StrategyKind::RenewablesBattery => {
            stages.dispatch_us = time_stage(
                || {
                    let mut battery = ClcBattery::lfp(battery_mwh, 1.0);
                    black_box(
                        simulate_dispatch_stats(&mut battery, demand, &supply, intensity).ok(),
                    );
                },
                reps,
                iterations,
            );
        }
        StrategyKind::RenewablesCas => {
            let scheduler = GreedyScheduler::new(CasConfig {
                max_capacity_mw: capacity_cap,
                flexible_ratio,
            });
            let mut order = CostOrder::default();
            order.rebuild_from_deficit_slices(demand.values(), supply.values());
            let mut scratch = ScheduleScratch::default();
            stages.schedule_us = time_stage(
                || {
                    black_box(
                        scheduler
                            .schedule_with_order(demand, &supply, &order, &mut scratch)
                            .ok(),
                    );
                },
                reps,
                iterations,
            );
            stages.stats_us = time_stage(
                || {
                    black_box(kernels::deficit_stats_dot_slices(
                        scratch.shifted(),
                        supply.values(),
                        intensity.values(),
                    ));
                },
                reps,
                iterations,
            );
        }
        StrategyKind::RenewablesBatteryCas => {
            let mut scratch = CombinedScratch::default();
            stages.dispatch_us = time_stage(
                || {
                    let mut battery = ClcBattery::lfp(battery_mwh, 1.0);
                    black_box(
                        combined_dispatch_stats(
                            &mut battery,
                            demand,
                            &supply,
                            intensity,
                            CombinedConfig {
                                max_capacity_mw: capacity_cap,
                                flexible_ratio,
                                window_hours: 24,
                            },
                            &mut scratch,
                        )
                        .ok(),
                    );
                },
                reps,
                iterations,
            );
        }
    }
    stages
}

fn path_json(t: &PathTiming) -> String {
    format!(
        "{{\"total_us\": {:.1}, \"us_per_point\": {:.3}, \"points_per_sec\": {:.1}}}",
        t.total_us, t.us_per_point, t.points_per_sec
    )
}

fn stages_json(s: &StageTiming) -> String {
    format!(
        "{{\"schedule_us\": {:.3}, \"dispatch_us\": {:.3}, \"stats_us\": {:.3}}}",
        s.schedule_us, s.dispatch_us, s.stats_us
    )
}

/// One grid per strategy, restricted to its live axes. Full mode: 540
/// points each — the renewables-only grid is all supply groups
/// (factorization is a no-op there, kept as the honest baseline); the
/// battery and CAS grids are 36 groups × 15 sub-points, the combined
/// grid 36 × 15. Smoke mode: the same shapes shrunk to a handful of
/// points so CI exercises every code path in seconds.
fn cases(smoke: bool) -> [(StrategyKind, DesignSpace); 4] {
    let axes = |solar, wind, battery, extra| DesignSpace {
        solar,
        wind,
        battery,
        extra_capacity: extra,
    };
    if smoke {
        [
            (
                StrategyKind::RenewablesOnly,
                axes(
                    (0.0, 600.0, 3),
                    (0.0, 600.0, 2),
                    (0.0, 0.0, 1),
                    (0.0, 0.0, 1),
                ),
            ),
            (
                StrategyKind::RenewablesBattery,
                axes(
                    (0.0, 600.0, 2),
                    (0.0, 600.0, 2),
                    (0.0, 700.0, 3),
                    (0.0, 0.0, 1),
                ),
            ),
            (
                StrategyKind::RenewablesCas,
                axes(
                    (0.0, 600.0, 2),
                    (0.0, 600.0, 2),
                    (0.0, 0.0, 1),
                    (0.0, 1.0, 3),
                ),
            ),
            (
                StrategyKind::RenewablesBatteryCas,
                axes(
                    (0.0, 600.0, 2),
                    (0.0, 600.0, 2),
                    (0.0, 700.0, 2),
                    (0.0, 1.0, 2),
                ),
            ),
        ]
    } else {
        [
            (
                StrategyKind::RenewablesOnly,
                axes(
                    (0.0, 600.0, 27),
                    (0.0, 600.0, 20),
                    (0.0, 0.0, 1),
                    (0.0, 0.0, 1),
                ),
            ),
            (
                StrategyKind::RenewablesBattery,
                axes(
                    (0.0, 600.0, 6),
                    (0.0, 600.0, 6),
                    (0.0, 700.0, 15),
                    (0.0, 0.0, 1),
                ),
            ),
            (
                StrategyKind::RenewablesCas,
                axes(
                    (0.0, 600.0, 6),
                    (0.0, 600.0, 6),
                    (0.0, 0.0, 1),
                    (0.0, 1.0, 15),
                ),
            ),
            (
                StrategyKind::RenewablesBatteryCas,
                axes(
                    (0.0, 600.0, 6),
                    (0.0, 600.0, 6),
                    (0.0, 700.0, 5),
                    (0.0, 1.0, 3),
                ),
            ),
        ]
    }
}

/// The scenario behind every sweep timing and its provenance manifest:
/// one site, one synthesized demand/weather year.
const SITE: &str = "UT";
const YEAR: i32 = 2020;
const SEED: u64 = 7;

/// Canonical spelling of the sweep scenario — site, synthesis year and
/// seed, mode, and every strategy's grid axes with floats by IEEE-754 bit
/// pattern (the same discipline `ce-serve` canonical keys use). Hashed
/// into the manifest's `input_hash`.
fn sweep_input_key(smoke: bool) -> String {
    let mut key = format!(
        "bench=design_space_sweep;site={SITE};year={YEAR};seed={SEED};mode={};",
        if smoke { "smoke" } else { "full" }
    );
    for (strategy, space) in &cases(smoke) {
        let _ = write!(key, "strategy={};", strategy.canonical_key());
        for (axis, (lo, hi, steps)) in [
            ("solar", space.solar),
            ("wind", space.wind),
            ("battery", space.battery),
            ("extra_capacity", space.extra_capacity),
        ] {
            let _ = write!(
                key,
                "{axis}={:016x},{:016x},{steps};",
                lo.to_bits(),
                hi.to_bits()
            );
        }
    }
    key
}

/// The benchmark's fixed site, cloned out of the fleet. The single
/// lookup `expect` lives here so both the timing run and the manifest
/// derivation share one panic site.
fn bench_site() -> ce_datacenter::DataCenterSite {
    Fleet::meta_us().site(SITE).expect("site exists").clone()
}

/// Derives the sweep's provenance manifest from scratch: every strategy's
/// factorized sweep on a fresh explorer, hashed in case order. The writer
/// embeds this record in the output; `--check` recomputes it and demands
/// bit-identical hashes via `ce_manifest::verify`.
fn sweep_manifest(smoke: bool) -> Manifest {
    let site = bench_site();
    let explorer = CarbonExplorer::new(
        site.demand_trace(YEAR, SEED),
        GridDataset::synthesize(site.ba(), YEAR, SEED),
    );
    let evaluations: Vec<EvaluatedDesign> = cases(smoke)
        .iter()
        .flat_map(|(strategy, space)| explorer.explore(*strategy, space))
        .collect();
    provenance::build_manifest(
        "sweep",
        site.ba().code(),
        "all",
        &[YEAR],
        &[SEED],
        &sweep_input_key(smoke),
        &evaluations,
    )
}

fn run_bench(smoke: bool, out_path: &str) -> ExitCode {
    let iterations = if smoke { 1 } else { ITERATIONS };
    let stage_reps = if smoke { 4 } else { STAGE_REPS };

    let site = bench_site();
    let grid = GridDataset::synthesize(site.ba(), YEAR, SEED);
    let explorer = CarbonExplorer::new(site.demand_trace(YEAR, SEED), grid);

    // `explore_serial` of the PR 1 seed build (commit 80d1d44) on the
    // full grids, measured on the same machine with the same
    // best-of-three protocol: per-point supply synthesis + materializing
    // dispatch (four year-long series for the battery arm, a full-year
    // cost vector per day for the CAS arm). Static by necessity — the
    // old code paths no longer exist — and only comparable to timings
    // from the same machine.
    let pr1_seed_us_per_point = [24.7, 175.0, 1055.5, 201.1];
    // Factorized µs/pt of the PR 5 build on the full grids and the same
    // machine: the supply-major traversal before the permutation cache
    // and the lane-chunked kernels. Static for the same reason.
    let prev_us_per_point = [21.518, 33.411, 267.818, 55.689];

    let mut entries = Vec::new();
    for (((strategy, space), &pr1_us), &prev_us) in cases(smoke)
        .iter()
        .zip(&pr1_seed_us_per_point)
        .zip(&prev_us_per_point)
    {
        let restricted = space.restricted_to(*strategy);
        let points = restricted.len();
        if !smoke {
            assert_eq!(points, 540, "{strategy}: reference grids are 540 points");
        }

        // Correctness gate before timing anything: the two paths must
        // agree exactly, or the comparison is meaningless.
        let serial = explorer.explore_serial(*strategy, space);
        let factorized = explorer.explore(*strategy, space);
        assert_eq!(serial, factorized, "{strategy}: paths diverged");

        let ppp = time_path(
            || {
                black_box(explorer.explore_serial(*strategy, black_box(space)));
            },
            points,
            iterations,
        );
        let fact = time_path(
            || {
                black_box(explorer.explore(*strategy, black_box(space)));
            },
            points,
            iterations,
        );
        let stages = stage_breakdown(&explorer, *strategy, &restricted, stage_reps, iterations);
        let speedup = ppp.total_us / fact.total_us;
        let speedup_vs_pr1 = pr1_us / fact.us_per_point;
        let speedup_vs_prev = prev_us / fact.us_per_point;

        eprintln!(
            "{strategy}: point-per-point {:.2} µs/pt, factorized {:.2} µs/pt ({speedup:.2}x live, {speedup_vs_prev:.2}x vs PR5, {speedup_vs_pr1:.2}x vs PR1 seed); stages: schedule {:.2} µs, dispatch {:.2} µs, stats {:.2} µs",
            ppp.us_per_point,
            fact.us_per_point,
            stages.schedule_us,
            stages.dispatch_us,
            stages.stats_us,
        );
        entries.push(format!(
            "    {{\n      \"strategy\": \"{strategy:?}\",\n      \"grid\": [{}, {}, {}, {}],\n      \"points\": {points},\n      \"supply_groups\": {},\n      \"point_per_point\": {},\n      \"factorized\": {},\n      \"stages\": {},\n      \"speedup\": {speedup:.3},\n      \"prev_us_per_point\": {prev_us:.3},\n      \"speedup_vs_prev\": {speedup_vs_prev:.3},\n      \"pr1_seed_us_per_point\": {pr1_us:.1},\n      \"speedup_vs_pr1_seed\": {speedup_vs_pr1:.3}\n    }}",
            restricted.solar.2,
            restricted.wind.2,
            restricted.battery.2,
            restricted.extra_capacity.2,
            restricted.solar.2 * restricted.wind.2,
            path_json(&ppp),
            path_json(&fact),
            stages_json(&stages),
        ));
    }

    // Provenance record over the same evaluations the correctness gate
    // compared. Timings above are machine-specific; this record is not —
    // any checkout can re-derive it bit-for-bit.
    let manifest = sweep_manifest(smoke);

    let json = format!(
        "{{\n  \"benchmark\": \"design_space_sweep\",\n  \"mode\": \"{}\",\n  \"iterations\": {iterations},\n  \"threads\": {},\n  \"pr1_seed_note\": \"pr1_seed_us_per_point: explore_serial of the PR1 seed build (80d1d44) on the same grids and machine; static because those code paths no longer exist\",\n  \"prev_note\": \"prev_us_per_point: factorized µs/pt of the PR5 build (before the permutation cache and lane-chunked kernels) on the full grids and the same machine\",\n  \"stages_note\": \"stages: per-call µs of each pipeline stage probed on the grid's central design point with the supply (and for CAS the cost order) prebuilt; fused arms report one stage, and stage sums need not match us_per_point\",\n  \"manifest_note\": \"manifest: ce-manifest provenance record over every strategy's factorized sweep in case order; --check re-derives both hashes and fails on any drift\",\n  \"manifest\": {},\n  \"strategies\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        ce_parallel::max_threads(),
        manifest.to_json(),
        entries.join(",\n")
    );
    std::fs::write(out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");

    if smoke {
        // A smoke run doubles as a schema self-check, so CI catches a
        // drifted writer and a drifted committed artifact the same way.
        return check_schema(out_path);
    }
    ExitCode::SUCCESS
}

/// Parses `path` with `ce-serve`'s JSON parser and validates the
/// benchmark schema, so CI can verify the committed `BENCH_sweep.json`
/// without re-running the (machine-specific) timings.
fn check_schema(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("bench_sweep --check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let root = match Json::parse(&text) {
        Ok(root) => root,
        Err(err) => {
            eprintln!("bench_sweep --check: {path} is not valid JSON: {err:?}");
            return ExitCode::FAILURE;
        }
    };

    let mut errors: Vec<String> = Vec::new();
    if root.get("benchmark").and_then(Json::as_str) != Some("design_space_sweep") {
        errors.push("benchmark != \"design_space_sweep\"".to_string());
    }
    for key in ["iterations", "threads"] {
        if !root
            .get(key)
            .and_then(Json::as_f64)
            .is_some_and(|v| v >= 1.0)
        {
            errors.push(format!("{key}: missing or < 1"));
        }
    }
    for key in ["pr1_seed_note", "prev_note", "stages_note", "manifest_note"] {
        if root.get(key).and_then(Json::as_str).is_none() {
            errors.push(format!("{key}: missing"));
        }
    }

    let expected = [
        "RenewablesOnly",
        "RenewablesBattery",
        "RenewablesCas",
        "RenewablesBatteryCas",
    ];
    let strategies = root
        .get("strategies")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    if strategies.len() != expected.len() {
        errors.push(format!(
            "strategies: expected {} entries, found {}",
            expected.len(),
            strategies.len()
        ));
    }
    for (entry, name) in strategies.iter().zip(expected) {
        let label = |field: &str| format!("strategies[{name}].{field}");
        if entry.get("strategy").and_then(Json::as_str) != Some(name) {
            errors.push(format!("strategies: expected entry for {name}"));
            continue;
        }
        if entry
            .get("grid")
            .and_then(Json::as_array)
            .map(|axes| axes.len())
            != Some(4)
        {
            errors.push(label("grid: not a 4-axis array"));
        }
        for field in [
            "points",
            "supply_groups",
            "speedup",
            "prev_us_per_point",
            "speedup_vs_prev",
            "pr1_seed_us_per_point",
            "speedup_vs_pr1_seed",
        ] {
            if !entry
                .get(field)
                .and_then(Json::as_f64)
                .is_some_and(|v| v > 0.0)
            {
                errors.push(label(&format!("{field}: missing or not > 0")));
            }
        }
        for path_key in ["point_per_point", "factorized"] {
            for field in ["total_us", "us_per_point", "points_per_sec"] {
                if !entry
                    .get(path_key)
                    .and_then(|p| p.get(field))
                    .and_then(Json::as_f64)
                    .is_some_and(|v| v > 0.0)
                {
                    errors.push(label(&format!("{path_key}.{field}: missing or not > 0")));
                }
            }
        }
        for field in ["schedule_us", "dispatch_us", "stats_us"] {
            if !entry
                .get("stages")
                .and_then(|s| s.get(field))
                .and_then(Json::as_f64)
                .is_some_and(|v| v >= 0.0)
            {
                errors.push(label(&format!("stages.{field}: missing or negative")));
            }
        }
    }

    // Provenance: lift the embedded manifest back into a typed record,
    // check it is the canonical byte spelling, then re-run the sweep
    // evaluations and demand both hashes reproduce bit-for-bit. The
    // code fingerprint is deliberately not compared (a changed checkout
    // legitimately re-fingerprints); the data hashes are load-bearing.
    let smoke = root.get("mode").and_then(Json::as_str) == Some("smoke");
    match root.get("manifest") {
        None => errors.push("manifest: missing".to_string()),
        Some(block) => match manifest_from_json(block) {
            Err(e) => errors.push(e),
            Ok(manifest) => {
                if block.encode() != manifest.to_json() {
                    errors.push(
                        "manifest: embedded block is not the canonical byte spelling".to_string(),
                    );
                }
                let fresh = sweep_manifest(smoke);
                if let Err(e) = verify(&manifest, |_| Recomputed {
                    input_hash: fresh.input_hash.clone(),
                    result_hash: fresh.result_hash.clone(),
                }) {
                    errors.push(format!("manifest: {e}"));
                }
            }
        },
    }

    if errors.is_empty() {
        println!(
            "{path}: schema ok, manifest re-derived ({} strategies, mode {})",
            strategies.len(),
            root.get("mode").and_then(Json::as_str).unwrap_or("full"),
        );
        ExitCode::SUCCESS
    } else {
        for error in &errors {
            eprintln!("bench_sweep --check: {path}: {error}");
        }
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: bench_sweep [--smoke] [output-path]
       bench_sweep --check [path]
       bench_sweep --help
";

fn main() -> ExitCode {
    let BenchArgs { smoke, check, path } =
        match parse_bench_args("bench_sweep", USAGE, std::env::args().skip(1)) {
            Ok(args) => args,
            Err(code) => return code,
        };
    if check {
        return check_schema(&path.unwrap_or_else(|| "BENCH_sweep.json".to_string()));
    }
    let out_path = path.unwrap_or_else(|| {
        if smoke {
            "target/BENCH_sweep_smoke.json".to_string()
        } else {
            "BENCH_sweep.json".to_string()
        }
    });
    run_bench(smoke, &out_path)
}

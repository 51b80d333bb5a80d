//! The `sweep` workload: `CarbonExplorer::optimal` for every strategy on
//! three sites, on grids with dense battery and extra-capacity axes.
//!
//! The untraced run times the library's own `optimal`. The traced run
//! replays the same sweep through the public per-stage functions, in
//! `optimal`'s order and on `ce_parallel::par_fold_chunks_with`, with a
//! span around each call, and requires the replayed optimum to equal the
//! library's bit for bit.

use crate::stats::{median, peak_rss_mb, quantile, Rng};
use crate::trace::{Layer, Recorder, Trace};
use crate::{EndToEnd, LayerReport, Outcome, RunArgs};
use ce_battery::{simulate_dispatch_stats, ClcBattery};
use ce_core::{CarbonExplorer, Coverage, DesignPoint, DesignSpace, EvaluatedDesign, StrategyKind};
use ce_datacenter::Fleet;
use ce_embodied::EmbodiedParams;
use ce_grid::GridDataset;
use ce_scheduler::{
    combined_dispatch_stats, CasConfig, CombinedConfig, CombinedScratch, CostOrder,
    GreedyScheduler, ScheduleScratch,
};
use ce_timeseries::{kernels, HourlySeries};
use std::hint::black_box;
use std::sync::atomic::{AtomicU16, Ordering};
use std::time::Instant;

/// OR (BPAT, wind-major), NC (DUK, solar-major), UT (PACE, hybrid).
pub const SITES: [&str; 3] = ["OR", "NC", "UT"];
/// The synthesis year of every sweep input.
const YEAR: i32 = 2020;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Latency percentiles are taken over windows of this many rounds and
/// reported as their median across windows.
const ROUNDS_PER_WINDOW: usize = 4;

/// The grid swept for `strategy` at a site of average power `avg_mw`:
/// the library's own bounds for that size, with dense battery and
/// extra-capacity axes so each supply group holds many sub-points.
/// Every strategy's restricted grid has 576 or 1152 points.
pub fn space(strategy: StrategyKind, avg_mw: f64) -> DesignSpace {
    let base = DesignSpace::for_datacenter(avg_mw);
    let (solar, wind, battery, extra) = match strategy {
        StrategyKind::RenewablesOnly => (24, 24, 1, 1),
        StrategyKind::RenewablesBattery => (6, 6, 32, 1),
        StrategyKind::RenewablesCas => (6, 6, 1, 32),
        StrategyKind::RenewablesBatteryCas => (4, 4, 12, 6),
    };
    let steps = |(lo, hi, _): (f64, f64, usize), n| (lo, hi, n);
    DesignSpace {
        solar: steps(base.solar, solar),
        wind: steps(base.wind, wind),
        battery: steps(base.battery, battery),
        extra_capacity: steps(base.extra_capacity, extra),
    }
}

/// The per-site synthesis seed behind `--seed`.
pub fn site_seed(seed: u64, site: usize) -> u64 {
    Rng::new(seed.wrapping_mul(31).wrapping_add(site as u64)).next_u64() % 1_000_000
}

/// Builds one explorer exactly as `ce_serve::build_explorer` does for a
/// site context, with a span around each stage.
pub fn build_explorer(
    state: &str,
    year: i32,
    seed: u64,
    rec: &mut Recorder,
    id: u32,
) -> CarbonExplorer {
    let fleet = Fleet::meta_us();
    let site = fleet.site(state).expect("benchmark sites are in the fleet");
    let grid = rec.time(Layer::GridSynthesize, id, || {
        GridDataset::synthesize(site.ba(), year, seed)
    });
    let demand = rec.time(Layer::DemandTrace, id, || site.demand_trace(year, seed));
    rec.time(Layer::ExplorerNew, id, || CarbonExplorer::new(demand, grid))
}

/// One `optimal` call of the sweep and the answer it must give.
struct Query {
    site: usize,
    strategy: StrategyKind,
    space: DesignSpace,
    points: usize,
    expected: EvaluatedDesign,
}

/// Every float and the strategy of an evaluation, as bits.
pub fn bits(e: &EvaluatedDesign) -> Vec<u64> {
    let d = &e.design;
    let mut out = vec![
        e.strategy as u64,
        d.solar_mw.to_bits(),
        d.wind_mw.to_bits(),
        d.battery_mwh.to_bits(),
        d.extra_capacity_fraction.to_bits(),
    ];
    out.extend(e.canonical_fields().iter().map(|(_, v)| v.to_bits()));
    out
}

/// The first minimum of total carbon in sweep order, as `optimal` defines
/// it, found over the point-per-point reference path.
fn first_min_serial(
    explorer: &CarbonExplorer,
    strategy: StrategyKind,
    space: &DesignSpace,
) -> EvaluatedDesign {
    explorer
        .explore_serial(strategy, space)
        .into_iter()
        .reduce(|best, e| {
            if e.total_tons() < best.total_tons() {
                e
            } else {
                best
            }
        })
        .expect("benchmark grids are non-empty")
}

fn setup(args: &RunArgs, rec: &mut Recorder) -> (Vec<CarbonExplorer>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut explorers = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        explorers = SITES
            .iter()
            .enumerate()
            .map(|(i, state)| build_explorer(state, YEAR, site_seed(args.seed, i), rec, i as u32))
            .collect();
        times.push(start.elapsed().as_secs_f64());
    }
    (explorers, median(&mut times))
}

fn queries(explorers: &[CarbonExplorer]) -> Vec<Query> {
    let fleet = Fleet::meta_us();
    let mut plan = Vec::new();
    for strategy in StrategyKind::ALL {
        for (site, state) in SITES.iter().enumerate() {
            let avg = fleet.site(state).expect("site").avg_power_mw();
            let space = space(strategy, avg);
            plan.push((site, strategy, space));
        }
    }
    // The correctness reference, untimed: one first-min over the serial
    // point-per-point path per query, spread over the worker threads.
    let expected = ce_parallel::par_map(&plan, |(site, strategy, space)| {
        first_min_serial(&explorers[*site], *strategy, space)
    });
    plan.into_iter()
        .zip(expected)
        .map(|((site, strategy, space), expected)| Query {
            site,
            strategy,
            points: space.restricted_to(strategy).len(),
            space,
            expected,
        })
        .collect()
}

fn strategy_slot(strategy: StrategyKind) -> usize {
    StrategyKind::ALL
        .iter()
        .position(|s| *s == strategy)
        .expect("a known strategy")
}

/// The untraced run: timed rounds of every query through
/// `CarbonExplorer::optimal`.
pub fn run(args: &RunArgs) -> Outcome {
    let epoch = Instant::now();
    let mut silent = Recorder::new(false, epoch, 0);
    let (explorers, setup_s) = setup(args, &mut silent);
    let queries = queries(&explorers);
    let mut outcome = Outcome::default();

    let mut latencies_ms = Vec::new();
    let mut window_p50 = Vec::new();
    let mut window_p99 = Vec::new();
    let mut samples = 0;
    let mut round_rates = Vec::new();
    let mut per_strategy: [Vec<f64>; 4] = Default::default();
    let mut timed = false;
    let start = Instant::now();
    // Round 0 warms caches and threads and is not timed; every round is
    // checked against the reference.
    loop {
        let mut round_s = 0.0;
        let mut round_points = 0usize;
        let mut strategy_s = [0.0f64; 4];
        let mut strategy_points = [0usize; 4];
        for q in &queries {
            let t = Instant::now();
            let best = explorers[q.site].optimal(q.strategy, black_box(&q.space));
            let dt = t.elapsed().as_secs_f64();
            outcome.attempted += 1;
            if best.as_ref().map(bits) != Some(bits(&q.expected)) {
                outcome.failed += 1;
                outcome.problem(format!(
                    "{} {}: optimal differs from the serial first minimum",
                    SITES[q.site], q.strategy
                ));
            }
            if timed {
                latencies_ms.push(dt * 1e3);
            }
            round_s += dt;
            round_points += q.points;
            strategy_s[strategy_slot(q.strategy)] += dt;
            strategy_points[strategy_slot(q.strategy)] += q.points;
        }
        if timed {
            round_rates.push(round_points as f64 / round_s);
            for (slot, samples) in per_strategy.iter_mut().enumerate() {
                samples.push(strategy_s[slot] * 1e6 / strategy_points[slot] as f64);
            }
            if round_rates.len() % ROUNDS_PER_WINDOW == 0 {
                samples += latencies_ms.len();
                window_p50.push(quantile(&mut latencies_ms, 0.50));
                window_p99.push(quantile(&mut latencies_ms, 0.99));
                latencies_ms.clear();
            }
        } else {
            timed = true;
            continue;
        }
        if start.elapsed().as_secs_f64() >= args.seconds
            && round_rates.len() % ROUNDS_PER_WINDOW == 0
        {
            break;
        }
    }

    eprintln!(
        "sweep: {} rounds of {} queries ({} points/round), {} threads",
        round_rates.len(),
        queries.len(),
        queries.iter().map(|q| q.points).sum::<usize>(),
        ce_parallel::max_threads()
    );
    outcome.end_to_end = Some(EndToEnd {
        setup_s,
        peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        throughput_per_s: median(&mut round_rates),
        latency_p50_ms: median(&mut window_p50),
        latency_p99_ms: median(&mut window_p99),
        latency_samples: samples,
        us_per_point: per_strategy.map(|mut v| median(&mut v)),
    });
    outcome
}

/// The explorer invariants `score_with_supply` reads, rebuilt from the
/// explorer's public state and the library defaults it was built with.
pub struct Invariants {
    peak_mw: f64,
    demand_mwh: f64,
    unit_solar_mwh: f64,
    unit_wind_mwh: f64,
    embodied: EmbodiedParams,
    flexible: f64,
    dod: f64,
}

impl Invariants {
    pub fn new(explorer: &CarbonExplorer) -> Self {
        Self {
            peak_mw: explorer.demand().max().unwrap_or(0.0),
            demand_mwh: explorer.demand().sum(),
            unit_solar_mwh: explorer.grid().scaled_solar(1.0).sum(),
            unit_wind_mwh: explorer.grid().scaled_wind(1.0).sum(),
            embodied: EmbodiedParams::paper_defaults(),
            flexible: explorer.workload().flexible_fraction(),
            dod: 1.0,
        }
    }
}

/// Per-thread buffers of the replay, mirroring `ce_core::EvalScratch`.
pub struct Scratch {
    pub supply: HourlySeries,
    schedule: ScheduleScratch,
    combined: CombinedScratch,
    pub order: CostOrder,
}

impl Scratch {
    pub fn new(explorer: &CarbonExplorer) -> Self {
        let demand = explorer.demand();
        Self {
            supply: HourlySeries::zeros(demand.start(), demand.len()),
            schedule: ScheduleScratch::default(),
            combined: CombinedScratch::default(),
            order: CostOrder::default(),
        }
    }
}

/// Fills the scratch supply for one (solar, wind) group and, for CAS,
/// rebuilds its cost order.
pub fn fill_group(
    explorer: &CarbonExplorer,
    strategy: StrategyKind,
    solar_mw: f64,
    wind_mw: f64,
    scratch: &mut Scratch,
    rec: &mut Recorder,
    id: u32,
) {
    rec.time(Layer::GridSupplyFill, id, || {
        explorer
            .grid()
            .scaled_renewables_into(solar_mw, wind_mw, &mut scratch.supply)
    });
    if matches!(strategy, StrategyKind::RenewablesCas) {
        let demand = explorer.demand().values();
        let Scratch { supply, order, .. } = scratch;
        rec.time(Layer::CostOrder, id, || {
            order.rebuild_from_deficit_slices(demand, supply.values())
        });
    }
}

/// Scores one design point against the scratch supply: the replay of
/// `CarbonExplorer::score_with_supply`, one span per stage call.
pub fn score(
    explorer: &CarbonExplorer,
    inv: &Invariants,
    strategy: StrategyKind,
    design: DesignPoint,
    scratch: &mut Scratch,
    rec: &mut Recorder,
    id: u32,
) -> EvaluatedDesign {
    let demand = explorer.demand();
    let intensity = explorer.grid_intensity();
    let Scratch {
        supply,
        schedule,
        combined,
        order,
    } = scratch;
    let battery_mwh = if strategy.uses_battery() {
        design.battery_mwh
    } else {
        0.0
    };
    let extra_fraction = if strategy.uses_cas() {
        design.extra_capacity_fraction
    } else {
        0.0
    };
    let capacity_cap = inv.peak_mw * (1.0 + extra_fraction);
    let (stats, operational_tons, cycles) = match strategy {
        StrategyKind::RenewablesOnly => {
            let (stats, op) = rec.time(Layer::DeficitStats, id, || {
                kernels::deficit_stats_dot_slices(
                    demand.values(),
                    supply.values(),
                    intensity.values(),
                )
            });
            (stats, op, 0.0)
        }
        StrategyKind::RenewablesBattery => {
            let mut battery = ClcBattery::lfp(battery_mwh, inv.dod);
            let r = rec
                .time(Layer::Dispatch, id, || {
                    simulate_dispatch_stats(&mut battery, demand, supply, intensity)
                })
                .expect("aligned");
            (r.deficit, r.unmet_dot, r.equivalent_cycles)
        }
        StrategyKind::RenewablesCas => {
            let scheduler = GreedyScheduler::new(CasConfig {
                max_capacity_mw: capacity_cap,
                flexible_ratio: inv.flexible,
            });
            rec.time(Layer::Schedule, id, || {
                scheduler.schedule_with_order(demand, supply, order, schedule)
            })
            .expect("aligned");
            let (stats, op) = rec.time(Layer::DeficitStats, id, || {
                kernels::deficit_stats_dot_slices(
                    schedule.shifted(),
                    supply.values(),
                    intensity.values(),
                )
            });
            (stats, op, 0.0)
        }
        StrategyKind::RenewablesBatteryCas => {
            let mut battery = ClcBattery::lfp(battery_mwh, inv.dod);
            let config = CombinedConfig {
                max_capacity_mw: capacity_cap,
                flexible_ratio: inv.flexible,
                window_hours: 24,
            };
            let r = rec
                .time(Layer::Combined, id, || {
                    combined_dispatch_stats(
                        &mut battery,
                        demand,
                        supply,
                        intensity,
                        config,
                        combined,
                    )
                })
                .expect("aligned");
            (r.deficit, r.unmet_dot, r.equivalent_cycles)
        }
    };
    let coverage = Coverage::from_sums(
        inv.demand_mwh,
        stats.unmet_mwh,
        stats.covered_hours,
        demand.len(),
    );
    let solar_energy = if design.solar_mw > 0.0 {
        inv.unit_solar_mwh * design.solar_mw
    } else {
        0.0
    };
    let wind_energy = if design.wind_mw > 0.0 {
        inv.unit_wind_mwh * design.wind_mw
    } else {
        0.0
    };
    EvaluatedDesign {
        strategy,
        design,
        coverage,
        operational_tons,
        embodied_renewables_tons: inv
            .embodied
            .renewables
            .total_tons(solar_energy, wind_energy),
        embodied_battery_tons: inv.embodied.battery.amortized_tons_per_year(
            battery_mwh,
            inv.dod,
            cycles,
        ),
        embodied_servers_tons: inv
            .embodied
            .server
            .amortized_tons_per_year(inv.peak_mw * extra_fraction),
        battery_cycles: cycles,
    }
}

/// The values of one `(min, max, steps)` axis, as `ce_core` spaces them.
fn axis_values((min, max, steps): (f64, f64, usize)) -> Vec<f64> {
    match steps {
        0 => Vec::new(),
        1 => vec![min],
        _ => (0..steps)
            .map(|i| min + (max - min) * i as f64 / (steps - 1) as f64)
            .collect(),
    }
}

/// What one worker of a replayed `optimal` hands back.
struct ChunkResult {
    best: Option<EvaluatedDesign>,
    recorders: Vec<Recorder>,
    busy_s: Vec<f64>,
}

/// One replayed `optimal` call.
struct Replay {
    best: Option<EvaluatedDesign>,
    recorders: Vec<Recorder>,
    busy_s: Vec<f64>,
    wall_s: f64,
}

fn first_min(incumbent: EvaluatedDesign, candidate: EvaluatedDesign) -> EvaluatedDesign {
    if candidate.total_tons() < incumbent.total_tons() {
        candidate
    } else {
        incumbent
    }
}

/// Replays `CarbonExplorer::optimal` on `ce_parallel::par_fold_chunks_with`
/// with the same grouping, chunking and first-minimum combine.
fn replay_optimal(
    explorer: &CarbonExplorer,
    inv: &Invariants,
    strategy: StrategyKind,
    space: &DesignSpace,
    traced: bool,
    epoch: Instant,
    id: u32,
) -> Replay {
    let space = space.restricted_to(strategy);
    let mut groups = Vec::new();
    for s in axis_values(space.solar) {
        for w in axis_values(space.wind) {
            groups.push((s, w));
        }
    }
    let mut sub = Vec::new();
    for b in axis_values(space.battery) {
        for e in axis_values(space.extra_capacity) {
            sub.push((b, e));
        }
    }
    let next_thread = AtomicU16::new(0);
    let start = Instant::now();
    let out = ce_parallel::par_fold_chunks_with(
        &groups,
        || {
            // ce:ordering(thread ids only label spans; no data is published through them)
            let thread = next_thread.fetch_add(1, Ordering::Relaxed);
            (Scratch::new(explorer), Recorder::new(traced, epoch, thread))
        },
        |(scratch, rec), chunk| {
            let busy = Instant::now();
            let mut best: Option<EvaluatedDesign> = None;
            for &(solar_mw, wind_mw) in chunk {
                rec.enter(Layer::CoreGroup, id);
                fill_group(explorer, strategy, solar_mw, wind_mw, scratch, rec, id);
                for &(battery_mwh, extra_capacity_fraction) in &sub {
                    let design = DesignPoint {
                        solar_mw,
                        wind_mw,
                        battery_mwh,
                        extra_capacity_fraction,
                    };
                    let eval = score(explorer, inv, strategy, design, scratch, rec, id);
                    best = Some(match best.take() {
                        Some(incumbent) => first_min(incumbent, eval),
                        None => eval,
                    });
                }
                rec.exit();
            }
            let busy_s = busy.elapsed().as_secs_f64();
            let rec = std::mem::replace(rec, Recorder::new(false, epoch, 0));
            ChunkResult {
                best,
                recorders: vec![rec],
                busy_s: vec![busy_s],
            }
        },
        |mut a, b| {
            a.best = match (a.best, b.best) {
                (Some(x), Some(y)) => Some(first_min(x, y)),
                (x, None) => x,
                (None, y) => y,
            };
            a.recorders.extend(b.recorders);
            a.busy_s.extend(b.busy_s);
            a
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let out = out.expect("benchmark grids are non-empty");
    Replay {
        best: out.best,
        recorders: out.recorders,
        busy_s: out.busy_s,
        wall_s,
    }
}

/// The traced run: alternating untraced passes (`optimal` itself) and
/// traced replay passes over every query, until `--seconds` is spent.
pub fn run_traced(args: &RunArgs) -> Outcome {
    let epoch = Instant::now();
    let mut setup_rec = Recorder::new(true, epoch, 0);
    let (explorers, _) = setup(args, &mut setup_rec);
    let queries = queries(&explorers);
    let invariants: Vec<Invariants> = explorers.iter().map(Invariants::new).collect();
    let mut outcome = Outcome::default();

    let mut setup_trace = Trace::default();
    setup_trace.absorb(setup_rec);
    let mut replay_trace = Trace::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut busy_total = 0.0;
    let mut capacity_total = 0.0;
    let mut imbalance = Vec::new();
    let mut passes = 0usize;
    let start = Instant::now();
    while passes == 0
        || (start.elapsed().as_secs_f64() < args.seconds && replay_trace.len() < crate::SPAN_BUDGET)
    {
        let t = Instant::now();
        for q in &queries {
            black_box(explorers[q.site].optimal(q.strategy, black_box(&q.space)));
        }
        untraced_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for (id, q) in queries.iter().enumerate() {
            let replay = replay_optimal(
                &explorers[q.site],
                &invariants[q.site],
                q.strategy,
                &q.space,
                true,
                epoch,
                id as u32,
            );
            outcome.attempted += 1;
            if replay.best.as_ref().map(bits) != Some(bits(&q.expected)) {
                outcome.failed += 1;
                outcome.problem(format!(
                    "{} {}: the traced replay differs from optimal",
                    SITES[q.site], q.strategy
                ));
            }
            let busy: f64 = replay.busy_s.iter().sum();
            let max = replay.busy_s.iter().copied().fold(0.0, f64::max);
            busy_total += busy;
            capacity_total += replay.busy_s.len() as f64 * replay.wall_s;
            imbalance.push(max / (busy / replay.busy_s.len() as f64));
            for rec in replay.recorders {
                replay_trace.absorb(rec);
            }
        }
        traced_s.push(t.elapsed().as_secs_f64());
        passes += 1;
    }

    let setup = setup_trace.totals();
    let replay = replay_trace.totals();
    let per_pass = |calls: u64| calls as f64 / passes as f64;
    let points: usize = queries.iter().map(|q| q.points).sum();
    let hours = explorers[0].demand().len() as f64;
    let mut report = LayerReport::default();
    report.set(
        "grid.synthesize_ms",
        setup.mean_us(Layer::GridSynthesize) / 1e3,
    );
    report.set(
        "grid.synthesize_calls",
        setup.calls(Layer::GridSynthesize) as f64 / SETUP_REPS as f64,
    );
    report.set(
        "datacenter.demand_trace_ms",
        setup.mean_us(Layer::DemandTrace) / 1e3,
    );
    report.set(
        "core.explorer_new_ms",
        setup.mean_us(Layer::ExplorerNew) / 1e3,
    );
    report.kernel_layers(&replay, passes);
    report.set(
        "core.points_per_supply_fill",
        points as f64 / per_pass(replay.calls(Layer::GridSupplyFill)),
    );
    report.set(
        "core.self_us",
        replay.self_us(Layer::CoreGroup) / (points * passes) as f64,
    );
    report.set(
        "battery.hours_simulated",
        per_pass(replay.calls(Layer::Dispatch) + replay.calls(Layer::Combined)) * hours,
    );
    report.set("parallel.busy_share", busy_total / capacity_total);
    report.set("parallel.imbalance", median(&mut imbalance));
    report.set(
        "trace.overhead_share",
        median(&mut traced_s) / median(&mut untraced_s) - 1.0,
    );
    report.set(
        "trace.reconcile_gap",
        (replay.total_self_us() - busy_total * 1e6).abs() / (busy_total * 1e6),
    );
    eprintln!(
        "sweep (traced): {passes} passes of {} queries",
        queries.len()
    );
    report.write_spans(args, &[&setup_trace, &replay_trace]);
    outcome.per_layer = Some(report);
    outcome
}

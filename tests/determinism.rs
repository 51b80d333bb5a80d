//! Reproducibility: every stochastic model in the workspace must be a pure
//! function of its seed, because the committed EXPERIMENTS.md numbers are
//! promised to be bit-for-bit reproducible.

use carbon_explorer::prelude::*;

#[test]
fn grid_synthesis_is_seed_deterministic() {
    for ba in BalancingAuthority::ALL {
        let a = GridDataset::synthesize(ba, 2020, 7);
        let b = GridDataset::synthesize(ba, 2020, 7);
        assert_eq!(a, b, "{ba} not deterministic");
        assert_ne!(a, GridDataset::synthesize(ba, 2020, 8), "{ba} ignores seed");
    }
}

#[test]
fn different_bas_produce_different_years() {
    // Seed-stream separation: the same seed must not alias across BAs.
    let pace = GridDataset::synthesize(BalancingAuthority::PACE, 2020, 7);
    let erco = GridDataset::synthesize(BalancingAuthority::ERCO, 2020, 7);
    assert_ne!(pace.wind().values(), erco.wind().values());
}

#[test]
fn demand_traces_are_seed_deterministic_and_site_separated() {
    let fleet = Fleet::meta_us();
    let ut = fleet.site("UT").unwrap();
    assert_eq!(ut.demand_trace(2020, 7), ut.demand_trace(2020, 7));
    // Same seed, different sites → different traces (stream separation).
    let or = fleet.site("OR").unwrap();
    let ut_normalized = ut.demand_trace(2020, 7).scale(1.0 / ut.avg_power_mw());
    let or_normalized = or.demand_trace(2020, 7).scale(1.0 / or.avg_power_mw());
    assert_ne!(ut_normalized, or_normalized);
}

#[test]
fn full_evaluation_pipeline_is_deterministic() {
    let evaluate = || {
        let site = Fleet::meta_us().site("UT").unwrap().clone();
        let grid = GridDataset::synthesize(site.ba(), 2020, 7);
        let explorer = CarbonExplorer::new(site.demand_trace(2020, 7), grid);
        let design = DesignPoint {
            solar_mw: 200.0,
            wind_mw: 100.0,
            battery_mwh: 80.0,
            extra_capacity_fraction: 0.2,
        };
        explorer.evaluate(StrategyKind::RenewablesBatteryCas, &design)
    };
    let a = evaluate();
    let b = evaluate();
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.operational_tons, b.operational_tons);
    assert_eq!(a.embodied_renewables_tons, b.embodied_renewables_tons);
    assert_eq!(a.battery_cycles, b.battery_cycles);
}

#[test]
fn leap_year_lengths_flow_through_the_stack() {
    // 2020 is a leap year (8784 h); 2021 is not (8760 h). Every layer must
    // agree or alignment checks would reject mixed inputs.
    let site = Fleet::meta_us().site("TX").unwrap().clone();
    for (year, hours) in [(2020, 8784), (2021, 8760)] {
        let grid = GridDataset::synthesize(site.ba(), year, 7);
        let demand = site.demand_trace(year, 7);
        assert_eq!(grid.wind().len(), hours);
        assert_eq!(demand.len(), hours);
        // And they compose without alignment errors.
        let supply = grid.scaled_renewables(site.solar_mw(), site.wind_mw());
        assert!(renewable_coverage(&demand, &supply).is_ok());
    }
}

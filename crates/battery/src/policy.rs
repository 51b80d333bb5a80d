//! Charge/discharge dispatch policies beyond the paper's greedy default.
//!
//! The discussion section notes that datacenters "may wish to implement
//! custom battery charge-discharge policies". A policy decides, given the
//! hour's renewable balance and an optional carbon-intensity signal, how
//! hard to charge or discharge. Three are provided:
//!
//! - [`GreedyPolicy`] — the paper's behaviour: charge every surplus watt,
//!   discharge for every deficit watt (maximize renewable utilization);
//! - [`ThresholdPolicy`] — discharge only when the grid is dirtier than a
//!   threshold, preserving stored energy for the worst hours;
//! - [`PeakShavingPolicy`] — classic datacenter UPS economics: discharge
//!   only when demand exceeds a power cap, charge only below it.

use crate::api::BatteryModel;
use ce_timeseries::{HourlySeries, TimeSeriesError};

/// An hourly charge/discharge decision rule.
///
/// `surplus` is renewable supply minus demand for the hour (negative =
/// deficit), `intensity` the grid's carbon intensity (t/MWh). Returns the
/// power (MW) to *request* from the battery: positive = discharge toward
/// the load, negative = charge from the surplus. The dispatch loop clamps
/// the request against what is physically available.
pub trait DispatchPolicy {
    /// The request for one hour.
    fn request(&self, surplus: f64, intensity: f64, demand: f64) -> f64;
}

/// The paper's default: absorb all surplus, cover all deficit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyPolicy;

impl DispatchPolicy for GreedyPolicy {
    fn request(&self, surplus: f64, _intensity: f64, _demand: f64) -> f64 {
        -surplus
    }
}

/// Discharges only when grid carbon intensity exceeds `threshold_t_per_mwh`;
/// always charges on surplus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPolicy {
    /// Grid intensity above which stored energy is worth spending, t/MWh.
    pub threshold_t_per_mwh: f64,
}

impl DispatchPolicy for ThresholdPolicy {
    fn request(&self, surplus: f64, intensity: f64, _demand: f64) -> f64 {
        // Charge on any surplus; on deficit, spend stored energy only when
        // the grid is dirtier than the threshold.
        if surplus >= 0.0 || intensity >= self.threshold_t_per_mwh {
            -surplus
        } else {
            0.0
        }
    }
}

/// Discharges only to keep grid draw under `cap_mw`; charges with any
/// surplus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakShavingPolicy {
    /// Maximum tolerated grid draw, MW.
    pub cap_mw: f64,
}

impl DispatchPolicy for PeakShavingPolicy {
    fn request(&self, surplus: f64, _intensity: f64, _demand: f64) -> f64 {
        if surplus >= 0.0 {
            -surplus
        } else {
            // Grid draw without battery = -surplus; shave the excess.
            (-surplus - self.cap_mw).max(0.0)
        }
    }
}

/// Outcome of a policy-driven dispatch run.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDispatchResult {
    /// Grid energy drawn per hour, MW.
    pub grid_draw: HourlySeries,
    /// Operational carbon of the grid draw, tons CO2.
    pub operational_tons: f64,
    /// Equivalent full cycles performed.
    pub equivalent_cycles: f64,
    /// Peak grid draw over the run, MW.
    pub peak_grid_draw_mw: f64,
}

/// Dispatches `battery` under `policy` against demand/supply and the grid
/// intensity signal. The battery starts full.
///
/// # Errors
///
/// Returns an alignment error if any series is misaligned.
pub fn dispatch_with_policy(
    battery: &mut dyn BatteryModel,
    policy: &dyn DispatchPolicy,
    demand: &HourlySeries,
    supply: &HourlySeries,
    intensity: &HourlySeries,
) -> Result<PolicyDispatchResult, TimeSeriesError> {
    demand.check_aligned(supply)?;
    demand.check_aligned(intensity)?;
    battery.reset(1.0);

    let mut grid = Vec::with_capacity(demand.len());
    let mut operational = 0.0;
    let mut discharged = 0.0;

    for h in 0..demand.len() {
        let surplus = supply[h] - demand[h];
        let request = policy.request(surplus, intensity[h], demand[h]);
        let mut draw = (-surplus).max(0.0); // grid draw before the battery
        if request > 0.0 {
            // Discharge toward the load (never beyond the actual deficit).
            let delivered = battery.discharge(request.min(draw));
            discharged += delivered;
            draw -= delivered;
        } else if request < 0.0 && surplus > 0.0 {
            // Charge from surplus (never more than is actually spare).
            battery.charge((-request).min(surplus));
        }
        operational += draw * intensity[h];
        grid.push(draw);
    }

    let grid_draw = HourlySeries::from_values(demand.start(), grid);
    Ok(PolicyDispatchResult {
        peak_grid_draw_mw: grid_draw.max().unwrap_or(0.0),
        operational_tons: operational,
        equivalent_cycles: battery.equivalent_cycles(discharged),
        grid_draw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IdealBattery;
    use crate::clc::ClcBattery;
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    fn scenario() -> (HourlySeries, HourlySeries, HourlySeries) {
        // Alternating surplus/deficit with alternating dirty/clean grid.
        let demand = HourlySeries::constant(start(), 8, 10.0);
        let supply =
            HourlySeries::from_values(start(), vec![20.0, 0.0, 20.0, 0.0, 20.0, 5.0, 20.0, 5.0]);
        let intensity =
            HourlySeries::from_values(start(), vec![0.2, 0.8, 0.2, 0.1, 0.2, 0.9, 0.2, 0.1]);
        (demand, supply, intensity)
    }

    #[test]
    fn greedy_policy_matches_simulate_dispatch() {
        let (demand, supply, intensity) = scenario();
        let mut a = ClcBattery::lfp(15.0, 1.0);
        let policy_result =
            dispatch_with_policy(&mut a, &GreedyPolicy, &demand, &supply, &intensity).unwrap();
        let mut b = ClcBattery::lfp(15.0, 1.0);
        let direct = crate::simulate::simulate_dispatch(&mut b, &demand, &supply).unwrap();
        assert_eq!(policy_result.grid_draw, direct.unmet);
        assert!((policy_result.equivalent_cycles - direct.equivalent_cycles).abs() < 1e-9);
    }

    #[test]
    fn threshold_policy_saves_scarce_energy_for_dirty_hours() {
        // One battery-full of energy, then a clean deficit followed by a
        // dirty one: greedy spends the battery on the clean hour and eats
        // the dirty one from the grid; the threshold policy waits.
        let demand = HourlySeries::constant(start(), 3, 10.0);
        let supply = HourlySeries::from_values(start(), vec![20.0, 0.0, 0.0]);
        let intensity = HourlySeries::from_values(start(), vec![0.2, 0.1, 0.9]);
        let mut greedy_batt = IdealBattery::new(10.0);
        let greedy = dispatch_with_policy(
            &mut greedy_batt,
            &GreedyPolicy,
            &demand,
            &supply,
            &intensity,
        )
        .unwrap();
        let mut thresh_batt = IdealBattery::new(10.0);
        let thresh = dispatch_with_policy(
            &mut thresh_batt,
            &ThresholdPolicy {
                threshold_t_per_mwh: 0.5,
            },
            &demand,
            &supply,
            &intensity,
        )
        .unwrap();
        // Greedy: clean hour covered, dirty hour on the grid (9 t).
        // Threshold: clean hour on the grid (1 t), dirty hour covered.
        assert!((greedy.operational_tons - 9.0).abs() < 1e-9);
        assert!((thresh.operational_tons - 1.0).abs() < 1e-9);
        // Both draw the same total grid energy, just at different hours.
        assert!((thresh.grid_draw.sum() - greedy.grid_draw.sum()).abs() < 1e-9);
    }

    #[test]
    fn peak_shaving_caps_grid_draw() {
        let (demand, supply, intensity) = scenario();
        let mut battery = IdealBattery::new(50.0);
        let result = dispatch_with_policy(
            &mut battery,
            &PeakShavingPolicy { cap_mw: 4.0 },
            &demand,
            &supply,
            &intensity,
        )
        .unwrap();
        assert!(result.peak_grid_draw_mw <= 4.0 + 1e-9);
    }

    #[test]
    fn peak_shaving_runs_out_of_stored_energy_gracefully() {
        let demand = HourlySeries::constant(start(), 6, 10.0);
        let supply = HourlySeries::zeros(start(), 6);
        let intensity = HourlySeries::constant(start(), 6, 0.5);
        let mut battery = IdealBattery::new(12.0);
        let result = dispatch_with_policy(
            &mut battery,
            &PeakShavingPolicy { cap_mw: 6.0 },
            &demand,
            &supply,
            &intensity,
        )
        .unwrap();
        // 4 MW shaved for 3 hours drains the 12 MWh battery; afterwards
        // the full 10 MW hits the grid.
        assert!((result.grid_draw[0] - 6.0).abs() < 1e-9);
        assert!((result.grid_draw[5] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn policies_are_object_safe() {
        let policies: Vec<Box<dyn DispatchPolicy>> = vec![
            Box::new(GreedyPolicy),
            Box::new(ThresholdPolicy {
                threshold_t_per_mwh: 0.4,
            }),
            Box::new(PeakShavingPolicy { cap_mw: 5.0 }),
        ];
        for p in &policies {
            let _ = p.request(-3.0, 0.5, 10.0);
        }
    }

    #[test]
    fn misaligned_series_error() {
        let demand = HourlySeries::zeros(start(), 2);
        let supply = HourlySeries::zeros(start(), 3);
        let mut battery = IdealBattery::new(1.0);
        assert!(
            dispatch_with_policy(&mut battery, &GreedyPolicy, &demand, &supply, &demand).is_err()
        );
    }
}

//! Power-grid substrate: synthetic hourly generation data per balancing
//! authority, fuel carbon intensities, investment scaling, and curtailment.
//!
//! The paper drives Carbon Explorer with the EIA Hourly Grid Monitor's 2020
//! data for the ten balancing authorities (BAs) that serve Meta's US
//! datacenters. That data is not shippable, so this crate *synthesizes* it:
//! physically-motivated solar (solar geometry + AR(1) cloud cover) and wind
//! (two-timescale AR(1) wind speed through a turbine power curve) models are
//! parameterized per BA to reproduce the three regimes the paper's analysis
//! depends on:
//!
//! - **majorly wind** (BPAT, MISO, SWPP): large day-to-day swings, including
//!   near-zero days — the deep "supply valleys" that make Oregon hard;
//! - **majorly solar** (DUK, SOCO, TVA): generation only during daylight,
//!   capping 24/7 coverage near 50% no matter the investment;
//! - **hybrid** (ERCO, PACE, PJM, PNM, CISO): complementary wind and solar
//!   with shallower valleys.
//!
//! All synthesis is deterministic given a seed. See `DESIGN.md` at the
//! repository root for the full substitution rationale.
//!
//! # Example
//!
//! ```
//! use ce_grid::{BalancingAuthority, GridDataset};
//!
//! let grid = GridDataset::synthesize(BalancingAuthority::PACE, 2020, 7);
//! // Scale the grid's wind profile to a 200 MW investment, per the paper's
//! // linear-scaling methodology.
//! let wind = grid.scaled_wind(200.0);
//! assert!(wind.max().unwrap() <= 200.0 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancing_authority;
pub mod carbon_intensity;
pub mod curtailment;
pub mod fuel;
pub mod solar;
pub mod synthesis;
pub mod wind;

pub use balancing_authority::{BaProfile, BalancingAuthority};
pub use carbon_intensity::carbon_intensity_series;
pub use curtailment::{curtailed_energy, CurtailmentRecord};
pub use fuel::FuelType;
pub use synthesis::GridDataset;

//! Design/compile-time design-space exploration (paper §4.2).
//!
//! Two exploration stages produce the design-point databases the run-time
//! layer adapts over:
//!
//! 1. [`explore_based`] — the *system-level MOEA*: a hyper-volume-fitness
//!    GA (Eq. 5, Fig. 4a) over CLR-integrated task mappings, returning the
//!    Pareto-front database **BaseD**. This matches the purely
//!    performance-oriented hybrid remapping of Rehman et al.\ (ref.\ 11) that the
//!    paper compares against.
//! 2. [`explore_red`] — the *reconfiguration-cost-aware* stage (§4.2.1,
//!    Fig. 4b): every Pareto point seeds a neighbourhood GA that tolerates
//!    bounded QoS/performance degradation and minimises the average
//!    reconfiguration distance `dRC` to the Pareto set, contributing the
//!    additional non-dominant points of database **ReD**.
//!
//! The problem encoding ([`ClrMappingProblem`]) follows Eq. (4): one gene
//! per task selecting `(PE binding, implementation, CLR configuration,
//! schedule priority)`, i.e. `Ψ_t = M_t × C_t`.
//!
//! # Examples
//!
//! ```
//! use clr_dse::{DseConfig, explore_based};
//! use clr_platform::Platform;
//! use clr_reliability::{ConfigSpace, FaultModel};
//! use clr_taskgraph::{TgffConfig, TgffGenerator};
//! use clr_moea::GaParams;
//!
//! let graph = TgffGenerator::new(TgffConfig::with_tasks(10)).generate(1);
//! let platform = Platform::dac19();
//! let cfg = DseConfig {
//!     ga: GaParams::small(),
//!     ..DseConfig::default()
//! };
//! let db = explore_based(&graph, &platform, FaultModel::default(),
//!                        ConfigSpace::fine(), &cfg, 42);
//! assert!(!db.is_empty());
//! ```

mod based;
mod codec;
mod database;
mod enumerate;
mod index;
mod point;
mod problem;
mod red;
pub mod sealed;

pub use based::{explore_based, explore_based_with};
pub use codec::{point_text, CodecError};
pub use database::DesignPointDb;
pub use enumerate::{enumerate_exact, SpaceTooLarge};
pub use index::FeasibilityIndex;
pub use point::{DesignPoint, PointOrigin, QosSpec};
pub use problem::{ClrMappingProblem, DseConfig, ExplorationMode, ProblemVariant};
pub use red::{explore_red, explore_red_with, RedConfig};

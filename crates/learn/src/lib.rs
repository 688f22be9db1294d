//! Online policy learning for the serve loop — the "Online AuRA" layer.
//!
//! The offline pipeline trains an AuRA agent against a simulator and
//! freezes it; this crate closes the loop at serve time. Each tenant
//! carries a [`LearnerState`] holding **two** value tables over the same
//! stored design points:
//!
//! * the **incumbent** (`live`) — frozen, exactly what a deployed
//!   [`clr_runtime::AuraAgent`] would serve;
//! * the **candidate** (`shadow`) — TD(0)-updated online from every
//!   executed transition the session reports through the
//!   [`observe`](clr_runtime::RuntimePolicy::observe) hook.
//!
//! Every scored decision evaluates *both* tables and records a
//! [`ShadowRecord`] with each pick's one-step counterfactual regret, so
//! the candidate is judged on the same events the incumbent served. A
//! deterministic seeded A/B split ([`assign_variant`]) decides which
//! table actually serves each tenant; an explicit `Promote` control
//! frame copies the candidate over the incumbent at a deterministic
//! stream position. Learned transition counts double as a
//! reconfiguration **prefetch** predictor whose hits overlap
//! reconfiguration cost with execution.
//!
//! Everything here is a pure function of `(config, tenant name, event
//! stream)` — no wall clock, no global RNG — so replays are
//! byte-identical at any `CLR_THREADS`, and learner state checkpoints
//! ([`LearnerState::to_bytes`]) survive restarts and database hot-swaps
//! with byte-exact round-trips.

mod ab;
mod checkpoint;
mod config;
mod learner;

pub use ab::{assign_variant, Variant};
pub use checkpoint::{is_learn_checkpoint, CheckpointError, LEARN_FORMAT_VERSION, LEARN_MAGIC};
pub use config::LearnConfig;
pub use learner::{LearnerState, ShadowRecord, Table};

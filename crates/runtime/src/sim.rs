//! Discrete-event Monte-Carlo simulation of run-time adaptation
//! (paper §5.1–5.2).

use std::collections::VecDeque;

use clr_dse::QosSpec;
use clr_obs::{Event, Obs};
use serde::{Deserialize, Serialize};

use crate::{EventStream, QosVariationModel, RuntimeContext, RuntimeError};

/// Everything a policy needs to make one adaptation decision.
///
/// Hot loops compute the feasible set once per event into a reusable
/// buffer and hand the slice to the policy through this struct, so a
/// decision performs no allocation and no second database filter.
#[derive(Debug, Clone, Copy)]
pub struct DecisionInput<'a, 'ctx> {
    /// Shared run-time state: the stored database, the pairwise `dRC`
    /// matrix and the min–max normalisers.
    pub ctx: &'a RuntimeContext<'ctx>,
    /// Index of the currently active design point.
    pub current: usize,
    /// The new QoS requirement that triggered this decision.
    pub spec: &'a QosSpec,
    /// Feasible stored points under `spec`, ascending — exactly
    /// `ctx.feasible(spec)`.
    pub feasible: &'a [usize],
}

/// A policy's answer to one [`DecisionInput`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecisionOutcome {
    /// The selected design point, or `None` when no stored point is
    /// feasible (the system then keeps its current configuration).
    pub choice: Option<usize>,
    /// The winning RET score, when the policy has a scalar score
    /// (e.g. [`crate::HvPolicy`] reports none). Journal decision records
    /// carry it whenever present.
    pub score: Option<f64>,
    /// The policy's `p_RC` modulation parameter, when it has one.
    pub p_rc: Option<f64>,
}

impl DecisionOutcome {
    /// An outcome carrying only a choice — for policies without
    /// introspection data.
    pub fn bare(choice: Option<usize>) -> Self {
        Self {
            choice,
            score: None,
            p_rc: None,
        }
    }
}

/// Post-decision feedback: the transition that was actually executed
/// (including staying put, and including degradation-ladder overrides
/// the policy did not choose itself).
#[derive(Debug, Clone, Copy)]
pub struct Feedback<'a, 'ctx> {
    /// Shared run-time state at the moment of the transition.
    pub ctx: &'a RuntimeContext<'ctx>,
    /// Active design point before the event.
    pub from: usize,
    /// Active design point after the event.
    pub to: usize,
}

/// A run-time adaptation policy driving the discrete-event simulation.
///
/// [`crate::UraPolicy`] is stateless; [`crate::AuraAgent`] learns from the
/// `observe`/`end_episode` callbacks.
///
/// `Send` is a supertrait so boxed policies can live inside resident
/// serving state that migrates across worker threads (clr-serve's
/// sharded tenant sessions); every policy is plain owned data, so the
/// bound costs implementors nothing.
pub trait RuntimePolicy: Send {
    /// Makes one adaptation decision: selects the next design point for
    /// the new requirement (or none, keeping the current configuration)
    /// plus whatever introspection data the policy exposes for journal
    /// decision records.
    fn decide(&mut self, input: &DecisionInput<'_, '_>) -> DecisionOutcome;

    /// Notified after each executed transition (including staying put).
    /// The default is a no-op; learning policies accumulate experience
    /// here.
    fn observe(&mut self, _feedback: &Feedback<'_, '_>) {}

    /// Notified at each episode boundary (a fixed number of application
    /// cycles; paper: "typically a thousand application execution cycles").
    fn end_episode(&mut self) {}
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Total simulated application execution cycles.
    pub total_cycles: f64,
    /// Mean inter-event gap in cycles (paper: 100).
    pub mean_event_gap: f64,
    /// Episode length in cycles for RL value updates (paper: ~1000).
    pub episode_cycles: f64,
    /// RNG seed for the event stream.
    pub seed: u64,
    /// Index of the initially active design point.
    pub initial_point: usize,
    /// Cap on the number of retained trace records (0 = keep none). The
    /// trace is a ring buffer: when more than `max_trace` events occur, the
    /// **last** `max_trace` records are kept — the tail of a run is what
    /// post-mortem debugging needs. Use [`simulate_obs`] with an enabled
    /// [`Obs`] handle to journal *every* decision instead.
    pub max_trace: usize,
}

impl SimConfig {
    /// The paper's full evaluation: one million application execution
    /// cycles, 100-cycle mean gaps, 1000-cycle episodes.
    pub fn paper(seed: u64) -> Self {
        Self {
            total_cycles: 1_000_000.0,
            mean_event_gap: 100.0,
            episode_cycles: 1_000.0,
            seed,
            initial_point: 0,
            max_trace: 0,
        }
    }

    /// A fast configuration for tests and smoke benches (20 k cycles).
    pub fn quick(seed: u64) -> Self {
        Self {
            total_cycles: 20_000.0,
            ..Self::paper(seed)
        }
    }

    /// Returns a copy retaining up to the *last* `n` trace records.
    pub fn with_trace(mut self, n: usize) -> Self {
        self.max_trace = n;
        self
    }
}

/// One retained adaptation event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Event time in cycles.
    pub time: f64,
    /// The new QoS requirement.
    pub spec: QosSpec,
    /// Active point before the event.
    pub from: usize,
    /// Active point after the event.
    pub to: usize,
    /// Reconfiguration cost paid.
    pub drc: f64,
    /// `true` if no stored point satisfied the requirement.
    pub violated: bool,
}

/// Aggregate outcome of one Monte-Carlo run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Number of QoS-change events processed.
    pub events: usize,
    /// Number of events that actually moved the operating point.
    pub reconfigurations: usize,
    /// Events for which no stored point was feasible.
    pub violations: usize,
    /// Sum of all paid reconfiguration costs.
    pub total_reconfig_cost: f64,
    /// Mean reconfiguration cost per event (the paper's "average
    /// reconfiguration cost").
    pub avg_reconfig_cost: f64,
    /// Largest single reconfiguration cost (`ΔdRC` in Fig. 6).
    pub max_reconfig_cost: f64,
    /// Time-weighted mean energy of the active operating point (the
    /// paper's "average energy consumption" `J_avg`).
    pub avg_energy: f64,
    /// Total run-time DSE work: stored design points scanned across all
    /// adaptation decisions (each event filters and scores the whole
    /// database). This is the run-time DSE latency the paper's conclusion
    /// warns grows with the number of stored points.
    pub decision_work: u64,
    /// Retained per-event records: the **last** `SimConfig::max_trace`
    /// events, in time order. Private so the simulation loop is the single
    /// pathway producing trace data; read via [`SimResult::trace`].
    trace: Vec<TraceRecord>,
}

impl SimResult {
    /// The retained trace: the last `SimConfig::max_trace` adaptation
    /// events, in time order.
    pub fn trace(&self) -> &[TraceRecord] {
        &self.trace
    }
}

/// Runs the discrete-event Monte-Carlo simulation.
///
/// # Panics
///
/// Panics if `initial_point` is out of range for the context's database.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn simulate<P: RuntimePolicy + ?Sized>(
    ctx: &RuntimeContext<'_>,
    policy: &mut P,
    qos: &QosVariationModel,
    config: &SimConfig,
) -> SimResult {
    simulate_obs(ctx, policy, qos, config, &Obs::off(), "sim")
}

/// [`simulate`] with the configuration validated up front: a bad
/// `initial_point` comes back as a typed [`RuntimeError`] instead of a
/// panic, so callers holding externally supplied configurations (CLIs,
/// the serve path) can degrade instead of aborting.
///
/// # Errors
///
/// [`RuntimeError::BadInitialPoint`] when `config.initial_point` is out
/// of range for the context's database.
pub fn simulate_checked<P: RuntimePolicy + ?Sized>(
    ctx: &RuntimeContext<'_>,
    policy: &mut P,
    qos: &QosVariationModel,
    config: &SimConfig,
) -> Result<SimResult, RuntimeError> {
    if config.initial_point >= ctx.len() {
        return Err(RuntimeError::BadInitialPoint {
            index: config.initial_point,
            len: ctx.len(),
        });
    }
    Ok(simulate(ctx, policy, qos, config))
}

/// Upper bucket bounds of the `sim.drc` reconfiguration-cost histogram.
const DRC_BUCKET_BOUNDS: [f64; 8] = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0];

/// [`simulate`] with journal instrumentation: emits one `sim_start`
/// event, one `decision` record per QoS event (feasible-set size, chosen
/// point, `dRC`, the policy's RET score and `p_RC` when available), a
/// `sim_end` summary, and a simulated-cycle logical-clock span, plus
/// `sim.*` recorder counters and a `sim.drc` cost histogram.
///
/// Everything is emitted from the (serial) event loop, so journals are
/// bit-identical across thread counts. `label` names this simulation in
/// the journal; make it unique per run when simulating several databases.
/// With a disabled handle this is exactly [`simulate`].
///
/// # Panics
///
/// Panics if `initial_point` is out of range for the context's database.
pub fn simulate_obs<P: RuntimePolicy + ?Sized>(
    ctx: &RuntimeContext<'_>,
    policy: &mut P,
    qos: &QosVariationModel,
    config: &SimConfig,
    obs: &Obs,
    label: &str,
) -> SimResult {
    assert!(
        config.initial_point < ctx.len(),
        "initial point {} out of range ({} stored)",
        config.initial_point,
        ctx.len()
    );
    if obs.enabled() {
        obs.emit(Event::SimStart {
            label: label.to_string(),
            points: ctx.len(),
            seed: config.seed,
        });
    }
    let mut events = EventStream::new(*qos, config.mean_event_gap, config.seed);
    let mut current = config.initial_point;
    let mut last_time = 0.0f64;
    let mut next_episode_end = config.episode_cycles;

    let mut result = SimResult {
        events: 0,
        reconfigurations: 0,
        violations: 0,
        total_reconfig_cost: 0.0,
        avg_reconfig_cost: 0.0,
        max_reconfig_cost: 0.0,
        avg_energy: 0.0,
        decision_work: 0,
        trace: Vec::new(),
    };
    // Ring buffer of the most recent `max_trace` records; overflow evicts
    // the oldest, so the retained window is the tail of the run.
    let mut ring: VecDeque<TraceRecord> = VecDeque::new();
    let mut energy_time_integral = 0.0f64;
    // One feasibility query per event, reusing a single buffer for the
    // whole run (`feasible_into` + `decide`).
    let mut feas_buf: Vec<usize> = Vec::new();

    loop {
        let event = events.next_event();
        let horizon = event.time.min(config.total_cycles);
        // Accumulate dwell energy of the active point.
        // `current` starts validated (the assert above) and every later
        // value is a feasible index, so the lookup cannot miss.
        let dwell_energy = ctx.db().get(current).map_or(0.0, |p| p.metrics.energy);
        energy_time_integral += dwell_energy * (horizon - last_time);
        last_time = horizon;

        // Episode boundaries passed before this event.
        while next_episode_end <= horizon {
            policy.end_episode();
            next_episode_end += config.episode_cycles;
        }
        if event.time >= config.total_cycles {
            break;
        }

        result.events += 1;
        result.decision_work += ctx.len() as u64;
        ctx.feasible_into(&event.spec, &mut feas_buf);
        let feasible = feas_buf.len();
        let outcome = policy.decide(&DecisionInput {
            ctx,
            current,
            spec: &event.spec,
            feasible: &feas_buf,
        });
        let (decision, score, p_rc) = (outcome.choice, outcome.score, outcome.p_rc);
        let (to, violated) = match decision {
            Some(p) => (p, false),
            None => (current, true),
        };
        let drc = ctx.drc(current, to);
        policy.observe(&Feedback {
            ctx,
            from: current,
            to,
        });

        if violated {
            result.violations += 1;
        }
        if to != current {
            result.reconfigurations += 1;
        }
        result.total_reconfig_cost += drc;
        if drc > result.max_reconfig_cost {
            result.max_reconfig_cost = drc;
        }
        // Single trace pathway: the same decision data feeds the in-memory
        // ring buffer and the journal decision record.
        let record = TraceRecord {
            time: event.time,
            spec: event.spec,
            from: current,
            to,
            drc,
            violated,
        };
        if config.max_trace > 0 {
            if ring.len() == config.max_trace {
                ring.pop_front();
            }
            ring.push_back(record);
        }
        if obs.enabled() {
            obs.emit(Event::Decision {
                event: result.events,
                cycle: event.time,
                feasible,
                from: current,
                to,
                drc,
                score,
                p_rc,
                violated,
            });
            obs.counter_add("sim.events", 1);
            if to != current {
                obs.counter_add("sim.reconfigurations", 1);
            }
            if violated {
                obs.counter_add("sim.violations", 1);
            }
            obs.histogram_record("sim.drc", &DRC_BUCKET_BOUNDS, drc);
        }
        current = to;
    }
    result.trace = ring.into();

    result.avg_reconfig_cost = if result.events > 0 {
        result.total_reconfig_cost / result.events as f64
    } else {
        0.0
    };
    result.avg_energy = if config.total_cycles > 0.0 {
        energy_time_integral / config.total_cycles
    } else {
        0.0
    };
    if obs.enabled() {
        obs.emit(Event::SimEnd {
            label: label.to_string(),
            events: result.events,
            reconfigurations: result.reconfigurations,
            violations: result.violations,
            total_drc: result.total_reconfig_cost,
        });
        obs.emit(Event::Span {
            label: label.to_string(),
            clock: "cycle".to_string(),
            start: 0.0,
            end: config.total_cycles,
        });
    }
    result
}

/// Runs `replications` independent Monte-Carlo replications of the same
/// simulation, fanned out over `threads` workers (`0` = automatic: the
/// `CLR_THREADS` environment variable, falling back to available
/// parallelism).
///
/// Replication `i` simulates with a fresh policy from `make_policy(i)` and
/// an RNG stream derived from `(config.seed, i)`, so results are in
/// replication order and bit-identical for every thread count.
///
/// Replications run **un-instrumented**: their inner [`simulate`] calls
/// execute on worker threads, where journal emission would make event
/// order depend on scheduling. Use [`simulate_obs`] on a single run when
/// per-decision records are needed.
///
/// # Panics
///
/// Panics if `config.initial_point` is out of range for the context's
/// database.
pub fn simulate_replications<P, F>(
    ctx: &RuntimeContext<'_>,
    make_policy: F,
    qos: &QosVariationModel,
    config: &SimConfig,
    replications: usize,
    threads: usize,
) -> Vec<SimResult>
where
    P: RuntimePolicy,
    F: Fn(usize) -> P + Sync,
{
    let indices: Vec<usize> = (0..replications).collect();
    clr_par::par_map(threads, &indices, |_, &r| {
        let mut policy = make_policy(r);
        let replication = SimConfig {
            seed: clr_par::derive_seed(config.seed, r as u64),
            ..*config
        };
        simulate(ctx, &mut policy, qos, &replication)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UraPolicy;
    use clr_dse::{explore_based, DesignPointDb, DseConfig, ExplorationMode};
    use clr_moea::GaParams;
    use clr_platform::Platform;
    use clr_reliability::{ConfigSpace, FaultModel};
    use clr_taskgraph::{TgffConfig, TgffGenerator};

    fn fixture(seed: u64) -> (clr_taskgraph::TaskGraph, Platform, DesignPointDb) {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(10)).generate(seed);
        let platform = Platform::dac19();
        let cfg = DseConfig {
            ga: GaParams::small(),
            mode: ExplorationMode::Full,
            reference: None,
            max_points: None,
        };
        let db = explore_based(
            &graph,
            &platform,
            FaultModel::default(),
            ConfigSpace::fine(),
            &cfg,
            seed,
        );
        (graph, platform, db)
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let (g, p, db) = fixture(31);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut pol1 = UraPolicy::new(0.5).unwrap();
        let mut pol2 = UraPolicy::new(0.5).unwrap();
        let a = simulate(&ctx, &mut pol1, &qos, &SimConfig::quick(1));
        let b = simulate(&ctx, &mut pol2, &qos, &SimConfig::quick(1));
        assert_eq!(a, b);
    }

    #[test]
    fn serial_and_parallel_replications_are_bit_identical() {
        let (g, p, db) = fixture(37);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let cfg = SimConfig::quick(11);
        let run = |threads: usize| {
            simulate_replications(
                &ctx,
                |_| UraPolicy::new(0.5).unwrap(),
                &qos,
                &cfg,
                6,
                threads,
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
        // Replications use decorrelated derived streams, not copies.
        assert!(serial.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn event_count_tracks_mean_gap() {
        let (g, p, db) = fixture(32);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut pol = UraPolicy::new(0.5).unwrap();
        let cfg = SimConfig::quick(2); // 20k cycles, mean gap 100 → ~200 events
        let r = simulate(&ctx, &mut pol, &qos, &cfg);
        assert!((150..=260).contains(&r.events), "events {}", r.events);
        assert!(r.reconfigurations <= r.events);
    }

    #[test]
    fn p_rc_zero_reconfigures_less_than_p_rc_one() {
        let (g, p, db) = fixture(33);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let cfg = SimConfig::quick(3);
        let mut lazy = UraPolicy::new(0.0).unwrap();
        let mut eager = UraPolicy::new(1.0).unwrap();
        let r_lazy = simulate(&ctx, &mut lazy, &qos, &cfg);
        let r_eager = simulate(&ctx, &mut eager, &qos, &cfg);
        assert!(
            r_lazy.total_reconfig_cost <= r_eager.total_reconfig_cost,
            "lazy {} vs eager {}",
            r_lazy.total_reconfig_cost,
            r_eager.total_reconfig_cost
        );
        // ... and the eager policy buys at-most-equal energy.
        assert!(r_eager.avg_energy <= r_lazy.avg_energy + 1e-9);
    }

    #[test]
    fn decision_work_scales_with_db_and_events() {
        let (g, p, db) = fixture(36);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut pol = UraPolicy::new(0.5).unwrap();
        let r = simulate(&ctx, &mut pol, &qos, &SimConfig::quick(7));
        assert_eq!(r.decision_work, r.events as u64 * db.len() as u64);
    }

    #[test]
    fn trace_is_capped() {
        let (g, p, db) = fixture(34);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut pol = UraPolicy::new(0.5).unwrap();
        let r = simulate(&ctx, &mut pol, &qos, &SimConfig::quick(4).with_trace(50));
        assert!(r.trace().len() <= 50);
        assert!(!r.trace().is_empty());
        // Trace times are increasing.
        for w in r.trace().windows(2) {
            assert!(w[1].time > w[0].time);
        }
    }

    #[test]
    fn trace_ring_buffer_keeps_the_last_records() {
        let (g, p, db) = fixture(38);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let full = simulate(
            &ctx,
            &mut UraPolicy::new(0.5).unwrap(),
            &qos,
            &SimConfig::quick(6).with_trace(usize::MAX),
        );
        assert!(full.trace().len() > 10, "need overflow for this test");
        let capped = simulate(
            &ctx,
            &mut UraPolicy::new(0.5).unwrap(),
            &qos,
            &SimConfig::quick(6).with_trace(10),
        );
        // Overflow evicts the oldest records: the capped trace is exactly
        // the tail of the full trace.
        assert_eq!(
            capped.trace(),
            &full.trace()[full.trace().len() - 10..],
            "ring buffer must keep the last N records"
        );
    }

    #[test]
    fn max_trace_zero_keeps_nothing() {
        let (g, p, db) = fixture(39);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let r = simulate(
            &ctx,
            &mut UraPolicy::new(0.5).unwrap(),
            &qos,
            &SimConfig::quick(8).with_trace(0),
        );
        assert!(r.events > 0);
        assert!(r.trace().is_empty());
    }

    #[test]
    fn obs_journals_one_decision_per_event_and_sim_bracketing() {
        use clr_obs::{Event, Obs, ObsMode};
        let (g, p, db) = fixture(40);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let obs = Obs::new(ObsMode::Json);
        let mut pol = UraPolicy::new(0.5).unwrap();
        let r = simulate_obs(&ctx, &mut pol, &qos, &SimConfig::quick(9), &obs, "unit");
        let events = obs.det_events();
        let decisions: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::Decision { .. }))
            .collect();
        assert_eq!(decisions.len(), r.events, "one decision record per event");
        for e in &decisions {
            let Event::Decision {
                to, score, p_rc, ..
            } = e
            else {
                unreachable!()
            };
            assert!(*to < db.len());
            // uRA exposes both its winning score and its p_RC parameter.
            assert!(p_rc == &Some(0.5));
            assert!(score.is_some() || matches!(e, Event::Decision { violated: true, .. }));
        }
        assert!(matches!(events.first(), Some(Event::SimStart { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SimEnd { events, .. } if *events == r.events)));
        // Instrumentation must not perturb the simulation itself.
        let mut pol2 = UraPolicy::new(0.5).unwrap();
        let plain = simulate(&ctx, &mut pol2, &qos, &SimConfig::quick(9));
        assert_eq!(plain, r);
    }

    #[test]
    fn simulate_checked_rejects_bad_initial_points() {
        let (g, p, db) = fixture(41);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut pol = UraPolicy::new(0.5).unwrap();
        let bad = SimConfig {
            initial_point: db.len(),
            ..SimConfig::quick(1)
        };
        assert_eq!(
            simulate_checked(&ctx, &mut pol, &qos, &bad).unwrap_err(),
            crate::RuntimeError::BadInitialPoint {
                index: db.len(),
                len: db.len()
            }
        );
        let good = simulate_checked(&ctx, &mut pol, &qos, &SimConfig::quick(1)).unwrap();
        assert!(good.events > 0);
    }

    #[test]
    fn avg_energy_is_within_db_range() {
        let (g, p, db) = fixture(35);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut pol = UraPolicy::new(0.7).unwrap();
        let r = simulate(&ctx, &mut pol, &qos, &SimConfig::quick(5));
        let min = db
            .iter()
            .map(|p| p.metrics.energy)
            .fold(f64::INFINITY, f64::min);
        let max = db.iter().map(|p| p.metrics.energy).fold(0.0f64, f64::max);
        assert!(r.avg_energy >= min - 1e-9 && r.avg_energy <= max + 1e-9);
    }
}

//! `learn_bench` — frozen versus online policies under requirement drift.
//!
//! The drifting workload models a fault-pressure cycle: each tenant's
//! QoS stream sweeps between a relaxed regime (loose reliability floor,
//! tight latency) and a high-pressure regime (tight reliability floor,
//! relaxed latency) several times over the run. The comparison uses the
//! seeded A/B machinery itself: one fleet is seeded so every tenant
//! lands in the **control** arm (serving the frozen live incumbent),
//! a twin fleet so every tenant lands in **treatment** (serving the
//! online TD candidate with reconfiguration prefetch). Same graphs,
//! same databases, same drifting trace — the arms differ only in which
//! table serves, so per-tenant realized trajectories are directly
//! comparable.
//!
//! The headline is realized service latency per served event:
//! `makespan(active point) + reconfiguration stall`, where the online
//! arm's stall is reduced by the dRC cycles the prefetcher overlapped
//! with execution. Results go to stderr and to
//! `results/BENCH_learn.json` in the same schema-versioned shape as the
//! other benches (`schema`, `commit`, per-group `events_per_sec`).
//! `CLR_QUICK=1` shrinks to smoke scale; throughput is wall-clock and
//! machine-dependent, the decisions and latency sums stay deterministic.

use std::io::Write as _;
use std::time::Instant;

use clr_core::prelude::*;
use clr_core::serve::{ReplayReport, ServeStatus};
use clr_experiments::load::Lcg;
use clr_learn::{assign_variant, Variant};

/// Harness scale.
struct Scale {
    tenants: usize,
    events_per_tenant: usize,
}

impl Scale {
    fn from_env() -> Self {
        if std::env::var("CLR_QUICK").is_ok_and(|v| v == "1") {
            Self {
                tenants: 4,
                events_per_tenant: 1_500,
            }
        } else {
            Self {
                tenants: 8,
                events_per_tenant: 6_000,
            }
        }
    }
}

/// The smallest seed ≥ 1 that lands `name` in `arm` — the deterministic
/// assignment is a pure function of `(seed, name)`, so pinning a fleet
/// to one arm is just a seed search.
fn arm_seed(name: &str, arm: Variant) -> u64 {
    (1..)
        .find(|&s| assign_variant(s, name) == arm)
        .expect("both arms are reachable")
}

/// An explored fleet: distinct TGFF applications over dac19 so stored
/// points carry genuinely different mappings (reconfiguration distance
/// and therefore prefetch are meaningful), under the given policy.
fn fleet(n: usize, policy: impl Fn(&str) -> PolicySpec) -> Vec<Tenant> {
    let platform = Platform::dac19();
    let cfg = DseConfig {
        ga: GaParams::small(),
        mode: ExplorationMode::Full,
        reference: None,
        max_points: None,
    };
    (0..n)
        .map(|i| {
            let seed = 300 + i as u64;
            let name = format!("t{i}");
            let graph = TgffGenerator::new(TgffConfig::with_tasks(8)).generate(seed);
            let db = explore_based(
                &graph,
                &platform,
                FaultModel::default(),
                ConfigSpace::fine(),
                &cfg,
                seed,
            );
            let spec = policy(&name);
            Tenant::from_parts(name, graph, platform.clone(), db, spec)
                .expect("synthetic fleet tenants are valid")
        })
        .collect()
}

/// The drifting workload: per-tenant QoS streams whose fault pressure
/// sweeps three full low → high → low cycles across the run. Bounds are
/// calibrated to each tenant's stored metric ranges so the feasible set
/// stays non-trivial at every phase; jitter comes from a seeded LCG.
fn drifting_trace(tenants: &[Tenant], seed: u64, events_per_tenant: usize) -> Trace {
    let mean_gap = 100.0;
    let mut tagged: Vec<(f64, usize, TraceEvent)> = Vec::new();
    for (idx, tenant) in tenants.iter().enumerate() {
        let (mut lo_m, mut hi_m) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lo_r, mut hi_r) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in tenant.db().points() {
            lo_m = lo_m.min(p.metrics.makespan);
            hi_m = hi_m.max(p.metrics.makespan);
            lo_r = lo_r.min(p.metrics.reliability);
            hi_r = hi_r.max(p.metrics.reliability);
        }
        let mut lcg = Lcg(seed ^ ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        let mut time = 0.0;
        for i in 0..events_per_tenant {
            time += mean_gap * (0.5 + lcg.next_f64());
            let phase = (i as f64 / events_per_tenant as f64) * 3.0 * std::f64::consts::TAU;
            // 0 = relaxed regime, 1 = peak fault pressure.
            let pressure = 0.5 - 0.5 * phase.cos();
            let jitter = 0.9 + 0.2 * lcg.next_f64();
            // High pressure demands reliability (floor sweeps toward the
            // best stored point) and relaxes the latency bound; low
            // pressure inverts the trade.
            let rel_floor = (lo_r + (hi_r - lo_r) * (0.15 + 0.7 * pressure)) * jitter.min(1.0);
            let latency = lo_m + (hi_m - lo_m) * (1.2 - 0.9 * pressure) * jitter;
            tagged.push((
                time,
                idx,
                TraceEvent {
                    tenant: tenant.name().to_string(),
                    time,
                    spec: QosSpec::new(latency.max(lo_m), rel_floor.clamp(0.0, hi_r)),
                },
            ));
        }
    }
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Trace::new(tagged.into_iter().map(|(_, _, e)| e).collect())
}

/// One timed replay; returns `(report, elapsed_seconds)`.
fn timed_replay(tenants: &[Tenant], trace: &Trace) -> (ReplayReport, f64) {
    let config = ReplayConfig::default();
    // clr-audit: nondet(begin) throughput timing, reporting only
    let start = Instant::now();
    let report = replay(tenants, trace, &config).expect("synthetic replay is clean");
    let elapsed = start.elapsed().as_secs_f64();
    // clr-audit: nondet(end)
    (report, elapsed)
}

/// Aggregated realized trajectory of one fleet run.
struct Realized {
    served: u64,
    makespan: f64,
    drc_paid: f64,
    drc_overlapped: f64,
    /// Sum of the per-event oracle: the cheapest stored point feasible
    /// under that event's spec, served with zero reconfiguration stall.
    oracle: f64,
    violations: u64,
    shadow_regret: f64,
    live_regret: f64,
    hits: u64,
    misses: u64,
}

/// Folds a run's realized latency: per served event, the makespan of
/// the point that served it plus the reconfiguration cost paid to get
/// there; the prefetch-overlapped share is tracked separately.
fn realized(report: &ReplayReport, tenants: &[Tenant]) -> Realized {
    let mut out = Realized {
        served: 0,
        makespan: 0.0,
        drc_paid: 0.0,
        drc_overlapped: 0.0,
        oracle: 0.0,
        violations: 0,
        shadow_regret: 0.0,
        live_regret: 0.0,
        hits: 0,
        misses: 0,
    };
    for (outcome, tenant) in report.outcomes().iter().zip(tenants) {
        assert_eq!(outcome.name, tenant.name(), "outcomes are fleet-ordered");
        let points = tenant.db().points();
        for d in &outcome.decisions {
            if d.status == ServeStatus::Quarantined {
                continue;
            }
            out.served += 1;
            out.makespan += points[d.to].metrics.makespan;
            out.drc_paid += d.drc;
            if d.violated {
                out.violations += 1;
            }
            // Per-event oracle: the cheapest feasible point served with
            // no stall; a violated event (empty feasible set) bottoms
            // out at the globally fastest point.
            let oracle = points
                .iter()
                .filter(|p| {
                    p.metrics.reliability >= d.spec.min_reliability
                        && p.metrics.makespan <= d.spec.max_makespan
                })
                .map(|p| p.metrics.makespan)
                .fold(f64::INFINITY, f64::min);
            out.oracle += if oracle.is_finite() {
                oracle
            } else {
                points
                    .iter()
                    .map(|p| p.metrics.makespan)
                    .fold(f64::INFINITY, f64::min)
            };
        }
        if let Some(learn) = &outcome.learn {
            out.drc_overlapped += learn.prefetch_saved_drc;
            out.shadow_regret += learn.cum_shadow_regret;
            out.live_regret += learn.cum_live_regret;
            out.hits += learn.prefetch_hits;
            out.misses += learn.prefetch_misses;
        }
    }
    out
}

impl Realized {
    /// Mean realized service latency in cycles per served event, with
    /// prefetch-overlapped reconfiguration cycles taken off the stall.
    fn latency_per_event(&self) -> f64 {
        (self.makespan + self.drc_paid - self.drc_overlapped) / self.served.max(1) as f64
    }

    /// Cumulative regret in cycles against the per-event oracle (the
    /// cheapest feasible point with zero stall) — both arms pay this,
    /// so it compares directly across runs on the same trace.
    fn cumulative_regret(&self) -> f64 {
        self.makespan + self.drc_paid - self.drc_overlapped - self.oracle
    }
}

fn main() {
    let scale = Scale::from_env();
    let threads = clr_par::resolve_threads(0);
    eprintln!(
        "# learn_bench: {} tenants, {} drift events/tenant, {} threads",
        scale.tenants, scale.events_per_tenant, threads
    );

    // TD(0) observes every served decision, so the candidate learns
    // from the natural drift without heavy exploration; a small ε keeps
    // the reconfiguration churn of random arms from dominating the
    // stall budget.
    let learn_spec = |arm: Variant| {
        move |name: &str| PolicySpec::AuraLearn {
            p_rc: 0.5,
            gamma: 0.6,
            alpha: 0.2,
            epsilon: 0.02,
            seed: arm_seed(name, arm),
        }
    };
    let control = fleet(scale.tenants, learn_spec(Variant::Control));
    let treatment = fleet(scale.tenants, learn_spec(Variant::Treatment));
    let aura = fleet(scale.tenants, |_| PolicySpec::Aura {
        p_rc: 0.5,
        gamma: 0.6,
        alpha: 0.1,
    });
    let trace = drifting_trace(&control, 2_027, scale.events_per_tenant);
    eprintln!("  trace: {} events over the fleet", trace.len());

    // Throughput: the learn path (shadow scoring + TD updates +
    // prefetch) versus the plain aura baseline on the same stream, best
    // of three with rounds interleaved.
    let mut learn_elapsed = f64::INFINITY;
    let mut aura_elapsed = f64::INFINITY;
    let mut online_report = None;
    for _ in 0..3 {
        let (r, e) = timed_replay(&treatment, &trace);
        learn_elapsed = learn_elapsed.min(e);
        online_report = Some(r);
        let (_, e) = timed_replay(&aura, &trace);
        aura_elapsed = aura_elapsed.min(e);
    }
    let online_report = online_report.expect("at least one round ran");
    let (frozen_report, _) = timed_replay(&control, &trace);
    let learn_rate = trace.len() as f64 / learn_elapsed.max(1e-9);
    let aura_rate = trace.len() as f64 / aura_elapsed.max(1e-9);
    let overhead_pct = (learn_elapsed / aura_elapsed.max(1e-9) - 1.0) * 100.0;
    eprintln!(
        "  aura baseline: {} events in {aura_elapsed:.3} s — {aura_rate:.0} events/s",
        trace.len()
    );
    eprintln!(
        "  online learn:  {} events in {learn_elapsed:.3} s — {learn_rate:.0} events/s \
         ({overhead_pct:+.2} %)",
        trace.len()
    );

    // Quality: frozen incumbent (all-control fleet) versus online
    // candidate (all-treatment fleet) on identical tenants and trace.
    let frozen = realized(&frozen_report, &control);
    let online = realized(&online_report, &treatment);
    let frozen_latency = frozen.latency_per_event();
    let online_latency = online.latency_per_event();
    let win_pct = (1.0 - online_latency / frozen_latency.max(1e-9)) * 100.0;
    let hit_rate = if online.hits + online.misses > 0 {
        100.0 * online.hits as f64 / (online.hits + online.misses) as f64
    } else {
        0.0
    };
    eprintln!(
        "  frozen incumbent: {:.1} cycles/event ({} served, {:.0} makespan + {:.0} stall, \
         {} violations)",
        frozen_latency, frozen.served, frozen.makespan, frozen.drc_paid, frozen.violations
    );
    eprintln!(
        "  online candidate: {:.1} cycles/event ({} served, {:.0} makespan + {:.0} stall − \
         {:.0} overlapped, {} violations)",
        online_latency,
        online.served,
        online.makespan,
        online.drc_paid,
        online.drc_overlapped,
        online.violations
    );
    let frozen_regret = frozen.cumulative_regret();
    let online_regret = online.cumulative_regret();
    eprintln!(
        "  cumulative regret vs oracle: frozen {frozen_regret:.0} cycles, \
         online {online_regret:.0} cycles"
    );
    eprintln!(
        "  prefetch: {} hits / {} misses ({hit_rate:.1} % hit rate), \
         exploration regret {:.2}",
        online.hits, online.misses, online.shadow_regret
    );
    for line in online_report.ab_lines() {
        eprintln!("  {line}");
    }
    if online_latency < frozen_latency {
        eprintln!(
            "  verdict: online learning beats the frozen table under drift ({win_pct:+.2} %)"
        );
    } else {
        eprintln!("  verdict: frozen table held its ground — check the drift model");
    }

    let json = format!(
        "{{\n  \"schema\": {},\n  \"bench\": \"learn\",\n  \"commit\": {:?},\n  \
         \"tenants\": {},\n  \"threads\": {threads},\n  \"events\": {},\n  \
         \"frozen_latency_cycles_per_event\": {frozen_latency:.3},\n  \
         \"online_latency_cycles_per_event\": {online_latency:.3},\n  \
         \"latency_win_pct\": {win_pct:.2},\n  \
         \"frozen_cumulative_regret\": {frozen_regret:.2},\n  \
         \"online_cumulative_regret\": {online_regret:.2},\n  \
         \"frozen_violations\": {},\n  \"online_violations\": {},\n  \
         \"prefetch_hits\": {},\n  \"prefetch_misses\": {},\n  \
         \"prefetch_hit_rate_pct\": {hit_rate:.2},\n  \"prefetch_saved_drc\": {:.2},\n  \
         \"online_exploration_regret\": {:.4},\n  \
         \"learn_overhead_pct\": {overhead_pct:.2},\n  \"groups\": {{\n    \
         \"replay_aura\": {{\"events\": {}, \"elapsed_s\": {aura_elapsed:.4}, \
         \"events_per_sec\": {aura_rate:.0}}},\n    \
         \"replay_learn\": {{\"events\": {}, \"elapsed_s\": {learn_elapsed:.4}, \
         \"events_per_sec\": {learn_rate:.0}}}\n  }}\n}}\n",
        clr_experiments::report::BENCH_SCHEMA_VERSION,
        clr_experiments::report::bench_commit(),
        scale.tenants,
        trace.len(),
        frozen.violations,
        online.violations,
        online.hits,
        online.misses,
        online.drc_overlapped,
        online.shadow_regret,
        trace.len(),
        trace.len(),
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("  cannot create results/: {e}");
        return;
    }
    match std::fs::File::create("results/BENCH_learn.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
    {
        Ok(()) => eprintln!("  wrote results/BENCH_learn.json"),
        Err(e) => eprintln!("  cannot write results/BENCH_learn.json: {e}"),
    }
    print!("{json}");
}

//! Multi-tenant decision serving: a fleet of applications, each with its
//! own explored database and adaptation policy, replayed against one
//! seeded QoS-event trace through the `clr-serve` engine.
//!
//! Demonstrates the serving half of the methodology at experiment scale:
//! per-tenant adaptation outcomes, the dropped-event accounting, and the
//! thread-count invariance of the engine (the same replay at 1, 4 and 8
//! workers must produce identical reports — asserted here, byte-diffed
//! in `ci.sh`).

use clr_core::prelude::*;
use clr_core::serve::{generate_trace, replay, PolicySpec, ReplayConfig, Tenant};
use clr_experiments::kernels::Bundle;
use clr_experiments::report::{f1, f3, Table};
use clr_experiments::Env;

fn main() {
    let env = Env::from_env();
    println!("# Multi-tenant decision serving");

    // A heterogeneous fleet: three application scales, one policy each
    // (risk-averse uRA, learning AuRA, the hypervolume baseline).
    let fleet_spec: [(&str, usize, PolicySpec); 3] = [
        ("cam", 10, PolicySpec::Ura { p_rc: 0.8 }),
        (
            "nav",
            20,
            PolicySpec::Aura {
                p_rc: 0.5,
                gamma: 0.6,
                alpha: 0.1,
            },
        ),
        ("audio", 30, PolicySpec::Hv),
    ];

    let mut tenants = Vec::new();
    for (name, n, policy) in fleet_spec {
        let bundle = Bundle::new(&env, n);
        let flow = bundle.flow(&env, ExplorationMode::Full);
        let db = flow.based().clone();
        drop(flow);
        tenants.push(
            Tenant::from_parts(name, bundle.graph, bundle.platform, db, policy)
                .expect("explored databases are non-empty"),
        );
    }

    let trace = generate_trace(&tenants, env.seed, env.sim_cycles, 100.0);
    println!(
        "\ntrace: {} events across {} tenants ({} cycles, seed {})\n",
        trace.len(),
        tenants.len(),
        env.sim_cycles,
        env.seed
    );

    // Replay at several worker counts; the reports must be identical.
    let mut reference = None;
    for threads in [1usize, 4, 8] {
        let config = ReplayConfig {
            threads,
            ..ReplayConfig::default()
        };
        let report = replay(&tenants, &trace, &config).expect("unique tenant names");
        match &reference {
            None => reference = Some(report),
            Some(r) => assert_eq!(r, &report, "replay must be thread-count invariant"),
        }
    }
    let report = reference.expect("at least one replay ran");

    let mut table = Table::new(
        "Per-tenant serving outcomes (thread-count invariant)",
        &[
            "tenant",
            "policy",
            "points",
            "events",
            "reconf",
            "viol",
            "total_drc",
            "mean_drc",
        ],
    );
    for (outcome, (_, _, policy)) in report.outcomes().iter().zip(fleet_spec) {
        table.row([
            outcome.name.clone(),
            policy.to_string(),
            outcome.points.to_string(),
            outcome.events.to_string(),
            outcome.reconfigurations.to_string(),
            outcome.violations.to_string(),
            f1(outcome.total_drc),
            f3(outcome.total_drc / (outcome.events.max(1)) as f64),
        ]);
    }
    table.emit("serving");

    report.emit_obs(&env.obs);
    match env.obs.export("results", "serving") {
        Ok(paths) => {
            for p in paths {
                eprintln!("  wrote {}", p.display());
            }
        }
        Err(e) => eprintln!("  journal export failed: {e}"),
    }
}

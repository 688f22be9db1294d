//! The synthetic serving workload shared by the load benches
//! (`serve_load`, `telemetry_bench`): a seeded generator, a uRA fleet,
//! a request stream over it, and a micro-timer.

use std::time::Instant;

use clr_core::prelude::*;
use clr_core::serve::wire::Request;

/// A tiny deterministic generator (same LCG the bench suite uses).
#[derive(Debug, Clone)]
pub struct Lcg(pub u64);

impl Lcg {
    /// The next uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (0 when `n` is 0).
    pub fn next_index(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// A fleet of `n` tenants sharing one mapped graph, with per-tenant
/// metric skew so the feasible sets differ. Stored points are synthetic
/// (as in the bench suite): seating cost stays low while the decision
/// path — indexed feasibility, policy, ladder — is the real one.
pub fn fleet(n: usize) -> Vec<Tenant> {
    let graph = jpeg_encoder();
    let platform = Platform::dac19();
    let mapping = Mapping::first_fit(&graph, &platform).expect("jpeg maps onto dac19");
    (0..n)
        .map(|i| {
            let skew = 1.0 + (i % 17) as f64 * 0.05;
            let mut db = DesignPointDb::new("load");
            for p in 0..16 {
                let f = f64::from(p) / 16.0;
                db.push(DesignPoint::new(
                    mapping.clone(),
                    SystemMetrics {
                        makespan: 50.0 + 100.0 * f * skew,
                        reliability: 0.6 + 0.35 * f,
                        energy: 1.0 + f,
                        peak_power: 1.0,
                        mean_mttf: 100.0,
                    },
                    PointOrigin::Pareto,
                ));
            }
            Tenant::from_parts(
                format!("t{i}"),
                graph.clone(),
                platform.clone(),
                db,
                PolicySpec::Ura { p_rc: 0.5 },
            )
            .expect("synthetic fleet tenants are valid")
        })
        .collect()
}

/// `count` seeded requests spread over the fleet: every tenant is hit,
/// specs sweep the whole selectivity range, times advance monotonically.
pub fn requests(tenants: &[Tenant], count: usize, seed: u64) -> Vec<Request> {
    let mut lcg = Lcg(seed | 1);
    (0..count)
        .map(|i| {
            let tenant = &tenants[lcg.next_index(tenants.len())];
            Request {
                seq: i as u64 + 1,
                tenant: tenant.name().to_string(),
                time: i as f64,
                spec: QosSpec::new(60.0 + 160.0 * lcg.next_f64(), 0.9 * lcg.next_f64()),
            }
        })
        .collect()
}

/// Mean ns/op of `f` over `iters` runs.
pub fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    // clr-audit: nondet(begin) wall-clock micro-timing, reporting only
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
    // clr-audit: nondet(end)
}

//! `telemetry_bench` — the cost of watching the fleet.
//!
//! Measures what the live-telemetry subsystem adds to the serving hot
//! path: the closed loop of `Daemon::handle_batch` with the per-tenant
//! health registries on (the default) versus off
//! (`ReplayConfig::telemetry = false`), plus micro-benches of the
//! primitives a snapshot is made of — histogram record, rolling-window
//! push, and the schema-2 snapshot codec round trip.
//!
//! Results go to stderr and to `results/BENCH_telemetry.json`, in the
//! same schema-versioned shape as `BENCH_serve.json` (`schema`,
//! `commit`, per-group `events_per_sec`). The headline number is
//! `telemetry_overhead_pct`: the closed-loop cost of leaving telemetry
//! on, which the obs bar in `crates/serve/tests/telemetry.rs` guards.
//! `CLR_QUICK=1` shrinks to smoke scale; throughput is wall-clock and
//! machine-dependent, the served decisions stay deterministic.

use std::io::Write as _;
use std::time::Instant;

use clr_core::prelude::*;
use clr_core::serve::wire::Request;
use clr_core::serve::{Daemon, DaemonConfig};
use clr_experiments::load::{fleet, requests, time_ns};
use clr_obs::{BitWindow, QuantileHistogram, TelemetrySnapshot};

/// Harness scale.
struct Scale {
    tenants: usize,
    closed_events: usize,
    window: usize,
}

impl Scale {
    fn from_env() -> Self {
        if std::env::var("CLR_QUICK").is_ok_and(|v| v == "1") {
            Self {
                tenants: 64,
                closed_events: 50_000,
                window: 256,
            }
        } else {
            Self {
                tenants: 512,
                closed_events: 1_000_000,
                window: 256,
            }
        }
    }
}

/// One closed-loop run with telemetry on or off; returns elapsed seconds.
fn closed_loop_once(
    tenants: &[Tenant],
    requests: &[Request],
    window: usize,
    telemetry: bool,
) -> f64 {
    let config = DaemonConfig {
        replay: ReplayConfig {
            telemetry,
            ..ReplayConfig::default()
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::new(tenants, &config).expect("unique tenant names");
    let mut served = 0usize;
    // clr-audit: nondet(begin) throughput timing, reporting only
    let start = Instant::now();
    for chunk in requests.chunks(window) {
        served += daemon.handle_batch(chunk).len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    // clr-audit: nondet(end)
    assert_eq!(served, requests.len(), "every request is answered");
    elapsed
}

/// Best-of-N closed-loop comparison with the on/off rounds interleaved,
/// so scheduler noise on a shared machine hits both configurations
/// equally instead of biasing whichever phase ran in the noisy window.
/// Returns `(on_elapsed, off_elapsed)` in seconds.
fn closed_loop_pair(tenants: &[Tenant], requests: &[Request], window: usize) -> (f64, f64) {
    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    for _ in 0..4 {
        best_on = best_on.min(closed_loop_once(tenants, requests, window, true));
        best_off = best_off.min(closed_loop_once(tenants, requests, window, false));
    }
    (best_on, best_off)
}

fn main() {
    let scale = Scale::from_env();
    let threads = clr_par::resolve_threads(0);
    eprintln!(
        "# telemetry_bench: {} tenants, {} closed-loop events, {} threads",
        scale.tenants, scale.closed_events, threads
    );

    let tenants = fleet(scale.tenants);
    let events = requests(&tenants, scale.closed_events, 47);

    let (on_elapsed, off_elapsed) = closed_loop_pair(&tenants, &events, scale.window);
    let on_rate = events.len() as f64 / on_elapsed.max(1e-9);
    let off_rate = events.len() as f64 / off_elapsed.max(1e-9);
    eprintln!(
        "  telemetry on:  {} events in {on_elapsed:.3} s — {on_rate:.0} events/s",
        events.len()
    );
    eprintln!(
        "  telemetry off: {} events in {off_elapsed:.3} s — {off_rate:.0} events/s",
        events.len()
    );
    let overhead_pct = (on_elapsed / off_elapsed.max(1e-9) - 1.0) * 100.0;
    eprintln!("  closed-loop telemetry overhead: {overhead_pct:.2} %");

    // Snapshot assembly + codec at fleet scale: what one live stats
    // query costs, and whether the codec round-trips what it encodes.
    let config = DaemonConfig::default();
    let daemon = Daemon::new(&tenants, &config).expect("unique tenant names");
    for chunk in events.chunks(scale.window) {
        daemon.handle_batch(chunk);
    }
    let probe_iters = 50;
    let assemble_ns = time_ns(probe_iters, || {
        std::hint::black_box(daemon.telemetry("fleet", false, None));
    });
    let snapshot = daemon.telemetry("fleet", false, None);
    let text = snapshot.to_json();
    let codec_iters = 200;
    let encode_ns = time_ns(codec_iters, || {
        std::hint::black_box(snapshot.to_json());
    });
    let decode_ns = time_ns(codec_iters, || {
        std::hint::black_box(
            TelemetrySnapshot::from_json(&text).expect("self-encoded snapshot decodes"),
        );
    });
    assert_eq!(
        TelemetrySnapshot::from_json(&text)
            .expect("self-encoded snapshot decodes")
            .to_json(),
        text,
        "snapshot codec round-trips byte-for-byte"
    );
    eprintln!(
        "  snapshot ({} tenants, {} B): assemble {assemble_ns:.0} ns, \
         encode {encode_ns:.0} ns, decode {decode_ns:.0} ns",
        scale.tenants,
        text.len()
    );

    // Primitive micro-benches: the per-decision record cost.
    let hist_iters = 1 << 20;
    let mut hist = QuantileHistogram::new();
    let mut x = 0.1f64;
    let hist_ns = time_ns(hist_iters, || {
        hist.record(std::hint::black_box(x));
        x = (x * 1.37) % 1.0e9 + 1.0e-6;
    });
    let mut window = BitWindow::new(64);
    let mut v = false;
    let window_ns = time_ns(hist_iters, || {
        window.push(std::hint::black_box(v));
        v = !v;
    });
    std::hint::black_box((&hist, &window));
    eprintln!("  histogram record {hist_ns:.1} ns, window push {window_ns:.1} ns");

    let per_sec = |ns: f64| 1e9 / ns.max(1e-3);
    let json = format!(
        "{{\n  \"schema\": {},\n  \"bench\": \"telemetry\",\n  \"commit\": {:?},\n  \
         \"tenants\": {},\n  \"threads\": {threads},\n  \
         \"telemetry_overhead_pct\": {overhead_pct:.2},\n  \"groups\": {{\n    \
         \"closed_loop_telemetry_on\": {{\"events\": {}, \"elapsed_s\": {on_elapsed:.4}, \
         \"events_per_sec\": {on_rate:.0}}},\n    \
         \"closed_loop_telemetry_off\": {{\"events\": {}, \"elapsed_s\": {off_elapsed:.4}, \
         \"events_per_sec\": {off_rate:.0}}},\n    \
         \"snapshot_assemble\": {{\"ns_per_op\": {assemble_ns:.0}, \"events_per_sec\": {:.0}}},\n    \
         \"snapshot_encode\": {{\"ns_per_op\": {encode_ns:.0}, \"bytes\": {}, \"events_per_sec\": {:.0}}},\n    \
         \"snapshot_decode\": {{\"ns_per_op\": {decode_ns:.0}, \"events_per_sec\": {:.0}}},\n    \
         \"histogram_record\": {{\"ns_per_op\": {hist_ns:.1}, \"events_per_sec\": {:.0}}},\n    \
         \"window_push\": {{\"ns_per_op\": {window_ns:.1}, \"events_per_sec\": {:.0}}}\n  }}\n}}\n",
        clr_experiments::report::BENCH_SCHEMA_VERSION,
        clr_experiments::report::bench_commit(),
        scale.tenants,
        events.len(),
        events.len(),
        per_sec(assemble_ns),
        text.len(),
        per_sec(encode_ns),
        per_sec(decode_ns),
        per_sec(hist_ns),
        per_sec(window_ns),
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("  cannot create results/: {e}");
        return;
    }
    match std::fs::File::create("results/BENCH_telemetry.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
    {
        Ok(()) => eprintln!("  wrote results/BENCH_telemetry.json"),
        Err(e) => eprintln!("  cannot write results/BENCH_telemetry.json: {e}"),
    }
    print!("{json}");
}

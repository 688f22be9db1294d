//! `serve_load` — the `clr-served` load-test harness, modeled on
//! kimberlite's kmb-bench: wire-codec micro-benches at 64 B–16 KiB
//! frames plus closed-loop and open-loop generators driving a
//! thousand-tenant fleet through the resident engine.
//!
//! * **Closed loop** — a fixed window of in-flight requests drives
//!   [`Daemon::handle_batch`] directly (no transport), measuring the
//!   sharded engine itself: route → session feed → response frame.
//! * **Open loop** — the full framed transport: a pre-encoded request
//!   stream is pushed through [`serve_stream`] (decode, admission,
//!   batched dispatch, response encode) as fast as the daemon drains it.
//!
//! Results go to stderr and to `results/BENCH_serve.json`, the first
//! artifact of the `BENCH_*.json` perf trajectory (ROADMAP item 4) —
//! schema-versioned (`schema`, `commit`, per-group `events_per_sec`) so
//! a series of BENCH files is machine-comparable across commits;
//! `ci.sh` validates the shape.
//! `CLR_QUICK=1` shrinks the fleet and event counts to smoke scale;
//! `CLR_THREADS` sizes the worker pool as everywhere else.
//!
//! Throughput numbers are wall-clock and machine-dependent; the served
//! *decisions* remain deterministic (the fleet, workload and engine are
//! all seeded), which is what the correctness gates byte-compare.

use std::io::Write as _;
use std::time::Instant;

use clr_core::prelude::*;
use clr_core::serve::wire::{Frame, Request};
use clr_core::serve::{serve_stream, Daemon, DaemonConfig};
use clr_experiments::load::{fleet, requests, time_ns};

/// Harness scale.
struct Scale {
    tenants: usize,
    closed_events: usize,
    open_events: usize,
    window: usize,
}

impl Scale {
    fn from_env() -> Self {
        if std::env::var("CLR_QUICK").is_ok_and(|v| v == "1") {
            Self {
                tenants: 64,
                closed_events: 50_000,
                open_events: 10_000,
                window: 256,
            }
        } else {
            Self {
                tenants: 1_000,
                closed_events: 2_000_000,
                open_events: 200_000,
                window: 256,
            }
        }
    }
}

/// A `Write` sink that only counts, so open-loop responses don't
/// accumulate in memory.
#[derive(Debug, Default)]
struct CountingSink {
    bytes: usize,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn main() {
    let scale = Scale::from_env();
    let threads = clr_par::resolve_threads(0);
    eprintln!(
        "# serve_load: {} tenants, {} closed-loop + {} open-loop events, {} threads",
        scale.tenants, scale.closed_events, scale.open_events, threads
    );

    let tenants = fleet(scale.tenants);
    let config = DaemonConfig::default();

    // Wire codec micro-benches (kmb-bench style: 64 B to 16 KiB).
    let mut wire_rows = Vec::new();
    for size in [64usize, 1_024, 16 * 1_024] {
        let name_len = size.saturating_sub(66).max(2);
        let frame = Frame::Request(Request {
            seq: 7,
            tenant: "t".repeat(name_len),
            time: 1.0,
            spec: QosSpec::new(150.0, 0.75),
        });
        let bytes = frame.to_bytes();
        let iters = (1 << 22) / size.max(64);
        let encode_ns = time_ns(iters, || {
            std::hint::black_box(frame.to_bytes());
        });
        let decode_ns = time_ns(iters, || {
            std::hint::black_box(Frame::from_bytes(&bytes).expect("self-encoded frame decodes"));
        });
        eprintln!("  wire {size:>6} B frame: encode {encode_ns:.0} ns, decode {decode_ns:.0} ns");
        wire_rows.push(format!(
            "    {{\"frame_bytes\": {}, \"encode_ns\": {encode_ns:.1}, \"decode_ns\": {decode_ns:.1}}}",
            bytes.len()
        ));
    }

    // Closed loop: a fixed in-flight window against the engine. Best of
    // three rounds (fresh daemon each) — on a shared machine a single
    // round can be halved by scheduler noise; the best round is the
    // sustained rate the engine actually supports.
    let closed = requests(&tenants, scale.closed_events, 41);
    let mut closed_elapsed = f64::INFINITY;
    for round in 0..3 {
        let daemon = Daemon::new(&tenants, &config).expect("unique tenant names");
        let mut served = 0usize;
        // clr-audit: nondet(begin) throughput timing, reporting only
        let start = Instant::now();
        for window in closed.chunks(scale.window) {
            served += daemon.handle_batch(window).len();
        }
        let elapsed = start.elapsed().as_secs_f64();
        // clr-audit: nondet(end)
        assert_eq!(served, closed.len(), "every request is answered");
        let outcomes = daemon.into_outcomes();
        let decided: usize = outcomes.iter().map(|o| o.events).sum();
        assert_eq!(decided, closed.len(), "every request reaches a session");
        eprintln!(
            "  closed loop round {round}: {served} events in {elapsed:.3} s — {:.0} events/s",
            served as f64 / elapsed.max(1e-9)
        );
        closed_elapsed = closed_elapsed.min(elapsed);
    }
    let closed_rate = closed.len() as f64 / closed_elapsed.max(1e-9);
    eprintln!(
        "  closed loop: {} events in {closed_elapsed:.3} s best-of-3 — {closed_rate:.0} events/s",
        closed.len()
    );

    // Open loop: the full framed transport through serve_stream.
    let open = requests(&tenants, scale.open_events, 43);
    let mut stream = Vec::with_capacity(open.len() * 80);
    for request in &open {
        stream.extend_from_slice(&Frame::Request(request.clone()).to_bytes());
    }
    stream.extend_from_slice(&Frame::Shutdown.to_bytes());
    let bytes_in = stream.len();
    let mut open_elapsed = f64::INFINITY;
    let mut bytes_out = 0usize;
    for round in 0..3 {
        let mut reader = &stream[..];
        let mut sink = CountingSink::default();
        // clr-audit: nondet(begin) throughput timing, reporting only
        let start = Instant::now();
        let report = serve_stream(&tenants, &mut reader, &mut sink, &config)
            .expect("in-memory stream serves cleanly");
        let elapsed = start.elapsed().as_secs_f64();
        // clr-audit: nondet(end)
        assert!(report.clean_shutdown);
        assert_eq!(report.served, open.len());
        eprintln!(
            "  open loop round {round}: {} events in {elapsed:.3} s — {:.0} events/s",
            report.served,
            report.served as f64 / elapsed.max(1e-9)
        );
        open_elapsed = open_elapsed.min(elapsed);
        bytes_out = sink.bytes;
    }
    let open_rate = open.len() as f64 / open_elapsed.max(1e-9);
    eprintln!(
        "  open loop: {} events in {open_elapsed:.3} s best-of-3 — {open_rate:.0} events/s \
         ({bytes_in} B in, {bytes_out} B out)",
        open.len()
    );

    let json = format!(
        "{{\n  \"schema\": {},\n  \"bench\": \"serve_load\",\n  \"commit\": {:?},\n  \
         \"tenants\": {},\n  \"threads\": {threads},\n  \"groups\": {{\n    \
         \"closed_loop\": {{\"events\": {}, \"window\": {}, \"elapsed_s\": {closed_elapsed:.4}, \
         \"events_per_sec\": {closed_rate:.0}}},\n    \
         \"open_loop\": {{\"events\": {}, \"batch\": {}, \"elapsed_s\": {open_elapsed:.4}, \
         \"events_per_sec\": {open_rate:.0}, \"bytes_in\": {bytes_in}, \"bytes_out\": {bytes_out}}}\n  }},\n  \
         \"wire\": [\n{}\n  ]\n}}\n",
        clr_experiments::report::BENCH_SCHEMA_VERSION,
        clr_experiments::report::bench_commit(),
        scale.tenants,
        scale.closed_events,
        scale.window,
        scale.open_events,
        config.batch,
        wire_rows.join(",\n"),
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("  cannot create results/: {e}");
        return;
    }
    match std::fs::File::create("results/BENCH_serve.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
    {
        Ok(()) => eprintln!("  wrote results/BENCH_serve.json"),
        Err(e) => eprintln!("  cannot write results/BENCH_serve.json: {e}"),
    }
    print!("{json}");
}

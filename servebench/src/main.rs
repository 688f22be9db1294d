//! `servebench` — end-to-end and per-layer benchmark of `clr-served`.
//!
//! ```text
//! servebench --served PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout (see `servebench/run.sh`, which
//! builds the daemon and this program first). `--trace 0` drives the real
//! daemon binary over its pipes and prints the end-to-end metrics;
//! `--trace 1` runs the traced in-process pass and prints the per-layer
//! metrics. Either way every response frame is checked against an
//! in-process reference first, and the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `servebench/README.md` for the workloads and the metric map.

mod check;
mod client;
mod gen;
mod stats;
mod sysinfo;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use clr_serve::Tenant;

use crate::gen::{Inputs, Kind};
use crate::stats::{median, percentile};

/// Where the benchmark keeps its generated files, relative to the root.
const WORK: &str = "servebench/work";

/// Upper bound on the measured phase, whatever `--seconds` asks, so a
/// run ends well inside its time limit.
const MAX_MEASURE_S: f64 = 120.0;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Args {
    served: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut served = None;
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--served" => served = Some(PathBuf::from(value)),
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        served: served.ok_or("--served is required")?,
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

/// The outcome of one run, before printing.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if !Path::new("servebench/Cargo.toml").is_file() || !args.served.is_file() {
        return Err("run from the checkout root after building (see servebench/run.sh)".into());
    }
    let steal_start = sysinfo::steal_now();
    let probe_start = sysinfo::cpu_probe_ms();
    let nproc = sysinfo::nproc();
    let kind = args.kind;
    let dir = PathBuf::from(WORK).join(kind.name());
    let _ = std::fs::remove_dir_all(&dir);
    let requests = if args.trace {
        kind.traced_requests()
    } else {
        kind.requests()
    };
    eprintln!(
        "servebench: {} seed {} — generating {requests} requests",
        kind.name(),
        args.seed
    );
    let inputs = gen::generate(kind, args.seed, requests, &dir, nproc);
    let measured = prepare(&inputs).and_then(|prepared| {
        if args.trace {
            trace::run(&inputs, &prepared, &args.served, args.seed)
        } else {
            end_to_end(&inputs, &prepared, &args.served, args.seconds)
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    // A failed check fails the run: no numbers, a nonzero exit.
    let outcome = measured.unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        Outcome {
            correct: false,
            attempted: inputs.stream.len(),
            failed: inputs.stream.len(),
            metrics: Vec::new(),
        }
    });

    let fingerprint = sysinfo::fingerprint_json(
        sysinfo::steal_now().saturating_sub(steal_start),
        (probe_start, sysinfo::cpu_probe_ms()),
    );
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                sysinfo::json_str(m.name),
                json_num(m.value),
                sysinfo::json_str(m.unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    let stamped = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"fingerprint\": {fingerprint}, \"result\": {result}}}",
        sysinfo::json_str(kind.name()),
        args.seed,
        u8::from(args.trace)
    );
    let out_dir = Path::new(WORK).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let file = out_dir.join(format!(
        "{}-s{}-trace{}.json",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&file, format!("{stamped}\n")).map_err(|e| e.to_string())?;
    println!("{stamped}");
    println!("{result}");
    if outcome.correct {
        Ok(())
    } else {
        Err("the run failed its checks".into())
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// What set-up produced for every pass of a run.
pub struct Prepared {
    /// The fleet, seated in process exactly as the daemon seats it.
    pub tenants: Vec<Tenant>,
    /// Response bytes of the single-thread in-process reference.
    pub reference: Vec<u8>,
    /// Admission batches the reference served requests in.
    pub batches: usize,
    /// The reference's deterministic metrics.
    pub summary: check::Summary,
    /// Starting learner checkpoints (`rollout_mix`).
    pub pristine: Option<PathBuf>,
    /// Checkpoints the reference wrote at drain: `(file name, bytes)`.
    pub drained: Vec<(String, Vec<u8>)>,
}

/// Writes the inputs, makes the starting checkpoints, and serves the
/// stream once in process to get the reference responses.
fn prepare(inputs: &Inputs) -> Result<Prepared, String> {
    gen::write_files(inputs)?;
    for r in &inputs.rollouts {
        let g = usize::try_from(r.to).map_err(|e| e.to_string())?;
        std::fs::write(&r.path, &inputs.origins[r.origin].exports[g])
            .map_err(|e| format!("cannot write {}: {e}", r.path))?;
    }
    let flags: Vec<(&str, &str)> = inputs
        .tenant_flags
        .iter()
        .map(|t| ("tenant", t.as_str()))
        .collect();
    let tenants = clr_serve::cli::parse_fleet(&flags)?;
    let pristine = match &inputs.warmup {
        Some(warm) => {
            // A cold start: the warm-up must not resume older checkpoints.
            let dir = inputs.dir.join("pristine");
            let _ = std::fs::remove_dir_all(&dir);
            check::serve(&tenants, &warm.bytes, 1, Some(&dir))?;
            Some(dir)
        }
        None => None,
    };
    let ref_dir = inputs.dir.join("reference-learn");
    let ref_learn = match &pristine {
        Some(p) => Some(copy_dir(p, &ref_dir)?),
        None => None,
    };
    let (reference, batches) =
        check::serve(&tenants, &inputs.stream.bytes, 1, ref_learn.as_deref())?;
    let summary = check::summarize(&reference)?;
    if summary.frames != inputs.stream.len() {
        return Err(format!(
            "reference answered {} of {} frames",
            summary.frames,
            inputs.stream.len()
        ));
    }
    if matches!(inputs.kind, Kind::FleetSmall | Kind::LearnBig) {
        check::replay_check(&tenants, inputs, &reference)?;
    }
    let drained = match &ref_learn {
        Some(d) => read_dir_files(d)?,
        None => Vec::new(),
    };
    Ok(Prepared {
        tenants,
        reference,
        batches,
        summary,
        pristine,
        drained,
    })
}

/// Copies the files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for (name, bytes) in read_dir_files(from)? {
        std::fs::write(to.join(name), bytes).map_err(|e| e.to_string())?;
    }
    Ok(to.to_path_buf())
}

/// Every file of `dir`, sorted by name.
pub fn read_dir_files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let bytes = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
        out.push((entry.file_name().to_string_lossy().into_owned(), bytes));
    }
    out.sort();
    Ok(out)
}

/// Runs one daemon session and checks its outputs against the reference.
pub fn checked_session(
    inputs: &Inputs,
    prepared: &Prepared,
    served: &Path,
) -> Result<client::Session, String> {
    let learn = match &prepared.pristine {
        Some(p) => Some(copy_dir(p, &inputs.dir.join("session-learn"))?),
        None => None,
    };
    let session = client::run_session(served, inputs, learn.as_deref())?;
    check::gate(&prepared.reference, &session.responses)?;
    if let Some(dir) = &learn {
        if read_dir_files(dir)? != prepared.drained {
            return Err("drained learner checkpoints differ from the reference's".into());
        }
    }
    Ok(session)
}

/// Daemon sessions back to back until `seconds` have been measured and
/// every pooled percentile has enough samples. Reports the median over
/// sessions of set-up time and memory, the median over every request
/// chunk of the run (see [`client::CHUNK`]) of throughput and latency,
/// and percentiles of the pooled control-frame latencies.
fn end_to_end(
    inputs: &Inputs,
    prepared: &Prepared,
    served: &Path,
    seconds: f64,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut sessions: Vec<client::Session> = Vec::new();
    let (mut stats, mut rollouts) = (Vec::new(), Vec::new());
    let (mut rate, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let s = checked_session(inputs, prepared, served)?;
        stats.extend_from_slice(&s.stats_us);
        rollouts.extend_from_slice(&s.rollout_ms);
        rate.extend_from_slice(&s.chunk_rate);
        p50.extend_from_slice(&s.chunk_p50_us);
        p99.extend_from_slice(&s.chunk_p99_us);
        eprintln!(
            "  session {}: setup {:.3} s, {:.0} events/s, peak {} KiB",
            sessions.len(),
            s.setup_s,
            s.events_per_s,
            s.peak_rss_kib
        );
        sessions.push(s);
        let elapsed = start.elapsed().as_secs_f64();
        let enough =
            sessions.len() >= 3 && !rate.is_empty() && stats.len() >= 100 && rollouts.len() >= 100;
        if (elapsed >= seconds && enough) || elapsed >= MAX_MEASURE_S {
            break;
        }
    }
    let per = |f: &dyn Fn(&client::Session) -> Result<f64, String>| -> Result<f64, String> {
        let values = sessions
            .iter()
            .map(f)
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(median(&values))
    };
    let s = &prepared.summary;
    let frames_attempted = inputs.stream.len() * sessions.len();
    let metrics = vec![
        metric("setup_s", per(&|x| Ok(x.setup_s))?, "s"),
        metric("events_per_s", median(&rate), "events/s"),
        metric("latency_p50_us", median(&p50), "us"),
        metric("latency_p99_us", median(&p99), "us"),
        metric("stats_p50_us", percentile(&stats, 0.50)?, "us"),
        metric("stats_p90_us", percentile(&stats, 0.90)?, "us"),
        metric("rollout_p50_ms", percentile(&rollouts, 0.50)?, "ms"),
        metric("rollout_p90_ms", percentile(&rollouts, 0.90)?, "ms"),
        metric(
            "peak_rss_mb",
            per(&|x| Ok(x.peak_rss_kib as f64 / 1024.0))?,
            "MiB",
        ),
        metric("drc_per_event", s.drc_per_event(), "cycles"),
        metric("violation_rate", s.violation_rate(), "ratio"),
    ];
    eprintln!(
        "  {} sessions, {} request chunks, {} stats samples, {} rollout samples",
        sessions.len(),
        rate.len(),
        stats.len(),
        rollouts.len()
    );
    Ok(Outcome {
        correct: true,
        attempted: frames_attempted,
        failed: s.failed * sessions.len(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_responses_repeat_exactly_across_runs_and_thread_counts() {
        let dir = Path::new("work/test-determinism");
        let inputs = gen::generate(Kind::RolloutMix, 5, 6_000, dir, 2);
        let a = prepare(&inputs).unwrap();
        let b = prepare(&inputs).unwrap();
        assert_eq!(a.reference, b.reference);
        // The deterministic metrics are equal across runs.
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.summary.failed, 0);
        assert!(a.summary.drc_per_event() > 0.0 && a.summary.violation_rate() > 0.0);
        let learn = copy_dir(a.pristine.as_deref().unwrap(), &dir.join("two-threads")).unwrap();
        let (two, _) = check::serve(&a.tenants, &inputs.stream.bytes, 2, Some(&learn)).unwrap();
        check::gate(&a.reference, &two).unwrap();
        assert_eq!(read_dir_files(&learn).unwrap(), a.drained);
        let _ = std::fs::remove_dir_all(dir);
    }
}

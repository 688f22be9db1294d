//! `clr-chaos` — seeded fault-injection campaigns for the serve path.
//!
//! ```text
//! clr-chaos plan --seed N [--all R] [--rate KIND=R].. [--out FILE]
//! clr-chaos inject --plan FILE (--snapshot IN | --trace IN) --out FILE
//!                  [--attempt A]
//! clr-chaos campaign [--out-dir DIR] [--seed N] [--rate R] [--cycles C]
//!                    [--mean-gap G] [--threads N] [--quarantine-after K]
//! clr-chaos report <campaign.csv>
//! ```
//!
//! `plan` writes a fault plan in the `clr-fault-plan v1` text codec;
//! `inject` applies a plan's snapshot or trace faults to one artifact on
//! disk (for fixture-building and manual poking); `campaign` runs the
//! full grid over the built-in preset fleet, writing `campaign.csv` plus
//! a `campaign.obs.jsonl` journal into `--out-dir` (CSV to stdout when
//! no directory is given); `report` renders a campaign CSV as a
//! per-layer survival table.
//!
//! Exit codes: `0` success, `1` campaign/serving failure, `2` usage / IO
//! / decode error.

use std::process::ExitCode;

use clr_chaos::{
    corrupt_snapshot_bytes, corrupt_trace, parse_campaign_csv, FaultKind, FaultPlan, FaultRates,
};
use clr_chaos_cli::{campaign_csv, preset_fleet, run_campaign, CampaignConfig};
use clr_obs::{Obs, ObsMode};
use clr_serve::cli::{flag, SplitArgs};

const USAGE: &str = "usage: clr-chaos <command>
  plan --seed N [--all R] [--rate KIND=R].. [--out FILE]
  inject --plan FILE (--snapshot IN | --trace IN) --out FILE [--attempt A]
  campaign [--out-dir DIR] [--seed N] [--rate R] [--cycles C] [--mean-gap G]
           [--threads N] [--quarantine-after K]
  report <campaign.csv>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "plan" => cmd_plan(&args[1..]),
        "inject" => cmd_inject(&args[1..]),
        "campaign" => cmd_campaign(&args[1..]),
        "report" => cmd_report(&args[1..]),
        other => {
            eprintln!("clr-chaos: unknown command {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Prints a usage error and returns the usage exit code.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("clr-chaos: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// Splits args into positional operands and `--flag value` pairs.
fn split_flags(args: &[String]) -> Result<SplitArgs<'_>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name, value.as_str()));
        } else {
            positional.push(arg.as_str());
        }
    }
    Ok((positional, flags))
}

/// `plan`: build and emit a fault plan in the text codec.
fn cmd_plan(args: &[String]) -> ExitCode {
    let (positional, flags) = match split_flags(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("plan takes flags only");
    }
    let seed: u64 = match flag(&flags, "seed").map_or(Ok(1), str::parse) {
        Ok(s) => s,
        Err(_) => return usage_error("bad --seed"),
    };
    let mut rates = FaultRates::zero();
    if let Some(v) = flag(&flags, "all") {
        let Ok(rate) = v.parse::<f64>() else {
            return usage_error("bad --all rate");
        };
        for kind in FaultKind::ALL {
            *rates.rate_mut(kind) = rate;
        }
    }
    for (_, value) in flags.iter().filter(|(n, _)| *n == "rate") {
        let Some((kind, rate)) = value.split_once('=') else {
            return usage_error(&format!("--rate {value:?} is not KIND=R"));
        };
        let Some(kind) = FaultKind::from_name(kind) else {
            let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
            return usage_error(&format!(
                "unknown fault kind {kind:?} (one of {})",
                names.join(", ")
            ));
        };
        let Ok(rate) = rate.parse::<f64>() else {
            return usage_error(&format!("bad rate in --rate {value:?}"));
        };
        *rates.rate_mut(kind) = rate;
    }
    let plan = match FaultPlan::new(seed, rates) {
        Ok(p) => p,
        Err(e) => return usage_error(&e.to_string()),
    };
    match flag(&flags, "out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, plan.to_text()) {
                eprintln!("clr-chaos: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{}", plan.to_text()),
    }
    ExitCode::SUCCESS
}

/// `inject`: apply a plan's faults to one artifact on disk.
fn cmd_inject(args: &[String]) -> ExitCode {
    let (positional, flags) = match split_flags(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("inject takes flags only");
    }
    let Some(plan_path) = flag(&flags, "plan") else {
        return usage_error("inject needs --plan FILE");
    };
    let Some(out) = flag(&flags, "out") else {
        return usage_error("inject needs --out FILE");
    };
    let attempt: u64 = match flag(&flags, "attempt").map_or(Ok(0), str::parse) {
        Ok(a) => a,
        Err(_) => return usage_error("bad --attempt"),
    };
    let plan_text = match std::fs::read_to_string(plan_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-chaos: cannot read {plan_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match FaultPlan::from_text(&plan_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("clr-chaos: {plan_path}: {e}");
            return ExitCode::from(2);
        }
    };
    match (flag(&flags, "snapshot"), flag(&flags, "trace")) {
        (Some(input), None) => {
            let bytes = match std::fs::read(input) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("clr-chaos: cannot read {input}: {e}");
                    return ExitCode::from(2);
                }
            };
            let (damaged, damage) = corrupt_snapshot_bytes(&bytes, &plan, attempt);
            if let Err(e) = std::fs::write(out, damaged) {
                eprintln!("clr-chaos: cannot write {out}: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {out}: {damage:?} (attempt {attempt})");
        }
        (None, Some(input)) => {
            let text = match std::fs::read_to_string(input) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("clr-chaos: cannot read {input}: {e}");
                    return ExitCode::from(2);
                }
            };
            let (damaged, damage) = corrupt_trace(&text, &plan);
            if let Err(e) = std::fs::write(out, damaged) {
                eprintln!("clr-chaos: cannot write {out}: {e}");
                return ExitCode::from(2);
            }
            println!(
                "wrote {out}: {} malformed, {} reordered",
                damage.malformed, damage.reordered
            );
        }
        _ => return usage_error("inject needs exactly one of --snapshot IN or --trace IN"),
    }
    ExitCode::SUCCESS
}

/// `campaign`: run the full grid over the preset fleet.
fn cmd_campaign(args: &[String]) -> ExitCode {
    let (positional, flags) = match split_flags(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("campaign takes flags only");
    }
    let mut config = CampaignConfig::default();
    if let Some(v) = flag(&flags, "seed") {
        match v.parse() {
            Ok(s) => config.seed = s,
            Err(_) => return usage_error("bad --seed"),
        }
    }
    if let Some(v) = flag(&flags, "rate") {
        match v.parse::<f64>() {
            Ok(r) if (0.0..=1.0).contains(&r) => config.rate = r,
            _ => return usage_error("--rate must be in [0, 1]"),
        }
    }
    if let Some(v) = flag(&flags, "cycles") {
        match v.parse::<f64>() {
            Ok(c) if c.is_finite() && c > 0.0 => config.cycles = c,
            _ => return usage_error("bad --cycles"),
        }
    }
    if let Some(v) = flag(&flags, "mean-gap") {
        match v.parse::<f64>() {
            Ok(g) if g.is_finite() && g > 0.0 => config.mean_gap = g,
            _ => return usage_error("bad --mean-gap"),
        }
    }
    if let Some(v) = flag(&flags, "threads") {
        match v.parse() {
            Ok(n) => config.threads = n,
            Err(_) => return usage_error("bad --threads"),
        }
    }
    if let Some(v) = flag(&flags, "quarantine-after") {
        match v.parse() {
            Ok(k) => config.quarantine_after = k,
            Err(_) => return usage_error("bad --quarantine-after"),
        }
    }

    eprintln!("clr-chaos: building preset fleet (3 tenants, small GA budget)..");
    let fleet = preset_fleet();
    let obs = Obs::new(ObsMode::Json);
    let rows = match run_campaign(&fleet, &config, &obs) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("clr-chaos: campaign failed: {e}");
            return ExitCode::from(1);
        }
    };
    for row in &rows {
        eprintln!(
            "cell {}: {}/{} served ({:.1}%), {} degraded, {} quarantined, {} faults",
            row.cell,
            row.served,
            row.events,
            100.0 * row.survival(),
            row.degraded,
            row.quarantined,
            row.injected
        );
    }
    let csv = campaign_csv(&rows);
    match flag(&flags, "out-dir") {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("clr-chaos: cannot create {dir}: {e}");
                return ExitCode::from(2);
            }
            let csv_path = format!("{dir}/campaign.csv");
            if let Err(e) = std::fs::write(&csv_path, csv) {
                eprintln!("clr-chaos: cannot write {csv_path}: {e}");
                return ExitCode::from(2);
            }
            match obs.export(dir, "campaign") {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("wrote {}", p.display());
                    }
                    eprintln!("wrote {csv_path}");
                }
                Err(e) => {
                    eprintln!("clr-chaos: cannot export journal to {dir}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => print!("{csv}"),
    }
    ExitCode::SUCCESS
}

/// `report`: render a campaign CSV as a survival table.
fn cmd_report(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage_error("report takes exactly one campaign CSV path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-chaos: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = match parse_campaign_csv(&text) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("clr-chaos: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<24} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "cell", "events", "served", "survival", "degraded", "quarant", "faults"
    );
    for row in &rows {
        println!(
            "{:<24} {:>8} {:>8} {:>8.1}% {:>9} {:>8} {:>8}",
            row.cell,
            row.events,
            row.served,
            100.0 * row.survival(),
            row.degraded,
            row.quarantined,
            row.injected
        );
    }
    let events: usize = rows.iter().map(|r| r.events).sum();
    let served: usize = rows.iter().map(|r| r.served).sum();
    let survival = if events == 0 {
        1.0
    } else {
        served as f64 / events as f64
    };
    println!(
        "overall: {served}/{events} served ({:.2}%) across {} cells",
        100.0 * survival,
        rows.len()
    );
    ExitCode::SUCCESS
}

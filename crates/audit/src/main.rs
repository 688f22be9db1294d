//! `clr-audit` — the CLI for the CLR1xx source lints.
//!
//! ```text
//! clr-audit [--json] [--root DIR] [--baseline FILE] [FILE...]
//! clr-audit list
//! ```
//!
//! With no `FILE` arguments the whole workspace under `--root` (default
//! `.`) is scanned. Exit code 0 means clean or warn-only, 1 means at
//! least one deny finding, 2 means usage or I/O error. A baseline file
//! (`--baseline`, or `<root>/audit.baseline` when present) grandfathers
//! warn findings; deny findings are never grandfathered.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use clr_audit::{audit_sources, audit_workspace, normalize_path, AuditCode, Baseline};

const USAGE: &str = "\
usage: clr-audit [--json] [--root DIR] [--baseline FILE] [FILE...]
       clr-audit list

Scans first-party Rust sources for CLR1xx determinism/reliability
violations. Without FILE arguments the workspace under --root
(default: the current directory) is scanned and <root>/audit.baseline,
when present, grandfathers warn-level findings.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("clr-audit: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "list" if files.is_empty() => {
                print_registry();
                return Ok(ExitCode::SUCCESS);
            }
            "--json" => json = true,
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a directory".to_string())?,
                );
            }
            "--baseline" => {
                baseline_path = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--baseline needs a file".to_string())?,
                ));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}\n{USAGE}"));
            }
            file => files.push(file.to_string()),
        }
    }

    let mut report = if files.is_empty() {
        audit_workspace(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?
    } else {
        let mut sources = Vec::new();
        for file in &files {
            let source = fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
            sources.push((normalize_path(file), source));
        }
        audit_sources(&sources)
    };

    let baseline = load_baseline(baseline_path.as_deref(), &root)?;
    report.apply_baseline(&baseline);

    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    Ok(ExitCode::from(
        u8::try_from(report.exit_code()).unwrap_or(2),
    ))
}

/// Loads the explicit baseline, or the conventional
/// `<root>/audit.baseline` when one exists, or an empty baseline.
fn load_baseline(explicit: Option<&Path>, root: &Path) -> Result<Baseline, String> {
    let conventional = root.join("audit.baseline");
    let path = match explicit {
        Some(p) => p.to_path_buf(),
        None if conventional.is_file() => conventional,
        None => return Ok(Baseline::default()),
    };
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("reading baseline {}: {e}", path.display()))?;
    Baseline::from_text(&text).map_err(|e| format!("baseline {}: {e}", path.display()))
}

/// Prints the CLR1xx registry, one code per line.
fn print_registry() {
    println!("CLR1xx source lints (clr-audit):");
    for code in AuditCode::ALL {
        println!(
            "  {} [{}] {}",
            code.code(),
            code.severity(),
            code.description()
        );
        println!("      fix: {}", code.fix_hint());
    }
}

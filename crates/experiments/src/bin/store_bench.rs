//! `store_bench` — delta sync versus full-snapshot replication cost.
//!
//! Sweeps churn rates over a synthetic design-point database published
//! into a [`clr_store::Store`] and measures what a replica actually
//! ships: the positional changeset (`Changeset::compute`/`apply`)
//! against the sealed full container. The headline acceptance number —
//! a 100k-point database at 1% churn syncs in ≤5% of the full-snapshot
//! bytes — is asserted here at every scale and pinned in CI by
//! `crates/store/tests/sync_ratio.rs`.
//!
//! Results go to stderr and to `results/BENCH_store.json` (`schema`,
//! `commit`, then one group per churn rate). Byte volumes and ratios
//! are deterministic; the sync wall-clock cost is servebench's
//! `store.changeset_us` and `store.merge_us`. `CLR_QUICK=1` shrinks to
//! smoke scale.

use std::fmt::Write as _;
use std::io::Write as _;

use clr_core::prelude::*;
use clr_store::{synth_db, Changeset, Store};

/// Harness scale.
struct Scale {
    points: usize,
}

impl Scale {
    fn from_env() -> Self {
        if std::env::var("CLR_QUICK").is_ok_and(|v| v == "1") {
            Self { points: 10_000 }
        } else {
            Self { points: 100_000 }
        }
    }
}

/// One churn sweep: publish generation 0, republish with `churn_pct`%
/// of the points changed, and report the sync economics.
struct ChurnRow {
    churn_pct: usize,
    changed_points: usize,
    delta_bytes: usize,
    full_bytes: usize,
}

fn sweep(points: usize, churn_pct: usize) -> ChurnRow {
    let period = 100 / churn_pct;
    let mut store = Store::in_memory();
    store
        .publish(
            Snapshot::new("jpeg", "dac19", synth_db("based", points, |_| 1)),
            "bench",
        )
        .expect("genesis publishes");
    store
        .publish(
            Snapshot::new(
                "jpeg",
                "dac19",
                synth_db("based", points, |i| if i % period == 0 { 2 } else { 1 }),
            ),
            "bench",
        )
        .expect("churned generation publishes");

    let from = store.get(0).expect("generation 0 held");
    let to = store.get(1).expect("generation 1 held");
    let full_bytes = to.to_bytes().len();

    let cs = Changeset::compute(&from, &to);
    let rebuilt = cs.apply(&from).expect("own changeset applies");
    assert_eq!(
        rebuilt.to_bytes(),
        to.to_bytes(),
        "delta sync must rebuild the target byte-for-byte"
    );

    ChurnRow {
        churn_pct,
        changed_points: points / period,
        delta_bytes: cs.byte_len(),
        full_bytes,
    }
}

fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "# store_bench: {}-point database, churn sweep",
        scale.points
    );

    let rows: Vec<ChurnRow> = [1usize, 10, 50]
        .into_iter()
        .map(|churn| sweep(scale.points, churn))
        .collect();

    let mut groups = String::new();
    for (i, row) in rows.iter().enumerate() {
        let ratio_pct = row.delta_bytes as f64 * 100.0 / row.full_bytes as f64;
        eprintln!(
            "  churn {:>2}%: delta {} B vs full {} B ({:.2}%), {} changed point(s)",
            row.churn_pct, row.delta_bytes, row.full_bytes, ratio_pct, row.changed_points,
        );
        if row.churn_pct == 1 {
            assert!(
                row.delta_bytes * 20 <= row.full_bytes,
                "1% churn must sync in ≤5% of full-snapshot bytes \
                 (delta {} B, full {} B)",
                row.delta_bytes,
                row.full_bytes,
            );
        }
        let _ = writeln!(
            groups,
            "    \"churn_{}pct\": {{\"changed_points\": {}, \"delta_bytes\": {}, \
             \"full_bytes\": {}, \"ratio_pct\": {ratio_pct:.2}}}{}",
            row.churn_pct,
            row.changed_points,
            row.delta_bytes,
            row.full_bytes,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }

    let json = format!(
        "{{\n  \"schema\": {},\n  \"bench\": \"store\",\n  \"commit\": {:?},\n  \
         \"points\": {},\n  \"groups\": {{\n{groups}  }}\n}}\n",
        clr_experiments::report::BENCH_SCHEMA_VERSION,
        clr_experiments::report::bench_commit(),
        scale.points,
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("  cannot create results/: {e}");
        return;
    }
    match std::fs::File::create("results/BENCH_store.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
    {
        Ok(()) => eprintln!("  wrote results/BENCH_store.json"),
        Err(e) => eprintln!("  cannot write results/BENCH_store.json: {e}"),
    }
    print!("{json}");
}

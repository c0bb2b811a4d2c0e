//! Benchmark provenance: renders `target/experiments.jsonl` (the JSON
//! record stream every bench bin appends to) into a Markdown report that
//! diffs the **measured** palettes and rounds against the **paper's
//! analytic columns**, per experiment.
//!
//! `cargo run --release -p decolor-bench --bin experiments_report > EXPERIMENTS.md`
//!
//! The report is written to stdout so the wrapper script
//! (`scripts/experiments-report.sh`) can place it; records accumulate
//! across runs, so re-running after a change shows both measurements
//! side by side.

use std::collections::BTreeMap;

use decolor_bench::markdown_table;

/// The record shape every bench bin writes (`decolor_bench::Record`),
/// read back field-for-field; unparsable lines are counted and skipped.
#[derive(Debug)]
struct Row {
    experiment: String,
    workload: String,
    n: usize,
    m: usize,
    delta: usize,
    x: u32,
    palette: u64,
    colors_used: usize,
    bound: u64,
    rounds: u64,
    messages: u64,
    #[allow(dead_code)]
    time_shape: f64,
    /// Defaults to 0 for records written before the wall-clock column
    /// existed (the vendored serde shim has no `#[serde(default)]`, so
    /// the impl below is written by hand).
    wall_s: f64,
    nproc: usize,
    threads: usize,
}

impl serde::Deserialize for Row {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Row {
            experiment: serde::Deserialize::from_value(v.get_field("experiment")?)?,
            workload: serde::Deserialize::from_value(v.get_field("workload")?)?,
            n: serde::Deserialize::from_value(v.get_field("n")?)?,
            m: serde::Deserialize::from_value(v.get_field("m")?)?,
            delta: serde::Deserialize::from_value(v.get_field("delta")?)?,
            x: serde::Deserialize::from_value(v.get_field("x")?)?,
            palette: serde::Deserialize::from_value(v.get_field("palette")?)?,
            colors_used: serde::Deserialize::from_value(v.get_field("colors_used")?)?,
            bound: serde::Deserialize::from_value(v.get_field("bound")?)?,
            rounds: serde::Deserialize::from_value(v.get_field("rounds")?)?,
            messages: serde::Deserialize::from_value(v.get_field("messages")?)?,
            time_shape: serde::Deserialize::from_value(v.get_field("time_shape")?)?,
            wall_s: v
                .get_field("wall_s")
                .map_or(Ok(0.0), serde::Deserialize::from_value)?,
            nproc: serde::Deserialize::from_value(v.get_field("nproc")?)?,
            threads: serde::Deserialize::from_value(v.get_field("threads")?)?,
        })
    }
}

fn main() {
    let path = std::path::Path::new("target/experiments.jsonl");
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!(
                "experiments_report: cannot read {} ({e}); run a bench bin \
                 (e.g. `cargo run -p decolor-bench --bin scaling -- --quick`) first",
                path.display()
            );
            std::process::exit(1);
        }
    };
    let mut skipped = 0usize;
    let mut groups: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for line in raw.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<Row>(line) {
            Ok(row) => groups.entry(row.experiment.clone()).or_default().push(row),
            Err(_) => skipped += 1,
        }
    }

    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );

    println!("# Experiments — measured vs the paper's analytic columns\n");
    println!(
        "Generated by `scripts/experiments-report.sh` at commit `{commit}` \
         from `target/experiments.jsonl` ({} records{}).\n",
        groups.values().map(Vec::len).sum::<usize>(),
        if skipped > 0 {
            format!(", {skipped} unparsable skipped")
        } else {
            String::new()
        }
    );
    println!(
        "`measured/bound` compares the realized palette against the \
         paper's analytic color bound for that row (≤ 1.00 means the \
         bound holds; 0 bounds are rows without an analytic column). \
         Records accumulate across runs, so the same workload may appear \
         once per measurement.\n"
    );

    for (experiment, rows) in &groups {
        println!("## {experiment}\n");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let ratio = if r.bound > 0 {
                    format!("{:.2}", r.palette as f64 / r.bound as f64)
                } else {
                    "-".into()
                };
                vec![
                    r.workload.clone(),
                    format!("{}", r.n),
                    format!("{}", r.m),
                    format!("{}", r.delta),
                    format!("{}", r.x),
                    format!("{}", r.palette),
                    format!("{}", r.colors_used),
                    format!("{}", r.bound),
                    ratio,
                    format!("{}", r.rounds),
                    format!("{}", r.messages),
                    if r.wall_s > 0.0 {
                        format!("{:.3}", r.wall_s)
                    } else {
                        "-".into()
                    },
                    format!("{}/{}", r.threads, r.nproc),
                ]
            })
            .collect();
        println!(
            "{}",
            markdown_table(
                &[
                    "workload",
                    "n",
                    "m",
                    "Δ",
                    "x",
                    "measured palette",
                    "colors used",
                    "analytic bound",
                    "measured/bound",
                    "rounds",
                    "messages",
                    "wall (s)",
                    "threads/nproc",
                ],
                &table
            )
        );
    }

    // Thread-scaling section: any (experiment, workload) measured at two
    // or more pool widths gets a speedup-vs-threads row. The last record
    // per (group, width) wins, mirroring how re-runs supersede earlier
    // measurements elsewhere in the report.
    let mut scaling: BTreeMap<(String, String), BTreeMap<usize, f64>> = BTreeMap::new();
    for r in groups.values().flatten() {
        if r.wall_s > 0.0 {
            scaling
                .entry((r.experiment.clone(), r.workload.clone()))
                .or_default()
                .insert(r.threads, r.wall_s);
        }
    }
    scaling.retain(|_, widths| widths.len() >= 2);
    if !scaling.is_empty() {
        println!("## Thread scaling\n");
        println!(
            "Wall-clock by pool width for rows measured at multiple widths \
             (one `scaling --threads ...` invocation); speedup is relative \
             to the narrowest width of the row.\n"
        );
        let table: Vec<Vec<String>> = scaling
            .iter()
            .map(|((experiment, workload), widths)| {
                let base = widths.values().next().copied().unwrap_or(0.0);
                let cells = widths
                    .iter()
                    .map(|(w, s)| {
                        if *s > 0.0 && base > 0.0 {
                            format!("{w}: {s:.3}s ({:.2}x)", base / s)
                        } else {
                            format!("{w}: {s:.3}s")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                vec![experiment.clone(), workload.clone(), cells]
            })
            .collect();
        println!(
            "{}",
            markdown_table(
                &["experiment", "workload", "wall by width (speedup)"],
                &table
            )
        );
    }

    let violations: Vec<String> = groups
        .values()
        .flatten()
        .filter(|r| r.bound > 0 && r.palette > r.bound)
        .map(|r| format!("{} / {}", r.experiment, r.workload))
        .collect();
    if violations.is_empty() {
        println!("No analytic bound is exceeded by any recorded measurement.");
    } else {
        println!("**Bound violations:** {}", violations.join(", "));
    }
}

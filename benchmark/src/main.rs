//! The repository benchmark: runs one named workload with a seed for a
//! time budget, checks every output, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload star-regular16 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times the library's entry point (monolithic calls) and
//! prints the end-to-end metrics. `--trace 1` also rebuilds the entry
//! point from public calls with a span around each, writes the spans to
//! `benchmark/out/`, and prints the per-layer metrics. The last line of
//! standard output is one JSON object.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use workloads::{setup, Input, Outcome, Scale, Workload};

/// End-to-end metrics (`--trace 0`), as listed in BENCHMARK.json.
const END_TO_END: [(&str, &str); 7] = [
    ("color_s.p10", "s"),
    ("edges_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("palette", "count"),
    ("rounds", "count"),
    ("messages", "count"),
];

/// Per-layer metrics (`--trace 1`), as listed in BENCHMARK.json.
const PER_LAYER: [(&str, &str); 40] = [
    ("generators.s", "s"),
    ("line_graph.cover_s", "s"),
    ("line_graph.stream_s", "s"),
    ("storage.build_s", "s"),
    ("storage.bytes_written", "bytes"),
    ("storage.write_mb_per_s", "MB/s"),
    ("connectors.edge.s", "s"),
    ("connectors.edge.edges", "count"),
    ("edge_space.s", "s"),
    ("edge_space.calls", "count"),
    ("edge_space.rounds", "count"),
    ("edge_space.messages", "count"),
    ("star_partition.classes", "count"),
    ("star_partition.class_s.max", "s"),
    ("star_partition.class_imbalance", "ratio"),
    ("reduction.trim_s", "s"),
    ("reduction.trim_rounds", "count"),
    ("reduction.trim_palette_in", "count"),
    ("reduction.vertex_s", "s"),
    ("h_partition.s", "s"),
    ("h_partition.rounds", "count"),
    ("h_partition.sets", "count"),
    ("crossing_merge.s", "s"),
    ("crossing_merge.stages", "count"),
    ("crossing_merge.edges", "count"),
    ("crossing_merge.rounds", "count"),
    ("star_partition.intra_s", "s"),
    ("linial.s", "s"),
    ("linial.rounds", "count"),
    ("linial.messages", "count"),
    ("connectors.clique.s", "s"),
    ("connectors.clique.edges", "count"),
    ("delta_plus_one.s", "s"),
    ("delta_plus_one.rounds", "count"),
    ("cd_coloring.class_imbalance", "ratio"),
    ("runtime.network_new_s", "s"),
    ("pool.speedup", "ratio"),
    ("verify.s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.faithful", "bool"),
];

/// A run sets up at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median. Star and t52 set up in
/// ~10–30 ms, so a few repeats would span only a brief slice of host load.
const SETUP_REPEATS: usize = 9;
const SETUP_SECONDS: f64 = 1.0;
/// The percentile `color_s.p10` reports. The shared test host alternates
/// between a fast and a ~1.4× slower phase, each lasting seconds, so a
/// run's median (and its tail) follows the share of the run spent in the
/// slow phase. The 10th percentile reads the fast phase as long as a run
/// spends a tenth of its calls there.
const TIMING_PERCENTILE: f64 = 10.0;
/// The tail percentile is the highest with this many samples beyond it.
const TAIL_BEYOND: usize = 10;
/// A run keeps timing past its budget until it has this many samples
/// (so a tail exists), up to four times the budget.
const MIN_SAMPLES: usize = 2 * TAIL_BEYOND;
/// Untimed calls before timing starts (allocator growth, first touch).
const WARMUP_CALLS: usize = 2;
/// Traced decompositions per `--trace 1` run, at least.
const MIN_TRACE_REPS: u32 = 3;

const USAGE: &str = concat!(
    "usage: decolor-benchmark --workload <star-regular16|t52-powerlaw|cd-linegraph-mmap>",
    " [--seed <u64>] [--seconds <s>] [--trace <0|1>]"
);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses the command line strictly: every flag takes a value, unknown
/// flags, repeats and malformed values are errors. `Ok(None)` is `--help`.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut seen = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        if seen.contains(flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag.clone());
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
            }
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                };
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile: the smallest sample with at least
/// `p` percent of the samples at or below it.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the value and its percentile level.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let rank = n - TAIL_BEYOND;
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was taken at, read from `.git` without
/// running git; `unknown` outside a git checkout (or when the branch ref
/// is packed).
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let sha = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.clone(),
    };
    match sha.trim() {
        "" => "unknown".into(),
        sha => sha.into(),
    }
}

/// Counts calls and failures. A call fails if it errs, if the
/// benchmark's check rejects its coloring, or if its digest differs from
/// the run's first successful call.
#[derive(Default)]
struct Judge {
    attempted: u64,
    failed: u64,
    reference: Option<u32>,
    first: Option<(u64, u64, u64)>,
    verify_s: Vec<f64>,
}

impl Judge {
    fn judge(&mut self, input: &Input, res: Result<Outcome, String>) -> bool {
        self.attempted += 1;
        let verdict = res.and_then(|out| {
            let started = Instant::now();
            input.check(&out)?;
            let digest = out.digest();
            self.verify_s.push(started.elapsed().as_secs_f64());
            match self.reference {
                None => {
                    self.reference = Some(digest);
                    self.first = Some((out.palette, out.stats.rounds, out.stats.messages));
                    Ok(())
                }
                Some(r) if r != digest => Err(format!(
                    "digest {digest:08x} differs from the first call's {r:08x}"
                )),
                Some(_) => Ok(()),
            }
        });
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("call {} failed: {e}", self.attempted);
                false
            }
        }
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
    /// Timed call durations in seconds, in call order.
    samples: Vec<f64>,
}

fn metrics_from(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            (name, unit, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

fn keep_timing(started: Instant, seconds: f64, samples: usize) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    elapsed < seconds || (samples < MIN_SAMPLES && elapsed < 4.0 * seconds)
}

/// `--trace 0`: set up repeatedly (see [`SETUP_REPEATS`]), warm up with
/// [`WARMUP_CALLS`] untimed calls, then time monolithic calls for the
/// budget.
fn run_end_to_end(args: &Args, scale: Scale, out_dir: &Path) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut input = None;
    let setup_started = Instant::now();
    while setup_s.len() < SETUP_REPEATS || setup_started.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(input.take()); // release the previous input and its scratch first
        let started = Instant::now();
        input = Some(setup(
            args.workload,
            scale,
            args.seed,
            out_dir,
            &Tracer::default(),
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up ran");

    let mut judge = Judge::default();
    for _ in 0..WARMUP_CALLS {
        judge.judge(&input, input.color());
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while keep_timing(started, args.seconds, samples.len()) {
        let t0 = Instant::now();
        let res = input.color();
        let dt = t0.elapsed().as_secs_f64();
        if judge.judge(&input, res) {
            samples.push(dt);
        }
    }

    let p10 = percentile(&samples, TIMING_PERCENTILE);
    let (tail_s, level) = tail(&samples);
    let (palette, rounds, messages) = judge.first.unwrap_or_default();
    let values = BTreeMap::from([
        ("color_s.p10", p10),
        ("edges_per_s", input.m as f64 / p10),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("palette", palette as f64),
        ("rounds", rounds as f64),
        ("messages", messages as f64),
    ]);
    let notes = vec![
        format!(
            "input: m = {}, Δ = {}, palette = {palette} (bound {})",
            input.m,
            input.delta,
            input.palette_bound()
        ),
        format!(
            "{} timed calls: p10 {p10} s, median {} s, tail p{level:.1} {tail_s} s ({TAIL_BEYOND} beyond it)",
            samples.len(),
            median(&samples)
        ),
        format!("setup_s is the median of {} set-ups", setup_s.len()),
    ];
    Ok(Report {
        correct: judge.failed == 0 && !samples.is_empty(),
        attempted: judge.attempted,
        failed: judge.failed,
        metrics: metrics_from(&END_TO_END, &values),
        notes,
        samples,
    })
}

/// Max and max ÷ mean of a set of class durations (0 when there are none).
fn imbalance(durations: Option<&Vec<f64>>) -> (f64, f64) {
    match durations {
        Some(d) if !d.is_empty() => {
            let max = d.iter().copied().fold(0.0, f64::max);
            let mean = d.iter().sum::<f64>() / d.len() as f64;
            (max, if mean > 0.0 { max / mean } else { 0.0 })
        }
        _ => (0.0, 0.0),
    }
}

/// The per-layer values of one traced decomposition.
fn layer_values(p: &trace::RunProfile, c: &BTreeMap<&str, f64>) -> BTreeMap<&'static str, f64> {
    let s = |n: &str| p.self_s.get(n).copied().unwrap_or(0.0);
    let k = |n: &str| c.get(n).copied().unwrap_or(0.0);
    let (class_max, class_imbalance) = imbalance(p.durations.get("star_partition.class"));
    let (_, cd_imbalance) = imbalance(p.durations.get("cd_coloring.class"));
    BTreeMap::from([
        ("connectors.edge.s", s("connectors.edge")),
        ("connectors.edge.edges", k("connectors.edge.edges")),
        ("edge_space.s", s("edge_space")),
        ("edge_space.calls", k("edge_space.calls")),
        ("edge_space.rounds", k("edge_space.rounds")),
        ("edge_space.messages", k("edge_space.messages")),
        ("star_partition.classes", k("star_partition.classes")),
        ("star_partition.class_s.max", class_max),
        ("star_partition.class_imbalance", class_imbalance),
        ("reduction.trim_s", s("reduction.trim")),
        ("reduction.trim_rounds", k("reduction.trim_rounds")),
        ("reduction.trim_palette_in", k("reduction.trim_palette_in")),
        ("reduction.vertex_s", s("reduction.vertex")),
        ("h_partition.s", s("h_partition")),
        ("h_partition.rounds", k("h_partition.rounds")),
        ("h_partition.sets", k("h_partition.sets")),
        ("crossing_merge.s", s("crossing_merge")),
        ("crossing_merge.stages", k("crossing_merge.stages")),
        ("crossing_merge.edges", k("crossing_merge.edges")),
        ("crossing_merge.rounds", k("crossing_merge.rounds")),
        ("star_partition.intra_s", s("star_partition.intra")),
        ("linial.s", s("linial")),
        ("linial.rounds", k("linial.rounds")),
        ("linial.messages", k("linial.messages")),
        ("connectors.clique.s", s("connectors.clique")),
        ("connectors.clique.edges", k("connectors.clique.edges")),
        ("delta_plus_one.s", s("delta_plus_one")),
        ("delta_plus_one.rounds", k("delta_plus_one.rounds")),
        ("cd_coloring.class_imbalance", cd_imbalance),
        ("runtime.network_new_s", s("runtime.network_new")),
    ])
}

/// Median over repetitions of `a[i] / b[i]`. The calls of one repetition
/// run back to back, in the same phase of the host, so the ratio cancels
/// the host's speed where a ratio of medians would not.
fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    median(&ratios)
}

/// `--trace 1`: set up once under spans, then for the budget alternate a
/// monolithic call at full pool width, one at width 1, and one traced
/// decomposition. Writes the spans to `out_dir`.
fn run_traced(args: &Args, scale: Scale, out_dir: &Path) -> Result<Report, String> {
    let mut tr = Tracer::default();
    let input = setup(args.workload, scale, args.seed, out_dir, &tr)?;
    let mut judge = Judge::default();
    judge.judge(&input, input.color());

    let (mut wide, mut narrow, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut faithful = true;
    let mut run = 0u32;
    let started = Instant::now();
    while run < MIN_TRACE_REPS || started.elapsed().as_secs_f64() < args.seconds {
        run += 1;
        let t0 = Instant::now();
        let res = input.color();
        wide.push(t0.elapsed().as_secs_f64());
        judge.judge(&input, res);

        let t0 = Instant::now();
        let res = rayon::with_num_threads(1, || input.color());
        narrow.push(t0.elapsed().as_secs_f64());
        judge.judge(&input, res);

        tr.set_run(run);
        let t0 = Instant::now();
        let res = input.color_traced(&tr);
        traced.push(t0.elapsed().as_secs_f64());
        faithful &= match res {
            Ok(out) => Some(out.digest()) == judge.reference,
            Err(e) => {
                eprintln!("traced decomposition {run} failed: {e}");
                false
            }
        };
    }

    let spans = tr.spans();
    let well_formed = trace::check_well_formed(&spans);
    if let Err(e) = &well_formed {
        eprintln!("malformed trace: {e}");
    }
    let trace_path = out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&trace_path, trace::to_json(&spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let reps: Vec<BTreeMap<&str, f64>> = (1..=run)
        .map(|r| layer_values(&trace::profile(&spans, r), &tr.counts(r)))
        .collect();
    let mut values: BTreeMap<&str, f64> = reps[0]
        .keys()
        .map(|&name| {
            let per_rep: Vec<f64> = reps.iter().map(|r| r[name]).collect();
            (name, median(&per_rep))
        })
        .collect();
    let setup_profile = trace::profile(&spans, 0);
    let setup_counts = tr.counts(0);
    let setup_self = |n: &str| setup_profile.self_s.get(n).copied().unwrap_or(0.0);
    let bytes = setup_counts
        .get("storage.bytes_written")
        .copied()
        .unwrap_or(0.0);
    let build_s: f64 = setup_profile
        .durations
        .get("storage.build")
        .map_or(0.0, |d| d.iter().sum());
    values.extend([
        ("generators.s", setup_self("generators")),
        ("line_graph.cover_s", setup_self("line_graph.cover")),
        ("line_graph.stream_s", setup_self("line_graph.stream")),
        ("storage.build_s", setup_self("storage.build")),
        ("storage.bytes_written", bytes),
        (
            "storage.write_mb_per_s",
            if build_s > 0.0 {
                bytes / 1e6 / build_s
            } else {
                0.0
            },
        ),
        ("pool.speedup", median_ratio(&narrow, &wide)),
        ("verify.s", median(&judge.verify_s)),
        ("trace.overhead", median_ratio(&traced, &wide)),
        ("trace.faithful", if faithful { 1.0 } else { 0.0 }),
    ]);
    let notes = vec![
        format!(
            "{run} traced decompositions, {} spans in {}",
            spans.len(),
            trace_path.display()
        ),
        format!(
            "monolithic p50: {:.4} s at full width, {:.4} s at width 1",
            median(&wide),
            median(&narrow)
        ),
    ];
    Ok(Report {
        correct: judge.failed == 0 && well_formed.is_ok(),
        attempted: judge.attempted,
        failed: judge.failed,
        metrics: metrics_from(&PER_LAYER, &values),
        notes,
        samples: wide,
    })
}

/// The pool width every run uses: the machine's hardware parallelism.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Runs a workload at pool width [`nproc`].
fn run(args: &Args, scale: Scale, out_dir: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    rayon::with_num_threads(nproc(), || {
        if args.trace {
            run_traced(args, scale, out_dir)
        } else {
            run_end_to_end(args, scale, out_dir)
        }
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir: PathBuf = bench_dir.join("out");
    let report = match run(&args, Scale::Full, &out_dir) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let nproc = nproc();
    let provenance = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} pool_width={nproc} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bench_dir
            .parent()
            .map_or_else(|| "unknown".into(), git_commit),
    );
    let line = result_json(&report);
    println!("# {provenance}");
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit, value) in &report.metrics {
        println!("# {name} = {value} {unit}");
    }
    let record = out_dir.join(format!(
        "result-{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let samples: Vec<String> = report.samples.iter().map(f64::to_string).collect();
    let body = format!("{provenance}\nsamples_s {}\n{line}\n", samples.join(" "));
    if let Err(e) = std::fs::write(&record, body) {
        eprintln!("warning: {}: {e}", record.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `(name, unit)` of every metric under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        let Value::Array(items) = doc.get_field(key).unwrap() else {
            panic!("{key} is not a list");
        };
        let text_of = |v: &Value, f: &str| match v.get_field(f).unwrap() {
            Value::String(s) => s.clone(),
            other => panic!("{f} is not a string: {other:?}"),
        };
        items
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn strict_arguments() {
        let ok = parse_args(&argv(
            "--workload t52-powerlaw --seed 7 --seconds 2 --trace 1",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(ok.workload, Workload::T52Powerlaw);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 2.0, true));
        assert!(parse_args(&argv("--help")).unwrap().is_none());
        for bad in [
            "",
            "--workload nope",
            "--workload t52-powerlaw --seed x",
            "--workload t52-powerlaw --seed -1",
            "--workload t52-powerlaw --seed",
            "--workload t52-powerlaw --frobnicate 1",
            "--workload t52-powerlaw --trace 2",
            "--workload t52-powerlaw --seconds 0",
            "--workload t52-powerlaw --workload t52-powerlaw",
            "t52-powerlaw",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, level) = tail(&samples);
        assert_eq!(value, 30.0);
        assert_eq!(level, 75.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), TAIL_BEYOND);
        assert_eq!(median(&samples), 20.5);
        assert_eq!(percentile(&samples, TIMING_PERCENTILE), 4.0);
        assert_eq!(percentile(&samples[..5], TIMING_PERCENTILE), 1.0);
        assert_eq!(percentile(&samples, 100.0), 40.0);
        assert_eq!(median_ratio(&[2.0, 9.0, 3.0], &[1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn smoke_runs_print_every_declared_metric_and_pass() {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-run-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 2,
                    seconds: 0.05,
                    trace,
                };
                let report = run(&args, Scale::Smoke, &out_dir).unwrap();
                assert!(report.correct, "{} trace={trace}", workload.name());
                assert_eq!(report.failed, 0);
                let names: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|&(n, u, _)| (n.to_string(), u.to_string()))
                    .collect();
                let table = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                assert_eq!(names, owned(table));
                if trace {
                    let faithful = report.metrics.iter().find(|m| m.0 == "trace.faithful");
                    assert_eq!(faithful.map(|m| m.2), Some(1.0), "{}", workload.name());
                } else {
                    assert!(
                        report.metrics.iter().all(|m| m.2 > 0.0),
                        "{}",
                        workload.name()
                    );
                }
                let line: Value = serde_json::from_str(&result_json(&report)).unwrap();
                let keys: Vec<&str> = line
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}

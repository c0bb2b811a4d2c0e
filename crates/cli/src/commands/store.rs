//! `decolor store build|verify` — build and audit on-disk sharded CSR
//! stores (see `decolor_graph::storage`).
//!
//! `build` streams a graph spec straight into a
//! [`ShardedCsrBuilder`]
//! (families with `*_stream` generators never materialize the edge list;
//! everything else builds in RAM first and spills). With
//! `--journal-every N` the build checkpoints its durable prefix every `N`
//! edges, and `--resume` continues an interrupted journaled build from
//! its last checkpoint — the finished store is byte-identical to an
//! uninterrupted one. `verify` re-reads every data file and checks its
//! manifest CRC32 and the manifest's Δ against the offset table.

use decolor_graph::storage::{
    BuildOptions, ShardedCsr, ShardedCsrBuilder, DEFAULT_SHARD_BITS, FORMAT_VERSION,
};
use decolor_graph::{generators, EdgeSink, Graph, GraphError};

use decolor_core::algorithms::Params;
use decolor_core::AlgoError;

use crate::args::Parsed;
use crate::spec::build_graph;

/// Dispatches `store build` / `store verify`.
///
/// # Errors
///
/// Malformed arguments, spec failures, or storage-layer errors
/// (including [`GraphError::Corrupt`] for damaged stores).
pub fn run(parsed: &mut Parsed) -> Result<String, String> {
    parsed.accept(match parsed.positional(0) {
        Some("build") => &["shard-bits", "journal-every", "resume", "verify"],
        _ => &[],
    })?;
    match parsed.positional(0) {
        Some("build") => build(parsed),
        Some("verify") => verify(parsed),
        Some(other) => Err(format!(
            "unknown store action `{other}` (expected build or verify)"
        )),
        None => Err("store needs an action: build or verify".into()),
    }
}

/// The edge source for a build: a streaming generator when the family
/// has one, otherwise a RAM-built graph replayed edge by edge. Either
/// way the stream is deterministic, which is what lets `--resume`
/// replay-verify the journaled prefix.
enum Source {
    Grid { rows: usize, cols: usize },
    Gnp { n: usize, p: f64, seed: u64 },
    Regular { n: usize, d: usize, seed: u64 },
    Hypercube { dim: u32 },
    Ram(Box<Graph>),
}

impl Source {
    /// Parses a spec into a source plus its vertex count.
    fn parse(spec: &str) -> Result<(Source, usize), String> {
        let (family, params) = spec.split_once(':').unwrap_or((spec, ""));
        if !matches!(family, "grid" | "gnp" | "regular" | "hypercube") {
            let g = build_graph(spec)?;
            let n = g.num_vertices();
            return Ok((Source::Ram(Box::new(g)), n));
        }
        Source::streamed(family, params).map_err(|e| e.to_string())
    }

    /// The families with a `*_stream` generator.
    fn streamed(family: &str, params: &str) -> Result<(Source, usize), AlgoError> {
        let mut p = Params::parse(params)?;
        let parsed = match family {
            "grid" => {
                let (rows, cols) = (p.require("rows")?, p.require("cols")?);
                (Source::Grid { rows, cols }, rows * cols)
            }
            "gnp" => {
                let n = p.require("n")?;
                let (prob, seed) = (p.get("p", 0.1)?, p.get("seed", 0)?);
                (Source::Gnp { n, p: prob, seed }, n)
            }
            "regular" => {
                let n = p.require("n")?;
                let (d, seed) = (p.require("d")?, p.get("seed", 0)?);
                (Source::Regular { n, d, seed }, n)
            }
            _ => {
                let dim = p.require("dim")?;
                (Source::Hypercube { dim }, generators::hypercube_order(dim)?)
            }
        };
        p.finish()?;
        Ok(parsed)
    }

    /// Emits the spec's full edge stream into `sink`.
    fn stream(&self, sink: &mut impl EdgeSink) -> Result<(), GraphError> {
        match self {
            Source::Grid { rows, cols } => generators::grid_stream(*rows, *cols, sink),
            Source::Gnp { n, p, seed } => generators::gnp_stream(*n, *p, *seed, sink),
            Source::Regular { n, d, seed } => {
                generators::random_regular_stream(*n, *d, *seed, sink)
            }
            Source::Hypercube { dim } => generators::hypercube_stream(*dim, sink),
            Source::Ram(g) => {
                for e in g.edges() {
                    let [u, v] = g.endpoints(e);
                    sink.add_edge(u.index(), v.index())?;
                }
                Ok(())
            }
        }
    }
}

fn build(parsed: &mut Parsed) -> Result<String, String> {
    let spec = parsed
        .positional(1)
        .ok_or("store build needs a graph spec")?
        .to_string();
    let dir = parsed
        .positional(2)
        .ok_or("store build needs a target directory")?
        .to_string();
    let shard_bits: u32 = match parsed.option("shard-bits") {
        None => DEFAULT_SHARD_BITS,
        Some(v) => v
            .parse()
            .map_err(|_| "--shard-bits must be an integer".to_string())?,
    };
    let journal_every: usize = match parsed.option("journal-every") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| "--journal-every must be an integer".to_string())?,
    };
    let resume = parsed.option("resume").is_some();

    let (source, n) = Source::parse(&spec)?;
    let mut note = String::new();
    let mut b = if resume {
        let b = ShardedCsrBuilder::resume(&dir).map_err(|e| e.to_string())?;
        if b.num_vertices() != n {
            return Err(format!(
                "journal in {dir} is for n = {} but spec `{spec}` has n = {n}",
                b.num_vertices()
            ));
        }
        note = format!(
            "resuming from durable prefix of {} edges\n",
            b.durable_edges()
        );
        b
    } else {
        ShardedCsrBuilder::with_options(
            &dir,
            n,
            BuildOptions {
                shard_bits,
                journal_every,
            },
        )
        .map_err(|e| e.to_string())?
    };
    source.stream(&mut b).map_err(|e| e.to_string())?;
    let sc = b.finish().map_err(|e| e.to_string())?;
    if parsed.option("verify").is_some() {
        sc.verify().map_err(|e| e.to_string())?;
        note.push_str("checksums verified\n");
    }
    Ok(format!("{note}built {dir} from {spec}\n{}", summary(&sc)))
}

fn verify(parsed: &mut Parsed) -> Result<String, String> {
    let dir = parsed
        .positional(1)
        .ok_or("store verify needs a store directory")?
        .to_string();
    let sc = ShardedCsr::open(&dir).map_err(|e| e.to_string())?;
    sc.verify().map_err(|e| e.to_string())?;
    Ok(format!(
        "store {dir} OK\nchecksums verified\n{}",
        summary(&sc)
    ))
}

/// One-line store summary from the validated manifest.
fn summary(sc: &ShardedCsr) -> String {
    let m = sc.manifest();
    format!(
        "n = {}, m = {}, Δ = {}, format v{FORMAT_VERSION}, 2^{} entries/shard, {} ep + {} adj shards\n",
        m.n,
        m.m,
        m.max_degree,
        m.shard_bits,
        m.ep.len(),
        m.adj.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use decolor_graph::storage::{record, ScratchDir};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A scratch guard, and its path as the string the commands take.
    fn scratch(name: &str) -> (ScratchDir, String) {
        let dir = ScratchDir::new(&std::env::temp_dir(), &format!("decolor-cli-store-{name}"));
        let path = dir.display().to_string();
        (dir, path)
    }

    #[test]
    fn hypercube_dimension_is_checked_before_the_store_is_created() {
        for dim in [0, 21] {
            let (_dir_guard, dir) = scratch(&format!("hypercube-{dim}"));
            let mut p = parse(&argv(&format!("store build hypercube:dim={dim} {dir}"))).unwrap();
            let err = run(&mut p).unwrap_err();
            let want = format!("hypercube dimension {dim} out of range 1..=20");
            assert!(err.contains(&want), "{err}");
            assert!(!std::path::Path::new(&dir).exists(), "dim={dim} left {dir}");
        }
    }

    #[test]
    fn build_and_verify_round_trip() {
        let (_dir_guard, dir) = scratch("roundtrip");
        let mut p = parse(&argv(&format!(
            "store build grid:rows=8,cols=9 {dir} --shard-bits 5 --verify"
        )))
        .unwrap();
        let out = run(&mut p).unwrap();
        assert!(out.contains("n = 72"), "{out}");
        assert!(out.contains("checksums verified"), "{out}");
        let mut v = parse(&argv(&format!("store verify {dir}"))).unwrap();
        assert!(run(&mut v).unwrap().contains("OK"));
    }

    #[test]
    fn verify_flags_bit_rot() {
        let (_dir_guard, dir) = scratch("bitrot");
        let mut p = parse(&argv(&format!(
            "store build gnp:n=200,p=0.05,seed=3 {dir} --shard-bits 6"
        )))
        .unwrap();
        run(&mut p).unwrap();
        // Flip one byte in a data shard: open() still succeeds (lengths
        // are fine) but verify() must report corruption.
        let shard = std::path::Path::new(&dir).join("ep.0");
        let orig = std::fs::read(&shard).unwrap();
        let mut bytes = orig.clone();
        bytes[3] ^= 0x40;
        std::fs::write(&shard, bytes).unwrap();
        let mut v = parse(&argv(&format!("store verify {dir}"))).unwrap();
        let err = run(&mut v).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        // Restore the shard, then raise the manifest's Δ (body word 2)
        // and re-seal its self-CRC: open() still succeeds, but the
        // offset table disagrees, so verify() must fail.
        std::fs::write(&shard, orig).unwrap();
        let path = std::path::Path::new(&dir).join("manifest.bin");
        let bytes = std::fs::read(&path).unwrap();
        let (tag, version) = (record::read_word(&bytes, 0), record::read_word(&bytes, 1));
        let mut body = record::decode(&path, &bytes, tag, version).unwrap();
        body[2] += 1;
        std::fs::write(&path, record::encode(tag, version, &body)).unwrap();
        let mut v = parse(&argv(&format!("store verify {dir}"))).unwrap();
        let err = run(&mut v).unwrap_err();
        assert!(err.contains("max degree"), "{err}");
    }

    #[test]
    fn resume_continues_an_interrupted_journaled_build() {
        let (_dir_guard, dir) = scratch("resume");
        // Journaled reference build.
        let (_reference_guard, reference) = scratch("resume-ref");
        let mut p = parse(&argv(&format!(
            "store build grid:rows=20,cols=20 {reference} --shard-bits 5 --journal-every 64"
        )))
        .unwrap();
        run(&mut p).unwrap();
        // Interrupted build: stream only a prefix, then drop the builder
        // as a hard kill would (keeping its partial files).
        let (source, n) = Source::parse("grid:rows=20,cols=20").unwrap();
        let mut b = ShardedCsrBuilder::with_options(
            &dir,
            n,
            BuildOptions {
                shard_bits: 5,
                journal_every: 64,
            },
        )
        .unwrap();
        struct Prefix<'a>(&'a mut ShardedCsrBuilder, usize);
        impl EdgeSink for Prefix<'_> {
            fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
                if self.1 == 0 {
                    return Err(GraphError::Io {
                        reason: "simulated kill".into(),
                    });
                }
                self.1 -= 1;
                self.0.add_edge(u, v)
            }
            fn reset(&mut self) -> Result<(), GraphError> {
                self.0.reset()
            }
        }
        assert!(source.stream(&mut Prefix(&mut b, 300)).is_err());
        b.keep_partial_on_drop();
        drop(b);
        // Resume through the CLI and compare every file to the reference.
        let mut r = parse(&argv(&format!(
            "store build grid:rows=20,cols=20 {dir} --resume --verify"
        )))
        .unwrap();
        let out = run(&mut r).unwrap();
        assert!(out.contains("resuming from durable prefix"), "{out}");
        for file in ["manifest.bin", "offsets.bin", "ep.0", "adj.0"] {
            let a = std::fs::read(std::path::Path::new(&dir).join(file)).unwrap();
            let b = std::fs::read(std::path::Path::new(&reference).join(file)).unwrap();
            assert_eq!(a, b, "{file} diverges from the uninterrupted build");
        }
    }
}

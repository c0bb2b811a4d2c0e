//! `decolor color <algorithm> <spec>`.

use std::path::Path;

use decolor_baselines::distributed::two_delta_minus_one_edge_coloring;
use decolor_baselines::greedy::greedy_edge_coloring;
use decolor_baselines::misra_gries::misra_gries_edge_coloring;
use decolor_baselines::randomized::randomized_edge_coloring;
use decolor_core::algorithms::{Algorithm, Params};
use decolor_core::verify;
use decolor_graph::coloring::EdgeColoring;
use decolor_graph::storage::ShardedCsr;
use decolor_graph::Graph;
use decolor_runtime::NetworkStats;

use crate::args::Parsed;
use crate::spec::build_graph;

/// The comparison baselines: outside the paper's [`Algorithm`] table,
/// ram backend only.
pub(crate) const BASELINES: [&str; 4] = ["baseline", "misra", "greedy", "random"];

/// Runs the requested edge-coloring algorithm; prints palette, distinct
/// colors, rounds and messages; validates properness.
///
/// # Errors
///
/// Malformed algorithm/spec or algorithm precondition failures.
pub fn run(parsed: &mut Parsed) -> Result<String, String> {
    parsed.accept(&["backend", "verify", "json", "dimacs", "dot"])?;
    let algo = parsed
        .positional(0)
        .ok_or("color needs an algorithm")?
        .to_string();
    let spec = parsed
        .positional(1)
        .ok_or("color needs a graph spec")?
        .to_string();
    let mmap = match parsed.option("backend").unwrap_or("ram") {
        "ram" => false,
        "mmap" => true,
        other => {
            return Err(format!(
                "unknown --backend `{other}` (expected ram or mmap)"
            ))
        }
    };
    let name = algo.split(':').next().unwrap_or_default();
    let paper = if BASELINES.contains(&name) {
        if mmap {
            return Err(format!(
                "algorithm `{name}` does not support --backend mmap (supported: {})",
                Algorithm::NAMES.join(", ")
            ));
        }
        None
    } else {
        Some(algo.parse::<Algorithm>().map_err(|e| e.to_string())?)
    };
    let g = build_graph(&spec)?;
    let delta = g.max_degree();
    let (coloring, stats, label) = match paper {
        None => run_baseline(&algo, &g)?,
        Some(paper) if mmap => {
            let (c, s) = run_on_mmap(&paper, &g, &scratch_dir())?;
            (c, Some(s), format!("{} [mmap backend]", paper.label(delta)))
        }
        Some(paper) => {
            let (c, s) = paper.run(&g, None).map_err(|e| e.to_string())?;
            (c, Some(s), paper.label(delta))
        }
    };
    if !coloring.is_proper(&g) {
        return Err("internal error: produced an improper coloring".into());
    }
    let mut verify_report = String::new();
    if parsed.option("verify").is_some() {
        verify_report = match paper {
            None => "(no certificate checks registered for this algorithm)\n".into(),
            Some(paper) => {
                let checks = verify::check_edge_coloring(
                    &g,
                    &coloring,
                    paper.claim(),
                    paper.palette_bound(delta),
                );
                verify::ensure_all(&checks).map_err(|e| e.to_string())?;
                verify::render_report(&checks)
            }
        };
    }
    let mut out = format!(
        "{label} on {spec} (n = {}, m = {}, Δ = {delta})\n",
        g.num_vertices(),
        g.num_edges()
    );
    out.push_str(&format!(
        "palette {}  distinct {}  (Δ+1 = {}, 2Δ−1 = {})\n",
        coloring.palette(),
        coloring.distinct_colors(),
        delta + 1,
        (2 * delta).saturating_sub(1).max(1),
    ));
    match stats {
        Some(s) => out.push_str(&format!(
            "rounds {}  messages {}  payload {} bytes\n",
            s.rounds, s.messages, s.payload_bytes
        )),
        None => out.push_str("centralized (no LOCAL rounds)\n"),
    }
    out.push_str(&verify_report);
    out.push_str(&super::write_artifacts(parsed, &g, Some(&coloring))?);
    Ok(out)
}

/// A fresh per-process scratch root for one mmap run.
fn scratch_dir() -> std::path::PathBuf {
    static SCRATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SCRATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("decolor-cli-mmap-{}-{seq}", std::process::id()))
}

/// Runs a paper algorithm on the **out-of-core backend**: the graph is
/// spilled to a sharded mmap CSR under `dir` and the view-generic
/// pipeline runs on it unmodified (bit-identical to the ram backend —
/// pinned by the core backend-equivalence tests). star and cd also
/// stream their derived graphs under `dir`. The whole of `dir` is
/// removed on success and error exits alike.
fn run_on_mmap(
    algo: &Algorithm,
    g: &Graph,
    dir: &Path,
) -> Result<(EdgeColoring, NetworkStats), String> {
    struct Cleanup<'a>(&'a Path);
    impl Drop for Cleanup<'_> {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.0);
        }
    }
    let _cleanup = Cleanup(dir);
    let sc = ShardedCsr::from_graph(dir.join("input"), g)
        .map_err(|e| format!("cannot spill graph to mmap storage: {e}"))?;
    algo.run(&sc, Some(dir)).map_err(|e| e.to_string())
}

fn run_baseline(
    algo: &str,
    g: &Graph,
) -> Result<(EdgeColoring, Option<NetworkStats>, String), String> {
    let err = |e: decolor_core::AlgoError| e.to_string();
    let (name, mut params) = Params::split(algo).map_err(err)?;
    let seed = if name == "random" {
        params.get("seed", 0).map_err(err)?
    } else {
        0
    };
    params.finish().map_err(err)?;
    Ok(match name {
        "baseline" => {
            let (c, s) = two_delta_minus_one_edge_coloring(g).map_err(err)?;
            (c, Some(s), "(2Δ−1) baseline".to_string())
        }
        "misra" => (
            misra_gries_edge_coloring(g),
            None,
            "Misra–Gries (Δ+1)".to_string(),
        ),
        "random" => {
            let delta = g.max_degree() as u64;
            let palette = (2 * delta).saturating_sub(1).max(1);
            let (c, s) = randomized_edge_coloring(g, palette, seed).map_err(err)?;
            (c, Some(s), "randomized (2Δ−1), Luby-style".to_string())
        }
        "greedy" => (greedy_edge_coloring(g), None, "greedy (2Δ−1)".to_string()),
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_matches_ram_for_every_algorithm() {
        let g = decolor_graph::generators::forest_union(60, 2, 6, 1).unwrap();
        for algo in Algorithm::all() {
            let (ram, ram_stats) = algo.run(&g, None).unwrap();
            let (mmap, mmap_stats) = run_on_mmap(&algo, &g, &scratch_dir()).unwrap();
            assert_eq!(mmap.as_slice(), ram.as_slice(), "{algo} diverges");
            assert_eq!(mmap_stats, ram_stats, "{algo} ledger diverges");
        }
    }

    #[test]
    fn mmap_scratch_removed_on_success_and_error() {
        let g = decolor_graph::generators::forest_union(60, 2, 6, 1).unwrap();
        let root =
            std::env::temp_dir().join(format!("decolor-cli-scratch-test-{}", std::process::id()));
        for algo in Algorithm::all() {
            let dir = root.join(algo.name());
            run_on_mmap(&algo, &g, &dir).unwrap();
            assert!(!dir.exists(), "{algo}: scratch survived a success exit");
        }
        // q < 2 fails inside theorem52 *after* the graph was spilled (the
        // spec parser rejects it, so build the variant directly).
        let dir = root.join("err");
        let bad = Algorithm::T52 { a: 2, q: 1.0 };
        assert!(run_on_mmap(&bad, &g, &dir).is_err());
        assert!(!dir.exists(), "scratch survived an error exit");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn every_baseline_runs_on_ram() {
        let g = decolor_graph::generators::forest_union(60, 2, 6, 1).unwrap();
        for name in BASELINES {
            let (c, _, _) = run_baseline(name, &g).unwrap();
            assert!(c.is_proper(&g), "{name} produced improper coloring");
        }
        assert!(run_baseline("random:seed=1", &g).is_ok());
        let err = run_baseline("misra:seed=1", &g).unwrap_err();
        assert!(err.contains("takes no parameters"), "{err}");
    }
}

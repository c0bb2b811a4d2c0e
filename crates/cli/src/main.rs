//! `decolor` — CLI for the paper's algorithms.
//!
//! ```text
//! decolor generate <spec> [--json out.json] [--dot out.dot]
//! decolor analyze  <spec>
//! decolor color    <algorithm> <spec> [--json out.json] [--dot out.dot]
//! decolor store    build <spec> <dir> | verify <dir>
//! ```
//!
//! Graph specs: `gnm:n=1000,m=4000,seed=1`, `regular:n=512,d=16,seed=2`,
//! `grid:rows=20,cols=30`, `tree:n=500,seed=3`,
//! `forest:n=1000,a=2,cap=16,seed=4`, `unitdisk:n=600,r=0.07,seed=5`,
//! `hypercube:dim=8`, `ba:n=500,k=3,seed=6`, `rooks:p=8,q=9`,
//! `file:graph.json`.
//!
//! Algorithms: the paper's table (`decolor_core::algorithms`: `star`,
//! `cd`, `t52`, `t53`, `t54`, `c55`) plus the `baseline`, `misra`,
//! `greedy` and `random` baselines.

mod args;
mod commands;
mod spec;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `decolor help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches a parsed command line; returns the textual report.
pub(crate) fn run(argv: &[String]) -> Result<String, String> {
    let mut parsed = args::parse(argv)?;
    match parsed.command.as_str() {
        "generate" => commands::generate::run(&mut parsed),
        "analyze" => commands::analyze::run(&mut parsed),
        "color" => commands::color::run(&mut parsed),
        "store" => commands::store::run(&mut parsed),
        "help" | "--help" | "-h" | "" => Ok(help()),
        "--version" | "-V" => Ok(format!("decolor {}\n", env!("CARGO_PKG_VERSION"))),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The usage text; the paper-algorithm lines come from the
/// [`Algorithm`](decolor_core::algorithms::Algorithm) table.
fn help() -> String {
    let paper: String = decolor_core::algorithms::Algorithm::all()
        .iter()
        .map(|a| format!("  {:<20}{}\n", a.to_string(), a.claim()))
        .collect();
    format!("{HELP_HEAD}{paper}{HELP_TAIL}")
}

const HELP_HEAD: &str = "\
decolor — deterministic distributed coloring (Barenboim–Elkin–Maimon, PODC 2017)

USAGE:
  decolor generate <spec> [--json FILE] [--dimacs FILE] [--dot FILE]
  decolor analyze  <spec>
  decolor color <algorithm> <spec> [--backend ram|mmap] [--verify] [--json FILE] [--dimacs FILE] [--dot FILE]
  decolor store build <spec> <dir> [--shard-bits B] [--journal-every N] [--resume] [--verify]
  decolor store verify <dir>
  decolor help

SPECS (unknown or repeated keys are errors):
  gnm:n=1000,m=4000,seed=1      Erdos-Renyi G(n,m)
  gnp:n=1000,p=0.01,seed=1      Erdos-Renyi G(n,p)
  regular:n=512,d=16,seed=2     random d-regular
  grid:rows=20,cols=30          grid (arboricity <= 2)
  torus:rows=20,cols=30         torus
  tree:n=500,seed=3             uniform random tree
  forest:n=1000,a=2,cap=16,seed=4  union of a bounded-degree forests
  unitdisk:n=600,r=0.07,seed=5  unit-disk sensor network
  hypercube:dim=8               hypercube Q_dim
  ba:n=500,k=3,seed=6           Barabasi-Albert preferential attachment
  rooks:p=8,q=9                 rook's graph (line graph of K_{p,q})
  complete:n=8 star:n=8 cycle:n=8 path:n=8
  file:graph.json               load {\"n\":..,\"edges\":[[u,v],..]}
  dimacs:graph.col              load DIMACS `p edge` / `e u v` format

ALGORITHMS (edge coloring; defaults shown, palette bound checked by --verify):
";

const HELP_TAIL: &str = "  baseline        (2Delta-1) line-graph coloring
  misra           Misra-Gries Delta+1 (centralized)
  greedy          greedy 2Delta-1 (centralized)
  random:seed=1   randomized 2Delta-1, Luby-style (contrast class)

FLAGS:
  --backend B     storage backend for `color`: ram (default) or mmap
                  (spill to a sharded on-disk CSR and run out-of-core;
                  every paper algorithm above, bit-identical to ram;
                  the baselines are ram-only)
  --json FILE     write the graph (+coloring) as JSON
  --dimacs FILE   write the graph in DIMACS format
  --dot FILE      write Graphviz DOT (colored if coloring present)
  --verify        print certificate checks against the paper's bounds
                  (for `store`: recompute every manifest checksum)
  Options a command does not take are errors.

STORE:
  `store build` streams a spec into an on-disk sharded CSR (the mmap
  backend's format). With --journal-every N the build checkpoints its
  durable prefix every N edges; --resume continues an interrupted
  journaled build from its last checkpoint, byte-identical to an
  uninterrupted run. `store verify` validates the manifest, every file
  length, and every CRC32.
";

//! The paper's six edge-coloring algorithms as **one table**.
//!
//! Each [`Algorithm`] variant is one result of the paper — Theorem 4.1
//! (star partition), Theorem 3.3 (CD-Coloring of the line graph),
//! Theorems 5.2–5.4 and Corollary 5.5 — and this module is the only
//! place that knows its name, its parameter schema and defaults, how to
//! run it, its analytic palette bound and its round shape. The CLI, the
//! `scaling` bench, the `--verify` certificates and the paper-bounds
//! suite all read it, so adding an algorithm means adding one variant.
//!
//! ```rust
//! use decolor_core::algorithms::Algorithm;
//! use decolor_graph::generators;
//!
//! # fn main() -> Result<(), decolor_core::AlgoError> {
//! let g = generators::forest_union(200, 2, 8, 1).unwrap();
//! let algo: Algorithm = "t52:a=2".parse()?;
//! let (coloring, stats) = algo.run(&g, None)?;
//! assert!(coloring.is_proper(&g));
//! assert!(coloring.palette() <= algo.palette_bound(g.max_degree()));
//! assert!(stats.rounds > 0);
//! assert!("t52:a=2,bogus=1".parse::<Algorithm>().is_err());
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::path::Path;
use std::str::FromStr;

use decolor_graph::coloring::EdgeColoring;
use decolor_graph::num;
use decolor_graph::subgraph::GraphView;
use decolor_runtime::NetworkStats;

use crate::analysis;
use crate::arboricity::{corollary55, theorem52, theorem53, theorem54, Corollary55Params};
use crate::cd_coloring::{cd_edge_coloring, CdParams};
use crate::delta_plus_one::SubroutineConfig;
use crate::error::AlgoError;
use crate::product::Paint;
use crate::star_partition::{finish, run_stages, StarPartitionParams};

fn invalid(reason: String) -> AlgoError {
    AlgoError::InvalidParameters { reason }
}

/// A `key=value,key=value` parameter list that tracks which keys were
/// read: [`Params::finish`] fails on any key nobody asked for, so a
/// mistyped key is an error instead of a silently applied default.
///
/// ```rust
/// use decolor_core::algorithms::Params;
/// let (name, mut p) = Params::split("regular:n=64,d=8").unwrap();
/// assert_eq!(name, "regular");
/// assert_eq!(p.require::<usize>("n").unwrap(), 64);
/// assert_eq!(p.get("seed", 7u64).unwrap(), 7);
/// assert!(p.finish().is_err()); // `d` was never read
/// ```
#[derive(Clone, Debug)]
pub struct Params {
    unread: Vec<(String, String)>,
    asked: Vec<String>,
}

impl Params {
    /// Parses a parameter list; the empty string has no parameters.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvalidParameters`] for a pair without `=` or a key
    /// given twice.
    pub fn parse(text: &str) -> Result<Params, AlgoError> {
        let mut unread: Vec<(String, String)> = Vec::new();
        for pair in text.split(',').filter(|_| !text.is_empty()) {
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                invalid(format!("malformed parameter `{pair}` (expected key=value)"))
            })?;
            let key = key.trim();
            if unread.iter().any(|(k, _)| k == key) {
                return Err(invalid(format!("duplicate parameter `{key}`")));
            }
            unread.push((key.to_string(), value.trim().to_string()));
        }
        Ok(Params {
            unread,
            asked: Vec::new(),
        })
    }

    /// Splits a `name:key=value,...` spec into its name and parameters.
    ///
    /// # Errors
    ///
    /// As [`Params::parse`].
    pub fn split(spec: &str) -> Result<(&str, Params), AlgoError> {
        let (name, params) = spec.split_once(':').unwrap_or((spec, ""));
        Ok((name, Params::parse(params)?))
    }

    fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, AlgoError> {
        self.asked.push(key.to_string());
        let Some(i) = self.unread.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        let (_, value) = self.unread.remove(i);
        value.parse().map(Some).map_err(|_| {
            invalid(format!(
                "parameter `{key}` has malformed value `{value}` (expected {})",
                std::any::type_name::<T>()
            ))
        })
    }

    /// Reads an optional parameter, falling back to `default`.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvalidParameters`] for an unparsable value.
    pub fn get<T: FromStr>(&mut self, key: &str, default: T) -> Result<T, AlgoError> {
        Ok(self.take(key)?.unwrap_or(default))
    }

    /// Reads a required parameter.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvalidParameters`] for a missing key or an
    /// unparsable value.
    pub fn require<T: FromStr>(&mut self, key: &str) -> Result<T, AlgoError> {
        self.take(key)?
            .ok_or_else(|| invalid(format!("missing parameter `{key}`")))
    }

    /// Ends parsing.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvalidParameters`] naming the first key that was
    /// never read, and the keys that were.
    pub fn finish(self) -> Result<(), AlgoError> {
        match self.unread.first() {
            None => Ok(()),
            Some((key, _)) if self.asked.is_empty() => Err(invalid(format!(
                "unknown parameter `{key}` (this takes no parameters)"
            ))),
            Some((key, _)) => Err(invalid(format!(
                "unknown parameter `{key}` (accepted: {})",
                self.asked.join(", ")
            ))),
        }
    }
}

/// One of the paper's edge-coloring algorithms with its parameters.
///
/// Parsed from a `name:key=value,...` spec ([`FromStr`]); displayed as
/// the canonical spec with every parameter spelled out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// Theorem 4.1: (2^{x+1}Δ)-edge-coloring via `x` levels of star
    /// partitions.
    Star {
        /// Recursion depth.
        x: usize,
    },
    /// Theorem 3.3: CD-Coloring of the line graph (diversity 2, clique
    /// size Δ) with `x` connector levels.
    Cd {
        /// Recursion depth.
        x: usize,
    },
    /// Theorem 5.2: (Δ + O(a)) colors in O(a log n) rounds.
    T52 {
        /// Arboricity upper bound.
        a: usize,
        /// H-partition speed parameter (≥ 2).
        q: f64,
    },
    /// Theorem 5.3: Δ + O(√(Δa)) colors via one orientation connector.
    T53 {
        /// Arboricity upper bound.
        a: usize,
        /// H-partition speed parameter (≥ 2).
        q: f64,
    },
    /// Theorem 5.4: (Δ^{1/x} + â^{1/x} + O(1))^x colors via `x − 1`
    /// bipartite orientation-connector levels.
    T54 {
        /// Arboricity upper bound.
        a: usize,
        /// H-partition speed parameter (≥ 2).
        q: f64,
        /// Recursion depth.
        x: usize,
    },
    /// Corollary 5.5: Theorem 5.4 at the parameters chosen by
    /// [`Corollary55Params::select`].
    C55 {
        /// Arboricity upper bound.
        a: usize,
    },
}

impl Algorithm {
    /// Every algorithm's name, in table order.
    pub const NAMES: [&'static str; 6] = ["star", "cd", "t52", "t53", "t54", "c55"];

    /// Every algorithm at its default parameters, in table order.
    pub fn all() -> Vec<Algorithm> {
        Algorithm::NAMES
            .iter()
            .filter_map(|name| name.parse().ok())
            .collect()
    }

    /// The spec name (`star`, `cd`, `t52`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Star { .. } => "star",
            Algorithm::Cd { .. } => "cd",
            Algorithm::T52 { .. } => "t52",
            Algorithm::T53 { .. } => "t53",
            Algorithm::T54 { .. } => "t54",
            Algorithm::C55 { .. } => "c55",
        }
    }

    /// The human-readable run label. Corollary 5.5 reports the
    /// parameters it selects for maximum degree `delta`.
    pub fn label(&self, delta: usize) -> String {
        match *self {
            Algorithm::Star { x } => format!("star partition (x = {x})"),
            Algorithm::Cd { x } => format!("CD-Coloring of the line graph (x = {x})"),
            Algorithm::T52 { a, .. } => format!("Theorem 5.2 (a = {a})"),
            Algorithm::T53 { a, .. } => format!("Theorem 5.3 (a = {a})"),
            Algorithm::T54 { a, x, .. } => format!("Theorem 5.4 (a = {a}, x = {x})"),
            Algorithm::C55 { a } => {
                let p = Corollary55Params::select(delta, a);
                format!("Corollary 5.5 (a = {a}; chose x = {}, q = {:.1})", p.x, p.q)
            }
        }
    }

    /// The palette claim [`Algorithm::palette_bound`] evaluates, with the
    /// result it comes from.
    pub fn claim(&self) -> &'static str {
        match self {
            Algorithm::Star { .. } => "2^{x+1}Δ (Theorem 4.1, star partition)",
            Algorithm::Cd { .. } => "CD level product at D=2, S=Δ (Theorem 3.3)",
            Algorithm::T52 { .. } => "max(4d+1, Δ+d), d = ⌈q·a⌉ (Theorem 5.2)",
            Algorithm::T53 { .. } => "Δ + O(√(Δ·â)) (Theorem 5.3)",
            Algorithm::T54 { .. } => "2·(Δ^{1/x}+â^{1/x}+3)^x (Theorem 5.4)",
            Algorithm::C55 { .. } => "Theorem 5.4 at auto (x, q) (Corollary 5.5)",
        }
    }

    /// The Theorem 5.4 instance Corollary 5.5 runs on a graph of maximum
    /// degree `delta`.
    fn c55_as_t54(a: usize, delta: usize) -> Algorithm {
        let Corollary55Params { x, q } = Corollary55Params::select(delta, a);
        Algorithm::T54 { a, q, x }
    }

    /// Runs the algorithm on `g`. With `scratch` set, star partition and
    /// CD-Coloring spill their derived graphs (the top-level edge
    /// connector, the line graph) into fresh subdirectories of it, which
    /// they remove before returning; the other algorithms ignore it.
    ///
    /// # Errors
    ///
    /// The algorithm's precondition and invariant errors, plus
    /// [`AlgoError::Graph`] for scratch I/O failures.
    pub fn run<G: GraphView + Sync>(
        &self,
        g: &G,
        scratch: Option<&Path>,
    ) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
        let cfg = SubroutineConfig::default();
        let res = match *self {
            Algorithm::Star { x } => {
                let params = StarPartitionParams::for_levels(g, x);
                let res = finish(g, &params, run_stages::<_, Paint>(g, &params, scratch)?)?;
                return Ok((res.coloring, res.stats));
            }
            Algorithm::Cd { x } => {
                let params = CdParams::for_levels(g.max_degree().max(2), x);
                return cd_edge_coloring(g, &params, scratch);
            }
            Algorithm::T52 { a, q } => theorem52(g, a, q, cfg)?,
            Algorithm::T53 { a, q } => theorem53(g, a, q, cfg)?,
            Algorithm::T54 { a, q, x } => theorem54(g, a, q, x, cfg)?,
            Algorithm::C55 { a } => corollary55(g, a, cfg)?.0,
        };
        Ok((res.coloring, res.stats))
    }

    /// The analytic palette bound on a graph of maximum degree `delta`.
    /// Theorem 5.4 (and so Corollary 5.5) carries a factor 2 for its
    /// final Theorem 5.2 stage, as discussed in EXPERIMENTS.md.
    pub fn palette_bound(&self, delta: usize) -> u64 {
        let d = num::to_u64(delta);
        match *self {
            Algorithm::Star { x } => analysis::table1_ours_colors(d.max(1), levels(x)),
            Algorithm::Cd { x } => {
                let t = num::to_u64(CdParams::for_levels(delta.max(2), x).t);
                analysis::cd_palette_product(2, d, t, levels(x))
            }
            Algorithm::T52 { a, q } => analysis::theorem52_palette(d, num::to_u64(a), q),
            Algorithm::T53 { a, q } => analysis::theorem53_palette(d, num::to_u64(a), q),
            Algorithm::T54 { a, q, x } => {
                analysis::theorem54_palette(d, num::to_u64(a), q, levels(x)).saturating_mul(2)
            }
            Algorithm::C55 { a } => Algorithm::c55_as_t54(a, delta).palette_bound(delta),
        }
    }

    /// The analytic round shape (the argument of the paper's Õ(·)) on a
    /// graph with `n` vertices and maximum degree `delta`.
    pub fn round_shape(&self, n: usize, delta: usize) -> f64 {
        let (n64, d) = (num::to_u64(n), num::to_u64(delta));
        match *self {
            Algorithm::Star { x } => analysis::table1_ours_time(d, levels(x), n64),
            Algorithm::Cd { x } => analysis::table2_ours_time(2, d, levels(x), n64),
            Algorithm::T52 { a, .. } => analysis::theorem52_time(num::to_u64(a), n64),
            Algorithm::T53 { a, .. } => analysis::theorem53_time(num::to_u64(a), n64),
            Algorithm::T54 { a, q, x } => {
                analysis::theorem54_time(num::to_u64(a), q, levels(x), n64)
            }
            Algorithm::C55 { a } => Algorithm::c55_as_t54(a, delta).round_shape(n, delta),
        }
    }
}

/// A recursion depth as the analytic formulas' exponent type.
fn levels(x: usize) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

impl FromStr for Algorithm {
    type Err = AlgoError;

    fn from_str(spec: &str) -> Result<Algorithm, AlgoError> {
        let (name, mut p) = Params::split(spec)?;
        let algo = match name {
            "star" => Algorithm::Star { x: p.get("x", 1)? },
            "cd" => Algorithm::Cd { x: p.get("x", 1)? },
            "t52" => Algorithm::T52 {
                a: p.get("a", 2)?,
                q: p.get("q", 2.5)?,
            },
            "t53" => Algorithm::T53 {
                a: p.get("a", 2)?,
                q: p.get("q", 2.5)?,
            },
            "t54" => Algorithm::T54 {
                a: p.get("a", 2)?,
                q: p.get("q", 2.5)?,
                x: p.get("x", 2)?,
            },
            "c55" => Algorithm::C55 { a: p.get("a", 2)? },
            other => return Err(invalid(format!("unknown algorithm `{other}`"))),
        };
        p.finish()?;
        match algo {
            Algorithm::Star { x: 0 } | Algorithm::Cd { x: 0 } | Algorithm::T54 { x: 0, .. } => {
                Err(invalid("x must be ≥ 1".into()))
            }
            Algorithm::T52 { a: 0, .. }
            | Algorithm::T53 { a: 0, .. }
            | Algorithm::T54 { a: 0, .. }
            | Algorithm::C55 { a: 0 } => Err(invalid("a must be ≥ 1".into())),
            Algorithm::T52 { q, .. } | Algorithm::T53 { q, .. } | Algorithm::T54 { q, .. }
                if !q.is_finite() || q < 2.0 =>
            {
                Err(invalid(format!("q = {q} must be finite and ≥ 2")))
            }
            _ => Ok(algo),
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.name())?;
        match self {
            Algorithm::Star { x } | Algorithm::Cd { x } => write!(f, "x={x}"),
            Algorithm::T52 { a, q } | Algorithm::T53 { a, q } => write!(f, "a={a},q={q}"),
            Algorithm::T54 { a, q, x } => write!(f, "a={a},q={q},x={x}"),
            Algorithm::C55 { a } => write!(f, "a={a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;

    #[test]
    fn table_lists_every_name_once_and_round_trips() {
        let all = Algorithm::all();
        let names: Vec<&str> = all.iter().map(Algorithm::name).collect();
        assert_eq!(names, Algorithm::NAMES);
        for algo in all {
            assert_eq!(algo.to_string().parse::<Algorithm>().unwrap(), algo);
        }
    }

    #[test]
    fn specs_are_strict() {
        assert_eq!(
            "t54:x=3".parse::<Algorithm>().unwrap(),
            Algorithm::T54 { a: 2, q: 2.5, x: 3 }
        );
        for bad in [
            "star:x=1,bogus=7",
            "star:x=one",
            "star:x",
            "star:x=1,x=2",
            "zzz",
            "c55:q=3",
            "t52:q=inf",
            "t52:q=NaN",
            "t53:q=-inf",
            "t54:q=1.5",
            "t52:a=0",
            "c55:a=0",
        ] {
            assert!(bad.parse::<Algorithm>().is_err(), "{bad} parsed");
        }
        let err = "star:x=1,bogus=7".parse::<Algorithm>().unwrap_err();
        assert!(
            err.to_string().contains("unknown parameter `bogus`"),
            "{err}"
        );
        let err = "zzz".parse::<Algorithm>().unwrap_err();
        assert!(err.to_string().contains("unknown algorithm `zzz`"), "{err}");
    }

    #[test]
    fn params_report_missing_malformed_and_unread_keys() {
        let mut p = Params::parse("n=10,r=0.25").unwrap();
        assert_eq!(p.require::<usize>("n").unwrap(), 10);
        assert!((p.get("r", 1.0f64).unwrap() - 0.25).abs() < 1e-12);
        assert!(p
            .require::<usize>("m")
            .unwrap_err()
            .to_string()
            .contains("missing"));
        p.finish().unwrap();
        assert!(Params::parse("r=x").unwrap().get("r", 1.0f64).is_err());
        assert!(Params::parse("oops").is_err());
        let err = Params::parse("seed=1").unwrap().finish().unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn every_algorithm_runs_within_its_palette_bound() {
        let g = generators::forest_union(150, 2, 8, 4).unwrap();
        for algo in Algorithm::all() {
            let (coloring, stats) = algo.run(&g, None).unwrap();
            assert!(coloring.is_proper(&g), "{algo}");
            assert!(
                coloring.palette() <= algo.palette_bound(g.max_degree()),
                "{algo}"
            );
            assert!(stats.rounds > 0, "{algo}");
            assert!(
                algo.round_shape(g.num_vertices(), g.max_degree()) > 0.0,
                "{algo}"
            );
        }
    }
}

//! Certificate checking: structured verification of the paper's bounds on
//! concrete algorithm outputs.
//!
//! Tests assert these properties; this module additionally exposes them as
//! data ([`BoundCheck`]) so callers (e.g. `decolor color --verify`) can
//! print an auditable report: each check names the claim, the measured
//! value and the bound it must not exceed.

use decolor_graph::coloring::EdgeColoring;
use decolor_graph::subgraph::GraphView;

use crate::error::AlgoError;

/// One verified (or violated) bound.
///
/// ```rust
/// use decolor_core::verify::BoundCheck;
/// let ok = BoundCheck { claim: "palette ≤ 4Δ".into(), measured: 49, bound: 64 };
/// assert!(ok.holds());
/// let bad = BoundCheck { claim: "palette ≤ 4Δ".into(), measured: 70, bound: 64 };
/// assert!(!bad.holds());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundCheck {
    /// Human-readable claim, e.g. `"palette ≤ 2^{x+1}Δ"`.
    pub claim: String,
    /// The measured quantity.
    pub measured: u64,
    /// The bound it must not exceed.
    pub bound: u64,
}

impl BoundCheck {
    /// `true` when the bound holds.
    pub fn holds(&self) -> bool {
        self.measured <= self.bound
    }
}

/// Renders checks as an aligned report with ✓/✗ markers.
pub fn render_report(checks: &[BoundCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        out.push_str(&format!(
            "{} {:<52} measured {:>8} ≤ bound {:>8}\n",
            if c.holds() { "✓" } else { "✗" },
            c.claim,
            c.measured,
            c.bound
        ));
    }
    out
}

/// Converts failed checks into an error.
///
/// # Errors
///
/// [`AlgoError::InvariantViolated`] naming the first failed claim.
pub fn ensure_all(checks: &[BoundCheck]) -> Result<(), AlgoError> {
    match checks.iter().find(|c| !c.holds()) {
        None => Ok(()),
        Some(c) => Err(AlgoError::InvariantViolated {
            reason: format!("{}: measured {} > bound {}", c.claim, c.measured, c.bound),
        }),
    }
}

/// Properness of an edge coloring plus its palette against `bound`
/// (e.g. an [`Algorithm::palette_bound`](crate::algorithms::Algorithm::palette_bound),
/// with its [`claim`](crate::algorithms::Algorithm::claim)).
pub fn check_edge_coloring<G: GraphView>(
    g: &G,
    coloring: &EdgeColoring,
    claim: &str,
    bound: u64,
) -> Vec<BoundCheck> {
    vec![
        BoundCheck {
            claim: "edge coloring is proper (violations)".into(),
            measured: u64::from(coloring.first_violation(g).is_some()),
            bound: 0,
        },
        BoundCheck {
            claim: format!("palette ≤ {claim}"),
            measured: coloring.palette(),
            bound,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use decolor_graph::generators;

    #[test]
    fn every_algorithm_certifies() {
        let g = generators::forest_union(150, 2, 8, 4).unwrap();
        for algo in Algorithm::all() {
            let (coloring, _) = algo.run(&g, None).unwrap();
            let checks = check_edge_coloring(
                &g,
                &coloring,
                algo.claim(),
                algo.palette_bound(g.max_degree()),
            );
            ensure_all(&checks).unwrap();
            let report = render_report(&checks);
            assert!(report.contains("✓"), "{algo}: {report}");
            assert!(!report.contains("✗"), "{algo}: {report}");
        }
    }

    #[test]
    fn violations_are_reported() {
        let g = generators::complete(4).unwrap();
        // An improper "coloring": all edges share color 0.
        let bad = EdgeColoring::new(vec![0; 6], 1).unwrap();
        let checks = check_edge_coloring(&g, &bad, "4Δ", 12);
        assert!(ensure_all(&checks).is_err());
        assert!(render_report(&checks).contains("✗"));
    }
}

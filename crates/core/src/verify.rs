//! Certificate checking: structured verification of the paper's bounds on
//! concrete algorithm outputs.
//!
//! Tests assert these properties; this module additionally exposes them as
//! data ([`BoundCheck`]) so callers (e.g. `decolor color --verify`) can
//! print an auditable report: each check names the claim, the measured
//! value and the bound it must not exceed.

use decolor_graph::coloring::{Color, Coloring, EdgeColoring, Element, VertexColoring};
use decolor_graph::subgraph::GraphView;
use decolor_graph::GraphError;

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

/// The properness check of one kind of coloring: adjacent vertices or
/// incident edges.
pub(crate) trait Proper {
    fn validate_on<G: GraphView>(&self, g: &G) -> Result<(), GraphError>;
}

impl Proper for VertexColoring {
    fn validate_on<G: GraphView>(&self, g: &G) -> Result<(), GraphError> {
        self.validate(g)
    }
}

impl Proper for EdgeColoring {
    fn validate_on<G: GraphView>(&self, g: &G) -> Result<(), GraphError> {
        self.validate(g)
    }
}

/// An algorithm's checked finish: `colors` within `palette` and proper
/// on `g`, or [`AlgoError::InvariantViolated`] carrying the
/// [`GraphError`]'s reason — a coloring the algorithm built itself that
/// fails either check is a bug, not a bad input.
pub(crate) fn certified<I: Element, G: GraphView>(
    g: &G,
    colors: Vec<Color>,
    palette: u64,
) -> Result<Coloring<I>, AlgoError>
where
    Coloring<I>: Proper,
{
    let coloring = Coloring::new(colors, palette).map_err(AlgoError::invariant)?;
    coloring.validate_on(g).map_err(AlgoError::invariant)?;
    Ok(coloring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use decolor_graph::{generators, EdgeId, VertexId};

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

    #[test]
    fn certified_surfaces_graph_errors_as_invariant_violations() {
        let g = generators::complete(3).unwrap();
        let violated = |reason: &str| AlgoError::InvariantViolated {
            reason: format!("validation failed: {reason}"),
        };
        assert_eq!(
            certified::<EdgeId, _>(&g, vec![0, 0, 1], 2),
            Err(violated("incident edges e0 and e1 share color 0"))
        );
        assert_eq!(
            certified::<VertexId, _>(&g, vec![0, 1, 1], 2),
            Err(violated("vertices v1 and v2 of edge e2 share color 1"))
        );
        assert_eq!(
            certified::<EdgeId, _>(&g, vec![0, 1, 2], 2),
            Err(violated("color 2 outside palette of size 2"))
        );
        assert!(certified::<VertexId, _>(&g, vec![0, 1, 2], 3).is_ok());
    }
}

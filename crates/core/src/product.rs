//! The paper's **⟨ϕ, ψ⟩ class product**, written once.
//!
//! Every construction in the paper takes the same recursive step: build a
//! connector, color it with a few colors ϕ, color each ϕ-class in parallel
//! with ψ, and output the pair ⟨ϕ, ψ⟩ (Algorithm 1 line 15, the §4 star
//! partition stages, Theorem 2.4, Theorems 5.3/5.4). [`color_classes`] is
//! the second half of that step — the parallel fan-out over the classes
//! and the canonical combine — so each pipeline keeps only its own head
//! (connector, ϕ and their ledger) and its outer-palette multiply.
//!
//! The star-partition stages and the CD-Coloring levels also build the
//! paper's structures (§4's star partition, Theorem 2.4's clique
//! decomposition): the same recursion with a [`Leaf`] that labels
//! instead of colors.

use decolor_graph::coloring::Color;
use decolor_graph::num;
use decolor_runtime::NetworkStats;
use rayon::prelude::*;

use crate::error::AlgoError;

/// A class coloring: colors in class order, palette, ledger.
pub(crate) type Colored = (Vec<Color>, u64, NetworkStats);

/// The leaf of a class recursion: what a coloring run and a run that
/// labels a paper structure do differently — the base case, and the
/// palette a level reports upward. Monomorphized, so neither run pays for
/// the other's branches.
pub(crate) trait Leaf: Sync {
    /// `true` for the labelling leaf.
    const LABELS: bool;

    /// The base case of a class of `len` elements: `color` when coloring,
    /// label 0 everywhere when labelling.
    fn base(
        len: usize,
        color: impl FnOnce() -> Result<Colored, AlgoError>,
    ) -> Result<Colored, AlgoError> {
        if Self::LABELS {
            Ok((vec![0; len], 1, NetworkStats::default()))
        } else {
            color()
        }
    }

    /// A level's [`color_classes`] result as reported upward; `outer` is
    /// the palette its connector coloring ϕ targets. A coloring reports
    /// the analytic product `outer · inner`. A labelling reports its
    /// realized label count (largest label + 1), so the level above packs
    /// its ⟨ϕ, label⟩ pairs no wider than the labels used: (2t − 1)^x
    /// would overflow `u32` at deep `x`.
    fn level(outer: u64, (out, inner, stats): Colored) -> Colored {
        let palette = if Self::LABELS {
            out.iter().max().map_or(1, |&l| u64::from(l) + 1)
        } else {
            outer * inner
        };
        (out, palette, stats)
    }
}

/// The coloring leaf: Theorem 4.1's and Algorithm 1's direct coloring.
pub(crate) struct Paint;

impl Leaf for Paint {
    const LABELS: bool = false;
}

/// The labelling leaf: each class the recursion ends in is one part.
pub(crate) struct Label;

impl Leaf for Label {
    const LABELS: bool = true;
}

/// Colors every nonempty class with `child` on the pool and combines:
/// element `class[i]` of class `c` gets `c · inner + ψ[i]`, where `ψ` is
/// the class's coloring and `inner` the largest child palette (1 when
/// every class is empty). Returns the combined colors over `0..len`,
/// `inner`, and the children's ledger composed in parallel (rounds max,
/// messages and payload summed).
///
/// # Errors
///
/// The first child error in class order, or
/// [`AlgoError::InvariantViolated`] when a combined color exceeds `u32`.
pub(crate) fn color_classes<I, F>(
    len: usize,
    classes: &[Vec<I>],
    child: F,
) -> Result<Colored, AlgoError>
where
    I: Copy + Sync + Into<usize>,
    F: Fn(&[I]) -> Result<Colored, AlgoError> + Sync,
{
    let outcomes: Vec<Result<Option<Colored>, AlgoError>> = classes
        .par_iter()
        .map(|class| {
            if class.is_empty() {
                Ok(None)
            } else {
                child(class).map(Some)
            }
        })
        .collect();
    let results = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let inner = results
        .iter()
        .flatten()
        .map(|&(_, p, _)| p)
        .max()
        .unwrap_or(1);
    let overflow = || AlgoError::InvariantViolated {
        reason: "combined color exceeds u32".into(),
    };
    let mut out: Vec<Color> = vec![0; len];
    for (c, (class, result)) in classes.iter().zip(&results).enumerate() {
        let Some((psi, _, _)) = result else {
            continue;
        };
        let offset = num::to_u64(c).checked_mul(inner).ok_or_else(overflow)?;
        for (&i, &color) in class.iter().zip(psi) {
            let combined = offset.checked_add(u64::from(color)).ok_or_else(overflow)?;
            out[i.into()] = u32::try_from(combined).map_err(|_| overflow())?;
        }
    }
    let ledger = NetworkStats::in_parallel(results.iter().flatten().map(|&(_, _, s)| s));
    Ok((out, inner, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::VertexId;

    fn v(ids: &[usize]) -> Vec<VertexId> {
        ids.iter().copied().map(VertexId::new).collect()
    }

    fn stats(rounds: u64, messages: u64) -> NetworkStats {
        NetworkStats {
            rounds,
            messages,
            payload_bytes: 2 * messages,
        }
    }

    /// Colors class `[a, b, …]` with `0, 1, …` and palette = its length
    /// plus one, charging `len` rounds and `10·len` messages.
    fn by_position(class: &[VertexId]) -> Result<Colored, AlgoError> {
        let k = class.len();
        let colors = (0..k).map(|i| u32::try_from(i).unwrap()).collect();
        Ok((
            colors,
            num::to_u64(k) + 1,
            stats(num::to_u64(k), 10 * num::to_u64(k)),
        ))
    }

    #[test]
    fn empty_class_between_nonempty_ones_keeps_its_color_slot() {
        let classes = vec![v(&[4, 1]), v(&[]), v(&[0, 2, 3])];
        let (out, inner, _) = color_classes(5, &classes, by_position).unwrap();
        assert_eq!(inner, 4);
        // Class 2 is offset by 2·inner although class 1 was never colored.
        assert_eq!(out, vec![8, 1, 9, 10, 0]);
    }

    #[test]
    fn later_child_error_surfaces_after_earlier_success() {
        let classes = vec![v(&[0]), v(&[1]), v(&[2])];
        let err = color_classes(3, &classes, |class| {
            if class[0].index() == 0 {
                by_position(class)
            } else {
                Err(AlgoError::InvalidParameters {
                    reason: format!("class at {}", class[0].index()),
                })
            }
        })
        .unwrap_err();
        // Both later classes fail; the first in class order wins.
        assert!(err.to_string().contains("class at 1"), "{err}");
    }

    #[test]
    fn combined_color_past_u32_is_an_invariant_violation() {
        let classes = vec![v(&[0]), v(&[1])];
        let err = color_classes(2, &classes, |_| {
            Ok((vec![0], u64::from(u32::MAX) + 1, NetworkStats::default()))
        })
        .unwrap_err();
        assert!(matches!(err, AlgoError::InvariantViolated { .. }), "{err}");
        assert!(err.to_string().contains("exceeds u32"), "{err}");
    }

    #[test]
    fn ledger_is_max_rounds_and_summed_traffic() {
        let classes = vec![v(&[0, 1, 2]), v(&[3]), v(&[]), v(&[4, 5])];
        let (_, _, ledger) = color_classes(6, &classes, by_position).unwrap();
        assert_eq!(ledger, stats(3, 60));
    }
}

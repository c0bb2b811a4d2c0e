//! The paper's **analytic bounds** — color counts and Õ(·) running-time
//! formulas from Tables 1 and 2 and Section 5.
//!
//! The bench harness prints these next to the measured palettes/rounds so
//! every table row of the paper can be regenerated with both columns
//! ("ours" vs the previous results of \[7\] + \[17\]) and compared in shape.
//! Running-time formulas are returned as *round-shape scores* (the
//! argument of the Õ), not absolute rounds — the paper itself only states
//! them up to polylog factors.

use crate::util::{integer_root, integer_root_ceil, log_star};
use decolor_graph::num;

/// The paper's a-hat = ceil(q * a) parameter for the Section 5 analytic
/// formulas (graph parameters sit far below 2^53).
fn qa_ceil_u64(q: f64, a: u64) -> u64 {
    let v = (q * num::approx_u64(a.max(1))).ceil().max(0.0);
    // lint: allow(cast, "non-negative ceiling of an analytic estimate over graph parameters below 2^63")
    v as u64
}

/// Table 1, "our results" color count: `2^{x+1}·Δ`.
pub fn table1_ours_colors(delta: u64, x: u32) -> u64 {
    1u64.checked_shl(x.saturating_add(1))
        .map_or(u64::MAX, |levels| levels.saturating_mul(delta))
}

/// Table 1, "our results" time shape: `x · Δ^{1/(2x+2)} + log* n`.
pub fn table1_ours_time(delta: u64, x: u32, n: u64) -> f64 {
    f64::from(x) * num::approx_u64(delta).powf(1.0 / (2.0 * f64::from(x) + 2.0))
        + f64::from(log_star(n))
}

/// Table 1, "previous results" (\[7\] + \[17\]) color count: `(2^{x+1} + ε)·Δ`.
pub fn table1_prev_colors(delta: u64, x: u32, epsilon: f64) -> f64 {
    (num::approx_u64(1u64 << (x + 1)) + epsilon) * num::approx_u64(delta)
}

/// Table 1, "previous results" time shape: `x · Δ^{1/(x+2)} + log* n`.
pub fn table1_prev_time(delta: u64, x: u32, n: u64) -> f64 {
    f64::from(x) * num::approx_u64(delta).powf(1.0 / (f64::from(x) + 2.0)) + f64::from(log_star(n))
}

/// Table 2, "our results" color count: `D^{x+1}·S`.
pub fn table2_ours_colors(diversity: u64, clique_size: u64, x: u32) -> u64 {
    diversity.pow(x + 1) * clique_size
}

/// Table 2, "our results" time shape: `x·√D·S^{1/(2x+2)}... ` — precisely
/// `x · √(D) · S^{1/(2x+2)} + log* n` (the table's Õ(x·√(D)·S^{1/(2x+2)})).
pub fn table2_ours_time(diversity: u64, clique_size: u64, x: u32, n: u64) -> f64 {
    f64::from(x)
        * num::approx_u64(diversity).sqrt()
        * num::approx_u64(clique_size).powf(1.0 / (2.0 * f64::from(x) + 2.0))
        + f64::from(log_star(n))
}

/// Table 2, "previous results" time shape: `x·D^x·Δ^{1/(x+2)} + log* n`.
pub fn table2_prev_time(diversity: u64, delta: u64, x: u32, n: u64) -> f64 {
    f64::from(x)
        * num::approx_u64(diversity.pow(x))
        * num::approx_u64(delta).powf(1.0 / (f64::from(x) + 2.0))
        + f64::from(log_star(n))
}

/// The **exact palette product** realized by CD-Coloring: per level
/// γ = D(t − 1) + 1 with clique sizes following `S_{i+1} = ⌈S_i / t⌉`,
/// final factor `D(⌈S_{x−1}/t⌉ − 1) + 1`. Measured palettes are ≤ this.
pub fn cd_palette_product(diversity: u64, clique_size: u64, t: u64, x: u32) -> u64 {
    let gamma = diversity * (t - 1) + 1;
    let mut s = clique_size;
    let mut product = 1u64;
    for _ in 0..x {
        product = product.saturating_mul(gamma);
        s = s.div_ceil(t);
    }
    product.saturating_mul(diversity * s.saturating_sub(1) + 1)
}

/// The §3/§4 optimizing parameter `t = ⌊S^{1/(x+1)}⌋` (clamped to ≥ 2)
/// for a clique size or maximum degree `S` and `x` levels; an absurd `x`
/// saturates the exponent, which the clamp absorbs.
pub fn optimal_t(size: u64, x: usize) -> usize {
    let exp = u32::try_from(x).unwrap_or(u32::MAX).saturating_add(1);
    // lint: allow(cast, "an integer root of S is at most S, a vertex count or degree that started as a usize")
    integer_root(size, exp).max(2) as usize
}

/// The exact palette product realized by the star partition before the
/// trim: `(2t − 1)^x · (2⌈Δ/tˣ⌉ − 1)`.
pub fn star_partition_palette_product(delta: u64, t: u64, x: u32) -> u64 {
    let mut k = delta;
    let mut product = 1u64;
    for _ in 0..x {
        product = product.saturating_mul(2 * t - 1);
        k = k.div_ceil(t);
    }
    product.saturating_mul((2 * k).saturating_sub(1).max(1))
}

/// Theorem 5.2 palette: `max(4d + 1, Δ + d)` with `d = ⌈q·a⌉`.
pub fn theorem52_palette(delta: u64, a: u64, q: f64) -> u64 {
    let d = qa_ceil_u64(q, a);
    (4 * d + 1).max(delta + d)
}

/// Theorem 5.3 palette shape: `Δ + O(√(Δ·â)) + O(â)`, evaluated with the
/// implementation's constants (the product of two Theorem 5.2 palettes on
/// √-sized pieces).
pub fn theorem53_palette(delta: u64, a: u64, q: f64) -> u64 {
    let d = qa_ceil_u64(q, a);
    let s_in = integer_root_ceil(delta, 2);
    let s_out = integer_root_ceil(d, 2);
    // Connector: degree ≤ s_in + s_out, out-degree ≤ s_out.
    let phi = theorem52_palette(s_in + s_out, s_out, q);
    // Classes: degree ≤ ⌈Δ/s_in⌉ + ⌈d/s_out⌉, out-degree ≤ ⌈d/s_out⌉.
    let class_deg = delta.div_ceil(s_in.max(1)) + d.div_ceil(s_out.max(1));
    let psi = theorem52_palette(class_deg, d.div_ceil(s_out.max(1)), q);
    phi * psi
}

/// Theorem 5.4 color bound: `(Δ^{1/x} + â^{1/x} + 3)^x`.
pub fn theorem54_palette(delta: u64, a: u64, q: f64, x: u32) -> u64 {
    let ahat = qa_ceil_u64(q, a);
    (integer_root_ceil(delta, x) + integer_root_ceil(ahat, x) + 3).saturating_pow(x)
}

/// Theorem 5.2 round shape: `a · log n`.
pub fn theorem52_time(a: u64, n: u64) -> f64 {
    num::approx_u64(a.max(1)) * num::approx_u64(n.max(2)).log2()
}

/// Theorem 5.3 round shape: `√a · log n`.
pub fn theorem53_time(a: u64, n: u64) -> f64 {
    num::approx_u64(a.max(1)).sqrt() * num::approx_u64(n.max(2)).log2()
}

/// Theorem 5.4 round shape: `â^{1/x} · (x + log n / log q)`.
pub fn theorem54_time(a: u64, q: f64, x: u32, n: u64) -> f64 {
    let ahat = (q * num::approx_u64(a.max(1))).ceil();
    ahat.powf(1.0 / f64::from(x)) * (f64::from(x) + num::approx_u64(n.max(2)).log2() / q.log2())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        // Rows of Table 1: 4Δ, 8Δ, 16Δ.
        assert_eq!(table1_ours_colors(100, 1), 400);
        assert_eq!(table1_ours_colors(100, 2), 800);
        assert_eq!(table1_ours_colors(100, 3), 1600);
        // Exponents: x = 1 → Δ^{1/4}; previous → Δ^{1/3}.
        let delta = 1u64 << 16;
        let ours = table1_ours_time(delta, 1, 1 << 20);
        let prev = table1_prev_time(delta, 1, 1 << 20);
        assert!(ours < prev, "ours {ours} should beat previous {prev}");
    }

    #[test]
    fn table2_matches_paper_rows() {
        // D²S, D³S, D⁴S.
        assert_eq!(table2_ours_colors(2, 50, 1), 200);
        assert_eq!(table2_ours_colors(2, 50, 2), 400);
        assert_eq!(table2_ours_colors(3, 50, 1), 450);
        let ours = table2_ours_time(2, 1 << 16, 1, 1 << 20);
        let prev = table2_prev_time(2, 1 << 16, 1, 1 << 20);
        assert!(ours < prev);
    }

    #[test]
    fn section5_palettes_match_pinned_values() {
        // d = ⌈2·4⌉ = 8: 4d + 1 is the larger term at Δ = 10, Δ + d at
        // Δ = 100.
        assert_eq!(theorem52_palette(10, 4, 2.0), 33);
        assert_eq!(theorem52_palette(100, 4, 2.0), 108);
        assert_eq!(theorem53_palette(100, 4, 2.0), 625);
        assert_eq!(theorem53_palette(64, 2, 2.5), 693);
        assert_eq!(theorem54_palette(100, 4, 2.0, 2), 256);
        assert_eq!(theorem54_palette(64, 2, 2.5, 3), 729);
    }

    #[test]
    fn improvement_is_almost_quadratic_in_exponent() {
        // 1/(2x+2) vs 1/(x+2): for large Δ and x = 1, Δ^{1/4} ≪ Δ^{1/3}.
        let delta = 1u64 << 40;
        for x in 1..=4u32 {
            let ours = table1_ours_time(delta, x, delta);
            let prev = table1_prev_time(delta, x, delta);
            assert!(ours < prev, "x = {x}");
        }
    }

    #[test]
    fn cd_product_close_to_d_pow_s_for_optimal_t() {
        // With t = S^{1/(x+1)}, the product is ≈ D^{x+1}·S (Theorem 3.2).
        for (d, s, x) in [(2u64, 256u64, 1u32), (2, 4096, 2), (3, 729, 2)] {
            let t = num::to_u64(optimal_t(s, num::usize_from(x)));
            let product = cd_palette_product(d, s, t, x);
            let target = table2_ours_colors(d, s, x);
            assert!(
                product <= 3 * target,
                "product {product} far above D^(x+1)S = {target} (d={d}, s={s}, x={x})"
            );
        }
    }

    #[test]
    fn star_product_close_to_2_pow_delta() {
        for (delta, x) in [(256u64, 1u32), (4096, 2), (64, 1)] {
            let t = integer_root(delta, x + 1).max(2);
            let product = star_partition_palette_product(delta, t, x);
            let target = table1_ours_colors(delta, x);
            assert!(
                product <= target + 2 * t * (x as u64 + 1) * product / target.max(1),
                "product {product} vs 2^(x+1)Δ = {target}"
            );
            // The paper's (2t−1)(2k−1) ≤ 4Δ + 1 for x = 1:
            if x == 1 {
                assert!(product <= 4 * delta + 2 * t + 1);
            }
        }
    }

    #[test]
    fn section5_palettes_are_delta_plus_lower_order() {
        let (delta, a) = (1u64 << 20, 4u64);
        let t52 = theorem52_palette(delta, a, 2.5);
        assert!(t52 < delta + 100);
        let t53 = theorem53_palette(delta, a, 2.5);
        assert!(t53 < delta + delta / 4, "t53 = {t53}");
        let t54 = theorem54_palette(delta, a, 2.5, 4);
        assert!(t54 < 2 * delta, "t54 = {t54}");
        // Monotone improvement of the √(Δa) term over Δ + O(a)·nothing:
        assert!(t53 > delta, "Δ is a lower bound");
    }

    #[test]
    fn time_shapes_favor_more_levels() {
        let n = 1u64 << 20;
        assert!(theorem53_time(64, n) < theorem52_time(64, n));
        assert!(theorem54_time(64, 2.5, 4, n) < theorem54_time(64, 2.5, 1, n));
    }

    #[test]
    fn bounds_handle_degenerate_inputs() {
        assert_eq!(table1_ours_colors(0, 1), 0);
        assert_eq!(table2_ours_colors(1, 1, 1), 1);
        assert!(theorem52_palette(0, 0, 2.5) >= 1);
        assert!(theorem54_palette(1, 1, 2.5, 1) >= 1);
        assert!(theorem52_time(0, 0) >= 0.0);
        assert!(table1_ours_time(1, 1, 1) >= 0.0);
    }

    #[test]
    fn star_product_monotone_in_x() {
        // More levels never decrease the analytic color product at t = 2.
        let mut prev = 0u64;
        for x in 1..=5u32 {
            let p = star_partition_palette_product(1 << 10, 2, x);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn optimal_t_examples() {
        assert_eq!(optimal_t(256, 1), 16);
        assert_eq!(optimal_t(256, 3), 4);
        assert_eq!(optimal_t(2, 1), 2); // clamped
        assert_eq!(optimal_t(16, usize::MAX), 2); // saturated exponent
    }
}

//! Small number-theoretic and arithmetic helpers used by the algorithms.

use decolor_graph::num;

/// `true` iff `n` is prime (deterministic trial division; all primes used
/// by the algorithms are O(Δ log m), far below any performance concern).
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3u64;
    while d.saturating_mul(d) <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// The smallest prime `>= n` (Bertrand guarantees it is `< 2n` for n ≥ 1).
pub fn next_prime(n: u64) -> u64 {
    let mut c = n.max(2);
    while !is_prime(c) {
        c += 1;
    }
    c
}

/// Iterated logarithm `log* n`: the number of times `log2` must be applied
/// to reach a value ≤ 1.
///
/// ```rust
/// use decolor_core::util::log_star;
/// assert_eq!(log_star(1), 0);
/// assert_eq!(log_star(2), 1);
/// assert_eq!(log_star(16), 3);     // 16 -> 4 -> 2 -> 1
/// assert_eq!(log_star(65536), 4);  // 65536 -> 16 -> 4 -> 2 -> 1
/// ```
pub fn log_star(mut n: u64) -> u32 {
    let mut k = 0;
    while n > 1 {
        n = 64 - u64::from(u64::leading_zeros(n.saturating_sub(1).max(1))); // ceil(log2 n)
        k += 1;
        if k > 8 {
            break; // log* of anything representable is ≤ 5; safety net
        }
    }
    k
}

/// Floor of the `k`-th root of `x` (k ≥ 1), exact by integer fixup.
///
/// ```rust
/// use decolor_core::util::integer_root;
/// assert_eq!(integer_root(27, 3), 3);
/// assert_eq!(integer_root(26, 3), 2);
/// assert_eq!(integer_root(1_000_000, 2), 1000);
/// ```
pub fn integer_root(x: u64, k: u32) -> u64 {
    assert!(k >= 1, "root order must be >= 1");
    if k == 1 || x <= 1 {
        return x;
    }
    // lint: allow(cast, "float guess only: the integer fixup loops below correct any rounding error")
    let mut r = num::approx_u64(x).powf(1.0 / f64::from(k)).round() as u64;
    // Fix rounding: decrease while r^k > x, increase while (r+1)^k <= x.
    while r > 0 && pow_gt(r, k, x) {
        r -= 1;
    }
    while !pow_gt(r + 1, k, x) {
        r += 1;
    }
    r
}

/// `true` iff `b^k > x` (overflow-safe).
fn pow_gt(b: u64, k: u32, x: u64) -> bool {
    if b <= 1 && k > 0 {
        // 0^k = 0 and 1^k = 1: no need to multiply k times.
        return b > x;
    }
    let mut acc: u128 = 1;
    for _ in 0..k {
        acc = acc.saturating_mul(u128::from(b));
        if acc > u128::from(x) {
            return true;
        }
    }
    acc > u128::from(x)
}

/// Ceiling of the `k`-th root of `x`.
pub fn integer_root_ceil(x: u64, k: u32) -> u64 {
    let r = integer_root(x, k);
    if pow_gt(r, k, x.saturating_sub(1)) || x == 0 {
        r
    } else {
        r + 1
    }
}

/// Ceiling division for `u64`.
pub fn ceil_div(a: u64, b: u64) -> u64 {
    assert!(b > 0, "division by zero");
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primality_small_values() {
        let primes: Vec<u64> = (0..30).filter(|&n| is_prime(n)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
    }

    #[test]
    fn next_prime_examples() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(13), 13);
        assert_eq!(next_prime(90), 97);
    }

    #[test]
    fn bertrand_spot_check() {
        for n in [10u64, 100, 1000, 10_000, 100_000] {
            assert!(next_prime(n) < 2 * n);
        }
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(0), 0);
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(5), 3); // 5 -> 3 -> 2 -> 1
        assert_eq!(log_star(u64::MAX), 5);
    }

    #[test]
    fn integer_roots_exhaustive_small() {
        for x in 0u64..200 {
            for k in 1u32..6 {
                let r = integer_root(x, k);
                assert!(
                    r.pow(k) <= x || x == 0,
                    "floor root too big: {x}^(1/{k}) = {r}"
                );
                assert!(
                    (r + 1).pow(k) > x,
                    "floor root too small: {x}^(1/{k}) = {r}"
                );
                let rc = integer_root_ceil(x, k);
                assert!(rc.pow(k) >= x);
                assert!(rc == 0 || (rc - 1).pow(k) < x);
            }
        }
    }

    #[test]
    fn integer_root_near_overflow() {
        assert_eq!(integer_root(u64::MAX, 2), (1u64 << 32) - 1);
        assert_eq!(integer_root(u64::MAX, 64), 1);
    }

    #[test]
    fn ceil_div_examples() {
        assert_eq!(ceil_div(10, 3), 4);
        assert_eq!(ceil_div(9, 3), 3);
        assert_eq!(ceil_div(0, 5), 0);
    }
}

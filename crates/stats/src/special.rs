//! Special functions: log-gamma and log-factorial.
//!
//! The multinomial probability mass function (§3.2 of the paper) is
//! `N! · Π πᵢ^xᵢ / xᵢ!`. Evaluating it through factorials overflows even for
//! modest `N`, so every pmf in this crate works in log space using the
//! Lanczos approximation of `ln Γ`, with a small exact table for the tiny
//! arguments that dominate the workload (query sets have at most ten
//! elements, so most `xᵢ!` are 0! … 10!).

/// Number of exactly tabulated `ln(n!)` values.
const LN_FACT_TABLE_SIZE: usize = 128;

/// Lanczos coefficients for g = 7, n = 9 (Boost / Numerical Recipes set).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function `ln Γ(x)` for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`. Accuracy is
/// better than 1e-13 relative error over the domain exercised by the tests.
///
/// # Panics
///
/// Does not panic; returns `f64::NAN` for `x ≤ 0` at the poles and
/// `f64::INFINITY` where Γ diverges (non-positive integers).
pub fn ln_gamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 {
        // Poles at non-positive integers.
        if x == x.floor() {
            return f64::INFINITY;
        }
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let s = (std::f64::consts::PI * x).sin();
        return std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x);
    }
    if x < 0.5 {
        // Reflection keeps the Lanczos series in its accurate range.
        let s = (std::f64::consts::PI * x).sin();
        return std::f64::consts::PI.ln() - s.ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of `n!`, exact-table backed for small `n`.
pub fn ln_factorial(n: u64) -> f64 {
    static TABLE: std::sync::OnceLock<[f64; LN_FACT_TABLE_SIZE]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0f64; LN_FACT_TABLE_SIZE];
        let mut acc = 0.0f64;
        for (i, slot) in t.iter_mut().enumerate().skip(1) {
            acc += (i as f64).ln();
            *slot = acc;
        }
        t
    });
    if (n as usize) < LN_FACT_TABLE_SIZE {
        table[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Number of compositions of `n` into `k` non-negative parts,
/// i.e. the size of the outcome space of a multinomial with `k` categories
/// and `n` trials: `C(n + k - 1, k - 1)`.
///
/// Returns `None` on overflow, which the exact-test driver interprets as
/// "outcome space too large — use Monte-Carlo" (paper footnote 1).
pub fn composition_count(n: u64, k: u64) -> Option<u64> {
    if k == 0 {
        return Some(u64::from(n == 0));
    }
    // C(n + k - 1, k - 1) computed multiplicatively with overflow checks.
    let top = n.checked_add(k - 1)?;
    let mut r: u64 = 1;
    let pick = (k - 1).min(top - (k - 1));
    for i in 0..pick {
        r = r.checked_mul(top - i)?;
        r /= i + 1;
    }
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), 24.0f64.ln(), 1e-12);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_half_integers() {
        // Γ(3/2) = √π / 2.
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
        // Γ(5/2) = 3√π/4.
        assert_close(
            ln_gamma(2.5),
            (3.0 * std::f64::consts::PI.sqrt() / 4.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn ln_gamma_large_argument_uses_stirling_regime() {
        // ln Γ(171) via ln(170!) — still finite in log space.
        assert_close(ln_gamma(171.0), ln_factorial(170), 1e-12);
    }

    #[test]
    fn ln_gamma_poles_and_nan() {
        assert!(ln_gamma(0.0).is_infinite());
        assert!(ln_gamma(-3.0).is_infinite());
        assert!(ln_gamma(f64::NAN).is_nan());
    }

    #[test]
    fn ln_gamma_reflection_negative_noninteger() {
        // Γ(-0.5) = -2√π ⇒ ln |Γ(-0.5)| = ln(2√π).
        assert_close(
            ln_gamma(-0.5),
            (2.0 * std::f64::consts::PI.sqrt()).ln(),
            1e-10,
        );
    }

    #[test]
    fn ln_factorial_small_values_exact() {
        let expected = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &e) in expected.iter().enumerate() {
            assert_close(ln_factorial(n as u64), e.ln(), 1e-14);
        }
    }

    #[test]
    fn ln_factorial_table_boundary_is_continuous() {
        // Either side of the table cutoff must agree with ln_gamma.
        for n in [126u64, 127, 128, 129, 500, 10_000] {
            assert_close(ln_factorial(n), ln_gamma(n as f64 + 1.0), 1e-12);
        }
    }

    #[test]
    fn composition_count_small_cases() {
        // n=2 items into k=2 bins: (0,2),(1,1),(2,0).
        assert_eq!(composition_count(2, 2), Some(3));
        // n=3 into k=3: C(5,2) = 10.
        assert_eq!(composition_count(3, 3), Some(10));
        assert_eq!(composition_count(0, 4), Some(1));
        assert_eq!(composition_count(5, 1), Some(1));
        assert_eq!(composition_count(0, 0), Some(1));
        assert_eq!(composition_count(1, 0), Some(0));
    }

    #[test]
    fn composition_count_overflow_returns_none() {
        assert_eq!(composition_count(1_000_000, 1_000_000), None);
    }

    #[test]
    fn composition_count_matches_recurrence() {
        // Verify against DP recurrence for a grid of small values.
        let mut dp = vec![vec![0u64; 12]; 12];
        for k in 0..12 {
            dp[0][k] = 1; // one way to place zero items
        }
        for n in 1..12 {
            dp[n][1] = 1;
            for k in 2..12 {
                dp[n][k] = dp[n - 1][k] + dp[n][k - 1];
            }
        }
        for n in 0..12u64 {
            for k in 1..12u64 {
                assert_eq!(
                    composition_count(n, k),
                    Some(dp[n as usize][k as usize]),
                    "n={n} k={k}"
                );
            }
        }
    }
}

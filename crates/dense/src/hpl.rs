//! HPL-like benchmark core: blocked LU with partial pivoting, HPL flop
//! accounting, and the HPL acceptance residual.
//!
//! This is the "old rules" side of the keynote's headline figure: dense LU
//! is compute-bound — its flops are spent in GEMM — so it runs at a large
//! fraction of machine peak, the number the Top500 ranks by. The HPCG-like
//! driver in `xsc-sparse` is the "new rules" counterpart.

use xsc_core::{factor, flops, gen, norms};
use xsc_core::{Matrix, Result, Scalar, Transpose};
use xsc_metrics::Stopwatch;

/// Blocked right-looking LU with partial pivoting, recorded as the
/// `hpl_lu` metrics scope.
///
/// This is [`factor::getrf_blocked`]: a pivoted panel with full-row swaps
/// (as HPL does), then a `trsm` on the row panel and a thread-parallel
/// `par_gemm` on the trailing submatrix. The `hpl_lu` entry aggregates the
/// `trsm`/`gemm`/`par_gemm` entries nested inside it.
pub fn par_getrf<T: Scalar>(a: &mut Matrix<T>, nb: usize) -> Result<Vec<usize>> {
    let _scope = xsc_metrics::record(
        "hpl_lu",
        xsc_metrics::traffic::lu_blocked(a.rows(), nb, std::mem::size_of::<T>() as u64),
    );
    factor::getrf_blocked(a, nb)
}

/// Outcome of one HPL-like run.
#[derive(Debug, Clone)]
pub struct HplResult {
    /// Problem size.
    pub n: usize,
    /// Blocking factor used.
    pub nb: usize,
    /// Wall-clock seconds for factor + solve.
    pub seconds: f64,
    /// Benchmark rate using the HPL flop formula `2n³/3 + 3n²/2`.
    pub gflops: f64,
    /// The HPL scaled residual
    /// `‖b−Ax‖∞ / (ε · (‖A‖∞‖x‖∞ + ‖b‖∞) · n)`.
    pub scaled_residual: f64,
    /// HPL acceptance: scaled residual below 16.
    pub passed: bool,
}

/// Runs the HPL-like benchmark at size `n` with blocking `nb`: random
/// uniform matrix (the distribution HPL generates), parallel pivoted LU,
/// two triangular solves, residual check.
pub fn run_hpl(n: usize, nb: usize, seed: u64) -> Result<HplResult> {
    let a = gen::random_matrix::<f64>(n, n, seed);
    let b = gen::random_vector::<f64>(n, seed.wrapping_add(1));
    let start = Stopwatch::start();
    let mut lu = a.clone();
    let piv = par_getrf(&mut lu, nb)?;
    let mut x = b.clone();
    factor::getrf_solve(&lu, &piv, &mut x);
    let seconds = start.seconds();
    let scaled_residual = norms::hpl_scaled_residual(&a, &x, &b);
    Ok(HplResult {
        n,
        nb,
        seconds,
        gflops: flops::gflops(flops::hpl(n), seconds),
        scaled_residual,
        passed: scaled_residual < 16.0,
    })
}

/// Measures the machine's effective peak as the best parallel `dgemm` rate
/// (the cache-blocked packed kernel, parallel over column macro-tiles) over
/// `reps` runs of an `s × s × s` multiply — the denominator of every
/// "% of peak" number in the experiment suite (HPL itself defines peak from
/// the hardware spec sheet; measured-gemm peak is the honest single-node
/// equivalent).
pub fn measure_peak_gflops(s: usize, reps: usize) -> f64 {
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    let mut best = 0.0f64;
    for _ in 0..reps.max(1) {
        let t = Stopwatch::start();
        xsc_core::gemm::par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        let rate = flops::gflops(flops::gemm(s, s, s), t.seconds());
        best = best.max(rate);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_getrf_matches_sequential() {
        for (n, nb) in [(37, 8), (64, 16), (50, 64)] {
            let a = gen::random_matrix::<f64>(n, n, 1);
            let mut f_seq = a.clone();
            let p_seq = factor::getrf_unblocked(&mut f_seq).unwrap();
            let mut f_par = a.clone();
            let p_par = par_getrf(&mut f_par, nb).unwrap();
            assert_eq!(p_seq, p_par, "pivots differ n={n} nb={nb}");
            assert!(
                f_seq.approx_eq(&f_par, 1e-11),
                "factors differ n={n} nb={nb}: {}",
                f_seq.max_abs_diff(&f_par)
            );
        }
    }

    #[test]
    fn hpl_run_passes_residual_check() {
        let res = run_hpl(96, 32, 42).unwrap();
        assert!(res.passed, "scaled residual {}", res.scaled_residual);
        assert!(res.gflops > 0.0);
        assert_eq!(res.n, 96);
    }

    #[test]
    fn hpl_rejects_wrong_solution_metric() {
        // Sanity: the acceptance threshold actually discriminates.
        let a = gen::random_matrix::<f64>(32, 32, 7);
        let b = gen::random_vector::<f64>(32, 8);
        let x = vec![0.5; 32];
        assert!(norms::hpl_scaled_residual(&a, &x, &b) > 16.0);
    }

    #[test]
    fn peak_measurement_is_positive() {
        let p = measure_peak_gflops(64, 2);
        assert!(p > 0.0);
    }

    #[test]
    fn par_getrf_handles_empty_matrix() {
        let mut a = Matrix::<f64>::zeros(0, 0);
        let piv = par_getrf(&mut a, 8).unwrap();
        assert!(piv.is_empty());
    }

    #[test]
    fn par_getrf_detects_singular() {
        let mut a = Matrix::<f64>::zeros(16, 16);
        for i in 0..15 {
            a.set(i, i, 1.0);
        }
        // Last column all zero -> singular at the last pivot.
        assert!(par_getrf(&mut a, 4).is_err());
    }
}

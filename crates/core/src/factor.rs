//! LAPACK-style factorizations: Cholesky (`potrf`) and LU (`getrf`),
//! unblocked and blocked, plus their solve drivers.
//!
//! The unblocked forms ([`potrf_unblocked`], [`getrf_unblocked`]) are the
//! *reference engines* every blocked, tiled and parallel result is tested
//! against. [`getrf_blocked`] is the one blocked pivoted LU: its trailing
//! update runs on the parallel packed GEMM, and `xsc-dense`'s HPL driver
//! and CALU reuse its panel and update steps.

use crate::error::{Error, Result};
use crate::gemm::{gemm, par_gemm, Transpose};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::syrk::syrk;
use crate::trsm::{trsm, trsv, Diag, Side, Uplo};

/// Unblocked right-looking Cholesky: overwrites the lower triangle of `a`
/// with `L` such that `A = L L^T`. The strict upper triangle is not
/// referenced or modified.
pub fn potrf_unblocked<T: Scalar>(a: &mut Matrix<T>) -> Result<()> {
    assert!(a.is_square(), "potrf requires a square matrix");
    let n = a.rows();
    for j in 0..n {
        let d = a.get(j, j);
        if d.to_f64() <= 0.0 || d.not_finite() {
            return Err(Error::NotPositiveDefinite { pivot: j });
        }
        let l = d.sqrt();
        a.set(j, j, l);
        let inv = T::one() / l;
        for i in j + 1..n {
            let v = a.get(i, j) * inv;
            a.set(i, j, v);
        }
        // Trailing update: A[j+1.., j+1..] -= l_j * l_j^T (lower part only).
        for k in j + 1..n {
            let s = a.get(k, j);
            if s == T::zero() {
                continue;
            }
            for i in k..n {
                let v = a.get(i, j);
                let c = a.get(i, k);
                a.set(i, k, (-s).mul_add(v, c));
            }
        }
    }
    Ok(())
}

/// Blocked right-looking Cholesky with panel width `nb`.
pub fn potrf_blocked<T: Scalar>(a: &mut Matrix<T>, nb: usize) -> Result<()> {
    assert!(a.is_square(), "potrf requires a square matrix");
    assert!(nb > 0, "block size must be positive");
    let n = a.rows();
    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        // Diagonal block.
        let mut akk = a.block(k, k, kb, kb);
        potrf_unblocked(&mut akk).map_err(|e| match e {
            Error::NotPositiveDefinite { pivot } => Error::NotPositiveDefinite { pivot: k + pivot },
            other => other,
        })?;
        akk.copy_block_into(0, 0, kb, kb, a, k, k);
        let m2 = n - k - kb;
        if m2 > 0 {
            // Panel below: A21 <- A21 * L11^-T.
            let mut a21 = a.block(k + kb, k, m2, kb);
            trsm(
                Side::Right,
                Uplo::Lower,
                Transpose::Yes,
                Diag::NonUnit,
                T::one(),
                &akk,
                &mut a21,
            );
            a21.copy_block_into(0, 0, m2, kb, a, k + kb, k);
            // Trailing: A22 <- A22 - A21 * A21^T (lower triangle).
            let mut a22 = a.block(k + kb, k + kb, m2, m2);
            syrk(
                Uplo::Lower,
                Transpose::No,
                -T::one(),
                &a21,
                T::one(),
                &mut a22,
            );
            a22.copy_block_into(0, 0, m2, m2, a, k + kb, k + kb);
        }
        k += kb;
    }
    Ok(())
}

/// Solves `A x = b` given the Cholesky factor produced by `potrf_*`
/// (forward then backward substitution). `b` is overwritten with `x`.
pub fn potrf_solve<T: Scalar>(l: &Matrix<T>, b: &mut [T]) {
    trsv(Uplo::Lower, Transpose::No, Diag::NonUnit, l, b);
    trsv(Uplo::Lower, Transpose::Yes, Diag::NonUnit, l, b);
}

/// Unblocked right-looking LU on columns `[j0, j0+ncols)` of the full
/// matrix `a`, over rows `[j0, a.rows())`.
///
/// With `piv`, each column first pivots on its largest entry: the row swap
/// is applied to the *entire* row (HPL-style full-row swaps) and recorded
/// in `piv` as an absolute row index. With `None` the diagonal is used as
/// it stands — the matrix needs no pivoting, or the caller already placed
/// the pivots (CALU's tournament).
///
/// This in-place panel is the one shared by every LU driver here and in
/// `xsc-dense`.
pub fn getrf_panel<T: Scalar>(
    a: &mut Matrix<T>,
    j0: usize,
    ncols: usize,
    mut piv: Option<&mut [usize]>,
) -> Result<()> {
    let m = a.rows();
    for jj in 0..ncols {
        let j = j0 + jj;
        if let Some(piv) = piv.as_deref_mut() {
            // Pivot search in column j, rows j..m (first maximum wins).
            let col = &a.col(j)[j..m];
            let mut p = 0usize;
            let mut pmax = col[0].abs();
            for (i, &v) in col.iter().enumerate().skip(1) {
                let av = v.abs();
                if av > pmax {
                    pmax = av;
                    p = i;
                }
            }
            piv[j] = j + p;
            a.swap_rows(j, j + p);
        }
        {
            let col = &mut a.col_mut(j)[j..m];
            if col[0].abs().to_f64() == 0.0 {
                return Err(Error::Singular { pivot: j });
            }
            let inv = T::one() / col[0];
            for v in col[1..].iter_mut() {
                *v *= inv;
            }
        }
        // Rank-1 update restricted to the panel columns (stride-1 axpys).
        for c in jj + 1..ncols {
            let jc = j0 + c;
            let (lcol, ccol) = a.two_cols_mut(j, jc);
            let s = ccol[j];
            if s == T::zero() {
                continue;
            }
            let l = &lcol[j + 1..m];
            let x = &mut ccol[j + 1..m];
            for (xi, &li) in x.iter_mut().zip(l.iter()) {
                *xi = (-s).mul_add(li, *xi);
            }
        }
    }
    Ok(())
}

/// Unblocked LU with partial pivoting of a square or tall `m × n` matrix
/// (`m >= n`): overwrites `a` with `L` (unit lower) and `U`; returns the
/// pivot vector (`piv[k]` = row swapped with row `k`). The reference every
/// blocked LU driver is tested against; on a tall panel it is how
/// tournament pivoting (CALU) elects candidate rows.
pub fn getrf_unblocked<T: Scalar>(a: &mut Matrix<T>) -> Result<Vec<usize>> {
    let n = a.cols();
    assert!(
        a.rows() >= n,
        "getrf requires at least as many rows as columns"
    );
    let mut piv = vec![0usize; n];
    getrf_panel(a, 0, n, Some(&mut piv))?;
    Ok(piv)
}

/// LU without pivoting (numerically safe only for special matrices such as
/// diagonally dominant or randomized/butterfly-preconditioned ones — the
/// keynote's motivation for randomization).
pub fn getrf_nopiv<T: Scalar>(a: &mut Matrix<T>) -> Result<()> {
    assert!(a.is_square(), "getrf requires a square matrix");
    getrf_panel(a, 0, a.rows(), None)
}

/// The trailing update of one right-looking LU step, once the panel
/// columns `[k, k+kb)` are factored: `U12 <- L11⁻¹ A12` (unit lower
/// `trsm`), then `A22 <- A22 − L21 U12` with [`par_gemm`] (which takes the
/// sequential path for small updates). Shared by [`getrf_blocked`] and
/// CALU in `xsc-dense`.
pub fn getrf_update<T: Scalar>(a: &mut Matrix<T>, k: usize, kb: usize) {
    let m2 = a.rows() - k - kb;
    let n2 = a.cols() - k - kb;
    if n2 == 0 {
        return;
    }
    let l11 = a.block(k, k, kb, kb);
    let mut a12 = a.block(k, k + kb, kb, n2);
    trsm(
        Side::Left,
        Uplo::Lower,
        Transpose::No,
        Diag::Unit,
        T::one(),
        &l11,
        &mut a12,
    );
    a12.copy_block_into(0, 0, kb, n2, a, k, k + kb);
    let l21 = a.block(k + kb, k, m2, kb);
    let mut a22 = a.block(k + kb, k + kb, m2, n2);
    par_gemm(
        Transpose::No,
        Transpose::No,
        -T::one(),
        &l21,
        &a12,
        T::one(),
        &mut a22,
    );
    a22.copy_block_into(0, 0, m2, n2, a, k + kb, k + kb);
}

/// Blocked right-looking LU with partial pivoting — the LU driver of the
/// HPL-like benchmark and of every pivoted solve in the workspace. Each
/// step factors a pivoted panel with full-row swaps ([`getrf_panel`]),
/// then applies the `trsm` + `par_gemm` trailing update
/// ([`getrf_update`]).
pub fn getrf_blocked<T: Scalar>(a: &mut Matrix<T>, nb: usize) -> Result<Vec<usize>> {
    assert!(a.is_square(), "getrf requires a square matrix");
    assert!(nb > 0, "block size must be positive");
    let n = a.rows();
    let mut piv = vec![0usize; n];
    for k in (0..n).step_by(nb) {
        let kb = nb.min(n - k);
        getrf_panel(a, k, kb, Some(&mut piv))?;
        getrf_update(a, k, kb);
    }
    Ok(piv)
}

/// Applies the pivot row swaps from `getrf_*` to a right-hand-side vector.
pub fn apply_pivots<T: Scalar>(piv: &[usize], b: &mut [T]) {
    for (k, &p) in piv.iter().enumerate() {
        if p != k {
            b.swap(k, p);
        }
    }
}

/// Solves `A x = b` given `getrf_*` output (factor + pivots). `b` is
/// overwritten with `x`.
pub fn getrf_solve<T: Scalar>(lu: &Matrix<T>, piv: &[usize], b: &mut [T]) {
    apply_pivots(piv, b);
    trsv(Uplo::Lower, Transpose::No, Diag::Unit, lu, b);
    trsv(Uplo::Upper, Transpose::No, Diag::NonUnit, lu, b);
}

/// Solves `Aᵀ x = b` given `getrf_*` output. With the convention
/// `P A = L U`, we have `Aᵀ = Uᵀ Lᵀ P`, so the solve is the two transposed
/// triangular solves followed by the *inverse* pivot permutation.
pub fn getrf_solve_transpose<T: Scalar>(lu: &Matrix<T>, piv: &[usize], b: &mut [T]) {
    trsv(Uplo::Upper, Transpose::Yes, Diag::NonUnit, lu, b);
    trsv(Uplo::Lower, Transpose::Yes, Diag::Unit, lu, b);
    for (k, &p) in piv.iter().enumerate().rev() {
        if p != k {
            b.swap(k, p);
        }
    }
}

/// Solves `A x = b` for a no-pivot factorization.
pub fn getrf_nopiv_solve<T: Scalar>(lu: &Matrix<T>, b: &mut [T]) {
    trsv(Uplo::Lower, Transpose::No, Diag::Unit, lu, b);
    trsv(Uplo::Upper, Transpose::No, Diag::NonUnit, lu, b);
}

/// Reconstructs `L * L^T` from a Cholesky factor (testing helper).
pub fn reconstruct_from_cholesky<T: Scalar>(l_packed: &Matrix<T>) -> Matrix<T> {
    let n = l_packed.rows();
    let l = Matrix::from_fn(n, n, |i, j| {
        if i >= j {
            l_packed.get(i, j)
        } else {
            T::zero()
        }
    });
    let mut out = Matrix::zeros(n, n);
    gemm(
        Transpose::No,
        Transpose::Yes,
        T::one(),
        &l,
        &l,
        T::zero(),
        &mut out,
    );
    out
}

/// Reconstructs `P^T L U` (i.e. the original `A`) from LU output
/// (testing helper).
pub fn reconstruct_from_lu<T: Scalar>(lu: &Matrix<T>, piv: &[usize]) -> Matrix<T> {
    let n = lu.rows();
    let l = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            T::one()
        } else if i > j {
            lu.get(i, j)
        } else {
            T::zero()
        }
    });
    let u = Matrix::from_fn(n, n, |i, j| if i <= j { lu.get(i, j) } else { T::zero() });
    let mut plu = Matrix::zeros(n, n);
    gemm(
        Transpose::No,
        Transpose::No,
        T::one(),
        &l,
        &u,
        T::zero(),
        &mut plu,
    );
    // Undo the pivoting: swaps were applied in order k = 0..n, so invert in
    // reverse order.
    for k in (0..n).rev() {
        plu.swap_rows(k, piv[k]);
    }
    plu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::norms;

    #[test]
    fn potrf_unblocked_reconstructs() {
        let a = gen::random_spd::<f64>(24, 1);
        let mut f = a.clone();
        potrf_unblocked(&mut f).unwrap();
        let r = reconstruct_from_cholesky(&f);
        assert!(r.approx_eq(&a, 1e-10), "diff {}", r.max_abs_diff(&a));
    }

    #[test]
    fn potrf_blocked_matches_unblocked() {
        for nb in [1, 3, 8, 64] {
            let a = gen::random_spd::<f64>(25, 2);
            let mut f1 = a.clone();
            let mut f2 = a.clone();
            potrf_unblocked(&mut f1).unwrap();
            potrf_blocked(&mut f2, nb).unwrap();
            // Compare lower triangles.
            for j in 0..25 {
                for i in j..25 {
                    assert!(
                        (f1.get(i, j) - f2.get(i, j)).abs() < 1e-10,
                        "nb={nb} mismatch at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Matrix::<f64>::identity(4);
        a.set(2, 2, -1.0);
        let err = potrf_unblocked(&mut a).unwrap_err();
        assert_eq!(err, Error::NotPositiveDefinite { pivot: 2 });
        // Blocked form reports the same absolute pivot.
        let mut a = Matrix::<f64>::identity(4);
        a.set(2, 2, -1.0);
        let err = potrf_blocked(&mut a, 2).unwrap_err();
        assert_eq!(err, Error::NotPositiveDefinite { pivot: 2 });
    }

    #[test]
    fn potrf_solve_gives_small_residual() {
        let a = gen::random_spd::<f64>(30, 3);
        let b = gen::rhs_for_unit_solution(&a);
        let mut f = a.clone();
        potrf_blocked(&mut f, 8).unwrap();
        let mut x = b.clone();
        potrf_solve(&f, &mut x);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-10);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn getrf_unblocked_reconstructs() {
        let a = gen::random_matrix::<f64>(20, 20, 4);
        let mut f = a.clone();
        let piv = getrf_unblocked(&mut f).unwrap();
        let r = reconstruct_from_lu(&f, &piv);
        assert!(r.approx_eq(&a, 1e-11), "diff {}", r.max_abs_diff(&a));
    }

    #[test]
    fn getrf_blocked_matches_unblocked() {
        // n = 23 stays on gemm's column sweep; (160, 32) and (517, 64)
        // reach the packed parallel path of the trailing update.
        for (n, nb) in [(23, 1), (23, 4), (23, 7), (23, 32), (160, 32), (517, 64)] {
            let a = gen::random_matrix::<f64>(n, n, 5);
            let mut f1 = a.clone();
            let mut f2 = a.clone();
            let p1 = getrf_unblocked(&mut f1).unwrap();
            let p2 = getrf_blocked(&mut f2, nb).unwrap();
            assert_eq!(p1, p2, "n={n} nb={nb} pivot sequence differs");
            assert!(f1.approx_eq(&f2, 1e-10), "n={n} nb={nb} factors differ");
        }
    }

    #[test]
    fn getrf_solve_recovers_solution() {
        let a = gen::random_matrix::<f64>(40, 40, 6);
        let b = gen::rhs_for_unit_solution(&a);
        let mut f = a.clone();
        let piv = getrf_blocked(&mut f, 8).unwrap();
        let mut x = b.clone();
        getrf_solve(&f, &piv, &mut x);
        assert!(norms::hpl_scaled_residual(&a, &x, &b) < 16.0);
    }

    #[test]
    fn getrf_detects_singularity() {
        let mut a = Matrix::<f64>::zeros(3, 3);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        // Column 2 is all zeros.
        let err = getrf_unblocked(&mut a).unwrap_err();
        assert!(matches!(err, Error::Singular { .. }));
    }

    #[test]
    fn nopiv_works_on_diag_dominant() {
        let a = gen::diag_dominant::<f64>(25, 7);
        let b = gen::rhs_for_unit_solution(&a);
        let mut f = a.clone();
        getrf_nopiv(&mut f).unwrap();
        let mut x = b.clone();
        getrf_nopiv_solve(&f, &mut x);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn pivoting_beats_nopiv_on_adversarial_matrix() {
        // Small leading pivot forces element growth without pivoting.
        let n = 16;
        let mut a = gen::random_matrix::<f64>(n, n, 8);
        a.set(0, 0, 1e-14);
        let b = gen::rhs_for_unit_solution(&a);

        let mut fp = a.clone();
        let piv = getrf_unblocked(&mut fp).unwrap();
        let mut xp = b.clone();
        getrf_solve(&fp, &piv, &mut xp);

        let mut fn_ = a.clone();
        getrf_nopiv(&mut fn_).unwrap();
        let mut xn = b.clone();
        getrf_nopiv_solve(&fn_, &mut xn);

        let rp = norms::relative_residual(&a, &xp, &b);
        let rn = norms::relative_residual(&a, &xn, &b);
        assert!(rp < rn, "pivoted {rp} should beat non-pivoted {rn}");
        assert!(rp < 1e-12);
    }

    #[test]
    fn f32_factorizations_work() {
        let a = gen::random_spd::<f32>(16, 9);
        let mut f = a.clone();
        potrf_blocked(&mut f, 4).unwrap();
        let r = reconstruct_from_cholesky(&f);
        assert!(r.approx_eq(&a, 1e-4));
    }
}

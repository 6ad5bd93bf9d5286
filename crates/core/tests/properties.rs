//! Property-based tests for the core kernels: algebraic identities that
//! must hold for arbitrary shapes, seeds, and block sizes.

use proptest::prelude::*;
use xsc_core::gemm::{gemm, naive_gemm, par_gemm};
use xsc_core::trsm::{trsm, Diag, Side, Uplo};
use xsc_core::{factor, gen, householder, norms, Matrix, Transpose};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// C <- A(B1 + B2) == A B1 + A B2 (distributivity through the kernel).
    #[test]
    fn gemm_is_distributive(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..10_000,
    ) {
        let a = gen::random_matrix::<f64>(m, k, seed);
        let b1 = gen::random_matrix::<f64>(k, n, seed + 1);
        let b2 = gen::random_matrix::<f64>(k, n, seed + 2);
        let mut bsum = b1.clone();
        bsum.axpy(1.0, &b2);

        let mut lhs = Matrix::zeros(m, n);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &bsum, 0.0, &mut lhs);

        let mut rhs = Matrix::zeros(m, n);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b1, 0.0, &mut rhs);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b2, 1.0, &mut rhs);
        prop_assert!(lhs.approx_eq(&rhs, 1e-10 * (k as f64)));
    }

    /// (A B)^T == B^T A^T.
    #[test]
    fn gemm_transpose_identity(
        m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in 0u64..10_000,
    ) {
        let a = gen::random_matrix::<f64>(m, k, seed);
        let b = gen::random_matrix::<f64>(k, n, seed + 7);
        let mut ab = Matrix::zeros(m, n);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut ab);
        let mut btat = Matrix::zeros(n, m);
        gemm(Transpose::Yes, Transpose::Yes, 1.0, &b, &a, 0.0, &mut btat);
        prop_assert!(ab.transpose().approx_eq(&btat, 1e-11 * (k as f64)));
    }

    /// Optimized and parallel gemm agree with the naive reference for all
    /// transpose combinations, and `par_gemm` is bitwise equal to `gemm`.
    #[test]
    fn gemm_variants_agree(
        m in 1usize..20, k in 1usize..20, n in 1usize..20,
        ta in 0..2usize, tb in 0..2usize, seed in 0u64..10_000,
    ) {
        let t = |x: usize| if x == 0 { Transpose::No } else { Transpose::Yes };
        let (ar, ac) = if ta == 0 { (m, k) } else { (k, m) };
        let (br, bc) = if tb == 0 { (k, n) } else { (n, k) };
        let a = gen::random_matrix::<f64>(ar, ac, seed);
        let b = gen::random_matrix::<f64>(br, bc, seed + 3);
        let c0 = gen::random_matrix::<f64>(m, n, seed + 4);
        let mut c_naive = c0.clone();
        naive_gemm(t(ta), t(tb), 0.75, &a, &b, -1.25, &mut c_naive);
        let mut c_fast = c0.clone();
        gemm(t(ta), t(tb), 0.75, &a, &b, -1.25, &mut c_fast);
        let mut c_par = c0.clone();
        par_gemm(t(ta), t(tb), 0.75, &a, &b, -1.25, &mut c_par);
        prop_assert!(c_naive.approx_eq(&c_fast, 1e-10 * (k as f64 + 1.0)));
        prop_assert!(c_naive.approx_eq(&c_par, 1e-10 * (k as f64 + 1.0)));
        prop_assert_eq!(c_fast.as_slice(), c_par.as_slice());
    }

    /// The blocked kernel and its parallel driver agree with the naive
    /// reference on shapes that straddle every micro- and macro-tile
    /// boundary (1, block-1, block, block+1 for MR/NR/MC/KC/NC at the
    /// default blocking), for all four transpose combinations and
    /// beta in {0, 1, other}. `par_gemm` must match `gemm` bit for bit:
    /// the blocked LU's factors rest on it.
    #[test]
    fn blocked_gemm_agrees_on_tile_boundaries(
        mi in 0..7usize, ki in 0..4usize, ni in 0..7usize,
        ta in 0..2usize, tb in 0..2usize, bi in 0..3usize, seed in 0u64..10_000,
    ) {
        const M_VALS: [usize; 7] = [1, 7, 8, 9, 127, 128, 129]; // 1, MR+-1, MC+-1
        const K_VALS: [usize; 4] = [1, 255, 256, 257]; // 1, KC+-1
        const N_VALS: [usize; 7] = [1, 3, 4, 5, 511, 512, 513]; // 1, NR+-1, NC+-1
        let (m, k, n) = (M_VALS[mi], K_VALS[ki], N_VALS[ni]);
        let beta = [0.0, 1.0, -0.75][bi];
        let t = |x: usize| if x == 0 { Transpose::No } else { Transpose::Yes };
        let (ar, ac) = if ta == 0 { (m, k) } else { (k, m) };
        let (br, bc) = if tb == 0 { (k, n) } else { (n, k) };
        let a = gen::random_matrix::<f64>(ar, ac, seed);
        let b = gen::random_matrix::<f64>(br, bc, seed + 3);
        let c0 = gen::random_matrix::<f64>(m, n, seed + 4);
        let mut c_naive = c0.clone();
        naive_gemm(t(ta), t(tb), 0.75, &a, &b, beta, &mut c_naive);
        let mut c_fast = c0.clone();
        gemm(t(ta), t(tb), 0.75, &a, &b, beta, &mut c_fast);
        let mut c_par = c0.clone();
        par_gemm(t(ta), t(tb), 0.75, &a, &b, beta, &mut c_par);
        let tol = 1e-10 * (k as f64 + 1.0);
        prop_assert!(c_naive.approx_eq(&c_fast, tol), "gemm diff {}", c_naive.max_abs_diff(&c_fast));
        prop_assert!(c_naive.approx_eq(&c_par, tol), "par_gemm diff {}", c_naive.max_abs_diff(&c_par));
        prop_assert_eq!(c_fast.as_slice(), c_par.as_slice());
    }

    /// trsm really inverts trmm: X := op(T)^{-1} (op(T) X).
    #[test]
    fn trsm_inverts_triangular_product(
        n in 1usize..16, nrhs in 1usize..8,
        uplo in 0..2usize, trans in 0..2usize, diag in 0..2usize,
        seed in 0u64..10_000,
    ) {
        let uplo = if uplo == 0 { Uplo::Lower } else { Uplo::Upper };
        let trans = if trans == 0 { Transpose::No } else { Transpose::Yes };
        let diag = if diag == 0 { Diag::NonUnit } else { Diag::Unit };
        // Well-conditioned triangle.
        let mut t = gen::random_matrix::<f64>(n, n, seed);
        for i in 0..n {
            t.set(i, i, 3.0 + i as f64 * 0.25);
        }
        let t_clean = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if diag == Diag::Unit { 1.0 } else { t.get(i, j) }
            } else {
                let stored = match uplo { Uplo::Lower => i > j, Uplo::Upper => i < j };
                if stored { t.get(i, j) } else { 0.0 }
            }
        });
        let x_true = gen::random_matrix::<f64>(n, nrhs, seed + 5);
        let mut b = Matrix::zeros(n, nrhs);
        gemm(trans, Transpose::No, 1.0, &t_clean, &x_true, 0.0, &mut b);
        trsm(Side::Left, uplo, trans, diag, 1.0, &t, &mut b);
        prop_assert!(b.approx_eq(&x_true, 1e-8), "diff {}", b.max_abs_diff(&x_true));
    }

    /// LU reconstruction: P^T L U == A for every size and block size.
    #[test]
    fn lu_reconstructs_for_any_blocking(
        n in 1usize..32, nb in 1usize..16, seed in 0u64..10_000,
    ) {
        let a = gen::random_matrix::<f64>(n, n, seed);
        let mut f = a.clone();
        let piv = factor::getrf_blocked(&mut f, nb).unwrap();
        let r = factor::reconstruct_from_lu(&f, &piv);
        prop_assert!(r.approx_eq(&a, 1e-9 * (n as f64 + 1.0)),
            "diff {}", r.max_abs_diff(&a));
    }

    /// Cholesky reconstruction: L L^T == A.
    #[test]
    fn cholesky_reconstructs(
        n in 1usize..32, nb in 1usize..16, seed in 0u64..10_000,
    ) {
        let a = gen::random_spd::<f64>(n, seed);
        let mut f = a.clone();
        factor::potrf_blocked(&mut f, nb).unwrap();
        let r = factor::reconstruct_from_cholesky(&f);
        prop_assert!(r.approx_eq(&a, 1e-9 * (n as f64 + 1.0)));
    }

    /// QR: the thin Q is orthonormal and Q R == A, for any shape m >= n.
    #[test]
    fn qr_orthogonality_and_reconstruction(
        m in 1usize..32, n in 1usize..16, seed in 0u64..10_000,
    ) {
        prop_assume!(m >= n);
        let a = gen::random_matrix::<f64>(m, n, seed);
        let mut f = a.clone();
        let taus = householder::geqrf(&mut f);
        let q = householder::build_q_thin(&f, &taus);
        let r = householder::extract_r(&f);
        let mut qtq = Matrix::zeros(n, n);
        gemm(Transpose::Yes, Transpose::No, 1.0, &q, &q, 0.0, &mut qtq);
        prop_assert!(qtq.approx_eq(&Matrix::identity(n), 1e-11 * (m as f64)));
        let mut qr = Matrix::zeros(m, n);
        gemm(Transpose::No, Transpose::No, 1.0, &q, &r, 0.0, &mut qr);
        prop_assert!(qr.approx_eq(&a, 1e-10 * (m as f64)));
    }

    /// Solves satisfy the HPL acceptance criterion for arbitrary systems.
    #[test]
    fn lu_solve_passes_hpl_criterion(n in 2usize..48, seed in 0u64..10_000) {
        let a = gen::random_matrix::<f64>(n, n, seed);
        let b = gen::random_vector::<f64>(n, seed + 9);
        let mut f = a.clone();
        let piv = factor::getrf_blocked(&mut f, 8).unwrap();
        let mut x = b.clone();
        factor::getrf_solve(&f, &piv, &mut x);
        prop_assert!(norms::hpl_scaled_residual(&a, &x, &b) < 16.0);
    }

    /// Pairwise reductions are permutation-stable enough: the pairwise dot
    /// of a vector against itself equals the norm squared to high accuracy.
    #[test]
    fn pairwise_dot_matches_norm(n in 1usize..2000, seed in 0u64..10_000) {
        let x = gen::random_vector::<f64>(n, seed);
        let d = xsc_core::blas1::dot_pairwise(&x, &x);
        let nrm = xsc_core::blas1::nrm2(&x);
        prop_assert!((d - nrm * nrm).abs() <= 1e-12 * (1.0 + nrm * nrm));
    }
}

//! Communication-avoiding LU (CALU) with tournament pivoting.
//!
//! Partial pivoting searches one column of the whole panel per step —
//! `O(n)` sequential reductions per panel, the latency bottleneck of
//! distributed LU. CALU (Grigori, Demmel, Xiang) replaces it with
//! **tournament pivoting** (TSLU): row blocks elect `b` local candidate
//! pivot rows each via a small pivoted factorization, candidates meet in a
//! binary tournament, and the `b` winners pivot the *entire* panel at once
//! — `O(log P)` reductions per panel. Stability is slightly weaker than
//! GEPP's in theory but comparable in practice, which the tests check.

use rayon::prelude::*;
use xsc_core::factor;
use xsc_core::{Matrix, Result, Scalar};

/// Selects `b = panel.cols()` pivot rows for a tall panel by tournament:
/// returns the winners' row indices *within the panel* (ascending order
/// not guaranteed; the first index corresponds to pivot position 0, etc.).
///
/// `block_rows` is the leaf block height (clamped to at least `b`).
pub fn tournament_pivot_rows<T: Scalar>(
    panel: &Matrix<T>,
    block_rows: usize,
) -> Result<Vec<usize>> {
    let m = panel.rows();
    let b = panel.cols();
    assert!(m >= b, "panel must be at least as tall as wide");
    let br = block_rows.max(b);
    let nblocks = (m / br).max(1);

    // Leaf round: each block elects b candidates via local GEPP.
    let mut contenders: Vec<(Vec<usize>, Matrix<T>)> = (0..nblocks)
        .into_par_iter()
        .map(|blk| {
            let r0 = blk * br;
            let r1 = if blk + 1 == nblocks {
                m
            } else {
                (blk + 1) * br
            };
            let rows: Vec<usize> = (r0..r1).collect();
            let data = panel.block(r0, 0, r1 - r0, b);
            elect(rows, data)
        })
        .collect::<Result<Vec<_>>>()?;

    // Tournament rounds: stack two candidate sets, re-elect.
    while contenders.len() > 1 {
        let leftover = if contenders.len() % 2 == 1 {
            contenders.pop()
        } else {
            None
        };
        let mut next: Vec<(Vec<usize>, Matrix<T>)> = contenders
            .par_chunks(2)
            .map(|pair| {
                let (rows_a, top) = &pair[0];
                let (rows_b, bottom) = &pair[1];
                let mut stacked = Matrix::zeros(2 * b, b);
                top.copy_block_into(0, 0, b, b, &mut stacked, 0, 0);
                bottom.copy_block_into(0, 0, b, b, &mut stacked, b, 0);
                let mut rows = rows_a.clone();
                rows.extend_from_slice(rows_b);
                elect(rows, stacked)
            })
            .collect::<Result<Vec<_>>>()?;
        if let Some(l) = leftover {
            next.push(l);
        }
        contenders = next;
    }
    let (winners, _) = contenders.pop().expect("at least one contender");
    Ok(winners)
}

/// Local election: pivoted LU of `data` reorders `rows`; the first `b`
/// rows (and their matrix values) are the candidates passed upward.
fn elect<T: Scalar>(mut rows: Vec<usize>, mut data: Matrix<T>) -> Result<(Vec<usize>, Matrix<T>)> {
    let b = data.cols();
    let snapshot = data.clone();
    let piv = factor::getrf_unblocked(&mut data)?;
    for (k, &p) in piv.iter().enumerate() {
        rows.swap(k, p);
    }
    // Pass up the *original values* of the winning rows (candidates must
    // carry unfactored data into the next round).
    let mut winners_data = Matrix::zeros(b, b);
    // Reconstruct which original local row ended up at position k: the
    // swap replay above already reordered `rows`; mirror it for values.
    let mut local: Vec<usize> = (0..snapshot.rows()).collect();
    for (k, &p) in piv.iter().enumerate() {
        local.swap(k, p);
    }
    for k in 0..b {
        for j in 0..b {
            winners_data.set(k, j, snapshot.get(local[k], j));
        }
    }
    rows.truncate(b);
    Ok((rows, winners_data))
}

/// Blocked CALU: LU with tournament pivoting. Overwrites `a` with the
/// factors and returns pivots in the same swap-sequence format as
/// [`xsc_core::factor::getrf_blocked`] (compatible with
/// [`xsc_core::factor::getrf_solve`]).
pub fn calu<T: Scalar>(a: &mut Matrix<T>, nb: usize, block_rows: usize) -> Result<Vec<usize>> {
    assert!(a.is_square(), "calu requires a square matrix");
    assert!(nb > 0, "block size must be positive");
    let n = a.rows();
    let mut piv = vec![0usize; n];
    for k in (0..n).step_by(nb) {
        let kb = nb.min(n - k);
        // Tournament over the panel rows [k, n).
        let panel = a.block(k, k, n - k, kb);
        let winners = tournament_pivot_rows(&panel, block_rows)?;
        // Apply the winners as a swap sequence (full-row swaps), keeping
        // later winner indices consistent as earlier swaps displace rows.
        let mut winners: Vec<usize> = winners.iter().map(|w| w + k).collect();
        for j in 0..kb {
            let target = k + j;
            let w = winners[j];
            piv[target] = w;
            if w != target {
                a.swap_rows(target, w);
                // A later winner pointing at the displaced row follows it.
                for later in winners.iter_mut().skip(j + 1) {
                    if *later == target {
                        *later = w;
                    }
                }
            }
        }
        // The tournament placed the pivots: factor the panel without
        // further pivoting.
        factor::getrf_panel(a, k, kb, None)?;
        factor::getrf_update(a, k, kb);
    }
    Ok(piv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::{gen, norms};

    #[test]
    fn calu_solves_random_systems_stably() {
        for (n, nb, br) in [(48, 8, 16), (64, 16, 16), (60, 12, 24)] {
            let a = gen::random_matrix::<f64>(n, n, 1);
            let b = gen::rhs_for_unit_solution(&a);
            let mut f = a.clone();
            let piv = calu(&mut f, nb, br).unwrap();
            let mut x = b.clone();
            factor::getrf_solve(&f, &piv, &mut x);
            let resid = norms::hpl_scaled_residual(&a, &x, &b);
            assert!(resid < 16.0, "n={n} nb={nb}: scaled residual {resid}");
        }
    }

    #[test]
    fn calu_stability_comparable_to_gepp() {
        let n = 64;
        let a = gen::random_matrix::<f64>(n, n, 2);
        let b = gen::rhs_for_unit_solution(&a);

        let mut f1 = a.clone();
        let p1 = factor::getrf_blocked(&mut f1, 16).unwrap();
        let mut x1 = b.clone();
        factor::getrf_solve(&f1, &p1, &mut x1);
        let r_gepp = norms::relative_residual(&a, &x1, &b);

        let mut f2 = a.clone();
        let p2 = calu(&mut f2, 16, 16).unwrap();
        let mut x2 = b.clone();
        factor::getrf_solve(&f2, &p2, &mut x2);
        let r_calu = norms::relative_residual(&a, &x2, &b);

        assert!(
            r_calu < r_gepp * 100.0 + 1e-12,
            "CALU residual {r_calu} vs GEPP {r_gepp}"
        );
    }

    #[test]
    fn calu_handles_adversarial_leading_pivot() {
        let n = 32;
        let mut a = gen::random_matrix::<f64>(n, n, 3);
        a.set(0, 0, 1e-14);
        let b = gen::rhs_for_unit_solution(&a);
        let mut f = a.clone();
        let piv = calu(&mut f, 8, 8).unwrap();
        let mut x = b.clone();
        factor::getrf_solve(&f, &piv, &mut x);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn tournament_picks_the_large_rows() {
        // Panel where rows 10..14 are scaled 1000x: the tournament should
        // elect exactly those as pivots.
        let m = 40;
        let b = 4;
        let mut panel = gen::random_matrix::<f64>(m, b, 4);
        for i in 10..14 {
            for j in 0..b {
                let v = panel.get(i, j) * 1000.0 + 500.0 * ((i + j) as f64 % 2.0 + 0.5);
                panel.set(i, j, v);
            }
        }
        let winners = tournament_pivot_rows(&panel, 8).unwrap();
        assert_eq!(winners.len(), b);
        for w in &winners {
            assert!(
                (10..14).contains(w),
                "winner {w} should be one of the dominant rows; got {winners:?}"
            );
        }
    }

    #[test]
    fn single_block_degenerates_to_gepp_selection() {
        let m = 16;
        let b = 4;
        let panel = gen::random_matrix::<f64>(m, b, 5);
        // One leaf covering all rows: winners = GEPP's first b pivot rows.
        let winners = tournament_pivot_rows(&panel, m).unwrap();
        let mut f = panel.clone();
        let piv = factor::getrf_unblocked(&mut f).unwrap();
        let mut rows: Vec<usize> = (0..m).collect();
        for (k, &p) in piv.iter().enumerate() {
            rows.swap(k, p);
        }
        assert_eq!(winners, rows[..b].to_vec());
    }

    #[test]
    fn calu_detects_singularity() {
        let mut a = Matrix::<f64>::zeros(16, 16);
        for i in 0..16 {
            a.set(i, 0, 1.0); // rank-1 matrix
            a.set(0, i, 1.0);
        }
        assert!(calu(&mut a, 4, 8).is_err());
    }
}

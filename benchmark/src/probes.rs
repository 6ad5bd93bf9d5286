//! Probes of the traced run: measured ceilings (parallel and single-thread
//! GEMM rate, streaming bandwidth) that every `pct_of_*` ratio divides by,
//! and the fixed costs of the serving path's building blocks.

use crate::report::Report;
use crate::stats::Samples;
use crate::trace::span;
use rayon::prelude::*;
use xsc_batched::{batched_cholesky_solve, Batch};
use xsc_core::gemm::{gemm, par_gemm};
use xsc_core::{blas1, flops, gen, Matrix, Transpose};
use xsc_metrics::{Stopwatch, Traffic};
use xsc_runtime::{Access, Executor, SchedPolicy, TaskGraph};

pub const PAR_GEMM_N: usize = 1024;
pub const GEMM_N: usize = 512;
/// Last-level cache of the 2-core host the sizes were chosen on.
pub const LLC_BYTES: usize = 300 << 20;
/// Each `axpy` array is four times the last-level cache: 1200 MiB.
pub const AXPY_LEN: usize = 4 * LLC_BYTES / 8;
const REPS: usize = 3;
const CALL_SAMPLES: usize = 200;
const RECORD_CALLS: u32 = 100_000;

/// The ceilings later ratios divide by.
pub struct Ceilings {
    pub par_gemm_gflops: f64,
    pub axpy_gbs: f64,
}

/// Median seconds of `reps` samples; each call of `f` returns the
/// nanoseconds it timed.
fn median_s(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut s = Samples::new();
    for _ in 0..reps {
        s.push_ns(f());
    }
    s.median_s()
}

/// Median microseconds of `CALL_SAMPLES` calls of `f`, each in a span.
fn call_us(name: &'static str, mut f: impl FnMut()) -> f64 {
    1e6 * median_s(CALL_SAMPLES, || {
        let t = Stopwatch::start();
        span(name, &mut f);
        t.nanos()
    })
}

fn gemm_gflops(n: usize, parallel: bool) -> f64 {
    let a = gen::random_matrix::<f64>(n, n, 11);
    let b = gen::random_matrix::<f64>(n, n, 12);
    let mut c = Matrix::<f64>::zeros(n, n);
    let seconds = median_s(REPS, || {
        let t = Stopwatch::start();
        if parallel {
            span("core.gemm.par_gemm", || {
                par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
            });
        } else {
            span("core.gemm.gemm", || {
                gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
            });
        }
        t.nanos()
    });
    flops::gflops(flops::gemm(n, n, n), seconds)
}

fn axpy_gbs() -> f64 {
    let x = vec![1.0f64; AXPY_LEN];
    let mut y = vec![0.5f64; AXPY_LEN];
    let bytes = xsc_metrics::traffic::axpy(AXPY_LEN, 8).bytes() as f64;
    let seconds = median_s(REPS, || {
        let t = Stopwatch::start();
        span("core.blas1.axpy", || blas1::axpy(1e-3, &x, &mut y));
        t.nanos()
    });
    bytes / seconds * 1e-9
}

pub fn run(report: &mut Report) -> Ceilings {
    let par_gemm_gflops = gemm_gflops(PAR_GEMM_N, true);
    report.add(
        "core.gemm.par_gflops",
        par_gemm_gflops,
        "GF/s",
        "par_gemm 1024^3, median of 3",
    );
    report.add(
        "core.gemm.gflops",
        gemm_gflops(GEMM_N, false),
        "GF/s",
        "gemm 512^3, one thread, median of 3",
    );
    let axpy_gbs = axpy_gbs();
    report.add(
        "core.blas1.axpy_gbs",
        axpy_gbs,
        "GB/s",
        "arrays of 1200 MiB each, 4x the 300 MiB L3; computed bytes, median of 3",
    );

    let exec = Executor::new(2, SchedPolicy::Explicit);
    let v = call_us("runtime.executor.execute", || {
        let mut g = TaskGraph::new();
        g.add_task("empty0", [Access::Write(0)], || {});
        g.add_task("empty1", [Access::Write(1)], || {});
        exec.execute(g);
    });
    report.add(
        "runtime.executor.execute_us.p50",
        v,
        "us",
        "2-task empty graph, 2 workers, median of 200",
    );

    let mut items = [0u64; 2];
    let v = call_us("shims.rayon.par_iter_mut", || {
        items.par_iter_mut().for_each(|_| {})
    });
    report.add(
        "shims.rayon.par_call_us.p50",
        v,
        "us",
        "empty par_iter_mut over 2 items, median of 200",
    );

    let mats: Vec<Matrix<f64>> = (0..32).map(|k| gen::random_spd(8, 40 + k)).collect();
    let rhss: Vec<Matrix<f64>> = (0..32).map(|k| gen::random_matrix(8, 1, 80 + k)).collect();
    let mut ok = true;
    let v = 1e6
        * median_s(CALL_SAMPLES, || {
            let mut a = Batch::from_matrices(&mats);
            let mut x = Batch::from_matrices(&rhss);
            let t = Stopwatch::start();
            ok &= span("batched.cholesky_solve", || {
                batched_cholesky_solve(&mut a, &mut x)
            })
            .is_ok();
            t.nanos()
        });
    report.answer(ok);
    report.add(
        "batched.cholesky_solve_us.p50",
        v,
        "us",
        "32 SPD matrices of dimension 8, median of 200",
    );

    let v = 1e9 / f64::from(RECORD_CALLS)
        * median_s(REPS, || {
            let t = Stopwatch::start();
            for _ in 0..RECORD_CALLS {
                drop(xsc_metrics::record("perfbench_probe", Traffic::default()));
            }
            t.nanos()
        });
    report.add(
        "metrics.record_ns",
        v,
        "ns",
        "empty record scope, mean of 100000 calls, median of 3",
    );

    Ceilings {
        par_gemm_gflops,
        axpy_gbs,
    }
}

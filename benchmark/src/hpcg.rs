//! `hpcg`: 50 multigrid-preconditioned CG iterations on the 27-point
//! stencil, and the timing wrappers the traced run passes to the solvers.

use crate::report::Report;
use crate::stats::mix;
use crate::trace::{self, span};
use xsc_core::{flops, gen};
use xsc_metrics::{Stopwatch, Traffic};
use xsc_sparse::mg::{MgPreconditioner, Smoother};
use xsc_sparse::stencil::build_matrix;
use xsc_sparse::{
    try_pcg, CheckedApply, FormatMatrix, Geometry, Preconditioner, SdcDetected, SparseFormat,
    SparseOps,
};

/// Grid edge: the largest grid a serving request may ask for.
pub const GRID: usize = xsc_serve::MAX_GRID;
pub const LEVELS: usize = 4;
pub const ITERS: usize = 50;
/// The residual must drop at least this much over the 50 iterations.
pub const MIN_REDUCTION: f64 = 1e-6;

pub struct Problem {
    a: FormatMatrix,
    mg: MgPreconditioner,
    b: Vec<f64>,
}

/// Builds the operator and, from the seed, a right-hand side `b = A x*`
/// for a random exact solution `x*`.
pub fn build_operator(g: Geometry, seed: u64) -> (FormatMatrix, Vec<f64>) {
    let a = build_matrix(g);
    let x_star: Vec<f64> = gen::random_vector(a.nrows(), mix(seed, 3));
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&x_star, &mut b);
    let a = FormatMatrix::convert(a, SparseFormat::CsrUsize).expect("usize CSR cannot overflow");
    (a, b)
}

pub fn build_mg(g: Geometry, levels: usize) -> MgPreconditioner {
    MgPreconditioner::try_with_format(g, levels, Smoother::SymGs, SparseFormat::CsrUsize)
        .expect("the benchmark grids coarsen to the requested depth")
}

pub fn geometry() -> Geometry {
    Geometry::new(GRID, GRID, GRID)
}

pub fn setup(seed: u64) -> Problem {
    let (a, b) = span("sparse.setup.matrix", || build_operator(geometry(), seed));
    let mg = span("sparse.setup.mg", || build_mg(geometry(), LEVELS));
    Problem { a, mg, b }
}

/// One timed answer: seconds, flops, and whether exactly 50 iterations
/// ran and reduced the residual by [`MIN_REDUCTION`].
pub struct Solve {
    pub seconds: f64,
    pub flops: u64,
    pub iterations: usize,
    pub ok: bool,
}

fn solve_with<A: SparseOps + ?Sized, P: Preconditioner>(a: &A, b: &[f64], m: &P) -> Solve {
    let mut x = vec![0.0; b.len()];
    let t = Stopwatch::start();
    let res = span("sparse.cg.pcg", || try_pcg(a, b, &mut x, ITERS, 0.0, m));
    let seconds = t.seconds();
    match res {
        Ok(r) => {
            let first = r.residual_history.first().copied().unwrap_or(f64::NAN);
            Solve {
                seconds,
                flops: r.flops,
                iterations: r.iterations,
                ok: r.iterations == ITERS && r.final_residual() <= first * MIN_REDUCTION,
            }
        }
        Err(_) => Solve {
            seconds,
            flops: 0,
            iterations: 0,
            ok: false,
        },
    }
}

/// Traced pass: set-up split, and the solve's time by layer through the
/// [`TimedOps`] and [`TimedPrec`] wrappers.
pub fn traced(seed: u64, par_gemm_gflops: f64, axpy_gbs: f64, report: &mut Report) {
    let since = trace::mark();
    let mut p = setup(seed);
    report.add(
        "sparse.setup.matrix_s",
        trace::total_s(since, "sparse.setup.matrix"),
        "s",
        "64^3 operator and seeded rhs",
    );
    report.add(
        "sparse.setup.mg_s",
        trace::total_s(since, "sparse.setup.mg"),
        "s",
        "4-level hierarchy",
    );

    let since = trace::mark();
    let spmv_traffic = p.a.spmv_traffic();
    let bytes_per_nnz = p.a.modeled_spmv_bytes_per_nnz();
    let (s, delta) = xsc_metrics::measure(|| {
        let ops = TimedOps { inner: &mut p.a };
        let prec = TimedPrec { inner: &p.mg };
        span("hpcg.solve", || solve_with(&ops, &p.b, &prec))
    });
    report.answer(s.ok);
    let spmv_s = trace::total_s(since, "sparse.ops.spmv_par");
    let spmv_calls = trace::durations_ns(since, "sparse.ops.spmv_par").len() as u64;
    let symgs_ns: u64 = delta
        .iter()
        .filter(|(k, _)| *k == "symgs")
        .map(|(_, c)| c.ns)
        .sum();
    // Distinct bytes the solve moved: every recorded kernel except the
    // V-cycle scope, whose entry re-counts the smoother and residual
    // sweeps nested in it.
    let bytes: u64 = delta
        .iter()
        .filter(|(k, _)| *k != "mg_vcycle")
        .map(|(_, c)| c.bytes())
        .sum();
    let gflops = flops::gflops(s.flops, s.seconds);
    let gbs = bytes as f64 / s.seconds * 1e-9;

    report.add(
        "sparse.ops.spmv_s",
        spmv_s,
        "s",
        format!("{spmv_calls} spmv_par calls"),
    );
    report.add(
        "sparse.ops.spmv_gbs",
        (spmv_traffic.bytes() * spmv_calls) as f64 / spmv_s * 1e-9,
        "GB/s",
        "computed bytes over measured time",
    );
    report.add(
        "sparse.mg.vcycle_s",
        trace::total_s(since, "sparse.mg.vcycle"),
        "s",
        "all V-cycles of the solve",
    );
    report.add(
        "sparse.symgs_s",
        symgs_ns as f64 * 1e-9,
        "s",
        "symgs counter delta, all levels",
    );
    report.add(
        "sparse.cg.self_s",
        trace::self_s(since, "sparse.cg.pcg"),
        "s",
        "pcg minus operator and preconditioner calls",
    );
    report.add(
        "sparse.cg.iterations",
        s.iterations as f64,
        "count",
        "fixed at 50",
    );
    report.add(
        "sparse.spmv.bytes_per_nnz",
        bytes_per_nnz,
        "B",
        "modeled matrix stream",
    );
    report.add(
        "sparse.hpcg.gflops",
        gflops,
        "GF/s",
        "HPCG flop count over the solve",
    );
    report.add(
        "sparse.hpcg.pct_of_par_gemm",
        100.0 * gflops / par_gemm_gflops,
        "%",
        format!("of core.gemm.par_gflops = {par_gemm_gflops:.3}"),
    );
    report.add(
        "sparse.hpcg.pct_of_bandwidth",
        100.0 * gbs / axpy_gbs,
        "%",
        format!("{gbs:.3} GB/s computed, of core.blas1.axpy_gbs = {axpy_gbs:.3}"),
    );
}

/// A [`SparseOps`] that records a span around every product it forwards.
pub struct TimedOps<'a, A: SparseOps + ?Sized> {
    pub inner: &'a mut A,
}

impl<A: SparseOps + ?Sized> SparseOps for TimedOps<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn format_name(&self) -> &'static str {
        self.inner.format_name()
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        span("sparse.ops.spmv", || self.inner.spmv(x, y))
    }
    fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        span("sparse.ops.spmv_par", || self.inner.spmv_par(x, y))
    }
    fn fused_residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        span("sparse.ops.fused_residual", || {
            self.inner.fused_residual(x, b, r)
        })
    }
    fn diagonal(&self) -> Vec<f64> {
        self.inner.diagonal()
    }
    fn symgs(&self, b: &[f64], x: &mut [f64]) {
        span("sparse.ops.symgs", || self.inner.symgs(b, x))
    }
    fn colored_symgs(&self, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]) {
        span("sparse.ops.symgs", || {
            self.inner.colored_symgs(classes, b, x)
        })
    }
    fn spmv_traffic(&self) -> Traffic {
        self.inner.spmv_traffic()
    }
    fn symgs_traffic(&self) -> Traffic {
        self.inner.symgs_traffic()
    }
    fn values(&self) -> &[f64] {
        self.inner.values()
    }
    fn values_mut(&mut self) -> &mut [f64] {
        self.inner.values_mut()
    }
    fn column_sums(&self) -> Vec<f64> {
        self.inner.column_sums()
    }
}

/// A preconditioner that records a span around every application.
pub struct TimedPrec<'a, P> {
    pub inner: &'a P,
}

impl<P: Preconditioner> Preconditioner for TimedPrec<'_, P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        span("sparse.mg.vcycle", || self.inner.apply(r, z))
    }
    fn flops_per_apply(&self) -> u64 {
        self.inner.flops_per_apply()
    }
}

impl<P: CheckedApply> CheckedApply for TimedPrec<'_, P> {
    fn apply_checked(&self, r: &[f64], z: &mut [f64]) -> Result<(), SdcDetected> {
        span("ft.sdc.checked_apply", || self.inner.apply_checked(r, z))
    }
    fn flops_per_checked_apply(&self) -> u64 {
        self.inner.flops_per_checked_apply()
    }
}

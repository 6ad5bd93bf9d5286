//! `hpl`: a random dense system solved by parallel blocked LU.

use crate::report::Report;
use crate::stats::{mix, Samples};
use crate::trace::{self, span};
use xsc_core::{factor, flops, gen, norms, Matrix};
use xsc_dense::hpl::par_getrf;
use xsc_metrics::Stopwatch;

pub const N: usize = 2048;
pub const NB: usize = 64;
/// HPL's acceptance threshold on the scaled residual.
pub const RESIDUAL_LIMIT: f64 = 16.0;

pub struct Problem {
    a: Matrix<f64>,
    b: Vec<f64>,
}

pub fn setup(seed: u64) -> Problem {
    Problem {
        a: gen::random_matrix(N, N, mix(seed, 1)),
        b: gen::random_vector(N, mix(seed, 2)),
    }
}

/// One timed answer: factor and solve nanoseconds, and the scaled
/// residual (infinite when the factorization reports a singular matrix).
pub struct Solve {
    pub factor_ns: u64,
    pub solve_ns: u64,
    pub scaled_residual: f64,
}

impl Solve {
    pub fn factor_s(&self) -> f64 {
        self.factor_ns as f64 * 1e-9
    }

    pub fn solve_s(&self) -> f64 {
        self.solve_ns as f64 * 1e-9
    }

    pub fn seconds(&self) -> f64 {
        self.factor_s() + self.solve_s()
    }

    pub fn ok(&self) -> bool {
        self.scaled_residual < RESIDUAL_LIMIT
    }
}

pub fn solve(p: &Problem) -> Solve {
    let mut lu = p.a.clone();
    let mut x = p.b.clone();
    let t = Stopwatch::start();
    let piv = span("dense.hpl.par_getrf", || par_getrf(&mut lu, NB));
    let factor_ns = t.nanos();
    let Ok(piv) = piv else {
        return Solve {
            factor_ns,
            solve_ns: 0,
            scaled_residual: f64::INFINITY,
        };
    };
    let t = Stopwatch::start();
    span("core.factor.getrf_solve", || {
        factor::getrf_solve(&lu, &piv, &mut x)
    });
    let solve_ns = t.nanos();
    let scaled_residual = span("core.norms.hpl_scaled_residual", || {
        norms::hpl_scaled_residual(&p.a, &x, &p.b)
    });
    Solve {
        factor_ns,
        solve_ns,
        scaled_residual,
    }
}

/// Untraced run: solve the same system until `seconds` have passed.
pub fn run(p: &Problem, seconds: f64, report: &mut Report) {
    let mut times = Samples::new();
    let mut answers = 0;
    let window = Stopwatch::start();
    while answers == 0 || window.seconds() < seconds {
        let s = solve(p);
        report.answer(s.ok());
        times.push_ns(s.factor_ns + s.solve_ns);
        answers += 1;
    }
    // All the answers of the window over its wall time, checks included.
    let window_s = window.seconds();
    crate::add_solve_metrics(
        report,
        &times,
        "solves",
        answers as f64 / window_s,
        format!("{answers} answers in {window_s:.3} s"),
    );
}

/// Traced pass: the per-layer `dense` and `core.factor` metrics, a
/// sequential baseline, and the counter deltas of one factorization.
pub fn traced(seed: u64, par_gemm_gflops: f64, report: &mut Report) -> (f64, f64) {
    let p = span("hpl.setup", || setup(seed));
    let untraced = {
        trace::set_enabled(false);
        let s = solve(&p);
        trace::set_enabled(true);
        report.answer(s.ok());
        s.seconds()
    };
    let (s, delta) = xsc_metrics::measure(|| span("hpl.solve", || solve(&p)));
    report.answer(s.ok());
    let lu = delta
        .iter()
        .find(|(k, _)| *k == "hpl_lu")
        .map(|(_, c)| *c)
        .unwrap_or_default();
    let seq_s = {
        let mut lu = p.a.clone();
        let t = Stopwatch::start();
        let ok = span("core.factor.getrf_blocked", || {
            factor::getrf_blocked(&mut lu, NB)
        })
        .is_ok();
        report.answer(ok);
        t.seconds()
    };
    let gflops = flops::gflops(flops::hpl(N), s.seconds());
    report.add(
        "dense.hpl.factor_s",
        s.factor_s(),
        "s",
        "par_getrf, n = 2048, nb = 64, 1 sample",
    );
    report.add(
        "dense.hpl.gflops",
        gflops,
        "GF/s",
        "HPL flop count over factor + solve",
    );
    report.add(
        "dense.hpl.pct_of_par_gemm",
        100.0 * gflops / par_gemm_gflops,
        "%",
        format!("of core.gemm.par_gflops = {par_gemm_gflops:.3}"),
    );
    report.add(
        "dense.hpl.seq_speedup",
        seq_s / s.factor_s(),
        "ratio",
        format!("getrf_blocked {seq_s:.3} s over par_getrf"),
    );
    report.add(
        "dense.hpl.flops",
        lu.flops as f64,
        "count",
        "hpl_lu counter delta, computed",
    );
    report.add(
        "dense.hpl.bytes",
        lu.bytes() as f64,
        "B",
        "hpl_lu counter delta, computed",
    );
    report.add(
        "dense.hpl.scaled_residual",
        s.scaled_residual,
        "1",
        "HPL acceptance < 16",
    );
    report.add(
        "core.factor.getrf_solve_s",
        s.solve_s(),
        "s",
        "two triangular solves, 1 sample",
    );
    (untraced, s.seconds())
}

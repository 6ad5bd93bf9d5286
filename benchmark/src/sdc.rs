//! `sdc`: multigrid CG under seeded bit flips, protected by ABFT
//! detectors and checkpoint rollback.

use crate::hpcg::{build_mg, build_operator, TimedOps, TimedPrec};
use crate::report::Report;
use crate::stats::mix;
use crate::trace::{self, span};
use std::time::Duration;
use xsc_ft::inject::FaultKind;
use xsc_ft::sdc::{protected_pcg, MemFaultPlan, ProtectConfig, SdcReport};
use xsc_runtime::RecoveryPolicy;
use xsc_sparse::mg::MgPreconditioner;
use xsc_sparse::{FormatMatrix, Geometry};

pub const GRID: usize = 32;
pub const LEVELS: usize = 4;
pub const TOL: f64 = 1e-8;
pub const MAX_ITERS: usize = 100;
pub const FAULT_RATE: f64 = 0.1;
/// Seeded fault plans per campaign.
pub const TRIALS: usize = 8;
/// Seed of the fault schedule. It is fixed, not drawn from the run seed,
/// so every run meets the same faults and replays the same iterations;
/// the run seed draws the right-hand side.
pub const CAMPAIGN_SEED: u64 = 0xE20;

pub struct Problem {
    pristine: FormatMatrix,
    mg: MgPreconditioner,
    b: Vec<f64>,
}

pub fn setup(seed: u64) -> Problem {
    let g = Geometry::new(GRID, GRID, GRID);
    let (pristine, b) = build_operator(g, seed);
    Problem {
        pristine,
        mg: build_mg(g, LEVELS),
        b,
    }
}

/// The configuration of the SDC campaign experiment: drift check every
/// iteration, checkpoint every other one, and the default drift tolerance
/// (1e-6, 100 x `TOL`). A corruption below that threshold can leave a
/// validated answer whose true residual misses `10 x TOL`; the answer
/// check counts it as wrong.
fn config() -> ProtectConfig {
    ProtectConfig {
        checkpoint_interval: 2,
        drift_check_interval: 1,
        ..ProtectConfig::default()
    }
}

fn policy() -> RecoveryPolicy {
    RecoveryPolicy::capped_exponential(
        10,
        Duration::from_micros(100),
        2.0,
        Duration::from_millis(5),
        CAMPAIGN_SEED,
    )
}

pub fn plan(trial: usize) -> MemFaultPlan {
    MemFaultPlan::new(
        mix(CAMPAIGN_SEED, trial as u64),
        FAULT_RATE,
        FaultKind::BitFlip,
    )
}

/// A protected solve must converge under validation and leave a true
/// residual within ten times the tolerance.
pub fn answer_ok(r: &SdcReport) -> bool {
    r.outcome.converged() && r.final_true_residual <= 10.0 * TOL
}

/// Runs the `TRIALS` protected solves through the timing wrappers and
/// returns their reports. Each trial starts from a fresh copy of the
/// operator.
pub fn campaign(p: &Problem) -> Vec<SdcReport> {
    (0..TRIALS)
        .map(|trial| {
            let mut a = p.pristine.clone();
            let mut x = vec![0.0; p.b.len()];
            let (plan, cfg, pol) = (plan(trial), config(), policy());
            let mut ops = TimedOps { inner: &mut a };
            let prec = TimedPrec { inner: &p.mg };
            span("ft.sdc.protected_pcg", || {
                protected_pcg(
                    &mut ops, &p.b, &mut x, MAX_ITERS, TOL, &prec, &plan, &cfg, &pol,
                )
            })
        })
        .collect()
}

/// Traced pass: the `ft.sdc` counts of one campaign and its time split
/// between operator, checked preconditioner and the protection itself.
pub fn traced(seed: u64, report: &mut Report) {
    let p = span("sdc.setup", || setup(seed));
    let since = trace::mark();
    let reps = span("sdc.campaign", || campaign(&p));
    let mut executed = 0;
    let mut replayed = 0;
    let mut injections = 0;
    let mut detections = 0;
    let mut rollbacks = 0u32;
    for r in &reps {
        report.answer(answer_ok(r));
        executed += r.executed_iterations;
        replayed += r.replayed_iterations;
        injections += r.injections.len();
        detections += r.detections.len();
        rollbacks += match r.outcome {
            xsc_ft::sdc::RecoveryOutcome::Converged { rollbacks, .. }
            | xsc_ft::sdc::RecoveryOutcome::Unconverged { rollbacks, .. }
            | xsc_ft::sdc::RecoveryOutcome::Aborted { rollbacks, .. } => rollbacks,
        };
    }
    let note = format!("sum over {TRIALS} seeded trials");
    report.add(
        "ft.sdc.executed_iterations",
        executed as f64,
        "count",
        note.clone(),
    );
    report.add(
        "ft.sdc.replayed_iterations",
        replayed as f64,
        "count",
        note.clone(),
    );
    report.add(
        "ft.sdc.useful_share",
        (executed - replayed) as f64 / executed.max(1) as f64,
        "1",
        "committed over executed iterations",
    );
    report.add(
        "ft.sdc.injections",
        injections as f64,
        "count",
        note.clone(),
    );
    report.add(
        "ft.sdc.detections",
        detections as f64,
        "count",
        note.clone(),
    );
    report.add("ft.sdc.rollbacks", f64::from(rollbacks), "count", note);
    report.add(
        "ft.sdc.checked_apply_s",
        trace::total_s(since, "ft.sdc.checked_apply"),
        "s",
        "checked V-cycles of the campaign",
    );
    report.add(
        "ft.sdc.self_s",
        trace::self_s(since, "ft.sdc.protected_pcg"),
        "s",
        "detectors, checkpoints, rollback copies and CG vector work",
    );
}

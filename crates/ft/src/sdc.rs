//! Memory-fault injection and the SDC-protected Krylov loop.
//!
//! [`FaultInjector`](crate::inject::FaultInjector) corrupts wherever its
//! stateful RNG stream happens to point, and
//! [`FaultPlan`](crate::plan::FaultPlan) targets DAG task attempts.
//! Neither can express the failure mode the keynote worries about most in
//! iterative solvers: a DRAM upset in one of the solver's *long-lived
//! buffers* — the matrix values, the iterate, the residual, the search
//! direction — at an arbitrary point of a run that may replay iterations
//! after rollback. [`MemFaultPlan`] closes that gap: a pure hash of
//! `(seed, iteration, sweep)` decides whether a fault fires, which
//! [`SolverBuffer`] it hits, and which element it corrupts, so campaigns
//! are byte-reproducible across runs and thread counts, and a replayed
//! iteration (`sweep + 1`) rolls independently of the original — a
//! rolled-back solve is not doomed to re-fault.
//!
//! [`protected_pcg`] is the consumer: preconditioned CG wrapped in the
//! `xsc-sparse` ABFT detector layer (checksummed SpMV, curvature and
//! norm-jump audits, residual-drift checks, self-checking preconditioner)
//! with **bounded rollback** recovery — in-memory [`SolverCheckpoint`]s
//! every `k` iterations, validated before capture so a poisoned state is
//! never checkpointed, and an [`xsc_runtime::RecoveryPolicy`] governing
//! how many consecutive rollbacks of one checkpoint are allowed and how
//! much (simulated, seeded-jitter) backoff each one charges.
//! [`unprotected_pcg`] runs the same loop with the same injections and no
//! detectors — the control arm of the E20 chaos campaign.

use crate::inject::FaultKind;
use std::time::Duration;
use xsc_core::blas1;
use xsc_runtime::RecoveryPolicy;
use xsc_sparse::abft::{residual_drift, CheckedApply, SdcDetected, SpmvGuard};
use xsc_sparse::cg::Preconditioner;
use xsc_sparse::ops::SparseOps;

/// The long-lived solver buffers a memory-fault campaign can corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBuffer {
    /// The stored nonzero values of the operator (format-specific slab).
    MatrixValues,
    /// The current iterate `x`.
    Iterate,
    /// The recurrence residual `r`.
    Residual,
    /// The search direction `p`.
    SearchDirection,
}

impl SolverBuffer {
    /// All buffers, in the order the plan indexes them.
    pub fn all() -> [SolverBuffer; 4] {
        [
            SolverBuffer::MatrixValues,
            SolverBuffer::Iterate,
            SolverBuffer::Residual,
            SolverBuffer::SearchDirection,
        ]
    }

    /// Stable short name (used in reports and JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            SolverBuffer::MatrixValues => "matrix_values",
            SolverBuffer::Iterate => "iterate",
            SolverBuffer::Residual => "residual",
            SolverBuffer::SearchDirection => "search_direction",
        }
    }
}

/// SplitMix64 finalizer — same mixer as the chaos plans and the runtime's
/// jittered backoff.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded, schedule-independent memory-fault plan for iterative solves.
///
/// Decisions are keyed on `(iteration, sweep)`: `iteration` is the solver's
/// 1-based logical iteration number, `sweep` counts rollback replays (the
/// protected loop bumps it on every rollback), so the same logical
/// iteration rolls fresh faults when replayed — mirroring how
/// [`FaultPlan`](crate::plan::FaultPlan) keys on `(task, attempt)`.
#[derive(Debug, Clone)]
pub struct MemFaultPlan {
    seed: u64,
    rate: f64,
    kind: FaultKind,
}

impl MemFaultPlan {
    /// Creates a plan firing with probability `rate` per iteration.
    ///
    /// # Panics
    /// If `rate` is not in `[0, 1]` (NaN included).
    pub fn new(seed: u64, rate: f64, kind: FaultKind) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        MemFaultPlan { seed, rate, kind }
    }

    /// The per-iteration firing probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn roll(&self, salt: u64, iteration: usize, sweep: u32) -> u64 {
        mix(self.seed ^ salt ^ mix(((iteration as u64) << 32) | u64::from(sweep)))
    }

    /// Pure decision: does `(iteration, sweep)` draw a fault? Identical
    /// across runs and schedules.
    pub fn fires_at(&self, iteration: usize, sweep: u32) -> bool {
        unit_f64(self.roll(0, iteration, sweep)) < self.rate
    }

    /// Draws the fault for `(iteration, sweep)`, if one fires: which
    /// buffer it hits and how the victim value is perturbed.
    pub fn draw(&self, iteration: usize, sweep: u32) -> Option<(SolverBuffer, FaultKind)> {
        if !self.fires_at(iteration, sweep) {
            return None;
        }
        let buffers = SolverBuffer::all();
        let h = self.roll(0x9e3779b97f4a7c15, iteration, sweep);
        Some((buffers[(h % buffers.len() as u64) as usize], self.kind))
    }

    /// Deterministic victim choice among `len` candidate elements for
    /// `(iteration, sweep)`. Returns `None` when `len == 0`.
    pub fn victim_index(&self, len: usize, iteration: usize, sweep: u32) -> Option<usize> {
        if len == 0 {
            return None;
        }
        Some((self.roll(0xd1b54a32d192ed03, iteration, sweep) % len as u64) as usize)
    }
}

/// One injected memory fault, as recorded by the fault-injecting loops.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionRecord {
    /// Logical solver iteration the fault fired at (1-based).
    pub iteration: usize,
    /// Rollback sweep the fault fired in (0 = the original pass).
    pub sweep: u32,
    /// Buffer the fault landed in.
    pub buffer: SolverBuffer,
    /// Element index within the buffer.
    pub index: usize,
    /// Value before corruption.
    pub old: f64,
    /// Value after corruption.
    pub new: f64,
    /// Corruption magnitude `|new − old| · √n / ‖b‖` — the perturbation
    /// relative to the per-component scale of the right-hand side, which
    /// is the scale every drift verdict is normalised by. Campaigns use
    /// this to separate *material* corruptions (which the detectors must
    /// catch) from sub-threshold ones (which by construction cannot move
    /// the solve beyond its tolerance).
    pub delta_rel: f64,
}

/// One detector verdict, as recorded by [`protected_pcg`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionRecord {
    /// Logical solver iteration the detector fired at (1-based).
    pub iteration: usize,
    /// Rollback sweep the detector fired in.
    pub sweep: u32,
    /// Which invariant broke.
    pub what: SdcDetected,
}

/// A full in-memory snapshot of the protected CG state, captured at a
/// validated iteration boundary and restored on rollback. The snapshot is
/// bit-exact: restore reproduces the captured state to the last bit, so a
/// replay of an uninterrupted schedule is bit-identical to never having
/// rolled back.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverCheckpoint {
    /// Iteration the snapshot was taken at.
    pub iteration: usize,
    /// Iterate `x`.
    pub x: Vec<f64>,
    /// Recurrence residual `r`.
    pub r: Vec<f64>,
    /// Search direction `p`.
    pub p: Vec<f64>,
    /// Preconditioned residual `z`.
    pub z: Vec<f64>,
    /// The scalar recurrence state `rᵀz`.
    pub rz: f64,
    /// Length of the residual history at capture (for truncation).
    pub history_len: usize,
}

impl SolverCheckpoint {
    /// Captures the current solver state.
    pub fn capture(
        iteration: usize,
        x: &[f64],
        r: &[f64],
        p: &[f64],
        z: &[f64],
        rz: f64,
        history_len: usize,
    ) -> Self {
        SolverCheckpoint {
            iteration,
            x: x.to_vec(),
            r: r.to_vec(),
            p: p.to_vec(),
            z: z.to_vec(),
            rz,
            history_len,
        }
    }

    /// Writes the snapshot back into the live buffers, returning
    /// `(iteration, rz, history_len)` for the scalar state.
    pub fn restore(
        &self,
        x: &mut [f64],
        r: &mut [f64],
        p: &mut [f64],
        z: &mut [f64],
    ) -> (usize, f64, usize) {
        x.copy_from_slice(&self.x);
        r.copy_from_slice(&self.r);
        p.copy_from_slice(&self.p);
        z.copy_from_slice(&self.z);
        (self.iteration, self.rz, self.history_len)
    }
}

/// Tuning of the protected loop's detectors and checkpoint cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectConfig {
    /// Capture a validated checkpoint every this many iterations.
    pub checkpoint_interval: usize,
    /// Run the residual-drift check every this many iterations (it costs
    /// one SpMV, so it is the expensive detector).
    pub drift_check_interval: usize,
    /// Relative drift `‖r_rec − (b − Ax)‖ / ‖b‖` above which the state is
    /// declared corrupted.
    pub drift_tol: f64,
    /// Largest plausible one-iteration growth factor of `‖r‖/‖b‖`.
    pub norm_jump_limit: f64,
    /// Relative tolerance of the SpMV column-sum checksum.
    pub checksum_tol: f64,
    /// Consecutive iterations with a frozen `‖r‖` (relative change below
    /// `1e-12`) before declaring a stalled search direction. A huge
    /// corruption in `p` breaks no residual invariant — the state stays
    /// consistent — but drives `α` to zero; the freeze is its signature.
    /// Recovery is a direction restart (`p ← z`), not a rollback, because
    /// `x` and `r` are still valid. `0` disables the detector.
    pub stall_window: usize,
    /// Hard cap on total executed iterations, as a multiple of the
    /// caller's `max_iters` — bounds replay work when faults keep firing.
    pub replay_budget_factor: usize,
}

impl Default for ProtectConfig {
    fn default() -> Self {
        ProtectConfig {
            checkpoint_interval: 5,
            drift_check_interval: 2,
            drift_tol: 1e-6,
            norm_jump_limit: 1e4,
            checksum_tol: xsc_sparse::abft::DEFAULT_CHECKSUM_TOL,
            stall_window: 4,
            replay_budget_factor: 4,
        }
    }
}

/// Why a protected solve gave up instead of converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The recovery policy's per-checkpoint retry budget was exhausted:
    /// `max_attempts` consecutive rollbacks replayed from the same
    /// checkpoint and every replay was flagged again.
    RollbackBudgetExhausted,
    /// Total executed iterations (originals plus replays) exceeded
    /// `replay_budget_factor · max_iters`.
    ReplayBudgetExhausted,
}

/// Typed outcome of a protected solve: the detected → rolled-back →
/// converged path vs the aborted one.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// The solve reached (validated) convergence, possibly after
    /// rollbacks.
    Converged {
        /// Committed (logical) iterations at convergence.
        iterations: usize,
        /// Rollbacks performed on the way.
        rollbacks: u32,
    },
    /// The iteration budget ran out without convergence and without an
    /// unresolved detection.
    Unconverged {
        /// Committed iterations executed.
        iterations: usize,
        /// Rollbacks performed.
        rollbacks: u32,
    },
    /// Recovery gave up.
    Aborted {
        /// Logical iteration at which the solve gave up.
        at_iteration: usize,
        /// Rollbacks performed before giving up.
        rollbacks: u32,
        /// Which budget ran out.
        reason: AbortReason,
    },
}

impl RecoveryOutcome {
    /// `true` for the validated-convergence outcome.
    pub fn converged(&self) -> bool {
        matches!(self, RecoveryOutcome::Converged { .. })
    }
}

/// Everything a chaos campaign needs to score one solve.
#[derive(Debug, Clone)]
pub struct SdcReport {
    /// How the solve ended.
    pub outcome: RecoveryOutcome,
    /// Faults injected, in firing order.
    pub injections: Vec<InjectionRecord>,
    /// Detector verdicts, in firing order (empty for unprotected runs —
    /// they have no detectors).
    pub detections: Vec<DetectionRecord>,
    /// Total iterations executed, replays included.
    pub executed_iterations: usize,
    /// Iterations discarded by rollbacks (`executed − committed`).
    pub replayed_iterations: usize,
    /// Direction restarts (`p ← z`) performed after stall detections —
    /// the recovery for consistent-state search-direction corruption —
    /// and after residual replacements at a failed convergence check.
    pub direction_restarts: u32,
    /// `‖r‖/‖b‖` after each committed iteration (index 0 = initial).
    pub residual_history: Vec<f64>,
    /// The *recomputed* final relative residual `‖b − Ax‖/‖b‖` — immune
    /// to recurrence corruption, so an unprotected run that "converged"
    /// to a wrong answer is visible here.
    pub final_true_residual: f64,
    /// Total simulated backoff charged by the recovery policy.
    pub simulated_backoff: Duration,
    /// Flops executed, solver plus detectors (HPCG accounting).
    pub flops: u64,
}

/// Applies the drawn fault to the chosen buffer, recording it.
#[allow(clippy::too_many_arguments)] // the injection site simply has this many coupled pieces of state
fn inject<A: SparseOps + ?Sized>(
    plan: &MemFaultPlan,
    a: &mut A,
    x: &mut [f64],
    r: &mut [f64],
    p: &mut [f64],
    iteration: usize,
    sweep: u32,
    bnorm_per_component: f64,
    log: &mut Vec<InjectionRecord>,
) {
    let Some((buffer, kind)) = plan.draw(iteration, sweep) else {
        return;
    };
    let target: &mut [f64] = match buffer {
        SolverBuffer::MatrixValues => a.values_mut(),
        SolverBuffer::Iterate => x,
        SolverBuffer::Residual => r,
        SolverBuffer::SearchDirection => p,
    };
    let Some(index) = plan.victim_index(target.len(), iteration, sweep) else {
        return;
    };
    let old = target[index];
    let new = kind.apply(old);
    target[index] = new;
    log.push(InjectionRecord {
        iteration,
        sweep,
        buffer,
        index,
        old,
        new,
        delta_rel: (new - old).abs() / bnorm_per_component,
    });
}

/// Preconditioned CG under the `xsc-sparse` ABFT detector layer with
/// bounded-rollback recovery.
///
/// The loop mirrors [`xsc_sparse::cg::pcg`] operation-for-operation — on
/// a fault-free run (`plan` rate 0) the iterates and residual history are
/// bit-identical to the unprotected solver — and adds, per iteration:
///
/// 1. the memory-fault injection point (start of the iteration);
/// 2. the checksummed SpMV (`cfg.checksum_tol`);
/// 3. a curvature audit (`pᵀAp` must be positive and finite);
/// 4. a norm-jump audit (`‖r‖` must not grow by `cfg.norm_jump_limit`);
/// 5. a residual-drift check every `cfg.drift_check_interval` iterations;
/// 6. the self-checking preconditioner application;
/// 7. a *validated* checkpoint every `cfg.checkpoint_interval`
///    iterations — the drift check runs first, so a state that silently
///    absorbed a corruption is never captured;
/// 8. validated convergence — the stopping test must be confirmed by the
///    recomputed residual (drift within `tol`) before the solve reports
///    success; a drift between `tol` and `cfg.drift_tol` replaces the
///    recurrence residual with `b − Ax` and iterates on.
///
/// Any detector verdict triggers rollback to the last good checkpoint:
/// buffers and recurrence scalars are restored bit-exactly, the operator's
/// value slab is restored from its pristine snapshot, the plan's sweep
/// counter is bumped (replays roll fresh faults), and the recovery policy
/// charges its seeded-jitter backoff. `policy.max_attempts` consecutive
/// rollbacks of the same checkpoint — or a total replay budget of
/// `cfg.replay_budget_factor · max_iters` iterations — abort the solve.
#[allow(clippy::too_many_arguments)] // solver + fault plan + tuning + policy are irreducibly separate inputs
pub fn protected_pcg<A: SparseOps + ?Sized, P: CheckedApply>(
    a: &mut A,
    b: &[f64],
    x: &mut [f64],
    max_iters: usize,
    tol: f64,
    m: &P,
    plan: &MemFaultPlan,
    cfg: &ProtectConfig,
    policy: &RecoveryPolicy,
) -> SdcReport {
    let n = a.nrows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x.len(), n, "solution length mismatch");

    let pristine_values = a.values().to_vec();
    let guard = SpmvGuard::with_tol(a, cfg.checksum_tol);

    let mut flops = 0u64;
    let nnz = a.nnz() as u64;
    let nf = n as u64;

    let bnorm = blas1::nrm2(b).max(f64::MIN_POSITIVE);
    let bnorm_per_component = (bnorm / (n.max(1) as f64).sqrt()).max(f64::MIN_POSITIVE);
    let mut r = vec![0.0; n];
    a.fused_residual(x, b, &mut r);
    flops += 2 * nnz;

    let mut z = vec![0.0; n];
    m.apply(&r, &mut z);
    flops += m.flops_per_apply();

    let mut p = z.clone();
    let mut rz = blas1::dot_pairwise(&r, &z);
    flops += 2 * nf;

    let mut history = vec![blas1::nrm2(&r) / bnorm];
    let mut ap = vec![0.0; n];
    let mut scratch = vec![0.0; n];
    let mut converged = history[0] <= tol;
    let mut iterations = 0usize;

    let mut injections = Vec::new();
    let mut detections = Vec::new();
    let mut checkpoint = SolverCheckpoint::capture(0, x, &r, &p, &z, rz, history.len());
    let mut sweep = 0u32;
    let mut rollbacks = 0u32;
    let mut consecutive_rollbacks = 0u32;
    let mut executed = 0usize;
    let mut replayed = 0usize;
    let mut backoff_total = Duration::ZERO;
    let mut abort: Option<(usize, AbortReason)> = None;
    let mut stall_count = 0usize;
    let mut direction_restarts = 0u32;

    let drift_every = cfg.drift_check_interval.max(1);
    let ckpt_every = cfg.checkpoint_interval.max(1);
    let replay_budget = cfg.replay_budget_factor.max(1) * max_iters.max(1);

    // Rollback handler: restore the last good checkpoint (including the
    // operator's value slab), charge backoff, bump the sweep, and either
    // continue the outer loop or abort when a budget runs out.
    macro_rules! detected {
        ($what:expr) => {{
            detections.push(DetectionRecord {
                iteration: iterations,
                sweep,
                what: $what,
            });
            rollbacks += 1;
            consecutive_rollbacks += 1;
            if consecutive_rollbacks > policy.max_attempts {
                abort = Some((iterations, AbortReason::RollbackBudgetExhausted));
                break;
            }
            backoff_total +=
                policy
                    .backoff
                    .delay(checkpoint.iteration, consecutive_rollbacks, policy.seed);
            a.values_mut().copy_from_slice(&pristine_values);
            let (it, rz_c, hist_len) = checkpoint.restore(x, &mut r, &mut p, &mut z);
            replayed += iterations.saturating_sub(it);
            iterations = it;
            history.truncate(hist_len);
            rz = rz_c;
            sweep += 1;
            converged = false;
            stall_count = 0;
            continue;
        }};
    }

    while iterations < max_iters && !converged && abort.is_none() {
        if executed >= replay_budget {
            abort = Some((iterations, AbortReason::ReplayBudgetExhausted));
            break;
        }
        iterations += 1;
        executed += 1;

        // 1. The fault model: a DRAM upset lands in one named buffer.
        inject(
            plan,
            a,
            x,
            &mut r,
            &mut p,
            iterations,
            sweep,
            bnorm_per_component,
            &mut injections,
        );

        // 2. Checksummed SpMV.
        if let Err(d) = guard.spmv(a, &p, &mut ap) {
            flops += 2 * nnz + guard.flops_per_check();
            detected!(d);
        }
        flops += 2 * nnz + guard.flops_per_check();

        // 3. Curvature audit.
        let pap = blas1::dot_pairwise(&p, &ap);
        flops += 2 * nf;
        if !(pap > 0.0 && pap.is_finite()) {
            detected!(SdcDetected::NegativeCurvature {
                iteration: iterations,
                value: pap,
            });
        }

        let alpha = rz / pap;
        blas1::axpy(alpha, &p, x);
        blas1::axpy(-alpha, &ap, &mut r);
        flops += 6 * nf;

        // 4. Norm-jump audit.
        let prev_rel = *history.last().unwrap_or(&f64::INFINITY);
        let rel = blas1::nrm2(&r) / bnorm;
        flops += 2 * nf;
        // `!(.. <= ..)` so a NaN trips the detector too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(rel <= cfg.norm_jump_limit * prev_rel.max(f64::MIN_POSITIVE)) {
            detected!(SdcDetected::NormJump {
                iteration: iterations,
                observed: rel / prev_rel.max(f64::MIN_POSITIVE),
                tolerated: cfg.norm_jump_limit,
            });
        }
        history.push(rel);
        if (rel - prev_rel).abs() <= 1e-12 * prev_rel.max(f64::MIN_POSITIVE) {
            stall_count += 1;
        } else {
            stall_count = 0;
        }

        // 5. Periodic residual-drift check.
        if iterations.is_multiple_of(drift_every) {
            let drift = residual_drift(a, x, b, &r, &mut scratch);
            flops += 2 * nnz + 3 * nf;
            // `!(.. <= ..)` so a NaN trips the detector too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(drift <= cfg.drift_tol) {
                detected!(SdcDetected::ResidualDrift {
                    iteration: iterations,
                    observed: drift,
                    tolerated: cfg.drift_tol,
                });
            }
        }

        // 8. Validated convergence: the recurrence says done — confirm
        // against the recomputed residual before believing it. Success
        // needs drift within `tol` as well as `cfg.drift_tol`, so a
        // confirmed answer's true residual is within `2 · tol`.
        let mut replaced = false;
        if rel <= tol {
            let drift = residual_drift(a, x, b, &r, &mut scratch);
            flops += 2 * nnz + 3 * nf;
            // `!(.. <= ..)` so a NaN trips the detector too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(drift <= cfg.drift_tol) {
                detected!(SdcDetected::ResidualDrift {
                    iteration: iterations,
                    observed: drift,
                    tolerated: cfg.drift_tol,
                });
            }
            if drift <= tol {
                converged = true;
                break;
            }
            // 8b. Residual replacement: a drift between `tol` and
            // `cfg.drift_tol` passed the periodic checks, so the last
            // checkpoint may hold it too and a rollback would replay into
            // the same verdict. Continue from the current `x` with the
            // true residual `b − Ax` (in `scratch`) and a fresh direction.
            detections.push(DetectionRecord {
                iteration: iterations,
                sweep,
                what: SdcDetected::ResidualDrift {
                    iteration: iterations,
                    observed: drift,
                    tolerated: tol,
                },
            });
            r.copy_from_slice(&scratch);
            if let Some(last) = history.last_mut() {
                *last = blas1::nrm2(&r) / bnorm;
            }
            flops += 2 * nf;
            replaced = true;
        }

        // 6. Self-checking preconditioner application.
        if let Err(d) = m.apply_checked(&r, &mut z) {
            flops += m.flops_per_checked_apply();
            detected!(d);
        }
        flops += m.flops_per_checked_apply();

        let rz_new = blas1::dot_pairwise(&r, &z);
        flops += 2 * nf;
        let stalled = cfg.stall_window > 0 && stall_count >= cfg.stall_window;
        if stalled {
            // 9. Stall verdict: a corrupted `p` cannot break the drift
            // invariant — `x` and `r` are updated consistently with
            // whatever direction was used — so the state is valid and the
            // corruption lives in `p`. Restart the direction instead of
            // rolling back.
            detections.push(DetectionRecord {
                iteration: iterations,
                sweep,
                what: SdcDetected::Stalled {
                    iteration: iterations,
                    window: cfg.stall_window,
                },
            });
        }
        if stalled || replaced {
            rz = rz_new;
            p.copy_from_slice(&z);
            stall_count = 0;
            direction_restarts += 1;
        } else {
            let beta = rz_new / rz;
            rz = rz_new;
            for (pi, &zi) in p.iter_mut().zip(z.iter()) {
                *pi = zi + beta * *pi;
            }
            flops += 2 * nf;
        }

        // 7. Validated checkpoint: only capture state the drift check
        // vouches for, so an undetected corruption is never baked in.
        if iterations.is_multiple_of(ckpt_every) {
            let drift = residual_drift(a, x, b, &r, &mut scratch);
            flops += 2 * nnz + 3 * nf;
            // `!(.. <= ..)` so a NaN trips the detector too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(drift <= cfg.drift_tol) {
                detected!(SdcDetected::ResidualDrift {
                    iteration: iterations,
                    observed: drift,
                    tolerated: cfg.drift_tol,
                });
            }
            checkpoint = SolverCheckpoint::capture(iterations, x, &r, &p, &z, rz, history.len());
            consecutive_rollbacks = 0;
        }
    }

    // The recomputed final residual is the ground truth the campaign
    // scores against (and one more flop bill).
    a.fused_residual(x, b, &mut scratch);
    flops += 2 * nnz;
    let final_true_residual = blas1::nrm2(&scratch) / bnorm;

    let outcome = match abort {
        Some((at_iteration, reason)) => RecoveryOutcome::Aborted {
            at_iteration,
            rollbacks,
            reason,
        },
        None if converged => RecoveryOutcome::Converged {
            iterations,
            rollbacks,
        },
        None => RecoveryOutcome::Unconverged {
            iterations,
            rollbacks,
        },
    };
    SdcReport {
        outcome,
        injections,
        detections,
        executed_iterations: executed,
        replayed_iterations: replayed,
        direction_restarts,
        residual_history: history,
        final_true_residual,
        simulated_backoff: backoff_total,
        flops,
    }
}

/// The control arm: the same CG loop with the same injection point and
/// **no** detectors, checkpoints, or validation — what a solver that
/// trusts its hardware looks like under the same fault schedule. The
/// recurrence stopping test is taken at face value, so the reported
/// outcome may claim convergence while [`SdcReport::final_true_residual`]
/// shows the answer is wrong — exactly the silent-corruption hazard the
/// protected loop exists to close.
pub fn unprotected_pcg<A: SparseOps + ?Sized, P: Preconditioner>(
    a: &mut A,
    b: &[f64],
    x: &mut [f64],
    max_iters: usize,
    tol: f64,
    m: &P,
    plan: &MemFaultPlan,
) -> SdcReport {
    let n = a.nrows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x.len(), n, "solution length mismatch");

    let mut flops = 0u64;
    let nnz = a.nnz() as u64;
    let nf = n as u64;

    let bnorm = blas1::nrm2(b).max(f64::MIN_POSITIVE);
    let bnorm_per_component = (bnorm / (n.max(1) as f64).sqrt()).max(f64::MIN_POSITIVE);
    let mut r = vec![0.0; n];
    a.fused_residual(x, b, &mut r);
    flops += 2 * nnz;

    let mut z = vec![0.0; n];
    m.apply(&r, &mut z);
    flops += m.flops_per_apply();

    let mut p = z.clone();
    let mut rz = blas1::dot_pairwise(&r, &z);
    flops += 2 * nf;

    let mut history = vec![blas1::nrm2(&r) / bnorm];
    let mut ap = vec![0.0; n];
    let mut converged = history[0] <= tol;
    let mut iterations = 0usize;
    let mut injections = Vec::new();

    while iterations < max_iters && !converged {
        iterations += 1;
        inject(
            plan,
            a,
            x,
            &mut r,
            &mut p,
            iterations,
            0,
            bnorm_per_component,
            &mut injections,
        );
        a.spmv_par(&p, &mut ap);
        flops += 2 * nnz;
        let pap = blas1::dot_pairwise(&p, &ap);
        flops += 2 * nf;
        if pap <= 0.0 {
            break;
        }
        let alpha = rz / pap;
        blas1::axpy(alpha, &p, x);
        blas1::axpy(-alpha, &ap, &mut r);
        flops += 6 * nf;
        let rel = blas1::nrm2(&r) / bnorm;
        flops += 2 * nf;
        history.push(rel);
        if rel <= tol {
            converged = true;
            break;
        }
        m.apply(&r, &mut z);
        flops += m.flops_per_apply();
        let rz_new = blas1::dot_pairwise(&r, &z);
        flops += 2 * nf;
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, &zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
        flops += 2 * nf;
    }

    let mut scratch = vec![0.0; n];
    a.fused_residual(x, b, &mut scratch);
    flops += 2 * nnz;
    let final_true_residual = blas1::nrm2(&scratch) / bnorm;

    let outcome = if converged {
        RecoveryOutcome::Converged {
            iterations,
            rollbacks: 0,
        }
    } else {
        RecoveryOutcome::Unconverged {
            iterations,
            rollbacks: 0,
        }
    };
    SdcReport {
        outcome,
        injections,
        detections: Vec::new(),
        executed_iterations: iterations,
        replayed_iterations: 0,
        direction_restarts: 0,
        residual_history: history,
        final_true_residual,
        simulated_backoff: Duration::ZERO,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_sparse::cg::{pcg, Identity};
    use xsc_sparse::ops::{FormatMatrix, SparseFormat};
    use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};

    fn problem(fmt: SparseFormat) -> (FormatMatrix, Vec<f64>) {
        let a = build_matrix(Geometry::new(8, 8, 8));
        let (b, _) = build_rhs(&a);
        (FormatMatrix::convert(a, fmt).unwrap(), b)
    }

    fn quiet_plan() -> MemFaultPlan {
        MemFaultPlan::new(1, 0.0, FaultKind::BitFlip)
    }

    #[test]
    fn plan_decisions_are_deterministic_and_sweep_independent() {
        let p1 = MemFaultPlan::new(42, 0.3, FaultKind::BitFlip);
        let p2 = MemFaultPlan::new(42, 0.3, FaultKind::BitFlip);
        let a: Vec<_> = (1..200).map(|i| p1.draw(i, 0)).collect();
        let b: Vec<_> = (1..200).map(|i| p2.draw(i, 0)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|d| d.is_some()));
        assert!(a.iter().any(|d| d.is_none()));
        // A replayed iteration rolls independently: somewhere the verdicts
        // of sweep 0 and sweep 1 differ.
        assert!((1..200).any(|i| p1.fires_at(i, 0) != p1.fires_at(i, 1)));
    }

    #[test]
    fn plan_hits_every_buffer_eventually() {
        let p = MemFaultPlan::new(7, 1.0, FaultKind::BitFlip);
        let mut seen = std::collections::BTreeSet::new();
        for i in 1..100 {
            if let Some((buf, _)) = p.draw(i, 0) {
                seen.insert(buf.name());
            }
        }
        assert_eq!(seen.len(), SolverBuffer::all().len());
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64) * 0.1 - 1.5).collect();
        let r: Vec<f64> = x.iter().map(|v| v * 3.0).collect();
        let p: Vec<f64> = x.iter().map(|v| v - 0.25).collect();
        let z: Vec<f64> = x.iter().map(|v| v * v).collect();
        let ck = SolverCheckpoint::capture(9, &x, &r, &p, &z, 1.25, 10);
        let mut x2 = vec![0.0; 32];
        let mut r2 = vec![0.0; 32];
        let mut p2 = vec![0.0; 32];
        let mut z2 = vec![0.0; 32];
        let (it, rz, hl) = ck.restore(&mut x2, &mut r2, &mut p2, &mut z2);
        assert_eq!((it, rz, hl), (9, 1.25, 10));
        assert_eq!(x2, x);
        assert_eq!(r2, r);
        assert_eq!(p2, p);
        assert_eq!(z2, z);
    }

    #[test]
    fn fault_free_protected_run_matches_plain_pcg_bitwise() {
        for fmt in SparseFormat::all() {
            let (mut a, b) = problem(fmt);
            let mut x_ref = vec![0.0; b.len()];
            let reference = pcg(&a, &b, &mut x_ref, 60, 1e-9, &Identity);
            let mut x = vec![0.0; b.len()];
            let report = protected_pcg(
                &mut a,
                &b,
                &mut x,
                60,
                1e-9,
                &Identity,
                &quiet_plan(),
                &ProtectConfig::default(),
                &RecoveryPolicy::default(),
            );
            assert!(report.outcome.converged(), "{fmt}: {:?}", report.outcome);
            assert_eq!(x, x_ref, "{fmt}: iterates must be bit-identical");
            assert_eq!(report.residual_history, reference.residual_history);
            assert!(report.detections.is_empty(), "{fmt}: false positive");
            assert_eq!(report.replayed_iterations, 0);
        }
    }

    #[test]
    fn stuck_fault_is_detected_and_rolled_back_to_convergence() {
        let (mut a, b) = problem(SparseFormat::CsrUsize);
        // One guaranteed catastrophic fault per sweep-0 iteration window:
        // high rate, huge stuck value.
        let plan = MemFaultPlan::new(33, 0.25, FaultKind::Stuck(1e30));
        let mut x = vec![0.0; b.len()];
        let report = protected_pcg(
            &mut a,
            &b,
            &mut x,
            200,
            1e-8,
            &Identity,
            &plan,
            &ProtectConfig::default(),
            &RecoveryPolicy::with_max_attempts(20),
        );
        assert!(
            !report.injections.is_empty(),
            "campaign must have injected something"
        );
        assert!(
            !report.detections.is_empty(),
            "1e30 corruptions must be detected"
        );
        assert!(
            report.outcome.converged(),
            "rollback must still converge: {:?}",
            report.outcome
        );
        assert!(
            report.final_true_residual <= 1e-7,
            "validated convergence must be real: {:.3e}",
            report.final_true_residual
        );
        assert!(report.replayed_iterations > 0);
    }

    #[test]
    fn unprotected_run_is_silently_wrong_under_the_same_faults() {
        let (mut a, b) = problem(SparseFormat::CsrUsize);
        let plan = MemFaultPlan::new(33, 0.25, FaultKind::Stuck(1e30));
        let mut x = vec![0.0; b.len()];
        let report = unprotected_pcg(&mut a, &b, &mut x, 200, 1e-8, &Identity, &plan);
        assert!(!report.injections.is_empty());
        // Either it never converges, or it "converges" to a wrong answer;
        // both are failures the true residual exposes.
        assert!(
            report.final_true_residual > 1e-7,
            "unprotected run should not genuinely converge: {:.3e}",
            report.final_true_residual
        );
    }

    /// A bit flip whose drift lies between `tol` (1e-8) and the default
    /// `drift_tol` (1e-6) once returned `Converged` with a true residual
    /// 40× `tol`. The convergence check now bounds drift by `tol` and
    /// replaces the residual instead of accepting the answer.
    #[test]
    fn sub_threshold_flip_cannot_validate_a_wrong_answer() {
        let (mut a, b) = problem(SparseFormat::CsrUsize);
        let plan = MemFaultPlan::new(53, 0.1, FaultKind::BitFlip);
        let mut x = vec![0.0; b.len()];
        let report = protected_pcg(
            &mut a,
            &b,
            &mut x,
            200,
            1e-8,
            &Identity,
            &plan,
            &ProtectConfig::default(),
            &RecoveryPolicy::with_max_attempts(10),
        );
        assert!(!report.injections.is_empty());
        assert!(report.outcome.converged(), "{:?}", report.outcome);
        assert!(
            report.final_true_residual <= 2e-8,
            "validated answer misses tol: true residual {:.3e}",
            report.final_true_residual
        );
    }

    #[test]
    fn rollback_budget_exhaustion_aborts() {
        let (mut a, b) = problem(SparseFormat::CsrUsize);
        // Every iteration faults catastrophically; one retry allowed.
        let plan = MemFaultPlan::new(5, 1.0, FaultKind::Stuck(f64::NAN));
        let mut x = vec![0.0; b.len()];
        let report = protected_pcg(
            &mut a,
            &b,
            &mut x,
            50,
            1e-8,
            &Identity,
            &plan,
            &ProtectConfig::default(),
            &RecoveryPolicy::with_max_attempts(2),
        );
        assert!(
            matches!(
                report.outcome,
                RecoveryOutcome::Aborted {
                    reason: AbortReason::RollbackBudgetExhausted,
                    ..
                }
            ),
            "{:?}",
            report.outcome
        );
        assert!(report.simulated_backoff >= Duration::ZERO);
    }

    #[test]
    fn protected_runs_are_byte_reproducible() {
        let run = || {
            let (mut a, b) = problem(SparseFormat::Csr32);
            let plan = MemFaultPlan::new(99, 0.15, FaultKind::BitFlip);
            let mut x = vec![0.0; b.len()];
            let rep = protected_pcg(
                &mut a,
                &b,
                &mut x,
                150,
                1e-8,
                &Identity,
                &plan,
                &ProtectConfig::default(),
                &RecoveryPolicy::with_max_attempts(10),
            );
            (x, rep)
        };
        let (x1, r1) = run();
        let (x2, r2) = run();
        assert_eq!(x1, x2);
        assert_eq!(r1.injections, r2.injections);
        assert_eq!(r1.detections, r2.detections);
        assert_eq!(r1.residual_history, r2.residual_history);
        assert_eq!(r1.executed_iterations, r2.executed_iterations);
    }

    #[test]
    fn matrix_corruption_is_restored_from_pristine_snapshot() {
        let (mut a, b) = problem(SparseFormat::SellCSigma);
        let pristine = a.values().to_vec();
        let plan = MemFaultPlan::new(12, 0.3, FaultKind::Stuck(1e25));
        let mut x = vec![0.0; b.len()];
        let report = protected_pcg(
            &mut a,
            &b,
            &mut x,
            200,
            1e-8,
            &Identity,
            &plan,
            &ProtectConfig::default(),
            &RecoveryPolicy::with_max_attempts(25),
        );
        assert!(report.outcome.converged(), "{:?}", report.outcome);
        // Any matrix injection after the last rollback would linger; the
        // validated convergence plus pristine restore on every rollback
        // keeps the *answer* right regardless.
        let matrix_faults = report
            .injections
            .iter()
            .filter(|i| i.buffer == SolverBuffer::MatrixValues)
            .count();
        let _ = pristine;
        assert!(report.final_true_residual <= 1e-7);
        assert!(matrix_faults > 0 || !report.injections.is_empty());
    }
}

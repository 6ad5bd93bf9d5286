//! `serve`: a closed loop of clients driving the solve service.
//!
//! `CLIENTS` clients each keep one request outstanding and resubmit when
//! its answer returns. Requests come from a seeded pool of the
//! many-tiny mix (90 % tiny solves, 6 % sparse, 4 % dense), taken in
//! order and cycled; every answer is checked bit for bit against the
//! checksum the uncoalesced path gives for the same request, computed
//! once after set-up.

use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{self, span};
use std::collections::BTreeMap;
use xsc_metrics::Stopwatch;
use xsc_serve::{
    execute_launch, generate, plan, AdmissionQueue, AdmitError, JobId, JobSpec, Launch,
    LoadProfile, QueuedJob, Request, Server, ServerConfig,
};

pub const CLIENTS: usize = 32;
/// Distinct requests in the seeded pool: enough that the share of sparse
/// and dense requests varies little from seed to seed.
pub const POOL: usize = 16384;
/// Rounds of each pass of the traced run (a fixed count, so its counts
/// repeat exactly).
pub const TRACED_ROUNDS: usize = 300;

pub fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
}

/// The seeded request pool: the same seed gives the same requests.
pub fn request_pool(seed: u64, len: usize) -> Vec<Request> {
    generate(&LoadProfile::many_tiny(seed, len, 1))
        .into_iter()
        .map(|a| a.request)
        .collect()
}

/// Answer checksums (as bits) through the uncoalesced path: every request
/// launched alone. A sparse solve's problem is built from its spec alone,
/// so equal specs share one reference.
pub fn reference_checksums(pool: &[Request]) -> Vec<u64> {
    let mut sparse: Vec<(&JobSpec, u64)> = Vec::new();
    let mut out = Vec::with_capacity(pool.len());
    for (id, request) in pool.iter().enumerate() {
        if let Some(&(_, bits)) = sparse.iter().find(|(spec, _)| *spec == request.spec()) {
            out.push(bits);
            continue;
        }
        let job = QueuedJob {
            id: id as JobId,
            request: request.clone(),
        };
        let bits = execute_launch(&Launch::Single(job))[0].checksum.to_bits();
        if matches!(request.spec(), JobSpec::SparseSolve { .. }) {
            sparse.push((request.spec(), bits));
        }
        out.push(bits);
    }
    out
}

/// The serving stack's set-up: the request pool and the server.
pub struct Problem {
    server: Server,
    pub pool: Vec<Request>,
}

pub fn setup(seed: u64) -> Problem {
    Problem {
        pool: request_pool(seed, POOL),
        server: Server::new(config()),
    }
}

/// Closed-loop bookkeeping: which pool entry each in-flight job carries
/// and when it was submitted.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    next: usize,
    inflight: BTreeMap<JobId, (usize, u64)>,
    pub submitted: u64,
    pub refused: u64,
    pub completed: u64,
}

impl ClosedLoop {
    /// Tops the window up to `CLIENTS` outstanding requests. `submit`
    /// receives pool positions in order; a refused request is counted and
    /// not retried. Returns the positions refused.
    pub fn fill(
        &mut self,
        pool_len: usize,
        now_ns: impl Fn() -> u64,
        mut submit: impl FnMut(usize) -> Result<JobId, AdmitError>,
    ) -> Vec<usize> {
        let mut refused = Vec::new();
        for _ in self.inflight.len()..CLIENTS {
            let idx = self.next % pool_len;
            self.next += 1;
            self.submitted += 1;
            let t0 = now_ns();
            match submit(idx) {
                Ok(id) => {
                    self.inflight.insert(id, (idx, t0));
                }
                Err(_) => {
                    self.refused += 1;
                    refused.push(idx);
                }
            }
        }
        refused
    }

    /// Retires the answer to job `id`: its pool position and submit time.
    pub fn complete(&mut self, id: JobId) -> Option<(usize, u64)> {
        let done = self.inflight.remove(&id);
        if done.is_some() {
            self.completed += 1;
        }
        done
    }
}

/// Launch kinds the traced run times separately.
fn launch_span(launch: &Launch) -> &'static str {
    match launch {
        Launch::Coalesced { .. } => "serve.launch.tiny",
        Launch::Single(job) => match job.request.spec() {
            JobSpec::TinySolve { .. } => "serve.launch.tiny",
            JobSpec::SparseSolve { .. } => "serve.launch.sparse",
            JobSpec::DenseFactor { .. } => "serve.launch.dense",
        },
    }
}

/// Replays one round's requests through a shadow queue, timing the
/// coalescer's plan and each launch; returns (jobs, launches).
fn shadow_round(
    p: &Problem,
    reference: &[u64],
    shadow: &mut AdmissionQueue,
    round: &[usize],
    report: &mut Report,
) -> (usize, usize) {
    let mut pos = BTreeMap::new();
    for &idx in round {
        match shadow.submit(p.pool[idx].clone()) {
            Ok(id) => {
                pos.insert(id, idx);
            }
            Err(_) => report.answer(false),
        }
    }
    let launches = span("serve.coalesce.plan", || plan(shadow, &config().coalesce));
    let jobs = launches.iter().map(Launch::width).sum();
    for launch in &launches {
        for o in span(launch_span(launch), || execute_launch(launch)) {
            shadow.complete(&o.tenant);
            let ok = pos
                .get(&o.id)
                .is_some_and(|&i| o.checksum.to_bits() == reference[i]);
            report.answer(ok);
        }
    }
    (jobs, launches.len())
}

/// Length of one throughput window of the timed closed loop.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Throughput windows of a closed loop: whole rounds are gathered until
/// they have taken `WINDOW_NS`, so every window carries its sparse and
/// dense solves at their full time, and each window's wall time per
/// answer is one sample. `throughput_rps` of `serve` is the inverse of
/// the median sample, the answer rate of the run's median second: a few
/// seconds in which the host slows the vCPUs move it less than they move
/// the rate over the whole run, and a slower program moves every window.
#[derive(Debug, Default)]
pub struct RateWindows {
    answers: u64,
    ns: u64,
    pub per_answer: Samples,
}

impl RateWindows {
    /// Adds one round; closes the window once it holds `WINDOW_NS`.
    pub fn add(&mut self, answers: u64, ns: u64) {
        self.answers += answers;
        self.ns += ns;
        if self.ns >= WINDOW_NS && self.answers > 0 {
            self.per_answer.push_ns(self.ns / self.answers);
            self.answers = 0;
            self.ns = 0;
        }
    }

    /// Answers per second of the median window. The open window at the
    /// end is dropped, unless no window closed at all.
    pub fn rate(&self) -> f64 {
        if self.per_answer.len() == 0 {
            return self.answers as f64 / (self.ns as f64 * 1e-9);
        }
        1.0 / self.per_answer.median_s()
    }
}

/// Counts from closed-loop rounds.
#[derive(Debug)]
struct Rounds {
    seconds: f64,
    answers: u64,
    windows: RateWindows,
    latency: Samples,
    jobs: usize,
    launches: usize,
    refused: u64,
}

/// Runs closed-loop rounds until `stop` says so; with a shadow queue,
/// also replays each round through it (outside the timed part).
fn rounds(
    p: &mut Problem,
    reference: &[u64],
    mut stop: impl FnMut(usize, f64) -> bool,
    mut shadow: Option<&mut AdmissionQueue>,
    report: &mut Report,
) -> Rounds {
    let clock = Stopwatch::start();
    let mut cl = ClosedLoop::default();
    let mut out = Rounds {
        seconds: 0.0,
        answers: 0,
        windows: RateWindows::default(),
        latency: Samples::new(),
        jobs: 0,
        launches: 0,
        refused: 0,
    };
    let mut round = 0;
    while !stop(round, out.seconds) {
        let start = clock.nanos();
        let before = cl.next;
        let Problem { server, pool } = &mut *p;
        for _ in cl.fill(
            pool.len(),
            || clock.nanos(),
            |idx| span("serve.submit", || server.submit(pool[idx].clone())),
        ) {
            report.answer(false);
        }
        let outcomes = span("serve.run_pending", || server.run_pending());
        let done = clock.nanos();
        let answered = outcomes.len() as u64;
        out.answers += answered;
        for o in outcomes {
            let ok = match cl.complete(o.id) {
                Some((idx, t0)) => {
                    out.latency.push_ns(done - t0);
                    o.checksum.to_bits() == reference[idx]
                }
                None => false,
            };
            report.answer(ok);
        }
        let round_ns = clock.nanos() - start;
        out.seconds += round_ns as f64 * 1e-9;
        out.windows.add(answered, round_ns);
        if let Some(q) = shadow.as_deref_mut() {
            let positions: Vec<usize> = (before..cl.next).map(|i| i % POOL).collect();
            let (jobs, launches) = shadow_round(p, reference, q, &positions, report);
            out.jobs += jobs;
            out.launches += launches;
        }
        round += 1;
    }
    out.refused = cl.refused;
    out
}

/// Closed-loop seconds run before a timed pass: the first seconds of a
/// process ran up to 30 % slower than the rest.
pub const WARMUP_S: f64 = 2.0;

pub fn run(p: &mut Problem, reference: &[u64], seconds: f64, report: &mut Report) {
    rounds(p, reference, |_, elapsed| elapsed >= WARMUP_S, None, report);
    let r = rounds(
        p,
        reference,
        |round, elapsed| round > 0 && elapsed >= seconds,
        None,
        report,
    );
    crate::add_solve_metrics(
        report,
        &r.latency,
        "requests, submit to answer",
        r.windows.rate(),
        format!(
            "median of {} one-second windows; {} answers in {:.3} s overall",
            r.windows.per_answer.len(),
            r.answers,
            r.seconds
        ),
    );
}

/// Traced pass: after the warm-up, an untraced and a traced closed loop of
/// `TRACED_ROUNDS` rounds each; the traced one also replays every round
/// through a shadow admission queue to time the coalescer and launches.
pub fn traced(seed: u64, report: &mut Report) -> (f64, f64) {
    let mut p = span("serve.setup", || setup(seed));
    let reference = span("serve.reference", || reference_checksums(&p.pool));
    trace::set_enabled(false);
    rounds(
        &mut p,
        &reference,
        |_, elapsed| elapsed >= WARMUP_S,
        None,
        report,
    );
    let base = rounds(
        &mut p,
        &reference,
        |round, _| round >= TRACED_ROUNDS,
        None,
        report,
    );
    trace::set_enabled(true);
    let since = trace::mark();
    let mut shadow = AdmissionQueue::new(config().queue);
    let traced = span("serve.closed_loop", || {
        rounds(
            &mut p,
            &reference,
            |round, _| round >= TRACED_ROUNDS,
            Some(&mut shadow),
            report,
        )
    });
    let p50 = |name: &str, scale: f64| {
        let mut s = Samples::new();
        for ns in trace::durations_ns(since, name) {
            s.push_ns(ns);
        }
        (s.median_s() * scale, s.len())
    };
    let rows: [(&'static str, &str, f64, &'static str); 6] = [
        ("serve.submit_us.p50", "serve.submit", 1e6, "us"),
        ("serve.run_pending_ms.p50", "serve.run_pending", 1e3, "ms"),
        (
            "serve.coalesce.plan_us.p50",
            "serve.coalesce.plan",
            1e6,
            "us",
        ),
        ("serve.launch.tiny_us.p50", "serve.launch.tiny", 1e6, "us"),
        (
            "serve.launch.sparse_us.p50",
            "serve.launch.sparse",
            1e6,
            "us",
        ),
        ("serve.launch.dense_us.p50", "serve.launch.dense", 1e6, "us"),
    ];
    for (metric, name, scale, unit) in rows {
        let (v, n) = p50(name, scale);
        report.add(metric, v, unit, format!("median of {n} spans"));
    }
    report.add(
        "serve.jobs_per_launch",
        traced.jobs as f64 / traced.launches.max(1) as f64,
        "count",
        format!("{} jobs in {} launches", traced.jobs, traced.launches),
    );
    report.add(
        "serve.refused",
        (base.refused + traced.refused) as f64,
        "count",
        "refused submissions",
    );
    let p99 = base.latency.pct_s(99.0) * 1e3;
    report.add(
        "serve.latency_ms.p99",
        p99,
        "ms",
        format!("untraced, of {} requests; ungated", base.latency.len()),
    );
    (base.seconds, traced.seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_stream() {
        let a = request_pool(7, 64);
        assert_eq!(a, request_pool(7, 64));
        assert_ne!(a, request_pool(8, 64));
        let tiny = a
            .iter()
            .filter(|r| matches!(r.spec(), JobSpec::TinySolve { .. }))
            .count();
        assert!(tiny > 40, "the many-tiny mix is mostly tiny solves: {tiny}");
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_accounts_every_request() {
        let mut cl = ClosedLoop::default();
        let mut next_id: JobId = 0;
        let mut seen = Vec::new();
        let refused = cl.fill(
            10,
            || 0,
            |idx| {
                seen.push(idx);
                next_id += 1;
                Ok(next_id)
            },
        );
        assert!(refused.is_empty());
        assert_eq!(cl.inflight.len(), CLIENTS);
        assert_eq!(seen, (0..CLIENTS).map(|i| i % 10).collect::<Vec<_>>());
        // Three answers return; the next fill resubmits exactly three,
        // continuing the stream where it stopped.
        for id in [1, 5, 9] {
            assert!(cl.complete(id).is_some());
        }
        assert!(cl.complete(5).is_none(), "an answer retires its job once");
        seen.clear();
        cl.fill(
            10,
            || 0,
            |idx| {
                seen.push(idx);
                next_id += 1;
                Ok(next_id)
            },
        );
        assert_eq!(
            seen,
            vec![CLIENTS % 10, (CLIENTS + 1) % 10, (CLIENTS + 2) % 10]
        );
        assert_eq!(cl.inflight.len(), CLIENTS);
        assert_eq!(
            cl.submitted,
            cl.completed + cl.inflight.len() as u64 + cl.refused
        );
    }

    #[test]
    fn rate_windows_close_after_a_second_and_report_the_median() {
        const HALF: u64 = WINDOW_NS / 2;
        let mut w = RateWindows::default();
        w.add(10, HALF);
        assert_eq!(w.rate(), 20.0, "the open window, when none closed");
        w.add(15, HALF);
        assert_eq!(w.per_answer.len(), 1);
        // A long round closes a window on its own; rounds after it start
        // a fresh one.
        w.add(50, 4 * HALF);
        w.add(100, HALF / 2);
        w.add(100, 3 * HALF / 2);
        assert_eq!(w.per_answer.len(), 3);
        w.add(1000, HALF / 5);
        // Windows of 25, 25 and 200 answers per second.
        assert_eq!(w.rate(), 25.0, "the open window is dropped");
    }

    #[test]
    fn refused_submissions_are_counted_not_retried() {
        let mut cl = ClosedLoop::default();
        let mut next_id: JobId = 0;
        let refused = cl.fill(
            4,
            || 0,
            |idx| {
                if idx == 2 {
                    return Err(AdmitError::QueueFull { capacity: 0 });
                }
                next_id += 1;
                Ok(next_id)
            },
        );
        assert_eq!(refused, vec![2; CLIENTS / 4]);
        assert_eq!(cl.refused as usize, CLIENTS / 4);
        assert_eq!(cl.inflight.len(), CLIENTS - CLIENTS / 4);
        assert_eq!(
            cl.submitted,
            cl.completed + cl.inflight.len() as u64 + cl.refused
        );
    }
}

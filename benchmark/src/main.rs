//! End-to-end and per-layer benchmark of the xsc workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <hpl|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up at least five times, then runs it for
//! `--seconds` and reports the end-to-end metrics. `--trace 1` is the
//! separate traced run: it probes the machine's ceilings, makes one traced
//! pass over every layer (`hpl`, an `hpcg` solve, `serve` and an `sdc`
//! campaign, whichever workload is named), reports the per-layer metrics
//! and the named workload's tracing overhead, and writes its spans as a
//! Chrome trace to `benchmark/out/`. Every answer is checked in both
//! modes. The last line of standard output is the JSON result.

mod hpcg;
mod hpl;
mod probes;
mod report;
mod sdc;
mod serve;
mod stats;
mod trace;

use report::Report;
use stats::Samples;
use xsc_metrics::Stopwatch;

/// Set-ups per untraced run: at least `MIN_SETUPS`, and more until they
/// have taken `SETUP_S` seconds, so a quick set-up still gets a steady
/// median. `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SETUP_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Hpl,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "hpl" => Workload::Hpl,
            "serve" => Workload::Serve,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Hpl => "hpl",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Adds `solve_s`, the median of `times`, and `throughput_rps`, which
/// each workload forms from its timed window (`how` says how).
pub(crate) fn add_solve_metrics(
    report: &mut Report,
    times: &Samples,
    what: &str,
    throughput_rps: f64,
    how: String,
) {
    report.add(
        "solve_s",
        times.median_s(),
        "s",
        format!(
            "median of {} {what}; nearest-rank p99 {:.6} s",
            times.len(),
            times.pct_s(99.0)
        ),
    );
    report.add("throughput_rps", throughput_rps, "1/s", how);
}

/// Sets up repeatedly, keeping the last problem; drops each earlier one
/// before building the next.
fn setups<P>(report: &mut Report, mut build: impl FnMut() -> P) -> P {
    let mut times = Samples::new();
    let mut last = None;
    let mut total = 0.0;
    while times.len() < MIN_SETUPS || total < SETUP_S {
        drop(last.take());
        let t = Stopwatch::start();
        let p = build();
        let ns = t.nanos();
        times.push_ns(ns);
        total += ns as f64 * 1e-9;
        last = Some(p);
    }
    report.add(
        "setup_s",
        times.median_s(),
        "s",
        format!("median of {} set-ups", times.len()),
    );
    last.expect("at least one set-up ran")
}

fn untraced(a: &Args) -> Report {
    let mut r = Report::default();
    match a.workload {
        Workload::Hpl => {
            let p = setups(&mut r, || hpl::setup(a.seed));
            hpl::run(&p, a.seconds, &mut r);
        }
        Workload::Serve => {
            let mut p = setups(&mut r, || serve::setup(a.seed));
            let reference = serve::reference_checksums(&p.pool);
            serve::run(&mut p, &reference, a.seconds, &mut r);
        }
    }
    r
}

fn traced(a: &Args) -> Report {
    let mut r = Report::default();
    trace::set_enabled(true);
    let ceilings = trace::span("probes", || probes::run(&mut r));
    let hpl = trace::span("hpl", || {
        hpl::traced(a.seed, ceilings.par_gemm_gflops, &mut r)
    });
    trace::span("hpcg", || {
        hpcg::traced(a.seed, ceilings.par_gemm_gflops, ceilings.axpy_gbs, &mut r)
    });
    let serve = trace::span("serve", || serve::traced(a.seed, &mut r));
    trace::span("sdc", || sdc::traced(a.seed, &mut r));
    let (untraced_s, traced_s) = match a.workload {
        Workload::Hpl => hpl,
        Workload::Serve => serve,
    };
    r.add(
        "trace_overhead",
        traced_s / untraced_s - 1.0,
        "ratio",
        format!(
            "{}: traced {traced_s:.6} s over untraced {untraced_s:.6} s, minus 1",
            a.workload.name()
        ),
    );
    trace::set_enabled(false);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.json", a.workload.name(), a.seed));
    match trace::write_chrome_json(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    r
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <hpl|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    print!("{}", report.table());
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Serve, 7, 12.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload hpl --trace 2").is_err());
        assert!(args("--workload hpl --seconds 0").is_err());
        assert!(args("--seed 3").is_err());
    }
}

//! The Sperke benchmark: three workloads driven through the public
//! `sperke_core` / `sperke_edge` entry points, each timed end to end
//! (`--trace 0`) or broken down into the layers it spends its time in
//! (`--trace 1`). Every timed run's output is checked for correctness.
//!
//! ```text
//! perfbench --workload <fed_flash|fed_longtail|shootout> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod fed;
mod layers;
mod shootout;

use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 77;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one benchmark run reports.
#[derive(Default)]
pub struct Outcome {
    /// Timed (or traced) runs made.
    pub attempted: u64,
    /// Runs whose output failed a correctness check.
    pub failed: u64,
    /// Checks that are not tied to one run (oracles, recompositions).
    pub errors: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Record a metric; a value that is not a finite number makes the
    /// run incorrect.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.check(value.is_finite(), || format!("{name} is {value}"));
        self.metrics.push((name, value, unit));
    }

    /// Record a named check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.errors.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Worker threads the parallel paths use: every core the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Time `f` once, in seconds, returning its result too.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Run `f` back to back until `seconds` of wall time have passed and at
/// least three runs are done. Returns each run's seconds and result.
pub fn run_for<R>(seconds: f64, mut f: impl FnMut() -> (f64, R)) -> Vec<(f64, R)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

/// Median seconds over `reps` repetitions of building a workload's
/// inputs, measured once the warm-up run has settled the host.
pub fn setup_seconds<T>(reps: usize, mut build: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| timed(|| std::hint::black_box(build())).0)
        .collect();
    median(&secs)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let outcome = match args.workload.as_str() {
        "fed_flash" => fed::run(fed::FedWorkload::flash(args.seed), &args),
        "fed_longtail" => fed::run(fed::FedWorkload::longtail(args.seed), &args),
        "shootout" => shootout::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{}", outcome.to_json());
}

//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload hit-heavy|cold-solve|mixed-zipf --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the workload through loopback sockets against a daemon
//! child process and reports the end-to-end metrics; `--trace 1` replays it
//! in-process with a span around every call into a layer and reports the
//! per-layer ledger. Either way every answer is checked, and the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` next to this crate.

mod catalog;
mod daemon;
mod e2e;
mod ledger;
mod spans;
mod stats;
mod traffic;
mod workload;

use std::hash::Hasher;
use std::path::PathBuf;
use std::process::{exit, Command};
use workload::{Prepared, Workload};

const USAGE: &str =
    "usage: perfbench --workload hit-heavy|cold-solve|mixed-zipf --seed N --seconds S --trace 0|1";

/// Where runs keep their records, relative to the checkout root.
const STATE_DIR: &str = ".perfbench_state";

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run measured and found.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Work counts that must repeat exactly between runs of one seed.
    pub counters: Vec<(&'static str, f64)>,
    /// Latency samples behind each reported percentile: those of the
    /// smallest slice (untraced) or of the cache-answered requests (traced).
    pub samples: usize,
    pub notes: Vec<String>,
    /// Failed checks; any makes the run incorrect.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, violations: Vec<String>) -> Self {
        Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            counters: Vec::new(),
            samples: 0,
            notes: Vec::new(),
            violations,
        }
    }
}

/// The run's record directory plus a private scratch directory that is
/// removed when the run ends.
#[derive(Debug)]
pub struct State {
    dir: PathBuf,
    scratch: PathBuf,
}

impl State {
    fn open() -> Result<State, String> {
        let dir = PathBuf::from(STATE_DIR);
        let scratch = dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("create {}: {e}", scratch.display()))?;
        Ok(State { dir, scratch })
    }

    pub fn scratch_file(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }

    pub fn record_file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

#[derive(Debug)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(e) = daemon::serve(&args[1..]) {
            eprintln!("perfbench serve: {e}");
            exit(1);
        }
        return;
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    if let Err(e) = run(&options) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

fn run(options: &Options) -> Result<(), String> {
    let state = State::open()?;
    let prepared = Prepared::new(options.workload, options.seed);
    let mut outcome = if options.trace {
        ledger::run(&prepared, &state)?
    } else {
        e2e::run(&prepared, options.seconds, &state)?
    };
    check_determinism(options, &state, &mut outcome)?;

    for violation in outcome.violations.iter().take(20) {
        eprintln!("violation: {violation}");
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    for metric in &outcome.metrics {
        println!(
            "  {:<28} {:>14.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let supported = stats::highest_supported_percentile(outcome.samples)
        .map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "  attempted {} failed {}; {} latency samples per percentile, highest with >= 10 beyond it: {supported}",
        outcome.attempted, outcome.failed, outcome.samples
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let counters: Vec<String> = outcome
        .counters
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    println!("  deterministic counters: {}", counters.join(" "));
    println!("stamp {}", stamp(options, &prepared));

    let correct = outcome.violations.is_empty() && outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// Compares this run's deterministic counters with the record left by an
/// earlier run of the same binary, workload, seed and mode, and leaves a
/// record when there is none. A difference is a violation.
fn check_determinism(
    options: &Options,
    state: &State,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    hasher.write(&bytes);
    let path = state.record_file(&format!(
        "counters-{}-seed{}-trace{}-{:016x}.txt",
        options.workload.name(),
        options.seed,
        u8::from(options.trace),
        hasher.finish()
    ));
    let current: String = outcome
        .counters
        .iter()
        .map(|(name, value)| format!("{name}={value}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != current => outcome.violations.push(format!(
            "deterministic counters differ from an earlier run of this seed ({}):\nbefore:\n{previous}now:\n{current}",
            path.display()
        )),
        Ok(_) => outcome.notes.push("deterministic counters match the earlier run of this seed".into()),
        Err(_) => std::fs::write(&path, &current)
            .map_err(|e| format!("write {}: {e}", path.display()))?,
    }
    Ok(())
}

/// Seed, host and run settings, as one JSON object.
fn stamp(options: &Options, prepared: &Prepared) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let output = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let commit = output("git", &["--git-dir=.git", "rev-parse", "HEAD"]);
    let rustc = output("rustc", &["--version"]);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"git_commit\": \"{}\", \"rustc\": \"{}\", \"clients\": {}, \"solver_threads\": 1, \
         \"portfolio_threads\": 1, \"catalog_entries\": {}, \"relabeled_variants\": {}, \
         \"zipf_exponent\": {}}}",
        options.workload.name(),
        options.seed,
        options.seconds,
        options.trace,
        escape(&commit),
        escape(&rustc),
        options.workload.clients(),
        prepared.entries.len(),
        workload::VARIANTS,
        workload::ZIPF_EXPONENT
    )
}

fn escape(text: &str) -> String {
    text.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}

//! `pde-perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! pde-perfbench --workload sync|keys|search|serve --seed N --seconds S --trace 0|1
//!               [--pde PATH] [--work-dir DIR]
//! ```
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it is the run record that
//! `run.py` stores. `--trace 0` measures the end-to-end metrics untraced;
//! `--trace 1` replays the same inputs through each layer's public
//! functions and prints the per-layer metrics. README.md describes the
//! workloads and what every metric means.

mod affinity;
mod batch;
mod calib;
mod gen;
mod layers;
mod serve;
mod stats;

use calib::Reach;
use layers::{per_layer_metrics, Counts, Layers, ServeLayer, EXACT_COUNTS};
use stats::{median, ms, Metrics, Samples};
use std::process::ExitCode;
use std::time::Duration;

/// Command-line options.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `pde` binary the serve workload spawns.
    pub pde: Option<String>,
    /// Scratch directory for serve stores.
    pub work_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        pde: None,
        work_dir: ".bench_out".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Duration::from_secs(number()?),
            "--trace" => args.trace = number()? != 0,
            "--pde" => args.pde = Some(value),
            "--work-dir" => args.work_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What one run measured.
#[derive(Default)]
pub struct Run {
    /// Operations attempted (jobs or requests, plus end-of-run checks).
    pub attempted: usize,
    /// Errors, undecided or wrong answers, and crashed processes.
    pub failed: usize,
    /// The first few failure messages, for stderr.
    pub failures: Vec<String>,
    /// Set-up times at reference speed (see `calib`), seconds.
    pub setup_s: Samples,
    /// Set-up times as measured, seconds.
    pub setup_raw_s: Samples,
    /// Job or request latencies, ms.
    pub latency_ms: Samples,
    /// Each distinct job's (batch) or session request position's
    /// (`serve`) time at reference speed: the mean of the middle half of
    /// its repeats, ms.
    pub norm_ms: Samples,
    /// The units `job_p50_ms` and `job_p90_ms` rank: every job (batch),
    /// the read requests (`serve`), ms at reference speed.
    pub ranked_ms: Samples,
    /// Reference-loop times, ms.
    pub reference_ms: Samples,
    /// Peak resident set of the measured process, MB.
    pub peak_rss_mb: f64,
    /// Batch job latencies by route and expected answer, ms.
    pub by_kind: std::collections::BTreeMap<String, Samples>,
    /// Input sizes for the record: (name, value).
    pub sizes: Vec<(&'static str, usize)>,
    /// Traced run: time in each layer.
    pub layers: Layers,
    /// Traced run: layer-time denominator (jobs or requests replayed).
    pub units: usize,
    /// Traced run: untraced time of the replayed jobs or requests.
    pub untraced: Duration,
    /// Traced run: counters.
    pub counts: Counts,
    /// Serve-only measurements.
    pub serve: ServeLayer,
    /// Counters that differed between repeats of one input in this run.
    pub drift: Vec<String>,
}

impl Run {
    /// Count one failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }
}

/// Peak resident set size of process `pid` ("self" for this one), MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, over the distinct jobs (or
/// request positions) at reference speed.
fn end_to_end(run: &Run) -> Metrics {
    let norm = &run.norm_ms.values;
    let ranked = &run.ranked_ms.values;
    let mut m = Metrics::default();
    m.put("job_p50_ms", median(ranked), "ms");
    m.put(
        "job_p90_ms",
        stats::quantile(ranked, 0.9).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "jobs_per_s",
        stats::ratio(norm.len() as f64, norm.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put("setup_s", median(&run.setup_s.values), "s");
    m.put("peak_rss_mb", run.peak_rss_mb, "MB");
    m
}

/// The run record: everything a later comparison needs, one JSON line.
fn record(args: &Args, run: &Run, metrics: &Metrics) -> String {
    let sizes: Vec<String> = run
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let exact: Vec<String> = EXACT_COUNTS
        .iter()
        .filter_map(|k| metrics.get(k).map(|v| format!("\"{k}\":{}", stats::num(v))))
        .collect();
    let drift: Vec<String> = run
        .drift
        .iter()
        .map(|d| format!("\"{}\"", d.replace('"', "'")))
        .collect();
    let mut samples = vec![
        format!("\"setup_s\":{}", run.setup_s.summary_json()),
        format!("\"job_ms\":{}", run.latency_ms.summary_json()),
        format!("\"setup_raw_s\":{}", run.setup_raw_s.summary_json()),
        format!("\"norm_ms\":{}", run.norm_ms.summary_json()),
        format!("\"reference_ms\":{}", run.reference_ms.summary_json()),
    ];
    for (kind, s) in &run.by_kind {
        samples.push(format!("\"{kind}_ms\":{}", s.summary_json()));
    }
    for (name, s) in [
        ("solve_ms", &run.serve.solve_ms),
        ("insert_ms", &run.serve.insert_ms),
        ("certain_ms", &run.serve.certain_ms),
        ("commit_us", &run.serve.commit_us),
    ] {
        if !s.values.is_empty() {
            samples.push(format!("\"{name}\":{}", s.summary_json()));
        }
    }
    format!(
        concat!(
            "{{\"kind\":\"pde-perfbench-record\",\"v\":1,\"workload\":\"{}\",\"seed\":{},",
            "\"seconds\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{},",
            "\"sizes\":{{{}}},\"samples\":{{{}}},\"metrics\":{},\"exact_counts\":{{{}}},",
            "\"drift\":[{}]}}"
        ),
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        run.attempted,
        run.failed,
        stats::num(stats::ratio(run.failed as f64, run.attempted as f64)),
        sizes.join(","),
        samples.join(","),
        metrics.to_json(),
        exact.join(","),
        drift.join(","),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "sync" => batch::workload(&args, gen::sync_job, 4, Reach::Memory),
        "keys" => batch::workload(&args, gen::keys_job, 4, Reach::Memory),
        "search" => batch::workload(&args, gen::search_job, 21, Reach::Cache),
        "serve" => match serve::run(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        },
        other => {
            eprintln!("error: unknown workload '{other}' (sync, keys, search, serve)");
            return ExitCode::from(2);
        }
    };
    let metrics = if args.trace {
        let coverage = stats::ratio(ms(run.layers.total()), ms(run.untraced));
        per_layer_metrics(&run.layers, run.units, &run.counts, &run.serve, coverage)
    } else {
        end_to_end(&run)
    };
    for f in &run.failures {
        eprintln!("failure: {f}");
    }
    for d in &run.drift {
        eprintln!("count drift: {d}");
    }
    println!("{}", record(&args, &run, &metrics));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted.max(1),
        run.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

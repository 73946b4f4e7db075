//! `soap-benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! soap-benchmark --workload cold-suite|serve-hot|serve-churn --seed N \
//!                --seconds S --trace 0|1 [--tamper]
//! ```
//!
//! Run it from the repository root (it reads the committed golden bounds).
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload untraced and traced, then replays it layer by layer and reports
//! the per-layer metrics.  Every answer is checked; any wrong answer, error
//! or refusal prints `"correct": false` and exits 1.  The last line of
//! standard output is the JSON result; the human-readable log goes to
//! standard error.  See `benchmark/README.md` for the workloads and metrics.

mod cold;
mod gen;
mod oracle;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Duration;
use util::{Metrics, Outcome};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdSuite,
    ServeHot,
    ServeChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold-suite" => Some(Workload::ColdSuite),
            "serve-hot" => Some(Workload::ServeHot),
            "serve-churn" => Some(Workload::ServeChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdSuite => "cold-suite",
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one expected answer: the run must then fail.
    pub tamper: bool,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::ColdSuite,
            seed: 1,
            seconds: 10.0,
            trace: false,
            tamper: false,
        };
        let mut workload = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => args.trace = value()? == "1",
                "--tamper" => args.tamper = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// Every per-layer metric, in report order.  A traced run reports all of
/// them; a layer that does no work on a workload reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("frontend.calls", "count"),
    ("frontend.busy_ms", "ms"),
    ("frontend.p50_us", "us"),
    ("service.calls", "count"),
    ("service.busy_ms", "ms"),
    ("subgraphs.calls", "count"),
    ("subgraphs.busy_ms", "ms"),
    ("subgraphs.sets", "count"),
    ("subgraphs.truncated", "count"),
    ("merge.calls", "count"),
    ("merge.busy_ms", "ms"),
    ("merge.failures", "count"),
    ("cache.canonicalize_busy_ms", "ms"),
    ("cache.lookup_busy_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.uncacheable", "count"),
    ("cache.store_hits", "count"),
    ("cache.report_hits", "count"),
    ("opt.solves", "count"),
    ("opt.busy_ms", "ms"),
    ("opt.p50_ms", "ms"),
    ("opt.failures", "count"),
    ("analysis.calls", "count"),
    ("analysis.unattributed_ms", "ms"),
    ("analysis.unattributed_share", "ratio"),
    ("rayon.budget", "count"),
    ("rayon.speedup", "ratio"),
    ("store.hydrate_ms", "ms"),
    ("store.solve_entries", "count"),
    ("store.report_entries", "count"),
    ("store.bytes", "bytes"),
    ("serve.handle_p50_us", "us"),
    ("serve.handle_p99_us", "us"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.analyses", "count"),
    ("serve.coalesced", "count"),
    ("serve.memo_evictions", "count"),
    ("serve.rejected", "count"),
    ("serve.gate_queued_max", "count"),
    ("httpd.transport_p50_us", "us"),
    ("httpd.transport_p99_us", "us"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.share_memo_hit", "ratio"),
    ("loadgen.share_fresh_identity", "ratio"),
    ("loadgen.share_new_structure", "ratio"),
    ("loadgen.share_repeat_evicted", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "peak_rss_mb",
    "cpu_ms_per_op",
];

/// Put the measured metrics in report order, filling layers that did no
/// work with 0 and rejecting any name outside the declared list.
fn complete(measured: Metrics, trace: bool) -> Result<Metrics, String> {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    if let Some((stray, ..)) = measured
        .0
        .iter()
        .find(|(n, ..)| !names.contains(&n.as_str()))
    {
        return Err(format!("internal: undeclared metric {stray}"));
    }
    let mut out = Metrics::default();
    for name in names {
        match measured.0.iter().find(|(n, ..)| n == name) {
            Some((_, v, unit)) => out.put(name, *v, unit),
            None if trace => {
                let unit = PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("count", |x| x.1);
                out.put(name, 0.0, unit);
            }
            None => return Err(format!("internal: end-to-end metric {name} not measured")),
        }
    }
    Ok(out)
}

/// Scratch space of this run, inside the working directory.
fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()))
}

/// Write the traced run's spans (JSON lines) next to the scratch space.
pub fn write_spans(args: &Args, spans: &trace::Spans) {
    let path = PathBuf::from(".bench_work").join("traces").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match spans.write(&path) {
        Ok(()) => eprintln!(
            "# spans: {} written to {}",
            spans.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("# spans: could not write {}: {e}", path.display()),
    }
}

fn json_result(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("soap-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let work = work_dir();
    let result = match args.workload {
        Workload::ColdSuite => cold::run(&args),
        _ => serve::run(&args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("soap-benchmark: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        out.metrics.put("host.nproc", util::nproc() as f64, "count");
    }
    out.metrics = match complete(std::mem::take(&mut out.metrics), args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("soap-benchmark: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "# {} seed {} trace {} on {} cores: {} attempted, {} failed (error rate {:.6})",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        util::nproc(),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for note in &out.notes {
        eprintln!("# {note}");
    }
    for why in &out.mismatches {
        eprintln!("# WRONG: {why}");
    }
    for (name, value, unit) in &out.metrics.0 {
        eprintln!("{name:<32} {value:>16.6} {unit}");
    }
    println!("{}", json_result(&out));
    if out.failed > 0 || out.attempted == 0 {
        std::process::exit(1);
    }
}

//! `cold-suite`: the 38-kernel registry through `analyze_suite_with` on a
//! fresh in-memory `SolveCache` per pass, at the default worker budget, in a
//! seed-shuffled program order.  Every report is checked against the
//! committed golden bounds.

use crate::oracle::{parse_golden, Expected};
use crate::trace::{Replay, Spans};
use crate::util::{median, ms, peak_rss_mb, reset_peak_rss, summarize, Marks, Outcome, Rng};
use crate::Args;
use soap_sdg::{analyze_suite_with, set_worker_budget, worker_budget, SolveCache, SuiteProgram};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const GOLDEN: &str = "tests/golden/registry_bounds.txt";
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 201;
/// Sub-window length in seconds for the end-to-end medians: 5 s holds about
/// 100 passes, so at least ten beyond the p90 tail.
const SUB_WINDOW_S: f64 = 5.0;
/// Layer-replay passes and budget-1 passes of the traced run.
const REPLAY_PASSES: usize = 3;
const SERIAL_PASSES: usize = 5;

/// Set-up: registry materialisation plus cache construction.
fn setup() -> (Vec<SuiteProgram>, f64) {
    let mut times = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let registry = soap_kernels::registry();
        jobs = registry.iter().map(soap_bench::suite_program).collect();
        std::hint::black_box(SolveCache::new());
        times.push(t.elapsed().as_secs_f64());
    }
    (jobs, median(&times))
}

fn expectations(args: &Args) -> Result<HashMap<String, Expected>, String> {
    let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let mut golden = parse_golden(&text)?;
    if args.tamper {
        if let Some(e) = golden.get_mut("gemm") {
            e.tamper();
        }
    }
    Ok(golden)
}

/// Passes run for `window` (and at least `min_passes`), each timed around
/// `analyze_suite_with` only.  Returns `(completion second, latency ms)` per
/// pass and the sub-window CPU marks.
fn passes(
    jobs: &[SuiteProgram],
    golden: &HashMap<String, Expected>,
    rng: &mut Rng,
    (window, min_passes): (Duration, usize),
    out: &mut Outcome,
    mut spans: Option<&mut Spans>,
) -> (Vec<(f64, f64)>, Marks) {
    let mut lat = Vec::new();
    let start = Instant::now();
    let mut marks = Marks::start();
    while lat.len() < min_passes || start.elapsed() < window {
        let mut order = jobs.to_vec();
        rng.shuffle(&mut order);
        let cache = SolveCache::new();
        let t = Instant::now();
        let batch = analyze_suite_with(&order, &cache);
        let done = start.elapsed().as_secs_f64();
        lat.push((done, ms(t.elapsed())));
        if let Some(spans) = spans.as_deref_mut() {
            spans.record(lat.len() as u64, "pass", "", t);
        }
        for report in &batch.reports {
            out.attempted += 1;
            let verdict = match (&report.outcome, golden.get(&report.name)) {
                (Ok(a), Some(e)) => e.check(a),
                (Err(err), _) => Err(format!("{}: analysis failed: {err}", report.name)),
                (_, None) => Err(format!("{}: no golden entry", report.name)),
            };
            if let Err(why) = verdict {
                out.fail(why);
            }
        }
        marks.maybe_mark(start.elapsed().as_secs_f64(), SUB_WINDOW_S);
    }
    marks.finish(start.elapsed().as_secs_f64(), SUB_WINDOW_S);
    (lat, marks)
}

/// Median pass latency of a `passes` result.
fn p50(passes: &[(f64, f64)]) -> f64 {
    median(&passes.iter().map(|p| p.1).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (jobs, setup_s) = setup();
    let golden = expectations(args)?;
    let mut rng = Rng::derive(args.seed, 1);
    let programs = jobs.len() as f64;

    if !args.trace {
        reset_peak_rss()?;
        let (lat, marks) = passes(&jobs, &golden, &mut rng, (args.window(), 1), &mut out, None);
        let s = summarize(&lat, &marks, 0.9);
        out.note(format!(
            "{} passes of {} programs; latency_tail_ms is p90 of the passes",
            s.ops,
            jobs.len()
        ));
        let m = &mut out.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("throughput_per_s", s.throughput * programs, "1/s");
        m.put("latency_p50_ms", s.p50, "ms");
        m.put("latency_tail_ms", s.tail, "ms");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("cpu_ms_per_op", s.cpu_per_op / programs, "ms");
        return Ok(out);
    }

    // Traced run: untraced and traced halves of the same workload, then the
    // layer replay and the budget-1 passes.
    let epoch = Instant::now();
    let half = args.window() / 2;
    let untraced = p50(&passes(&jobs, &golden, &mut rng, (half, 1), &mut out, None).0);
    let mut spans = Spans::new(epoch);
    let traced = p50(&passes(
        &jobs,
        &golden,
        &mut rng,
        (half, 1),
        &mut out,
        Some(&mut spans),
    )
    .0);

    let budget = worker_budget();
    set_worker_budget(1);
    let serial = p50(&passes(
        &jobs,
        &golden,
        &mut rng,
        (Duration::ZERO, SERIAL_PASSES),
        &mut out,
        None,
    )
    .0);
    let mut replay = Replay::new(spans, SolveCache::new(), SolveCache::new());
    let mut req = 0u64;
    for _ in 0..REPLAY_PASSES {
        let mut order = jobs.clone();
        rng.shuffle(&mut order);
        replay.reset_caches(SolveCache::new(), SolveCache::new());
        for job in &order {
            req += 1;
            replay.analyze(req, &job.program, &job.opts);
        }
    }
    set_worker_budget(budget);

    let m = &mut out.metrics;
    replay.metrics(m);
    m.put("rayon.budget", budget as f64, "count");
    m.put("rayon.speedup", serial / untraced, "ratio");
    m.put("trace.overhead_share", traced / untraced - 1.0, "ratio");
    m.put("trace.spans", replay.spans.spans.len() as f64, "count");
    let frontend_calls =
        m.0.iter()
            .find(|(n, ..)| n == "frontend.calls")
            .map(|x| x.1);
    out.note(format!(
        "predicted zeros: frontend.calls = {} (expected 0); httpd: no HTTP in this workload",
        frontend_calls.unwrap_or(-1.0)
    ));
    crate::write_spans(args, &replay.spans);
    Ok(out)
}

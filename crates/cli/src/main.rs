//! `soap-cli` — derive I/O lower bounds directly from provided source code,
//! the command-line face of the analysis (the paper's "open-source tool").
//!
//! ```text
//! soap-cli analyze --lang c path/to/kernel.c
//! soap-cli analyze --lang python path/to/kernel.py [--injective] [--json]
//! soap-cli kernel gemm            # analyze a built-in Table-2 kernel
//! soap-cli batch gemm 2mm 3mm     # batch-analyze over one shared cache
//! soap-cli batch --all            # the whole built-in registry
//! soap-cli batch --all --cache-dir .soap-cache   # …over a persistent store
//! soap-cli cache stat .soap-cache # inspect a persistent store
//! soap-cli serve --cache-dir .soap-cache   # analysis-as-a-service daemon
//! soap-cli list                   # list the built-in kernels
//! ```
//!
//! `batch` accepts any mix of built-in kernel names and source files (`.c`,
//! `.py`), runs them all through the cross-program batch engine (one shared
//! solve cache, so renamed structures are solved once per *suite*), and
//! emits one JSON line per program followed by a suite-summary line with the
//! shared-cache accounting.
//!
//! `--cache-dir DIR` (on `analyze` and `batch`) layers that cache over the
//! disk-persisted canonical-solution store at `DIR`: structures solved by
//! *earlier processes* are hydrated at startup and answered without solving
//! (byte-identical results — the store keeps exact rationals and raw float
//! bits), and new solves are flushed back at exit, so a CI fleet or a
//! long-running service sharing one store directory converges on solving
//! each distinct structure once ever.  `soap-cli cache <stat|list|clear> DIR`
//! inspects or empties a store.

#![forbid(unsafe_code)]

use soap_baselines::sota_bound;
use soap_frontend::{parse_c, parse_python};
use soap_ir::Program;
use soap_sdg::{
    analyze_program, analyze_suite, parse_fault_plan, parse_timeout_ms, parse_worker_threads,
    set_worker_budget, FaultPlan, SdgOptions, SolveCache, SolveStore, SuiteProgram,
    DEFAULT_CACHE_SHARDS,
};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// Write `text` to stdout.  Every subcommand prints through here: a closed
/// stdout (the reader went away, as in `soap-cli list | head -1`) ends the
/// process quietly with success instead of panicking like `println!`, and
/// any other write error is reported on stderr with a failing exit.
fn write_stdout(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("soap-cli: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         soap-cli analyze --lang <c|python> <file> [--injective] [--json] [--cache-dir DIR] [--threads N]\n  \
         soap-cli kernel <name> [--json]\n  \
         soap-cli batch [--all] [--injective] [--out FILE] [--cache-dir DIR] [--threads N]\n             \
         [--timeout-ms MS] [--suite-timeout-ms MS] [<kernel-or-file>...]\n  \
         soap-cli cache <stat|list|clear> <dir>\n  \
         soap-cli serve [--addr HOST:PORT] [--http-threads N] [--slots N] [--queue N]\n             \
         [--timeout-ms MS] [--cache-dir DIR] [--memo-cap N] [--threads N]\n  \
         soap-cli list\n\
         \n\
         --cache-dir DIR  layer the solve cache over the disk-persisted canonical-solution\n                  \
         store at DIR (created on first use): structures solved by earlier runs are\n                  \
         reused without re-solving — byte-identical results, warm wall clock — and\n                  \
         new solves are persisted for later runs.  `soap-cli cache stat DIR` inspects\n                  \
         a store read-only, `list` shows its segment files, `clear` empties it.\n\
         \n\
         --threads N      worker threads for the parallel analysis front half (positive\n                  \
         integer, clamped to 512; default: SOAP_THREADS or the hardware core\n                  \
         count).  Results are byte-identical for any thread count.\n\
         \n\
         --timeout-ms MS  per-program analysis budget in milliseconds (positive integer).\n                  \
         A program exceeding it completes *degraded*: a sound partial bound\n                  \
         with the abandoned work accounted, never an error.  --suite-timeout-ms\n                  \
         additionally caps the whole batch; each program gets the smaller of\n                  \
         its own budget and the suite's remaining time.\n\
         \n\
         serve flags (daemon defaults come from the SOAP_SERVE_* environment; a flag\n\
         overrides its variable):\n  \
         --addr HOST:PORT  listen address (default 127.0.0.1:7878; port 0 picks a free\n                   \
         port, printed on startup)\n  \
         --http-threads N  HTTP connection threads (default 8)\n  \
         --slots N         concurrent analyses admitted (default 4); further requests\n                   \
         queue up to --queue N (default 64), beyond which the daemon\n                   \
         answers 429 with Retry-After instead of building backlog\n  \
         --timeout-ms MS   per-request analysis budget; over-budget requests return a\n                   \
         sound *degraded* partial bound with HTTP 200 (clients may\n                   \
         override per request with ?timeout_ms=)\n  \
         --cache-dir DIR   shared warm state: hydrate the canonical-solution store at\n                   \
         startup, flush new solves on shutdown\n  \
         --memo-cap N      memoized-response cache capacity (default 4096); inserting\n                   \
         beyond it evicts the oldest entry so memory stays bounded under\n                   \
         an unbounded stream of distinct programs\n\
         \n\
         environment:\n  \
         SOAP_THREADS       default worker-thread count (same validation and clamp as\n                     \
         --threads, which overrides it)\n  \
         SOAP_CACHE_DIR     default store directory of serve (--cache-dir overrides\n                     \
         it; the other subcommands use only --cache-dir)\n  \
         SOAP_TIMEOUT_MS    default per-program budget (same validation as --timeout-ms,\n                     \
         which overrides it); SOAP_SUITE_TIMEOUT_MS likewise for the suite\n  \
         SOAP_FAULT_PLAN    deterministic fault-injection plan for chaos testing, read by\n                     \
         kernel, analyze and batch only (seed=..,store_read_transient=..,\n                     \
         store_write_transient=..,corrupt_every=..,panic_every=..,\n                     \
         cancel_at_subgraph=..,cancel_at_level=..); a malformed plan warns\n                     \
         and runs fault-free\n  \
         SOAP_SERVE_ADDR          daemon listen address (see --addr)\n  \
         SOAP_SERVE_HTTP_THREADS  daemon HTTP connection threads (see --http-threads)\n  \
         SOAP_SERVE_SLOTS         daemon concurrent analysis slots (see --slots)\n  \
         SOAP_SERVE_QUEUE         daemon admission queue capacity (see --queue)\n  \
         SOAP_SERVE_MEMO_CAP      daemon memoized-response cache capacity (see --memo-cap)"
    );
    std::process::exit(2);
}

/// The fault-injection plan of the analysis subcommands (`kernel`, `analyze`,
/// `batch`) from `SOAP_FAULT_PLAN`.  Unset or empty means fault-free; a
/// malformed plan warns on stderr and also runs fault-free, so a typo cannot
/// pass for a chaos run unnoticed.  `serve` and `cache` never read it.
fn fault_plan_from_env() -> FaultPlan {
    let Some(raw) = std::env::var("SOAP_FAULT_PLAN")
        .ok()
        .filter(|raw| !raw.trim().is_empty())
    else {
        return FaultPlan::default();
    };
    parse_fault_plan(&raw).unwrap_or_else(|| {
        eprintln!("SOAP_FAULT_PLAN: malformed plan '{raw}' ignored; running fault-free");
        FaultPlan::default()
    })
}

/// Open a store-backed cache (when `--cache-dir` was given) or a plain one
/// under the `SOAP_FAULT_PLAN` plan, surfacing the store's load-time notes on
/// stderr.
fn open_cache(cache_dir: Option<&str>) -> Result<SolveCache, ExitCode> {
    let cache = match SolveCache::with_faults(
        cache_dir.map(std::path::Path::new),
        DEFAULT_CACHE_SHARDS,
        fault_plan_from_env(),
    ) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!(
                "cannot open cache store {}: {e}",
                cache_dir.unwrap_or_default()
            );
            return Err(ExitCode::FAILURE);
        }
    };
    let (Some(dir), Some(load)) = (cache_dir, cache.store_load_stats()) else {
        return Ok(cache);
    };
    for note in &load.notes {
        eprintln!("cache store: {note}");
    }
    if load.entries > 0 {
        eprintln!(
            "cache store: hydrated {} canonical solution(s) from {} ({} segment(s), {} bytes)",
            load.entries, dir, load.segments, load.bytes
        );
    }
    if let Some(reports) = cache.report_load_stats() {
        for note in &reports.notes {
            eprintln!("cache store: {note}");
        }
        if reports.entries > 0 {
            eprintln!(
                "cache store: hydrated {} finished report(s) from {}",
                reports.entries, dir
            );
        }
    }
    Ok(cache)
}

/// Flush a store-backed cache at session end, reporting what was persisted.
/// Returns whether the flush succeeded (trivially true for a plain cache).
fn flush_cache(cache: &SolveCache) -> bool {
    match cache.flush_store() {
        Ok(flush) => {
            if flush.appended > 0 || flush.reports_appended > 0 {
                eprintln!(
                    "cache store: persisted {} new canonical solution(s) and {} finished report(s) to {}",
                    flush.appended,
                    flush.reports_appended,
                    cache
                        .store_dir()
                        .map(|d| d.display().to_string())
                        .unwrap_or_default()
                );
            }
            true
        }
        Err(e) => {
            eprintln!("cache store: flush failed: {e}");
            false
        }
    }
}

/// Apply a `--threads N` override to the process-wide worker budget, with
/// the validation contract of [`parse_worker_threads`] (shared with
/// `SOAP_THREADS`): an unparsable value is an explicit usage error, never a
/// silent guess.
fn set_threads_or_usage(raw: &str) {
    match parse_worker_threads(raw) {
        Some(n) => {
            set_worker_budget(n);
        }
        None => {
            eprintln!("--threads expects a positive integer, got '{raw}'");
            usage();
        }
    }
}

/// Parse a `--timeout-ms`-style flag value: an explicit flag with an invalid
/// value is a usage error (same contract as `--threads`), never a silent
/// guess.
fn timeout_or_usage(flag: &str, raw: &str) -> Duration {
    parse_timeout_ms(raw).unwrap_or_else(|| {
        eprintln!("{flag} expects a positive integer of milliseconds, got '{raw}'");
        usage();
    })
}

/// The environment-variable default for a budget: invalid values are ignored
/// (an env var travels further than a flag, so a typo must not kill every
/// invocation on the host).
fn timeout_from_env(var: &str) -> Option<Duration> {
    std::env::var(var)
        .ok()
        .and_then(|raw| parse_timeout_ms(&raw))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("list") => {
            for entry in soap_kernels::registry() {
                outln!("{:<24} ({:?})", entry.name, entry.group);
            }
            ExitCode::SUCCESS
        }
        Some("kernel") => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let Some(entry) = soap_kernels::by_name(name) else {
                eprintln!("unknown kernel '{name}'; run `soap-cli list`");
                return ExitCode::FAILURE;
            };
            report(
                &entry.program,
                entry.assume_injective,
                args.contains(&"--json".to_string()),
            )
        }
        Some("batch") => batch(&args[1..]),
        Some("cache") => cache_cmd(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("analyze") => {
            let mut lang = "python".to_string();
            let mut file = None;
            let mut injective = false;
            let mut json = false;
            let mut cache_dir: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--lang" => {
                        i += 1;
                        lang = args.get(i).cloned().unwrap_or_else(|| usage());
                    }
                    "--injective" => injective = true,
                    "--json" => json = true,
                    "--cache-dir" => {
                        i += 1;
                        cache_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
                    }
                    "--threads" => {
                        i += 1;
                        set_threads_or_usage(&args.get(i).cloned().unwrap_or_else(|| usage()));
                    }
                    other if !other.starts_with("--") => file = Some(other.to_string()),
                    _ => usage(),
                }
                i += 1;
            }
            let file = file.unwrap_or_else(|| usage());
            let source = match std::fs::read_to_string(&file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let name = std::path::Path::new(&file)
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_else(|| "program".to_string());
            let parsed = match lang.as_str() {
                "c" => parse_c(&name, &source),
                "python" | "py" => parse_python(&name, &source),
                other => {
                    eprintln!("unknown language '{other}' (expected c or python)");
                    return ExitCode::FAILURE;
                }
            };
            match parsed {
                Ok(program) => {
                    let cache = match open_cache(cache_dir.as_deref()) {
                        Ok(c) => c,
                        Err(code) => return code,
                    };
                    let reported = report_with(&program, injective, json, &cache);
                    if flush_cache(&cache) && reported {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("parse error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// `soap-cli serve`: run the analysis daemon until a client POSTs /shutdown
/// (or the process is killed).  Defaults come from `ServeConfig::from_env()`
/// (the SOAP_SERVE_* variables); flags override.  On shutdown the
/// store-backed solve cache is flushed so the next replica starts warm.
fn serve(args: &[String]) -> ExitCode {
    let mut config = soap_serve::ServeConfig::from_env();
    let mut i = 0;
    while i < args.len() {
        // Flags that take a value share one "next arg or usage" shape.
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--addr" => config.addr = value(&mut i),
            "--http-threads" => {
                config.http_threads = positive_or_usage("--http-threads", &value(&mut i))
            }
            "--slots" => config.analysis_slots = positive_or_usage("--slots", &value(&mut i)),
            "--queue" => config.queue_capacity = positive_or_usage("--queue", &value(&mut i)),
            "--timeout-ms" => {
                config.timeout = Some(timeout_or_usage("--timeout-ms", &value(&mut i)));
            }
            "--cache-dir" => config.cache_dir = Some(value(&mut i)),
            "--memo-cap" => config.memo_cap = positive_or_usage("--memo-cap", &value(&mut i)),
            "--threads" => set_threads_or_usage(&value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    let server = match soap_serve::RunningServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The bound address goes to stdout (scripts capture it — with port 0 the
    // kernel picks the port); progress chatter stays on stderr.
    outln!("listening on http://{}", server.addr());
    eprintln!("serve: POST /shutdown to stop; GET /stats for live counters");
    server.wait_for_shutdown();
    match server.stop() {
        Ok(appended) => {
            if appended > 0 {
                eprintln!("serve: persisted {appended} new canonical solution(s) on shutdown");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: shutdown flush failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse a positive-integer serve flag; an explicit flag with an invalid
/// value is a usage error (same contract as `--threads`).
fn positive_or_usage(flag: &str, raw: &str) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} expects a positive integer, got '{raw}'");
            usage();
        }
    }
}

/// `soap-cli batch`: resolve each spec to a program (built-in kernel name or
/// `.c`/`.py` source file), run them through `analyze_suite` over one shared
/// solve cache, and emit JSON-lines: one record per program, then one
/// `{"suite": ...}` record with the shared-cache accounting.
fn batch(args: &[String]) -> ExitCode {
    let mut specs: Vec<String> = Vec::new();
    let mut all = false;
    let mut injective = false;
    let mut out_path: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut program_budget = timeout_from_env("SOAP_TIMEOUT_MS");
    let mut suite_budget = timeout_from_env("SOAP_SUITE_TIMEOUT_MS");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--injective" => injective = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--cache-dir" => {
                i += 1;
                cache_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--threads" => {
                i += 1;
                set_threads_or_usage(&args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--timeout-ms" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| usage());
                program_budget = Some(timeout_or_usage("--timeout-ms", &raw));
            }
            "--suite-timeout-ms" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| usage());
                suite_budget = Some(timeout_or_usage("--suite-timeout-ms", &raw));
            }
            other if !other.starts_with("--") => specs.push(other.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let mut jobs: Vec<SuiteProgram> = Vec::new();
    if all {
        for entry in soap_kernels::registry() {
            jobs.push(SuiteProgram::new(
                entry.program,
                SdgOptions {
                    assume_injective: entry.assume_injective,
                    ..SdgOptions::default()
                },
            ));
        }
    }
    for spec in &specs {
        let path = std::path::Path::new(spec);
        let extension = path
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase);
        let is_c = extension.as_deref() == Some("c");
        let by_extension = is_c || extension.as_deref() == Some("py");
        if by_extension || path.exists() {
            let source = match std::fs::read_to_string(spec) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {spec}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_else(|| "program".to_string());
            let parsed = if is_c {
                parse_c(&name, &source)
            } else {
                parse_python(&name, &source)
            };
            match parsed {
                Ok(program) => jobs.push(SuiteProgram::new(
                    program,
                    SdgOptions {
                        assume_injective: injective,
                        ..SdgOptions::default()
                    },
                )),
                Err(e) => {
                    eprintln!("parse error in {spec}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(entry) = soap_kernels::by_name(spec) {
            jobs.push(SuiteProgram::new(
                entry.program,
                SdgOptions {
                    assume_injective: entry.assume_injective,
                    ..SdgOptions::default()
                },
            ));
        } else {
            eprintln!("'{spec}' is neither a readable source file nor a built-in kernel; run `soap-cli list`");
            return ExitCode::FAILURE;
        }
    }
    if jobs.is_empty() {
        eprintln!("batch: nothing to analyze (pass kernel names / source files, or --all)");
        return ExitCode::FAILURE;
    }

    let cache = match open_cache(cache_dir.as_deref()) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let batch = analyze_suite(&jobs, &cache, program_budget, suite_budget);
    if batch.summary.duplicate_names > 0 {
        eprintln!(
            "batch: {} duplicate program name(s) disambiguated to name#2, name#3, … in the reports",
            batch.summary.duplicate_names
        );
    }
    if batch.summary.degraded > 0 {
        eprintln!(
            "batch: {} program(s) degraded by the analysis budget; their bounds are sound partial bounds (not failures)",
            batch.summary.degraded
        );
    }
    let mut lines: Vec<String> = Vec::new();
    for report in &batch.reports {
        let record = match &report.outcome {
            Ok(analysis) => {
                // Per-program records carry only order- and time-invariant
                // fields, so two batch runs over the same inputs produce
                // byte-identical per-program lines regardless of thread
                // count, scheduling, or wall clock.  Timing and the shared
                // cache accounting (including the thread-order-dependent
                // cross- vs intra-program hit split) live in the suite
                // summary record alone.
                let mut record = serde_json::json!({
                    "program": report.name,
                    "ok": true,
                    "bound": format!("{}", analysis.bound),
                    "per_array": analysis.per_array.iter().map(|a| serde_json::json!({
                        "array": a.array,
                        "rho": format!("{}", a.rho),
                        "sigma": format!("{}", a.sigma),
                    })).collect::<Vec<_>>(),
                    "notes": analysis.notes,
                });
                // Degradation fields only when present: default-config output
                // stays byte-identical to earlier releases.
                if analysis.degraded {
                    if let serde_json::Value::Object(fields) = &mut record {
                        fields.push(("degraded".to_string(), serde_json::to_value(&true)));
                        fields.push((
                            "subgraphs_cancelled".to_string(),
                            serde_json::to_value(&analysis.solver.cancelled),
                        ));
                        fields.push((
                            "arrays_deferred".to_string(),
                            serde_json::to_value(&analysis.arrays_deferred),
                        ));
                    }
                }
                record
            }
            Err(e) => serde_json::json!({
                "program": report.name,
                "ok": false,
                "error": format!("{e}"),
            }),
        };
        lines.push(serde_json::to_string(&record).expect("record serializes"));
    }
    let s = &batch.summary;
    // The record layout is defined once by `SuiteSummary`'s Serialize impl
    // (shared with `table2 --suite-json`).
    let suite_record = serde_json::json!({ "suite": serde_json::to_value(s) });
    lines.push(serde_json::to_string(&suite_record).expect("summary serializes"));
    let text = lines.join("\n") + "\n";
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {path}: {} programs, {} failures, {} cross-program cache hits",
                s.programs, s.failures, s.cache.cross_program_hits
            );
        }
        None => write_stdout(&text),
    }
    let flushed = flush_cache(&cache);
    if s.failures > 0 || !flushed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn report(program: &Program, assume_injective: bool, json: bool) -> ExitCode {
    let cache = match open_cache(None) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if report_with(program, assume_injective, json, &cache) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Analyze one program through the given (possibly store-backed) cache and
/// print the report.  Returns whether the analysis succeeded.
fn report_with(program: &Program, assume_injective: bool, json: bool, cache: &SolveCache) -> bool {
    let opts = SdgOptions {
        assume_injective,
        ..SdgOptions::default()
    };
    match analyze_program(program, &opts, cache, None) {
        Ok(analysis) => {
            if json {
                let record = serde_json::json!({
                    "program": program.name,
                    "bound": format!("{}", analysis.bound),
                    "per_array": analysis.per_array.iter().map(|a| serde_json::json!({
                        "array": a.array,
                        "rho": format!("{}", a.rho),
                        "sigma": format!("{}", a.sigma),
                        "vertices": format!("{}", a.vertex_count),
                        "subgraph": a.best_subgraph,
                    })).collect::<Vec<_>>(),
                    "notes": analysis.notes,
                });
                outln!(
                    "{}",
                    serde_json::to_string_pretty(&record).expect("serializable")
                );
            } else {
                outln!("program {}", program.name);
                outln!("  I/O lower bound: Q ≥ {}", analysis.bound);
                for a in &analysis.per_array {
                    outln!(
                        "  array {:<12} |A| = {:<24} ρ = {:<16} via {{{}}}",
                        a.array,
                        format!("{}", a.vertex_count),
                        format!("{}", a.rho),
                        a.best_subgraph.join(",")
                    );
                }
                if let Some(t) = sota_bound(&program.name) {
                    outln!(
                        "  paper / prior:   {}  (source: {})",
                        t.paper_soap_bound,
                        t.source
                    );
                }
                for n in &analysis.notes {
                    outln!("  note: {n}");
                }
            }
            true
        }
        Err(e) => {
            eprintln!("analysis failed: {e}");
            false
        }
    }
}

/// `soap-cli cache <stat|list|clear> <dir>`: inspect or empty a
/// disk-persisted canonical-solution store without running any analysis.
fn cache_cmd(args: &[String]) -> ExitCode {
    let (Some(action), Some(dir)) = (args.first(), args.get(1)) else {
        usage();
    };
    if args.len() > 2 {
        usage();
    }
    // `open_existing`: inspection must not create the directory, or a typo'd
    // path would report a convincing empty store instead of an error.
    let store = match SolveStore::open_existing(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open cache store {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match action.as_str() {
        "stat" => store.stat().and_then(|stats| {
            // `stat` only reads: the quarantined segments it counts were
            // set aside by earlier hydrations and sit there until `clear`.
            let quarantined_on_disk = store.quarantined_files().map(|f| f.len()).unwrap_or(0);
            outln!("store {dir}");
            outln!("  format            {}", soap_sdg::STORE_HEADER);
            outln!("  segments          {}", stats.segments);
            outln!("  segments rejected {}", stats.segments_rejected);
            outln!("  records           {}", stats.records);
            outln!("  records skipped   {}", stats.records_skipped);
            outln!("  distinct entries  {}", stats.entries);
            outln!("  bytes             {}", stats.bytes);
            outln!("  quarantined       {quarantined_on_disk}");
            for note in &stats.notes {
                outln!("  note: {note}");
            }
            // The finished-report family shares the directory but is a
            // separate record type with its own segments and quarantine.
            let reports = store.report_stat()?;
            let report_quarantined = store
                .report_quarantined_files()
                .map(|f| f.len())
                .unwrap_or(0);
            outln!("reports (format {})", soap_sdg::REPORT_HEADER);
            outln!("  segments          {}", reports.segments);
            outln!("  segments rejected {}", reports.segments_rejected);
            outln!("  records           {}", reports.records);
            outln!("  records skipped   {}", reports.records_skipped);
            outln!("  distinct entries  {}", reports.entries);
            outln!("  bytes             {}", reports.bytes);
            outln!("  quarantined       {report_quarantined}");
            for note in &reports.notes {
                outln!("  note: {note}");
            }
            Ok(())
        }),
        "list" => store.segment_files().and_then(|mut files| {
            files.extend(store.report_files()?);
            for path in &files {
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                // Records = non-empty lines minus the header line.
                let records = std::fs::read_to_string(path)
                    .map(|t| {
                        t.lines()
                            .filter(|l| !l.is_empty())
                            .count()
                            .saturating_sub(1)
                    })
                    .unwrap_or(0);
                outln!(
                    "{:<56} {records:>6} record(s) {bytes:>10} bytes",
                    path.file_name().unwrap_or_default().to_string_lossy()
                );
            }
            if files.is_empty() {
                outln!("store {dir}: no segments");
            }
            Ok(())
        }),
        "clear" => store.clear().map(|removed| {
            outln!("store {dir}: removed {removed} segment(s)");
        }),
        _ => usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cache {action} {dir} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The traced run's span store and the per-layer replay.
//!
//! No span lives inside the program: every span here brackets a call the
//! benchmark itself makes into a layer's public functions.  The replay walks
//! the same operations the workload sent, at worker budget 1, calling each
//! layer in the order the pipeline does:
//!
//! * `frontend` — `parse_python` / `parse_c` of a POSTed body;
//! * `service` — `canonical_program_hash` (the memo key) and
//!   `structural_program_key` (the report key);
//! * `subgraphs` — `Sdg::from_program` + `enumerate_connected_subgraphs`;
//! * `merge` — `merged_model` per enumerated set;
//! * `cache` — `canonicalize`, and `SolveCache::solve` classified as hit,
//!   miss or uncacheable by `stats()` deltas;
//! * `opt` — the solve calls that missed, minus their canonicalize time;
//! * `analysis` — `analyze_program_with_cache` on a twin cache that sees the
//!   same models in the same order; its time minus the stages above is the
//!   unattributed remainder (Theorem-1 fold, report probe, bookkeeping).

use crate::util::{percentile, sorted, Metrics};
use soap_ir::Program;
use soap_sdg::{
    analyze_program_with_cache, canonical_program_hash, canonicalize,
    enumerate_connected_subgraphs, merged_model, structural_program_key, Sdg, SdgOptions,
    SolveCache,
};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The key `AnalysisService` memoizes a response under: the canonical
/// program hash, flipped for injective-mode requests (the one option that
/// changes the answer).  Must follow the rule in `soap-serve`.
pub fn daemon_memo_key(program: &Program, injective: bool) -> u64 {
    let key = canonical_program_hash(program);
    if injective {
        key ^ 0x9e37_79b9_7f4a_7c15
    } else {
        key
    }
}

/// One recorded span: which operation, which layer call, and when.
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Spans kept in memory for the whole run and written out at its end.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, req: u64, name: &'static str, parent: &'static str, start: Instant) {
        let now = Instant::now();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: now.duration_since(start).as_secs_f64() * 1e6,
        });
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"span\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.req, s.name, s.parent, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

/// Busy time and call samples of one layer call site.
#[derive(Default)]
pub struct Layer {
    pub calls: u64,
    pub busy_ns: u64,
    samples: Vec<f64>,
}

impl Layer {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.busy_ns += ns;
        self.samples.push(ns as f64);
    }

    fn busy_ms(&self) -> f64 {
        self.busy_ns as f64 / 1e6
    }

    fn p50_ns(&self) -> f64 {
        percentile(&sorted(self.samples.clone()), 0.5)
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The per-layer replay state: two caches kept in lockstep (one under the
/// whole-program call, one under the stage calls) and the layer tallies.
pub struct Replay {
    pub spans: Spans,
    analysis_cache: SolveCache,
    stage_cache: SolveCache,
    frontend: Layer,
    service: Layer,
    subgraphs: Layer,
    sets: u64,
    truncated: u64,
    merge: Layer,
    merge_failures: u64,
    canonicalize_ns: u64,
    lookup_ns: u64,
    /// `SolveCache::solve` outcomes by `stats()` delta.
    hits: u64,
    misses: u64,
    uncacheable: u64,
    store_hits: u64,
    report_hits: u64,
    opt: Layer,
    opt_failures: u64,
    analysis: Layer,
    unattributed_ns: i128,
}

impl Replay {
    pub fn new(spans: Spans, analysis_cache: SolveCache, stage_cache: SolveCache) -> Replay {
        Replay {
            spans,
            analysis_cache,
            stage_cache,
            frontend: Layer::default(),
            service: Layer::default(),
            subgraphs: Layer::default(),
            sets: 0,
            truncated: 0,
            merge: Layer::default(),
            merge_failures: 0,
            canonicalize_ns: 0,
            lookup_ns: 0,
            hits: 0,
            misses: 0,
            uncacheable: 0,
            store_hits: 0,
            report_hits: 0,
            opt: Layer::default(),
            opt_failures: 0,
            analysis: Layer::default(),
            unattributed_ns: 0,
        }
    }

    /// Start a fresh pair of caches (the cold suite's per-pass fresh cache).
    pub fn reset_caches(&mut self, analysis_cache: SolveCache, stage_cache: SolveCache) {
        self.analysis_cache = analysis_cache;
        self.stage_cache = stage_cache;
    }

    /// `frontend`: parse a POSTed body the way the daemon does.
    pub fn parse(
        &mut self,
        req: u64,
        dialect: crate::gen::Dialect,
        name: &str,
        source: &str,
    ) -> Option<Program> {
        let t = Instant::now();
        let parsed = dialect.parse(name, source).ok();
        self.frontend.add(ns_since(t));
        self.spans.record(req, "frontend.parse", "handle", t);
        parsed
    }

    /// `service`: the daemon's memo key.
    pub fn memo_key(&mut self, req: u64, program: &Program, injective: bool) -> u64 {
        let t = Instant::now();
        let key = daemon_memo_key(program, injective);
        self.service.add(ns_since(t));
        self.spans
            .record(req, "service.canonical_hash", "handle", t);
        key
    }

    /// One whole-program analysis, replayed layer by layer.
    pub fn analyze(&mut self, req: u64, program: &Program, opts: &SdgOptions) {
        let t = Instant::now();
        let whole = analyze_program_with_cache(program, opts, &self.analysis_cache);
        let whole_ns = ns_since(t);
        self.analysis.add(whole_ns);
        self.spans.record(req, "analysis", "handle", t);

        let t = Instant::now();
        std::hint::black_box(structural_program_key(program, opts));
        let mut staged_ns = ns_since(t);
        self.service.add(staged_ns);
        self.spans
            .record(req, "service.structural_key", "analysis", t);

        let report_hit = whole.as_ref().is_ok_and(|a| a.solver.report_hits > 0);
        if report_hit {
            // The report layer answered: no stage ran inside the program.
            self.report_hits += 1;
            self.unattributed_ns += whole_ns as i128 - staged_ns as i128;
            return;
        }

        let t = Instant::now();
        let sdg = Sdg::from_program(program);
        let enumeration =
            enumerate_connected_subgraphs(&sdg, opts.max_subgraph_size, opts.max_subgraphs);
        let ns = ns_since(t);
        self.subgraphs.add(ns);
        staged_ns += ns;
        self.spans.record(req, "subgraphs.enumerate", "analysis", t);
        self.sets += enumeration.subgraphs.len() as u64;
        self.truncated += enumeration.truncated as u64;

        let core_opts = soap_core::AnalysisOptions {
            assume_injective: opts.assume_injective,
        };
        for set in &enumeration.subgraphs {
            let t = Instant::now();
            let merged = merged_model(program, set, &core_opts);
            let ns = ns_since(t);
            self.merge.add(ns);
            staged_ns += ns;
            self.spans.record(req, "merge.merged_model", "analysis", t);
            let Ok(model) = merged else {
                self.merge_failures += 1;
                continue;
            };

            // `canonicalize` is also the first step inside `solve`; time it
            // on its own to split the solve call into key work and the rest.
            let t = Instant::now();
            std::hint::black_box(canonicalize(&model));
            let canon_ns = ns_since(t);
            self.canonicalize_ns += canon_ns;
            self.spans.record(req, "cache.canonicalize", "analysis", t);

            let before = self.stage_cache.stats();
            let t = Instant::now();
            let solved = self.stage_cache.solve(&model);
            let ns = ns_since(t);
            staged_ns += ns;
            let delta = self.stage_cache.stats().since(&before);
            self.hits += delta.hits;
            self.misses += delta.misses;
            self.uncacheable += delta.uncacheable;
            self.store_hits += delta.store_hits;
            let rest = ns.saturating_sub(canon_ns);
            if delta.hits > 0 {
                self.lookup_ns += rest;
                self.spans.record(req, "cache.lookup", "analysis", t);
            } else {
                self.opt.add(rest);
                self.spans.record(req, "opt.solve", "analysis", t);
            }
            if solved.is_err() {
                self.opt_failures += 1;
            }
        }
        self.unattributed_ns += whole_ns as i128 - staged_ns as i128;
    }

    pub fn metrics(&self, m: &mut Metrics) {
        m.put("frontend.calls", self.frontend.calls as f64, "count");
        m.put("frontend.busy_ms", self.frontend.busy_ms(), "ms");
        m.put("frontend.p50_us", self.frontend.p50_ns() / 1e3, "us");
        m.put("service.calls", self.service.calls as f64, "count");
        m.put("service.busy_ms", self.service.busy_ms(), "ms");
        m.put("subgraphs.calls", self.subgraphs.calls as f64, "count");
        m.put("subgraphs.busy_ms", self.subgraphs.busy_ms(), "ms");
        m.put("subgraphs.sets", self.sets as f64, "count");
        m.put("subgraphs.truncated", self.truncated as f64, "count");
        m.put("merge.calls", self.merge.calls as f64, "count");
        m.put("merge.busy_ms", self.merge.busy_ms(), "ms");
        m.put("merge.failures", self.merge_failures as f64, "count");
        m.put(
            "cache.canonicalize_busy_ms",
            self.canonicalize_ns as f64 / 1e6,
            "ms",
        );
        m.put("cache.lookup_busy_ms", self.lookup_ns as f64 / 1e6, "ms");
        m.put("cache.hits", self.hits as f64, "count");
        m.put("cache.misses", self.misses as f64, "count");
        let lookups = self.hits + self.misses + self.uncacheable;
        let ratio = if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        };
        m.put("cache.hit_ratio", ratio, "ratio");
        m.put("cache.uncacheable", self.uncacheable as f64, "count");
        m.put("cache.store_hits", self.store_hits as f64, "count");
        m.put("cache.report_hits", self.report_hits as f64, "count");
        m.put("opt.solves", self.opt.calls as f64, "count");
        m.put("opt.busy_ms", self.opt.busy_ms(), "ms");
        m.put("opt.p50_ms", self.opt.p50_ns() / 1e6, "ms");
        m.put("opt.failures", self.opt_failures as f64, "count");
        m.put("analysis.calls", self.analysis.calls as f64, "count");
        let unattributed_ms = self.unattributed_ns as f64 / 1e6;
        m.put("analysis.unattributed_ms", unattributed_ms, "ms");
        let share = if self.analysis.busy_ns == 0 {
            0.0
        } else {
            unattributed_ms / self.analysis.busy_ms()
        };
        m.put("analysis.unattributed_share", share, "ratio");
    }
}

//! # soap-serve
//!
//! Analysis-as-a-service: a multi-threaded HTTP daemon that answers I/O
//! lower-bound queries for program source (`.c`/`.py` dialects) or built-in
//! Table-2 kernel names — the paper's *static* promise (bounds computed once,
//! reused everywhere) turned into one warm, shared service.
//!
//! The daemon is deliberately a thin shell over machinery that earlier layers
//! already proved out:
//!
//! * **Analysis** goes through
//!   [`analyze_program`] with the
//!   process-lifetime sharded [`SolveCache`] — structurally identical subgraph
//!   models are solved once per process, and with `--cache-dir` once *ever*
//!   (the disk store is the shared warm state across replicas and restarts).
//! * **Per-request deadlines** map the server's timeout knob onto the
//!   `--timeout-ms` degraded-mode machinery: a request that exceeds its budget
//!   returns HTTP 200 with `"degraded": true` and a sound partial bound —
//!   degradation is not a failure, so it is never a 5xx.
//! * **Request dedup** happens before any analysis: responses are memoized by
//!   [`canonical_program_hash`] (renaming-invariant, so gensym'd duplicates
//!   hit), and N identical *concurrent* requests coalesce onto one analysis
//!   through [`InFlight`] — one leader computes, N−1 followers share.
//! * **Backpressure**: admission to the analysis engine runs through a
//!   bounded gate (`analysis_slots` running + `queue_capacity` waiting).  A
//!   request that finds the queue full is rejected immediately with `429` and
//!   a `Retry-After` header — memory stays bounded no matter the offered load.
//! * **Graceful shutdown** (`POST /shutdown` or [`RunningServer::shutdown_now`])
//!   stops the listeners, lets in-flight requests finish, and flushes newly
//!   solved canonical solutions back to the store.
//!
//! ## Endpoints
//!
//! | Route | Method | Behavior |
//! |---|---|---|
//! | `/healthz` | GET | liveness probe, `200 ok` |
//! | `/stats` | GET | counters, dedup ratio, queue depth, solve-cache stats |
//! | `/kernels` | GET | built-in kernel names (JSON array) |
//! | `/analyze?kernel=NAME` | GET/POST | analyze a built-in kernel |
//! | `/analyze?lang=c\|python[&name=..][&timeout_ms=..][&injective=1]` | POST | analyze the request body as source |
//! | `/flush` | POST | flush new canonical solutions to the store now |
//! | `/shutdown` | POST | begin graceful shutdown |
//!
//! Client mistakes (unknown kernel, malformed source, bad query parameter,
//! wrong method) are 4xx; 5xx is reserved for genuine server faults (an
//! analysis panic).  See `docs/OPERATIONS.md` for the full configuration
//! reference.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use soap_sdg::{
    analyze_program, canonical_program_hash, parse_timeout_ms, Claim, Deadline, InFlight,
    ProgramAnalysis, SdgOptions, SolveCache,
};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Server configuration: listen address, concurrency shape, analysis budget
/// and warm state.  [`ServeConfig::from_env`] reads the `SOAP_SERVE_*` /
/// `SOAP_TIMEOUT_MS` / `SOAP_CACHE_DIR` environment (documented in
/// `docs/OPERATIONS.md`); the CLI layers `serve` flags on top.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:7878` by default; use port 0 for an
    /// ephemeral port in tests).
    pub addr: String,
    /// HTTP listener threads — the maximum number of concurrently *served*
    /// connections (`SOAP_SERVE_HTTP_THREADS`, default 8).
    pub http_threads: usize,
    /// Analyses allowed to run concurrently (`SOAP_SERVE_SLOTS`, default 4).
    /// Each analysis is itself parallel on the shared worker pool
    /// (`SOAP_THREADS`), so a few slots saturate a machine.
    pub analysis_slots: usize,
    /// Requests allowed to *wait* for a slot (`SOAP_SERVE_QUEUE`, default
    /// 64).  A request beyond `analysis_slots + queue_capacity` is rejected
    /// with 429 instead of growing memory.
    pub queue_capacity: usize,
    /// Default per-request analysis budget (`SOAP_TIMEOUT_MS`; none by
    /// default).  Queue wait counts against it.  Overridable per request via
    /// `?timeout_ms=`.
    pub timeout: Option<Duration>,
    /// Canonical-solution store directory (`SOAP_CACHE_DIR` / `--cache-dir`):
    /// hydrated at startup, flushed on `/flush` and at shutdown.
    pub cache_dir: Option<String>,
    /// Base value of the `Retry-After` header on 429 responses, in seconds.
    /// The advertised value scales with the queue depth observed at
    /// rejection: `retry_after_secs × (1 + queued)`, capped at 600 — a
    /// saturated queue tells clients to back off longer.
    pub retry_after_secs: u32,
    /// Maximum entries in the memoized-response cache
    /// (`SOAP_SERVE_MEMO_CAP` / `--memo-cap`, default 4096).  Inserting
    /// beyond the cap evicts the oldest entry (FIFO), so a long-lived daemon
    /// fed an unbounded stream of distinct programs holds bounded memory.
    pub memo_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            http_threads: 8,
            analysis_slots: 4,
            queue_capacity: 64,
            timeout: None,
            cache_dir: None,
            retry_after_secs: 1,
            memo_cap: 4096,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by the environment.  Invalid values are ignored
    /// (an env var travels further than a flag, so a typo must not kill every
    /// daemon start on the host) — the CLI flags, in contrast, reject bad
    /// values loudly.
    pub fn from_env() -> ServeConfig {
        let mut c = ServeConfig::default();
        if let Ok(addr) = std::env::var("SOAP_SERVE_ADDR") {
            if !addr.is_empty() {
                c.addr = addr;
            }
        }
        if let Some(n) = env_usize("SOAP_SERVE_HTTP_THREADS") {
            c.http_threads = n;
        }
        if let Some(n) = env_usize("SOAP_SERVE_SLOTS") {
            c.analysis_slots = n;
        }
        if let Ok(raw) = std::env::var("SOAP_SERVE_QUEUE") {
            // Unlike the others, 0 is meaningful here: "no queue, reject
            // whatever cannot start immediately".
            if let Ok(n) = raw.trim().parse::<usize>() {
                c.queue_capacity = n;
            }
        }
        c.timeout = std::env::var("SOAP_TIMEOUT_MS")
            .ok()
            .and_then(|raw| parse_timeout_ms(&raw));
        c.cache_dir = std::env::var("SOAP_CACHE_DIR")
            .ok()
            .filter(|d| !d.is_empty());
        if let Some(n) = env_usize("SOAP_SERVE_MEMO_CAP") {
            c.memo_cap = n;
        }
        c
    }
}

fn env_usize(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Admission gate: at most `slots` analyses running, at most `queue` more
/// waiting; everything beyond is rejected immediately.
struct Gate {
    state: Mutex<GateState>,
    cond: Condvar,
    slots: usize,
    queue: usize,
}

#[derive(Clone, Copy, Default)]
struct GateState {
    running: usize,
    queued: usize,
}

impl Gate {
    fn new(slots: usize, queue: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            cond: Condvar::new(),
            slots: slots.max(1),
            queue,
        }
    }

    /// Admit or reject.  Admitted callers may block (bounded by the queue
    /// capacity, counted against their own deadline); rejected callers return
    /// immediately with `Err(queued)` — the 429 path — carrying the queue
    /// depth observed at rejection so the response can scale its
    /// `Retry-After` advice.
    fn admit(&self) -> Result<GatePermit<'_>, usize> {
        // lint:allow(unwrap-expect): gate state is plain counters; a poisoned lock means a handler panicked and fail-stop is the policy (model-checked in tests/interleave_serve.rs)
        let mut st = self.state.lock().expect("not poisoned");
        if st.running + st.queued >= self.slots + self.queue {
            return Err(st.queued);
        }
        if st.running < self.slots {
            st.running += 1;
            return Ok(GatePermit { gate: self });
        }
        st.queued += 1;
        while st.running >= self.slots {
            // lint:allow(unwrap-expect): gate state is plain counters; a poisoned lock means a handler panicked and fail-stop is the policy (model-checked in tests/interleave_serve.rs)
            st = self.cond.wait(st).expect("not poisoned");
        }
        st.queued -= 1;
        st.running += 1;
        Ok(GatePermit { gate: self })
    }

    fn depth(&self) -> GateState {
        // lint:allow(unwrap-expect): gate state is plain counters; a poisoned lock means a handler panicked and fail-stop is the policy (model-checked in tests/interleave_serve.rs)
        *self.state.lock().expect("not poisoned")
    }
}

/// Holding this permit is holding one of the gate's execution slots.
struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        // lint:allow(unwrap-expect): gate state is plain counters; a poisoned lock means a handler panicked and fail-stop is the policy (model-checked in tests/interleave_serve.rs)
        let mut st = self.gate.state.lock().expect("not poisoned");
        st.running -= 1;
        drop(st);
        self.gate.cond.notify_one();
    }
}

/// Monotonic service counters, all readable through `GET /stats`.
#[derive(Default)]
struct Counters {
    /// Every request the handler saw.
    requests: AtomicU64,
    /// Requests to `/analyze` (the dedup-ratio denominator).
    analyze_requests: AtomicU64,
    /// Analyses actually executed (leader runs).
    analyses: AtomicU64,
    /// Analyses that returned an error (client-program problem, 4xx).
    analysis_failures: AtomicU64,
    /// Analyses that hit their deadline and returned a degraded (sound
    /// partial) bound.
    degraded: AtomicU64,
    /// `/analyze` answered from the memoized-response cache.
    response_cache_hits: AtomicU64,
    /// `/analyze` answered by waiting on an identical in-flight analysis.
    coalesced: AtomicU64,
    /// Memoized responses evicted because the memo hit its capacity bound.
    memo_evictions: AtomicU64,
    /// Requests rejected with 429 because the queue was full.
    rejected: AtomicU64,
    /// Responses by status class.
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
}

/// What one analysis produced, shared verbatim with coalesced followers.
/// `tail` is the serialized record *minus* the `program` name field, which
/// every response splices back in (dedup is renaming-invariant, so followers
/// may have asked under a different name).
#[derive(Clone)]
struct Outcome {
    status: u16,
    /// `Retry-After` seconds to advertise (429 rejections only).
    retry_after: Option<u32>,
    tail: Arc<String>,
}

/// The memoized-response cache, bounded by `memo_cap`: a map plus FIFO
/// insertion order.  Inserting a fresh key at capacity evicts the oldest
/// entry, so memory stays bounded under an unbounded stream of distinct
/// programs while steady-state workloads (a registry's worth of kernels, far
/// below any sane cap) never evict at all.
struct ResponseMemo {
    state: Mutex<MemoState>,
    cap: usize,
}

#[derive(Default)]
struct MemoState {
    map: HashMap<u64, Arc<String>>,
    order: VecDeque<u64>,
}

impl ResponseMemo {
    fn new(cap: usize) -> ResponseMemo {
        ResponseMemo {
            state: Mutex::new(MemoState::default()),
            cap: cap.max(1),
        }
    }

    fn get(&self, key: u64) -> Option<Arc<String>> {
        self.state
            .lock()
            // lint:allow(unwrap-expect): memo state is a plain map+queue; a poisoned lock means a handler panicked and fail-stop is the policy (model-checked in tests/interleave_serve.rs)
            .expect("not poisoned")
            .map
            .get(&key)
            .cloned()
    }

    /// Insert (or refresh) an entry; returns the number of entries evicted
    /// to stay within the cap (0 or 1).
    fn insert(&self, key: u64, tail: Arc<String>) -> u64 {
        // lint:allow(unwrap-expect): memo state is a plain map+queue; a poisoned lock means a handler panicked and fail-stop is the policy (model-checked in tests/interleave_serve.rs)
        let mut st = self.state.lock().expect("not poisoned");
        if st.map.insert(key, tail).is_some() {
            return 0; // refreshed in place; order entry already present
        }
        st.order.push_back(key);
        if st.map.len() <= self.cap {
            return 0;
        }
        while let Some(oldest) = st.order.pop_front() {
            if st.map.remove(&oldest).is_some() {
                return 1;
            }
        }
        0
    }

    fn len(&self) -> usize {
        // lint:allow(unwrap-expect): memo state is a plain map+queue; a poisoned lock means a handler panicked and fail-stop is the policy (model-checked in tests/interleave_serve.rs)
        self.state.lock().expect("not poisoned").map.len()
    }
}

/// The request-handling core: every route, independent of the transport.
/// [`RunningServer`] mounts it behind the HTTP listener threads; tests can
/// drive [`AnalysisService::handle`] directly.
pub struct AnalysisService {
    config: ServeConfig,
    cache: SolveCache,
    /// The kernel registry, materialized once: `soap_kernels::registry()`
    /// constructs all 38 programs, far too much work to redo per request on
    /// the `?kernel=` hot path.
    kernels: Vec<soap_kernels::KernelEntry>,
    responses: ResponseMemo,
    inflight: InFlight<Outcome>,
    gate: Gate,
    counters: Counters,
    shutdown: ShutdownSignal,
}

struct ShutdownSignal {
    requested: Mutex<bool>,
    cond: Condvar,
}

impl AnalysisService {
    /// Build a service: opens the store-backed solve cache when
    /// `config.cache_dir` is set (hydrating prior canonical solutions), a
    /// plain process-local cache otherwise.
    pub fn new(config: ServeConfig) -> io::Result<AnalysisService> {
        let cache = match config.cache_dir.as_deref() {
            Some(dir) => {
                SolveCache::with_store(dir).map_err(|e| io::Error::other(e.to_string()))?
            }
            None => SolveCache::new(),
        };
        Ok(AnalysisService {
            gate: Gate::new(config.analysis_slots, config.queue_capacity),
            responses: ResponseMemo::new(config.memo_cap),
            config,
            cache,
            kernels: soap_kernels::registry(),
            inflight: InFlight::new(),
            counters: Counters::default(),
            shutdown: ShutdownSignal {
                requested: Mutex::new(false),
                cond: Condvar::new(),
            },
        })
    }

    /// Handle one request: route, execute, count.  This is the entire server
    /// behavior; the HTTP layer adds nothing but transport.
    pub fn handle(&self, req: &httpd::Request) -> httpd::Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let resp = self.route(req);
        let class = match resp.status {
            200..=299 => &self.counters.responses_2xx,
            400..=499 => &self.counters.responses_4xx,
            _ => &self.counters.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        resp
    }

    fn route(&self, req: &httpd::Request) -> httpd::Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => httpd::Response::text(200, "ok\n"),
            ("GET", "/stats") => self.stats_response(),
            ("GET", "/kernels") => {
                let names: Vec<serde_json::Value> = self
                    .kernels
                    .iter()
                    .map(|e| serde_json::Value::Str(e.name.to_string()))
                    .collect();
                json_response(
                    200,
                    vec![("kernels".into(), serde_json::Value::Array(names))],
                )
            }
            ("GET" | "POST", "/analyze") => self.analyze(req),
            ("POST", "/flush") => match self.cache.flush_store() {
                Ok(flush) => json_response(
                    200,
                    vec![
                        (
                            "flushed".into(),
                            serde_json::Value::Int(flush.appended as i128),
                        ),
                        (
                            "reports_flushed".into(),
                            serde_json::Value::Int(flush.reports_appended as i128),
                        ),
                    ],
                ),
                Err(e) => error_response(500, &format!("store flush failed: {e}")),
            },
            ("POST", "/shutdown") => {
                self.request_shutdown();
                json_response(
                    200,
                    vec![("shutting_down".into(), serde_json::Value::Bool(true))],
                )
            }
            (_, "/healthz" | "/stats" | "/kernels" | "/analyze" | "/flush" | "/shutdown") => {
                error_response(405, "method not allowed")
            }
            _ => error_response(404, "no such route"),
        }
    }

    /// `/analyze`: resolve the program, dedup, admit, run governed analysis.
    fn analyze(&self, req: &httpd::Request) -> httpd::Response {
        self.counters
            .analyze_requests
            .fetch_add(1, Ordering::Relaxed);
        let (program, injective, name) = match self.resolve_program(req) {
            Ok(triple) => triple,
            Err(resp) => return resp,
        };
        let timeout = match req.query_param("timeout_ms") {
            Some(raw) => match parse_timeout_ms(&raw) {
                Some(d) => Some(d),
                None => {
                    return error_response(
                        400,
                        "timeout_ms expects a positive integer of milliseconds",
                    )
                }
            },
            None => self.config.timeout,
        };
        // The dedup key: renaming-invariant program structure, plus the one
        // option that changes the answer.
        let mut key = canonical_program_hash(&program);
        if injective {
            key ^= 0x9e37_79b9_7f4a_7c15;
        }

        if let Some(tail) = self.memoized(key) {
            self.counters
                .response_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return spliced_response(200, &name, &tail, None);
        }

        // Coalesce: one leader per key; followers share its outcome.  A
        // follower only sees `None` if its leader died without publishing
        // (panic mid-publish); retry once, then report the fault.
        for _ in 0..2 {
            match self.inflight.claim(key) {
                Claim::Follower(Some(outcome)) => {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    return spliced_response(
                        outcome.status,
                        &name,
                        &outcome.tail,
                        outcome.retry_after,
                    );
                }
                Claim::Follower(None) => continue,
                Claim::Leader(guard) => {
                    // Double-check the memo: a previous leader may have
                    // published between our miss and our claim.
                    if let Some(tail) = self.memoized(key) {
                        guard.complete(Outcome {
                            status: 200,
                            retry_after: None,
                            tail: Arc::clone(&tail),
                        });
                        self.counters
                            .response_cache_hits
                            .fetch_add(1, Ordering::Relaxed);
                        return spliced_response(200, &name, &tail, None);
                    }
                    // Deadline starts here: time spent waiting in the
                    // admission queue is time the caller is waiting, so it
                    // counts against the budget.
                    let deadline = timeout.map(Deadline::after);
                    let permit = match self.gate.admit() {
                        Ok(permit) => permit,
                        Err(queued) => {
                            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                            let outcome = Outcome {
                                status: 429,
                                retry_after: Some(self.retry_after_hint(queued)),
                                tail: Arc::new(rejected_tail()),
                            };
                            guard.complete(outcome.clone());
                            return spliced_response(
                                429,
                                &name,
                                &outcome.tail,
                                outcome.retry_after,
                            );
                        }
                    };
                    let outcome = self.run_analysis(key, &program, injective, deadline.as_ref());
                    drop(permit);
                    guard.complete(outcome.clone());
                    return spliced_response(
                        outcome.status,
                        &name,
                        &outcome.tail,
                        outcome.retry_after,
                    );
                }
            }
        }
        error_response(500, "analysis leader failed repeatedly")
    }

    /// `Retry-After` seconds for a 429: the configured base scaled by the
    /// queue depth observed at rejection.  An empty queue (`slots` all busy,
    /// nobody waiting) advertises the base; every waiter ahead of a retry
    /// adds one more base interval, capped at ten minutes.
    fn retry_after_hint(&self, queued: usize) -> u32 {
        let multiplier = (1 + queued).min(u32::MAX as usize) as u32;
        self.config
            .retry_after_secs
            .saturating_mul(multiplier)
            .min(600)
    }

    /// Execute one governed analysis (the leader path) and render its
    /// outcome.  Panics are isolated to a 500 for this request only.
    fn run_analysis(
        &self,
        key: u64,
        program: &soap_ir::Program,
        injective: bool,
        deadline: Option<&Deadline>,
    ) -> Outcome {
        self.counters.analyses.fetch_add(1, Ordering::Relaxed);
        let opts = SdgOptions {
            assume_injective: injective,
            ..SdgOptions::default()
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            analyze_program(program, &opts, &self.cache, deadline)
        }));
        match result {
            Ok(Ok(analysis)) => {
                let tail = Arc::new(analysis_tail(&analysis));
                if analysis.degraded {
                    // A degraded bound is sound but budget-shaped: memoizing
                    // it would freeze one request's deadline into every
                    // future answer, so only complete analyses are cached.
                    self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                } else {
                    let evicted = self.responses.insert(key, Arc::clone(&tail));
                    if evicted > 0 {
                        self.counters
                            .memo_evictions
                            .fetch_add(evicted, Ordering::Relaxed);
                    }
                }
                Outcome {
                    status: 200,
                    retry_after: None,
                    tail,
                }
            }
            Ok(Err(e)) => {
                self.counters
                    .analysis_failures
                    .fetch_add(1, Ordering::Relaxed);
                Outcome {
                    status: 400,
                    retry_after: None,
                    tail: Arc::new(error_tail(&format!("analysis failed: {e}"))),
                }
            }
            Err(_) => Outcome {
                status: 500,
                retry_after: None,
                tail: Arc::new(error_tail("internal: analysis panicked")),
            },
        }
    }

    fn memoized(&self, key: u64) -> Option<Arc<String>> {
        self.responses.get(key)
    }

    /// Resolve the request to `(program, assume_injective, display name)`.
    /// A registry kernel is borrowed, not copied.
    #[allow(clippy::type_complexity)]
    fn resolve_program(
        &self,
        req: &httpd::Request,
    ) -> Result<(Cow<'_, soap_ir::Program>, bool, String), httpd::Response> {
        if let Some(kernel) = req.query_param("kernel") {
            let Some(entry) = self.kernels.iter().find(|e| e.name == kernel) else {
                return Err(error_response(
                    404,
                    &format!("unknown kernel '{kernel}'; GET /kernels lists the registry"),
                ));
            };
            return Ok((
                Cow::Borrowed(&entry.program),
                entry.assume_injective,
                kernel,
            ));
        }
        if req.method != "POST" {
            return Err(error_response(
                400,
                "GET /analyze requires ?kernel=NAME; POST source with ?lang=c|python",
            ));
        }
        if req.body.is_empty() {
            return Err(error_response(
                400,
                "empty body: POST program source with ?lang=c|python",
            ));
        }
        let Some(source) = req.body_utf8() else {
            return Err(error_response(400, "body is not valid UTF-8"));
        };
        let name = req
            .query_param("name")
            .unwrap_or_else(|| "program".to_string());
        let lang = req
            .query_param("lang")
            .unwrap_or_else(|| "python".to_string());
        let injective = match req.query_param("injective").as_deref() {
            None => false,
            Some("1" | "true") => true,
            Some("0" | "false") => false,
            Some(other) => {
                return Err(error_response(
                    400,
                    &format!("injective expects 1|0|true|false, got '{other}'"),
                ))
            }
        };
        let parsed = match lang.as_str() {
            "c" => soap_frontend::parse_c(&name, source),
            "python" | "py" => soap_frontend::parse_python(&name, source),
            other => {
                return Err(error_response(
                    400,
                    &format!("unknown language '{other}' (expected c or python)"),
                ))
            }
        };
        match parsed {
            Ok(program) => Ok((Cow::Owned(program), injective, name)),
            Err(e) => Err(error_response(400, &format!("parse error: {e}"))),
        }
    }

    /// `GET /stats`: the numbers an operator (or the load harness) watches.
    fn stats_response(&self) -> httpd::Response {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let analyze_requests = load(&c.analyze_requests);
        let deduped = load(&c.response_cache_hits) + load(&c.coalesced);
        let dedup_ratio = if analyze_requests == 0 {
            0.0
        } else {
            deduped as f64 / analyze_requests as f64
        };
        let depth = self.gate.depth();
        let mut fields: Vec<(String, serde_json::Value)> = vec![
            ("requests".into(), int(load(&c.requests))),
            ("analyze_requests".into(), int(analyze_requests)),
            ("analyses".into(), int(load(&c.analyses))),
            ("analysis_failures".into(), int(load(&c.analysis_failures))),
            ("degraded".into(), int(load(&c.degraded))),
            (
                "response_cache_hits".into(),
                int(load(&c.response_cache_hits)),
            ),
            ("coalesced".into(), int(load(&c.coalesced))),
            ("memo_evictions".into(), int(load(&c.memo_evictions))),
            ("rejected".into(), int(load(&c.rejected))),
            ("responses_2xx".into(), int(load(&c.responses_2xx))),
            ("responses_4xx".into(), int(load(&c.responses_4xx))),
            ("responses_5xx".into(), int(load(&c.responses_5xx))),
            ("dedup_ratio".into(), serde_json::Value::Float(dedup_ratio)),
            (
                "response_cache_entries".into(),
                int(self.responses.len() as u64),
            ),
            ("response_cache_cap".into(), int(self.responses.cap as u64)),
            ("inflight".into(), int(self.inflight.len() as u64)),
            (
                "queue".into(),
                serde_json::Value::Object(vec![
                    ("running".into(), int(depth.running as u64)),
                    ("queued".into(), int(depth.queued as u64)),
                    ("slots".into(), int(self.gate.slots as u64)),
                    ("queue_capacity".into(), int(self.gate.queue as u64)),
                ]),
            ),
            (
                "solve_cache".into(),
                serde_json::to_value(&self.cache.stats()),
            ),
        ];
        if let Some(loaded) = self.cache.store_load_stats() {
            let mut store_fields = vec![
                ("hydrated_entries".into(), int(loaded.entries as u64)),
                ("segments".into(), int(loaded.segments as u64)),
            ];
            if let Some(reports) = self.cache.report_load_stats() {
                store_fields.push(("hydrated_reports".into(), int(reports.entries as u64)));
                store_fields.push(("report_segments".into(), int(reports.segments as u64)));
            }
            fields.push(("store".into(), serde_json::Value::Object(store_fields)));
        }
        json_response(200, fields)
    }

    /// Signal graceful shutdown; [`RunningServer::wait_for_shutdown`] wakes.
    pub fn request_shutdown(&self) {
        // lint:allow(unwrap-expect): shutdown flag holders only read or set a bool; they cannot panic while holding it
        *self.shutdown.requested.lock().expect("not poisoned") = true;
        self.shutdown.cond.notify_all();
    }

    /// True once a shutdown was requested.
    pub fn shutdown_requested(&self) -> bool {
        // lint:allow(unwrap-expect): shutdown flag holders only read or set a bool; they cannot panic while holding it
        *self.shutdown.requested.lock().expect("not poisoned")
    }

    /// Block until a shutdown is requested.
    pub fn wait_for_shutdown(&self) {
        // lint:allow(unwrap-expect): shutdown flag holders only read or set a bool; they cannot panic while holding it
        let mut requested = self.shutdown.requested.lock().expect("not poisoned");
        while !*requested {
            // lint:allow(unwrap-expect): shutdown flag holders only read or set a bool; they cannot panic while holding it
            requested = self.shutdown.cond.wait(requested).expect("not poisoned");
        }
    }

    /// Flush newly solved canonical solutions to the store (no-op without a
    /// store).  Returns the number of appended records.
    pub fn flush(&self) -> Result<usize, String> {
        self.cache
            .flush_store()
            .map(|f| f.appended)
            .map_err(|e| e.to_string())
    }

    /// The store directory, when store-backed.
    pub fn cache_dir(&self) -> Option<&str> {
        self.config.cache_dir.as_deref()
    }
}

fn int(v: u64) -> serde_json::Value {
    serde_json::Value::Int(v as i128)
}

/// Serialize an object and strip the opening `{`: the stored "tail" of a
/// response whose `program` field gets spliced in per request.
fn object_tail(fields: Vec<(String, serde_json::Value)>) -> String {
    // lint:allow(unwrap-expect): the JSON value is a finite map of strings and numbers; serialization cannot fail
    let s = serde_json::to_string(&serde_json::Value::Object(fields)).expect("serializable");
    s[1..].to_string()
}

/// The success record for one analysis, minus the `program` field.  Layout
/// mirrors `soap-cli batch` per-program records (bound, per-array ρ/σ, notes,
/// degradation accounting) without the order/time-dependent fields — the tail
/// is memoized, so it must be a pure function of program structure.
fn analysis_tail(analysis: &ProgramAnalysis) -> String {
    let mut fields: Vec<(String, serde_json::Value)> = vec![
        ("ok".into(), serde_json::Value::Bool(true)),
        (
            "bound".into(),
            serde_json::Value::Str(format!("{}", analysis.bound)),
        ),
        (
            "per_array".into(),
            serde_json::Value::Array(
                analysis
                    .per_array
                    .iter()
                    .map(|a| {
                        serde_json::Value::Object(vec![
                            ("array".into(), serde_json::Value::Str(a.array.clone())),
                            ("rho".into(), serde_json::Value::Str(format!("{}", a.rho))),
                            (
                                "sigma".into(),
                                serde_json::Value::Str(format!("{}", a.sigma)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("notes".into(), serde_json::to_value(&analysis.notes)),
    ];
    if analysis.degraded {
        fields.push(("degraded".into(), serde_json::Value::Bool(true)));
        fields.push((
            "subgraphs_cancelled".into(),
            serde_json::to_value(&analysis.solver.cancelled),
        ));
        fields.push((
            "arrays_deferred".into(),
            serde_json::to_value(&analysis.arrays_deferred),
        ));
    }
    object_tail(fields)
}

fn error_tail(message: &str) -> String {
    object_tail(vec![
        ("ok".into(), serde_json::Value::Bool(false)),
        ("error".into(), serde_json::Value::Str(message.to_string())),
    ])
}

fn rejected_tail() -> String {
    object_tail(vec![
        ("ok".into(), serde_json::Value::Bool(false)),
        (
            "error".into(),
            serde_json::Value::Str("queue full: retry later".to_string()),
        ),
    ])
}

/// Splice the caller's program name into a stored tail:
/// `{"program":<name>,` + tail.  One small allocation per response — this is
/// what lets memoized/coalesced answers skip serialization entirely.
fn spliced_response(
    status: u16,
    name: &str,
    tail: &str,
    retry_after: Option<u32>,
) -> httpd::Response {
    let escaped = serde_json::to_string(&serde_json::Value::Str(name.to_string()))
        // lint:allow(unwrap-expect): the JSON value is a finite map of strings and numbers; serialization cannot fail
        .expect("string serializes");
    let body = format!("{{\"program\":{escaped},{}", tail);
    let resp = httpd::Response::json(status, body);
    match retry_after {
        Some(secs) => resp.with_header("retry-after", &secs.to_string()),
        None => resp,
    }
}

fn json_response(status: u16, fields: Vec<(String, serde_json::Value)>) -> httpd::Response {
    let body =
        // lint:allow(unwrap-expect): the JSON value is a finite map of strings and numbers; serialization cannot fail
        serde_json::to_string(&serde_json::Value::Object(fields)).expect("serializable") + "\n";
    httpd::Response::json(status, body)
}

fn error_response(status: u16, message: &str) -> httpd::Response {
    json_response(
        status,
        vec![
            ("ok".into(), serde_json::Value::Bool(false)),
            ("error".into(), serde_json::Value::Str(message.to_string())),
        ],
    )
}

/// A live daemon: the HTTP listeners plus the shared [`AnalysisService`].
pub struct RunningServer {
    http: httpd::Server,
    service: Arc<AnalysisService>,
}

impl RunningServer {
    /// Bind and start serving.  Returns once the socket is listening.
    pub fn start(config: ServeConfig) -> io::Result<RunningServer> {
        let http_threads = config.http_threads.max(1);
        let addr = config.addr.clone();
        let service = Arc::new(AnalysisService::new(config)?);
        let handler_service = Arc::clone(&service);
        let http = httpd::Server::serve(
            &addr,
            http_threads,
            Arc::new(move |req: &httpd::Request| handler_service.handle(req)),
        )?;
        Ok(RunningServer { http, service })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The shared service, e.g. to inspect counters in tests.
    pub fn service(&self) -> &Arc<AnalysisService> {
        &self.service
    }

    /// Block until `POST /shutdown` (or [`AnalysisService::request_shutdown`]).
    pub fn wait_for_shutdown(&self) {
        self.service.wait_for_shutdown();
    }

    /// Graceful stop: stop accepting, finish in-flight requests, flush the
    /// store.  Returns the number of canonical solutions persisted.
    pub fn stop(self) -> Result<usize, String> {
        self.http.stop();
        self.service.flush()
    }

    /// Programmatic shutdown trigger (same as `POST /shutdown`).
    pub fn shutdown_now(&self) {
        self.service.request_shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, query: Option<&str>, body: &[u8]) -> httpd::Request {
        httpd::Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.map(str::to_string),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    fn service() -> AnalysisService {
        AnalysisService::new(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .expect("service")
    }

    #[test]
    fn health_kernels_and_routing() {
        let svc = service();
        assert_eq!(
            svc.handle(&request("GET", "/healthz", None, b"")).status,
            200
        );
        let kernels = svc.handle(&request("GET", "/kernels", None, b""));
        assert_eq!(kernels.status, 200);
        assert!(kernels.body_utf8().unwrap().contains("\"atax\""));
        assert_eq!(svc.handle(&request("GET", "/nope", None, b"")).status, 404);
        assert_eq!(
            svc.handle(&request("PUT", "/healthz", None, b"")).status,
            405
        );
        assert_eq!(svc.handle(&request("GET", "/flush", None, b"")).status, 405);
    }

    #[test]
    fn kernel_analysis_and_response_memoization() {
        let svc = service();
        let r1 = svc.handle(&request("GET", "/analyze", Some("kernel=atax"), b""));
        assert_eq!(r1.status, 200, "{:?}", r1.body_utf8());
        let body = r1.body_utf8().unwrap();
        assert!(body.starts_with("{\"program\":\"atax\","), "{body}");
        assert!(body.contains("\"ok\":true"));
        assert!(body.contains("\"bound\""));
        // Second request: answered from the memo, byte-identical.
        let r2 = svc.handle(&request("GET", "/analyze", Some("kernel=atax"), b""));
        assert_eq!(r2.body_utf8().unwrap(), body);
        assert_eq!(svc.counters.analyses.load(Ordering::Relaxed), 1);
        assert_eq!(svc.counters.response_cache_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn renamed_source_hits_the_same_memo_entry() {
        let svc = service();
        let src_a =
            "for i in range(0, N):\n    for j in range(0, N):\n        C[i] += A[i][j] * B[j]\n";
        let src_b =
            "for q in range(0, N):\n    for r in range(0, N):\n        C[q] += A[q][r] * B[r]\n";
        let r1 = svc.handle(&request(
            "POST",
            "/analyze",
            Some("lang=python&name=first"),
            src_a.as_bytes(),
        ));
        assert_eq!(r1.status, 200, "{:?}", r1.body_utf8());
        let r2 = svc.handle(&request(
            "POST",
            "/analyze",
            Some("lang=python&name=second"),
            src_b.as_bytes(),
        ));
        assert_eq!(r2.status, 200);
        assert_eq!(svc.counters.analyses.load(Ordering::Relaxed), 1);
        assert_eq!(svc.counters.response_cache_hits.load(Ordering::Relaxed), 1);
        // Same payload, different spliced name.
        let b1 = r1.body_utf8().unwrap();
        let b2 = r2.body_utf8().unwrap();
        assert!(b1.starts_with("{\"program\":\"first\","));
        assert!(b2.starts_with("{\"program\":\"second\","));
        assert_eq!(b1.split_once(',').unwrap().1, b2.split_once(',').unwrap().1);
    }

    #[test]
    fn client_mistakes_are_4xx() {
        let svc = service();
        // Unknown kernel.
        let r = svc.handle(&request(
            "GET",
            "/analyze",
            Some("kernel=not-a-kernel"),
            b"",
        ));
        assert_eq!(r.status, 404);
        // GET without kernel.
        assert_eq!(
            svc.handle(&request("GET", "/analyze", None, b"")).status,
            400
        );
        // Empty body.
        assert_eq!(
            svc.handle(&request("POST", "/analyze", Some("lang=python"), b""))
                .status,
            400
        );
        // Non-UTF-8 body.
        assert_eq!(
            svc.handle(&request(
                "POST",
                "/analyze",
                Some("lang=python"),
                &[0xff, 0xfe, 0x01]
            ))
            .status,
            400
        );
        // Malformed source.
        let r = svc.handle(&request(
            "POST",
            "/analyze",
            Some("lang=python"),
            b"this is not a loop nest",
        ));
        assert_eq!(r.status, 400);
        assert!(r.body_utf8().unwrap().contains("parse error"));
        // Bad language / bad params.
        assert_eq!(
            svc.handle(&request("POST", "/analyze", Some("lang=fortran"), b"x"))
                .status,
            400
        );
        assert_eq!(
            svc.handle(&request(
                "GET",
                "/analyze",
                Some("kernel=atax&timeout_ms=zero"),
                b""
            ))
            .status,
            400
        );
        assert_eq!(svc.counters.responses_5xx.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn gate_saturation_rejects_with_retry_after() {
        let svc = AnalysisService::new(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            analysis_slots: 1,
            queue_capacity: 0,
            ..ServeConfig::default()
        })
        .expect("service");
        // Deterministic saturation: hold the only slot directly, then ask
        // for an analysis.
        let permit = svc.gate.admit().expect("first permit");
        let r = svc.handle(&request("GET", "/analyze", Some("kernel=gemm"), b""));
        assert_eq!(r.status, 429, "{:?}", r.body_utf8());
        assert_eq!(r.header("retry-after"), Some("1"));
        assert!(r.body_utf8().unwrap().contains("queue full"));
        assert_eq!(svc.counters.rejected.load(Ordering::Relaxed), 1);
        drop(permit);
        // Slot free again: the same request now succeeds.
        let r = svc.handle(&request("GET", "/analyze", Some("kernel=gemm"), b""));
        assert_eq!(r.status, 200);
    }

    #[test]
    fn gate_queues_up_to_capacity_and_rejects_beyond() {
        let gate = Gate::new(1, 1);
        let p1 = gate.admit().expect("slot");
        let gate_ref: &'static Gate = Box::leak(Box::new(Gate::new(1, 1)));
        let q1 = gate_ref.admit().expect("slot");
        let waiter = std::thread::spawn(move || gate_ref.admit().map(drop).is_ok());
        // Give the waiter time to enter the queue, then the queue is full.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(gate_ref.admit().err(), Some(1), "queue slot already taken");
        drop(q1);
        assert!(waiter.join().unwrap(), "queued request runs after release");
        drop(p1);
        assert!(gate.admit().is_ok());
    }

    #[test]
    fn retry_after_scales_with_queue_depth() {
        let svc = Arc::new(
            AnalysisService::new(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                analysis_slots: 1,
                queue_capacity: 2,
                ..ServeConfig::default()
            })
            .expect("service"),
        );
        // Deterministic saturation: hold the only slot, then park two
        // waiters in the queue so a rejection observes depth 2.
        let permit = svc.gate.admit().expect("slot");
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&svc);
                std::thread::spawn(move || drop(s.gate.admit()))
            })
            .collect();
        while svc.gate.depth().queued < 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let r = svc.handle(&request("GET", "/analyze", Some("kernel=gemm"), b""));
        assert_eq!(r.status, 429, "{:?}", r.body_utf8());
        // Base 1s × (1 + 2 queued): a deeper queue advertises a longer
        // back-off than the empty-queue "1".
        assert_eq!(r.header("retry-after"), Some("3"));
        drop(permit);
        for w in waiters {
            w.join().expect("waiter exits");
        }
    }

    #[test]
    fn memo_is_bounded_with_fifo_eviction() {
        let svc = AnalysisService::new(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            memo_cap: 3,
            ..ServeConfig::default()
        })
        .expect("service");
        // Eight structurally distinct programs (the array name feeds the
        // canonical hash) — more than twice the cap.
        let programs: Vec<String> = (0..8)
            .map(|i| format!("for i in range(0, N):\n    B{i}[i] = A{i}[i] + 1\n"))
            .collect();
        let mut bodies = Vec::new();
        for (i, src) in programs.iter().enumerate() {
            let r = svc.handle(&request(
                "POST",
                "/analyze",
                Some(&format!("lang=python&name=p{i}")),
                src.as_bytes(),
            ));
            assert_eq!(r.status, 200, "{:?}", r.body_utf8());
            bodies.push(r.body_utf8().unwrap().to_string());
        }
        // The map never grew past the cap, and the overflow was counted.
        assert_eq!(svc.responses.len(), 3);
        assert_eq!(svc.counters.memo_evictions.load(Ordering::Relaxed), 5);
        // Evicted programs still answer correctly — they just re-analyze.
        let analyses_before = svc.counters.analyses.load(Ordering::Relaxed);
        let r = svc.handle(&request(
            "POST",
            "/analyze",
            Some("lang=python&name=p0"),
            programs[0].as_bytes(),
        ));
        assert_eq!(r.status, 200);
        assert_eq!(r.body_utf8().unwrap(), bodies[0]);
        assert_eq!(
            svc.counters.analyses.load(Ordering::Relaxed),
            analyses_before + 1,
            "p0 was evicted, so it re-analyzes"
        );
        // The freshest entries are still memoized.
        let hits_before = svc.counters.response_cache_hits.load(Ordering::Relaxed);
        let r = svc.handle(&request(
            "POST",
            "/analyze",
            Some("lang=python&name=p7"),
            programs[7].as_bytes(),
        ));
        assert_eq!(r.status, 200);
        assert_eq!(r.body_utf8().unwrap(), bodies[7]);
        assert_eq!(
            svc.counters.response_cache_hits.load(Ordering::Relaxed),
            hits_before + 1
        );
    }

    #[test]
    fn stats_expose_dedup_and_queue() {
        let svc = service();
        svc.handle(&request("GET", "/analyze", Some("kernel=atax"), b""));
        svc.handle(&request("GET", "/analyze", Some("kernel=atax"), b""));
        let stats = svc.handle(&request("GET", "/stats", None, b""));
        assert_eq!(stats.status, 200);
        let v: serde_json::Value = serde_json::from_str(stats.body_utf8().unwrap()).unwrap();
        assert_eq!(v.get("analyses").and_then(|x| x.as_i128()), Some(1));
        assert_eq!(
            v.get("response_cache_hits").and_then(|x| x.as_i128()),
            Some(1)
        );
        assert!(v.get("dedup_ratio").is_some());
        assert!(v.get("queue").and_then(|q| q.get("slots")).is_some());
        assert!(v.get("solve_cache").and_then(|c| c.get("hits")).is_some());
    }

    #[test]
    fn shutdown_signal_wakes_waiters() {
        let svc = Arc::new(service());
        let waiter_svc = Arc::clone(&svc);
        let waiter = std::thread::spawn(move || waiter_svc.wait_for_shutdown());
        let r = svc.handle(&request("POST", "/shutdown", None, b""));
        assert_eq!(r.status, 200);
        assert!(svc.shutdown_requested());
        waiter.join().expect("waiter exits");
    }

    #[test]
    fn name_with_quotes_is_escaped() {
        let svc = service();
        let src = "for i in range(0, N):\n    B[i] = A[i]\n";
        let r = svc.handle(&request(
            "POST",
            "/analyze",
            Some("lang=python&name=we%22ird"),
            src.as_bytes(),
        ));
        assert_eq!(r.status, 200);
        let body = r.body_utf8().unwrap();
        assert!(body.starts_with("{\"program\":\"we\\\"ird\","), "{body}");
        // Still valid JSON.
        let v: Result<serde_json::Value, _> = serde_json::from_str(body);
        assert!(v.is_ok());
    }
}

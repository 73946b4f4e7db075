//! `serve-hot` and `serve-churn`: the `soap-serve` daemon in-process, driven
//! over loopback TCP by at most `nproc` sender threads, one keep-alive
//! connection each.
//!
//! * `serve-hot` — closed loop.  The memo is warmed in set-up with every
//!   request of the pool, so each timed request is a memo hit: `GET
//!   /analyze?kernel=` over the registry, and `POST`s (both dialects) of
//!   seeded loop-variable renamings of the registry structures the printer
//!   round-trips.
//! * `serve-churn` — open loop at a fixed offered rate with seeded
//!   exponential inter-arrivals, over a daemon that hydrates a pre-populated
//!   store at start.  Requests are fresh program identities (prefixed array
//!   names) over registry structures, brand-new random structures, and
//!   repeats of earlier requests (some after memo eviction).  The memo cap
//!   is far below the distinct program count and there is one analysis slot
//!   for two connections, so requests wait at the admission gate.

use crate::gen::{self, Dialect};
use crate::oracle::{Expected, Verified};
use crate::trace::{daemon_memo_key, Replay, Span, Spans};
use crate::util::{
    median, ms, peak_rss_mb, percentile, reset_peak_rss, sorted, summarize, Marks, Metrics,
    Outcome, Rng, Summary,
};
use crate::{Args, Workload};
use soap_ir::Program;
use soap_sdg::{
    analyze_program_with_cache, analyze_suite_with, set_worker_budget, worker_budget, SdgOptions,
    SolveCache, SolveStore, SuiteProgram,
};
use soap_serve::{AnalysisService, RunningServer, ServeConfig};
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// serve-churn's offered rate (requests per second): about a sixth of the
/// daemon's capacity on this workload at the commit that defined the
/// benchmark (1360–1780 req/s under overload on a 2-core VM, one analysis
/// slot, two connections).  At a quarter or more, a slow spell of the host
/// pushed the queue towards saturation and the latency spread between runs
/// past its bound.
pub const CHURN_RATE: f64 = 250.0;
/// serve-churn's fresh identities use registry structures with at most this
/// many connected subgraphs.
const CHURN_MAX_SUBGRAPHS: usize = 24;
/// serve-churn's memo capacity, far below the run's distinct programs.
const CHURN_MEMO_CAP: usize = 256;
/// Request classes of serve-churn, dealt in shuffled blocks so every seed
/// has the same mix in a different order: per block of 20, 3 repeats of an
/// earlier request, 2 brand-new structures and 15 fresh identities.
const CHURN_BLOCK: [Draw; 20] = {
    let mut b = [Draw::Fresh; 20];
    b[0] = Draw::Repeat;
    b[1] = Draw::Repeat;
    b[2] = Draw::Repeat;
    b[3] = Draw::New;
    b[4] = Draw::New;
    b
};

#[derive(Clone, Copy)]
enum Draw {
    Repeat,
    New,
    Fresh,
}
/// Store pre-population: prefixed copies of every registry structure plus
/// random programs, enough that hydration is a visible part of start-up.
const STORE_COPIES: usize = 12;
const STORE_RANDOM: usize = 200;
/// serve-hot pool: renamings per round-tripping registry structure.
const HOT_VARIANTS: usize = 8;
/// Daemon starts per run (serve-hot, serve-churn); `setup_s` is their
/// median.
const SETUP_REPEATS: [usize; 2] = [51, 15];
/// Latencies kept per sender (pre-touched, so peak RSS does not depend on
/// how many requests a run completes; further requests are still counted).
const LAT_CAP: usize = 1 << 19;
/// Sub-window length in seconds for the end-to-end medians (see
/// `util::summarize`): 2 s holds at least 15 samples beyond p99.
const SUB_WINDOW_S: f64 = 2.0;
/// Replayed requests at most, per traced run.
const REPLAY_CAP: usize = 20_000;

/// Why a request is in the stream, as the generator planned it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    MemoHit,
    Fresh,
    NewStructure,
    RepeatEvicted,
}

struct Request {
    /// `GET /analyze?kernel=NAME` when set; otherwise a POST of `body`.
    kernel: Option<usize>,
    dialect: Dialect,
    body: String,
    name: String,
    /// The registry's injectivity flag of a `GET` kernel, which the daemon
    /// applies itself (it feeds the replay's memo key); POSTs never set it.
    injective: bool,
    /// Index of the expected answer (one per distinct program).
    expect: usize,
    class: Class,
}

impl Request {
    fn send(
        &self,
        client: &mut httpd::Client,
        bid: Option<u64>,
    ) -> std::io::Result<httpd::Response> {
        let tag = bid.map(|b| format!("&bid={b}")).unwrap_or_default();
        match self.kernel {
            Some(_) => client.get(&format!("/analyze?kernel={}{tag}", self.name)),
            None => client.post(
                &format!(
                    "/analyze?lang={}&name={}{tag}",
                    self.dialect.lang(),
                    self.name
                ),
                "text/plain",
                self.body.as_bytes(),
            ),
        }
    }
}

/// Everything a serve run needs, built before any clock starts.
struct Plan {
    workload: Workload,
    kernels: Vec<soap_kernels::KernelEntry>,
    requests: Vec<Request>,
    /// serve-hot: the pool split (`requests[..gets]` are GETs).
    gets: usize,
    /// serve-churn: due time of each request, seconds from the window start.
    due_s: Vec<f64>,
    expected: Vec<Expected>,
    config: ServeConfig,
    /// serve-churn: the pre-populated store every daemon start copies.
    pristine: Option<PathBuf>,
}

/// Registry structures the printer round-trips in both dialects (and that
/// need no injectivity flag): the structures POSTed as source.
fn structures(kernels: &[soap_kernels::KernelEntry]) -> Vec<usize> {
    (0..kernels.len())
        .filter(|&k| {
            let p = &kernels[k].program;
            !kernels[k].assume_injective
                && [Dialect::Python, Dialect::C]
                    .iter()
                    .all(|&d| gen::round_trips(p, d, &gen::print(p, d)))
        })
        .collect()
}

fn opts(injective: bool) -> SdgOptions {
    SdgOptions {
        assume_injective: injective,
        ..SdgOptions::default()
    }
}

/// Reference answers for `programs`, analysed in process on a private cache
/// in chunks (bounded memory), checked to be complete (never degraded).
fn references(programs: &[(Program, bool)]) -> Result<Vec<Expected>, String> {
    let cache = SolveCache::new();
    let mut out = Vec::with_capacity(programs.len());
    for chunk in programs.chunks(256) {
        let jobs: Vec<SuiteProgram> = chunk
            .iter()
            .map(|(p, inj)| SuiteProgram::new(p.clone(), opts(*inj)))
            .collect();
        for report in analyze_suite_with(&jobs, &cache).reports {
            match report.outcome {
                Ok(a) if !a.degraded => out.push(Expected::of(&a)),
                Ok(_) => return Err(format!("setup: {} analysed degraded", report.name)),
                Err(e) => return Err(format!("setup: {} failed to analyse: {e}", report.name)),
            }
        }
    }
    Ok(out)
}

/// A POSTed program: printed in `dialect`, and checked to parse back to
/// exactly `program`.
fn post(
    program: &Program,
    dialect: Dialect,
    expect: usize,
    class: Class,
) -> Result<Request, String> {
    let body = gen::print(program, dialect);
    if !gen::round_trips(program, dialect, &body) {
        return Err(format!(
            "setup: generated {} does not round-trip through {}",
            program.name,
            dialect.lang()
        ));
    }
    Ok(Request {
        kernel: None,
        dialect,
        body,
        name: program.name.clone(),
        injective: false,
        expect,
        class,
    })
}

fn hot_plan(args: &Args) -> Result<Plan, String> {
    let kernels = soap_kernels::registry();
    let mut rng = Rng::derive(args.seed, 2);
    let programs: Vec<(Program, bool)> = kernels
        .iter()
        .map(|k| (k.program.clone(), k.assume_injective))
        .collect();
    let expected = references(&programs)?;
    let mut requests: Vec<Request> = kernels
        .iter()
        .enumerate()
        .map(|(k, e)| Request {
            kernel: Some(k),
            dialect: Dialect::Python,
            body: String::new(),
            name: e.name.to_string(),
            injective: e.assume_injective,
            expect: k,
            class: Class::MemoHit,
        })
        .collect();
    let gets = requests.len();
    for k in structures(&kernels) {
        for _ in 0..HOT_VARIANTS {
            let renamed = gen::rename_loops(&kernels[k].program, &mut rng);
            let mut req = post(&renamed, Dialect::pick(&mut rng), k, Class::MemoHit)?;
            req.name = kernels[k].name.to_string();
            requests.push(req);
        }
    }
    Ok(Plan {
        workload: Workload::ServeHot,
        kernels,
        requests,
        gets,
        due_s: Vec::new(),
        expected,
        config: ServeConfig::default(),
        pristine: None,
    })
}

/// A random program that round-trips and analyses (rejection-sampled, so
/// still a pure function of the generator state).
fn random_structure(rng: &mut Rng, name: &str, prefix: &str) -> Program {
    let check = SolveCache::new();
    loop {
        let Some(p) = gen::random_program(rng, name, prefix) else {
            continue;
        };
        let trips = [Dialect::Python, Dialect::C]
            .iter()
            .all(|&d| gen::round_trips(&p, d, &gen::print(&p, d)));
        let complete = analyze_program_with_cache(&p, &opts(false), &check)
            .is_ok_and(|a| !a.degraded && !a.per_array.is_empty());
        if trips && complete {
            return p;
        }
    }
}

fn churn_plan(args: &Args, work: &Path) -> Result<Plan, String> {
    let kernels = soap_kernels::registry();
    // Fresh identities draw from the cheaper structures only: one heavy
    // structure in the mix (bert-encoder enumerates hundreds of subgraphs)
    // would set the queue, and the run-to-run spread with it.
    let pool: Vec<usize> = structures(&kernels)
        .into_iter()
        .filter(|&k| {
            let sdg = soap_sdg::Sdg::from_program(&kernels[k].program);
            let o = opts(false);
            soap_sdg::enumerate_connected_subgraphs(&sdg, o.max_subgraph_size, o.max_subgraphs)
                .subgraphs
                .len()
                <= CHURN_MAX_SUBGRAPHS
        })
        .collect();
    let mut rng = Rng::derive(args.seed, 3);

    // The pre-populated store: the registry, prefixed copies of its
    // structures (distinct report identities), and random programs.
    let pristine = work.join("pristine");
    {
        let cache = SolveCache::with_store(&pristine).map_err(|e| format!("store: {e}"))?;
        let mut jobs: Vec<SuiteProgram> = kernels.iter().map(soap_bench::suite_program).collect();
        for c in 0..STORE_COPIES {
            for &k in &pool {
                let p = gen::prefix_arrays(&kernels[k].program, &format!("s{c}_"));
                jobs.push(SuiteProgram::new(p, opts(false)));
            }
        }
        for r in 0..STORE_RANDOM {
            let p = random_structure(&mut rng, &format!("sr{r}"), &format!("sr{r}_"));
            jobs.push(SuiteProgram::new(p, opts(false)));
        }
        for chunk in jobs.chunks(256) {
            analyze_suite_with(chunk, &cache);
        }
        cache
            .flush_store()
            .map_err(|e| format!("store flush: {e}"))?;
    }

    // The stream, with the daemon's FIFO memo simulated to label repeats.
    let window = args.window().as_secs_f64();
    let mut requests: Vec<Request> = Vec::new();
    let mut due_s = Vec::new();
    let mut distinct: Vec<(Program, bool)> = Vec::new();
    let mut memo: VecDeque<usize> = VecDeque::new();
    let (mut block, mut deck): (Vec<Draw>, Vec<usize>) = (Vec::new(), Vec::new());
    let mut t = 0.0;
    while t < window {
        t += rng.exp_secs(CHURN_RATE);
        due_s.push(t);
        let i = requests.len();
        if block.is_empty() {
            block = CHURN_BLOCK.to_vec();
            rng.shuffle(&mut block);
        }
        let draw = block.pop().expect("refilled above");
        let req = if matches!(draw, Draw::Repeat) && !requests.is_empty() {
            // Half the repeats are recent (likely still memoised), half are
            // drawn from the whole history (likely evicted).
            let j = if rng.chance(0.5) {
                i - 1 - rng.below(i.min(32))
            } else {
                rng.below(i)
            };
            let prev = &requests[j];
            let class = if memo.contains(&prev.expect) {
                Class::MemoHit
            } else {
                Class::RepeatEvicted
            };
            Request {
                kernel: None,
                dialect: prev.dialect,
                body: prev.body.clone(),
                name: prev.name.clone(),
                injective: false,
                expect: prev.expect,
                class,
            }
        } else {
            let (program, class) = if matches!(draw, Draw::New) {
                let p = random_structure(&mut rng, &format!("n{i}"), &format!("n{i}_"));
                (p, Class::NewStructure)
            } else {
                // Structures are dealt from a shuffled deck, so every seed
                // sends each structure equally often.
                if deck.is_empty() {
                    deck = pool.clone();
                    rng.shuffle(&mut deck);
                }
                let k = deck.pop().expect("refilled above");
                let mut p = gen::prefix_arrays(&kernels[k].program, &format!("f{i}_"));
                p.name = format!("f{i}");
                (gen::rename_loops(&p, &mut rng), Class::Fresh)
            };
            let req = post(&program, Dialect::pick(&mut rng), distinct.len(), class)?;
            distinct.push((program, false));
            req
        };
        if !memo.contains(&req.expect) {
            memo.push_back(req.expect);
            if memo.len() > CHURN_MEMO_CAP {
                memo.pop_front();
            }
        }
        requests.push(req);
    }
    let expected = references(&distinct)?;
    Ok(Plan {
        workload: Workload::ServeChurn,
        kernels,
        requests,
        gets: 0,
        due_s,
        expected,
        config: ServeConfig {
            memo_cap: CHURN_MEMO_CAP,
            analysis_slots: 1,
            queue_capacity: 64,
            ..ServeConfig::default()
        },
        pristine: Some(pristine),
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let dest = to.join(path.file_name().expect("a file has a name"));
            std::fs::copy(&path, &dest).map_err(|e| format!("{}: {e}", dest.display()))?;
        }
    }
    Ok(())
}

/// The daemon's configuration for one start: ephemeral port, one HTTP
/// thread per connection, and (serve-churn) a fresh copy of the store.
fn config(plan: &Plan, conns: usize, work: &Path, tag: &str) -> Result<ServeConfig, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        http_threads: conns,
        ..plan.config.clone()
    };
    if let Some(pristine) = &plan.pristine {
        let dir = work.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(pristine, &dir)?;
        config.cache_dir = Some(dir.to_string_lossy().into_owned());
    }
    Ok(config)
}

/// Wait for the first `200` from `/healthz`.
fn healthy(addr: std::net::SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = httpd::Client::connect(addr) {
            if c.get("/healthz").is_ok_and(|r| r.status == 200) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("daemon never became healthy".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A daemon under test: the stock `RunningServer`, or (traced run) the
/// same `AnalysisService` mounted in a benchmark-composed `httpd::Server`
/// whose handler records the time spent in `AnalysisService::handle`.
enum Daemon {
    Stock(RunningServer),
    Traced {
        http: httpd::Server,
        service: Arc<AnalysisService>,
        handles: Arc<Mutex<Vec<(u64, f64)>>>,
    },
}

impl Daemon {
    fn start(config: ServeConfig, traced: bool) -> Result<Daemon, String> {
        if !traced {
            return RunningServer::start(config)
                .map(Daemon::Stock)
                .map_err(|e| format!("daemon start: {e}"));
        }
        let threads = config.http_threads;
        let addr = config.addr.clone();
        let service = Arc::new(AnalysisService::new(config).map_err(|e| e.to_string())?);
        let handles: Arc<Mutex<Vec<(u64, f64)>>> = Arc::default();
        let (svc, log) = (Arc::clone(&service), Arc::clone(&handles));
        let http = httpd::Server::serve(
            &addr,
            threads,
            Arc::new(move |req: &httpd::Request| {
                let t = Instant::now();
                let resp = svc.handle(req);
                let us = t.elapsed().as_secs_f64() * 1e6;
                if let Some(bid) = req.query_param("bid").and_then(|b| b.parse().ok()) {
                    log.lock().expect("handle log lock").push((bid, us));
                }
                resp
            }),
        )
        .map_err(|e| format!("daemon start: {e}"))?;
        Ok(Daemon::Traced {
            http,
            service,
            handles,
        })
    }

    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Daemon::Stock(s) => s.addr(),
            Daemon::Traced { http, .. } => http.local_addr(),
        }
    }

    fn service(&self) -> &Arc<AnalysisService> {
        match self {
            Daemon::Stock(s) => s.service(),
            Daemon::Traced { service, .. } => service,
        }
    }

    /// `/stats`, read in process (no extra connection in the load).
    fn stats(&self) -> Stats {
        let req = httpd::Request {
            method: "GET".into(),
            path: "/stats".into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
        };
        let resp = self.service().handle(&req);
        let v: serde_json::Value = resp
            .body_utf8()
            .and_then(|b| serde_json::from_str(b).ok())
            .unwrap_or(serde_json::Value::Null);
        let num = |path: &[&str]| {
            path.iter()
                .try_fold(&v, |v, k| v.get(k))
                .and_then(|x| x.as_i128())
                .unwrap_or(0) as f64
        };
        Stats {
            analyze_requests: num(&["analyze_requests"]),
            analyses: num(&["analyses"]),
            memo_hits: num(&["response_cache_hits"]),
            coalesced: num(&["coalesced"]),
            evictions: num(&["memo_evictions"]),
            rejected: num(&["rejected"]),
            queued: num(&["queue", "queued"]),
            solve_misses: num(&["solve_cache", "misses"]),
        }
    }

    fn stop(self) {
        match self {
            Daemon::Stock(s) => {
                let _ = s.stop();
            }
            Daemon::Traced { http, service, .. } => {
                http.stop();
                let _ = service.flush();
            }
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Stats {
    analyze_requests: f64,
    analyses: f64,
    memo_hits: f64,
    coalesced: f64,
    evictions: f64,
    rejected: f64,
    queued: f64,
    solve_misses: f64,
}

impl Stats {
    fn since(&self, b: &Stats) -> Stats {
        Stats {
            analyze_requests: self.analyze_requests - b.analyze_requests,
            analyses: self.analyses - b.analyses,
            memo_hits: self.memo_hits - b.memo_hits,
            coalesced: self.coalesced - b.coalesced,
            evictions: self.evictions - b.evictions,
            rejected: self.rejected - b.rejected,
            queued: self.queued,
            solve_misses: self.solve_misses - b.solve_misses,
        }
    }
}

/// One completed request as a sender saw it (traced runs only).
#[derive(Clone, Copy)]
struct Sample {
    req: u32,
    bid: u64,
    /// Send time minus due time (open loop only).
    late_ms: f32,
    /// Send to response, and send time since the run epoch.
    client_us: f32,
    send_us: f64,
}

#[derive(Default)]
struct Drive {
    /// `(completion second, latency ms)` of every completed request (up to
    /// `LAT_CAP` per sender).
    lat: Vec<(f32, f32)>,
    marks: Marks,
    /// Peak RSS when the senders finished, before their samples are merged.
    peak_rss_mb: f64,
    samples: Vec<Sample>,
    completed: u64,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    elapsed_s: f64,
}

/// Send the plan's load for `window`: closed loop over the pool (serve-hot)
/// or the open-loop stream (serve-churn), with one sender thread and one
/// keep-alive connection per `conns`.
fn drive(
    plan: &Plan,
    addr: std::net::SocketAddr,
    conns: usize,
    window: Duration,
    seed: u64,
    traced: bool,
    epoch: Instant,
) -> Drive {
    let next = AtomicUsize::new(0);
    let bids = AtomicU64::new(0);
    let start = Instant::now();
    let end = start + window;
    let (results, marks, peak_rss_mb) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (next, bids) = (&next, &bids);
                s.spawn(move || {
                    // Filled with a non-zero pattern so every page is touched
                    // up front: peak RSS must not track the request count.
                    let mut lat = vec![(f32::NAN, f32::NAN); LAT_CAP];
                    let mut d = Drive::default();
                    let mut verified = Verified::default();
                    let mut rng = Rng::derive(seed, 100 + c as u64);
                    let mut client = match httpd::Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            d.failed += 1;
                            d.failures.push(format!("connect: {e}"));
                            return d;
                        }
                    };
                    while Instant::now() < end {
                        let (i, due) = if plan.due_s.is_empty() {
                            let i = if rng.chance(1.0 / 3.0) {
                                rng.below(plan.gets)
                            } else {
                                plan.gets + rng.below(plan.requests.len() - plan.gets)
                            };
                            (i, None)
                        } else {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&due_s) = plan.due_s.get(i) else {
                                break;
                            };
                            let due = start + Duration::from_secs_f64(due_s);
                            if due >= end {
                                break;
                            }
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            (i, Some(due))
                        };
                        let req = &plan.requests[i];
                        let bid = if traced {
                            bids.fetch_add(1, Ordering::Relaxed) + 1
                        } else {
                            0
                        };
                        let sent = Instant::now();
                        let resp = req.send(&mut client, traced.then_some(bid));
                        let done = Instant::now();
                        d.attempted += 1;
                        let verdict = match resp {
                            Ok(r) => verified.check(
                                req.expect,
                                &plan.expected[req.expect],
                                r.status,
                                &r.body,
                                &req.name,
                            ),
                            Err(e) => Err(format!("{}: transport error {e}", req.name)),
                        };
                        if let Err(why) = verdict {
                            d.failed += 1;
                            if d.failures.len() < 5 {
                                d.failures.push(why);
                            }
                            continue;
                        }
                        let from = due.unwrap_or(sent);
                        if let Some(slot) = lat.get_mut(d.completed as usize) {
                            *slot = (
                                done.duration_since(start).as_secs_f32(),
                                ms(done.duration_since(from)) as f32,
                            );
                        }
                        d.completed += 1;
                        if traced {
                            d.samples.push(Sample {
                                req: i as u32,
                                bid,
                                late_ms: ms(sent.saturating_duration_since(from)) as f32,
                                client_us: (done.duration_since(sent).as_secs_f64() * 1e6) as f32,
                                send_us: sent.duration_since(epoch).as_secs_f64() * 1e6,
                            });
                        }
                    }
                    lat.truncate(d.completed.min(LAT_CAP as u64) as usize);
                    d.lat = lat;
                    d
                })
            })
            .collect();
        let marks = Marks::watch(start, window, SUB_WINDOW_S);
        let peak_rss_mb = peak_rss_mb();
        let results: Vec<Drive> = handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect();
        (results, marks, peak_rss_mb)
    });
    let mut all = Drive {
        elapsed_s: start.elapsed().as_secs_f64(),
        marks,
        peak_rss_mb,
        ..Drive::default()
    };
    for d in results {
        all.lat.extend(d.lat);
        all.samples.extend(d.samples);
        all.completed += d.completed;
        all.attempted += d.attempted;
        all.failed += d.failed;
        all.failures.extend(d.failures);
    }
    all.samples.sort_by(|a, b| a.send_us.total_cmp(&b.send_us));
    all
}

impl Drive {
    fn summary(&self, q: f64) -> Summary {
        let lat: Vec<(f64, f64)> = self
            .lat
            .iter()
            .map(|&(t, l)| (t as f64, l as f64))
            .collect();
        summarize(&lat, &self.marks, q)
    }
}

fn record_failures(out: &mut Outcome, d: &Drive) {
    out.attempted += d.attempted;
    out.failed += d.failed;
    for f in &d.failures {
        if out.mismatches.len() < 5 {
            out.mismatches.push(f.clone());
        }
    }
}

/// Start the daemon `SETUP_REPEATS` times, timing start → first healthy
/// `/healthz`; the last start stays up.  Returns it with the median time.
fn start_timed(plan: &Plan, conns: usize, work: &Path) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let repeats = SETUP_REPEATS[(plan.workload == Workload::ServeChurn) as usize];
    for i in 0..repeats {
        let config = config(plan, conns, work, &format!("run{i}"))?;
        let t = Instant::now();
        let daemon = Daemon::start(config, false)?;
        healthy(daemon.addr())?;
        times.push(t.elapsed().as_secs_f64());
        if i + 1 == repeats {
            return Ok((daemon, median(&times)));
        }
        daemon.stop();
    }
    unreachable!("at least one start")
}

/// serve-hot's memo warm-up: every pool request once, checked.
fn warm(plan: &Plan, daemon: &Daemon, out: &mut Outcome) -> Result<(), String> {
    let mut client = httpd::Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
    for req in &plan.requests {
        out.attempted += 1;
        let verdict = req
            .send(&mut client, None)
            .map_err(|e| e.to_string())
            .and_then(|r| plan.expected[req.expect].check_response(r.status, &r.body, &req.name));
        if let Err(why) = verdict {
            out.fail(why);
        }
    }
    Ok(())
}

fn class_shares(plan: &Plan, samples: &[Sample], m: &mut Metrics) {
    let n = samples.len().max(1) as f64;
    let share = |c: Class| {
        samples
            .iter()
            .filter(|s| plan.requests[s.req as usize].class == c)
            .count() as f64
            / n
    };
    m.put("loadgen.share_memo_hit", share(Class::MemoHit), "ratio");
    m.put("loadgen.share_fresh_identity", share(Class::Fresh), "ratio");
    m.put(
        "loadgen.share_new_structure",
        share(Class::NewStructure),
        "ratio",
    );
    m.put(
        "loadgen.share_repeat_evicted",
        share(Class::RepeatEvicted),
        "ratio",
    );
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut plan = match args.workload {
        Workload::ServeHot => hot_plan(args)?,
        _ => churn_plan(args, work)?,
    };
    if args.tamper {
        plan.expected[0].tamper();
    }
    let conns = crate::util::nproc().min(2);
    let churn = plan.workload == Workload::ServeChurn;
    out.note(format!(
        "{} requests planned, {} distinct answers, {conns} connections, {}",
        plan.requests.len(),
        plan.expected.len(),
        if churn {
            format!("open loop at {CHURN_RATE} req/s")
        } else {
            "closed loop".to_string()
        }
    ));
    if let Some(pristine) = &plan.pristine {
        let store = SolveStore::open(pristine).map_err(|e| e.to_string())?;
        let (solves, reports) = (
            store.stat().map_err(|e| e.to_string())?,
            store.report_stat().map_err(|e| e.to_string())?,
        );
        out.note(format!(
            "store: {} solve entries, {} report entries, {} bytes",
            solves.entries,
            reports.entries,
            solves.bytes + reports.bytes
        ));
    }

    let (daemon, setup_s) = start_timed(&plan, conns, work)?;
    if !churn {
        warm(&plan, &daemon, &mut out)?;
    }

    if !args.trace {
        reset_peak_rss()?;
        let rss_at_start = peak_rss_mb();
        let before = daemon.stats();
        let d = drive(
            &plan,
            daemon.addr(),
            conns,
            args.window(),
            args.seed,
            false,
            Instant::now(),
        );
        let delta = daemon.stats().since(&before);
        daemon.stop();
        record_failures(&mut out, &d);
        // The tail quantile: p99 where each 2 s sub-window holds hundreds of
        // samples beyond it (serve-hot); p95 for serve-churn, whose ~500
        // requests per sub-window leave p99 to a handful of host stalls.
        let q = if churn { 0.95 } else { 0.99 };
        let s = d.summary(q);
        out.note(format!(
            "{} requests in {:.2} s; latency_tail_ms is p{}; memo hits {} of {} analyze requests, {} analyses; RSS {:.1} MiB at window start",
            d.completed, d.elapsed_s, q * 100.0, delta.memo_hits, delta.analyze_requests, delta.analyses, rss_at_start
        ));
        let m = &mut out.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("throughput_per_s", s.throughput, "1/s");
        m.put("latency_p50_ms", s.p50, "ms");
        m.put("latency_tail_ms", s.tail, "ms");
        m.put("peak_rss_mb", d.peak_rss_mb, "MiB");
        m.put("cpu_ms_per_op", s.cpu_per_op, "ms");
        return Ok(out);
    }

    // Traced run.  Untraced half on the stock daemon, then the traced half
    // on a fresh daemon (same store state, same stream position rules) in
    // the benchmark-composed server, then the layer replay offline.
    let epoch = Instant::now();
    let half = args.window() / 2;
    let untraced = drive(&plan, daemon.addr(), conns, half, args.seed, false, epoch);
    daemon.stop();
    record_failures(&mut out, &untraced);

    let traced_daemon = Daemon::start(config(&plan, conns, work, "traced")?, true)?;
    healthy(traced_daemon.addr())?;
    if !churn {
        warm(&plan, &traced_daemon, &mut out)?;
    }
    let before = traced_daemon.stats();
    let queued_max = AtomicU64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    let traced = std::thread::scope(|s| {
        // Gate sampler: the admission queue depth, read in process.
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let q = traced_daemon.stats().queued as u64;
                queued_max.fetch_max(q, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let d = drive(
            &plan,
            traced_daemon.addr(),
            conns,
            half,
            args.seed,
            true,
            epoch,
        );
        done.store(true, Ordering::Relaxed);
        d
    });
    let delta = traced_daemon.stats().since(&before);
    let handles: Vec<(u64, f64)> = match &traced_daemon {
        Daemon::Traced { handles, .. } => std::mem::take(&mut *handles.lock().expect("handle log")),
        Daemon::Stock(_) => Vec::new(),
    };
    traced_daemon.stop();
    record_failures(&mut out, &traced);

    let overhead = traced.summary(0.5).p50 / untraced.summary(0.5).p50 - 1.0;

    // Spans: client and handle per request.
    let mut spans = Spans::new(epoch);
    let mut handle_us =
        vec![f64::NAN; traced.samples.iter().map(|s| s.bid).max().unwrap_or(0) as usize + 1];
    for &(bid, us) in &handles {
        if let Some(slot) = handle_us.get_mut(bid as usize) {
            *slot = us;
        }
    }
    let mut transport = Vec::new();
    for s in &traced.samples {
        spans.push(Span {
            req: s.bid,
            name: "client",
            parent: "",
            start_us: s.send_us,
            dur_us: s.client_us as f64,
        });
        let h = handle_us[s.bid as usize];
        if h.is_finite() {
            spans.push(Span {
                req: s.bid,
                name: "handle",
                parent: "client",
                start_us: s.send_us,
                dur_us: h,
            });
            transport.push(s.client_us as f64 - h);
        }
    }

    // Layer replay at budget 1 over the traced window's requests, in send
    // order, with the daemon's memo mirrored as a FIFO of memo keys.
    let replay_caches = || -> Result<(SolveCache, SolveCache, f64), String> {
        match &plan.pristine {
            None => Ok((SolveCache::new(), SolveCache::new(), 0.0)),
            Some(pristine) => {
                let dir = work.join("replay");
                copy_dir(pristine, &dir)?;
                let t = Instant::now();
                let a = SolveCache::with_store(&dir).map_err(|e| e.to_string())?;
                let hydrate_ms = ms(t.elapsed());
                let b = SolveCache::with_store(&dir).map_err(|e| e.to_string())?;
                Ok((a, b, hydrate_ms))
            }
        }
    };
    let (cache_a, cache_b, hydrate_ms) = replay_caches()?;
    let budget = worker_budget();
    set_worker_budget(1);
    let mut replay = Replay::new(spans, cache_a, cache_b);
    let mut memo_keys: VecDeque<u64> = VecDeque::new();
    let mut memo_set: HashSet<u64> = HashSet::new();
    let cap = plan.config.memo_cap;
    let remember = |key: u64, keys: &mut VecDeque<u64>, set: &mut HashSet<u64>| {
        if set.insert(key) {
            keys.push_back(key);
            if keys.len() > cap {
                if let Some(old) = keys.pop_front() {
                    set.remove(&old);
                }
            }
        }
    };
    if !churn {
        for req in &plan.requests {
            let program = match req.kernel {
                Some(k) => plan.kernels[k].program.clone(),
                None => req.dialect.parse(&req.name, &req.body)?,
            };
            remember(
                daemon_memo_key(&program, req.injective),
                &mut memo_keys,
                &mut memo_set,
            );
        }
    }
    for s in traced.samples.iter().take(REPLAY_CAP) {
        let req = &plan.requests[s.req as usize];
        let program = match req.kernel {
            Some(k) => Some(plan.kernels[k].program.clone()),
            None => replay.parse(s.bid, req.dialect, &req.name, &req.body),
        };
        let Some(program) = program else { continue };
        let key = replay.memo_key(s.bid, &program, req.injective);
        if memo_set.contains(&key) {
            continue;
        }
        replay.analyze(s.bid, &program, &opts(req.injective));
        remember(key, &mut memo_keys, &mut memo_set);
    }
    set_worker_budget(budget);

    let m = &mut out.metrics;
    replay.metrics(m);
    m.put("rayon.budget", budget as f64, "count");
    if let Some(pristine) = &plan.pristine {
        let store = SolveStore::open(pristine).map_err(|e| e.to_string())?;
        let solves = store.stat().map_err(|e| e.to_string())?;
        let reports = store.report_stat().map_err(|e| e.to_string())?;
        m.put("store.hydrate_ms", hydrate_ms, "ms");
        m.put("store.solve_entries", solves.entries as f64, "count");
        m.put("store.report_entries", reports.entries as f64, "count");
        m.put(
            "store.bytes",
            (solves.bytes + reports.bytes) as f64,
            "bytes",
        );
    }
    let handle_sorted = sorted(handles.iter().map(|h| h.1).collect());
    m.put("serve.handle_p50_us", percentile(&handle_sorted, 0.5), "us");
    m.put(
        "serve.handle_p99_us",
        percentile(&handle_sorted, 0.99),
        "us",
    );
    m.put(
        "serve.memo_hit_ratio",
        delta.memo_hits / delta.analyze_requests.max(1.0),
        "ratio",
    );
    m.put("serve.analyses", delta.analyses, "count");
    m.put("serve.coalesced", delta.coalesced, "count");
    m.put("serve.memo_evictions", delta.evictions, "count");
    m.put("serve.rejected", delta.rejected, "count");
    m.put(
        "serve.gate_queued_max",
        queued_max.load(Ordering::Relaxed) as f64,
        "count",
    );
    let transport = sorted(transport);
    m.put("httpd.transport_p50_us", percentile(&transport, 0.5), "us");
    m.put("httpd.transport_p99_us", percentile(&transport, 0.99), "us");
    let offered = if churn {
        CHURN_RATE
    } else {
        traced.samples.len() as f64 / traced.elapsed_s
    };
    m.put("loadgen.offered_rps", offered, "1/s");
    let late = sorted(traced.samples.iter().map(|s| s.late_ms as f64).collect());
    m.put("loadgen.late_p99_ms", percentile(&late, 0.99), "ms");
    class_shares(&plan, &traced.samples, m);
    m.put("trace.overhead_share", overhead, "ratio");
    m.put("trace.spans", replay.spans.spans.len() as f64, "count");
    if !churn {
        out.note(format!(
            "predicted zeros in the timed window: daemon analyses = {}, solve-cache misses = {} (both expected 0)",
            delta.analyses, delta.solve_misses
        ));
    }
    crate::write_spans(args, &replay.spans);
    Ok(out)
}

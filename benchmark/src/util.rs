//! Small shared pieces: the seeded generator, percentiles, resource probes
//! and the metric list a run reports.

use std::time::Duration;

/// SplitMix64: a tiny, well-mixed, seedable generator.  Every input the
/// benchmark sends is a pure function of `--seed` through one of these.
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent stream derived from the seed (one per
    /// sender thread, one per generated program family, ...).
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() <= p
    }

    /// An exponential inter-arrival time at `rate` events per second.
    pub fn exp_secs(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`); 0 for an
/// empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Process CPU time at the boundaries of the timed window's sub-windows:
/// `(seconds since start, cpu ms)`.  Throughput, CPU per operation and
/// latency are medians over sub-windows (see [`summarize`]), so a burst of
/// host noise inside a minority of them does not move the result.
#[derive(Default)]
pub struct Marks(pub Vec<(f64, f64)>);

impl Marks {
    pub fn start() -> Marks {
        Marks(vec![(0.0, cpu_ms())])
    }

    /// Record a boundary when `now_s` has passed the next multiple of
    /// `width_s` (call after every operation of a single-threaded loop).
    pub fn maybe_mark(&mut self, now_s: f64, width_s: f64) {
        if now_s >= width_s * self.0.len() as f64 {
            self.0.push((now_s, cpu_ms()));
        }
    }

    /// Close the last sub-window at `now_s` when the loop ends: a trailing
    /// part shorter than half a sub-window joins the previous one.
    pub fn finish(&mut self, now_s: f64, width_s: f64) {
        let last = self.0.last().map_or(0.0, |m| m.0);
        if self.0.len() > 1 && now_s - last < width_s / 2.0 {
            self.0.pop();
        }
        self.0.push((now_s, cpu_ms()));
    }

    /// Sleep through `window` from `start`, recording a boundary about every
    /// `width_s` (for a thread that watches while others do the work).
    pub fn watch(start: std::time::Instant, window: Duration, width_s: f64) -> Marks {
        let mut marks = Marks::start();
        let total = window.as_secs_f64();
        let n = (total / width_s).round().max(1.0) as usize;
        for k in 1..=n {
            let at = start + Duration::from_secs_f64(total * k as f64 / n as f64);
            if let Some(wait) = at.checked_duration_since(std::time::Instant::now()) {
                std::thread::sleep(wait);
            }
            marks.0.push((start.elapsed().as_secs_f64(), cpu_ms()));
        }
        marks
    }
}

/// End-to-end figures of one timed window.
pub struct Summary {
    pub ops: u64,
    pub throughput: f64,
    pub cpu_per_op: f64,
    pub p50: f64,
    pub tail: f64,
}

/// Summarise `(completion second, latency)` samples against the CPU marks:
/// each figure is the median over sub-windows.  The tail (quantile `q`) is
/// taken per sub-window only when every sub-window has at least ten samples
/// beyond it, otherwise over the whole window.
pub fn summarize(samples: &[(f64, f64)], marks: &Marks, q: f64) -> Summary {
    let bounds = &marks.0;
    let n = bounds.len().saturating_sub(1).max(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(done, l) in samples {
        let k = bounds[1..]
            .iter()
            .position(|&(t, _)| done < t)
            .unwrap_or(n - 1);
        lat[k].push(l);
    }
    let mut throughput = Vec::new();
    let mut cpu = Vec::new();
    let mut p50 = Vec::new();
    let mut tails = Vec::new();
    for (k, l) in lat.iter_mut().enumerate() {
        let (Some(&(t0, c0)), Some(&(t1, c1))) = (bounds.get(k), bounds.get(k + 1)) else {
            continue;
        };
        if l.is_empty() || t1 <= t0 {
            continue;
        }
        l.sort_by(f64::total_cmp);
        throughput.push(l.len() as f64 / (t1 - t0));
        cpu.push((c1 - c0) / l.len() as f64);
        p50.push(percentile(l, 0.5));
        tails.push(percentile(l, q));
    }
    let enough = lat.iter().all(|l| l.len() as f64 * (1.0 - q) >= 10.0);
    let tail = if enough {
        median(&tails)
    } else {
        percentile(&sorted(samples.iter().map(|s| s.1).collect()), q)
    };
    Summary {
        ops: samples.len() as u64,
        throughput: median(&throughput),
        cpu_per_op: median(&cpu),
        p50: median(&p50),
        tail,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process (peak resident set) in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Start a fresh `VmHWM` at the current resident set, so the next
/// `peak_rss_mb` covers only what runs after this call, not set-up.  Heap
/// that set-up freed is first handed back to the kernel (glibc
/// `malloc_trim`); otherwise later growth would reuse it unseen.  The reset
/// itself writes `5` to `/proc/self/clear_refs` (Linux 4.0 and later).
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// User plus system CPU time of this process (all threads) in milliseconds,
/// from fields 14 and 15 of `/proc/self/stat`.  Linux reports them in clock
/// ticks of `USER_HZ`, which is 100 on every mainstream configuration.
pub fn cpu_ms() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after it start
    // behind its closing parenthesis, with `state` as field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) * 1e3 / USER_HZ,
        _ => 0.0,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Metrics in report order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }
}

/// What one workload run produced: operation counts for the oracle verdict,
/// the metrics of the requested mode, and human-readable notes.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few oracle mismatches, for the log.
    pub mismatches: Vec<String>,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(why);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

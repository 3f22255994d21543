//! Small helpers shared by the workloads: the seeded generator, order
//! statistics, process memory, the span recorder, and stderr silencing.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// splitmix64: every input the benchmark generates comes from one of
/// these, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_0F0C_AB1E)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf(s = 1) sampler over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median as Python's `statistics.median` computes it.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of the samples left when the lowest and the highest `share`
/// of them (rounded down) are dropped.
pub fn trimmed_mean(samples: &[f64], share: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let q = (v.len() as f64 * share) as usize;
    let mid = &v[q..v.len() - q];
    if mid.is_empty() {
        return f64::NAN;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |j: usize| {
        let m = (n + 1) * j;
        let (i, rem) = (m / 4, m % 4);
        let i = i.clamp(1, n - 1);
        v[i - 1] + (v[i] - v[i - 1]) * rem as f64 / 4.0
    };
    (q(1), q(3))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
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

/// Host CPU time stolen from this machine so far and all CPU time, in
/// clock ticks (`/proc/stat`), for the provenance line.
pub fn steal_and_total_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share (%) of CPU time the host stole between `before` (a
/// [`steal_and_total_ticks`] reading) and now; 0 where unreadable.
pub fn steal_pct_since(before: Option<(u64, u64)>) -> f64 {
    steal_pct_between(before, steal_and_total_ticks())
}

/// Share (%) of CPU time the host stole between two
/// [`steal_and_total_ticks`] readings; 0 where either is missing.
pub fn steal_pct_between(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 * 100.0 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    }
}

/// A measurement window during which the host stole more than this
/// share of the CPU is disturbed: the serve workloads retry it and the
/// sweep leaves such passes out of its medians.
pub const MAX_STEAL_PCT: f64 = 1.5;

/// FNV-1a 64 over bytes, for output digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One timed interval around a call into a layer.
pub struct Span {
    pub name: &'static str,
    /// Run or request id the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for traced runs; written out when the run
/// ends. Spans are recorded from the benchmark's side of each call, so
/// the program under test is unchanged.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record an already-measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, id, parent);
        let r = f();
        self.close(s);
        r
    }

    /// Per span name: (count, summed duration ns, summed self time ns),
    /// where a span's self time is its duration minus the part its child
    /// spans cover.
    pub fn summary(&self) -> std::collections::BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child[i]);
        }
        out
    }

    /// Write every span as one JSON line, then one `summary` line per
    /// span name with its count, total and self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        for (name, (count, total, own)) in self.summary() {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )?;
        }
        out.flush()
    }
}

extern "C" {
    fn dup(fd: i32) -> i32;
    fn dup2(src: i32, dst: i32) -> i32;
}

/// Points fd 2 at `/dev/null` while alive, so the server's shipped
/// info-level request log is written (its cost is part of what is
/// measured) but discarded. Panic messages still reach the original
/// stderr through a panic hook.
pub struct QuietStderr {
    saved: i32,
}

impl QuietStderr {
    pub fn new() -> std::io::Result<Self> {
        use std::os::fd::AsRawFd;
        let null = File::options().write(true).open("/dev/null")?;
        // SAFETY: `dup` and `dup2` only duplicate descriptors; fd 2 and
        // `null` are open for the whole call.
        let saved = unsafe { dup(2) };
        if saved < 0 || unsafe { dup2(null.as_raw_fd(), 2) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let hook_fd = saved;
        std::panic::set_hook(Box::new(move |info| {
            use std::os::fd::FromRawFd;
            // SAFETY: `hook_fd` stays open until the guard restores fd 2;
            // ManuallyDrop keeps this File from closing it.
            let mut f = std::mem::ManuallyDrop::new(unsafe { File::from_raw_fd(hook_fd) });
            let _ = writeln!(f, "{info}");
        }));
        Ok(QuietStderr { saved })
    }
}

impl Drop for QuietStderr {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
        // SAFETY: `saved` is the descriptor duplicated in `new`.
        unsafe {
            dup2(self.saved, 2);
        }
        // SAFETY: `saved` is owned by this guard and closed once.
        drop(unsafe { <File as std::os::fd::FromRawFd>::from_raw_fd(self.saved) });
    }
}

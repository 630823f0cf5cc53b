//! Small numeric helpers: percentiles, per-class latencies, the seeded
//! shuffle, `VmHWM`, and the host probe.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::Sample;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// A run's samples with each one's latency replaced by its class's
/// latency: the nearest-rank percentile `class_p` of the class's samples
/// in the run (0 takes its fastest). Every request class runs the same
/// number of times in every run, so p50, tail and throughput computed
/// from these are a fixed function of the per-class latencies, whatever
/// order the seed gives the requests.
pub struct ClassLatencies {
    /// `(ms, samples, lane)` per class, fastest first.
    classes: Vec<(f64, usize, usize)>,
}

impl ClassLatencies {
    pub fn new(samples: &[Sample], class_p: f64) -> Self {
        let mut by_class: BTreeMap<&str, (Vec<f64>, usize)> = BTreeMap::new();
        for s in samples {
            let e = by_class.entry(s.class).or_insert((Vec::new(), s.lane));
            e.0.push(s.ms);
        }
        let mut classes: Vec<(f64, usize, usize)> = by_class
            .into_values()
            .map(|(mut ms, lane)| {
                ms.sort_by(f64::total_cmp);
                (percentile(&ms, class_p), ms.len(), lane)
            })
            .collect();
        classes.sort_by(|a, b| a.0.total_cmp(&b.0));
        ClassLatencies { classes }
    }

    /// Nearest-rank percentile over every sample (`p` in 0..=100).
    pub fn percentile(&self, p: f64) -> f64 {
        let n: usize = self.classes.iter().map(|c| c.1).sum();
        let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
        let mut seen = 0;
        for &(ms, count, _) in &self.classes {
            seen += count;
            if seen >= rank {
                return ms;
            }
        }
        f64::NAN
    }

    /// Seconds one of `passes` passes takes at the class latencies: the
    /// busiest lane's total, since lanes run side by side.
    pub fn pass_s(&self, passes: u64) -> f64 {
        let mut lanes: BTreeMap<usize, f64> = BTreeMap::new();
        for &(ms, count, lane) in &self.classes {
            *lanes.entry(lane).or_insert(0.0) += ms * count as f64;
        }
        lanes.values().fold(0.0_f64, |a, &b| a.max(b)) / passes as f64 / 1e3
    }
}

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest ladder percentile with at least ten of `n` samples above
/// it (100, the maximum, when `n` is too small for any).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n.saturating_sub(((p / 100.0) * n as f64).ceil() as usize) >= 10)
        .unwrap_or(100.0)
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: a tiny seeded generator, enough to order requests and
/// name edits reproducibly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates: the seed permutes the list, never changes it.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The request order of one pass: a permutation of `0..n` drawn from
/// the seed and the pass number, so a run meets many orders and its
/// medians do not hang on one.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03)).shuffle(&mut order);
    order
}

/// `VmHWM` (peak resident set) of a process, in MB.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// One reading of the host probe: seconds for a fixed allocation-heavy
/// loop and for a fixed register-only loop. The host this benchmark was
/// tuned on runs allocation-heavy code in two speed phases while
/// register-only code stays put, so the pair tells which phase a run
/// met. A diagnostic, never a gated metric.
pub fn host_probe() -> (f64, f64) {
    let t = Instant::now();
    let mut total = 0usize;
    for i in 0..40_000u64 {
        let v: Vec<u64> = (0..24).map(|k| black_box(k ^ i)).collect();
        let s = format!("{}-{}", v[3], v[17]);
        let boxed: Vec<Box<u64>> = v.iter().take(8).map(|&x| Box::new(x)).collect();
        total += black_box(s).len() + black_box(boxed).len();
    }
    black_box(total);
    let alloc_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..8_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    (alloc_s, t.elapsed().as_secs_f64())
}

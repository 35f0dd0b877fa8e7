//! Incremental maintenance of the full `d(m)` spectrum.
//!
//! A naive implementation recomputes equation (1)/(2) from scratch for every
//! delay after each new sample — `O(N * M)` per sample, far too expensive for
//! the "negligible overhead" the paper reports (Table 3: ~4 µs per element on
//! 2001 hardware, including trace handling). [`IncrementalEngine`] instead
//! maintains, for every delay `m`, the running pair-sum
//! `S_m = Σ_{k=0}^{N-1} pair(x[t-k], x[t-k-m])` and updates all of them in
//! `O(M)` per pushed sample:
//!
//! * the newly formed pair `(x[t], x[t-m])` enters the frame,
//! * the pair `(x[t-N], x[t-N-m])` leaves it.
//!
//! # Hot-path layout
//!
//! History lives in a [`MirroredHistory`]: every sample is stored twice so
//! the trailing `N + M + k` samples are always one contiguous slice — no
//! modulo indexing, no wraparound branch. `push` splits into two paths:
//!
//! * a branchy **warmup** path while some delay still lacks a full frame of
//!   pairs (the first `N + M` samples after construction or reset), and
//! * a branch-free **steady-state** path in which *every* delay gains one
//!   incoming pair and sheds one outgoing pair. The per-delay update then
//!   reads two reverse-contiguous slices of history and accumulates into the
//!   flat `sums` array — a pure streaming kernel that LLVM auto-vectorizes.
//!
//! [`IncrementalEngine::push_slice`] feeds whole slices: warmup samples go
//! through the per-sample path, after which samples are ingested in
//! cache-sized blocks (history written first, then one fused pass per block)
//! amortizing per-push bookkeeping. Block processing preserves the exact
//! per-accumulator floating-point operation order of sample-by-sample
//! `push`, so batch and per-sample ingestion produce **bit-identical**
//! spectra — a property the test suite checks with property tests.
//!
//! For the event metric the pair contributions are exact small integers, so
//! the running sums never drift. For the floating-point L1 metric the engine
//! optionally re-derives all sums from the retained history every
//! `resync_interval` pushes to bound accumulated rounding error; batch
//! ingestion splits blocks at resync boundaries so the resync points are
//! sample-exact.
//!
//! # Tracked pushes
//!
//! A detector locked on period `p` reads only `d(p)` (and the history), so
//! for exact metrics it feeds the engine through a crate-private *tracked*
//! push: the sample is appended to history and only delay `p`'s sum and
//! pair count move, with the same per-accumulator operations as `push`.
//! That is O(1) per sample instead of O(M). The other sums fall behind
//! until [`IncrementalEngine::resync`] recounts them. For an exact metric
//! with a full history the recount compares contiguous slices in
//! independent lanes, which LLVM vectorizes; this is exact because every
//! pair contribution is a small integer, so the sums do not depend on the
//! order of summation and equal the incrementally maintained ones bit for
//! bit. [`IncrementalEngine::first_zero`] likewise tests a block of delays
//! per step without a branch per delay.

use crate::metric::Metric;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::spectrum::Spectrum;
use crate::window::MirroredHistory;

/// Block length for steady-state batch ingestion. Sized so the working set
/// (history slice of `N + M + BLOCK` samples plus the `M`-entry sums array)
/// stays cache-resident for the window sizes the paper uses (`N <= 1024`).
const STEADY_BLOCK: usize = 64;

/// Independent accumulators (and delays tested per step) in the vectorized
/// recount and zero test.
const LANES: usize = 8;

/// Configuration of an [`IncrementalEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Frame size `N`: number of pairs summed per delay.
    pub frame: usize,
    /// Largest candidate delay `M` (`0 < M <= N` per the paper §3.1).
    pub m_max: usize,
    /// Recompute the sums from history every this many pushes (`0` = never).
    /// Only useful for inexact metrics; exact metrics never drift.
    pub resync_interval: u64,
}

impl EngineConfig {
    /// The paper's guidance: `M = N` candidates over a window of `N`.
    pub fn square(n: usize) -> Self {
        EngineConfig {
            frame: n,
            m_max: n,
            resync_interval: 0,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> crate::Result<()> {
        if self.frame == 0 {
            return Err(crate::DpdError::InvalidWindow(self.frame));
        }
        if self.m_max == 0 || self.m_max > self.frame {
            return Err(crate::DpdError::InvalidMaxDelay {
                m_max: self.m_max,
                window: self.frame,
            });
        }
        Ok(())
    }

    /// History retention backing this configuration: the frame, the deepest
    /// delayed access, and one steady-state ingestion block.
    fn history_capacity(&self) -> usize {
        self.frame + self.m_max + STEADY_BLOCK
    }
}

/// O(M)-per-sample sliding computation of `d(m)` for all `m <= M`.
#[derive(Debug, Clone)]
pub struct IncrementalEngine<T, M: Metric<T>> {
    metric: M,
    config: EngineConfig,
    /// Last `N + M + STEADY_BLOCK` samples, mirrored for contiguous reads.
    history: MirroredHistory<T>,
    /// Running pair-sums, indexed by `m - 1`.
    sums: Vec<f64>,
    /// Number of pairs currently contributing to each sum.
    pairs: Vec<u32>,
    /// Total samples pushed.
    pushed: u64,
}

impl<T: Copy, M: Metric<T>> IncrementalEngine<T, M> {
    /// Create an engine with the given metric and configuration.
    pub fn new(metric: M, config: EngineConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(IncrementalEngine {
            metric,
            history: MirroredHistory::new(config.history_capacity()),
            sums: vec![0.0; config.m_max],
            pairs: vec![0; config.m_max],
            config,
            pushed: 0,
        })
    }

    /// The engine's configuration.
    #[inline]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Total samples pushed so far.
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Number of samples needed before *all* delays have complete frames:
    /// `N + M` (the frame plus the deepest delayed access).
    #[inline]
    pub fn warmup_len(&self) -> usize {
        self.config.frame + self.config.m_max
    }

    /// `true` while every delay has a full frame of pairs: the retained
    /// history holds at least `N + M` samples. It turns `false` again after
    /// [`IncrementalEngine::reset`] or a growing
    /// [`IncrementalEngine::reconfigure`] until the frames have refilled.
    #[inline]
    pub fn is_warm(&self) -> bool {
        self.next_push_is_steady()
    }

    /// `true` when the *next* push takes the branch-free steady-state path:
    /// every delay both gains an incoming pair and sheds an outgoing one.
    #[inline]
    fn next_push_is_steady(&self) -> bool {
        self.history.len() >= self.warmup_len()
    }

    /// Push one sample, updating every `d(m)` in O(M).
    #[inline]
    pub fn push(&mut self, sample: T) {
        if self.next_push_is_steady() {
            self.history.push(sample);
            self.pushed += 1;
            self.steady_update(1);
        } else {
            self.warm_push(sample);
        }
        self.maybe_resync();
    }

    /// Push a whole slice of samples, semantically identical to calling
    /// [`IncrementalEngine::push`] for each element — including bit-identical
    /// floating-point sums — but ingested in cache-sized blocks once the
    /// engine is warm.
    pub fn push_slice(&mut self, samples: &[T]) {
        let mut rest = samples;

        // Warmup: per-sample branchy path until every delay is complete.
        while !rest.is_empty() && !self.next_push_is_steady() {
            self.warm_push(rest[0]);
            self.maybe_resync();
            rest = &rest[1..];
        }

        // Steady state: blocks, split at resync boundaries so inexact
        // metrics resynchronize at exactly the same stream positions as
        // sample-by-sample ingestion.
        let interval = self.config.resync_interval;
        while !rest.is_empty() {
            let mut block = rest.len().min(STEADY_BLOCK);
            if interval > 0 {
                let until_boundary = interval - (self.pushed % interval);
                block = block.min(until_boundary as usize);
            }
            let (now, later) = rest.split_at(block);
            self.history.extend_from_slice(now);
            self.pushed += block as u64;
            self.steady_update(block);
            if interval > 0 && self.pushed.is_multiple_of(interval) {
                self.resync();
            }
            rest = later;
        }
    }

    /// Push one sample but update only delay `m`'s running sum and pair
    /// count, with the same operations `push` applies to that delay. Every
    /// other delay's sum is stale until the next
    /// [`IncrementalEngine::resync`]; no resync interval applies here.
    /// Only for exact metrics, whose recount equals the running sums.
    #[inline]
    pub(crate) fn push_tracked(&mut self, sample: T, m: usize) {
        let n = self.config.frame;
        self.history.push(sample);
        self.pushed += 1;
        let h = self.history.as_slice();
        let t = h.len();
        if t > m {
            let (sum, pairs) = (&mut self.sums[m - 1], &mut self.pairs[m - 1]);
            *sum += self.metric.pair(h[t - 1], h[t - 1 - m]);
            *pairs += 1;
            if *pairs as usize > n {
                *sum -= self.metric.pair(h[t - 1 - n], h[t - 1 - n - m]);
                *pairs = n as u32;
            }
        }
    }

    /// Warmup-path push: some delays may still be missing pairs, so every
    /// delay carries two data-dependent branches. Mirrors the definition
    /// exactly; runs for the first `N + M` samples after construction,
    /// [`IncrementalEngine::reset`] or a shrinking reconfigure.
    fn warm_push(&mut self, sample: T) {
        let n = self.config.frame;
        let m_max = self.config.m_max;
        self.history.push(sample);
        self.pushed += 1;
        let h = self.history.as_slice();
        let t = h.len(); // retained samples; h[t - 1] is the newest
        let newest = h[t - 1];

        for m in 1..=m_max {
            // Incoming pair (x[t], x[t-m]): ages 0 and m.
            if t > m {
                self.sums[m - 1] += self.metric.pair(newest, h[t - 1 - m]);
                self.pairs[m - 1] += 1;
                // Outgoing pair (x[t-N], x[t-N-m]): ages N and N+m.
                if self.pairs[m - 1] as usize > n {
                    self.sums[m - 1] -= self.metric.pair(h[t - 1 - n], h[t - 1 - n - m]);
                    self.pairs[m - 1] = n as u32;
                }
            }
        }
    }

    /// Steady-state spectrum update for the trailing `block` samples already
    /// written to history. For each sample the per-delay work is a pure
    /// streaming kernel: broadcast the incoming/outgoing anchors, read the
    /// two reverse-contiguous history slices, accumulate into `sums`. No
    /// branches, no modulo — auto-vectorizable.
    ///
    /// Per accumulator the operation order is identical to sample-by-sample
    /// ingestion (`+= incoming` then `-= outgoing`, in stream order), so
    /// results are bit-identical to repeated `push`.
    fn steady_update(&mut self, block: usize) {
        let n = self.config.frame;
        let m_max = self.config.m_max;
        let h = self.history.tail(n + m_max + block);
        let sums = &mut self.sums[..m_max];
        let metric = &self.metric;
        for i in 0..block {
            // Stream indices within `h`: current sample at n + m_max + i.
            let cur = h[n + m_max + i];
            let out_cur = h[m_max + i];
            // delayed[m_max - m] == x[t - m]; out_delayed[m_max - m] == x[t - N - m].
            let delayed = &h[n + i..n + m_max + i];
            let out_delayed = &h[i..m_max + i];
            for ((s, &d_in), &d_out) in sums
                .iter_mut()
                .zip(delayed.iter().rev())
                .zip(out_delayed.iter().rev())
            {
                *s += metric.pair(cur, d_in);
                *s -= metric.pair(out_cur, d_out);
            }
        }
    }

    #[inline]
    fn maybe_resync(&mut self) {
        if self.config.resync_interval > 0
            && self.pushed.is_multiple_of(self.config.resync_interval)
        {
            self.resync();
        }
    }

    /// Recompute all running sums from the retained history. Bounds
    /// floating-point drift for inexact metrics; a no-op semantically.
    pub fn resync(&mut self) {
        let n = self.config.frame;
        let m_max = self.config.m_max;
        if self.metric.exact() && self.next_push_is_steady() {
            // Every delay has a full frame: compare the newest N samples
            // with their m-delayed copy, both contiguous.
            let h = self.history.tail(n + m_max);
            let frame = &h[m_max..];
            for m in 1..=m_max {
                self.sums[m - 1] = lane_sum(&self.metric, frame, &h[m_max - m..m_max - m + n]);
                self.pairs[m - 1] = n as u32;
            }
            return;
        }
        let h = self.history.as_slice();
        let avail = h.len();
        for m in 1..=m_max {
            // Pairs exist for current ages 0..N-1 provided age+m < avail.
            let mut sum = 0.0;
            let mut count = 0u32;
            for age in 0..n.min(avail) {
                if age + m < avail {
                    sum += self.metric.pair(h[avail - 1 - age], h[avail - 1 - age - m]);
                    count += 1;
                }
            }
            self.sums[m - 1] = sum;
            self.pairs[m - 1] = count;
        }
    }

    /// Current `d(m)`; `None` for out-of-range `m` or when no pairs exist.
    pub fn distance(&self, m: usize) -> Option<f64> {
        if m == 0 || m > self.config.m_max {
            return None;
        }
        let pairs = self.pairs[m - 1] as usize;
        if pairs == 0 {
            return None;
        }
        Some(self.metric.finalize(self.sums[m - 1], pairs))
    }

    /// `true` when delay `m` currently has a full frame of `N` pairs.
    pub fn is_complete(&self, m: usize) -> bool {
        m >= 1 && m <= self.config.m_max && self.pairs[m - 1] as usize == self.config.frame
    }

    /// Raw pair-sum at delay `m` (mismatch count for event metrics).
    pub fn pair_sum(&self, m: usize) -> Option<f64> {
        if m == 0 || m > self.config.m_max {
            None
        } else {
            Some(self.sums[m - 1])
        }
    }

    /// Snapshot the current spectrum.
    pub fn spectrum(&self) -> Spectrum {
        let values: Vec<f64> = (1..=self.config.m_max)
            .map(|m| {
                let p = self.pairs[m - 1] as usize;
                self.metric.finalize(self.sums[m - 1], p)
            })
            .collect();
        Spectrum::from_parts(values, self.pairs.clone(), self.config.frame)
    }

    /// Smallest delay whose full-frame distance is exactly zero, if any.
    ///
    /// For the event metric this is the paper's equation-(2) detection: "if
    /// d(m) = 0, then a periodic pattern with dimension m is detected".
    /// Tests eight delays per step with one branch per block.
    pub fn first_zero(&self) -> Option<usize> {
        let n = self.config.frame;
        let hit = |s: f64, p: u32| (s == 0.0) & (p as usize == n);
        // Whole blocks first, one branch per block; then the block that
        // hit, or the remainder, delay by delay.
        let start = self
            .sums
            .chunks_exact(LANES)
            .zip(self.pairs.chunks_exact(LANES))
            .position(|(s, p)| s.iter().zip(p).fold(false, |any, (&s, &p)| any | hit(s, p)))
            .unwrap_or(self.sums.len() / LANES)
            * LANES;
        let end = self.sums.len().min(start + LANES);
        (start..end)
            .find(|&m| hit(self.sums[m], self.pairs[m]))
            .map(|m| m + 1)
    }

    /// Reconfigure frame size and maximum delay, preserving as much history
    /// as the new capacity allows, and rebuild the sums. O(N*M).
    pub fn reconfigure(&mut self, config: EngineConfig) -> crate::Result<()> {
        config.validate()?;
        self.config = config;
        self.history.resize(config.history_capacity());
        self.sums = vec![0.0; config.m_max];
        self.pairs = vec![0; config.m_max];
        self.resync();
        Ok(())
    }

    /// Forget all history and sums (e.g. after a detected phase change).
    pub fn reset(&mut self) {
        self.history.clear();
        self.sums.iter_mut().for_each(|s| *s = 0.0);
        self.pairs.iter_mut().for_each(|p| *p = 0);
    }

    /// Return to the exact as-constructed state — including the lifetime
    /// push counters, which [`IncrementalEngine::reset`] deliberately
    /// keeps — while retaining every buffer allocation. An engine after
    /// `reset_fresh` is observably (and serialization-byte) identical to
    /// `IncrementalEngine::new` with the same metric and config; the
    /// stream-table hot-state pool relies on that to recycle detectors
    /// without reallocating.
    pub(crate) fn reset_fresh(&mut self) {
        self.reset();
        self.history.set_pushed(0);
        self.pushed = 0;
    }

    /// Access the retained history, oldest first (test/diagnostic helper).
    pub fn history_vec(&self) -> Vec<T> {
        self.history.to_vec()
    }

    /// The retained sample pushed `age` steps ago (`0` = newest).
    #[inline]
    pub fn history_ago(&self, age: usize) -> Option<T> {
        self.history.ago(age)
    }

    /// Borrow the metric driving this engine.
    #[inline]
    pub fn metric_ref(&self) -> &M {
        &self.metric
    }

    /// Serialize the engine state (not the configuration — the caller owns
    /// that) into `w`. `put` encodes one sample of `T`.
    pub(crate) fn snapshot_state(
        &self,
        w: &mut SnapshotWriter,
        put: &impl Fn(&mut SnapshotWriter, T),
    ) {
        w.u64(self.pushed);
        let hist = self.history.to_vec();
        w.u64(hist.len() as u64);
        for &s in &hist {
            put(w, s);
        }
        w.u64(self.history.pushed());
        w.u64(self.sums.len() as u64);
        for &s in &self.sums {
            w.f64(s);
        }
        for &p in &self.pairs {
            w.u64(u64::from(p));
        }
    }

    /// Rebuild an engine from serialized state under a known-valid
    /// configuration. The running sums are restored verbatim — **never**
    /// re-derived via [`IncrementalEngine::resync`], which could differ from
    /// the incrementally-maintained values in the last ulp.
    pub(crate) fn restore_state<'a>(
        metric: M,
        config: EngineConfig,
        r: &mut SnapshotReader<'a>,
        get: &impl Fn(&mut SnapshotReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let mut engine =
            IncrementalEngine::new(metric, config).map_err(|_| SnapshotError::Malformed {
                what: "engine configuration fails validation",
            })?;
        let pushed = r.u64()?;
        let hist_len = r.count(
            config.history_capacity(),
            "history longer than configured capacity",
        )?;
        for _ in 0..hist_len {
            let s = get(r)?;
            engine.history.push(s);
        }
        engine.history.set_pushed(r.u64()?);
        let m_max = r.u64()? as usize;
        if m_max != config.m_max {
            return Err(SnapshotError::Malformed {
                what: "sums length disagrees with configured max delay",
            });
        }
        for s in engine.sums.iter_mut() {
            *s = r.f64()?;
        }
        for p in engine.pairs.iter_mut() {
            let v = r.u64()?;
            if v > u64::from(u32::MAX) {
                return Err(SnapshotError::Malformed {
                    what: "pair count overflows 32 bits",
                });
            }
            *p = v as u32;
        }
        engine.pushed = pushed;
        Ok(engine)
    }
}

/// Pair-sum of aligned samples, accumulated in [`LANES`] independent lanes
/// so LLVM vectorizes it. Exact metrics only: their pair contributions are
/// small integers, so the order of summation does not change the sum.
fn lane_sum<T: Copy, M: Metric<T>>(metric: &M, frame: &[T], delayed: &[T]) -> f64 {
    let (frame_chunks, delayed_chunks) = (frame.chunks_exact(LANES), delayed.chunks_exact(LANES));
    let tail = frame_chunks
        .remainder()
        .iter()
        .zip(delayed_chunks.remainder())
        .fold(0.0, |acc, (&a, &b)| acc + metric.pair(a, b));
    let mut lanes = [0.0f64; LANES];
    for (a, b) in frame_chunks.zip(delayed_chunks) {
        for k in 0..LANES {
            lanes[k] += metric.pair(a[k], b[k]);
        }
    }
    lanes.iter().fold(tail, |acc, &lane| acc + lane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{direct_distance, EventMetric, L1Metric};

    fn feed<T: Copy, M: Metric<T>>(engine: &mut IncrementalEngine<T, M>, data: &[T]) {
        for &s in data {
            engine.push(s);
        }
    }

    #[test]
    fn config_validation() {
        assert!(EngineConfig {
            frame: 0,
            m_max: 1,
            resync_interval: 0
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            frame: 4,
            m_max: 0,
            resync_interval: 0
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            frame: 4,
            m_max: 5,
            resync_interval: 0
        }
        .validate()
        .is_err());
        assert!(EngineConfig::square(8).validate().is_ok());
    }

    #[test]
    fn periodic_event_stream_zero_at_period() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(8)).unwrap();
        let data: Vec<i64> = (0..32).map(|i| [5, 7, 9, 11][i % 4]).collect();
        feed(&mut e, &data);
        assert!(e.is_warm());
        assert_eq!(e.distance(4), Some(0.0));
        assert_eq!(e.distance(8), Some(0.0)); // harmonic
        assert_eq!(e.distance(3), Some(1.0));
        assert_eq!(e.first_zero(), Some(4));
    }

    #[test]
    fn incremental_matches_direct_for_events() {
        // pseudo-random-ish but deterministic data
        let data: Vec<i64> = (0..200).map(|i| (i * i % 17) as i64).collect();
        let cfg = EngineConfig {
            frame: 16,
            m_max: 12,
            resync_interval: 0,
        };
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        for (t, &s) in data.iter().enumerate() {
            e.push(s);
            let seen = &data[..=t];
            for m in 1..=12 {
                if let Some(direct) = direct_distance(&EventMetric, seen, 16, m) {
                    assert_eq!(e.distance(m), Some(direct), "mismatch at t={t} m={m}");
                }
            }
        }
    }

    #[test]
    fn incremental_matches_direct_for_l1() {
        let data: Vec<f64> = (0..150)
            .map(|i| ((i as f64) * 0.7).sin() * 10.0 + (i % 5) as f64)
            .collect();
        let cfg = EngineConfig {
            frame: 20,
            m_max: 15,
            resync_interval: 0,
        };
        let mut e = IncrementalEngine::new(L1Metric, cfg).unwrap();
        for (t, &s) in data.iter().enumerate() {
            e.push(s);
            let seen = &data[..=t];
            for m in 1..=15 {
                if let Some(direct) = direct_distance(&L1Metric, seen, 20, m) {
                    let inc = e.distance(m).unwrap();
                    assert!(
                        (inc - direct).abs() < 1e-9,
                        "drift at t={t} m={m}: {inc} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn resync_is_semantically_noop() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).cos() * 4.0).collect();
        let cfg = EngineConfig {
            frame: 10,
            m_max: 8,
            resync_interval: 0,
        };
        let mut a = IncrementalEngine::new(L1Metric, cfg).unwrap();
        let mut b = IncrementalEngine::new(
            L1Metric,
            EngineConfig {
                resync_interval: 7,
                ..cfg
            },
        )
        .unwrap();
        for &s in &data {
            a.push(s);
            b.push(s);
        }
        for m in 1..=8 {
            let da = a.distance(m).unwrap();
            let db = b.distance(m).unwrap();
            assert!((da - db).abs() < 1e-9, "m={m}: {da} vs {db}");
        }
    }

    #[test]
    fn warmup_accounting() {
        let cfg = EngineConfig {
            frame: 6,
            m_max: 4,
            resync_interval: 0,
        };
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        assert_eq!(e.warmup_len(), 10);
        for i in 0..9i64 {
            e.push(i);
            assert!(!e.is_warm());
        }
        e.push(9);
        assert!(e.is_warm());
        for m in 1..=4 {
            assert!(e.is_complete(m), "m={m} incomplete after warmup");
        }
    }

    #[test]
    fn is_warm_follows_retained_history_after_reset() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(4)).unwrap();
        feed(&mut e, &[1i64; 8]);
        assert!(e.is_warm());
        e.reset();
        assert!(!e.is_warm(), "reset empties every frame");
        for i in 0..8 {
            assert_eq!(e.is_warm(), (1..=4).all(|m| e.is_complete(m)), "i={i}");
            e.push(1);
        }
        assert!(e.is_warm());
    }

    #[test]
    fn is_warm_follows_retained_history_after_growing_reconfigure() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(4)).unwrap();
        feed(&mut e, &[1i64; 8]);
        assert!(e.is_warm());
        e.reconfigure(EngineConfig::square(8)).unwrap();
        assert!(!e.is_warm(), "the grown delays lack full frames");
        assert!(!e.is_complete(8));
        for i in 0..8 {
            assert_eq!(e.is_warm(), (1..=8).all(|m| e.is_complete(m)), "i={i}");
            e.push(1);
        }
        assert!(e.is_warm());
    }

    #[test]
    fn distance_none_before_any_pairs() {
        let cfg = EngineConfig::square(4);
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        assert_eq!(e.distance(1), None);
        e.push(1i64);
        assert_eq!(e.distance(1), None); // still no pair: needs 2 samples
        e.push(1);
        assert_eq!(e.distance(1), Some(0.0));
    }

    #[test]
    fn reconfigure_preserves_recent_history() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(16)).unwrap();
        let data: Vec<i64> = (0..64).map(|i| [1, 2, 3][i % 3]).collect();
        feed(&mut e, &data);
        assert_eq!(e.first_zero(), Some(3));
        e.reconfigure(EngineConfig::square(6)).unwrap();
        assert_eq!(e.first_zero(), Some(3), "period survives shrink");
        // and it keeps working for further pushes
        for i in 64..90 {
            e.push([1, 2, 3][i % 3]);
        }
        assert_eq!(e.first_zero(), Some(3));
    }

    #[test]
    fn reset_clears_detection() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(6)).unwrap();
        let data: Vec<i64> = (0..24).map(|i| [1, 2][i % 2]).collect();
        feed(&mut e, &data);
        assert_eq!(e.first_zero(), Some(2));
        e.reset();
        assert_eq!(e.first_zero(), None);
        assert_eq!(e.distance(1), None);
    }

    #[test]
    fn period_larger_than_window_not_detected() {
        // paper §3.1: "if the periodicity m ... is larger than the data
        // window size N, then the pattern and its periodicity cannot be
        // captured by the detector".
        let period = 12usize;
        let data: Vec<i64> = (0..96).map(|i| (i % period) as i64).collect();
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(8)).unwrap();
        feed(&mut e, &data);
        assert_eq!(e.first_zero(), None);
    }

    #[test]
    fn spectrum_snapshot_matches_distances() {
        let data: Vec<i64> = (0..40).map(|i| [4, 5, 6, 7, 8][i % 5]).collect();
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(10)).unwrap();
        feed(&mut e, &data);
        let s = e.spectrum();
        for m in 1..=10 {
            assert_eq!(s.at(m), e.distance(m), "m={m}");
        }
        assert_eq!(s.zeros(), vec![5, 10]);
    }

    // --- batch ingestion ---

    /// Clone-free helper: feed `data` through per-sample pushes into one
    /// engine and through `push_slice` chunks into another, then assert the
    /// observable state matches bit-for-bit.
    fn assert_batch_equivalent<T, M>(metric: M, cfg: EngineConfig, data: &[T], chunks: &[usize])
    where
        T: Copy + std::fmt::Debug + PartialEq,
        M: Metric<T>,
    {
        let mut single = IncrementalEngine::new(metric.clone(), cfg).unwrap();
        let mut batch = IncrementalEngine::new(metric, cfg).unwrap();
        for &s in data {
            single.push(s);
        }
        let mut rest = data;
        let mut it = chunks.iter().copied().cycle();
        while !rest.is_empty() {
            let k = it.next().unwrap().clamp(1, rest.len());
            let (now, later) = rest.split_at(k);
            batch.push_slice(now);
            rest = later;
        }
        assert_eq!(single.pushed(), batch.pushed());
        for m in 1..=cfg.m_max {
            assert_eq!(
                single.pair_sum(m).map(f64::to_bits),
                batch.pair_sum(m).map(f64::to_bits),
                "pair_sum mismatch at m={m}"
            );
            assert_eq!(single.is_complete(m), batch.is_complete(m), "m={m}");
            assert_eq!(
                single.distance(m).map(f64::to_bits),
                batch.distance(m).map(f64::to_bits),
                "distance mismatch at m={m}"
            );
        }
        assert_eq!(single.history_vec(), batch.history_vec());
    }

    #[test]
    fn push_slice_bit_identical_events() {
        let data: Vec<i64> = (0..700).map(|i| (i * 31 % 13) as i64).collect();
        let cfg = EngineConfig {
            frame: 24,
            m_max: 20,
            resync_interval: 0,
        };
        assert_batch_equivalent(EventMetric, cfg, &data, &[1, 7, 64, 3, 200]);
    }

    #[test]
    fn push_slice_bit_identical_l1_with_resync() {
        let data: Vec<f64> = (0..900)
            .map(|i| ((i as f64) * 0.37).sin() * 5.0 + ((i * 7) % 11) as f64 * 0.1)
            .collect();
        let cfg = EngineConfig {
            frame: 32,
            m_max: 24,
            resync_interval: 53,
        };
        assert_batch_equivalent(L1Metric, cfg, &data, &[5, 1, 97, 13]);
    }

    #[test]
    fn push_slice_crossing_warmup_boundary() {
        // One slice covering warmup and steady state in a single call.
        let data: Vec<i64> = (0..300).map(|i| [3, 1, 4, 1, 5][i % 5]).collect();
        let cfg = EngineConfig {
            frame: 40,
            m_max: 40,
            resync_interval: 0,
        };
        assert_batch_equivalent(EventMetric, cfg, &data, &[300]);
    }

    #[test]
    fn push_slice_empty_is_noop() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(8)).unwrap();
        e.push_slice(&[]);
        assert_eq!(e.pushed(), 0);
        feed(&mut e, &[1, 2, 1, 2]);
        let before: Vec<Option<f64>> = (1..=8).map(|m| e.pair_sum(m)).collect();
        e.push_slice(&[]);
        let after: Vec<Option<f64>> = (1..=8).map(|m| e.pair_sum(m)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn push_slice_after_reset_replays_warmup() {
        let data: Vec<i64> = (0..60).map(|i| [9, 8, 7][i % 3]).collect();
        let cfg = EngineConfig::square(8);
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        e.push_slice(&data);
        assert_eq!(e.first_zero(), Some(3));
        e.reset();
        assert_eq!(e.first_zero(), None);
        e.push_slice(&data);
        assert_eq!(e.first_zero(), Some(3));
    }
}

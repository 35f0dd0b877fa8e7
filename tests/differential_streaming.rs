//! Differential test: the event-stream `StreamingDpd` against a
//! from-scratch reference.
//!
//! The reference keeps the whole stream, takes `direct_distance` for every
//! delay at every sample, and runs the detector's documented state machine
//! on those distances. The detector under test maintains its sums
//! incrementally, updates only the locked delay while locked, and recounts
//! all sums when a lock is lost; none of that may be observable. Streams
//! lock, break mid-period and at period boundaries, and relock, over
//! windows 1..=64 with confirm and lose counts 1..=3, fed through both
//! `push` and `push_slice`.
//!
//! Case `i` runs window `1 + i % 64` and the `i % 9`-th (confirm, lose)
//! pair, with a stream and chunking drawn from a seed derived from the base
//! seed (`DPD_DIFF_SEED`, default fixed) and `i`. A failure prints both;
//! replay one case with
//! `DPD_DIFF_SEED=<seed> DPD_DIFF_CASE=<i> cargo test --test differential_streaming`.

use dpd::core::metric::{direct_distance, EventMetric, Metric, MismatchFraction};
use dpd::core::minima::MinimaPolicy;
use dpd::core::snapshot::{Restore, Snapshot};
use dpd::core::streaming::{SegmentEvent, StreamStats, StreamingConfig, StreamingDpd};
use proptest::TestRng;

/// A generated stream of periodic segments with breaks and relocks.
fn gen_stream(rng: &mut TestRng, window: usize) -> Vec<i64> {
    let target = 6 * window + 150;
    let mut out: Vec<i64> = Vec::with_capacity(target + 4 * window);
    while out.len() < target {
        // Mostly lockable periods; sometimes one the window cannot capture.
        let period = if rng.below(6) == 0 {
            window + 1 + rng.below(window as u64 + 2) as usize
        } else {
            1 + rng.below(window as u64) as usize
        };
        // Small alphabets make accidental matches (and harmonics) common.
        let alphabet = [2, 3, 5, 1000][rng.below(4) as usize];
        let pattern: Vec<i64> = (0..period).map(|_| rng.below(alphabet) as i64).collect();
        let reps = (window + 2 * period) / period + 1 + rng.below(4) as usize;
        for rep in 0..reps {
            match rng.below(8) {
                // Break mid-period, then resume the pattern from its start.
                0 if rep > 0 => {
                    let k = rng.below(period as u64) as usize;
                    out.extend_from_slice(&pattern[..k]);
                    out.push(-1 - rng.below(3) as i64);
                    out.extend_from_slice(&pattern);
                }
                // Flip one sample inside the period.
                1 => {
                    let k = rng.below(period as u64) as usize;
                    out.extend_from_slice(&pattern);
                    let at = out.len() - period + k;
                    out[at] ^= 1;
                }
                _ => out.extend_from_slice(&pattern),
            }
        }
        // End the segment at a boundary (the loop) or mid-period.
        if rng.below(3) == 0 {
            let k = rng.below(period as u64) as usize;
            out.extend_from_slice(&pattern[..k]);
        }
    }
    out
}

#[derive(Clone, Copy)]
enum RefState {
    Searching {
        candidate: Option<usize>,
        agree: usize,
    },
    Locked {
        period: usize,
        anchor: i64,
        phase: usize,
        misses: usize,
    },
}

/// The documented state machine over from-scratch distances.
struct Reference {
    config: StreamingConfig,
    seen: Vec<i64>,
    state: RefState,
    stats: StreamStats,
}

impl Reference {
    fn new(config: StreamingConfig) -> Self {
        Reference {
            config,
            seen: Vec::new(),
            state: RefState::Searching {
                candidate: None,
                agree: 0,
            },
            stats: StreamStats::default(),
        }
    }

    fn record_boundary(&mut self, period: usize) {
        self.stats.boundaries += 1;
        match self.stats.periods.iter_mut().find(|(p, _)| *p == period) {
            Some(entry) => entry.1 += 1,
            None => self.stats.periods.push((period, 1)),
        }
    }

    fn lose(&mut self, period: usize, position: u64) -> SegmentEvent {
        self.state = RefState::Searching {
            candidate: None,
            agree: 0,
        };
        self.stats.losses += 1;
        SegmentEvent::PeriodLost { period, position }
    }

    fn push(&mut self, sample: i64) -> SegmentEvent {
        self.seen.push(sample);
        let position = self.stats.samples;
        self.stats.samples += 1;
        let n = self.config.window;
        // d(m) for every delay, from the definition.
        let d: Vec<Option<f64>> = (1..=self.config.m_max)
            .map(|m| direct_distance(&EventMetric, &self.seen, n, m))
            .collect();
        match self.state {
            RefState::Searching { candidate, agree } => {
                match d.iter().position(|&v| v == Some(0.0)).map(|i| i + 1) {
                    Some(p) => {
                        let agree = if candidate == Some(p) { agree + 1 } else { 1 };
                        if agree >= self.config.confirm {
                            self.state = RefState::Locked {
                                period: p,
                                anchor: sample,
                                phase: 0,
                                misses: 0,
                            };
                            self.record_boundary(p);
                            SegmentEvent::PeriodStart {
                                period: p,
                                position,
                            }
                        } else {
                            self.state = RefState::Searching {
                                candidate: Some(p),
                                agree,
                            };
                            SegmentEvent::None
                        }
                    }
                    None => {
                        self.state = RefState::Searching {
                            candidate: None,
                            agree: 0,
                        };
                        SegmentEvent::None
                    }
                }
            }
            RefState::Locked {
                period,
                anchor,
                phase,
                misses,
            } => {
                let phase = phase + 1;
                let t = self.seen.len() - 1;
                if phase == period {
                    if sample == anchor && d[period - 1] == Some(0.0) {
                        self.state = RefState::Locked {
                            period,
                            anchor,
                            phase: 0,
                            misses: 0,
                        };
                        self.record_boundary(period);
                        SegmentEvent::PeriodStart { period, position }
                    } else if misses + 1 >= self.config.lose {
                        self.lose(period, position)
                    } else {
                        self.state = RefState::Locked {
                            period,
                            anchor,
                            phase: 0,
                            misses: misses + 1,
                        };
                        SegmentEvent::None
                    }
                } else if t >= period && self.seen[t] != self.seen[t - period] {
                    self.lose(period, position)
                } else {
                    self.state = RefState::Locked {
                        period,
                        anchor,
                        phase,
                        misses,
                    };
                    SegmentEvent::None
                }
            }
        }
    }

    fn locked_period(&self) -> Option<usize> {
        match self.state {
            RefState::Locked { period, .. } => Some(period),
            RefState::Searching { .. } => None,
        }
    }
}

/// The spectrum of `dpd` equals the definition at every delay: `d(m)` from
/// `direct_distance` where the frame is full, a partial frame elsewhere.
fn assert_spectrum_direct<M: Metric<i64>>(
    dpd: &StreamingDpd<i64, M>,
    metric: &M,
    seen: &[i64],
    config: &StreamingConfig,
    ctx: &str,
) {
    let spectrum = dpd.spectrum();
    for m in 1..=config.m_max {
        match direct_distance(metric, seen, config.window, m) {
            Some(d) => {
                assert_eq!(spectrum.at(m), Some(d), "{ctx}: d({m})");
                assert_eq!(
                    spectrum.pairs_at(m),
                    Some(config.window as u32),
                    "{ctx}: m={m}"
                );
            }
            None => {
                let pairs = spectrum.pairs_at(m).unwrap_or(0) as usize;
                let expect = seen.len().saturating_sub(m).min(config.window);
                assert_eq!(pairs, expect, "{ctx}: partial frame at m={m}");
            }
        }
    }
}

fn run_case(base_seed: u64, case: u64) {
    let seed = TestRng::new(base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    let mut rng = TestRng::new(seed);
    let window = 1 + (case % 64) as usize;
    let m_max = if rng.below(4) == 0 {
        1 + rng.below(window as u64) as usize
    } else {
        window
    };
    let config = StreamingConfig {
        window,
        m_max,
        policy: MinimaPolicy::exact(),
        confirm: 1 + (case % 9 / 3) as usize,
        lose: 1 + (case % 3) as usize,
        resync_interval: 0,
    };
    let data = gen_stream(&mut rng, window);
    let ctx = format!(
        "DPD_DIFF_SEED={base_seed} DPD_DIFF_CASE={case} window={window} m_max={m_max} confirm={} lose={}",
        config.confirm, config.lose
    );

    let mut reference = Reference::new(config);
    let mut single = StreamingDpd::new(EventMetric, config).unwrap();
    let mut counts = StreamingDpd::new(MismatchFraction, config).unwrap();
    // Detectors restored from mid-lock snapshots, run beside `single`.
    let mut restored: Vec<StreamingDpd<i64, EventMetric>> = Vec::new();
    let mut expected = Vec::with_capacity(data.len());
    for (t, &s) in data.iter().enumerate() {
        let want = reference.push(s);
        expected.push(want);
        let at = format!("{ctx} t={t}");
        assert_eq!(single.push(s), want, "{at}: event");
        assert_eq!(counts.push(s), want, "{at}: mismatch-count detector event");
        assert_eq!(single.locked_period(), reference.locked_period(), "{at}");
        for (k, dpd) in restored.iter_mut().enumerate() {
            assert_eq!(dpd.push(s), want, "{at}: event of restored detector {k}");
        }
        if single.locked_period().is_none() || rng.below(4) != 0 {
            continue;
        }
        // Mid-lock: the recounted spectrum is the definition's, and the
        // mismatch counts behind it are exact.
        assert_spectrum_direct(&single, &EventMetric, &reference.seen, &config, &at);
        assert_spectrum_direct(&counts, &MismatchFraction, &reference.seen, &config, &at);
        // Mid-lock snapshot: restores, re-snapshots byte-identically and
        // continues with the reference's events.
        if restored.len() < 3 && rng.below(8) == 0 {
            let bytes = single.snapshot();
            let dpd = StreamingDpd::<i64, EventMetric>::restore(&bytes)
                .unwrap_or_else(|e| panic!("{at}: restore failed: {e}"));
            assert_eq!(dpd.snapshot(), bytes, "{at}: re-snapshot differs");
            restored.push(dpd);
        }
    }
    assert_eq!(single.stats(), &reference.stats, "{ctx}: stats");
    assert_eq!(
        counts.stats(),
        &reference.stats,
        "{ctx}: mismatch-count stats"
    );
    for dpd in &restored {
        assert_eq!(dpd.stats(), &reference.stats, "{ctx}: restored stats");
    }

    // push_slice in random chunks: the same events, stats and lock.
    let mut batch = StreamingDpd::new(EventMetric, config).unwrap();
    let mut got = Vec::new();
    let mut rest = &data[..];
    while !rest.is_empty() {
        let k = (1 + rng.below(3 * window as u64 + 8) as usize).min(rest.len());
        let (now, later) = rest.split_at(k);
        got.extend(batch.push_slice(now));
        rest = later;
    }
    let want: Vec<SegmentEvent> = expected
        .iter()
        .copied()
        .filter(|e| *e != SegmentEvent::None)
        .collect();
    assert_eq!(got, want, "{ctx}: push_slice events");
    assert_eq!(batch.stats(), &reference.stats, "{ctx}: push_slice stats");
    assert_eq!(batch.locked_period(), reference.locked_period(), "{ctx}");
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

#[test]
fn streaming_dpd_matches_from_scratch_reference() {
    let base_seed = env_u64("DPD_DIFF_SEED").unwrap_or(0x5eed_d1ff);
    let cases = match env_u64("DPD_DIFF_CASE") {
        Some(case) => case..case + 1,
        None => 0..128,
    };
    for case in cases {
        if let Err(payload) = std::panic::catch_unwind(|| run_case(base_seed, case)) {
            eprintln!(
                "differential case failed: replay with DPD_DIFF_SEED={base_seed} \
                 DPD_DIFF_CASE={case} cargo test --test differential_streaming"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

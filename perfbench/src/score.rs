//! The event sink every replay path drains into: per-stream event-log
//! digests (compared against the oracle replay) and scoring of detector
//! output against the generator's planted segments.

use crate::gen::Corpus;
use crate::stats::mix64;
use dpd_core::shard::MultiStreamEvent;
use dpd_core::streaming::SegmentEvent;

/// Running fold of one replay's events.
#[derive(Debug, Clone)]
pub struct Fold {
    /// Order-sensitive digest of each stream's event log, by stream id.
    pub digest: Vec<u64>,
    /// Events folded.
    pub events: u64,
    /// Per stream, the index of the planted segment the last event fell in.
    cursor: Vec<u32>,
    /// Per stream, the first index of its segments in `lag`.
    seg_base: Vec<u32>,
    /// Detection lag of every planted segment (`u32::MAX`: not detected).
    lag: Vec<u32>,
}

const UNDETECTED: u32 = u32::MAX;

impl Fold {
    /// An empty fold for `corpus`'s streams.
    pub fn new(corpus: &Corpus) -> Fold {
        let mut seg_base = Vec::with_capacity(corpus.segments.len());
        let mut n = 0u32;
        for segs in &corpus.segments {
            seg_base.push(n);
            n += segs.len() as u32;
        }
        Fold {
            digest: vec![0; corpus.segments.len()],
            events: 0,
            cursor: vec![0; corpus.segments.len()],
            seg_base,
            lag: vec![UNDETECTED; n as usize],
        }
    }

    /// Start a new digest epoch, keeping detection state (a resumed run
    /// is compared on its post-checkpoint events only).
    pub fn reset_digests(&mut self) {
        self.digest.iter_mut().for_each(|d| *d = 0);
    }

    fn mix(&mut self, stream: usize, code: u64) {
        self.digest[stream] = mix64(self.digest[stream] ^ code);
        self.events += 1;
    }

    /// Fold one detector event of `stream`.
    pub fn segment(&mut self, corpus: &Corpus, stream: usize, ev: SegmentEvent) {
        match ev {
            SegmentEvent::PeriodStart { period, position } => {
                self.mix(stream, mix64(1 ^ (period as u64) << 8) ^ position);
                let segs = &corpus.segments[stream];
                let mut c = self.cursor[stream] as usize;
                while c + 1 < segs.len() && position >= segs[c].start + segs[c].len {
                    c += 1;
                }
                self.cursor[stream] = c as u32;
                let g = &segs[c];
                let slot = &mut self.lag[self.seg_base[stream] as usize + c];
                if period == g.period() && position >= g.start && *slot == UNDETECTED {
                    *slot = (position - g.start) as u32;
                }
            }
            SegmentEvent::PeriodLost { period, position } => {
                self.mix(stream, mix64(2 ^ (period as u64) << 8) ^ position)
            }
            SegmentEvent::None => {}
        }
    }

    /// Fold one service event.
    pub fn event(&mut self, corpus: &Corpus, ev: &MultiStreamEvent) {
        match *ev {
            MultiStreamEvent::Segment { stream, event } => {
                self.segment(corpus, stream.0 as usize, event)
            }
            MultiStreamEvent::Closed {
                stream,
                samples,
                period,
            } => {
                let p = period.map_or(0, |p| p as u64 + 1);
                self.mix(stream.0 as usize, mix64(3 ^ p << 8) ^ samples);
            }
        }
    }

    /// Share of planted segments whose period was reported by a
    /// `PeriodStart` inside the segment.
    pub fn recall(&self) -> f64 {
        let hit = self.lag.iter().filter(|&&l| l != UNDETECTED).count();
        hit as f64 / self.lag.len().max(1) as f64
    }

    /// Median samples from a detected segment's start to its first
    /// matching `PeriodStart`.
    pub fn median_lag(&self) -> f64 {
        let lags: Vec<f64> = self
            .lag
            .iter()
            .filter(|&&l| l != UNDETECTED)
            .map(|&l| l as f64)
            .collect();
        crate::stats::median(&lags)
    }

    /// Streams whose digests differ between `self` and `other`.
    pub fn mismatches(&self, other: &Fold) -> usize {
        self.digest
            .iter()
            .zip(&other.digest)
            .filter(|(a, b)| a != b)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Shape;
    use dpd_core::shard::StreamId;

    fn corpus() -> Corpus {
        Corpus::generate(
            1,
            1,
            Shape {
                live: 2,
                ids: 2,
                rec_len: 16,
                records: (20, 20),
                periods: (2, 6),
                seg_len: (100, 150),
            },
        )
    }

    fn start(period: usize, position: u64) -> SegmentEvent {
        SegmentEvent::PeriodStart { period, position }
    }

    #[test]
    fn scores_planted_segments() {
        let c = corpus();
        let mut f = Fold::new(&c);
        let g = &c.segments[0][1];
        let wrong = if g.period() == 2 { 3 } else { 2 };
        f.segment(&c, 0, start(wrong, g.start + 3));
        f.segment(&c, 0, start(g.period(), g.start + 7));
        f.segment(&c, 0, start(g.period(), g.start + 9));
        let planted: usize = c.segments.iter().map(Vec::len).sum();
        assert_eq!(f.recall(), 1.0 / planted as f64);
        assert_eq!(f.median_lag(), 7.0);
    }

    #[test]
    fn digests_are_per_stream_and_order_sensitive() {
        let c = corpus();
        let (mut a, mut b) = (Fold::new(&c), Fold::new(&c));
        for f in [&mut a, &mut b] {
            f.segment(&c, 0, start(3, 40));
        }
        a.segment(&c, 1, start(4, 50));
        a.segment(&c, 1, start(4, 54));
        b.segment(&c, 1, start(4, 54));
        b.segment(&c, 1, start(4, 50));
        assert_eq!(a.mismatches(&b), 1);
        b.reset_digests();
        a.reset_digests();
        let closed = MultiStreamEvent::Closed {
            stream: StreamId(1),
            samples: 320,
            period: Some(4),
        };
        a.event(&c, &closed);
        assert_eq!(a.mismatches(&b), 1);
        b.event(&c, &closed);
        assert_eq!(a.mismatches(&b), 0);
    }
}

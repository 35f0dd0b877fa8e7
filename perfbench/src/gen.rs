//! Seeded workload generation: per-stream planted periodic segments (the
//! ground truth recall and detection lag are scored against) and the DTB
//! encoding of the interleaved record sequence the program receives.

use crate::stats::Rng;
use dpd_trace::dtb::{DtbError, DtbWriter};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// Symbols are drawn from `1..=ALPHABET`: small loop-id-like values, so
/// the DTB varints stay short as in real event traces.
const ALPHABET: u64 = 4093;

/// One planted stable segment: `pattern` repeated from `start` for `len`
/// samples. Patterns hold distinct symbols, so the smallest exact period
/// of the segment is `pattern.len()`.
#[derive(Debug, Clone)]
pub struct Segment {
    /// First stream position of the segment.
    pub start: u64,
    /// Segment length in samples.
    pub len: u64,
    /// The repeated pattern; its length is the planted period.
    pub pattern: Vec<i64>,
}

impl Segment {
    /// The planted period.
    pub fn period(&self) -> usize {
        self.pattern.len()
    }
}

/// Shape of a generated population.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Streams emitting records at once.
    pub live: usize,
    /// Stream ids used over the whole corpus (`>= live`).
    pub ids: usize,
    /// Samples per record (one DTB block each).
    pub rec_len: usize,
    /// Records per stream, inclusive range.
    pub records: (u64, u64),
    /// Planted periods, inclusive range.
    pub periods: (usize, usize),
    /// Planted segment lengths, inclusive range (the last segment of a
    /// stream absorbs the remainder).
    pub seg_len: (u64, u64),
}

/// A generated corpus: per-stream ground truth plus the record order.
#[derive(Debug)]
pub struct Corpus {
    /// Samples per record.
    pub rec_len: usize,
    /// Planted segments of every stream; stream ids are dense indices.
    pub segments: Vec<Vec<Segment>>,
    /// Stream length in samples, by stream id.
    pub stream_len: Vec<u64>,
    /// Emission order: `(stream id, record index within the stream)`.
    pub records: Vec<(u32, u32)>,
}

impl Corpus {
    /// Generate the population `shape` describes from `seed`.
    ///
    /// Records are emitted in shuffled passes over the live slots; a
    /// stream that has emitted all its records frees its slot for the
    /// next unused id, so `live` streams are active at once until the id
    /// pool runs out.
    pub fn generate(seed: u64, salt: u64, shape: Shape) -> Corpus {
        let mut rng = Rng::new(seed, salt);
        let mut segments = Vec::with_capacity(shape.ids);
        let mut stream_len = Vec::with_capacity(shape.ids);
        for _ in 0..shape.ids {
            let len = rng.range(shape.records.0, shape.records.1) * shape.rec_len as u64;
            segments.push(plan_stream(&mut rng, len, shape));
            stream_len.push(len);
        }
        let mut slots: Vec<Option<(u32, u32)>> =
            (0..shape.live).map(|s| Some((s as u32, 0))).collect();
        let mut next_id = shape.live;
        let mut order: Vec<usize> = (0..shape.live).collect();
        let mut records = Vec::new();
        while slots.iter().any(Option::is_some) {
            for i in (1..order.len()).rev() {
                let j = rng.next_u64() as usize % (i + 1);
                order.swap(i, j);
            }
            for &slot in &order {
                let Some((id, rec)) = slots[slot] else {
                    continue;
                };
                records.push((id, rec));
                let total = (stream_len[id as usize] / shape.rec_len as u64) as u32;
                slots[slot] = if rec + 1 < total {
                    Some((id, rec + 1))
                } else if next_id < shape.ids {
                    next_id += 1;
                    Some(((next_id - 1) as u32, 0))
                } else {
                    None
                };
            }
        }
        Corpus {
            rec_len: shape.rec_len,
            segments,
            stream_len,
            records,
        }
    }

    /// Total samples of the corpus.
    pub fn total(&self) -> u64 {
        (self.records.len() * self.rec_len) as u64
    }

    /// Write the samples of record `rec` into `out`.
    pub fn fill_record(&self, (id, rec): (u32, u32), out: &mut Vec<i64>) {
        let segs = &self.segments[id as usize];
        let first = rec as u64 * self.rec_len as u64;
        let mut s = segs.partition_point(|g| g.start + g.len <= first);
        for pos in first..first + self.rec_len as u64 {
            while pos >= segs[s].start + segs[s].len {
                s += 1;
            }
            let g = &segs[s];
            out.push(g.pattern[((pos - g.start) % g.period() as u64) as usize]);
        }
    }

    /// Index of the first record at or after sample `samples` of the
    /// interleaved sequence.
    pub fn record_at(&self, samples: u64) -> usize {
        (samples / self.rec_len as u64).min(self.records.len() as u64) as usize
    }
}

/// Split a stream of `len` samples into planted segments with distinct
/// consecutive periods.
fn plan_stream(rng: &mut Rng, len: u64, shape: Shape) -> Vec<Segment> {
    let mut segs: Vec<Segment> = Vec::new();
    let mut start = 0;
    while start < len {
        let mut seg = rng.range(shape.seg_len.0, shape.seg_len.1);
        if len - start < seg + shape.seg_len.0 {
            seg = len - start;
        }
        let prev = segs.last().map(Segment::period);
        let mut period = rng.range(shape.periods.0 as u64, shape.periods.1 as u64) as usize;
        if Some(period) == prev {
            period = if period < shape.periods.1 {
                period + 1
            } else {
                shape.periods.0
            };
        }
        segs.push(Segment {
            start,
            len: seg,
            pattern: distinct_symbols(rng, period),
        });
        start += seg;
    }
    segs
}

fn distinct_symbols(rng: &mut Rng, n: usize) -> Vec<i64> {
    let mut out: Vec<i64> = Vec::with_capacity(n);
    while out.len() < n {
        let s = rng.range(1, ALPHABET) as i64;
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// A `Write` target whose length can be read while a [`DtbWriter`] owns it.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One encoded DTB container.
#[derive(Debug, Default)]
pub struct Encoded {
    /// The container bytes.
    pub bytes: Vec<u8>,
    /// Byte offset just past each record's frame (declaration frames ride
    /// with the record that follows them).
    pub frame_end: Vec<usize>,
    /// Samples in the container.
    pub samples: u64,
    /// Nanoseconds spent inside `DtbWriter` calls (generation excluded).
    pub encode_ns: u64,
}

/// Values are generated this many records at a time, outside the timed
/// encoder calls.
const GEN_CHUNK: usize = 2048;

/// Encode `records` (in order) as one container; each stream is declared
/// just before its first record in the container, as a live writer would.
pub fn encode(corpus: &Corpus, records: &[(u32, u32)]) -> Result<Encoded, DtbError> {
    let buf = SharedBuf::default();
    let mut encode_ns = 0u64;
    let t0 = Instant::now();
    let mut w = DtbWriter::with_block_len(buf.clone(), corpus.rec_len)?;
    encode_ns += t0.elapsed().as_nanos() as u64;
    let mut declared = vec![false; corpus.segments.len()];
    let mut frame_end = Vec::with_capacity(records.len());
    let mut values = Vec::with_capacity(GEN_CHUNK * corpus.rec_len);
    for chunk in records.chunks(GEN_CHUNK) {
        values.clear();
        for &r in chunk {
            corpus.fill_record(r, &mut values);
        }
        let t0 = Instant::now();
        for (i, &(id, _)) in chunk.iter().enumerate() {
            if !declared[id as usize] {
                declared[id as usize] = true;
                w.declare_events(id as u64, "s")?;
            }
            let v = &values[i * corpus.rec_len..(i + 1) * corpus.rec_len];
            w.push_events(id as u64, v)?;
            frame_end.push(buf.0.borrow().len());
        }
        encode_ns += t0.elapsed().as_nanos() as u64;
    }
    let t0 = Instant::now();
    w.finish()?;
    encode_ns += t0.elapsed().as_nanos() as u64;
    let bytes = std::mem::take(&mut *buf.0.borrow_mut());
    Ok(Encoded {
        bytes,
        frame_end,
        samples: (records.len() * corpus.rec_len) as u64,
        encode_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpd_trace::dtb::{Block, DtbReader};

    fn shape() -> Shape {
        Shape {
            live: 5,
            ids: 12,
            rec_len: 16,
            records: (3, 6),
            periods: (2, 6),
            seg_len: (40, 60),
        }
    }

    #[test]
    fn corpus_is_seeded_and_complete() {
        let a = Corpus::generate(3, 1, shape());
        let b = Corpus::generate(3, 1, shape());
        assert_eq!(a.records, b.records);
        let per_stream: u64 = a.stream_len.iter().sum();
        assert_eq!(a.total(), per_stream);
        for (id, segs) in a.segments.iter().enumerate() {
            let end = segs.last().map(|g| g.start + g.len).unwrap();
            assert_eq!(end, a.stream_len[id]);
            for w in segs.windows(2) {
                assert_ne!(w[0].period(), w[1].period());
            }
        }
    }

    #[test]
    fn encoding_round_trips_record_order() {
        let c = Corpus::generate(9, 2, shape());
        let enc = encode(&c, &c.records).unwrap();
        assert_eq!(enc.frame_end.len(), c.records.len());
        assert_eq!(*enc.frame_end.last().unwrap(), enc.bytes.len());
        let mut r = DtbReader::new(&enc.bytes).unwrap();
        let mut i = 0;
        while let Some(b) = r.next_block() {
            if let Block::Events { stream, values } = b.unwrap() {
                let mut want = Vec::new();
                c.fill_record(c.records[i], &mut want);
                assert_eq!(stream, c.records[i].0 as u64);
                assert_eq!(values, &want[..]);
                i += 1;
            }
        }
        assert_eq!(i, c.records.len());
    }
}

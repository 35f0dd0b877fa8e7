//! Offline replay of a DTB container through one stack of public entry
//! points. The same loop drives the end-to-end replay workloads and every
//! cumulative stack of the per-layer ledger, so the stacks differ only in
//! what consumes the decoded records.

use crate::gen::Corpus;
use crate::score::Fold;
use crate::stats::{ns_since, process_cpu_ns, spin_ns};
use crate::trace::Spans;
use dpd_core::pipeline::DpdBuilder;
use dpd_core::query::QueryDelta;
use dpd_core::shard::{MultiStreamEvent, StreamId, StreamTable};
use dpd_core::streaming::{SegmentEvent, StreamingDpd};
use dpd_core::EventMetric;
use dpd_trace::dtb::{Block, DtbError, DtbReader};
use dpd_trace::pile::EpochMarker;
use par_runtime::service::{MultiStreamDpd, ServiceSnapshot};
use std::path::Path;
use std::time::Instant;

/// Samples decoded per wave: the unit handed to one `ingest` call and
/// the unit whose latency a replay reports.
pub const WAVE_SAMPLES: usize = 16384;

/// What consumes the decoded records.
pub enum Stack<'a> {
    /// Decode only.
    Decode,
    /// One bare `StreamingDpd` per stream, indexed by stream id, dropped
    /// after the stream's last sample.
    Detectors(&'a DpdBuilder),
    /// One `StreamTable` (detector, resolve/create/evict, and whatever
    /// forecasting and queries the builder attaches).
    Table(&'a DpdBuilder),
    /// The `MultiStreamDpd` service the builder describes (inline or
    /// sharded), optionally resumed from a checkpoint.
    Service(&'a DpdBuilder, Option<&'a Path>),
}

/// Benchmark-side instrumentation of one replay.
#[derive(Default)]
pub struct Probe {
    /// Record spans around each public call.
    pub spans: Option<Spans>,
    /// Injected spin, in nanoseconds per decoded sample, after each
    /// decode wave (the attribution self-test).
    pub spin_decode_ns: u64,
    /// Read the shard queue-depth gauges every this many waves (`0`: never).
    pub queue_every: usize,
    /// Start a new digest epoch after this many containers (the oracle
    /// of a run resumed at a container boundary).
    pub split_after: Option<usize>,
    /// End a service stack with a checkpoint to this file instead of
    /// `finish`.
    pub checkpoint: Option<std::path::PathBuf>,
}

/// What one replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Samples decoded and handed to the stack.
    pub samples: u64,
    /// Wall time from the first decode to `finish` returning.
    pub wall_ns: u64,
    /// Process CPU time over the same interval (all threads).
    pub cpu_ns: u64,
    /// Per-wave latency, decode start to `ingest` return with the wave's
    /// events drained, in milliseconds.
    pub wave_ms: Vec<f64>,
    /// Time to construct the service, or to resume it from a checkpoint.
    pub setup_ns: u64,
    /// Time inside `MultiStreamDpd::checkpoint` (fsync included).
    pub checkpoint_ns: u64,
    /// Final service snapshot (service stacks).
    pub snapshot: Option<ServiceSnapshot>,
    /// Query enter deltas drained.
    pub enters: u64,
    /// Query exit deltas drained.
    pub exits: u64,
    /// Largest resident stream count seen between waves (table stacks).
    pub resident_peak: u64,
    /// Accounted table bytes per resident stream at the resident peak.
    pub bytes_per_stream: f64,
    /// Streams created (table stacks).
    pub created: u64,
    /// Streams evicted (table stacks).
    pub evicted: u64,
    /// Scored forecasts and exact hits (table stacks).
    pub forecast: (u64, u64),
    /// Largest shard queue depth read between waves.
    pub queue_depth_max: u64,
}

enum State {
    Decode,
    Detectors {
        builder: DpdBuilder,
        dets: Vec<Option<Box<StreamingDpd<i64, EventMetric>>>>,
        left: Vec<u64>,
    },
    Table {
        table: Box<StreamTable>,
        out: Vec<MultiStreamEvent>,
        deltas: Vec<QueryDelta>,
        seq: u64,
        /// Idle-stream sweep cadence, as the service schedules it.
        sweep_every: u64,
        since_sweep: u64,
    },
    Service(MultiStreamDpd),
}

fn count_deltas(r: &mut Replay, deltas: &[QueryDelta]) {
    use dpd_core::query::QueryChange;
    for d in deltas {
        match d.change {
            QueryChange::Enter => r.enters += 1,
            QueryChange::Exit => r.exits += 1,
        }
    }
}

/// Replay `containers` (in order) through `stack`, folding every event
/// into `fold`.
pub fn replay(
    corpus: &Corpus,
    containers: &[&[u8]],
    stack: &Stack,
    fold: &mut Fold,
    probe: &mut Probe,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let mut state = match stack {
        Stack::Decode => State::Decode,
        Stack::Detectors(b) => State::Detectors {
            builder: (*b).clone(),
            dets: (0..corpus.segments.len()).map(|_| None).collect(),
            left: corpus.stream_len.clone(),
        },
        Stack::Table(b) => State::Table {
            table: Box::new(b.build_table().map_err(|e| e.to_string())?),
            out: Vec::new(),
            deltas: Vec::new(),
            seq: 0,
            sweep_every: (*b)
                .clone()
                .shards(0)
                .service_spec()
                .map_or(0, |s| s.sweep_every),
            since_sweep: 0,
        },
        Stack::Service(b, None) => {
            let t = Instant::now();
            let svc = MultiStreamDpd::from_builder(b).map_err(|e| e.to_string())?;
            r.setup_ns = ns_since(t);
            if let Some(s) = probe.spans.as_mut() {
                s.close("construct", t);
            }
            State::Service(svc)
        }
        Stack::Service(b, Some(path)) => {
            let t = Instant::now();
            let (svc, _) = MultiStreamDpd::resume(b, path).map_err(|e| e.to_string())?;
            r.setup_ns = ns_since(t);
            if let Some(s) = probe.spans.as_mut() {
                s.close("resume", t);
            }
            State::Service(svc)
        }
    };
    let mut flat: Vec<i64> = Vec::with_capacity(2 * WAVE_SAMPLES);
    let mut recs: Vec<(StreamId, usize, usize)> = Vec::new();
    let mut waves = 0usize;
    let cpu_start = process_cpu_ns();
    let t_start = Instant::now();
    for (ci, bytes) in containers.iter().enumerate() {
        if probe.split_after == Some(ci) {
            fold.reset_digests();
        }
        let mut reader = DtbReader::new(bytes).map_err(|e| e.to_string())?;
        let mut done = false;
        while !done {
            let t_wave = Instant::now();
            flat.clear();
            recs.clear();
            while flat.len() < WAVE_SAMPLES {
                match reader.next_block() {
                    None => {
                        done = true;
                        break;
                    }
                    Some(Ok(Block::Events { stream, values })) => {
                        recs.push((StreamId(stream), flat.len(), values.len()));
                        flat.extend_from_slice(values);
                    }
                    Some(Ok(_)) => {}
                    Some(Err(e)) => return Err(dtb_err(e)),
                }
            }
            spin_ns(probe.spin_decode_ns * flat.len() as u64);
            if let Some(s) = probe.spans.as_mut() {
                s.close("decode", t_wave);
            }
            if recs.is_empty() {
                continue;
            }
            r.samples += flat.len() as u64;
            let t_in = Instant::now();
            match &mut state {
                State::Decode => {
                    std::hint::black_box(&flat);
                }
                State::Detectors {
                    builder,
                    dets,
                    left,
                } => {
                    for &(id, off, len) in &recs {
                        let i = id.0 as usize;
                        let det = match &mut dets[i] {
                            Some(d) => d,
                            slot => slot.insert(Box::new(
                                builder.build_detector().map_err(|e| e.to_string())?,
                            )),
                        };
                        for &x in &flat[off..off + len] {
                            let ev = det.push(x);
                            if ev != SegmentEvent::None {
                                fold.segment(corpus, i, ev);
                            }
                        }
                        left[i] -= len as u64;
                        if left[i] == 0 {
                            dets[i] = None;
                        }
                    }
                }
                State::Table {
                    table,
                    out,
                    deltas,
                    seq,
                    sweep_every,
                    since_sweep,
                } => {
                    for &(id, off, len) in &recs {
                        table.ingest(*seq, id, &flat[off..off + len], out);
                        *seq += len as u64;
                    }
                    *since_sweep += flat.len() as u64;
                    if *sweep_every > 0 && *since_sweep >= *sweep_every {
                        table.sweep(*seq);
                        *since_sweep = 0;
                    }
                    for ev in out.drain(..) {
                        fold.event(corpus, &ev);
                    }
                    table.drain_query_deltas(deltas);
                    count_deltas(&mut r, deltas);
                    deltas.clear();
                    let resident = table.len() as u64;
                    if resident > r.resident_peak {
                        r.resident_peak = resident;
                        r.bytes_per_stream = table.accounted_bytes() as f64 / resident as f64;
                    }
                }
                State::Service(svc) => {
                    let batch: Vec<(StreamId, &[i64])> = recs
                        .iter()
                        .map(|&(id, off, len)| (id, &flat[off..off + len]))
                        .collect();
                    svc.ingest(&batch);
                    if let Some(s) = probe.spans.as_mut() {
                        s.close("ingest", t_in);
                    }
                    let t_drain = Instant::now();
                    for ev in svc.drain() {
                        fold.event(corpus, &ev);
                    }
                    let d = svc.drain_query_deltas();
                    count_deltas(&mut r, &d);
                    if let Some(s) = probe.spans.as_mut() {
                        s.close("drain", t_drain);
                    }
                    if probe.queue_every > 0 && waves.is_multiple_of(probe.queue_every) {
                        r.queue_depth_max = r.queue_depth_max.max(queue_depth(svc));
                    }
                }
            }
            if let (Some(s), false) = (probe.spans.as_mut(), matches!(state, State::Service(_))) {
                s.close("consume", t_in);
            }
            waves += 1;
            r.wave_ms.push(ns_since(t_wave) as f64 / 1e6);
        }
    }
    let t_fin = Instant::now();
    match state {
        State::Decode | State::Detectors { .. } => {}
        State::Table {
            mut table,
            mut out,
            seq,
            ..
        } => {
            let st = table.stats();
            r.created = st.created;
            r.evicted = st.evicted;
            r.forecast = (st.forecast_checked, st.forecast_hits);
            table.close_all(seq, &mut out);
            for ev in out.drain(..) {
                fold.event(corpus, &ev);
            }
        }
        State::Service(mut svc) => match &probe.checkpoint {
            Some(path) => {
                let marker = EpochMarker {
                    wave: waves as u64,
                    samples: r.samples,
                    ordinal: 1,
                };
                let t = Instant::now();
                let events = svc.checkpoint(path, marker).map_err(|e| e.to_string())?;
                r.checkpoint_ns = ns_since(t);
                if let Some(s) = probe.spans.as_mut() {
                    s.close("checkpoint", t);
                }
                for ev in &events {
                    fold.event(corpus, ev);
                }
                count_deltas(&mut r, &svc.drain_query_deltas());
                r.snapshot = Some(svc.snapshot());
            }
            None => {
                let (events, deltas, snap) = svc.finish_with_deltas();
                for ev in &events {
                    fold.event(corpus, ev);
                }
                count_deltas(&mut r, &deltas);
                r.snapshot = Some(snap);
            }
        },
    }
    if let Some(s) = probe.spans.as_mut() {
        s.close("finish", t_fin);
    }
    r.wall_ns = ns_since(t_start);
    r.cpu_ns = process_cpu_ns() - cpu_start;
    Ok(r)
}

fn dtb_err(e: DtbError) -> String {
    format!("dtb decode: {e}")
}

/// Largest `dpd_shard_queue_depth` gauge of the service's registry.
pub fn queue_depth(svc: &MultiStreamDpd) -> u64 {
    svc.registry()
        .samples()
        .iter()
        .filter(|(name, _)| name.starts_with("dpd_shard_queue_depth"))
        .map(|(_, v)| *v as u64)
        .max()
        .unwrap_or(0)
}

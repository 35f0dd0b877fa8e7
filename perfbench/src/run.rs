//! The measured runs: the untraced end-to-end run (`--trace 0`) and the
//! traced ledger run (`--trace 1`), with their correctness gates.

use crate::gen::{encode, Corpus};
use crate::replay::{replay, Probe, Replay, Stack};
use crate::score::Fold;
use crate::serve::{connections, plan, session, Session};
use crate::stats::{median, peak_rss_mb, pin_mmap_threshold, quantile, reset_peak_rss, trim_heap};
use crate::trace::Spans;
use crate::workloads::{Kind, Rung};
use dpd_core::shard::MultiStreamEvent;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Repetitions every run makes at least, however long they take.
const MIN_REPS: usize = 3;

/// Offered load of serve-paced, samples per second over all connections.
/// The closed-loop capacity of the same configuration is ~2 Msamples/s
/// on a 2-CPU Intel Xeon host; this is a quarter of it, so the server
/// keeps up with the load on a shared host and the generator keeps time.
pub const SERVE_RATE: f64 = 500_000.0;

/// The generator fell behind (and the serve-paced run is invalid) when
/// the 99th percentile of send time minus due time exceeds this. The
/// generator runs ~0.25 ms late at p99 and catches up when it is
/// preempted (its lateness counts in the ack latency, which runs from the
/// due time); a lag beyond a whole scheduler period means the offered
/// load was not applied.
pub const LAG_LIMIT_MS: f64 = 10.0;

/// Samples of each workload's corpus the ledger stacks replay.
fn ledger_records(kind: Kind, corpus: &Corpus) -> usize {
    let samples: u64 = match kind {
        Kind::Deep => 2_500_000,
        Kind::Wide => 4_500_000,
        Kind::QueryJoin => 1_000_000,
        Kind::Serve => 1_000_000,
    };
    corpus.record_at(samples)
}

/// Allowed |sum of ledger rows - untraced whole| as a share of the whole.
/// The top stack and the whole run the same path, so this bounds the
/// difference of two medians of a few runs each within one process,
/// which spreads by up to ~10% on a 2-CPU Intel Xeon host.
pub const LEDGER_TOLERANCE: f64 = 0.15;

/// Injected self-test spin, as a share of the whole path's ns/sample.
const SPIN_SHARE: f64 = 1.0;

/// Allowed self-test error: the spun row must move by the injected cost
/// within this share of it, every other row by less than this share.
const SELFTEST_TOLERANCE: f64 = 0.25;

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Samples attempted.
    pub attempted: u64,
    /// Samples failed: unacknowledged, unaccounted, or in a repetition
    /// that failed a correctness gate.
    pub failed: u64,
    /// Correctness-gate failures.
    pub errors: Vec<String>,
    /// Raw per-repetition values behind each reported median.
    pub raw: Vec<(String, Vec<f64>)>,
    /// Spans of the traced run, as CSV.
    pub spans_csv: String,
    /// Informational lines (ledger, self-test, validity).
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn raw(&mut self, name: &str, values: Vec<f64>) {
        self.raw.push((name.to_string(), values));
    }

    /// Record gate `what`; a failed gate fails `samples` samples.
    fn gate(&mut self, ok: bool, samples: u64, what: String) {
        if !ok {
            self.failed += samples;
            if !self.errors.contains(&what) {
                self.errors.push(what);
            }
        }
    }
}

/// Where the run keeps checkpoints and result files: under the build
/// directory, inside the checkout.
pub fn work_dir() -> Result<PathBuf, String> {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let dir = base.join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Per-repetition values of the end-to-end metrics that are timed.
#[derive(Default)]
struct Series {
    setup: Vec<f64>,
    rate: Vec<f64>,
    cpu: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
}

impl Series {
    /// One repetition: set-up and timed-interval nanoseconds, samples
    /// completed, CPU nanoseconds and per-unit latencies in ms.
    fn push(&mut self, setup_ns: u64, wall_ns: u64, samples: u64, cpu_ns: u64, lat_ms: &[f64]) {
        self.setup.push(setup_ns as f64 / 1e9);
        self.rate.push(samples as f64 * 1e9 / wall_ns.max(1) as f64);
        self.cpu.push(per_sample(cpu_ns, samples));
        self.p50.push(quantile(lat_ms, 0.5));
        self.p90.push(quantile(lat_ms, 0.9));
    }

    /// Report the medians, the detection scores and the raw values.
    fn report(self, o: &mut Outcome, fold: &Fold) {
        o.metric("setup_s", median(&self.setup), "s");
        o.metric("samples_per_s", median(&self.rate), "1/s");
        o.metric("cpu_ns_per_sample", median(&self.cpu), "ns");
        o.metric("ack_p50_ms", median(&self.p50), "ms");
        o.metric("ack_p90_ms", median(&self.p90), "ms");
        o.metric("period_recall", fold.recall(), "ratio");
        o.metric("detect_lag_samples", fold.median_lag(), "samples");
        o.raw("setup_s", self.setup);
        o.raw("samples_per_s", self.rate);
        o.raw("cpu_ns_per_sample", self.cpu);
        o.raw("ack_p50_ms", self.p50);
        o.raw("ack_p90_ms", self.p90);
    }
}

fn per_sample(ns: u64, samples: u64) -> f64 {
    ns as f64 / samples.max(1) as f64
}

fn total_samples(r: &Replay) -> u64 {
    r.snapshot.as_ref().map_or(0, |s| s.total().samples)
}

/// Fold a server's events into a fresh fold.
fn fold_events(corpus: &Corpus, events: &[MultiStreamEvent]) -> Fold {
    let mut f = Fold::new(corpus);
    for ev in events {
        f.event(corpus, ev);
    }
    f
}

/// The untraced end-to-end run.
pub fn end_to_end(kind: Kind, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let corpus = Corpus::generate(seed, kind.salt(), kind.shape());
    match kind {
        Kind::Serve => serve_paced(&corpus, seconds),
        _ => {
            let mut o = replay_workload(kind, &corpus, seed, seconds)?;
            o.metric("peak_rss_mb", peak_rss_mb(), "MiB");
            Ok(o)
        }
    }
}

/// Deep, wide and query-join: repeated set-up and timed replay.
fn replay_workload(
    kind: Kind,
    corpus: &Corpus,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let builder = kind.builder();
    let total = corpus.total();
    // replay-wide resumes from a checkpoint taken a third of the way in.
    let split = if kind == Kind::Wide {
        corpus.record_at(total / 3)
    } else {
        0
    };
    let ckpt = work_dir()?.join(format!("wide-{seed}-{}.ckpt", std::process::id()));
    let mut base = Fold::new(corpus);
    let mut oracle: Option<Fold> = None;
    if kind == Kind::Wide {
        let pre = encode(corpus, &corpus.records[..split]).map_err(|e| e.to_string())?;
        let suf = encode(corpus, &corpus.records[split..]).map_err(|e| e.to_string())?;
        let mut probe = Probe {
            checkpoint: Some(ckpt.clone()),
            ..Probe::default()
        };
        let r = replay(
            corpus,
            &[&pre.bytes],
            &Stack::Service(&builder, None),
            &mut base,
            &mut probe,
        )?;
        o.notes.push(format!(
            "prelude: {} samples replayed, checkpoint {:.3} s",
            r.samples,
            r.checkpoint_ns as f64 / 1e9
        ));
        // Oracle: the same bytes replayed inline without interruption.
        let mut of = Fold::new(corpus);
        let mut probe = Probe {
            split_after: Some(1),
            ..Probe::default()
        };
        let inline = kind.plain_inline();
        replay(
            corpus,
            &[&pre.bytes, &suf.bytes],
            &Stack::Service(&inline, None),
            &mut of,
            &mut probe,
        )?;
        oracle = Some(of);
    }
    if kind == Kind::QueryJoin {
        // Oracle: forecasting and queries observe; the detector event log
        // must equal a replay with neither attached.
        let all = encode(corpus, &corpus.records).map_err(|e| e.to_string())?;
        let mut of = Fold::new(corpus);
        let plain = kind.plain_inline();
        replay(
            corpus,
            &[&all.bytes],
            &Stack::Service(&plain, None),
            &mut of,
            &mut Probe::default(),
        )?;
        oracle = Some(of);
    }
    let resume = (kind == Kind::Wide).then_some(ckpt.as_path());
    let stack = Stack::Service(&builder, resume);
    let mut series = Series::default();
    let mut first: Option<Fold> = None;
    let t_run = Instant::now();
    while series.setup.len() < MIN_REPS || t_run.elapsed() < Duration::from_secs(seconds) {
        let enc = encode(corpus, &corpus.records[split..]).map_err(|e| e.to_string())?;
        let mut fold = base.clone();
        fold.reset_digests();
        let r = replay(
            corpus,
            &[&enc.bytes],
            &stack,
            &mut fold,
            &mut Probe::default(),
        )?;
        series.push(
            enc.encode_ns + r.setup_ns,
            r.wall_ns,
            r.samples,
            r.cpu_ns,
            &r.wave_ms,
        );
        o.attempted += r.samples;
        o.gate(
            r.samples == enc.samples,
            enc.samples - r.samples.min(enc.samples),
            format!("decoded {} of {} samples", r.samples, enc.samples),
        );
        let accounted = total_samples(&r);
        o.gate(
            accounted == total,
            r.samples,
            format!("final snapshot accounts {accounted} of {total} samples"),
        );
        if kind == Kind::QueryJoin {
            o.gate(
                r.enters == r.exits,
                r.samples,
                format!(
                    "query enters {} != exits {} after finish",
                    r.enters, r.exits
                ),
            );
        }
        if let Some(of) = &oracle {
            let bad = fold.mismatches(of);
            o.gate(
                bad == 0,
                r.samples,
                format!("{bad} streams' event logs differ from the inline oracle"),
            );
        }
        match &first {
            None => first = Some(fold),
            Some(f) => {
                let bad = fold.mismatches(f);
                o.gate(
                    bad == 0,
                    r.samples,
                    format!("{bad} streams' event logs differ between repetitions"),
                );
            }
        }
    }
    let _ = std::fs::remove_file(&ckpt);
    series.report(&mut o, &first.expect("at least one repetition"));
    Ok(o)
}

/// Check one serve session's outputs against the oracle and its inputs.
fn gate_session(o: &mut Outcome, s: &Session, fold: &Fold, oracle: &Fold) {
    o.attempted += s.sent;
    o.failed += s.sent - s.acked.min(s.sent);
    let st = s.report.stats;
    let snap = s.report.snapshot.total().samples;
    o.gate(
        s.acked == s.sent,
        0,
        format!("acked {} of {} samples", s.acked, s.sent),
    );
    o.gate(
        st.samples == s.sent && snap == s.sent,
        s.sent,
        format!(
            "server counted {} and snapshot {snap} of {} samples",
            st.samples, s.sent
        ),
    );
    let shed = st.shed_capacity + st.shed_stalled + st.shed_slow;
    o.gate(
        st.protocol_errors == 0 && shed == 0 && st.disconnected == 0,
        s.sent,
        format!(
            "connections lost: {} protocol errors, {shed} shed, {} disconnected",
            st.protocol_errors, st.disconnected
        ),
    );
    let bad = fold.mismatches(oracle);
    o.gate(
        bad == 0,
        s.sent,
        format!("{bad} streams' wire event logs differ from the inline file replay"),
    );
}

/// Inline file replay of the connections' containers: the wire oracle.
fn wire_oracle(
    corpus: &Corpus,
    kind: Kind,
    plans: &[crate::serve::ConnPlan],
) -> Result<Fold, String> {
    let builder = kind.builder();
    let containers: Vec<&[u8]> = plans.iter().map(|p| p.enc.bytes.as_slice()).collect();
    let mut of = Fold::new(corpus);
    replay(
        corpus,
        &containers,
        &Stack::Service(&builder, None),
        &mut of,
        &mut Probe::default(),
    )?;
    Ok(of)
}

/// serve-paced: repeated open-loop sessions at [`SERVE_RATE`].
fn serve_paced(corpus: &Corpus, seconds: u64) -> Result<Outcome, String> {
    let kind = Kind::Serve;
    pin_mmap_threshold()?;
    let mut o = Outcome::default();
    let builder = kind.builder();
    let conns = connections();
    let (plans, _) = plan(corpus, &corpus.records, SERVE_RATE, conns)?;
    let oracle = wire_oracle(corpus, kind, &plans)?;
    drop(plans);
    // Warm-up session on the first quarter of the schedule: lazy
    // initialisation lands here, not in the measured sessions (each of
    // those starts from a trimmed heap and pays its own page faults, as
    // the first session of a fresh server does).
    let (warm, _) = plan(
        corpus,
        &corpus.records[..corpus.records.len() / 4],
        SERVE_RATE,
        conns,
    )?;
    session(&builder, &warm, true, false)?;
    drop(warm);
    let mut series = Series::default();
    let mut lag99 = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<Fold> = None;
    let t_run = Instant::now();
    while series.setup.len() < MIN_REPS || t_run.elapsed() < Duration::from_secs(seconds) {
        trim_heap();
        reset_peak_rss()?;
        let (plans, encode_ns) = plan(corpus, &corpus.records, SERVE_RATE, conns)?;
        let s = session(&builder, &plans, true, false)?;
        rss.push(peak_rss_mb());
        let fold = fold_events(corpus, &s.report.events);
        gate_session(&mut o, &s, &fold, &oracle);
        series.push(
            encode_ns + s.setup_ns,
            s.wall_ns,
            s.acked,
            s.server_cpu_ns,
            &s.lat_ms,
        );
        let lag = quantile(&s.lag_ms, 0.99);
        lag99.push(lag);
        o.gate(
            lag <= LAG_LIMIT_MS,
            s.sent,
            format!("invalid: generator lag p99 {lag:.3} ms > {LAG_LIMIT_MS} ms"),
        );
        first.get_or_insert(fold);
    }
    o.notes.push(format!(
        "open loop: {conns} connections at {SERVE_RATE} samples/s, generator lag p99 {:.3} ms",
        median(&lag99)
    ));
    o.raw("loadgen.lag_p99_ms", lag99);
    series.report(&mut o, &first.expect("at least one session"));
    o.metric("peak_rss_mb", median(&rss), "MiB");
    o.raw("peak_rss_mb", rss);
    Ok(o)
}

/// One ledger stack measurement.
struct RungRun {
    /// Wall nanoseconds per sample.
    ns: f64,
    /// The replay (every stack but serve).
    replay: Option<Replay>,
    /// The closed-loop session (serve stack).
    session: Option<Session>,
    /// The events the stack emitted.
    fold: Fold,
}

fn run_rung(
    corpus: &Corpus,
    container: &[u8],
    plans: &[crate::serve::ConnPlan],
    rung: &Rung,
    probe: &mut Probe,
) -> Result<RungRun, String> {
    let mut fold = Fold::new(corpus);
    let stack = match rung {
        Rung::Decode => Stack::Decode,
        Rung::Detectors(b) => Stack::Detectors(b),
        Rung::Table(b) => Stack::Table(b),
        Rung::Service(b) | Rung::Sharded(b) => Stack::Service(b, None),
        Rung::Serve(b) => {
            let s = session(b, plans, false, false)?;
            return Ok(RungRun {
                ns: per_sample(s.wall_ns, s.acked),
                fold: fold_events(corpus, &s.report.events),
                replay: None,
                session: Some(s),
            });
        }
    };
    let r = replay(corpus, &[container], &stack, &mut fold, probe)?;
    Ok(RungRun {
        ns: per_sample(r.wall_ns, r.samples),
        replay: Some(r),
        session: None,
        fold,
    })
}

/// Gate a service or serve stack's event log against the reference
/// inline replay of the same bytes.
fn gate_rung(o: &mut Outcome, name: &str, rung: &Rung, run: &RungRun, reference: &Fold) {
    if !matches!(rung, Rung::Service(_) | Rung::Sharded(_) | Rung::Serve(_)) {
        return;
    }
    let (samples, sent) = match (&run.replay, &run.session) {
        (Some(r), _) => (r.samples, r.samples),
        (_, Some(s)) => (s.acked, s.sent),
        _ => (0, 0),
    };
    o.attempted += sent;
    o.gate(
        samples == sent,
        sent - samples.min(sent),
        format!("{name}: acked {samples} of {sent} samples"),
    );
    let bad = run.fold.mismatches(reference);
    o.gate(
        bad == 0,
        sent,
        format!("{name}: {bad} streams' event logs differ from the inline replay"),
    );
}

/// The traced run: per-layer rows from the cumulative stacks, the ledger
/// check, the attribution self-test, snapshot and net layer figures.
pub fn traced(kind: Kind, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let corpus = Corpus::generate(seed, kind.salt(), kind.shape());
    let mut o = Outcome::default();
    let recs = &corpus.records[..ledger_records(kind, &corpus)];
    let enc = encode(&corpus, recs).map_err(|e| e.to_string())?;
    let samples = enc.samples;
    o.metric(
        "dtb.encode_ns_per_sample",
        per_sample(enc.encode_ns, samples),
        "ns",
    );
    o.metric(
        "dtb.bytes_per_sample",
        enc.bytes.len() as f64 / samples as f64,
        "B",
    );
    let plans = if kind == Kind::Serve {
        plan(&corpus, recs, SERVE_RATE, connections())?.0
    } else {
        Vec::new()
    };
    // Reference event log: the workload's service replayed inline.
    let mut reference = Fold::new(&corpus);
    let inline = kind.builder().shards(0);
    let wr = replay(
        &corpus,
        &[&enc.bytes],
        &Stack::Service(&inline, None),
        &mut reference,
        &mut Probe::default(),
    )?;
    o.attempted += wr.samples;
    o.gate(
        total_samples(&wr) == samples,
        samples,
        format!(
            "final snapshot accounts {} of {samples} samples",
            total_samples(&wr)
        ),
    );

    let ladder = kind.ladder();
    let svc_idx = ladder
        .iter()
        .rposition(|(_, r)| matches!(r, Rung::Service(_) | Rung::Sharded(_)))
        .expect("every ladder has a service stack");
    let top = ladder.len() - 1;
    // Warm-up run of the whole path; sizes the self-test's spin.
    let warm = run_rung(
        &corpus,
        &enc.bytes,
        &plans,
        &ladder[top].1,
        &mut Probe::default(),
    )?;
    let spin_ns = (warm.ns * SPIN_SHARE).round().max(1.0) as u64;

    let k = ladder.len();
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut spun: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut whole = Vec::new();
    let mut traced_svc = Vec::new();
    let mut last: Vec<Option<RungRun>> = (0..k).map(|_| None).collect();
    let mut traced_run: Option<(Replay, Spans)> = None;
    let mut round = 0usize;
    let t_run = Instant::now();
    while round < 2 || t_run.elapsed() < Duration::from_secs(seconds) {
        // Alternate the stack order between rounds so slow drift of host
        // speed does not load one end of the ladder.
        let order: Vec<usize> = if round.is_multiple_of(2) {
            (0..k).collect()
        } else {
            (0..k).rev().collect()
        };
        for &i in &order {
            let (name, rung) = &ladder[i];
            let run = run_rung(&corpus, &enc.bytes, &plans, rung, &mut Probe::default())?;
            gate_rung(&mut o, name, rung, &run, &reference);
            plain[i].push(run.ns);
            last[i] = Some(run);
            if !matches!(rung, Rung::Serve(_) | Rung::Sharded(_)) {
                let mut probe = Probe {
                    spin_decode_ns: spin_ns,
                    ..Probe::default()
                };
                let run = run_rung(&corpus, &enc.bytes, &plans, rung, &mut probe)?;
                gate_rung(&mut o, name, rung, &run, &reference);
                spun[i].push(run.ns);
            }
        }
        let run = run_rung(
            &corpus,
            &enc.bytes,
            &plans,
            &ladder[top].1,
            &mut Probe::default(),
        )?;
        whole.push(run.ns);
        let mut probe = Probe {
            spans: Some(Spans::new(Instant::now())),
            queue_every: 16,
            ..Probe::default()
        };
        let run = run_rung(&corpus, &enc.bytes, &plans, &ladder[svc_idx].1, &mut probe)?;
        gate_rung(
            &mut o,
            "traced service",
            &ladder[svc_idx].1,
            &run,
            &reference,
        );
        traced_svc.push(run.ns);
        traced_run = Some((
            run.replay.expect("service stacks replay"),
            probe.spans.expect("traced"),
        ));
        round += 1;
    }

    // Ledger rows: increments between consecutive stacks.
    let med: Vec<f64> = plain.iter().map(|v| median(v)).collect();
    let rows: Vec<f64> = (0..k)
        .map(|i| med[i] - if i == 0 { 0.0 } else { med[i - 1] })
        .collect();
    let whole_med = median(&whole);
    for (i, (name, _)) in ladder.iter().enumerate() {
        o.raw(name, plain[i].clone());
    }
    o.raw("ledger.whole_ns_per_sample", whole.clone());
    let residual = (rows.iter().sum::<f64>() - whole_med) / whole_med;
    let untraced_svc = median(&plain[svc_idx]);
    let overhead = (median(&traced_svc) - untraced_svc) / untraced_svc;
    o.notes.push(format!(
        "ledger: rows sum to {:.1} ns/sample vs untraced whole {:.1} ns/sample \
         (residual {:+.1}%, tolerance {:.0}%): {}",
        rows.iter().sum::<f64>(),
        whole_med,
        residual * 100.0,
        LEDGER_TOLERANCE * 100.0,
        if residual.abs() <= LEDGER_TOLERANCE {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    // Attribution self-test: the spin lands in the decode row only. It
    // covers the serial stacks; in the sharded and serve stacks the spun
    // producer overlaps the workers, so their rows are not additive.
    let spun_med: Vec<f64> = spun.iter().map(|v| median(v)).collect();
    let mut hit = 0.0;
    let mut leak: f64 = 0.0;
    let mut prev = (0.0, 0.0);
    for i in 0..k {
        if spun[i].is_empty() {
            continue;
        }
        let d = ((spun_med[i] - prev.1) - (med[i] - prev.0)) / spin_ns as f64;
        if i == 0 {
            hit = d;
        } else {
            leak = leak.max(d.abs());
        }
        prev = (med[i], spun_med[i]);
    }
    let selftest_ok = (hit - 1.0).abs() <= SELFTEST_TOLERANCE && leak <= SELFTEST_TOLERANCE;
    o.notes.push(format!(
        "self-test: {spin_ns} ns/sample spun after each decode wave moved the decode row by \
         {:.0}% of it and no other row by more than {:.0}% (tolerance {:.0}%): {}",
        hit * 100.0,
        leak * 100.0,
        SELFTEST_TOLERANCE * 100.0,
        if selftest_ok { "PASS" } else { "FAIL" }
    ));

    let row = |name: &str| {
        ladder
            .iter()
            .position(|(n, _)| *n == name)
            .map_or(0.0, |i| rows[i])
    };
    let rung_run = |name: &str| {
        ladder
            .iter()
            .position(|(n, _)| *n == name)
            .and_then(|i| last[i].as_ref())
            .and_then(|r| r.replay.as_ref())
    };
    let (tr, spans) = traced_run.expect("at least one round");
    o.metric(
        "dtb.decode_ns_per_sample",
        row("dtb.decode_ns_per_sample"),
        "ns",
    );
    o.metric(
        "streaming.detector_ns_per_sample",
        row("streaming.detector_ns_per_sample"),
        "ns",
    );
    o.metric(
        "streaming.events_per_ksample",
        reference.events as f64 * 1e3 / samples as f64,
        "events/ksample",
    );
    o.metric(
        "shard.table_ns_per_sample",
        row("shard.table_ns_per_sample"),
        "ns",
    );
    let table = rung_run("shard.table_ns_per_sample").expect("table stack ran");
    o.metric("shard.created", table.created as f64, "count");
    o.metric("shard.evicted", table.evicted as f64, "count");
    o.metric("shard.resident_peak", table.resident_peak as f64, "count");
    o.metric("shard.bytes_per_stream", table.bytes_per_stream, "B");
    o.metric("predict.ns_per_sample", row("predict.ns_per_sample"), "ns");
    let hit_rate = rung_run("predict.ns_per_sample")
        .map_or(0.0, |r| r.forecast.1 as f64 / r.forecast.0.max(1) as f64);
    o.metric("predict.hit_rate", hit_rate, "ratio");
    let q_stream = row("query.stream_ns_per_sample");
    let q_join = row("query.join_ns_per_sample");
    o.metric("query.ns_per_sample", q_stream + q_join, "ns");
    o.metric("query.stream_ns_per_sample", q_stream, "ns");
    o.metric("query.join_ns_per_sample", q_join, "ns");
    o.metric(
        "query.deltas_per_ksample",
        (wr.enters + wr.exits) as f64 * 1e3 / samples as f64,
        "deltas/ksample",
    );
    o.metric("query.join_share", q_join / whole_med, "ratio");
    o.metric(
        "service.ingest_ns_per_sample",
        per_sample(spans.total("ingest"), tr.samples),
        "ns",
    );
    o.metric(
        "service.overhead_ns_per_sample",
        row("service.overhead_ns_per_sample"),
        "ns",
    );
    o.metric(
        "service.shards_ns_per_sample",
        row("service.shards_ns_per_sample"),
        "ns",
    );
    o.metric("service.finish_s", spans.total("finish") as f64 / 1e9, "s");
    o.metric(
        "service.queue_depth_max",
        tr.queue_depth_max as f64,
        "count",
    );
    let shard_samples: Vec<f64> = tr
        .snapshot
        .as_ref()
        .map(|s| s.shards.iter().map(|x| x.samples as f64).collect())
        .unwrap_or_default();
    let mean = shard_samples.iter().sum::<f64>() / shard_samples.len().max(1) as f64;
    let max = shard_samples.iter().cloned().fold(0.0, f64::max);
    o.metric("service.shard_skew", max / mean.max(1.0), "ratio");
    spans.write_csv("traced-service", &mut o.spans_csv);

    snapshot_layer(&mut o, kind, &corpus, &enc.bytes, seed)?;
    net_layer(&mut o, kind, &corpus, row("net.ns_per_sample"))?;

    o.metric("ledger.residual_share", residual, "ratio");
    o.metric(
        "ledger.within_tolerance",
        f64::from(u8::from(residual.abs() <= LEDGER_TOLERANCE)),
        "bool",
    );
    o.metric("trace.overhead_share", overhead, "ratio");
    o.metric("selftest.hit_share", hit, "ratio");
    o.metric("selftest.leak_share", leak, "ratio");
    o.metric("selftest.pass", f64::from(u8::from(selftest_ok)), "bool");
    o.metric(
        "failed_share",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
    );
    Ok(o)
}

/// Checkpoint the workload's service after the ledger corpus and resume
/// it: the snapshot layer's cost and size.
fn snapshot_layer(
    o: &mut Outcome,
    kind: Kind,
    corpus: &Corpus,
    bytes: &[u8],
    seed: u64,
) -> Result<(), String> {
    let path: PathBuf = work_dir()?.join(format!("ledger-{seed}-{}.ckpt", std::process::id()));
    let builder = kind.builder();
    let mut fold = Fold::new(corpus);
    let mut probe = Probe {
        checkpoint: Some(path.clone()),
        spans: Some(Spans::new(Instant::now())),
        ..Probe::default()
    };
    let r = replay(
        corpus,
        &[bytes],
        &Stack::Service(&builder, None),
        &mut fold,
        &mut probe,
    )?;
    let size = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let mut spans = probe.spans.expect("traced");
    let t = Instant::now();
    let resumed = par_runtime::service::MultiStreamDpd::resume(&builder, &path);
    let resume_s = t.elapsed().as_secs_f64();
    spans.close("resume", t);
    spans.write_csv("snapshot", &mut o.spans_csv);
    let (mut svc, _) = resumed.map_err(|e| e.to_string())?;
    svc.flush();
    let restored = svc.snapshot().total().samples;
    drop(svc);
    let _ = std::fs::remove_file(Path::new(&path));
    o.gate(
        restored == r.samples,
        r.samples,
        format!(
            "resumed service accounts {restored} of {} samples",
            r.samples
        ),
    );
    o.metric("snapshot.checkpoint_s", r.checkpoint_ns as f64 / 1e9, "s");
    o.metric("snapshot.bytes", size as f64, "B");
    o.metric("snapshot.resume_s", resume_s, "s");
    Ok(())
}

/// The net layer: one traced open-loop session (serve-paced only).
fn net_layer(o: &mut Outcome, kind: Kind, corpus: &Corpus, net_row: f64) -> Result<(), String> {
    let mut m = [0.0f64; 11];
    if kind == Kind::Serve {
        let builder = kind.builder();
        let (plans, _) = plan(corpus, &corpus.records, SERVE_RATE, connections())?;
        let oracle = wire_oracle(corpus, kind, &plans)?;
        let s = session(&builder, &plans, true, true)?;
        let fold = fold_events(corpus, &s.report.events);
        gate_session(o, &s, &fold, &oracle);
        let st = s.report.stats;
        let hs: Vec<f64> = s.handshake_ns.iter().map(|&n| n as f64 / 1e6).collect();
        m = [
            net_row,
            median(&hs),
            s.frames as f64 / s.acks.max(1) as f64,
            s.write_ns as f64 / 1e6,
            st.frames as f64,
            st.bytes as f64,
            st.protocol_errors as f64,
            (st.shed_capacity + st.shed_stalled + st.shed_slow) as f64,
            st.disconnected as f64,
            quantile(&s.lat_ms, 0.99),
            quantile(&s.lag_ms, 0.99),
        ];
        for (i, sp) in s.spans.iter().enumerate() {
            sp.write_csv(&format!("paced-conn{i}"), &mut o.spans_csv);
        }
    }
    let names: [(&str, &'static str); 11] = [
        ("net.ns_per_sample", "ns"),
        ("net.handshake_ms", "ms"),
        ("net.frames_per_ack", "ratio"),
        ("net.write_blocked_ms", "ms"),
        ("net.frames", "count"),
        ("net.bytes", "B"),
        ("net.protocol_errors", "count"),
        ("net.shed", "count"),
        ("net.disconnected", "count"),
        ("net.ack_p99_ms", "ms"),
        ("loadgen.lag_p99_ms", "ms"),
    ];
    for ((name, unit), v) in names.iter().zip(m) {
        o.metric(name, v, unit);
    }
    Ok(())
}

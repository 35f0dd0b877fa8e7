//! Loopback sessions against `DpdServer`: an open-loop paced generator
//! (the serve-paced workload) and a closed-loop send-as-fast-as-acked
//! client (the serve stack of the ledger).
//!
//! Load comes from this one process: one generator thread writes every
//! connection's frames and reads their acknowledgements, over no more
//! connections than online CPUs. On a 2-CPU host the server's connection
//! workers then share the CPUs with one generator thread, not with one
//! per connection, so the generator is rarely preempted and keeps time.

use crate::gen::{encode, Corpus, Encoded};
use crate::stats::{process_cpu_ns, thread_cpu_ns, Timespec};
use crate::trace::Spans;
use dpd_core::pipeline::DpdBuilder;
use par_runtime::net::{DpdServer, NetConfig, ServeReport, HANDSHAKE_MAGIC};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Wire connections (capped by online CPUs).
pub fn connections() -> usize {
    crate::stats::nproc().clamp(1, 2)
}

/// One connection's encoded frames and their schedule.
pub struct ConnPlan {
    /// Encoded container; frame `k` ends at `enc.frame_end[k]`.
    pub enc: Encoded,
    /// Cumulative samples through frame `k`.
    pub cum: Vec<u64>,
    /// Due time of frame `k`, ns after the session origin.
    pub due_ns: Vec<u64>,
}

/// The paced schedule's granularity: frames due within the same
/// millisecond are due, and sent, together at its start. A server woken
/// for every 16-sample frame spends most of its CPU on wakeups and
/// syscalls, whose cost swings with the load on a shared host; one burst
/// per connection per millisecond keeps the offered rate and makes the
/// CPU per sample measure the decode and ingest path.
pub const BURST_NS: u64 = 1_000_000;

/// Split `records` over the connections by stream id and schedule
/// record `k` at `k * rec_len / rate`, rounded down to a [`BURST_NS`]
/// boundary.
/// Returns the plans and the time spent inside the DTB encoder.
pub fn plan(
    corpus: &Corpus,
    records: &[(u32, u32)],
    rate: f64,
    conns: usize,
) -> Result<(Vec<ConnPlan>, u64), String> {
    let mut recs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); conns];
    let mut due: Vec<Vec<u64>> = vec![Vec::new(); conns];
    let step = corpus.rec_len as f64 * 1e9 / rate;
    for (k, &r) in records.iter().enumerate() {
        let c = r.0 as usize % conns;
        recs[c].push(r);
        due[c].push((k as f64 * step) as u64 / BURST_NS * BURST_NS);
    }
    let mut plans = Vec::with_capacity(conns);
    let mut encode_ns = 0;
    for (recs, due_ns) in recs.into_iter().zip(due) {
        let enc = encode(corpus, &recs).map_err(|e| e.to_string())?;
        encode_ns += enc.encode_ns;
        let cum = (1..=recs.len() as u64)
            .map(|i| i * corpus.rec_len as u64)
            .collect();
        plans.push(ConnPlan { enc, cum, due_ns });
    }
    Ok((plans, encode_ns))
}

/// What the generator measured on one connection.
#[derive(Default)]
struct ConnRun {
    /// Per frame: first covering ack minus due time, ms.
    lat_ms: Vec<f64>,
    /// Per frame: actual send minus due time, ms.
    lag_ms: Vec<f64>,
    /// Highest cumulative ack received.
    acked: u64,
    /// Ack words read.
    acks: u64,
    /// Time spent inside socket writes, ns.
    write_ns: u64,
    /// When the last frame was acknowledged.
    done: Option<Instant>,
    /// Spans around each socket write and ack read (traced sessions).
    spans: Option<Spans>,
}

/// What one session measured.
pub struct Session {
    /// Server start, connects and handshakes, ns (encode not included).
    pub setup_ns: u64,
    /// Per-connection handshake time (connect to handshake read), ns.
    pub handshake_ns: Vec<u64>,
    /// Per-frame ack latency from due time, ms, all connections.
    pub lat_ms: Vec<f64>,
    /// Per-frame generator lag, ms, all connections.
    pub lag_ms: Vec<f64>,
    /// Samples sent.
    pub sent: u64,
    /// Highest acknowledgement summed over connections.
    pub acked: u64,
    /// Frames sent.
    pub frames: u64,
    /// Ack words read.
    pub acks: u64,
    /// Total time in socket writes, ns.
    pub write_ns: u64,
    /// Session origin to last acknowledgement, ns.
    pub wall_ns: u64,
    /// Process CPU minus generator-thread CPU over the session, ns.
    pub server_cpu_ns: u64,
    /// Events, final snapshot and counters the server handed back.
    pub report: ServeReport,
    /// Per-connection spans (traced sessions).
    pub spans: Vec<Spans>,
}

/// One connection as the generator drives it.
struct Conn<'a> {
    sock: TcpStream,
    plan: &'a ConnPlan,
    run: ConnRun,
    /// Bytes of a partial acknowledgement word.
    partial: Vec<u8>,
    /// Frames written.
    sent: usize,
    /// Frames acknowledged.
    acked_frames: usize,
    /// Bytes written.
    off: usize,
}

impl Conn<'_> {
    fn frames(&self) -> usize {
        self.plan.cum.len()
    }

    /// Write every frame that is due (paced) or up to ~64 KiB beyond
    /// what is written (closed loop).
    fn send(&mut self, origin: Instant, paced: bool) -> Result<(), String> {
        let frames = self.frames();
        if self.sent == frames {
            return Ok(());
        }
        let now_ns = origin.elapsed().as_nanos() as u64;
        let mut upto = self.sent;
        if paced {
            while upto < frames && self.plan.due_ns[upto] <= now_ns {
                upto += 1;
            }
        } else {
            while upto < frames && self.plan.enc.frame_end[upto] - self.off < 64 << 10 {
                upto += 1;
            }
            upto = upto.max(self.sent + 1);
        }
        if upto == self.sent {
            return Ok(());
        }
        let end = self.plan.enc.frame_end[upto - 1];
        let t = Instant::now();
        let sent_at = t.duration_since(origin).as_nanos() as f64;
        while self.off < end {
            match self.sock.write(&self.plan.enc.bytes[self.off..end]) {
                Ok(n) => self.off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.read_acks(origin)?;
                    std::thread::sleep(Duration::from_micros(20));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("frame write: {e}")),
            }
        }
        self.run.write_ns += t.elapsed().as_nanos() as u64;
        if let Some(s) = self.run.spans.as_mut() {
            s.close("socket_write", t);
        }
        if paced {
            for k in self.sent..upto {
                self.run
                    .lag_ms
                    .push((sent_at - self.plan.due_ns[k] as f64) / 1e6);
            }
        }
        self.sent = upto;
        Ok(())
    }

    /// Drain every acknowledgement word available without blocking.
    fn read_acks(&mut self, origin: Instant) -> Result<(), String> {
        let mut buf = [0u8; 4096];
        loop {
            let t = Instant::now();
            let r = self.sock.read(&mut buf);
            if let (Some(s), Ok(_)) = (self.run.spans.as_mut(), &r) {
                s.close("ack_read", t);
            }
            match r {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.partial.extend_from_slice(&buf[..n]);
                    let words = self.partial.len() / 8;
                    for w in 0..words {
                        let mut b = [0u8; 8];
                        b.copy_from_slice(&self.partial[w * 8..w * 8 + 8]);
                        self.run.acked = self.run.acked.max(u64::from_le_bytes(b));
                        self.run.acks += 1;
                    }
                    self.partial.drain(..words * 8);
                    let now = Instant::now();
                    let at = now.duration_since(origin).as_nanos() as f64;
                    while self.acked_frames < self.sent
                        && self.plan.cum[self.acked_frames] <= self.run.acked
                    {
                        let due = self.plan.due_ns[self.acked_frames] as f64;
                        self.run.lat_ms.push((at - due) / 1e6);
                        self.acked_frames += 1;
                    }
                    if self.acked_frames == self.frames() {
                        self.run.done = Some(now);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("ack read: {e}")),
            }
        }
    }

    /// Close our side and wait for the server's close, so the server
    /// counts a clean close before it is shut down.
    fn close(mut self) -> Result<ConnRun, String> {
        self.sock
            .shutdown(Shutdown::Write)
            .map_err(|e| e.to_string())?;
        self.sock
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        self.sock
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut sink = [0u8; 256];
        loop {
            match self.sock.read(&mut sink) {
                Ok(0) => return Ok(self.run),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("waiting for server close: {e}")),
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 1;

/// Block until one of `fds` has bytes to read or `ns` nanoseconds have
/// passed (`ppoll` has the same timer precision as a sleep).
fn wait_readable(fds: impl Iterator<Item = i32>, ns: u64) -> Result<(), String> {
    let mut fds: Vec<PollFd> = fds
        .map(|fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: (ns / 1_000_000_000) as i64,
        tv_nsec: (ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` holds `fds.len()` valid entries and `timeout` is valid
    // for the duration of the call; a null signal mask leaves the mask
    // unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(format!("ack wait: {e}"));
        }
    }
    Ok(())
}

/// The generator waits for acknowledgements and due frames in slices no
/// longer than this. On a virtual machine a thread that sleeps for most of
/// a millisecond lets its vCPU halt, and the wake-up then waits for the
/// host: on a 2-CPU Xeon VM such sleeps overslept by 2-28 ms often enough
/// to put the generator's lag p99 past 10 ms, while with 50 us slices it
/// stayed near 0.25 ms.
const WAIT_SLICE_NS: u64 = 50_000;

/// Give up on a session this long after its last due time.
const DEADLINE: Duration = Duration::from_secs(60);

/// Drive every connection from this thread: send each frame when due
/// (paced) or as fast as the sockets take them (closed loop), and time
/// every acknowledgement when it arrives.
fn generate(
    socks: Vec<TcpStream>,
    plans: &[ConnPlan],
    origin: Instant,
    paced: bool,
    traced: bool,
) -> Result<Vec<ConnRun>, String> {
    let mut conns = Vec::with_capacity(plans.len());
    for (sock, plan) in socks.into_iter().zip(plans) {
        sock.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mut run = ConnRun {
            spans: traced.then(|| Spans::new(origin)),
            ..ConnRun::default()
        };
        if plan.cum.is_empty() {
            run.done = Some(origin);
        }
        conns.push(Conn {
            sock,
            plan,
            run,
            partial: Vec::new(),
            sent: 0,
            acked_frames: 0,
            off: 0,
        });
    }
    let last_due = plans
        .iter()
        .filter_map(|p| p.due_ns.last().copied())
        .max()
        .map_or(Duration::ZERO, Duration::from_nanos);
    loop {
        if origin.elapsed() > last_due + DEADLINE {
            let acked: usize = conns.iter().map(|c| c.acked_frames).sum();
            let frames: usize = conns.iter().map(Conn::frames).sum();
            return Err(format!("acks stalled at {acked}/{frames} frames"));
        }
        for c in conns.iter_mut().filter(|c| c.run.done.is_none()) {
            c.send(origin, paced)?;
            c.read_acks(origin)?;
        }
        let open: Vec<&Conn> = conns.iter().filter(|c| c.run.done.is_none()).collect();
        if open.is_empty() {
            break;
        }
        if !paced && open.iter().any(|c| c.sent < c.frames()) {
            continue;
        }
        // Wait for the next acknowledgement or the next due frame,
        // whichever comes first, so acks are timed when they arrive.
        let now_ns = origin.elapsed().as_nanos() as u64;
        let next_due = open
            .iter()
            .filter(|c| c.sent < c.frames())
            .map(|c| c.plan.due_ns[c.sent])
            .min();
        let wait = next_due.map_or(WAIT_SLICE_NS, |d| d.saturating_sub(now_ns));
        if wait > 0 {
            let fds = open.iter().map(|c| c.sock.as_raw_fd());
            wait_readable(fds, wait.min(WAIT_SLICE_NS))?;
        }
    }
    conns.into_iter().map(Conn::close).collect()
}

/// Start a server for `builder`, connect one client per plan, replay
/// the plans from one generator thread and shut the server down.
pub fn session(
    builder: &DpdBuilder,
    plans: &[ConnPlan],
    paced: bool,
    traced: bool,
) -> Result<Session, String> {
    let t_setup = Instant::now();
    let server = DpdServer::start(builder, NetConfig::default(), "127.0.0.1:0")
        .map_err(|e| e.to_string())?;
    let mut socks = Vec::with_capacity(plans.len());
    let mut handshake_ns = Vec::with_capacity(plans.len());
    for _ in plans {
        let t = Instant::now();
        let mut s = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut hello = [0u8; 6];
        s.read_exact(&mut hello).map_err(|e| e.to_string())?;
        if hello[..4] != HANDSHAKE_MAGIC {
            return Err("bad handshake".into());
        }
        handshake_ns.push(t.elapsed().as_nanos() as u64);
        socks.push(s);
    }
    let setup_ns = t_setup.elapsed().as_nanos() as u64;
    let origin = Instant::now() + Duration::from_millis(2);
    let cpu0 = process_cpu_ns();
    let gen0 = thread_cpu_ns();
    let runs = generate(socks, plans, origin, paced, traced);
    let gen_cpu = thread_cpu_ns() - gen0;
    let cpu1 = process_cpu_ns();
    let report = server.shutdown().map_err(|e| e.to_string())?;
    let runs = runs?;
    let mut s = Session {
        setup_ns,
        handshake_ns,
        lat_ms: Vec::new(),
        lag_ms: Vec::new(),
        sent: 0,
        acked: 0,
        frames: 0,
        acks: 0,
        write_ns: 0,
        wall_ns: 0,
        server_cpu_ns: (cpu1 - cpu0).saturating_sub(gen_cpu),
        report,
        spans: Vec::new(),
    };
    let mut last = origin;
    for (run, plan) in runs.into_iter().zip(plans) {
        s.lat_ms.extend(run.lat_ms);
        s.lag_ms.extend(run.lag_ms);
        s.sent += plan.enc.samples;
        s.acked += run.acked;
        s.frames += plan.cum.len() as u64;
        s.acks += run.acks;
        s.write_ns += run.write_ns;
        s.spans.extend(run.spans);
        if let Some(d) = run.done {
            last = last.max(d);
        }
    }
    s.wall_ns = last.saturating_duration_since(origin).as_nanos() as u64;
    Ok(s)
}

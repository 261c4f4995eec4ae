//! Open-loop load generator: one thread drives every connection.
//!
//! Requests go out on a schedule whatever the daemon does, pipelined on
//! each connection, and each answer is timed from when its request was
//! due. One thread multiplexes the sockets with `ppoll`, so the client
//! never needs more threads than connections allow, and a late wake-up
//! shows as generator lateness instead of hiding in the latency.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// splitmix64: the benchmark's seeded stream of request parameters.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nanoseconds since a shared origin.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(crate::trace::now())
    }
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One connection's traffic. The loop asks each lane what is due, hands
/// it every answer in order, and stops when every lane is done.
pub trait Lane {
    /// When the next request is due, if one is ready to go.
    fn next_due(&self) -> Option<u64>;
    /// Take the due request's payload; `now` is when it goes out.
    fn take(&mut self, now: u64) -> Vec<u8>;
    /// The next answer on this connection arrived at `now`.
    fn on_answer(&mut self, now: u64, payload: Vec<u8>);
    /// Called on every loop turn, so a lane can sample its state.
    fn tick(&mut self, _now: u64) {}
    /// Nothing more to send and nothing awaited.
    fn done(&self) -> bool;
}

/// A socket with its unsent bytes and unparsed input.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    input: Vec<u8>,
    buf: Box<[u8]>,
    closed: bool,
}

impl Conn {
    fn flush(&mut self) -> Result<(), String> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err("connection closed while sending".into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Read what has arrived and split off every complete frame.
    fn receive(&mut self, frames: &mut Vec<Vec<u8>>) -> Result<(), String> {
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => self.input.extend_from_slice(&self.buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let mut at = 0;
        while self.input.len() - at >= 4 {
            let len =
                u32::from_le_bytes(self.input[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > revmax_serve::proto::MAX_FRAME {
                return Err(format!("answer frame of {len} bytes exceeds MAX_FRAME"));
            }
            if self.input.len() - at - 4 < len {
                break;
            }
            frames.push(self.input[at + 4..at + 4 + len].to_vec());
            at += 4 + len;
        }
        self.input.drain(..at);
        Ok(())
    }
}

/// The generator: a fixed set of connections, driven open loop.
pub struct OpenLoop {
    conns: Vec<Conn>,
    pub clock: Clock,
}

impl OpenLoop {
    pub fn connect(addr: &str, n: usize, clock: Clock) -> Result<OpenLoop, String> {
        let conns = (0..n)
            .map(|_| {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                // One request per frame: Nagle would hold small frames back.
                stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
                stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
                Ok(Conn {
                    stream,
                    out: Vec::new(),
                    out_pos: 0,
                    input: Vec::new(),
                    buf: vec![0; 64 * 1024].into_boxed_slice(),
                    closed: false,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(OpenLoop { conns, clock })
    }

    /// Drive `lanes[i]` over connection `i` until every lane is done or
    /// `deadline` (clock ns) passes. Returns false on the deadline.
    pub fn run(&mut self, lanes: &mut [&mut dyn Lane], deadline: u64) -> Result<bool, String> {
        assert!(lanes.len() <= self.conns.len(), "one connection per lane");
        let mut frames = Vec::new();
        loop {
            let now = self.clock.ns();
            for (lane, conn) in lanes.iter_mut().zip(&mut self.conns) {
                while lane.next_due().is_some_and(|d| d <= now) {
                    let payload = lane.take(now);
                    conn.out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                    conn.out.extend_from_slice(&payload);
                }
                conn.flush()?;
            }
            for (lane, conn) in lanes.iter_mut().zip(&mut self.conns) {
                conn.receive(&mut frames)?;
                let at = self.clock.ns();
                for f in frames.drain(..) {
                    lane.on_answer(at, f);
                }
                lane.tick(at);
                if conn.closed && !lane.done() {
                    return Err("the daemon closed a connection with requests in flight".into());
                }
            }
            if lanes.iter().all(|l| l.done()) {
                return Ok(true);
            }
            let now = self.clock.ns();
            if now >= deadline {
                return Ok(false);
            }
            let next = lanes.iter().filter_map(|l| l.next_due()).min().unwrap_or(deadline);
            let wait = next.min(deadline).saturating_sub(now).min(50_000_000);
            self.wait(lanes.len(), wait);
        }
    }

    /// Block until a connection is readable or has room for pending
    /// output, or `wait_ns` passes.
    fn wait(&self, n: usize, wait_ns: u64) {
        if wait_ns == 0 {
            return;
        }
        poll_sockets(&self.conns[..n], Duration::from_nanos(wait_ns));
    }

    /// Back to blocking mode, for closed-loop request/answer exchanges.
    pub fn into_blocking(self) -> Result<Vec<TcpStream>, String> {
        self.conns
            .into_iter()
            .map(|c| {
                if !c.input.is_empty() || c.out_pos < c.out.len() {
                    return Err("connection has unconsumed traffic".to_string());
                }
                c.stream.set_nonblocking(false).map_err(|e| format!("blocking: {e}"))?;
                Ok(c.stream)
            })
            .collect()
    }
}

#[cfg(target_os = "linux")]
fn poll_sockets(conns: &[Conn], timeout: Duration) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct TimeSpec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;

    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.out_pos < c.out.len() { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts =
        TimeSpec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout records whose descriptors stay open for the
    // call (the streams outlive it); `ts` is a valid `struct timespec`;
    // a null signal mask leaves the mask unchanged. The return value only
    // says why the wait ended, and every caller re-checks the sockets.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

#[cfg(not(target_os = "linux"))]
fn poll_sockets(_conns: &[Conn], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(50)));
}

/// A pre-built request schedule on one connection, pipelined: the lane
/// records when each request was due, sent and answered, and samples
/// how many were in flight at fixed instants.
pub struct ScheduleLane {
    /// `(due ns, payload)` per request, in due order.
    reqs: Vec<(u64, Vec<u8>)>,
    next: usize,
    pub sent_ns: Vec<u64>,
    /// `(answered ns, payload)` per request, in request order.
    pub answers: Vec<Option<(u64, Vec<u8>)>>,
    inflight: VecDeque<usize>,
    /// Instants at which to sample the backlog, and the samples taken.
    probes: Vec<u64>,
    pub backlog: Vec<u64>,
}

impl ScheduleLane {
    pub fn new(reqs: Vec<(u64, Vec<u8>)>, probes: Vec<u64>) -> ScheduleLane {
        let n = reqs.len();
        ScheduleLane {
            reqs,
            next: 0,
            sent_ns: Vec::with_capacity(n),
            answers: vec![None; n],
            inflight: VecDeque::new(),
            probes,
            backlog: Vec::new(),
        }
    }

    pub fn due_ns(&self, k: usize) -> u64 {
        self.reqs[k].0
    }

    pub fn len(&self) -> usize {
        self.reqs.len()
    }
}

impl Lane for ScheduleLane {
    fn next_due(&self) -> Option<u64> {
        self.reqs.get(self.next).map(|r| r.0)
    }

    fn take(&mut self, now: u64) -> Vec<u8> {
        let k = self.next;
        self.next += 1;
        self.sent_ns.push(now);
        self.inflight.push_back(k);
        std::mem::take(&mut self.reqs[k].1)
    }

    fn on_answer(&mut self, now: u64, payload: Vec<u8>) {
        if let Some(k) = self.inflight.pop_front() {
            self.answers[k] = Some((now, payload));
        }
    }

    /// The backlog counts every request due by the probe instant and not
    /// yet answered, so a generator that falls behind adds to it too.
    fn tick(&mut self, now: u64) {
        while self.backlog.len() < self.probes.len() && now >= self.probes[self.backlog.len()] {
            let due = self.reqs.partition_point(|r| r.0 <= now);
            let answered = self.next - self.inflight.len();
            self.backlog.push(due.saturating_sub(answered) as u64);
        }
    }

    fn done(&self) -> bool {
        self.next == self.reqs.len() && self.inflight.is_empty()
    }
}

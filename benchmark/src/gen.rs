//! The harness's own load generator.
//!
//! One thread per keep-alive connection, at most `min(nproc, 2)` of them. Each
//! connection pipelines up to [`PIPELINE`] requests so the micro-batcher has
//! something to coalesce. An open-loop connection follows a schedule drawn up
//! front and times every request from its *scheduled* send; a closed-loop one
//! keeps the pipeline full. The thread blocks in `ppoll(2)` until the socket is
//! readable or the next send is due — never a spin. (`SO_RCVTIMEO` would be the
//! std way to bound a blocking read, but on this kernel it ticks at 8 ms, far
//! above the 1 ms lag limit; `ppoll` takes a nanosecond timeout.)

use crate::rng::SplitMix64;
use crate::trace::{body_hash, Tracer};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Requests in flight per connection (the reactor's `max_pipeline` is 32).
pub const PIPELINE: usize = 16;
/// A request with no response after this long has failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// How far ahead of a scheduled send the generator wakes to re-arm a short sleep.
const EARLY_WAKE_NS: u64 = 300_000;

/// Builds the requests of one phase.
pub trait RequestSource: Sync {
    /// Appends complete HTTP request number `index` to `out`; returns the
    /// offset in `out` at which its body starts.
    fn write_request(&self, index: usize, out: &mut Vec<u8>) -> usize;

    /// How many requests the source can build; `None` for no limit. A closed
    /// loop that reaches the limit stops sending before the phase ends.
    fn limit(&self) -> Option<usize> {
        None
    }
}

/// Appends an HTTP/1.1 request head for a body of `body_len` bytes.
pub fn write_head(out: &mut Vec<u8>, method: &str, path: &str, body_len: usize) {
    write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: benchmark\r\ncontent-type: application/json\r\ncontent-length: {body_len}\r\n\r\n"
    )
    .expect("writing to a Vec cannot fail");
}

#[derive(Debug, Clone)]
pub enum Pace {
    /// Send request `k` of this connection at `at_ns[k]` after the phase start.
    Open { at_ns: Vec<u64> },
    /// Keep `in_flight` requests (at most [`PIPELINE`]) outstanding until the phase ends.
    Closed { in_flight: usize },
}

pub struct ConnPlan<'a> {
    pub addr: SocketAddr,
    pub source: &'a dyn RequestSource,
    /// Request `k` of this connection is request `first + k * stride` of the phase.
    pub first: usize,
    pub stride: usize,
    pub pace: Pace,
    /// Whether to keep the response body of phase request `index` for the
    /// correctness gate.
    pub keep_body: &'a (dyn Fn(usize) -> bool + Sync),
}

/// One request as the generator saw it. Times are nanoseconds after the phase start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    pub sched_ns: u64,
    pub sent_ns: u64,
    /// How late the generator itself was: `sent_ns` minus the later of the
    /// scheduled send and the moment the pipeline last got room. Time spent
    /// behind a full pipeline is the program's slowness, not the generator's,
    /// and is counted in latency (which runs from `sched_ns`) instead.
    pub lag_ns: u64,
    /// Arrival of the last response byte; `None` when no response came.
    pub done_ns: Option<u64>,
    /// HTTP status; 0 when no response came.
    pub status: u16,
    pub body: Option<Vec<u8>>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Blocks until `fd` is readable or `timeout` passes; true when readable (or
/// hung up, which the following read reports).
fn wait_readable(fd: i32, timeout: Duration) -> bool {
    let mut poll = PollFd { fd, events: POLLIN, revents: 0 };
    let spec =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `poll` and `spec` are live, correctly laid-out (`repr(C)`, matching
    // `struct pollfd` / `struct timespec` on 64-bit Linux) locals for the whole
    // call, `nfds` is 1 for the one-element array, and a null signal mask is allowed.
    let ready = unsafe { ppoll(&mut poll, 1, &spec, std::ptr::null()) };
    ready > 0
}

/// Shrinks this thread's timer slack from the default 50 µs to 1 µs, so a
/// `ppoll` timeout fires close to the scheduled send.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches nothing
    // but the calling thread's scheduler slack; failure is harmless and ignored.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

/// A complete response at the front of `buf`: `(status, body range, total length)`.
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let length = head
        .split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .map_or(Some(0), |(_, value)| value.trim().parse::<usize>().ok())?;
    (buf.len() >= head_end + length).then_some((
        status,
        head_end..head_end + length,
        head_end + length,
    ))
}

/// Drives one connection through its plan and returns a sample per request
/// sent. `span_ns` is the phase length: a closed-loop connection stops sending
/// there; both kinds then wait for what is still in flight.
pub fn run_connection(
    plan: &ConnPlan<'_>,
    t0: Instant,
    span_ns: u64,
    tracer: Option<&Tracer>,
) -> std::io::Result<Vec<Sample>> {
    tighten_timer_slack();
    let mut stream = TcpStream::connect(plan.addr)?;
    stream.set_nodelay(true)?;
    let fd = stream.as_raw_fd();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let timeout_ns = RESPONSE_TIMEOUT.as_nanos() as u64;

    let mut samples: Vec<Sample> = Vec::new();
    // (position in `samples`, trace id of the request body)
    let mut in_flight: VecDeque<(usize, u64)> = VecDeque::with_capacity(PIPELINE);
    let mut tx = Vec::with_capacity(4096);
    let mut rx: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut chunk = vec![0u8; 64 << 10];
    let mut next = 0usize;
    // When the pipeline last went from full to having room.
    let mut room_since_ns = 0u64;
    let depth = match plan.pace {
        Pace::Open { .. } => PIPELINE,
        Pace::Closed { in_flight } => in_flight.min(PIPELINE),
    };

    // Span times are on the tracer's clock, sample times on the phase's.
    let trace_base_ns = tracer.map_or(0, |t| t.ns_at(t0));
    // Waits out the gap before the phase starts (threads are released together).
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    loop {
        let mut now = now_ns();
        let due_at = |next: usize, now: u64| match &plan.pace {
            Pace::Open { at_ns } => at_ns.get(next).copied(),
            Pace::Closed { .. } => {
                let index = plan.first + next * plan.stride;
                (now < span_ns && plan.source.limit().is_none_or(|n| index < n)).then_some(now)
            }
        };
        while in_flight.len() < depth {
            let Some(sched_ns) = due_at(next, now).filter(|&at| at <= now) else { break };
            let index = plan.first + next * plan.stride;
            tx.clear();
            let body_at = plan.source.write_request(index, &mut tx);
            stream.write_all(&tx)?;
            let trace = if tracer.is_some() { body_hash(&tx[body_at..]) } else { 0 };
            in_flight.push_back((samples.len(), trace));
            samples.push(Sample {
                index,
                sched_ns,
                sent_ns: now,
                lag_ns: now - sched_ns.max(room_since_ns).min(now),
                done_ns: None,
                status: 0,
                body: None,
            });
            next += 1;
            now = now_ns();
        }
        let upcoming = due_at(next, now);
        if upcoming.is_none() && in_flight.is_empty() {
            return Ok(samples);
        }
        // Wake for whichever comes first: the next send (if the pipeline has
        // room for it) or the oldest request running out of time.
        let send_wait =
            upcoming.filter(|_| in_flight.len() < depth).map(|at| at.saturating_sub(now));
        let reply_wait = in_flight
            .front()
            .map(|&(at, _)| (samples[at].sent_ns + timeout_ns).saturating_sub(now));
        // A long sleep on this kind of VM overshoots by up to milliseconds at p99
        // (deep idle), a short one by ~100 µs: wake early, then sleep the rest.
        let send_wait =
            send_wait.map(|ns| if ns > 2 * EARLY_WAKE_NS { ns - EARLY_WAKE_NS } else { ns });
        let wait = send_wait.into_iter().chain(reply_wait).min().expect("something is pending");
        if !wait_readable(fd, Duration::from_nanos(wait)) {
            let now = now_ns();
            if in_flight.front().is_some_and(|&(at, _)| now >= samples[at].sent_ns + timeout_ns) {
                // The oldest request timed out: it and everything behind it on
                // this connection have failed (responses come back in order).
                return Ok(samples);
            }
            continue;
        }
        let got = stream.read(&mut chunk)?;
        if got == 0 {
            return Ok(samples);
        }
        let done_ns = now_ns();
        rx.extend_from_slice(&chunk[..got]);
        let mut consumed = 0;
        while let Some((status, body, total)) = parse_response(&rx[consumed..]) {
            if in_flight.len() == depth {
                room_since_ns = done_ns;
            }
            let Some((at, trace)) = in_flight.pop_front() else {
                return Err(std::io::Error::other("response without a request"));
            };
            let sample = &mut samples[at];
            sample.done_ns = Some(done_ns);
            sample.status = status;
            if (plan.keep_body)(sample.index) {
                sample.body = Some(rx[consumed + body.start..consumed + body.end].to_vec());
            }
            if let Some(tracer) = tracer {
                tracer.client_span(trace, trace_base_ns + sample.sent_ns, trace_base_ns + done_ns);
            }
            consumed += total;
        }
        rx.drain(..consumed);
    }
}

/// A seeded arrival schedule: `rate_per_s × span` arrivals placed uniformly at
/// random over `span_ns` and sorted — a Poisson process conditioned on its
/// count, so gaps are exponential-like but every seed offers the same number
/// of requests (an unconditioned count would put ±1/√n of noise into goodput).
pub fn arrival_schedule(rng: &mut SplitMix64, rate_per_s: f64, span_ns: u64) -> Vec<u64> {
    let count = (rate_per_s * span_ns as f64 / 1e9).round() as usize;
    let mut schedule: Vec<u64> = (0..count).map(|_| (rng.unit() * span_ns as f64) as u64).collect();
    schedule.sort_unstable();
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_one_at_a_time() {
        let first = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nx: y\r\n\r\nhi";
        let second = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        let wire = [&first[..], &second[..]].concat();
        let (status, body, total) = parse_response(&wire).unwrap();
        assert_eq!((status, &wire[body], total), (200, &b"hi"[..], first.len()));
        let (status, body, total) = parse_response(&wire[total..]).unwrap();
        assert_eq!((status, body.len(), total), (503, 0, second.len()));
        assert!(parse_response(&wire[..first.len() - 1]).is_none(), "body not complete yet");
    }

    #[test]
    fn arrival_schedule_is_seeded_sorted_and_has_the_exact_count() {
        let draw = |seed| arrival_schedule(&mut SplitMix64::new(seed, 0), 2000.0, 500_000_000);
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert_eq!(draw(8).len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && *a.last().unwrap() < 500_000_000);
    }
}

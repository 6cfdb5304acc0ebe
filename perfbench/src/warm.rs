//! Warm `POST /parallelize` re-serves against an in-process
//! `parsynt-serve` daemon, driven by a closed loop of client threads.

use crate::plans::Tally;
use crate::spans::Spans;
use parsynt_serve::ParallelizeRequest;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One program the clients re-serve, with the plan its cold synthesis
/// rendered.
#[derive(Debug, Clone)]
pub struct Served {
    /// Suite id (for failure messages).
    pub id: &'static str,
    /// The request body.
    pub body: String,
    /// The `"plan":...` member every warm response must carry: the cold
    /// plan, byte for byte, as the daemon's JSON encoder writes it.
    pub plan_member: String,
}

impl Served {
    /// A request for `source` expecting `plan`.
    pub fn new(id: &'static str, source: &str, plan: String) -> Self {
        let request = ParallelizeRequest {
            program: source.to_owned(),
            timeout_ms: None,
            seed: None,
            synth_threads: None,
            brackets: false,
            pair_width: None,
        };
        let body = serde_json::to_string(&request).expect("a request serializes");
        let plan = serde_json::to_string(&plan).expect("a plan serializes");
        Served {
            id,
            body,
            plan_member: format!("\"plan\":{plan}"),
        }
    }

    /// Check a reply: status 200, a cache hit, and the cold plan. The body
    /// is searched rather than decoded, so the clients spend as little of
    /// the shared CPUs as possible.
    fn check(&self, reply: std::io::Result<(u16, String)>) -> Result<(), String> {
        match reply {
            Ok((200, body)) if !body.contains("\"cache_hit\":true") => {
                Err(format!("{}: warm request missed the cache", self.id))
            }
            Ok((200, body)) if !body.contains(&self.plan_member) => {
                Err(format!("{}: warm plan differs from the cold plan", self.id))
            }
            Ok((200, _)) => Ok(()),
            Ok((status, _)) => Err(format!("{}: status {status}", self.id)),
            Err(e) => Err(format!("{}: {e}", self.id)),
        }
    }
}

/// What a closed warm loop measured.
#[derive(Debug, Default)]
pub struct WarmStats {
    /// Latency of every completed request, in microseconds.
    pub latencies_us: Vec<f64>,
    /// Latency of every reference exchange with the echo server, in
    /// microseconds (empty without one).
    pub reference_us: Vec<f64>,
    /// Latencies of requests sent while spans were recorded.
    pub traced_us: Vec<f64>,
    /// Latencies of requests sent while spans were off.
    pub untraced_us: Vec<f64>,
    /// Completion time of every completed request, in seconds since the
    /// loop started.
    pub completions_s: Vec<f64>,
    /// Wall time from the first send to the last reply.
    pub wall: Duration,
    /// Request accounting.
    pub tally: Tally,
}

/// Width of the windows whose median request rate is `rps`.
const RATE_WINDOW_S: f64 = 0.5;

impl WarmStats {
    /// Completed requests per second: the median over the loop's full
    /// half-second windows, so a short stall of the host moves it less
    /// than it moves the overall mean. Loops shorter than three windows
    /// report the overall rate.
    pub fn rps(&self) -> f64 {
        let windows = (self.wall.as_secs_f64() / RATE_WINDOW_S).floor() as usize;
        if windows < 3 {
            return self.latencies_us.len() as f64 / self.wall.as_secs_f64().max(f64::EPSILON);
        }
        let mut counts = vec![0.0; windows];
        for &t in &self.completions_s {
            if let Some(c) = counts.get_mut((t / RATE_WINDOW_S) as usize) {
                *c += 1.0;
            }
        }
        crate::stats::median(&counts).unwrap_or(0.0) / RATE_WINDOW_S
    }
}

/// What one client thread returns: per completed request its latency
/// (µs), completion time (s since the loop started) and whether it was
/// traced; its reference latencies (µs); its tally; its spans.
type ClientOut = (Vec<(f64, f64, bool)>, Vec<f64>, Tally, Spans);

/// Run `clients` closed-loop clients against `addr` until `until` has
/// passed and at least `min_requests` requests completed. Client `c`
/// cycles through `served` starting at offset `c`. With an echo server at
/// `reference`, every request is followed by the same bytes sent to it.
/// With `trace`, every other request of each client records a span, so
/// traced and untraced latencies interleave.
pub fn closed_loop(
    addr: SocketAddr,
    reference: Option<SocketAddr>,
    served: &[Served],
    clients: usize,
    until: Instant,
    min_requests: usize,
    spans: &mut Spans,
) -> WarmStats {
    let per_client = min_requests.div_ceil(clients.max(1));
    let trace = spans.recording();
    let origin = spans.origin();
    let started = Instant::now();
    let results: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                scope.spawn(move || {
                    let mut local = Spans::for_thread(false, origin, c + 1);
                    let mut tally = Tally::default();
                    let mut lat = Vec::new();
                    let mut ref_us = Vec::new();
                    let mut i = 0usize;
                    while i < per_client || Instant::now() < until {
                        let s = &served[(c + i) % served.len()];
                        let traced = trace && i % 2 == 1;
                        local.set_recording(traced);
                        let open = local.begin("service.warm_request", (c * 1_000_000 + i) as u64);
                        let reply = post(addr, &s.body);
                        let took = local.end(open);
                        let ok = tally.check_result("warm request", s.check(reply)).is_some();
                        if ok {
                            let done = started.elapsed().as_secs_f64();
                            lat.push((took.as_secs_f64() * 1e6, done, traced));
                        }
                        if let Some(echo) = reference {
                            let sent = Instant::now();
                            let reply = post(echo, &s.body);
                            let took = sent.elapsed();
                            match reply {
                                Ok((200, body)) if body == s.body => {
                                    ref_us.push(took.as_secs_f64() * 1e6);
                                }
                                other => tally.check(false, || {
                                    format!("reference exchange failed: {other:?}")
                                }),
                            }
                        }
                        i += 1;
                    }
                    (lat, ref_us, tally, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a warm client thread panicked"))
            .collect()
    });
    let mut stats = WarmStats {
        wall: started.elapsed(),
        ..WarmStats::default()
    };
    for (lat, ref_us, tally, local) in results {
        stats.reference_us.extend(ref_us);
        for (us, done, traced) in lat {
            stats.latencies_us.push(us);
            stats.completions_s.push(done);
            if traced {
                stats.traced_us.push(us);
            } else {
                stats.untraced_us.push(us);
            }
        }
        stats.tally.merge(tally);
        spans.absorb(local);
    }
    stats
}

/// One `POST /parallelize` over a fresh connection (the daemon answers
/// `Connection: close`). Returns the status and body.
fn post(addr: SocketAddr, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    reset_on_close(&stream)?;
    let request = format!(
        "POST /parallelize HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("no status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Make dropping `stream` send a reset instead of finishing the close
/// handshake. The daemon closes each connection first, so without this
/// every request would leave a socket in TIME_WAIT for a minute, and the
/// tens of thousands one run leaves behind would slow the next run's
/// connects.
fn reset_on_close(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;

    /// `struct linger` from `<sys/socket.h>`.
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let len = u32::try_from(std::mem::size_of::<Linger>()).expect("struct linger is 8 bytes");
    // SAFETY: the descriptor is an open socket owned by `stream`, which
    // outlives the call; `linger` is a live, correctly laid out
    // `struct linger` and `len` is its size, so the kernel reads only
    // memory we own.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, &linger, len) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(status: u16, cache_hit: bool, plan: &str) -> std::io::Result<(u16, String)> {
        let plan = serde_json::to_string(plan).expect("a plan serializes");
        Ok((
            status,
            format!("{{\"request_id\":\"req-1\",\"cache_hit\":{cache_hit},\"plan\":{plan},\"report\":{{}}}}"),
        ))
    }

    #[test]
    fn a_warm_hit_with_the_cold_plan_passes() {
        let served = Served::new("sum", "src", "join: s = s__l + s__r\n".to_owned());
        assert!(served
            .check(reply(200, true, "join: s = s__l + s__r\n"))
            .is_ok());
    }

    #[test]
    fn misses_other_plans_and_bad_statuses_fail() {
        let served = Served::new("sum", "src", "join: s = s__l + s__r\n".to_owned());
        assert!(served
            .check(reply(200, false, "join: s = s__l + s__r\n"))
            .is_err());
        assert!(served.check(reply(200, true, "join: s = s__r\n")).is_err());
        assert!(served
            .check(reply(503, true, "join: s = s__l + s__r\n"))
            .is_err());
        assert!(served
            .check(Err(std::io::Error::other("connection refused")))
            .is_err());
    }
}

//! Reference operations: fixed work of the benchmark's own that calls no
//! code of the program under test. Each timed operation of a workload is
//! paired with a reference operation of a similar kind run right next to
//! it, and the gated metrics are the ratio of the two. A change in the
//! host's speed moves both alike and cancels; a change in the program
//! moves only the numerator.
//!
//! - execution (`batch`, `stream`): one read pass over the same input, on
//!   the same number of threads, summing every leaf;
//! - warm requests (`synth`): one HTTP exchange of the same request bytes
//!   with an echo server on the loopback interface;
//! - cold synthesis (`synth`): a fixed ordered-map workload, a few times
//!   before each program.

use parsynt_lang::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Sum of every leaf of `v` (booleans count as 0 or 1).
fn walk(v: &Value) -> i64 {
    match v {
        Value::Int(x) => *x,
        Value::Bool(b) => i64::from(*b),
        Value::Seq(items) => items.iter().fold(0i64, |acc, x| acc.wrapping_add(walk(x))),
    }
}

/// One read pass over `main`: its outer elements split into `threads`
/// contiguous ranges, each walked on a scoped thread (inline for one
/// thread), the way the program splits its chunks.
pub fn read_pass(main: &Value, threads: usize) -> i64 {
    let Value::Seq(items) = main else {
        return walk(main);
    };
    if threads <= 1 {
        return walk(main);
    }
    let per = items.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(per)
            .map(|part| scope.spawn(move || part.iter().fold(0i64, |a, x| a.wrapping_add(walk(x)))))
            .collect();
        handles.into_iter().fold(0i64, |acc, h| {
            acc.wrapping_add(h.join().expect("a read-pass thread panicked"))
        })
    })
}

/// Keys [`map_work`] inserts.
const MAP_KEYS: u64 = 20_000;

/// A fixed allocation- and branch-heavy workload on the calling thread:
/// insert pseudo-random keys into an ordered map, then look every one up.
/// It runs on one thread because a short task split over threads waits
/// for its slowest thread, which a host's brief steals of one vCPU
/// stretch far more than they stretch the long synthesis it is paired
/// with.
pub fn map_work() -> u64 {
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys = Vec::with_capacity(MAP_KEYS as usize);
    for i in 0..MAP_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, i);
        keys.push(x);
    }
    keys.iter().fold(0u64, |acc, k| {
        acc.wrapping_add(map.get(k).copied().unwrap_or(0))
    })
}

/// A loopback HTTP server that answers every request with status 200 and
/// the request's own body. It has as many accepting threads as the daemon
/// has workers, so reference requests of concurrent clients do not queue
/// behind each other.
pub struct EchoServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl EchoServer {
    /// Bind an ephemeral local port and start `threads` accepting threads.
    ///
    /// # Errors
    ///
    /// Fails when the port cannot be bound.
    pub fn start(threads: usize) -> Result<EchoServer, String> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot bind the echo server: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("echo server address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(threads.max(1));
        for _ in 0..threads.max(1) {
            let listener = listener
                .try_clone()
                .map_err(|e| format!("echo server listener: {e}"))?;
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(mut conn) = conn {
                        let _ = echo(&mut conn);
                    }
                }
            }));
        }
        Ok(EchoServer {
            addr,
            stop,
            threads: handles,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop every accepting thread and wait for it to end.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        for _ in &self.threads {
            // Wake one blocked `accept`; it sees the flag and returns.
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// Read one request (headers, then `Content-Length` bytes of body) and
/// answer it with its body.
fn echo(conn: &mut TcpStream) -> std::io::Result<()> {
    let mut raw = Vec::with_capacity(1024);
    let mut buf = [0u8; 4096];
    let (head_end, length) = loop {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        raw.extend_from_slice(&buf[..n]);
        if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&raw[..end]);
            let length = head
                .lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                .unwrap_or(0);
            break (end + 4, length);
        }
    };
    while raw.len() < head_end + length {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
    }
    let body = &raw[head_end..raw.len().min(head_end + length)];
    let mut reply = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    reply.extend_from_slice(body);
    conn.write_all(&reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_pass_sums_every_leaf_on_any_thread_count() {
        let v = Value::Seq(
            (0..7)
                .map(|i| Value::Seq(vec![Value::Int(i), Value::Bool(true)]))
                .collect(),
        );
        for threads in [1, 2, 3, 8] {
            assert_eq!(read_pass(&v, threads), 21 + 7);
        }
    }

    #[test]
    fn map_work_repeats() {
        assert_eq!(map_work(), map_work());
    }

    #[test]
    fn echo_server_returns_the_body() {
        let server = EchoServer::start(2).expect("binds");
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .expect("writes");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("reads");
        assert!(reply.starts_with("HTTP/1.1 200 OK"));
        assert!(reply.ends_with("\r\n\r\nhello"));
        server.shutdown();
    }
}

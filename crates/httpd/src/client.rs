//! A load-generating HTTP client.
//!
//! The paper drives its server with clients whose count scales the
//! server's thread count ("the number of threads increases with the
//! increasing number of clients"). [`LoadSpec`] runs that experiment:
//! `clients` threads each issue `requests` GETs/POSTs and report
//! client-observed response times.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use clio_stats::Stopwatch;

use crate::http;

fn round_trip(addr: SocketAddr, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request)?;
    // Half-close so the server sees EOF even without Content-Length.
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp)?;
    http::parse_response(&resp)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))
}

/// Issues one GET; returns `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let req = format!("GET /{path} HTTP/1.0\r\n\r\n");
    round_trip(addr, req.as_bytes())
}

/// Issues one POST; returns `(status, body)` (the body names the file
/// the server created).
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut req =
        format!("POST /{path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
    req.extend_from_slice(body);
    round_trip(addr, &req)
}

/// A persistent HTTP/1.1 connection: several requests share one TCP
/// stream, with responses framed by `Content-Length`.
pub struct Http11Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Http11Client {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self { stream, buf: Vec::new() })
    }

    /// Issues a GET on the shared connection; returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        let req = format!("GET /{path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream.write_all(req.as_bytes())?;
        self.read_framed(false)
    }

    /// Issues a HEAD; returns `(status, advertised content length)`.
    pub fn head(&mut self, path: &str) -> io::Result<(u16, usize)> {
        let req = format!("HEAD /{path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream.write_all(req.as_bytes())?;
        let mut head = self.read_header_block()?;
        let status = parse_status(&head.0)?;
        let cl = http::response_content_length(&head.0).unwrap_or(0);
        // HEAD responses carry no body; nothing further to drain.
        head.1.clear();
        Ok((status, cl))
    }

    /// Issues a POST on the shared connection.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut req = format!(
            "POST /{path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;
        self.read_framed(false)
    }

    /// Reads one header block into a string, returning it plus any
    /// over-read bytes left in the internal buffer.
    fn read_header_block(&mut self) -> io::Result<(String, Vec<u8>)> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(end) = http::header_end(&self.buf) {
                let head = String::from_utf8(self.buf[..end].to_vec())
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF8 header"))?;
                self.buf.drain(..end);
                return Ok((head, Vec::new()));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-header"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn read_framed(&mut self, head_only: bool) -> io::Result<(u16, Vec<u8>)> {
        let (head, _) = self.read_header_block()?;
        let status = parse_status(&head)?;
        let cl = http::response_content_length(&head).unwrap_or(0);
        if head_only {
            return Ok((status, Vec::new()));
        }
        let mut chunk = [0u8; 4096];
        while self.buf.len() < cl {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[..cl].to_vec();
        self.buf.drain(..cl);
        Ok((status, body))
    }
}

fn parse_status(head: &str) -> io::Result<u16> {
    head.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Path each GET fetches.
    pub path: String,
    /// Fraction of requests that are POSTs (0.0 = all GETs).
    pub post_fraction: f64,
    /// Body size for POSTs.
    pub post_bytes: usize,
    /// Reuse one HTTP/1.1 connection per client instead of a fresh
    /// TCP connection per request.
    pub keep_alive: bool,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self {
            clients: 4,
            requests: 8,
            path: "img14063.bin".into(),
            post_fraction: 0.0,
            post_bytes: 4096,
            keep_alive: false,
        }
    }
}

/// Result of a load run: per-request client-side latencies (ms) and the
/// number of failed requests.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Client-observed response times, ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Requests that returned errors or non-2xx statuses.
    pub failures: usize,
}

/// Runs a load specification against a server.
pub fn run_load(addr: SocketAddr, spec: &LoadSpec) -> LoadResult {
    let mut latencies = Vec::new();
    let mut failures = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients.max(1))
            .map(|c| {
                let spec = spec.clone();
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(spec.requests);
                    let mut fails = 0usize;
                    let body = vec![0x5Au8; spec.post_bytes];
                    let mut conn =
                        if spec.keep_alive { Http11Client::connect(addr).ok() } else { None };
                    for r in 0..spec.requests {
                        // Deterministic GET/POST interleaving per client.
                        let do_post = spec.post_fraction > 0.0
                            && ((c * spec.requests + r) as f64 * spec.post_fraction).fract()
                                + spec.post_fraction
                                >= 1.0;
                        let sw = Stopwatch::started();
                        let outcome = match (&mut conn, do_post) {
                            (Some(conn), true) => conn.post("upload", &body),
                            (Some(conn), false) => conn.get(&spec.path),
                            (None, true) => post(addr, "upload", &body),
                            (None, false) => get(addr, &spec.path),
                        };
                        let ms = sw.elapsed_ms();
                        match outcome {
                            Ok((status, _)) if (200..300).contains(&status) => lats.push(ms),
                            _ => fails += 1,
                        }
                    }
                    (lats, fails)
                })
            })
            .collect();
        for h in handles {
            let (lats, fails) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            latencies.extend(lats);
            failures += fails;
        }
    });
    LoadResult { latencies_ms: latencies, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files;
    use crate::server::{Server, ServerConfig};

    #[test]
    fn load_run_all_succeed() {
        crate::skip_unless_socket_tests!();
        let root = files::temp_doc_root("loadgen").unwrap();
        let server = Server::start(ServerConfig::ephemeral(&root)).unwrap();
        let spec = LoadSpec { clients: 3, requests: 4, ..Default::default() };
        let result = run_load(server.addr(), &spec);
        assert_eq!(result.failures, 0);
        assert_eq!(result.latencies_ms.len(), 12);
        assert!(result.latencies_ms.iter().all(|&l| l >= 0.0));
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn load_run_with_posts() {
        crate::skip_unless_socket_tests!();
        let root = files::temp_doc_root("loadpost").unwrap();
        let server = Server::start(ServerConfig::ephemeral(&root)).unwrap();
        let log = server.log();
        let spec = LoadSpec {
            clients: 2,
            requests: 4,
            post_fraction: 0.5,
            post_bytes: 256,
            ..Default::default()
        };
        let result = run_load(server.addr(), &spec);
        assert_eq!(result.failures, 0);
        let writes = log.of_kind(crate::timing::OpKind::Write);
        assert!(!writes.is_empty(), "some requests were POSTs");
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn keep_alive_load_reuses_connections() {
        crate::skip_unless_socket_tests!();
        let root = files::temp_doc_root("loadka").unwrap();
        let server = Server::start(ServerConfig::ephemeral(&root)).unwrap();
        let spec = LoadSpec {
            clients: 3,
            requests: 6,
            keep_alive: true,
            post_fraction: 0.25,
            ..Default::default()
        };
        let result = run_load(server.addr(), &spec);
        assert_eq!(result.failures, 0, "all keep-alive requests succeed");
        assert_eq!(result.latencies_ms.len(), 18);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn get_against_closed_port_errors() {
        crate::skip_unless_socket_tests!();
        // Bind-then-drop to get a (likely) closed port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(get(addr, "x").is_err());
    }
}

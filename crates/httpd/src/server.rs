//! The thread-per-connection web server.
//!
//! Faithful to the paper's design: "A main thread of the web server
//! initializes the system by creating a separate thread to handle each
//! client connection. The main thread continues accepting new
//! connections." GET requests read the named file and return it; POST
//! requests write the body "to a new file created by using a random
//! number generator. Hence, no synchronization is required for write
//! operations."
//!
//! Each file operation is timed twice: real wall time around
//! (1) opening the file, (2) transferring the data, (3) closing it —
//! the exact bracket the paper defines — and the simulated SSCLI cost
//! from [`clio_runtime::SharedManagedIo`] (JIT warmup, managed
//! dispatch, buffer cache), which is what the regenerated Tables 5–6
//! print.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use clio_cache::cache::CacheConfig;
use clio_cache::page::FileId;
use clio_runtime::{JitMethod, JitModel, SharedManagedIo, DO_GET_OPS, DO_POST_OPS};
use clio_stats::Stopwatch;
use parking_lot::Mutex;

use crate::http::{self, Method, ParseError};
use crate::timing::{OpKind, RequestTiming, TimingLog};

/// The TCP port the paper's server listens on.
pub const PAPER_PORT: u16 = 5050;

/// How connections map to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// The paper's design: one fresh thread per accepted connection
    /// ("the number of threads increases with the increasing number of
    /// clients").
    ThreadPerConnection,
    /// A bounded worker pool fed from the accept loop — the extension
    /// the paper's thread-growth remark motivates.
    Pool {
        /// Number of worker threads.
        workers: usize,
    },
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Threading model.
    pub mode: ServerMode,
    /// Directory served by GET and written by POST.
    pub doc_root: PathBuf,
    /// JIT model for the simulated SSCLI cost.
    pub jit: JitModel,
    /// Buffer-cache geometry for the simulated SSCLI cost.
    pub cache: CacheConfig,
    /// Lock stripes of the page cache: concurrent requests only
    /// contend when their pages hash to the same shard (threading
    /// knob; 1 reproduces the paper's single-lock behaviour).
    pub cache_shards: usize,
    /// Managed-dispatch overhead per stream call, ms (the SSCLI's
    /// interpreted-helper path is slow even when warm).
    pub dispatch_ms: f64,
}

impl ServerConfig {
    /// A config bound to an ephemeral port over the given doc root,
    /// with the managed (SSCLI-calibrated) cost model.
    pub fn ephemeral(doc_root: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            mode: ServerMode::ThreadPerConnection,
            doc_root: doc_root.into(),
            jit: JitModel::sscli_like(),
            cache: CacheConfig {
                costs: clio_cache::cache::CacheCostModel::sscli_managed(),
                ..CacheConfig::default()
            },
            cache_shards: 8,
            dispatch_ms: 1.2,
        }
    }
}

struct Shared {
    doc_root: PathBuf,
    log: TimingLog,
    /// Pages are served from the sharded cache inside; only the
    /// name→id registry needs its own (short-lived) lock.
    managed: SharedManagedIo,
    /// The GET and POST handlers, resolved at construction: a warm
    /// request's JIT charge is one atomic increment per stream call.
    do_get: JitMethod,
    do_post: JitMethod,
    ids: Mutex<HashMap<String, FileId>>,
    post_counter: AtomicU64,
    post_seed: u64,
}

impl Shared {
    fn file_id(&self, name: &str) -> FileId {
        let mut ids = self.ids.lock();
        if let Some(&id) = ids.get(name) {
            return id;
        }
        let id = self.managed.register_file(name);
        ids.insert(name.to_string(), id);
        id
    }
}

/// A running server; dropping it without [`Server::stop`] leaks the
/// accept thread until process exit (tests should call `stop`).
pub struct Server {
    addr: SocketAddr,
    log: TimingLog,
    running: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let log = TimingLog::new();
        let managed = SharedManagedIo::new(cfg.cache, cfg.cache_shards, cfg.jit)
            .with_dispatch_ms(cfg.dispatch_ms);
        let shared = Arc::new(Shared {
            doc_root: cfg.doc_root,
            log: log.clone(),
            do_get: managed.resolve("doGet", DO_GET_OPS),
            do_post: managed.resolve("doPost", DO_POST_OPS),
            managed,
            ids: Mutex::new(HashMap::new()),
            post_counter: AtomicU64::new(0),
            post_seed: rand::random(),
        });
        let running = Arc::new(AtomicBool::new(true));

        let accept_running = running.clone();
        let mode = cfg.mode;
        let accept_thread = std::thread::spawn(move || match mode {
            ServerMode::ThreadPerConnection => {
                // The main thread keeps accepting; each connection gets
                // its own thread (the paper's "work" class +
                // StartListen()).
                for conn in listener.incoming() {
                    if !accept_running.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = shared.clone();
                    std::thread::spawn(move || {
                        let _ = handle_connection(stream, &shared);
                    });
                }
            }
            ServerMode::Pool { workers } => {
                // One queue, many takers: a worker holds the lock only
                // while it waits for the next connection, not while it
                // serves one.
                let (tx, rx) = mpsc::channel::<TcpStream>();
                let rx = Arc::new(Mutex::new(rx));
                let mut pool = Vec::with_capacity(workers.max(1));
                for _ in 0..workers.max(1) {
                    let rx = rx.clone();
                    let shared = shared.clone();
                    pool.push(std::thread::spawn(move || loop {
                        // The guard drops at the end of this statement.
                        let Ok(stream) = rx.lock().recv() else { break };
                        let _ = handle_connection(stream, &shared);
                    }));
                }
                for conn in listener.incoming() {
                    if !accept_running.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let _ = tx.send(stream);
                }
                drop(tx); // closes the channel; workers drain and exit
                for worker in pool {
                    let _ = worker.join();
                }
            }
        });

        Ok(Server { addr, log, running, accept_thread: Some(accept_thread) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared timing log.
    pub fn log(&self) -> TimingLog {
        self.log.clone()
    }

    /// Stops accepting and joins the accept thread.
    pub fn stop(mut self) {
        self.running.store(false, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Reads until `buf` frames a complete request ([`http::next_request`])
/// or the peer closes. On EOF with buffered bytes the paper's
/// read-until-EOF semantics apply: the whole remainder is the body.
/// Returns `Ok(None)` on a clean EOF between requests.
#[allow(clippy::type_complexity)]
fn read_next_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> io::Result<Option<Result<(http::Request, usize), ParseError>>> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut chunk = [0u8; 4096];
    loop {
        match http::next_request(buf) {
            Err(ParseError::Incomplete) => {}
            done => return Ok(Some(done)),
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None); // clean close between requests
            }
            // EOF verdict: the paper's server reads the connection to
            // its end, so whatever arrived is the request.
            let len = buf.len();
            return Ok(Some(http::parse_request(buf).map(|r| (r, len))));
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > 64 * 1024 * 1024 {
            return Ok(Some(Err(ParseError::BadRequestLine)));
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut buf = Vec::with_capacity(1024);
    loop {
        let request = match read_next_request(&mut stream, &mut buf)? {
            None => return Ok(()),
            Some(Ok((r, consumed))) => {
                buf.drain(..consumed);
                r
            }
            Some(Err(e)) => {
                let resp = http::response(400, "Bad Request", e.to_string().as_bytes());
                stream.write_all(&resp)?;
                return Ok(());
            }
        };
        let keep_alive = request.keep_alive;
        let resp = match request.method {
            Method::Get => do_get(&request.path, shared, false, keep_alive),
            Method::Head => do_get(&request.path, shared, true, keep_alive),
            Method::Post => do_post(&request.body, shared, keep_alive),
        };
        stream.write_all(&resp)?;
        stream.flush()?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// GET: "the requested file is read and sent to the client". The real
/// timed region is stream creation + full read + close; the modelled
/// SSCLI cost is open + read and deliberately never closes — a close
/// evicts the file's pages, and Table 6's warm GETs depend on them
/// staying cached. HEAD follows the same path but sends headers only
/// (and is not logged — the paper's tables time data transfers).
fn do_get(path: &str, shared: &Shared, head_only: bool, keep_alive: bool) -> Vec<u8> {
    let full = shared.doc_root.join(path);
    let sw = Stopwatch::started();
    let contents = (|| -> io::Result<Vec<u8>> {
        let mut f = File::open(&full)?;
        let mut data = Vec::new();
        f.read_to_end(&mut data)?;
        drop(f);
        Ok(data)
    })();
    let real_ms = sw.elapsed_ms();

    match contents {
        Ok(data) => {
            if !head_only {
                let sscli_ms = {
                    let fid = shared.file_id(path);
                    let open = shared.managed.open_with(&shared.do_get, fid);
                    let read = shared.managed.read_with(&shared.do_get, fid, 0, data.len() as u64);
                    open.cost_ms + read.cost_ms
                };
                shared.log.push(RequestTiming {
                    kind: OpKind::Read,
                    bytes: data.len() as u64,
                    real_ms,
                    sscli_ms,
                });
            }
            http::response_with(
                200,
                "OK",
                &data,
                &http::ResponseOptions {
                    content_type: Some(http::content_type(path)),
                    keep_alive,
                    head_only,
                },
            )
        }
        Err(_) => http::response_with(
            404,
            "Not Found",
            b"no such file",
            &http::ResponseOptions { keep_alive, ..Default::default() },
        ),
    }
}

/// POST: "the data is written to a new file created by using a random
/// number generator". The timed region is create + write + close.
fn do_post(body: &[u8], shared: &Shared, keep_alive: bool) -> Vec<u8> {
    let n = shared.post_counter.fetch_add(1, Ordering::SeqCst);
    // Random-number file name (collision-free without locking, as the
    // paper notes): seed ^ counter through a splitmix64 step.
    let mut x = shared.post_seed ^ (n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let name = format!("post-{x:016x}.bin");
    let full = shared.doc_root.join(&name);

    let sw = Stopwatch::started();
    let written = (|| -> io::Result<()> {
        let mut f = File::create(&full)?;
        f.write_all(body)?;
        f.flush()?;
        drop(f);
        Ok(())
    })();
    let real_ms = sw.elapsed_ms();

    match written {
        Ok(()) => {
            let sscli_ms = {
                let fid = shared.file_id(&name);
                let open = shared.managed.open_with(&shared.do_post, fid);
                let write = shared.managed.write_with(&shared.do_post, fid, 0, body.len() as u64);
                let close = shared.managed.close_with(&shared.do_post, fid);
                open.cost_ms + write.cost_ms + close.cost_ms
            };
            shared.log.push(RequestTiming {
                kind: OpKind::Write,
                bytes: body.len() as u64,
                real_ms,
                sscli_ms,
            });
            http::response_with(
                201,
                "Created",
                name.as_bytes(),
                &http::ResponseOptions { keep_alive, ..Default::default() },
            )
        }
        Err(_) => http::response_with(
            500,
            "Internal Server Error",
            b"write failed",
            &http::ResponseOptions { keep_alive, ..Default::default() },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::files;

    fn start_test_server(tag: &str) -> (Server, PathBuf) {
        let root = files::temp_doc_root(tag).unwrap();
        let server = Server::start(ServerConfig::ephemeral(&root)).unwrap();
        (server, root)
    }

    #[test]
    fn get_serves_exact_bytes() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("get");
        let (status, body) = client::get(server.addr(), &files::file_name(7501)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, files::file_content(7501));
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn get_missing_is_404() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("404");
        let (status, _) = client::get(server.addr(), "nope.bin").unwrap();
        assert_eq!(status, 404);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn post_creates_distinct_files() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("post");
        let (s1, name1) = client::post(server.addr(), "upload", b"aaaa").unwrap();
        let (s2, name2) = client::post(server.addr(), "upload", b"bbbb").unwrap();
        assert_eq!(s1, 201);
        assert_eq!(s2, 201);
        let n1 = String::from_utf8(name1).unwrap();
        let n2 = String::from_utf8(name2).unwrap();
        assert_ne!(n1, n2, "random-number naming avoids collisions");
        assert_eq!(std::fs::read(root.join(&n1)).unwrap(), b"aaaa");
        assert_eq!(std::fs::read(root.join(&n2)).unwrap(), b"bbbb");
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn timings_logged_with_sscli_costs() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("log");
        let log = server.log();
        client::get(server.addr(), &files::file_name(14063)).unwrap();
        client::post(server.addr(), "up", &[0u8; 1000]).unwrap();
        assert_eq!(log.len(), 2);
        let snap = log.snapshot();
        assert_eq!(snap[0].kind, OpKind::Read);
        assert_eq!(snap[0].bytes, 14063);
        assert!(snap[0].real_ms >= 0.0);
        assert!(snap[0].sscli_ms > 1.0, "first request pays JIT: {}", snap[0].sscli_ms);
        assert_eq!(snap[1].kind, OpKind::Write);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn first_get_slowest_in_sscli_model() {
        crate::skip_unless_socket_tests!();
        // The paper's Table 6 / Fig. 6 shape, deterministically.
        let (server, root) = start_test_server("warm");
        let log = server.log();
        for _ in 0..6 {
            client::get(server.addr(), &files::file_name(14063)).unwrap();
        }
        let reads = log.of_kind(OpKind::Read);
        assert_eq!(reads.len(), 6);
        let first = reads[0].sscli_ms;
        for (i, r) in reads.iter().enumerate().skip(1) {
            assert!(r.sscli_ms < first, "trial {}: {} !< first {}", i + 1, r.sscli_ms, first);
        }
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn concurrent_clients_all_served() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("conc");
        let addr = server.addr();
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(move || {
                client::get(addr, &files::file_name(7501)).unwrap().0
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
        assert_eq!(server.log().len(), 8);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn malformed_request_gets_400() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("bad");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"DELETE /x HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap();
        let (status, _) = http::parse_response(&resp).unwrap();
        assert_eq!(status, 400);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn pool_mode_serves_concurrent_load() {
        crate::skip_unless_socket_tests!();
        let root = files::temp_doc_root("pool").unwrap();
        let mut cfg = ServerConfig::ephemeral(&root);
        cfg.mode = ServerMode::Pool { workers: 3 };
        let server = Server::start(cfg).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for _ in 0..12 {
            handles.push(std::thread::spawn(move || {
                client::get(addr, &files::file_name(7501)).unwrap().0
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
        assert_eq!(server.log().len(), 12);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn pool_mode_post_and_get() {
        crate::skip_unless_socket_tests!();
        let root = files::temp_doc_root("pool-post").unwrap();
        let mut cfg = ServerConfig::ephemeral(&root);
        cfg.mode = ServerMode::Pool { workers: 2 };
        let server = Server::start(cfg).unwrap();
        let (status, name) = client::post(server.addr(), "u", b"pooled").unwrap();
        assert_eq!(status, 201);
        let name = String::from_utf8(name).unwrap();
        let (status, body) = client::get(server.addr(), &name).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"pooled");
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn zero_worker_pool_clamps_to_one() {
        crate::skip_unless_socket_tests!();
        let root = files::temp_doc_root("pool-zero").unwrap();
        let mut cfg = ServerConfig::ephemeral(&root);
        cfg.mode = ServerMode::Pool { workers: 0 };
        let server = Server::start(cfg).unwrap();
        let (status, _) = client::get(server.addr(), &files::file_name(14063)).unwrap();
        assert_eq!(status, 200);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("ka");
        let log = server.log();
        let mut conn = client::Http11Client::connect(server.addr()).unwrap();
        for _ in 0..3 {
            let (status, body) = conn.get(&files::file_name(7501)).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, files::file_content(7501));
        }
        let (status, name) = conn.post("u", b"persistent").unwrap();
        assert_eq!(status, 201);
        let (status, body) = conn.get(std::str::from_utf8(&name).unwrap()).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"persistent");
        assert_eq!(log.len(), 5, "3 GETs + 1 POST + 1 GET, all on one socket");
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn head_reports_length_without_body() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("head");
        let log = server.log();
        let mut conn = client::Http11Client::connect(server.addr()).unwrap();
        let (status, cl) = conn.head(&files::file_name(50607)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(cl, 50607);
        assert_eq!(log.len(), 0, "HEAD is not a timed data transfer");
        // The connection is still usable afterwards.
        let (status, body) = conn.get(&files::file_name(7501)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.len(), 7501);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn get_response_carries_content_type() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("ctype");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(format!("GET /{} HTTP/1.0\r\n\r\n", files::file_name(7501)).as_bytes())
            .unwrap();
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(
            text.contains("Content-Type: application/octet-stream"),
            "binary files are octet-stream"
        );
        assert!(text.contains("Connection: close"), "HTTP/1.0 stays close-per-request");
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn http10_connection_closes_after_response() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("close10");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(format!("GET /{} HTTP/1.0\r\n\r\n", files::file_name(7501)).as_bytes())
            .unwrap();
        let mut resp = Vec::new();
        // read_to_end only returns if the server closes its end.
        stream.read_to_end(&mut resp).unwrap();
        assert!(!resp.is_empty());
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn traversal_rejected_end_to_end() {
        crate::skip_unless_socket_tests!();
        let (server, root) = start_test_server("trav");
        let (status, _) = client::get(server.addr(), "../secret").unwrap();
        assert_eq!(status, 400);
        server.stop();
        let _ = std::fs::remove_dir_all(root);
    }
}

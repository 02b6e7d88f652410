//! The server runtime: a blocking accept loop feeding a fixed worker
//! thread pool through a bounded queue, with graceful drain on shutdown.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{read_request, Limits, Parsed, Request, Response};

/// The application layer: routes one parsed request to a response.
///
/// Implementations must be shareable across worker threads (`Send + Sync`)
/// and must not assume any request ordering — the pool dispatches
/// connections to workers as they arrive.
pub trait App: Send + Sync + 'static {
    /// Produces the response for one request. Panics are caught per
    /// connection and answered with a 500 (the worker survives).
    fn handle(&self, req: &Request) -> Response;

    /// Called exactly once during graceful shutdown, *after* the accept
    /// loop has stopped and every in-flight request has drained — the
    /// hook where the app joins its own background threads (e.g. the
    /// ingestion writer).
    fn on_shutdown(&self) {}
}

/// Ceiling on worker threads, whatever the configuration asks for: each
/// worker is an OS thread, and an unclamped `--workers 1000000` would ask
/// the OS for a million of them.
pub const MAX_WORKERS: usize = 256;

/// The number of worker threads [`Server::start`] spawns for a requested
/// count: at least one, at most [`MAX_WORKERS`].
pub fn resolve_workers(requested: usize) -> usize {
    requested.clamp(1, MAX_WORKERS)
}

/// Server configuration. `Default` is tuned for tests and local serving;
/// the CLI overrides `addr` and `workers`.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks an ephemeral port,
    /// reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads serving requests, clamped by [`resolve_workers`].
    pub workers: usize,
    /// Bound of the accepted-but-unserved connection queue. When it is
    /// full the accept loop stops pulling from the listener backlog,
    /// which is the server's backpressure: clients queue in the kernel
    /// instead of accumulating unbounded in-process state.
    pub accept_backlog: usize,
    /// Per-request body size limit, in bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout: bounds how long an idle keep-alive connection
    /// can hold a worker, and therefore how long a graceful shutdown can
    /// take to drain.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            accept_backlog: 64,
            max_body_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts ungracefully (threads are detached);
/// call `shutdown` for the drain contract.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    app: Arc<dyn App>,
}

/// A cloneable trigger that initiates shutdown from any thread (or a
/// signal-watching loop) without owning the server.
#[derive(Clone)]
pub struct Stopper(Arc<AtomicBool>);

impl Stopper {
    /// Requests shutdown: the accept loop stops on its next poll tick.
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Alias kept for readability at call sites.
pub type ServerHandle = Server;

impl Server {
    /// Binds and starts serving: one accept thread plus
    /// `resolve_workers(config.workers)` worker threads.
    pub fn start(config: ServerConfig, app: Arc<dyn App>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(
            config
                .addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?,
        )?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe the stop flag
        // without a connection arriving.
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let workers = resolve_workers(config.workers);
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.accept_backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let limits = Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: config.max_body_bytes,
        };
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let app = Arc::clone(&app);
                let stop = Arc::clone(&stop);
                let read_timeout = config.read_timeout;
                std::thread::Builder::new()
                    .name(format!("wfdl-serve-worker-{i}"))
                    .spawn(move || worker_loop(rx, app, stop, limits, read_timeout))
            })
            .collect::<std::io::Result<_>>()?;

        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("wfdl-serve-accept".to_owned())
                .spawn(move || accept_loop(listener, tx, stop))?
        };

        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
            workers: worker_handles,
            app,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable shutdown trigger.
    pub fn stopper(&self) -> Stopper {
        Stopper(Arc::clone(&self.stop))
    }

    /// Graceful shutdown: stop accepting, serve every connection already
    /// accepted or in flight to completion, join the pool, then give the
    /// app its [`App::on_shutdown`] hook (where it joins its own writer).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept thread dropped the sender on exit; workers drain the
        // queued connections and stop on the channel disconnect.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.app.on_shutdown();
    }
}

fn accept_loop(listener: TcpListener, tx: SyncSender<TcpStream>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Backpressure: if every worker is busy and the bounded
                // queue is full, hold the connection here (poll the stop
                // flag so shutdown still wins) rather than queueing
                // without bound.
                let mut pending = stream;
                loop {
                    match tx.try_send(pending) {
                        Ok(()) => break,
                        Err(TrySendError::Full(back)) => {
                            if stop.load(Ordering::SeqCst) {
                                // Shutting down: refuse cleanly.
                                let _ = Response::text(503, "server is shutting down\n")
                                    .write_to(&mut &back, true);
                                break;
                            }
                            pending = back;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept errors (e.g. aborted handshakes) are
                // not fatal to the listener.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Dropping `tx` disconnects the channel: workers finish what is
    // queued, then exit.
}

fn worker_loop(
    rx: Arc<Mutex<Receiver<TcpStream>>>,
    app: Arc<dyn App>,
    stop: Arc<AtomicBool>,
    limits: Limits,
    read_timeout: Duration,
) {
    loop {
        // Hold the receiver lock only for the handoff, never while
        // serving.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(stream) = stream else { return };
        serve_connection(stream, &app, &stop, limits, read_timeout);
    }
}

/// Serves one connection: a keep-alive loop of parse → handle → respond.
/// Any I/O failure just drops the connection (the peer is gone); handler
/// panics are answered with a 500 and close the connection, keeping the
/// worker alive.
fn serve_connection(
    stream: TcpStream,
    app: &Arc<dyn App>,
    stop: &AtomicBool,
    limits: Limits,
    read_timeout: Duration,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, &mut writer, limits) {
            Parsed::Closed => return,
            Parsed::Bad(e) => {
                let _ = Response::text(e.status, format!("{}\n", e.message))
                    .write_to(&mut writer, true);
                return;
            }
            Parsed::Ok(req) => {
                let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    app.handle(&req)
                })) {
                    Ok(response) => response,
                    Err(_) => Response::text(500, "handler panicked\n"),
                };
                // Once shutdown starts, finish this exchange but do not
                // let keep-alive pin the worker.
                let close = req.close || stop.load(Ordering::SeqCst);
                if response.write_to(&mut writer, close).is_err() || close {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    struct Echo;
    impl App for Echo {
        fn handle(&self, req: &Request) -> Response {
            if req.path == "/panic" {
                panic!("handler bug");
            }
            Response::text(200, String::from_utf8_lossy(&req.body).into_owned())
        }
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_concurrent_connections_and_drains_on_shutdown() {
        let server = Server::start(ServerConfig::default(), Arc::new(Echo)).unwrap();
        let addr = server.addr();
        let clients: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!("hello-{i}");
                    let raw = format!(
                        "POST /echo HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    );
                    let out = roundtrip(addr, &raw);
                    assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
                    assert!(out.ends_with(&body), "{out}");
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        server.shutdown();
        assert!(TcpStream::connect(addr).is_err(), "listener closed");
    }

    /// Reads one full response off a keep-alive connection: headers to
    /// the blank line, then exactly `Content-Length` body bytes.
    fn read_one_response(conn: &mut TcpStream) -> (String, String) {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            assert_eq!(conn.read(&mut byte).unwrap(), 1, "peer closed mid-head");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    }

    #[test]
    fn keep_alive_carries_multiple_requests() {
        let server = Server::start(ServerConfig::default(), Arc::new(Echo)).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        for i in 0..3 {
            let body = format!("round-{i}");
            write!(
                conn,
                "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .unwrap();
            conn.flush().unwrap();
            let (head, got) = read_one_response(&mut conn);
            assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
            assert_eq!(got, body);
        }
        server.shutdown();
    }

    /// Lockstep interleaving check for the bounded accept queue: the
    /// producer side models [`accept_loop`]'s backpressure discipline
    /// (try_send, hold the item on `Full`, retry later) over the same
    /// `sync_channel` type the server uses; the consumer side models a
    /// worker's handoff. Channel operations are atomic, so every
    /// thread-level execution is one of these serializations. Invariants:
    /// nothing is lost or duplicated, delivery is FIFO, and `Full` is
    /// only ever reported when the queue really holds `CAP` items.
    #[test]
    fn bounded_accept_queue_interleavings_are_lossless_and_fifo() {
        const ITEMS: u32 = 3;
        const CAP: usize = 2;
        const STEPS: u32 = 8; // enough turns to finish in every schedule
        for mask in 0u32..(1 << STEPS) {
            let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(CAP);
            let mut next = 0u32; // producer's pending item
            let mut in_queue = 0usize; // model of the queue occupancy
            let mut got: Vec<u32> = Vec::new();
            for i in 0..STEPS {
                let producer_turn = mask & (1 << i) != 0;
                if producer_turn {
                    if next < ITEMS {
                        match tx.try_send(next) {
                            Ok(()) => {
                                next += 1;
                                in_queue += 1;
                            }
                            Err(TrySendError::Full(back)) => {
                                // accept_loop keeps the connection and
                                // retries; the item must come back intact
                                // and Full must mean full.
                                assert_eq!(back, next, "schedule {mask:08b}");
                                assert_eq!(in_queue, CAP, "schedule {mask:08b}");
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                unreachable!("receiver alive")
                            }
                        }
                    }
                } else if let Ok(v) = rx.try_recv() {
                    in_queue -= 1;
                    got.push(v);
                }
            }
            // Drain what the schedule left queued (shutdown path: workers
            // finish everything accepted before exiting).
            while let Ok(v) = rx.try_recv() {
                got.push(v);
            }
            assert_eq!(
                got,
                (0..next).collect::<Vec<_>>(),
                "FIFO, no loss, no duplication (schedule {mask:08b})"
            );
        }
    }

    #[test]
    fn worker_count_is_clamped_to_one_through_the_ceiling() {
        assert_eq!(resolve_workers(0), 1);
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(4), 4);
        assert_eq!(resolve_workers(MAX_WORKERS), MAX_WORKERS);
        assert_eq!(resolve_workers(MAX_WORKERS + 1), MAX_WORKERS);
        assert_eq!(resolve_workers(1_000_000), MAX_WORKERS);
        assert_eq!(resolve_workers(usize::MAX), MAX_WORKERS);
    }

    #[test]
    fn handler_panic_answers_500_and_worker_survives() {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(config, Arc::new(Echo)).unwrap();
        let addr = server.addr();
        let out = roundtrip(addr, "GET /panic HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 500"), "{out}");
        // The single worker must still serve the next connection.
        let out = roundtrip(
            addr,
            "POST /echo HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
        );
        assert!(out.ends_with("ok"), "{out}");
        server.shutdown();
    }
}

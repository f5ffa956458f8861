//! The TCP listener, connection handling, and background threads.
//!
//! This file is the only place in the workspace allowed to spawn raw
//! `std::thread`s outside `crates/runtime` (lint.toml R7 allow): the
//! dispatcher, the accept loop, per-connection handlers, and the
//! optional checkpoint watcher are all I/O-bound coordination threads,
//! not data parallelism — the batched forward itself still runs through
//! the deterministic runtime pool via the tensor kernels.
//!
//! Routes:
//!
//! | route           | method | answer                                   |
//! |-----------------|--------|------------------------------------------|
//! | `/predict`      | POST   | 200 [`PredictResponse`](crate::PredictResponse), 503 on backpressure |
//! | `/healthz`      | GET    | 200 [`HealthBody`]                       |
//! | `/stats`        | GET    | 200 [`crate::stats::StatsSnapshot`]      |
//! | `/metrics`      | GET    | 200 Prometheus text exposition           |
//! | `/rescan`       | POST   | 200 [`crate::batcher::SwapReport`]       |

use crate::batcher::{BatchConfig, Engine, SwapReport};
use crate::error::ServeError;
use crate::protocol::{
    read_request, write_response, write_response_with_type, ErrorBody, HealthBody, HttpRequest,
    PredictRequest, RejectBody,
};
use crate::stats::StatsSnapshot;
use std::io::BufReader;
#[expect(clippy::disallowed_types, reason = "R11: the server owns its connections")]
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Watched checkpoint directory (a [`simpadv_resilience::CheckpointStore`]).
    pub model_dir: PathBuf,
    /// Batching and backpressure knobs.
    pub batch: BatchConfig,
    /// Poll interval for the checkpoint watcher thread, in
    /// microseconds; `0` disables the watcher (tests drive
    /// [`Server::rescan`] explicitly instead).
    pub watch_interval_us: u64,
}

impl ServeConfig {
    /// A config with defaults suitable for tests: ephemeral port, no
    /// watcher thread.
    pub fn for_dir(model_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            model_dir: model_dir.into(),
            batch: BatchConfig::default(),
            watch_interval_us: 0,
        }
    }
}

/// A running inference server. Dropping it without calling
/// [`Server::shutdown`] leaks the background threads until process
/// exit; call `shutdown` for an orderly drain.
pub struct Server {
    engine: Arc<Engine>,
    #[expect(clippy::disallowed_types, reason = "R11: the server owns its connections")]
    addr: std::net::SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, loads the newest servable generation, and
    /// starts the dispatcher (plus the watcher when configured).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModel`] when the store has no valid generation,
    /// [`ServeError::Io`] when the bind fails.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "R7, R11: I/O threads around the listener"
    )]
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        let store = simpadv_resilience::CheckpointStore::open(&cfg.model_dir)?;
        let engine = Arc::new(Engine::new(store, cfg.batch.clone())?);
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener.local_addr().map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        let mut threads = Vec::new();

        let dispatch_engine = Arc::clone(&engine);
        threads.push(std::thread::spawn(move || dispatch_engine.run_dispatch()));

        let accept_engine = Arc::clone(&engine);
        threads.push(std::thread::spawn(move || accept_loop(&listener, &accept_engine)));

        if cfg.watch_interval_us > 0 {
            let watch_engine = Arc::clone(&engine);
            let interval = cfg.watch_interval_us;
            threads.push(std::thread::spawn(move || watch_loop(&watch_engine, interval)));
        }

        Ok(Server { engine, addr, threads })
    }

    /// The bound address, e.g. `127.0.0.1:41347`.
    pub fn local_addr(&self) -> String {
        self.addr.to_string()
    }

    /// The shared batching engine (for in-process tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Triggers a checkpoint rescan now.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the store cannot be listed.
    pub fn rescan(&self) -> Result<SwapReport, ServeError> {
        self.engine.rescan()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.engine.stats()
    }

    /// Blocks until `target` requests have been answered.
    pub fn wait_served(&self, target: u64) {
        self.engine.wait_served(target);
    }

    /// Drains the queue, stops every background thread, and returns the
    /// final statistics snapshot.
    #[expect(clippy::disallowed_types, reason = "R11: a local connect wakes the acceptor")]
    pub fn shutdown(self) -> StatsSnapshot {
        self.engine.shutdown();
        // The accept loop blocks in accept(); a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads {
            let _ = handle.join();
        }
        self.engine.stats()
    }
}

/// Accepts connections until shutdown, one handler thread each.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "R7, R11: I/O threads around the listener"
)]
fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if engine.stopping() {
                    return;
                }
                let engine = Arc::clone(engine);
                let _ = std::thread::spawn(move || handle_connection(stream, &engine));
            }
            Err(_) => {
                if engine.stopping() {
                    return;
                }
            }
        }
    }
}

/// Polls the checkpoint store for new generations until shutdown.
#[expect(clippy::disallowed_methods, reason = "R7: checkpoint watcher poll thread")]
fn watch_loop(engine: &Arc<Engine>, interval_us: u64) {
    // Sleep in short slices so shutdown is never delayed by a long
    // watch interval.
    let slice_us = interval_us.clamp(1, 50_000);
    let slice = Duration::from_micros(slice_us);
    let slices = (interval_us / slice_us).max(1);
    loop {
        for _ in 0..slices {
            if engine.stopping() {
                return;
            }
            std::thread::sleep(slice);
        }
        if engine.stopping() {
            return;
        }
        let _ = engine.rescan();
    }
}

/// Serves one keep-alive connection until the peer closes it.
#[expect(clippy::disallowed_types, reason = "R11: the server owns its connections")]
fn handle_connection(stream: TcpStream, engine: &Arc<Engine>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(request)) => {
                let keep_going = respond(&mut writer, engine, &request);
                if !keep_going {
                    return;
                }
            }
            Err(ServeError::BadRequest(detail)) => {
                let _ = send_error(&mut writer, 400, "Bad Request", &detail);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Routes one parsed request; returns false when the connection should
/// close.
#[expect(clippy::disallowed_types, reason = "R11: the server owns its connections")]
fn respond(writer: &mut TcpStream, engine: &Arc<Engine>, request: &HttpRequest) -> bool {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => {
            let parsed: Result<PredictRequest, _> = std::str::from_utf8(&request.body)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()));
            // A malformed traceparent degrades to an uncorrelated
            // request rather than a 400: tracing is observability, not
            // part of the request contract.
            let remote =
                request.traceparent.as_deref().and_then(simpadv_trace::TraceContext::parse);
            match parsed {
                Ok(req) => match engine.submit_traced(req, remote) {
                    Ok(resp) => send_json(writer, 200, "OK", &resp),
                    Err(ServeError::Rejected { capacity }) => {
                        let body = RejectBody {
                            error: "queue_full".to_string(),
                            queue_capacity: capacity as u64,
                        };
                        send_json(writer, 503, "Service Unavailable", &body)
                    }
                    Err(ServeError::BadRequest(detail)) => {
                        send_error(writer, 400, "Bad Request", &detail)
                    }
                    Err(ServeError::ShuttingDown) => {
                        send_error(writer, 503, "Service Unavailable", "shutting down")
                    }
                    Err(other) => {
                        send_error(writer, 500, "Internal Server Error", &other.to_string())
                    }
                },
                Err(detail) => send_error(writer, 400, "Bad Request", &detail),
            }
        }
        ("GET", "/healthz") => {
            let body = HealthBody {
                status: "ok".to_string(),
                generation: engine.current_generation(),
                method: engine.method(),
            };
            send_json(writer, 200, "OK", &body)
        }
        ("GET", "/stats") => send_json(writer, 200, "OK", &engine.stats()),
        ("GET", "/metrics") => {
            let text = engine.stats().to_prometheus();
            write_response_with_type(
                writer,
                200,
                "OK",
                "text/plain; version=0.0.4",
                text.as_bytes(),
            )
            .is_ok()
        }
        ("POST", "/rescan") => match engine.rescan() {
            Ok(report) => send_json(writer, 200, "OK", &report),
            Err(e) => send_error(writer, 500, "Internal Server Error", &e.to_string()),
        },
        _ => send_error(writer, 404, "Not Found", "no such route"),
    }
}

/// Serializes `body` and writes a JSON response; returns false on a
/// dead socket.
#[expect(clippy::disallowed_types, reason = "R11: the server owns its connections")]
fn send_json<T: serde::Serialize>(
    writer: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &T,
) -> bool {
    let text = match serde_json::to_string(body) {
        Ok(text) => text,
        Err(_) => {
            return write_response(
                writer,
                500,
                "Internal Server Error",
                b"{\"error\":\"encode failure\"}",
            )
            .is_ok()
        }
    };
    write_response(writer, status, reason, text.as_bytes()).is_ok()
}

/// Writes an error body; returns false on a dead socket.
#[expect(clippy::disallowed_types, reason = "R11: the server owns its connections")]
fn send_error(writer: &mut TcpStream, status: u16, reason: &str, detail: &str) -> bool {
    let body = ErrorBody { error: detail.to_string() };
    send_json(writer, status, reason, &body)
}

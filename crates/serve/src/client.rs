//! A blocking HTTP client for the serve endpoints.
//!
//! This is the ONLY sanctioned way for other crates (the load
//! generator, integration tests, the CLI) to talk to the server: rule
//! R11 confines `std::net` to `crates/serve`, so everything else takes
//! a `&str` address and calls through here. Each call opens a fresh
//! connection — at this project's scale connection reuse would only
//! complicate the failure modes.

use crate::batcher::SwapReport;
use crate::error::ServeError;
use crate::protocol::{
    read_response, write_request_traced, HealthBody, HttpResponse, PredictRequest, PredictResponse,
    RejectBody,
};
use crate::stats::StatsSnapshot;
use simpadv_resilience::BackoffPolicy;
use simpadv_trace::clock::WallTimer;
use std::io::BufReader;
#[expect(clippy::disallowed_types, reason = "R11: the serving client owns its socket")]
use std::net::TcpStream;

/// Outcome of a predict call that reached the server.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictOutcome {
    /// The request was answered.
    Predicted(PredictResponse),
    /// The request was shed by backpressure (HTTP 503).
    Rejected(RejectBody),
}

/// How [`predict_with_retry`] paces itself between 503 rejections.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries) before giving up.
    pub max_attempts: u32,
    /// Capped exponential backoff with deterministic seeded jitter
    /// (the workspace-shared [`BackoffPolicy`]).
    pub backoff: BackoffPolicy,
    /// Jitter seed; give each client its own so a rejected cohort does
    /// not retry in lockstep, while any one client's schedule stays
    /// reproducible.
    pub seed: u64,
    /// Estimated per-request service time. Multiplied by the reject
    /// body's `queue_capacity` hint it approximates a full-queue drain
    /// time, which floors the wait (see [`retry_delay_us`]).
    pub slot_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, backoff: BackoffPolicy::default(), seed: 0, slot_us: 500 }
    }
}

/// The wait before 0-based retry `retry`: the seeded backoff delay,
/// floored by the server's sizing hint — a 503's `queue_capacity` times
/// [`RetryPolicy::slot_us`] approximates how long the server needs to
/// drain a full queue, so retrying sooner than that mostly buys another
/// rejection. The hint is clamped to the backoff cap so the schedule
/// stays bounded whatever the server claims.
pub fn retry_delay_us(policy: &RetryPolicy, reject: &RejectBody, retry: u32) -> u64 {
    let backoff = policy.backoff.delay_us(policy.seed, retry);
    let hint = reject.queue_capacity.saturating_mul(policy.slot_us).min(policy.backoff.cap_us);
    backoff.max(hint)
}

/// Submits one inference request, retrying bounded-many times with
/// backoff when the server sheds it with a 503.
///
/// Only backpressure rejections are retried: connection and protocol
/// failures surface immediately, because they are not the transient
/// signal the reject body explicitly encodes.
///
/// # Errors
///
/// [`ServeError::Rejected`] when every attempt was shed (carrying the
/// last hinted queue capacity); any non-503 failure is propagated
/// unchanged from [`predict`].
#[expect(clippy::disallowed_methods, reason = "R7: retry backoff on the current thread")]
pub fn predict_with_retry(
    addr: &str,
    request: &PredictRequest,
    policy: &RetryPolicy,
) -> Result<PredictResponse, ServeError> {
    let mut attempt = 0u32;
    loop {
        match predict(addr, request)? {
            PredictOutcome::Predicted(response) => return Ok(response),
            PredictOutcome::Rejected(reject) => {
                attempt += 1;
                if attempt >= policy.max_attempts.max(1) {
                    return Err(ServeError::Rejected { capacity: reject.queue_capacity as usize });
                }
                let delay_us = retry_delay_us(policy, &reject, attempt - 1);
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
            }
        }
    }
}

/// Submits one inference request.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures, [`ServeError::BadRequest`]
/// when the server answered 400, [`ServeError::Persist`] never (kept in
/// the shared error type for uniformity).
pub fn predict(addr: &str, request: &PredictRequest) -> Result<PredictOutcome, ServeError> {
    let body = serde_json::to_string(request)
        .map_err(|e| ServeError::BadRequest(format!("encode request: {e}")))?;
    // When the caller is inside a traced span, the request carries its
    // context so the server-side request span hangs under it in the
    // assembled campaign tree. Uncorrelated callers add no header.
    let traceparent = simpadv_trace::current_context().map(|ctx| ctx.encode());
    let response = roundtrip(addr, "POST", "/predict", traceparent.as_deref(), &body)?;
    match response.status {
        200 => Ok(PredictOutcome::Predicted(parse_body(&response)?)),
        503 => Ok(PredictOutcome::Rejected(parse_body(&response)?)),
        status => Err(status_error(status, &response)),
    }
}

/// Probes `/healthz`.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures or non-200 answers.
pub fn healthz(addr: &str) -> Result<HealthBody, ServeError> {
    let response = roundtrip(addr, "GET", "/healthz", None, "")?;
    match response.status {
        200 => parse_body(&response),
        status => Err(status_error(status, &response)),
    }
}

/// Fetches the `/stats` snapshot.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures or non-200 answers.
pub fn stats(addr: &str) -> Result<StatsSnapshot, ServeError> {
    let response = roundtrip(addr, "GET", "/stats", None, "")?;
    match response.status {
        200 => parse_body(&response),
        status => Err(status_error(status, &response)),
    }
}

/// Fetches the `/metrics` Prometheus text exposition.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures or non-200 answers,
/// [`ServeError::BadRequest`] on a non-UTF-8 body.
pub fn metrics(addr: &str) -> Result<String, ServeError> {
    let response = roundtrip(addr, "GET", "/metrics", None, "")?;
    match response.status {
        200 => String::from_utf8(response.body)
            .map_err(|e| ServeError::BadRequest(format!("non-UTF-8 metrics body: {e}"))),
        status => Err(status_error(status, &response)),
    }
}

/// Triggers a checkpoint rescan via `/rescan`.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures or non-200 answers.
pub fn rescan(addr: &str) -> Result<SwapReport, ServeError> {
    let response = roundtrip(addr, "POST", "/rescan", None, "")?;
    match response.status {
        200 => parse_body(&response),
        status => Err(status_error(status, &response)),
    }
}

/// Retries `/healthz` until the server answers or `timeout_us` of wall
/// time elapses. Useful right after spawning a server whose bound
/// address was just learned.
///
/// # Errors
///
/// [`ServeError::Io`] when the deadline passes without a healthy
/// answer.
pub fn wait_ready(addr: &str, timeout_us: u64) -> Result<HealthBody, ServeError> {
    let timer = WallTimer::start();
    let mut last;
    loop {
        match healthz(addr) {
            Ok(body) => return Ok(body),
            Err(e) => last = e.to_string(),
        }
        if timer.elapsed_us() > timeout_us {
            return Err(ServeError::Io(format!("server at {addr} not ready: {last}")));
        }
    }
}

/// One request/response exchange on a fresh connection.
#[expect(clippy::disallowed_types, reason = "R11: the serving client owns its socket")]
fn roundtrip(
    addr: &str,
    method: &str,
    path: &str,
    traceparent: Option<&str>,
    body: &str,
) -> Result<HttpResponse, ServeError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| ServeError::Io(format!("connect {addr}: {e}")))?;
    let mut writer =
        stream.try_clone().map_err(|e| ServeError::Io(format!("clone stream: {e}")))?;
    write_request_traced(&mut writer, method, path, traceparent, body.as_bytes())
        .map_err(|e| ServeError::Io(format!("write: {e}")))?;
    read_response(&mut BufReader::new(stream))
}

/// Deserializes a JSON body into the expected type.
fn parse_body<T: serde::Deserialize>(response: &HttpResponse) -> Result<T, ServeError> {
    let text = std::str::from_utf8(&response.body)
        .map_err(|e| ServeError::BadRequest(format!("non-UTF-8 body: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| ServeError::BadRequest(format!("unexpected body {text:?}: {e}")))
}

/// Maps an unexpected status to an error carrying the server's detail.
fn status_error(status: u16, response: &HttpResponse) -> ServeError {
    let detail = String::from_utf8_lossy(&response.body).to_string();
    match status {
        400 => ServeError::BadRequest(detail),
        _ => ServeError::Io(format!("unexpected status {status}: {detail}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reject(capacity: u64) -> RejectBody {
        RejectBody { error: "queue_full".into(), queue_capacity: capacity }
    }

    #[test]
    fn retry_delays_are_deterministic_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 6,
            backoff: BackoffPolicy::new(1_000, 64_000),
            seed: 7,
            slot_us: 100,
        };
        let a: Vec<u64> = (0..8).map(|r| retry_delay_us(&policy, &reject(4), r)).collect();
        let b: Vec<u64> = (0..8).map(|r| retry_delay_us(&policy, &reject(4), r)).collect();
        assert_eq!(a, b, "same policy and seed, same schedule");
        assert!(a.iter().all(|d| *d <= 64_000), "cap bounds every delay: {a:?}");
        assert!(a[0] >= 1_000, "never below the base");
        for w in a.windows(2) {
            assert!(w[1] >= w[0], "monotone: {a:?}");
        }
    }

    #[test]
    fn queue_capacity_hint_floors_the_early_delays() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: BackoffPolicy::new(100, 1_000_000).with_jitter_permille(0),
            seed: 0,
            slot_us: 1_000,
        };
        // a 64-deep queue hints a 64ms drain, dominating the 100us backoff
        assert_eq!(retry_delay_us(&policy, &reject(64), 0), 64_000);
        // no hint: pure backoff
        assert_eq!(retry_delay_us(&policy, &reject(0), 0), 100);
        // the hint is clamped to the cap, whatever the server claims
        assert_eq!(retry_delay_us(&policy, &reject(u64::MAX), 0), 1_000_000);
        // once the exponential outgrows the hint, backoff wins again
        assert!(retry_delay_us(&policy, &reject(64), 12) > 64_000);
    }

    #[test]
    fn different_seeds_decorrelate_retry_storms() {
        let policy = |seed| RetryPolicy {
            max_attempts: 3,
            backoff: BackoffPolicy::new(10_000, 10_000_000),
            seed,
            slot_us: 0,
        };
        let a: Vec<u64> = (0..6).map(|r| retry_delay_us(&policy(1), &reject(0), r)).collect();
        let b: Vec<u64> = (0..6).map(|r| retry_delay_us(&policy(2), &reject(0), r)).collect();
        assert_ne!(a, b, "clients with different seeds must not retry in lockstep");
    }
}

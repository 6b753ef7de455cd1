//! Typed client for the placement daemon's wire protocol. One blocking TCP
//! connection per client; the CLI, the load driver and the integration tests
//! all go through this instead of hand-rolling frames.

use crate::stats::StatsSnapshot;
use crate::wire::{
    read_frame, write_frame, BatchPlaceResult, FrameError, OutcomeReport, Request, Response,
    WirePlacement,
};
use gaugur_gamesim::{GameId, Resolution};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side errors. Protocol-level rejections (`Overloaded`, `Rejected`,
/// `Error`) are surfaced as typed variants so callers can branch on them.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The daemon closed the connection cleanly before answering (EOF at a
    /// frame boundary). The request may or may not have been applied.
    Disconnected,
    /// The connection died mid-reply frame (partial read on a half-closed
    /// socket). The daemon handled the request but the answer is lost.
    TornReply(String),
    /// The daemon replied, but with something this call cannot accept.
    Protocol(String),
    /// The daemon's queue was full; retry after the given backoff.
    Overloaded {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// Placement was refused (fleet saturated under the policy).
    Rejected {
        /// Human-readable reason from the daemon.
        reason: String,
    },
    /// The daemon answered an application-level error.
    Daemon(String),
    /// A `Depart` named a session the daemon does not know (already
    /// departed, rolled back, or never issued).
    UnknownSession {
        /// The session id the request named.
        session: u64,
    },
    /// The daemon is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Disconnected => {
                write!(f, "connection closed before the reply (outcome unknown)")
            }
            ClientError::TornReply(m) => write!(f, "connection died mid-reply: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "daemon overloaded, retry after {retry_after_ms} ms")
            }
            ClientError::Rejected { reason } => write!(f, "placement rejected: {reason}"),
            ClientError::Daemon(m) => write!(f, "daemon error: {m}"),
            ClientError::UnknownSession { session } => {
                write!(f, "unknown session {session} (already departed?)")
            }
            ClientError::ShuttingDown => write!(f, "daemon shutting down"),
        }
    }
}

impl ClientError {
    /// Whether the request's outcome is unknown: the transport failed
    /// before a reply was read, so the daemon may or may not have applied
    /// it. Blindly retrying a non-idempotent request (a `Place`) after one
    /// of these can double-apply it — the load driver reconnects and counts
    /// an error instead of retrying.
    pub fn is_ambiguous(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_) | ClientError::Disconnected | ClientError::TornReply(_)
        )
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            // Clean EOF at a frame boundary vs a half-closed socket killing
            // a reply mid-frame are distinct conditions — callers that
            // retry must know the difference from a plain transport error
            // (both are ambiguous; a timeout, say, is too, but reads
            // differently in logs and reports).
            FrameError::Eof => ClientError::Disconnected,
            FrameError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof => {
                ClientError::TornReply(io.to_string())
            }
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A successful placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placed {
    /// Daemon-assigned session id (pass to [`Client::depart`]).
    pub session: u64,
    /// Server index the session landed on.
    pub server: usize,
    /// FPS the model predicts for this session in its new colocation.
    pub predicted_fps: f64,
    /// Model version that made the decision.
    pub model_version: u64,
}

/// An interference prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicted {
    /// Whether the QoS floor holds for the target in this colocation.
    pub feasible: bool,
    /// Predicted degradation ratio δ̃.
    pub degradation: f64,
    /// Predicted absolute FPS.
    pub fps: f64,
    /// Model version that answered.
    pub model_version: u64,
    /// Whether the answer came from the prediction memo.
    pub cached: bool,
}

/// Backoff policy for [`Client::call_with_retry`]. The daemon's
/// `Overloaded { retry_after_ms }` reply carries a backoff hint sized from
/// its own queue depth; a polite client honors it (plus jitter, so a herd of
/// pushed-back clients doesn't return in lockstep) but caps it, so a
/// corrupted or hostile hint cannot stall the caller indefinitely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per call before the `Overloaded` error is surfaced.
    pub max_retries: u32,
    /// Backoff when the daemon's hint is zero (a hint of "now" still
    /// deserves a beat — the queue was full a microsecond ago).
    pub fallback_ms: u64,
    /// Upper bound on any single sleep, hint plus jitter included.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            fallback_ms: 25,
            cap_ms: 1_000,
        }
    }
}

impl RetryPolicy {
    /// The sleep for one pushback: the daemon's hint (or the fallback when
    /// the hint is zero), stretched by `jitter_frac` ∈ [0, 1] of itself,
    /// capped at `cap_ms`. Pure — callers supply the randomness, which keeps
    /// seeded load runs a deterministic function of their RNG streams.
    pub fn backoff_ms(&self, retry_after_ms: u64, jitter_frac: f64) -> u64 {
        let hint = if retry_after_ms == 0 {
            self.fallback_ms
        } else {
            retry_after_ms
        };
        let jitter = (hint as f64 * jitter_frac.clamp(0.0, 1.0)) as u64;
        hint.saturating_add(jitter).min(self.cap_ms)
    }
}

/// Blocking client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    peer: SocketAddr,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(Client { stream, peer })
    }

    /// The daemon address this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Replace the connection with a fresh one to the same daemon. Needed
    /// after `Overloaded` pushback: the daemon sheds the connection right
    /// after the reply, so the old stream is dead.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        *self = Client::connect(self.peer)?;
        Ok(())
    }

    /// Issue `op`, retrying on `Overloaded` pushback with the policy's
    /// backoff — honoring the daemon's `retry_after_ms` hint (jittered via
    /// `jitter_frac`, capped) instead of ignoring it. Each retry reconnects;
    /// every other error (including ambiguous transport failures, which must
    /// not be blindly retried — see [`ClientError::is_ambiguous`]) is
    /// returned as-is. `jitter_frac` is called once per sleep and should
    /// return a value in `[0, 1]`; pass `&mut || 0.0` for deterministic
    /// tests.
    pub fn call_with_retry<T>(
        &mut self,
        policy: RetryPolicy,
        jitter_frac: &mut dyn FnMut() -> f64,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempts = 0u32;
        loop {
            match op(self) {
                Err(ClientError::Overloaded { retry_after_ms }) => {
                    if attempts >= policy.max_retries {
                        return Err(ClientError::Overloaded { retry_after_ms });
                    }
                    attempts += 1;
                    let sleep_ms = policy.backoff_ms(retry_after_ms, jitter_frac());
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                    self.reconnect()?;
                }
                other => return other,
            }
        }
    }

    /// Set a read timeout for replies (`None` blocks indefinitely).
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// The connection itself, for the chaos harness's deliberately broken
    /// frames.
    pub(crate) fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Send one request and read one response. The raw escape hatch — the
    /// typed helpers below are built on it.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, request)?;
        Ok(read_frame(&mut self.stream)?)
    }

    fn unexpected(response: Response) -> ClientError {
        match response {
            Response::Overloaded { retry_after_ms } => ClientError::Overloaded { retry_after_ms },
            Response::Error { message } => ClientError::Daemon(message),
            Response::UnknownSession { session } => ClientError::UnknownSession { session },
            Response::ShuttingDown => ClientError::ShuttingDown,
            other => ClientError::Protocol(format!("unexpected response {other:?}")),
        }
    }

    /// Place a session; returns where it landed and the predicted FPS.
    pub fn place(&mut self, game: GameId, resolution: Resolution) -> Result<Placed, ClientError> {
        match self.call(&Request::Place { game, resolution })? {
            Response::Placed {
                session,
                server,
                predicted_fps,
                model_version,
            } => Ok(Placed {
                session,
                server,
                predicted_fps,
                model_version,
            }),
            Response::Rejected { reason } => Err(ClientError::Rejected { reason }),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Place a burst of sessions in one round-trip. The daemon decides the
    /// whole batch under a single fleet-lock acquisition; returns the model
    /// version that made the decisions plus one outcome per request, in
    /// request order. Individual rejections do not fail the call.
    pub fn place_batch(
        &mut self,
        requests: &[WirePlacement],
    ) -> Result<(u64, Vec<BatchPlaceResult>), ClientError> {
        let request = Request::PlaceBatch {
            requests: requests.to_vec(),
        };
        match self.call(&request)? {
            Response::PlacedBatch {
                model_version,
                results,
            } => Ok((model_version, results)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// End a session; returns the server index it freed.
    pub fn depart(&mut self, session: u64) -> Result<usize, ClientError> {
        match self.call(&Request::Depart { session })? {
            Response::Departed { server, .. } => Ok(server),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Ask for an interference prediction without placing anything.
    pub fn predict(
        &mut self,
        game: GameId,
        resolution: Resolution,
        others: &[WirePlacement],
        qos: f64,
    ) -> Result<Predicted, ClientError> {
        let request = Request::Predict {
            game,
            resolution,
            others: others.to_vec(),
            qos,
        };
        match self.call(&request)? {
            Response::Prediction {
                feasible,
                degradation,
                fps,
                model_version,
                cached,
            } => Ok(Predicted {
                feasible,
                degradation,
                fps,
                model_version,
                cached,
            }),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Report one session's observed frame rate; returns
    /// `(accepted, stale, dropped)` counts (each 0 or 1 for a single
    /// report).
    pub fn report_outcome(
        &mut self,
        report: OutcomeReport,
    ) -> Result<(u64, u64, u64), ClientError> {
        match self.call(&Request::ReportOutcome { report })? {
            Response::OutcomeRecorded {
                accepted,
                stale,
                dropped,
            } => Ok((accepted, stale, dropped)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Report a batch of observed frame rates in one round-trip; returns
    /// `(accepted, stale, dropped)` counts over the whole batch.
    pub fn report_outcomes(
        &mut self,
        reports: &[OutcomeReport],
    ) -> Result<(u64, u64, u64), ClientError> {
        let request = Request::ReportOutcomeBatch {
            reports: reports.to_vec(),
        };
        match self.call(&request)? {
            Response::OutcomeRecorded {
                accepted,
                stale,
                dropped,
            } => Ok((accepted, stale, dropped)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Queue a background retrain from the buffered outcome dataset.
    /// `min_samples` / `extra_rounds` override the daemon's feedback
    /// defaults for this one retrain. Returns whether the job was queued
    /// (`false` once the daemon is shutting down); the retrain itself runs
    /// asynchronously — poll [`stats`](Client::stats) for
    /// `retrains_ok`/`retrains_failed` to observe completion.
    pub fn trigger_retrain(
        &mut self,
        min_samples: Option<u64>,
        extra_rounds: Option<u64>,
    ) -> Result<bool, ClientError> {
        let request = Request::TriggerRetrain {
            min_samples,
            extra_rounds,
        };
        match self.call(&request)? {
            Response::RetrainQueued { queued } => Ok(queued),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Fetch the daemon's statistics snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(*snapshot),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Fetch the Prometheus text exposition of the daemon's metrics.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Fetch the daemon's SLO report: per-objective burn rates, alert
    /// states, and the rolling window views they were computed from. Forces
    /// a fresh evaluation on the daemon — the answer is never stale.
    pub fn slo_status(&mut self) -> Result<crate::slo::SloReport, ClientError> {
        match self.call(&Request::SloStatus)? {
            Response::Slo(report) => Ok(*report),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Snapshot the daemon's flight recorder as JSONL. `deterministic`
    /// strips non-deterministic fields (timestamps, worker ids, sequence
    /// numbers, control events) so the dump is byte-comparable across
    /// replayed runs; `false` keeps everything an operator wants. Returns
    /// `(jsonl, events, truncated)`.
    pub fn dump_recorder(
        &mut self,
        deterministic: bool,
    ) -> Result<(String, u64, bool), ClientError> {
        match self.call(&Request::DumpRecorder { deterministic })? {
            Response::RecorderDump {
                jsonl,
                events,
                truncated,
            } => Ok((jsonl, events, truncated)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Hot-reload the model (from `path`, or its original source when
    /// `None`); returns the new model version.
    pub fn reload(&mut self, path: Option<&str>) -> Result<u64, ClientError> {
        let request = Request::ReloadModel {
            path: path.map(str::to_string),
        };
        match self.call(&request)? {
            Response::Reloaded { version } => Ok(version),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;

    #[test]
    fn clean_close_before_the_reply_maps_to_disconnected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _: Request = read_frame(&mut stream).unwrap();
            // Close without answering: the client sees a frame-boundary EOF.
        });
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        match client.call(&Request::Stats) {
            Err(ClientError::Disconnected) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn half_closed_socket_mid_reply_maps_to_torn_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _: Request = read_frame(&mut stream).unwrap();
            // A header promising 64 bytes, then only 3 — a torn write.
            stream.write_all(&64u32.to_be_bytes()).unwrap();
            stream.write_all(b"xyz").unwrap();
            stream.flush().unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        match client.call(&Request::Stats) {
            Err(ClientError::TornReply(_)) => {}
            other => panic!("expected TornReply, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn backoff_honors_the_hint_and_caps_hostile_ones() {
        let p = RetryPolicy::default();
        // The hint is the floor of the sleep…
        assert_eq!(p.backoff_ms(120, 0.0), 120);
        // …jitter stretches it proportionally…
        assert_eq!(p.backoff_ms(100, 0.5), 150);
        assert_eq!(p.backoff_ms(100, 1.0), 200);
        // …out-of-range jitter is clamped, not trusted…
        assert_eq!(p.backoff_ms(100, 7.0), 200);
        assert_eq!(p.backoff_ms(100, -3.0), 100);
        // …a zero hint falls back to a polite beat…
        assert_eq!(p.backoff_ms(0, 0.0), 25);
        // …and a hostile hint cannot stall the caller past the cap.
        assert_eq!(p.backoff_ms(60_000, 0.0), 1_000);
        assert_eq!(p.backoff_ms(u64::MAX, 1.0), 1_000);
    }

    /// A fake daemon that pushes back `overloads` times (one connection
    /// each, shed after the reply, as the real acceptor does) and then
    /// answers `ShuttingDown` for real.
    fn pushback_server(
        listener: TcpListener,
        overloads: usize,
        retry_after_ms: u64,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            for _ in 0..overloads {
                let (mut s, _) = listener.accept().unwrap();
                let _: Request = read_frame(&mut s).unwrap();
                write_frame(&mut s, &Response::Overloaded { retry_after_ms }).unwrap();
            }
            let (mut s, _) = listener.accept().unwrap();
            let _: Request = read_frame(&mut s).unwrap();
            write_frame(&mut s, &Response::ShuttingDown).unwrap();
        })
    }

    #[test]
    fn retry_waits_at_least_the_server_hint() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = pushback_server(listener, 1, 120);

        let mut client = Client::connect(addr).unwrap();
        let started = std::time::Instant::now();
        client
            .call_with_retry(RetryPolicy::default(), &mut || 0.0, |c| c.shutdown())
            .expect("retry after pushback should succeed");
        assert!(
            started.elapsed() >= Duration::from_millis(120),
            "client ignored the retry_after_ms hint: {:?}",
            started.elapsed()
        );
        server.join().unwrap();
    }

    #[test]
    fn hostile_hint_is_capped_so_the_call_still_completes_quickly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A one-hour hint; the cap turns it into 50 ms.
        let server = pushback_server(listener, 1, 3_600_000);

        let policy = RetryPolicy {
            cap_ms: 50,
            ..RetryPolicy::default()
        };
        let mut client = Client::connect(addr).unwrap();
        let started = std::time::Instant::now();
        client
            .call_with_retry(policy, &mut || 1.0, |c| c.shutdown())
            .expect("capped retry should succeed");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "hostile hint stalled the client: {:?}",
            started.elapsed()
        );
        server.join().unwrap();
    }

    #[test]
    fn retries_are_bounded_and_surface_the_last_pushback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let policy = RetryPolicy {
            max_retries: 2,
            fallback_ms: 1,
            cap_ms: 5,
        };
        // Serves exactly max_retries + 1 pushbacks; a client that retried
        // more would hang on accept, so completion itself proves the bound.
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (mut s, _) = listener.accept().unwrap();
                let _: Request = read_frame(&mut s).unwrap();
                write_frame(&mut s, &Response::Overloaded { retry_after_ms: 1 }).unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        match client.call_with_retry(policy, &mut || 0.0, |c| c.shutdown()) {
            Err(ClientError::Overloaded { retry_after_ms: 1 }) => {}
            other => panic!("expected bounded Overloaded, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn ambiguous_failures_are_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _: Request = read_frame(&mut s).unwrap();
            drop(s); // die without answering: ambiguous
        });
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        match client.call_with_retry(RetryPolicy::default(), &mut || 0.0, |c| c.shutdown()) {
            Err(ClientError::Disconnected) => {}
            other => panic!("ambiguous failure must surface unretried, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn ambiguity_classification_guards_the_retry_loop() {
        assert!(ClientError::Disconnected.is_ambiguous());
        assert!(ClientError::TornReply("mid-frame".into()).is_ambiguous());
        assert!(ClientError::Io(io::Error::other("down")).is_ambiguous());
        // Typed daemon replies are definitive: the request was *not*
        // applied (or was answered), so retrying them is safe or moot.
        assert!(!ClientError::Overloaded { retry_after_ms: 5 }.is_ambiguous());
        assert!(!ClientError::Rejected {
            reason: String::new()
        }
        .is_ambiguous());
        assert!(!ClientError::ShuttingDown.is_ambiguous());
        assert!(!ClientError::Daemon(String::new()).is_ambiguous());
        assert!(!ClientError::UnknownSession { session: 7 }.is_ambiguous());
        assert!(!ClientError::Protocol(String::new()).is_ambiguous());
    }
}

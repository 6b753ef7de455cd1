//! The ledger's load generator: one connection's frame loop, closed or
//! open, over anything that answers frames.
//!
//! `serve::load` stamps latency after its pacing sleep, which hides the
//! queueing a stall causes. Here an open-loop frame is timed from the
//! instant its arrival was *due*, and how late the generator ran is
//! reported beside it.

use crate::span::SpanLog;
use crate::workload::{Frame, Kind, Quality, Schedule, Spec, Traffic};
use gaugur_serve::wire::{self, Request, Response};
use std::io::{self, Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Something that answers one encoded frame (length prefix + payload) with
/// a reply payload: the daemon over TCP, the in-process oracle, a test fake.
pub trait Backend {
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String>;
}

/// A raw localhost connection to the daemon. The client never blocks: it
/// polls the socket, yielding between polls, so that its vCPU does not halt
/// while it waits. Waking a halted vCPU of a shared VM costs tens of µs and
/// was the least repeatable part of a round trip.
pub struct Wire(TcpStream);

impl Wire {
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Wire(stream))
    }
}

/// Retry `op` while the socket has nothing to give or take, giving up when
/// the daemon has not moved for 20 s.
fn polling<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut waiting_since = None;
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let since = *waiting_since.get_or_insert_with(Instant::now);
                if since.elapsed() > Duration::from_secs(20) {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "no answer in 20 s"));
                }
                std::thread::yield_now();
            }
            other => return other,
        }
    }
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        polling(|| self.0.read(buf))
    }
}

impl Backend for Wire {
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        let mut sent = 0;
        while sent < frame.len() {
            sent += polling(|| self.0.write(&frame[sent..]))
                .map_err(|e| format!("write frame: {e}"))?;
        }
        wire::read_frame_bytes(self).map_err(|e| format!("read reply: {e}"))
    }
}

/// Encode `request`, send it, decode the reply. With a span log, client
/// encode, on-the-wire wait and decode are separate spans under one
/// `client.frame` root.
pub fn exchange(
    backend: &mut dyn Backend,
    buf: &mut Vec<u8>,
    request: &Request,
    spans: Option<&mut SpanLog>,
) -> Result<(Response, Vec<u8>), String> {
    buf.clear();
    match spans {
        None => {
            wire::write_frame(buf, request).map_err(|e| format!("encode: {e}"))?;
            let payload = backend.roundtrip(buf)?;
            let reply = wire::decode_payload(&payload).map_err(|e| e.to_string())?;
            Ok((reply, payload))
        }
        Some(log) => {
            let root = log.open("client.frame");
            let s = log.open("client.encode");
            wire::write_frame(buf, request).map_err(|e| format!("encode: {e}"))?;
            log.close(s);
            let s = log.open("client.wire");
            let payload = backend.roundtrip(buf)?;
            log.close(s);
            let s = log.open("client.decode");
            let reply = wire::decode_payload(&payload).map_err(|e| e.to_string())?;
            log.close(s);
            log.close(root);
            Ok((reply, payload))
        }
    }
}

/// How long a phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Until this many arrivals have been sent since the connection began.
    Arrivals(u64),
    /// Until this many seconds after the previous phase's end.
    Secs(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Offered arrivals/s over all connections; `None` is a closed loop.
    pub rate: Option<f64>,
    pub until: Until,
}

/// Slices a timed phase is cut into; every end-to-end timing is the median
/// over them, so a burst of neighbour noise on a shared VM spoils one
/// slice, not the number.
pub const SLICES: usize = 10;

fn saturate(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}

/// What one connection measured in one phase. Latencies are kept as `u32`
/// ns (saturating at 4.29 s), four bytes a frame: the daemon runs in this
/// process, so what the generator holds shows up in `peak_rss_mb`.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub start_ns: u64,
    /// `u64::MAX` while a phase that ends on an arrival count is running.
    pub end_ns: u64,
    /// Latency of every placement frame, by the slice it completed in.
    /// From send (closed loop) or from the arrival's due time (open loop).
    pub place_ns: [Vec<u32>; SLICES],
    /// Arrivals completed, by slice.
    pub arrivals: [u64; SLICES],
    /// Latency of the other kinds of frame (when asked for).
    pub other_ns: Vec<(Kind, u32)>,
    /// Open loop: arrivals that were due before the phase ended but never
    /// sent because the connection was still busy. They count as attempted
    /// and as missing the latency limit.
    pub abandoned: u64,
    /// Open loop: how long after its due time each arrival's first frame
    /// was sent, ns.
    pub late_ns: Vec<u32>,
    pub quality: Quality,
}

impl PhaseResult {
    /// Record a placement frame (carrying `arrivals` arrivals) answered at
    /// `done_ns`. A frame in flight when the phase closed lands in the last
    /// slice; a phase without an end time has one slice.
    pub fn record_place(&mut self, done_ns: u64, lat_ns: u64, arrivals: u32) {
        let i = if self.end_ns == u64::MAX {
            0
        } else {
            let span = (self.end_ns - self.start_ns).max(1);
            let at = done_ns.saturating_sub(self.start_ns);
            ((at as u128 * SLICES as u128 / span as u128) as usize).min(SLICES - 1)
        };
        self.place_ns[i].push(saturate(lat_ns));
        self.arrivals[i] += u64::from(arrivals);
    }
}

#[derive(Debug, Default)]
pub struct ConnResult {
    pub phases: Vec<PhaseResult>,
    /// Request and reply payloads in frame order, drain included (when
    /// asked for).
    pub requests: Vec<Vec<u8>>,
    pub replies: Vec<Vec<u8>>,
    pub frames: u64,
    /// Payload bytes sent and received, length prefixes excluded.
    pub request_bytes: u64,
    pub response_bytes: u64,
}

pub struct ConnConfig<'a> {
    pub spec: &'static Spec,
    pub seed: u64,
    pub connection: u64,
    pub connections: u64,
    pub phases: &'a [Phase],
    /// Common zero of every connection's clock.
    pub epoch: Instant,
    pub keep_frames: bool,
    /// Record a sample for every kind of frame, not only placements.
    pub all_kinds: bool,
}

/// Drive one connection through its phases, then depart every session it
/// still holds. Any transport error or wrong kind of reply ends the run
/// with an `Err`: the workloads are chosen so that no operation fails.
pub fn run_connection(
    cfg: &ConnConfig<'_>,
    backend: &mut dyn Backend,
    mut spans: Option<&mut SpanLog>,
) -> Result<ConnResult, String> {
    let mut traffic = Traffic::new(cfg.spec, cfg.seed, cfg.connection);
    let mut out = ConnResult::default();
    let mut buf = Vec::with_capacity(1024);
    let now_ns = || cfg.epoch.elapsed().as_nanos() as u64;

    let mut send = |traffic: &mut Traffic,
                    out: &mut ConnResult,
                    frame: &Frame,
                    spans: &mut Option<&mut SpanLog>|
     -> Result<(), String> {
        if let Some(log) = spans.as_deref_mut() {
            log.set_request(out.frames as u32);
        }
        let (reply, payload) = exchange(backend, &mut buf, &frame.request, spans.as_deref_mut())?;
        out.frames += 1;
        out.request_bytes += buf.len() as u64 - 4;
        out.response_bytes += payload.len() as u64;
        traffic.on_reply(frame, &reply)?;
        if cfg.keep_frames {
            out.requests.push(buf[4..].to_vec());
            out.replies.push(payload);
        }
        Ok(())
    };

    // Phase boundaries are offsets from the common epoch, so every
    // connection's slices line up.
    let mut phase_start_ns = 0;
    for (p, phase) in cfg.phases.iter().enumerate() {
        let end_ns = match phase.until {
            Until::Secs(s) => phase_start_ns + (s * 1e9) as u64,
            Until::Arrivals(_) => u64::MAX,
        };
        let mut result = PhaseResult {
            start_ns: phase_start_ns,
            end_ns,
            ..PhaseResult::default()
        };
        let mut schedule = phase.rate.map(|r| {
            Schedule::new(
                cfg.spec,
                cfg.seed,
                cfg.connection,
                p as u64,
                r / cfg.connections as f64,
            )
        });
        traffic.take_quality();
        loop {
            if let Until::Arrivals(n) = phase.until {
                if traffic.arrivals() >= n {
                    break;
                }
            }
            // Pace the next arrival: open loops wait for its due time.
            let mut due_ns = None;
            if let Some(schedule) = schedule.as_mut() {
                let due = phase_start_ns + schedule.next_due_ns();
                if due >= end_ns {
                    break;
                }
                // Busy-wait, yielding, for the due instant. `thread::sleep`
                // overshoots by 50-100 us and lets the vCPU halt, and the
                // wake-up of a halted vCPU was the largest and least
                // repeatable part of an open-loop round trip on a shared VM.
                let mut now = now_ns();
                while now < due {
                    std::thread::yield_now();
                    now = now_ns();
                }
                if now >= end_ns {
                    // Due inside the phase, never sent: the backlog the
                    // phase left behind.
                    result.abandoned += 1;
                    while phase_start_ns + schedule.next_due_ns() < end_ns {
                        result.abandoned += 1;
                    }
                    break;
                }
                result.late_ns.push(saturate(now.saturating_sub(due)));
                due_ns = Some(due);
            } else if now_ns() >= end_ns {
                break;
            }
            traffic.begin_arrival();
            while let Some(frame) = traffic.pop() {
                let sent_ns = now_ns();
                send(&mut traffic, &mut out, &frame, &mut spans)?;
                let done_ns = now_ns();
                let lat_ns = done_ns - due_ns.unwrap_or(sent_ns);
                if frame.kind == Kind::Place {
                    result.record_place(done_ns, lat_ns, frame.arrivals);
                } else if cfg.all_kinds {
                    result.other_ns.push((frame.kind, saturate(lat_ns)));
                }
            }
        }
        result.quality = traffic.take_quality();
        if end_ns == u64::MAX {
            result.end_ns = now_ns();
        }
        phase_start_ns = result.end_ns;
        out.phases.push(result);
    }
    while let Some(frame) = traffic.drain() {
        send(&mut traffic, &mut out, &frame, &mut spans)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    /// Answers every `Place` with `Placed`, stalling once for 50 ms.
    struct Stalling {
        calls: u32,
        stall_on: u32,
        session: u64,
    }

    impl Backend for Stalling {
        fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
            self.calls += 1;
            if self.calls == self.stall_on {
                std::thread::sleep(Duration::from_millis(50));
            }
            let request: Request = wire::decode_payload(&frame[4..]).map_err(|e| e.to_string())?;
            let reply = match request {
                Request::Place { .. } => {
                    self.session += 1;
                    Response::Placed {
                        session: self.session,
                        server: 0,
                        predicted_fps: 90.0,
                        model_version: 1,
                    }
                }
                Request::Depart { session } => Response::Departed { session, server: 0 },
                other => return Err(format!("unexpected {other:?}")),
            };
            let mut out = Vec::new();
            wire::write_frame(&mut out, &reply).map_err(|e| e.to_string())?;
            Ok(out.split_off(4))
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_frames_that_were_due_during_it() {
        // 2 000 arrivals/s for 0.2 s: an arrival is due every 0.5 ms, so a
        // 50 ms stall makes about a hundred arrivals late. Timed from the
        // send, only the stalled frame itself would read slow.
        let mut backend = Stalling {
            calls: 0,
            stall_on: 40,
            session: 0,
        };
        let phases = [Phase {
            rate: Some(2_000.0),
            until: Until::Secs(0.2),
        }];
        let cfg = ConnConfig {
            spec: workload::find("place_hot").unwrap(),
            seed: 11,
            connection: 0,
            connections: 1,
            phases: &phases,
            epoch: Instant::now(),
            keep_frames: false,
            all_kinds: false,
        };
        let r = run_connection(&cfg, &mut backend, None).unwrap();
        let phase = &r.phases[0];
        let slow = phase
            .place_ns
            .iter()
            .flatten()
            .filter(|&&ns| ns > 10_000_000)
            .count();
        assert!(
            slow >= 20,
            "only {slow} placements carry the stall: latency is not measured from the due time"
        );
        // The generator's own lateness shows the same backlog.
        let late = phase.late_ns.iter().filter(|&&l| l > 10_000_000).count();
        assert!(late >= 20, "{late}");
        // Nothing is lost: every arrival was sent or counted as abandoned,
        // and every session placed was departed in the drain.
        assert_eq!(
            r.frames,
            2 * phase.quality.placed,
            "one Place and one Depart per session"
        );
    }

    #[test]
    fn an_arrival_count_ends_a_closed_phase_exactly() {
        let mut backend = Stalling {
            calls: 0,
            stall_on: 0,
            session: 0,
        };
        let phases = [Phase {
            rate: None,
            until: Until::Arrivals(300),
        }];
        let cfg = ConnConfig {
            spec: workload::find("place_hot").unwrap(),
            seed: 2,
            connection: 0,
            connections: 1,
            phases: &phases,
            epoch: Instant::now(),
            keep_frames: true,
            all_kinds: true,
        };
        let r = run_connection(&cfg, &mut backend, None).unwrap();
        assert_eq!(r.phases[0].quality.placed, 300);
        assert_eq!(r.frames, 600);
        assert_eq!(r.replies.len(), 600);
        assert!(r.phases[0].late_ns.is_empty());
    }
}

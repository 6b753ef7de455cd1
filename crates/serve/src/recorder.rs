//! Always-on flight recorder: the last N structured events per worker, in
//! lock-free rings, snapshotted to JSONL when something goes wrong.
//!
//! Counters say *how much*; the recorder says *what, in order*. Every
//! confirmed admission, depart, rollback, reload, retrain, injected fault
//! and alert transition lands as one compact event (a kind code plus five
//! `u64` payload words) in the recording worker's ring — single writer per
//! ring, relaxed stores sealed by a release-stamped sequence number, no
//! locks on the hot path. Rare cross-thread events (retrains from the
//! retrainer thread, alert transitions from whichever thread evaluated the
//! SLO engine) go to a small mutex-guarded control ring instead; both feed
//! one global sequence so a dump interleaves them in causal order.
//!
//! Dumps come in two flavors:
//!
//! - **Operator** (`deterministic = false`): every event with its sequence
//!   number, timestamp and source ring — for reading an incident.
//! - **Deterministic** (`deterministic = true`): only the event kinds whose
//!   occurrence and payload are a pure function of the confirmed operation
//!   stream — admissions whose reply was delivered, and departs — with
//!   run-varying fields (sequence, time, session id, model version) struck
//!   and lines renumbered by position. Two runs that confirm the same
//!   operations byte-for-byte produce byte-identical deterministic dumps;
//!   the chaos harness holds a faulted run and its fault-free replay to
//!   exactly that standard. Session ids are struck because rolled-back
//!   admissions consume them (runs with different fault schedules mint
//!   different ids for the same surviving session); shard and server are
//!   kept because the placement decision itself is the replayed bit.
//!
//! Torn reads are possible only for events overwritten mid-dump (the writer
//! re-stamps before reuse); dumps taken at quiesce points are exact.

use crate::slo::AlertState;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Payload words carried by every event.
pub const EVENT_WORDS: usize = 5;

/// Hard cap on a dump's JSONL payload (bytes); comfortably inside the
/// 256 KiB wire frame limit. Oldest lines are dropped first.
pub const DUMP_MAX_BYTES: usize = 192 * 1024;

/// One structured flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A placement was admitted **and its reply delivered** (batch items
    /// count individually). Emitted only after the reply write succeeds, so
    /// the event stream matches what clients observed — the property the
    /// deterministic dump rests on.
    Admit {
        /// Session id minted for the placement.
        session: u64,
        /// Global server index the session landed on.
        server: u64,
        /// Placement shard that admitted it.
        shard: u64,
        /// Model version that scored it.
        version: u64,
        /// Game id of the placed session.
        game: u64,
    },
    /// A session departed (reply delivered).
    Depart {
        /// Departed session id.
        session: u64,
        /// Server the session was freed from.
        server: u64,
        /// Shard that held it.
        shard: u64,
    },
    /// An admission was rolled back because its reply was undeliverable.
    Rollback {
        /// Session id of the rolled-back admission.
        session: u64,
        /// Server the admission was undone on.
        server: u64,
        /// Shard that held it.
        shard: u64,
    },
    /// A model reload published a new version.
    Reload {
        /// The newly published model version.
        version: u64,
    },
    /// A background retrain published a new version.
    RetrainOk {
        /// The newly published model version.
        version: u64,
        /// Outcome samples the retrain consumed.
        samples: u64,
    },
    /// A background retrain failed (no version change).
    RetrainFailed,
    /// The daemon-side fault injector fired on a reply.
    Fault {
        /// Fault-action code (see [`crate::fault::FaultAction`] order).
        point: u64,
    },
    /// An SLO objective changed alert state.
    Alert {
        /// Index into [`crate::slo::OBJECTIVES`].
        objective: u64,
        /// Previous severity code ([`AlertState::as_u8`]).
        from: u64,
        /// New severity code.
        to: u64,
    },
}

impl Event {
    /// Whether this kind survives into a deterministic dump (see the
    /// module docs for the argument).
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Event::Admit { .. } | Event::Depart { .. })
    }

    /// Stable kind name used in dump lines.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Admit { .. } => "admit",
            Event::Depart { .. } => "depart",
            Event::Rollback { .. } => "rollback",
            Event::Reload { .. } => "reload",
            Event::RetrainOk { .. } => "retrain_ok",
            Event::RetrainFailed => "retrain_failed",
            Event::Fault { .. } => "fault",
            Event::Alert { .. } => "alert",
        }
    }

    fn encode(&self) -> (u64, [u64; EVENT_WORDS]) {
        match *self {
            Event::Admit {
                session,
                server,
                shard,
                version,
                game,
            } => (0, [session, server, shard, version, game]),
            Event::Depart {
                session,
                server,
                shard,
            } => (1, [session, server, shard, 0, 0]),
            Event::Rollback {
                session,
                server,
                shard,
            } => (2, [session, server, shard, 0, 0]),
            Event::Reload { version } => (3, [version, 0, 0, 0, 0]),
            Event::RetrainOk { version, samples } => (4, [version, samples, 0, 0, 0]),
            Event::RetrainFailed => (5, [0; EVENT_WORDS]),
            Event::Fault { point } => (6, [point, 0, 0, 0, 0]),
            Event::Alert {
                objective,
                from,
                to,
            } => (7, [objective, from, to, 0, 0]),
        }
    }

    fn decode(kind: u64, d: [u64; EVENT_WORDS]) -> Option<Event> {
        Some(match kind {
            0 => Event::Admit {
                session: d[0],
                server: d[1],
                shard: d[2],
                version: d[3],
                game: d[4],
            },
            1 => Event::Depart {
                session: d[0],
                server: d[1],
                shard: d[2],
            },
            2 => Event::Rollback {
                session: d[0],
                server: d[1],
                shard: d[2],
            },
            3 => Event::Reload { version: d[0] },
            4 => Event::RetrainOk {
                version: d[0],
                samples: d[1],
            },
            5 => Event::RetrainFailed,
            6 => Event::Fault { point: d[0] },
            7 => Event::Alert {
                objective: d[0],
                from: d[1],
                to: d[2],
            },
            _ => return None,
        })
    }
}

fn alert_state_name(code: u64) -> &'static str {
    match code {
        0 => "ok",
        1 => "warn",
        2 => "critical",
        _ => "unknown",
    }
}

/// One worker-ring slot. `seq` holds `global_seq + 1` (0 = empty) and is
/// stored with release ordering *after* the payload, so a reader that
/// observes a stable `seq` across its field reads saw a consistent event.
struct EventSlot {
    seq: AtomicU64,
    t_us: AtomicU64,
    kind: AtomicU64,
    data: [AtomicU64; EVENT_WORDS],
}

impl EventSlot {
    fn new() -> EventSlot {
        EventSlot {
            seq: AtomicU64::new(0),
            t_us: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            data: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct WorkerRing {
    head: AtomicU64,
    slots: Vec<EventSlot>,
}

/// One decoded event as gathered for a dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Global admission order across all rings.
    pub seq: u64,
    /// Clock microseconds when the event was recorded.
    pub t_us: u64,
    /// Worker ring index, or `None` for the control ring.
    pub worker: Option<usize>,
    /// The event itself.
    pub event: Event,
}

/// A rendered dump: one JSON object per line, oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderDump {
    /// JSONL payload (possibly empty; always `\n`-terminated when not).
    pub jsonl: String,
    /// Lines in `jsonl` after any truncation.
    pub events: u64,
    /// Whether oldest lines were dropped to honor [`DUMP_MAX_BYTES`].
    pub truncated: bool,
}

/// The flight recorder: per-worker lock-free event rings plus a mutexed
/// control ring for off-worker threads, sharing one global sequence. It
/// reads no clock: callers pass the timestamp (`t_us`) they already hold —
/// on a worker, the frame's one clock read.
pub struct Recorder {
    workers: Vec<WorkerRing>,
    control: Mutex<VecDeque<(u64, u64, Event)>>,
    control_capacity: usize,
    seq: AtomicU64,
}

impl Recorder {
    /// Recorder with `workers` rings of `capacity` events each (the control
    /// ring gets the same capacity).
    pub fn new(workers: usize, capacity: usize) -> Recorder {
        let capacity = capacity.max(1);
        Recorder {
            workers: (0..workers.max(1))
                .map(|_| WorkerRing {
                    head: AtomicU64::new(0),
                    slots: (0..capacity).map(|_| EventSlot::new()).collect(),
                })
                .collect(),
            control: Mutex::new(VecDeque::with_capacity(capacity)),
            control_capacity: capacity,
            seq: AtomicU64::new(0),
        }
    }

    /// Take the next position in the global event order without recording
    /// anything yet. An admit or depart is stamped under its shard's lock
    /// and recorded ([`record_at`](Recorder::record_at)) once its reply is
    /// out, so a dump lists each shard's events in the order the decisions
    /// were made, not the order the replies happened to be written in.
    pub fn stamp(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Record `event` into `worker`'s ring. Lock-free; only the owning
    /// worker thread may record for its index.
    pub fn record(&self, worker: usize, t_us: u64, event: Event) {
        self.record_at(worker, self.stamp(), t_us, event);
    }

    /// [`record`](Recorder::record) at a position taken earlier with
    /// [`stamp`](Recorder::stamp).
    pub fn record_at(&self, worker: usize, seq: u64, t_us: u64, event: Event) {
        let ring = &self.workers[worker % self.workers.len()];
        let idx = (ring.head.fetch_add(1, Ordering::Relaxed) % ring.slots.len() as u64) as usize;
        let slot = &ring.slots[idx];
        let (kind, data) = event.encode();
        // Invalidate, write payload, then seal with the release-stored seq:
        // a dump reading a stable non-zero seq saw the whole event.
        slot.seq.store(0, Ordering::Release);
        slot.t_us.store(t_us, Ordering::Relaxed);
        slot.kind.store(kind, Ordering::Relaxed);
        for (d, v) in slot.data.iter().zip(data) {
            d.store(v, Ordering::Relaxed);
        }
        slot.seq.store(seq + 1, Ordering::Release);
    }

    /// Record `event` from a non-worker thread (retrainer, SLO evaluation).
    pub fn record_control(&self, t_us: u64, event: Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut control = self.control.lock();
        if control.len() == self.control_capacity {
            control.pop_front();
        }
        control.push_back((seq, t_us, event));
    }

    /// Gather every currently readable event across all rings, in global
    /// sequence order. Events overwritten mid-read are skipped; exact at
    /// quiesce points.
    pub fn events(&self) -> Vec<RecordedEvent> {
        let mut out = Vec::new();
        for (w, ring) in self.workers.iter().enumerate() {
            for slot in &ring.slots {
                let seq_before = slot.seq.load(Ordering::Acquire);
                if seq_before == 0 {
                    continue;
                }
                let t_us = slot.t_us.load(Ordering::Relaxed);
                let kind = slot.kind.load(Ordering::Relaxed);
                let mut data = [0u64; EVENT_WORDS];
                for (v, d) in data.iter_mut().zip(&slot.data) {
                    *v = d.load(Ordering::Relaxed);
                }
                if slot.seq.load(Ordering::Acquire) != seq_before {
                    continue; // torn: the writer reused this slot mid-read
                }
                if let Some(event) = Event::decode(kind, data) {
                    out.push(RecordedEvent {
                        seq: seq_before - 1,
                        t_us,
                        worker: Some(w),
                        event,
                    });
                }
            }
        }
        for &(seq, t_us, event) in self.control.lock().iter() {
            out.push(RecordedEvent {
                seq,
                t_us,
                worker: None,
                event,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Render a dump (see the module docs for the two flavors). Lines are
    /// oldest-first; if the payload would exceed [`DUMP_MAX_BYTES`] the
    /// oldest lines are dropped and `truncated` is set.
    pub fn dump(&self, deterministic: bool) -> RecorderDump {
        let events = self.events();
        let mut lines: Vec<String> = Vec::new();
        let mut i = 0u64;
        for e in &events {
            if deterministic {
                if !e.event.is_deterministic() {
                    continue;
                }
                lines.push(deterministic_line(i, &e.event));
                i += 1;
            } else {
                lines.push(operator_line(e));
            }
        }
        let total: usize = lines.iter().map(|l| l.len() + 1).sum();
        let mut truncated = false;
        let mut start = 0usize;
        let mut kept = total;
        while kept > DUMP_MAX_BYTES && start < lines.len() {
            kept -= lines[start].len() + 1;
            start += 1;
            truncated = true;
        }
        let mut jsonl = String::with_capacity(kept);
        for line in &lines[start..] {
            jsonl.push_str(line);
            jsonl.push('\n');
        }
        RecorderDump {
            events: (lines.len() - start) as u64,
            jsonl,
            truncated,
        }
    }
}

/// Deterministic-mode line: position-renumbered, run-varying fields struck.
fn deterministic_line(i: u64, event: &Event) -> String {
    let mut s = String::with_capacity(64);
    match *event {
        Event::Admit {
            server,
            shard,
            game,
            ..
        } => {
            let _ = write!(
                s,
                "{{\"i\":{i},\"kind\":\"admit\",\"server\":{server},\"shard\":{shard},\"game\":{game}}}"
            );
        }
        Event::Depart { server, shard, .. } => {
            let _ = write!(
                s,
                "{{\"i\":{i},\"kind\":\"depart\",\"server\":{server},\"shard\":{shard}}}"
            );
        }
        _ => unreachable!("filtered by is_deterministic"),
    }
    s
}

/// Operator-mode line: everything, with provenance.
fn operator_line(e: &RecordedEvent) -> String {
    let mut s = String::with_capacity(128);
    let source = match e.worker {
        Some(w) => format!("w{w}"),
        None => "ctl".to_string(),
    };
    let _ = write!(
        s,
        "{{\"seq\":{},\"t_us\":{},\"source\":\"{source}\",\"kind\":\"{}\"",
        e.seq,
        e.t_us,
        e.event.kind()
    );
    match e.event {
        Event::Admit {
            session,
            server,
            shard,
            version,
            game,
        } => {
            let _ = write!(
                s,
                ",\"session\":{session},\"server\":{server},\"shard\":{shard},\"version\":{version},\"game\":{game}"
            );
        }
        Event::Depart {
            session,
            server,
            shard,
        }
        | Event::Rollback {
            session,
            server,
            shard,
        } => {
            let _ = write!(
                s,
                ",\"session\":{session},\"server\":{server},\"shard\":{shard}"
            );
        }
        Event::Reload { version } => {
            let _ = write!(s, ",\"version\":{version}");
        }
        Event::RetrainOk { version, samples } => {
            let _ = write!(s, ",\"version\":{version},\"samples\":{samples}");
        }
        Event::RetrainFailed => {}
        Event::Fault { point } => {
            let _ = write!(s, ",\"point\":{point}");
        }
        Event::Alert {
            objective,
            from,
            to,
        } => {
            let name = crate::slo::OBJECTIVES
                .get(objective as usize)
                .copied()
                .unwrap_or("unknown");
            let _ = write!(
                s,
                ",\"objective\":\"{name}\",\"from\":\"{}\",\"to\":\"{}\"",
                alert_state_name(from),
                alert_state_name(to)
            );
        }
    }
    s.push('}');
    s
}

/// Convenience constructor for an alert-transition event.
pub fn alert_event(objective: usize, from: AlertState, to: AlertState) -> Event {
    Event::Alert {
        objective: objective as u64,
        from: from.as_u8() as u64,
        to: to.as_u8() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(session: u64) -> Event {
        Event::Admit {
            session,
            server: session % 6,
            shard: session % 2,
            version: 1,
            game: session % 4,
        }
    }

    #[test]
    fn every_event_kind_roundtrips_through_the_ring() {
        let r = Recorder::new(1, 32);
        let all = [
            admit(9),
            Event::Depart {
                session: 9,
                server: 3,
                shard: 1,
            },
            Event::Rollback {
                session: 10,
                server: 2,
                shard: 0,
            },
            Event::Reload { version: 2 },
            Event::RetrainOk {
                version: 3,
                samples: 41,
            },
            Event::RetrainFailed,
            Event::Fault { point: 4 },
            alert_event(1, AlertState::Ok, AlertState::Critical),
        ];
        for &e in &all {
            r.record(0, 0, e);
        }
        let got = r.events();
        assert_eq!(got.len(), all.len());
        for (i, (g, &e)) in got.iter().zip(&all).enumerate() {
            assert_eq!(g.seq, i as u64);
            assert_eq!(g.event, e, "event {i}");
            assert_eq!(g.worker, Some(0));
        }
    }

    #[test]
    fn worker_and_control_events_interleave_by_global_seq() {
        let r = Recorder::new(2, 8);
        r.record(0, 10, admit(1));
        r.record_control(20, Event::RetrainFailed);
        r.record(1, 30, admit(2));
        let got = r.events();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].worker, Some(0));
        assert_eq!(got[1].worker, None);
        assert_eq!(got[1].t_us, 20);
        assert_eq!(got[2].worker, Some(1));
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn rings_overwrite_oldest_when_full() {
        let r = Recorder::new(1, 4);
        for s in 0..10 {
            r.record(0, 0, admit(s));
        }
        let got = r.events();
        assert_eq!(got.len(), 4);
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "the last capacity events survive"
        );
        // Control ring bounds the same way.
        for _ in 0..10 {
            r.record_control(0, Event::RetrainFailed);
        }
        assert_eq!(r.events().len(), 4 + 4);
    }

    #[test]
    fn operator_dump_lists_everything_with_provenance() {
        let r = Recorder::new(1, 16);
        r.record(0, 1234, admit(7));
        r.record_control(1234, alert_event(0, AlertState::Ok, AlertState::Warn));
        let dump = r.dump(false);
        assert!(!dump.truncated);
        assert_eq!(dump.events, 2);
        let lines: Vec<&str> = dump.jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"t_us\":1234,\"source\":\"w0\",\"kind\":\"admit\",\
             \"session\":7,\"server\":1,\"shard\":1,\"version\":1,\"game\":3}"
        );
        assert!(lines[1].contains("\"source\":\"ctl\""), "{}", lines[1]);
        assert!(
            lines[1].contains("\"objective\":\"admit_qos\",\"from\":\"ok\",\"to\":\"warn\""),
            "{}",
            lines[1]
        );
        // Every line parses as JSON.
        for line in lines {
            serde_json::parse_value_str(line).expect(line);
        }
    }

    #[test]
    fn deterministic_dump_strikes_run_varying_fields_and_renumbers() {
        let a = Recorder::new(1, 16);
        let b = Recorder::new(1, 16);
        let t_a = 999_999; // timestamps must not leak into the dump

        // Run A: a rollback and a fault interleave the confirmed stream.
        a.record(0, t_a, admit(4));
        a.record(
            0,
            t_a,
            Event::Rollback {
                session: 5,
                server: 1,
                shard: 0,
            },
        );
        a.record(0, t_a, Event::Fault { point: 2 });
        // The session surviving after the rollback gets a later id in run A…
        a.record(
            0,
            t_a,
            Event::Admit {
                session: 6,
                server: 2,
                shard: 1,
                version: 3,
                game: 1,
            },
        );
        a.record(
            0,
            t_a,
            Event::Depart {
                session: 4,
                server: 0,
                shard: 0,
            },
        );

        // …and an earlier id (and version) in fault-free run B.
        b.record(0, 0, admit(4));
        b.record(
            0,
            0,
            Event::Admit {
                session: 5,
                server: 2,
                shard: 1,
                version: 1,
                game: 1,
            },
        );
        b.record(
            0,
            0,
            Event::Depart {
                session: 4,
                server: 0,
                shard: 0,
            },
        );

        let da = a.dump(true);
        let db = b.dump(true);
        assert_eq!(da.jsonl, db.jsonl, "same confirmed stream, same bytes");
        assert_eq!(da.events, 3);
        let lines: Vec<&str> = da.jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"i\":0,\"kind\":\"admit\",\"server\":4,\"shard\":0,\"game\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"i\":1,\"kind\":\"admit\",\"server\":2,\"shard\":1,\"game\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"i\":2,\"kind\":\"depart\",\"server\":0,\"shard\":0}"
        );
        assert!(!da.jsonl.contains("session"), "session ids are struck");
        assert!(!da.jsonl.contains("seq"), "sequence numbers are struck");
        assert!(!da.jsonl.contains("t_us"), "timestamps are struck");
    }

    #[test]
    fn dumps_cap_their_payload_by_dropping_oldest() {
        let r = Recorder::new(1, 4096);
        for s in 0..4096 {
            r.record(0, 0, admit(s));
        }
        let dump = r.dump(false);
        assert!(dump.truncated);
        assert!(dump.jsonl.len() <= DUMP_MAX_BYTES);
        assert!(dump.events < 4096);
        // The newest event survived truncation.
        assert!(dump.jsonl.lines().last().unwrap().contains("\"seq\":4095"));
    }

    #[test]
    fn empty_recorder_dumps_empty() {
        let r = Recorder::new(2, 8);
        let dump = r.dump(true);
        assert_eq!(dump.jsonl, "");
        assert_eq!(dump.events, 0);
        assert!(!dump.truncated);
    }
}

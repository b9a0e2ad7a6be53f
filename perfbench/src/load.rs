//! The open-loop generator: one sender and one reply reader per
//! connection. Senders keep to the plan's due times whether or not
//! replies have come back; readers time each reply from its due time and
//! check it against the in-process prediction for the same row.

use std::collections::HashMap;
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use boosthd_serve::wire::{read_frame, Client, Reply, DEFAULT_MAX_FRAME_BYTES};

use crate::deploy::QueryPool;
use crate::plan::{Planned, NO_PATIENT};
use crate::stats::StageOutcome;
use crate::trace::{Span, Tracer};

/// Ids of injected probes carry this bit; plan requests use their index.
/// Ids cross the wire as JSON numbers, which are exact only below 2^53.
const PROBE_BIT: u64 = 1 << 40;
/// In-flight samples per connection (evenly spaced over the plan).
const IN_FLIGHT_SAMPLES: usize = 8;
/// The stretch before each due time a sender spins instead of sleeping.
const SPIN: Duration = Duration::from_micros(1_500);
/// How long a phase waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(5);

/// A request the hot-swap driver asks connection 0 to send at once.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Query-pool row.
    pub row: u32,
    /// Patient index.
    pub patient: u32,
}

/// Hot-swap bookkeeping shared with the reply readers.
#[derive(Debug, Default)]
pub struct SwapWatch {
    /// The swapped patient.
    pub patient: u32,
    /// Latest version published for it (replies may not exceed it).
    pub latest: AtomicU64,
    /// Version whose first reply is awaited (0: none).
    pub awaited: AtomicU64,
    /// When the first reply carrying `awaited` arrived.
    pub seen: Mutex<Option<Instant>>,
}

/// How one phase drives its connections.
pub struct Phase<'a> {
    /// Server address.
    pub addr: &'a str,
    /// Rows and expected replies.
    pub pool: &'a QueryPool,
    /// One plan per connection.
    pub plans: Vec<Vec<Planned>>,
    /// Requests in flight per connection at which the sender stops early
    /// (or, with `saturate`, waits).
    pub cap: usize,
    /// Saturation mode: hold at `cap` in flight instead of stopping, and
    /// stop sending once `stop_after` has passed.
    pub saturate: Option<Duration>,
    /// Span recording.
    pub trace: bool,
    /// Trace epoch.
    pub epoch: Instant,
    /// Hot-swap watch (fleet only).
    pub swap: Option<&'a SwapWatch>,
    /// Probes for connection 0 (fleet only).
    pub probes: Option<Receiver<Probe>>,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Planned, sent, failed, latencies, lags and in-flight samples.
    pub stage: StageOutcome,
    /// Predict replies received.
    pub answered: usize,
    /// Replies whose class equals the row's label.
    pub correct: usize,
    /// Replies that differ from the in-process prediction.
    pub mismatches: usize,
    /// Replies whose id matches no request sent.
    pub unmatched: usize,
    /// Requests with no reply by the end of the drain.
    pub timed_out: usize,
    /// Which pool rows were served.
    pub served_rows: Vec<bool>,
    /// The first few failure descriptions.
    pub failure_notes: Vec<String>,
    /// First due time to last reply.
    pub elapsed: Duration,
    /// Probes sent.
    pub probes: usize,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl PhaseResult {
    /// Requests attempted (plan sends plus probes).
    pub fn attempted(&self) -> usize {
        self.stage.sent + self.probes
    }

    /// Merges `other` into `self` (latencies, lags and counts add up;
    /// in-flight samples are summed point by point).
    pub fn absorb(&mut self, other: PhaseResult) {
        self.stage.planned += other.stage.planned;
        self.stage.sent += other.stage.sent;
        self.stage.failed += other.stage.failed;
        self.stage.latencies_ms.extend(other.stage.latencies_ms);
        self.stage.lags_ms.extend(other.stage.lags_ms);
        if self.stage.in_flight.len() < other.stage.in_flight.len() {
            self.stage.in_flight.resize(other.stage.in_flight.len(), 0);
        }
        for (a, b) in self.stage.in_flight.iter_mut().zip(other.stage.in_flight) {
            *a += b;
        }
        self.answered += other.answered;
        self.correct += other.correct;
        self.mismatches += other.mismatches;
        self.unmatched += other.unmatched;
        self.timed_out += other.timed_out;
        if self.served_rows.len() < other.served_rows.len() {
            self.served_rows.resize(other.served_rows.len(), false);
        }
        for (a, b) in self.served_rows.iter_mut().zip(other.served_rows) {
            *a |= b;
        }
        let room = 8usize.saturating_sub(self.failure_notes.len());
        self.failure_notes
            .extend(other.failure_notes.into_iter().take(room));
        self.elapsed = self.elapsed.max(other.elapsed);
        self.probes += other.probes;
        self.spans.extend(other.spans);
    }
}

/// Counters one connection's sender and reader share.
#[derive(Default)]
struct Shared {
    sent: AtomicUsize,
    received: AtomicUsize,
    /// Injected probes: probe id -> (due, row, patient).
    probes: Mutex<HashMap<u64, (Instant, u32, u32)>>,
}

/// Runs one phase and returns its merged result.
pub fn run_phase(phase: Phase<'_>) -> PhaseResult {
    let Phase {
        addr,
        pool,
        plans,
        cap,
        saturate,
        trace,
        epoch,
        swap,
        mut probes,
    } = phase;
    let clients: Vec<Client> = plans
        .iter()
        .map(|_| Client::connect(addr).expect("connect to the benchmark server"))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = PhaseResult::default();
    let results: Vec<PhaseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plans)
            .enumerate()
            .map(|(conn, (client, plan))| {
                let probes = if conn == 0 { probes.take() } else { None };
                scope.spawn(move || {
                    run_connection(
                        client, plan, pool, cap, saturate, trace, epoch, start, swap, probes,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    for r in results {
        total.absorb(r);
    }
    total
}

#[allow(clippy::too_many_arguments)] // one call site, the phase fields unpacked
fn run_connection(
    mut client: Client,
    plan: &[Planned],
    pool: &QueryPool,
    cap: usize,
    saturate: Option<Duration>,
    trace: bool,
    epoch: Instant,
    start: Instant,
    swap: Option<&SwapWatch>,
    mut probes: Option<Receiver<Probe>>,
) -> PhaseResult {
    let shared = Shared::default();
    let reader = client.split_reader();
    let closer = client.split_reader();
    // Request spans are recorded by the reader, but the sender's child
    // spans need their ids first.
    let span_base = if trace {
        crate::trace::reserve_ids(plan.len() as u64)
    } else {
        0
    };
    let sending_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let read = scope.spawn(|| {
            read_replies(
                reader,
                plan,
                pool,
                &shared,
                &sending_done,
                swap,
                Tracer::new(epoch, trace),
                start,
                span_base,
            )
        });
        let mut tracer = Tracer::new(epoch, trace);
        let mut lags_ms = Vec::with_capacity(plan.len());
        let mut in_flight = Vec::with_capacity(IN_FLIGHT_SAMPLES + 1);
        let sample_every = (plan.len() / IN_FLIGHT_SAMPLES).max(1);
        let mut probe_count = 0u64;
        let stop_at = saturate.map(|d| start + d);
        let outstanding = || {
            shared
                .sent
                .load(Ordering::SeqCst)
                .saturating_sub(shared.received.load(Ordering::SeqCst))
        };
        let mut sent = 0usize;
        for (seq, p) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(p.due_s);
            // Wait for the due time, sending any probe that arrives first.
            // The last stretch is spun, not slept: waking a sleeping thread
            // on a virtual CPU can take milliseconds.
            loop {
                let now = Instant::now();
                if now + SPIN >= due {
                    break;
                }
                let nap = due - now - SPIN;
                match probes.as_ref().map(|rx| rx.recv_timeout(nap)) {
                    Some(Ok(probe)) => {
                        let id = PROBE_BIT | probe_count;
                        probe_count += 1;
                        lock(&shared.probes).insert(id, (Instant::now(), probe.row, probe.patient));
                        send(&mut client, pool, id, probe.row, probe.patient);
                        shared.sent.fetch_add(1, Ordering::SeqCst);
                    }
                    Some(Err(RecvTimeoutError::Timeout)) => {}
                    Some(Err(RecvTimeoutError::Disconnected)) => probes = None,
                    None => std::thread::sleep(nap),
                }
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            if stop_at.is_some_and(|t| Instant::now() >= t) {
                break;
            }
            if seq % sample_every == 0 {
                in_flight.push(outstanding());
            }
            if outstanding() >= cap {
                if saturate.is_none() {
                    break;
                }
                // Saturating: wait for a free slot, but not past the deadline
                // if the server stops answering.
                while outstanding() >= cap && stop_at.is_some_and(|t| Instant::now() < t) {
                    std::thread::sleep(Duration::from_micros(100));
                }
                if outstanding() >= cap {
                    break;
                }
            }
            let sent_at = Instant::now();
            let id = seq as u64;
            let parent = if trace { span_base + id } else { 0 };
            tracer.span("serve.wire.client_send", parent, id, || {
                send(&mut client, pool, id, p.row, p.patient)
            });
            lags_ms.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
            shared.sent.fetch_add(1, Ordering::SeqCst);
            sent += 1;
        }
        in_flight.push(outstanding());
        sending_done.store(true, Ordering::SeqCst);
        // Drain: wait for the outstanding replies, then close the socket so
        // the reader's blocking read returns.
        let drain_until = Instant::now() + DRAIN;
        while outstanding() > 0 && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_micros(200));
        }
        let _ = closer.get_ref().shutdown(Shutdown::Both);
        let mut result = read.join().expect("reply reader panicked");
        result.stage.planned = plan.len();
        result.stage.sent = sent;
        result.stage.lags_ms = lags_ms;
        result.stage.in_flight = in_flight;
        result.probes = probe_count as usize;
        result.timed_out =
            (sent + probe_count as usize).saturating_sub(shared.received.load(Ordering::SeqCst));
        result.stage.failed += result.timed_out;
        if result.timed_out > 0 {
            result
                .failure_notes
                .push(format!("{} requests got no reply", result.timed_out));
        }
        result.spans.extend(tracer.into_spans());
        result
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("generator mutex poisoned")
}

fn send(client: &mut Client, pool: &QueryPool, id: u64, row: u32, patient: u32) {
    let features = &pool.rows[row as usize];
    let sent = if patient == NO_PATIENT {
        client.send_predict(id, features)
    } else {
        client.send_predict_model(id, &pool.patients[patient as usize], features)
    };
    sent.expect("send a predict frame");
}

#[allow(clippy::too_many_arguments)] // one call site, the connection state unpacked
fn read_replies(
    mut reader: std::io::BufReader<std::net::TcpStream>,
    plan: &[Planned],
    pool: &QueryPool,
    shared: &Shared,
    sending_done: &AtomicBool,
    swap: Option<&SwapWatch>,
    mut tracer: Tracer,
    start: Instant,
    span_base: u64,
) -> PhaseResult {
    let mut r = PhaseResult {
        served_rows: vec![false; pool.rows.len()],
        ..PhaseResult::default()
    };
    let mut last_version: HashMap<u32, u64> = HashMap::new();
    let mut first_due: Option<Instant> = None;
    let mut last_reply = start;
    loop {
        if sending_done.load(Ordering::SeqCst)
            && shared.received.load(Ordering::SeqCst) >= shared.sent.load(Ordering::SeqCst)
        {
            break;
        }
        let read_started = Instant::now();
        let frame = match read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => break, // closed by the drain
        };
        let received = Instant::now();
        let parsed = Reply::parse(&frame);
        let parsed_at = Instant::now();
        let (id, reply_version, fleet_model, pred) = match parsed {
            Ok(Reply::Predict {
                id,
                class,
                confidence,
                margin,
                abstained,
                tier,
                model,
                version,
            }) => (
                id,
                version,
                model,
                Ok((class, confidence, margin, abstained, tier)),
            ),
            Ok(Reply::Error {
                id, code, message, ..
            }) => (
                id.unwrap_or(u64::MAX),
                None,
                None,
                Err(code.unwrap_or(message)),
            ),
            Ok(other) => (
                u64::MAX,
                None,
                None,
                Err(format!("unexpected reply {other:?}")),
            ),
            Err(e) => (u64::MAX, None, None, Err(format!("unparseable reply: {e}"))),
        };
        shared.received.fetch_add(1, Ordering::SeqCst);
        last_reply = received;
        let (due, row, patient, is_probe) = if id & PROBE_BIT != 0 && id != u64::MAX {
            match lock(&shared.probes).remove(&id) {
                Some((due, row, patient)) => (due, row, patient, true),
                None => {
                    r.unmatched += 1;
                    r.stage.failed += 1;
                    note(&mut r, format!("reply for unknown probe {id}"));
                    continue;
                }
            }
        } else if let Some(p) = plan.get(id as usize) {
            (
                start + Duration::from_secs_f64(p.due_s),
                p.row,
                p.patient,
                false,
            )
        } else {
            let msg = match pred {
                Err(e) => format!("error reply without a known id: {e}"),
                Ok(_) => format!("reply for unknown id {id}"),
            };
            r.unmatched += 1;
            r.stage.failed += 1;
            note(&mut r, msg);
            continue;
        };
        first_due = Some(first_due.map_or(due, |f: Instant| f.min(due)));
        let (class, confidence, margin, abstained, tier) = match pred {
            Ok(p) => p,
            Err(code) => {
                r.stage.failed += 1;
                note(&mut r, format!("request {id} failed: {code}"));
                continue;
            }
        };
        r.answered += 1;
        r.served_rows[row as usize] = true;
        if !is_probe {
            let latency = received.saturating_duration_since(due);
            r.stage.latencies_ms.push(latency.as_secs_f64() * 1e3);
            if tracer.enabled() {
                let request_span = span_base + id;
                tracer.record(
                    "serve.wire.client_read",
                    request_span,
                    id,
                    read_started,
                    received,
                );
                tracer.record(
                    "serve.wire.reply_parse",
                    request_span,
                    id,
                    received,
                    parsed_at,
                );
                tracer.record_with_id(request_span, "request", 0, id, due, parsed_at);
            }
        }
        if class == pool.labels[row as usize] {
            r.correct += 1;
        }
        // Fleet replies must name the patient, carry a published version
        // that never goes backwards on this connection, and equal the
        // in-process prediction of that version's model.
        let version = if patient == NO_PATIENT {
            if fleet_model.is_some() || reply_version.is_some() {
                mismatch(&mut r, id, "gateway reply names a fleet model");
                continue;
            }
            None
        } else {
            let name = &pool.patients[patient as usize];
            let Some(v) = reply_version else {
                mismatch(&mut r, id, "fleet reply without a version");
                continue;
            };
            if fleet_model.as_deref() != Some(name.as_str()) {
                mismatch(&mut r, id, "fleet reply names another model");
                continue;
            }
            let latest = match swap {
                Some(w) if w.patient == patient => w.latest.load(Ordering::SeqCst),
                _ => 1,
            };
            let last = last_version.entry(patient).or_insert(0);
            if v == 0 || v > latest || v < *last {
                mismatch(
                    &mut r,
                    id,
                    &format!("version {v} (last {last}, latest {latest})"),
                );
                continue;
            }
            *last = v;
            if let Some(w) = swap.filter(|w| w.patient == patient) {
                let awaited = w.awaited.load(Ordering::SeqCst);
                if awaited != 0 && v >= awaited {
                    lock(&w.seen).get_or_insert(received);
                }
            }
            Some(v)
        };
        match pool.expected(row as usize, version) {
            Some(e)
                if e.class == class
                    && e.confidence.to_bits() == confidence.to_bits()
                    && e.margin.to_bits() == margin.to_bits()
                    && e.abstained == abstained
                    && tier.as_deref() == Some("f32") => {}
            Some(e) => mismatch(
                &mut r,
                id,
                &format!(
                    "served ({class}, {confidence}, {margin}, {abstained}, {tier:?}) != in-process ({}, {}, {}, {}, \"f32\")",
                    e.class, e.confidence, e.margin, e.abstained
                ),
            ),
            None => mismatch(&mut r, id, "no in-process prediction for this row"),
        }
    }
    r.elapsed = first_due.map_or(Duration::ZERO, |f| last_reply.saturating_duration_since(f));
    r.spans = tracer.into_spans();
    r
}

fn note(r: &mut PhaseResult, msg: String) {
    if r.failure_notes.len() < 8 {
        r.failure_notes.push(msg);
    }
}

fn mismatch(r: &mut PhaseResult, id: u64, what: &str) {
    r.mismatches += 1;
    r.stage.failed += 1;
    note(r, format!("request {id}: {what}"));
}

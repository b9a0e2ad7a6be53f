//! Integration tests for the TCP serving front-end: protocol hardening,
//! pipelined connections, graceful drain, admission control, connection
//! reaping, and worker-pool panic isolation.
//!
//! Every test binds an ephemeral loopback port and talks the real
//! JSON-lines protocol through real sockets.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use boosthd::parallel::ExecBackend;
use boosthd::{ModelSpec, OnlineHdConfig, Pipeline};
use boosthd_serve::server::{Backpressure, Server, ServerConfig, ServerTuning};
use boosthd_serve::wire::{Client, Reply};
use boosthd_serve::EngineConfig;
use linalg::{Matrix, Rng64};

const FEATURES: usize = 6;

fn trained_pipeline() -> Arc<Pipeline> {
    let mut rng = Rng64::seed_from(9);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..60 {
        let class = i % 2;
        let c = if class == 0 { -1.5f32 } else { 1.5 };
        rows.push((0..FEATURES).map(|_| c + 0.4 * rng.normal()).collect());
        labels.push(class);
    }
    let x = Matrix::from_rows(&rows).unwrap();
    Arc::new(
        Pipeline::fit(
            &ModelSpec::OnlineHd(OnlineHdConfig {
                dim: 128,
                epochs: 3,
                ..Default::default()
            }),
            &x,
            &labels,
        )
        .unwrap(),
    )
}

fn start_server(config: ServerConfig) -> Server {
    Server::bind(trained_pipeline(), FEATURES, "127.0.0.1:0", config, None)
        .expect("bind ephemeral server")
}

fn default_server() -> Server {
    start_server(ServerConfig::default())
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string()).expect("connect to test server")
}

#[test]
fn predict_round_trip_answers_with_confidence() {
    let server = default_server();
    let mut client = connect(&server);
    let features = vec![1.5f32; FEATURES];
    match client.predict(7, &features).unwrap() {
        Reply::Predict {
            id,
            class,
            confidence,
            ..
        } => {
            assert_eq!(id, 7);
            assert!(class < 2);
            assert!((0.0..=1.0).contains(&confidence));
        }
        other => panic!("expected a prediction, got {other:?}"),
    }
    let stats = server.shutdown_and_join();
    assert_eq!(stats.answered, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn malformed_frame_gets_error_and_keeps_connection() {
    let server = default_server();
    let mut client = connect(&server);
    match client.send_raw("this is not json").and(client.recv()) {
        Ok(Some(Reply::Error { message, .. })) => {
            assert!(!message.is_empty(), "error must describe the failure");
        }
        other => panic!("expected a descriptive error, got {other:?}"),
    }
    // Deep nesting inside the frame cap is malformed too; it must not
    // overflow the handler's stack and abort the server.
    match client.send_raw(&"[".repeat(60_000)).and(client.recv()) {
        Ok(Some(Reply::Error { code, .. })) => assert_eq!(code.as_deref(), Some("bad_frame")),
        other => panic!("expected a bad_frame error, got {other:?}"),
    }
    // The connection survives: a well-formed request still answers.
    match client.predict(1, &[0.5; FEATURES]).unwrap() {
        Reply::Predict { id, .. } => assert_eq!(id, 1),
        other => panic!("connection should have survived, got {other:?}"),
    }
    assert_eq!(server.shutdown_and_join().protocol_errors, 2);
}

#[test]
fn wrong_feature_count_is_a_descriptive_error() {
    let server = default_server();
    let mut client = connect(&server);
    match client.predict(3, &[1.0, 2.0]).unwrap() {
        Reply::Error {
            id, message, code, ..
        } => {
            assert_eq!(id, Some(3));
            assert_eq!(code.as_deref(), Some("wrong_width"));
            assert!(
                message.contains("got 2") && message.contains(&FEATURES.to_string()),
                "error must name both counts: {message}"
            );
        }
        other => panic!("expected a feature-count error, got {other:?}"),
    }
    // Still serving afterwards.
    assert!(matches!(
        client.predict(4, &[0.0; FEATURES]).unwrap(),
        Reply::Predict { id: 4, .. }
    ));
    server.shutdown_and_join();
}

#[test]
fn oversized_payload_is_rejected_without_killing_the_server() {
    let server = start_server(ServerConfig {
        tuning: ServerTuning {
            max_frame_bytes: 256,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.local_addr().to_string();
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let huge = format!("{{\"id\":1,\"features\":[{}]}}", "0.125,".repeat(4000));
        stream.write_all(huge.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        // The server reports the cap, then closes this connection (framing
        // is unrecoverable once a frame overruns).
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("error") && response.contains("256"),
            "oversized frame must report the limit: {response}"
        );
    }
    // Other connections are unaffected.
    let mut client = connect(&server);
    assert!(matches!(
        client.predict(9, &[0.0; FEATURES]).unwrap(),
        Reply::Predict { id: 9, .. }
    ));
    assert_eq!(server.shutdown_and_join().protocol_errors, 1);
}

#[test]
fn mid_stream_disconnect_leaves_server_healthy() {
    let server = default_server();
    let addr = server.local_addr().to_string();
    {
        // Open a connection, send half a frame, and vanish.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"{\"id\":1,\"feat").unwrap();
    }
    {
        // Disconnect with a fully-sent request whose reply is never read.
        let mut client = Client::connect(&addr).unwrap();
        client.send_predict(5, &[0.5; FEATURES]).unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut client = connect(&server);
    assert!(matches!(
        client.predict(6, &[0.0; FEATURES]).unwrap(),
        Reply::Predict { id: 6, .. }
    ));
    server.shutdown_and_join();
}

#[test]
fn shed_backpressure_reports_overload_instead_of_queueing() {
    // queue_depth 1 with one-row flushes: concurrent requests that find
    // the queue full must shed.
    let server = start_server(ServerConfig {
        engine: EngineConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(200),
            threads: Some(1),
            exec: ExecBackend::Pooled,
        },
        tuning: ServerTuning {
            queue_depth: 1,
            backpressure: Backpressure::Shed,
            ..Default::default()
        },
    });
    let addr = server.local_addr().to_string();
    let outcomes: Vec<&'static str> = std::thread::scope(|scope| {
        (0..8)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    match client.predict(i, &[0.5; FEATURES]).unwrap() {
                        Reply::Predict { .. } => "answered",
                        Reply::Error {
                            code,
                            retry_after_ms,
                            ..
                        } if code.as_deref() == Some("shed") => {
                            assert!(
                                retry_after_ms.is_some(),
                                "sheds must carry a structured retry_after_ms"
                            );
                            "shed"
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let answered = outcomes.iter().filter(|o| **o == "answered").count();
    assert!(answered >= 1, "at least one request must get through");
    let stats = server.shutdown_and_join();
    assert_eq!(stats.answered as usize, answered);
    assert_eq!(stats.shed as usize, 8 - answered);
    assert_eq!(stats.protocol_errors, 0);
}

/// Polls the server's counters until `admitted` reaches `n`.
fn wait_admitted(server: &Server, n: u64) {
    let t0 = Instant::now();
    while server.stats().admitted < n {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "only {} of {n} requests admitted",
            server.stats().admitted
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn seeded_rows(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = Rng64::seed_from(seed);
    (0..n)
        .map(|_| (0..FEATURES).map(|_| 2.0 * rng.normal()).collect())
        .collect()
}

#[test]
fn graceful_drain_answers_every_inflight_request() {
    // The batcher is held until every request is queued: 24 one-request
    // connections plus one pipelined connection with 8 requests. One-row
    // flushes make the drain start with the queue still full, and it must
    // answer every queued request anyway.
    let server = start_server(ServerConfig {
        engine: EngineConfig {
            max_batch: 1,
            threads: Some(2),
            exec: ExecBackend::Pooled,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.local_addr().to_string();
    server.pause_batcher();
    let singles = 24u64;
    let pipelined = 8u64;
    let total = singles + pipelined;
    let mut batch_client = Client::connect(&addr).unwrap();
    for i in 0..pipelined {
        batch_client
            .send_predict(1_000 + i, &[0.25; FEATURES])
            .unwrap();
    }
    let answers: Vec<u64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..singles {
            let addr = addr.clone();
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                match client.predict(i, &[0.25; FEATURES]).unwrap() {
                    Reply::Predict { id, .. } => id,
                    other => panic!("in-flight request dropped: {other:?}"),
                }
            }));
        }
        wait_admitted(&server, total);
        server.resume_batcher();
        let stats = server.shutdown_and_join();
        assert_eq!(stats.answered, total, "drain must flush the whole queue");
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut ids = answers;
    ids.sort_unstable();
    assert_eq!(ids, (0..singles).collect::<Vec<_>>());
    // The pipelined connection gets every reply, then the close.
    let mut pipelined_ids: Vec<u64> = (0..pipelined)
        .map(|_| match batch_client.recv().unwrap() {
            Some(Reply::Predict { id, .. }) => id,
            other => panic!("pipelined request dropped: {other:?}"),
        })
        .collect();
    pipelined_ids.sort_unstable();
    assert_eq!(
        pipelined_ids,
        (1_000..1_000 + pipelined).collect::<Vec<_>>()
    );
    assert!(
        matches!(batch_client.recv(), Ok(None)),
        "drain closes the socket"
    );
}

#[test]
fn flushes_are_paced_past_the_burst_and_a_drain_is_not() {
    // Rows accrue at max_batch (2) per two max_wait (5 s) periods, up to
    // a burst of queue_depth (4) rows. Once the burst is spent the next
    // batch is seconds away, but a drain flushes what is left at once.
    let server = start_server(ServerConfig {
        engine: EngineConfig {
            max_batch: 2,
            max_wait: Duration::from_secs(5),
            ..Default::default()
        },
        tuning: ServerTuning {
            queue_depth: 4,
            backpressure: Backpressure::Block,
            ..Default::default()
        },
    });
    let mut client = connect(&server);
    let total = 6u64;
    for (id, row) in (0..total).zip(seeded_rows(41, total as usize)) {
        client.send_predict(id, &row).unwrap();
    }
    wait_admitted(&server, total);
    // The burst answers 3 or 4 rows (a one-row flush spends one row of the
    // budget); after it the budget holds at most one row, so the next
    // batch is at least 5 s away.
    let t0 = Instant::now();
    while server.stats().answered < 3 {
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "the burst never flushed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(100));
    let burst = server.stats().answered;
    assert!(burst <= 4, "{burst} rows answered past the 4-row budget");
    let started = Instant::now();
    let stats = server.shutdown_and_join();
    assert!(
        started.elapsed() < Duration::from_millis(2_500),
        "the drain waited {:?} for the pace",
        started.elapsed()
    );
    assert_eq!(stats.answered, total);
    let mut ids: Vec<u64> = (0..total)
        .map(|_| match client.recv().unwrap() {
            Some(Reply::Predict { id, .. }) => id,
            other => panic!("expected a prediction, got {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..total).collect::<Vec<_>>());
}

#[test]
fn pipelined_predicts_share_flushes_and_match_in_process_predictions() {
    // One connection sends 64 predicts before reading any reply. The held
    // batcher proves the reader admits all of them without waiting for a
    // reply; once released they flush together, and every reply is
    // bit-identical to the in-process prediction of its row.
    let pipeline = trained_pipeline();
    let server = Server::bind(
        Arc::clone(&pipeline),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig::default(),
        None,
    )
    .unwrap();
    server.pause_batcher();
    let rows = seeded_rows(23, 64);
    let mut client = connect(&server);
    for (i, row) in rows.iter().enumerate() {
        client.send_predict(i as u64, row).unwrap();
    }
    wait_admitted(&server, rows.len() as u64);
    server.resume_batcher();
    let mut seen = vec![false; rows.len()];
    for _ in 0..rows.len() {
        match client.recv().unwrap() {
            Some(Reply::Predict {
                id,
                class,
                confidence,
                margin,
                abstained,
                ..
            }) => {
                let i = id as usize;
                assert!(!seen[i], "id {id} answered twice");
                seen[i] = true;
                let want = pipeline.predict_with_confidence(&rows[i]);
                assert_eq!(class, want.class, "request {id} class");
                assert_eq!(confidence.to_bits(), want.confidence.to_bits());
                assert_eq!(margin.to_bits(), want.margin.to_bits());
                assert_eq!(abstained, want.abstained);
            }
            other => panic!("expected a prediction, got {other:?}"),
        }
    }
    let stats = server.shutdown_and_join();
    assert_eq!(stats.answered, 64);
    assert!(
        stats.batches < 64,
        "the connection's requests must share flushes ({} batches)",
        stats.batches
    );
}

#[test]
fn non_reading_client_is_held_back_instead_of_buffered() {
    // A client that sends without reading: once its unwritten replies
    // reach queue_depth, the server stops reading from it, so the sender
    // blocks in TCP backpressure. When the client reads, every id is
    // answered exactly once.
    let depth = 4u64;
    let server = start_server(ServerConfig {
        tuning: ServerTuning {
            queue_depth: depth as usize,
            backpressure: Backpressure::Block,
            ..Default::default()
        },
        ..Default::default()
    });
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut sender = stream.try_clone().unwrap();
    let mut client = Client::from_stream(stream);
    let stop = AtomicBool::new(false);
    let sent = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let sending = scope.spawn(|| {
            let features = ["0.5"; FEATURES].join(",");
            while !stop.load(Ordering::SeqCst) {
                let id = sent.load(Ordering::SeqCst);
                let frame = format!("{{\"id\":{id},\"features\":[{features}]}}\n");
                sender.write_all(frame.as_bytes()).unwrap();
                sent.store(id + 1, Ordering::SeqCst);
            }
        });
        // Wait until the server stops taking requests in.
        let t0 = Instant::now();
        let mut last = (server.stats().admitted, Instant::now());
        loop {
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "the server never stopped reading"
            );
            let admitted = server.stats().admitted;
            if admitted != last.0 {
                last = (admitted, Instant::now());
            } else if last.1.elapsed() >= Duration::from_millis(300) {
                break;
            }
        }
        let stats = server.stats();
        assert!(!sending.is_finished(), "the sender must be blocked");
        assert!(
            stats.admitted < sent.load(Ordering::SeqCst),
            "sent frames must wait unread in the socket"
        );
        assert!(
            stats.admitted - stats.answered <= depth,
            "{} admitted, {} answered: more than queue_depth replies unwritten",
            stats.admitted,
            stats.answered
        );
        // Read everything: the server resumes reading, the sender
        // finishes, and every id it sent is answered once.
        stop.store(true, Ordering::SeqCst);
        let mut answered: HashMap<u64, usize> = HashMap::new();
        while !sending.is_finished() || (answered.len() as u64) < sent.load(Ordering::SeqCst) {
            match client.recv().unwrap() {
                Some(Reply::Predict { id, .. }) => *answered.entry(id).or_default() += 1,
                other => panic!("expected a prediction, got {other:?}"),
            }
        }
        sending.join().unwrap();
        let sent = sent.load(Ordering::SeqCst);
        assert_eq!(answered.len() as u64, sent);
        assert!(answered.iter().all(|(id, n)| *id < sent && *n == 1));
    });
    server.shutdown_and_join();
}

#[test]
fn wire_shutdown_command_drains_and_stops() {
    let server = default_server();
    let mut client = connect(&server);
    assert!(matches!(
        client.predict(1, &[0.0; FEATURES]).unwrap(),
        Reply::Predict { .. }
    ));
    let mut admin = connect(&server);
    assert_eq!(
        admin.shutdown_server().unwrap(),
        Reply::Ok("shutdown".into())
    );
    let stats = server.wait(); // returns because the wire command fired
    assert_eq!(stats.answered, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn ping_and_stats_commands_answer() {
    let server = default_server();
    let mut client = connect(&server);
    assert_eq!(client.ping().unwrap(), Reply::Ok("pong".into()));
    client.predict(1, &[0.5; FEATURES]).unwrap();
    client.send_raw("{\"cmd\":\"stats\"}").unwrap();
    match client.recv().unwrap().unwrap() {
        Reply::Raw(v) => {
            assert_eq!(v.get("answered").and_then(|j| j.as_num()), Some(1.0));
            assert_eq!(v.get("protocol_errors").and_then(|j| j.as_num()), Some(0.0));
        }
        other => panic!("expected a raw stats object, got {other:?}"),
    }
    server.shutdown_and_join();
}

#[test]
fn stats_frame_carries_every_counter() {
    let server = default_server();
    let mut client = connect(&server);
    client.predict(1, &[0.5; FEATURES]).unwrap();
    // `health` scores the canary window, so the canary counters are live.
    assert!(matches!(client.health().unwrap(), Reply::Raw(_)));
    client.send_raw("{\"cmd\":\"stats\"}").unwrap();
    let frame = match client.recv().unwrap().unwrap() {
        Reply::Raw(v) => v,
        other => panic!("expected a raw stats object, got {other:?}"),
    };
    let counters = server.stats().counters();
    assert_eq!(counters.len(), 20);
    for (name, value) in counters {
        assert_eq!(
            frame.get(name).and_then(|j| j.as_num()),
            Some(value as f64),
            "stats frame counter `{name}`"
        );
    }
    assert!(server.stats().canary_checks > 0);
    server.shutdown_and_join();
}

#[test]
fn max_wait_counts_from_the_oldest_admission() {
    // A request that queued while the batcher was held has already spent
    // its max_wait: once the batcher resumes it must flush at once, not
    // wait a fresh max_wait measured from the resume.
    let server = start_server(ServerConfig {
        engine: EngineConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(300),
            ..Default::default()
        },
        ..Default::default()
    });
    server.pause_batcher();
    let mut client = connect(&server);
    client.send_predict(7, &[0.5; FEATURES]).unwrap();
    let t0 = Instant::now();
    while server.stats().admitted < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "request never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(400));
    let resumed = Instant::now();
    server.resume_batcher();
    match client.recv().unwrap() {
        Some(Reply::Predict { id, .. }) => assert_eq!(id, 7),
        other => panic!("expected a prediction, got {other:?}"),
    }
    let waited = resumed.elapsed();
    assert!(
        waited < Duration::from_millis(150),
        "reply took {waited:?} after the resume"
    );
    server.shutdown_and_join();
}

#[test]
fn slow_loris_mid_frame_stall_is_disconnected() {
    // A client that sends half a frame and then stalls must be cut off by
    // the read timeout — while a fully idle client (no frame in flight)
    // stays connected past the same timeout.
    let server = start_server(ServerConfig {
        tuning: ServerTuning {
            read_timeout_ms: 120,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.local_addr().to_string();

    // Idle connection: open, wait well past the timeout, then predict.
    let mut idle = Client::connect(&addr).unwrap();
    // Slow-loris connection: half a frame, then silence.
    let mut loris = TcpStream::connect(&addr).unwrap();
    loris.write_all(b"{\"id\":1,\"feat").unwrap();
    std::thread::sleep(Duration::from_millis(400));

    let mut response = String::new();
    loris.read_to_string(&mut response).unwrap();
    assert!(
        response.contains("bad_frame") && response.contains("stalled"),
        "slow-loris must be answered with a coded stall error: {response}"
    );

    assert!(
        matches!(
            idle.predict(2, &[0.5; FEATURES]).unwrap(),
            Reply::Predict { id: 2, .. }
        ),
        "an idle connection must survive the read timeout"
    );
    let stats = server.shutdown_and_join();
    assert_eq!(stats.bad_frame, 1);
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn deadline_expired_request_is_answered_without_scoring() {
    // Pause the batcher, admit a request with a short deadline, hold past
    // it, resume: the reply must be deadline_exceeded and no batch may
    // have been flushed for it.
    let server = default_server();
    let addr = server.local_addr().to_string();
    server.pause_batcher();

    let mut client = Client::connect(&addr).unwrap();
    let handle = std::thread::spawn(move || {
        client
            .predict_with_deadline(11, &[0.5; FEATURES], 50)
            .unwrap()
    });
    // Wait for admission, then hold well past the 50ms deadline.
    let t0 = std::time::Instant::now();
    while server.stats().admitted < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "request never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200));
    server.resume_batcher();

    match handle.join().unwrap() {
        Reply::Error {
            id, code, message, ..
        } => {
            assert_eq!(id, Some(11));
            assert_eq!(code.as_deref(), Some("deadline_exceeded"));
            assert!(
                message.contains("not scored"),
                "deadline reply must say it skipped scoring: {message}"
            );
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    let stats = server.shutdown_and_join();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.batches, 0, "an expired request must not cost a flush");
    assert_eq!(stats.answered, 0);
}

#[test]
fn degrade_ladder_steps_down_and_recovers_without_flapping() {
    // Deterministic overload: pause the batcher, fill the queue to 16
    // sequentially, resume. With max_batch=4 the flush depths are
    // 16,12,8,4 — two consecutive >=8 flushes step f32 -> int8, and the
    // recovery probes afterwards (depth 1 <= 2) step back up after two
    // calm flushes. Exactly one step each way: no flapping.
    let server = start_server(ServerConfig {
        engine: EngineConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(10),
            threads: Some(2),
            exec: ExecBackend::Pooled,
        },
        tuning: ServerTuning {
            queue_depth: 16,
            backpressure: Backpressure::Shed,
            degrade: boosthd_serve::server::DegradeConfig {
                enabled: true,
                high_depth: 8,
                low_depth: 2,
                degrade_after: 2,
                recover_after: 2,
            },
            ..Default::default()
        },
    });
    let addr = server.local_addr().to_string();
    assert_eq!(server.current_tier(), "f32");
    server.pause_batcher();

    // One connection per request: each handler blocks on its own reply.
    let mut senders = Vec::new();
    for i in 0..16u64 {
        let mut c = Client::connect(&addr).unwrap();
        c.send_predict(i, &[0.5; FEATURES]).unwrap();
        let t0 = std::time::Instant::now();
        while server.stats().admitted < i + 1 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "request {i} not admitted"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        senders.push(c);
    }
    server.resume_batcher();

    // Collect all 16 replies; tiers must be f32 for the first flush (depth
    // 16 is only the FIRST hot flush) and int8 from the second flush on.
    let mut tiers = Vec::new();
    for (i, c) in senders.iter_mut().enumerate() {
        match c.recv().unwrap().unwrap() {
            Reply::Predict { id, tier, .. } => {
                assert_eq!(id, i as u64);
                tiers.push(tier.expect("tier annotation"));
            }
            other => panic!("request {i} failed: {other:?}"),
        }
    }
    assert_eq!(
        tiers[..4],
        vec!["f32"; 4][..],
        "first flush at full fidelity"
    );
    assert_eq!(
        tiers[4..],
        vec!["int8"; 12][..],
        "remaining flushes degraded"
    );
    assert_eq!(server.current_tier(), "int8");

    // Recovery: single probes flush at depth 1 (calm). The step-up lands
    // before its triggering flush (symmetric with step-down), so the
    // second calm flush already serves at full fidelity.
    let mut probe = Client::connect(&addr).unwrap();
    let mut probe_tiers = Vec::new();
    for i in 0..3u64 {
        match probe.predict(100 + i, &[0.5; FEATURES]).unwrap() {
            Reply::Predict { tier, .. } => probe_tiers.push(tier.unwrap()),
            other => panic!("probe failed: {other:?}"),
        }
    }
    assert_eq!(
        probe_tiers,
        vec!["int8", "f32", "f32"],
        "one calm flush on the degraded tier, then recovery"
    );
    assert_eq!(server.current_tier(), "f32");

    let stats = server.shutdown_and_join();
    assert_eq!(
        stats.degrade_steps, 1,
        "exactly one step down — no flapping"
    );
    assert_eq!(stats.recover_steps, 1, "exactly one step up — no flapping");
    assert_eq!(stats.answered, 19);
}

#[test]
fn degraded_tier_predictions_match_standalone_quantized_pipeline() {
    // The ladder's quantized tiers must be bit-identical to quantizing the
    // same fitted pipeline by hand.
    let pipeline = trained_pipeline();
    let online = pipeline.downcast_ref::<boosthd::OnlineHd>().unwrap();
    let standalone_i8 = online.quantize_i8();
    let standalone_bin = online.quantize();

    let server = Server::bind(
        Arc::clone(&pipeline),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(10),
                threads: Some(2),
                exec: ExecBackend::Pooled,
            },
            tuning: ServerTuning {
                queue_depth: 16,
                degrade: boosthd_serve::server::DegradeConfig {
                    enabled: true,
                    high_depth: 1, // every flush is hot: degrade immediately
                    low_depth: 0,
                    degrade_after: 1,
                    recover_after: 1000,
                },
                ..Default::default()
            },
        },
        None,
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // With degrade_after=1 and every flush hot, the ladder walks one rung
    // per flush: request 0 serves on int8, everything after on the bottom
    // binary rung. Each reply must match the matching standalone model.
    let mut rng = Rng64::seed_from(41);
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..=12u64 {
        let row: Vec<f32> = (0..FEATURES).map(|_| 3.0 * rng.normal()).collect();
        match client.predict(i, &row).unwrap() {
            Reply::Predict { class, tier, .. } => {
                let expected_tier = if i == 0 { "int8" } else { "binary" };
                assert_eq!(tier.as_deref(), Some(expected_tier), "request {i} tier");
                let x = Matrix::from_rows(&[row]).unwrap();
                let expected = if i == 0 {
                    boosthd::Classifier::predict_batch(&standalone_i8, &x)[0]
                } else {
                    boosthd::Classifier::predict_batch(&standalone_bin, &x)[0]
                };
                assert_eq!(
                    class, expected,
                    "request {i}: tier reply must match standalone {expected_tier}"
                );
            }
            other => panic!("request {i} failed: {other:?}"),
        }
    }
    server.shutdown_and_join();
}

/// Classes of a fixed, seeded probe set: the fingerprint the SEU tests
/// compare before corruption and after repair.
fn classify_probes(client: &mut Client) -> Vec<usize> {
    let mut rng = Rng64::seed_from(7);
    (0..8u64)
        .map(|i| {
            let row: Vec<f32> = (0..FEATURES).map(|_| 2.0 * rng.normal()).collect();
            match client.predict(i, &row).unwrap() {
                Reply::Predict { class, .. } => class,
                other => panic!("probe failed: {other:?}"),
            }
        })
        .collect()
}

#[test]
fn seu_corruption_is_detected_and_reload_restores_identical_predictions() {
    let server = default_server();
    let mut client = connect(&server);

    // Pin the healthy behavior on a fixed probe set.
    let healthy = classify_probes(&mut client);
    match client.health().unwrap() {
        Reply::Raw(v) => {
            assert_eq!(v.get("status").and_then(|j| j.as_str()), Some("ok"));
            assert_eq!(v.get("checksum_ok").and_then(|j| j.as_bool()), Some(true));
        }
        other => panic!("expected health report, got {other:?}"),
    }

    // SEU: flip bits in the live model. The server keeps answering (HDC
    // degrades, the serving layer must not crash)...
    let flipped = server.corrupt_live_model(0.01, 99);
    assert!(flipped > 0, "chaos hook must actually flip bits");
    let _ = classify_probes(&mut client);

    // ...and the next health check detects the checksum mismatch and
    // atomically reloads from the pinned envelope.
    match client.health().unwrap() {
        Reply::Raw(v) => {
            assert_eq!(
                v.get("status").and_then(|j| j.as_str()),
                Some("recovered"),
                "corruption must be detected and repaired"
            );
            assert_eq!(v.get("checksum_ok").and_then(|j| j.as_bool()), Some(false));
            assert_eq!(v.get("canary_ok").and_then(|j| j.as_bool()), Some(true));
        }
        other => panic!("expected health report, got {other:?}"),
    }
    assert_eq!(
        classify_probes(&mut client),
        healthy,
        "reload must restore bit-identical predictions"
    );
    let stats = server.shutdown_and_join();
    assert_eq!(stats.model_reloads, 1);
}

#[test]
fn periodic_model_check_repairs_corruption_without_a_health_frame() {
    // With `model_check_interval_ms > 0` the watchdog verifies the live
    // model's checksums on its own: an SEU is repaired with no `health`
    // request from any client.
    let server = start_server(ServerConfig {
        tuning: ServerTuning {
            model_check_interval_ms: 50,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut client = connect(&server);
    let healthy = classify_probes(&mut client);

    assert!(server.corrupt_live_model(0.01, 99) > 0);
    let t0 = Instant::now();
    while server.stats().model_reloads < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "periodic check never repaired the corrupted model"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        classify_probes(&mut client),
        healthy,
        "reload must restore bit-identical predictions"
    );
    let stats = server.shutdown_and_join();
    assert_eq!(stats.model_reloads, 1);
}

#[test]
fn block_backpressure_holds_requests_until_the_queue_has_room() {
    // queue_depth 1 with a paused batcher: A fills the queue, B waits in
    // its handler (neither admitted nor shed) until the batcher drains A.
    let server = start_server(ServerConfig {
        tuning: ServerTuning {
            queue_depth: 1,
            backpressure: Backpressure::Block,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.local_addr().to_string();
    server.pause_batcher();
    let mut a = Client::connect(&addr).unwrap();
    a.send_predict(1, &[0.5; FEATURES]).unwrap();
    let t0 = Instant::now();
    while server.stats().admitted < 1 {
        assert!(t0.elapsed() < Duration::from_secs(10), "A never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut b = Client::connect(&addr).unwrap();
    b.send_predict(2, &[-0.5; FEATURES]).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let stats = server.stats();
    assert_eq!(stats.admitted, 1, "B must wait for room, not be admitted");
    assert_eq!(stats.shed, 0, "Block mode never sheds");
    assert_eq!(stats.answered, 0);

    server.resume_batcher();
    for (client, want) in [(&mut a, 1), (&mut b, 2)] {
        match client.recv().unwrap().unwrap() {
            Reply::Predict { id, .. } => assert_eq!(id, want),
            other => panic!("request {want} failed: {other:?}"),
        }
    }
    let stats = server.shutdown_and_join();
    assert_eq!(
        (stats.admitted, stats.shed, stats.answered),
        (2, 0, 2),
        "both requests admitted and answered, none shed"
    );
}

#[test]
fn wedged_drain_is_bounded_by_drain_deadline() {
    // Pause the batcher (never resumed: a wedged server) with a request in
    // the queue, then shut down: the drain must return within the
    // configured bound instead of hanging, and count the abort.
    let server = start_server(ServerConfig {
        tuning: ServerTuning {
            drain_deadline_ms: 300,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.local_addr().to_string();
    server.pause_batcher();
    let mut client = Client::connect(&addr).unwrap();
    client.send_predict(1, &[0.5; FEATURES]).unwrap();
    let t0 = std::time::Instant::now();
    while server.stats().admitted < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "request never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let t0 = std::time::Instant::now();
    let stats = server.shutdown_and_join();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "drain must be bounded (took {elapsed:?})"
    );
    assert_eq!(stats.aborted_drains, 1, "the forced abort is observable");
    // The wedged request was answered with an internal error, not dropped
    // silently.
    match client.recv().unwrap() {
        Some(Reply::Error { code, .. }) => assert_eq!(code.as_deref(), Some("internal")),
        other => panic!("expected a coded internal error, got {other:?}"),
    }
}

#[test]
fn worker_panic_is_isolated_and_worker_replaced() {
    // Chaos-kill a global-pool worker, then serve traffic through the
    // pooled backend: requests must keep succeeding and the pool must
    // report the replacement.
    let pool = boosthd_serve::pool::global();
    // Concurrent bursts of four, so requests that arrive during a flush
    // coalesce into a multi-row batch, which is what fans out over the
    // pool (a single-row batch short-circuits to the serial path and
    // never touches it).
    let server = start_server(ServerConfig {
        engine: EngineConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
            threads: Some(2),
            exec: ExecBackend::Pooled,
        },
        ..Default::default()
    });
    let addr = server.local_addr().to_string();
    let burst = |base: u64| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let mut client = Client::connect(&addr).unwrap();
                        matches!(
                            client.predict(base + i, &[0.5; FEATURES]).unwrap(),
                            Reply::Predict { .. }
                        )
                    })
                })
                .collect();
            handles.into_iter().all(|h| h.join().unwrap())
        })
    };
    assert!(burst(0), "baseline burst before the chaos hook");

    let replaced_before = pool.workers_replaced();
    pool.inject_worker_panic();
    // Every burst after the kill must still answer fully, and the pool
    // must detect and replace the corpse within a few fan-outs.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut round = 0u64;
    loop {
        round += 1;
        assert!(burst(round * 100), "burst {round} after worker kill");
        if pool.workers_replaced() > replaced_before {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "killed worker was never replaced"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(pool.live_workers(), pool.size(), "pool healed to full size");
    let stats = server.shutdown_and_join();
    assert_eq!(stats.protocol_errors, 0);
}

/// Descriptors this test process holds open (Linux only).
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_sockets() {
    // 200 closed connections must not keep 200 server-side descriptors.
    // Other tests in this binary open sockets concurrently, so the count
    // is polled against a margin well below the 200 a leak would add.
    let server = default_server();
    let addr = server.local_addr();
    let baseline = open_fds();
    for _ in 0..200 {
        let mut client = connect(&server);
        assert_eq!(client.ping().unwrap(), Reply::Ok("pong".into()));
    }
    let t0 = Instant::now();
    while open_fds() > baseline + 40 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{} descriptors open after 200 closed connections, {baseline} before",
            open_fds()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // A client that half-closes after a ping reads its pong, then EOF.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("EOF within 1 s of the half-close");
    assert_eq!(response, "{\"ok\":\"pong\"}\n");
    server.shutdown_and_join();
}

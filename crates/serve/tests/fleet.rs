//! Integration tests for fleet serving: model-routed predictions over
//! real sockets, atomic hot-swap under live concurrent and pipelined
//! load, and LRU eviction racing live predicts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use boosthd::fleet::{Fleet, FleetConfig, ModelStore};
use boosthd::{ModelSpec, OnlineHdConfig, Pipeline};
use boosthd_serve::server::{Server, ServerConfig};
use boosthd_serve::wire::{Client, Reply};
use linalg::{Matrix, Rng64};

const FEATURES: usize = 6;

fn training_data(seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..60 {
        let class = i % 2;
        let c = if class == 0 { -1.5f32 } else { 1.5 };
        rows.push((0..FEATURES).map(|_| c + 0.4 * rng.normal()).collect());
        labels.push(class);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

fn fit(seed: u64, dim: usize) -> Pipeline {
    let (x, y) = training_data(seed);
    Pipeline::fit(
        &ModelSpec::OnlineHd(OnlineHdConfig {
            dim,
            epochs: 3,
            ..Default::default()
        }),
        &x,
        &y,
    )
    .unwrap()
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boosthd-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("models.bhfs")
}

fn bind_fleet(fleet: Arc<Fleet>) -> Server {
    Server::bind_with_fleet(
        Arc::new(fit(9, 128)),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig::default(),
        None,
        Some(fleet),
    )
    .expect("bind ephemeral fleet server")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string()).expect("connect to test server")
}

#[test]
fn model_routed_predictions_echo_model_and_version() {
    let path = temp_store("route");
    let store = ModelStore::create(&path).unwrap();
    store.append("hr", 1, &[&fit(11, 96)]).unwrap();
    let fleet = Arc::new(Fleet::new(store, FleetConfig::default()));
    let server = bind_fleet(Arc::clone(&fleet));
    let mut client = connect(&server);

    match client.predict_model(1, "hr", &[0.5; FEATURES]).unwrap() {
        Reply::Predict {
            id, model, version, ..
        } => {
            assert_eq!(id, 1);
            assert_eq!(model.as_deref(), Some("hr"));
            assert_eq!(version, Some(1));
        }
        other => panic!("expected prediction, got {other:?}"),
    }
    // Requests without a model keep serving the default pipeline and
    // carry no fleet fields.
    match client.predict(2, &[0.5; FEATURES]).unwrap() {
        Reply::Predict { model, version, .. } => {
            assert_eq!(model, None);
            assert_eq!(version, None);
        }
        other => panic!("expected prediction, got {other:?}"),
    }
    drop(client);
    server.shutdown_and_join();
}

#[test]
fn unknown_model_answers_the_unknown_model_code() {
    let path = temp_store("unknown");
    let store = ModelStore::create(&path).unwrap();
    store.append("hr", 1, &[&fit(11, 96)]).unwrap();
    let fleet = Arc::new(Fleet::new(store, FleetConfig::default()));
    let server = bind_fleet(fleet);
    let mut client = connect(&server);
    match client.predict_model(5, "ghost", &[0.5; FEATURES]).unwrap() {
        Reply::Error { id, code, .. } => {
            assert_eq!(id, Some(5));
            assert_eq!(code.as_deref(), Some("unknown_model"));
        }
        other => panic!("expected unknown_model error, got {other:?}"),
    }
    // The connection survives: the next request still answers.
    assert!(matches!(
        client.predict_model(6, "hr", &[0.5; FEATURES]).unwrap(),
        Reply::Predict { .. }
    ));
    drop(client);
    let stats = server.shutdown_and_join();
    assert_eq!(stats.unknown_model, 1);
}

/// The tentpole guarantee: a hot-swap under live concurrent traffic
/// fails zero requests, never mixes versions within a reply stream
/// non-monotonically, and ends with every client on the new version.
#[test]
fn hot_swap_under_live_load_fails_nothing_and_is_monotonic() {
    let path = temp_store("hotswap");
    let store = ModelStore::create(&path).unwrap();
    store.append("hr", 1, &[&fit(11, 96)]).unwrap();
    let fleet = Arc::new(Fleet::new(store, FleetConfig::default()));
    let server = bind_fleet(Arc::clone(&fleet));
    let addr = server.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let swapped = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for worker in 0..4u64 {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let swapped = Arc::clone(&swapped);
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect load worker");
            let mut last_version = 0u64;
            let mut sent = 0u64;
            let mut after_swap_new_version = false;
            let mut id = worker * 1_000_000;
            while !stop.load(Ordering::SeqCst) || !after_swap_new_version {
                id += 1;
                sent += 1;
                match client.predict_model(id, "hr", &[0.5; FEATURES]) {
                    Ok(Reply::Predict { version, .. }) => {
                        let v = version.expect("fleet replies carry a version");
                        assert!(
                            v >= last_version,
                            "version went backwards: {last_version} -> {v}"
                        );
                        last_version = v;
                        if swapped.load(Ordering::SeqCst) && v == 2 {
                            after_swap_new_version = true;
                        }
                    }
                    Ok(other) => panic!("request {id} failed during hot-swap: {other:?}"),
                    Err(e) => panic!("request {id} errored during hot-swap: {e}"),
                }
                if sent > 5_000 {
                    panic!("swap never became visible to worker {worker}");
                }
            }
            (sent, last_version)
        }));
    }

    // Let traffic flow, then publish v2 and swap it in atomically.
    std::thread::sleep(Duration::from_millis(100));
    fleet.store().append("hr", 2, &[&fit(29, 96)]).unwrap();
    let refreshed = fleet.refresh("hr").unwrap();
    assert_eq!(refreshed.version(), 2);
    swapped.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);

    let mut total = 0;
    for w in workers {
        let (sent, last_version) = w.join().expect("load worker panicked");
        total += sent;
        assert_eq!(last_version, 2, "worker did not end on the new version");
    }
    assert!(total > 0);
    let stats = server.shutdown_and_join();
    assert_eq!(stats.answered, total, "every request must be answered");
    assert_eq!(stats.unknown_model, 0);
    assert_eq!(stats.internal, 0);
    // The swapped-out v1 drains once its in-flight snapshots drop.
    assert_eq!(fleet.draining_count(), 0);
}

/// LRU eviction racing live predicts: with room for only one resident
/// model, alternating traffic to two models constantly evicts and
/// re-admits — every request must still answer with a prediction.
#[test]
fn lru_eviction_racing_predicts_readmits_instead_of_erroring() {
    let path = temp_store("lru-race");
    let store = ModelStore::create(&path).unwrap();
    store.append("a", 1, &[&fit(11, 96)]).unwrap();
    store.append("b", 1, &[&fit(23, 96)]).unwrap();
    let fleet = Arc::new(Fleet::new(store, FleetConfig { max_resident: 1 }));
    let server = bind_fleet(Arc::clone(&fleet));
    let addr = server.local_addr().to_string();

    let mut workers = Vec::new();
    for (worker, model) in ["a", "b", "a", "b"].into_iter().enumerate() {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect eviction worker");
            for i in 0..50u64 {
                let id = worker as u64 * 1_000 + i;
                match client.predict_model(id, model, &[0.5; FEATURES]) {
                    Ok(Reply::Predict { model: m, .. }) => {
                        assert_eq!(m.as_deref(), Some(model));
                    }
                    Ok(other) => panic!("eviction race broke request {id}: {other:?}"),
                    Err(e) => panic!("eviction race errored request {id}: {e}"),
                }
            }
        }));
    }
    for w in workers {
        w.join().expect("eviction worker panicked");
    }
    // The cap held: at most one model resident once traffic stops.
    assert!(fleet.resident_count() <= 1);
    let stats = server.shutdown_and_join();
    assert_eq!(stats.answered, 200);
    assert_eq!(stats.unknown_model, 0);
}

/// A pipelined connection across a hot-swap: the batcher resolves each
/// flush's snapshot, so replies may move from v1 to v2 mid-stream but
/// never back. An unknown model in the same stream is answered from the
/// batcher with its id, and the stream keeps serving.
#[test]
fn pipelined_replies_never_go_back_a_version_across_a_refresh() {
    let path = temp_store("pipelined-swap");
    let store = ModelStore::create(&path).unwrap();
    store.append("hr", 1, &[&fit(11, 96)]).unwrap();
    let fleet = Arc::new(Fleet::new(store, FleetConfig::default()));
    let server = bind_fleet(Arc::clone(&fleet));
    let mut client = connect(&server);
    let ghost = 10_000u64;

    server.pause_batcher();
    for id in 0..100u64 {
        client
            .send_predict_model(id, "hr", &[0.5; FEATURES])
            .unwrap();
        if id == 50 {
            client
                .send_predict_model(ghost, "ghost", &[0.5; FEATURES])
                .unwrap();
        }
    }
    let t0 = Instant::now();
    while server.stats().admitted < 101 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "requests not admitted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    server.resume_batcher();
    let mut replies = vec![client.recv().unwrap().expect("first reply")];
    fleet.store().append("hr", 2, &[&fit(29, 96)]).unwrap();
    assert_eq!(fleet.refresh("hr").unwrap().version(), 2);
    for id in 100..200u64 {
        client
            .send_predict_model(id, "hr", &[0.5; FEATURES])
            .unwrap();
    }
    while replies.len() < 201 {
        replies.push(client.recv().unwrap().expect("pipelined reply"));
    }

    let mut last_version = 0;
    let mut ids = Vec::new();
    let mut ghost_answered = false;
    for reply in replies {
        match reply {
            Reply::Predict {
                id, model, version, ..
            } => {
                assert_eq!(model.as_deref(), Some("hr"));
                let v = version.expect("fleet replies carry a version");
                assert!(
                    v >= last_version,
                    "version went back: {last_version} -> {v}"
                );
                last_version = v;
                ids.push(id);
            }
            Reply::Error { id, code, .. } => {
                assert_eq!(id, Some(ghost));
                assert_eq!(code.as_deref(), Some("unknown_model"));
                ghost_answered = true;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(ghost_answered, "the unknown model must be answered");
    assert_eq!(last_version, 2, "requests sent after the refresh serve v2");
    ids.sort_unstable();
    assert_eq!(ids, (0..200).collect::<Vec<_>>());
    drop(client);
    let stats = server.shutdown_and_join();
    assert_eq!(stats.answered, 200);
    assert_eq!(stats.unknown_model, 1);
}

//! End-to-end server tests: protocol handshake, single-flight and
//! pipelined prediction, multi-client concurrency, multi-model routing,
//! live engine hot-swap, typed rejection of malformed requests and the
//! persist → engine loading path.

mod common;

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::{class_of, offline, start_test_server, test_classifier, test_engine, test_row};
use poetbin_bits::BitVec;
use poetbin_core::persist::{save_classifier_to, ModelFormat};
use poetbin_serve::{load_engine, Client, LoadError, ModelRegistry, Response, ServeConfig, Server};

#[test]
fn hello_reports_model_table_and_predictions_match_offline_path() {
    let f = 24;
    let (server, engine) = start_test_server(11, f, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.num_features(), f);
    assert_eq!(client.classes(), 4);
    assert_eq!(client.models().len(), 1);
    let info = client.model("m0").expect("advertised");
    assert_eq!((info.id, info.num_features, info.classes), (0, f, 4));

    let rows: Vec<BitVec> = (0..100).map(|i| test_row(f, 0, i)).collect();
    let expected = offline(&engine, &rows);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            client.predict(row).expect("predict"),
            expected[i],
            "row {i} disagrees with the offline batch path"
        );
    }
    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_requests_come_back_complete_and_correctly_tagged() {
    let f = 20;
    let (server, engine) = start_test_server(12, f, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let rows: Vec<BitVec> = (0..300).map(|i| test_row(f, 7, i)).collect();
    let expected = offline(&engine, &rows);
    let mut want: HashMap<u64, usize> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        let id = client.send(row).expect("send");
        want.insert(id, expected[i]);
    }
    for _ in 0..rows.len() {
        let (id, response) = client.recv().expect("recv");
        let expect = want.remove(&id).expect("unknown or duplicate response id");
        assert_eq!(class_of(response), expect, "request {id} cross-wired");
    }
    assert!(want.is_empty(), "{} responses dropped", want.len());
    // Pipelined single-connection traffic must have been coalesced into
    // multi-lane words, not served one lane at a time.
    assert_eq!(server.stats().served(), 300);
    assert!(
        server.stats().mean_batch() > 1.5,
        "mean batch {:.2} — micro-batching never engaged",
        server.stats().mean_batch()
    );
    server.shutdown();
}

/// Every request drained from a shard records its queue wait before its
/// answer is sent, so once a client holds all its answers the counters
/// reconcile: lone requests first, then a pipelined burst, all under the
/// default (work-conserving) batching policy.
#[test]
fn queue_wait_counters_cover_every_drained_request() {
    let f = 20;
    let (server, engine) = start_test_server(19, f, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let lone: Vec<BitVec> = (0..40).map(|i| test_row(f, 2, i)).collect();
    let expected = offline(&engine, &lone);
    for (i, row) in lone.iter().enumerate() {
        assert_eq!(
            client.predict(row).expect("predict"),
            expected[i],
            "row {i}"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.served(), 40);
    assert_eq!(stats.queue_wait_count(), 40);
    assert_eq!(
        stats.batches(),
        40,
        "a lone request in flight is served alone"
    );

    let burst: Vec<BitVec> = (0..300).map(|i| test_row(f, 5, i)).collect();
    let expected = offline(&engine, &burst);
    let mut want: HashMap<u64, usize> = HashMap::new();
    for (i, row) in burst.iter().enumerate() {
        want.insert(client.send(row).expect("send"), expected[i]);
    }
    for _ in 0..burst.len() {
        let (id, response) = client.recv().expect("recv");
        let expect = want.remove(&id).expect("unknown or duplicate response id");
        assert_eq!(class_of(response), expect, "request {id} cross-wired");
    }

    let (count, sum, max) = (
        stats.queue_wait_count(),
        stats.queue_wait_us_sum(),
        stats.queue_wait_us_max(),
    );
    assert_eq!(stats.served(), 340);
    assert_eq!(count, stats.served() + stats.deadline_expired());
    assert!(
        sum <= count * (max + 1),
        "mean queue wait above the max: sum {sum} us over {count}, max {max} us"
    );
    server.shutdown();
}

/// The headline concurrency property: N client threads hammer the server
/// with interleaved pipelined requests; every response must match the
/// offline batch-path prediction for its request id, with nothing dropped
/// and nothing cross-wired between connections.
#[test]
fn concurrent_clients_never_drop_or_cross_wire() {
    let f = 32;
    let threads = 8;
    let per_thread = 400;
    let (server, engine) = start_test_server(13, f, ServeConfig::default());
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let engine = Arc::clone(&engine);
            joins.push(scope.spawn(move || {
                let rows: Vec<BitVec> = (0..per_thread).map(|i| test_row(f, t, i)).collect();
                let expected = offline(&engine, &rows);
                let mut client = Client::connect(addr).expect("connect");
                // Interleave: bursts of pipelined sends, then collect.
                let mut want: HashMap<u64, usize> = HashMap::new();
                for (chunk_start, chunk) in rows.chunks(23).enumerate() {
                    for (k, row) in chunk.iter().enumerate() {
                        let id = client.send(row).expect("send");
                        want.insert(id, expected[chunk_start * 23 + k]);
                    }
                    for _ in 0..chunk.len() {
                        let (id, response) = client.recv().expect("recv");
                        let expect = want
                            .remove(&id)
                            .expect("response id never requested on this connection");
                        assert_eq!(
                            class_of(response),
                            expect,
                            "thread {t}: request {id} wrong class"
                        );
                    }
                }
                assert!(want.is_empty(), "thread {t}: {} dropped", want.len());
            }));
        }
        for j in joins {
            j.join().expect("client thread panicked");
        }
    });

    let stats = server.stats();
    assert_eq!(stats.served(), (threads * per_thread) as u64);
    assert_eq!(stats.received(), stats.served());
    assert_eq!(stats.protocol_errors(), 0);
    assert_eq!(stats.rejected(), 0);
    assert_eq!(stats.connections(), threads as u64);
    server.shutdown();
}

#[test]
fn zero_linger_and_batch_of_one_still_serve_correctly() {
    let f = 16;
    let config = ServeConfig {
        workers: 1,
        linger: Duration::ZERO,
        max_batch: 1,
        ..ServeConfig::default()
    };
    let (server, engine) = start_test_server(14, f, config);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let rows: Vec<BitVec> = (0..50).map(|i| test_row(f, 3, i)).collect();
    let expected = offline(&engine, &rows);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            client.predict(row).expect("predict"),
            expected[i],
            "row {i}"
        );
    }
    // max_batch = 1 forces exactly one word per request.
    assert_eq!(server.stats().batches(), 50);
    server.shutdown();
}

/// Two models behind one server: requests interleaved over one connection
/// route to the right engine, and the per-model counters split accordingly.
#[test]
fn two_models_route_correctly_over_one_connection() {
    let (fa, fb) = (24usize, 40usize);
    let engine_a = test_engine(31, fa);
    let engine_b = test_engine(32, fb);
    let mut registry = ModelRegistry::new();
    let id_a = registry.register("alpha", Arc::clone(&engine_a));
    let id_b = registry.register("beta", Arc::clone(&engine_b));
    let registry = Arc::new(registry);
    let server =
        Server::start(Arc::clone(&registry), "127.0.0.1:0", ServeConfig::default()).expect("bind");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.models().len(), 2);
    assert_eq!(client.model("alpha").unwrap().id, id_a);
    assert_eq!(client.model("beta").unwrap().num_features, fb);

    let n = 150;
    let rows_a: Vec<BitVec> = (0..n).map(|i| test_row(fa, 1, i)).collect();
    let rows_b: Vec<BitVec> = (0..n).map(|i| test_row(fb, 2, i)).collect();
    let expect_a = offline(&engine_a, &rows_a);
    let expect_b = offline(&engine_b, &rows_b);

    // Interleave pipelined sends to both models on the same connection.
    let mut want: HashMap<u64, usize> = HashMap::new();
    for i in 0..n {
        let id = client.send_to(id_a, &rows_a[i]).expect("send a");
        want.insert(id, expect_a[i]);
        let id = client.send_to(id_b, &rows_b[i]).expect("send b");
        want.insert(id, expect_b[i]);
    }
    for _ in 0..2 * n {
        let (id, response) = client.recv().expect("recv");
        let expect = want.remove(&id).expect("unknown or duplicate response id");
        assert_eq!(class_of(response), expect, "request {id} cross-wired");
    }
    assert!(want.is_empty());

    let (sa, sb) = (registry.stats(id_a).unwrap(), registry.stats(id_b).unwrap());
    assert_eq!(sa.served(), n as u64);
    assert_eq!(sb.served(), n as u64);
    assert_eq!(sa.received(), n as u64);
    assert_eq!(
        server.stats().served(),
        sa.served() + sb.served(),
        "global counter must be the sum of the per-model ones"
    );
    server.shutdown();
}

/// The hot-swap property the registry exists for: while pipelined clients
/// hammer two models, a third thread swaps one model's engine mid-flight.
/// Every response must be a well-formed prediction from either the old or
/// the new engine (never garbage, never dropped), responses after the
/// swap returns must all come from the new engine, and the untouched
/// model must be completely unaffected.
#[test]
fn hot_swap_under_pipelined_load_never_drops_or_corrupts() {
    let f = 28;
    let engine_stable = test_engine(41, f);
    let engine_old = test_engine(42, f);
    let engine_new = test_engine(43, f);
    let mut registry = ModelRegistry::new();
    let id_stable = registry.register("stable", Arc::clone(&engine_stable));
    let id_swapped = registry.register("swapped", Arc::clone(&engine_old));
    let registry = Arc::new(registry);
    let server =
        Server::start(Arc::clone(&registry), "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();

    let threads = 4;
    let per_thread = 600;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let engine_stable = Arc::clone(&engine_stable);
            let engine_old = Arc::clone(&engine_old);
            let engine_new = Arc::clone(&engine_new);
            joins.push(scope.spawn(move || {
                let rows: Vec<BitVec> = (0..per_thread).map(|i| test_row(f, t, i)).collect();
                let from_stable = offline(&engine_stable, &rows);
                let from_old = offline(&engine_old, &rows);
                let from_new = offline(&engine_new, &rows);
                let mut client = Client::connect(addr).expect("connect");
                // (request id -> row index, aimed at swapped model?)
                let mut want: HashMap<u64, (usize, bool)> = HashMap::new();
                for (chunk_start, chunk) in rows.chunks(31).enumerate() {
                    for (k, row) in chunk.iter().enumerate() {
                        let i = chunk_start * 31 + k;
                        let swapped = i % 2 == 1;
                        let model = if swapped { id_swapped } else { id_stable };
                        let id = client.send_to(model, row).expect("send");
                        want.insert(id, (i, swapped));
                    }
                    for _ in 0..chunk.len() {
                        let (id, response) = client.recv().expect("recv");
                        let (i, swapped) =
                            want.remove(&id).expect("unknown or duplicate response id");
                        let got = class_of(response);
                        if swapped {
                            assert!(
                                got == from_old[i] || got == from_new[i],
                                "thread {t} row {i}: class {got} matches neither the \
                                 old ({}) nor the new ({}) engine",
                                from_old[i],
                                from_new[i]
                            );
                        } else {
                            assert_eq!(
                                got, from_stable[i],
                                "thread {t} row {i}: the un-swapped model was disturbed"
                            );
                        }
                    }
                }
                assert!(want.is_empty(), "thread {t}: {} dropped", want.len());
            }));
        }

        // Let traffic build, then swap mid-flight.
        std::thread::sleep(Duration::from_millis(5));
        registry
            .swap(id_swapped, Arc::clone(&engine_new))
            .expect("same wire shape");

        for j in joins {
            j.join().expect("client thread panicked");
        }
    });

    // Everything sent after the swap returned must come from the new
    // engine: any batch containing these requests was formed — and its
    // engine snapshotted — after the swap completed.
    let rows: Vec<BitVec> = (0..80).map(|i| test_row(f, 99, i)).collect();
    let from_new = offline(&engine_new, &rows);
    let mut client = Client::connect(addr).expect("connect");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            client.predict_on(id_swapped, row).expect("predict"),
            from_new[i],
            "row {i}: response after the swap must come from the new engine"
        );
    }

    let stats = server.stats();
    assert_eq!(
        stats.served(),
        (threads * per_thread + 80) as u64,
        "responses went missing under the swap"
    );
    assert_eq!(stats.protocol_errors(), 0);
    assert_eq!(registry.stats(id_swapped).unwrap().swaps(), 1);
    assert_eq!(registry.stats(id_stable).unwrap().swaps(), 0);
    server.shutdown();
}

/// Malformed but well-framed requests are answered with typed error
/// responses and the connection survives; only an unparseable frame (a
/// length prefix past the server's limit) drops the connection.
#[test]
fn bad_requests_get_typed_errors_and_the_connection_survives() {
    let f = 24;
    let (server, engine) = start_test_server(15, f, ServeConfig::default());
    let addr = server.local_addr();

    let row = test_row(f, 1, 1);
    let expected = offline(&engine, std::slice::from_ref(&row))[0];

    let client = Client::connect(addr).expect("connect");
    let (mut tx, mut rx) = client.into_split();

    // Unknown model id: typed error, id echoed.
    let id = tx.send_raw(7, &row).expect("send");
    assert_eq!(rx.recv().expect("recv"), (id, Response::UnknownModel));

    // Wrong row width for the model (too narrow, so the frame itself
    // still fits the server's limit): typed error, id echoed.
    let id = tx.send_raw(0, &test_row(f - 16, 1, 2)).expect("send");
    assert_eq!(rx.recv().expect("recv"), (id, Response::BadRequest));

    // A payload too short to carry a request header: typed error with the
    // sentinel id (the real id was unparseable).
    let raw = poetbin_serve::protocol::encode_request(0, 0, &row);
    let mut stream = TcpStream::connect(addr).expect("connect");
    poetbin_serve::protocol::read_hello(&mut stream).expect("hello");
    poetbin_serve::protocol::write_frame(&mut stream, &raw[..3]).expect("short frame");
    let frame =
        poetbin_serve::protocol::read_frame(&mut stream, poetbin_serve::protocol::RESPONSE_LEN)
            .expect("read")
            .expect("a response, not a hangup");
    assert_eq!(
        poetbin_serve::protocol::decode_response(&frame),
        Some((
            poetbin_serve::protocol::BAD_FRAME_ID,
            poetbin_serve::protocol::STATUS_BAD_REQUEST,
            0
        ))
    );

    // All three connections still work for real requests…
    poetbin_serve::protocol::write_frame(&mut stream, &raw).expect("good frame");
    let frame =
        poetbin_serve::protocol::read_frame(&mut stream, poetbin_serve::protocol::RESPONSE_LEN)
            .expect("read")
            .expect("a response");
    assert_eq!(
        poetbin_serve::protocol::decode_response(&frame),
        Some((0, poetbin_serve::protocol::STATUS_OK, expected as u16))
    );
    let id = tx.send(&row).expect("send");
    assert_eq!(rx.recv().expect("recv"), (id, Response::Class(expected)));

    // …but an oversized length prefix is unrecoverable: rejected without
    // allocation, connection dropped.
    let mut huge = TcpStream::connect(addr).expect("connect");
    poetbin_serve::protocol::read_hello(&mut huge).expect("hello");
    huge.write_all(&u32::MAX.to_le_bytes()).expect("len");
    let mut probe = [0u8; 1];
    let n = std::io::Read::read(&mut huge, &mut probe).expect("server closes cleanly");
    assert_eq!(
        n, 0,
        "connection should be closed after an unparseable frame"
    );

    assert_eq!(server.stats().rejected(), 3);
    assert_eq!(server.stats().protocol_errors(), 1);
    server.shutdown();
}

#[test]
fn shutdown_joins_with_idle_connections_open() {
    let f = 16;
    let (server, _engine) = start_test_server(16, f, ServeConfig::default());
    let _idle1 = Client::connect(server.local_addr()).expect("connect");
    let _idle2 = Client::connect(server.local_addr()).expect("connect");
    // Must not hang despite two blocked reader threads.
    server.shutdown();
}

#[test]
fn load_engine_compiles_persisted_models_and_validates_width() {
    let clf = test_classifier(17, 40);
    let path = std::env::temp_dir().join("poetbin_serve_load_test.poetbin");
    save_classifier_to(&path, &clf, ModelFormat::PoetBin2).expect("save");

    let engine = load_engine(&path, None).expect("load at native width");
    assert_eq!(engine.num_features(), clf.min_features());
    let wide = load_engine(&path, Some(64)).expect("load wider");
    assert_eq!(wide.num_features(), 64);

    let narrow = load_engine(&path, Some(clf.min_features() - 1));
    assert!(
        matches!(narrow, Err(LoadError::WidthTooNarrow { .. })),
        "narrow width must be rejected"
    );
    let missing = load_engine(std::env::temp_dir().join("poetbin_no_such.poetbin"), None);
    assert!(matches!(missing, Err(LoadError::Persist(_))));
    let _ = std::fs::remove_file(&path);
}

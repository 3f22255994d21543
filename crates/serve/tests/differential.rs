//! Differential suite: the event-loop server versus the blocking seed
//! server, over every submission shape.
//!
//! The non-negotiable invariant of the serve rewrite is that the
//! architecture is invisible on the wire: for the same request stream,
//! the event loop and the thread-per-connection baseline produce
//! **byte-identical reply lines**, the same cache-slot behavior (same
//! misses, same simulation count, same retained entries), and the same
//! structured errors — whether requests arrive one at a time
//! (sequential), many-in-flight on one connection (pipelined), or as a
//! single `batch` line.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use ugpc_core::RunConfig;
use ugpc_hwsim::{OpKind, PlatformId, Precision};
use ugpc_serve::protocol::encode;
use ugpc_serve::{
    Client, IntrospectRequest, Request, RunRequest, ServeOptions, Server, ServerHandle, ServerMode,
    StatsReport,
};

fn tiny() -> RunConfig {
    RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(8)
}

fn seeded(seed: u64) -> RunConfig {
    tiny().with_scheduler(ugpc_runtime::SchedPolicy::Random { seed })
}

fn options(mode: ServerMode) -> ServeOptions {
    ServeOptions {
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 32,
        mode,
        ..ServeOptions::default()
    }
}

fn spawn(mode: ServerMode) -> ServerHandle {
    Server::bind("127.0.0.1:0", options(mode))
        .expect("bind ephemeral port")
        .spawn()
}

/// The workload every scenario submits: four distinct configs plus a
/// repeat of the first (one slot must be served from cache or by
/// coalescing, never by a fifth simulation).
fn workload() -> Vec<RunConfig> {
    let mut configs: Vec<RunConfig> = (0..3).map(seeded).collect();
    configs.insert(0, tiny());
    configs.push(tiny());
    configs
}

fn run_lines(configs: &[RunConfig]) -> Vec<String> {
    configs
        .iter()
        .map(|c| encode(&Request::Run(RunRequest::new(c.clone()))))
        .collect()
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn read_replies(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut reply = String::new();
        assert!(
            reader.read_line(&mut reply).unwrap() > 0,
            "server closed the connection mid-stream"
        );
        out.push(reply.trim_end().to_string());
    }
    out
}

/// One request line per turn: write, read, repeat.
fn exchange_sequential(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let (mut reader, mut writer) = connect(addr);
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        out.extend(read_replies(&mut reader, 1));
    }
    out
}

/// Every request line written before any reply is read; replies must
/// come back in request order regardless of completion order.
fn exchange_pipelined(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let (mut reader, mut writer) = connect(addr);
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    read_replies(&mut reader, lines.len())
}

/// One `batch` wire line carrying N configs; N ordered reply lines.
fn exchange_batched(addr: SocketAddr, configs: &[RunConfig]) -> Vec<String> {
    let (mut reader, mut writer) = connect(addr);
    let runs: Vec<RunRequest> = configs.iter().cloned().map(RunRequest::new).collect();
    let line = encode(&Request::Batch(runs));
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    read_replies(&mut reader, configs.len())
}

fn stats_of(addr: SocketAddr) -> StatsReport {
    Client::connect(addr).unwrap().stats().unwrap()
}

const SCENARIOS: [&str; 3] = ["sequential", "pipelined", "batched"];

/// Run `scenario` against a fresh server in `mode` and return the reply
/// lines plus the end-of-run stats.
fn run_scenario(mode: ServerMode, scenario: &str) -> (Vec<String>, StatsReport) {
    let configs = workload();
    let handle = spawn(mode);
    let replies = match scenario {
        "sequential" => exchange_sequential(handle.addr(), &run_lines(&configs)),
        "pipelined" => exchange_pipelined(handle.addr(), &run_lines(&configs)),
        "batched" => exchange_batched(handle.addr(), &configs),
        other => panic!("unknown scenario {other}"),
    };
    let stats = stats_of(handle.addr());
    handle.stop();
    (replies, stats)
}

/// The full matrix: {sequential, pipelined, batched} × {event loop,
/// blocking}. Reply bytes must be identical across every cell, and
/// cache-slot behavior must agree: four misses (the four
/// distinct configs), four simulations, four retained entries, and the
/// repeated slot answered without a fifth simulation — from the ready
/// entry (a hit) or by coalescing behind the identical in-flight leader
/// (pipelined/batched submission races the repeat against its twin; both
/// are legal, and either way the bytes match).
#[test]
fn reply_bytes_identical_across_modes_and_scenarios() {
    let mut reference: Option<Vec<String>> = None;
    for mode in [ServerMode::EventLoop, ServerMode::Blocking] {
        for scenario in SCENARIOS {
            let (replies, stats) = run_scenario(mode, scenario);
            let cell = format!("{mode:?}/{scenario}");
            assert_eq!(replies.len(), 5, "{cell}");
            match &reference {
                None => reference = Some(replies),
                Some(want) => {
                    assert_eq!(&replies, want, "reply bytes diverged in {cell}");
                }
            }
            assert_eq!(
                stats.cache.misses, 4,
                "{cell}: one miss per distinct config"
            );
            assert_eq!(stats.simulations_executed, 4, "{cell}: no duplicate work");
            assert_eq!(stats.cache.entries, 4, "{cell}: all four slots retained");
            assert_eq!(
                stats.cache.hits + stats.cache.coalesced,
                1,
                "{cell}: the repeated config reused the leader's result"
            );
            assert_eq!(stats.parse_errors, 0, "{cell}");
            assert_eq!(stats.invalid_configs, 0, "{cell}");
        }
    }
    // The repeated slot must echo the first slot's bytes exactly.
    let replies = reference.expect("matrix ran");
    assert_eq!(replies[4], replies[0], "cache hit must be byte-identical");
}

/// A batch slot and a standalone run of the same config share one cache
/// slot: the standalone run's entry answers the batch slot (and the
/// bytes match), in both architectures.
#[test]
fn batch_slots_share_cache_slots_with_single_runs() {
    for mode in [ServerMode::EventLoop, ServerMode::Blocking] {
        let handle = spawn(mode);
        let single = exchange_sequential(handle.addr(), &run_lines(&[tiny()]));
        let batch = exchange_batched(handle.addr(), &[tiny(), seeded(9)]);
        let stats = stats_of(handle.addr());
        handle.stop();
        assert_eq!(
            batch[0], single[0],
            "{mode:?}: batch slot must replay the single run's bytes"
        );
        assert_eq!(stats.cache.misses, 2, "{mode:?}: tiny() missed only once");
        assert_eq!(stats.cache.hits, 1, "{mode:?}: the batch slot hit it");
        assert_eq!(stats.simulations_executed, 2, "{mode:?}");
    }
}

/// Error slots are part of the differential contract too: an invalid
/// config in the middle of each submission shape produces the same
/// structured error bytes in both architectures, in its request-order
/// position, without desynchronizing the later slots.
#[test]
fn error_slots_are_identical_and_keep_the_stream_in_sync() {
    let mut invalid = tiny();
    invalid.nb += 1; // tile no longer divides N
    let configs = vec![tiny(), invalid, seeded(1)];
    let mut reference: Option<Vec<String>> = None;
    for mode in [ServerMode::EventLoop, ServerMode::Blocking] {
        for scenario in SCENARIOS {
            let handle = spawn(mode);
            let replies = match scenario {
                "sequential" => exchange_sequential(handle.addr(), &run_lines(&configs)),
                "pipelined" => exchange_pipelined(handle.addr(), &run_lines(&configs)),
                "batched" => exchange_batched(handle.addr(), &configs),
                other => panic!("unknown scenario {other}"),
            };
            let stats = stats_of(handle.addr());
            handle.stop();
            let cell = format!("{mode:?}/{scenario}");
            assert_eq!(replies.len(), 3, "{cell}: every slot answered");
            assert!(
                replies[1].contains("invalid_config"),
                "{cell}: middle slot must be the structured error: {}",
                replies[1]
            );
            match &reference {
                None => reference = Some(replies),
                Some(want) => assert_eq!(&replies, want, "replies diverged in {cell}"),
            }
            assert_eq!(stats.invalid_configs, 1, "{cell}");
            assert_eq!(stats.simulations_executed, 2, "{cell}");
        }
    }
}

/// Raw garbage (not a batch concern — it is not addressable in a batch)
/// gets the same `bad_request` bytes from both architectures, and the
/// connection survives to serve the next request identically.
#[test]
fn malformed_lines_are_identical_across_modes() {
    let garbage = ["this is not json", "{\"Run\": {\"config\": 5}}"];
    let mut reference: Option<Vec<String>> = None;
    for mode in [ServerMode::EventLoop, ServerMode::Blocking] {
        let handle = spawn(mode);
        let (mut reader, mut writer) = connect(handle.addr());
        let mut replies = Vec::new();
        for line in garbage {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            replies.extend(read_replies(&mut reader, 1));
        }
        // The connection still serves a real request afterwards.
        let run = encode(&Request::Run(RunRequest::new(tiny())));
        writer.write_all(run.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        replies.extend(read_replies(&mut reader, 1));
        let stats = stats_of(handle.addr());
        handle.stop();
        assert!(
            replies[0].contains("bad_request"),
            "{mode:?}: {}",
            replies[0]
        );
        assert_eq!(stats.parse_errors, 2, "{mode:?}");
        match &reference {
            None => reference = Some(replies),
            Some(want) => assert_eq!(&replies, want, "replies diverged in {mode:?}"),
        }
    }
}

/// The flight recorder is pure observation: a server with the recorder
/// attached (the default) and one with it detached produce
/// byte-identical reply lines for the same request stream, across both
/// architectures and every submission shape.
/// This is the neutrality half of the observability contract — spans
/// may time anything they like as long as no reply byte moves.
#[test]
fn flight_recorder_is_invisible_on_the_wire() {
    let spawn_with = |mode: ServerMode, recorder: bool| {
        let opts = ServeOptions {
            recorder,
            ..options(mode)
        };
        Server::bind("127.0.0.1:0", opts)
            .expect("bind ephemeral port")
            .spawn()
    };
    let run = |mode: ServerMode, scenario: &str, recorder: bool| -> Vec<String> {
        let configs = workload();
        let handle = spawn_with(mode, recorder);
        let replies = match scenario {
            "sequential" => exchange_sequential(handle.addr(), &run_lines(&configs)),
            "pipelined" => exchange_pipelined(handle.addr(), &run_lines(&configs)),
            "batched" => exchange_batched(handle.addr(), &configs),
            other => panic!("unknown scenario {other}"),
        };
        handle.stop();
        replies
    };
    for mode in [ServerMode::EventLoop, ServerMode::Blocking] {
        for scenario in SCENARIOS {
            let attached = run(mode, scenario, true);
            let detached = run(mode, scenario, false);
            assert_eq!(
                attached, detached,
                "recorder changed the wire bytes in {mode:?}/{scenario}"
            );
        }
    }
}

/// Introspect exactness: every span tree the recorder returns
/// telescopes — the phase durations sum to the root total *exactly*
/// (integer µs, no rounding slop) — and a recorder-off server answers
/// `enabled: false` instead of erroring.
#[test]
fn introspect_span_trees_telescope_exactly() {
    let handle = spawn(ServerMode::EventLoop);
    let _ = exchange_pipelined(handle.addr(), &run_lines(&workload()));
    let report = Client::connect(handle.addr())
        .unwrap()
        .introspect(IntrospectRequest {
            last: Some(16),
            worst: Some(8),
        })
        .unwrap();
    handle.stop();
    assert!(report.enabled, "event-loop default attaches the recorder");
    assert!(report.recorded >= 5, "all five workload slots recorded");
    assert!(!report.spans.is_empty());
    assert!(!report.worst.is_empty());
    for dump in report.spans.iter().chain(report.worst.iter()) {
        let sum: u64 = dump.phases.iter().map(|(_, us)| us).sum();
        assert_eq!(
            sum, dump.total_us,
            "trace {} phase sums must telescope to the root total",
            dump.trace
        );
        assert!(!dump.phases.is_empty(), "trace {}", dump.trace);
    }
    // The per-phase decomposition covers the same uptime: the root-total
    // histogram saw every recorded request.
    let total = report.total.expect("root decomposition present");
    assert_eq!(total.count, report.recorded);

    let detached = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            recorder: false,
            ..options(ServerMode::EventLoop)
        },
    )
    .expect("bind ephemeral port")
    .spawn();
    let report = Client::connect(detached.addr())
        .unwrap()
        .introspect(IntrospectRequest {
            last: None,
            worst: None,
        })
        .unwrap();
    detached.stop();
    assert!(!report.enabled, "detached server reports enabled: false");
    assert_eq!(report.recorded, 0);
    assert!(report.spans.is_empty() && report.worst.is_empty() && report.phases.is_empty());
    assert!(report.total.is_none());
}

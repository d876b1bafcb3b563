//! The serving layer's guarantees, locked at the workspace level:
//!
//! 1. **Cache correctness** — the byte-accounted LRU's capacity
//!    accounting, eviction order and hit/miss counters match a
//!    brute-force reference model under random operation sequences, and
//!    the N-way sharded cache matches N independent single-lock caches
//!    (same hash routing, same capacity partition) op for op.
//! 2. **Serve ≡ batch** — a profile served by [`gsuite::serve::Server`]
//!    is bit-identical to the same configuration's cell in the batch
//!    [`gsuite::scenarios::run_scenario`] grid.
//! 3. **Loadgen reproducibility** — a sim-clock load-generation run is a
//!    pure function of `(scenario, seed, parameters)`: identical
//!    per-request latencies and counters across repeated runs and across
//!    profiling thread counts, with a non-zero cache hit rate for a mix
//!    with repeated configurations (the PR's acceptance criterion).
//! 4. **The TCP protocol** round-trips requests, stats and shutdown, and
//!    the `gsuite-cli serve` and `loadgen --connect` binaries drive it
//!    end to end.

use proptest::prelude::*;

use gsuite::scenarios::{registry, BenchOpts};
use gsuite::serve::{
    run_loadgen, serve_on, ArrivalMode, ByteLru, ClockMode, LoadSpec, ProtocolClient, ServeConfig,
    ServeRequest, Server, ShardedByteLru,
};

// ---------------------------------------------------------------------------
// 1. LRU property tests against a reference model.
// ---------------------------------------------------------------------------

/// A brute-force LRU oracle: recency list of `(key, bytes)`, MRU last.
struct ModelLru {
    capacity: u64,
    entries: Vec<(u8, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

impl ModelLru {
    fn new(capacity: u64) -> Self {
        ModelLru {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            rejected: 0,
        }
    }

    fn used(&self) -> u64 {
        self.entries.iter().map(|&(_, b)| b).sum()
    }

    fn get(&mut self, key: u8) -> bool {
        match self.entries.iter().position(|&(k, _)| k == key) {
            Some(i) => {
                self.hits += 1;
                let e = self.entries.remove(i);
                self.entries.push(e);
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn insert(&mut self, key: u8, bytes: u64) {
        if bytes > self.capacity {
            self.rejected += 1;
            return;
        }
        if let Some(i) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(i);
        }
        while self.used() + bytes > self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        self.entries.push((key, bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences: the cache agrees with the oracle on hits,
    /// misses, evictions, rejections, byte accounting and exact LRU order,
    /// and never exceeds its capacity.
    #[test]
    fn lru_matches_reference_model(
        capacity in 1u64..400,
        ops in proptest::collection::vec((proptest::bool::ANY, 0u8..12, 1u64..120), 0..64),
    ) {
        let mut cache: ByteLru<u8, u8> = ByteLru::new(capacity);
        let mut model = ModelLru::new(capacity);
        for (is_insert, key, bytes) in ops {
            if is_insert {
                cache.insert(key, key, bytes);
                model.insert(key, bytes);
            } else {
                let cached = cache.get(&key).copied();
                let modeled = model.get(key);
                prop_assert_eq!(cached.is_some(), modeled, "lookup of {}", key);
            }
            prop_assert!(cache.bytes_in_use() <= capacity, "capacity exceeded");
            prop_assert_eq!(cache.bytes_in_use(), model.used());
            // Exact recency order, LRU first.
            let order: Vec<u8> = cache.keys().copied().collect();
            let expect: Vec<u8> = model.entries.iter().map(|&(k, _)| k).collect();
            prop_assert_eq!(order, expect);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, model.hits);
        prop_assert_eq!(stats.misses, model.misses);
        prop_assert_eq!(stats.evictions, model.evictions);
        prop_assert_eq!(stats.rejected, model.rejected);
        prop_assert_eq!(stats.entries, model.entries.len());
    }

    /// Hot keys survive: repeatedly touching one key keeps it resident
    /// through arbitrary churn that evicts everything else.
    #[test]
    fn lru_touch_protects_hot_keys(
        churn in proptest::collection::vec((1u8..12, 40u64..100), 1..32),
    ) {
        let mut cache: ByteLru<u8, ()> = ByteLru::new(200);
        cache.insert(0, (), 100);
        for (key, bytes) in churn {
            assert!(cache.get(&0).is_some(), "hot key evicted");
            cache.insert(key, (), bytes); // <=100 bytes free: never evicts 0
        }
        assert!(cache.contains(&0));
    }

    /// The sharded cache is exactly N independent single-lock caches: a
    /// brute-force reference — one plain [`ByteLru`] per shard, keys
    /// routed by the same hash, capacity partitioned the same way —
    /// agrees with [`ShardedByteLru`] on every lookup, every insert
    /// acceptance, the eviction-storm sweep and the aggregate counters.
    #[test]
    fn sharded_lru_matches_single_lock_reference(
        capacity in 1u64..400,
        shards in 1usize..6,
        ops in proptest::collection::vec((0u8..3, 0u8..12, 1u64..120), 0..64),
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let sharded: ShardedByteLru<u8, u8> = ShardedByteLru::new(capacity, shards);
        let n = shards as u64;
        let (each, remainder) = (capacity / n, capacity % n);
        let mut reference: Vec<ByteLru<u8, u8>> = (0..n)
            .map(|i| ByteLru::new(each + u64::from(i < remainder)))
            .collect();
        let route = |key: u8| -> usize {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            (h.finish() % n) as usize
        };
        for (op, key, bytes) in ops {
            match op {
                0 => {
                    let accepted = sharded.insert(key, key, bytes);
                    prop_assert_eq!(accepted, reference[route(key)].insert(key, key, bytes));
                }
                1 => {
                    let got = sharded.get(&key);
                    prop_assert_eq!(got, reference[route(key)].get(&key).copied());
                }
                _ => {
                    // Round-robin storm, one LRU victim per shard pass.
                    let victims = (bytes % 4) as usize;
                    let mut dropped = 0;
                    while dropped < victims {
                        let before = dropped;
                        for shard in reference.iter_mut() {
                            if dropped == victims {
                                break;
                            }
                            dropped += shard.evict_lru(1);
                        }
                        if dropped == before {
                            break;
                        }
                    }
                    prop_assert_eq!(sharded.evict_lru(victims), dropped);
                }
            }
        }
        let mut expect = gsuite::serve::LruStats::default();
        for shard in &reference {
            let s = shard.stats();
            expect.hits += s.hits;
            expect.misses += s.misses;
            expect.insertions += s.insertions;
            expect.evictions += s.evictions;
            expect.rejected += s.rejected;
            expect.bytes_in_use += s.bytes_in_use;
            expect.capacity_bytes += s.capacity_bytes;
            expect.entries += s.entries;
        }
        prop_assert_eq!(sharded.stats(), expect);
        prop_assert_eq!(sharded.len(), reference.iter().map(|s| s.len()).sum::<usize>());
    }
}

// ---------------------------------------------------------------------------
// 2. Serve-mode results are bit-identical to the batch scenario runner.
// ---------------------------------------------------------------------------

#[test]
fn served_profiles_match_batch_run_scenario() {
    let opts = BenchOpts::golden();
    let scenario = registry::find("serve-mix").expect("serve-mix registered");
    let (batch, _) = scenario.run(&opts);

    let server = Server::start(ServeConfig {
        workers: 4,
        opts: opts.clone(),
        ..ServeConfig::default()
    });
    // Submit every cell of the grid and compare outcomes pairwise.
    let receivers: Vec<_> = batch
        .cells
        .iter()
        .map(|cell| {
            server
                .submit(ServeRequest::from_cell(cell))
                .expect("accepted")
        })
        .collect();
    for ((cell, outcome), rx) in batch.iter().zip(receivers) {
        let done = rx.recv().expect("completion delivered");
        match (outcome.profile(), &done.outcome) {
            (Some(batch_profile), Ok(served)) => {
                assert_eq!(
                    batch_profile,
                    served.as_ref(),
                    "served profile differs from batch cell {}",
                    cell.label()
                );
            }
            (None, Err(_)) => {} // unsupported in both worlds
            (batch_side, served_side) => panic!(
                "outcome kind mismatch for {}: batch={:?} served={:?}",
                cell.label(),
                batch_side.is_some(),
                served_side.is_ok()
            ),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.completed, batch.cells.len() as u64);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 3. Loadgen reproducibility (the acceptance criterion).
// ---------------------------------------------------------------------------

fn golden_loadspec() -> LoadSpec {
    LoadSpec {
        requests: 64,
        opts: BenchOpts::golden(),
        ..LoadSpec::default()
    }
}

#[test]
fn loadgen_sim_is_reproducible_across_runs_and_threads() {
    let base = golden_loadspec();
    let a = run_loadgen(&base).expect("loadgen runs");
    let b = run_loadgen(&base).expect("loadgen runs");
    assert_eq!(a, b, "same spec, same report — down to every latency");
    assert_eq!(a.render(), b.render());

    // The profiling fan-out width must not leak into the report.
    for threads in [1, 3, 8] {
        let t = run_loadgen(&LoadSpec {
            threads,
            ..golden_loadspec()
        })
        .expect("loadgen runs");
        assert_eq!(a.latencies_ms, t.latencies_ms, "threads={threads}");
        assert_eq!(a.cache, t.cache, "threads={threads}");
        assert_eq!(a.throughput_rps, t.throughput_rps, "threads={threads}");
        assert_eq!(a.counters, t.counters, "threads={threads}");
    }

    // A mix with repeated configurations must pay off: hits > 0, and the
    // sampled stream covers the whole request budget.
    assert!(a.cache.hit_rate() > 0.0, "repeated configs must hit");
    assert_eq!(a.completed, 64);
    assert!(a.latency.p50_ms <= a.latency.p95_ms);
    assert!(a.latency.p95_ms <= a.latency.p99_ms);
    assert!(a.latency.p99_ms <= a.latency.max_ms);

    // Different seeds change the stream (and thus, generically, the tail).
    let other = run_loadgen(&LoadSpec {
        seed: 7,
        ..golden_loadspec()
    })
    .expect("loadgen runs");
    assert_ne!(a.latencies_ms, other.latencies_ms);
}

#[test]
fn loadgen_open_loop_sheds_under_pressure() {
    // An arrival rate far beyond the modeled service rate with a tiny
    // queue: the bounded queue must shed deterministically.
    let spec = LoadSpec {
        arrival: ArrivalMode::Open { rate_rps: 5000.0 },
        requests: 64,
        workers: 1,
        queue_cap: 2,
        slo_ms: Some(1.0),
        ..golden_loadspec()
    };
    let a = run_loadgen(&spec).expect("loadgen runs");
    assert!(
        a.counters.rejected > 0,
        "overload must shed: {}",
        a.render()
    );
    assert_eq!(a.completed + a.counters.rejected, 64);
    assert_eq!(a, run_loadgen(&spec).expect("loadgen runs"));
    // A 1 ms SLO under overload is hopeless — attainment must reflect it.
    let slo = a.slo.expect("slo configured");
    assert!(!slo.met());
    assert!(slo.attainment < 1.0);
}

#[test]
fn loadgen_coalesces_simultaneous_identical_requests() {
    // One distinct configuration arriving faster than it completes: every
    // overlapping request shares the single in-flight execution.
    let spec = LoadSpec {
        scenario: "gpusweep".to_string(), // small grid, distinct configs
        arrival: ArrivalMode::Open { rate_rps: 10000.0 },
        requests: 32,
        workers: 4,
        queue_cap: 64,
        ..golden_loadspec()
    };
    let report = run_loadgen(&spec).expect("loadgen runs");
    assert!(
        report.counters.coalesced > 0,
        "burst of identical configs must coalesce: {}",
        report.render()
    );
}

#[test]
fn loadgen_wall_clock_smoke() {
    // Wall mode is a measurement, not a pure function — only shape checks.
    let report = run_loadgen(&LoadSpec {
        clock: ClockMode::Wall,
        requests: 16,
        arrival: ArrivalMode::Closed { clients: 4 },
        workers: 2,
        ..golden_loadspec()
    })
    .expect("loadgen runs");
    assert_eq!(report.completed, 16);
    assert_eq!(report.clock, "wall");
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency.max_ms > 0.0);
    assert!(report.cache.hit_rate() > 0.0);
}

// ---------------------------------------------------------------------------
// 4. TCP protocol round trip.
// ---------------------------------------------------------------------------

#[test]
fn tcp_protocol_round_trips_and_shuts_down() {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serve_thread =
        std::thread::spawn(move || serve_on(listener, ServeConfig::golden()).expect("serves"));

    let mut client = ProtocolClient::connect(&addr).expect("connect");
    let ok = client
        .round_trip("model=gcn dataset=cora scale=0.05")
        .expect("request round-trips");
    assert!(ok.starts_with("ok id=0 cache=miss "), "{ok}");

    // The same configuration again: a cache hit, served over the wire.
    let hit = client
        .round_trip("model=gcn dataset=cora scale=0.05")
        .expect("request round-trips");
    assert!(hit.contains("cache=hit"), "{hit}");

    // Malformed lines answer errors without dropping the connection.
    let err = client.round_trip("model=transformer").expect("error line");
    assert!(err.starts_with("err "), "{err}");

    let stats = client.round_trip("stats").expect("stats line");
    assert!(stats.contains("cache_hits=1"), "{stats}");
    assert!(stats.contains("completed=2"), "{stats}");

    assert_eq!(client.round_trip("shutdown").expect("bye"), "ok bye");
    serve_thread.join().expect("server exits cleanly");
}

#[test]
fn qos_keys_round_trip_and_reject_codes_are_typed() {
    // deadline_ms= / fault_seed= survive a parse → render → parse loop…
    let req = ServeRequest::parse_line(
        "model=gin dataset=citeseer scale=0.05 deadline_ms=250 fault_seed=9",
    )
    .expect("QoS keys parse");
    assert_eq!(req.deadline_ms, Some(250.0));
    assert_eq!(req.fault_seed, Some(9));
    let reparsed = ServeRequest::parse_line(&req.to_line()).expect("round-trips");
    assert_eq!(reparsed.deadline_ms, Some(250.0));
    assert_eq!(reparsed.fault_seed, Some(9));

    // …but never fragment the cache identity: two requests differing
    // only in QoS keys are the same work.
    let plain = ServeRequest::parse_line("model=gin dataset=citeseer scale=0.05").expect("parses");
    assert_eq!(req, plain, "QoS keys are excluded from request identity");

    // Over the wire: an expired deadline answers a typed reject code and
    // leaves the server healthy for the same configuration afterwards.
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serve_thread =
        std::thread::spawn(move || serve_on(listener, ServeConfig::golden()).expect("serves"));
    let mut client = ProtocolClient::connect(&addr).expect("connect");
    let timed_out = client
        .round_trip("model=gcn dataset=cora scale=0.05 deadline_ms=0.000001")
        .expect("reject round-trips");
    assert!(timed_out.starts_with("err "), "{timed_out}");
    assert!(timed_out.contains("code=deadline-exceeded"), "{timed_out}");

    let ok = client
        .round_trip("model=gcn dataset=cora scale=0.05")
        .expect("clean request round-trips");
    assert!(ok.starts_with("ok "), "{ok}");
    assert!(ok.contains("cache=miss"), "{ok}");

    let stats = client.round_trip("stats").expect("stats line");
    assert!(stats.contains("timeouts=1"), "{stats}");

    assert_eq!(client.round_trip("shutdown").expect("bye"), "ok bye");
    serve_thread.join().expect("server exits cleanly");
}

#[test]
fn overlong_request_lines_are_answered_and_skipped() {
    use std::io::{BufRead, BufReader, Write};

    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let serve_thread =
        std::thread::spawn(move || serve_on(listener, ServeConfig::golden()).expect("serves"));

    let mut writer = std::net::TcpStream::connect(addr).expect("connect");
    // A server that never answers fails the test instead of hanging it.
    let timeout = Some(std::time::Duration::from_secs(30));
    writer.set_read_timeout(timeout).expect("read timeout");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let mut line = String::new();
    // 100 000 bytes and no newline: answered once the 64 KiB limit is hit.
    writer.write_all(&[b'a'; 100_000]).expect("write");
    reader.read_line(&mut line).expect("err line");
    assert_eq!(
        line.trim_end(),
        r#"err id=- msg="request line longer than 65536 bytes""#
    );
    // The rest of that line is skipped; the connection keeps serving.
    writer
        .write_all(b"\nmodel=gcn dataset=cora scale=0.05\n")
        .expect("write");
    line.clear();
    reader.read_line(&mut line).expect("ok line");
    assert!(line.starts_with("ok id=0 cache=miss "), "{line}");

    writer.write_all(b"shutdown\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("bye");
    assert_eq!(line.trim_end(), "ok bye");
    serve_thread.join().expect("server exits cleanly");
}

#[test]
fn idle_connections_do_not_block_shutdown() {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serve_thread =
        std::thread::spawn(move || serve_on(listener, ServeConfig::golden()).expect("serves"));

    // A connection that never sends anything must not pin the server open.
    let _idle = ProtocolClient::connect(&addr).expect("idle connect");
    let mut client = ProtocolClient::connect(&addr).expect("connect");
    assert_eq!(client.round_trip("shutdown").expect("bye"), "ok bye");

    // Bounded join: a hang here is exactly the regression being guarded.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(serve_thread.join());
    });
    rx.recv_timeout(std::time::Duration::from_secs(30))
        .expect("server must shut down despite the idle connection")
        .expect("server exits cleanly");
}

/// Kills and reaps a child process on drop, so a failed assertion never
/// leaves a server listening.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn cli_serve_answers_tcp_loadgen_and_stops() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};

    let bin = env!("CARGO_BIN_EXE_gsuite-cli");
    let mut server = KillOnDrop(
        Command::new(bin)
            .args(["serve", "--port", "0", "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn gsuite-cli serve"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let read = stdout.read_line(&mut line).expect("read server stdout");
        assert!(read > 0, "server exited before announcing its address");
        if let Some((_, addr)) = line.trim().split_once("listening on ") {
            break addr.to_string();
        }
    };

    let loadgen = Command::new(bin)
        .args(["loadgen", "--connect", &addr, "--scenario", "serve-mix"])
        .args(["--seed", "7", "--requests", "8", "--clients", "2"])
        .args(["--slo-ms", "5000", "--stop-server"])
        .output()
        .expect("run gsuite-cli loadgen");
    let report = String::from_utf8_lossy(&loadgen.stdout);
    assert!(
        loadgen.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&loadgen.stderr)
    );
    for needle in ["clock=tcp", "p99=", "SLO:"] {
        assert!(report.contains(needle), "missing {needle}:\n{report}");
    }

    let mut rest = String::new();
    stdout
        .read_to_string(&mut rest)
        .expect("read server stdout");
    assert!(rest.contains("gsuite-serve stopped"), "{rest}");
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "server exited with {status}");
}

/// Not-a-number and infinite values pass a plain `<= 0` check, so each
/// flag rejects them explicitly: a NaN batch delay would never expire a
/// forming batch, a NaN rate never submits (the wall clock sleeps
/// forever), a NaN deadline never fires and a NaN SLO measures nothing.
#[test]
fn cli_rejects_non_finite_flag_values() {
    let cases = [
        ("--batch-delay-ms", "nan", "non-negative window"),
        ("--rate", "nan", "finite, positive requests-per-second"),
        ("--rate", "inf", "finite, positive requests-per-second"),
        ("--deadline-ms", "nan", "finite, positive budget"),
        ("--slo-ms", "nan", "finite, positive objective"),
        ("--slo-ms", "-1", "finite, positive objective"),
    ];
    for (flag, value, expected) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gsuite-cli"))
            .args(["loadgen", "--rate", "200", "--batch", "4", flag, value])
            .output()
            .expect("run gsuite-cli loadgen");
        assert!(!out.status.success(), "{flag} {value} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let message = format!("{flag} expects a {expected}");
        assert!(stderr.contains(&message), "{flag} {value}: {stderr}");
    }
}

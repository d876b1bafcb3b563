//! The minimal TCP surface of the serving layer: a newline-delimited
//! request/response protocol over `std::net` (the workspace builds
//! offline — no async runtime, no HTTP stack).
//!
//! One connection carries any number of request lines; every line gets
//! exactly one response line, in order:
//!
//! ```text
//! -> model=gcn dataset=cora scale=0.05 backend=hw
//! <- ok id=0 cache=miss queue_ms=0.0components... latency_ms=3.1415 device_ms=...
//! -> stats
//! <- stats workers=4 queue=0 submitted=1 completed=1 ... cache_hits=0 ...
//! -> metrics         # multi-line Prometheus-style exposition
//! <- # HELP gsuite_cache_bytes_in_use ...
//! <- ...
//! <- # EOF           # the exposition's terminator doubles as framing
//! -> quit            # closes this connection
//! -> shutdown        # stops the whole server (drains first)
//! ```
//!
//! `metrics` is the protocol's only multi-line response; its final
//! `# EOF` line frames it (read with
//! [`ProtocolClient::round_trip_multi`]).
//!
//! Malformed request lines answer `err id=- msg="..."` and keep the
//! connection open. So does a line longer than 64 KiB (`MAX_LINE_BYTES`):
//! the server answers as soon as the limit is reached and skips the rest
//! of that line without buffering it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::fault::RejectReason;
use crate::loadgen::{ArrivalMode, LoadReport, LoadSpec, Step};
use crate::request::ServeRequest;
use crate::server::{ServeConfig, Server, ServerStats, StatKind, STATS_FIELDS};

/// The longest request line the server buffers, newline excluded.
const MAX_LINE_BYTES: usize = 64 << 10;

/// Binds `host:port` (port `0` picks an ephemeral port), announces
/// `gsuite-serve listening on <addr>` on stdout and serves connections
/// until a client sends `shutdown`. Blocks for the server's lifetime.
///
/// # Errors
///
/// Propagates bind failures; per-connection I/O errors only end that
/// connection.
pub fn serve_blocking(host: &str, port: u16, cfg: ServeConfig) -> std::io::Result<()> {
    let listener = TcpListener::bind((host, port))?;
    println!("gsuite-serve listening on {}", listener.local_addr()?);
    std::io::stdout().flush()?;
    serve_on(listener, cfg)
}

/// [`serve_blocking`] over an already bound listener — the hook tests use
/// to learn the ephemeral address before the accept loop starts.
///
/// # Errors
///
/// Propagates `local_addr` failures; per-connection I/O errors only end
/// that connection.
pub fn serve_on(listener: TcpListener, cfg: ServeConfig) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    // The post-shutdown wake-up connect must target a concrete address: a
    // wildcard bind records 0.0.0.0/[::], where self-connect is not
    // portable (fails on Windows).
    let wake_addr = std::net::SocketAddr::new(
        if addr.ip().is_unspecified() {
            match addr {
                std::net::SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            }
        } else {
            addr.ip()
        },
        addr.port(),
    );
    let server = Server::start(cfg);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let server = &server;
            let stop = &stop;
            scope.spawn(move || {
                if handle_connection(stream, server, stop) {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it can observe the flag.
                    let _ = TcpStream::connect(wake_addr);
                }
            });
        }
    });
    server.shutdown();
    println!("gsuite-serve stopped");
    Ok(())
}

// The doc'd behavior of `serve_blocking` is exercised end-to-end by the
// workspace `tests/serve.rs` suite through `serve_on`.

/// Serves one connection; returns `true` when the client requested a
/// server shutdown. Reads poll with a timeout so idle connections notice
/// a shutdown triggered elsewhere instead of pinning the accept scope
/// (whose join would otherwise wait on them forever).
fn handle_connection(stream: TcpStream, server: &Server, stop: &AtomicBool) -> bool {
    let Ok(reader_stream) = stream.try_clone() else {
        return false;
    };
    if reader_stream
        .set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .is_err()
    {
        return false;
    }
    let mut writer = stream;
    let mut reader = BufReader::new(reader_stream);
    // Reusable request read buffer. Partial line bytes survive timeout
    // wake-ups (`read_until` keeps whatever it consumed before the
    // timeout error), and the allocation is recycled across requests:
    // each line is decoded in place over borrowed `&str` key/value
    // slices, so the steady-state loop performs no per-line allocation.
    let mut pending = Vec::new();
    // Inside the unbuffered tail of an overlong line.
    let mut skipping = false;
    loop {
        // Checked on every iteration — not just timeouts — so a client
        // pipelining requests back-to-back cannot delay a shutdown
        // another connection triggered.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // One byte past the limit tells an overlong line from one that
        // just fits with its newline.
        let budget = (MAX_LINE_BYTES + 1 - pending.len()) as u64;
        let read = if skipping {
            reader.skip_until(b'\n')
        } else {
            reader.by_ref().take(budget).read_until(b'\n', &mut pending)
        };
        match read {
            Ok(0) => break, // client closed
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        if std::mem::take(&mut skipping) {
            continue;
        }
        if pending.len() > MAX_LINE_BYTES && pending.last() != Some(&b'\n') {
            pending.clear();
            skipping = true;
            let msg = format!("request line longer than {MAX_LINE_BYTES} bytes");
            if writeln!(writer, "err id=- msg={msg:?}").is_err() {
                break;
            }
            continue;
        }
        // A line that is not UTF-8 ends the connection.
        let Ok(line) = std::str::from_utf8(&pending) else {
            break;
        };
        let response = match line.trim() {
            "" => {
                pending.clear();
                continue;
            }
            "quit" => break,
            "shutdown" => {
                let _ = writeln!(writer, "ok bye");
                return true;
            }
            "stats" => server.stats().to_line(),
            // Multi-line exposition; `render()` ends with the `# EOF`
            // framing line (the trailing writeln supplies its newline).
            "metrics" => {
                let text = server.stats().metrics().render();
                text.trim_end().to_string()
            }
            request => match ServeRequest::parse_line(request) {
                Ok(req) => match server.submit(req) {
                    Ok(rx) => match rx.recv() {
                        Ok(done) => done.to_line(),
                        Err(_) => "err id=- msg=\"server stopped\"".to_string(),
                    },
                    // Typed rejects (queue-full, circuit-open) carry
                    // their wire code; shutdown stays connection-level.
                    Err(e) => match e.reject_reason() {
                        Some(r) => format!("err id=- msg={:?} code={}", e.to_string(), r.code()),
                        None => format!("err id=- msg={:?}", e.to_string()),
                    },
                },
                Err(msg) => format!("err id=- msg={msg:?}"),
            },
        };
        pending.clear();
        if writeln!(writer, "{response}").is_err() {
            break;
        }
    }
    false
}

/// A line-oriented protocol client over one TCP connection.
pub struct ProtocolClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ProtocolClient {
    /// Connects to a running `gsuite-serve` endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> std::io::Result<ProtocolClient> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ProtocolClient {
            reader,
            writer: stream,
        })
    }

    /// Sends one line and reads the single response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a closed connection reads as
    /// `UnexpectedEof`.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        let mut response = String::new();
        self.round_trip_into(line, &mut response)?;
        Ok(response)
    }

    /// [`ProtocolClient::round_trip`] into a caller-owned buffer:
    /// `response` is cleared and refilled (trailing newline stripped), so
    /// a driving loop that keeps one buffer per connection allocates
    /// nothing per request — the load generator's TCP hot path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a closed connection reads as
    /// `UnexpectedEof`.
    pub fn round_trip_into(&mut self, line: &str, response: &mut String) -> std::io::Result<()> {
        writeln!(self.writer, "{line}")?;
        response.clear();
        if self.reader.read_line(response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(())
    }

    /// Sends one line and reads a multi-line response framed by a final
    /// `# EOF` line — the `metrics` command's exposition. Returns the
    /// full text including the terminator, newline-terminated, so the
    /// payload is byte-identical to the server-side
    /// [`MetricsRegistry::render`](gsuite_telemetry::MetricsRegistry::render)
    /// output.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a connection closed before the
    /// terminator reads as `UnexpectedEof`.
    pub fn round_trip_multi(&mut self, line: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{line}")?;
        let mut text = String::new();
        loop {
            let mut next = String::new();
            if self.reader.read_line(&mut next)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection before the # EOF terminator",
                ));
            }
            let done = next.trim_end() == "# EOF";
            text.push_str(next.trim_end());
            text.push('\n');
            if done {
                return Ok(text);
            }
        }
    }
}

/// Samples the server's counters: one `stats` round trip.
///
/// # Errors
///
/// I/O failures, and a reply that is not a `stats` line — a peer that
/// does not speak the protocol must not read as all-zero counters.
fn sample_stats(client: &mut ProtocolClient) -> Result<ServerStats, String> {
    let reply = client
        .round_trip("stats")
        .map_err(|e| format!("stats round-trip failed: {e}"))?;
    ServerStats::parse_line(&reply)
        .ok_or_else(|| format!("the server answered `stats` with {reply:?}, not a stats line"))
}

/// The per-run view of a possibly long-running server's counters: every
/// counter key of the `stats` line is the delta accrued between `before`
/// and `after`, every gauge (workers, queue depth, cache occupancy and
/// capacity, device-memory peaks) is `after`'s as sampled.
fn stats_since(after: &ServerStats, before: &ServerStats) -> ServerStats {
    let mut run = *after;
    for f in STATS_FIELDS.iter().filter(|f| f.kind == StatKind::Counter) {
        (f.set)(&mut run, (f.get)(after).saturating_sub((f.get)(before)));
    }
    run
}

/// Drives a remote `gsuite-serve` endpoint with the spec's request stream
/// (closed-loop only: each client connection submits its next request when
/// the previous response arrives) and reports client-side wall latencies
/// plus the server's own counters for the run.
///
/// With `stop_server`, sends `shutdown` after the run — the CI smoke path.
///
/// # Errors
///
/// Workload-mix resolution failures, connection failures, and open-loop
/// arrival modes (unsupported over TCP) are reported as messages.
pub fn loadgen_tcp(addr: &str, spec: &LoadSpec, stop_server: bool) -> Result<LoadReport, String> {
    let ArrivalMode::Closed { clients } = spec.arrival else {
        return Err("open-loop arrivals are not supported over TCP (use --clients)".to_string());
    };
    let universe = spec.universe()?;
    let keys = spec.sample_keys(universe.len());
    let lines: Vec<String> = universe.iter().map(ServeRequest::to_line).collect();

    // Sample the server's counters before the burst: against a
    // long-running server, the report must reflect *this run's* traffic,
    // not the server's lifetime.
    let mut stats_client =
        ProtocolClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let before = sample_stats(&mut stats_client)?;

    let t0 = Instant::now();
    let results = crate::loadgen::drive_closed_loop(
        clients,
        keys.len(),
        // One connection and one reusable response buffer per client:
        // the request loop allocates nothing per round trip.
        || {
            ProtocolClient::connect(addr)
                .map(|client| (client, String::new()))
                .map_err(|e| format!("cannot connect to {addr}: {e}"))
        },
        |(client, response), i| {
            let sent = Instant::now();
            client
                .round_trip_into(&lines[keys[i]], response)
                .map_err(|e| format!("connection to {addr} failed: {e}"))?;
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            let code = response
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("code="));
            if code
                .and_then(RejectReason::parse)
                .is_some_and(RejectReason::is_shed)
            {
                // A typed shed is counted by the server, not completed.
                return Ok(Step::Shed);
            }
            Ok(Step::Done(latency_ms, !response.starts_with("ok ")))
        },
    )?;
    let makespan_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Re-sample and diff: this run's counters, then optionally stop it.
    let run_stats = stats_since(&sample_stats(&mut stats_client)?, &before);
    if stop_server {
        let _ = stats_client.round_trip("shutdown");
    }

    let errors = results.iter().filter(|&&(_, _, e)| e).count() as u64;
    let latencies: Vec<f64> = results.iter().map(|&(_, l, _)| l).collect();
    Ok(LoadReport::assemble(
        spec,
        "tcp",
        universe.len(),
        results.len() as u64,
        errors,
        run_stats.counters(),
        run_stats.cache,
        makespan_ms,
        latencies,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> ServerStats {
        ServerStats::parse_line(line).expect("a stats line")
    }

    #[test]
    fn field_parsing_handles_missing_keys() {
        let stats = parse("stats workers=4 cache_hits=17 cache_misses=3 cache_rejected=2");
        assert_eq!(stats.cache.hits, 17);
        assert_eq!(stats.workers, 4);
        // Keys match whole: `cache_rejected` is not `rejected`.
        assert_eq!(stats.cache.rejected, 2);
        assert_eq!(stats.rejected, 0);
        // Missing keys read as 0.
        assert_eq!(stats.cache.evictions, 0);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn stats_diff_is_per_run() {
        let before = parse(
            "stats coalesced=5 rejected=1 cache_hits=100 cache_misses=20 cache_insertions=20 \
             cache_evictions=3 cache_rejected=0 cache_bytes=500 cache_capacity=1000 cache_entries=4 \
             tpl_hits=7 tpl_misses=2 batches=10 batched_requests=30 peak_device_bytes=64",
        );
        let after = parse(
            "stats coalesced=9 rejected=1 cache_hits=130 cache_misses=25 cache_insertions=24 \
             cache_evictions=3 cache_rejected=1 cache_bytes=700 cache_capacity=1000 cache_entries=6 \
             tpl_hits=12 tpl_misses=2 batches=13 batched_requests=38 peak_device_bytes=96",
        );
        let run = stats_since(&after, &before);
        // Every counter is this run's delta, templates and batches too.
        assert_eq!((run.tpl_hits, run.tpl_misses), (5, 0));
        assert_eq!((run.batches, run.batched_requests), (3, 8));
        assert_eq!(run.counters().batch.avg_size(), 8.0 / 3.0);
        assert_eq!(run.cache.hits, 30);
        assert_eq!(run.cache.misses, 5);
        assert_eq!(run.cache.insertions, 4);
        assert_eq!(run.cache.evictions, 0);
        assert_eq!(run.cache.rejected, 1);
        assert_eq!(run.coalesced, 4);
        assert_eq!(run.rejected, 0);
        // Point-in-time values come from the end sample.
        assert_eq!(run.peak_device_bytes, 96);
        assert_eq!(run.cache.bytes_in_use, 700);
        assert_eq!(run.cache.capacity_bytes, 1000);
        assert_eq!(run.cache.entries, 6);
    }

    #[test]
    fn non_stats_replies_fail_the_run() {
        // A peer that answers `stats` with something else: the run must
        // fail rather than report all-zero server counters.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                writeln!(writer, "ok id=0").expect("reply");
                line.clear();
            }
        });
        let spec = LoadSpec {
            requests: 1,
            ..LoadSpec::default()
        };
        let err = loadgen_tcp(&addr, &spec, false).expect_err("not a stats line");
        assert!(err.contains("not a stats line"), "{err}");
        peer.join().expect("peer thread");
    }

    #[test]
    fn typed_shed_replies_count_as_shed() {
        // A peer that sheds every request with a typed reject: the run
        // completes nothing and counts no error.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let peer = std::thread::spawn(move || {
            // The stats connection, then the one client's connection.
            let answer = |stream: TcpStream| {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut line = String::new();
                while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                    let reply = match line.trim() {
                        "stats" => "stats workers=1",
                        _ => "err id=- msg=\"batch backlog full\" code=batch-backlog",
                    };
                    writeln!(writer, "{reply}").expect("reply");
                    line.clear();
                }
            };
            let conns: Vec<_> = (0..2)
                .map(|_| {
                    let (stream, _) = listener.accept().expect("accept");
                    std::thread::spawn(move || answer(stream))
                })
                .collect();
            for conn in conns {
                conn.join().expect("connection thread");
            }
        });
        let spec = LoadSpec {
            requests: 1,
            arrival: ArrivalMode::Closed { clients: 1 },
            ..LoadSpec::default()
        };
        let report = loadgen_tcp(&addr, &spec, false).expect("run completes");
        assert_eq!((report.completed, report.errors), (0, 0));
        peer.join().expect("peer thread");
    }
}

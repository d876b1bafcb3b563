//! The server process and the closed-loop TCP load it receives.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// glibc malloc settings the server runs with: large blocks stay in the
/// heap and freed memory is kept. Left to glibc's adaptive defaults, each
/// server process settles early, depending on the order in which its
/// threads allocate and free, into one of two states. In one of them the
/// analytical profiler's per-launch cache models come back as fresh pages
/// every time (~15 000 page faults per `repeat` request), and service
/// time doubles for the life of the process. Fixing the state makes runs
/// measure the server rather than that race. Other C libraries ignore it.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=268435456";

/// A running `gsuite-cli serve --port 0 --threads 2`, killed and reaped
/// on drop.
pub struct ServerProcess {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProcess {
    /// Spawns the server and waits for its `listening on ADDR` line.
    pub fn spawn(bin: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0", "--threads", "2"])
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".to_string());
                }
                Ok(_) => {}
            }
            if let Some((_, addr)) = line.trim().split_once("listening on ") {
                break addr.to_string();
            }
        };
        Ok(ServerProcess {
            child,
            _stdout: stdout,
            addr,
        })
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// User + system CPU time of every server thread so far, in ms.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        // Linux reports these in USER_HZ, which is 100 on every
        // architecture it exposes to user space.
        Ok((ticks(11)? + ticks(12)?) * 10.0)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One protocol connection with `TCP_NODELAY`; every request leaves in a
/// single `write_all`.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(reader),
            out: Vec::new(),
        })
    }

    /// Sends `line` and reads the one response line into `response`
    /// (trailing newline stripped).
    pub fn round_trip(&mut self, line: &str, response: &mut String) -> std::io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        response.clear();
        if self.reader.read_line(response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        response.truncate(response.trim_end().len());
        Ok(())
    }

    /// The server's `stats` line.
    pub fn stats(&mut self) -> Result<gsuite_serve::ServerStats, String> {
        let mut response = String::new();
        self.round_trip("stats", &mut response)
            .map_err(|e| format!("stats round trip: {e}"))?;
        gsuite_serve::ServerStats::parse_line(&response)
            .ok_or_else(|| format!("not a stats line: {response:?}"))
    }
}

/// One request of a closed-loop run.
#[derive(Debug, Clone)]
pub struct Sample {
    pub line: String,
    pub rtt_ms: f64,
    /// The response line, or the I/O error that replaced it.
    pub response: Result<String, String>,
}

impl Sample {
    /// The `ok` response line, if the request succeeded.
    pub fn ok(&self) -> Option<&str> {
        self.response
            .as_deref()
            .ok()
            .filter(|r| r.starts_with("ok "))
    }
}

/// Closed loop on one connection: request `k` leaves as soon as response
/// `k - 1` has arrived, until `next(k)` returns `None`.
///
/// One connection, not one per server worker: two requests in flight on
/// a 2-vCPU host contend for the CPU, which moved `repeat`'s round-trip
/// p90 between 80 and 116 ms over runs of the same code (72–80 ms with
/// one connection).
pub fn drive(client: &mut Client, next: impl Fn(usize) -> Option<String>) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut response = String::new();
    for k in 0.. {
        let Some(line) = next(k) else {
            break;
        };
        let sent = Instant::now();
        let result = client.round_trip(&line, &mut response);
        let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
        let failed = result.is_err();
        samples.push(Sample {
            line,
            rtt_ms,
            response: result.map(|()| response.clone()).map_err(|e| e.to_string()),
        });
        if failed {
            break; // the connection is gone
        }
    }
    samples
}

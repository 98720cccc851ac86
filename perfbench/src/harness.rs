//! The client side: spawn `psdp serve --listen` over loopback TCP, drive
//! it closed-loop from one process, and read the server's CPU time and
//! peak RSS from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Server flags shared by every spawn (and by the in-process replays).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub shards: usize,
    pub rayon_threads: usize,
}

impl ServerConfig {
    /// The `serve --listen` flags the socket server and the in-process
    /// runs share (the socket server adds `--bind` and `--max-clients`).
    pub fn listen_args(&self) -> Vec<String> {
        ["serve", "--listen", "--shards", &self.shards.to_string()]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }
}

/// A running `psdp serve --listen --bind tcp:127.0.0.1:0`.
pub struct Server {
    child: Child,
    addr: String,
    stderr: std::thread::JoinHandle<String>,
    /// Spawn → the `listening on` line.
    pub setup: Duration,
}

impl Server {
    /// Spawn the server and wait for its `listening on` line. It exits on
    /// its own after `max_clients` connections have closed.
    pub fn spawn(psdp: &Path, cfg: &ServerConfig, max_clients: usize) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(psdp)
            .args(cfg.listen_args())
            .args(["--bind", "tcp:127.0.0.1:0", "--max-clients", &max_clients.to_string()])
            .env("RAYON_NUM_THREADS", cfg.rayon_threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", psdp.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match err.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {line}"));
                }
                Ok(_) => {
                    if let Some(rest) = line.trim_end().strip_prefix("listening on tcp:") {
                        break rest.to_string();
                    }
                }
            }
        };
        let setup = started.elapsed();
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut err, &mut rest);
            rest
        });
        Ok(Server { child, addr, stderr, setup })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(s)
    }

    /// Wait for the server to exit (all clients closed); returns its
    /// stderr report.
    pub fn finish(mut self) -> Result<String, String> {
        let status = self.child.wait().map_err(|e| format!("waiting for server: {e}"))?;
        let report = self.stderr.join().unwrap_or_default();
        if !status.success() {
            return Err(format!("server exited with {status}: {report}"));
        }
        Ok(report)
    }

    /// Stop the server without a clean shutdown (error paths only).
    pub fn abort(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = self.stderr.join();
    }
}

/// Server set-up times of `samples` spawns, each shut down by one
/// connection that closes at once.
pub fn setup_seconds(psdp: &Path, cfg: &ServerConfig, samples: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let server = Server::spawn(psdp, cfg, 1)?;
        out.push(server.setup.as_secs_f64());
        match server.connect() {
            Ok(conn) => drop(conn),
            Err(e) => {
                server.abort();
                return Err(e);
            }
        }
        server.finish()?;
    }
    Ok(out)
}

/// Timestamps of one closed-loop exchange of requests.
#[derive(Debug, Default)]
pub struct Exchange {
    /// Response lines, in order, without the newline.
    pub lines: Vec<String>,
    /// First byte of each request about to be written.
    pub sent: Vec<Instant>,
    /// Full response line read.
    pub received: Vec<Instant>,
}

impl Exchange {
    /// Client latency of request `i`: first request byte written → full
    /// response line read.
    pub fn latency(&self, i: usize) -> Duration {
        self.received[i].duration_since(self.sent[i])
    }
}

/// Send `requests` over `conn` keeping at most `window` outstanding, and
/// read one response line per request.
pub fn exchange(conn: &TcpStream, requests: &[&[u8]], window: usize) -> Result<Exchange, String> {
    let mut w = conn.try_clone().map_err(|e| format!("socket clone: {e}"))?;
    let mut r = BufReader::new(conn.try_clone().map_err(|e| format!("socket clone: {e}"))?);
    let n = requests.len();
    let mut ex = Exchange {
        lines: Vec::with_capacity(n),
        sent: Vec::with_capacity(n),
        received: Vec::with_capacity(n),
    };
    let mut buf = Vec::new();
    while ex.received.len() < n {
        while ex.sent.len() < n && ex.sent.len() - ex.received.len() < window.max(1) {
            ex.sent.push(Instant::now());
            w.write_all(requests[ex.sent.len() - 1]).map_err(|e| format!("socket write: {e}"))?;
        }
        buf.clear();
        let got = r.read_until(b'\n', &mut buf).map_err(|e| format!("socket read: {e}"))?;
        if got == 0 || buf.last() != Some(&b'\n') {
            return Err(format!(
                "server closed the connection after {} of {n} responses",
                ex.received.len()
            ));
        }
        ex.received.push(Instant::now());
        buf.pop();
        ex.lines.push(String::from_utf8_lossy(&buf).into_owned());
    }
    Ok(ex)
}

/// One client's part of a socket run.
pub struct ClientPlan<'a> {
    pub warmup: Vec<&'a [u8]>,
    pub timed: Vec<&'a [u8]>,
}

/// What a socket run measured.
pub struct SocketRun {
    /// This server's spawn → `listening on`.
    pub setup: Duration,
    /// Per client: the warm-up and timed exchanges.
    pub warmup: Vec<Exchange>,
    pub timed: Vec<Exchange>,
    /// Timed phase: every client past its warm-up → last timed response.
    pub wall: Duration,
    /// Server user + system CPU over the timed phase.
    pub cpu_seconds: f64,
    /// Server `VmHWM` at the end of the timed phase.
    pub peak_rss_mb: f64,
}

/// Spawn a server, run every client's warm-up, then time every client's
/// timed requests together. Each client has its own connection and
/// thread; all clients start the timed phase at once.
pub fn socket_run(
    psdp: &Path,
    cfg: &ServerConfig,
    plans: &[ClientPlan<'_>],
    window: usize,
) -> Result<SocketRun, String> {
    let server = Server::spawn(psdp, cfg, plans.len())?;
    let setup = server.setup;
    let pid = server.pid();
    let conns: Result<Vec<TcpStream>, String> = plans.iter().map(|_| server.connect()).collect();
    let conns = match conns {
        Ok(c) => c,
        Err(e) => {
            server.abort();
            return Err(e);
        }
    };
    // Parties: every client plus this thread. Three rendezvous: timed
    // start, timed end, and release (after the /proc reads, before any
    // connection closes and the server exits).
    let barrier = Barrier::new(plans.len() + 1);
    let mut marks: Result<(Instant, Instant, f64, f64, f64), String> =
        Err("no measurement".to_string());
    let results: Vec<Result<(Exchange, Exchange), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .zip(conns)
            .map(|(plan, conn)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let warm = exchange(&conn, &plan.warmup, window);
                    barrier.wait();
                    let timed = match &warm {
                        Ok(_) => exchange(&conn, &plan.timed, window),
                        Err(e) => Err(e.clone()),
                    };
                    barrier.wait();
                    barrier.wait();
                    drop(conn);
                    Ok((warm?, timed?))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let cpu0 = cpu_seconds(pid);
        barrier.wait();
        let end = Instant::now();
        let cpu1 = cpu_seconds(pid);
        let hwm = peak_rss_mb(pid);
        marks = match (cpu0, cpu1, hwm) {
            (Ok(a), Ok(b), Ok(h)) => Ok((start, end, a, b, h)),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e),
        };
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect()
    });
    let finished = server.finish();
    let (start, end, cpu0, cpu1, hwm) = marks?;
    finished?;
    let mut warmup = Vec::new();
    let mut timed = Vec::new();
    for r in results {
        let (w, t) = r?;
        warmup.push(w);
        timed.push(t);
    }
    // The timed phase ends at the last response, not at the rendezvous.
    let last = timed.iter().filter_map(|t| t.received.last().copied()).max().unwrap_or(end);
    Ok(SocketRun {
        setup,
        warmup,
        timed,
        wall: last.duration_since(start),
        cpu_seconds: cpu1 - cpu0,
        peak_rss_mb: hwm,
    })
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture the workspace targets).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
pub fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis start at field 3 (`state`). utime and stime are
    // fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// `VmHWM` in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_stat_cpu(&text).ok_or_else(|| format!("{path}: unexpected format"))
}

pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_mb(&text).ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_parses_fields_after_the_command_name() {
        // pid (comm with spaces and a parenthesis) state ppid … utime stime
        let stat = "4242 (psdp (x) y) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 9 0 100 200 300";
        assert_eq!(parse_stat_cpu(stat), Some(3.0));
        assert_eq!(parse_stat_cpu("4242 (psdp) S 1 2"), None);
        assert_eq!(parse_stat_cpu("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_parses_kib_as_mib() {
        let status = "Name:\tpsdp\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tpsdp\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        let pid = std::process::id();
        // Burn a little CPU so the reading is visibly non-negative.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        let hwm = peak_rss_mb(pid).unwrap();
        assert!(hwm > 0.5 && hwm < 65_536.0, "{hwm}");
    }
}

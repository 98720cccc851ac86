//! In-process runs of the same request bytes: the untimed reference
//! (`psdp_cli::serve::serve_listen_on`), the front-end replay that stamps
//! when each request's last byte is consumed and when its response line
//! is written, and the service replay (`psdp_serve::Service::run_stream`)
//! that keeps each response's queue-wait and execution times.

use crate::harness::ServerConfig;
use psdp_cli::args::Args;
use psdp_serve::StreamOutcome;
use psdp_serve::{ServeRequest, ServeStats, Service, ServiceOptions, ServiceReport, StreamItem};
use std::io::{BufRead, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

fn listen_args(cfg: &ServerConfig) -> Result<Args, String> {
    Args::parse(&cfg.listen_args())
}

/// The reference response lines for one client's byte stream: the
/// stdin-mode service over the same bytes. DESIGN.md §15: a socket
/// client's responses equal a stdin run of its bytes, byte for byte.
pub fn reference(cfg: &ServerConfig, bytes: &[u8]) -> Result<Vec<String>, String> {
    let args = listen_args(cfg)?;
    let mut reader = bytes;
    let mut out: Vec<u8> = Vec::new();
    psdp_cli::serve::serve_listen_on(&args, &mut reader, &mut out)?;
    Ok(split_lines(&out))
}

fn split_lines(out: &[u8]) -> Vec<String> {
    out.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .collect()
}

/// Closed-loop gate between a request source and the response sink: the
/// source may start request `i` once `i + 1 - window` responses are out,
/// and the first timed request waits for every warm-up response.
struct Gate {
    done: Mutex<usize>,
    cv: Condvar,
    window: usize,
    warmup: usize,
}

impl Gate {
    fn new(window: usize, warmup: usize) -> Arc<Gate> {
        Arc::new(Gate { done: Mutex::new(0), cv: Condvar::new(), window: window.max(1), warmup })
    }

    fn wait_to_send(&self, i: usize) {
        let need = if i == self.warmup { i } else { (i + 1).saturating_sub(self.window) };
        let mut done = self.done.lock().expect("gate lock poisoned");
        while *done < need {
            done = self.cv.wait(done).expect("gate lock poisoned");
        }
    }

    fn response_out(&self) {
        *self.done.lock().expect("gate lock poisoned") += 1;
        self.cv.notify_all();
    }
}

/// A reader over a request list that releases requests closed-loop and
/// stamps when the last byte of each is consumed.
struct StampedReader<'a> {
    requests: &'a [&'a [u8]],
    gate: Arc<Gate>,
    cur: usize,
    pos: usize,
    consumed: Vec<Instant>,
}

impl BufRead for StampedReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let Some(req) = self.requests.get(self.cur) else { return Ok(&[]) };
        if self.pos == 0 {
            self.gate.wait_to_send(self.cur);
        }
        Ok(&req[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
        if self.requests.get(self.cur).is_some_and(|r| self.pos >= r.len()) {
            self.consumed.push(Instant::now());
            self.cur += 1;
            self.pos = 0;
        }
    }
}

impl Read for StampedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// A writer that stamps each completed response line.
struct StampedWriter {
    gate: Arc<Gate>,
    out: Vec<u8>,
    written: Vec<Instant>,
}

impl Write for StampedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.extend_from_slice(buf);
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            self.written.push(Instant::now());
            self.gate.response_out();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Front-end replay of one client through `serve_listen_on`.
pub struct FrontendRun {
    pub lines: Vec<String>,
    /// Per request: its last byte consumed by the front end.
    pub consumed: Vec<Instant>,
    /// Per request: its response line written.
    pub written: Vec<Instant>,
}

pub fn frontend_replay(
    cfg: &ServerConfig,
    requests: &[&[u8]],
    warmup: usize,
    window: usize,
) -> Result<FrontendRun, String> {
    let args = listen_args(cfg)?;
    let gate = Gate::new(window, warmup);
    let mut reader =
        StampedReader { requests, gate: Arc::clone(&gate), cur: 0, pos: 0, consumed: Vec::new() };
    let mut writer = StampedWriter { gate, out: Vec::new(), written: Vec::new() };
    psdp_cli::serve::serve_listen_on(&args, &mut reader, &mut writer)?;
    if reader.consumed.len() != requests.len() || writer.written.len() != requests.len() {
        return Err(format!(
            "front-end replay: {} requests, {} consumed, {} answered",
            requests.len(),
            reader.consumed.len(),
            writer.written.len()
        ));
    }
    Ok(FrontendRun {
        lines: split_lines(&writer.out),
        consumed: reader.consumed,
        written: writer.written,
    })
}

/// Service replay of one client through `Service::run_stream`.
pub struct ServiceRun {
    /// Per request, in submission order (`None`: not executed).
    pub stats: Vec<Option<ServeStats>>,
    pub report: ServiceReport,
}

pub fn service_replay(
    cfg: &ServerConfig,
    requests: Vec<ServeRequest>,
    warmup: usize,
    window: usize,
) -> ServiceRun {
    let n = requests.len();
    let gate = Gate::new(window, warmup);
    let mut service = Service::new(ServiceOptions {
        shards: cfg.shards,
        queue_capacity: 1024,
        cache_enabled: true,
        ..ServiceOptions::default()
    });
    let stats: Mutex<Vec<Option<ServeStats>>> = Mutex::new(vec![None; n]);
    let source = Arc::clone(&gate);
    let items = requests.into_iter().enumerate().map(move |(i, request)| {
        source.wait_to_send(i);
        StreamItem::Execute { request, ctx: i }
    });
    let report = service.run_stream(items, |i: usize, outcome| {
        if let StreamOutcome::Response(resp) = outcome {
            if let Some(slot) = stats.lock().expect("stats lock poisoned").get_mut(i) {
                *slot = Some(resp.stats.clone());
            }
        }
        gate.response_out();
    });
    ServiceRun { stats: stats.into_inner().expect("stats lock poisoned"), report }
}

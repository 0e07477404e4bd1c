//! The `serve-hot` workload: an in-process `SessionServer` with a warm
//! pool, driven by a closed-loop client that pipelines batches of requests
//! on keep-alive connections and waits for every reply before sending more.

use crate::check::Columns;
use crate::stats;
use crate::trace::Tracer;
use crate::zipf::request_mix;
use gnnerator_graph::ArtifactCache;
use gnnerator_serve::client::ClientConnection;
use gnnerator_serve::{Json, ServeConfig, SessionServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dataset scale of the served requests: the paper's full-size datasets.
pub const SERVE_SCALE: f64 = 1.0;

/// Requests written back-to-back on one connection before reading replies.
pub const BATCH: usize = 16;

/// Length of the precomputed request sequence (the client cycles it).
const MIX_LEN: usize = 1 << 16;

/// Goodput is the median over this many equal windows of the run.
pub const WINDOWS: usize = 20;

/// `latency_p99_ms` is this percentile over the windows of each window's
/// p99: the tail of a window quieter than three in four. The tail is what
/// other processes on the machine move most. With the median over windows
/// instead, two sets of ten seeded runs had p99 quartile spreads of 21%
/// and 53% where p50 and goodput stayed within 12%. A tail the program
/// lengthens in more than three quarters of the windows shows; one it
/// lengthens only now and then does not.
const TAIL_WINDOW_RANK: f64 = 25.0;

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// `wall_s` of `serve-hot` is the time to answer this many requests.
pub const BLOCK: usize = 10_000;

/// The dataflow/backend variants each (dataset, network) pair is asked for.
const VARIANTS: [(&str, &str); 4] = [
    ("gnnerator", "blocked"),
    ("gnnerator", "conventional"),
    ("gpu-roofline", "blocked"),
    ("hygcn", "blocked"),
];

/// Every request kind of the mix, as `/simulate` bodies:
/// {cora, citeseer, pubmed} x {gcn, gsage, gsage-max} x [`VARIANTS`].
pub fn request_kinds(seed: u64) -> Vec<String> {
    let mut kinds = Vec::new();
    for dataset in ["cora", "citeseer", "pubmed"] {
        for network in ["gcn", "gsage", "gsage-max"] {
            for (backend, dataflow) in VARIANTS {
                kinds.push(format!(
                    "{{\"dataset\": \"{dataset}\", \"network\": \"{network}\", \
                     \"backend\": \"{backend}\", \"dataflow\": \"{dataflow}\", \
                     \"scale\": {SERVE_SCALE:?}, \"seed\": {seed}}}"
                ));
            }
        }
    }
    kinds
}

/// Marks the end of a point's deterministic columns in a response body;
/// what follows (`session_reused`, `latency_seconds`, `batch_size`,
/// provenance) varies from request to request.
const VARYING_FIELDS: &[u8] = b", \"session_reused\"";

/// Checks every response of each kind: the first is parsed and digested,
/// and every later one must repeat its deterministic part byte for byte.
#[derive(Debug)]
pub struct Verifier {
    first: Vec<Option<Vec<u8>>>,
    digests: Vec<Option<u64>>,
    ok: Vec<u64>,
    pub failed: u64,
    pub shed: u64,
}

impl Verifier {
    pub fn new(kinds: usize) -> Self {
        Self {
            first: vec![None; kinds],
            digests: vec![None; kinds],
            ok: vec![0; kinds],
            failed: 0,
            shed: 0,
        }
    }

    /// Whether a response to a request of `kind` is correct so far.
    pub fn check(&mut self, kind: usize, status: u16, body: &[u8]) -> bool {
        if status == 429 {
            self.shed += 1;
        }
        let correct = status == 200 && self.matches(kind, body);
        if correct {
            self.ok[kind] += 1;
        } else {
            self.failed += 1;
        }
        correct
    }

    fn matches(&mut self, kind: usize, body: &[u8]) -> bool {
        let Some(end) = find(body, VARYING_FIELDS) else {
            return false;
        };
        let fixed = &body[..end];
        if let Some(first) = &self.first[kind] {
            return first.as_slice() == fixed;
        }
        let columns = std::str::from_utf8(body)
            .ok()
            .and_then(Json::parse)
            .as_ref()
            .and_then(Columns::from_json);
        match columns {
            Some(columns) => {
                self.digests[kind] = Some(columns.digest());
                self.first[kind] = Some(fixed.to_vec());
                true
            }
            None => false,
        }
    }

    /// Per kind: the digest of its verified columns (if it was answered)
    /// and how many of its responses matched.
    pub fn outcome(&self) -> Vec<(Option<u64>, u64)> {
        self.digests
            .iter()
            .copied()
            .zip(self.ok.iter().copied())
            .collect()
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn config(cache_dir: &Path) -> ServeConfig {
    ServeConfig {
        // As the `serve` binary does: cold builds go through the artifact cache.
        artifact_cache: Some(Arc::new(ArtifactCache::new(cache_dir))),
        // Let one whole pipelined batch be read ahead and coalesce.
        connection_inflight: BATCH,
        // One evaluation worker, not the default of one per core. On two
        // cores shared with the connection threads and the client, a second
        // worker added 3% goodput and doubled the run-to-run spread (ten
        // interleaved seeds: goodput quartile spread 12.3% against 7.3%).
        workers: 1,
        ..ServeConfig::default()
    }
}

/// Set-up: starts a server over an artifact cache in `cache_dir` and warms
/// its pool with one request of every kind, checking each reply. Returns
/// the server and the set-up seconds.
pub fn start_warm(
    kinds: &[String],
    cache_dir: &Path,
    verifier: &mut Verifier,
) -> Result<(SessionServer, f64), String> {
    let start = Instant::now();
    let server =
        SessionServer::start("127.0.0.1:0", config(cache_dir)).map_err(|e| e.to_string())?;
    let mut client = ClientConnection::new(server.local_addr());
    for (kind, body) in kinds.iter().enumerate() {
        let response = client.post("/simulate", body)?;
        verifier.check(kind, response.status, response.body.as_bytes());
    }
    client.close();
    Ok((server, start.elapsed().as_secs_f64()))
}

/// One pipelining keep-alive connection of the closed-loop client.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pending: Vec<usize>,
    written_at: Instant,
    head: String,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            pending: Vec::with_capacity(BATCH),
            written_at: Instant::now(),
            head: String::new(),
            body: Vec::new(),
        })
    }

    fn send(
        &mut self,
        kinds: &[usize],
        rendered: &[Vec<u8>],
        buffer: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        buffer.clear();
        for &kind in kinds {
            buffer.extend_from_slice(&rendered[kind]);
        }
        self.pending.clear();
        self.pending.extend_from_slice(kinds);
        self.written_at = Instant::now();
        self.writer.write_all(buffer)
    }

    /// Reads one response into `self.body`, returning its status.
    fn read_response(&mut self) -> std::io::Result<u16> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.head.clear();
        if self.reader.read_line(&mut self.head)? == 0 {
            return Err(bad("connection closed"));
        }
        let status = self
            .head
            .get(9..12)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        loop {
            self.head.clear();
            self.reader.read_line(&mut self.head)?;
            let line = self.head.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("no Content-Length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }
}

fn render(kinds: &[String], provenance: bool) -> Vec<Vec<u8>> {
    let extra = if provenance {
        "X-Provenance: 1\r\n"
    } else {
        ""
    };
    kinds
        .iter()
        .map(|body| {
            format!(
                "POST /simulate HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n{extra}\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect()
}

/// Per-request server spans read from `X-Provenance` responses.
#[derive(Debug, Default)]
pub struct Provenance {
    pub queue_wait_s: Vec<f64>,
    pub evaluate_s: Vec<f64>,
    pub serialize_s: Vec<f64>,
    /// Client-observed latency minus the server's total.
    pub transport_s: Vec<f64>,
}

/// Requests drawn into the trace file with their server spans.
const TRACED_REQUESTS: usize = 64;

fn provenance_spans(body: &[u8]) -> Option<(f64, Vec<(String, f64)>)> {
    let json = Json::parse(std::str::from_utf8(body).ok()?)?;
    let provenance = json.get("provenance")?;
    let total = provenance.get("total_seconds")?.as_f64()?;
    let spans = provenance
        .get("spans")?
        .as_array()?
        .iter()
        .map(|span| {
            Some((
                span.get("stage")?.as_str()?.to_string(),
                span.get("seconds")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((total, spans))
}

/// What one closed-loop load phase measured.
#[derive(Debug)]
pub struct Load {
    pub seconds: f64,
    /// Per response: completion time since the load started, and latency.
    pub responses: Vec<(f64, f64)>,
    /// Completion times of the correct responses.
    pub correct_at: Vec<f64>,
    pub provenance: Provenance,
}

/// The end-to-end figures of a load phase.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median over [`WINDOWS`] windows of correct responses per second.
    pub goodput_rps: f64,
    /// Median over windows of each window's nearest-rank p50.
    pub p50_s: f64,
    /// [`TAIL_WINDOW_RANK`]-th percentile over windows of each window's
    /// nearest-rank p99.
    pub p99_s: f64,
    /// Median time to answer a block of [`BLOCK`] correct responses.
    pub block_s: f64,
    pub samples: usize,
    pub windows: usize,
    pub blocks: usize,
}

impl Load {
    pub fn attempted(&self) -> u64 {
        self.responses.len() as u64
    }

    pub fn summary(&self) -> Result<Summary, String> {
        let window_s = self.seconds / WINDOWS as f64;
        let window = |at: f64| ((at / window_s) as usize).min(WINDOWS);
        let mut counts = [0.0; WINDOWS + 1];
        for &at in &self.correct_at {
            counts[window(at)] += 1.0;
        }
        let mut latencies = vec![Vec::new(); WINDOWS + 1];
        for &(at, latency) in &self.responses {
            latencies[window(at)].push(latency);
        }
        // The last slot holds the replies drained after the deadline.
        let rates: Vec<f64> = counts[..WINDOWS].iter().map(|c| c / window_s).collect();
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for sample in latencies.into_iter().take(WINDOWS) {
            let sorted = stats::sorted(sample);
            if let (Some(p50), Some(p99)) = (
                stats::nearest_rank(&sorted, 50.0),
                stats::supported_percentile(&sorted, 99.0),
            ) {
                p50s.push(p50);
                p99s.push(p99);
            }
        }
        let mut blocks = Vec::new();
        let mut previous = 0.0;
        for at in self.correct_at.iter().skip(BLOCK - 1).step_by(BLOCK) {
            blocks.push(at - previous);
            previous = *at;
        }
        let median = |values: &[f64], what: &str| {
            stats::median(values).ok_or_else(|| format!("no {what}: the load phase was too short"))
        };
        Ok(Summary {
            goodput_rps: median(&rates, "goodput windows")?,
            p50_s: median(&p50s, "window with a supported p99")?,
            p99_s: stats::nearest_rank(&stats::sorted(p99s.clone()), TAIL_WINDOW_RANK)
                .ok_or("no window with a supported p99: the load phase was too short")?,
            block_s: median(&blocks, "complete block of requests")?,
            samples: self.responses.len(),
            windows: p99s.len(),
            blocks: blocks.len(),
        })
    }
}

/// Drives `addr` for `seconds` with the seeded mix on `connections`
/// keep-alive connections, [`BATCH`] requests pipelined per round trip.
fn closed_loop(
    addr: SocketAddr,
    kinds: &[String],
    seed: u64,
    seconds: f64,
    connections: usize,
    verifier: &mut Verifier,
    mut tracer: Option<&mut Tracer>,
) -> Result<Load, String> {
    let rendered = render(kinds, tracer.is_some());
    let mix = request_mix(kinds.len(), MIX_LEN, seed);
    let mut next = 0usize;
    let mut draw = |batch: &mut Vec<usize>| {
        batch.clear();
        for _ in 0..BATCH {
            batch.push(mix[next % MIX_LEN]);
            next += 1;
        }
    };
    let mut conns = (0..connections)
        .map(|_| Conn::open(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let mut batch = Vec::with_capacity(BATCH);
    let mut buffer = Vec::new();
    let mut load = Load {
        seconds,
        responses: Vec::with_capacity(1 << 20),
        correct_at: Vec::with_capacity(1 << 20),
        provenance: Provenance::default(),
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for conn in &mut conns {
        draw(&mut batch);
        conn.send(&batch, &rendered, &mut buffer)
            .map_err(|e| e.to_string())?;
    }
    while conns.iter().any(|conn| !conn.pending.is_empty()) {
        for conn in &mut conns {
            for index in 0..conn.pending.len() {
                let kind = conn.pending[index];
                let status = conn.read_response().map_err(|e| e.to_string())?;
                let done = Instant::now();
                let latency = done.duration_since(conn.written_at).as_secs_f64();
                let at = done.duration_since(start).as_secs_f64();
                load.responses.push((at, latency));
                if verifier.check(kind, status, &conn.body) {
                    load.correct_at.push(at);
                }
                let Some(tracer) = tracer.as_deref_mut() else {
                    continue;
                };
                let Some((total, spans)) = provenance_spans(&conn.body) else {
                    continue;
                };
                let p = &mut load.provenance;
                p.transport_s.push(latency - total);
                for (stage, seconds) in &spans {
                    match stage.as_str() {
                        "queue_wait" => p.queue_wait_s.push(*seconds),
                        "evaluate" => p.evaluate_s.push(*seconds),
                        "serialize" => p.serialize_s.push(*seconds),
                        _ => {}
                    }
                }
                let id = load.responses.len();
                if id <= TRACED_REQUESTS {
                    // Server spans have exact durations; they are laid end to
                    // end so the last ends when the reply is read.
                    let end = tracer.seconds_at(done);
                    let parent = tracer.record(
                        "serve.http.request",
                        id as u64,
                        end - latency,
                        latency,
                        None,
                    );
                    let mut at = end - total;
                    for (stage, seconds) in spans {
                        let name = format!("serve.server.{stage}");
                        tracer.record(&name, id as u64, at, seconds, parent);
                        at += seconds;
                    }
                }
            }
            conn.pending.clear();
            if Instant::now() < deadline {
                draw(&mut batch);
                conn.send(&batch, &rendered, &mut buffer)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(load)
}

/// Outcome of a set-up plus load in this process.
#[derive(Debug)]
pub struct ServeRun {
    pub setup_s: f64,
    pub load: Load,
    pub verifier: Verifier,
    /// `/metrics` and `/stats` scraped after set-up and after the load
    /// (traced runs).
    pub metrics_before: String,
    pub metrics_after: String,
    pub stats_before: String,
    pub stats_after: String,
}

/// Keep-alive connections of the closed loop. One, not two: each adds a
/// server connection thread to the client and the worker on two cores, and
/// with two a CPU-bound neighbour process tripled p99 (1.5 to 4.2-4.8 ms)
/// where with one it less than doubled it (0.71 to 1.29-1.37 ms), for
/// 6-10% less goodput.
pub const CONNECTIONS: usize = 1;

/// Sets up once over an artifact cache in `cache_dir`, then runs the closed
/// loop for `seconds`. A `tracer` turns on `X-Provenance` and the
/// `/metrics` and `/stats` scrapes.
pub fn run(
    seed: u64,
    seconds: f64,
    cache_dir: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<ServeRun, String> {
    let kinds = request_kinds(seed);
    let mut verifier = Verifier::new(kinds.len());
    let (server, setup_s) = start_warm(&kinds, cache_dir, &mut verifier)?;
    let addr = server.local_addr();
    let traced = tracer.is_some();
    let scrape = |path: &str| -> Result<String, String> {
        if !traced {
            return Ok(String::new());
        }
        let response = gnnerator_serve::client::get(addr, path)?;
        response
            .is_ok()
            .then_some(response.body)
            .ok_or_else(|| format!("GET {path} answered {}", response.status))
    };
    let metrics_before = scrape("/metrics");
    let stats_before = scrape("/stats");
    let load = closed_loop(
        addr,
        &kinds,
        seed,
        seconds,
        CONNECTIONS,
        &mut verifier,
        tracer,
    );
    let metrics_after = scrape("/metrics");
    let stats_after = scrape("/stats");
    server.shutdown();
    Ok(ServeRun {
        setup_s,
        load: load?,
        verifier,
        metrics_before: metrics_before?,
        stats_before: stats_before?,
        metrics_after: metrics_after?,
        stats_after: stats_after?,
    })
}

/// The value of an unlabelled series in Prometheus text. A missing series
/// is an error, so that a renamed one cannot read as 0.
pub fn series(text: &str, name: &str) -> Result<f64, String> {
    text.lines()
        .find_map(|line| {
            let (series, value) = line.split_once(' ')?;
            (series == name)
                .then(|| value.trim().parse().ok())
                .flatten()
        })
        .ok_or_else(|| format!("/metrics has no series {name}"))
}

/// Shares of `counts` (responses per kind, in [`request_kinds`] order) by
/// dataset and by backend variant, as a line of percentages.
pub fn shares(counts: &[u64]) -> String {
    let total = counts.iter().sum::<u64>().max(1) as f64;
    let pct = |pick: &dyn Fn(usize) -> bool| {
        let n: u64 = (0..counts.len())
            .filter(|&k| pick(k))
            .map(|k| counts[k])
            .sum();
        n as f64 / total * 100.0
    };
    let per_dataset = VARIANTS.len() * 3;
    let mut parts = Vec::new();
    for (i, dataset) in ["cora", "citeseer", "pubmed"].iter().enumerate() {
        parts.push(format!("{dataset} {:.1}%", pct(&|k| k / per_dataset == i)));
    }
    for (i, (backend, dataflow)) in VARIANTS.iter().enumerate() {
        let share = pct(&|k| k % VARIANTS.len() == i);
        parts.push(format!("{backend}/{dataflow} {share:.1}%"));
    }
    parts.join(", ")
}

/// Nearest-rank `q`-th percentile of a sample in microseconds, if at least
/// ten samples lie beyond it.
pub fn percentile_us(values: &[f64], q: f64) -> Option<f64> {
    stats::supported_percentile(&stats::sorted(values.to_vec()), q).map(|s| s * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_the_mix() {
        let kinds = request_kinds(9);
        assert_eq!(kinds.len(), 36);
        for body in &kinds {
            let json = Json::parse(body).expect("valid request JSON");
            gnnerator_serve::scenario_from_json(&json).expect("a valid scenario");
        }
    }

    #[test]
    fn verifier_pins_the_first_response_of_each_kind() {
        let point = |cycles: u64, reused: bool| {
            format!(
                "{{\"seconds\": 0.5, \"total_cycles\": {cycles}, \"dram_bytes\": 3, \
                 \"baseline_gpu_seconds\": null, \"baseline_hygcn_seconds\": null, \
                 \"speedup_vs_gpu\": null, \"speedup_vs_hygcn\": null, \"num_nodes\": 1, \
                 \"num_edges\": 2, \"session_reused\": {reused}, \"batch_size\": 1}}"
            )
        };
        let mut verifier = Verifier::new(2);
        assert!(verifier.check(0, 200, point(10, false).as_bytes()));
        assert!(verifier.check(0, 200, point(10, true).as_bytes()));
        assert!(!verifier.check(0, 200, point(11, true).as_bytes()));
        assert!(!verifier.check(1, 429, b"{\"error\": \"busy\"}"));
        assert!(!verifier.check(1, 200, b"{\"seconds\": 1}"));
        assert_eq!((verifier.failed, verifier.shed), (3, 1));
        let outcome = verifier.outcome();
        assert_eq!(outcome[0].1, 2);
        assert!(outcome[0].0.is_some() && outcome[1].0.is_none());
    }

    #[test]
    fn summary_takes_medians_over_windows_and_blocks() {
        // 2 s at 10k responses/s: each 0.1 s window holds latencies of
        // 0..1000 us, so its p50 is 499 us and its p99 989 us (ten beyond).
        let mut load = Load {
            seconds: 2.0,
            responses: Vec::new(),
            correct_at: Vec::new(),
            provenance: Provenance::default(),
        };
        for i in 0..20_000 {
            let at = i as f64 * 1e-4 + 5e-5;
            load.responses.push((at, (i % 1000) as f64 * 1e-6));
            load.correct_at.push(at);
        }
        let summary = load.summary().unwrap();
        assert_eq!(
            (summary.windows, summary.blocks, summary.samples),
            (20, 2, 20_000)
        );
        assert!((summary.goodput_rps - 10_000.0).abs() < 1e-6);
        assert!((summary.p50_s - 499e-6).abs() < 1e-12);
        assert!((summary.p99_s - 989e-6).abs() < 1e-12);
        assert!((summary.block_s - 1.0).abs() < 1e-3);
        // Slow tails in 15 of the 20 windows leave the reported p99 alone;
        // in 16 they move it.
        let slow = |load: &mut Load, windows: usize| {
            for (at, latency) in &mut load.responses {
                if *at < windows as f64 * 0.1 && *latency > 900e-6 {
                    *latency *= 10.0;
                }
            }
        };
        slow(&mut load, 15);
        assert!((load.summary().unwrap().p99_s - 989e-6).abs() < 1e-12);
        slow(&mut load, 16);
        assert!(load.summary().unwrap().p99_s > 9e-3);
        // Too short a load for one block of correct responses.
        load.correct_at.truncate(BLOCK - 1);
        assert!(load.summary().is_err());
    }

    #[test]
    fn series_are_read_by_exact_name_and_a_missing_one_is_an_error() {
        let text = "# HELP x y\ngnnerator_batches_total 12\ngnnerator_batches_total_other 3\n\
                    gnnerator_queue_wait_seconds_bucket{le=\"+Inf\"} 4\n";
        assert_eq!(series(text, "gnnerator_batches_total"), Ok(12.0));
        for missing in ["gnnerator_missing", "gnnerator_batches"] {
            let error = series(text, missing).unwrap_err();
            assert!(error.contains(missing), "{error}");
        }
    }

    #[test]
    fn shares_split_by_dataset_and_backend() {
        // One response of every cora kind, three of pubmed's hygcn kinds.
        let mut counts = vec![0; 36];
        counts[..12].iter_mut().for_each(|c| *c = 1);
        for network in 0..3 {
            counts[24 + network * 4 + 3] = 3;
        }
        assert_eq!(
            shares(&counts),
            "cora 57.1%, citeseer 0.0%, pubmed 42.9%, gnnerator/blocked 14.3%, \
             gnnerator/conventional 14.3%, gpu-roofline/blocked 14.3%, hygcn/blocked 57.1%"
        );
    }
}

//! `ingest`: bulk, insert-only, multi-tenant `push_batch` at n = 20000.
//!
//! Closed loop over two connections with a bounded pipelining window:
//! one thread sends a fixed, interleaved command sequence — `WINDOW`
//! commands in flight across both connections — and waits for the
//! oldest answers on either socket. Connection 0 carries a `robust`
//! (Algorithm 2) and a `store-all` tenant, each ingesting a full ∆ = 64
//! graph in 4096-edge batches; connection 1 carries one `rand-efficient`
//! (Algorithm 3) tenant at ∆ = 32 in 256-edge batches. A tenant that
//! reaches the end of its graph is stats'd and finished (the `finish`
//! answers its final coloring) and replaced by a fresh one on the same
//! graph. Every [`OBSERVE_EVERY`] the alg3 tenant is observed, and
//! after the window every live tenant ends with one `observe` plus
//! `stats`. Commands other than `push_batch` are sent with nothing else
//! in flight, so an `observe` is timed on its own and not on the batches
//! queued ahead of it; observing on a clock keeps the set of observes the
//! same however fast the run goes.
//!
//! The alg3 tenant is kept above the hash-table envelope on purpose:
//! at n = 20000, ∆ = 32 its `VertexSlotTable` would need more than
//! `sc_hash::MAX_TABLE_BYTES`, so its ingest takes the generic tier —
//! the cliff this workload exists to show. [`ALG3_SHARE`] batches of
//! it per cycle are sized so that it takes about half the server's
//! time on the unoptimised tier.

use crate::report::Report;
use crate::socket::{ok_response, ready_server, uint, Exchange, LineConn, SocketOutcome};
use crate::Opts;
use polling::{Event, Events, Poller};
use sc_engine::flatjson::Scalar;
use sc_graph::{generators, Edge, Graph};
use sc_service::service::parse_coloring;
use sc_stream::StreamOrder;
use std::collections::VecDeque;
use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Vertices per tenant.
const N: usize = 20_000;
/// Commands in flight across both connections.
const WINDOW: usize = 8;
/// Server spawns measured for `setup_s`.
const SETUP_REPS: usize = 5;
/// `robust` + `store-all` batch pairs sent per alg3 batch.
const PAIRS_PER_CYCLE: usize = 15;
/// alg3 batches per cycle.
const ALG3_SHARE: usize = 1;
/// How often the [`OBSERVED`] tenant is observed mid-stream.
const OBSERVE_EVERY: Duration = Duration::from_secs(1);
/// The tenant observed on that clock: the alg3 one, whose graph never
/// completes inside a window.
const OBSERVED: usize = 2;

/// Bytes of the `VertexSlotTable` Algorithm 3 would build for `n`
/// vertices at degree bound `delta`: `2 · n · slots`, with one slot per
/// (epoch, copy) — `⌈∆/2⌉ + 1` epochs of `⌈10 log₂ n⌉` copies, as
/// `RandEfficientColorer::new` sizes them. Printed so a run shows which
/// side of the table envelope its alg3 tenant is on.
fn alg3_table_bytes(n: usize, delta: usize) -> usize {
    let copies = (10.0 * (n.max(2) as f64).log2()).ceil() as usize;
    2 * n * copies * (delta.div_ceil(2) + 1)
}

/// One tenant kind: colorer, degree bound, batch size, connection.
struct Kind {
    colorer: &'static str,
    delta: usize,
    batch: usize,
    conn: usize,
}

const KINDS: [Kind; 3] = [
    Kind { colorer: "robust", delta: 64, batch: 4096, conn: 0 },
    Kind { colorer: "store-all", delta: 64, batch: 4096, conn: 0 },
    Kind { colorer: "rand-efficient", delta: 32, batch: 256, conn: 1 },
];

/// A tenant's stream: its graph (shared by every generation) and how far
/// the current generation has got.
struct Tenant {
    kind: &'static Kind,
    seed: u64,
    edges: Vec<Edge>,
    /// Each batch's `"u-v u-v …"` text.
    batches: Vec<String>,
    gen: u64,
    next_batch: usize,
    queued: VecDeque<(String, u64)>,
}

impl Tenant {
    fn new(kind: &'static Kind, seed: u64) -> Self {
        let g = generators::random_with_exact_max_degree(N, kind.delta, seed);
        let edges = StreamOrder::Shuffled(seed ^ 0x5EED).arrange(&g);
        let batches = edges
            .chunks(kind.batch)
            .map(|c| c.iter().map(|e| format!("{}-{}", e.u(), e.v())).collect::<Vec<_>>().join(" "))
            .collect();
        Self { kind, seed, edges, batches, gen: 0, next_batch: 0, queued: VecDeque::new() }
    }

    fn name(&self) -> String {
        format!("{}-{}", self.kind.colorer, self.gen)
    }

    fn open_line(&self) -> String {
        format!(
            r#"{{"cmd":"open","session":"{}","n":{N},"delta":{},"colorer":"{}","seed":{}}}"#,
            self.name(),
            self.kind.delta,
            self.kind.colorer,
            self.seed + self.gen
        )
    }

    /// The next command and the stream items it carries.
    fn next_line(&mut self) -> (String, u64) {
        if let Some(queued) = self.queued.pop_front() {
            return queued;
        }
        let name = self.name();
        if let Some(text) = self.batches.get(self.next_batch) {
            let edges = self.edges.len().min((self.next_batch + 1) * self.kind.batch)
                - self.next_batch * self.kind.batch;
            self.next_batch += 1;
            let line = format!(r#"{{"cmd":"push_batch","session":"{name}","edges":"{text}"}}"#);
            return (line, edges as u64);
        }
        // The graph is in: end this tenant (its `finish` answers the
        // final coloring) and start the next generation on the same graph.
        self.gen += 1;
        self.next_batch = 0;
        self.queued.extend([
            (format!(r#"{{"cmd":"finish","session":"{name}"}}"#), 0),
            (self.open_line(), 0),
        ]);
        (format!(r#"{{"cmd":"stats","session":"{name}"}}"#), 0)
    }

    /// Whatever the tenant still has queued, then one line per `cmds`
    /// entry for its live generation.
    fn then(&mut self, cmds: &[&str]) -> Vec<String> {
        let mut lines: Vec<String> = self.queued.drain(..).map(|(line, _)| line).collect();
        let name = self.name();
        lines.extend(cmds.iter().map(|cmd| format!(r#"{{"cmd":"{cmd}","session":"{name}"}}"#)));
        lines
    }
}

/// One in-flight command.
struct Pending {
    req: String,
    tenant: usize,
    items: u64,
    sent: Instant,
}

/// Both connections, multiplexed on one thread.
struct Mux {
    poller: Poller,
    streams: Vec<TcpStream>,
    rbufs: Vec<Vec<u8>>,
    fifos: Vec<VecDeque<Pending>>,
    done: Vec<Vec<(Exchange, usize, u64)>>,
    inflight: usize,
    bytes_out: u64,
    bytes_in: u64,
    /// Read buffer.
    chunk: Vec<u8>,
}

impl Mux {
    fn new(streams: Vec<TcpStream>) -> Result<Self, String> {
        let poller = Poller::new().map_err(|e| e.to_string())?;
        for (i, s) in streams.iter().enumerate() {
            poller.add(s, Event::readable(i)).map_err(|e| e.to_string())?;
        }
        let k = streams.len();
        Ok(Self {
            poller,
            streams,
            rbufs: vec![Vec::new(); k],
            fifos: (0..k).map(|_| VecDeque::new()).collect(),
            done: (0..k).map(|_| Vec::new()).collect(),
            inflight: 0,
            bytes_out: 0,
            bytes_in: 0,
            chunk: vec![0; 1 << 18],
        })
    }

    fn send(&mut self, conn: usize, req: String, tenant: usize, items: u64) -> Result<(), String> {
        use std::io::Write;
        let mut buf = Vec::with_capacity(req.len() + 1);
        buf.extend_from_slice(req.as_bytes());
        buf.push(b'\n');
        let sent = Instant::now();
        self.streams[conn].write_all(&buf).map_err(|e| format!("send: {e}"))?;
        self.bytes_out += buf.len() as u64;
        self.fifos[conn].push_back(Pending { req, tenant, items, sent });
        self.inflight += 1;
        Ok(())
    }

    /// Waits until nothing is in flight.
    fn drain(&mut self) -> Result<(), String> {
        while self.inflight > 0 {
            self.collect()?;
        }
        Ok(())
    }

    /// Sends one command with nothing else in flight and waits for it.
    fn alone(&mut self, conn: usize, req: String, tenant: usize) -> Result<(), String> {
        self.drain()?;
        self.send(conn, req, tenant, 0)?;
        self.drain()
    }

    /// Waits for readable sockets and collects every complete response.
    fn collect(&mut self) -> Result<(), String> {
        let mut events = Events::new();
        self.poller.wait(&mut events, Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        if events.is_empty() {
            return Err("no response within 60 s".to_string());
        }
        for ev in events.iter() {
            let c = ev.key;
            let n = self.streams[c].read(&mut self.chunk).map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            let now = Instant::now();
            self.bytes_in += n as u64;
            self.rbufs[c].extend_from_slice(&self.chunk[..n]);
            let mut start = 0;
            while let Some(pos) = self.rbufs[c][start..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.rbufs[c][start..start + pos]).into_owned();
                start += pos + 1;
                let p = self.fifos[c].pop_front().ok_or("response without a request")?;
                self.inflight -= 1;
                let ex = Exchange { req: p.req, resp: line, due: p.sent, sent: p.sent, recv: now };
                self.done[c].push((ex, p.tenant, p.items));
            }
            self.rbufs[c].drain(..start);
            self.poller.modify(&self.streams[c], Event::readable(c)).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut tenants: Vec<Tenant> = KINDS
        .iter()
        .enumerate()
        .map(|(i, k)| Tenant::new(k, opts.seed.wrapping_mul(7919).wrapping_add(i as u64 * 101)))
        .collect();
    let sizes: Vec<String> = tenants
        .iter()
        .map(|t| {
            format!(
                "{} delta={} m={} batch={}",
                t.kind.colorer,
                t.kind.delta,
                t.edges.len(),
                t.kind.batch
            )
        })
        .collect();
    let mut report = Report {
        workload: "ingest",
        shape: format!(
            "closed loop, 2 connections, window {WINDOW} in flight; n={N}; {}; cycle = {PAIRS_PER_CYCLE} \
             robust+store-all pairs per {ALG3_SHARE} alg3 batch; alg3 slot table {:.1} MiB vs \
             sc_hash::MAX_TABLE_BYTES {:.1} MiB",
            sizes.join(", "),
            alg3_table_bytes(N, KINDS[2].delta) as f64 / (1 << 20) as f64,
            sc_hash::MAX_TABLE_BYTES as f64 / (1 << 20) as f64,
        ),
        passes: 1,
        ..Report::default()
    };
    let mut opens: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
    for t in &tenants {
        opens[t.kind.conn].push(t.open_line());
    }
    let ready = ready_server(&opts.server, &opens, SETUP_REPS)?;
    report.setup_s = ready.setup_s.clone();
    let (mut bytes_out, mut bytes_in) = (0, 0);
    let streams: Vec<TcpStream> = ready
        .conns
        .into_iter()
        .map(|c: LineConn| {
            bytes_out += c.bytes_out;
            bytes_in += c.bytes_in;
            c.into_stream()
        })
        .collect();
    let mut mux = Mux::new(streams)?;

    let cycle: Vec<usize> = std::iter::repeat_n([0, 1], PAIRS_PER_CYCLE)
        .flatten()
        .chain(std::iter::repeat_n(2, ALG3_SHARE))
        .collect();
    let start = Instant::now();
    let deadline = start + opts.window;
    report.timed(start, opts.window);
    let mut slot = 0usize;
    let mut next_observe = start + OBSERVE_EVERY;
    while Instant::now() < deadline {
        if Instant::now() >= next_observe {
            next_observe += OBSERVE_EVERY;
            let t = &mut tenants[OBSERVED];
            for line in t.then(&["observe"]) {
                mux.alone(t.kind.conn, line, OBSERVED)?;
            }
        }
        while mux.inflight < WINDOW {
            let t = cycle[slot % cycle.len()];
            slot += 1;
            let (line, items) = tenants[t].next_line();
            if items == 0 {
                // Commands other than push_batch run alone, so their
                // latency is their own and not the batches queued ahead.
                mux.alone(tenants[t].kind.conn, line, t)?;
            } else {
                mux.send(tenants[t].kind.conn, line, t, items)?;
            }
        }
        mux.collect()?;
    }
    mux.drain()?;
    for (i, t) in tenants.iter_mut().enumerate() {
        for line in t.then(&["observe", "stats"]) {
            mux.alone(t.kind.conn, line, i)?;
        }
    }

    // Check every response; colorings against the tenant's graph prefix.
    for (ex, t, items) in mux.done.iter().flatten() {
        let obj = match ok_response(&ex.resp) {
            Ok(obj) => obj,
            Err(e) => {
                report.problem(e);
                continue;
            }
        };
        match crate::socket::command_of(&ex.req) {
            "push_batch" => {
                report.push.push((ex.sent, ex.latency_ms()));
                report.ack(ex.sent, ex.recv, *items);
            }
            cmd @ ("observe" | "finish") => {
                if cmd == "observe" {
                    report.observe.push((ex.sent, ex.latency_ms()));
                }
                let prefix = uint(&obj, if cmd == "observe" { "prefix" } else { "edges" }) as usize;
                let text = obj.get("coloring").and_then(Scalar::as_str).unwrap_or("");
                let tenant = &tenants[*t];
                match parse_coloring(text, N) {
                    Ok(c) => {
                        report.colorings += 1;
                        let g = Graph::from_edges(
                            N,
                            tenant.edges[..prefix.min(tenant.edges.len())].iter().copied(),
                        );
                        if prefix > tenant.edges.len() || !c.is_proper_total(&g) {
                            report.improper += 1;
                        }
                    }
                    Err(e) => report.problem(format!("observe coloring: {e}")),
                }
                report.max_colors = report.max_colors.max(uint(&obj, "colors"));
                report.peak_space_bits = report.peak_space_bits.max(uint(&obj, "space_bits"));
            }
            "stats" => {
                report.peak_space_bits = report.peak_space_bits.max(uint(&obj, "space_bits"));
            }
            _ => {}
        }
    }
    let mut conns = ready.opens;
    for (c, done) in mux.done.into_iter().enumerate() {
        conns[c].extend(done.into_iter().map(|(ex, _, _)| ex));
    }
    let outcome = SocketOutcome {
        conns,
        bytes_out: bytes_out + mux.bytes_out,
        bytes_in: bytes_in + mux.bytes_in,
        generator_lag_ms: 0.0,
        next_edge: (Duration::ZERO, 0),
    };
    drop(mux.streams);
    crate::socket::conclude(&mut report, opts, ready.server, outcome)?;
    Ok(report)
}

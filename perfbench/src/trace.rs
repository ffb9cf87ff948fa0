//! The traced run: in-process replays of a workload's recorded request
//! lines, with a span around every call into each crate.
//!
//! Nothing inside the program changes. The service pass times
//! `Service::respond_as` on each line; the deep pass re-does the same
//! work one layer down — `flatjson` parse, the wire token codecs, an
//! owned `sc_stream::Session`, and the colorer behind it, which is
//! wrapped in [`Timed`] so every `process_batch` / `query_incremental`
//! call gets its own span — and finally `flatjson` encode of the
//! response. A layer's self time is its span total minus the spans of
//! the layers below it on identical inputs.

use crate::report::Layer;
use crate::socket::{ms, Exchange};
use sc_engine::flatjson::{encode_object, parse_object, Scalar};
use sc_engine::{wire, ColorerSpec};
use sc_graph::{Coloring, Edge};
use sc_service::Service;
use sc_stream::{BoxedColorer, CacheStats, EngineConfig, Session, SignedEdge, StreamingColorer};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streamcolor::SparseRecovery;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, `crate-layer.function`.
    pub name: &'static str,
    /// The request (replayed line) it served.
    pub req: u64,
    /// Start, ns after the tracer was created.
    pub start_ns: u64,
    /// End, ns after the tracer was created.
    pub end_ns: u64,
    /// Items the call handled (edges, tokens), 0 when not applicable.
    pub items: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct TracerInner {
    epoch: Instant,
    req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An in-memory span recorder, written out when the run ends.
#[derive(Clone)]
pub struct Tracer(Arc<TracerInner>);

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self(Arc::new(TracerInner {
            epoch: Instant::now(),
            req: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }))
    }

    /// Sets the request id later spans are tagged with.
    pub fn set_req(&self, req: u64) {
        // A statistic tag only; it publishes no other data.
        self.0.req.store(req, Ordering::Relaxed);
    }

    /// Records a span that ran from `start` until now.
    pub fn record(&self, name: &'static str, start: Instant, items: u64) {
        let end = Instant::now();
        let ns = |t: Instant| (t - self.0.epoch).as_nanos() as u64;
        let span = Span {
            name,
            req: self.0.req.load(Ordering::Relaxed),
            start_ns: ns(start),
            end_ns: ns(end),
            items,
        };
        self.0.spans.lock().expect("no panic holds the span lock").push(span);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, items);
        out
    }

    /// Total ms, span count and items of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, u64, u64) {
        let spans = self.0.spans.lock().expect("no panic holds the span lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0, 0), |(t, c, i), s| (t + s.ms(), c + 1, i + s.items))
    }

    /// Span durations (ms) named `name`, keyed by request id.
    pub fn by_req(&self, name: &str) -> BTreeMap<u64, f64> {
        let spans = self.0.spans.lock().expect("no panic holds the span lock");
        let mut out = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            *out.entry(s.req).or_insert(0.0) += s.ms();
        }
        out
    }

    /// The share of `replay` (the traced replays' wall time) spent
    /// recording spans, in percent: the span count times a per-span cost
    /// measured here on a scratch recorder.
    pub fn overhead_pct(&self, replay: Duration) -> f64 {
        const PROBES: u64 = 20_000;
        let scratch = Tracer::new();
        let start = Instant::now();
        for _ in 0..PROBES {
            scratch.record("bench.probe", Instant::now(), 0);
        }
        let per_span = start.elapsed().as_secs_f64() / PROBES as f64;
        let spans = self.0.spans.lock().expect("no panic holds the span lock").len() as f64;
        100.0 * spans * per_span / replay.as_secs_f64().max(1e-9)
    }

    /// Writes every span as tab-separated `name req start_ns end_ns items`.
    pub fn write_tsv(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let spans = self.0.spans.lock().expect("no panic holds the span lock");
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        let mut write = || -> std::io::Result<()> {
            writeln!(out, "name\treq\tstart_ns\tend_ns\titems")?;
            for s in spans.iter() {
                writeln!(out, "{}\t{}\t{}\t{}\t{}", s.name, s.req, s.start_ns, s.end_ns, s.items)?;
            }
            out.flush()
        };
        write().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Span names of one colorer family.
pub struct CoreNames {
    /// Layer key, as in `core.<key>.ingest_ms`.
    pub key: &'static str,
    build: &'static str,
    ingest: &'static str,
    query: &'static str,
}

macro_rules! core_names {
    ($key:literal) => {
        CoreNames {
            key: $key,
            build: concat!("core.", $key, ".build"),
            ingest: concat!("core.", $key, ".process_batch"),
            query: concat!("core.", $key, ".query_incremental"),
        }
    };
}

/// The colorer families the workloads open.
pub const CORES: [CoreNames; 4] =
    [core_names!("alg2"), core_names!("alg3"), core_names!("store_all"), core_names!("dynamic_sr")];

fn core_of(spec: &ColorerSpec) -> Result<&'static CoreNames, String> {
    let i = match spec {
        ColorerSpec::Robust { .. } => 0,
        ColorerSpec::RandEfficient => 1,
        ColorerSpec::StoreAll => 2,
        ColorerSpec::DynamicSr { .. } => 3,
        other => return Err(format!("no layer names for colorer {}", other.label())),
    };
    Ok(&CORES[i])
}

/// A colorer wrapper that puts a span around every ingest and query
/// call and forwards everything else unchanged.
pub struct Timed {
    inner: BoxedColorer,
    names: &'static CoreNames,
    tracer: Tracer,
}

impl StreamingColorer for Timed {
    fn process(&mut self, e: Edge) {
        let start = Instant::now();
        self.inner.process(e);
        self.tracer.record(self.names.ingest, start, 1);
    }
    fn process_batch(&mut self, edges: &[Edge]) {
        let start = Instant::now();
        self.inner.process_batch(edges);
        self.tracer.record(self.names.ingest, start, edges.len() as u64);
    }
    fn supports_deletions(&self) -> bool {
        self.inner.supports_deletions()
    }
    fn process_signed(&mut self, t: SignedEdge) -> Result<(), String> {
        let start = Instant::now();
        let out = self.inner.process_signed(t);
        self.tracer.record(self.names.ingest, start, 1);
        out
    }
    fn process_signed_batch(&mut self, tokens: &[SignedEdge]) -> Result<(), String> {
        let start = Instant::now();
        let out = self.inner.process_signed_batch(tokens);
        self.tracer.record(self.names.ingest, start, tokens.len() as u64);
        out
    }
    fn query(&mut self) -> Coloring {
        let start = Instant::now();
        let out = self.inner.query();
        self.tracer.record(self.names.query, start, 0);
        out
    }
    fn query_incremental(&mut self) -> Coloring {
        let start = Instant::now();
        let out = self.inner.query_incremental();
        self.tracer.record(self.names.query, start, 0);
        out
    }
    fn query_cache_stats(&self) -> Option<CacheStats> {
        self.inner.query_cache_stats()
    }
    fn peak_space_bits(&self) -> u64 {
        self.inner.peak_space_bits()
    }
    fn encode_state(&self) -> Result<String, String> {
        self.inner.encode_state()
    }
    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.decode_state(state)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A replayed tenant of the deep pass.
struct DeepTenant {
    n: usize,
    core: &'static CoreNames,
    session: Session,
    /// A sparse-recovery sketch fed the same tokens as a dynamic
    /// colorer's own, so its decode can be timed apart from repair.
    sketch: Option<SparseRecovery>,
}

/// What the socket run measured that the layer split needs.
pub struct SocketRun<'a> {
    /// Every exchange, per connection, in send order.
    pub conns: &'a [Vec<Exchange>],
    /// Server CPU time over the whole socket run.
    pub server_cpu: Duration,
    /// Wall time from the first send to the last response.
    pub wall: Duration,
    /// Bytes the load generator sent and received.
    pub bytes_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Median generator lag (send − due) in ms; 0 for closed loops.
    pub generator_lag_ms: f64,
    /// Load-generator `Adversary::next_edge` time and calls.
    pub next_edge: (Duration, u64),
}

/// Replays a socket run in process and splits its time by layer.
/// Mismatching responses are returned as errors.
pub fn socket_layers(run: &SocketRun, tracer: &Tracer) -> Result<Vec<Layer>, String> {
    let replay_start = Instant::now();
    // Pass 1: the service, one line at a time, owner-scoped per
    // connection exactly as the reactor scopes it.
    let mut service = Service::new();
    let mut req = 0u64;
    let mut errors = 0u64;
    for (c, exchanges) in run.conns.iter().enumerate() {
        for ex in exchanges {
            req += 1;
            tracer.set_req(req);
            let resp =
                tracer.time("service.respond_as", 0, || service.respond_as(c as u64 + 1, &ex.req));
            if resp.as_deref() != Some(ex.resp.as_str()) {
                return Err(format!(
                    "in-process respond_as diverged from the socket on {:.120}",
                    ex.req
                ));
            }
            if !ex.resp.starts_with("{\"") || ex.resp.contains("\"ok\":false") {
                errors += 1;
            }
        }
    }
    drop(service);

    // Pass 2: one layer down, on the same lines in the same order.
    let mut tenants: BTreeMap<String, DeepTenant> = BTreeMap::new();
    let mut cache: BTreeMap<&'static str, CacheStats> = BTreeMap::new();
    let mut chunks = 0u64;
    let mut req = 0u64;
    let keep = |cache: &mut BTreeMap<&'static str, CacheStats>, t: &DeepTenant| {
        if let Some(s) = t.session.query_cache_stats() {
            let e = cache.entry(t.core.key).or_default();
            e.hits += s.hits;
            e.patches += s.patches;
            e.misses += s.misses;
            e.invalidations += s.invalidations;
            e.patched_vertices += s.patched_vertices;
        }
    };
    for exchanges in run.conns {
        for ex in exchanges {
            req += 1;
            tracer.set_req(req);
            let obj = tracer.time("engine.flatjson.parse_object", ex.req.len() as u64, || {
                parse_object(&ex.req)
            })?;
            let name = wire::str_field(&obj, "session")?.to_string();
            match wire::str_field(&obj, "cmd")? {
                "open" => {
                    let n = wire::usize_field(&obj, "n")?;
                    let delta = wire::usize_field(&obj, "delta")?;
                    let seed = obj.get("seed").and_then(Scalar::as_u64).unwrap_or(7);
                    let spec = wire::colorer_from_wire(&obj)?;
                    let core = core_of(&spec)?;
                    let colorer =
                        tracer.time(core.build, 0, || spec.build(n, delta, seed, None))?;
                    let sketch =
                        matches!(spec, ColorerSpec::DynamicSr { sparsity: None }).then(|| {
                            let budget = (n * delta).div_ceil(2).max(1);
                            SparseRecovery::new(((n * n) as u64).max(1), budget, seed)
                        });
                    let timed = Timed { inner: colorer, names: core, tracer: tracer.clone() };
                    let session = Session::new(Box::new(timed), EngineConfig::default());
                    tenants.insert(name, DeepTenant { n, core, session, sketch });
                }
                cmd @ ("push" | "push_batch") => {
                    let t = tenants.get_mut(&name).ok_or("push before open")?;
                    let tokens = if cmd == "push" {
                        let edges = tracer.time("engine.wire.decode_edges", 1, || {
                            wire::decode_edges(wire::str_field(&obj, "edge")?, Some(t.n))
                        })?;
                        edges.into_iter().map(SignedEdge::insert).collect::<Vec<_>>()
                    } else {
                        let text = wire::str_field(&obj, "edges")?;
                        let start = Instant::now();
                        let tokens = sc_stream::decode_signed_list(text, t.n)?;
                        tracer.record("engine.wire.decode_signed_list", start, tokens.len() as u64);
                        tokens
                    };
                    tracer.time("stream.session.push_signed_slice", tokens.len() as u64, || {
                        t.session.push_signed_slice(&tokens)
                    })?;
                    if let Some(sketch) = &mut t.sketch {
                        for tok in &tokens {
                            let id = tok.edge.u() as u64 * t.n as u64 + tok.edge.v() as u64;
                            sketch.update(id, tok.sign.unit());
                        }
                    }
                }
                "observe" => {
                    let t = tenants.get_mut(&name).ok_or("observe before open")?;
                    tracer.time("stream.session.observe", 0, || t.session.observe());
                    if let Some(sketch) = &t.sketch {
                        tracer.time("core.dynamic_sr.sparse_recovery.decode", 0, || {
                            sketch.decode()
                        })?;
                    }
                }
                "finish" => {
                    let t = tenants.remove(&name).ok_or("finish before open")?;
                    keep(&mut cache, &t);
                    chunks += t.session.chunks() as u64;
                    tracer.time("stream.session.finish", 0, || t.session.finish());
                }
                _ => {}
            }
            let resp = parse_object(&ex.resp)?;
            let encoded =
                tracer.time("engine.flatjson.encode_object", ex.resp.len() as u64, || {
                    encode_object(&resp)
                });
            if encoded != ex.resp {
                return Err(format!("response is not canonical flat JSON: {:.120}", ex.resp));
            }
        }
    }
    for t in tenants.values() {
        keep(&mut cache, t);
        chunks += t.session.chunks() as u64;
    }

    let t = |name: &str| tracer.total(name);
    let mut layers = Layers::zero();
    let (service_ms, commands, _) = t("service.respond_as");
    let (parse_ms, parses, _) = t("engine.flatjson.parse_object");
    let (encode_ms, encodes, _) = t("engine.flatjson.encode_object");
    let (dec_a, dec_a_n, tok_a) = t("engine.wire.decode_signed_list");
    let (dec_b, dec_b_n, tok_b) = t("engine.wire.decode_edges");
    let session_names =
        ["stream.session.push_signed_slice", "stream.session.observe", "stream.session.finish"];
    let (session_ms, session_n) =
        session_names.iter().map(|n| t(n)).fold((0.0, 0), |(a, b), (ms, c, _)| (a + ms, b + c));
    let mut core_ms_total = 0.0;
    let mut build_ms_total = 0.0;
    for core in &CORES {
        let (ingest, ingest_n, edges) = t(core.ingest);
        let (build, build_n, _) = t(core.build);
        let (query, query_n, _) = t(core.query);
        core_ms_total += ingest + query;
        build_ms_total += build;
        let k = core.key;
        layers.set(&format!("core.{k}.build_ms"), build, build_n);
        layers.set(&format!("core.{k}.ingest_ms"), ingest, ingest_n);
        if k == "dynamic_sr" {
            let (decode, decode_n, _) = t("core.dynamic_sr.sparse_recovery.decode");
            layers.set("core.dynamic_sr.decode_ms", decode, decode_n);
            layers.set("core.dynamic_sr.repair_ms", query - decode, query_n);
            continue;
        }
        let per_edge = if edges == 0 { 0.0 } else { ingest * 1e6 / edges as f64 };
        layers.set(&format!("core.{k}.ingest_ns_per_edge"), per_edge, edges);
        if k == "alg2" || k == "alg3" {
            layers.set(&format!("core.{k}.query_ms"), query, query_n);
            let s = cache.get(k).copied().unwrap_or_default();
            let queries = s.hits + s.patches + s.misses;
            layers.set(&format!("core.{k}.cache_hits"), s.hits as f64, queries);
            layers.set(&format!("core.{k}.cache_patches"), s.patches as f64, queries);
            layers.set(&format!("core.{k}.cache_misses"), s.misses as f64, queries);
            layers.set(
                &format!("core.{k}.cache_patched_vertices"),
                s.patched_vertices as f64,
                queries,
            );
            let useful =
                if queries == 0 { 0.0 } else { (s.hits + s.patches) as f64 / queries as f64 };
            layers.set(&format!("core.{k}.cache_useful_ratio"), useful, queries);
        }
    }
    let service_ms_below = parse_ms + dec_a + dec_b + session_ms + encode_ms + build_ms_total;
    let server_cpu_ms = ms(run.server_cpu);
    let service_s = tracer.by_req("service.respond_as");
    let mut wait_ms = 0.0;
    for (i, ex) in run.conns.iter().flatten().enumerate() {
        wait_ms += ex.latency_ms() - service_s.get(&(i as u64 + 1)).copied().unwrap_or(0.0);
    }
    let socket_commands: u64 = run.conns.iter().map(|c| c.len() as u64).sum();
    layers.set("cluster.reactor.self_ms", server_cpu_ms - service_ms, socket_commands);
    layers.set("cluster.reactor.wait_ms", wait_ms, socket_commands);
    layers.set("cluster.reactor.bytes_in", run.bytes_out as f64, socket_commands);
    layers.set("cluster.reactor.bytes_out", run.bytes_in as f64, socket_commands);
    layers.set("service.self_ms", service_ms - service_ms_below, commands);
    layers.set("service.commands", commands as f64, commands);
    layers.set("service.errors", errors as f64, commands);
    layers.set("engine.flatjson.parse_ms", parse_ms, parses);
    layers.set("engine.flatjson.encode_ms", encode_ms, encodes);
    layers.set("engine.wire.decode_ms", dec_a + dec_b, dec_a_n + dec_b_n);
    layers.set("engine.wire.tokens", (tok_a + tok_b) as f64, dec_a_n + dec_b_n);
    layers.set("stream.session.self_ms", session_ms - core_ms_total, session_n);
    layers.set("stream.session.chunks", chunks as f64, session_n);
    let (next_edge, calls) = run.next_edge;
    layers.set("adversary.next_edge_ms", ms(next_edge), calls);
    layers.set("bench.generator_lag_ms", run.generator_lag_ms, socket_commands);
    // Every layer's self time telescopes to the server's CPU time, so
    // what is left of the socket run's wall time is time no layer
    // accounts for: the server waiting on the socket or the generator.
    layers.set("bench.unattributed_ms", ms(run.wall) - server_cpu_ms, socket_commands);
    layers.set("bench.trace_overhead_pct", tracer.overhead_pct(replay_start.elapsed()), commands);
    Ok(layers.into_vec())
}

/// Every per-layer metric, in print order, each starting at zero: a
/// workload sets the layers it touches and reports the rest as zero.
pub struct Layers(Vec<Layer>);

impl Layers {
    /// All layers at zero.
    pub fn zero() -> Self {
        let mut names: Vec<(String, &'static str)> = [
            ("cluster.reactor.self_ms", "ms"),
            ("cluster.reactor.wait_ms", "ms"),
            ("cluster.reactor.bytes_in", "bytes"),
            ("cluster.reactor.bytes_out", "bytes"),
            ("service.self_ms", "ms"),
            ("service.commands", "count"),
            ("service.errors", "count"),
            ("engine.flatjson.parse_ms", "ms"),
            ("engine.flatjson.encode_ms", "ms"),
            ("engine.wire.decode_ms", "ms"),
            ("engine.wire.tokens", "count"),
            ("stream.session.self_ms", "ms"),
            ("stream.session.chunks", "count"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u))
        .collect();
        for core in &CORES {
            let k = core.key;
            names.push((format!("core.{k}.build_ms"), "ms"));
            names.push((format!("core.{k}.ingest_ms"), "ms"));
            if k == "dynamic_sr" {
                names.push(("core.dynamic_sr.decode_ms".into(), "ms"));
                names.push(("core.dynamic_sr.repair_ms".into(), "ms"));
                continue;
            }
            names.push((format!("core.{k}.ingest_ns_per_edge"), "ns"));
            if k == "alg2" || k == "alg3" {
                names.push((format!("core.{k}.query_ms"), "ms"));
                for c in ["cache_hits", "cache_patches", "cache_misses", "cache_patched_vertices"] {
                    names.push((format!("core.{k}.{c}"), "count"));
                }
                names.push((format!("core.{k}.cache_useful_ratio"), "ratio"));
            }
        }
        for (n, u) in [
            ("engine.runner.run_ms", "ms"),
            ("core.det.passes", "count"),
            ("cluster.pool.self_ms", "ms"),
            ("cluster.pool.retries", "count"),
            ("cluster.pool.speculative", "count"),
            ("cluster.pool.wasted", "count"),
            ("cluster.pool.useful_ratio", "ratio"),
            ("adversary.next_edge_ms", "ms"),
            ("bench.generator_lag_ms", "ms"),
            ("bench.unattributed_ms", "ms"),
            ("bench.trace_overhead_pct", "%"),
        ] {
            names.push((n.to_string(), u));
        }
        Self(names.into_iter().map(|(n, u)| Layer::new(n, 0.0, u, 0)).collect())
    }

    /// Sets one layer's value and sample count.
    ///
    /// # Panics
    /// On a name [`Layers::zero`] does not list (a bug in this program).
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let layer = self
            .0
            .iter_mut()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("unknown layer {name}"));
        layer.value = value;
        layer.samples = samples;
    }

    /// The filled-in list.
    pub fn into_vec(self) -> Vec<Layer> {
        self.0
    }
}

/// The reference replay every workload's correctness check runs: the
/// connections' request lines, one connection after another, through
/// `Service::run_script` on two threads. Names the first line whose
/// response differs from the socket's.
pub fn reference_replay(conns: &[Vec<Exchange>]) -> Result<(), String> {
    let mut script = String::new();
    let mut expected = String::new();
    for ex in conns.iter().flatten() {
        script.push_str(&ex.req);
        script.push('\n');
        expected.push_str(&ex.resp);
        expected.push('\n');
    }
    let got = Service::with_threads(2).run_script(&script);
    if got != expected {
        let (i, (a, b)) = got
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((0, ("<length differs>", "")));
        return Err(format!("transcript line {i}: in-process {a:.160} vs socket {b:.160}"));
    }
    Ok(())
}

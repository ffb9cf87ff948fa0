//! `game`: the paper's adaptive model over the socket.
//!
//! Closed loop, two connections, one request in flight on each. Each
//! connection plays `sc_adversary::MonochromaticAttacker` against one
//! robust colorer: every round pushes the attacker's edge, observes the
//! full n-entry coloring, checks it against the graph so far, and feeds
//! it to the attacker's next move. A tenant whose attacker runs out of
//! edges is finished and a fresh one opened. The query path and the
//! per-round socket and dispatch overhead do the work; bulk ingest does
//! none.

use crate::report::Report;
use crate::socket::{ok_response, ready_server, uint, Exchange, LineConn, SocketOutcome};
use crate::Opts;
use sc_adversary::{Adversary, MonochromaticAttacker};
use sc_engine::flatjson::Scalar;
use sc_graph::{Coloring, Graph};
use sc_service::service::parse_coloring;
use std::time::{Duration, Instant};

/// Vertices per tenant.
const N: usize = 2500;
/// Degree bound.
const DELTA: usize = 32;
/// The colorer each connection plays against.
const VICTIMS: [&str; 2] = ["robust", "rand-efficient"];
/// Rounds each tenant plays before it is retired, so the colors and
/// space a tenant reaches do not depend on how fast the run went.
const ROUNDS_PER_TENANT: usize = 1000;
/// Server spawns measured for `setup_s`.
const SETUP_REPS: usize = 5;

fn open_line(victim: &str, gen: u64, seed: u64) -> String {
    format!(
        r#"{{"cmd":"open","session":"{victim}-{gen}","n":{N},"delta":{DELTA},"colorer":"{victim}","seed":{seed}}}"#
    )
}

fn colorer_seed(seed: u64, conn: usize, gen: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(conn as u64 * 10_007 + gen)
}

/// One connection's share of the run.
#[derive(Default)]
struct Played {
    exchanges: Vec<Exchange>,
    /// When each round's push was sent and its coloring arrived.
    rounds: Vec<(Instant, Instant)>,
    push: Vec<(Instant, f64)>,
    observe: Vec<(Instant, f64)>,
    colorings: u64,
    improper: u64,
    max_colors: u64,
    peak_space_bits: u64,
    next_edge: Duration,
    next_edge_calls: u64,
    problems: Vec<String>,
}

impl Played {
    /// Sends `req`, records the exchange, returns the parsed response.
    fn call(
        &mut self,
        conn: &mut LineConn,
        req: String,
    ) -> Result<sc_engine::flatjson::FlatObject, String> {
        let ex = conn.call(req)?;
        let obj = ok_response(&ex.resp);
        self.exchanges.push(ex);
        obj
    }

    /// Observes, checks the coloring against `graph`, returns it.
    fn observe(
        &mut self,
        conn: &mut LineConn,
        name: &str,
        graph: &Graph,
    ) -> Result<Coloring, String> {
        let obj = self.call(conn, format!(r#"{{"cmd":"observe","session":"{name}"}}"#))?;
        let ex = self.exchanges.last().expect("just recorded");
        self.observe.push((ex.sent, ex.latency_ms()));
        let text =
            obj.get("coloring").and_then(Scalar::as_str).ok_or("observe without coloring")?;
        let coloring = parse_coloring(text, N)?;
        self.colorings += 1;
        if !coloring.is_proper_total(graph) {
            self.improper += 1;
        }
        self.max_colors = self.max_colors.max(uint(&obj, "colors"));
        self.peak_space_bits = self.peak_space_bits.max(uint(&obj, "space_bits"));
        Ok(coloring)
    }
}

fn play(conn: &mut LineConn, idx: usize, seed: u64, deadline: Instant) -> Played {
    let mut p = Played::default();
    if let Err(e) = play_rounds(conn, idx, seed, deadline, &mut p) {
        p.problems.push(e);
    }
    p
}

fn play_rounds(
    conn: &mut LineConn,
    idx: usize,
    seed: u64,
    deadline: Instant,
    p: &mut Played,
) -> Result<(), String> {
    let victim = VICTIMS[idx];
    let mut gen = 0u64;
    loop {
        let name = format!("{victim}-{gen}");
        let mut graph = Graph::empty(N);
        let mut attacker =
            MonochromaticAttacker::new(N, DELTA, colorer_seed(seed, idx, gen) ^ 0xA77AC);
        let mut coloring = p.observe(conn, &name, &graph)?;
        let mut played = 0;
        while played < ROUNDS_PER_TENANT && Instant::now() < deadline {
            let t = Instant::now();
            let next = attacker.next_edge(&coloring, &graph);
            p.next_edge += t.elapsed();
            p.next_edge_calls += 1;
            let Some(e) = next else { break };
            let (u, v) = (e.u(), e.v());
            p.call(conn, format!(r#"{{"cmd":"push","session":"{name}","edge":"{u}-{v}"}}"#))?;
            let ex = p.exchanges.last().expect("just recorded");
            p.push.push((ex.sent, ex.latency_ms()));
            graph.add_edge(e);
            coloring = p.observe(conn, &name, &graph)?;
            let sent = p.push.last().expect("just recorded").0;
            p.rounds.push((sent, p.exchanges.last().expect("just recorded").recv));
            played += 1;
        }
        let stats = p.call(conn, format!(r#"{{"cmd":"stats","session":"{name}"}}"#))?;
        p.peak_space_bits = p.peak_space_bits.max(uint(&stats, "space_bits"));
        if Instant::now() >= deadline {
            return Ok(());
        }
        // The tenant has played its rounds (or the attacker ran out of
        // edges): retire it and open the next.
        p.call(conn, format!(r#"{{"cmd":"finish","session":"{name}"}}"#))?;
        gen += 1;
        p.call(conn, open_line(victim, gen, colorer_seed(seed, idx, gen)))?;
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report {
        workload: "game",
        shape: format!(
            "closed loop, 2 connections, 1 request in flight each; MonochromaticAttacker vs \
             robust and rand-efficient, n={N} delta={DELTA}"
        ),
        passes: 1,
        ..Report::default()
    };
    let opens: Vec<Vec<String>> = (0..VICTIMS.len())
        .map(|i| vec![open_line(VICTIMS[i], 0, colorer_seed(opts.seed, i, 0))])
        .collect();
    let ready = ready_server(&opts.server, &opens, SETUP_REPS)?;
    report.setup_s = ready.setup_s;
    let mut conns = ready.conns;
    let start = Instant::now();
    let deadline = start + opts.window;
    report.timed(start, opts.window);
    let played: Vec<Played> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| s.spawn(move || play(conn, i, opts.seed, deadline)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("game thread panicked")).collect()
    });
    let mut outcome = SocketOutcome {
        conns: Vec::new(),
        bytes_out: conns.iter().map(|c| c.bytes_out).sum(),
        bytes_in: conns.iter().map(|c| c.bytes_in).sum(),
        generator_lag_ms: 0.0,
        next_edge: (Duration::ZERO, 0),
    };
    for (mut opens, p) in ready.opens.into_iter().zip(played) {
        for &(sent, acked) in &p.rounds {
            report.ack(sent, acked, 1);
        }
        report.push.extend(&p.push);
        report.observe.extend(&p.observe);
        report.colorings += p.colorings;
        report.improper += p.improper;
        report.max_colors = report.max_colors.max(p.max_colors);
        report.peak_space_bits = report.peak_space_bits.max(p.peak_space_bits);
        outcome.next_edge.0 += p.next_edge;
        outcome.next_edge.1 += p.next_edge_calls;
        for problem in p.problems {
            report.problem(problem);
        }
        opens.extend(p.exchanges);
        outcome.conns.push(opens);
    }
    drop(conns);
    crate::socket::conclude(&mut report, opts, ready.server, outcome)?;
    Ok(report)
}

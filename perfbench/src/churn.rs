//! `churn`: turnstile streams into the sparse-recovery colorer, open loop.
//!
//! One connection, one sender thread and one receiver thread, and
//! [`TENANTS`] `dynamic-sr` tenants, each fed its own `SourceSpec::churn`
//! signed-token stream in `push_batch` lines of [`BATCH`] tokens with an
//! `observe` before every [`OBSERVE_EVERY`] tokens. The schedule is fixed
//! in advance: every [`PERIOD`] one tenant, in turn, gets a burst of
//! [`BURST_TOKENS`] tokens offered at [`RATE`] tokens/s — an `observe`,
//! then 16 batches arriving while it decodes. Every command is timed from
//! when it was due, so a decode stall shows up as waiting time on the
//! commands queued behind it.
//!
//! Before the window, untimed, each tenant is preloaded with its base
//! graph and churn deletions; the window then offers the streams'
//! delete/re-insert oscillations, so the live sets stay full and every
//! decode costs what it costs at steady state. Every `observe` follows
//! tokens its tenant has not been observed on, so each one decodes. The burst rate is kept
//! above what the unoptimised sparse-recovery decode sustains (each
//! `observe` decodes the whole sketch, 100–300 ms at n = 2000, ∆ = 16),
//! so every burst leaves a backlog that the pause before the next one
//! drains. Offered at that rate without pauses, the backlog would grow
//! for the whole window, and the reactor — which answers the lines it
//! has read only after processing all of them — makes latency past
//! saturation depend on burst phase, not on the code; repeating one
//! overload per period keeps it measurable. Rotating over several
//! tenants averages out how much one seed's graph costs to decode.

use crate::report::{median, Report};
use crate::socket::{ms, ok_response, ready_server, uint, Exchange, SocketOutcome};
use crate::Opts;
use sc_engine::flatjson::Scalar;
use sc_engine::SourceSpec;
use sc_graph::Graph;
use sc_service::service::parse_coloring;
use sc_stream::{encode_signed_list, SignedEdge};
use std::io::Write;
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Vertices.
const N: usize = 2000;
/// Degree bound of the churned base graphs.
const DELTA: usize = 16;
/// Tenants, served one burst each in turn.
const TENANTS: usize = 5;
/// Tokens per `push_batch` of the untimed preload.
const PRELOAD_BATCH: usize = 4096;
/// Tokens per `push_batch`.
const BATCH: usize = 64;
/// Tokens between `observe`s: one per burst, at its start.
const OBSERVE_EVERY: usize = 1024;
/// Offered token rate inside a burst, tokens/s: 8 `observe`s a second,
/// about twice what the unoptimised decode sustains.
const RATE: f64 = 8192.0;
/// Tokens per burst; one burst starts every [`PERIOD`].
const BURST_TOKENS: usize = 1024;
/// Burst period.
const PERIOD: Duration = Duration::from_secs(1);
/// Server spawns measured for `setup_s`.
const SETUP_REPS: usize = 5;

/// When the `k`-th token of the run is due.
fn due_of(k: usize) -> Duration {
    let burst = (k / BURST_TOKENS) as u32;
    PERIOD * burst + Duration::from_secs_f64((k % BURST_TOKENS) as f64 / RATE)
}

/// One tenant: its token stream and how far the window has fed it.
struct Tenant {
    name: String,
    open: String,
    tokens: Vec<SignedEdge>,
    /// Where the oscillation tail (the timed part) starts.
    base: usize,
    pos: usize,
}

/// One scheduled command: its line, due offset, tenant, and the token
/// range it carries (for the post-run check).
struct Planned {
    req: String,
    due: Duration,
    tenant: usize,
    tokens: Range<usize>,
}

/// The fixed command schedule, generated lazily until the window closes.
struct Plan<'a> {
    tenants: &'a mut [Tenant],
    /// Tokens offered so far in the window.
    sent: usize,
    /// The token count at which the last `observe` was planned.
    observed_at: Option<usize>,
}

impl Plan<'_> {
    fn next(&mut self) -> Planned {
        let i = (self.sent / BURST_TOKENS) % TENANTS;
        let due = due_of(self.sent);
        let t = &mut self.tenants[i];
        if self.sent.is_multiple_of(OBSERVE_EVERY) && self.observed_at != Some(self.sent) {
            self.observed_at = Some(self.sent);
            let req = format!(r#"{{"cmd":"observe","session":"{}"}}"#, t.name);
            return Planned { req, due, tenant: i, tokens: t.pos..t.pos };
        }
        let end = t.pos + BATCH;
        let text = encode_signed_list(&t.tokens[t.pos..end]);
        let req = format!(r#"{{"cmd":"push_batch","session":"{}","edges":"{text}"}}"#, t.name);
        let planned = Planned { req, due, tenant: i, tokens: t.pos..end };
        t.pos = end;
        self.sent += BATCH;
        planned
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    // Each tenant's tail covers its share of the window's bursts.
    let bursts = (opts.window.as_secs_f64() / PERIOD.as_secs_f64()).ceil() as usize + 1;
    let oscillations = (bursts.div_ceil(TENANTS) * BURST_TOKENS).div_ceil(2);
    let mut tenants: Vec<Tenant> = (0..TENANTS)
        .map(|i| {
            let seed = opts.seed.wrapping_mul(31).wrapping_add(i as u64);
            let tokens = SourceSpec::churn(N, DELTA, seed, oscillations).signed_tokens();
            let base = tokens.len() - 2 * oscillations;
            Tenant {
                name: format!("churn-{i}"),
                open: format!(
                    r#"{{"cmd":"open","session":"churn-{i}","n":{N},"delta":{DELTA},"colorer":"dynamic-sr","seed":{seed}}}"#
                ),
                tokens,
                base,
                pos: base,
            }
        })
        .collect();
    let mut report = Report {
        workload: "churn",
        shape: format!(
            "open loop, 1 connection; every {PERIOD:?} one of {TENANTS} dynamic-sr tenants \
             (n={N} delta={DELTA}, {} preloaded tokens each, untimed) gets a burst of \
             an observe and {BURST_TOKENS} tokens at {RATE} tokens/s in batches of {BATCH}",
            tenants[0].base
        ),
        passes: 1,
        ..Report::default()
    };
    let opens = vec![tenants.iter().map(|t| t.open.clone()).collect()];
    let ready = ready_server(&opts.server, &opens, SETUP_REPS)?;
    report.setup_s = ready.setup_s.clone();
    let mut conn = ready.conns.into_iter().next().expect("one connection");
    let mut done: Vec<(Exchange, usize, Range<usize>)> = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        for start in (0..t.base).step_by(PRELOAD_BATCH) {
            let range = start..(start + PRELOAD_BATCH).min(t.base);
            let text = encode_signed_list(&t.tokens[range.clone()]);
            let req = format!(r#"{{"cmd":"push_batch","session":"{}","edges":"{text}"}}"#, t.name);
            done.push((conn.call(req)?, i, range));
        }
    }
    let preloaded = done.len();

    let mut writer = conn.writer_clone()?;
    let mut plan = Plan { tenants: &mut tenants, sent: 0, observed_at: None };
    let start = Instant::now();
    let deadline = start + opts.window;
    report.timed(start, opts.window);
    let (tx, rx) = mpsc::channel::<(Planned, Instant)>();
    let mut bytes_out = conn.bytes_out;
    let received: Result<(), String> = std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<u64, String> {
            let mut bytes = 0u64;
            loop {
                let p = plan.next();
                let due = start + p.due;
                if due >= deadline {
                    return Ok(bytes);
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let mut buf = p.req.clone().into_bytes();
                buf.push(b'\n');
                let sent = Instant::now();
                writer.write_all(&buf).map_err(|e| format!("send: {e}"))?;
                bytes += buf.len() as u64;
                if tx.send((p, sent)).is_err() {
                    return Ok(bytes);
                }
            }
        });
        for (p, sent) in rx {
            let resp = conn.recv()?;
            let ex = Exchange { req: p.req, resp, due: start + p.due, sent, recv: Instant::now() };
            done.push((ex, p.tenant, p.tokens));
        }
        bytes_out += sender.join().expect("sender thread panicked")?;
        Ok(())
    });
    received?;
    let lag: Vec<f64> = done[preloaded..].iter().map(|(ex, _, _)| ms(ex.sent - ex.due)).collect();
    for (i, t) in tenants.iter().enumerate() {
        for cmd in ["observe", "stats"] {
            let line = format!(r#"{{"cmd":"{cmd}","session":"{}"}}"#, t.name);
            done.push((conn.call(line)?, i, t.pos..t.pos));
        }
    }

    // Check every response; colorings against the tenant's live graph
    // so far. Only commands after the preload are timed.
    let mut live: Vec<Graph> = (0..TENANTS).map(|_| Graph::empty(N)).collect();
    for (i, (ex, t, range)) in done.iter().enumerate() {
        let timed = i >= preloaded;
        let obj = match ok_response(&ex.resp) {
            Ok(obj) => obj,
            Err(e) => {
                report.problem(e);
                continue;
            }
        };
        match crate::socket::command_of(&ex.req) {
            "push_batch" => {
                if timed {
                    report.push.push((ex.sent, ex.latency_ms()));
                    report.ack(ex.sent, ex.recv, range.len() as u64);
                }
                for tok in &tenants[*t].tokens[range.clone()] {
                    if tok.is_insert() {
                        live[*t].add_edge(tok.edge);
                    } else {
                        live[*t].remove_edge(tok.edge);
                    }
                }
            }
            "observe" => {
                if timed {
                    report.observe.push((ex.sent, ex.latency_ms()));
                }
                let text = obj.get("coloring").and_then(Scalar::as_str).unwrap_or("");
                match parse_coloring(text, N) {
                    Ok(c) => {
                        report.colorings += 1;
                        if !c.is_proper_total(&live[*t]) {
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
    conns[0].extend(done.into_iter().map(|(ex, _, _)| ex));
    let outcome = SocketOutcome {
        conns,
        bytes_out,
        bytes_in: conn.bytes_in,
        generator_lag_ms: median(&lag).unwrap_or(0.0),
        next_edge: (Duration::ZERO, 0),
    };
    drop(conn);
    crate::socket::conclude(&mut report, opts, ready.server, outcome)?;
    Ok(report)
}

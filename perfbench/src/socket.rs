//! The load generator's side of the wire: line connections, the record
//! of every exchange, and the timed set-up of a fresh server.

use crate::server::Server;
use sc_engine::flatjson::{parse_object, FlatObject, Scalar};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// One command and its response, with the instants that time it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request line (no newline).
    pub req: String,
    /// The response line (no newline).
    pub resp: String,
    /// When the command was due: its send time in a closed loop, its
    /// scheduled time in an open loop.
    pub due: Instant,
    /// When it was written to the socket.
    pub sent: Instant,
    /// When its response was read.
    pub recv: Instant,
}

impl Exchange {
    /// Latency from due time to response, in ms.
    pub fn latency_ms(&self) -> f64 {
        ms(self.recv - self.due)
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `cmd` of a request line the load generator wrote (always the
/// first field, `{"cmd":"…"`).
pub fn command_of(req: &str) -> &str {
    req.strip_prefix("{\"cmd\":\"").and_then(|r| r.split('"').next()).unwrap_or("")
}

/// Parses a response, or explains why it is not a successful one.
pub fn ok_response(resp: &str) -> Result<FlatObject, String> {
    let obj = parse_object(resp).map_err(|e| format!("unparsable response {resp:.120}: {e}"))?;
    match obj.get("ok") {
        Some(Scalar::Bool(true)) => Ok(obj),
        _ => Err(format!("error response {resp:.200}")),
    }
}

/// An unsigned field of a response object.
pub fn uint(obj: &FlatObject, key: &str) -> u64 {
    obj.get(key).and_then(Scalar::as_u64).unwrap_or(0)
}

/// A blocking line connection that counts the bytes it moves.
pub struct LineConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Bytes written, newlines included.
    pub bytes_out: u64,
    /// Bytes read, newlines included.
    pub bytes_in: u64,
}

impl LineConn {
    /// Connects with Nagle off (every command is latency-bound).
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { writer: stream, reader, bytes_out: 0, bytes_in: 0 })
    }

    /// Writes one line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).map_err(|e| format!("send: {e}"))?;
        self.bytes_out += buf.len() as u64;
        Ok(())
    }

    /// Reads one line.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        self.bytes_in += n as u64;
        line.pop();
        Ok(line)
    }

    /// One closed-loop exchange.
    pub fn call(&mut self, req: String) -> Result<Exchange, String> {
        let sent = Instant::now();
        self.send(&req)?;
        let resp = self.recv()?;
        Ok(Exchange { req, resp, due: sent, sent, recv: Instant::now() })
    }

    /// A second handle on the socket, for a separate writer thread.
    pub fn writer_clone(&self) -> Result<TcpStream, String> {
        self.writer.try_clone().map_err(|e| e.to_string())
    }

    /// The raw socket, once every response so far has been read.
    pub fn into_stream(self) -> TcpStream {
        assert!(self.reader.buffer().is_empty(), "unread responses would be lost");
        self.writer
    }
}

/// A server made ready for a workload, with the set-up measurements.
pub struct Ready {
    /// The server of the last repetition.
    pub server: Server,
    /// Its connections, opens answered.
    pub conns: Vec<LineConn>,
    /// The last repetition's `open` exchanges, per connection.
    pub opens: Vec<Vec<Exchange>>,
    /// Seconds from spawn to every `open` answered, per repetition.
    pub setup_s: Vec<f64>,
}

/// Spawns the server `reps` times; each time connects `opens.len()`
/// connections, pipelines each connection's `open` lines and waits for
/// every answer. All but the last server are torn down.
pub fn ready_server(bin: &Path, opens: &[Vec<String>], reps: usize) -> Result<Ready, String> {
    let mut setup_s = Vec::new();
    for rep in 0..reps {
        let t0 = Instant::now();
        let server = Server::spawn(bin)?;
        let mut conns =
            opens.iter().map(|_| LineConn::connect(&server.addr)).collect::<Result<Vec<_>, _>>()?;
        let mut sent_at = Vec::new();
        for (conn, lines) in conns.iter_mut().zip(opens) {
            for line in lines {
                sent_at.push(Instant::now());
                conn.send(line)?;
            }
        }
        let mut all = Vec::new();
        let mut at = sent_at.into_iter();
        for (conn, lines) in conns.iter_mut().zip(opens) {
            let mut answered = Vec::new();
            for line in lines {
                let resp = conn.recv()?;
                let sent = at.next().expect("one send instant per open");
                answered.push(Exchange {
                    req: line.clone(),
                    resp,
                    due: sent,
                    sent,
                    recv: Instant::now(),
                });
            }
            all.push(answered);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        for ex in all.iter().flatten() {
            ok_response(&ex.resp).map_err(|e| format!("open failed: {e}"))?;
        }
        if rep + 1 == reps {
            return Ok(Ready { server, conns, opens: all, setup_s });
        }
    }
    Err("ready_server needs at least one repetition".to_string())
}

/// What a socket workload hands over once its loop has ended.
pub struct SocketOutcome {
    /// Every exchange, per connection, in send order (opens first).
    pub conns: Vec<Vec<Exchange>>,
    /// Bytes the load generator sent.
    pub bytes_out: u64,
    /// Bytes it received.
    pub bytes_in: u64,
    /// Median send − due in ms (open loop), 0 for closed loops.
    pub generator_lag_ms: f64,
    /// `Adversary::next_edge` time and calls (game only).
    pub next_edge: (std::time::Duration, u64),
}

/// The checks and measurements every socket workload ends with: peak
/// RSS and CPU time of the server, the byte-equal in-process replay of
/// the transcript, and — in the traced run — the layer split.
pub fn conclude(
    report: &mut crate::report::Report,
    opts: &crate::Opts,
    server: Server,
    out: SocketOutcome,
) -> Result<(), String> {
    report.rss_mib = server.peak_rss_mib()?;
    let server_cpu = server.cpu_time()?;
    drop(server);
    report.attempted = out.conns.iter().map(|c| c.len() as u64).sum();
    let first = out.conns.iter().flatten().map(|e| e.sent).min().ok_or("no exchanges")?;
    let last = out.conns.iter().flatten().map(|e| e.recv).max().ok_or("no exchanges")?;
    if let Err(e) = crate::trace::reference_replay(&out.conns) {
        report.problem(e);
    }
    if opts.trace {
        let tracer = crate::trace::Tracer::new();
        let run = crate::trace::SocketRun {
            conns: &out.conns,
            server_cpu,
            wall: last - first,
            bytes_out: out.bytes_out,
            bytes_in: out.bytes_in,
            generator_lag_ms: out.generator_lag_ms,
            next_edge: out.next_edge,
        };
        match crate::trace::socket_layers(&run, &tracer) {
            Ok(layers) => report.layers = layers,
            Err(e) => report.problem(e),
        }
        let path = opts.trace_dir.join(format!("{}-seed{}.spans.tsv", report.workload, opts.seed));
        tracer.write_tsv(&path)?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok(())
}

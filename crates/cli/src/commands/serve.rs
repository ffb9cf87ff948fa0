//! `streamcolor serve` — host many named coloring sessions behind the
//! flat-JSON line protocol.
//!
//! Reads one command object per line, writes one canonical response
//! object per line (see `sc_service::service` for the protocol):
//!
//! ```text
//! $ streamcolor serve <<'EOF'
//! {"cmd":"open","session":"a","n":100,"delta":8,"colorer":"robust","seed":7}
//! {"cmd":"push_batch","session":"a","edges":"0-1 1-2 2-3"}
//! {"cmd":"observe","session":"a"}
//! {"cmd":"finish","session":"a"}
//! EOF
//! ```
//!
//! With no `--script`, commands stream from stdin and each response is
//! written (and flushed) as soon as its command arrives — an
//! interactive client, like the adversary game, can react to every
//! answer. `--script FILE` executes a whole command file instead,
//! fanning independent sessions out across `--threads N` workers;
//! responses come back in input order and are **byte-identical for
//! every thread count** (CI's `service-smoke` job diffs them against a
//! committed golden file).
//!
//! `--listen ADDR` serves over a TCP socket instead of stdio, in one of
//! two modes:
//!
//! * `--per-conn` (the default): every accepted connection gets its own
//!   fresh `Service` on its own thread (`sc_cluster::TcpServer`) —
//!   tenants on different connections share nothing.
//! * `--reactor`: every connection is multiplexed onto **one** event
//!   loop over one shared `Service` (`sc_cluster::Reactor`) — sessions
//!   stay owner-scoped per connection, so the responses are
//!   byte-identical to `--per-conn` for any client, while thousands of
//!   idle connections cost one thread. `--idle-ms N` evicts connections
//!   silent for N milliseconds; with `--max-sessions N` the cap evicts
//!   the least-recently-used session (an error response on its owner's
//!   next command) instead of rejecting the `open`. `--snapshot-dir DIR`
//!   upgrades that eviction to evict-to-disk: the victim's state is
//!   written as a snapshot file and its owner's next command
//!   transparently restores it, replaying byte-identically instead of
//!   erroring. `--shared-sessions` makes session names host-global (one
//!   shared owner for every connection) and lets sessions outlive their
//!   opening connection — the mode `streamcolor migrate` needs to
//!   address sessions other clients opened.
//!
//! Either endpoint is what `streamcolor shard --transport tcp` dials —
//! any serve process doubles as a remote shard worker via the protocol's
//! `run_job` command. `--max-sessions N` bounds the open sessions per
//! service (per connection under `--per-conn`, host-wide under
//! `--reactor`), turning a rogue client's unbounded `open`s into error
//! responses (or LRU evictions); `--accept N` closes the listener after
//! N connections (demos and tests — default is to accept forever).

use crate::args::{err, Args, CliError};
use sc_cluster::{Reactor, TcpServer};
use sc_service::Service;
use std::io::Write;
use std::time::Duration;

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let threads_given = args.optional("threads").is_some();
    let threads: usize = args.parse_or("threads", 1)?;
    let script = args.optional("script").map(String::from);
    let listen = args.optional("listen").map(String::from);
    let max_sessions: Option<usize> = args.parse_optional("max-sessions")?;
    let accept: Option<usize> = args.parse_optional("accept")?;
    let reactor = args.switch("reactor");
    let per_conn = args.switch("per-conn");
    let idle_ms: Option<u64> = args.parse_optional("idle-ms")?;
    let snapshot_dir = args.optional("snapshot-dir").map(String::from);
    let shared_sessions = args.switch("shared-sessions");
    args.reject_unknown()?;
    if threads == 0 {
        return Err(err("--threads must be at least 1"));
    }
    if script.is_some() && listen.is_some() {
        return Err(err("--script and --listen are mutually exclusive"));
    }
    // Stdin and socket modes answer line-at-a-time (the client may react
    // to every response), so there is nothing to fan out — reject the
    // flag rather than silently ignoring it.
    if threads_given && script.is_none() {
        return Err(err("--threads applies to --script mode only (interactive serving answers \
             one command at a time)"));
    }
    if accept.is_some() && listen.is_none() {
        return Err(err("--accept applies to --listen mode only"));
    }
    if accept == Some(0) {
        return Err(err("--accept must be at least 1"));
    }
    // A zero cap could never host a session — same spirit as --accept 0.
    if max_sessions == Some(0) {
        return Err(err("--max-sessions must be at least 1"));
    }
    if reactor && per_conn {
        return Err(err("--reactor and --per-conn are mutually exclusive"));
    }
    if (reactor || per_conn) && listen.is_none() {
        return Err(err("--reactor/--per-conn apply to --listen mode only"));
    }
    if idle_ms.is_some() && !reactor {
        return Err(err("--idle-ms applies to --reactor mode only"));
    }
    if idle_ms == Some(0) {
        return Err(err("--idle-ms must be at least 1"));
    }
    // Evict-to-disk is a property of the shared-service reactor: under
    // --per-conn each connection's service dies with the connection, so
    // a snapshot dir there would silently never restore anything.
    if snapshot_dir.is_some() && !reactor {
        return Err(err("--snapshot-dir applies to --reactor mode only"));
    }
    // Only the reactor shares one service across connections; per-conn
    // services have nothing to share.
    if shared_sessions && !reactor {
        return Err(err("--shared-sessions applies to --reactor mode only"));
    }

    if let Some(addr) = listen {
        if reactor {
            let mut server =
                Reactor::bind(&addr).map_err(|e| err(format!("cannot listen on {addr}: {e}")))?;
            if let Some(limit) = max_sessions {
                server = server.with_max_sessions(limit);
            }
            if let Some(ms) = idle_ms {
                server = server.with_idle_timeout(Duration::from_millis(ms));
            }
            if let Some(dir) = snapshot_dir {
                server = server.with_snapshot_dir(std::path::PathBuf::from(dir));
            }
            if shared_sessions {
                server = server.with_shared_sessions();
            }
            let local = server.local_addr().map_err(|e| err(e.to_string()))?;
            writeln!(out, "listening on {local}")
                .and_then(|()| out.flush())
                .map_err(|e| err(e.to_string()))?;
            return server.run(accept).map_err(|e| err(e.to_string()));
        }
        let mut server =
            TcpServer::bind(&addr).map_err(|e| err(format!("cannot listen on {addr}: {e}")))?;
        if let Some(limit) = max_sessions {
            server = server.with_max_sessions(limit);
        }
        let local = server.local_addr().map_err(|e| err(e.to_string()))?;
        // Announce the bound address (port 0 resolves here) so scripts
        // can wait for readiness before dialing.
        writeln!(out, "listening on {local}")
            .and_then(|()| out.flush())
            .map_err(|e| err(e.to_string()))?;
        return server.run(accept).map_err(|e| err(e.to_string()));
    }

    let mut service = Service::with_threads(threads);
    if let Some(limit) = max_sessions {
        service = service.with_max_sessions(limit);
    }
    match script {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| err(format!("cannot read script {path:?}: {e}")))?;
            out.write_all(service.run_script(&text).as_bytes()).map_err(|e| err(e.to_string()))?;
        }
        None => {
            let stdin = std::io::stdin();
            service.serve(stdin.lock(), out).map_err(|e| err(e.to_string()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_script_file(script: &str, extra: &str) -> Result<String, CliError> {
        // One file per call: tests run on parallel threads, and a shared
        // path lets one test truncate another's script mid-read.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join("streamcolor-serve-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("script-{}-{call}.commands", std::process::id()));
        std::fs::write(&path, script).unwrap();
        let toks: Vec<String> = format!("serve --script {} {extra}", path.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let args = Args::parse(&toks, &[]).unwrap();
        let mut out = Vec::new();
        let result = run(&args, &mut out);
        let _ = std::fs::remove_file(&path);
        result?;
        Ok(String::from_utf8(out).unwrap())
    }

    const SCRIPT: &str = r#"# two tenants
{"cmd":"open","session":"a","n":12,"delta":3,"colorer":"store-all","seed":1}
{"cmd":"open","session":"b","n":12,"delta":3,"colorer":"trivial","seed":2}
{"cmd":"push_batch","session":"a","edges":"0-1 1-2 2-3"}
{"cmd":"push_batch","session":"b","edges":"0-1 1-2 2-3"}
{"cmd":"observe","session":"a"}
{"cmd":"observe","session":"b"}
{"cmd":"finish","session":"a"}
{"cmd":"finish","session":"b"}
"#;

    #[test]
    fn script_mode_emits_one_response_per_command() {
        let text = run_script_file(SCRIPT, "").unwrap();
        assert_eq!(text.lines().count(), 8, "{text}");
        assert!(text.lines().all(|l| l.contains("\"ok\":true")), "{text}");
    }

    #[test]
    fn script_output_is_thread_count_invariant() {
        let one = run_script_file(SCRIPT, "--threads 1").unwrap();
        let four = run_script_file(SCRIPT, "--threads 4").unwrap();
        assert_eq!(one, four, "thread count leaked into protocol output");
    }

    #[test]
    fn max_sessions_bounds_script_tenants() {
        let text = run_script_file(SCRIPT, "--max-sessions 1").unwrap();
        assert_eq!(text.matches("session limit reached (1 open)").count(), 1, "{text}");
        // Session b's open is the rejected one; its later commands fail
        // with unknown session — all as responses, the run completes.
        assert_eq!(text.lines().count(), 8, "{text}");
    }

    #[test]
    fn flag_grammar_is_validated() {
        assert!(run_script_file(SCRIPT, "--threads 0").is_err());
        assert!(run_script_file(SCRIPT, "--bogus 1").is_err());
        assert!(run_script_file(SCRIPT, "--listen 127.0.0.1:0").is_err(), "script+listen");
        assert!(run_script_file(SCRIPT, "--max-sessions x").is_err());
        let toks: Vec<String> = ["serve", "--script", "/nonexistent/x.commands"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&toks, &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        // --threads is script-mode-only: stdin serving is interactive,
        // so the flag would be a silent no-op — reject it instead.
        let toks: Vec<String> = ["serve", "--threads", "4"].iter().map(|s| s.to_string()).collect();
        let args = Args::parse(&toks, &[]).unwrap();
        let e = run(&args, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("--script mode only"), "{e}");
        // --accept needs --listen; zero connections make no sense.
        for bad in [vec!["serve", "--accept", "2"], vec!["serve", "--listen", "x", "--accept", "0"]]
        {
            let toks: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let args = Args::parse(&toks, &[]).unwrap();
            assert!(run(&args, &mut Vec::new()).is_err(), "{toks:?}");
        }
        // A zero session cap could never host anything — friendly error,
        // exactly like --accept 0.
        let toks: Vec<String> = ["serve", "--listen", "127.0.0.1:0", "--max-sessions", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&toks, &[]).unwrap();
        let e = run(&args, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("--max-sessions must be at least 1"), "{e}");
        // Reactor-flag grammar: the modes are exclusive, listen-only,
        // and --idle-ms belongs to the reactor.
        const SERVE_SWITCHES: &[&str] = &["reactor", "per-conn", "shared-sessions"];
        for (bad, want) in [
            (vec!["serve", "--listen", "127.0.0.1:0", "--reactor", "--per-conn"], "exclusive"),
            (vec!["serve", "--reactor"], "--listen mode only"),
            (vec!["serve", "--listen", "127.0.0.1:0", "--idle-ms", "5"], "--reactor mode only"),
            (vec!["serve", "--listen", "127.0.0.1:0", "--reactor", "--idle-ms", "0"], "at least 1"),
            (
                vec!["serve", "--listen", "127.0.0.1:0", "--snapshot-dir", "/tmp/x"],
                "--reactor mode only",
            ),
            (vec!["serve", "--listen", "127.0.0.1:0", "--shared-sessions"], "--reactor mode only"),
        ] {
            let toks: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let args = Args::parse(&toks, SERVE_SWITCHES).unwrap();
            let e = run(&args, &mut Vec::new()).unwrap_err();
            assert!(e.to_string().contains(want), "{bad:?}: {e}");
        }
        // An unbindable listen address is a friendly error.
        let toks: Vec<String> =
            ["serve", "--listen", "256.0.0.1:1"].iter().map(|s| s.to_string()).collect();
        let args = Args::parse(&toks, &[]).unwrap();
        let e = run(&args, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("cannot listen"), "{e}");
    }

    #[test]
    fn reactor_mode_serves_protocol_lines_over_tcp() {
        use sc_cluster::{Tcp, Transport as _};
        // Same drive as the per-connection test below, but through the
        // event-loop server the --reactor flag selects.
        let mut server = Reactor::bind("127.0.0.1:0").unwrap().with_max_sessions(2);
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run(Some(1)).unwrap());
        let mut t = Tcp::connect(&addr).unwrap();
        t.send(r#"{"cmd":"open","session":"a","n":10,"colorer":"trivial"}"#).unwrap();
        let response = t.recv(std::time::Duration::from_secs(10)).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        t.send(r#"{"cmd":"host_stats","session":"probe"}"#).unwrap();
        let stats = t.recv(std::time::Duration::from_secs(10)).unwrap();
        assert!(stats.contains("\"connections_accepted\":1"), "{stats}");
        drop(t);
        handle.join().unwrap();
    }

    #[test]
    fn listen_mode_serves_protocol_lines_over_tcp() {
        use sc_cluster::{Tcp, Transport as _};
        // Bind on an ephemeral port via the library (the CLI path prints
        // the resolved address; here we drive the same server directly).
        let server = TcpServer::bind("127.0.0.1:0").unwrap().with_max_sessions(2);
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run(Some(1)).unwrap());
        let mut t = Tcp::connect(&addr).unwrap();
        t.send(r#"{"cmd":"open","session":"a","n":10,"colorer":"trivial"}"#).unwrap();
        let response = t.recv(std::time::Duration::from_secs(10)).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        drop(t);
        handle.join().unwrap();
    }
}

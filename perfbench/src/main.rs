//! `perfbench` — the socket-level benchmark of this repository.
//!
//! Spawns the real server (`streamcolor serve --listen 127.0.0.1:0
//! --reactor`), or for `multipass` a fleet of two `streamcolor serve`
//! stdio workers behind `sc_cluster::ClusterCoordinator`, drives one
//! seeded workload into it for a fixed time, checks every response, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer split
//! of the same workload (`--trace 1`). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```text
//! perfbench --workload ingest --seed 1 --seconds 10 --trace 0 \
//!     --server target/release/streamcolor --trace-dir target/perfbench-trace
//! ```
//!
//! `perfbench/run.py` builds the server and this program from source and
//! then runs it; see `perfbench/README.md` for the workloads, the
//! metrics and the layer definitions.

mod churn;
mod game;
mod ingest;
mod multipass;
mod report;
mod server;
mod socket;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `streamcolor` binary.
    pub server: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        args.get(i + 1).cloned().ok_or(format!("{key} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let server = PathBuf::from(get("--server")?);
    if !server.is_file() {
        return Err(format!("server binary {} not found", server.display()));
    }
    Ok(Opts {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        window: Duration::from_secs_f64(seconds),
        trace,
        server,
        trace_dir: PathBuf::from(get("--trace-dir")?),
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload ingest|game|churn|multipass --seed N --seconds S \
                 --trace 0|1 --server PATH --trace-dir DIR"
            );
            std::process::exit(2);
        }
    };
    let result = match opts.workload.as_str() {
        "ingest" => ingest::run(&opts),
        "game" => game::run(&opts),
        "churn" => churn::run(&opts),
        "multipass" => multipass::run(&opts),
        other => Err(format!("unknown workload {other:?} (ingest | game | churn | multipass)")),
    };
    match result {
        Ok(report) => {
            report.print(opts.trace);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    }
}

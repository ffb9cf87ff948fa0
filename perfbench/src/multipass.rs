//! `multipass`: the paper's deterministic multipass algorithm as a
//! batch job on the cluster pool.
//!
//! A seeded grid of `det` (Theorem 1) and `batch-greedy` scenarios goes
//! through `sc_cluster::ClusterCoordinator` to two `streamcolor serve`
//! stdio workers; each job is timed from submit to merged result, and
//! jobs repeat until the window closes. Every merged result must equal
//! `sc_engine::shard::run_in_process` byte for byte, and every `det`
//! coloring must use at most ∆+1 colors. Without this workload the
//! deterministic algorithm, `sc_engine::Runner` and the pool would go
//! unmeasured.

use crate::report::Report;
use crate::server::children_peak_rss_mib;
use crate::socket::ms;
use crate::trace::{Layers, Tracer};
use crate::Opts;
use sc_cluster::{ClusterCoordinator, Transport as _, TransportSpec};
use sc_engine::shard::{run_in_process, ShardJob, ShardOutcome};
use sc_engine::{ColorerSpec, Runner, Scenario, SourceSpec};
use std::time::{Duration, Instant};
use streamcolor::DetConfig;

/// Scenarios per grid, alternating `det` and `batch-greedy`.
const GRID: usize = 4;
/// Vertices per scenario graph.
const N: usize = 400;
/// Degree bounds, cycled over the grid.
const DELTAS: [usize; 2] = [16, 24];
/// Stdio workers in the fleet.
const WORKERS: usize = 2;
/// In-process runs of the grid in the traced run (median reported).
const RUNNER_REPS: usize = 5;
/// Fleet spawns measured for `setup_s`.
const SETUP_REPS: usize = 5;

fn grid(seed: u64) -> Vec<Scenario> {
    (0..GRID)
        .map(|i| {
            let delta = DELTAS[(i / 2) % DELTAS.len()];
            let graph_seed = seed.wrapping_mul(104_729).wrapping_add(i as u64);
            let (label, spec) = if i % 2 == 0 {
                ("det", ColorerSpec::Det(DetConfig::default()))
            } else {
                ("batch-greedy", ColorerSpec::BatchGreedy)
            };
            Scenario::new(SourceSpec::exact_degree(N, delta, graph_seed), spec)
                .labeled(format!("{label}-n{N}-d{delta}-{i}"))
        })
        .collect()
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let scenarios = grid(opts.seed);
    let job = ShardJob::Grid(scenarios.clone());
    let edges: u64 = scenarios.iter().map(|s| s.source.materialize().m() as u64).sum();
    let mut report = Report {
        workload: "multipass",
        shape: format!(
            "batch job, {WORKERS} stdio workers; grid of {GRID} det/batch-greedy scenarios, \
             n={N}, delta in {DELTAS:?}, {edges} input edges per job"
        ),
        ..Report::default()
    };
    let reference = run_in_process(&job, WORKERS)?;
    let expected = reference.encode();
    let ShardOutcome::Grid(summaries) = &reference else {
        return Err("a grid job must merge to a grid outcome".to_string());
    };
    for s in summaries {
        report.passes += s.passes.unwrap_or(0);
        report.max_colors = report.max_colors.max(s.colors as u64);
        report.peak_space_bits = report.peak_space_bits.max(s.space_bits.unwrap_or(0));
    }

    let command = vec![opts.server.display().to_string(), "serve".to_string()];
    let spec = TransportSpec::ChildStdio { command, workers: WORKERS };
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut fleet = spec.build()?;
        for worker in &mut fleet {
            worker
                .send(r#"{"cmd":"host_stats","session":"ready"}"#)
                .map_err(|e| format!("fleet: {e:?}"))?;
            let answer =
                worker.recv(Duration::from_secs(30)).map_err(|e| format!("fleet: {e:?}"))?;
            if !answer.contains("\"ok\":true") {
                return Err(format!("worker not ready: {answer}"));
            }
        }
        report.setup_s.push(t0.elapsed().as_secs_f64());
    }

    let coordinator = ClusterCoordinator::new(spec).with_timeout(Duration::from_secs(120));
    let tracer = Tracer::new();
    let (mut retries, mut speculative, mut wasted, mut shards) = (0, 0, 0, 0);
    let start = Instant::now();
    let deadline = start + opts.window;
    report.timed(start, opts.window);
    let mut jobs = 0u64;
    while jobs == 0 || Instant::now() < deadline {
        let t0 = Instant::now();
        let dispatched = coordinator.run(&job);
        tracer.record("cluster.coordinator.run", t0, edges);
        jobs += 1;
        let latency = ms(t0.elapsed());
        report.push.push((t0, latency));
        report.observe.push((t0, latency));
        let dispatched = match dispatched {
            Ok(d) => d,
            Err(e) => {
                report.problem(format!("job {jobs}: {e}"));
                continue;
            }
        };
        if dispatched.outcome.encode() != expected {
            report.problem(format!("job {jobs}: merged result differs from run_in_process"));
        }
        if let ShardOutcome::Grid(summaries) = &dispatched.outcome {
            for s in summaries {
                report.colorings += 1;
                if !s.proper {
                    report.improper += 1;
                }
                if s.label.starts_with("det") && s.colors > s.delta + 1 {
                    report.problem(format!("{}: det used {} colors > delta+1", s.label, s.colors));
                }
            }
        }
        retries += dispatched.retries;
        speculative += dispatched.speculative;
        wasted += dispatched.wasted;
        shards += dispatched.shards;
        report.ack(t0, Instant::now(), edges);
    }
    report.attempted = jobs;
    report.rss_mib = children_peak_rss_mib()?;

    if opts.trace {
        let t0 = Instant::now();
        let mut runs = Vec::new();
        let mut outcomes = Vec::new();
        for _ in 0..RUNNER_REPS {
            let t = Instant::now();
            outcomes = tracer.time("engine.runner.run_all", edges, || {
                Runner::with_threads(WORKERS).run_all(&scenarios)
            });
            runs.push(ms(t.elapsed()));
        }
        let runner_ms = crate::report::median(&runs).expect("at least one run");
        let det_passes: u64 = outcomes
            .iter()
            .filter(|o| o.label.starts_with("det"))
            .map(|o| o.passes.unwrap_or(0))
            .sum();
        let job_ms: Vec<f64> = report.push.iter().map(|&(_, ms)| ms).collect();
        let job_n = job_ms.len() as u64;
        let mut layers = Layers::zero();
        layers.set("engine.runner.run_ms", runner_ms, RUNNER_REPS as u64);
        layers.set("core.det.passes", det_passes as f64, outcomes.len() as u64);
        // Both per job: the median cluster job minus the median in-process
        // run of the same grid on as many threads as the fleet has workers.
        let pool_self = crate::report::median(&job_ms).unwrap_or(0.0) - runner_ms;
        layers.set("cluster.pool.self_ms", pool_self, job_n);
        layers.set("cluster.pool.retries", retries as f64, job_n);
        layers.set("cluster.pool.speculative", speculative as f64, job_n);
        layers.set("cluster.pool.wasted", wasted as f64, job_n);
        let attempts = shards + retries + speculative;
        let useful = if attempts == 0 { 0.0 } else { shards as f64 / attempts as f64 };
        layers.set("cluster.pool.useful_ratio", useful, attempts as u64);
        layers.set("bench.trace_overhead_pct", tracer.overhead_pct(t0.elapsed()), 1);
        report.layers = layers.into_vec();
        let path = opts.trace_dir.join(format!("multipass-seed{}.spans.tsv", opts.seed));
        tracer.write_tsv(&path)?;
    }
    Ok(report)
}

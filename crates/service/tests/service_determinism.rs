//! The multi-tenant determinism law.
//!
//! A service hosting K named sessions must be observationally identical
//! to K single-session services: interleaving the sessions' command
//! streams in *any* order yields, per session, byte-identical response
//! lines to running that session alone — for every streaming colorer
//! the workspace exposes and every thread count of the script runner.
//! This is what makes the serving layer safe to scale: tenants cannot
//! perturb each other, deliberately or accidentally.

use proptest::prelude::*;
use sc_engine::{wire, ColorerSpec};
use sc_graph::generators;
use sc_service::Service;

/// SplitMix64, for reproducible interleavings derived from one seed.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// Every colorer the service can open without a materialized graph
/// (`bcg20` sizes its palette from exact degeneracy and is therefore a
/// documented open-time error, covered in the crate's unit tests).
fn openable_colorers() -> Vec<(&'static str, ColorerSpec)> {
    vec![
        ("robust", ColorerSpec::Robust { beta: None }),
        ("robust-beta", ColorerSpec::Robust { beta: Some(0.5) }),
        ("auto", ColorerSpec::Auto),
        ("alg3", ColorerSpec::RandEfficient),
        ("cgs22", ColorerSpec::Cgs22),
        ("bg18", ColorerSpec::Bg18 { buckets: None }),
        ("ps", ColorerSpec::PaletteSparsification { lists: Some(6) }),
        ("store-all", ColorerSpec::StoreAll),
        ("dynamic", ColorerSpec::DynamicSr { sparsity: None }),
        ("trivial", ColorerSpec::Trivial),
    ]
}

/// Builds one session's full command-line sequence: open, a mix of
/// push / push_batch / observe / checkpoint / stats, then finish.
/// Dynamic colorers additionally get turnstile traffic: previously
/// inserted edges are retracted through both signed vocabularies
/// (`"sign":"delete"` on `push`, `-u-v` tokens on `push_batch`).
fn session_script(
    name: &str,
    spec: &ColorerSpec,
    n: usize,
    delta: usize,
    seed: u64,
) -> Vec<String> {
    let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
    let edges: Vec<_> = generators::shuffled_edges(&g, seed ^ 0xFEED);
    let dynamic = matches!(spec, ColorerSpec::DynamicSr { .. });
    let mut deletable: Vec<sc_graph::Edge> = Vec::new();
    let mut rng = Gen::new(seed ^ 0x5E55);
    let mut open = sc_engine::flatjson::FlatObject::new();
    open.insert("cmd".into(), sc_engine::flatjson::Scalar::Str("open".into()));
    open.insert("session".into(), sc_engine::flatjson::Scalar::Str(name.into()));
    open.insert("n".into(), sc_engine::flatjson::Scalar::Uint(n as u64));
    open.insert("delta".into(), sc_engine::flatjson::Scalar::Uint(delta as u64));
    open.insert("seed".into(), sc_engine::flatjson::Scalar::Uint(seed));
    wire::colorer_to_wire(spec, &mut open);
    let mut lines = vec![sc_engine::flatjson::encode_object(&open)];
    let mut i = 0;
    while i < edges.len() {
        if dynamic && !deletable.is_empty() && rng.below(4) == 0 {
            let j = rng.below(deletable.len() as u64) as usize;
            let e = deletable.swap_remove(j);
            if rng.below(2) == 0 {
                lines.push(format!(
                    r#"{{"cmd":"push","session":"{name}","edge":"{}-{}","sign":"delete"}}"#,
                    e.u(),
                    e.v()
                ));
            } else {
                lines.push(format!(
                    r#"{{"cmd":"push_batch","session":"{name}","edges":"-{}-{}"}}"#,
                    e.u(),
                    e.v()
                ));
            }
            continue;
        }
        match rng.below(5) {
            0 => {
                lines.push(format!(
                    r#"{{"cmd":"push","session":"{name}","edge":"{}-{}"}}"#,
                    edges[i].u(),
                    edges[i].v()
                ));
                deletable.push(edges[i]);
                i += 1;
            }
            1 | 2 => {
                let k = 1 + rng.below(7) as usize;
                let end = (i + k).min(edges.len());
                let batch = wire::encode_edges(edges[i..end].iter().copied());
                lines.push(format!(
                    r#"{{"cmd":"push_batch","session":"{name}","edges":"{batch}"}}"#
                ));
                deletable.extend(edges[i..end].iter().copied());
                i = end;
            }
            3 => lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#)),
            _ => lines.push(format!(r#"{{"cmd":"{}","session":"{name}"}}"#, {
                if rng.below(2) == 0 {
                    "checkpoint"
                } else {
                    "stats"
                }
            })),
        }
    }
    lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#));
    lines.push(format!(r#"{{"cmd":"stats","session":"{name}"}}"#));
    lines.push(format!(r#"{{"cmd":"finish","session":"{name}"}}"#));
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// K interleaved tenants ≡ K isolated runs, byte for byte, per
    /// session — over all colorers and a random interleaving.
    #[test]
    fn interleaved_sessions_match_isolated_runs(seed in any::<u64>()) {
        let mut rng = Gen::new(seed);
        let n = 24 + rng.below(16) as usize;
        let delta = 3 + rng.below(4) as usize;
        let scripts: Vec<(String, Vec<String>)> = openable_colorers()
            .into_iter()
            .map(|(name, spec)| {
                let session_seed = rng.next();
                (name.to_string(), session_script(name, &spec, n, delta, session_seed))
            })
            .collect();

        // Isolated reference: one fresh service per session.
        let isolated: Vec<Vec<String>> = scripts
            .iter()
            .map(|(_, lines)| {
                let mut service = Service::new();
                lines.iter().filter_map(|l| service.respond(l)).collect()
            })
            .collect();

        // Interleaved run: one service, sessions advanced in a random
        // global order (per-session order preserved).
        let mut cursors = vec![0usize; scripts.len()];
        let mut service = Service::new();
        let mut interleaved: Vec<Vec<String>> = vec![Vec::new(); scripts.len()];
        loop {
            let live: Vec<usize> = (0..scripts.len())
                .filter(|&s| cursors[s] < scripts[s].1.len())
                .collect();
            if live.is_empty() {
                break;
            }
            let s = live[rng.below(live.len() as u64) as usize];
            let line = &scripts[s].1[cursors[s]];
            cursors[s] += 1;
            if let Some(response) = service.respond(line) {
                interleaved[s].push(response);
            }
        }
        prop_assert!(service.session_names().is_empty(), "every session finished");
        for (s, (name, _)) in scripts.iter().enumerate() {
            prop_assert_eq!(
                &interleaved[s],
                &isolated[s],
                "tenant {} diverged under interleaving (seed {})",
                name,
                seed
            );
        }

        // And the script runner agrees with line-at-a-time responding,
        // for several thread counts, on the same interleaving.
        let mut cursors = vec![0usize; scripts.len()];
        let mut rng2 = Gen::new(seed ^ 0x1234);
        let mut script_text = String::new();
        loop {
            let live: Vec<usize> = (0..scripts.len())
                .filter(|&s| cursors[s] < scripts[s].1.len())
                .collect();
            if live.is_empty() {
                break;
            }
            let s = live[rng2.below(live.len() as u64) as usize];
            script_text.push_str(&scripts[s].1[cursors[s]]);
            script_text.push('\n');
            cursors[s] += 1;
        }
        let line_by_line = {
            let mut service = Service::new();
            let mut out = String::new();
            for line in script_text.lines() {
                if let Some(response) = service.respond(line) {
                    out.push_str(&response);
                    out.push('\n');
                }
            }
            out
        };
        for threads in [1usize, 4] {
            let mut service = Service::with_threads(threads);
            prop_assert_eq!(
                service.run_script(&script_text),
                line_by_line.clone(),
                "run_script with {} threads diverged (seed {})",
                threads,
                seed
            );
        }
    }
}

/// One `open` asking for an absurd sparse-recovery budget used to abort
/// the whole host on allocation failure. It must instead be an error
/// response naming `sparsity`, and a tenant sharing the host must see
/// byte-identical responses to an undisturbed run — through the script
/// runner `serve --script` uses, at several thread counts.
#[test]
fn oversized_dynamic_sr_budgets_are_errors_that_leave_other_tenants_untouched() {
    let hostile = [
        r#"{"cmd":"open","session":"x","n":10,"delta":2,"colorer":"dynamic-sr","seed":1,"sparsity":1000000000000}"#,
        r#"{"cmd":"observe","session":"x"}"#,
        r#"{"cmd":"open","session":"y","n":16777216,"delta":16777216,"colorer":"dynamic-sr"}"#,
    ];
    let tenant = session_script("a", &ColorerSpec::DynamicSr { sparsity: None }, 30, 4, 0xA11CE);
    let undisturbed = Service::new().run_script(&(tenant.join("\n") + "\n"));

    // Hostile lines after the open, mid-stream, and before the finish.
    let mut script = Vec::new();
    let mut hostile_at = Vec::new();
    for (i, line) in tenant.iter().enumerate() {
        if [1, tenant.len() / 2, tenant.len() - 1].contains(&i) {
            for h in hostile {
                hostile_at.push(script.len());
                script.push(h.to_string());
            }
        }
        script.push(line.clone());
    }
    let script = script.join("\n") + "\n";
    for threads in [1usize, 4] {
        let out = Service::with_threads(threads).run_script(&script);
        let lines: Vec<&str> = out.lines().collect();
        let mut kept = String::new();
        for (i, line) in lines.iter().enumerate() {
            let Some(k) = hostile_at.iter().position(|&h| h == i) else {
                kept.push_str(line);
                kept.push('\n');
                continue;
            };
            assert!(line.contains(r#""ok":false"#), "hostile line {i} must be refused: {line}");
            match k % 3 {
                0 => assert!(
                    line.contains("sparsity = 1000000000000") && line.contains("n(n−1)/2 = 45"),
                    "{line}"
                ),
                1 => assert!(line.contains("unknown session"), "{line}"),
                _ => assert!(line.contains("sparsity = 140737488355328"), "{line}"),
            }
        }
        assert_eq!(kept, undisturbed, "tenant a diverged beside hostile opens ({threads} threads)");
    }
}

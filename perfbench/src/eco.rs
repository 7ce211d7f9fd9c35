//! `eco-chain`: a resident `IncrementalEngine` on c880 at C = 3 takes a
//! seeded chain of single-gate edits through `IncrementalEngine::apply`.
//!
//! Seven of every eight edits resize a gate on the *current*
//! near-critical set, and the chain visits every gate of the base set
//! once per pass (two passes per round), so each of those edits
//! recomputes the paths through its gate against the warm kernel store
//! and every seed's chain has the same mix of light and heavy edits. The
//! eighth resizes a gate that neither sits on nor drives or loads a gate
//! of the set; those edits reuse every path. The fixed shares keep the
//! median inside the recompute mode. Drives are absolute values in a
//! narrow band around nominal (a recompute costs the same whatever the
//! value), so the circuit takes a random walk around its base state
//! instead of drifting, and rounds and seeds see the same cost mix.
//!
//! After each chain (outside the timed loop) the final report must equal
//! a from-scratch run of the edited circuit, byte for byte.

use crate::replay::{self, Counts, ReplayStore};
use crate::trace::{self, span};
use crate::util::{fnv, secs, Rng};
use crate::{push_traced_round, rounds, Outcome, RunCfg, THREADS};
use statim_core::engine::{SstaConfig, SstaEngine};
use statim_core::incremental::{EcoEdit, EcoScript, IncrementalEngine};
use statim_core::report;
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::{Circuit, Placement, PlacementStyle, Signal};
use std::collections::BTreeSet;
use std::time::Instant;

const CONFIDENCE: f64 = 3.0;

/// Every `OFF_SET_EVERY`-th edit is drawn off the near-critical set.
const OFF_SET_EVERY: usize = 8;

/// Times the chain visits every gate of the base near-critical set.
const PASSES: usize = 2;

const TOP: usize = 10;

fn config() -> SstaConfig {
    SstaConfig::date05()
        .with_confidence(CONFIDENCE)
        .with_threads(THREADS)
}

/// Gates on any near-critical path of the engine's current report.
fn near_critical(engine: &IncrementalEngine) -> BTreeSet<usize> {
    engine
        .report()
        .paths
        .iter()
        .flat_map(|p| p.analysis.gates.iter().map(|g| g.index()))
        .collect()
}

/// Gates that neither sit on the set nor drive or load a gate on it.
fn off_set(circuit: &Circuit, set: &BTreeSet<usize>) -> Vec<usize> {
    let mut near = set.clone();
    for (i, g) in circuit.gates().iter().enumerate() {
        let fanins: Vec<usize> = g
            .inputs
            .iter()
            .filter_map(|s| match s {
                Signal::Gate(d) => Some(d.index()),
                Signal::Input(_) => None,
            })
            .collect();
        if set.contains(&i) {
            near.extend(&fanins);
        } else if fanins.iter().any(|d| set.contains(d)) {
            near.insert(i);
        }
    }
    (0..circuit.gate_count())
        .filter(|i| !near.contains(i))
        .collect()
}

/// The next edit of the chain, drawn from the engine's current state.
/// `unvisited` holds the base set's gates not yet edited; an on-set edit
/// takes one that is still on the current set when there is one.
fn next_edit(
    step: usize,
    engine: &IncrementalEngine,
    unvisited: &mut BTreeSet<usize>,
    rng: &mut Rng,
) -> EcoEdit {
    let circuit = engine.circuit();
    let set = near_critical(engine);
    let name = |i: usize| circuit.gates()[i].name.clone();
    if step % OFF_SET_EVERY == OFF_SET_EVERY - 1 {
        let pool = off_set(circuit, &set);
        let gate = name(pool[rng.below(pool.len())]);
        return EcoEdit::ResizeGate {
            gate,
            drive: rng.range(0.9, 1.1),
        };
    }
    let on: Vec<usize> = unvisited.intersection(&set).copied().collect();
    let pool: Vec<usize> = if !on.is_empty() {
        on
    } else if !unvisited.is_empty() {
        unvisited.iter().copied().collect()
    } else {
        set.into_iter().collect()
    };
    let pick = pool[rng.below(pool.len())];
    unvisited.remove(&pick);
    EcoEdit::ResizeGate {
        gate: name(pick),
        drive: rng.range(0.92, 1.08),
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let circuit = iscas85::generate(Benchmark::C880);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    rounds(cfg, |round, out| {
        // Set-up: the resident engine's base analysis on a cold store.
        let t = Instant::now();
        let base = IncrementalEngine::new(
            SstaEngine::new(config()),
            circuit.clone(),
            placement.clone(),
        );
        out.setup_s.push(secs(t));
        let mut engine = match base {
            Ok(e) => e,
            Err(e) => {
                out.fail(format!("base analysis failed: {e}"));
                return;
            }
        };
        let counts = Counts::default();
        // The replay store mirrors the engine's: warmed by the base
        // analysis, then carried along the chain.
        let store = ReplayStore::new();
        if cfg.trace {
            if let Err(e) = replay_one(&engine, &store, &Counts::default()) {
                out.wrong(format!("base replay: {e}"));
            }
            let _ = trace::take();
        }

        let mut rng = Rng::new(cfg.seed, 2);
        let base_set = near_critical(&engine);
        let mut unvisited = BTreeSet::new();
        let edits = PASSES * base_set.len() * OFF_SET_EVERY / (OFF_SET_EVERY - 1);
        let (mut digest, mut paths, mut wall) = (0u64, 0u64, 0.0);
        let (mut dirty, mut cone, mut reused, mut recomputed, mut recompute_edits) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut last_text = None;
        let mut utilization = Vec::new();
        for step in 0..edits {
            if unvisited.is_empty() {
                unvisited = base_set.clone();
            }
            let edit = next_edit(step, &engine, &mut unvisited, &mut rng);
            let script = EcoScript {
                edits: vec![(1, edit)],
            };
            out.attempted += 1;
            trace::set_op((round * 1000 + step + 1) as u64);
            let t = Instant::now();
            let applied = if cfg.trace {
                span("eco.apply", || engine.apply(&script))
            } else {
                engine.apply(&script)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            wall += ms / 1e3;
            let outcome = match applied {
                Ok(o) => o,
                Err(e) => {
                    out.fail(format!("edit {step} `{}`: {e}", script.render()));
                    continue;
                }
            };
            out.op_ms.push(ms);
            let s = outcome.stats;
            if s.edits_applied != 1
                || s.reused_paths + s.recomputed_paths != outcome.report.num_paths
            {
                out.wrong(format!("edit {step}: inconsistent reuse counters {s:?}"));
            }
            dirty += s.dirty_gates as u64;
            cone += s.cone_gates as u64;
            reused += s.reused_paths as u64;
            recomputed += s.recomputed_paths as u64;
            recompute_edits += u64::from(s.recomputed_paths > 0);
            paths += outcome.report.num_paths as u64;
            utilization.push(outcome.report.profile.analyze.utilization);
            let text = report::deterministic_report(&outcome.report, TOP);
            digest = fnv(digest, text.as_bytes());
            if cfg.trace {
                match replay_one(&engine, &store, &counts) {
                    Ok(replayed) if replayed == text => {}
                    Ok(_) => out.wrong(format!("edit {step}: replayed report bytes differ")),
                    Err(e) => out.wrong(format!("edit {step}: {e}")),
                }
            }
            last_text = Some(text);
        }
        out.wall_s.push(wall);
        out.paths.push(paths);

        // The chain's end state must be what a from-scratch run of the
        // edited netlist reports.
        if let Some(text) = last_text {
            match SstaEngine::new(config()).run(engine.circuit(), engine.placement()) {
                Ok(fresh) if report::deterministic_report(&fresh, TOP) == text => {}
                Ok(_) => out.wrong("final ECO report differs from a from-scratch run".into()),
                Err(e) => out.wrong(format!("from-scratch run of the edited circuit: {e}")),
            }
        }

        let mut c = if cfg.trace {
            counts.snapshot()
        } else {
            Default::default()
        };
        for (k, v) in [
            ("reports.digest", digest),
            ("reports.paths", paths),
            ("eco.dirty_gates", dirty),
            ("eco.cone_gates", cone),
            ("eco.paths_reused", reused),
            ("eco.paths_recomputed", recomputed),
            ("eco.recompute_edits", recompute_edits),
        ] {
            c.insert(k.into(), v);
        }
        if cfg.trace {
            push_traced_round(out, &c, wall, &utilization, |v| {
                for k in [
                    "eco.dirty_gates",
                    "eco.cone_gates",
                    "eco.paths_reused",
                    "eco.paths_recomputed",
                    "eco.recompute_edits",
                ] {
                    v.insert(k.into(), c[k] as f64);
                }
                v.insert(
                    "eco.reuse_ratio".into(),
                    reused as f64 / (reused + recomputed).max(1) as f64,
                );
            });
        }
        out.counts.push(c);
    })
}

/// Replays the full analysis of the engine's current circuit on the
/// mirror store and checks it against the engine's merged report.
fn replay_one(
    engine: &IncrementalEngine,
    store: &ReplayStore,
    counts: &Counts,
) -> Result<String, String> {
    let (r, text) = replay::analyze_op(
        engine.circuit(),
        engine.placement(),
        &config(),
        store,
        counts,
        TOP,
    )?;
    replay::same_analysis(engine.report(), &r)?;
    Ok(text)
}

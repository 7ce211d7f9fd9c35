//! `cold-oneshot`: what one `statim analyze` or `statim seq` invocation
//! costs. Every job gets a fresh kernel store, as the CLI does, so the
//! inter-die kernel misses are nearly the whole wall time.
//!
//! The op list is stratified: one analyze job per circuit c1355…c7552
//! (c6288 excluded: its path count explodes) at a confidence sized so
//! each costs about 0.6 s on two threads, plus three pipeline `seq` jobs
//! of about the same cost. Equal costs keep `p50_ms` inside one cluster
//! instead of on the boundary between two jobs of different cost. The seed jitters each C
//! by ±1 % and each clock period by ±5 % and shuffles the order, so seeds
//! differ in inputs but not in cost.

use crate::replay::{self, Counts, ReplayStore};
use crate::trace;
use crate::util::{fnv, secs, Rng};
use crate::{push_traced_round, rounds, Outcome, RunCfg, THREADS};
use statim_core::engine::{SstaConfig, SstaEngine};
use statim_core::report;
use statim_core::sequential::{SequentialConfig, SequentialEngine};
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::generators::sequential;
use statim_netlist::{Circuit, Placement, PlacementStyle};
use std::time::Instant;

/// Rows of the rendered path/check tables.
const TOP: usize = 10;

const SETUPS_PER_ROUND: usize = 3;

/// (circuit, base confidence C).
const ANALYZE: [(Benchmark, f64); 6] = [
    (Benchmark::C1355, 0.10),
    (Benchmark::C1908, 1.4),
    (Benchmark::C2670, 0.75),
    (Benchmark::C3540, 1.6),
    (Benchmark::C5315, 1.0),
    (Benchmark::C7552, 0.14),
];

/// (stages, width) of the sequential pipelines.
const SEQ: [(usize, usize); 3] = [(16, 64), (12, 96), (8, 128)];

enum Job {
    Analyze(SstaConfig),
    Seq(SequentialConfig),
}

struct Prepared {
    circuit: Circuit,
    placement: Placement,
    job: Job,
}

fn ssta(confidence: f64) -> SstaConfig {
    SstaConfig::date05()
        .with_confidence(confidence)
        .with_threads(THREADS)
}

/// The seeded op list: (circuit name, job).
fn op_list(seed: u64) -> Vec<(String, Job)> {
    let mut rng = Rng::new(seed, 1);
    let mut jobs: Vec<(String, Job)> = ANALYZE
        .iter()
        .map(|&(b, c)| {
            let c = c * rng.range(0.99, 1.01);
            (b.name().to_string(), Job::Analyze(ssta(c)))
        })
        .collect();
    for (s, w) in SEQ {
        let period = 1e-9 * rng.range(0.95, 1.05);
        let config = SequentialConfig {
            ssta: ssta(0.05),
            period: Some(period),
            ..SequentialConfig::date05()
        };
        jobs.push((format!("pipe{s}x{w}"), Job::Seq(config)));
    }
    rng.shuffle(&mut jobs);
    jobs
}

fn prepare(jobs: Vec<(String, Job)>) -> Vec<Prepared> {
    jobs.into_iter()
        .map(|(name, job)| {
            let circuit = match Benchmark::from_name(&name) {
                Some(b) => iscas85::generate(b),
                None => sequential::from_name(&name).expect("pipeline names are built in"),
            };
            let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
            Prepared {
                circuit,
                placement,
                job,
            }
        })
        .collect()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    rounds(cfg, |round, out| {
        // Set-up: generate every circuit and placement, then one untimed
        // warm-up job (c432 with about ten paths) so the allocator, the
        // kernel store and the thread pool are past their first-touch
        // costs before the first timed op. Set-up is repeated and timed
        // each time to give `setup_s` a median of many samples.
        let mut jobs = Vec::new();
        for _ in 0..SETUPS_PER_ROUND {
            // Drop the last set-up's circuits first: one copy in memory.
            jobs.clear();
            let t = Instant::now();
            jobs = prepare(op_list(cfg.seed));
            let warm = iscas85::generate(Benchmark::C432);
            let warm_p = Placement::generate(&warm, PlacementStyle::Levelized);
            if let Err(e) = SstaEngine::new(ssta(0.6)).run(&warm, &warm_p) {
                out.fail(format!("warm-up job failed: {e}"));
            }
            out.setup_s.push(secs(t));
        }

        let counts = Counts::default();
        let mut digest = 0u64;
        let mut paths = 0u64;
        let mut wall = 0.0;
        let mut utilization = Vec::new();
        for (i, p) in jobs.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let result = match &p.job {
                Job::Analyze(c) => SstaEngine::new(c.clone())
                    .run(&p.circuit, &p.placement)
                    .map(|r| {
                        let text = report::deterministic_report(&r, TOP);
                        (r.num_paths, Some(r), text)
                    }),
                Job::Seq(c) => SequentialEngine::new(c.clone())
                    .run(&p.circuit, &p.placement)
                    .map(|r| {
                        let text = report::deterministic_sequential_report(&r, TOP);
                        (r.checks.len(), None, text)
                    }),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            wall += ms / 1e3;
            let (n, engine_report, text) = match result {
                Ok(x) => x,
                Err(e) => {
                    out.fail(format!("{}: {e}", p.circuit.name()));
                    continue;
                }
            };
            out.op_ms.push(ms);
            paths += n as u64;
            digest = fnv(digest, text.as_bytes());
            if let Some(r) = &engine_report {
                utilization.push(r.profile.analyze.utilization);
            }
            if cfg.trace {
                trace::set_op((round * 1000 + i + 1) as u64);
                match traced(p, engine_report.as_ref(), &counts) {
                    Ok(replayed) if replayed == text => {}
                    Ok(_) => out.wrong(format!(
                        "{}: replayed report bytes differ",
                        p.circuit.name()
                    )),
                    Err(e) => out.wrong(format!("{}: {e}", p.circuit.name())),
                }
            }
        }
        out.wall_s.push(wall);
        out.paths.push(paths);
        let mut c = if cfg.trace {
            counts.snapshot()
        } else {
            Default::default()
        };
        c.insert("reports.digest".into(), digest);
        c.insert("reports.paths".into(), paths);
        if cfg.trace {
            push_traced_round(out, &c, wall, &utilization, |_| {});
        }
        out.counts.push(c);
    })
}

/// The traced replay of one job on a fresh store, checked against the
/// engine's own run; returns the replay's rendered report.
fn traced(
    p: &Prepared,
    engine: Option<&statim_core::SstaReport>,
    counts: &Counts,
) -> Result<String, String> {
    let store = ReplayStore::new();
    match &p.job {
        Job::Analyze(c) => {
            let (r, text) = replay::analyze_op(&p.circuit, &p.placement, c, &store, counts, TOP)?;
            replay::same_analysis(engine.ok_or("analyze job without an engine report")?, &r)?;
            Ok(text)
        }
        Job::Seq(c) => replay::sequential_op(&p.circuit, &p.placement, c, &store, counts, TOP)
            .map(|(_, text)| text),
    }
}

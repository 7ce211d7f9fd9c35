//! `warm-serve`: an in-process daemon (`daemon::spawn_tuned`, result
//! store under a temporary directory) serving two closed-loop clients.
//!
//! Set-up warms the kernel store with one job per circuit at the largest
//! C the mix uses (and one per pipeline). The mix then never computes an
//! inter-die kernel: new analyze jobs run at C below that maximum, so
//! every kernel lookup hits. About one op in five resubmits one of the
//! same client's earlier jobs and is answered from the result store (pure
//! serving cost); a few ops are pipeline `seq` jobs. The read share stays
//! far from one half, so `p50_ms` sits inside the new-job mode.
//!
//! Every reply is checked against the in-process report for the same
//! spec, and the daemon's rejected / throttled / expired / store-write
//! error counters count as failed ops.

use crate::replay::{self, Counts, ReplayStore};
use crate::trace;
use crate::util::{fnv, median, secs, Rng};
use crate::{push_traced_round, rounds, Outcome, RunCfg, THREADS};
use statim_core::engine::{RunContext, SstaConfig, SstaEngine};
use statim_core::report;
use statim_core::sequential::{SequentialConfig, SequentialEngine};
use statim_core::service::ServiceConfig;
use statim_core::KernelStore;
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::generators::sequential;
use statim_netlist::{Circuit, Placement, PlacementStyle};
use statim_server::daemon::{self, DaemonTuning};
use statim_server::Client;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// (circuit, largest C in the mix). The warm-up job of each circuit runs
/// at exactly this C.
const CIRCUITS: [(&str, f64); 9] = [
    ("c432", 0.3),
    ("c499", 0.3),
    ("c880", 0.5),
    ("c1355", 0.08),
    ("c1908", 0.4),
    ("c2670", 0.3),
    ("c3540", 0.5),
    ("c5315", 0.4),
    ("c7552", 0.1),
];

const PIPELINES: [&str; 2] = ["pipe4x8", "pipe6x16"];

/// New analyze jobs per circuit per client: one in each of this many
/// equal strata of (0, Cmax], at a seeded point of the stratum's middle
/// 40 % (path counts grow steeply with C, so wider jitter would make
/// the work per round depend on the seed).
const PER_CIRCUIT: usize = 16;

/// Seq jobs per pipeline per client.
const PER_PIPELINE: usize = 3;

/// Resubmissions per circuit per client (answered from the result store).
const RESUBMITS_PER_CIRCUIT: usize = 4;

const TOP: usize = 10;
const WAIT: Duration = Duration::from_secs(120);

#[derive(Clone)]
struct Spec {
    source: String,
    confidence: f64,
}

impl Spec {
    fn options(&self) -> Vec<(String, String)> {
        vec![
            ("confidence".into(), format!("{}", self.confidence)),
            ("threads".into(), THREADS.to_string()),
        ]
    }

    fn config(&self) -> SstaConfig {
        SstaConfig::date05()
            .with_confidence(self.confidence)
            .with_threads(THREADS)
    }

    /// The circuit and placement the daemon builds for this source.
    fn build(&self) -> (Circuit, Placement) {
        let name = &self.source[1..];
        let circuit = match Benchmark::from_name(name) {
            Some(b) => iscas85::generate(b),
            None => sequential::from_name(name).expect("pipeline names are built in"),
        };
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        (circuit, placement)
    }
}

/// The seeded mix: the distinct specs and, per client, the op order as
/// (spec index, resubmission?).
struct Mix {
    warm: Vec<Spec>,
    specs: Vec<Spec>,
    clients: Vec<Vec<(usize, bool)>>,
}

fn mix(seed: u64) -> Mix {
    let warm = CIRCUITS
        .iter()
        .map(|&(c, cmax)| Spec {
            source: format!("@{c}"),
            confidence: cmax,
        })
        .chain(PIPELINES.iter().map(|p| Spec {
            source: format!("@{p}"),
            confidence: 0.05,
        }))
        .collect();
    let mut specs = Vec::new();
    let mut clients = Vec::new();
    for client in 0..THREADS {
        let mut rng = Rng::new(seed, 10 + client as u64);
        // (spec, (circuit, stratum) for analyze jobs)
        let mut mine: Vec<(Spec, Option<(usize, usize)>)> = Vec::new();
        for (ci, &(c, cmax)) in CIRCUITS.iter().enumerate() {
            for k in 0..PER_CIRCUIT {
                let u = (k as f64 + rng.range(0.3, 0.7)) / PER_CIRCUIT as f64;
                let spec = Spec {
                    source: format!("@{c}"),
                    confidence: cmax * u,
                };
                mine.push((spec, Some((ci, k))));
            }
        }
        // A pipeline's checks do not depend on C, but C is part of the
        // job fingerprint: each of these is a new job on warm kernels.
        for p in PIPELINES {
            for _ in 0..PER_PIPELINE {
                let spec = Spec {
                    source: format!("@{p}"),
                    confidence: rng.range(0.01, 0.09),
                };
                mine.push((spec, None));
            }
        }
        rng.shuffle(&mut mine);
        // Resubmissions target fixed (circuit, stratum) cells, so every
        // seed repeats the same kinds of report; each lands at a seeded
        // point after its original.
        let (n, base) = (mine.len(), specs.len());
        let mut keyed: Vec<(f64, usize, bool)> =
            (0..n).map(|i| (i as f64, base + i, false)).collect();
        for j in 0..CIRCUITS.len() * RESUBMITS_PER_CIRCUIT {
            let stratum = (j / CIRCUITS.len()) * PER_CIRCUIT / RESUBMITS_PER_CIRCUIT
                + PER_CIRCUIT / (2 * RESUBMITS_PER_CIRCUIT);
            let target = Some((j % CIRCUITS.len(), stratum));
            let pos = mine
                .iter()
                .position(|(_, t)| *t == target)
                .expect("every stratum holds one job");
            keyed.push((rng.range(pos as f64 + 0.5, n as f64), base + pos, true));
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        specs.extend(mine.into_iter().map(|(s, _)| s));
        clients.push(keyed.into_iter().map(|(_, s, r)| (s, r)).collect());
    }
    Mix {
        warm,
        specs,
        clients,
    }
}

/// One client op as observed: spec, whether it was meant as a
/// resubmission, latency and the reply (or the error).
struct Served {
    spec: usize,
    resubmit: bool,
    from_store: bool,
    ms: f64,
    reply: Result<String, String>,
}

fn serve_one(client: &mut Client, spec: &Spec) -> Result<(bool, String), String> {
    let (id, from_store) = client
        .submit(&spec.source, &spec.options())
        .map_err(|e| e.to_string())?;
    let state = client.wait(id, WAIT).map_err(|e| e.to_string())?;
    if state != "done" {
        return Err(format!("job {id} ended {state}"));
    }
    let text = client.result(id, Some(TOP)).map_err(|e| e.to_string())?;
    Ok((from_store, text))
}

/// The counters of a `STATS` reply that mark refused or lost work.
fn stats(addr: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut c = Client::connect_tagged(addr, "bench-stats").map_err(|e| e.to_string())?;
    let text = c.stats().map_err(|e| e.to_string())?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(": ")?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// The in-process reference for a spec on a shared warm store: the
/// report bytes and its path (or check) count.
fn in_process(
    spec: &Spec,
    (circuit, placement): &(Circuit, Placement),
    store: &Arc<KernelStore>,
) -> Result<(String, u64), String> {
    let ctx = || RunContext {
        store: Some(Arc::clone(store)),
        supervisor: None,
    };
    if circuit.is_sequential() {
        let config = SequentialConfig {
            ssta: spec.config(),
            ..SequentialConfig::date05()
        };
        SequentialEngine::new(config)
            .run_with(circuit, placement, ctx())
            .map(|r| {
                (
                    report::deterministic_sequential_report(&r, TOP),
                    r.checks.len() as u64,
                )
            })
    } else {
        SstaEngine::new(spec.config())
            .run_with(circuit, placement, ctx())
            .map(|r| (report::deterministic_report(&r, TOP), r.num_paths as u64))
    }
    .map_err(|e| e.to_string())
}

/// The traced in-process replay of a spec on the mirror store: report
/// bytes, path count and, for analyze jobs, the pool utilization.
fn replayed(
    spec: &Spec,
    (circuit, placement): &(Circuit, Placement),
    store: &ReplayStore,
    counts: &Counts,
) -> Result<(String, u64, Option<f64>), String> {
    if circuit.is_sequential() {
        let config = SequentialConfig {
            ssta: spec.config(),
            ..SequentialConfig::date05()
        };
        let (r, text) = replay::sequential_op(circuit, placement, &config, store, counts, TOP)?;
        Ok((text, r.checks.len() as u64, None))
    } else {
        let (r, text) = replay::analyze_op(circuit, placement, &spec.config(), store, counts, TOP)?;
        Ok((
            text,
            r.num_paths as u64,
            Some(r.profile.analyze.utilization),
        ))
    }
}

fn same_text(a: &str, b: &str) -> bool {
    a.trim_end() == b.trim_end()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mix = mix(cfg.seed);
    // References, computed once per run on a store warmed like the
    // daemon's: (report bytes, paths) per spec index.
    let mut expected: HashMap<usize, (String, u64)> = HashMap::new();
    let reference_store = Arc::new(KernelStore::unbounded());
    let mirror = ReplayStore::new();
    rounds(cfg, |round, out| {
        let dir = crate::util::out_dir().join(format!("serve-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Set-up: daemon spawn and kernel warm-up.
        let t = Instant::now();
        let service = ServiceConfig {
            store_dir: Some(dir.clone()),
            max_queue: 64,
            ..ServiceConfig::default()
        };
        let tuning = DaemonTuning {
            workers: THREADS,
            ..DaemonTuning::default()
        };
        let handle = match std::fs::create_dir_all(&dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                daemon::spawn_tuned("127.0.0.1:0", service, tuning).map_err(|e| e.to_string())
            }) {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("daemon start: {e}"));
                return;
            }
        };
        let addr = handle.addr().to_string();
        match Client::connect_tagged(&addr, "bench-warm") {
            Ok(mut c) => {
                for spec in &mix.warm {
                    if let Err(e) = serve_one(&mut c, spec) {
                        out.fail(format!("warm-up {}: {e}", spec.source));
                    }
                }
            }
            Err(e) => out.fail(format!("connect: {e}")),
        }
        out.setup_s.push(secs(t));
        let before = stats(&addr).unwrap_or_default();

        // The timed mix: one closed-loop client per thread.
        let t = Instant::now();
        let served: Vec<Vec<Served>> = std::thread::scope(|s| {
            let workers: Vec<_> = mix
                .clients
                .iter()
                .enumerate()
                .map(|(k, ops)| {
                    let (addr, specs) = (&addr, &mix.specs);
                    s.spawn(move || {
                        let mut client = match Client::connect_tagged(addr, &format!("bench-{k}")) {
                            Ok(c) => c,
                            Err(e) => {
                                return ops
                                    .iter()
                                    .map(|&(spec, resubmit)| Served {
                                        spec,
                                        resubmit,
                                        from_store: false,
                                        ms: 0.0,
                                        reply: Err(format!("connect: {e}")),
                                    })
                                    .collect();
                            }
                        };
                        ops.iter()
                            .map(|&(spec, resubmit)| {
                                let t = Instant::now();
                                let r = serve_one(&mut client, &specs[spec]);
                                let ms = t.elapsed().as_secs_f64() * 1e3;
                                let from_store = r.as_ref().is_ok_and(|(f, _)| *f);
                                Served {
                                    spec,
                                    resubmit,
                                    from_store,
                                    ms,
                                    reply: r.map(|(_, text)| text),
                                }
                            })
                            .collect::<Vec<Served>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let wall = secs(t);
        let after = stats(&addr).unwrap_or_default();
        if let Ok(mut c) = Client::connect_tagged(&addr, "bench-stop") {
            let _ = c.shutdown();
        }
        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);

        let delta = |k: &str| {
            after
                .get(k)
                .copied()
                .unwrap_or(0)
                .saturating_sub(before.get(k).copied().unwrap_or(0))
        };
        for k in ["rejected", "throttled", "expired", "store-write-errors"] {
            for _ in 0..delta(k) {
                out.fail(format!("daemon counter `{k}` moved"));
            }
        }
        if after.is_empty() {
            out.fail("STATS unavailable".into());
        }

        // Check every reply against the in-process reference for its
        // spec. Reference stores are warmed once per run, like the
        // daemon's; a traced run also replays each executed spec.
        if round == 0 {
            for spec in &mix.warm {
                let built = spec.build();
                if let Err(e) = in_process(spec, &built, &reference_store) {
                    out.wrong(format!("warm-up reference {}: {e}", spec.source));
                }
                if cfg.trace {
                    if let Err(e) = replayed(spec, &built, &mirror, &Counts::default()) {
                        out.wrong(format!("warm-up replay {}: {e}", spec.source));
                    }
                }
            }
            let _ = trace::take();
        }
        let counts = Counts::default();
        let (mut digest, mut paths, mut store_hits) = (0u64, 0u64, 0u64);
        let (mut hit_ms, mut overhead_ms, mut utilization) = (Vec::new(), Vec::new(), Vec::new());
        let mut untraced = 0.0;
        for (i, op) in served.iter().flatten().enumerate() {
            out.attempted += 1;
            let spec = &mix.specs[op.spec];
            let text = match &op.reply {
                Ok(t) => t,
                Err(e) => {
                    out.fail(format!("{}: {e}", spec.source));
                    continue;
                }
            };
            out.op_ms.push(op.ms);
            if op.from_store != op.resubmit {
                out.wrong(format!(
                    "{} (C = {}): from_store {} on a {} submission",
                    spec.source,
                    spec.confidence,
                    op.from_store,
                    if op.resubmit { "repeated" } else { "new" }
                ));
            }
            store_hits += u64::from(op.from_store);
            let reference = match expected.get(&op.spec) {
                Some(r) if op.from_store || !cfg.trace => Ok(r.clone()),
                _ if op.from_store => Err("no reference for a repeated job".to_string()),
                _ => {
                    let built = spec.build();
                    let t = Instant::now();
                    let r = in_process(spec, &built, &reference_store);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    if let (true, Ok((want, _))) = (cfg.trace, &r) {
                        untraced += ms / 1e3;
                        overhead_ms.push(op.ms - ms);
                        trace::set_op((round * 10_000 + i + 1) as u64);
                        match replayed(spec, &built, &mirror, &counts) {
                            Ok((got, _, u)) if same_text(&got, want) => utilization.extend(u),
                            Ok(_) => out.wrong(format!("{}: replay bytes differ", spec.source)),
                            Err(e) => out.wrong(format!("{}: replay: {e}", spec.source)),
                        }
                    }
                    r
                }
            };
            if op.from_store {
                hit_ms.push(op.ms);
            }
            match reference {
                Ok((want, n)) => {
                    if !same_text(text, &want) {
                        out.wrong(format!(
                            "{} (C = {}): daemon bytes differ from the in-process report",
                            spec.source, spec.confidence
                        ));
                    }
                    paths += n;
                    expected.entry(op.spec).or_insert((want, n));
                }
                Err(e) => out.wrong(format!("{}: reference run: {e}", spec.source)),
            }
            digest = fnv(digest, text.as_bytes());
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
        c.insert("serve.store_hits".into(), store_hits);
        if cfg.trace {
            push_traced_round(out, &c, untraced, &utilization, |v| {
                v.insert("serve.store_hit_ms".into(), median(&hit_ms));
                v.insert("serve.overhead_ms".into(), median(&overhead_ms));
                for (k, name) in [
                    ("store-hits", "serve.store_hits"),
                    ("rejected", "serve.rejected"),
                    ("throttled", "serve.throttled"),
                    ("expired", "serve.expired"),
                    ("store-write-errors", "serve.store_write_errors"),
                ] {
                    v.insert(name.into(), delta(k) as f64);
                }
            });
        }
        out.counts.push(c);
    })
}

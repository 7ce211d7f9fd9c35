//! Traced replay of the analysis pipeline from public layer functions.
//!
//! [`analyze`] re-runs `SstaEngine::run_with` stage by stage —
//! characterize, labels, σ_C, enumerate, the per-path kernels on a
//! worker pool, rank, worst case — with a span around every call, and
//! returns a full `SstaReport`. The caller compares it with the engine's
//! own report (path count, σ_C and the critical 3σ point bit for bit,
//! plus the rendered bytes): if they differ, the per-layer numbers
//! would describe a different program and the traced run fails.
//!
//! Every inter-die kernel miss is queued; [`ReplayStore::check_misses`]
//! later re-derives each one from the kernel's sub-layers (parameter
//! PDFs, geometry product, voltage `map3`, final `map2`) and requires
//! the grid and density bits of `inter::inter_pdf`.

use crate::trace::{self, span};
use crate::util::same_pdf_bits;
use statim_core::analyze::{AnalysisSettings, IntraModel, PathAnalysis};
use statim_core::cache::{AnalysisCache, KernelStore};
use statim_core::characterize::{characterize_placed, CircuitTiming};
use statim_core::engine::{
    LabelSolver, RunContext, RunProfile, SstaConfig, SstaReport, StageProfile,
};
use statim_core::enumerate::near_critical_paths;
use statim_core::intra::{intra_pdf, intra_variance, path_coefficients};
use statim_core::longest_path::{bellman_ford, critical_path};
use statim_core::rank::rank_paths;
use statim_core::sequential::{
    min_period, seq_yield_curve, SequentialConfig, SequentialEngine, SequentialReport,
};
use statim_core::worst_case::{worst_case_critical_delay, worst_case_path_delay_at};
use statim_core::{inter, report};
use statim_netlist::{Circuit, GateId, Placement};
use statim_process::delay::voltage_kernel;
use statim_process::tech::{AlphaBeta, Technology, ELMORE_K};
use statim_process::Param;
use statim_stats::combine::{map2, map3, product_pdf};
use statim_stats::convolve::sum_pdf_resampled_with;
use statim_stats::Pdf;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Work counts gathered by the replay. All of them are functions of the
/// inputs alone (thread scheduling cannot move them), so a run asserts
/// they repeat exactly.
#[derive(Default)]
pub struct Counts {
    pub inter_misses: AtomicU64,
    pub intra_misses: AtomicU64,
    pub corner_misses: AtomicU64,
    pub inter_lookups: AtomicU64,
    pub lookups: AtomicU64,
    pub enumerate_paths: AtomicU64,
    pub label_sweeps: AtomicU64,
    pub map3_evals: AtomicU64,
    pub seq_checks: AtomicU64,
}

impl Counts {
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            ("inter.misses", get(&self.inter_misses)),
            ("intra.misses", get(&self.intra_misses)),
            ("corner.misses", get(&self.corner_misses)),
            ("inter.lookups", get(&self.inter_lookups)),
            ("cache.lookups", get(&self.lookups)),
            ("enumerate.paths", get(&self.enumerate_paths)),
            ("labels.sweeps", get(&self.label_sweeps)),
            ("inter.map3_evals", get(&self.map3_evals)),
            ("seq.checks", get(&self.seq_checks)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

fn add(a: &AtomicU64, n: usize) {
    a.fetch_add(n as u64, Ordering::Relaxed);
}

/// A kernel store plus the keys known to be in it, so misses are counted
/// as *distinct* keys computed: two workers racing on one cold key both
/// compute it, but it is one miss.
pub struct ReplayStore {
    pub store: Arc<KernelStore>,
    seen: Mutex<HashSet<(u64, u64)>>,
    seen_intra: Mutex<HashSet<u64>>,
    corner_seen: AtomicBool,
    pending: Mutex<Vec<(AlphaBeta, Pdf)>>,
}

impl ReplayStore {
    pub fn new() -> ReplayStore {
        ReplayStore {
            store: Arc::new(KernelStore::unbounded()),
            seen: Mutex::new(HashSet::new()),
            seen_intra: Mutex::new(HashSet::new()),
            corner_seen: AtomicBool::new(false),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Records a computed intra kernel (keyed by its variance bits).
    fn note_intra(&self, variance: f64, counts: &Counts) {
        if self
            .seen_intra
            .lock()
            .expect("replay key set")
            .insert(variance.to_bits())
        {
            add(&counts.intra_misses, 1);
        }
    }

    /// Records a computed corner point (one per store: one settings
    /// fingerprint per workload).
    fn note_corner(&self, counts: &Counts) {
        if !self.corner_seen.swap(true, Ordering::Relaxed) {
            add(&counts.corner_misses, 1);
        }
    }

    /// Records a computed inter kernel; true when the key is new.
    fn note(&self, ab: &AlphaBeta, pdf: &Pdf, counts: &Counts) -> bool {
        let fresh = self
            .seen
            .lock()
            .expect("replay key set")
            .insert((ab.alpha.to_bits(), ab.beta.to_bits()));
        if fresh {
            add(&counts.inter_misses, 1);
            self.pending
                .lock()
                .expect("replay miss queue")
                .push((*ab, pdf.clone()));
        }
        fresh
    }

    /// Re-derives every queued miss from the kernel's sub-layers (on the
    /// config's worker count) and requires `inter::inter_pdf`'s exact
    /// grid and density bits.
    pub fn check_misses(&self, cfg: &SstaConfig, counts: &Counts) -> Res<()> {
        let pending = std::mem::take(&mut *self.pending.lock().expect("replay miss queue"));
        let threads = cfg.threads.unwrap_or(1);
        let (results, _) = fan_out(pending.len(), threads, |i| {
            let (ab, expected) = &pending[i];
            let got = span("inter.replay", || sublayers(ab, cfg, &counts.map3_evals))?;
            if same_pdf_bits(&got, expected) {
                Ok(())
            } else {
                Err(format!(
                    "inter sub-layer replay differs from inter::inter_pdf at A = {:e}, B = {:e}",
                    ab.alpha, ab.beta
                ))
            }
        });
        results.into_iter().collect()
    }
}

/// `SstaEngine`'s kernel settings, rebuilt from the public config fields.
pub fn settings(cfg: &SstaConfig) -> AnalysisSettings {
    AnalysisSettings {
        vars: cfg.vars,
        layers: cfg.layers.clone(),
        marginal: cfg.marginal,
        intra_model: cfg.intra_model,
        backend: cfg.backend,
        quality_intra: cfg.quality_intra,
        quality_inter: cfg.quality_inter,
        sigma_rank: cfg.sigma_rank,
        corner: cfg.corner,
    }
}

/// `inter::inter_pdf` split into its sub-layers: the geometry product
/// `tox·Leff`, the voltage kernel `A·f(Vdd,VTn) + B·f(Vdd,|VTp|)` over
/// Q³ points (twice: range, then binning) and the final combine.
fn sublayers(ab: &AlphaBeta, cfg: &SstaConfig, map3_evals: &AtomicU64) -> Res<Pdf> {
    let (tech, q) = (&cfg.tech, cfg.quality_inter);
    let w0 = cfg.layers.weights().map_err(err)?[0];
    if (ab.alpha == 0.0 && ab.beta == 0.0) || w0 <= 0.0 {
        // Degenerate kernels are a delta; there are no sub-layers.
        return inter::inter_pdf(ab, tech, &cfg.vars, &cfg.layers, cfg.marginal, q).map_err(err);
    }
    let pdf = |p: Param| {
        inter::inter_param_pdf(p, tech, &cfg.vars, &cfg.layers, cfg.marginal, q).map_err(err)
    };
    let w = span("inter.geometry", || -> Res<Pdf> {
        product_pdf(&pdf(Param::Tox)?, &pdf(Param::Leff)?, q).map_err(err)
    })?;
    let (a, b) = (ab.alpha, ab.beta);
    let mut evals = 0u64;
    let z = span("inter.voltage", || -> Res<Pdf> {
        let (vdd, vtn, vtp) = (pdf(Param::Vdd)?, pdf(Param::Vtn)?, pdf(Param::Vtp)?);
        map3(&vdd, &vtn, &vtp, q, |vdd, vtn, vtp| {
            evals += 1;
            a * voltage_kernel(vdd, vtn) + b * voltage_kernel(vdd, vtp)
        })
        .map_err(err)
    })?;
    map3_evals.fetch_add(evals, Ordering::Relaxed);
    let k = ELMORE_K / tech.eps_ox;
    span("inter.combine", || {
        map2(&w, &z, q, |wv, zv| k * wv * zv).map_err(err)
    })
}

struct Ctx<'a> {
    timing: &'a CircuitTiming,
    placement: &'a Placement,
    tech: &'a Technology,
    settings: &'a AnalysisSettings,
    cache: &'a AnalysisCache,
    store: &'a ReplayStore,
    counts: &'a Counts,
}

/// `analyze_path_cached` with a span around each kernel.
fn analyze_path(path: &[GateId], c: &Ctx<'_>) -> Res<PathAnalysis> {
    span("analyze", || {
        let s = c.settings;
        add(&c.counts.lookups, 3);
        add(&c.counts.inter_lookups, 1);
        let det_delay = c.timing.path_delay(path);
        let corner = c.cache.corner_point(|| {
            c.store.note_corner(c.counts);
            s.corner.worst_point(c.tech, &s.vars)
        });
        let worst_case = worst_case_path_delay_at(path, c.timing, c.tech, &corner).map_err(err)?;
        let intra = span("intra", || -> Res<Pdf> {
            let coeffs = path_coefficients(path, c.timing, c.placement, &s.layers);
            let var = intra_variance(&coeffs, &s.layers, &s.vars).map_err(err)?;
            c.cache
                .intra_pdf(var, || {
                    let pdf = intra_pdf(var, s.vars.trunc_k, s.quality_intra)?;
                    c.store.note_intra(var, c.counts);
                    Ok(pdf)
                })
                .map_err(err)
        })?;
        let ab = c.timing.path_alpha_beta(path);
        let inter = c
            .cache
            .inter_pdf(&ab, || {
                let pdf = span("inter", || {
                    inter::inter_pdf(&ab, c.tech, &s.vars, &s.layers, s.marginal, s.quality_inter)
                })?;
                c.store.note(&ab, &pdf, c.counts);
                Ok(pdf)
            })
            .map_err(err)?;
        let total = span("convolve", || {
            sum_pdf_resampled_with(
                s.backend,
                &intra,
                &inter,
                s.quality_intra.max(s.quality_inter),
            )
        })
        .map_err(err)?;
        let (mean, sigma) = (total.mean(), total.std_dev());
        Ok(PathAnalysis {
            gates: path.to_vec(),
            det_delay,
            worst_case,
            mean,
            sigma,
            inter_sigma: inter.std_dev(),
            intra_sigma: intra.std_dev(),
            confidence_point: mean + s.sigma_rank * sigma,
            total_pdf: total,
            intra_pdf: intra,
            inter_pdf: inter,
        })
    })
}

/// Runs `f(i)` for `i < n` on `threads` workers; results come back in
/// index order, with the workers' summed busy seconds. Work is handed
/// out as the engine's pool does it — contiguous chunks of
/// `n / (8·threads)` through a shared cursor — so neighbouring paths
/// that share a cold kernel key race the same way they do there.
fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> Res<T> + Sync,
) -> (Vec<Res<T>>, f64) {
    let next = AtomicUsize::new(0);
    let chunk = (n / (threads.max(1) * 8)).max(1);
    let ctx = trace::context();
    let mut merged: Vec<(usize, Res<T>)> = Vec::with_capacity(n);
    let mut busy = 0.0;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    trace::in_context(ctx, || {
                        let mut out = Vec::new();
                        let mut busy = 0.0;
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let t = Instant::now();
                            out.extend((start..(start + chunk).min(n)).map(|i| (i, f(i))));
                            busy += t.elapsed().as_secs_f64();
                        }
                        (out, busy)
                    })
                })
            })
            .collect();
        for w in workers {
            let (out, b) = w.join().expect("replay worker panicked");
            merged.extend(out);
            busy += b;
        }
    });
    merged.sort_by_key(|(i, _)| *i);
    (merged.into_iter().map(|(_, r)| r).collect(), busy)
}

/// One traced analyze op: the replay and its rendering inside an `op`
/// span, then (outside it) the sub-layer check of the op's inter misses.
pub fn analyze_op(
    circuit: &Circuit,
    placement: &Placement,
    cfg: &SstaConfig,
    store: &ReplayStore,
    counts: &Counts,
    top: usize,
) -> Res<(SstaReport, String)> {
    let (r, text) = span("op", || -> Res<_> {
        let r = analyze(circuit, placement, cfg, store, counts)?;
        let text = span("render", || report::deterministic_report(&r, top));
        Ok((r, text))
    })?;
    store.check_misses(cfg, counts)?;
    Ok((r, text))
}

/// One traced sequential op inside an `op` span, then (outside it) the
/// replay of the kernels of its checks that are new to the store.
pub fn sequential_op(
    circuit: &Circuit,
    placement: &Placement,
    cfg: &SequentialConfig,
    store: &ReplayStore,
    counts: &Counts,
    top: usize,
) -> Res<(SequentialReport, String)> {
    let (r, text) = span("op", || {
        sequential(circuit, placement, cfg, store, counts, top)
    })?;
    seq_kernels(&r, cfg, store, counts)?;
    Ok((r, text))
}

/// Replays `SstaEngine::run_with` on `store` with a span per stage.
fn analyze(
    circuit: &Circuit,
    placement: &Placement,
    cfg: &SstaConfig,
    store: &ReplayStore,
    counts: &Counts,
) -> Res<SstaReport> {
    if cfg.solver != LabelSolver::BellmanFord
        || cfg.intra_model != IntraModel::GaussianClosedForm
        || !cfg.cache
        || !cfg.budget.is_unlimited()
    {
        return Err("the replay covers the default engine configuration only".into());
    }
    let s = settings(cfg);
    let tech = &cfg.tech;
    let timing = span("characterize", || {
        characterize_placed(circuit, tech, placement)
    })
    .map_err(err)?;
    let (labels, det_delay, det_path) = span("labels", || -> Res<_> {
        let labels = bellman_ford(circuit, &timing).map_err(err)?;
        let delay = labels.critical_delay(circuit).map_err(err)?;
        let path = critical_path(circuit, &timing, &labels).map_err(err)?;
        Ok((labels, delay, path))
    })?;
    add(&counts.label_sweeps, labels.sweeps);
    let cache = AnalysisCache::with_store(Arc::clone(&store.store), tech, &s);
    let c = Ctx {
        timing: &timing,
        placement,
        tech,
        settings: &s,
        cache: &cache,
        store,
        counts,
    };
    let t0 = Instant::now();
    let det = analyze_path(&det_path, &c)?;
    let det_wall = t0.elapsed().as_secs_f64();
    let sigma_c = det.sigma;
    let threshold = det_delay - cfg.confidence * sigma_c;
    let set = span("enumerate", || {
        near_critical_paths(circuit, &timing, &labels, threshold, cfg.max_paths)
    })
    .map_err(err)?;
    add(&counts.enumerate_paths, set.paths.len());
    let det_idx = set
        .paths
        .iter()
        .position(|p| p.len() == det_path.len() && *p == det_path);
    let threads = cfg.threads.unwrap_or(1).max(1);
    let t0 = Instant::now();
    let (results, busy) = span("fanout", || {
        fan_out(set.paths.len(), threads, |i| {
            if Some(i) == det_idx {
                Ok(det.clone())
            } else {
                analyze_path(&set.paths[i], &c)
            }
        })
    });
    let fan_wall = t0.elapsed().as_secs_f64();
    let analyses = results.into_iter().collect::<Res<Vec<_>>>()?;
    if let Some(bad) = analyses.iter().find(|a| !a.kernel_is_finite()) {
        return Err(format!(
            "non-finite kernel on a {}-gate path",
            bad.gates.len()
        ));
    }
    let ranked = span("rank", || rank_paths(analyses));
    if ranked.is_empty() {
        return Err("no path survived ranking".into());
    }
    let worst_case_delay = span("worst_case", || {
        worst_case_critical_delay(circuit, &timing, tech, &cfg.vars, cfg.corner)
    })
    .map_err(err)?;
    let crit = ranked[0].analysis.confidence_point;
    let capacity = det_wall + fan_wall * threads as f64;
    let profile = RunProfile {
        analyze: StageProfile {
            wall: det_wall + fan_wall,
            threads,
            utilization: if capacity > 0.0 {
                ((det_wall + busy) / capacity).min(1.0)
            } else {
                1.0
            },
        },
        ..RunProfile::default()
    };
    Ok(SstaReport {
        circuit: circuit.name().to_string(),
        gate_count: circuit.gate_count(),
        det_critical_delay: det_delay,
        worst_case_delay,
        overestimation_pct: (worst_case_delay - crit) / crit * 100.0,
        confidence: cfg.confidence,
        sigma_c,
        num_paths: ranked.len(),
        paths: ranked,
        label_sweeps: labels.sweeps,
        runtime: 0.0,
        profile,
        degraded: Vec::new(),
        budget_exhausted: None,
        skipped_paths: 0,
    })
}

/// The replay's fidelity contract against the engine's own report.
pub fn same_analysis(engine: &SstaReport, replay: &SstaReport) -> Res<()> {
    let bits = |r: &SstaReport| {
        (
            r.num_paths,
            r.sigma_c.to_bits(),
            r.critical().analysis.confidence_point.to_bits(),
        )
    };
    if bits(engine) != bits(replay) {
        return Err(format!(
            "replay of {} diverges: {} paths, σ_C {:e}, 3σ {:e} vs engine {} paths, σ_C {:e}, 3σ {:e}",
            engine.circuit,
            replay.num_paths,
            replay.sigma_c,
            replay.critical().analysis.confidence_point,
            engine.num_paths,
            engine.sigma_c,
            engine.critical().analysis.confidence_point
        ));
    }
    Ok(())
}

/// A traced sequential job: the engine run, the minimum-period solve
/// and yield curve, and the rendering. The checks' kernels run inside
/// the engine, so their new inter-die keys are replayed afterwards by
/// [`seq_kernels`].
fn sequential(
    circuit: &Circuit,
    placement: &Placement,
    cfg: &SequentialConfig,
    store: &ReplayStore,
    counts: &Counts,
    top: usize,
) -> Res<(SequentialReport, String)> {
    let report = span("seq", || {
        SequentialEngine::new(cfg.clone()).run_with(
            circuit,
            placement,
            RunContext {
                store: Some(Arc::clone(&store.store)),
                supervisor: None,
            },
        )
    })
    .map_err(err)?;
    add(&counts.seq_checks, report.checks.len());
    let solved = span("seq.min_period", || {
        let p = min_period(&report.checks, cfg.target_yield);
        let curve = seq_yield_curve(&report.checks, cfg.curve_points);
        (p, curve)
    });
    if solved.0.map(f64::to_bits) != report.min_period.map(f64::to_bits) || solved.1 != report.curve
    {
        return Err(format!(
            "min_period/seq_yield_curve replay of {} diverges from the engine",
            circuit.name()
        ));
    }
    let text = span("render", || {
        report::deterministic_sequential_report(&report, top)
    });
    Ok((report, text))
}

/// Replays the kernels of every check whose inter-die key is new to
/// `store` — intra, inter and the convolution — and requires the
/// engine's `X` PDF bits. Negative effective (A, B) sums from clock
/// skew reach the inter kernel here.
fn seq_kernels(
    report: &SequentialReport,
    cfg: &SequentialConfig,
    store: &ReplayStore,
    counts: &Counts,
) -> Res<()> {
    let s = settings(&cfg.ssta);
    for check in &report.checks {
        // Each check looked up one intra and one inter kernel.
        add(&counts.lookups, 2);
        add(&counts.inter_lookups, 1);
        let ab = check.ab_eff;
        store.note_intra(check.var_eff, counts);
        if store
            .seen
            .lock()
            .expect("replay key set")
            .contains(&(ab.alpha.to_bits(), ab.beta.to_bits()))
        {
            continue;
        }
        let intra = span("intra", || {
            intra_pdf(check.var_eff, s.vars.trunc_k, s.quality_intra)
        })
        .map_err(err)?;
        let inter = span("inter", || {
            inter::inter_pdf(
                &ab,
                &cfg.ssta.tech,
                &s.vars,
                &s.layers,
                s.marginal,
                s.quality_inter,
            )
        })
        .map_err(err)?;
        let x = span("convolve", || {
            sum_pdf_resampled_with(
                s.backend,
                &intra,
                &inter,
                s.quality_intra.max(s.quality_inter),
            )
        })
        .map_err(err)?;
        if !same_pdf_bits(&x, &check.x_pdf) {
            return Err(format!(
                "kernel replay of check {} diverges from the engine's X PDF",
                check.capture_name
            ));
        }
        store.note(&ab, &inter, counts);
    }
    store.check_misses(&cfg.ssta, counts)
}

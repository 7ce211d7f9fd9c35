//! statim benchmark: three closed-loop workloads, end-to-end metrics
//! with tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <cold-oneshot|eco-chain|warm-serve> --seed N \
//!           --seconds S --trace 0|1
//! perfbench steady --workloads a,b --seeds 1,2,3 --seconds S [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See README.md for what each workload stresses and why.

mod cold;
mod eco;
mod replay;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use util::{median, percentile, quartiles};

/// Worker threads for every engine run and replay, and the daemon's
/// connection workers and client count: explicit, never "all cores".
pub const THREADS: usize = 2;

/// Every run repeats its round (set-up + the seeded op list) at least
/// this often, so `setup_s` and `wall_s` are medians of several samples.
const MIN_ROUNDS: usize = 3;

/// No new round starts after this many seconds, whatever `--seconds`
/// asks for, so a run always ends well inside three minutes.
const MAX_RUN_SECS: f64 = 100.0;

pub const WORKLOADS: [&str; 3] = ["cold-oneshot", "eco-chain", "warm-serve"];

/// End-to-end metrics: (name, unit). `ok_frac` is `1 - failed_frac`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("paths_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("characterize.ms", "ms"),
    ("labels.ms", "ms"),
    ("labels.sweeps", "count"),
    ("enumerate.ms", "ms"),
    ("enumerate.paths", "count"),
    ("analyze.ms", "ms"),
    ("analyze.calls", "count"),
    ("inter.misses", "count"),
    ("inter.ms", "ms"),
    ("inter.ms_per_miss", "ms"),
    ("inter.geometry_ms", "ms"),
    ("inter.voltage_ms", "ms"),
    ("inter.combine_ms", "ms"),
    ("inter.map3_evals", "count"),
    ("inter.analyze_share", "ratio"),
    ("intra.ms", "ms"),
    ("convolve.ms", "ms"),
    ("convolve.calls", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.inter_hit_rate", "ratio"),
    ("pool.utilization", "ratio"),
    ("rank.ms", "ms"),
    ("worst_case.ms", "ms"),
    ("render.ms", "ms"),
    ("eco.apply_ms", "ms"),
    ("eco.dirty_gates", "count"),
    ("eco.cone_gates", "count"),
    ("eco.paths_reused", "count"),
    ("eco.paths_recomputed", "count"),
    ("eco.reuse_ratio", "ratio"),
    ("eco.recompute_edits", "count"),
    ("seq.ms", "ms"),
    ("seq.checks", "count"),
    ("seq.min_period_ms", "ms"),
    ("serve.store_hit_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.store_hits", "count"),
    ("serve.rejected", "count"),
    ("serve.throttled", "count"),
    ("serve.expired", "count"),
    ("serve.store_write_errors", "count"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
];

#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run measured, round by round.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output or fidelity mismatches; any one makes the run incorrect.
    pub mismatches: Vec<String>,
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Near-critical paths (timing checks for sequential jobs) in the
    /// reports of each round.
    pub paths: Vec<u64>,
    /// Exact work counts per round; they must repeat round to round.
    pub counts: Vec<BTreeMap<String, u64>>,
    /// Per-layer metric values per round (traced runs only).
    pub layers: Vec<BTreeMap<String, f64>>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Books a failed op: an error, a refusal or an expired job.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("perfbench: failed op: {why}");
    }

    /// Books an op whose output is wrong (a mismatch against the
    /// reference): it fails, and the run is not correct.
    pub fn wrong(&mut self, why: String) {
        self.failed += 1;
        eprintln!("perfbench: wrong output: {why}");
        self.mismatches.push(why);
    }
}

/// Runs rounds until `--seconds` have passed (at least [`MIN_ROUNDS`]).
pub fn rounds(cfg: &RunCfg, mut round: impl FnMut(usize, &mut Outcome)) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut r = 0;
    while r < MIN_ROUNDS || (util::secs(start) < cfg.seconds && util::secs(start) < MAX_RUN_SECS) {
        round(r, &mut out);
        r += 1;
    }
    out
}

/// Closes a traced round: per-layer values from the round's spans and
/// counts, the pool utilization (mean over the round's analyze runs) and
/// the tracing overhead against `untraced_s`; `extra` adds the
/// workload's own values.
pub fn push_traced_round(
    out: &mut Outcome,
    counts: &BTreeMap<String, u64>,
    untraced_s: f64,
    utilization: &[f64],
    extra: impl FnOnce(&mut BTreeMap<String, f64>),
) {
    let spans = trace::take();
    let mut v = layer_values(&spans, counts);
    v.insert(
        "pool.utilization".into(),
        utilization.iter().sum::<f64>() / utilization.len().max(1) as f64,
    );
    let traced = v["trace.traced_s"];
    v.insert("trace.untraced_s".into(), untraced_s);
    v.insert("trace.overhead_s".into(), traced - untraced_s);
    extra(&mut v);
    out.layers.push(v);
    out.spans.extend(spans);
}

/// Per-layer values of one traced round, from its spans and counts.
fn layer_values(spans: &[trace::Span], counts: &BTreeMap<String, u64>) -> BTreeMap<String, f64> {
    let t = trace::totals(spans);
    let ms = |n: &str| t.get(n).map_or(0.0, |x| x.ms);
    let calls = |n: &str| t.get(n).map_or(0, |x| x.calls) as f64;
    let count = |n: &str| counts.get(n).copied().unwrap_or(0) as f64;
    let mut v = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    for (name, metric) in [
        ("characterize", "characterize.ms"),
        ("labels", "labels.ms"),
        ("enumerate", "enumerate.ms"),
        ("analyze", "analyze.ms"),
        ("inter", "inter.ms"),
        ("inter.geometry", "inter.geometry_ms"),
        ("inter.voltage", "inter.voltage_ms"),
        ("inter.combine", "inter.combine_ms"),
        ("intra", "intra.ms"),
        ("convolve", "convolve.ms"),
        ("rank", "rank.ms"),
        ("worst_case", "worst_case.ms"),
        ("render", "render.ms"),
        ("seq", "seq.ms"),
        ("seq.min_period", "seq.min_period_ms"),
        ("eco.apply", "eco.apply_ms"),
    ] {
        put(metric, ms(name));
    }
    put("analyze.calls", calls("analyze"));
    put("convolve.calls", calls("convolve"));
    for k in [
        "labels.sweeps",
        "enumerate.paths",
        "inter.misses",
        "inter.map3_evals",
        "cache.lookups",
        "seq.checks",
    ] {
        put(k, count(k));
    }
    let misses = count("inter.misses");
    put(
        "inter.ms_per_miss",
        if misses > 0.0 {
            ms("inter") / misses
        } else {
            0.0
        },
    );
    let analyze_ms = ms("analyze");
    put(
        "inter.analyze_share",
        if analyze_ms > 0.0 {
            trace::ms_under(spans, "inter", "analyze") / analyze_ms
        } else {
            0.0
        },
    );
    let lookups = count("cache.lookups");
    let inter_lookups = count("inter.lookups");
    let all_misses = misses + count("intra.misses") + count("corner.misses");
    put(
        "cache.hit_rate",
        if lookups > 0.0 {
            1.0 - all_misses / lookups
        } else {
            0.0
        },
    );
    put(
        "cache.inter_hit_rate",
        if inter_lookups > 0.0 {
            1.0 - misses / inter_lookups
        } else {
            0.0
        },
    );
    let traced = ms("op") / 1e3;
    put("trace.traced_s", traced);
    v
}

/// Compares this run's counts with a record of an earlier run of the
/// same seed in this checkout (written on first use), and checks that
/// rounds repeated them exactly.
fn check_counts(workload: &str, cfg: &RunCfg, out: &mut Outcome) -> BTreeMap<String, u64> {
    let Some(first) = out.counts.first().cloned() else {
        return BTreeMap::new();
    };
    for (r, c) in out.counts.iter().enumerate().skip(1) {
        if *c != first {
            let diff: Vec<String> = first
                .iter()
                .filter(|(k, v)| c.get(*k) != Some(*v))
                .map(|(k, v)| format!("{k} {v} -> {:?}", c.get(k)))
                .collect();
            out.mismatches.push(format!(
                "round {r} counts differ from round 0: {}",
                diff.join(", ")
            ));
        }
    }
    // Keyed by this executable's size and mtime, so a record never
    // outlives the build (of the program or of the benchmark) that
    // wrote it.
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map_or(0, |m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos() as u64);
            util::fnv(util::fnv(0, &m.len().to_le_bytes()), &mtime.to_le_bytes())
        });
    let path = util::out_dir().join(format!(
        "counts-{workload}-seed{}-trace{}-{build:016x}.txt",
        cfg.seed, cfg.trace as u8
    ));
    let rendered: String = first.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != rendered => out.mismatches.push(format!(
            "counts differ from the earlier run of this seed recorded in {}",
            path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::write(&path, &rendered);
        }
    }
    first
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// Prints the human-readable table and the JSON result line.
fn report(workload: &str, cfg: &RunCfg, mut out: Outcome) {
    let peak_rss_mb = util::peak_rss_mb();
    let counts = check_counts(workload, cfg, &mut out);
    let attempted = out.attempted.max(1);
    let failed_frac = out.failed as f64 / attempted as f64;
    let walls = &out.wall_s;
    let paths_per_s: Vec<f64> = out
        .paths
        .iter()
        .zip(walls)
        .map(|(&p, &w)| p as f64 / w)
        .collect();
    let e2e: BTreeMap<&str, (f64, usize)> = [
        ("setup_s", (median(&out.setup_s), out.setup_s.len())),
        ("wall_s", (median(walls), walls.len())),
        ("paths_per_s", (median(&paths_per_s), paths_per_s.len())),
        ("p50_ms", (percentile(&out.op_ms, 50.0), out.op_ms.len())),
        ("p90_ms", (percentile(&out.op_ms, 90.0), out.op_ms.len())),
        ("peak_rss_mb", (peak_rss_mb, 1)),
        ("ok_frac", (1.0 - failed_frac, out.attempted as usize)),
    ]
    .into_iter()
    .collect();
    let mut human = String::new();
    let _ = writeln!(
        human,
        "workload {workload}  seed {}  trace {}  rounds {}  ops {}  failed {} (failed_frac {failed_frac})  threads {THREADS}  cpus {}",
        cfg.seed,
        cfg.trace as u8,
        out.wall_s.len(),
        out.attempted,
        out.failed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut metrics = Vec::new();
    if cfg.trace {
        let layer_names: Vec<&String> = out
            .layers
            .first()
            .map(|l| l.keys().collect())
            .unwrap_or_default();
        let mut med: BTreeMap<String, f64> = BTreeMap::new();
        for k in layer_names {
            let vals: Vec<f64> = out
                .layers
                .iter()
                .filter_map(|l| l.get(k).copied())
                .collect();
            med.insert(k.clone(), median(&vals));
        }
        for (name, unit) in PER_LAYER {
            let v = med.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(
                human,
                "  {name:<26} {v:>16.6} {unit:<6} (median of {} rounds)",
                out.layers.len()
            );
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
        let (inside, outside) = trace::split_by_root(&out.spans, "op");
        for (title, spans) in [
            ("inside traced ops", &inside),
            (
                "outside ops (fidelity replays of inter misses and seq kernels)",
                &outside,
            ),
        ] {
            let totals = trace::totals(spans);
            let busy: f64 = totals
                .values()
                .map(|t| t.self_ms.max(0.0))
                .sum::<f64>()
                .max(1e-9);
            let _ = writeln!(
                human,
                "  self time by span {title}, all rounds (share of summed busy time):"
            );
            let mut by_self: Vec<_> = totals.iter().collect();
            by_self.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
            for (name, t) in by_self {
                let _ = writeln!(
                    human,
                    "    {name:<16} self {:>12.3} ms  total {:>12.3} ms  calls {:>9}  share {:>6.2} %",
                    t.self_ms.max(0.0),
                    t.ms,
                    t.calls,
                    100.0 * t.self_ms.max(0.0) / busy
                );
            }
        }
        let path = util::out_dir().join(format!("trace-{workload}-seed{}.tsv", cfg.seed));
        if trace::write_tsv(&path, &out.spans).is_ok() {
            let _ = writeln!(
                human,
                "  spans: {} written to {}",
                out.spans.len(),
                path.display()
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let (v, n) = e2e[name];
            let _ = writeln!(human, "  {name:<12} {v:>16.6} {unit:<6} (samples {n})");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
    }
    let _ = writeln!(human, "  exact counts (repeat for the same seed):");
    for (k, v) in &counts {
        let _ = writeln!(human, "    {k:<24} {v}");
    }
    let correct = out.mismatches.is_empty();
    for m in out.mismatches.iter().take(20) {
        let _ = writeln!(human, "  MISMATCH: {m}");
    }
    print!("{human}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed,
        metrics.join(", ")
    );
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n       perfbench steady --workloads a,b --seeds 1,2,3 --seconds S [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return steady(&args[1..]);
    }
    let Some(workload) = flag(&args, "--workload") else {
        return usage("missing --workload");
    };
    let arg = |name: &str, default: &'static str| flag(&args, name).unwrap_or(default);
    let (Ok(seed), Ok(seconds), Ok(trace)) = (
        arg("--seed", "1").parse::<u64>(),
        arg("--seconds", "10").parse::<f64>(),
        arg("--trace", "0").parse::<u8>(),
    ) else {
        return usage("--seed, --seconds and --trace take numbers");
    };
    let cfg = RunCfg {
        seed,
        seconds,
        trace: trace != 0,
    };
    let out = match workload {
        "cold-oneshot" => cold::run(&cfg),
        "eco-chain" => eco::run(&cfg),
        "warm-serve" => serve::run(&cfg),
        other => return usage(&format!("unknown workload `{other}`")),
    };
    // A finished run exits 0 and reports correctness in its result
    // line; only a run that could not produce a result fails.
    report(workload, &cfg, out);
    ExitCode::SUCCESS
}

/// Steadiness report: runs each workload once per seed (each in its own
/// process) and prints, per metric, the median, the quartiles, the
/// quartile spread as a share of the median and the largest deviation
/// from the median.
fn steady(args: &[String]) -> ExitCode {
    let workloads: Vec<&str> = flag(args, "--workloads")
        .unwrap_or("cold-oneshot,eco-chain,warm-serve")
        .split(',')
        .collect();
    let seeds: Vec<&str> = flag(args, "--seeds")
        .unwrap_or("1,2,3,4,5")
        .split(',')
        .collect();
    let seconds = flag(args, "--seconds").unwrap_or("10");
    let trace = flag(args, "--trace").unwrap_or("0");
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut ok = true;
    for w in &workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &seeds {
            let run = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    s,
                    "--seconds",
                    seconds,
                    "--trace",
                    trace,
                ])
                .stderr(std::process::Stdio::inherit())
                .output();
            let Ok(run) = run else {
                return usage("could not start a benchmark run");
            };
            let stdout = String::from_utf8_lossy(&run.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !run.status.success() || !last.contains("\"correct\": true") {
                ok = false;
                println!("{w} seed {s}: FAILED ({last})");
            }
            for (name, v) in parse_metrics(last) {
                values.entry(name).or_default().push(v);
            }
        }
        println!(
            "{w}: {} seeds, --seconds {seconds}, --trace {trace}",
            seeds.len()
        );
        println!(
            "  {:<22} {:>14} {:>14} {:>14} {:>9} {:>9}",
            "metric", "median", "q1", "q3", "iqr/med", "maxdev"
        );
        for (name, v) in &values {
            let [q1, med, q3] = quartiles(v);
            let maxdev = v.iter().map(|x| (x - med).abs()).fold(0.0, f64::max);
            let rel = |x: f64| if med != 0.0 { x / med.abs() } else { 0.0 };
            let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "  {name:<22} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>8.2}% {:>8.2}%  [{}]",
                100.0 * rel(q3 - q1),
                100.0 * rel(maxdev),
                all.join(" ")
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Pulls `"name": {"value": x` pairs out of a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find("{\"value\": ") {
        let before = &rest[..i];
        let name = before.rsplit('"').nth(1).unwrap_or_default().to_string();
        let after = &rest[i + 10..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = &after[end..];
    }
    out
}

//! **Kernel study** — the two per-path kernel layers, each timed against
//! its reference.
//!
//! *Convolution* (the §3.2 PDF sum): for each QUALITY the grid and FFT
//! backends convolve identical Gaussian operands (the `pdf_kernels`
//! bench pair). The grid backend is the exact O(Q²) cell-pair sum; the
//! FFT backend is the O(Q log Q) spectral path. Before timing, the FFT
//! result is checked against the grid result (sup-norm ≤ 1e-10 of the
//! peak density) so a speedup can never be bought with a wrong answer.
//!
//! *Inter-die PDF* (eq. (13)): one cache miss of a 16-gate NAND2 path,
//! evaluated by the `map3` expression the tabulated kernel replaced
//! (voltage function at all Q³ points, twice) and by
//! [`InterKernel::pdf`] on a prebuilt kernel, plus the once-per-settings
//! [`InterKernel::new`]. Both must give the same grid and density bits
//! before either is timed.
//!
//! Results overwrite `BENCH_kernels.json` at the repo root
//! (hand-rendered JSON, no serde).
//!
//! ```text
//! cargo run -p statim-bench --release --bin kernel_backends \
//!     [-- --repeats 5]
//! ```

use statim_core::correlation::LayerModel;
use statim_core::inter::{inter_param_pdf, InterKernel};
use statim_process::delay::voltage_kernel;
use statim_process::param::Variations;
use statim_process::tech::{AlphaBeta, Technology, ELMORE_K};
use statim_process::{GateKind, Load, Param};
use statim_stats::combine::{map2, map3, product_pdf};
use statim_stats::convolve::{sum_pdf_with, ConvolveBackend};
use statim_stats::gaussian::gaussian_pdf;
use statim_stats::tabulate::format_table;
use statim_stats::{Marginal, Pdf};
use std::fmt::Write as _;
use std::time::Instant;

const QUALITIES: &[usize] = &[50, 100, 200, 400, 800];
const INTER_QUALITIES: &[usize] = &[25, 50, 100];

fn repeats_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--repeats")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
}

/// Per-call wall time in nanoseconds: best of `repeats` timed blocks,
/// each block sized to run ≥ 50 ms so the clock resolution is noise.
fn time_ns<T>(repeats: usize, f: &dyn Fn() -> T) -> f64 {
    let probe = Instant::now();
    let _ = f();
    let once = probe.elapsed().as_secs_f64();
    let per_block = ((0.05 / once.max(1e-9)) as usize).clamp(1, 100_000);
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..per_block {
            std::hint::black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64() / per_block as f64);
    }
    best * 1e9
}

/// The separable inter-die PDF as `map3` evaluates it: the voltage
/// function at every (Vdd, VTn, VTp) cell triple, for the range and again
/// for the binning. Positive `ab`, non-zero inter share.
fn map3_inter_pdf(ab: &AlphaBeta, tech: &Technology, vars: &Variations, q: usize) -> Pdf {
    let layers = LayerModel::date05();
    let pdf = |p: Param| {
        inter_param_pdf(p, tech, vars, &layers, Marginal::Gaussian, q).expect("marginal")
    };
    let w = product_pdf(&pdf(Param::Tox), &pdf(Param::Leff), q).expect("geometry");
    let (a, b) = (ab.alpha, ab.beta);
    let z = map3(
        &pdf(Param::Vdd),
        &pdf(Param::Vtn),
        &pdf(Param::Vtp),
        q,
        |vdd, vtn, vtp| a * voltage_kernel(vdd, vtn) + b * voltage_kernel(vdd, vtp),
    )
    .expect("voltage");
    let k = ELMORE_K / tech.eps_ox;
    map2(&w, &z, q, |wv, zv| k * wv * zv).expect("combine")
}

/// Times one inter-die miss both ways at each QUALITY; returns the JSON
/// rows.
fn inter_study(repeats: usize) -> String {
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let layers = LayerModel::date05();
    let one = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
    let ab = AlphaBeta {
        alpha: one.alpha * 16.0,
        beta: one.beta * 16.0,
    };
    let header = [
        "QUALITY",
        "map3 (µs)",
        "tabulated (µs)",
        "speedup",
        "table build (µs)",
    ];
    let mut rows = Vec::new();
    let mut series = String::new();
    for &q in INTER_QUALITIES {
        let build =
            || InterKernel::new(&tech, &vars, &layers, Marginal::Gaussian, q).expect("kernel");
        let kernel = build();
        // Bit-identity gate before any timing.
        let want = map3_inter_pdf(&ab, &tech, &vars, q);
        let got = kernel.pdf(&ab).expect("tabulated");
        let bits = |p: &Pdf| (p.grid().lo().to_bits(), p.grid().step().to_bits(), p.len());
        assert_eq!(bits(&got), bits(&want), "Q={q}: grids differ");
        assert!(
            got.density()
                .iter()
                .zip(want.density())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "Q={q}: densities differ"
        );

        let map3_ns = time_ns(repeats, &|| map3_inter_pdf(&ab, &tech, &vars, q));
        let tab_ns = time_ns(repeats, &|| kernel.pdf(&ab).expect("tabulated"));
        let build_ns = time_ns(repeats, &build);
        let speedup = map3_ns / tab_ns;
        rows.push(vec![
            q.to_string(),
            format!("{:.1}", map3_ns / 1e3),
            format!("{:.1}", tab_ns / 1e3),
            format!("{speedup:.2}x"),
            format!("{:.1}", build_ns / 1e3),
        ]);
        if !series.is_empty() {
            series.push_str(",\n");
        }
        let _ = write!(
            series,
            "      {{\"quality\": {q}, \"map3_ns\": {map3_ns:.0}, \"tabulated_ns\": {tab_ns:.0}, \
             \"speedup\": {speedup:.3}, \"table_build_ns\": {build_ns:.0}}}"
        );
    }
    println!("== Inter-die PDF per miss: map3 vs tabulated kernel (best of {repeats}) ==");
    println!("{}", format_table(&header, &rows));
    series
}

fn main() {
    let repeats = repeats_from_args();
    let header = ["QUALITY", "cells", "grid (µs)", "fft (µs)", "fft speedup"];
    let mut rows = Vec::new();
    let mut series = String::new();

    for &quality in QUALITIES {
        let a = gaussian_pdf(0.0, 10.0, 6.0, quality);
        let b = gaussian_pdf(250.0, 25.0, 6.0, quality).resample(*a.grid());

        // Accuracy gate before any timing.
        let grid = sum_pdf_with(ConvolveBackend::Grid, &a, &b).expect("grid");
        let fft = sum_pdf_with(ConvolveBackend::Fft, &a, &b).expect("fft");
        let peak = grid.density().iter().cloned().fold(0.0f64, f64::max);
        for (x, y) in grid.density().iter().zip(fft.density()) {
            assert!(
                (x - y).abs() <= 1e-10 * peak,
                "Q={quality}: fft diverged from grid ({x} vs {y})"
            );
        }

        let grid_ns = time_ns(repeats, &|| {
            sum_pdf_with(ConvolveBackend::Grid, &a, &b).expect("grid")
        });
        let fft_ns = time_ns(repeats, &|| {
            sum_pdf_with(ConvolveBackend::Fft, &a, &b).expect("fft")
        });
        let speedup = grid_ns / fft_ns;

        rows.push(vec![
            quality.to_string(),
            a.len().to_string(),
            format!("{:.2}", grid_ns / 1e3),
            format!("{:.2}", fft_ns / 1e3),
            format!("{speedup:.2}x"),
        ]);
        if !series.is_empty() {
            series.push_str(",\n");
        }
        let _ = write!(
            series,
            "    {{\"quality\": {quality}, \"cells\": {}, \"grid_ns\": {grid_ns:.0}, \
             \"fft_ns\": {fft_ns:.0}, \"fft_speedup\": {speedup:.3}}}",
            a.len()
        );
    }

    println!("== Convolution backends: grid vs FFT (best of {repeats}) ==");
    println!("{}", format_table(&header, &rows));
    let inter = inter_study(repeats);

    let json = format!(
        "{{\n  \"experiment\": \"kernel-backends\",\n  \
         \"kernel\": \"sum_pdf gaussian x gaussian\",\n  \
         \"repeats\": {repeats},\n  \"points\": [\n{series}\n  ],\n  \
         \"inter\": {{\n    \"kernel\": \"inter_pdf miss, 16-gate NAND2 path, map3 vs InterKernel::pdf\",\n    \
         \"points\": [\n{inter}\n    ]\n  }}\n}}\n",
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}

//! Differential suite of the tabulated inter-die kernel.
//!
//! [`InterKernel::pdf`] must reproduce, bit for bit, the separable
//! evaluation it replaced: the geometry product, the voltage factor
//! enumerated by `map3` over the three voltage marginals, and the final
//! `map2` combine. That evaluation is rebuilt here from the public
//! `statim-stats` kernels, so the reference shares no code with the
//! tables, the `O(Q²)` range pass or the binning loop under test. Both
//! must also fail the same typed way when a grid corner leaves the
//! transistors' operating region.

use proptest::prelude::*;
use statim::core::correlation::LayerModel;
use statim::core::error::ErrorClass;
use statim::core::inter::{inter_param_pdf, inter_pdf, InterKernel};
use statim::core::CoreError;
use statim::process::delay::voltage_kernel;
use statim::process::param::Variations;
use statim::process::tech::{AlphaBeta, Technology, ELMORE_K};
use statim::process::{GateKind, Load, Param};
use statim::stats::combine::{map2, map3, product_pdf};
use statim::stats::{Grid, Marginal, Pdf, StatsError};

const MARGINALS: [Marginal; 3] = [Marginal::Gaussian, Marginal::Uniform, Marginal::Triangular];
const SHARES: [f64; 5] = [0.0, 0.2, 0.5, 0.75, 1.0];

/// The inter-die PDF as `map3`/`map2`/`product_pdf` compute it, with the
/// zero-coefficient and zero-inter-share deltas spelled out.
fn reference(
    ab: &AlphaBeta,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    q: usize,
) -> Result<Pdf, CoreError> {
    let w0 = layers.weights()?[0];
    let k = ELMORE_K / tech.eps_ox;
    if ab.alpha == 0.0 && ab.beta == 0.0 {
        return Ok(Pdf::delta(Grid::over(-1e-16, 1e-16, q)?, 0.0)?);
    }
    if w0 <= 0.0 {
        let pt = tech.nominal_point();
        let d = k
            * pt.tox()
            * pt.leff()
            * (ab.alpha * voltage_kernel(pt.vdd(), pt.vtn())
                + ab.beta * voltage_kernel(pt.vdd(), pt.vtp()));
        let span = d.abs().max(1e-22) * 1e-6;
        return Ok(Pdf::delta(Grid::over(d - span, d + span, q)?, d)?);
    }
    let pdf = |p: Param| inter_param_pdf(p, tech, vars, layers, marginal, q);
    let w = product_pdf(&pdf(Param::Tox)?, &pdf(Param::Leff)?, q)?;
    let (a, b) = (ab.alpha, ab.beta);
    let z = map3(
        &pdf(Param::Vdd)?,
        &pdf(Param::Vtn)?,
        &pdf(Param::Vtp)?,
        q,
        |vdd, vtn, vtp| a * voltage_kernel(vdd, vtn) + b * voltage_kernel(vdd, vtp),
    )?;
    Ok(map2(&w, &z, q, |wv, zv| k * wv * zv)?)
}

fn assert_bits(got: &Pdf, want: &Pdf, label: &str) {
    assert_eq!(
        got.grid().lo().to_bits(),
        want.grid().lo().to_bits(),
        "{label}: lo"
    );
    assert_eq!(
        got.grid().step().to_bits(),
        want.grid().step().to_bits(),
        "{label}: step"
    );
    assert_eq!(got.len(), want.len(), "{label}: cells");
    for (i, (x, y)) in got.density().iter().zip(want.density()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: density[{i}]");
    }
}

/// One 2-input NAND at fanout 2: the unit the signed sums are built from.
fn nand2() -> AlphaBeta {
    Technology::cmos130().alpha_beta(GateKind::Nand(2), &Load::fanout(2))
}

/// Signed multiples of one NAND2, covering positive paths, skew/CPPR
/// composites of either sign, one-sided zero coefficients and both zero.
fn signed_pairs() -> Vec<AlphaBeta> {
    let one = nand2();
    [
        (8.0, 8.0),
        (-8.0, -8.0),
        (-3.0, 5.0),
        (5.0, -3.0),
        (0.0, 4.0),
        (4.0, 0.0),
        (-0.0, -6.0),
        (0.0, 0.0),
        (1e-3, 40.0),
    ]
    .iter()
    .map(|&(na, nb)| AlphaBeta {
        alpha: one.alpha * na,
        beta: one.beta * nb,
    })
    .collect()
}

/// Checks every marginal × inter share × signed pair at quality `q`.
fn sweep(q: usize, marginals: &[Marginal], shares: &[f64]) {
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let pairs = signed_pairs();
    for &marginal in marginals {
        for &share in shares {
            let layers = LayerModel::with_inter_share(share);
            let kernel = InterKernel::new(&tech, &vars, &layers, marginal, q).expect("kernel");
            for ab in &pairs {
                let label = format!(
                    "{marginal:?} share {share} Q {q} A {:e} B {:e}",
                    ab.alpha, ab.beta
                );
                let want = reference(ab, &tech, &vars, &layers, marginal, q).expect(&label);
                assert_bits(&kernel.pdf(ab).expect(&label), &want, &label);
            }
        }
    }
}

#[test]
fn coarse_grids_match_map3_reference_bitwise() {
    for q in [2, 8, 24, 50] {
        sweep(q, &MARGINALS, &SHARES);
    }
}

// The Q³ = 8·10⁶-point reference costs about a second per pair at
// Q = 200 even optimized. Release builds (the CI kernel job) run the
// whole matrix; unoptimized builds check the paper's configuration —
// Gaussian inputs at a 20 % inter share — plus the zero-share delta.
#[test]
fn q100_matches_map3_reference_bitwise() {
    fine_sweep(100);
}

#[test]
fn q200_matches_map3_reference_bitwise() {
    fine_sweep(200);
}

fn fine_sweep(q: usize) {
    if cfg!(debug_assertions) {
        sweep(q, &[Marginal::Gaussian], &[0.0, 0.2]);
    } else {
        sweep(q, &MARGINALS, &SHARES);
    }
}

#[test]
fn inter_pdf_is_the_kernel_built_once() {
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let layers = LayerModel::date05();
    let kernel = InterKernel::new(&tech, &vars, &layers, Marginal::Gaussian, 50).expect("kernel");
    for ab in signed_pairs() {
        let once = inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 50).expect("inter");
        assert_bits(
            &kernel.pdf(&ab).expect("pdf"),
            &once,
            "inter_pdf vs reused kernel",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random finite signed sums, well inside and far outside the
    // magnitudes real paths and skew composites produce.
    #[test]
    fn random_signed_sums_match_bitwise(
        na in -60.0..60.0f64,
        nb in -60.0..60.0f64,
        q in 2usize..40,
        m in 0usize..3,
        share in 0.05..1.0f64,
    ) {
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let layers = LayerModel::with_inter_share(share);
        let one = nand2();
        let ab = AlphaBeta { alpha: one.alpha * na, beta: one.beta * nb };
        let marginal = MARGINALS[m];
        let kernel = InterKernel::new(&tech, &vars, &layers, marginal, q).expect("kernel");
        let want = reference(&ab, &tech, &vars, &layers, marginal, q).expect("reference");
        assert_bits(&kernel.pdf(&ab).expect("pdf"), &want, "proptest");
    }
}

/// Variations wide enough that `VTn ≥ 0.75·Vdd` at some grid corner, so
/// `f(Vdd, VTn) = ∞` there while `f(Vdd, |VTp|)` stays finite.
fn out_of_region() -> (Variations, LayerModel) {
    let mut vars = Variations::date05();
    vars.sigma.set(Param::Vtn, 0.15);
    (vars, LayerModel::with_inter_share(1.0))
}

#[test]
fn out_of_region_corner_fails_typed_like_map3() {
    let tech = Technology::cmos130();
    let (vars, layers) = out_of_region();
    let one = nand2();
    let kernel = InterKernel::new(&tech, &vars, &layers, Marginal::Gaussian, 50).expect("kernel");
    // A = 0 makes the infinite entries 0·∞ = NaN, which `f64::min`/`max`
    // would silently skip: only an explicit finiteness check catches it.
    for (na, nb) in [(1.0, 1.0), (0.0, 1.0), (-2.0, 3.0), (1.0, 0.0)] {
        let ab = AlphaBeta {
            alpha: one.alpha * na,
            beta: one.beta * nb,
        };
        let want = reference(&ab, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect_err("map3 rejects the out-of-region corner");
        let got = kernel.pdf(&ab).expect_err("the kernel rejects it too");
        assert_eq!(got, want, "A = {na}, B = {nb}");
        assert_eq!(
            got,
            CoreError::Stats(StatsError::NonFinite {
                what: "map3 output"
            })
        );
        assert_eq!(got.classify(), ErrorClass::Numeric, "CLI exit 5");
    }
    // Zero coefficients never touch the tables: still the delta.
    let zero = AlphaBeta {
        alpha: 0.0,
        beta: 0.0,
    };
    assert_bits(
        &kernel.pdf(&zero).expect("delta"),
        &reference(&zero, &tech, &vars, &layers, Marginal::Gaussian, 50).expect("delta"),
        "zero coefficients",
    );
}

#[test]
fn construction_errors_surface_per_path_and_spare_the_zero_delta() {
    // A zero σ cannot build a marginal; like the direct evaluation, the
    // kernel reports it for every non-zero path but not for A = B = 0.
    let tech = Technology::cmos130();
    let mut vars = Variations::date05();
    vars.sigma.set(Param::Tox, 0.0);
    let layers = LayerModel::date05();
    let kernel = InterKernel::new(&tech, &vars, &layers, Marginal::Gaussian, 50).expect("kernel");
    let ab = nand2();
    assert_eq!(
        kernel.pdf(&ab).expect_err("zero σ"),
        reference(&ab, &tech, &vars, &layers, Marginal::Gaussian, 50).expect_err("zero σ")
    );
    let zero = AlphaBeta {
        alpha: 0.0,
        beta: 0.0,
    };
    assert!(kernel.pdf(&zero).is_ok());
}

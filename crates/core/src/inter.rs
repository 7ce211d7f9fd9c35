//! Inter-die path delay PDF — the non-linear part of eq. (13).
//!
//! The inter-die delay of an N-gate path is the exact delay expression
//! evaluated at the shared inter-die operating point `X₀,₀`:
//!
//! ```text
//! t_inter = 0.345/εox · tox·Leff · [ A·f(Vdd,VTn) + B·f(Vdd,|VTp|) ]
//! A = Σᵢ αᵢ,  B = Σᵢ βᵢ
//! ```
//!
//! Its PDF is computed **numerically** on discretized grids. A naive
//! enumeration costs `O(QUALITYinter^R)` with `R = 5`; following the
//! paper's separability advice (§2.5) we factor the expression into the
//! geometry product `tox·Leff` (a 2-D kernel) and the voltage term (a 3-D
//! kernel), then combine the two factors — `O(Q³)` total. The direct
//! `O(Q⁵)` enumeration is retained for validation (ablation 2).
//!
//! Only `A` and `B` vary between paths. [`InterKernel`] therefore holds
//! everything else — the voltage marginals, the geometry PDF and the two
//! `Q²` tables of `f(Vdd, VTn)` and `f(Vdd, |VTp|)` — so a path pays
//! `O(Q²)` for scaling the tables and finding the output range, plus the
//! `O(Q³)` binning, and never evaluates `f` (two `powf`) again.

#![warn(clippy::unwrap_used)]

use crate::correlation::LayerModel;
use crate::Result;
use statim_process::delay::voltage_kernel;
use statim_process::param::Variations;
use statim_process::tech::{AlphaBeta, Technology, ELMORE_K};
use statim_process::Param;
use statim_stats::combine::{map2, output_grid, product_pdf};
use statim_stats::{Grid, Marginal, Pdf, StatsError};

/// The marginal PDF of one inter-die parameter: a Gaussian centred on the
/// nominal with the layer-0 share of the total variance, truncated at the
/// spec's `trunc_k`.
///
/// # Errors
///
/// Propagates configuration errors (zero inter share yields a degenerate
/// distribution and is reported as an error by the Gaussian constructor;
/// callers use [`inter_pdf`], which special-cases that).
pub fn inter_param_pdf(
    p: Param,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> Result<Pdf> {
    let w0 = layers.weights()?[0];
    let sigma = vars.sigma.get(p) * w0.sqrt();
    Ok(marginal.pdf(tech.nominal(p), sigma, vars.trunc_k, quality)?)
}

/// Computes the inter-die delay PDF of a path with coefficient sums `ab`,
/// using the separable 2-D × 3-D evaluation. `quality` is the paper's
/// `QUALITYinter` (50 in the evaluation).
///
/// When the layer model assigns zero variance to the inter-die layer
/// (Table 3's "only intra" scenario), the result degenerates to a Dirac
/// delta at the nominal inter-die delay.
///
/// This builds a one-off [`InterKernel`]; callers that evaluate many paths
/// under the same settings should build the kernel once and call
/// [`InterKernel::pdf`] per path (same bits).
///
/// # Errors
///
/// Propagates grid and configuration failures.
pub fn inter_pdf(
    ab: &AlphaBeta,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> Result<Pdf> {
    InterKernel::new(tech, vars, layers, marginal, quality)?.pdf(ab)
}

/// The path-independent part of the inter-die kernel, built once per
/// (technology, variations, layers, marginal, quality).
#[derive(Debug)]
pub struct InterKernel {
    quality: usize,
    factors: Factors,
}

#[derive(Debug)]
enum Factors {
    /// Zero inter-die share: every die sits at the nominal point, and
    /// the delay is `geometry · (A·f_tn + B·f_tp)`.
    Nominal { geometry: f64, f_tn: f64, f_tp: f64 },
    /// The tabulated factors, or the error building them (say, a zero σ)
    /// returned by every [`InterKernel::pdf`] that needs them — a path
    /// with zero coefficients still gets its delta.
    Tabulated(Result<Box<Tables>>),
}

#[derive(Debug)]
struct Tables {
    /// `K = 0.345/εox`.
    k: f64,
    /// Geometry factor `W = tox·Leff`.
    geometry: Pdf,
    vdd: Pdf,
    vtn: Pdf,
    vtp: Pdf,
    /// `tn[i·|VTn| + j] = f(vdd_i, vtn_j)` at the cell centres.
    tn: Vec<f64>,
    /// `tp[i·|VTp| + k] = f(vdd_i, vtp_k)` at the cell centres.
    tp: Vec<f64>,
}

impl InterKernel {
    /// Builds the marginals, the geometry PDF and the voltage tables.
    ///
    /// # Errors
    ///
    /// Fails only on an invalid layer model. A failure to build the
    /// marginals or tables is kept and surfaces from [`InterKernel::pdf`]
    /// for every path that needs them, exactly as a direct evaluation
    /// would report it.
    pub fn new(
        tech: &Technology,
        vars: &Variations,
        layers: &LayerModel,
        marginal: Marginal,
        quality: usize,
    ) -> Result<Self> {
        let w0 = layers.weights()?[0];
        let factors = if w0 <= 0.0 {
            let pt = tech.nominal_point();
            Factors::Nominal {
                geometry: ELMORE_K / tech.eps_ox * pt.tox() * pt.leff(),
                f_tn: voltage_kernel(pt.vdd(), pt.vtn()),
                f_tp: voltage_kernel(pt.vdd(), pt.vtp()),
            }
        } else {
            Factors::Tabulated(Tables::new(tech, vars, layers, marginal, quality).map(Box::new))
        };
        Ok(InterKernel { quality, factors })
    }

    /// The inter-die delay PDF of a path with coefficient sums `ab`:
    /// `K · W · (A·f(Vdd,VTn) + B·f(Vdd,|VTp|))`, binned exactly as the
    /// separable `map3`/`map2` evaluation bins it.
    ///
    /// # Errors
    ///
    /// A `StatsError::NonFinite` when some grid corner leaves the
    /// transistors' operating region (`f = ∞`) under a non-zero
    /// coefficient, plus any stored construction error.
    pub fn pdf(&self, ab: &AlphaBeta) -> Result<Pdf> {
        if ab.alpha == 0.0 && ab.beta == 0.0 {
            // Zero coefficients (possible for derate-balanced clock-skew
            // differences): the inter-die contribution is identically zero.
            let grid = Grid::over(-1e-16, 1e-16, self.quality)?;
            return Ok(Pdf::delta(grid, 0.0)?);
        }
        let tables = match &self.factors {
            Factors::Nominal {
                geometry,
                f_tn,
                f_tp,
            } => {
                let d = geometry * (ab.alpha * f_tn + ab.beta * f_tp);
                // `d.abs()` keeps the span positive for negative
                // coefficient sums (skew differences); the floor keeps
                // the grid non-empty even at d == 0.
                let span = d.abs().max(1e-22) * 1e-6;
                let grid = Grid::over(d - span, d + span, self.quality)?;
                return Ok(Pdf::delta(grid, d)?);
            }
            Factors::Tabulated(Err(e)) => return Err(e.clone()),
            Factors::Tabulated(Ok(t)) => t,
        };
        let z = tables.voltage_pdf(ab.alpha, ab.beta, self.quality)?;
        let k = tables.k;
        Ok(map2(&tables.geometry, &z, self.quality, |wv, zv| {
            k * wv * zv
        })?)
    }
}

impl Tables {
    fn new(
        tech: &Technology,
        vars: &Variations,
        layers: &LayerModel,
        marginal: Marginal,
        quality: usize,
    ) -> Result<Self> {
        let pdf = |p: Param| inter_param_pdf(p, tech, vars, layers, marginal, quality);
        let geometry = product_pdf(&pdf(Param::Tox)?, &pdf(Param::Leff)?, quality)?;
        let (vdd, vtn, vtp) = (pdf(Param::Vdd)?, pdf(Param::Vtn)?, pdf(Param::Vtp)?);
        let table = |vt: &Pdf| -> Vec<f64> {
            vdd.grid()
                .centers()
                .flat_map(|v| vt.grid().centers().map(move |t| voltage_kernel(v, t)))
                .collect()
        };
        let (tn, tp) = (table(&vtn), table(&vtp));
        Ok(Tables {
            k: ELMORE_K / tech.eps_ox,
            geometry,
            vdd,
            vtn,
            vtp,
            tn,
            tp,
        })
    }

    /// The voltage factor `Z = A·f(Vdd,VTn) + B·f(Vdd,|VTp|)` — what
    /// `map3` over the three voltage marginals computes, bit for bit,
    /// from the tables.
    fn voltage_pdf(&self, a: f64, b: f64, quality: usize) -> Result<Pdf> {
        // Every table entry meets every entry of the other table in some
        // sum, so a sum is non-finite iff a scaled entry is (or the sum
        // overflows, caught at the range below). The explicit check
        // matters: `f64::min`/`max` would skip the NaN of `0·∞`.
        let scaled = |table: &[f64], c: f64| -> Result<Vec<f64>> {
            table
                .iter()
                .map(|&t| {
                    let v = c * t;
                    if v.is_finite() {
                        Ok(v)
                    } else {
                        Err(non_finite())
                    }
                })
                .collect()
        };
        let (sn, sp) = (scaled(&self.tn, a)?, scaled(&self.tp, b)?);
        let (ny, nz) = (self.vtn.len(), self.vtp.len());

        // Range in O(Q²): round-to-nearest addition is monotone in each
        // argument, so over k, fl(x + y_k) is smallest at the smallest
        // y_k and largest at the largest, for either sign of A and B.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (row_n, row_p) in sn.chunks_exact(ny).zip(sp.chunks_exact(nz)) {
            let (y_lo, y_hi) = row_p
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &y| {
                    (l.min(y), h.max(y))
                });
            for &x in row_n {
                lo = lo.min(x + y_lo);
                hi = hi.max(x + y_hi);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            return Err(non_finite());
        }

        // Binning in map3's (i, j, k) order with its weight expression
        // and cell index, so every cell accumulates the same terms in the
        // same order.
        let grid = output_grid(lo, hi, quality)?;
        let mut density = vec![0.0f64; grid.len()];
        let (ma, mb, mc) = (
            self.vdd.grid().step(),
            self.vtn.grid().step(),
            self.vtp.grid().step(),
        );
        let (db, dc) = (self.vtn.density(), self.vtp.density());
        for ((&da, row_n), row_p) in self
            .vdd
            .density()
            .iter()
            .zip(sn.chunks_exact(ny))
            .zip(sp.chunks_exact(nz))
        {
            let wx = da * ma;
            if wx == 0.0 {
                continue;
            }
            for (&dy, &x) in db.iter().zip(row_n) {
                let wxy = wx * dy * mb;
                if wxy == 0.0 {
                    continue;
                }
                for (&dz, &y) in dc.iter().zip(row_p) {
                    density[grid.clamp_cell_of(x + y)] += wxy * dz * mc;
                }
            }
        }
        let density = density.iter().map(|m| m / grid.step()).collect();
        Ok(Pdf::new(grid, density)?)
    }
}

/// The error `map3` reports for a non-finite voltage-factor value.
fn non_finite() -> crate::CoreError {
    StatsError::NonFinite {
        what: "map3 output",
    }
    .into()
}

/// Direct `O(quality⁵)` enumeration of the same distribution — the
/// validation reference for the separable path. Keep `quality` small
/// (≤ 16) or this becomes very slow.
///
/// # Errors
///
/// Propagates grid and configuration failures, and reports a non-finite
/// delay at any enumerated point.
pub fn inter_pdf_direct(
    ab: &AlphaBeta,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> Result<Pdf> {
    let k = ELMORE_K / tech.eps_ox;
    let pdfs: Vec<Pdf> = {
        let mut v = Vec::with_capacity(Param::COUNT);
        for p in Param::ALL {
            v.push(inter_param_pdf(p, tech, vars, layers, marginal, quality)?);
        }
        v
    };
    let centers: Vec<Vec<f64>> = pdfs.iter().map(|p| p.grid().centers().collect()).collect();
    let cell_mass: Vec<Vec<f64>> = pdfs
        .iter()
        .map(|p| p.density().iter().map(|d| d * p.grid().step()).collect())
        .collect();
    // Visits every (tox, Leff, Vdd, VTn, VTp) cell-centre tuple with its
    // delay and probability mass.
    let enumerate = |visit: &mut dyn FnMut(f64, f64)| {
        for (i0, &tox) in centers[0].iter().enumerate() {
            let m0 = cell_mass[0][i0];
            for (i1, &leff) in centers[1].iter().enumerate() {
                let m1 = m0 * cell_mass[1][i1];
                for (i2, &vdd) in centers[2].iter().enumerate() {
                    let m2 = m1 * cell_mass[2][i2];
                    for (i3, &vtn) in centers[3].iter().enumerate() {
                        let m3 = m2 * cell_mass[3][i3];
                        for (i4, &vtp) in centers[4].iter().enumerate() {
                            let d = k
                                * tox
                                * leff
                                * (ab.alpha * voltage_kernel(vdd, vtn)
                                    + ab.beta * voltage_kernel(vdd, vtp));
                            visit(d, m3 * cell_mass[4][i4]);
                        }
                    }
                }
            }
        }
    };
    // The output range comes from a min/max pass: with signed
    // coefficient sums (skew and CPPR composites) the delay is not
    // monotone in every parameter, so no pair of corners bounds it.
    let (mut lo, mut hi, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, true);
    enumerate(&mut |d, _| {
        finite &= d.is_finite();
        lo = lo.min(d);
        hi = hi.max(d);
    });
    if !finite {
        return Err(StatsError::NonFinite {
            what: "direct inter-die delay",
        }
        .into());
    }
    let grid = output_grid(lo, hi, quality)?;
    let mut mass = vec![0.0f64; grid.len()];
    enumerate(&mut |d, m| mass[grid.clamp_cell_of(d)] += m);
    let density: Vec<f64> = mass.iter().map(|m| m / grid.step()).collect();
    Ok(Pdf::new(grid, density)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use statim_process::{GateKind, Load};

    fn path_ab(n: usize) -> (Technology, AlphaBeta) {
        let tech = Technology::cmos130();
        let one = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
        (
            tech,
            AlphaBeta {
                alpha: one.alpha * n as f64,
                beta: one.beta * n as f64,
            },
        )
    }

    #[test]
    fn inter_pdf_scales_with_path_length() {
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let (tech, ab1) = path_ab(1);
        let (_, ab10) = path_ab(10);
        let p1 = inter_pdf(&ab1, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        let p10 = inter_pdf(&ab10, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        assert!((p10.mean() / p1.mean() - 10.0).abs() < 0.01);
        assert!((p10.std_dev() / p1.std_dev() - 10.0).abs() < 0.05);
    }

    #[test]
    fn inter_mean_close_to_nominal_delay() {
        // Jensen's gap exists (the paper stresses mean ≠ nominal) but it
        // is small relative to the delay.
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let (tech, ab) = path_ab(16);
        let pt = tech.nominal_point();
        let nominal = ELMORE_K / tech.eps_ox
            * pt.tox()
            * pt.leff()
            * (ab.alpha * voltage_kernel(pt.vdd(), pt.vtn())
                + ab.beta * voltage_kernel(pt.vdd(), pt.vtp()));
        let pdf = inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        let gap = (pdf.mean() - nominal).abs() / nominal;
        assert!(gap < 0.01, "gap {gap}");
        assert!(gap > 1e-7, "the non-linearity should leave a visible gap");
    }

    #[test]
    fn separable_matches_direct() {
        // Ablation 2: both evaluations describe the same distribution.
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let (tech, ab) = path_ab(8);
        let sep = inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 24)
            .expect("inter pdf computed");
        let dir = inter_pdf_direct(&ab, &tech, &vars, &layers, Marginal::Gaussian, 24)
            .expect("inter pdf computed");
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
        // Both are coarse histograms over the same ±6σ corner span; at 24
        // cells they agree to a percent on the mean and better than 10%
        // on σ (they converge together as quality grows).
        assert!(
            rel(sep.mean(), dir.mean()) < 0.01,
            "{} vs {}",
            sep.mean(),
            dir.mean()
        );
        assert!(
            rel(sep.std_dev(), dir.std_dev()) < 0.10,
            "{} vs {}",
            sep.std_dev(),
            dir.std_dev()
        );
    }

    #[test]
    fn separable_matches_direct_on_signed_sums() {
        // The O(Q⁵) oracle against the separable kernel over the signed
        // sums skew and CPPR composites produce, where delay falls in
        // some parameters and no pair of corners bounds the range.
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let (tech, one) = path_ab(1);
        for (na, nb) in [
            (8.0, 8.0),
            (-8.0, -8.0),
            (-3.0, 5.0),
            (5.0, -3.0),
            (0.0, -4.0),
            (-4.0, 0.0),
            (2.0, -1.0),
        ] {
            let ab = AlphaBeta {
                alpha: one.alpha * na,
                beta: one.beta * nb,
            };
            let sep =
                inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 16).expect("separable");
            let dir = inter_pdf_direct(&ab, &tech, &vars, &layers, Marginal::Gaussian, 16)
                .expect("direct");
            // Relative to the magnitude: the means share the sign of
            // the sums. At 16 cells the separable kernel's two re-binnings
            // widen σ by a few percent (it converges as quality grows).
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
            assert!(
                rel(sep.mean(), dir.mean()) < 0.015,
                "({na}, {nb}): mean {} vs {}",
                sep.mean(),
                dir.mean()
            );
            assert!(
                rel(sep.std_dev(), dir.std_dev()) < 0.12,
                "({na}, {nb}): σ {} vs {}",
                sep.std_dev(),
                dir.std_dev()
            );
        }
    }

    #[test]
    fn zero_inter_share_degenerates_to_delta() {
        let vars = Variations::date05();
        let layers = LayerModel::with_inter_share(0.0);
        let (tech, ab) = path_ab(5);
        let pdf = inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        assert!(pdf.std_dev() < 1e-17);
        assert!(pdf.mean() > 0.0);
    }

    #[test]
    fn more_inter_share_widens_pdf() {
        // Table 3's monotonicity at the inter level.
        let vars = Variations::date05();
        let (tech, ab) = path_ab(16);
        let s20 = inter_pdf(
            &ab,
            &tech,
            &vars,
            &LayerModel::date05(),
            Marginal::Gaussian,
            50,
        )
        .expect("test setup succeeds");
        let s50 = inter_pdf(
            &ab,
            &tech,
            &vars,
            &LayerModel::with_inter_share(0.5),
            Marginal::Gaussian,
            50,
        )
        .expect("test setup succeeds");
        let s75 = inter_pdf(
            &ab,
            &tech,
            &vars,
            &LayerModel::with_inter_share(0.75),
            Marginal::Gaussian,
            50,
        )
        .expect("test setup succeeds");
        assert!(s50.std_dev() > s20.std_dev());
        assert!(s75.std_dev() > s50.std_dev());
    }

    #[test]
    fn inter_param_pdf_uses_layer_share() {
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let layers = LayerModel::date05(); // w0 = 0.2
        let p = inter_param_pdf(Param::Leff, &tech, &vars, &layers, Marginal::Gaussian, 200)
            .expect("inter pdf computed");
        let expect = 15e-9 * 0.2f64.sqrt();
        assert!((p.std_dev() - expect).abs() / expect < 0.02);
        assert!((p.mean() - tech.leff).abs() < 1e-12);
    }
}

//! Density of a function of independent random variables by exhaustive
//! grid enumeration.
//!
//! The inter-die path delay of the paper is a *non-linear* function of the
//! five inter-die RVs, so its PDF cannot be obtained by convolution. The
//! paper computes it numerically at `O(QUALITYinter^R)` cost and advises
//! separating as many variables as possible (§2.5). These kernels perform
//! that enumeration for one, two and three variables; higher arities are
//! reached by factoring the delay expression (see `statim-core::inter`).
//!
//! Each input cell contributes its probability mass at the function value
//! of the cell centers; the mass is histogrammed onto an automatically
//! ranged output grid.

use crate::grid::Grid;
use crate::pdf::Pdf;
use crate::{Result, StatsError};

/// Builds the output grid for mapped values in `[lo, hi]` with `quality`
/// cells, padding degenerate ranges so the grid is valid. Kernels that
/// histogram their own values (the tabulated inter-die kernel) share it
/// so their grids match these maps' bit for bit.
///
/// # Errors
///
/// Returns [`StatsError::NonFinite`] for a non-finite bound and a grid
/// error for `quality == 0`.
pub fn output_grid(lo: f64, hi: f64, quality: usize) -> Result<Grid> {
    if !lo.is_finite() || !hi.is_finite() {
        return Err(StatsError::NonFinite {
            what: "mapped values",
        });
    }
    let (lo, hi) = if hi - lo > 0.0 {
        (lo, hi)
    } else {
        // All mass at a single value: widen symmetrically.
        let pad = lo.abs().max(1.0) * 1e-9;
        (lo - pad, hi + pad)
    };
    // Nudge the top edge outward so the maximum value falls inside.
    let span = hi - lo;
    Grid::over(lo, hi + span * 1e-12 + f64::MIN_POSITIVE, quality)
}

/// Density of `Y = f(X)` for `X ~ p`. `f` need not be monotone.
///
/// # Errors
///
/// Returns an error if `f` produces non-finite values or `quality == 0`.
///
/// # Examples
///
/// ```
/// use statim_stats::{combine::map1, gaussian::gaussian_pdf};
/// let x = gaussian_pdf(0.0, 1.0, 6.0, 400);
/// let y = map1(&x, 200, |v| v * v).unwrap(); // chi-squared with 1 dof
/// assert!((y.mean() - 1.0).abs() < 0.02);
/// ```
pub fn map1(p: &Pdf, quality: usize, mut f: impl FnMut(f64) -> f64) -> Result<Pdf> {
    let vals: Vec<f64> = p.grid().centers().map(&mut f).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &vals {
        if !v.is_finite() {
            return Err(StatsError::NonFinite {
                what: "map1 output",
            });
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let grid = output_grid(lo, hi, quality)?;
    let mut density = vec![0.0f64; grid.len()];
    let step_in = p.grid().step();
    for (i, &v) in vals.iter().enumerate() {
        density[grid.clamp_cell_of(v)] += p.density()[i] * step_in;
    }
    let density = density.iter().map(|m| m / grid.step()).collect();
    Pdf::new(grid, density)
}

/// Density of `Z = f(X, Y)` for independent `X ~ a`, `Y ~ b`.
/// Complexity `O(nₐ·n_b)`.
///
/// # Errors
///
/// Returns an error if `f` produces non-finite values or `quality == 0`.
pub fn map2(a: &Pdf, b: &Pdf, quality: usize, mut f: impl FnMut(f64, f64) -> f64) -> Result<Pdf> {
    let xs: Vec<f64> = a.grid().centers().collect();
    let ys: Vec<f64> = b.grid().centers().collect();
    let mut vals = Vec::with_capacity(xs.len() * ys.len());
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in &xs {
        for &y in &ys {
            let v = f(x, y);
            if !v.is_finite() {
                return Err(StatsError::NonFinite {
                    what: "map2 output",
                });
            }
            lo = lo.min(v);
            hi = hi.max(v);
            vals.push(v);
        }
    }
    let grid = output_grid(lo, hi, quality)?;
    let mut density = vec![0.0f64; grid.len()];
    let ma = a.grid().step();
    let mb = b.grid().step();
    let da = a.density();
    let db = b.density();
    let mut k = 0;
    for &dx in da.iter() {
        let wx = dx * ma;
        for &dy in db.iter() {
            density[grid.clamp_cell_of(vals[k])] += wx * dy * mb;
            k += 1;
        }
    }
    let density = density.iter().map(|m| m / grid.step()).collect();
    Pdf::new(grid, density)
}

/// Density of `W = f(X, Y, Z)` for three independent inputs.
/// Complexity `O(nₐ·n_b·n_c)` — the paper's `QUALITYinter³` kernel for the
/// voltage-dependent part of the inter-die delay.
///
/// # Errors
///
/// Returns an error if `f` produces non-finite values or `quality == 0`.
pub fn map3(
    a: &Pdf,
    b: &Pdf,
    c: &Pdf,
    quality: usize,
    mut f: impl FnMut(f64, f64, f64) -> f64,
) -> Result<Pdf> {
    let xs: Vec<f64> = a.grid().centers().collect();
    let ys: Vec<f64> = b.grid().centers().collect();
    let zs: Vec<f64> = c.grid().centers().collect();
    // First pass: range.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in &xs {
        for &y in &ys {
            for &z in &zs {
                let v = f(x, y, z);
                if !v.is_finite() {
                    return Err(StatsError::NonFinite {
                        what: "map3 output",
                    });
                }
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    let grid = output_grid(lo, hi, quality)?;
    let mut density = vec![0.0f64; grid.len()];
    let (ma, mb, mc) = (a.grid().step(), b.grid().step(), c.grid().step());
    for (i, &x) in xs.iter().enumerate() {
        let wx = a.density()[i] * ma;
        if wx == 0.0 {
            continue;
        }
        for (j, &y) in ys.iter().enumerate() {
            let wxy = wx * b.density()[j] * mb;
            if wxy == 0.0 {
                continue;
            }
            for (k, &z) in zs.iter().enumerate() {
                let w = wxy * c.density()[k] * mc;
                density[grid.clamp_cell_of(f(x, y, z))] += w;
            }
        }
    }
    let density = density.iter().map(|m| m / grid.step()).collect();
    Pdf::new(grid, density)
}

/// Density of the product `X·Y` of independent variables — the
/// `tox·Leff` factor of the inter-die delay.
///
/// # Errors
///
/// Propagates [`map2`] failures.
pub fn product_pdf(a: &Pdf, b: &Pdf, quality: usize) -> Result<Pdf> {
    map2(a, b, quality, |x, y| x * y)
}

/// Density of `max(X, Y)` for **independent** `X ~ a`, `Y ~ b`, via the
/// CDF product `F_max(x) = F_X(x)·F_Y(x)` on a `quality`-cell grid
/// covering both supports.
///
/// This is the kernel of block-based statistical timing in the style the
/// DATE'05 paper criticizes (its refs [3, 4]): arrival-time maxima taken
/// as if reconverging paths were independent.
///
/// # Errors
///
/// Propagates grid-construction failures.
pub fn max_pdf(a: &Pdf, b: &Pdf, quality: usize) -> Result<Pdf> {
    let lo = a.grid().lo().min(b.grid().lo());
    let hi = a.grid().hi().max(b.grid().hi());
    let grid = output_grid(lo, hi, quality)?;
    let mut density = Vec::with_capacity(quality);
    let step = grid.step();
    let mut prev = a.cdf(grid.edge(0)) * b.cdf(grid.edge(0));
    for i in 0..quality {
        let next = a.cdf(grid.edge(i + 1)) * b.cdf(grid.edge(i + 1));
        density.push(((next - prev).max(0.0)) / step);
        prev = next;
    }
    Pdf::new(grid, density)
}

/// Density of `max(X₁, X₂, …)` for independent variables.
///
/// # Errors
///
/// Returns [`StatsError::ZeroMass`] for an empty slice; otherwise
/// propagates [`max_pdf`] failures.
pub fn max_pdf_many(pdfs: &[Pdf], quality: usize) -> Result<Pdf> {
    let mut iter = pdfs.iter();
    let first = iter.next().ok_or(StatsError::ZeroMass)?;
    let mut acc = first.clone();
    for p in iter {
        acc = max_pdf(&acc, p, quality)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::gaussian_pdf;
    use crate::Grid;

    #[test]
    fn map1_linear_matches_affine() {
        let p = gaussian_pdf(10.0, 2.0, 6.0, 300);
        let m = map1(&p, 300, |x| 3.0 * x + 1.0).unwrap();
        let a = p.affine(3.0, 1.0).unwrap();
        assert!((m.mean() - a.mean()).abs() < 0.05);
        assert!((m.std_dev() - a.std_dev()).abs() < 0.05);
    }

    #[test]
    fn map1_rejects_non_finite() {
        let p = gaussian_pdf(0.0, 1.0, 6.0, 50);
        assert!(map1(&p, 50, |x| 1.0 / (x - x)).is_err());
    }

    #[test]
    fn map1_constant_function() {
        let p = gaussian_pdf(0.0, 1.0, 6.0, 50);
        let m = map1(&p, 10, |_| 5.0).unwrap();
        assert!((m.mean() - 5.0).abs() < 1e-6);
        assert!(m.std_dev() < 1e-6);
    }

    #[test]
    fn map2_sum_matches_convolution() {
        let a = gaussian_pdf(5.0, 1.0, 6.0, 150);
        let b = gaussian_pdf(7.0, 2.0, 6.0, 150);
        let s = map2(&a, &b, 200, |x, y| x + y).unwrap();
        assert!((s.mean() - 12.0).abs() < 0.05);
        assert!((s.variance() - 5.0).abs() < 0.1);
    }

    #[test]
    fn product_of_positive_gaussians() {
        // E[XY] = E[X]E[Y]; Var(XY) = σx²σy² + σx²μy² + σy²μx².
        let a = gaussian_pdf(4.5, 0.15, 6.0, 120);
        let b = gaussian_pdf(130.0, 15.0, 6.0, 120);
        let p = product_pdf(&a, &b, 200).unwrap();
        assert!((p.mean() - 585.0).abs() < 1.5);
        let var = 0.15f64.powi(2) * 15.0f64.powi(2)
            + 0.15f64.powi(2) * 130.0f64.powi(2)
            + 15.0f64.powi(2) * 4.5f64.powi(2);
        assert!((p.variance() - var).abs() / var < 0.02);
    }

    #[test]
    fn map3_sum_of_three() {
        let g = |m: f64| gaussian_pdf(m, 1.0, 6.0, 40);
        let s = map3(&g(1.0), &g(2.0), &g(3.0), 120, |x, y, z| x + y + z).unwrap();
        assert!((s.mean() - 6.0).abs() < 0.05);
        assert!((s.variance() - 3.0).abs() < 0.15);
    }

    #[test]
    fn map2_mass_is_conserved() {
        let g = Grid::over(0.0, 1.0, 25).unwrap();
        let u = Pdf::new(g, vec![1.0; 25]).unwrap();
        let m = map2(&u, &u, 60, |x, y| x * y - y).unwrap();
        assert!((m.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_of_iid_gaussians_known_mean() {
        // E[max(X,Y)] = μ + σ/√π for iid normals.
        let a = gaussian_pdf(10.0, 2.0, 6.0, 300);
        let m = max_pdf(&a, &a, 300).unwrap();
        let expect = 10.0 + 2.0 / std::f64::consts::PI.sqrt();
        assert!((m.mean() - expect).abs() < 0.02, "{} vs {expect}", m.mean());
        assert!((m.mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_with_dominated_operand_is_identity() {
        let hi = gaussian_pdf(100.0, 1.0, 6.0, 200);
        let lo = gaussian_pdf(0.0, 1.0, 6.0, 200);
        let m = max_pdf(&hi, &lo, 200).unwrap();
        assert!((m.mean() - hi.mean()).abs() < 0.05);
        assert!((m.std_dev() - hi.std_dev()).abs() < 0.05);
    }

    #[test]
    fn max_of_uniforms_is_beta_like() {
        // max of two U(0,1): F = x², mean 2/3, var 1/18.
        let g = Grid::over(0.0, 1.0, 200).unwrap();
        let u = Pdf::new(g, vec![1.0; 200]).unwrap();
        let m = max_pdf(&u, &u, 200).unwrap();
        assert!((m.mean() - 2.0 / 3.0).abs() < 0.01);
        assert!((m.variance() - 1.0 / 18.0).abs() < 0.005);
    }

    #[test]
    fn max_many_increases_mean_monotonically() {
        let a = gaussian_pdf(5.0, 1.0, 6.0, 150);
        let m2 = max_pdf_many(&[a.clone(), a.clone()], 150).unwrap();
        let m4 = max_pdf_many(&[a.clone(), a.clone(), a.clone(), a.clone()], 150).unwrap();
        assert!(m2.mean() > a.mean());
        assert!(m4.mean() > m2.mean());
        assert!(max_pdf_many(&[], 10).is_err());
        // Single operand: unchanged.
        let m1 = max_pdf_many(std::slice::from_ref(&a), 150).unwrap();
        assert!((m1.mean() - a.mean()).abs() < 1e-9);
    }
}

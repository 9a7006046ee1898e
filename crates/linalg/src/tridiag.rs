//! Symmetric tridiagonal eigensolver (implicit-shift QL).
//!
//! This is the classic `tqli` algorithm: given diagonal `d` and
//! off-diagonal `e`, it computes all eigenvalues and rotates an accumulator
//! matrix `z` so its rows become eigenvectors in the original basis.
//! Lanczos reduces the Laplacian to this form; `tqli` finishes it.

use crate::{LinalgError, Mat, Result};

/// Eigen-decompose a symmetric tridiagonal matrix.
///
/// * `d` — diagonal entries, length `n`; overwritten with eigenvalues
///   (unsorted).
/// * `e` — sub-diagonal entries, length `n` with `e[0]` unused (matching
///   the classic Numerical-Recipes convention: `e[i]` couples rows `i-1`
///   and `i`); destroyed.
/// * `z` — an accumulator with one **row** per tridiagonal index; pass the
///   identity to obtain tridiagonal eigenvectors, or the Lanczos basis
///   (one row per Lanczos vector, `n × dim`) to obtain eigenvectors of the
///   original operator. Row `i` ends up as the eigenvector of `d[i]`.
///   Each plane rotation updates two contiguous rows in place, so the
///   rotations stream memory however wide the accumulator is.
pub fn tqli(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<()> {
    let n = d.len();
    if e.len() != n || z.rows() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "tqli",
            lhs: (n, 1),
            rhs: (e.len(), z.rows()),
        });
    }
    if n == 0 {
        return Ok(());
    }
    // Shift the off-diagonal so e[i] couples i and i+1, with e[n-1] = 0.
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let width = z.cols();

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(LinalgError::NoConvergence { method: "tqli", iters: 50 });
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            // A sequence of plane rotations chasing the bulge.
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into z's rows i and i+1.
                let (head, tail) = z.as_mut_slice().split_at_mut((i + 1) * width);
                let zi = &mut head[i * width..];
                for (lo, hi) in zi.iter_mut().zip(&mut tail[..width]) {
                    let (x, y) = (*lo, *hi);
                    *hi = s * x + c * y;
                    *lo = c * x - s * y;
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Convenience wrapper: eigenvalues (ascending) and eigenvectors of a
/// symmetric tridiagonal matrix given diagonal `diag` and off-diagonal
/// `off` (`off[i]` couples rows `i` and `i+1`; length `n-1`).
pub fn tridiag_eigen(diag: &[f64], off: &[f64]) -> Result<(Vec<f64>, Mat)> {
    let n = diag.len();
    if n == 0 {
        return Ok((Vec::new(), Mat::zeros(0, 0)));
    }
    if off.len() + 1 != n {
        return Err(LinalgError::InvalidArgument(format!(
            "off-diagonal length {} must be n-1 = {}",
            off.len(),
            n - 1
        )));
    }
    let mut d = diag.to_vec();
    // Convert to the tqli convention: e[i] couples i-1 and i.
    let mut e = vec![0.0; n];
    e[1..].copy_from_slice(off);
    let mut z = Mat::identity(n);
    tqli(&mut d, &mut e, &mut z)?;
    // Sort ascending; row `src` of `z` becomes column `dst` of `vectors`.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Mat::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        for (i, &v) in z.row(src).iter().enumerate() {
            vectors.set(i, dst, v);
        }
    }
    Ok((values, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eigen;

    fn dense_from_tridiag(diag: &[f64], off: &[f64]) -> Mat {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, diag[i]);
        }
        for i in 0..n - 1 {
            m.set(i, i + 1, off[i]);
            m.set(i + 1, i, off[i]);
        }
        m
    }

    #[test]
    fn matches_jacobi_on_random_tridiagonal() {
        let diag = [2.0, 3.0, 1.5, 4.0, 2.5];
        let off = [0.5, -0.7, 0.3, 1.1];
        let (vals, vecs) = tridiag_eigen(&diag, &off).unwrap();
        let dense = dense_from_tridiag(&diag, &off);
        let oracle = jacobi_eigen(&dense).unwrap();
        for (a, b) in vals.iter().zip(&oracle.values) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        // Each eigenvector satisfies A v = λ v.
        for j in 0..diag.len() {
            let v = vecs.col(j);
            let av = dense.matvec(&v).unwrap();
            for i in 0..diag.len() {
                assert!((av[i] - vals[j] * v[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn diagonal_input_returns_sorted_diagonal() {
        let (vals, _) = tridiag_eigen(&[5.0, 1.0, 3.0], &[0.0, 0.0]).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-14);
        assert!((vals[1] - 3.0).abs() < 1e-14);
        assert!((vals[2] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn chain_laplacian_has_zero_eigenvalue() {
        // Path-graph Laplacian: known smallest eigenvalue exactly 0.
        let n = 8;
        let diag: Vec<f64> = (0..n)
            .map(|i| if i == 0 || i == n - 1 { 1.0 } else { 2.0 })
            .collect();
        let off = vec![-1.0; n - 1];
        let (vals, _) = tridiag_eigen(&diag, &off).unwrap();
        assert!(vals[0].abs() < 1e-10);
        assert!(vals[1] > 1e-6);
    }

    #[test]
    fn empty_and_singleton() {
        let (vals, _) = tridiag_eigen(&[], &[]).unwrap();
        assert!(vals.is_empty());
        let (vals, vecs) = tridiag_eigen(&[7.0], &[]).unwrap();
        assert_eq!(vals, vec![7.0]);
        assert_eq!(vecs.get(0, 0), 1.0);
    }

    #[test]
    fn wrong_offdiag_length_rejected() {
        assert!(tridiag_eigen(&[1.0, 2.0], &[0.1, 0.2]).is_err());
    }
}

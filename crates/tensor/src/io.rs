//! Plain-text COO serialization.
//!
//! Format: a header line `# shape: d1 d2 ... dN`, then one entry per line
//! as `i1 i2 ... iN value` (0-based indices, whitespace-separated). This is
//! the format the examples and the bench harness use to exchange tensors.

use crate::coo::CooTensor;
use crate::{Result, TensorError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Write a tensor as text.
pub fn write_coo<W: Write>(t: &CooTensor, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    write!(out, "# shape:")?;
    for d in t.shape() {
        write!(out, " {d}")?;
    }
    writeln!(out)?;
    for (idx, v) in t.iter() {
        for i in idx {
            write!(out, "{i} ")?;
        }
        writeln!(out, "{v}")?;
    }
    out.flush()
}

/// Write a tensor to a file path.
pub fn write_coo_file<P: AsRef<Path>>(t: &CooTensor, path: P) -> std::io::Result<()> {
    write_coo(t, std::fs::File::create(path)?)
}

/// Parse a tensor from text. A `nan` or `inf` value is rejected with
/// [`TensorError::NonFinite`], like every other malformed entry.
pub fn read_coo<R: Read>(r: R) -> Result<CooTensor> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| TensorError::ShapeMismatch("empty input".into()))?
        .map_err(|e| TensorError::ShapeMismatch(format!("io error: {e}")))?;
    let shape = parse_header(&header)?;
    let order = shape.len();
    let mut t = CooTensor::try_new(shape)?;
    let mut idx = vec![0usize; order];
    for line in lines {
        let line = line.map_err(|e| TensorError::ShapeMismatch(format!("io error: {e}")))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        for slot in idx.iter_mut() {
            *slot = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| TensorError::ShapeMismatch(format!("bad entry line: {line}")))?;
        }
        let v: f64 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| TensorError::ShapeMismatch(format!("bad value in line: {line}")))?;
        if parts.next().is_some() {
            return Err(TensorError::ShapeMismatch(format!(
                "trailing fields in line: {line}"
            )));
        }
        t.push(&idx, v)?;
    }
    Ok(t)
}

/// Read a tensor from a file path.
pub fn read_coo_file<P: AsRef<Path>>(path: P) -> Result<CooTensor> {
    let f = std::fs::File::open(path)
        .map_err(|e| TensorError::ShapeMismatch(format!("open failed: {e}")))?;
    read_coo(f)
}

/// Write a CP model as text: a header `# kruskal: N R`, then one factor
/// matrix per `# factor <n>: <rows> <cols>` section, row per line.
pub fn write_kruskal<W: Write>(k: &crate::KruskalTensor, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# kruskal: {} {}", k.order(), k.rank())?;
    for (n, f) in k.factors().iter().enumerate() {
        writeln!(out, "# factor {n}: {} {}", f.rows(), f.cols())?;
        for i in 0..f.rows() {
            let row = f.row(i);
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(out, " ")?;
                }
                // 17 significant digits: lossless f64 round-trip.
                write!(out, "{v:.17e}")?;
            }
            writeln!(out)?;
        }
    }
    out.flush()
}

/// Write a CP model to a file path.
pub fn write_kruskal_file<P: AsRef<Path>>(
    k: &crate::KruskalTensor,
    path: P,
) -> std::io::Result<()> {
    write_kruskal(k, std::fs::File::create(path)?)
}

/// Parse a CP model written by [`write_kruskal`].
pub fn read_kruskal<R: Read>(r: R) -> Result<crate::KruskalTensor> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| TensorError::ShapeMismatch("empty input".into()))?
        .map_err(|e| TensorError::ShapeMismatch(format!("io error: {e}")))?;
    let rest = header
        .strip_prefix("# kruskal:")
        .ok_or_else(|| TensorError::ShapeMismatch(format!("bad kruskal header: {header}")))?;
    let mut parts = rest.split_whitespace();
    let order: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| TensorError::ShapeMismatch("bad order".into()))?;
    let rank: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| TensorError::ShapeMismatch("bad rank".into()))?;

    let mut factors = Vec::with_capacity(order);
    let mut pending: Option<(usize, usize, Vec<f64>)> = None;
    for line in lines {
        let line = line.map_err(|e| TensorError::ShapeMismatch(format!("io error: {e}")))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# factor") {
            if let Some((rows, cols, data)) = pending.take() {
                finish_factor(rows, cols, data, rank, &mut factors)?;
            }
            let dims = rest
                .split(':')
                .nth(1)
                .ok_or_else(|| TensorError::ShapeMismatch(format!("bad factor header: {line}")))?;
            let mut p = dims.split_whitespace();
            let rows: usize = p
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| TensorError::ShapeMismatch("bad factor rows".into()))?;
            let cols: usize = p
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| TensorError::ShapeMismatch("bad factor cols".into()))?;
            pending = Some((rows, cols, Vec::with_capacity(rows * cols)));
            continue;
        }
        let (_, _, data) = pending
            .as_mut()
            .ok_or_else(|| TensorError::ShapeMismatch("data before factor header".into()))?;
        for tok in line.split_whitespace() {
            data.push(
                tok.parse()
                    .map_err(|e| TensorError::ShapeMismatch(format!("bad value {tok}: {e}")))?,
            );
        }
    }
    if let Some((rows, cols, data)) = pending.take() {
        finish_factor(rows, cols, data, rank, &mut factors)?;
    }
    if factors.len() != order {
        return Err(TensorError::ShapeMismatch(format!(
            "expected {order} factors, found {}",
            factors.len()
        )));
    }
    crate::KruskalTensor::new(factors)
}

/// Read a CP model from a file path.
pub fn read_kruskal_file<P: AsRef<Path>>(path: P) -> Result<crate::KruskalTensor> {
    let f = std::fs::File::open(path)
        .map_err(|e| TensorError::ShapeMismatch(format!("open failed: {e}")))?;
    read_kruskal(f)
}

fn finish_factor(
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    rank: usize,
    factors: &mut Vec<distenc_linalg::Mat>,
) -> Result<()> {
    if cols != rank || data.len() != rows * cols {
        return Err(TensorError::ShapeMismatch(format!(
            "factor body has {} values for a {rows}x{cols} matrix (rank {rank})",
            data.len()
        )));
    }
    factors.push(distenc_linalg::Mat::from_vec(rows, cols, data));
    Ok(())
}

fn parse_header(header: &str) -> Result<Vec<usize>> {
    let rest = header
        .strip_prefix("# shape:")
        .ok_or_else(|| TensorError::ShapeMismatch(format!("bad header: {header}")))?;
    let shape: Vec<usize> = rest
        .split_whitespace()
        .map(|p| p.parse())
        .collect::<std::result::Result<_, _>>()
        .map_err(|e| TensorError::ShapeMismatch(format!("bad header: {e}")))?;
    if shape.is_empty() {
        return Err(TensorError::ShapeMismatch("empty shape in header".into()));
    }
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let t = CooTensor::from_entries(
            vec![3, 4, 2],
            &[(&[0, 1, 0], 1.5), (&[2, 3, 1], -0.25)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_coo(&t, &mut buf).unwrap();
        let back = read_coo(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# shape: 2 2\n\n# a comment\n0 0 3.0\n1 1 4.0\n";
        let t = read_coo(text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.value(1), 4.0);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(read_coo("# shape: 2 2\n0 0\n".as_bytes()).is_err()); // too few
        assert!(read_coo("# shape: 2 2\n0 0 1.0 9\n".as_bytes()).is_err()); // too many
        assert!(read_coo("bad header\n".as_bytes()).is_err());
        assert!(read_coo("".as_bytes()).is_err());
    }

    #[test]
    fn out_of_bounds_entry_rejected() {
        assert!(read_coo("# shape: 2 2\n5 0 1.0\n".as_bytes()).is_err());
    }

    #[test]
    fn non_finite_values_rejected() {
        for v in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let text = format!("# shape: 2 2\n0 0 1.0\n1 1 {v}\n");
            assert!(
                matches!(read_coo(text.as_bytes()), Err(TensorError::NonFinite { .. })),
                "{v} must be rejected"
            );
        }
    }

    #[test]
    fn kruskal_round_trip_is_lossless() {
        let k = crate::KruskalTensor::random(&[4, 3, 5], 2, 9);
        let mut buf = Vec::new();
        write_kruskal(&k, &mut buf).unwrap();
        let back = read_kruskal(&buf[..]).unwrap();
        assert_eq!(back.shape(), k.shape());
        assert_eq!(back.rank(), k.rank());
        for (a, b) in back.factors().iter().zip(k.factors()) {
            assert_eq!(a, b, "f64 round-trip must be exact");
        }
    }

    #[test]
    fn kruskal_malformed_rejected() {
        assert!(read_kruskal("nope\n".as_bytes()).is_err());
        assert!(read_kruskal("# kruskal: 2 2\n".as_bytes()).is_err()); // no factors
        // Wrong value count in a factor body.
        let bad = "# kruskal: 1 2\n# factor 0: 2 2\n1.0 2.0 3.0\n";
        assert!(read_kruskal(bad.as_bytes()).is_err());
        // Data before any factor header.
        assert!(read_kruskal("# kruskal: 1 1\n1.0\n".as_bytes()).is_err());
    }
}

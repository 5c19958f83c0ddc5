//! Small dense vector helpers shared by the multiparent operators.
//!
//! PCX and UNDX need centroids, projections, and incremental Gram-Schmidt
//! orthogonalization over at most `min(parents, L)` directions; for the
//! decision-space sizes used by MOEA test suites (L ≲ 100) plain slice
//! arithmetic is both the fastest and the clearest choice. Every result
//! goes into a buffer of the caller's [`VariationScratch`](super::VariationScratch),
//! and a basis is one flat buffer, a row per direction, so an operator call
//! allocates nothing once the scratch has grown to its width.

/// Dot product.
pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub(super) fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `a - b` into `out` (cleared first).
pub(crate) fn sub_into(a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(a.len(), b.len());
    out.clear();
    out.extend(a.iter().zip(b).map(|(x, y)| x - y));
}

/// `a += s * b` in place.
pub(crate) fn axpy(a: &mut [f64], s: f64, b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += s * y;
    }
}

/// Centroid of a set of equal-length vectors, into `out` (cleared first).
pub(crate) fn centroid_into(points: &[&[f64]], out: &mut Vec<f64>) {
    assert!(!points.is_empty());
    out.clear();
    out.resize(points[0].len(), 0.0);
    for p in points {
        axpy(out, 1.0, p);
    }
    let inv = 1.0 / points.len() as f64;
    for x in out.iter_mut() {
        *x *= inv;
    }
}

/// The vectors of a basis kept flat, `l` values a row.
pub(crate) fn basis_rows(basis: &[f64], l: usize) -> std::slice::ChunksExact<'_, f64> {
    // `chunks_exact(0)` panics; a basis of zero-length vectors is empty.
    basis.chunks_exact(l.max(1))
}

/// Removes from `v` (in place) its components along each unit vector of the
/// flat `basis`, then returns the residual norm.
pub(crate) fn orthogonalize(v: &mut [f64], basis: &[f64]) -> f64 {
    for e in basis_rows(basis, v.len()) {
        let c = dot(v, e);
        axpy(v, -c, e);
    }
    norm(v)
}

/// Tolerance below which a residual is treated as numerically zero.
pub(crate) const EPS: f64 = 1e-10;

/// Attempts to extend the orthonormal flat `basis` (rows of `l` values)
/// with the direction of its last row, a candidate the caller appended:
/// normalizes and keeps it, returning `true`, if it contributed a new
/// direction, and removes it otherwise.
pub(crate) fn try_extend_basis(basis: &mut Vec<f64>, l: usize) -> bool {
    let start = basis.len() - l;
    let (head, v) = basis.split_at_mut(start);
    let n = orthogonalize(v, head);
    if n > EPS {
        for x in v {
            *x /= n;
        }
        true
    } else {
        basis.truncate(start);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_sub_axpy() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        let mut d = vec![9.0; 5];
        sub_into(&[3.0, 4.0], &[1.0, 1.0], &mut d);
        assert_eq!(d, vec![2.0, 3.0]);
        let mut a = vec![1.0, 1.0];
        axpy(&mut a, 2.0, &[1.0, -1.0]);
        assert_eq!(a, vec![3.0, -1.0]);
    }

    #[test]
    fn centroid_of_triangle() {
        let p1 = [0.0, 0.0];
        let p2 = [3.0, 0.0];
        let p3 = [0.0, 3.0];
        let mut g = vec![7.0];
        centroid_into(&[&p1, &p2, &p3], &mut g);
        assert_eq!(g, vec![1.0, 1.0]);
    }

    #[test]
    fn gram_schmidt_builds_orthonormal_basis() {
        let mut basis = Vec::new();
        for v in [[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]] {
            basis.extend(v);
            assert!(try_extend_basis(&mut basis, 3));
        }
        // Fourth vector in 3-space must be dependent.
        basis.extend([0.3, -0.2, 0.9]);
        assert!(!try_extend_basis(&mut basis, 3));
        assert_eq!(basis.len(), 9);
        let rows: Vec<&[f64]> = basis_rows(&basis, 3).collect();
        for i in 0..3 {
            assert!((norm(rows[i]) - 1.0).abs() < 1e-12);
            for j in (i + 1)..3 {
                assert!(dot(rows[i], rows[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn orthogonalize_removes_projection() {
        let basis = [1.0, 0.0];
        let mut v = vec![3.0, 4.0];
        let r = orthogonalize(&mut v, &basis);
        assert!((r - 4.0).abs() < 1e-12);
        assert!((v[0]).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_does_not_extend_basis() {
        let mut basis = vec![1.0, 0.0, 0.0, 0.0];
        assert!(!try_extend_basis(&mut basis, 2));
        assert_eq!(basis, [1.0, 0.0]);
    }
}

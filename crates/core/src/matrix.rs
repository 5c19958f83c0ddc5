//! Flat row-major matrices for hot-path numeric data.
//!
//! The steady-state hot paths (archive insertion, tournament selection,
//! batch evaluation) read per-solution numeric rows: objective vectors,
//! cached ε-box coordinates, decision variables. Storing those rows in a
//! `Vec<Vec<f64>>` costs one heap allocation and one pointer chase per row;
//! a [`FlatMatrix`] packs them into a single flat buffer with a fixed
//! stride, an array of rows: one row is contiguous (for five objectives,
//! one cache line), and consecutive rows follow each other.
//!
//! That is the layout for reading *a* row — a random tournament draw, a
//! metric walking the archive. It is not a structure of arrays: a loop that
//! compares one vector with *every* row finds each objective `stride`
//! elements apart, so comparing several rows at once would take a gather
//! per objective. The population's replacement scan therefore keeps a second,
//! blocked mirror (eight members a block, one lane array per objective,
//! NaN-padded; see [`crate::population`]) beside its [`ObjectiveMatrix`].
//!
//! [`ObjectiveMatrix`] is the `f64` instantiation used by
//! [`crate::population::Population`] and [`crate::archive::EpsilonArchive`];
//! the archive also uses an `i64` instantiation for its cached ε-box keys.

/// A dense row matrix backed by one flat `Vec<T>`.
///
/// All rows share the same `stride` (row length). An empty matrix adopts the
/// stride of the first row pushed, so containers that learn their row width
/// lazily (e.g. a population before its first member) need no special case.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatMatrix<T> {
    data: Vec<T>,
    stride: usize,
    rows: usize,
}

impl<T: Copy> FlatMatrix<T> {
    /// Creates an empty matrix with the given row length.
    pub fn new(stride: usize) -> Self {
        Self {
            data: Vec::new(),
            stride,
            rows: 0,
        }
    }

    /// Creates an empty matrix with capacity reserved for `rows` rows.
    pub fn with_capacity(stride: usize, rows: usize) -> Self {
        Self {
            data: Vec::with_capacity(stride * rows),
            stride,
            rows: 0,
        }
    }

    /// Row length. Zero until the first row is pushed into a `new(0)` matrix.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn row(&self, i: usize) -> &[T] {
        let start = i * self.stride;
        &self.data[start..start + self.stride]
    }

    /// Mutably borrows row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let start = i * self.stride;
        &mut self.data[start..start + self.stride]
    }

    /// Appends a row. An empty matrix adopts `row.len()` as its stride.
    ///
    /// # Panics
    /// If a non-empty matrix receives a row of a different length.
    pub fn push_row(&mut self, row: &[T]) {
        if self.rows == 0 {
            self.stride = row.len();
        }
        assert_eq!(row.len(), self.stride, "row length must match stride");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends `n` rows filled with `value` and returns the index of the
    /// first new row (batch-evaluation output staging).
    pub fn push_rows_filled(&mut self, n: usize, value: T) -> usize {
        let first = self.rows;
        self.data.resize(self.data.len() + n * self.stride, value);
        self.rows += n;
        first
    }

    /// Overwrites row `i` in place.
    pub fn set_row(&mut self, i: usize, row: &[T]) {
        assert_eq!(row.len(), self.stride, "row length must match stride");
        self.row_mut(i).copy_from_slice(row);
    }

    /// Removes row `i` by moving the last row into its slot (O(stride)),
    /// mirroring `Vec::swap_remove` so parallel containers stay aligned.
    pub fn swap_remove_row(&mut self, i: usize) {
        let last = self.rows - 1;
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.stride);
            head[i * self.stride..(i + 1) * self.stride].copy_from_slice(&tail[..self.stride]);
        }
        self.data.truncate(last * self.stride);
        self.rows = last;
    }

    /// Keeps the first `n` rows.
    pub fn truncate_rows(&mut self, n: usize) {
        if n < self.rows {
            self.data.truncate(n * self.stride);
            self.rows = n;
        }
    }

    /// Drops all rows, keeping the stride and allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// The flat backing slice (`rows * stride` elements, row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        // `chunks_exact(0)` panics, so an unsized (stride-0) matrix yields
        // nothing — it also holds no data.
        self.data.chunks_exact(self.stride.max(1))
    }
}

/// Flat `f64` row matrix holding one objective vector per row.
pub type ObjectiveMatrix = FlatMatrix<f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut m = ObjectiveMatrix::new(3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.stride(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn empty_matrix_adopts_first_row_stride() {
        let mut m = ObjectiveMatrix::new(0);
        m.push_row(&[1.0, 2.0]);
        assert_eq!(m.stride(), 2);
        m.clear();
        // Stride survives a clear; the next epoch can push same-width rows.
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.row(0), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row length must match stride")]
    fn mismatched_row_panics() {
        let mut m = ObjectiveMatrix::new(2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[1.0]);
    }

    #[test]
    fn swap_remove_mirrors_vec_semantics() {
        let mut m = FlatMatrix::<i64>::new(2);
        m.push_row(&[0, 0]);
        m.push_row(&[1, 1]);
        m.push_row(&[2, 2]);
        m.swap_remove_row(0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[2, 2]);
        assert_eq!(m.row(1), &[1, 1]);
        m.swap_remove_row(1); // removing the last row is a plain pop
        assert_eq!(m.rows(), 1);
        assert_eq!(m.row(0), &[2, 2]);
    }

    #[test]
    fn set_row_overwrites_in_place() {
        let mut m = ObjectiveMatrix::new(2);
        m.push_row(&[1.0, 1.0]);
        m.set_row(0, &[9.0, 8.0]);
        assert_eq!(m.row(0), &[9.0, 8.0]);
    }

    #[test]
    fn push_rows_filled_stages_batch_output() {
        let mut m = ObjectiveMatrix::new(2);
        m.push_row(&[1.0, 1.0]);
        let first = m.push_rows_filled(2, 0.0);
        assert_eq!(first, 1);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[0.0, 0.0]);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }

    #[test]
    fn truncate_and_iter() {
        let mut m = FlatMatrix::<i64>::new(1);
        for i in 0..4 {
            m.push_row(&[i]);
        }
        m.truncate_rows(2);
        let rows: Vec<&[i64]> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[0i64][..], &[1i64][..]]);
        m.truncate_rows(5); // no-op when larger
        assert_eq!(m.rows(), 2);
    }
}

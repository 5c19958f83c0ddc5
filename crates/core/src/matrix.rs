//! Flat row-major matrices and the blocked lane mirror for hot-path numeric
//! data.
//!
//! The archive and the population store their members as rows: objective
//! vectors, ε-box keys, decision variables, constraints. Storing those rows
//! as `Vec`s — one per row, or three per member as a `Solution` — costs one
//! heap allocation and one pointer chase per row; a [`FlatMatrix`] packs
//! them into a single flat buffer with a fixed stride, an array of rows:
//! one row is contiguous (for five objectives, one cache line), and
//! consecutive rows follow each other.
//!
//! That is the layout for reading *a* row — a metric walking the archive, a
//! parent's variables, a batch of variables to evaluate. It is not a
//! structure of arrays: a loop that compares one vector with *every* row
//! finds each objective `stride` elements apart, so comparing several rows
//! at once would take a gather per objective. The two scans that do compare
//! one vector with every row read a [`BlockedRows`] instead — eight members
//! a block, one lane array per column, NaN-padded — with the block kernels
//! of [`crate::dominance`]:
//!
//! * [`crate::population::Population`] keeps each member's objectives and
//!   aggregate constraint violation (`m + 1` columns) only there, for its
//!   replacement scan and its tournaments, beside a `FlatMatrix` of its
//!   variables;
//! * [`crate::archive::EpsilonArchive`] mirrors each member's ε-box key as
//!   exact `f64` values (`m` columns) for its insertion scan, beside the
//!   [`ObjectiveMatrix`] that metrics read and the `FlatMatrix`es of
//!   variables and constraints.
//!
//! A `BlockedRows` also keys what it holds: beside every `[f64; 8]` lane
//! array an `[i16; 8]` array of `order_key`s — 16-bit monotone images of
//! the values, which prove "mutually nondominated" for eight members with
//! two packed compares a column, so that the exact kernels run only where
//! the keys cannot tell — and each row's keys once more, packed row-major in
//! 16 bytes, for the tournament's random pairs. 2 + 2 bytes of keys for
//! every 8 of values: 76 bytes a member of a five-objective population,
//! where the row-major `f64` mirror the packed keys replaced made it 96.
//!
//! Both owners hold their mirror to the same check of shape, padding and
//! keys, `BlockedRows::check`.

use crate::dominance::{order_key, KeyLanes, BLOCK_LANES, NO_ORDER};

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
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [T] {
        let start = i * self.stride;
        &mut self.data[start..start + self.stride]
    }

    /// Makes room for `rows` rows at the current stride, exactly (see
    /// [`BlockedRows::reserve`]).
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        let values = rows * self.stride;
        self.data
            .reserve_exact(values.saturating_sub(self.data.len()));
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
    pub(crate) fn push_rows_filled(&mut self, n: usize, value: T) -> usize {
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

/// Rows stored for a scan that compares one vector with all of them: row `i`
/// lives in lane `i % BLOCK_LANES` of block `i / BLOCK_LANES`, and a block
/// is `stride` consecutive lane arrays, one per column. Lanes past the last
/// row are NaN in every array, which no comparison ever decides.
///
/// Beside every exact lane array sits an array of `order_key`s, the
/// filter the scans consult first (see [`crate::dominance`]): the key of the
/// value in the same lane, or `NO_ORDER` throughout a row that holds a
/// NaN and in padding lanes. Each row's keys are also kept packed, row-major
/// (`BlockedRows::packed_keys`), for code that compares two random rows.
/// `push`, `set`, `swap_remove` and `clear` are the only writers of all
/// three, so keys cannot go stale behind a caller's back.
#[derive(Debug, Clone, Default)]
pub struct BlockedRows {
    lanes: Vec<[f64; BLOCK_LANES]>,
    /// `keys[a][l]` is the order key of `lanes[a][l]`.
    keys: Vec<KeyLanes>,
    /// Per row, the keys of its first [`BLOCK_LANES`] columns.
    packed: Vec<KeyLanes>,
    /// Lane arrays per block, i.e. columns per row. Adopted from the first
    /// row pushed into an empty mirror, like [`FlatMatrix`]'s stride.
    stride: usize,
    rows: usize,
}

impl BlockedRows {
    /// Columns per row; zero until the first row is pushed.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Drops all rows, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.lanes.clear();
        self.keys.clear();
        self.packed.clear();
        self.rows = 0;
    }

    /// Makes room for `rows` rows at the current stride, exactly. A restart
    /// knows the size its population is about to reach; growing there by
    /// doubling instead leaves a trail of half-sized holes behind each of
    /// the three buffers (`table2-sweep` `peak_rss_mb` 11.1 → 10.7 MB).
    pub(crate) fn reserve(&mut self, rows: usize) {
        let arrays = rows.div_ceil(BLOCK_LANES) * self.stride;
        self.lanes
            .reserve_exact(arrays.saturating_sub(self.lanes.len()));
        self.keys
            .reserve_exact(arrays.saturating_sub(self.keys.len()));
        self.packed
            .reserve_exact(rows.saturating_sub(self.packed.len()));
    }

    /// Appends a row. An empty mirror adopts the row's length as its
    /// stride.
    ///
    /// # Panics
    /// If a non-empty mirror receives a row of a different length.
    pub fn push(&mut self, row: impl IntoIterator<Item = f64>) {
        let row = row.into_iter();
        let i = self.rows;
        if i == 0 {
            // Taken from the iterator's own count; `set` holds it to that.
            self.stride = row.size_hint().0;
        }
        if i.is_multiple_of(BLOCK_LANES) {
            let grown = self.lanes.len() + self.stride;
            self.lanes.resize(grown, [f64::NAN; BLOCK_LANES]);
            self.keys.resize(grown, [NO_ORDER; BLOCK_LANES]);
        }
        self.packed.push([NO_ORDER; BLOCK_LANES]);
        self.rows += 1;
        self.set(i, row);
    }

    /// Overwrites row `i` in place and keys it: each value's `order_key`,
    /// or `NO_ORDER` in every column when one value is NaN — the exact
    /// kernels decide nothing in a NaN column whatever the others say, and
    /// only a row that cannot be proven *better* anywhere is sure to reach
    /// them.
    ///
    /// # Panics
    /// If `i` is out of range or the row's length is not the stride.
    // borg-lint: hot-path
    pub(crate) fn set(&mut self, i: usize, row: impl IntoIterator<Item = f64>) {
        assert!(i < self.rows, "row index out of range");
        let lane = i % BLOCK_LANES;
        let first = i / BLOCK_LANES * self.stride;
        let block = first..first + self.stride;
        let mut row = row.into_iter();
        let mut packed = [NO_ORDER; BLOCK_LANES];
        let mut ordered = true;
        let columns = self.lanes[block.clone()]
            .iter_mut()
            .zip(&mut self.keys[block.clone()]);
        for (c, (values, keys)) in columns.enumerate() {
            let Some(value) = row.next() else {
                panic!("row length must match stride");
            };
            let key = order_key(value);
            ordered &= key != NO_ORDER;
            values[lane] = value;
            keys[lane] = key;
            if c < BLOCK_LANES {
                packed[c] = key;
            }
        }
        assert!(row.next().is_none(), "row length must match stride");
        if !ordered {
            for keys in &mut self.keys[block] {
                keys[lane] = NO_ORDER;
            }
            packed = [NO_ORDER; BLOCK_LANES];
        }
        self.packed[i] = packed;
    }

    /// Removes row `i` by moving the last row into its lane, mirroring
    /// `Vec::swap_remove` so parallel containers stay aligned. The vacated
    /// lane becomes padding; a block left without rows is dropped.
    // borg-lint: hot-path
    pub(crate) fn swap_remove(&mut self, i: usize) {
        assert!(i < self.rows, "row index out of range");
        let last = self.rows - 1;
        let (from, to) = (
            last / BLOCK_LANES * self.stride,
            i / BLOCK_LANES * self.stride,
        );
        for c in 0..self.stride {
            let tail = &mut self.lanes[from + c][last % BLOCK_LANES];
            let value = std::mem::replace(tail, f64::NAN);
            let tail = &mut self.keys[from + c][last % BLOCK_LANES];
            let key = std::mem::replace(tail, NO_ORDER);
            if i != last {
                self.lanes[to + c][i % BLOCK_LANES] = value;
                self.keys[to + c][i % BLOCK_LANES] = key;
            }
        }
        self.packed.swap_remove(i);
        self.rows = last;
        let blocks = last.div_ceil(BLOCK_LANES) * self.stride;
        self.lanes.truncate(blocks);
        self.keys.truncate(blocks);
    }

    /// The values of row `i`, column by column.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(i < self.rows, "row index out of range");
        let first = i / BLOCK_LANES * self.stride;
        self.lanes[first..first + self.stride]
            .iter()
            .map(move |array| array[i % BLOCK_LANES])
    }

    /// The value of row `i` in one column.
    pub(crate) fn value(&self, i: usize, column: usize) -> f64 {
        assert!(i < self.rows && column < self.stride, "out of range");
        self.lanes[i / BLOCK_LANES * self.stride + column][i % BLOCK_LANES]
    }

    /// The order keys of row `i`'s first [`BLOCK_LANES`] columns, in column
    /// order; [`NO_ORDER`] where the row has fewer.
    pub(crate) fn packed_keys(&self, i: usize) -> &KeyLanes {
        &self.packed[i]
    }

    /// The blocks in row order: each `stride` arrays of key lanes and the
    /// `stride` arrays of exact lanes they were computed from.
    pub fn blocks(&self) -> impl Iterator<Item = (&[KeyLanes], &[[f64; BLOCK_LANES]])> {
        // `chunks_exact(0)` panics; an unsized mirror holds no lanes.
        let stride = self.stride.max(1);
        self.keys
            .chunks_exact(stride)
            .zip(self.lanes.chunks_exact(stride))
    }

    /// Every lane array, padding included, for tests that corrupt a mirror.
    #[cfg(test)]
    pub(crate) fn lanes_mut(&mut self) -> &mut [[f64; BLOCK_LANES]] {
        &mut self.lanes
    }

    /// Every key lane array, likewise.
    #[cfg(test)]
    pub(crate) fn keys_mut(&mut self) -> &mut [KeyLanes] {
        &mut self.keys
    }

    /// Every row's packed keys, likewise.
    #[cfg(test)]
    pub(crate) fn packed_mut(&mut self) -> &mut [KeyLanes] {
        &mut self.packed
    }

    /// Verifies the shape — `rows` rows of `stride` columns in exactly the
    /// blocks they need — that every lane past the last row is NaN and keyed
    /// `NO_ORDER`, and every key against its exact lane: `order_key` of
    /// the value, or `NO_ORDER` across a row that holds a NaN, in the key
    /// lanes and in the packed copy.
    pub(crate) fn check(&self, rows: usize, stride: usize) -> Result<(), String> {
        if self.rows != rows
            || (rows > 0 && self.stride != stride)
            || self.lanes.len() != rows.div_ceil(BLOCK_LANES) * self.stride
            || self.keys.len() != self.lanes.len()
            || self.packed.len() != rows
        {
            return Err(format!(
                "blocked mirror holds {} rows of stride {} in {} lane arrays, {} key arrays and {} packed keys, expected {rows} rows of stride {stride}",
                self.rows,
                self.stride,
                self.lanes.len(),
                self.keys.len(),
                self.packed.len()
            ));
        }
        if let Some((keys, lanes)) = self.blocks().last() {
            let occupied = rows - (rows - 1) / BLOCK_LANES * BLOCK_LANES;
            if !lanes
                .iter()
                .flat_map(|a| &a[occupied..])
                .all(|v| v.is_nan())
            {
                return Err("blocked mirror padding lane is not NaN".to_string());
            }
            let mut padding = keys.iter().flat_map(|a| &a[occupied..]);
            if !padding.all(|&k| k == NO_ORDER) {
                return Err("blocked mirror padding key carries an order".to_string());
            }
        }
        for i in 0..rows {
            let ordered = !self.row(i).any(f64::is_nan);
            let key_of = |v| if ordered { order_key(v) } else { NO_ORDER };
            let first = i / BLOCK_LANES * self.stride;
            let held = self.keys[first..first + self.stride]
                .iter()
                .map(|array| array[i % BLOCK_LANES]);
            if !held.eq(self.row(i).map(key_of)) {
                return Err(format!("order key lane of row {i} is stale"));
            }
            let mut packed = self.row(i).map(key_of).chain(std::iter::repeat(NO_ORDER));
            if !self.packed[i].iter().all(|&k| Some(k) == packed.next()) {
                return Err(format!("packed order keys of row {i} are stale"));
            }
        }
        Ok(())
    }
}

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

    fn blocked(rows: &[Vec<f64>]) -> BlockedRows {
        let mut b = BlockedRows::default();
        for row in rows {
            b.push(row.iter().copied());
        }
        b
    }

    #[test]
    fn blocked_rows_put_row_i_in_lane_i_of_its_block() {
        let rows: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64, -(i as f64)]).collect();
        let b = blocked(&rows);
        let blocks: Vec<_> = b.blocks().collect();
        assert_eq!(blocks.len(), 2);
        let (keys, lanes) = blocks[0];
        assert_eq!(lanes[0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(lanes[1][3], -3.0);
        assert_eq!(keys[0], lanes[0].map(order_key));
        assert_eq!(keys[1], lanes[1].map(order_key));
        let (keys, lanes) = blocks[1];
        assert_eq!(lanes[0][0], 8.0);
        assert!(lanes.iter().all(|a| a[1..].iter().all(|v| v.is_nan())));
        assert!(keys.iter().all(|a| a[1..].iter().all(|&k| k == NO_ORDER)));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&b.row(i).collect::<Vec<_>>(), row);
            assert_eq!((b.value(i, 0), b.value(i, 1)), (row[0], row[1]));
            let mut packed = [NO_ORDER; BLOCK_LANES];
            packed[0] = order_key(row[0]);
            packed[1] = order_key(row[1]);
            assert_eq!(b.packed_keys(i), &packed);
        }
        b.check(9, 2).unwrap();
    }

    #[test]
    fn blocked_set_and_swap_remove_mirror_vec_semantics() {
        // Remove from every position at sizes on both sides of one and two
        // blocks, against `Vec::swap_remove`; the vacated lane must read as
        // padding again and an emptied block must go.
        for n in [1usize, 7, 8, 9, 16, 17] {
            for i in 0..n {
                let mut rows: Vec<Vec<f64>> = (0..n).map(|r| vec![r as f64, 0.5, -1.0]).collect();
                let mut b = blocked(&rows);
                b.set(i, [9.0, 9.5, -9.0]);
                rows[i] = vec![9.0, 9.5, -9.0];
                b.swap_remove(i);
                rows.swap_remove(i);
                b.check(n - 1, 3).unwrap();
                assert_eq!(b.blocks().count(), (n - 1).div_ceil(BLOCK_LANES));
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(&b.row(r).collect::<Vec<_>>(), row, "{n} rows, removed {i}");
                }
                // And the mirror keeps growing from where it shrank to.
                b.push([1.0, 2.0, 3.0]);
                b.check(n, 3).unwrap();
                assert_eq!(b.row(n - 1).collect::<Vec<_>>(), [1.0, 2.0, 3.0]);
            }
        }
    }

    #[test]
    fn blocked_rows_adopt_the_width_of_each_epoch() {
        let mut b = blocked(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        b.clear();
        b.check(0, 2).unwrap();
        assert_eq!(b.blocks().count(), 0);
        // Room reserved at the old width is just capacity: it holds no
        // rows and does not pin the stride.
        b.reserve(100);
        b.check(0, 2).unwrap();
        b.push([1.0, 2.0, 3.0]);
        b.check(1, 3).unwrap();
        // An unsized mirror has no blocks to scan.
        assert_eq!(BlockedRows::default().blocks().count(), 0);
        BlockedRows::default().check(0, 5).unwrap();
    }

    #[test]
    #[should_panic(expected = "row length must match stride")]
    fn blocked_short_row_panics() {
        let mut b = blocked(&[vec![1.0, 2.0]]);
        b.push([1.0]);
    }

    #[test]
    #[should_panic(expected = "row length must match stride")]
    fn blocked_long_row_panics() {
        let mut b = blocked(&[vec![1.0, 2.0]]);
        b.set(0, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn blocked_check_sees_wrong_shapes_and_dirty_padding() {
        let b = blocked(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        b.check(3, 2).unwrap();
        assert!(b.check(2, 2).unwrap_err().contains("expected 2 rows"));
        assert!(b.check(3, 3).unwrap_err().contains("stride 3"));
        let mut dirty = b.clone();
        dirty.lanes_mut()[1][7] = 0.0;
        assert!(dirty.check(3, 2).unwrap_err().contains("padding"));
        let mut surplus = b.clone();
        surplus.lanes.push([f64::NAN; BLOCK_LANES]);
        assert!(surplus.check(3, 2).is_err());
        let mut unkeyed = b.clone();
        unkeyed.keys.pop();
        assert!(unkeyed.check(3, 2).is_err());
        let mut unpacked = b.clone();
        unpacked.packed.pop();
        assert!(unpacked.check(3, 2).is_err());
    }

    /// A key that claims more than its value can back — here 3.0 keyed as
    /// 4.0, which would "prove" 3.5 < 3.0 — is what would let a scan skip a
    /// block it must not; `check` sees it in the key lanes, in the packed
    /// copy and in padding.
    #[test]
    fn blocked_check_sees_keys_that_are_too_decisive() {
        let b = blocked(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut lane = b.clone();
        lane.keys_mut()[0][1] = order_key(4.0);
        assert!(lane.check(3, 2).unwrap_err().contains("key lane of row 1"));
        let mut packed = b.clone();
        packed.packed_mut()[1][0] = order_key(4.0);
        let err = packed.check(3, 2).unwrap_err();
        assert!(err.contains("packed order keys of row 1"), "{err}");
        let mut unused = b.clone();
        unused.packed_mut()[2][5] = 0;
        assert!(unused.check(3, 2).unwrap_err().contains("packed"));
        let mut padding = b.clone();
        padding.keys_mut()[1][3] = order_key(6.0);
        assert!(padding.check(3, 2).unwrap_err().contains("padding key"));
    }

    /// One NaN blanks every key of its row — a key left standing beside it
    /// could prove the row better somewhere while the NaN column proves it
    /// "worse" — and the row gets its keys back when the NaN goes.
    #[test]
    fn a_row_holding_nan_has_no_order_in_any_column() {
        let mut b = blocked(&[vec![1.0, 2.0, 3.0], vec![f64::NAN, 2.0, 3.0]]);
        b.check(2, 3).unwrap();
        assert_eq!(b.packed_keys(1), &[NO_ORDER; BLOCK_LANES]);
        for (keys, _) in b.blocks() {
            assert!(keys.iter().all(|a| a[0] != NO_ORDER && a[1] == NO_ORDER));
        }
        let mut kept = b.clone();
        kept.keys_mut()[1][1] = order_key(2.0);
        assert!(kept.check(2, 3).unwrap_err().contains("row 1"));
        b.set(1, [0.5, 2.0, 3.0]);
        b.check(2, 3).unwrap();
        assert_eq!(b.packed_keys(1)[..3], [0.5, 2.0, 3.0].map(order_key));
        b.set(0, [1.0, 2.0, f64::NAN]);
        b.check(2, 3).unwrap();
        assert_eq!(b.packed_keys(0), &[NO_ORDER; BLOCK_LANES]);
    }

    /// Rows wider than a register: the key lanes cover every column, the
    /// packed copy the first eight.
    #[test]
    fn packed_keys_hold_the_first_eight_columns() {
        let row: Vec<f64> = (0..11).map(|c| c as f64 - 3.0).collect();
        let mut b = blocked(&[row.clone(), row.iter().map(|v| v * 2.0).collect()]);
        b.check(2, 11).unwrap();
        let first: Vec<i16> = row[..BLOCK_LANES].iter().map(|&v| order_key(v)).collect();
        assert_eq!(b.packed_keys(0)[..], first[..]);
        b.swap_remove(0);
        b.check(1, 11).unwrap();
        assert_eq!(b.packed_keys(0)[3], order_key(0.0));
        assert_eq!(b.packed_keys(0)[7], order_key(8.0));
    }
}

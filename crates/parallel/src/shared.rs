//! Disjoint shared-memory access for row-parallel kernels.
//!
//! Every attention kernel writes row `i` of the output matrix from exactly
//! one block (the paper's shared-memory CUDA model). [`RowWriter`] gives
//! workers mutable access to *disjoint* rows of one borrowed buffer without
//! per-element atomics; disjointness is guaranteed by the launch schedule
//! (each index in `0..n` is dispatched to exactly one block — tested in
//! `parallel_for`).

use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// Mutable row-sliced view over a borrowed buffer, shareable across the
/// workers of one parallel launch.
///
/// `RowWriter` hands out `&mut [T]` row slices through a shared reference.
/// It is sound if and only if no two concurrent `row_mut` calls target the
/// same row — which `parallel_for` guarantees by construction
/// (disjoint ranges). The unsafety is confined to `row_mut`; everything
/// else is ordinary borrowing.
pub struct RowWriter<'a, T> {
    data: *const UnsafeCell<T>,
    rows: usize,
    row_len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: RowWriter only allows access to the underlying buffer via
// `row_mut`, whose contract requires callers to access disjoint rows.
// Transferring the view across threads is therefore as safe as
// transferring `&mut [T]` split into disjoint chunks.
unsafe impl<T: Send> Send for RowWriter<'_, T> {}
// SAFETY: a shared `&RowWriter` reaches the buffer only through `row_mut`
// and `CellWriter::cell_mut`, and their callers guarantee that no two
// threads hold the same row, so threads only ever hold disjoint `&mut`
// rows, which needs `T: Send` and no more (`parallel_disjoint_writes_are_complete`).
unsafe impl<T: Send> Sync for RowWriter<'_, T> {}

impl<'a, T> RowWriter<'a, T> {
    /// View `buffer` as `rows` rows of `row_len` elements.
    ///
    /// # Panics
    /// Panics if `buffer.len() != rows * row_len`.
    pub fn new(buffer: &'a mut [T], rows: usize, row_len: usize) -> Self {
        assert_eq!(
            buffer.len(),
            rows * row_len,
            "buffer length {} != {rows} rows × {row_len}",
            buffer.len()
        );
        RowWriter {
            data: buffer.as_mut_ptr() as *const UnsafeCell<T>,
            rows,
            row_len,
            _borrow: PhantomData,
        }
    }

    /// Mutable access to row `i`.
    ///
    /// # Safety
    /// No other `row_mut(i)` borrow for the same `i` may be live anywhere
    /// (including on other threads). A `parallel_for` launch satisfies
    /// this: each row index is dispatched to exactly one block.
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn row_mut(&self, i: usize) -> &mut [T] {
        assert!(i < self.rows, "row {i} out of {} rows", self.rows);
        // SAFETY: `data` points into a live `&'a mut [T]` of exactly
        // rows × row_len elements (checked in `new`), and `i < rows` was
        // asserted above, so `i * row_len + row_len ≤ rows × row_len`: the
        // row is in bounds (`out_of_range_row_panics`). Uniqueness of the
        // `&mut` is the caller's contract above.
        unsafe {
            let start = self.data.add(i * self.row_len) as *mut T;
            std::slice::from_raw_parts_mut(start, self.row_len)
        }
    }
}

/// A set of per-row scalar cells (`l` and `m` statistics vectors in
/// Algorithm 1) with the same disjoint-row contract as [`RowWriter`].
pub struct CellWriter<'a, T> {
    inner: RowWriter<'a, T>,
}

impl<'a, T> CellWriter<'a, T> {
    /// View `buffer` as one cell per row.
    pub fn new(buffer: &'a mut [T]) -> Self {
        let rows = buffer.len();
        CellWriter {
            inner: RowWriter::new(buffer, rows, 1),
        }
    }

    /// Mutable access to cell `i`.
    ///
    /// # Safety
    /// Same contract as [`RowWriter::row_mut`]: cell `i` must not be
    /// concurrently accessed.
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn cell_mut(&self, i: usize) -> &mut T {
        // SAFETY: forwarded contract.
        unsafe { &mut self.inner.row_mut(i)[0] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_for::{parallel_for, Schedule};
    use crate::pool::ThreadPool;

    #[test]
    fn rows_are_independent() {
        let mut buf = vec![0u64; 8 * 4];
        {
            let writer = RowWriter::new(&mut buf, 8, 4);
            // Serial use: write each row once.
            for i in 0..8 {
                // SAFETY: one thread, and row `i`'s borrow ends before the
                // next row is taken.
                let row = unsafe { writer.row_mut(i) };
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (i * 10 + j) as u64;
                }
            }
        }
        assert_eq!(buf[0..4], [0, 1, 2, 3]);
        assert_eq!(buf[28..32], [70, 71, 72, 73]);
    }

    #[test]
    fn parallel_disjoint_writes_are_complete() {
        let pool = ThreadPool::new(4);
        let n = 512;
        let d = 8;
        let mut buf = vec![0u64; n * d];
        {
            let writer = RowWriter::new(&mut buf, n, d);
            parallel_for(&pool, n, Schedule { grain: 1 }, |range| {
                for i in range {
                    // SAFETY: `parallel_for` dispatches each row exactly once.
                    let row = unsafe { writer.row_mut(i) };
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (i * d + j) as u64;
                    }
                }
            });
        }
        for (idx, v) in buf.iter().enumerate() {
            assert_eq!(*v, idx as u64);
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_row_panics() {
        let mut buf = vec![0u8; 4];
        let writer = RowWriter::new(&mut buf, 2, 2);
        // SAFETY: no other borrow exists; row 2 of 2 fails `row_mut`'s
        // bounds assertion before any pointer is formed.
        let _ = unsafe { writer.row_mut(2) };
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn shape_mismatch_panics() {
        let mut buf = vec![0u8; 5];
        let _ = RowWriter::new(&mut buf, 2, 2);
    }

    #[test]
    fn cell_writer_covers_all_cells() {
        let pool = ThreadPool::new(4);
        let mut stats = vec![0.0f64; 300];
        {
            let cells = CellWriter::new(&mut stats);
            parallel_for(&pool, 300, Schedule { grain: 7 }, |range| {
                for i in range {
                    // SAFETY: disjoint dispatch per index.
                    unsafe { *cells.cell_mut(i) = i as f64 * 0.5 };
                }
            });
        }
        for (i, v) in stats.iter().enumerate() {
            assert_eq!(*v, i as f64 * 0.5);
        }
    }
}

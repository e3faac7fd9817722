//! Query-window geometry — the shape vocabulary of rectangular attention.
//!
//! The paper's kernels (Section IV) are written for square `L×L`
//! self-attention, but serving workloads are dominated by *rectangular*
//! launches: chunked prefill computes a window of query rows against the
//! full key/value prefix, and KV-cached autoregressive decode computes a
//! single query row against everything generated so far. [`Geometry`]
//! names that shape once — `q_rows` query rows starting at absolute
//! position `q_offset` inside a logical `kv_rows × kv_rows` attention
//! problem — and every layer of the stack (row enumerators, plans, the
//! batch executor, the engine's serving entry points) speaks it.
//!
//! The invariant that makes the refactor safe: a kernel's per-row neighbor
//! rule depends only on the *absolute* query index and the key/value count,
//! so any window of a longer sequence streams exactly the rows the square
//! kernel would have streamed. Chunked prefill over any split is therefore
//! bitwise identical to the full square forward, and a decode step
//! reproduces the last row of the square forward over the tokens so far
//! (property-tested in `tests/geometry.rs`).

use crate::error::AttnError;

/// A window of query rows over a logical square attention problem.
///
/// `q_rows` queries starting at absolute row `q_offset`, attending into a
/// key/value set of `kv_rows` rows. The implicit kernels interpret their
/// mask rule over the logical `kv_rows × kv_rows` square and evaluate only
/// the rows `q_offset .. q_offset + q_rows` of it.
///
/// `kv_rows` may be fewer than the rows of the `K`/`V` a request borrows:
/// the request then attends over their first `kv_rows` rows and never
/// reads past them. A serving loop that keeps a sequence's whole K/V
/// attends over its cached prefix this way, with no copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of query rows in this window (output rows of the launch).
    pub q_rows: usize,
    /// Number of key/value rows — the context length of the logical mask,
    /// and the prefix of the request's `K`/`V` that it attends over.
    pub kv_rows: usize,
    /// Absolute index of the first query row within the logical sequence.
    pub q_offset: usize,
}

impl Geometry {
    /// A prefill-chunk window: `q_rows` queries starting at `q_offset`,
    /// against `kv_rows` keys/values.
    pub(crate) fn window(q_offset: usize, q_rows: usize, kv_rows: usize) -> Self {
        Geometry {
            q_rows,
            kv_rows,
            q_offset,
        }
    }

    /// The KV-cached decode geometry: one query row — the newest token —
    /// against a cache of `kv_rows` entries (which already includes it).
    ///
    /// # Panics
    /// Panics if `kv_rows == 0` (decode needs at least the new token).
    pub(crate) fn decode(kv_rows: usize) -> Self {
        assert!(kv_rows > 0, "decode needs at least one cached token");
        Geometry {
            q_rows: 1,
            kv_rows,
            q_offset: kv_rows - 1,
        }
    }

    /// One past the last absolute query row: `q_offset + q_rows`.
    pub(crate) fn q_end(&self) -> usize {
        self.q_offset + self.q_rows
    }

    /// True when the query rows lie inside the logical square
    /// (`q_end() ≤ kv_rows`) — required by every implicit kernel, whose
    /// row rules index the `kv_rows × kv_rows` mask.
    pub(crate) fn is_window(&self) -> bool {
        self.q_end() <= self.kv_rows
    }

    /// Reject geometries whose query rows fall outside the logical square.
    pub(crate) fn check_window(&self) -> Result<(), AttnError> {
        if self.is_window() {
            Ok(())
        } else {
            Err(AttnError::WindowMismatch {
                q_offset: self.q_offset,
                q_rows: self.q_rows,
                kv_rows: self.kv_rows,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_window_decode_shapes() {
        let s = Geometry::window(0, 8, 8);
        assert!(s.is_window());
        assert_eq!(s.q_end(), 8);

        let w = Geometry::window(3, 2, 8);
        assert!(w.is_window());
        assert_eq!(w.q_end(), 5);

        let d = Geometry::decode(5);
        assert_eq!(d, Geometry::window(4, 1, 5));
        assert!(d.is_window());
        // A length-1 sequence's decode step IS the square forward.
        assert_eq!(Geometry::decode(1), Geometry::window(0, 1, 1));
    }

    #[test]
    fn window_check_rejects_overhang() {
        assert!(Geometry::window(6, 3, 8).check_window().is_err());
        assert!(Geometry::window(6, 2, 8).check_window().is_ok());
        assert!(matches!(
            Geometry::window(0, 9, 8).check_window(),
            Err(AttnError::WindowMismatch {
                q_offset: 0,
                q_rows: 9,
                kv_rows: 8
            })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one cached token")]
    fn decode_needs_a_token() {
        let _ = Geometry::decode(0);
    }
}

//! The rank index: a training matrix re-encoded for the split search.
//!
//! For every feature the index stores a dense `u32` **rank** per row —
//! the position of the row's value among the feature's distinct values
//! in [`f64::total_cmp`] order — plus the table of those distinct
//! values, so `values(f)[rank(f, row)]` is the row's value bit for bit.
//! Ranks are column-major: a node's gather over one feature reads one
//! contiguous `u32` column instead of chasing a pointer per row.
//!
//! Rank order *is* `total_cmp` order, so sorting a node by rank sorts
//! it by value; the split search only goes back to the value table at
//! a boundary between two ranks (see [`crate::tree`]). The index
//! depends on the matrix alone, so one index serves every tree of a
//! forest and every cross-validation fold drawn from the same matrix
//! ([`crate::forest::RandomForest::fit_rows`]).

use crate::dataset::Dataset;
use crate::source::DatasetSource;
use crate::tree::TrainRows;
use std::io;

/// Rows [`RankIndex::load`] reads per `load_rows` call.
const LOAD_CHUNK_ROWS: usize = 256;

/// A column-major rank encoding of a labelled feature matrix.
#[derive(Debug, Clone)]
pub struct RankIndex {
    n_rows: usize,
    n_classes: usize,
    labels: Vec<usize>,
    /// `ranks[f][row]`: the row's rank in feature `f`.
    ranks: Vec<Vec<u32>>,
    /// `values[f][rank]`: feature `f`'s distinct values, ascending in
    /// `total_cmp` order.
    values: Vec<Vec<f64>>,
}

impl RankIndex {
    /// Builds the index of every row of `data`: one `total_cmp` sort
    /// per feature.
    ///
    /// # Panics
    ///
    /// Panics if `data` has more than `u32::MAX` rows.
    pub fn build(data: &Dataset) -> Self {
        Self::from_columns(
            data.len(),
            data.dim(),
            data.n_classes(),
            data.labels().to_vec(),
            |f, column| {
                column.clear();
                column.extend((0..data.len()).map(|i| data.row(i)[f]));
            },
        )
    }

    /// Indexes rows `[start, start + count)` of `source`, reading them
    /// in chunks of [`LOAD_CHUNK_ROWS`] straight into columns, so the
    /// range is never resident row-major and each column is freed as
    /// soon as it is ranked. This keeps a training shard's peak near
    /// one copy of its values.
    ///
    /// # Errors
    ///
    /// Propagates the source's I/O or validation error.
    pub(crate) fn load<S: DatasetSource + ?Sized>(
        source: &S,
        start: usize,
        count: usize,
    ) -> io::Result<Self> {
        let dim = source.dim();
        let mut columns: Vec<Vec<f64>> = (0..dim).map(|_| Vec::with_capacity(count)).collect();
        let mut labels = Vec::with_capacity(count);
        let mut loaded = 0;
        while loaded < count {
            let want = LOAD_CHUNK_ROWS.min(count - loaded);
            let chunk = source.load_rows(start + loaded, want)?;
            if chunk.len() != want || chunk.dim() != dim {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "source returned {} rows of dimension {} for {want} of {dim}",
                        chunk.len(),
                        chunk.dim()
                    ),
                ));
            }
            for i in 0..chunk.len() {
                for (column, &v) in columns.iter_mut().zip(chunk.row(i)) {
                    column.push(v);
                }
            }
            labels.extend_from_slice(chunk.labels());
            loaded += chunk.len();
        }
        Ok(Self::from_columns(
            count,
            dim,
            source.n_classes(),
            labels,
            |f, column| *column = std::mem::take(&mut columns[f]),
        ))
    }

    /// Ranks each feature's column as `fill_column(f, buffer)` puts
    /// it into the buffer.
    fn from_columns(
        n_rows: usize,
        dim: usize,
        n_classes: usize,
        labels: Vec<usize>,
        mut fill_column: impl FnMut(usize, &mut Vec<f64>),
    ) -> Self {
        assert!(
            u32::try_from(n_rows).is_ok(),
            "rank index rows must be numbered in u32"
        );
        let mut ranks = Vec::with_capacity(dim);
        let mut values = Vec::with_capacity(dim);
        let mut column = Vec::new();
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n_rows);
        for f in 0..dim {
            fill_column(f, &mut column);
            keyed.clear();
            keyed.extend(
                column
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (total_cmp_key(v), i as u32)),
            );
            keyed.sort_unstable();
            let mut rank = vec![0u32; n_rows];
            let mut distinct = Vec::new();
            let mut last_key = None;
            for &(key, row) in &keyed {
                if last_key != Some(key) {
                    last_key = Some(key);
                    distinct.push(column[row as usize]);
                }
                rank[row as usize] = (distinct.len() - 1) as u32;
            }
            ranks.push(rank);
            values.push(distinct);
        }
        RankIndex {
            n_rows,
            n_classes,
            labels,
            ranks,
            values,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Whether the index has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.ranks.len()
    }

    /// Number of classes the label space admits.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Every row's rank in `feature`, indexed by row.
    #[inline]
    pub(crate) fn ranks(&self, feature: usize) -> &[u32] {
        &self.ranks[feature]
    }

    /// `feature`'s distinct values, indexed by rank.
    #[inline]
    pub(crate) fn values(&self, feature: usize) -> &[f64] {
        &self.values[feature]
    }
}

impl TrainRows for RankIndex {
    fn dim(&self) -> usize {
        RankIndex::dim(self)
    }

    fn n_classes(&self) -> usize {
        RankIndex::n_classes(self)
    }

    #[inline]
    fn label(&self, row: usize) -> usize {
        self.labels[row]
    }

    /// Bit-identical to the value in the matrix the index was built
    /// from.
    #[inline]
    fn value(&self, row: usize, feature: usize) -> f64 {
        self.values[feature][self.ranks[feature][row] as usize]
    }
}

/// Order-preserving integer image of an `f64`: sorting keys ascending
/// orders the originals exactly as [`f64::total_cmp`] ascending would
/// (negative NaN first, positive NaN last, `-0.0` before `+0.0`).
/// This is the bit transform `total_cmp` applies per comparison.
#[inline]
pub(crate) fn total_cmp_key(v: f64) -> u64 {
    let bits = v.to_bits();
    // Negatives: flip all bits (reverses their order). Non-negatives:
    // flip only the sign bit (lifts them above all negatives).
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_dense_and_values_round_trip() {
        let mut ds = Dataset::new(2);
        for (v, w) in [
            (3.0, -1.0),
            (1.0, -1.0),
            (3.0, 2.5),
            (-0.0, 7.0),
            (0.0, 7.0),
        ] {
            ds.push(vec![v, w], 0);
        }
        let index = RankIndex::build(&ds);
        assert_eq!((index.len(), index.dim(), index.n_classes()), (5, 2, 2));
        assert_eq!(index.ranks(0), &[3, 2, 3, 0, 1]);
        // -0.0 and +0.0 are distinct under total_cmp: two ranks.
        assert_eq!(
            index
                .values(0)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            [-0.0f64, 0.0, 1.0, 3.0].map(f64::to_bits)
        );
        assert_eq!(index.ranks(1), &[0, 0, 1, 2, 2]);
        assert_eq!(index.values(1), &[-1.0, 2.5, 7.0]);
        for i in 0..ds.len() {
            for f in 0..ds.dim() {
                assert_eq!(index.value(i, f).to_bits(), ds.row(i)[f].to_bits());
            }
        }
    }

    #[test]
    fn loading_a_source_range_matches_building_its_subset() {
        // Spans several load chunks and starts mid-source.
        let mut rng = synthattr_util::Pcg64::new(3);
        let mut ds = Dataset::new(4);
        for _ in 0..2600 {
            let row = vec![
                rng.next_below(9) as f64 - 4.0,
                rng.next_gaussian(0.0, 1.0),
                if rng.next_below(2) == 0 { -0.0 } else { 0.0 },
            ];
            ds.push(row, rng.next_below(4));
        }
        let (start, count) = (300, 2 * LOAD_CHUNK_ROWS + 7);
        let loaded = RankIndex::load(&ds, start, count).unwrap();
        let rows: Vec<usize> = (start..start + count).collect();
        let built = RankIndex::build(&ds.subset(&rows));
        assert_eq!(loaded.len(), count);
        assert_eq!(loaded.labels, built.labels);
        assert_eq!(loaded.ranks, built.ranks);
        let bits = |index: &RankIndex| -> Vec<Vec<u64>> {
            index
                .values
                .iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&loaded), bits(&built));
        assert!(RankIndex::load(&ds, 2000, 601).is_err(), "out of range");
    }

    #[test]
    fn empty_and_zero_dim_matrices_build() {
        let empty = RankIndex::build(&Dataset::new(3));
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 0);
        let mut no_features = Dataset::new(2);
        no_features.push(Vec::new(), 1);
        let index = RankIndex::build(&no_features);
        assert_eq!((index.len(), index.dim()), (1, 0));
        assert_eq!(index.label(0), 1);
    }
}

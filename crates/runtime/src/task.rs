//! The divide-and-conquer task traits.

/// A divide-and-conquer computation over a slice of items: the three
/// components of the skeleton (§1: "the programmer has to specify a
/// split, a work, and a join function"; the split is fixed to the
/// inverse of concatenation).
///
/// Joins must satisfy the homomorphism law
/// `work(x • y) = join(work(x), work(y))` for the executors to be
/// equivalent to the sequential run; they need **not** be commutative —
/// the runtime always joins adjacent chunks in order.
pub trait DncTask: Sync {
    /// Input element type (a row/plane of the outer dimension).
    type Item: Sync;
    /// The accumulator (the loop state `D`, including lifted
    /// auxiliaries).
    type Acc: Send;

    /// `work([])` — the state on an empty chunk (the unit of the join).
    fn identity(&self) -> Self::Acc;

    /// The sequential single-pass loop on one chunk.
    fn work(&self, chunk: &[Self::Item]) -> Self::Acc;

    /// The synthesized join `⊙`, combining adjacent chunk results.
    fn join(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;
}

/// A map-only parallelization (Prop. 4.3): the inner loop nest runs in
/// parallel as `map`, the outer fold stays sequential.
pub trait MapOnlyTask: Sync {
    /// Input element type.
    type Item: Sync;
    /// The inner nest's from-zero result `𝒢(0̸)(δ)`.
    type Mapped: Send;
    /// The outer loop state.
    type Acc: Send;

    /// The initial outer state.
    fn init(&self) -> Self::Acc;

    /// The inner loop nest from the fixed initial state (the parallel
    /// part).
    fn map(&self, item: &Self::Item) -> Self::Mapped;

    /// The sequential combine `⊚` folding one mapped result into the
    /// outer state.
    fn fold(&self, acc: Self::Acc, mapped: Self::Mapped) -> Self::Acc;
}

/// A divide-and-conquer computation over the index range `0..items()`,
/// for tasks that address their input by position rather than through a
/// slice (the synthesized plans of `parsynt-core`). The executor cuts
/// the range into chunks `lo..hi`; [`DncTask`] runs through the same
/// path with `work(&data[lo..hi])`.
pub trait RangeDncTask: Sync {
    /// The accumulator.
    type Acc: Send;

    /// Number of items: the task covers `0..items()`.
    fn items(&self) -> usize;

    /// The sequential loop over items `lo..hi`.
    fn work(&self, lo: usize, hi: usize) -> Self::Acc;

    /// The join `⊙`, combining the results of adjacent ranges.
    fn join(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;
}

/// A map-only computation (Prop. 4.3) over the index range `0..items()`:
/// ranges of items are mapped in parallel, then folded in order.
/// [`MapOnlyTask`] runs through the same path, one `map` per item.
pub trait RangeMapOnlyTask: Sync {
    /// The mapped results of one range.
    type Block: Send;
    /// The outer loop state.
    type Acc: Send;

    /// Number of items: the task covers `0..items()`.
    fn items(&self) -> usize;

    /// The initial outer state.
    fn init(&self) -> Self::Acc;

    /// Map items `lo..hi` (the parallel part).
    fn map(&self, lo: usize, hi: usize) -> Self::Block;

    /// Fold the block mapped from items `lo..hi` into the outer state.
    fn fold(&self, acc: Self::Acc, lo: usize, hi: usize, block: Self::Block) -> Self::Acc;
}

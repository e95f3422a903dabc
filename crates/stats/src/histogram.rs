//! Sparse categorical count histograms.
//!
//! Both of the paper's profile representations are count histograms over a
//! discrete key space: regions (pattern 1) or movement transitions
//! (pattern 2). [`CountHistogram`] stores counts sparsely and supports the
//! alignment operation needed by the chi-square comparison: pairing
//! observed/expected counts over the union of the two key sets, either as
//! a merge-join ([`CountHistogram::union_counts`]) or as two vectors
//! ([`CountHistogram::align`]).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hash::Hash;

/// A sparse histogram of `u64` counts keyed by `K`.
///
/// Keys are kept in a `BTreeMap` so iteration order — and therefore the
/// category order fed into chi-square tests — is deterministic.
///
/// # Examples
///
/// ```
/// use backwatch_stats::CountHistogram;
///
/// let mut h = CountHistogram::new();
/// h.add("home->work");
/// h.add("home->work");
/// h.add("work->gym");
/// assert_eq!(h.count(&"home->work"), 2);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountHistogram<K: Ord> {
    counts: BTreeMap<K, u64>,
    total: u64,
}

impl<K: Ord> Default for CountHistogram<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord> CountHistogram<K> {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// Increments the count for `key` by one.
    pub fn add(&mut self, key: K) {
        self.add_n(key, 1);
    }

    /// Increments the count for `key` by `n`.
    pub fn add_n(&mut self, key: K, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// The count recorded for `key` (zero if absent).
    pub fn count<Q>(&self, key: &Q) -> u64
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counts.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys with a positive count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the histogram holds no counts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(key, count)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &c)| (k, c))
    }

    /// The keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.counts.keys()
    }

    /// Probability mass function: counts normalized by the total.
    ///
    /// Returns an empty vector for an empty histogram.
    #[must_use]
    pub fn pmf(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        let t = self.total as f64;
        self.counts.values().map(|&c| c as f64 / t).collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &CountHistogram<K>)
    where
        K: Clone,
    {
        for (k, c) in other.iter() {
            self.add_n(k.clone(), c);
        }
    }

    /// Walks the union of both key sets in key order, yielding
    /// `(self_count, other_count)` per key (zero on the side that lacks
    /// it).
    ///
    /// Both maps are already sorted, so this is a merge-join: one pass, no
    /// allocation and no lookups.
    pub fn union_counts<'a>(&'a self, other: &'a CountHistogram<K>) -> impl Iterator<Item = (u64, u64)> + 'a {
        let mut mine = self.counts.iter().peekable();
        let mut theirs = other.counts.iter().peekable();
        std::iter::from_fn(move || {
            let order = match (mine.peek(), theirs.peek()) {
                (Some((a, _)), Some((b, _))) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return None,
            };
            let count = |entry: Option<(&K, &u64)>| entry.map_or(0, |(_, &c)| c);
            Some(match order {
                Ordering::Less => (count(mine.next()), 0),
                Ordering::Greater => (0, count(theirs.next())),
                Ordering::Equal => (count(mine.next()), count(theirs.next())),
            })
        })
    }

    /// Aligns `self` (observed) against `profile` (expected) over the union
    /// of both key sets, returning parallel count vectors in key order.
    ///
    /// Categories absent from one side get a zero in that side's vector.
    /// This is exactly the shape [`crate::chi2::GofTest::run`] consumes
    /// (after the caller substitutes its floor for zero expected counts).
    #[must_use]
    pub fn align(&self, profile: &CountHistogram<K>) -> (Vec<f64>, Vec<f64>) {
        self.union_counts(profile).map(|(o, e)| (o as f64, e as f64)).unzip()
    }
}

impl<K: Ord + Hash> FromIterator<K> for CountHistogram<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut h = Self::new();
        for k in iter {
            h.add(k);
        }
        h
    }
}

impl<K: Ord + Hash> Extend<K> for CountHistogram<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        for k in iter {
            self.add(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_count() {
        let mut h = CountHistogram::new();
        h.add(1);
        h.add(1);
        h.add(2);
        assert_eq!(h.count(&1), 2);
        assert_eq!(h.count(&2), 1);
        assert_eq!(h.count(&3), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn add_n_zero_is_noop() {
        let mut h: CountHistogram<i32> = CountHistogram::new();
        h.add_n(5, 0);
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn from_iterator_counts_duplicates() {
        let h: CountHistogram<&str> = ["a", "b", "a", "a"].into_iter().collect();
        assert_eq!(h.count(&"a"), 3);
        assert_eq!(h.count(&"b"), 1);
    }

    #[test]
    fn pmf_sums_to_one() {
        let h: CountHistogram<u8> = [1, 1, 2, 3, 3, 3].into_iter().collect();
        let pmf = h.pmf();
        let sum: f64 = pmf.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(pmf, vec![2.0 / 6.0, 1.0 / 6.0, 3.0 / 6.0]);
    }

    #[test]
    fn pmf_of_empty_is_empty() {
        let h: CountHistogram<u8> = CountHistogram::new();
        assert!(h.pmf().is_empty());
    }

    #[test]
    fn merge_conserves_totals() {
        let mut a: CountHistogram<char> = ['x', 'y'].into_iter().collect();
        let b: CountHistogram<char> = ['y', 'z', 'z'].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.count(&'y'), 2);
        assert_eq!(a.count(&'z'), 2);
    }

    #[test]
    fn align_covers_union_in_order() {
        let obs: CountHistogram<&str> = ["a", "a", "c"].into_iter().collect();
        let prof: CountHistogram<&str> = ["a", "b", "b", "b"].into_iter().collect();
        let (o, e) = obs.align(&prof);
        // union keys sorted: a, b, c
        assert_eq!(o, vec![2.0, 0.0, 1.0]);
        assert_eq!(e, vec![1.0, 3.0, 0.0]);
        let merged: Vec<(u64, u64)> = obs.union_counts(&prof).collect();
        assert_eq!(merged, vec![(2, 1), (0, 3), (1, 0)]);
        // the join is symmetric, and an empty side yields the other alone
        let swapped: Vec<(u64, u64)> = prof.union_counts(&obs).collect();
        assert_eq!(swapped, vec![(1, 2), (3, 0), (0, 1)]);
        let empty = CountHistogram::new();
        assert_eq!(obs.union_counts(&empty).collect::<Vec<_>>(), vec![(2, 0), (1, 0)]);
        assert_eq!(empty.union_counts(&prof).collect::<Vec<_>>(), vec![(0, 1), (0, 3)]);
        assert_eq!(empty.union_counts(&empty).count(), 0);
    }

    #[test]
    fn iteration_is_sorted() {
        let h: CountHistogram<i32> = [3, 1, 2].into_iter().collect();
        let keys: Vec<i32> = h.keys().copied().collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn extend_adds_counts() {
        let mut h: CountHistogram<i32> = CountHistogram::new();
        h.extend([1, 2, 2]);
        assert_eq!(h.total(), 3);
    }
}

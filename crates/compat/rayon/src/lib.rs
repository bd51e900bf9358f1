//! Offline stand-in for `rayon`.
//!
//! Supplies the one parallel-iterator shape this workspace uses —
//! `slice.par_iter().map(f).collect::<Vec<_>>()` — implemented with
//! `std::thread::scope` over contiguous chunks. `collect` preserves the
//! input order, so replacing a sequential `iter()` with `par_iter()` is
//! result-identical whenever the mapped function is deterministic per item.

use std::num::NonZeroUsize;

/// Number of worker threads (respects `RAYON_NUM_THREADS`, like the real
/// crate; defaults to the available parallelism).
fn num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// A mapped parallel iterator (the result of [`ParIter::map`]).
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each item through `f` in parallel.
    pub fn map<U, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> U + Sync,
        U: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParMap<'a, T, F> {
    /// Executes the map in parallel and collects results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let n = self.items.len();
        let threads = num_threads().min(n.max(1));
        if threads <= 1 || n <= 1 {
            return self.items.iter().map(&self.f).collect();
        }
        let chunk = n.div_ceil(threads);
        let mut results: Vec<Option<U>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let f = &self.f;
        std::thread::scope(|scope| {
            let mut rest = results.as_mut_slice();
            let mut offset = 0usize;
            while offset < n {
                let take = chunk.min(n - offset);
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let items = &self.items[offset..offset + take];
                scope.spawn(move || {
                    for (slot, item) in head.iter_mut().zip(items) {
                        *slot = Some(f(item));
                    }
                });
                offset += take;
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("rayon: worker thread panicked"))
            .collect()
    }
}

/// Conversion of borrowed collections into parallel iterators.
pub trait IntoParallelRefIterator<'a> {
    /// The element type.
    type Item: 'a;
    /// Starts a parallel iteration over borrowed items.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Commonly used items.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let sequential: Vec<u64> = input.iter().map(|x| x * x + 1).collect();
        let parallel: Vec<u64> = input.par_iter().map(|x| x * x + 1).collect();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }
}

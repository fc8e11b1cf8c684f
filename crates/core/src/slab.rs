//! Shared read-only array slabs: the storage behind the summary graph's derived arrays
//! (CSR adjacency, reachability words).
//!
//! A freshly constructed graph owns its arrays as plain `Vec`s. A graph reopened from an
//! `mvrc-dist` snapshot instead *borrows* them from the snapshot mapping: the slab
//! holds an `Arc` to the mapping (any [`SlabOwner`]) plus an offset/length pair, so opening a
//! snapshot installs the on-disk words directly — no per-element decode, no allocation
//! proportional to the workload. This module is entirely safe; the only `unsafe` involved
//! lives in the `mvrc-dist` owner implementation that reinterprets its aligned byte buffer as
//! `u64`/`u32` words.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A backing buffer that slabs can borrow from. Implementations expose one aligned allocation
/// under two element views; a slab addresses a subrange of one of them.
///
/// The returned slices must be stable for the owner's lifetime (the owner is held behind an
/// `Arc` and never mutated), and the two views must alias the same buffer — `u32_words()` is
/// the little-endian reinterpretation of `words()`.
pub trait SlabOwner: Send + Sync + 'static {
    /// The buffer as 64-bit words.
    fn words(&self) -> &[u64];
    /// The buffer as 32-bit words (same bytes, half-word granularity).
    fn u32_words(&self) -> &[u32];
}

#[derive(Clone)]
enum SlabRepr<T> {
    Owned(Vec<T>),
    Shared {
        owner: Arc<dyn SlabOwner>,
        offset: usize,
        len: usize,
    },
}

macro_rules! slab_type {
    ($(#[$doc:meta])* $name:ident, $elem:ty, $view:ident) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $name(SlabRepr<$elem>);

        impl $name {
            /// A slab borrowing `len` elements of `owner`'s buffer starting at element
            /// `offset` (in units of the element type).
            ///
            /// # Panics
            ///
            /// Panics when the range does not lie within the owner's buffer.
            pub fn shared(owner: Arc<dyn SlabOwner>, offset: usize, len: usize) -> Self {
                let available = owner.$view().len();
                assert!(
                    offset.checked_add(len).is_some_and(|end| end <= available),
                    "shared slab range {offset}+{len} exceeds owner buffer of {available} elements"
                );
                $name(SlabRepr::Shared { owner, offset, len })
            }

            /// `true` when this slab borrows a shared owner rather than owning its elements.
            pub fn is_shared(&self) -> bool {
                matches!(self.0, SlabRepr::Shared { .. })
            }
        }

        impl From<Vec<$elem>> for $name {
            fn from(v: Vec<$elem>) -> Self {
                $name(SlabRepr::Owned(v))
            }
        }

        impl Deref for $name {
            type Target = [$elem];

            #[inline]
            fn deref(&self) -> &[$elem] {
                match &self.0 {
                    SlabRepr::Owned(v) => v,
                    SlabRepr::Shared { owner, offset, len } => {
                        &owner.$view()[*offset..*offset + *len]
                    }
                }
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let kind = if self.is_shared() { "shared" } else { "owned" };
                write!(f, "{}[{kind}; {}]", stringify!($name), self.len())
            }
        }

        /// Element-wise: an owned and a shared slab over equal words compare equal.
        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                **self == **other
            }
        }

        impl Eq for $name {}
    };
}

slab_type!(
    /// A read-only `u64` slab — owned words or a borrowed range of a [`SlabOwner`].
    U64Slab,
    u64,
    words
);
slab_type!(
    /// A read-only `u32` slab — owned words or a borrowed range of a [`SlabOwner`].
    U32Slab,
    u32,
    u32_words
);

#[cfg(test)]
mod tests {
    use super::*;

    struct VecOwner {
        words: Vec<u64>,
        halves: Vec<u32>,
    }

    impl SlabOwner for VecOwner {
        fn words(&self) -> &[u64] {
            &self.words
        }
        fn u32_words(&self) -> &[u32] {
            &self.halves
        }
    }

    fn owner() -> Arc<dyn SlabOwner> {
        Arc::new(VecOwner {
            words: vec![1, 2, 3, 4],
            halves: vec![10, 20, 30, 40, 50, 60, 70, 80],
        })
    }

    #[test]
    fn owned_and_shared_slabs_compare_elementwise() {
        let shared = U64Slab::shared(owner(), 1, 2);
        assert!(shared.is_shared());
        assert_eq!(&*shared, &[2, 3]);
        let owned = U64Slab::from(vec![2u64, 3]);
        assert!(!owned.is_shared());
        assert_eq!(shared, owned);
        assert_ne!(shared, U64Slab::from(vec![2u64, 4]));

        let halves = U32Slab::shared(owner(), 6, 2);
        assert_eq!(&*halves, &[70, 80]);
        assert_eq!(halves, U32Slab::from(vec![70u32, 80]));
        assert!(format!("{shared:?}").contains("shared"));
        assert!(format!("{:?}", U32Slab::from(vec![1u32])).contains("owned"));
    }

    #[test]
    #[should_panic(expected = "exceeds owner buffer")]
    fn out_of_range_shared_slab_is_rejected_at_construction() {
        U64Slab::shared(owner(), 3, 2);
    }
}

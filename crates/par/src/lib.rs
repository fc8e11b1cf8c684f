//! # mvrc-par
//!
//! The thread-count policy of the workspace's one parallel job: the large subset sweep of
//! `mvrc-robustness`. There is no pool. A sweep that fans out opens one
//! [`std::thread::scope`] for its whole level walk and joins it before returning; every
//! other computation runs inline on the calling thread.
//!
//! The process-wide thread count is resolved once, on first use, from (in order):
//! [`configure_thread_count`] (the CLI's `--threads N`), the `MVRC_THREADS` environment
//! variable, and [`std::thread::available_parallelism`]. A [`Parallelism`] value caps the
//! fan-out of one call.
//!
//! # Example
//!
//! ```
//! use mvrc_par::{planned_thread_count, Parallelism};
//!
//! assert!(planned_thread_count() >= 1);
//! assert_eq!(Parallelism::Serial.effective_threads(), 1);
//! assert_eq!(Parallelism::Auto.effective_threads(), planned_thread_count());
//! assert_eq!(Parallelism::Threads(usize::MAX).effective_threads(), planned_thread_count());
//! ```

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The resolved process-wide thread count.
static THREADS: OnceLock<usize> = OnceLock::new();

/// Requests a process-wide thread count (values of `0` behave like `1`).
///
/// The count is resolved once: the request takes effect only when it comes before the first
/// [`planned_thread_count`] query. Returns `true` when the resolved count equals the request.
pub fn configure_thread_count(threads: usize) -> bool {
    let threads = threads.max(1);
    *THREADS.get_or_init(|| threads) == threads
}

/// The process-wide thread count: a [`configure_thread_count`] request, else `MVRC_THREADS`,
/// else the available parallelism. Resolved on the first call and fixed afterwards.
pub fn planned_thread_count() -> usize {
    *THREADS.get_or_init(|| {
        std::env::var("MVRC_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// How many threads one parallel operation may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Use [`planned_thread_count`] threads when the operation is large enough to gain from
    /// them (the operation decides what "large enough" is); run inline otherwise.
    #[default]
    Auto,
    /// Run inline on the calling thread.
    Serial,
    /// Use this many threads regardless of the operation's size. Values of `0` behave like
    /// `1`; values above [`planned_thread_count`] are capped at it.
    Threads(usize),
}

impl Parallelism {
    /// Number of threads this operation may occupy (`1` means run inline).
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => planned_thread_count(),
            Parallelism::Threads(n) => n.clamp(1, planned_thread_count()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_honors_env_override() {
        // The CI matrix runs the suite under MVRC_THREADS=1; when the variable is set it must
        // win over available_parallelism.
        if let Some(requested) = std::env::var("MVRC_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            assert_eq!(planned_thread_count(), requested);
        }
        // Resolved once: a later request for another count is refused.
        let resolved = planned_thread_count();
        assert!(configure_thread_count(resolved));
        assert!(!configure_thread_count(resolved + 1));
        assert_eq!(planned_thread_count(), resolved);
    }

    #[test]
    fn thread_caps_stay_within_one_and_the_planned_count() {
        let planned = planned_thread_count();
        assert_eq!(Parallelism::Serial.effective_threads(), 1);
        assert_eq!(Parallelism::Threads(0).effective_threads(), 1);
        assert_eq!(Parallelism::Threads(1).effective_threads(), 1);
        assert_eq!(Parallelism::Threads(2).effective_threads(), planned.min(2));
        assert_eq!(Parallelism::Auto.effective_threads(), planned);
    }
}

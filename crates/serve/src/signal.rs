//! Graceful-shutdown signal plumbing.
//!
//! The daemon drains on SIGTERM: the handler installed here only flips one process-global
//! [`AtomicBool`] (the only async-signal-safe action it could take), and the accept loop and
//! connection threads poll that flag between requests — in-flight queries finish, tenants are
//! persisted, then the process exits. The wire-level `shutdown` op drains through the same
//! code path via a *server-local* flag (so several servers in one test process stop
//! independently); this process-global one is reserved for the signal.
//!
//! # The one `unsafe` call
//!
//! std links the C runtime but exposes no signal API, and this workspace vendors no `libc`
//! crate, so the handler is installed through a hand-declared binding to the C `signal`
//! entry point. This is the crate's single `unsafe` expression (see the workspace unsafe
//! budget): the call passes a `#[no_mangle]`-free, non-capturing `extern "C"` function whose
//! body is one atomic store, and the binding's signature matches the POSIX prototype
//! (`void (*signal(int, void (*)(int)))(int)` — the handler and return value travel as plain
//! pointers).

use std::sync::atomic::{AtomicBool, Ordering};

/// POSIX `SIGTERM` on Linux.
const SIGTERM: i32 = 15;

/// The process-global drain flag; see the module docs.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" {
    /// The C `signal` entry point (std links libc). The handler is received and the previous
    /// disposition returned as raw pointers; this binding never inspects the return value.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// The SIGTERM handler: one atomic store, nothing else (async-signal-safe).
extern "C" fn on_sigterm(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler. Idempotent; call once at daemon startup.
pub fn install_shutdown_handler() {
    // SAFETY: `on_sigterm` is a non-capturing `extern "C"` function whose body performs a
    // single atomic store — async-signal-safe — and the binding above matches the C
    // prototype of `signal`.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// Whether SIGTERM requested a drain.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

//! Cooperative cancellation and deadlines for long-running jobs.
//!
//! A [`CancelToken`] is a cheaply cloneable handle shared between a
//! submitter (a server connection, a test, a batch coordinator) and
//! the executor running the job. The executor never preempts: it
//! polls [`CancelToken::check`] at coarse work boundaries — dense
//! shot chunks ([`crate::plan::map_shots`]), serial stabilizer shot
//! chunks ([`crate::plan::map_shots_indexed`]), and frame-batch
//! strips ([`crate::frame_batch`]) — so a cancelled or expired job
//! stops within one chunk's worth of work and frees its worker
//! thread without leaving partial state anywhere.
//!
//! Deadlines are absolute instants on the `ca-obs` monotonic clock
//! ([`ca_obs::monotonic_ns`]); arming one is the only path through
//! which the simulator ever consults a clock, and the reading never
//! feeds simulation results — a job either completes bit-identically
//! to an uncancelled run or returns [`SimError::Cancelled`] /
//! [`SimError::DeadlineExceeded`] with no result at all.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::SimError;

/// Sentinel in the deadline slot meaning "no deadline armed".
const NO_DEADLINE: u64 = 0;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Absolute deadline in nanoseconds on the [`ca_obs::monotonic_ns`]
    /// clock; [`NO_DEADLINE`] when unarmed.
    deadline_ns: AtomicU64,
}

/// Shared cancellation handle polled cooperatively by the executor.
///
/// Clones share state: cancelling any clone cancels the job. A token
/// with no deadline armed never reads a clock, so passing one through
/// the executor is free for callers that only want manual
/// cancellation.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh token: not cancelled, no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the job's
    /// next chunk-boundary poll.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called. Does not
    /// evaluate the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Arms a deadline `timeout` from now on the `ca-obs` monotonic
    /// clock. Re-arming overwrites the previous deadline.
    pub fn set_deadline_in(&self, timeout: Duration) {
        let now = ca_obs::monotonic_ns();
        let timeout = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        // Saturate; max(1) keeps a zero `now` + zero timeout from
        // colliding with the NO_DEADLINE sentinel.
        let at = now.saturating_add(timeout).max(1);
        self.inner.deadline_ns.store(at, Ordering::Release);
    }

    /// Absolute armed deadline in [`ca_obs::monotonic_ns`] units, if
    /// any.
    pub fn deadline_ns(&self) -> Option<u64> {
        match self.inner.deadline_ns.load(Ordering::Acquire) {
            NO_DEADLINE => None,
            at => Some(at),
        }
    }

    /// The executor's poll: `Err(SimError::Cancelled)` after
    /// [`cancel`](Self::cancel), `Err(SimError::DeadlineExceeded)`
    /// once an armed deadline has passed, `Ok(())` otherwise. Reads
    /// the clock only when a deadline is armed.
    pub fn check(&self) -> Result<(), SimError> {
        if self.is_cancelled() {
            return Err(SimError::Cancelled);
        }
        if let Some(at) = self.deadline_ns() {
            if ca_obs::monotonic_ns() >= at {
                return Err(SimError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Polls an optional token, the form executor internals thread
/// through: `Ok(())` when no token is attached.
pub(crate) fn check_opt(cancel: Option<&CancelToken>) -> Result<(), SimError> {
    match cancel {
        Some(token) => token.check(),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.check(), Ok(()));
        assert_eq!(check_opt(None), Ok(()));
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(SimError::Cancelled));
        assert_eq!(check_opt(Some(&t)), Err(SimError::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let t = CancelToken::new();
        t.set_deadline_in(Duration::ZERO);
        assert_eq!(t.check(), Err(SimError::DeadlineExceeded));
    }

    #[test]
    fn far_deadline_passes() {
        let t = CancelToken::new();
        t.set_deadline_in(Duration::from_secs(3600));
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let t = CancelToken::new();
        t.set_deadline_in(Duration::ZERO);
        t.cancel();
        assert_eq!(t.check(), Err(SimError::Cancelled));
    }
}

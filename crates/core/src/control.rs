//! Cooperative cancellation and deadlines for long-running encodes.
//!
//! An [`EncodeControl`] is shared between the caller (who may cancel) and
//! the encode driver (which polls it on every job a thread claims: a
//! column chunk, a row band, or a code block, the finest-grained unit of
//! the paper's dynamic work queue). Polling is cooperative: a stopped encode returns
//! [`CodecError::Cancelled`] or [`CodecError::Deadline`] at the next
//! checkpoint rather than being interrupted mid-kernel, so no partially
//! written state ever escapes.

use crate::CodecError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Shared stop signal for an in-flight encode: an explicit cancel flag
/// plus an optional hard deadline. `Sync`, so one instance can be polled
/// from every worker thread of a parallel encode while the owner holds a
/// handle to cancel it.
#[derive(Debug, Default)]
pub struct EncodeControl {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl EncodeControl {
    /// A control that never stops the encode unless [`cancel`ed](Self::cancel).
    pub fn new() -> Self {
        Self::default()
    }

    /// A control that stops the encode at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        EncodeControl {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// Request cancellation; the encode stops at its next checkpoint.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    pub fn cancel_requested(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Checkpoint: `Err(Cancelled)` after [`cancel`](Self::cancel),
    /// `Err(Deadline)` once the deadline has passed, `Ok` otherwise.
    /// Cancellation wins over an expired deadline.
    pub fn check(&self) -> Result<(), CodecError> {
        if self.cancel_requested() {
            return Err(CodecError::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(CodecError::Deadline);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_control_is_live() {
        let c = EncodeControl::new();
        assert!(c.check().is_ok());
        assert!(!c.cancel_requested());
    }

    #[test]
    fn cancel_stops() {
        let c = EncodeControl::new();
        c.cancel();
        assert!(c.cancel_requested());
        assert!(matches!(c.check(), Err(CodecError::Cancelled)));
    }

    #[test]
    fn expired_deadline_stops() {
        let c = EncodeControl::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(c.check(), Err(CodecError::Deadline)));
    }

    #[test]
    fn future_deadline_is_live_and_cancel_wins() {
        let c = EncodeControl::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(c.check().is_ok());
        c.cancel();
        assert!(matches!(c.check(), Err(CodecError::Cancelled)));
    }
}

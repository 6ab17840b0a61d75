//! A bounded retry budget with exponential backoff.
//!
//! [`RetryPolicy`] says how many times to attempt a flaky operation and
//! how long to wait after each failure; the caller owns the loop, since
//! only it can tell a transient failure (a spawn error, a timeout) from
//! a deterministic one that retrying would reproduce. The delays are
//! pure doubling — no randomization — so a run under a given policy is
//! reproducible.

use std::time::Duration;

/// How many times to attempt a flaky operation and how long to wait
/// between attempts: the delay doubles per retry, capped at
/// [`max_delay`](RetryPolicy::max_delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries). Callers clamp to at least 1.
    pub attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The delay to sleep after failed attempt `attempt` (0-based).
    pub fn delay_after(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        (self.base_delay * factor).min(self.max_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_and_cap() {
        let p = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(35),
        };
        assert_eq!(p.delay_after(0), Duration::from_millis(10));
        assert_eq!(p.delay_after(1), Duration::from_millis(20));
        assert_eq!(p.delay_after(2), Duration::from_millis(35)); // capped
        assert_eq!(p.delay_after(10), Duration::from_millis(35));
    }

    #[test]
    fn none_is_one_attempt_and_no_sleep() {
        let p = RetryPolicy::none();
        assert_eq!(p.attempts, 1);
        assert_eq!(p.delay_after(0), Duration::ZERO);
        assert_eq!(p.delay_after(31), Duration::ZERO);
    }
}

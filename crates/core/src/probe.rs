//! Hidden-request probe outcomes and the retry/deadline policy.
//!
//! A probe — the hidden request plus the Figure-5 comparison — can fail on
//! a real network: the fetch may drop, reset, stall past its deadline, or
//! come back as an error page or a truncated body. A broken hidden version
//! must never be compared as if it were the cookie-disabled rendering, so
//! every probe resolves to an explicit [`ProbeOutcome`]: either a
//! [`Decision`] or an [`InconclusiveReason`] that makes
//! FORCUM *defer* judgement for that page view.

use std::fmt;

use cp_cookies::SimDuration;

use crate::decision::Decision;

/// Why a probe produced no comparable hidden page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InconclusiveReason {
    /// The hidden fetch failed in transit (dropped, reset, or unroutable).
    Transport,
    /// The probe exhausted its think-time deadline budget.
    Deadline,
    /// The hidden fetch returned a non-success status (e.g. HTTP 5xx); the
    /// error page is not the cookie-disabled rendering.
    ServerError,
    /// The hidden body arrived cut short; a partial DOM would compare as a
    /// structural difference and mis-mark the cookies.
    Truncated,
}

impl InconclusiveReason {
    /// Every reason, in metric-label order.
    pub const ALL: [InconclusiveReason; 4] = [
        InconclusiveReason::Transport,
        InconclusiveReason::Deadline,
        InconclusiveReason::ServerError,
        InconclusiveReason::Truncated,
    ];

    /// The stable label used in metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            InconclusiveReason::Transport => "transport",
            InconclusiveReason::Deadline => "deadline",
            InconclusiveReason::ServerError => "server_error",
            InconclusiveReason::Truncated => "truncated",
        }
    }
}

impl fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one hidden-request probe.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// Both page versions were compared; Figure 5 produced a verdict.
    Decided(Decision),
    /// No trustworthy hidden page was obtained; judgement is deferred.
    Inconclusive(InconclusiveReason),
}

/// How a probe reacts to transient failures: bounded retries with seeded,
/// jittered exponential backoff, all budgeted against the user's think
/// time (with a floor so slow-but-healthy sites never trip the deadline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub backoff: SimDuration,
    /// Jitter half-width: each backoff is scaled by a factor drawn
    /// uniformly from `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Minimum deadline budget for a probe, regardless of how short the
    /// user's think pause is. The default (60 s) exceeds the worst natural
    /// latency of the slowest site profile, so only injected faults can
    /// exhaust it.
    pub deadline_floor: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: SimDuration::from_millis(250),
            jitter: 0.5,
            deadline_floor: SimDuration::from_secs(60),
        }
    }
}

/// Accounting for one probe: the outcome plus what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// The verdict, or why there is none.
    pub outcome: ProbeOutcome,
    /// Fetch attempts made (1 when the first attempt settled it).
    pub attempts: u32,
    /// Total simulated time the probe consumed: failed attempts, backoff
    /// pauses, and the successful fetch's latency.
    pub spent: SimDuration,
    /// Latency of the successful hidden fetch (zero when inconclusive).
    pub hidden_latency: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = InconclusiveReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, ["transport", "deadline", "server_error", "truncated"]);
        assert_eq!(InconclusiveReason::Deadline.to_string(), "deadline");
    }

    #[test]
    fn default_policy_floor_covers_slow_sites() {
        let policy = RetryPolicy::default();
        // Worst-case natural latency (slow_site profile, large body, max
        // jitter + slow tail) stays under ~40 s; the floor must exceed it
        // so fault-free runs never trip the deadline.
        assert!(policy.deadline_floor >= SimDuration::from_secs(60));
        assert!(policy.max_retries >= 1);
    }
}

//! Supervision for network runs: watchdog limits and the structured
//! run outcome.
//!
//! The executor's coordinator is the natural supervisor — it already
//! mediates every communication, so it is the one place that can notice
//! a component dying (its offer channel disconnects), a component
//! wedging (its offer never arrives), or the network spinning on
//! concealed events without visible progress. [`Supervision`] bounds how
//! long the coordinator waits at each of those points, and
//! [`RunOutcome`] reports what actually ended the run — the distinctions
//! (`Deadlocked` vs `Livelock` vs `ComponentFailed` …) that §4 of the
//! paper points out the trace model itself cannot draw.

use std::time::Duration;

/// Restart-intensity cap: how many times any single component may be
/// respawned before the supervisor gives up and leaves it dead. This
/// bounds crash/restart loops (a component whose evaluation fails
/// deterministically would otherwise respawn forever).
pub(crate) const MAX_RESTARTS: usize = 4;

/// Watchdog limits for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervision {
    /// How long the coordinator waits for any single component's offer
    /// before declaring the component hung. Generous by default; tighten
    /// it in tests.
    pub round_timeout: Duration,
    /// Wall-clock budget for the whole run; `None` means unbounded.
    /// When exceeded the run stops with [`RunOutcome::TimedOut`].
    pub deadline: Option<Duration>,
    /// Livelock detector: if this many *consecutive* concealed events
    /// occur with no visible event between them, the run stops with
    /// [`RunOutcome::Livelock`]. `0` disables the detector.
    pub livelock_window: usize,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            round_timeout: Duration::from_secs(10),
            deadline: None,
            livelock_window: 0,
        }
    }
}

impl Supervision {
    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-offer timeout.
    #[must_use]
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Sets the livelock window (consecutive hidden events).
    #[must_use]
    pub fn with_livelock_window(mut self, window: usize) -> Self {
        self.livelock_window = window;
        self
    }
}

/// Why a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The step budget was used up with the network still live.
    Completed,
    /// No event was enabled and nothing was pending: a genuine deadlock.
    Deadlocked,
    /// The wall-clock deadline expired.
    TimedOut {
        /// Events recorded before time ran out.
        at_step: usize,
    },
    /// The network kept communicating on concealed channels without
    /// visible progress for longer than the livelock window.
    Livelock {
        /// Events recorded when the detector fired.
        at_step: usize,
        /// Length of the concealed-event streak.
        hidden_streak: usize,
    },
    /// A component failed (injected crash, evaluation error, hang, or
    /// failed recovery) and stayed dead; the rest of the network was
    /// allowed to degrade gracefully around it.
    ComponentFailed {
        /// Label of the first component that failed unrecovered.
        label: String,
        /// Global event count at the moment of that failure.
        at_step: usize,
    },
    /// A component thread panicked unexpectedly (not an injected fault).
    Crashed {
        /// Label of the panicked component.
        label: String,
        /// Global event count at the moment of the panic.
        at_step: usize,
    },
}

impl RunOutcome {
    /// True only for [`RunOutcome::Completed`].
    pub fn is_clean(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// True for [`RunOutcome::Deadlocked`].
    pub fn is_deadlock(&self) -> bool {
        matches!(self, RunOutcome::Deadlocked)
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Completed => write!(f, "completed"),
            RunOutcome::Deadlocked => write!(f, "deadlocked"),
            RunOutcome::TimedOut { at_step } => {
                write!(f, "timed out after {at_step} event(s)")
            }
            RunOutcome::Livelock {
                at_step,
                hidden_streak,
            } => write!(
                f,
                "livelock after {at_step} event(s) ({hidden_streak} concealed events \
                 without visible progress)"
            ),
            RunOutcome::ComponentFailed { label, at_step } => {
                write!(f, "component `{label}` failed at step {at_step}")
            }
            RunOutcome::Crashed { label, at_step } => {
                write!(f, "component `{label}` panicked at step {at_step}")
            }
        }
    }
}

/// Why a particular component died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// Killed by a [`crate::Fault::Crash`] in the fault plan.
    InjectedCrash,
    /// The thread panicked on its own.
    Panicked,
    /// Evaluation of the component's process failed.
    EvalFailed(String),
    /// Its offer did not arrive within the round timeout.
    Hung,
    /// A respawned component could not re-offer an event of its recorded
    /// history — replay diverged (e.g. same-label nondeterminism).
    ReplayDiverged,
    /// Its channel closed without an error report.
    ChannelClosed,
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::InjectedCrash => write!(f, "injected crash"),
            FailureReason::Panicked => write!(f, "panicked"),
            FailureReason::EvalFailed(e) => write!(f, "evaluation failed: {e}"),
            FailureReason::Hung => write!(f, "hung (offer timed out)"),
            FailureReason::ReplayDiverged => write!(f, "replay diverged"),
            FailureReason::ChannelClosed => write!(f, "channel closed"),
        }
    }
}

/// One component death observed by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentFailure {
    /// Index of the component in the flattened network.
    pub index: usize,
    /// Its display label.
    pub label: String,
    /// Global event count when it died.
    pub at_step: usize,
    /// Why it died.
    pub reason: FailureReason,
    /// True when a restart policy brought it back successfully.
    pub recovered: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_display_is_informative() {
        let o = RunOutcome::ComponentFailed {
            label: "copier".into(),
            at_step: 4,
        };
        assert_eq!(o.to_string(), "component `copier` failed at step 4");
        assert!(!o.is_clean());
        assert!(RunOutcome::Completed.is_clean());
        assert!(RunOutcome::Deadlocked.is_deadlock());
    }

    #[test]
    fn supervision_builders_compose() {
        let s = Supervision::default()
            .with_deadline(Duration::from_millis(250))
            .with_round_timeout(Duration::from_millis(50))
            .with_livelock_window(64);
        assert_eq!(s.deadline, Some(Duration::from_millis(250)));
        assert_eq!(s.round_timeout, Duration::from_millis(50));
        assert_eq!(s.livelock_window, 64);
    }
}

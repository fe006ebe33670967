//! Splits a solve's wall time into merge, MCMC and other time from the
//! timestamps of its progress events, and tallies sweep counters.
//!
//! The golden loop emits `Merged` when a merge phase ends, `Sweep` after
//! every MCMC sweep and `Iteration` when an iteration ends. The interval
//! ending at a `Merged` event is merge time (it also holds the bracket
//! bookkeeping that precedes the merges); intervals ending at a `Sweep`
//! are MCMC time; everything else (rebuilds, DL evaluation and bracket
//! work after the last sweep) is other time.

use edist::core::run::{ProgressEvent, ProgressSink};
use std::time::Instant;

/// Accumulated phase times and counters over one or more solves.
#[derive(Clone, Debug, Default)]
pub struct PhaseClock {
    last: Option<Instant>,
    /// Seconds in intervals ending at a `Merged` event.
    pub merge_s: f64,
    /// Seconds in intervals ending at a `Sweep` event.
    pub mcmc_s: f64,
    /// Wall seconds of all timed solves.
    pub total_s: f64,
    /// Golden-loop iterations.
    pub iterations: u64,
    /// MCMC sweeps.
    pub sweeps: u64,
    /// Proposals evaluated.
    pub proposals: u64,
    /// Proposals accepted.
    pub accepted: u64,
}

impl PhaseClock {
    /// Runs one solve, adding its wall time to [`PhaseClock::total_s`];
    /// `solve` feeds the solve's events back through [`PhaseClock::on`].
    pub fn measure<R>(&mut self, solve: impl FnOnce(&mut Self) -> R) -> R {
        let started = Instant::now();
        self.last = Some(started);
        let out = solve(self);
        self.total_s += started.elapsed().as_secs_f64();
        self.last = None;
        out
    }

    /// Records one event.
    pub fn on(&mut self, event: &ProgressEvent) {
        let now = Instant::now();
        let span = self
            .last
            .map(|t| now.duration_since(t).as_secs_f64())
            .unwrap_or(0.0);
        self.last = Some(now);
        match event {
            ProgressEvent::Merged { .. } => self.merge_s += span,
            ProgressEvent::Sweep {
                proposed, accepted, ..
            } => {
                self.mcmc_s += span;
                self.sweeps += 1;
                self.proposals += *proposed as u64;
                self.accepted += *accepted as u64;
            }
            ProgressEvent::Iteration { .. } => self.iterations += 1,
            _ => {}
        }
    }

    /// Wall time not attributed to merges or sweeps.
    pub fn other_s(&self) -> f64 {
        (self.total_s - self.merge_s - self.mcmc_s).max(0.0)
    }
}

impl ProgressSink for PhaseClock {
    fn on_event(&mut self, event: &ProgressEvent) {
        self.on(event);
    }
}

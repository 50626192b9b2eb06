//! Recovery: the knobs that turn fault *detection* into fault
//! *survival*.
//!
//! Three cooperating mechanisms make a pipeline run complete under chaos
//! instead of merely failing cleanly:
//!
//! 1. **Ack/replay delivery** (`stream.rs`) — every data message carries a
//!    per-producer sequence number; producers keep sent-but-unacknowledged
//!    packets in a bounded replay buffer shared with the consumer side.
//!    Consumers acknowledge cumulatively — at every packet for stateless
//!    stages, at checkpoint commits for stateful ones — and a restarted
//!    copy pre-loads the unacknowledged tail back into its delivery queue.
//!    Sequence-based dedup (a per-producer watermark) drops the in-queue
//!    originals the replay duplicates, giving effectively-exactly-once
//!    delivery per stage.
//! 2. **Checkpointed state** ([`FilterIo`]) — stateful filters snapshot
//!    their reduction state every K accepted packets through
//!    [`FilterIo::commit_checkpoint`]. The snapshot is held in memory, in
//!    the copy: its `FilterIo` outlives every attempt of the copy, so a
//!    restarted attempt restores the last snapshot ([`Filter::restore`])
//!    and replays only the unacknowledged tail. A respawned worker
//!    process starts with no snapshot and recomputes from packet 0.
//! 3. **Restart supervision** (`exec.rs`) — with recovery enabled the
//!    executor restarts a copy after any failure but a cancellation: the
//!    copy gets a fresh filter instance, its checkpoint back, and its
//!    input replayed, up to [`RecoveryOptions::max_restarts`] times. This
//!    is the only way a failed copy runs again. Placement-level
//!    failover (re-running the decomposition DP over surviving hosts)
//!    lives in `cgp-compiler`'s `failover` module.
//!
//! The replay buffer is bounded by construction: a consumer acknowledges
//! at least every `checkpoint_every` accepted packets, so at most
//! `checkpoint_every + queue capacity` packets per (producer, consumer)
//! pair are ever retained.
//!
//! [`FilterIo`]: crate::filter::FilterIo
//! [`FilterIo::commit_checkpoint`]: crate::filter::FilterIo::commit_checkpoint
//! [`Filter::restore`]: crate::filter::Filter::restore

/// Recovery knobs for a pipeline run ([`RunOptions::recovery`]).
///
/// [`RunOptions::recovery`]: crate::exec::RunOptions::recovery
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Master switch. Off (the default), failures are detected,
    /// isolated, and surfaced — a failed copy fails the run.
    pub enabled: bool,
    /// Stateful filters are asked to checkpoint every this many accepted
    /// packets (the `K` of the design; also bounds the replay buffers).
    pub checkpoint_every: u64,
    /// Restarts allowed per filter copy before its error becomes final.
    pub max_restarts: u32,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            enabled: false,
            checkpoint_every: 64,
            max_restarts: 5,
        }
    }
}

impl RecoveryOptions {
    /// Recovery on, with default cadence and restart budget.
    pub fn on() -> Self {
        RecoveryOptions {
            enabled: true,
            ..Default::default()
        }
    }

    pub fn with_checkpoint_every(mut self, k: u64) -> Self {
        self.checkpoint_every = k.max(1);
        self
    }

    pub fn with_max_restarts(mut self, n: u32) -> Self {
        self.max_restarts = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builders() {
        let o = RecoveryOptions::on()
            .with_checkpoint_every(16)
            .with_max_restarts(2);
        assert!(o.enabled);
        assert_eq!(o.checkpoint_every, 16);
        assert_eq!(o.max_restarts, 2);
        assert!(!RecoveryOptions::default().enabled);
        assert_eq!(
            RecoveryOptions::on()
                .with_checkpoint_every(0)
                .checkpoint_every,
            1
        );
    }
}

//! Deterministic fault injection for the multi-process engine.
//!
//! A [`FaultPlan`] rides on [`crate::EngineConfig`] and arms exactly one
//! run of `EngineMode::MultiProcess` with reproducible failures: kill
//! worker *w* right before its *t*-th task, truncate worker *w*'s stream
//! after its *n*-th frame, corrupt one frame's checksum, or stall a worker
//! long enough to trip the coordinator's read deadline. Every fault fires
//! on a worker's **first** spawn only — a respawned worker runs clean —
//! which is what makes recovery testable: the chaos suite
//! (`tests/engine_faults.rs`) injects a fault, lets the coordinator
//! respawn the worker (which replays what it lost) and re-execute the
//! lost tasks, and asserts the recovered output is bit-identical to a
//! fault-free run.
//!
//! A worker lives for its whole job, so task and frame ordinals count
//! over every round it serves: with `n_w` tasks on the worker, round
//! `r`'s local task `i` is task ordinal `r·n_w + i`, and frame ordinals
//! run on from one round's `ROUND_END` into the next round's frames.
//! That is how a plan reaches the later rounds of a multi-round job.
//!
//! The plan is plain `Copy` data (worker indices, frame ordinals,
//! millisecond counts), so [`crate::EngineConfig`] keeps its
//! `Copy + Eq` contract and the plan crosses a `fork` for free.

use crate::transport::WriterFaults;

/// Declarative fault schedule for one multi-process run. `default()` is
/// the empty plan (no faults). Worker indices refer to the coordinator's
/// spawn order (tasks are assigned round-robin, so worker `w` owns
/// global tasks `w, w + nworkers, …`); task ordinals count the tasks the
/// worker runs, round after round, and frame ordinals its frames, both
/// from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Kill worker `.0` with `SIGKILL` immediately before it runs its
    /// task ordinal `.1` — the stand-in for a machine crash mid-job.
    pub kill_before_task: Option<(u32, u32)>,
    /// Cut worker `.0`'s stream after `.1` whole frames: the pipe ends
    /// with a partial header while the worker itself finishes the round
    /// and exits cleanly — a torn connection rather than a dead process.
    pub truncate_after_frame: Option<(u32, u32)>,
    /// Flip a bit in the CRC32C trailer of worker `.0`'s frame `.1`,
    /// modeling silent corruption between encoder and decoder.
    pub corrupt_frame: Option<(u32, u32)>,
    /// Make worker `.0` sleep `.1` milliseconds before its first task —
    /// long enough, and the coordinator's read deadline converts the
    /// silence into [`crate::EngineError::WorkerTimeout`].
    pub stall_ms: Option<(u32, u64)>,
}

impl FaultPlan {
    /// The empty plan (no faults) — identical to `FaultPlan::default()`.
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms a `SIGKILL` of `worker` before its task ordinal `task`.
    pub fn kill_worker_before_task(mut self, worker: u32, task: u32) -> Self {
        self.kill_before_task = Some((worker, task));
        self
    }

    /// Arms a stream truncation of `worker` after `frames` whole frames.
    pub fn truncate_worker_after_frame(mut self, worker: u32, frames: u32) -> Self {
        self.truncate_after_frame = Some((worker, frames));
        self
    }

    /// Arms a checksum corruption of `worker`'s frame `frame`.
    pub fn corrupt_worker_frame(mut self, worker: u32, frame: u32) -> Self {
        self.corrupt_frame = Some((worker, frame));
        self
    }

    /// Arms a `millis`-long stall of `worker` before its first task.
    pub fn stall_worker(mut self, worker: u32, millis: u64) -> Self {
        self.stall_ms = Some((worker, millis));
        self
    }

    /// Resolves the plan into the concrete faults one spawned child
    /// executes. Faults target first spawns only (`attempt == 0`):
    /// retries must run clean or recovery could never converge.
    pub(crate) fn for_worker(&self, worker: u32, attempt: u32) -> ChildFaults {
        if attempt > 0 {
            return ChildFaults::default();
        }
        let of = |slot: Option<(u32, u32)>| slot.filter(|&(w, _)| w == worker).map(|(_, x)| x);
        ChildFaults {
            kill_before_task: of(self.kill_before_task),
            stall_ms: self
                .stall_ms
                .filter(|&(w, _)| w == worker)
                .map(|(_, ms)| ms),
            writer: WriterFaults {
                truncate_after: of(self.truncate_after_frame).map(u64::from),
                corrupt_frame: of(self.corrupt_frame).map(u64::from),
            },
        }
    }
}

/// The already-resolved faults for one spawned worker process.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChildFaults {
    pub kill_before_task: Option<u32>,
    pub stall_ms: Option<u64>,
    pub writer: WriterFaults,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_resolves_per_worker_and_first_attempt_only() {
        let plan = FaultPlan::none()
            .kill_worker_before_task(1, 2)
            .truncate_worker_after_frame(0, 5)
            .corrupt_worker_frame(2, 7)
            .stall_worker(1, 400);

        let w0 = plan.for_worker(0, 0);
        assert_eq!(w0.kill_before_task, None);
        assert_eq!(w0.writer.truncate_after, Some(5));
        assert_eq!(w0.writer.corrupt_frame, None);
        assert_eq!(w0.stall_ms, None);

        let w1 = plan.for_worker(1, 0);
        assert_eq!(w1.kill_before_task, Some(2));
        assert_eq!(w1.stall_ms, Some(400));
        assert_eq!(w1.writer.truncate_after, None);

        let w2 = plan.for_worker(2, 0);
        assert_eq!(w2.writer.corrupt_frame, Some(7));

        // Respawns run clean.
        let retry = plan.for_worker(1, 1);
        assert_eq!(retry.kill_before_task, None);
        assert_eq!(retry.stall_ms, None);
        assert_eq!(retry.writer, WriterFaults::default());
    }

    #[test]
    fn the_default_plan_is_the_empty_one() {
        assert_eq!(FaultPlan::default(), FaultPlan::none());
    }
}

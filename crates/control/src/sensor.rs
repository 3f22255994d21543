//! Windowed sensors over the executor event stream.
//!
//! The [`SensorHub`] is the controller's view of the run: it rides the
//! same [`ExecEvent`] stream the observers see and folds it into
//! per-device windows — completed flops, kernel energy, busy time — plus
//! node-level occupancy signals (assigned vs. completed task counts, a
//! ready-queue-depth proxy). Everything is derived from event payloads
//! and virtual timestamps, never wall clock, so sensor readings are
//! byte-deterministic across `--jobs N`.

use crate::objective::WindowMetrics;
use ugpc_hwsim::{Flops, Joules, Secs, Watts};
use ugpc_runtime::{ExecEvent, RunContext, WorkerKind};

/// Per-device windowed accumulators fed by the event stream.
///
/// Attribution rule: a task belongs to the window its **end** lands in
/// (events carry exact start/end, but splitting kernels across window
/// boundaries would re-derive what the device ledger already knows; the
/// controller only needs a consistent trend signal). Idle energy is
/// charged at the device's idle power over the window remainder, clamped
/// at zero when carried-over kernels overfill the window.
#[derive(Debug, Clone, Default)]
pub struct SensorHub {
    /// Worker id -> GPU device index (None for CPU workers).
    gpu_of_worker: Vec<Option<usize>>,
    /// Idle power per GPU device.
    idle: Vec<Watts>,
    window_start: Secs,
    flops: Vec<Flops>,
    energy: Vec<Joules>,
    busy: Vec<Secs>,
    assigned: usize,
    completed: usize,
}

impl SensorHub {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of GPU devices being sensed.
    pub fn n_gpus(&self) -> usize {
        self.idle.len()
    }

    /// Tasks assigned but not yet completed — the in-flight/queued proxy
    /// for ready-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.assigned.saturating_sub(self.completed)
    }

    /// Configure from the run context (worker topology + idle powers)
    /// and zero every accumulator.
    pub fn configure(&mut self, ctx: &RunContext<'_>) {
        self.gpu_of_worker.clear();
        self.gpu_of_worker
            .extend(ctx.workers.iter().map(|w| match w.kind {
                WorkerKind::Gpu { device } => Some(device),
                WorkerKind::CpuCore { .. } => None,
            }));
        let n = ctx.gpu_idle.len();
        self.idle.clear();
        self.idle.extend_from_slice(ctx.gpu_idle);
        self.window_start = Secs::ZERO;
        self.flops = vec![Flops::ZERO; n];
        self.energy = vec![Joules::ZERO; n];
        self.busy = vec![Secs::ZERO; n];
        self.assigned = 0;
        self.completed = 0;
    }

    /// Fold one event into the current window.
    pub fn observe(&mut self, event: &ExecEvent) {
        match *event {
            ExecEvent::TaskAssigned { .. } => self.assigned += 1,
            ExecEvent::TaskEnd {
                worker,
                duration,
                flops,
                energy,
                ..
            } => {
                self.completed += 1;
                if let Some(Some(g)) = self.gpu_of_worker.get(worker).copied() {
                    self.flops[g] += flops;
                    self.energy[g] += energy;
                    self.busy[g] += duration;
                }
            }
            _ => {}
        }
    }

    /// The metrics of device `g`'s current window, closed at `now`.
    pub fn window(&self, g: usize, now: Secs) -> WindowMetrics {
        let elapsed = now - self.window_start;
        let idle_time = Secs((elapsed - self.busy[g]).value().max(0.0));
        WindowMetrics {
            flops: self.flops[g],
            energy: self.energy[g] + self.idle[g] * idle_time,
            elapsed,
            busy_time: self.busy[g],
        }
    }

    /// Close the window: zero the per-device accumulators and start the
    /// next one at `now`. Node-level assigned/completed counters are
    /// cumulative and survive (queue depth is an instantaneous signal).
    pub fn reset_window(&mut self, now: Secs) {
        self.window_start = now;
        for g in 0..self.idle.len() {
            self.flops[g] = Flops::ZERO;
            self.energy[g] = Joules::ZERO;
            self.busy[g] = Secs::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_runtime::{SimOptions, TaskGraph, Worker};

    fn hub_for(workers: &[Worker], idle: &[Watts]) -> SensorHub {
        let graph = TaskGraph::new();
        let ctx = RunContext {
            workers,
            graph: &graph,
            options: SimOptions::default(),
            gpu_idle: idle,
        };
        let mut hub = SensorHub::new();
        hub.configure(&ctx);
        hub
    }

    fn end_event(worker: usize, start: f64, end: f64, gflop: f64, joules: f64) -> ExecEvent {
        ExecEvent::TaskEnd {
            task: 0,
            worker,
            start: Secs(start),
            end: Secs(end),
            duration: Secs(end - start),
            kind: ugpc_runtime::KernelKind::Gemm,
            precision: ugpc_hwsim::Precision::Double,
            nb: 960,
            priority: 0,
            flops: Flops::from_gflop(gflop),
            energy: Joules(joules),
        }
    }

    fn workers2() -> Vec<Worker> {
        vec![
            Worker {
                id: 0,
                kind: WorkerKind::Gpu { device: 0 },
            },
            Worker {
                id: 1,
                kind: WorkerKind::CpuCore {
                    package: 0,
                    core: 0,
                },
            },
        ]
    }

    #[test]
    fn attributes_task_ends_to_devices_with_idle_share() {
        let mut hub = hub_for(&workers2(), &[Watts(40.0)]);
        hub.observe(&end_event(0, 0.0, 1.0, 100.0, 300.0));
        // CPU task: counted for queue depth, not device windows.
        hub.observe(&end_event(1, 0.0, 1.0, 50.0, 10.0));
        let m = hub.window(0, Secs(2.0));
        assert_eq!(m.flops, Flops::from_gflop(100.0));
        // 300 J busy + 1 s idle at 40 W.
        assert!((m.energy.value() - 340.0).abs() < 1e-9);
        assert_eq!(m.busy_time, Secs(1.0));
        assert_eq!(m.elapsed, Secs(2.0));
        assert!((m.occupancy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_window_starts_fresh_but_keeps_queue_depth() {
        let mut hub = hub_for(&workers2(), &[Watts(40.0)]);
        hub.observe(&ExecEvent::TaskAssigned {
            task: 0,
            worker: 0,
            at: Secs(0.0),
        });
        hub.observe(&ExecEvent::TaskAssigned {
            task: 1,
            worker: 0,
            at: Secs(0.0),
        });
        hub.observe(&end_event(0, 0.0, 1.0, 100.0, 300.0));
        assert_eq!(hub.queue_depth(), 1);
        hub.reset_window(Secs(1.0));
        assert_eq!(hub.queue_depth(), 1, "depth is instantaneous, not windowed");
        let m = hub.window(0, Secs(3.0));
        assert!(m.flops.value() == 0.0 && m.busy_time == Secs::ZERO);
        assert_eq!(m.elapsed, Secs(2.0));
        // Pure idle window.
        assert!((m.energy.value() - 80.0).abs() < 1e-9);
        assert!(m.is_empty());
    }

    #[test]
    fn overfull_window_clamps_idle_at_zero() {
        // A 3 s kernel ends inside a 1 s window: busy > elapsed, idle
        // share must clamp to zero rather than go negative.
        let mut hub = hub_for(&workers2(), &[Watts(40.0)]);
        hub.reset_window(Secs(4.0));
        hub.observe(&end_event(0, 2.0, 5.0, 100.0, 900.0));
        let m = hub.window(0, Secs(5.0));
        assert!((m.energy.value() - 900.0).abs() < 1e-9, "no negative idle");
        assert_eq!(m.busy_time, Secs(3.0));
    }
}

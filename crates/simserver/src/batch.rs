//! Batch-job execution: run a fixed set of tasks to completion and report
//! the makespan (for the `mapreduce` benchmarks, whose metric is
//! execution time rather than throughput).

use wcs_simcore::event::QueueObs;
use wcs_simcore::{SimDuration, SimTime};

use crate::engine::ServerSpec;
use crate::kernel::{Adapter, Kernel, Work};
use crate::request::Stage;

/// Result of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Time from start until the last task completed.
    pub makespan: SimDuration,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Per-resource busy fraction over the makespan, indexed by
    /// [`Resource::index`](crate::Resource::index).
    pub utilization: [f64; 4],
    /// Event-queue occupancy counters for the run — a pure function of
    /// the task set, so safe to record as exact-class observability.
    pub queue: QueueObs,
}

impl BatchResult {
    /// The batch performance metric: 1 / makespan-seconds (bigger is
    /// better, consistent with the throughput metrics).
    pub fn perf(&self) -> f64 {
        let s = self.makespan.as_secs_f64();
        if s > 0.0 {
            1.0 / s
        } else {
            f64::INFINITY
        }
    }
}

/// Task-slot admission: tasks enter in order while fewer than
/// `concurrency` are in flight.
struct Batch {
    tasks: std::vec::IntoIter<Vec<Stage>>,
    concurrency: u32,
    inflight: u32,
}

impl Batch {
    /// Admits waiting tasks while slots are free (empty tasks complete
    /// on admission and take no slot).
    fn admit(&mut self, k: &mut Kernel<Self>, now: SimTime) {
        while self.inflight < self.concurrency {
            let Some(stages) = self.tasks.next() else {
                break;
            };
            if !stages.is_empty() {
                let work = Work {
                    stages,
                    started: now,
                    attempt: 0,
                };
                let slot = k.alloc(0, work, ());
                k.enqueue(slot, now);
                self.inflight += 1;
            }
        }
    }
}

impl Adapter for Batch {
    type Event = std::convert::Infallible;
    type Slot = ();
    const EAGER: bool = false;

    fn on_event(&mut self, _: &mut Kernel<Self>, ev: Self::Event, _: SimTime) {
        match ev {}
    }

    fn on_retry(&mut self, _: &mut Kernel<Self>, _: Work, _: SimTime) {
        unreachable!("batch tasks never fail");
    }

    fn on_complete(&mut self, k: &mut Kernel<Self>, slot: usize, now: SimTime) {
        k.release(slot);
        self.inflight -= 1;
        self.admit(k, now);
    }

    fn done(&self, _: &Kernel<Self>) -> bool {
        false
    }
}

/// Executes `tasks` on the server with at most `concurrency` tasks in
/// flight (Hadoop's task-slot model; the paper uses 4 slots per CPU).
///
/// Tasks are admitted in order as slots free up; each task's stages run
/// serially, queueing FCFS at each station. After every event, all four
/// stations start queued work in [`Resource::ALL`](crate::Resource::ALL)
/// order.
///
/// # Panics
/// Panics if `concurrency` is zero.
pub fn run_batch(spec: ServerSpec, tasks: Vec<Vec<Stage>>, concurrency: u32) -> BatchResult {
    assert!(concurrency > 0, "need at least one task slot");
    let n_tasks = tasks.len();
    let mut batch = Batch {
        tasks: tasks.into_iter(),
        concurrency,
        inflight: 0,
    };
    let mut k = Kernel::new(spec, 1, 0, 0);
    batch.admit(&mut k, SimTime::ZERO);
    k.start_all(SimTime::ZERO);
    k.run(&mut batch);
    debug_assert_eq!(batch.inflight, 0);
    BatchResult {
        makespan: k.events.now().saturating_sub(SimTime::ZERO),
        tasks: n_tasks,
        utilization: k.utilization(),
        queue: k.events.obs_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Resource;

    fn cpu_task(ms: u64) -> Vec<Stage> {
        vec![Stage::new(Resource::Cpu, SimDuration::from_millis(ms))]
    }

    #[test]
    fn serial_tasks_sum_on_one_core() {
        let res = run_batch(ServerSpec::new(1), vec![cpu_task(10); 10], 4);
        assert_eq!(res.makespan, SimDuration::from_millis(100));
        assert_eq!(res.tasks, 10);
    }

    #[test]
    fn cores_divide_makespan() {
        let one = run_batch(ServerSpec::new(1), vec![cpu_task(10); 16], 16);
        let four = run_batch(ServerSpec::new(4), vec![cpu_task(10); 16], 16);
        assert_eq!(one.makespan.as_nanos(), 4 * four.makespan.as_nanos());
    }

    #[test]
    fn concurrency_limits_overlap() {
        // Two-stage tasks: disk 10 ms then CPU 10 ms. With concurrency 1
        // nothing overlaps: 8 tasks x 20 ms = 160 ms. With concurrency 2,
        // disk and CPU pipeline: ~90 ms.
        let task = || {
            vec![
                Stage::new(Resource::Disk, SimDuration::from_millis(10)),
                Stage::new(Resource::Cpu, SimDuration::from_millis(10)),
            ]
        };
        let tasks: Vec<_> = (0..8).map(|_| task()).collect();
        let serial = run_batch(ServerSpec::new(1), tasks.clone(), 1);
        let piped = run_batch(ServerSpec::new(1), tasks, 2);
        assert_eq!(serial.makespan, SimDuration::from_millis(160));
        assert!(piped.makespan < SimDuration::from_millis(100));
    }

    #[test]
    fn perf_is_reciprocal_makespan() {
        let res = run_batch(ServerSpec::new(1), vec![cpu_task(500)], 1);
        assert!((res.perf() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_tasks() {
        let res = run_batch(ServerSpec::new(2), vec![], 4);
        assert_eq!(res.tasks, 0);
        assert_eq!(res.makespan, SimDuration::ZERO);
        let res = run_batch(ServerSpec::new(2), vec![vec![], vec![], cpu_task(1)], 1);
        assert_eq!(res.tasks, 3);
        assert_eq!(res.makespan, SimDuration::from_millis(1));
    }

    #[test]
    fn utilization_reported() {
        let res = run_batch(ServerSpec::new(1), vec![cpu_task(10); 4], 4);
        assert!((res.utilization[Resource::Cpu.index()] - 1.0).abs() < 1e-9);
        assert_eq!(res.utilization[Resource::Disk.index()], 0.0);
    }

    #[test]
    #[should_panic(expected = "task slot")]
    fn rejects_zero_concurrency() {
        run_batch(ServerSpec::new(1), vec![], 0);
    }
}

//! The station-network kernel: the one discrete-event loop every
//! simulation entry point runs on.
//!
//! The kernel owns what the queueing network itself needs — the event
//! queue, per-server FCFS stations with their busy counts and busy-time
//! totals, the request slab with slot generations, stage start and
//! advance, the warm-up / measurement window, and the final
//! utilization. What differs between entry points lives in an
//! [`Adapter`]: where requests come from (closed-loop clients, a Poisson
//! arrival process, a task window), where they are dispatched, and what
//! happens when work fails or completes. Adapters are monomorphized into
//! the loop, so no event pays for a dynamic call.
//!
//! The kernel draws no randomness: every RNG stream belongs to an
//! adapter, which keeps each entry point's draw order its own.

use std::collections::VecDeque;

use wcs_simcore::stats::Histogram;
use wcs_simcore::{EventQueue, SimDuration, SimTime};

use crate::engine::{RunStats, ServerSpec};
use crate::failover::{FaultStats, RetryPolicy};
use crate::request::{Resource, Stage};
use crate::resilience::RetryBudget;

/// A kernel event: a stage finishing at a station, or an adapter event.
pub(crate) enum Ev<E> {
    /// A stage finished at station `station` (`server * 4 +` resource
    /// index). `gen` must match the slot's generation; otherwise an
    /// outage voided the work before it finished.
    Done { slot: u32, gen: u32, station: u32 },
    /// Failed work re-enters dispatch after its backoff; the handle
    /// indexes the kernel's retry stash, which keeps event payloads
    /// plain data (no drop glue on the event queue's hot path).
    Retry(u32),
    /// An event the adapter scheduled for itself.
    Hook(E),
}

/// A logical request's work: its stages, when it began (latency is
/// measured from here, across retries), and which attempt this is.
#[derive(Default)]
pub(crate) struct Work {
    pub stages: Vec<Stage>,
    pub started: SimTime,
    pub attempt: u32,
}

/// One request (or one attempt at a request) in the slab.
pub(crate) struct Slot<T> {
    pub work: Work,
    pub next: u32,
    pub server: u32,
    /// When the request joined its current station's queue.
    pub enqueued_at: SimTime,
    pub gen: u32,
    pub active: bool,
    pub data: T,
}

/// One FCFS station of one server.
#[derive(Clone)]
struct Station {
    queue: VecDeque<u32>,
    busy: u32,
    servers: u32,
    busy_ns: u128,
}

/// The entry-point-specific half of a run.
pub(crate) trait Adapter: Sized {
    /// Events the adapter schedules for itself.
    type Event;
    /// Per-request data kept in the slab beside the work.
    type Slot: Default;
    /// `true`: a stage starts as soon as it is enqueued, and a finished
    /// stage restarts its own station. `false` (batch): enqueueing only
    /// queues, and after every event all stations of server 0 start in
    /// [`Resource::ALL`] order.
    const EAGER: bool = true;

    /// Handles an adapter event.
    fn on_event(&mut self, k: &mut Kernel<Self>, ev: Self::Event, now: SimTime);
    /// A request finished its last stage; its slot is still allocated.
    fn on_complete(&mut self, k: &mut Kernel<Self>, slot: usize, now: SimTime);
    /// Work granted a retry by [`Kernel::retry`] is due for dispatch.
    fn on_retry(&mut self, k: &mut Kernel<Self>, work: Work, now: SimTime);
    /// Checked after every event: `true` ends the run.
    fn done(&self, k: &Kernel<Self>) -> bool;
    /// Called as a request starts service at a station.
    fn on_start(_data: &mut Self::Slot, _res: Resource, _queued: SimDuration, _svc: SimDuration) {}
}

/// The station network's state for one run.
pub(crate) struct Kernel<A: Adapter> {
    pub events: EventQueue<Ev<A::Event>>,
    pub slots: Vec<Slot<A::Slot>>,
    free: Vec<usize>,
    /// Four stations per server, in [`Resource::ALL`] order.
    stations: Vec<Station>,
    /// Work waiting out a retry backoff, and the free handles into it.
    stash: Vec<Work>,
    stash_free: Vec<u32>,
    warmup: u64,
    /// Completions over the whole run.
    pub completed: u64,
    measured: u64,
    measure_start: SimTime,
    latency: Histogram,
    /// Timeouts, retries and drops; reset when the warm-up ends.
    pub faults: FaultStats,
    /// Per station: (time-integrated occupancy, summed sojourn), in ns.
    #[cfg(debug_assertions)]
    little: Vec<(u128, u128)>,
    #[cfg(debug_assertions)]
    little_at: SimTime,
}

impl<A: Adapter> Kernel<A> {
    /// An idle network of `servers` identical servers whose measurement
    /// window opens at completion number `warmup`.
    pub fn new(spec: ServerSpec, servers: usize, warmup: u64, capacity: usize) -> Self {
        let station = |r| Station {
            queue: VecDeque::new(),
            busy: 0,
            servers: spec.servers_at(r),
            busy_ns: 0,
        };
        Kernel {
            events: EventQueue::with_capacity(capacity),
            slots: Vec::new(),
            free: Vec::new(),
            stations: (0..servers)
                .flat_map(|_| Resource::ALL.map(station))
                .collect(),
            stash: Vec::new(),
            stash_free: Vec::new(),
            warmup,
            completed: 0,
            measured: 0,
            measure_start: SimTime::ZERO,
            latency: Histogram::new(),
            faults: FaultStats::default(),
            #[cfg(debug_assertions)]
            little: vec![(0, 0); servers * 4],
            #[cfg(debug_assertions)]
            little_at: SimTime::ZERO,
        }
    }

    /// An empty stage list for the next request: the one the slot
    /// [`alloc`](Self::alloc) hands out next still holds, so in steady
    /// state a request allocates nothing.
    #[inline(always)]
    pub fn stage_list(&mut self) -> Vec<Stage> {
        let mut stages = match self.free.last() {
            Some(&slot) => std::mem::take(&mut self.slots[slot].work.stages),
            None => Vec::new(),
        };
        stages.clear();
        stages
    }

    /// Takes a slot (the most recently freed one first) for work bound
    /// to `server`; [`enqueue`](Self::enqueue) queues it.
    #[inline(always)]
    pub fn alloc(&mut self, server: usize, work: Work, data: A::Slot) -> usize {
        let (server, enqueued_at) = (server as u32, work.started);
        let Some(slot) = self.free.pop() else {
            self.slots.push(Slot {
                work,
                next: 0,
                server,
                enqueued_at,
                gen: 0,
                active: true,
                data,
            });
            return self.slots.len() - 1;
        };
        let s = &mut self.slots[slot];
        (s.work, s.next, s.server, s.enqueued_at) = (work, 0, server, enqueued_at);
        (s.active, s.data) = (true, data);
        slot
    }

    /// Frees a slot, voiding every event still carrying its generation.
    /// Its work and data stay readable until the slot is reused (its
    /// stage list until [`stage_list`](Self::stage_list) recycles it).
    #[inline(always)]
    pub fn release(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.gen = s.gen.wrapping_add(1);
        s.active = false;
        self.free.push(slot);
    }

    /// The station a slot's current stage runs at.
    #[inline(always)]
    fn station_of(&self, slot: usize) -> usize {
        let s = &self.slots[slot];
        s.server as usize * 4 + s.work.stages[s.next as usize].resource.index()
    }

    /// Queues a request at its current stage's station. An eager
    /// adapter's request starts at once when the station has a free
    /// server and nothing queued; queued work starts in FCFS order as
    /// servers free up.
    #[inline(always)]
    pub fn enqueue(&mut self, slot: usize, now: SimTime) {
        let station = self.station_of(slot);
        self.slots[slot].enqueued_at = now;
        let st = &mut self.stations[station];
        if A::EAGER && st.busy < st.servers && st.queue.is_empty() {
            self.start(station, slot, now);
        } else {
            st.queue.push_back(slot as u32);
        }
    }

    /// Starts queued work at one station while it has free servers.
    #[inline(always)]
    fn try_start(&mut self, station: usize, now: SimTime) {
        while self.stations[station].busy < self.stations[station].servers {
            let Some(slot) = self.stations[station].queue.pop_front() else {
                break;
            };
            self.start(station, slot as usize, now);
        }
    }

    /// Puts a slot's current stage into service at `station`, which has
    /// a free server, and schedules its completion.
    #[inline(always)]
    fn start(&mut self, station: usize, slot: usize, now: SimTime) {
        let st = &mut self.stations[station];
        st.busy += 1;
        let s = &mut self.slots[slot];
        let service = s.work.stages[s.next as usize].service;
        st.busy_ns += service.as_nanos() as u128;
        let queued = now.saturating_sub(s.enqueued_at);
        A::on_start(&mut s.data, Resource::ALL[station % 4], queued, service);
        let (slot, gen, station) = (slot as u32, s.gen, station as u32);
        self.events
            .schedule(now + service, Ev::Done { slot, gen, station });
    }

    /// Starts every station of server 0, in [`Resource::ALL`] order.
    pub fn start_all(&mut self, now: SimTime) {
        for station in 0..4 {
            self.try_start(station, now);
        }
    }

    /// Fails every request queued or in service at `server`: its
    /// stations empty and idle. Returns the victims in slot order, still
    /// allocated, for the adapter to release and retry.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn kill_server(&mut self, server: usize, now: SimTime) -> Vec<usize> {
        let victims: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].active && self.slots[i].server as usize == server)
            .collect();
        for st in &mut self.stations[server * 4..server * 4 + 4] {
            st.queue.clear();
            st.busy = 0;
        }
        #[cfg(debug_assertions)]
        for &v in &victims {
            self.end_visit(v, now);
        }
        victims
    }

    /// Counts one completion of a request that started at `started`,
    /// opening the measurement window at the end of the warm-up.
    #[inline(always)]
    pub fn complete(&mut self, started: SimTime, now: SimTime) {
        self.completed += 1;
        if self.completed == self.warmup {
            self.measure_start = now;
            self.latency = Histogram::new();
            self.faults = FaultStats::default();
        }
        if self.completed > self.warmup {
            self.measured += 1;
        }
        self.latency.record_duration(now.saturating_sub(started));
    }

    /// Failed `work` retries after `retry`'s backoff when the
    /// per-request attempt limit and the global budget both allow it
    /// (delivered through [`Adapter::on_retry`]); otherwise it counts as
    /// a drop and `false` comes back.
    pub fn retry(
        &mut self,
        retry: &RetryPolicy,
        budget: Option<&mut RetryBudget>,
        mut work: Work,
        now: SimTime,
    ) -> bool {
        if work.attempt >= retry.max_retries || !budget.is_none_or(RetryBudget::try_spend) {
            self.faults.dropped += 1;
            return false;
        }
        self.faults.retries += 1;
        let at = now + retry.backoff_for(work.attempt);
        work.attempt += 1;
        let handle = match self.stash_free.pop() {
            Some(h) => {
                self.stash[h as usize] = work;
                h
            }
            None => {
                self.stash.push(work);
                self.stash.len() as u32 - 1
            }
        };
        self.events.schedule(at, Ev::Retry(handle));
        true
    }

    /// Runs the event loop until the adapter is done or no events
    /// remain.
    ///
    /// Events are taken one at a time with [`EventQueue::pop`], in
    /// `(when, seq)` order: time order, and among events of one instant
    /// the order they were scheduled in, so work scheduled while an
    /// instant is handled runs after that instant's earlier events.
    /// The adapter is asked after every event whether the run is done;
    /// events still pending then are never delivered.
    pub fn run(&mut self, a: &mut A) {
        while let Some((now, ev)) = self.events.pop() {
            #[cfg(debug_assertions)]
            self.integrate(now);
            match ev {
                Ev::Done { slot, gen, station } => {
                    if self.slots[slot as usize].gen == gen {
                        self.stage_done(a, slot as usize, station as usize, now);
                    }
                }
                Ev::Retry(handle) => {
                    self.stash_free.push(handle);
                    let work = std::mem::take(&mut self.stash[handle as usize]);
                    a.on_retry(self, work, now);
                }
                Ev::Hook(e) => a.on_event(self, e, now),
            }
            if !A::EAGER {
                self.start_all(now);
            }
            #[cfg(debug_assertions)]
            self.check_conservation();
            if a.done(self) {
                break;
            }
        }
        #[cfg(debug_assertions)]
        self.check_little();
    }

    #[inline(always)]
    fn stage_done(&mut self, a: &mut A, slot: usize, station: usize, now: SimTime) {
        #[cfg(debug_assertions)]
        self.end_visit(slot, now);
        self.stations[station].busy -= 1;
        let s = &mut self.slots[slot];
        s.next += 1;
        if (s.next as usize) < s.work.stages.len() {
            self.enqueue(slot, now);
        } else {
            a.on_complete(self, slot, now);
        }
        if A::EAGER {
            self.try_start(station, now);
        }
    }

    /// Busy fraction per resource over `[0, now]`, summed over servers
    /// and normalized by their total server count. Busy time accrues at
    /// service start, so work still in service at the end can push the
    /// raw ratio past 1; it is clamped.
    pub fn utilization(&self) -> [f64; 4] {
        let span = self.events.now().saturating_sub(SimTime::ZERO).as_nanos() as f64;
        let mut utilization = [0.0; 4];
        if span > 0.0 {
            let servers = (self.stations.len() / 4) as f64;
            for (ri, u) in utilization.iter_mut().enumerate() {
                let per_server = self.stations.iter().skip(ri).step_by(4);
                let total: u128 = per_server.map(|st| st.busy_ns).sum();
                let cap = span * f64::from(self.stations[ri].servers) * servers;
                *u = (total as f64 / cap).min(1.0);
            }
        }
        utilization
    }

    /// The run's statistics over the measurement window.
    pub fn into_stats(self) -> RunStats {
        RunStats {
            completed: self.measured,
            window: self.events.now().saturating_sub(self.measure_start),
            utilization: self.utilization(),
            faults: self.faults,
            queue: self.events.obs_stats(),
            latency: self.latency,
        }
    }

    /// Accumulates each station's occupancy since the last event.
    #[cfg(debug_assertions)]
    fn integrate(&mut self, now: SimTime) {
        let dt = u128::from(now.saturating_sub(self.little_at).as_nanos());
        for (st, (area, _)) in self.stations.iter().zip(&mut self.little) {
            *area += (st.queue.len() as u128 + u128::from(st.busy)) * dt;
        }
        self.little_at = now;
    }

    /// Adds a visit's sojourn at its current station, ending `now`.
    #[cfg(debug_assertions)]
    fn end_visit(&mut self, slot: usize, now: SimTime) {
        let sojourn = now.saturating_sub(self.slots[slot].enqueued_at).as_nanos();
        let station = self.station_of(slot);
        self.little[station].1 += u128::from(sojourn);
    }

    /// Every slot is free, queued or in service, and no station runs
    /// more work than it has servers.
    #[cfg(debug_assertions)]
    fn check_conservation(&self) {
        let mut held = self.free.len();
        for st in &self.stations {
            assert!(st.busy <= st.servers, "station over capacity");
            held += st.queue.len() + st.busy as usize;
        }
        assert_eq!(held, self.slots.len(), "slots leaked or double-counted");
    }

    /// Little's law per station: the time-integrated occupancy equals
    /// the summed sojourn of every visit, in-progress visits counted up
    /// to the end of the run.
    #[cfg(debug_assertions)]
    fn check_little(&mut self) {
        let end = self.events.now();
        self.integrate(end);
        for slot in 0..self.slots.len() {
            if self.slots[slot].active {
                self.end_visit(slot, end);
            }
        }
        for &(area, sojourn) in &self.little {
            assert_eq!(area, sojourn, "Little's law violated at a station");
        }
    }
}

//! The discrete-event engine.
//!
//! Simulates a [`Network`] cycle-accurately: each task starts token `k`
//! as soon as (a) its own II allows, (b) every input channel holds a ready
//! token, (c) every output channel has a free slot, and (d) the port of
//! every bank it issues through is free. FIFO slots free when the
//! consumer starts; PIPO slots free when the consumer finishes (it holds
//! its bank for the whole computation).
//!
//! # Wake rule
//!
//! The engine is event-driven: pending events sit in per-cycle buckets
//! (a fixed ring for the next few hundred cycles, an ordered map beyond,
//! so long latencies cost no memory and empty stretches are skipped in
//! one step), and a task is re-examined only when one of its start
//! conditions may have changed:
//!
//! * its II elapses;
//! * its last missing input token matures (a per-task count of matured
//!   input heads makes a wide fan-in task O(1) to test);
//! * a slot of one of its full output channels frees (a FIFO consumer
//!   starts, or a PIPO consumer finishes);
//! * a bank port it waits on frees. Each bank keeps an index-ordered set
//!   of waiters; a freed port wakes its lowest waiter, and a waiter that
//!   cannot take the port passes the wake on to the next.
//!
//! Within one cycle the woken tasks are examined in ascending task index,
//! in passes until a fixed point: a start can free a FIFO slot for a
//! lower-index producer, which then runs in the next pass. This is the
//! order in which scanning every task at every event cycle examines
//! them, so bank arbitration, stall accounting and the attribution of
//! bank stalls are exactly the exhaustive scan's. The test suite keeps
//! that scan as a reference and compares whole reports, traces
//! included, against it.

use crate::network::{ChannelKind, Network};
use crate::DataflowError;
use std::collections::BTreeMap;

/// Per-task simulation statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStats {
    /// Task name.
    pub name: String,
    /// Tokens processed.
    pub invocations: u64,
    /// First token start cycle.
    pub first_start: u64,
    /// Last token finish cycle.
    pub last_finish: u64,
    /// Cycles the task spent unable to start although its II had elapsed
    /// (starved on inputs or blocked on outputs).
    pub stall_cycles: u64,
}

impl TaskStats {
    /// Fraction of the steady window the task was initiating tokens:
    /// `invocations · ii / (last_finish − first_start)`.
    pub fn utilization(&self, ii: u64) -> f64 {
        let span = self.last_finish.saturating_sub(self.first_start).max(1);
        (self.invocations * ii) as f64 / span as f64
    }
}

/// Per-channel simulation statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelStats {
    /// Channel name.
    pub name: String,
    /// Peak simultaneous occupancy observed.
    pub peak_occupancy: usize,
    /// Total tokens transferred.
    pub tokens_transferred: u64,
}

/// Per-bank simulation statistics (present only when the network has
/// banked channels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankStats {
    /// Bank index.
    pub bank: usize,
    /// Cycles the bank's port was reserved by producer bursts.
    pub reserved_cycles: u64,
    /// Cycles tasks sat ready-to-start waiting only for this bank's
    /// port (attributed to every bank the waiting task issues through).
    pub stall_cycles: u64,
    /// Tokens issued through the bank.
    pub tokens: u64,
}

/// One row of the execution trace: task `task` started token `token` at
/// cycle `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Task index.
    pub task: usize,
    /// Token index.
    pub token: u64,
    /// Start cycle.
    pub start: u64,
    /// Finish cycle.
    pub finish: u64,
}

/// The outcome of a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationReport {
    /// Total cycles from 0 to the last task finish.
    pub makespan: u64,
    /// Per-task statistics (same order as the network's tasks).
    pub task_stats: Vec<TaskStats>,
    /// Per-channel statistics.
    pub channel_stats: Vec<ChannelStats>,
    /// Per-bank statistics (empty unless the network has banked
    /// channels, so unbanked reports are unchanged by the banking
    /// overlay).
    pub bank_stats: Vec<BankStats>,
    /// Optional full trace (when requested).
    pub trace: Vec<TraceEvent>,
}

impl SimulationReport {
    /// Observed steady-state initiation interval of the sink task
    /// (makespan slope); equals the bottleneck II once pipelined.
    pub fn observed_ii(&self, tokens: u64) -> f64 {
        if tokens < 2 {
            return self.makespan as f64;
        }
        let sink = self
            .task_stats
            .iter()
            .max_by_key(|t| t.last_finish)
            .expect("non-empty");
        (sink.last_finish - sink.first_start) as f64 / (tokens - 1) as f64
    }
}

/// Runs the simulation to completion.
///
/// # Errors
///
/// [`DataflowError::Deadlock`] if no task can make progress while work
/// remains (cannot happen for networks that pass the builder's
/// design-rule checks and agree on their token targets, but returned
/// rather than looping forever).
pub fn simulate(net: &Network) -> Result<SimulationReport, DataflowError> {
    simulate_with_trace(net, false)
}

/// Runs the simulation, optionally recording every task invocation.
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_with_trace(
    net: &Network,
    trace_on: bool,
) -> Result<SimulationReport, DataflowError> {
    let mut engine = Engine::new(net, trace_on);
    engine.run()?;
    Ok(engine.report())
}

/// A pending event of the engine's queue.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A task's II elapses: it may start its next token, and the bank
    /// ports it reserved for the last one free.
    Initiate(usize),
    /// A task's token finishes: its output tokens mature and its PIPO
    /// input slots free.
    Finish(usize),
}

/// Cycles the event queue's ring of near buckets spans.
const NEAR_CYCLES: u64 = 256;

/// End of a bucket's list of event nodes.
const NIL: usize = usize::MAX;

/// One queued event, linked into its cycle's bucket (or the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    event: Event,
    next: usize,
}

/// Pending events in per-cycle buckets. The buckets of the next
/// [`NEAR_CYCLES`] cycles sit in a ring indexed by cycle, with a bitmap
/// of the non-empty ones; later buckets sit in an ordered map and move
/// into the ring as time reaches them. A bucket is a list of nodes in
/// one arena that reuses freed nodes, so memory is the fixed ring plus
/// the pending events whatever the latencies, and the next non-empty
/// cycle is found from the bitmap or the map without walking empty
/// cycles. Events of one cycle commute, so a bucket's order is free.
#[derive(Debug)]
struct EventQueue {
    /// The current cycle: every pending event is later.
    base: u64,
    /// First node of each near cycle's bucket.
    ring: Vec<usize>,
    /// Bit `i` is set while `ring[i]` holds events.
    occupied: [u64; NEAR_CYCLES as usize / 64],
    /// First node of the buckets at least [`NEAR_CYCLES`] after `base`.
    far: BTreeMap<u64, usize>,
    nodes: Vec<Node>,
    /// First node of the free list.
    free: usize,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            base: 0,
            ring: vec![NIL; NEAR_CYCLES as usize],
            occupied: [0; NEAR_CYCLES as usize / 64],
            far: BTreeMap::new(),
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Links a node for `event` in front of the list at `head`.
    fn link(&mut self, event: Event, head: usize) -> usize {
        let node = Node { event, next: head };
        if self.free == NIL {
            self.nodes.push(node);
            self.nodes.len() - 1
        } else {
            let n = self.free;
            self.free = self.nodes[n].next;
            self.nodes[n] = node;
            n
        }
    }

    fn push(&mut self, cycle: u64, event: Event) {
        debug_assert!(cycle > self.base);
        if cycle - self.base < NEAR_CYCLES {
            let slot = (cycle % NEAR_CYCLES) as usize;
            self.ring[slot] = self.link(event, self.ring[slot]);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            let head = self.far.get(&cycle).copied().unwrap_or(NIL);
            let head = self.link(event, head);
            self.far.insert(cycle, head);
        }
    }

    /// The earliest non-empty near cycle, if any.
    fn next_near(&self) -> Option<u64> {
        let words = self.occupied.len();
        let start = (self.base % NEAR_CYCLES) as usize;
        let (first, shift) = (start / 64, start % 64);
        // The start word's bits from `shift` on, the other words in ring
        // order, then the start word's bits below `shift`.
        for i in 0..=words {
            let w = (first + i) % words;
            let bits = match i {
                0 => self.occupied[w] & (!0 << shift),
                _ if i == words => self.occupied[w] & ((1 << shift) - 1),
                _ => self.occupied[w],
            };
            if bits != 0 {
                let slot = (w * 64 + bits.trailing_zeros() as usize) as u64;
                return Some(self.base + (slot + NEAR_CYCLES - start as u64) % NEAR_CYCLES);
            }
        }
        None
    }

    /// Advances to the earliest pending cycle and detaches its bucket;
    /// drain it with [`EventQueue::take`].
    fn pop(&mut self) -> Option<(u64, usize)> {
        let cycle = match self.next_near() {
            Some(cycle) => cycle,
            None => *self.far.keys().next()?,
        };
        self.base = cycle;
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() >= cycle + NEAR_CYCLES {
                break;
            }
            let (c, mut n) = entry.remove_entry();
            let slot = (c % NEAR_CYCLES) as usize;
            while n != NIL {
                let next = self.nodes[n].next;
                self.nodes[n].next = self.ring[slot];
                self.ring[slot] = n;
                n = next;
            }
            self.occupied[slot / 64] |= 1 << (slot % 64);
        }
        let slot = (cycle % NEAR_CYCLES) as usize;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        Some((cycle, std::mem::replace(&mut self.ring[slot], NIL)))
    }

    /// Takes the next event of a detached bucket, freeing its node.
    fn take(&mut self, bucket: &mut usize) -> Option<Event> {
        let n = *bucket;
        if n == NIL {
            return None;
        }
        *bucket = self.nodes[n].next;
        self.nodes[n].next = self.free;
        self.free = n;
        Some(self.nodes[n].event)
    }
}

/// The tasks to examine at the current cycle, taken in ascending index
/// in passes: a task woken ahead of the one being examined joins the
/// running pass, one woken behind it joins the next pass. Each pass is a
/// bitset over task indices, scanned forward from the cursor.
#[derive(Debug)]
struct WakeSet {
    pass: Vec<u64>,
    next: Vec<u64>,
    /// Tasks queued in `pass` and in `next`.
    pass_len: usize,
    next_len: usize,
    /// The task being examined.
    cursor: Option<usize>,
}

impl WakeSet {
    fn new(tasks: usize) -> Self {
        WakeSet {
            pass: vec![0; tasks.div_ceil(64)],
            next: vec![0; tasks.div_ceil(64)],
            pass_len: 0,
            next_len: 0,
            cursor: None,
        }
    }

    fn wake(&mut self, tid: usize) {
        let (word, bit) = (tid / 64, 1u64 << (tid % 64));
        let (set, count) = if self.cursor.is_none_or(|c| tid > c) {
            (&mut self.pass, &mut self.pass_len)
        } else {
            (&mut self.next, &mut self.next_len)
        };
        if set[word] & bit == 0 {
            set[word] |= bit;
            *count += 1;
        }
    }

    /// The next task to examine, opening a new pass when the running one
    /// is done; `None` once the cycle reaches its fixed point.
    fn pop(&mut self) -> Option<usize> {
        if self.pass_len == 0 {
            self.cursor = None;
            if self.next_len == 0 {
                return None;
            }
            std::mem::swap(&mut self.pass, &mut self.next);
            self.pass_len = std::mem::take(&mut self.next_len);
        }
        // Every task queued in the running pass lies after the cursor.
        let mut word = self.cursor.map_or(0, |c| c / 64);
        while self.pass[word] == 0 {
            word += 1;
        }
        let bit = self.pass[word].trailing_zeros() as usize;
        self.pass[word] &= self.pass[word] - 1;
        self.pass_len -= 1;
        self.cursor = Some(word * 64 + bit);
        self.cursor
    }
}

/// The tasks that issue through one bank, in ascending index, and which
/// of them wait on its port (a bitset over their positions).
#[derive(Debug, Clone, Default)]
struct BankWaiters {
    tasks: Vec<usize>,
    waiting: Vec<u64>,
}

impl BankWaiters {
    fn insert(&mut self, pos: usize) {
        self.waiting[pos / 64] |= 1 << (pos % 64);
    }

    /// Clears `pos`; whether it was waiting.
    fn remove(&mut self, pos: usize) -> bool {
        let word = &mut self.waiting[pos / 64];
        let bit = 1 << (pos % 64);
        let was = *word & bit != 0;
        *word &= !bit;
        was
    }

    /// The lowest waiting task at position `from` or later.
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.waiting.get(word)? & (!0 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.waiting.get(word)?;
        }
        Some(self.tasks[word * 64 + bits.trailing_zeros() as usize])
    }
}

#[derive(Debug, Clone, Default)]
struct TaskState {
    started: u64,
    /// Cycle at which the task's II next allows a start.
    next_start: u64,
    first_start: Option<u64>,
    last_finish: u64,
    stall: u64,
    /// Input channels whose head token has matured.
    ready_inputs: usize,
    /// Cycle since which only bank ports have kept the task waiting.
    bank_block_since: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct ChannelState {
    /// Occupied slots (reservations included).
    occupancy: usize,
    /// Matured tokens waiting for the consumer.
    ready: u64,
    peak: usize,
    transferred: u64,
}

/// The event-driven engine's state for one run.
struct Engine<'a> {
    net: &'a Network,
    trace_on: bool,
    now: u64,
    /// Per-task token targets (per-task overrides, or the network count).
    targets: Vec<u64>,
    /// The distinct banks each task issues its output bursts through,
    /// with the task's position among the bank's tasks.
    task_banks: Vec<Vec<(usize, usize)>>,
    /// Whether a task reads any PIPO channel (its finish frees slots).
    reads_pipo: Vec<bool>,
    producer: Vec<usize>,
    consumer: Vec<usize>,
    tasks: Vec<TaskState>,
    channels: Vec<ChannelState>,
    bank_free_at: Vec<u64>,
    bank_reserved: Vec<u64>,
    bank_stall: Vec<u64>,
    bank_tokens: Vec<u64>,
    /// Per bank: the tasks that last failed to start while its port was
    /// reserved.
    waiters: Vec<BankWaiters>,
    queue: EventQueue,
    wake: WakeSet,
    trace: Vec<TraceEvent>,
    /// Token starts still to come.
    remaining: u64,
    /// Latest cycle any event was scheduled for.
    horizon: u64,
}

impl<'a> Engine<'a> {
    fn new(net: &'a Network, trace_on: bool) -> Self {
        let nt = net.tasks().len();
        let nc = net.channels().len();
        let nbanks = net.max_bank().map_or(0, |b| b + 1);
        let targets: Vec<u64> = (0..nt).map(|tid| net.task_tokens(tid)).collect();
        let mut producer = vec![0; nc];
        let mut consumer = vec![0; nc];
        for (tid, t) in net.tasks().iter().enumerate() {
            for &c in &t.outputs {
                producer[c] = tid;
            }
            for &c in &t.inputs {
                consumer[c] = tid;
            }
        }
        let mut waiters = vec![BankWaiters::default(); nbanks];
        let task_banks = net
            .tasks()
            .iter()
            .enumerate()
            .map(|(tid, t)| {
                let mut banks: Vec<usize> = t
                    .outputs
                    .iter()
                    .filter_map(|&c| net.channels()[c].bank)
                    .collect();
                banks.sort_unstable();
                banks.dedup();
                banks
                    .into_iter()
                    .map(|b| {
                        waiters[b].tasks.push(tid);
                        (b, waiters[b].tasks.len() - 1)
                    })
                    .collect()
            })
            .collect();
        for w in &mut waiters {
            w.waiting = vec![0; w.tasks.len().div_ceil(64)];
        }
        Engine {
            net,
            trace_on,
            now: 0,
            remaining: targets.iter().sum(),
            targets,
            task_banks,
            reads_pipo: net
                .tasks()
                .iter()
                .map(|t| {
                    t.inputs
                        .iter()
                        .any(|&c| net.channels()[c].kind == ChannelKind::Pipo)
                })
                .collect(),
            producer,
            consumer,
            tasks: vec![TaskState::default(); nt],
            channels: vec![ChannelState::default(); nc],
            bank_free_at: vec![0; nbanks],
            bank_reserved: vec![0; nbanks],
            bank_stall: vec![0; nbanks],
            bank_tokens: vec![0; nbanks],
            waiters,
            queue: EventQueue::new(),
            wake: WakeSet::new(nt),
            trace: Vec::new(),
            horizon: 0,
        }
    }

    fn run(&mut self) -> Result<(), DataflowError> {
        // Every task is examined at cycle 0.
        for tid in 0..self.tasks.len() {
            self.wake.wake(tid);
        }
        loop {
            while let Some(tid) = self.wake.pop() {
                self.examine(tid);
            }
            if self.remaining == 0 {
                return Ok(());
            }
            let Some((cycle, mut bucket)) = self.queue.pop() else {
                return Err(DataflowError::Deadlock {
                    at_cycle: self.horizon,
                    stuck_tasks: self
                        .net
                        .tasks()
                        .iter()
                        .zip(&self.tasks)
                        .zip(&self.targets)
                        .filter(|((_, s), &target)| s.started < target)
                        .map(|((t, _), _)| t.name.clone())
                        .collect(),
                });
            };
            self.now = cycle;
            while let Some(event) = self.queue.take(&mut bucket) {
                self.apply(event);
            }
        }
    }

    /// Applies one event of the current cycle, waking the tasks whose
    /// start conditions it may have completed.
    fn apply(&mut self, event: Event) {
        let net = self.net;
        match event {
            Event::Initiate(tid) => {
                if self.tasks[tid].started < self.targets[tid] {
                    self.wake.wake(tid);
                }
                // The freed ports go to their lowest waiters first.
                for &(b, _) in &self.task_banks[tid] {
                    debug_assert_eq!(self.bank_free_at[b], self.now);
                    if let Some(w) = self.waiters[b].first_from(0) {
                        self.wake.wake(w);
                    }
                }
            }
            Event::Finish(tid) => {
                let spec = &net.tasks()[tid];
                for &c in &spec.outputs {
                    self.channels[c].ready += 1;
                    if self.channels[c].ready == 1 {
                        let k = self.consumer[c];
                        self.tasks[k].ready_inputs += 1;
                        if self.tasks[k].ready_inputs == net.tasks()[k].inputs.len() {
                            self.wake.wake(k);
                        }
                    }
                }
                if self.reads_pipo[tid] {
                    for &c in &spec.inputs {
                        if net.channels()[c].kind == ChannelKind::Pipo {
                            self.free_slot(c);
                        }
                    }
                }
            }
        }
    }

    /// Frees one slot of channel `c`, waking its producer if the channel
    /// was full.
    fn free_slot(&mut self, c: usize) {
        if self.channels[c].occupancy == self.net.channels()[c].capacity {
            self.wake.wake(self.producer[c]);
        }
        self.channels[c].occupancy -= 1;
    }

    /// Starts task `tid` if it can start now; otherwise records what it
    /// waits on.
    fn examine(&mut self, tid: usize) {
        let net = self.net;
        let now = self.now;
        let spec = &net.tasks()[tid];
        let st = &self.tasks[tid];
        if st.started >= self.targets[tid] || st.next_start > now {
            return;
        }
        let inputs_ready = st.ready_inputs == spec.inputs.len();
        let outputs_free = spec
            .outputs
            .iter()
            .all(|&c| self.channels[c].occupancy < net.channels()[c].capacity);
        let banks_free = self.task_banks[tid]
            .iter()
            .all(|&(b, _)| self.bank_free_at[b] <= now);
        if inputs_ready && outputs_free && banks_free {
            self.start(tid);
            return;
        }
        if inputs_ready && outputs_free && st.bank_block_since.is_none() {
            // Blocked *only* by bank ports.
            self.tasks[tid].bank_block_since = Some(now);
        }
        for &(b, pos) in &self.task_banks[tid] {
            if self.bank_free_at[b] > now {
                self.waiters[b].insert(pos);
            } else if self.waiters[b].remove(pos) {
                // The port is free but this waiter cannot take it: pass
                // the wake on to the next waiter.
                if let Some(w) = self.waiters[b].first_from(pos + 1) {
                    self.wake.wake(w);
                }
            }
        }
    }

    fn start(&mut self, tid: usize) {
        let net = self.net;
        let now = self.now;
        let spec = &net.tasks()[tid];
        let st = &mut self.tasks[tid];
        // Every task is examined the cycle its II elapses, so it has
        // been waiting (on inputs, outputs or ports) since then.
        st.stall += now - st.next_start;
        let token = st.started;
        st.started += 1;
        st.first_start.get_or_insert(now);
        st.next_start = now + spec.ii;
        let finish = now + spec.latency;
        st.last_finish = finish;
        let more = st.started < self.targets[tid];
        let bank_block_since = st.bank_block_since.take();
        // Reserve this token's burst on every output bank.
        for &(b, pos) in &self.task_banks[tid] {
            if let Some(since) = bank_block_since {
                self.bank_stall[b] += now - since;
            }
            self.bank_free_at[b] = now + spec.ii;
            self.bank_reserved[b] += spec.ii;
            self.bank_tokens[b] += 1;
            self.waiters[b].remove(pos);
        }
        self.remaining -= 1;
        self.horizon = self.horizon.max(now + spec.ii).max(finish);
        if self.trace_on {
            self.trace.push(TraceEvent {
                task: tid,
                token,
                start: now,
                finish,
            });
        }
        // Consume inputs.
        for &c in &spec.inputs {
            let ch = &mut self.channels[c];
            ch.ready -= 1;
            ch.transferred += 1;
            if ch.ready == 0 {
                self.tasks[tid].ready_inputs -= 1;
            }
            if net.channels()[c].kind == ChannelKind::Fifo {
                // Slot frees immediately at consumer start (a PIPO slot
                // is held until the consumer finishes).
                self.free_slot(c);
            }
        }
        // Reserve outputs; their tokens mature at finish.
        for &c in &spec.outputs {
            let ch = &mut self.channels[c];
            ch.occupancy += 1;
            ch.peak = ch.peak.max(ch.occupancy);
        }
        if more || !self.task_banks[tid].is_empty() {
            self.queue.push(now + spec.ii, Event::Initiate(tid));
        }
        if !spec.outputs.is_empty() || self.reads_pipo[tid] {
            self.queue.push(finish, Event::Finish(tid));
        }
    }

    fn report(self) -> SimulationReport {
        let net = self.net;
        SimulationReport {
            makespan: self.tasks.iter().map(|t| t.last_finish).max().unwrap_or(0),
            task_stats: net
                .tasks()
                .iter()
                .zip(&self.tasks)
                .map(|(spec, st)| TaskStats {
                    name: spec.name.clone(),
                    invocations: st.started,
                    first_start: st.first_start.unwrap_or(0),
                    last_finish: st.last_finish,
                    stall_cycles: st.stall,
                })
                .collect(),
            channel_stats: net
                .channels()
                .iter()
                .zip(&self.channels)
                .map(|(spec, st)| ChannelStats {
                    name: spec.name.clone(),
                    peak_occupancy: st.peak,
                    tokens_transferred: st.transferred,
                })
                .collect(),
            bank_stats: (0..self.bank_free_at.len())
                .map(|b| BankStats {
                    bank: b,
                    reserved_cycles: self.bank_reserved[b],
                    stall_cycles: self.bank_stall[b],
                    tokens: self.bank_tokens[b],
                })
                .collect(),
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod reference {
    //! The exhaustive scan the event-driven engine replaced, kept
    //! verbatim as the test oracle: at every event cycle it re-tests
    //! every task until a fixed point.

    use crate::network::{ChannelKind, Network};
    use crate::sim::{BankStats, ChannelStats, SimulationReport, TaskStats, TraceEvent};
    use crate::DataflowError;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone)]
    struct ChannelState {
        /// Ready times of queued tokens (FIFO order).
        queue: std::collections::VecDeque<u64>,
        /// Occupied slots (reservations included).
        occupancy: usize,
        peak: usize,
        transferred: u64,
    }

    #[derive(Debug, Clone)]
    struct TaskState {
        started: u64,
        finished: u64,
        next_allowed_start: u64,
        first_start: u64,
        last_finish: u64,
        ready_since: Option<u64>,
        stall: u64,
    }

    /// Runs the simulation, optionally recording every task invocation.
    ///
    /// # Errors
    ///
    /// See [`simulate`].
    pub(super) fn simulate_with_trace(
        net: &Network,
        trace_on: bool,
    ) -> Result<SimulationReport, DataflowError> {
        let nt = net.tasks().len();
        // Per-task token targets (per-task overrides, or the network count).
        let targets: Vec<u64> = (0..nt).map(|tid| net.task_tokens(tid)).collect();
        // Bank arbitration state: the distinct banks each task issues its
        // output bursts through, and per-bank port bookkeeping.
        let nbanks = net.max_bank().map_or(0, |b| b + 1);
        let task_banks: Vec<Vec<usize>> = net
            .tasks()
            .iter()
            .map(|t| {
                let mut banks: Vec<usize> = t
                    .outputs
                    .iter()
                    .filter_map(|&c| net.channels()[c].bank)
                    .collect();
                banks.sort_unstable();
                banks.dedup();
                banks
            })
            .collect();
        let mut bank_free_at = vec![0u64; nbanks];
        let mut bank_reserved = vec![0u64; nbanks];
        let mut bank_stall = vec![0u64; nbanks];
        let mut bank_tokens = vec![0u64; nbanks];
        let mut bank_block_since: Vec<Option<u64>> = vec![None; nt];
        let mut channels: Vec<ChannelState> = net
            .channels()
            .iter()
            .map(|_| ChannelState {
                queue: std::collections::VecDeque::new(),
                occupancy: 0,
                peak: 0,
                transferred: 0,
            })
            .collect();
        let mut tasks: Vec<TaskState> = (0..nt)
            .map(|_| TaskState {
                started: 0,
                finished: 0,
                next_allowed_start: 0,
                first_start: u64::MAX,
                last_finish: 0,
                ready_since: None,
                stall: 0,
            })
            .collect();
        let mut trace = Vec::new();

        // Pending "slot release" / "token ready" / "task finish" events.
        #[derive(PartialEq, Eq)]
        struct Ev(u64);
        impl Ord for Ev {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.cmp(&self.0) // min-heap
            }
        }
        impl PartialOrd for Ev {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut events: BinaryHeap<Ev> = BinaryHeap::new();
        // Deferred releases: (time, channel) slot frees; (time,) handled by
        // scanning at each event time.
        let mut releases: Vec<(u64, usize)> = Vec::new(); // (time, channel)
        let mut finishes: Vec<(u64, usize)> = Vec::new(); // (time, task)
        let mut ready_pushes: Vec<(u64, usize)> = Vec::new(); // (time, channel)

        let mut now = 0u64;
        events.push(Ev(0));
        let total_needed: u64 = targets.iter().sum();
        let mut total_done = 0u64;

        while total_done < total_needed {
            // Advance time to the next event.
            let Some(Ev(t)) = events.pop() else {
                return Err(DataflowError::Deadlock {
                    at_cycle: now,
                    stuck_tasks: net
                        .tasks()
                        .iter()
                        .zip(&tasks)
                        .zip(&targets)
                        .filter(|((_, s), &target)| s.started < target)
                        .map(|((t, _), _)| t.name.clone())
                        .collect(),
                });
            };
            // Coalesce same-time events.
            while let Some(Ev(t2)) = events.peek() {
                if *t2 == t {
                    events.pop();
                } else {
                    break;
                }
            }
            now = t;

            // Apply matured releases / finishes / token arrivals.
            releases.retain(|&(rt, c)| {
                if rt <= now {
                    channels[c].occupancy -= 1;
                    false
                } else {
                    true
                }
            });
            finishes.retain(|&(ft, tid)| {
                if ft <= now {
                    tasks[tid].finished += 1;
                    tasks[tid].last_finish = tasks[tid].last_finish.max(ft);
                    total_done += 1;
                    false
                } else {
                    true
                }
            });
            ready_pushes.retain(|&(rt, c)| {
                if rt <= now {
                    channels[c].queue.push_back(rt);
                    false
                } else {
                    true
                }
            });

            // Greedily start every task that can run at `now`; repeat until a
            // fixed point (a start may free an input slot for an upstream
            // task at the same cycle).
            let mut changed = true;
            while changed {
                changed = false;
                for (tid, spec) in net.tasks().iter().enumerate() {
                    let st = &tasks[tid];
                    if st.started >= targets[tid] || st.next_allowed_start > now {
                        continue;
                    }
                    // Inputs ready?
                    let inputs_ready = spec
                        .inputs
                        .iter()
                        .all(|&c| channels[c].queue.front().is_some_and(|&rt| rt <= now));
                    // Output space?
                    let outputs_free = spec
                        .outputs
                        .iter()
                        .all(|&c| channels[c].occupancy < net.channels()[c].capacity);
                    // Bank ports free? Same-cycle contenders serialize in
                    // ascending task index: the first task in declaration
                    // order wins the port and the rest re-test at the
                    // bank's release event.
                    let banks_free = task_banks[tid].iter().all(|&b| bank_free_at[b] <= now);
                    if !(inputs_ready && outputs_free && banks_free) {
                        if tasks[tid].ready_since.is_none() {
                            tasks[tid].ready_since = Some(now);
                        }
                        if inputs_ready && outputs_free && bank_block_since[tid].is_none() {
                            // Blocked *only* by bank ports.
                            bank_block_since[tid] = Some(now);
                        }
                        continue;
                    }
                    // Start token.
                    let st = &mut tasks[tid];
                    if let Some(since) = st.ready_since.take() {
                        st.stall += now - since;
                    }
                    if let Some(since) = bank_block_since[tid].take() {
                        for &b in &task_banks[tid] {
                            bank_stall[b] += now - since;
                        }
                    }
                    // Reserve this token's burst on every output bank.
                    for &b in &task_banks[tid] {
                        bank_free_at[b] = now + spec.ii;
                        bank_reserved[b] += spec.ii;
                        bank_tokens[b] += 1;
                    }
                    let token = st.started;
                    st.started += 1;
                    st.first_start = st.first_start.min(now);
                    st.next_allowed_start = now + spec.ii;
                    events.push(Ev(st.next_allowed_start));
                    let finish = now + spec.latency;
                    finishes.push((finish, tid));
                    events.push(Ev(finish));
                    if trace_on {
                        trace.push(TraceEvent {
                            task: tid,
                            token,
                            start: now,
                            finish,
                        });
                    }
                    // Consume inputs.
                    for &c in &spec.inputs {
                        channels[c].queue.pop_front();
                        channels[c].transferred += 1;
                        match net.channels()[c].kind {
                            ChannelKind::Fifo => {
                                // Slot frees immediately at consumer start.
                                channels[c].occupancy -= 1;
                            }
                            ChannelKind::Pipo => {
                                // Slot held until the consumer finishes.
                                releases.push((finish, c));
                            }
                        }
                    }
                    // Reserve outputs; data ready at finish.
                    for &c in &spec.outputs {
                        channels[c].occupancy += 1;
                        channels[c].peak = channels[c].peak.max(channels[c].occupancy);
                        ready_pushes.push((finish, c));
                    }
                    changed = true;
                }
            }
        }

        let makespan = tasks.iter().map(|t| t.last_finish).max().unwrap_or(0);
        Ok(SimulationReport {
            makespan,
            task_stats: net
                .tasks()
                .iter()
                .zip(&tasks)
                .map(|(spec, st)| TaskStats {
                    name: spec.name.clone(),
                    invocations: st.started,
                    first_start: if st.first_start == u64::MAX {
                        0
                    } else {
                        st.first_start
                    },
                    last_finish: st.last_finish,
                    stall_cycles: st.stall,
                })
                .collect(),
            channel_stats: net
                .channels()
                .iter()
                .zip(&channels)
                .map(|(spec, st)| ChannelStats {
                    name: spec.name.clone(),
                    peak_occupancy: st.peak,
                    tokens_transferred: st.transferred,
                })
                .collect(),
            bank_stats: (0..nbanks)
                .map(|b| BankStats {
                    bank: b,
                    reserved_cycles: bank_reserved[b],
                    stall_cycles: bank_stall[b],
                    tokens: bank_tokens[b],
                })
                .collect(),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ChannelKind, NetworkBuilder};
    use proptest::prelude::*;

    fn chain(iis: &[u64], lats: &[u64], cap: usize, kind: ChannelKind, tokens: u64) -> Network {
        let mut b = NetworkBuilder::new();
        let n = iis.len();
        let mut chans = Vec::new();
        for i in 0..n - 1 {
            chans.push(b.channel(format!("c{i}"), cap, kind));
        }
        for i in 0..n {
            let inputs = if i == 0 { vec![] } else { vec![chans[i - 1]] };
            let outputs = if i + 1 == n { vec![] } else { vec![chans[i]] };
            b.task(format!("t{i}"), iis[i], lats[i], inputs, outputs);
        }
        b.build(tokens).unwrap()
    }

    #[test]
    fn single_task_timing_is_exact() {
        let net = chain(&[3], &[10], 2, ChannelKind::Fifo, 100);
        let r = simulate(&net).unwrap();
        // starts at 0, 3, 6, ..., 297; finish = 297 + 10.
        assert_eq!(r.makespan, 3 * 99 + 10);
        assert_eq!(r.task_stats[0].invocations, 100);
        assert_eq!(r.task_stats[0].stall_cycles, 0);
    }

    #[test]
    fn bottleneck_sets_steady_state_rate() {
        let net = chain(&[2, 11, 3], &[5, 30, 7], 4, ChannelKind::Fifo, 500);
        let r = simulate(&net).unwrap();
        let ii = r.observed_ii(500);
        assert!(
            (ii - 11.0).abs() < 0.2,
            "observed II {ii}, expected ~11 (bottleneck)"
        );
        // Makespan ≈ fill + 11·(N−1).
        let fill: u64 = 5 + 30 + 7;
        let expect = fill + 11 * 499;
        assert!(
            (r.makespan as i64 - expect as i64).unsigned_abs() < 40,
            "makespan {} vs expected ≈{expect}",
            r.makespan
        );
    }

    #[test]
    fn fifo_vs_pipo_backpressure() {
        // Slow consumer with capacity-1 channels: PIPO holds its slot
        // through execution so the producer is throttled harder.
        let fifo = chain(&[1, 10], &[2, 10], 1, ChannelKind::Fifo, 200);
        let pipo = chain(&[1, 10], &[2, 10], 1, ChannelKind::Pipo, 200);
        let rf = simulate(&fifo).unwrap();
        let rp = simulate(&pipo).unwrap();
        assert!(
            rp.makespan >= rf.makespan,
            "pipo {} must not beat fifo {}",
            rp.makespan,
            rf.makespan
        );
        // With capacity 2 (double buffering) PIPO recovers the FIFO rate.
        let pipo2 = chain(&[1, 10], &[2, 10], 2, ChannelKind::Pipo, 200);
        let rp2 = simulate(&pipo2).unwrap();
        assert!(
            (rp2.observed_ii(200) - rf.observed_ii(200)).abs() < 0.5,
            "double-buffered PIPO should match FIFO"
        );
    }

    #[test]
    fn stalls_are_attributed_to_the_starved_task() {
        // Fast downstream task starved by a slow producer.
        let net = chain(&[20, 1], &[5, 2], 2, ChannelKind::Fifo, 50);
        let r = simulate(&net).unwrap();
        assert_eq!(r.task_stats[0].stall_cycles, 0);
        assert!(r.task_stats[1].stall_cycles > 0);
    }

    #[test]
    fn channel_stats_are_recorded() {
        let net = chain(&[1, 5], &[2, 5], 3, ChannelKind::Fifo, 100);
        let r = simulate(&net).unwrap();
        assert_eq!(r.channel_stats[0].tokens_transferred, 100);
        assert!(r.channel_stats[0].peak_occupancy >= 1);
        assert!(r.channel_stats[0].peak_occupancy <= 3);
    }

    #[test]
    fn trace_records_all_invocations() {
        let net = chain(&[2, 3], &[4, 4], 2, ChannelKind::Fifo, 25);
        let r = simulate_with_trace(&net, true).unwrap();
        assert_eq!(r.trace.len(), 50);
        // Token order per task is monotone.
        for tid in 0..2 {
            let starts: Vec<u64> = r
                .trace
                .iter()
                .filter(|e| e.task == tid)
                .map(|e| e.start)
                .collect();
            assert!(starts.windows(2).all(|w| w[0] < w[1]));
        }
        // A token is consumed only after it was produced.
        for e in r.trace.iter().filter(|e| e.task == 1) {
            let produced = r
                .trace
                .iter()
                .find(|p| p.task == 0 && p.token == e.token)
                .unwrap();
            assert!(e.start >= produced.finish);
        }
    }

    #[test]
    fn fan_out_fan_in_diamond() {
        // a → (b, c) → d : two parallel branches, no SPSC violation
        // because each branch has its own channels.
        let mut bld = NetworkBuilder::new();
        let ab = bld.channel("ab", 2, ChannelKind::Fifo);
        let ac = bld.channel("ac", 2, ChannelKind::Fifo);
        let bd = bld.channel("bd", 2, ChannelKind::Fifo);
        let cd = bld.channel("cd", 2, ChannelKind::Fifo);
        bld.task("a", 2, 3, vec![], vec![ab, ac]);
        bld.task("b", 5, 9, vec![ab], vec![bd]);
        bld.task("c", 7, 8, vec![ac], vec![cd]);
        bld.task("d", 2, 4, vec![bd, cd], vec![]);
        let net = bld.build(300).unwrap();
        let r = simulate(&net).unwrap();
        // Bottleneck is c (II 7).
        assert!((r.observed_ii(300) - 7.0).abs() < 0.2);
        assert_eq!(r.task_stats[3].invocations, 300);
    }

    /// Two independent producer→consumer pipelines; producers optionally
    /// share one memory bank for their output bursts.
    fn two_pipes(banks: [Option<usize>; 2], tokens: u64) -> Network {
        let mut b = NetworkBuilder::new();
        let mut mk = |i: usize, bank: Option<usize>| {
            let c = match bank {
                Some(bk) => b.banked_channel(format!("c{i}"), 2, ChannelKind::Fifo, bk),
                None => b.channel(format!("c{i}"), 2, ChannelKind::Fifo),
            };
            b.task(format!("p{i}"), 4, 8, vec![], vec![c]);
            b.task(format!("s{i}"), 1, 2, vec![c], vec![]);
        };
        mk(0, banks[0]);
        mk(1, banks[1]);
        b.build(tokens).unwrap()
    }

    #[test]
    fn unbanked_networks_report_no_bank_stats() {
        let net = chain(&[2, 3], &[4, 4], 2, ChannelKind::Fifo, 25);
        let r = simulate(&net).unwrap();
        assert!(r.bank_stats.is_empty());
    }

    #[test]
    fn shared_bank_serializes_and_distinct_banks_do_not() {
        let tokens = 100;
        let shared = simulate(&two_pipes([Some(0), Some(0)], tokens)).unwrap();
        let split = simulate(&two_pipes([Some(0), Some(1)], tokens)).unwrap();
        let unbanked = simulate(&two_pipes([None, None], tokens)).unwrap();
        // Two II-4 producers on one port: the bank is saturated and the
        // pair takes ~2x the unbanked time.
        assert!(
            shared.makespan > unbanked.makespan + tokens,
            "shared {} vs unbanked {}",
            shared.makespan,
            unbanked.makespan
        );
        // Distinct banks never conflict: identical to the unbanked run.
        assert_eq!(split.makespan, unbanked.makespan);
        // The shared bank's port is reserved 2·tokens·II cycles and saw
        // every token; some task waited on it.
        let b0 = &shared.bank_stats[0];
        assert_eq!(b0.tokens, 2 * tokens);
        assert_eq!(b0.reserved_cycles, 2 * tokens * 4);
        assert!(b0.stall_cycles > 0);
        // Split run: each bank carries one pipe, no stalls.
        assert!(split.bank_stats.iter().all(|b| b.stall_cycles == 0));
    }

    #[test]
    fn bank_arbitration_is_deterministic() {
        let a = simulate_with_trace(&two_pipes([Some(0), Some(0)], 64), true).unwrap();
        let b = simulate_with_trace(&two_pipes([Some(0), Some(0)], 64), true).unwrap();
        assert_eq!(a, b);
        // Ascending task index wins the first same-cycle conflict.
        let first_p0 = a.trace.iter().find(|e| e.task == 0).unwrap().start;
        let first_p1 = a.trace.iter().find(|e| e.task == 2).unwrap().start;
        assert!(first_p0 < first_p1);
    }

    #[test]
    fn per_task_token_overrides_run_disjoint_components() {
        // Pipe 0 processes 10 tokens, pipe 1 processes 40.
        let mut b = NetworkBuilder::new();
        let c0 = b.channel("c0", 2, ChannelKind::Fifo);
        let p0 = b.task("p0", 2, 4, vec![], vec![c0]);
        let s0 = b.task("s0", 1, 2, vec![c0], vec![]);
        let c1 = b.channel("c1", 2, ChannelKind::Fifo);
        let p1 = b.task("p1", 2, 4, vec![], vec![c1]);
        let s1 = b.task("s1", 1, 2, vec![c1], vec![]);
        b.task_tokens(p0, 10);
        b.task_tokens(s0, 10);
        b.task_tokens(p1, 40);
        b.task_tokens(s1, 40);
        let net = b.build(999).unwrap();
        let r = simulate(&net).unwrap();
        assert_eq!(r.task_stats[0].invocations, 10);
        assert_eq!(r.task_stats[1].invocations, 10);
        assert_eq!(r.task_stats[2].invocations, 40);
        assert_eq!(r.task_stats[3].invocations, 40);
        // Makespan is the long pipe's: fill + 2·(40−1) + drain.
        assert_eq!(r.makespan, 4 + 2 * 39 + 2);
    }

    /// Producer → consumer over one channel with disagreeing token
    /// targets.
    fn mismatched_pair(kind: ChannelKind, producer_tokens: u64, consumer_tokens: u64) -> Network {
        let mut b = NetworkBuilder::new();
        let c = b.channel("c", 2, kind);
        let p = b.task("producer", 3, 7, vec![], vec![c]);
        let s = b.task("consumer", 2, 5, vec![c], vec![]);
        b.task_tokens(p, producer_tokens);
        b.task_tokens(s, consumer_tokens);
        b.build(0).unwrap()
    }

    /// Two pipes sharing bank 0 (one FIFO, one PIPO), both with
    /// disagreeing targets: `p0` blocks on its full channel and `s1`
    /// starves.
    fn mismatched_banked_pipes() -> Network {
        let mut b = NetworkBuilder::new();
        let c0 = b.banked_channel("c0", 2, ChannelKind::Fifo, 0);
        let c1 = b.banked_channel("c1", 1, ChannelKind::Pipo, 0);
        let p0 = b.task("p0", 4, 9, vec![], vec![c0]);
        let s0 = b.task("s0", 1, 3, vec![c0], vec![]);
        let p1 = b.task("p1", 2, 6, vec![], vec![c1]);
        let s1 = b.task("s1", 5, 11, vec![c1], vec![]);
        b.task_tokens(p0, 20);
        b.task_tokens(s0, 12);
        b.task_tokens(p1, 7);
        b.task_tokens(s1, 30);
        b.build(0).unwrap()
    }

    /// Runs `simulate` on its own thread and fails the test unless it
    /// returns within a few seconds.
    fn simulate_within_bound(net: Network) -> Result<SimulationReport, DataflowError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(simulate(&net));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("simulate must return in bounded time");
        worker.join().unwrap();
        result
    }

    #[test]
    fn token_target_mismatches_deadlock_with_pinned_errors() {
        // Errors captured from the exhaustive-scan engine: `at_cycle` is
        // the last cycle any event was scheduled for.
        let cases = [
            (
                mismatched_pair(ChannelKind::Fifo, 5, 8),
                26,
                vec!["consumer"],
            ),
            (
                mismatched_pair(ChannelKind::Fifo, 9, 3),
                21,
                vec!["producer"],
            ),
            (
                mismatched_pair(ChannelKind::Pipo, 9, 3),
                31,
                vec!["producer"],
            ),
            (mismatched_banked_pipes(), 133, vec!["p0", "s1"]),
        ];
        for (net, at_cycle, stuck) in cases {
            let err = simulate_within_bound(net).unwrap_err();
            assert_eq!(
                err,
                DataflowError::Deadlock {
                    at_cycle,
                    stuck_tasks: stuck.into_iter().map(String::from).collect(),
                }
            );
        }
    }

    #[test]
    fn huge_latency_is_exact_without_latency_sized_memory() {
        // Capacity covers every token, so the load issues at 0, 3, 6, 9
        // and the II-5 store drains them from cycle L on, waiting only
        // for its first token.
        const L: u64 = 1 << 40;
        let mut b = NetworkBuilder::new();
        let c = b.channel("c", 4, ChannelKind::Fifo);
        b.task("slow_load", 3, L, vec![], vec![c]);
        b.task("store", 5, 7, vec![c], vec![]);
        let r = simulate_within_bound(b.build(4).unwrap()).unwrap();
        assert_eq!(r.makespan, L + 3 * 5 + 7);
        assert_eq!(r.task_stats[1].first_start, L);
        assert_eq!(r.task_stats[1].stall_cycles, L);
    }

    /// Deterministic generator of the oracle's random networks.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random DAG of 2–14 tasks with fan-in and fan-out, FIFO and PIPO
    /// channels of capacity 1–4, banked and unbanked channels on 1–4
    /// banks, and per-task token overrides that either agree within each
    /// connected component or disagree at random (deadlocking). A few
    /// IIs and latencies reach past the event queue's near ring.
    /// Declaration order is a random permutation of a topological order,
    /// so producers are often declared after their consumers.
    fn random_network(seed: u64) -> Network {
        let mut rng = SplitMix(seed);
        let nt = 2 + rng.below(13) as usize;
        let mut order: Vec<usize> = (0..nt).collect();
        for i in (1..nt).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let edge_pct = [15, 30, 50][rng.below(3) as usize];
        let banks = 1 + rng.below(4) as usize;
        let banked_pct = [0, 50, 100][rng.below(3) as usize];
        let mut b = NetworkBuilder::new();
        let mut inputs = vec![Vec::new(); nt];
        let mut outputs = vec![Vec::new(); nt];
        let mut component: Vec<usize> = (0..nt).collect();
        for j in 1..nt {
            for i in 0..j {
                if rng.below(100) >= edge_pct {
                    continue;
                }
                let (p, s) = (order[i], order[j]);
                let cap = 1 + rng.below(4) as usize;
                let kind = if rng.below(2) == 0 {
                    ChannelKind::Fifo
                } else {
                    ChannelKind::Pipo
                };
                let name = format!("c{p}_{s}");
                let c = if rng.below(100) < banked_pct {
                    b.banked_channel(name, cap, kind, rng.below(banks as u64) as usize)
                } else {
                    b.channel(name, cap, kind)
                };
                outputs[p].push(c);
                inputs[s].push(c);
                let (cp, cs) = (component[p], component[s]);
                for x in component.iter_mut().filter(|x| **x == cs) {
                    *x = cp;
                }
            }
        }
        for tid in 0..nt {
            b.task(
                format!("t{tid}"),
                if rng.below(16) == 0 {
                    NEAR_CYCLES - 8 + rng.below(16)
                } else {
                    1 + rng.below(6)
                },
                if rng.below(8) == 0 {
                    NEAR_CYCLES - 50 + rng.below(400)
                } else {
                    1 + rng.below(12)
                },
                std::mem::take(&mut inputs[tid]),
                std::mem::take(&mut outputs[tid]),
            );
        }
        let tokens = 1 + rng.below(24);
        match rng.below(3) {
            0 => {}
            1 => {
                let per_component: Vec<u64> = (0..nt).map(|_| rng.below(32)).collect();
                for tid in 0..nt {
                    b.task_tokens(tid, per_component[component[tid]]);
                }
            }
            _ => {
                for tid in 0..nt {
                    if rng.below(2) == 0 {
                        b.task_tokens(tid, rng.below(32));
                    }
                }
            }
        }
        b.build(tokens).unwrap()
    }

    /// Networks per proptest case of the oracle comparison.
    const ORACLE_NETWORKS_PER_CASE: u64 = 64;

    #[test]
    fn oracle_networks_cover_every_feature() {
        let (mut pipo, mut fan_in, mut fan_out, mut two_banks, mut mixed, mut deadlock) =
            (false, false, false, false, false, false);
        let (mut backward, mut far) = (false, false);
        for seed in 0..ORACLE_NETWORKS_PER_CASE {
            let net = random_network(seed);
            let chans = net.channels();
            pipo |= chans.iter().any(|c| c.kind == ChannelKind::Pipo);
            mixed |=
                chans.iter().any(|c| c.bank.is_some()) && chans.iter().any(|c| c.bank.is_none());
            for (tid, t) in net.tasks().iter().enumerate() {
                far |= t.ii >= NEAR_CYCLES || t.latency >= NEAR_CYCLES;
                fan_in |= t.inputs.len() > 1;
                fan_out |= t.outputs.len() > 1;
                let mut banks: Vec<usize> =
                    t.outputs.iter().filter_map(|&c| chans[c].bank).collect();
                banks.sort_unstable();
                banks.dedup();
                two_banks |= banks.len() > 1;
                backward |= t
                    .outputs
                    .iter()
                    .any(|&c| net.tasks()[..tid].iter().any(|s| s.inputs.contains(&c)));
            }
            deadlock |= matches!(simulate(&net), Err(DataflowError::Deadlock { .. }));
        }
        assert!(pipo && fan_in && fan_out && two_banks && mixed && deadlock && backward && far);
    }

    proptest! {
        /// The event-driven engine reproduces the exhaustive scan's whole
        /// report — makespan, every task, channel and bank statistic and
        /// the trace — or its exact `Deadlock` error.
        #[test]
        fn prop_engine_matches_the_exhaustive_scan(case in 0u64..1_000_000) {
            for k in 0..ORACLE_NETWORKS_PER_CASE {
                let net = random_network(case * ORACLE_NETWORKS_PER_CASE + k);
                prop_assert_eq!(
                    simulate_with_trace(&net, true),
                    reference::simulate_with_trace(&net, true)
                );
            }
        }

        /// Banking only ever delays: a banked run is never faster than
        /// the same network unbanked, and putting every producer on its
        /// own bank is exactly the unbanked schedule.
        #[test]
        fn prop_banked_never_faster(
            tokens in 1u64..120,
            shared in proptest::bool::ANY,
        ) {
            let banks = if shared { [Some(0), Some(0)] } else { [Some(0), Some(1)] };
            let banked = simulate(&two_pipes(banks, tokens)).unwrap();
            let flat = simulate(&two_pipes([None, None], tokens)).unwrap();
            prop_assert!(banked.makespan >= flat.makespan);
            if !shared {
                prop_assert_eq!(banked.makespan, flat.makespan);
            }
        }

        /// Makespan is bounded below by the bottleneck and above by fully
        /// sequential execution.
        #[test]
        fn prop_makespan_bounds(
            iis in proptest::collection::vec(1u64..20, 2..5),
            cap in 1usize..4,
            tokens in 1u64..200,
        ) {
            let lats: Vec<u64> = iis.iter().map(|&ii| ii + 5).collect();
            let net = chain(&iis, &lats, cap, ChannelKind::Fifo, tokens);
            let r = simulate(&net).unwrap();
            let bottleneck = *iis.iter().max().unwrap();
            let lower = bottleneck * (tokens - 1);
            let upper: u64 = tokens * lats.iter().sum::<u64>() + 100;
            prop_assert!(r.makespan >= lower, "{} < {lower}", r.makespan);
            prop_assert!(r.makespan <= upper, "{} > {upper}", r.makespan);
        }

        /// Larger channel capacity never slows the pipeline down.
        #[test]
        fn prop_capacity_monotone(
            iis in proptest::collection::vec(1u64..16, 2..5),
            tokens in 1u64..150,
        ) {
            let lats: Vec<u64> = iis.iter().map(|&ii| ii * 2 + 3).collect();
            let small = simulate(&chain(&iis, &lats, 1, ChannelKind::Pipo, tokens)).unwrap();
            let large = simulate(&chain(&iis, &lats, 4, ChannelKind::Pipo, tokens)).unwrap();
            prop_assert!(large.makespan <= small.makespan);
        }

        /// Every task processes every token exactly once.
        #[test]
        fn prop_all_tokens_processed(
            iis in proptest::collection::vec(1u64..10, 1..5),
            tokens in 1u64..100,
        ) {
            let lats: Vec<u64> = iis.iter().map(|&ii| ii + 2).collect();
            let net = chain(&iis, &lats, 2, ChannelKind::Fifo, tokens);
            let r = simulate(&net).unwrap();
            for t in &r.task_stats {
                prop_assert_eq!(t.invocations, tokens);
            }
        }
    }
}

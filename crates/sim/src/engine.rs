//! The discrete-event engine: one time-ordered queue, two fronts.
//!
//! [`EventQueue<E>`] is the whole scheduler — the heap, the clock, the
//! FIFO sequence number and the processed count — over an event type
//! `E` it never inspects. Events are keyed by [`SimTime`] with a
//! monotone sequence number as the deterministic tie-breaker
//! (simultaneous events fire in scheduling order, so runs are exactly
//! reproducible). Two fronts drive it:
//!
//! - **typed events**: the caller owns the loop, `while let Some(ev) =
//!   queue.pop() { match ev { .. } }` over its own closed `enum`. An
//!   event is a few plain words inside the heap entry, so scheduling
//!   one allocates nothing. Both trace simulators run this way (their
//!   event set is in the crate-private process driver).
//! - **closures**: [`Engine<W>`] is an `EventQueue` of boxed
//!   `FnOnce(&mut Engine<W>, &mut W)` over a user-supplied world state
//!   `W`, with [`Engine::run`] / [`Engine::run_until`] popping and
//!   calling. Open-ended — any closure is an event — at one heap
//!   allocation per capturing closure. The QCRD executor, whose runs
//!   take microseconds, uses this front.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::SimTime;

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A time-ordered queue of events `E` with its own simulated clock.
///
/// [`EventQueue::pop`] hands out the earliest event (FIFO among equal
/// times) and advances the clock to it; what the event *means* is the
/// caller's business.
pub struct EventQueue<E> {
    now: SimTime,
    seq: u64,
    processed: u64,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self { now: SimTime::ZERO, seq: 0, processed: 0, heap: BinaryHeap::new() }
    }

    /// Current simulated time: that of the last event popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — causality violations
    /// are modeling bugs, not recoverable conditions.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { time: at, seq, event }));
    }

    /// Schedules `event` `delay` seconds from now.
    ///
    /// # Panics
    /// Panics on a negative (or NaN) `delay`.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule_at(self.now + delay, event);
    }

    /// Removes the earliest event and advances the clock to its time;
    /// `None` once the queue has drained.
    pub fn pop(&mut self) -> Option<E> {
        let Reverse(next) = self.heap.pop()?;
        Some(self.advance(next))
    }

    /// [`EventQueue::pop`], unless the earliest event is strictly after
    /// `deadline`: then it stays queued and the clock does not move.
    fn pop_until(&mut self, deadline: SimTime) -> Option<E> {
        let next = self.heap.peek_mut()?;
        if next.0.time > deadline {
            return None;
        }
        let Reverse(next) = PeekMut::pop(next);
        Some(self.advance(next))
    }

    fn advance(&mut self, next: Scheduled<E>) -> E {
        debug_assert!(next.time >= self.now, "event queue emitted a past event");
        self.now = next.time;
        self.processed += 1;
        next.event
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

type Action<W> = Box<dyn FnOnce(&mut Engine<W>, &mut W)>;

/// An event-driven simulation engine over world state `W`: the closure
/// front of [`EventQueue`].
pub struct Engine<W> {
    queue: EventQueue<Action<W>>,
}

impl<W> Engine<W> {
    /// Creates an engine with an empty queue at time zero.
    pub fn new() -> Self {
        Self { queue: EventQueue::new() }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.pending()
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — causality violations
    /// are modeling bugs, not recoverable conditions.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Engine<W>, &mut W) + 'static,
    ) {
        self.queue.schedule_at(at, Box::new(action));
    }

    /// Schedules `action` to run `delay` seconds from now.
    pub fn schedule_in(
        &mut self,
        delay: f64,
        action: impl FnOnce(&mut Engine<W>, &mut W) + 'static,
    ) {
        self.queue.schedule_in(delay, Box::new(action));
    }

    /// Runs until the queue drains; returns the final simulated time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        while let Some(action) = self.queue.pop() {
            action(self, world);
        }
        self.now()
    }

    /// Runs until the queue drains or the clock passes `deadline`;
    /// events strictly after the deadline stay queued. Returns `true`
    /// if the queue drained.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> bool {
        while let Some(action) = self.queue.pop_until(deadline) {
            action(self, world);
        }
        self.pending() == 0
    }
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::new(3.0), |_, w| w.push(3));
        eng.schedule_at(SimTime::new(1.0), |_, w| w.push(1));
        eng.schedule_at(SimTime::new(2.0), |_, w| w.push(2));
        let mut world = Vec::new();
        let end = eng.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(end, SimTime::new(3.0));
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::new(5.0), move |_, w| w.push(i));
        }
        let mut world = Vec::new();
        eng.run(&mut world);
        assert_eq!(world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<f64>> = Engine::new();
        eng.schedule_in(1.0, |eng, w| {
            w.push(eng.now().seconds());
            eng.schedule_in(2.0, |eng, w| w.push(eng.now().seconds()));
        });
        let mut world = Vec::new();
        eng.run(&mut world);
        assert_eq!(world, vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule_in(5.0, |eng, _| {
            eng.schedule_at(SimTime::new(1.0), |_, _| {});
        });
        eng.run(&mut ());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::new(1.0), |_, w| w.push(1));
        eng.schedule_at(SimTime::new(10.0), |_, w| w.push(10));
        let mut world = Vec::new();
        let drained = eng.run_until(&mut world, SimTime::new(5.0));
        assert!(!drained);
        assert_eq!(world, vec![1]);
        assert_eq!(eng.pending(), 1);
        // Resume to the end.
        assert!(eng.run_until(&mut world, SimTime::new(100.0)));
        assert_eq!(world, vec![1, 10]);
    }

    #[test]
    fn empty_run_returns_zero() {
        let mut eng: Engine<()> = Engine::default();
        assert_eq!(eng.run(&mut ()), SimTime::ZERO);
    }

    #[test]
    fn deadline_inclusive() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::new(5.0), |_, w| w.push(5));
        let mut w = Vec::new();
        assert!(eng.run_until(&mut w, SimTime::new(5.0)));
        assert_eq!(w, vec![5]);
    }

    // The same seven, on the queue itself.

    #[test]
    fn queue_pops_in_time_order_and_advances_the_clock() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::new(3.0), 3);
        q.schedule_at(SimTime::new(1.0), 1);
        q.schedule_at(SimTime::new(2.0), 2);
        assert_eq!((q.pending(), q.processed()), (3, 0));
        for want in 1..=3u32 {
            assert_eq!(q.pop(), Some(want));
            assert_eq!(q.now(), SimTime::new(want as f64), "pop advances the clock");
            assert_eq!((q.pending(), q.processed()), (3 - want as usize, want as u64));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::new(3.0), "a drained queue keeps its clock");
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn queue_simultaneous_events_fifo() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(SimTime::new(5.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn queue_schedule_in_is_relative_to_the_last_pop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_in(1.0, "first");
        assert_eq!(q.pop(), Some("first"));
        q.schedule_in(2.0, "second");
        assert_eq!(q.pop(), Some("second"));
        assert_eq!(q.now(), SimTime::new(3.0));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn queue_scheduling_into_past_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_in(5.0, ());
        q.pop();
        q.schedule_at(SimTime::new(1.0), ());
    }

    #[test]
    #[should_panic(expected = "negative delay")]
    fn queue_negative_delay_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_in(-1.0, ());
    }

    #[test]
    fn queue_pop_until_leaves_later_events_and_the_clock() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::new(1.0), 1);
        q.schedule_at(SimTime::new(10.0), 10);
        assert_eq!(q.pop_until(SimTime::new(5.0)), Some(1));
        assert_eq!(q.pop_until(SimTime::new(5.0)), None);
        assert_eq!((q.pending(), q.processed()), (1, 1));
        assert_eq!(q.now(), SimTime::new(1.0), "a refused pop does not move the clock");
        assert_eq!(q.pop_until(SimTime::new(100.0)), Some(10));
        assert_eq!(q.pop_until(SimTime::new(100.0)), None);
    }

    #[test]
    fn empty_queue_pops_nothing_at_time_zero() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!((q.pending(), q.processed()), (0, 0));
    }

    #[test]
    fn queue_deadline_inclusive() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::new(5.0), 5);
        assert_eq!(q.pop_until(SimTime::new(5.0)), Some(5));
    }

    #[test]
    fn both_fronts_fire_one_schedule_in_the_same_order() {
        // Out-of-order times, ties, and a tie with an earlier-scheduled
        // later event in between.
        let schedule: [(f64, u32); 8] =
            [(2.0, 0), (1.0, 1), (2.0, 2), (0.0, 3), (1.0, 4), (3.0, 5), (2.0, 6), (0.0, 7)];

        let mut q: EventQueue<u32> = EventQueue::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for &(at, tag) in &schedule {
            q.schedule_at(SimTime::new(at), tag);
            eng.schedule_at(SimTime::new(at), move |_, w| w.push(tag));
        }
        let typed: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        let mut closures = Vec::new();
        let end = eng.run(&mut closures);

        assert_eq!(typed, vec![3, 7, 1, 4, 0, 2, 6, 5]);
        assert_eq!(closures, typed);
        assert_eq!((end, eng.processed()), (q.now(), q.processed()));
    }
}

//! The simulator core: virtual clock + event queue + seeded RNG.
//!
//! The application (the `summary-p2p` crate) defines its own event
//! payload type and drives the loop:
//!
//! ```
//! use p2psim::{Simulator, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulator::<Ev>::new(42);
//! sim.schedule_in(SimTime::from_secs(1), Ev::Ping(7));
//! while let Some((now, ev)) = sim.next_event() {
//!     match ev { Ev::Ping(n) => assert_eq!((now, n), (SimTime::from_secs(1), 7)) }
//! }
//! assert_eq!(sim.now(), SimTime::from_secs(1));
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::EventQueue;
use crate::time::SimTime;

/// A deterministic discrete-event simulator over payload type `E`.
#[derive(Debug)]
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    rng: StdRng,
    processed: u64,
    /// Optional hard stop: events after this time are dropped on pop.
    horizon: Option<SimTime>,
}

impl<E> Simulator<E> {
    /// Creates a simulator seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        Self {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            processed: 0,
            horizon: None,
        }
    }

    /// Sets a simulation horizon; events scheduled past it are discarded
    /// when reached.
    pub fn set_horizon(&mut self, end: SimTime) {
        self.horizon = Some(end);
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The seeded RNG (all stochastic decisions must draw from it).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a payload at an absolute time (clamped to now if in the
    /// past — zero-latency self messages are legal).
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        self.queue.push(at, payload);
    }

    /// Schedules a payload after a delay.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        self.queue.push(self.now + delay, payload);
    }

    /// Timestamp of the next pending event, if any (ignores the horizon).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next event only if it is due at or before `t` (and within
    /// the horizon), advancing the clock. Lets a caller interleave its own
    /// probes with event processing at a chosen virtual time.
    pub fn next_event_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        let due = self.peek_time()?;
        if due > t {
            return None;
        }
        self.next_event()
    }

    /// Advances the clock to `t` without processing events (no-op if `t`
    /// is in the past). Used after draining events ≤ `t` so probes read a
    /// consistent "now".
    pub fn fast_forward(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Pops the next event, advancing the clock. Returns `None` when the
    /// queue is empty or the horizon has been crossed.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (at, payload) = self.queue.pop()?;
        if let Some(h) = self.horizon {
            if at > h {
                // Horizon reached: the simulation is over; drop the rest.
                self.now = h;
                return None;
            }
        }
        debug_assert!(at >= self.now, "time must not run backwards");
        self.now = at;
        self.processed += 1;
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim = Simulator::<Ev>::new(1);
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(2));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(1));
        let mut times = Vec::new();
        while let Some((t, _)) = sim.next_event() {
            times.push(t);
        }
        assert_eq!(times, vec![SimTime::from_secs(2), SimTime::from_secs(5)]);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim = Simulator::<Ev>::new(1);
        sim.schedule_at(SimTime::from_secs(10), Ev::Tick(0));
        let (_, _) = sim.next_event().unwrap();
        sim.schedule_in(SimTime::from_secs(5), Ev::Tick(1));
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut sim = Simulator::<Ev>::new(1);
        sim.schedule_at(SimTime::from_secs(10), Ev::Tick(0));
        sim.next_event().unwrap();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1)); // in the past
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t, SimTime::from_secs(10), "clamped");
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut sim = Simulator::<Ev>::new(1);
        sim.set_horizon(SimTime::from_secs(100));
        sim.schedule_at(SimTime::from_secs(50), Ev::Tick(0));
        sim.schedule_at(SimTime::from_secs(150), Ev::Tick(1));
        let mut seen = 0;
        while sim.next_event().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 1);
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    fn run_loop_with_cascading_events() {
        let mut sim = Simulator::<Ev>::new(1);
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(0));
        let mut count = 0u32;
        while let Some((_, Ev::Tick(n))) = sim.next_event() {
            count += 1;
            if n < 9 {
                sim.schedule_in(SimTime::from_secs(1), Ev::Tick(n + 1));
            }
        }
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut sim = Simulator::<Ev>::new(seed);
            (0..10).map(|_| sim.rng().gen::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}

//! FCFS multi-server resources.
//!
//! Both the CPU pool and each simulated disk are modeled as
//! first-come-first-served servers: a request issued at time `t` for
//! `service` seconds starts on the earliest-free server no earlier than
//! `t` and occupies it exclusively. Work-conserving, non-preemptive —
//! the classic M/G/k service discipline without the stochastic arrival
//! assumption (arrivals come from the event engine).

use crate::time::SimTime;

/// A bank of identical FCFS servers.
#[derive(Debug, Clone)]
pub struct FcfsServer {
    /// `free_at[i]` is the earliest time server `i` can start new work.
    free_at: Vec<SimTime>,
    busy: f64,
    completed: u64,
}

impl FcfsServer {
    /// Creates a bank of `servers` idle servers.
    ///
    /// # Panics
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "resource needs at least one server");
        Self { free_at: vec![SimTime::ZERO; servers], busy: 0.0, completed: 0 }
    }

    /// Number of servers in the bank.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Issues a request at time `now` for `service` seconds; returns
    /// `(start, completion)`.
    ///
    /// The earliest-free server is chosen; ties go to the lowest index,
    /// keeping runs deterministic.
    pub fn acquire(&mut self, now: SimTime, service: f64) -> (SimTime, SimTime) {
        assert!(service >= 0.0, "negative service time {service}");
        let (idx, &earliest) = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
            .expect("at least one server");
        let start = earliest.max(now);
        let end = start + service;
        self.free_at[idx] = end;
        self.busy += service;
        self.completed += 1;
        (start, end)
    }

    /// Issues a batch of equal requests at `now`, spread across the
    /// bank; returns the completion time of the last one. This is how
    /// a divisible burst (striped I/O, data-parallel CPU work) lands on
    /// the resource.
    pub fn acquire_batch(&mut self, now: SimTime, service_each: f64, count: usize) -> SimTime {
        let mut last = now;
        for _ in 0..count {
            let (_, end) = self.acquire(now, service_each);
            last = last.max(end);
        }
        last
    }

    /// Total busy time accumulated across all servers.
    pub fn total_busy(&self) -> f64 {
        self.busy
    }

    /// Number of completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Utilization over the horizon `[0, end]`: busy time divided by
    /// `servers × end`. Zero horizon yields zero.
    pub fn utilization(&self, end: SimTime) -> f64 {
        let horizon = end.seconds() * self.servers() as f64;
        if horizon <= 0.0 {
            0.0
        } else {
            (self.busy / horizon).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_server_serializes() {
        let mut r = FcfsServer::new(1);
        let (s1, e1) = r.acquire(SimTime::ZERO, 2.0);
        let (s2, e2) = r.acquire(SimTime::ZERO, 3.0);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::new(2.0));
        assert_eq!(s2, SimTime::new(2.0), "second request queues");
        assert_eq!(e2, SimTime::new(5.0));
    }

    #[test]
    fn two_servers_parallelize() {
        let mut r = FcfsServer::new(2);
        let (_, e1) = r.acquire(SimTime::ZERO, 2.0);
        let (_, e2) = r.acquire(SimTime::ZERO, 2.0);
        assert_eq!(e1, SimTime::new(2.0));
        assert_eq!(e2, SimTime::new(2.0), "parallel service on distinct servers");
        let (s3, _) = r.acquire(SimTime::ZERO, 1.0);
        assert_eq!(s3, SimTime::new(2.0), "third request waits for a server");
    }

    #[test]
    fn later_arrival_starts_no_earlier_than_now() {
        let mut r = FcfsServer::new(1);
        let (s, e) = r.acquire(SimTime::new(10.0), 1.0);
        assert_eq!(s, SimTime::new(10.0));
        assert_eq!(e, SimTime::new(11.0));
    }

    #[test]
    fn batch_spreads_over_servers() {
        let mut r = FcfsServer::new(4);
        // 8 chunks of 1s on 4 servers: two rounds -> completes at t=2.
        let end = r.acquire_batch(SimTime::ZERO, 1.0, 8);
        assert_eq!(end, SimTime::new(2.0));
        assert_eq!(r.completed(), 8);
    }

    #[test]
    fn batch_of_zero_completes_immediately() {
        let mut r = FcfsServer::new(2);
        assert_eq!(r.acquire_batch(SimTime::new(3.0), 1.0, 0), SimTime::new(3.0));
    }

    #[test]
    fn utilization_bounds() {
        let mut r = FcfsServer::new(2);
        r.acquire(SimTime::ZERO, 4.0);
        assert_eq!(r.utilization(SimTime::new(4.0)), 0.5);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
        assert_eq!(r.total_busy(), 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = FcfsServer::new(0);
    }

    #[test]
    #[should_panic(expected = "negative service")]
    fn negative_service_panics() {
        FcfsServer::new(1).acquire(SimTime::ZERO, -1.0);
    }

    proptest! {
        #[test]
        fn completion_never_before_start(times in prop::collection::vec(0f64..100.0, 1..50),
                                         servers in 1usize..8) {
            let mut r = FcfsServer::new(servers);
            for &svc in &times {
                let (s, e) = r.acquire(SimTime::ZERO, svc);
                prop_assert!(e >= s);
            }
        }

        #[test]
        fn doubling_servers_never_slows_batch(svc in 0.01f64..10.0, count in 1usize..64,
                                              servers in 1usize..8) {
            let mut small = FcfsServer::new(servers);
            let mut large = FcfsServer::new(servers * 2);
            let end_small = small.acquire_batch(SimTime::ZERO, svc, count);
            let end_large = large.acquire_batch(SimTime::ZERO, svc, count);
            prop_assert!(end_large <= end_small);
        }

        #[test]
        fn busy_time_equals_sum_of_service(times in prop::collection::vec(0f64..100.0, 0..50)) {
            let mut r = FcfsServer::new(3);
            for &svc in &times {
                r.acquire(SimTime::ZERO, svc);
            }
            let sum: f64 = times.iter().sum();
            prop_assert!((r.total_busy() - sum).abs() < 1e-9);
        }
    }
}

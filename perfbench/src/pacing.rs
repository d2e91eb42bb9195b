//! Open-loop pacing: operations are due on a fixed schedule whether or
//! not the system keeps up.
//!
//! Latency is timed from an operation's *due* time, so a stall charges
//! every operation queued behind it with the time it spent waiting to be
//! sent; how late the generator itself ran is reported separately.

use std::time::{Duration, Instant};

/// A fixed-rate schedule, in nanoseconds from the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    interval_ns: u64,
}

/// One operation's timing against the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpTiming {
    /// Completion time minus due time.
    pub latency_ns: u64,
    /// How long after its due time the operation was actually sent.
    pub late_ns: u64,
}

impl Schedule {
    pub fn per_second(rate: f64) -> Schedule {
        assert!(rate > 0.0);
        Schedule {
            interval_ns: (1e9 / rate).round() as u64,
        }
    }

    /// When operation `i` (0-based) is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }

    /// Timing of operation `i`, sent at `sent_ns` and done at `done_ns`.
    /// An operation is never sent early, so `sent_ns >= due`.
    pub fn timing(&self, i: u64, sent_ns: u64, done_ns: u64) -> OpTiming {
        let due = self.due_ns(i);
        OpTiming {
            latency_ns: done_ns.saturating_sub(due),
            late_ns: sent_ns.saturating_sub(due),
        }
    }
}

/// Drives a [`Schedule`] against the wall clock.
pub struct Pacer {
    schedule: Schedule,
    start: Instant,
    next: u64,
}

impl Pacer {
    pub fn start(schedule: Schedule) -> Pacer {
        Pacer {
            schedule,
            start: Instant::now(),
            next: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Run the next operation: wait until it is due (never send early),
    /// run `op`, and time it against the schedule. The wait sleeps to just
    /// short of the due time and spins the rest, so that the operation is
    /// sent on time and a timer's wake-up slack (tens of microseconds,
    /// and the host's, not the system's) is not charged to it.
    pub fn run<R>(&mut self, op: impl FnOnce() -> R) -> (R, OpTiming) {
        const SPIN_NS: u64 = 300_000;
        let i = self.next;
        self.next += 1;
        let due = self.schedule.due_ns(i);
        let now = self.now_ns();
        if now + SPIN_NS < due {
            std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
        }
        while self.now_ns() < due {
            std::hint::spin_loop();
        }
        let sent = self.now_ns().max(due);
        let r = op();
        let done = self.now_ns();
        (r, self.schedule.timing(i, sent, done))
    }

    /// Whether the next operation falls due before `limit` from the start.
    pub fn next_due_before(&self, limit: Duration) -> bool {
        self.schedule.due_ns(self.next) < limit.as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let s = Schedule::per_second(500.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 6_000_000);
        // On time: sent when due, took 1 ms.
        assert_eq!(
            s.timing(3, 6_000_000, 7_000_000),
            OpTiming {
                latency_ns: 1_000_000,
                late_ns: 0
            }
        );
        // A 10 ms stall before op 3 is sent: the service time is still
        // 1 ms, but the operation's latency is 11 ms and the generator
        // ran 10 ms late.
        assert_eq!(
            s.timing(3, 16_000_000, 17_000_000),
            OpTiming {
                latency_ns: 11_000_000,
                late_ns: 10_000_000
            }
        );
    }

    #[test]
    fn pacer_never_sends_early_and_charges_stalls_to_later_ops() {
        let mut p = Pacer::start(Schedule::per_second(200.0)); // 5 ms apart
                                                               // Op 0 stalls for 12 ms: ops 1 and 2 fall due during the stall.
        let (_, t0) = p.run(|| std::thread::sleep(Duration::from_millis(12)));
        assert!(t0.late_ns < 2_000_000, "{t0:?}");
        assert!(t0.latency_ns >= 12_000_000);
        let (_, t1) = p.run(|| ());
        // Due at 5 ms, sent at >= 12 ms.
        assert!(t1.late_ns >= 6_000_000, "{t1:?}");
        assert!(t1.latency_ns >= t1.late_ns);
        // Far in the future: the pacer waits for the due time.
        let mut p = Pacer::start(Schedule::per_second(50.0)); // 20 ms apart
        p.run(|| ());
        let started = Instant::now();
        let (_, t) = p.run(|| ());
        assert!(started.elapsed() >= Duration::from_millis(15));
        assert!(t.late_ns < 5_000_000, "{t:?}");
        assert!(p.next_due_before(Duration::from_millis(41)));
        assert!(!p.next_due_before(Duration::from_millis(40)));
    }
}

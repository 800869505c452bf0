//! Host-speed reference: a fixed memory-bound probe, owned by the
//! benchmark and independent of the program, timed between the
//! operations of a run so that the run's timings can be scaled to one
//! nominal host speed.
//!
//! On the shared two-vCPU runner the benchmark was built on, the host
//! switched between speeds for minutes at a time with little steal time
//! reported: the probe read about 3.1 ms in one state and 5.0-5.7 ms in
//! the other, while a truth round took 0.29-0.36 s against 0.53-0.84 s,
//! so medians within a run could not remove it. Within long runs a
//! compute-bound probe barely moved while the program did, and a
//! memory-bound probe moved with it (a dependent pointer chase over
//! 32 MiB tracked no better than this probe). Across runs, the spread
//! between quartiles of the per-run medians, as a share of the median,
//! was (ranges are over the timing metrics):
//!
//! | runs                                         | search raw | scaled    | truth raw | scaled    |
//! |----------------------------------------------|------------|-----------|-----------|-----------|
//! | 8 × 15 s, noisy quarter-hour (a)             | 0.33       | 0.06      | 0.21      | 0.20      |
//! | 8 × 15 s, calmer quarter-hour (a)            | 0.12       | 0.08      | 0.11      | 0.10      |
//! | 8 × 15 s, another noisy one (a)              | 0.17       | 0.19      | 0.21      | 0.20      |
//! | 10 × 45 s (b)                                | 0.16       | 0.10-0.15 | 0.12      | 0.10-0.15 |
//! | 10 × 45 s, host sped up after 4 runs (b)     | 0.94       | 0.13-0.21 | 0.65      | 0.07-0.08 |
//! | 10 × 45 s, host slowed for the last 2 runs   | 0.25       | 0.02-0.08 | 0.39      | 0.08-0.18 |
//!
//! (a) a variant of this probe, with the index reduced by a division,
//! timed next to other candidate probes; (b) before [`MIN_GAP`] was
//! enforced. The program moves more than the probe: across a change of
//! host state its time changed by 1.1-1.5 times as much as the probe's,
//! on a logarithmic scale, so the scaling removes most of such a step,
//! not all of it. A 4 MiB probe tracked better in some runs, but its
//! time depended on how much of its buffer the program's last operation
//! had left in the shared cache; a 32 MiB buffer probed at least
//! [`MIN_GAP`] apart has gone cold whatever ran before.

use std::time::{Duration, Instant};

/// Probe time the timings are scaled to, in seconds: within the
/// probe's range on the runner the benchmark was built on (3.0-5.7 ms).
pub const NOMINAL_PROBE_S: f64 = 0.005;

/// Words in the probe's buffer (32 MiB).
const WORDS: usize = 1 << 22;

/// Accesses in one probe.
const ACCESSES: usize = 300_000;

/// Shortest time from the end of one timed probe to the start of the
/// next. Sooner, the buffer still sits partly in the shared cache and
/// the probe times its own last pass, not the host: probes taken between
/// set-ups milliseconds apart read 1.2 ms, probes 250 ms or more apart
/// about 5 ms, and an idle 200 ms was enough for the buffer to go cold.
/// The gap also keeps the reading from depending on how long the
/// program's operations take.
pub const MIN_GAP: Duration = Duration::from_millis(250);

/// The probe and the times it took in a run.
#[derive(Debug)]
pub struct HostProbe {
    buf: Vec<u64>,
    samples: Vec<f64>,
    last: Instant,
}

impl HostProbe {
    /// A probe with its buffer allocated and touched, and one untimed
    /// pass made.
    #[must_use]
    pub fn new() -> Self {
        let mut probe =
            Self { buf: (0..WORDS as u64).collect(), samples: Vec::new(), last: Instant::now() };
        std::hint::black_box(probe.pass());
        probe.last = Instant::now();
        probe
    }

    fn pass(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[(x as usize) % WORDS];
            acc = acc.wrapping_add(*slot ^ i as u64);
            *slot = acc;
        }
        acc
    }

    /// Times one probe and keeps the sample, unless the last probe
    /// ended less than [`MIN_GAP`] ago. The first sample of a run waits
    /// the gap out instead, so that every run has one.
    pub fn sample(&mut self) {
        if let Some(wait) = MIN_GAP.checked_sub(self.last.elapsed()) {
            if !self.samples.is_empty() {
                return;
            }
            std::thread::sleep(wait);
        }
        let t = Instant::now();
        std::hint::black_box(self.pass());
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Probes timed so far.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median probe time, in seconds.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Factor that scales a time measured in this run to the nominal
    /// host: [`NOMINAL_PROBE_S`] ÷ the median probe time. Multiply
    /// times by it and divide rates by it.
    ///
    /// # Panics
    ///
    /// Panics before the first sample.
    #[must_use]
    pub fn scale(&self) -> f64 {
        assert!(!self.samples.is_empty(), "the probe has not been timed");
        NOMINAL_PROBE_S / self.median_s()
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_nominal_time_over_the_median_sample() {
        let mut p =
            HostProbe { buf: vec![0; 8], samples: vec![0.01, 0.002, 0.005], last: Instant::now() };
        assert_eq!(p.median_s(), 0.005);
        assert!((p.scale() - 1.0).abs() < 1e-12);
        p.samples = vec![0.01];
        assert!((p.scale() - 0.5).abs() < 1e-12);
    }
}

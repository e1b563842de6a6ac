//! Host speed: a fixed piece of work, owned by the benchmark, timed
//! beside the measurement so that times and rates read as they would on
//! a host of nominal speed.
//!
//! The benchmark runs on shared virtual machines. On the two-vCPU
//! machine it was built on, the replayed dispatch loop ran at about 600k
//! calls/s for a while and at 240k to 550k calls/s for hours, and set-up
//! took up to 50% longer along with it. Ten runs of the same code spread
//! by up to 0.42 of their median. A calibration chunk that does the
//! arithmetic of SVM prediction (an RBF kernel sum of a copied, scaled
//! query row against 2,048 fixed support vectors) slows with the host:
//! in four minute-long runs whose raw rates moved by 26%, the dispatch
//! loop's rate over the chunk's rate stayed within 2.6%. Integer and
//! memory-bound loops did not follow the host that way, and a chunk
//! with a smaller working set followed it less closely.
//!
//! [`Interleaved`] times a chunk on the measuring thread itself after
//! every [`WINDOW`] of a single-threaded phase; [`nominal_seconds`] runs
//! a multi-threaded phase while a sampler thread times one chunk every
//! [`SAMPLE_EVERY`]. Either way each stretch of wall time counts at the
//! host speed measured in it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Support vectors, and their dimension.
const SUPPORT_VECTORS: usize = 2048;
const DIM: usize = 8;
/// Query rows one chunk evaluates against every support vector.
const ROWS_PER_CHUNK: usize = 2;
/// Distinct query rows the chunks cycle through.
const ROWS: usize = 64;
/// What one chunk takes on the nominal host, ns: chosen so that the
/// replayed dispatch loop reads about the 600k calls/s it ran at in the
/// fast state of the two-vCPU machine the benchmark was built on.
const NOMINAL_CHUNK_NS: f64 = 33_000.0;
/// Wall time of a single-threaded phase between two interleaved chunks.
pub const WINDOW: Duration = Duration::from_millis(2);
/// How often the sampler thread of [`nominal_seconds`] times a chunk.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// The calibration work and its fixed data.
pub struct Gauge {
    support: Vec<f64>,
    alphas: Vec<f64>,
    scale: Vec<f64>,
    rows: Vec<Vec<f64>>,
    next_row: usize,
}

impl Default for Gauge {
    fn default() -> Self {
        // A fixed linear congruential sequence, so every build and every
        // run does the same arithmetic.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        Self {
            support: (0..SUPPORT_VECTORS * DIM).map(|_| uniform()).collect(),
            alphas: (0..SUPPORT_VECTORS).map(|_| uniform() - 0.5).collect(),
            scale: (0..DIM).map(|_| uniform() + 0.5).collect(),
            rows: (0..ROWS)
                .map(|_| (0..DIM).map(|_| uniform()).collect())
                .collect(),
            next_row: 0,
        }
    }
}

impl Gauge {
    /// Run one chunk; return the host's speed relative to the nominal
    /// host (2.0 runs twice as fast).
    pub fn speed(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.chunk());
        NOMINAL_CHUNK_NS / t.elapsed().as_nanos().max(1) as f64
    }

    #[inline(never)]
    fn chunk(&mut self) -> f64 {
        let mut sum = 0.0;
        for _ in 0..ROWS_PER_CHUNK {
            let row = black_box(self.rows[self.next_row].clone());
            self.next_row = (self.next_row + 1) % ROWS;
            let x: Vec<f64> = row.iter().zip(&self.scale).map(|(v, s)| v * s).collect();
            for (sv, alpha) in self.support.chunks_exact(DIM).zip(&self.alphas) {
                let d2: f64 = sv.iter().zip(&x).map(|(s, v)| (s - v) * (s - v)).sum();
                sum += alpha * (-2.0 * d2).exp();
            }
        }
        sum
    }
}

/// Wall time and nominal time of a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTime {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds the phase would take on the nominal host.
    pub nominal_s: f64,
}

impl PhaseTime {
    /// Mean host speed during the phase.
    pub fn speed(&self) -> f64 {
        self.nominal_s / self.wall_s
    }
}

/// Nominal time of a single-threaded loop. Call [`Interleaved::tick`]
/// between operations: once the current window has lasted [`WINDOW`],
/// it times a chunk and counts the window at the speed measured. The
/// chunks' own time is left out of both wall and nominal time.
pub struct Interleaved {
    gauge: Gauge,
    window_start: Instant,
    time: PhaseTime,
}

impl Interleaved {
    /// Start the first window now.
    pub fn start() -> Self {
        Self {
            gauge: Gauge::default(),
            window_start: Instant::now(),
            time: PhaseTime::default(),
        }
    }

    /// Close the window if it has lasted [`WINDOW`].
    pub fn tick(&mut self) {
        if self.window_start.elapsed() >= WINDOW {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let wall_s = self.window_start.elapsed().as_secs_f64();
        self.time.wall_s += wall_s;
        self.time.nominal_s += wall_s * self.gauge.speed();
        self.window_start = Instant::now();
    }

    /// Close the last window and return the loop's time.
    pub fn finish(mut self) -> PhaseTime {
        self.close_window();
        self.time
    }
}

/// Run `phase` on this thread while a sampler thread times one chunk
/// every [`SAMPLE_EVERY`]; the phase's nominal time is its wall time
/// times the mean speed sampled. The sampler takes under 1% of one core.
pub fn nominal_seconds<T>(phase: impl FnOnce() -> T) -> (T, PhaseTime) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut gauge = Gauge::default();
            let mut speeds = Vec::new();
            // `done` publishes no other data: the join below hands the
            // samples over.
            loop {
                speeds.push(gauge.speed());
                if done.load(Ordering::Relaxed) {
                    return speeds;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        let t = Instant::now();
        let result = phase();
        let wall_s = t.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        let speeds = sampler.join().expect("the sampler thread does not panic");
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        (
            result,
            PhaseTime {
                wall_s,
                nominal_s: wall_s * mean,
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chunk_does_the_same_arithmetic_every_time() {
        let (mut a, mut b) = (Gauge::default(), Gauge::default());
        for _ in 0..ROWS + 1 {
            assert_eq!(a.chunk().to_bits(), b.chunk().to_bits());
        }
        assert!(a.speed() > 0.0);
    }

    #[test]
    fn interleaved_time_leaves_the_chunks_out() {
        let mut loop_time = Interleaved::start();
        let t = Instant::now();
        while t.elapsed() < 5 * WINDOW {
            loop_time.tick();
        }
        let time = loop_time.finish();
        assert!(time.wall_s > 0.0 && time.wall_s <= t.elapsed().as_secs_f64());
        assert!(time.speed() > 0.0);
    }

    #[test]
    fn nominal_seconds_returns_the_phase_result() {
        let (value, time) = nominal_seconds(|| {
            std::thread::sleep(2 * SAMPLE_EVERY);
            7
        });
        assert_eq!(value, 7);
        assert!(time.wall_s >= (2 * SAMPLE_EVERY).as_secs_f64());
        assert!(time.nominal_s > 0.0);
    }
}

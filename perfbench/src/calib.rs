//! Host-speed calibration. The shared hosts this benchmark runs on change
//! speed by tens of percent, on CPU time as well as on wall time, and each
//! core on its own: over seconds one core can run a fixed loop 1.6 times
//! slower than the other, and the whole host drifts over minutes. Two runs
//! of the same code then disagree by more than any useful bound. The
//! harness therefore runs a fixed kernel of its own on every core after
//! every op, and reports each timing in reference milliseconds: the
//! measured time scaled by how much slower or faster the kernel ran around
//! that op than its reference time, on the cores the ops kept busy, with
//! the share of time the hypervisor stole from those cores taken out. The
//! kernel is harness code, so a change to `snailqc` never moves it; only
//! the host does.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::sys::{self, Ticks};
use crate::util::{percentile, Rng};

/// Kernel samples on each side of an op that set its scale. Wide, so a
/// burst on one core does not move one op, narrow enough to follow a drift
/// of the host within a run.
pub const WINDOW: usize = 50;

/// Which work the kernel stands in for. Host slowdowns do not hit all code
/// alike: with the other tenants busy, a streaming read from the
/// second-level cache slows far more than a graph search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CLI transpiles (process start, parsing, routing, translation):
    /// graph searches, validation of a short text, text decoding.
    Transpile,
    /// Daemon requests whose time is the decoding of large frames:
    /// validating a frame-sized buffer from each of many points to its
    /// end, as the daemon's decoder does from each character. Timed next
    /// to that decoder on one core for six minutes in which the decoder's
    /// time moved 1.8 times, this kernel followed it within 13%, the
    /// transpile mix only within 28%.
    Decode,
}

impl Profile {
    /// The kernel's nominal duration: a run whose kernel samples take this
    /// long reports its timings unscaled. About the kernel's median on the
    /// 2-vCPU VM the benchmark was tuned on.
    fn reference_ms(self) -> f64 {
        match self {
            Profile::Transpile => 0.65,
            Profile::Decode => 1.0,
        }
    }

    /// Whether the ops' wall times lose the stolen share. In runs with
    /// 5–8% steal, CLI transpiles, whose trial fan-out keeps every core
    /// busy, read 10–17% slow when scaled by speed alone and matched runs
    /// without steal once it was taken out. Daemon requests with 10–17%
    /// steal matched them when scaled by speed alone and read 12% fast
    /// with it taken out.
    fn takes_out_steal(self) -> bool {
        self == Profile::Transpile
    }
}

/// Fixed stand-ins for the work `snailqc` does: breadth-first search over
/// a sparse graph (routing's distance rows), UTF-8 validation, copying and
/// hashing of text (QASM and JSON decoding) and small allocations (circuit
/// building).
struct Kernel {
    adjacency: Vec<[u32; 4]>,
    text: Vec<u8>,
    /// The size of a QV-16 request frame, larger than a first-level cache.
    frame: Vec<u8>,
}

const NODES: usize = 4096;
const BFS_SOURCES: usize = 4;
const TEXT_BYTES: usize = 32 * 1024;
const FRAME_BYTES: usize = 96 * 1024;
/// Bytes between the starts of successive validations in `validate`.
const VALIDATE_STEP: usize = 256;

impl Kernel {
    fn new() -> Self {
        // Fixed seed: the kernel's work never depends on `--seed`.
        let mut rng = Rng::new(0x6361_6c69_6272_6174);
        let adjacency = (0..NODES)
            .map(|i| {
                let ring = [(i + 1) % NODES, (i + NODES - 1) % NODES];
                let far = [
                    rng.next_u64() as usize % NODES,
                    rng.next_u64() as usize % NODES,
                ];
                [ring[0] as u32, ring[1] as u32, far[0] as u32, far[1] as u32]
            })
            .collect();
        let alphabet = b"qreg q[16];\ncx q[0],q[1];\"\\ u3(0.5)";
        let mut text = |bytes: usize| -> Vec<u8> {
            (0..bytes)
                .map(|_| alphabet[rng.next_u64() as usize % alphabet.len()])
                .collect()
        };
        Self {
            text: text(TEXT_BYTES),
            frame: text(FRAME_BYTES),
            adjacency,
        }
    }

    /// One unit of work; returns a checksum so it cannot be optimised away.
    fn run(&self, profile: Profile) -> u64 {
        black_box(match profile {
            Profile::Transpile => self.search() + validate(&self.text) + self.decode(),
            Profile::Decode => validate(&self.frame),
        })
    }

    /// Breadth-first search from evenly spread sources.
    fn search(&self) -> u64 {
        let mut sum = 0u64;
        let mut dist = vec![u16::MAX; NODES];
        let mut queue = Vec::with_capacity(NODES);
        for source in 0..BFS_SOURCES {
            dist.fill(u16::MAX);
            queue.clear();
            let start = source * NODES / BFS_SOURCES;
            dist[start] = 0;
            queue.push(start as u32);
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head] as usize;
                head += 1;
                for &w in &self.adjacency[v] {
                    if dist[w as usize] == u16::MAX {
                        dist[w as usize] = dist[v] + 1;
                        queue.push(w);
                    }
                }
            }
            sum += dist.iter().map(|&d| u64::from(d)).sum::<u64>();
        }
        sum
    }

    /// Unescape-and-copy, like a JSON string decoder, then hash and split
    /// into small records.
    fn decode(&self) -> u64 {
        let mut copied = Vec::with_capacity(self.text.len());
        let mut escaped = false;
        for &b in black_box(&self.text) {
            if escaped {
                copied.push(b);
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b != b'"' {
                copied.push(b);
            }
        }
        let hash = copied.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let records: Vec<Vec<u32>> = copied
            .chunks(24)
            .map(|c| c.iter().map(|&b| u32::from(b)).collect())
            .collect();
        hash.wrapping_add(records.iter().map(|r| r.len() as u64).sum::<u64>())
    }
}

/// UTF-8 validation of `text` from every `VALIDATE_STEP`-th byte to its
/// end: the streaming reads of a decoder that revalidates the rest of its
/// input at each character.
fn validate(text: &[u8]) -> u64 {
    (0..text.len())
        .step_by(VALIDATE_STEP)
        .map(|from| std::str::from_utf8(black_box(&text[from..])).map_or(0, str::len) as u64)
        .sum()
}

/// The fixed-size `cpu_set_t` of glibc and musl.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut [i64; 2]) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPU time of the calling thread.
fn thread_cpu_ms() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a live, writable 64-bit Linux `struct timespec`.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts[0] as f64 * 1e3 + ts[1] as f64 / 1e6
}

/// The cores this process may run on (one entry, `None`, if unknown).
fn cores() -> Vec<Option<usize>> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t` of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return vec![None];
    }
    let cores: Vec<Option<usize>> = (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .map(Some)
        .collect();
    if cores.is_empty() {
        vec![None]
    } else {
        cores
    }
}

/// Pins the calling thread to `core`; failing that, it runs unpinned.
fn pin(core: usize) {
    let mut mask: CpuSet = [0; 16];
    mask[core / 64] |= 1 << (core % 64);
    // SAFETY: `mask` is a live `cpu_set_t` of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

/// One kernel run on one core: its CPU time in ms, and the core's
/// cumulative ticks right before and right after the sample it is part of.
#[derive(Debug, Clone, Copy, Default)]
pub struct Run {
    pub cpu_ms: f64,
    pub before: Ticks,
    pub after: Ticks,
}

/// One kernel run on every core at once, in core order.
pub type Sample = Vec<Run>;

/// A thread pinned to one core that runs the kernel on request.
struct Worker {
    core: Option<usize>,
    go: Sender<()>,
    done: Receiver<Run>,
    thread: JoinHandle<()>,
}

/// Kernel samples taken along a run, one per op.
pub struct Calibration {
    workers: Vec<Worker>,
    profile: Profile,
    pub samples: Vec<Sample>,
}

impl Calibration {
    pub fn new(profile: Profile) -> Self {
        let workers = cores()
            .into_iter()
            .map(|core| {
                let (go, wake) = channel::<()>();
                let (report, done) = channel();
                let thread = std::thread::spawn(move || {
                    if let Some(core) = core {
                        pin(core);
                    }
                    let kernel = Kernel::new();
                    // Fault in the kernel's pages and warm its caches.
                    for _ in 0..3 {
                        kernel.run(profile);
                    }
                    while wake.recv().is_ok() {
                        let cpu = thread_cpu_ms();
                        kernel.run(profile);
                        let run = Run {
                            cpu_ms: thread_cpu_ms() - cpu,
                            ..Run::default()
                        };
                        if report.send(run).is_err() {
                            break;
                        }
                    }
                });
                Worker {
                    core,
                    go,
                    done,
                    thread,
                }
            })
            .collect();
        Self {
            workers,
            profile,
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once on every core at once and records the runs.
    pub fn sample(&mut self) -> Result<(), String> {
        let cores: Vec<Option<usize>> = self.workers.iter().map(|w| w.core).collect();
        let before = sys::cpu_ticks(&cores)?;
        for worker in &self.workers {
            worker.go.send(()).expect("kernel thread is running");
        }
        let mut runs: Sample = self
            .workers
            .iter()
            .map(|w| w.done.recv().expect("kernel thread is running"))
            .collect();
        let after = sys::cpu_ticks(&cores)?;
        for ((run, before), after) in runs.iter_mut().zip(before).zip(after) {
            run.before = before;
            run.after = after;
        }
        self.samples.push(runs);
        Ok(())
    }

    /// Takes `n` samples and returns their scale.
    pub fn measure(&mut self, n: usize) -> Result<Scale, String> {
        let from = self.samples.len();
        for _ in 0..n {
            self.sample()?;
        }
        Ok(Scale::of(&self.samples[from..], self.profile))
    }

    /// The scale of the op that sample `i` followed: that of the samples up
    /// to `WINDOW` on either side of it.
    pub fn scale_at(&self, i: usize) -> Scale {
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW + 1).min(self.samples.len());
        Scale::of(&self.samples[lo..hi], self.profile)
    }

    /// The median kernel run's CPU time over every core and sample.
    pub fn median_cpu_ms(&self) -> f64 {
        let cpu: Vec<f64> = self.samples.iter().flatten().map(|r| r.cpu_ms).collect();
        percentile(&cpu, 0.5)
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        for worker in self.workers.drain(..) {
            // Closing the channel ends the worker's loop.
            drop(worker.go);
            let _ = worker.thread.join();
        }
    }
}

/// Factors that turn a measured time into reference milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The host's speed, for CPU times: reference over the kernel's median
    /// CPU time. CPU time is not charged for stolen time, so the kernel's
    /// own runs cannot double-count a steal.
    pub speed: f64,
    /// The share of the time the cores wanted to run between the samples,
    /// while the ops ran, that the hypervisor took (`Ticks::steal_share`);
    /// 0 where the profile keeps stolen time in. Ticks counted while the
    /// kernel runs on every core at once are left out: the hypervisor
    /// steals most when every core is busy.
    pub steal: f64,
}

impl Scale {
    /// Each core's median and stolen share over `samples`, averaged with
    /// each core weighted by how long it wanted to run between them, so the
    /// cores the ops kept busy set the scale: both for a router fanning out
    /// over every core, the one the daemon's decoder ran on for a stream of
    /// large frames. One tick of weight per core keeps a span too short to
    /// count ticks in at an even average.
    fn of(samples: &[Sample], profile: Profile) -> Self {
        let cores = samples.first().map_or(0, Vec::len);
        let (mut speed, mut steal, mut weight) = (0.0, 0.0, 0.0);
        for c in 0..cores {
            let cpu: Vec<f64> = samples.iter().map(|s| s[c].cpu_ms).collect();
            let (mut wanted, mut stolen) = (0, 0);
            for pair in samples.windows(2) {
                let (from, to) = (pair[0][c].after, pair[1][c].before);
                wanted += from.wanted(to);
                stolen += to.steal.saturating_sub(from.steal);
            }
            let w = wanted as f64 + 1.0;
            speed += w * profile.reference_ms() / percentile(&cpu, 0.5);
            if wanted > 0 && profile.takes_out_steal() {
                steal += w * stolen as f64 / wanted as f64;
            }
            weight += w;
        }
        Self {
            speed: speed / weight,
            steal: steal / weight,
        }
    }

    /// For wall times: the host's speed with the stolen share taken out. A
    /// kernel run is too short to sample steal, while an op many times
    /// longer absorbs its share of every steal.
    pub fn wall(&self) -> f64 {
        self.speed * (1.0 - self.steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-core samples of the given CPU times, with no ticks.
    fn samples(cpu: &[f64]) -> Vec<Sample> {
        cpu.iter()
            .map(|&cpu_ms| {
                vec![Run {
                    cpu_ms,
                    ..Run::default()
                }]
            })
            .collect()
    }

    #[test]
    fn scale_is_reference_over_the_median_sample() {
        let scale = Scale::of(&samples(&[0.5, 1.3, 0.65, 9.0, 0.7]), Profile::Transpile);
        assert_eq!(scale.speed, Profile::Transpile.reference_ms() / 0.7);
        assert_eq!(scale.steal, 0.0);
        assert_eq!(scale.wall(), scale.speed);
    }

    #[test]
    fn an_op_is_scaled_by_the_samples_around_it() {
        let mut calibration = Calibration::new(Profile::Transpile);
        let reference = Profile::Transpile.reference_ms();
        calibration.samples = samples(&[1.0; 200]);
        calibration.samples[150..]
            .iter_mut()
            .for_each(|s| s[0].cpu_ms = 2.0);
        // Window of sample 40: samples 0..=90, all 1.0.
        assert_eq!(calibration.scale_at(40).speed, reference);
        // Window of sample 190: samples 140..200, mostly 2.0.
        assert_eq!(calibration.scale_at(190).speed, reference / 2.0);
    }

    #[test]
    fn the_busy_core_and_its_stolen_share_between_samples_set_the_scale() {
        let ticks = |busy, steal| Ticks { busy, steal };
        let run = |cpu_ms, before, after| Run {
            cpu_ms,
            before,
            after,
        };
        // Core 0 runs the kernel in 2 ms; between the samples it wants to
        // run for 1000 ticks, 100 of them stolen. During the kernel runs
        // it loses 50 more ticks, which do not count. Core 1 runs the
        // kernel in 1 ms and stays idle.
        let window = vec![
            vec![
                run(2.0, ticks(0, 0), ticks(10, 50)),
                run(1.0, ticks(0, 0), ticks(0, 0)),
            ],
            vec![
                run(2.0, ticks(910, 150), ticks(920, 150)),
                run(1.0, ticks(0, 0), ticks(0, 0)),
            ],
        ];
        let reference = Profile::Transpile.reference_ms();
        let scale = Scale::of(&window, Profile::Transpile);
        let speed = reference * (1001.0 / 2.0 + 1.0) / 1002.0;
        assert!((scale.speed - speed).abs() < 1e-12);
        assert!((scale.steal - 1001.0 * 0.1 / 1002.0).abs() < 1e-12);
        assert!((scale.wall() - scale.speed * (1.0 - scale.steal)).abs() < 1e-12);
        // The decode profile keeps stolen time in.
        let scale = Scale::of(&window, Profile::Decode);
        assert_eq!(scale.steal, 0.0);
        assert_eq!(scale.wall(), scale.speed);
    }

    #[test]
    fn a_sample_is_taken_on_every_core() {
        for profile in [Profile::Transpile, Profile::Decode] {
            let mut calibration = Calibration::new(profile);
            let cores = calibration.workers.len();
            assert!(cores > 0);
            calibration.measure(3).expect("a sample");
            assert_eq!(calibration.samples.len(), 3);
            assert!(calibration
                .samples
                .iter()
                .all(|s| s.len() == cores && s.iter().all(|r| r.cpu_ms > 0.0)));
        }
    }
}

//! The parts every workload shares: the operation loop with failure accounting, set-up
//! timing, and the metrics each run prints.
//!
//! The benchmark runs on shared machines whose speed drifts: other tenants' load slows every
//! core by up to 1.7× for seconds to minutes at a time, in no pattern a run can avoid. So every
//! timing is scaled to a reference machine speed. The operation loop is cut into windows of
//! whole cycles of inputs, and right after each window the benchmark times a fixed piece of its
//! own work, [`calibrate`]; the window's duration and its operations' latencies are scaled by
//! the reference time of that work over its time then. Each set-up sample is scaled the same
//! way. The calibration runs none of the program's code, so a change to the program moves the
//! scaled timings as much as the raw ones, while a change of machine speed moves both the
//! window and its calibration and cancels out. The `#` lines give the unscaled figures too.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use serde_json::{json, Value};

use crate::trace::{Tracer, OP};
use crate::Ctx;

/// Set-up samples per run, one before the operation loop and the rest in pauses spread evenly
/// over it.
pub const SETUP_SAMPLES: usize = 16;
/// Set-ups in one sample. A fixed count rather than a fixed time: the heap a run leaves behind,
/// and so its peak resident set, depends on how many set-ups it ran.
const SETUP_REPEATS: u32 = 50;
/// Minimum duration of a timing window, in seconds.
const WINDOW_S: f64 = 0.2;
/// What [`calibrate`] takes at the reference machine speed, in seconds (about what it takes on
/// an idle core of the 2-core x86-64 VM the benchmark was tuned on).
const CALIBRATION_REF_S: f64 = 1e-3;

/// What one workload run measured.
#[derive(Debug)]
pub struct Report {
    /// Each set-up sample (see [`Setup::samples`]).
    pub setup_s: Vec<(f64, f64)>,
    /// What the operation loop measured (for serve-mixed, every client's loops together).
    pub run: Loop,
    /// Spans, counts and operation latencies.
    pub tracer: Tracer,
    /// Per-layer values measured outside spans (daemon stats, ratios over outcomes).
    pub extra: BTreeMap<&'static str, f64>,
    /// The highest percentile `latency_tail_ms` may report (see [`tail`]).
    pub tail_cap: f64,
}

/// Failure accounting: every error, caught panic, dropped connection or wrong answer counts
/// against the operations attempted; none aborts the run.
#[derive(Debug, Default)]
pub struct Failures {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Failures {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message, 1);
        }
    }

    /// Counts `ops` already-attempted operations as failed.
    pub fn fail(&mut self, message: String, ops: u64) {
        self.failed += ops;
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }

    /// Folds another thread's accounting into this one.
    pub fn absorb(&mut self, other: Failures) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(message);
            }
        }
    }
}

/// Runs `f`, turning a panic into an error message (and closing the spans it left open).
fn guarded<T>(
    tracer: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(|| f(tracer))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            tracer.unwind();
            Err(format!("panic: {}", panic_message(payload.as_ref())))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string payload".to_string()
    }
}

/// Keeps the default panic report for the first panic only; later ones are counted as
/// failures without flooding the output.
pub fn quiet_repeated_panics() {
    let default = std::panic::take_hook();
    let reported = AtomicBool::new(false);
    std::panic::set_hook(Box::new(move |info| {
        if !reported.swap(true, Ordering::SeqCst) {
            default(info);
        }
    }));
}

/// Whether operation `i` of a loop over `cycle` inputs runs traced: in a per-layer run, every
/// second full cycle, so traced and untraced operations cover the same inputs.
fn traced_cycle(ctx: &Ctx, i: usize, cycle: usize) -> bool {
    ctx.trace && (i / cycle) % 2 == 1
}

/// What an operation loop measured.
#[derive(Debug, Default)]
pub struct Loop {
    /// Operations attempted and failed.
    pub failures: Failures,
    /// Throughput over the windows at the reference speed (unscaled, over the whole loop, when
    /// no window completed).
    pub ops_per_s: f64,
    /// Latencies of the untraced operations in the windows, scaled to the reference speed (of
    /// every untraced operation, unscaled, when no window completed), in nanoseconds.
    pub latencies_ns: Vec<u32>,
    /// Throughput over the same windows, unscaled.
    pub unscaled_ops_per_s: f64,
    /// Machine speed of each window: reference over measured calibration time.
    pub speeds: Vec<f64>,
}

impl Loop {
    /// Folds another client's loop into this one: throughputs add up, latencies pool.
    pub fn absorb(&mut self, other: Loop) {
        self.failures.absorb(other.failures);
        self.ops_per_s += other.ops_per_s;
        self.latencies_ns.extend(other.latencies_ns);
        self.unscaled_ops_per_s += other.unscaled_ops_per_s;
        self.speeds.extend(other.speeds);
    }
}

/// Consecutive whole untraced cycles lasting at least [`WINDOW_S`].
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    seconds: f64,
    cycles: usize,
    /// The window's latencies: `first..end` of the loop's latency buffer.
    first: usize,
    end: usize,
    /// Machine speed right after the window.
    speed: f64,
}

/// A fixed piece of the benchmark's own work — integer hashing, a B-tree, a sort and string
/// formatting over a few hundred KiB, about a millisecond in all — and how long it took, in
/// seconds. It calls none of the program's code.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut map = BTreeMap::new();
    for i in 0..5_000u64 {
        map.insert(next() % 12_000, i);
    }
    let mut sorted: Vec<u64> = (0..25_000).map(|_| next() % 1_000_003).collect();
    sorted.sort_unstable();
    let strings: Vec<String> = (0..2_500)
        .map(|i| format!("item{i}-{}", sorted[i * 7]))
        .collect();
    std::hint::black_box((map.len(), sorted[sorted.len() / 2], strings.len()));
    start.elapsed().as_secs_f64()
}

/// The machine's speed now relative to the reference speed (below 1 on a slowed machine).
fn machine_speed() -> f64 {
    CALIBRATION_REF_S / calibrate()
}

/// Runs operations over `cycle` inputs round-robin until `ctx.seconds` have passed. `op`
/// receives the input index; its errors and panics are counted, never propagated. Between
/// operations the loop calls `pause` `SETUP_SAMPLES - 1` times, spread evenly over the run (see
/// [`Setup`]); the pauses count neither towards the run length nor towards any window's time.
///
/// Each window is followed by a [`calibrate`] run, outside any window's time, that gives the
/// window's machine speed; throughput and latencies are scaled by it. Latencies go to a buffer
/// of `ctx.seconds * max_ops_per_s` entries, written in full before the loop starts so that the
/// benchmark's own resident memory does not grow with the number of operations; windows that
/// end past it are not timed.
pub fn run_cycles(
    ctx: &Ctx,
    tracer: &mut Tracer,
    cycle: usize,
    max_ops_per_s: f64,
    mut pause: impl FnMut(&mut Tracer),
    mut op: impl FnMut(usize, &mut Tracer) -> Result<(), String>,
) -> Loop {
    let mut failures = Failures::default();
    let mut buffer = vec![u32::MAX; (ctx.seconds * max_ops_per_s).ceil() as usize];
    let mut recorded = 0;
    let mut windows = Vec::new();
    let mut open = Window::default();
    let mut start = Instant::now();
    let mut cycle_start = start;
    let (mut i, mut pauses) = (0, 0);
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let due = (pauses + 1) as f64 * ctx.seconds / SETUP_SAMPLES as f64;
        if pauses + 1 < SETUP_SAMPLES && start.elapsed().as_secs_f64() >= due {
            let paused = Instant::now();
            pause(tracer);
            pauses += 1;
            start += paused.elapsed();
            cycle_start += paused.elapsed();
        }
        let traced = traced_cycle(ctx, i, cycle);
        tracer.set_enabled(traced);
        failures.record(guarded(tracer, |t| op(i % cycle, t)));
        if let Some(ns) = tracer.take_latency() {
            if let Some(slot) = buffer.get_mut(recorded) {
                *slot = u32::try_from(ns).unwrap_or(u32::MAX);
            }
            recorded += 1;
        }
        i += 1;
        if i % cycle == 0 {
            if !traced {
                open.seconds += cycle_start.elapsed().as_secs_f64();
                open.cycles += 1;
                if open.seconds >= WINDOW_S {
                    open.end = recorded;
                    open.speed = machine_speed();
                    windows.push(open);
                    open = Window {
                        first: recorded,
                        ..Window::default()
                    };
                }
            }
            cycle_start = Instant::now();
        }
    }
    tracer.set_enabled(false);
    let elapsed = start.elapsed().as_secs_f64();
    // A loop that ended early still pauses as often as promised (serve-mixed's clients meet
    // the set-up thread at a barrier in every pause).
    for _ in pauses + 1..SETUP_SAMPLES {
        pause(tracer);
    }
    windows.retain(|w| w.end <= buffer.len());
    let Some(last) = windows.last() else {
        buffer.truncate(recorded.min(buffer.len()));
        return Loop {
            failures,
            ops_per_s: i as f64 / elapsed,
            latencies_ns: buffer,
            unscaled_ops_per_s: i as f64 / elapsed,
            speeds: Vec::new(),
        };
    };
    // Windows are back to back in the buffer, so together they cover `..last.end`.
    buffer.truncate(last.end);
    let cycles: usize = windows.iter().map(|w| w.cycles).sum();
    let seconds: f64 = windows.iter().map(|w| w.seconds).sum();
    let scaled_seconds: f64 = windows.iter().map(|w| w.seconds * w.speed).sum();
    for w in &windows {
        for ns in &mut buffer[w.first..w.end] {
            *ns = (f64::from(*ns) * w.speed).round().min(f64::from(u32::MAX)) as u32;
        }
    }
    Loop {
        failures,
        ops_per_s: (cycles * cycle) as f64 / scaled_seconds,
        latencies_ns: buffer,
        unscaled_ops_per_s: (cycles * cycle) as f64 / seconds,
        speeds: windows.iter().map(|w| w.speed).collect(),
    }
}

/// Median of a slice (0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// A workload's set-up, timed in [`SETUP_SAMPLES`] samples: one before the operation loop
/// (whose state the loop uses) and one in each pause of [`run_cycles`]. The machine's speed
/// drifts over seconds, so samples are spread over the whole run, where samples taken back to
/// back at its start would see one moment. A sample runs the set-up [`SETUP_REPEATS`] times
/// (each run dropping its predecessor's state) and divides by the runs, so short set-ups are not
/// read off a single noisy interval, and is scaled by the machine speed measured right after
/// it; `setup_s` is the median sample. In a per-layer run the set-ups are traced, as root spans
/// named `setup`.
pub struct Setup<F> {
    run: F,
    /// Each sample so far: the duration of one set-up in seconds, scaled to the reference speed,
    /// and the machine speed it was scaled by.
    pub samples: Vec<(f64, f64)>,
}

impl<F> Setup<F> {
    /// A set-up not yet run.
    pub fn new(run: F) -> Self {
        Setup {
            run,
            samples: Vec::with_capacity(SETUP_SAMPLES),
        }
    }

    /// Takes one sample and returns the last set-up's state.
    pub fn sample<T>(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> T
    where
        F: FnMut(&mut Tracer) -> T,
    {
        let enabled = tracer.enabled();
        tracer.set_enabled(ctx.trace);
        let start = Instant::now();
        let mut last = tracer.span("setup", &mut self.run);
        for _ in 1..SETUP_REPEATS {
            last = tracer.span("setup", &mut self.run);
        }
        let seconds = start.elapsed().as_secs_f64() / f64::from(SETUP_REPEATS);
        let speed = machine_speed();
        self.samples.push((seconds * speed, speed));
        tracer.set_enabled(enabled);
        last
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest percentile of a fixed ladder, at most `cap`, with at least ten samples beyond
/// it: `(percentile, value, samples beyond)`; with fewer than 11 samples, the maximum. Each
/// workload fixes its cap from its slowest expected run, so that the percentile reported does
/// not flip between runs whose operation counts straddle a rung, and so that it lies inside a
/// class of operations rather than on the machine's rarest stalls.
fn tail(sorted: &[f64], cap: f64) -> (f64, f64, usize) {
    let n = sorted.len();
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= cap)
    {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (p, sorted[rank - 1], n - rank);
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0.0), 0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// How a per-layer metric is read off the trace.
enum Source {
    /// Mean self time per call of the named span, in µs.
    SelfTime(&'static str),
    /// Mean inclusive time per call of the named span, in µs.
    Inclusive(&'static str),
    /// Mean of a count sampled at the layer boundary.
    Count(&'static str),
    /// A value the workload measured itself (`Report::extra`).
    Extra,
}

/// Every per-layer metric, its source and unit. Layers a workload does not exercise read 0.
const PER_LAYER: &[(&str, Source, &str)] = &[
    ("btp.sql.parse_us", Source::SelfTime("btp.sql.parse"), "us"),
    (
        "btp.sql.statements",
        Source::Count("btp.sql.statements"),
        "count",
    ),
    ("btp.unfold_us", Source::SelfTime("btp.unfold"), "us"),
    ("btp.unfold.ltps", Source::Count("btp.unfold.ltps"), "count"),
    (
        "core.summary.construct_us",
        Source::SelfTime("core.summary.construct"),
        "us",
    ),
    (
        "core.summary.edges",
        Source::Count("core.summary.edges"),
        "count",
    ),
    (
        "core.kernels.derive_us",
        Source::SelfTime("core.kernels.derive"),
        "us",
    ),
    (
        "core.kernels.closure_words",
        Source::Count("core.kernels.closure_words"),
        "count",
    ),
    (
        "core.algorithm.cycle_test_us",
        Source::SelfTime("core.algorithm.cycle_test"),
        "us",
    ),
    (
        "core.subsets.sweep_us",
        Source::SelfTime("core.subsets.sweep"),
        "us",
    ),
    (
        "core.subsets.cycle_tests",
        Source::Count("core.subsets.cycle_tests"),
        "count",
    ),
    (
        "core.subsets.pruned",
        Source::Count("core.subsets.pruned"),
        "count",
    ),
    (
        "core.subsets.tests_per_subset",
        Source::Count("core.subsets.tests_per_subset"),
        "ratio",
    ),
    ("cli.render_us", Source::SelfTime("cli.render"), "us"),
    (
        "cli.render_bytes",
        Source::Count("cli.render_bytes"),
        "bytes",
    ),
    (
        "core.session.edit_us",
        Source::SelfTime("core.session.edit"),
        "us",
    ),
    (
        "dist.snapshot.save_us",
        Source::SelfTime("dist.snapshot.save"),
        "us",
    ),
    (
        "dist.snapshot.open_us",
        Source::SelfTime("dist.snapshot.open"),
        "us",
    ),
    (
        "dist.snapshot.bytes",
        Source::Count("dist.snapshot.bytes"),
        "bytes",
    ),
    (
        "serve.rtt_us.is_robust",
        Source::Inclusive("serve.rtt.is_robust"),
        "us",
    ),
    (
        "serve.rtt_us.analyze",
        Source::Inclusive("serve.rtt.analyze"),
        "us",
    ),
    (
        "serve.rtt_us.explore_subsets",
        Source::Inclusive("serve.rtt.explore_subsets"),
        "us",
    ),
    (
        "serve.rtt_us.lint",
        Source::Inclusive("serve.rtt.lint"),
        "us",
    ),
    (
        "serve.rtt_us.edit",
        Source::Inclusive("serve.rtt.edit"),
        "us",
    ),
    (
        "serve.direct_us.is_robust",
        Source::Inclusive("serve.direct.is_robust"),
        "us",
    ),
    (
        "serve.direct_us.analyze",
        Source::Inclusive("serve.direct.analyze"),
        "us",
    ),
    (
        "serve.direct_us.explore_subsets",
        Source::Inclusive("serve.direct.explore_subsets"),
        "us",
    ),
    (
        "serve.direct_us.lint",
        Source::Inclusive("serve.direct.lint"),
        "us",
    ),
    (
        "serve.direct_us.edit",
        Source::Inclusive("serve.direct.edit"),
        "us",
    ),
    (
        "serve.protocol.frame_us",
        Source::Inclusive("serve.protocol.frame"),
        "us",
    ),
    ("serve.stats.graph_builds", Source::Extra, "count"),
    ("serve.stats.sweep_us", Source::Extra, "us"),
    ("lint.report_us", Source::SelfTime("lint.report"), "us"),
    ("lint.repair_us", Source::SelfTime("lint.repair"), "us"),
    (
        "lint.diagnostics",
        Source::Count("lint.diagnostics"),
        "count",
    ),
    ("hist.certify_us", Source::Inclusive("hist.certify"), "us"),
    (
        "hist.compile.realize_us",
        Source::SelfTime("hist.compile.realize"),
        "us",
    ),
    (
        "hist.compile.random_run_us",
        Source::SelfTime("hist.compile.random_run"),
        "us",
    ),
    (
        "hist.checker.check_us",
        Source::SelfTime("hist.checker.check"),
        "us",
    ),
    ("hist.realized_ratio", Source::Extra, "ratio"),
    (
        "engine.find_anomaly_us",
        Source::SelfTime("engine.find_anomaly"),
        "us",
    ),
    ("par.threads", Source::Extra, "count"),
    ("bench.op_us", Source::Inclusive(OP), "us"),
    ("bench.self_us", Source::SelfTime(OP), "us"),
    ("bench.trace_overhead_ratio", Source::Extra, "ratio"),
];

fn metric(value: f64, unit: &str) -> Value {
    let value = if value.is_finite() { value } else { 0.0 };
    json!({ "value": value, "unit": unit })
}

impl Report {
    /// Traced over untraced mean operation latency, summed over the inputs both modes ran.
    fn trace_overhead_ratio(&self) -> f64 {
        let (mut t, mut u) = (0.0, 0.0);
        for [(u_sum, u_n), (t_sum, t_n)] in self.tracer.by_key.values() {
            if *u_n > 0 && *t_n > 0 {
                t += t_sum / *t_n as f64;
                u += u_sum / *u_n as f64;
            }
        }
        if u > 0.0 {
            t / u
        } else {
            0.0
        }
    }

    fn end_to_end(&self, lines: &mut Vec<String>) -> Vec<(String, Value)> {
        // Read before the latencies are copied out below, which would add to the peak.
        let peak_rss_mb = peak_rss_mb();
        let mut latencies: Vec<f64> = self
            .run
            .latencies_ns
            .iter()
            .map(|&ns| f64::from(ns) / 1e6)
            .collect();
        latencies.sort_by(f64::total_cmp);
        let (p, tail_ms, beyond) = tail(&latencies, self.tail_cap);
        let speeds = &self.run.speeds;
        lines.push(format!(
            "timings are scaled to the reference machine speed, measured after each of {} windows \
             of at least {WINDOW_S} s of whole cycles: speed median {:.3}, range {:.3}..{:.3}; \
             unscaled ops_per_s {:.6}",
            speeds.len(),
            median(speeds),
            speeds.iter().copied().fold(f64::INFINITY, f64::min),
            speeds.iter().copied().fold(0.0, f64::max),
            self.run.unscaled_ops_per_s,
        ));
        let samples: Vec<String> = self
            .setup_s
            .iter()
            .map(|(seconds, speed)| format!("{seconds:.6}@{speed:.3}"))
            .collect();
        lines.push(format!(
            "setup_s is the median of {} scaled samples of repeated set-ups (seconds@speed): {}",
            samples.len(),
            samples.join(" ")
        ));
        lines.push(format!(
            "latency_tail_ms is p{p} of {} operation latencies in those windows ({beyond} beyond \
             it) out of {} operations",
            latencies.len(),
            self.tracer.untraced_ops
        ));
        let setup: Vec<f64> = self.setup_s.iter().map(|&(seconds, _)| seconds).collect();
        let f = &self.run.failures;
        let ok = f.attempted.saturating_sub(f.failed) as f64;
        vec![
            ("setup_s".into(), metric(median(&setup), "s")),
            ("ops_per_s".into(), metric(self.run.ops_per_s, "1/s")),
            (
                "latency_p50_ms".into(),
                metric(percentile(&latencies, 50.0), "ms"),
            ),
            ("latency_tail_ms".into(), metric(tail_ms, "ms")),
            (
                "ok_ratio".into(),
                metric(ok / f.attempted.max(1) as f64, "ratio"),
            ),
            ("peak_rss_mb".into(), metric(peak_rss_mb, "MiB")),
        ]
    }

    fn per_layer(&self, lines: &mut Vec<String>) -> Vec<(String, Value)> {
        let times = self.tracer.layer_times();
        let overhead = self.trace_overhead_ratio();
        let mean_us = |name: &str, inclusive: bool| {
            times.get(name).map_or(0.0, |t| {
                let ns = if inclusive { t.total_ns } else { t.self_ns };
                ns as f64 / t.calls.max(1) as f64 / 1e3
            })
        };
        // The accounting behind the per-call numbers: each layer's self time per operation.
        let ops = times.get(OP).map_or(0, |t| t.calls).max(1) as f64;
        lines.push(format!(
            "self time per traced operation by span, over {ops} operations (set-up and probe \
             spans lie outside operations; the rest add up to bench.op_us):"
        ));
        for (name, time) in times {
            if *name != "setup" {
                lines.push(format!(
                    "  {name:<32} {:>8.2} calls/op {:>12.2} us/op",
                    time.calls as f64 / ops,
                    time.self_ns as f64 / ops / 1e3
                ));
            }
        }
        PER_LAYER
            .iter()
            .map(|(name, source, unit)| {
                let value = match source {
                    Source::SelfTime(span) => mean_us(span, false),
                    Source::Inclusive(span) => mean_us(span, true),
                    Source::Count(count) => self.tracer.count_mean(count),
                    Source::Extra if *name == "bench.trace_overhead_ratio" => overhead,
                    Source::Extra if *name == "par.threads" => {
                        mvrc_par::planned_thread_count() as f64
                    }
                    Source::Extra => self.extra.get(name).copied().unwrap_or(0.0),
                };
                (name.to_string(), metric(value, unit))
            })
            .collect()
    }

    /// Prints the stamp and notes as `#` lines, then the result as the last line.
    pub fn print(&self, workload: &str, ctx: &Ctx) {
        let mut lines = vec![format!(
            "workload={workload} commit={} nproc={} par_threads={} seed={} seconds={} trace={}",
            commit(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            mvrc_par::planned_thread_count(),
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
        )];
        let metrics = if ctx.trace {
            let path = ctx
                .work_dir
                .join(format!("trace-{workload}-{}.tsv", ctx.seed));
            match std::fs::write(&path, self.tracer.to_tsv()) {
                Ok(()) => lines.push(format!("spans written to {}", path.display())),
                Err(e) => lines.push(format!("writing {}: {e}", path.display())),
            }
            self.per_layer(&mut lines)
        } else {
            self.end_to_end(&mut lines)
        };
        for message in &self.run.failures.messages {
            lines.push(format!("failure: {message}"));
        }
        for line in lines {
            println!("# {line}");
        }
        let result = Value::Object(vec![
            ("correct".into(), json!(self.run.failures.failed == 0)),
            ("attempted".into(), json!(self.run.failures.attempted)),
            ("failed".into(), json!(self.run.failures.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&result).expect("a JSON value serializes")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values, 99.9), (99.0, 990.0, 10));
        assert_eq!(tail(&values, 95.0), (95.0, 950.0, 50));
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values, 99.9), (90.0, 90.0, 10));
        assert_eq!(tail(&[1.0, 2.0], 99.0).0, 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_count_errors_and_keep_a_few_messages() {
        let mut f = Failures::default();
        for i in 0..10 {
            f.record(if i % 2 == 0 {
                Ok(())
            } else {
                Err(format!("e{i}"))
            });
        }
        assert_eq!((f.attempted, f.failed), (10, 5));
        assert_eq!(f.messages.len(), 5);
    }

    #[test]
    fn window_timings_are_scaled_by_the_machine_speed() {
        let ctx = Ctx {
            seed: 1,
            seconds: 1.0,
            trace: false,
            expected: crate::expected::Expected::builtin(),
            work_dir: std::env::temp_dir(),
        };
        let mut tracer = Tracer::new(0);
        let run = run_cycles(
            &ctx,
            &mut tracer,
            10,
            2_000.0,
            |_| {},
            |i, t| {
                t.op(i, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
                Ok(())
            },
        );
        let speeds = &run.speeds;
        assert!(
            speeds.len() >= 3 && speeds.iter().all(|&v| v > 0.0),
            "{speeds:?}"
        );
        // Each window's time is scaled by its speed, so the unscaled throughput over the scaled
        // one is a time-weighted mean of the speeds.
        let ratio = run.unscaled_ops_per_s / run.ops_per_s;
        let lowest = speeds.iter().copied().fold(f64::INFINITY, f64::min);
        let highest = speeds.iter().copied().fold(0.0, f64::max);
        assert!(
            ratio >= lowest * 0.999 && ratio <= highest * 1.001,
            "{ratio} {speeds:?}"
        );
        // Whole cycles of ten operations only.
        assert_eq!(run.latencies_ns.len() % 10, 0);
    }

    #[test]
    fn panics_become_errors() {
        let mut tracer = Tracer::new(0);
        let out: Result<(), String> = guarded(&mut tracer, |_| panic!("kaboom"));
        assert!(out.unwrap_err().contains("kaboom"));
    }
}

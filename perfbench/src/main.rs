//! The repository benchmark: three closed-loop workloads that drive the
//! orianna crates through their public functions only.
//!
//! ```text
//! perfbench --workload <robot_frames|fleet_serve|accel_codesign>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! The last line of standard output is one JSON record: `correct`,
//! `attempted`, `failed`, `metrics` (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`), plus `exact` (the counts that must repeat
//! exactly at one seed) and `info` (sample counts, class splits).
//! `perfbench/run.py` builds this binary, runs it and adds the host stamp.
//!
//! Every workload sets up once before its timed phase and again at
//! `SETUP_REPS - 1` evenly spaced points inside it (off the clock), and
//! reports the median set-up time. The timed phase runs ops until
//! `--seconds` have passed *and* its fixed count prefix is done; counts
//! are read at the end of that prefix, so they do not depend on how fast
//! the host ran. Inputs are generated and outputs checked outside the
//! timed region.
//!
//! A traced run alternates untraced and traced blocks of ops. Per-layer
//! metrics come from the spans of the traced blocks; the tracing overhead
//! is the traced blocks' median latency minus the untraced blocks'.
//!
//! End-to-end times are reported at a reference host speed. On a shared
//! host (measured on a 2-vCPU Xeon VM) the speed of this code moves by
//! 1.5-2x within seconds as other tenants come and go, so a run's raw
//! median lands wherever the host happened to be. Every [`PROBE_EVERY`],
//! between ops and off the clock (fleet_serve first lets its requests in
//! flight finish), the benchmark times a fixed probe of its own
//! ([`probe_ns`]) on the thread that drives the ops, and scales each op's
//! wall time by [`PROBE_REF_NS`] over the median of the probes nearest it
//! in time. The probe shares no code or data with the library, so a
//! change to the library moves the scaled times as it moves wall times.
//! The same figures in raw wall time are printed in `info` (`wall_*`).
//! Per-layer times are raw wall time.

mod accel_codesign;
mod fleet_serve;
mod robot_frames;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run: one before the timed phase, the rest spread evenly
/// over it, so that `setup_s`, their median, samples the host's speed
/// across the run rather than at one moment.
const SETUP_REPS: usize = 10;
/// Busy time before a workload starts: a core that was idle runs at about
/// half speed for its first ~200 ms, which would otherwise land in the
/// set-up timing.
const WARM_UP: Duration = Duration::from_millis(500);
/// Percentile reported as `latency_tail_ms`, on every workload. The
/// highest percentile with ten ops beyond it in a run (p99 on robot_frames,
/// p99.9 on fleet_serve, p95 on accel_codesign) reads the host's slowest
/// seconds and scheduling stalls more than the program: over five runs of
/// one build those spread 0.75, 0.57 and 0.29 of their medians, p90 at
/// most 0.18.
pub const TAIL_PCT: f64 = 90.0;
/// Length of each alternating untraced/traced block in a traced run.
const TRACE_BLOCK: Duration = Duration::from_millis(500);
/// Latency samples a run can keep without growing its buffers.
pub const SAMPLE_CAP: usize = 1 << 17;
/// How often the host-speed probe runs, between ops.
const PROBE_EVERY: Duration = Duration::from_millis(50);
/// Eliminations per probe.
const PROBE_REPS: usize = 300;
/// The probe's time on an idle core of the reference host (a 2-vCPU
/// Xeon VM); times are reported as they would read at that speed.
const PROBE_REF_NS: f64 = 90_000.0;
/// Probes whose median gives the host's speed at one moment, about
/// 150 ms around it: the host's slow spells last from tens of ms to
/// minutes, and over 75-90 s runs split into 9 s windows, the windows'
/// scaled p90 spread least with 3 probes (cv 0.06-0.08, against
/// 0.09-0.10 with 21).
const PROBE_WINDOW: usize = 3;
/// Calls made only while a workload sets up, reported per call.
const SETUP_CALLS: &[&str] = &["server.install"];

/// The benchmark definition; its `per_layer` list names the per-layer
/// metrics and their units, in report order.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of the `per_layer` list in [`SPEC`]. A layer
/// that does no work on a workload reports 0 for its metrics.
fn per_layer() -> Vec<(&'static str, &'static str)> {
    let at = SPEC
        .find("\"per_layer\"")
        .expect("BENCHMARK.json has per_layer");
    let list = &SPEC[at..];
    let list = &list[..list.find(']').expect("per_layer is a list")];
    list.split('{')
        .skip(1)
        .map(|entry| (string_field(entry, "name"), string_field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in one flat JSON object.
fn string_field(entry: &'static str, key: &str) -> &'static str {
    let rest = &entry[entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2..];
    let rest = &rest[rest.find('"').expect(key) + 1..];
    &rest[..rest.find('"').expect(key)]
}

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// SplitMix64 finalizer: derives independent streams from `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The host-speed probe: [`PROBE_REPS`] Gaussian eliminations of a
/// freshly allocated 8x8 matrix, the mix of small heap allocations and
/// dependent floating-point updates the workloads' ops are made of. Of
/// the kernels tried (dependent integer chains, pointer chases sized for
/// L1, L2 and L3, hash-map lookups, a dense 16x16 product), its time
/// tracked the op times of robot_frames and accel_codesign most closely
/// as the host's speed moved.
#[allow(clippy::needless_range_loop)]
fn probe_ns() -> u64 {
    let t0 = Instant::now();
    let mut acc = 0.0;
    for r in 0..std::hint::black_box(PROBE_REPS) {
        let mut m: Vec<Vec<f64>> = (0..8)
            .map(|i| (0..8).map(|j| ((i * 8 + j + r) as f64).sqrt()).collect())
            .collect();
        for k in 0..8 {
            let pivot = m[k][k] + 1.0;
            for i in k + 1..8 {
                let f = m[i][k] / pivot;
                for j in k..8 {
                    let v = m[k][j];
                    m[i][j] -= f * v;
                }
            }
        }
        acc += m[7][7];
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as u64
}

/// The timed phase: decides when to stop, which ops are traced, and
/// collects latencies, set-up times and host-speed probes. Time spent in
/// [`Clock::untimed`] (input generation, output checks), in a set-up or in
/// a probe is left out of the throughput's wall time.
pub struct Clock {
    /// Event times (`*_at`) are nanoseconds since this instant.
    origin: Instant,
    start: Instant,
    seconds: f64,
    min_ops: usize,
    trace: bool,
    ops: usize,
    paused: Duration,
    /// When the last op finished: the end of the timed phase.
    end: Instant,
    /// Latencies of untraced ops (every op when not tracing), and when
    /// each ended.
    pub lat_ns: Vec<u64>,
    lat_at: Vec<u64>,
    /// Latencies of traced ops, and when each ended.
    pub traced_ns: Vec<u64>,
    traced_at: Vec<u64>,
    /// Set-up times in seconds, and when each ended.
    set_ups: Vec<(f64, u64)>,
    /// Probe times, and when each ran.
    probes: Vec<(u64, u64)>,
    last_probe: Instant,
}

impl Clock {
    fn new(seconds: f64, min_ops: usize, trace: bool) -> Self {
        let start = Instant::now();
        Self {
            origin: start,
            start,
            end: start,
            seconds,
            min_ops,
            trace,
            ops: 0,
            paused: Duration::ZERO,
            lat_ns: sample_buffer(SAMPLE_CAP),
            lat_at: sample_buffer(SAMPLE_CAP),
            traced_ns: Vec::new(),
            traced_at: Vec::new(),
            set_ups: Vec::with_capacity(SETUP_REPS),
            probes: Vec::with_capacity(SAMPLE_CAP / 8),
            last_probe: start,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the timed phase.
    pub fn start(&mut self) {
        self.start = Instant::now();
        self.end = self.start;
        self.paused = Duration::ZERO;
    }

    /// Times one set-up and returns what it made. Its spans carry the op
    /// id [`trace::SETUP_OP`].
    pub fn set_up<T>(&mut self, make: impl FnOnce() -> T) -> T {
        trace::set_op(trace::SETUP_OP);
        trace::set_enabled(self.trace);
        let t0 = Instant::now();
        let out = make();
        let took = t0.elapsed();
        trace::set_enabled(false);
        self.set_ups.push((took.as_secs_f64(), self.now_ns()));
        self.paused += took;
        out
    }

    /// Whether the next set-up repeat is due: they fall at evenly spaced
    /// points of the timed phase.
    pub fn set_up_due(&self) -> bool {
        let k = self.set_ups.len();
        k < SETUP_REPS
            && self.start.elapsed().as_secs_f64() >= self.seconds * k as f64 / SETUP_REPS as f64
    }

    /// Repeats a set-up for its timing; what it made is dropped off the
    /// clock.
    pub fn repeat_set_up<T>(&mut self, make: impl FnOnce() -> T) {
        let out = self.set_up(make);
        self.untimed(|| drop(out));
    }

    /// Whether a probe is due.
    fn probe_due(&self) -> bool {
        self.last_probe.elapsed() >= PROBE_EVERY
    }

    /// Whether the loop should pause between ops: a set-up repeat or a
    /// probe is due. A workload with ops in flight lets them finish first.
    pub fn pause_due(&self) -> bool {
        self.set_up_due() || self.probe_due()
    }

    /// Runs what is due between ops: a set-up repeat made by `make`,
    /// then a probe.
    pub fn between_ops<T>(&mut self, make: impl FnOnce() -> T) {
        if self.set_up_due() {
            self.repeat_set_up(make);
        }
        if self.probe_due() {
            let ns = self.untimed(probe_ns);
            self.probes.push((self.now_ns(), ns));
            self.last_probe = Instant::now();
        }
    }

    /// The factor that scales a time measured at `at` to the reference
    /// host speed: [`PROBE_REF_NS`] over the median of the
    /// [`PROBE_WINDOW`] probes around `at`. 1 when no probe ran.
    fn scale_at(&self, at: u64) -> f64 {
        let n = self.probes.len();
        if n == 0 {
            return 1.0;
        }
        let w = PROBE_WINDOW.min(n);
        let next = self.probes.partition_point(|&(t, _)| t < at);
        let lo = next.saturating_sub(w / 2).min(n - w);
        let mut window: Vec<f64> = self.probes[lo..lo + w]
            .iter()
            .map(|&(_, ns)| ns as f64)
            .collect();
        PROBE_REF_NS / median_f64(&mut window)
    }

    /// Latencies scaled to the reference host speed.
    fn scaled(&self, ns: &[u64], at: &[u64]) -> Vec<u64> {
        ns.iter()
            .zip(at)
            .map(|(&ns, &at)| (ns as f64 * self.scale_at(at)).round() as u64)
            .collect()
    }

    /// Set-up times in seconds scaled to the reference host speed.
    fn scaled_set_ups(&self) -> Vec<f64> {
        self.set_ups
            .iter()
            .map(|&(s, at)| s * self.scale_at(at))
            .collect()
    }

    /// Whether another op should start.
    pub fn running(&self) -> bool {
        self.ops < self.min_ops || self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Ops started so far; the next op's id.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Starts op `self.ops()`: sets its span id and turns tracing on for
    /// it when it falls in a traced block. Returns whether it is traced.
    pub fn begin_op(&mut self) -> bool {
        let traced =
            self.trace && (self.start.elapsed().as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1;
        trace::set_op(self.ops as u64);
        trace::set_enabled(traced);
        self.ops += 1;
        traced
    }

    /// Records one finished op's latency.
    pub fn record(&mut self, ns: u64, traced: bool) {
        self.end = Instant::now();
        let at = self.now_ns();
        if traced {
            self.traced_ns.push(ns);
            self.traced_at.push(at);
        } else {
            self.lat_ns.push(ns);
            self.lat_at.push(at);
        }
    }

    /// Begins an op, times `f` inside a root span and records it.
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let traced = self.begin_op();
        let t0 = Instant::now();
        let out = trace::span("bench.op", f);
        let ns = t0.elapsed().as_nanos() as u64;
        trace::set_enabled(false);
        self.record(ns, traced);
        out
    }

    /// Runs `f` off the clock.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.paused += t0.elapsed();
        out
    }

    /// Wall time of the timed phase, less the time spent off the clock.
    fn busy_s(&self) -> f64 {
        (self.end - self.start)
            .saturating_sub(self.paused)
            .as_secs_f64()
    }

    /// The timed phase's measurements at the reference host speed.
    fn scaled_timings(&self) -> Timings {
        let lat_ns = self.scaled(&self.lat_ns, &self.lat_at);
        let traced_ns = self.scaled(&self.traced_ns, &self.traced_at);
        let raw: u64 = self.lat_ns.iter().chain(&self.traced_ns).sum();
        let scaled: u64 = lat_ns.iter().chain(&traced_ns).sum();
        Timings {
            set_ups: self.scaled_set_ups(),
            busy_s: self.busy_s() * scaled as f64 / raw.max(1) as f64,
            lat_ns,
            traced_ns,
        }
    }
}

/// Set-up times, op latencies and busy time, all at one host speed.
struct Timings {
    set_ups: Vec<f64>,
    lat_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    busy_s: f64,
}

impl Timings {
    fn end_to_end(&mut self, ops: usize) -> [(&'static str, f64); 4] {
        [
            ("setup_s", median_f64(&mut self.set_ups)),
            ("latency_p50_ms", p50_ms(&mut self.lat_ns)),
            ("latency_tail_ms", percentile_ms(&mut self.lat_ns, TAIL_PCT)),
            ("throughput_ops_s", ops as f64 / self.busy_s),
        ]
    }
}

/// What a workload reports besides the clock's timings.
#[derive(Default)]
pub struct Report {
    /// Ops whose outputs failed a check.
    pub failed: usize,
    /// The end-to-end `success_pct`: Tbl. 5 missions succeeded on
    /// robot_frames, ops that passed their checks elsewhere.
    pub success_pct: f64,
    /// The end-to-end `design_cycles`; 1 on workloads that generate no
    /// accelerator, so the metric is never 0.
    pub design_cycles: f64,
    /// Per-layer metrics the workload computes itself (counters, splits).
    pub layer: Vec<(String, f64)>,
    /// Counts that must repeat exactly at one seed.
    pub exact: Vec<(String, f64)>,
    /// Extra figures printed with the record.
    pub info: Vec<(String, f64)>,
}

/// An empty sample buffer whose `cap` slots are already resident, so the
/// peak resident set does not grow with the number of ops a run completes
/// (that is, with the host's speed).
pub fn sample_buffer(cap: usize) -> Vec<u64> {
    let mut v = vec![u64::MAX; cap];
    v.clear();
    v
}

pub fn median_f64(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of `samples` (sorted in place), in ms.
pub fn percentile_ms(samples: &mut [u64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64 / 1e6
}

/// Median of `samples` in ms (mean of the middle pair when even).
pub fn p50_ms(samples: &mut [u64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e6).collect();
    median_f64(&mut v)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_obj(pairs: &[(String, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Per-layer metrics from the recorded spans: mean duration per call for
/// every `*_ms`/`*_us` metric whose stem names a span (or a span family
/// `stem.<class>`, which also yields `metric.<class>`), self time per
/// layer per traced op (set-up spans left out), and the tracing overhead
/// from the clock's two samples.
fn span_metrics(spans: &[trace::Span], timings: &mut Timings) -> Vec<(String, f64)> {
    // Per-call means cover the calls of ops; the set-up's own calls
    // (server installs) are the only set-up spans reported.
    let totals = trace::totals(
        spans
            .iter()
            .filter(|s| s.op != trace::SETUP_OP || SETUP_CALLS.contains(&s.name)),
    );
    let mut out = Vec::new();
    for (metric, _) in per_layer() {
        let (stem, scale) = if let Some(s) = metric.strip_suffix("_ms") {
            (s, 1e-6)
        } else if let Some(s) = metric.strip_suffix("_us") {
            (s, 1e-3)
        } else {
            continue;
        };
        let mut calls = 0;
        let mut ns = 0;
        for (name, (c, t)) in &totals {
            if *name == stem || name.strip_prefix(stem).is_some_and(|r| r.starts_with('.')) {
                calls += c;
                ns += t;
                if let Some(class) = name.strip_prefix(stem).and_then(|r| r.strip_prefix('.')) {
                    out.push((format!("{metric}.{class}"), *t as f64 * scale / *c as f64));
                }
            }
        }
        if calls > 0 {
            out.push((metric.to_string(), ns as f64 * scale / calls as f64));
        }
    }
    let traced_ops = timings.traced_ns.len().max(1) as f64;
    for (layer, ns) in trace::layer_self_ns(spans) {
        if layer != "bench" {
            out.push((format!("{layer}.self_ms"), ns as f64 * 1e-6 / traced_ops));
        }
    }
    let untraced = p50_ms(&mut timings.lat_ns);
    let traced = p50_ms(&mut timings.traced_ns);
    out.push(("trace.overhead_p50_ms".into(), traced - untraced));
    out.push((
        "trace.overhead_pct".into(),
        100.0 * (traced - untraced) / untraced,
    ));
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let mut spin = 0u64;
    while t0.elapsed() < WARM_UP {
        spin = std::hint::black_box(mix(spin));
    }
    let (clock, report) = match args.workload.as_str() {
        "robot_frames" => robot_frames::run(&args),
        "fleet_serve" => fleet_serve::run(&args),
        "accel_codesign" => accel_codesign::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    trace::set_enabled(false);
    let spans = trace::take();

    let attempted = clock.ops();
    let mut timings = clock.scaled_timings();
    let mut all = timings.lat_ns.clone();
    all.extend_from_slice(&timings.traced_ns);
    let samples = clock.lat_ns.len();
    let beyond = samples - ((TAIL_PCT / 100.0) * samples as f64).ceil() as usize;
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let layer: BTreeMap<String, f64> = span_metrics(&spans, &mut timings)
            .into_iter()
            .chain(report.layer.iter().cloned())
            .collect();
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    layer.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    } else {
        let [setup, p50, tail, throughput] = timings.end_to_end(attempted);
        vec![
            (setup.0.into(), setup.1, "s"),
            (p50.0.into(), p50.1, "ms"),
            (tail.0.into(), tail.1, "ms"),
            (throughput.0.into(), throughput.1, "ops/s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
            ("success_pct".into(), report.success_pct, "%"),
            ("design_cycles".into(), report.design_cycles, "cycles"),
        ]
    };
    if let Some(path) = &args.trace_out {
        if args.trace {
            if let Err(e) = std::fs::write(path, trace::chrome_json(&spans)) {
                eprintln!("perfbench: writing {path}: {e}");
            }
        }
    }

    // The same figures in raw wall time, and the probes behind the scaling.
    let mut raw = Timings {
        set_ups: clock.set_ups.iter().map(|&(s, _)| s).collect(),
        lat_ns: clock.lat_ns.clone(),
        traced_ns: clock.traced_ns.clone(),
        busy_s: clock.busy_s(),
    };
    let mut probes: Vec<f64> = clock
        .probes
        .iter()
        .map(|&(_, ns)| ns as f64 / 1e3)
        .collect();
    let mut info: Vec<(String, f64)> = raw
        .end_to_end(attempted)
        .iter()
        .map(|(name, v)| (format!("wall_{name}"), *v))
        .collect();
    info.extend([
        ("probes".to_string(), probes.len() as f64),
        ("probe_p50_us".to_string(), median_f64(&mut probes)),
        ("samples".to_string(), samples as f64),
        ("traced_samples".to_string(), clock.traced_ns.len() as f64),
        ("tail_pct".to_string(), TAIL_PCT),
        ("samples_beyond_tail".to_string(), beyond as f64),
        ("latency_p10_ms".to_string(), percentile_ms(&mut all, 10.0)),
        ("latency_p90_ms".to_string(), percentile_ms(&mut all, 90.0)),
        ("latency_p99_ms".to_string(), percentile_ms(&mut all, 99.0)),
        ("latency_max_ms".to_string(), percentile_ms(&mut all, 100.0)),
        ("spans".to_string(), spans.len() as f64),
        (
            "simd_enabled".to_string(),
            f64::from(u8::from(orianna_math::simd::enabled())),
        ),
    ]);
    info.extend(report.info.iter().cloned());
    for (k, v, u) in &metrics {
        println!("{k:32} {v:>14.6} {u}");
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}},\"exact\":{},\"info\":{}}}",
        report.failed == 0,
        report.failed,
        metrics_json.join(","),
        json_obj(&report.exact),
        json_obj(&info),
    );
}

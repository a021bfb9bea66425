//! Offline stand-in for the subset of `criterion` 0.5 used by this
//! workspace's benches: `Criterion`, `benchmark_group`, `bench_function`
//! / `bench_with_input`, `BenchmarkId`, `Throughput::Elements`,
//! `black_box` and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement model: per benchmark the routine is warmed up for
//! `warm_up_time`, then timed over `sample_size` samples, where each
//! sample runs the routine as many times as fit into
//! `measurement_time / sample_size`.  Minimum, mean and maximum per-call
//! wall-clock times are printed to stdout in a criterion-like format,
//! followed by the median and the 99th percentile over the samples
//! (nearest rank).  Under a group's `Throughput::Elements(n)` the line
//! also gives `n` and the median time per element.
//! There is no statistical analysis, no HTML report and no baseline
//! comparison — just honest wall-clock numbers.
//!
//! Two environment variables support the CI smoke run:
//!
//! * `EDF_BENCH_FAST` (set and not `0`) — clamps every benchmark to a tiny
//!   iteration budget (2 samples, ≤ 10 ms warm-up, ≤ 40 ms measurement),
//!   overriding per-group settings, so a whole bench binary finishes in
//!   seconds; the numbers are smoke-level only;
//! * `EDF_BENCH_JSON=<path>` — appends one JSON object per benchmark
//!   (group, id, min/median/mean/p99/max nanoseconds, sample and
//!   iteration counts, and `elements` under a throughput) to
//!   `<path>`, one per line, for the `BENCH_smoke.json` CI artifact.

use std::fmt;
use std::fs::OpenOptions;
use std::hint;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity function.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Identifier of one benchmark within a group: a function name, an
/// optional parameter, or both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter (`name/param`).
    #[must_use]
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id made of a parameter only.
    #[must_use]
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        BenchmarkId { id: id.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// The amount of work one call of a routine does, for per-element
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The routine processes this many elements per call.
    Elements(u64),
}

/// Times a routine; handed to the closure of `bench_function` /
/// `bench_with_input`.
#[derive(Debug)]
pub struct Bencher<'a> {
    settings: &'a Settings,
    /// Filled by [`Bencher::iter`]; per-call durations, one per sample.
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher<'_> {
    /// Runs `routine` under the group's timing settings (clamped in fast
    /// mode, see the crate docs).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let settings = self.settings.effective();
        // Warm-up: run until the warm-up budget is spent, measuring the
        // per-call cost to size the samples.
        let warm_up_start = Instant::now();
        let mut warm_up_calls: u64 = 0;
        while warm_up_start.elapsed() < settings.warm_up_time || warm_up_calls == 0 {
            black_box(routine());
            warm_up_calls += 1;
            if warm_up_calls >= 1_000_000 {
                break;
            }
        }
        let per_call = warm_up_start.elapsed() / warm_up_calls.max(1) as u32;

        // Size each sample so the whole measurement roughly fits the budget.
        let sample_budget = settings.measurement_time / settings.sample_size.max(1) as u32;
        let iters = if per_call.is_zero() {
            1_000
        } else {
            (sample_budget.as_nanos() / per_call.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };

        self.iters_per_sample = iters;
        self.samples.clear();
        for _ in 0..settings.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / iters as u32);
        }
    }
}

#[derive(Debug, Clone)]
struct Settings {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
        }
    }
}

impl Settings {
    /// The settings actually used: in fast mode (`EDF_BENCH_FAST`) the
    /// configured budgets are clamped down so a smoke run stays cheap no
    /// matter what the individual benches request.
    fn effective(&self) -> Settings {
        if !fast_mode() {
            return self.clone();
        }
        Settings {
            sample_size: self.sample_size.min(2),
            warm_up_time: self.warm_up_time.min(Duration::from_millis(10)),
            measurement_time: self.measurement_time.min(Duration::from_millis(40)),
        }
    }
}

fn fast_mode() -> bool {
    std::env::var("EDF_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A named collection of related benchmarks sharing timing settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.settings.sample_size = n;
        self
    }

    /// Sets the warm-up budget per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    /// Sets the work per routine call of the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `routine` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let id = id.into();
        let mut bencher = Bencher {
            settings: &self.settings,
            samples: Vec::new(),
            iters_per_sample: 0,
        };
        routine(&mut bencher);
        report(&self.name, &id, &bencher, self.throughput);
        self
    }

    /// Benchmarks `routine` under `id`, handing it `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let mut bencher = Bencher {
            settings: &self.settings,
            samples: Vec::new(),
            iters_per_sample: 0,
        };
        routine(&mut bencher, input);
        report(&self.name, &id, &bencher, self.throughput);
        self
    }

    /// Ends the group (kept for API compatibility; reporting is immediate).
    pub fn finish(self) {}
}

/// Per-call times over the samples of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    min: Duration,
    median: Duration,
    mean: Duration,
    p99: Duration,
    max: Duration,
}

impl Summary {
    /// The summary of `samples`, or `None` when there are none.
    fn of(samples: &[Duration]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        Some(Summary {
            min: *sorted.first()?,
            median: nearest_rank(&sorted, 0.5),
            mean: total / sorted.len() as u32,
            p99: nearest_rank(&sorted, 0.99),
            max: *sorted.last()?,
        })
    }
}

/// The `q`-quantile of the non-empty ascending `sorted` by nearest rank:
/// the smallest sample with at least a `q` share of the samples at or
/// below it.
fn nearest_rank(sorted: &[Duration], q: f64) -> Duration {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn report(group: &str, id: &BenchmarkId, bencher: &Bencher<'_>, throughput: Option<Throughput>) {
    let Some(summary) = Summary::of(&bencher.samples) else {
        println!("{group}/{id}: no samples (routine never called iter?)");
        return;
    };
    let per_element = match throughput {
        Some(Throughput::Elements(n)) => format!(
            " — {n} elements, {:.1} ns/element",
            summary.median.as_nanos() as f64 / n.max(1) as f64
        ),
        None => String::new(),
    };
    println!(
        "{group}/{id}: time [{} {} {}] median {} p99 {} ({} samples × {} iters){per_element}",
        fmt_duration(summary.min),
        fmt_duration(summary.mean),
        fmt_duration(summary.max),
        fmt_duration(summary.median),
        fmt_duration(summary.p99),
        bencher.samples.len(),
        bencher.iters_per_sample,
    );
    if let Ok(path) = std::env::var("EDF_BENCH_JSON") {
        if !path.is_empty() {
            append_json_record(&path, group, id, &summary, bencher, throughput);
        }
    }
}

/// Appends one JSON object (on its own line) describing a finished
/// benchmark to `path`; errors are reported to stderr but never fail the
/// bench run.
fn append_json_record(
    path: &str,
    group: &str,
    id: &BenchmarkId,
    summary: &Summary,
    bencher: &Bencher<'_>,
    throughput: Option<Throughput>,
) {
    let elements = match throughput {
        Some(Throughput::Elements(n)) => format!(",\"elements\":{n}"),
        None => String::new(),
    };
    let record = format!(
        "{{\"group\":\"{}\",\"id\":\"{}\",\"min_ns\":{},\"median_ns\":{},\"mean_ns\":{},\
         \"p99_ns\":{},\"max_ns\":{},\"samples\":{},\"iters_per_sample\":{}{elements}}}\n",
        json_escape(group),
        json_escape(&id.to_string()),
        summary.min.as_nanos(),
        summary.median.as_nanos(),
        summary.mean.as_nanos(),
        summary.p99.as_nanos(),
        summary.max.as_nanos(),
        bencher.samples.len(),
        bencher.iters_per_sample,
    );
    let written = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(record.as_bytes()));
    if let Err(error) = written {
        eprintln!("EDF_BENCH_JSON: cannot append to {path}: {error}");
    }
}

fn json_escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named [`BenchmarkGroup`].
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== group {name} ==");
        BenchmarkGroup {
            name,
            settings: Settings::default(),
            throughput: None,
            _criterion: self,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, id: &str, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut group = BenchmarkGroup {
            name: "bench".to_owned(),
            settings: Settings::default(),
            throughput: None,
            _criterion: self,
        };
        group.bench_function(BenchmarkId::from(id), routine);
        self
    }
}

/// Declares a benchmark group function (criterion-compatible spelling).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn summary_reads_nearest_rank_quantiles() {
        let ns = Duration::from_nanos;
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(
            Summary::of(&[ns(7)]),
            Some(Summary {
                min: ns(7),
                median: ns(7),
                mean: ns(7),
                p99: ns(7),
                max: ns(7),
            })
        );
        // Unsorted input; 100 samples 1..=100 ns put the p99 at 99 ns.
        let samples: Vec<Duration> = (1..=100).rev().map(ns).collect();
        let summary = Summary::of(&samples).expect("samples");
        assert_eq!(
            (summary.min, summary.median, summary.p99, summary.max),
            (ns(1), ns(50), ns(99), ns(100))
        );
        assert_eq!(summary.mean, Duration::from_nanos(5050) / 100);
        let summary = Summary::of(&[ns(4), ns(1), ns(3), ns(2)]).expect("samples");
        assert_eq!((summary.median, summary.p99), (ns(2), ns(4)));
    }

    #[test]
    fn json_escape_handles_special_characters() {
        assert_eq!(json_escape("plain/3"), "plain/3");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    /// One test covers every bench-running scenario: the harness reads
    /// `EDF_BENCH_FAST` / `EDF_BENCH_JSON` on every run, so the phase that
    /// mutates the process environment must not execute concurrently with
    /// any other benchmark-running test.
    #[test]
    fn bench_runs_report_clamp_and_append_json() {
        // Phase 1 (environment untouched): the routine runs and reports.
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-self-test");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut calls = 0u64;
        group.bench_with_input(BenchmarkId::new("count", 1), &7u64, |b, &x| {
            b.iter(|| {
                calls += 1;
                x * 2
            })
        });
        group.finish();
        assert!(calls > 0);

        // Phase 2: fast mode clamps oversized budgets and JSON records are
        // appended to the artifact path.
        let path =
            std::env::temp_dir().join(format!("edf_bench_smoke_{}.jsonl", std::process::id()));
        std::env::set_var("EDF_BENCH_FAST", "1");
        std::env::set_var("EDF_BENCH_JSON", &path);

        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-json-test");
        // Deliberately large budgets: fast mode must clamp them away.
        group
            .sample_size(50)
            .measurement_time(Duration::from_secs(30));
        group.bench_function("fast", |b| b.iter(|| 1 + 1));
        group.throughput(Throughput::Elements(4));
        group.bench_function("per_element", |b| b.iter(|| [1u8; 4].len()));
        group.finish();

        std::env::remove_var("EDF_BENCH_FAST");
        std::env::remove_var("EDF_BENCH_JSON");
        let contents = std::fs::read_to_string(&path).expect("artifact written");
        std::fs::remove_file(&path).ok();
        let line = contents
            .lines()
            .find(|l| l.contains("shim-json-test"))
            .expect("record for this benchmark");
        assert!(line.contains("\"id\":\"fast\""));
        let field = |name: &str| -> u128 {
            let start = line.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
            let digits: String = line[start..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect(name)
        };
        let (min, median, mean) = (field("min_ns"), field("median_ns"), field("mean_ns"));
        let (p99, max) = (field("p99_ns"), field("max_ns"));
        assert!(min <= median && median <= p99 && p99 <= max);
        assert!(min <= mean && mean <= max);
        // The 50-sample request was clamped to the smoke budget.
        assert!(line.contains("\"samples\":2"));
        // Only a benchmark under a throughput records its element count.
        assert!(!line.contains("elements"));
        assert!(contents
            .lines()
            .any(|l| l.contains("\"id\":\"per_element\"") && l.ends_with(",\"elements\":4}")));
    }
}

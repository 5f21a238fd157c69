//! The shared run: set up, warm up, measure an untraced window, and in
//! a traced run measure a second, traced window whose spans give the
//! per-layer table.

use std::path::PathBuf;

use crate::loadgen::{late_check, poisson_schedule, Pacer};
use crate::metrics::{per_layer, Report};
use crate::stats::Samples;
use crate::trace::{fold, Tracer};

/// The end-to-end metrics a window measures (`setup_s` comes from the
/// set-up, `peak_rss_mb` from the process at exit).
const WINDOW_E2E: [&str; 2] = ["rows_per_s", "goodput_per_s"];

/// CPU seconds this process has used, all threads included (exited
/// ones too). With paravirtual steal accounting the kernel leaves out
/// time the hypervisor ran other guests on this vCPU, which wall time
/// includes.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores and journals, removed at exit.
    pub work: PathBuf,
}

/// Time slices an open-loop window is cut into by due time. The
/// latency median is taken per slice and then across slices, so a
/// burst of host noise shorter than a slice moves one slice only.
pub const OPEN_SLICES: usize = 5;

/// The slice of an open-loop window that a request due at `due` falls in.
pub fn open_slice(due: f64, seconds: f64) -> usize {
    ((due / seconds * OPEN_SLICES as f64) as usize).min(OPEN_SLICES - 1)
}

/// Requests of one time slice of an open-loop window.
#[derive(Default)]
pub struct Slice {
    pub latency: Samples,
    /// R rows of the slice's successful requests.
    pub rows: f64,
    /// Successful requests within the latency limit.
    pub good: u64,
}

/// What one phase of a run (warm-up, window, tear-down) produced.
#[derive(Default)]
pub struct Window {
    pub report: Report,
    /// Request latencies in seconds.
    pub latency: Samples,
    pub slices: Vec<Slice>,
    /// Operations whose output was checked.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, described.
    pub problems: Vec<String>,
}

impl Window {
    /// Account one request of `rows` R rows in slice `slice`.
    pub fn request(&mut self, slice: usize, ok: bool, rows: u64, latency_s: f64, limit_ms: f64) {
        if self.slices.len() <= slice {
            self.slices.resize_with(slice + 1, Slice::default);
        }
        let sl = &mut self.slices[slice];
        self.attempted += 1;
        self.latency.push(latency_s);
        sl.latency.push(latency_s);
        if !ok {
            self.failed += 1;
        } else {
            sl.rows += rows as f64;
            if latency_s * 1e3 <= limit_ms {
                sl.good += 1;
            }
        }
    }

    /// Account one checked operation that is not a timed request.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// End-to-end metrics of an open-loop window whose last request
    /// completed `wall` seconds after it opened, the process having used
    /// `cpu` CPU seconds meanwhile: rates over the whole window, the
    /// latency median as the median of the slices' medians.
    pub fn finish_open(&mut self, wall: f64, cpu: f64) {
        let n = self.latency.len();
        let rows: f64 = self.slices.iter().map(|s| s.rows).sum();
        let good: u64 = self.slices.iter().map(|s| s.good).sum();
        self.report.set("rows_per_s", rows / wall, n);
        self.report.set("process.rows_per_cpu_s", rows / cpu, n);
        self.report.set("goodput_per_s", good as f64 / wall, n);
        let p50s: Option<Samples> = self
            .slices
            .iter()
            .map(|s| s.latency.quantile(0.5))
            .collect();
        match p50s {
            Some(p50s) => {
                let m = p50s.median_unchecked().unwrap_or(0.0);
                self.report.set("request.latency_p50_ms", m * 1e3, n);
            }
            // Too few requests in a slice for its own median: the
            // median of the whole window.
            None => self
                .report
                .quantile("request.latency_p50_ms", &self.latency, 0.5, 1e3),
        }
    }

    fn absorb_checks(&mut self, other: &Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }
}

/// What serving one request of an inline open loop produced.
pub struct Served {
    /// The request's outputs passed their checks.
    pub ok: bool,
    /// R rows the request joined.
    pub rows: u64,
}

/// An open-loop window whose requests the generator's own thread
/// serves, one at a time in due order: the way to drive a program that
/// is a library call rather than a service. `rate * seconds` Poisson
/// arrivals (see [`poisson_schedule`]); a request due while the thread
/// is idle is sent when due, and one due while the previous request
/// still runs waits for it, the wait counting in its latency.
/// `serve(k, tr, w)` runs request `k` inside a `<name>.request` span and
/// pushes any failed check onto `w.problems`.
pub fn inline_open_loop(
    name: &str,
    args: &Args,
    rate: f64,
    limit_ms: f64,
    tr: &mut Tracer,
    mut serve: impl FnMut(usize, &mut Tracer, &mut Window) -> Result<Served, String>,
) -> Result<Window, String> {
    let mut w = Window::default();
    let due = poisson_schedule(args.seed, rate, args.seconds);
    let span_name = format!("{name}.request");
    let mut late = Samples::new();
    let cpu_start = process_cpu_s();
    let pacer = Pacer::start();
    let mut end = 0.0;
    for (k, &d) in due.iter().enumerate() {
        let req = k as u64;
        if pacer.now() < d {
            let wait = tr.begin("loadgen.wait", req);
            late.push(pacer.wait_until(d));
            tr.end(wait);
        }
        let span = tr.begin(&span_name, req);
        let served = serve(k, tr, &mut w)?;
        tr.end(span);
        end = pacer.now();
        let slice = open_slice(d, args.seconds);
        w.request(slice, served.ok, served.rows, end - d, limit_ms);
    }
    w.finish_open(end.max(f64::MIN_POSITIVE), process_cpu_s() - cpu_start);
    let late_ms = late.max().unwrap_or(0.0) * 1e3;
    w.report.set("loadgen.late_ms_max", late_ms, late.len());
    w.check(late_check(late_ms));
    Ok(w)
}

/// A benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// `mmap` or `sim`.
    const ENV: &'static str;
    /// `wall`, or `wall+virtual` where virtual results are checked too.
    const CLOCK: &'static str;

    /// Build everything the first request needs, several times; the
    /// returned report holds `setup_s`, their median.
    fn setup(args: &Args) -> Result<(Self, Report), String>;

    /// Untimed warm-up.
    fn warm(&mut self, args: &Args) -> Result<Window, String>;

    /// One measured window of `args.seconds`.
    fn window(&mut self, args: &Args, tr: &mut Tracer) -> Result<Window, String>;

    /// Tear down, with any checks that run after the windows.
    fn finish(self, args: &Args) -> Result<Window, String>;
}

/// Everything a run reports.
pub struct Outcome {
    pub env: &'static str,
    pub clock: &'static str,
    pub report: Report,
    pub checks: Window,
    pub tracer: Option<Tracer>,
}

/// Run workload `W`: end-to-end metrics from the untraced window,
/// per-layer metrics from the traced one.
pub fn drive<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let (mut w, mut report) = W::setup(args)?;
    let mut checks = Window::default();

    let warm = w.warm(args)?;
    checks.absorb_checks(&warm);
    report.absorb(&warm.report, |_| true);

    let plain = w.window(args, &mut Tracer::new(false))?;
    checks.absorb_checks(&plain);
    report.absorb(&plain.report, |name| WINDOW_E2E.contains(&name));

    let mut tracer = None;
    if args.trace {
        let mut tr = Tracer::new(true);
        let root = tr.begin(&format!("{}.window", W::NAME), 0);
        let traced = w.window(args, &mut tr)?;
        tr.end(root);
        checks.absorb_checks(&traced);
        report.absorb(&traced.report, |name| !WINDOW_E2E.contains(&name));

        let (_, coverage) = fold(tr.spans());
        report.count("trace.coverage", coverage);
        if coverage < 0.95 {
            checks.check(Some(format!(
                "layer self times cover {:.1}% of the traced window, below 95%",
                coverage * 100.0
            )));
        }
        // Tracing cost shows as longer requests in the traced window.
        let mid = |s: &Samples| s.quantile(0.5).or(s.mean());
        let overhead = match (mid(&traced.latency), mid(&plain.latency)) {
            (Some(t), Some(p)) if p > 0.0 => t / p,
            _ => 0.0,
        };
        report.set("trace.overhead_ratio", overhead, traced.latency.len());
        tracer = Some(tr);
    }

    let last = w.finish(args)?;
    checks.absorb_checks(&last);
    report.absorb(&last.report, |_| true);

    let ratio = if checks.attempted > 0 {
        checks.failed as f64 / checks.attempted as f64
    } else {
        0.0
    };
    report.set("bench.fail_ratio", ratio, checks.attempted as usize);
    for spec in per_layer() {
        if report.get(&spec.name).is_none() {
            report.set(&spec.name, 0.0, 0);
        }
    }
    Ok(Outcome {
        env: W::ENV,
        clock: W::CLOCK,
        report,
        checks,
        tracer,
    })
}

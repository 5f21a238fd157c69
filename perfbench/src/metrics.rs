//! The metric catalogue and the report that must match it exactly.
//!
//! Every metric the benchmark can print is declared here with its unit
//! and direction; `BENCHMARK.json` lists the same names (a test checks
//! both directions). A workload that sets an undeclared name, or leaves
//! a declared one unset, fails the run instead of printing a partial
//! result.

use std::collections::BTreeMap;

use mmjoin::Algo;

use crate::stats::Samples;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn spec(name: impl Into<String>, unit: &'static str, better: Better) -> Spec {
    let name = name.into();
    assert!(valid_name(&name), "invalid metric name {name:?}");
    Spec { name, unit, better }
}

/// A name starts with a letter or digit and has at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A program stage name mapped to the metric alphabet: the kernels name
/// stages like `scan+radix`, and `+` is not allowed in a metric name.
pub fn stage_slug(stage: &str) -> String {
    stage.replace('+', "-")
}

/// The two execution modes `oneshot` rotates through, by metric name.
pub const MODES: [(&str, mmjoin::ExecMode); 2] = [
    ("modern", mmjoin::ExecMode::Modern),
    ("faithful", mmjoin::ExecMode::Threaded),
];

/// The algorithms `oneshot` rotates through.
pub const ALGS: [Algo; 4] = [
    Algo::NestedLoops,
    Algo::SortMerge,
    Algo::Grace,
    Algo::HybridHash,
];

/// The algorithms of the paper's §8 comparison, run by `paper-sim`.
pub const PAPER_ALGS: [Algo; 3] = [Algo::NestedLoops, Algo::SortMerge, Algo::Grace];

/// The stage names `JoinOutput.stage_times` carries for `D = 2`, per
/// mode and algorithm.
pub fn stages(mode: &str, alg: Algo) -> &'static [&'static str] {
    match (mode, alg) {
        ("modern", Algo::NestedLoops) => &["join"],
        ("modern", Algo::SortMerge) => &["scan+sort", "merge+join"],
        ("modern", Algo::Grace) => &["scan+radix", "bucket-join"],
        ("modern", Algo::HybridHash) => &["scan+f0-join", "spill-join"],
        (_, Algo::NestedLoops) => &["all"],
        (_, Algo::SortMerge) => &["setup", "pass0", "phase1", "sort+merge+join"],
        (_, Algo::Grace) => &["setup", "pass0", "phase1", "bucket-join"],
        (_, Algo::HybridHash) => &["setup", "pass0", "phase1", "spill-join"],
        (_, Algo::NaiveNestedLoops) => &["all"],
    }
}

/// The stages that split a join into parts: none for a single-stage
/// join, whose one stage is the join itself.
pub fn breakdown(mode: &str, alg: Algo) -> &'static [&'static str] {
    match stages(mode, alg) {
        [_] => &[],
        many => many,
    }
}

/// Metrics a user of the system sees. Every workload reports all of
/// them; `NOTES.md` states what each means on each workload.
pub fn end_to_end() -> Vec<Spec> {
    use Better::*;
    vec![
        spec("setup_s", "s", Lower),
        spec("rows_per_s", "1/s", Higher),
        spec("goodput_per_s", "1/s", Higher),
        spec("peak_rss_mb", "MB", Lower),
    ]
}

/// Metrics of single layers, read from the traced run. A layer a
/// workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<Spec> {
    use Better::*;
    let mut v = vec![
        spec("request.latency_p50_ms", "ms", Lower),
        spec("process.rows_per_cpu_s", "1/s", Higher),
        spec("relstore.build_s", "s", Lower),
    ];
    for (mode, _) in MODES {
        v.push(spec(format!("core.{mode}.rows_per_s"), "1/s", Higher));
    }
    for (mode, _) in MODES {
        for alg in ALGS {
            let base = format!("core.{mode}.{}", alg.name());
            v.push(spec(format!("{base}.join_ms"), "ms", Lower));
            for stage in breakdown(mode, alg) {
                let s = stage_slug(stage);
                v.push(spec(format!("{base}.{s}_ms"), "ms", Lower));
                v.push(spec(format!("{base}.{s}_share"), "ratio", Lower));
            }
        }
    }
    for (mode, _) in MODES {
        v.push(spec(format!("core.{mode}.s_objects"), "count", Lower));
        v.push(spec(format!("core.{mode}.s_batches"), "count", Lower));
        v.push(spec(format!("core.{mode}.move_bytes"), "bytes", Lower));
        v.push(spec(format!("mmstore.{mode}.map_ops"), "count", Lower));
    }
    v.push(spec("core.cold_rotation_s", "s", Lower));
    for (name, unit, better) in [
        ("serve.submit_us_p50", "us", Lower),
        ("serve.submit_us_p95", "us", Lower),
        ("serve.queue_wait_ms_p50", "ms", Lower),
        ("serve.queue_wait_ms_p95", "ms", Lower),
        ("serve.exec_ms_p50", "ms", Lower),
        ("serve.exec_ms_p95", "ms", Lower),
        ("serve.utilization", "ratio", Lower),
        ("serve.job_setup_ms_p50", "ms", Lower),
        ("serve.join_ms_p50", "ms", Lower),
        ("serve.latency_p95_ms", "ms", Lower),
        ("serve.retries", "count", Lower),
        ("serve.failed", "count", Lower),
        ("stream.open_s", "s", Lower),
        ("stream.warm_s", "s", Lower),
        ("stream.cold_batch_ms", "ms", Lower),
        ("stream.submit_us_p50", "us", Lower),
        ("stream.submit_us_p99", "us", Lower),
        ("stream.queue_wait_ms_p50", "ms", Lower),
        ("stream.queue_wait_ms_p99", "ms", Lower),
        ("stream.probe_ms_p50", "ms", Lower),
        ("stream.probe_ms_p99", "ms", Lower),
        ("stream.delete_ms_mean", "ms", Lower),
        ("stream.append_ms_mean", "ms", Lower),
        ("stream.latency_p99_ms", "ms", Lower),
        ("stream.busy_share", "ratio", Lower),
        ("stream.backpressure", "count", Lower),
        ("stream.misses", "count", Lower),
        ("recovery.journal_commits", "count", Lower),
        ("recovery.commits_per_op", "ratio", Lower),
        ("vmsim.read_faults", "count", Lower),
        ("vmsim.write_backs", "count", Lower),
        ("vmsim.page_hits", "count", Higher),
        ("vmsim.hit_ratio", "ratio", Higher),
        ("vmsim.virtual_s", "s", Lower),
        ("vmsim.io_virtual_s", "s", Lower),
    ] {
        v.push(spec(name, unit, better));
    }
    for alg in PAPER_ALGS {
        v.push(spec(
            format!("vmsim.{}.wall_ms_per_join", alg.name()),
            "ms",
            Lower,
        ));
    }
    for (name, unit, better) in [
        ("model.predict_us", "us", Lower),
        ("loadgen.late_ms_max", "ms", Lower),
        ("bench.fail_ratio", "ratio", Lower),
        ("trace.overhead_ratio", "ratio", Lower),
        ("trace.coverage", "ratio", Higher),
    ] {
        v.push(spec(name, unit, better));
    }
    v
}

/// One reported value and the number of samples behind it (0 when the
/// workload does not exercise the layer, or a quantile was refused).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

/// Values set by a workload, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Report {
    values: BTreeMap<String, Value>,
    /// Quantiles refused for too few samples: (name, samples).
    refused: Vec<(String, usize)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.values.insert(name.to_string(), Value { value, n });
    }

    /// An exact count or a single measurement.
    pub fn count(&mut self, name: &str, value: f64) {
        self.set(name, value, 1);
    }

    /// Nearest-rank quantile of `s`. A refused quantile reads 0 with
    /// `n = 0`, and the refusal is listed in the printed table.
    pub fn quantile(&mut self, name: &str, s: &Samples, p: f64, scale: f64) {
        match s.quantile(p) {
            Some(q) => self.set(name, q * scale, s.len()),
            None => {
                if s.len() > 0 {
                    self.refused.push((name.to_string(), s.len()));
                }
                self.set(name, 0.0, 0);
            }
        }
    }

    pub fn mean(&mut self, name: &str, s: &Samples, scale: f64) {
        self.set(name, s.mean().unwrap_or(0.0) * scale, s.len());
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    pub fn refused(&self) -> &[(String, usize)] {
        &self.refused
    }

    /// Copy the values (and refusals) of `other` whose names pass `keep`.
    pub fn absorb(&mut self, other: &Report, keep: impl Fn(&str) -> bool) {
        for (name, v) in &other.values {
            if keep(name) {
                self.values.insert(name.clone(), *v);
            }
        }
        for r in &other.refused {
            if keep(&r.0) {
                self.refused.push(r.clone());
            }
        }
    }

    /// The values of `specs`, in catalogue order, or an error naming
    /// every missing or non-finite metric.
    pub fn select(&self, specs: &[Spec]) -> Result<Vec<(Spec, Value)>, String> {
        let mut out = Vec::with_capacity(specs.len());
        let mut errors = Vec::new();
        for s in specs {
            match self.values.get(&s.name) {
                Some(v) if v.value.is_finite() => out.push((s.clone(), *v)),
                Some(v) => errors.push(format!("{} is {}", s.name, v.value)),
                None => errors.push(format!("{} was not measured", s.name)),
            }
        }
        if errors.is_empty() {
            Ok(out)
        } else {
            Err(errors.join("; "))
        }
    }

    /// Names set that no catalogue declares.
    pub fn undeclared(&self) -> Vec<String> {
        let declared: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|s| s.name)
            .collect();
        self.values
            .keys()
            .filter(|k| !declared.contains(k))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        let all: Vec<Spec> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(all.len() <= 16 + 128);
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        for s in &all {
            assert!(valid_name(&s.name), "{}", s.name);
            assert!(s.unit.len() <= 16);
            assert!(s
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn stage_names_map_plus_to_dash() {
        assert_eq!(stage_slug("scan+radix"), "scan-radix");
        assert_eq!(stage_slug("sort+merge+join"), "sort-merge-join");
        assert_eq!(stage_slug("bucket-join"), "bucket-join");
        for (mode, _) in MODES {
            for alg in ALGS {
                for stage in breakdown(mode, alg) {
                    let name = format!("core.{mode}.{}.{}_ms", alg.name(), stage_slug(stage));
                    assert!(valid_name(&name), "{name}");
                    assert!(!valid_name(&format!("core.{mode}.{stage}")) || !stage.contains('+'));
                }
            }
        }
    }

    #[test]
    fn name_validation_rejects_outside_the_alphabet() {
        assert!(valid_name("core.modern.grace.scan-radix_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("core.modern.grace.scan+radix_ms"));
        assert!(!valid_name("-leading-dash"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn select_reports_missing_and_non_finite_metrics() {
        let mut r = Report::default();
        r.set("setup_s", 1.0, 3);
        r.set("rows_per_s", f64::NAN, 1);
        let err = r.select(&end_to_end()).unwrap_err();
        assert!(err.contains("rows_per_s is NaN"), "{err}");
        assert!(err.contains("goodput_per_s was not measured"), "{err}");
        r.set("bogus", 1.0, 1);
        assert_eq!(r.undeclared(), vec!["bogus".to_string()]);
    }

    #[test]
    fn refused_quantiles_read_zero_with_no_samples() {
        let mut s = Samples::new();
        for k in 0..15 {
            s.push(f64::from(k));
        }
        let mut r = Report::default();
        r.quantile("serve.exec_ms_p95", &s, 0.95, 1e3);
        assert_eq!(r.get("serve.exec_ms_p95"), Some(Value { value: 0.0, n: 0 }));
        assert_eq!(r.refused(), [("serve.exec_ms_p95".to_string(), 15)]);
    }
}

//! `perfbench`: the repository's benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`oneshot`, `serve`, `stream`, `paper-sim`) against
//! the public entry points of the join layers, checks every output,
//! and prints a table of metrics with units and sample counts, then,
//! as the last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits 1 when
//! an output check failed. `NOTES.md` describes the workloads and
//! metrics.

mod bench;
#[cfg(test)]
mod benchmark_json;
mod loadgen;
mod metrics;
mod oneshot;
mod paper_sim;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{drive, Args, Outcome};
use metrics::{end_to_end, per_layer, Report, Spec, Value};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["oneshot", "serve", "stream", "paper-sim"];

/// Where results and span dumps go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";
/// Parent of each run's scratch directory.
const WORK_DIR: &str = ".bench_work";

fn usage() -> String {
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1\n       perfbench --print-reference",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-reference" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed: u64 = seed.ok_or("missing --seed")?;
    let work = Path::new(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
    Ok(Some(Args {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        work,
    }))
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where the numbers came from.
fn provenance(args: &Args, out: &Outcome) -> Vec<(&'static str, String)> {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "commit",
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        ),
        (
            "source_digest",
            std::env::var("PERFBENCH_SOURCE_DIGEST").unwrap_or_else(|_| "unknown".into()),
        ),
        ("host", host),
        ("nproc", nproc.to_string()),
        ("env", out.env.to_string()),
        ("clock", out.clock.to_string()),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.trace.to_string()),
        // Every window runs after an untimed warm-up.
        ("state", "warm".to_string()),
    ]
}

fn metrics_json(rows: &[(Spec, Value)], with_n: bool) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(s, v)| {
            let n = if with_n {
                format!(", \"n\": {}", v.n)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json_str(&s.name),
                v.value,
                json_str(s.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_table(title: &str, rows: &[(Spec, Value)], report: &Report) {
    println!("{title}");
    println!("{:<44} {:>16} {:<6} {:>7}", "metric", "value", "unit", "n");
    for (s, v) in rows {
        let value = if v.n == 0 {
            "-".to_string()
        } else {
            format!("{:.6}", v.value)
        };
        println!("{:<44} {:>16} {:<6} {:>7}", s.name, value, s.unit, v.n);
    }
    for (name, n) in report.refused() {
        if rows.iter().any(|(s, _)| &s.name == name) {
            println!("refused: {name} has {n} samples, too few beyond the quantile");
        }
    }
}

fn print_layers(tracer: &trace::Tracer) {
    let (table, coverage) = trace::fold(tracer.spans());
    let root_s: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.sync && s.parent.is_none())
        .map(trace::Span::dur)
        .sum();
    println!("per-layer self time of the traced window ({root_s:.3} s wall)");
    println!(
        "{:<44} {:>8} {:>12} {:>8}",
        "span", "count", "self s", "share"
    );
    for (name, l) in &table {
        let share = if l.sync && root_s > 0.0 {
            format!("{:.4}", l.self_s / root_s)
        } else {
            "async".to_string()
        };
        println!(
            "{:<44} {:>8} {:>12.6} {:>8}",
            name, l.spans, l.self_s, share
        );
    }
    println!("coverage {coverage:.4}: share of the window inside layer spans");
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("create {:?}: {e}", args.work))?;
    match args.workload.as_str() {
        "oneshot" => drive::<oneshot::Oneshot>(args),
        "serve" => drive::<serve::Serve>(args),
        "stream" => drive::<stream::Stream>(args),
        "paper-sim" => drive::<paper_sim::PaperSim>(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match paper_sim::print_reference() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(args.work.clone());
    let outcome = run(&args);
    drop(work);
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.report
        .set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), 1);

    let undeclared = out.report.undeclared();
    let specs = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let rows = match out.report.select(&specs) {
        Ok(rows) if undeclared.is_empty() => rows,
        Ok(_) => {
            eprintln!("perfbench: undeclared metrics set: {undeclared:?}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("perfbench: incomplete result: {e}");
            return ExitCode::FAILURE;
        }
    };

    let prov = provenance(&args, &out);
    println!(
        "provenance: {}",
        prov.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(tr) = &out.tracer {
        print_layers(tr);
    }
    let title = if args.trace {
        "per-layer metrics (traced window)"
    } else {
        "end-to-end metrics (untraced window)"
    };
    print_table(title, &rows, &out.report);
    let correct = out.checks.failed == 0;
    for p in &out.checks.problems {
        println!("FAILED CHECK: {p}");
    }
    println!(
        "checks: {} attempted, {} failed, fail_ratio {}",
        out.checks.attempted,
        out.checks.failed,
        out.report.get("bench.fail_ratio").map_or(0.0, |v| v.value)
    );

    // The full record, with provenance and sample counts.
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        let prov_json: Vec<String> = prov
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let all: Vec<Spec> = end_to_end().into_iter().chain(per_layer()).collect();
        let record = format!(
            "{{\"provenance\": {{{}}}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            prov_json.join(", "),
            out.checks.attempted,
            out.checks.failed,
            metrics_json(&out.report.select(&all).unwrap_or_default(), true)
        );
        std::fs::write(Path::new(OUT_DIR).join(format!("{stem}.json")), record)?;
        if let Some(tr) = &out.tracer {
            tr.write_jsonl(&Path::new(OUT_DIR).join(format!("{stem}.spans.jsonl")))?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("perfbench: cannot write {OUT_DIR}/{stem}: {e}");
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checks.attempted,
        out.checks.failed,
        metrics_json(&rows, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

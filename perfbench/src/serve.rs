//! `serve`: independent clients submitting small join jobs to the
//! single-queue service at a fixed Poisson rate (open loop).
//!
//! Jobs are small, so per-job fixed costs dominate: relation build,
//! store file create/map/delete, submit-time sampling and planning for
//! `plan=auto` jobs, and shortest-predicted-first ordering. The job mix
//! is a fixed multiset (so every seed offers the same work), shuffled
//! by the seed; the seed also fixes every job's relations.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mmjoin::ExecMode;
use mmjoin_relstore::PointerDist;
use mmjoin_serve::{
    AdmissionPolicy, EnvKind, JobId, JobRequest, JoinService, PlanMode, ServeConfig, Service,
};

use crate::bench::{open_slice, process_cpu_s, Args, Window, Workload};
use crate::loadgen::{late_check, poisson_schedule, Pacer, Rng};
use crate::metrics::{Report, ALGS};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Offered load in jobs per second: the worker is busy 43-56% of the
/// window on a 2-core shared host, so a slower period of the host does
/// not push it past saturation.
pub const RATE: f64 = 17.0;
/// A job meets its limit when it completes within this of its due time.
pub const LIMIT_MS: f64 = 1000.0;
const OBJ_SIZE: u32 = 64;
const D: u32 = 2;
const MEM_PAGES: u64 = 256;
/// Jobs run and drained before the first window.
const WARMUP_JOBS: usize = 8;
const SETUPS: usize = 9;

pub struct Serve {
    svc: Box<dyn JoinService>,
}

/// `n` jobs: sizes 2^13..2^16 objects, one in four in the faithful
/// threaded mode and the rest modern, the four algorithms in turn, as a
/// fixed multiset shuffled by `seed`. Every fourth job in arrival order
/// has Zipf(1.2) pointers and is planned from a submit-time sample.
pub fn job_mix(seed: u64, n: usize) -> Vec<JobRequest> {
    let mut classes: Vec<(u32, ExecMode, mmjoin::Algo)> = (0..n)
        .map(|k| {
            let mode = if (k / 4) % 4 == 1 {
                ExecMode::Threaded
            } else {
                ExecMode::Modern
            };
            (13 + (k % 4) as u32, mode, ALGS[(k / 16) % 4])
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x5E5E);
    rng.shuffle(&mut classes);
    classes
        .into_iter()
        .enumerate()
        .map(|(i, (log2, mode, alg))| {
            let mut req = JobRequest::new(1 << log2, OBJ_SIZE, D, MEM_PAGES, rng.next_u64());
            req.name = format!("j{i}");
            req.mode = mode;
            if i % 4 == 3 {
                req.workload.dist = PointerDist::Zipf { theta: 1.2 };
                req.plan = PlanMode::Auto;
            } else {
                req.alg = Some(alg);
            }
            req
        })
        .collect()
}

fn start(args: &Args) -> Result<Box<dyn JoinService>, String> {
    let machine = mmjoin_vmsim::calibrated_params(&mmjoin_vmsim::DiskParams::waterloo96())
        .map_err(|e| format!("calibration: {e}"))?;
    let mut cfg = ServeConfig::sim(1 << 32, 1)
        .with_policy(AdmissionPolicy::ShortestPredicted)
        .with_machine(Arc::new(machine));
    cfg.env = EnvKind::Mmap {
        root: args.work.join("serve-store"),
    };
    Ok(Box::new(Service::start(cfg)?))
}

fn check(r: Option<&mmjoin_serve::JobResult>, name: &str) -> Option<String> {
    match r {
        None => Some(format!("{name}: no result")),
        Some(r) if !r.verified || r.error.is_some() => Some(format!(
            "{name}: verified={} error={:?}",
            r.verified, r.error
        )),
        Some(_) => None,
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    const ENV: &'static str = "mmap";
    const CLOCK: &'static str = "wall";

    fn setup(args: &Args) -> Result<(Self, Report), String> {
        let mut setup = Samples::new();
        let mut svc = None;
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            let s = start(args)?;
            setup.push(t0.elapsed().as_secs_f64());
            // Dropping a service drains and stops it.
            drop(svc.replace(s));
        }
        let mut report = Report::default();
        report.set(
            "setup_s",
            setup.median_unchecked().unwrap_or(0.0),
            setup.len(),
        );
        Ok((
            Serve {
                svc: svc.expect("at least one set-up"),
            },
            report,
        ))
    }

    fn warm(&mut self, args: &Args) -> Result<Window, String> {
        let mut w = Window::default();
        let mut ids = Vec::new();
        for req in job_mix(args.seed ^ 0xAAAA, WARMUP_JOBS) {
            ids.push((self.svc.submit(req)?, format!("warm-up job {}", ids.len())));
        }
        self.svc.drain();
        let results: HashMap<JobId, _> =
            self.svc.results().into_iter().map(|r| (r.id, r)).collect();
        for (id, name) in ids {
            w.check(check(results.get(&id), &name));
        }
        Ok(w)
    }

    fn window(&mut self, args: &Args, tr: &mut Tracer) -> Result<Window, String> {
        let mut w = Window::default();
        let due = poisson_schedule(args.seed, RATE, args.seconds);
        let jobs = job_mix(args.seed, due.len());
        let mut late = Samples::new();
        let mut submit = Samples::new();
        let mut sent = Vec::with_capacity(jobs.len());
        let cpu_start = process_cpu_s();
        let pacer = Pacer::start();
        for (i, job) in jobs.into_iter().enumerate() {
            let req = i as u64;
            let wait = tr.begin("loadgen.wait", req);
            late.push(pacer.wait_until(due[i]));
            tr.end(wait);
            let rows = job.workload.rel.r_objects;
            let span = tr.begin("serve.submit", req);
            let ts = Instant::now();
            let id = self.svc.submit(job);
            let te = Instant::now();
            tr.end(span);
            submit.push((te - ts).as_secs_f64());
            sent.push((id, te, rows, span));
        }
        tr.time("serve.drain", 0, |_| self.svc.drain());
        let results: HashMap<JobId, _> = tr.time("serve.collect", 0, |_| {
            self.svc.results().into_iter().map(|r| (r.id, r)).collect()
        });

        let origin = pacer.origin();
        let mut end = 0.0f64;
        let (mut queue, mut exec, mut setup, mut joins) = (
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
        );
        let (mut busy, mut retries, mut failed) = (0.0, 0u64, 0u64);
        for (i, (id, te, rows, span)) in sent.into_iter().enumerate() {
            let name = format!("job {i}");
            let submitted = (te - origin).as_secs_f64();
            let (ok, done) = match &id {
                Err(e) => {
                    w.problems.push(format!("{name}: refused: {e}"));
                    (false, submitted)
                }
                Ok(id) => match results.get(id) {
                    None => {
                        w.problems.push(format!("{name}: no result"));
                        (false, submitted)
                    }
                    Some(r) => {
                        // The service times queue wait from enqueue, which
                        // ends the submit call, and execution from admission.
                        let start = tr.at(te);
                        let admitted = start + r.queue_wait;
                        tr.record("serve.queue_wait", start, admitted, span, i as u64, false);
                        tr.record(
                            "serve.exec",
                            admitted,
                            admitted + r.exec_wall,
                            span,
                            i as u64,
                            false,
                        );
                        queue.push(r.queue_wait);
                        exec.push(r.exec_wall);
                        setup.push(r.exec_wall - r.env_elapsed);
                        joins.push(r.env_elapsed);
                        busy += r.exec_wall;
                        retries += r.retries;
                        let problem = check(Some(r), &name);
                        let ok = problem.is_none();
                        w.problems.extend(problem);
                        (ok, submitted + r.latency())
                    }
                },
            };
            if !ok {
                failed += 1;
            }
            end = end.max(done);
            w.request(
                open_slice(due[i], args.seconds),
                ok,
                rows,
                done - due[i],
                LIMIT_MS,
            );
        }
        let wall = end.max(f64::MIN_POSITIVE);
        w.finish_open(wall, process_cpu_s() - cpu_start);

        let r = &mut w.report;
        r.quantile("serve.submit_us_p50", &submit, 0.5, 1e6);
        r.quantile("serve.submit_us_p95", &submit, 0.95, 1e6);
        r.quantile("serve.queue_wait_ms_p50", &queue, 0.5, 1e3);
        r.quantile("serve.queue_wait_ms_p95", &queue, 0.95, 1e3);
        r.quantile("serve.exec_ms_p50", &exec, 0.5, 1e3);
        r.quantile("serve.exec_ms_p95", &exec, 0.95, 1e3);
        r.quantile("serve.job_setup_ms_p50", &setup, 0.5, 1e3);
        r.quantile("serve.join_ms_p50", &joins, 0.5, 1e3);
        r.quantile("serve.latency_p95_ms", &w.latency, 0.95, 1e3);
        r.set("serve.utilization", busy / wall, exec.len());
        r.count("serve.retries", retries as f64);
        r.count("serve.failed", failed as f64);
        let late_ms = late.max().unwrap_or(0.0) * 1e3;
        r.set("loadgen.late_ms_max", late_ms, late.len());
        w.check(late_check(late_ms));
        Ok(w)
    }

    fn finish(self, _args: &Args) -> Result<Window, String> {
        let mut w = Window::default();
        self.svc.drain();
        let stats = self.svc.stats();
        w.check(
            (stats.budget_leak_bytes != 0)
                .then(|| format!("service leaked {} budget bytes", stats.budget_leak_bytes)),
        );
        Ok(w)
    }
}

//! `stream`: micro-batches of R rows probing a resident S at a fixed
//! Poisson batch rate (open loop), with maintenance mixed in.
//!
//! The session runs on the memory-mapped store with its journal on, in
//! a directory beside (not inside) the store root. Every submit and
//! every completion commits to the journal. After every 100 batches the
//! generator submits `delete=64` then `append=64`, so a read-path gain
//! that slows writes shows, and the reverse too. All of S is touched
//! before the window opens.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_stream::{BatchResult, StreamConfig, StreamHeader, StreamOp, StreamSession};

use crate::bench::{open_slice, process_cpu_s, Args, Window, Workload};
use crate::loadgen::{late_check, poisson_schedule, Pacer, Rng};
use crate::metrics::Report;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Resident `|S|` objects of 64 B.
pub const S_OBJECTS: u64 = 1 << 19;
/// Offered load in batches per second.
pub const RATE: f64 = 50.0;
/// A batch meets its limit when it completes within this of its due time.
pub const LIMIT_MS: f64 = 500.0;
const OBJ_SIZE: u32 = 64;
const D: u32 = 2;
const MEM_PAGES: u64 = 1024;
const PAGE: u64 = 4096;
const BATCH_ROWS: u64 = 1024;
/// Batches between maintenance rounds, and slots each round patches.
const MUTATE_EVERY: usize = 100;
const MUTATE_COUNT: u64 = 64;
const SETUPS: usize = 7;

pub struct Stream {
    session: StreamSession<MmapEnv>,
}

fn header(seed: u64) -> StreamHeader {
    StreamHeader {
        name: "bench".into(),
        s_objects: S_OBJECTS,
        s_size: OBJ_SIZE,
        d: D,
        mem_pages: MEM_PAGES,
        seed,
        // Layout left to the planner.
        modern: false,
    }
}

/// Open a session, run one cold batch, then touch every page of S with
/// one probe row per page. Returns the session and the seconds spent
/// opening, the cold batch's exec milliseconds, and the warm-up seconds.
fn open(
    args: &Args,
    k: usize,
    w: &mut Window,
) -> Result<(StreamSession<MmapEnv>, [f64; 3]), String> {
    let machine = mmjoin_serve::service_machine()?.clone();
    let t0 = Instant::now();
    let env = MmapEnv::new(MmapEnvConfig {
        root: args.work.join(format!("stream-store-{k}")),
        num_disks: D,
        page_size: PAGE,
    })
    .map_err(|e| format!("mmap env: {e}"))?;
    let cfg = StreamConfig {
        journal_dir: Some(args.work.join(format!("stream-journal-{k}"))),
        ..StreamConfig::ephemeral(machine)
    };
    let session = StreamSession::open(Arc::new(env), header(args.seed), cfg)
        .map_err(|e| format!("stream open: {e}"))?;
    let opened = t0.elapsed().as_secs_f64();

    let submit = |op| {
        session
            .submit(op)
            .map_err(|e| format!("stream submit: {e}"))
    };
    submit(StreamOp::Batch {
        name: "cold".into(),
        objects: BATCH_ROWS,
        seed: args.seed,
    })?;
    let per_page = PAGE / OBJ_SIZE as u64;
    let pages: Vec<u64> = (0..S_OBJECTS / per_page).collect();
    for (c, chunk) in pages.chunks(BATCH_ROWS as usize).enumerate() {
        let rows = chunk.iter().map(|&p| (p, p * per_page)).collect();
        submit(StreamOp::BatchRows {
            name: format!("touch{c}"),
            rows,
        })?;
    }
    session.drain();
    let warmed = t0.elapsed().as_secs_f64();
    let results = session.results();
    for r in &results {
        w.check((!r.ok).then(|| format!("set-up op {}: {:?}", r.name, r.error)));
    }
    let cold_ms = results.first().map_or(0.0, |r| r.exec_wall * 1e3);
    Ok((session, [opened, cold_ms, warmed - opened]))
}

impl Workload for Stream {
    const NAME: &'static str = "stream";
    const ENV: &'static str = "mmap";
    const CLOCK: &'static str = "wall";

    fn setup(args: &Args) -> Result<(Self, Report), String> {
        let mut w = Window::default();
        let (mut setup, mut opened, mut cold, mut warm) = (
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
        );
        let mut kept = None;
        for k in 0..SETUPS {
            let (session, [o, c, wm]) = open(args, k, &mut w)?;
            setup.push(o + wm);
            opened.push(o);
            cold.push(c);
            warm.push(wm);
            if let Some(old) = kept.replace(session) {
                old.shutdown();
                for dir in ["stream-store", "stream-journal"] {
                    let _ = std::fs::remove_dir_all(args.work.join(format!("{dir}-{}", k - 1)));
                }
            }
        }
        if let Some(p) = w.problems.first() {
            return Err(format!("set-up check failed: {p}"));
        }
        let mut report = Report::default();
        report.set(
            "setup_s",
            setup.median_unchecked().unwrap_or(0.0),
            setup.len(),
        );
        report.mean("stream.open_s", &opened, 1.0);
        report.mean("stream.warm_s", &warm, 1.0);
        report.mean("stream.cold_batch_ms", &cold, 1.0);
        Ok((
            Stream {
                session: kept.expect("at least one set-up"),
            },
            report,
        ))
    }

    fn warm(&mut self, _args: &Args) -> Result<Window, String> {
        Ok(Window::default())
    }

    fn window(&mut self, args: &Args, tr: &mut Tracer) -> Result<Window, String> {
        let mut w = Window::default();
        let due = poisson_schedule(args.seed, RATE, args.seconds);
        let mut rng = Rng::new(args.seed ^ 0x57EA);
        let mut ops = Vec::with_capacity(due.len() + due.len() / MUTATE_EVERY * 2);
        for (i, &t) in due.iter().enumerate() {
            ops.push((
                t,
                StreamOp::Batch {
                    name: format!("b{i}"),
                    objects: BATCH_ROWS,
                    seed: rng.next_u64(),
                },
            ));
            if (i + 1) % MUTATE_EVERY == 0 {
                let seed = rng.next_u64();
                ops.push((
                    t,
                    StreamOp::Delete {
                        count: MUTATE_COUNT,
                        seed,
                    },
                ));
                ops.push((
                    t,
                    StreamOp::Append {
                        count: MUTATE_COUNT,
                        seed,
                    },
                ));
            }
        }
        let before = self.session.stats();
        let mut late = Samples::new();
        let mut submit = Samples::new();
        let mut sent = Vec::with_capacity(ops.len());
        let cpu_start = process_cpu_s();
        let pacer = Pacer::start();
        for (i, (t, op)) in ops.into_iter().enumerate() {
            let req = i as u64;
            let wait = tr.begin("loadgen.wait", req);
            late.push(pacer.wait_until(t));
            tr.end(wait);
            let rows = match &op {
                StreamOp::Batch { objects, .. } => *objects,
                _ => 0,
            };
            let span = tr.begin("stream.submit", req);
            let ts = Instant::now();
            let seq = self
                .session
                .submit(op)
                .map_err(|e| format!("stream submit: {e}"))?;
            let te = Instant::now();
            tr.end(span);
            submit.push((te - ts).as_secs_f64());
            sent.push((seq, t, te, rows, span));
        }
        tr.time("stream.drain", 0, |_| self.session.drain());
        let results: HashMap<u64, BatchResult> = tr.time("stream.collect", 0, |_| {
            self.session
                .results()
                .into_iter()
                .map(|r| (r.seq, r))
                .collect()
        });
        let after = self.session.stats();

        let origin = pacer.origin();
        let (mut queue, mut probe, mut delete, mut append) = (
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
        );
        let (mut busy, mut end) = (0.0, 0.0f64);
        for (i, (seq, t, te, rows, span)) in sent.iter().enumerate() {
            let Some(r) = results.get(seq) else {
                w.check(Some(format!("op {seq}: no result")));
                continue;
            };
            let start = tr.at(*te);
            let picked = start + r.queue_wait;
            tr.record("stream.queue_wait", start, picked, *span, i as u64, false);
            let exec_span = match r.kind {
                "batch" => "stream.probe",
                "delete" => "stream.delete",
                _ => "stream.append",
            };
            tr.record(
                exec_span,
                picked,
                picked + r.exec_wall,
                *span,
                i as u64,
                false,
            );
            busy += r.exec_wall;
            let done = (*te - origin).as_secs_f64() + r.latency();
            end = end.max(done);
            let problem = (!r.ok).then(|| format!("op {seq} ({}): {:?}", r.name, r.error));
            match r.kind {
                "batch" => {
                    let problem = problem.or_else(|| {
                        (r.pairs + r.misses != *rows).then(|| {
                            format!(
                                "batch {seq}: {} pairs + {} misses for {rows} rows",
                                r.pairs, r.misses
                            )
                        })
                    });
                    let ok = problem.is_none();
                    w.problems.extend(problem);
                    queue.push(r.queue_wait);
                    probe.push(r.exec_wall);
                    w.request(open_slice(*t, args.seconds), ok, *rows, done - t, LIMIT_MS);
                }
                kind => {
                    if kind == "delete" {
                        delete.push(r.exec_wall);
                    } else {
                        append.push(r.exec_wall);
                    }
                    w.check(problem);
                }
            }
        }
        let wall = end.max(f64::MIN_POSITIVE);
        w.finish_open(wall, process_cpu_s() - cpu_start);

        let ops = sent.len() as f64;
        let commits = after.journal_commits - before.journal_commits;
        let r = &mut w.report;
        r.quantile("stream.submit_us_p50", &submit, 0.5, 1e6);
        r.quantile("stream.submit_us_p99", &submit, 0.99, 1e6);
        r.quantile("stream.queue_wait_ms_p50", &queue, 0.5, 1e3);
        r.quantile("stream.queue_wait_ms_p99", &queue, 0.99, 1e3);
        r.quantile("stream.probe_ms_p50", &probe, 0.5, 1e3);
        r.quantile("stream.probe_ms_p99", &probe, 0.99, 1e3);
        r.mean("stream.delete_ms_mean", &delete, 1e3);
        r.mean("stream.append_ms_mean", &append, 1e3);
        r.quantile("stream.latency_p99_ms", &w.latency, 0.99, 1e3);
        r.set("stream.busy_share", busy / wall, sent.len());
        r.count(
            "stream.backpressure",
            (after.backpressure - before.backpressure) as f64,
        );
        r.count("stream.misses", (after.misses - before.misses) as f64);
        r.count("recovery.journal_commits", commits as f64);
        r.set("recovery.commits_per_op", commits as f64 / ops, sent.len());
        let late_ms = late.max().unwrap_or(0.0) * 1e3;
        r.set("loadgen.late_ms_max", late_ms, late.len());
        w.check(late_check(late_ms));
        Ok(w)
    }

    fn finish(self, _args: &Args) -> Result<Window, String> {
        let mut w = Window::default();
        let stats = self.session.stats();
        w.check(
            (stats.failed != 0).then(|| format!("session counted {} failed ops", stats.failed)),
        );
        self.session.shutdown();
        Ok(w)
    }
}

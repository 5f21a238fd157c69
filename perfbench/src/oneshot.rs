//! `oneshot`: single joins of two relations larger than the
//! last-level cache on the real memory-mapped store, sent at a fixed
//! Poisson rate (open loop).
//!
//! A request runs one algorithm in one mode, checks the join against
//! the workload oracle and against the same algorithm's result in the
//! other mode, and deletes the temporary files the join left. Requests
//! cycle through the four algorithms, each in the modern and then in
//! the faithful threaded mode; a warm-up rotation of all eight runs
//! untimed first.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;

use mmjoin::{join, verify, Algo, ExecMode, JoinSpec};
use mmjoin_env::{Env, ProcId};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{build, PointerDist, RelConfig, Relations, WorkloadSpec};

use crate::bench::{inline_open_loop, Args, Served, Window, Workload};
use crate::metrics::{breakdown, stage_slug, stages, Report, ALGS, MODES};
use crate::stats::Samples;
use crate::trace::Tracer;

/// `|R| = |S|` objects: 2 × 64 MiB, together above a 105 MiB L3.
pub const OBJECTS: u64 = 1 << 20;
const OBJ_SIZE: u32 = 64;
const D: u32 = 2;
const MEM_PAGES: u64 = 1024;
const PAGE: u64 = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Offered load in joins per second. A join takes about 0.08 s modern
/// and 0.45 s faithful here, so the client is busy about 45% of the
/// window and a host that runs twice as slow for a while still about
/// keeps up.
pub const RATE: f64 = 1.5;
/// A join meets its limit when it completes within this of its due time.
pub const LIMIT_MS: f64 = 3000.0;

/// The algorithm and the mode (index into [`MODES`]) of request `k`.
fn kind(k: usize) -> (Algo, usize) {
    (ALGS[(k / MODES.len()) % ALGS.len()], k % MODES.len())
}

pub struct Oneshot {
    env: MmapEnv,
    rels: Relations,
    joins: u64,
    /// Pairs and checksum of each algorithm's first join, which every
    /// later join of it, in either mode, must reproduce.
    agreed: HashMap<&'static str, (u64, u64)>,
}

fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        rel: RelConfig {
            r_size: OBJ_SIZE,
            s_size: OBJ_SIZE,
            d: D,
            r_objects: OBJECTS,
            s_objects: OBJECTS,
        },
        dist: PointerDist::Uniform,
        seed,
        prefix: String::new(),
    }
}

fn open_env(root: PathBuf) -> Result<MmapEnv, String> {
    MmapEnv::new(MmapEnvConfig {
        root,
        num_disks: D,
        page_size: PAGE,
    })
    .map_err(|e| format!("mmap env: {e}"))
}

/// Per-mode accumulators of one window.
#[derive(Default)]
struct ModeTotals {
    joins: u64,
    rows: u64,
    wall: f64,
    s_objects: u64,
    s_batches: u64,
    move_bytes: u64,
    map_ops: u64,
}

impl Oneshot {
    /// Run one join, check it, remove its temporary files. Returns the
    /// join's wall seconds and its output.
    fn one_join(
        &mut self,
        alg: Algo,
        mode: (&str, ExecMode),
        tr: &mut Tracer,
        req: u64,
        problems: &mut Vec<String>,
    ) -> Result<(f64, mmjoin::JoinOutput), String> {
        let (mode_name, mode) = mode;
        self.joins += 1;
        let before: HashSet<String> = self.env.list_files().into_iter().collect();
        let spec = JoinSpec::new(MEM_PAGES * PAGE, MEM_PAGES * PAGE)
            .with_mode(mode)
            .with_tag(&format!("j{}", self.joins));
        let name = format!("core.{mode_name}.{}", alg.name());
        self.env.reset_stats();
        let t0 = Instant::now();
        let id = tr.begin(&format!("{name}.join"), req);
        let out = join(&self.env, &self.rels, alg, &spec);
        tr.end(id);
        let wall = t0.elapsed().as_secs_f64();
        let out = out.map_err(|e| format!("{name}: join failed: {e}"))?;

        // Stage boundaries are seconds since `reset_stats`, which the
        // join span starts with.
        let expected = stages(mode_name, alg);
        let got: Vec<&str> = out.stage_times.iter().map(|(s, _)| s.as_str()).collect();
        if got != expected {
            problems.push(format!("{name}: stages {got:?}, expected {expected:?}"));
        } else if tr.enabled() && expected.len() > 1 {
            let base = tr.at(t0);
            let mut prev = 0.0;
            for (stage, end) in &out.stage_times {
                let stage_name = format!("{name}.{}", stage_slug(stage));
                tr.record(&stage_name, base + prev, base + end, id, req, true);
                prev = *end;
            }
        }

        tr.time("core.verify", req, |_| {
            if let Err(e) = verify(&out, &self.rels) {
                problems.push(format!("{name}: {e}"));
            }
        });
        tr.time("mmstore.cleanup", req, |_| -> Result<(), String> {
            for f in self.env.list_files() {
                if !before.contains(&f) {
                    self.env
                        .delete_file(ProcId(0), &f)
                        .map_err(|e| format!("delete {f}: {e}"))?;
                }
            }
            Ok(())
        })?;
        Ok((wall, out))
    }

    /// One request: `alg` in mode `MODES[m]`, its output checked
    /// against the oracle and the algorithm's other joins.
    fn request(
        &mut self,
        alg: Algo,
        m: usize,
        tr: &mut Tracer,
        req: u64,
        totals: &mut ModeTotals,
        problems: &mut Vec<String>,
    ) -> Result<bool, String> {
        let failed_before = problems.len();
        let (wall, out) = self.one_join(alg, MODES[m], tr, req, problems)?;
        let f = out.stats.folded();
        totals.joins += 1;
        totals.rows += OBJECTS;
        totals.wall += wall;
        totals.s_objects += f.s_objects;
        totals.s_batches += f.s_batches;
        totals.move_bytes += f.move_bytes.iter().sum::<u64>();
        totals.map_ops += f.map_ops;
        let first = *self
            .agreed
            .entry(alg.name())
            .or_insert((out.pairs, out.checksum));
        if first != (out.pairs, out.checksum) {
            problems.push(format!(
                "{} {}: (pairs, checksum) ({}, {}) differs from the algorithm's first join {first:?}",
                MODES[m].0,
                alg.name(),
                out.pairs,
                out.checksum
            ));
        }
        Ok(problems.len() == failed_before)
    }
}

impl Workload for Oneshot {
    const NAME: &'static str = "oneshot";
    const ENV: &'static str = "mmap";
    const CLOCK: &'static str = "wall";

    fn setup(args: &Args) -> Result<(Self, Report), String> {
        let spec = spec(args.seed);
        let mut setup = Samples::new();
        let mut build_s = Samples::new();
        let mut kept = None;
        for k in 0..SETUPS {
            let root = args.work.join(format!("oneshot-{k}"));
            let t0 = Instant::now();
            let env = open_env(root.clone())?;
            let tb = Instant::now();
            let rels = build(&env, &spec).map_err(|e| format!("build: {e}"))?;
            build_s.push(tb.elapsed().as_secs_f64());
            setup.push(t0.elapsed().as_secs_f64());
            if k + 1 < SETUPS {
                drop(env);
                std::fs::remove_dir_all(&root).map_err(|e| format!("remove {root:?}: {e}"))?;
            } else {
                kept = Some((env, rels));
            }
        }
        let (env, rels) = kept.expect("at least one set-up");
        let mut report = Report::default();
        report.set(
            "setup_s",
            setup.median_unchecked().unwrap_or(0.0),
            setup.len(),
        );
        report.mean("relstore.build_s", &build_s, 1.0);
        Ok((
            Oneshot {
                env,
                rels,
                joins: 0,
                agreed: HashMap::new(),
            },
            report,
        ))
    }

    fn warm(&mut self, _args: &Args) -> Result<Window, String> {
        let mut w = Window::default();
        let mut totals = ModeTotals::default();
        let t0 = Instant::now();
        for k in 0..ALGS.len() * MODES.len() {
            let (alg, m) = kind(k);
            let mut tr = Tracer::new(false);
            let ok = self.request(alg, m, &mut tr, 0, &mut totals, &mut w.problems)?;
            w.attempted += 1;
            w.failed += u64::from(!ok);
        }
        w.report
            .count("core.cold_rotation_s", t0.elapsed().as_secs_f64());
        Ok(w)
    }

    fn window(&mut self, args: &Args, tr: &mut Tracer) -> Result<Window, String> {
        let mut totals: [ModeTotals; 2] = Default::default();
        let mut w = inline_open_loop("oneshot", args, RATE, LIMIT_MS, tr, |k, tr, w| {
            let (alg, m) = kind(k);
            let ok = self.request(alg, m, tr, k as u64, &mut totals[m], &mut w.problems)?;
            Ok(Served { ok, rows: OBJECTS })
        })?;

        let r = &mut w.report;
        for ((mode, _), t) in MODES.iter().zip(&totals) {
            r.set(
                &format!("core.{mode}.rows_per_s"),
                t.rows as f64 / t.wall,
                t.joins as usize,
            );
            let per_join = |x: u64| x as f64 / t.joins as f64;
            r.count(&format!("core.{mode}.s_objects"), per_join(t.s_objects));
            r.count(&format!("core.{mode}.s_batches"), per_join(t.s_batches));
            r.count(&format!("core.{mode}.move_bytes"), per_join(t.move_bytes));
            r.count(&format!("mmstore.{mode}.map_ops"), per_join(t.map_ops));
        }
        if tr.enabled() {
            for (mode, _) in MODES {
                for alg in ALGS {
                    let base = format!("core.{mode}.{}", alg.name());
                    let joins = tr.durations(&format!("{base}.join"));
                    r.mean(&format!("{base}.join_ms"), &joins, 1e3);
                    for stage in breakdown(mode, alg) {
                        let s = stage_slug(stage);
                        let d = tr.durations(&format!("{base}.{s}"));
                        r.mean(&format!("{base}.{s}_ms"), &d, 1e3);
                        let share = if joins.sum() > 0.0 {
                            d.sum() / joins.sum()
                        } else {
                            0.0
                        };
                        r.set(&format!("{base}.{s}_share"), share, d.len());
                    }
                }
            }
        }
        Ok(w)
    }

    fn finish(self, _args: &Args) -> Result<Window, String> {
        Ok(Window::default())
    }
}

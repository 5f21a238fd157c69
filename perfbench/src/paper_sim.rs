//! `paper-sim`: the paper's §8 workload on the execution-driven
//! simulator, sequential Rprocs, requests sent at a fixed Poisson rate
//! (open loop).
//!
//! A request regenerates one figure point: a fresh simulated machine
//! with the point's memory budget, the relations built on it, the join,
//! the oracle check and the model's prediction. Requests cycle through
//! nested loops, sort-merge and Grace at four memory fractions.
//! The simulator's virtual results are exact: within a run every repeat
//! of a point must reproduce them bit for bit, and the warm-up sweep on
//! the reference seed must equal the values committed in
//! `reference/paper_sim_seed1996.txt`.

use std::collections::HashMap;
use std::time::Instant;

use mmjoin::{inputs_for, join, verify, Algo, ExecMode, JoinSpec};
use mmjoin_env::machine::MachineParams;
use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};
use mmjoin_vmsim::{ContentionMode, Policy, SimConfig, SimEnv};

use crate::bench::{inline_open_loop, Args, Served, Window, Workload};
use crate::metrics::{Report, PAPER_ALGS};
use crate::stats::Samples;
use crate::trace::Tracer;

/// `|R| = |S|` objects of 128 B over `D = 4` disks (§8).
pub const OBJECTS: u64 = 102_400;
const OBJ_SIZE: u32 = 128;
const D: u32 = 4;
const PAGE: u64 = 4096;
/// `M_Rproc / |R|` of each point.
pub const FRACS: [f64; 4] = [0.015, 0.02, 0.04, 0.08];
/// The seed the committed reference was made with.
pub const REFERENCE_SEED: u64 = 1996;
const REFERENCE: &str = include_str!("../reference/paper_sim_seed1996.txt");
/// Offered load in figure points per second. A point takes about
/// 0.14 s here on average, so the client is busy about 45% of the
/// window and a host that runs twice as slow for a while still about
/// keeps up.
pub const RATE: f64 = 3.0;
/// A point meets its limit when it completes within this of its due time.
pub const LIMIT_MS: f64 = 2000.0;
const SETUPS: usize = 21;

/// The exact virtual results of one point.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Virtual {
    pub virtual_s: f64,
    pub read_faults: u64,
    pub write_backs: u64,
    pub page_hits: u64,
    pub io_virtual_s: f64,
}

impl Virtual {
    fn line(&self, alg: Algo, frac: f64) -> String {
        format!(
            "{} {frac} {} {} {} {} {}",
            alg.name(),
            self.virtual_s,
            self.read_faults,
            self.write_backs,
            self.page_hits,
            self.io_virtual_s
        )
    }

    /// Bitwise equality: the reference is exact, not approximate.
    fn same(&self, other: &Virtual) -> bool {
        self.virtual_s.to_bits() == other.virtual_s.to_bits()
            && self.read_faults == other.read_faults
            && self.write_backs == other.write_backs
            && self.page_hits == other.page_hits
            && self.io_virtual_s.to_bits() == other.io_virtual_s.to_bits()
    }
}

/// The committed reference: `(alg, frac) -> Virtual`.
pub fn reference() -> Result<HashMap<(String, String), Virtual>, String> {
    let mut map = HashMap::new();
    for line in REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("bad reference line {line:?}");
        if f.len() != 7 {
            return Err(bad());
        }
        let v = Virtual {
            virtual_s: f[2].parse().map_err(|_| bad())?,
            read_faults: f[3].parse().map_err(|_| bad())?,
            write_backs: f[4].parse().map_err(|_| bad())?,
            page_hits: f[5].parse().map_err(|_| bad())?,
            io_virtual_s: f[6].parse().map_err(|_| bad())?,
        };
        map.insert((f[0].to_string(), f[1].to_string()), v);
    }
    Ok(map)
}

fn points() -> Vec<(Algo, f64)> {
    PAPER_ALGS
        .iter()
        .flat_map(|&a| FRACS.iter().map(move |&f| (a, f)))
        .collect()
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

fn pages(frac: f64) -> u64 {
    (((frac * (OBJECTS * OBJ_SIZE as u64) as f64) as u64) / PAGE).max(4)
}

fn sim_env(machine: &MachineParams, pages: u64) -> Result<SimEnv, String> {
    let mut cfg = SimConfig::waterloo96(D);
    cfg.machine = machine.clone();
    cfg.rproc_pages = pages as usize;
    cfg.sproc_pages = pages as usize;
    cfg.policy = Policy::Lru;
    cfg.contention = ContentionMode::Independent;
    SimEnv::new(cfg).map_err(|e| format!("sim env: {e}"))
}

fn calibrated() -> Result<MachineParams, String> {
    mmjoin_vmsim::calibrated_params(&mmjoin_vmsim::DiskParams::waterloo96())
        .map_err(|e| format!("calibration: {e}"))
}

pub struct PaperSim {
    machine: MachineParams,
    /// Virtual results of every point already run with the run's seed.
    seen: HashMap<usize, Virtual>,
}

/// One figure point. Returns its virtual results and whether the join
/// matched the oracle.
fn point(
    machine: &MachineParams,
    alg: Algo,
    frac: f64,
    seed: u64,
    tr: &mut Tracer,
    req: u64,
) -> Result<(Virtual, Option<String>), String> {
    let pages = pages(frac);
    let env = tr.time("vmsim.setup", req, |_| sim_env(machine, pages))?;
    let rels = tr.time("relstore.build", req, |_| {
        build(&env, &spec(seed)).map_err(|e| format!("build: {e}"))
    })?;
    let jspec = JoinSpec::new(pages * PAGE, pages * PAGE).with_mode(ExecMode::Sequential);
    let out = tr.time(&format!("vmsim.{}.join", alg.name()), req, |_| {
        join(&env, &rels, alg, &jspec).map_err(|e| format!("{} join: {e}", alg.name()))
    })?;
    let problem = tr.time("core.verify", req, |_| {
        verify(&out, &rels)
            .err()
            .map(|e| format!("{} at {frac}: {e}", alg.name()))
    });
    tr.time("model.predict", req, |_| {
        alg.modelled()
            .map(|a| mmjoin_model::predict(a, machine, &inputs_for(&rels, &jspec)).total())
    });
    let f = out.stats.folded();
    Ok((
        Virtual {
            virtual_s: out.elapsed,
            read_faults: f.fault_read_blocks,
            write_backs: f.fault_write_blocks,
            page_hits: f.page_hits,
            io_virtual_s: f.io_time,
        },
        problem,
    ))
}

/// The reference sweep as committed: one line per point.
pub fn print_reference() -> Result<(), String> {
    let machine = calibrated()?;
    println!("# paper-sim virtual reference, seed {REFERENCE_SEED}");
    println!("# alg frac virtual_s read_faults write_backs page_hits io_virtual_s");
    for (alg, frac) in points() {
        let (v, problem) = point(
            &machine,
            alg,
            frac,
            REFERENCE_SEED,
            &mut Tracer::new(false),
            0,
        )?;
        if let Some(p) = problem {
            return Err(p);
        }
        println!("{}", v.line(alg, frac));
    }
    Ok(())
}

impl Workload for PaperSim {
    const NAME: &'static str = "paper-sim";
    const ENV: &'static str = "sim";
    const CLOCK: &'static str = "wall+virtual";

    fn setup(args: &Args) -> Result<(Self, Report), String> {
        let machine = calibrated()?;
        let frac = FRACS[0];
        let mut setup = Samples::new();
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            let env = sim_env(&machine, pages(frac))?;
            build(&env, &spec(args.seed)).map_err(|e| format!("build: {e}"))?;
            setup.push(t0.elapsed().as_secs_f64());
        }
        let mut report = Report::default();
        report.set(
            "setup_s",
            setup.median_unchecked().unwrap_or(0.0),
            setup.len(),
        );
        Ok((
            PaperSim {
                machine,
                seen: HashMap::new(),
            },
            report,
        ))
    }

    /// The reference sweep: every point on the reference seed, compared
    /// value for value with the committed reference.
    fn warm(&mut self, _args: &Args) -> Result<Window, String> {
        let mut w = Window::default();
        let reference = reference()?;
        let mut total = Virtual::default();
        for (alg, frac) in points() {
            let (v, problem) = point(
                &self.machine,
                alg,
                frac,
                REFERENCE_SEED,
                &mut Tracer::new(false),
                0,
            )?;
            let key = (alg.name().to_string(), frac.to_string());
            let problem = problem.or_else(|| match reference.get(&key) {
                None => Some(format!("no reference for {} at {frac}", alg.name())),
                Some(r) if !r.same(&v) => Some(format!(
                    "{} at {frac} differs from the reference:\n  got      {}\n  expected {}",
                    alg.name(),
                    v.line(alg, frac),
                    r.line(alg, frac)
                )),
                Some(_) => None,
            });
            w.check(problem);
            total.virtual_s += v.virtual_s;
            total.read_faults += v.read_faults;
            total.write_backs += v.write_backs;
            total.page_hits += v.page_hits;
            total.io_virtual_s += v.io_virtual_s;
        }
        let r = &mut w.report;
        r.count("vmsim.read_faults", total.read_faults as f64);
        r.count("vmsim.write_backs", total.write_backs as f64);
        r.count("vmsim.page_hits", total.page_hits as f64);
        let accesses = (total.page_hits + total.read_faults) as f64;
        r.count("vmsim.hit_ratio", total.page_hits as f64 / accesses);
        r.count("vmsim.virtual_s", total.virtual_s);
        r.count("vmsim.io_virtual_s", total.io_virtual_s);
        Ok(w)
    }

    fn window(&mut self, args: &Args, tr: &mut Tracer) -> Result<Window, String> {
        let points = points();
        let mut w = inline_open_loop("paper-sim", args, RATE, LIMIT_MS, tr, |k, tr, w| {
            let idx = k % points.len();
            let (alg, frac) = points[idx];
            let (v, problem) = point(&self.machine, alg, frac, args.seed, tr, k as u64)?;
            // Virtual results are a pure function of the inputs.
            let problem = problem.or_else(|| match self.seen.get(&idx) {
                Some(first) if !first.same(&v) => Some(format!(
                    "{} at {frac}: virtual results changed between repeats: {first:?} then {v:?}",
                    alg.name()
                )),
                _ => None,
            });
            self.seen.entry(idx).or_insert(v);
            let ok = problem.is_none();
            w.problems.extend(problem);
            Ok(Served { ok, rows: OBJECTS })
        })?;
        if tr.enabled() {
            for alg in PAPER_ALGS {
                let d = tr.durations(&format!("vmsim.{}.join", alg.name()));
                w.report
                    .mean(&format!("vmsim.{}.wall_ms_per_join", alg.name()), &d, 1e3);
            }
            let predict = tr.durations("model.predict");
            w.report.mean("model.predict_us", &predict, 1e6);
            let builds = tr.durations("relstore.build");
            w.report.mean("relstore.build_s", &builds, 1.0);
        }
        Ok(w)
    }

    fn finish(self, _args: &Args) -> Result<Window, String> {
        Ok(Window::default())
    }
}

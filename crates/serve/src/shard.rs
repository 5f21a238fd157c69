//! One shard of the service: a slice of the global budget with its own
//! admission queue, worker pool, and counters.
//!
//! The paper's staggered-phase schedule removes disk contention *inside*
//! one join; a service with one queue still funnels every job through
//! one lock, one queue, and one budget — a single-resource bottleneck.
//! [`Service::sharded`](crate::Service::sharded) splits the service
//! itself, shared-nothing style ([`Service::start`](crate::Service::start)
//! is the one-shard case):
//!
//! * the global budget is partitioned into per-shard slices (quotient
//!   split; remainders spread over the first shards), so the *sum of
//!   per-shard reservations can never exceed the global budget* — each
//!   shard enforces its own slice locally, without a global lock;
//! * a [`Placement`](crate::Placement) policy picks the owning shard at
//!   submission time (round-robin, least-reserved-bytes, or
//!   planner-predicted backlog balance);
//! * each shard runs `cfg.workers` worker threads against its own queue
//!   under the configured [`AdmissionPolicy`](crate::AdmissionPolicy);
//! * an idle shard with free budget **steals** queued-but-unadmitted
//!   jobs from the sibling with the deepest queue (taking the most
//!   recently placed job first, so the victim's FIFO head is never
//!   overtaken), which corrects placements that turn out unbalanced.
//!   With one shard there is no sibling, so nothing is ever stolen.
//!
//! Stealing invariants: a job is only ever held by one shard (removal
//! from the victim's queue happens under the victim's lock; admission
//! on the thief under the thief's lock; the two are never held at
//! once), admission is re-checked against the thief's slice at admit
//! time, and a steal that loses its room re-queues the job on the thief
//! — never drops it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use mmjoin_env::TraceEvent;
use mmjoin_recovery::JournalRecord;

use crate::admission::Candidate;
use crate::placement::ShardLoad;
use crate::service::{run_job, Inner, Queued};
use crate::stats::ServiceStats;

/// One budget slice with its queue and counters.
pub(crate) struct Shard {
    /// This shard's slice of the global budget, in bytes.
    pub(crate) budget_bytes: u64,
    state: Mutex<ShardState>,
    /// Signalled when this shard's workers may be able to make progress
    /// (new local work, freed budget anywhere, shutdown).
    pub(crate) work: Condvar,
}

#[derive(Default)]
pub(crate) struct ShardState {
    pending: VecDeque<Queued>,
    /// Bytes reserved by running jobs.
    pub(crate) used_bytes: u64,
    /// Footprint bytes of queued (not yet admitted) jobs.
    queued_bytes: u64,
    /// Planner-predicted seconds of queued plus running jobs.
    backlog_seconds: f64,
    running: usize,
    pub(crate) stats: ServiceStats,
    pub(crate) shutdown: bool,
}

impl Shard {
    pub(crate) fn new(budget_bytes: u64) -> Shard {
        Shard {
            budget_bytes,
            state: Mutex::new(ShardState::default()),
            work: Condvar::new(),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn load(&self, id: u32) -> ShardLoad {
        let st = self.lock();
        ShardLoad {
            shard: id,
            budget_bytes: self.budget_bytes,
            reserved_bytes: st.used_bytes + st.queued_bytes,
            queued: st.pending.len(),
            backlog_seconds: st.backlog_seconds,
        }
    }

    /// Append a planned job to this shard's queue.
    pub(crate) fn enqueue(&self, q: Queued) {
        let mut st = self.lock();
        st.queued_bytes += q.req.footprint();
        st.backlog_seconds += q.plan.predicted_seconds();
        st.stats.submitted += 1;
        st.pending.push_back(q);
    }

    /// Per-shard stats snapshot with budget fields filled in.
    pub(crate) fn stats_snapshot(&self) -> ServiceStats {
        let st = self.lock();
        let mut stats = st.stats.clone();
        stats.budget_bytes = self.budget_bytes;
        // Once no job runs, every reservation has been released;
        // anything left is an accounting leak.
        stats.budget_leak_bytes = if st.running == 0 { st.used_bytes } else { 0 };
        stats
    }
}

/// Pop the best steal candidate: scan siblings in descending
/// queued-bytes order and take the *most recently placed* fitting job
/// from the deepest queue. Locks are only ever held one at a time.
fn steal(inner: &Inner, me: usize, free_hint: u64) -> Option<(Queued, u32)> {
    let mut order: Vec<(u64, usize)> = inner
        .shards
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != me)
        .map(|(i, s)| (s.lock().queued_bytes, i))
        .filter(|&(qb, _)| qb > 0)
        .collect();
    order.sort_by_key(|&(queued_bytes, _)| std::cmp::Reverse(queued_bytes));
    for (_, v) in order {
        let mut st = inner.shards[v].lock();
        if let Some(pos) = st
            .pending
            .iter()
            .rposition(|q| q.req.footprint() <= free_hint)
        {
            let q = st.pending.remove(pos).expect("position exists under lock");
            st.queued_bytes -= q.req.footprint();
            st.backlog_seconds = (st.backlog_seconds - q.plan.predicted_seconds()).max(0.0);
            return Some((q, v as u32));
        }
    }
    None
}

pub(crate) fn shard_worker(inner: &Inner, me: usize) {
    let shard = &inner.shards[me];
    loop {
        let mut st = shard.lock();
        // Find the next job: own queue first, then stealing.
        let (job, from) = loop {
            if st.shutdown {
                return;
            }
            let free = shard.budget_bytes - st.used_bytes;
            let candidates: Vec<Candidate> = st
                .pending
                .iter()
                .map(|q| Candidate {
                    footprint: q.req.footprint(),
                    predicted_seconds: q.plan.predicted_seconds(),
                })
                .collect();
            if let Some(q) = inner
                .cfg
                .policy
                .pick(&candidates, free)
                .and_then(|idx| st.pending.remove(idx))
            {
                st.queued_bytes -= q.req.footprint();
                break (q, me as u32);
            }
            // Steal only when the local queue cannot make progress at
            // all and this shard has room — an idle shard, not a greedy
            // one (at most one stolen job is ever re-queued locally, so
            // stealing cannot hoard a sibling's backlog).
            if st.pending.is_empty() && free > 0 {
                drop(st);
                if let Some((q, from)) = steal(inner, me, free) {
                    inner.trace(TraceEvent::JobStolen {
                        job: q.id,
                        from,
                        to: me as u32,
                    });
                    st = shard.lock();
                    let fp = q.req.footprint();
                    if fp <= shard.budget_bytes - st.used_bytes {
                        break (q, from);
                    }
                    // The room disappeared between the hint and now:
                    // keep the job runnable at this shard's queue head.
                    st.queued_bytes += fp;
                    st.backlog_seconds += q.plan.predicted_seconds();
                    st.pending.push_front(q);
                    continue;
                }
                st = shard.lock();
                // Re-check before sleeping: work may have arrived while
                // the lock was dropped for the steal scan.
                if !st.pending.is_empty() || st.shutdown {
                    continue;
                }
            }
            st = shard.work.wait(st).unwrap_or_else(|e| e.into_inner());
        };
        let footprint = job.req.footprint();
        let predicted = job.plan.predicted_seconds();
        let stolen = from != me as u32;
        st.used_bytes += footprint;
        st.running += 1;
        if stolen {
            // A stolen job joins this shard's backlog for the duration
            // of its run (it left the victim's at steal time).
            st.backlog_seconds += predicted;
        }
        st.stats.peak_budget_bytes = st.stats.peak_budget_bytes.max(st.used_bytes);
        let used = st.used_bytes;
        drop(st);
        inner.trace(TraceEvent::JobAdmitted {
            job: job.id,
            footprint,
            used,
            shard: me as u32,
        });

        let (result, folded, passes) = run_job(inner, me, job);

        // Journal the terminal result before it becomes visible in
        // memory: a crash after this commit re-reports, never re-runs.
        if let Some(j) = &inner.journal {
            j.append_commit(&JournalRecord::JobCompleted {
                job: result.id,
                pairs: result.pairs,
                checksum: result.checksum,
                ok: result.error.is_none() && result.verified,
            });
        }

        let mut st = shard.lock();
        // Terminal release — success, error, deadline, and panic paths
        // alike: degradations already returned part of the reservation
        // mid-run, so exactly the remainder is still held. Releasing
        // anything else here (e.g. the degraded job's *halved* footprint)
        // would leak budget on every degraded-then-failed job.
        debug_assert!(result.released_bytes <= footprint);
        st.used_bytes -= footprint - result.released_bytes;
        st.running -= 1;
        st.backlog_seconds = (st.backlog_seconds - predicted).max(0.0);
        if stolen {
            st.stats.stolen += 1;
        }
        st.stats.record(&result, folded.as_ref(), passes.as_ref());
        let ok = result.error.is_none() && result.verified;
        let degraded = result.degraded;
        let id = result.id;
        drop(st);
        inner.trace(TraceEvent::JobCompleted {
            job: id,
            ok,
            degraded,
        });
        inner.complete(result);
        // Freed budget may admit or un-starve a queued job anywhere; a
        // finished job may complete a drain.
        inner.kick_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRequest, PAGE};
    use crate::placement::{Placement, PlacementKind};
    use crate::{JoinService, ServeConfig, Service};
    use mmjoin_env::{CollectingSink, TraceSink};
    use std::sync::Arc;

    fn tiny_job(seed: u64, mem_pages: u64) -> JobRequest {
        JobRequest::new(800, 32, 2, mem_pages, seed)
    }

    fn start(budget_pages: u64, workers: usize, shards: u32, kind: PlacementKind) -> Service {
        Service::sharded(
            ServeConfig::sim(budget_pages * PAGE, workers),
            shards,
            kind.build(),
        )
        .unwrap()
    }

    #[test]
    fn budget_splits_exactly_across_shards() {
        let svc = start(10, 1, 4, PlacementKind::RoundRobin);
        let budgets = svc.shard_budgets();
        assert_eq!(budgets.len(), 4);
        assert_eq!(budgets.iter().sum::<u64>(), 10 * PAGE);
        // Slices differ by at most one byte.
        let (min, max) = (budgets.iter().min(), budgets.iter().max());
        assert!(max.unwrap() - min.unwrap() <= 1);
    }

    #[test]
    fn oversized_for_every_slice_is_rejected() {
        // Global budget 32 pages over 4 shards ⇒ 8-page slices; a
        // 16-page footprint fits the old global budget but no slice.
        let svc = start(32, 1, 4, PlacementKind::LeastLoaded);
        let err = svc.submit(tiny_job(1, 8)).unwrap_err();
        assert!(err.contains("every shard's budget slice"), "{err}");
        let (results, stats) = svc.finish();
        assert!(results.is_empty());
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn batch_completes_under_every_placement() {
        for kind in [
            PlacementKind::RoundRobin,
            PlacementKind::LeastLoaded,
            PlacementKind::PredictedBalanced,
        ] {
            let svc = start(64, 1, 4, kind);
            for seed in 0..8 {
                svc.submit(tiny_job(seed, 4)).unwrap();
            }
            let (results, stats) = svc.finish();
            assert_eq!(results.len(), 8, "{}", kind.name());
            assert!(results.iter().all(|r| r.verified && r.error.is_none()));
            assert_eq!(stats.completed, 8);
            assert_eq!(stats.in_flight(), 0);
            assert_eq!(stats.budget_leak_bytes, 0);
            // Budget invariant: every shard's peak stayed within its
            // slice, so the summed reservation never exceeded the
            // global budget.
            assert!(stats.peak_budget_bytes <= stats.budget_bytes);
            assert_eq!(stats.budget_bytes, 64 * PAGE);
        }
    }

    /// A placement that pins everything to shard 0 — the pathological
    /// input work stealing exists to correct.
    struct PinFirst;

    impl Placement for PinFirst {
        fn name(&self) -> &str {
            "pin0"
        }

        fn place(&self, job: &Candidate, loads: &[ShardLoad]) -> Option<usize> {
            loads
                .first()
                .filter(|l| l.budget_bytes >= job.footprint)
                .map(|_| 0)
        }
    }

    #[test]
    fn idle_shard_steals_from_overloaded_sibling() {
        let sink = CollectingSink::new();
        let cfg = ServeConfig::sim(32 * PAGE, 1).with_trace(sink.clone() as Arc<dyn TraceSink>);
        let svc = Service::sharded(cfg, 2, Box::new(PinFirst)).unwrap();
        for seed in 0..6 {
            svc.submit(tiny_job(seed, 4)).unwrap();
        }
        let (results, stats) = svc.finish();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.verified));
        // Everything was *placed* on shard 0; shard 1 must have stolen
        // at least one queued job and run it.
        assert!(
            results.iter().any(|r| r.shard == 1),
            "shard 1 never ran anything: {:?}",
            results.iter().map(|r| r.shard).collect::<Vec<_>>()
        );
        assert!(stats.stolen >= 1, "no steals recorded: {stats:?}");
        let shard_stats = &stats; // merged
        assert_eq!(shard_stats.completed, 6);
        let events = sink.events();
        let stolen = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobStolen { .. }))
            .count();
        assert!(stolen >= 1, "no JobStolen trace events");
        // Every steal goes 0 → 1 here.
        for e in &events {
            if let TraceEvent::JobStolen { from, to, .. } = e {
                assert_eq!((*from, *to), (0, 1));
            }
        }
    }

    #[test]
    fn sharded_jobs_with_faults_retry_and_all_verify() {
        // Jobs run tagged (`#j<id>`), so a failing attempt's cleanup is
        // scoped to its own temporaries; with retries every job heals.
        let cfg = ServeConfig::sim(64 * PAGE, 2)
            .with_faults(mmjoin_env::FaultSpec::parse("seed=5;write:p=0.001:count=2").unwrap())
            .with_retries(6);
        let svc = Service::sharded(cfg, 2, PlacementKind::LeastLoaded.build()).unwrap();
        for seed in 0..6 {
            JoinService::submit(&svc, tiny_job(seed, 4)).unwrap();
        }
        let (results, stats) = svc.finish();
        assert_eq!(results.len(), 6);
        assert!(
            results.iter().all(|r| r.verified && r.error.is_none()),
            "{:?}",
            results
                .iter()
                .filter(|r| !r.verified)
                .map(|r| (&r.name, &r.error))
                .collect::<Vec<_>>()
        );
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn sharded_resume_replays_and_requeues_across_shards() {
        let dir = std::env::temp_dir().join(format!("mmjoin-resume-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServeConfig::sim(64 * PAGE, 1).with_journal(dir.clone());
        // First life: two completions on a 2-shard service.
        let svc = Service::sharded(cfg(), 2, PlacementKind::RoundRobin.build()).unwrap();
        svc.submit(tiny_job(1, 4)).unwrap();
        svc.submit(tiny_job(2, 4)).unwrap();
        let (mut first, _) = svc.finish();
        first.sort_by_key(|r| r.id);
        // An in-flight job at "crash" time.
        {
            let (j, _) =
                crate::recovery::ServiceJournal::open(&dir, true, mmjoin_env::null_sink()).unwrap();
            j.append_commit(&JournalRecord::JobSubmitted {
                job: 3,
                line: tiny_job(7, 4).to_line(),
            });
        }
        // Second life: resume on the sharded service.
        let svc =
            Service::sharded(cfg().with_resume(), 2, PlacementKind::LeastLoaded.build()).unwrap();
        assert_eq!(JoinService::submit(&svc, tiny_job(9, 4)).unwrap(), 4);
        let (mut results, stats) = svc.finish();
        results.sort_by_key(|r| r.id);
        assert_eq!(results.len(), 4);
        for (r, f) in results[..2].iter().zip(&first) {
            assert!(r.resumed);
            assert_eq!((r.id, r.pairs, r.checksum), (f.id, f.pairs, f.checksum));
        }
        assert!(!results[2].resumed);
        assert!(results[2].verified, "{:?}", results[2].error);
        assert_eq!(stats.journal_resumed_jobs, 1);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.in_flight(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

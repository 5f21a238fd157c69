//! End-to-end test of the join service on the simulator: many
//! concurrent jobs over a global budget smaller than their combined
//! footprint, under both admission policies.

use std::collections::BTreeMap;
use std::sync::Arc;

use mmjoin_env::{CollectingSink, TraceEvent, TraceSink};
use mmjoin_serve::{AdmissionPolicy, JobRequest, JoinService, ServeConfig, Service, PAGE};

/// A mixed batch of 10 jobs: different sizes, memories, distributions.
/// Each job's footprint fits the budget alone; together they exceed it
/// several times over, so the queue and the budget gate are exercised.
fn batch() -> Vec<JobRequest> {
    (0u64..10)
        .map(|i| {
            let d = if i % 2 == 0 { 2 } else { 4 };
            let mut req = JobRequest::new(
                400 * d as u64 + 200 * i * d as u64,
                if i % 3 == 0 { 32 } else { 64 },
                d,
                4 + 2 * (i % 4),
                100 + i,
            );
            req.name = format!("job{i}");
            if i % 3 == 1 {
                req.workload.dist = mmjoin_relstore::PointerDist::Zipf { theta: 0.6 };
            }
            req
        })
        .collect()
}

/// Run the whole batch under one policy; return id → (pairs, checksum).
fn run_batch(policy: AdmissionPolicy, budget_pages: u64) -> BTreeMap<u64, (u64, u64)> {
    let svc = Service::start(ServeConfig::sim(budget_pages * PAGE, 4).with_policy(policy)).unwrap();
    let batch = batch();
    let combined: u64 = batch.iter().map(JobRequest::footprint).sum();
    assert!(
        combined > budget_pages * PAGE,
        "test must oversubscribe the budget (combined {combined} B)"
    );
    let mut ids = Vec::new();
    for req in batch {
        ids.push(svc.submit(req).expect("every job fits the budget alone"));
    }
    let (results, stats) = svc.finish();

    // Every job completed with a verified result — no starvation, no
    // failures — and the reservation high-water mark respected the
    // budget throughout.
    assert_eq!(results.len(), ids.len());
    for r in &results {
        assert!(r.error.is_none(), "job {}: {:?}", r.id, r.error);
        assert!(r.verified, "job {} failed verification", r.id);
        assert!(r.pairs > 0);
        assert!(r.predicted_seconds > 0.0);
    }
    assert_eq!(stats.completed, ids.len() as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.in_flight(), 0);
    assert!(
        stats.peak_budget_bytes <= budget_pages * PAGE,
        "peak {} exceeds budget {}",
        stats.peak_budget_bytes,
        budget_pages * PAGE
    );
    assert!(stats.peak_budget_bytes > 0);

    results
        .into_iter()
        .map(|r| (r.id, (r.pairs, r.checksum)))
        .collect()
}

#[test]
fn oversubscribed_batch_completes_under_both_policies() {
    // Largest single footprint: 10 pages × 4 disks = 40 pages; combined
    // footprints are several hundred pages. 48 pages admits at most a
    // few jobs at a time.
    let fifo = run_batch(AdmissionPolicy::Fifo, 48);
    let spf = run_batch(AdmissionPolicy::ShortestPredicted, 48);

    // Admission order must not change what any join computes: same ids,
    // same pairs, same checksums.
    assert_eq!(fifo, spf);
}

/// ISSUE acceptance: the serve batch under a nonzero fault spec with a
/// fixed seed completes with zero budget-accounting leaks, every
/// non-failed job's join output verifies, and the service counters show
/// the injector fired and the retry layer healed.
#[test]
fn chaos_batch_heals_and_leaks_nothing() {
    let spec = mmjoin_env::FaultSpec::parse("seed=7;read:p=1:after=60:count=2").unwrap();
    assert!(!spec.is_empty());
    let svc = Service::start(
        ServeConfig::sim(64 * PAGE, 4)
            .with_faults(spec)
            .with_retries(4),
    )
    .unwrap();
    for req in batch() {
        svc.submit(req).unwrap();
    }
    let (results, stats) = svc.finish();

    assert_eq!(results.len(), 10);
    for r in &results {
        if r.error.is_none() {
            assert!(r.verified, "job {} completed but did not verify", r.id);
        }
        assert!(!r.panicked, "job {} panicked", r.id);
    }
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(stats.budget_leak_bytes, 0, "budget accounting leaked");
    assert!(
        stats.faults_injected > 0,
        "fault spec never fired: {stats:?}"
    );
    assert!(stats.retries > 0, "retry layer never engaged: {stats:?}");
    // The default spec is fully healable: two transient read faults per
    // job, four attempts of budget — nothing should actually fail.
    let errors: Vec<_> = results.iter().filter_map(|r| r.error.as_deref()).collect();
    assert_eq!(stats.failed, 0, "{errors:?}");
    assert_eq!(stats.completed, 10);
}

/// Degradation must *release* budget, not just shrink the job: a queued
/// job that cannot fit next to the victim's original reservation must
/// be admitted as soon as the first degradation returns bytes to the
/// global pool — provably before the victim leaves the service.
#[test]
fn degradation_releases_budget_and_admits_queued_job() {
    // Job A ("victim"): 8 pages × 4 disks = 32 pages reserved. A
    // diskfull rule scoped to its file prefix fires on every attempt,
    // so A degrades MAX_DEGRADE times and ultimately fails.
    let mut a = JobRequest::new(8_000, 64, 4, 8, 41);
    a.name = "victim".into();
    a.workload.prefix = "victim".into();
    // Job B: 4 pages × 4 disks = 16 pages. Budget is 36 pages, so B
    // cannot be admitted (36 − 32 = 4 free) until A's first degradation
    // frees (8 − 4) × 4 = 16 pages.
    let b = JobRequest::new(800, 64, 4, 4, 42);
    let budget = 36 * PAGE;
    assert!(budget - a.footprint() < b.footprint());

    let spec = mmjoin_env::FaultSpec::parse("seed=3;diskfull:file=victim").unwrap();
    let sink = CollectingSink::new();
    let svc = Service::start(
        ServeConfig::sim(budget, 2)
            .with_faults(spec)
            .with_trace(sink.clone() as Arc<dyn TraceSink>),
    )
    .unwrap();
    let a_id = svc.submit(a).unwrap();
    let b_id = svc.submit(b).unwrap();
    let (results, stats) = svc.finish();

    let ra = results.iter().find(|r| r.id == a_id).unwrap();
    let rb = results.iter().find(|r| r.id == b_id).unwrap();
    assert!(ra.degraded >= 1, "victim never degraded: {ra:?}");
    assert!(ra.released_bytes > 0);
    assert!(
        ra.released_bytes < 32 * PAGE,
        "cannot release more than reserved"
    );
    assert!(ra.error.is_some(), "diskfull on every attempt must fail A");
    assert!(rb.error.is_none(), "B must complete: {:?}", rb.error);
    assert!(rb.verified);

    // Accounting stays exact across mid-run releases: no leak, and the
    // high-water mark never exceeded the budget.
    assert_eq!(stats.budget_leak_bytes, 0);
    assert!(stats.peak_budget_bytes <= budget);
    assert_eq!(stats.degraded, ra.degraded as u64);

    // The trace proves the causality: B's admission comes after A's
    // first degradation — the release made room; B's footprint did not
    // fit before it. (Whether B is admitted before or after A *leaves*
    // is a worker-scheduling race — A's remaining fast-failing attempts
    // can beat B's worker waking up — so the test does not order those.)
    let events = sink.events();
    let pos = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().position(pred);
    let a_degraded = pos(&|e| matches!(e, TraceEvent::JobDegraded { job, .. } if *job == a_id))
        .expect("no JobDegraded event for A");
    let b_admitted = pos(&|e| matches!(e, TraceEvent::JobAdmitted { job, .. } if *job == b_id))
        .expect("no JobAdmitted event for B");
    assert!(
        a_degraded < b_admitted,
        "B admitted at {b_admitted} before A degraded at {a_degraded}"
    );
}

/// Regression: a job that degrades and *then fails terminally* must
/// release its entire remaining reservation — not just the
/// already-released degradation bytes, and not the original footprint
/// twice. The proof is behavioral: after the victim dies, a follow-up
/// job whose footprint equals the **whole** budget must still be
/// admitted (any residual reservation would starve it forever), and the
/// drained service must report zero leaked bytes.
#[test]
fn degraded_then_failed_job_releases_entire_reservation() {
    // Victim: 8 pages × 4 disks = 32 pages — the whole budget. A
    // diskfull rule scoped to its files fires on every attempt, so it
    // degrades MAX_DEGRADE times (releasing bytes mid-run each time)
    // and then fails terminally with only part of its original
    // reservation still held.
    let mut victim = JobRequest::new(8_000, 64, 4, 8, 51);
    victim.name = "victim".into();
    victim.workload.prefix = "victim".into();
    let budget = 32 * PAGE;
    assert_eq!(victim.footprint(), budget);

    // Follower: also exactly the whole budget, unaffected by the fault
    // rule. It can only ever be admitted if the victim's terminal
    // release returned every byte the degradations had not already.
    let follower = JobRequest::new(800, 64, 4, 8, 52);
    assert_eq!(follower.footprint(), budget);

    let spec = mmjoin_env::FaultSpec::parse("seed=3;diskfull:file=victim").unwrap();
    let svc = Service::start(ServeConfig::sim(budget, 2).with_faults(spec)).unwrap();
    let victim_id = svc.submit(victim).unwrap();
    let follower_id = svc.submit(follower).unwrap();
    let (results, stats) = svc.finish();

    let rv = results.iter().find(|r| r.id == victim_id).unwrap();
    let rf = results.iter().find(|r| r.id == follower_id).unwrap();
    assert!(rv.degraded >= 1, "victim never degraded: {rv:?}");
    assert!(
        rv.error.is_some(),
        "persistent diskfull must fail the victim"
    );
    assert!(rv.released_bytes > 0);
    assert!(rv.released_bytes < budget, "cannot release more than held");
    assert!(rf.error.is_none(), "follower must complete: {:?}", rf.error);
    assert!(rf.verified);

    assert_eq!(stats.budget_leak_bytes, 0, "terminal release leaked bytes");
    assert_eq!(stats.in_flight(), 0);
    assert!(stats.peak_budget_bytes <= budget);
}

#[test]
fn service_stats_snapshot_reflects_the_run() {
    let svc = Service::start(ServeConfig::sim(64 * PAGE, 2)).unwrap();
    for req in batch().into_iter().take(4) {
        svc.submit(req).unwrap();
    }
    svc.drain();
    let stats = svc.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    let json = stats.to_json();
    assert!(json.contains("\"submitted\":4"));
    assert!(json.contains("\"completed\":4"));
    // The simulator observed real paging work.
    assert!(stats.agg.fault_read_blocks > 0);
    assert!(stats.env_elapsed_seconds > 0.0);
}

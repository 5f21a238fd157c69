//! A worker node: a TCP wrapper around one local
//! [`Service`](mmjoin_serve::Service).
//!
//! The node is a server socket. The coordinator connects *to* it; the
//! node answers with a [`Message::Hello`] carrying its name and the
//! budget its local admission controller plans against (each node is
//! expected to run with its own calibrated machine profile via
//! [`ServeConfig::with_machine`](mmjoin_serve::ServeConfig)). One
//! connection at a time is served — there is one coordinator — but the
//! accept loop survives disconnects, so a coordinator that restarts or
//! rides out a network blip simply reconnects.
//!
//! # At-least-once dispatch, idempotent dedup
//!
//! Dispatch is at-least-once: the coordinator resends any `RunJob` it
//! is unsure about, and resends happen naturally after reconnects. The
//! node holds the dedup side of the contract:
//!
//! * a `RunJob` for a job currently *running* is ignored;
//! * a `RunJob` for a job already *finished* re-sends the cached
//!   [`Message::JobDone`] instead of re-executing;
//! * finished-job messages are resent on every fresh connection until
//!   the coordinator stops asking (the coordinator dedups by job id on
//!   its side), so a completion can be duplicated on the wire but never
//!   in either side's state.
//!
//! [`NodeServer::kill`] exists for chaos tests: it drops the listener
//! and resets the live connection without any goodbye, which is
//! indistinguishable over TCP from the process being SIGKILLed.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mmjoin_serve::{JobRequest, JoinService, ServeConfig, Service};

use crate::wire::{write_msg, FrameReader, Message};

/// Poll cadence of the per-connection loop: the read timeout that also
/// paces the completion pump.
const POLL: Duration = Duration::from_millis(20);

/// Dedup and result-cache state for one node.
#[derive(Default)]
struct NodeJobs {
    /// Cluster job id → local service id, for jobs in flight.
    running: BTreeMap<u64, u64>,
    /// Local service id → cluster job id (harvesting direction).
    local_to_cluster: BTreeMap<u64, u64>,
    /// Cluster job id → cached `JobDone`, kept forever (results are a
    /// few dozen bytes; a node's lifetime is one benchmark run).
    done: BTreeMap<u64, Message>,
    /// Local results already harvested from the service.
    harvested: usize,
}

struct NodeShared {
    name: String,
    budget_bytes: u64,
    workers: u32,
    speed: f64,
    svc: Service,
    /// Cleared by `Shutdown`, `kill`, or drop; every loop watches it.
    running: AtomicBool,
    /// The live connection, kept so `kill` can reset it abruptly.
    conn: Mutex<Option<TcpStream>>,
    jobs: Mutex<NodeJobs>,
}

impl NodeShared {
    /// Harvest newly finished local results into cached `JobDone`
    /// messages, then return every cached message not yet sent on this
    /// connection (tracked by the caller's `sent` set).
    fn pump(&self, sent: &mut BTreeSet<u64>) -> Vec<Message> {
        let results = self.svc.results();
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        for r in &results[jobs.harvested.min(results.len())..] {
            let Some(cluster) = jobs.local_to_cluster.remove(&r.id) else {
                continue;
            };
            jobs.running.remove(&cluster);
            jobs.done.insert(
                cluster,
                Message::JobDone {
                    job: cluster,
                    alg: r.alg.name().to_string(),
                    pairs: r.pairs,
                    checksum: r.checksum,
                    ok: r.verified,
                    error: r.error.clone().unwrap_or_default(),
                },
            );
        }
        jobs.harvested = results.len();
        let mut out = Vec::new();
        for (id, msg) in &jobs.done {
            if sent.insert(*id) {
                out.push(msg.clone());
            }
        }
        out
    }

    /// Handle one `RunJob`: dedup against running and finished jobs,
    /// else submit to the local service. Returns true when the cached
    /// completion should be resent (the coordinator asked about a job
    /// that already finished — it clearly never saw the result).
    fn accept_job(&self, job: u64, line: &str) -> bool {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if jobs.done.contains_key(&job) {
            return true;
        }
        if jobs.running.contains_key(&job) {
            return false;
        }
        let submitted = match JobRequest::parse_line(line) {
            Ok(Some(req)) => self.svc.submit(req),
            Ok(None) => Err("empty job line".to_string()),
            Err(e) => Err(e),
        };
        match submitted {
            Ok(local) => {
                jobs.running.insert(job, local);
                jobs.local_to_cluster.insert(local, job);
                false
            }
            Err(e) => {
                // A submit-time rejection is reported as a failed
                // completion, which the coordinator records as
                // *terminal* — it does not re-queue failed results onto
                // other nodes. That is sound here because the
                // coordinator only dispatches jobs that fit this node's
                // advertised budget, so a rejection means the request
                // itself is bad (unparsable line, service shutting
                // down), not a transient local condition.
                jobs.done.insert(
                    job,
                    Message::JobDone {
                        job,
                        alg: "auto".into(),
                        pairs: 0,
                        checksum: 0,
                        ok: false,
                        error: e,
                    },
                );
                true
            }
        }
    }

    fn handle(&self, mut stream: TcpStream) -> io::Result<()> {
        // The listener is non-blocking (so the accept loop can watch
        // the running flag); the session socket must not inherit that.
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        *self.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(stream.try_clone()?);
        write_msg(
            &mut stream,
            &Message::Hello {
                node: self.name.clone(),
                budget_bytes: self.budget_bytes,
                workers: self.workers,
                speed: self.speed,
            },
        )?;
        // Completions sent on *this* connection; a reconnect starts
        // empty, so every cached completion is resent (at-least-once).
        let mut sent: BTreeSet<u64> = BTreeSet::new();
        // Per-connection frame state: the poll-timeout read can cut in
        // mid-frame, and the partial bytes must carry over.
        let mut reader = FrameReader::new();
        loop {
            if !self.running.load(Ordering::SeqCst) {
                return Ok(());
            }
            for msg in self.pump(&mut sent) {
                write_msg(&mut stream, &msg)?;
            }
            match reader.read_msg(&mut stream) {
                Ok(Some(Message::RunJob { job, line })) => {
                    if self.accept_job(job, &line) {
                        sent.remove(&job);
                    }
                }
                Ok(Some(Message::Ping { seq })) => {
                    write_msg(&mut stream, &Message::Pong { seq })?;
                }
                Ok(Some(Message::Shutdown)) => {
                    self.running.store(false, Ordering::SeqCst);
                    return Ok(());
                }
                Ok(Some(_)) => {}
                Ok(None) => return Ok(()),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The relative speed a node advertises in its `Hello`: the inverse of
/// its machine profile's predicted seconds for a fixed reference join.
/// Dimensionless — the coordinator only compares ratios between nodes
/// — so any common reference workload works, as long as every node
/// uses the same one. A node whose profile cannot be loaded advertises
/// 1.0 (average) rather than failing registration.
fn advertised_speed(cfg: &ServeConfig) -> f64 {
    let reference = JobRequest::new(20_000, 64, 4, 64, 1);
    match cfg.machine() {
        Ok(m) => {
            let s = mmjoin::choose(m, &reference.planner_inputs()).predicted_seconds();
            if s.is_finite() && s > 0.0 {
                1.0 / s
            } else {
                1.0
            }
        }
        Err(_) => 1.0,
    }
}

/// A running worker node. Dropping it stops the accept loop and the
/// wrapped service's workers.
pub struct NodeServer {
    shared: Arc<NodeShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Bind `listen` (e.g. `127.0.0.1:0` for an ephemeral port), start
    /// the local service from `cfg`, and serve coordinator connections
    /// in a background thread.
    pub fn start(listen: &str, name: &str, cfg: ServeConfig) -> Result<NodeServer, String> {
        let budget_bytes = cfg.budget_bytes;
        let workers = cfg.workers as u32;
        let speed = advertised_speed(&cfg);
        let svc = Service::start(cfg)?;
        let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let shared = Arc::new(NodeShared {
            name: name.to_string(),
            budget_bytes,
            workers,
            speed,
            svc,
            running: AtomicBool::new(true),
            conn: Mutex::new(None),
            jobs: Mutex::new(NodeJobs::default()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(format!("node-{name}"))
            .spawn(move || {
                while accept_shared.running.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Connections are served inline: one
                            // coordinator, one session at a time. An
                            // errored session just waits for the next
                            // connect.
                            let _ = accept_shared.handle(stream);
                            *accept_shared.conn.lock().unwrap_or_else(|e| e.into_inner()) = None;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })
            .map_err(|e| format!("spawn accept loop: {e}"))?;
        Ok(NodeServer {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's registered name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// True until `Shutdown` is received, `kill` is called, or the
    /// server is dropped.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Jobs this node has finished (cached completions).
    pub fn completed(&self) -> usize {
        self.shared
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .done
            .len()
    }

    /// Simulate the process being SIGKILLed: stop accepting, reset the
    /// live connection with no goodbye, and never send another byte.
    /// Over TCP this is indistinguishable from real process death.
    pub fn kill(&self) {
        self.shared.running.store(false, Ordering::SeqCst);
        if let Some(conn) = self
            .shared
            .conn
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Block until the node stops (a coordinator `Shutdown`, or
    /// `kill` from another thread). Used by `mmjoin serve --node`.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.kill();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

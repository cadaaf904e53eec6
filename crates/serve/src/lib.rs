//! `aqed-serve`: a long-lived verification daemon over [`aqed_engine`].
//!
//! The engine made a verification run a value ([`VerifyRequest`] in,
//! outcome out); this crate makes it a *service*: a TCP listener feeds a
//! bounded job queue drained by a persistent worker pool, every worker
//! drives the same [`Engine`] so the cross-request
//! [`aqed_core::ArtifactStore`] stays warm, and each
//! connection streams its job's lifecycle as JSON-lines events.
//!
//! # Wire protocol
//!
//! One JSON object per line in both directions. The client speaks
//! commands:
//!
//! ```text
//! {"cmd":"verify","request":{"case":"aes_v1","bound":12,...}}
//! {"cmd":"cancel"}          cancel this connection's job
//! {"cmd":"ping"}            liveness probe
//! {"cmd":"health"}          queue/worker/store snapshot
//! {"cmd":"shutdown"}        drain the queue and stop the daemon
//! ```
//!
//! The server answers with *events* in exactly the shape the
//! observability JSONL sink writes (`{"ts":..,"tid":..,"ph":"I",
//! "name":..,"args":{..}}`, see `aqed-obs`), so the existing
//! `trace_report` tooling can digest a captured session stream
//! unchanged. Lifecycle names: `job.queued`, `job.started`,
//! `job.heartbeat`, `job.cancel_requested`, `job.done`, `job.error`,
//! `job.rejected`, `server.pong`, `server.health`, `server.shutdown`,
//! `protocol.error`. A `job.done` event carries the exit code, the
//! CLI-identical verdict line and the full report JSON.
//!
//! Input is treated as hostile: reads are bounded by
//! [`ServeOptions::max_line_bytes`], and an oversized line, truncated
//! JSON or unknown command earns a structured `job.rejected` event and a
//! closed connection — never an unbounded buffer, never a worker death.
//!
//! # Cancellation and drain
//!
//! Every job gets a [`StopHandle`] chained off the server root; a
//! client `cancel` (or dropping the connection mid-flight) trips the
//! job's handle and the run drains through the ordinary
//! `Inconclusive {reason: Cancelled}` taxonomy — exit code 2, same as
//! Ctrl-C on the one-shot CLI. Shutdown is graceful: the listener stops
//! accepting, queued jobs still run, workers exit when the queue is
//! empty, and [`Server::join`] returns once they have.
//!
//! # Durability and self-healing
//!
//! With [`ServeOptions::store_dir`] set, the artifact store journals
//! every definitive verdict and cone to disk ([`aqed_core`]'s
//! append-only checksummed journal): a flush runs after every job, on a
//! periodic timer ([`ServeOptions::flush_interval`], covering
//! long multi-obligation runs), and once more when the drain completes —
//! a SIGKILL at any instant loses at most the unflushed window, and the
//! next daemon on the same directory starts warm.
//!
//! Workers are supervised: a worker that dies (panic, chaos injection)
//! has its in-flight job failed to the waiting client through the
//! ordinary `job.error` taxonomy — never silently dropped — and is
//! respawned while the server is accepting work. Queue saturation and
//! connection floods shed load with `job.rejected` instead of queueing
//! unboundedly.

use aqed_core::{ArtifactStore, CheckOutcome, ParallelVerifyReport};
use aqed_engine::{Engine, VerifyRequest};
use aqed_obs::aggregate::Aggregator;
use aqed_obs::json::{self, Json};
use aqed_obs::metrics;
use aqed_obs::{FlightRecorder, JobMeter};
use aqed_sat::StopHandle;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant, SystemTime};

/// How a [`Server`] is configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Address to listen on. Port 0 picks an ephemeral port; read the
    /// bound address back from [`Server::addr`].
    pub addr: String,
    /// Persistent worker threads draining the job queue. Each runs one
    /// job at a time through the shared engine.
    pub workers: usize,
    /// Maximum number of *queued* (not yet started) jobs before new
    /// submissions are rejected with `job.rejected`.
    pub queue_capacity: usize,
    /// Directory for the durable artifact store. `None` keeps the store
    /// in memory (warm within the process, gone with it).
    pub store_dir: Option<PathBuf>,
    /// How often the periodic flusher persists journal records written
    /// mid-run. Ignored for in-memory stores.
    pub flush_interval: Duration,
    /// Longest accepted protocol line; longer input is shed with
    /// `job.rejected` instead of buffered.
    pub max_line_bytes: usize,
    /// Concurrent connections before new ones are shed with
    /// `job.rejected`.
    pub max_connections: usize,
    /// Chaos hook: a worker picking up a job for this case id panics
    /// after `job.started`. Exercises the supervisor in tests; keep
    /// `None` in production.
    pub panic_on_case: Option<String>,
    /// Cadence of `job.heartbeat` events while a job runs. Each
    /// heartbeat carries the job's live progress (elapsed, conflicts so
    /// far, obligations done).
    pub heartbeat_interval: Duration,
    /// Byte budget of the in-memory flight recorder (oldest events
    /// evicted past it). The recorder is always on; this only bounds
    /// its memory.
    pub recorder_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 16,
            store_dir: None,
            flush_interval: Duration::from_millis(500),
            max_line_bytes: 1 << 20,
            max_connections: 64,
            panic_on_case: None,
            heartbeat_interval: Duration::from_secs(1),
            recorder_bytes: 1 << 20,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Writes JSONL events for one connection. Cloned freely: the worker,
/// the heartbeat thread and the connection handler all emit through the
/// same shared stream.
#[derive(Debug, Clone)]
struct Emitter {
    stream: Arc<Mutex<TcpStream>>,
    epoch: Instant,
}

impl Emitter {
    fn emit(&self, name: &str, args: Vec<(&'static str, Json)>) {
        // Mirror the protocol event into the trace stream so the
        // flight recorder sees job lifecycle transitions even when a
        // job dies before any solver activity; the job id (when
        // present) keeps postmortem timelines attributable.
        if aqed_obs::enabled() {
            let job = args
                .iter()
                .find(|(k, _)| *k == "job")
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0);
            aqed_obs::obs_event!("serve.emit", event = name.to_string(), job = job);
        }
        let event = Json::obj(vec![
            ("ts", Json::num(self.epoch.elapsed().as_nanos() as u64)),
            ("tid", Json::num(0)),
            ("ph", Json::Str("I".into())),
            ("name", Json::Str(name.into())),
            ("args", Json::obj(args)),
        ]);
        let mut s = lock(&self.stream);
        // A dead client is not the server's problem: the job still runs
        // to completion (or cancellation via the EOF path) and the event
        // is simply dropped.
        let _ = writeln!(&mut *s, "{event}");
        let _ = s.flush();
    }
}

/// One queued verification job.
struct Job {
    id: u64,
    request: VerifyRequest,
    stop: StopHandle,
    done: Arc<AtomicBool>,
    emitter: Emitter,
    /// Live progress: the scheduler writes, the heartbeat thread reads.
    meter: Arc<JobMeter>,
    /// When the job entered the queue; `job.started` reports the wait.
    queued_at: Instant,
}

/// What the supervisor needs to fail a job whose worker died: enough to
/// emit the terminal `job.error` to the waiting client, and enough
/// context (the request) to write a useful postmortem bundle.
struct InFlight {
    id: u64,
    case: String,
    emitter: Emitter,
    done: Arc<AtomicBool>,
    request: Json,
}

/// The supervisor's view of one worker: a liveness flag flipped by the
/// worker's drop guard (normal exit *and* panic unwind both flip it)
/// and the job it was running when last seen.
struct WorkerSlot {
    alive: Arc<AtomicBool>,
    inflight: Arc<Mutex<Option<InFlight>>>,
}

/// Flips the worker's liveness flag on the way out, however the worker
/// leaves — clean drain or panic unwind.
struct AliveGuard(Arc<AtomicBool>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

struct ServerState {
    engine: Engine,
    artifacts: Arc<ArtifactStore>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    shutdown: AtomicBool,
    /// Set by the supervisor once every worker has exited and the final
    /// flush has run; releases the periodic flusher.
    drained: AtomicBool,
    job_seq: AtomicU64,
    root_stop: StopHandle,
    epoch: Instant,
    slots: Mutex<Vec<WorkerSlot>>,
    connections: AtomicUsize,
    max_connections: usize,
    max_line_bytes: usize,
    flush_interval: Duration,
    panic_on_case: Option<String>,
    heartbeat_interval: Duration,
    /// The always-on flight recorder; also installed as the process
    /// trace sink while this server lives.
    recorder: Arc<FlightRecorder>,
    /// Rolling-window rate/quantile aggregation, advanced by the
    /// flusher tick, exposed by the `stats` command.
    aggregator: Aggregator,
    /// `<store_dir>/postmortem`; `None` (in-memory store) disables
    /// bundle writing.
    postmortem_dir: Option<PathBuf>,
}

impl ServerState {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.queue_cv.notify_all();
    }

    fn health_args(&self) -> Vec<(&'static str, Json)> {
        let (alive, total, active) = {
            let slots = lock(&self.slots);
            let alive = slots
                .iter()
                .filter(|s| s.alive.load(Ordering::Acquire))
                .count();
            let active = slots.iter().filter(|s| lock(&s.inflight).is_some()).count();
            (alive, slots.len(), active)
        };
        vec![
            ("queue_depth", Json::num(lock(&self.queue).len() as u64)),
            ("active_jobs", Json::num(active as u64)),
            ("workers_alive", Json::num(alive as u64)),
            ("workers_total", Json::num(total as u64)),
            (
                "connections",
                Json::num(self.connections.load(Ordering::Acquire) as u64),
            ),
            (
                "draining",
                Json::Bool(self.shutdown.load(Ordering::Acquire)),
            ),
            (
                "uptime_ms",
                Json::num(self.epoch.elapsed().as_millis() as u64),
            ),
            ("store", self.artifacts.stats_json()),
        ]
    }

    /// Payload of the `stats` admin command: the full metrics
    /// exposition (counters, gauges, histogram quantiles, windowed
    /// rates) in both Prometheus text and JSON form, plus flight
    /// recorder occupancy.
    fn stats_args(&self) -> Vec<(&'static str, Json)> {
        let snap = metrics::global().snapshot();
        vec![
            (
                "prometheus",
                Json::Str(self.aggregator.expose_prometheus(&snap)),
            ),
            ("metrics", self.aggregator.expose_json(&snap)),
            ("recorder", self.recorder_json()),
        ]
    }

    fn recorder_json(&self) -> Json {
        Json::obj(vec![
            ("events", Json::num(self.recorder.len() as u64)),
            (
                "approx_bytes",
                Json::num(self.recorder.approx_bytes() as u64),
            ),
            ("max_bytes", Json::num(self.recorder.max_bytes() as u64)),
            ("dropped", Json::num(self.recorder.dropped())),
        ])
    }
}

/// Writes a postmortem bundle — recent flight-recorder events, the
/// metrics exposition, server health, and whatever job context is
/// known — into `<store_dir>/postmortem/`. Returns the bundle path,
/// or `None` when the server runs without a store directory. Bundle
/// writing must never take the server down: all I/O errors are
/// swallowed (the failure is still visible as a missing bundle and an
/// unchanged `serve.postmortems.written` counter).
fn write_postmortem(
    state: &ServerState,
    reason: &str,
    job: Option<(u64, &str)>,
    request: Option<Json>,
    verdict: Option<(u64, String)>,
) -> Option<PathBuf> {
    let dir = state.postmortem_dir.as_ref()?;
    // Drain this thread's pending trace batch into the recorder so the
    // bundle sees the freshest events (other threads flush their own
    // batches at batch boundaries and on exit).
    aqed_obs::flush();
    let events: Vec<Json> = state
        .recorder
        .recent()
        .iter()
        .map(|ev| json::parse(&aqed_obs::sink::event_to_json(ev)).unwrap_or(Json::Null))
        .collect();
    let snap = metrics::global().snapshot();
    let mut fields = vec![
        ("kind", Json::Str("aqed-postmortem".into())),
        ("version", Json::num(1)),
        ("reason", Json::Str(reason.into())),
        (
            "uptime_ms",
            Json::num(state.epoch.elapsed().as_millis() as u64),
        ),
    ];
    if let Some((id, case)) = job {
        fields.push(("job", Json::num(id)));
        fields.push(("case", Json::Str(case.into())));
    }
    if let Some(req) = request {
        fields.push(("request", req));
    }
    if let Some((exit_code, line)) = verdict {
        fields.push(("exit_code", Json::num(exit_code)));
        fields.push(("verdict", Json::Str(line)));
    }
    fields.push(("health", Json::obj(state.health_args())));
    fields.push(("stats", state.aggregator.expose_json(&snap)));
    fields.push(("recorder", state.recorder_json()));
    fields.push(("events", Json::Arr(events)));
    let bundle = Json::obj(fields);
    std::fs::create_dir_all(dir).ok()?;
    let name = match job {
        Some((id, _)) => format!(
            "job{id}-{reason}-{}.json",
            state.epoch.elapsed().as_millis()
        ),
        None => format!("{reason}-{}.json", state.epoch.elapsed().as_millis()),
    };
    let path = dir.join(name);
    std::fs::write(&path, format!("{bundle}\n")).ok()?;
    metrics::global().counter("serve.postmortems.written").inc();
    Some(path)
}

/// A running verification daemon. Construct with [`Server::start`];
/// stop with [`Server::begin_shutdown`] (or a client `shutdown`
/// command) followed by [`Server::join`].
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, opens (and recovers) the artifact store,
    /// spawns the accept loop, the worker pool, its supervisor and the
    /// periodic flusher, and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, store-directory I/O failures (on-disk
    /// *corruption* is recovered from, not an error) and thread-spawn
    /// failures.
    pub fn start(opts: &ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let artifacts = Arc::new(match &opts.store_dir {
            Some(dir) => ArtifactStore::open(dir)?,
            None => ArtifactStore::new(),
        });
        // Always-on flight recorder: install it as the process trace
        // sink and enable observability so every job leaves a bounded
        // in-memory trail for postmortems. The recorder is process
        // global (the obs sink slot is); the last started server owns
        // it, which is exactly one server in a real daemon process.
        let recorder = Arc::new(FlightRecorder::new(opts.recorder_bytes.max(1 << 12)));
        aqed_obs::install_sink(Arc::clone(&recorder) as Arc<dyn aqed_obs::TraceSink>);
        aqed_obs::set_enabled(true);
        let state = Arc::new(ServerState {
            engine: Engine::with_artifacts(Arc::clone(&artifacts)),
            artifacts,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: opts.queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            job_seq: AtomicU64::new(0),
            root_stop: StopHandle::new(),
            epoch: Instant::now(),
            slots: Mutex::new(Vec::new()),
            connections: AtomicUsize::new(0),
            max_connections: opts.max_connections.max(1),
            max_line_bytes: opts.max_line_bytes.max(64),
            flush_interval: opts.flush_interval.max(Duration::from_millis(10)),
            panic_on_case: opts.panic_on_case.clone(),
            heartbeat_interval: opts.heartbeat_interval.max(Duration::from_millis(10)),
            recorder,
            aggregator: Aggregator::standard(),
            postmortem_dir: opts.store_dir.as_ref().map(|d| d.join("postmortem")),
        });
        let mut worker_handles = Vec::with_capacity(opts.workers.max(1));
        {
            let mut slots = lock(&state.slots);
            for i in 0..opts.workers.max(1) {
                let (slot, handle) = spawn_worker(&state, i)?;
                slots.push(slot);
                worker_handles.push(handle);
            }
        }
        let mut threads = Vec::with_capacity(3);
        {
            let state = Arc::clone(&state);
            threads.push(
                thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(&state, &listener))?,
            );
        }
        {
            let state = Arc::clone(&state);
            threads.push(
                thread::Builder::new()
                    .name("serve-supervisor".into())
                    .spawn(move || supervisor_loop(&state, worker_handles))?,
            );
        }
        {
            let state = Arc::clone(&state);
            threads.push(
                thread::Builder::new()
                    .name("serve-flusher".into())
                    .spawn(move || flusher_loop(&state))?,
            );
        }
        Ok(Server {
            state,
            addr,
            threads,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cross-request artifact store every worker shares.
    #[must_use]
    pub fn artifacts(&self) -> &Arc<ArtifactStore> {
        &self.state.artifacts
    }

    /// The always-on flight recorder backing postmortem bundles.
    #[must_use]
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.state.recorder
    }

    /// Starts a graceful drain: stop accepting, run everything already
    /// queued, let workers exit. Idempotent.
    pub fn begin_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Whether a shutdown (client command, [`Server::begin_shutdown`])
    /// has started.
    #[must_use]
    pub fn shutdown_started(&self) -> bool {
        self.state.shutdown.load(Ordering::Acquire)
    }

    /// Cancels every queued and in-flight job through the root
    /// [`StopHandle`] chain, then starts the drain. In-flight runs
    /// return `Inconclusive (cancelled)` to their clients.
    pub fn cancel_all(&self) {
        self.state.root_stop.request_stop();
        self.state.begin_shutdown();
    }

    /// Waits for the accept loop, the supervisor (which in turn joins
    /// every worker, including respawned ones) and the flusher. Returns
    /// once the queue has fully drained — and, for persistent stores,
    /// the final flush has run — after [`Server::begin_shutdown`].
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Spawns one worker thread and returns the supervisor's view of it.
fn spawn_worker(
    state: &Arc<ServerState>,
    index: usize,
) -> io::Result<(WorkerSlot, thread::JoinHandle<()>)> {
    let alive = Arc::new(AtomicBool::new(true));
    let inflight: Arc<Mutex<Option<InFlight>>> = Arc::new(Mutex::new(None));
    let slot = WorkerSlot {
        alive: Arc::clone(&alive),
        inflight: Arc::clone(&inflight),
    };
    let handle = thread::Builder::new()
        .name(format!("serve-worker-{index}"))
        .spawn({
            let state = Arc::clone(state);
            move || {
                let _guard = AliveGuard(alive);
                worker_loop(&state, index, &inflight);
            }
        })?;
    Ok((slot, handle))
}

/// Watches worker liveness: a dead worker's in-flight job is failed to
/// its client (`job.error`, never a silent drop) and the worker is
/// respawned unless the server is draining an empty queue. Exits once
/// shutdown has fully drained, then joins every worker it has ever
/// owned and runs the final flush.
fn supervisor_loop(state: &Arc<ServerState>, mut handles: Vec<thread::JoinHandle<()>>) {
    loop {
        thread::sleep(Duration::from_millis(20));
        let shutdown = state.shutdown.load(Ordering::Acquire);
        let queue_empty = lock(&state.queue).is_empty();
        let mut all_dead = true;
        // Jobs orphaned by dead workers; reported *after* the slots
        // lock is released, because write_postmortem snapshots health
        // (which takes the same lock).
        let mut orphaned = Vec::new();
        {
            let mut slots = lock(&state.slots);
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.alive.load(Ordering::Acquire) {
                    all_dead = false;
                    continue;
                }
                if let Some(job) = lock(&slot.inflight).take() {
                    // `done` may already be set if the worker died in
                    // the narrow window after reporting; swap so the
                    // client gets exactly one terminal event.
                    if !job.done.swap(true, Ordering::AcqRel) {
                        orphaned.push(job);
                    }
                }
                if shutdown && queue_empty {
                    // Normal drain exit; leave the slot dead.
                    continue;
                }
                // A spawn failure (resource exhaustion) leaves the
                // slot dead; it is retried on the next tick.
                if let Ok((fresh, handle)) = spawn_worker(state, i) {
                    *slot = fresh;
                    handles.push(handle);
                    all_dead = false;
                    metrics::global().counter("serve.workers.respawned").inc();
                }
            }
        }
        for job in orphaned {
            metrics::global().counter("serve.jobs.failed").inc();
            job.emitter.emit(
                "job.error",
                vec![
                    ("job", Json::num(job.id)),
                    ("exit_code", Json::num(2)),
                    ("case", Json::Str(job.case.clone())),
                    (
                        "message",
                        Json::Str("worker died while running this job; resubmit to retry".into()),
                    ),
                ],
            );
            write_postmortem(
                state,
                "worker-died",
                Some((job.id, &job.case)),
                Some(job.request),
                Some((2, "worker died while running this job".into())),
            );
        }
        if shutdown && queue_empty && all_dead {
            break;
        }
    }
    for h in handles {
        let _ = h.join();
    }
    // Flush-on-drain: after the last worker reported its last job,
    // nothing else will journal; make it all durable before `join`
    // returns.
    let _ = state.artifacts.flush();
    state.drained.store(true, Ordering::Release);
}

/// Persists journal records written mid-run (each obligation's verdict
/// is journaled as it completes, not only at job end) every
/// [`ServeOptions::flush_interval`], so a SIGKILL during a long run
/// loses at most one interval of finished obligations.
fn flusher_loop(state: &Arc<ServerState>) {
    while !state.drained.load(Ordering::Acquire) {
        let mut slept = Duration::ZERO;
        while slept < state.flush_interval && !state.drained.load(Ordering::Acquire) {
            let step = Duration::from_millis(20).min(state.flush_interval - slept);
            thread::sleep(step);
            slept += step;
        }
        let _ = state.artifacts.flush();
        // Advance the rolling-window aggregation on the same cadence:
        // one counter snapshot per flush interval is what the `stats`
        // command's windowed rates diff against.
        state.aggregator.tick(metrics::global());
    }
}

/// Decrements the live-connection count when a handler exits, however
/// it exits.
struct ConnGuard(Arc<ServerState>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(state: &Arc<ServerState>, listener: &TcpListener) {
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Load shedding: past the connection cap, answer with a
                // structured rejection instead of queueing the socket.
                let active = state.connections.fetch_add(1, Ordering::AcqRel) + 1;
                if active > state.max_connections {
                    state.connections.fetch_sub(1, Ordering::AcqRel);
                    metrics::global().counter("serve.connections.shed").inc();
                    let emitter = Emitter {
                        stream: Arc::new(Mutex::new(stream)),
                        epoch: state.epoch,
                    };
                    emitter.emit(
                        "job.rejected",
                        vec![(
                            "reason",
                            Json::Str(format!(
                                "server overloaded ({} concurrent connections)",
                                state.max_connections
                            )),
                        )],
                    );
                    continue;
                }
                let conn_state = Arc::clone(state);
                // Handlers are detached: they exit when the client
                // closes its end (and cancel their job if it is still
                // running at that point).
                let spawned = thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        let guard = ConnGuard(Arc::clone(&conn_state));
                        let _ = handle_connection(&conn_state, stream);
                        drop(guard);
                    });
                if spawned.is_err() {
                    // The guard never ran; undo the reservation.
                    state.connections.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One bounded protocol read.
enum LineRead {
    /// A complete line within the limit (possibly empty).
    Line,
    /// Clean end of stream.
    Eof,
    /// The line exceeded the limit; the connection should be shed.
    Oversized,
    /// Undecodable bytes or a transport error.
    Failed,
}

/// Reads one `\n`-terminated line, refusing to buffer more than `max`
/// bytes — a malicious client cannot balloon server memory.
fn read_bounded_line(reader: &mut BufReader<TcpStream>, line: &mut String, max: usize) -> LineRead {
    line.clear();
    // `take` caps this read at max+1 bytes: seeing max+1 without a
    // newline proves the line is oversized without buffering it.
    match reader.by_ref().take(max as u64 + 1).read_line(line) {
        Ok(0) => LineRead::Eof,
        Ok(n) if n > max && !line.ends_with('\n') => LineRead::Oversized,
        Ok(_) => LineRead::Line,
        Err(_) => LineRead::Failed,
    }
}

/// Reads commands off one connection. Returns on EOF, a rejected or
/// malformed command, or `shutdown`.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) -> io::Result<()> {
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let emitter = Emitter {
        stream: writer,
        epoch: state.epoch,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // The one job this connection may own: its stop handle and done
    // flag, so EOF-with-job-in-flight cancels it (nobody is listening
    // for the result any more).
    let mut job: Option<(u64, StopHandle, Arc<AtomicBool>)> = None;
    let reject = |reason: String| {
        metrics::global().counter("serve.jobs.rejected").inc();
        emitter.emit("job.rejected", vec![("reason", Json::Str(reason))]);
    };
    loop {
        match read_bounded_line(&mut reader, &mut line, state.max_line_bytes) {
            LineRead::Line => {}
            LineRead::Eof | LineRead::Failed => break,
            LineRead::Oversized => {
                reject(format!(
                    "command line exceeds {} bytes",
                    state.max_line_bytes
                ));
                break;
            }
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let Ok(msg) = json::parse(text) else {
            reject("malformed JSON command".into());
            break;
        };
        match msg.get("cmd").and_then(Json::as_str) {
            Some("verify") => {
                if job.is_some() {
                    emitter.emit(
                        "protocol.error",
                        vec![("message", Json::Str("one verify per connection".into()))],
                    );
                    break;
                }
                match submit_job(state, &emitter, &msg) {
                    Ok(accepted) => job = Some(accepted),
                    // Rejected (queue full / draining / bad request):
                    // the reject event has been emitted; close.
                    Err(()) => break,
                }
            }
            Some("cancel") => {
                if let Some((id, stop, _)) = &job {
                    stop.request_stop();
                    metrics::global().counter("serve.jobs.cancelled").inc();
                    emitter.emit("job.cancel_requested", vec![("job", Json::num(*id))]);
                }
            }
            Some("ping") => emitter.emit("server.pong", vec![]),
            Some("health") => emitter.emit("server.health", state.health_args()),
            Some("stats") => emitter.emit("server.stats", state.stats_args()),
            Some("dump") => {
                let args = match write_postmortem(state, "manual-dump", None, None, None) {
                    Some(path) => vec![("path", Json::Str(path.display().to_string()))],
                    None => vec![(
                        "error",
                        Json::Str("postmortem bundles need --store-dir".into()),
                    )],
                };
                emitter.emit("server.dump", args);
            }
            Some("shutdown") => {
                state.begin_shutdown();
                emitter.emit("server.shutdown", vec![]);
                break;
            }
            Some(other) => {
                reject(format!("unknown command '{other}'"));
                break;
            }
            None => {
                reject("command must carry a string 'cmd' field".into());
                break;
            }
        }
    }
    // Client hung up. A job nobody is waiting for should not burn a
    // worker: cancel it if it has not completed.
    if let Some((_, stop, done)) = job {
        if !done.load(Ordering::Acquire) {
            stop.request_stop();
        }
    }
    Ok(())
}

/// Parses and enqueues a verify command; emits `job.queued` or
/// `job.rejected`.
fn submit_job(
    state: &Arc<ServerState>,
    emitter: &Emitter,
    msg: &Json,
) -> Result<(u64, StopHandle, Arc<AtomicBool>), ()> {
    let reject = |reason: String| {
        metrics::global().counter("serve.jobs.rejected").inc();
        emitter.emit("job.rejected", vec![("reason", Json::Str(reason))]);
        Err(())
    };
    let request = match msg.get("request") {
        Some(r) => match VerifyRequest::from_json(r) {
            Ok(req) => req,
            Err(e) => return reject(e),
        },
        None => return reject("verify needs a 'request' object".into()),
    };
    let id = state.job_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let stop = state.root_stop.child();
    let done = Arc::new(AtomicBool::new(false));
    let case = request.case.clone();
    let job = Job {
        id,
        request,
        stop: stop.clone(),
        done: Arc::clone(&done),
        emitter: emitter.clone(),
        meter: Arc::new(JobMeter::new()),
        queued_at: Instant::now(),
    };
    let depth = {
        let mut q = lock(&state.queue);
        if state.shutdown.load(Ordering::Acquire) {
            drop(q);
            return reject("server is draining".into());
        }
        if q.len() >= state.queue_capacity {
            drop(q);
            return reject(format!("queue full ({} queued jobs)", state.queue_capacity));
        }
        q.push_back(job);
        q.len()
    };
    state.queue_cv.notify_one();
    metrics::global().counter("serve.jobs.accepted").inc();
    emitter.emit(
        "job.queued",
        vec![
            ("job", Json::num(id)),
            ("case", Json::Str(case)),
            ("queue_depth", Json::num(depth as u64)),
        ],
    );
    Ok((id, stop, done))
}

fn worker_loop(state: &Arc<ServerState>, worker: usize, inflight: &Mutex<Option<InFlight>>) {
    loop {
        let job = {
            let mut q = lock(&state.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                // Drain semantics: exit only once the queue is empty.
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = state
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        run_job(state, worker, job, inflight);
    }
}

fn run_job(state: &Arc<ServerState>, worker: usize, job: Job, inflight: &Mutex<Option<InFlight>>) {
    // Register with the supervisor *before* anything can go wrong, so a
    // worker death at any later point fails this job instead of
    // dropping it.
    *lock(inflight) = Some(InFlight {
        id: job.id,
        case: job.request.case.clone(),
        emitter: job.emitter.clone(),
        done: Arc::clone(&job.done),
        request: job.request.to_json(),
    });
    job.emitter.emit(
        "job.started",
        vec![
            ("job", Json::num(job.id)),
            ("case", Json::Str(job.request.case.clone())),
            ("worker", Json::num(worker as u64)),
            (
                "queue_wait_ms",
                Json::Num(job.queued_at.elapsed().as_secs_f64() * 1e3),
            ),
        ],
    );
    if state
        .panic_on_case
        .as_deref()
        .is_some_and(|c| c == job.request.case)
    {
        panic!(
            "chaos: injected worker panic for case '{}'",
            job.request.case
        );
    }
    // Progress heartbeat: proof of life while the solver grinds, so a
    // client can distinguish "queued behind others" from "running".
    // Each beat carries the live progress off the shared meter.
    let beat = {
        let emitter = job.emitter.clone();
        let done = Arc::clone(&job.done);
        let meter = Arc::clone(&job.meter);
        let interval = state.heartbeat_interval;
        let id = job.id;
        let started = Instant::now();
        thread::spawn(move || loop {
            // Sleep in short steps so job completion is observed within
            // ~10ms — the heartbeat must never add latency to the job.
            let mut slept = Duration::ZERO;
            while slept < interval {
                let step = Duration::from_millis(10).min(interval - slept);
                thread::sleep(step);
                slept += step;
                if done.load(Ordering::Acquire) {
                    return;
                }
            }
            emitter.emit(
                "job.heartbeat",
                vec![
                    ("job", Json::num(id)),
                    (
                        "elapsed_ms",
                        Json::num(started.elapsed().as_millis() as u64),
                    ),
                    // Beats only run between job.started and job.done.
                    ("phase", Json::Str("running".into())),
                    ("conflicts", Json::num(meter.conflicts())),
                    ("obligations_done", Json::num(meter.obligations_done())),
                    ("obligations_total", Json::num(meter.obligations_total())),
                ],
            );
        })
    };
    let result =
        state
            .engine
            .verify_metered(&job.request, Some(&job.stop), Some(Arc::clone(&job.meter)));
    // `swap` so the supervisor and this worker agree on who reports the
    // terminal event if the worker dies in the reporting window.
    let already_reported = job.done.swap(true, Ordering::AcqRel);
    let _ = beat.join();
    if !already_reported {
        match result {
            Ok(outcome) => {
                metrics::global().counter("serve.jobs.completed").inc();
                let exit_code = outcome.exit_code() as u64;
                let verdict = verdict_line(&outcome.report);
                job.emitter.emit(
                    "job.done",
                    vec![
                        ("job", Json::num(job.id)),
                        ("exit_code", Json::num(exit_code)),
                        ("verdict", Json::Str(verdict.clone())),
                        ("cache_hits", Json::num(outcome.report.cache_hits)),
                        ("report", outcome.report.to_json()),
                    ],
                );
                // Errored or degraded runs (obligation panic, unsound
                // witness, engine-level failure) leave a postmortem
                // bundle behind for offline triage.
                let errored = matches!(outcome.report.outcome, CheckOutcome::Errored { .. });
                if errored || outcome.report.degraded {
                    write_postmortem(
                        state,
                        "job-errored",
                        Some((job.id, &job.request.case)),
                        Some(job.request.to_json()),
                        Some((exit_code, verdict)),
                    );
                }
            }
            Err(e) => {
                metrics::global().counter("serve.jobs.failed").inc();
                job.emitter.emit(
                    "job.error",
                    vec![
                        ("job", Json::num(job.id)),
                        ("exit_code", Json::num(2)),
                        ("message", Json::Str(e.to_string())),
                    ],
                );
                write_postmortem(
                    state,
                    "engine-error",
                    Some((job.id, &job.request.case)),
                    Some(job.request.to_json()),
                    Some((2, format!("error: {e}"))),
                );
            }
        }
    }
    *lock(inflight) = None;
    // Per-job flush: the engine already flushed after the run; this
    // covers the rejected/errored paths and keeps the guarantee local.
    let _ = state.artifacts.flush();
}

/// The verdict line for a report, character-identical to what
/// `aqed verify` prints, so service and one-shot outputs diff clean
/// (modulo the timing parenthetical).
#[must_use]
pub fn verdict_line(report: &ParallelVerifyReport) -> String {
    match &report.outcome {
        CheckOutcome::Bug { counterexample, .. } => format!(
            "bug: {counterexample} ({:?}, {} clauses)",
            report.runtime, report.aggregate.clauses
        ),
        CheckOutcome::Clean { bound } => format!(
            "clean up to bound {bound} ({:?}, {} clauses)",
            report.runtime, report.aggregate.clauses
        ),
        CheckOutcome::Inconclusive { bound, reason } => {
            format!("inconclusive at bound {bound} ({reason})")
        }
        CheckOutcome::Errored { message } => format!("error: {message}"),
    }
}

/// What a client learned from one submitted job.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The run's exit taxonomy (0 clean, 1 bug, 2 inconclusive /
    /// errored / rejected).
    pub exit_code: i32,
    /// The CLI-identical verdict line (or `error: ...` for
    /// rejections/failures).
    pub verdict: String,
    /// The full report JSON from `job.done`, when the job ran.
    pub report: Option<Json>,
    /// True when the server refused to queue the job.
    pub rejected: bool,
}

/// Submits `req` and blocks until the job completes. See
/// [`submit_with`] for cancellation and event streaming, and
/// [`submit_retrying`] for resilience to daemon restarts.
///
/// # Errors
///
/// Propagates connection failures and protocol violations as
/// [`io::Error`].
pub fn submit(addr: impl ToSocketAddrs, req: &VerifyRequest) -> io::Result<SubmitOutcome> {
    submit_with(addr, req, None, |_| {})
}

/// Submits `req`, optionally sending a `cancel` after `cancel_after`,
/// invoking `on_event` for every event line the server streams, and
/// blocking until the job reaches a terminal event.
///
/// # Errors
///
/// Propagates connection failures; a server that closes the stream
/// before the job completes surfaces as [`io::ErrorKind::UnexpectedEof`].
pub fn submit_with(
    addr: impl ToSocketAddrs,
    req: &VerifyRequest,
    cancel_after: Option<Duration>,
    mut on_event: impl FnMut(&Json),
) -> io::Result<SubmitOutcome> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let cmd = Json::obj(vec![
        ("cmd", Json::Str("verify".into())),
        ("request", req.to_json()),
    ]);
    writeln!(writer, "{cmd}")?;
    writer.flush()?;
    if let Some(delay) = cancel_after {
        let mut w = stream.try_clone()?;
        // Fire-and-forget: if the job finishes first the extra command
        // lands on a connection whose job is already done and the
        // server ignores it (or the write fails — equally fine).
        thread::spawn(move || {
            thread::sleep(delay);
            let _ = writeln!(w, r#"{{"cmd":"cancel"}}"#);
            let _ = w.flush();
        });
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the stream before the job completed",
            ));
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let event = json::parse(text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed event from server: {e}"),
            )
        })?;
        on_event(&event);
        let args = event.get("args");
        let arg = |k: &str| args.and_then(|a| a.get(k));
        match event.get("name").and_then(Json::as_str) {
            Some("job.done") => {
                return Ok(SubmitOutcome {
                    exit_code: arg("exit_code").and_then(Json::as_u64).unwrap_or(2) as i32,
                    verdict: arg("verdict")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    report: arg("report").cloned(),
                    rejected: false,
                });
            }
            Some("job.error") => {
                let message = arg("message")
                    .and_then(Json::as_str)
                    .unwrap_or("job failed");
                return Ok(SubmitOutcome {
                    exit_code: 2,
                    verdict: format!("error: {message}"),
                    report: None,
                    rejected: false,
                });
            }
            Some("job.rejected") => {
                let reason = arg("reason").and_then(Json::as_str).unwrap_or("rejected");
                return Ok(SubmitOutcome {
                    exit_code: 2,
                    verdict: format!("error: {reason}"),
                    report: None,
                    rejected: true,
                });
            }
            Some("protocol.error") => {
                let message = arg("message").and_then(Json::as_str).unwrap_or("protocol");
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    message.to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// Whether this failure is worth retrying: the daemon may be
/// restarting (refused/reset), mid-crash (EOF before a terminal event,
/// a worker-death `job.error`) or briefly saturated.
fn transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::NotConnected
    )
}

fn transient_outcome(outcome: &SubmitOutcome) -> bool {
    if outcome.rejected {
        // Saturation and drain rejections clear with time; malformed
        // requests never do.
        let v = &outcome.verdict;
        return v.contains("queue full") || v.contains("draining") || v.contains("overloaded");
    }
    outcome.verdict.contains("worker died")
}

/// Small deterministic-enough jitter so a fleet of retrying clients
/// does not thunder back in lockstep. Not cryptographic; wall-clock
/// nanoseconds are plenty of spread.
fn jitter_ms(cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    u64::from(nanos) % cap
}

/// [`submit`] with resilience: transient failures — connection refused
/// or reset while the daemon restarts, a stream cut mid-job by a crash,
/// a saturated queue, a died worker — are retried up to `retries` times
/// with exponential backoff plus jitter. Re-submitting is **idempotent
/// by construction**: results are keyed by the design's content hash in
/// the artifact store, so a retry of work the daemon already finished
/// (or recovered from disk) is answered from the store, not re-solved.
///
/// `on_event` sees every server event of every attempt, plus a
/// synthetic `client.retry` event (same JSONL shape) before each
/// re-attempt.
///
/// # Errors
///
/// Returns the final attempt's error once retries are exhausted;
/// non-transient errors (unknown case, malformed request, protocol
/// violations) fail immediately.
pub fn submit_retrying(
    addr: impl ToSocketAddrs + Copy,
    req: &VerifyRequest,
    retries: u32,
    base_backoff: Duration,
    mut on_event: impl FnMut(&Json),
) -> io::Result<SubmitOutcome> {
    let mut attempt = 0u32;
    loop {
        let result = submit_with(addr, req, None, &mut on_event);
        let (retry, describe) = match &result {
            Ok(outcome) => (transient_outcome(outcome), outcome.verdict.clone()),
            Err(e) => (transient_io(e), e.to_string()),
        };
        if !retry || attempt >= retries {
            return result;
        }
        attempt += 1;
        // Exponential backoff, capped at 64x base, plus up to half a
        // step of jitter.
        let base_ms = base_backoff.as_millis() as u64;
        let step = base_ms.saturating_mul(1 << attempt.min(6));
        let delay = Duration::from_millis(step + jitter_ms(step / 2 + 1));
        metrics::global().counter("client.retries").inc();
        on_event(&Json::obj(vec![
            ("name", Json::Str("client.retry".into())),
            (
                "args",
                Json::obj(vec![
                    ("attempt", Json::num(u64::from(attempt))),
                    ("delay_ms", Json::num(delay.as_millis() as u64)),
                    ("cause", Json::Str(describe)),
                ]),
            ),
        ]));
        thread::sleep(delay);
    }
}

/// Asks the daemon at `addr` for a health snapshot: queue depth, worker
/// liveness, connection count and artifact-store statistics (including
/// `recovered`/`truncated` from the last store open).
///
/// # Errors
///
/// Propagates connection failures; a non-health reply surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn query_health(addr: impl ToSocketAddrs) -> io::Result<Json> {
    query_event(addr, r#"{"cmd":"health"}"#, "server.health")
}

/// Asks the daemon at `addr` for its observability snapshot: Prometheus
/// exposition text, the structured metrics/rates JSON, and flight
/// recorder occupancy.
///
/// # Errors
///
/// Propagates connection failures; a non-stats reply surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn query_stats(addr: impl ToSocketAddrs) -> io::Result<Json> {
    query_event(addr, r#"{"cmd":"stats"}"#, "server.stats")
}

/// Asks the daemon at `addr` to write an on-demand postmortem bundle
/// and returns the `server.dump` reply (`path` on success, `error`
/// when the daemon has no `--store-dir`).
///
/// # Errors
///
/// Propagates connection failures; a non-dump reply surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn request_dump(addr: impl ToSocketAddrs) -> io::Result<Json> {
    query_event(addr, r#"{"cmd":"dump"}"#, "server.dump")
}

/// One-shot request/reply helper: connects, sends `cmd` as a JSONL
/// line, and returns the `args` of the first event iff its name is
/// `expected`.
fn query_event(addr: impl ToSocketAddrs, cmd: &str, expected: &str) -> io::Result<Json> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{cmd}")?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("server closed the stream before answering {expected}"),
        ));
    }
    let event = json::parse(line.trim())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("malformed event: {e}")))?;
    if event.get("name").and_then(Json::as_str) != Some(expected) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected {expected}, got: {event}"),
        ));
    }
    Ok(event.get("args").cloned().unwrap_or(Json::Null))
}

/// Asks the daemon at `addr` to drain and exit.
///
/// # Errors
///
/// Propagates connection failures.
pub fn request_shutdown(addr: impl ToSocketAddrs) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, r#"{{"cmd":"shutdown"}}"#)?;
    writer.flush()?;
    // Wait for the acknowledgement (or EOF) so callers can race-freely
    // observe that the drain has started.
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let _ = reader.read_line(&mut line);
    Ok(())
}

/// Whether a daemon answers at `addr`.
#[must_use]
pub fn ping(addr: impl ToSocketAddrs) -> bool {
    let Ok(stream) = TcpStream::connect(addr) else {
        return false;
    };
    let Ok(mut writer) = stream.try_clone() else {
        return false;
    };
    if writeln!(writer, r#"{{"cmd":"ping"}}"#).is_err() || writer.flush().is_err() {
        return false;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    matches!(reader.read_line(&mut line), Ok(n) if n > 0 && line.contains("server.pong"))
}

//! The `smv_cold` and `serve_mixed` workloads: SMV programs sent as
//! one-job batches through `cmc_serve::Client` to an in-process
//! `cmc_serve::Server` on loopback, plus their traced replays.

use crate::gen::{Program, ProgramFactory, Rng, Shape};
use crate::measure::ms_since;
use crate::trace::Tracer;
use crate::{Clock, JobLog, Scale, Spares};
use cmc_core::BackendChoice;
use cmc_ctl::{Formula, Restriction};
use cmc_serve::{Client, Job, JobReport, ServeConfig, Server};
use cmc_smv::{compile, compile_explicit, parse_module};
use cmc_store::{CertStore, Entry, ObligationKey, StoreStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `smv_cold` round: rings on both sides of `cmc_smv`'s `2^16`
/// explicit threshold and every AFS size twice. 29 programs, so the
/// median and the 95th percentile fall inside a shape's block of samples
/// rather than on the edge between two shapes. Rings of 14..16 stations
/// are left out: each takes 0.1–0.9 s on the explicit route, and with
/// them one job's timing noise set the whole round's.
const COLD_RINGS_FULL: &[usize] = &[
    4, 6, 8, 10, 12, 13, 17, 18, 20, 22, 24, 26, 28, 30, 32, 36, 40,
];
const COLD_RINGS_SMOKE: &[usize] = &[4, 6, 17];
/// `serve_mixed` hot set: programs verified during set-up and repeated.
const HOT_RINGS_FULL: &[usize] = &[4, 6, 8, 10, 12, 17, 20, 24, 28, 32, 36, 40];
const HOT_RINGS_SMOKE: &[usize] = &[4, 17];
/// `serve_mixed` fresh programs cycle through these shapes. Nine, so the
/// 95th percentile (the middle of the fresh tenth) sits inside one.
const FRESH_FULL: &[Shape] = &[
    Shape::Ring(8),
    Shape::Ring(10),
    Shape::Ring(17),
    Shape::Ring(18),
    Shape::Ring(20),
    Shape::Ring(22),
    Shape::Afs(3),
    Shape::Afs(4),
    Shape::Afs(5),
];
const FRESH_SMOKE: &[Shape] = &[Shape::Ring(5), Shape::Afs(2), Shape::Ring(18)];
/// One `serve_mixed` job in this many is a fresh program.
pub const FRESH_EVERY: u64 = 10;
/// Jobs per pass of the traced `serve_mixed` replay.
const TRACED_MIXED_JOBS_FULL: usize = 200;
const TRACED_MIXED_JOBS_SMOKE: usize = 20;
/// Cross-checked `smv_cold` jobs per run.
const CROSS_CHECK_SAMPLE: usize = 8;

fn afs_max(scale: Scale) -> usize {
    match scale {
        Scale::Full => 6,
        Scale::Smoke => 2,
    }
}

/// One round of `smv_cold` shapes, in seeded order.
pub fn cold_round(scale: Scale, rng: &mut Rng) -> Vec<Shape> {
    let rings = match scale {
        Scale::Full => COLD_RINGS_FULL,
        Scale::Smoke => COLD_RINGS_SMOKE,
    };
    let mut shapes: Vec<Shape> = rings.iter().map(|&n| Shape::Ring(n)).collect();
    for c in 1..=afs_max(scale) {
        shapes.push(Shape::Afs(c));
        shapes.push(Shape::Afs(c));
    }
    rng.shuffle(&mut shapes);
    shapes
}

/// The `serve_mixed` hot set's shapes.
pub fn hot_shapes(scale: Scale) -> Vec<Shape> {
    let rings = match scale {
        Scale::Full => HOT_RINGS_FULL,
        Scale::Smoke => HOT_RINGS_SMOKE,
    };
    let mut shapes: Vec<Shape> = rings.iter().map(|&n| Shape::Ring(n)).collect();
    for c in 1..=afs_max(scale) {
        shapes.push(Shape::Afs(c));
        shapes.push(Shape::Afs(c));
    }
    shapes
}

/// The fresh-program cycle of `serve_mixed`, in seeded order.
pub fn fresh_cycle(scale: Scale, rng: &mut Rng) -> Vec<Shape> {
    let mut cycle = match scale {
        Scale::Full => FRESH_FULL.to_vec(),
        Scale::Smoke => FRESH_SMOKE.to_vec(),
    };
    rng.shuffle(&mut cycle);
    cycle
}

/// A daemon with one connected client.
pub struct Daemon {
    /// The server (dropping it drains and stops it).
    pub server: Server,
    /// A connected client.
    pub client: Client,
    dir: Option<PathBuf>,
}

impl Daemon {
    /// Start a daemon on loopback, with its segmented disk tier in `dir`
    /// (emptied first) when given.
    pub fn start(dir: Option<PathBuf>) -> Result<Daemon, String> {
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("temp dir {}: {e}", dir.display()))?;
        }
        let server = Server::start(ServeConfig {
            disk_dir: dir.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon {
            server,
            client,
            dir,
        })
    }

    /// Drain the daemon and remove its temp dir. Returns the store
    /// counters after the final flush and compaction.
    pub fn stop(self) -> StoreStats {
        stop_server(self.server, self.dir)
    }
}

fn stop_server(mut server: Server, dir: Option<PathBuf>) -> StoreStats {
    let store = server.store();
    server.shutdown();
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    store.stats()
}

/// A fresh temp dir path under the benchmark's own directory, unique
/// within and across processes.
pub fn temp_dir(root: &Path, tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    root.join("tmp")
        .join(format!("{tag}-{}-{n}", std::process::id()))
}

/// Outcome of one job sent to the daemon.
pub enum Sent {
    /// The daemon answered with a report.
    Report(JobReport),
    /// The job errored, was refused or was dropped.
    Failed(String),
}

/// Send `program` as a one-job batch with `backend`.
pub fn send(client: &mut Client, program: &Program, backend: BackendChoice) -> Sent {
    let job = Job {
        source: program.source.clone(),
        backend,
    };
    match client.check_batch(vec![job]) {
        Ok(mut results) if results.len() == 1 => match results.pop() {
            Some(Ok(report)) => Sent::Report(report),
            Some(Err(message)) => Sent::Failed(message),
            None => Sent::Failed("empty batch answer".to_string()),
        },
        Ok(results) => Sent::Failed(format!("{} answers to a one-job batch", results.len())),
        Err(e) => Sent::Failed(e.to_string()),
    }
}

fn verdicts(report: &JobReport) -> Vec<bool> {
    report.specs.iter().map(|(_, v)| *v).collect()
}

/// Send a program, time it and check its verdicts into `log` under
/// `kind`; with `cold`, a store hit is a guard violation. Returns the
/// verdicts.
fn timed_send(
    client: &mut Client,
    program: &Program,
    kind: String,
    cold: bool,
    log: &mut JobLog,
) -> Option<Vec<bool>> {
    let t0 = Instant::now();
    let sent = send(client, program, BackendChoice::Auto);
    let latency = ms_since(t0);
    match sent {
        Sent::Report(report) => {
            let got = verdicts(&report);
            log.complete(kind, latency, got == program.verdicts());
            if cold && report.cache_hits != 0 {
                log.guard(format!(
                    "cold {} job answered {} specs from the store",
                    program.shape.label(),
                    report.cache_hits
                ));
            }
            Some(got)
        }
        Sent::Failed(message) => {
            log.fail(message);
            None
        }
    }
}

/// `smv_cold` state after set-up: an empty-store daemon, the factory and
/// the first round's programs.
pub struct Cold {
    daemon: Daemon,
    factory: ProgramFactory,
    rng: Rng,
    scale: Scale,
    round: Vec<Program>,
}

impl Cold {
    /// Set up: generate the first round, start the daemon, warm up with
    /// one program that the timed phase never repeats.
    pub fn setup(seed: u64, scale: Scale) -> Result<Cold, String> {
        let mut rng = Rng::new(seed);
        let mut factory = ProgramFactory::new(rng.next_u64());
        let shapes = cold_round(scale, &mut rng);
        let round = shapes.into_iter().map(|s| factory.make(s)).collect();
        let mut daemon = Daemon::start(None)?;
        daemon.client.ping().map_err(|e| format!("ping: {e}"))?;
        let warm = factory.make(Shape::Afs(1));
        verify_all(&mut daemon, &[warm])?;
        Ok(Cold {
            daemon,
            factory,
            rng,
            scale,
            round,
        })
    }

    /// Stop the daemon without running (a spare set-up).
    pub fn stop(self) {
        self.daemon.stop();
    }

    /// Closed loop, one client: whole rounds until `seconds` have passed.
    /// Then cross-check a seeded sample of enumerable jobs on both
    /// engines through `Job.backend`, on daemons with empty stores.
    pub fn run(
        mut self,
        seconds: f64,
        spares: &mut Spares,
        log: &mut JobLog,
    ) -> Result<(), String> {
        let mut enumerable: Vec<(Program, Vec<bool>)> = Vec::new();
        let mut clock = Clock::start();
        loop {
            let (before, round_start) = (log.latencies_ms.len(), clock.elapsed_s());
            for program in std::mem::take(&mut self.round) {
                if let Some(got) = timed_send(
                    &mut self.daemon.client,
                    &program,
                    program.shape.label(),
                    true,
                    log,
                ) {
                    if program.shape.fits_explicit() {
                        enumerable.push((program, got));
                    }
                }
            }
            log.close_round(before, round_start, clock.elapsed_s());
            if clock.elapsed_s() >= seconds {
                break;
            }
            spares.boundary(&mut clock)?;
            let shapes = cold_round(self.scale, &mut self.rng);
            self.round = shapes.into_iter().map(|s| self.factory.make(s)).collect();
        }
        log.elapsed_s = clock.elapsed_s();
        let stats = self.daemon.server.stats();
        if stats.job_errors != 0 || stats.protocol_errors != 0 {
            log.note(format!(
                "daemon counted {} job errors, {} protocol errors",
                stats.job_errors, stats.protocol_errors
            ));
        }
        self.daemon.stop();

        self.rng.shuffle(&mut enumerable);
        enumerable.truncate(CROSS_CHECK_SAMPLE);
        let mut explicit = Daemon::start(None)?;
        let mut symbolic = Daemon::start(None)?;
        let mut disagreements = 0;
        for (program, auto) in &enumerable {
            for (daemon, backend) in [
                (&mut explicit, BackendChoice::Explicit),
                (&mut symbolic, BackendChoice::Symbolic),
            ] {
                match send(&mut daemon.client, program, backend) {
                    Sent::Report(r) if verdicts(&r) == *auto => {}
                    Sent::Report(r) => {
                        disagreements += 1;
                        log.guard(format!(
                            "{} on {:?}: {:?}, Auto said {:?}",
                            program.shape.label(),
                            backend,
                            verdicts(&r),
                            auto
                        ));
                    }
                    Sent::Failed(m) => {
                        disagreements += 1;
                        log.guard(format!(
                            "cross-check of {} failed: {m}",
                            program.shape.label()
                        ));
                    }
                }
            }
        }
        explicit.stop();
        symbolic.stop();
        log.note(format!(
            "cross-checked {} enumerable jobs on both engines: {disagreements} disagreements",
            enumerable.len()
        ));
        Ok(())
    }
}

/// `serve_mixed` state after set-up: a daemon with a disk tier whose
/// store holds the verified hot set, and a second connected client.
pub struct Mixed {
    daemon: Daemon,
    second: Client,
    hot: Vec<Program>,
    factory: ProgramFactory,
    cycle: Vec<Shape>,
    rng: Rng,
}

impl Mixed {
    /// Set up: generate the hot set, start the daemon with its disk tier
    /// in `dir`, verify the hot set, connect the second client and warm
    /// both connections.
    pub fn setup(seed: u64, scale: Scale, dir: PathBuf) -> Result<Mixed, String> {
        let mut rng = Rng::new(seed ^ 0x0005_E4E0);
        let mut factory = ProgramFactory::new(rng.next_u64());
        let hot: Vec<Program> = hot_shapes(scale)
            .into_iter()
            .map(|s| factory.make(s))
            .collect();
        let cycle = fresh_cycle(scale, &mut rng);
        let mut daemon = Daemon::start(Some(dir))?;
        verify_all(&mut daemon, &hot)?;
        let mut second =
            Client::connect(daemon.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        for client in [&mut daemon.client, &mut second] {
            for program in hot.iter().take(2) {
                if let Sent::Failed(m) = send(client, program, BackendChoice::Auto) {
                    return Err(format!("warm-up failed: {m}"));
                }
            }
        }
        Ok(Mixed {
            daemon,
            second,
            hot,
            factory,
            cycle,
            rng,
        })
    }

    /// Stop the daemon and remove its disk tier without running (a spare
    /// set-up).
    pub fn stop(self) {
        self.daemon.stop();
    }

    /// Two clients, closed loop, until `seconds` have passed: nine jobs
    /// in ten repeat a hot program, the tenth is a fresh one. Both
    /// clients stop at each spare set-up and resume after it.
    pub fn run(
        mut self,
        seconds: f64,
        spares: &mut Spares,
        log: &mut JobLog,
    ) -> Result<(), String> {
        let fresh = Mutex::new((self.factory, 0usize));
        let hot = &self.hot;
        let cycle = &self.cycle;
        let Daemon {
            server,
            client,
            dir,
        } = self.daemon;
        let mut clients = vec![
            (client, self.rng.fork(), 0u64),
            (self.second, self.rng.fork(), 0u64),
        ];
        let mut clock = Clock::start();
        loop {
            let stop = spares.next_stop();
            let stretch_clock = clock;
            let ended: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .drain(..)
                    .map(|(mut client, mut rng, mut i)| {
                        let fresh = &fresh;
                        scope.spawn(move || {
                            let mut log = JobLog::default();
                            while stretch_clock.elapsed_s() < stop {
                                i += 1;
                                if i % FRESH_EVERY == 0 {
                                    let program = {
                                        let mut guard = fresh.lock().expect("factory lock");
                                        let (factory, k) = &mut *guard;
                                        let shape = cycle[*k % cycle.len()];
                                        *k += 1;
                                        factory.make(shape)
                                    };
                                    timed_send(
                                        &mut client,
                                        &program,
                                        "fresh".to_string(),
                                        false,
                                        &mut log,
                                    );
                                } else {
                                    let program = &hot[rng.below(hot.len())];
                                    timed_send(
                                        &mut client,
                                        program,
                                        "hot".to_string(),
                                        false,
                                        &mut log,
                                    );
                                }
                                log.done_at.push(stretch_clock.elapsed_s());
                            }
                            (client, rng, i, log)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            for (client, rng, i, client_log) in ended {
                log.absorb(client_log);
                clients.push((client, rng, i));
            }
            if clock.elapsed_s() >= seconds {
                break;
            }
            spares.boundary(&mut clock)?;
        }
        log.elapsed_s = clock.elapsed_s();
        log.close_stream();
        let stats = server.stats();
        if stats.job_errors != 0 || stats.protocol_errors != 0 {
            log.note(format!(
                "daemon counted {} job errors, {} protocol errors",
                stats.job_errors, stats.protocol_errors
            ));
        }
        let store = stop_server(server, dir);
        log.note(format!(
            "store: hit rate {:.3}, {} disk bytes, {} compactions",
            store.hit_rate(),
            store.disk_bytes,
            store.compactions
        ));
        Ok(())
    }
}

/// What the traced SMV replays add up beside their spans.
#[derive(Debug, Default, Clone)]
pub struct SmvCounters {
    /// Jobs replayed.
    pub jobs: u64,
    /// Jobs whose in-process `Auto` run reported `engine: explicit-state`.
    pub explicit_jobs: u64,
    /// Σ max(0, Auto time − Symbolic time), ms.
    pub route_regret_ms: f64,
    /// Σ (client round trip − in-process run), ms.
    pub serve_overhead_ms: f64,
    /// BDD counters summed over replayed symbolic jobs.
    pub nodes_allocated: u64,
    /// Σ per-job peak live nodes.
    pub peak_live_nodes: u64,
    /// Computed-table hits and misses.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// `and_exists` hits and misses.
    pub and_exists_hits: u64,
    /// See `and_exists_hits`.
    pub and_exists_misses: u64,
    /// Garbage collections.
    pub gc_runs: u64,
    /// Quantification-schedule clusters after merging.
    pub clusters: u64,
    /// Schedule re-plans.
    pub replans: u64,
    /// Verdicts that differ from the known answers, over all replays.
    pub wrong: u64,
    /// Calls that errored.
    pub errors: u64,
}

/// Replay `cmc_smv`'s steps for one program under spans, in the order
/// the daemon and `cmc_smv` make them: the daemon parses to claim its
/// single-flight keys, then `cmc_smv` parses, tries the fully-warm
/// path, compiles for the engine the `Auto` run chose and checks each
/// spec (lookup, check, insert, witness).
fn replay_steps(
    t: &mut Tracer,
    src: &str,
    store: &CertStore,
    explicit: bool,
    acc: &mut SmvCounters,
) -> Result<Vec<bool>, String> {
    let module = t
        .span("smv.parse", |_| parse_module(src))
        .map_err(|e| e.to_string())?;
    for (text, _) in &module.specs {
        t.span("store.key", |_| ObligationKey::source_spec(src, text));
    }
    let module = t
        .span("smv.parse", |_| parse_module(src))
        .map_err(|e| e.to_string())?;
    let mut warm = Vec::new();
    for (text, _) in &module.specs {
        let key = t.span("store.key", |_| ObligationKey::source_spec(src, text));
        match t.span("store.lookup", |_| store.lookup(&key)) {
            Some(entry) => warm.push(entry.verdict),
            None => break,
        }
    }
    if !module.specs.is_empty() && warm.len() == module.specs.len() {
        return Ok(warm);
    }
    let mut out = Vec::new();
    if explicit {
        let ex = t
            .span("smv.compile_explicit", |_| compile_explicit(&module))
            .map_err(|e| e.to_string())?;
        for (i, (text, _)) in ex.specs.iter().enumerate() {
            let key = t.span("store.key", |_| ObligationKey::source_spec(src, text));
            if let Some(entry) = t.span("store.lookup", |_| store.lookup(&key)) {
                out.push(entry.verdict);
                continue;
            }
            let holds = t
                .span("ctl.check_spec", |_| ex.check_spec(i))
                .map_err(|e| e.to_string())?;
            t.span("store.insert", |_| store.insert(key, Entry::verdict(holds)));
            if !holds {
                t.span("ctl.violating_init", |_| ex.violating_init(i))
                    .map_err(|e| e.to_string())?;
            }
            out.push(holds);
        }
        t.span("smv.drop", |_| drop(ex));
    } else {
        let mut cm = t
            .span("smv.compile", |_| compile(&module))
            .map_err(|e| e.to_string())?;
        for (text, f) in cm.specs.clone() {
            let key = t.span("store.key", |_| ObligationKey::source_spec(src, &text));
            if let Some(entry) = t.span("store.lookup", |_| store.lookup(&key)) {
                out.push(entry.verdict);
                continue;
            }
            let verdict = t
                .span("symbolic.check", |_| {
                    cm.model.check(&Restriction::trivial(), &f)
                })
                .map_err(|e| e.to_string())?;
            t.span("store.insert", |_| {
                store.insert(key, Entry::verdict(verdict.holds))
            });
            if !verdict.holds {
                if let Formula::Ag(body) = &f {
                    if body.is_propositional() {
                        t.span("symbolic.counterexample", |_| {
                            cm.model
                                .prop_to_bdd(body)
                                .ok()
                                .and_then(|p| cm.model.counterexample_ag(p))
                        });
                    }
                }
            }
            out.push(verdict.holds);
        }
        let stats = cm.model.mgr_ref().stats();
        acc.nodes_allocated += stats.nodes_allocated as u64;
        acc.peak_live_nodes += stats.peak_live_nodes as u64;
        acc.cache_hits += stats.cache_hits;
        acc.cache_misses += stats.cache_misses;
        acc.and_exists_hits += stats.and_exists_hits;
        acc.and_exists_misses += stats.and_exists_misses;
        acc.gc_runs += stats.gc_runs;
        if let Some(s) = cm.model.schedule_stats() {
            acc.clusters += s.clusters_after as u64;
            acc.replans += s.replans;
        }
        t.span("smv.drop", |_| drop(cm));
    }
    Ok(out)
}

/// Stores the in-process replays run against, mirroring the daemon's.
#[derive(Default)]
pub struct ReplayStores {
    run: CertStore,
    steps: CertStore,
}

impl ReplayStores {
    /// Put a program's verdicts in both stores, as the daemon's set-up
    /// did for its own store.
    pub fn preload(&self, program: &Program) -> Result<(), String> {
        for store in [&self.run, &self.steps] {
            cmc_smv::run_source_with_store_and_backend(&program.source, store, BackendChoice::Auto)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// One traced job: the daemon round trip, the in-process `Auto` run
/// (whose report names the engine), the step replay along that route
/// and, with `regret`, the same program on the symbolic engine.
pub fn traced_job(
    t: &mut Tracer,
    id: u32,
    program: &Program,
    client: &mut Client,
    stores: &ReplayStores,
    regret: bool,
    acc: &mut SmvCounters,
) {
    let expected = program.verdicts();
    t.job(id, |t| {
        acc.jobs += 1;
        let t0 = Instant::now();
        let sent = t.span("serve.roundtrip", |_| {
            send(client, program, BackendChoice::Auto)
        });
        let roundtrip_ms = ms_since(t0);
        match sent {
            Sent::Report(r) => acc.wrong += u64::from(verdicts(&r) != expected),
            Sent::Failed(_) => acc.errors += 1,
        }
        let t1 = Instant::now();
        let run = t.span("smv.run", |_| {
            cmc_smv::run_source_with_store_and_backend(
                &program.source,
                &stores.run,
                BackendChoice::Auto,
            )
        });
        let auto_ms = ms_since(t1);
        acc.serve_overhead_ms += roundtrip_ms - auto_ms;
        let explicit = match run {
            Ok(out) => {
                let got: Vec<bool> = out.results.iter().map(|(_, v)| *v).collect();
                acc.wrong += u64::from(got != expected);
                out.report.contains("engine: explicit-state")
            }
            Err(_) => {
                acc.errors += 1;
                false
            }
        };
        acc.explicit_jobs += u64::from(explicit);
        match t.span("replay.steps", |t| {
            replay_steps(t, &program.source, &stores.steps, explicit, acc)
        }) {
            Ok(got) => acc.wrong += u64::from(got != expected),
            Err(_) => acc.errors += 1,
        }
        if regret {
            let t2 = Instant::now();
            let symbolic = t.span("smv.symbolic_run", |_| {
                cmc_smv::run_source_with_backend(&program.source, BackendChoice::Symbolic)
            });
            let symbolic_ms = ms_since(t2);
            match symbolic {
                Ok(out) => {
                    let got: Vec<bool> = out.results.iter().map(|(_, v)| *v).collect();
                    acc.wrong += u64::from(got != expected);
                    acc.route_regret_ms += (auto_ms - symbolic_ms).max(0.0);
                }
                Err(_) => acc.errors += 1,
            }
        }
    });
}

/// The first `smv_cold` round of `seed`, as the timed run sends it.
pub fn cold_programs(seed: u64, scale: Scale) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    let mut factory = ProgramFactory::new(rng.next_u64());
    cold_round(scale, &mut rng)
        .into_iter()
        .map(|s| factory.make(s))
        .collect()
}

/// The `serve_mixed` inputs of `seed` for a traced replay: the hot set
/// and a single-client job sequence with every tenth job fresh.
pub fn mixed_programs(seed: u64, scale: Scale) -> (Vec<Program>, Vec<Program>) {
    let mut rng = Rng::new(seed ^ 0x0005_E4E0);
    let mut factory = ProgramFactory::new(rng.next_u64());
    let hot: Vec<Program> = hot_shapes(scale)
        .into_iter()
        .map(|s| factory.make(s))
        .collect();
    let cycle = fresh_cycle(scale, &mut rng);
    let jobs = match scale {
        Scale::Full => TRACED_MIXED_JOBS_FULL,
        Scale::Smoke => TRACED_MIXED_JOBS_SMOKE,
    };
    let mut pick = rng.fork();
    let mut fresh = 0;
    let sequence = (1..=jobs as u64)
        .map(|i| {
            if i % FRESH_EVERY == 0 {
                fresh += 1;
                factory.make(cycle[(fresh - 1) % cycle.len()])
            } else {
                hot[pick.below(hot.len())].clone()
            }
        })
        .collect();
    (hot, sequence)
}

/// Verify `programs` on a daemon, untimed: every one must get its known
/// answers.
pub fn verify_all(daemon: &mut Daemon, programs: &[Program]) -> Result<(), String> {
    for program in programs {
        match send(&mut daemon.client, program, BackendChoice::Auto) {
            Sent::Report(r) if verdicts(&r) == program.verdicts() => {}
            Sent::Report(r) => {
                return Err(format!(
                    "{} got {:?}, expected {:?}",
                    program.shape.label(),
                    verdicts(&r),
                    program.verdicts()
                ))
            }
            Sent::Failed(m) => return Err(format!("{} failed: {m}", program.shape.label())),
        }
    }
    Ok(())
}

//! The repository's end-to-end benchmark.
//!
//! Three workloads drive the public surfaces users call — the
//! `cmc_serve` daemon protocol for SMV jobs, and
//! `cmc_core::engine::Engine` plus `cmc_afs::afs2` for proofs — and a
//! separate traced run replays one round of every workload through the
//! crates' public functions to split the time by layer. See `README.md`
//! in this directory for why each workload exists.

pub mod daemon;
pub mod gen;
pub mod measure;
pub mod paper;
pub mod trace;

use crate::daemon::{Cold, Daemon, Mixed, ReplayStores, SmvCounters};
use crate::gen::Rng;
use crate::measure::{median, ms_since, peak_rss_mb, quantile};
use crate::paper::{Fixture, PaperCounters};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Input sizes: the benchmark's own, or a few small instances for the
/// package's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Small instances that finish in a debug build.
    Smoke,
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rings and AFS-2 proved both ways through the engine.
    PaperScaling,
    /// Distinct SMV programs against an empty-store daemon.
    SmvCold,
    /// Two clients, nine in ten jobs repeating a verified hot set.
    ServeMixed,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperScaling,
        Workload::SmvCold,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperScaling => "paper_scaling",
            Workload::SmvCold => "smv_cold",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Per-job outcomes of a timed phase.
#[derive(Debug, Default, Clone)]
pub struct JobLog {
    /// Latency of every completed job, ms.
    pub latencies_ms: Vec<f64>,
    /// Jobs sent.
    pub attempted: u64,
    /// Jobs that errored, were refused or were dropped.
    pub failed: u64,
    /// Completed jobs whose verdicts differ from the known answers.
    pub wrong: u64,
    /// Broken guards (store hits on cold jobs, cross-check
    /// disagreements); any makes the run incorrect.
    pub guard_violations: Vec<String>,
    /// Informational lines.
    pub notes: Vec<String>,
    /// Wall time of the timed phase, s.
    pub elapsed_s: f64,
    /// `(jobs completed, seconds)` per window of the timed phase: one
    /// round of a fixed deck, or a thirtieth of a continuous stream.
    pub windows: Vec<(u64, f64)>,
    /// Timed-phase second at which each job completed (streams only).
    pub done_at: Vec<f64>,
    /// Latencies of completed jobs by kind (shape or goal), ms.
    pub by_kind: BTreeMap<String, Vec<f64>>,
}

impl JobLog {
    /// Record a completed job of kind `kind`.
    pub fn complete(&mut self, kind: String, latency_ms: f64, right: bool) {
        self.attempted += 1;
        self.latencies_ms.push(latency_ms);
        self.by_kind.entry(kind).or_default().push(latency_ms);
        self.wrong += u64::from(!right);
    }

    /// Record a failed job.
    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 3 {
            self.notes.push(format!("job failed: {message}"));
        }
    }

    /// Record a broken guard.
    pub fn guard(&mut self, message: String) {
        self.guard_violations.push(message);
    }

    /// Record an informational line.
    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }

    /// Merge another client's log (elapsed time is kept from `self`).
    pub fn absorb(&mut self, other: JobLog) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.guard_violations.extend(other.guard_violations);
        self.notes.extend(other.notes);
        self.done_at.extend(other.done_at);
        for (kind, lat) in other.by_kind {
            self.by_kind.entry(kind).or_default().extend(lat);
        }
    }

    /// Close a round-shaped window that began with `jobs_before`
    /// completed jobs at timed second `start_s`.
    pub fn close_round(&mut self, jobs_before: usize, start_s: f64, end_s: f64) {
        let jobs = (self.latencies_ms.len() - jobs_before) as u64;
        self.windows.push((jobs, end_s - start_s));
    }

    /// Cut a continuous stream into `STREAM_WINDOWS` windows of equal job
    /// counts by completion time (one window if the stream is short).
    pub fn close_stream(&mut self) {
        const STREAM_WINDOWS: usize = 30;
        let mut done = self.done_at.clone();
        done.sort_by(f64::total_cmp);
        let per = done.len() / STREAM_WINDOWS;
        if per < 2 {
            self.windows = vec![(done.len() as u64, self.elapsed_s)];
            return;
        }
        let mut start = 0.0;
        self.windows = done
            .chunks_exact(per)
            .map(|chunk| {
                let end = chunk[per - 1];
                let window = (per as u64, end - start);
                start = end;
                window
            })
            .collect();
    }
}

/// A metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Extra context printed beside the value (sample counts).
    pub detail: String,
}

fn metric(name: &str, value: f64, unit: &'static str, detail: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        detail,
    }
}

/// The outcome of one untraced run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The timed phase.
    pub log: JobLog,
    /// Every set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// `VmHWM` at the end of the run, MiB.
    pub peak_rss_mb: f64,
}

impl RunResult {
    /// No wrong verdict and no broken guard.
    pub fn correct(&self) -> bool {
        self.log.wrong == 0 && self.log.guard_violations.is_empty()
    }

    /// The end-to-end metrics named in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut lat = self.log.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        let completed = lat.len();
        let (p50, p95) = if lat.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (quantile(&lat, 0.5), quantile(&lat, 0.95))
        };
        let beyond = lat.iter().filter(|&&x| x > p95).count();
        let rates: Vec<f64> = self
            .log
            .windows
            .iter()
            .map(|&(jobs, secs)| jobs as f64 / secs)
            .collect();
        vec![
            metric(
                "jobs_per_s",
                median(&rates),
                "1/s",
                format!(
                    "median of {} windows; {completed} jobs in {:.3} s overall, closed loop",
                    rates.len(),
                    self.log.elapsed_s
                ),
            ),
            metric("latency_p50_ms", p50, "ms", format!("{completed} samples")),
            metric(
                "latency_p95_ms",
                p95,
                "ms",
                format!("{beyond} samples beyond it"),
            ),
            metric(
                "setup_s",
                median(&self.setup_s),
                "s",
                format!("median of {} set-ups", self.setup_s.len()),
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB", "VmHWM".to_string()),
        ]
    }

    /// Counts printed beside the metrics but kept out of the result
    /// object: they are zero on a healthy run.
    pub fn health(&self) -> Vec<Metric> {
        let attempted = self.log.attempted.max(1) as f64;
        vec![
            metric(
                "wrong_verdicts",
                self.log.wrong as f64,
                "count",
                format!("{} guard violations", self.log.guard_violations.len()),
            ),
            metric(
                "failed_share",
                self.log.failed as f64 / attempted,
                "ratio",
                format!("{} of {} jobs", self.log.failed, self.log.attempted),
            ),
        ]
    }
}

/// The timed phase's clock; it stops while a spare set-up runs.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    paused: std::time::Duration,
}

impl Clock {
    /// Start timing now.
    pub fn start() -> Clock {
        Clock {
            start: Instant::now(),
            paused: std::time::Duration::ZERO,
        }
    }

    /// Timed seconds so far, pauses excluded.
    pub fn elapsed_s(&self) -> f64 {
        (self.start.elapsed() - self.paused).as_secs_f64()
    }
}

/// The spare set-ups behind `setup_s`. One set-up runs before the timed
/// phase and is kept; the other `SETUP_REPEATS - 1` are made and thrown
/// away at job boundaries spread evenly through the timed phase, with
/// the clock stopped. Spreading them matters: the host's speed drifts
/// over seconds, and set-ups run back to back would all sample one
/// moment of it.
pub struct Spares<'a> {
    seconds: f64,
    made: usize,
    make: Box<dyn FnMut() -> Result<f64, String> + 'a>,
    times: Vec<f64>,
}

impl<'a> Spares<'a> {
    /// `kept_s` is the kept set-up's time; `make` runs one spare set-up,
    /// drops it and returns how long the set-up took.
    pub fn new(seconds: f64, kept_s: f64, make: impl FnMut() -> Result<f64, String> + 'a) -> Self {
        Spares {
            seconds,
            made: 0,
            make: Box::new(make),
            times: vec![kept_s],
        }
    }

    fn due_at(&self) -> f64 {
        self.seconds * (self.made + 1) as f64 / SETUP_REPEATS as f64
    }

    /// When the current stretch of jobs should stop: the next spare's
    /// due time or the end of the phase.
    pub fn next_stop(&self) -> f64 {
        if self.made + 1 < SETUP_REPEATS {
            self.due_at()
        } else {
            self.seconds
        }
    }

    /// Call at a job boundary: makes a spare set-up if one is due.
    pub fn boundary(&mut self, clock: &mut Clock) -> Result<(), String> {
        if self.made + 1 < SETUP_REPEATS && clock.elapsed_s() >= self.due_at() {
            let t0 = Instant::now();
            let took = (self.make)()?;
            clock.paused += t0.elapsed();
            self.times.push(took);
            self.made += 1;
        }
        Ok(())
    }

    /// After the timed phase: make the spares that never fell due (a
    /// phase shorter than its last round) and return every time.
    pub fn finish(mut self) -> Result<Vec<f64>, String> {
        while self.made + 1 < SETUP_REPEATS {
            self.times.push((self.make)()?);
            self.made += 1;
        }
        Ok(self.times)
    }
}

/// Time one set-up.
fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let state = setup()?;
    Ok((state, t0.elapsed().as_secs_f64()))
}

/// Run one workload untraced: set up, then the timed closed loop.
/// `root` is the benchmark's directory (for temp files).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    root: &Path,
) -> Result<RunResult, String> {
    let mut log = JobLog::default();
    let setup_s = match workload {
        Workload::PaperScaling => {
            let setup = || {
                let mut rng = Rng::new(seed);
                let fixture = Fixture::build(scale, &mut rng);
                fixture.warm_up()?;
                let deck = fixture.deck(&mut rng);
                Ok((fixture, deck, rng))
            };
            let ((fixture, mut deck, mut rng), kept_s) = timed(setup)?;
            let mut spares = Spares::new(seconds, kept_s, || timed(setup).map(|(_, s)| s));
            let mut clock = Clock::start();
            loop {
                let (before, round_start) = (log.latencies_ms.len(), clock.elapsed_s());
                for goal in deck {
                    let t0 = Instant::now();
                    match fixture.run(goal) {
                        Ok(holds) => {
                            log.complete(goal.kind(), ms_since(t0), holds == goal.expected())
                        }
                        Err(e) => log.fail(format!("{goal:?}: {e}")),
                    }
                }
                log.close_round(before, round_start, clock.elapsed_s());
                if clock.elapsed_s() >= seconds {
                    break;
                }
                spares.boundary(&mut clock)?;
                deck = fixture.deck(&mut rng);
            }
            log.elapsed_s = clock.elapsed_s();
            spares.finish()?
        }
        Workload::SmvCold => {
            let (cold, kept_s) = timed(|| Cold::setup(seed, scale))?;
            let mut spares = Spares::new(seconds, kept_s, || {
                timed(|| Cold::setup(seed, scale)).map(|(spare, s)| {
                    spare.stop();
                    s
                })
            });
            cold.run(seconds, &mut spares, &mut log)?;
            spares.finish()?
        }
        Workload::ServeMixed => {
            let (mixed, kept_s) =
                timed(|| Mixed::setup(seed, scale, daemon::temp_dir(root, "serve-mixed")))?;
            let mut spares = Spares::new(seconds, kept_s, || {
                timed(|| Mixed::setup(seed, scale, daemon::temp_dir(root, "serve-mixed-spare")))
                    .map(|(spare, s)| {
                        spare.stop();
                        s
                    })
            });
            mixed.run(seconds, &mut spares, &mut log)?;
            spares.finish()?
        }
    };
    Ok(RunResult {
        log,
        setup_s,
        peak_rss_mb: peak_rss_mb(),
    })
}

/// One workload's traced round.
#[derive(Debug)]
pub struct TracedWorkload {
    /// Which workload.
    pub workload: Workload,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Σ of the timed calls in the traced pass, ms (the calls the
    /// untraced pass also times).
    pub traced_ms: f64,
    /// Σ of the same calls in the untraced pass, ms.
    pub untraced_ms: f64,
    /// Known-answer mismatches and call errors across both passes.
    pub wrong: u64,
    /// Calls that errored.
    pub errors: u64,
}

impl TracedWorkload {
    /// Σ job durations, ms.
    pub fn job_ms(&self) -> f64 {
        self.tracer.total_ms("job")
    }

    /// The part of the jobs no layer span covers: the benchmark's own
    /// glue (`job` and `replay.*` self time), ms.
    pub fn uncovered_ms(&self) -> f64 {
        let own = self.tracer.self_ns();
        self.tracer
            .spans()
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == "job" || s.name.starts_with("replay."))
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Self time per layer (the span name up to its first dot), ms.
    pub fn layer_self_ms(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, t) in self.tracer.totals() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_insert(0.0) += t.self_ns as f64 / 1e6;
        }
        out
    }

    /// Traced over untraced time of the same calls, minus one.
    pub fn overhead_share(&self) -> f64 {
        self.traced_ms / self.untraced_ms - 1.0
    }
}

/// The traced run: one round of every workload, and the counters the
/// per-layer metrics are computed from.
#[derive(Debug)]
pub struct TraceResult {
    /// Per workload, in [`Workload::ALL`] order.
    pub workloads: Vec<TracedWorkload>,
    /// `paper_scaling` counters.
    pub paper: PaperCounters,
    /// `smv_cold` counters.
    pub cold: SmvCounters,
    /// `serve_mixed` counters.
    pub mixed: SmvCounters,
    /// `serve_mixed` daemon store hit rate over the traced jobs (the
    /// hot set's set-up lookups excluded).
    pub mixed_hit_rate: f64,
    /// `serve_mixed` daemon store counters after its final compaction.
    pub mixed_store: cmc_store::StoreStats,
    /// Σ daemon job errors over the traced daemons.
    pub serve_job_errors: u64,
    /// Σ daemon protocol errors over the traced daemons.
    pub serve_protocol_errors: u64,
}

impl TraceResult {
    /// No wrong verdict and no errored call in any replay.
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(|w| w.wrong == 0 && w.errors == 0)
    }

    fn workload(&self, w: Workload) -> &TracedWorkload {
        self.workloads
            .iter()
            .find(|t| t.workload == w)
            .expect("every workload is traced")
    }

    /// The per-layer metrics named in `BENCHMARK.json`, each read on the
    /// workload meant to exercise it.
    pub fn metrics(&self) -> Vec<Metric> {
        let paper = &self.workload(Workload::PaperScaling).tracer;
        let cold = &self.workload(Workload::SmvCold).tracer;
        let mixed = &self.workload(Workload::ServeMixed).tracer;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let c = &self.cold;
        let p = &self.paper;
        let none = String::new;
        let mut out = vec![
            metric(
                "smv.parse_ms",
                mixed.total_ms("smv.parse"),
                "ms",
                "serve_mixed".into(),
            ),
            metric(
                "smv.compile_ms",
                cold.total_ms("smv.compile"),
                "ms",
                "smv_cold".into(),
            ),
            metric(
                "smv.compile_explicit_ms",
                cold.total_ms("smv.compile_explicit"),
                "ms",
                "smv_cold".into(),
            ),
            metric(
                "smv.auto_explicit_share",
                ratio(c.explicit_jobs as f64, c.jobs as f64),
                "ratio",
                format!("{} of {} jobs", c.explicit_jobs, c.jobs),
            ),
            metric(
                "smv.route_regret_ms",
                c.route_regret_ms,
                "ms",
                "smv_cold".into(),
            ),
            metric(
                "ctl.check_spec_ms",
                cold.total_ms("ctl.check_spec") + cold.total_ms("ctl.violating_init"),
                "ms",
                "smv_cold".into(),
            ),
            metric(
                "symbolic.check_ms",
                cold.total_ms("symbolic.check"),
                "ms",
                "smv_cold".into(),
            ),
            metric(
                "symbolic.counterexample_ms",
                cold.total_ms("symbolic.counterexample"),
                "ms",
                "smv_cold".into(),
            ),
            metric("symbolic.clusters", c.clusters as f64, "count", none()),
            metric("symbolic.replans", c.replans as f64, "count", none()),
            metric(
                "bdd.nodes_allocated",
                c.nodes_allocated as f64,
                "count",
                none(),
            ),
            metric(
                "bdd.peak_live_nodes",
                c.peak_live_nodes as f64,
                "count",
                "summed over jobs".into(),
            ),
            metric(
                "bdd.cache_hit_rate",
                ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
                "ratio",
                none(),
            ),
            metric(
                "bdd.and_exists_hit_rate",
                ratio(
                    c.and_exists_hits as f64,
                    (c.and_exists_hits + c.and_exists_misses) as f64,
                ),
                "ratio",
                none(),
            ),
            metric("bdd.gc_runs", c.gc_runs as f64, "count", none()),
            metric(
                "core.prove_invariant_ms",
                paper.total_ms("core.prove_invariant"),
                "ms",
                "paper_scaling".into(),
            ),
            metric(
                "core.validity_ms",
                paper.total_ms("core.validity"),
                "ms",
                "paper_scaling".into(),
            ),
            metric(
                "core.discharge_ms",
                paper.total_ms("core.discharge"),
                "ms",
                "paper_scaling".into(),
            ),
            metric(
                "core.monolithic_check_ms",
                paper.total_ms("core.monolithic_check"),
                "ms",
                "paper_scaling".into(),
            ),
            metric(
                "core.checked_steps",
                p.checked_steps as f64,
                "count",
                none(),
            ),
            metric(
                "core.step_us",
                ratio(
                    (paper.total_ms("core.prove_invariant") - paper.total_ms("core.validity"))
                        * 1e3,
                    p.checked_steps as f64,
                ),
                "us",
                "(prove_invariant - validity) / checked steps".into(),
            ),
            metric(
                "core.explicit_step_share",
                ratio(p.explicit_steps as f64, p.checked_steps as f64),
                "ratio",
                none(),
            ),
            metric(
                "afs.compositional_ms",
                paper.total_ms("afs.compositional"),
                "ms",
                none(),
            ),
            metric(
                "afs.monolithic_ms",
                paper.total_ms("afs.monolithic"),
                "ms",
                none(),
            ),
            metric(
                "sched.cpu_per_wall",
                ratio(p.invariant_cpu_s, p.invariant_wall_s),
                "ratio",
                "during prove_invariant, 10 ms CPU ticks".into(),
            ),
            metric(
                "store.key_us",
                mixed.total_us("store.key"),
                "us",
                "serve_mixed".into(),
            ),
            metric(
                "store.lookup_us",
                mixed.total_us("store.lookup"),
                "us",
                "serve_mixed".into(),
            ),
            metric(
                "store.insert_us",
                mixed.total_us("store.insert"),
                "us",
                "serve_mixed".into(),
            ),
            metric(
                "store.hit_rate",
                self.mixed_hit_rate,
                "ratio",
                "daemon store, traced jobs".into(),
            ),
            metric(
                "store.disk_bytes",
                self.mixed_store.disk_bytes as f64,
                "bytes",
                none(),
            ),
            metric(
                "store.compactions",
                self.mixed_store.compactions as f64,
                "count",
                none(),
            ),
            metric(
                "serve.overhead_ms",
                self.mixed.serve_overhead_ms,
                "ms",
                "serve_mixed".into(),
            ),
            metric(
                "serve.job_errors",
                self.serve_job_errors as f64,
                "count",
                none(),
            ),
            metric(
                "serve.protocol_errors",
                self.serve_protocol_errors as f64,
                "count",
                none(),
            ),
        ];
        for w in &self.workloads {
            let n = w.workload.name();
            out.push(metric(
                &format!("trace.{n}.job_ms"),
                w.job_ms(),
                "ms",
                none(),
            ));
            out.push(metric(
                &format!("trace.{n}.uncovered_ms"),
                w.uncovered_ms(),
                "ms",
                none(),
            ));
            out.push(metric(
                &format!("trace.{n}.overhead_share"),
                w.overhead_share(),
                "ratio",
                format!(
                    "{:.3} ms traced vs {:.3} ms untraced",
                    w.traced_ms, w.untraced_ms
                ),
            ));
        }
        out
    }
}

/// Trace `paper_scaling`: every goal of one round runs once untraced
/// and once under spans, alternating which goes first so neither pass
/// always runs on warmer caches.
fn trace_paper(
    seed: u64,
    scale: Scale,
    counters: &mut PaperCounters,
) -> Result<TracedWorkload, String> {
    let mut rng = Rng::new(seed);
    let fixture = Fixture::build(scale, &mut rng);
    fixture.warm_up()?;
    let deck = fixture.deck(&mut rng);
    let mut tracer = Tracer::default();
    let mut untraced_ms = 0.0;
    let (mut wrong, mut errors) = (0, 0);
    for (id, &goal) in deck.iter().enumerate() {
        for traced in [id % 2 == 1, id % 2 == 0] {
            let outcome = if traced {
                tracer.job(id as u32, |t| {
                    paper::traced_goal(&fixture, goal, t, counters)
                })
            } else {
                let t0 = Instant::now();
                let outcome = fixture.run(goal);
                untraced_ms += ms_since(t0);
                outcome
            };
            match outcome {
                Ok(holds) => wrong += u64::from(holds != goal.expected()),
                Err(_) => errors += 1,
            }
        }
    }
    let names: std::collections::BTreeSet<&str> =
        deck.iter().map(|&g| paper::span_name(g)).collect();
    let traced_ms = names.into_iter().map(|name| tracer.total_ms(name)).sum();
    Ok(TracedWorkload {
        workload: Workload::PaperScaling,
        tracer,
        traced_ms,
        untraced_ms,
        wrong,
        errors,
    })
}

/// Trace SMV jobs: each program goes untraced to daemon `plain` and
/// traced (round trip to daemon `traced` plus the in-process replays),
/// alternating which goes first.
fn trace_smv(
    workload: Workload,
    programs: &[gen::Program],
    plain: &mut Daemon,
    traced: &mut Daemon,
    stores: &ReplayStores,
    acc: &mut SmvCounters,
) -> TracedWorkload {
    let mut tracer = Tracer::default();
    let mut untraced_ms = 0.0;
    let (mut wrong, mut errors) = (0, 0);
    let regret = workload == Workload::SmvCold;
    for (id, program) in programs.iter().enumerate() {
        for traced_first in [id % 2 == 1, id % 2 == 0] {
            if traced_first {
                daemon::traced_job(
                    &mut tracer,
                    id as u32,
                    program,
                    &mut traced.client,
                    stores,
                    regret,
                    acc,
                );
                continue;
            }
            let t0 = Instant::now();
            match daemon::send(&mut plain.client, program, cmc_core::BackendChoice::Auto) {
                daemon::Sent::Report(r) => {
                    let got: Vec<bool> = r.specs.iter().map(|(_, v)| *v).collect();
                    wrong += u64::from(got != program.verdicts());
                }
                daemon::Sent::Failed(_) => errors += 1,
            }
            untraced_ms += ms_since(t0);
        }
    }
    TracedWorkload {
        workload,
        traced_ms: tracer.total_ms("serve.roundtrip"),
        tracer,
        untraced_ms,
        wrong: wrong + acc.wrong,
        errors: errors + acc.errors,
    }
}

/// Run the traced replay of every workload.
pub fn run_traced(seed: u64, scale: Scale, root: &Path) -> Result<TraceResult, String> {
    let mut paper = PaperCounters::default();
    let paper_trace = trace_paper(seed, scale, &mut paper)?;

    // smv_cold: the first round, on two empty-store daemons.
    let programs = daemon::cold_programs(seed, scale);
    let mut plain = Daemon::start(None)?;
    let mut traced = Daemon::start(None)?;
    let mut cold = SmvCounters::default();
    let cold_trace = trace_smv(
        Workload::SmvCold,
        &programs,
        &mut plain,
        &mut traced,
        &ReplayStores::default(),
        &mut cold,
    );
    let cold_stats = traced.server.stats();
    plain.stop();
    traced.stop();

    // serve_mixed: two daemons with disk tiers and the hot set verified.
    let (hot, sequence) = daemon::mixed_programs(seed, scale);
    let mut plain = Daemon::start(Some(daemon::temp_dir(root, "trace-plain")))?;
    let mut traced = Daemon::start(Some(daemon::temp_dir(root, "trace-traced")))?;
    daemon::verify_all(&mut plain, &hot)?;
    daemon::verify_all(&mut traced, &hot)?;
    let stores = ReplayStores::default();
    for program in &hot {
        stores.preload(program)?;
    }
    let before = traced.server.store().stats();
    let mut mixed = SmvCounters::default();
    let mixed_trace = trace_smv(
        Workload::ServeMixed,
        &sequence,
        &mut plain,
        &mut traced,
        &stores,
        &mut mixed,
    );
    let mixed_stats = traced.server.stats();
    plain.stop();
    let mixed_store = traced.stop();
    let hits = mixed_store.hits - before.hits;
    let lookups = hits + mixed_store.misses - before.misses;

    Ok(TraceResult {
        workloads: vec![paper_trace, cold_trace, mixed_trace],
        paper,
        cold,
        mixed,
        mixed_hit_rate: hits as f64 / lookups.max(1) as f64,
        mixed_store,
        serve_job_errors: cold_stats.job_errors + mixed_stats.job_errors,
        serve_protocol_errors: cold_stats.protocol_errors + mixed_stats.protocol_errors,
    })
}

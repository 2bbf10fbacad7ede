//! The `paper_scaling` workload: token rings and AFS-2 instances proved
//! compositionally and monolithically through `cmc_core::engine::Engine`
//! and `cmc_afs::afs2` — the paper's §5 claim, with no parsing, store or
//! network in the timed path.

use crate::gen::Rng;
use crate::measure::process_cpu_s;
use crate::trace::Tracer;
use crate::Scale;
use cmc_core::engine::{Certificate, Component, Engine};
use cmc_core::rules::{rule4, Guarantee};
use cmc_core::BackendKind;
use cmc_ctl::{parse, Formula, Restriction};
use cmc_kripke::Alphabet;
use cmc_smv::{compile_explicit, parse_module, Module};
use std::collections::BTreeMap;
use std::time::Instant;

/// Ring sizes proved both ways; the largest keeps the `2^n` validity
/// step of `prove_invariant` in the run.
const FULL_RINGS: &[usize] = &[6, 10, 14, 18, 20];
const SMOKE_RINGS: &[usize] = &[4, 6];
/// Size of the ring with one broken station.
const FULL_BROKEN: usize = 12;
const SMOKE_BROKEN: usize = 5;
const FULL_AFS: usize = 6;
const SMOKE_AFS: usize = 2;

/// One proof goal and the verdict it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// `prove_invariant` of pairwise exclusion from token-at-0: valid
    /// for a correct ring, invalid for the broken one.
    RingInvariant {
        /// Stations.
        n: usize,
        /// Whether this is the broken ring.
        broken: bool,
    },
    /// Rule-4 progress guarantee of one station, discharged.
    RingDischarge {
        /// Stations.
        n: usize,
        /// The station.
        station: usize,
    },
    /// `monolithic_check` of `AF t1` from `t0`, other bits free, under
    /// ring fairness: true for a correct ring.
    RingMonolithic {
        /// Stations.
        n: usize,
    },
    /// `monolithic_check` of `AG` pairwise exclusion from token-at-0 on
    /// the broken ring: false.
    BrokenMonolithic {
        /// Stations.
        n: usize,
    },
    /// `afs2::prove_invariant_compositional`: valid.
    AfsCompositional {
        /// Clients.
        clients: usize,
    },
    /// `afs2::prove_invariant_monolithic`: true.
    AfsMonolithic {
        /// Clients.
        clients: usize,
    },
}

impl Goal {
    /// Short label of the goal's kind and size, e.g. `invariant20`.
    pub fn kind(self) -> String {
        match self {
            Goal::RingInvariant { n, broken: false } => format!("invariant{n}"),
            Goal::RingInvariant { n, broken: true } => format!("broken_invariant{n}"),
            Goal::RingDischarge { n, .. } => format!("discharge{n}"),
            Goal::RingMonolithic { n } => format!("monolithic{n}"),
            Goal::BrokenMonolithic { n } => format!("broken_monolithic{n}"),
            Goal::AfsCompositional { clients } => format!("afs_compositional{clients}"),
            Goal::AfsMonolithic { clients } => format!("afs_monolithic{clients}"),
        }
    }

    /// The verdict the construction guarantees.
    pub fn expected(self) -> bool {
        !matches!(
            self,
            Goal::RingInvariant { broken: true, .. } | Goal::BrokenMonolithic { .. }
        )
    }
}

/// A ring's engine and the formulas its goals use, built in set-up.
pub struct RingFixture {
    engine: Engine,
    inv: Formula,
    init: Formula,
    guarantees: Vec<Guarantee>,
    live_r: Restriction,
    live_f: Formula,
}

/// Everything the goals run against, built before the first timed job.
pub struct Fixture {
    rings: BTreeMap<usize, RingFixture>,
    broken: RingFixture,
    broken_n: usize,
    afs: usize,
}

/// Station `i` of an `n`-ring. A broken station keeps the token while
/// passing it on.
fn station_module(i: usize, n: usize, broken: bool) -> Module {
    let j = (i + 1) % n;
    let keep = u8::from(broken);
    parse_module(&format!(
        "MODULE main\nVAR t{i} : boolean; t{j} : boolean;\nASSIGN\n  \
         next(t{i}) := case t{i} : {keep}; 1 : t{i}; esac;\n  \
         next(t{j}) := case t{i} : 1; 1 : t{j}; esac;\n"
    ))
    .expect("station module parses")
}

fn t(i: usize) -> Formula {
    Formula::ap(format!("t{i}"))
}

fn ring_fixture(n: usize, broken: Option<usize>) -> RingFixture {
    let modules: Vec<Module> = (0..n)
        .map(|i| station_module(i, n, broken == Some(i)))
        .collect();
    let compiled: Vec<_> = modules
        .iter()
        .map(|m| compile_explicit(m).expect("station compiles"))
        .collect();
    let engine = Engine::new(
        compiled
            .iter()
            .enumerate()
            .map(|(i, c)| Component::new(format!("station{i}"), c.system.clone()))
            .collect(),
    );
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            pairs.push(t(i).and(t(j)).not());
        }
    }
    let inv = Formula::and_many(pairs);
    let init = Formula::and_many((0..n).map(|k| if k == 0 { t(k) } else { t(k).not() }));
    let guarantees = if broken.is_some() {
        Vec::new()
    } else {
        compiled
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let p = c.parse_formula(&format!("t{i}")).expect("own token");
                let q = c
                    .parse_formula(&format!("t{}", (i + 1) % n))
                    .expect("next token");
                rule4(&c.system, &p, &q).expect("a station hands its token on")
            })
            .collect()
    };
    let fairness: Vec<Formula> = (0..n)
        .map(|i| parse(&format!("!t{i} | t{}", (i + 1) % n)).expect("fairness formula parses"))
        .collect();
    let (live_r, live_f) = if broken.is_some() {
        (Restriction::with_init(init.clone()), inv.clone().ag())
    } else {
        (
            Restriction::new(t(0), fairness),
            parse("AF t1").expect("AF t1"),
        )
    };
    RingFixture {
        engine,
        inv,
        init,
        guarantees,
        live_r,
        live_f,
    }
}

impl Fixture {
    /// Build every engine, formula and Rule-4 guarantee; `rng` picks the
    /// broken station.
    pub fn build(scale: Scale, rng: &mut Rng) -> Fixture {
        let (sizes, broken_n, afs) = match scale {
            Scale::Full => (FULL_RINGS, FULL_BROKEN, FULL_AFS),
            Scale::Smoke => (SMOKE_RINGS, SMOKE_BROKEN, SMOKE_AFS),
        };
        let rings = sizes.iter().map(|&n| (n, ring_fixture(n, None))).collect();
        let broken = ring_fixture(broken_n, Some(rng.below(broken_n)));
        Fixture {
            rings,
            broken,
            broken_n,
            afs,
        }
    }

    /// One round of goals in seeded order. The multiset of goals is the
    /// same for every seed, so seeds are comparable.
    pub fn deck(&self, rng: &mut Rng) -> Vec<Goal> {
        let mut deck = Vec::new();
        for &n in self.rings.keys() {
            deck.push(Goal::RingInvariant { n, broken: false });
            deck.push(Goal::RingMonolithic { n });
            deck.extend((0..n).map(|station| Goal::RingDischarge { n, station }));
        }
        deck.push(Goal::RingInvariant {
            n: self.broken_n,
            broken: true,
        });
        deck.push(Goal::BrokenMonolithic { n: self.broken_n });
        for clients in 1..=self.afs {
            deck.push(Goal::AfsCompositional { clients });
            deck.push(Goal::AfsMonolithic { clients });
        }
        rng.shuffle(&mut deck);
        deck
    }

    fn ring(&self, n: usize, broken: bool) -> &RingFixture {
        if broken {
            &self.broken
        } else {
            &self.rings[&n]
        }
    }

    /// Run one goal; `Err` is an engine error (a failed job).
    pub fn run(&self, goal: Goal) -> Result<bool, String> {
        self.run_with_cert(goal).map(|(holds, _)| holds)
    }

    fn run_with_cert(&self, goal: Goal) -> Result<(bool, Option<Certificate>), String> {
        match goal {
            Goal::RingInvariant { n, broken } => {
                let ring = self.ring(n, broken);
                let cert = ring
                    .engine
                    .prove_invariant(&ring.inv, &ring.init, &[])
                    .map_err(|e| e.to_string())?;
                Ok((cert.valid, Some(cert)))
            }
            Goal::RingDischarge { n, station } => {
                let ring = self.ring(n, false);
                let cert = ring
                    .engine
                    .discharge(&ring.guarantees[station])
                    .map_err(|e| e.to_string())?;
                Ok((cert.valid, None))
            }
            Goal::RingMonolithic { n } | Goal::BrokenMonolithic { n } => {
                let ring = self.ring(n, matches!(goal, Goal::BrokenMonolithic { .. }));
                ring.engine
                    .monolithic_check(&ring.live_r, &ring.live_f)
                    .map(|holds| (holds, None))
                    .map_err(|e| e.to_string())
            }
            Goal::AfsCompositional { clients } => {
                cmc_afs::afs2::prove_invariant_compositional(clients)
                    .map(|p| (p.valid(), None))
                    .map_err(|e| e.to_string())
            }
            Goal::AfsMonolithic { clients } => cmc_afs::afs2::prove_invariant_monolithic(clients)
                .map(|holds| (holds, None))
                .map_err(|e| e.to_string()),
        }
    }

    /// Cheap calls that touch each code path once before timing.
    pub fn warm_up(&self) -> Result<(), String> {
        let (&n, _) = self.rings.iter().next().expect("at least one ring");
        for goal in [
            Goal::RingDischarge { n, station: 0 },
            Goal::RingMonolithic { n },
            Goal::AfsCompositional { clients: 1 },
            Goal::AfsMonolithic { clients: 1 },
        ] {
            if self.run(goal)? != goal.expected() {
                return Err(format!("warm-up goal {goal:?} got the wrong verdict"));
            }
        }
        Ok(())
    }
}

/// Counters the traced replay adds up beside its spans.
#[derive(Debug, Default, Clone)]
pub struct PaperCounters {
    /// `Certificate::checked_steps` of every `prove_invariant`.
    pub checked_steps: u64,
    /// Of those, steps the explicit backend discharged.
    pub explicit_steps: u64,
    /// Process CPU seconds spent inside `prove_invariant`.
    pub invariant_cpu_s: f64,
    /// Wall seconds spent inside `prove_invariant`.
    pub invariant_wall_s: f64,
    /// Per correct ring size: (`prove_invariant` ms, validity step ms).
    pub by_ring: BTreeMap<usize, (f64, f64)>,
}

/// Span name of the call that a goal times.
pub fn span_name(goal: Goal) -> &'static str {
    match goal {
        Goal::RingInvariant { .. } => "core.prove_invariant",
        Goal::RingDischarge { .. } => "core.discharge",
        Goal::RingMonolithic { .. } | Goal::BrokenMonolithic { .. } => "core.monolithic_check",
        Goal::AfsCompositional { .. } => "afs.compositional",
        Goal::AfsMonolithic { .. } => "afs.monolithic",
    }
}

/// Replay one goal under spans: the engine call, and for invariants the
/// `I ⇒ Inv` validity step re-run on its own. Returns the verdict.
pub fn traced_goal(
    fixture: &Fixture,
    goal: Goal,
    tracer: &mut Tracer,
    counters: &mut PaperCounters,
) -> Result<bool, String> {
    let cpu0 = process_cpu_s();
    let wall0 = Instant::now();
    let (holds, cert) = tracer.span(span_name(goal), |_| fixture.run_with_cert(goal))?;
    if let Goal::RingInvariant { n, broken } = goal {
        let wall_ms = wall0.elapsed().as_secs_f64() * 1e3;
        counters.invariant_wall_s += wall_ms / 1e3;
        counters.invariant_cpu_s += process_cpu_s() - cpu0;
        let cert = cert.expect("prove_invariant returns a certificate");
        for step in cert.checked_steps() {
            counters.checked_steps += 1;
            counters.explicit_steps += u64::from(step.backend == Some(BackendKind::Explicit));
        }
        let ring = fixture.ring(n, broken);
        let validity = ring.init.clone().implies(ring.inv.clone());
        let alphabet = Alphabet::new(validity.atomic_props().into_iter().collect::<Vec<_>>());
        let v0 = Instant::now();
        let valid = tracer.span("core.validity", |_| {
            cmc_core::parallel::propositional_validity(&alphabet, &validity)
        });
        if !broken {
            let ring = counters.by_ring.entry(n).or_default();
            ring.0 += wall_ms;
            ring.1 += v0.elapsed().as_secs_f64() * 1e3;
        }
        if !valid {
            return Err("token-at-0 must imply pairwise exclusion".to_string());
        }
    }
    Ok(holds)
}

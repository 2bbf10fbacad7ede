//! The benchmark's own tests: generator determinism per seed, the
//! known answers on small instances, agreement between the program's
//! metric names and `BENCHMARK.json`, and smoke-sized runs of every
//! workload and of the traced replay.

use cmc_smv::{run_source_with_backend, BackendChoice};
use perfbench::daemon::{cold_programs, cold_round, fresh_cycle, hot_shapes, mixed_programs};
use perfbench::gen::{ProgramFactory, Rng, Shape};
use perfbench::paper::Fixture;
use perfbench::{run, run_traced, Scale, Workload};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

const SMALL: [Shape; 6] = [
    Shape::Ring(4),
    Shape::Ring(5),
    Shape::Ring(7),
    Shape::Afs(1),
    Shape::Afs(2),
    Shape::Afs(3),
];

#[test]
fn generators_are_deterministic_per_seed() {
    for seed in [1, 2, 99] {
        let a: Vec<String> = cold_programs(seed, Scale::Full)
            .into_iter()
            .map(|p| p.source)
            .collect();
        let b: Vec<String> = cold_programs(seed, Scale::Full)
            .into_iter()
            .map(|p| p.source)
            .collect();
        assert_eq!(a, b, "seed {seed}");
        let (hot_a, seq_a) = mixed_programs(seed, Scale::Full);
        let (hot_b, seq_b) = mixed_programs(seed, Scale::Full);
        assert_eq!(
            hot_a
                .iter()
                .chain(&seq_a)
                .map(|p| &p.source)
                .collect::<Vec<_>>(),
            hot_b
                .iter()
                .chain(&seq_b)
                .map(|p| &p.source)
                .collect::<Vec<_>>()
        );
        let deck = |seed| {
            let mut rng = Rng::new(seed);
            let fixture = Fixture::build(Scale::Smoke, &mut rng);
            fixture.deck(&mut rng)
        };
        assert_eq!(deck(seed), deck(seed));
    }
    assert_ne!(
        cold_programs(1, Scale::Full)[0].source,
        cold_programs(2, Scale::Full)[0].source,
        "different seeds should give different inputs"
    );
}

#[test]
fn seeds_change_order_but_not_the_mix() {
    let mut a = cold_round(Scale::Full, &mut Rng::new(1));
    let mut b = cold_round(Scale::Full, &mut Rng::new(2));
    assert_ne!(a, b);
    a.sort();
    b.sort();
    assert_eq!(a, b);
    let mut a = fresh_cycle(Scale::Full, &mut Rng::new(1));
    let mut b = fresh_cycle(Scale::Full, &mut Rng::new(2));
    a.sort();
    b.sort();
    assert_eq!(a, b);
    let explicit = a.iter().filter(|s| s.fits_explicit()).count();
    assert!(explicit > 0 && explicit < a.len());
}

#[test]
fn factory_never_repeats_a_source() {
    let mut factory = ProgramFactory::new(5);
    let mut seen = std::collections::HashSet::new();
    for shape in SMALL.into_iter().chain(hot_shapes(Scale::Full)) {
        for _ in 0..60 {
            assert!(seen.insert(factory.make(shape).source));
        }
    }
}

#[test]
fn known_answers_hold_on_small_instances() {
    let mut factory = ProgramFactory::new(11);
    for shape in SMALL {
        // Enough variants to cover every start station, both rotation
        // directions (or server states) and a renamed block.
        for _ in 0..16 {
            let program = factory.make(shape);
            assert!(
                program.expected.iter().any(|(_, v)| !v),
                "a false spec per program"
            );
            for backend in [BackendChoice::Explicit, BackendChoice::Symbolic] {
                let out = run_source_with_backend(&program.source, backend).unwrap();
                let got: Vec<bool> = out.results.iter().map(|(_, v)| *v).collect();
                assert_eq!(got, program.verdicts(), "{backend:?}\n{}", program.source);
            }
        }
    }
}

#[test]
fn proof_goals_get_their_known_answers() {
    let mut rng = Rng::new(3);
    let fixture = Fixture::build(Scale::Smoke, &mut rng);
    let deck = fixture.deck(&mut rng);
    assert!(
        deck.iter().any(|g| !g.expected()),
        "the broken ring is in the deck"
    );
    for goal in deck {
        assert_eq!(fixture.run(goal), Ok(goal.expected()), "{goal:?}");
    }
}

fn benchmark_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("..").join("BENCHMARK.json")).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let body = &text[start..];
    let end = body.find(']').unwrap();
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn smoke_root(tag: &str) -> PathBuf {
    root().join("tmp").join(format!("test-{tag}"))
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Only succeeds once the other tests' directories are gone too.
    let _ = std::fs::remove_dir(root().join("tmp"));
}

#[test]
fn smoke_runs_of_every_workload_are_correct() {
    let dir = smoke_root("runs");
    let expected = benchmark_names("end_to_end");
    for workload in Workload::ALL {
        let result = run(workload, 7, 0.3, Scale::Smoke, &dir).unwrap();
        assert!(result.correct(), "{}: {:?}", workload.name(), result.log);
        assert!(result.log.attempted > 0);
        assert_eq!(result.log.failed, 0, "{:?}", result.log.notes);
        assert_eq!(result.setup_s.len(), perfbench::SETUP_REPEATS);
        let metrics = result.metrics();
        let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, expected);
        for m in metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
    remove(&dir);
}

#[test]
fn smoke_traced_run_reports_every_per_layer_metric() {
    let dir = smoke_root("trace");
    let trace = run_traced(7, Scale::Smoke, &dir).unwrap();
    assert!(trace.correct());
    let names: Vec<String> = trace.metrics().iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, benchmark_names("per_layer"));
    for w in &trace.workloads {
        // Self times plus the uncovered part account for the job time.
        let covered: f64 = w.layer_self_ms().values().sum();
        assert!((covered - w.job_ms()).abs() < 1e-6 * w.job_ms().max(1.0));
        assert!(w.uncovered_ms() < w.job_ms());
    }
    remove(&dir);
}

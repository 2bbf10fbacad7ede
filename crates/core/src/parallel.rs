//! Parallel component verification.
//!
//! The compositional method's practical selling point (Discussion §5) is
//! that verification cost is *linear* in the number of components — and the
//! per-component checks are independent, so they parallelise perfectly.
//! This module fans component checks out over the bounded work-claiming
//! scheduler in [`crate::scheduler`]: at most `available_parallelism`
//! workers drain a shared task queue, so a 30-component proof keeps every
//! core busy without spawning 30 threads. A panic inside one component's
//! check degrades to an `Err` for that component only; the sibling checks
//! still report normally, and result order is the input order regardless
//! of worker count.

use crate::backend::{check_planned, check_routed, BackendChoice, BackendKind, Target, Verdict};
use crate::scheduler;
use cmc_bdd::BddManager;
use cmc_ctl::{Formula, Restriction};
use cmc_kripke::{Alphabet, System};
use cmc_store::{CertStore, Entry, ObligationKey};
use cmc_symbolic::{prop_formula_to_bdd, NamedState};
use std::sync::Arc;

/// Check `⊨ f` (all states) on each system concurrently, routing each
/// check through the backend `choice` resolves for it. Returns
/// `(name, verdict-or-error)` in input order.
pub fn check_holds_everywhere_parallel(
    names: &[String],
    systems: &[System],
    f: &Formula,
    choice: BackendChoice,
) -> Vec<(String, Result<bool, String>)> {
    check_holds_everywhere_with_workers(names, systems, f, choice, scheduler::default_workers())
}

/// [`check_holds_everywhere_parallel`] with an explicit worker cap
/// (benchmarks sweep this; `1` gives the sequential baseline through the
/// identical code path).
pub fn check_holds_everywhere_with_workers(
    names: &[String],
    systems: &[System],
    f: &Formula,
    choice: BackendChoice,
    workers: usize,
) -> Vec<(String, Result<bool, String>)> {
    assert_eq!(names.len(), systems.len());
    let trivial = Restriction::trivial();
    let outcomes = scheduler::run_bounded(systems.len(), workers, |i| {
        let target = Target::system(systems[i].clone());
        check_routed(choice, &target, &trivial, f)
            .map(|v| v.holds)
            .map_err(|e| e.to_string())
    });
    names
        .iter()
        .cloned()
        .zip(outcomes.into_iter().map(|r| r.and_then(|inner| inner)))
        .collect()
}

/// Run heterogeneous check tasks concurrently over at most `workers`
/// threads: each task is a labelled `⊨ f` (all states) check of one
/// formula on one [`Target`], routed through the backend `choice`
/// resolves for that target. Returns full [`Verdict`]s (or error
/// messages) in task order.
pub fn check_targets_with_workers(
    tasks: &[(String, Target, Formula)],
    choice: BackendChoice,
    workers: usize,
) -> Vec<(String, Result<Verdict, String>)> {
    let trivial = Restriction::trivial();
    let outcomes = scheduler::run_bounded(tasks.len(), workers, |i| {
        let (_, target, f) = &tasks[i];
        check_routed(choice, target, &trivial, f).map_err(|e| e.to_string())
    });
    tasks
        .iter()
        .map(|(name, _, _)| name.clone())
        .zip(outcomes.into_iter().map(|r| r.and_then(|inner| inner)))
        .collect()
}

/// Outcome of one obligation in a store-aware fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutOutcome {
    /// Does the obligation hold (over all states, trivial restriction)?
    pub holds: bool,
    /// Was the verdict served from the shared [`CertStore`] instead of
    /// being recomputed?
    pub store_hit: bool,
    /// The engine the cost model *planned* for this target (store keys
    /// are keyed by the plan, which is deterministic; a fallback at check
    /// time does not change the obligation's identity).
    pub backend: BackendKind,
}

/// [`check_targets_with_workers`], but exchanging verdicts through a
/// shared [`CertStore`]: each worker keys its obligation structurally
/// ([`ObligationKey::composed`], so duplicate obligations collide across
/// workers and across runs) and consults the store before checking.
///
/// This is the fixpoint-obligation fan-out of the partitioned engine:
/// every job that routes symbolic builds its **own** `SymbolicModel` — and
/// with it a private `BddManager` — inside the worker, so no BDD state is
/// shared between threads; the only cross-worker exchange is the verdict
/// entry in the store.
pub fn check_targets_with_store(
    tasks: &[(String, Target, Formula)],
    choice: BackendChoice,
    workers: usize,
    store: &Arc<CertStore>,
) -> Vec<(String, Result<FanoutOutcome, String>)> {
    let trivial = Restriction::trivial();
    let outcomes = scheduler::run_bounded(tasks.len(), workers, |i| {
        let (_, target, f) = &tasks[i];
        let decision = choice.route(target, &trivial);
        let kind = decision.planned;
        let refs: Vec<&System> = target.systems().iter().collect();
        // The expansion alphabet is part of the obligation's identity (the
        // same components over a wider Σ* is a different target), so it
        // rides in the mode tag.
        let mode = format!("fanout/{}", target.extra().names().join(","));
        let key = ObligationKey::composed(&mode, kind.name(), &refs, &trivial, f);
        let (entry, store_hit) = store.get_or_check(key, || {
            check_planned(choice, decision, target, &trivial, f, 1)
                .map(|v| Entry::verdict(v.holds))
                .map_err(|e| e.to_string())
        })?;
        Ok(FanoutOutcome {
            holds: entry.verdict,
            store_hit,
            backend: kind,
        })
    });
    tasks
        .iter()
        .map(|(name, _, _)| name.clone())
        .zip(outcomes.into_iter().map(|r| r.and_then(|inner| inner)))
        .collect()
}

/// Decide propositional validity of `f` over `alphabet` (used for the
/// `I ⇒ Inv` obligation of the invariant rule).
pub fn propositional_validity(alphabet: &Alphabet, f: &Formula) -> bool {
    falsifying_assignment(alphabet, f).is_none()
}

/// One total assignment over `alphabet` under which the propositional
/// formula `f` is false, or `None` when `f` is valid.
///
/// `f` is built as a BDD in a throwaway manager with one variable per
/// alphabet position, so the cost tracks the diagram, not the `2^|Σ|`
/// assignments. Panics if `f` is temporal or mentions a proposition
/// outside `alphabet`.
pub fn falsifying_assignment(alphabet: &Alphabet, f: &Formula) -> Option<NamedState> {
    let mut mgr = BddManager::new();
    let vars = mgr.new_vars(alphabet.len());
    let bdd = prop_formula_to_bdd(&mut mgr, f, &mut |m, p| {
        alphabet.position(p).map(|i| m.var(vars[i]))
    })
    .unwrap_or_else(|e| panic!("propositional validity: {e}"));
    let refutation = mgr.not(bdd);
    let values = mgr.any_sat_total(refutation, alphabet.len())?;
    Some(NamedState::new(
        alphabet.names().iter().cloned().zip(values).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::ring_exclusion as pairwise_exclusion;
    use cmc_ctl::parse;
    use proptest::prelude::*;

    fn rising(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m
    }

    #[test]
    fn parallel_checks_match_sequential() {
        let systems: Vec<System> = (0..8).map(|i| rising(&format!("v{i}"))).collect();
        let names: Vec<String> = (0..8).map(|i| format!("c{i}")).collect();
        // v0 ⇒ AX v0 — true for c0 (it owns v0 and never clears it) and
        // errors for others (unknown proposition), proving per-component
        // isolation of errors.
        let f = parse("v0 -> AX v0").unwrap();
        let results = check_holds_everywhere_parallel(&names, &systems, &f, BackendChoice::Auto);
        assert_eq!(results.len(), 8);
        assert_eq!(results[0].1, Ok(true));
        for (_, r) in &results[1..] {
            assert!(r.is_err());
        }
    }

    #[test]
    fn parallel_order_is_stable() {
        let systems: Vec<System> = (0..4).map(|_| rising("x")).collect();
        let names: Vec<String> = (0..4).map(|i| format!("c{i}")).collect();
        let f = parse("x -> AX x").unwrap();
        let results = check_holds_everywhere_parallel(&names, &systems, &f, BackendChoice::Auto);
        let got: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(got, vec!["c0", "c1", "c2", "c3"]);
        assert!(results.iter().all(|(_, r)| *r == Ok(true)));
    }

    #[test]
    fn panicking_job_degrades_to_err_for_that_slot_only() {
        let results = scheduler::run(4, |i| {
            if i == 2 {
                panic!("injected fault in job {i}");
            }
            i * 10
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Ok(10));
        assert_eq!(results[3], Ok(30));
        let err = results[2].as_ref().unwrap_err();
        assert!(err.contains("panicked"), "unexpected message: {err}");
        assert!(err.contains("injected fault"), "payload lost: {err}");
    }

    /// Scheduler determinism through the real checking path: every worker
    /// count yields byte-identical results in input order.
    #[test]
    fn results_identical_across_worker_counts() {
        let systems: Vec<System> = (0..10).map(|i| rising(&format!("w{i}"))).collect();
        let names: Vec<String> = (0..10).map(|i| format!("c{i}")).collect();
        let f = parse("w3 -> AX w3").unwrap();
        let baseline =
            check_holds_everywhere_with_workers(&names, &systems, &f, BackendChoice::Auto, 1);
        for workers in [2, 4, 8] {
            let got = check_holds_everywhere_with_workers(
                &names,
                &systems,
                &f,
                BackendChoice::Auto,
                workers,
            );
            assert_eq!(got, baseline, "worker count {workers}");
        }
    }

    #[test]
    fn store_fanout_memoizes_duplicate_obligations() {
        let store = Arc::new(cmc_store::CertStore::new());
        // Four tasks, but only two distinct obligations: duplicates must
        // be served from the store while fresh ones compute.
        let tasks: Vec<(String, Target, Formula)> = (0..4)
            .map(|i| {
                let v = if i % 2 == 0 { "x" } else { "y" };
                let f = parse(&format!("{v} -> AX {v}")).unwrap();
                (format!("t{i}"), Target::system(rising(v)), f)
            })
            .collect();
        let results = check_targets_with_store(&tasks, BackendChoice::Auto, 1, &store);
        assert_eq!(results.len(), 4);
        let o0 = results[0].1.as_ref().unwrap();
        assert!(o0.holds && !o0.store_hit);
        let o2 = results[2].1.as_ref().unwrap();
        assert!(o2.holds && o2.store_hit, "duplicate obligation recomputed");
        assert_eq!(store.len(), 2);
        // A second sweep over the same tasks is all hits, on any worker
        // count, with identical outcomes.
        for workers in [1, 2, 4] {
            let again = check_targets_with_store(&tasks, BackendChoice::Auto, workers, &store);
            for (name, r) in &again {
                let o = r.as_ref().unwrap();
                assert!(o.store_hit, "{name} missed a warm store");
                assert!(o.holds);
            }
        }
    }

    #[test]
    fn store_fanout_distinguishes_expansion_alphabets() {
        let store = Arc::new(cmc_store::CertStore::new());
        let sys = rising("x");
        let f = parse("x -> AX x").unwrap();
        let tasks = vec![
            ("plain".to_string(), Target::system(sys.clone()), f.clone()),
            (
                "expanded".to_string(),
                Target::expansion(sys, Alphabet::new(["z"])),
                f.clone(),
            ),
        ];
        let results = check_targets_with_store(&tasks, BackendChoice::Auto, 2, &store);
        assert!(results.iter().all(|(_, r)| r.is_ok()));
        // Same components, same formula, different Σ* — two store entries.
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn propositional_validity_decides_tautologies() {
        let al = Alphabet::new(["a", "b"]);
        assert!(propositional_validity(&al, &parse("a | !a").unwrap()));
        assert!(propositional_validity(&al, &parse("a & b -> a").unwrap()));
        assert!(!propositional_validity(&al, &parse("a -> b").unwrap()));
        let cex = falsifying_assignment(&al, &parse("a -> b").unwrap()).unwrap();
        assert_eq!(cex.get("a"), Some(true));
        assert_eq!(cex.get("b"), Some(false));
    }

    /// `⋁ᵢ (tᵢ ∧ ⋀_{k≠i} ¬tₖ)` over `t0..t{n-1}`.
    fn one_hot(n: usize) -> Formula {
        Formula::or_many((0..n).map(|i| {
            Formula::and_many((0..n).map(|k| {
                let t = Formula::ap(format!("t{k}"));
                if k == i {
                    t
                } else {
                    t.not()
                }
            }))
        }))
    }

    /// Seventy propositions: far past the `2^63` ceiling of state
    /// enumeration, and a small diagram either way.
    #[test]
    fn validity_past_enumerable_widths() {
        let n = 70;
        let al = Alphabet::new((0..n).map(|i| format!("t{i}")));
        let exclusive = one_hot(n).implies(pairwise_exclusion(n));
        assert!(propositional_validity(&al, &exclusive));
        // The converse fails: the all-false state excludes pairwise but
        // holds no token.
        let converse = pairwise_exclusion(n).implies(one_hot(n));
        let cex = falsifying_assignment(&al, &converse).expect("converse is not valid");
        assert!(!converse.eval_bits(&al, &|i| cex.assignments()[i].1));
    }

    fn arb_formula() -> impl Strategy<Value = Formula> {
        let names: Vec<String> = (0..10).map(|i| format!("p{i}")).collect();
        let leaf = prop_oneof![
            Just(Formula::True),
            Just(Formula::False),
            proptest::sample::select(names).prop_map(Formula::ap),
        ];
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|f| f.not()),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
                (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The BDD decision agrees with enumerating every assignment, and
        /// a reported falsifying assignment really falsifies.
        #[test]
        fn bdd_validity_matches_enumeration(f in arb_formula(), g in arb_formula()) {
            let al = Alphabet::new((0..10).map(|i| format!("p{i}")));
            // Random formulas are rarely valid; the weakenings are.
            let candidates = [
                f.clone(),
                f.clone().implies(g.clone()),
                f.clone().implies(f.clone().or(g.clone())),
                f.clone().and(g.clone()).implies(g.clone()),
            ];
            for h in candidates {
                let enumerated = cmc_kripke::state::all_states(&al)
                    .all(|s| h.eval_in_state(&al, s));
                prop_assert_eq!(propositional_validity(&al, &h), enumerated, "{}", h);
                if let Some(cex) = falsifying_assignment(&al, &h) {
                    prop_assert!(!h.eval_bits(&al, &|i| cex.assignments()[i].1));
                }
            }
        }
    }
}

//! The SMV driver's `Auto` route and its symbolic spec loop, through the
//! public entry points: `Auto` plans with the engine's one cost model
//! (`BackendChoice::plan` over the module's bit width and valid-state
//! count), the report names the plan and the engine, and the BDD arena is
//! collected between specs.

use cmc_core::{BackendChoice, BackendKind, AUTO_CROSSOVER_STATES};
use cmc_smv::{run_source_with_backend, run_source_with_store_and_backend};
use cmc_store::CertStore;

/// `k` three-valued enums (`2k` bits, `3^k` valid states), one true spec.
fn enums(k: usize) -> String {
    let vars: String = (0..k).map(|i| format!("e{i} : {{a, b, c}};\n")).collect();
    format!("MODULE main\nVAR {vars}SPEC AG 1")
}

/// An `n`-station token ring, token at station 0, with `specs` appended.
fn ring(n: usize, specs: &str) -> String {
    let mut src = String::from("MODULE main\nVAR\n");
    for i in 0..n {
        src.push_str(&format!("  t{i} : boolean;\n"));
    }
    src.push_str("ASSIGN\n");
    for i in 0..n {
        let prev = (i + n - 1) % n;
        src.push_str(&format!(
            "  init(t{i}) := {};\n  next(t{i}) := t{prev};\n",
            u8::from(i == 0)
        ));
    }
    src + specs
}

#[test]
fn auto_route_line_names_the_plan_in_both_polarities() {
    // 3^4 = 81 valid states plan explicit; 3^5 = 243 plan symbolic.
    for (k, states, kind, side, engine) in [
        (4, 81u128, "explicit", "<=", "explicit-state"),
        (5, 243, "symbolic", ">", "symbolic (BDD)"),
    ] {
        let out = run_source_with_backend(&enums(k), BackendChoice::Auto).unwrap();
        assert!(out.all_true());
        assert_eq!(out.route, Some(BackendChoice::Auto.plan(2 * k, states)));
        let route = format!(
            "route: auto planned {kind} ({states} valid states {side} \
             {AUTO_CROSSOVER_STATES} crossover)\n"
        );
        assert!(out.report.contains(&route), "{}", out.report);
        assert!(out.report.contains(&format!("engine: {engine}\n")));
        // The store-backed daemon entry point routes the same way, on the
        // cold run and on the fully warm one.
        let store = CertStore::new();
        for _ in 0..2 {
            let out =
                run_source_with_store_and_backend(&enums(k), &store, BackendChoice::Auto).unwrap();
            assert!(out.report.contains(&route), "{}", out.report);
            assert!(out.report.contains(&format!("engine: {engine}\n")));
        }
    }
    // A forced engine says so.
    let out = run_source_with_backend(&enums(5), BackendChoice::Explicit).unwrap();
    assert!(out
        .report
        .contains("route: explicit requested (243 valid states)\nengine: explicit-state\n"));
}

#[test]
fn auto_sends_a_14_station_ring_to_the_bdd_engine() {
    let src = ring(14, "SPEC AG !(t0 & t1)\nSPEC EF t7\nSPEC AG t0\n");
    let out = run_source_with_backend(&src, BackendChoice::Auto).unwrap();
    assert!(
        out.report.contains("engine: symbolic (BDD)\n"),
        "{}",
        out.report
    );
    assert!(out
        .report
        .contains("route: auto planned symbolic (16384 valid states > 128 crossover)\n"));
    let route = out.route.unwrap();
    assert_eq!(route.planned, BackendKind::Symbolic);
    assert!(!route.fell_back);
    let verdicts: Vec<bool> = out.results.iter().map(|(_, ok)| *ok).collect();
    assert_eq!(verdicts, [true, true, false]);
}

#[test]
fn symbolic_specs_run_on_a_collected_arena() {
    // A 40-station ring compiles to ~10k nodes, a few hundred of them
    // live; left uncollected, these 7 specs grow the arena past 45k.
    let specs = "SPEC AG !(t5 & t6)\nSPEC AG !(t17 & t18)\nSPEC AG !(t30 & t31)\n\
                 SPEC EF t20\nSPEC AG (t7 -> EX t8)\nSPEC AG t0\nSPEC AG !t25\n";
    let out = run_source_with_backend(&ring(40, specs), BackendChoice::Auto).unwrap();
    let peak: usize = out
        .report
        .split("(peak ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .and_then(|n| n.parse().ok())
        .expect("report carries the peak live node count");
    assert!(peak < 20_000, "peak live nodes {peak}\n{}", out.report);
    // Verdicts, and the counterexample traces of the two false specs: the
    // token starts at station 0 and moves one station a step.
    let verdicts: Vec<bool> = out.results.iter().map(|(_, ok)| *ok).collect();
    assert_eq!(verdicts, [true, true, true, true, true, false, false]);
    let trace = |spec: &str, steps: usize| -> String {
        let mut text = format!(
            "-- specification {spec} is false\n\
             -- as demonstrated by the following execution sequence\n"
        );
        for step in 0..steps {
            text.push_str(&format!("-- state {}:\n", step + 1));
            for i in 0..40 {
                text.push_str(&format!("   t{i} = {}\n", u8::from(i == step)));
            }
        }
        text
    };
    let expected = trace("AG t0", 2) + &trace("AG ! t25", 26);
    assert!(out.report.contains(&expected), "{}", out.report);
}

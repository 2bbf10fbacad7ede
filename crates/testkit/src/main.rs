//! The `cmc-testkit` fuzz binary.
//!
//! ```text
//! cargo run -p cmc-testkit --release -- --seed N --iters K   # fresh seeds
//! cargo run -p cmc-testkit --release -- --corpus             # regression corpus
//! cargo run -p cmc-testkit --release -- --partition          # five-way partition oracle
//! cargo run -p cmc-testkit --release -- --soak N             # one shared symbolic session
//! cargo run -p cmc-testkit --release -- --sim N              # simulation-pair differential
//! ```
//!
//! By default obligations run through the three-way oracle (legs
//! `explicit` and `symbolic`, plus the reference evaluator);
//! `--partition` draws multi-component obligations and runs the five-way
//! oracle (legs `scheduled`, `unmerged`, `monolithic` and `blocked`, plus
//! the reference). Exit status 0 means every leg agreed with all witnesses
//! replaying; status 1 means a disagreement was found and a shrunk repro
//! (with its `--seed`) was printed; status 2 is a usage error. `--soak N`
//! instead drives N seeded formulas through one long-lived symbolic
//! session and fails (status 1) if the BDD live-node high-water mark ever
//! crosses the soak bound — the leak check for the memory kernel\'s
//! garbage collector.

use cmc_core::SymbolicBackend;
use cmc_testkit::{
    corpus_seeds, fuzz, gen_obligation, gen_partitioned_obligation, partition_corpus_seeds,
    sim_fuzz, soak, Oracle,
};

struct Args {
    seed: u64,
    iters: u64,
    corpus: bool,
    soak: Option<u64>,
    sim: Option<u64>,
    partition: bool,
}

const USAGE: &str =
    "usage: cmc-testkit [--seed N] [--iters K] [--corpus] [--soak N] [--sim N] [--partition]
  default:     three-way oracle (explicit, symbolic, reference)
  --partition: five-way oracle (scheduled, unmerged, monolithic, blocked, reference)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0,
        iters: 200,
        corpus: false,
        soak: None,
        sim: None,
        partition: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse().map_err(|_| format!("bad --iters value `{v}`"))?;
            }
            "--corpus" => args.corpus = true,
            "--partition" => args.partition = true,
            "--soak" => {
                let v = it.next().ok_or("--soak needs a value")?;
                args.soak = Some(v.parse().map_err(|_| format!("bad --soak value `{v}`"))?);
            }
            "--sim" => {
                let v = it.next().ok_or("--sim needs a value")?;
                args.sim = Some(v.parse().map_err(|_| format!("bad --sim value `{v}`"))?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    if let Some(n) = args.soak {
        println!(
            "soaking one shared symbolic session with {n} formulas from seed {}",
            args.seed
        );
        match soak(args.seed, n, |line| println!("{line}")) {
            Ok(report) => println!(
                "soak clean: {} formulas; peak live {} nodes (bound {}), \
                 {} allocated in total, {} collections",
                report.checked,
                report.peak_live_nodes,
                report.live_bound,
                report.nodes_allocated,
                report.gc_runs
            ),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(n) = args.sim {
        println!(
            "differential simulation check: {n} (concrete, abstraction) pairs from seed {}",
            args.seed
        );
        let report = sim_fuzz(args.seed, n, |line| println!("{line}"));
        if let Some(d) = report.failure {
            eprintln!("{d}");
            std::process::exit(1);
        }
        println!(
            "done: {} agreed ({} holding, {} failing), {} skipped, three-way agreement everywhere",
            report.agreed,
            report.holding,
            report.agreed - report.holding,
            report.skipped
        );
        return;
    }

    let (oracle, gen, corpus, ways) = if args.partition {
        (
            Oracle::partition(),
            gen_partitioned_obligation as fn(u64, &_) -> _,
            partition_corpus_seeds(),
            "five-way",
        )
    } else {
        (
            Oracle::three_way(SymbolicBackend::default()),
            gen_obligation as fn(u64, &_) -> _,
            corpus_seeds(),
            "three-way",
        )
    };
    let seeds: Vec<u64> = if args.corpus {
        println!("replaying {} corpus seeds ({ways} oracle)", corpus.len());
        corpus
    } else {
        println!(
            "fuzzing {} obligations from seed {} ({ways} oracle)",
            args.iters, args.seed
        );
        (0..args.iters).map(|i| args.seed.wrapping_add(i)).collect()
    };
    let report = fuzz(&oracle, gen, seeds, |line| println!("{line}"));
    if let Some(d) = report.failure {
        eprintln!("{d}");
        std::process::exit(1);
    }
    println!(
        "done: {} agreed, {} skipped, {ways} agreement everywhere",
        report.agreed, report.skipped
    );
}

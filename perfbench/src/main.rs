//! Command line of the end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <paper_scaling|smv_cold|serve_mixed|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics of the named workload;
//! `--trace 1` replays one round of every workload under spans and
//! reports the per-layer metrics. Exits 1 when any verdict is wrong.

use perfbench::measure::{json_num, json_str, HostFacts};
use perfbench::{run, run_traced, Metric, Scale, TraceResult, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <paper_scaling|smv_cold|serve_mixed|all> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn print_metric(m: &Metric) {
    if m.detail.is_empty() {
        println!("{} = {} {}", m.name, m.value, m.unit);
    } else {
        println!("{} = {} {} ({})", m.name, m.value, m.unit, m.detail);
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

fn write_out(root: &Path, file: &str, body: &str) {
    let dir = root.join("out");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), body));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write out/{file}: {e}");
    }
}

fn untraced(args: &Args, root: &Path, host: &HostFacts) -> Result<bool, String> {
    let mut all_correct = true;
    for &workload in &args.workloads {
        println!(
            "workload: {} (seed {}, {} s, untraced)",
            workload.name(),
            args.seed,
            args.seconds
        );
        let result = run(workload, args.seed, args.seconds, Scale::Full, root)?;
        let metrics = result.metrics();
        let health = result.health();
        for m in metrics.iter().chain(&health) {
            print_metric(m);
        }
        let mut kinds: Vec<(f64, &String, usize)> = result
            .log
            .by_kind
            .iter()
            .map(|(k, v)| (perfbench::measure::median(v), k, v.len()))
            .collect();
        kinds.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (med, kind, n) in kinds {
            println!("kind {kind:<22} median {med:>10.3} ms  n={n}");
        }
        for note in &result.log.notes {
            println!("note: {note}");
        }
        for violation in &result.log.guard_violations {
            println!("GUARD: {violation}");
        }
        let correct = result.correct();
        all_correct &= correct;
        let line = result_line(correct, result.log.attempted, result.log.failed, &metrics);
        write_out(
            root,
            &format!("result-{}-seed{}.json", workload.name(), args.seed),
            &format!(
                "{{\"host\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"result\":{line},\"health\":{},\"setup_s\":[{}]}}\n",
                host.to_json(),
                json_str(workload.name()),
                args.seed,
                args.seconds,
                metrics_json(&health),
                result.setup_s.iter().map(|&s| json_num(s)).collect::<Vec<_>>().join(",")
            ),
        );
        println!("{line}");
    }
    Ok(all_correct)
}

fn print_trace(trace: &TraceResult) {
    for (n, (invariant_ms, validity_ms)) in &trace.paper.by_ring {
        println!(
            "ring {n:>2}: prove_invariant {invariant_ms:.3} ms, its I => Inv validity step alone {validity_ms:.3} ms ({:.0}%)",
            100.0 * validity_ms / invariant_ms
        );
    }
    for w in &trace.workloads {
        println!(
            "trace {}: {} jobs, {:.3} ms of job time, {:.3} ms uncovered, tracing overhead {:+.2}%",
            w.workload.name(),
            w.tracer.spans().iter().filter(|s| s.name == "job").count(),
            w.job_ms(),
            w.uncovered_ms(),
            100.0 * w.overhead_share()
        );
        for (layer, ms) in w.layer_self_ms() {
            println!("  layer {layer:<9} self {ms:>12.3} ms");
        }
        for (name, t) in w.tracer.totals() {
            println!(
                "    {name:<26} n={:<6} total {:>12.3} ms  self {:>12.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
}

fn trace_json(trace: &TraceResult, host: &HostFacts, seed: u64, metrics: &[Metric]) -> String {
    let workloads: Vec<String> = trace
        .workloads
        .iter()
        .map(|w| {
            let layers: Vec<String> = w
                .layer_self_ms()
                .into_iter()
                .map(|(l, ms)| format!("{}:{}", json_str(&l), json_num(ms)))
                .collect();
            format!(
                "{}:{{\"job_ms\":{},\"uncovered_ms\":{},\"overhead_share\":{},\"layer_self_ms\":{{{}}},\"spans\":{}}}",
                json_str(w.workload.name()),
                json_num(w.job_ms()),
                json_num(w.uncovered_ms()),
                json_num(w.overhead_share()),
                layers.join(","),
                w.tracer.spans_json()
            )
        })
        .collect();
    format!(
        "{{\"host\":{},\"seed\":{seed},\"metrics\":{},\"workloads\":{{{}}}}}\n",
        host.to_json(),
        metrics_json(metrics),
        workloads.join(",\n")
    )
}

fn traced(args: &Args, root: &Path, host: &HostFacts) -> Result<bool, String> {
    println!(
        "traced run: one round of every workload (seed {}; requested workload {})",
        args.seed,
        args.workloads
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    let trace = run_traced(args.seed, Scale::Full, root)?;
    print_trace(&trace);
    let metrics = trace.metrics();
    for m in &metrics {
        print_metric(m);
    }
    write_out(
        root,
        &format!("trace-seed{}.json", args.seed),
        &trace_json(&trace, host, args.seed, &metrics),
    );
    let jobs: u64 = trace
        .workloads
        .iter()
        .map(|w| w.tracer.spans().iter().filter(|s| s.name == "job").count() as u64)
        .sum();
    let errors: u64 = trace.workloads.iter().map(|w| w.errors).sum();
    let correct = trace.correct();
    println!("{}", result_line(correct, jobs, errors, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let host = HostFacts::collect(&root);
    println!("host: {}", host.to_json());
    let outcome = if args.trace {
        traced(&args, &root, &host)
    } else {
        untraced(&args, &root, &host)
    };
    let _ = std::fs::remove_dir(root.join("tmp"));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: wrong verdicts or broken guards; see the lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `demaq-benchmark`: the repository's one benchmark. See README.md.
//!
//! ```text
//! demaq-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! demaq-benchmark [--seed N] [--seconds S] [--quick]              every workload, both passes
//! demaq-benchmark --check [--seed N] [--quick]                    two sets, must agree
//! demaq-benchmark --compare A.json B.json                         verdict per workload × metric
//! ```

mod closed;
mod engine;
mod host;
mod json;
mod layers;
mod metrics;
mod openloop;
mod registry;
mod report;
mod rng;
mod stats;
mod trace;
mod traced;
mod workloads;

use metrics::{Spec, Untraced, Values};
use std::process::ExitCode;

/// Seconds one run measures; `BENCHMARK.json` declares the same number.
pub const RUN_SECONDS: f64 = 15.0;
/// `--quick` divides sizes and measuring time by this.
const QUICK_SCALE: usize = 10;
/// Shares of a traced run's measuring time: an untraced pass first (the
/// base of the overhead ratio), then the traced pass; the layer probes
/// are sized by constants and take a few seconds on top.
const UNTRACED_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.45;

/// One run of one workload: what the driver reads from the last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

fn untraced(name: &str, seed: u64, seconds: f64, scale: usize) -> Untraced {
    let twin = workloads::by_name(name, seed, scale).expect("known workload");
    if name == "gateway_openloop" {
        let mut w = workloads::gateway_openloop::GatewayOpenLoop::new(seed, scale);
        metrics::from_open(&openloop::run(&mut w, twin, seconds, seed))
    } else {
        let mut w = workloads::by_name(name, seed, scale).expect("known workload");
        metrics::from_closed(&closed::run(w.as_mut(), twin, seconds))
    }
}

fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: usize,
) -> Result<Outcome, String> {
    let probe = workloads::by_name(name, seed, scale)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    host::require_cores(probe.threads(), name)?;
    if !traced {
        let u = untraced(name, seed, seconds, scale);
        eprintln!(
            "{name}: unscaled {:.2} us CPU per message under its own sync policy, yardstick {:.0} ns",
            u.extras["host.cpu_raw_us_per_msg"], u.extras["host.yardstick_ns"]
        );
        return Ok(Outcome {
            attempted: u.attempted,
            failed: u.failed,
            values: u.end_to_end,
        });
    }
    let base = untraced(name, seed, seconds * UNTRACED_SHARE, scale);
    let mut w = workloads::by_name(name, seed, scale).expect("known workload");
    let run = traced::run(w.as_mut(), seconds * TRACED_SHARE);
    let path = host::work_dir().join(format!("trace-{name}.jsonl"));
    trace::write_jsonl(run.recorder.spans(), &path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    for (span, self_ns) in trace::self_time_by_name(run.recorder.spans()) {
        eprintln!(
            "{name}: self time in `{span}` spans {:.3} s",
            self_ns as f64 / 1e9
        );
    }
    let mut values = base.extras;
    values.extend(metrics::from_traced(&run, base.cpu_raw_us_per_msg));
    values.extend(layers::probe_all(probe.as_ref(), scale));
    Ok(Outcome {
        attempted: base.attempted + run.attempted,
        failed: base.failed + run.failed,
        values,
    })
}

/// The driver's result line.
fn result_line(specs: &[Spec], outcome: &Outcome) -> String {
    let fields: Vec<String> = metrics::in_order(specs, &outcome.values)
        .into_iter()
        .map(|(s, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(s.name),
                json::number(v),
                json::quote(s.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    check: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let scale = if args.quick { QUICK_SCALE } else { 1 };
        let seconds = args.seconds.unwrap_or(RUN_SECONDS / scale as f64);
        if let Some((a, b)) = &args.compare {
            report::compare_files(a, b)
        } else if let Some(name) = &args.workload {
            let specs = if args.trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            measure(name, args.seed, seconds, args.trace, scale).map(|outcome| {
                println!("{}", result_line(specs, &outcome));
                outcome.failed == 0
            })
        } else if args.check {
            report::check(args.seed, seconds, args.quick)
        } else {
            report::run_all(args.seed, seconds, args.quick, "result.json").map(|set| set.correct)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("demaq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

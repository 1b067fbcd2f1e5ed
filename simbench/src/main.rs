//! `simbench` — the seeded benchmark of the noisy-radio simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload decay_grid --seed 42 --seconds 25 --trace 0
//! ```
//!
//! `--workload all` runs the four workloads one after another in this
//! process; there `peak_rss_mb` is the process's peak so far. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer ledger and writes its spans to
//! `simbench/out/`. The last line of standard output is the result
//! as one JSON object. The exit code is 0 only if every trial passed
//! its checks.

mod derive;
mod harness;
mod probe;
mod report;
mod trace;
mod workloads;

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use derive::{median, parse_vm_hwm_kb};
use harness::{Harness, DIGEST_TRIALS};
use probe::PROBE_REF_S;
use report::{end_to_end, per_layer, result_line, tally, Metric};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: simbench --workload <decay_grid|rfastbc_udg|star_gap|rlnc_grid|all> \
                     --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let workloads = match workload.as_str() {
        "all" => WORKLOADS.iter().collect(),
        name => vec![WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or(format!("unknown workload `{name}`"))?],
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The process's peak resident set in kB.
fn peak_rss_kb() -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn write_spans(h: &Harness, workload: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{}.jsonl", h.seed));
    h.tracer.write_jsonl(BufWriter::new(File::create(&path)?))?;
    Ok(path)
}

/// Runs one workload and prints its report; returns its metrics and
/// trial tally, or `Err` if set-up failed.
fn run_workload(w: &Workload, args: &Args) -> Result<(Vec<Metric>, u64, u64), String> {
    let mut h = Harness::new(args.seed, args.seconds, args.trace);
    (w.run)(&mut h).map_err(|e| format!("{}: set-up failed: {e}", w.name))?;
    println!(
        "workload {} seed {} seconds {} trace {}: {} nodes, {} edges",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        h.nodes,
        h.edges
    );
    for (i, t) in h.trials.iter().enumerate() {
        match &t.result {
            Ok(out) => println!(
                "  trial {i}: {} rounds, fingerprint {:?}, {:.4} s, probe {:.2} ms",
                out.rounds,
                out.fingerprint,
                t.timed.host_s,
                t.timed.probe_s * 1e3
            ),
            Err(e) => {
                println!("  trial {i}: FAILED ({e}), {:.4} s", t.timed.host_s);
                eprintln!("{}: trial {i} failed: {e}", w.name);
            }
        }
    }
    println!(
        "  digest of trials 0..{DIGEST_TRIALS} (rounds, fingerprint): {}",
        h.digest().hex()
    );
    let probes = h.speed.probe_seconds();
    println!(
        "  host speed: {} probes, median {:.2} ms against {:.2} ms on an idle reference core",
        probes.len(),
        median(&probes).unwrap_or(f64::NAN) * 1e3,
        PROBE_REF_S * 1e3
    );
    let (attempted, failed) = tally(&h);
    println!(
        "  fail_ratio {} ({failed} of {attempted} trials failed)",
        failed as f64 / attempted as f64
    );
    let metrics = if args.trace {
        match write_spans(&h, w.name) {
            Ok(path) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("{}: could not write spans: {e}", w.name),
        }
        per_layer(&h)
    } else {
        end_to_end(&h, peak_rss_kb())
    };
    for x in &metrics {
        println!("  {:<42} {:>18} {}", x.name, x.value, x.unit);
    }
    Ok((metrics, attempted, failed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = args.workloads.len() > 1;
    let (mut metrics, mut attempted, mut failed) = (Vec::new(), 0, 0);
    for w in &args.workloads {
        let (ms, a, f) = match run_workload(w, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("simbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        attempted += a;
        failed += f;
        metrics.extend(ms.into_iter().map(|mut x| {
            if all {
                x.name = format!("{}.{}", w.name, x.name);
            }
            x
        }));
    }
    // A metric that could not be measured renders as null and fails the run.
    let correct = failed == 0 && metrics.iter().all(|x| x.value.is_finite());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

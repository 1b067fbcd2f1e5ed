//! Turns a finished [`Harness`] into the named metrics and renders the
//! result line.

use radio_obs::CounterSink;

use crate::derive::{
    active_fraction, implied_coding_ms, innovative_ratio, median, node_rounds_per_s, ns_per, ratio,
    unattributed, word_occupancy,
};
use crate::harness::{Harness, Timed};
use crate::workloads::RLNC_K;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Layer spans, which never nest inside each other; with
/// `bench.unattributed_ms` they sum to the traced wall time.
const LAYER_SPANS: [&str; 4] = [
    "netgraph.build",
    "gbst.build",
    "schedule.setup",
    "schedule.run",
];

/// Engine phases the library's telemetry reports, inside `schedule.run`.
const ENGINE_PHASES: [&str; 4] = ["act", "reach", "receive", "merge"];

/// Counts of a run's trials: (attempted, failed).
pub fn tally(h: &Harness) -> (u64, u64) {
    let failed = h.trials.iter().filter(|t| t.result.is_err()).count();
    (h.trials.len() as u64, failed as u64)
}

/// The end-to-end metrics of an untraced run; `peak_rss_kb` is the
/// process's `VmHWM`, if it could be read. Times are rescaled to the
/// reference host speed, and each is the median over the run's samples.
pub fn end_to_end(h: &Harness, peak_rss_kb: Option<u64>) -> Vec<Metric> {
    let ok: Vec<(f64, u64)> = h
        .trials
        .iter()
        .filter_map(|t| {
            let o = t.result.as_ref().ok()?;
            Some((t.timed.at_reference_speed(), o.rounds))
        })
        .collect();
    let throughput: Vec<f64> = ok
        .iter()
        .map(|&(s, r)| node_rounds_per_s(h.nodes, r, s))
        .collect();
    let rounds: u64 = ok.iter().map(|&(_, r)| r).sum();
    let (attempted, failed) = tally(h);
    let wall: Vec<f64> = h
        .trials
        .iter()
        .map(|t| t.timed.at_reference_speed())
        .collect();
    let setup: Vec<f64> = h.setup.iter().map(Timed::at_reference_speed).collect();
    let median_or_nan = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
    vec![
        m("node_rounds_per_s", median_or_nan(&throughput), "1/s"),
        m("wall_s", median_or_nan(&wall), "s"),
        m("setup_s", median_or_nan(&setup), "s"),
        m(
            "rounds_mean",
            ratio(rounds as f64, ok.len() as f64),
            "rounds",
        ),
        m(
            "pass_ratio",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        ),
        m(
            "peak_rss_mb",
            peak_rss_kb.map_or(f64::NAN, |kb| kb as f64 / 1024.0),
            "MB",
        ),
    ]
}

fn span_ms(c: &CounterSink, name: &str) -> f64 {
    c.span_nanos(name).unwrap_or(0) as f64 / 1e6
}

fn count(c: &CounterSink, name: &str) -> u64 {
    c.counter_total(name).unwrap_or(0)
}

/// The per-layer ledger of a traced run. Layers a workload does not
/// pass through report 0.
pub fn per_layer(h: &Harness) -> Vec<Metric> {
    let tr = &h.tracer;
    let c = &h.counters;
    let layer = |name: &str| tr.total_ms(name);
    let wall_ms = tr.root_ms();
    let layers: Vec<f64> = LAYER_SPANS.iter().map(|s| layer(s)).collect();
    let run_ms = layer("schedule.run");
    let built_edges = (h.edges * h.topologies) as u64;
    let built_nodes = (h.nodes * h.topologies) as u64;

    let phases: Vec<f64> = ENGINE_PHASES
        .iter()
        .map(|p| span_ms(c, &format!("engine/{p}")))
        .collect();
    let engine_rest = if c.span_nanos("engine/act").is_some() {
        unattributed(run_ms, &phases)
    } else {
        0.0
    };
    let active = count(c, "engine/active_node_rounds");
    let engine_rounds = count(c, "engine/rounds");

    let decide = span_ms(c, "routing/decide");
    let resolve = span_ms(c, "routing/resolve");
    let routing_node_rounds = (h.nodes as u64) * count(c, "bench/routing_rounds");

    let deliveries = count(c, "bench/rlnc_deliveries");
    let broadcasts = count(c, "bench/rlnc_broadcasts");
    let (absorb_ns, combine_ns) = h.kernel.map_or((0.0, 0.0), |k| (k.absorb_ns, k.combine_ns));

    let untraced_s: f64 = h
        .trials
        .iter()
        .filter(|t| t.traced_s.is_some())
        .map(|t| t.timed.host_s)
        .sum();
    let traced_s: f64 = h.trials.iter().filter_map(|t| t.traced_s).sum();

    vec![
        m("bench.traced_wall_ms", wall_ms, "ms"),
        m("netgraph.build_ms", layers[0], "ms"),
        m(
            "netgraph.build_ns_per_edge",
            ns_per(layers[0], built_edges),
            "ns",
        ),
        m("gbst.build_ms", layers[1], "ms"),
        m(
            "gbst.build_ns_per_node",
            ns_per(layers[1], built_nodes),
            "ns",
        ),
        m("schedule.setup_ms", layers[2], "ms"),
        m("schedule.run_ms", run_ms, "ms"),
        m("engine.act_ms", phases[0], "ms"),
        m("engine.reach_ms", phases[1], "ms"),
        m("engine.receive_ms", phases[2], "ms"),
        m("engine.merge_ms", phases[3], "ms"),
        m("engine.unattributed_ms", engine_rest, "ms"),
        m(
            "engine.act_ns_per_active_node_round",
            ns_per(phases[0], active),
            "ns",
        ),
        m(
            "engine.receive_ns_per_active_node_round",
            ns_per(phases[2], active),
            "ns",
        ),
        m("engine.active_node_rounds", active as f64, "count"),
        m(
            "engine.active_fraction",
            active_fraction(active, h.nodes, engine_rounds),
            "ratio",
        ),
        m(
            "engine.act_word_occupancy",
            word_occupancy(
                count(c, "engine/act_words_visited"),
                count(c, "engine/act_words_skipped"),
            ),
            "ratio",
        ),
        m(
            "engine.broadcasts_per_active_node_round",
            ratio(count(c, "engine/broadcasts") as f64, active as f64),
            "ratio",
        ),
        m(
            "engine.collisions_per_delivery",
            ratio(
                count(c, "engine/collisions") as f64,
                count(c, "engine/deliveries") as f64,
            ),
            "ratio",
        ),
        m("routing.decide_ms", decide, "ms"),
        m("routing.resolve_ms", resolve, "ms"),
        m(
            "routing.ns_per_node_round",
            ns_per(decide + resolve, routing_node_rounds),
            "ns",
        ),
        m("coding.absorb_ns_per_packet", absorb_ns, "ns"),
        m("coding.combine_ns_per_packet", combine_ns, "ns"),
        m(
            "coding.implied_ms",
            implied_coding_ms(deliveries, absorb_ns, broadcasts, combine_ns),
            "ms",
        ),
        m(
            "coding.innovative_ratio",
            innovative_ratio(h.nodes, RLNC_K, count(c, "bench/rlnc_trials"), deliveries),
            "ratio",
        ),
        m(
            "obs.tracing_overhead_ratio",
            ratio(traced_s, untraced_s),
            "ratio",
        ),
        m(
            "bench.probe_ms",
            median(&h.speed.probe_seconds()).map_or(0.0, |s| s * 1e3),
            "ms",
        ),
        m(
            "bench.unattributed_ms",
            unattributed(wall_ms, &layers),
            "ms",
        ),
    ]
}

/// Formats a value as JSON: finite numbers with every digit Rust's
/// shortest round-trip form keeps, anything else as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders the result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Trial, TrialOut};
    use crate::probe::PROBE_REF_S;
    use radio_obs::TelemetrySink;

    /// A trial timed while the probe ran at its reference speed.
    fn trial(host_s: f64, rounds: Option<u64>) -> Trial {
        Trial {
            timed: Timed {
                host_s,
                probe_s: PROBE_REF_S,
            },
            traced_s: None,
            result: rounds
                .map(|rounds| TrialOut {
                    rounds,
                    fingerprint: vec![],
                })
                .ok_or_else(|| "failed".to_string()),
        }
    }

    #[test]
    fn end_to_end_from_fixed_trials() {
        let mut h = Harness::new(1, 0.0, false);
        h.nodes = 100;
        let slow = |host_s| Timed {
            host_s,
            probe_s: 2.0 * PROBE_REF_S,
        };
        let mut halved = trial(6.0, Some(60));
        halved.timed = slow(6.0);
        h.setup = vec![trial(0.3, None).timed, slow(0.4), trial(0.1, None).timed];
        h.trials = vec![
            trial(1.0, Some(10)),
            halved,
            trial(2.0, Some(10)),
            trial(4.0, None),
        ];
        let e = end_to_end(&h, Some(2048));
        let get = |n: &str| e.iter().find(|x| x.name == n).unwrap().value;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b;
        // Per passing trial: 1,000, 2,000 (60 rounds in 6 s at half the
        // reference speed, i.e. 3 s) and 500 node-rounds per second.
        assert!(close(get("node_rounds_per_s"), 1000.0));
        // Median of 1, 3, 2 and 4 s.
        assert!(close(get("wall_s"), 2.5));
        // Median of 0.3, 0.2 and 0.1 s.
        assert!(close(get("setup_s"), 0.2));
        assert_eq!(get("rounds_mean"), 80.0 / 3.0);
        assert_eq!(get("pass_ratio"), 0.75);
        assert_eq!(get("peak_rss_mb"), 2.0);
        assert_eq!(tally(&h), (4, 1));
    }

    #[test]
    fn traced_ledger_adds_up() {
        let mut h = Harness::new(1, 0.0, true);
        h.nodes = 4;
        h.edges = 3;
        h.topologies = 1;
        h.tracer.set_enabled(true);
        let setup = h.tracer.begin("bench.setup");
        h.tracer.time("netgraph.build", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        h.tracer.end(setup);
        let t = h.tracer.begin("bench.trial");
        h.tracer.time("schedule.run", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        h.tracer.end(t);
        h.counters.span("engine/act", 1_000_000);
        h.counters.counter("engine/active_node_rounds", 500);
        h.counters.counter("engine/rounds", 250);
        h.trials = vec![Trial {
            timed: Timed {
                host_s: 2.0,
                probe_s: PROBE_REF_S,
            },
            traced_s: Some(3.0),
            result: Ok(TrialOut {
                rounds: 250,
                fingerprint: vec![],
            }),
        }];
        let l = per_layer(&h);
        let get = |n: &str| l.iter().find(|x| x.name == n).unwrap().value;
        let layers: f64 = LAYER_SPANS.iter().map(|s| get(&format!("{s}_ms"))).sum();
        let wall = get("bench.traced_wall_ms");
        assert!((layers + get("bench.unattributed_ms") - wall).abs() < 1e-9);
        assert!(get("bench.unattributed_ms") >= 0.0);
        let run = get("schedule.run_ms");
        assert!((get("engine.act_ms") + get("engine.unattributed_ms") - run).abs() < 1e-9);
        assert_eq!(get("engine.act_ns_per_active_node_round"), 2000.0);
        assert_eq!(get("engine.active_fraction"), 0.5);
        assert_eq!(get("obs.tracing_overhead_ratio"), 1.5);
        assert_eq!(get("gbst.build_ns_per_node"), 0.0);
        assert!(l.iter().all(|x| x.value.is_finite()));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[m("wall_s", 1.25, "s"), m("x", f64::NAN, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}

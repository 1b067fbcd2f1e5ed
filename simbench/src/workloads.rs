//! The four workloads. Each builds its inputs from the run's seed,
//! times its set-up, then runs checked trials through the library's
//! public entry points with library defaults (one thread, no shards).
//! Why each workload exists is recorded in `BENCHMARK.json`.

use std::hint::black_box;
use std::time::Instant;

use netgraph::{generators, Graph, NodeId};
use noisy_radio_core::decay::Decay;
use noisy_radio_core::multi_message::DecayRlnc;
use noisy_radio_core::robust_fastbc::RobustFastbcSchedule;
use noisy_radio_core::schedules::star::{star_coding, star_graph};
use noisy_radio_core::schedules::SequentialSourceController;
use noisy_radio_core::{BroadcastRun, CoreError};
use radio_coding::rlnc::RlncNode;
use radio_coding::{Field, Gf256};
use radio_model::adaptive::{run_routing, run_routing_telemetry};
use radio_model::{fork_rng, fork_seed, Channel, LatencyProfile};
use radio_obs::CounterSink;

use crate::harness::{topology_seed, Harness, KernelCost, TrialCtx, TrialOut};
use crate::trace::Tracer;

/// A named workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Sets up and runs the workload; an `Err` is a set-up failure.
    pub run: fn(&mut Harness) -> Result<(), String>,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "decay_grid",
        run: decay_grid,
    },
    Workload {
        name: "rfastbc_udg",
        run: rfastbc_udg,
    },
    Workload {
        name: "star_gap",
        run: star_gap,
    },
    Workload {
        name: "rlnc_grid",
        run: rlnc_grid,
    },
];

const SOURCE: NodeId = NodeId::new(0);

/// `decay_grid`: side of the square grid.
const DECAY_SIDE: usize = 256;
/// `rfastbc_udg`: nodes and radius of the unit-disk graphs, and how
/// many of them a run samples.
const UDG_NODES: usize = 20_000;
const UDG_RADIUS: f64 = 0.015;
const UDG_TOPOLOGIES: u64 = 32;
/// `star_gap`: leaves and messages (the E8 smoke point).
const STAR_LEAVES: usize = 131_072;
const STAR_K: usize = 16;
/// `rlnc_grid`: grid side, messages and GF(256) symbols per payload.
const RLNC_SIDE: usize = 64;
pub const RLNC_K: usize = 16;
const RLNC_PAYLOAD: usize = 64;
/// Packets absorbed per fresh decoder in the kernel loop: `k` to fill
/// it and `k` that reduce to zero, the mix a grid node sees.
const KERNEL_PACKETS: usize = 2 * RLNC_K;
const KERNEL_REPS: usize = 1_000;
/// Fork index of the kernel loop's RNG, above every trial's index.
const KERNEL_STREAM: u64 = u64::MAX - 1;

/// Round cap of every run, far above any workload's need; reaching it
/// fails the trial.
const ROUND_CAP: u64 = 1_000_000;

fn receiver(p: f64) -> Channel {
    Channel::receiver(p).expect("fault probability is a valid constant")
}

fn err(e: CoreError) -> String {
    e.to_string()
}

/// Checks a single-message broadcast: it finished under the cap and
/// every node decoded and heard the message.
fn check_broadcast(
    n: usize,
    out: Result<(BroadcastRun, LatencyProfile), CoreError>,
) -> Result<TrialOut, String> {
    let (run, profile) = out.map_err(err)?;
    let rounds = run.rounds.ok_or(format!("hit the {ROUND_CAP}-round cap"))?;
    if run.stats.decoded_nodes != n as u64 {
        return Err(format!("{} of {n} nodes decoded", run.stats.decoded_nodes));
    }
    let latencies = profile.delivery_latencies_excluding(SOURCE);
    if latencies.len() != n - 1 {
        return Err(format!(
            "{} of {} nodes heard the message",
            latencies.len(),
            n - 1
        ));
    }
    Ok(TrialOut {
        rounds,
        fingerprint: vec![latencies.iter().sum()],
    })
}

/// Runs a schedule's call inside a `schedule.run` span.
fn schedule_run<T>(ctx: &mut TrialCtx, f: impl FnOnce(Option<&mut CounterSink>) -> T) -> T {
    let span = ctx.tracer.begin("schedule.run");
    let out = f(ctx.counters());
    ctx.tracer.end(span);
    out
}

fn decay_grid(h: &mut Harness) -> Result<(), String> {
    let graph = |tr: &mut Tracer| {
        tr.time("netgraph.build", || {
            generators::grid(DECAY_SIDE, DECAY_SIDE)
        })
    };
    let schedule = |tr: &mut Tracer| tr.time("schedule.setup", Decay::new);
    h.time_setup(|tr| Ok((graph(tr), schedule(tr))))?;
    let setup = h.begin_setup();
    let g = graph(&mut h.tracer);
    let decay = schedule(&mut h.tracer);
    h.end_setup(setup);
    h.set_graphs(std::slice::from_ref(&g));
    let fault = receiver(0.3);
    h.run_trials(|ctx| {
        let seed = ctx.seed;
        let out = schedule_run(ctx, |sink| match sink {
            Some(s) => decay.run_telemetry(&g, SOURCE, fault, seed, ROUND_CAP, s),
            None => decay.run_profiled(&g, SOURCE, fault, seed, ROUND_CAP),
        });
        check_broadcast(g.node_count(), out)
    });
    Ok(())
}

fn rfastbc_udg(h: &mut Harness) -> Result<(), String> {
    // Rounds depend on the sampled topology far more than on the trial
    // seed, so a run averages over several topologies; each one's
    // generation plus schedule construction is one `setup_s` sample.
    let setup = h.begin_setup();
    let mut graphs = Vec::new();
    let mut graph_s = Vec::new();
    for i in 0..UDG_TOPOLOGIES {
        let seed = fork_seed(topology_seed(h.seed), i);
        let t0 = Instant::now();
        let g = h.tracer.time("netgraph.build", || {
            generators::unit_disk_connected(UDG_NODES, UDG_RADIUS, seed)
        });
        graph_s.push(t0.elapsed().as_secs_f64());
        graphs.push(g.map_err(|e| e.to_string())?);
    }
    let mut scheds = Vec::new();
    for (g, gs) in graphs.iter().zip(graph_s) {
        let t0 = Instant::now();
        scheds.push(rfastbc_schedule(&mut h.tracer, g)?);
        h.push_setup(gs + t0.elapsed().as_secs_f64());
    }
    h.end_setup(setup);
    h.set_graphs(&graphs);
    let fault = receiver(0.3);
    h.run_trials(|ctx| {
        let (seed, sched) = (ctx.seed, &scheds[ctx.index as usize % scheds.len()]);
        let out = schedule_run(ctx, |sink| match sink {
            Some(s) => sched.run_telemetry(fault, seed, ROUND_CAP, s),
            None => sched.run_profiled(fault, seed, ROUND_CAP),
        });
        check_broadcast(UDG_NODES, out)
    });
    Ok(())
}

/// The schedule constructor builds its GBST internally; traced runs
/// also time a separate `Gbst::build` on the same inputs to show that
/// part.
fn rfastbc_schedule<'g>(tr: &mut Tracer, g: &'g Graph) -> Result<RobustFastbcSchedule<'g>, String> {
    if tr.enabled() {
        tr.time("gbst.build", || gbst::Gbst::build(g, SOURCE))
            .map_err(|e| e.to_string())?;
    }
    tr.time("schedule.setup", || RobustFastbcSchedule::new(g, SOURCE))
        .map_err(err)
}

fn star_gap(h: &mut Harness) -> Result<(), String> {
    let graph = |tr: &mut Tracer| tr.time("netgraph.build", || star_graph(STAR_LEAVES));
    let controller = |tr: &mut Tracer| {
        tr.time("schedule.setup", || SequentialSourceController {
            source: SOURCE,
        })
    };
    h.time_setup(|tr| Ok((graph(tr), controller(tr))))?;
    let setup = h.begin_setup();
    let g = graph(&mut h.tracer);
    let mut ctl = controller(&mut h.tracer);
    h.end_setup(setup);
    h.set_graphs(std::slice::from_ref(&g));
    let fault = receiver(0.5);
    let needed = (STAR_LEAVES * STAR_K) as u64;
    h.run_trials(|ctx| {
        let seed = ctx.seed;
        // Adaptive routing arm (Lemma 15) over the benchmark's star.
        let routing = schedule_run(ctx, |sink| match sink {
            Some(s) => run_routing_telemetry(&g, fault, SOURCE, STAR_K, &mut ctl, seed, ROUND_CAP)
                .map(|(out, phases)| {
                    phases.emit(s, "");
                    out
                }),
            None => run_routing(&g, fault, SOURCE, STAR_K, &mut ctl, seed, ROUND_CAP),
        })
        .map_err(|e| e.to_string())?;
        let routing_rounds = routing
            .rounds
            .ok_or(format!("routing hit the {ROUND_CAP}-round cap"))?;
        if routing.fresh_deliveries != needed {
            return Err(format!(
                "routing delivered {} of {needed} messages",
                routing.fresh_deliveries
            ));
        }
        ctx.count("bench/routing_rounds", routing_rounds);
        // Reed–Solomon coding arm (Lemma 16): done once every leaf
        // holds k coded packets.
        let coding = schedule_run(ctx, |_| {
            star_coding(STAR_LEAVES, STAR_K, fault, seed, ROUND_CAP)
        })
        .map_err(err)?;
        let coding_rounds = coding
            .rounds
            .ok_or(format!("coding hit the {ROUND_CAP}-round cap"))?;
        if coding.stats.deliveries < needed {
            return Err(format!(
                "coding delivered {} packets, below the {needed} the leaves need",
                coding.stats.deliveries
            ));
        }
        Ok(TrialOut {
            rounds: routing_rounds + coding_rounds,
            fingerprint: vec![
                routing_rounds,
                coding_rounds,
                routing.broadcasts,
                coding.stats.deliveries,
            ],
        })
    });
    Ok(())
}

fn rlnc_grid(h: &mut Harness) -> Result<(), String> {
    let graph =
        |tr: &mut Tracer| tr.time("netgraph.build", || generators::grid(RLNC_SIDE, RLNC_SIDE));
    let schedule = |tr: &mut Tracer| {
        tr.time("schedule.setup", || DecayRlnc {
            phase_len: None,
            payload_len: RLNC_PAYLOAD,
        })
    };
    h.time_setup(|tr| Ok((graph(tr), schedule(tr))))?;
    if h.traced() {
        h.kernel = Some(coding_kernel(h.seed)?);
    }
    let setup = h.begin_setup();
    let g = graph(&mut h.tracer);
    let rlnc = schedule(&mut h.tracer);
    h.end_setup(setup);
    h.set_graphs(std::slice::from_ref(&g));
    let fault = receiver(0.3);
    let n = g.node_count();
    h.run_trials(|ctx| {
        let seed = ctx.seed;
        let (out, profile) = schedule_run(ctx, |_| {
            rlnc.run_profiled(&g, SOURCE, RLNC_K, fault, seed, ROUND_CAP)
        })
        .map_err(err)?;
        let rounds = out
            .run
            .rounds
            .ok_or(format!("hit the {ROUND_CAP}-round cap"))?;
        if !out.decoded_ok {
            return Err("decoded payloads differ from the source's".into());
        }
        let latencies = profile.decode_latencies();
        if latencies.len() != n {
            return Err(format!("{} of {n} nodes decoded", latencies.len()));
        }
        ctx.count("bench/rlnc_deliveries", out.run.stats.deliveries);
        ctx.count("bench/rlnc_broadcasts", out.run.stats.broadcasts);
        ctx.count("bench/rlnc_trials", 1);
        Ok(TrialOut {
            rounds,
            fingerprint: vec![latencies.iter().sum()],
        })
    });
    Ok(())
}

/// Times `RlncNode::random_combination` from a full-rank source and
/// `RlncNode::absorb` into fresh decoders at `rlnc_grid`'s parameters,
/// checking that every decoder recovers the messages.
fn coding_kernel(seed: u64) -> Result<KernelCost, String> {
    let mut rng = fork_rng(seed, KERNEL_STREAM);
    let messages: Vec<Vec<Gf256>> = (0..RLNC_K)
        .map(|_| (0..RLNC_PAYLOAD).map(|_| Gf256::random(&mut rng)).collect())
        .collect();
    let source = RlncNode::source(RLNC_K, RLNC_PAYLOAD, &messages);
    let (mut combine_s, mut absorb_s) = (0.0, 0.0);
    for _ in 0..KERNEL_REPS {
        let t0 = Instant::now();
        let packets: Vec<_> = (0..KERNEL_PACKETS)
            .map(|_| black_box(source.random_combination(&mut rng)))
            .collect::<Option<_>>()
            .ok_or("a full-rank source produced no combination")?;
        combine_s += t0.elapsed().as_secs_f64();
        let mut node = RlncNode::new(RLNC_K, RLNC_PAYLOAD);
        let t1 = Instant::now();
        for p in packets {
            black_box(node.absorb(p));
        }
        absorb_s += t1.elapsed().as_secs_f64();
        if node.decode().map_or(true, |d| d != messages) {
            return Err("kernel loop decoder did not recover the messages".into());
        }
    }
    let calls = (KERNEL_REPS * KERNEL_PACKETS) as f64;
    Ok(KernelCost {
        absorb_ns: absorb_s * 1e9 / calls,
        combine_ns: combine_s * 1e9 / calls,
    })
}

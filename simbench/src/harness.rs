//! The measurement loop shared by every workload: repeated set-up for
//! `setup_s`, a time-bounded series of seeded trials, and in traced
//! runs a traced twin of every trial. Host-speed probes run between
//! the timed pieces of work (never inside them), so that each one can
//! be rescaled to the speed of an idle core.

use std::hint::black_box;
use std::time::Instant;

use netgraph::Graph;
use radio_model::fork_seed;
use radio_obs::{CounterSink, TelemetrySink};

use crate::derive::{at_reference_speed, median, Digest};
use crate::probe::{HostSpeed, PROBE_REF_S};
use crate::trace::{SpanId, Tracer};

/// Every run completes at least this many trials, whatever its time
/// budget; the digest covers exactly these.
pub const DIGEST_TRIALS: u32 = 3;

/// Set-up is repeated, after one untimed warm-up, at least this many
/// times per untraced run...
const SETUP_MIN_REPS: usize = 5;
/// ...and until this much time was spent on it, so that millisecond
/// set-ups still yield a steady median...
const SETUP_MIN_S: f64 = 0.5;
/// ...but never more often than this.
const SETUP_MAX_REPS: usize = 1_000;

/// Fork index of the topology seed; trial `i` uses index `i + 1`.
const TOPOLOGY_STREAM: u64 = 0;

/// The seed a workload's random topologies are forked from.
pub fn topology_seed(seed: u64) -> u64 {
    fork_seed(seed, TOPOLOGY_STREAM)
}

/// The seed of trial `index`.
fn trial_seed(seed: u64, index: u32) -> u64 {
    fork_seed(seed, u64::from(index) + 1)
}

/// What a successful trial produced, as far as the digest is concerned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialOut {
    /// Simulated rounds (both arms on `star_gap`).
    pub rounds: u64,
    /// Further per-trial results the digest covers: the latency sum for
    /// broadcasts, the per-arm rounds and counts on `star_gap`.
    pub fingerprint: Vec<u64>,
}

/// Host seconds of one timed piece of work, and the host-speed probe's
/// seconds around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Host seconds the work took.
    pub host_s: f64,
    /// Probe seconds it is rescaled by: for a trial, the mean of the
    /// probes just before and just after it; for a set-up sample, the
    /// median probe of the run, because set-up samples are too short
    /// and too close together for probes of their own.
    pub probe_s: f64,
}

impl Timed {
    /// The work's seconds rescaled to the reference host speed.
    pub fn at_reference_speed(&self) -> f64 {
        at_reference_speed(self.host_s, self.probe_s, PROBE_REF_S)
    }
}

/// One attempted trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The untraced execution.
    pub timed: Timed,
    /// Host seconds of the traced twin, in traced runs.
    pub traced_s: Option<f64>,
    /// The checked result, or why the trial failed.
    pub result: Result<TrialOut, String>,
}

/// Per-call view a workload's trial closure gets.
pub struct TrialCtx<'a> {
    /// This trial's index in the run.
    pub index: u32,
    /// This trial's seed.
    pub seed: u64,
    /// Span recorder (disabled for the untraced execution).
    pub tracer: &'a mut Tracer,
    counters: Option<&'a mut CounterSink>,
}

impl TrialCtx<'_> {
    /// The sink the library's telemetry goes to: the run's
    /// [`CounterSink`] when traced.
    pub fn counters(&mut self) -> Option<&mut CounterSink> {
        self.counters.as_deref_mut()
    }

    /// Adds `value` to the benchmark's own counter `name` (traced only).
    pub fn count(&mut self, name: &str, value: u64) {
        if let Some(c) = self.counters.as_deref_mut() {
            c.counter(name, value);
        }
    }
}

/// Measured cost of the RLNC kernels at `rlnc_grid`'s parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// ns per `RlncNode::absorb`.
    pub absorb_ns: f64,
    /// ns per `RlncNode::random_combination`.
    pub combine_ns: f64,
}

/// State of one workload's run.
pub struct Harness {
    /// The run's seed; every input derives from it.
    pub seed: u64,
    seconds: f64,
    trace: bool,
    /// Spans of the traced set-up and the traced trials.
    pub tracer: Tracer,
    /// The library's telemetry and the benchmark's counters, summed
    /// over the traced trials.
    pub counters: CounterSink,
    /// Each set-up sample of an untraced run.
    pub setup: Vec<Timed>,
    /// Host seconds of the set-up samples, until the run's median probe
    /// is known.
    setup_pending: Vec<f64>,
    /// The run's host-speed probes.
    pub speed: HostSpeed,
    /// Every attempted trial, in order.
    pub trials: Vec<Trial>,
    /// Nodes and edges of the simulated network (edges averaged over
    /// the topologies).
    pub nodes: usize,
    /// See [`Harness::nodes`].
    pub edges: usize,
    /// Topologies one set-up builds.
    pub topologies: usize,
    /// RLNC kernel costs, measured in traced `rlnc_grid` runs.
    pub kernel: Option<KernelCost>,
}

impl Harness {
    /// A fresh run measuring trials for `seconds`.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Harness {
            seed,
            seconds,
            trace,
            tracer: Tracer::new(),
            counters: CounterSink::new(),
            setup: Vec::new(),
            setup_pending: Vec::new(),
            speed: HostSpeed::new(),
            trials: Vec::new(),
            nodes: 0,
            edges: 0,
            topologies: 0,
            kernel: None,
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Records the simulated networks' size.
    pub fn set_graphs(&mut self, graphs: &[Graph]) {
        self.topologies = graphs.len();
        self.nodes = graphs.first().map_or(0, Graph::node_count);
        self.edges = graphs.iter().map(Graph::edge_count).sum::<usize>() / graphs.len().max(1);
    }

    /// Times whole set-ups (`rep` builds and drops everything the
    /// trials need) for `setup_s`. Traced runs skip this: their one
    /// set-up is traced instead.
    pub fn time_setup<T>(
        &mut self,
        mut rep: impl FnMut(&mut Tracer) -> Result<T, String>,
    ) -> Result<(), String> {
        if self.trace {
            return Ok(());
        }
        black_box(rep(&mut self.tracer)?);
        let start = Instant::now();
        let mut reps = 0;
        while reps < SETUP_MIN_REPS
            || (start.elapsed().as_secs_f64() < SETUP_MIN_S && reps < SETUP_MAX_REPS)
        {
            let t0 = Instant::now();
            black_box(rep(&mut self.tracer)?);
            self.push_setup(t0.elapsed().as_secs_f64());
            reps += 1;
        }
        Ok(())
    }

    /// Records a set-up sample of `host_s` seconds.
    pub fn push_setup(&mut self, host_s: f64) {
        self.setup_pending.push(host_s);
    }

    /// Opens the traced set-up: the set-up the trials will use.
    pub fn begin_setup(&mut self) -> SpanId {
        self.tracer.set_enabled(self.trace);
        self.tracer.set_trial(None);
        self.tracer.begin("bench.setup")
    }

    /// Closes the set-up opened by [`Harness::begin_setup`].
    pub fn end_setup(&mut self, span: SpanId) {
        self.tracer.end(span);
        self.tracer.set_enabled(false);
    }

    /// Runs trials `0, 1, …` until at least [`DIGEST_TRIALS`] are done
    /// and the time budget is spent. In traced runs every trial runs
    /// twice on its seed, untraced and then traced, and the two results
    /// must agree.
    pub fn run_trials(&mut self, mut trial: impl FnMut(&mut TrialCtx) -> Result<TrialOut, String>) {
        self.speed.probe();
        let mut spans = Vec::new();
        let start = Instant::now();
        let mut index = 0u32;
        while index < DIGEST_TRIALS || start.elapsed().as_secs_f64() < self.seconds {
            let seed = trial_seed(self.seed, index);
            self.tracer.set_enabled(false);
            let t0 = self.speed.now();
            let untraced = trial(&mut TrialCtx {
                index,
                seed,
                tracer: &mut self.tracer,
                counters: None,
            });
            let t1 = self.speed.now();
            spans.push((t0, t1));
            let (traced_s, result) = if self.trace {
                self.tracer.set_enabled(true);
                self.tracer.set_trial(Some(index));
                let span = self.tracer.begin("bench.trial");
                let t1 = Instant::now();
                let traced = trial(&mut TrialCtx {
                    index,
                    seed,
                    tracer: &mut self.tracer,
                    counters: Some(&mut self.counters),
                });
                let traced_s = t1.elapsed().as_secs_f64();
                self.tracer.end(span);
                self.tracer.set_enabled(false);
                let result = match (untraced, traced) {
                    (Ok(a), Ok(b)) if a == b => Ok(a),
                    (Ok(_), Ok(_)) => Err("traced result differs from untraced".to_string()),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                };
                (Some(traced_s), result)
            } else {
                (None, untraced)
            };
            self.trials.push(Trial {
                timed: Timed {
                    host_s: t1 - t0,
                    probe_s: f64::NAN,
                },
                traced_s,
                result,
            });
            self.speed.probe_if_due();
            index += 1;
        }
        self.speed.probe();
        for (t, (t0, t1)) in self.trials.iter_mut().zip(spans) {
            t.timed.probe_s = self.speed.around(t0, t1);
        }
        let probe_s = median(&self.speed.probe_seconds()).unwrap_or(f64::NAN);
        for host_s in std::mem::take(&mut self.setup_pending) {
            self.setup.push(Timed { host_s, probe_s });
        }
    }

    /// Digest of the first [`DIGEST_TRIALS`] trials' results (a failed
    /// trial folds in as `u64::MAX`).
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for t in self.trials.iter().take(DIGEST_TRIALS as usize) {
            match &t.result {
                Ok(out) => {
                    d.push(out.rounds);
                    out.fingerprint.iter().for_each(|&w| d.push(w));
                }
                Err(_) => d.push(u64::MAX),
            }
        }
        d
    }
}

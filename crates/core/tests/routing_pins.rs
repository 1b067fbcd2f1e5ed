//! Pinned outcomes of the adaptive routing runner and the Lemma 25–26
//! transforms.
//!
//! Every value below was recorded before the routing runner and the
//! transforms moved onto the shared collision kernel
//! ([`radio_model::Resolver`]). The kernel keeps each run's random draw
//! sequence, so these outcomes must not move: a change here means the
//! simulated process changed, not just its speed.

use netgraph::wct::{Wct, WctParams};
use netgraph::{generators, NodeId};
use noisy_radio_core::schedules::latency::xin_xia_pipeline;
use noisy_radio_core::schedules::single_link::single_link_adaptive_routing;
use noisy_radio_core::schedules::star::star_routing;
use noisy_radio_core::schedules::wct::wct_routing;
use noisy_radio_core::transform::{
    BaseSchedule, CodingFaultTransform, SenderFaultRoutingTransform, TransformRun,
};
use radio_model::adaptive::RoutingOutcome;
use radio_model::Channel;

fn ch(spec: &str) -> Channel {
    spec.parse().expect("valid channel spec")
}

fn outcome(rounds: u64, broadcasts: u64, fresh_deliveries: u64) -> RoutingOutcome {
    RoutingOutcome {
        rounds: Some(rounds),
        broadcasts,
        fresh_deliveries,
    }
}

/// Bit `s` is set iff `run(s)` succeeded, for seeds `0..32`.
fn success_mask(run: impl Fn(u64) -> bool) -> u32 {
    (0..32).map(|seed| u32::from(run(seed)) << seed).sum()
}

#[test]
fn star_routing_outcomes_are_pinned() {
    for (spec, expected) in [
        ("sender:0.3", outcome(11, 11, 2048)),
        ("receiver:0.5", outcome(78, 78, 2048)),
        ("sender:0.2+erasure:0.3", outcome(56, 56, 2048)),
        ("sender:0.2+receiver:0.3", outcome(56, 56, 2048)),
    ] {
        let out = star_routing(256, 8, ch(spec), 11, 1_000_000).unwrap();
        assert_eq!(out, expected, "star routing under {spec}");
    }
}

#[test]
fn wct_routing_outcome_is_pinned() {
    let wct = Wct::generate(WctParams {
        senders: 16,
        clusters_per_class: 4,
        cluster_size: 8,
        seed: 5,
    })
    .unwrap();
    let out = wct_routing(&wct, 4, ch("receiver:0.5"), 7, 20_000_000).unwrap();
    assert_eq!(out, outcome(930, 527, 576));
}

#[test]
fn single_link_adaptive_routing_at_k_4096_is_pinned() {
    let out = single_link_adaptive_routing(4096, ch("sender:0.5"), 13, 1_000_000).unwrap();
    assert_eq!(out.rounds, Some(8235));
}

#[test]
fn faultless_traces_are_pinned() {
    let g = generators::path(8);
    let trace = BaseSchedule::path_pipelined(8, 3)
        .validate_faultless(&g, NodeId::new(0))
        .unwrap();
    assert!(trace.complete);
    // Message m crosses edge (j, j + 1) in round 3m + j; deliveries
    // come in round order, ascending by listener within a round.
    let mut expected: Vec<(u64, u32, u32)> = (0..3u64)
        .flat_map(|m| (0..7u32).map(move |j| (3 * m + u64::from(j), j, j + 1)))
        .collect();
    expected.sort_by_key(|&(r, _, v)| (r, v));
    let got: Vec<(u64, u32, u32)> = trace
        .deliveries
        .iter()
        .map(|&(r, u, v)| (r, u.raw(), v.raw()))
        .collect();
    assert_eq!(got, expected);
    let g = generators::grid(3, 4);
    let base = xin_xia_pipeline(&g, NodeId::new(0), 3).unwrap();
    let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
    assert!(trace.complete);
    assert_eq!(trace.deliveries.len(), 3 * 11);
    assert_eq!(fnv(&trace.deliveries), 0x1f20_46f4_52c3_71ed);
}

/// FNV-1a over `(round, sender, receiver)` triples.
fn fnv(deliveries: &[(u64, NodeId, NodeId)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(r, u, v) in deliveries {
        for x in [r, u64::from(u.raw()), u64::from(v.raw())] {
            h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn routing_transform_outcomes_are_pinned() {
    let g = generators::path(8);
    let base = BaseSchedule::path_pipelined(8, 3);
    let t = |group_size, eta| SenderFaultRoutingTransform { group_size, eta };
    let run = t(16, 0.3).run(&g, &base, NodeId::new(0), 0.3, 17).unwrap();
    assert_eq!(
        run,
        TransformRun {
            total_rounds: 510,
            base_rounds: 17,
            messages: 48,
            success: true,
        }
    );
    for (x, eta, mask) in [
        (8, 0.2, 0x802a_0200),
        (16, 0.3, 0xa27a_e7f7),
        (24, 0.3, 0xffff_bfff),
    ] {
        let got = success_mask(|seed| {
            t(x, eta)
                .run(&g, &base, NodeId::new(0), 0.3, seed)
                .unwrap()
                .success
        });
        assert_eq!(got, mask, "x = {x}, eta = {eta}: {got:#010x}");
    }
}

#[test]
fn coding_transform_outcomes_are_pinned() {
    let g = generators::path(8);
    let base = BaseSchedule::path_pipelined(8, 3);
    let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
    let t = |group_size| CodingFaultTransform {
        group_size,
        eta: 0.2,
    };
    let run = t(16)
        .run(&g, &base, &trace, ch("receiver:0.4"), 19)
        .unwrap();
    assert_eq!(
        run,
        TransformRun {
            total_rounds: 578,
            base_rounds: 17,
            messages: 48,
            success: false,
        }
    );
    for (spec, x, mask) in [
        ("sender:0.4", 32, 0x398f_f87c),
        ("sender:0.4", 48, 0xfdef_7fbd),
        ("receiver:0.4", 32, 0x7187_fbfb),
        ("receiver:0.4", 48, 0xfaef_fff7),
        // Erasure loses the same slots as receiver noise.
        ("erasure:0.4", 32, 0x7187_fbfb),
    ] {
        let got = success_mask(|seed| t(x).run(&g, &base, &trace, ch(spec), seed).unwrap().success);
        assert_eq!(got, mask, "{spec}, x = {x}: {got:#010x}");
    }
}

//! The GF(256) slice kernels and the RLNC decoder built on them,
//! checked against element-at-a-time references written here.

use proptest::prelude::*;
use radio_coding::rlnc::{CodedPacket, RlncNode};
use radio_coding::{Field, Gf256, Gf65536};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn gf(v: u8) -> Gf256 {
    Gf256::new(v)
}

/// The multiplier strategy: 0 and 1 as often as any other value.
fn arb_c() -> impl Strategy<Value = Gf256> {
    prop_oneof![Just(0u8), Just(1u8), any::<u8>()].prop_map(Gf256::new)
}

/// `(dst, src)` of equal length, empty included.
fn arb_rows() -> impl Strategy<Value = (Vec<Gf256>, Vec<Gf256>)> {
    (0usize..80).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u8>().prop_map(Gf256::new), n..n + 1),
            proptest::collection::vec(any::<u8>().prop_map(Gf256::new), n..n + 1),
        )
    })
}

/// Rank of `rows` by textbook Gaussian elimination with scalar field
/// operations.
fn oracle_rank(rows: &[Vec<Gf256>]) -> usize {
    let mut m: Vec<Vec<Gf256>> = rows.to_vec();
    let cols = m.first().map_or(0, Vec::len);
    let mut rank = 0;
    for col in 0..cols {
        let Some(p) = (rank..m.len()).find(|&r| !m[r][col].is_zero()) else {
            continue;
        };
        m.swap(rank, p);
        let inv = m[rank][col].inv();
        for r in rank + 1..m.len() {
            let f = m[r][col].mul(inv);
            for j in 0..cols {
                let v = m[rank][j];
                m[r][j] = m[r][j].sub(f.mul(v));
            }
        }
        rank += 1;
    }
    rank
}

/// The packet with coefficients `coeffs` over `msgs`, its payload
/// computed symbol by symbol.
fn packet(coeffs: Vec<Gf256>, msgs: &[Vec<Gf256>], len: usize) -> CodedPacket<Gf256> {
    let payload = (0..len)
        .map(|s| {
            coeffs
                .iter()
                .zip(msgs)
                .fold(Gf256::ZERO, |acc, (&c, m)| acc.add(c.mul(m[s])))
        })
        .collect();
    CodedPacket { coeffs, payload }
}

/// A coefficient vector that is often dependent on `sent`: a scaled
/// copy of an earlier vector, a combination of two, a sparse 0/1
/// vector (sometimes all zero), or uniform.
fn next_coeffs(rng: &mut SmallRng, k: usize, sent: &[Vec<Gf256>]) -> Vec<Gf256> {
    let mode = if sent.is_empty() {
        2 + rng.gen_range(0..2)
    } else {
        rng.gen_range(0..4)
    };
    match mode {
        0 => {
            let c = gf(rng.gen_range(1..=255));
            let row = &sent[rng.gen_range(0..sent.len())];
            row.iter().map(|&v| c.mul(v)).collect()
        }
        1 => {
            let (a, b) = (gf(rng.gen()), gf(rng.gen()));
            let x = &sent[rng.gen_range(0..sent.len())];
            let y = &sent[rng.gen_range(0..sent.len())];
            x.iter()
                .zip(y)
                .map(|(&u, &v)| a.mul(u).add(b.mul(v)))
                .collect()
        }
        2 => (0..k).map(|_| gf(rng.gen_range(0..2))).collect(),
        _ => (0..k).map(|_| gf(rng.gen())).collect(),
    }
}

proptest! {
    #[test]
    fn gf256_mul_acc_matches_scalar_loop((mut dst, src) in arb_rows(), c in arb_c()) {
        let expect: Vec<Gf256> = dst.iter().zip(&src).map(|(&d, &s)| d.add(c.mul(s))).collect();
        Gf256::mul_acc(&mut dst, &src, c);
        prop_assert_eq!(dst, expect);
    }

    #[test]
    fn gf256_scale_slice_matches_scalar_loop((mut dst, _src) in arb_rows(), c in arb_c()) {
        let expect: Vec<Gf256> = dst.iter().map(|&d| d.mul(c)).collect();
        Gf256::scale_slice(&mut dst, c);
        prop_assert_eq!(dst, expect);
    }

    #[test]
    fn gf65536_default_kernels_match_scalar_loop(
        raw in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..40),
        c in prop_oneof![Just(0u16), Just(1u16), any::<u16>()],
    ) {
        let c = Gf65536::new(c);
        let mut dst: Vec<Gf65536> = raw.iter().map(|&(d, _)| Gf65536::new(d)).collect();
        let src: Vec<Gf65536> = raw.iter().map(|&(_, s)| Gf65536::new(s)).collect();
        let acc: Vec<Gf65536> = dst.iter().zip(&src).map(|(&d, &s)| d.add(c.mul(s))).collect();
        Gf65536::mul_acc(&mut dst, &src, c);
        prop_assert_eq!(&dst, &acc);
        let scaled: Vec<Gf65536> = dst.iter().map(|&d| d.mul(c)).collect();
        Gf65536::scale_slice(&mut dst, c);
        prop_assert_eq!(dst, scaled);
    }

    #[test]
    fn rlnc_absorb_agrees_with_rank_oracle(
        k in 1usize..7,
        len in 0usize..5,
        count in 0usize..30,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let msgs: Vec<Vec<Gf256>> =
            (0..k).map(|_| (0..len).map(|_| gf(rng.gen())).collect()).collect();
        let mut node = RlncNode::new(k, len);
        let mut sent: Vec<Vec<Gf256>> = Vec::new();
        // A random, often dependent, sequence; then the unit vectors in
        // a shuffled order, which always complete the rank.
        let mut units: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            units.swap(i, rng.gen_range(0..=i));
        }
        let mut sequence: Vec<Vec<Gf256>> = Vec::new();
        for _ in 0..count {
            let coeffs = next_coeffs(&mut rng, k, &sequence);
            sequence.push(coeffs);
        }
        sequence.extend(units.iter().map(|&i| {
            let mut e = vec![Gf256::ZERO; k];
            e[i] = Gf256::ONE;
            e
        }));
        for coeffs in sequence {
            let before = oracle_rank(&sent);
            sent.push(coeffs.clone());
            let after = oracle_rank(&sent);
            let fresh = node.absorb(packet(coeffs, &msgs, len));
            prop_assert_eq!(fresh, after > before);
            prop_assert_eq!(node.rank(), after);
        }
        prop_assert!(node.can_decode());
        prop_assert_eq!(node.decode().unwrap(), msgs.clone());
        // At full rank every packet, innovative-looking or not, is
        // rejected and the decoded messages stay put.
        for _ in 0..4 {
            let coeffs: Vec<Gf256> = (0..k).map(|_| gf(rng.gen())).collect();
            prop_assert!(!node.absorb(packet(coeffs, &msgs, len)));
            prop_assert_eq!(node.rank(), k);
        }
        prop_assert_eq!(node.decode().unwrap(), msgs);
    }
}

#[test]
fn full_rank_decoder_rejects_without_changing_state() {
    let msgs = vec![vec![gf(3), gf(4)], vec![gf(5), gf(6)]];
    let mut node = RlncNode::source(2, 2, &msgs);
    // Coefficients and payload that do not even agree: a full-rank
    // decoder returns before looking at either.
    let bogus = CodedPacket {
        coeffs: vec![gf(7), gf(9)],
        payload: vec![gf(1), gf(1)],
    };
    assert!(!node.absorb(bogus));
    assert_eq!(node.rank(), 2);
    assert_eq!(node.decode().unwrap(), msgs);
}

#[test]
#[should_panic(expected = "payload length mismatch")]
fn full_rank_decoder_still_checks_dimensions() {
    let msgs = vec![vec![gf(3)], vec![gf(5)]];
    let mut node = RlncNode::source(2, 1, &msgs);
    node.absorb(CodedPacket::unit(2, 0, vec![]));
}

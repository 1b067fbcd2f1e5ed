//! Host-speed probe. The benchmark shares its host with other tenants,
//! and their load slows this core by up to 2.5 times for minutes at a
//! time. Fixed blocks of benchmark-owned work, timed between trials,
//! track that slowdown, and the timed metrics are rescaled by them to
//! the speed of an idle core (see [`PROBE_REF_S`]). The probe is part
//! of the benchmark, not of the program, so a change to the program
//! leaves its work unchanged.

use std::hint::black_box;
use std::time::Instant;

use crate::derive::bracket_mean;

/// Seconds one probe takes on an idle core of the reference host, a
/// 2-vCPU Intel Xeon VM: the sum of the kernels' idle-core times. Timed
/// metrics are rescaled to this speed.
pub const PROBE_REF_S: f64 = 0.0285;

/// A new probe is due this long after the previous one ended.
const PROBE_EVERY_S: f64 = 0.5;

/// The probe runs three kernels that cover the kinds of work the
/// simulator does: integer chains with L2 table lookups (as in the RNG
/// draws), GF(256) row operations (as in RLNC coding) and bitset sweeps
/// over a 4 MiB array (as in the engine's act and receive sweeps). On
/// an idle core they take about 12, 5 and 12 ms. The GF(256) kernel
/// slows down most on a loaded host, more than any workload, so it has
/// the smallest share; with these shares the probe's slowdown lies
/// between those of the least and the most sensitive workload.
const ILP_ITERS: u64 = 5_000_000;
const ILP_TABLE: usize = 1 << 15;
const GF_ROWS: usize = 64;
const GF_ROW_LEN: usize = 80;
const GF_OPS: usize = 100_000;
const SWEEP_WORDS: usize = 1 << 19;
const SWEEP_PASSES: usize = 225;
const SWEEP_STEPS: usize = 4_096;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Four independent xorshift chains with table lookups and a
/// data-dependent branch.
fn ilp_kernel(table: &[u64], iters: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let mask = table.len() - 1;
    let mut s = 0u64;
    for _ in 0..iters {
        a = xorshift(a);
        b = xorshift(b);
        c = xorshift(c);
        d = xorshift(d);
        s = s.wrapping_add(table[a as usize & mask] ^ table[b as usize & mask]);
        if (c ^ d) & 1 == 0 {
            s = s.rotate_left(1);
        }
    }
    s
}

/// GF(2^8) multiply-accumulate of one row into another, by log and
/// exp tables, `ops` times.
fn gf_kernel(exp: &[u8], log: &[u8], rows: &mut [[u8; GF_ROW_LEN]], ops: usize) -> u64 {
    let mut s = 0u64;
    let k = rows.len();
    for i in 0..ops {
        let lc = usize::from(log[usize::from(i as u8 | 1)]);
        // 7i + 3 and i differ mod 64 for every i, so the rows differ.
        let src = rows[i % k];
        let dst = &mut rows[(i * 7 + 3) % k];
        for (d, &x) in dst.iter_mut().zip(&src) {
            if x != 0 {
                *d ^= exp[usize::from(log[usize::from(x)]) + lc];
            }
        }
        s += u64::from(dst[0]);
    }
    s
}

/// Strided passes over a sparse bitset that visit each set bit, draw a
/// random number per bit and flip a few bits per word.
fn sweep_kernel(words: &mut [u64], passes: usize) -> u64 {
    let (mut x, mut s) = (0x1234_5678_9abc_def1u64, 0u64);
    let len = words.len();
    for pass in 0..passes {
        let mut w = pass * 131 % len;
        for _ in 0..SWEEP_STEPS {
            let mut bits = words[w];
            while bits != 0 {
                let t = bits.trailing_zeros();
                bits &= bits - 1;
                x = xorshift(x);
                if x >> 11 < 1 << 50 {
                    s += u64::from(t);
                }
            }
            x = xorshift(x);
            words[w] ^= x & 0x0101_0101_0101_0101;
            w += 37;
            if w >= len {
                w -= len;
            }
        }
    }
    s
}

/// The kernels' inputs. Every probe resets the two the kernels change,
/// in place so that probing allocates nothing and leaves the process's
/// peak memory alone, and so every probe does the same work.
struct ProbeInput {
    table: Vec<u64>,
    exp: Vec<u8>,
    log: Vec<u8>,
    rows: Vec<[u8; GF_ROW_LEN]>,
    words: Vec<u64>,
}

impl ProbeInput {
    fn new() -> Self {
        // GF(2^8) with the polynomial x^8 + x^4 + x^3 + x^2 + 1; exp is
        // doubled so a sum of two logs needs no reduction.
        let (mut exp, mut log) = (vec![0u8; 510], vec![0u8; 256]);
        let mut a = 1u16;
        for i in 0..255 {
            exp[i] = a as u8;
            exp[i + 255] = a as u8;
            log[usize::from(a)] = i as u8;
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= 0x11d;
            }
        }
        let mut input = ProbeInput {
            table: (0..ILP_TABLE as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            exp,
            log,
            rows: vec![[0u8; GF_ROW_LEN]; GF_ROWS],
            words: vec![0; SWEEP_WORDS],
        };
        input.reset();
        input
    }

    /// Restores the rows and words the kernels change.
    fn reset(&mut self) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            for (j, b) in row.iter_mut().enumerate() {
                *b = ((i * 31 + j * 17) % 251) as u8;
            }
        }
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) & 0x8001_0010_0200_4008;
        }
    }

    /// Resets the input, then runs the three kernels and returns their
    /// seconds.
    fn run(&mut self) -> f64 {
        self.reset();
        let start = Instant::now();
        black_box(ilp_kernel(black_box(&self.table), black_box(ILP_ITERS)));
        black_box(gf_kernel(
            &self.exp,
            &self.log,
            black_box(&mut self.rows),
            GF_OPS,
        ));
        black_box(sweep_kernel(black_box(&mut self.words), SWEEP_PASSES));
        start.elapsed().as_secs_f64()
    }
}

/// Probe samples of one run, on a clock that starts with the run.
pub struct HostSpeed {
    origin: Instant,
    input: ProbeInput,
    /// `(midpoint, probe seconds)` of every probe, in time order.
    samples: Vec<(f64, f64)>,
    last_end: f64,
}

impl HostSpeed {
    /// A probe with no samples yet; its clock starts now.
    pub fn new() -> Self {
        HostSpeed {
            origin: Instant::now(),
            input: ProbeInput::new(),
            samples: Vec::new(),
            last_end: f64::NEG_INFINITY,
        }
    }

    /// Seconds since the run's clock started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times one block of probe work.
    pub fn probe(&mut self) {
        let start = self.now();
        let secs = self.input.run();
        let end = self.now();
        self.samples.push(((start + end) / 2.0, secs));
        self.last_end = end;
    }

    /// Probes if [`PROBE_EVERY_S`] passed since the last probe.
    pub fn probe_if_due(&mut self) {
        if self.now() - self.last_end >= PROBE_EVERY_S {
            self.probe();
        }
    }

    /// Probe seconds around the interval `[start, end]`: the mean of
    /// the last probe before it and the first after it (NaN without
    /// probes).
    pub fn around(&self, start: f64, end: f64) -> f64 {
        bracket_mean(&self.samples, start, end).unwrap_or(f64::NAN)
    }

    /// Every probe's seconds, in time order.
    pub fn probe_seconds(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, s)| s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_input_dependent() {
        let input = ProbeInput::new();
        let ilp = |n| ilp_kernel(&input.table, n);
        assert_eq!(ilp(1_000), ilp(1_000));
        assert_ne!(ilp(1_000), ilp(1_001));
        let gf = |n| gf_kernel(&input.exp, &input.log, &mut input.rows.clone(), n);
        assert_eq!(gf(1_000), gf(1_000));
        assert_ne!(gf(1_000), gf(1_001));
        let sweep = |n| sweep_kernel(&mut input.words.clone(), n);
        assert_eq!(sweep(2), sweep(2));
        assert_ne!(sweep(2), sweep(3));
    }

    #[test]
    fn reset_restores_what_a_probe_changed() {
        let mut used = ProbeInput::new();
        used.run();
        let fresh = ProbeInput::new();
        assert_ne!(used.words, fresh.words);
        used.reset();
        assert_eq!(used.rows, fresh.rows);
        assert_eq!(used.words, fresh.words);
    }

    #[test]
    fn gf_tables_invert_each_other() {
        let input = ProbeInput::new();
        for a in 1..=255u8 {
            assert_eq!(input.exp[usize::from(input.log[usize::from(a)])], a);
        }
    }

    #[test]
    fn probes_bracket_the_intervals_between_them() {
        let mut speed = HostSpeed::new();
        assert!(speed.around(0.0, 1.0).is_nan());
        speed.probe();
        let (start, end) = (speed.now(), speed.now());
        speed.probe_if_due();
        assert_eq!(speed.probe_seconds().len(), 1, "no probe is due yet");
        speed.probe();
        let s = speed.probe_seconds();
        assert_eq!(speed.around(start, end), (s[0] + s[1]) / 2.0);
    }
}

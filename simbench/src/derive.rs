//! Pure derivations behind the reported metrics: medians, normalised
//! costs, ratios, the run digest and the `VmHWM` parser. Kept free of
//! clocks and I/O so the tests below can pin them on fixed inputs.

/// Median of `xs` (mean of the two middle values for an even count),
/// or `None` when `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never
/// entered reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds per unit of work for `ms` milliseconds spent on `units`.
pub fn ns_per(ms: f64, units: u64) -> f64 {
    ratio(ms * 1e6, units as f64)
}

/// Simulated node-rounds per host second: `n` nodes times
/// `rounds` simulated rounds, done in `host_s` seconds.
pub fn node_rounds_per_s(n: usize, rounds: u64, host_s: f64) -> f64 {
    ratio(n as f64 * rounds as f64, host_s)
}

/// `host_s` seconds measured while the host-speed probe took `probe_s`,
/// rescaled to a host on which it takes `ref_s`.
pub fn at_reference_speed(host_s: f64, probe_s: f64, ref_s: f64) -> f64 {
    host_s * ref_s / probe_s
}

/// Mean of the last sample at or before `start` and the first at or
/// after `end`, from `(time, value)` samples in time order; one side
/// alone if the other has none, `None` if neither has.
pub fn bracket_mean(samples: &[(f64, f64)], start: f64, end: f64) -> Option<f64> {
    let before = samples.iter().rev().find(|&&(t, _)| t <= start);
    let after = samples.iter().find(|&&(t, _)| t >= end);
    match (before, after) {
        (Some(&(_, a)), Some(&(_, b))) => Some((a + b) / 2.0),
        (Some(&(_, v)), None) | (None, Some(&(_, v))) => Some(v),
        (None, None) => None,
    }
}

/// Share of all node-rounds (`n × rounds`) the engine's sweeps visited
/// as active.
pub fn active_fraction(active_node_rounds: u64, n: usize, rounds: u64) -> f64 {
    ratio(active_node_rounds as f64, n as f64 * rounds as f64)
}

/// Words an act sweep visited per word it scanned (visited + skipped).
pub fn word_occupancy(visited: u64, skipped: u64) -> f64 {
    ratio(visited as f64, (visited + skipped) as f64)
}

/// Innovative share of RLNC deliveries: every one of the `n − 1`
/// non-source nodes needs exactly `k` innovative packets per trial.
pub fn innovative_ratio(n: usize, k: usize, trials: u64, deliveries: u64) -> f64 {
    let needed = n.saturating_sub(1) as f64 * k as f64 * trials as f64;
    ratio(needed, deliveries as f64)
}

/// Coding time implied by the kernel costs: each delivery pays one
/// absorb and each broadcast one combination.
pub fn implied_coding_ms(deliveries: u64, absorb_ns: f64, broadcasts: u64, combine_ns: f64) -> f64 {
    (deliveries as f64 * absorb_ns + broadcasts as f64 * combine_ns) / 1e6
}

/// What is left of `total` after the attributed `parts`.
pub fn unattributed(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Peak resident set in kB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// FNV-1a (64-bit) over little-endian `u64` words: a digest of the
/// per-trial results that a pure-speed change must leave unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `word` into the digest.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_degenerate_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn normalisations() {
        // 2 ms over 4 edges is 500 ns per edge.
        assert_eq!(ns_per(2.0, 4), 500_000.0);
        assert_eq!(ns_per(2.0, 0), 0.0);
        // 65,536 nodes × 5,000 rounds in 2 s.
        assert_eq!(node_rounds_per_s(65_536, 5_000, 2.0), 163_840_000.0);
        assert_eq!(active_fraction(250, 10, 100), 0.25);
        assert_eq!(active_fraction(250, 10, 0), 0.0);
        assert_eq!(word_occupancy(3, 1), 0.75);
        assert_eq!(word_occupancy(0, 0), 0.0);
    }

    #[test]
    fn host_speed_rescaling() {
        // A probe at twice its reference time halves the measured seconds.
        assert_eq!(at_reference_speed(3.0, 0.04, 0.02), 1.5);
        assert_eq!(at_reference_speed(3.0, 0.02, 0.02), 3.0);
        let samples = [(1.0, 0.02), (5.0, 0.04), (9.0, 0.03)];
        assert_eq!(bracket_mean(&samples, 1.5, 4.5), Some(0.03));
        assert_eq!(bracket_mean(&samples, 5.5, 8.0), Some(0.035));
        assert_eq!(bracket_mean(&samples, 9.5, 10.0), Some(0.03));
        assert_eq!(bracket_mean(&samples, 0.0, 0.5), Some(0.02));
        assert_eq!(bracket_mean(&[], 0.0, 1.0), None);
    }

    #[test]
    fn coding_ratios() {
        // 4,096 nodes, k = 16, 2 trials: 131,040 packets needed.
        assert_eq!(innovative_ratio(4096, 16, 2, 262_080), 0.5);
        assert_eq!(innovative_ratio(1, 16, 2, 0), 0.0);
        // 1,000 deliveries at 5 µs plus 500 broadcasts at 2 µs.
        assert_eq!(implied_coding_ms(1_000, 5_000.0, 500, 2_000.0), 6.0);
    }

    #[test]
    fn unattributed_closes_the_sum() {
        let parts = [1.5, 2.25, 0.25];
        let rest = unattributed(10.0, &parts);
        assert_eq!(rest, 6.0);
        assert_eq!(parts.iter().sum::<f64>() + rest, 10.0);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tsimbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51_234));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 40000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        // FNV-1a of the eight zero bytes of the word 0.
        let mut d = Digest::default();
        d.push(0);
        assert_eq!(d.hex(), "a8c7f832281a39c5");
        let mut ab = Digest::default();
        ab.push(1);
        ab.push(2);
        let mut ba = Digest::default();
        ba.push(2);
        ba.push(1);
        assert_ne!(ab, ba);
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }
}

//! Equivalence verdicts for every design the benchmark reports.
//!
//! Up to `rlmul_lec::EXHAUSTIVE_BITS` the library's `check_datapath`
//! enumerates the whole input space. Wider designs are checked here by
//! dense random simulation through the public `Simulator`, one full
//! batch of at most 64 lanes at a time: `check_datapath` is not used
//! above the exhaustive width, because its corner loop can leave a
//! partial batch pending that the random loop then overfills past the
//! 64 lanes `PortValues::pack` keeps (a false mismatch at 12, 14 and
//! 16 bits).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_ct::CompressorTree;
use rlmul_lec::{check_datapath, golden, PortValues, Simulator, EXHAUSTIVE_BITS};
use rlmul_rtl::MultiplierNetlist;
use std::time::Instant;

/// Random 64-lane batches simulated per design above the exhaustive
/// width (plus the corner batches).
const RANDOM_BATCHES: usize = 512;

/// The verdict on one design and how long it took.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Every checked vector matched `a * b`.
    pub equivalent: bool,
    /// Wall time of elaboration plus checking.
    pub millis: f64,
    /// A mismatching `(a, b, expected, got)`, if any.
    pub counterexample: Option<(u64, u64, u128, u128)>,
}

/// Elaborates `tree` and checks it against the golden product.
///
/// # Errors
///
/// Elaboration or simulator construction failures, as text.
pub fn verify(tree: &CompressorTree, seed: u64) -> Result<Verdict, String> {
    let t0 = Instant::now();
    let bits = tree.bits();
    let kind = tree.profile().kind();
    if kind.is_mac() {
        return Err(format!("{kind} designs are not reported by this benchmark"));
    }
    let mul = MultiplierNetlist::elaborate(tree).map_err(|e| e.to_string())?;
    let netlist = mul.netlist();
    let (equivalent, counterexample) = if bits <= EXHAUSTIVE_BITS {
        let r = check_datapath(netlist, bits, kind).map_err(|e| e.to_string())?;
        (r.equivalent, r.counterexample.map(|c| (c.a, c.b, c.expected, c.got)))
    } else {
        simulate(netlist, bits, seed)?
    };
    Ok(Verdict { equivalent, millis: t0.elapsed().as_secs_f64() * 1e3, counterexample })
}

type SimOutcome = (bool, Option<(u64, u64, u128, u128)>);

/// Corner operands (extremes and walking ones/zeros) crossed with each
/// other, then `RANDOM_BATCHES` batches of uniform random operands,
/// every batch exactly one call of at most 64 lanes.
fn simulate(netlist: &rlmul_rtl::Netlist, bits: usize, seed: u64) -> Result<SimOutcome, String> {
    let sim = Simulator::new(netlist).map_err(|e| e.to_string())?;
    let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let mut corners = vec![0, 1, mask, mask - 1, mask >> 1, (mask >> 1) + 1];
    for k in 0..bits {
        corners.push(1u64 << k);
        corners.push(mask ^ (1u64 << k));
    }
    let mut pairs: Vec<(u64, u64)> =
        corners.iter().flat_map(|&a| corners.iter().map(move |&b| (a, b))).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7665_7269_6679);
    for _ in 0..RANDOM_BATCHES * 64 {
        pairs.push((rng.gen::<u64>() & mask, rng.gen::<u64>() & mask));
    }
    for batch in pairs.chunks(64) {
        let a: Vec<u64> = batch.iter().map(|p| p.0).collect();
        let b: Vec<u64> = batch.iter().map(|p| p.1).collect();
        let out = sim
            .run(&[PortValues::pack(&a, bits), PortValues::pack(&b, bits)])
            .map_err(|e| e.to_string())?;
        for (lane, &(x, y)) in batch.iter().enumerate() {
            let got = out[0]
                .bits
                .iter()
                .enumerate()
                .fold(0u128, |acc, (k, &w)| acc | ((((w >> lane) & 1) as u128) << k));
            let expected = golden(x, y, 0, bits);
            if got != expected {
                return Ok((false, Some((x, y, expected, got))));
            }
        }
    }
    Ok((true, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_ct::PpgKind;

    #[test]
    fn legacy_structures_pass_at_both_widths() {
        for (bits, kind) in [(8, PpgKind::And), (8, PpgKind::Mbe), (16, PpgKind::Mbe)] {
            let v = verify(&CompressorTree::dadda(bits, kind).unwrap(), 1).unwrap();
            assert!(v.equivalent, "{bits}-bit {kind}: {:?}", v.counterexample);
        }
    }

    #[test]
    fn a_flipped_gate_is_refuted_at_16_bits() {
        let tree = CompressorTree::dadda(16, PpgKind::And).unwrap();
        let good = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let mid = good.gates().len() / 2;
        let (gate, bad) = (mid..good.gates().len())
            .find_map(|g| rlmul_rtl::mutate::flip_gate_kind(&good, g).map(|n| (g, n)))
            .expect("some gate kind can flip");
        let (equivalent, cex) = simulate(&bad, 16, 1).unwrap();
        assert!(!equivalent && cex.is_some(), "mutated gate {gate} not detected");
        assert!(simulate(&good, 16, 1).unwrap().0);
    }
}

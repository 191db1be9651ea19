//! Interleaved per-channel sums over NCHW maps.
//!
//! A per-channel sum that must keep its sequential `(n, h, w)` order
//! is one chain of dependent adds. Running the chains of up to
//! [`GROUP`] channels side by side keeps that many adds in flight
//! without changing any channel's order, so results stay bit-identical
//! to summing one channel at a time.

/// Channels whose sequential sums are interleaved.
pub(crate) const GROUP: usize = 8;

/// Per-channel sequential sums over the `[n, c, hw]` maps of `G`
/// channels starting at `ch0`: `sums[s][g]` starts at `init` and adds
/// `terms(g, xs...)[s]` for every position in `(n, h, w)` order, where
/// `xs` are the values of the `N` input tensors at that position.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `p` walks G·N maps in lockstep
pub(crate) fn group_sums<const G: usize, const N: usize, const S: usize>(
    xs: [&[f32]; N],
    (n, c, hw): (usize, usize, usize),
    ch0: usize,
    init: f32,
    terms: impl Fn(usize, [f32; N]) -> [f32; S],
) -> [[f32; G]; S] {
    let mut sums = [[init; G]; S];
    for ni in 0..n {
        let base = (ni * c + ch0) * hw;
        let maps: [[&[f32]; G]; N] = std::array::from_fn(|t| {
            std::array::from_fn(|g| &xs[t][base + g * hw..base + (g + 1) * hw])
        });
        for p in 0..hw {
            for g in 0..G {
                let ts = terms(g, std::array::from_fn(|t| maps[t][g][p]));
                for (sum, t) in sums.iter_mut().zip(ts) {
                    sum[g] += t;
                }
            }
        }
    }
    sums
}

/// Runs `body` with `G = GROUP` over full channel groups and `G = 1`
/// over the remaining channels, binding each group's first channel.
macro_rules! for_channel_groups {
    ($c:expr, |$ch0:ident, $g:ident| $body:expr) => {{
        let c: usize = $c;
        let full = c - c % $crate::sums::GROUP;
        for $ch0 in (0..full).step_by($crate::sums::GROUP) {
            const $g: usize = $crate::sums::GROUP;
            $body;
        }
        for $ch0 in full..c {
            const $g: usize = 1;
            $body;
        }
    }};
}
pub(crate) use for_channel_groups;

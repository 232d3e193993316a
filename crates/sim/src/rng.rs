//! Crate-private deterministic RNG: SplitMix64, the same generator the DM
//! test seeds use, so every simulated stream replays from a single `u64`.

pub(crate) use hedc_obs::splitmix64;

/// Unit-interval sample from a SplitMix64 draw.
pub(crate) fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

//! Linted as `crates/sim/src/noise.rs` (a sanctioned RNG module):
//! draws from a stream seeded by `plan::chunk_seed` in an engine shot
//! loop are the sanctioned pattern.

use rand::Rng;

pub fn sanctioned_draw(rng: &mut impl Rng) -> f64 {
    rng.random()
}

//! Linted as `crates/sim/src/fixture.rs` (NOT a sanctioned RNG
//! module): stray RNG outside the seeded-stream discipline.

use rand::Rng;

pub fn stray_draw() -> f64 {
    rand::rng().random()
}

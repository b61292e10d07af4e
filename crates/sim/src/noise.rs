//! Noise configuration and per-shot stochastic parameters.
//!
//! Coherent context-dependent crosstalk (always-on ZZ, Stark) is
//! deterministic and computed by the timeline interpreter; this module
//! holds the switches for every channel plus the quantities that are
//! *sampled once per shot*: charge-parity signs (Eq. 6) and
//! quasi-static low-frequency detunings.

use ca_circuit::c64::{C64, ONE, ZERO};
use ca_circuit::matrix::Mat2;
use ca_device::Device;
use rand::rngs::StdRng;
use rand::RngExt;

/// Which noise processes to simulate. All on by default; experiments
/// switch individual terms off for ablations and characterization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseConfig {
    /// Always-on ZZ crosstalk between jointly idle / spectator qubits.
    pub zz_crosstalk: bool,
    /// AC Stark shift on spectators of driven qubits (Fig. 4a).
    pub stark: bool,
    /// Charge-parity ±δ Z noise (Fig. 4b).
    pub charge_parity: bool,
    /// Quasi-static low-frequency detuning (per-shot Gaussian).
    pub quasistatic: bool,
    /// T1 amplitude damping and T2 pure dephasing.
    pub decoherence: bool,
    /// Depolarizing error after each physical gate.
    pub gate_error: bool,
    /// Readout assignment error.
    pub readout_error: bool,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            zz_crosstalk: true,
            stark: true,
            charge_parity: true,
            quasistatic: true,
            decoherence: true,
            gate_error: true,
            readout_error: true,
        }
    }
}

impl NoiseConfig {
    /// Everything off — ideal simulation.
    pub fn ideal() -> Self {
        Self {
            zz_crosstalk: false,
            stark: false,
            charge_parity: false,
            quasistatic: false,
            decoherence: false,
            gate_error: false,
            readout_error: false,
        }
    }

    /// Only the coherent crosstalk terms (ZZ + Stark): the setting for
    /// isolating the errors CA-EC targets.
    pub fn coherent_only() -> Self {
        Self {
            zz_crosstalk: true,
            stark: true,
            charge_parity: false,
            quasistatic: false,
            decoherence: false,
            gate_error: false,
            readout_error: false,
        }
    }
}

/// Stochastic parameters drawn once per shot.
#[derive(Clone, Debug)]
pub struct ShotNoise {
    /// Charge-parity sign per qubit (±1); multiplies the calibrated δ.
    pub parity_sign: Vec<f64>,
    /// Quasi-static detuning per qubit (kHz), ~N(0, σ_q).
    pub detuning_khz: Vec<f64>,
}

impl ShotNoise {
    /// Samples per-shot parameters for a device from a sequential RNG
    /// stream: the dense engine's draw at the start of every
    /// trajectory.
    ///
    /// Gaussian detunings use both halves of each Box–Muller pair —
    /// half the draws and transcendentals of independent sampling.
    /// The draw order is pinned (`dense_shot_noise_stream_is_pinned`):
    /// every dense-engine golden depends on it. The frame engines
    /// draw from [`Self::sample_v2`] instead.
    pub fn sample(device: &Device, config: &NoiseConfig, rng: &mut StdRng) -> Self {
        let n = device.num_qubits();
        let mut parity_sign = vec![0.0; n];
        let mut detuning_khz = vec![0.0; n];
        let mut spare: Option<f64> = None;
        for q in 0..n {
            let cal = &device.calibration.qubits[q];
            parity_sign[q] = if config.charge_parity && cal.charge_parity_khz > 0.0 {
                if rng.random::<bool>() {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.0
            };
            detuning_khz[q] = if config.quasistatic && cal.quasistatic_khz > 0.0 {
                let z = match spare.take() {
                    Some(z) => z,
                    None => {
                        let (z0, z1) = gaussian_pair(rng);
                        spare = Some(z1);
                        z0
                    }
                };
                z * cal.quasistatic_khz
            } else {
                0.0
            };
        }
        Self {
            parity_sign,
            detuning_khz,
        }
    }

    /// Samples per-shot parameters for the frame engines: every
    /// qubit's draws come from one counter-based hash of
    /// `(seed, shot, NOISE site(q))` — the charge-parity sign from bit
    /// 63, the quasi-static detuning from the popcount lattice
    /// Gaussian over the low 32 bits (see [`crate::plan::lattice_value`]).
    ///
    /// Unlike the sequential stream of [`Self::sample`], a
    /// calibration-disabled qubit consumes nothing from anyone else's
    /// draws: toggling one qubit's `quasistatic_khz` or
    /// `charge_parity_khz` cannot shift any other qubit's noise (the
    /// Box–Muller spare-half coupling of [`Self::sample`] is eliminated
    /// by construction).
    pub fn sample_v2(device: &Device, config: &NoiseConfig, seed: u64, shot: u64) -> Self {
        use crate::plan::{lattice_idx, lattice_value, shot_site_seed, site};
        let n = device.num_qubits();
        let mut parity_sign = vec![0.0; n];
        let mut detuning_khz = vec![0.0; n];
        for q in 0..n {
            let cal = &device.calibration.qubits[q];
            let h = shot_site_seed(seed, shot, site::id(site::NOISE, 0, q));
            parity_sign[q] = if config.charge_parity && cal.charge_parity_khz > 0.0 {
                if h >> 63 & 1 == 1 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.0
            };
            detuning_khz[q] = if config.quasistatic && cal.quasistatic_khz > 0.0 {
                lattice_value(lattice_idx(h)) * cal.quasistatic_khz
            } else {
                0.0
            };
        }
        Self {
            parity_sign,
            detuning_khz,
        }
    }

    /// The total stochastic Z rate (kHz) on `q` for this shot:
    /// `±δ + ε` (Eq. 6 plus the quasi-static term).
    pub fn z_rate_khz(&self, device: &Device, q: usize) -> f64 {
        self.parity_sign[q] * device.calibration.qubits[q].charge_parity_khz + self.detuning_khz[q]
    }
}

/// Two independent standard normal samples from one Box–Muller
/// transform (two uniform draws, one `ln`/`sqrt`, one `sin_cos`).
pub fn gaussian_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    let r = (-2.0 * u1.ln()).sqrt();
    let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * c, r * s)
}

/// Amplitude-damping Kraus pair for decay probability γ.
pub fn amplitude_damping_kraus(gamma: f64) -> [Mat2; 2] {
    let g = gamma.clamp(0.0, 1.0);
    [
        Mat2([[ONE, ZERO], [ZERO, C64::real((1.0 - g).sqrt())]]),
        Mat2([[ZERO, C64::real(g.sqrt())], [ZERO, ZERO]]),
    ]
}

/// Probability of a Z kick over `dt_ns` for pure-dephasing time
/// `t_phi_us`: the dephasing channel `ρ → (1−p)ρ + pZρZ` with
/// `p = (1 − e^{−Δt/T_φ})/2`.
pub fn dephasing_prob(dt_ns: f64, t_phi_us: f64) -> f64 {
    if t_phi_us <= 0.0 {
        return 0.0;
    }
    0.5 * (1.0 - (-dt_ns / (t_phi_us * 1000.0)).exp())
}

/// Pure-dephasing time from T1/T2: `1/T_φ = 1/T2 − 1/(2T1)`.
/// Returns `f64::INFINITY` when T2 saturates the 2·T1 limit.
pub fn t_phi_us(t1_us: f64, t2_us: f64) -> f64 {
    let rate = 1.0 / t2_us - 1.0 / (2.0 * t1_us);
    if rate <= 1e-12 {
        f64::INFINITY
    } else {
        1.0 / rate
    }
}

/// Decay probability over `dt_ns` for T1 (µs).
pub fn damping_prob(dt_ns: f64, t1_us: f64) -> f64 {
    if t1_us <= 0.0 {
        return 0.0;
    }
    1.0 - (-dt_ns / (t1_us * 1000.0)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_device::{uniform_device, Topology};
    use rand::SeedableRng;

    #[test]
    fn ideal_config_disables_everything() {
        let c = NoiseConfig::ideal();
        assert!(!c.zz_crosstalk && !c.decoherence && !c.readout_error);
    }

    #[test]
    fn shot_noise_respects_switches() {
        let mut dev = uniform_device(Topology::line(2), 50.0);
        dev.calibration.qubits[0].charge_parity_khz = 5.0;
        let mut rng = StdRng::seed_from_u64(3);
        let off = ShotNoise::sample(&dev, &NoiseConfig::ideal(), &mut rng);
        assert_eq!(off.z_rate_khz(&dev, 0), 0.0);
        let on = ShotNoise::sample(&dev, &NoiseConfig::default(), &mut rng);
        assert!(on.parity_sign[0].abs() == 1.0);
    }

    #[test]
    fn parity_sign_is_fair() {
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].charge_parity_khz = 5.0;
        let mut rng = StdRng::seed_from_u64(11);
        let mut plus = 0;
        for _ in 0..2000 {
            let s = ShotNoise::sample(&dev, &NoiseConfig::default(), &mut rng);
            if s.parity_sign[0] > 0.0 {
                plus += 1;
            }
        }
        assert!((plus as f64 / 2000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..10000)
            .flat_map(|_| {
                let (a, b) = gaussian_pair(&mut rng);
                [a, b]
            })
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03);
        assert!((var - 1.0).abs() < 0.05);
    }

    #[test]
    fn shot_noise_v2_qubits_are_independent_streams() {
        // Regression for the Box–Muller spare-half coupling: in the
        // hashed draw, disabling one qubit's quasistatic calibration
        // must leave every other qubit's draws bit-identical.
        let dev = uniform_device(Topology::line(5), 50.0);
        let mut dev_off = dev.clone();
        dev_off.calibration.qubits[2].quasistatic_khz = 0.0;
        let cfg = NoiseConfig::default();
        for shot in 0..64u64 {
            let a = ShotNoise::sample_v2(&dev, &cfg, 17, shot);
            let b = ShotNoise::sample_v2(&dev_off, &cfg, 17, shot);
            assert_eq!(b.detuning_khz[2], 0.0);
            for q in (0..5).filter(|&q| q != 2) {
                assert_eq!(a.detuning_khz[q].to_bits(), b.detuning_khz[q].to_bits());
                assert_eq!(a.parity_sign[q].to_bits(), b.parity_sign[q].to_bits());
            }
        }
        // The dense engine's sequential stream has the coupling
        // (documents the bug the hashed draw removes): qubits after
        // the disabled one shift.
        let mut r1 = StdRng::seed_from_u64(17);
        let mut r2 = StdRng::seed_from_u64(17);
        let a = ShotNoise::sample(&dev, &cfg, &mut r1);
        let b = ShotNoise::sample(&dev_off, &cfg, &mut r2);
        assert_ne!(
            a.detuning_khz[3].to_bits(),
            b.detuning_khz[3].to_bits(),
            "dense spare-half coupling disappeared; re-check the pinned stream"
        );
    }

    #[test]
    fn shot_noise_v2_moments_and_fairness() {
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].charge_parity_khz = 5.0;
        let cfg = NoiseConfig::default();
        let shots = 20000u64;
        let (mut plus, mut sum, mut sq) = (0usize, 0.0f64, 0.0f64);
        for shot in 0..shots {
            let s = ShotNoise::sample_v2(&dev, &cfg, 11, shot);
            if s.parity_sign[0] > 0.0 {
                plus += 1;
            }
            let z = s.detuning_khz[0] / dev.calibration.qubits[0].quasistatic_khz;
            sum += z;
            sq += z * z;
        }
        assert!((plus as f64 / shots as f64 - 0.5).abs() < 0.02);
        let mean = sum / shots as f64;
        assert!(mean.abs() < 0.03, "lattice mean {mean}");
        let var = sq / shots as f64 - mean * mean;
        assert!((var - 1.0).abs() < 0.05, "lattice variance {var}");
    }

    #[test]
    fn dense_shot_noise_stream_is_pinned() {
        // Every dense-engine trajectory starts with this exact stream;
        // any change to `ShotNoise::sample`'s draw order moves the
        // dense goldens and must be caught here rather than in a
        // golden downstream.
        let mut dev = uniform_device(Topology::line(3), 50.0);
        dev.calibration.qubits[1].charge_parity_khz = 4.0;
        let mut rng = StdRng::seed_from_u64(42);
        let s = ShotNoise::sample(&dev, &NoiseConfig::default(), &mut rng);
        let got: Vec<u64> = s
            .parity_sign
            .iter()
            .chain(s.detuning_khz.iter())
            .map(|v| v.to_bits())
            .collect();
        let expected = [
            0f64.to_bits(),
            1f64.to_bits(),
            0f64.to_bits(),
            13840507040696365468u64,
            4616869055831240298u64,
            4608018101488661094u64,
        ];
        assert_eq!(
            got, expected,
            "dense ShotNoise stream shifted; dense-engine goldens are invalidated"
        );
    }

    #[test]
    fn kraus_completeness() {
        let [k0, k1] = amplitude_damping_kraus(0.4);
        // K0†K0 + K1†K1 = I.
        let s = k0.adjoint().mul(&k0);
        let t = k1.adjoint().mul(&k1);
        let mut total = Mat2::zero();
        for i in 0..2 {
            for j in 0..2 {
                total.0[i][j] = s.0[i][j] + t.0[i][j];
            }
        }
        assert!(total.approx_eq(&Mat2::identity(), 1e-12));
    }

    #[test]
    fn t_phi_relation() {
        // T2 = 2·T1 → no pure dephasing.
        assert!(t_phi_us(100.0, 200.0).is_infinite());
        // T2 = T1 → T_φ = 2·T1.
        assert!((t_phi_us(100.0, 100.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn probability_helpers_bounded() {
        assert!(dephasing_prob(1e9, 100.0) <= 0.5);
        assert!(damping_prob(0.0, 100.0).abs() < 1e-12);
        assert!((damping_prob(1e12, 100.0) - 1.0).abs() < 1e-9);
    }
}

//! The device: topology + calibration + derived crosstalk graph.

use crate::calibration::Calibration;
use crate::crosstalk::CrosstalkGraph;
use crate::topology::Topology;
use ca_circuit::GateDurations;
use serde::{Deserialize, Serialize};

/// Default kHz threshold above which an NNN collision term earns an
/// edge in the crosstalk graph (typical mediated NNN ZZ is O(0.1 kHz),
/// collisions reach O(10 kHz) — Sec. III-C).
pub const DEFAULT_NNN_THRESHOLD_KHZ: f64 = 2.0;

/// A quantum device as the compiler and simulator see it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Human-readable name (e.g. `"nazca_like"`).
    pub name: String,
    /// Coupling topology.
    pub topology: Topology,
    /// Calibration snapshot.
    pub calibration: Calibration,
    /// Crosstalk graph derived from topology + calibration.
    pub crosstalk: CrosstalkGraph,
}

impl Device {
    /// Assembles a device, deriving the crosstalk graph.
    pub fn new(name: impl Into<String>, topology: Topology, calibration: Calibration) -> Self {
        let crosstalk = CrosstalkGraph::build(&topology, &calibration, DEFAULT_NNN_THRESHOLD_KHZ);
        Self {
            name: name.into(),
            topology,
            calibration,
            crosstalk,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits
    }

    /// Gate durations.
    pub fn durations(&self) -> GateDurations {
        self.calibration.durations
    }

    /// Serialises the device to JSON (calibration snapshot format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("device serialises") // ca-lint: allow(panic) -- Device is plain data; JSON serialisation cannot fail
    }

    /// Loads a device from its JSON snapshot.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_derives_crosstalk() {
        let topo = Topology::line(4);
        let cal = Calibration::uniform(4, &topo.edges, 55.0);
        let dev = Device::new("test", topo, cal);
        assert_eq!(dev.num_qubits(), 4);
        assert_eq!(dev.crosstalk.edges.len(), 3);
    }

    #[test]
    fn json_roundtrip() {
        let topo = Topology::ring(6);
        let cal = Calibration::uniform(6, &topo.edges, 45.0);
        let dev = Device::new("ring6", topo, cal);
        let json = dev.to_json();
        let back = Device::from_json(&json).unwrap();
        assert_eq!(dev, back);
    }
}

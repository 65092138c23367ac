//! Network Weather Service (NWS) reimplementation.
//!
//! The paper measures and predicts end-to-end bandwidth with NWS (Wolski et
//! al.), which runs a battery of simple forecasters over each measurement
//! series and dynamically selects whichever has been most accurate so far.
//! This module reimplements that design:
//!
//! * [`series`] — bounded measurement time series,
//! * [`forecast`] — the forecaster battery ([`forecast::MetaForecaster`]
//!   with dynamic predictor selection, plus every individual method),
//! * [`sensor`] — per-path bandwidth sensors combining measurement noise,
//!   history and forecasting,
//! * [`NwsRegistry`] — the nameserver/memory analogue: a directory of
//!   sensors keyed by network path.

#![expect(
    clippy::disallowed_types,
    reason = "keyed lookups only: the per-pair index into the ordered series is never iterated"
)]

pub mod forecast;
pub mod sensor;
pub mod series;

use std::collections::HashMap;

use datagrid_simnet::topology::NodeId;

use self::sensor::BandwidthSensor;

/// A directory of bandwidth sensors keyed by `(source, destination)` —
/// the analogue of an `nws_nameserver` plus `nws_memory` deployment.
///
/// ```
/// use datagrid_simnet::topology::{Bandwidth, Topology};
/// use datagrid_simnet::rng::SimRng;
/// use datagrid_sysmon::nws::NwsRegistry;
/// use datagrid_sysmon::nws::sensor::BandwidthSensor;
///
/// let mut topo = Topology::new();
/// let a = topo.add_node("a");
/// let b = topo.add_node("b");
/// let mut reg = NwsRegistry::new();
/// reg.install(BandwidthSensor::new(a, b, Bandwidth::from_mbps(100.0), 0.02, SimRng::seed_from_u64(1)));
/// assert!(reg.sensor(a, b).is_some());
/// assert!(reg.sensor(b, a).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NwsRegistry {
    sensors: Vec<BandwidthSensor>,
    index: HashMap<(NodeId, NodeId), usize>,
}

impl NwsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        NwsRegistry::default()
    }

    /// Installs a sensor, replacing any existing sensor for the same path.
    pub fn install(&mut self, sensor: BandwidthSensor) {
        let key = (sensor.src(), sensor.dst());
        match self.index.get(&key) {
            Some(&i) => self.sensors[i] = sensor,
            None => {
                self.index.insert(key, self.sensors.len());
                self.sensors.push(sensor);
            }
        }
    }

    /// The sensor monitoring `src -> dst`, if installed.
    pub fn sensor(&self, src: NodeId, dst: NodeId) -> Option<&BandwidthSensor> {
        self.index.get(&(src, dst)).map(|&i| &self.sensors[i])
    }

    /// Mutable access to the sensor monitoring `src -> dst`.
    pub fn sensor_mut(&mut self, src: NodeId, dst: NodeId) -> Option<&mut BandwidthSensor> {
        self.index.get(&(src, dst)).map(|&i| &mut self.sensors[i])
    }

    /// Iterates over all installed sensors.
    pub fn iter(&self) -> impl Iterator<Item = &BandwidthSensor> {
        self.sensors.iter()
    }

    /// Iterates mutably over all installed sensors.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut BandwidthSensor> {
        self.sensors.iter_mut()
    }

    /// Number of installed sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// `true` when no sensors are installed.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagrid_simnet::rng::SimRng;
    use datagrid_simnet::topology::{Bandwidth, Topology};

    fn nodes() -> (NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        (t.add_node("a"), t.add_node("b"), t.add_node("c"))
    }

    fn sensor(src: NodeId, dst: NodeId) -> BandwidthSensor {
        BandwidthSensor::new(
            src,
            dst,
            Bandwidth::from_mbps(100.0),
            0.0,
            SimRng::seed_from_u64(1),
        )
    }

    #[test]
    fn install_and_lookup_directional() {
        let (a, b, c) = nodes();
        let mut reg = NwsRegistry::new();
        reg.install(sensor(a, b));
        reg.install(sensor(b, c));
        assert_eq!(reg.len(), 2);
        assert!(reg.sensor(a, b).is_some());
        assert!(reg.sensor(b, a).is_none());
        assert!(reg.sensor(a, c).is_none());
    }

    #[test]
    fn reinstall_replaces() {
        let (a, b, _) = nodes();
        let mut reg = NwsRegistry::new();
        reg.install(sensor(a, b));
        reg.install(sensor(a, b));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn iter_visits_all() {
        let (a, b, c) = nodes();
        let mut reg = NwsRegistry::new();
        reg.install(sensor(a, b));
        reg.install(sensor(a, c));
        assert_eq!(reg.iter().count(), 2);
        assert!(!reg.is_empty());
    }
}

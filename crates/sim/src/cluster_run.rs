//! Named driver for partitioned-cluster deployments.
//!
//! [`ClusterSim`] is [`MobiEyesSim`] with the partition count pinned above
//! one: the same workload, mobility trace, tick engine (sequential or
//! sharded) and fault plans, but the server tier is the grid-sharded
//! cluster from `mobieyes-cluster`. A cluster run over `N` partitions is
//! byte-identical — per-tick query results and protocol telemetry — to the
//! single-server run of the same configuration; the extra accessors expose
//! per-partition load and the inter-server bus for scaling experiments.

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::mobieyes_run::MobiEyesSim;
use mobieyes_cluster::ClusterServer;
use mobieyes_core::{ObjectId, QueryId};
use mobieyes_net::{ChurnPlan, FaultPlan, MessageMeter};
use mobieyes_telemetry::Telemetry;
use std::collections::BTreeSet;

/// A MobiEyes deployment whose server tier is the grid-sharded cluster.
pub struct ClusterSim {
    inner: MobiEyesSim,
}

impl ClusterSim {
    /// Builds a deployment over `partitions` server partitions
    /// (`partitions >= 1`; 1 exercises the cluster driver surface against
    /// the plain single-server path).
    pub fn new(config: SimConfig, partitions: usize) -> Self {
        Self::with_telemetry(config, partitions, Telemetry::new())
    }

    /// Like [`new`](Self::new) with an injected telemetry sink.
    pub fn with_telemetry(config: SimConfig, partitions: usize, telemetry: Telemetry) -> Self {
        assert!(partitions >= 1, "at least one partition");
        let config = config.with_partitions(partitions);
        ClusterSim {
            inner: MobiEyesSim::with_telemetry(config, telemetry),
        }
    }

    /// The underlying simulation (shared driver surface).
    pub fn sim(&self) -> &MobiEyesSim {
        &self.inner
    }

    pub fn sim_mut(&mut self) -> &mut MobiEyesSim {
        &mut self.inner
    }

    /// The partitioned server tier (`None` when running with a single
    /// partition, which uses the plain server path).
    pub fn cluster(&self) -> Option<&ClusterServer> {
        if self.inner.config.partitions > 1 {
            Some(self.inner.cluster())
        } else {
            None
        }
    }

    pub fn num_partitions(&self) -> usize {
        self.inner.config.partitions
    }

    /// Inter-server bus traffic (empty meter on a single partition).
    pub fn bus_meter(&self) -> MessageMeter {
        match self.cluster() {
            Some(c) => c.bus_meter(),
            None => MessageMeter::default(),
        }
    }

    /// Injects a fault plan on the server↔server links.
    pub fn set_bus_fault(&mut self, plan: FaultPlan) {
        if self.inner.config.partitions > 1 {
            self.inner.cluster_mut().set_bus_fault(plan);
        }
    }

    pub fn set_churn(&mut self, plan: ChurnPlan) {
        self.inner.set_churn(plan);
    }

    pub fn telemetry(&self) -> &Telemetry {
        self.inner.telemetry()
    }

    pub fn query_ids(&self) -> &[QueryId] {
        self.inner.query_ids()
    }

    pub fn query_result(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        self.inner.query_result(qid)
    }

    pub fn step(&mut self, measured: bool) {
        self.inner.step(measured);
    }

    pub fn run(&mut self) -> RunMetrics {
        self.inner.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_sim_runs_and_answers_queries() {
        let mut sim = ClusterSim::new(SimConfig::small_test(41), 2);
        sim.run();
        assert_eq!(sim.num_partitions(), 2);
        let total: usize = sim
            .query_ids()
            .iter()
            .filter_map(|&q| sim.query_result(q))
            .map(|r| r.len())
            .sum();
        assert!(total > 0, "no query produced any result");
        sim.cluster().unwrap().check_invariants();
    }

    #[test]
    fn handoff_traffic_flows_on_the_bus() {
        let mut sim = ClusterSim::new(SimConfig::small_test(42), 4);
        sim.run();
        let meter = sim.bus_meter();
        assert!(
            meter.total_msgs() > 0,
            "a 4-partition run must migrate state across borders"
        );
    }
}

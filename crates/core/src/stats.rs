//! Schema metrics: the measured side of every experiment row.

use crate::input::{InputSet, Weight, X2yInstance};
use crate::schema::{MappingSchema, X2ySchema};

/// Summary statistics of a mapping schema, shared by A2A and X2Y.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaStats {
    /// Number of reducers `z`.
    pub reducers: usize,
    /// Communication cost: total weight of all input copies sent to
    /// reducers.
    pub communication: u128,
    /// Total weight of the instance `W` (both sides for X2Y).
    pub total_weight: u128,
    /// Largest reducer load.
    pub max_load: Weight,
    /// Smallest reducer load (0 if no reducers).
    pub min_load: Weight,
    /// Highest replication count over all inputs.
    pub max_replication: u32,
    /// Capacity the schema was built for.
    pub capacity: Weight,
}

impl SchemaStats {
    /// Computes statistics of an A2A schema.
    pub fn for_a2a(schema: &MappingSchema, inputs: &InputSet, q: Weight) -> SchemaStats {
        let loads = schema.loads(inputs);
        let replication = schema.replication(inputs.len());
        SchemaStats {
            reducers: schema.reducer_count(),
            communication: schema.communication_cost(inputs),
            total_weight: inputs.total_weight(),
            max_load: loads.iter().copied().max().unwrap_or(0),
            min_load: loads.iter().copied().min().unwrap_or(0),
            max_replication: replication.iter().copied().max().unwrap_or(0),
            capacity: q,
        }
    }

    /// Computes statistics of an X2Y schema.
    pub fn for_x2y(schema: &X2ySchema, inst: &X2yInstance, q: Weight) -> SchemaStats {
        let loads = schema.loads(inst);
        let (rx, ry) = schema.replication(inst);
        SchemaStats {
            reducers: schema.reducer_count(),
            communication: schema.communication_cost(inst),
            total_weight: inst.x.total_weight() + inst.y.total_weight(),
            max_load: loads.iter().copied().max().unwrap_or(0),
            min_load: loads.iter().copied().min().unwrap_or(0),
            max_replication: rx.iter().chain(ry.iter()).copied().max().unwrap_or(0),
            capacity: q,
        }
    }

    /// Average copies per unit of input weight: `communication / W`.
    /// 1.0 for empty instances.
    pub fn replication_rate(&self) -> f64 {
        if self.total_weight == 0 {
            1.0
        } else {
            self.communication as f64 / self.total_weight as f64
        }
    }

    /// Fraction of provisioned reducer capacity actually used:
    /// `communication / (z·q)`. 1.0 when no reducers exist.
    pub fn utilization(&self) -> f64 {
        if self.reducers == 0 || self.capacity == 0 {
            1.0
        } else {
            self.communication as f64 / (self.reducers as f64 * self.capacity as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2a_stats_from_known_schema() {
        let inputs = InputSet::from_weights(vec![3, 4, 5]);
        let schema = MappingSchema::from_reducers(vec![vec![0, 1, 2]]);
        let stats = SchemaStats::for_a2a(&schema, &inputs, 12);
        assert_eq!(stats.reducers, 1);
        assert_eq!(stats.communication, 12);
        assert_eq!(stats.total_weight, 12);
        assert_eq!(stats.max_load, 12);
        assert_eq!(stats.min_load, 12);
        assert_eq!(stats.max_replication, 1);
        assert!((stats.replication_rate() - 1.0).abs() < 1e-12);
        assert!((stats.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x2y_stats_count_both_sides() {
        let inst = X2yInstance::from_weights(vec![2, 2], vec![3]);
        let schema = X2ySchema::from_reducers(vec![(vec![0], vec![0]), (vec![1], vec![0])]);
        let stats = SchemaStats::for_x2y(&schema, &inst, 5);
        assert_eq!(stats.reducers, 2);
        assert_eq!(stats.communication, 2 + 3 + 2 + 3);
        assert_eq!(stats.total_weight, 7);
        assert_eq!(stats.max_replication, 2); // y₀ visits both reducers
        assert_eq!(stats.max_load, 5);
        assert!((stats.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schema_stats_are_degenerate() {
        let inputs = InputSet::from_weights(vec![]);
        let stats = SchemaStats::for_a2a(&MappingSchema::new(), &inputs, 10);
        assert_eq!(stats.reducers, 0);
        assert_eq!(stats.replication_rate(), 1.0);
        assert_eq!(stats.utilization(), 1.0);
    }
}

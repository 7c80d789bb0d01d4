use crate::cluster::FaultStage;
use std::fmt;

/// Errors raised while running a simulated MapReduce job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The job was configured with zero reducers.
    NoReducers,
    /// The cluster was configured with zero workers.
    NoWorkers,
    /// A knob on [`crate::ClusterConfig`] was configured to a value that
    /// can never be meant: a zero `memory_budget` or an empty
    /// `checkpoint_dir`. The error names the offending knob so a
    /// misconfiguration is diagnosable without a debugger.
    InvalidKnob {
        /// The field name on `ClusterConfig`.
        knob: &'static str,
    },
    /// A time/rate knob on [`crate::ClusterConfig`] was configured to a
    /// non-finite value (`map_rate`, `reduce_rate`, `network_bandwidth`,
    /// or `task_overhead`). A NaN or infinity would poison every derived
    /// task cost and, before this check existed, reached
    /// [`crate::Schedule::lpt`] as a mid-job panic.
    NonFiniteKnob {
        /// The field name on `ClusterConfig`.
        knob: &'static str,
    },
    /// A router returned a reducer index outside `0..n_reducers`.
    RouteOutOfRange {
        /// The offending target index.
        target: usize,
        /// The number of reducers configured on the job.
        n_reducers: usize,
    },
    /// A fault-injection rate on [`crate::FaultPlan`] was outside `[0, 1]`.
    /// Rates are probabilities; anything else is a configuration typo and
    /// is rejected before the job starts, naming the offending knob.
    FaultRateOutOfRange {
        /// The field name on `FaultPlan`.
        knob: &'static str,
    },
    /// A task kept failing after every retry the budget allowed. Raised
    /// under [`crate::DlqMode::Fail`]; under [`crate::DlqMode::Capture`]
    /// the same exhaustion lands the task in the job's dead-letter queue
    /// instead and the job completes.
    RetriesExhausted {
        /// Which stage the exhausted task belonged to.
        stage: FaultStage,
        /// The task index within its stage (map task index or reducer
        /// partition).
        index: usize,
        /// Total attempts made (the first run plus every retry).
        attempts: u32,
    },
    /// Spilling a partition buffer to disk (or reading it back at
    /// finalize) failed with an I/O or decode error while the job ran under
    /// a [`crate::ClusterConfig::memory_budget`]. Keyed by the lowest
    /// affected reducer partition — the same precedence every other
    /// reduce-stage error follows — so the error is identical no matter
    /// which consumer thread hit the disk first.
    SpillIo {
        /// The reducer partition whose run was being spilled or re-read.
        partition: usize,
        /// The temp file involved.
        path: String,
        /// The underlying I/O or decode failure, as text (kept as a
        /// `String` so the error stays `Clone + PartialEq + Eq`).
        source: String,
    },
    /// The checkpoint directory configured via
    /// [`crate::ClusterConfig::checkpoint_dir`] could not be initialized
    /// (created, or its manifest opened for writing). Raised before any
    /// map work runs; per-partition checkpoint read/write failures are
    /// deliberately *not* errors — they degrade to re-execution with a
    /// warning so a flaky checkpoint disk can never corrupt or fail a job.
    CheckpointIo {
        /// The checkpoint path involved.
        path: String,
        /// The underlying I/O failure, as text (kept as a `String` so the
        /// error stays `Clone + PartialEq + Eq`).
        source: String,
    },
    /// A reducer's summed value size exceeded the configured capacity while
    /// the job ran under [`crate::CapacityPolicy::Enforce`].
    CapacityExceeded {
        /// The overloaded reducer partition.
        reducer: usize,
        /// Its summed value bytes.
        load: u64,
        /// The configured capacity `q`.
        capacity: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoReducers => write!(f, "job configured with zero reducers"),
            SimError::NoWorkers => write!(f, "cluster configured with zero workers"),
            SimError::InvalidKnob { knob } => {
                write!(f, "engine knob `{knob}` must be at least 1")
            }
            SimError::NonFiniteKnob { knob } => {
                write!(
                    f,
                    "engine knob `{knob}` must be finite (got NaN or an infinity)"
                )
            }
            SimError::FaultRateOutOfRange { knob } => {
                write!(
                    f,
                    "fault knob `{knob}` is a probability and must lie in [0, 1]"
                )
            }
            SimError::RetriesExhausted {
                stage,
                index,
                attempts,
            } => write!(
                f,
                "{} task {index} failed all {attempts} attempts, exhausting the retry budget",
                stage.name()
            ),
            SimError::RouteOutOfRange { target, n_reducers } => write!(
                f,
                "router targeted reducer {target} but only {n_reducers} reducers exist"
            ),
            SimError::SpillIo {
                partition,
                path,
                source,
            } => write!(
                f,
                "spill for reducer partition {partition} failed at `{path}`: {source}"
            ),
            SimError::CheckpointIo { path, source } => write!(
                f,
                "checkpoint directory could not be initialized at `{path}`: {source}"
            ),
            SimError::CapacityExceeded {
                reducer,
                load,
                capacity,
            } => write!(
                f,
                "reducer {reducer} received {load} bytes of values, exceeding capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_quantities() {
        let e = SimError::CapacityExceeded {
            reducer: 2,
            load: 100,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("reducer 2") && s.contains("100") && s.contains("64"));
        let e = SimError::InvalidKnob {
            knob: "memory_budget",
        };
        assert!(e.to_string().contains("memory_budget"));
        let e = SimError::NonFiniteKnob { knob: "map_rate" };
        let s = e.to_string();
        assert!(s.contains("map_rate") && s.contains("finite"));
        let e = SimError::FaultRateOutOfRange {
            knob: "fault_plan.map_rate",
        };
        let s = e.to_string();
        assert!(s.contains("fault_plan.map_rate") && s.contains("[0, 1]"));
        let e = SimError::RetriesExhausted {
            stage: FaultStage::Reduce,
            index: 4,
            attempts: 3,
        };
        let s = e.to_string();
        assert!(
            s.contains("reduce task 4") && s.contains('3') && s.contains("retry budget"),
            "{s}"
        );
        let e = SimError::SpillIo {
            partition: 6,
            path: "/tmp/mrassign-spill-1-2.run".to_string(),
            source: "permission denied".to_string(),
        };
        let s = e.to_string();
        assert!(
            s.contains("partition 6")
                && s.contains("/tmp/mrassign-spill-1-2.run")
                && s.contains("permission denied"),
            "{s}"
        );
        let e = SimError::CheckpointIo {
            path: "/ckpt/job-00ff".to_string(),
            source: "read-only file system".to_string(),
        };
        let s = e.to_string();
        assert!(
            s.contains("/ckpt/job-00ff") && s.contains("read-only file system"),
            "{s}"
        );
    }
}

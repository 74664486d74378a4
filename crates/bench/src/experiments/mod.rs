//! The experiments (E1–E8). Each module builds its workloads, replays them
//! into the structures under test, and returns printable [`Table`]s. The
//! mapping from experiment id to paper artifact is in the crate docs; the
//! served engine's end-to-end benchmark is `perfbench/`, declared in
//! `BENCHMARK.json`.

pub mod ablation;
pub mod baseline;
pub mod concurrency;
pub mod cost_function;
pub mod descent_fanout;
pub mod durability;
pub mod policy_space;
pub mod query_cost;
pub mod ratio_sweep;
pub mod replication;
pub mod served;
pub mod sharded;
pub mod worm_utilization;

use crate::measure::Scale;
use crate::report::Table;

/// Every experiment id the harness knows about.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
];

/// Runs one experiment by id, returning its tables.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Vec<Table>> {
    match id {
        "e1" | "e2" | "e3" => {
            // E1–E3 share one set of runs; return only the requested table.
            let tables = policy_space::run(scale);
            let index = match id {
                "e1" => 0,
                "e2" => 1,
                _ => 2,
            };
            Some(vec![tables.into_iter().nth(index)?])
        }
        "e1-3" | "policy-space" => Some(policy_space::run(scale)),
        "e4" => Some(ratio_sweep::run(scale)),
        "e5" => Some(cost_function::run(scale)),
        "e6" => Some(query_cost::run(scale)),
        "e7" => Some(worm_utilization::run(scale)),
        "e8" => Some(baseline::run(scale)),
        "e9" => Some(ablation::run(scale)),
        "e10" | "concurrency" => Some(concurrency::run(scale)),
        "e11" | "descent-fanout" => Some(descent_fanout::run(scale)),
        "e12" | "durability" => Some(durability::run(scale)),
        "e13" | "served" => Some(served::run(scale)),
        "e14" | "sharded" => Some(sharded::run(scale)),
        "e15" | "replication" => Some(replication::run(scale)),
        _ => None,
    }
}

/// Runs every experiment, returning all tables in order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    let mut out = Vec::new();
    out.extend(policy_space::run(scale));
    out.extend(ratio_sweep::run(scale));
    out.extend(cost_function::run(scale));
    out.extend(query_cost::run(scale));
    out.extend(concurrency::run(scale));
    out.extend(descent_fanout::run(scale));
    out.extend(durability::run(scale));
    out.extend(served::run(scale));
    out.extend(sharded::run(scale));
    out.extend(replication::run(scale));
    out.extend(worm_utilization::run(scale));
    out.extend(baseline::run(scale));
    out.extend(ablation::run(scale));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_dispatches() {
        for id in ALL_EXPERIMENTS {
            let tables = run_experiment(id, Scale::Tiny)
                .unwrap_or_else(|| panic!("experiment {id} must be runnable"));
            assert!(!tables.is_empty());
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id} produced an empty table");
            }
        }
        assert!(run_experiment("nope", Scale::Tiny).is_none());
    }
}

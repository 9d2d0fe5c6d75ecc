//! Seeded chaos campaigns: the SDK-level driver for the deterministic
//! fault-injection machinery (`everest-faults` + the runtime
//! scheduler's `run_with_plan`).
//!
//! A campaign synthesizes a reproducible workload from a seed, runs it
//! once clean and once under a random fault plan drawn from the same
//! seed, and reports the recovery accounting. Everything — workload,
//! fault plan, backoff jitter, placement — derives from the seed, so
//! the exported trace is byte-identical across replays (`basecamp
//! chaos --seed N --trace` is diffable; CI relies on this).

use everest_runtime::cluster::Cluster;
use everest_runtime::scheduler::{Policy, RecoveryConfig, Scheduler, SimulationResult};
use everest_runtime::task::{TaskGraph, TaskSpec};
use everest_runtime::{DetRng, FaultPlan};

/// Campaign shape. Everything else derives from `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosOptions {
    /// Master seed for workload, plan and jitter.
    pub seed: u64,
    /// Cluster size; roughly half the nodes carry an FPGA.
    pub nodes: usize,
    /// Workload size (tasks in the synthetic graph).
    pub tasks: usize,
    /// Faults drawn into the plan.
    pub faults: usize,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            seed: 42,
            nodes: 4,
            tasks: 24,
            faults: 6,
        }
    }
}

/// Outcome of one campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The options the campaign ran with.
    pub options: ChaosOptions,
    /// The fault plan that was injected.
    pub plan: FaultPlan,
    /// Fault-free baseline makespan (µs).
    pub clean_makespan_us: f64,
    /// The faulty run.
    pub result: SimulationResult,
}

/// Builds the seed-derived synthetic workload: a layered DAG with a mix
/// of CPU-only and FPGA-capable tasks. Shared with the `heal` campaign
/// driver so both subcommands stress the same workload family.
pub(crate) fn workload(seed: u64, tasks: usize) -> TaskGraph {
    let mut rng = DetRng::new(seed).fork(0x3A05);
    let mut graph = TaskGraph::new();
    for i in 0..tasks {
        let cpu_us = rng.range_f64(500.0, 5_000.0);
        let mut spec = TaskSpec::new(&format!("t{i}"), cpu_us)
            .with_output_bytes(1u64 << (10 + rng.index(10) as u32));
        if rng.next_unit() < 0.4 {
            spec = spec.with_fpga(cpu_us / 8.0);
        }
        if i > 0 {
            let want = rng.index(i.min(3)) + 1;
            let mut deps: Vec<usize> = Vec::new();
            for _ in 0..want {
                let d = rng.index(i);
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
            spec = spec.after(deps);
        }
        graph
            .add(spec)
            .expect("deps point at earlier tasks, the graph is acyclic");
    }
    graph
}

/// Runs one seeded campaign: clean baseline, then the same workload
/// under a random fault plan. Deterministic for a given set of options.
pub fn run_chaos(options: &ChaosOptions) -> ChaosReport {
    let span = everest_telemetry::span("basecamp.chaos");
    span.arg("seed", options.seed)
        .arg("nodes", options.nodes)
        .arg("tasks", options.tasks)
        .arg("faults", options.faults);
    let nodes = options.nodes.max(1);
    let fpga_nodes = nodes.div_ceil(2);
    let cluster = Cluster::everest(nodes - fpga_nodes, fpga_nodes, 4);
    let scheduler = Scheduler::new(cluster, Policy::Heft);
    let graph = workload(options.seed, options.tasks.max(1));

    let clean = scheduler.run(&graph);
    // Faults land inside the fault-free horizon so most of them hit
    // running work rather than the idle tail.
    let plan =
        FaultPlan::random_campaign(options.seed, nodes, clean.makespan_us * 0.8, options.faults);
    let result = scheduler.run_with_plan(&graph, &plan, &RecoveryConfig::default());
    span.arg("faults_injected", result.recovery.faults_injected)
        .record_sim_us(result.makespan_us);
    ChaosReport {
        options: *options,
        plan,
        clean_makespan_us: clean.makespan_us,
        result,
    }
}

impl ChaosReport {
    /// Human-readable summary for the CLI.
    pub fn summary(&self) -> String {
        let r = &self.result.recovery;
        let slowdown = if self.clean_makespan_us > 0.0 {
            (self.result.makespan_us / self.clean_makespan_us - 1.0) * 100.0
        } else {
            0.0
        };
        let mut out = String::new();
        out.push_str(&format!(
            "campaign        : seed {}, {} nodes, {} tasks, {} planned faults\n",
            self.options.seed, self.options.nodes, self.options.tasks, self.options.faults
        ));
        for fault in self.plan.faults() {
            out.push_str(&format!("  plan          : {}\n", fault.describe()));
        }
        out.push_str(&format!(
            "clean makespan  : {:.1} us\n",
            self.clean_makespan_us
        ));
        out.push_str(&format!(
            "faulty makespan : {:.1} us ({slowdown:+.1}%)\n",
            self.result.makespan_us
        ));
        out.push_str(&format!("faults injected : {}\n", r.faults_injected));
        out.push_str(&format!(
            "retries         : {} (total backoff {:.1} us)\n",
            r.retries, r.backoff_us_total
        ));
        out.push_str(&format!("degraded to cpu : {}\n", r.degraded_to_cpu));
        out.push_str(&format!("quarantined     : {:?}\n", r.quarantined_nodes));
        out.push_str(&format!("recovered tasks : {}", r.recovered.len()));
        out
    }

    /// Byte-stable replay trace: only virtual times and seed-derived
    /// state, no wall clock, no hash-map iteration order. Two runs with
    /// the same options produce identical bytes.
    pub fn trace_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.options.seed));
        out.push_str(&format!("  \"nodes\": {},\n", self.options.nodes));
        out.push_str(&format!("  \"tasks\": {},\n", self.options.tasks));
        out.push_str("  \"plan\": [\n");
        let plan_lines: Vec<String> = self
            .plan
            .faults()
            .iter()
            .map(|f| format!("    \"{}\"", f.describe()))
            .collect();
        out.push_str(&plan_lines.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str("  \"schedule\": [\n");
        let entry_lines: Vec<String> = self
            .result
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"task\": {}, \"node\": {}, \"start_us\": {:.3}, \
                     \"finish_us\": {:.3}, \"on_fpga\": {}}}",
                    e.task, e.node, e.start_us, e.finish_us, e.on_fpga
                )
            })
            .collect();
        out.push_str(&entry_lines.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"clean_makespan_us\": {:.3},\n",
            self.clean_makespan_us
        ));
        out.push_str(&format!(
            "  \"makespan_us\": {:.3},\n",
            self.result.makespan_us
        ));
        let r = &self.result.recovery;
        out.push_str(&format!(
            "  \"recovery\": {{\"faults_injected\": {}, \"retries\": {}, \
             \"backoff_us_total\": {:.3}, \"degraded_to_cpu\": {}, \
             \"quarantined_nodes\": {:?}, \"recovered\": {:?}}}\n",
            r.faults_injected,
            r.retries,
            r.backoff_us_total,
            r.degraded_to_cpu,
            r.quarantined_nodes,
            r.recovered
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_byte_identical_traces() {
        let opts = ChaosOptions::default();
        let a = run_chaos(&opts);
        let b = run_chaos(&opts);
        assert_eq!(a.trace_json(), b.trace_json());
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn different_seeds_yield_different_campaigns() {
        let a = run_chaos(&ChaosOptions::default());
        let b = run_chaos(&ChaosOptions {
            seed: 43,
            ..ChaosOptions::default()
        });
        assert_ne!(a.trace_json(), b.trace_json());
    }

    #[test]
    fn every_task_completes_despite_faults() {
        let opts = ChaosOptions {
            seed: 7,
            nodes: 3,
            tasks: 30,
            faults: 8,
        };
        let report = run_chaos(&opts);
        assert_eq!(report.result.entries.len(), 30);
        assert!(report.result.makespan_us >= report.clean_makespan_us);
        assert_eq!(report.plan.len(), 8);
    }

    /// On two nodes a dense plan crashes one node and faults the other
    /// past the quarantine threshold; the survivor must stay eligible.
    #[test]
    fn two_node_dense_campaigns_complete_every_task() {
        for seed in 1..=12 {
            let opts = ChaosOptions {
                seed,
                nodes: 2,
                faults: 20,
                ..ChaosOptions::default()
            };
            let report = run_chaos(&opts);
            let mut done: Vec<usize> = report.result.entries.iter().map(|e| e.task).collect();
            done.sort_unstable();
            done.dedup();
            assert_eq!(done.len(), opts.tasks, "seed {seed}");
            assert_eq!(report.result.entries.len(), opts.tasks, "seed {seed}");
        }
    }

    #[test]
    fn trace_is_valid_json() {
        let report = run_chaos(&ChaosOptions::default());
        let parsed: serde::Value =
            serde_json::from_str(&report.trace_json()).expect("trace must be well-formed JSON");
        assert!(matches!(parsed.get("seed"), Some(serde::Value::Num(n)) if *n == 42.0));
        assert!(parsed.get_or_null("schedule").as_array().is_some());
        assert!(parsed.get_or_null("plan").as_array().is_some());
    }
}

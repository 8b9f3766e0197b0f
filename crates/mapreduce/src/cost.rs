//! Cluster specification and the cost model converting measured work into
//! simulated wall-clock time.
//!
//! The model captures the first-order terms that determine running time in
//! the paper's experiments:
//!
//! * per-job (round) scheduling overhead — why three-round H-WTopk pays a
//!   fixed tax over one-round samplers;
//! * per-map-task overhead times the number of splits `m` — why running
//!   times grow with `m` even for the samplers (§5, "vary n");
//! * scan IO at a per-machine disk rate — why full-scan methods track the
//!   dataset size;
//! * algorithm-charged CPU, scaled by each machine's speed — why
//!   Send-Sketch (expensive per-key updates) is the slowest method;
//! * shuffle time through the (shared) switch into the single reducer —
//!   why Send-V's time is dominated by communication;
//! * Distributed-Cache broadcast replicated to every slave.
//!
//! Map tasks are placed on machines with a greedy longest-processing-time
//! schedule, which is how we model Hadoop's wave-style scheduling on a
//! heterogeneous cluster.

/// One slave machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Relative CPU speed (1.0 = the cluster's reference machine).
    pub cpu_scale: f64,
    /// RAM in GB (informational; the runtime does not enforce it).
    pub ram_gb: f64,
}

/// Cluster and cost-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Slave machines (the master is not modelled; it only schedules).
    pub machines: Vec<MachineSpec>,
    /// Index into `machines` of the node hosting the single reducer
    /// (the paper pins it to a fixed machine via a customised scheduler).
    pub reducer_machine: usize,
    /// Full network bandwidth of a link, in Mbit/s (the paper: 100 Mbps).
    pub full_bandwidth_mbps: f64,
    /// Fraction of bandwidth available to this job (the paper simulates a
    /// busy data centre with 50% as default, varied 10%–100% in Fig. 16).
    pub bandwidth_fraction: f64,
    /// Fixed overhead per MapReduce round (job setup, scheduling, barrier).
    pub round_overhead_s: f64,
    /// Overhead per map task (task scheduling + JVM-style startup).
    pub map_task_overhead_s: f64,
    /// Sequential scan rate of a slave's disk, MB/s.
    pub io_mbps: f64,
    /// CPU throughput of the reference machine in charged ops/s.
    pub cpu_ops_per_s: f64,
}

impl ClusterConfig {
    /// The paper's 16-machine heterogeneous cluster (§5 setup): 9 machines
    /// of type (1), 4 of type (2), 2 of type (3), 1 of type (4); the master
    /// occupies a type-(2) machine and the reducer is pinned to a type-(3)
    /// machine. CPU scales are derived from the listed clock speeds
    /// relative to the 2 GHz type-(2) Xeon E5405.
    pub fn paper_cluster() -> Self {
        let mut machines = Vec::new();
        for _ in 0..9 {
            machines.push(MachineSpec {
                cpu_scale: 1.86 / 2.0,
                ram_gb: 2.0,
            }); // Xeon 5120
        }
        for _ in 0..3 {
            // 4 exist; one hosts the master and runs no TaskTracker.
            machines.push(MachineSpec {
                cpu_scale: 1.0,
                ram_gb: 4.0,
            }); // Xeon E5405
        }
        for _ in 0..2 {
            machines.push(MachineSpec {
                cpu_scale: 2.13 / 2.0,
                ram_gb: 6.0,
            }); // Xeon E5506
        }
        machines.push(MachineSpec {
            cpu_scale: 1.86 / 2.0,
            ram_gb: 2.0,
        }); // Core 2 6300
        let reducer_machine = 12; // first type-(3) machine
        Self {
            machines,
            reducer_machine,
            full_bandwidth_mbps: 100.0,
            bandwidth_fraction: 0.5,
            round_overhead_s: 8.0,
            map_task_overhead_s: 1.0,
            io_mbps: 60.0,
            cpu_ops_per_s: 2.0e8,
        }
    }

    /// A single-machine "cluster" — useful for tests where scheduling
    /// should not matter.
    pub fn single_machine() -> Self {
        Self {
            machines: vec![MachineSpec {
                cpu_scale: 1.0,
                ram_gb: 8.0,
            }],
            reducer_machine: 0,
            full_bandwidth_mbps: 100.0,
            bandwidth_fraction: 1.0,
            round_overhead_s: 0.0,
            map_task_overhead_s: 0.0,
            io_mbps: 100.0,
            cpu_ops_per_s: 1.0e8,
        }
    }

    /// Effective network throughput in bytes/s.
    pub fn network_bytes_per_s(&self) -> f64 {
        self.full_bandwidth_mbps * self.bandwidth_fraction * 1e6 / 8.0
    }

    /// Number of slave machines.
    pub fn num_slaves(&self) -> usize {
        self.machines.len()
    }
}

/// Work performed by one map task, as measured by the runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskWork {
    /// Bytes read from storage.
    pub bytes_scanned: u64,
    /// Algorithm-charged CPU operations.
    pub cpu_ops: f64,
}

/// Work of the reduce side of a job.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReduceWork {
    /// Algorithm-charged CPU operations at the reducer.
    pub cpu_ops: f64,
}

/// Computes the simulated time of one round.
///
/// `shuffle_bytes` flows into the single reducer through its link;
/// `broadcast_bytes` is replicated to every slave.
pub fn round_time(
    cluster: &ClusterConfig,
    tasks: &[TaskWork],
    reduce: ReduceWork,
    shuffle_bytes: u64,
    broadcast_bytes: u64,
) -> f64 {
    let map_makespan = schedule_makespan(cluster, tasks);
    let net = cluster.network_bytes_per_s();
    let shuffle_s = shuffle_bytes as f64 / net;
    let broadcast_s = (broadcast_bytes as f64) * cluster.num_slaves() as f64 / net;
    let reducer_scale = cluster.machines[cluster.reducer_machine].cpu_scale;
    let reduce_s = reduce.cpu_ops / (cluster.cpu_ops_per_s * reducer_scale);
    cluster.round_overhead_s + broadcast_s + map_makespan + shuffle_s + reduce_s
}

/// Validates the cost model's shuffle input against measured traffic.
///
/// Under the multi-process engine, [`crate::RunMetrics::wire`] carries
/// `pair_bytes` summed from the pairs the coordinator actually decoded
/// off worker pipes. The accounted `shuffle_bytes` — the quantity the
/// [`round_time`] shuffle term charges — must equal it exactly: both are
/// the [`crate::wire::WireSize`] total of the intermediate pairs, reached
/// by two independent code paths.
///
/// The equality holds *through recovery* (PR 8): `pair_bytes` is added
/// only when a task's `TASK_END` commits, so a retried task's pairs
/// count exactly once no matter how many attempts shipped them, while
/// the discarded partial traffic still shows in the physical
/// `frame_bytes`/`frames` counters. A recovered run therefore validates
/// here exactly like a fault-free one — the chaos suite
/// (`tests/engine_faults.rs`) pins that.
///
/// Returns `Err` with a description when the run carried no framed
/// traffic (an in-process run cannot validate anything) or when the two
/// counters disagree.
pub fn validate_measured_shuffle(metrics: &crate::RunMetrics) -> Result<(), String> {
    if metrics.wire.frames == 0 {
        return Err("no measured traffic: run the job under EngineMode::MultiProcess".into());
    }
    if metrics.wire.pair_bytes != metrics.shuffle_bytes {
        return Err(format!(
            "measured bytes-on-wire {} != accounted shuffle_bytes {}",
            metrics.wire.pair_bytes, metrics.shuffle_bytes
        ));
    }
    Ok(())
}

/// Greedy LPT schedule of map tasks onto machines; returns the makespan.
fn schedule_makespan(cluster: &ClusterConfig, tasks: &[TaskWork]) -> f64 {
    let mut durations: Vec<f64> = tasks
        .iter()
        .map(|t| {
            cluster.map_task_overhead_s
                + t.bytes_scanned as f64 / (cluster.io_mbps * 1e6)
                // cpu time on the reference machine; divided per machine below
                + 0.0
        })
        .collect();
    // CPU depends on the machine; approximate by dividing by the machine's
    // scale at placement time. Keep (io+overhead, cpu_ops) separate:
    let cpu: Vec<f64> = tasks.iter().map(|t| t.cpu_ops).collect();
    // LPT: sort by total reference-machine duration descending.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    let ref_total = |i: usize| durations[i] + cpu[i] / cluster.cpu_ops_per_s;
    order.sort_by(|&a, &b| {
        ref_total(b)
            .partial_cmp(&ref_total(a))
            .expect("finite durations")
    });
    let mut load = vec![0.0f64; cluster.num_slaves()];
    for i in order {
        // Place on the machine that would finish this task earliest.
        let (best, _) = load
            .iter()
            .enumerate()
            .map(|(mi, &l)| {
                let scale = cluster.machines[mi].cpu_scale;
                (
                    mi,
                    l + durations[i] + cpu[i] / (cluster.cpu_ops_per_s * scale),
                )
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite loads"))
            .expect("at least one machine");
        let scale = cluster.machines[best].cpu_scale;
        load[best] += durations[i] + cpu[i] / (cluster.cpu_ops_per_s * scale);
    }
    durations.clear();
    load.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.num_slaves(), 15);
        assert!((c.network_bytes_per_s() - 6.25e6).abs() < 1.0);
        assert!(c.machines[c.reducer_machine].cpu_scale > 1.0);
    }

    #[test]
    fn makespan_scales_with_tasks() {
        let c = ClusterConfig::paper_cluster();
        let one = vec![TaskWork {
            bytes_scanned: 256 << 20,
            cpu_ops: 0.0,
        }];
        let many = vec![
            TaskWork {
                bytes_scanned: 256 << 20,
                cpu_ops: 0.0
            };
            60
        ];
        let t1 = schedule_makespan(&c, &one);
        let t60 = schedule_makespan(&c, &many);
        // 60 identical tasks on 15 machines ≈ 4 waves.
        assert!(t60 > 3.5 * t1 && t60 < 5.0 * t1, "t1={t1} t60={t60}");
    }

    #[test]
    fn makespan_empty_tasks_is_zero() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(schedule_makespan(&c, &[]), 0.0);
    }

    #[test]
    fn faster_machines_attract_cpu_heavy_tasks() {
        let mut c = ClusterConfig::single_machine();
        c.machines = vec![
            MachineSpec {
                cpu_scale: 1.0,
                ram_gb: 1.0,
            },
            MachineSpec {
                cpu_scale: 4.0,
                ram_gb: 1.0,
            },
        ];
        let tasks = vec![
            TaskWork {
                bytes_scanned: 0,
                cpu_ops: 1e8
            };
            5
        ];
        let makespan = schedule_makespan(&c, &tasks);
        // 5 CPU-heavy tasks: the 4× machine should take 4 of them
        // (4 × 0.25 s = 1.0 s) and the slow one 1 (1.0 s): makespan 1.0 s.
        assert!((makespan - 1.0).abs() < 0.01, "makespan {makespan}");
    }

    #[test]
    fn shuffle_time_dominates_for_big_transfers() {
        let c = ClusterConfig::paper_cluster();
        let t = round_time(&c, &[], ReduceWork::default(), 6_250_000 * 100, 0);
        // 625 MB at 6.25 MB/s ≈ 100 s plus the round overhead.
        assert!((t - 108.0).abs() < 1.0, "t={t}");
    }

    #[test]
    fn broadcast_counts_all_slaves() {
        let c = ClusterConfig::paper_cluster();
        let t0 = round_time(&c, &[], ReduceWork::default(), 0, 0);
        let t = round_time(&c, &[], ReduceWork::default(), 0, 6_250_000);
        // 6.25 MB replicated to 15 slaves at 6.25 MB/s = 15 s extra.
        assert!(((t - t0) - 15.0).abs() < 0.5, "delta={}", t - t0);
    }

    #[test]
    fn bandwidth_fraction_scales_shuffle() {
        let mut c = ClusterConfig::paper_cluster();
        c.round_overhead_s = 0.0;
        let t_half = round_time(&c, &[], ReduceWork::default(), 1 << 30, 0);
        c.bandwidth_fraction = 1.0;
        let t_full = round_time(&c, &[], ReduceWork::default(), 1 << 30, 0);
        assert!((t_half / t_full - 2.0).abs() < 1e-9);
    }

    #[test]
    fn validate_measured_shuffle_checks_traffic() {
        let mut m = crate::RunMetrics {
            shuffle_bytes: 4096,
            ..Default::default()
        };
        // No framed traffic: nothing to validate against.
        let err = validate_measured_shuffle(&m).unwrap_err();
        assert!(err.contains("no measured traffic"), "{err}");

        m.wire.frames = 7;
        m.wire.pair_bytes = 4096;
        assert_eq!(validate_measured_shuffle(&m), Ok(()));

        m.wire.pair_bytes = 4095;
        let err = validate_measured_shuffle(&m).unwrap_err();
        assert!(err.contains("4095") && err.contains("4096"), "{err}");
    }
}

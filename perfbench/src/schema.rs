//! The benchmark's metric catalogue, and the `BENCHMARK.json` it is
//! published as (`perfbench schema` prints it; a test keeps the
//! committed file in step).

use crate::workloads::Workload;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

/// A metric: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_better: true,
    }
}

/// End-to-end metrics every workload reports with their regression
/// bound (share of the parent's median). Host clock: `cpu_s` and
/// `setup_s` (process CPU seconds of a measured and of a set-up-only
/// run; wall time is printed by name), `peak_rss_mb`; virtual clock:
/// `virtual_s`.
pub const END_TO_END: [(Metric, f64); 4] = [
    (lower("cpu_s", "s"), 0.25),
    (lower("setup_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.2),
    (lower("virtual_s", "s"), 0.05),
];

/// Workload-specific virtual-clock metrics, printed by name (not part
/// of the cross-workload JSON result, which every workload must fill).
pub fn virtual_metrics(w: Workload) -> &'static [Metric] {
    const SERVE: [Metric; 4] = [
        lower("ttfc_ms.p50", "ms"),
        lower("ttfc_ms.p99", "ms"),
        lower("cold_ttfc_ms.p50", "ms"),
        lower("warm_ttfc_ms.p50", "ms"),
    ];
    const CKPT: [Metric; 4] = [
        lower("checkpoint_s.p50", "s"),
        lower("checkpoint_s.p90", "s"),
        lower("restart_s.p50", "s"),
        lower("migrate_s.p50", "s"),
    ];
    const FLEET: [Metric; 2] = [lower("fleet_virtual_s", "s"), lower("remote_mb", "MB")];
    match w {
        Workload::ServeZipf => &SERVE,
        Workload::CkptSuite => &CKPT,
        Workload::FleetD2 => &FLEET,
    }
}

/// Per-layer metrics of the traced run; a layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[Metric] = &[
    lower("simkernel.wall_s", "s"),
    lower("simkernel.events", "count"),
    lower("simkernel.ns_per_event", "ns"),
    lower("simkernel.cpu_user_s", "s"),
    lower("simkernel.cpu_sys_s", "s"),
    lower("simkernel.sys_frac", "ratio"),
    lower("simkernel.virtual_s", "s"),
    higher("domain.parallel_eff", "ratio"),
    lower("domain.cross_msgs", "count"),
    lower("domain.cross_bytes", "B"),
    lower("platform.pcie_dma_bytes", "B"),
    lower("scif.msgs", "count"),
    lower("scif.rdma_bytes", "B"),
    lower("blcr.checkpoints", "count"),
    lower("blcr.restarts", "count"),
    lower("blcr.snapshot_bytes", "B"),
    lower("blcr.pages_written", "count"),
    lower("blcr.restart_s", "s"),
    lower("coi.pause_s", "s"),
    lower("coi.pause_n", "count"),
    lower("coi.drain_s", "s"),
    lower("coi.drain_n", "count"),
    lower("coi.save_store_s", "s"),
    lower("coi.save_store_n", "count"),
    lower("coi.capture_s", "s"),
    lower("coi.capture_n", "count"),
    lower("coi.store_copy_s", "s"),
    lower("coi.store_copy_n", "count"),
    lower("coi.reregistration_s", "s"),
    lower("coi.reregistration_n", "count"),
    lower("snapify_io.bytes_written", "B"),
    lower("snapify_io.bytes_read", "B"),
    lower("snapify_io.chunks_written", "count"),
    lower("snapify_io.chunks_read", "count"),
    lower("snapify_io.retries", "count"),
    higher("snapstore.restore_hit_ratio", "ratio"),
    lower("snapstore.bytes_fetched", "B"),
    higher("snapstore.bytes_avoided", "B"),
    higher("snapstore.dedup_ratio", "ratio"),
    lower("snapstore.capture_dirty_bytes", "B"),
    higher("snapstore.capture_clean_frac", "ratio"),
    lower("snapstore.gc_chunks_freed", "count"),
    lower("pool.bytes_fetched_remote", "B"),
    higher("pool.saved_frac", "ratio"),
    lower("core.pause_s", "s"),
    lower("core.pause_n", "count"),
    lower("core.capture_s", "s"),
    lower("core.capture_n", "count"),
    lower("core.transfer_s", "s"),
    lower("core.transfer_n", "count"),
    lower("core.restore_s", "s"),
    lower("core.restore_n", "count"),
    lower("core.swapout_s", "s"),
    lower("core.swapout_n", "count"),
    lower("core.swapin_s", "s"),
    lower("core.swapin_n", "count"),
    lower("core.migrate_s", "s"),
    lower("core.migrate_n", "count"),
    lower("core.checkpoint_s", "s"),
    lower("core.checkpoint_n", "count"),
    lower("core.restart_s", "s"),
    lower("core.restart_n", "count"),
    lower("core.swapin_ms.p50", "ms"),
    lower("core.swapin_ms.p99", "ms"),
    lower("serving.cold_frac", "ratio"),
    lower("serving.swaps", "count"),
    lower("serving.swap_retries", "count"),
    lower("serving.rejected", "count"),
    lower("serving.swap_busy_frac", "ratio"),
    higher("fleet.committed", "count"),
    lower("fleet.rolled_back", "count"),
    lower("fleet.migrate_out_s", "s"),
    lower("fleet.restore_in_s", "s"),
    lower("fleet.cycled", "count"),
    lower("obs.overhead_frac", "ratio"),
    lower("bench.boot_wall_s", "s"),
    lower("bench.launch_wall_s", "s"),
    lower("bench.checkpoint_wall_s", "s"),
    lower("bench.restart_wall_s", "s"),
    lower("bench.migrate_wall_s", "s"),
    lower("bench.compute_wall_s", "s"),
    lower("bench.scenario_wall_s", "s"),
    lower("bench.fleet_wall_s", "s"),
];

/// Why each workload is in the benchmark (one line each).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::ServeZipf => {
            "restore-heavy open-loop Zipf serving over 1000 tenants: simkernel handoffs, \
             swap scheduler and snapstore restore cache"
        }
        Workload::CkptSuite => {
            "write-heavy Fig 10 checkpoint/restart/migrate of 8 apps: coi, blcr, snapify-io \
             and PCIe; bypasses serving, snapstore and domains"
        }
        Workload::FleetD2 => {
            "10-node fleet on 2 parallel time domains: the only workload with cluster links, \
             the shared pool and domain synchronisation"
        }
    }
}

fn metric_json(m: &Metric, bound: Option<f64>) -> String {
    let better = if m.higher_better { "higher" } else { "lower" };
    match bound {
        Some(b) => format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {b}}}",
            m.name, m.unit
        ),
        None => format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
            m.name, m.unit
        ),
    }
}

/// The `BENCHMARK.json` text describing this benchmark.
pub fn benchmark_json() -> String {
    let join = |items: Vec<String>| items.join(",\n    ");
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), why(*w)))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|(m, b)| metric_json(m, Some(*b)))
        .collect();
    let layers = PER_LAYER.iter().map(|m| metric_json(m, None)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--offline\", \"--quiet\", \"--release\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        join(workloads),
        join(e2e),
        join(layers)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use std::collections::BTreeSet;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|(m, _)| m)
            .chain(PER_LAYER)
            .chain(Workload::ALL.iter().flat_map(|w| virtual_metrics(*w)));
        for m in all {
            assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {}",
                m.unit
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && !m.higher_better));
    }

    #[test]
    fn whys_fit_on_one_line() {
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `perfbench schema > BENCHMARK.json`"
        );
    }
}

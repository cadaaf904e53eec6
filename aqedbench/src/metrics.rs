//! The metric catalogue: every name `aqedbench run` prints, with its unit.
//! `BENCHMARK.json` adds each metric's direction and regression bound; a
//! unit test keeps the two in step.

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by untraced runs (`--trace 0`) of every workload. What each
/// means per workload is in the README.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("latency_ms", "ms"),
    m("tail_ms", "ms"),
    m("throughput_per_s", "1/s"),
    m("peak_mem_mb", "MB"),
];

/// Layers timed by spans in the in-process workloads; each prints as
/// `<layer>_ms`, its mean self time per operation.
pub const IN_PROCESS_LAYERS: &[&str] = &[
    "designs.build",
    "core.compose",
    "core.hash",
    "core.sched",
    "tsys.coi",
    "bmc.encode",
    "sat.preprocess",
    "sat.solve",
    "bmc.replay",
    "core.persist.open",
    "core.persist.flush",
];

/// Client-observed spans of a served request; each prints as
/// `serve.<span>_ms.p50` and `serve.<span>_ms.tail`.
pub const SERVE_SPANS: &[&str] = &["accept", "queue", "run", "engine", "tail", "decode"];

/// Printed by traced runs (`--trace 1`) of every workload; a layer the
/// workload never enters reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("designs.build_ms", "ms"),
    m("core.compose_ms", "ms"),
    m("core.composed_latches", "count"),
    m("core.hash_ms", "ms"),
    m("core.sched_ms", "ms"),
    m("core.store.hit_ratio", "ratio"),
    m("core.store.cone_hit_ratio", "ratio"),
    m("core.verdicts_reused", "count"),
    m("core.persist.open_ms", "ms"),
    m("core.persist.flush_ms", "ms"),
    m("core.persist.journal_bytes", "bytes"),
    m("core.persist.recovered_records", "count"),
    m("tsys.coi_ms", "ms"),
    m("tsys.coi_latches_dropped", "count"),
    m("bmc.encode_ms", "ms"),
    m("bmc.clauses", "count"),
    m("bmc.frames", "count"),
    m("bmc.replay_ms", "ms"),
    m("sat.preprocess_ms", "ms"),
    m("sat.eliminated_vars", "count"),
    m("sat.subsumed", "count"),
    m("sat.solve_ms", "ms"),
    m("sat.solver_calls", "count"),
    m("sat.conflicts", "count"),
    m("sat.propagations", "count"),
    m("sat.decisions", "count"),
    m("sat.learnt_imported", "count"),
    m("serve.accept_ms.p50", "ms"),
    m("serve.accept_ms.tail", "ms"),
    m("serve.queue_ms.p50", "ms"),
    m("serve.queue_ms.tail", "ms"),
    m("serve.run_ms.p50", "ms"),
    m("serve.run_ms.tail", "ms"),
    m("serve.engine_ms.p50", "ms"),
    m("serve.engine_ms.tail", "ms"),
    m("serve.tail_ms.p50", "ms"),
    m("serve.tail_ms.tail", "ms"),
    m("serve.decode_ms.p50", "ms"),
    m("serve.decode_ms.tail", "ms"),
    m("serve.daemon_cpu_ms", "ms"),
    m("loadgen.late_p99_ms", "ms"),
    m("bench.cpu_s", "s"),
    m("unattributed_ms", "ms"),
    m("unattributed_frac", "ratio"),
    m("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use aqed_obs::json::{parse, Json};

    fn catalogued(name: &str) -> bool {
        PER_LAYER.iter().any(|m| m.name == name)
    }

    #[test]
    fn in_process_layers_and_serve_spans_are_catalogued() {
        for layer in IN_PROCESS_LAYERS {
            assert!(catalogued(&format!("{layer}_ms")), "{layer}");
        }
        for span in SERVE_SPANS {
            for q in ["p50", "tail"] {
                assert!(catalogued(&format!("serve.{span}_ms.{q}")), "{span}");
            }
        }
    }

    /// `BENCHMARK.json` (at the repository root) lists exactly the
    /// catalogue, with matching units, and gives each metric a direction.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(rows.len(), list.len(), "{key} length");
            for (row, m) in rows.iter().zip(list) {
                let field = |k: &str| row.get(k).and_then(Json::as_str);
                assert_eq!(field("name"), Some(m.name));
                assert_eq!(field("unit"), Some(m.unit), "{}", m.name);
                assert!(
                    matches!(field("better"), Some("lower" | "higher")),
                    "{}",
                    m.name
                );
            }
        }
    }
}

//! Metric names, units and directions, plus the result line.
//!
//! The names are fixed: later changes are measured against them, and
//! `BENCHMARK.json` lists the same end-to-end set (a test checks both).

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric { name, unit, higher_is_better }
}

/// What a user of the solver sees; measured with tracing off.
pub const END_TO_END: [Metric; 6] = [
    m("sim_m_per_hour", "M/h", true),
    m("mpts_per_s", "Mpt/s", true),
    m("wall_s", "s", false),
    m("setup_s", "s", false),
    m("peak_rss_mb", "MB", false),
    m("wave_err", "1", false),
];

/// One layer each; measured by the traced run.
pub const PER_LAYER: [Metric; 44] = [
    m("octree.refine_ms", "ms", false),
    m("octree.leaves", "count", false),
    m("mesh.build_ms", "ms", false),
    m("mesh.scatter_ops", "count", false),
    m("mesh.prolong_ops", "count", false),
    m("backend.o2p_ms", "ms", false),
    m("backend.rhs_ms", "ms", false),
    m("backend.axpy_ms", "ms", false),
    m("backend.sync_ms", "ms", false),
    m("backend.o2p_bytes", "B", false),
    m("backend.patch_buf_mb", "MB", false),
    m("bssn.deriv_gflop", "Gflop", false),
    m("bssn.a_gflop", "Gflop", false),
    m("bssn.gflops_per_s", "Gflop/s", true),
    m("par.threads", "count", true),
    m("par.speedup", "x", true),
    m("expr.compile_ms", "ms", false),
    m("expr.tape_slots", "count", false),
    m("gpu.launches", "count", false),
    m("gpu.flops", "flop", false),
    m("gpu.global_bytes", "B", false),
    m("gpu.spill_bytes", "B", false),
    m("gpu.h2d_bytes", "B", false),
    m("gpu.d2h_bytes", "B", false),
    m("gpu.ai", "flop/B", true),
    m("gpu.roofline_eff", "ratio", true),
    m("comm.msgs_per_step", "count", false),
    m("comm.bytes_per_step", "B", false),
    m("comm.retransmits", "count", false),
    m("comm.halo_wait_ms", "ms", false),
    m("comm.overlap_ratio", "ratio", true),
    m("multi.rank_compute_ms", "ms", false),
    m("multi.imbalance", "ratio", false),
    m("multi.ghost_octants", "count", false),
    m("ckpt.bytes_per_snapshot", "B", false),
    m("ckpt.write_ms", "ms", false),
    m("ckpt.load_ms", "ms", false),
    m("regrid.ms", "ms", false),
    m("regrid.count", "count", false),
    m("regrid.octants_final", "count", false),
    m("waveform.extract_ms", "ms", false),
    m("waveform.samples", "count", true),
    m("obs.trace_overhead", "ratio", false),
    m("obs.step_coverage", "ratio", true),
];

/// Median of the finite values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric carrying its value and unit.
pub fn result_line(
    attempted: u64,
    failed: u64,
    set: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} of {}",
                m.unit,
                m.name
            );
        }
        for w in crate::workload::Workload::ALL {
            assert!(valid_name(w.name()), "bad workload name {}", w.name());
        }
    }

    #[test]
    fn median_of_odd_even_and_nonfinite() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().enumerate().map(|(i, m)| (m.name, 1.5 + i as f64)).collect();
        let line = result_line(7, 0, &END_TO_END, &values);
        let doc = gw_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&gw_obs::json::Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(7.0));
        let metrics = doc.get("metrics").and_then(|v| v.as_obj()).expect("metrics object");
        assert_eq!(metrics.len(), END_TO_END.len());
        let sim = doc.get("metrics").and_then(|m| m.get("sim_m_per_hour")).expect("present");
        assert_eq!(sim.get("value").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(sim.get("unit").and_then(|v| v.as_str()), Some("M/h"));
    }
}

//! Tests of the benchmark's own code: the seeded generator, the metric
//! and workload names, tiny-grid smoke runs of every workload, and the
//! traced run's spans.

use nrbench::metrics::{result_line, END_TO_END, PER_LAYER};
use nrbench::workload::{Inputs, Scale, Workload};
use nrbench::{run, Options};
use std::path::{Path, PathBuf};

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn generator_is_deterministic_per_seed() {
    for w in Workload::ALL {
        for seed in [0, 1, 0xdead_beef] {
            let a = Inputs::generate(w, seed, Scale::Full);
            let b = Inputs::generate(w, seed, Scale::Full);
            assert_eq!(a.leaves(), b.leaves(), "{} seed {seed}: leaves", w.name());
            let (mut ua, mut ub) = ([0.0; 24], [0.0; 24]);
            a.init([1.3, -0.7, 0.4], &mut ua);
            b.init([1.3, -0.7, 0.4], &mut ub);
            assert_eq!(ua, ub, "{} seed {seed}: initial data", w.name());
        }
        let mut u1 = [0.0; 24];
        let mut u2 = [0.0; 24];
        Inputs::generate(w, 1, Scale::Full).init([1.3, -0.7, 0.4], &mut u1);
        Inputs::generate(w, 2, Scale::Full).init([1.3, -0.7, 0.4], &mut u2);
        assert_ne!(u1, u2, "{}: the seed must change the inputs", w.name());
    }
}

#[test]
fn octant_counts_stay_in_band_across_seeds() {
    for w in Workload::ALL {
        for scale in [Scale::Full, Scale::Tiny] {
            let (lo, hi) = Inputs::generate(w, 0, scale).octant_band;
            let counts: Vec<usize> =
                (0..24).map(|seed| Inputs::generate(w, seed, scale).leaves().len()).collect();
            eprintln!("{} {scale:?}: octants {counts:?}", w.name());
            assert!(
                counts.iter().all(|n| (lo..=hi).contains(n)),
                "{} {scale:?}: octant counts {counts:?} leave [{lo}, {hi}]",
                w.name()
            );
        }
    }
}

#[test]
fn every_metric_and_workload_is_emitted_and_listed_in_benchmark_json() {
    for set in [&END_TO_END[..], &PER_LAYER[..]] {
        let line = result_line(1, 0, set, &Default::default());
        let doc = gw_obs::json::parse(&line).expect("result line is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for m in set {
            let entry = metrics.get(m.name).unwrap_or_else(|| panic!("{} missing", m.name));
            assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(m.unit));
        }
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = gw_obs::json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|e| e.get("name").and_then(|n| n.as_str()).expect("name").to_string())
            .collect()
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names("workloads"), workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names("per_layer"), layers);
    for (key, set) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let listed = doc.get(key).and_then(|v| v.as_arr()).expect("list");
        for (entry, m) in listed.iter().zip(set) {
            assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(m.unit), "{}", m.name);
            let better = if m.higher_is_better { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(|b| b.as_str()), Some(better), "{}", m.name);
        }
    }
}

/// Every span of the benchmark's thread nests inside the span it names
/// as its parent.
fn assert_spans_nest(trace_text: &str) {
    let doc = gw_obs::json::parse(trace_text).expect("trace is JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("events");
    let field = |e: &gw_obs::json::Value, k: &str| e.get(k).and_then(|v| v.as_f64()).expect(k);
    for e in events {
        let Some(parent) = e.get("args").and_then(|a| a.get("parent")).and_then(|p| p.as_str())
        else {
            continue;
        };
        let (ts, end, tid) = (field(e, "ts"), field(e, "ts") + field(e, "dur"), field(e, "tid"));
        let covered = events.iter().any(|p| {
            p.get("name").and_then(|n| n.as_str()) == Some(parent)
                && field(p, "tid") == tid
                && field(p, "ts") <= ts + 1.0
                && end <= field(p, "ts") + field(p, "dur") + 1.0
        });
        assert!(covered, "span at {ts} µs is not inside a `{parent}` span");
    }
}

#[test]
fn tiny_runs_pass_their_gates_and_traced_runs_end_on_the_same_bits() {
    for w in Workload::ALL {
        let opts = |trace: bool| Options {
            workload: w,
            seed: 3,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
            out_dir: out_dir(w.name()),
        };
        let plain = run(&opts(false));
        assert!(plain.attempted > 0, "{}: no operations", w.name());
        assert_eq!(plain.failed, 0, "{}: failed operations", w.name());
        for m in &END_TO_END {
            let v = plain.values.get(m.name).copied();
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {} = {v:?}",
                w.name(),
                m.name
            );
        }

        let traced = run(&opts(true));
        assert_eq!(traced.failed, 0, "{}: failed operations (traced)", w.name());
        assert_eq!(traced.digest, plain.digest, "{}: traced state differs", w.name());
        let path = traced.trace_path.expect("traced runs write a trace file");
        let text = std::fs::read_to_string(&path).expect("trace file");
        let stats = gw_obs::json::validate_trace(&text).expect("gw-obs trace schema");
        assert_spans_nest(&text);
        if w != Workload::BinaryQ1TwoRank {
            // Only the single-rank workloads replay steps through the
            // backend; there the layer spans must account for the step.
            assert!(stats.step_coverage >= 0.9, "{}: coverage {}", w.name(), stats.step_coverage);
            let coverage = traced.values["obs.step_coverage"];
            assert!(coverage >= 0.9, "{}: backend self times cover {coverage}", w.name());
        } else {
            assert!(traced.values["comm.msgs_per_step"] > 0.0);
            assert!(traced.values["ckpt.bytes_per_snapshot"] > 0.0);
        }
        let _ = std::fs::remove_dir_all(out_dir(w.name()));
    }
}

//! The repository benchmark: NR throughput of the solver on three seeded
//! workloads, with a traced run that breaks a step down by layer.
//!
//! A run repeats *episodes* of one workload until its time is up. An
//! episode sets the problem up from the seed, warms up, runs a fixed
//! number of timed steps (with the workload's regrids, extractions and
//! snapshots) and checks the correctness gates, so every episode of a
//! seed ends on the same bits. See `README.md` for the metrics.

pub mod drive;
pub mod metrics;
pub mod spans;
pub mod workload;

use drive::Episode;
use metrics::median;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Inputs, Scale, Workload};

/// Set-ups timed on their own before the episodes: at least
/// `MIN_SETUPS`, and more until `SETUP_SECONDS` have gone into them.
const MIN_SETUPS: usize = 8;
const SETUP_SECONDS: f64 = 1.0;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement time: no episode starts that would end past it
    /// (the first always runs).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where snapshots and trace files go.
    pub out_dir: PathBuf,
}

/// What a run measured.
#[derive(Clone, Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub episodes: usize,
    /// State digest of the first episode (all episodes must agree).
    pub digest: u64,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub values: BTreeMap<&'static str, f64>,
    /// The Chrome-trace file of a traced run.
    pub trace_path: Option<PathBuf>,
}

/// Run one workload for `opts.seconds`.
pub fn run(opts: &Options) -> Report {
    let start = Instant::now();
    let inputs = Inputs::generate(opts.workload, opts.seed, opts.scale);
    let snap_root = opts.out_dir.join(format!("snapshots-{}", std::process::id()));
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        setups.push(drive::setup_only(&inputs));
    }
    let mut episodes: Vec<Episode> = Vec::new();
    let rec = loop {
        let t = Instant::now();
        let mut rec = Recorder::new(opts.trace);
        let ep = if inputs.schedule.ranks > 1 {
            drive::run_distributed(&inputs, &mut rec, &snap_root)
        } else {
            drive::run_single(&inputs, &mut rec)
        };
        eprintln!(
            "nrbench: {} seed {} episode {}: setup {:.3} s, loop {:.3} s, steps {:.3?} s, \
             {} ops, {} failed",
            opts.workload.name(),
            opts.seed,
            episodes.len() + 1,
            ep.setup_s,
            ep.loop_s,
            ep.step_times,
            ep.ops.attempted,
            ep.ops.failed
        );
        episodes.push(ep);
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > opts.seconds {
            break rec;
        }
    };
    let _ = std::fs::remove_dir_all(&snap_root);

    let mut attempted: u64 = episodes.iter().map(|e| e.ops.attempted).sum();
    let mut failed: u64 = episodes.iter().map(|e| e.ops.failed).sum();
    let digest = episodes[0].digest;
    if episodes.iter().any(|e| e.digest != digest) {
        eprintln!("nrbench: gate failed: episodes of one seed end on different states");
        attempted += 1;
        failed += 1;
    }
    setups.extend(episodes.iter().map(|e| e.setup_s));

    let mut values = BTreeMap::new();
    let mut trace_path = None;
    if opts.trace {
        let keys: Vec<&'static str> =
            episodes.iter().flat_map(|e| e.layers.keys().copied()).collect();
        for k in keys {
            let per_ep: Vec<f64> =
                episodes.iter().filter_map(|e| e.layers.get(k).copied()).collect();
            values.insert(k, median(&per_ep));
        }
        let last = episodes.last().expect("at least one episode");
        let path = opts.out_dir.join(format!("trace_{}_{}.json", opts.workload.name(), opts.seed));
        let steps = (inputs.schedule.warmup_steps + inputs.schedule.timed_steps) as u64;
        match rec.write(&path, vec![("steps", steps)], &last.probe_events, last.probe_offset_us) {
            Ok(()) => trace_path = Some(path),
            Err(e) => eprintln!("nrbench: cannot write {}: {e}", path.display()),
        }
    } else {
        let sim: f64 = episodes.iter().map(|e| e.sim_time).sum();
        let loop_s: f64 = episodes.iter().map(|e| e.loop_s).sum();
        let rates: Vec<f64> = episodes.iter().map(Episode::mpts_per_s).collect();
        let walls: Vec<f64> = episodes.iter().map(Episode::wall_s).collect();
        let errs: Vec<f64> = episodes.iter().map(|e| e.wave_err).collect();
        values.insert("sim_m_per_hour", sim / loop_s * 3600.0);
        values.insert("mpts_per_s", median(&rates));
        values.insert("wall_s", median(&walls));
        values.insert("setup_s", median(&setups));
        values.insert("peak_rss_mb", metrics::peak_rss_mb());
        values.insert("wave_err", median(&errs));
    }
    Report { attempted, failed, episodes: episodes.len(), digest, values, trace_path }
}

//! `nrbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1` (which also writes a Chrome-trace file under `out/`).

use nrbench::metrics::{result_line, END_TO_END, PER_LAYER};
use nrbench::workload::{Scale, Workload};
use nrbench::Options;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: nrbench --workload <inspiral_q8|binary_q1_2rank|wave_regrid_gpusim> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be >= 0, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::Full,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nrbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = nrbench::run(&opts);
    println!(
        "nrbench workload {} seed {} trace {} episodes {} state_digest {:016x}{}",
        opts.workload.name(),
        opts.seed,
        opts.trace as u8,
        report.episodes,
        report.digest,
        report.trace_path.map(|p| format!(" trace_file {}", p.display())).unwrap_or_default()
    );
    let set: &[_] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(report.attempted, report.failed, set, &report.values));
    ExitCode::SUCCESS
}

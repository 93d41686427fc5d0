//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a diagnostics line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. A traced run
//! also writes its spans to `.perfbench/spans-<workload>-<seed>.tsv`.
//! Exits 0 when every output check passed, 1 when one failed, and 2 on
//! bad arguments.

use std::path::Path;
use std::process::ExitCode;

use wcs_perfbench::{run, Config, Workload};

const USAGE: &str = "usage: perfbench --workload <platform-grid|design-sweep|traffic-what-if> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        size: workload.size(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    if let Some(spans) = &outcome.spans {
        let dir = Path::new(".perfbench");
        let path = dir.join(format!("spans-{}-{}.tsv", cfg.workload.name(), cfg.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", outcome.detail);
    println!("{}", outcome.result());
    ExitCode::from(outcome.exit_code())
}

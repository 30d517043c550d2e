//! `perfprobe` — the in-process half of the verb-level benchmark.
//!
//! ```text
//! perfprobe gen       <workload> <seed> <dir>   # write the workload's inputs
//! perfprobe reference <workload> <dir>          # oracle answers -> <dir>/reference.json
//! perfprobe trace     <workload> <dir> <out>    # traced run -> <out> (JSON)
//! ```
//!
//! The `phocus` binary under test only ever sees the files `gen` writes.
//! `reference` solves the same inputs with the repository's reference
//! solver so `run.py` can check every verb output; `trace` replays the
//! verb's call sequence through the crates' public functions with one span
//! per layer call. See `perfbench/README.md`.

mod gen;
mod json;
mod reference;
mod trace;
mod verb;

use std::path::Path;
use std::process::ExitCode;
use verb::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfprobe: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| "usage: perfprobe gen|reference|trace <workload> ...".to_string())
    };
    let workload = Workload::parse(arg(1)?)?;
    match arg(0)? {
        "gen" => {
            let seed = arg(2)?;
            let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
            gen::generate(workload, seed, Path::new(arg(3)?))
        }
        "reference" => {
            let dir = Path::new(arg(2)?);
            let text = reference::reference(workload, dir)?;
            verb::write(&dir.join("reference.json"), text.as_bytes())
        }
        "trace" => {
            let text = trace::traced_run(workload, Path::new(arg(2)?))?;
            verb::write(Path::new(arg(3)?), text.as_bytes())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

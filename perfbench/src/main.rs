//! Benchmark entry point:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use std::process::ExitCode;
use std::time::Instant;

use domino_perfbench::report::Report;
use domino_perfbench::trace::Tracer;
use domino_perfbench::workloads::batch::{self, Batch};
use domino_perfbench::workloads::gateway;

const USAGE: &str = "usage: perfbench --workload <tables_cold|sift_compare|gateway_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["tables_cold", "sift_compare", "gateway_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let traced = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(Instant::now());
    let mut report = Report::new();
    match args.workload.as_str() {
        "tables_cold" => batch::run(
            Batch::Tables,
            args.seed,
            args.seconds,
            args.traced,
            &mut report,
            &mut tracer,
        ),
        "sift_compare" => batch::run(
            Batch::Sift,
            args.seed,
            args.seconds,
            args.traced,
            &mut report,
            &mut tracer,
        ),
        _ => gateway::run(
            args.seed,
            args.seconds,
            args.traced,
            &mut report,
            &mut tracer,
        ),
    }
    if args.traced {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    }
    report.print(&args.workload, args.traced);
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `perfbench` — end-to-end and per-layer benchmark of the CSST
//! analyses, driving the shipped `csst_analyze` and `csst-serve`
//! binaries from outside.
//!
//! ```text
//! perfbench --workload hb_online|predict_full|predict_windowed
//!           --seed N --seconds S --trace 0|1
//!           --bin-dir DIR [--work-dir DIR] [--size full|tiny] [--host JSON]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of a closed loop
//! of jobs (one client, one job or session at a time); with `--trace 1`
//! it makes the in-process traced run and reports per-layer metrics.
//! Every output is checked; the last stdout line is the JSON result,
//! and the exit code is non-zero when any check failed.

mod batch;
mod inproc;
mod jobs;
mod online;
mod report;
mod trace_rec;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    scale: f64,
    host: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        work_dir: PathBuf::from(".perfbench_out"),
        scale: 1.0,
        host: "{}".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => args.trace = value == "1",
            "--bin-dir" => args.bin_dir = value.into(),
            "--work-dir" => args.work_dir = value.into(),
            "--size" => {
                args.scale = match value.as_str() {
                    "full" => 1.0,
                    "tiny" => 0.05,
                    _ => return Err(bad("full or tiny")),
                }
            }
            "--host" => args.host = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("--spawner") {
        return match raw.next() {
            Some(bin) => batch::spawner_main(bin.as_ref()),
            None => ExitCode::from(2),
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let analyze = args.bin_dir.join("csst_analyze");
    let serve = args.bin_dir.join("csst-serve");
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let mut out = Outcome::default();
    out.lines.push(format!("host: {}", args.host));
    out.lines.push(format!(
        "workload: {} seed {} seconds {} trace {} (closed loop, 1 client)",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    match args.workload.as_str() {
        "hb_online" => {
            let sessions = jobs::sessions(args.seed, args.scale);
            if args.trace {
                let refs = online::references(&sessions);
                inproc::hb(&serve, &sessions, &refs, args.seconds, &mut out);
            } else {
                online::run(&serve, &sessions, args.seconds, &mut out);
            }
        }
        w @ ("predict_full" | "predict_windowed") => {
            let jobs = jobs::batch_jobs(w, args.seed, args.scale);
            if args.trace {
                inproc::predict(&jobs, args.seconds, &mut out);
            } else {
                let run_dir =
                    args.work_dir
                        .join(format!("{w}-seed{}-{}", args.seed, std::process::id()));
                if let Err(e) = std::fs::create_dir_all(&run_dir) {
                    eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
                    return ExitCode::from(2);
                }
                let warmups = jobs::warmup_jobs(w, args.seed);
                batch::run(&analyze, &run_dir, jobs, warmups, args.seconds, &mut out);
                let _ = std::fs::remove_dir_all(&run_dir);
            }
        }
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (hb_online|predict_full|predict_windowed)"
            );
            return ExitCode::from(2);
        }
    }
    if args.trace {
        let path = args
            .work_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace_rec::write_jsonl(&path, &args.host) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    out.print();
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

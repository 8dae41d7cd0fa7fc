//! Regenerates every table and figure of the CSSTs paper.
//!
//! ```text
//! repro [--scale F] [--out DIR] [--smoke] [--json PATH] [--repeat N] <experiment>...
//!
//! experiments: table1 table2 table3 table4 table5 table6 table7
//!              figure10 figure11 blocksize all bench
//! ```
//!
//! `--scale` multiplies workload sizes (default 1.0); `--out` writes a
//! CSV per experiment in addition to the console rendering.
//!
//! `bench` is the hot-path perf harness (not part of `all`): it runs
//! the criterion suites' workloads headlessly and writes the
//! machine-readable measurements to `--json PATH` (default
//! `BENCH_PR7.json`); `--smoke` shrinks the workloads for CI.
//! `scripts/bench.sh --compare OLD.json NEW.json` diffs two such
//! files and fails on ops/sec regressions.

use csst_bench::{blocksize, figure10, perf, scalability, tables, Table};
use std::path::PathBuf;

struct Args {
    scale: f64,
    out: Option<PathBuf>,
    smoke: bool,
    json: PathBuf,
    repeat: usize,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = 1.0f64;
    let mut out = None;
    let mut smoke = false;
    let mut json = PathBuf::from("BENCH_PR7.json");
    let mut repeat = 1usize;
    let mut experiments = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?));
            }
            "--smoke" => smoke = true,
            "--json" => {
                json = PathBuf::from(it.next().ok_or("--json needs a value")?);
            }
            "--repeat" => {
                repeat = it
                    .next()
                    .ok_or("--repeat needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale F] [--out DIR] [--smoke] [--json PATH] [--repeat N] <experiment>...\n\
                     experiments: table1..table7 figure10 figure11 blocksize all bench\n\
                     bench: headless perf harness, writes measurements to --json PATH\n\
                            (default BENCH_PR7.json); --smoke shrinks it for CI;\n\
                            --repeat N keeps the best of N runs per cell"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }
    Ok(Args {
        scale,
        out,
        smoke,
        json,
        repeat,
        experiments,
    })
}

fn write_out(out: &Option<PathBuf>, name: &str, csv: &str) {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, csv).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // `bench` is opt-in only: `all` reproduces the paper's artifacts,
    // the perf harness tracks our own hot paths.
    let wants = |name: &str| {
        args.experiments.iter().any(|e| e == name)
            || (name != "bench" && args.experiments.iter().any(|e| e == "all"))
    };
    let scale = args.scale;
    eprintln!("# repro at scale {scale}");

    // Tables are cached for figure10.
    type TableRunner = fn(f64) -> Table;
    let mut produced: Vec<(String, Table)> = Vec::new();
    let runners: Vec<(&str, TableRunner)> = vec![
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("table4", tables::table4),
        ("table5", tables::table5),
        ("table6", tables::table6),
        ("table7", tables::table7),
    ];
    let need_fig10 = wants("figure10");
    for (name, runner) in runners {
        if wants(name) || need_fig10 {
            eprintln!("# running {name}…");
            let table = runner(scale);
            if wants(name) {
                println!("{}", table.render());
            }
            write_out(&args.out, name, &table.to_csv());
            produced.push((name.to_string(), table));
        }
    }

    if need_fig10 {
        let get = |id: &str| -> &Table {
            &produced
                .iter()
                .find(|(n, _)| n == id)
                .expect("table produced")
                .1
        };
        let both: &[&str] = &["VCs", "STs"];
        let graphs: &[&str] = &["Graphs"];
        let groups = figure10::figure10(&[
            ("Data Races", get("table1"), both),
            ("Deadlocks", get("table2"), both),
            ("Memory bugs", get("table3"), both),
            ("X86-TSO consistency", get("table4"), both),
            ("Use-after-free", get("table5"), both),
            ("C11 data races", get("table6"), both),
            ("Linearizability", get("table7"), graphs),
        ]);
        println!("{}", figure10::render(&groups));
        write_out(&args.out, "figure10", &figure10::to_csv(&groups));
    }

    if wants("figure11") {
        eprintln!("# running figure11…");
        let mut cfg = scalability::ScalCfg::default();
        if scale < 1.0 {
            cfg.ells = cfg
                .ells
                .iter()
                .map(|&e| ((e as f64 * scale) as usize).max(100))
                .collect();
            cfg.queries = ((cfg.queries as f64 * scale) as usize).max(100);
        }
        let points = scalability::figure11(&cfg);
        println!("{}", scalability::render(&points));
        write_out(&args.out, "figure11", &scalability::to_csv(&points));
    }

    if wants("blocksize") {
        eprintln!("# running blocksize…");
        let mut cfg = blocksize::BlockCfg::default();
        if scale < 1.0 {
            cfg.ops = ((cfg.ops as f64 * scale) as usize).max(1000);
        }
        let points = blocksize::stress(&cfg);
        println!("{}", blocksize::render(&points));
        write_out(&args.out, "blocksize", &blocksize::to_csv(&points));
    }

    if wants("bench") {
        let mut cfg = if args.smoke {
            perf::BenchCfg::smoke()
        } else {
            perf::BenchCfg::full()
        };
        if scale != 1.0 {
            cfg.inserts = ((cfg.inserts as f64 * scale) as usize).max(100);
            cfg.churn_ops = ((cfg.churn_ops as f64 * scale) as usize).max(100);
            cfg.churn_window = ((cfg.churn_window as f64 * scale) as usize).max(16);
            cfg.queries = ((cfg.queries as f64 * scale) as usize).max(100);
            cfg.sweep_inserts = ((cfg.sweep_inserts as f64 * scale) as usize).max(100);
            cfg.sweep_queries = ((cfg.sweep_queries as f64 * scale) as usize).max(100);
            cfg.ratio_queries = ((cfg.ratio_queries as f64 * scale) as usize).max(100);
            cfg.ingest_events = ((cfg.ingest_events as f64 * scale) as usize).max(100);
        }
        let measurements = perf::run_repeated(&cfg, args.repeat);
        println!("{}", perf::render(&measurements));
        let json = perf::to_json(&cfg, args.repeat, &measurements);
        std::fs::write(&args.json, json).expect("write bench json");
        eprintln!("wrote {}", args.json.display());
    }
}

//! `csst-client` — driver for the `csst-serve` service.
//!
//! ```text
//! csst-client --connect ADDR [--analysis NAME] [--index csst|st|vc|graph]
//!             [--window N] [--format binary|text|rapid]
//!             (--input FILE | --demo ANALYSIS) [--query Q]...
//!             [--check-batch] [--shutdown] [--retry N]
//!             [--stall-ms N] [--disconnect-after N]
//! ```
//!
//! Streams a trace (from a file in the chosen format, or a registry
//! demo workload) into a server session, runs any `--query` strings
//! online, prints the final report, and exits with the report's exit
//! code. `--check-batch` reruns the analysis locally through the batch
//! registry and fails (exit 1) unless the two reports match exactly —
//! the service-equals-batch check the CI smoke test is built on. The
//! rapid format interns thread and lock ids by order of appearance, so
//! a `--demo` trace sent as rapid is relabeled first, exactly as the
//! server will decode it. `--shutdown` stops the server afterwards.
//!
//! The robustness hooks: `--retry N` retries the connection with
//! exponential backoff (for servers still starting up), `--stall-ms N`
//! sleeps mid-session (to trip the server's idle timeout), and
//! `--disconnect-after N` streams only the first N events and drops the
//! connection without FINISH (an unclean disconnect the server must
//! absorb). The chaos suite (`scripts/fault_smoke.sh`) is built on
//! these.

use csst_analyses::registry;
use csst_serve::proto::WireFormat;
use csst_serve::{Client, Hello};
use csst_trace::{binary, rapid, text, Trace};
use std::process::ExitCode;

struct Args {
    connect: String,
    hello: Hello,
    input: Option<String>,
    demo: Option<String>,
    queries: Vec<String>,
    check_batch: bool,
    shutdown: bool,
    retry: u32,
    stall_ms: u64,
    disconnect_after: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        connect: String::new(),
        hello: Hello::default(),
        input: None,
        demo: None,
        queries: Vec::new(),
        check_batch: false,
        shutdown: false,
        retry: 1,
        stall_ms: 0,
        disconnect_after: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => args.connect = value(&mut it, "--connect")?,
            "--analysis" => args.hello.analysis = value(&mut it, "--analysis")?,
            "--index" => args.hello.index = value(&mut it, "--index")?,
            "--window" => {
                args.hello.window = Some(
                    value(&mut it, "--window")?
                        .parse()
                        .map_err(|_| "--window wants a number".to_string())?,
                );
            }
            "--format" => {
                let v = value(&mut it, "--format")?;
                args.hello.format = WireFormat::parse(&v)
                    .ok_or_else(|| format!("unknown format `{v}` (binary|text|rapid)"))?;
            }
            "--input" => args.input = Some(value(&mut it, "--input")?),
            "--demo" => args.demo = Some(value(&mut it, "--demo")?),
            "--query" => args.queries.push(value(&mut it, "--query")?),
            "--check-batch" => args.check_batch = true,
            "--shutdown" => args.shutdown = true,
            "--retry" => {
                args.retry = value(&mut it, "--retry")?
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--retry wants a positive number".to_string())?;
            }
            "--stall-ms" => {
                args.stall_ms = value(&mut it, "--stall-ms")?
                    .parse()
                    .map_err(|_| "--stall-ms wants a number".to_string())?;
            }
            "--disconnect-after" => {
                args.disconnect_after = Some(
                    value(&mut it, "--disconnect-after")?
                        .parse()
                        .map_err(|_| "--disconnect-after wants a number".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: csst-client --connect ADDR [--analysis NAME] [--index KIND] \
                     [--window N] [--format binary|text|rapid] \
                     (--input FILE | --demo ANALYSIS) [--query Q]... [--check-batch] [--shutdown] \
                     [--retry N] [--stall-ms N] [--disconnect-after N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    if args.connect.is_empty() {
        return Err("--connect is required".into());
    }
    Ok(args)
}

fn load_trace(args: &Args) -> Result<Trace, String> {
    if let Some(path) = &args.input {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        return match args.hello.format {
            WireFormat::Binary => binary::parse(&bytes).map_err(|e| format!("{path}: {e}")),
            WireFormat::Text => {
                let s = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
                text::parse(&s).map_err(|e| format!("{path}: {e}"))
            }
            WireFormat::Rapid => {
                let s = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
                rapid::parse(&s).map_err(|e| format!("{path}: {e}"))
            }
        };
    }
    let name = args.demo.as_deref().unwrap_or(&args.hello.analysis);
    let demo = registry::resolve(name)?.demo_trace();
    Ok(match args.hello.format {
        WireFormat::Rapid => rapid::parse(&rapid::write(&demo)).map_err(|e| e.to_string())?,
        _ => demo,
    })
}

fn run(args: &Args) -> Result<u8, String> {
    let trace = load_trace(args)?;
    let mut client = Client::open_with_retry(&args.connect, &args.hello, args.retry)
        .map_err(|e| format!("open session: {e}"))?;
    if args.stall_ms > 0 {
        // Chaos-suite hook: sit idle mid-session so the server's idle
        // timeout fires.
        std::thread::sleep(std::time::Duration::from_millis(args.stall_ms));
    }
    if let Some(n) = args.disconnect_after {
        // Chaos-suite hook: stream a prefix, then vanish without
        // FINISH — an unclean disconnect the server must absorb.
        let mut prefix = Trace::new(0);
        for (id, ev) in trace.iter_order().take(n) {
            prefix.push(id.thread, ev.kind);
        }
        client
            .send_trace(&prefix)
            .map_err(|e| format!("send trace: {e}"))?;
        println!("disconnecting uncleanly after {n} event(s)");
        drop(client);
        return Ok(0);
    }
    client
        .send_trace(&trace)
        .map_err(|e| format!("send trace: {e}"))?;
    for q in &args.queries {
        let answer = client.query(q).map_err(|e| format!("query `{q}`: {e}"))?;
        println!("query `{q}` -> {answer}");
    }
    let report = client.finish().map_err(|e| format!("finish: {e}"))?;
    println!("{}", report.summary);
    for line in &report.lines {
        println!("{line}");
    }
    let mut exit = report.exit_code;
    if args.check_batch {
        let entry = registry::resolve(&args.hello.analysis)?;
        let kind = registry::IndexKind::parse(&args.hello.index)
            .ok_or_else(|| format!("unknown index `{}`", args.hello.index))?;
        let local = entry.run(&trace, kind, args.hello.window)?;
        if local.summary == report.summary
            && local.lines == report.lines
            && local.exit_code == report.exit_code
        {
            println!("check-batch: service report matches the batch analyzer");
        } else {
            eprintln!(
                "check-batch: MISMATCH\n  batch:   {} ({} line(s), exit {})\n  service: {} ({} line(s), exit {})",
                local.summary,
                local.lines.len(),
                local.exit_code,
                report.summary,
                report.lines.len(),
                report.exit_code
            );
            exit = 1;
        }
    }
    if args.shutdown {
        Client::shutdown_server(&args.connect).map_err(|e| format!("shutdown: {e}"))?;
        println!("server shutdown requested");
    }
    Ok(exit)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

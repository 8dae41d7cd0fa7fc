//! `predict_full` and `predict_windowed`: one `csst-analyze` child per
//! job in a closed loop, every stdout and exit code checked against a
//! reference computed in process on another representation.

use crate::jobs::Job;
use crate::report::{children_peak_rss_mb, Outcome, Samples};
use csst_analyses::registry::{self, IndexKind};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// Back-to-back warm-up rounds over the small per-analysis jobs before
/// the timed loop; one more round follows every `WARMUP_EVERY` jobs of
/// the loop.
const WARMUP_ROUNDS: usize = 5;
const WARMUP_EVERY: usize = 16;

/// The reference output of `job`: the registry run on `graph` where
/// `vc` cannot run it (windowed runs delete edges; linearizability
/// always does) and on `vc` otherwise, where `graph` costs up to 60
/// times more than `csst` on these inputs. Returns (stdout, exit code)
/// as the CLI would print them.
fn reference(job: &Job) -> (String, i32) {
    let index = match (job.analysis, job.window) {
        ("linearizability", _) | (_, Some(_)) => IndexKind::Graph,
        _ => IndexKind::VectorClock,
    };
    let entry = registry::find(job.analysis).expect("registered analysis");
    let out = entry
        .run(&job.trace, index, job.window)
        .expect("reference representation fits the analysis");
    let mut stdout = String::new();
    for line in &out.lines {
        stdout.push_str(line);
        stdout.push('\n');
    }
    stdout.push_str(&out.summary);
    stdout.push('\n');
    (stdout, out.exit_code as i32)
}

/// A job reduced to what the loop needs once its input is on disk and
/// its reference is known.
struct Planned {
    analysis: &'static str,
    format: &'static str,
    window: Option<usize>,
    events: usize,
    input: PathBuf,
    stdout: String,
    code: i32,
}

/// Writes every input under `dir` and computes the references, on two
/// threads; the traces are dropped afterwards.
fn plan(dir: &Path, tag: &str, jobs: Vec<Job>) -> Vec<Planned> {
    let one = |(i, job): (usize, Job)| {
        let input = dir.join(format!("{tag}{i}-{}.{}", job.analysis, job.format.name()));
        std::fs::write(&input, &job.input).expect("write job input");
        let (stdout, code) = reference(&job);
        Planned {
            analysis: job.analysis,
            format: job.format.name(),
            window: job.window,
            events: job.events(),
            input,
            stdout,
            code,
        }
    };
    let mut jobs: Vec<(usize, Job)> = jobs.into_iter().enumerate().collect();
    let right = jobs.split_off(jobs.len().div_ceil(2));
    std::thread::scope(|s| {
        let left = s.spawn(|| jobs.into_iter().map(one).collect::<Vec<_>>());
        let right: Vec<Planned> = right.into_iter().map(one).collect();
        let mut all = left.join().expect("planning thread");
        all.extend(right);
        all
    })
}

/// One finished child: wall time from spawn to exit, and from the
/// CLI's `parsed N events` stderr line (input decoded) to exit.
struct ChildRun {
    job_ns: u64,
    after_decode_ns: u64,
    stdout: String,
    code: i32,
}

fn run_child(
    bin: &Path,
    analysis: &str,
    input: &str,
    format: &str,
    window: Option<usize>,
) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let mut cmd = Command::new(bin);
    cmd.args([analysis, input, "--index", "csst", "--format", format]);
    if let Some(w) = window {
        cmd.args(["--window", &w.to_string()]);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut first = String::new();
    stderr.read_line(&mut first)?;
    let decoded = Instant::now();
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)?;
    let mut rest = String::new();
    stderr.read_to_string(&mut rest)?;
    let status = child.wait()?;
    let end = Instant::now();
    Ok(ChildRun {
        job_ns: (end - start).as_nanos() as u64,
        after_decode_ns: (end - decoded).as_nanos() as u64,
        stdout,
        code: status.code().unwrap_or(-1),
    })
}

/// Body of `perfbench --spawner BIN`: runs one `BIN` child per request
/// line (`analysis TAB input TAB format TAB window`) and answers with a
/// header line (`ok code job_ns after_decode_ns maxrss_kib len` or
/// `err message`) followed by `len` bytes of the child's stdout.
///
/// A child's peak RSS counts the pages it shares with its parent before
/// `exec`, so the children are spawned from this small process rather
/// than from the benchmark, which holds every input in memory.
pub fn spawner_main(bin: &Path) -> ExitCode {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let f: Vec<&str> = line.split('\t').collect();
        let [analysis, input, format, window] = f[..] else {
            eprintln!("perfbench spawner: malformed request {line:?}");
            return ExitCode::from(2);
        };
        let window = window.parse().ok().filter(|&w| w > 0);
        let written = match run_child(bin, analysis, input, format, window) {
            Ok(r) => {
                let rss_kib = (children_peak_rss_mb() * 1024.0) as u64;
                writeln!(
                    out,
                    "ok {} {} {} {rss_kib} {}",
                    r.code,
                    r.job_ns,
                    r.after_decode_ns,
                    r.stdout.len()
                )
                .and_then(|()| out.write_all(r.stdout.as_bytes()))
            }
            Err(e) => writeln!(out, "err {e}"),
        };
        if written.and_then(|()| out.flush()).is_err() {
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// The benchmark's handle on its `--spawner` helper process.
struct Spawner {
    child: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
    peak_rss_kib: u64,
}

impl Spawner {
    fn start(bin: &Path) -> std::io::Result<Spawner> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--spawner")
            .arg(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        Ok(Spawner {
            requests: child.stdin.take(),
            replies: BufReader::new(child.stdout.take().expect("piped stdout")),
            child,
            peak_rss_kib: 0,
        })
    }

    fn run(&mut self, job: &Planned) -> std::io::Result<ChildRun> {
        let requests = self.requests.as_mut().expect("spawner running");
        writeln!(
            requests,
            "{}\t{}\t{}\t{}",
            job.analysis,
            job.input.display(),
            job.format,
            job.window.unwrap_or(0)
        )?;
        requests.flush()?;
        let mut header = String::new();
        self.replies.read_line(&mut header)?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        let bad = || std::io::Error::other(format!("spawner replied {header:?}"));
        let num = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(bad)
        };
        if fields.first() != Some(&"ok") {
            return Err(bad());
        }
        let (code, job_ns, after_decode_ns) = (num(1)?, num(2)?, num(3)?);
        self.peak_rss_kib = self.peak_rss_kib.max(num(4)?);
        let mut stdout = vec![0u8; num(5)? as usize];
        self.replies.read_exact(&mut stdout)?;
        Ok(ChildRun {
            job_ns,
            after_decode_ns,
            stdout: String::from_utf8(stdout).map_err(|_| bad())?,
            code: code as i32,
        })
    }

    /// Closes the request pipe and waits for the helper to exit.
    fn finish(mut self) -> std::io::Result<()> {
        drop(self.requests.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("spawner exited {status}")))
        }
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        drop(self.requests.take());
        let _ = self.child.wait();
    }
}

fn check(out: &mut Outcome, job: &Planned, run: &std::io::Result<ChildRun>) {
    let ok = matches!(run, Ok(r) if r.code == job.code && r.stdout == job.stdout);
    out.check(ok, || match run {
        Ok(r) => format!(
            "{} ({} events): exit {} vs {}, stdout {:?} vs {:?}",
            job.analysis,
            job.events,
            r.code,
            job.code,
            r.stdout.lines().last(),
            job.stdout.lines().last()
        ),
        Err(e) => format!("{}: {e}", job.analysis),
    });
}

/// Runs the closed loop in whole cycles over `jobs` for `seconds` (at
/// least one cycle). The full-size workloads have more than 100 distinct
/// jobs, so that p90 has ten jobs beyond it.
pub fn run(
    bin: &Path,
    dir: &Path,
    jobs: Vec<Job>,
    warmups: Vec<Job>,
    seconds: f64,
    out: &mut Outcome,
) {
    let t = Instant::now();
    let jobs = plan(dir, "job", jobs);
    let warmups = plan(dir, "warm", warmups);
    eprintln!(
        "perfbench: inputs and references in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let mut spawner = match Spawner::start(bin) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("cannot start the spawner: {e}"));
            return;
        }
    };

    // Shared hosts run in fast and slow phases lasting seconds to
    // minutes; a slow phase only adds time, so a median follows the
    // phases while the fastest of runs spread over the whole run does
    // not. Every distinct job runs once per cycle and
    // its latency is the fastest of its runs (percentiles are over
    // jobs); likewise each warm-up job's set-up time is the fastest of
    // its launches, and `setup_s` is the median over warm-up jobs.
    let mut setup: Vec<Samples> = warmups.iter().map(|_| Samples::default()).collect();
    let mut warm_up = |spawner: &mut Spawner, out: &mut Outcome| {
        for (job, s) in warmups.iter().zip(&mut setup) {
            let run = spawner.run(job);
            if let Ok(r) = &run {
                s.push(r.job_ns as f64 / 1e9);
            }
            check(out, job, &run);
        }
    };
    for _ in 0..WARMUP_ROUNDS {
        warm_up(&mut spawner, out);
    }

    let mut runs: Vec<(Samples, Samples)> = jobs.iter().map(|_| Default::default()).collect();
    let mut cycles = 0;
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, (job, (job_ms, after_decode_ms))) in jobs.iter().zip(&mut runs).enumerate() {
            let run = spawner.run(job);
            check(out, job, &run);
            if let Ok(r) = &run {
                job_ms.push(r.job_ns as f64 / 1e6);
                after_decode_ms.push(r.after_decode_ns as f64 / 1e6);
            }
            if (i + 1) % WARMUP_EVERY == 0 {
                warm_up(&mut spawner, out);
            }
        }
        cycles += 1;
    }
    let mut setup_s = Samples::default();
    let mut launches = 0;
    for s in &setup {
        setup_s.push(s.min());
        launches += s.len();
    }
    let peak_rss_mb = spawner.peak_rss_kib as f64 / 1024.0;
    if let Err(e) = spawner.finish() {
        out.check(false, || format!("spawner: {e}"));
    }

    let (mut job_ms, mut after_decode_ms) = (Samples::default(), Samples::default());
    let mut events = 0;
    let mut per_analysis: Vec<(&str, f64, usize)> = Vec::new();
    for (job, (j, a)) in jobs.iter().zip(&runs) {
        if j.is_empty() {
            continue;
        }
        let ms = j.min();
        job_ms.push(ms);
        after_decode_ms.push(a.min());
        events += job.events;
        match per_analysis.iter_mut().find(|e| e.0 == job.analysis) {
            Some(e) => {
                e.1 += ms;
                e.2 += 1;
            }
            None => per_analysis.push((job.analysis, ms, 1)),
        }
    }
    for (name, total, n) in per_analysis {
        out.lines.push(format!(
            "# {name}: {n} jobs, mean of their fastest runs {:.2} ms",
            total / n as f64
        ));
    }
    let note = |what: &str| {
        format!(
            "({what} over {} jobs, each the fastest of its {cycles} runs)",
            job_ms.len()
        )
    };
    out.metric(
        "setup_s",
        setup_s.pct(0.5),
        "s",
        format!(
            "(median over {} warm-up jobs, each the fastest of its launches; {launches} launches)",
            setup_s.len()
        ),
    );
    out.metric(
        "events_per_s",
        events as f64 / (job_ms.sum() / 1e3),
        "1/s",
        note("events over summed latency"),
    );
    out.metric("job_ms_p50", job_ms.pct(0.5), "ms", note("p50"));
    out.metric("job_ms_p90", job_ms.pct(0.9), "ms", note("p90"));
    // A batch job is one query: its input ends when the CLI has decoded
    // it, and the answer is the report at exit.
    let query_p50 = after_decode_ms.pct(0.5);
    out.metric("query_ms_p50", query_p50, "ms", note("p50"));
    out.metric("query_ms_p90", after_decode_ms.pct(0.9), "ms", note("p90"));
    out.metric("finish_ms_p50", query_p50, "ms", note("p50"));
    out.metric(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        "(largest csst-analyze child)",
    );
}

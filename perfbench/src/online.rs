//! `hb_online`: hb sessions streamed one after another into a
//! `csst-serve` process over loopback TCP, with an online query after
//! every burst, each answer and every final report checked.

use crate::jobs::{Query, Session};
use crate::report::{process_peak_rss_mb, Outcome, Samples};
use csst_analyses::hb::HbDetector;
use csst_analyses::registry::{self, IndexKind};
use csst_analyses::Analysis;
use csst_core::{GraphIndex, NodeId, PartialOrderIndex};
use csst_serve::{Client, Hello, Report, WireFormat};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Server launches `setup_s` takes the median of.
const SETUP_ROUNDS: usize = 5;

/// The session options of every `hb_online` session.
pub fn hello() -> Hello {
    Hello {
        analysis: "hb".into(),
        index: "csst".into(),
        format: WireFormat::Binary,
        shards: 1,
        window: None,
    }
}

/// What a correct session answers: one answer per burst, the final
/// report (the batch registry's, encoded), and the detector's findings.
pub struct SessionRef {
    pub answers: Vec<String>,
    pub report: Vec<u8>,
    pub races: Vec<(NodeId, NodeId)>,
    pub sync_edges: usize,
}

/// Answers a query from a sequential detector's state.
pub fn answer<P: PartialOrderIndex>(po: &P, races: usize, q: &Query) -> String {
    match *q {
        Query::Ordered { t1, p1, t2, p2 } => po
            .reachable(NodeId::new(t1, p1), NodeId::new(t2, p2))
            .to_string(),
        Query::Races => races.to_string(),
    }
}

/// Replays `s` through a sequential `HbDetector<GraphIndex>`, answering
/// every query on its prefix; the report comes from the batch registry.
pub fn reference(s: &Session) -> SessionRef {
    let mut det = HbDetector::<GraphIndex>::new(());
    let mut order = s.trace.iter_order();
    let mut answers = Vec::new();
    for burst in &s.bursts {
        for (id, ev) in order.by_ref().take(burst.events) {
            det.feed(id.thread, ev.kind);
        }
        answers.push(answer(det.index(), det.races().len(), &burst.query));
    }
    let r = det.finish();
    let out = registry::find("hb")
        .expect("hb is registered")
        .run(&s.trace, IndexKind::VectorClock, None)
        .expect("hb runs unwindowed");
    let report = Report {
        exit_code: out.exit_code,
        summary: out.summary,
        lines: out.lines,
    };
    SessionRef {
        answers,
        report: report.encode(),
        races: r.races,
        sync_edges: r.sync_edges,
    }
}

/// References of every session, computed on two threads.
pub fn references(sessions: &[Session]) -> Vec<SessionRef> {
    std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|sess| s.spawn(|| reference(sess)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// A running `csst-serve`; killed and reaped on drop unless shut down.
pub struct Server {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Launches the server on an OS-chosen loopback port and waits for
    /// its `listening on <addr>` line.
    pub fn spawn(bin: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--listen", "tcp:127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let mut server = Server {
            child: Some(child),
            _stdout: stdout,
            addr: String::new(),
        };
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => server.addr = addr.to_string(),
            None => {
                return Err(std::io::Error::other(format!(
                    "unexpected csst-serve banner {line:?}"
                )))
            }
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Sends SHUTDOWN and waits for the process to exit.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        let sent = Client::shutdown_server(&self.addr);
        let mut child = self.child.take().expect("live server");
        if sent.is_err() {
            let _ = child.kill();
        }
        let status = child.wait()?;
        sent?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("csst-serve exited {status}")))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Launches the server `SETUP_ROUNDS` times, timing launch to the first
/// HELLO's OK; returns the last server, still running, and the times.
pub fn start(bin: &Path, out: &mut Outcome) -> std::io::Result<(Server, Samples)> {
    let mut setup = Samples::default();
    for round in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let server = Server::spawn(bin)?;
        let client = Client::open(&server.addr, &hello())?;
        setup.push(t.elapsed().as_secs_f64());
        let report = client.finish();
        out.check(
            matches!(&report, Ok(r) if r.summary == "0 hb-race(s); 0 synchronization edge(s)"),
            || format!("empty session report: {report:?}"),
        );
        if round + 1 == SETUP_ROUNDS {
            return Ok((server, setup));
        }
        server.shutdown()?;
    }
    unreachable!("SETUP_ROUNDS > 0")
}

#[derive(Default)]
struct Latencies {
    job: Samples,
    query: Samples,
    finish: Samples,
    events: usize,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn session(
    addr: &str,
    s: &Session,
    exp: &SessionRef,
    lat: &mut Latencies,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let t0 = Instant::now();
    let mut client = Client::open(addr, &hello())?;
    for (burst, want) in s.bursts.iter().zip(&exp.answers) {
        for frame in &burst.frames {
            client.send_events_raw(frame)?;
        }
        let q = burst.query.text();
        let tq = Instant::now();
        let got = client.query(&q)?;
        lat.query.push(ms(tq));
        out.check(&got == want, || {
            format!("`{q}` answered {got}, want {want}")
        });
    }
    let tf = Instant::now();
    let report = client.finish()?;
    lat.finish.push(ms(tf));
    lat.job.push(ms(t0));
    lat.events += s.events();
    out.check(report.encode() == exp.report, || {
        format!(
            "report {:?} differs from the batch registry's",
            report.summary
        )
    });
    Ok(())
}

/// Runs sessions back to back for `seconds`, cycling through `sessions`.
pub fn run(bin: &Path, sessions: &[Session], seconds: f64, out: &mut Outcome) {
    let refs = references(sessions);
    let (server, setup) = match start(bin, out) {
        Ok(v) => v,
        Err(e) => {
            out.check(false, || format!("csst-serve did not start: {e}"));
            return;
        }
    };
    let mut lat = Latencies::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds || i == 0 {
        let k = i % sessions.len();
        if let Err(e) = session(&server.addr, &sessions[k], &refs[k], &mut lat, out) {
            out.check(false, || format!("session {i}: {e}"));
        }
        i += 1;
    }
    let rss = process_peak_rss_mb(server.pid()).unwrap_or(0.0);
    if let Err(e) = server.shutdown() {
        out.check(false, || format!("csst-serve shutdown: {e}"));
    }

    let n = |s: &Samples| format!("(median of {} samples)", s.len());
    let p90 = |s: &Samples| format!("(p90 of {} samples)", s.len());
    out.metric("setup_s", setup.pct(0.5), "s", n(&setup));
    out.metric(
        "events_per_s",
        lat.events as f64 / (lat.job.sum() / 1e3),
        "1/s",
        format!("({} events in {} sessions)", lat.events, lat.job.len()),
    );
    out.metric("job_ms_p50", lat.job.pct(0.5), "ms", n(&lat.job));
    out.metric("job_ms_p90", lat.job.pct(0.9), "ms", p90(&lat.job));
    out.metric("query_ms_p50", lat.query.pct(0.5), "ms", n(&lat.query));
    out.metric("query_ms_p90", lat.query.pct(0.9), "ms", p90(&lat.query));
    out.metric("finish_ms_p50", lat.finish.pct(0.5), "ms", n(&lat.finish));
    out.metric("peak_rss_mb", rss, "MB", "(csst-serve VmHWM)");
}

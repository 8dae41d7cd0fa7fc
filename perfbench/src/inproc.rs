//! The traced run: an in-process pass over the same generated inputs,
//! calling each crate's public functions. Every pass runs the inputs
//! once untraced on the plain index and once traced through [`Traced`],
//! with spans at the layer boundaries; the two must find the same.

use crate::jobs::{Job, Query, Session};
use crate::online::{answer, hello, Server, SessionRef};
use crate::report::Outcome;
use crate::trace_rec::{self as rec, span, CoreCounters, Traced};
use csst_analyses::hb::{HbDetector, SyncTracker};
use csst_analyses::{c11, deadlock, linearizability, membug, race, tso, uaf};
use csst_analyses::{Analysis, WindowStats};
use csst_core::{Csst, IncrementalCsst, NodeId, PartialOrderIndex, ThreadId};
use csst_serve::{Client, ShardCfg, ShardedHb};
use csst_trace::{binary, EventKind, Trace};
use std::path::Path;
use std::time::Instant;

/// What one analysis run found, in a comparable form.
#[derive(PartialEq, Eq, Debug)]
struct Findings {
    key: String,
    /// (findings, candidates) of the analyses that filter candidates.
    kept: Option<(u64, u64)>,
    window: WindowStats,
}

/// Feeds `trace` through a fresh `A` and finishes it, inside the
/// `analyses.feed` and `analyses.finish` spans.
fn drive<A: Analysis>(trace: &Trace, cfg: A::Cfg) -> A::Report {
    let mut a = A::new(cfg);
    span("analyses.feed", || {
        for (id, ev) in trace.iter_order() {
            a.feed(id.thread, ev.kind);
        }
    });
    span("analyses.finish", || a.finish())
}

/// Runs `job`'s analysis on `P` with the configuration the registry
/// uses, and folds the final index footprint into the traced peak.
fn analyze<P: PartialOrderIndex>(job: &Job, trace: &Trace) -> Findings {
    let window = job.window;
    let (key, kept, stats, bytes) = match job.analysis {
        "race" => {
            let cfg = race::RaceCfg {
                window,
                ..Default::default()
            };
            let r = drive::<race::RacePredictor<P>>(trace, cfg);
            let kept = Some((r.races.len() as u64, r.candidates as u64));
            (
                format!("{:?}", r.races),
                kept,
                r.window,
                r.base.memory_bytes(),
            )
        }
        "deadlock" => {
            let cfg = deadlock::DeadlockCfg {
                window,
                ..Default::default()
            };
            let r = drive::<deadlock::DeadlockPredictor<P>>(trace, cfg);
            let kept = Some((r.deadlocks.len() as u64, r.patterns as u64));
            (
                format!("{:?}", r.deadlocks),
                kept,
                r.window,
                r.base.memory_bytes(),
            )
        }
        "membug" => {
            let cfg = membug::MemBugCfg {
                window,
                ..Default::default()
            };
            let r = drive::<membug::MemBugPredictor<P>>(trace, cfg);
            (
                format!("{:?}", r.bugs),
                None,
                r.window,
                r.base.memory_bytes(),
            )
        }
        "uaf" => {
            let cfg = uaf::UafCfg {
                window,
                ..Default::default()
            };
            let r = drive::<uaf::UafGenerator<P>>(trace, cfg);
            let n = r.candidates.len() as u64;
            let key = format!("{:?} {} {}", r.candidates, r.pruned, r.total_constraints);
            let kept = Some((n, n + r.pruned as u64));
            (key, kept, r.window, r.base.memory_bytes())
        }
        "tso" => {
            let cfg = tso::TsoCheckCfg {
                window,
                ..Default::default()
            };
            let r = drive::<tso::TsoChecker<P>>(trace, cfg);
            let key = format!("{} {} {}", r.consistent, r.inserted, r.rounds);
            (key, None, r.window, r.po.memory_bytes())
        }
        "c11" => {
            let cfg = c11::C11Cfg {
                window,
                ..Default::default()
            };
            let r = drive::<c11::C11Detector<P>>(trace, cfg);
            let key = format!("{:?} {} {}", r.races, r.sw_edges, r.fr_edges);
            (key, None, r.window, r.hb.memory_bytes())
        }
        "linearizability" => {
            let cfg = linearizability::LinCfg {
                window,
                ..Default::default()
            };
            let r = drive::<linearizability::LinAnalyzer<P>>(trace, cfg);
            (
                format!("{:?}", r.verdict),
                None,
                r.window,
                r.po.memory_bytes(),
            )
        }
        other => unreachable!("not a predictive analysis: {other}"),
    };
    rec::note_memory(bytes as u64);
    Findings {
        key,
        kept,
        window: stats,
    }
}

/// Decodes and analyses one job on the representation `csst` selects
/// in the registry: the fully dynamic `Csst` for windowed runs and for
/// linearizability, `IncrementalCsst` otherwise.
fn predict_job(job: &Job, traced: bool) -> Findings {
    let trace = span("trace.decode", || job.format.parse(&job.input));
    let dynamic = job.window.is_some() || job.analysis == "linearizability";
    match (dynamic, traced) {
        (true, true) => analyze::<Traced<Csst>>(job, &trace),
        (true, false) => analyze::<Csst>(job, &trace),
        (false, true) => analyze::<Traced<IncrementalCsst>>(job, &trace),
        (false, false) => analyze::<IncrementalCsst>(job, &trace),
    }
}

/// Run totals of the traced passes; every per-layer metric is reported
/// per pass.
#[derive(Default)]
struct Layers {
    passes: u64,
    events: u64,
    untraced_s: f64,
    traced_s: f64,
    decoded_bytes: u64,
    windows: usize,
    peak_buffered: usize,
    deleted_edges: usize,
    kept: (u64, u64),
    sync_edges: u64,
    hb_seq_ns: u64,
    frames: u64,
    bytes: u64,
    report_bytes: u64,
}

impl Layers {
    fn emit(&self, out: &mut Outcome) {
        let passes = self.passes.max(1);
        let note = format!("(per pass, {passes} passes)");
        let per = |x: f64| x / passes as f64;
        let ms = |ns: u64| per(ns as f64 / 1e6);
        let core: CoreCounters = rec::core();
        let decode_ns = rec::self_ns("trace.decode");
        let mut m = |name: &str, value: f64, unit: &'static str| {
            out.metric(name, value, unit, note.clone());
        };
        m("trace.decode_ms", ms(decode_ns), "ms");
        m(
            "trace.decode_mb_per_s",
            self.decoded_bytes as f64 / 1e6 / (decode_ns.max(1) as f64 / 1e9),
            "MB/s",
        );
        m("core.update_calls", per(core.update_calls as f64), "count");
        m("core.update_ms", ms(core.update_ns), "ms");
        m("core.query_calls", per(core.query_calls as f64), "count");
        m("core.query_probes", per(core.query_probes as f64), "count");
        m("core.query_ms", ms(core.query_ns), "ms");
        m("core.delete_calls", per(core.delete_calls as f64), "count");
        m("core.delete_ms", ms(core.delete_ns), "ms");
        m(
            "core.probes_per_batch",
            core.batch_probes as f64 / core.batch_calls.max(1) as f64,
            "count",
        );
        m(
            "core.memory_bytes_peak",
            core.memory_bytes_peak as f64,
            "bytes",
        );
        m("analyses.peak_buffered", self.peak_buffered as f64, "count");
        m("analyses.windows", per(self.windows as f64), "count");
        m(
            "analyses.deleted_edges",
            per(self.deleted_edges as f64),
            "count",
        );
        let sync_ns = rec::self_ns("analyses.sync");
        m("analyses.sync_ms", ms(sync_ns), "ms");
        m("analyses.sync_edges", per(self.sync_edges as f64), "count");
        // The detector's time outside its index less its sync tracker's:
        // the access frontier and the per-event glue around it.
        m(
            "analyses.frontier_ms",
            ms(rec::self_ns("analyses.hb").saturating_sub(sync_ns)),
            "ms",
        );
        m("analyses.hb_seq_ms", ms(self.hb_seq_ns), "ms");
        m("analyses.feed_ms", ms(rec::self_ns("analyses.feed")), "ms");
        m(
            "analyses.finish_ms",
            ms(rec::self_ns("analyses.finish")),
            "ms",
        );
        m(
            "analyses.findings_per_candidate",
            self.kept.0 as f64 / self.kept.1.max(1) as f64,
            "ratio",
        );
        m("serve.hello_ms", ms(rec::total_ns("serve.open")), "ms");
        m("serve.frames", per(self.frames as f64), "count");
        m("serve.bytes", per(self.bytes as f64), "bytes");
        m(
            "serve.send_blocked_ms",
            ms(rec::total_ns("serve.send")),
            "ms",
        );
        m(
            "serve.client_query_ms",
            ms(rec::total_ns("serve.query")),
            "ms",
        );
        m(
            "serve.client_finish_ms",
            ms(rec::total_ns("serve.finish")),
            "ms",
        );
        m(
            "serve.pipeline_feed_ms",
            ms(rec::total_ns("serve.pipeline_feed")),
            "ms",
        );
        m(
            "serve.pipeline_barrier_ms",
            ms(rec::total_ns("serve.pipeline_barrier")),
            "ms",
        );
        m("serve.report_bytes", per(self.report_bytes as f64), "bytes");
        let untraced = self.events as f64 / self.untraced_s;
        let traced = self.events as f64 / self.traced_s;
        m("bench.untraced_events_per_s", untraced, "1/s");
        m("bench.traced_events_per_s", traced, "1/s");
        m(
            "bench.tracing_overhead_pct",
            (untraced / traced - 1.0) * 100.0,
            "%",
        );
    }
}

/// Passes over the batch jobs for `seconds` (at least one).
pub fn predict(jobs: &[Job], seconds: f64, out: &mut Outcome) {
    rec::reset();
    let mut l = Layers::default();
    let start = Instant::now();
    while l.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        rec::set_enabled(false);
        let t = Instant::now();
        let plain: Vec<Findings> = jobs.iter().map(|j| predict_job(j, false)).collect();
        l.untraced_s += t.elapsed().as_secs_f64();
        rec::set_enabled(true);
        let t = Instant::now();
        let traced: Vec<Findings> = jobs
            .iter()
            .map(|j| span("job", || predict_job(j, true)))
            .collect();
        l.traced_s += t.elapsed().as_secs_f64();
        for (job, (a, b)) in jobs.iter().zip(plain.iter().zip(&traced)) {
            out.check(a == b, || {
                format!("{}: traced run found {b:?}, untraced {a:?}", job.analysis)
            });
            l.events += job.events() as u64;
            l.decoded_bytes += job.input.len() as u64;
            l.windows += b.window.windows;
            l.peak_buffered = l.peak_buffered.max(b.window.peak_buffered);
            l.deleted_edges += b.window.deleted_edges;
            if let Some((k, c)) = b.kept {
                l.kept.0 += k;
                l.kept.1 += c;
            }
        }
        l.passes += 1;
    }
    l.emit(out);
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One session through every hb layer: CSTB decode, the traced
/// detector, its sync tracker on its own, the untraced sequential
/// baseline, the sharded pipeline, and the client over TCP.
fn hb_session(addr: &str, s: &Session, exp: &SessionRef, l: &mut Layers, out: &mut Outcome) {
    let bursts: Vec<Vec<(ThreadId, EventKind)>> = s
        .bursts
        .iter()
        .map(|b| {
            let mut events = Vec::with_capacity(b.events);
            for frame in &b.frames {
                let decoded = span("trace.decode", || binary::decode_events(frame));
                events.extend(decoded.expect("generated frames decode"));
                l.decoded_bytes += frame.len() as u64;
            }
            events
        })
        .collect();
    let queries = s.bursts.iter().map(|b| &b.query);

    let mut hb = HbDetector::<Traced<IncrementalCsst>>::new(());
    let t = Instant::now();
    for ((events, q), want) in bursts.iter().zip(queries.clone()).zip(&exp.answers) {
        span("analyses.hb", || {
            for &(thread, ev) in events {
                hb.feed(thread, ev);
            }
        });
        let got = answer(hb.index(), hb.races().len(), q);
        out.check(&got == want, || {
            format!("traced hb answered {got}, want {want}")
        });
    }
    l.traced_s += t.elapsed().as_secs_f64();
    rec::note_memory(hb.index().memory_bytes() as u64);
    out.check(
        hb.races() == exp.races && hb.sync_edges() == exp.sync_edges,
        || "traced hb findings differ from the reference".into(),
    );
    l.sync_edges += hb.sync_edges() as u64;

    // `HbDetector` runs a `SyncTracker` in front of its index; the same
    // stream through a tracker of its own gives that share of its time.
    let mut sync = SyncTracker::new();
    let mut edges = Vec::new();
    let emitted = span("analyses.sync", || {
        let mut emitted = 0;
        for &(thread, ev) in bursts.iter().flatten() {
            edges.clear();
            sync.feed(thread, &ev, &mut edges);
            emitted += edges.len();
        }
        emitted
    });
    out.check(emitted == exp.sync_edges, || {
        format!(
            "sync tracker emitted {emitted} edges, want {}",
            exp.sync_edges
        )
    });

    let mut seq = HbDetector::<IncrementalCsst>::new(());
    let mut seq_ns = 0;
    for ((events, q), want) in bursts.iter().zip(queries.clone()).zip(&exp.answers) {
        let t = Instant::now();
        for &(thread, ev) in events {
            seq.feed(thread, ev);
        }
        let got = answer(seq.index(), seq.races().len(), q);
        seq_ns += ns(t);
        out.check(&got == want, || {
            format!("sequential hb answered {got}, want {want}")
        });
    }
    out.check(seq.races() == exp.races, || {
        "sequential hb findings differ from the reference".into()
    });
    l.hb_seq_ns += seq_ns;
    l.untraced_s += seq_ns as f64 / 1e9;
    l.events += s.events() as u64;

    let mut pipeline = ShardedHb::<IncrementalCsst>::new(ShardCfg::with_shards(1));
    for ((events, q), want) in bursts.iter().zip(queries.clone()).zip(&exp.answers) {
        let fed = span("serve.pipeline_feed", || {
            events.iter().try_for_each(|&(t, ev)| pipeline.feed(t, ev))
        });
        let got = span("serve.pipeline_barrier", || match q {
            Query::Ordered { t1, p1, t2, p2 } => pipeline
                .ordered(NodeId::new(*t1, *p1), NodeId::new(*t2, *p2))
                .map(|b| b.to_string()),
            Query::Races => pipeline.races_snapshot().map(|r| r.len().to_string()),
        });
        let ok = fed.is_ok() && matches!(&got, Ok(g) if g == want);
        out.check(ok, || {
            format!("pipeline answered {got:?} (feed {fed:?}), want {want}")
        });
    }
    let report = span("serve.pipeline_barrier", || pipeline.finish());
    out.check(
        matches!(&report, Ok(r) if r.races == exp.races && r.sync_edges == exp.sync_edges),
        || "pipeline findings differ from the reference".into(),
    );

    let result = (|| -> std::io::Result<()> {
        let mut client = span("serve.open", || Client::open(addr, &hello()))?;
        for (burst, want) in s.bursts.iter().zip(&exp.answers) {
            for frame in &burst.frames {
                span("serve.send", || client.send_events_raw(frame))?;
                l.frames += 1;
                l.bytes += frame.len() as u64 + 5;
            }
            let got = span("serve.query", || client.query(&burst.query.text()))?;
            out.check(&got == want, || {
                format!("server answered {got}, want {want}")
            });
        }
        let report = span("serve.finish", || client.finish())?;
        let bytes = report.encode();
        l.report_bytes += bytes.len() as u64;
        out.check(bytes == exp.report, || "server report differs".into());
        Ok(())
    })();
    if let Err(e) = result {
        out.check(false, || format!("traced session: {e}"));
    }
}

/// Passes over the hb sessions for `seconds` (at least one).
pub fn hb(bin: &Path, sessions: &[Session], refs: &[SessionRef], seconds: f64, out: &mut Outcome) {
    let server = match Server::spawn(bin) {
        Ok(server) => server,
        Err(e) => {
            out.check(false, || format!("csst-serve did not start: {e}"));
            return;
        }
    };
    rec::reset();
    let mut l = Layers::default();
    let start = Instant::now();
    while l.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for (s, exp) in sessions.iter().zip(refs) {
            span("session", || hb_session(&server.addr, s, exp, &mut l, out));
        }
        l.passes += 1;
    }
    if let Err(e) = server.shutdown() {
        out.check(false, || format!("csst-serve shutdown: {e}"));
    }
    l.emit(out);
}

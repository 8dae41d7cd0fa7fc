//! Bounded-memory windowing versus full buffering.
//!
//! Runs race prediction over one large racy trace with no window (the
//! whole stream is buffered and analyzed at `finish`) and with
//! tumbling windows of several sizes (peak buffered events ≤ window;
//! each retirement resets the base order, dropping the window's
//! edges), on the `IncrementalCsst` that `--index csst` runs. Besides
//! the timings, the bench prints the
//! peak-resident-event and deleted-edge counters once per
//! configuration, making the bounded-growth claim of the windowing
//! layer directly observable:
//!
//! ```text
//! windowed/race: events=12000 window=none     peak_buffered=12000 deleted_edges=0
//! windowed/race: events=12000 window=500      peak_buffered=500   deleted_edges=…
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csst_analyses::race::{self, RaceCfg};
use csst_core::IncrementalCsst;
use csst_trace::gen::{racy_program, RacyProgramCfg};

const THREADS: usize = 6;
const EVENTS_PER_THREAD: usize = 600;
const WINDOWS: [usize; 3] = [150, 600, 1_800];

fn cfg(window: Option<usize>) -> RaceCfg {
    RaceCfg {
        max_candidates: 400,
        window,
        ..Default::default()
    }
}

fn bench_windowed(c: &mut Criterion) {
    let trace = racy_program(&RacyProgramCfg {
        threads: THREADS,
        events_per_thread: EVENTS_PER_THREAD,
        shared_frac: 0.25,
        lock_frac: 0.5,
        ..Default::default()
    });

    // Report the memory side of the trade once, outside the timed loop.
    let full = race::predict::<IncrementalCsst>(&trace, &cfg(None));
    eprintln!(
        "windowed/race: events={} window=none peak_buffered={} deleted_edges={} races={}",
        trace.total_events(),
        full.window.peak_buffered,
        full.window.deleted_edges,
        full.races.len()
    );
    for window in WINDOWS {
        let r = race::predict::<IncrementalCsst>(&trace, &cfg(Some(window)));
        assert!(
            r.window.peak_buffered <= window,
            "windowed run exceeded its buffer bound"
        );
        eprintln!(
            "windowed/race: events={} window={window} peak_buffered={} deleted_edges={} races={}",
            trace.total_events(),
            r.window.peak_buffered,
            r.window.deleted_edges,
            r.races.len()
        );
    }

    let mut group = c.benchmark_group("windowed/race");
    group.sample_size(10);
    group.bench_function("full_buffer", |b| {
        b.iter(|| race::predict::<IncrementalCsst>(&trace, &cfg(None)))
    });
    for window in WINDOWS {
        group.bench_function(BenchmarkId::new("window", window), |b| {
            b.iter(|| race::predict::<IncrementalCsst>(&trace, &cfg(Some(window))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_windowed);
criterion_main!(benches);

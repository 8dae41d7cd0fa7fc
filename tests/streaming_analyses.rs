//! Acceptance test for the unified streaming `Analysis` trait: every
//! analysis, fed one event at a time through `Analysis::feed`, must
//! produce a report identical to its batch entry point on every
//! `gen::*` workload family.
//!
//! The batch entry points are thin wrappers over the trait, so this
//! also pins down that the wrappers stream faithfully (ordering,
//! thread assignment, configs) and that streaming runs are
//! deterministic.

use csst_analyses::{c11, deadlock, hb, linearizability, membug, race, tso, uaf, Analysis};
use csst_core::{Csst, GraphIndex, IncrementalCsst, NodeId, PartialOrderIndex, VectorClockIndex};
use csst_trace::{gen, Trace};
use proptest::prelude::*;

/// Feeds `trace` event by event — the streaming side of the
/// comparison, deliberately not using `Analysis::run`.
fn stream<A: Analysis>(trace: &Trace, cfg: A::Cfg) -> A::Report {
    let mut analysis = A::new(cfg);
    for (id, ev) in trace.iter_order() {
        analysis.feed(id.thread, ev.kind);
    }
    analysis.finish()
}

fn racy(seed: u64) -> Trace {
    gen::racy_program(&gen::RacyProgramCfg {
        threads: 5,
        events_per_thread: 120,
        shared_frac: 0.3,
        lock_frac: 0.5,
        seed,
        ..Default::default()
    })
}

#[test]
fn race_streaming_matches_batch() {
    for seed in 0..3 {
        let trace = racy(seed);
        let cfg = race::RaceCfg {
            max_candidates: 30,
            ..Default::default()
        };
        let batch = race::predict::<IncrementalCsst>(&trace, &cfg);
        let streamed = stream::<race::RacePredictor<IncrementalCsst>>(&trace, cfg.clone());
        assert_eq!(batch.races, streamed.races, "seed {seed}");
        assert_eq!(batch.candidates, streamed.candidates);
        assert_eq!(batch.base_inserted, streamed.base_inserted);
    }
}

#[test]
fn hb_streaming_matches_batch() {
    for seed in 0..3 {
        let trace = racy(seed);
        let batch = hb::detect::<VectorClockIndex>(&trace);
        let streamed = stream::<hb::HbDetector<VectorClockIndex>>(&trace, ());
        assert_eq!(batch.races, streamed.races, "seed {seed}");
        assert_eq!(batch.sync_edges, streamed.sync_edges);
        // The genuinely streaming detector holds no event buffer, so
        // its index must have witnessed exactly the trace's domain.
        assert_eq!(streamed.hb.chains(), trace.num_threads());
        for t in 0..trace.num_threads() {
            let t = csst_core::ThreadId(t as u32);
            assert_eq!(streamed.hb.chain_len(t), trace.thread_len(t));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// hb on the fully dynamic `Csst`, the index `--index csst` runs hb
    /// on, agrees with the graph oracle: the same races and sync edges,
    /// and the same `ordered` answers a session serves mid-stream.
    /// `probes` are `(after event, t1, p1, t2, p2)`, reduced into the
    /// prefix seen so far.
    #[test]
    fn hb_on_csst_matches_graph_oracle(
        seed in 0u64..1000,
        threads in 2usize..9,
        hb_seq_mix in 0usize..2,
        probes in proptest::collection::vec(
            (0usize..10_000, 0usize..8, 0u32..1000, 0usize..8, 0u32..1000),
            0..48,
        ),
    ) {
        let cfg = if hb_seq_mix == 1 {
            // The `hb_seq` micro cell's access-heavy mix.
            gen::RacyProgramCfg {
                threads,
                events_per_thread: 60,
                vars: 16,
                lock_frac: 0.3,
                shared_frac: 0.5,
                seed,
                ..Default::default()
            }
        } else {
            // The `hb_online` benchmark sessions' sync-heavy mix.
            gen::RacyProgramCfg {
                threads,
                events_per_thread: 60,
                vars: 64,
                locks: 4,
                shared_frac: 0.05,
                seed,
                ..Default::default()
            }
        };
        let trace = gen::racy_program(&cfg);
        let total = trace.total_events().max(1);
        let mut probes = probes;
        probes.sort_unstable_by_key(|p| p.0 % total);
        let mut next = probes.iter().peekable();
        let mut csst = hb::HbDetector::<Csst>::new(());
        let mut graph = hb::HbDetector::<GraphIndex>::new(());
        let mut seen = vec![0u32; trace.num_threads()];
        for (i, (id, ev)) in trace.iter_order().enumerate() {
            csst.feed(id.thread, ev.kind);
            graph.feed(id.thread, ev.kind);
            seen[id.thread.index()] += 1;
            while let Some(&(_, t1, p1, t2, p2)) = next.next_if(|p| p.0 % total == i) {
                let (t1, t2) = (t1 % seen.len(), t2 % seen.len());
                if seen[t1] == 0 || seen[t2] == 0 {
                    continue;
                }
                let a = NodeId::new(t1 as u32, p1 % seen[t1]);
                let b = NodeId::new(t2 as u32, p2 % seen[t2]);
                prop_assert_eq!(
                    csst.index().reachable(a, b),
                    graph.index().reachable(a, b),
                    "ordered {:?} {:?} after event {}", a, b, i
                );
            }
        }
        prop_assert_eq!(csst.races(), graph.races());
        prop_assert_eq!(csst.sync_edges(), graph.sync_edges());
        let (c, g) = (csst.finish(), graph.finish());
        prop_assert_eq!(c.races, g.races);
        prop_assert_eq!(c.sync_edges, g.sync_edges);
    }
}

#[test]
fn deadlock_streaming_matches_batch() {
    for seed in 0..3 {
        let trace = gen::lock_program(&gen::LockProgramCfg {
            threads: 4,
            blocks_per_thread: 80,
            inversion_frac: 0.1,
            seed,
            ..Default::default()
        });
        let cfg = deadlock::DeadlockCfg {
            max_patterns: 10,
            ..Default::default()
        };
        let batch = deadlock::predict::<IncrementalCsst>(&trace, &cfg);
        let streamed = stream::<deadlock::DeadlockPredictor<IncrementalCsst>>(&trace, cfg.clone());
        assert_eq!(batch.patterns, streamed.patterns, "seed {seed}");
        assert_eq!(batch.deadlocks.len(), streamed.deadlocks.len());
    }
}

#[test]
fn membug_and_uaf_streaming_match_batch() {
    for seed in 0..3 {
        let trace = gen::alloc_program(&gen::AllocProgramCfg {
            threads: 4,
            objects: 120,
            remote_free_frac: 0.6,
            seed,
            ..Default::default()
        });
        let cfg = membug::MemBugCfg {
            max_candidates: 30,
            ..Default::default()
        };
        let batch = membug::predict::<IncrementalCsst>(&trace, &cfg);
        let streamed = stream::<membug::MemBugPredictor<IncrementalCsst>>(&trace, cfg.clone());
        assert_eq!(batch.bugs, streamed.bugs, "seed {seed}");

        let cfg = uaf::UafCfg::default();
        let batch = uaf::generate::<IncrementalCsst>(&trace, &cfg);
        let streamed = stream::<uaf::UafGenerator<IncrementalCsst>>(&trace, cfg.clone());
        assert_eq!(batch.candidates, streamed.candidates, "seed {seed}");
        assert_eq!(batch.pruned, streamed.pruned);
        assert_eq!(batch.total_constraints, streamed.total_constraints);
    }
}

#[test]
fn tso_streaming_matches_batch() {
    for seed in 0..3 {
        let trace = gen::tso_history(&gen::TsoCfg {
            threads: 4,
            events_per_thread: 150,
            seed,
            ..Default::default()
        });
        let cfg = tso::TsoCheckCfg::default();
        let batch = tso::check::<IncrementalCsst>(&trace, &cfg);
        let streamed = stream::<tso::TsoChecker<IncrementalCsst>>(&trace, cfg.clone());
        assert_eq!(batch.consistent, streamed.consistent, "seed {seed}");
        assert_eq!(batch.inserted, streamed.inserted);
        assert_eq!(batch.rounds, streamed.rounds);
    }
}

#[test]
fn c11_streaming_matches_batch() {
    for seed in 0..3 {
        let trace = gen::c11_program(&gen::C11Cfg {
            threads: 5,
            events_per_thread: 300,
            middle_sync_frac: 0.1,
            seed,
            ..Default::default()
        });
        let cfg = c11::C11Cfg::default();
        let batch = c11::detect::<IncrementalCsst>(&trace, &cfg);
        let streamed = stream::<c11::C11Detector<IncrementalCsst>>(&trace, cfg.clone());
        assert_eq!(batch.races, streamed.races, "seed {seed}");
        assert_eq!(batch.sw_edges, streamed.sw_edges);
        assert_eq!(batch.fr_edges, streamed.fr_edges);
    }
}

#[test]
fn linearizability_streaming_matches_batch() {
    for seed in 0..3 {
        let trace = gen::object_history(&gen::ObjectHistoryCfg {
            threads: 3,
            ops_per_thread: 60,
            violation: true,
            seed,
            ..Default::default()
        });
        let cfg = linearizability::LinCfg::default();
        let batch = linearizability::analyze::<Csst>(&trace, &cfg);
        let streamed = stream::<linearizability::LinAnalyzer<Csst>>(&trace, cfg.clone());
        assert_eq!(batch.verdict, streamed.verdict, "seed {seed}");
        assert_eq!(batch.steps, streamed.steps);
        assert_eq!(batch.backtracks, streamed.backtracks);
        assert_eq!(batch.inserted, streamed.inserted);
        assert_eq!(batch.deleted, streamed.deleted);
    }
}

// ---------------------------------------------------------------------------
// Windowed (bounded-memory) streaming
// ---------------------------------------------------------------------------
//
// With `window: Some(n)` the predictive analyses cut the stream into
// n-event tumbling windows, analyze each as an independent execution
// and retire each window by resetting its base order to a fresh index.
// The tests below pin the two ends of the soundness contract: windowed
// == batch when the trace fits the window, and bounded buffering
// (peak ≤ n) with real retirements otherwise.

#[test]
fn windowed_equals_batch_when_trace_fits_window() {
    let trace = racy(7);
    let window = Some(trace.total_events() + 1);

    let batch = race::predict::<Csst>(&trace, &race::RaceCfg::default());
    let windowed = race::predict::<Csst>(
        &trace,
        &race::RaceCfg {
            window,
            ..Default::default()
        },
    );
    assert_eq!(batch.races, windowed.races);
    assert_eq!(batch.candidates, windowed.candidates);
    assert_eq!(batch.base_inserted, windowed.base_inserted);
    assert_eq!(windowed.window.windows, 0, "window never filled");

    let alloc = gen::alloc_program(&gen::AllocProgramCfg {
        threads: 4,
        objects: 60,
        remote_free_frac: 0.5,
        seed: 7,
        ..Default::default()
    });
    let window = Some(alloc.total_events() + 1);
    let batch = membug::predict::<Csst>(&alloc, &membug::MemBugCfg::default());
    let windowed = membug::predict::<Csst>(
        &alloc,
        &membug::MemBugCfg {
            window,
            ..Default::default()
        },
    );
    assert_eq!(batch.bugs, windowed.bugs);

    let batch = uaf::generate::<Csst>(&alloc, &uaf::UafCfg::default());
    let windowed = uaf::generate::<Csst>(
        &alloc,
        &uaf::UafCfg {
            window,
            ..Default::default()
        },
    );
    assert_eq!(batch.candidates, windowed.candidates);
    assert_eq!(batch.pruned, windowed.pruned);
    assert_eq!(batch.total_constraints, windowed.total_constraints);

    let locks = gen::lock_program(&gen::LockProgramCfg {
        threads: 4,
        blocks_per_thread: 40,
        inversion_frac: 0.2,
        seed: 3,
        ..Default::default()
    });
    let batch = deadlock::predict::<Csst>(&locks, &deadlock::DeadlockCfg::default());
    let windowed = deadlock::predict::<Csst>(
        &locks,
        &deadlock::DeadlockCfg {
            window: Some(locks.total_events() + 1),
            ..Default::default()
        },
    );
    assert_eq!(batch.patterns, windowed.patterns);
    assert_eq!(batch.deadlocks.len(), windowed.deadlocks.len());

    let history = gen::tso_history(&gen::TsoCfg {
        threads: 4,
        events_per_thread: 100,
        seed: 11,
        ..Default::default()
    });
    let batch = tso::check::<Csst>(&history, &tso::TsoCheckCfg::default());
    let windowed = tso::check::<Csst>(
        &history,
        &tso::TsoCheckCfg {
            window: Some(history.total_events() + 1),
            ..Default::default()
        },
    );
    assert_eq!(batch.consistent, windowed.consistent);
    assert_eq!(batch.inserted, windowed.inserted);
    assert_eq!(batch.rounds, windowed.rounds);

    let objects = gen::object_history(&gen::ObjectHistoryCfg {
        threads: 3,
        ops_per_thread: 40,
        violation: true,
        seed: 5,
        ..Default::default()
    });
    let batch = linearizability::analyze::<Csst>(&objects, &linearizability::LinCfg::default());
    let windowed = linearizability::analyze::<Csst>(
        &objects,
        &linearizability::LinCfg {
            window: Some(objects.total_events() + 1),
            ..Default::default()
        },
    );
    assert_eq!(batch.verdict, windowed.verdict);
    assert_eq!(batch.steps, windowed.steps);
    assert_eq!(batch.inserted, windowed.inserted);
}

/// The acceptance criterion of the windowing layer: peak buffered
/// events never exceed the window, retirement actually drops the
/// window's base-order edges, and the run stays sound (a subset of
/// per-window batch reports — pinned exactly in windowed_proptests).
#[test]
fn windowed_runs_bound_peak_buffered_events() {
    const WINDOW: usize = 100;
    let trace = racy(1);
    assert!(trace.total_events() >= 5 * WINDOW, "workload must overflow");

    let unwindowed = race::predict::<Csst>(&trace, &race::RaceCfg::default());
    assert_eq!(
        unwindowed.window.peak_buffered,
        trace.total_events(),
        "unwindowed prediction buffers the whole trace"
    );
    assert_eq!(unwindowed.window.deleted_edges, 0);

    let cfg = race::RaceCfg {
        window: Some(WINDOW),
        max_candidates: usize::MAX,
        ..Default::default()
    };
    let windowed = race::predict::<IncrementalCsst>(&trace, &cfg);
    let stats = windowed.window;
    assert!(
        stats.peak_buffered <= WINDOW,
        "peak buffered {} must stay within the window {WINDOW}",
        stats.peak_buffered
    );
    assert_eq!(stats.windows, trace.total_events() / WINDOW);
    assert_eq!(stats.retired_events, stats.windows * WINDOW);
    assert!(
        stats.deleted_edges > 0,
        "retirement must drop the window's edges"
    );
    // Every reported race is window-local: both endpoints fell into
    // the same tumbling window, so no report spans a boundary.
    for &(a, b) in &windowed.races {
        let (pa, pb) = (trace.trace_pos(a) as usize, trace.trace_pos(b) as usize);
        assert_eq!(pa / WINDOW, pb / WINDOW, "race {a} {b} spans windows");
    }
}

/// On window-respecting traces — here: every critical section closes
/// inside the window that opened it — windowed runs report exactly
/// what per-window batch analysis reports: a fully protected program
/// stays race-free.
#[test]
fn windowed_runs_stay_sound_on_window_respecting_protected_programs() {
    use csst_trace::TraceBuilder;

    // Two threads alternating *complete* lock-protected sections of
    // three events each: with a window that is a multiple of 6, no
    // section ever straddles a boundary.
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let m = b.lock("m");
    for i in 0..120u64 {
        let t = (i % 2) as u32;
        b.on(t).acquire(m);
        b.on(t).write(x, i);
        b.on(t).release(m);
    }
    let safe = b.build();
    for window in [6, 24, 60] {
        let r = race::predict::<Csst>(
            &safe,
            &race::RaceCfg {
                window: Some(window),
                max_candidates: usize::MAX,
                ..Default::default()
            },
        );
        assert!(r.races.is_empty(), "window {window}: {:?}", r.races);
    }
}

/// The flip side of the contract, pinned so it stays deliberate: a
/// window cut *inside* a critical section drops the acquire from that
/// window's observation, so the accesses legitimately race under the
/// windowed view (each window is an independent execution).
#[test]
fn window_boundary_through_critical_section_drops_protection() {
    use csst_trace::TraceBuilder;

    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let y = b.var("y");
    let m = b.lock("m");
    // Window 1 (events 0–3): padding plus t0's acquire — the window
    // boundary cuts t0's critical section right after the acquire.
    b.on(2).write(y, 1);
    b.on(2).write(y, 2);
    b.on(2).write(y, 3);
    b.on(0).acquire(m);
    // Window 2 (events 4–7): t0's write arrives with its acquire
    // retired, t1's conflicting write inside its own section.
    b.on(0).write(x, 1);
    b.on(0).release(m);
    b.on(1).acquire(m);
    b.on(1).write(x, 2);
    // Window 3 (event 8).
    b.on(1).release(m);
    let trace = b.build();

    let batch = race::predict::<Csst>(&trace, &race::RaceCfg::default());
    assert!(batch.races.is_empty(), "batch sees the protection");

    let windowed = race::predict::<Csst>(
        &trace,
        &race::RaceCfg {
            window: Some(4),
            ..Default::default()
        },
    );
    assert_eq!(
        windowed.races.len(),
        1,
        "the second window starts mid-section: its observation is
         unprotected, exactly as the soundness contract states"
    );
}

/// The genuinely online analyses never buffer: c11's windowed form only
/// bounds the live synchronization state.
#[test]
fn windowed_c11_buffers_nothing_and_stays_window_local() {
    let trace = gen::c11_program(&gen::C11Cfg {
        threads: 5,
        events_per_thread: 200,
        middle_sync_frac: 0.1,
        seed: 4,
        ..Default::default()
    });
    let batch = c11::detect::<Csst>(&trace, &c11::C11Cfg::default());
    assert_eq!(batch.window.peak_buffered, 0, "c11 is genuinely online");

    let windowed = c11::detect::<Csst>(
        &trace,
        &c11::C11Cfg {
            window: Some(150),
            ..Default::default()
        },
    );
    assert_eq!(windowed.window.peak_buffered, 0);
    assert!(windowed.window.deleted_edges > 0 || batch.sw_edges == 0);
    // Window-local sync state: no reported race pairs events of
    // different windows.
    for &(a, b) in &windowed.races {
        let (pa, pb) = (trace.trace_pos(a) as usize, trace.trace_pos(b) as usize);
        assert_eq!(pa / 150, pb / 150, "race {a} {b} spans windows");
    }
}

/// Windowed linearizability carries the specification state across
/// windows: a clean history of non-overlapping operations linearizes
/// under any window size, and a window-local violation is still found.
#[test]
fn windowed_linearizability_carries_state_across_windows() {
    use csst_trace::{Method, TraceBuilder};

    // Sequential-per-op history: add/contains/remove cycles over three
    // threads, each op's invoke and response adjacent, so every window
    // cut falls between operations (any prefix of responses is a legal
    // linearization prefix).
    let mut b = TraceBuilder::new();
    for round in 0..20u64 {
        for t in 0..3u32 {
            let key = u64::from(t) * 100 + round;
            let (_, op) = b.on(t).invoke(Method::Add, key);
            b.on(t).respond(op, 1);
            let (_, op) = b.on(t).invoke(Method::Contains, key);
            b.on(t).respond(op, 1);
            let (_, op) = b.on(t).invoke(Method::Remove, key);
            b.on(t).respond(op, 1);
        }
    }
    let trace = b.build();
    for window in [10, 36, 97] {
        let r = linearizability::analyze::<Csst>(
            &trace,
            &linearizability::LinCfg {
                window: Some(window),
                ..Default::default()
            },
        );
        assert!(
            matches!(r.verdict, linearizability::LinVerdict::Linearizable(_)),
            "window {window}: {:?}",
            r.verdict
        );
        assert!(r.window.peak_buffered <= window);
    }

    // State must genuinely carry: add(7) in the first window, the
    // matching contains(7)/remove(7) far beyond it. A violating
    // remove of a never-added key is still caught, windowed.
    let mut b = TraceBuilder::new();
    let (_, op) = b.on(0).invoke(Method::Add, 7);
    b.on(0).respond(op, 1);
    for i in 0..30u64 {
        let (_, op) = b.on(1).invoke(Method::Add, 1000 + i);
        b.on(1).respond(op, 1);
    }
    let (_, op) = b.on(0).invoke(Method::Contains, 7);
    b.on(0).respond(op, 1);
    let trace = b.build();
    let r = linearizability::analyze::<Csst>(
        &trace,
        &linearizability::LinCfg {
            window: Some(8),
            ..Default::default()
        },
    );
    assert!(
        matches!(r.verdict, linearizability::LinVerdict::Linearizable(_)),
        "carried state must remember add(7): {:?}",
        r.verdict
    );

    let mut b = TraceBuilder::new();
    let (_, op) = b.on(0).invoke(Method::Remove, 5);
    b.on(0).respond(op, 1); // removing from an empty set "succeeds"
    let trace = b.build();
    let r = linearizability::analyze::<Csst>(
        &trace,
        &linearizability::LinCfg {
            window: Some(4),
            ..Default::default()
        },
    );
    assert!(
        matches!(r.verdict, linearizability::LinVerdict::Violation(_)),
        "{:?}",
        r.verdict
    );
}

/// Regression: a fork arriving in a later window than the child's
/// start must still order the window's events — the edge targets the
/// child's first event *of the current window*, matching the
/// per-window batch oracle exactly.
#[test]
fn cross_window_fork_orders_the_forks_window() {
    use csst_trace::TraceBuilder;

    let mut b = TraceBuilder::new();
    let x = b.var("x");
    // Window 1 (events 0–3): the child (t1) already runs.
    b.on(1).write(x, 1);
    b.on(0).write(x, 2);
    b.on(0).write(x, 3);
    b.on(0).write(x, 4);
    // Window 2 (events 4–6): parent writes, forks t1, child writes —
    // within this window the fork orders t0's accesses before t1's.
    b.on(0).write(x, 5);
    b.on(0).fork(1);
    b.on(1).write(x, 6);
    let trace = b.build();

    let cfg = race::RaceCfg {
        window: Some(4),
        max_candidates: usize::MAX,
        ..Default::default()
    };
    let windowed = race::predict::<Csst>(&trace, &cfg);
    // Per-window batch oracle: window 2's sub-trace is
    // w(t0) fork w(t1), whose fork edge orders the conflicting pair —
    // the windowed run must agree and find no window-2 race.
    assert!(
        !windowed
            .races
            .iter()
            .any(|&(a, b)| trace.trace_pos(a) >= 4 && trace.trace_pos(b) >= 4),
        "fork must order its own window: {:?}",
        windowed.races
    );
    // Window 1's unprotected pair (events 0 and 1) is still reported.
    assert!(
        windowed
            .races
            .contains(&(NodeId::new(1, 0), NodeId::new(0, 0))),
        "{:?}",
        windowed.races
    );
}

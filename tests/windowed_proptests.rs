//! Property tests of the bounded-memory windowing layer.
//!
//! The windowed form of a predictive analysis cuts the stream into
//! n-event tumbling windows, analyzes each as an independent execution
//! and retires each window by resetting its base order to a fresh
//! index. These tests interleave `feed` with window retirement (by
//! streaming random traces through windowed analyses, on the
//! insert-only `IncrementalCsst` that `--index csst` runs) and
//! cross-validate every windowed report against the batch oracle
//! *restricted to in-window event pairs*: the batch core run on each
//! window's sub-trace, with local ids remapped to the global ids the
//! windowed run reports. Every windowed `csst` report also equals the
//! windowed `graph` report.
//!
//! They also pin the resource half of the contract: peak buffered
//! events never exceed the window, and neither does any chain of the
//! base order, whose memory stays within a constant times the window
//! however long the stream runs.

use csst_analyses::registry::{self, IndexKind};
use csst_analyses::{membug, race, tso, uaf, BaseOrderBuilder};
use csst_core::{
    Csst, GraphIndex, IncrementalCsst, NodeId, PartialOrderIndex, SegTreeIndex, ThreadId,
    VectorClockIndex,
};
use csst_trace::{gen, Trace};
use proptest::prelude::*;

/// Memory bound of a windowed base order over `THREADS` chains:
/// `memory_bytes() ≤ BYTES_PER_WINDOW_EVENT · window`. The densest
/// representation, `st`, keeps `THREADS²` pair arrays of up to
/// `2 · window` four-byte entries (128 bytes per window event); the
/// rest is a fixed part (pair tables, scratch) that the smallest window
/// tested amortizes. Measured peaks stay below 250 bytes per window
/// event on every representation.
const THREADS: usize = 4;
const BYTES_PER_WINDOW_EVENT: usize = 512;

/// Streams `trace` through a windowed observation builder on `P`:
/// after every retirement every chain fits in the window, and the
/// index's memory, at the window's peak and after its retirement,
/// stays within the bound.
fn assert_bounded_base_order<P: PartialOrderIndex>(
    trace: &Trace,
    window: usize,
) -> Result<(), TestCaseError> {
    let mut builder = BaseOrderBuilder::<P>::observing(Some(window));
    let bound = BYTES_PER_WINDOW_EVENT * window;
    for (id, ev) in trace.iter_order() {
        builder.feed(id.thread, ev.kind);
        if !builder.window_full() {
            continue;
        }
        let peak = builder.po().memory_bytes();
        builder.retire_window();
        let po = builder.po();
        for t in (0..po.chains()).map(ThreadId::from_index) {
            let len = po.chain_len(t);
            prop_assert!(len <= window, "{} {:?}: {} > {}", po.name(), t, len, window);
        }
        let after = po.memory_bytes();
        prop_assert!(
            peak.max(after) <= bound,
            "{}: {} / {} bytes",
            po.name(),
            peak.max(after),
            bound
        );
    }
    prop_assert!(builder.stats().windows >= 100);
    Ok(())
}

/// Cuts `trace` into `n`-event tumbling windows. Each window is
/// returned as its own sub-trace together with the per-thread global
/// offsets of its first events, so window-local ids can be remapped to
/// global ones (`⟨t, i⟩ → ⟨t, offset[t] + i⟩`).
fn windows_of(trace: &Trace, n: usize) -> Vec<(Trace, Vec<u32>)> {
    let threads = trace.num_threads();
    let mut seen = vec![0u32; threads];
    let mut out = Vec::new();
    let mut current = Trace::new(threads);
    let mut offsets = seen.clone();
    for (i, (id, ev)) in trace.iter_order().enumerate() {
        if i > 0 && i % n == 0 {
            out.push((
                std::mem::replace(&mut current, Trace::new(threads)),
                offsets,
            ));
            offsets = seen.clone();
        }
        current.push(id.thread, ev.kind);
        seen[id.thread.index()] += 1;
    }
    if current.total_events() > 0 {
        out.push((current, offsets));
    }
    out
}

fn to_global(offsets: &[u32], id: NodeId) -> NodeId {
    NodeId::new(id.thread, id.pos + offsets[id.thread.index()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over at least 100 windows, every representation's base order
    /// stays within the window: chain lengths after every retirement,
    /// memory at every window's peak and after its retirement.
    #[test]
    fn windowed_base_order_memory_is_bounded_by_the_window(
        seed in 0u64..500,
        window in 16usize..64,
    ) {
        let trace = gen::racy_program(&gen::RacyProgramCfg {
            threads: THREADS,
            events_per_thread: 26 * window,
            vars: 3,
            shared_frac: 0.8,
            seed,
            ..Default::default()
        });
        assert_bounded_base_order::<Csst>(&trace, window)?;
        assert_bounded_base_order::<IncrementalCsst>(&trace, window)?;
        assert_bounded_base_order::<SegTreeIndex>(&trace, window)?;
        assert_bounded_base_order::<VectorClockIndex>(&trace, window)?;
        assert_bounded_base_order::<GraphIndex>(&trace, window)?;
    }

    /// Windowed race prediction reports exactly the batch oracle's
    /// findings per window — no report spans a boundary, none is
    /// invented, none inside a window is lost — and the buffer stays
    /// bounded.
    #[test]
    fn windowed_race_matches_per_window_batch_oracle(
        seed in 0u64..500,
        threads in 2usize..5,
        events_per_thread in 30usize..70,
        window in 20usize..120,
    ) {
        let trace = gen::racy_program(&gen::RacyProgramCfg {
            threads,
            events_per_thread,
            shared_frac: 0.4,
            lock_frac: 0.4,
            seed,
            ..Default::default()
        });
        let cfg = race::RaceCfg {
            max_candidates: usize::MAX,
            window: Some(window),
            ..Default::default()
        };
        let windowed = race::predict::<IncrementalCsst>(&trace, &cfg);

        let oracle_cfg = race::RaceCfg {
            max_candidates: usize::MAX,
            ..Default::default()
        };
        let mut expected_races = Vec::new();
        let mut expected_candidates = 0usize;
        for (sub, offsets) in windows_of(&trace, window) {
            let r = race::predict::<Csst>(&sub, &oracle_cfg);
            expected_candidates += r.candidates;
            expected_races.extend(
                r.races
                    .iter()
                    .map(|&(a, b)| (to_global(&offsets, a), to_global(&offsets, b))),
            );
        }
        prop_assert_eq!(&windowed.races, &expected_races);
        prop_assert_eq!(windowed.candidates, expected_candidates);
        prop_assert!(windowed.window.peak_buffered <= window);
        let full_windows = trace.total_events() / window;
        prop_assert_eq!(windowed.window.windows, full_windows);
        prop_assert_eq!(windowed.window.retired_events, full_windows * window);
    }

    /// Same cross-validation for the memory-bug predictor and the UFO
    /// query generator (which additionally saturates per window).
    #[test]
    fn windowed_membug_and_uaf_match_per_window_batch_oracle(
        seed in 0u64..500,
        window in 25usize..150,
    ) {
        let trace = gen::alloc_program(&gen::AllocProgramCfg {
            threads: 4,
            objects: 40,
            derefs_per_object: 3,
            remote_free_frac: 0.5,
            seed,
            ..Default::default()
        });

        let windowed = membug::predict::<IncrementalCsst>(&trace, &membug::MemBugCfg {
            max_candidates: usize::MAX,
            window: Some(window),
            ..Default::default()
        });
        let mut expected = Vec::new();
        for (sub, offsets) in windows_of(&trace, window) {
            let r = membug::predict::<Csst>(&sub, &membug::MemBugCfg {
                max_candidates: usize::MAX,
                ..Default::default()
            });
            expected.extend(r.bugs.iter().map(|bug| match *bug {
                membug::MemBug::UseAfterFree { obj, use_event, free_event } => {
                    membug::MemBug::UseAfterFree {
                        obj,
                        use_event: to_global(&offsets, use_event),
                        free_event: to_global(&offsets, free_event),
                    }
                }
                membug::MemBug::DoubleFree { obj, first, second } => membug::MemBug::DoubleFree {
                    obj,
                    first: to_global(&offsets, first),
                    second: to_global(&offsets, second),
                },
            }));
        }
        prop_assert_eq!(&windowed.bugs, &expected);
        prop_assert!(windowed.window.peak_buffered <= window);

        let windowed = uaf::generate::<IncrementalCsst>(&trace, &uaf::UafCfg {
            window: Some(window),
            ..Default::default()
        });
        let mut expected = Vec::new();
        let mut pruned = 0usize;
        let mut constraints = 0usize;
        for (sub, offsets) in windows_of(&trace, window) {
            let r = uaf::generate::<Csst>(&sub, &uaf::UafCfg::default());
            pruned += r.pruned;
            constraints += r.total_constraints;
            expected.extend(r.candidates.iter().map(|c| uaf::UafCandidate {
                obj: c.obj,
                use_event: to_global(&offsets, c.use_event),
                free_event: to_global(&offsets, c.free_event),
                constraints: c.constraints,
            }));
        }
        prop_assert_eq!(&windowed.candidates, &expected);
        prop_assert_eq!(windowed.pruned, pruned);
        prop_assert_eq!(windowed.total_constraints, constraints);
    }

    /// A windowed `--index csst` run retires windows by resetting its
    /// base order, on `IncrementalCsst` for race, deadlock, membug, uaf
    /// and tso and on `Csst` for c11; its reports must equal the graph
    /// oracle's, line for line.
    #[test]
    fn windowed_csst_matches_graph_oracle(
        seed in 0u64..500,
        window in 20usize..120,
    ) {
        let traces = [
            ("race", gen::racy_program(&gen::RacyProgramCfg {
                threads: 4,
                events_per_thread: 60,
                vars: 3,
                write_frac: 0.4,
                shared_frac: 0.8,
                lock_frac: 0.3,
                seed,
                ..Default::default()
            })),
            ("deadlock", gen::lock_program(&gen::LockProgramCfg {
                threads: 4,
                blocks_per_thread: 20,
                inversion_frac: 0.2,
                seed,
                ..Default::default()
            })),
            ("membug", gen::alloc_program(&gen::AllocProgramCfg {
                threads: 4,
                objects: 30,
                remote_free_frac: 0.5,
                seed,
                ..Default::default()
            })),
            ("uaf", gen::alloc_program(&gen::AllocProgramCfg {
                threads: 4,
                objects: 30,
                remote_free_frac: 0.6,
                seed,
                ..Default::default()
            })),
            ("tso", gen::tso_history(&gen::TsoCfg {
                threads: 4,
                events_per_thread: 60,
                vars: 3,
                seed,
                ..Default::default()
            })),
            ("c11", gen::c11_program(&gen::C11Cfg {
                threads: 4,
                events_per_thread: 60,
                middle_sync_frac: 0.1,
                seed,
                ..Default::default()
            })),
        ];
        for (name, trace) in &traces {
            let entry = registry::find(name).unwrap();
            let csst = entry.run(trace, IndexKind::Csst, Some(window)).unwrap();
            let graph = entry.run(trace, IndexKind::Graph, Some(window)).unwrap();
            prop_assert_eq!(&csst.lines, &graph.lines, "{} window {}", name, window);
            prop_assert_eq!(&csst.summary, &graph.summary, "{} window {}", name, window);
            prop_assert_eq!(csst.exit_code, graph.exit_code, "{} window {}", name, window);
        }
    }

    /// Windowed TSO checking drops cross-window observations instead of
    /// misreading them: histories produced by a real TSO machine stay
    /// consistent under every window size.
    #[test]
    fn windowed_tso_accepts_machine_histories(
        seed in 0u64..500,
        window in 15usize..200,
    ) {
        let trace = gen::tso_history(&gen::TsoCfg {
            threads: 4,
            events_per_thread: 80,
            vars: 3,
            seed,
            ..Default::default()
        });
        let r = tso::check::<IncrementalCsst>(&trace, &tso::TsoCheckCfg {
            window: Some(window),
            ..Default::default()
        });
        prop_assert!(r.consistent, "windowed checker rejected a TSO machine history");
        prop_assert!(r.window.peak_buffered <= window);
    }
}

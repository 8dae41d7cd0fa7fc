//! Property tests of the sharded hb pipeline: for random generated
//! traces and every shard count, `ShardedHb` must report *exactly* what
//! the sequential detector reports — same races in the same order,
//! same counters.
//!
//! This is the correctness contract of `csst-serve`'s multi-core hb
//! ingest (see `crates/serve`): sharding is an execution strategy, not
//! an approximation. Runs with `PROPTEST_CASES=16` in CI.

use csst_analyses::hb;
use csst_core::VectorClockIndex;
use csst_serve::{ShardCfg, ShardedHb};
use csst_trace::gen;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded streaming HB detection equals the sequential detector
    /// for shard counts 1, 2 and 4: identical race lists (order
    /// included) and identical sync-edge counts.
    #[test]
    fn sharded_hb_matches_sequential(
        seed in 0u64..500,
        threads in 2usize..6,
        events_per_thread in 30usize..120,
        vars in 2usize..8,
        small_batches in 0u8..2,
    ) {
        let trace = gen::racy_program(&gen::RacyProgramCfg {
            threads,
            events_per_thread,
            vars,
            lock_frac: 0.5,
            shared_frac: 0.4,
            seed,
            ..Default::default()
        });
        let sequential = hb::detect::<VectorClockIndex>(&trace);
        for shards in [1usize, 2, 4] {
            // Small batches/epochs exercise the watermark protocol
            // mid-stream rather than only at the final flush.
            let cfg = if small_batches == 1 {
                ShardCfg { batch: 4, epoch_events: 16, ..ShardCfg::with_shards(shards) }
            } else {
                ShardCfg::with_shards(shards)
            };
            let sharded = ShardedHb::<VectorClockIndex>::run(&trace, cfg)
                .expect("fault-free run");
            prop_assert_eq!(&sharded.races, &sequential.races,
                "races diverge at {} shard(s)", shards);
            prop_assert_eq!(sharded.sync_edges, sequential.sync_edges,
                "sync edges diverge at {} shard(s)", shards);
            prop_assert_eq!(sharded.events as usize, trace.total_events());
        }
    }
}

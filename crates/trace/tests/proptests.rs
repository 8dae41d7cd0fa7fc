//! Property tests for the trace substrate: text-format round trips over
//! arbitrary event sequences and linearization invariants.

use csst_core::{NodeId, ThreadId, MAX_CHAINS};
use csst_trace::sc::{is_acyclic, linearize};
use csst_trace::{EventKind, LockId, MemOrder, Method, ObjId, OpId, Trace, VarId};
use proptest::prelude::*;

fn arb_order() -> impl Strategy<Value = MemOrder> {
    prop_oneof![
        Just(MemOrder::Relaxed),
        Just(MemOrder::Acquire),
        Just(MemOrder::Release),
        Just(MemOrder::AcqRel),
        Just(MemOrder::SeqCst),
    ]
}

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (0u32..8, 0u64..100).prop_map(|(v, val)| EventKind::Read {
            var: VarId(v),
            value: val
        }),
        (0u32..8, 0u64..100).prop_map(|(v, val)| EventKind::Write {
            var: VarId(v),
            value: val
        }),
        (0u32..4).prop_map(|l| EventKind::Acquire { lock: LockId(l) }),
        (0u32..4).prop_map(|l| EventKind::Release { lock: LockId(l) }),
        (0u32..5).prop_map(|t| EventKind::Fork { child: ThreadId(t) }),
        (0u32..5).prop_map(|t| EventKind::Join { child: ThreadId(t) }),
        (0u32..6).prop_map(|o| EventKind::Alloc { obj: ObjId(o) }),
        (0u32..6).prop_map(|o| EventKind::Free { obj: ObjId(o) }),
        (0u32..6, any::<bool>()).prop_map(|(o, w)| EventKind::Deref {
            obj: ObjId(o),
            write: w
        }),
        (0u32..8, arb_order(), 0u64..100).prop_map(|(v, o, val)| EventKind::AtomicLoad {
            var: VarId(v),
            order: o,
            value: val
        }),
        (0u32..8, arb_order(), 0u64..100).prop_map(|(v, o, val)| EventKind::AtomicStore {
            var: VarId(v),
            order: o,
            value: val
        }),
        (0u32..8, arb_order(), 0u64..100, 0u64..100).prop_map(|(v, o, r, w)| {
            EventKind::AtomicRmw {
                var: VarId(v),
                order: o,
                read: r,
                write: w,
            }
        }),
        arb_order().prop_map(|o| EventKind::Fence { order: o }),
        (0u32..20, 0u64..10).prop_map(|(op, a)| EventKind::Invoke {
            op: OpId(op),
            method: Method::Add,
            arg: a
        }),
        (0u32..20, 0u64..2).prop_map(|(op, r)| EventKind::Response {
            op: OpId(op),
            result: r
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Decoder totality under corruption: take a valid CSTB stream,
    /// apply arbitrary byte flips, overwrites and truncation, and both
    /// binary entry points must return a value or a positioned error —
    /// never panic. This is the property `csst-serve` leans on when an
    /// injected fault corrupts an EVENTS frame mid-session.
    #[test]
    fn binary_decoding_survives_arbitrary_corruption(
        events in prop::collection::vec((0u32..5, arb_kind()), 0..60),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..12),
        cut in any::<usize>()
    ) {
        let mut trace = Trace::new(5);
        for (t, kind) in events {
            trace.push(t, kind);
        }
        // parse() input: the full file (header + records); decode_events()
        // input: a headerless record stream, as carried by EVENTS frames.
        let file = csst_trace::binary::write(&trace);
        let mut records = Vec::new();
        for (id, ev) in trace.iter_order() {
            csst_trace::binary::encode_event(id.thread, &ev.kind, &mut records);
        }
        for mut bytes in [file, records] {
            for &(pos, byte) in &flips {
                if !bytes.is_empty() {
                    let pos = pos % bytes.len();
                    bytes[pos] ^= byte;
                }
            }
            if !bytes.is_empty() {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            // A value or an error — any panic fails the test harness.
            let _ = csst_trace::binary::parse(&bytes);
            let _ = csst_trace::binary::decode_events(&bytes);
        }
    }

    /// The text and RAPID parsers are total: byte flips and truncation
    /// of a rendering give a trace or a positioned `ParseError`, never a
    /// panic. Some events sit on threads around the index's chain bound,
    /// so the text parser must also reject every id an index cannot
    /// address.
    #[test]
    fn text_and_rapid_parsing_survive_arbitrary_corruption(
        events in prop::collection::vec(
            (prop_oneof![15 => 0u32..5, 1 => 60_000u32..70_000], arb_kind()),
            0..60,
        ),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        cut in prop::option::of(any::<usize>())
    ) {
        let mut trace = Trace::new(5);
        for (t, kind) in events {
            trace.push(t, kind);
        }
        type Parse = fn(&str) -> Result<Trace, csst_trace::text::ParseError>;
        let renderings: [(&str, Parse, String); 2] = [
            ("text", csst_trace::text::parse, csst_trace::text::write(&trace)),
            ("rapid", csst_trace::rapid::parse, csst_trace::rapid::write(&trace)),
        ];
        for (name, parse, rendering) in renderings {
            let mut bytes = rendering.into_bytes();
            for &(pos, byte) in &flips {
                if !bytes.is_empty() {
                    let pos = pos % bytes.len();
                    bytes[pos] ^= byte;
                }
            }
            if let Some(cut) = cut {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            // A value or an error — any panic fails the test harness.
            if let Ok(parsed) = parse(&String::from_utf8_lossy(&bytes)) {
                prop_assert!(parsed.num_threads() <= MAX_CHAINS, "{}", name);
                for (id, _) in parsed.iter_order() {
                    prop_assert!(id.thread.index() < MAX_CHAINS, "{}: {}", name, id.thread);
                }
            }
        }
    }

    #[test]
    fn text_roundtrip_any_events(
        events in prop::collection::vec((0u32..5, arb_kind()), 0..120)
    ) {
        let mut trace = Trace::new(5);
        for (t, kind) in events {
            trace.push(t, kind);
        }
        let serialized = csst_trace::text::write(&trace);
        let parsed = csst_trace::text::parse(&serialized).expect("own output parses");
        prop_assert_eq!(trace.order(), parsed.order());
        for (id, ev) in trace.iter_order() {
            prop_assert_eq!(&ev.kind, parsed.kind(id));
        }
    }

    #[test]
    fn linearize_respects_all_edges_or_detects_cycle(
        lens in prop::collection::vec(1usize..8, 2..5),
        raw_edges in prop::collection::vec((0usize..5, 0u32..8, 0usize..5, 0u32..8), 0..25)
    ) {
        let k = lens.len();
        let edges: Vec<(NodeId, NodeId)> = raw_edges
            .into_iter()
            .filter_map(|(t1, i1, t2, i2)| {
                let (t1, t2) = (t1 % k, t2 % k);
                if t1 == t2 {
                    return None;
                }
                let i1 = i1 % lens[t1] as u32;
                let i2 = i2 % lens[t2] as u32;
                Some((
                    NodeId::new(t1 as u32, i1),
                    NodeId::new(t2 as u32, i2),
                ))
            })
            .collect();
        match linearize(&lens, &edges) {
            Some(order) => {
                // Complete, duplicate-free, respects po and edges.
                prop_assert_eq!(order.len(), lens.iter().sum::<usize>());
                let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
                for (t, &len) in lens.iter().enumerate() {
                    for i in 1..len {
                        prop_assert!(
                            pos(NodeId::new(t as u32, (i - 1) as u32))
                                < pos(NodeId::new(t as u32, i as u32))
                        );
                    }
                }
                for (u, v) in edges {
                    prop_assert!(pos(u) < pos(v), "{} must precede {}", u, v);
                }
            }
            None => {
                // There must be a genuine cycle: verify by exhaustive
                // closure over the (tiny) node set.
                prop_assert!(!is_acyclic(&lens, &edges));
                let mut reach = std::collections::HashSet::new();
                for (u, v) in &edges {
                    reach.insert((*u, *v));
                }
                // Saturate with program order + transitivity.
                let nodes: Vec<NodeId> = (0..k)
                    .flat_map(|t| (0..lens[t] as u32).map(move |i| NodeId::new(t as u32, i)))
                    .collect();
                loop {
                    let mut grew = false;
                    let pairs: Vec<(NodeId, NodeId)> = reach.iter().copied().collect();
                    for &(a, b) in &pairs {
                        for &c in &nodes {
                            let po_bc = b.thread == c.thread && b.pos <= c.pos;
                            let bc = po_bc || reach.contains(&(b, c));
                            if bc && reach.insert((a, c)) {
                                grew = true;
                            }
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                // A cycle exists iff some a reaches a node b that is
                // po-at-or-before a on a's own chain (covers a == b).
                let has_cycle = reach
                    .iter()
                    .any(|&(a, b)| a.thread == b.thread && b.pos <= a.pos);
                prop_assert!(has_cycle, "linearize refused an acyclic graph");
            }
        }
    }
}

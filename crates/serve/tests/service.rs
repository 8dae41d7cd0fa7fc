//! End-to-end service tests: a real `Server` on loopback, real client
//! sessions over TCP, reports cross-checked against the batch
//! registry.

use csst_analyses::registry::{self, IndexKind};
use csst_serve::proto::{read_frame, write_frame, WireFormat, T_ERROR, T_EVENTS, T_HELLO, T_OK};
use csst_serve::{Client, Hello, Server};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Binds a server on an OS-chosen port and runs it on a background
/// thread; returns the connectable address and the join handle.
fn spawn_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("tcp:127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn batch_report(analysis: &str, index: &str, window: Option<usize>) -> (u8, String, Vec<String>) {
    let entry = registry::find(analysis).unwrap();
    let out = entry
        .run(
            &entry.demo_trace(),
            IndexKind::parse(index).unwrap(),
            window,
        )
        .unwrap();
    (out.exit_code, out.summary, out.lines)
}

/// Every registry analysis × every index × window {none, 64}, streamed
/// as a session over its demo trace. A combination the registry cannot
/// open fails at HELLO with the registry's message; every other one
/// counts the events fed and reports exactly what the batch run
/// reports.
#[test]
fn every_registry_session_matches_batch() {
    let (addr, handle) = spawn_server();
    for entry in registry::entries() {
        let trace = entry.demo_trace();
        for index in IndexKind::ALL {
            for window in [None, Some(64)] {
                let case = format!("{} on {} with window {window:?}", entry.name, index.name());
                let hello = Hello {
                    analysis: entry.name.into(),
                    index: index.name().into(),
                    window,
                    ..Hello::default()
                };
                if let Err(msg) = entry.open(index, window) {
                    let err = Client::open(&addr, &hello)
                        .err()
                        .unwrap_or_else(|| panic!("{case}: HELLO must fail"));
                    assert_eq!(err.to_string(), format!("protocol: {msg}"), "{case}");
                    continue;
                }
                // The batch run overlaps the session: graph runs of the
                // larger demos take seconds in unoptimized builds.
                let (report, out) = std::thread::scope(|s| {
                    let batch = s.spawn(|| entry.run(&trace, index, window).unwrap());
                    let mut client = Client::open(&addr, &hello).expect("open session");
                    client.send_trace(&trace).expect("send");
                    let events = client.query("events").expect("events query");
                    assert_eq!(events, trace.total_events().to_string(), "{case}");
                    (client.finish().expect("report"), batch.join().unwrap())
                });
                assert_eq!(
                    (report.exit_code, report.summary, report.lines),
                    (out.exit_code, out.summary, out.lines),
                    "{case}"
                );
            }
        }
    }
    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

#[test]
fn concurrent_sessions_match_batch_and_shutdown_is_clean() {
    let (addr, handle) = spawn_server();

    // Two concurrent sessions with different analyses and formats,
    // plus online queries on both.
    let addr_hb = addr.clone();
    let hb_session = std::thread::spawn(move || {
        let hello = Hello::default();
        let mut client = Client::open(&addr_hb, &hello).expect("open hb session");
        let trace = registry::find("hb").unwrap().demo_trace();
        client.send_trace(&trace).expect("send");
        let events = client.query("events").expect("events query");
        assert_eq!(events, trace.total_events().to_string());
        let races = client.query("races").expect("races query");
        assert!(races.parse::<usize>().unwrap() > 0, "demo has hb races");
        client.finish().expect("hb report")
    });
    let addr_race = addr.clone();
    let race_session = std::thread::spawn(move || {
        let hello = Hello {
            analysis: "race".into(),
            format: WireFormat::Text,
            ..Hello::default()
        };
        let mut client = Client::open(&addr_race, &hello).expect("open race session");
        client
            .send_trace(&registry::find("race").unwrap().demo_trace())
            .expect("send");
        // Unwindowed, races are predicted at FINISH only.
        assert_eq!(client.query("races").expect("races query"), "0");
        client.finish().expect("race report")
    });

    let hb_report = hb_session.join().unwrap();
    let (code, summary, lines) = batch_report("hb", "csst", None);
    assert_eq!(hb_report.exit_code, code);
    assert_eq!(hb_report.summary, summary);
    assert_eq!(hb_report.lines, lines);

    let race_report = race_session.join().unwrap();
    let (code, summary, lines) = batch_report("race", "csst", None);
    assert_eq!(race_report.exit_code, code);
    assert_eq!(race_report.summary, summary);
    assert_eq!(race_report.lines, lines);

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// Transport regression guard: a QUERY round trip over TCP must not
/// wait on delayed ACKs. Split frame writes without TCP_NODELAY cost
/// about 80 ms per round trip (at least 16 s for these 200), so the 2 s
/// bound catches the stall, not a slow host.
#[test]
fn tcp_query_round_trips_do_not_stall() {
    let (addr, handle) = spawn_server();
    let mut client = Client::open(&addr, &Hello::default()).expect("open hb session");
    let trace = registry::find("hb").unwrap().demo_trace();
    client.send_trace(&trace).expect("send");
    let events = trace.total_events().to_string();

    let start = Instant::now();
    for _ in 0..200 {
        assert_eq!(client.query("events").expect("events query"), events);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 QUERY round trips took {elapsed:?}"
    );

    client.finish().expect("hb report");
    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// A windowed `race`/`csst` session runs `RacePredictor<Csst,
/// IncrementalCsst>`: the deleting base order on the fully dynamic
/// CSST, the witness closures on the incremental one. Its `races`
/// query counts the races of completed windows, and its report must
/// equal the batch CLI's.
#[test]
fn windowed_race_session_with_incremental_witnesses_matches_batch() {
    let (addr, handle) = spawn_server();
    let hello = Hello {
        analysis: "race".into(),
        window: Some(64),
        ..Hello::default()
    };
    let mut client = Client::open(&addr, &hello).expect("open race session");
    client
        .send_trace(&registry::find("race").unwrap().demo_trace())
        .expect("send");
    let so_far: usize = client.query("races").expect("races query").parse().unwrap();
    let report = client.finish().expect("race report");
    let (code, summary, lines) = batch_report("race", "csst", Some(64));
    assert!(!lines.is_empty(), "the windowed demo must predict races");
    assert!(
        so_far > 0 && so_far <= lines.len(),
        "{so_far} races of completed windows, {} in all",
        lines.len()
    );
    assert_eq!(
        (report.exit_code, report.summary, report.lines),
        (code, summary, lines)
    );

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

#[test]
fn batch_fallback_windowed_and_query_errors() {
    let (addr, handle) = spawn_server();

    // A windowed deadlock session over the rapid format matches the
    // local registry run.
    let hello = Hello {
        analysis: "deadlock".into(),
        format: WireFormat::Rapid,
        window: Some(128),
        ..Hello::default()
    };
    let mut client = Client::open(&addr, &hello).expect("open session");
    let demo = registry::find("deadlock").unwrap().demo_trace();
    client.send_trace(&demo).expect("send");
    // deadlock answers only `events`; an unknown query errors without
    // ending the session.
    let err = client.query("races").unwrap_err().to_string();
    assert!(err.starts_with("query: unknown query `races`"), "{err}");
    let report = client.finish().expect("report");
    // The rapid format interns thread/lock ids by order of appearance,
    // so the server analyzed the *relabeled* trace; compare against
    // the batch run over the same round-trip.
    let relabeled = csst_trace::rapid::parse(&csst_trace::rapid::write(&demo)).unwrap();
    let out = registry::find("deadlock")
        .unwrap()
        .run(&relabeled, IndexKind::Csst, Some(128))
        .unwrap();
    assert_eq!(
        (report.exit_code, report.summary, report.lines),
        (out.exit_code, out.summary, out.lines)
    );

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

#[test]
fn bad_hello_and_malformed_events_are_session_errors() {
    let (addr, handle) = spawn_server();
    let tcp = addr.strip_prefix("tcp:").unwrap();

    // Unknown analysis: ERROR at HELLO.
    let hello = Hello {
        analysis: "frobnicate".into(),
        ..Default::default()
    };
    let err = match Client::open(&addr, &hello) {
        Err(e) => e,
        Ok(_) => panic!("unknown analysis must fail"),
    };
    assert!(err.to_string().contains("unknown analysis"), "{err}");

    // hb rejects windowing, like the batch registry.
    let hello = Hello {
        analysis: "hb".into(),
        window: Some(10),
        ..Default::default()
    };
    assert!(Client::open(&addr, &hello).is_err());

    // Malformed binary EVENTS payload: ERROR, session ends, server
    // lives on.
    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, Hello::default().encode().as_slice()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    write_frame(&mut stream, T_EVENTS, &[0xFF, 0xFF, 0xFF]).unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(tag, T_ERROR);
    assert!(!payload.is_empty());

    // A garbage (non-framed) byte stream must not take the server
    // down either.
    let mut stream = TcpStream::connect(tcp).unwrap();
    stream.write_all(b"\x03\x00\x00").unwrap(); // truncated prefix
    drop(stream);

    // The server still serves a full session afterwards.
    let mut client = Client::open(&addr, &Hello::default()).expect("server still alive");
    client
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");
    assert!(client.finish().is_ok());

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

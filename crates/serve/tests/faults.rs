//! Fault-injection tests: a real `Server` on loopback with a
//! deterministic [`FaultPlan`], proving the containment boundaries —
//! one component fails, one session recovers or errors, everything
//! else (including the final SHUTDOWN exit) is unaffected.

use csst_analyses::registry::{self, IndexKind};
use csst_serve::proto::{
    read_frame, write_frame, Hello, Report, WireFormat, MAX_FRAME, T_ANSWER, T_ERROR, T_EVENTS,
    T_FINISH, T_HELLO, T_OK, T_QUERY, T_REPORT,
};
use csst_serve::{Client, FaultPlan, ServeError, Server, ServerCfg};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;

/// Binds a server with `cfg` on an OS-chosen port and runs it on a
/// background thread.
fn spawn_server_with(cfg: ServerCfg) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind_with("tcp:127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn batch_report(analysis: &str) -> (u8, String, Vec<String>) {
    let entry = registry::find(analysis).unwrap();
    let out = entry
        .run(&entry.demo_trace(), IndexKind::Csst, None)
        .unwrap();
    (out.exit_code, out.summary, out.lines)
}

fn run_hb_session(addr: &str) -> csst_serve::Report {
    let mut client = Client::open(addr, &Hello::default()).expect("open hb session");
    client
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");
    client.finish().expect("hb report")
}

/// A panic inside one session's analysis ends that session with a
/// `panic:` ERROR and nothing else: an hb session opened before it
/// still finishes byte-identical to the batch CLI, and the server still
/// exits 0 on SHUTDOWN.
#[test]
fn session_panic_spares_an_open_healthy_session() {
    let faults = FaultPlan::parse("panic-events=1").unwrap();
    let cfg = ServerCfg {
        faults: faults.clone(),
        ..Default::default()
    };
    let (addr, handle) = spawn_server_with(cfg);

    // Opened first; it sends no EVENTS frame until the victim is gone.
    let mut healthy = Client::open(&addr, &Hello::default()).expect("open healthy session");

    let hello = Hello {
        analysis: "race".into(),
        ..Hello::default()
    };
    let mut victim = Client::open(&addr, &hello).expect("open victim session");
    let err = victim
        .send_trace(&registry::find("race").unwrap().demo_trace())
        .and_then(|()| victim.finish())
        .expect_err("the victim session must fail");
    let msg = err.to_string();
    assert!(msg.starts_with("panic:"), "{msg}");
    assert!(msg.contains("injected fault"), "{msg}");
    assert_eq!(faults.fired(), 1, "the injected panic must have hit");

    healthy
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");
    let report = healthy.finish().expect("healthy report");
    let (code, summary, lines) = batch_report("hb");
    assert_eq!(
        (report.exit_code, report.summary, report.lines),
        (code, summary, lines)
    );

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// Satellite: oversized, truncated and unknown-type frames each get a
/// structured `protocol:` ERROR and a clean close — while a healthy
/// session opened *before* the attacks completes unaffected afterwards.
#[test]
fn malformed_frames_get_structured_errors_and_spare_other_sessions() {
    let (addr, handle) = spawn_server_with(ServerCfg::default());
    let tcp = addr.strip_prefix("tcp:").unwrap();

    // The healthy session: opened first, finished last.
    let hello = Hello::default();
    let mut healthy = Client::open(&addr, &hello).expect("open healthy session");
    healthy
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");

    // Oversized frame: a length prefix above MAX_FRAME.
    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, &Hello::default().encode()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    stream
        .write_all(&((MAX_FRAME as u32) + 10).to_le_bytes())
        .unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
    assert_eq!(tag, T_ERROR);
    let msg = String::from_utf8(payload).unwrap();
    assert!(msg.starts_with("protocol:"), "{msg}");
    assert!(msg.contains("exceeds"), "{msg}");
    assert_eq!(read_frame(&mut stream).unwrap(), None, "clean close");

    // Unknown frame tag.
    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, &Hello::default().encode()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    write_frame(&mut stream, 0x77, b"").unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
    assert_eq!(tag, T_ERROR);
    let msg = String::from_utf8(payload).unwrap();
    assert!(msg.starts_with("protocol: unexpected frame tag"), "{msg}");

    // Truncated frame: half a length prefix, then write-side close.
    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, &Hello::default().encode()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    stream.write_all(&[0x44, 0x00]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
    assert_eq!(tag, T_ERROR);
    let msg = String::from_utf8(payload).unwrap();
    assert!(msg.starts_with("protocol:"), "{msg}");

    // The healthy session was unaffected by all three.
    let report = healthy.finish().expect("healthy report");
    let (code, summary, lines) = batch_report("hb");
    assert_eq!(
        (report.exit_code, report.summary, report.lines),
        (code, summary, lines)
    );

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// An injected corrupt-events fault must surface as a structured
/// `decode:` ERROR (never a panic), end only that session, and leave
/// the server serving.
#[test]
fn injected_frame_corruption_is_a_decode_error() {
    let cfg = ServerCfg {
        faults: FaultPlan::parse("corrupt-events=1").unwrap(),
        ..Default::default()
    };
    let (addr, handle) = spawn_server_with(cfg);
    let tcp = addr.strip_prefix("tcp:").unwrap();

    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, &Hello::default().encode()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    let mut payload = Vec::new();
    let trace = registry::find("hb").unwrap().demo_trace();
    for (id, ev) in trace.iter_order() {
        csst_trace::binary::encode_event(id.thread, &ev.kind, &mut payload);
    }
    write_frame(&mut stream, T_EVENTS, &payload).unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
    assert_eq!(tag, T_ERROR);
    let msg = String::from_utf8(payload).unwrap();
    assert!(msg.starts_with("decode:"), "{msg}");

    // The server is still healthy.
    let report = run_hb_session(&addr);
    let (code, ..) = batch_report("hb");
    assert_eq!(report.exit_code, code);

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// A text EVENTS frame naming a thread id beyond the decoders' bound
/// is a `decode:` ERROR for that session only. Honoring `t4000000000`
/// would size the thread table to 4·10⁹ chains, an allocation failure
/// that aborts the whole server rather than unwinding one session;
/// `t70000` lies past the chains an index can address, and would
/// panic inside the analysis.
#[test]
fn huge_text_thread_id_is_a_decode_error_and_spares_the_server() {
    let (addr, handle) = spawn_server_with(ServerCfg::default());
    let text_hello = Hello {
        format: WireFormat::Text,
        ..Hello::default()
    };

    for events in [&b"t4000000000 w x0 1\n"[..], b"t70000 w x0 1\n"] {
        let mut client = Client::open(&addr, &text_hello).expect("open text session");
        client
            .send_events_raw(events)
            .expect("the frame is delivered");
        let err = client.finish().unwrap_err();
        assert!(err.to_string().starts_with("decode:"), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    // A second session on the same server still matches batch.
    let mut client = Client::open(&addr, &text_hello).expect("open second session");
    client
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");
    let report = client.finish().expect("hb report");
    let (code, summary, lines) = batch_report("hb");
    assert_eq!(
        (report.exit_code, report.summary, report.lines),
        (code, summary, lines)
    );

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// A session the server already closed with a structured ERROR must
/// report that ERROR at the next QUERY, not the bare broken pipe or
/// connection reset that the QUERY's write runs into.
#[test]
fn query_after_a_fatal_error_surfaces_the_server_error() {
    // One session slot: a second session opens only once the server
    // has dropped the first one's socket.
    let cfg = ServerCfg {
        faults: FaultPlan::parse("corrupt-events=1").unwrap(),
        max_sessions: 1,
        ..Default::default()
    };
    let (addr, handle) = spawn_server_with(cfg);

    let mut client = Client::open(&addr, &Hello::default()).expect("open session");
    client
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("the corrupt frame is still delivered");
    let next = loop {
        match Client::open(&addr, &Hello::default()) {
            Ok(next) => break next,
            Err(e) if e.to_string().starts_with("unavailable:") => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected open error: {e}"),
        }
    };
    // The server's socket is closed now. This frame goes out in one
    // write, which succeeds but draws a reset, so the QUERY's own
    // write fails.
    client
        .send_events_raw(b"")
        .expect("the first write after the close succeeds");
    let err = client.query("events").unwrap_err();
    assert!(err.to_string().starts_with("decode:"), "{err}");

    assert!(next.finish().is_ok());
    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// Client-side reconnect: `open_with_retry` rides out a server that is
/// still starting up.
#[test]
fn open_with_retry_waits_for_a_late_server() {
    let dir = std::env::temp_dir().join(format!("csst-retry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("late.sock");
    let addr = format!("unix:{}", sock.display());

    // The server binds only after a delay; the first attempts fail
    // with NotFound/ConnectionRefused and must be retried.
    let server_addr = addr.clone();
    let server = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(300));
        let server = Server::bind(&server_addr).expect("late bind");
        server.run()
    });

    let mut client = Client::open_with_retry(&addr, &Hello::default(), 10)
        .expect("retry until the server is up");
    client
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");
    assert!(client.finish().is_ok());

    Client::shutdown_server(&addr).expect("shutdown");
    server.join().unwrap().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One client action of [`session_protocol_is_total_over_frame_orders`].
#[derive(Debug, Clone, Copy)]
enum Step {
    Hello { valid: bool },
    Events { valid: bool },
    Query { known: bool },
    Finish,
    UnknownTag,
    Oversized,
    Truncated,
}

/// Draws one connection's script. A truncated frame ends it, since it
/// is followed by EOF; FINISH ends it with [`after_finish`].
fn draw_script(rng: &mut SmallRng) -> Vec<Step> {
    let mut script = Vec::new();
    for _ in 0..rng.gen_range(1..9) {
        let step = match rng.gen_range(0..16) {
            0..=3 => Step::Hello {
                valid: rng.gen_bool(0.7),
            },
            4..=8 => Step::Events {
                valid: rng.gen_bool(0.7),
            },
            9..=11 => Step::Query {
                known: rng.gen_bool(0.6),
            },
            12 => Step::Finish,
            13 => Step::UnknownTag,
            14 => Step::Oversized,
            _ => Step::Truncated,
        };
        script.push(step);
        match step {
            Step::Finish => {
                script.extend(after_finish(rng));
                break;
            }
            Step::Truncated => break,
            _ => {}
        }
    }
    script
}

/// A script that reaches FINISH on an open session.
fn finishing_script(rng: &mut SmallRng) -> Vec<Step> {
    let mut script = vec![
        Step::Hello { valid: true },
        Step::Events { valid: true },
        Step::Query { known: true },
        Step::Finish,
    ];
    script.extend(after_finish(rng));
    script
}

/// What follows FINISH: a QUERY, an EVENTS frame and garbage, which the
/// server must discard unread after its REPORT.
fn after_finish(rng: &mut SmallRng) -> [Step; 3] {
    [
        Step::Query {
            known: rng.gen_bool(0.5),
        },
        Step::Events {
            valid: rng.gen_bool(0.5),
        },
        [Step::UnknownTag, Step::Oversized][rng.gen_range(0..2usize)],
    ]
}

/// The session protocol is total over frame *orders*: 64 connections,
/// each a seeded random script of HELLOs (valid or not, possibly
/// twice), EVENTS (valid or garbage, also before HELLO), QUERYs (known
/// or not), FINISH, unknown tags, oversized length prefixes and
/// truncated frames, then 16 scripts that reach FINISH on an open
/// session. Every FINISH is followed by a QUERY, EVENTS and garbage.
/// Every other connection writes its script in seeded chunks of 1–16
/// bytes, the rest in one write.
/// Every reply is OK, ANSWER, REPORT or an ERROR with a
/// [`ServeError::code`] other than `panic`. A session-fatal ERROR or a
/// REPORT is the last frame of its connection, a REPORT decodes, and
/// every connection ends in EOF, never a reset. An hb session opened
/// before the run still reports byte for byte what the batch CLI does,
/// and SHUTDOWN still stops the server cleanly.
#[test]
fn session_protocol_is_total_over_frame_orders() {
    let (addr, handle) = spawn_server_with(ServerCfg::default());
    let tcp = addr.strip_prefix("tcp:").unwrap();
    let hb = registry::find("hb").unwrap();
    let mut healthy = Client::open(&addr, &Hello::default()).expect("open healthy session");

    let codes: Vec<&'static str> = [
        ServeError::Io(std::io::Error::other("")),
        ServeError::Protocol(String::new()),
        ServeError::Decode(String::new()),
        ServeError::Query(String::new()),
        ServeError::Deadline {
            what: "",
            after: std::time::Duration::ZERO,
        },
        ServeError::Unavailable(String::new()),
    ]
    .iter()
    .map(ServeError::code)
    .collect();
    let valid_hellos = [
        Hello::default(),
        Hello {
            index: "vc".into(),
            ..Hello::default()
        },
        Hello {
            analysis: "race".into(),
            window: Some(64),
            ..Hello::default()
        },
    ];
    let invalid_hellos: [&[u8]; 5] = [
        b"analysis=nope",
        b"index=quantum",
        b"window=0",
        b"no-equals-sign",
        b"\xff\xfe",
    ];
    let events: Vec<_> = hb
        .demo_trace()
        .iter_order()
        .map(|(id, ev)| (id.thread, ev.kind))
        .collect();

    let mut seen = std::collections::BTreeSet::new();
    let mut reports = 0;
    let mut rng = SmallRng::seed_from_u64(0x70_7A1);
    let mut split_rng = SmallRng::seed_from_u64(0x5_9117);
    for conn in 0..80 {
        let script = if conn < 64 {
            draw_script(&mut rng)
        } else {
            finishing_script(&mut rng)
        };
        let mut out = Vec::new();
        let mut cursor = 0;
        for &step in &script {
            match step {
                Step::Hello { valid: true } => {
                    let hello = &valid_hellos[rng.gen_range(0..valid_hellos.len())];
                    write_frame(&mut out, T_HELLO, &hello.encode()).unwrap();
                }
                Step::Hello { valid: false } => {
                    let payload = invalid_hellos[rng.gen_range(0..invalid_hellos.len())];
                    write_frame(&mut out, T_HELLO, payload).unwrap();
                }
                Step::Events { valid } => {
                    // Valid frames continue the demo trace in order;
                    // garbage ends in a record whose length field no
                    // event kind has, so the decoder must refuse it.
                    let n = rng.gen_range(1..48usize).min(events.len() - cursor);
                    let mut payload = Vec::new();
                    for &(thread, kind) in &events[cursor..cursor + n] {
                        csst_trace::binary::encode_event(thread, &kind, &mut payload);
                    }
                    cursor += n;
                    if !valid {
                        payload.extend_from_slice(&[0xFF, 0xFF]);
                        payload.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
                    }
                    write_frame(&mut out, T_EVENTS, &payload).unwrap();
                }
                Step::Query { known } => {
                    let q: &[u8] = if known { b"events" } else { b"frobnicate 1 2" };
                    write_frame(&mut out, T_QUERY, q).unwrap();
                }
                Step::Finish => write_frame(&mut out, T_FINISH, b"").unwrap(),
                Step::UnknownTag => {
                    let tag = [0x00, 0x06, 0x77, T_OK, T_ERROR][rng.gen_range(0..5usize)];
                    write_frame(&mut out, tag, b"payload").unwrap();
                }
                Step::Oversized => out.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes()),
                Step::Truncated => {
                    let mut frame = Vec::new();
                    write_frame(&mut frame, T_QUERY, b"events").unwrap();
                    let cut = rng.gen_range(1..frame.len());
                    out.extend_from_slice(&frame[..cut]);
                }
            }
        }

        // Nagle off, so length prefixes and payloads straddle segments.
        let mut stream = TcpStream::connect(tcp).unwrap();
        if conn % 2 == 1 {
            stream.set_nodelay(true).unwrap();
            let mut rest = &out[..];
            while !rest.is_empty() {
                let n = split_rng.gen_range(1..=16usize).min(rest.len());
                stream.write_all(&rest[..n]).unwrap();
                rest = &rest[n..];
            }
        } else {
            stream.write_all(&out).unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut replies = Vec::new();
        while let Some((tag, payload)) = read_frame(&mut stream)
            .unwrap_or_else(|e| panic!("connection {conn} {script:?}: {e} after {replies:?}"))
        {
            replies.push((tag, String::from_utf8_lossy(&payload).into_owned()));
        }
        for (i, (tag, text)) in replies.iter().enumerate() {
            let ctx = || format!("connection {conn} {script:?}: reply {i} of {replies:?}");
            let class = match *tag {
                T_OK => "OK",
                T_ANSWER => "ANSWER",
                T_REPORT => {
                    assert!(i + 1 == replies.len(), "REPORT must be last: {}", ctx());
                    Report::decode(text.as_bytes())
                        .unwrap_or_else(|e| panic!("REPORT does not decode ({e}): {}", ctx()));
                    reports += 1;
                    "REPORT"
                }
                T_ERROR => {
                    let code = text.split(':').next().unwrap_or_default();
                    let code = *codes
                        .iter()
                        .find(|&&c| c == code)
                        .unwrap_or_else(|| panic!("unknown ERROR code: {}", ctx()));
                    assert!(
                        code == "query" || i + 1 == replies.len(),
                        "a fatal ERROR must end the connection: {}",
                        ctx()
                    );
                    code
                }
                _ => panic!("unknown reply tag {tag:#04x}: {}", ctx()),
            };
            seen.insert(class);
        }
    }
    // The scripts reached every reply class the protocol has.
    let want = ["ANSWER", "OK", "REPORT", "decode", "protocol", "query"];
    assert_eq!(seen, want.into_iter().collect());
    assert!(reports >= 16, "only {reports} scripts reached a REPORT");

    healthy.send_trace(&hb.demo_trace()).expect("send");
    let report = healthy.finish().expect("healthy report");
    let batch = Report::from(hb.run(&hb.demo_trace(), IndexKind::Csst, None).unwrap());
    assert_eq!(report.encode(), batch.encode());

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

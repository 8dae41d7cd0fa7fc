//! Fault-injection tests: a real `Server` on loopback with a
//! deterministic [`FaultPlan`], proving the containment boundaries —
//! one component fails, one session degrades or errors, everything
//! else (including the final SHUTDOWN exit) is unaffected.

use csst_analyses::registry::{self, IndexKind};
use csst_serve::proto::{
    read_frame, write_frame, Hello, WireFormat, MAX_FRAME, T_ERROR, T_EVENTS, T_HELLO, T_OK,
};
use csst_serve::{Client, FaultPlan, Server, ServerCfg};
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

fn batch_hb_report() -> (u8, String, Vec<String>) {
    let entry = registry::find("hb").unwrap();
    let out = entry
        .run(&entry.demo_trace(), IndexKind::Csst, None)
        .unwrap();
    (out.exit_code, out.summary, out.lines)
}

fn run_hb_session(addr: &str) -> csst_serve::Report {
    let hello = Hello {
        analysis: "hb".into(),
        index: "csst".into(),
        format: WireFormat::Binary,
        shards: 1,
        window: None,
    };
    let mut client = Client::open(addr, &hello).expect("open hb session");
    client
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");
    client.finish().expect("hb report")
}

/// The tentpole acceptance scenario: with fault injection enabled, a
/// shard-worker panic mid-stream degrades that session to the
/// sequential engine, whose report is byte-identical to the batch CLI —
/// and a concurrent healthy session is untouched. The server still
/// exits 0 on SHUTDOWN.
#[test]
fn worker_panic_degrades_one_session_and_reports_match_batch() {
    let faults = FaultPlan::parse("panic-worker=0@20").unwrap();
    let cfg = ServerCfg {
        faults: faults.clone(),
        ..Default::default()
    };
    let (addr, handle) = spawn_server_with(cfg);

    // Two concurrent hb sessions; the one-shot trigger fires in
    // whichever reaches the worker's 20th message first, degrading it.
    // Degraded or not, both reports must equal the batch run — that is
    // the whole point of the fallback.
    let a = {
        let addr = addr.clone();
        std::thread::spawn(move || run_hb_session(&addr))
    };
    let b = {
        let addr = addr.clone();
        std::thread::spawn(move || run_hb_session(&addr))
    };
    let (code, summary, lines) = batch_hb_report();
    for report in [a.join().unwrap(), b.join().unwrap()] {
        assert_eq!(report.exit_code, code);
        assert_eq!(report.summary, summary);
        assert_eq!(report.lines, lines);
    }
    assert_eq!(faults.fired(), 1, "the injected panic must have hit");

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
    let (code, summary, lines) = batch_hb_report();
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
    let (code, ..) = batch_hb_report();
    assert_eq!(report.exit_code, code);

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

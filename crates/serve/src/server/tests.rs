//! What a client of the served front-end relies on, checked over a real
//! socket against an engine-backed [`ReactorServer`]: in-order
//! pipelined replies with exact `serve.*` accounting, structured sheds
//! past the connection ceiling, `too_large` refusals that neither
//! buffer forever nor close the connection, and progress deadlines
//! that neither silence nor a byte drip can dodge.

use crate::{ReactorConfig, ReactorServer};
use drone_explorer::Explorer;
use drone_telemetry::{Json, Registry};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn request_line(id: u64) -> String {
    format!(
        r#"{{"id":{id},"query":{{"ranges":{{"wheelbase_mm":{{"min":250,"max":450,"steps":3}},"cells":["3S"],"capacity_mah":{{"min":2000,"max":6000,"steps":5}}}},"objective":"max_flight_time"}}}}"#
    )
}

fn start(config: ReactorConfig) -> (ReactorServer, Registry) {
    let registry = Registry::with_wall_clock();
    let server = ReactorServer::start(Explorer::new(2), config, &registry).expect("bind loopback");
    (server, registry)
}

fn error_kind(doc: &Json) -> Option<&Json> {
    doc.get("error").and_then(|e| e.get("kind"))
}

#[test]
fn serves_pipelined_requests_in_order_and_drains_cleanly() {
    let config = ReactorConfig {
        reactors: 1,
        ..ReactorConfig::default()
    };
    let (server, registry) = start(config);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut payload = String::new();
    for id in 0..5 {
        payload.push_str(&request_line(id));
        payload.push('\n');
    }
    payload.push_str("junk line\n");
    stream.write_all(payload.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let reader = BufReader::new(stream);
    let replies: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(replies.len(), 6);
    for (id, line) in replies[..5].iter().enumerate() {
        let doc = Json::parse(line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(doc.get("id"), Some(&Json::Num(id as f64)));
    }
    let junk = Json::parse(&replies[5]).unwrap();
    assert_eq!(junk.get("ok"), Some(&Json::Bool(false)));

    assert_eq!(registry.counter("serve.requests").get(), 6);
    assert_eq!(registry.counter("serve.errors.protocol").get(), 1);
    assert_eq!(registry.counter("serve.errors.query").get(), 0);

    let stats = server.drain();
    assert_eq!(stats.threads_joined, 2, "the acceptor and the one reactor");
    assert!(stats.clean);
    assert_eq!(stats.abandoned_connections, 0);
}

#[test]
fn sheds_with_a_structured_reply_once_the_queue_fills() {
    let config = ReactorConfig {
        reactors: 1,
        max_connections: 2,
        ..ReactorConfig::default()
    };
    let (server, registry) = start(config);
    // Two held connections, each with a request in flight, fill the
    // reactor; they must register before the next ones arrive
    // (registration is asynchronous via the reactor's inbox).
    let mut held: Vec<TcpStream> = Vec::new();
    for id in 0..2 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(format!("{}\n", request_line(id)).as_bytes())
            .unwrap();
        held.push(stream);
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.live_connections() < 2 {
        assert!(
            Instant::now() < deadline,
            "held connections never registered"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Past the ceiling, each connection gets exactly one overloaded
    // line without the server waiting for a request; the socket may
    // already be closing, so don't write to it.
    for _ in 0..2 {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), 1, "{replies:?}");
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(error_kind(&doc), Some(&Json::Str("overloaded".into())));
    }
    assert_eq!(registry.counter("serve.sheds").get(), 2);

    // The held connections were never disturbed by the sheds: each
    // gets its one reply, then the server closes it on half-close.
    for (id, stream) in held.into_iter().enumerate() {
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), 1, "{replies:?}");
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{replies:?}");
        assert_eq!(doc.get("id"), Some(&Json::Num(id as f64)));
    }
    let stats = server.drain();
    assert_eq!(stats.threads_joined, 2);
    assert!(stats.clean);
    assert_eq!(stats.abandoned_connections, 0);
}

#[test]
fn oversized_lines_get_refused_not_buffered_forever() {
    let config = ReactorConfig {
        max_line_bytes: 512,
        ..ReactorConfig::default()
    };
    let (server, _registry) = start(config);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // No newline ever follows: the refusal must come from crossing the
    // cap, not from the end of the line.
    stream.write_all(&[b'x'; 4096]).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("the refusal must arrive while the line is still open");
    let doc = Json::parse(line.trim()).unwrap();
    assert_eq!(error_kind(&doc), Some(&Json::Str("too_large".into())));
    drop(stream);
    assert!(server.drain().clean);
}

#[test]
fn too_large_lines_resynchronize_instead_of_closing() {
    let config = ReactorConfig {
        max_line_bytes: 512,
        ..ReactorConfig::default()
    };
    let (server, registry) = start(config);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // An oversized un-newlined blob, then its terminating newline,
    // then two normal pipelined requests on the same connection.
    stream.write_all(&[b'x'; 4096]).unwrap();
    std::thread::sleep(Duration::from_millis(80));
    stream.write_all(b"more oversized tail\n").unwrap();
    stream
        .write_all(format!("{}\n{}\n", request_line(1), request_line(2)).as_bytes())
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let reader = BufReader::new(stream);
    let replies: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(replies.len(), 3, "{replies:?}");
    let refusal = Json::parse(&replies[0]).unwrap();
    assert_eq!(error_kind(&refusal), Some(&Json::Str("too_large".into())));
    for (reply, id) in replies[1..].iter().zip([1.0, 2.0]) {
        let doc = Json::parse(reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(doc.get("id"), Some(&Json::Num(id)));
    }
    assert_eq!(registry.counter("serve.requests").get(), 2);
    assert!(server.drain().clean);
}

#[test]
fn idle_connections_hit_the_read_deadline() {
    let config = ReactorConfig {
        line_deadline: Some(Duration::from_millis(100)),
        ..ReactorConfig::default()
    };
    let (server, registry) = start(config);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // A partial line, then silence: the slow-loris shape.
    stream.write_all(b"{\"id\":1,").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    let doc = Json::parse(line.trim()).unwrap();
    assert_eq!(
        error_kind(&doc),
        Some(&Json::Str("deadline_exceeded".into()))
    );
    assert_eq!(registry.counter("serve.idle_timeouts").get(), 1);
    assert!(server.drain().clean);
}

#[test]
fn drip_fed_bytes_do_not_reset_the_progress_deadline() {
    // The slow-loris hole: a clock reset on *any* received byte lets a
    // client dripping one byte per window hold its connection forever.
    // Progress means completing a request line.
    let config = ReactorConfig {
        line_deadline: Some(Duration::from_millis(150)),
        ..ReactorConfig::default()
    };
    let (server, registry) = start(config);
    let stream = TcpStream::connect(server.addr()).unwrap();
    let started = Instant::now();
    // The drip runs aside while this thread blocks in read_line,
    // consuming the refusal the moment it lands.
    let mut writer = stream.try_clone().unwrap();
    let drip = std::thread::spawn(move || {
        for _ in 0..150 {
            if writer.write_all(b"x").is_err() {
                break;
            }
            let _ = writer.flush();
            std::thread::sleep(Duration::from_millis(30));
        }
    });
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("server must refuse with a reply line, not a silent close");
    assert!(!line.is_empty(), "connection closed without a refusal");
    let doc = Json::parse(line.trim()).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        error_kind(&doc),
        Some(&Json::Str("deadline_exceeded".into()))
    );
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "refused before the budget elapsed"
    );
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "the drip held its connection far past the progress budget"
    );
    assert_eq!(registry.counter("serve.idle_timeouts").get(), 1);
    drip.join().unwrap();
    assert!(server.drain().clean);
}

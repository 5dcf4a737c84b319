//! Wire-layer integration tests for the `byzscore-wire/v2` TCP
//! front-end: loopback round-trips of every request type, admission
//! backpressure (typed `Busy`, zero accepted-op loss), and a
//! malformed-frame property — garbage on the wire gets a typed answer,
//! never a panic or a wedged connection.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use byzscore_service::net::{replay_over_socket, request_stats};
use byzscore_service::wire::{read_frame, write_frame, ClientFrame, ServerFrame, MAX_FRAME_BYTES};
use byzscore_service::{
    parse_op, NetConfig, Request, Response, Server, ServiceEngine, ServiceError,
};
use proptest::prelude::*;

/// Start a server on an ephemeral loopback port with `run()` detached;
/// test processes exit without shutting these down, which is fine —
/// the threads die with the process.
fn spawn_server(config: NetConfig) -> SocketAddr {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    thread::spawn(move || server.run());
    addr
}

fn ops(lines: &[&str]) -> Vec<Request> {
    lines
        .iter()
        .map(|l| parse_op(l).expect("test op parses"))
        .collect()
}

fn handshake(stream: &mut TcpStream) {
    write_frame(stream, ClientFrame::Hello.encode().as_bytes()).expect("send hello");
    let frame = read_server_frame(stream);
    assert_eq!(frame, ServerFrame::Hello);
}

fn read_server_frame(stream: &mut TcpStream) -> ServerFrame {
    let payload = read_frame(stream)
        .expect("read frame")
        .expect("server still open");
    let text = std::str::from_utf8(&payload).expect("server frames are UTF-8");
    ServerFrame::decode(text).expect("server frames decode")
}

/// Every request shape — two algorithms, probes, full and restricted
/// queries, churn, epoch, close — plus the rejection paths (unknown
/// session, closed session, out-of-range player), replayed over the
/// socket at one and three connections. The typed answers must equal
/// the in-process `ServiceEngine::execute` answers exactly, not just
/// digest-equal.
#[test]
fn loopback_round_trips_every_request_type() {
    let script = ops(&[
        "open 24 48 3 3 11 naive 4 1 2000 13",
        "open 24 48 3 3 17 majority 4 1 2000 19",
        "probe 0 3 1,2,9",
        "probe 1 5 0,4",
        "query 0 1,3 -",
        "query 1 2,5 7,8,9",
        "churn 0 2 2",
        "epoch 1",
        "probe 0 1 40",
        "query 0 0,1,2,3 -",
        "probe 9 0 1",
        "query 0 99 -",
        "close 1",
        "close 0",
        "epoch 0",
    ]);
    let expected = ServiceEngine::new().execute(&script);
    assert!(
        expected
            .iter()
            .any(|r| matches!(r, Response::Rejected(ServiceError::UnknownSession(9)))),
        "script covers the rejection path"
    );

    for connections in [1usize, 3] {
        let addr = spawn_server(NetConfig::default());
        let replay =
            replay_over_socket(addr, &script, connections).expect("socket replay succeeds");
        assert_eq!(
            replay.responses, expected,
            "socket answers differ from in-process at {connections} connection(s)"
        );
    }
}

/// Fill a depth-1 admission queue behind a slow barrier: overload must
/// answer a typed `Busy`, and retrying every `Busy` op until it lands
/// must reproduce the in-process answers exactly — the server never
/// loses an op it accepted, and the final counters agree
/// (admitted == completed, busy counted).
#[test]
fn overload_answers_busy_and_loses_nothing() {
    const PROBES: u64 = 48;
    let addr = spawn_server(NetConfig {
        queue_depth: 1,
        ..NetConfig::default()
    });

    // The same script the server will effectively run: one open, one
    // slow epoch barrier, then a burst of commuting probes.
    let mut script = ops(&["open 64 128 4 4 11 calculate 6 2 2000 13", "epoch 0"]);
    for seq in 2..2 + PROBES {
        script.push(parse_op(&format!("probe 0 {} {}", seq % 64, seq)).unwrap());
    }
    let expected = ServiceEngine::new().execute(&script);

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    handshake(&mut stream);
    let lines: Vec<String> = script.iter().map(byzscore_service::format_op).collect();

    // Open first (session ids are assigned in open order), then blast
    // the barrier and the whole probe burst without reading a single
    // answer — the dispatcher is stuck in the epoch recompute, so the
    // depth-1 queue must overflow into Busy answers.
    let send = |stream: &mut TcpStream, seq: u64| {
        let frame = ClientFrame::Op {
            seq,
            line: lines[seq as usize].clone(),
        };
        write_frame(stream, frame.encode().as_bytes()).expect("send op");
    };
    send(&mut stream, 0);
    match read_server_frame(&mut stream) {
        ServerFrame::Resp { seq: 0, response } => assert_eq!(response, expected[0]),
        other => panic!("expected the open answer, got {other:?}"),
    }
    for seq in 1..lines.len() as u64 {
        send(&mut stream, seq);
    }

    // Reap everything, resending each Busy answer verbatim.
    let mut answers: Vec<Option<Response>> = vec![None; lines.len()];
    answers[0] = Some(expected[0].clone());
    let mut busy_answers = 0u64;
    while answers.iter().any(Option::is_none) {
        match read_server_frame(&mut stream) {
            ServerFrame::Resp {
                seq,
                response: Response::Busy { .. },
            } => {
                busy_answers += 1;
                send(&mut stream, seq);
            }
            ServerFrame::Resp { seq, response } => {
                let slot = &mut answers[seq as usize];
                assert!(slot.is_none(), "op {seq} answered twice");
                *slot = Some(response);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(
        busy_answers > 0,
        "a depth-1 queue behind a slow barrier must overflow into Busy"
    );
    let answers: Vec<Response> = answers.into_iter().map(Option::unwrap).collect();
    assert_eq!(
        answers, expected,
        "per-op answers after Busy retries differ from in-process"
    );

    let stats = request_stats(addr).expect("stats over a fresh connection");
    assert_eq!(stats.busy_rejected, busy_answers);
    assert_eq!(
        stats.admitted, stats.completed,
        "an accepted op went unanswered"
    );
    assert_eq!(stats.admitted, lines.len() as u64);
    assert_eq!(stats.open_sessions, 1);
}

/// Regression for the admission-gauge audit: malformed op lines and
/// other early-return paths answer *before* `admit_enter`, so a burst
/// of garbage must leave the live queue-depth gauge at exactly zero —
/// a leak here would eventually wedge admission control by making the
/// queue look permanently full.
#[test]
fn malformed_burst_returns_queue_depth_to_zero() {
    let addr = spawn_server(NetConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    handshake(&mut stream);
    for seq in 0..64u64 {
        let frame = ClientFrame::Op {
            seq,
            line: format!("definitely-not-an-op {seq}"),
        };
        write_frame(&mut stream, frame.encode().as_bytes()).expect("send malformed op");
    }
    for _ in 0..64 {
        match read_server_frame(&mut stream) {
            ServerFrame::Resp { response, .. } => assert!(
                matches!(response, Response::Rejected(ServiceError::Malformed { .. })),
                "expected a typed malformed rejection, got {response:?}"
            ),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    // One real op proves the connection (and admission) still works.
    let frame = ClientFrame::Op {
        seq: 99,
        line: "query 0 1 -".to_string(),
    };
    write_frame(&mut stream, frame.encode().as_bytes()).expect("send valid op");
    match read_server_frame(&mut stream) {
        ServerFrame::Resp { seq: 99, response } => {
            assert_eq!(
                response,
                Response::Rejected(ServiceError::UnknownSession(0))
            );
        }
        other => panic!("unexpected frame {other:?}"),
    }
    let stats = request_stats(addr).expect("stats");
    assert_eq!(stats.malformed, 64);
    assert_eq!(stats.queue_depth, 0, "the depth gauge leaked");
    assert_eq!(stats.admitted, stats.completed);
}

/// A client that sends half a frame and goes silent must not pin its
/// connection thread forever: the per-socket read timeout fires, the
/// server names the cause in a typed `err` frame, and the connection
/// closes — while other connections keep working.
#[test]
fn stalled_connection_times_out_with_a_typed_error() {
    let addr = spawn_server(NetConfig {
        read_timeout_ms: 200,
        ..NetConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    handshake(&mut stream);
    // Two bytes of a four-byte length prefix, then silence.
    stream.write_all(&[0, 0]).expect("send partial prefix");
    match read_server_frame(&mut stream) {
        ServerFrame::Err { message, .. } => assert!(
            message.contains("read timeout"),
            "error names the timeout: {message:?}"
        ),
        other => panic!("expected an err frame, got {other:?}"),
    }
    assert_eq!(
        read_frame(&mut stream).expect("clean close"),
        None,
        "server closes the stalled connection"
    );
    // The listener is still healthy.
    let stats = request_stats(addr).expect("stats after a timed-out peer");
    assert_eq!(stats.admitted, 0);
}

/// Retried mutations apply exactly once: resending a barrier op with
/// the same sequence number — on the same connection and from a
/// different connection — answers the recorded response from the
/// dedupe window instead of re-executing the world transition.
#[test]
fn resent_barriers_apply_exactly_once() {
    let script = ops(&[
        "open 24 48 3 3 11 naive 4 1 2000 13",
        "probe 0 3 1,2,9",
        "churn 0 2 2",
        "query 0 1,3 -",
        "close 0",
    ]);
    let expected = ServiceEngine::new().execute(&script);

    for connections in [1usize, 3] {
        let addr = spawn_server(NetConfig::default());
        let mut streams: Vec<TcpStream> = (0..connections)
            .map(|_| {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).unwrap();
                handshake(&mut s);
                s
            })
            .collect();
        let lines: Vec<String> = script.iter().map(byzscore_service::format_op).collect();
        let mut answers = Vec::new();
        for (seq, line) in lines.iter().enumerate() {
            let frame = ClientFrame::Op {
                seq: seq as u64,
                line: line.clone(),
            };
            write_frame(&mut streams[0], frame.encode().as_bytes()).expect("send op");
            let answer = match read_server_frame(&mut streams[0]) {
                ServerFrame::Resp { response, .. } => response,
                other => panic!("unexpected frame {other:?}"),
            };
            // Resend every barrier verbatim — once per open connection,
            // exercising cross-connection dedupe when connections > 1.
            if !script[seq].is_shardable() {
                for stream in streams.iter_mut() {
                    let frame = ClientFrame::Op {
                        seq: seq as u64,
                        line: line.clone(),
                    };
                    write_frame(stream, frame.encode().as_bytes()).expect("resend op");
                    match read_server_frame(stream) {
                        ServerFrame::Resp { response, .. } => assert_eq!(
                            response, answer,
                            "a deduped resend answered differently at seq {seq}"
                        ),
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
            }
            answers.push(answer);
        }
        // If any resent churn/close had re-applied, the later query and
        // close answers would differ from the single-execution run.
        assert_eq!(
            answers, expected,
            "resends changed state at {connections} connection(s)"
        );
        let stats = request_stats(addr).expect("stats");
        let barriers = script.iter().filter(|op| !op.is_shardable()).count() as u64;
        assert_eq!(stats.deduped, barriers * connections as u64);
        assert_eq!(stats.admitted, stats.completed);
    }
}

/// A frame whose declared length exceeds the protocol cap cannot be
/// resynchronized; the server must answer a typed `err` frame and
/// close — not panic, not hang.
#[test]
fn oversized_frame_gets_a_typed_error_then_close() {
    let addr = spawn_server(NetConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    handshake(&mut stream);
    stream
        .write_all(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes())
        .expect("send lying length prefix");
    match read_server_frame(&mut stream) {
        ServerFrame::Err { message, .. } => assert!(
            message.contains("exceeds"),
            "error names the cap: {message:?}"
        ),
        other => panic!("expected an err frame, got {other:?}"),
    }
    assert_eq!(
        read_frame(&mut stream).expect("clean close"),
        None,
        "server closes after an unresyncable frame"
    );
}

fn fuzz_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| spawn_server(NetConfig::default()))
}

fn garbage_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            (state >> 32) as u8
        })
        .collect()
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes inside a well-formed frame: the server answers a
    /// typed frame (an `err`, or a real answer if the bytes happened to
    /// spell a valid request) and the connection stays usable — a valid
    /// op sent right after gets its exact typed answer. All cases share
    /// one server, so a panic anywhere wedges every later case.
    #[test]
    fn garbage_frames_get_typed_answers_and_never_wedge(
        seed in 0u64..u64::MAX,
        len in 0usize..48,
    ) {
        let payload = garbage_bytes(seed, len);
        if let Ok(text) = std::str::from_utf8(&payload) {
            // Astronomically unlikely, but a shutdown frame would be a
            // *valid* request to kill the shared server.
            prop_assume!(!matches!(ClientFrame::decode(text), Ok(ClientFrame::Shutdown { .. })));
        }
        let mut stream = TcpStream::connect(fuzz_server()).expect("connect");
        handshake(&mut stream);
        write_frame(&mut stream, &payload).expect("send garbage frame");
        // Whatever came back decoded as a typed server frame, or the
        // read would have panicked.
        let _ = read_server_frame(&mut stream);
        let probe = ClientFrame::Op { seq: 7, line: "query 0 1 -".to_string() };
        write_frame(&mut stream, probe.encode().as_bytes()).expect("send valid op");
        loop {
            match read_server_frame(&mut stream) {
                ServerFrame::Resp { seq, response } => {
                    prop_assert_eq!(seq, 7);
                    prop_assert_eq!(
                        response,
                        Response::Rejected(ServiceError::UnknownSession(0))
                    );
                    break;
                }
                // Stragglers from the garbage frame (e.g. it spelled a
                // valid stats request) are fine; keep reading.
                _ => continue,
            }
        }
    }

    /// A well-formed `req` envelope around a garbage op line: the
    /// answer is the typed malformed rejection with the right sequence
    /// number, the stdin-loop bugfix shared by both front-ends.
    #[test]
    fn malformed_op_lines_get_typed_rejections(
        seed in 0u64..u64::MAX,
        len in 1usize..32,
        seq in 0u64..u64::MAX,
    ) {
        let line: String = garbage_bytes(seed, len)
            .into_iter()
            .map(|b| (b'!' + b % 64) as char)
            .collect();
        prop_assume!(parse_op(&line).is_err());
        let mut stream = TcpStream::connect(fuzz_server()).expect("connect");
        handshake(&mut stream);
        let frame = ClientFrame::Op { seq, line };
        write_frame(&mut stream, frame.encode().as_bytes()).expect("send malformed op");
        match read_server_frame(&mut stream) {
            ServerFrame::Resp { seq: got, response } => {
                prop_assert_eq!(got, seq);
                prop_assert!(
                    matches!(response, Response::Rejected(ServiceError::Malformed { .. })),
                    "expected a typed malformed rejection, got {response:?}"
                );
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }
}

/// One request outstanding at a time must cost a loopback round trip,
/// not a kernel timer: the server writes each answer as one segment
/// with `TCP_NODELAY` set, so neither Nagle nor the client's delayed
/// ACK (40 ms a trip when a frame went out as two writes) can park it —
/// whether or not the client disabled Nagle on its own side. Each lone
/// answer is flushed the moment the admission queue is seen empty, so
/// the server's own counters show one socket write per frame.
#[test]
fn round_trips_have_no_timer_floor() {
    const TRIPS: u64 = 200;
    for nodelay in [true, false] {
        let addr = spawn_server(NetConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(nodelay).unwrap();
        handshake(&mut stream);
        let mut exchange = |seq: u64, line: &str| {
            let frame = ClientFrame::Op {
                seq,
                line: line.to_string(),
            };
            write_frame(&mut stream, frame.encode().as_bytes()).expect("send op");
            match read_server_frame(&mut stream) {
                ServerFrame::Resp {
                    seq: echoed,
                    response,
                } if echoed == seq => response,
                other => panic!("expected the answer to op {seq}, got {other:?}"),
            }
        };
        assert!(matches!(
            exchange(0, "open 24 48 3 3 11 naive 4 1 2000 13"),
            Response::Opened { session: 0, .. }
        ));
        let start = Instant::now();
        for seq in 1..=TRIPS {
            let answer = exchange(seq, &format!("query 0 {} -", seq % 24));
            assert!(
                matches!(answer, Response::Preferences { .. }),
                "op {seq}: {answer:?}"
            );
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "{TRIPS} round trips took {elapsed:?} with client nodelay={nodelay}: \
             something on the reply path waits on a timer"
        );
        let stats = request_stats(addr).expect("stats");
        // Two hellos (this connection's and the stats request's), the
        // open and the queries — each written alone.
        assert_eq!(stats.frames_out, TRIPS + 3);
        assert_eq!(stats.socket_writes, stats.frames_out);
    }
}

/// Two connections each blast 64 shardable ops without reading a single
/// answer, then reap: every frame must decode (a torn or interleaved
/// frame would not), every op must be answered exactly once within
/// `read_timeout` of the previous frame, and the answers must equal the
/// in-process engine's. `Busy` answers — written by the connection
/// threads into the same out-buffers the dispatcher fills — are resent
/// verbatim. With `slow_barrier` an epoch recompute admitted ahead of
/// the burst keeps the dispatcher busy while the burst arrives. Returns
/// how many `Busy` answers were seen.
fn pipelined_burst(queue_depth: usize, slow_barrier: bool, read_timeout: Duration) -> u64 {
    const BURST: usize = 64;
    let addr = spawn_server(NetConfig {
        queue_depth,
        ..NetConfig::default()
    });
    let mut lines = vec!["open 64 128 4 4 11 calculate 6 2 2000 13".to_string()];
    if slow_barrier {
        lines.push("epoch 0".to_string());
    }
    let first = lines.len();
    for i in 0..2 * BURST {
        lines.push(if i % 4 < 2 {
            format!("probe 0 {} {}", i % 64, i)
        } else {
            format!("query 0 {} -", i % 64)
        });
    }
    let script: Vec<Request> = lines.iter().map(|l| parse_op(l).unwrap()).collect();
    let expected = ServiceEngine::new().execute(&script);

    let mut streams: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).unwrap();
            s.set_read_timeout(Some(read_timeout)).unwrap();
            handshake(&mut s);
            s
        })
        .collect();
    let send = |stream: &mut TcpStream, seq: usize| {
        let frame = ClientFrame::Op {
            seq: seq as u64,
            line: lines[seq].clone(),
        };
        write_frame(stream, frame.encode().as_bytes()).expect("send op");
    };
    let mut answers: Vec<Option<Response>> = vec![None; lines.len()];
    let mut busy = 0u64;
    // Read one frame: record a final answer, resend a `Busy` one.
    let mut reap =
        |stream: &mut TcpStream, answers: &mut Vec<Option<Response>>| match read_server_frame(
            stream,
        ) {
            ServerFrame::Resp {
                seq,
                response: Response::Busy { .. },
            } => {
                busy += 1;
                send(stream, seq as usize);
            }
            ServerFrame::Resp { seq, response } => {
                let slot = &mut answers[seq as usize];
                assert!(slot.is_none(), "op {seq} answered twice");
                *slot = Some(response);
            }
            other => panic!("unexpected frame {other:?}"),
        };

    // The open is awaited (the burst addresses its session).
    send(&mut streams[0], 0);
    reap(&mut streams[0], &mut answers);
    // Ops alternate between the connections; connection 0 goes first,
    // barrier in front. Its first frame back proves the barrier was
    // admitted — frames of one connection are handled in order — so the
    // reference order (open, epoch, then ops that commute) holds however
    // the two bursts interleave.
    let conn_of = |seq: usize| (seq - first) % 2;
    for seq in (1..lines.len()).filter(|&seq| seq < first || conn_of(seq) == 0) {
        send(&mut streams[0], seq);
    }
    if slow_barrier {
        reap(&mut streams[0], &mut answers);
    }
    for seq in (first..lines.len()).filter(|&seq| conn_of(seq) == 1) {
        send(&mut streams[1], seq);
    }
    for (conn, stream) in streams.iter_mut().enumerate() {
        let mine = |seq: usize| {
            if seq < first {
                conn == 0
            } else {
                conn_of(seq) == conn
            }
        };
        while (0..lines.len()).any(|seq| mine(seq) && answers[seq].is_none()) {
            reap(stream, &mut answers);
        }
    }
    let answers: Vec<Response> = answers.into_iter().map(Option::unwrap).collect();
    assert_eq!(answers, expected, "burst answers differ from in-process");

    let stats = request_stats(addr).expect("stats");
    assert_eq!(stats.busy_rejected, busy);
    assert_eq!(stats.admitted, lines.len() as u64);
    assert_eq!(
        stats.admitted, stats.completed,
        "an accepted op went unanswered"
    );
    // Hellos of the two connections and the stats request, every
    // admitted answer, every Busy — none lost, none written twice.
    assert_eq!(stats.frames_out, 3 + stats.completed + busy);
    assert!(stats.socket_writes <= stats.frames_out);
    busy
}

/// Answers are buffered per connection and flushed when the admission
/// queue goes idle: the last answers of a burst must not wait for a
/// *next* op to push them out.
#[test]
fn pipelined_replies_are_never_stranded() {
    let busy = pipelined_burst(256, false, Duration::from_secs(2));
    assert_eq!(busy, 0, "128 ops fit a 256-deep queue");
}

/// The same burst against a depth-1 queue behind a slow barrier: the
/// connection threads' `Busy` frames and the dispatcher's answers share
/// each connection's out-buffer, and whole frames are all that ever
/// reaches the socket.
#[test]
fn busy_frames_interleave_with_replies_without_tearing() {
    let busy = pipelined_burst(1, true, Duration::from_secs(30));
    assert!(
        busy > 0,
        "a depth-1 queue behind a slow barrier must overflow into Busy"
    );
}

//! `service.wire`: what the text codec and the framing cost per op, with
//! no socket anywhere — frames go to a `Vec` and come back from a `Cursor`.

use std::hint::black_box;
use std::io::{self, Cursor, Write};

use byzscore_service::wire::{read_frame, write_frame, ClientFrame, ServerFrame};
use byzscore_service::{format_op, parse_op, Request, Response, ServiceEngine};

use super::{ns_per_call, Ledger};
use crate::workloads::serve::{generate, spec, READ_MIX};
use crate::workloads::Config;

/// The four codec steps an op crosses on its way through the socket, in
/// nanoseconds per op over `ops` and their in-process `answers`.
pub struct Codec {
    pub encode_req_ns: f64,
    pub decode_req_ns: f64,
    pub encode_resp_ns: f64,
    pub decode_resp_ns: f64,
    pub requests: Vec<String>,
    pub responses: Vec<String>,
}

impl Codec {
    pub fn total_ns(&self) -> f64 {
        self.encode_req_ns + self.decode_req_ns + self.encode_resp_ns + self.decode_resp_ns
    }
}

/// Time the codec over one op stream. Decoding a request is the envelope
/// plus the op line, as the server's connection thread does it.
pub fn codec(ops: &[Request], answers: &[Response]) -> Codec {
    let n = ops.len();
    let requests: Vec<String> = ops
        .iter()
        .enumerate()
        .map(|(seq, op)| {
            ClientFrame::Op {
                seq: seq as u64,
                line: format_op(op),
            }
            .encode()
        })
        .collect();
    let responses: Vec<String> = answers
        .iter()
        .enumerate()
        .map(|(seq, response)| {
            ServerFrame::Resp {
                seq: seq as u64,
                response: response.clone(),
            }
            .encode()
        })
        .collect();
    Codec {
        encode_req_ns: ns_per_call(n, |i| {
            black_box(
                ClientFrame::Op {
                    seq: i as u64,
                    line: format_op(&ops[i]),
                }
                .encode(),
            );
        }),
        decode_req_ns: ns_per_call(n, |i| {
            if let Ok(ClientFrame::Op { line, .. }) = ClientFrame::decode(&requests[i]) {
                black_box(parse_op(&line).ok());
            }
        }),
        encode_resp_ns: ns_per_call(n, |i| {
            black_box(
                ServerFrame::Resp {
                    seq: i as u64,
                    response: answers[i].clone(),
                }
                .encode(),
            );
        }),
        decode_resp_ns: ns_per_call(n, |i| {
            black_box(ServerFrame::decode(&responses[i]).ok());
        }),
        requests,
        responses,
    }
}

/// Counts calls into `write`: each is a system call on a `TcpStream`.
struct CountingWrite {
    calls: u64,
}

impl Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

pub fn probe(cfg: &Config, ledger: &mut Ledger) {
    let traffic = generate(&spec(
        cfg.seed,
        if cfg.smoke { 200 } else { 4_000 },
        READ_MIX,
    ));
    let mut engine = ServiceEngine::new();
    engine.execute(&traffic.opens);
    let answers = engine.execute(&traffic.body);
    let codec = codec(&traffic.body, &answers);
    ledger.put("wire.encode_req_ns", codec.encode_req_ns);
    ledger.put("wire.decode_req_ns", codec.decode_req_ns);
    ledger.put("wire.encode_resp_ns", codec.encode_resp_ns);
    ledger.put("wire.decode_resp_ns", codec.decode_resp_ns);

    let n = codec.requests.len();
    let mut buffer = Vec::new();
    ledger.put(
        "wire.frame_io_ns",
        ns_per_call(n, |i| {
            buffer.clear();
            write_frame(&mut buffer, codec.requests[i].as_bytes()).expect("write to a Vec");
            black_box(read_frame(&mut Cursor::new(&buffer)).expect("read own frame"));
        }),
    );
    let frame_bytes = |frames: &[String]| {
        frames.iter().map(|f| f.len() + 4).sum::<usize>() as f64 / frames.len() as f64
    };
    ledger.put("wire.req_bytes_per_op", frame_bytes(&codec.requests));
    ledger.put("wire.resp_bytes_per_op", frame_bytes(&codec.responses));
    let mut counter = CountingWrite { calls: 0 };
    for frame in &codec.requests {
        write_frame(&mut counter, frame.as_bytes()).expect("counting write");
    }
    ledger.put("wire.writes_per_frame", counter.calls as f64 / n as f64);
}

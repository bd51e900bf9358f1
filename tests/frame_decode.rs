//! JSON frame decoding runs in linear time: a 256 KiB `ping` frame whose
//! `source` string mixes plain runs, escapes and multi-byte UTF-8 decodes
//! exactly, and well inside a second even in a debug build. A decoder that
//! rescans the rest of the input at every character needs about ten seconds
//! for this frame (debug build, 2-vCPU Linux x86-64).

use serde::Value;
use snailqc::serve::protocol::parse_request;
use std::time::{Duration, Instant};

const FRAME_BYTES: usize = 256 * 1024;

#[test]
fn a_256_kib_frame_decodes_exactly_and_in_linear_time() {
    // (JSON spelling, decoded text) pieces, cycled until the frame is full.
    let pieces = [
        ("cx q[0], q[1]; ", "cx q[0], q[1]; "),
        (r"\n", "\n"),
        ("plain", "plain"),
        (r"\t", "\t"),
        (r#"\""#, "\""),
        ("é", "é"),
        ("😀", "😀"),
        (r"\\", "\\"),
    ];
    let mut encoded = String::new();
    let mut expected = String::new();
    for (json, text) in pieces.iter().cycle() {
        if encoded.len() >= FRAME_BYTES {
            break;
        }
        encoded.push_str(json);
        expected.push_str(text);
    }
    let frame = format!(r#"{{"id": 1, "method": "ping", "params": {{"source": "{encoded}"}}}}"#);
    assert!(frame.len() >= FRAME_BYTES);

    let started = Instant::now();
    let request = parse_request(&frame).expect("frame decodes");
    let elapsed = started.elapsed();

    assert_eq!(request.method, "ping");
    assert_eq!(request.id, Value::UInt(1));
    assert_eq!(
        request.params.get("source").and_then(Value::as_str),
        Some(expected.as_str())
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "decoding a {} byte frame took {elapsed:?}",
        frame.len()
    );
}

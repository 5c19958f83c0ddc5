//! Codec robustness properties: every message round-trips bit-exactly,
//! and *no* malformed input — truncation, single-bit corruption,
//! oversized length fields, random garbage — ever panics or decodes to
//! a message. Decode is total. Every suite also runs the reusing forms —
//! `encode_into` over a dirty buffer, a `FrameReader` refilling recycled
//! vectors — which must agree with the allocating ones byte for byte and
//! error for error.
//!
//! The single-bit-flip property leans on FNV-1a's per-step bijectivity:
//! XOR-with-a-byte and multiply-by-an-odd-prime are both bijections on
//! the hash state, so two payloads differing in one byte can never hash
//! to the same checksum.

use borg_net::codec::{
    decode, decode_complete, encode, encode_into, encode_work_into, DecodeError, FrameReader, Msg,
    TraceCtx, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use proptest::prelude::*;
use proptest::strategy::Union;

fn finite_f64() -> impl Strategy<Value = f64> {
    -1.0e9f64..1.0e9
}

fn f64_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(finite_f64(), 0..12)
}

/// Strings over a range that includes two-byte UTF-8 code points.
fn name_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x24F, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Optional trace context, absent half the time: absent-context frames
/// exercise the backward-compatible (legacy wire bytes) form.
fn ctx_strategy() -> impl Strategy<Value = Option<TraceCtx>> {
    prop_oneof![
        Just(None),
        (0u64..1_000_000, 0u64..u64::MAX, finite_f64()).prop_map(
            |(trace_id, parent_span, sent_at)| Some(TraceCtx {
                trace_id,
                parent_span,
                sent_at,
            })
        ),
    ]
}

/// Every `Msg` variant.
fn msg_strategy() -> Union<Msg> {
    prop_oneof![
        Just(Msg::Hello),
        (0u64..1_000, name_string(), 0u64..1_000_000).prop_map(
            |(worker, problem, eval_delay_us)| Msg::Welcome {
                worker,
                problem,
                eval_delay_us,
            }
        ),
        (
            0u64..1_000_000,
            0u32..8,
            0u64..1_000_000,
            f64_vec(),
            ctx_strategy()
        )
            .prop_map(|(eval_id, attempt, seq, variables, ctx)| Msg::Work {
                eval_id,
                attempt,
                seq,
                variables,
                ctx,
            }),
        (
            0u64..1_000,
            0u64..1_000_000,
            0u32..8,
            f64_vec(),
            f64_vec(),
            ctx_strategy()
        )
            .prop_map(|(worker, eval_id, attempt, objectives, constraints, ctx)| {
                Msg::Outcome {
                    worker,
                    eval_id,
                    attempt,
                    objectives,
                    constraints,
                    ctx,
                }
            }),
        (0u64..1_000, ctx_strategy()).prop_map(|(worker, ctx)| Msg::Heartbeat { worker, ctx }),
        (0u64..1_000_000, finite_f64(), name_string()).prop_map(|(seq, at, jsonl)| Msg::Tap {
            seq,
            at,
            jsonl
        }),
        Just(Msg::Shutdown),
    ]
}

/// Streaming decode of `bytes` by a `FrameReader` that was handed used
/// vectors (one larger than any in `msg_strategy`, one smaller, both
/// dirty): what `decode` says, minus the consumed length.
fn decode_recycled(bytes: &[u8]) -> Result<Option<Msg>, DecodeError> {
    let mut reader = FrameReader::new();
    reader.recycle(vec![f64::NAN; 40]);
    reader.recycle(vec![-1.0; 3]);
    reader.feed(bytes);
    reader.next_msg()
}

fn decode_fresh(bytes: &[u8]) -> Result<Option<Msg>, DecodeError> {
    decode(bytes).map(|found| found.map(|(msg, _)| msg))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn round_trip_is_identity(
        msg in msg_strategy(),
        dirt in prop::collection::vec(0u8..=255u8, 0..400),
    ) {
        let frame = encode(&msg);
        prop_assert!(frame.len() >= HEADER_LEN);
        // A reused buffer — dirty, shorter or longer than the frame —
        // ends up holding exactly the frame.
        let mut reused = dirt;
        encode_into(&mut reused, &msg);
        prop_assert_eq!(&reused, &frame);
        if let Msg::Work { eval_id, attempt, seq, variables, ctx } = &msg {
            encode_work_into(&mut reused, *eval_id, *attempt, *seq, variables, *ctx);
            prop_assert_eq!(&reused, &frame);
        }
        prop_assert_eq!(decode_recycled(&frame), Ok(Some(msg.clone())));
        // Streaming decode consumes exactly the frame...
        prop_assert_eq!(decode(&frame), Ok(Some((msg.clone(), frame.len()))));
        // ...and the at-EOF form agrees.
        prop_assert_eq!(decode_complete(&frame), Ok(msg));
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic(msg in msg_strategy()) {
        let frame = encode(&msg);
        for cut in 0..frame.len() {
            let prefix = &frame[..cut];
            // At EOF a partial frame can never complete.
            prop_assert!(
                decode_complete(prefix).is_err(),
                "prefix of {cut}/{} bytes decoded",
                frame.len()
            );
            // Mid-stream it may legitimately wait for more bytes, but it
            // must never yield a message.
            prop_assert!(
                !matches!(decode(prefix), Ok(Some(_))),
                "streaming decode yielded a message from a {cut}-byte prefix"
            );
            prop_assert_eq!(decode_recycled(prefix), decode_fresh(prefix));
        }
    }

    #[test]
    fn single_bit_flips_never_decode(msg in msg_strategy(), sel in 0.0f64..1.0) {
        let frame = encode(&msg);
        let bit = ((frame.len() * 8) as f64 * sel) as usize;
        let mut corrupted = frame.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_complete(&corrupted).is_err(),
            "flipping bit {bit} went undetected (frame {} bytes)",
            frame.len()
        );
        prop_assert!(
            !matches!(decode(&corrupted), Ok(Some(_))),
            "streaming decode yielded a message from a corrupted frame (bit {bit})"
        );
        prop_assert_eq!(decode_recycled(&corrupted), decode_fresh(&corrupted));
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header_alone(
        excess in 1u32..(u32::MAX - (1 << 20)),
    ) {
        let declared = MAX_PAYLOAD as u32 + excess;
        let mut buf = Vec::with_capacity(HEADER_LEN);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.extend_from_slice(&declared.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        // The header alone must produce the error — an implementation
        // that waited for (or allocated) the declared payload would
        // return Ok(None) here and buffer up to 4 GiB of attacker-chosen
        // length.
        prop_assert_eq!(decode(&buf), Err(DecodeError::Oversized(declared)));
        prop_assert_eq!(decode_complete(&buf), Err(DecodeError::Oversized(declared)));
        prop_assert_eq!(decode_recycled(&buf), Err(DecodeError::Oversized(declared)));
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(0u8..=255u8, 0..64)) {
        let _ = decode_complete(&bytes);
        prop_assert_eq!(decode_recycled(&bytes), decode_fresh(&bytes));
    }
}

/// `NaN`/`±inf`/`-0.0` defeat `PartialEq`, so the round trip for
/// non-finite payloads is checked at the byte level instead.
#[test]
fn non_finite_payloads_round_trip_at_the_bit_level() {
    let msg = Msg::Work {
        eval_id: 7,
        attempt: 1,
        seq: 3,
        variables: vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
        ],
        ctx: Some(TraceCtx {
            trace_id: 7,
            parent_span: 0,
            sent_at: f64::NAN,
        }),
    };
    let frame = encode(&msg);
    let back = decode_complete(&frame).expect("non-finite frame must decode");
    assert_eq!(encode(&back), frame, "re-encode changed the bit pattern");
    let refilled = decode_recycled(&frame)
        .expect("non-finite frame must decode")
        .expect("the frame is complete");
    assert_eq!(encode(&refilled), frame, "a refilled vector kept old bits");
}

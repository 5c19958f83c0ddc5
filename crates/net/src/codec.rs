//! Hand-rolled, dependency-free length-framed binary codec for the wire.
//!
//! The workspace is offline (no serde/bincode), so every message is
//! encoded by hand into a frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic      0xB0C6_F7A1 (LE)
//! 4       1     version    1
//! 5       4     payload length (LE, capped at MAX_PAYLOAD)
//! 9       4     FNV-1a-32 checksum of the payload (LE)
//! 13      len   payload    (tag byte + fields, all integers LE,
//!                           f64 as IEEE-754 bit pattern LE)
//! ```
//!
//! Decode is *total*: malformed input returns [`DecodeError`], never
//! panics, and never allocates more than the bytes actually present —
//! the payload length is validated against [`MAX_PAYLOAD`] before any
//! allocation, and every vector length inside the payload is validated
//! against the remaining payload bytes before reserving capacity.
//!
//! Neither direction allocates per frame on a connection: [`encode_into`]
//! writes the header with length and checksum left blank, the payload
//! straight behind it, and patches the two fields in place, all in a
//! buffer the caller reuses; a [`FrameReader`] fills `f64` vectors handed
//! back to it with [`FrameReader::recycle`] instead of fresh ones.

use std::fmt;

/// Frame magic: rejects cross-protocol and mid-stream garbage early.
pub const MAGIC: u32 = 0xB0C6_F7A1;
/// Wire format version; bumped on any incompatible layout change.
pub const VERSION: u8 = 2;
/// Hard cap on a frame's payload. A `Work` frame for a 1000-variable
/// problem is ~8 KiB; 1 MiB leaves two orders of magnitude of headroom
/// while bounding what a corrupt length field can make us buffer.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Fixed frame header size (magic + version + length + checksum).
pub const HEADER_LEN: usize = 13;

/// Compact distributed-trace context piggybacked on `Work`, `Outcome`
/// and `Heartbeat` frames.
///
/// Encoded as an *optional trailer* after the variant's fixed fields:
/// `None` appends nothing, so a context-free frame is byte-identical to
/// the pre-trace wire format (old and new peers interoperate both ways);
/// `Some` appends a marker byte `1` followed by the three fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCtx {
    /// Trace identity: the eval id for dispatch/result frames, a probe
    /// sequence number for heartbeat RTT probes.
    pub trace_id: u64,
    /// The sender's span id (or an opaque echo payload for heartbeats).
    pub parent_span: u64,
    /// The sender's clock when the frame was handed to the wire, seconds
    /// on the sender's own epoch (bit pattern preserved).
    pub sent_at: f64,
}

/// Everything that travels on a connection: the deployment envelope
/// (registration, work items, results, liveness, and the read-only
/// metrics tap) around the protocol engine, which stays master-side.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → master registration, sent once on first contact: a
    /// worker whose connection drops never registers again.
    Hello,
    /// Master → worker registration reply: assigned index, the problem
    /// the worker must resolve, and an artificial per-evaluation delay
    /// (microseconds; used by tests to keep runs killable mid-flight).
    Welcome {
        worker: u64,
        problem: String,
        eval_delay_us: u64,
    },
    /// Master → worker work item. `seq` counts dispatches to this worker
    /// (the engine's fate-plan coordinate); `attempt` 0 = fresh produce.
    Work {
        eval_id: u64,
        attempt: u32,
        seq: u64,
        variables: Vec<f64>,
        ctx: Option<TraceCtx>,
    },
    /// Worker → master result, echoing the dispatch coordinates.
    Outcome {
        worker: u64,
        eval_id: u64,
        attempt: u32,
        objectives: Vec<f64>,
        constraints: Vec<f64>,
        ctx: Option<TraceCtx>,
    },
    /// Worker → master liveness beacon; with a [`TraceCtx`] it doubles
    /// as a clock probe, which the master echoes back verbatim plus its
    /// own receive timestamp.
    Heartbeat { worker: u64, ctx: Option<TraceCtx> },
    /// Master → worker: the run is over, exit cleanly.
    Shutdown,
    /// Master → tap subscriber: one [`borg_obs::MetricsSnapshot`] delta
    /// tick, pre-rendered as metrics JSONL. `seq` counts ticks on this
    /// tap connection; `at` is the master clock.
    Tap { seq: u64, at: f64, jsonl: String },
}

/// Packs a deterministic span id from the trace coordinates both roles
/// agree on: `(eval_id << 16) | (attempt << 2) | role`. Roles: 0 =
/// master dispatch, 1 = worker evaluation, 2 = worker result send,
/// 3 = master consume. Attempts above the 14-bit field (16383) alias,
/// which is harmless — MAX_REISSUES caps attempts far below that.
pub fn span_id(eval_id: u64, attempt: u32, role: u8) -> u64 {
    (eval_id << 16) | ((u64::from(attempt) & 0x3fff) << 2) | u64::from(role & 0x3)
}

/// Why a frame failed to decode. Total: every malformed input maps here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends mid-frame and no more bytes can arrive (EOF).
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic(u32),
    /// Unknown wire format version.
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload bytes do not match the header checksum.
    BadChecksum { expected: u32, found: u32 },
    /// Unknown message/enum tag byte.
    BadTag(u8),
    /// An inner length field exceeds the bytes actually present.
    BadLength,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload decoded but left unconsumed bytes behind.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            DecodeError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "checksum mismatch (header {expected:#010x}, payload {found:#010x})"
                )
            }
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadLength => write!(f, "inner length exceeds payload"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing payload bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a over the payload. Not cryptographic — it guards against
/// corruption and framing bugs, not adversaries (single-byte corruption
/// is always detected: each absorption step is injective in the byte).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

// ---------------------------------------------------------------------------
// Payload writer
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    // Bit pattern, not value: NaNs and signed zeros survive verbatim so
    // the networked archive stays bit-identical to the oracle's.
    put_u64(buf, v.to_bits());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_f64(buf, v);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Payload reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Retired vectors to fill before allocating new ones.
    spare: &'a mut Vec<Vec<f64>>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], spare: &'a mut Vec<Vec<f64>>) -> Self {
        Reader { buf, pos: 0, spare }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::BadLength)?;
        if end > self.buf.len() {
            return Err(DecodeError::BadLength);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.u32()? as usize;
        // `take` checks the count against the bytes actually present
        // *before* anything is reserved: a corrupt count cannot make us
        // over-allocate.
        let raw = self.take(n.checked_mul(8).ok_or(DecodeError::BadLength)?)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut out = match self.spare.pop() {
            Some(mut retired) => {
                retired.clear();
                retired
            }
            None => Vec::with_capacity(n),
        };
        out.extend(raw.chunks_exact(8).map(|chunk| {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            f64::from_bits(u64::from_le_bytes(b))
        }));
        Ok(out)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// Message encoding
// ---------------------------------------------------------------------------

const TAG_HELLO: u8 = 0;
const TAG_WELCOME: u8 = 1;
const TAG_WORK: u8 = 2;
const TAG_OUTCOME: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
// 6 and 7 are retired, not reused: every frame a peer sends keeps its bytes.
const TAG_TAP: u8 = 8;

/// Marker byte introducing an encoded [`TraceCtx`] trailer.
const CTX_PRESENT: u8 = 1;

fn put_ctx(buf: &mut Vec<u8>, ctx: &Option<TraceCtx>) {
    if let Some(c) = ctx {
        put_u8(buf, CTX_PRESENT);
        put_u64(buf, c.trace_id);
        put_u64(buf, c.parent_span);
        put_f64(buf, c.sent_at);
    }
}

/// Reads the optional [`TraceCtx`] trailer: an exhausted payload is the
/// backward-compatible "no context" form.
fn read_ctx(r: &mut Reader<'_>) -> Result<Option<TraceCtx>, DecodeError> {
    if r.at_end() {
        return Ok(None);
    }
    match r.u8()? {
        CTX_PRESENT => Ok(Some(TraceCtx {
            trace_id: r.u64()?,
            parent_span: r.u64()?,
            sent_at: r.f64()?,
        })),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn put_work(
    buf: &mut Vec<u8>,
    eval_id: u64,
    attempt: u32,
    seq: u64,
    variables: &[f64],
    ctx: &Option<TraceCtx>,
) {
    put_u8(buf, TAG_WORK);
    put_u64(buf, eval_id);
    put_u32(buf, attempt);
    put_u64(buf, seq);
    put_f64s(buf, variables);
    put_ctx(buf, ctx);
}

fn encode_payload(buf: &mut Vec<u8>, msg: &Msg) {
    match *msg {
        Msg::Hello => put_u8(buf, TAG_HELLO),
        Msg::Welcome {
            worker,
            ref problem,
            eval_delay_us,
        } => {
            put_u8(buf, TAG_WELCOME);
            put_u64(buf, worker);
            put_str(buf, problem);
            put_u64(buf, eval_delay_us);
        }
        Msg::Work {
            eval_id,
            attempt,
            seq,
            ref variables,
            ref ctx,
        } => put_work(buf, eval_id, attempt, seq, variables, ctx),
        Msg::Outcome {
            worker,
            eval_id,
            attempt,
            ref objectives,
            ref constraints,
            ref ctx,
        } => {
            put_u8(buf, TAG_OUTCOME);
            put_u64(buf, worker);
            put_u64(buf, eval_id);
            put_u32(buf, attempt);
            put_f64s(buf, objectives);
            put_f64s(buf, constraints);
            put_ctx(buf, ctx);
        }
        Msg::Heartbeat { worker, ref ctx } => {
            put_u8(buf, TAG_HEARTBEAT);
            put_u64(buf, worker);
            put_ctx(buf, ctx);
        }
        Msg::Shutdown => put_u8(buf, TAG_SHUTDOWN),
        Msg::Tap { seq, at, ref jsonl } => {
            put_u8(buf, TAG_TAP);
            put_u64(buf, seq);
            put_f64(buf, at);
            put_str(buf, jsonl);
        }
    }
}

fn decode_payload(payload: &[u8], spare: &mut Vec<Vec<f64>>) -> Result<Msg, DecodeError> {
    let mut r = Reader::new(payload, spare);
    let msg = match r.u8()? {
        TAG_HELLO => Msg::Hello,
        TAG_WELCOME => Msg::Welcome {
            worker: r.u64()?,
            problem: r.string()?,
            eval_delay_us: r.u64()?,
        },
        TAG_WORK => Msg::Work {
            eval_id: r.u64()?,
            attempt: r.u32()?,
            seq: r.u64()?,
            variables: r.f64s()?,
            ctx: read_ctx(&mut r)?,
        },
        TAG_OUTCOME => Msg::Outcome {
            worker: r.u64()?,
            eval_id: r.u64()?,
            attempt: r.u32()?,
            objectives: r.f64s()?,
            constraints: r.f64s()?,
            ctx: read_ctx(&mut r)?,
        },
        TAG_HEARTBEAT => Msg::Heartbeat {
            worker: r.u64()?,
            ctx: read_ctx(&mut r)?,
        },
        TAG_SHUTDOWN => Msg::Shutdown,
        TAG_TAP => Msg::Tap {
            seq: r.u64()?,
            at: r.f64()?,
            jsonl: r.string()?,
        },
        t => return Err(DecodeError::BadTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Replaces the contents of `frame` with one complete frame whose payload
/// `write_payload` appends: the header goes in with length and checksum
/// blank, both are patched once the payload is there.
fn frame_into(frame: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    frame.clear();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.push(VERSION);
    frame.extend_from_slice(&[0u8; HEADER_LEN - 5]);
    write_payload(frame);
    let len = frame.len() - HEADER_LEN;
    debug_assert!(len <= MAX_PAYLOAD, "frame payload exceeds cap");
    let sum = fnv1a(&frame[HEADER_LEN..]);
    frame[5..9].copy_from_slice(&(len as u32).to_le_bytes());
    frame[9..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

/// Encodes `msg` as a complete frame (header + payload) into `frame`,
/// replacing what it held and keeping its capacity: a connection that
/// reuses one buffer stops allocating after its largest frame.
pub fn encode_into(frame: &mut Vec<u8>, msg: &Msg) {
    frame_into(frame, |buf| encode_payload(buf, msg));
}

/// [`encode_into`] for a [`Msg::Work`] whose variables the caller only
/// borrows (the master keeps the candidate until its result returns).
pub fn encode_work_into(
    frame: &mut Vec<u8>,
    eval_id: u64,
    attempt: u32,
    seq: u64,
    variables: &[f64],
    ctx: Option<TraceCtx>,
) {
    frame_into(frame, |buf| {
        put_work(buf, eval_id, attempt, seq, variables, &ctx);
    });
}

/// Encodes `msg` into a complete frame of its own.
pub fn encode(msg: &Msg) -> Vec<u8> {
    // Sized for the variable-length part plus the widest fixed fields, so
    // the one allocation is not followed by a regrowth.
    let body = match msg {
        Msg::Work { variables, .. } => 8 * variables.len(),
        Msg::Outcome {
            objectives,
            constraints,
            ..
        } => 8 * (objectives.len() + constraints.len()),
        Msg::Welcome { problem, .. } => problem.len(),
        Msg::Tap { jsonl, .. } => jsonl.len(),
        _ => 0,
    };
    let mut frame = Vec::with_capacity(HEADER_LEN + 64 + body);
    encode_into(&mut frame, msg);
    frame
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds a valid prefix of a frame
/// and more bytes are needed (streaming case); `Ok(Some((msg, n)))`
/// consumes `n` bytes. Header fields are validated as soon as they are
/// present — a bad magic, version, or oversized length is reported
/// before the rest of the frame arrives.
pub fn decode(buf: &[u8]) -> Result<Option<(Msg, usize)>, DecodeError> {
    decode_reusing(buf, &mut Vec::new())
}

/// [`decode`], filling `f64` vectors popped off `spare` before allocating.
fn decode_reusing(
    buf: &[u8],
    spare: &mut Vec<Vec<f64>>,
) -> Result<Option<(Msg, usize)>, DecodeError> {
    if buf.len() >= 4 {
        let mut m = [0u8; 4];
        m.copy_from_slice(&buf[..4]);
        let magic = u32::from_le_bytes(m);
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
    }
    if buf.len() >= 5 && buf[4] != VERSION {
        return Err(DecodeError::BadVersion(buf[4]));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut b4 = [0u8; 4];
    b4.copy_from_slice(&buf[5..9]);
    let len = u32::from_le_bytes(b4);
    if len as usize > MAX_PAYLOAD {
        return Err(DecodeError::Oversized(len));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    b4.copy_from_slice(&buf[9..13]);
    let expected = u32::from_le_bytes(b4);
    let payload = &buf[HEADER_LEN..total];
    let found = fnv1a(payload);
    if found != expected {
        return Err(DecodeError::BadChecksum { expected, found });
    }
    let msg = decode_payload(payload, spare)?;
    Ok(Some((msg, total)))
}

/// Decodes a buffer that must hold exactly one complete frame — what a
/// connection does at EOF, where "more bytes" can never arrive. An
/// incomplete frame is [`DecodeError::Truncated`]; bytes after the frame
/// are [`DecodeError::TrailingBytes`].
pub fn decode_complete(buf: &[u8]) -> Result<Msg, DecodeError> {
    match decode(buf)? {
        None => Err(DecodeError::Truncated),
        Some((msg, n)) if n == buf.len() => Ok(msg),
        Some((_, n)) => Err(DecodeError::TrailingBytes(buf.len() - n)),
    }
}

/// Incremental frame assembler for a byte stream: `feed` raw socket
/// reads in, pull complete messages out with `next`. A decode error
/// poisons the stream (the caller must drop the connection — framing
/// cannot resynchronize after corruption).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    /// Vectors of messages the caller is done with (see `recycle`).
    spare: Vec<Vec<f64>>,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing; keeps the buffer at
        // O(one frame) regardless of connection lifetime.
        if self.start > 0 && (self.start >= self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete message, if one is buffered.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, DecodeError> {
        match decode_reusing(&self.buf[self.start..], &mut self.spare)? {
            None => Ok(None),
            Some((msg, n)) => {
                self.start += n;
                Ok(Some(msg))
            }
        }
    }

    /// Takes back the `f64` vector of a message the caller is done with;
    /// the next decode fills it instead of allocating. Optional — a vector
    /// never handed back just costs its allocation.
    pub fn recycle(&mut self, retired: Vec<f64>) {
        // One `Outcome`'s worth is all a decode can use, and only of
        // vectors that own memory.
        if retired.capacity() > 0 && self.spare.len() < 2 {
            self.spare.push(retired);
        }
    }

    /// Bytes buffered but not yet decoded (nonzero at EOF means the
    /// stream ended mid-frame).
    pub(crate) fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello,
            Msg::Welcome {
                worker: 3,
                problem: "dtlz2-5".to_string(),
                eval_delay_us: 250,
            },
            Msg::Work {
                eval_id: 42,
                attempt: 1,
                seq: 7,
                // Include a non-default NaN payload: bit patterns must
                // survive the wire verbatim.
                variables: vec![0.25, -1.5, f64::from_bits(0x7ff8_0000_0000_0001), 0.0],
                ctx: None,
            },
            Msg::Work {
                eval_id: 43,
                attempt: 0,
                seq: 8,
                variables: vec![0.5],
                ctx: Some(TraceCtx {
                    trace_id: 43,
                    parent_span: 43 << 16,
                    sent_at: 1.25,
                }),
            },
            Msg::Outcome {
                worker: 2,
                eval_id: 42,
                attempt: 1,
                objectives: vec![1.0, 2.0, 3.0],
                constraints: vec![],
                ctx: None,
            },
            Msg::Outcome {
                worker: 2,
                eval_id: 43,
                attempt: 0,
                objectives: vec![0.5],
                constraints: vec![0.0],
                ctx: Some(TraceCtx {
                    trace_id: 43,
                    parent_span: (43 << 16) | 2,
                    sent_at: -0.0,
                }),
            },
            Msg::Heartbeat {
                worker: 9,
                ctx: None,
            },
            Msg::Heartbeat {
                worker: 9,
                ctx: Some(TraceCtx {
                    trace_id: 12,
                    parent_span: 0,
                    sent_at: 0.125,
                }),
            },
            Msg::Shutdown,
            Msg::Tap {
                seq: 3,
                at: 2.5,
                jsonl: "{\"type\":\"counter\",\"name\":\"net.frames_sent\",\"value\":1}\n"
                    .to_string(),
            },
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn round_trips_every_sample_message() {
        for msg in sample_msgs() {
            let frame = encode(&msg);
            let back = decode_complete(&frame).unwrap();
            match (&msg, &back) {
                // NaN payloads break PartialEq; compare variable bits.
                (
                    Msg::Work {
                        variables: a,
                        eval_id: ia,
                        attempt: aa,
                        seq: sa,
                        ctx: ca,
                    },
                    Msg::Work {
                        variables: b,
                        eval_id: ib,
                        attempt: ab,
                        seq: sb,
                        ctx: cb,
                    },
                ) => {
                    assert_eq!((ia, aa, sa), (ib, ab, sb));
                    assert_eq!(bits(a), bits(b));
                    assert_eq!(ca, cb);
                }
                _ => assert_eq!(msg, back),
            }
        }
    }

    #[test]
    fn streaming_reader_reassembles_split_frames() {
        let msgs = sample_msgs();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode(m));
        }
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        // Feed one byte at a time: worst-case fragmentation.
        for &b in &wire {
            reader.feed(&[b]);
            while let Some(m) = reader.next_msg().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out.len(), msgs.len());
        assert_eq!(reader.pending_len(), 0);
    }

    #[test]
    fn bad_magic_is_rejected_before_full_header() {
        let err = decode(&[0xde, 0xad, 0xbe, 0xef]).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic(_)));
    }

    #[test]
    fn oversized_length_is_rejected_without_buffering_payload() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.push(VERSION);
        frame.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        // Only the header is present: the length check must fire before
        // any attempt to wait for (or allocate) the bogus payload.
        assert_eq!(
            decode(&frame).unwrap_err(),
            DecodeError::Oversized(MAX_PAYLOAD as u32 + 1)
        );
    }

    #[test]
    fn corrupt_inner_vector_length_cannot_overallocate() {
        // A Work frame whose variable count claims 2^30 entries but whose
        // payload holds none: decode must fail on the length check.
        let mut payload = Vec::new();
        put_u8(&mut payload, TAG_WORK);
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 1 << 30);
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.push(VERSION);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(decode_complete(&frame).unwrap_err(), DecodeError::BadLength);
    }

    #[test]
    fn truncated_frame_errors_at_eof_but_streams_cleanly() {
        let frame = encode(&Msg::Shutdown);
        let cut = &frame[..frame.len() - 1];
        // Streaming: a prefix just means "more bytes coming".
        assert_eq!(decode(cut).unwrap(), None);
        // EOF: the same prefix is an error.
        assert_eq!(decode_complete(cut).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn context_free_frames_match_the_legacy_wire_bytes() {
        // A pre-TraceCtx peer encodes Work/Outcome/Heartbeat with no
        // trailer. Build those byte sequences by hand and check (a) they
        // decode to `ctx: None`, (b) our own `ctx: None` encoding is
        // byte-identical — interop holds in both directions.
        let mut legacy = Vec::new();
        put_u8(&mut legacy, TAG_HEARTBEAT);
        put_u64(&mut legacy, 5);
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.push(VERSION);
        frame.extend_from_slice(&(legacy.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&legacy).to_le_bytes());
        frame.extend_from_slice(&legacy);
        assert_eq!(
            decode_complete(&frame).unwrap(),
            Msg::Heartbeat {
                worker: 5,
                ctx: None
            }
        );
        assert_eq!(
            encode(&Msg::Heartbeat {
                worker: 5,
                ctx: None
            }),
            frame
        );

        // A garbage marker byte after the fixed fields is rejected, not
        // misread as data.
        let mut bad = legacy.clone();
        put_u8(&mut bad, 7);
        let mut bad_frame = Vec::new();
        bad_frame.extend_from_slice(&MAGIC.to_le_bytes());
        bad_frame.push(VERSION);
        bad_frame.extend_from_slice(&(bad.len() as u32).to_le_bytes());
        bad_frame.extend_from_slice(&fnv1a(&bad).to_le_bytes());
        bad_frame.extend_from_slice(&bad);
        assert_eq!(
            decode_complete(&bad_frame).unwrap_err(),
            DecodeError::BadTag(7)
        );
    }

    #[test]
    fn retired_command_and_event_tags_are_bad_tags() {
        // Checksum-valid frames in the retired tags' old layouts: a
        // `Dispatch` command under 6, a `HeartbeatTick` event under 7.
        for (tag, body) in [(6u8, 8 + 8 + 4), (7, 8)] {
            let mut frame = Vec::new();
            frame_into(&mut frame, |buf| {
                buf.extend_from_slice(&[tag, 0]);
                buf.resize(buf.len() + body, 0x11);
            });
            assert_eq!(decode(&frame), Err(DecodeError::BadTag(tag)));
            let mut reader = FrameReader::new();
            reader.feed(&frame);
            assert_eq!(reader.next_msg(), Err(DecodeError::BadTag(tag)));
        }
    }

    #[test]
    fn trace_ctx_survives_the_wire_bit_exactly() {
        let ctx = TraceCtx {
            trace_id: u64::MAX,
            parent_span: 0xDEAD_BEEF,
            sent_at: f64::from_bits(0x7ff8_0000_0000_0042),
        };
        let frame = encode(&Msg::Heartbeat {
            worker: 1,
            ctx: Some(ctx),
        });
        match decode_complete(&frame).unwrap() {
            Msg::Heartbeat {
                worker: 1,
                ctx: Some(back),
            } => {
                assert_eq!(back.trace_id, ctx.trace_id);
                assert_eq!(back.parent_span, ctx.parent_span);
                assert_eq!(back.sent_at.to_bits(), ctx.sent_at.to_bits());
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn payload_corruption_is_always_detected() {
        let frame = encode(&Msg::Heartbeat {
            worker: 7,
            ctx: None,
        });
        for i in HEADER_LEN..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    decode_complete(&bad).is_err(),
                    "flip of payload byte {i} bit {bit} went undetected"
                );
            }
        }
    }
}

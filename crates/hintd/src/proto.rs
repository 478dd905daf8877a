//! The hintd wire protocol: length-prefixed binary frames.
//!
//! Framing follows the `trace::codec` discipline — little-endian fixed
//! header, LEB128 varints for counts and deltas, and a hard frame cap so a
//! garbled length prefix cannot make the peer allocate unbounded memory:
//!
//! ```text
//! frame    := u32-LE payload-length | payload          (length <= MAX_FRAME)
//! request  := verb:u8 body
//!   ingest := 0x01 varint(batch_id) varint(len) app-utf8 trace-BTBT-blob
//!   query  := 0x02 varint(len) app-utf8
//!   health := 0x03
//! response := tag:u8 body
//!   ingest-ok := 0x01 flags:u8 varint(accepted) varint(backlog)
//!                (flags bit0 = deduplicated, bit1 = absorb deferred)
//!   query-ok  := 0x02 flags:u8 varint(backlog) wire-table
//!                (flags bit0 = stale: served from the last committed table)
//!   health-ok := 0x03 varint x7 (apps accepted deduped backlog
//!                                requests connections reaped)
//!   error     := 0xEE class:u8 varint(len) message-utf8
//! wire-table := varint(bits) varint(categories) varint(entries)
//!               entries x (varint(pc-gap) hint:u8)   -- ascending pc,
//!               first gap is the pc itself, later gaps are >= 1
//! ```
//!
//! The trace blob inside an ingest body *is* the `trace::codec` binary
//! format (`BTBT` magic and all) — the server reuses
//! [`btb_trace::codec::read_binary`] verbatim, so every codec-level
//! robustness property (magic check, varint overflow, truncation taxonomy)
//! guards the wire too.
//!
//! Decode failures map onto the workspace fault taxonomy at the server
//! boundary: a frame that fails to decode is answered with a
//! [`FaultClass::Transient`] error (wire corruption heals on resend — see
//! [`sim_support::NetFaultKind`]), while semantic rejections the resend
//! cannot fix (e.g. an invalid app name) come back
//! [`FaultClass::Poison`].

use std::io::{self, Cursor, Read, Write};

use btb_trace::codec;
use btb_trace::Trace;
use sim_support::{leb128, FaultClass};
use thermometer::HintTable;

/// Hard cap on a frame's payload size. Generous for real batches (a
/// 100k-record trace encodes well under 1 MiB) while bounding what a
/// corrupt length prefix can demand.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Longest accepted application name. Names are journal fields and shard
/// keys; keeping them short keeps journal lines greppable.
pub const MAX_APP_NAME: usize = 64;

/// Request verbs (also the tag of the matching success response).
pub const VERB_INGEST: u8 = 0x01;
/// See [`VERB_INGEST`].
pub const VERB_QUERY: u8 = 0x02;
/// See [`VERB_INGEST`].
pub const VERB_HEALTH: u8 = 0x03;
/// Response tag for a classified failure.
pub const TAG_ERROR: u8 = 0xEE;

/// What can go wrong decoding a frame or its payload.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed.
    Io(io::Error),
    /// A length prefix exceeded [`MAX_FRAME`].
    FrameTooLong(u64),
    /// The payload ended mid-field.
    Truncated(&'static str),
    /// A structurally invalid payload (bad verb, bad UTF-8, varint
    /// overflow, unordered table entries, embedded codec failure...).
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(err) => write!(f, "i/o: {err}"),
            ProtoError::FrameTooLong(len) => {
                write!(f, "frame of {len} bytes exceeds cap of {MAX_FRAME}")
            }
            ProtoError::Truncated(what) => write!(f, "payload truncated in {what}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(err: io::Error) -> Self {
        ProtoError::Io(err)
    }
}

/// A decoded request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Absorb one profile batch for `app`. `batch_id` is the idempotency
    /// key: a batch re-sent by a retrying client is accepted (and
    /// acknowledged) exactly once.
    Ingest {
        /// Client-chosen unique id, the dedupe key.
        batch_id: u64,
        /// Application the batch profiles.
        app: String,
        /// The profile batch itself.
        trace: Trace,
    },
    /// Fetch `app`'s current hint table.
    Query {
        /// Application whose table is wanted.
        app: String,
    },
    /// Server liveness, counters, and total backlog.
    Health,
}

/// Acknowledgement of an accepted (or deduplicated) ingest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestAck {
    /// The batch id had been accepted before; nothing changed.
    pub deduped: bool,
    /// The batch was journaled and queued but not yet absorbed into the
    /// profile — the app is over its backlog watermark (degraded mode).
    pub deferred: bool,
    /// Batches accepted on this app's shard since startup (replay included).
    pub accepted: u64,
    /// This app's queued-but-unabsorbed batches, after this one.
    pub backlog: u64,
}

/// A served hint table.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// True when served from the last committed table because the app's
    /// backlog is over the watermark — the degraded-mode contract.
    pub stale: bool,
    /// The app's queued-but-unabsorbed batches at serve time.
    pub backlog: u64,
    /// The table itself.
    pub table: WireTable,
}

/// Health counters. All monotonic except `backlog`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReply {
    /// Applications with state on the server.
    pub apps: u64,
    /// Batches accepted (journaled + queued) since startup, replay included.
    pub accepted: u64,
    /// Ingests answered from the dedupe set.
    pub deduped: u64,
    /// Queued-but-unabsorbed batches across all apps, after this health
    /// call's own drain step.
    pub backlog: u64,
    /// Requests dispatched since startup.
    pub requests: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Connections reaped by the idle deadline.
    pub reaped: u64,
}

/// A decoded response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Ingest accepted or deduplicated.
    Ingest(IngestAck),
    /// Query served.
    Query(QueryReply),
    /// Health served.
    Health(HealthReply),
    /// Classified failure; the class tells the client whether to retry.
    Error {
        /// Retry (transient) or give up (poison/fatal).
        class: FaultClass,
        /// Root cause, for the operator.
        message: String,
    },
}

/// A hint table in wire form: `(pc, hint)` pairs in ascending PC order.
///
/// This is the *canonical serialized form* of a table — the crash-recovery
/// test compares recovered tables by these exact bytes, so the encoding is
/// deliberately order-fixed and delta-packed (no map iteration order, no
/// float formatting).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireTable {
    /// Hint width in bits.
    pub bits: u32,
    /// Temperature category count.
    pub categories: u64,
    entries: Vec<(u64, u8)>,
}

impl WireTable {
    /// Snapshots a [`HintTable`] (ascending-PC iteration is the table's
    /// own deterministic order).
    pub fn from_table(table: &HintTable) -> Self {
        Self {
            bits: table.bits(),
            categories: table.categories() as u64,
            entries: table.iter().collect(),
        }
    }

    /// The hint for `pc` (0 = coldest, like [`HintTable::hint`]).
    pub fn hint(&self, pc: u64) -> u8 {
        match self.entries.binary_search_by_key(&pc, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(pc, hint)` pairs, ascending by PC.
    pub fn entries(&self) -> &[(u64, u8)] {
        &self.entries
    }

    /// The canonical byte encoding (what travels inside a query-ok frame
    /// and what table dumps hex-encode).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.entries.len() * 3);
        self.encode_into(&mut buf);
        buf
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        leb128::put(buf, u64::from(self.bits));
        leb128::put(buf, self.categories);
        leb128::put(buf, self.entries.len() as u64);
        let mut prev = 0u64;
        for (i, &(pc, hint)) in self.entries.iter().enumerate() {
            let gap = if i == 0 { pc } else { pc - prev };
            leb128::put(buf, gap);
            buf.push(hint);
            prev = pc;
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self, ProtoError> {
        let bits = get_varint(buf, pos)?;
        if bits > 8 {
            return Err(ProtoError::Malformed(format!("hint width {bits} bits")));
        }
        let categories = get_varint(buf, pos)?;
        let count = get_varint(buf, pos)?;
        if count > MAX_FRAME as u64 {
            return Err(ProtoError::Malformed(format!("{count} table entries")));
        }
        let mut entries = Vec::with_capacity(count as usize);
        let mut prev = 0u64;
        for i in 0..count {
            let gap = get_varint(buf, pos)?;
            if i > 0 && gap == 0 {
                return Err(ProtoError::Malformed("table entries not ascending".into()));
            }
            let pc = prev
                .checked_add(gap)
                .ok_or_else(|| ProtoError::Malformed("table pc overflows".into()))?;
            let hint = get_u8(buf, pos, "table hint")?;
            entries.push((pc, hint));
            prev = pc;
        }
        Ok(Self {
            bits: bits as u32,
            categories,
            entries,
        })
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame: length prefix then payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. Blocking — callers needing deadlines (the
/// server) layer tick-counting reads underneath instead.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtoError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLong(len as u64));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encodes an ingest request payload.
pub fn encode_ingest(batch_id: u64, app: &str, trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(app.len() + 64);
    buf.push(VERB_INGEST);
    leb128::put(&mut buf, batch_id);
    leb128::put(&mut buf, app.len() as u64);
    buf.extend_from_slice(app.as_bytes());
    codec::append_binary(&mut buf, trace);
    buf
}

/// Encodes a query request payload.
pub fn encode_query(app: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(app.len() + 2);
    buf.push(VERB_QUERY);
    leb128::put(&mut buf, app.len() as u64);
    buf.extend_from_slice(app.as_bytes());
    buf
}

/// Encodes a health request payload.
pub fn encode_health() -> Vec<u8> {
    vec![VERB_HEALTH]
}

/// Encodes any [`Request`].
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ingest {
            batch_id,
            app,
            trace,
        } => encode_ingest(*batch_id, app, trace),
        Request::Query { app } => encode_query(app),
        Request::Health => encode_health(),
    }
}

/// Decodes a request payload (the server side).
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut pos = 0usize;
    let verb = get_u8(payload, &mut pos, "verb")?;
    match verb {
        VERB_INGEST => {
            let batch_id = get_varint(payload, &mut pos)?;
            let app = get_string(payload, &mut pos)?;
            let rest = &payload[pos..];
            let mut cursor = Cursor::new(rest);
            let trace = codec::read_binary(&mut cursor)
                .map_err(|err| ProtoError::Malformed(format!("trace blob: {err}")))?;
            Ok(Request::Ingest {
                batch_id,
                app,
                trace,
            })
        }
        VERB_QUERY => {
            let app = get_string(payload, &mut pos)?;
            expect_end(payload, pos)?;
            Ok(Request::Query { app })
        }
        VERB_HEALTH => {
            expect_end(payload, pos)?;
            Ok(Request::Health)
        }
        other => Err(ProtoError::Malformed(format!("unknown verb {other:#04x}"))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encodes any [`Response`].
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    match resp {
        Response::Ingest(ack) => {
            buf.push(VERB_INGEST);
            buf.push(u8::from(ack.deduped) | (u8::from(ack.deferred) << 1));
            leb128::put(&mut buf, ack.accepted);
            leb128::put(&mut buf, ack.backlog);
        }
        Response::Query(reply) => {
            buf.push(VERB_QUERY);
            buf.push(u8::from(reply.stale));
            leb128::put(&mut buf, reply.backlog);
            reply.table.encode_into(&mut buf);
        }
        Response::Health(h) => {
            buf.push(VERB_HEALTH);
            for v in [
                h.apps,
                h.accepted,
                h.deduped,
                h.backlog,
                h.requests,
                h.connections,
                h.reaped,
            ] {
                leb128::put(&mut buf, v);
            }
        }
        Response::Error { class, message } => {
            buf.push(TAG_ERROR);
            buf.push(class_byte(*class));
            leb128::put(&mut buf, message.len() as u64);
            buf.extend_from_slice(message.as_bytes());
        }
    }
    buf
}

/// Decodes a response payload (the client side).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut pos = 0usize;
    let tag = get_u8(payload, &mut pos, "response tag")?;
    match tag {
        VERB_INGEST => {
            let flags = get_u8(payload, &mut pos, "ingest flags")?;
            let accepted = get_varint(payload, &mut pos)?;
            let backlog = get_varint(payload, &mut pos)?;
            expect_end(payload, pos)?;
            Ok(Response::Ingest(IngestAck {
                deduped: flags & 1 != 0,
                deferred: flags & 2 != 0,
                accepted,
                backlog,
            }))
        }
        VERB_QUERY => {
            let flags = get_u8(payload, &mut pos, "query flags")?;
            let backlog = get_varint(payload, &mut pos)?;
            let table = WireTable::decode_from(payload, &mut pos)?;
            expect_end(payload, pos)?;
            Ok(Response::Query(QueryReply {
                stale: flags & 1 != 0,
                backlog,
                table,
            }))
        }
        VERB_HEALTH => {
            let mut vals = [0u64; 7];
            for v in &mut vals {
                *v = get_varint(payload, &mut pos)?;
            }
            expect_end(payload, pos)?;
            Ok(Response::Health(HealthReply {
                apps: vals[0],
                accepted: vals[1],
                deduped: vals[2],
                backlog: vals[3],
                requests: vals[4],
                connections: vals[5],
                reaped: vals[6],
            }))
        }
        TAG_ERROR => {
            let class = parse_class(get_u8(payload, &mut pos, "error class")?)?;
            let message = get_string(payload, &mut pos)?;
            expect_end(payload, pos)?;
            Ok(Response::Error { class, message })
        }
        other => Err(ProtoError::Malformed(format!(
            "unknown response tag {other:#04x}"
        ))),
    }
}

fn class_byte(class: FaultClass) -> u8 {
    match class {
        FaultClass::Transient => 0,
        FaultClass::Poison => 1,
        FaultClass::Fatal => 2,
    }
}

fn parse_class(b: u8) -> Result<FaultClass, ProtoError> {
    match b {
        0 => Ok(FaultClass::Transient),
        1 => Ok(FaultClass::Poison),
        2 => Ok(FaultClass::Fatal),
        other => Err(ProtoError::Malformed(format!("fault class {other:#04x}"))),
    }
}

// ---------------------------------------------------------------------------
// Primitives: LEB128 varints, strings
// ---------------------------------------------------------------------------

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, ProtoError> {
    leb128::decode(
        || get_u8(buf, pos, "varint"),
        || ProtoError::Malformed("varint overflows u64".into()),
    )
}

fn get_u8(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u8, ProtoError> {
    let byte = *buf.get(*pos).ok_or(ProtoError::Truncated(what))?;
    *pos += 1;
    Ok(byte)
}

fn get_string(buf: &[u8], pos: &mut usize) -> Result<String, ProtoError> {
    let len = get_varint(buf, pos)? as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::Malformed(format!("string of {len} bytes")));
    }
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or(ProtoError::Truncated("string body"))?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| ProtoError::Malformed("string is not UTF-8".into()))?
        .to_owned();
    *pos = end;
    Ok(s)
}

fn expect_end(buf: &[u8], pos: usize) -> Result<(), ProtoError> {
    if pos == buf.len() {
        Ok(())
    } else {
        Err(ProtoError::Malformed(format!(
            "{} trailing bytes",
            buf.len() - pos
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::{BranchKind, BranchRecord};

    fn sample_trace() -> Trace {
        let mut t = Trace::new("b0");
        for i in 0..50u32 {
            t.push(BranchRecord::taken(
                0x1000 + u64::from(i) * 4,
                0x2000,
                BranchKind::UncondDirect,
                i,
            ));
        }
        t
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ingest {
                batch_id: 7,
                app: "kafka".into(),
                trace: sample_trace(),
            },
            Request::Query {
                app: "cassandra".into(),
            },
            Request::Health,
        ];
        for req in &reqs {
            let bytes = encode_request(req);
            assert_eq!(&decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let entries = WireTable {
            bits: 2,
            categories: 3,
            entries: vec![(0x40, 2), (0x44, 0), (0x9000, 1)],
        };
        let resps = [
            Response::Ingest(IngestAck {
                deduped: true,
                deferred: false,
                accepted: 12,
                backlog: 3,
            }),
            Response::Query(QueryReply {
                stale: true,
                backlog: 9,
                table: entries,
            }),
            Response::Health(HealthReply {
                apps: 2,
                accepted: 100,
                deduped: 5,
                backlog: 1,
                requests: 300,
                connections: 4,
                reaped: 1,
            }),
            Response::Error {
                class: FaultClass::Poison,
                message: "bad app name".into(),
            },
        ];
        for resp in &resps {
            let bytes = encode_response(resp);
            assert_eq!(&decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn wire_table_matches_hint_table_and_is_canonical() {
        use btb_model::BtbConfig;
        use thermometer::{OptProfile, TemperatureConfig};
        let profile = OptProfile::measure(&sample_trace(), BtbConfig::new(16, 4));
        let table = HintTable::from_profile(&profile, &TemperatureConfig::paper_default());
        let wire = WireTable::from_table(&table);
        assert_eq!(wire.len(), table.len());
        for (pc, hint) in table.iter() {
            assert_eq!(wire.hint(pc), hint);
        }
        assert_eq!(wire.hint(0xdead_beef), 0, "absent pc is coldest");
        // Canonical: encoding is a pure function of the table.
        assert_eq!(
            wire.encode_bytes(),
            WireTable::from_table(&table).encode_bytes()
        );
        // Round-trips through the byte form.
        let bytes = wire.encode_bytes();
        let mut pos = 0;
        let back = WireTable::decode_from(&bytes, &mut pos).unwrap();
        assert_eq!(back, wire);
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        // Unknown verb.
        assert!(decode_request(&[0x77]).is_err());
        // Truncated ingest.
        let mut bytes = encode_ingest(1, "app", &sample_trace());
        bytes.truncate(bytes.len() / 2);
        assert!(decode_request(&bytes).is_err());
        // Trailing garbage after a query.
        let mut q = encode_query("x");
        q.push(0);
        assert!(decode_request(&q).is_err());
        // Garbled single bytes anywhere must never panic.
        let good = encode_ingest(2, "kafka", &sample_trace());
        for i in 0..good.len().min(200) {
            let mut bad = good.clone();
            bad[i] ^= 0x5a;
            let _ = decode_request(&bad); // Ok or Err both fine; no panic.
        }
        // Unordered table entries.
        let mut buf = vec![VERB_QUERY, 0, 0];
        // bits=2 cats=3 count=2 gap=8,h then gap=0,h (duplicate pc).
        for b in [2u8, 3, 2, 8, 1, 0, 1] {
            buf.push(b);
        }
        assert!(decode_response(&buf).is_err());
    }

    #[test]
    fn frames_round_trip_and_cap_is_enforced() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = Cursor::new(buf.as_slice());
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        // Oversized length prefix is rejected before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut cursor = Cursor::new(&huge[..]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::FrameTooLong(_))
        ));
    }

    #[test]
    fn varints_round_trip_boundaries() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16383, 16384, u64::MAX];
        for &v in &values {
            leb128::put(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        // 11-byte varint overflows.
        let bad = [0xffu8; 10];
        let mut pos = 0;
        assert!(get_varint(&bad, &mut pos).is_err());
        // So does a 10th byte above 1 (2^64), here as the frame's batch id.
        let mut overlong = vec![VERB_INGEST];
        overlong.extend([0x80; 9]);
        overlong.push(0x02);
        let err = decode_request(&overlong).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err:?}");
    }
}

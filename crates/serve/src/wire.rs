//! `CLRWIRE1`: the length-prefixed framed binary protocol `clr-served`
//! speaks.
//!
//! Every frame is a fixed 32-byte header followed by a checksummed
//! payload — the same integrity discipline as the `CLRSNAP1` snapshot
//! container:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CLRWIRE1"
//! 8       2     protocol version, u16 LE (currently 1)
//! 10      1     frame kind, u8 (1 request, 2 response, 3 error,
//!               4 shutdown, 5 stats request, 6 stats response,
//!               7 swap-db request, 8 swap-db response,
//!               9 promote request, 10 promote response)
//! 11      5     reserved, must be 0
//! 16      8     payload length in bytes, u64 LE (capped at 64 KiB)
//! 24      8     FNV-1a 64 checksum of the payload, u64 LE
//! 32      n     payload
//! ```
//!
//! All payload integers and float bit patterns are little-endian; floats
//! travel as raw IEEE-754 bits, so a decision's numbers round-trip
//! exactly and the daemon's responses can be byte-compared against batch
//! replay output. Payloads:
//!
//! - **Request**: `seq` u64, `time` f64, `s_max` f64, `f_min` f64,
//!   tenant name (u16 length + UTF-8, `[A-Za-z0-9_-]+`). Carries one QoS
//!   requirement change addressed to a tenant — the wire form of a
//!   [`TraceEvent`].
//! - **Response**: `seq` u64, tenant name, then the full
//!   [`DecisionRecord`]: `event` u64, `time`/`s_max`/`f_min` f64,
//!   `feasible`/`from`/`to` u64, `drc` f64, optional `score`/`p_rc`
//!   (presence u8 + f64), `violated` u8, `status` u8, `fault` u8
//!   (0 = none, else 1 + index into [`FaultKind::ALL`]).
//! - **Error**: `seq` u64 (0 when the offending frame's seq is
//!   unrecoverable), message (u16 length + UTF-8).
//! - **Shutdown**: empty payload; asks the daemon to drain and exit.
//! - **Stats request** (`kind = 5`): `seq` u64, `stats_version` u16,
//!   `flight` u8, optional tenant filter (u16 length + UTF-8, length 0
//!   = whole fleet). Asks a live daemon for its telemetry snapshot.
//!   The version field is decoded leniently so a daemon can answer a
//!   too-new request with a clean error frame instead of a decode
//!   failure; a pre-stats daemon rejects kind 5 outright with its
//!   `unknown frame kind 5` error frame — the version gate for old
//!   peers.
//! - **Stats response** (`kind = 6`): `seq` u64, then the
//!   [`clr_obs::TelemetrySnapshot`] JSON line (u32 length + UTF-8).
//!   A snapshot that would not fit the payload cap is never encoded —
//!   the daemon answers an error frame suggesting a tenant filter.
//! - **Swap-db request** (`kind = 7`): `seq` u64, tenant name, optional
//!   expected generation (presence u8 + u64), snapshot path (u16
//!   length + UTF-8). Asks the daemon to hot-swap the database to the
//!   CLRSNAP1/CLRSNAP2 container at the path — by reference, because a
//!   database does not fit the payload cap. When the expected
//!   generation is present and the loaded snapshot's generation
//!   differs, the swap is refused (compare-and-swap for rollouts).
//! - **Swap-db response** (`kind = 8`): `seq` u64, tenant name, status
//!   u8 (0 swapped, 1 verify-failed, 2 unknown-tenant, 3 io-error),
//!   active generation u64 — the generation actually serving after the
//!   attempt, i.e. the last-known-good one when the swap was refused.
//! - **Promote request** (`kind = 9`): `seq` u64, tenant name. Asks
//!   the daemon to promote the tenant's shadow (candidate) value table
//!   to live — the A/B rollout's "ship it" step. Only meaningful for
//!   tenants running an `aura+learn` policy.
//! - **Promote response** (`kind = 10`): `seq` u64, tenant name,
//!   status u8 (0 promoted, 1 no-learner, 2 unknown-tenant), total
//!   promotions u64 applied to that tenant so far (0 when refused).
//!
//! A decoder rejects bad magic, unsupported versions, unknown kinds,
//! nonzero reserved bytes, over-cap or mismatched lengths and checksum
//! mismatches — a corrupted frame is refused loudly, never served.

use std::io::{Read, Write};

use clr_chaos::FaultKind;
use clr_dse::QosSpec;
use clr_par::fnv1a64;

use crate::{is_plain_name, DecisionRecord, ServeStatus, TraceEvent};

/// Magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 8] = *b"CLRWIRE1";

/// The protocol version this build speaks.
pub const WIRE_VERSION: u16 = 1;

/// Size of the fixed frame header.
pub const WIRE_HEADER_LEN: usize = 32;

/// Upper bound on a frame payload. Tenant names are short and decision
/// records are fixed-size, so any larger declared length is hostile or
/// corrupt input, refused before allocation. Telemetry snapshots are
/// the one variable-size payload; the daemon refuses to encode one
/// over this cap (answering an error frame instead).
pub const MAX_PAYLOAD_LEN: usize = 64 * 1024;

/// The stats-payload schema this build speaks (independent of
/// [`WIRE_VERSION`]: the frame layer decodes any declared stats
/// version, the daemon answers a mismatch with an error frame).
/// Version 2 added the per-tenant active db generation.
pub const STATS_VERSION: u16 = 2;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A QoS requirement change addressed to a tenant.
    Request(Request),
    /// The decision serving one request.
    Response(Response),
    /// The request could not be served (unknown tenant, corrupt frame).
    Error(ErrorFrame),
    /// Drain everything admitted so far and exit gracefully.
    Shutdown,
    /// A live telemetry query.
    Stats(StatsRequest),
    /// The telemetry snapshot answering one stats query.
    StatsResponse(StatsResponse),
    /// A live database hot-swap command.
    SwapDb(SwapDbRequest),
    /// The outcome of one swap command.
    SwapDbResponse(SwapDbResponse),
    /// A shadow→live policy promotion command.
    Promote(PromoteRequest),
    /// The outcome of one promotion command.
    PromoteResponse(PromoteResponse),
}

/// The wire form of one QoS event (`kind = 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// Target tenant name.
    pub tenant: String,
    /// Event time in application-cycle units. Non-finite bit patterns
    /// are representable on the wire; the engine classifies them as
    /// malformed input and serves them through the degradation ladder.
    pub time: f64,
    /// The new requirement.
    pub spec: QosSpec,
}

impl Request {
    /// The trace event this request carries.
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent {
            tenant: self.tenant.clone(),
            time: self.time,
            spec: self.spec,
        }
    }

    /// Wraps a trace event as a request frame.
    pub fn from_event(seq: u64, event: &TraceEvent) -> Self {
        Self {
            seq,
            tenant: event.tenant.clone(),
            time: event.time,
            spec: event.spec,
        }
    }
}

/// The wire form of one served decision (`kind = 2`).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's sequence number.
    pub seq: u64,
    /// The tenant that served it.
    pub tenant: String,
    /// The decision, exactly as the batch engine would record it.
    pub decision: DecisionRecord,
}

/// A live telemetry query (`kind = 5`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsRequest {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// The stats schema the client speaks ([`STATS_VERSION`]); the
    /// daemon answers other versions with an error frame.
    pub version: u16,
    /// Ask for every tenant's flight-recorder tail (quarantined
    /// tenants' tails are always included).
    pub flight: bool,
    /// Restrict the snapshot to one tenant (also the escape hatch when
    /// a whole-fleet snapshot would exceed the payload cap).
    pub tenant: Option<String>,
}

impl StatsRequest {
    /// A whole-fleet query at this build's stats version.
    pub fn fleet(seq: u64, flight: bool) -> Self {
        Self {
            seq,
            version: STATS_VERSION,
            flight,
            tenant: None,
        }
    }
}

/// The snapshot answering one stats query (`kind = 6`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResponse {
    /// The query's sequence number.
    pub seq: u64,
    /// The [`clr_obs::TelemetrySnapshot`] v1 canonical JSON line.
    pub snapshot: String,
}

/// A live database hot-swap command (`kind = 7`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapDbRequest {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// The tenant whose database is swapped.
    pub tenant: String,
    /// Compare-and-swap guard: refuse unless the loaded snapshot's
    /// generation equals this (`None` = unconditional).
    pub expected_generation: Option<u64>,
    /// Filesystem path of the CLRSNAP1/CLRSNAP2 container to load —
    /// by reference, since databases exceed the payload cap.
    pub path: String,
}

/// How one swap command ended (`kind = 8`, the `status` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapStatus {
    /// The tenant is now serving the new generation.
    Swapped,
    /// The snapshot failed verification (or the generation guard); the
    /// tenant keeps serving its last-known-good database.
    VerifyFailed,
    /// No such tenant in the fleet.
    UnknownTenant,
    /// The snapshot file could not be read.
    IoError,
}

impl SwapStatus {
    /// Stable wire code (append-only).
    pub fn code(self) -> u8 {
        match self {
            Self::Swapped => 0,
            Self::VerifyFailed => 1,
            Self::UnknownTenant => 2,
            Self::IoError => 3,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Swapped),
            1 => Some(Self::VerifyFailed),
            2 => Some(Self::UnknownTenant),
            3 => Some(Self::IoError),
            _ => None,
        }
    }

    /// Stable lowercase label (journal/summary vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            Self::Swapped => "swapped",
            Self::VerifyFailed => "verify-failed",
            Self::UnknownTenant => "unknown-tenant",
            Self::IoError => "io-error",
        }
    }
}

/// The outcome of one swap command (`kind = 8`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapDbResponse {
    /// The command's sequence number.
    pub seq: u64,
    /// The tenant addressed.
    pub tenant: String,
    /// What happened.
    pub status: SwapStatus,
    /// The generation actually serving after the attempt (the
    /// last-known-good one when the swap was refused; 0 for an unknown
    /// tenant).
    pub generation: u64,
}

/// A shadow→live policy promotion command (`kind = 9`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromoteRequest {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// The tenant whose candidate table is promoted.
    pub tenant: String,
}

/// How one promotion command ended (`kind = 10`, the `status` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteStatus {
    /// The shadow table now serves as the live incumbent.
    Promoted,
    /// The tenant exists but runs a non-learning policy; nothing to
    /// promote.
    NoLearner,
    /// No such tenant in the fleet.
    UnknownTenant,
}

impl PromoteStatus {
    /// Stable wire code (append-only).
    pub fn code(self) -> u8 {
        match self {
            Self::Promoted => 0,
            Self::NoLearner => 1,
            Self::UnknownTenant => 2,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Promoted),
            1 => Some(Self::NoLearner),
            2 => Some(Self::UnknownTenant),
            _ => None,
        }
    }

    /// Stable lowercase label (journal/summary vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            Self::Promoted => "promoted",
            Self::NoLearner => "no-learner",
            Self::UnknownTenant => "unknown-tenant",
        }
    }
}

/// The outcome of one promotion command (`kind = 10`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromoteResponse {
    /// The command's sequence number.
    pub seq: u64,
    /// The tenant addressed.
    pub tenant: String,
    /// What happened.
    pub status: PromoteStatus,
    /// Total promotions applied to this tenant so far (0 when the
    /// command was refused).
    pub promotions: u64,
}

/// A request-level failure (`kind = 3`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The offending request's sequence number (0 when unrecoverable).
    pub seq: u64,
    /// Human-readable reason.
    pub message: String,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame (header or payload).
    Truncated,
    /// The first 8 bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// The header declares a version this build does not speak.
    UnsupportedVersion {
        /// Declared version.
        version: u16,
    },
    /// The header's kind byte names no frame type.
    BadKind {
        /// Declared kind byte.
        kind: u8,
    },
    /// Reserved header bytes are nonzero.
    BadReserved,
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    OversizedPayload {
        /// Declared length.
        declared: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u64,
        /// Checksum of the bytes present.
        actual: u64,
    },
    /// The payload's fields are malformed (bad name, bad enum code,
    /// wrong length for its kind).
    Malformed(String),
    /// The underlying reader/writer failed.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "stream truncated inside a frame"),
            Self::BadMagic => write!(f, "bad magic (not a CLRWIRE1 frame)"),
            Self::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported protocol version {version} (this build speaks {WIRE_VERSION})"
                )
            }
            Self::BadKind { kind } => write!(f, "unknown frame kind {kind}"),
            Self::BadReserved => write!(f, "reserved header bytes are nonzero"),
            Self::OversizedPayload { declared } => {
                write!(
                    f,
                    "declared payload length {declared} exceeds the {MAX_PAYLOAD_LEN}-byte cap"
                )
            }
            Self::ChecksumMismatch { declared, actual } => {
                write!(
                    f,
                    "payload checksum mismatch (header {declared:#018x}, payload {actual:#018x})"
                )
            }
            Self::Malformed(m) => write!(f, "malformed payload: {m}"),
            Self::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Stable status codes for [`ServeStatus`] on the wire (append-only).
fn status_code(status: ServeStatus) -> u8 {
    match status {
        ServeStatus::Normal => 0,
        ServeStatus::DegradedLkg => 1,
        ServeStatus::DegradedBaseline => 2,
        ServeStatus::DegradedHold => 3,
        ServeStatus::Quarantined => 4,
    }
}

fn status_from_code(code: u8) -> Option<ServeStatus> {
    match code {
        0 => Some(ServeStatus::Normal),
        1 => Some(ServeStatus::DegradedLkg),
        2 => Some(ServeStatus::DegradedBaseline),
        3 => Some(ServeStatus::DegradedHold),
        4 => Some(ServeStatus::Quarantined),
        _ => None,
    }
}

/// `0` = no fault, else `1 + index` into [`FaultKind::ALL`].
fn fault_code(fault: Option<FaultKind>) -> u8 {
    match fault {
        None => 0,
        Some(kind) => {
            let idx = FaultKind::ALL
                .iter()
                .position(|&k| k == kind)
                .unwrap_or_default();
            u8::try_from(idx + 1).unwrap_or_default()
        }
    }
}

fn fault_from_code(code: u8) -> Result<Option<FaultKind>, WireError> {
    if code == 0 {
        return Ok(None);
    }
    FaultKind::ALL
        .get(usize::from(code) - 1)
        .copied()
        .map(Some)
        .ok_or_else(|| WireError::Malformed(format!("unknown fault code {code}")))
}

/// Little-endian payload writer.
#[derive(Default)]
struct PayloadWriter {
    bytes: Vec<u8>,
}

impl PayloadWriter {
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => {
                self.u8(0);
                self.f64(0.0);
            }
        }
    }
    fn name(&mut self, name: &str) {
        debug_assert!(is_plain_name(name), "wire names are [A-Za-z0-9_-]+");
        let len = u16::try_from(name.len()).unwrap_or(u16::MAX);
        self.bytes.extend_from_slice(&len.to_le_bytes());
        self.bytes
            .extend_from_slice(&name.as_bytes()[..usize::from(len)]);
    }
}

/// Little-endian payload reader.
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| WireError::Malformed("payload shorter than its fields".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let raw = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(u64::from_le_bytes(buf))
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        let raw = self.take(2)?;
        Ok(u16::from_le_bytes([raw[0], raw[1]]))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        let present = self.u8()?;
        let value = self.f64()?;
        match present {
            0 => Ok(None),
            1 => Ok(Some(value)),
            other => Err(WireError::Malformed(format!(
                "bad option flag {other} (expected 0 or 1)"
            ))),
        }
    }
    fn name(&mut self) -> Result<String, WireError> {
        let raw = self.take(2)?;
        let len = usize::from(u16::from_le_bytes([raw[0], raw[1]]));
        let bytes = self.take(len)?;
        let name = std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed("tenant name is not UTF-8".into()))?;
        if !is_plain_name(name) {
            return Err(WireError::Malformed(format!("bad tenant name {name:?}")));
        }
        Ok(name.to_string())
    }
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )))
        }
    }
}

impl Frame {
    /// The header kind byte of this frame.
    pub fn kind(&self) -> u8 {
        match self {
            Self::Request(_) => 1,
            Self::Response(_) => 2,
            Self::Error(_) => 3,
            Self::Shutdown => 4,
            Self::Stats(_) => 5,
            Self::StatsResponse(_) => 6,
            Self::SwapDb(_) => 7,
            Self::SwapDbResponse(_) => 8,
            Self::Promote(_) => 9,
            Self::PromoteResponse(_) => 10,
        }
    }

    /// Encodes the frame (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = PayloadWriter::default();
        match self {
            Self::Request(r) => {
                payload.u64(r.seq);
                payload.f64(r.time);
                payload.f64(r.spec.max_makespan);
                payload.f64(r.spec.min_reliability);
                payload.name(&r.tenant);
            }
            Self::Response(r) => {
                let d = &r.decision;
                payload.u64(r.seq);
                payload.name(&r.tenant);
                payload.u64(d.event as u64);
                payload.f64(d.time);
                payload.f64(d.spec.max_makespan);
                payload.f64(d.spec.min_reliability);
                payload.u64(d.feasible as u64);
                payload.u64(d.from as u64);
                payload.u64(d.to as u64);
                payload.f64(d.drc);
                payload.opt_f64(d.score);
                payload.opt_f64(d.p_rc);
                payload.u8(u8::from(d.violated));
                payload.u8(status_code(d.status));
                payload.u8(fault_code(d.fault));
            }
            Self::Error(e) => {
                payload.u64(e.seq);
                let msg = e.message.as_bytes();
                let len = u16::try_from(msg.len()).unwrap_or(u16::MAX);
                payload.bytes.extend_from_slice(&len.to_le_bytes());
                payload.bytes.extend_from_slice(&msg[..usize::from(len)]);
            }
            Self::Shutdown => {}
            Self::Stats(s) => {
                payload.u64(s.seq);
                payload.u16(s.version);
                payload.u8(u8::from(s.flight));
                match &s.tenant {
                    Some(name) => payload.name(name),
                    None => payload.u16(0), // length 0 = whole fleet
                }
            }
            Self::StatsResponse(s) => {
                payload.u64(s.seq);
                let text = s.snapshot.as_bytes();
                let len = u32::try_from(text.len()).unwrap_or(u32::MAX);
                payload.bytes.extend_from_slice(&len.to_le_bytes());
                payload
                    .bytes
                    .extend_from_slice(&text[..usize::try_from(len).unwrap_or(0)]);
            }
            Self::SwapDb(s) => {
                payload.u64(s.seq);
                payload.name(&s.tenant);
                match s.expected_generation {
                    Some(g) => {
                        payload.u8(1);
                        payload.u64(g);
                    }
                    None => {
                        payload.u8(0);
                        payload.u64(0);
                    }
                }
                let path = s.path.as_bytes();
                let len = u16::try_from(path.len()).unwrap_or(u16::MAX);
                payload.bytes.extend_from_slice(&len.to_le_bytes());
                payload.bytes.extend_from_slice(&path[..usize::from(len)]);
            }
            Self::SwapDbResponse(s) => {
                payload.u64(s.seq);
                payload.name(&s.tenant);
                payload.u8(s.status.code());
                payload.u64(s.generation);
            }
            Self::Promote(p) => {
                payload.u64(p.seq);
                payload.name(&p.tenant);
            }
            Self::PromoteResponse(p) => {
                payload.u64(p.seq);
                payload.name(&p.tenant);
                payload.u8(p.status.code());
                payload.u64(p.promotions);
            }
        }
        let payload = payload.bytes;
        let mut out = Vec::with_capacity(WIRE_HEADER_LEN + payload.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.push(self.kind());
        out.extend_from_slice(&[0u8; 5]);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes one frame from a validated header + payload pair.
    fn from_parts(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = PayloadReader::new(payload);
        let frame = match kind {
            1 => {
                let seq = r.u64()?;
                let time = r.f64()?;
                let s_max = r.f64()?;
                let f_min = r.f64()?;
                let tenant = r.name()?;
                Self::Request(Request {
                    seq,
                    tenant,
                    time,
                    spec: QosSpec::new(s_max, f_min),
                })
            }
            2 => {
                let seq = r.u64()?;
                let tenant = r.name()?;
                let event = usize::try_from(r.u64()?)
                    .map_err(|_| WireError::Malformed("event ordinal overflows usize".into()))?;
                let time = r.f64()?;
                let s_max = r.f64()?;
                let f_min = r.f64()?;
                let idx = |v: u64| {
                    usize::try_from(v)
                        .map_err(|_| WireError::Malformed("point index overflows usize".into()))
                };
                let feasible = idx(r.u64()?)?;
                let from = idx(r.u64()?)?;
                let to = idx(r.u64()?)?;
                let drc = r.f64()?;
                let score = r.opt_f64()?;
                let p_rc = r.opt_f64()?;
                let violated = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::Malformed(format!(
                            "bad violated flag {other} (expected 0 or 1)"
                        )))
                    }
                };
                let status = status_from_code(r.u8()?)
                    .ok_or_else(|| WireError::Malformed("unknown status code".to_string()))?;
                let fault = fault_from_code(r.u8()?)?;
                Self::Response(Response {
                    seq,
                    tenant,
                    decision: DecisionRecord {
                        event,
                        time,
                        spec: QosSpec::new(s_max, f_min),
                        feasible,
                        from,
                        to,
                        drc,
                        score,
                        p_rc,
                        violated,
                        status,
                        fault,
                    },
                })
            }
            3 => {
                let seq = r.u64()?;
                let raw = r.take(2)?;
                let len = usize::from(u16::from_le_bytes([raw[0], raw[1]]));
                let bytes = r.take(len)?;
                let message = std::str::from_utf8(bytes)
                    .map_err(|_| WireError::Malformed("error message is not UTF-8".into()))?
                    .to_string();
                Self::Error(ErrorFrame { seq, message })
            }
            4 => Self::Shutdown,
            5 => {
                let seq = r.u64()?;
                let version = r.u16()?;
                let flight = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::Malformed(format!(
                            "bad flight flag {other} (expected 0 or 1)"
                        )))
                    }
                };
                // Length 0 means "whole fleet"; any other length is a
                // plain tenant name.
                let len = usize::from(r.u16()?);
                let tenant = if len == 0 {
                    None
                } else {
                    let bytes = r.take(len)?;
                    let name = std::str::from_utf8(bytes)
                        .map_err(|_| WireError::Malformed("tenant name is not UTF-8".into()))?;
                    if !is_plain_name(name) {
                        return Err(WireError::Malformed(format!("bad tenant name {name:?}")));
                    }
                    Some(name.to_string())
                };
                Self::Stats(StatsRequest {
                    seq,
                    version,
                    flight,
                    tenant,
                })
            }
            6 => {
                let seq = r.u64()?;
                let raw = r.take(4)?;
                let len = usize::try_from(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
                    .map_err(|_| WireError::Malformed("snapshot length overflows usize".into()))?;
                let bytes = r.take(len)?;
                let snapshot = std::str::from_utf8(bytes)
                    .map_err(|_| WireError::Malformed("snapshot is not UTF-8".into()))?
                    .to_string();
                Self::StatsResponse(StatsResponse { seq, snapshot })
            }
            7 => {
                let seq = r.u64()?;
                let tenant = r.name()?;
                let present = r.u8()?;
                let value = r.u64()?;
                let expected_generation = match present {
                    0 => None,
                    1 => Some(value),
                    other => {
                        return Err(WireError::Malformed(format!(
                            "bad option flag {other} (expected 0 or 1)"
                        )))
                    }
                };
                let raw = r.take(2)?;
                let len = usize::from(u16::from_le_bytes([raw[0], raw[1]]));
                let bytes = r.take(len)?;
                let path = std::str::from_utf8(bytes)
                    .map_err(|_| WireError::Malformed("snapshot path is not UTF-8".into()))?
                    .to_string();
                if path.is_empty() {
                    return Err(WireError::Malformed("empty snapshot path".into()));
                }
                Self::SwapDb(SwapDbRequest {
                    seq,
                    tenant,
                    expected_generation,
                    path,
                })
            }
            8 => {
                let seq = r.u64()?;
                let tenant = r.name()?;
                let status = SwapStatus::from_code(r.u8()?)
                    .ok_or_else(|| WireError::Malformed("unknown swap status code".to_string()))?;
                let generation = r.u64()?;
                Self::SwapDbResponse(SwapDbResponse {
                    seq,
                    tenant,
                    status,
                    generation,
                })
            }
            9 => {
                let seq = r.u64()?;
                let tenant = r.name()?;
                Self::Promote(PromoteRequest { seq, tenant })
            }
            10 => {
                let seq = r.u64()?;
                let tenant = r.name()?;
                let status = PromoteStatus::from_code(r.u8()?).ok_or_else(|| {
                    WireError::Malformed("unknown promote status code".to_string())
                })?;
                let promotions = r.u64()?;
                Self::PromoteResponse(PromoteResponse {
                    seq,
                    tenant,
                    status,
                    promotions,
                })
            }
            other => return Err(WireError::BadKind { kind: other }),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Decodes one frame from a byte buffer, returning the frame and the
    /// total bytes consumed.
    ///
    /// # Errors
    ///
    /// Every structural violation is a typed [`WireError`]; see the
    /// module docs for the rejection rules.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        if bytes.len() < WIRE_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let (kind, declared_len, declared_sum) = decode_header(&bytes[..WIRE_HEADER_LEN])?;
        let total =
            WIRE_HEADER_LEN
                .checked_add(declared_len)
                .ok_or(WireError::OversizedPayload {
                    declared: declared_len as u64,
                })?;
        if bytes.len() < total {
            return Err(WireError::Truncated);
        }
        let payload = &bytes[WIRE_HEADER_LEN..total];
        let actual = fnv1a64(payload);
        if actual != declared_sum {
            return Err(WireError::ChecksumMismatch {
                declared: declared_sum,
                actual,
            });
        }
        Ok((Self::from_parts(kind, payload)?, total))
    }

    /// Writes the encoded frame to `w`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the writer fails.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), WireError> {
        w.write_all(&self.to_bytes())
            .map_err(|e| WireError::Io(e.to_string()))
    }

    /// Reads one frame from `r`. Returns `Ok(None)` on a clean EOF at a
    /// frame boundary; EOF inside a frame is [`WireError::Truncated`].
    ///
    /// # Errors
    ///
    /// [`WireError`] for structural violations or reader failures.
    pub fn read_from(r: &mut dyn Read) -> Result<Option<Self>, WireError> {
        let mut header = [0u8; WIRE_HEADER_LEN];
        let mut filled = 0usize;
        while filled < header.len() {
            match r.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
        let (kind, declared_len, declared_sum) = decode_header(&header)?;
        let mut payload = vec![0u8; declared_len];
        r.read_exact(&mut payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated
            } else {
                WireError::Io(e.to_string())
            }
        })?;
        let actual = fnv1a64(&payload);
        if actual != declared_sum {
            return Err(WireError::ChecksumMismatch {
                declared: declared_sum,
                actual,
            });
        }
        Ok(Some(Self::from_parts(kind, &payload)?))
    }
}

/// Validates a frame header, returning `(kind, payload_len, checksum)`.
fn decode_header(header: &[u8]) -> Result<(u8, usize, u64), WireError> {
    debug_assert_eq!(header.len(), WIRE_HEADER_LEN);
    if header[0..8] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([header[8], header[9]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { version });
    }
    let kind = header[10];
    if !(1..=10).contains(&kind) {
        return Err(WireError::BadKind { kind });
    }
    if header[11..16] != [0u8; 5] {
        return Err(WireError::BadReserved);
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&header[16..24]);
    let declared = u64::from_le_bytes(len8);
    let declared_len = usize::try_from(declared)
        .ok()
        .filter(|&n| n <= MAX_PAYLOAD_LEN)
        .ok_or(WireError::OversizedPayload { declared })?;
    let mut sum8 = [0u8; 8];
    sum8.copy_from_slice(&header[24..32]);
    Ok((kind, declared_len, u64::from_le_bytes(sum8)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Frame {
        Frame::Request(Request {
            seq: 7,
            tenant: "cam0".into(),
            time: 103.25,
            spec: QosSpec::new(120.5, 0.92),
        })
    }

    fn sample_response() -> Frame {
        Frame::Response(Response {
            seq: 7,
            tenant: "cam0".into(),
            decision: DecisionRecord {
                event: 3,
                time: 103.25,
                spec: QosSpec::new(120.5, 0.92),
                feasible: 12,
                from: 2,
                to: 5,
                drc: 1.75,
                score: Some(0.875),
                p_rc: None,
                violated: false,
                status: ServeStatus::Normal,
                fault: None,
            },
        })
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            sample_request(),
            sample_response(),
            Frame::Error(ErrorFrame {
                seq: 9,
                message: "unknown tenant \"ghost\"".into(),
            }),
            Frame::Shutdown,
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            let (decoded, consumed) = Frame::from_bytes(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
            // Streaming decode agrees with buffer decode.
            let mut cursor = std::io::Cursor::new(bytes);
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(frame));
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
        }
    }

    #[test]
    fn non_finite_floats_round_trip_bitwise() {
        for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let frame = Frame::Request(Request {
                seq: 1,
                tenant: "t".into(),
                time,
                spec: QosSpec::new(1.0, 0.5),
            });
            let (decoded, _) = Frame::from_bytes(&frame.to_bytes()).unwrap();
            let Frame::Request(r) = decoded else {
                panic!("kind changed in flight")
            };
            assert_eq!(r.time.to_bits(), time.to_bits());
        }
    }

    #[test]
    fn every_ladder_status_and_fault_round_trips() {
        let statuses = [
            ServeStatus::Normal,
            ServeStatus::DegradedLkg,
            ServeStatus::DegradedBaseline,
            ServeStatus::DegradedHold,
            ServeStatus::Quarantined,
        ];
        for status in statuses {
            for fault in std::iter::once(None).chain(FaultKind::ALL.map(Some)) {
                let mut frame = sample_response();
                let Frame::Response(r) = &mut frame else {
                    unreachable!()
                };
                r.decision.status = status;
                r.decision.fault = fault;
                let (decoded, _) = Frame::from_bytes(&frame.to_bytes()).unwrap();
                assert_eq!(decoded, frame);
            }
        }
    }

    #[test]
    fn corrupted_payload_is_rejected_by_checksum() {
        let mut bytes = sample_request().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Frame::from_bytes(&bytes),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_header_fields_are_rejected() {
        let good = sample_request().to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Frame::from_bytes(&bad_magic).unwrap_err(),
            WireError::BadMagic
        );

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert!(matches!(
            Frame::from_bytes(&bad_version),
            Err(WireError::UnsupportedVersion { version: 99 })
        ));

        let mut bad_kind = good.clone();
        bad_kind[10] = 42;
        assert!(matches!(
            Frame::from_bytes(&bad_kind),
            Err(WireError::BadKind { kind: 42 })
        ));

        let mut bad_reserved = good.clone();
        bad_reserved[12] = 1;
        assert_eq!(
            Frame::from_bytes(&bad_reserved).unwrap_err(),
            WireError::BadReserved
        );

        let mut oversized = good.clone();
        oversized[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Frame::from_bytes(&oversized),
            Err(WireError::OversizedPayload { .. })
        ));

        assert_eq!(
            Frame::from_bytes(&good[..WIRE_HEADER_LEN - 1]).unwrap_err(),
            WireError::Truncated
        );
        assert_eq!(
            Frame::from_bytes(&good[..good.len() - 1]).unwrap_err(),
            WireError::Truncated
        );
    }

    /// `frame`'s header over `payload`, with the length and checksum
    /// refreshed so only the payload's content can be at fault.
    fn reframe(frame: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut bytes = frame[..WIRE_HEADER_LEN].to_vec();
        bytes[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes[24..32].copy_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        // Hand-grow the payload while fixing length and checksum: the
        // structure is then valid but the request has trailing garbage.
        let Frame::Request(req) = sample_request() else {
            unreachable!()
        };
        let inner = Frame::Request(req).to_bytes();
        let mut payload = inner[WIRE_HEADER_LEN..].to_vec();
        payload.push(0xAB);
        assert!(matches!(
            Frame::from_bytes(&reframe(&inner, &payload)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn stats_frames_round_trip() {
        let frames = [
            Frame::Stats(StatsRequest::fleet(11, true)),
            Frame::Stats(StatsRequest {
                seq: 12,
                version: STATS_VERSION,
                flight: false,
                tenant: Some("cam0".into()),
            }),
            // A future stats version decodes at the frame layer; the
            // daemon is the one that objects.
            Frame::Stats(StatsRequest {
                seq: 13,
                version: 9,
                flight: false,
                tenant: None,
            }),
            Frame::StatsResponse(StatsResponse {
                seq: 11,
                snapshot: "{\"schema\":1,\"label\":\"fleet\",\"events\":0,\"dropped\":[],\
                           \"tenants\":[]}"
                    .into(),
            }),
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            let (decoded, consumed) = Frame::from_bytes(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn corrupt_stats_frames_are_rejected() {
        // Payload bit flip → checksum mismatch.
        let mut bytes = Frame::Stats(StatsRequest::fleet(1, false)).to_bytes();
        bytes[WIRE_HEADER_LEN + 2] ^= 0x40;
        assert!(matches!(
            Frame::from_bytes(&bytes),
            Err(WireError::ChecksumMismatch { .. })
        ));

        // A truncated response payload (checksum refreshed so only the
        // structural check can object) is malformed, not served.
        let good = Frame::StatsResponse(StatsResponse {
            seq: 2,
            snapshot: "{\"schema\":1}".into(),
        })
        .to_bytes();
        let mut payload = good[WIRE_HEADER_LEN..].to_vec();
        payload.truncate(payload.len() - 3); // declared text length now lies
        assert!(matches!(
            Frame::from_bytes(&reframe(&good, &payload)),
            Err(WireError::Malformed(_))
        ));

        // A bad flight flag is malformed.
        let good = Frame::Stats(StatsRequest::fleet(3, false)).to_bytes();
        let mut payload = good[WIRE_HEADER_LEN..].to_vec();
        payload[10] = 7; // the flight byte (after seq u64 + version u16)
        assert!(matches!(
            Frame::from_bytes(&reframe(&good, &payload)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn swap_db_frames_round_trip() {
        let frames = [
            Frame::SwapDb(SwapDbRequest {
                seq: 21,
                tenant: "cam0".into(),
                expected_generation: Some(3),
                path: "out/fleet.snap".into(),
            }),
            Frame::SwapDb(SwapDbRequest {
                seq: 22,
                tenant: "nav".into(),
                expected_generation: None,
                path: "/tmp/gen 4 (with spaces).snap".into(),
            }),
            Frame::SwapDbResponse(SwapDbResponse {
                seq: 21,
                tenant: "cam0".into(),
                status: SwapStatus::Swapped,
                generation: 3,
            }),
            Frame::SwapDbResponse(SwapDbResponse {
                seq: 22,
                tenant: "nav".into(),
                status: SwapStatus::VerifyFailed,
                generation: 1,
            }),
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            let (decoded, consumed) = Frame::from_bytes(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
        // Every status code survives the wire.
        for status in [
            SwapStatus::Swapped,
            SwapStatus::VerifyFailed,
            SwapStatus::UnknownTenant,
            SwapStatus::IoError,
        ] {
            assert_eq!(SwapStatus::from_code(status.code()), Some(status));
        }
        assert_eq!(SwapStatus::from_code(9), None);
    }

    #[test]
    fn corrupt_swap_db_frames_are_rejected() {
        // Payload bit flip → checksum mismatch.
        let mut bytes = Frame::SwapDb(SwapDbRequest {
            seq: 1,
            tenant: "t".into(),
            expected_generation: None,
            path: "a.snap".into(),
        })
        .to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Frame::from_bytes(&bytes),
            Err(WireError::ChecksumMismatch { .. })
        ));

        // An empty path is malformed even with a valid checksum.
        let good = Frame::SwapDb(SwapDbRequest {
            seq: 1,
            tenant: "t".into(),
            expected_generation: None,
            path: "x".into(),
        })
        .to_bytes();
        let mut payload = good[WIRE_HEADER_LEN..].to_vec();
        let plen = payload.len();
        payload.truncate(plen - 1); // drop the path byte...
        let at = payload.len() - 2;
        payload[at..].copy_from_slice(&0u16.to_le_bytes()); // ...and declare length 0
        assert!(matches!(
            Frame::from_bytes(&reframe(&good, &payload)),
            Err(WireError::Malformed(_))
        ));

        // An unknown status code is malformed.
        let good = Frame::SwapDbResponse(SwapDbResponse {
            seq: 2,
            tenant: "t".into(),
            status: SwapStatus::Swapped,
            generation: 0,
        })
        .to_bytes();
        let mut payload = good[WIRE_HEADER_LEN..].to_vec();
        let status_at = payload.len() - 9; // status byte precedes the u64 generation
        payload[status_at] = 9;
        assert!(matches!(
            Frame::from_bytes(&reframe(&good, &payload)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn promote_frames_round_trip() {
        let frames = [
            Frame::Promote(PromoteRequest {
                seq: 31,
                tenant: "cam0".into(),
            }),
            Frame::PromoteResponse(PromoteResponse {
                seq: 31,
                tenant: "cam0".into(),
                status: PromoteStatus::Promoted,
                promotions: 2,
            }),
            Frame::PromoteResponse(PromoteResponse {
                seq: 32,
                tenant: "nav".into(),
                status: PromoteStatus::NoLearner,
                promotions: 0,
            }),
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            let (decoded, consumed) = Frame::from_bytes(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
        // Every status code survives the wire.
        for status in [
            PromoteStatus::Promoted,
            PromoteStatus::NoLearner,
            PromoteStatus::UnknownTenant,
        ] {
            assert_eq!(PromoteStatus::from_code(status.code()), Some(status));
        }
        assert_eq!(PromoteStatus::from_code(9), None);
    }

    #[test]
    fn corrupt_promote_frames_are_rejected() {
        // Payload bit flip → checksum mismatch.
        let mut bytes = Frame::Promote(PromoteRequest {
            seq: 1,
            tenant: "t".into(),
        })
        .to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Frame::from_bytes(&bytes),
            Err(WireError::ChecksumMismatch { .. })
        ));

        // An unknown status code is malformed.
        let good = Frame::PromoteResponse(PromoteResponse {
            seq: 2,
            tenant: "t".into(),
            status: PromoteStatus::Promoted,
            promotions: 0,
        })
        .to_bytes();
        let mut payload = good[WIRE_HEADER_LEN..].to_vec();
        let status_at = payload.len() - 9; // status byte precedes the u64 count
        payload[status_at] = 9;
        assert!(matches!(
            Frame::from_bytes(&reframe(&good, &payload)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_tenant_names_are_rejected() {
        let frame = Frame::Request(Request {
            seq: 1,
            tenant: "ok".into(),
            time: 1.0,
            spec: QosSpec::new(1.0, 0.5),
        });
        let mut bytes = frame.to_bytes();
        // Overwrite the name bytes "ok" (the final two payload bytes)
        // with a character outside [A-Za-z0-9_-], refreshing the
        // checksum so only the semantic check can object.
        let len = bytes.len();
        bytes[len - 2] = b'a';
        bytes[len - 1] = b' ';
        assert!(matches!(
            Frame::from_bytes(&reframe(&bytes, &bytes[WIRE_HEADER_LEN..])),
            Err(WireError::Malformed(_))
        ));
    }
}

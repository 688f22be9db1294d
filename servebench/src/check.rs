//! The correctness gate: every run's response frames must be
//! byte-identical to an in-process reference, and the deterministic
//! metrics are computed from those frames.

use std::path::Path;

use clr_serve::wire::{Frame, PromoteStatus, SwapStatus, WIRE_HEADER_LEN};
use clr_serve::{replay, serve_stream, DaemonConfig, ReplayConfig, Tenant, Trace, TraceEvent};

use crate::gen::{Inputs, Item};

/// What the response frames of one stream say.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Response frames (served requests).
    pub served: usize,
    /// Sum of the reconfiguration cost of the served decisions.
    pub drc_sum: f64,
    /// Served decisions that violated their requirement.
    pub violations: usize,
    /// Error frames, swaps not `Swapped`, promotions not `Promoted`.
    pub failed: usize,
    /// Frames of any kind.
    pub frames: usize,
    /// Bytes of the response frames answering requests.
    pub response_bytes: usize,
}

impl Summary {
    /// Mean dRC per served decision.
    pub fn drc_per_event(&self) -> f64 {
        self.drc_sum / self.served.max(1) as f64
    }

    /// Violations per served decision.
    pub fn violation_rate(&self) -> f64 {
        self.violations as f64 / self.served.max(1) as f64
    }
}

/// Byte length of the frame starting at `bytes[0]`, from its header.
pub fn frame_len(bytes: &[u8]) -> Option<usize> {
    let header = bytes.get(..WIRE_HEADER_LEN)?;
    let mut len = [0u8; 8];
    len.copy_from_slice(&header[16..24]);
    let payload = usize::try_from(u64::from_le_bytes(len)).ok()?;
    Some(WIRE_HEADER_LEN + payload)
}

/// Decodes every response frame.
///
/// # Errors
///
/// A frame that does not decode.
pub fn summarize(mut bytes: &[u8]) -> Result<Summary, String> {
    let mut s = Summary {
        served: 0,
        drc_sum: 0.0,
        violations: 0,
        failed: 0,
        frames: 0,
        response_bytes: 0,
    };
    while !bytes.is_empty() {
        let (frame, used) =
            Frame::from_bytes(bytes).map_err(|e| format!("response frame {}: {e}", s.frames))?;
        match frame {
            Frame::Response(r) => {
                s.served += 1;
                s.response_bytes += used;
                s.drc_sum += r.decision.drc;
                s.violations += usize::from(r.decision.violated);
            }
            Frame::Error(_) => s.failed += 1,
            Frame::SwapDbResponse(r) if r.status != SwapStatus::Swapped => s.failed += 1,
            Frame::PromoteResponse(r) if r.status != PromoteStatus::Promoted => s.failed += 1,
            _ => {}
        }
        s.frames += 1;
        bytes = &bytes[used..];
    }
    Ok(s)
}

/// The gate: `got` must equal `reference` byte for byte.
///
/// # Errors
///
/// Names the first frame that differs (or the missing tail).
pub fn gate(reference: &[u8], got: &[u8]) -> Result<(), String> {
    if reference == got {
        return Ok(());
    }
    let (mut at, mut frame) = (0usize, 0usize);
    while at < reference.len() {
        let len = frame_len(&reference[at..]).unwrap_or(reference.len() - at);
        let end = (at + len).min(reference.len());
        if got.get(at..end) != Some(&reference[at..end]) {
            return Err(format!(
                "response frame {frame} (bytes {at}..{end}) differs from the in-process reference"
            ));
        }
        at = end;
        frame += 1;
    }
    Err(format!(
        "{} bytes after the reference's last frame",
        got.len() - reference.len()
    ))
}

/// Daemon configuration for `inputs` at `threads` workers.
pub fn config(threads: usize, learn_dir: Option<&Path>) -> DaemonConfig {
    let mut cfg = DaemonConfig::default();
    cfg.replay.threads = threads;
    cfg.learn_dir = learn_dir.map(Path::to_path_buf);
    cfg
}

/// Serves `bytes` in process, returning the response bytes and how many
/// admission batches served requests.
///
/// # Errors
///
/// A serving failure.
pub fn serve(
    tenants: &[Tenant],
    bytes: &[u8],
    threads: usize,
    learn_dir: Option<&Path>,
) -> Result<(Vec<u8>, usize), String> {
    let mut input = bytes;
    let mut out = Vec::with_capacity(bytes.len() * 2);
    let report = serve_stream(tenants, &mut input, &mut out, &config(threads, learn_dir))
        .map_err(|e| format!("in-process serve: {e}"))?;
    Ok((out, report.batches))
}

/// Checks the request phase of a stream with no swap or promote frames
/// in it against batch `clr_serve::replay`: every response frame before
/// the first swap must carry exactly the decision the batch engine
/// records for that event.
///
/// # Errors
///
/// The first decision that differs.
pub fn replay_check(tenants: &[Tenant], inputs: &Inputs, reference: &[u8]) -> Result<(), String> {
    let stream = &inputs.stream;
    let phase = stream
        .items
        .iter()
        .position(|i| matches!(i, Item::Swap(_) | Item::Promote))
        .unwrap_or(stream.len());
    let mut events = Vec::new();
    for i in 0..phase {
        if stream.items[i] == Item::Request {
            if let Ok((Frame::Request(r), _)) = Frame::from_bytes(stream.frame(i)) {
                events.push(TraceEvent {
                    tenant: r.tenant,
                    time: r.time,
                    spec: r.spec,
                });
            }
        }
    }
    let cfg = ReplayConfig {
        threads: 1,
        ..ReplayConfig::default()
    };
    let report = replay(tenants, &Trace::new(events), &cfg).map_err(|e| e.to_string())?;
    let index: std::collections::BTreeMap<&str, usize> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name(), i))
        .collect();
    let mut next = vec![0usize; tenants.len()];
    let mut bytes = reference;
    for frame_no in 0..phase {
        let (frame, used) = Frame::from_bytes(bytes).map_err(|e| e.to_string())?;
        bytes = &bytes[used..];
        if let Frame::Response(r) = frame {
            let t = index[r.tenant.as_str()];
            let expected = report.outcomes()[t].decisions.get(next[t]);
            if expected != Some(&r.decision) {
                return Err(format!(
                    "frame {frame_no}: daemon decision for {} differs from batch replay",
                    r.tenant
                ));
            }
            next[t] += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_dse::QosSpec;
    use clr_serve::wire::{Response, StatsResponse};
    use clr_serve::{DecisionRecord, ServeStatus};

    fn response(seq: u64, drc: f64, violated: bool) -> Vec<u8> {
        Frame::Response(Response {
            seq,
            tenant: "t0".into(),
            decision: DecisionRecord {
                event: seq as usize,
                time: seq as f64,
                spec: QosSpec::new(100.0, 0.5),
                feasible: 3,
                from: 0,
                to: 1,
                drc,
                score: Some(0.5),
                p_rc: Some(0.5),
                violated,
                status: ServeStatus::Normal,
                fault: None,
            },
        })
        .to_bytes()
    }

    fn stream() -> Vec<u8> {
        let mut bytes = response(1, 2.0, false);
        bytes.extend(
            Frame::StatsResponse(StatsResponse {
                seq: 2,
                snapshot: "{}".into(),
            })
            .to_bytes(),
        );
        bytes.extend(response(3, 4.0, true));
        bytes
    }

    #[test]
    fn gate_passes_identical_bytes() {
        let bytes = stream();
        assert!(gate(&bytes, &bytes.clone()).is_ok());
    }

    #[test]
    fn gate_fires_on_one_perturbed_response_byte() {
        let reference = stream();
        let first = frame_len(&reference).unwrap();
        let second = frame_len(&reference[first..]).unwrap();
        // Flip one byte inside the third frame's payload.
        let mut got = reference.clone();
        let at = first + second + WIRE_HEADER_LEN + 3;
        got[at] ^= 0x01;
        let err = gate(&reference, &got).unwrap_err();
        assert!(err.contains("response frame 2"), "{err}");
        // A missing tail and an extra tail are failures too.
        assert!(gate(&reference, &reference[..first]).is_err());
        let mut longer = reference.clone();
        longer.push(0);
        assert!(gate(&reference, &longer).is_err());
    }

    #[test]
    fn deterministic_metrics_come_from_the_response_frames() {
        let s = summarize(&stream()).unwrap();
        assert_eq!(s.served, 2);
        assert_eq!(s.frames, 3);
        assert_eq!(s.drc_per_event(), 3.0);
        assert_eq!(s.violation_rate(), 0.5);
        assert_eq!(s.failed, 0);
        // A perturbed decision changes a deterministic metric, so equal
        // metrics across runs is a second, independent check.
        let mut other = response(1, 2.5, false);
        other.extend(response(3, 4.0, true));
        assert_ne!(
            summarize(&other).unwrap().drc_per_event(),
            s.drc_per_event()
        );
    }
}

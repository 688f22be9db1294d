//! The traced run: per-layer numbers from in-process passes over the
//! same inputs, timed at the calls into each layer's public functions.
//!
//! The **traced pass** replays the daemon's admission loop over the
//! stream (decode → `Daemon::handle_batch` → encode, control frames
//! between batches) with a span around every call it makes into `wire`,
//! `daemon` and `telemetry`; its output must equal the reference bytes.
//! Calls those functions make into lower layers cannot be timed from
//! outside, so the **probe pass** makes the inner calls again on the same
//! inputs — `TenantSession::feed_at` per request, and the runtime,
//! learner and health calls a session makes per request — and records
//! them as child spans of the span they happened inside. A span's self
//! time is its duration minus its children's, so the self times of the
//! pass's subtree add up to the spans at the top of the pass; the
//! stage-coverage check compares that sum with the pass's wall time.
//! Spans outside the pass (client-side decode, store pulls, checkpoint
//! codecs, the plain-AuRA and learner probes) have no parent.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use clr_dse::QosSpec;
use clr_learn::{LearnConfig, LearnerState};
use clr_obs::TelemetrySnapshot;
use clr_runtime::{DecisionInput, Feedback, RuntimeContext, RuntimePolicy};
use clr_serve::wire::{
    Frame, PromoteRequest, Request, StatsRequest, StatsResponse, SwapDbRequest, WireError,
    MAX_PAYLOAD_LEN,
};
use clr_serve::{
    serve_stream, Daemon, DecisionRecord, HealthState, LineageSnapshot, PolicySpec, Tenant,
    TenantSession,
};
use clr_store::Store;

use crate::check::{self, config};
use crate::gen::{Inputs, Item};
use crate::stats::median;
use crate::{copy_dir, metric, Metric, Outcome, Prepared};

/// Largest uncovered share of the traced pass's wall time.
const MAX_UNCOVERED_PCT: f64 = 10.0;

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// 1-based id of the enclosing span, 0 for none.
    parent: u32,
    name: &'static str,
    /// The request (or control frame) sequence number the call served.
    seq: u64,
    start: u64,
    end: u64,
}

/// In-memory span recorder; written out once the run ends.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool, capacity: usize) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as span `name`; returns its result and the span's id.
    fn span<R>(
        &mut self,
        name: &'static str,
        seq: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        if !self.on {
            return (f(), 0);
        }
        let start = self.now();
        let r = std::hint::black_box(f());
        let end = self.now();
        self.spans.push(Span {
            parent,
            name,
            seq,
            start,
            end,
        });
        (r, u32::try_from(self.spans.len()).unwrap_or(u32::MAX))
    }

    /// Opens a span whose end is set later with [`Tracer::close`].
    fn open(&mut self, name: &'static str) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            parent: 0,
            name,
            seq: 0,
            start,
            end: start,
        });
        u32::try_from(self.spans.len()).unwrap_or(u32::MAX)
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize - 1].end = end;
    }

    /// The cost of one empty span, subtracted from every duration.
    fn calibrate(&mut self) -> f64 {
        let mut d = Vec::with_capacity(2_001);
        for _ in 0..2_001 {
            let (_, id) = self.span("calibrate", 0, 0, || ());
            let s = self.spans[id as usize - 1];
            d.push((s.end - s.start) as f64);
        }
        self.spans.clear();
        median(&d)
    }

    fn write_csv(&self, path: &Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        let w = |e: std::io::Error| e.to_string();
        writeln!(out, "id,parent,name,seq,start_ns,end_ns").map_err(w)?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                i + 1,
                s.parent,
                s.name,
                s.seq,
                s.start,
                s.end
            )
            .map_err(w)?;
        }
        out.flush().map_err(w)
    }
}

/// What the traced pass hands the probe pass.
struct Pass {
    /// Wall time of the pass, ns.
    wall_ns: f64,
    /// Pass span id.
    root: u32,
    /// Per frame: the span the frame was served in (batch or control).
    served_in: Vec<u32>,
    /// Stats snapshots answered, for the client-side decode probe.
    snapshots: Vec<String>,
}

/// The daemon's admission loop over the stream, in process, with a span
/// around every call into the serve layers when tracing is on. Returns
/// the response bytes.
fn serve_pass(
    tr: &mut Tracer,
    inputs: &Inputs,
    tenants: &[Tenant],
    threads: usize,
    learn_dir: Option<&Path>,
) -> Result<(Vec<u8>, Pass), String> {
    let cfg = config(threads, learn_dir);
    let daemon = Daemon::new(tenants, &cfg).map_err(|e| e.to_string())?;
    if let Some(dir) = learn_dir {
        daemon.restore_learners(dir);
    }
    enum Control {
        Stats(StatsRequest),
        Swap(SwapDbRequest),
        Promote(PromoteRequest),
    }
    let stream = &inputs.stream;
    let frames = stream.len();
    let mut out = Vec::with_capacity(stream.bytes.len() * 2);
    let mut served_in = vec![0u32; frames];
    let mut snapshots = Vec::new();
    let started = Instant::now();
    let root = if tr.on { tr.open("pass") } else { 0 };
    let mut i = 0usize;
    while i < frames {
        let mut batch: Vec<Request> = Vec::with_capacity(cfg.batch);
        let mut control = None;
        let first = i;
        // One span per admission: decode frames until the batch is full
        // or a control frame closes it, as `serve_stream` reads them.
        let (decoded, _) = tr.span("wire.decode", first as u64 + 1, root, || {
            while batch.len() < cfg.batch && i < frames {
                let (frame, _) = Frame::from_bytes(stream.frame(i))?;
                i += 1;
                match frame {
                    Frame::Request(r) => batch.push(r),
                    Frame::Stats(q) => control = Some(Control::Stats(q)),
                    Frame::SwapDb(r) => control = Some(Control::Swap(r)),
                    Frame::Promote(r) => control = Some(Control::Promote(r)),
                    _ => return Err(WireError::BadKind { kind: frame.kind() }),
                }
                if control.is_some() {
                    break;
                }
            }
            Ok(())
        });
        decoded.map_err(|e| format!("frame {i}: {e}"))?;
        if !batch.is_empty() {
            let (first_seq, n) = (batch[0].seq, batch.len());
            // The admitted batch is released with the call that served it.
            let (responses, id) = tr.span("daemon.batch", first_seq, root, || {
                let responses = daemon.handle_batch(&batch);
                drop(batch);
                responses
            });
            for slot in &mut served_in[first..first + n] {
                *slot = id;
            }
            // Encode and write the responses, as `Frame::write_to` does.
            tr.span("wire.encode", first_seq, root, || {
                for f in responses {
                    out.extend_from_slice(&f.to_bytes());
                }
            });
        }
        let (frame, id) = match control {
            None => continue,
            Some(Control::Stats(q)) => {
                let (snap, id) = tr.span("telemetry.assemble", q.seq, root, || {
                    daemon.telemetry("fleet", q.flight, q.tenant.as_deref())
                });
                let (json, _) = tr.span("telemetry.encode", q.seq, root, || snap.to_json());
                // The workloads size their queries to fit one frame.
                if json.len() + 12 > MAX_PAYLOAD_LEN {
                    return Err(format!("stats query {} overflows the frame cap", q.seq));
                }
                snapshots.push(json.clone());
                let frame = Frame::StatsResponse(StatsResponse {
                    seq: q.seq,
                    snapshot: json,
                });
                (frame, id)
            }
            Some(Control::Swap(r)) => {
                tr.span("daemon.swap", r.seq, root, || daemon.swap_response(&r))
            }
            Some(Control::Promote(r)) => tr.span("daemon.promote", r.seq, root, || {
                daemon.promote_response(&r)
            }),
        };
        served_in[i - 1] = id;
        tr.span("wire.encode", i as u64, root, || {
            out.extend_from_slice(&frame.to_bytes())
        });
    }
    if tr.on {
        tr.close(root);
    }
    let wall_ns = started.elapsed().as_nanos() as f64;
    Ok((
        out,
        Pass {
            wall_ns,
            root,
            served_in,
            snapshots,
        },
    ))
}

/// What a mirror pass replays below the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The calls on the served path, as children of `session.feed`.
    Served,
    /// Plain AuRA (and, with no learning tenant, a learner) on the same
    /// inputs, unparented: the bases of `learn.overhead_pct`.
    Probe,
}

/// A tenant's decision path rebuilt from the runtime, learner and
/// health layers, following the decisions its session made.
struct Mirror<'a> {
    tenant: &'a Tenant,
    ctx: RuntimeContext<'a>,
    /// Served mode: the tenant's policy. Probe mode: plain AuRA.
    policy: Box<dyn RuntimePolicy>,
    /// Served mode: the learner that serves `aura+learn` tenants.
    /// Probe mode: a learner fed without serving, on workloads with no
    /// learning tenant.
    learner: Option<LearnerState>,
    health: HealthState,
    makespans: Vec<f64>,
    feasible: Vec<usize>,
    next_episode_end: f64,
    now: f64,
    current: usize,
}

fn makespans(db: &clr_dse::DesignPointDb) -> Vec<f64> {
    db.points().iter().map(|p| p.metrics.makespan).collect()
}

/// Plain AuRA with the learner's (or the default) parameters.
fn aura_of(spec: PolicySpec, points: usize) -> Box<dyn RuntimePolicy> {
    let (p_rc, gamma, alpha) = match spec {
        PolicySpec::AuraLearn {
            p_rc, gamma, alpha, ..
        }
        | PolicySpec::Aura { p_rc, gamma, alpha } => (p_rc, gamma, alpha),
        _ => (0.5, 0.6, 0.2),
    };
    PolicySpec::Aura { p_rc, gamma, alpha }.build(points)
}

/// Per-layer accumulators of the probe passes.
#[derive(Default)]
struct Probe {
    feasible_points: u64,
    decisions: u64,
    mismatches: u64,
    snapshot_bytes: u64,
    checkpoint_bytes: u64,
    checkpoints: u64,
    delta_bytes: u64,
    full_bytes: u64,
    hits: u64,
    misses: u64,
}

/// The session calls of the stream: a decision record (and its span) per
/// request, a decoded snapshot (and its span) per swap.
struct Fed {
    frames: Vec<Frame>,
    records: Vec<Option<(DecisionRecord, u32)>>,
    swapped: Vec<Option<(LineageSnapshot, u32)>>,
}

/// Probe 1: the sessions alone, fed in stream order like the batch feeds
/// them, so their calls run under the same cache conditions.
fn feed_sessions(
    tr: &mut Tracer,
    inputs: &Inputs,
    tenants: &[Tenant],
    pristine: Option<&Path>,
    pass: &Pass,
) -> Result<Fed, String> {
    let replay = config(1, None).replay;
    let mut sessions: Vec<TenantSession<'_>> = Vec::with_capacity(tenants.len());
    for (idx, t) in tenants.iter().enumerate() {
        let mut session = TenantSession::new(t, idx, &replay);
        if let Some(state) = pristine_learner(t, pristine)? {
            session.restore_learner(state)?;
        }
        sessions.push(session);
    }
    let index = name_index(tenants);
    let stream = &inputs.stream;
    let frames: Vec<Frame> = (0..stream.len())
        .map(|i| Frame::from_bytes(stream.frame(i)).map(|(f, _)| f))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut records = vec![None; frames.len()];
    let mut swapped = vec![None; frames.len()];
    for (i, frame) in frames.iter().enumerate() {
        let parent = pass.served_in[i];
        match frame {
            Frame::Request(r) => {
                let session = &mut sessions[index[r.tenant.as_str()]];
                let (rec, fid) = tr.span("session.feed", r.seq, parent, || {
                    session.feed_at(r.time, r.spec)
                });
                records[i] = Some((rec, fid));
            }
            Frame::SwapDb(r) => {
                let session = &mut sessions[index[r.tenant.as_str()]];
                let bytes = std::fs::read(&r.path).map_err(|e| format!("{}: {e}", r.path))?;
                let (snap, _) = tr.span("snapshot.decode", r.seq, parent, || {
                    LineageSnapshot::from_bytes(&bytes)
                });
                let snap = snap.map_err(|e| e.to_string())?;
                let (_, sid) = tr.span("session.swap", r.seq, parent, || {
                    session.swap_db(&snap, r.expected_generation)
                });
                swapped[i] = Some((snap, sid));
            }
            Frame::Promote(r) => {
                sessions[index[r.tenant.as_str()]].promote();
            }
            _ => {}
        }
    }
    Ok(Fed {
        frames,
        records,
        swapped,
    })
}

fn name_index(tenants: &[Tenant]) -> BTreeMap<&str, usize> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name(), i))
        .collect()
}

/// The tenant's starting checkpoint, when the workload has them.
fn pristine_learner(t: &Tenant, pristine: Option<&Path>) -> Result<Option<LearnerState>, String> {
    let Some(dir) = pristine.filter(|_| t.policy().learn_config().is_some()) else {
        return Ok(None);
    };
    match std::fs::read(dir.join(format!("{}.learn", t.name()))) {
        Ok(bytes) => LearnerState::from_bytes(&bytes)
            .map(Some)
            .map_err(|e| e.to_string()),
        Err(_) => Ok(None),
    }
}

/// Probes 2 and 3: the calls a session makes below itself (`Served`), or
/// the comparison policies (`Probe`), replayed along the session's own
/// decisions.
#[allow(clippy::too_many_lines)]
fn mirror_pass<'a>(
    tr: &mut Tracer,
    tenants: &'a [Tenant],
    fed: &Fed,
    pristine: Option<&Path>,
    seed: u64,
    mode: Mode,
    p: &mut Probe,
) -> Result<Vec<Mirror<'a>>, String> {
    let replay = config(1, None).replay;
    let any_learner = tenants.iter().any(|t| t.policy().learn_config().is_some());
    let mut mirrors: Vec<Mirror<'a>> = Vec::with_capacity(tenants.len());
    for t in tenants {
        let build = || RuntimeContext::try_new(t.graph(), t.platform(), t.db());
        let ctx = if mode == Mode::Served {
            tr.span("runtime.context_build", 0, 0, build).0
        } else {
            build()
        };
        let ctx = ctx.map_err(|e| format!("{}: {e}", t.name()))?;
        let points = t.db().len();
        let (policy, learner) = match mode {
            Mode::Served => {
                let learner = match t.policy().learn_config() {
                    None => None,
                    Some(cfg) => match pristine_learner(t, pristine)? {
                        Some(state) => Some(state),
                        None => Some(LearnerState::new(t.name(), points, t.generation(), cfg)?),
                    },
                };
                (t.policy().build(points), learner)
            }
            Mode::Probe => {
                let learner = if any_learner {
                    None
                } else {
                    let cfg = LearnConfig::new(0.5, 0.6, 0.2, 0.05, seed)?;
                    Some(LearnerState::new(t.name(), points, t.generation(), cfg)?)
                };
                (aura_of(t.policy(), points), learner)
            }
        };
        mirrors.push(Mirror {
            tenant: t,
            ctx,
            policy,
            learner,
            health: HealthState::new(),
            makespans: makespans(t.db()),
            feasible: Vec::new(),
            next_episode_end: replay.episode_cycles,
            now: 0.0,
            current: t.initial_point(),
        });
    }
    let index = name_index(tenants);
    for (i, frame) in fed.frames.iter().enumerate() {
        match frame {
            Frame::Request(r) => {
                let m = &mut mirrors[index[r.tenant.as_str()]];
                let (rec, fid) = fed.records[i].as_ref().ok_or("request without a record")?;
                // With learning tenants in the fleet, plain AuRA is only
                // compared against the learners.
                let probe_this = mode == Mode::Served
                    || !any_learner
                    || m.tenant.policy().learn_config().is_some();
                if probe_this {
                    mirror_decision(
                        tr,
                        m,
                        rec,
                        r.seq,
                        *fid,
                        r.time,
                        r.spec,
                        replay.episode_cycles,
                        mode,
                        p,
                    );
                }
            }
            Frame::SwapDb(r) => {
                let m = &mut mirrors[index[r.tenant.as_str()]];
                let (snap, sid) = fed.swapped[i].as_ref().ok_or("swap without a snapshot")?;
                let t = m.tenant;
                let build = || {
                    RuntimeContext::try_new_owned(
                        t.graph(),
                        t.platform(),
                        snap.snapshot().db().clone(),
                    )
                };
                let ctx = if mode == Mode::Served {
                    let (verified, _) = tr.span("snapshot.verify", r.seq, *sid, || snap.verify());
                    verified.map_err(|e| e.to_string())?;
                    tr.span("runtime.context_build", r.seq, *sid, build).0
                } else {
                    build()
                };
                let db = snap.snapshot().db();
                let (points, generation) = (db.len(), snap.lineage().generation);
                m.ctx = ctx.map_err(|e| e.to_string())?;
                m.policy = match mode {
                    Mode::Served => t.policy().build(points),
                    Mode::Probe => aura_of(t.policy(), points),
                };
                if let Some(l) = m.learner.as_mut() {
                    l.reseat(points, generation);
                }
                m.makespans = makespans(db);
                m.current = t.initial_point().min(points - 1);
            }
            Frame::Promote(r) => {
                let m = &mut mirrors[index[r.tenant.as_str()]];
                if let (Mode::Served, Some(l)) = (mode, m.learner.as_mut()) {
                    l.promote();
                }
            }
            _ => {}
        }
    }
    Ok(mirrors)
}

/// The calls one `feed_at` makes below the session, on the same input.
#[allow(clippy::too_many_arguments)]
fn mirror_decision(
    tr: &mut Tracer,
    m: &mut Mirror<'_>,
    rec: &DecisionRecord,
    seq: u64,
    fid: u32,
    event_time: f64,
    spec: QosSpec,
    episode: f64,
    mode: Mode,
    p: &mut Probe,
) {
    let time = event_time.max(m.now);
    m.now = time;
    if episode.is_finite() && episode > 0.0 {
        while m.next_episode_end <= time {
            match (mode, m.learner.as_mut()) {
                (Mode::Served, Some(l)) => l.end_episode(),
                (Mode::Probe, Some(l)) => {
                    l.end_episode();
                    m.policy.end_episode();
                }
                (_, None) => m.policy.end_episode(),
            }
            m.next_episode_end += episode;
        }
    }
    let Mirror {
        ctx,
        policy,
        learner,
        health,
        makespans,
        feasible,
        current,
        ..
    } = m;
    let input = |feasible| DecisionInput {
        ctx,
        current: *current,
        spec: &spec,
        feasible,
    };
    let feedback = Feedback {
        ctx,
        from: *current,
        to: rec.to,
    };
    if mode == Mode::Probe {
        ctx.feasible_into(&spec, feasible);
        let input = input(feasible);
        tr.span("probe.aura_decide", seq, 0, || policy.decide(&input));
        tr.span("probe.aura_observe", seq, 0, || policy.observe(&feedback));
        if let Some(l) = learner.as_mut() {
            tr.span("probe.learn_decide", seq, 0, || l.decide(&input));
            tr.span("probe.learn_observe", seq, 0, || l.observe(&feedback));
        }
        *current = rec.to;
        return;
    }
    tr.span("runtime.feasible", seq, fid, || {
        ctx.feasible_into(&spec, feasible)
    });
    p.feasible_points += feasible.len() as u64;
    p.decisions += 1;
    let input = input(feasible);
    let choice = match learner.as_mut() {
        Some(l) => {
            let (out, _) = tr.span("learn.decide", seq, fid, || l.decide(&input));
            tr.span("learn.observe", seq, fid, || l.observe(&feedback));
            out.choice
        }
        None => {
            let (out, _) = tr.span("runtime.decide", seq, fid, || policy.decide(&input));
            tr.span("runtime.observe", seq, fid, || policy.observe(&feedback));
            out.choice
        }
    };
    if choice.unwrap_or(*current) != rec.to {
        p.mismatches += 1;
    }
    let slack = makespans
        .get(rec.to)
        .map_or(0.0, |ms| (spec.max_makespan - ms).max(0.0));
    tr.span("health.observe", seq, fid, || health.observe(rec, slack));
    *current = rec.to;
}

/// Probes 4–6, all outside the pass: the client's snapshot decode, the
/// learners' checkpoint codec, and the client's half of every rollout.
fn client_probes(
    tr: &mut Tracer,
    inputs: &Inputs,
    pass: &Pass,
    learners: &[&LearnerState],
    p: &mut Probe,
) -> Result<(), String> {
    for json in &pass.snapshots {
        let (decoded, _) = tr.span("telemetry.decode", 0, 0, || {
            TelemetrySnapshot::from_json(json)
        });
        decoded?;
        p.snapshot_bytes += json.len() as u64;
    }
    for l in learners {
        p.hits += l.prefetch_hits();
        p.misses += l.prefetch_misses();
        let (bytes, _) = tr.span("learn.checkpoint_encode", 0, 0, || l.to_bytes());
        let (back, _) = tr.span("learn.checkpoint_decode", 0, 0, || {
            LearnerState::from_bytes(&bytes)
        });
        if back.map_err(|e| e.to_string())?.to_bytes() != bytes {
            return Err(format!("checkpoint of {} does not round-trip", l.tenant()));
        }
        p.checkpoint_bytes += bytes.len() as u64;
        p.checkpoints += 1;
    }
    let mut replicas = Vec::new();
    for o in &inputs.origins {
        let mut s = Store::in_memory();
        let genesis = LineageSnapshot::from_bytes(&o.exports[0]).map_err(|e| e.to_string())?;
        s.merge(&genesis).map_err(|e| e.to_string())?;
        replicas.push(s);
    }
    for (k, r) in inputs.rollouts.iter().enumerate() {
        let origin = &inputs.origins[r.origin];
        let seq = k as u64;
        let (cs, _) = tr.span("store.changeset", seq, 0, || {
            origin.store.changeset(r.from, r.to)
        });
        let cs = cs.map_err(|e| e.to_string())?;
        let (merged, _) = tr.span("store.merge", seq, 0, || {
            replicas[r.origin].merge_changeset(&cs)
        });
        merged.map_err(|e| e.to_string())?;
        p.delta_bytes += cs.byte_len() as u64;
        let g = usize::try_from(r.to).map_err(|e| e.to_string())?;
        p.full_bytes += origin.exports[g].len() as u64;
    }
    Ok(())
}

/// Per span name: `(count, Σ duration, Σ self time)`, ns.
type ByName = BTreeMap<&'static str, (u64, f64, f64)>;

/// Span totals by name: `(count, Σ duration, Σ self time)`, both net of
/// the calibrated span cost, over the spans with the given root (0 =
/// every span).
fn totals(spans: &[Span], cost: f64) -> (ByName, Vec<f64>) {
    let mut child = vec![0.0f64; spans.len() + 1];
    for s in spans {
        child[s.parent as usize] += (s.end - s.start) as f64 - cost;
    }
    let mut by_name = ByName::new();
    for (i, s) in spans.iter().enumerate() {
        let d = (s.end - s.start) as f64 - cost;
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += d;
        e.2 += d - child[i + 1];
    }
    (by_name, child)
}

/// Events per second of an untraced in-process `serve_stream`, timed from
/// the first request read to the last request's response written.
fn in_process_rate(
    inputs: &Inputs,
    tenants: &[Tenant],
    learn: Option<&Path>,
) -> Result<f64, String> {
    struct Src<'s> {
        bytes: &'s [u8],
        pos: usize,
        first_request: usize,
        started: Option<Instant>,
    }
    impl Read for Src<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.started.is_none() && self.pos >= self.first_request {
                self.started = Some(Instant::now());
            }
            let n = buf.len().min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }
    struct Sink {
        frames: usize,
        stamps: Vec<Instant>,
    }
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.frames += 1;
            self.stamps.push(Instant::now());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let stream = &inputs.stream;
    let last_request = stream
        .items
        .iter()
        .rposition(|i| *i == Item::Request)
        .ok_or("no requests")?;
    let mut src = Src {
        bytes: &stream.bytes,
        pos: 0,
        first_request: stream.offsets[1],
        started: None,
    };
    let mut sink = Sink {
        frames: 0,
        stamps: Vec::with_capacity(stream.len()),
    };
    serve_stream(tenants, &mut src, &mut sink, &config(inputs.threads, learn))
        .map_err(|e| e.to_string())?;
    if sink.frames != stream.len() {
        return Err("in-process serve wrote one frame per write call, expected".into());
    }
    let started = src
        .started
        .ok_or("stream never reached its first request")?;
    let secs = sink.stamps[last_request]
        .duration_since(started)
        .as_secs_f64();
    Ok(stream.requests() as f64 / secs.max(1e-9))
}

/// Handle-batch throughput at `threads` over the stream's requests.
fn batch_rate(inputs: &Inputs, tenants: &[Tenant], threads: usize) -> Result<f64, String> {
    let requests: Vec<Request> = (0..inputs.stream.len())
        .filter(|&i| inputs.stream.items[i] == Item::Request)
        .filter_map(|i| match Frame::from_bytes(inputs.stream.frame(i)) {
            Ok((Frame::Request(r), _)) => Some(r),
            _ => None,
        })
        .collect();
    let daemon = Daemon::new(tenants, &config(threads, None)).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for chunk in requests.chunks(256) {
        std::hint::black_box(daemon.handle_batch(chunk));
    }
    Ok(requests.len() as f64 / start.elapsed().as_secs_f64().max(1e-9))
}

/// Traced rounds per run. Span-derived metrics are medians over rounds,
/// so a passing slowdown of the machine moves one round, not the result.
const ROUNDS: usize = 3;

/// Copies the starting checkpoints (if any) into a fresh directory.
fn learn_copy(inputs: &Inputs, prepared: &Prepared, name: &str) -> Result<Option<PathBuf>, String> {
    prepared
        .pristine
        .as_ref()
        .map(|p| copy_dir(p, &inputs.dir.join(name)))
        .transpose()
}

/// One round: the untraced and the traced pass at one thread (so a
/// layer's self time is its share of one core), then the probes. Returns
/// the span-derived metrics, the uncovered share, and the spans.
#[allow(clippy::too_many_lines)]
fn traced_round(
    inputs: &Inputs,
    prepared: &Prepared,
    seed: u64,
) -> Result<(Vec<Metric>, f64, Tracer), String> {
    let tenants = &prepared.tenants;
    let mut off = Tracer::new(false, 0);
    let learn = learn_copy(inputs, prepared, "pass-learn")?;
    let (untraced_out, untraced) = serve_pass(&mut off, inputs, tenants, 1, learn.as_deref())?;
    check::gate(&prepared.reference, &untraced_out)?;
    let mut tr = Tracer::new(true, inputs.stream.len() * 16);
    let cost = tr.calibrate();
    let learn = learn_copy(inputs, prepared, "pass-learn")?;
    let (traced_out, pass) = serve_pass(&mut tr, inputs, tenants, 1, learn.as_deref())?;
    check::gate(&prepared.reference, &traced_out)?;
    let pristine = prepared.pristine.as_deref();
    let mut probe = Probe::default();
    let fed = feed_sessions(&mut tr, inputs, tenants, pristine, &pass)?;
    let served = mirror_pass(
        &mut tr,
        tenants,
        &fed,
        pristine,
        seed,
        Mode::Served,
        &mut probe,
    )?;
    let probes = mirror_pass(
        &mut tr,
        tenants,
        &fed,
        pristine,
        seed,
        Mode::Probe,
        &mut probe,
    )?;
    let learners: Vec<&LearnerState> = served
        .iter()
        .chain(&probes)
        .filter_map(|m| m.learner.as_ref())
        .collect();
    client_probes(&mut tr, inputs, &pass, &learners, &mut probe)?;
    if probe.mismatches > 0 {
        return Err(format!(
            "{} mirrored decisions differ from the session's",
            probe.mismatches
        ));
    }

    let (by_name, child) = totals(&tr.spans, cost);
    let get = |name: &str| by_name.get(name).copied().unwrap_or((0, 0.0, 0.0));
    let mean = |name: &str| {
        let (n, d, _) = get(name);
        d / n.max(1) as f64
    };
    let self_mean = |name: &str| {
        let (n, _, s) = get(name);
        s / n.max(1) as f64
    };
    // Stage coverage: the pass's direct children vs its wall time.
    let root = tr.spans[pass.root as usize - 1];
    let wall = (root.end - root.start) as f64;
    let uncovered_pct = (wall - child[pass.root as usize]) / wall * 100.0;
    eprintln!(
        "  traced pass: {:.1} ms wall, span cost {cost:.0} ns",
        wall / 1e6
    );
    // Self time by layer over the pass's subtree only (spans are
    // recorded after their parents).
    let mut inside = vec![false; tr.spans.len() + 1];
    inside[pass.root as usize] = true;
    let mut in_pass: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in tr.spans.iter().enumerate() {
        if inside[s.parent as usize] {
            inside[i + 1] = true;
            let d = (s.end - s.start) as f64 - cost;
            *in_pass.entry(s.name).or_default() += d - child[i + 1];
        }
    }
    for (name, self_ns) in &in_pass {
        eprintln!(
            "    {name:<28} {:>6.2}% of the pass",
            self_ns / wall * 100.0
        );
    }
    eprintln!(
        "    {:<28} {uncovered_pct:>6.2}% of the pass",
        "uncovered (loop glue)"
    );

    let frames = inputs.stream.len() as f64;
    let (batches, _, batch_self) = get("daemon.batch");
    let cost_of = |d: &str, o: &str| get(d).1 + get(o).1;
    let (learn_d, learn_o) = if get("learn.decide").0 > 0 {
        ("learn.decide", "learn.observe")
    } else {
        ("probe.learn_decide", "probe.learn_observe")
    };
    let (rt_d, rt_o) = if get("runtime.decide").0 > 0 {
        ("runtime.decide", "runtime.observe")
    } else {
        ("probe.aura_decide", "probe.aura_observe")
    };
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let metrics = vec![
        // Every frame is decoded once and answered by one frame.
        metric("wire.decode_ns", get("wire.decode").1 / frames, "ns"),
        metric("wire.encode_ns", get("wire.encode").1 / frames, "ns"),
        metric("daemon.batch_us", mean("daemon.batch") / 1e3, "us"),
        metric(
            "daemon.fanout_self_us",
            batch_self / batches.max(1) as f64 / 1e3,
            "us",
        ),
        metric("session.feed_ns", self_mean("session.feed"), "ns"),
        metric("session.swap_us", mean("session.swap") / 1e3, "us"),
        metric(
            "runtime.context_build_ms",
            mean("runtime.context_build") / 1e6,
            "ms",
        ),
        metric("runtime.feasible_ns", mean("runtime.feasible"), "ns"),
        metric(
            "runtime.feasible_points",
            ratio(probe.feasible_points, probe.decisions),
            "count",
        ),
        metric("runtime.decide_ns", mean(rt_d), "ns"),
        metric("runtime.observe_ns", mean(rt_o), "ns"),
        metric("learn.decide_ns", mean(learn_d), "ns"),
        metric("learn.observe_ns", mean(learn_o), "ns"),
        metric(
            "learn.overhead_pct",
            (cost_of(learn_d, learn_o) / cost_of("probe.aura_decide", "probe.aura_observe") - 1.0)
                * 100.0,
            "%",
        ),
        metric(
            "learn.prefetch_hit_ratio",
            ratio(probe.hits, probe.hits + probe.misses),
            "ratio",
        ),
        metric(
            "learn.checkpoint_encode_us",
            mean("learn.checkpoint_encode") / 1e3,
            "us",
        ),
        metric(
            "learn.checkpoint_decode_us",
            mean("learn.checkpoint_decode") / 1e3,
            "us",
        ),
        metric(
            "learn.checkpoint_bytes",
            ratio(probe.checkpoint_bytes, probe.checkpoints),
            "bytes",
        ),
        metric("health.observe_ns", mean("health.observe"), "ns"),
        metric(
            "telemetry.assemble_us",
            mean("telemetry.assemble") / 1e3,
            "us",
        ),
        metric("telemetry.encode_us", mean("telemetry.encode") / 1e3, "us"),
        metric("telemetry.decode_us", mean("telemetry.decode") / 1e3, "us"),
        metric(
            "telemetry.snapshot_bytes",
            ratio(probe.snapshot_bytes, pass.snapshots.len() as u64),
            "bytes",
        ),
        metric("snapshot.decode_us", mean("snapshot.decode") / 1e3, "us"),
        metric("snapshot.verify_us", mean("snapshot.verify") / 1e3, "us"),
        metric("store.changeset_us", mean("store.changeset") / 1e3, "us"),
        metric("store.merge_us", mean("store.merge") / 1e3, "us"),
        metric(
            "store.delta_ratio",
            ratio(probe.delta_bytes, probe.full_bytes),
            "ratio",
        ),
        metric(
            "trace.overhead_pct",
            (pass.wall_ns / untraced.wall_ns - 1.0) * 100.0,
            "%",
        ),
        metric("trace.uncovered_pct", uncovered_pct, "%"),
    ];
    Ok((metrics, uncovered_pct, tr))
}

/// The traced run: one checked daemon session (transport and memory
/// numbers), [`ROUNDS`] traced rounds, seating and thread scaling, the
/// coverage check, and the span file of the last round.
pub fn run(
    inputs: &Inputs,
    prepared: &Prepared,
    served: &Path,
    seed: u64,
) -> Result<Outcome, String> {
    let tenants = &prepared.tenants;
    let session = crate::checked_session(inputs, prepared, served)?;
    let learn = learn_copy(inputs, prepared, "inproc-learn")?;
    let inproc_rate = in_process_rate(inputs, tenants, learn.as_deref())?;

    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut worst_uncovered = 0.0f64;
    let mut last = None;
    for _ in 0..ROUNDS {
        let (metrics, uncovered, tr) = traced_round(inputs, prepared, seed)?;
        worst_uncovered = worst_uncovered.max(uncovered.abs());
        rounds.push(metrics);
        last = Some(tr);
    }
    let per_round: BTreeMap<&'static str, Metric> = rounds[0]
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let values: Vec<f64> = rounds.iter().map(|r| r[k].value).collect();
            (m.name, metric(m.name, median(&values), m.unit))
        })
        .collect();

    // Seating and thread scaling: untraced, median of three.
    let mut seats = Vec::new();
    let mut scaling = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let d = Daemon::new(tenants, &config(inputs.threads, None)).map_err(|e| e.to_string())?;
        seats.push(t.elapsed().as_secs_f64() * 1e3);
        drop(d);
        let one = batch_rate(inputs, tenants, 1)?;
        scaling.push(batch_rate(inputs, tenants, crate::sysinfo::nproc())? / one);
    }

    let stream = &inputs.stream;
    let requests = stream.requests() as f64;
    let request_bytes: usize = (0..stream.len())
        .filter(|&i| stream.items[i] == Item::Request)
        .map(|i| stream.frame(i).len())
        .sum();
    let s = &prepared.summary;
    let r = |name: &str| per_round[name].clone();
    let metrics: Vec<Metric> = vec![
        r("wire.decode_ns"),
        r("wire.encode_ns"),
        metric(
            "wire.bytes_per_event",
            (request_bytes + s.response_bytes) as f64 / requests,
            "bytes",
        ),
        metric("daemon.seat_ms", median(&seats), "ms"),
        r("daemon.batch_us"),
        r("daemon.fanout_self_us"),
        metric("daemon.thread_scaling", median(&scaling), "ratio"),
        metric(
            "daemon.batch_fill",
            requests / prepared.batches.max(1) as f64,
            "count",
        ),
        r("session.feed_ns"),
        metric(
            "session.retained_bytes_per_event",
            session
                .served_rss_kib
                .saturating_sub(session.seated_rss_kib) as f64
                * 1024.0
                / requests,
            "bytes",
        ),
        r("session.swap_us"),
        r("runtime.context_build_ms"),
        r("runtime.feasible_ns"),
        r("runtime.feasible_points"),
        r("runtime.decide_ns"),
        r("runtime.observe_ns"),
        r("learn.decide_ns"),
        r("learn.observe_ns"),
        r("learn.overhead_pct"),
        r("learn.prefetch_hit_ratio"),
        r("learn.checkpoint_encode_us"),
        r("learn.checkpoint_decode_us"),
        r("learn.checkpoint_bytes"),
        r("health.observe_ns"),
        r("telemetry.assemble_us"),
        r("telemetry.encode_us"),
        r("telemetry.decode_us"),
        r("telemetry.snapshot_bytes"),
        r("snapshot.decode_us"),
        r("snapshot.verify_us"),
        r("store.changeset_us"),
        r("store.merge_us"),
        r("store.delta_ratio"),
        metric(
            "transport.overhead_pct",
            (inproc_rate / session.events_per_s - 1.0) * 100.0,
            "%",
        ),
        r("trace.overhead_pct"),
        r("trace.uncovered_pct"),
        metric(
            "error_rate",
            s.failed as f64 / stream.len().max(1) as f64,
            "ratio",
        ),
    ];

    let tr = last.ok_or("no traced round")?;
    let out_dir = Path::new(crate::WORK).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let spans_file = out_dir.join(format!("spans-{}-s{seed}.csv", inputs.kind.name()));
    tr.write_csv(&spans_file)?;
    eprintln!(
        "  wrote {} spans to {}",
        tr.spans.len(),
        spans_file.display()
    );
    let covered_ok = worst_uncovered <= MAX_UNCOVERED_PCT;
    if !covered_ok {
        eprintln!(
            "servebench: stage coverage failed: {worst_uncovered:.1}% of a traced pass is outside every layer span (limit {MAX_UNCOVERED_PCT}%)"
        );
    }
    Ok(Outcome {
        correct: covered_ok,
        attempted: stream.len(),
        failed: s.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            parent,
            name,
            seq: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_times_telescope_to_the_top_level_spans() {
        // pass(1) ⊃ batch(2) ⊃ feed(3) ⊃ decide(4); probe(5) unparented.
        let spans = [
            span(0, "pass", 0, 1_000),
            span(1, "batch", 100, 900),
            span(2, "feed", 1_100, 1_600),
            span(3, "decide", 2_000, 2_200),
            span(0, "probe", 3_000, 3_050),
        ];
        let (by_name, child) = totals(&spans, 0.0);
        assert_eq!(by_name["batch"].2, 300.0);
        assert_eq!(by_name["feed"].2, 300.0);
        assert_eq!(by_name["decide"].2, 200.0);
        let inside: f64 = ["batch", "feed", "decide"]
            .iter()
            .map(|n| by_name[n].2)
            .sum();
        assert_eq!(inside, child[1], "self times sum to the pass's children");
        // The calibrated span cost comes off every duration.
        let (net, _) = totals(&spans, 10.0);
        assert_eq!(net["decide"].1, 190.0);
        assert_eq!(net["feed"].2, 490.0 - 190.0);
    }
}

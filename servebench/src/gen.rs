//! Workload generation: everything the daemon sees — snapshot files,
//! learner checkpoints and the CLRWIRE1 frame stream — is a pure function
//! of the workload name, the seed and the request count. The genesis
//! databases depend on the workload only; the seed draws the traffic.

use std::path::{Path, PathBuf};

use clr_dse::{DesignPoint, DesignPointDb, PointOrigin, QosSpec};
use clr_learn::{assign_variant, Variant};
use clr_platform::{PeId, Platform};
use clr_reliability::FaultModel;
use clr_sched::{Evaluator, Mapping, SystemMetrics};
use clr_serve::wire::{Frame, PromoteRequest, Request, StatsRequest, SwapDbRequest, STATS_VERSION};
use clr_serve::{LineageSnapshot, Snapshot};
use clr_store::{MemoryBackend, Store};
use clr_taskgraph::{jpeg_encoder, ImplId, TaskGraph};

/// Publisher id stamped on every generated lineage.
pub const PUBLISHER: &str = "bench";

/// Seed of the genesis databases. A workload's fleet is fixed; the run
/// seed draws its traffic (requests, rollout churn, learner seeds), so
/// the deterministic metrics of different seeds are comparable.
const FLEET_SEED: u64 = 0x00C1_A55E;

/// The three workloads. Names are fixed: documentation and later
/// comparisons cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 1000 `ura` tenants on 16-point databases; routing and codec bound.
    FleetSmall,
    /// 8 `aura+learn` tenants on 1024-point databases, one daemon thread.
    LearnBig,
    /// 48 mixed-policy tenants with stats, rollouts and promotions
    /// inline in the request stream.
    RolloutMix,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet_small" => Some(Self::FleetSmall),
            "learn_big" => Some(Self::LearnBig),
            "rollout_mix" => Some(Self::RolloutMix),
            _ => None,
        }
    }

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Self::FleetSmall => "fleet_small",
            Self::LearnBig => "learn_big",
            Self::RolloutMix => "rollout_mix",
        }
    }

    /// Requests per daemon session in an end-to-end run.
    pub fn requests(self) -> usize {
        match self {
            Self::FleetSmall => 200_000,
            Self::LearnBig => 60_000,
            Self::RolloutMix => 100_000,
        }
    }

    /// Requests in the traced (per-layer) run.
    pub fn traced_requests(self) -> usize {
        match self {
            Self::FleetSmall => 40_000,
            Self::LearnBig => 20_000,
            Self::RolloutMix => 40_000,
        }
    }

    /// `SwapDb` rollouts appended after `requests` requests, one at a
    /// time: per end-to-end session 25 (`fleet_small`) or 13 (`learn_big`,
    /// whose 1024-point rollouts are slow, so that a run's 100 rollout
    /// samples come from eight sessions rather than four); proportionally
    /// fewer in the shorter traced stream. Only `rollout_mix` carries
    /// rollouts inside its request stream; the other two measure the
    /// control plane once the requests are done, so their request phase
    /// never runs store or snapshot code.
    fn probe_rollouts(self, requests: usize) -> usize {
        let per_session = match self {
            Self::FleetSmall => 25,
            Self::LearnBig => 13,
            Self::RolloutMix => return 0,
        };
        (per_session * requests / self.requests()).max(1)
    }

    /// A stats query after every this many requests.
    fn stats_every(self) -> usize {
        match self {
            Self::FleetSmall => 10_000,
            Self::LearnBig => 1_000,
            Self::RolloutMix => 2_000,
        }
    }
}

/// What one frame of the stream is, for the client's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A QoS request.
    Request,
    /// A stats query.
    Stats,
    /// A `SwapDb` preceded by a client-side delta pull (index into
    /// [`Inputs::rollouts`]).
    Swap(usize),
    /// A `Promote` command.
    Promote,
}

/// An encoded frame stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stream {
    /// Every frame, back to back.
    pub bytes: Vec<u8>,
    /// Frame `i` is `bytes[offsets[i]..offsets[i + 1]]`.
    pub offsets: Vec<usize>,
    /// What each frame is.
    pub items: Vec<Item>,
}

impl Stream {
    fn push(&mut self, frame: &Frame, item: Item) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.bytes.extend_from_slice(&frame.to_bytes());
        self.offsets.push(self.bytes.len());
        self.items.push(item);
    }

    /// Frames in the stream.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Encoded bytes of frame `i`.
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Request frames in the stream.
    pub fn requests(&self) -> usize {
        self.items.iter().filter(|i| **i == Item::Request).count()
    }
}

/// One rollout: pull `from → to` of a tenant's database from its origin
/// store into a replica, export it to `path`, then send `SwapDb`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rollout {
    /// The tenant swapped.
    pub tenant: String,
    /// Index into [`Inputs::origins`].
    pub origin: usize,
    /// Generation the replica holds before the pull.
    pub from: u64,
    /// Generation pulled and swapped in.
    pub to: u64,
    /// Where the CLRSNAP2 export is written (relative to the checkout).
    pub path: String,
}

/// A publisher-side store holding every generation a tenant rolls
/// through, plus the expected export bytes of each.
#[derive(Debug)]
pub struct Origin {
    /// Generations `0..=last`, as published.
    pub store: Store<MemoryBackend>,
    /// `exports[g]` = the CLRSNAP2 bytes of generation `g`.
    pub exports: Vec<Vec<u8>>,
}

/// Everything one run of a workload needs.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Directory (relative to the checkout) holding the files.
    pub dir: PathBuf,
    /// Genesis snapshot files to write before seating: `(path, bytes)`.
    pub files: Vec<(String, Vec<u8>)>,
    /// `--tenant` values: `NAME=PATH@POLICY`.
    pub tenant_flags: Vec<String>,
    /// Daemon worker threads.
    pub threads: usize,
    /// Warm-up requests served in set-up to produce the learners'
    /// starting checkpoints; the daemon then runs with `--learn-dir`
    /// (`rollout_mix` only).
    pub warmup: Option<Stream>,
    /// The measured stream. Frame 0 is a tenant-filtered stats query,
    /// which closes the first admission batch at once and so times
    /// set-up.
    pub stream: Stream,
    /// Rollouts, indexed by [`Item::Swap`].
    pub rollouts: Vec<Rollout>,
    /// One origin store per tenant that rolls out.
    pub origins: Vec<Origin>,
}

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`.
    fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Every `(PE, implementation)` pair each task can run on.
fn placements(graph: &TaskGraph, platform: &Platform) -> Vec<Vec<(PeId, ImplId)>> {
    graph
        .task_ids()
        .map(|t| {
            let mut out = Vec::new();
            for im in graph.implementations(t) {
                for pe in platform.pes() {
                    if pe.type_id() == im.pe_type() {
                        out.push((pe.id(), im.id()));
                    }
                }
            }
            out
        })
        .collect()
}

/// A seeded perturbation of `Mapping::first_fit`: every task's priority
/// is jittered and, with probability one half, the task moves to another
/// compatible PE/implementation. Priority alone would leave every dRC at
/// zero (`reconfiguration_cost` charges only PE and implementation
/// changes), so the points would be indistinguishable to the policies.
fn perturbed(base: &Mapping, choices: &[Vec<(PeId, ImplId)>], rng: &mut Rng) -> Mapping {
    let mut m = base.clone();
    for (t, gene) in m.genes_mut().iter_mut().enumerate() {
        gene.priority = gene.priority.saturating_add(rng.below(8) as u32);
        if rng.unit() < 0.5 && !choices[t].is_empty() {
            let (pe, im) = choices[t][rng.below(choices[t].len())];
            gene.pe = pe;
            gene.impl_id = im;
        }
    }
    m
}

/// `serve_load`'s skewed synthetic metrics over seeded mappings.
fn skewed_db(skew: f64, points: usize, seed: u64, salt: u64) -> DesignPointDb {
    let graph = jpeg_encoder();
    let platform = Platform::dac19();
    let base = Mapping::first_fit(&graph, &platform).expect("jpeg maps onto dac19");
    let choices = placements(&graph, &platform);
    let mut rng = Rng::new(seed, salt);
    let mut db = DesignPointDb::new("bench");
    for p in 0..points {
        let f = p as f64 / points as f64;
        db.push(DesignPoint::new(
            perturbed(&base, &choices, &mut rng),
            SystemMetrics {
                makespan: 50.0 + 100.0 * f * skew,
                reliability: 0.6 + 0.35 * f,
                energy: 1.0 + f,
                peak_power: 1.0,
                mean_mttf: 100.0,
            },
            PointOrigin::Pareto,
        ));
    }
    db
}

/// `points` seeded mappings with their evaluated metrics.
fn evaluated_db(points: usize, seed: u64, salt: u64) -> DesignPointDb {
    let graph = jpeg_encoder();
    let platform = Platform::dac19();
    let base = Mapping::first_fit(&graph, &platform).expect("jpeg maps onto dac19");
    let choices = placements(&graph, &platform);
    let eval = Evaluator::new(&graph, &platform, FaultModel::default());
    let mut rng = Rng::new(seed, salt);
    let mut db = DesignPointDb::new("bench");
    for _ in 0..points {
        let mapping = perturbed(&base, &choices, &mut rng);
        let metrics = eval.evaluate(&mapping);
        db.push(DesignPoint::new(mapping, metrics, PointOrigin::Pareto));
    }
    db
}

/// The next generation of `db`: 1% of the points (at least one) get new
/// metrics, the rest are untouched.
fn churned(db: &DesignPointDb, rng: &mut Rng) -> DesignPointDb {
    let mut points: Vec<DesignPoint> = db.points().to_vec();
    let changes = (points.len() / 100).max(1);
    for _ in 0..changes {
        let i = rng.below(points.len());
        let m = &mut points[i].metrics;
        m.makespan *= 0.97 + 0.06 * rng.unit();
        m.energy *= 0.97 + 0.06 * rng.unit();
    }
    let mut out = DesignPointDb::new(db.name());
    for p in points {
        out.push(p);
    }
    out
}

/// Stored makespan and reliability ranges of a database.
fn ranges(db: &DesignPointDb) -> ((f64, f64), (f64, f64)) {
    let (mut lo_m, mut hi_m) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut lo_r, mut hi_r) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in db.points() {
        lo_m = lo_m.min(p.metrics.makespan);
        hi_m = hi_m.max(p.metrics.makespan);
        lo_r = lo_r.min(p.metrics.reliability);
        hi_r = hi_r.max(p.metrics.reliability);
    }
    ((lo_m, hi_m), (lo_r, hi_r))
}

/// A tenant being generated: its name, policy text and genesis db.
struct Seat {
    name: String,
    policy: String,
    file: String,
}

/// Builds the inputs of `kind` for `seed`, with `requests` requests in
/// the measured stream. `dir` is where the files will live (relative to
/// the checkout); nothing is written here.
pub fn generate(kind: Kind, seed: u64, requests: usize, dir: &Path, nproc: usize) -> Inputs {
    let dir_s = dir.to_string_lossy().into_owned();
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    let mut seats: Vec<Seat> = Vec::new();
    // Genesis databases by tenant index (shared by reference in
    // fleet_small, where tenants reuse the 17 variants).
    let mut genesis: Vec<DesignPointDb> = Vec::new();
    match kind {
        Kind::FleetSmall => {
            for k in 0..17u64 {
                let db = skewed_db(1.0 + k as f64 * 0.05, 16, FLEET_SEED, k);
                let file = format!("{dir_s}/v{k}.snap");
                files.push((file, genesis_bytes(&db)));
                genesis.push(db);
            }
            for i in 0..1000 {
                seats.push(Seat {
                    name: format!("t{i}"),
                    policy: "ura:0.5".into(),
                    file: files[i % 17].0.clone(),
                });
            }
        }
        Kind::LearnBig | Kind::RolloutMix => {
            let (n, points) = if kind == Kind::LearnBig {
                (8, 1024)
            } else {
                (48, 128)
            };
            for i in 0..n {
                let db = evaluated_db(points, FLEET_SEED, 100 + i as u64);
                let file = format!("{dir_s}/t{i}.snap");
                files.push((file.clone(), genesis_bytes(&db)));
                genesis.push(db);
                let policy = match (kind, i % 3) {
                    (Kind::LearnBig, _) | (_, 2) => learn_policy(seed, &format!("t{i}"), i),
                    (_, 0) => "ura:0.5".into(),
                    _ => "aura:0.5,0.6,0.2".into(),
                };
                seats.push(Seat {
                    name: format!("t{i}"),
                    policy,
                    file,
                });
            }
        }
    }
    let db_of = |tenant: usize| -> &DesignPointDb {
        match kind {
            Kind::FleetSmall => &genesis[tenant % 17],
            _ => &genesis[tenant],
        }
    };
    let tenant_flags = seats
        .iter()
        .map(|s| format!("{}={}@{}", s.name, s.file, s.policy))
        .collect();

    let mut stream = Stream::default();
    let mut seq = 0u64;
    let mut next_seq = || {
        seq += 1;
        seq
    };
    stream.push(
        &Frame::Stats(StatsRequest {
            seq: next_seq(),
            version: STATS_VERSION,
            flight: false,
            tenant: Some(seats[0].name.clone()),
        }),
        Item::Stats,
    );
    let mut rng = Rng::new(seed, 1);
    let events = match kind {
        Kind::LearnBig => drifting(&seats, db_of, seed, requests),
        _ => uniform(&seats, db_of, kind, &mut rng, requests),
    };
    let mut rollouts: Vec<Rollout> = Vec::new();
    let mut origin_of: Vec<Option<usize>> = vec![None; seats.len()];
    let mut origin_gens: Vec<(usize, u64)> = Vec::new();
    let mut plan_rollout = |tenant: usize, rollouts: &mut Vec<Rollout>| -> usize {
        let o = *origin_of[tenant].get_or_insert_with(|| {
            origin_gens.push((tenant, 0));
            origin_gens.len() - 1
        });
        let from = origin_gens[o].1;
        origin_gens[o].1 += 1;
        let name = &seats[tenant].name;
        rollouts.push(Rollout {
            tenant: name.clone(),
            origin: o,
            from,
            to: from + 1,
            path: format!("{dir_s}/{name}.g{}.snap", from + 1),
        });
        rollouts.len() - 1
    };
    let learn_tenants: Vec<usize> = (0..seats.len())
        .filter(|&i| seats[i].policy.starts_with("aura+learn"))
        .collect();
    let mut stats_sent = 0usize;
    for (i, (tenant, time, spec)) in events.into_iter().enumerate() {
        stream.push(
            &Frame::Request(Request {
                seq: next_seq(),
                tenant: seats[tenant].name.clone(),
                time,
                spec,
            }),
            Item::Request,
        );
        let served = i + 1;
        if served % kind.stats_every() == 0 {
            let (flight, tenant) = if kind == Kind::RolloutMix && stats_sent.is_multiple_of(2) {
                (false, None)
            } else {
                (
                    kind == Kind::RolloutMix,
                    Some(seats[rng.below(seats.len())].name.clone()),
                )
            };
            stats_sent += 1;
            stream.push(
                &Frame::Stats(StatsRequest {
                    seq: next_seq(),
                    version: STATS_VERSION,
                    flight,
                    tenant,
                }),
                Item::Stats,
            );
        }
        if kind == Kind::RolloutMix && served % 5_000 == 0 {
            let r = plan_rollout(rollouts.len() % seats.len(), &mut rollouts);
            push_swap(&mut stream, &rollouts[r], next_seq(), r);
        }
        if kind == Kind::RolloutMix && served % 5_000 == 2_500 {
            let t = learn_tenants[(served / 5_000) % learn_tenants.len()];
            stream.push(
                &Frame::Promote(PromoteRequest {
                    seq: next_seq(),
                    tenant: seats[t].name.clone(),
                }),
                Item::Promote,
            );
        }
    }
    for k in 0..kind.probe_rollouts(requests) {
        let tenant = match kind {
            Kind::FleetSmall => k % 4,
            _ => k % seats.len(),
        };
        let r = plan_rollout(tenant, &mut rollouts);
        push_swap(&mut stream, &rollouts[r], next_seq(), r);
    }

    let mut origins = Vec::with_capacity(origin_gens.len());
    for (o, &(tenant, last)) in origin_gens.iter().enumerate() {
        let mut store = Store::in_memory();
        let mut db = db_of(tenant).clone();
        let mut crng = Rng::new(seed, 1_000 + o as u64);
        let mut exports = Vec::new();
        for g in 0..=last {
            if g > 0 {
                db = churned(&db, &mut crng);
            }
            let published = store
                .publish(Snapshot::new("jpeg", "dac19", db.clone()), PUBLISHER)
                .expect("a generated database publishes");
            exports.push(published.to_bytes());
        }
        origins.push(Origin { store, exports });
    }

    let warmup = (kind == Kind::RolloutMix).then(|| {
        let mut warm = Stream::default();
        let mut wrng = Rng::new(seed, 2);
        for (i, (tenant, time, spec)) in uniform(&seats, db_of, kind, &mut wrng, 20_000)
            .into_iter()
            .enumerate()
        {
            warm.push(
                &Frame::Request(Request {
                    seq: i as u64 + 1,
                    tenant: seats[tenant].name.clone(),
                    time,
                    spec,
                }),
                Item::Request,
            );
        }
        warm
    });

    Inputs {
        kind,
        dir: dir.to_path_buf(),
        files,
        tenant_flags,
        threads: if kind == Kind::LearnBig { 1 } else { nproc },
        warmup,
        stream,
        rollouts,
        origins,
    }
}

/// `aura+learn` for the `k`-th learning tenant, with the first policy
/// seed at or after `seed` that puts it in the A/B arm `k % 2`, so every
/// fleet splits evenly between the frozen incumbent (control) and the
/// online candidate (treatment) whatever the workload seed.
fn learn_policy(seed: u64, name: &str, k: usize) -> String {
    let arm = if k.is_multiple_of(2) {
        Variant::Control
    } else {
        Variant::Treatment
    };
    let s = (seed..)
        .find(|&s| assign_variant(s, name) == arm)
        .expect("both arms are reachable");
    format!("aura+learn:0.5,0.6,0.2,0.05@{s}")
}

fn push_swap(stream: &mut Stream, rollout: &Rollout, seq: u64, index: usize) {
    stream.push(
        &Frame::SwapDb(SwapDbRequest {
            seq,
            tenant: rollout.tenant.clone(),
            expected_generation: Some(rollout.to),
            path: rollout.path.clone(),
        }),
        Item::Swap(index),
    );
}

fn genesis_bytes(db: &DesignPointDb) -> Vec<u8> {
    LineageSnapshot::genesis(Snapshot::new("jpeg", "dac19", db.clone()), PUBLISHER).to_bytes()
}

/// Requests spread uniformly over tenants. `fleet_small` sweeps the whole
/// selectivity range as `serve_load` does; `rollout_mix` draws bounds
/// within each tenant's stored ranges so feasible sets vary per tenant.
fn uniform<'a>(
    seats: &[Seat],
    db_of: impl Fn(usize) -> &'a DesignPointDb,
    kind: Kind,
    rng: &mut Rng,
    count: usize,
) -> Vec<(usize, f64, QosSpec)> {
    (0..count)
        .map(|i| {
            let tenant = rng.below(seats.len());
            let spec = if kind == Kind::FleetSmall {
                QosSpec::new(60.0 + 160.0 * rng.unit(), 0.9 * rng.unit())
            } else {
                let ((lo_m, hi_m), (lo_r, hi_r)) = ranges(db_of(tenant));
                QosSpec::new(
                    lo_m + (hi_m - lo_m) * 1.1 * rng.unit(),
                    lo_r + (hi_r - lo_r) * rng.unit(),
                )
            };
            (tenant, i as f64 * 10.0, spec)
        })
        .collect()
}

/// `learn_bench`'s drifting fault-pressure trace: three low → high → low
/// pressure cycles per tenant, bounds calibrated to each tenant's stored
/// ranges, merged across tenants by time. The tenants' cycles are
/// staggered evenly, so the fleet as a whole sees steady load while each
/// tenant drifts (in `learn_bench` they move in lockstep, which makes the
/// daemon's per-batch cost, and so every latency, swing with the phase).
/// Unlike `learn_bench`, the
/// reliability floor's jitter is not capped: at peak pressure some
/// requests ask for more than any stored point offers, so the violation
/// path is served too (with the cap, `violation_rate` is identically
/// zero).
fn drifting<'a>(
    seats: &[Seat],
    db_of: impl Fn(usize) -> &'a DesignPointDb,
    seed: u64,
    count: usize,
) -> Vec<(usize, f64, QosSpec)> {
    let per_tenant = count / seats.len();
    let mut tagged: Vec<(f64, usize, QosSpec)> = Vec::with_capacity(count);
    for idx in 0..seats.len() {
        let ((lo_m, hi_m), (lo_r, hi_r)) = ranges(db_of(idx));
        let mut rng = Rng::new(seed, 10_000 + idx as u64);
        let mut time = 0.0;
        for i in 0..per_tenant {
            time += 100.0 * (0.5 + rng.unit());
            // Tenant `idx` runs `idx / n` of a cycle ahead of tenant 0.
            let cycles = 3.0 * i as f64 / per_tenant as f64 + idx as f64 / seats.len() as f64;
            let phase = cycles * std::f64::consts::TAU;
            let pressure = 0.5 - 0.5 * phase.cos();
            let jitter = 0.9 + 0.2 * rng.unit();
            let rel_floor = lo_r + (hi_r - lo_r) * (0.15 + 0.8 * pressure) * jitter;
            let latency = lo_m + (hi_m - lo_m) * (1.2 - 0.9 * pressure) * jitter;
            tagged.push((
                time,
                idx,
                QosSpec::new(latency.max(lo_m), rel_floor.clamp(0.0, 1.0)),
            ));
        }
    }
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    tagged.into_iter().map(|(t, i, s)| (i, t, s)).collect()
}

/// Writes the genesis snapshot files.
///
/// # Errors
///
/// The first unwritable path.
pub fn write_files(inputs: &Inputs) -> Result<(), String> {
    std::fs::create_dir_all(&inputs.dir)
        .map_err(|e| format!("cannot create {}: {e}", inputs.dir.display()))?;
    for (path, bytes) in &inputs.files {
        std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind, seed: u64) -> Inputs {
        generate(kind, seed, 6_000, Path::new("work/test"), 2)
    }

    #[test]
    fn same_seed_gives_identical_streams_and_snapshot_files() {
        for kind in [Kind::FleetSmall, Kind::RolloutMix] {
            let a = small(kind, 7);
            let b = small(kind, 7);
            assert_eq!(a.stream, b.stream, "{}", kind.name());
            assert_eq!(a.files, b.files, "{}", kind.name());
            assert_eq!(a.tenant_flags, b.tenant_flags);
            assert_eq!(a.warmup, b.warmup);
            let exports = |i: &Inputs| -> Vec<Vec<u8>> {
                i.origins.iter().flat_map(|o| o.exports.clone()).collect()
            };
            assert_eq!(exports(&a), exports(&b));
        }
    }

    #[test]
    fn different_seeds_give_different_streams_over_the_same_fleet() {
        for kind in [Kind::FleetSmall, Kind::RolloutMix] {
            let a = small(kind, 7);
            let b = small(kind, 8);
            assert_ne!(a.stream.bytes, b.stream.bytes, "{}", kind.name());
            assert_eq!(a.files, b.files, "{}: the fleet is fixed", kind.name());
            // Rollout churn is drawn from the seed too.
            let churn = |i: &Inputs| -> Vec<Vec<u8>> {
                i.origins
                    .iter()
                    .flat_map(|o| o.exports[1..].to_vec())
                    .collect()
            };
            assert_ne!(churn(&a), churn(&b), "{}", kind.name());
        }
    }

    #[test]
    fn streams_open_with_a_filtered_stats_query_and_carry_control_frames() {
        let mix = small(Kind::RolloutMix, 3);
        assert_eq!(mix.stream.items[0], Item::Stats);
        let (f, _) = Frame::from_bytes(mix.stream.frame(0)).unwrap();
        assert!(matches!(
            f,
            Frame::Stats(StatsRequest {
                tenant: Some(_),
                ..
            })
        ));
        assert_eq!(mix.stream.requests(), 6_000);
        let swaps = mix
            .stream
            .items
            .iter()
            .filter(|i| matches!(i, Item::Swap(_)))
            .count();
        assert_eq!(swaps, 1);
        assert!(mix.stream.items.contains(&Item::Promote));
        // Every rollout's export is the next generation of its origin.
        for r in &mix.rollouts {
            assert_eq!(r.to, r.from + 1);
            assert!(mix.origins[r.origin].exports.len() as u64 > r.to);
        }
    }

    #[test]
    fn perturbed_mappings_have_nonzero_reconfiguration_cost() {
        let db = skewed_db(1.0, 16, 5, 0);
        let graph = jpeg_encoder();
        let platform = Platform::dac19();
        let ctx = clr_runtime::RuntimeContext::try_new(&graph, &platform, &db).unwrap();
        let nonzero = (1..db.len()).filter(|&j| ctx.drc(0, j) > 0.0).count();
        assert!(nonzero > 0, "perturbed points must differ in dRC");
    }
}

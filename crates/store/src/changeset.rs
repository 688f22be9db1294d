//! Delta synchronisation between snapshot generations.
//!
//! A [`Changeset`] is the positional diff between two lineaged
//! snapshots: `O(changed points)` bytes instead of a full snapshot, so a
//! replica that already holds generation `from` can reach generation
//! `to` over a thin link. Applying a changeset is *exact*: the header
//! pins the FNV-1a 64 hash of both endpoint containers, the source hash
//! is checked before any op runs, and the rebuilt container must hash to
//! the declared target — a replica either reproduces the published
//! generation byte-for-byte or fails loudly.
//!
//! The text form is line-oriented and canonical (one encoding per
//! changeset), so changeset files can be diffed, checksummed and shipped
//! like any other artifact:
//!
//! ```text
//! clr-store changeset v1
//! from 3 00baadf00dcafe42
//! to 4 node-a 3 00feedfacecafe99
//! name based
//! graph jpeg
//! platform dac19
//! ops 2
//! set 7 4
//! point Pareto
//! metrics 104.25 0.99921 1520.0 84.5 1.2e6
//! gene 0 1 none retry:2 checksum 9
//! end
//! truncate 120
//! ```

use std::fmt::Write as _;

use clr_dse::{point_text, DesignPoint, DesignPointDb};
use clr_par::fnv1a64;
use clr_serve::{Lineage, LineageSnapshot, PointStamp, Snapshot};

use crate::StoreError;

/// Magic first line of the changeset text form.
const HEADER: &str = "clr-store changeset v1";

/// One positional edit against the source generation's point list.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeOp {
    /// Replace the point at `index` (which must exist in the source).
    Set {
        /// Index into the source point list.
        index: usize,
        /// The generation stamped onto the new content.
        stamp_generation: u64,
        /// The replacement point.
        point: DesignPoint,
    },
    /// Append a point past the end of the source list.
    Append {
        /// The generation stamped onto the new content.
        stamp_generation: u64,
        /// The appended point.
        point: DesignPoint,
    },
    /// Truncate the point list to `len` entries (`len` must not exceed
    /// the source length).
    Truncate {
        /// Number of leading points to keep.
        len: usize,
    },
}

/// The positional diff carrying a replica from one generation to
/// another. Built by [`Changeset::compute`], applied by
/// [`Changeset::apply`], shipped as text via
/// [`Changeset::to_text`]/[`Changeset::from_text`].
#[derive(Debug, Clone, PartialEq)]
pub struct Changeset {
    /// Source generation number.
    pub from_generation: u64,
    /// FNV-1a 64 of the source's sealed container bytes.
    pub from_hash: u64,
    /// Target generation number.
    pub to_generation: u64,
    /// Target publisher id.
    pub publisher: String,
    /// Target parent generation.
    pub parent: Option<u64>,
    /// FNV-1a 64 of the target's sealed container bytes.
    pub to_hash: u64,
    /// Target database name.
    pub name: String,
    /// Target task-graph descriptor.
    pub graph: String,
    /// Target platform descriptor.
    pub platform: String,
    /// Positional edits, in application order.
    pub ops: Vec<ChangeOp>,
}

impl Changeset {
    /// Diffs two lineaged snapshots positionally by their content
    /// stamps. The result applied to `from` reproduces `to`
    /// byte-for-byte.
    pub fn compute(from: &LineageSnapshot, to: &LineageSnapshot) -> Self {
        let from_stamps = &from.lineage().stamps;
        let to_stamps = &to.lineage().stamps;
        let to_points = to.snapshot().db().points();
        let mut ops = Vec::new();
        let common = from_stamps.len().min(to_stamps.len());
        for i in 0..common {
            // A stamp-generation drift without a content change still
            // has to ship, or the rebuilt lineage block (and thus the
            // target hash) would not match.
            if from_stamps[i] != to_stamps[i] {
                ops.push(ChangeOp::Set {
                    index: i,
                    stamp_generation: to_stamps[i].generation,
                    point: to_points[i].clone(),
                });
            }
        }
        for i in common..to_stamps.len() {
            ops.push(ChangeOp::Append {
                stamp_generation: to_stamps[i].generation,
                point: to_points[i].clone(),
            });
        }
        if to_stamps.len() < from_stamps.len() {
            ops.push(ChangeOp::Truncate {
                len: to_stamps.len(),
            });
        }
        Self {
            from_generation: from.lineage().generation,
            from_hash: fnv1a64(&from.to_bytes()),
            to_generation: to.lineage().generation,
            publisher: to.lineage().publisher.clone(),
            parent: to.lineage().parent,
            to_hash: fnv1a64(&to.to_bytes()),
            name: to.snapshot().db().name().to_string(),
            graph: to.snapshot().graph_desc().to_string(),
            platform: to.snapshot().platform_desc().to_string(),
            ops,
        }
    }

    /// Rebuilds the target generation from the source snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::Changeset`] when the source is not the generation
    /// this diff was computed against (hash pin), an op indexes outside
    /// the source (`changeset ⊆ source` violated), or the rebuilt
    /// container does not hash to the declared target.
    pub fn apply(&self, from: &LineageSnapshot) -> Result<LineageSnapshot, StoreError> {
        let actual = fnv1a64(&from.to_bytes());
        if actual != self.from_hash || from.lineage().generation != self.from_generation {
            return Err(StoreError::Changeset(format!(
                "source is generation {} with hash {actual:#018x}, changeset expects generation {} with hash {:#018x}",
                from.lineage().generation, self.from_generation, self.from_hash
            )));
        }
        let mut points: Vec<DesignPoint> = from.snapshot().db().points().to_vec();
        let mut stamps: Vec<PointStamp> = from.lineage().stamps.clone();
        for (n, op) in self.ops.iter().enumerate() {
            match op {
                ChangeOp::Set {
                    index,
                    stamp_generation,
                    point,
                } => {
                    if *index >= points.len() {
                        return Err(StoreError::Changeset(format!(
                            "op {n}: set index {index} outside the {}-point source",
                            points.len()
                        )));
                    }
                    points[*index] = point.clone();
                    stamps[*index] = PointStamp {
                        hash: fnv1a64(point_text(point).as_bytes()),
                        generation: *stamp_generation,
                    };
                }
                ChangeOp::Append {
                    stamp_generation,
                    point,
                } => {
                    stamps.push(PointStamp {
                        hash: fnv1a64(point_text(point).as_bytes()),
                        generation: *stamp_generation,
                    });
                    points.push(point.clone());
                }
                ChangeOp::Truncate { len } => {
                    if *len > points.len() {
                        return Err(StoreError::Changeset(format!(
                            "op {n}: truncate to {len} exceeds the {}-point list",
                            points.len()
                        )));
                    }
                    points.truncate(*len);
                    stamps.truncate(*len);
                }
            }
        }
        let db = db_from_points(&self.name, &points)?;
        let rebuilt = LineageSnapshot::from_parts(
            Lineage {
                generation: self.to_generation,
                parent: self.parent,
                publisher: self.publisher.clone(),
                stamps,
            },
            Snapshot::new(self.graph.clone(), self.platform.clone(), db),
        );
        let rebuilt_hash = fnv1a64(&rebuilt.to_bytes());
        if rebuilt_hash != self.to_hash {
            return Err(StoreError::Changeset(format!(
                "rebuilt generation {} hashes to {rebuilt_hash:#018x}, changeset declares {:#018x}",
                self.to_generation, self.to_hash
            )));
        }
        Ok(rebuilt)
    }

    /// Serialises into the canonical text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "from {} {:016x}", self.from_generation, self.from_hash);
        let parent = self
            .parent
            .map_or_else(|| "none".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "to {} {} {parent} {:016x}",
            self.to_generation, self.publisher, self.to_hash
        );
        let _ = writeln!(out, "name {}", self.name);
        let _ = writeln!(out, "graph {}", self.graph);
        let _ = writeln!(out, "platform {}", self.platform);
        let _ = writeln!(out, "ops {}", self.ops.len());
        for op in &self.ops {
            match op {
                ChangeOp::Set {
                    index,
                    stamp_generation,
                    point,
                } => {
                    let _ = writeln!(out, "set {index} {stamp_generation}");
                    out.push_str(&point_text(point));
                    out.push_str("end\n");
                }
                ChangeOp::Append {
                    stamp_generation,
                    point,
                } => {
                    let _ = writeln!(out, "append {stamp_generation}");
                    out.push_str(&point_text(point));
                    out.push_str("end\n");
                }
                ChangeOp::Truncate { len } => {
                    let _ = writeln!(out, "truncate {len}");
                }
            }
        }
        out
    }

    /// Parses the canonical text form.
    ///
    /// # Errors
    ///
    /// [`StoreError::Changeset`] naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, StoreError> {
        let bad = |what: &str| StoreError::Changeset(format!("missing or malformed {what} line"));
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(StoreError::Changeset(format!(
                "bad header, expected {HEADER:?}"
            )));
        }
        let from_line = lines
            .next()
            .and_then(|l| l.strip_prefix("from "))
            .ok_or_else(|| bad("from"))?;
        let (from_generation, from_hash) = from_line.split_once(' ').ok_or_else(|| bad("from"))?;
        let from_generation: u64 = from_generation.parse().map_err(|_| bad("from"))?;
        let from_hash = u64::from_str_radix(from_hash, 16).map_err(|_| bad("from"))?;
        let to_line = lines
            .next()
            .and_then(|l| l.strip_prefix("to "))
            .ok_or_else(|| bad("to"))?;
        let to_fields: Vec<&str> = to_line.split(' ').collect();
        if to_fields.len() != 4 {
            return Err(bad("to"));
        }
        let to_generation: u64 = to_fields[0].parse().map_err(|_| bad("to"))?;
        let publisher = to_fields[1].to_string();
        let parent = match to_fields[2] {
            "none" => None,
            v => Some(v.parse::<u64>().map_err(|_| bad("to"))?),
        };
        let to_hash = u64::from_str_radix(to_fields[3], 16).map_err(|_| bad("to"))?;
        let name = lines
            .next()
            .and_then(|l| l.strip_prefix("name "))
            .ok_or_else(|| bad("name"))?
            .to_string();
        let graph = lines
            .next()
            .and_then(|l| l.strip_prefix("graph "))
            .ok_or_else(|| bad("graph"))?
            .to_string();
        let platform = lines
            .next()
            .and_then(|l| l.strip_prefix("platform "))
            .ok_or_else(|| bad("platform"))?
            .to_string();
        let count: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("ops "))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("ops"))?;
        let mut ops = Vec::with_capacity(count);
        let point_block = |lines: &mut std::str::Lines<'_>| -> Result<DesignPoint, StoreError> {
            let mut block = String::new();
            loop {
                let line = lines
                    .next()
                    .ok_or_else(|| StoreError::Changeset("unterminated point block".to_string()))?;
                if line == "end" {
                    break;
                }
                block.push_str(line);
                block.push('\n');
            }
            parse_point_block(&block)
        };
        for n in 0..count {
            let line = lines
                .next()
                .ok_or_else(|| StoreError::Changeset(format!("missing op {n}")))?;
            if let Some(rest) = line.strip_prefix("set ") {
                let (index, stamp) = rest.split_once(' ').ok_or_else(|| bad("set"))?;
                ops.push(ChangeOp::Set {
                    index: index.parse().map_err(|_| bad("set"))?,
                    stamp_generation: stamp.parse().map_err(|_| bad("set"))?,
                    point: point_block(&mut lines)?,
                });
            } else if let Some(stamp) = line.strip_prefix("append ") {
                ops.push(ChangeOp::Append {
                    stamp_generation: stamp.parse().map_err(|_| bad("append"))?,
                    point: point_block(&mut lines)?,
                });
            } else if let Some(len) = line.strip_prefix("truncate ") {
                ops.push(ChangeOp::Truncate {
                    len: len.parse().map_err(|_| bad("truncate"))?,
                });
            } else {
                return Err(StoreError::Changeset(format!("unknown op {line:?}")));
            }
        }
        if lines.next().is_some() {
            return Err(StoreError::Changeset(
                "trailing content after the last op".to_string(),
            ));
        }
        Ok(Self {
            from_generation,
            from_hash,
            to_generation,
            publisher,
            parent,
            to_hash,
            name,
            graph,
            platform,
            ops,
        })
    }

    /// Size of the canonical text encoding — what a replica actually
    /// transfers (the sync bench compares this against full-snapshot
    /// bytes).
    pub fn byte_len(&self) -> usize {
        self.to_text().len()
    }
}

/// Rebuilds a database through the v1 text codec, so the result is
/// exactly what decoding the published container would produce.
fn db_from_points(name: &str, points: &[DesignPoint]) -> Result<DesignPointDb, StoreError> {
    let mut text = format!(
        "clr-design-point-db v1\nname {name}\npoints {}\n",
        points.len()
    );
    for p in points {
        text.push_str(&point_text(p));
    }
    DesignPointDb::from_text(&text)
        .map_err(|e| StoreError::Changeset(format!("rebuilt database does not decode: {e}")))
}

/// Parses one point's canonical text block.
fn parse_point_block(block: &str) -> Result<DesignPoint, StoreError> {
    let text = format!("clr-design-point-db v1\nname x\npoints 1\n{block}");
    let db = DesignPointDb::from_text(&text)
        .map_err(|e| StoreError::Changeset(format!("bad point block: {e}")))?;
    Ok(db.points()[0].clone())
}

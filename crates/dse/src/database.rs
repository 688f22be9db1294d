//! The stored design-point database the run-time layer adapts over.

use clr_moea::dominates;
use clr_stats::{approx_eq_probability, approx_eq_time};
use serde::{Deserialize, Serialize};

use crate::{DesignPoint, PointOrigin, QosSpec};

/// A database of stored design points (paper Fig. 3: "design points
/// database").
///
/// # Examples
///
/// ```
/// use clr_dse::DesignPointDb;
/// let db = DesignPointDb::new("based");
/// assert!(db.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPointDb {
    name: String,
    points: Vec<DesignPoint>,
}

impl DesignPointDb {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Database label (e.g. `"based"`, `"red"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stored points.
    pub fn points(&self) -> &[DesignPoint] {
        &self.points
    }

    /// The point at `index`, or `None` if the index is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use clr_dse::DesignPointDb;
    /// let db = DesignPointDb::new("based");
    /// assert!(db.get(0).is_none());
    /// ```
    pub fn get(&self, index: usize) -> Option<&DesignPoint> {
        self.points.get(index)
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a point unconditionally.
    pub fn push(&mut self, point: DesignPoint) {
        debug_assert_point_sane(&point);
        self.points.push(point);
    }

    /// Appends a point unless an existing point has (numerically) the same
    /// metrics under the workspace tolerances ([`clr_stats::EPS_TIME`] for
    /// makespan/energy, [`clr_stats::EPS_PROBABILITY`] for reliability).
    /// Returns `true` if inserted.
    pub fn push_if_new(&mut self, point: DesignPoint) -> bool {
        debug_assert_point_sane(&point);
        let duplicate = self.points.iter().any(|p| {
            approx_eq_time(p.metrics.makespan, point.metrics.makespan)
                && approx_eq_probability(p.metrics.reliability, point.metrics.reliability)
                && approx_eq_time(p.metrics.energy, point.metrics.energy)
        });
        if duplicate {
            return false;
        }
        self.points.push(point);
        true
    }

    /// Indices of points satisfying a QoS specification — the `FEAS` set of
    /// Algorithm 1, line 3.
    pub fn feasible_indices(&self, spec: &QosSpec) -> Vec<usize> {
        let mut out = Vec::new();
        self.feasible_indices_into(spec, &mut out);
        out
    }

    /// [`feasible_indices`](Self::feasible_indices) into a caller-owned
    /// buffer (cleared first), so hot loops reuse one allocation across
    /// events. For repeated queries over an immutable database prefer
    /// [`crate::FeasibilityIndex`], which answers in O(log n + k).
    pub fn feasible_indices_into(&self, spec: &QosSpec, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.points.len()).filter(|&i| self.points[i].satisfies(spec)));
    }

    /// Indices of the points non-dominated in the QoS plane
    /// `(S_app, 1 − F_app)`.
    pub fn qos_pareto_indices(&self) -> Vec<usize> {
        let objs: Vec<Vec<f64>> = self
            .points
            .iter()
            .map(|p| p.qos_objectives().to_vec())
            .collect();
        (0..objs.len())
            .filter(|&i| {
                !objs
                    .iter()
                    .enumerate()
                    .any(|(j, o)| j != i && dominates(o, &objs[i]))
            })
            .collect()
    }

    /// Number of points with the given origin.
    pub fn count_origin(&self, origin: PointOrigin) -> usize {
        self.points.iter().filter(|p| p.origin == origin).count()
    }

    /// Iterates over the stored points.
    pub fn iter(&self) -> std::slice::Iter<'_, DesignPoint> {
        self.points.iter()
    }

    /// Renders the stored points' metrics as CSV
    /// (`index,origin,makespan,reliability,energy,peak_power,mean_mttf`).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("index,origin,makespan,reliability,energy,peak_power,mean_mttf\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i},{:?},{:.3},{:.6},{:.3},{:.3},{:.3e}",
                p.origin,
                p.metrics.makespan,
                p.metrics.reliability,
                p.metrics.energy,
                p.metrics.peak_power,
                p.metrics.mean_mttf
            );
        }
        out
    }
}

impl DesignPointDb {
    /// Reassembles a database from a label and raw points, bypassing the
    /// insertion-time sanity checks — reserved for the text codec, which
    /// must faithfully reconstruct *whatever* was persisted (including
    /// artifacts later flagged by `clr-verify`).
    pub(crate) fn from_raw_parts(name: String, points: Vec<DesignPoint>) -> Self {
        Self { name, points }
    }
}

/// Debug-build sanity check at the database mutation site: the cheapest
/// subset of the `clr-verify` metric-range lints, so corrupted metrics
/// fail fast at insertion during development instead of surfacing later
/// in an audit.
fn debug_assert_point_sane(point: &DesignPoint) {
    debug_assert!(
        point.metrics.makespan.is_finite() && point.metrics.makespan >= 0.0,
        "design point makespan must be finite and non-negative, got {}",
        point.metrics.makespan
    );
    debug_assert!(
        (0.0..=1.0).contains(&point.metrics.reliability),
        "design point reliability must lie in [0, 1], got {}",
        point.metrics.reliability
    );
    debug_assert!(
        point.metrics.energy.is_finite() && point.metrics.energy >= 0.0,
        "design point energy must be finite and non-negative, got {}",
        point.metrics.energy
    );
}

impl<'a> IntoIterator for &'a DesignPointDb {
    type Item = &'a DesignPoint;
    type IntoIter = std::slice::Iter<'a, DesignPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl Extend<DesignPoint> for DesignPointDb {
    fn extend<T: IntoIterator<Item = DesignPoint>>(&mut self, iter: T) {
        for p in iter {
            self.push_if_new(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_sched::{Mapping, SystemMetrics};

    fn pt(makespan: f64, reliability: f64, energy: f64, origin: PointOrigin) -> DesignPoint {
        DesignPoint::new(
            Mapping::new(vec![]),
            SystemMetrics {
                makespan,
                reliability,
                energy,
                peak_power: 1.0,
                mean_mttf: 1.0,
            },
            origin,
        )
    }

    #[test]
    fn push_if_new_dedupes_on_metrics() {
        let mut db = DesignPointDb::new("t");
        assert!(db.push_if_new(pt(10.0, 0.9, 5.0, PointOrigin::Pareto)));
        assert!(!db.push_if_new(pt(10.0, 0.9, 5.0, PointOrigin::ReconfigAware)));
        assert!(db.push_if_new(pt(11.0, 0.9, 5.0, PointOrigin::Pareto)));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn feasible_indices_filter_by_spec() {
        let mut db = DesignPointDb::new("t");
        db.push(pt(10.0, 0.99, 5.0, PointOrigin::Pareto));
        db.push(pt(50.0, 0.80, 3.0, PointOrigin::Pareto));
        let spec = QosSpec::new(20.0, 0.9);
        assert_eq!(db.feasible_indices(&spec), vec![0]);
    }

    #[test]
    fn qos_pareto_excludes_dominated() {
        let mut db = DesignPointDb::new("t");
        db.push(pt(10.0, 0.99, 5.0, PointOrigin::Pareto)); // err 0.01
        db.push(pt(20.0, 0.98, 3.0, PointOrigin::Pareto)); // dominated in QoS
        db.push(pt(5.0, 0.90, 1.0, PointOrigin::Pareto)); // trade-off
        let front = db.qos_pareto_indices();
        assert_eq!(front, vec![0, 2]);
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let mut db = DesignPointDb::new("t");
        db.push(pt(1.0, 0.9, 1.0, PointOrigin::Pareto));
        db.push(pt(2.0, 0.8, 2.0, PointOrigin::ReconfigAware));
        let csv = db.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("index,origin"));
        assert!(csv.contains("ReconfigAware"));
    }

    #[test]
    fn origin_counting_and_extend() {
        let mut db = DesignPointDb::new("t");
        db.extend([
            pt(1.0, 0.9, 1.0, PointOrigin::Pareto),
            pt(2.0, 0.9, 1.0, PointOrigin::ReconfigAware),
            pt(2.0, 0.9, 1.0, PointOrigin::ReconfigAware), // dup
        ]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.count_origin(PointOrigin::ReconfigAware), 1);
    }
}

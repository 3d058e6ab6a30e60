//! Prepared geometries: cached data for repeated `relate` calls.
//!
//! Predicate extraction relates one reference feature against many
//! relevant features. [`PreparedGeometry`] caches the envelope and the
//! geometry's topological dimensions so that envelope-disjoint pairs —
//! the overwhelming majority in a realistic layer, even after R-tree
//! pruning at the layer level — are answered with a directly constructed
//! disjoint matrix, never touching the exact relate machinery.
//!
//! Pairs that survive the envelope test run the exact relate machinery
//! over a lazily built, cached `PreparedShape`: a packed segment R-tree
//! ([`crate::segtree::SegTree`]) over the geometry's segments plus
//! monotone-edge ring indexes ([`crate::segtree::RingIndex`]) for
//! point-in-ring queries, making the per-pair kernel sublinear in the
//! vertex count while staying bit-identical to the brute-force
//! [`crate::relate()`]. The same indexes power [`PreparedGeometry::distance_within`],
//! a branch-and-bound bounded minimum distance.

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::geometry::{GeomDim, Geometry};
use crate::relate::shapes::PreparedShape;
use crate::relate::{relate_shapes, Dim, IntersectionMatrix, Part};
use crate::segment::Segment;
use crate::segtree::{self, SegTree};
use std::sync::OnceLock;

/// A geometry plus cached relate-acceleration data.
#[derive(Debug, Clone)]
pub struct PreparedGeometry {
    geometry: Geometry,
    envelope: Rect,
    interior_dim: Dim,
    boundary_dim: Dim,
    shape: OnceLock<PreparedShape>,
}

impl PreparedGeometry {
    /// Prepares a geometry.
    pub fn new(geometry: Geometry) -> PreparedGeometry {
        let envelope = geometry.envelope();
        let (interior_dim, boundary_dim) = match geometry.dimension() {
            GeomDim::Point => (Dim::Zero, Dim::Empty),
            GeomDim::Line => {
                let has_boundary = match &geometry {
                    Geometry::LineString(l) => !l.boundary_points().is_empty(),
                    Geometry::MultiLineString(ml) => !ml.boundary_points().is_empty(),
                    _ => unreachable!("line dimension implies a lineal geometry"),
                };
                (Dim::One, if has_boundary { Dim::Zero } else { Dim::Empty })
            }
            GeomDim::Area => (Dim::Two, Dim::One),
        };
        PreparedGeometry {
            geometry,
            envelope,
            interior_dim,
            boundary_dim,
            shape: OnceLock::new(),
        }
    }

    /// The wrapped geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Cached envelope.
    pub fn envelope(&self) -> Rect {
        self.envelope
    }

    /// The indexed class view, built on first use and cached.
    fn shape(&self) -> &PreparedShape {
        self.shape.get_or_init(|| PreparedShape::build(&self.geometry))
    }

    /// Relates `self` to `other`, with the envelope-disjoint fast path.
    pub fn relate_to(&self, other: &PreparedGeometry) -> IntersectionMatrix {
        if !self.envelope.intersects(&other.envelope) {
            return disjoint_matrix(self, other);
        }
        relate_shapes(&self.shape().as_shape(), &other.shape().as_shape())
    }

    /// True when the envelopes rule out any intersection.
    pub fn definitely_disjoint(&self, other: &PreparedGeometry) -> bool {
        !self.envelope.intersects(&other.envelope)
    }

    /// Minimum distance between the geometries if it does not exceed
    /// `bound`, else `None`.
    ///
    /// `Some(d)` is returned iff `d <= bound`, and `d` is bit-identical to
    /// [`crate::algorithms::geometry_distance`] on the same pair: the
    /// branch-and-bound traversal only prunes subtree pairs whose
    /// box-to-box lower bound exceeds the limit, never the pair attaining
    /// the minimum, and containment short-circuits fire exactly where the
    /// unbounded kernel returns an exact `0.0`. `bound == d` therefore
    /// yields `Some(d)`. A NaN `bound` yields `None`.
    pub fn distance_within(&self, other: &PreparedGeometry, bound: f64) -> Option<f64> {
        if segtree::exceeds(self.envelope.distance_to_rect(&other.envelope), bound) {
            segtree::note_early_exit(1);
            return None;
        }
        let d = min_distance_within(self.shape(), other.shape(), bound);
        (d <= bound).then_some(d)
    }
}

/// Bounded minimum distance over prepared class views. Returns the exact
/// minimum when it is `<= bound`; any value above `bound` (possibly
/// infinity) when it is not.
fn min_distance_within(a: &PreparedShape, b: &PreparedShape, bound: f64) -> f64 {
    use PreparedShape as PS;
    match (a, b) {
        (PS::P { coords: ca }, PS::P { coords: cb }) => {
            let mut best = f64::INFINITY;
            for &p in ca {
                for &q in cb {
                    let d = p.distance(q);
                    if d < best {
                        best = d;
                    }
                }
            }
            best
        }
        (PS::P { coords }, PS::L { segments, tree, .. })
        | (PS::L { segments, tree, .. }, PS::P { coords }) => {
            points_to_tree(coords, tree, segments, bound)
        }
        (PS::P { coords }, PS::A(pa)) | (PS::A(pa), PS::P { coords }) => {
            // A point inside (or on) the region is at distance exactly 0,
            // matching the unbounded kernel's containment case.
            if pa.any_not_outside(coords) {
                return 0.0;
            }
            points_to_tree(coords, &pa.tree, &pa.boundary, bound)
        }
        (PS::L { segments: sa, tree: ta, .. }, PS::L { segments: sb, tree: tb, .. }) => {
            ta.pair_distance_within(sa, tb, sb, bound)
        }
        (PS::L { segments, tree, .. }, PS::A(pa))
        | (PS::A(pa), PS::L { segments, tree, .. }) => {
            // Any curve vertex inside the region ⇒ distance exactly 0. A
            // curve crossing the boundary with no vertex inside resolves
            // to an exact 0.0 through an intersecting segment pair below,
            // exactly as in the unbounded kernel.
            if pa.any_endpoint_not_outside(segments) {
                return 0.0;
            }
            tree.pair_distance_within(segments, &pa.tree, &pa.boundary, bound)
        }
        (PS::A(pa), PS::A(pb)) => {
            // An exterior-ring vertex of one region inside the other ⇒
            // overlap ⇒ distance exactly 0 (the unbounded kernel's
            // containment test). Overlaps with no contained vertex cross
            // boundaries, which the segment pairs below resolve to 0.0.
            if pb.any_not_outside(&pa.ext_coords) || pa.any_not_outside(&pb.ext_coords) {
                return 0.0;
            }
            pa.tree.pair_distance_within(&pa.boundary, &pb.tree, &pb.boundary, bound)
        }
    }
}

/// Minimum distance from a point set to an indexed segment set, bounded.
fn points_to_tree(coords: &[Coord], tree: &SegTree, segments: &[Segment], bound: f64) -> f64 {
    let mut best = f64::INFINITY;
    for &c in coords {
        // Shrinking the limit to the best-so-far only prunes distances
        // that could not improve the minimum; the attaining point's query
        // always runs with a limit at or above the true minimum.
        let d = tree.point_distance_within(segments, c, bound.min(best));
        if d < best {
            best = d;
        }
        if best == 0.0 {
            break;
        }
    }
    best
}

/// The exact DE-9IM matrix of two disjoint geometries, built from their
/// cached part dimensions.
fn disjoint_matrix(a: &PreparedGeometry, b: &PreparedGeometry) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::empty();
    m.set(Part::Interior, Part::Exterior, a.interior_dim);
    m.set(Part::Boundary, Part::Exterior, a.boundary_dim);
    m.set(Part::Exterior, Part::Interior, b.interior_dim);
    m.set(Part::Exterior, Part::Boundary, b.boundary_dim);
    m.set(Part::Exterior, Part::Exterior, Dim::Two);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::geometry_distance;
    use crate::relate::relate;
    use crate::wkt::from_wkt;

    fn prep(wkt: &str) -> PreparedGeometry {
        PreparedGeometry::new(from_wkt(wkt).unwrap())
    }

    #[test]
    fn fast_path_matches_exact_relate_for_disjoint_pairs() {
        let shapes = [
            "POINT (0 0)",
            "MULTIPOINT ((0 0), (1 1))",
            "LINESTRING (0 0, 1 1)",
            "LINESTRING (0 0, 1 0, 1 1, 0 1, 0 0)", // closed: empty boundary
            "MULTILINESTRING ((0 0, 1 0), (0 1, 1 1))",
            "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((2 0, 3 0, 3 1, 2 1, 2 0)))",
        ];
        let far = [
            "POINT (100 100)",
            "LINESTRING (100 100, 101 101)",
            "POLYGON ((100 100, 101 100, 101 101, 100 101, 100 100))",
        ];
        for a in shapes {
            for b in far {
                let pa = prep(a);
                let pb = prep(b);
                assert!(pa.definitely_disjoint(&pb));
                assert_eq!(
                    pa.relate_to(&pb),
                    relate(pa.geometry(), pb.geometry()),
                    "fast path diverged for {a} vs {b}"
                );
                assert_eq!(
                    pb.relate_to(&pa),
                    pa.relate_to(&pb).transposed(),
                    "transpose consistency for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn intersecting_pairs_delegate_to_exact_relate() {
        let a = prep("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = prep("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
        assert!(!a.definitely_disjoint(&b));
        assert_eq!(a.relate_to(&b), relate(a.geometry(), b.geometry()));
        assert_eq!(a.relate_to(&b).to_string(), "212101212");
    }

    #[test]
    fn envelope_overlap_but_geometry_disjoint_still_exact() {
        // Diagonal arrangement: envelopes overlap, geometries do not — the
        // prepared path must fall through to the exact relate.
        let c = prep("LINESTRING (0 5, 5 0)");
        let d = prep("LINESTRING (4.9 4.9, 10 10)");
        assert!(!c.definitely_disjoint(&d), "envelopes overlap");
        let m = c.relate_to(&d);
        assert_eq!(m, relate(c.geometry(), d.geometry()));
        assert!(m.matches("FF*FF****"), "geometries are actually disjoint");
    }

    #[test]
    fn indexed_relate_matches_brute_for_intersecting_pairs() {
        let pairs = [
            ("LINESTRING (0 0, 10 0, 10 10)", "LINESTRING (5 -5, 5 5, 20 5)"),
            ("LINESTRING (0 0, 10 0)", "LINESTRING (2 0, 8 0)"), // collinear overlap
            ("LINESTRING (0 0, 10 10)", "POLYGON ((2 2, 8 2, 8 8, 2 8, 2 2))"),
            ("LINESTRING (0 2, 2 0)", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"), // chord
            (
                "POLYGON ((0 0, 6 0, 6 6, 0 6, 0 0))",
                "POLYGON ((6 0, 12 0, 12 6, 6 6, 6 0))", // shared edge
            ),
            (
                "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
                "POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))", // containment
            ),
            ("MULTIPOINT ((1 1), (5 0), (20 20))", "LINESTRING (0 0, 10 0)"),
            ("POINT (5 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"),
        ];
        for (wa, wb) in pairs {
            let (pa, pb) = (prep(wa), prep(wb));
            assert_eq!(
                pa.relate_to(&pb),
                relate(pa.geometry(), pb.geometry()),
                "indexed relate diverged for {wa} vs {wb}"
            );
            assert_eq!(
                pb.relate_to(&pa),
                pa.relate_to(&pb).transposed(),
                "transpose consistency for {wa} vs {wb}"
            );
        }
    }

    #[test]
    fn distance_within_matches_unbounded_distance() {
        let pairs = [
            ("POINT (0 0)", "POINT (3 4)"),
            ("POINT (0 0)", "LINESTRING (2 -1, 2 1)"),
            ("POINT (5 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"), // inside
            ("LINESTRING (0 0, 1 1)", "LINESTRING (3 0, 3 5)"),
            ("LINESTRING (0 0, 10 10)", "POLYGON ((20 0, 30 0, 30 9, 20 9, 20 0))"),
            (
                "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
                "POLYGON ((5 0, 6 0, 6 1, 5 1, 5 0))",
            ),
            (
                "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
                "POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))", // contained: 0
            ),
            ("MULTIPOINT ((0 0), (9 9))", "MULTILINESTRING ((5 5, 6 5), (20 20, 21 21))"),
        ];
        for (wa, wb) in pairs {
            let (pa, pb) = (prep(wa), prep(wb));
            let exact = geometry_distance(pa.geometry(), pb.geometry());
            // Generous bound: must return the exact value.
            let got = pa.distance_within(&pb, exact + 10.0);
            assert_eq!(got.map(f64::to_bits), Some(exact.to_bits()), "{wa} vs {wb}");
            // Bound exactly equal to the distance: still within.
            let got = pa.distance_within(&pb, exact);
            assert_eq!(got.map(f64::to_bits), Some(exact.to_bits()), "at-bound {wa} vs {wb}");
            // Bound strictly below: pruned out.
            if exact > 0.0 {
                let below = f64::from_bits(exact.to_bits() - 1);
                assert_eq!(pa.distance_within(&pb, below), None, "below-bound {wa} vs {wb}");
            }
            // Symmetry of the bounded kernel.
            assert_eq!(
                pb.distance_within(&pa, exact).map(f64::to_bits),
                Some(exact.to_bits()),
                "symmetry {wa} vs {wb}"
            );
        }
    }

    #[test]
    fn distance_within_rejects_nan_bound() {
        let a = prep("POINT (0 0)");
        let b = prep("POINT (1 0)");
        assert_eq!(a.distance_within(&b, f64::NAN), None);
    }
}

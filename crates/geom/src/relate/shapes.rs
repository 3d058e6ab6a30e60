//! Internal shape abstractions for the DE-9IM engine.
//!
//! Every supported geometry is viewed as one of three homogeneous classes:
//! a point set ([`Puntal`]), a curve set ([`Lineal`]: segments plus mod-2
//! boundary points), or a region set ([`Areal`]: boundary rings plus a
//! point-classification function). The relate computations in the parent
//! module are written once per class pair.
//!
//! Views come in two flavours sharing the same code paths: the *owned*
//! views built by [`shape_of`] (used by the free [`crate::relate()`]
//! function, always brute force — the test oracle), and *borrowed* views
//! over a `PreparedShape` that additionally carry segment indexes
//! ([`crate::segtree::SegTree`], [`crate::segtree::RingIndex`]). The
//! indexes only narrow which segments are *inspected*; every skipped
//! segment is one the exact tests would have rejected anyway (segment
//! intersection starts with an envelope prefilter, point-in-ring crossing
//! edges must span the query ordinate), so indexed and brute-force runs
//! produce bit-identical matrices.

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::geometry::Geometry;
use crate::polygon::{MultiPolygon, PointLocation, Polygon, Ring};
use crate::segment::{merge_intervals, SegSegIntersection, Segment};
use crate::quant::QuantRing;
use crate::segtree::{note_quant_fallback, note_quant_resolved, RingIndex, SegTree};
use std::borrow::Cow;

/// Relative tolerance for parameter-space bookkeeping (splitting segments
/// at intersection points). Decisions about *whether* geometries intersect
/// are exact; this tolerance only guards against duplicated split points.
pub const PARAM_EPS: f64 = 1e-12;

/// A 0-dimensional geometry: a finite set of distinct coordinates.
pub struct Puntal<'a> {
    /// The point set.
    pub coords: Cow<'a, [Coord]>,
}

/// A 1-dimensional geometry: a set of segments plus its topological
/// boundary (the mod-2 endpoints).
pub struct Lineal<'a> {
    /// All segments of the curve set.
    pub segments: Cow<'a, [Segment]>,
    /// The mod-2 boundary points.
    pub boundary: Cow<'a, [Coord]>,
    /// Optional segment index over `segments` (present on prepared views).
    pub(crate) tree: Option<&'a SegTree>,
}

/// Where a coordinate lies relative to a lineal geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinealLocation {
    Interior,
    Boundary,
    Exterior,
}

impl<'a> Lineal<'a> {
    /// Owned, unindexed view (the brute-force flavour).
    pub fn new(segments: Vec<Segment>, boundary: Vec<Coord>) -> Lineal<'a> {
        Lineal {
            segments: Cow::Owned(segments),
            boundary: Cow::Owned(boundary),
            tree: None,
        }
    }

    /// Classifies a coordinate against the curve.
    pub fn locate(&self, c: Coord) -> LinealLocation {
        if self.boundary.contains(&c) {
            return LinealLocation::Boundary;
        }
        let on_curve = match self.tree {
            Some(tree) => tree
                .query(&Rect::of_point(c))
                .iter()
                .any(|&i| self.segments[i as usize].contains_point(c)),
            None => self.segments.iter().any(|s| s.contains_point(c)),
        };
        if on_curve {
            LinealLocation::Interior
        } else {
            LinealLocation::Exterior
        }
    }

    /// True when every point of `self` lies on `other` (point-set
    /// containment of the curves, computed by collinear-interval coverage).
    pub fn covered_by(&self, other: &Lineal) -> bool {
        self.segments
            .iter()
            .all(|s| segment_covered_by_indexed(s, &other.segments, other.tree))
    }
}

/// True when segment `s` is fully covered by the union of `segs`
/// (via merged collinear-overlap intervals in `s`'s parameter space).
pub fn segment_covered_by(s: &Segment, segs: &[Segment]) -> bool {
    segment_covered_by_indexed(s, segs, None)
}

/// [`segment_covered_by`] with an optional index over `segs`. Only
/// segments whose envelope meets `s`'s can contribute an overlap interval,
/// so the candidate restriction never changes the merged coverage.
pub(crate) fn segment_covered_by_indexed(
    s: &Segment,
    segs: &[Segment],
    tree: Option<&SegTree>,
) -> bool {
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    let mut push = |t: &Segment| {
        if let SegSegIntersection::Overlap(ov) = s.intersect(t) {
            let p0 = s.param_of_collinear_point(ov.a);
            let p1 = s.param_of_collinear_point(ov.b);
            intervals.push((p0.min(p1), p0.max(p1)));
        }
    };
    match tree {
        Some(tree) => {
            for i in tree.query(&s.envelope()) {
                push(&segs[i as usize]);
            }
        }
        None => {
            for t in segs {
                push(t);
            }
        }
    }
    crate::segment::intervals_cover_unit(&merge_intervals(intervals), PARAM_EPS.max(1e-9))
}

/// A 2-dimensional geometry: one or more polygons with disjoint interiors.
pub enum Areal<'a> {
    /// A single polygon, viewed in place.
    One(&'a Polygon),
    /// A multi-polygon, viewed in place.
    Many(&'a MultiPolygon),
    /// A prepared region with cached boundary, segment tree and ring
    /// indexes.
    Indexed(&'a PreparedAreal),
}

impl<'a> Areal<'a> {
    /// Classifies a coordinate against the region (holes respected).
    pub fn locate(&self, c: Coord) -> PointLocation {
        match self {
            Areal::One(p) => p.locate(c),
            Areal::Many(mp) => mp.locate(c),
            Areal::Indexed(pa) => pa.locate(c),
        }
    }

    /// All boundary segments (exterior rings and holes of every component).
    pub fn boundary_segments(&self) -> Vec<Segment> {
        self.boundary_cow().into_owned()
    }

    /// Boundary segments without copying when a cached boundary exists.
    /// The segment order is identical in both flavours: exterior ring then
    /// holes, component by component.
    pub(crate) fn boundary_cow(&self) -> Cow<'_, [Segment]> {
        match self {
            Areal::One(p) => Cow::Owned(p.boundary_segments().collect()),
            Areal::Many(mp) => Cow::Owned(
                mp.polygons()
                    .iter()
                    .flat_map(|p| p.boundary_segments().collect::<Vec<_>>())
                    .collect(),
            ),
            Areal::Indexed(pa) => Cow::Borrowed(&pa.boundary),
        }
    }

    /// Segment tree over [`Areal::boundary_cow`], when prepared.
    pub(crate) fn boundary_tree(&self) -> Option<&SegTree> {
        match self {
            Areal::Indexed(pa) => Some(&pa.tree),
            _ => None,
        }
    }

    /// A point strictly inside the region.
    pub fn interior_point(&self) -> Coord {
        match self {
            Areal::One(p) => p.interior_point(),
            Areal::Many(mp) => mp.interior_point(),
            Areal::Indexed(pa) => pa.interior_pt,
        }
    }

    /// One interior point per connected component of the region's interior
    /// (one per member polygon). Needed for completeness of the
    /// region×region interior tests: a component whose boundary is entirely
    /// shared with the other operand (e.g. a polygon exactly filling a
    /// hole) is only detectable through its interior point.
    pub fn interior_points(&self) -> Vec<Coord> {
        match self {
            Areal::One(p) => vec![p.interior_point()],
            Areal::Many(mp) => mp.polygons().iter().map(|p| p.interior_point()).collect(),
            Areal::Indexed(pa) => pa.interior_pts.clone(),
        }
    }
}

/// A region with all relate/distance acceleration data precomputed: ring
/// indexes for point location, the flattened boundary with a segment tree
/// over it, per-component interior points, and the exterior-ring vertices
/// used by bounded-distance containment checks.
///
/// Interior points are snapshotted from the exact (unindexed) computation
/// at build time, and the per-edge location tests replicate the ring scan
/// verbatim, so every classification equals the brute-force one.
#[derive(Debug, Clone)]
pub struct PreparedAreal {
    polys: Vec<PreparedPoly>,
    pub(crate) boundary: Vec<Segment>,
    pub(crate) tree: SegTree,
    pub(crate) interior_pt: Coord,
    pub(crate) interior_pts: Vec<Coord>,
    pub(crate) ext_coords: Vec<Coord>,
}

/// One ring of a prepared polygon: the quantized integer ring answers
/// every query it is certain about, the exact monotone-edge index the
/// rest. Both agree with [`crate::polygon::Ring::locate`], so the pair
/// does too.
#[derive(Debug, Clone)]
struct PreparedRing {
    quant: QuantRing,
    exact: RingIndex,
}

impl PreparedRing {
    fn build(ring: &Ring) -> PreparedRing {
        PreparedRing { quant: QuantRing::build(ring), exact: RingIndex::build(ring) }
    }

    /// Classifies `c`, counting the query under `geom/quant_cells_resolved`
    /// or `geom/quant_fallback_exact`.
    fn locate(&self, c: Coord) -> PointLocation {
        match self.quant.try_locate(c) {
            Some(loc) => {
                note_quant_resolved(1);
                loc
            }
            None => {
                note_quant_fallback(1);
                self.exact.locate(c)
            }
        }
    }
}

#[derive(Debug, Clone)]
struct PreparedPoly {
    exterior: PreparedRing,
    holes: Vec<PreparedRing>,
}

impl PreparedPoly {
    /// Mirrors [`Polygon::locate`] with indexed rings.
    fn locate(&self, c: Coord) -> PointLocation {
        match self.exterior.locate(c) {
            PointLocation::Outside => PointLocation::Outside,
            PointLocation::OnBoundary => PointLocation::OnBoundary,
            PointLocation::Inside => {
                for h in &self.holes {
                    match h.locate(c) {
                        PointLocation::Inside => return PointLocation::Outside,
                        PointLocation::OnBoundary => return PointLocation::OnBoundary,
                        PointLocation::Outside => {}
                    }
                }
                PointLocation::Inside
            }
        }
    }
}

impl PreparedAreal {
    /// Prepares a polygon.
    pub fn from_polygon(p: &Polygon) -> PreparedAreal {
        PreparedAreal::from_members(std::slice::from_ref(p), &Areal::One(p))
    }

    /// Prepares a multi-polygon.
    pub fn from_multi(mp: &MultiPolygon) -> PreparedAreal {
        PreparedAreal::from_members(mp.polygons(), &Areal::Many(mp))
    }

    fn from_members(members: &[Polygon], view: &Areal) -> PreparedAreal {
        let polys = members
            .iter()
            .map(|p| PreparedPoly {
                exterior: PreparedRing::build(p.exterior()),
                holes: p.holes().iter().map(PreparedRing::build).collect(),
            })
            .collect();
        let boundary = view.boundary_segments();
        let tree = SegTree::build(&boundary);
        PreparedAreal {
            polys,
            boundary,
            tree,
            interior_pt: view.interior_point(),
            interior_pts: view.interior_points(),
            ext_coords: members
                .iter()
                .flat_map(|p| p.exterior().coords().iter().copied())
                .collect(),
        }
    }

    /// Classifies `c` against the region. Mirrors
    /// [`MultiPolygon::locate`]'s member loop (which degenerates to
    /// [`Polygon::locate`] for a single member) over indexed rings.
    pub fn locate(&self, c: Coord) -> PointLocation {
        let mut on_boundary = false;
        for poly in &self.polys {
            match poly.locate(c) {
                PointLocation::Inside => return PointLocation::Inside,
                PointLocation::OnBoundary => on_boundary = true,
                PointLocation::Outside => {}
            }
        }
        if on_boundary {
            PointLocation::OnBoundary
        } else {
            PointLocation::Outside
        }
    }

    /// True when any coordinate lies inside or on the region — the
    /// containment sweep of the bounded-distance kernel.
    pub fn any_not_outside(&self, coords: &[Coord]) -> bool {
        coords.iter().any(|&c| self.locate(c) != PointLocation::Outside)
    }

    /// [`PreparedAreal::any_not_outside`] over segment endpoints, in the
    /// order `a` then `b`, segment by segment.
    pub fn any_endpoint_not_outside(&self, segments: &[Segment]) -> bool {
        segments.iter().any(|s| {
            self.locate(s.a) != PointLocation::Outside || self.locate(s.b) != PointLocation::Outside
        })
    }
}

/// Classification evidence gathered by splitting a set of segments at their
/// intersections with a region's boundary and classifying each fragment.
#[derive(Debug, Default, Clone, Copy)]
pub struct SplitFlags {
    /// Some fragment lies strictly inside the region.
    pub inside: bool,
    /// Some fragment runs along the region's boundary (collinear overlap).
    pub on_boundary: bool,
    /// Some fragment lies strictly outside the region.
    pub outside: bool,
    /// Some isolated intersection point with the boundary exists.
    pub touch_point: bool,
}

/// Splits every segment in `segs` at its intersections with
/// `region_boundary` and classifies the fragments against `region`.
///
/// Fragments that coincide with a collinear overlap run are classified
/// `on_boundary` *symbolically* (from the overlap interval itself) rather
/// than by locating their midpoint, so hairline rounding in the midpoint
/// computation cannot flip a shared-edge case into an overlap case.
pub fn split_classify(segs: &[Segment], region_boundary: &[Segment], region: &Areal) -> SplitFlags {
    split_classify_indexed(segs, region_boundary, None, region)
}

/// [`split_classify`] with an optional segment tree over `region_boundary`.
///
/// Candidates come back in ascending boundary order, i.e. a subsequence of
/// the full scan; skipped boundary segments cannot intersect (their
/// envelopes are disjoint from the probe's, the very prefilter
/// [`Segment::intersect`] applies first), so the cut multiset — and after
/// sorting and deduplication, the fragment classification — is identical.
pub(crate) fn split_classify_indexed(
    segs: &[Segment],
    region_boundary: &[Segment],
    tree: Option<&SegTree>,
    region: &Areal,
) -> SplitFlags {
    let mut flags = SplitFlags::default();
    for s in segs {
        let mut cuts: Vec<f64> = vec![0.0, 1.0];
        let mut on_intervals: Vec<(f64, f64)> = Vec::new();
        let mut cut_with = |t: &Segment, flags: &mut SplitFlags| match s.intersect(t) {
            SegSegIntersection::None => {}
            SegSegIntersection::Point(p) => {
                let tp = s.param_of_collinear_point_clamped(p);
                cuts.push(tp);
                flags.touch_point = true;
            }
            SegSegIntersection::Overlap(ov) => {
                let p0 = s.param_of_collinear_point(ov.a);
                let p1 = s.param_of_collinear_point(ov.b);
                let (lo, hi) = (p0.min(p1), p0.max(p1));
                cuts.push(lo);
                cuts.push(hi);
                on_intervals.push((lo, hi));
            }
        };
        match tree {
            Some(tree) => {
                for i in tree.query(&s.envelope()) {
                    cut_with(&region_boundary[i as usize], &mut flags);
                }
            }
            None => {
                for t in region_boundary {
                    cut_with(t, &mut flags);
                }
            }
        }
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite params"));
        cuts.dedup_by(|a, b| (*a - *b).abs() <= PARAM_EPS);
        let on_intervals = merge_intervals(on_intervals);

        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi - lo <= PARAM_EPS {
                continue;
            }
            let mid = (lo + hi) * 0.5;
            // Fragments inside a recorded overlap run lie on the boundary.
            if on_intervals
                .iter()
                .any(|&(olo, ohi)| olo - PARAM_EPS <= lo && hi <= ohi + PARAM_EPS)
            {
                flags.on_boundary = true;
                continue;
            }
            match region.locate(s.a.lerp(s.b, mid)) {
                PointLocation::Inside => flags.inside = true,
                PointLocation::Outside => flags.outside = true,
                // Numerically pinched fragment grazing the boundary.
                PointLocation::OnBoundary => flags.on_boundary = true,
            }
        }
    }
    flags
}

impl Segment {
    /// Parameter of an on-segment point, clamped to `[0, 1]`.
    pub(crate) fn param_of_collinear_point_clamped(&self, p: Coord) -> f64 {
        self.param_of_collinear_point(p).clamp(0.0, 1.0)
    }
}

/// Decomposes a geometry into its homogeneous class.
pub enum Shape<'a> {
    P(Puntal<'a>),
    L(Lineal<'a>),
    A(Areal<'a>),
}

/// Builds the class view of a geometry (owned, unindexed: the brute-force
/// flavour used by the free [`crate::relate()`] function).
pub fn shape_of(g: &Geometry) -> Shape<'_> {
    match g {
        Geometry::Point(p) => Shape::P(Puntal { coords: Cow::Owned(vec![p.coord()]) }),
        Geometry::MultiPoint(mp) => Shape::P(Puntal { coords: Cow::Borrowed(mp.coords()) }),
        Geometry::LineString(l) => {
            Shape::L(Lineal::new(l.segments().collect(), l.boundary_points()))
        }
        Geometry::MultiLineString(ml) => {
            Shape::L(Lineal::new(ml.segments().collect(), ml.boundary_points()))
        }
        Geometry::Polygon(p) => Shape::A(Areal::One(p)),
        Geometry::MultiPolygon(mp) => Shape::A(Areal::Many(mp)),
    }
}

/// The cached, index-carrying form of a geometry's class view, stored by
/// [`crate::prepared::PreparedGeometry`] and borrowed as a [`Shape`] per
/// relate call.
#[derive(Debug, Clone)]
pub(crate) enum PreparedShape {
    P {
        coords: Vec<Coord>,
    },
    L {
        segments: Vec<Segment>,
        boundary: Vec<Coord>,
        tree: SegTree,
    },
    A(PreparedAreal),
}

impl PreparedShape {
    /// Builds the indexed class view of a geometry.
    pub(crate) fn build(g: &Geometry) -> PreparedShape {
        match g {
            Geometry::Point(p) => PreparedShape::P { coords: vec![p.coord()] },
            Geometry::MultiPoint(mp) => PreparedShape::P { coords: mp.coords().to_vec() },
            Geometry::LineString(l) => {
                let segments: Vec<Segment> = l.segments().collect();
                let tree = SegTree::build(&segments);
                PreparedShape::L { segments, boundary: l.boundary_points(), tree }
            }
            Geometry::MultiLineString(ml) => {
                let segments: Vec<Segment> = ml.segments().collect();
                let tree = SegTree::build(&segments);
                PreparedShape::L { segments, boundary: ml.boundary_points(), tree }
            }
            Geometry::Polygon(p) => PreparedShape::A(PreparedAreal::from_polygon(p)),
            Geometry::MultiPolygon(mp) => PreparedShape::A(PreparedAreal::from_multi(mp)),
        }
    }

    /// Borrows the prepared data as a [`Shape`] view with indexes attached.
    pub(crate) fn as_shape(&self) -> Shape<'_> {
        match self {
            PreparedShape::P { coords } => Shape::P(Puntal { coords: Cow::Borrowed(coords) }),
            PreparedShape::L { segments, boundary, tree } => Shape::L(Lineal {
                segments: Cow::Borrowed(segments),
                boundary: Cow::Borrowed(boundary),
                tree: Some(tree),
            }),
            PreparedShape::A(pa) => Shape::A(Areal::Indexed(pa)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;
    use crate::linestring::LineString;

    fn lineal(pts: &[(f64, f64)]) -> Lineal<'static> {
        let l = LineString::from_xy(pts).unwrap();
        Lineal::new(l.segments().collect(), l.boundary_points())
    }

    #[test]
    fn lineal_locate() {
        let l = lineal(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]);
        assert_eq!(l.locate(coord(1.0, 0.0)), LinealLocation::Interior);
        assert_eq!(l.locate(coord(2.0, 0.0)), LinealLocation::Interior); // middle vertex
        assert_eq!(l.locate(coord(0.0, 0.0)), LinealLocation::Boundary);
        assert_eq!(l.locate(coord(2.0, 2.0)), LinealLocation::Boundary);
        assert_eq!(l.locate(coord(5.0, 5.0)), LinealLocation::Exterior);
    }

    #[test]
    fn indexed_lineal_locate_matches_brute() {
        let l = LineString::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (5.0, 2.0)]).unwrap();
        let g: Geometry = l.into();
        let prepared = PreparedShape::build(&g);
        let (brute, indexed) = (shape_of(&g), prepared.as_shape());
        let (Shape::L(brute), Shape::L(indexed)) = (brute, indexed) else {
            panic!("lineal expected");
        };
        for p in [
            coord(1.0, 0.0),
            coord(2.0, 0.0),
            coord(0.0, 0.0),
            coord(5.0, 2.0),
            coord(3.0, 2.0),
            coord(9.0, 9.0),
        ] {
            assert_eq!(brute.locate(p), indexed.locate(p), "{p:?}");
        }
        assert!(indexed.tree.is_some());
    }

    #[test]
    fn coverage() {
        let short = lineal(&[(1.0, 0.0), (2.0, 0.0)]);
        let long = lineal(&[(0.0, 0.0), (4.0, 0.0)]);
        assert!(short.covered_by(&long));
        assert!(!long.covered_by(&short));
        // Coverage across multiple sub-segments.
        let split = lineal(&[(0.0, 0.0), (1.5, 0.0), (4.0, 0.0)]);
        assert!(long.covered_by(&split));
        // Perpendicular: no coverage.
        let perp = lineal(&[(0.0, 0.0), (0.0, 4.0)]);
        assert!(!short.covered_by(&perp));
    }

    #[test]
    fn split_classify_crossing_polygon() {
        let poly = crate::polygon::Polygon::rect(coord(0.0, 0.0), coord(2.0, 2.0)).unwrap();
        let region = Areal::One(&poly);
        let boundary = region.boundary_segments();
        // A segment crossing straight through.
        let segs = [Segment::new(coord(-1.0, 1.0), coord(3.0, 1.0))];
        let f = split_classify(&segs, &boundary, &region);
        assert!(f.inside && f.outside && f.touch_point && !f.on_boundary);
        // A segment running along an edge.
        let segs = [Segment::new(coord(0.0, 0.0), coord(2.0, 0.0))];
        let f = split_classify(&segs, &boundary, &region);
        assert!(f.on_boundary && !f.inside && !f.outside);
        // A segment fully inside.
        let segs = [Segment::new(coord(0.5, 0.5), coord(1.5, 1.5))];
        let f = split_classify(&segs, &boundary, &region);
        assert!(f.inside && !f.outside && !f.on_boundary && !f.touch_point);
        // A segment fully outside.
        let segs = [Segment::new(coord(5.0, 5.0), coord(6.0, 6.0))];
        let f = split_classify(&segs, &boundary, &region);
        assert!(f.outside && !f.inside && !f.on_boundary && !f.touch_point);
    }

    #[test]
    fn prepared_areal_locate_matches_polygon_locate() {
        let shell = crate::polygon::Ring::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
        let hole = crate::polygon::Ring::rect(coord(4.0, 4.0), coord(6.0, 6.0)).unwrap();
        let poly = crate::polygon::Polygon::new(shell, vec![hole]).unwrap();
        let pa = PreparedAreal::from_polygon(&poly);
        for i in 0..60 {
            for j in 0..60 {
                let p = coord(i as f64 * 0.25 - 2.0, j as f64 * 0.25 - 2.0);
                assert_eq!(pa.locate(p), poly.locate(p), "{p:?}");
            }
        }
        // Exact boundary points, including the hole ring.
        for p in [coord(0.0, 0.0), coord(10.0, 5.0), coord(4.0, 5.0), coord(6.0, 6.0)] {
            assert_eq!(pa.locate(p), poly.locate(p), "{p:?}");
        }
    }
}

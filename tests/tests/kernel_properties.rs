//! Property tests for the segment-indexed geometry kernel.
//!
//! The prepared-geometry path (lazy segment R-trees, monotone ring
//! indexes, branch-and-bound bounded distance, self-join memo) is a pure
//! accelerator: every observable output must be **bit-identical** to the
//! brute-force kernel. These tests drive both paths with seeded random
//! workloads from `geopattern-datagen` — smooth general-position shapes
//! and lattice-quantised degenerates (collinear edges, shared vertices,
//! touching boundaries) — and assert exact agreement.
//!
//! Point location inside prepared polygons runs through the quantized
//! integer ring first and the exact ring index for the queries it
//! declines, so the probe batteries below aim at the grid's weak spots:
//! star rings whose vertex counts leave partial eight-lane blocks,
//! lattice rings probed at ±1-ulp perturbations of their boundary, and
//! the first vertex (the value the padded lanes replicate).

use geopattern_datagen::{lattice_geometry, lattice_polygon, random_linestring, star_polygon};
use geopattern_geom::{
    coord, geometry_distance, geometry_distance_within, relate, Coord, Geometry, Point,
    PointLocation, Polygon, PreparedGeometry, QuantRing, Ring, RingIndex,
};
use geopattern_testkit::Rng;

/// The next `f64` strictly below a positive finite `d`.
fn prev_f64(d: f64) -> f64 {
    assert!(d > 0.0 && d.is_finite());
    f64::from_bits(d.to_bits() - 1)
}

fn ulp_up(v: f64) -> f64 {
    f64::from_bits(if v >= 0.0 { v.to_bits() + 1 } else { v.to_bits() - 1 })
}

fn ulp_down(v: f64) -> f64 {
    f64::from_bits(if v > 0.0 { v.to_bits() - 1 } else { v.to_bits() + 1 })
}

/// Star rings with vertex counts that leave partial eight-lane blocks in
/// the quantized ring (3, 5, 9, 13, 21 are not multiples of eight).
fn partial_lane_star_rings() -> Vec<Ring> {
    let mut rng = Rng::seed_from_u64(42);
    [3usize, 5, 8, 9, 13, 16, 21, 64]
        .into_iter()
        .map(|vertices| {
            let center = coord(rng.f64() * 20.0, rng.f64() * 20.0);
            let (r_min, r_max) = (1.0 + rng.f64(), 4.0 + rng.f64() * 3.0);
            star_polygon(&mut rng, center, r_min, r_max, vertices).exterior().clone()
        })
        .collect()
}

/// Lattice rings, whose collinear chains and axis-parallel edges land
/// exactly on grid lines.
fn lattice_rings() -> Vec<Ring> {
    let mut rng = Rng::seed_from_u64(7);
    (0..12).map(|_| lattice_polygon(&mut rng, 12).exterior().clone()).collect()
}

/// A concave nine-edge ring: horizontal edges at several ordinates, and
/// an edge count that pads the last lane block with copies of vertex 0.
fn concave_nine_edge_ring() -> Ring {
    Ring::from_xy(&[
        (0.0, 0.0),
        (8.0, 0.0),
        (8.0, 3.0),
        (4.0, 3.0),
        (4.0, 6.0),
        (8.0, 6.0),
        (8.0, 9.0),
        (0.0, 9.0),
        (0.0, 5.0),
    ])
    .unwrap()
}

/// Every vertex (vertex 0 first), every edge's quarter points, and the
/// ±1-ulp perturbations of all of those in both axes — the band where
/// naive arithmetic cannot decide boundary membership.
fn boundary_probes(ring: &Ring) -> Vec<Coord> {
    let mut probes: Vec<Coord> = ring.coords().to_vec();
    for s in ring.segments() {
        for t in [0.25, 0.5, 0.75] {
            probes.push(s.a.lerp(s.b, t));
        }
    }
    let mut near = Vec::with_capacity(4 * probes.len());
    for &p in &probes {
        near.push(coord(ulp_up(p.x), p.y));
        near.push(coord(ulp_down(p.x), p.y));
        near.push(coord(p.x, ulp_up(p.y)));
        near.push(coord(p.x, ulp_down(p.y)));
    }
    probes.extend(near);
    probes
}

/// A mixed bag of general-position geometries: star polygons and drifting
/// linestrings scattered so that many pairs intersect, many merely come
/// close, and the rest are far apart.
fn smooth_geometries(rng: &mut Rng, count: usize) -> Vec<Geometry> {
    (0..count)
        .map(|i| {
            let center = coord(rng.f64() * 40.0, rng.f64() * 40.0);
            if i % 2 == 0 {
                let r_min = 1.0 + rng.f64() * 2.0;
                let r_max = 3.0 + rng.f64() * 4.0;
                star_polygon(rng, center, r_min, r_max, 6 + i % 13).into()
            } else {
                random_linestring(rng, center, 2.0, 3 + i % 10).into()
            }
        })
        .collect()
}

/// Asserts the full kernel contract on one ordered pair:
/// * indexed relate equals brute relate, exactly;
/// * relate is transpose-symmetric (the property the self-join memo
///   depends on);
/// * `geometry_distance_within` returns the brute distance bit-for-bit at
///   any sufficient bound, at the *exactly equal* bound, and `None` one
///   ulp below it.
fn assert_kernel_contract(a: &Geometry, b: &Geometry) {
    let brute = relate(a, b);
    let pa = PreparedGeometry::new(a.clone());
    let pb = PreparedGeometry::new(b.clone());
    assert_eq!(pa.relate_to(&pb), brute, "indexed relate diverged from brute");
    assert_eq!(pb.relate_to(&pa), brute.transposed(), "relate transpose symmetry broken");

    assert_bounded_distance_contract(a, b);
}

/// `geometry_distance_within` returns the brute distance bit-for-bit at
/// any sufficient bound and at the *exactly equal* bound, `None` one ulp
/// below it, is symmetric, and treats non-finite bounds as NaN and −∞
/// admitting nothing, +∞ admitting everything.
fn assert_bounded_distance_contract(a: &Geometry, b: &Geometry) {
    let d = geometry_distance(a, b);
    assert!(d >= 0.0 && d.is_finite());
    let generous = geometry_distance_within(a, b, d * 2.0 + 1.0);
    assert_eq!(generous.map(f64::to_bits), Some(d.to_bits()), "bounded distance value drifted");
    // The bound is inclusive: a bound exactly equal to the distance hits.
    let exact = geometry_distance_within(a, b, d);
    assert_eq!(exact.map(f64::to_bits), Some(d.to_bits()), "bound == distance must report");
    // One ulp below the distance must prune to None.
    if d > 0.0 {
        assert_eq!(geometry_distance_within(a, b, prev_f64(d)), None, "bound just below {d}");
    }
    // Bounded distance is symmetric bit-for-bit.
    let mirror = geometry_distance_within(b, a, d);
    assert_eq!(mirror.map(f64::to_bits), Some(d.to_bits()), "bounded distance asymmetric");
    // Non-finite bounds: NaN and −∞ admit nothing, +∞ admits everything.
    assert_eq!(geometry_distance_within(a, b, f64::NAN), None, "NaN bound must prune");
    assert_eq!(geometry_distance_within(a, b, f64::NEG_INFINITY), None, "−∞ bound must prune");
    let unbounded = geometry_distance_within(a, b, f64::INFINITY);
    assert_eq!(unbounded.map(f64::to_bits), Some(d.to_bits()), "+∞ bound must report");
}

#[test]
fn indexed_kernel_agrees_with_brute_on_random_pairs() {
    let mut rng = Rng::seed_from_u64(42);
    let geoms = smooth_geometries(&mut rng, 40);
    let mut pairs = 0usize;
    for a in &geoms {
        for b in &geoms {
            assert_kernel_contract(a, b);
            pairs += 1;
        }
    }
    assert!(pairs >= 1000, "property sweep covered {pairs} pairs, wanted >= 1000");
}

#[test]
fn indexed_kernel_agrees_with_brute_on_lattice_degenerates() {
    // Integer-lattice shapes make collinear overlaps, shared vertices and
    // boundary touches likely instead of measure-zero. Orientation tests
    // on small integers are exact, so both kernels face the same
    // degeneracies and must resolve them identically.
    let mut rng = Rng::seed_from_u64(42);
    let geoms: Vec<Geometry> = (0..36).map(|_| lattice_geometry(&mut rng, 12)).collect();
    let mut touching = 0usize;
    for a in &geoms {
        for b in &geoms {
            assert_kernel_contract(a, b);
            if geometry_distance(a, b) == 0.0 && !std::ptr::eq(a, b) {
                touching += 1;
            }
        }
    }
    assert!(touching > 20, "lattice workload should produce many touching pairs ({touching})");
}

#[test]
fn ring_index_locate_matches_ring_locate() {
    let mut rng = Rng::seed_from_u64(42);
    let mut rings: Vec<Ring> = (0..12)
        .map(|i| {
            let r_min = 1.0 + rng.f64();
            star_polygon(&mut rng, coord(5.0, 5.0), r_min, 4.0, 5 + i).exterior().clone()
        })
        .collect();
    rings.extend((0..12).map(|_| lattice_polygon(&mut rng, 12).exterior().clone()));

    for ring in &rings {
        let index = RingIndex::build(ring);
        // Exact boundary points: every vertex and every edge midpoint.
        let coords = ring.coords();
        for i in 0..coords.len() {
            let a = coords[i];
            let b = coords[(i + 1) % coords.len()];
            let mid = coord((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
            for p in [a, mid] {
                assert_eq!(index.locate(p), ring.locate(p), "boundary point {p:?}");
            }
        }
        // A dense random cloud spanning inside, outside and rays through
        // vertices (y equal to a vertex y exercises the parity edge rules).
        for _ in 0..200 {
            let p = coord(rng.f64() * 14.0 - 1.0, rng.f64() * 14.0 - 1.0);
            assert_eq!(index.locate(p), ring.locate(p), "random point {p:?}");
        }
        for &v in coords {
            let p = coord(v.x - 3.0, v.y);
            assert_eq!(index.locate(p), ring.locate(p), "vertex-ray point {p:?}");
        }
    }
}

/// Point location on one ring through both accelerated paths, against
/// `Ring::locate`: `RingIndex::locate` on every boundary probe, and the
/// prepared polygon (quantized ring, then exact index) observed through
/// relate and bounded distance against single-point probes — the
/// boundary probes plus a coarse grid over and past the envelope.
fn assert_locate_battery(ring: &Ring) {
    let index = RingIndex::build(ring);
    let probes = boundary_probes(ring);
    for &p in &probes {
        assert_eq!(index.locate(p), ring.locate(p), "index probe {p:?}");
    }
    let polygon: Geometry = Polygon::new(ring.clone(), Vec::new()).unwrap().into();
    let env = ring.envelope();
    let (w, h) = (env.max.x - env.min.x, env.max.y - env.min.y);
    let grid = (0..64).map(|k| {
        let (i, j) = ((k % 8) as f64, (k / 8) as f64);
        coord(env.min.x - 0.1 * w + i / 7.0 * 1.2 * w, env.min.y - 0.1 * h + j / 7.0 * 1.2 * h)
    });
    for p in probes.into_iter().chain(grid) {
        let point: Geometry = Point::new(p).unwrap().into();
        assert_kernel_contract(&polygon, &point);
    }
}

/// Smooth general-position rings whose vertex counts leave partial
/// eight-lane blocks in the quantized ring.
#[test]
fn partial_lane_star_rings_locate_like_ring_locate() {
    for ring in partial_lane_star_rings() {
        assert_locate_battery(&ring);
    }
}

/// Lattice rings probed at their vertices, edge quarter points and the
/// ±1-ulp perturbations of both: collinear chains and horizontal edges at
/// the query ordinate, where the exact fallback must carry the load.
#[test]
fn lattice_ring_perturbations_locate_like_ring_locate() {
    for ring in lattice_rings() {
        assert_locate_battery(&ring);
    }
}

/// Vertex 0 is the value the quantized ring pads its last lane block
/// with: a query exactly there is a boundary point, which the grid must
/// never answer with certainty, and which every path must classify as
/// the boundary. The top vertex and the point one ulp above it guard the
/// last stripe's edge.
#[test]
fn vertex_zero_probe_is_boundary() {
    let ring = concave_nine_edge_ring();
    let v0 = ring.coords()[0];
    assert_eq!(ring.locate(v0), PointLocation::OnBoundary);
    assert_eq!(RingIndex::build(&ring).locate(v0), PointLocation::OnBoundary);
    assert_eq!(QuantRing::build(&ring).try_locate(v0), None, "vertex-0 probe must fall back");
    let polygon = PreparedGeometry::new(Polygon::new(ring.clone(), Vec::new()).unwrap().into());
    let on_v0 = PreparedGeometry::new(Point::new(v0).unwrap().into());
    assert_eq!(polygon.relate_to(&on_v0), relate(polygon.geometry(), on_v0.geometry()));
    assert_eq!(polygon.distance_within(&on_v0, 0.0), Some(0.0));

    let top = coord(4.0, 9.0);
    let above = coord(4.0, ulp_up(9.0));
    assert_eq!(ring.locate(top), PointLocation::OnBoundary);
    assert_eq!(ring.locate(above), PointLocation::Outside);
    for p in [top, above] {
        assert_eq!(RingIndex::build(&ring).locate(p), ring.locate(p), "probe {p:?}");
    }
    assert_locate_battery(&ring);
}

/// Star polygons nested around shared centres (the inner ring's outer
/// radius below the outer ring's inner radius), mixed with overlapping
/// neighbours: areal relate decides containment by locating ring
/// vertices inside the other polygon, so prepared relate must equal brute
/// relate, in both argument orders, on every pair.
#[test]
fn prepared_relate_matches_brute_on_nested_star_polygons() {
    let mut rng = Rng::seed_from_u64(5);
    let mut geoms: Vec<Geometry> = Vec::new();
    for _ in 0..4 {
        let center = coord(rng.f64() * 12.0, rng.f64() * 12.0);
        for (r_min, r_max) in [(1.0, 2.0), (2.5, 3.5), (4.5, 6.0)] {
            geoms.push(star_polygon(&mut rng, center, r_min, r_max, 12).into());
        }
    }
    let prepared: Vec<PreparedGeometry> =
        geoms.iter().map(|g| PreparedGeometry::new(g.clone())).collect();
    let mut contained = 0usize;
    for (a, pa) in geoms.iter().zip(&prepared) {
        for (b, pb) in geoms.iter().zip(&prepared) {
            let brute = relate(a, b);
            assert_eq!(pa.relate_to(pb), brute, "indexed relate diverged from brute");
            assert_eq!(pb.relate_to(pa), brute.transposed(), "relate transpose symmetry broken");
            if !std::ptr::eq(a, b) && brute.matches("T*F**F***") {
                contained += 1;
            }
        }
    }
    assert!(contained >= 12, "nested stars should produce containment ({contained})");
}

/// Bounded distance between star polygons at generous, exact,
/// one-ulp-short, NaN and infinite bounds.
#[test]
fn bounded_distance_contract_on_star_polygons() {
    let mut rng = Rng::seed_from_u64(99);
    let geoms: Vec<Geometry> = (0..10)
        .map(|i| {
            let center = coord(rng.f64() * 40.0, rng.f64() * 40.0);
            star_polygon(&mut rng, center, 1.0, 4.0, 6 + i % 9).into()
        })
        .collect();
    for a in &geoms {
        for b in &geoms {
            assert_bounded_distance_contract(a, b);
        }
    }
}

/// The self-join memo (reference layer re-used as a relevant layer, by
/// pointer identity) must be invisible: extracting against the *same*
/// allocation and against an equal-but-distinct copy yields identical
/// predicate tables and stats, at every thread count.
#[test]
fn self_join_memo_is_invisible() {
    use geopattern_par::Threads;
    use geopattern_qsr::DistanceScheme;
    use geopattern_sdb::{extract_predicates, ExtractionConfig, Layer};

    let mut rng = Rng::seed_from_u64(42);
    let layer = geopattern_datagen::random_layer(&mut rng, "parcel", 48, 10, 60.0);
    let copy = Layer::new(layer.feature_type.clone(), layer.features().to_vec());

    let scheme = DistanceScheme::new(vec![("near", 6.0), ("mid", 14.0)]).expect("bounded scheme");
    let base = ExtractionConfig::topological_only().with_distance(scheme);

    let config = base.clone().with_threads(Threads::Serial);
    // Same allocation on both sides: the memo engages.
    let (memo_table, memo_stats) = extract_predicates(&layer, &[&layer], &config).unwrap();
    // Distinct allocation: pointer test fails, every pair computed directly.
    let (direct_table, direct_stats) = extract_predicates(&layer, &[&copy], &config).unwrap();
    assert_eq!(memo_table.predicates(), direct_table.predicates());
    assert_eq!(memo_table.rows(), direct_table.rows());
    assert_eq!(memo_stats, direct_stats);
    assert!(!memo_table.predicates().is_empty(), "self-join should produce predicates");

    for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
        let (table, stats) = extract_predicates(&layer, &[&layer], &base.clone().with_threads(threads)).unwrap();
        assert_eq!(table.predicates(), memo_table.predicates(), "{threads:?}");
        assert_eq!(table.rows(), memo_table.rows(), "{threads:?}");
        assert_eq!(stats, memo_stats, "{threads:?}");
    }
}

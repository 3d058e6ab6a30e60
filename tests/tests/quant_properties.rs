//! Property tests for the quantized integer point-location path
//! (`QuantRing`).
//!
//! Prepared polygons locate points on an i32 grid first: certain answers
//! are exact by the snap-band homotopy argument, and ambiguous queries
//! go to the exact `f64` ring index. These tests drive the certainty
//! contract with seeded star and lattice generators plus adversarial
//! probes — exact grid points, points a fraction of a snap band off an
//! edge, and ±one-ulp perturbations of boundary points — and check that
//! a full extraction and its quant counters are invariant under thread
//! count and tiling.

use geopattern::{Recorder, Threads};
use geopattern_datagen::{generate_city, lattice_polygon, star_polygon, CityConfig};
use geopattern_geom::{
    coord, geometry_distance, relate, take_kernel_counters, Coord, Geometry, Point, PointLocation,
    Polygon, PreparedGeometry, QuantRing, Ring,
};
use geopattern_sdb::{extract_predicates, ExtractionConfig, Predicate, PredicateTable, Tiling};
use geopattern_testkit::Rng;

fn ulp_up(v: f64) -> f64 {
    f64::from_bits(if v >= 0.0 { v.to_bits() + 1 } else { v.to_bits() - 1 })
}

fn ulp_down(v: f64) -> f64 {
    f64::from_bits(if v > 0.0 { v.to_bits() - 1 } else { v.to_bits() + 1 })
}

/// A probe battery for one ring, aimed at the quantizer: a dense grid
/// over (and past) the envelope, every vertex and edge fraction, points
/// snapped *exactly* onto the ring's own grid, points a fraction of a
/// snap band off each edge midpoint, and ±one-ulp perturbations of the
/// boundary-adjacent probes.
fn quant_probes(ring: &Ring, q: &QuantRing) -> Vec<Coord> {
    let env = ring.envelope();
    let (w, h) = (env.max.x - env.min.x, env.max.y - env.min.y);
    let mut probes = Vec::new();
    for i in 0..20 {
        for j in 0..20 {
            probes.push(coord(
                env.min.x - 0.1 * w + (i as f64 / 19.0) * 1.2 * w,
                env.min.y - 0.1 * h + (j as f64 / 19.0) * 1.2 * h,
            ));
        }
    }
    // Exact grid points: quantize grid probes and map them back through
    // the affine — these land on the lattice the integer predicates see,
    // the worst case for "certain" misclassification.
    let qz = q.quantizer();
    let (x0, y0) = qz.origin();
    let cell = qz.cell();
    for &p in probes.clone().iter().step_by(7) {
        if let Some((qx, qy)) = qz.quantize(p) {
            probes.push(coord(x0 + qx as f64 * cell, y0 + qy as f64 * cell));
        }
    }
    let mut near = Vec::new();
    let boundary_start = probes.len();
    probes.extend(ring.coords().iter().copied());
    for s in ring.segments() {
        let (dx, dy) = (s.b.x - s.a.x, s.b.y - s.a.y);
        let len = (dx * dx + dy * dy).sqrt().max(f64::MIN_POSITIVE);
        let (nx, ny) = (-dy / len, dx / len);
        for t in [0.25, 0.5, 0.75] {
            let m = s.a.lerp(s.b, t);
            probes.push(m);
            // Snap-band edges: half a band inside the ambiguity zone and
            // a few bands outside it, on both sides of the edge.
            for k in [0.5, -0.5, 4.0, -4.0] {
                let off = k * 2.0 * cell;
                probes.push(coord(m.x + nx * off, m.y + ny * off));
            }
        }
    }
    for &p in &probes[boundary_start..] {
        near.push(coord(ulp_up(p.x), p.y));
        near.push(coord(ulp_down(p.x), p.y));
        near.push(coord(p.x, ulp_up(p.y)));
        near.push(coord(p.x, ulp_down(p.y)));
    }
    probes.extend(near);
    probes
}

/// The quant contract on one ring: a certain (`Some`) answer from
/// `try_locate` equals the exact `Ring::locate`, and a robust boundary
/// probe is never certain.
fn assert_quant_contract(ring: &Ring) {
    let q = QuantRing::build(ring);
    assert_eq!(q.len(), ring.num_points());
    for &p in &quant_probes(ring, &q) {
        let scalar = ring.locate(p);
        if let Some(fast) = q.try_locate(p) {
            assert_eq!(fast, scalar, "certain answer wrong at {p:?}");
        }
        if scalar == PointLocation::OnBoundary {
            assert_eq!(q.try_locate(p), None, "boundary probe {p:?} answered certain");
        }
    }
}

/// Smooth general-position rings, with vertex counts that leave partial
/// lanes in the eight-wide integer blocks.
#[test]
fn quant_matches_scalar_on_star_rings() {
    let mut rng = Rng::seed_from_u64(42);
    for vertices in [3usize, 5, 8, 9, 13, 16, 21, 64] {
        let center = coord(rng.f64() * 20.0, rng.f64() * 20.0);
        let (r_min, r_max) = (1.0 + rng.f64(), 4.0 + rng.f64() * 3.0);
        let poly = star_polygon(&mut rng, center, r_min, r_max, vertices);
        assert_quant_contract(poly.exterior());
    }
}

/// Lattice-quantised rings: collinear chains, axis-parallel edges, and
/// vertices that quantize exactly onto the integer grid — the mass of
/// degenerate cases where the snap band must force a fallback.
#[test]
fn quant_matches_scalar_on_lattice_rings() {
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..12 {
        let poly = lattice_polygon(&mut rng, 12);
        assert_quant_contract(poly.exterior());
    }
}

/// Overlapping star polygons: areal relate locates each ring's vertices
/// in the other polygon through the quantized ring, and through the exact
/// index where the grid declines, so prepared relate must equal brute
/// relate on every ordered pair.
#[test]
fn relate_matches_brute_through_quant_point_location() {
    let mut rng = Rng::seed_from_u64(5);
    let geoms: Vec<Geometry> = (0..8)
        .map(|_| {
            let center = coord(rng.f64() * 20.0, rng.f64() * 20.0);
            star_polygon(&mut rng, center, 1.5, 5.0, 12).into()
        })
        .collect();
    let prepared: Vec<PreparedGeometry> =
        geoms.iter().map(|g| PreparedGeometry::new(g.clone())).collect();
    let _ = take_kernel_counters();
    for (a, pa) in geoms.iter().zip(&prepared) {
        for (b, pb) in geoms.iter().zip(&prepared) {
            assert_eq!(pa.relate_to(pb), relate(a, b), "prepared relate diverged from brute");
        }
    }
    let k = take_kernel_counters();
    assert!(k.quant_cells_resolved > 0, "relate sweep never resolved on the grid: {k:?}");
}

/// Bounded distance from a star polygon to single-point probes aimed at
/// the quantizer: whether a probe is at distance exactly 0 is a point
/// location, so the bounded kernel must report the brute distance
/// bit-for-bit at generous, exact, one-ulp-short, NaN and infinite
/// bounds, with some probes resolved on the grid and some by the exact
/// index.
#[test]
fn bounded_distance_matches_brute_through_quant_point_location() {
    let mut rng = Rng::seed_from_u64(99);
    for vertices in [6usize, 11, 14] {
        let center = coord(rng.f64() * 40.0, rng.f64() * 40.0);
        let polygon = star_polygon(&mut rng, center, 1.0, 4.0, vertices);
        let ring = polygon.exterior().clone();
        let region = PreparedGeometry::new(polygon.into());
        let _ = take_kernel_counters();
        for p in quant_probes(&ring, &QuantRing::build(&ring)) {
            let probe: Geometry = Point::new(p).unwrap().into();
            let d = geometry_distance(region.geometry(), &probe);
            let probe = PreparedGeometry::new(probe);
            let mut bounds = vec![d * 2.0 + 1.0, d, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            if d > 0.0 {
                bounds.push(ulp_down(d));
            }
            for bound in bounds {
                assert_eq!(
                    region.distance_within(&probe, bound).map(f64::to_bits),
                    (d <= bound).then_some(d.to_bits()),
                    "probe {p:?} at bound {bound}"
                );
            }
        }
        let k = take_kernel_counters();
        assert!(k.quant_cells_resolved > 0, "{vertices}-vertex star: no grid answers: {k:?}");
        assert!(k.quant_fallback_exact > 0, "{vertices}-vertex star: no exact fallbacks: {k:?}");
    }
}

fn table_key(t: &PredicateTable) -> (Vec<Predicate>, Vec<(String, Vec<u32>)>) {
    (t.predicates().to_vec(), t.rows().to_vec())
}

/// A full extraction — topological plus bounded qualitative distance —
/// emits the same predicate table, rows and stats for every combination
/// of thread count {1, 2, 8} × tiling {flat, 1, 7}.
#[test]
fn extraction_bit_identical_across_quant_threads_and_tiles() {
    let ds = generate_city(&CityConfig { grid: 6, seed: 11, ..Default::default() });
    let cell = CityConfig::default().cell;
    let base = ExtractionConfig::topological_only().with_distance(
        geopattern_qsr::DistanceScheme::new(vec![
            ("veryCloseTo", 0.6 * cell),
            ("closeTo", 1.5 * cell),
        ])
        .expect("bounded scheme"),
    );
    let refs = ds.relevant_refs();
    let mut baseline = None;
    for n in [1usize, 2, 8] {
        let t = if n == 1 { Threads::Serial } else { Threads::Fixed(n) };
        for tiles in [None, Some(1), Some(7)] {
            let mut config = base.clone().with_threads(t);
            if let Some(tiles_per_axis) = tiles {
                config = config.with_tiling(Tiling::Grid { tiles_per_axis });
            }
            let (table, stats) =
                extract_predicates(&ds.reference, &refs, &config).expect("extraction");
            let key = (table_key(&table), stats);
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(&key, b, "threads={n} tiles={tiles:?} diverged"),
            }
        }
    }
}

/// The quant counters surface through the standard metrics drain and —
/// because each extraction task drains its thread-local residue — the
/// per-run totals are invariant across thread counts.
#[test]
fn quant_counters_surface_and_are_thread_invariant() {
    let ds = generate_city(&CityConfig { grid: 6, seed: 11, ..Default::default() });
    let refs = ds.relevant_refs();
    let config = ExtractionConfig::topological_only();
    let run = |threads: Threads| {
        let rec = Recorder::new();
        let (table, _) = extract_predicates(
            &ds.reference,
            &refs,
            &config.clone().with_threads(threads).with_recorder(rec.clone()),
        )
        .expect("extraction");
        let m = rec.snapshot();
        (
            table_key(&table),
            m.counter("geom/quant_cells_resolved").unwrap_or(0),
            m.counter("geom/quant_fallback_exact").unwrap_or(0),
        )
    };

    let _ = take_kernel_counters();
    let serial = run(Threads::Serial);
    assert!(serial.1 > 0, "extraction resolved no cells on the grid");
    for n in [2usize, 8] {
        let parallel = run(Threads::Fixed(n));
        assert_eq!(parallel, serial, "quant counters changed at {n} threads");
    }
}

/// Prepared point location counts each query as resolved on the grid or
/// answered by the exact index, and the benchmark-only
/// `simd_fallback_exact` field mirrors the exact-index count.
#[test]
fn simd_fallback_field_mirrors_quant_fallbacks() {
    let mut rng = Rng::seed_from_u64(5);
    let ring = star_polygon(&mut rng, coord(10.0, 10.0), 2.0, 6.0, 13).exterior().clone();
    let region = PreparedGeometry::new(Polygon::new(ring.clone(), Vec::new()).unwrap().into());
    let probes: Vec<Coord> = ring.coords().iter().copied().chain([coord(10.0, 10.0)]).collect();
    let _ = take_kernel_counters();
    for &p in &probes {
        let point = PreparedGeometry::new(Point::new(p).unwrap().into());
        let _ = region.relate_to(&point);
    }
    let k = take_kernel_counters();
    assert!(k.quant_cells_resolved > 0, "interior probe must resolve on the grid");
    assert!(k.quant_fallback_exact >= ring.num_points() as u64, "vertex probes must fall back");
    assert_eq!(k.simd_fallback_exact, k.quant_fallback_exact);
}

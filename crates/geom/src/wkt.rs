//! Well-Known Text (WKT) reading and writing.
//!
//! Supports the geometry types of this crate: `POINT`, `MULTIPOINT`,
//! `LINESTRING`, `MULTILINESTRING`, `POLYGON`, `MULTIPOLYGON`. Both
//! multipoint conventions are accepted (`MULTIPOINT (1 2, 3 4)` and
//! `MULTIPOINT ((1 2), (3 4))`). Parsed geometries pass full validation
//! (ring closure, simplicity, hole containment, …).

use crate::coord::Coord;
use crate::error::{GeomError, GeomResult};
use crate::geometry::Geometry;
use crate::linestring::{LineString, MultiLineString};
use crate::point::{MultiPoint, Point};
use crate::polygon::{MultiPolygon, Polygon, Ring};
use std::fmt::Write as _;

/// Serialises a geometry to WKT.
pub fn to_wkt(g: &Geometry) -> String {
    let mut s = String::new();
    match g {
        Geometry::Point(p) => {
            write!(s, "POINT ({})", fmt_coord(p.coord())).expect("string write")
        }
        Geometry::MultiPoint(mp) => {
            s.push_str("MULTIPOINT (");
            push_join(&mut s, mp.coords().iter().map(|&c| format!("({})", fmt_coord(c))));
            s.push(')');
        }
        Geometry::LineString(l) => {
            s.push_str("LINESTRING ");
            push_coord_list(&mut s, l.coords());
        }
        Geometry::MultiLineString(ml) => {
            s.push_str("MULTILINESTRING (");
            let parts: Vec<String> = ml
                .lines()
                .iter()
                .map(|l| {
                    let mut t = String::new();
                    push_coord_list(&mut t, l.coords());
                    t
                })
                .collect();
            push_join(&mut s, parts.into_iter());
            s.push(')');
        }
        Geometry::Polygon(p) => {
            s.push_str("POLYGON ");
            push_polygon_body(&mut s, p);
        }
        Geometry::MultiPolygon(mp) => {
            s.push_str("MULTIPOLYGON (");
            let parts: Vec<String> = mp
                .polygons()
                .iter()
                .map(|p| {
                    let mut t = String::new();
                    push_polygon_body(&mut t, p);
                    t
                })
                .collect();
            push_join(&mut s, parts.into_iter());
            s.push(')');
        }
    }
    s
}

fn fmt_coord(c: Coord) -> String {
    format!("{} {}", c.x, c.y)
}

fn push_join<I: Iterator<Item = String>>(s: &mut String, mut items: I) {
    if let Some(first) = items.next() {
        s.push_str(&first);
    }
    for item in items {
        s.push_str(", ");
        s.push_str(&item);
    }
}

fn push_coord_list(s: &mut String, coords: &[Coord]) {
    s.push('(');
    push_join(s, coords.iter().map(|&c| fmt_coord(c)));
    s.push(')');
}

fn push_ring(s: &mut String, r: &Ring) {
    // WKT rings repeat the first coordinate at the end.
    s.push('(');
    push_join(
        s,
        r.coords()
            .iter()
            .chain(std::iter::once(&r.coords()[0]))
            .map(|&c| fmt_coord(c)),
    );
    s.push(')');
}

fn push_polygon_body(s: &mut String, p: &Polygon) {
    s.push('(');
    push_ring(s, p.exterior());
    for h in p.holes() {
        s.push_str(", ");
        push_ring(s, h);
    }
    s.push(')');
}

/// Parses a WKT string into a geometry.
pub fn from_wkt(input: &str) -> GeomResult<Geometry> {
    let mut p = Parser { input: input.as_bytes(), pos: 0 };
    let g = p.parse_geometry()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters after geometry"));
    }
    Ok(g)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> GeomError {
        GeomError::WktParse { position: self.pos, message: message.to_string() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> GeomResult<()> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn accept(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn keyword(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.input[start..self.pos]).to_ascii_uppercase()
    }

    fn number(&mut self) -> GeomResult<f64> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() {
            let b = self.input[self.pos];
            if b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        let value = std::str::from_utf8(&self.input[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| self.err("invalid number"))?;
        // Reject overflowed literals like `1e400` here, before any
        // geometry is built: every constructor validates finiteness too,
        // but the tokenizer is the one place that sees every coordinate
        // of every geometry kind.
        if !value.is_finite() {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(value)
    }

    fn coord(&mut self) -> GeomResult<Coord> {
        let x = self.number()?;
        let y = self.number()?;
        Ok(Coord::new(x, y))
    }

    /// `( c, c, ... )`
    fn coord_list(&mut self) -> GeomResult<Vec<Coord>> {
        self.expect(b'(')?;
        let mut out = vec![self.coord()?];
        while self.accept(b',') {
            out.push(self.coord()?);
        }
        self.expect(b')')?;
        Ok(out)
    }

    /// `( ring, ring, ... )` where each ring is a coord list.
    fn ring_list(&mut self) -> GeomResult<Vec<Vec<Coord>>> {
        self.expect(b'(')?;
        let mut out = vec![self.coord_list()?];
        while self.accept(b',') {
            out.push(self.coord_list()?);
        }
        self.expect(b')')?;
        Ok(out)
    }

    fn parse_geometry(&mut self) -> GeomResult<Geometry> {
        let kw = self.keyword();
        match kw.as_str() {
            "POINT" => {
                self.expect(b'(')?;
                let c = self.coord()?;
                self.expect(b')')?;
                Ok(Point::new(c)?.into())
            }
            "MULTIPOINT" => {
                self.expect(b'(')?;
                let mut coords = Vec::new();
                loop {
                    // Accept both `(x y)` and bare `x y` items.
                    if self.accept(b'(') {
                        coords.push(self.coord()?);
                        self.expect(b')')?;
                    } else {
                        coords.push(self.coord()?);
                    }
                    if !self.accept(b',') {
                        break;
                    }
                }
                self.expect(b')')?;
                Ok(MultiPoint::new(coords)?.into())
            }
            "LINESTRING" => Ok(LineString::new(self.coord_list()?)?.into()),
            "MULTILINESTRING" => {
                let lists = self.ring_list()?;
                let lines = lists
                    .into_iter()
                    .map(LineString::new)
                    .collect::<GeomResult<Vec<_>>>()?;
                Ok(MultiLineString::new(lines)?.into())
            }
            "POLYGON" => {
                let rings = self.ring_list()?;
                Ok(polygon_from_rings(rings)?.into())
            }
            "MULTIPOLYGON" => {
                self.expect(b'(')?;
                let mut polys = Vec::new();
                loop {
                    let rings = self.ring_list()?;
                    polys.push(polygon_from_rings(rings)?);
                    if !self.accept(b',') {
                        break;
                    }
                }
                self.expect(b')')?;
                Ok(MultiPolygon::new(polys)?.into())
            }
            other => Err(self.err(&format!("unknown geometry type {other:?}"))),
        }
    }
}

fn polygon_from_rings(mut rings: Vec<Vec<Coord>>) -> GeomResult<Polygon> {
    let shell = Ring::new(rings.remove(0))?;
    let holes = rings.into_iter().map(Ring::new).collect::<GeomResult<Vec<_>>>()?;
    Polygon::new(shell, holes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;

    fn roundtrip(wkt: &str) -> String {
        to_wkt(&from_wkt(wkt).unwrap())
    }

    #[test]
    fn point_roundtrip() {
        assert_eq!(roundtrip("POINT (1 2)"), "POINT (1 2)");
        assert_eq!(roundtrip("POINT(1.5 -2.25)"), "POINT (1.5 -2.25)");
        assert_eq!(roundtrip("  POINT  ( 1e2   2E-1 ) "), "POINT (100 0.2)");
    }

    #[test]
    fn multipoint_both_conventions() {
        assert_eq!(roundtrip("MULTIPOINT ((1 2), (3 4))"), "MULTIPOINT ((1 2), (3 4))");
        assert_eq!(roundtrip("MULTIPOINT (1 2, 3 4)"), "MULTIPOINT ((1 2), (3 4))");
    }

    #[test]
    fn linestring_roundtrip() {
        assert_eq!(
            roundtrip("LINESTRING (0 0, 1 0, 1 1)"),
            "LINESTRING (0 0, 1 0, 1 1)"
        );
    }

    #[test]
    fn nested_hole_is_rejected() {
        let wkt = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2), \
                   (4 4, 6 4, 6 6, 4 6, 4 4))";
        assert_eq!(from_wkt(wkt), Err(GeomError::NestedHole { outer: 0, inner: 1 }));
    }

    #[test]
    fn multilinestring_roundtrip() {
        assert_eq!(
            roundtrip("MULTILINESTRING ((0 0, 1 0), (5 5, 6 6))"),
            "MULTILINESTRING ((0 0, 1 0), (5 5, 6 6))"
        );
    }

    #[test]
    fn polygon_roundtrip_with_hole() {
        let wkt = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))";
        let g = from_wkt(wkt).unwrap();
        match &g {
            Geometry::Polygon(p) => {
                assert_eq!(p.holes().len(), 1);
                assert_eq!(p.area(), 96.0);
            }
            _ => panic!("expected polygon"),
        }
        // Re-parse our own output.
        assert_eq!(from_wkt(&to_wkt(&g)).unwrap(), g);
    }

    #[test]
    fn multipolygon_roundtrip() {
        let wkt = "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))";
        let g = from_wkt(wkt).unwrap();
        assert_eq!(from_wkt(&to_wkt(&g)).unwrap(), g);
        assert_eq!(g.area(), 2.0);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(from_wkt("BLOB (1 2)"), Err(GeomError::WktParse { .. })));
        assert!(matches!(from_wkt("POINT (1)"), Err(GeomError::WktParse { .. })));
        assert!(matches!(from_wkt("POINT (1 2"), Err(GeomError::WktParse { .. })));
        assert!(matches!(from_wkt("POINT (1 2) junk"), Err(GeomError::WktParse { .. })));
        assert!(matches!(from_wkt(""), Err(GeomError::WktParse { .. })));
        // Validation errors propagate.
        assert!(matches!(
            from_wkt("LINESTRING (0 0)"),
            Err(GeomError::WktParse { .. }) | Err(GeomError::TooFewPoints { .. })
        ));
        assert!(matches!(
            from_wkt("POLYGON ((0 0, 1 1, 2 2, 0 0))"),
            Err(GeomError::DegenerateRing)
        ));
    }

    #[test]
    fn non_finite_literals_rejected() {
        // `1e400` overflows f64 to +inf; the tokenizer must reject it for
        // every geometry kind, not just the ones whose constructors
        // re-validate.
        assert_eq!(from_wkt("POINT (1e400 0)"), Err(GeomError::NonFiniteCoordinate));
        assert_eq!(from_wkt("POINT (0 -1e999)"), Err(GeomError::NonFiniteCoordinate));
        assert_eq!(
            from_wkt("LINESTRING (0 0, 1e400 1)"),
            Err(GeomError::NonFiniteCoordinate)
        );
        assert_eq!(
            from_wkt("POLYGON ((0 0, 1 0, 1e309 1, 0 0))"),
            Err(GeomError::NonFiniteCoordinate)
        );
    }

    #[test]
    fn ring_closure_in_output() {
        let g = Geometry::Polygon(Polygon::rect(coord(0.0, 0.0), coord(1.0, 1.0)).unwrap());
        let wkt = to_wkt(&g);
        assert_eq!(wkt, "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
    }
}

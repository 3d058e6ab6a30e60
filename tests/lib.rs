//! Helpers shared by the integration tests.

use geopattern_geom::{coord, Quantizer, Rect};

/// How [`gpb_v1_to_v2`] ends each layer body.
#[derive(Debug, Clone, Copy)]
pub enum V2Column {
    /// `has_quant = 0`: no column.
    Absent,
    /// `has_quant = 1` with the column earlier writers produced: a
    /// quantizer sized from the layer's coordinate bounding box and the
    /// delta-encoded grid coordinates. Layers without coordinates (or
    /// with coordinates that refuse to snap) get `has_quant = 0`, as they
    /// did from those writers.
    Quantized,
    /// `has_quant = 1` with the given quantizer header `(x0, y0, cell)`
    /// and zero deltas: for corrupt-header cases.
    Header(f64, f64, f64),
    /// Only this flag byte: for corrupt-flag cases.
    Flag(u8),
}

/// Rewrites version-1 `.gpb` bytes (what `to_gpb` writes) as the
/// version-2 layout earlier builds wrote: the version word becomes 2 and
/// every layer body gains a trailing quantized-coordinate column, with
/// each directory record's body length adjusted to match.
///
/// Panics on input that is not well-formed version-1 bytes.
pub fn gpb_v1_to_v2(v1: &[u8], column: V2Column) -> Vec<u8> {
    let mut cur = Bytes { data: v1, at: 0 };
    assert_eq!(cur.take(4), b"GPB1", "not a gpb buffer");
    assert_eq!(cur.u32(), 1, "not a version-1 gpb buffer");
    let mut out = b"GPB1".to_vec();
    out.extend_from_slice(&2u32.to_le_bytes());
    let header_start = cur.at;
    for _ in 0..cur.u32() {
        let len = cur.u32() as usize;
        cur.take(len);
    }
    let n_layers = cur.u32();
    out.extend_from_slice(&v1[header_start..cur.at]);
    for _ in 0..n_layers {
        out.extend_from_slice(cur.take(5)); // name id, is_reference
        let body_len = cur.u64() as usize;
        let mut body = cur.take(body_len).to_vec();
        body.extend(quant_column(&body, column));
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&body);
    }
    assert_eq!(cur.at, v1.len(), "trailing bytes after the last layer");
    out
}

/// The version-2 column for one version-1 layer body.
fn quant_column(body: &[u8], column: V2Column) -> Vec<u8> {
    let (xs, ys) = layer_coords(body);
    let mut out = Vec::new();
    match column {
        V2Column::Absent => out.push(0),
        V2Column::Flag(flag) => out.push(flag),
        V2Column::Header(x0, y0, cell) => {
            out.push(1);
            for v in [x0, y0, cell] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.resize(out.len() + 8 * xs.len(), 0);
        }
        V2Column::Quantized => match quantize(&xs, &ys) {
            None => out.push(0),
            Some((qz, qx, qy)) => {
                out.push(1);
                let (x0, y0) = qz.origin();
                for v in [x0, y0, qz.cell()] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                for col in [qx, qy] {
                    let mut prev = 0i32;
                    for v in col {
                        out.extend_from_slice(&v.wrapping_sub(prev).to_le_bytes());
                        prev = v;
                    }
                }
            }
        },
    }
    out
}

/// Snaps a layer's coordinates onto a grid sized from their bounding box.
fn quantize(xs: &[f64], ys: &[f64]) -> Option<(Quantizer, Vec<i32>, Vec<i32>)> {
    if xs.is_empty() {
        return None;
    }
    let bounds = |vs: &[f64]| {
        vs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
    };
    let ((min_x, max_x), (min_y, max_y)) = (bounds(xs), bounds(ys));
    let qz = Quantizer::for_rect(&Rect { min: coord(min_x, min_y), max: coord(max_x, max_y) });
    let (mut qx, mut qy) = (Vec::with_capacity(xs.len()), Vec::with_capacity(ys.len()));
    for (&x, &y) in xs.iter().zip(ys) {
        let (gx, gy) = qz.quantize(coord(x, y))?;
        qx.push(gx);
        qy.push(gy);
    }
    Some((qz, qx, qy))
}

/// The columnar coordinates at the end of a version-1 layer body, found
/// by stepping over its feature records.
fn layer_coords(body: &[u8]) -> (Vec<f64>, Vec<f64>) {
    let mut cur = Bytes { data: body, at: 0 };
    for _ in 0..cur.u32() {
        let id_len = cur.u32() as usize;
        cur.take(id_len + 32); // id, envelope
        match cur.take(1)[0] {
            1 => {} // point
            2 | 3 => {
                cur.u32(); // multipoint, linestring: coord count
            }
            4 | 5 => {
                // multilinestring, polygon: part or ring lengths
                let parts = cur.u32() as usize;
                cur.take(4 * parts);
            }
            6 => {
                // multipolygon: ring lengths per polygon
                for _ in 0..cur.u32() {
                    let rings = cur.u32() as usize;
                    cur.take(4 * rings);
                }
            }
            tag => panic!("unknown geometry tag {tag}"),
        }
        let n_attrs = cur.u32() as usize;
        cur.take(8 * n_attrs);
    }
    let n = cur.u64() as usize;
    let read = |cur: &mut Bytes<'_>| -> Vec<f64> {
        (0..n).map(|_| f64::from_le_bytes(cur.take(8).try_into().unwrap())).collect()
    };
    let xs = read(&mut cur);
    let ys = read(&mut cur);
    assert_eq!(cur.at, body.len(), "layer body does not end with its coordinates");
    (xs, ys)
}

/// A little-endian reader over well-formed bytes.
struct Bytes<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Bytes<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.data[self.at..self.at + n];
        self.at += n;
        s
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }
}

//! Version-2 `.gpb` compatibility.
//!
//! Earlier builds wrote version-2 files whose layer bodies end in a
//! quantized copy of the coordinates. The writer now emits version 1
//! only, but the reader must keep opening those files: it validates the
//! column's flag and quantizer header and skips the rest. The version-2
//! bytes here are rebuilt from version-1 bytes by the shared
//! [`gpb_v1_to_v2`] builder, in both the `has_quant = 0` and
//! `has_quant = 1` forms.

use geopattern::{from_gpb, to_gpb, SpatialDataset};
use geopattern_datagen::{generate_city, CityConfig};
use geopattern_geom::{coord, from_wkt, Rect};
use geopattern_integration::{gpb_v1_to_v2, V2Column};
use geopattern_sdb::{Feature, GpbError, GpbReader, Layer};

/// One layer of every geometry class, so the builder steps over every
/// feature-record shape.
fn all_classes() -> SpatialDataset {
    let wkts = [
        ("p", "POINT (3 4)"),
        ("mp", "MULTIPOINT ((1 1), (2 3), (0 0))"),
        ("ls", "LINESTRING (0 0, 5 5, 10 0)"),
        ("mls", "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 2))"),
        ("poly", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))"),
        ("mpoly", "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 7 5, 7 7, 5 7, 5 5)))"),
    ];
    let reference = Layer::new(
        "district",
        vec![Feature::new("D1", from_wkt("POLYGON ((0 0, 20 0, 20 20, 0 20, 0 0))").unwrap())
            .with_attribute("zone", "north")],
    );
    let zoo = Layer::new(
        "zoo",
        wkts.iter().map(|(id, wkt)| Feature::new(*id, from_wkt(wkt).unwrap())).collect(),
    );
    let empty = Layer::new("empty", Vec::new());
    SpatialDataset::new(reference, vec![zoo, empty])
}

#[test]
fn v2_bytes_decode_to_the_same_dataset() {
    let city = generate_city(&CityConfig { grid: 4, seed: 3, ..Default::default() });
    let window = Rect::new(coord(2.0, 2.0), coord(30.0, 30.0));
    for ds in [all_classes(), city] {
        let v1 = to_gpb(&ds);
        let v1_reader = GpbReader::open(&v1).unwrap();
        for column in [V2Column::Absent, V2Column::Quantized] {
            let v2 = gpb_v1_to_v2(&v1, column);
            assert!(v2.len() > v1.len(), "{column:?}: no column appended");
            let reader = GpbReader::open(&v2).unwrap();
            assert_eq!(reader.version(), 2);
            let back = from_gpb(&v2).unwrap_or_else(|e| panic!("{column:?}: {e}"));
            assert_eq!(back.to_text(), ds.to_text(), "{column:?}: dataset differs");
            // Re-encoding writes the version-1 bytes again.
            assert_eq!(to_gpb(&back), v1, "{column:?}: re-encoding differs");
            // The streaming paths skip the column too.
            for i in 0..reader.num_layers() {
                let full = reader.read_layer(i).unwrap();
                let windowed = reader.read_layer_window(i, &window).unwrap();
                assert_eq!(full.features(), v1_reader.read_layer(i).unwrap().features());
                assert_eq!(
                    windowed.features(),
                    v1_reader.read_layer_window(i, &window).unwrap().features()
                );
            }
        }
    }
}

#[test]
fn bad_quantizer_header_is_malformed() {
    let v1 = to_gpb(&all_classes());
    for (x0, y0, cell) in [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, -1.0),
        (0.0, 0.0, f64::INFINITY),
        (f64::NAN, 0.0, 1.0),
        (0.0, f64::NEG_INFINITY, 1.0),
    ] {
        let v2 = gpb_v1_to_v2(&v1, V2Column::Header(x0, y0, cell));
        let err = from_gpb(&v2).expect_err("poisoned quantizer header must be rejected");
        assert!(matches!(err, GpbError::Malformed { .. }), "({x0}, {y0}, {cell}): {err}");
        // Every layer carries the poisoned header, so the streaming read
        // rejects each one.
        let reader = GpbReader::open(&v2).unwrap();
        for i in 0..reader.num_layers() {
            let err = reader.read_layer(i).expect_err("layer read must fail");
            assert!(matches!(err, GpbError::Malformed { .. }), "layer {i}: {err}");
        }
    }
    // A valid header with zero deltas is a well-formed column.
    let v2 = gpb_v1_to_v2(&v1, V2Column::Header(0.0, 0.0, 1.0));
    assert_eq!(from_gpb(&v2).unwrap().to_text(), all_classes().to_text());
}

#[test]
fn bad_quant_flag_is_malformed() {
    let v1 = to_gpb(&all_classes());
    for flag in [2u8, 0x7f, 0xff] {
        let v2 = gpb_v1_to_v2(&v1, V2Column::Flag(flag));
        let err = from_gpb(&v2).expect_err("unknown quant-column flag must be rejected");
        assert!(matches!(err, GpbError::Malformed { .. }), "flag {flag}: {err}");
    }
}

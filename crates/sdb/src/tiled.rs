//! Tiled (sharded) predicate extraction.
//!
//! [`extract_tiled`] shards extraction over a [`TileGrid`] covering the
//! reference layer's envelope, instead of one flat work list over the
//! rows. Each tile **owns** the reference rows whose envelope *center*
//! falls inside it — the grid's canonical owner rule, a pure function of
//! coordinates, so every row has exactly one owner and no boundary pair
//! is ever processed twice. Tiles run on the worker pool; each extracts
//! its owned rows serially with the same per-row kernel as the flat path.
//!
//! Relevant layers are prepared **once**, by the same
//! [`prepare_layers`](crate::extract::prepare_layers) call the flat path
//! uses (self-join memo included), and shared read-only by every tile —
//! a row's candidate queries hit the full layer's R-tree either way, so
//! sharding adds no per-tile preparation work and cannot change any
//! row's candidate set. The per-tile row batches are then placed back
//! into **global row order** and merged by the same row-order interning
//! the flat path uses, which is why the resulting table — predicate
//! numbering included — is bit-identical to
//! [`Tiling::Flat`](crate::extract::Tiling::Flat) at any tile size and
//! thread count.
//!
//! The tile is the unit of *scheduling, accounting and checkpointing*:
//!
//! * each tile's **reach** — the union envelope of its owned rows,
//!   buffered by the largest bounded distance band — bounds the features
//!   any of its rows can query, i.e. the working set an out-of-core run
//!   would stream for it (via `GpbReader::read_layer_window`). That
//!   footprint is counted (`extract.tile_sub_features`) and reserved
//!   against the config's [`MemoryBudget`] (track-only) while the tile
//!   runs, so the tiled path's working-set high-water mark is observable.
//!   When the distance/direction path needs a **full scan** (open-ended
//!   distance band, or direction predicates on), a tile's reach is the
//!   whole layer and nothing tile-local is counted;
//! * each tile checks the config's [`CancelToken`] between rows (and
//!   inside rows, like the flat path), and the deterministic fail point
//!   `sdb/extract.tile` fires at tile starts;
//! * a configured [`Journal`](geopattern_par::Journal) is the checkpoint:
//!   exactly the tiles that completed all their rows un-interrupted have
//!   their rows (predicates, stats, and footprint) appended the moment the
//!   tile finishes, and a tile already present in the journal is decoded and returned
//!   instead of re-extracted (`robust/resume_tiles_skipped` counts them).
//!   Because the merge below consumes per-tile batches in global row
//!   order either way, a resumed run's table — predicate numbering
//!   included — is bit-identical to an uninterrupted one at any thread
//!   count. A journaled tile whose payload fails to decode (torn or
//!   corrupted beyond the journal's own frame checks) is re-extracted.

use crate::extract::{
    extract_row, merge_batches, prepare_layers, ExtractionConfig, ExtractionStats, PreparedLayer,
    RowBatch,
};
use crate::feature::Layer;
use crate::journal_codec::{self as codec, Reader};
use crate::predicate_table::PredicateTable;
use geopattern_geom::{Geometry, Rect, TileGrid};
use geopattern_obs::Metrics;
use geopattern_par::{try_par_map, Interrupt};
use std::sync::atomic::{AtomicU64, Ordering};

/// Journal record kind for one completed tile.
pub(crate) const TILE_KIND: &str = "extract/tile";

/// One tile's plan: the reference rows it owns (ascending) and their
/// union envelope.
struct TileTask {
    rows: Vec<u32>,
    envelope: Rect,
}

/// One tile's output: per-owned-row batches (ascending by row), plus the
/// tile's working-set footprint for metrics.
struct TileBatch {
    batches: Vec<(u32, RowBatch)>,
    /// Features inside the tile's reach (0 when layers are full-scanned).
    sub_features: usize,
}

/// Sharded extraction over an `n × n` tile grid. Output is bit-identical
/// to the flat path; see the module docs for the argument.
pub(crate) fn extract_tiled(
    reference: &Layer,
    relevant: &[&Layer],
    config: &ExtractionConfig,
    tiles_per_axis: usize,
) -> Result<(PredicateTable, ExtractionStats), Interrupt> {
    let recorder = &config.recorder;
    let cancel = &config.cancel;
    let _extract_span = recorder.span("extract");
    let window = config.bounded_window();
    let record = recorder.is_enabled();
    // Open-ended distance bands and direction predicates scan whole
    // layers, so no tile-local working set can stand in for them.
    let full_scan = (config.distance.is_some() || config.direction) && window.is_none();
    let buffer = window.unwrap_or(0.0);

    let tasks: Vec<TileTask> = {
        let _plan_span = recorder.span("plan");
        let grid = TileGrid::new(reference.envelope(), tiles_per_axis);
        let mut tasks: Vec<TileTask> = (0..grid.len())
            .map(|_| TileTask { rows: Vec::new(), envelope: Rect::EMPTY })
            .collect();
        // Rows arrive in ascending order, so each tile's list is sorted.
        for (row, feature) in reference.features().iter().enumerate() {
            let envelope = feature.envelope();
            let task = &mut tasks[grid.tile_index(envelope.center())];
            task.rows.push(row as u32);
            task.envelope = task.envelope.union(&envelope);
        }
        recorder.counter("extract.tiles", grid.len() as u64);
        recorder.counter(
            "extract.tiles_occupied",
            tasks.iter().filter(|t| !t.rows.is_empty()).count() as u64,
        );
        tasks
    };

    // One shared prepared set — exactly the flat path's.
    let layers = {
        let _prepare_span = recorder.span("prepare");
        prepare_layers(reference, relevant, config, window, record)?
    };

    let resumed = AtomicU64::new(0);
    let tile_batches = {
        let _tiles_span = recorder.span("tiles");
        try_par_map(config.threads, cancel, "extract/tiles", &tasks, |tile, task| {
            // A journaled tile is reloaded, not re-extracted — and skips
            // the fail point: the unit already completed in a past run.
            if let Some(journal) = &config.journal {
                if let Some(payload) = journal.lookup(TILE_KIND, tile as u64) {
                    if let Some(batch) = decode_tile(&payload, task) {
                        resumed.fetch_add(1, Ordering::Relaxed);
                        return batch;
                    }
                }
            }
            if geopattern_testkit::failpoint::trigger("sdb/extract.tile") {
                cancel.cancel();
            }
            let batch = extract_one_tile(task, reference, &layers, config, full_scan, buffer, record);
            // A tile whose row loop was cut short must not checkpoint.
            if !cancel.interrupted() {
                if let Some(journal) = &config.journal {
                    // Best-effort: a full disk must not fail the run — the
                    // tile simply isn't resumable.
                    let _ = journal.append(TILE_KIND, tile as u64, &encode_tile(&batch));
                }
            }
            batch
        })?
    };
    if config.journal.is_some() {
        recorder.counter("robust/resume_tiles_skipped", resumed.load(Ordering::Relaxed));
    }

    let _merge_span = recorder.span("merge");
    // Re-order per-tile batches into global row order: every row was
    // owned by exactly one tile, so the slots fill exactly once.
    let mut slots: Vec<Option<RowBatch>> = Vec::with_capacity(reference.len());
    slots.resize_with(reference.len(), || None);
    for tile_batch in tile_batches {
        recorder.record("extract.tile_rows", tile_batch.batches.len() as u64);
        recorder.counter("extract.tile_sub_features", tile_batch.sub_features as u64);
        for (row, batch) in tile_batch.batches {
            let slot = &mut slots[row as usize];
            debug_assert!(slot.is_none(), "row {row} produced by two tiles");
            *slot = Some(batch);
        }
    }
    let rows = reference
        .features()
        .iter()
        .zip(slots.into_iter().map(|s| s.expect("every row is owned by exactly one tile")));
    Ok(merge_batches(rows, recorder))
}

fn extract_one_tile(
    task: &TileTask,
    reference: &Layer,
    layers: &[PreparedLayer],
    config: &ExtractionConfig,
    full_scan: bool,
    buffer: f64,
    record: bool,
) -> TileBatch {
    if task.rows.is_empty() {
        return TileBatch { batches: Vec::new(), sub_features: 0 };
    }
    let cancel = &config.cancel;
    // The tile's reach: no candidate query of an owned row — envelope
    // prefilter or buffered window — can return a feature outside it.
    // Size the working set an out-of-core run would stream for this tile
    // and hold the reservation while the tile's rows extract.
    let (sub_features, sub_bytes) = if full_scan {
        (0, 0)
    } else {
        let reach = task.envelope.buffered(buffer);
        layers
            .iter()
            .map(|pl| {
                let keep = pl.layer.query_envelope(&reach);
                let bytes: usize =
                    keep.iter().map(|&i| feature_bytes(&pl.layer.features()[i])).sum();
                (keep.len(), bytes)
            })
            .fold((0, 0), |(f, b), (kf, kb)| (f + kf, b + kb))
    };
    let reserved = sub_bytes > 0 && {
        let _ = config.budget.reserve(sub_bytes);
        true
    };

    let mut batches = Vec::with_capacity(task.rows.len());
    for &row in &task.rows {
        if cancel.interrupted() {
            break;
        }
        let feature = &reference.features()[row as usize];
        batches.push((row, extract_row(row as usize, feature, layers, config, record)));
    }

    if reserved {
        config.budget.release(sub_bytes);
    }
    TileBatch { batches, sub_features }
}

/// Encodes one completed tile for the journal: its footprint plus every
/// owned row's predicates and stats, in row order.
fn encode_tile(batch: &TileBatch) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u64(&mut out, batch.sub_features as u64);
    codec::put_u32(&mut out, batch.batches.len() as u32);
    for (row, rb) in &batch.batches {
        codec::put_u32(&mut out, *row);
        codec::put_u64(&mut out, rb.stats.candidate_pairs as u64);
        codec::put_u64(&mut out, rb.stats.pruned_pairs as u64);
        codec::put_u64(&mut out, rb.stats.spatial_predicates as u64);
        codec::put_u32(&mut out, rb.predicates.len() as u32);
        for p in &rb.predicates {
            codec::put_predicate(&mut out, p);
        }
    }
    out
}

/// Decodes a journaled tile, validating that it covers exactly the rows
/// `task` owns (in order). `None` — re-extract — on any mismatch or
/// malformed byte. Resumed rows carry empty [`Metrics`]: per-row
/// histograms and kernel counters describe work that was *not redone*;
/// the table and stats are what bit-identity is defined over.
fn decode_tile(payload: &[u8], task: &TileTask) -> Option<TileBatch> {
    let mut r = Reader::new(payload);
    let sub_features = r.take_u64()? as usize;
    let rows = r.take_u32()? as usize;
    if rows != task.rows.len() {
        return None;
    }
    let mut batches = Vec::with_capacity(rows);
    for &expected_row in &task.rows {
        let row = r.take_u32()?;
        if row != expected_row {
            return None;
        }
        let stats = ExtractionStats {
            candidate_pairs: r.take_u64()? as usize,
            pruned_pairs: r.take_u64()? as usize,
            spatial_predicates: r.take_u64()? as usize,
        };
        let npred = r.take_u32()? as usize;
        let mut predicates = Vec::with_capacity(npred.min(payload.len()));
        for _ in 0..npred {
            predicates.push(codec::take_predicate(&mut r)?);
        }
        batches.push((row, RowBatch { predicates, stats, metrics: Metrics::new() }));
    }
    r.done().then_some(TileBatch { batches, sub_features })
}

/// Rough heap footprint of one feature (coordinates dominate), for
/// track-only budget accounting of tile working sets.
fn feature_bytes(f: &crate::feature::Feature) -> usize {
    const COORD: usize = std::mem::size_of::<f64>() * 2;
    let coords = match &f.geometry {
        Geometry::Point(_) => 1,
        Geometry::MultiPoint(mp) => mp.coords().len(),
        Geometry::LineString(ls) => ls.coords().len(),
        Geometry::MultiLineString(mls) => mls.lines().iter().map(|l| l.coords().len()).sum(),
        Geometry::Polygon(p) => p.rings().map(|r| r.coords().len()).sum::<usize>(),
        Geometry::MultiPolygon(mp) => mp
            .polygons()
            .iter()
            .flat_map(|p| p.rings())
            .map(|r| r.coords().len())
            .sum(),
    };
    let attrs: usize = f.attributes.iter().map(|(k, v)| k.len() + v.len() + 64).sum();
    coords * COORD + f.id.len() + attrs + 96
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_predicates, Tiling};
    use crate::feature::Feature;
    use geopattern_geom::{coord, Point, Polygon};
    use geopattern_obs::Recorder;
    use geopattern_par::{CancelToken, Journal, MemoryBudget, Threads};
    use geopattern_qsr::DistanceScheme;

    /// A 6×6 grid of districts with slums and schools scattered around,
    /// including features that straddle tile boundaries.
    fn scene() -> (Layer, Layer, Layer) {
        let mut districts = Vec::new();
        let mut slums = Vec::new();
        let mut schools = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let (x0, y0) = (i as f64 * 10.0, j as f64 * 10.0);
                districts.push(
                    Feature::new(
                        format!("d{i}_{j}"),
                        Polygon::rect(coord(x0, y0), coord(x0 + 10.0, y0 + 10.0))
                            .unwrap()
                            .into(),
                    )
                    .with_attribute("zone", if (i + j) % 2 == 0 { "core" } else { "rim" }),
                );
                if (i * 5 + j) % 3 == 0 {
                    // Straddles the shared corner of four districts.
                    slums.push(Feature::new(
                        format!("s{i}_{j}"),
                        Polygon::rect(coord(x0 + 7.0, y0 + 7.0), coord(x0 + 13.0, y0 + 13.0))
                            .unwrap()
                            .into(),
                    ));
                }
                if (i + 2 * j) % 4 == 0 {
                    schools.push(Feature::new(
                        format!("sc{i}_{j}"),
                        Point::xy(x0 + 5.0, y0 + 5.0).unwrap().into(),
                    ));
                }
            }
        }
        (
            Layer::new("district", districts),
            Layer::new("slum", slums),
            Layer::new("school", schools),
        )
    }

    fn assert_identical(config: &ExtractionConfig, relevant: &[&Layer], reference: &Layer) {
        let flat = extract_predicates(reference, relevant, config).unwrap();
        for tiles in [1usize, 2, 7] {
            for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
                let tiled_config = config
                    .clone()
                    .with_tiling(Tiling::Grid { tiles_per_axis: tiles })
                    .with_threads(threads);
                let tiled = extract_predicates(reference, relevant, &tiled_config).unwrap();
                assert_eq!(
                    tiled.0.predicates(),
                    flat.0.predicates(),
                    "{tiles} tiles, {threads:?}"
                );
                assert_eq!(tiled.0.rows(), flat.0.rows(), "{tiles} tiles, {threads:?}");
                assert_eq!(tiled.1, flat.1, "{tiles} tiles, {threads:?}");
            }
        }
    }

    #[test]
    fn tiled_topological_matches_flat() {
        let (districts, slums, schools) = scene();
        assert_identical(
            &ExtractionConfig::topological_only(),
            &[&slums, &schools],
            &districts,
        );
    }

    #[test]
    fn tiled_bounded_distance_matches_flat() {
        let (districts, slums, schools) = scene();
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::new(vec![("near", 6.0), ("mid", 18.0)]).unwrap());
        assert_identical(&config, &[&slums, &schools], &districts);
    }

    #[test]
    fn tiled_full_scan_paths_match_flat() {
        // Open-ended distance band + direction: tiles have no bounded
        // reach, tiling shards only the row loop.
        let (districts, slums, schools) = scene();
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::very_close_close_far(6.0, 18.0))
            .with_direction();
        assert_identical(&config, &[&slums, &schools], &districts);
    }

    #[test]
    fn tiled_self_join_matches_flat_with_memo() {
        // Both paths share `prepare_layers`, so the tiled path uses the
        // same self-join memo as the flat path. The tables and stats must
        // agree exactly.
        let (districts, _slums, _schools) = scene();
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::new(vec![("near", 12.0)]).unwrap());
        assert_identical(&config, &[&districts], &districts);
    }

    #[test]
    fn band_bound_exactly_at_buffer_edge_matches_flat() {
        // Reference at x∈[0,10]; a point at distance exactly 5.0 from its
        // right edge, with a one-band scheme bounded at 5.0. `classify`
        // uses an exclusive upper bound, so neither path may emit a
        // predicate — and the tile reach (buffered by exactly 5.0, closed
        // intersection) must still include the feature so the candidate
        // counts match.
        let districts = Layer::new(
            "district",
            vec![
                Feature::new(
                    "d0",
                    Polygon::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap().into(),
                ),
                Feature::new(
                    "d1",
                    Polygon::rect(coord(40.0, 0.0), coord(50.0, 10.0)).unwrap().into(),
                ),
            ],
        );
        let posts = Layer::new(
            "post",
            vec![Feature::new("p", Point::xy(15.0, 5.0).unwrap().into())],
        );
        let config = ExtractionConfig {
            topological: false,
            nonspatial_attributes: false,
            ..ExtractionConfig::default()
        }
        .with_distance(DistanceScheme::new(vec![("near", 5.0)]).unwrap());
        assert_identical(&config, &[&posts], &districts);
        let (_, stats) = extract_predicates(&districts, &[&posts], &config).unwrap();
        assert_eq!(stats.candidate_pairs, 1, "d0 window reaches the post exactly");
        assert_eq!(stats.spatial_predicates, 0, "exclusive bound: no band classifies");
    }

    #[test]
    fn tile_metrics_and_budget_are_tracked() {
        let (districts, slums, _schools) = scene();
        let rec = Recorder::new();
        let budget = MemoryBudget::bytes(64 * 1024 * 1024);
        let config = ExtractionConfig::topological_only()
            .with_tiling(Tiling::Grid { tiles_per_axis: 3 })
            .with_recorder(rec.clone())
            .with_budget(budget.clone());
        extract_predicates(&districts, &[&slums], &config).unwrap();
        let m = rec.snapshot();
        assert_eq!(m.counter("extract.tiles"), Some(9));
        assert_eq!(m.counter("extract.tiles_occupied"), Some(9));
        assert_eq!(m.histogram("extract.tile_rows").unwrap().count, 9);
        // Tile working sets were sized, reserved, and fully released.
        assert!(m.counter("extract.tile_sub_features").unwrap_or(0) > 0);
        assert!(budget.peak() > 0);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn shard_log_checkpoints_completed_tiles_only() {
        use geopattern_testkit::failpoint;
        let (districts, slums, _schools) = scene();
        let dir = std::env::temp_dir()
            .join(format!("geopattern-tile-checkpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let shards = |journal: &Journal| -> Vec<u64> {
            journal.records(TILE_KIND).into_iter().map(|(shard, _)| shard).collect()
        };

        // Un-interrupted run: every tile checkpoints.
        let journal = Journal::create(dir.join("clean.journal"), 3).unwrap();
        let config = ExtractionConfig::topological_only()
            .with_tiling(Tiling::Grid { tiles_per_axis: 2 })
            .with_journal(journal.clone());
        extract_predicates(&districts, &[&slums], &config).unwrap();
        assert_eq!(shards(&journal), vec![0, 1, 2, 3]);

        // Serial run cancelled by the fail point at the first tile's
        // start: the interrupted tile must not checkpoint, so the journal
        // stays empty, deterministically.
        let journal = Journal::create(dir.join("cancelled.journal"), 3).unwrap();
        failpoint::activate("sdb/extract.tile", failpoint::FailAction::Cancel, 1.0, 11);
        let err = extract_predicates(
            &districts,
            &[&slums],
            &ExtractionConfig::topological_only()
                .with_tiling(Tiling::Grid { tiles_per_axis: 2 })
                .with_journal(journal.clone())
                .with_cancel(CancelToken::new()),
        )
        .unwrap_err();
        failpoint::deactivate("sdb/extract.tile");
        assert_eq!(err, Interrupt::Cancelled);
        assert!(shards(&journal).is_empty(), "an interrupted tile must not checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_tiles_resume_bit_identical() {
        let (districts, slums, schools) = scene();
        let relevant = [&slums, &schools];
        let dir = std::env::temp_dir()
            .join(format!("geopattern-tile-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let control = extract_predicates(
            &districts,
            &relevant,
            &ExtractionConfig::topological_only()
                .with_tiling(Tiling::Grid { tiles_per_axis: 3 }),
        )
        .unwrap();

        // A completed run fills the journal with every tile.
        let full = Journal::create(dir.join("full.journal"), 7).unwrap();
        let config = ExtractionConfig::topological_only()
            .with_tiling(Tiling::Grid { tiles_per_axis: 3 })
            .with_journal(full.clone());
        let first = extract_predicates(&districts, &relevant, &config).unwrap();
        assert_eq!(first.0.rows(), control.0.rows());
        assert_eq!(full.records(TILE_KIND).len(), 9);

        // Simulate a crash that persisted only some tiles: copy a strict
        // subset of the records into a fresh journal, then resume from it
        // at several thread counts. Output must match the control exactly
        // and the journaled tiles must be skipped, not re-extracted.
        for keep in [1usize, 4, 9] {
            for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
                // Fresh partial journal per run: a resumed run back-fills
                // its journal, which would leak into the next iteration.
                let partial =
                    Journal::create(dir.join(format!("partial{keep}.journal")), 7).unwrap();
                for (shard, payload) in full.records(TILE_KIND).into_iter().take(keep) {
                    partial.append(TILE_KIND, shard, &payload).unwrap();
                }
                let rec = Recorder::new();
                let resumed = extract_predicates(
                    &districts,
                    &relevant,
                    &ExtractionConfig::topological_only()
                        .with_tiling(Tiling::Grid { tiles_per_axis: 3 })
                        .with_threads(threads)
                        .with_recorder(rec.clone())
                        .with_journal(partial.clone()),
                )
                .unwrap();
                assert_eq!(resumed.0.predicates(), control.0.predicates(), "{keep} {threads:?}");
                assert_eq!(resumed.0.rows(), control.0.rows(), "{keep} {threads:?}");
                assert_eq!(resumed.1, control.1, "{keep} {threads:?}");
                assert_eq!(
                    rec.snapshot().counter("robust/resume_tiles_skipped"),
                    Some(keep as u64),
                    "{keep} {threads:?}"
                );
                // The resumed run back-filled the journal to completion.
                assert_eq!(partial.records(TILE_KIND).len(), 9);
                // Counters derived from persisted stats still match.
                let m = rec.snapshot();
                assert_eq!(
                    m.counter("extract.candidate_pairs"),
                    Some(control.1.candidate_pairs as u64)
                );
            }
        }

        // A corrupt payload falls back to re-extraction, never a panic.
        let bad = Journal::create(dir.join("bad.journal"), 7).unwrap();
        bad.append(TILE_KIND, 0, b"definitely not a tile").unwrap();
        let rec = Recorder::new();
        let out = extract_predicates(
            &districts,
            &relevant,
            &ExtractionConfig::topological_only()
                .with_tiling(Tiling::Grid { tiles_per_axis: 3 })
                .with_recorder(rec.clone())
                .with_journal(bad),
        )
        .unwrap();
        assert_eq!(out.0.rows(), control.0.rows());
        assert_eq!(rec.snapshot().counter("robust/resume_tiles_skipped"), Some(0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_reference_layer_yields_empty_table() {
        let empty = Layer::new("district", Vec::new());
        let slums = Layer::new(
            "slum",
            vec![Feature::new(
                "s",
                Polygon::rect(coord(0.0, 0.0), coord(1.0, 1.0)).unwrap().into(),
            )],
        );
        let config = ExtractionConfig::topological_only()
            .with_tiling(Tiling::Grid { tiles_per_axis: 4 });
        let (table, stats) = extract_predicates(&empty, &[&slums], &config).unwrap();
        assert_eq!(table.num_rows(), 0);
        assert_eq!(stats, ExtractionStats::default());
    }
}

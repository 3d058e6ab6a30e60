//! The `geopattern` command-line interface.
//!
//! ```text
//! geopattern mine <dataset.gpd|.gpb> [--minsup 0.3] [--minconf 0.7]
//!                 [--algorithm apriori|kc|kc+|fpgrowth|fpgrowth-kc+|eclat|eclat-kc+]
//!                 [--counting prefix-trie|bitmap]
//!                 [--dep TYPE_A TYPE_B]... [--threads N|auto] [--itemsets] [--rules]
//!                 [--metrics json] [--timeout SECS] [--memory-budget BYTES]
//!                 [--tile-size N] [--format wkt|gpb|auto]
//!                 [--journal FILE] [--resume] [--max-retries N]
//! geopattern generate-city [--grid 6] [--seed 1] [--out city.gpd] [--format wkt|gpb]
//! geopattern relate <WKT_A> <WKT_B>
//! geopattern gain --t 2,2,2 --n 2
//! ```
//!
//! Dataset files use the text format of `geopattern_sdb::dataset` (see
//! `generate-city --out` for a sample) or the compact binary `.gpb`
//! format (`generate-city --format gpb`). `--format auto` (the default)
//! sniffs the `GPB1` magic. `--tile-size N` shards predicate extraction
//! over an `N × N` spatial tile grid; the mined patterns are
//! bit-identical to the flat (untiled) path.
//!
//! `--journal FILE` makes the run crash-safe: extraction tiles and mining
//! levels append durable records as they complete, and `--resume` reopens
//! the journal so a rerun skips everything already journaled — the
//! resumed output is bit-identical to an uninterrupted run. The journal
//! is fingerprinted over the output-affecting configuration; `--resume`
//! against a journal from a different configuration is a configuration
//! error (exit code 2). `--max-retries N` retries a run whose worker
//! panicked, with capped exponential backoff; each retry resumes from the
//! journal the failed attempt left behind.
//!
//! Exit codes: `0` success, `1` usage or I/O error, `2` invalid mining
//! configuration, `3` unusable data (e.g. empty reference layer), `4` run
//! cancelled or `--timeout` exceeded, `5` worker panic (isolated by the
//! pool; the process still exits cleanly), `6` retry budget exhausted.
//!
//! `GEOPATTERN_FAILPOINTS` (e.g. `mining/apriori.count=panic@1:42`)
//! activates deterministic fault-injection points for testing — see
//! `geopattern_testkit::failpoint`.

use geopattern::{
    atomic_write, fnv1a64, from_gpb, to_gpb, Algorithm, CancelToken, CountingStrategy,
    ExtractionConfig, JobRunner, Journal, KnowledgeBase, MemoryBudget, MiningPipeline, MinSupport,
    Recorder, SpatialDataset, Threads, Tiling,
};
use geopattern_datagen::{generate_city, CityConfig};
use geopattern_geom::from_wkt;
use geopattern_mining::minimal_gain;
use geopattern_qsr::{classify, topological_relation};
use std::process::ExitCode;

/// A CLI failure: message plus the process exit code to report.
struct CmdError {
    code: u8,
    msg: String,
}

impl From<String> for CmdError {
    fn from(msg: String) -> CmdError {
        CmdError { code: 1, msg }
    }
}

impl From<&str> for CmdError {
    fn from(msg: &str) -> CmdError {
        CmdError { code: 1, msg: msg.to_string() }
    }
}

impl From<geopattern::Error> for CmdError {
    fn from(e: geopattern::Error) -> CmdError {
        CmdError { code: e.exit_code() as u8, msg: e.to_string() }
    }
}

fn main() -> ExitCode {
    // Arm deterministic fault-injection points from the environment (a
    // no-op unless GEOPATTERN_FAILPOINTS is set — used by the test suite
    // to exercise the failure paths of a real process).
    if let Err(e) = geopattern_testkit::failpoint::activate_from_env() {
        eprintln!("error: GEOPATTERN_FAILPOINTS: {e}");
        return ExitCode::from(1);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("mine") => cmd_mine(&args[1..]),
        Some("generate-city") => cmd_generate_city(&args[1..]),
        Some("relate") => cmd_relate(&args[1..]),
        Some("gain") => cmd_gain(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try --help").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CmdError { code, msg }) => {
            eprintln!("error: {msg}");
            ExitCode::from(code)
        }
    }
}

fn print_usage() {
    println!(
        "geopattern — frequent geographic pattern mining with QSR filters\n\n\
         USAGE:\n  \
         geopattern mine <dataset.gpd|.gpb> [--minsup F] [--minconf F] [--algorithm A]\n                  \
         [--counting C] [--dep TYPE_A TYPE_B]... [--threads N|auto] [--itemsets]\n                  \
         [--rules] [--metrics json] [--timeout SECS] [--memory-budget BYTES]\n                  \
         [--tile-size N] [--format wkt|gpb|auto]\n                  \
         [--journal FILE] [--resume] [--max-retries N]\n  \
         geopattern generate-city [--grid N] [--seed S] [--out FILE] [--format wkt|gpb]\n  \
         geopattern relate <WKT_A> <WKT_B>\n  \
         geopattern gain --t T1,T2,... --n N\n\n\
         ALGORITHMS: apriori, kc, kc+ (default), fpgrowth, fpgrowth-kc+, eclat, eclat-kc+\n\
         COUNTING (Apriori variants): prefix-trie (default), bitmap — both produce\n            \
         identical itemsets; bitmap runs the vertical triangular-C2 engine\n\n\
         --format selects the dataset encoding: wkt text, gpb binary, or auto\n\
         (default; sniffs the GPB1 magic). --tile-size N shards extraction over an\n\
         N x N spatial tile grid — output is bit-identical to the flat path.\n\
         --metrics json dumps span timings / counters / histograms for the run as JSON\n\
         on stdout after the report (a partial report on interrupted runs).\n\
         --timeout SECS cancels the run at a deadline (exit code 4).\n\
         --memory-budget BYTES (suffixes k/m/g) degrades gracefully instead of failing:\n\
         Eclat / FP-Growth abandon over-budget branches (fewer itemsets, exact supports).\n\
         --journal FILE makes the run crash-safe (durable per-tile / per-level records);\n\
         --resume reopens the journal and skips everything already journaled, with\n\
         bit-identical output. --max-retries N retries worker panics with capped\n\
         exponential backoff; each retry resumes from the shared journal.\n\n\
         EXIT CODES: 0 ok, 1 usage or I/O error, 2 invalid configuration, 3 unusable data,\n             \
         4 cancelled or timed out, 5 worker panic, 6 retry budget exhausted"
    );
}

/// The canonical `--algorithm` names, listed when a name is rejected.
const ALGORITHM_NAMES: [&str; 7] =
    ["apriori", "kc", "kc+", "fpgrowth", "fpgrowth-kc+", "eclat", "eclat-kc+"];

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "apriori" => Algorithm::Apriori,
        "kc" | "apriori-kc" => Algorithm::AprioriKc,
        "kc+" | "apriori-kc+" => Algorithm::AprioriKcPlus,
        "fpgrowth" | "fp-growth" => Algorithm::FpGrowth,
        "fpgrowth-kc+" | "fp-growth-kc+" => Algorithm::FpGrowthKcPlus,
        "eclat" => Algorithm::Eclat,
        "eclat-kc+" => Algorithm::EclatKcPlus,
        other => {
            return Err(format!(
                "unknown algorithm {other:?} (expected one of: {})",
                ALGORITHM_NAMES.join(", ")
            ))
        }
    })
}

/// On-disk dataset encodings accepted by `mine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DatasetFormat {
    /// The line-oriented WKT text format (`.gpd`).
    Wkt,
    /// The compact binary format (`.gpb`).
    Gpb,
    /// Decide by sniffing the `GPB1` magic (the default).
    Auto,
}

impl DatasetFormat {
    fn parse(s: &str) -> Result<DatasetFormat, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "wkt" | "text" | "gpd" => DatasetFormat::Wkt,
            "gpb" | "binary" => DatasetFormat::Gpb,
            "auto" => DatasetFormat::Auto,
            other => return Err(format!("unknown --format {other:?} (supported: wkt, gpb, auto)")),
        })
    }
}

/// Loads a dataset from raw file contents, honouring `--format`.
fn load_dataset(path: &str, bytes: &[u8], format: DatasetFormat) -> Result<SpatialDataset, CmdError> {
    let binary = match format {
        DatasetFormat::Wkt => false,
        DatasetFormat::Gpb => true,
        DatasetFormat::Auto => bytes.starts_with(b"GPB1"),
    };
    if binary {
        from_gpb(bytes).map_err(|e| format!("parsing {path}: {e}").into())
    } else {
        let text =
            std::str::from_utf8(bytes).map_err(|e| format!("reading {path}: not UTF-8: {e}"))?;
        SpatialDataset::from_text(text).map_err(|e| format!("parsing {path}: {e}").into())
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `512m`.
fn parse_bytes(s: &str) -> Result<usize, String> {
    let lower = s.trim().to_ascii_lowercase();
    let (digits, multiplier) = match lower.as_bytes().last() {
        Some(b'k') => (&lower[..lower.len() - 1], 1usize << 10),
        Some(b'm') => (&lower[..lower.len() - 1], 1usize << 20),
        Some(b'g') => (&lower[..lower.len() - 1], 1usize << 30),
        _ => (lower.as_str(), 1),
    };
    let n: usize = digits.parse().map_err(|_| format!("bad byte count {s:?}"))?;
    n.checked_mul(multiplier).ok_or_else(|| format!("byte count {s:?} overflows"))
}

/// Pulls `--flag value` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pulls a boolean `--flag` out of an argument list.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_mine(args: &[String]) -> Result<(), CmdError> {
    let mut args = args.to_vec();
    let minsup: f64 = take_flag(&mut args, "--minsup")?
        .map(|v| v.parse().map_err(|_| format!("bad --minsup {v:?}")))
        .transpose()?
        .unwrap_or(0.3);
    let minconf: f64 = take_flag(&mut args, "--minconf")?
        .map(|v| v.parse().map_err(|_| format!("bad --minconf {v:?}")))
        .transpose()?
        .unwrap_or(0.7);
    // An unknown algorithm or counting strategy is an invalid *mining*
    // config (exit code 2, like the library's config errors), not a usage
    // error: the flag was well-formed, its value wasn't. Each parse error
    // lists every accepted name.
    let algorithm = match take_flag(&mut args, "--algorithm")? {
        Some(v) => parse_algorithm(&v).map_err(|msg| CmdError { code: 2, msg })?,
        None => Algorithm::AprioriKcPlus,
    };
    let counting = match take_flag(&mut args, "--counting")? {
        Some(v) => CountingStrategy::parse(&v).map_err(|msg| CmdError { code: 2, msg })?,
        None => CountingStrategy::default(),
    };
    let threads = take_flag(&mut args, "--threads")?
        .map(|v| Threads::parse(&v))
        .transpose()?
        .unwrap_or(Threads::Auto);
    let show_itemsets = take_switch(&mut args, "--itemsets");
    let show_rules = take_switch(&mut args, "--rules");
    // Kept as a Duration (not a pre-built token): a retrying run needs a
    // FRESH CancelToken per attempt — a token tripped by a panicking
    // attempt would poison every retry.
    let timeout = match take_flag(&mut args, "--timeout")? {
        Some(v) => {
            let secs: f64 = v.parse().map_err(|_| format!("bad --timeout {v:?}"))?;
            Some(
                std::time::Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("bad --timeout {v:?} (want non-negative seconds)"))?,
            )
        }
        None => None,
    };
    let max_retries: u32 = take_flag(&mut args, "--max-retries")?
        .map(|v| v.parse().map_err(|_| format!("bad --max-retries {v:?}")))
        .transpose()?
        .unwrap_or(0);
    let journal_path = take_flag(&mut args, "--journal")?;
    let resume = take_switch(&mut args, "--resume");
    if resume && journal_path.is_none() {
        return Err("--resume needs --journal FILE".into());
    }
    let budget = match take_flag(&mut args, "--memory-budget")? {
        Some(v) => MemoryBudget::bytes(parse_bytes(&v)?),
        None => MemoryBudget::unlimited(),
    };
    let tile_size: usize = take_flag(&mut args, "--tile-size")?
        .map(|v| v.parse().map_err(|_| format!("bad --tile-size {v:?}")))
        .transpose()?
        .unwrap_or(0);
    let format = take_flag(&mut args, "--format")?
        .map(|v| DatasetFormat::parse(&v))
        .transpose()?
        .unwrap_or(DatasetFormat::Auto);
    let metrics_format = take_flag(&mut args, "--metrics")?;
    let recorder = match metrics_format.as_deref() {
        Some("json") => Recorder::new(),
        Some(other) => {
            return Err(format!("unknown --metrics format {other:?} (supported: json)").into())
        }
        None => Recorder::disabled(),
    };

    let mut knowledge = KnowledgeBase::new();
    while let Some(pos) = args.iter().position(|a| a == "--dep") {
        if pos + 2 >= args.len() {
            return Err("--dep needs two feature-type names".into());
        }
        let b = args.remove(pos + 2);
        let a = args.remove(pos + 1);
        args.remove(pos);
        knowledge.add_type_dependency(a, b);
    }

    let path = match args.as_slice() {
        [p] => p.clone(),
        [] => return Err("mine needs a dataset file".into()),
        extra => return Err(format!("unexpected arguments: {extra:?}").into()),
    };
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // Parsing builds the per-layer R-trees, so the "load" span covers both.
    let load_span = recorder.span("load");
    let dataset = load_dataset(&path, &bytes, format)?;
    drop(load_span);

    // The journal fingerprint covers every output-affecting knob, so a
    // stale journal from a different configuration is rejected up front
    // instead of silently seeding the wrong resume state.
    let journal = match &journal_path {
        Some(jp) => {
            let fingerprint = fnv1a64(
                format!(
                    "{}|{minsup}|{minconf}|{}|{tile_size}|{path}",
                    algorithm.name(),
                    counting.name()
                )
                .as_bytes(),
            );
            // --resume opens strictly so a fingerprint mismatch (the
            // configuration changed under the journal) fails loudly
            // instead of silently starting over; a missing file just
            // means nothing has been journaled yet.
            let opened = if resume && std::path::Path::new(jp).exists() {
                Journal::open(jp, fingerprint)
            } else {
                Journal::create(jp, fingerprint)
            };
            Some(opened.map_err(|e| {
                let code = if e.kind() == std::io::ErrorKind::InvalidData { 2 } else { 1 };
                CmdError { code, msg: format!("journal {jp}: {e}") }
            })?)
        }
        None => None,
    };

    let tiling = if tile_size > 0 {
        Tiling::Grid { tiles_per_axis: tile_size }
    } else {
        Tiling::Flat
    };
    let runner = JobRunner::new(max_retries).with_recorder(recorder.clone());
    let outcome = runner.run(|_attempt| {
        let cancel = match timeout {
            Some(t) => CancelToken::with_timeout(t),
            None => CancelToken::none(),
        };
        let mut pipeline = MiningPipeline::new()
            .algorithm(algorithm)
            .min_support(MinSupport::Fraction(minsup))
            .min_confidence(minconf)
            .knowledge(knowledge.clone())
            .counting(counting)
            .extraction(ExtractionConfig::default().with_tiling(tiling))
            .threads(threads)
            .recorder(recorder.clone())
            .cancel_token(cancel)
            .memory_budget(budget.clone());
        if let Some(j) = &journal {
            pipeline = pipeline.journal(j.clone());
        }
        pipeline.run(&dataset)
    });
    if let Some(j) = &journal {
        recorder.counter("robust/journal_bytes", j.bytes());
    }
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            // An interrupted run still reports what it measured: the
            // recorder shares state with the pipeline's clone, so the
            // partial spans/counters survive the failure.
            if metrics_format.is_some() {
                println!("metrics: {}", recorder.snapshot().to_json());
            }
            return Err(e.into());
        }
    };

    println!("{}", report.summary());
    if let Some(stats) = &report.extraction_stats {
        println!(
            "extraction: {} exact pairs, {} pruned by index",
            stats.candidate_pairs, stats.pruned_pairs
        );
    }
    if show_itemsets {
        println!("\nfrequent itemsets (size >= 2):");
        for s in report.frequent_itemsets(2) {
            println!("  {s}");
        }
    }
    if show_rules {
        println!("\nrules (confidence >= {minconf}):");
        for r in report.rendered_rules() {
            println!("  {r}");
        }
    }
    if metrics_format.is_some() {
        // The live snapshot, not the report's: it includes counters
        // recorded after the run finished (e.g. robust/journal_bytes).
        println!("\nmetrics: {}", recorder.snapshot().to_json());
    }
    Ok(())
}

fn cmd_generate_city(args: &[String]) -> Result<(), CmdError> {
    let mut args = args.to_vec();
    let grid: usize = take_flag(&mut args, "--grid")?
        .map(|v| v.parse().map_err(|_| format!("bad --grid {v:?}")))
        .transpose()?
        .unwrap_or(6);
    let seed: u64 = take_flag(&mut args, "--seed")?
        .map(|v| v.parse().map_err(|_| format!("bad --seed {v:?}")))
        .transpose()?
        .unwrap_or(1);
    let out = take_flag(&mut args, "--out")?;
    let format = take_flag(&mut args, "--format")?
        .map(|v| DatasetFormat::parse(&v))
        .transpose()?
        .unwrap_or(DatasetFormat::Wkt);
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}").into());
    }

    let city = generate_city(&CityConfig { grid, seed, ..Default::default() });
    let bytes = match format {
        DatasetFormat::Gpb => to_gpb(&city),
        DatasetFormat::Wkt | DatasetFormat::Auto => city.to_text().into_bytes(),
    };
    match out {
        Some(path) => {
            // Atomic temp-file + rename commit: a crash mid-write leaves
            // either the old file or the new one, never a torn dataset.
            atomic_write(&path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {path}: {} districts, {} relevant layers ({} bytes)",
                city.reference.len(),
                city.relevant.len(),
                bytes.len()
            );
        }
        None => {
            use std::io::Write;
            std::io::stdout()
                .write_all(&bytes)
                .map_err(|e| format!("writing stdout: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_relate(args: &[String]) -> Result<(), CmdError> {
    let [a, b] = args else {
        return Err("relate needs exactly two WKT arguments".into());
    };
    let ga = from_wkt(a).map_err(|e| format!("first geometry: {e}"))?;
    let gb = from_wkt(b).map_err(|e| format!("second geometry: {e}"))?;
    let m = geopattern_geom::relate(&ga, &gb);
    println!("DE-9IM: {m}");
    println!("relation: {}", topological_relation(&ga, &gb));
    println!(
        "converse: {}",
        classify(&m.transposed(), gb.dimension(), ga.dimension())
    );
    Ok(())
}

fn cmd_gain(args: &[String]) -> Result<(), CmdError> {
    let mut args = args.to_vec();
    let t: Vec<u64> = take_flag(&mut args, "--t")?
        .ok_or("gain needs --t (comma-separated relation counts)")?
        .split(',')
        .map(|v| v.parse().map_err(|_| format!("bad t value {v:?}")))
        .collect::<Result<_, _>>()?;
    let n: u64 = take_flag(&mut args, "--n")?
        .map(|v| v.parse().map_err(|_| format!("bad --n {v:?}")))
        .transpose()?
        .unwrap_or(0);
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}").into());
    }
    let m: u64 = t.iter().sum::<u64>() + n;
    println!(
        "largest itemset m={m}, t={t:?}, n={n} → minimal gain {}",
        minimal_gain(&t, n)
    );
    Ok(())
}

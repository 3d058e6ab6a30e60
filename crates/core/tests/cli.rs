//! End-to-end tests of the `geopattern` binary: the documented exit-code
//! contract (0 ok, 1 usage/I-O, 2 invalid configuration, 3 unusable
//! data) and the `--metrics json` surface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_geopattern"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn geopattern")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A small generated city written to a temp file, for mine runs.
fn city_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("geopattern-cli-test-{name}.gpd"));
    let generated = run(&["generate-city", "--grid", "4", "--seed", "9"]);
    assert!(generated.status.success());
    std::fs::write(&path, &generated.stdout).expect("write dataset");
    path
}

#[test]
fn exit_0_on_success_and_help() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(stdout(&help).contains("EXIT CODES"));

    let path = city_file("ok");
    let out = run(&["mine", path.to_str().unwrap(), "--minsup", "0.3"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("frequent itemsets"));
}

#[test]
fn exit_1_on_usage_and_io_errors() {
    let unknown = run(&["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(1));
    assert!(stderr(&unknown).contains("unknown command"));

    let missing = run(&["mine", "/nonexistent/dataset.gpd"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(stderr(&missing).contains("reading"));

    let bad_metrics = run(&["mine", "x.gpd", "--metrics", "xml"]);
    assert_eq!(bad_metrics.status.code(), Some(1));
    assert!(stderr(&bad_metrics).contains("supported: json"));
}

#[test]
fn exit_2_on_invalid_configuration() {
    let path = city_file("conf");
    let out = run(&["mine", path.to_str().unwrap(), "--minconf", "1.5"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("min_confidence"));

    let out = run(&["mine", path.to_str().unwrap(), "--minsup", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("support"));
}

#[test]
fn exit_3_on_unusable_data() {
    let path = std::env::temp_dir().join("geopattern-cli-test-empty.gpd");
    // Valid format, but the reference layer has no features.
    std::fs::write(&path, "layer district reference\n").expect("write dataset");
    let out = run(&["mine", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("reference layer"));
}

#[test]
fn exit_4_on_timeout_with_partial_metrics() {
    let path = city_file("timeout");
    // A zero deadline is already expired when the pipeline first checks
    // the token, so the run fails deterministically.
    let out = run(&[
        "mine",
        path.to_str().unwrap(),
        "--timeout",
        "0",
        "--metrics",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("deadline exceeded"));
    // The partial metrics report still comes out on stdout.
    let text = stdout(&out);
    let json = text
        .lines()
        .find_map(|l| l.strip_prefix("metrics: "))
        .expect("partial metrics line present");
    assert!(json.contains("\"spans\""), "partial report: {json}");
}

#[test]
fn counting_strategies_all_mine_the_same_summary() {
    let path = city_file("counting");
    let mut summaries = Vec::new();
    for strategy in ["prefix-trie", "bitmap", "trie", "vertical-bitmap"] {
        let out = run(&[
            "mine",
            path.to_str().unwrap(),
            "--minsup",
            "0.3",
            "--counting",
            strategy,
        ]);
        assert_eq!(out.status.code(), Some(0), "{strategy} stderr: {}", stderr(&out));
        summaries.push(stdout(&out));
    }
    // Every backend prints the identical report — same itemsets, same
    // supports, same rules.
    assert!(summaries.windows(2).all(|w| w[0] == w[1]), "backend summaries diverge");
}

#[test]
fn bad_counting_strategy_is_invalid_config_listing_all_names() {
    // Exit code 2 (invalid mining config), and the message names every
    // accepted strategy so the caller can fix the flag without docs. The
    // names of the deleted backends are rejected like any other typo.
    for bad in ["quantum", "auto", "hybrid", "diffset", "hash-subset"] {
        let out = run(&["mine", "x.gpd", "--counting", bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let err = stderr(&out);
        assert!(err.contains("unknown counting strategy"), "{bad} stderr: {err}");
        for name in ["prefix-trie", "bitmap"] {
            assert!(err.contains(name), "{bad}: stderr must list {name:?}: {err}");
        }
    }
}

#[test]
fn exit_4_on_negative_or_bad_timeout_is_usage_error() {
    let out = run(&["mine", "x.gpd", "--timeout", "-1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--timeout"));
}

#[test]
fn exit_5_on_injected_worker_panic() {
    let path = city_file("panic");
    // `mining/apriori.count` fires inside a pool worker's closure; the
    // pool isolates the panic, drains, and the process exits with 5 —
    // never an abort and never a hang.
    let out = bin()
        .args(["mine", path.to_str().unwrap(), "--algorithm", "apriori", "--metrics", "json"])
        .env("GEOPATTERN_FAILPOINTS", "mining/apriori.count=panic@1:42")
        .output()
        .expect("spawn geopattern");
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("worker panicked"), "stderr: {err}");
    assert!(err.contains("mining/apriori.count"), "stderr: {err}");
    // Partial metrics survive the panic too.
    assert!(stdout(&out).contains("metrics: "), "stdout: {}", stdout(&out));
}

#[test]
fn bad_failpoint_spec_is_usage_error() {
    let out = bin()
        .args(["--help"])
        .env("GEOPATTERN_FAILPOINTS", "nonsense spec !!!")
        .output()
        .expect("spawn geopattern");
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("GEOPATTERN_FAILPOINTS"));
}

#[test]
fn absurd_thread_count_is_rejected() {
    let out = run(&["mine", "x.gpd", "--threads", "5000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("absurd"));
}

#[test]
fn unknown_algorithm_is_invalid_config_listing_all_names() {
    // Same contract as `--counting`: exit code 2 and every accepted name
    // on stderr. The names of the removed `tid` miner are rejected like
    // any other typo (names are case-insensitive, so the upper-case
    // spelling is the lower-case name).
    for bad in ["tid", "TID-KC+", "apriori-tid", "bogus"] {
        let out = run(&["mine", "x.gpd", "--algorithm", bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let err = stderr(&out);
        assert!(err.contains("unknown algorithm"), "{bad} stderr: {err}");
        for name in ["apriori", "kc", "kc+", "fpgrowth", "fpgrowth-kc+", "eclat", "eclat-kc+"] {
            assert!(err.contains(name), "{bad}: stderr must list {name:?}: {err}");
        }
    }
}

#[test]
fn tiled_mining_matches_flat_output() {
    let path = city_file("tiled");
    let flat = run(&["mine", path.to_str().unwrap(), "--minsup", "0.3", "--itemsets"]);
    assert_eq!(flat.status.code(), Some(0), "stderr: {}", stderr(&flat));
    for tiles in ["1", "3", "8"] {
        let tiled = run(&[
            "mine",
            path.to_str().unwrap(),
            "--minsup",
            "0.3",
            "--itemsets",
            "--tile-size",
            tiles,
        ]);
        assert_eq!(tiled.status.code(), Some(0), "tiles={tiles}: {}", stderr(&tiled));
        assert_eq!(stdout(&tiled), stdout(&flat), "tile-size {tiles} diverged from flat");
    }
}

#[test]
fn bad_tile_size_is_usage_error() {
    let out = run(&["mine", "x.gpd", "--tile-size", "many"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--tile-size"));
}

#[test]
fn binary_dataset_round_trips_through_the_cli() {
    // generate-city --format gpb writes a binary dataset; mine reads it
    // back both by sniffing the magic (auto) and when told explicitly,
    // and the report equals the text-format run's.
    let gpb_path = std::env::temp_dir().join("geopattern-cli-test-binary.gpb");
    let out = run(&[
        "generate-city",
        "--grid",
        "4",
        "--seed",
        "9",
        "--format",
        "gpb",
        "--out",
        gpb_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let bytes = std::fs::read(&gpb_path).expect("gpb written");
    assert!(bytes.starts_with(b"GPB1"), "missing magic");

    let text_path = city_file("binary-ref");
    let from_text = run(&["mine", text_path.to_str().unwrap(), "--minsup", "0.3", "--itemsets"]);
    assert_eq!(from_text.status.code(), Some(0));

    let sniffed = run(&["mine", gpb_path.to_str().unwrap(), "--minsup", "0.3", "--itemsets"]);
    assert_eq!(sniffed.status.code(), Some(0), "stderr: {}", stderr(&sniffed));
    assert_eq!(stdout(&sniffed), stdout(&from_text), "binary run diverged from text run");

    let explicit = run(&[
        "mine",
        gpb_path.to_str().unwrap(),
        "--minsup",
        "0.3",
        "--itemsets",
        "--format",
        "gpb",
    ]);
    assert_eq!(explicit.status.code(), Some(0), "stderr: {}", stderr(&explicit));
    assert_eq!(stdout(&explicit), stdout(&from_text));

    // Forcing the wrong format is a clean parse error, not a panic.
    let wrong = run(&["mine", gpb_path.to_str().unwrap(), "--format", "wkt"]);
    assert_eq!(wrong.status.code(), Some(1), "stderr: {}", stderr(&wrong));
}

#[test]
fn bad_format_is_usage_error() {
    let out = run(&["mine", "x.gpd", "--format", "parquet"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown --format"));
}

#[test]
fn metrics_json_prints_spans_and_counters() {
    let path = city_file("metrics");
    let out = run(&["mine", path.to_str().unwrap(), "--metrics", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let json = text
        .lines()
        .find_map(|l| l.strip_prefix("metrics: "))
        .expect("metrics line present");
    for key in ["\"spans\"", "\"counters\"", "\"load\"", "\"mine\"", "\"extract\""] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Without the flag, no metrics line is printed.
    let plain = run(&["mine", path.to_str().unwrap()]);
    assert!(!stdout(&plain).contains("metrics:"));
}

//! End-to-end pipeline benchmark for geopattern.
//!
//! ```text
//! pipebench --workload <city-topo|fig5-sweep|city-near> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's input from `--seed`, runs a serial reference,
//! then repeats verified ops for `--seconds`. With `--trace 0` it reports
//! the end-to-end metrics of untraced ops, and times repeated set-ups
//! (`setup_s`) spread over the op loop; with `--trace 1` it times each
//! layer's public calls and replays extraction's per-pair legs, and
//! reports the per-layer metrics.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a readable table of
//! the same metrics goes to standard error. See `README.md` beside this
//! crate for every metric's definition.

mod check;
mod city;
mod fig5;
mod heap;
mod layers;
mod stats;

use geopattern::Recorder;
use layers::LayerSample;
use stats::{median, quantile};
use std::time::Instant;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Timed set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// A set-up workload: inputs generated, reference output computed.
pub trait Workload {
    /// Reference rows (or transactions) one op processes.
    fn rows_per_op(&self) -> usize;
    /// Ops that cover every input once. A traced iteration covers every
    /// input once too, so the Recorder comparison runs this many ops.
    fn ops_per_round(&self) -> usize;
    /// Generates the inputs from the seed again, checks they equal the
    /// ones held, and returns the seconds generation took.
    fn setup_rep(&self) -> Result<f64, String>;
    /// Runs one op with `recorder` attached, verifies its output and
    /// returns its seconds.
    fn op(&mut self, recorder: Recorder) -> Result<f64, String>;
    /// Times each layer's public calls on their own (and, for the cities,
    /// replays extraction's per-pair legs), verifying every output.
    fn traced(&mut self) -> Result<LayerSample, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("bad --seconds {value:?}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required (city-topo, fig5-sweep, city-near)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Generates the workload's inputs and runs its serial reference.
fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "city-topo" | "city-near" => {
            let spec = if name == "city-topo" {
                city::CITY_TOPO
            } else {
                city::CITY_NEAR
            };
            Ok(Box::new(city::City::new(spec, seed, spec.generate(seed))?))
        }
        "fig5-sweep" => Ok(Box::new(fig5::Fig5::new(
            fig5::spec(seed).generate(),
            seed,
        )?)),
        other => Err(format!(
            "unknown workload {other:?} (city-topo, fig5-sweep, city-near)"
        )),
    }
}

/// Counts of attempted and failed ops, printing each failure.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Counts one op.
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("op {} failed: {e}", self.attempted);
                None
            }
        }
    }

    /// Counts a check that is not an op (a set-up repetition) only when
    /// it fails, as a failed op.
    fn check<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        match outcome {
            Ok(v) => Some(v),
            Err(e) => self.record(Err(format!("set-up: {e}"))),
        }
    }
}

/// Repeats `step` while the next one, at the mean step time so far, would
/// still end within `seconds` (always at least once), so a run's length
/// stays close to `seconds` even when one step is long.
fn repeat_for<T>(seconds: f64, mut step: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![step()];
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / out.len() as f64 > seconds {
            return out;
        }
        out.push(step());
    }
}

/// Runs one round of verified ops whose times are dropped: it fills
/// caches and the allocator's free lists. Returns the peak live heap of
/// the round in MiB, on top of the inputs and reference outputs already
/// held; heap counting ends with it.
fn warm_up(workload: &mut dyn Workload, tally: &mut Tally) -> f64 {
    heap::reset_peak();
    for _ in 0..workload.ops_per_round() {
        tally.record(workload.op(Recorder::disabled()));
    }
    heap::stop()
}

/// Set-ups due once `elapsed` of `seconds` have passed: they are spread
/// evenly over the op loop, the first at its start.
fn setups_due(elapsed: f64, seconds: f64) -> usize {
    if elapsed >= seconds {
        return SETUP_REPS;
    }
    (elapsed / seconds * SETUP_REPS as f64) as usize + 1
}

fn end_to_end(workload: &mut dyn Workload, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let peak_heap_mb = warm_up(workload, tally);
    // A set-up lasts about 0.1 s, and on a shared host a burst of them
    // catches a single load state. Spread over the op loop, they sample
    // the same conditions as the ops do.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut time_setup = |tally: &mut Tally, workload: &dyn Workload| {
        if let Some(secs) = tally.check(workload.setup_rep()) {
            setup_times.push(secs);
        }
    };
    let start = Instant::now();
    let mut reps = 0;
    let times: Vec<f64> = repeat_for(seconds, || {
        while reps < setups_due(start.elapsed().as_secs_f64(), seconds) {
            time_setup(tally, workload);
            reps += 1;
        }
        tally.record(workload.op(Recorder::disabled()))
    })
    .into_iter()
    .flatten()
    .collect();
    for _ in reps..SETUP_REPS {
        time_setup(tally, workload);
    }
    // Throughput at the median op, so one stalled op does not move it.
    let run_s_p50 = median(&times);
    vec![
        Metric::new(
            "rows_per_s",
            stats::ratio(workload.rows_per_op() as f64, run_s_p50),
            "rows/s",
        ),
        Metric::new("run_s_p50", run_s_p50, "s"),
        // The upper quartile, not p90: a run holds 9 to 55 ops, and a
        // tail percentile with under ten samples beyond it swings with
        // every host stall.
        Metric::new("run_s_p75", quantile(&times, 0.75), "s"),
        Metric::new("setup_s", median(&setup_times), "s"),
        Metric::new("peak_heap_mb", peak_heap_mb, "MB"),
        Metric::new(
            "ok_ops_frac",
            1.0 - tally.failed as f64 / tally.attempted as f64,
            "frac",
        ),
    ]
}

/// Seconds of one round of ops, each with a fresh `recorder()`.
fn round(workload: &mut dyn Workload, recorder: fn() -> Recorder) -> Result<f64, String> {
    (0..workload.ops_per_round())
        .map(|_| workload.op(recorder()))
        .sum()
}

/// One traced iteration: the workload's per-layer sample, then a round of
/// ops with the Recorder on and one with it off, in alternating order so
/// drift favours neither side.
fn traced_iteration(workload: &mut dyn Workload, on_first: bool) -> Result<LayerSample, String> {
    let mut sample = workload.traced()?;
    if on_first {
        sample.recorder_on_s = round(workload, Recorder::new)?;
        sample.recorder_off_s = round(workload, Recorder::disabled)?;
    } else {
        sample.recorder_off_s = round(workload, Recorder::disabled)?;
        sample.recorder_on_s = round(workload, Recorder::new)?;
    }
    Ok(sample)
}

fn per_layer(workload: &mut dyn Workload, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    warm_up(workload, tally);
    let mut on_first = false;
    let mut samples: Vec<LayerSample> = repeat_for(seconds, || {
        on_first = !on_first;
        tally.record(traced_iteration(workload, on_first))
    })
    .into_iter()
    .flatten()
    .collect();
    if samples.is_empty() {
        // Every iteration failed: report zeros under `"correct": false`.
        samples.push(LayerSample::default());
    }
    if let Err(e) = layers::check_counts_repeat(&samples) {
        eprintln!("traced run inconsistent: {e}");
        tally.failed += 1;
    }
    layers::per_layer_metrics(&samples)
}

fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let mut workload = setup(&args.workload, args.seed)?;
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(workload.as_mut(), args.seconds, &mut tally)
    } else {
        end_to_end(workload.as_mut(), args.seconds, &mut tally)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();

    eprintln!(
        "{} seed {} ({} ops, {} failed)",
        args.workload, args.seed, tally.attempted, tally.failed
    );
    for m in &metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {:<28} {:>16.6} frac",
        "failed_ops_frac",
        tally.failed as f64 / tally.attempted as f64
    );
    println!(
        "{}",
        json_line(finite && tally.failed == 0, &tally, &metrics)
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("pipebench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose every op fails verification.
    struct Corrupt;

    impl Workload for Corrupt {
        fn rows_per_op(&self) -> usize {
            1
        }
        fn ops_per_round(&self) -> usize {
            1
        }
        fn setup_rep(&self) -> Result<f64, String> {
            Err("regenerated input differs".into())
        }
        fn op(&mut self, _: Recorder) -> Result<f64, String> {
            Err("output differs from the reference".into())
        }
        fn traced(&mut self) -> Result<LayerSample, String> {
            Err("output differs from the reference".into())
        }
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "city-topo",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("city-topo", 3, 10.0, true)
        );
        assert!(args(&["--seed", "3"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds"]).is_err());
        assert!(setup("no-such-workload", 1).is_err());
    }

    #[test]
    fn set_ups_are_spread_over_the_op_loop() {
        assert_eq!(setups_due(0.0, 30.0), 1);
        assert_eq!(setups_due(2.0, 30.0), 2);
        assert_eq!(setups_due(29.9, 30.0), SETUP_REPS);
        assert_eq!(setups_due(31.0, 30.0), SETUP_REPS);
        assert_eq!(setups_due(0.0, 0.0), SETUP_REPS);
    }

    #[test]
    fn failed_ops_are_counted_and_make_the_run_incorrect() {
        let mut tally = Tally::default();
        let metrics = end_to_end(&mut Corrupt, 0.0, &mut tally);
        // The warm-up op, one timed op and every set-up repetition.
        assert_eq!((tally.attempted, tally.failed), (17, 17));
        let ok = metrics.iter().find(|m| m.name == "ok_ops_frac").unwrap();
        assert_eq!(ok.value, 0.0);
        let line = json_line(tally.failed == 0, &tally, &metrics);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 17, \"failed\": 17, "),
            "{line}"
        );

        let mut tally = Tally::default();
        let metrics = per_layer(&mut Corrupt, 0.0, &mut tally);
        assert!(metrics.iter().all(|m| m.value == 0.0));
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }
}

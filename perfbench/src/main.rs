//! The repository's benchmark: one workload per process, driven in-process
//! through the public entry points `snowcat campaign` and `snowcat train`
//! use. See `perfbench/README.md` for the workloads, the metrics and how to
//! read a traced run.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlpct-s1 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is the
//! run header. Run from the repository root.

mod campaign;
mod layers;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Version of the header and result layout printed by this benchmark.
const SCHEMA_VERSION: u32 = 1;
/// An untraced run sets up at least this many times and for at least
/// `SETUP_MIN_S`; `setup_s` is the median. A campaign set-up takes a few
/// milliseconds, so it repeats a few hundred times.
const SETUPS_MIN: usize = 9;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_CALIBRATION_EVERY_S: f64 = 0.2;
const EXPECTED_FILE: &str = "perfbench/expected.txt";
/// Where traced runs write the spans of their first replayed unit.
const SPANS_DIR: &str = "perfbench/out";

pub type BoxError = Box<dyn std::error::Error>;

/// Command-line arguments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for checkpoints, models and event streams.
    pub work: PathBuf,
    /// When `main` started: the first set-up is timed from here.
    pub start: Instant,
}

/// One metric of the result object.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload parameters, as a JSON object, for the header.
    pub params: String,
    /// Output summary of the unit of work, as recorded in `expected.txt`.
    pub outputs: String,
    /// `recorded-match`, `recorded-mismatch` or `unrecorded`.
    pub expected: &'static str,
    /// Unscaled timings and calibration, as a JSON object, for the header.
    pub host: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload mlpct-s1|pct-durable|train-pic --seed N --seconds S \
         --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args(start: Instant) -> Ctx {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else { usage() };
        let Some(v) = it.next() else { usage() };
        map.insert(key.to_owned(), v);
    }
    let get = |k: &str| map.get(k).cloned().unwrap_or_else(|| usage());
    if map.len() != 4 {
        usage();
    }
    let workload = get("workload");
    let seed = get("seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("seconds").parse().unwrap_or_else(|_| usage());
    let trace = match get("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let work = PathBuf::from("perfbench/.work").join(format!(
        "{workload}-{}-{}",
        seed,
        std::process::id()
    ));
    Ctx { workload, seed, seconds, trace, work, start }
}

fn main() {
    let start = Instant::now();
    let ctx = parse_args(start);
    if !Path::new(EXPECTED_FILE).is_file() {
        eprintln!("perfbench: run from the repository root ({EXPECTED_FILE} not found)");
        std::process::exit(2);
    }
    let spans_dir = ctx.trace.then(|| Path::new(SPANS_DIR));
    for dir in std::iter::once(ctx.work.as_path()).chain(spans_dir) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let result = match ctx.workload.as_str() {
        "mlpct-s1" => campaign::run(&ctx, &campaign::MLPCT_S1),
        "pct-durable" => campaign::run(&ctx, &campaign::PCT_DURABLE),
        "train-pic" => train::run(&ctx),
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(out) => {
            println!("{}", header(&ctx, &out));
            println!("{}", result_line(&out));
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            std::process::exit(1);
        }
    }
}

/// The expected output summary for (`workload`, `seed`), if recorded.
pub fn expected(workload: &str, seed: u64) -> Option<String> {
    let text = std::fs::read_to_string(EXPECTED_FILE).ok()?;
    text.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let (w, s, summary) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed).then(|| summary.to_owned())
    })
}

/// Compare a unit's output summary against the recorded one.
pub fn check_expected(workload: &str, seed: u64, outputs: &str) -> &'static str {
    match expected(workload, seed) {
        Some(e) if e == outputs => "recorded-match",
        Some(e) => {
            eprintln!(
                "perfbench: output mismatch for seed {seed}\n  expected {e}\n  got      {outputs}"
            );
            "recorded-mismatch"
        }
        None => "unrecorded",
    }
}

/// The span dump of a traced run.
pub fn spans_path(ctx: &Ctx) -> PathBuf {
    Path::new(SPANS_DIR).join(format!("{}-seed{}.spans.tsv", ctx.workload, ctx.seed))
}

/// Set-up times of a run and the calibrations taken among them.
pub struct SetupTiming {
    pub median_s: f64,
    pub calibrations: Vec<f64>,
}

/// Run `setup` repeatedly (once when traced) and return the last product
/// with the median set-up time. The first set-up is timed from process
/// start. Untraced, the calibration loop runs at most every
/// `SETUP_CALIBRATION_EVERY_S` between set-ups and once after the last,
/// because the host's speed during set-up can differ from its speed during
/// the units.
pub fn repeated_setup<T>(
    ctx: &Ctx,
    tracer: &mut trace::Tracer,
    mut setup: impl FnMut(&mut trace::Tracer) -> Result<T, BoxError>,
) -> Result<(T, SetupTiming), BoxError> {
    let mut times = Vec::new();
    let mut calibrations = Vec::new();
    let mut product = setup(tracer)?;
    times.push(ctx.start.elapsed().as_secs_f64());
    if !ctx.trace {
        let mut since_calibration = Instant::now();
        while times.len() < SETUPS_MIN || times.iter().sum::<f64>() < SETUP_MIN_S {
            if since_calibration.elapsed().as_secs_f64() >= SETUP_CALIBRATION_EVERY_S {
                calibrations.push(calibrate());
                since_calibration = Instant::now();
            }
            let t0 = Instant::now();
            product = setup(tracer)?;
            times.push(t0.elapsed().as_secs_f64());
        }
        calibrations.push(calibrate());
    }
    Ok((product, SetupTiming { median_s: median(&mut times), calibrations }))
}

/// Mean of the values between the first and third quartile (nearest rank).
fn interquartile_mean(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Seconds the calibration loop typically takes on the 2-CPU host the
/// benchmark was written on; host-adjusted figures are scaled to it.
const CALIBRATION_REF_S: f64 = 0.036;

/// A fixed piece of work that uses none of the repository's code: a small
/// f32 matrix product (like the PIC's layers) and a branchy walk over a
/// 256 KiB table (like the VM and race detector). Returns its wall time.
///
/// The host this benchmark runs on shares its cores: identical runs of one
/// workload vary by up to 1.5x over minutes, and the calibration loop slows
/// down with them. Timing it between units of work and scaling the run's
/// figures by its typical calibration time over `CALIBRATION_REF_S`
/// removes much of that drift; the unscaled figures are printed in the run
/// header.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let n = 64usize;
    let a: Vec<f32> = (0..n * n).map(|i| ((i * 7919) % 1000) as f32 / 1000.0).collect();
    let mut c = vec![0f32; n * n];
    for _ in 0..180 {
        for i in 0..n {
            for k in 0..n {
                let av = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += av * a[k * n + j];
                }
            }
        }
    }
    let mut table = vec![0u32; 1 << 16];
    let (mut x, mut acc) = (0x1234_5678_9abc_def0u64, 0u64);
    for i in 0..3_600_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x & 0xffff) as usize;
        if x & 1 == 0 {
            table[idx] = table[idx].wrapping_add(i);
        } else {
            acc = acc.wrapping_add(u64::from(table[idx]));
        }
    }
    std::hint::black_box((&c, acc));
    t0.elapsed().as_secs_f64()
}

/// Units of work timed between calibrations.
pub struct Timings {
    pub unit_secs: Vec<f64>,
    pub calibrations: Vec<f64>,
}

/// Run `unit` until `seconds` have passed (at least once), timing each call
/// between calibrations.
pub fn timed_units(
    seconds: f64,
    mut unit: impl FnMut() -> Result<f64, BoxError>,
) -> Result<Timings, BoxError> {
    let t_run = Instant::now();
    let mut t = Timings { unit_secs: Vec::new(), calibrations: vec![calibrate()] };
    while t.unit_secs.is_empty() || t_run.elapsed().as_secs_f64() < seconds {
        t.unit_secs.push(unit()?);
        t.calibrations.push(calibrate());
    }
    Ok(t)
}

/// The end-to-end metrics every workload reports with tracing off, and the
/// unscaled figures for the header. `work` is the work in one unit (CTIs or
/// graph-epochs); `rss_mib` the peak RSS read after the first unit, before
/// any output check ran.
pub fn end_to_end(
    t: &Timings,
    work: f64,
    setup: &SetupTiming,
    rss_mib: f64,
    attempted: u64,
    failed: u64,
) -> (Vec<Metric>, String) {
    // Calibration times are bimodal (a sibling thread busy or idle) with
    // rare long outliers (preemption): the interquartile mean tracks the
    // share of time the host was slow without following the outliers.
    let calib_mean = interquartile_mean(&t.calibrations);
    let host_factor = calib_mean / CALIBRATION_REF_S;
    let setup_factor = interquartile_mean(&setup.calibrations) / CALIBRATION_REF_S;
    let raw: Vec<f64> = t.unit_secs.iter().map(|s| work / s).collect();
    let raw_rate = interquartile_mean(&raw);
    let list = |v: &[f64]| v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(", ");
    let host = format!(
        "{{\"raw_units_per_s\": {}, \"raw_setup_s\": {}, \"calibration_s_iqm\": {}, \
         \"unit_s\": [{}], \"calibration_s\": [{}], \"setup_calibration_s\": [{}]}}",
        json_num(raw_rate),
        json_num(setup.median_s),
        json_num(calib_mean),
        list(&t.unit_secs),
        list(&t.calibrations),
        list(&setup.calibrations),
    );
    let metrics = vec![
        Metric { name: "units_per_s", value: raw_rate * host_factor, unit: "1/s" },
        Metric { name: "setup_s", value: setup.median_s / setup_factor, unit: "s" },
        Metric { name: "peak_rss_mib", value: rss_mib, unit: "MiB" },
        Metric {
            name: "ok_rate",
            value: (attempted - failed) as f64 / attempted.max(1) as f64,
            unit: "ratio",
        },
    ];
    (metrics, host)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The run header: what was measured, on what, from which source.
fn header(ctx: &Ctx, out: &RunOutput) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    format!(
        "# perfbench {{\"schema\": {SCHEMA_VERSION}, \"git_rev\": {}, \"source_digest\": \
         \"{:016x}\", \"cpus\": {cpus}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"params\": {}, \"expected\": {}, \"outputs\": {}, \"host\": {}}}",
        json_str(&git_rev()),
        source_digest(),
        json_str(&ctx.workload),
        ctx.seed,
        json_num(ctx.seconds),
        u8::from(ctx.trace),
        out.params,
        json_str(out.expected),
        json_str(&out.outputs),
        out.host,
    )
}

/// `git rev-parse HEAD` when run inside a git checkout, else `unknown`.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of the sources the benchmark builds
/// from, so runs of an exported tree without git history still name their
/// code.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        mix(f.to_string_lossy().as_bytes());
        mix(&std::fs::read(f).unwrap_or_default());
    }
    h
}

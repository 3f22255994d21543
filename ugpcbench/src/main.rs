//! The ugpc benchmark: three workloads, measured end to end (timed runs)
//! and per layer (traced runs), with correctness gates on every run.
//!
//! ```text
//! cargo run --release --offline --manifest-path ugpcbench/Cargo.toml -- \
//!     --workload sweep|serve-hot|serve-churn --seed N --seconds S --trace 0|1
//! cargo run ... -- --workload W --steady K [--seed N] [--seconds S] [--trace T]
//! ```
//!
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it carries the provenance.
//! `--steady K` reruns the workload K times (seeds N..N+K, each its own
//! process) and reports each metric's median and quartile spread — the
//! self-check behind the bounds in BENCHMARK.json. Run it from the
//! repository root. See README.md for what each metric means on each
//! workload.

mod layers;
mod serve;
mod sweep;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Every end-to-end metric, in report order, with its unit. The list is
/// the `end_to_end` section of BENCHMARK.json.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("miss_latency_p50_ms", "ms"),
    ("miss_latency_p90_ms", "ms"),
];

pub const WORKLOADS: &[&str] = &["sweep", "serve-hot", "serve-churn"];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (provenance).
    pub samples: usize,
}

impl Metric {
    /// An end-to-end metric; its unit comes from [`END_TO_END`].
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, u)| *u);
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra provenance (`key`, JSON-free text value).
    pub notes: Vec<(String, String)>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why.into());
        }
    }

    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(args)
}

/// The repository root: the directory holding this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn command_line(root: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(root)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(root: &Path, args: &Args, out: &Outcome) -> String {
    let commit =
        command_line(root, "git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match command_line(
        root,
        "git",
        &["status", "--porcelain", "--untracked-files=no"],
    ) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "null".to_string(),
    };
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mut fields = vec![
        ("commit".to_string(), json_str(&commit)),
        ("dirty".to_string(), dirty),
        ("host".to_string(), json_str(&host)),
        ("nproc".to_string(), layers::nproc().to_string()),
        ("rustc".to_string(), json_str(env!("UGPCBENCH_RUSTC"))),
        (
            "profile".to_string(),
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        (
            "error_rate".to_string(),
            (out.failed as f64 / out.attempted.max(1) as f64).to_string(),
        ),
    ];
    let samples: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"unit\":{},\"samples\":{}}}",
                json_str(m.name),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    fields.push(("metrics".to_string(), format!("{{{}}}", samples.join(","))));
    for (k, v) in &out.notes {
        fields.push((k.clone(), json_str(v)));
    }
    let errors: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
    fields.push(("errors".to_string(), format!("[{}]", errors.join(","))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"provenance\":{{{}}}}}", body.join(","))
}

fn run_once(args: &Args) -> ExitCode {
    let root = repo_root();
    let ticks_before = util::steal_and_total_ticks();
    let mut tracer = util::Tracer::new();
    let mut out = match (args.workload.as_str(), args.trace) {
        ("sweep", false) => sweep::timed(&root, args.seed, args.seconds),
        ("sweep", true) => sweep::traced(&root, args.seed, args.seconds, &mut tracer),
        (w, trace) => serve::run(
            &root,
            w == "serve-churn",
            args.seed,
            args.seconds,
            trace.then_some(&mut tracer),
        ),
    };
    out.note(
        "host_steal_pct",
        format!("{:.2}", util::steal_pct_since(ticks_before)),
    );
    let expected: Vec<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    if names != expected && out.failed == 0 {
        out.fail(format!("metric set {names:?} is not {expected:?}"));
    }
    let non_finite: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    for name in non_finite {
        out.fail(format!("metric {name} is not finite"));
    }
    if args.trace {
        let rel = format!(".bench_out/spans-{}.jsonl", args.workload);
        match tracer.write(&root.join(&rel)) {
            Ok(()) => out.note("spans", rel),
            Err(e) => out.fail(format!("writing spans: {e}")),
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!("{}", provenance(&root, args, &out));
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--steady K`: K runs in fresh processes, seeds N..N+K; per metric the
/// median and the quartile spread (Q3 − Q1) / median.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut all_correct = true;
    for k in 0..runs as u64 {
        let seed = args.seed + k;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        let Ok(out) = out else {
            eprintln!("seed {seed}: could not start the run");
            return ExitCode::FAILURE;
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(last) = stdout.lines().last() else {
            eprintln!("seed {seed}: no output");
            return ExitCode::FAILURE;
        };
        println!("seed {seed}: {last}");
        let Ok(doc) = serde_json::from_str::<serde_json::Value>(last) else {
            eprintln!("seed {seed}: unparseable result");
            return ExitCode::FAILURE;
        };
        all_correct &= out.status.success();
        let serde_json::Value::Object(top) = doc else {
            continue;
        };
        for (key, v) in top {
            let serde_json::Value::Object(metrics) = v else {
                continue;
            };
            if key != "metrics" {
                continue;
            }
            for (name, m) in metrics {
                let serde_json::Value::Object(fields) = m else {
                    continue;
                };
                let get = |f: &str| fields.iter().find(|(k, _)| k == f).map(|(_, v)| v.clone());
                let value = get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let unit = get("unit")
                    .and_then(|v| v.as_str().map(str::to_string))
                    .unwrap_or_default();
                match values.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, vs)) => vs.push(value),
                    None => values.push((name, unit, vec![value])),
                }
            }
        }
    }
    let rows: Vec<String> = values
        .iter()
        .map(|(name, unit, vs)| {
            let med = util::median(vs);
            let (q1, q3) = util::quartiles(vs);
            format!(
                "{}:{{\"unit\":{},\"median\":{med},\"q1\":{q1},\"q3\":{q3},\"spread\":{},\"runs\":{}}}",
                json_str(name),
                json_str(unit),
                (q3 - q1) / med.abs(),
                vs.len()
            )
        })
        .collect();
    println!(
        "{{\"steady\":{{\"workload\":{},\"seconds\":{},\"first_seed\":{},\"all_correct\":{all_correct},\"metrics\":{{{}}}}}}}",
        json_str(&args.workload),
        args.seconds,
        args.seed,
        rows.join(",")
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Pin the shipped defaults the workloads are defined against:
    // info-level serve logging, the default event queue, `nproc` jobs.
    std::env::set_var("UGPC_LOG", "info");
    std::env::remove_var("UGPC_QUEUE");
    std::env::remove_var("UGPC_JOBS");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ugpcbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.steady {
        Some(k) => steady(&args, k.max(1)),
        None => run_once(&args),
    }
}

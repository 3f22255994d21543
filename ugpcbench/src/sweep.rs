//! The `sweep` workload: the paper's own batch use, in-process, one job,
//! no server. Fig. 3's double-precision cap ladder at Table II size on
//! all three platforms (38 runs), one online-controlled run per
//! platform × op (6 runs), and two Fig. 7 large-graph cells (POTRF dp on
//! 32-AMD-4-A100 at tile 1920, ≈125 k tasks). The seed sets the order
//! the studies run in; their outputs do not depend on it.

use crate::layers::{self, Decomposed};
use crate::util::{median, percentile, secs_since, Rng, Tracer};
use crate::{Metric, Outcome};
use serde_json::Value;
use std::path::Path;
use std::time::Instant;
use ugpc_capping::CapConfig;
use ugpc_control::{ControllerSpec, ObjectiveKind};
use ugpc_core::{run_study, run_study_controlled, RunConfig};
use ugpc_hwsim::{OpKind, PlatformId, PlatformSpec, Precision};

/// Set-ups before the first pass; more follow between studies (see
/// `timed`), and `setup_s` is the median of all.
const SETUPS: usize = 21;

#[derive(Clone)]
pub struct Study {
    pub label: String,
    pub cfg: RunConfig,
    pub controlled: bool,
}

impl Study {
    /// Run the study; its output is the serialized report (or controlled
    /// run), the bytes every correctness gate compares.
    pub fn run(&self) -> String {
        let out = if self.controlled {
            serde_json::to_string(&run_study_controlled(&self.cfg, &controller()))
        } else {
            serde_json::to_string(&run_study(&self.cfg))
        };
        out.expect("reports serialize")
    }
}

pub fn controller() -> ControllerSpec {
    ControllerSpec::new(ObjectiveKind::GflopsPerWatt)
}

/// The 46 studies in canonical order.
pub fn studies() -> Vec<Study> {
    let mut out = Vec::new();
    for op in OpKind::ALL {
        for pf in PlatformId::ALL {
            for config in CapConfig::paper_ladder(PlatformSpec::of(pf).gpu_count) {
                out.push(Study {
                    label: format!("fig3/{}/{}/{config}", pf.name(), op.name()),
                    cfg: RunConfig::paper(pf, op, Precision::Double)
                        .scaled_down(1)
                        .with_gpu_config(config),
                    controlled: false,
                });
            }
        }
    }
    for pf in PlatformId::ALL {
        for op in OpKind::ALL {
            out.push(Study {
                label: format!("control/{}/{}", pf.name(), op.name()),
                cfg: RunConfig::paper(pf, op, Precision::Double),
                controlled: true,
            });
        }
    }
    for config in ["HHHH", "BBBB"] {
        let pf = PlatformId::Amd4A100;
        out.push(Study {
            label: format!("fig7/{}/POTRF/double/nb1920/{config}", pf.name()),
            cfg: RunConfig::paper(pf, OpKind::Potrf, Precision::Double)
                .with_tile(1920)
                .scaled_down(1)
                .with_gpu_config(config.parse().expect("literal cap config")),
            controlled: false,
        });
    }
    out
}

/// Committed outputs the sweep must reproduce.
pub struct References {
    /// fig3 label → the committed report object.
    fig3: Vec<(String, Value)>,
    /// fig7 label → committed efficiency.
    fig7: Vec<(String, f64)>,
    /// controlled label → pinned output digest (hex).
    digests: Vec<(String, String)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn items(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Array(a)) => a,
        _ => &[],
    }
}

fn text(v: Option<&Value>) -> String {
    v.and_then(Value::as_str).unwrap_or_default().to_string()
}

impl References {
    pub fn load(root: &Path) -> Result<References, String> {
        let read = |rel: &str| -> Result<Value, String> {
            let s = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
            serde_json::from_str::<Value>(&s).map_err(|e| format!("{rel}: {e:?}"))
        };
        let fig3_doc = read("results/fig3.json")?;
        let mut fig3 = Vec::new();
        for ladder in items(field(&fig3_doc, "ladders")) {
            let (pf, op) = (text(field(ladder, "platform")), text(field(ladder, "op")));
            for row in items(field(ladder, "rows")) {
                let report = field(row, "report").ok_or("fig3 row without report")?;
                fig3.push((
                    format!("fig3/{pf}/{op}/{}", text(field(row, "config"))),
                    report.clone(),
                ));
            }
        }
        let fig7_doc = read("results/fig7.json")?;
        let mut fig7 = Vec::new();
        for s in items(field(&fig7_doc, "series")) {
            let nb = field(s, "nb").and_then(Value::as_u64).unwrap_or(0);
            let prefix = format!(
                "fig7/{}/{}/{}/nb{nb}",
                text(field(s, "platform")),
                text(field(s, "op")),
                text(field(s, "precision"))
            );
            for pair in items(field(s, "efficiency")) {
                let pair = items(Some(pair));
                if let [c, e] = pair {
                    fig7.push((
                        format!("{prefix}/{}", text(Some(c))),
                        e.as_f64().unwrap_or(f64::NAN),
                    ));
                }
            }
        }
        let digest_path = root.join("ugpcbench/controlled.digest");
        let digests = std::fs::read_to_string(&digest_path)
            .map_err(|e| format!("{}: {e}", digest_path.display()))?
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(label, hex)| (label.to_string(), hex.trim().to_string()))
            .collect();
        Ok(References {
            fig3,
            fig7,
            digests,
        })
    }

    /// Check one study's output; `Err` names the first mismatch.
    pub fn check(&self, study: &Study, output: &str) -> Result<(), String> {
        let label = &study.label;
        if study.controlled {
            let got = format!("{:016x}", crate::util::fnv1a(output.as_bytes()));
            return match self.digests.iter().find(|(l, _)| l == label) {
                Some((_, want)) if *want == got => Ok(()),
                Some((_, want)) => Err(format!("{label}: digest {got}, pinned {want}")),
                None => Err(format!(
                    "{label}: no pinned digest (this run: {label} {got})"
                )),
            };
        }
        let ours: Value = serde_json::from_str(output).map_err(|e| format!("{label}: {e:?}"))?;
        if let Some((_, want)) = self.fig3.iter().find(|(l, _)| l == label) {
            let Value::Object(fields) = want else {
                return Err(format!("{label}: reference is not an object"));
            };
            for (k, v) in fields {
                if !same(field(&ours, k), v) {
                    return Err(format!("{label}: field {k} differs from results/fig3.json"));
                }
            }
            return Ok(());
        }
        if let Some((_, want)) = self.fig7.iter().find(|(l, _)| l == label) {
            let got = field(&ours, "efficiency_gflops_w").and_then(Value::as_f64);
            return match got {
                Some(g) if g.to_bits() == want.to_bits() => Ok(()),
                _ => Err(format!(
                    "{label}: efficiency {got:?} differs from results/fig7.json ({want})"
                )),
            };
        }
        Err(format!("{label}: no committed reference"))
    }
}

/// Bit-exact value equality (numbers compared by their bits).
fn same(a: Option<&Value>, b: &Value) -> bool {
    match (a, b) {
        (Some(Value::Num(x)), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Some(Value::Array(x)), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(Some(p), q))
        }
        (Some(x), y) => x == y,
        (None, _) => false,
    }
}

/// Everything the sweep needs before its first run.
struct Setup {
    studies: Vec<Study>,
    order: Vec<usize>,
    refs: References,
}

fn setup(root: &Path, seed: u64) -> Result<Setup, String> {
    let studies = studies();
    let mut order: Vec<usize> = (0..studies.len()).collect();
    Rng::new(seed).shuffle(&mut order);
    let refs = References::load(root)?;
    Ok(Setup {
        studies,
        order,
        refs,
    })
}

/// One pass over every study in seeded order: outputs in canonical
/// order, per-study seconds, and the gaps between consecutive calls.
/// `between` runs before each study, outside its time.
fn pass(s: &Setup, between: &mut dyn FnMut()) -> (Vec<String>, Vec<f64>, Vec<f64>) {
    let mut outputs = vec![String::new(); s.studies.len()];
    let mut times = vec![0.0; s.studies.len()];
    let mut gaps = Vec::new();
    let mut last_end: Option<Instant> = None;
    for &i in &s.order {
        between();
        let t = Instant::now();
        if let Some(end) = last_end {
            gaps.push(t.duration_since(end).as_secs_f64());
        }
        outputs[i] = s.studies[i].run();
        times[i] = secs_since(t);
        last_end = Some(Instant::now());
    }
    (outputs, times, gaps)
}

/// Correctness of one pass: committed references on the first, equality
/// with the first on every later one.
fn check_outputs(s: &Setup, outputs: &[String], first: Option<&[String]>, out: &mut Outcome) {
    for (i, study) in s.studies.iter().enumerate() {
        out.attempted += 1;
        let verdict = match first {
            None => s.refs.check(study, &outputs[i]),
            Some(f) if f[i] == outputs[i] => Ok(()),
            Some(_) => Err(format!("{}: output changed between passes", study.label)),
        };
        if let Err(e) = verdict {
            out.fail(e);
        }
    }
}

/// [`SETUPS`] set-ups; the last one and every set-up time.
fn setup_repeated(root: &Path, seed: u64, out: &mut Outcome) -> Option<(Setup, Vec<f64>)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        match setup(root, seed) {
            Ok(s) => kept = Some(s),
            Err(e) => {
                out.fail(format!("setup: {e}"));
                return None;
            }
        }
        times.push(secs_since(t));
    }
    kept.map(|s| (s, times))
}

pub fn timed(root: &Path, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let Some((s, mut setup_times)) = setup_repeated(root, seed, &mut out) else {
        return out;
    };
    // Passes run for `seconds`. A pass during which the host stole more
    // than MAX_STEAL_PCT of the CPU is left out, and passes continue (up
    // to 2 × `seconds`) until two are undisturbed. Each study counts at
    // its mean over the kept passes: a run has only 3 or 4 of them, and
    // on a shared host a core runs about a third slower than usual for
    // seconds at a time, so a median of so few lands on either speed.
    let start = Instant::now();
    let mut per_study: Vec<Vec<f64>> = vec![Vec::new(); s.studies.len()];
    let mut disturbed: Vec<Vec<f64>> = vec![Vec::new(); s.studies.len()];
    let mut first: Option<Vec<String>> = None;
    let (mut passes, mut clean) = (0, 0);
    let mut pass_log = Vec::new();
    while passes == 0
        || secs_since(start) < seconds
        || (clean < 2 && secs_since(start) < 2.0 * seconds)
    {
        let ticks = crate::util::steal_and_total_ticks();
        // A set-up between studies too, so `setup_s` samples the whole
        // run: on a shared host a core can run a third slower than usual
        // for seconds at a time, longer than the first set-ups take.
        let (outputs, times, _) = pass(&s, &mut || {
            let t = Instant::now();
            match setup(root, seed) {
                Ok(_) => setup_times.push(secs_since(t)),
                Err(e) => out.fail(format!("setup: {e}")),
            }
        });
        let steal = crate::util::steal_pct_since(ticks);
        pass_log.push(format!("{:.4}s/{steal:.2}%", times.iter().sum::<f64>()));
        check_outputs(&s, &outputs, first.as_deref(), &mut out);
        let keep = if steal <= crate::util::MAX_STEAL_PCT {
            clean += 1;
            &mut per_study
        } else {
            &mut disturbed
        };
        for (acc, t) in keep.iter_mut().zip(times) {
            acc.push(t);
        }
        first.get_or_insert(outputs);
        passes += 1;
    }
    if clean == 0 {
        per_study = disturbed;
    }
    let means: Vec<f64> = per_study
        .iter()
        .map(|t| t.iter().sum::<f64>() / t.len() as f64)
        .collect();
    let wall_s: f64 = means.iter().sum();
    let n = means.len();
    let us: Vec<f64> = means.iter().map(|t| t * 1e6).collect();
    let ms: Vec<f64> = means.iter().map(|t| t * 1e3).collect();
    out.metrics = vec![
        Metric::new("setup_s", median(&setup_times), setup_times.len()),
        Metric::new("peak_rss_mb", crate::util::peak_rss_mb(), 1),
        Metric::new("wall_s", wall_s, clean.max(1)),
        Metric::new("throughput_rps", n as f64 / wall_s, n * passes),
        Metric::new("latency_p50_us", percentile(&us, 50.0), n),
        Metric::new("latency_p99_us", percentile(&us, 99.0), n),
        Metric::new("miss_latency_p50_ms", percentile(&ms, 50.0), n),
        Metric::new("miss_latency_p90_ms", percentile(&ms, 90.0), n),
    ];
    out.note("passes", passes.to_string());
    out.note("pass_wall_and_steal", pass_log.join(" "));
    out.note("studies", n.to_string());
    out
}

/// The traced run: the plain pass, then every `run_study` decomposed
/// into its public steps under spans (and asserted byte-identical), an
/// eager-scheduler rerun of the two largest graphs, the same sweep on
/// `nproc` jobs, and the layer probes.
pub fn traced(root: &Path, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let Some((s, _)) = setup_repeated(root, seed, &mut out) else {
        return out;
    };
    // Each study runs plain, then decomposed, back to back, so both see
    // the same warm state.
    let mut plain = vec![String::new(); s.studies.len()];
    let mut plain_times = vec![0.0; s.studies.len()];
    let mut gaps = Vec::new();
    let mut traced_wall = 0.0;
    let mut decomposed: Vec<(usize, Decomposed)> = Vec::new();
    let mut last_end: Option<Instant> = None;
    for &i in &s.order {
        let study = &s.studies[i];
        let t = Instant::now();
        if let Some(end) = last_end {
            gaps.push(t.duration_since(end).as_secs_f64());
        }
        plain[i] = study.run();
        plain_times[i] = secs_since(t);
        let t = Instant::now();
        out.attempted += 1;
        let output = if study.controlled {
            tr.span("control.run_study_controlled", i as u64, None, || {
                study.run()
            })
        } else {
            let d = layers::decomposed_run(&study.cfg, tr, i as u64);
            let text = serde_json::to_string(&d.report).expect("reports serialize");
            decomposed.push((i, d));
            text
        };
        traced_wall += secs_since(t);
        if output != plain[i] {
            out.fail(format!(
                "{}: decomposed run differs from run_study",
                study.label
            ));
        }
        last_end = Some(Instant::now());
    }
    check_outputs(&s, &plain, None, &mut out);
    let plain_wall: f64 = plain_times.iter().sum();

    let mut lm = layers::LayerMetrics::default();
    let decs: Vec<&Decomposed> = decomposed.iter().map(|(_, d)| d).collect();
    let run_study_s: Vec<f64> = decomposed.iter().map(|(i, _)| plain_times[*i]).collect();
    lm.decomposition(&decs, &run_study_s);
    let mut largest = decs.clone();
    largest.sort_by_key(|d| std::cmp::Reverse(d.tasks));
    lm.sched_from(&largest[..2], tr);

    let ctl: Vec<f64> = s
        .studies
        .iter()
        .zip(&plain_times)
        .filter(|(st, _)| st.controlled)
        .map(|(_, t)| *t)
        .collect();
    let stat: Vec<f64> = s
        .studies
        .iter()
        .zip(&plain_times)
        .filter(|(st, _)| {
            !st.controlled && st.label.starts_with("fig3/") && st.cfg.gpu_config.is_default()
        })
        .map(|(_, t)| *t)
        .collect();
    lm.set(
        "control.overhead_ratio",
        ctl.iter().sum::<f64>() / stat.iter().sum::<f64>(),
    );

    let jobs = layers::nproc();
    let par_studies: Vec<Study> = s.order.iter().map(|&i| s.studies[i].clone()).collect();
    let t_par = tr.open("experiments.par_map", jobs as u64, None);
    ugpc_experiments::driver::set_jobs(jobs);
    let par_out = ugpc_experiments::driver::par_map(par_studies, |st| st.run());
    ugpc_experiments::driver::set_jobs(0);
    tr.close(t_par);
    let par_wall = tr.spans[t_par].dur_ns() as f64 / 1e9;
    for (k, &i) in s.order.iter().enumerate() {
        out.attempted += 1;
        if par_out[k] != plain[i] {
            out.fail(format!("{}: par_map output differs", s.studies[i].label));
        }
    }
    lm.set("experiments.jobs2_speedup", plain_wall / par_wall);

    lm.des_and_estimate(&decs, seed);
    let runs: Vec<(RunConfig, ugpc_core::RunReport)> = decomposed
        .iter()
        .map(|(_, d)| (d.cfg.clone(), d.report.clone()))
        .collect();
    crate::serve::probe_serve_layers(root, seed, seconds, &runs, tr, &mut lm, &mut out);
    let gap_us: Vec<f64> = gaps.iter().map(|g| g * 1e6).collect();
    lm.set("bench.generator_late_p99_us", percentile(&gap_us, 99.0));
    lm.set(
        "bench.trace_overhead_pct",
        (traced_wall - plain_wall) / plain_wall * 100.0,
    );
    out.metrics = lm.into_metrics();
    out
}

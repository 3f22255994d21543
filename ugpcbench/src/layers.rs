//! Per-layer measurements, taken from outside: each public call into a
//! layer runs inside a span, and the metrics are read off the spans.

use crate::util::{Rng, Tracer};
use crate::Metric;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use ugpc_capping::{apply_cpu_cap, apply_gpu_caps};
use ugpc_core::{RunConfig, RunReport};
use ugpc_hwsim::{Node, PlatformId, PlatformSpec, Secs};
use ugpc_runtime::{
    build_workers, distinct_footprints, simulate_observed, DataRegistry, EventQueue, Footprint,
    Observer, PerfModel, SchedPolicy, SimOptions, StatsCollector, TaskDesc, TraceBuilder,
};

/// Every per-layer metric, in report order, with its unit. The list is
/// the `per_layer` section of BENCHMARK.json. The recorder phases are
/// reported as the flight recorder gives them: the upper bound of the
/// log2 µs bucket holding the percentile (unit `us_bucket`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.sim_us_per_task.small", "us"),
    ("runtime.sim_us_per_task.large", "us"),
    ("runtime.calibrate_ms", "ms"),
    ("runtime.sched_us_per_task", "us"),
    ("runtime.des_ns_per_op", "ns"),
    ("linalg.build_us_per_task", "us"),
    ("hwsim.gpu_estimate_ns", "ns"),
    ("capping.node_setup_us", "us"),
    ("core.report_us", "us"),
    ("core.glue_pct", "%"),
    ("control.overhead_ratio", "ratio"),
    ("experiments.jobs2_speedup", "ratio"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.service.hit_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.phase.accept.p50_us", "us_bucket"),
    ("serve.phase.accept.p99_us", "us_bucket"),
    ("serve.phase.inbox_wait.p50_us", "us_bucket"),
    ("serve.phase.inbox_wait.p99_us", "us_bucket"),
    ("serve.phase.parse.p50_us", "us_bucket"),
    ("serve.phase.parse.p99_us", "us_bucket"),
    ("serve.phase.cache_lookup.p50_us", "us_bucket"),
    ("serve.phase.cache_lookup.p99_us", "us_bucket"),
    ("serve.phase.flight_wait.p50_us", "us_bucket"),
    ("serve.phase.flight_wait.p99_us", "us_bucket"),
    ("serve.phase.queue_wait.p50_us", "us_bucket"),
    ("serve.phase.queue_wait.p99_us", "us_bucket"),
    ("serve.phase.simulate.p50_us", "us_bucket"),
    ("serve.phase.simulate.p99_us", "us_bucket"),
    ("serve.phase.serialize.p50_us", "us_bucket"),
    ("serve.phase.serialize.p99_us", "us_bucket"),
    ("serve.phase.write.p50_us", "us_bucket"),
    ("serve.phase.write.p99_us", "us_bucket"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.sims_per_miss", "ratio"),
    ("serve.pool.backpressure_per_1k", "count"),
    ("serve.persist.append_us", "us"),
    ("serve.persist.recover_ms", "ms"),
    ("telemetry.log_tax_pct", "%"),
    ("telemetry.recorder_tax_pct", "%"),
    ("bench.generator_late_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// Graph-size classes for `runtime.sim_us_per_task`.
pub const SMALL_TASKS: usize = 5_000;
pub const LARGE_TASKS: usize = 20_000;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One `run_study` taken apart into its public steps, each timed.
pub struct Decomposed {
    pub cfg: RunConfig,
    pub report: RunReport,
    pub tasks: usize,
    pub footprints: Vec<Footprint>,
    pub node_ns: u64,
    pub build_ns: u64,
    pub calibrate_ns: u64,
    pub simulate_ns: u64,
    pub report_ns: u64,
}

impl Decomposed {
    fn steps_ns(&self) -> u64 {
        self.node_ns + self.build_ns + self.calibrate_ns + self.simulate_ns + self.report_ns
    }
}

/// `run_study(cfg)` as its five public steps, each in a span under one
/// `core.study` span: `Node::new` + caps, `build_graph`, `build_workers`
/// + `PerfModel::calibrate`, `simulate_observed` with `TraceBuilder` +
///   `StatsCollector`, and `RunReport::from_parts`. The report must be
///   byte-identical to `run_study`'s; the callers check.
pub fn decomposed_run(cfg: &RunConfig, tr: &mut Tracer, id: u64) -> Decomposed {
    let root = tr.open("core.study", id, None);
    let s = tr.open("capping.node_setup", id, Some(root));
    let mut node = Node::new(cfg.platform);
    apply_gpu_caps(&mut node, &cfg.gpu_config, cfg.op, cfg.precision).expect("valid caps");
    if let Some((pkg, cap)) = cfg.cpu_cap {
        apply_cpu_cap(&mut node, pkg, cap).expect("valid CPU cap");
    }
    tr.close(s);
    let s = tr.open("linalg.build_graph", id, Some(root));
    let mut reg = DataRegistry::new();
    let graph = cfg.build_graph(&mut reg);
    tr.close(s);
    let s = tr.open("runtime.calibrate", id, Some(root));
    let (workers, capable) = build_workers(node.spec());
    for (pkg, n) in node.cpus_mut().iter_mut().zip(&capable) {
        pkg.set_active_workers(*n);
    }
    let mut footprints = Vec::new();
    distinct_footprints(graph.tasks(), &mut footprints);
    let mut perf = PerfModel::new();
    perf.calibrate(&node, &workers, &footprints);
    tr.close(s);
    let s = tr.open("runtime.simulate", id, Some(root));
    let mut builder = TraceBuilder::new();
    let mut stats = StatsCollector::new();
    {
        let mut observers: [&mut dyn Observer; 2] = [&mut builder, &mut stats];
        simulate_observed(
            &mut node,
            &graph,
            &mut reg,
            SimOptions {
                policy: cfg.scheduler,
                keep_records: cfg.keep_records,
                ..Default::default()
            },
            &mut perf,
            &mut observers,
        );
    }
    let trace = builder.into_trace();
    let stats = stats.into_stats();
    tr.close(s);
    let s = tr.open("core.report", id, Some(root));
    let report = RunReport::from_parts(cfg, &trace, &stats);
    tr.close(s);
    tr.close(root);
    let n = tr.spans.len();
    let d = |k: usize| tr.spans[n - k].dur_ns();
    Decomposed {
        cfg: cfg.clone(),
        report,
        tasks: graph.len(),
        footprints,
        // Spans were pushed root, node, build, calibrate, simulate, report.
        node_ns: d(5),
        build_ns: d(4),
        calibrate_ns: d(3),
        simulate_ns: d(2),
        report_ns: d(1),
    }
}

/// The large-graph probe for workloads without a graph above
/// [`LARGE_TASKS`]: Table II POTRF dp on 32-AMD-4-A100 (37.8 k tasks).
pub fn large_probe() -> RunConfig {
    RunConfig::paper(
        PlatformId::Amd4A100,
        ugpc_hwsim::OpKind::Potrf,
        ugpc_hwsim::Precision::Double,
    )
}

#[derive(Default)]
pub struct LayerMetrics {
    values: BTreeMap<String, (f64, usize)>,
}

impl LayerMetrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 1);
    }

    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.to_string(), (value, samples));
    }

    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Simulator, builder, calibration, capping and report costs from
    /// decomposed runs; `run_study_s[i]` is the plain `run_study` time of
    /// `decs[i]`, for the glue share.
    pub fn decomposition(&mut self, decs: &[&Decomposed], run_study_s: &[f64]) {
        let per_task = |pred: &dyn Fn(usize) -> bool| {
            let (ns, tasks, n) = decs
                .iter()
                .filter(|d| pred(d.tasks))
                .fold((0u64, 0usize, 0usize), |(a, b, c), d| {
                    (a + d.simulate_ns, b + d.tasks, c + 1)
                });
            (ns as f64 / 1e3 / tasks as f64, n)
        };
        let (small, n_small) = per_task(&|t| t < SMALL_TASKS);
        let (large, n_large) = per_task(&|t| t > LARGE_TASKS);
        self.set_n("runtime.sim_us_per_task.small", small, n_small);
        self.set_n("runtime.sim_us_per_task.large", large, n_large);
        let n = decs.len() as f64;
        let sum = |f: &dyn Fn(&Decomposed) -> u64| decs.iter().map(|d| f(d)).sum::<u64>() as f64;
        let tasks: usize = decs.iter().map(|d| d.tasks).sum();
        self.set_n(
            "runtime.calibrate_ms",
            sum(&|d| d.calibrate_ns) / n / 1e6,
            decs.len(),
        );
        self.set_n(
            "linalg.build_us_per_task",
            sum(&|d| d.build_ns) / 1e3 / tasks as f64,
            decs.len(),
        );
        self.set_n(
            "capping.node_setup_us",
            sum(&|d| d.node_ns) / n / 1e3,
            decs.len(),
        );
        self.set_n(
            "core.report_us",
            sum(&|d| d.report_ns) / n / 1e3,
            decs.len(),
        );
        let plain: f64 = run_study_s.iter().sum();
        let steps = sum(&|d| d.steps_ns()) / 1e9;
        self.set_n("core.glue_pct", (plain - steps) / plain * 100.0, decs.len());
    }

    /// `runtime.sched_us_per_task`: dmdas minus eager `simulate_observed`
    /// time per task on the given (largest) decomposed graphs — an
    /// outside estimate of the scheduler's share.
    pub fn sched_from(&mut self, largest: &[&Decomposed], tr: &mut Tracer) {
        let (mut diff_ns, mut tasks) = (0f64, 0usize);
        for (k, d) in largest.iter().enumerate() {
            let eager = decomposed_run(
                &d.cfg.clone().with_scheduler(SchedPolicy::Eager),
                tr,
                1_000_000 + k as u64,
            );
            diff_ns += d.simulate_ns as f64 - eager.simulate_ns as f64;
            tasks += d.tasks;
        }
        self.set_n(
            "runtime.sched_us_per_task",
            diff_ns / 1e3 / tasks as f64,
            largest.len(),
        );
    }

    /// `runtime.des_ns_per_op` (event-queue hold at pending size = the
    /// platform's worker count, default backend) and
    /// `hwsim.gpu_estimate_ns` over the configs' GPU kernels.
    pub fn des_and_estimate(&mut self, decs: &[&Decomposed], seed: u64) {
        let mut platforms: Vec<PlatformId> = decs.iter().map(|d| d.cfg.platform).collect();
        platforms.sort_by_key(|p| p.name());
        platforms.dedup();
        let mut rng = Rng::new(seed);
        let (mut ns, mut ops) = (0f64, 0u64);
        for &pf in &platforms {
            let pending = build_workers(&PlatformSpec::of(pf)).0.len();
            let mut q: EventQueue<u32> = EventQueue::new();
            let incs: Vec<f64> = (0..4096).map(|_| rng.unit() * 1e-3).collect();
            for i in 0..pending {
                q.push(Secs(incs[i % incs.len()]), i as u32);
            }
            let rounds = 1_000_000u64;
            let t = Instant::now();
            for r in 0..rounds {
                let (time, payload) = q.pop().expect("queue holds `pending` events");
                q.push(Secs(time.0 + incs[r as usize & 4095]), black_box(payload));
            }
            ns += t.elapsed().as_nanos() as f64;
            ops += rounds;
        }
        self.set_n("runtime.des_ns_per_op", ns / ops as f64, ops as usize);

        let (mut ns, mut calls) = (0f64, 0u64);
        for d in decs.iter().take(8) {
            let mut node = Node::new(d.cfg.platform);
            apply_gpu_caps(&mut node, &d.cfg.gpu_config, d.cfg.op, d.cfg.precision)
                .expect("valid caps");
            let works: Vec<_> = d
                .footprints
                .iter()
                .filter(|fp| fp.kind.gpu_capable())
                .map(|fp| TaskDesc::new(fp.kind, fp.precision, fp.nb).kernel_work())
                .collect();
            let reps = 20_000 / works.len().max(1) + 1;
            let t = Instant::now();
            for _ in 0..reps {
                for g in node.gpus() {
                    for w in &works {
                        black_box(g.estimate(black_box(w)));
                    }
                }
            }
            ns += t.elapsed().as_nanos() as f64;
            calls += (reps * node.gpus().len() * works.len()) as u64;
        }
        self.set_n("hwsim.gpu_estimate_ns", ns / calls as f64, calls as usize);
    }

    /// Phase p50/p99 from the server's flight recorder.
    pub fn phases(&mut self, report: &ugpc_serve::IntrospectReport) {
        for p in &report.phases {
            let n = p.count as usize;
            self.set_n(
                &format!("serve.phase.{}.p50_us", p.phase),
                p.p50_us as f64,
                n,
            );
            self.set_n(
                &format!("serve.phase.{}.p99_us", p.phase),
                p.p99_us as f64,
                n,
            );
        }
    }

    /// All per-layer metrics in [`PER_LAYER`] order; a missing one is a
    /// bug in the benchmark and is reported as NaN (which fails the run).
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let (v, n) = self.values.get(*name).copied().unwrap_or((f64::NAN, 0));
                Metric {
                    name,
                    unit,
                    value: v,
                    samples: n,
                }
            })
            .collect()
    }
}

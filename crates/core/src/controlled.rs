//! Controlled studies: one measured run with the online sweet-spot
//! controller attached, re-capping GPUs mid-run.
//!
//! [`run_study_controlled`] is [`crate::run_study`] plus a
//! [`ControlPlane`] riding the executor's event stream: the controller
//! observes windowed work/energy per device, scores each window under
//! the spec's objective, and schedules re-cap events through the DES
//! queue — so the caps *change while the DAG executes*, with the energy
//! ledger split at every transition. The static cap configuration in
//! `cfg.gpu_config` sets the controllers' starting caps.
//!
//! Identity: a controlled run never aliases a static one —
//! [`RunConfig::controlled_cache_key`] appends the controller's canonical
//! bytes under a fresh tag, leaving [`RunConfig::cache_key`] untouched.

use crate::{InvalidConfig, RunConfig, RunReport};
use serde::{Deserialize, Serialize};
use ugpc_capping::{apply_cpu_cap, apply_gpu_caps};
use ugpc_control::{ControlPlane, ControllerSpec, DecisionRecord, TickRecord};
use ugpc_hwsim::Node;
use ugpc_runtime::{
    simulate_controlled, DataRegistry, Observer, PerfModel, SimOptions, StatsCollector,
    TraceBuilder,
};

/// The outcome of one controlled run: the usual report plus the
/// controller's telemetry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlledRun {
    pub report: RunReport,
    /// The objective the controller maximized (its wire name).
    pub objective: String,
    /// Every control tick, in event-time order.
    pub ticks: Vec<TickRecord>,
    /// Total re-cap commands applied mid-run.
    pub recaps: usize,
    /// The caps the searches rested at when the run finished (W).
    pub final_caps_w: Vec<f64>,
    /// True if every device's search exhausted its step budget in-run.
    pub converged: bool,
}

/// Execute one measured run under the online controller described by
/// `spec`. Panics on malformed configurations exactly like
/// [`crate::run_study`]; services use [`try_run_study_controlled`].
pub fn run_study_controlled(cfg: &RunConfig, spec: &ControllerSpec) -> ControlledRun {
    run_study_controlled_explained(cfg, spec, &mut []).0
}

/// [`run_study_controlled`] with malformed configurations or controller
/// specs reported as errors instead of panics.
pub fn try_run_study_controlled(
    cfg: &RunConfig,
    spec: &ControllerSpec,
) -> Result<ControlledRun, InvalidConfig> {
    cfg.validate()?;
    spec.validate().map_err(InvalidConfig)?;
    Ok(run_study_controlled(cfg, spec))
}

/// One **static** measured run with explicit per-GPU watt caps instead
/// of the letter-level `CapConfig` — the evaluator behind the
/// offline-sweep-vs-online comparison in `repro control`. `caps_w[g]`
/// is applied to GPU `g` before the run (so it must sit inside the
/// device's supported cap window); everything else matches
/// [`crate::run_study`]. No controller rides this run.
pub fn run_study_at_caps(cfg: &RunConfig, caps_w: &[f64]) -> RunReport {
    let mut node = Node::new(cfg.platform);
    assert_eq!(
        caps_w.len(),
        node.gpus().len(),
        "one explicit cap per GPU on {}",
        cfg.platform.name()
    );
    for (g, &cap) in caps_w.iter().enumerate() {
        node.gpu_mut(g)
            .set_power_limit(ugpc_hwsim::Watts(cap))
            .expect("explicit cap within the device's supported window");
    }
    if let Some((pkg, cap)) = cfg.cpu_cap {
        apply_cpu_cap(&mut node, pkg, cap).expect("CPU cap supported on this platform");
    }
    let mut reg = DataRegistry::new();
    let graph = cfg.build_graph(&mut reg);
    let mut builder = TraceBuilder::new();
    let mut stats = StatsCollector::new();
    {
        let mut observers: Vec<&mut dyn Observer> = vec![&mut builder, &mut stats];
        let mut perf = PerfModel::new();
        ugpc_runtime::simulate_observed(
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
    RunReport::from_parts(cfg, &builder.into_trace(), &stats.into_stats())
}

/// [`run_study_controlled`] with extra observers attached, plus the
/// controller's per-(tick, device) decision journal — every gate taken,
/// every quorum vote, every epsilon-guard outcome, in event-time order.
/// The journal is write-only instrumentation inside [`ControlPlane`], so
/// the [`ControlledRun`] half is identical to the unexplained entry
/// point by construction (the plain variant delegates here and drops
/// the journal).
pub fn run_study_controlled_explained(
    cfg: &RunConfig,
    spec: &ControllerSpec,
    extra: &mut [&mut dyn Observer],
) -> (ControlledRun, Vec<DecisionRecord>) {
    let mut node = Node::new(cfg.platform);
    apply_gpu_caps(&mut node, &cfg.gpu_config, cfg.op, cfg.precision)
        .expect("cap configuration matches the platform");
    if let Some((pkg, cap)) = cfg.cpu_cap {
        apply_cpu_cap(&mut node, pkg, cap).expect("CPU cap supported on this platform");
    }
    let mut plane = ControlPlane::new(spec.clone(), &node);
    let mut reg = DataRegistry::new();
    let graph = cfg.build_graph(&mut reg);
    let mut builder = TraceBuilder::new();
    let mut stats = StatsCollector::new();
    {
        let mut observers: Vec<&mut dyn Observer> = Vec::with_capacity(2 + extra.len());
        observers.push(&mut builder);
        observers.push(&mut stats);
        for o in extra.iter_mut() {
            observers.push(&mut **o);
        }
        let mut perf = PerfModel::new();
        simulate_controlled(
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
            &mut plane,
        );
    }
    let report = RunReport::from_parts(cfg, &builder.into_trace(), &stats.into_stats());
    let run = ControlledRun {
        report,
        objective: spec.objective.name().to_string(),
        ticks: plane.ticks().to_vec(),
        recaps: plane.recaps(),
        final_caps_w: plane.final_caps().iter().map(|c| c.value()).collect(),
        converged: plane.converged(),
    };
    (run, plane.take_journal())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_study;
    use ugpc_control::ObjectiveKind;
    use ugpc_hwsim::{OpKind, PlatformId, Precision};

    fn cfg() -> RunConfig {
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(2)
    }

    fn spec() -> ControllerSpec {
        ControllerSpec::new(ObjectiveKind::GflopsPerWatt).with_period(0.1)
    }

    #[test]
    fn controller_recaps_mid_run_and_improves_efficiency() {
        let baseline = run_study(&cfg());
        let run = run_study_controlled(&cfg(), &spec());
        assert!(run.recaps > 0, "controller never re-capped");
        assert!(!run.ticks.is_empty());
        // Re-caps take effect mid-run: the controlled run's report is not
        // the uncontrolled one.
        assert_ne!(run.report.total_energy_j, baseline.total_energy_j);
        // Chasing Gflop/s/W from TDP must not cost efficiency.
        assert!(
            run.report.efficiency_gflops_w > baseline.efficiency_gflops_w,
            "controlled {} vs static-H {}",
            run.report.efficiency_gflops_w,
            baseline.efficiency_gflops_w
        );
        // Final caps stay within the device window and moved off TDP.
        for &cap in &run.final_caps_w {
            assert!((100.0..=400.0).contains(&cap), "cap {cap}");
        }
        assert!(run.final_caps_w.iter().any(|&c| c < 400.0));
    }

    #[test]
    fn disabled_controller_reproduces_run_study_exactly() {
        let run = run_study_controlled(&cfg(), &spec().disabled());
        let baseline = run_study(&cfg());
        assert_eq!(run.report, baseline);
        assert_eq!(run.recaps, 0);
        assert!(run.ticks.is_empty());
    }

    #[test]
    fn controlled_runs_are_deterministic() {
        let a = run_study_controlled(&cfg(), &spec());
        let b = run_study_controlled(&cfg(), &spec());
        assert_eq!(a.report, b.report);
        assert_eq!(a.final_caps_w, b.final_caps_w);
        assert_eq!(a.recaps, b.recaps);
    }

    #[test]
    fn explicit_caps_reproduce_the_letter_levels() {
        // Setting each GPU's TDP explicitly is the `HHHH` static run.
        let tdp = ugpc_hwsim::GpuSpec::of(ugpc_hwsim::GpuModel::A100Sxm4_40).tdp;
        let at_tdp = run_study_at_caps(&cfg(), &[tdp.value(); 4]);
        assert_eq!(at_tdp, run_study(&cfg()));
        // A deep uniform cap costs time and saves energy.
        let capped = run_study_at_caps(&cfg(), &[216.0; 4]);
        assert!(capped.makespan_s > at_tdp.makespan_s);
        assert!(capped.total_energy_j < at_tdp.total_energy_j);
    }

    #[test]
    fn explained_run_matches_plain_and_journals_every_decision() {
        let plain = run_study_controlled(&cfg(), &spec());
        let (run, journal) = run_study_controlled_explained(&cfg(), &spec(), &mut []);
        // The journal is write-only instrumentation: the run itself is
        // byte-identical to the unexplained path.
        assert_eq!(run.report, plain.report);
        assert_eq!(run.final_caps_w, plain.final_caps_w);
        assert_eq!(run.recaps, plain.recaps);
        // Every (tick, device) pair produced exactly one decision record,
        // and re-cap records match the run's re-cap count.
        let devices = run.final_caps_w.len();
        assert_eq!(journal.len(), run.ticks.len() * devices);
        assert_eq!(journal.iter().filter(|d| d.recap).count(), run.recaps);
        // With the default single-window quorum (`votes: 1`), every
        // ungated decision fires the capper: gated decisions carry a
        // reason and no outcome, scored ones carry both a score and an
        // epsilon-guard outcome.
        for d in &journal {
            assert_eq!(d.gate.is_none(), d.outcome.is_some(), "{d:?}");
            if d.outcome.is_some() {
                assert!(d.score.is_some(), "{d:?}");
            }
        }
        assert!(journal.iter().any(|d| d.outcome.is_some()));
    }

    #[test]
    fn try_variant_validates_both_layers() {
        assert!(try_run_study_controlled(&cfg(), &spec()).is_ok());
        let bad_spec = spec().with_period(-1.0);
        assert!(try_run_study_controlled(&cfg(), &bad_spec).is_err());
        let mut bad_cfg = cfg();
        bad_cfg.nb += 1;
        assert!(try_run_study_controlled(&bad_cfg, &spec()).is_err());
    }
}

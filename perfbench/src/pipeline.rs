//! `pipeline-job`: the paper's Table V path. `AutoViewSystem::run` with
//! the Wide-Deep estimator and RLView on `job_workload(0.05, seed)`, at the
//! Table II JOB defaults with epochs scaled by 0.1 and 400 training pairs;
//! its selection is then published and the JOB queries are served from it.

use crate::check::{reference, same_rows, Checks};
use crate::load::{Budget, Replay, Series, SLICE};
use crate::probe::timed;
use crate::serving::{served_check, serving_layers, set_figures, tally};
use crate::{instance_seed, repeated_setup, Outcome, Run};
use av_core::truth::rewrite_pair;
use av_core::{
    collect_pair_truth, preprocess_and_measure, table2_defaults, AutoViewConfig, AutoViewSystem,
    EndToEndReport, EstimatorKind, SelectorKind, WorkloadKind,
};
use av_cost::{FeatureInput, WideDeep};
use av_engine::Pricing;
use av_equiv::Analyzer;
use av_plan::{Fingerprint, PlanRef};
use av_select::{RlView, SelectionResult};
use av_serve::ServeConfig;
use std::collections::BTreeSet;
use std::time::Instant;

const JOB_SCALE: f64 = 0.05;
/// Half the epochs of the av-bench scale (0.2): a pipeline run takes
/// 1.4-2.9 s, so a 45 s run holds 16-21 of them instead of 5-6.
const EPOCH_SCALE: f64 = 0.1;
const TRAIN_PAIRS: usize = 400;
/// Offered rate of the open loop over the served JOB queries (cache hits):
/// about a third of what one client completes.
const OPEN_QPS: f64 = 100_000.0;
/// Share of the timed phase that whole pipeline runs take; serving rounds
/// take the rest.
const PIPELINE_SHARE: f64 = 0.8;
/// JOB instances the timed pipeline runs take in turn, the run's own seed
/// first, so that `select_s` averages over several inputs rather than
/// one seed's.
const PIPELINE_INSTANCES: usize = 3;

fn config(seed: u64) -> AutoViewConfig {
    let d = table2_defaults(WorkloadKind::Job);
    AutoViewConfig {
        pricing: Pricing::paper_defaults(),
        estimator: EstimatorKind::WideDeep(d.widedeep(seed, EPOCH_SCALE)),
        selector: SelectorKind::RlView(d.rlview(seed, EPOCH_SCALE)),
        max_training_pairs: TRAIN_PAIRS,
        seed,
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (workloads, setup_s) = repeated_setup(|_| {
        (0..PIPELINE_INSTANCES)
            .map(|j| av_workload::job::job_workload(JOB_SCALE, instance_seed(run.seed, j)))
            .collect::<Vec<_>>()
    });
    out.set("setup_s", setup_s);
    let inputs: Vec<(Vec<PlanRef>, AutoViewConfig)> = workloads
        .iter()
        .enumerate()
        .map(|(j, w)| (w.plans(), config(instance_seed(run.seed, j))))
        .collect();
    let workload = &workloads[0];
    let (plans, cfg) = &inputs[0];

    // Timed: whole pipeline runs, the instances in turn, interleaved with
    // serving rounds over the views the first run published. Only the
    // first run's system is kept, for the serving rounds and the checks;
    // later runs keep their report and drop their system.
    let started = Instant::now();
    // Pipeline wall times, by instance.
    let mut times = vec![Vec::new(); PIPELINE_INSTANCES];
    let mut reports: Vec<(usize, EndToEndReport)> = Vec::new();
    let pipeline = |out: &mut Outcome,
                    times: &mut Vec<Vec<f64>>,
                    reports: &mut Vec<(usize, EndToEndReport)>| {
        // Until the replay is tallied, `attempted` counts pipeline runs.
        let j = out.attempted as usize % PIPELINE_INSTANCES;
        let (plans, cfg) = &inputs[j];
        let catalog = workloads[j].catalog.clone();
        let mut sys = AutoViewSystem::new(catalog, plans.clone(), cfg.clone());
        let (report, secs) = timed(|| sys.run());
        out.attempted += 1;
        match report {
            Ok(r) => {
                times[j].push(secs);
                reports.push((j, r));
                Some(sys)
            }
            Err(e) => {
                out.failed += 1;
                out.checks
                    .require(false, || format!("pipeline run failed: {e}"));
                None
            }
        }
    };
    let Some(sys) = pipeline(&mut out, &mut times, &mut reports) else {
        return out;
    };
    let (server, _) = sys
        .publish(ServeConfig::default(), None)
        .expect("publishing the pipeline's selection");
    let replay = Replay::new(&server, plans);
    replay.pass(run.clients);
    let mut series = Series::default();
    while (out.attempted as usize) < PIPELINE_INSTANCES
        || series.is_empty()
        || started.elapsed() < run.measure_for()
    {
        if times.iter().flatten().sum::<f64>() < PIPELINE_SHARE * started.elapsed().as_secs_f64() {
            pipeline(&mut out, &mut times, &mut reports);
        } else {
            series.round(&replay, Budget::Time(SLICE), run.clients, OPEN_QPS);
        }
    }
    out.set("peak_rss_mb", crate::stats::peak_rss_mib());
    tally(&mut out, &replay);
    eprintln!("select_s samples by instance (AutoViewSystem::run): {times:.3?}");
    // The mean, not the median: the host's fast and slow stretches make a
    // run's pipeline times bimodal, and a median snaps to whichever mode
    // holds half the samples, while the mean follows the share of each.
    let all: Vec<f64> = times.iter().flatten().copied().collect();
    let pipeline_s = all.iter().sum::<f64>() / all.len() as f64;
    out.set("select_s", pipeline_s);
    let figures = series.figures();
    set_figures(&mut out, &figures);
    let report = &reports[0].1;
    out.set("select.saved_cost_pct", report.saved_ratio_percent);
    out.checks.require(
        reports.iter().all(|(j, r)| {
            let first = &reports.iter().find(|(k, _)| k == j).expect("own run").1;
            r.saved_ratio_percent.to_bits() == first.saved_ratio_percent.to_bits()
        }),
        || "repeated pipeline runs on the same instance chose differently".into(),
    );

    // Untimed from here: the pipeline once more, one layer at a time (the
    // traced figures when tracing), then the output checks.
    let sched0 = av_sched::global().stats();
    let parts = Decomposed::run(&workload.catalog, plans, cfg);
    let sched1 = av_sched::global().stats();
    check_pipeline(&mut out.checks, &sys, report, &parts, plans);
    served_check(&mut out.checks, &server, &workload.catalog, plans);

    if run.trace {
        let t = &parts.times;
        out.set("equiv.analyze_s", t.analyze);
        out.set("core.preprocess_s", t.preprocess);
        out.set("core.truth_s", t.truth);
        out.set("nn.fit_s", t.fit);
        out.set(
            "nn.fit_samples_per_s",
            (parts.train_pairs * parts.epochs) as f64 / t.fit,
        );
        out.set("cost.matrix_s", t.matrix);
        out.set("select.rlview_s", t.select);
        out.set("select.steps", parts.rl_steps as f64);
        out.set(
            "select.step_us",
            t.select * 1e6 / parts.rl_steps.max(1) as f64,
        );
        out.set("core.deploy_s", t.deploy);
        out.set("sched.tasks", (sched1.tasks - sched0.tasks) as f64);
        out.set("sched.steals", (sched1.steals - sched0.steals) as f64);
        let sum = t.preprocess + t.truth + t.fit + t.matrix + t.select + t.deploy;
        out.set("pipeline.coverage", sum / pipeline_s);
        out.set("trace.select_overhead_s", t.wall - pipeline_s);
        serving_layers(&mut out, run, &server, plans, &figures);
    }
    out
}

#[derive(Debug, Default)]
struct PartTimes {
    analyze: f64,
    preprocess: f64,
    truth: f64,
    fit: f64,
    matrix: f64,
    select: f64,
    deploy: f64,
    /// The whole decomposed pipeline, timers included.
    wall: f64,
}

/// `AutoViewSystem::run`, stage by stage through each crate's public
/// entry point, keeping what the checks need.
struct Decomposed {
    times: PartTimes,
    catalog: av_engine::Catalog,
    pre: av_core::Preprocessed,
    instance: av_ilp::MvsInstance,
    selection: SelectionResult,
    report: EndToEndReport,
    train_pairs: usize,
    epochs: usize,
    rl_steps: usize,
}

impl Decomposed {
    fn run(base: &av_engine::Catalog, plans: &[PlanRef], cfg: &AutoViewConfig) -> Decomposed {
        let (EstimatorKind::WideDeep(wd_cfg), SelectorKind::RlView(rl_cfg)) =
            (&cfg.estimator, &cfg.selector)
        else {
            unreachable!("pipeline-job runs W&R")
        };
        let mut t = PartTimes::default();
        let t0 = std::time::Instant::now();
        let mut catalog = base.clone();
        (_, t.analyze) = timed(|| {
            let mut a = Analyzer::new();
            a.min_query_frequency = 2;
            a.analyze(plans)
        });
        let pre;
        (pre, t.preprocess) = timed(|| preprocess_and_measure(&mut catalog, plans, cfg.pricing));
        let pre = pre.expect("preprocess");
        let (pairs, truth) =
            timed(|| collect_pair_truth(&catalog, &pre, plans, cfg.max_training_pairs, cfg.seed));
        t.truth = truth;
        let pairs = pairs.expect("pair truth");
        let train: Vec<(FeatureInput, f64)> = pairs
            .iter()
            .map(|p| (p.sample.input.clone(), p.sample.cost_qv))
            .collect();
        let model;
        (model, t.fit) = timed(|| WideDeep::fit(&train, wd_cfg.clone()));
        let sys = AutoViewSystem::new(catalog.clone(), plans.to_vec(), cfg.clone());
        let instance;
        (instance, t.matrix) = timed(|| sys.build_instance(&pre, &model));
        let selection;
        (selection, t.select) = timed(|| RlView::run(&instance, rl_cfg.clone()));
        let report;
        (report, t.deploy) = timed(|| sys.execute_selection(&pre, &selection));
        t.wall = t0.elapsed().as_secs_f64();
        Decomposed {
            times: t,
            rl_steps: selection.trajectory.len().saturating_sub(rl_cfg.n1),
            catalog,
            pre,
            instance,
            selection,
            report: report.expect("deploy"),
            train_pairs: train.len(),
            epochs: wd_cfg.epochs,
        }
    }
}

/// The selection is feasible, deterministic, preserves every query's
/// result, and its saved-cost ratio follows from reference executions.
fn check_pipeline(
    checks: &mut Checks,
    sys: &AutoViewSystem,
    report: &EndToEndReport,
    d: &Decomposed,
    plans: &[PlanRef],
) {
    let sel = &d.selection;
    checks.require(
        d.report.saved_ratio_percent.to_bits() == report.saved_ratio_percent.to_bits()
            && d.report.num_views == report.num_views,
        || {
            format!(
                "stage-by-stage pipeline disagrees with AutoViewSystem::run: r_c {} vs {}",
                d.report.saved_ratio_percent, report.saved_ratio_percent
            )
        },
    );
    let chosen: BTreeSet<u64> = sel
        .z
        .iter()
        .enumerate()
        .filter(|(_, &z)| z)
        .map(|(j, _)| Fingerprint::of(&d.pre.analysis.candidates[j].canonical).0)
        .collect();
    let published: BTreeSet<u64> = sys
        .selected_views()
        .iter()
        .map(|v| v.canonical_fp.0)
        .collect();
    checks.require(chosen == published, || {
        "selected views differ from AutoViewSystem::run's".into()
    });
    let num_views = sel.z.iter().filter(|&&z| z).count();
    checks.require(num_views == report.num_views, || {
        format!("num_views {} but sum of z is {num_views}", report.num_views)
    });
    for (i, row) in sel.y.iter().enumerate() {
        for (j, &used) in row.iter().enumerate() {
            checks.require(!used || sel.z[j], || {
                format!("query {i} uses view {j} that is not materialized")
            });
        }
        for &(a, b) in &d.instance.overlaps {
            checks.require(!(row[a] && row[b]), || {
                format!("query {i} uses overlapping views {a} and {b}")
            });
        }
    }

    // Rewrite each query with its views as deployment does, run both forms
    // on the reference executor, and price the selection from those runs.
    let (mut raw, mut benefit) = (0.0, 0.0);
    for (i, q) in plans.iter().enumerate() {
        let original = reference(&d.catalog, q);
        raw += original.report.cost_dollars;
        let mut plan = q.clone();
        let mut used = false;
        for (j, &y) in sel.y[i].iter().enumerate() {
            if y {
                if let Some(next) = rewrite_pair(&d.catalog, &d.pre, &plan, i, j) {
                    plan = next;
                    used = true;
                }
            }
        }
        if used {
            let rewritten = reference(&d.catalog, &plan);
            checks.require(same_rows(&original.batch, &rewritten.batch), || {
                format!("query {i}: rewritten result differs from the original's")
            });
            benefit += original.report.cost_dollars - rewritten.report.cost_dollars;
        }
    }
    let overhead: f64 = sel
        .z
        .iter()
        .zip(&d.pre.overheads)
        .filter(|(&z, _)| z)
        .map(|(_, o)| o)
        .sum();
    let r_c = 100.0 * (benefit - overhead) / raw;
    checks.require(
        (r_c - report.saved_ratio_percent).abs() <= 1e-9 * r_c.abs().max(1.0),
        || {
            format!(
                "r_c from reference runs {r_c} vs reported {}",
                report.saved_ratio_percent
            )
        },
    );
}

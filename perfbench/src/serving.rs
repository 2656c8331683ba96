//! The serving workload `serve-miss` over `wk1(0.2, seed)` (7,720 queries,
//! more distinct plans than the 4,096 cache entries, replayed in order
//! after one warm-up pass, so most requests miss and execute), and the
//! serving- and publish-layer probes of the traced run.

use crate::check::{reference, same_rows, Checks};
use crate::load::{Budget, Replay, Series, ServeFigures, SLICE};
use crate::probe::{per_call_ns, per_call_ns_contended, timed};
use crate::stats::median;
use crate::{instance_seed, repeated_setup, Outcome, Run};
use av_cost::{tables_meta, CostEstimator, FeatureInput, OptimizerEstimator};
use av_engine::{Catalog, ExecCache, Executor, ShardedExecCache};
use av_equiv::Analyzer;
use av_obs::{Obs, QueryRecord, RecordStatus, TenantTag};
use av_online::{reoptimize, ViewLifecycleManager, WindowSnapshot};
use av_plan::{Fingerprint, PlanRef};
use av_serve::{AdmissionController, ReoptSummary, ServeConfig, ViewServer};
use av_trace::{log2_bounds, Histogram, Metrics, Tracer};
use av_workload::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

const WK1_SCALE: f64 = 0.2;
/// Queries per re-optimization window.
const WINDOW: usize = 150;
/// Step between the windows successive timed publishes select from:
/// prime to the 51 windows of the whole WK1.
const WINDOW_STRIDE: usize = 7;
/// Offered rate of the open loop: about a third of what one client
/// completes when most requests miss the cache.
const OPEN_QPS: f64 = 5_000.0;
/// Share of the timed phase that publishes take; serving rounds take the
/// rest.
const PUBLISH_SHARE: f64 = 0.4;
/// WK1 instances the timed publishes select from, the served one
/// included. A seed's windows cost 20-30% more or less to publish than
/// another seed's; `select_s` is the mean over the instances of each
/// one's median publish, which varies less from seed to seed.
const PUBLISH_INSTANCES: usize = 4;
/// Distinct plans a nanosecond-scale probe cycles through.
const PROBE_PLANS: usize = 1000;
/// Batches per nanosecond-scale probe (of `probe::BATCH` calls each).
const PROBE_BATCHES: usize = 200;

/// A server over the workload's catalog in the program's default
/// configuration, untraced — as `AutoViewSystem::publish` builds it.
fn new_server(catalog: &Catalog) -> ViewServer {
    ViewServer::with_tracer(
        catalog.clone(),
        Box::new(OptimizerEstimator::default()),
        ServeConfig::default(),
        Tracer::disabled(),
    )
}

struct Published {
    workload: Workload,
    plans: Vec<PlanRef>,
    server: ViewServer,
    summary: ReoptSummary,
    /// Further WK1 instances the timed publishes select from.
    others: Vec<Workload>,
}

pub fn tally(out: &mut Outcome, replay: &Replay) {
    out.attempted += replay.attempted.load(Ordering::Relaxed);
    out.failed += replay.failed.load(Ordering::Relaxed);
}

pub fn set_figures(out: &mut Outcome, f: &ServeFigures) {
    out.set("service_us", f.service_us);
    out.set("saturated_qps", f.saturated_qps);
    out.set("open_p50_us", f.open_p50_us);
    out.set("open_p90_us", f.open_p90_us);
}

/// `serve-miss`: publish from the first window and warm with one pass,
/// then time publishes on fresh servers interleaved with replay rounds.
pub fn miss(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    // Set-up `i` publishes from window `i * WINDOW_STRIDE` of the served
    // queries, so `setup_s` is a median over windows; the kept set-up 0
    // publishes from the first.
    let (p, setup_s) = repeated_setup(|i| {
        let workload = av_workload::cloud::wk1(WK1_SCALE, run.seed);
        let plans = workload.plans();
        let start = i * WINDOW_STRIDE % (plans.len() / WINDOW) * WINDOW;
        let server = new_server(&workload.catalog);
        let summary = server
            .reoptimize(&plans[start..start + WINDOW], None)
            .expect("initial publish");
        Replay::new(&server, &plans).pass(run.clients);
        let others = (1..PUBLISH_INSTANCES)
            .map(|j| av_workload::cloud::wk1(WK1_SCALE, instance_seed(run.seed, j)))
            .collect();
        Published {
            workload,
            plans,
            server,
            summary,
            others,
        }
    });
    out.set("setup_s", setup_s);

    // Timed: publishes on fresh servers, interleaved with serving rounds.
    // Publishes take the instances in turn; an instance's `k`-th publish
    // selects from window `k * WINDOW_STRIDE` of its disjoint windows, so
    // the samples spread over every query the instances hold.
    let replay = Replay::new(&p.server, &p.plans);
    let instances: Vec<(&Catalog, Vec<PlanRef>)> =
        std::iter::once((&p.workload.catalog, p.plans.clone()))
            .chain(p.others.iter().map(|w| (&w.catalog, w.plans())))
            .collect();
    let inputs: Vec<(&Catalog, Vec<&[PlanRef]>)> = instances
        .iter()
        .map(|(c, plans)| (*c, plans.chunks_exact(WINDOW).collect()))
        .collect();
    let mut series = Series::default();
    // Publish wall times, by instance.
    let mut select = vec![Vec::new(); inputs.len()];
    let mut publishes = 0;
    let started = Instant::now();
    while publishes < inputs.len() || series.is_empty() || started.elapsed() < run.measure_for() {
        if select.iter().flatten().sum::<f64>() < PUBLISH_SHARE * started.elapsed().as_secs_f64() {
            let j = publishes % inputs.len();
            let (catalog, windows) = &inputs[j];
            let window = windows[publishes / inputs.len() * WINDOW_STRIDE % windows.len()];
            publishes += 1;
            let fresh = new_server(catalog);
            let (res, secs) = timed(|| fresh.reoptimize(window, None));
            out.attempted += 1;
            match res {
                Ok(s) => {
                    select[j].push(secs);
                    out.checks.require(
                        s.epoch == 1 && fresh.epoch() == 1 && s.admitted >= 1,
                        || {
                            format!(
                                "publish moved epoch 0 to {}, admitting {} views",
                                s.epoch, s.admitted
                            )
                        },
                    );
                }
                Err(e) => {
                    out.failed += 1;
                    out.checks.require(false, || format!("publish failed: {e}"));
                }
            }
        } else {
            series.round(&replay, Budget::Time(SLICE), run.clients, OPEN_QPS);
        }
    }
    out.set("peak_rss_mb", crate::stats::peak_rss_mib());
    eprintln!("select_s samples by instance (reoptimize): {select:.3?}");
    let select_s = crate::stats::mean_of_medians(&select);
    out.set("select_s", select_s);
    out.checks
        .require(replay.rewrite_hits.load(Ordering::Relaxed) > 0, || {
            "no request routed through a view".into()
        });
    tally(&mut out, &replay);
    let figures = series.figures();
    set_figures(&mut out, &figures);

    let views = p.server.current();
    let r_c = served_check(&mut out.checks, &p.server, &p.workload.catalog, &p.plans);
    out.set("select.saved_cost_pct", saved_pct(r_c, &views));

    if run.trace {
        serving_layers(&mut out, run, &p.server, &p.plans, &figures);
        publish_layers(
            &mut out,
            &p.server,
            &p.workload.catalog,
            &p.plans[..WINDOW],
            &p.summary,
            select_s,
        );
    }
    out
}

/// Raw and served cost of one pass over `plans`, after checking every
/// distinct plan's served result against the reference result of the plan
/// as written over the catalog without views.
pub fn served_check(
    checks: &mut Checks,
    server: &ViewServer,
    base: &Catalog,
    plans: &[PlanRef],
) -> (f64, f64) {
    let mut costs: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for p in plans {
        let fp = Fingerprint::of(p).0;
        if costs.contains_key(&fp) {
            continue;
        }
        let want = reference(base, p);
        let served = match server.execute("check", p) {
            Ok(resp) => {
                checks.require(same_rows(&resp.batch, &want.batch), || {
                    format!(
                        "served result differs from the reference for a {} plan",
                        p.op_keyword()
                    )
                });
                resp.cost_dollars
            }
            Err(e) => {
                checks.require(false, || format!("check request failed: {e}"));
                want.report.cost_dollars
            }
        };
        costs.insert(fp, (want.report.cost_dollars, served));
    }
    plans.iter().fold((0.0, 0.0), |(raw, served), p| {
        let (r, s) = costs[&Fingerprint::of(p).0];
        (raw + r, served + s)
    })
}

/// The saved-cost ratio r_c = (b − o) / c of the live views over one pass.
fn saved_pct((raw, served): (f64, f64), dep: &av_serve::Deployment) -> f64 {
    let overhead: f64 = dep
        .views()
        .iter()
        .map(|(_, v)| v.space_overhead + v.compute_overhead)
        .sum();
    100.0 * (raw - served - overhead) / raw
}

/// Distinct plans of `plans`, first occurrence first, at most `cap`.
fn distinct(plans: &[PlanRef], cap: usize) -> Vec<PlanRef> {
    let mut seen = BTreeSet::new();
    plans
        .iter()
        .filter(|p| seen.insert(Fingerprint::of(p).0))
        .take(cap)
        .cloned()
        .collect()
}

/// The layers of `ViewServer::execute`, each timed on its own: the
/// server's current snapshot and route memo, and stand-alone admission,
/// cache, telemetry and registry objects built with the server's
/// configuration.
pub fn serving_layers(
    out: &mut Outcome,
    run: &Run,
    server: &ViewServer,
    plans: &[PlanRef],
    figures: &ServeFigures,
) {
    let cfg = server.config();
    let dep = server.current();
    // The served regime replayed once more by one client: cache and
    // route-memo hit ratios, pool jobs per request.
    let replay = Replay::new(server, plans);
    let (c0, m0, s0) = (
        server.cache_stats(),
        dep.route_memo_stats(),
        av_sched::global().stats(),
    );
    let requests = plans.len().min(20_000);
    replay.single(Budget::Requests(requests));
    let (c1, m1, s1) = (
        server.cache_stats(),
        dep.route_memo_stats(),
        av_sched::global().stats(),
    );
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    let hit_ratio = ratio(c1.hits - c0.hits, c1.misses - c0.misses);
    out.set("engine.cache_hit_ratio", hit_ratio);
    out.set(
        "serve.route_memo_hit_ratio",
        ratio(m1.0 - m0.0, m1.1 - m0.1),
    );
    out.set(
        "sched.jobs_per_query",
        (s1.jobs - s0.jobs) as f64 / requests as f64,
    );

    let probe = distinct(plans, PROBE_PLANS);
    let n = probe.len();
    let fps: Vec<Fingerprint> = probe.iter().map(|p| Fingerprint::of(p)).collect();
    let routed: Vec<(PlanRef, usize, Fingerprint)> = probe
        .iter()
        .zip(&fps)
        .map(|(p, fp)| dep.route_memo(*fp, p))
        .collect();
    let tenants: Vec<String> = (0..run.clients).map(|t| format!("t{t}")).collect();
    let c = run.clients;

    let fingerprint = per_call_ns(PROBE_BATCHES, |i| {
        black_box(Fingerprint::of(&probe[i % n]));
    });
    out.set("plan.fingerprint_ns", fingerprint);
    let snapshot = per_call_ns(PROBE_BATCHES, |_| {
        black_box(server.current());
    });
    out.set("serve.snapshot_ns", snapshot);

    let admission = AdmissionController::new(cfg.admission);
    let admit = per_call_ns(PROBE_BATCHES, |_| {
        drop(black_box(admission.acquire("t0")));
    });
    out.set("serve.admission_ns", admit);
    out.set(
        "serve.admission_contended_ns",
        per_call_ns_contended(c, PROBE_BATCHES, |t, _| {
            drop(black_box(admission.acquire(&tenants[t])));
        }),
    );

    let memo = per_call_ns(PROBE_BATCHES, |i| {
        black_box(dep.route_memo(fps[i % n], &probe[i % n]));
    });
    out.set("serve.route_memo_ns", memo);
    out.set(
        "serve.route_memo_contended_ns",
        per_call_ns_contended(c, PROBE_BATCHES, |t, i| {
            let k = (i + t * n / c) % n;
            black_box(dep.route_memo(fps[k], &probe[k]));
        }),
    );

    let cache = ShardedExecCache::new(cfg.pricing, ShardedExecCache::DEFAULT_SHARDS)
        .with_capacity(cfg.cache_capacity);
    for (r, _, fp) in &routed {
        cache
            .run_keyed_hit_dop(*fp, dep.catalog(), r, Some(1))
            .expect("cache warm-up");
    }
    let hit = per_call_ns(PROBE_BATCHES, |i| {
        let (r, _, fp) = &routed[i % n];
        black_box(
            cache
                .run_keyed_hit_dop(*fp, dep.catalog(), r, Some(1))
                .is_ok(),
        );
    });
    out.set("engine.cache_hit_ns", hit);
    out.set(
        "engine.cache_hit_contended_ns",
        per_call_ns_contended(c, PROBE_BATCHES, |t, i| {
            let (r, _, fp) = &routed[(i + t * n / c) % n];
            black_box(
                cache
                    .run_keyed_hit_dop(*fp, dep.catalog(), r, Some(1))
                    .is_ok(),
            );
        }),
    );

    let obs = Obs::new(cfg.obs.clone());
    let record = |i: usize| QueryRecord {
        tenant: TenantTag::new("t0"),
        plan_fp: fps[i % n].0,
        view_fp: 0,
        epoch: dep.epoch(),
        status: RecordStatus::Ok,
        route_hits: routed[i % n].1 as u32,
        cache_shard: 0,
        cache_hit: true,
        admit_wait_nanos: 0,
        exec_nanos: 0,
        rows: 0,
        bytes: 0,
        est_cost: f64::NAN,
        meas_cost: 0.0,
    };
    let observe = per_call_ns(PROBE_BATCHES, |i| {
        black_box(obs.observe_query(
            server.tracer().now_nanos(),
            &record(i),
            probe[i % n].op_keyword(),
        ));
    });
    out.set("obs.observe_ns", observe);
    out.set(
        "obs.observe_contended_ns",
        per_call_ns_contended(c, PROBE_BATCHES, |_, i| {
            black_box(obs.observe_query(
                server.tracer().now_nanos(),
                &record(i),
                probe[i % n].op_keyword(),
            ));
        }),
    );

    // The registry updates `execute` makes for one successful request.
    let registry = Metrics::new();
    registry.register_histogram(
        "serve.latency_us",
        Histogram::with_bounds(log2_bounds(0, 26)),
    );
    let updates = |i: usize| {
        registry.observe("serve.dop", 1.0);
        registry.record_seconds("serve.request", 2e-6);
        registry.inc("serve.requests");
        let hits = routed[i % n].1;
        if hits > 0 {
            registry.inc("serve.requests_rewritten");
            registry.add("serve.rewrite_hits", hits as u64);
        }
        registry.observe("serve.query_cost", 1e-6);
        registry.observe("serve.latency_us", 3.0);
    };
    let metrics = per_call_ns(PROBE_BATCHES, updates);
    out.set("trace.metrics_ns", metrics);
    out.set(
        "trace.metrics_contended_ns",
        per_call_ns_contended(c, PROBE_BATCHES, |_, i| updates(i)),
    );

    // Execution of the routed plans at the served degree of parallelism
    // (one client: the whole pool), and the cache's miss path replayed in
    // serving order.
    let dop = av_serve::server::elastic_dop(
        cfg.exec_threads
            .unwrap_or_else(av_engine::par::default_threads),
        1,
    );
    let mut exec_us = Vec::new();
    let (mut ops, mut rows) = (0.0, 0.0);
    for (r, _, _) in &routed {
        let exec = Executor::new(dep.catalog(), cfg.pricing).with_threads(dop);
        let (res, secs) = timed(|| exec.run(r));
        exec_us.push(secs * 1e6);
        ops += r.node_count() as f64;
        rows += res.expect("routed plan executes").report.output_rows as f64;
    }
    out.set("engine.exec_us", median(&exec_us));
    out.set("engine.ops_per_query", ops / n as f64);
    out.set("engine.rows_out_per_query", rows / n as f64);
    let miss_cache = ShardedExecCache::new(cfg.pricing, ShardedExecCache::DEFAULT_SHARDS)
        .with_capacity(cfg.cache_capacity);
    let order: Vec<(PlanRef, Fingerprint)> = plans
        .iter()
        .take(requests)
        .map(|p| {
            let (r, _, fp) = dep.route_memo(Fingerprint::of(p), p);
            (r, fp)
        })
        .collect();
    let mut miss_us = Vec::new();
    for (r, fp) in order.iter().chain(&order) {
        let ((_, was_hit), secs) = timed(|| {
            miss_cache
                .run_keyed_hit_dop(*fp, dep.catalog(), r, Some(dop))
                .expect("routed plan executes")
        });
        if !was_hit {
            miss_us.push(secs * 1e6);
        }
    }
    let miss = median(&miss_us);
    out.set("engine.cache_miss_us", miss);

    let first: Vec<f64> = probe
        .iter()
        .take(100)
        .map(|p| timed(|| dep.route(p)).1 * 1e6)
        .collect();
    out.set("online.route_first_us", median(&first));

    let execute_ns = figures.service_us * 1e3;
    out.set("serve.execute_ns", execute_ns);
    let cache_part = if hit_ratio >= 0.5 { hit } else { miss * 1e3 };
    let parts = [
        fingerprint,
        snapshot,
        admit,
        memo,
        cache_part,
        observe,
        metrics,
    ];
    out.set("serve.coverage", crate::stats::coverage(&parts, execute_ns));
    out.set("loadgen.open_p99_us", figures.open_p99_us);
    out.set("loadgen.lateness_p99_us", figures.lateness_p99_us);

    // One request's layers back to back with a clock read between each:
    // the traced request, against the untraced median.
    let mut traced = Vec::with_capacity(requests);
    for k in 0..requests {
        let p = &plans[k % plans.len()];
        let t0 = Instant::now();
        let fp = Fingerprint::of(p);
        let t1 = Instant::now();
        let permit = admission.acquire("t0");
        let t2 = Instant::now();
        let d = server.current();
        let t3 = Instant::now();
        let (r, hits, rfp) = d.route_memo(fp, p);
        let t4 = Instant::now();
        black_box(
            miss_cache
                .run_keyed_hit_dop(rfp, d.catalog(), &r, Some(dop))
                .is_ok(),
        );
        let t5 = Instant::now();
        let mut rec = record(k);
        rec.route_hits = hits as u32;
        black_box(obs.observe_query(server.tracer().now_nanos(), &rec, p.op_keyword()));
        let t6 = Instant::now();
        updates(k);
        drop(permit);
        let t7 = Instant::now();
        let stages = [
            t1 - t0,
            t2 - t1,
            t3 - t2,
            t4 - t3,
            t5 - t4,
            t6 - t5,
            t7 - t6,
        ];
        traced.push(stages.iter().map(|s| s.as_secs_f64()).sum::<f64>() * 1e6);
    }
    out.set(
        "trace.service_overhead_us",
        median(&traced) - figures.service_us,
    );
}

/// The stages of `ViewServer::reoptimize`, each timed on its own:
/// equivalence analysis, dry-run costing, selection, materialization of
/// the chosen views, and the preflight of the live deployment.
fn publish_layers(
    out: &mut Outcome,
    server: &ViewServer,
    catalog: &Catalog,
    window: &[PlanRef],
    summary: &ReoptSummary,
    select_s: f64,
) {
    let cfg = server.config();
    let t0 = Instant::now();
    let (analysis, analyze_s) = timed(|| {
        let mut a = Analyzer::new();
        a.min_query_frequency = cfg.min_query_frequency;
        a.analyze(window)
    });
    let dryrun = ExecCache::new(cfg.pricing);
    let (costs, dryrun_s) = timed(|| {
        window
            .iter()
            .map(|p| dryrun.cost(catalog, p).expect("dry run"))
            .collect::<Vec<f64>>()
    });
    let (plan, reopt_s) = timed(|| {
        reoptimize(
            catalog,
            &analysis,
            WindowSnapshot::new(window, &costs),
            &OptimizerEstimator::default(),
            &cfg.selector,
            &[],
            &dryrun,
        )
        .expect("re-optimization")
    });
    let mut scratch = catalog.clone();
    let mut lifecycle = ViewLifecycleManager::new(cfg.lifecycle);
    let (_, materialize_s) = timed(|| {
        for v in &plan.create {
            lifecycle
                .admit_owned(
                    &mut scratch,
                    v.plan.clone(),
                    v.canonical_fp,
                    v.expected_benefit,
                    cfg.pricing,
                    None,
                )
                .expect("view materializes");
        }
    });
    // The swap freezes a cost estimate for every window query a view
    // serves, routing each one through the deployment to find out.
    let dep = server.current();
    let estimator = OptimizerEstimator::default();
    let (_, estimates_s) = timed(|| {
        for q in window {
            let (routed, hits) = dep.route(q);
            let tables = routed.base_tables();
            if let Some((_, v)) = dep
                .views()
                .iter()
                .find(|(_, v)| hits > 0 && tables.contains(&v.table_name))
            {
                black_box(estimator.estimate(&FeatureInput {
                    query: q.clone(),
                    view: v.plan.clone(),
                    tables: tables_meta(dep.catalog(), q, &v.plan),
                }));
            }
        }
    });
    let (stats, preflight_s) = timed(|| {
        dep.validate_with(window)
            .expect("live deployment preflights")
    });
    let wall = t0.elapsed().as_secs_f64();

    out.set("equiv.analyze_s", analyze_s);
    out.set("online.dryrun_s", dryrun_s);
    out.set("online.reopt_s", reopt_s);
    out.set("engine.materialize_s", materialize_s);
    out.set("serve.estimates_s", estimates_s);
    out.set("analyze.preflight_s", preflight_s);
    out.set("analyze.proved", stats.proved as f64);
    out.set("analyze.unknown", stats.unknown as f64);
    out.set("serve.admitted", summary.admitted as f64);
    out.set("serve.dropped", summary.dropped as f64);
    out.set("serve.live_views", summary.live_views as f64);
    let parts = [
        analyze_s,
        dryrun_s,
        reopt_s,
        materialize_s,
        estimates_s,
        preflight_s,
    ];
    out.set("publish.coverage", crate::stats::coverage(&parts, select_s));
    out.set("trace.select_overhead_s", wall - select_s);
}

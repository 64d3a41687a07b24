//! Per-layer probes for the traced run. Each probe calls one module's
//! public functions on the workload's own inputs inside a span; the
//! metrics are read back from those spans and from the program's
//! telemetry counters.

use crate::spans::Tracer;
use crate::stats::median;
use crate::Ctx;
use belenos::trace_store::TraceStore;
use belenos::{Experiment, SimOptions};
use belenos_json::Json;
use belenos_runner::{Cache, CacheKey, JobSpec, RunPlan, Runner, Simulate};
use belenos_sparse::solver::ldl::LdlFactor;
use belenos_sparse::CsrMatrix;
use belenos_telemetry::TelemetryBuffer;
use belenos_trace::expand::Expander;
use belenos_trace::{FlatTrace, TraceArtifact};
use belenos_uarch::{build_model, CoreConfig, ModelKind};
use belenos_workloads::ScenarioSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Ops of each scenario's trace the expansion and core-model probes
/// run over.
const FLAT_CAP_OPS: usize = 1 << 20;
/// Shortest total time of a repeated micro-probe.
const MIN_REPEAT_S: f64 = 0.05;
const MIB: f64 = 1024.0 * 1024.0;
const MODELS: [(ModelKind, &str, &str); 3] = [
    (ModelKind::O3, "uarch.o3.run", "uarch.o3.warm"),
    (
        ModelKind::InOrder,
        "uarch.inorder.run",
        "uarch.inorder.warm",
    ),
    (
        ModelKind::Analytic,
        "uarch.analytic.run",
        "uarch.analytic.warm",
    ),
];

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// What the probes run on: the workload's scenarios and options, and
/// its report document; and the telemetry sink the program emits into.
pub struct Inputs<'a> {
    pub scenarios: Vec<ScenarioSpec>,
    pub options: SimOptions,
    pub report: &'a str,
    pub telemetry: &'a TelemetryBuffer,
}

/// Program counters and span fields read back from telemetry JSONL.
#[derive(Debug, Default)]
pub struct Counters {
    pub sums: BTreeMap<String, f64>,
    pub gauges: BTreeMap<String, Vec<f64>>,
    pub job_queue_wait_ms: Vec<f64>,
}

impl Counters {
    pub fn read(jsonl: &str) -> Counters {
        let mut c = Counters::default();
        for line in jsonl.lines() {
            let Ok(ev) = Json::parse(line) else { continue };
            let field = |k: &str| ev.get(k).and_then(Json::as_str).unwrap_or("");
            let name = field("name").to_string();
            let value = ev.get("value").and_then(Json::as_f64);
            match (field("ev"), value) {
                ("counter", Some(v)) => *c.sums.entry(name).or_default() += v,
                ("gauge", Some(v)) => c.gauges.entry(name).or_default().push(v),
                ("span_open", _) if name == "job" => {
                    if let Some(w) = ev.get("queue_wait_s").and_then(Json::as_f64) {
                        c.job_queue_wait_ms.push(w * 1e3);
                    }
                }
                _ => {}
            }
        }
        c
    }

    /// Total of a counter (0 when never emitted).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// Counts the probes accumulate outside spans.
#[derive(Default)]
struct Tally {
    newton_iters: usize,
    non_assembly_ms: f64,
    spmv_ns: f64,
    spmv_nnz: f64,
    expanded_ops: usize,
    store_write_bytes: f64,
    entry_bytes: usize,
    flat_entries: usize,
    model_ops: [u64; 3],
}

/// Runs `f` until at least [`MIN_REPEAT_S`] has passed; returns the
/// repetitions and the seconds they took.
fn repeat(mut f: impl FnMut()) -> (usize, f64) {
    let t = Instant::now();
    let mut n = 0;
    while n == 0 || t.elapsed().as_secs_f64() < MIN_REPEAT_S {
        f();
        n += 1;
    }
    (n, t.elapsed().as_secs_f64())
}

fn timed<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _s = tracer.span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// A well-posed system with `k`'s size and sparsity pattern: every
/// off-diagonal entry −1, every diagonal entry the row's entry count, so
/// the matrix is symmetric and strictly diagonally dominant. (`k` as
/// assembled has no Dirichlet rows and is singular.)
fn well_posed(k: &CsrMatrix) -> CsrMatrix {
    let pattern = k.pattern_arc();
    let (rp, ci) = (pattern.row_ptr(), pattern.col_idx());
    let mut vals = vec![-1.0; ci.len()];
    for r in 0..k.nrows() {
        for idx in rp[r]..rp[r + 1] {
            if ci[idx] as usize == r {
                vals[idx] = (rp[r + 1] - rp[r]) as f64;
            }
        }
    }
    CsrMatrix::with_pattern(pattern, vals).expect("values match the pattern")
}

/// FEM, sparse, trace, store and core-model probes on one scenario;
/// returns the warm-store experiment for the runner probe.
fn scenario_probes(
    ctx: &Ctx,
    s: &ScenarioSpec,
    inputs: &Inputs,
    stores: &(TraceStore, TraceStore),
    tally: &mut Tally,
) -> Experiment {
    let t = &ctx.tracer;
    let mut model = {
        let _s = t.span("fem.build");
        s.build_model().expect("workload scenarios are valid")
    };
    let (solved, solve_ms) = timed(t, "fem.solve", || model.solve());
    let solved = solved.expect("workload scenarios solve");
    let zeros = vec![0.0; model.n_dofs()];
    let (assembled, assemble_ms) = timed(t, "fem.assemble", || model.assemble_at(&zeros));
    let (k, _) = assembled.expect("assembly at the zero iterate");
    tally.newton_iters += solved.total_iterations;
    tally.non_assembly_ms += solve_ms - solved.total_iterations as f64 * assemble_ms;

    let x = vec![1.0; k.ncols()];
    let mut y = vec![0.0; k.nrows()];
    let (reps, secs) = {
        let _s = t.span("sparse.spmv");
        repeat(|| k.spmv_into(&x, &mut y).expect("square system"))
    };
    tally.spmv_ns += secs * 1e9;
    tally.spmv_nnz += (reps * k.nnz()) as f64;
    let a = well_posed(&k);
    {
        let _s = t.span("sparse.ldl");
        let factor = LdlFactor::new(&a).expect("diagonally dominant systems factor");
        std::hint::black_box(factor.solve(&x).expect("rhs matches"));
    }

    let expand = s.expand_config();
    let flat = {
        let _s = t.span("trace.expand");
        let mut flat = FlatTrace::new();
        for op in Expander::with_config(&solved.log, expand.clone()).take(FLAT_CAP_OPS) {
            flat.push(op);
        }
        Arc::new(flat)
    };
    tally.expanded_ops += flat.len();

    let (probe_store, save_store) = stores;
    {
        let _s = t.span("core.prepare_cold");
        Experiment::prepare_with_store(s, None).expect("cold prepare");
    }
    let mark = inputs.telemetry.contents().len();
    {
        let _s = t.span("core.prepare_into_store");
        Experiment::prepare_with_store(s, Some(probe_store)).expect("prepare into the store");
    }
    tally.store_write_bytes +=
        Counters::read(&inputs.telemetry.contents()[mark..]).sum("trace_store_write_bytes");
    let warm = {
        let _s = t.span("core.prepare_warm");
        Experiment::prepare_with_store(s, Some(probe_store)).expect("warm prepare")
    };
    let budget = match inputs.options.max_ops {
        0 => flat.len(),
        n => n.min(flat.len()),
    };
    // The entry as the program wrote it: its bytes on disk, with the
    // flat section it embedded, or none where the trace is past the
    // store's embedding cap.
    let digest = s.stable_digest();
    let bytes = std::fs::read(probe_store.entry_path(digest, &expand))
        .expect("the entry just written reads");
    tally.entry_bytes += bytes.len();
    let artifact = {
        let _s = t.span("trace.decode");
        TraceArtifact::decode(&bytes).expect("the program's entry decodes")
    };
    {
        let _s = t.span("trace.encode");
        std::hint::black_box(artifact.encode());
    }
    {
        let _s = t.span("core.store_save");
        save_store.save(&s.id, &artifact, &expand);
    }
    let (_, handle) = probe_store
        .load(&s.id, digest, &expand)
        .expect("the entry just written loads");
    {
        let _s = t.span("core.flat_read");
        match handle {
            Some(handle) => {
                tally.flat_entries += 1;
                handle.read().expect("flat section reads back");
            }
            // A log-only entry: in place of the read, the program
            // re-expands the log as far as the simulation needs.
            None => {
                let mut prefix = FlatTrace::new();
                for op in Expander::with_config(&solved.log, expand.clone()).take(budget) {
                    prefix.push(op);
                }
                std::hint::black_box(prefix);
            }
        }
    }

    for (i, (kind, run, warm_name)) in MODELS.into_iter().enumerate() {
        let cfg = CoreConfig::gem5_baseline().with_model(kind);
        let mut core = {
            let _s = t.span("uarch.build");
            build_model(&cfg)
        };
        {
            let _s = t.span(run);
            std::hint::black_box(core.run_warm_flat(&flat, 0, budget, 0));
        }
        let mut fresh = {
            let _s = t.span("uarch.build");
            build_model(&cfg)
        };
        {
            let _s = t.span(warm_name);
            std::hint::black_box(fresh.warm_only_flat(&flat, 0, budget, budget as u64));
        }
        tally.model_ops[i] += budget as u64;
    }
    warm
}

/// Runner probes on warm experiments: per-job overhead against direct
/// simulation, the all-hit path, and a disk-tier hit.
fn runner_probes(ctx: &Ctx, exps: &[Experiment], options: &SimOptions, m: &mut Metrics) {
    let t = &ctx.tracer;
    let base = CoreConfig::gem5_baseline();
    let configs = [
        base.clone().with_frequency(1.0),
        base.clone().with_frequency(1.5),
        base.clone().with_frequency(2.5),
        base.with_frequency(3.5),
    ];
    let mut plan = RunPlan::new();
    for w in 0..exps.len() {
        for (c, cfg) in configs.iter().enumerate() {
            plan.push(
                JobSpec::new(
                    w,
                    format!("cfg{c}"),
                    options.configure(cfg.clone()),
                    options.max_ops,
                )
                .with_sampling(options.sampling.clone()),
            );
        }
    }
    let direct = || {
        for job in plan.jobs() {
            std::hint::black_box(Simulate::simulate(
                &exps[job.workload],
                &job.config,
                job.max_ops,
                &job.sampling,
            ));
        }
    };
    direct(); // Fill the trace memo and model pools first.
    let runner = Runner::isolated(1);
    let ((results, summary), run_ms) =
        timed(t, "runner.run", || runner.run_with_summary(exps, &plan));
    assert_eq!(summary.simulated, plan.len(), "every probe job is distinct");
    let ((), direct_ms) = timed(t, "runner.direct", direct);
    let (_, hit_ms) = timed(t, "runner.hit", || runner.run(exps, &plan));
    let jobs = plan.len() as f64;
    m.put(
        "runner.overhead_ms_per_job",
        (run_ms - direct_ms) / jobs,
        "ms",
    );
    m.put("runner.hit_us_per_job", hit_ms * 1e3 / jobs, "us");

    let dir = ctx.work.join("probe-cache");
    let keys: Vec<CacheKey> = plan
        .jobs()
        .iter()
        .map(|job| {
            let w = &exps[job.workload];
            CacheKey::new(
                w.workload_id(),
                w.fingerprint(),
                &job.config,
                job.max_ops,
                &job.sampling,
            )
        })
        .collect();
    let disk = Cache::with_disk(&dir);
    for (key, r) in keys.iter().zip(&results) {
        disk.insert(key.clone(), &r.stats);
    }
    let fresh = Cache::with_disk(&dir);
    let (hits, lookup_ms) = timed(t, "runner.disk_hit", || {
        keys.iter().filter(|k| fresh.lookup(k).is_some()).count()
    });
    assert_eq!(hits, keys.len(), "every stored entry hits on disk");
    m.put("runner.disk_hit_us", lookup_ms * 1e3 / jobs, "us");
}

/// JSON parse and render throughput on the workload's report document.
fn json_probes(ctx: &Ctx, report: &str, m: &mut Metrics) {
    let mb = report.len() as f64 / 1e6;
    let (n, secs) = {
        let _s = ctx.tracer.span("json.parse");
        repeat(|| {
            std::hint::black_box(Json::parse(report).expect("reports are JSON"));
        })
    };
    m.put("json.parse_mb_s", mb * n as f64 / secs, "MB/s");
    let doc = Json::parse(report).expect("reports are JSON");
    let (n, secs) = {
        let _s = ctx.tracer.span("json.render");
        repeat(|| {
            std::hint::black_box(doc.pretty());
        })
    };
    m.put("json.render_mb_s", mb * n as f64 / secs, "MB/s");
}

/// Runs every module probe on the workload's inputs.
pub fn probe(ctx: &Ctx, inputs: &Inputs) -> Metrics {
    let t = &ctx.tracer;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let stores = (
        TraceStore::at(ctx.work.join("probe-store")),
        TraceStore::at(ctx.work.join("probe-save")),
    );
    let _op = t.op(ctx.next_op(), "probe.layers");
    let exps: Vec<Experiment> = inputs
        .scenarios
        .iter()
        .map(|s| scenario_probes(ctx, s, inputs, &stores, &mut tally))
        .collect();

    let med = |name: &str| median(&t.durations(name)).unwrap_or(0.0);
    m.put("fem.solve_ms", t.total_ms("fem.solve"), "ms");
    m.put("fem.newton_iters", tally.newton_iters as f64, "count");
    m.put("fem.assemble_ms", t.total_ms("fem.assemble"), "ms");
    m.put("fem.non_assembly_ms", tally.non_assembly_ms, "ms");
    m.put(
        "sparse.spmv_ns_per_nnz",
        tally.spmv_ns / tally.spmv_nnz,
        "ns",
    );
    m.put("sparse.ldl_ms", t.total_ms("sparse.ldl"), "ms");
    m.put(
        "trace.expand_ns_per_op",
        t.total_ms("trace.expand") * 1e6 / tally.expanded_ops.max(1) as f64,
        "ns",
    );
    m.put("trace.encode_ms", t.total_ms("trace.encode"), "ms");
    m.put("trace.decode_ms", t.total_ms("trace.decode"), "ms");
    m.put("trace.entry_mb", tally.entry_bytes as f64 / MIB, "MiB");
    m.put(
        "core.prepare_cold_ms",
        t.total_ms("core.prepare_cold"),
        "ms",
    );
    m.put("core.store_save_ms", t.total_ms("core.store_save"), "ms");
    m.put("core.store_write_mb", tally.store_write_bytes / MIB, "MiB");
    m.put(
        "core.prepare_warm_ms",
        t.total_ms("core.prepare_warm"),
        "ms",
    );
    m.put("core.flat_read_ms", t.total_ms("core.flat_read"), "ms");
    for (i, (_, run, warm)) in MODELS.into_iter().enumerate() {
        let ops = tally.model_ops[i].max(1) as f64;
        let kind = run.trim_end_matches(".run");
        m.put(
            &format!("{kind}.ns_per_op"),
            t.total_ms(run) * 1e6 / ops,
            "ns",
        );
        m.put(
            &format!("{kind}.warm_ns_per_op"),
            t.total_ms(warm) * 1e6 / ops,
            "ns",
        );
    }
    m.put("uarch.build_us", med("uarch.build") * 1e3, "us");
    eprintln!(
        "trace store entries: {} with a flat section, {} log-only, {:.1} MiB",
        tally.flat_entries,
        exps.len() - tally.flat_entries,
        tally.entry_bytes as f64 / MIB
    );
    runner_probes(ctx, &exps, &inputs.options, &mut m);
    json_probes(ctx, inputs.report, &mut m);
    m
}

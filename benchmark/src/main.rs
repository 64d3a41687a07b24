//! Belenos benchmark: three seeded workloads timed end to end, and a
//! traced run that times each layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fe-cold|sweep-warm|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). See `benchmark/README.md`.

mod campaigns;
mod check;
mod http;
mod inputs;
mod layers;
mod serve;
mod spans;
mod stats;
mod sys;

use belenos_json::Json;
use belenos_telemetry::Telemetry;
use check::Digest;
use layers::Metrics;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Set-up repetitions per run; `setup_s` is their median. A
/// `serve-mixed` set-up takes a tenth of a second, so it repeats more.
const SETUP_REPS: usize = 3;
const SERVE_SETUP_REPS: usize = 15;
/// Where runs keep their scratch files (removed when the run ends) and
/// their span and telemetry logs (kept), relative to the working
/// directory.
const WORK_ROOT: &str = ".bench_work";
const OUT_ROOT: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FeCold,
    SweepWarm,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "fe-cold" => Some(Workload::FeCold),
            "sweep-warm" => Some(Workload::SweepWarm),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FeCold => "fe-cold",
            Workload::SweepWarm => "sweep-warm",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Everything a workload run shares.
pub struct Ctx {
    workload: Workload,
    pub seed: u64,
    seconds: f64,
    trace: bool,
    /// This run's scratch directory.
    pub work: PathBuf,
    /// The machine's parallelism.
    cpus: usize,
    /// Simulation threads (and serve clients): at most 2, at most the
    /// machine's parallelism.
    pub threads: usize,
    pub tracer: Tracer,
    ops: AtomicU64,
}

impl Ctx {
    /// The process-wide trace store directory.
    pub fn store_dir(&self) -> PathBuf {
        self.work.join("traces")
    }

    /// A fresh operation id.
    pub fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// One timed phase: every attempted operation's wall time, failures,
/// the phase's length, the process CPU it used, and RSS high-water marks
/// (per operation, or per large operation where operations overlap).
#[derive(Debug, Default)]
pub struct Phase {
    pub op_ms: Vec<f64>,
    /// Operation wall times by request class, where a workload has
    /// classes (`serve-mixed`).
    pub class_ms: BTreeMap<&'static str, Vec<f64>>,
    pub peak_rss_mib: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub timed_s: f64,
    pub cpu_s: f64,
    /// Host CPU seconds stolen by the hypervisor during the phase.
    pub steal_s: f64,
}

/// What a run prints.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    digest: Digest,
}

fn parse_args() -> Result<(Workload, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

/// Removes scratch directories of earlier runs that were killed before
/// they could clean up (their process id no longer exists).
fn remove_stale(root: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_string_lossy()
            .rsplit('-')
            .next()
            .map(str::to_string);
        let alive = pid.is_some_and(|p| std::path::Path::new("/proc").join(p).exists());
        if !alive {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Removes the run's scratch directory, also when the run panics.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload fe-cold|sweep-warm|serve-mixed --seed N --seconds S --trace 0|1\n{e}");
            std::process::exit(2);
        }
    };
    // The program reads its knobs from BELENOS_* variables; the
    // benchmark sets the ones it needs and no others leak in.
    for (key, _) in std::env::vars() {
        if key.starts_with("BELENOS_") {
            std::env::remove_var(&key);
        }
    }
    let root = std::env::current_dir()
        .expect("working directory")
        .join(WORK_ROOT);
    remove_stale(&root);
    let work = root.join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).expect("create the scratch directory");
    let _cleanup = WorkDir(work.clone());
    // Process-wide and first-install-wins: the result cache's disk tier
    // (used by the server) and the trace store.
    std::env::set_var("BELENOS_CACHE_DIR", work.join("cache"));
    assert!(
        belenos::trace_store::install_dir(work.join("traces")),
        "trace store directory already installed"
    );
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        work,
        cpus,
        threads: cpus.min(2),
        tracer: Tracer::new(false),
        ops: AtomicU64::new(0),
    };
    let outcome = run(&ctx);
    println!(
        "reports digest: {:016x} over {} distinct report(s)",
        outcome.digest.value(),
        outcome.digest.len()
    );
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name}: {value} {unit}");
    }
    let metrics = Json::Obj(
        outcome
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
}

fn run(ctx: &Ctx) -> Outcome {
    let mut digest = Digest::default();
    if !ctx.trace {
        let (setup_s, phase) = match ctx.workload {
            Workload::FeCold | Workload::SweepWarm => {
                let (setup_s, w) = campaign_setup(ctx);
                (setup_s, campaigns::timed(ctx, &w, ctx.seconds, &mut digest))
            }
            Workload::ServeMixed => {
                let (setup_s, stream, server) = serve::setup(ctx, SERVE_SETUP_REPS);
                let cursor = AtomicUsize::new(0);
                let mut served = serve::Served::default();
                let mut phase =
                    serve::timed(ctx, &server, &stream, &cursor, ctx.seconds, &mut served);
                server.stop();
                phase.failed += serve::verify(ctx, &stream, &served, &mut digest);
                (setup_s, phase)
            }
        };
        return Outcome {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: end_to_end(ctx, &setup_s, &phase),
            digest,
        };
    }
    traced(ctx, digest)
}

fn campaign_setup(ctx: &Ctx) -> (Vec<f64>, campaigns::Prepared) {
    match ctx.workload {
        Workload::FeCold => campaigns::setup_fe_cold(ctx, SETUP_REPS),
        _ => campaigns::setup_sweep_warm(ctx, SETUP_REPS),
    }
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(ctx: &Ctx, setup_s: &[f64], phase: &Phase) -> Metrics {
    let mut m = Metrics::default();
    let ops = phase.attempted.max(1) as f64;
    let (p90, beyond) = stats::percentile(&phase.op_ms, 90).unwrap_or((0.0, 0));
    m.put("setup_s", stats::median(setup_s).unwrap_or(0.0), "s");
    m.put(
        "op_p50_ms",
        stats::median(&phase.op_ms).unwrap_or(0.0),
        "ms",
    );
    m.put("op_p90_ms", p90, "ms");
    m.put("ops_per_s", phase.attempted as f64 / phase.timed_s, "1/s");
    m.put("cpu_ms_per_op", phase.cpu_s * 1e3 / ops, "ms");
    m.put(
        "peak_rss_mb",
        stats::median(&phase.peak_rss_mib).unwrap_or_else(sys::peak_rss_mib),
        "MiB",
    );
    m.put(
        "ok_rate",
        (phase.attempted - phase.failed) as f64 / ops,
        "fraction",
    );
    let sorted = |xs: &[f64]| {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        s
    };
    eprintln!(
        "{}: {} operation(s) in {:.2} s, {} failed; op_ms sorted {:.1?}; \
         peak RSS MiB sorted {:.0?}; host steal {:.1}% of the CPUs; \
         op_p90 has {beyond} sample(s) beyond it{}",
        ctx.workload.name(),
        phase.attempted,
        phase.timed_s,
        phase.failed,
        sorted(&phase.op_ms),
        sorted(&phase.peak_rss_mib),
        100.0 * phase.steal_s / (phase.timed_s * ctx.cpus as f64),
        if beyond < stats::TAIL_FLOOR {
            " (fewer than 10: a bound, not a measured tail)"
        } else {
            ""
        }
    );
    for (class, ms) in &phase.class_ms {
        eprintln!(
            "{class} operations: {}, p50 {:.1} ms, p90 {:.1} ms",
            ms.len(),
            stats::median(ms).unwrap_or(0.0),
            stats::percentile(ms, 90).map_or(0.0, |(v, _)| v)
        );
    }
    m
}

/// The traced run: half the time untraced, half with the benchmark's
/// spans and the program's telemetry sink on, then the layer probes.
fn traced(ctx: &Ctx, mut digest: Digest) -> Outcome {
    let half = ctx.seconds / 2.0;
    let (buffer_tele, buffer) = Telemetry::to_buffer();
    let mut m = Metrics::default();
    let (untraced, traced, ops_end, inputs_owned, report);
    let mut failed_extra = 0;
    match ctx.workload {
        Workload::FeCold | Workload::SweepWarm => {
            let (_, w) = campaign_setup(ctx);
            untraced = campaigns::timed(ctx, &w, half, &mut digest);
            start_tracing(ctx, buffer_tele);
            traced = campaigns::timed(ctx, &w, half, &mut digest);
            ops_end = buffer.contents().len();
            if w.cold_store {
                std::fs::remove_dir_all(ctx.store_dir()).expect("empty the trace store");
            }
            serve_probe(ctx, &w.text, &mut m);
            let spec = belenos::CampaignSpec::parse(&w.text).expect("generated specs are valid");
            inputs_owned = (campaigns::scenarios_of(&w.text), spec.options);
            report = w.reference;
        }
        Workload::ServeMixed => {
            let (_, stream, server) = serve::setup(ctx, SERVE_SETUP_REPS);
            let cursor = AtomicUsize::new(0);
            let mut served = serve::Served::default();
            untraced = serve::timed(ctx, &server, &stream, &cursor, half, &mut served);
            server.stop();
            start_tracing(ctx, buffer_tele);
            let server = serve::start(ctx.threads);
            traced = serve::timed(ctx, &server, &stream, &cursor, half, &mut served);
            ops_end = buffer.contents().len();
            serve_stats(ctx, &server, &mut m);
            server.stop();
            let class = |names: &[&str]| -> Vec<f64> {
                names
                    .iter()
                    .filter_map(|n| traced.class_ms.get(n))
                    .flatten()
                    .copied()
                    .collect()
            };
            put_class_p50s(&mut m, &class(&["fresh", "large"]), &class(&["repeat"]));
            failed_extra += serve::verify(ctx, &stream, &served, &mut digest);
            let first = &stream.specs[0];
            let spec = belenos::CampaignSpec::parse(first).expect("generated specs are valid");
            inputs_owned = (campaigns::scenarios_of(first), spec.options);
            report = campaigns::run_campaign(ctx, first)
                .expect("first fresh spec runs")
                .json;
        }
    }
    let inputs = layers::Inputs {
        scenarios: inputs_owned.0,
        options: inputs_owned.1,
        report: &report,
        telemetry: &buffer,
    };
    let probes = layers::probe(ctx, &inputs);
    let events = buffer.contents();
    let ops = layers::Counters::read(&events[..ops_end]);
    let med = |name: &str| stats::median(&ctx.tracer.durations(name)).unwrap_or(0.0);

    let traced_ops = traced.attempted.max(1) as f64;
    m.0.extend(probes.0);
    m.put(
        "core.campaign_prepare_ms",
        med("core.campaign_prepare"),
        "ms",
    );
    m.put("core.campaign_run_ms", med("core.campaign_run"), "ms");
    m.put("core.report_render_ms", med("core.report_render"), "ms");
    m.put("core.spec_parse_us", med("core.spec_parse") * 1e3, "us");
    m.put(
        "uarch.sim_committed_ops",
        ops.sum("sim_committed_ops") / traced_ops,
        "count",
    );
    m.put(
        "uarch.o3.ff_cycles_skipped",
        ops.sum("ff_cycles_skipped") / traced_ops,
        "count",
    );
    m.put(
        "runner.queue_wait_p50_ms",
        stats::median(&ops.job_queue_wait_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "runner.utilization",
        ops.gauges
            .get("worker_utilization")
            .and_then(|g| stats::median(g))
            .unwrap_or(0.0),
        "fraction",
    );
    m.put(
        "runner.jobs_simulated",
        ops.sum("jobs_simulated") / traced_ops,
        "count",
    );
    m.put(
        "runner.cache_hits",
        ops.sum("cache_hits") / traced_ops,
        "count",
    );
    let p50 = |p: &Phase| stats::median(&p.op_ms).unwrap_or(0.0);
    m.put(
        "telemetry.overhead_frac",
        p50(&traced) / p50(&untraced) - 1.0,
        "fraction",
    );
    m.0.sort_by(|a, b| a.0.cmp(&b.0));

    for line in ctx.tracer.summary() {
        eprintln!("{line}");
    }
    for (name, total) in &ops.sums {
        eprintln!(
            "counter {name}: {total} over {} traced operation(s)",
            traced.attempted
        );
    }
    write_logs(ctx, &events);
    Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed + failed_extra,
        metrics: m,
        digest,
    }
}

fn start_tracing(ctx: &Ctx, sink: Telemetry) {
    belenos_telemetry::install(sink);
    ctx.tracer.set_enabled(true);
}

/// Serve metrics from the server's `/v1/stats` and health checks.
fn serve_stats(ctx: &Ctx, server: &serve::Running, m: &mut Metrics) {
    let healthz: Vec<f64> = (0..5)
        .map(|_| {
            let _s = ctx.tracer.span("serve.healthz");
            serve::healthz_ms(server.addr)
        })
        .collect();
    let doc = serve::stats(server);
    let num = |outer: &str, inner: &str| {
        doc.get(outer)
            .and_then(|o| o.get(inner))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let med = |name: &str| stats::median(&ctx.tracer.durations(name)).unwrap_or(0.0);
    m.put(
        "serve.healthz_ms",
        stats::median(&healthz).unwrap_or(0.0),
        "ms",
    );
    m.put("serve.submit_ms", med("serve.submit"), "ms");
    m.put("serve.events_ms", med("serve.events"), "ms");
    m.put("serve.report_ms", med("serve.report"), "ms");
    m.put(
        "serve.job_wall_p50_ms",
        num("job_wall_s", "p50") * 1e3,
        "ms",
    );
    m.put(
        "serve.queue_wait_p50_ms",
        num("queue_wait_s", "p50") * 1e3,
        "ms",
    );
    m.put("serve.joined", num("jobs", "joined"), "count");
}

/// Serves a campaign workload's own spec: one cold (fresh) submission,
/// then repeats answered from the result cache.
fn serve_probe(ctx: &Ctx, spec: &str, m: &mut Metrics) {
    let server = serve::start(ctx.threads);
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            serve::probe_operation(ctx, &server, spec).expect("served probe campaign");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    serve_stats(ctx, &server, m);
    server.stop();
    put_class_p50s(m, &ms[..1], &ms[1..]);
}

/// Served operation times by class: a spec's first sending, and repeats.
fn put_class_p50s(m: &mut Metrics, fresh: &[f64], repeat: &[f64]) {
    m.put(
        "serve.fresh_op_p50_ms",
        stats::median(fresh).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "serve.repeat_op_p50_ms",
        stats::median(repeat).unwrap_or(0.0),
        "ms",
    );
}

/// Keeps the spans and the telemetry events of a traced run.
fn write_logs(ctx: &Ctx, telemetry: &str) {
    let out = PathBuf::from(OUT_ROOT);
    std::fs::create_dir_all(&out).expect("create the log directory");
    let stem = format!("{}-seed{}", ctx.workload.name(), ctx.seed);
    let spans = out.join(format!("{stem}-spans.jsonl"));
    ctx.tracer.write_jsonl(&spans).expect("write spans");
    std::fs::write(out.join(format!("{stem}-telemetry.jsonl")), telemetry)
        .expect("write telemetry");
    eprintln!("spans written to {}", spans.display());
}

//! The two campaign workloads, `fe-cold` and `sweep-warm`: one
//! operation is one campaign run from its spec text through to its
//! rendered JSON report.

use crate::check::{check, Digest};
use crate::inputs::{fe_cold_spec, sweep_warm_spec};
use crate::{Ctx, Phase};
use belenos::trace_store::TraceStore;
use belenos::{CampaignSpec, Experiment};
use belenos_runner::{parallel_jobs, Runner};
use belenos_workloads::ScenarioSpec;
use std::time::Instant;

/// A campaign workload after set-up: its spec text and the reference
/// report the same workload produced with telemetry off.
pub struct Prepared {
    pub text: String,
    pub reference: String,
    /// Empty the trace store before every operation (`fe-cold`).
    pub cold_store: bool,
}

/// A rendered campaign report and its count of failed simulations.
pub struct Rendered {
    pub json: String,
    pub failures: usize,
}

/// Parses, prepares, runs and renders one campaign, each step in its
/// own span. The telemetry roll-up is dropped, so the rendering is the
/// same with a sink on or off.
pub fn run_campaign(ctx: &Ctx, text: &str) -> Result<Rendered, String> {
    let spec = {
        let _s = ctx.tracer.span("core.spec_parse");
        CampaignSpec::parse(text).map_err(|e| e.to_string())?
    };
    let campaign = {
        let _s = ctx.tracer.span("core.campaign_prepare");
        spec.prepare().map_err(|e| e.to_string())?
    };
    let mut report = {
        let _s = ctx.tracer.span("core.campaign_run");
        campaign.run(&Runner::isolated(ctx.threads))
    };
    report.rollup = None;
    let failures = report.failures().len();
    let _s = ctx.tracer.span("core.report_render");
    Ok(Rendered {
        json: report.to_json(),
        failures,
    })
}

fn reference_run(ctx: &Ctx, text: &str) -> String {
    let r = run_campaign(ctx, text).unwrap_or_else(|e| panic!("reference campaign failed: {e}"));
    assert_eq!(
        r.failures, 0,
        "reference campaign recorded failed simulations"
    );
    r.json
}

fn wipe(dir: &std::path::Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("empty the trace store");
    }
}

/// `fe-cold` set-up: generate the spec from the seed and run it once on
/// an empty store, which yields the reference report. Repeated, so the
/// set-up time is a median.
pub fn setup_fe_cold(ctx: &Ctx, reps: usize) -> (Vec<f64>, Prepared) {
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..reps {
        wipe(&ctx.store_dir());
        let t = Instant::now();
        let text = fe_cold_spec(ctx.seed);
        let reference = reference_run(ctx, &text);
        times.push(t.elapsed().as_secs_f64());
        prepared = Some(Prepared {
            text,
            reference,
            cold_store: true,
        });
    }
    (times, prepared.expect("at least one set-up"))
}

/// `sweep-warm` set-up: generate the spec and populate a trace store
/// with its scenarios. Each repetition fills a fresh directory; the last
/// one is the process's store, which the reference run then reads.
pub fn setup_sweep_warm(ctx: &Ctx, reps: usize) -> (Vec<f64>, Prepared) {
    let mut times = Vec::new();
    let mut text = String::new();
    for rep in 0..reps {
        let last = rep + 1 == reps;
        let dir = if last {
            ctx.store_dir()
        } else {
            ctx.work.join(format!("setup-store-{rep}"))
        };
        wipe(&dir);
        let t = Instant::now();
        text = sweep_warm_spec();
        populate(&TraceStore::at(&dir), &scenarios_of(&text), ctx.threads);
        times.push(t.elapsed().as_secs_f64());
        if !last {
            wipe(&dir);
        }
    }
    let reference = reference_run(ctx, &text);
    let prepared = Prepared {
        text,
        reference,
        cold_store: false,
    };
    (times, prepared)
}

/// Prepares every scenario into `store` on the program's batch pool.
fn populate(store: &TraceStore, scenarios: &[ScenarioSpec], threads: usize) {
    let prepared = parallel_jobs(
        "populate",
        Some(threads),
        scenarios,
        |s| s.id.clone(),
        |s| Experiment::prepare_with_store(s, Some(store)).map(drop),
    );
    for r in prepared {
        r.and_then(|p| p.map_err(|e| e.to_string()))
            .unwrap_or_else(|e| panic!("populating the trace store: {e}"));
    }
}

/// Runs operations until `seconds` have passed; every operation's report
/// is checked against the reference.
pub fn timed(ctx: &Ctx, w: &Prepared, seconds: f64, digest: &mut Digest) -> Phase {
    let mut phase = Phase::default();
    digest.add("reference", &w.reference);
    let (cpu0, steal0) = (crate::sys::cpu_seconds(), crate::sys::steal_seconds());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        if w.cold_store {
            wipe(&ctx.store_dir());
        }
        let op = ctx.next_op();
        // Each operation is one campaign run, as a fresh `belenos
        // campaign run` process would do it: without the trim, its RSS
        // mark also held the free memory earlier operations left in the
        // allocator, and moved by 20% between runs.
        crate::sys::release_free_heap();
        crate::sys::reset_peak_rss();
        let started = Instant::now();
        let result = {
            let _op = ctx.tracer.op(op, "op");
            run_campaign(ctx, &w.text)
        };
        phase.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
        phase.peak_rss_mib.push(crate::sys::peak_rss_mib());
        phase.attempted += 1;
        let verdict = result
            .and_then(|r| check(&r.json, r.failures, &w.reference).map_err(|m| m.to_string()));
        if let Err(e) = verdict {
            phase.failed += 1;
            eprintln!("operation {op} failed: {e}");
        }
    }
    phase.timed_s = t0.elapsed().as_secs_f64();
    phase.cpu_s = crate::sys::cpu_seconds() - cpu0;
    phase.steal_s = crate::sys::steal_seconds() - steal0;
    phase
}

/// The scenarios a campaign spec text resolves to, for the layer probes.
pub fn scenarios_of(text: &str) -> Vec<ScenarioSpec> {
    let spec = CampaignSpec::parse(text).expect("generated specs are valid");
    let mut out: Vec<ScenarioSpec> = Vec::new();
    for &analysis in &spec.analyses {
        for s in spec.workloads.specs_for(analysis) {
            if !out.iter().any(|o| o.stable_digest() == s.stable_digest()) {
                out.push(s);
            }
        }
    }
    out
}

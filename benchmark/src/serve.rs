//! The `serve-mixed` workload: an in-process server driven by two
//! closed-loop clients. One operation is POST `/v1/campaigns`, then the
//! job's `/events` stream until it closes, then GET `/report`.

use crate::campaigns::run_campaign;
use crate::check::{check, Digest};
use crate::http::{expect_ok, request};
use crate::inputs::{serve_stream, Class, ServeStream, SERVE_ROUND};
use crate::{Ctx, Phase};
use belenos_json::Json;
use belenos_runner::parallel_jobs;
use belenos_serve::{ServeConfig, Server, ServerHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Requests generated per run; far more than a run can send.
const STREAM_LEN: usize = 20_000;
/// Closed-loop clients (each waits for its reply before sending again).
const CLIENTS: usize = 2;

pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Binds a server on an ephemeral loopback port and waits until it
/// answers its health check. At most `threads` simulations run at once:
/// one per concurrent job.
pub fn start(threads: usize) -> Running {
    let running = bind(threads);
    running.health_check();
    running
}

/// Binds and starts a server; connections queue from here on.
fn bind(threads: usize) -> Running {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: threads,
        runner_threads: 1,
        queue_depth: 32,
        ..ServeConfig::default()
    })
    .expect("bind a loopback server");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Running {
        addr,
        handle,
        thread,
    }
}

impl Running {
    fn health_check(&self) {
        expect_ok(self.addr, "GET", "/v1/healthz", None).expect("server health check");
    }

    /// Drains and joins the server.
    pub fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server run");
    }
}

/// Served reports, keyed by the distinct spec they answer.
#[derive(Default)]
pub struct Served {
    by_spec: BTreeMap<usize, Vec<(u64, String)>>,
}

/// Set-up: generate the request stream from the seed and bind the
/// server. Repeated, so the set-up time is a median; the last server
/// stays up. The health check after each bind is not timed: its wait is
/// the accept loop's poll sleep, 0-20 ms at random.
pub fn setup(ctx: &Ctx, reps: usize) -> (Vec<f64>, ServeStream, Running) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some((_, running)) = last.take() {
            Running::stop(running);
        }
        let t = Instant::now();
        let stream = serve_stream(ctx.seed, STREAM_LEN);
        let running = bind(ctx.threads);
        times.push(t.elapsed().as_secs_f64());
        running.health_check();
        last = Some((stream, running));
    }
    let (stream, running) = last.expect("at least one set-up");
    (times, stream, running)
}

/// One operation: submit, follow the event stream to its end, fetch the
/// report.
fn operation(ctx: &Ctx, addr: SocketAddr, spec: &str) -> Result<String, String> {
    let submitted = {
        let _s = ctx.tracer.span("serve.submit");
        expect_ok(addr, "POST", "/v1/campaigns", Some(spec))?
    };
    let job = Json::parse(&submitted)
        .ok()
        .and_then(|doc| doc.get("job").and_then(Json::as_f64))
        .ok_or_else(|| format!("submission reply without a job id: {submitted}"))?;
    let events = {
        let _s = ctx.tracer.span("serve.events");
        expect_ok(addr, "GET", &format!("/v1/jobs/{job}/events"), None)?
    };
    let last = events.lines().last().unwrap_or("");
    if !(last.contains("job_state") && last.contains("completed")) {
        return Err(format!("job {job} did not complete: {last}"));
    }
    let _s = ctx.tracer.span("serve.report");
    expect_ok(addr, "GET", &format!("/v1/jobs/{job}/report"), None)
}

/// Drives the server with [`CLIENTS`] closed-loop clients for `seconds`
/// and then to the end of the stream's current round, continuing the
/// stream at `cursor` (which must be at a round's start).
pub fn timed(
    ctx: &Ctx,
    server: &Running,
    stream: &ServeStream,
    cursor: &AtomicUsize,
    seconds: f64,
    served: &mut Served,
) -> Phase {
    let (results, rss) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
    let clients = CLIENTS.min(ctx.threads);
    let (cpu0, steal0) = (crate::sys::cpu_seconds(), crate::sys::steal_seconds());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                // Requests are taken until `seconds` have passed and the
                // stream is at a round's end, so a phase sends whole
                // rounds and every phase the same mix.
                let take = |i: usize| {
                    (t0.elapsed().as_secs_f64() < seconds || i % SERVE_ROUND != 0).then_some(i + 1)
                };
                while let Ok(idx) = cursor.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take) {
                    let Some(req) = stream.requests.get(idx) else {
                        break;
                    };
                    let op = ctx.next_op();
                    // The process peaks while a large request runs (one
                    // per round, so they do not overlap each other).
                    let large = req.class == Class::Large;
                    if large {
                        crate::sys::reset_peak_rss();
                    }
                    let started = Instant::now();
                    let result = {
                        let _op = ctx.tracer.op(op, "op");
                        operation(ctx, server.addr, &stream.specs[req.spec])
                    };
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    if large {
                        let peak = crate::sys::peak_rss_mib();
                        rss.lock().expect("rss list lock").push(peak);
                    }
                    results
                        .lock()
                        .expect("result list lock")
                        .push((op, *req, ms, result));
                }
            });
        }
    });
    let mut phase = Phase {
        timed_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::sys::cpu_seconds() - cpu0,
        steal_s: crate::sys::steal_seconds() - steal0,
        peak_rss_mib: rss.into_inner().expect("rss list lock"),
        ..Phase::default()
    };
    for (op, req, ms, result) in results.into_inner().expect("result list lock") {
        phase.op_ms.push(ms);
        phase.class_ms.entry(req.class.name()).or_default().push(ms);
        phase.attempted += 1;
        match result {
            Ok(report) => served
                .by_spec
                .entry(req.spec)
                .or_default()
                .push((op, report)),
            Err(e) => {
                phase.failed += 1;
                eprintln!("operation {op} failed: {e}");
            }
        }
    }
    phase
}

/// The server's own view: job-wall and queue-wait medians, joins.
pub fn stats(server: &Running) -> Json {
    let body = expect_ok(server.addr, "GET", "/v1/stats", None).expect("GET /v1/stats");
    Json::parse(&body).expect("stats document is JSON")
}

/// Checks every served report against a direct run of the same spec
/// (telemetry roll-up dropped, as the server does). Returns the number
/// of operations whose report failed the check.
pub fn verify(ctx: &Ctx, stream: &ServeStream, served: &Served, digest: &mut Digest) -> usize {
    let specs: Vec<usize> = served.by_spec.keys().copied().collect();
    let direct = parallel_jobs(
        "verify",
        Some(ctx.threads),
        &specs,
        |spec| format!("spec-{spec}"),
        |&spec| run_campaign(ctx, &stream.specs[spec]),
    );
    let mut failed = 0;
    for ((spec, reports), direct) in served.by_spec.iter().zip(direct) {
        let direct = direct.and_then(|d| d);
        for (op, report) in reports {
            let verdict = match &direct {
                Ok(d) => check(report, d.failures, &d.json).map_err(|m| m.to_string()),
                Err(e) => Err(format!("direct run failed: {e}")),
            };
            if let Err(e) = verdict {
                failed += 1;
                eprintln!("operation {op} (spec {spec}) failed its check: {e}");
            }
        }
        if let Ok(d) = &direct {
            digest.add(&format!("spec-{spec}"), &d.json);
        }
    }
    failed
}

/// Round trip of a bare health check, for the layer probes.
pub fn healthz_ms(addr: SocketAddr) -> f64 {
    let t = Instant::now();
    let r = request(addr, "GET", "/v1/healthz", None).expect("GET /v1/healthz");
    assert_eq!(r.status, 200, "health check status");
    t.elapsed().as_secs_f64() * 1e3
}

/// Submits `spec` once as a probe operation (legs spanned like traffic).
pub fn probe_operation(ctx: &Ctx, server: &Running, spec: &str) -> Result<String, String> {
    let _op = ctx.tracer.op(ctx.next_op(), "probe.serve");
    operation(ctx, server.addr, spec)
}

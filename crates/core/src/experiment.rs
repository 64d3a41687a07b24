//! One workload through the full pipeline: numeric solve → phase log →
//! micro-op expansion → cycle-level simulation.

use belenos_fem::FemError;
use belenos_trace::expand::{ExpandConfig, Expander};
use belenos_trace::{FlatTrace, KernelCall, MicroOp, PhaseLog};
use belenos_uarch::{build_model, CoreConfig, CoreModel, Fnv64, SamplingConfig, SimStats};
use belenos_workloads::{ScenarioError, ScenarioSpec};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Summary of the numeric solve that produced the phase log.
#[derive(Debug, Clone)]
pub struct SolveSummary {
    /// Wall-clock time of the numeric FE solve (Fig. 5/6 y-axis).
    pub wall_time: Duration,
    /// Degrees of freedom.
    pub n_dofs: usize,
    /// Total Newton/Picard iterations.
    pub iterations: usize,
    /// Estimated input-file size in kB (Fig. 5 x-axis).
    pub size_kb: f64,
    /// Whether all steps converged.
    pub converged: bool,
}

/// A prepared experiment: the workload was solved once; the recorded
/// phase log can be replayed under any machine configuration.
#[derive(Debug)]
pub struct Experiment {
    /// Owned, validated scenario identifier (report rows, cache keys,
    /// runner job labels).
    pub id: String,
    /// Numeric-solve summary.
    pub solve: SolveSummary,
    /// The scenario this experiment was prepared from (family, mesh,
    /// physics parameters) — reports like the mesh-scaling analysis
    /// group and label rows by it.
    scenario: ScenarioSpec,
    scenario_digest: u64,
    log: PhaseLog,
    expand: ExpandConfig,
    fingerprint: u64,
    /// Total ops of the full trace, counted lazily on first use (interval
    /// placement needs the trace length before simulating it).
    total_ops: OnceLock<u64>,
    /// Largest op count the trace is *known to reach* (monotone lower
    /// bound), so repeated budget-clamp checks never re-count.
    trace_at_least: std::sync::atomic::AtomicU64,
    /// Memoized expanded-trace prefix (see [`Experiment::cached_trace`]).
    trace_cache: Mutex<TraceCache>,
    /// Pooled core model reused across simulation calls (see
    /// [`Experiment::pooled_model`]).
    model_pool: ModelPool,
}

/// One-slot pool holding the most recently used core model together
/// with the configuration it was built for. Rebuilding a model per
/// `simulate` call was the single largest cost of a short timed run —
/// the ring buffers, cache tag arrays and predictor tables are freed
/// and re-allocated (and re-page-faulted) every call. Reusing the model
/// via [`CoreModel::reset`] keeps those arrays resident; the reset
/// contract guarantees bit-identical statistics, which the backend
/// digest pins enforce. A config change simply misses the pool and
/// rebuilds, so alternating-config sweeps are never worse than before.
#[derive(Default)]
struct ModelPool {
    slot: Mutex<Option<(CoreConfig, Box<dyn CoreModel>)>>,
}

impl std::fmt::Debug for ModelPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let occupied = self.slot.lock().map(|s| s.is_some()).unwrap_or(false);
        f.debug_struct("ModelPool")
            .field("occupied", &occupied)
            .finish()
    }
}

/// Memoized expansion of a trace prefix, stored as a struct-of-arrays
/// [`FlatTrace`]. Replaying a cached flat trace yields the exact op
/// sequence streaming expansion yields (expansion is deterministic and
/// prefix-closed), so every backend's results are bit-identical either
/// way — but repeated runs over the same experiment (sweeps,
/// cross-backend comparisons) skip the per-op generation cost, and the
/// columnar layout feeds the simulators' hot loops with a denser,
/// monomorphized stream (see [`belenos_uarch::CoreModel::run_warm_flat`]).
#[derive(Debug, Default)]
struct TraceCache {
    /// Longest prefix expanded so far, shared with in-flight runs.
    ops: Option<Arc<FlatTrace>>,
    /// The cached prefix is the entire trace.
    complete: bool,
    /// The full trace exceeds the cache cap; never re-attempt it.
    too_big: bool,
}

/// Process-wide trace-cache budget in ops, from `BELENOS_TRACE_CACHE_MB`
/// (default 2048 MiB ≈ 64 M ops; `0` disables trace caching entirely).
/// The budget is shared by every live [`Experiment`] — a campaign over
/// dozens of workloads stays bounded instead of holding one cap each.
fn trace_cache_budget_ops() -> u64 {
    static CAP: OnceLock<u64> = OnceLock::new();
    *CAP.get_or_init(|| {
        let mb = std::env::var("BELENOS_TRACE_CACHE_MB")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(2048);
        mb.saturating_mul(1 << 20) / std::mem::size_of::<MicroOp>() as u64
    })
}

/// Ops currently held by trace caches across all experiments. Updated
/// under each experiment's cache lock; concurrent expansions can
/// transiently overshoot the budget by at most one in-flight request per
/// worker (a soft bound, which is all the OOM guard needs).
static TRACE_CACHE_USED_OPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Experiment {
    /// Validates the scenario, builds and solves its model, and captures
    /// the phase log.
    ///
    /// # Errors
    ///
    /// A [`PrepareError`] naming the scenario: either its parameters are
    /// structurally invalid, or the FE solve failed.
    pub fn prepare(spec: &ScenarioSpec) -> Result<Self, PrepareError> {
        Self::prepare_with_store(spec, crate::trace_store::global())
    }

    /// [`Experiment::prepare`] against an explicit trace store (`None`
    /// disables persistence). The public entry point passes the
    /// process-wide store; tests pass their own to avoid environment
    /// races.
    pub fn prepare_with_store(
        spec: &ScenarioSpec,
        store: Option<&crate::trace_store::TraceStore>,
    ) -> Result<Self, PrepareError> {
        let tele = belenos_telemetry::global();
        let _span = tele.span(
            "phase",
            &[
                ("phase", "prepare".into()),
                ("workload", spec.id.as_str().into()),
            ],
        );
        let started = std::time::Instant::now();
        let expand = spec.expand_config();
        let scenario_digest = spec.stable_digest();

        if let Some(store) = store {
            if let Some((artifact, _)) = store.load(&spec.id, scenario_digest, &expand) {
                let exp = Self::from_artifact(spec, scenario_digest, expand, artifact);
                tele.gauge(
                    "prepare_wall_s",
                    started.elapsed().as_secs_f64(),
                    &[("workload", spec.id.as_str().into())],
                );
                return Ok(exp);
            }
        }

        let fail = |source| PrepareError {
            workload: spec.id.clone(),
            source,
        };
        let mut model = spec
            .build_model()
            .map_err(|e| fail(PrepareFailure::Scenario(e)))?;
        let size_kb = model.input_size_kb();
        let report = model.solve().map_err(|e| fail(PrepareFailure::Fem(e)))?;
        let fingerprint = trace_fingerprint(&report.log, &expand);
        let solve = SolveSummary {
            wall_time: report.wall_time,
            n_dofs: report.n_dofs,
            iterations: report.total_iterations,
            size_kb,
            converged: report.converged,
        };
        let exp = Self::new(
            spec,
            scenario_digest,
            solve,
            report.log,
            expand,
            fingerprint,
        );
        if let Some(store) = store {
            store.save(&exp.id, &exp.to_artifact(), &exp.expand);
        }
        tele.gauge(
            "prepare_wall_s",
            started.elapsed().as_secs_f64(),
            &[("workload", spec.id.as_str().into())],
        );
        Ok(exp)
    }

    /// An experiment over a solved log, with every lazy cache empty.
    fn new(
        spec: &ScenarioSpec,
        scenario_digest: u64,
        solve: SolveSummary,
        log: PhaseLog,
        expand: ExpandConfig,
        fingerprint: u64,
    ) -> Self {
        Experiment {
            id: spec.id.clone(),
            scenario: spec.clone(),
            scenario_digest,
            solve,
            log,
            expand,
            fingerprint,
            total_ops: OnceLock::new(),
            trace_at_least: std::sync::atomic::AtomicU64::new(0),
            trace_cache: Mutex::new(TraceCache::default()),
            model_pool: ModelPool::default(),
        }
    }

    /// Rebuilds a prepared experiment from a verified store artifact —
    /// the FE model is never built or solved. Simulations re-expand the
    /// log as far as they need, exactly as after a cold prepare.
    fn from_artifact(
        spec: &ScenarioSpec,
        scenario_digest: u64,
        expand: ExpandConfig,
        artifact: belenos_trace::TraceArtifact,
    ) -> Self {
        let solve = SolveSummary {
            wall_time: Duration::new(artifact.solve.wall_secs, artifact.solve.wall_subsec_nanos),
            n_dofs: artifact.solve.n_dofs,
            iterations: artifact.solve.iterations,
            size_kb: artifact.solve.size_kb,
            converged: artifact.solve.converged,
        };
        let fingerprint = artifact.trace_fingerprint;
        Self::new(
            spec,
            scenario_digest,
            solve,
            artifact.log,
            expand,
            fingerprint,
        )
    }

    /// Snapshot of this experiment as a (log-only) store artifact.
    fn to_artifact(&self) -> belenos_trace::TraceArtifact {
        belenos_trace::TraceArtifact {
            scenario_digest: self.scenario_digest,
            expand_fingerprint: expand_fingerprint(&self.expand),
            trace_fingerprint: self.fingerprint,
            solve: belenos_trace::SolveMeta {
                wall_secs: self.solve.wall_time.as_secs(),
                wall_subsec_nanos: self.solve.wall_time.subsec_nanos(),
                n_dofs: self.solve.n_dofs,
                iterations: self.solve.iterations,
                size_kb: self.solve.size_kb,
                converged: self.solve.converged,
            },
            log: self.log.clone(),
        }
    }

    /// The scenario this experiment was prepared from.
    pub fn scenario(&self) -> &ScenarioSpec {
        &self.scenario
    }

    /// Content fingerprint of the trace the (log, expansion-config) pair
    /// replays — the pre-scenario-era cache identity, still pinned by
    /// the golden tests to prove presets build bit-identical models.
    pub fn trace_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The recorded phase log.
    pub fn log(&self) -> &PhaseLog {
        &self.log
    }

    /// Expands the log and runs it on a core configuration, simulating at
    /// most `max_ops` micro-ops (0 = unlimited). The core-model backend
    /// is selected by `cfg.model` (`BELENOS_MODEL` in the bench
    /// binaries); the default `o3` backend reproduces the historical
    /// behavior bit for bit.
    ///
    /// This is the historical *prefix-truncation* mode: a budgeted run
    /// measures only the first `max_ops` ops of the trace, which biases
    /// budgeted figures toward assembly and early Newton iterations. For
    /// representative budgeted measurements use
    /// [`Experiment::simulate_sampled`].
    pub fn simulate(&self, cfg: &CoreConfig, max_ops: usize) -> SimStats {
        let tele = belenos_telemetry::global();
        let _span = tele.span(
            "phase",
            &[
                ("phase", "simulate".into()),
                ("mode", "prefix".into()),
                ("workload", self.id.as_str().into()),
                ("max_ops", max_ops.into()),
            ],
        );
        let stats = self.simulate_prefix(cfg, max_ops);
        if tele.enabled() {
            emit_stage_counters(&tele, &stats);
        }
        stats
    }

    /// Takes the pooled model for `cfg` (reset to its just-built state),
    /// or builds a fresh one on a pool miss. Pair with
    /// [`Experiment::pool_model`] to return it after the run.
    fn pooled_model(&self, cfg: &CoreConfig) -> Box<dyn CoreModel> {
        let mut slot = self.model_pool.slot.lock().unwrap();
        if slot.as_ref().is_some_and(|(pooled, _)| pooled == cfg) {
            let (_, mut model) = slot.take().expect("checked occupied");
            drop(slot);
            model.reset();
            return model;
        }
        drop(slot);
        build_model(cfg)
    }

    /// Returns a model to the pool for the next run on this config.
    fn pool_model(&self, cfg: &CoreConfig, model: Box<dyn CoreModel>) {
        *self.model_pool.slot.lock().unwrap() = Some((cfg.clone(), model));
    }

    /// Prefix-mode simulation body (see [`Experiment::simulate`], which
    /// wraps it in a telemetry `phase` span).
    fn simulate_prefix(&self, cfg: &CoreConfig, max_ops: usize) -> SimStats {
        let mut model = self.pooled_model(cfg);
        let stats = self.simulate_prefix_on(model.as_mut(), max_ops);
        self.pool_model(cfg, model);
        stats
    }

    fn simulate_prefix_on(&self, model: &mut dyn CoreModel, max_ops: usize) -> SimStats {
        if max_ops == 0 {
            if let Some(ops) = self.cached_trace(None) {
                self.count_flat_hit();
                return model.run_flat(&ops);
            }
            let mut expander = Expander::with_config(&self.log, self.expand.clone());
            return model.run(&mut expander);
        }
        // Discard the first quarter as measurement warmup (cold caches
        // and untrained predictors), as gem5 checkpointed runs do. The
        // quarter is of the *measured* window — the smaller of budget
        // and actual trace — so an oversized budget cannot discard the
        // whole trace as warmup and report empty statistics.
        if let Some(ops) = self.cached_trace(Some(max_ops as u64)) {
            self.count_flat_hit();
            let end = max_ops.min(ops.len());
            let measured = end as u64;
            return model.run_warm_flat(&ops, 0, end, measured / 4);
        }
        let measured = (max_ops as u64).min(self.trace_ops_up_to(max_ops as u64));
        let expander = Expander::with_config(&self.log, self.expand.clone());
        let mut limited = expander.take(max_ops);
        model.run_warm(&mut limited, measured / 4)
    }

    /// Returns a memoized expanded prefix of at least `need` ops (or the
    /// whole trace when `need` is `None`), expanding and caching it on
    /// first use. `None` when caching is disabled
    /// (`BELENOS_TRACE_CACHE_MB=0`), the request exceeds the cap, or a
    /// whole-trace request finds the trace larger than the cap — callers
    /// fall back to streaming expansion, which is always bit-equivalent.
    fn cached_trace(&self, need: Option<u64>) -> Option<Arc<FlatTrace>> {
        use std::sync::atomic::Ordering;
        let budget = trace_cache_budget_ops();
        if budget == 0 {
            return None;
        }
        let tele = belenos_telemetry::global();
        let mut cache = self.trace_cache.lock().unwrap();
        if cache.complete {
            tele.counter(
                "trace_memo_hit",
                1,
                &[("workload", self.id.as_str().into())],
            );
            return cache.ops.clone();
        }
        let held = cache.ops.as_ref().map_or(0, |ops| ops.len() as u64);
        // What this experiment may grow to: the process-wide budget minus
        // what *other* experiments' caches already hold.
        let cap = budget.saturating_sub(
            TRACE_CACHE_USED_OPS
                .load(Ordering::Relaxed)
                .saturating_sub(held),
        );
        match need {
            Some(n) => {
                if n > cap {
                    return None;
                }
                if let Some(ops) = &cache.ops {
                    if ops.len() as u64 >= n {
                        tele.counter(
                            "trace_memo_hit",
                            1,
                            &[("workload", self.id.as_str().into())],
                        );
                        return cache.ops.clone();
                    }
                }
            }
            None => {
                if cache.too_big {
                    return None;
                }
                if let Some(&total) = self.total_ops.get() {
                    if total > cap {
                        // Over the whole budget: permanently too big.
                        // Merely crowded out by other caches: retry later.
                        cache.too_big = total > budget;
                        return None;
                    }
                }
            }
        }
        // (Re-)expand from the log. The expander cannot resume mid-stream,
        // so growing a cached prefix pays a fresh pass — rare in practice,
        // since op budgets are constant within one binary.
        tele.counter(
            "trace_memo_miss",
            1,
            &[("workload", self.id.as_str().into())],
        );
        let limit = need.unwrap_or(u64::MAX).min(cap.saturating_add(1));
        let mut ops = FlatTrace::with_capacity(limit.min(1 << 22) as usize);
        let mut expander = Expander::with_config(&self.log, self.expand.clone());
        let mut exhausted = false;
        while (ops.len() as u64) < limit {
            match expander.next() {
                Some(op) => ops.push(op),
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        self.trace_at_least
            .fetch_max(ops.len() as u64, Ordering::Relaxed);
        if !exhausted && need.is_none() {
            // Whole-trace request, and the trace outruns the cap. Only
            // outrunning the whole process budget is permanent; being
            // crowded out by other experiments' caches is worth retrying.
            cache.too_big = limit > budget;
            return None;
        }
        let n = ops.len() as u64;
        if exhausted {
            let _ = self.total_ops.set(n);
            cache.complete = true;
        }
        TRACE_CACHE_USED_OPS.fetch_add(n - held, Ordering::Relaxed);
        cache.ops = Some(Arc::new(ops));
        cache.ops.clone()
    }

    /// Records that a simulation consumed the memoized [`FlatTrace`]
    /// directly (the struct-of-arrays fast path, as opposed to streaming
    /// expansion).
    fn count_flat_hit(&self) {
        let tele = belenos_telemetry::global();
        if tele.enabled() {
            tele.counter(
                "flat_trace_hits",
                1,
                &[("workload", self.id.as_str().into())],
            );
        }
    }

    /// Releases this experiment's trace cache back to the process-wide
    /// budget and drops the memoized ops (in-flight clones stay valid).
    pub fn release_trace_cache(&self) {
        let mut cache = self.trace_cache.lock().unwrap();
        if let Some(ops) = cache.ops.take() {
            TRACE_CACHE_USED_OPS.fetch_sub(ops.len() as u64, std::sync::atomic::Ordering::Relaxed);
        }
        cache.complete = false;
    }

    /// Total micro-ops the full trace expands to (counted once, lazily;
    /// generation-only, far cheaper than simulating).
    pub fn total_trace_ops(&self) -> u64 {
        *self
            .total_ops
            .get_or_init(|| Expander::with_config(&self.log, self.expand.clone()).into_total_ops())
    }

    /// Trace length for clamping against `limit`: the memoized full
    /// count when already known, otherwise a generation pass that stops
    /// at `limit` — `O(min(limit, total))`, so a small budgeted run
    /// never pays a full-trace expansion just to learn "long enough".
    fn trace_ops_up_to(&self, limit: u64) -> u64 {
        use std::sync::atomic::Ordering;
        if let Some(&total) = self.total_ops.get() {
            return total;
        }
        let known = self.trace_at_least.load(Ordering::Relaxed);
        if known >= limit {
            return known;
        }
        let n = Expander::with_config(&self.log, self.expand.clone()).total_ops_up_to(limit);
        if n < limit {
            // The bounded pass exhausted the trace: that IS the total.
            let _ = self.total_ops.set(n);
        } else {
            self.trace_at_least.fetch_max(n, Ordering::Relaxed);
        }
        n
    }

    /// Simulates under `cfg` with the op budget placed per `sampling`.
    ///
    /// * `sampling` off (or `max_ops == 0`): identical to
    ///   [`Experiment::simulate`], bit for bit.
    /// * budget covering the whole trace: an exact full-trace run
    ///   (identical to `max_ops == 0`).
    /// * otherwise, SMARTS-style systematic sampling: the budget is split
    ///   into `sampling.intervals` measurement windows placed evenly over
    ///   the whole trace, the gaps between them are *functionally warmed*
    ///   ([`belenos_uarch::CoreModel::warm_only`]: caches, TLBs, BTB and
    ///   branch predictor
    ///   observe every op at zero pipeline cost), the first
    ///   `sampling.warmup_frac` of each window is discarded as detailed
    ///   warmup, and the merged measurements are extrapolated to
    ///   whole-trace estimates.
    pub fn simulate_sampled(
        &self,
        cfg: &CoreConfig,
        max_ops: usize,
        sampling: &SamplingConfig,
    ) -> SimStats {
        if sampling.is_off() || max_ops == 0 {
            return self.simulate(cfg, max_ops);
        }
        let tele = belenos_telemetry::global();
        let _span = tele.span(
            "phase",
            &[
                ("phase", "simulate".into()),
                ("mode", "sampled".into()),
                ("workload", self.id.as_str().into()),
                ("max_ops", max_ops.into()),
                ("intervals", sampling.intervals.into()),
            ],
        );
        let stats = self.simulate_sampled_inner(cfg, max_ops, sampling);
        if tele.enabled() {
            emit_stage_counters(&tele, &stats);
        }
        stats
    }

    /// Sampled-mode simulation body (see [`Experiment::simulate_sampled`],
    /// which wraps it in a telemetry `phase` span). Only reached when
    /// sampling is actually on.
    fn simulate_sampled_inner(
        &self,
        cfg: &CoreConfig,
        max_ops: usize,
        sampling: &SamplingConfig,
    ) -> SimStats {
        let mut model = self.pooled_model(cfg);
        let stats = self.simulate_sampled_on(model.as_mut(), cfg, max_ops, sampling);
        self.pool_model(cfg, model);
        stats
    }

    fn simulate_sampled_on(
        &self,
        model: &mut dyn CoreModel,
        cfg: &CoreConfig,
        max_ops: usize,
        sampling: &SamplingConfig,
    ) -> SimStats {
        let cached = self.cached_trace(None);
        let total = cached
            .as_ref()
            .map_or_else(|| self.total_trace_ops(), |ops| ops.len() as u64);
        if let Some(ops) = &cached {
            self.count_flat_hit();
            if max_ops as u64 >= total {
                // One interval covering the whole trace: simulate exactly.
                return model.run_flat(ops);
            }
            // Window positions are absolute trace offsets, so the flat
            // path warms and measures by range with no counting adapter.
            let windows = sampling_windows(total, max_ops as u64, sampling.intervals);
            let mut merged = SimStats {
                freq_ghz: cfg.freq_ghz,
                ..SimStats::default()
            };
            let mut pos = 0usize;
            for (start, len) in windows {
                let start = start as usize;
                let gap = start.saturating_sub(pos);
                model.warm_only_flat(ops, pos, start, gap as u64);
                let warmup = (len as f64 * sampling.warmup_frac) as u64;
                let end = start + len as usize;
                let stats = model.run_warm_flat(ops, start, end, warmup);
                merged.merge(&stats);
                pos = end;
            }
            if merged.committed_ops == 0 {
                return merged;
            }
            return merged.scaled(total as f64 / merged.committed_ops as f64);
        }
        let mut inner = Expander::with_config(&self.log, self.expand.clone());
        if max_ops as u64 >= total {
            // One interval covering the whole trace: simulate it exactly.
            return model.run(&mut inner);
        }
        let windows = sampling_windows(total, max_ops as u64, sampling.intervals);
        let mut trace = Counted { inner, consumed: 0 };
        let mut merged = SimStats {
            freq_ghz: cfg.freq_ghz,
            ..SimStats::default()
        };
        for (start, len) in windows {
            let gap = start.saturating_sub(trace.consumed);
            model.warm_only(&mut trace, gap);
            let warmup = (len as f64 * sampling.warmup_frac) as u64;
            let mut window = (&mut trace).take(len as usize);
            let stats = model.run_warm(&mut window, warmup);
            merged.merge(&stats);
        }
        if merged.committed_ops == 0 {
            return merged;
        }
        merged.scaled(total as f64 / merged.committed_ops as f64)
    }

    /// Convenience: simulate on the Table II gem5 baseline.
    pub fn simulate_baseline(&self, max_ops: usize) -> SimStats {
        self.simulate(&CoreConfig::gem5_baseline(), max_ops)
    }

    /// Convenience: simulate on the host-like (VTune workstation) config.
    pub fn simulate_host(&self, max_ops: usize) -> SimStats {
        self.simulate(&CoreConfig::host_like(), max_ops)
    }
}

impl Drop for Experiment {
    fn drop(&mut self) {
        self.release_trace_cache();
    }
}

impl belenos_runner::Simulate for Experiment {
    fn workload_id(&self) -> &str {
        &self.id
    }

    /// Trace fingerprint folded with the scenario's content digest: two
    /// parametric variants sharing an id — even ones whose *traces*
    /// coincide structurally (e.g. the `bp07`–`bp09` permeability axis)
    /// — can never alias a cached result.
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.fingerprint)
            .write_u64(self.scenario_digest);
        h.finish()
    }

    fn simulate(&self, config: &CoreConfig, max_ops: usize, sampling: &SamplingConfig) -> SimStats {
        Experiment::simulate_sampled(self, config, max_ops, sampling)
    }

    /// The scenario's explicit JSON normal form: a worker process on
    /// another host can `ScenarioSpec::parse` + `Experiment::prepare` it
    /// and land on the same deterministic model (same trace fingerprint,
    /// same cache key), which is what makes experiments distributable.
    fn scenario_json(&self) -> Option<String> {
        Some(self.scenario.to_json())
    }
}

/// Iterator adapter counting consumed items, so the sampling driver knows
/// its absolute position in the trace across warming and measuring.
struct Counted<I> {
    inner: I,
    consumed: u64,
}

impl<I: Iterator<Item = MicroOp>> Iterator for Counted<I> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let op = self.inner.next();
        if op.is_some() {
            self.consumed += 1;
        }
        op
    }
}

/// Emits the per-stage cycle breakdown of a finished simulation as
/// telemetry counters, attributed to the thread's current `phase` span.
/// Purely observational: reads the already-computed [`SimStats`], never
/// touches the model.
fn emit_stage_counters(tele: &belenos_telemetry::Telemetry, stats: &SimStats) {
    tele.counter("sim_cycles", stats.cycles, &[]);
    tele.counter("sim_committed_ops", stats.committed_ops, &[]);
    tele.counter("sim_squashed_ops", stats.squashed_ops, &[]);
    tele.counter("sim_active_fetch_cycles", stats.active_fetch_cycles, &[]);
    tele.counter("sim_icache_stall_cycles", stats.icache_stall_cycles, &[]);
    tele.counter("sim_tlb_stall_cycles", stats.tlb_stall_cycles, &[]);
    tele.counter("sim_squash_cycles", stats.squash_cycles, &[]);
    tele.counter("sim_misc_stall_cycles", stats.misc_stall_cycles, &[]);
    if stats.seconds() > 0.0 {
        // Simulated-time MIPS of the modeled core (distinct from the
        // runner's host-throughput `simulated_mips` gauge).
        tele.gauge(
            "core_mips",
            stats.committed_ops as f64 / stats.seconds() / 1e6,
            &[],
        );
        tele.gauge("ipc", stats.ipc(), &[]);
    }
}

/// Placement of SMARTS-style measurement windows: `(start, len)` pairs in
/// trace-op coordinates for a detailed budget of `budget` ops split into
/// `intervals` windows over a trace of `total` ops.
///
/// Each window sits at the *end* of its equal-length period, so the
/// functional-warming gap precedes every measurement and the last window
/// reaches the tail of the trace — budgeted runs observe steady-state
/// solver phases, not just the assembly-heavy prefix.
pub fn sampling_windows(total: u64, budget: u64, intervals: usize) -> Vec<(u64, u64)> {
    if total == 0 || budget == 0 {
        return Vec::new();
    }
    if budget >= total {
        return vec![(0, total)];
    }
    let n = (intervals.max(1) as u64).min(budget);
    let measured = (budget / n).max(1);
    let period = (total / n).max(measured);
    (0..n)
        .map(|i| (i * period + (period - measured), measured))
        .collect()
}

/// Memoizes content hashes of the `Arc`'d index arrays kernel calls
/// carry, keyed by allocation address: repeated kernels over the same
/// structure (the common case — every Newton iteration reuses the same
/// pattern/factor arrays) hash their contents exactly once.
#[derive(Default)]
struct ArrayHasher {
    memo: std::collections::HashMap<usize, u64>,
}

impl ArrayHasher {
    fn memoized(&mut self, ptr: usize, hash: impl FnOnce() -> u64) -> u64 {
        *self.memo.entry(ptr).or_insert_with(hash)
    }

    fn pattern(&mut self, p: &std::sync::Arc<belenos_sparse::CsrPattern>) -> u64 {
        self.memoized(std::sync::Arc::as_ptr(p) as usize, || {
            let mut h = Fnv64::new();
            h.write_usize(p.nrows()).write_usize(p.ncols());
            for &r in p.row_ptr() {
                h.write_usize(r);
            }
            for &c in p.col_idx() {
                h.write_u64(c as u64);
            }
            h.finish()
        })
    }

    fn u32s(&mut self, v: &std::sync::Arc<Vec<u32>>) -> u64 {
        self.memoized(std::sync::Arc::as_ptr(v) as *const u8 as usize, || {
            let mut h = Fnv64::new();
            h.write_usize(v.len());
            for &x in v.iter() {
                h.write_u64(x as u64);
            }
            h.finish()
        })
    }

    fn usizes(&mut self, v: &std::sync::Arc<Vec<usize>>) -> u64 {
        self.memoized(std::sync::Arc::as_ptr(v) as *const u8 as usize, || {
            let mut h = Fnv64::new();
            h.write_usize(v.len());
            for &x in v.iter() {
                h.write_usize(x);
            }
            h.finish()
        })
    }

    fn bools(&mut self, v: &std::sync::Arc<Vec<bool>>) -> u64 {
        self.memoized(std::sync::Arc::as_ptr(v) as *const u8 as usize, || {
            let mut h = Fnv64::new();
            h.write_usize(v.len());
            for &x in v.iter() {
                h.write_u64(x as u64);
            }
            h.finish()
        })
    }
}

/// Stable fingerprint of the trace a (log, expansion-config) pair will
/// replay. The same workload id can appear in several workload sets with
/// different expansion knobs (e.g. `co` in the catalog vs the gem5 set),
/// so the runner's cache key needs this beyond the id alone. Index
/// arrays are hashed by *content* (memoized per allocation), so a model
/// change that alters trace structure — even at equal sizes, e.g. a
/// different node numbering with identical nnz — changes the
/// fingerprint and can never alias a persistent cache entry.
pub(crate) fn trace_fingerprint(log: &PhaseLog, expand: &ExpandConfig) -> u64 {
    let mut arrays = ArrayHasher::default();
    let mut h = Fnv64::new();
    h.write_str("trace-v2");
    // Exhaustive destructuring: adding a field to `ExpandConfig` fails to
    // compile here until it is hashed (or consciously ignored), so a new
    // expansion knob can never silently alias runner-cache entries.
    let ExpandConfig {
        sample,
        code_bloat,
        spin_scale,
        max_kernel_ops,
    } = expand;
    h.write_usize(*sample);
    h.write_u64(*code_bloat as u64);
    h.write_f64(*spin_scale);
    h.write_usize(*max_kernel_ops);
    h.write_usize(log.len());
    for call in log.calls() {
        match call {
            KernelCall::Dot { n } => h.write_str("dot").write_usize(*n),
            KernelCall::Axpy { n } => h.write_str("axpy").write_usize(*n),
            KernelCall::Norm { n } => h.write_str("norm").write_usize(*n),
            KernelCall::VecOp { n } => h.write_str("vecop").write_usize(*n),
            KernelCall::SpMv { pattern } => h.write_str("spmv").write_u64(arrays.pattern(pattern)),
            KernelCall::AssembleStiffness {
                conn,
                nodes_per_elem,
                dofs_per_node,
                gauss_points,
                material,
                pattern,
            } => h
                .write_str("asm_k")
                .write_u64(arrays.u32s(conn))
                .write_usize(*nodes_per_elem)
                .write_usize(*dofs_per_node)
                .write_usize(*gauss_points)
                .write_str(&format!("{material:?}"))
                .write_u64(arrays.pattern(pattern)),
            KernelCall::AssembleResidual {
                conn,
                nodes_per_elem,
                dofs_per_node,
                gauss_points,
                material,
            } => h
                .write_str("asm_r")
                .write_u64(arrays.u32s(conn))
                .write_usize(*nodes_per_elem)
                .write_usize(*dofs_per_node)
                .write_usize(*gauss_points)
                .write_str(&format!("{material:?}")),
            KernelCall::LdlFactor { col_ptr, row_idx } => h
                .write_str("ldl_f")
                .write_u64(arrays.usizes(col_ptr))
                .write_u64(arrays.u32s(row_idx)),
            KernelCall::LdlSolve { col_ptr, row_idx } => h
                .write_str("ldl_s")
                .write_u64(arrays.usizes(col_ptr))
                .write_u64(arrays.u32s(row_idx)),
            KernelCall::SkylineFactor { heights } => {
                h.write_str("sky_f").write_u64(arrays.usizes(heights))
            }
            KernelCall::SkylineSolve { heights } => {
                h.write_str("sky_s").write_u64(arrays.usizes(heights))
            }
            KernelCall::CgSolve {
                pattern,
                iterations,
                precond,
            } => h
                .write_str("cg")
                .write_u64(arrays.pattern(pattern))
                .write_usize(*iterations)
                .write_str(&format!("{precond:?}")),
            KernelCall::FgmresSolve {
                pattern,
                iterations,
                restart,
                precond,
            } => h
                .write_str("fgmres")
                .write_u64(arrays.pattern(pattern))
                .write_usize(*iterations)
                .write_usize(*restart)
                .write_str(&format!("{precond:?}")),
            KernelCall::ConstitutiveUpdate {
                gauss_points,
                material,
            } => h
                .write_str("const")
                .write_usize(*gauss_points)
                .write_str(&format!("{material:?}")),
            KernelCall::ContactSearch { outcomes } => {
                h.write_str("contact").write_u64(arrays.bools(outcomes))
            }
            KernelCall::OmpBarrier { spin_iters } => {
                h.write_str("barrier").write_usize(*spin_iters)
            }
            KernelCall::BcApply { n } => h.write_str("bc").write_usize(*n),
            KernelCall::MeshUpdate { n_nodes } => h.write_str("mesh").write_usize(*n_nodes),
            KernelCall::RigidUpdate { n_bodies, n_joints } => h
                .write_str("rigid")
                .write_usize(*n_bodies)
                .write_usize(*n_joints),
            KernelCall::ConvergenceCheck { n } => h.write_str("conv").write_usize(*n),
        };
    }
    h.finish()
}

/// Stable fingerprint of an [`ExpandConfig`] alone — the second half of
/// the trace store's content address (`scenario_digest` × this). The
/// exhaustive destructure mirrors [`trace_fingerprint`]: a new expansion
/// knob fails to compile here until it is hashed, so it can never
/// silently alias a persisted trace.
pub(crate) fn expand_fingerprint(expand: &ExpandConfig) -> u64 {
    let ExpandConfig {
        sample,
        code_bloat,
        spin_scale,
        max_kernel_ops,
    } = expand;
    let mut h = Fnv64::new();
    h.write_str("expand-v1");
    h.write_usize(*sample);
    h.write_u64(*code_bloat as u64);
    h.write_f64(*spin_scale);
    h.write_usize(*max_kernel_ops);
    h.finish()
}

/// What stopped a scenario from preparing.
#[derive(Debug, Clone)]
pub enum PrepareFailure {
    /// The scenario's parameters failed validation (never built a model).
    Scenario(ScenarioError),
    /// The FE model failed to solve.
    Fem(FemError),
    /// The preparation job panicked on its worker thread; the payload is
    /// the captured panic message.
    Panic(String),
}

impl std::fmt::Display for PrepareFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareFailure::Scenario(e) => e.fmt(f),
            PrepareFailure::Fem(e) => e.fmt(f),
            PrepareFailure::Panic(msg) => msg.fmt(f),
        }
    }
}

impl std::error::Error for PrepareFailure {}

/// A scenario-preparation failure, carrying *which* scenario failed.
#[derive(Debug, Clone)]
pub struct PrepareError {
    /// Identifier of the scenario that failed to prepare.
    pub workload: String,
    /// The underlying failure.
    pub source: PrepareFailure,
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload `{}` failed to prepare: {}",
            self.workload, self.source
        )
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Prepares a list of scenarios; failures abort with the failing scenario
/// named.
///
/// With more than one scenario the prepares run as first-class jobs on
/// the `belenos-runner` worker pool (`BELENOS_JOBS` threads), each with
/// its own queue-wait/exec telemetry span. Results come back in input
/// order, so parallel and serial preparation are observationally
/// identical apart from wall time.
///
/// # Errors
///
/// The first preparation failure *in input order*, annotated with the
/// scenario id. A panicking prepare job is contained on its worker
/// thread and surfaces as [`PrepareFailure::Panic`].
pub fn prepare_all(specs: &[ScenarioSpec]) -> Result<Vec<Experiment>, PrepareError> {
    let refs: Vec<&ScenarioSpec> = specs.iter().collect();
    prepare_refs(&refs)
}

/// [`prepare_all`] over borrowed specs: the shared engine behind both the
/// slice entry point and `Campaign::prepare`'s cross-set batch.
pub(crate) fn prepare_refs(specs: &[&ScenarioSpec]) -> Result<Vec<Experiment>, PrepareError> {
    if specs.len() <= 1 {
        return specs.iter().map(|spec| Experiment::prepare(spec)).collect();
    }
    let results = belenos_runner::parallel_jobs(
        "prepare",
        None,
        specs,
        |spec| spec.id.clone(),
        |spec| Experiment::prepare(spec),
    );
    specs
        .iter()
        .zip(results)
        .map(|(spec, result)| match result {
            Ok(prepared) => prepared,
            Err(panic_msg) => Err(PrepareError {
                workload: spec.id.clone(),
                source: PrepareFailure::Panic(panic_msg),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_workloads::by_id;

    #[test]
    fn prepare_and_simulate_smallest_workload() {
        let spec = by_id("pd").expect("pd exists");
        let exp = Experiment::prepare(&spec).unwrap();
        assert!(exp.solve.converged);
        assert!(!exp.log().is_empty());
        let stats = exp.simulate_baseline(50_000);
        assert!(stats.committed_ops > 10_000);
        assert!(stats.ipc() > 0.05);
        let (r, fe, bs, be) = stats.topdown();
        assert!((r + fe + bs + be - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prepare_all_names_the_failing_workload() {
        // An invalid scenario (zero-resolution mesh) fails preparation
        // with its id in the message, before any model is built.
        let mut bad = by_id("pd").expect("pd");
        bad.id = "pd-broken".into();
        bad.mesh.nx = 0;
        let err = prepare_all(&[bad]).unwrap_err();
        assert!(err.to_string().contains("workload `pd-broken`"), "{err}");
        assert!(err.to_string().contains("mesh.nx"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
        // A solver failure carries the same shape.
        let err = PrepareError {
            workload: "eye".into(),
            source: PrepareFailure::Fem(FemError::InvalidModel("bad".into())),
        };
        assert!(err.to_string().contains("workload `eye`"));
    }

    #[test]
    fn fingerprint_distinguishes_expand_configs() {
        // `co` appears with different expansion knobs in catalog() vs
        // gem5_set(); their fingerprints must differ or the result cache
        // would alias them.
        let gem5_co = belenos_workloads::gem5_set()
            .into_iter()
            .find(|w| w.id == "co")
            .unwrap();
        let cat_co = belenos_workloads::catalog()
            .into_iter()
            .find(|w| w.id == "co")
            .unwrap();
        assert_ne!(
            gem5_co.expand.sample, cat_co.expand.sample,
            "premise of this test"
        );
        let a = Experiment::prepare(&gem5_co).unwrap();
        let b = Experiment::prepare(&cat_co).unwrap();
        use belenos_runner::Simulate;
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same spec prepared twice fingerprints identically (determinism).
        let a2 = Experiment::prepare(&gem5_co).unwrap();
        assert_eq!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn sampling_off_is_bit_identical_to_prefix_mode() {
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        let prefix = exp.simulate(&cfg, 30_000);
        let off = exp.simulate_sampled(&cfg, 30_000, &SamplingConfig::off());
        assert_eq!(prefix, off, "sampling=off must reproduce prefix mode");
    }

    #[test]
    fn sampled_run_tracks_full_simulation() {
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        let total = exp.total_trace_ops();
        let full = exp.simulate(&cfg, 0);
        assert_eq!(
            full.committed_ops, total,
            "every emitted op commits exactly once"
        );

        // One interval whose budget covers the whole trace is exactly
        // O3Core::run.
        let single = exp.simulate_sampled(&cfg, total as usize, &SamplingConfig::smarts(1));
        assert_eq!(single, full, "full-budget interval must equal run()");

        // A 10x reduced budget over many small intervals extrapolates
        // close to the full simulation. (Few large intervals alias with
        // the trace's phase structure — SMARTS' core observation is that
        // many small windows beat few large ones at equal budget.)
        let sampled = exp.simulate_sampled(&cfg, total as usize / 10, &SamplingConfig::smarts(100));
        let ipc_err = (sampled.ipc() - full.ipc()).abs() / full.ipc();
        assert!(
            ipc_err < 0.05,
            "sampled IPC {} vs full {} (err {:.1}%)",
            sampled.ipc(),
            full.ipc(),
            ipc_err * 100.0
        );
        // Extrapolated op count lands near the whole trace.
        let op_err = (sampled.committed_ops as f64 - total as f64).abs() / total as f64;
        assert!(op_err < 0.02, "extrapolated ops {}", sampled.committed_ops);
        // And it must beat prefix truncation's bias on the cycle
        // estimate... at minimum, be a whole-trace-scale estimate at all
        // (prefix mode reports only the measured window).
        assert!(sampled.cycles > full.cycles / 2);
        assert!(sampled.cycles < full.cycles * 2);
    }

    #[test]
    fn oversized_budget_in_prefix_mode_still_measures() {
        // Regression: a budget whose quarter-warmup exceeded the whole
        // trace used to make run_warm's empty-measurement clamp zero out
        // the stats; the warmup is now a quarter of min(budget, trace).
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        let total = exp.total_trace_ops();
        let stats = exp.simulate(&cfg, (total as usize) * 10);
        assert!(stats.committed_ops > 0, "oversized budget must not zero");
        // Measured window = trace minus the quarter-trace warmup.
        assert!(stats.committed_ops <= total * 3 / 4 + 8);
        assert!(stats.committed_ops >= total / 2);
        assert!(stats.ipc() > 0.1);
    }

    #[test]
    fn sampling_windows_cover_late_trace_phases() {
        let total = 1_000_000u64;
        let windows = sampling_windows(total, 100_000, 10);
        assert_eq!(windows.len(), 10);
        for (start, len) in &windows {
            assert_eq!(*len, 10_000);
            assert!(start + len <= total);
        }
        // Windows are strictly increasing and evenly spread.
        for w in windows.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 100_000, "equal periods");
        }
        // The last window reaches the trace tail — budgeted measurement
        // is no longer a prefix.
        let (last_start, last_len) = *windows.last().unwrap();
        assert!(last_start + last_len == total);
        assert!(last_start as f64 > 0.89 * total as f64);

        // Degenerate shapes.
        assert_eq!(sampling_windows(100, 200, 4), vec![(0, 100)]);
        assert_eq!(sampling_windows(0, 100, 4), vec![]);
        assert_eq!(sampling_windows(100, 0, 4), vec![]);
        // More intervals than budget ops: clamped, never empty windows.
        let tiny = sampling_windows(1000, 3, 10);
        assert_eq!(tiny.len(), 3);
        assert!(tiny.iter().all(|&(_, len)| len == 1));
    }

    #[test]
    fn sampling_windows_budget_at_least_total_is_one_exact_window() {
        // budget == total and budget > total both degenerate to a single
        // exact window covering the whole trace, for any interval count.
        for budget in [500u64, 501, 10_000] {
            for intervals in [0usize, 1, 7, 1000] {
                assert_eq!(
                    sampling_windows(500, budget, intervals),
                    vec![(0, 500)],
                    "budget {budget}, intervals {intervals}"
                );
            }
        }
    }

    #[test]
    fn sampling_windows_never_overlap_or_overrun() {
        // Windows are disjoint, ordered, in-bounds and spend exactly the
        // usable budget across a spread of awkward shapes.
        for (total, budget, intervals) in [
            (1_000_000u64, 100_000u64, 10usize),
            (999_983, 31_337, 17), // primes: nothing divides evenly
            (1000, 999, 3),
            (64, 63, 64),   // intervals > budget/interval
            (1000, 3, 10),  // intervals > budget
            (10, 9, 1),     // single window
            (8192, 1, 128), // one-op budget
        ] {
            let windows = sampling_windows(total, budget, intervals);
            assert!(!windows.is_empty(), "({total},{budget},{intervals})");
            let mut prev_end = 0u64;
            for &(start, len) in &windows {
                assert!(len > 0, "empty window in ({total},{budget},{intervals})");
                assert!(
                    start >= prev_end,
                    "overlap in ({total},{budget},{intervals})"
                );
                assert!(
                    start + len <= total,
                    "overrun in ({total},{budget},{intervals})"
                );
                prev_end = start + len;
            }
            let spent: u64 = windows.iter().map(|&(_, len)| len).sum();
            assert!(
                spent <= budget.max(windows.len() as u64),
                "overspent budget in ({total},{budget},{intervals}): {spent}"
            );
        }
    }

    #[test]
    fn sampling_windows_zero_trace_and_zero_budget_are_empty() {
        assert_eq!(sampling_windows(0, 0, 0), vec![]);
        assert_eq!(sampling_windows(0, 1, 1), vec![]);
        assert_eq!(sampling_windows(1, 0, 1), vec![]);
        // A 1-op trace with any budget is one exact 1-op window.
        assert_eq!(sampling_windows(1, 1, 5), vec![(0, 1)]);
    }

    #[test]
    fn sampled_zero_length_trace_reports_empty_stats() {
        // A sampled run over a trace the windows never reach (empty
        // merge) must report zeros, not extrapolate garbage.
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        // Budget 0 falls back to prefix mode's unlimited run; instead
        // exercise the merge-empty path via a 1-op budget at 1 interval:
        // the window measures ops, so committed stays > 0 — the guard in
        // simulate_sampled is the `merged.committed_ops == 0` branch,
        // reachable only with an empty window set on a non-empty trace,
        // which sampling_windows never produces. Assert that invariant.
        let total = exp.total_trace_ops();
        assert!(total > 0);
        for intervals in [1usize, 4, 1000] {
            assert!(
                !sampling_windows(total, 1, intervals).is_empty(),
                "non-empty trace with non-zero budget always measures"
            );
        }
        let stats = exp.simulate_sampled(&cfg, 1, &SamplingConfig::smarts(4));
        assert!(stats.committed_ops > 0, "1-op budget still extrapolates");
    }

    #[test]
    fn window_merge_extrapolation_preserves_ratios_and_scale() {
        // Merged-and-scaled interval stats: extrapolated committed ops
        // land on the whole trace, and intensive ratios (IPC, MPKI)
        // survive scaling unchanged up to rounding.
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        let total = exp.total_trace_ops();
        let sampled = exp.simulate_sampled(&cfg, total as usize / 8, &SamplingConfig::smarts(32));
        let op_err = (sampled.committed_ops as f64 - total as f64).abs() / total as f64;
        assert!(op_err < 0.05, "extrapolated ops {}", sampled.committed_ops);
        // Slot identity survives merge + scale within rounding slack.
        let width = cfg.commit_width as u64;
        let slack = sampled.total_slots() / 100 + 64;
        assert!(
            sampled.total_slots().abs_diff(sampled.cycles * width) <= slack,
            "slots {} vs cycles*width {}",
            sampled.total_slots(),
            sampled.cycles * width
        );
    }

    #[test]
    fn cached_trace_replay_is_bit_identical_to_streaming_expansion() {
        // `simulate` memoizes the expanded trace (pd fits the default
        // cap); a hand-driven streaming expansion must produce the exact
        // same statistics, and repeated (cache-hit) runs must too.
        let spec = by_id("pd").expect("pd exists");
        let exp = Experiment::prepare(&spec).unwrap();
        let cfg = CoreConfig::gem5_baseline();

        let full = exp.simulate(&cfg, 0);
        let mut model = build_model(&cfg);
        let mut streamed = Expander::with_config(exp.log(), spec.expand_config());
        assert_eq!(full, model.run(&mut streamed), "full-trace replay");
        assert_eq!(full, exp.simulate(&cfg, 0), "cache-hit replay");

        let budget = 40_000usize;
        let budgeted = exp.simulate(&cfg, budget);
        let mut model = build_model(&cfg);
        let mut limited = Expander::with_config(exp.log(), spec.expand_config()).take(budget);
        assert_eq!(
            budgeted,
            model.run_warm(&mut limited, budget as u64 / 4),
            "budgeted replay"
        );
        assert_eq!(budgeted, exp.simulate(&cfg, budget), "budgeted cache hit");
    }

    #[test]
    fn same_log_different_configs() {
        let spec = by_id("pd").expect("pd exists");
        let exp = Experiment::prepare(&spec).unwrap();
        let slow = exp.simulate(&CoreConfig::gem5_baseline().with_frequency(1.0), 30_000);
        let fast = exp.simulate(&CoreConfig::gem5_baseline().with_frequency(4.0), 30_000);
        // Warmup snapshots land on commit-group boundaries, so counts can
        // differ by less than one commit group across configs.
        assert!(
            slow.committed_ops.abs_diff(fast.committed_ops) < 8,
            "same trace must replay: {} vs {}",
            slow.committed_ops,
            fast.committed_ops
        );
        assert!(fast.seconds() < slow.seconds());
    }
}

//! Persistent content-addressed trace store.
//!
//! [`TraceStore`] keys prepared traces by `ScenarioSpec::stable_digest` ×
//! an [`ExpandConfig`] fingerprint and persists them under
//! `BELENOS_TRACE_DIR` (or `--trace-dir`) in the versioned binary format
//! of [`belenos_trace::store`]. A hit lets [`Experiment::prepare`]
//! reconstruct the phase log without building or solving the FE model,
//! so the prepare phase is paid once *ever* per scenario across
//! processes, sweeps, and fleet workers. Entries hold the log alone; a
//! simulation re-expands it only as far as its op budget needs.
//!
//! Trust model: the store is a cache, never an authority. Every load
//! re-verifies the embedded trace fingerprint against the decoded log, so
//! a corrupt, truncated, stale, or misfiled entry degrades to a recompute
//! (with a structured telemetry `warn`), never to a wrong trace. Writes
//! go through a write-then-rename so concurrent processes sharing one
//! store directory can race safely.
//!
//! [`Experiment::prepare`]: crate::experiment::Experiment::prepare

use crate::experiment::{expand_fingerprint, trace_fingerprint};
use belenos_trace::expand::ExpandConfig;
use belenos_trace::{FlatTrace, StoreHeader, TraceArtifact, HEADER_LEN};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A directory of content-addressed trace artifacts.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

static DIR_OVERRIDE: OnceLock<PathBuf> = OnceLock::new();
static GLOBAL: OnceLock<Option<TraceStore>> = OnceLock::new();

/// Routes the process-wide store at `dir` (the `--trace-dir` flag).
///
/// Must run before the first [`global`] call; returns `false` when an
/// override was already installed (first caller wins, matching the
/// telemetry `install` contract).
pub fn install_dir(dir: impl Into<PathBuf>) -> bool {
    DIR_OVERRIDE.set(dir.into()).is_ok()
}

/// The process-wide trace store: the `--trace-dir` override when
/// installed, else `BELENOS_TRACE_DIR` (read once, here — keeping the
/// one-env-read-per-knob rule), else `None` (store disabled).
pub fn global() -> Option<&'static TraceStore> {
    GLOBAL
        .get_or_init(|| {
            if let Some(dir) = DIR_OVERRIDE.get() {
                return Some(TraceStore::at(dir.clone()));
            }
            match std::env::var("BELENOS_TRACE_DIR") {
                Ok(dir) if !dir.is_empty() => Some(TraceStore::at(dir)),
                _ => None,
            }
        })
        .as_ref()
}

impl TraceStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        TraceStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of the entry for (scenario, expansion-config).
    pub fn entry_path(&self, scenario_digest: u64, expand: &ExpandConfig) -> PathBuf {
        let expand_fp = expand_fingerprint(expand);
        self.dir
            .join(format!("trace-{scenario_digest:016x}-{expand_fp:016x}.bin"))
    }

    /// Looks up the artifact for (scenario, expansion-config), verifying
    /// structure, key identity, and the trace fingerprint end to end.
    ///
    /// The second element is always `None`: entries are log-only, and
    /// [`FlatHandle`] is kept only so existing callers still compile.
    ///
    /// Any anomaly — unreadable file, truncation, version skew, checksum
    /// or fingerprint mismatch — emits a telemetry `warn` and reads as a
    /// miss, so callers always recompute instead of erroring out.
    /// Emits `trace_store_hit` / `trace_store_miss` counters either way.
    pub fn load(
        &self,
        workload: &str,
        scenario_digest: u64,
        expand: &ExpandConfig,
    ) -> Option<(TraceArtifact, Option<FlatHandle>)> {
        let tele = belenos_telemetry::global();
        let path = self.entry_path(scenario_digest, expand);
        let miss = |warning: Option<String>| {
            if let Some(w) = warning {
                tele.warn(&format!("trace store: {w}; recomputing"));
            }
            tele.counter("trace_store_miss", 1, &[("workload", workload.into())]);
            None
        };
        let artifact = match read_entry(&path) {
            Ok(bytes) => TraceArtifact::decode(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return miss(None),
            Err(e) => return miss(Some(format!("failed to read {}: {e}", path.display()))),
        };
        let artifact = match artifact {
            Ok(a) => a,
            Err(e) => return miss(Some(format!("discarding {}: {e}", path.display()))),
        };
        let expand_fp = expand_fingerprint(expand);
        if artifact.scenario_digest != scenario_digest || artifact.expand_fingerprint != expand_fp {
            return miss(Some(format!(
                "{} is keyed for a different scenario \
                 (found {:016x}/{:016x}, wanted {scenario_digest:016x}/{expand_fp:016x})",
                path.display(),
                artifact.scenario_digest,
                artifact.expand_fingerprint,
            )));
        }
        if trace_fingerprint(&artifact.log, expand) != artifact.trace_fingerprint {
            return miss(Some(format!(
                "{} fingerprint mismatch (stale or corrupt entry)",
                path.display()
            )));
        }
        tele.counter("trace_store_hit", 1, &[("workload", workload.into())]);
        Some((artifact, None))
    }

    /// Persists `artifact` under its content address, atomically
    /// (write-then-rename, so concurrent writers and crashed processes
    /// never leave a half-written entry at the final path).
    ///
    /// Failures warn and return; the store is an optimization, never a
    /// reason to fail a prepare. Emits `trace_store_write_bytes`.
    pub fn save(&self, workload: &str, artifact: &TraceArtifact, expand: &ExpandConfig) {
        let tele = belenos_telemetry::global();
        let path = self.entry_path(artifact.scenario_digest, expand);
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            tele.warn(&format!(
                "trace store: cannot create {}: {e}",
                self.dir.display()
            ));
            return;
        }
        let bytes = artifact.encode();
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        if let Err(e) = std::fs::write(&tmp, &bytes) {
            tele.warn(&format!("trace store: write {} failed: {e}", tmp.display()));
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            tele.warn(&format!(
                "trace store: rename to {} failed: {e}",
                path.display()
            ));
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        tele.counter(
            "trace_store_write_bytes",
            bytes.len() as u64,
            &[("workload", workload.into())],
        );
    }
}

/// What [`TraceStore::load`] once returned to locate an entry's
/// expanded micro-op section. Entries no longer carry one, so no value of
/// this type exists; it remains because the benchmark crate's layer
/// probes still match on the second element of `load`'s result.
#[derive(Debug)]
pub enum FlatHandle {}

impl FlatHandle {
    /// Unreachable: no `FlatHandle` can be constructed.
    pub fn read(&self) -> Option<Arc<FlatTrace>> {
        match *self {}
    }
}

/// Reads the entry at `path`, stopping after the header when it does not
/// decode, so a version-skewed entry (a version-1 file with its multi-MiB
/// expanded section) is rejected without reading its body.
fn read_entry(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut file = std::fs::File::open(path)?;
    let mut bytes = Vec::new();
    (&mut file)
        .take(HEADER_LEN as u64)
        .read_to_end(&mut bytes)?;
    if StoreHeader::decode(&bytes).is_ok() {
        file.read_to_end(&mut bytes)?;
    }
    Ok(bytes)
}

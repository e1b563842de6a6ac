//! The versioned artifact store: monotonic model versions, checksummed
//! loads, atomic installs, explicit rollback and retention GC.
//!
//! Layout on disk, per tuned function under a store root:
//!
//! ```text
//! <root>/<function>/manifest.json      # atomic, the source of truth
//! <root>/<function>/v000001.model.json # immutable once published
//! <root>/<function>/v000002.model.json
//! ```
//!
//! Every write is temp-file + fsync + rename ([`nitro_core::atomic_write`]),
//! so a reader never observes a torn manifest or artifact. The manifest
//! records each version's CRC-32; loads verify it and a mismatch is a
//! `NITRO071` **error** — a corrupt version is reported and skipped,
//! never installed. Versions are monotonic; the `latest` pointer moves
//! forward on publish and backward only through an explicit (or
//! automatic, see [`crate::promote`]) [`ArtifactStore::rollback`].

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nitro_core::{
    atomic_write_with, crc32, fs_read, mix64, Diagnostic, FsPolicy, ModelArtifact, NitroError,
    Result, RetryPolicy,
};
use serde::{Deserialize, Serialize};

use crate::audit::{diag_retry_exhausted, diag_version_checksum, diag_version_gap};

/// Deterministic per-path retry-jitter salt: different files decorrelate
/// their backoff schedules, the same file replays the same one.
pub(crate) fn path_salt(path: &Path) -> u64 {
    let mut h = 0xA57F_5A17u64;
    for b in path.as_os_str().as_encoded_bytes() {
        h = mix64(h ^ u64::from(*b));
    }
    h
}

/// One published version's manifest entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredVersion {
    /// Monotonic version number (starts at 1).
    pub version: u64,
    /// CRC-32 of the artifact file's exact bytes.
    pub crc: u32,
    /// Artifact file size in bytes.
    pub bytes: u64,
    /// Free-form provenance note (`"tune"`, `"retrain #3"`, …).
    pub note: String,
}

/// One lifecycle event in the manifest's append-only history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreEvent {
    /// Logical sequence number (the store has no clock: deterministic).
    pub seq: u64,
    /// Event kind: `publish`, `rollback`, `gc`.
    pub kind: String,
    /// Version the event concerns, when applicable.
    pub version: Option<u64>,
    /// Human-readable detail.
    pub detail: String,
}

/// The per-function manifest: source of truth for the store directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Function this store tracks.
    pub function: String,
    /// Version currently installed-by-default (what
    /// [`ArtifactStore::load_latest`] loads). `None` before the first
    /// publish.
    pub latest: Option<u64>,
    /// Next version number a publish will receive.
    pub next_version: u64,
    /// Logical event clock.
    pub seq: u64,
    /// Published versions still retained, ascending by version.
    pub versions: Vec<StoredVersion>,
    /// Append-only event history.
    pub events: Vec<StoreEvent>,
}

impl Manifest {
    fn new(function: &str) -> Self {
        Self {
            function: function.to_string(),
            latest: None,
            next_version: 1,
            seq: 0,
            versions: Vec::new(),
            events: Vec::new(),
        }
    }

    fn entry(&self, version: u64) -> Option<&StoredVersion> {
        self.versions.iter().find(|v| v.version == version)
    }

    fn push_event(&mut self, kind: &str, version: Option<u64>, detail: String) {
        self.seq += 1;
        self.events.push(StoreEvent {
            seq: self.seq,
            kind: kind.to_string(),
            version,
            detail,
        });
    }
}

/// A versioned, checksummed store of [`ModelArtifact`]s for one function.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    manifest: Manifest,
    tracer: Option<nitro_trace::Tracer>,
    fs_policy: Option<Arc<dyn FsPolicy>>,
    retry: RetryPolicy,
}

impl ArtifactStore {
    /// Open (or create) the store for `function` under `root`.
    ///
    /// The manifest, if present, is loaded; it is the source of truth,
    /// so orphan version files (a crash between artifact write and
    /// manifest write) are invisible and get overwritten by the next
    /// publish of that number.
    pub fn open(root: impl AsRef<Path>, function: &str) -> Result<Self> {
        let dir = root.as_ref().join(function);
        std::fs::create_dir_all(&dir)?;
        let manifest_path = dir.join("manifest.json");
        let manifest = match std::fs::read_to_string(&manifest_path) {
            Ok(s) => {
                let m: Manifest = serde_json::from_str(&s)?;
                if m.function != function {
                    return Err(NitroError::ModelMismatch {
                        detail: format!(
                            "store at {} belongs to '{}', not '{function}'",
                            dir.display(),
                            m.function
                        ),
                    });
                }
                m
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Manifest::new(function),
            Err(e) => return Err(NitroError::Io(e)),
        };
        Ok(Self {
            dir,
            manifest,
            tracer: None,
            fs_policy: None,
            retry: RetryPolicy::default(),
        })
    }

    /// Install (or clear) the fault-injection seam every subsequent
    /// store read and write consults. `open` itself is never faulted —
    /// attach the policy after opening, the way a chaos harness wraps a
    /// healthy store.
    pub fn set_fs_policy(&mut self, policy: Option<Arc<dyn FsPolicy>>) {
        self.fs_policy = policy;
    }

    /// Replace the bounded retry/backoff policy used for transient I/O
    /// faults ([`RetryPolicy::none`] disables retries entirely).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Atomic write through the policy seam with bounded retry.
    /// Transient faults are retried with deterministic jitter; an
    /// exhausted budget is typed (`NITRO113`) rather than looped on,
    /// and non-retryable errors surface as plain I/O.
    fn retried_write(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let policy = self.fs_policy.as_deref();
        // retry_torn: an injected tear lands in the invisible temp file,
        // never the target, so re-attempting an *atomic* write is safe.
        let (result, attempts) = self.retry.run(path_salt(path), true, || {
            atomic_write_with(path, bytes, policy).map_err(|e| match e {
                NitroError::Io(io) => io,
                other => std::io::Error::other(other.to_string()),
            })
        });
        match result {
            Ok(()) => Ok(()),
            Err(e) if attempts > 1 || nitro_core::is_retryable(&e) => Err(NitroError::Audit {
                diagnostics: vec![diag_retry_exhausted(
                    &path.display().to_string(),
                    "atomic write",
                    attempts,
                    &e.to_string(),
                )],
            }),
            Err(e) => Err(NitroError::Io(e)),
        }
    }

    /// Emit `store.<fn>.*` counters and `store:<fn>` instants through a
    /// tracer. Counters are pre-declared so reports show zeros.
    pub fn attach_tracer(&mut self, tracer: nitro_trace::Tracer) {
        let m = tracer.metrics();
        for suffix in ["publish", "rollback", "gc", "corrupt"] {
            m.counter(&format!("store.{}.{suffix}", self.manifest.function));
        }
        self.tracer = Some(tracer);
    }

    fn note_event(&self, kind: &str, version: Option<u64>) {
        if let Some(t) = &self.tracer {
            let f = &self.manifest.function;
            t.metrics().counter(&format!("store.{f}.{kind}")).inc();
            t.instant(
                &format!("store:{f}"),
                "store",
                vec![
                    nitro_trace::arg("event", kind),
                    nitro_trace::arg("version", &version),
                ],
            );
        }
    }

    /// The function this store tracks.
    pub fn function(&self) -> &str {
        &self.manifest.function
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest (versions, events, pointers).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The currently installed version, if any.
    pub fn latest(&self) -> Option<u64> {
        self.manifest.latest
    }

    /// Retained versions, ascending.
    pub fn versions(&self) -> &[StoredVersion] {
        &self.manifest.versions
    }

    fn version_path(&self, version: u64) -> PathBuf {
        self.dir.join(format!("v{version:06}.model.json"))
    }

    fn save_manifest(&self) -> Result<()> {
        let json = serde_json::to_string_pretty(&self.manifest)?;
        self.retried_write(&self.dir.join("manifest.json"), json.as_bytes())
    }

    /// Publish an artifact as the next version and move `latest` to it.
    /// The artifact file lands atomically *before* the manifest points
    /// at it, so a crash in between leaves the store on the prior
    /// version with an invisible orphan file.
    pub fn publish(&mut self, artifact: &ModelArtifact, note: &str) -> Result<u64> {
        if artifact.function != self.manifest.function {
            return Err(NitroError::ModelMismatch {
                detail: format!(
                    "artifact is for '{}', store is for '{}'",
                    artifact.function, self.manifest.function
                ),
            });
        }
        let version = self.manifest.next_version;
        let json = artifact.to_json()?;
        let bytes = json.as_bytes();
        self.retried_write(&self.version_path(version), bytes)?;
        // Mutate the in-memory manifest only after the artifact landed,
        // and restore the snapshot if persisting the manifest fails —
        // otherwise a failed publish leaves `latest` pointing at a
        // version the on-disk manifest never adopted.
        let snapshot = self.manifest.clone();
        self.manifest.versions.push(StoredVersion {
            version,
            crc: crc32(bytes),
            bytes: bytes.len() as u64,
            note: note.to_string(),
        });
        self.manifest.next_version += 1;
        self.manifest.latest = Some(version);
        self.manifest
            .push_event("publish", Some(version), note.to_string());
        if let Err(e) = self.save_manifest() {
            self.manifest = snapshot;
            return Err(e);
        }
        self.note_event("publish", Some(version));
        Ok(version)
    }

    /// Read and verify one version's bytes. Checksum failures and
    /// missing files come back as `Err` diagnostics — the caller never
    /// sees corrupt bytes.
    fn read_verified(&self, version: u64) -> std::result::Result<String, Diagnostic> {
        let f = &self.manifest.function;
        let Some(entry) = self.manifest.entry(version) else {
            return Err(diag_version_gap(f, version, "is not in the manifest"));
        };
        let path = self.version_path(version);
        let policy = self.fs_policy.as_deref();
        let (read, attempts) = self
            .retry
            .run(path_salt(&path), false, || fs_read(&path, policy));
        let bytes = read.map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                diag_version_gap(f, version, &format!("file is missing ({e})"))
            } else {
                diag_retry_exhausted(
                    &path.display().to_string(),
                    "read",
                    attempts,
                    &e.to_string(),
                )
            }
        })?;
        let actual = crc32(&bytes);
        if actual != entry.crc {
            return Err(diag_version_checksum(f, version, entry.crc, actual));
        }
        String::from_utf8(bytes).map_err(|_| diag_version_checksum(f, version, entry.crc, actual))
    }

    /// Load one version, verifying its checksum. A corrupt or missing
    /// version is [`NitroError::Audit`] with the `NITRO071`/`NITRO072`
    /// finding — it is never parsed, let alone installed.
    pub fn load(&self, version: u64) -> Result<ModelArtifact> {
        match self.read_verified(version) {
            Ok(json) => ModelArtifact::from_json(&json),
            Err(diag) => {
                self.note_event("corrupt", Some(version));
                Err(NitroError::Audit {
                    diagnostics: vec![diag],
                })
            }
        }
    }

    /// Load the `latest` version (`Ok(None)` on an empty store).
    pub fn load_latest(&self) -> Result<Option<ModelArtifact>> {
        match self.manifest.latest {
            None => Ok(None),
            Some(v) => self.load(v).map(Some),
        }
    }

    /// Load the newest *intact* version at or below `latest`, walking
    /// back past corrupt or missing ones. Returns the loaded pair plus
    /// the findings for every broken version skipped on the way — so a
    /// degraded host can keep serving the best surviving model while
    /// the damage is reported.
    pub fn load_latest_intact(&self) -> (Option<(u64, ModelArtifact)>, Vec<Diagnostic>) {
        let mut diagnostics = Vec::new();
        let Some(latest) = self.manifest.latest else {
            return (None, diagnostics);
        };
        let mut candidates: Vec<u64> = self
            .manifest
            .versions
            .iter()
            .map(|v| v.version)
            .filter(|&v| v <= latest)
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        for version in candidates {
            match self.read_verified(version) {
                Ok(json) => match ModelArtifact::from_json(&json) {
                    Ok(artifact) => return (Some((version, artifact)), diagnostics),
                    Err(e) => diagnostics.push(diag_version_gap(
                        &self.manifest.function,
                        version,
                        &format!("passes its checksum but does not parse ({e})"),
                    )),
                },
                Err(diag) => {
                    self.note_event("corrupt", Some(version));
                    diagnostics.push(diag);
                }
            }
        }
        (None, diagnostics)
    }

    /// Move `latest` back (or forward) to an existing *intact* version.
    /// Refuses to point at a corrupt one.
    pub fn rollback(&mut self, to: u64) -> Result<()> {
        if let Err(diag) = self.read_verified(to) {
            return Err(NitroError::Audit {
                diagnostics: vec![diag],
            });
        }
        let from = self.manifest.latest;
        let snapshot = self.manifest.clone();
        self.manifest.latest = Some(to);
        self.manifest.push_event(
            "rollback",
            Some(to),
            format!(
                "latest {} -> v{to}",
                from.map_or_else(|| "(none)".into(), |v| format!("v{v}"))
            ),
        );
        if let Err(e) = self.save_manifest() {
            self.manifest = snapshot;
            return Err(e);
        }
        self.note_event("rollback", Some(to));
        Ok(())
    }

    /// Retention GC: drop the oldest versions beyond the newest `keep`,
    /// never dropping `latest`. Returns the versions removed.
    pub fn gc(&mut self, keep: usize) -> Result<Vec<u64>> {
        let keep = keep.max(1);
        if self.manifest.versions.len() <= keep {
            return Ok(Vec::new());
        }
        let cut = self.manifest.versions.len() - keep;
        let latest = self.manifest.latest;
        let snapshot = self.manifest.clone();
        let mut removed = Vec::new();
        let mut kept = Vec::new();
        for (i, v) in self.manifest.versions.drain(..).enumerate() {
            if i < cut && Some(v.version) != latest {
                removed.push(v.version);
            } else {
                kept.push(v);
            }
        }
        self.manifest.versions = kept;
        if !removed.is_empty() {
            let detail = format!(
                "removed {}",
                removed
                    .iter()
                    .map(|v| format!("v{v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            self.manifest.push_event("gc", None, detail);
            // Persist the shrunk manifest *before* deleting any file: a
            // failure here must not leave the manifest listing versions
            // whose files are gone.
            if let Err(e) = self.save_manifest() {
                self.manifest = snapshot;
                return Err(e);
            }
            for &version in &removed {
                std::fs::remove_file(self.version_path(version)).ok();
            }
            self.note_event("gc", None);
        }
        Ok(removed)
    }

    /// Verify every retained version against the manifest: missing
    /// files are `NITRO072`, checksum failures `NITRO071`, a dangling
    /// `latest` pointer `NITRO072`. Empty means the store is intact.
    pub fn verify(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for v in &self.manifest.versions {
            if let Err(diag) = self.read_verified(v.version) {
                out.push(diag);
            }
        }
        if let Some(latest) = self.manifest.latest {
            if self.manifest.entry(latest).is_none() {
                out.push(diag_version_gap(
                    &self.manifest.function,
                    latest,
                    "is the latest pointer but was GC'd or never published",
                ));
            }
        }
        out
    }

    /// Lower every readable retained version into tuning-graph
    /// [`nitro_audit::VersionNode`]s for the whole-configuration
    /// cross-version compatibility analysis (`NITRO085`). Versions that
    /// fail to load are skipped here — [`ArtifactStore::verify`] already
    /// reports them as `NITRO071`/`NITRO072` integrity findings.
    pub fn version_nodes(&self) -> Vec<nitro_audit::VersionNode> {
        self.manifest
            .versions
            .iter()
            .filter_map(|v| {
                let artifact = self.load(v.version).ok()?;
                Some(nitro_audit::VersionNode {
                    version: v.version,
                    is_latest: self.manifest.latest == Some(v.version),
                    function: artifact.function,
                    schema_version: artifact.schema_version,
                    variant_names: artifact.variant_names,
                    feature_names: artifact.feature_names,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::context::temp_model_dir;
    use nitro_core::{ModelArtifact, TuningPolicy, MODEL_SCHEMA_VERSION};
    use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};

    fn artifact(function: &str, shift: f64) -> ModelArtifact {
        let data = Dataset::from_parts(
            vec![
                vec![0.0 + shift],
                vec![1.0 + shift],
                vec![2.0 + shift],
                vec![3.0 + shift],
            ],
            vec![0, 0, 1, 1],
        );
        let model = TrainedModel::train(
            &ClassifierConfig::Svm {
                c: Some(1.0),
                gamma: Some(1.0),
                grid_search: false,
                cache_bytes: None,
            },
            &data,
        );
        ModelArtifact {
            schema_version: MODEL_SCHEMA_VERSION,
            function: function.into(),
            variant_names: vec!["a".into(), "b".into()],
            feature_names: vec!["x".into()],
            policy: TuningPolicy::default(),
            model,
        }
    }

    #[test]
    fn version_nodes_lower_the_manifest_for_the_deep_pass() {
        let root = temp_model_dir("store-vn").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        assert!(store.version_nodes().is_empty());
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        let mut second = artifact("toy", 1.0);
        second.feature_names = vec!["x".into(), "extra".into()];
        store.publish(&second, "retrain").unwrap();

        let nodes = store.version_nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].version, 1);
        assert!(!nodes[0].is_latest);
        assert_eq!(nodes[0].feature_names, vec!["x".to_string()]);
        assert_eq!(nodes[1].version, 2);
        assert!(nodes[1].is_latest);
        assert_eq!(nodes[1].function, "toy");
        assert_eq!(nodes[1].schema_version, MODEL_SCHEMA_VERSION);
        assert_eq!(nodes[1].feature_names.len(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn publish_load_and_latest_round_trip() {
        let root = temp_model_dir("store-rt").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let v1 = store.publish(&artifact("toy", 0.0), "tune").unwrap();
        let v2 = store.publish(&artifact("toy", 1.0), "retrain").unwrap();
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(store.latest(), Some(2));
        assert_eq!(store.load(1).unwrap(), artifact("toy", 0.0));
        assert_eq!(store.load_latest().unwrap().unwrap(), artifact("toy", 1.0));
        // Reopen: the manifest persists everything.
        let store = ArtifactStore::open(&root, "toy").unwrap();
        assert_eq!(store.latest(), Some(2));
        assert_eq!(store.versions().len(), 2);
        assert!(store.verify().is_empty());
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn wrong_function_is_rejected() {
        let root = temp_model_dir("store-wrongfn").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        assert!(store.publish(&artifact("other", 0.0), "tune").is_err());
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        // Reopening under the right name works.
        assert!(ArtifactStore::open(&root, "toy").is_ok());
        // A directory whose manifest names a different function is
        // refused rather than silently adopted.
        std::fs::create_dir_all(root.join("evil")).unwrap();
        std::fs::copy(
            root.join("toy").join("manifest.json"),
            root.join("evil").join("manifest.json"),
        )
        .unwrap();
        assert!(ArtifactStore::open(&root, "evil").is_err());
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn corrupt_version_is_detected_and_never_loaded() {
        let root = temp_model_dir("store-corrupt").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        store.publish(&artifact("toy", 1.0), "retrain").unwrap();
        // Flip one bit in v2's file.
        let path = store.version_path(2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let err = store.load(2).unwrap_err();
        assert!(err.to_string().contains("NITRO071"), "{err}");
        let diags = store.verify();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "NITRO071");
        // load_latest_intact falls back to v1 and reports the damage.
        let (loaded, diags) = store.load_latest_intact();
        let (version, art) = loaded.unwrap();
        assert_eq!(version, 1);
        assert_eq!(art, artifact("toy", 0.0));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "NITRO071");
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn truncated_version_is_detected() {
        let root = temp_model_dir("store-trunc").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        let path = store.version_path(1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let err = store.load(1).unwrap_err();
        assert!(err.to_string().contains("NITRO071"), "{err}");
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn missing_version_file_is_a_gap() {
        let root = temp_model_dir("store-gap").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        std::fs::remove_file(store.version_path(1)).unwrap();
        let err = store.load(1).unwrap_err();
        assert!(err.to_string().contains("NITRO072"), "{err}");
        assert_eq!(store.verify()[0].code, "NITRO072");
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn rollback_moves_latest_and_refuses_corrupt_targets() {
        let root = temp_model_dir("store-rollback").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        store.publish(&artifact("toy", 1.0), "retrain").unwrap();
        store.rollback(1).unwrap();
        assert_eq!(store.latest(), Some(1));
        assert_eq!(store.load_latest().unwrap().unwrap(), artifact("toy", 0.0));
        assert!(store.rollback(7).is_err());
        // Corrupt v2, then refuse to roll "back" onto it.
        let path = store.version_path(2);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.rollback(2).is_err());
        assert_eq!(store.latest(), Some(1));
        let kinds: Vec<&str> = store
            .manifest()
            .events
            .iter()
            .map(|e| e.kind.as_str())
            .collect();
        assert_eq!(kinds, vec!["publish", "publish", "rollback"]);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn gc_keeps_newest_and_latest() {
        let root = temp_model_dir("store-gc").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        for i in 0..5 {
            store.publish(&artifact("toy", i as f64), "tune").unwrap();
        }
        store.rollback(1).unwrap(); // latest = v1, the oldest
        let removed = store.gc(2).unwrap();
        assert_eq!(removed, vec![2, 3]);
        let kept: Vec<u64> = store.versions().iter().map(|v| v.version).collect();
        assert_eq!(kept, vec![1, 4, 5]);
        assert!(store.load(1).is_ok(), "latest must survive gc");
        assert!(store.load(2).is_err());
        assert!(store.verify().is_empty());
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn publish_rides_out_transient_faults_and_stays_intact() {
        use nitro_core::{ChaosFs, RetryPolicy};
        let root = temp_model_dir("store-chaos-flaky").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        store.set_retry(RetryPolicy {
            max_attempts: 16,
            backoff_base_ns: 10,
            ..RetryPolicy::default()
        });
        // A mix of torn writes, ENOSPC and failed renames, none
        // permanent: every publish eventually lands, and nothing a
        // reader can observe is ever torn.
        store.set_fs_policy(Some(Arc::new(ChaosFs::with_probs(3, 0.2, 0.2, 0.1, 0.2))));
        for i in 0..4u32 {
            let v = store
                .publish(&artifact("toy", f64::from(i)), "tune")
                .unwrap();
            assert_eq!(v, u64::from(i) + 1);
        }
        assert_eq!(store.latest(), Some(4));
        // Verification reads also pass through the (flaky) seam.
        assert!(store.verify().is_empty());
        // The store reopens clean with no policy attached.
        let clean = ArtifactStore::open(&root, "toy").unwrap();
        assert!(clean.verify().is_empty());
        assert_eq!(clean.load_latest().unwrap().unwrap(), artifact("toy", 3.0));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn exhausted_publish_is_typed_and_leaves_the_store_consistent() {
        use nitro_core::{ChaosFs, RetryPolicy};
        let root = temp_model_dir("store-chaos-bricked").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        store.set_retry(RetryPolicy {
            max_attempts: 3,
            backoff_base_ns: 0,
            ..RetryPolicy::default()
        });
        // Probability-1 ENOSPC: the budget exhausts, typed as NITRO113,
        // and the in-memory manifest snaps back to the published state.
        store.set_fs_policy(Some(Arc::new(ChaosFs::with_probs(7, 0.0, 1.0, 0.0, 0.0))));
        let err = store.publish(&artifact("toy", 1.0), "retrain").unwrap_err();
        assert!(err.to_string().contains("NITRO113"), "{err}");
        assert_eq!(store.latest(), Some(1));
        assert_eq!(store.versions().len(), 1);
        store.set_fs_policy(None);
        assert!(store.verify().is_empty());
        assert_eq!(store.load_latest().unwrap().unwrap(), artifact("toy", 0.0));
        // On-disk state agrees: reopening sees only the first publish.
        let reopened = ArtifactStore::open(&root, "toy").unwrap();
        assert_eq!(reopened.latest(), Some(1));
        assert_eq!(reopened.versions().len(), 1);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn permanent_read_faults_surface_as_retry_exhaustion() {
        use nitro_core::{ChaosFs, RetryPolicy};
        let root = temp_model_dir("store-chaos-read").unwrap();
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        store.set_retry(RetryPolicy {
            max_attempts: 3,
            backoff_base_ns: 0,
            ..RetryPolicy::default()
        });
        store.set_fs_policy(Some(Arc::new(ChaosFs::with_probs(5, 0.0, 0.0, 1.0, 0.0))));
        let err = store.load(1).unwrap_err();
        assert!(err.to_string().contains("NITRO113"), "{err}");
        // load_latest_intact degrades gracefully: nothing intact under a
        // total read outage, and the damage is reported, not hidden.
        let (loaded, diags) = store.load_latest_intact();
        assert!(loaded.is_none());
        assert!(diags.iter().any(|d| d.code == "NITRO113"), "{diags:?}");
        // Clearing the policy restores the store untouched.
        store.set_fs_policy(None);
        assert!(store.verify().is_empty());
        assert_eq!(store.load_latest().unwrap().unwrap(), artifact("toy", 0.0));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn store_metrics_reach_the_tracer() {
        let root = temp_model_dir("store-metrics").unwrap();
        let sink = std::sync::Arc::new(nitro_trace::RingSink::new(64));
        let tracer = nitro_trace::Tracer::new(sink);
        let mut store = ArtifactStore::open(&root, "toy").unwrap();
        store.attach_tracer(tracer.clone());
        store.publish(&artifact("toy", 0.0), "tune").unwrap();
        store.publish(&artifact("toy", 1.0), "retrain").unwrap();
        store.rollback(1).unwrap();
        let m = tracer.metrics();
        assert_eq!(m.counter_value("store.toy.publish"), Some(2));
        assert_eq!(m.counter_value("store.toy.rollback"), Some(1));
        assert_eq!(m.counter_value("store.toy.gc"), Some(0));
        std::fs::remove_dir_all(root).ok();
    }
}

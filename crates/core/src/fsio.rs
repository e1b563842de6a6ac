//! Durable filesystem primitives, content checksums, and the
//! fault-injection seam underneath them.
//!
//! Model artifacts, tuning journals and store manifests all survive
//! process crashes only if their writes are crash-consistent. This
//! module provides the building blocks the persistence layers
//! (`ModelArtifact::save`, `nitro-store`) share:
//!
//! * [`crc32`] — the IEEE CRC-32 used to checksum artifact payloads and
//!   journal lines (dependency-free, table generated at compile time).
//! * [`atomic_write`] — write-to-temp + fsync + rename, so a reader can
//!   never observe a torn file: it sees either the old contents or the
//!   complete new contents, even across a crash mid-write.
//! * [`FsPolicy`] — the chaos seam: every policy-aware operation
//!   ([`atomic_write_with`], [`fs_read`]) consults an optional policy
//!   before touching the filesystem. The default (`None`) is a pure
//!   passthrough; a seeded [`ChaosFs`] injects torn writes, `ENOSPC`,
//!   read `EIO` and failed renames as a **pure function of
//!   `(seed, file name, op index)`**, so a fault schedule replays
//!   exactly under the same seed, wherever the store's root lies.
//! * [`RetryPolicy`] — a bounded, deterministically-jittered retry for
//!   transient I/O faults. Persistence layers retry through it and
//!   surface exhaustion as a typed error (`NITRO113`) instead of
//!   looping forever or giving up on the first blip.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{NitroError, Result};

/// IEEE 802.3 CRC-32 lookup table, generated at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of a byte slice (the checksum `cksum`-style tools and the
/// artifact store agree on). Stable across platforms and releases — it
/// is persisted inside journals and manifests.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// SplitMix64 finalizer: the one seeded hash every chaos component
/// (fault schedules, retry jitter, shard decorrelation) derives its
/// streams from. Statistically well-mixed, trivially portable, and —
/// crucially — a pure function, so every chaos decision is replayable.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Map a hash word onto `[0, 1)` with 53 bits of precision.
fn unit_fraction(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Which filesystem operation a policy is being consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOp {
    /// Reading a file's contents.
    Read,
    /// Writing new contents (the temp-file stage of an atomic write, or
    /// a journal append).
    Write,
    /// The rename that makes an atomic write visible.
    Rename,
}

/// A fault a policy can inject into one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFault {
    /// A crash mid-write: only a prefix of the bytes lands, and the
    /// operation fails with `ErrorKind::Interrupted`. **Never retried
    /// blindly** — the partial bytes are already on disk, so the layer
    /// above must re-establish consistency first (atomic writes are
    /// naturally safe: the tear lands in the invisible temp file).
    TornWrite,
    /// The device is out of space (`ENOSPC`-shaped). Nothing was
    /// written; safe to retry.
    NoSpace,
    /// A read failed with an `EIO`-shaped error. Safe to retry.
    ReadError,
    /// The visibility rename failed. The target still holds its old
    /// contents; safe to retry.
    RenameFailed,
}

impl FsFault {
    /// Render this fault as the `std::io::Error` the faulted operation
    /// surfaces.
    pub fn to_error(self, path: &Path) -> std::io::Error {
        let p = path.display();
        match self {
            FsFault::TornWrite => std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("chaos-fs: torn write (crash mid-write) on {p}"),
            ),
            FsFault::NoSpace => std::io::Error::other(format!(
                "chaos-fs: no space left on device (ENOSPC) writing {p}"
            )),
            FsFault::ReadError => {
                std::io::Error::other(format!("chaos-fs: I/O error (EIO) reading {p}"))
            }
            FsFault::RenameFailed => {
                std::io::Error::other(format!("chaos-fs: rename failed installing {p}"))
            }
        }
    }
}

/// The fault-injection seam. Implementations decide, per operation,
/// whether to inject a fault; `None` means the operation proceeds.
///
/// The passthrough policy is simply *no policy* — every policy-aware
/// helper takes `Option<&dyn FsPolicy>` and `None` short-circuits to
/// the plain filesystem call.
pub trait FsPolicy: Send + Sync + std::fmt::Debug {
    /// Consulted immediately before `op` touches `path`. Returning
    /// `Some(fault)` injects that fault instead of performing the
    /// operation (for [`FsFault::TornWrite`], a partial write *is*
    /// performed first).
    fn fault(&self, op: FsOp, path: &Path) -> Option<FsFault>;
}

/// Seeded chaos policy: injects each fault class with a configured
/// probability, decided as a pure function of `(seed, file name,
/// op index)`. The op index is a process-wide counter over every
/// consultation of this policy instance, so a fixed sequence of
/// operations under a fixed seed replays the exact same fault schedule.
/// Only the file name enters the draw, not its directory, so a store
/// rooted in a per-process temp directory replays it too.
#[derive(Debug)]
pub struct ChaosFs {
    seed: u64,
    torn_write: f64,
    no_space: f64,
    read_error: f64,
    rename_failed: f64,
    ops: AtomicU64,
    injected: AtomicU64,
}

impl ChaosFs {
    /// A chaos policy with every probability zero (a passthrough until
    /// probabilities are raised via [`ChaosFs::with_probs`]).
    pub fn new(seed: u64) -> Self {
        Self::with_probs(seed, 0.0, 0.0, 0.0, 0.0)
    }

    /// A chaos policy injecting torn writes, `ENOSPC`, read `EIO` and
    /// failed renames with the given per-operation probabilities
    /// (each clamped to `[0, 1]`).
    pub fn with_probs(
        seed: u64,
        torn_write: f64,
        no_space: f64,
        read_error: f64,
        rename_failed: f64,
    ) -> Self {
        let clamp = |p: f64| {
            if p.is_finite() {
                p.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        Self {
            seed,
            torn_write: clamp(torn_write),
            no_space: clamp(no_space),
            read_error: clamp(read_error),
            rename_failed: clamp(rename_failed),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Operations consulted so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// The draw for `(path's file name, op index, lane)`: a pure
    /// function of the seed, so the schedule replays under the same
    /// operation sequence.
    fn draw(&self, path: &Path, index: u64, lane: u64) -> f64 {
        let mut h = self.seed;
        let name = path.file_name().unwrap_or(path.as_os_str());
        for b in name.as_encoded_bytes() {
            h = mix64(h ^ u64::from(*b));
        }
        unit_fraction(mix64(
            h ^ mix64(index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane),
        ))
    }
}

impl FsPolicy for ChaosFs {
    fn fault(&self, op: FsOp, path: &Path) -> Option<FsFault> {
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        let fault = match op {
            FsOp::Read => {
                (self.draw(path, index, 1) < self.read_error).then_some(FsFault::ReadError)
            }
            FsOp::Write => {
                if self.draw(path, index, 2) < self.torn_write {
                    Some(FsFault::TornWrite)
                } else if self.draw(path, index, 3) < self.no_space {
                    Some(FsFault::NoSpace)
                } else {
                    None
                }
            }
            FsOp::Rename => {
                (self.draw(path, index, 4) < self.rename_failed).then_some(FsFault::RenameFailed)
            }
        };
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        fault
    }
}

/// Whether an I/O error is worth retrying. `NotFound` and
/// `InvalidInput` are semantic, not transient — retrying them only
/// delays the real answer.
pub fn is_retryable(e: &std::io::Error) -> bool {
    !matches!(
        e.kind(),
        std::io::ErrorKind::NotFound | std::io::ErrorKind::InvalidInput
    )
}

/// Bounded retry with deterministically-jittered exponential backoff
/// for transient filesystem faults.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, ns; doubles per further retry.
    pub backoff_base_ns: u64,
    /// Jitter fraction in `[0, 1]`: each pause is scaled by a
    /// deterministic factor in `[1 − jitter, 1 + jitter)` so concurrent
    /// retriers decorrelate instead of thundering in lockstep.
    pub jitter: f64,
    /// Seed of the jitter stream (salted per call site).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base_ns: 50_000,
            jitter: 0.5,
            seed: 0x5EED_F5F5_0B0E_11A5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no pause).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_ns: 0,
            ..Self::default()
        }
    }

    /// The jittered pause before retry number `attempt` (1-based), for
    /// a call site identified by `salt`. Pure: the same
    /// `(seed, salt, attempt)` always yields the same pause.
    pub fn backoff_ns(&self, salt: u64, attempt: u32) -> u64 {
        let base = self
            .backoff_base_ns
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
        let jitter = if self.jitter.is_finite() {
            self.jitter.clamp(0.0, 1.0)
        } else {
            0.0
        };
        if jitter == 0.0 || base == 0 {
            return base;
        }
        let u = unit_fraction(mix64(self.seed ^ mix64(salt) ^ u64::from(attempt)));
        let factor = 1.0 + jitter * (2.0 * u - 1.0);
        (base as f64 * factor) as u64
    }

    /// Run `f` up to `max_attempts` times, sleeping the jittered
    /// backoff between attempts. Non-retryable errors ([`is_retryable`])
    /// and torn writes (`ErrorKind::Interrupted` — partial bytes are
    /// already on disk unless the caller says otherwise) short-circuit
    /// when `retry_torn` is false. Returns the final result plus the
    /// number of attempts made.
    pub fn run<T>(
        &self,
        salt: u64,
        retry_torn: bool,
        mut f: impl FnMut() -> std::io::Result<T>,
    ) -> (std::io::Result<T>, u32) {
        let max = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match f() {
                Ok(v) => return (Ok(v), attempt),
                Err(e) => {
                    let torn_stop = !retry_torn && e.kind() == std::io::ErrorKind::Interrupted;
                    if attempt >= max || !is_retryable(&e) || torn_stop {
                        return (Err(e), attempt);
                    }
                    let pause = self.backoff_ns(salt, attempt);
                    if pause > 0 {
                        std::thread::sleep(std::time::Duration::from_nanos(pause));
                    }
                }
            }
        }
    }
}

/// Read a file's bytes through the policy seam: `Read` faults surface
/// as the injected error, everything else is `std::fs::read`.
pub fn fs_read(path: impl AsRef<Path>, policy: Option<&dyn FsPolicy>) -> std::io::Result<Vec<u8>> {
    let path = path.as_ref();
    if let Some(p) = policy {
        if let Some(fault) = p.fault(FsOp::Read, path) {
            return Err(fault.to_error(path));
        }
    }
    std::fs::read(path)
}

/// Monotonic counter distinguishing concurrent temp files in one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Atomically replace `path` with `bytes` (no fault policy — the
/// passthrough form of [`atomic_write_with`]).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<()> {
    atomic_write_with(path, bytes, None)
}

/// Atomically replace `path` with `bytes`, consulting `policy` at the
/// write and rename stages.
///
/// Writes to a temp file *in the same directory* (rename is only atomic
/// within a filesystem), fsyncs the data, renames over the target, then
/// best-effort fsyncs the directory so the rename itself is durable. A
/// crash at any point — injected or real — leaves either the previous
/// contents or the new contents at `path`, **never a torn file**:
///
/// * an injected [`FsFault::TornWrite`] leaves its partial bytes in the
///   invisible temp file (exactly what a kill mid-write leaves) and the
///   target untouched;
/// * an injected [`FsFault::NoSpace`] fails before any byte lands;
/// * an injected [`FsFault::RenameFailed`] fails after the temp file is
///   complete but before it becomes visible; the temp is cleaned up.
pub fn atomic_write_with(
    path: impl AsRef<Path>,
    bytes: &[u8],
    policy: Option<&dyn FsPolicy>,
) -> Result<()> {
    let path = path.as_ref();
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| {
            NitroError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("atomic_write target has no file name: {}", path.display()),
            ))
        })?
        .to_string();
    let tmp = parent.join(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));

    if let Some(p) = policy {
        match p.fault(FsOp::Write, path) {
            Some(FsFault::TornWrite) => {
                // Simulate the crash faithfully: a prefix of the bytes
                // lands in the temp file, which stays behind as the
                // orphan a real kill would leave. The target is never
                // touched.
                if let Ok(mut f) = File::create(&tmp) {
                    let _ = f.write_all(&bytes[..bytes.len() / 2]);
                    let _ = f.flush();
                }
                return Err(NitroError::Io(FsFault::TornWrite.to_error(path)));
            }
            Some(fault) => return Err(NitroError::Io(fault.to_error(path))),
            None => {}
        }
    }

    let write = (|| -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        if let Some(p) = policy {
            if let Some(fault) = p.fault(FsOp::Rename, path) {
                return Err(fault.to_error(path));
            }
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if let Err(e) = write {
        std::fs::remove_file(&tmp).ok();
        return Err(NitroError::Io(e));
    }
    // Durability of the rename itself: fsync the directory. Opening a
    // directory read-only works on unix; elsewhere this is best-effort.
    if let Ok(dir) = File::open(&parent) {
        dir.sync_all().ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"nitro artifact payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn atomic_write_replaces_contents_and_leaves_no_temp() {
        let dir = crate::context::temp_model_dir("fsio-atomic").unwrap();
        let path = dir.join("target.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn atomic_write_into_missing_directory_errors() {
        let dir = crate::context::temp_model_dir("fsio-missing").unwrap();
        let path = dir.join("no-such-subdir").join("target.json");
        assert!(matches!(atomic_write(&path, b"x"), Err(NitroError::Io(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn chaos_schedule_is_a_pure_function_of_seed_file_name_and_op_index() {
        let mk = || ChaosFs::with_probs(42, 0.3, 0.2, 0.4, 0.3);
        let (a, b) = (mk(), mk());
        let paths = [Path::new("m/manifest.json"), Path::new("m/v000001.json")];
        // `b`'s store lies under another root, as a per-process temp
        // directory would: the schedule must not change.
        let other_root = Path::new("/tmp/nitro-models-store-4242");
        for i in 0..256 {
            let op = match i % 3 {
                0 => FsOp::Read,
                1 => FsOp::Write,
                _ => FsOp::Rename,
            };
            let path = paths[i % 2];
            let moved = other_root.join(path);
            assert_eq!(a.fault(op, path), b.fault(op, &moved), "op {i} diverged");
        }
        assert!(a.injected() > 0, "probabilities this high must inject");
        assert_eq!(a.injected(), b.injected());
        // A different seed decorrelates the schedule.
        let c = ChaosFs::with_probs(43, 0.3, 0.2, 0.4, 0.3);
        let mut diverged = false;
        for _ in 0..256 {
            let fresh = mk();
            for _ in 0..8 {
                let _ = fresh.fault(FsOp::Write, paths[0]);
            }
            if c.fault(FsOp::Write, paths[0]) != a.fault(FsOp::Write, paths[0]) {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "seed 43 never diverged from seed 42");
    }

    #[test]
    fn atomic_write_never_tears_the_target_under_injected_faults() {
        let dir = crate::context::temp_model_dir("fsio-chaos").unwrap();
        let path = dir.join("target.json");
        atomic_write(&path, b"genesis").unwrap();
        let mut expected: Vec<u8> = b"genesis".to_vec();
        let mut classes_seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let chaos = ChaosFs::with_probs(seed, 0.25, 0.25, 0.25, 0.25);
            for i in 0..8 {
                let next = format!("seed {seed} write {i} with enough bytes to notice a tear");
                match atomic_write_with(&path, next.as_bytes(), Some(&chaos)) {
                    Ok(()) => expected = next.into_bytes(),
                    Err(NitroError::Io(e)) => {
                        classes_seen.insert(
                            e.to_string().split(':').nth(1).map(|s| {
                                s.trim().split(' ').next().unwrap_or_default().to_string()
                            }),
                        );
                    }
                    Err(other) => panic!("unexpected error type: {other}"),
                }
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    expected,
                    "target torn at seed {seed} op {i}"
                );
            }
        }
        assert!(
            classes_seen.len() >= 2,
            "fault mix too narrow: {classes_seen:?}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_faults_surface_and_pass_through_otherwise() {
        let dir = crate::context::temp_model_dir("fsio-read").unwrap();
        let path = dir.join("blob");
        std::fs::write(&path, b"payload").unwrap();
        let always = ChaosFs::with_probs(7, 0.0, 0.0, 1.0, 0.0);
        let err = fs_read(&path, Some(&always)).unwrap_err();
        assert!(err.to_string().contains("chaos-fs"), "{err}");
        let never = ChaosFs::new(7);
        assert_eq!(fs_read(&path, Some(&never)).unwrap(), b"payload");
        assert_eq!(fs_read(&path, None).unwrap(), b"payload");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn retry_rides_out_transient_faults_and_bounds_permanent_ones() {
        let dir = crate::context::temp_model_dir("fsio-retry").unwrap();
        let path = dir.join("target.json");
        let policy = RetryPolicy {
            max_attempts: 12,
            backoff_base_ns: 10,
            ..RetryPolicy::default()
        };
        // 50 % ENOSPC: 12 attempts all failing is a 1-in-4096 seed; this
        // seed succeeds.
        let flaky = ChaosFs::with_probs(5, 0.0, 0.5, 0.0, 0.0);
        let (result, attempts) = policy.run(1, false, || {
            atomic_write_with(&path, b"landed", Some(&flaky)).map_err(|e| match e {
                NitroError::Io(io) => io,
                other => std::io::Error::other(other.to_string()),
            })
        });
        result.unwrap();
        assert!(attempts >= 1);
        assert_eq!(std::fs::read(&path).unwrap(), b"landed");

        // Probability 1 is a permanent fault: bounded attempts, then the
        // last error surfaces.
        let bricked = ChaosFs::with_probs(5, 0.0, 1.0, 0.0, 0.0);
        let (result, attempts) = policy.run(1, false, || {
            atomic_write_with(&path, b"never", Some(&bricked)).map_err(|e| match e {
                NitroError::Io(io) => io,
                other => std::io::Error::other(other.to_string()),
            })
        });
        assert!(result.is_err());
        assert_eq!(attempts, 12, "every attempt was used before giving up");
        assert_eq!(std::fs::read(&path).unwrap(), b"landed");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn retry_short_circuits_semantic_and_torn_errors() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff_base_ns: 0,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let (r, attempts) = policy.run(0, false, || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"))
        });
        assert!(r.is_err());
        assert_eq!((attempts, calls), (1, 1), "NotFound is never retried");

        let mut calls = 0;
        let (r, _) = policy.run(0, false, || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "torn"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1, "a torn write is not blindly retried");

        let mut calls = 0;
        let (r, _) = policy.run(0, true, || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "torn"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 8, "retry_torn opts back in");
    }

    #[test]
    fn backoff_jitter_is_deterministic_decorrelated_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            backoff_base_ns: 1_000,
            jitter: 0.5,
            seed: 99,
        };
        let schedule =
            |salt: u64| -> Vec<u64> { (1..=5).map(|a| policy.backoff_ns(salt, a)).collect() };
        assert_eq!(schedule(3), schedule(3), "same seed+salt ⇒ same schedule");
        assert_ne!(schedule(3), schedule(4), "different salts decorrelate");
        for (i, &pause) in schedule(3).iter().enumerate() {
            let base = 1_000u64 << i;
            let (lo, hi) = ((base as f64 * 0.5) as u64, (base as f64 * 1.5) as u64);
            assert!(
                pause >= lo && pause <= hi,
                "pause {pause} outside [{lo},{hi}]"
            );
        }
        // Jitter off reproduces the bare exponential schedule.
        let bare = RetryPolicy {
            jitter: 0.0,
            ..policy
        };
        assert_eq!(
            (1..=4).map(|a| bare.backoff_ns(7, a)).collect::<Vec<_>>(),
            vec![1_000, 2_000, 4_000, 8_000]
        );
    }
}

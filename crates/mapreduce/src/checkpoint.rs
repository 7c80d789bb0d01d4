//! Checkpoint/resume for finalized reducer partitions.
//!
//! When [`ClusterConfig::checkpoint_dir`](crate::ClusterConfig::checkpoint_dir)
//! is set, the engine persists the map side's accounting once, at the map
//! barrier, and every successfully finalized partition's outputs under
//! `<dir>/job-<fingerprint>/`, recording each file in a small versioned,
//! checksummed manifest. A later run of the *same job* (same
//! output-affecting config, same workload signature — see
//! [`Fingerprint`]) finds the manifest and verifies every committed file
//! up front. If the map record and every nonempty partition verify, the
//! job is served from disk without running a map task, the shuffle or a
//! reduce. Otherwise the engine reruns the map phase, counts every routed
//! copy, ships only the copies bound for partitions it must reduce again,
//! and serves the verified ones. Either way the outputs come back
//! bit-identically, in the same (partition, key, arrival) order a fresh
//! run produces.
//!
//! Failure philosophy: checkpointing is an accelerator, never a
//! correctness dependency. Only *initialization* (creating the job
//! directory, opening the manifest) can fail the job — everything after
//! that degrades: a torn or bit-flipped manifest keeps its valid prefix
//! and re-executes the rest with a named warning; a corrupt partition
//! file is re-executed and rewritten; a corrupt map record makes the
//! rerun map again and rewrite it; a failed checkpoint write warns and
//! continues. Every degradation is counted in
//! [`PipelineMetrics::checkpoint_invalid`](crate::PipelineMetrics::checkpoint_invalid)
//! so it is observable, and all checkpoint counters are masked from
//! [`JobMetrics::deterministic`](crate::JobMetrics::deterministic) so
//! resumed and fresh runs stay comparable.
//!
//! ## On-disk layout
//!
//! ```text
//! <checkpoint_dir>/job-<fingerprint:016x>/
//!   manifest.bin               header + fixed-size checksummed entries
//!   map.ckpt                   the map record (manifest index n_reducers)
//!   part-<partition>.ckpt      one file per finalized partition
//!   <file>.tmp-<pid>-<seq>     in-flight writes (renamed on commit)
//! ```
//!
//! The write protocol per file is: encode → write tmp → fsync → rename
//! over the final name → append + sync the manifest entry. A crash at any
//! point leaves either no entry (the work re-executes) or a committed file
//! and entry (the work is skipped) — never a half-trusted state, because
//! the manifest entry carries the file's length and its checksum (the
//! word hasher of [`crate::fnv`], eight bytes per step) and both are
//! re-verified at open. The map record is committed after the last map
//! task resolves and before any partition of that run commits, so it
//! precedes them in the manifest.
//!
//! ## Locking
//!
//! Every manifest mutation — `open`'s heal and each entry append — runs
//! under an exclusive advisory lock on the manifest handle itself
//! ([`File::try_lock`]). The OS drops the lock when the handle closes or
//! its process dies, so a killed writer leaves nothing to clean up. There
//! is no lock file.

use std::fs::{self, File, OpenOptions, TryLockError};
use std::hash::{Hash, Hasher};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cluster::{ClusterConfig, FaultStage};
use crate::error::SimError;
use crate::fnv::{fnv1a, word_hash, WordHasher};
use crate::job::{CapacityPolicy, DlqEntry, MapSummary, PartitionLoad};
use crate::metrics::PipelineMetrics;
use crate::record::ByteSized;
use crate::sink::{decode_partition, encode_partition};
use crate::spill::SpillCodec;

const MANIFEST_MAGIC: [u8; 8] = *b"MRCKPT\0\0";
const MANIFEST_VERSION: u32 = 3;
/// magic (8) + version (4) + fingerprint (8).
const HEADER_LEN: usize = 20;
/// partition, records, distinct_keys, file_bytes, file_hash (5 × u64),
/// then the word hash of those 40 bytes. Index `n_reducers` is the map
/// record, with zero records and distinct keys.
const ENTRY_LEN: usize = 48;

/// Monotonic discriminator for in-flight checkpoint tmp files, so
/// concurrent consumer threads (and concurrent tests in one process)
/// never collide.
static CKPT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Deterministic identity of a job's *output-affecting* configuration
/// plus its workload signature. Two runs with equal fingerprints produce
/// bit-identical `JobOutput.outputs`, so one may safely consume the
/// other's checkpoints.
///
/// Included: the job's type names (mapper/reducer/router), reducer
/// count, capacity policy, retry budget, DLQ mode, the fault plan's
/// seed/rates/poison lists, and the workload (input count plus each
/// input's byte size *and content hash*, in order — size alone is not
/// enough: two jobs over equal-record-size inputs with different
/// contents must not share a checkpoint session, or one would replay
/// the other's partitions as its own).
///
/// Deliberately **excluded**: execution-only knobs that the differential
/// suite proves never change outputs (workers, threads, shuffle mode,
/// finalize mode, memory budget, rates and overheads that only shape
/// simulated time) — and the fault plan's *kill* lists, which affect
/// whether a run survives, not what it outputs. Excluding
/// the kill list is what lets a resume run drop `kill-reduce:…` from its
/// fault spec and still match the checkpoints the killed run left
/// behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint(pub(crate) u64);

impl Fingerprint {
    pub(crate) fn compute<'a, I>(
        config: &ClusterConfig,
        n_reducers: usize,
        capacity: &CapacityPolicy,
        job_types: &str,
        inputs: impl Iterator<Item = &'a I>,
    ) -> Fingerprint
    where
        I: Hash + ByteSized + 'a,
    {
        let mut hasher = WordHasher::default();
        hasher.write_u64(job_semantic_hash(config, n_reducers, capacity, job_types));
        Fingerprint(fold_inputs(hasher, inputs))
    }
}

/// Hash of a job's *output-affecting* configuration — the config half of
/// the checkpoint fingerprint, factored out so the DAG stage store
/// keys cache entries by the identical semantics. Includes the job type
/// names, reducer count, capacity policy, retry budget, DLQ mode, and
/// the fault plan's seed/rates/poison lists; excludes every
/// execution-only knob (workers, threads, shuffle/finalize mode, depth,
/// memory budget, checkpoint and spill paths) and the fault plan's kill
/// lists. Two configs with equal semantic hashes over identical inputs
/// produce bit-identical outputs, which is exactly what makes a cached
/// stage safe to serve across engine modes.
pub fn job_semantic_hash(
    config: &ClusterConfig,
    n_reducers: usize,
    capacity: &CapacityPolicy,
    job_types: &str,
) -> u64 {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    buf.extend_from_slice(job_types.as_bytes());
    buf.push(0);
    buf.extend_from_slice(&(n_reducers as u64).to_le_bytes());
    match capacity {
        CapacityPolicy::Unlimited => buf.push(0),
        CapacityPolicy::Enforce(q) => {
            buf.push(1);
            buf.extend_from_slice(&q.to_le_bytes());
        }
        CapacityPolicy::Record(q) => {
            buf.push(2);
            buf.extend_from_slice(&q.to_le_bytes());
        }
    }
    buf.extend_from_slice(&config.retry_budget.to_le_bytes());
    buf.push(match config.dlq_mode {
        crate::cluster::DlqMode::Capture => 0,
        crate::cluster::DlqMode::Fail => 1,
    });
    match &config.fault_plan {
        None => buf.push(0),
        Some(plan) => {
            buf.push(1);
            buf.extend_from_slice(&plan.seed.to_le_bytes());
            buf.extend_from_slice(&plan.map_rate.to_bits().to_le_bytes());
            buf.extend_from_slice(&plan.reduce_rate.to_bits().to_le_bytes());
            for list in [&plan.poison_map_tasks, &plan.poison_reduce_tasks] {
                buf.extend_from_slice(&(list.len() as u64).to_le_bytes());
                for &idx in list {
                    buf.extend_from_slice(&(idx as u64).to_le_bytes());
                }
            }
        }
    }
    fnv1a(&buf)
}

/// Hashes a workload signature (each input's byte size *and* content,
/// in order, then the input count) onto `hasher` and finishes it,
/// streamed so huge input sets never materialize a second buffer. The
/// workload half of the [`Fingerprint`].
fn fold_inputs<'a, I>(mut hasher: WordHasher, inputs: impl Iterator<Item = &'a I>) -> u64
where
    I: Hash + ByteSized + 'a,
{
    let mut count = 0u64;
    for input in inputs {
        count += 1;
        hasher.write_u64(input.size_bytes());
        input.hash(&mut hasher);
    }
    hasher.write_u64(count);
    hasher.finish()
}

/// Content hash of an input set, standing alone: what a DAG source
/// contributes to its descendants' stage-store keys. Distinguishes by
/// content and count, not just size — the same property the job
/// fingerprint relies on.
pub fn input_content_hash<'a, I>(inputs: impl Iterator<Item = &'a I>) -> u64
where
    I: Hash + ByteSized + 'a,
{
    fold_inputs(WordHasher::default(), inputs)
}

/// One committed partition as the manifest records it.
#[derive(Debug, Clone, Copy)]
struct ManifestEntry {
    partition: u64,
    records: u64,
    distinct_keys: u64,
    file_bytes: u64,
    file_hash: u64,
}

impl ManifestEntry {
    fn encode(&self) -> [u8; ENTRY_LEN] {
        let mut out = [0u8; ENTRY_LEN];
        out[0..8].copy_from_slice(&self.partition.to_le_bytes());
        out[8..16].copy_from_slice(&self.records.to_le_bytes());
        out[16..24].copy_from_slice(&self.distinct_keys.to_le_bytes());
        out[24..32].copy_from_slice(&self.file_bytes.to_le_bytes());
        out[32..40].copy_from_slice(&self.file_hash.to_le_bytes());
        let sum = word_hash(&out[..40]);
        out[40..48].copy_from_slice(&sum.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8; ENTRY_LEN]) -> Option<ManifestEntry> {
        let u64_at =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte slice"));
        if word_hash(&bytes[..40]) != u64_at(40) {
            return None;
        }
        Some(ManifestEntry {
            partition: u64_at(0),
            records: u64_at(8),
            distinct_keys: u64_at(16),
            file_bytes: u64_at(24),
            file_hash: u64_at(32),
        })
    }
}

/// Why a manifest (or manifest prefix) was rejected — surfaced verbatim
/// in the named warning so a failed resume is diagnosable from stderr.
fn warn(path: &Path, what: &str) {
    eprintln!(
        "mrassign: checkpoint warning: {what} at `{}`; affected partitions re-execute",
        path.display()
    );
}

/// How long a writer waits for a live holder of the manifest lock before
/// giving up on it. Generous next to real commit latency (microseconds),
/// small enough that a wedged holder cannot wedge a job.
const LOCK_WAIT: Duration = Duration::from_secs(10);

/// Takes the exclusive advisory lock on an open manifest handle, held
/// until the handle closes — the OS drops it then, and when its process
/// dies, so a killed writer never leaves a stale lock behind.
///
/// Two same-fingerprint writers used to interleave appends through
/// independent seek-to-end handles — each handle's cursor was positioned
/// before the other's appends landed, so the second writer silently
/// overwrote the first's entries (healed only later, by valid-prefix
/// truncation, losing committed work). The lock serializes every
/// manifest mutation: `open`'s heal and each entry append.
///
/// Failure philosophy matches the rest of the module: the lock is an
/// integrity aid, not a correctness dependency. A lock held for longer
/// than [`LOCK_WAIT`], or a filesystem that cannot lock, degrades to
/// proceeding unlocked with a named warning — the manifest checksums
/// still bound the damage to re-execution.
fn lock_manifest(manifest: &File, path: &Path) {
    let deadline = Instant::now() + LOCK_WAIT;
    loop {
        match manifest.try_lock() {
            Ok(()) => return,
            Err(TryLockError::WouldBlock) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(TryLockError::WouldBlock) => {
                warn(path, "manifest lock held too long; proceeding unlocked");
                return;
            }
            Err(TryLockError::Error(_)) => {
                warn(path, "manifest lock unavailable; proceeding unlocked");
                return;
            }
        }
    }
}

/// Where a session directory keeps `partition`'s committed outputs.
fn partition_path(dir: &Path, partition: usize) -> PathBuf {
    dir.join(format!("part-{partition}.ckpt"))
}

/// Checks a committed file's bytes against the length and content hash
/// its manifest entry recorded.
fn check_committed(bytes: &[u8], entry: &ManifestEntry, what: &str) -> Result<(), String> {
    if bytes.len() as u64 != entry.file_bytes {
        return Err(format!(
            "{what} is {} bytes, manifest committed {}",
            bytes.len(),
            entry.file_bytes
        ));
    }
    if word_hash(bytes) != entry.file_hash {
        return Err(format!("{what} content hash mismatch"));
    }
    Ok(())
}

/// Loads a committed partition, fully verified against its manifest
/// entry: length, content hash, a clean decode, and the record and
/// distinct-key counts.
fn load_partition<Out: SpillCodec>(
    path: &Path,
    entry: &ManifestEntry,
) -> Result<ServedPartition<Out>, String> {
    let what = "checkpointed partition";
    let bytes = fs::read(path).map_err(|e| format!("{what} unreadable: {e}"))?;
    check_committed(&bytes, entry, what)?;
    let (outputs, distinct_keys) =
        decode_partition::<Out>(&bytes).map_err(|reason| format!("{what} {reason}"))?;
    if outputs.len() as u64 != entry.records {
        return Err(format!("{what} record count mismatch"));
    }
    if distinct_keys != entry.distinct_keys {
        return Err(format!("{what} distinct-key count mismatch"));
    }
    Ok((outputs, distinct_keys))
}

/// Loads the committed map record, verified against its manifest entry
/// and decoded for `n_reducers` partitions.
fn load_map_record(
    path: &Path,
    entry: &ManifestEntry,
    n_reducers: usize,
) -> Result<MapSummary, String> {
    let what = "checkpointed map record";
    let bytes = fs::read(path).map_err(|e| format!("{what} unreadable: {e}"))?;
    check_committed(&bytes, entry, what)?;
    MapSummary::decode(&bytes, n_reducers).map_err(|reason| format!("{what} {reason}"))
}

impl MapSummary {
    /// The map record's byte format: records emitted and map retries, the
    /// map DLQ (count, then each entry's task index and attempts), then
    /// the partition count and each partition's routed records, value
    /// bytes and total bytes. All integers little-endian.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 12 * self.dlq.len() + 24 * self.loads.len());
        self.records_emitted.encode(&mut out);
        self.map_retries.encode(&mut out);
        self.dlq.len().encode(&mut out);
        for entry in &self.dlq {
            entry.index.encode(&mut out);
            entry.attempts.encode(&mut out);
        }
        self.loads.len().encode(&mut out);
        for load in &self.loads {
            load.records.encode(&mut out);
            load.value_bytes.encode(&mut out);
            load.total_bytes.encode(&mut out);
        }
        out
    }

    /// Decodes a record written by [`MapSummary::encode`] for a job of
    /// `n_reducers` partitions. Rejects truncation, trailing bytes and a
    /// partition count other than `n_reducers`. Counts are bounded by the
    /// bytes that remain before anything is allocated for them. Loads are
    /// taken as written: the engine saturates them at `u64::MAX`, and
    /// their sums saturate too when the record is applied.
    pub(crate) fn decode(bytes: &[u8], n_reducers: usize) -> Result<MapSummary, String> {
        let mut cursor = bytes;
        let mut u64_field =
            |what: &str| u64::decode(&mut cursor).ok_or_else(|| format!("truncated in its {what}"));
        let records_emitted = u64_field("records emitted")?;
        let map_retries = u64_field("map retries")?;
        let dlq_len = u64_field("dead-letter count")?;
        // An entry is a u64 index plus a u32 attempt count.
        if dlq_len > (cursor.len() / 12) as u64 {
            return Err(format!(
                "dead-letter count {dlq_len} exceeds what {} bytes hold",
                cursor.len()
            ));
        }
        let mut dlq = Vec::with_capacity(dlq_len as usize);
        for _ in 0..dlq_len {
            let index = usize::decode(&mut cursor);
            let attempts = u32::decode(&mut cursor);
            let (Some(index), Some(attempts)) = (index, attempts) else {
                return Err("dead-letter entry truncated".to_string());
            };
            dlq.push(DlqEntry {
                stage: FaultStage::Map,
                index,
                attempts,
            });
        }
        let partitions = u64::decode(&mut cursor)
            .ok_or_else(|| "truncated in its partition count".to_string())?;
        // Each partition is three u64s, and nothing may follow them.
        if partitions != n_reducers as u64 || cursor.len() as u64 != partitions.saturating_mul(24) {
            return Err(format!(
                "holds {partitions} partitions in {} bytes; the job has {n_reducers}",
                cursor.len()
            ));
        }
        let mut loads = Vec::with_capacity(n_reducers);
        for _ in 0..n_reducers {
            let mut field = [0u64; 3];
            for value in &mut field {
                *value = u64::decode(&mut cursor).ok_or_else(|| "load truncated".to_string())?;
            }
            let [records, value_bytes, total_bytes] = field;
            loads.push(PartitionLoad {
                records,
                value_bytes,
                total_bytes,
            });
        }
        Ok(MapSummary {
            records_emitted,
            map_retries,
            dlq,
            loads,
        })
    }
}

/// A verified partition's outputs and distinct-key count.
type ServedPartition<Out> = (Vec<Out>, u64);

/// One job's live checkpoint state: the manifest loaded and every
/// committed file verified at open. Commits reopen the manifest in append
/// mode under its lock, so concurrent same-fingerprint sessions (same
/// process or not) interleave whole entries instead of clobbering each
/// other's bytes. Shared by reference across consumer threads; `lookup`,
/// `record` and `record_map` are thread-safe.
#[derive(Debug)]
pub(crate) struct CheckpointSession<Out> {
    dir: PathBuf,
    manifest_path: PathBuf,
    /// Partitions the manifest's valid prefix committed, verified or not.
    committed: usize,
    /// Per partition: whether open verified its committed file. Only a
    /// verified partition may be skipped.
    verified: Vec<bool>,
    /// The verified partitions' outputs and distinct-key counts, each
    /// taken once by `lookup`.
    served: Mutex<Vec<Option<ServedPartition<Out>>>>,
    /// The committed map record, if it verified.
    map: Option<MapSummary>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
}

impl<Out: SpillCodec> CheckpointSession<Out> {
    /// Opens (or creates) the session for `fingerprint` under `base`, and
    /// verifies every file the manifest committed.
    ///
    /// Any defect in an existing manifest — truncated or wrong-magic
    /// header, unsupported version, fingerprint mismatch, torn tail,
    /// bit-flipped entry — is counted, warned about by name, and healed
    /// by truncating back to the longest valid prefix (possibly nothing).
    /// A committed file that fails verification is counted and warned
    /// about too, and its work re-executes. Only a real I/O failure
    /// creating the directory or opening the manifest is an error.
    pub(crate) fn open(
        base: &Path,
        fingerprint: Fingerprint,
        n_reducers: usize,
    ) -> Result<CheckpointSession<Out>, SimError> {
        let dir = base.join(format!("job-{:016x}", fingerprint.0));
        let io = |path: &Path| {
            let path = path.display().to_string();
            move |e: std::io::Error| SimError::CheckpointIo {
                path,
                source: e.to_string(),
            }
        };
        fs::create_dir_all(&dir).map_err(io(&dir))?;
        let manifest_path = dir.join("manifest.bin");
        let mut manifest = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&manifest_path)
            .map_err(io(&manifest_path))?;
        // Healing truncates; without the lock it could shear off an
        // entry a concurrent same-fingerprint session just appended. The
        // lock lasts until `manifest` closes below.
        lock_manifest(&manifest, &manifest_path);
        let mut bytes = Vec::new();
        manifest
            .read_to_end(&mut bytes)
            .map_err(io(&manifest_path))?;

        // Indexed by partition, plus the map record at `n_reducers`; a
        // later duplicate entry wins — that is how a re-executed
        // partition's rewrite supersedes a corrupt file.
        let mut entries: Vec<Option<ManifestEntry>> = vec![None; n_reducers + 1];
        let mut invalid = 0u64;
        // Byte offset up to which the existing manifest is trustworthy;
        // everything past it is truncated away before appending.
        let mut valid_len = 0usize;
        let mut header_ok = false;
        if bytes.len() < HEADER_LEN {
            if !bytes.is_empty() {
                warn(&manifest_path, "manifest header truncated");
                invalid += 1;
            }
        } else if bytes[..8] != MANIFEST_MAGIC {
            warn(
                &manifest_path,
                "manifest magic mismatch (not a checkpoint manifest)",
            );
            invalid += 1;
        } else if bytes[8..12] != MANIFEST_VERSION.to_le_bytes() {
            warn(&manifest_path, "manifest version unsupported");
            invalid += 1;
        } else if bytes[12..20] != fingerprint.0.to_le_bytes() {
            warn(
                &manifest_path,
                "manifest fingerprint mismatch (different job or corrupted header)",
            );
            invalid += 1;
        } else {
            header_ok = true;
            valid_len = HEADER_LEN;
            for chunk in bytes[HEADER_LEN..].chunks(ENTRY_LEN) {
                let whole: Option<&[u8; ENTRY_LEN]> = chunk.try_into().ok();
                let entry = whole.and_then(ManifestEntry::decode);
                let Some(entry) = entry.filter(|e| e.partition <= n_reducers as u64) else {
                    // First bad entry: a torn tail (short chunk), a
                    // flipped bit (checksum), or an out-of-range index.
                    // Keep the valid prefix, drop the rest.
                    warn(&manifest_path, "manifest entry corrupt or torn");
                    invalid += 1;
                    break;
                };
                entries[entry.partition as usize] = Some(entry);
                valid_len += ENTRY_LEN;
            }
        }

        if !header_ok {
            manifest.set_len(0).map_err(io(&manifest_path))?;
            manifest.rewind().map_err(io(&manifest_path))?;
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MANIFEST_MAGIC);
            header.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
            header.extend_from_slice(&fingerprint.0.to_le_bytes());
            manifest.write_all(&header).map_err(io(&manifest_path))?;
        } else if valid_len < bytes.len() {
            manifest
                .set_len(valid_len as u64)
                .map_err(io(&manifest_path))?;
        }
        // No append handle survives `open`: commits reopen in append
        // mode under the lock, so the cursor can never go stale.
        drop(manifest);

        let map_entry = entries.pop().flatten();
        let committed = entries.iter().flatten().count();
        let mut reject = |path: PathBuf, reason: String| {
            warn(&path, &reason);
            invalid += 1;
        };
        let served: Vec<Option<ServedPartition<Out>>> = entries
            .iter()
            .enumerate()
            .map(|(partition, entry)| {
                let path = partition_path(&dir, partition);
                let entry = entry.as_ref()?;
                load_partition(&path, entry)
                    .map_err(|reason| reject(path, reason))
                    .ok()
            })
            .collect();
        let map = map_entry.and_then(|entry| {
            let path = dir.join("map.ckpt");
            load_map_record(&path, &entry, n_reducers)
                .map_err(|reason| reject(path, reason))
                .ok()
        });

        Ok(CheckpointSession {
            dir,
            manifest_path,
            committed,
            verified: served.iter().map(Option::is_some).collect(),
            served: Mutex::new(served),
            map,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalid: AtomicU64::new(invalid),
        })
    }

    /// Which partitions open verified: the ones a run serves from the
    /// checkpoint instead of shipping and reducing them.
    pub(crate) fn verified(&self) -> &[bool] {
        &self.verified
    }

    /// The map record, when it verified and so did every partition it
    /// lists as nonempty: then the checkpoint serves the whole job.
    pub(crate) fn replayable(&self) -> Option<&MapSummary> {
        let map = self.map.as_ref()?;
        let whole = map
            .loads
            .iter()
            .zip(&self.verified)
            .all(|(load, &verified)| load.records == 0 || verified);
        whole.then_some(map)
    }

    /// Takes `partition`'s verified outputs and distinct-key count,
    /// counting a hit — or, when open did not verify it, counts a miss.
    /// The engines look each nonempty partition up once, where they
    /// accept it, so a run's hits and misses sum to its nonempty
    /// partitions.
    pub(crate) fn lookup(&self, partition: usize) -> Option<ServedPartition<Out>> {
        let served = self
            .served
            .lock()
            .expect("no thread panics while holding the served slots")
            .get_mut(partition)
            .and_then(Option::take);
        let counter = if served.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        served
    }

    /// Commits `partition`'s finalized outputs. Best-effort by contract —
    /// a failure warns and returns, leaving the partition to re-execute
    /// next run.
    pub(crate) fn record(&self, partition: usize, outputs: &[Out], distinct_keys: u64) {
        let path = partition_path(&self.dir, partition);
        let committed = encode_partition(outputs, distinct_keys).and_then(|body| {
            self.commit(partition, &path, &body, outputs.len() as u64, distinct_keys)
        });
        if let Err(reason) = committed {
            warn(
                &path,
                &format!("checkpoint write failed ({reason}); continuing without"),
            );
        }
    }

    /// Commits the map side's accounting as the map record, unless the
    /// session already holds a valid one. Best-effort, like `record`.
    pub(crate) fn record_map(&self, summary: &MapSummary) {
        if self.map.is_some() {
            return;
        }
        let path = self.dir.join("map.ckpt");
        // The map record's manifest index is the one past the partitions.
        let index = self.verified.len();
        if let Err(reason) = self.commit(index, &path, &summary.encode(), 0, 0) {
            warn(
                &path,
                &format!("checkpoint write failed ({reason}); continuing without"),
            );
        }
    }

    /// The commit protocol: write `body` to a pid-tagged tmp sibling of
    /// `path` → fsync → rename over `path` → append and sync its manifest
    /// entry under the manifest lock.
    fn commit(
        &self,
        index: usize,
        path: &Path,
        body: &[u8],
        records: u64,
        distinct_keys: u64,
    ) -> Result<(), String> {
        let entry = ManifestEntry {
            partition: index as u64,
            records,
            distinct_keys,
            file_bytes: body.len() as u64,
            file_hash: word_hash(body),
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".tmp-{}-{}",
            std::process::id(),
            CKPT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = PathBuf::from(tmp);
        let write = || -> std::io::Result<()> {
            let mut file = File::create(&tmp)?;
            file.write_all(body)?;
            file.sync_all()?;
            fs::rename(&tmp, path)
        };
        if let Err(e) = write() {
            // The tmp file may linger; the orphan sweep reclaims it.
            let _ = fs::remove_file(&tmp);
            return Err(e.to_string());
        }

        // Serialize the append against every other writer — this
        // session's sibling threads and concurrent same-fingerprint
        // sessions alike — and open at the *real* end of the file, so a
        // peer's entries committed since `open` are never overwritten.
        let mut manifest = OpenOptions::new()
            .append(true)
            .open(&self.manifest_path)
            .map_err(|e| format!("manifest reopen failed: {e}"))?;
        lock_manifest(&manifest, &self.manifest_path);
        manifest
            .write_all(&entry.encode())
            .and_then(|()| manifest.sync_data())
            .map_err(|e| {
                format!(
                    "manifest append failed: {e} at `{}`",
                    self.manifest_path.display()
                )
            })
    }

    /// Number of partitions the manifest had committed when the session
    /// opened — what a resume run can skip, if they verify.
    pub(crate) fn committed(&self) -> usize {
        self.committed
    }

    /// Folds the session's counters into the job's pipeline metrics
    /// (additive, so the pipelined engine's own assembly is preserved).
    pub(crate) fn fold_into(&self, pipeline: &mut PipelineMetrics) {
        pipeline.checkpoint_hits += self.hits.load(Ordering::Relaxed);
        pipeline.checkpoint_misses += self.misses.load(Ordering::Relaxed);
        pipeline.checkpoint_invalid += self.invalid.load(Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Orphan sweep
// ---------------------------------------------------------------------------

/// Extracts the owning PID from a temp-file name this crate family
/// creates: `mrassign-spill-<pid>-<seq>.run` spill runs and
/// `part-<p>.ckpt.tmp-<pid>-<seq>` in-flight checkpoint writes. `None`
/// means the file is not ours to touch.
fn orphan_owner(name: &str) -> Option<u32> {
    let pid_prefix =
        |rest: &str| -> Option<u32> { rest.split('-').next().and_then(|p| p.parse().ok()) };
    if let Some(rest) = name.strip_prefix("mrassign-spill-") {
        return pid_prefix(rest);
    }
    if let Some((_, rest)) = name.split_once(".ckpt.tmp-") {
        return pid_prefix(rest);
    }
    None
}

/// Whether `pid` is a live process. On Linux this is a `/proc` probe;
/// elsewhere we conservatively report alive, leaving reclamation to the
/// age check.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Removes orphaned spill/checkpoint temp files under `dir` (descending
/// into `job-*` subdirectories): files whose embedded PID is provably
/// dead, plus files older than `max_age` whose owner cannot be confirmed
/// live-and-current. Files owned by *this* process are never touched.
/// Returns the number of files reclaimed.
///
/// This is the fix for the RAII gap: a spilled run's delete-on-drop only
/// runs on in-process exits, so a killed worker leaked its temp files
/// forever. The sweep runs at job start whenever a checkpoint dir is
/// configured — exactly the setup in which kills are expected.
pub(crate) fn sweep_orphans(dir: &Path, max_age: Duration) -> u64 {
    let mut reclaimed = 0u64;
    sweep_dir(dir, max_age, 0, &mut reclaimed);
    reclaimed
}

fn sweep_dir(dir: &Path, max_age: Duration, depth: u8, reclaimed: &mut u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let self_pid = std::process::id();
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(file_type) = entry.file_type() else {
            continue;
        };
        if file_type.is_dir() {
            // Job directories sit one level down; cap the recursion so a
            // mispointed sweep can never walk a whole filesystem.
            if depth == 0 && entry.file_name().to_string_lossy().starts_with("job-") {
                sweep_dir(&path, max_age, depth + 1, reclaimed);
            }
            continue;
        }
        let name = entry.file_name();
        let Some(pid) = orphan_owner(&name.to_string_lossy()) else {
            continue;
        };
        if pid == self_pid {
            continue;
        }
        let dead = !pid_alive(pid);
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > max_age);
        if (dead || stale) && fs::remove_file(&path).is_ok() {
            *reclaimed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mrassign-ckpt-test-{tag}-{}-{}",
            std::process::id(),
            CKPT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn fp(seed: u64) -> Fingerprint {
        Fingerprint(seed)
    }

    #[test]
    fn record_then_lookup_roundtrips() {
        let base = unique_dir("roundtrip");
        let session: CheckpointSession<(u64, String)> =
            CheckpointSession::open(&base, fp(7), 8).unwrap();
        assert_eq!(session.committed(), 0);
        let outputs = vec![(1u64, "aa".to_string()), (2, "b".to_string())];
        session.record(3, &outputs, 2);
        assert_eq!(session.lookup(3), None, "same session never self-hits");

        // A second session (a resume) sees the commit.
        let resumed: CheckpointSession<(u64, String)> =
            CheckpointSession::open(&base, fp(7), 8).unwrap();
        assert_eq!(resumed.committed(), 1);
        assert_eq!(resumed.lookup(3), Some((outputs, 2)));
        assert_eq!(resumed.lookup(4), None);
        assert_eq!(resumed.hits.load(Ordering::Relaxed), 1);
        assert_eq!(resumed.misses.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh_with_warning_counter() {
        let base = unique_dir("fp-mismatch");
        let session: CheckpointSession<u64> = CheckpointSession::open(&base, fp(1), 4).unwrap();
        session.record(0, &[42], 1);
        drop(session);
        // Overwrite the manifest with one for a different fingerprint by
        // opening under the same job dir name (simulating header rot).
        let dir = base.join(format!("job-{:016x}", 1));
        let manifest = dir.join("manifest.bin");
        let mut bytes = fs::read(&manifest).unwrap();
        bytes[12] ^= 0xFF; // flip a fingerprint byte in the header
        fs::write(&manifest, &bytes).unwrap();
        let resumed: CheckpointSession<u64> = CheckpointSession::open(&base, fp(1), 4).unwrap();
        assert_eq!(resumed.committed(), 0, "mismatched manifest is discarded");
        assert_eq!(resumed.invalid.load(Ordering::Relaxed), 1);
        // And the healed manifest works again.
        resumed.record(1, &[7], 1);
        drop(resumed);
        let third: CheckpointSession<u64> = CheckpointSession::open(&base, fp(1), 4).unwrap();
        assert_eq!(third.lookup(1), Some((vec![7], 1)));
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn torn_manifest_tail_keeps_the_valid_prefix() {
        let base = unique_dir("torn");
        let session: CheckpointSession<u64> = CheckpointSession::open(&base, fp(9), 8).unwrap();
        session.record(0, &[10], 1);
        session.record(1, &[20], 1);
        drop(session);
        let manifest = base.join(format!("job-{:016x}", 9)).join("manifest.bin");
        let bytes = fs::read(&manifest).unwrap();
        // Tear mid-way through the second entry.
        fs::write(&manifest, &bytes[..bytes.len() - 17]).unwrap();
        let resumed: CheckpointSession<u64> = CheckpointSession::open(&base, fp(9), 8).unwrap();
        assert_eq!(resumed.committed(), 1, "first entry survives the tear");
        assert_eq!(resumed.lookup(0), Some((vec![10], 1)));
        assert_eq!(resumed.lookup(1), None, "torn entry re-executes");
        assert_eq!(resumed.invalid.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn bit_flipped_entry_and_corrupt_partition_fall_back() {
        let base = unique_dir("bitflip");
        let session: CheckpointSession<u64> = CheckpointSession::open(&base, fp(5), 8).unwrap();
        session.record(2, &[1, 2, 3], 3);
        drop(session);
        let dir = base.join(format!("job-{:016x}", 5));
        // Flip a bit inside the entry payload: checksum catches it.
        let manifest = dir.join("manifest.bin");
        let mut bytes = fs::read(&manifest).unwrap();
        bytes[HEADER_LEN + 3] ^= 0x01;
        fs::write(&manifest, &bytes).unwrap();
        let resumed: CheckpointSession<u64> = CheckpointSession::open(&base, fp(5), 8).unwrap();
        assert_eq!(resumed.committed(), 0);
        assert_eq!(resumed.invalid.load(Ordering::Relaxed), 1);
        drop(resumed);

        // Re-commit, then corrupt the partition *file*: the manifest is
        // fine but lookup's content hash rejects the data.
        let again: CheckpointSession<u64> = CheckpointSession::open(&base, fp(5), 8).unwrap();
        again.record(2, &[1, 2, 3], 3);
        drop(again);
        let part = dir.join("part-2.ckpt");
        let mut data = fs::read(&part).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x80;
        fs::write(&part, &data).unwrap();
        let reread: CheckpointSession<u64> = CheckpointSession::open(&base, fp(5), 8).unwrap();
        assert_eq!(reread.committed(), 1);
        assert_eq!(reread.lookup(2), None, "corrupt data must not be served");
        assert_eq!(reread.invalid.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn version_mismatch_starts_fresh() {
        let base = unique_dir("version");
        let session: CheckpointSession<u64> = CheckpointSession::open(&base, fp(3), 4).unwrap();
        session.record(0, &[5], 1);
        drop(session);
        let manifest = base.join(format!("job-{:016x}", 3)).join("manifest.bin");
        let mut bytes = fs::read(&manifest).unwrap();
        bytes[8] = 0xEE; // future version
        fs::write(&manifest, &bytes).unwrap();
        let resumed: CheckpointSession<u64> = CheckpointSession::open(&base, fp(3), 4).unwrap();
        assert_eq!(resumed.committed(), 0);
        assert_eq!(resumed.invalid.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&base).unwrap();
    }

    /// The fingerprint keeps every output-affecting field and drops every
    /// execution-only one. Each field is varied alone against one base
    /// that carries a fault plan, so a hash that skips any field (the
    /// reducer count, a policy's variant or q, the retry budget, the DLQ
    /// mode, the fault seed, a rate, either poison list, the job types or
    /// the workload) collides with the base or with another variant.
    #[test]
    fn fingerprint_ignores_execution_knobs_but_not_workload() {
        use crate::cluster::{DlqMode, FaultPlan, FinalizeMode, ShuffleMode};
        struct Job {
            cfg: ClusterConfig,
            reducers: usize,
            capacity: CapacityPolicy,
            types: &'static str,
            inputs: Vec<u64>,
        }
        fn plan(job: &mut Job) -> &mut FaultPlan {
            job.cfg.fault_plan.as_mut().expect("the base has a plan")
        }
        let f = |job: &Job| {
            Fingerprint::compute(
                &job.cfg,
                job.reducers,
                &job.capacity,
                job.types,
                job.inputs.iter(),
            )
        };
        // One field changed from a base that carries a fault plan.
        let vary = |edit: fn(&mut Job)| {
            let mut job = Job {
                cfg: ClusterConfig {
                    fault_plan: Some(FaultPlan::default()),
                    ..ClusterConfig::default()
                },
                reducers: 4,
                capacity: CapacityPolicy::Unlimited,
                types: "job<M,R,Rt>",
                inputs: vec![10, 20],
            };
            edit(&mut job);
            job
        };
        let a = f(&vary(|_| {}));

        let exec = vary(|job| {
            job.cfg.shuffle = ShuffleMode::Pipelined;
            job.cfg.finalize_mode = FinalizeMode::Stealing;
            job.cfg.map_threads = 8;
            job.cfg.workers = 3;
            job.cfg.memory_budget = Some(64);
        });
        assert_eq!(a, f(&exec), "execution-only knobs are excluded");
        let killed = vary(|job| {
            plan(job).kill_map_tasks = vec![0];
            plan(job).kill_reduce_tasks = vec![3];
        });
        assert_eq!(
            a,
            f(&killed),
            "kill lists are excluded so a resume can drop them"
        );

        let variants = [
            ("reducer count", vary(|job| job.reducers = 5)),
            (
                "enforce q",
                vary(|job| job.capacity = CapacityPolicy::Enforce(100)),
            ),
            (
                "enforce q + 1",
                vary(|job| job.capacity = CapacityPolicy::Enforce(101)),
            ),
            (
                "record q",
                vary(|job| job.capacity = CapacityPolicy::Record(100)),
            ),
            (
                "record q + 1",
                vary(|job| job.capacity = CapacityPolicy::Record(101)),
            ),
            ("job types", vary(|job| job.types = "job<M,R,Rt2>")),
            ("retry budget", vary(|job| job.cfg.retry_budget += 1)),
            ("DLQ mode", vary(|job| job.cfg.dlq_mode = DlqMode::Capture)),
            ("no fault plan", vary(|job| job.cfg.fault_plan = None)),
            ("fault seed", vary(|job| plan(job).seed = 1)),
            ("map rate", vary(|job| plan(job).map_rate = 0.5)),
            ("reduce rate", vary(|job| plan(job).reduce_rate = 0.5)),
            (
                "poisoned map task",
                vary(|job| plan(job).poison_map_tasks = vec![1]),
            ),
            (
                "poisoned reduce task",
                vary(|job| plan(job).poison_reduce_tasks = vec![1]),
            ),
            // u64 inputs are all 8 ByteSized bytes, so this distinguishes
            // by *content*, not size — the collision that once let two
            // concurrent same-shape jobs share (and clobber) one session.
            ("input content", vary(|job| job.inputs = vec![10, 21])),
            ("input count", vary(|job| job.inputs = vec![10, 20, 30])),
        ];
        let mut seen = vec![("base", a)];
        for (field, job) in &variants {
            let fingerprint = f(job);
            for (other, earlier) in &seen {
                assert_ne!(fingerprint, *earlier, "{field} hashes like {other}");
            }
            seen.push((field, fingerprint));
        }
    }

    /// Satellite regression: a fabricated orphan from a dead process is
    /// reclaimed; this process's own files and foreign files survive.
    #[test]
    fn sweep_reclaims_dead_pid_files_only() {
        let base = unique_dir("sweep");
        let job_dir = base.join("job-00000000000000aa");
        fs::create_dir_all(&job_dir).unwrap();

        // Find a PID that is provably not alive.
        let dead_pid = (2..u32::MAX)
            .rev()
            .find(|&p| !pid_alive(p))
            .expect("some pid is free");
        let orphan_spill = base.join(format!("mrassign-spill-{dead_pid}-0.run"));
        let orphan_tmp = job_dir.join(format!("part-3.ckpt.tmp-{dead_pid}-1"));
        let own_spill = base.join(format!("mrassign-spill-{}-0.run", std::process::id()));
        let foreign = base.join("unrelated.txt");
        for p in [&orphan_spill, &orphan_tmp, &own_spill, &foreign] {
            fs::write(p, b"x").unwrap();
        }

        let reclaimed = sweep_orphans(&base, Duration::from_secs(24 * 3600));
        assert_eq!(reclaimed, 2, "both dead-pid files go");
        assert!(!orphan_spill.exists());
        assert!(!orphan_tmp.exists());
        assert!(own_spill.exists(), "live-process files survive");
        assert!(foreign.exists(), "files we did not create survive");

        // Age-based fallback: a live-pid file older than max_age is
        // reclaimed once the age window is zero... but never our own.
        assert_eq!(sweep_orphans(&base, Duration::ZERO), 0);
        fs::remove_dir_all(&base).unwrap();
    }

    /// Satellite regression: two same-fingerprint sessions committing
    /// concurrently used to clobber each other's manifest entries via
    /// stale seek-to-end cursors; the session lock serializes them.
    #[test]
    fn concurrent_same_fingerprint_writers_do_not_clobber() {
        let base = unique_dir("concurrent");
        let writer = |offset: usize| {
            let base = base.clone();
            std::thread::spawn(move || {
                let session: CheckpointSession<u64> =
                    CheckpointSession::open(&base, fp(42), 16).unwrap();
                for p in (offset..16).step_by(2) {
                    session.record(p, &[p as u64 * 10], 1);
                }
            })
        };
        let even = writer(0);
        let odd = writer(1);
        even.join().unwrap();
        odd.join().unwrap();

        let merged: CheckpointSession<u64> = CheckpointSession::open(&base, fp(42), 16).unwrap();
        assert_eq!(merged.committed(), 16, "no append was lost to a peer");
        for p in 0..16 {
            assert_eq!(merged.lookup(p), Some((vec![p as u64 * 10], 1)));
        }
        let lock = base.join(format!("job-{:016x}", 42)).join("manifest.lock");
        assert!(!lock.exists(), "lock file is released on drop");
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn stale_lock_from_dead_pid_is_stolen() {
        let base = unique_dir("stale-lock");
        let dir = base.join(format!("job-{:016x}", 6));
        fs::create_dir_all(&dir).unwrap();
        let dead_pid = (2..u32::MAX)
            .rev()
            .find(|&p| !pid_alive(p))
            .expect("some pid is free");
        fs::write(dir.join("manifest.lock"), dead_pid.to_string()).unwrap();

        let session: CheckpointSession<u64> = CheckpointSession::open(&base, fp(6), 4).unwrap();
        session.record(0, &[1], 1);
        drop(session);
        let resumed: CheckpointSession<u64> = CheckpointSession::open(&base, fp(6), 4).unwrap();
        assert_eq!(resumed.lookup(0), Some((vec![1], 1)));
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn orphan_owner_parses_both_shapes() {
        assert_eq!(orphan_owner("mrassign-spill-1234-7.run"), Some(1234));
        assert_eq!(orphan_owner("part-9.ckpt.tmp-88-3"), Some(88));
        assert_eq!(orphan_owner("part-9.ckpt"), None);
        assert_eq!(orphan_owner("manifest.bin"), None);
        assert_eq!(orphan_owner("mrassign-spill-x-7.run"), None);
    }

    /// A map record over 5 partitions: partition 0 empty, two map tasks
    /// dead-lettered.
    fn sample_map_record() -> MapSummary {
        MapSummary {
            records_emitted: 1234,
            map_retries: 5,
            dlq: [3, 9]
                .into_iter()
                .map(|index| DlqEntry {
                    stage: FaultStage::Map,
                    index,
                    attempts: 2,
                })
                .collect(),
            loads: (0..5u64)
                .map(|p| PartitionLoad {
                    records: p * 10,
                    value_bytes: p * 100,
                    total_bytes: p * 150,
                })
                .collect(),
        }
    }

    /// The map record is a persistence boundary: every truncation, every
    /// single-bit flip (against its committed length and hash) and every
    /// hostile count is an error, never a panic or an allocation sized
    /// by the count.
    #[test]
    fn map_record_decoder_rejects_truncation_bit_flips_and_hostile_counts() {
        let record = sample_map_record();
        let bytes = record.encode();
        assert_eq!(MapSummary::decode(&bytes, 5), Ok(record.clone()));
        for len in 0..bytes.len() {
            assert!(
                MapSummary::decode(&bytes[..len], 5).is_err(),
                "truncated to {len} bytes"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(MapSummary::decode(&trailing, 5).is_err(), "trailing byte");

        // A flipped count can still decode on its own, but never panics;
        // the manifest entry's length and content hash reject every flip.
        let entry = ManifestEntry {
            partition: 5,
            records: 0,
            distinct_keys: 0,
            file_bytes: bytes.len() as u64,
            file_hash: word_hash(&bytes),
        };
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = MapSummary::decode(&flipped, 5);
            let verified = check_committed(&flipped, &entry, "map record")
                .and_then(|()| MapSummary::decode(&flipped, 5));
            assert!(verified.is_err(), "bit {bit} flipped");
        }

        // Hostile counts behind intact framing. The DLQ count sits after
        // two u64s; the partition count after the two DLQ entries.
        let with_u64_at = |offset: usize, value: u64| {
            let mut hostile = bytes.clone();
            hostile[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            hostile
        };
        let partitions_at = 24 + 12 * record.dlq.len();
        for (what, hostile) in [
            ("DLQ count u64::MAX", with_u64_at(16, u64::MAX)),
            ("DLQ count one too many", with_u64_at(16, 3)),
            (
                "partition count u64::MAX",
                with_u64_at(partitions_at, u64::MAX),
            ),
            ("partition count 4", with_u64_at(partitions_at, 4)),
        ] {
            assert!(MapSummary::decode(&hostile, 5).is_err(), "{what}");
        }
        assert!(MapSummary::decode(&bytes, 4).is_err(), "fewer reducers");
        assert!(MapSummary::decode(&bytes, 6).is_err(), "more reducers");
        let saturated = MapSummary {
            loads: vec![
                PartitionLoad {
                    records: u64::MAX,
                    ..PartitionLoad::default()
                },
                PartitionLoad {
                    records: 1,
                    ..PartitionLoad::default()
                },
            ],
            ..record
        };
        assert_eq!(
            MapSummary::decode(&saturated.encode(), 2),
            Ok(saturated),
            "saturated loads round-trip; their sums saturate when applied"
        );
    }

    /// The session serves the job whole only while the map record and
    /// every nonempty partition verify. A corrupt record is counted and
    /// written again; a valid one is kept as it is.
    #[test]
    fn map_record_gates_a_full_replay_and_heals() {
        let base = unique_dir("map-record");
        let record = sample_map_record();
        let session: CheckpointSession<u64> = CheckpointSession::open(&base, fp(8), 5).unwrap();
        assert_eq!(session.replayable(), None, "a cold session has no record");
        session.record_map(&record);
        for p in 1..5 {
            session.record(p, &[p as u64], 1);
        }
        drop(session);

        let dir = base.join(format!("job-{:016x}", 8));
        let open = || CheckpointSession::<u64>::open(&base, fp(8), 5).unwrap();
        let whole = open();
        assert_eq!(whole.committed(), 4, "the record is not a partition");
        assert_eq!(whole.replayable(), Some(&record));
        assert_eq!(whole.verified(), [false, true, true, true, true]);
        drop(whole);

        let map_path = dir.join("map.ckpt");
        let mut damaged = fs::read(&map_path).unwrap();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01;
        fs::write(&map_path, &damaged).unwrap();
        let reopened = open();
        assert_eq!(
            reopened.replayable(),
            None,
            "a corrupt record is not served"
        );
        assert_eq!(reopened.invalid.load(Ordering::Relaxed), 1);
        reopened.record_map(&record);
        drop(reopened);

        let healed = open();
        assert_eq!(healed.replayable(), Some(&record), "the rerun rewrote it");
        assert_eq!(healed.invalid.load(Ordering::Relaxed), 0);
        let manifest = dir.join("manifest.bin");
        let committed_len = fs::metadata(&manifest).unwrap().len();
        healed.record_map(&record);
        assert_eq!(
            fs::metadata(&manifest).unwrap().len(),
            committed_len,
            "a valid record is kept, not appended again"
        );
        drop(healed);

        fs::remove_file(dir.join("part-3.ckpt")).unwrap();
        let partial = open();
        assert_eq!(
            partial.replayable(),
            None,
            "a missing nonempty partition forces a partial resume"
        );
        assert_eq!(partial.invalid.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&base).unwrap();
    }
}

//! Out-of-core spilling for the pipelined shuffle, and the codec every
//! spilled or checkpointed record is written with.
//!
//! When [`ClusterConfig::memory_budget`](crate::ClusterConfig::memory_budget)
//! is set, a consumer group whose buffered records exceed the budget
//! **seals** its largest resident partition buffer and writes it to a temp
//! file through this module. Finalize later reads each of the partition's
//! spilled runs back whole, appends it to the records still resident, and
//! restores arrival order with one stable sort by map task. Spilling thus
//! changes *where* records wait, never what finalize hands the reducer,
//! which is what keeps `JobOutput` bit-identical across budget settings.
//!
//! **File format.** A spilled run is a partition of `(task, key, value)`
//! records in the framing [`encode_partition`] writes for checkpoints,
//! with the distinct-key count set to 0, and it is read back with
//! [`decode_partition`]. Spill runs and checkpointed partitions thus share
//! one framing and one hardened decoder.
//!
//! **Lifecycle.** A [`SpilledRun`] owns its temp file and deletes it on
//! drop. The run moves with its partition to whichever consumer finalizes
//! it, which drops it once it has been read back. The file disappears on
//! success, on error, and during a user-panic unwind alike (the engine's
//! threads are scoped, so locals always drop).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::SimError;
use crate::sink::{decode_partition, encode_partition};

/// Serialization contract for spillable keys and values.
///
/// Every [`Mapper::Key`](crate::Mapper::Key) and
/// [`Mapper::Value`](crate::Mapper::Value) must encode itself into the
/// spill file format and decode itself back, byte-identically — finalize
/// replays spilled records through the same reduce path as resident ones,
/// so a lossy codec would silently corrupt outputs.
/// Implementations mirror the [`ByteSized`](crate::ByteSized) coverage:
/// fixed-width little-endian integers, length-prefixed strings and byte
/// slices, and structural impls for tuples, `Vec`, `Option`, and `Box`.
///
/// `encode` appends to `buf`; `decode` consumes from the front of `bytes`
/// (advancing the slice) and returns `None` on truncated or malformed
/// input — the engine surfaces that as [`SimError::SpillIo`] rather than
/// panicking.
pub trait SpillCodec: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes one value from the front of `bytes`, advancing it past the
    /// consumed bytes. `None` means truncated or malformed input.
    fn decode(bytes: &mut &[u8]) -> Option<Self>;
}

/// Splits `n` bytes off the front of `bytes`, or `None` if short.
fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if bytes.len() < n {
        return None;
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Some(head)
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl SpillCodec for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(bytes: &mut &[u8]) -> Option<Self> {
                let raw = take(bytes, std::mem::size_of::<$ty>())?;
                Some(<$ty>::from_le_bytes(raw.try_into().ok()?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i32, i64);

impl SpillCodec for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Bit pattern, not value: NaN payloads and signed zeros survive
        // the roundtrip, so a checkpointed output is bit-identical to the
        // freshly computed one.
        self.to_bits().encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(f64::from_bits(u64::decode(bytes)?))
    }
}

impl SpillCodec for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Fixed 8-byte encoding regardless of platform width.
        (*self as u64).encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode(bytes)?).ok()
    }
}

impl SpillCodec for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_bytes: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl SpillCodec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        match u8::decode(bytes)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// Encodes a `u32` length prefix, rejecting lengths that overflow it.
fn encode_len(len: usize, buf: &mut Vec<u8>) {
    u32::try_from(len)
        .expect("spilled element count exceeds u32::MAX")
        .encode(buf);
}

impl SpillCodec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_len(self.len(), buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(bytes)? as usize;
        let raw = take(bytes, len)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl SpillCodec for Arc<[u8]> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_len(self.len(), buf);
        buf.extend_from_slice(self);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(bytes)? as usize;
        Some(Arc::from(take(bytes, len)?))
    }
}

impl<T: SpillCodec> SpillCodec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_len(self.len(), buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(bytes)? as usize;
        // Cap preallocation: `len` is attacker/corruption-controlled.
        let mut items = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            items.push(T::decode(bytes)?);
        }
        Some(items)
    }
}

impl<T: SpillCodec> SpillCodec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(value) => {
                buf.push(1);
                value.encode(buf);
            }
        }
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        match u8::decode(bytes)? {
            0 => Some(None),
            1 => Some(Some(T::decode(bytes)?)),
            _ => None,
        }
    }
}

impl<T: SpillCodec> SpillCodec for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(Box::new(T::decode(bytes)?))
    }
}

impl<A: SpillCodec, B: SpillCodec> SpillCodec for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some((A::decode(bytes)?, B::decode(bytes)?))
    }
}

impl<A: SpillCodec, B: SpillCodec, C: SpillCodec> SpillCodec for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some((A::decode(bytes)?, B::decode(bytes)?, C::decode(bytes)?))
    }
}

/// One sealed, spilled partition buffer: the temp file it was written
/// to, plus the accounting the engine tracked while it was resident. It
/// owns the file and deletes it on drop — including mid-unwind, since the
/// engine's scoped threads drop their locals before the panic propagates.
#[derive(Debug)]
pub(crate) struct SpilledRun {
    path: PathBuf,
    /// Shared tally of failed deletes, sampled into
    /// [`PipelineMetrics::spill_delete_errors`](crate::PipelineMetrics::spill_delete_errors)
    /// when the owning job wires one in (`None` for standalone holders).
    delete_errors: Option<Arc<AtomicU64>>,
    /// Records in the run.
    pub(crate) records: u64,
    /// `ByteSized` bytes the run occupied while buffered (key + value per
    /// record) — the unit [`crate::ClusterConfig::memory_budget`] is
    /// stated in, *not* the physical file size.
    pub(crate) bytes: u64,
}

impl SpilledRun {
    fn fail(&self, source: String) -> SpillError {
        SpillError {
            path: self.path.display().to_string(),
            source,
        }
    }
}

impl Drop for SpilledRun {
    fn drop(&mut self) {
        // Best effort: a vanished temp dir must not turn cleanup into a
        // second failure. But a *leak* must be observable — a delete that
        // fails for any reason other than the file already being gone is
        // tallied for PipelineMetrics::spill_delete_errors.
        if let Err(error) = fs::remove_file(&self.path) {
            if error.kind() != std::io::ErrorKind::NotFound {
                if let Some(counter) = &self.delete_errors {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Monotonic discriminator so concurrent groups (and concurrent tests in
/// one process) never collide on a temp file name.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Resolves the directory spill files are created in: the configured
/// override, or the OS temp dir.
pub(crate) fn resolve_dir(configured: Option<&Path>) -> PathBuf {
    configured.map_or_else(std::env::temp_dir, Path::to_path_buf)
}

/// A spill write or read failure, pre-partition: the engine attaches the
/// reducer partition when lifting this into [`SimError::SpillIo`].
#[derive(Debug)]
pub(crate) struct SpillError {
    pub path: String,
    pub source: String,
}

impl SpillError {
    /// The job error for this failure while spilling or reading back
    /// `partition`.
    pub(crate) fn at(self, partition: usize) -> SimError {
        SimError::SpillIo {
            partition,
            path: self.path,
            source: self.source,
        }
    }
}

/// Seals `run`, one partition's `(task, key, value)` records, into a
/// fresh temp file under `dir`, framed by [`encode_partition`] with the
/// distinct-key count set to 0.
///
/// The returned [`SpilledRun`] owns its path before a byte is written, so
/// on any error a partially written file is deleted before the error
/// propagates; the caller keeps the records it still holds.
pub(crate) fn write_run<K: SpillCodec, V: SpillCodec>(
    dir: &Path,
    run: &[(usize, K, V)],
    bytes: u64,
    delete_errors: Option<Arc<AtomicU64>>,
) -> Result<SpilledRun, SpillError> {
    let discriminator = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let sealed = SpilledRun {
        path: dir.join(format!(
            "mrassign-spill-{}-{discriminator}.run",
            std::process::id()
        )),
        delete_errors,
        records: run.len() as u64,
        bytes,
    };
    encode_partition(run, 0)
        .and_then(|encoded| fs::write(&sealed.path, encoded).map_err(|e| e.to_string()))
        .map_err(|source| sealed.fail(source))?;
    Ok(sealed)
}

/// Reads a spilled run back whole, in the order it was sealed, through
/// [`decode_partition`] — the decoder a committed checkpoint partition is
/// read with — and checks it holds the records it was sealed with. A file
/// that does not decode cleanly is an error naming the file, never a
/// panic or an allocation sized by a count the bytes could not hold.
pub(crate) fn read_run<K: SpillCodec, V: SpillCodec>(
    run: &SpilledRun,
) -> Result<Vec<(usize, K, V)>, SpillError> {
    let bytes = fs::read(&run.path).map_err(|e| run.fail(e.to_string()))?;
    let (records, _) = decode_partition::<(usize, K, V)>(&bytes).map_err(|e| run.fail(e))?;
    if records.len() as u64 != run.records {
        return Err(run.fail(format!(
            "file holds {} records but the run was sealed with {}",
            records.len(),
            run.records
        )));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: SpillCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(T::decode(&mut slice), Some(value));
        assert!(slice.is_empty(), "decode must consume the full encoding");
    }

    #[test]
    fn codecs_roundtrip_every_covered_type() {
        roundtrip(0u8);
        roundtrip(513u16);
        roundtrip(70_000u32);
        roundtrip(u64::MAX);
        roundtrip(12usize);
        roundtrip(-5i32);
        roundtrip(-5_000_000_000i64);
        roundtrip(());
        roundtrip(true);
        roundtrip(String::from("héllo wörld"));
        roundtrip(Arc::<[u8]>::from(&b"abc\0def"[..]));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(Some(7u32));
        roundtrip(None::<String>);
        roundtrip(Box::new((1u8, String::from("x"))));
        roundtrip((1u64, String::from("k"), vec![false, true]));
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let mut buf = Vec::new();
        String::from("hello").encode(&mut buf);
        let mut short = &buf[..buf.len() - 1];
        assert_eq!(String::decode(&mut short), None);
        let mut bad_bool = &[7u8][..];
        assert_eq!(bool::decode(&mut bad_bool), None);
        let mut bad_opt = &[9u8][..];
        assert_eq!(Option::<u8>::decode(&mut bad_opt), None);
        let mut empty = &[][..];
        assert_eq!(u64::decode(&mut empty), None);
    }

    fn unique_temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mrassign-spill-test-{tag}-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create test temp dir");
        dir
    }

    #[test]
    fn write_then_read_roundtrips_and_deletes_on_drop() {
        let dir = unique_temp_dir("roundtrip");
        let run: Vec<(usize, u64, String)> = (0..100)
            .map(|i| (i, i as u64 * 3, format!("value-{i}")))
            .collect();
        let spilled = write_run(&dir, &run, 4_096, None).expect("spill writes");
        assert_eq!(spilled.records, 100);
        assert_eq!(spilled.bytes, 4_096);
        assert!(spilled.path.exists());

        // The file is a checkpoint-framed partition of tagged records
        // with no distinct-key count.
        let bytes = std::fs::read(&spilled.path).unwrap();
        let framed = decode_partition::<(usize, u64, String)>(&bytes).expect("partition framing");
        assert_eq!(framed, (run.clone(), 0));

        // Reading leaves the file in place, so a second read agrees.
        assert_eq!(read_run::<u64, String>(&spilled).expect("clean read"), run);
        assert_eq!(read_run::<u64, String>(&spilled).expect("reads again"), run);

        let path = spilled.path.clone();
        drop(spilled);
        assert!(!path.exists(), "dropping the run deletes the temp file");
        std::fs::remove_dir(&dir).expect("test dir is empty again");
    }

    /// Satellite: an unwritable spill directory surfaces as an `Err` (the
    /// engine lifts it into `SimError::SpillIo`), never a panic, and
    /// leaves no partial file behind.
    #[test]
    fn unwritable_directory_fails_cleanly_without_litter() {
        let dir = unique_temp_dir("missing").join("does-not-exist");
        let run: Vec<(usize, u64, u64)> = vec![(0, 1, 2)];
        let err = write_run(&dir, &run, 16, None).expect_err("missing dir cannot be written");
        assert!(err.path.contains("mrassign-spill-"), "{}", err.path);
        assert!(!err.source.is_empty());
        assert!(!dir.exists(), "no partial file appears");
    }

    /// A leaked spill file must be observable: a delete that fails
    /// (other than file-already-gone) bumps the shared counter; a clean
    /// delete, or a file someone else already removed, does not.
    #[test]
    fn drop_counts_failed_deletes_but_not_vanished_files() {
        let dir = unique_temp_dir("delete-errors");
        let counter = Arc::new(AtomicU64::new(0));

        // Clean delete: no error counted.
        let run: Vec<(usize, u64, u64)> = vec![(0, 1, 2)];
        let spilled = write_run(&dir, &run, 16, Some(Arc::clone(&counter))).expect("spill writes");
        drop(spilled);
        assert_eq!(counter.load(Ordering::Relaxed), 0);

        // Already-gone file: NotFound is not a leak, so still no error.
        let spilled = write_run(&dir, &run, 16, Some(Arc::clone(&counter))).expect("spill writes");
        std::fs::remove_file(&spilled.path).expect("steal the file out from under the guard");
        drop(spilled);
        assert_eq!(counter.load(Ordering::Relaxed), 0);

        // Genuine failure: the path is a non-empty directory, which
        // remove_file cannot delete on any platform.
        let blocked = dir.join("blocked.run");
        std::fs::create_dir(&blocked).expect("create blocking dir");
        std::fs::write(blocked.join("occupant"), b"x").expect("occupy it");
        drop(SpilledRun {
            path: blocked.clone(),
            delete_errors: Some(Arc::clone(&counter)),
            records: 0,
            bytes: 0,
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "failed delete is tallied"
        );

        std::fs::remove_file(blocked.join("occupant")).unwrap();
        std::fs::remove_dir(&blocked).unwrap();
        std::fs::remove_dir(&dir).expect("test dir is empty again");
    }

    /// Spills a four-record run, lets `corrupt` rewrite the file's bytes,
    /// and returns the error reading it back, which must name the file.
    fn read_error_after(tag: &str, corrupt: impl FnOnce(&mut Vec<u8>)) -> SpillError {
        let dir = unique_temp_dir(tag);
        let run: Vec<(usize, u64, u64)> = (0..4).map(|i| (i, i as u64, 0)).collect();
        let spilled = write_run(&dir, &run, 64, None).expect("spill writes");
        let mut bytes = std::fs::read(&spilled.path).unwrap();
        corrupt(&mut bytes);
        std::fs::write(&spilled.path, &bytes).unwrap();
        let err = read_run::<u64, u64>(&spilled).expect_err("a corrupt run must not read back");
        assert_eq!(err.path, spilled.path.display().to_string());
        drop(spilled);
        std::fs::remove_dir(&dir).expect("test dir is empty again");
        err
    }

    /// A hostile record length must be an error, not a 4 GiB buffer: the
    /// decoder bounds it by the bytes left before taking the record.
    #[test]
    fn hostile_record_length_is_a_read_error() {
        let err = read_error_after("hostile-len", |bytes| {
            // The first record's length prefix follows the record and
            // distinct-key counts.
            bytes[16..20].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        });
        assert!(
            err.source.contains("record body truncated"),
            "{}",
            err.source
        );
    }

    #[test]
    fn corrupt_header_count_is_a_read_error() {
        let dir = unique_temp_dir("corrupt");
        let run: Vec<(usize, u64, u64)> = (0..4).map(|i| (i, i as u64, 0)).collect();
        let mut spilled = write_run(&dir, &run, 64, None).expect("spill writes");
        spilled.records += 1; // sealed count no longer matches the file
        let Err(err) = read_run::<u64, u64>(&spilled) else {
            panic!("mismatch must be detected");
        };
        assert!(err.source.contains("sealed with"), "{}", err.source);
        assert_eq!(err.path, spilled.path.display().to_string());
        drop(spilled);
        std::fs::remove_dir(&dir).expect("test dir is empty again");
    }

    #[test]
    fn truncated_run_is_a_read_error() {
        let err = read_error_after("truncated", |bytes| {
            bytes.pop();
        });
        assert!(err.source.contains("truncated"), "{}", err.source);
    }

    #[test]
    fn trailing_bytes_are_a_read_error() {
        let err = read_error_after("trailing", |bytes| bytes.push(0));
        assert!(err.source.contains("trailing bytes"), "{}", err.source);
    }

    /// A record count the file's bytes could not hold is rejected before
    /// anything is allocated for it: `u64::MAX` would panic with
    /// "capacity overflow" and 2^32 would try to reserve 96 GiB.
    #[test]
    fn hostile_record_count_is_a_read_error_without_allocating() {
        for count in [u64::MAX, 1 << 32] {
            let err = read_error_after("hostile-count", |bytes| {
                bytes[..8].copy_from_slice(&count.to_le_bytes());
            });
            assert!(
                err.source.contains("record count"),
                "{count}: {}",
                err.source
            );
        }
    }
}

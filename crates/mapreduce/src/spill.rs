//! Out-of-core run spilling for the pipelined shuffle.
//!
//! When [`ClusterConfig::memory_budget`](crate::ClusterConfig::memory_budget)
//! is set, a consumer group whose buffered run data exceeds the budget
//! **seals** its largest sequence-ordered run and writes it to a temp file
//! through this module; finalize later streams the run back record by
//! record through the same k-way merge that handles in-memory runs. The
//! run representation (records sorted by producing-task `seq`) is already
//! an on-disk-ready unit: spilling changes *where* a run lives, never what
//! it contains, which is what keeps `JobOutput` bit-identical across
//! budget settings.
//!
//! **File format.** Length-prefixed, little-endian throughout:
//!
//! ```text
//!   u64 record_count
//!   repeat record_count times:
//!     u32 record_len            // byte length of the payload below
//!     u64 seq                   // producing map task index
//!     <key bytes>  (SpillCodec)
//!     <value bytes> (SpillCodec)
//! ```
//!
//! The per-record length prefix lets the reader buffer exactly one record
//! at a time — the external merge holds one head record per run, not the
//! run itself.
//!
//! **Lifecycle.** A [`SpillFile`] deletes its temp file on drop, and each
//! [`SpilledRun`] owns its file. The run moves with its partition to
//! whichever consumer finalizes it; a reader borrows the run, so the
//! borrow checker keeps the file alive while it is read. The file
//! disappears when the run drops — on success, on error, and during a
//! user-panic unwind alike (the engine's threads are scoped, so locals
//! always drop).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Serialization contract for spillable keys and values.
///
/// Every [`Mapper::Key`](crate::Mapper::Key) and
/// [`Mapper::Value`](crate::Mapper::Value) must encode itself into the
/// spill file format and decode itself back, byte-identically — the
/// out-of-core merge replays spilled records through the same reduce path
/// as in-memory ones, so a lossy codec would silently corrupt outputs.
/// Implementations mirror the [`ByteSized`](crate::ByteSized) coverage:
/// fixed-width little-endian integers, length-prefixed strings and byte
/// slices, and structural impls for tuples, `Vec`, `Option`, and `Box`.
///
/// `encode` appends to `buf`; `decode` consumes from the front of `bytes`
/// (advancing the slice) and returns `None` on truncated or malformed
/// input — the engine surfaces that as
/// [`SimError::SpillIo`](crate::SimError::SpillIo) rather than panicking.
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

/// Owns one spill temp file and deletes it on drop — including
/// mid-unwind, since the engine's scoped threads drop their locals before
/// the panic propagates.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    /// Shared tally of failed deletes, sampled into
    /// [`PipelineMetrics::spill_delete_errors`](crate::PipelineMetrics::spill_delete_errors)
    /// when the owning job wires one in (`None` for standalone holders).
    delete_errors: Option<Arc<AtomicU64>>,
}

impl SpillFile {
    /// Takes ownership of `path`, deleting it on drop. Failed deletes are
    /// counted into `delete_errors` when provided.
    pub(crate) fn new(path: PathBuf, delete_errors: Option<Arc<AtomicU64>>) -> Self {
        SpillFile {
            path,
            delete_errors,
        }
    }

    /// The temp file's location (diagnostic; travels in
    /// [`SimError::SpillIo`](crate::SimError::SpillIo)).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // Best effort: a vanished temp dir must not turn cleanup into a
        // second failure. But a *leak* must be observable — a delete that
        // fails for any reason other than the file already being gone is
        // tallied for PipelineMetrics::spill_delete_errors.
        if let Err(error) = std::fs::remove_file(&self.path) {
            if error.kind() != std::io::ErrorKind::NotFound {
                if let Some(counter) = &self.delete_errors {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// One sealed, spilled run: its temp file plus the accounting the engine
/// tracked while the run was resident. Dropping the run deletes the file.
#[derive(Debug)]
pub struct SpilledRun {
    file: SpillFile,
    /// Records in the run.
    pub records: u64,
    /// `ByteSized` bytes the run occupied while buffered (key + value per
    /// record) — the unit [`crate::ClusterConfig::memory_budget`] is
    /// stated in, *not* the physical file size.
    pub bytes: u64,
}

impl SpilledRun {
    /// The backing temp file's location.
    pub fn path(&self) -> &Path {
        self.file.path()
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
/// reducer partition when lifting this into
/// [`SimError::SpillIo`](crate::SimError::SpillIo).
#[derive(Debug)]
pub(crate) struct SpillError {
    pub path: String,
    pub source: String,
}

/// Seals `run` into a fresh temp file under `dir`.
///
/// On any I/O error the partially written file is already owned by the
/// returned-to-be [`SpillFile`] guard, so it is deleted before the error
/// propagates; the caller keeps the in-memory run it still holds.
pub(crate) fn write_run<K: SpillCodec, V: SpillCodec>(
    dir: &Path,
    run: &[(usize, K, V)],
    bytes: u64,
    delete_errors: Option<Arc<AtomicU64>>,
) -> Result<SpilledRun, SpillError> {
    let discriminator = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "mrassign-spill-{}-{discriminator}.run",
        std::process::id()
    ));
    let guard = SpillFile::new(path, delete_errors);
    let fail = |source: std::io::Error| SpillError {
        path: guard.path().display().to_string(),
        source: source.to_string(),
    };
    let write = || -> std::io::Result<()> {
        let mut writer = BufWriter::new(File::create(guard.path())?);
        writer.write_all(&(run.len() as u64).to_le_bytes())?;
        let mut record = Vec::new();
        for (seq, key, value) in run {
            record.clear();
            (*seq as u64).encode(&mut record);
            key.encode(&mut record);
            value.encode(&mut record);
            let len = u32::try_from(record.len()).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "spill record exceeds the u32 length prefix",
                )
            })?;
            writer.write_all(&len.to_le_bytes())?;
            writer.write_all(&record)?;
        }
        writer.flush()
    };
    write().map_err(fail)?;
    Ok(SpilledRun {
        file: guard,
        records: run.len() as u64,
        bytes,
    })
}

/// Streams one spilled run back in write order, one length-prefixed
/// record per [`SpillReader::next_record`] call — the external merge
/// keeps exactly one head record per run resident. It borrows the run,
/// so the temp file outlives the read.
pub(crate) struct SpillReader<'a, K, V> {
    reader: BufReader<File>,
    remaining: u64,
    /// File bytes not yet read — the bound an untrusted record length is
    /// checked against before any buffer grows to hold it.
    unread: u64,
    file: &'a SpillFile,
    record: Vec<u8>,
    _types: PhantomData<fn() -> (K, V)>,
}

impl<'a, K: SpillCodec, V: SpillCodec> SpillReader<'a, K, V> {
    pub(crate) fn open(run: &'a SpilledRun) -> Result<Self, SpillError> {
        let fail = |source: String| SpillError {
            path: run.path().display().to_string(),
            source,
        };
        let file = File::open(run.path()).map_err(|e| fail(e.to_string()))?;
        let file_len = file
            .metadata()
            .map_err(|e| fail(format!("reading file size: {e}")))?
            .len();
        let mut reader = BufReader::new(file);
        let mut header = [0u8; 8];
        reader
            .read_exact(&mut header)
            .map_err(|e| fail(format!("reading record count: {e}")))?;
        let remaining = u64::from_le_bytes(header);
        if remaining != run.records {
            return Err(fail(format!(
                "header says {remaining} records but the run was sealed with {}",
                run.records
            )));
        }
        Ok(SpillReader {
            reader,
            remaining,
            unread: file_len.saturating_sub(header.len() as u64),
            file: &run.file,
            record: Vec::new(),
            _types: PhantomData,
        })
    }

    /// Reads the next `(seq, key, value)` record, or `None` at end of run.
    pub(crate) fn next_record(&mut self) -> Option<Result<(usize, K, V), SpillError>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.read_one())
    }

    fn read_one(&mut self) -> Result<(usize, K, V), SpillError> {
        let fail = |source: String| SpillError {
            path: self.file.path().display().to_string(),
            source,
        };
        let mut len = [0u8; 4];
        self.reader
            .read_exact(&mut len)
            .map_err(|e| fail(format!("reading record length: {e}")))?;
        let len = u64::from(u32::from_le_bytes(len));
        self.unread = self.unread.saturating_sub(4);
        if len > self.unread {
            return Err(fail(format!(
                "record length {len} exceeds the {} bytes left in the run",
                self.unread
            )));
        }
        self.unread -= len;
        self.record.resize(len as usize, 0);
        self.reader
            .read_exact(&mut self.record)
            .map_err(|e| fail(format!("reading record body: {e}")))?;
        let mut bytes = self.record.as_slice();
        let decoded = (|| {
            let seq = usize::decode(&mut bytes)?;
            let key = K::decode(&mut bytes)?;
            let value = V::decode(&mut bytes)?;
            bytes.is_empty().then_some((seq, key, value))
        })();
        decoded.ok_or_else(|| SpillError {
            path: self.file.path().display().to_string(),
            source: "malformed spill record (truncated or trailing bytes)".to_string(),
        })
    }
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
    fn write_then_stream_roundtrips_and_deletes_on_drop() {
        let dir = unique_temp_dir("roundtrip");
        let run: Vec<(usize, u64, String)> = (0..100)
            .map(|i| (i, i as u64 * 3, format!("value-{i}")))
            .collect();
        let spilled = write_run(&dir, &run, 4_096, None).expect("spill writes");
        assert_eq!(spilled.records, 100);
        assert_eq!(spilled.bytes, 4_096);
        assert!(spilled.path().exists());

        let mut reader: SpillReader<u64, String> = SpillReader::open(&spilled).expect("opens");
        let mut streamed = Vec::new();
        while let Some(record) = reader.next_record() {
            streamed.push(record.expect("clean read"));
        }
        assert_eq!(streamed, run);

        // Two concurrent readers see independent cursors.
        let mut a: SpillReader<u64, String> = SpillReader::open(&spilled).unwrap();
        let mut b: SpillReader<u64, String> = SpillReader::open(&spilled).unwrap();
        assert_eq!(a.next_record().unwrap().unwrap(), run[0]);
        assert_eq!(b.next_record().unwrap().unwrap(), run[0]);

        // Readers borrow the run, so they drop first; then the run
        // deletes its file.
        let path = spilled.path().to_path_buf();
        drop(reader);
        drop(a);
        drop(b);
        assert!(path.exists(), "the run still owns its temp file");
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

    /// Satellite: `SpillFile::drop` used to swallow delete errors silently.
    /// A delete that fails (other than file-already-gone) must bump the
    /// shared counter; a clean delete, or a file someone else already
    /// removed, must not.
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
        std::fs::remove_file(spilled.path()).expect("steal the file out from under the guard");
        drop(spilled);
        assert_eq!(counter.load(Ordering::Relaxed), 0);

        // Genuine failure: the path is a non-empty directory, which
        // remove_file cannot delete on any platform.
        let blocked = dir.join("blocked.run");
        std::fs::create_dir(&blocked).expect("create blocking dir");
        std::fs::write(blocked.join("occupant"), b"x").expect("occupy it");
        drop(SpillFile::new(blocked.clone(), Some(Arc::clone(&counter))));
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "failed delete is tallied"
        );

        std::fs::remove_file(blocked.join("occupant")).unwrap();
        std::fs::remove_dir(&blocked).unwrap();
        std::fs::remove_dir(&dir).expect("test dir is empty again");
    }

    /// A hostile record length must be an error, not a 4 GiB buffer: the
    /// reader bounds it by the bytes left in the file before growing its
    /// record buffer.
    #[test]
    fn hostile_record_length_is_a_read_error() {
        let dir = unique_temp_dir("hostile-len");
        let run: Vec<(usize, u64, u64)> = (0..4).map(|i| (i, i as u64, 0)).collect();
        let spilled = write_run(&dir, &run, 64, None).expect("spill writes");
        let mut bytes = std::fs::read(spilled.path()).unwrap();
        // The first record's length prefix follows the 8-byte count.
        bytes[8..12].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        std::fs::write(spilled.path(), &bytes).unwrap();
        let mut reader: SpillReader<u64, u64> = SpillReader::open(&spilled).expect("opens");
        let Some(Err(err)) = reader.next_record() else {
            panic!("an oversized length prefix must be a read error");
        };
        assert!(err.source.contains("exceeds"), "{}", err.source);
        drop(reader);
        drop(spilled);
        std::fs::remove_dir(&dir).expect("test dir is empty again");
    }

    #[test]
    fn corrupt_header_count_is_a_read_error() {
        let dir = unique_temp_dir("corrupt");
        let run: Vec<(usize, u64, u64)> = (0..4).map(|i| (i, i as u64, 0)).collect();
        let mut spilled = write_run(&dir, &run, 64, None).expect("spill writes");
        spilled.records += 1; // sealed count no longer matches the header
        let Err(err) = SpillReader::<u64, u64>::open(&spilled) else {
            panic!("mismatch must be detected");
        };
        assert!(err.source.contains("sealed with"), "{}", err.source);
        drop(spilled);
        std::fs::remove_dir(&dir).expect("test dir is empty again");
    }
}

//! Incremental partition hand-off: the [`PartitionSink`] trait plus the
//! shared partition wire encoding.
//!
//! [`Job::run`](crate::Job::run) historically surfaced results only as a
//! monolithic `JobOutput` once every partition had finalized. The sink
//! refactor splits that path: both engines (materialized, pipelined)
//! announce each reduce partition the moment it finalizes, through a
//! caller-supplied [`PartitionSink`]. The original
//! all-at-once behaviour is just the no-op sink ([`NullSink`]) — the
//! engine still returns the full `JobOutput`, so existing callers are
//! unchanged.
//!
//! The encoding ([`encode_partition`]/[`decode_partition`]) is the exact
//! byte format the checkpoint layer persists to `part-<p>.ckpt` files:
//! record count, distinct-key count, then `u32`-length-prefixed
//! [`SpillCodec`] records. One format means a finalized partition is
//! simultaneously stream-able (pushed over a channel to a downstream
//! stage) and cache-persistable (written to a checkpoint or served from
//! the DAG stage store) without re-encoding. The same framing also frames
//! the pipelined shuffle's spill runs: a sealed partition buffer is a
//! partition of `(map task, key, value)` records with a distinct-key
//! count of 0, read back through [`decode_partition`].
//!
//! ## Sink contract
//!
//! - Partitions are delivered in **ascending partition order**, each at
//!   most once per run. The materialized engine calls the sink as
//!   each partition finalizes; the pipelined engine calls it
//!   during deterministic reassembly (after out-of-order finalizes have
//!   been slotted back into partition order).
//! - Checkpoint-resumed partitions **are** delivered: a resume run
//!   streams the replayed partitions exactly as a fresh run would, so a
//!   downstream consumer cannot tell the difference.
//! - Dead-lettered (dropped) partitions are **not** delivered.
//! - Empty partitions (no records routed to them) are **not** delivered.

use crate::spill::SpillCodec;

/// Receives each finalized reduce partition as the engine commits it.
///
/// `Sync` because the pipelined engine may invoke the sink from its
/// coordinating thread while mapper threads are still live; `&self`
/// because one sink is shared across the whole run.
pub trait PartitionSink<Out>: Sync {
    /// Called once per non-empty, non-dropped partition, in ascending
    /// `partition` order, with that partition's final outputs and its
    /// distinct reduce-key count.
    fn partition(&self, partition: usize, outputs: &[Out], distinct_keys: u64);
}

/// The sink that restores the historical all-at-once behaviour: ignore
/// incremental delivery and let the caller consume `JobOutput.outputs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl<Out> PartitionSink<Out> for NullSink {
    fn partition(&self, _partition: usize, _outputs: &[Out], _distinct_keys: u64) {}
}

/// Encodes one finalized partition in the shared wire format: record
/// count (`u64`), distinct-key count (`u64`), then each record as a
/// `u32` length prefix plus its [`SpillCodec`] bytes.
///
/// Errors only when a single record's encoding exceeds the `u32` length
/// prefix.
pub fn encode_partition<Out: SpillCodec>(
    outputs: &[Out],
    distinct_keys: u64,
) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    (outputs.len() as u64).encode(&mut body);
    distinct_keys.encode(&mut body);
    let mut record = Vec::new();
    for out in outputs {
        record.clear();
        out.encode(&mut record);
        let len = u32::try_from(record.len())
            .map_err(|_| "output record exceeds the u32 length prefix".to_string())?;
        len.encode(&mut body);
        body.extend_from_slice(&record);
    }
    Ok(body)
}

/// Decodes a partition encoded by [`encode_partition`], rejecting any
/// truncation, trailing bytes, or record that fails to decode cleanly.
/// Returns `(outputs, distinct_keys)`.
pub fn decode_partition<Out: SpillCodec>(bytes: &[u8]) -> Result<(Vec<Out>, u64), String> {
    let mut cursor = bytes;
    let count = u64::decode(&mut cursor).ok_or_else(|| "record count truncated".to_string())?;
    let distinct_keys =
        u64::decode(&mut cursor).ok_or_else(|| "distinct-key count truncated".to_string())?;
    // The count is untrusted: every record needs at least its 4-byte
    // length prefix, so bound the count by the remaining bytes before
    // allocating for it.
    let max_records = cursor.len() / 4;
    if count > max_records as u64 {
        return Err(format!(
            "record count {count} exceeds the {max_records} records the bytes could hold"
        ));
    }
    let mut outputs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = u32::decode(&mut cursor).ok_or_else(|| "record length truncated".to_string())?;
        let (mut record, rest) = cursor
            .split_at_checked(len as usize)
            .ok_or_else(|| "record body truncated".to_string())?;
        cursor = rest;
        let out = Out::decode(&mut record)
            .filter(|_| record.is_empty())
            .ok_or_else(|| "record failed to decode".to_string())?;
        outputs.push(out);
    }
    if !cursor.is_empty() {
        return Err("partition has trailing bytes".to_string());
    }
    Ok((outputs, distinct_keys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_encoding_roundtrips() {
        let outputs = vec![
            (1u64, "aa".to_string()),
            (2, String::new()),
            (3, "c".into()),
        ];
        let bytes = encode_partition(&outputs, 2).unwrap();
        let (decoded, distinct) = decode_partition::<(u64, String)>(&bytes).unwrap();
        assert_eq!(decoded, outputs);
        assert_eq!(distinct, 2);
    }

    #[test]
    fn empty_partition_roundtrips() {
        let bytes = encode_partition::<u64>(&[], 0).unwrap();
        assert_eq!(decode_partition::<u64>(&bytes).unwrap(), (vec![], 0));
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        let outputs = vec![10u64, 20];
        let bytes = encode_partition(&outputs, 2).unwrap();
        assert!(decode_partition::<u64>(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_partition::<u64>(&padded).is_err());
        // A record whose bytes decode to the wrong type is rejected too.
        assert!(decode_partition::<String>(&bytes).is_err());
    }

    /// A hostile record count must be an error, not an allocation: a
    /// 16-byte partition claiming `u64::MAX` records used to panic with
    /// "capacity overflow", and one claiming 2^32 records aborted the
    /// process trying to reserve 128 GiB.
    #[test]
    fn hostile_record_counts_are_rejected_before_allocating() {
        for count in [u64::MAX, 1 << 32, 1] {
            let mut bytes = Vec::new();
            count.encode(&mut bytes);
            0u64.encode(&mut bytes);
            assert_eq!(bytes.len(), 16);
            let err = decode_partition::<u64>(&bytes).unwrap_err();
            assert!(err.contains("record count"), "{count}: {err}");
        }
    }

    #[test]
    fn null_sink_accepts_everything() {
        // Purely a compile-and-run smoke: the no-op sink must be usable
        // behind `&dyn PartitionSink` like any real sink.
        let sink: &dyn PartitionSink<u64> = &NullSink;
        sink.partition(0, &[1, 2], 2);
    }
}

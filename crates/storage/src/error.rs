//! Storage-layer errors.

use std::fmt;

/// Errors raised by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// A keyed lookup missed (node id not present in the relation).
    KeyNotFound(u32),
    /// A slot index was outside the heap file.
    SlotOutOfRange {
        /// The requested slot.
        slot: usize,
        /// The number of slots in the file.
        len: usize,
    },
    /// A supplied value was invalid for the operation (e.g. a negative
    /// edge cost).
    InvalidValue(&'static str),
    /// A graph was too large for the fixed-width tuple encodings.
    CapacityExceeded {
        /// What overflowed (e.g. "node id").
        what: &'static str,
        /// The offending value.
        value: usize,
        /// The encoding's maximum.
        max: usize,
    },
    /// A physical block operation failed transiently (injected by a
    /// [`FaultPlan`](crate::FaultPlan); retrying the query may succeed).
    IoFailed {
        /// `"read"` or `"write"`.
        op: &'static str,
        /// The block the operation addressed.
        block: usize,
        /// 1-based index of the operation within its counter stream.
        op_index: u64,
    },
    /// A block's checksum did not match its recorded content — a torn
    /// write was detected. Persistent until the block is rewritten.
    CorruptBlock {
        /// The corrupt block.
        block: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::KeyNotFound(k) => write!(f, "key {k} not found"),
            StorageError::InvalidValue(msg) => write!(f, "invalid value: {msg}"),
            StorageError::SlotOutOfRange { slot, len } => {
                write!(f, "slot {slot} out of range (len {len})")
            }
            StorageError::CapacityExceeded { what, value, max } => {
                write!(f, "{what} {value} exceeds encoding maximum {max}")
            }
            StorageError::IoFailed {
                op,
                block,
                op_index,
            } => {
                write!(f, "block {op} of block {block} failed (op #{op_index})")
            }
            StorageError::CorruptBlock { block } => {
                write!(f, "block {block} is corrupt (checksum mismatch)")
            }
        }
    }
}

impl std::error::Error for StorageError {}

//! A from-scratch paged relational storage engine reproducing the database
//! substrate of the ICDE'93 ATIS paper (Section 4).
//!
//! The paper runs its path algorithms *inside* INGRES: the graph is a pair
//! of relations — a read-only **edge relation `S`** (Begin-node, End-node,
//! Edge-cost; primary hash index on Begin-node) and a working **node
//! relation `R`** (node-id, x, y, status, path, path-cost; primary ISAM
//! index on node-id) — and every step of every algorithm is a relational
//! operation whose cost is *disk I/O measured in 4096-byte blocks*.
//!
//! This crate rebuilds that substrate:
//!
//! * [`block`] — 4096-byte pages.
//! * [`mod@tuple`] — fixed-width tuple codecs: 32-byte edge tuples
//!   (`Bf_s = 128` per block) and 16-byte node tuples (`Bf_r = 256`),
//!   exactly the blocking factors of Table 4A.
//! * [`error`] — [`StorageError`], the engine's one error type.
//! * [`heapfile`] — paged heap files with per-block read/write charging and
//!   dirty-page flushing, optionally split into fixed-size segments (one
//!   buffer-pool file each), the layout metro-scale relations load
//!   through (see `SCALING.md`).
//! * [`io`] — the I/O meter ([`IoStats`]) and the unit-cost table
//!   ([`CostParams`], Table 4A) that converts counts to the paper's cost
//!   units.
//! * [`isam`] — the static multi-level ISAM index on `R.node-id`.
//! * [`relations`] — [`EdgeRelation`] (hash-clustered `S`) and
//!   [`NodeRelation`] (ISAM-indexed `R`); the paper's QUEL `REPLACE` is
//!   the native keyed update [`NodeRelation::replace`].
//! * [`join`] — the four join strategies of Section 4 (nested-loop, hash,
//!   sort-merge, primary-key/index join) and the cost-based chooser
//!   `F(B1, B2, B3)`.
//! * [`temp`] — temporary relations: [`TempRelation`], whose native
//!   `append`/`delete`/`replace` are QUEL's APPEND/DELETE/REPLACE with
//!   index-maintenance charging (the separate-relation frontier of A\*
//!   version 1), and [`MultiRelation`], the allow-duplicates frontier.
//! * [`buffer`] — the optional block-granular [`BufferPool`] (LRU or
//!   region-aware eviction) and its [`CapacityPreset`] sizes.
//! * [`profile`] — [`StorageProfile`]: named knob bundles (segmentation ×
//!   buffer capacity × eviction policy) per network scale.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]): seeded
//!   transient read/write failures, flaky blocks, and torn writes detected
//!   by per-block checksums, for exercising the serving layer's degrade
//!   ladder and storage breaker.
//!
//! Faithfulness notes: [`StorageProfile::paper`] attaches **no buffer
//! pool** — the paper's cost model (Tables 2–3) charges every scan at full
//! block cost, which models INGRES single-user mode with a cold cache.
//! [`StorageProfile::for_nodes`] is the extension: it segments the heap
//! files and attaches the [`CapacityPreset`] pool for the network's scale
//! (128 blocks at ~10k nodes, 1024 at ~100k): a block read that hits the
//! pool is not charged, and writes stay write-through. All cost accounting
//! flows through an explicit [`IoStats`] borrowed by each operation, so a
//! caller can meter any sequence of operations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
#![warn(clippy::iter_over_hash_type)]

pub mod block;
pub mod buffer;
pub mod error;
pub mod fault;
pub mod heapfile;
pub mod io;
pub mod isam;
pub mod join;
pub mod profile;
pub mod relations;
pub mod temp;
pub mod tuple;

pub use buffer::{BufferPool, CapacityPreset, SharedBuffer};
pub use error::StorageError;
pub use fault::{FaultEvent, FaultPlan, FaultState, SharedFaults, STALL_QUANTUM};
pub use heapfile::HeapFile;
pub use io::{CostParams, IoStats};
pub use isam::IsamIndex;
pub use join::{choose_strategy, join_adjacency, JoinPolicy, JoinStrategy};
pub use profile::StorageProfile;
pub use relations::{EdgeRelation, NodeRelation, NodeStatus};
pub use temp::{MultiRelation, TempRelation};
pub use tuple::{EdgeTuple, FixedTuple, NodeTuple, MAX_NODE_ID, NO_PRED};

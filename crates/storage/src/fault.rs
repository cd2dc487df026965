//! Deterministic fault injection for the storage engine.
//!
//! A [`FaultPlan`] describes *which* physical block operations should
//! misbehave; a [`FaultState`] (shared between all relations of one
//! database via [`SharedFaults`]) counts physical reads and writes and
//! consults the plan on every one. Faults come in four flavours:
//!
//! * **Transient read/write failures** — the op returns
//!   [`StorageError::IoFailed`]; nothing is
//!   corrupted, and a retry of the whole query usually succeeds because the
//!   op counters have advanced past the planned failure.
//! * **Per-block read failures** — every read of one specific block fails
//!   with a given probability, modelling a flaky sector.
//! * **Torn writes** — the write "succeeds" but the stored bytes differ
//!   from the intended content by one flipped byte. The heap file keeps a
//!   per-block checksum of the *intended* content, so the corruption is
//!   detected as [`StorageError::CorruptBlock`]
//!   on the next read of the block — persistent until the block is
//!   rewritten.
//! * **Read latency** — every physical block read stalls the calling
//!   thread for a fixed duration, modelling the seek/transfer time of the
//!   disk-resident map database the paper assumes. Unlike the failure
//!   flavours this never changes a result, only wall-clock time. Three
//!   kinds of test use it: the batching tests in `atis-serve`'s `execute.rs` (a
//!   slow worker that requests queue behind), the chaos suite's
//!   `burst-overload` scenario, and the loom model of an install built
//!   outside the snapshot lock. Per-read charges accumulate as debt and
//!   are served in [`STALL_QUANTUM`] sleeps *outside* the shared fault lock,
//!   so concurrent readers overlap their waits exactly as they would on
//!   real hardware with independent requests in flight.
//!
//! Every decision is a pure function of `(seed, op kind, op index)`, so a
//! run under a given plan is exactly reproducible: same plan, same query,
//! same faults. With no plan attached the engine's behaviour and its
//! [`IoStats`](crate::IoStats) counters are bit-identical to a build
//! without this module — checksums are only maintained once
//! `attach_faults` is called.

use crate::error::StorageError;
use atis_graph::rng::splitmix64;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Pseudo-block number base for ISAM index levels, so fault events on
/// index probes are distinguishable from heap-block events in a
/// [`FaultState::log`].
pub const INDEX_BLOCK_BASE: usize = 1 << 32;

/// Deterministic Bernoulli draw for op `counter` on decision `stream`.
fn decide(seed: u64, stream: u64, counter: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let h = splitmix64(seed ^ splitmix64(stream.wrapping_mul(0x9e37_79b9) ^ counter));
    // Compare against p scaled to the full u64 range.
    (h as f64) < p * (u64::MAX as f64)
}

/// A reproducible fault schedule. All fields default to "never fire";
/// combine builder calls to mix fault kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Fail exactly the `n`th physical block read (1-based).
    pub fail_nth_read: Option<u64>,
    /// Fail exactly the `n`th physical block write (1-based).
    pub fail_nth_write: Option<u64>,
    /// Probability that any physical read fails transiently.
    pub read_failure_rate: f64,
    /// Probability that any physical write fails transiently.
    pub write_failure_rate: f64,
    /// `(block, p)`: every read of `block` fails with probability `p`.
    pub fail_block_reads: Option<(usize, f64)>,
    /// `(first, last, p)`: reads whose 1-based op index falls inside
    /// `first..=last` fail with probability `p` — an I/O *brownout* that
    /// begins and, crucially, **ends** at deterministic points in the op
    /// stream. Circuit-breaker tests rely on the ending: after `last` the
    /// device is healthy again and a breaker can observe recovery.
    pub read_failure_window: Option<(u64, u64, f64)>,
    /// Probability that a write is torn (stored corrupted, detected on the
    /// next read of the block).
    pub torn_write_rate: f64,
    /// Simulated device latency charged per physical block read,
    /// accumulated as debt and slept in [`STALL_QUANTUM`] chunks *after*
    /// releasing the shared fault lock, so concurrent readers overlap
    /// their stalls.
    pub read_latency: Duration,
}

impl FaultPlan {
    /// A plan that never fires (useful to prove injection plumbing is
    /// inert).
    pub fn inert(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fail_nth_read: None,
            fail_nth_write: None,
            read_failure_rate: 0.0,
            write_failure_rate: 0.0,
            fail_block_reads: None,
            read_failure_window: None,
            torn_write_rate: 0.0,
            read_latency: Duration::ZERO,
        }
    }

    /// A mixed chaos plan derived from `seed`: low-rate transient read and
    /// write failures, an occasional torn write, and one planned hard
    /// failure — the mixture the chaos sweep in `tests/fault_injection.rs`
    /// drives across many seeds.
    pub fn chaos(seed: u64) -> FaultPlan {
        let h = splitmix64(seed);
        FaultPlan {
            seed,
            // One planned hard failure somewhere in the first ~200 ops.
            fail_nth_read: Some(1 + h % 200),
            fail_nth_write: None,
            read_failure_rate: 0.002 * ((h >> 8) % 4) as f64,
            write_failure_rate: 0.002 * ((h >> 10) % 3) as f64,
            fail_block_reads: None,
            read_failure_window: None,
            torn_write_rate: 0.001 * ((h >> 12) % 3) as f64,
            read_latency: Duration::ZERO,
        }
    }

    /// Fails the `n`th physical read (1-based).
    pub fn with_fail_nth_read(mut self, n: u64) -> FaultPlan {
        self.fail_nth_read = Some(n);
        self
    }

    /// Fails the `n`th physical write (1-based).
    pub fn with_fail_nth_write(mut self, n: u64) -> FaultPlan {
        self.fail_nth_write = Some(n);
        self
    }

    /// Sets the transient read-failure probability.
    pub fn with_read_failure_rate(mut self, p: f64) -> FaultPlan {
        self.read_failure_rate = p;
        self
    }

    /// Sets the transient write-failure probability.
    pub fn with_write_failure_rate(mut self, p: f64) -> FaultPlan {
        self.write_failure_rate = p;
        self
    }

    /// Every read of `block` fails with probability `p`.
    pub fn with_fail_block_reads(mut self, block: usize, p: f64) -> FaultPlan {
        self.fail_block_reads = Some((block, p));
        self
    }

    /// Reads with 1-based op index in `first..=last` fail with
    /// probability `p` — a brownout with a deterministic end, after which
    /// the device behaves normally again.
    pub fn with_read_failure_window(mut self, first: u64, last: u64, p: f64) -> FaultPlan {
        self.read_failure_window = Some((first, last, p));
        self
    }

    /// Sets the torn-write probability.
    pub fn with_torn_write_rate(mut self, p: f64) -> FaultPlan {
        self.torn_write_rate = p;
        self
    }

    /// Stalls every physical block read by `latency` (a slow-disk model;
    /// results are unaffected, only wall-clock time). Per-read charges are
    /// accumulated and served in [`STALL_QUANTUM`] sleeps, so latencies far
    /// below the OS timer resolution still add up accurately.
    pub fn with_read_latency(mut self, latency: Duration) -> FaultPlan {
        self.read_latency = latency;
        self
    }

    /// Whether this plan can silently corrupt stored bytes. Heap files
    /// maintain (and verify) per-block checksums only when it can — the
    /// checksum work is pure overhead under plans that merely fail or
    /// stall reads.
    pub fn can_tear(&self) -> bool {
        self.torn_write_rate > 0.0
    }

    /// Wraps the plan in a fresh shared fault state.
    pub fn into_shared(self) -> SharedFaults {
        Arc::new(Mutex::new(FaultState::new(self)))
    }
}

/// What a consulted write should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Store the intended bytes.
    Clean,
    /// Store the intended bytes, then flip the byte at this block offset
    /// (the checksum still records the *intended* content, so the next
    /// read detects the tear).
    Torn(usize),
}

/// One injected fault, for post-mortem inspection in tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// `"read"` or `"write"`.
    pub op: &'static str,
    /// Block the op addressed (heap block, or `INDEX_BLOCK_BASE + level`
    /// for index probes).
    pub block: usize,
    /// 1-based index of the op within its counter stream.
    pub op_index: u64,
    /// Whether the op failed transiently (`IoFailed`) or tore silently.
    pub torn: bool,
}

/// How much read-latency debt accumulates before a thread actually
/// sleeps. Real per-block latencies (hundreds of nanoseconds to a few
/// microseconds for the simulated device) are far below what
/// `thread::sleep` can deliver per call, so the stall is served in
/// millisecond quanta: aggregate stall time is exact to within one
/// quantum, and concurrent readers still overlap their waits.
pub const STALL_QUANTUM: Duration = Duration::from_millis(1);

/// Mutable fault-injection state: the plan plus op counters, accumulated
/// read-latency debt, and a log of every fault that fired.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    reads: u64,
    writes: u64,
    stall_debt: Duration,
    /// Every fault that fired, in order.
    pub log: Vec<FaultEvent>,
}

/// A fault state shared by all relations of one database (`Arc<Mutex<…>>`
/// mirroring [`SharedBuffer`](crate::buffer::SharedBuffer)).
pub type SharedFaults = Arc<Mutex<FaultState>>;

/// Locks shared storage state: a [`SharedFaults`] or a
/// [`SharedBuffer`](crate::buffer::SharedBuffer).
#[expect(
    clippy::expect_used,
    reason = "a poisoned storage lock means its holder panicked mid-update, so the state it guards cannot be trusted"
)]
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("storage lock poisoned")
}

/// Consults fault state for an index probe of `levels` pseudo-blocks,
/// serving any planned device latency outside the lock.
pub(crate) fn consult_index_probe(
    faults: &Option<SharedFaults>,
    levels: u64,
) -> Result<(), StorageError> {
    if let Some(f) = faults {
        let debt = {
            let mut f = lock(f);
            for level in 0..levels {
                f.on_read(INDEX_BLOCK_BASE + level as usize)?;
            }
            f.take_stall()
        };
        stall(debt);
    }
    Ok(())
}

impl FaultState {
    /// Fresh state for a plan: counters at zero, empty log.
    pub fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            reads: 0,
            writes: 0,
            stall_debt: Duration::ZERO,
            log: Vec::new(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Physical reads consulted so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Physical writes consulted so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Consults the plan for a physical read of `block`.
    ///
    /// # Errors
    /// [`StorageError::IoFailed`] when the plan says this read fails.
    pub fn on_read(&mut self, block: usize) -> Result<(), StorageError> {
        self.reads += 1;
        self.stall_debt += self.plan.read_latency;
        let idx = self.reads;
        let planned = self.plan.fail_nth_read == Some(idx);
        let flaky_block = matches!(
            self.plan.fail_block_reads,
            Some((b, p)) if b == block && decide(self.plan.seed, 1, idx, p)
        );
        let transient = decide(self.plan.seed, 2, idx, self.plan.read_failure_rate);
        let brownout = matches!(
            self.plan.read_failure_window,
            Some((first, last, p)) if (first..=last).contains(&idx) && decide(self.plan.seed, 5, idx, p)
        );
        if planned || flaky_block || transient || brownout {
            self.log.push(FaultEvent {
                op: "read",
                block,
                op_index: idx,
                torn: false,
            });
            return Err(StorageError::IoFailed {
                op: "read",
                block,
                op_index: idx,
            });
        }
        Ok(())
    }

    /// Consults the plan for a physical write of `block`.
    ///
    /// # Errors
    /// [`StorageError::IoFailed`] when the plan says this write fails
    /// outright; `Ok(WriteMode::Torn(_))` when it should tear silently.
    pub fn on_write(&mut self, block: usize) -> Result<WriteMode, StorageError> {
        self.writes += 1;
        let idx = self.writes;
        if self.plan.fail_nth_write == Some(idx)
            || decide(self.plan.seed, 3, idx, self.plan.write_failure_rate)
        {
            self.log.push(FaultEvent {
                op: "write",
                block,
                op_index: idx,
                torn: false,
            });
            return Err(StorageError::IoFailed {
                op: "write",
                block,
                op_index: idx,
            });
        }
        if decide(self.plan.seed, 4, idx, self.plan.torn_write_rate) {
            self.log.push(FaultEvent {
                op: "write",
                block,
                op_index: idx,
                torn: true,
            });
            let offset =
                (splitmix64(self.plan.seed ^ idx) % crate::block::BLOCK_SIZE as u64) as usize;
            return Ok(WriteMode::Torn(offset));
        }
        Ok(WriteMode::Clean)
    }

    /// Drains the accumulated read-latency debt once it reaches
    /// [`STALL_QUANTUM`]. The caller sleeps the returned duration *after*
    /// releasing the lock; `Duration::ZERO` means the debt is still below
    /// the quantum and is carried forward.
    pub fn take_stall(&mut self) -> Duration {
        if self.stall_debt >= STALL_QUANTUM {
            std::mem::take(&mut self.stall_debt)
        } else {
            Duration::ZERO
        }
    }
}

/// Serves a stall drained by [`FaultState::take_stall`]. The storage
/// layer calls this *after* releasing the shared fault lock, so
/// concurrent readers sleep in parallel rather than queueing.
pub(crate) fn stall(debt: Duration) {
    if debt > Duration::ZERO {
        std::thread::sleep(debt);
    }
}

/// FNV-1a over a block's bytes — the per-block checksum heap files keep
/// while faults are attached.
pub(crate) fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let mut st = FaultState::new(FaultPlan::inert(7));
        for b in 0..1000 {
            st.on_read(b).unwrap();
            assert_eq!(st.on_write(b).unwrap(), WriteMode::Clean);
        }
        assert!(st.log.is_empty());
        assert_eq!(st.reads(), 1000);
        assert_eq!(st.writes(), 1000);
    }

    #[test]
    fn nth_read_fails_exactly_once() {
        let mut st = FaultState::new(FaultPlan::inert(1).with_fail_nth_read(3));
        st.on_read(0).unwrap();
        st.on_read(0).unwrap();
        let err = st.on_read(9).unwrap_err();
        assert_eq!(
            err,
            StorageError::IoFailed {
                op: "read",
                block: 9,
                op_index: 3
            }
        );
        st.on_read(9).unwrap();
        assert_eq!(st.log.len(), 1);
    }

    #[test]
    fn nth_write_fails_exactly_once() {
        let mut st = FaultState::new(FaultPlan::inert(1).with_fail_nth_write(2));
        st.on_write(0).unwrap();
        assert!(matches!(
            st.on_write(5),
            Err(StorageError::IoFailed { op: "write", .. })
        ));
        st.on_write(5).unwrap();
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let run = |seed| {
            let mut st = FaultState::new(FaultPlan::inert(seed).with_read_failure_rate(0.3));
            (0..200).map(|b| st.on_read(b).is_err()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ somewhere");
    }

    #[test]
    fn failure_rate_is_roughly_honoured() {
        let mut st = FaultState::new(FaultPlan::inert(9).with_read_failure_rate(0.25));
        let failures = (0..4000).filter(|&b| st.on_read(b).is_err()).count();
        assert!(
            (800..1200).contains(&failures),
            "{failures} failures out of 4000"
        );
    }

    #[test]
    fn flaky_block_only_affects_that_block() {
        let plan = FaultPlan::inert(3).with_fail_block_reads(7, 1.0);
        let mut st = FaultState::new(plan);
        st.on_read(6).unwrap();
        assert!(st.on_read(7).is_err());
        st.on_read(8).unwrap();
        assert!(st.on_read(7).is_err());
    }

    #[test]
    fn read_failure_window_starts_and_ends_deterministically() {
        let plan = FaultPlan::inert(17).with_read_failure_window(4, 6, 1.0);
        let mut st = FaultState::new(plan);
        for b in 0..3 {
            st.on_read(b).unwrap();
        }
        for b in 3..6 {
            assert!(
                st.on_read(b).is_err(),
                "read {} is inside the brownout",
                b + 1
            );
        }
        for b in 6..50 {
            st.on_read(b).unwrap();
        }
        assert_eq!(st.log.len(), 3, "only the windowed reads failed");
    }

    #[test]
    fn partial_rate_brownout_is_deterministic_and_bounded() {
        let run = |seed| {
            let mut st =
                FaultState::new(FaultPlan::inert(seed).with_read_failure_window(1, 400, 0.5));
            (0..600).map(|b| st.on_read(b).is_err()).collect::<Vec<_>>()
        };
        let a = run(23);
        assert_eq!(a, run(23));
        let failures = a.iter().filter(|&&f| f).count();
        assert!((120..280).contains(&failures), "{failures} of 400 at p=0.5");
        assert!(
            a.iter().skip(400).all(|&f| !f),
            "no failures after the window closes"
        );
    }

    #[test]
    fn torn_writes_report_an_offset_in_range() {
        let mut st = FaultState::new(FaultPlan::inert(5).with_torn_write_rate(1.0));
        match st.on_write(0).unwrap() {
            WriteMode::Torn(off) => assert!(off < crate::block::BLOCK_SIZE),
            WriteMode::Clean => panic!("torn rate 1.0 must tear"),
        }
        assert!(st.log[0].torn);
    }

    #[test]
    fn read_latency_defaults_to_zero_and_never_affects_decisions() {
        assert_eq!(FaultPlan::inert(1).read_latency, Duration::ZERO);
        assert_eq!(FaultPlan::chaos(1).read_latency, Duration::ZERO);
        let slow = FaultPlan::inert(1).with_read_latency(Duration::from_micros(250));
        assert_eq!(slow.read_latency, Duration::from_micros(250));
        // Latency is pure wall-clock: the decision stream is unchanged.
        let mut fast = FaultState::new(FaultPlan::inert(9).with_read_failure_rate(0.25));
        let mut slow = FaultState::new(
            FaultPlan::inert(9)
                .with_read_failure_rate(0.25)
                .with_read_latency(Duration::ZERO),
        );
        for b in 0..500 {
            assert_eq!(fast.on_read(b).is_err(), slow.on_read(b).is_err());
        }
    }

    #[test]
    fn stall_debt_accumulates_to_the_quantum_then_drains() {
        let latency = STALL_QUANTUM / 4;
        let mut st = FaultState::new(FaultPlan::inert(1).with_read_latency(latency));
        for _ in 0..3 {
            st.on_read(0).unwrap();
            assert_eq!(
                st.take_stall(),
                Duration::ZERO,
                "debt below the quantum is carried"
            );
        }
        st.on_read(0).unwrap();
        assert_eq!(
            st.take_stall(),
            STALL_QUANTUM,
            "the fourth charge reaches the quantum"
        );
        assert_eq!(st.take_stall(), Duration::ZERO, "draining resets the debt");
        // Zero-latency plans never accumulate anything.
        let mut inert = FaultState::new(FaultPlan::inert(1));
        for b in 0..100 {
            inert.on_read(b).unwrap();
        }
        assert_eq!(inert.take_stall(), Duration::ZERO);
    }

    #[test]
    fn chaos_plans_differ_by_seed_but_are_stable() {
        assert_eq!(FaultPlan::chaos(11), FaultPlan::chaos(11));
        assert_ne!(
            FaultPlan::chaos(11).fail_nth_read,
            FaultPlan::chaos(12).fail_nth_read
        );
    }

    #[test]
    fn checksum_detects_single_byte_flips() {
        let mut bytes = vec![0u8; 4096];
        bytes[100] = 7;
        let sum = checksum(&bytes);
        bytes[2000] ^= 0x5a;
        assert_ne!(checksum(&bytes), sum);
    }
}

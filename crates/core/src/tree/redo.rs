//! Redo: the one repeat-history path. Primary recovery, replica reopen,
//! and replica apply all read the physical redo log through this module:
//!
//! * [`find_cut`] picks the replay range — the *base* (the newest
//!   checkpoint) and the *cut* (the newest fence replay may reach; a
//!   *fence* is a `Commit`, `Prepare`, or `Checkpoint` record) — with the
//!   tree metadata at the cut, the surviving two-phase prepares, and the
//!   coordinator decisions.
//! * [`fence_state`] derives the metadata of a commit that elided it.
//! * [`PageOverlay`] repeats each page's image/delta history.
//! * [`TsbTree::assemble`] builds the tree over the replayed stores, and
//!   [`open_stores`] opens a durable directory's three files.
//!
//! The protocol ("repeating history", then discarding the un-fenced tail):
//!
//! 1. **Base.** Replay starts after the newest `Checkpoint` record — the
//!    magnetic device is known to equal that state. A log with commits but
//!    no checkpoint replays from the empty store the first session started
//!    with.
//! 2. **Cut.** The replay target is the newest fence such that every fence
//!    up to it has its WORM history intact (`worm_len` within the
//!    surviving WORM file). Records after the cut belong to a mutation that
//!    never finished logging; its page records are discarded and any WORM
//!    sectors it burned are dead space (write-once media cannot be
//!    un-burned — §1).
//! 3. **Repeat history.** Each page's newest logged image between base and
//!    cut is rebuilt with its later deltas applied in LSN order, and
//!    installed into the magnetic store ([`MagneticStore::restore`]
//!    force-allocates pages the on-disk superblock predates). This
//!    overwrites any torn or half-flushed device state — correctness does
//!    not depend on *which* writes happened to reach the device before the
//!    crash. Deltas never read the device: the first-touch rule puts an
//!    in-log image before every delta of its page within a generation.
//! 4. **Metadata.** The root pointer, logical clock, and transaction
//!    counter come from the cut's metadata, not from the (possibly stale)
//!    on-device metadata page.
//! 5. **Implicit abort.** Uncommitted versions that made it into replayed
//!    pages are erased — in-flight writer transactions died with the
//!    process, exactly the erasure §4 makes possible on the erasable store.
//! 6. **Reclaim.** The magnetic free list is rebuilt from reachability: any
//!    allocated page the recovered root cannot reach is freed. The log has
//!    no record kind for page frees, so replay can only ever allocate —
//!    without this step a page freed since the checkpoint would come back
//!    allocated-but-unreachable and stay leaked across every later session.
//! 7. **Verify, then fence.** The rebuilt tree must pass
//!    [`TsbTree::verify`] before serving, and a fresh checkpoint fences the
//!    next recovery.
//!
//! A recovered primary answers every query exactly as the oracle's replay
//! of the committed prefix up to [`TsbTree::last_durable_commit`].
//!
//! [`RedoPolicy`] carries the differences between a primary reopening its
//! own log and a replica reopening (or applying) its copy of a primary's:
//! torn history cuts a primary's replay but is corruption on a replica; a
//! primary accepts two-phase prepares, a replica rejects them; a primary
//! purges uncommitted versions and re-fences (steps 5 and 7), a replica
//! keeps them and hands back its un-fenced tail.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{
    Key, LogicalClock, Timestamp, TsState, TsbConfig, TsbError, TsbResult, TxnId, Version,
};
use tsb_storage::{
    IoStats, Lsn, MagneticStore, PageId, PageOp, Wal, WalRecord, WalScan, WormStore,
};

use super::TsbTree;
use crate::node::{DataNode, IndexEntry, IndexNode, Node, NodeAddr};
use crate::txn::TxnTable;

/// The files of a durable directory.
pub(crate) const MAGNETIC_FILE: &str = "current.pages";
pub(crate) const WORM_FILE: &str = "history.worm";
pub(crate) const WAL_FILE: &str = "redo.wal";

/// The two devices a tree lives on: the erasable magnetic store holding
/// the current database and the write-once store holding history.
pub(crate) struct Stores {
    pub(crate) magnetic: Arc<MagneticStore>,
    pub(crate) worm: Arc<WormStore>,
}

/// Opens (creating as needed) the three files of durable directory `dir`
/// over one I/O statistics block: the two stores, and the redo log with
/// its replay scan.
pub(crate) fn open_stores(dir: &Path, cfg: &TsbConfig) -> TsbResult<(Stores, Wal, WalScan)> {
    cfg.validate()?;
    std::fs::create_dir_all(dir)?;
    let stats = Arc::new(IoStats::new());
    let (wal, scan) = Wal::open(dir.join(WAL_FILE), cfg.fsync_policy, Arc::clone(&stats))?;
    let magnetic = Arc::new(MagneticStore::open_file(
        dir.join(MAGNETIC_FILE),
        cfg.page_size,
        Arc::clone(&stats),
    )?);
    let worm = Arc::new(WormStore::open_file(
        dir.join(WORM_FILE),
        cfg.worm_sector_size,
        stats,
    )?);
    Ok((Stores { magnetic, worm }, wal, scan))
}

/// Deletes whichever of durable directory `dir`'s three files exist.
pub(crate) fn remove_stores(dir: &Path) -> TsbResult<()> {
    for file in [MAGNETIC_FILE, WORM_FILE, WAL_FILE] {
        match std::fs::remove_file(dir.join(file)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
    }
    Ok(())
}

/// Who repeats history. Chosen by the caller, never configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RedoPolicy {
    /// A primary reopening its own log after a crash or a clean shutdown.
    Primary,
    /// A replica reopening, or applying to, its byte-faithful copy of a
    /// primary's log (shipped record bodies, primary LSNs preserved).
    Replica,
}

impl RedoPolicy {
    /// Refuses a record this policy cannot replay: a replica rejects
    /// two-phase-commit records, because replication ships a single
    /// shard's log and a sharded primary would have to be subscribed to
    /// per shard (unsupported in this version).
    pub(crate) fn admit(self, record: &WalRecord) -> TsbResult<()> {
        match (self, record) {
            (RedoPolicy::Replica, WalRecord::Prepare { .. } | WalRecord::Decision { .. }) => {
                Err(TsbError::config(
                    "replica log holds two-phase-commit records; replicating a \
                     sharded primary is not supported",
                ))
            }
            _ => Ok(()),
        }
    }
}

/// A fence's tree metadata: `(root, clock-next, next txn id)`.
pub(crate) type FenceState = (NodeAddr, Timestamp, u64);

/// Whether `record` is a fence — a record replay may stop at.
pub(crate) fn is_fence(record: &WalRecord) -> bool {
    matches!(
        record,
        WalRecord::Commit { .. } | WalRecord::Prepare { .. } | WalRecord::Checkpoint { .. }
    )
}

/// The metadata of the commit fence at `ts` whose payload is `meta`. An
/// empty payload was elided by the writer because the state was
/// predictable from the previous fence `prev`: same root, same transaction
/// counter, and the clock one past the commit timestamp.
pub(crate) fn fence_state(
    prev: Option<FenceState>,
    ts: Timestamp,
    meta: &[u8],
) -> TsbResult<FenceState> {
    if !meta.is_empty() {
        return TsbTree::decode_meta(meta);
    }
    let (root, _, next_txn) = prev.ok_or_else(|| {
        TsbError::corruption("WAL commit with elided metadata has no prior fence to inherit from")
    })?;
    Ok((root, ts.next(), next_txn))
}

/// A two-phase-commit prepare that survived recovery's replay with its
/// transaction still unstamped: the writes exist in the tree as
/// uncommitted versions, and only the coordinator shard's decision record
/// says whether they commit at `ts` or roll back (presumed abort).
#[derive(Clone, Debug)]
pub(crate) struct InDoubtTxn {
    /// The global commit timestamp reserved for the transaction.
    pub(crate) ts: Timestamp,
    /// The participant-local transaction id whose writes are prepared.
    pub(crate) txn: TxnId,
    /// Shard index of the coordinator (where the decision was logged).
    pub(crate) coordinator: u32,
}

/// The replay range [`find_cut`] chose, and what the log says at its end.
pub(crate) struct Cut {
    /// Index of the newest checkpoint record, if any: replay starts after it.
    pub(crate) base: Option<usize>,
    /// Index of the cut fence: replay runs through it.
    pub(crate) index: usize,
    /// LSN of the cut fence.
    pub(crate) lsn: Lsn,
    /// Timestamp of the newest commit after the base, up to the cut. A
    /// prepare does not advance it: its transaction may yet abort.
    pub(crate) ts: Option<Timestamp>,
    /// The tree metadata at the cut.
    pub(crate) state: FenceState,
    /// Two-phase prepares after the base, up to the cut, in log order.
    pub(crate) prepares: Vec<InDoubtTxn>,
    /// Commit timestamps of every intact decision record in the log. Any
    /// is honorable, even past the cut: a coordinator logs its decision
    /// only after every participant's prepare is durable.
    pub(crate) decisions: HashSet<u64>,
}

/// Finds the cut of `scan` over a WORM device `worm_len` bytes long: the
/// newest fence such that it and every fence after the base reference
/// surviving history. A fence past the device cuts a primary's replay
/// before it — its mutation never finished making history durable — but is
/// corruption on a replica, whose apply protocol syncs the shipped history
/// before logging the fence that references it.
pub(crate) fn find_cut(scan: &WalScan, worm_len: u64, policy: RedoPolicy) -> TsbResult<Cut> {
    let records = &scan.records;
    let mut decisions = HashSet::new();
    for (_, record) in records {
        policy.admit(record)?;
        if let WalRecord::Decision { ts, .. } = record {
            decisions.insert(*ts);
        }
    }
    let base = records
        .iter()
        .rposition(|(_, r)| matches!(r, WalRecord::Checkpoint { .. }));
    let mut cut: Option<(usize, Lsn, FenceState)> = None;
    let mut cut_ts = None;
    let mut prepares = Vec::new();
    for (idx, (lsn, record)) in records.iter().enumerate().skip(base.unwrap_or(0)) {
        let state = match record {
            WalRecord::Checkpoint { meta, .. } => TsbTree::decode_meta(meta)?,
            WalRecord::Commit { worm_len: need, .. }
            | WalRecord::Prepare { worm_len: need, .. }
                if *need > worm_len =>
            {
                match policy {
                    RedoPolicy::Primary => break,
                    RedoPolicy::Replica => {
                        return Err(TsbError::corruption(format!(
                            "replica log fence at lsn {lsn} references {need} WORM bytes \
                             but the device holds {worm_len}; the apply protocol syncs \
                             history before logging its fence"
                        )))
                    }
                }
            }
            WalRecord::Commit { ts, meta, .. } => {
                cut_ts = Some(Timestamp(*ts));
                fence_state(cut.map(|(_, _, state)| state), Timestamp(*ts), meta)?
            }
            WalRecord::Prepare {
                ts,
                meta,
                txn,
                coordinator,
                ..
            } => {
                prepares.push(InDoubtTxn {
                    ts: Timestamp(*ts),
                    txn: TxnId(*txn),
                    coordinator: *coordinator,
                });
                TsbTree::decode_meta(meta)?
            }
            _ => continue,
        };
        cut = Some((idx, *lsn, state));
    }
    let (index, lsn, state) = cut.ok_or_else(|| {
        TsbError::corruption(
            "write-ahead log has no usable fence (no checkpoint, and no commit \
             whose WORM history survived); nothing was ever durable",
        )
    })?;
    Ok(Cut {
        base,
        index,
        lsn,
        ts: cut_ts,
        state,
        prepares,
        decisions,
    })
}

/// A page being rebuilt by replay: the newest logged image, decoded
/// lazily — only when a delta actually has to be applied, so pages whose
/// last record is an image (structural rewrites, ImagesOnly mode) are
/// restored without a decode/encode round trip.
#[derive(Clone)]
pub(crate) enum ReplayPage {
    /// The image bytes as logged; no delta has touched them yet.
    Raw(Vec<u8>),
    /// The decoded node with at least one delta applied.
    Decoded(Node),
}

impl ReplayPage {
    /// Re-applies one logged delta, decoding the base image on first use.
    ///
    /// Content ops replay as slot assignments; structural ops re-run the
    /// same pure partition functions the forward split path ran, against
    /// the identical node state the log has rebuilt, so they land on the
    /// identical outcome.
    pub(crate) fn apply(&mut self, op: &PageOp) -> TsbResult<()> {
        if let ReplayPage::Raw(bytes) = self {
            *self = ReplayPage::Decoded(Node::decode(bytes)?);
        }
        let ReplayPage::Decoded(node) = self else {
            unreachable!("Raw was just decoded");
        };
        fn data_op(node: &mut Node) -> TsbResult<&mut DataNode> {
            match node {
                Node::Data(data) => Ok(data),
                Node::Index(_) => Err(TsbError::corruption("WAL data delta targets an index node")),
            }
        }
        fn index_op(node: &mut Node) -> TsbResult<&mut IndexNode> {
            match node {
                Node::Index(index) => Ok(index),
                Node::Data(_) => Err(TsbError::corruption("WAL index delta targets a data node")),
            }
        }
        match op {
            PageOp::InsertVersion(version) => data_op(node)?.insert(version.clone()),
            PageOp::RemoveUncommitted { key, txn } => {
                data_op(node)?.remove_uncommitted(key, *txn);
                Ok(())
            }
            PageOp::DataTimeSplit { split_time } => {
                let data = data_op(node)?;
                let parts = crate::split::partition_by_time(data.entries(), *split_time);
                *data = DataNode::from_entries(
                    data.key_range.clone(),
                    tsb_common::TimeRange::new(*split_time, data.time_range.hi),
                    parts.current,
                );
                Ok(())
            }
            PageOp::DataKeySplit {
                split_key,
                keep_low,
            } => {
                let data = data_op(node)?;
                let (left, right) = crate::split::partition_by_key(data.entries(), split_key);
                let (left_range, right_range) =
                    data.key_range.split_at(split_key).ok_or_else(|| {
                        TsbError::corruption("WAL key-split delta outside the node key range")
                    })?;
                *data = if *keep_low {
                    DataNode::from_entries(left_range, data.time_range, left)
                } else {
                    DataNode::from_entries(right_range, data.time_range, right)
                };
                Ok(())
            }
            PageOp::IndexTimeSplit { split_time } => {
                let index = index_op(node)?;
                let parts = crate::split::partition_index_by_time(index.entries(), *split_time);
                *index = IndexNode::from_entries(
                    index.key_range.clone(),
                    tsb_common::TimeRange::new(*split_time, index.time_range.hi),
                    parts.current,
                );
                Ok(())
            }
            PageOp::IndexKeySplit {
                split_key,
                keep_low,
            } => {
                let index = index_op(node)?;
                let parts = crate::split::partition_index_by_key(index.entries(), split_key);
                let (left_range, right_range) =
                    index.key_range.split_at(split_key).ok_or_else(|| {
                        TsbError::corruption("WAL index key-split delta outside the node key range")
                    })?;
                *index = if *keep_low {
                    IndexNode::from_entries(left_range, index.time_range, parts.left)
                } else {
                    IndexNode::from_entries(right_range, index.time_range, parts.right)
                };
                Ok(())
            }
            PageOp::IndexReplaceChild { payload } => {
                let index = index_op(node)?;
                let (old_child, replacements) = decode_replace_child(payload)?;
                index.replace_child(&old_child, replacements)
            }
        }
    }

    /// The page's final image for [`MagneticStore::restore`].
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        match self {
            ReplayPage::Raw(bytes) => bytes,
            ReplayPage::Decoded(node) => node.encode(),
        }
    }
}

/// Encodes the payload of a [`PageOp::IndexReplaceChild`] delta: the old
/// child address followed by the replacement entries. Opaque to
/// `tsb-storage` (like `Commit.meta`); only this module and
/// [`decode_replace_child`] know the layout.
pub(crate) fn encode_replace_child(old_child: &NodeAddr, replacements: &[IndexEntry]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    old_child.encode(&mut w);
    w.put_u32(replacements.len() as u32);
    for entry in replacements {
        entry.encode(&mut w);
    }
    w.into_vec()
}

fn decode_replace_child(payload: &[u8]) -> TsbResult<(NodeAddr, Vec<IndexEntry>)> {
    let mut r = ByteReader::new(payload);
    let old_child = NodeAddr::decode(&mut r)?;
    let count = r.get_u32()? as usize;
    let mut replacements = Vec::with_capacity(count);
    for _ in 0..count {
        replacements.push(IndexEntry::decode(&mut r)?);
    }
    Ok((old_child, replacements))
}

/// Pages being rebuilt by repeating their logged history: per page, the
/// newest image with every later delta applied in log order. Recovery
/// replays base-to-cut through one; a replica stages shipped records in one
/// between commit fences.
#[derive(Default)]
pub(crate) struct PageOverlay {
    pages: HashMap<PageId, ReplayPage>,
}

impl PageOverlay {
    /// Repeats one record: an image replaces its page's state, a delta
    /// applies to it. A delta for a page the overlay does not hold applies
    /// to `base(page)` instead; `None` there means the first-touch rule —
    /// every delta's image precedes it in its log generation — was
    /// violated. Records without page content are skipped.
    pub(crate) fn stage(
        &mut self,
        record: WalRecord,
        base: impl FnOnce(PageId) -> TsbResult<Option<ReplayPage>>,
    ) -> TsbResult<()> {
        match record {
            WalRecord::PageImage { page, bytes } => {
                self.pages.insert(page, ReplayPage::Raw(bytes));
            }
            WalRecord::PageDelta { page, op } => {
                let state = match self.pages.entry(page) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(base(page)?.ok_or_else(|| {
                        TsbError::corruption(format!(
                            "WAL delta for page {page} precedes the page's image \
                             in this log generation (first-touch rule violated)"
                        ))
                    })?),
                };
                state.apply(&op)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// The rebuilt pages, in no particular order.
    pub(crate) fn into_pages(self) -> impl Iterator<Item = (PageId, ReplayPage)> {
        self.pages.into_iter()
    }
}

/// A recovered (or freshly created) durable tree whose in-doubt two-phase
/// prepares have not yet been resolved, and whose final
/// purge/reclaim/verify/checkpoint pass has not yet run.
///
/// Produced by [`TsbTree::open_durable_staged`]. The caller opens every
/// shard staged, decides every shard's prepares at once with [`resolve`],
/// and only then calls [`Self::finish`] on each — so a crash mid-2PC never
/// commits a cross-shard transaction partially.
pub(crate) struct StagedRecovery {
    tree: TsbTree,
    /// Prepares awaiting a commit/abort decision, in log order.
    in_doubt: Vec<InDoubtTxn>,
    /// Commit timestamps of every intact decision record in this tree's
    /// own log (it was a coordinator for those transactions).
    decisions: HashSet<u64>,
    /// Whether the deferred recovery tail (purge, reclaim, verify,
    /// checkpoint) must run in [`Self::finish`]; `false` for trees that
    /// were freshly created rather than recovered.
    needs_finish: bool,
}

impl StagedRecovery {
    /// Runs the deferred recovery tail — purge of uncommitted versions,
    /// free-list reclamation, verification, and the fencing checkpoint —
    /// and returns the serving-ready tree. Every in-doubt prepare must
    /// have been decided first: the purge erases whatever was not rolled
    /// forward.
    pub(crate) fn finish(self) -> TsbResult<TsbTree> {
        if self.needs_finish {
            self.tree.finish_redo(RedoPolicy::Primary)?;
        }
        Ok(self.tree)
    }
}

/// Decides every in-doubt prepare of `staged` — one recovery per shard, in
/// shard order — against its coordinator's decision records: a decision
/// present rolls the prepare forward (stamps its writes at the reserved
/// timestamp and fences the stamping with a commit record); absent, it is
/// presumed aborted, and [`StagedRecovery::finish`]'s purge erases it. A
/// lone recovery — a flat directory, or one shard's directory opened
/// standalone — is its own coordinator.
pub(crate) fn resolve(staged: &mut [StagedRecovery]) -> TsbResult<()> {
    let mut commits = Vec::new();
    for (i, shard) in staged.iter().enumerate() {
        for p in &shard.in_doubt {
            let coordinator = if staged.len() == 1 {
                0
            } else {
                p.coordinator as usize
            };
            if staged
                .get(coordinator)
                .is_some_and(|c| c.decisions.contains(&p.ts.value()))
            {
                commits.push((i, p.txn, p.ts));
            }
        }
    }
    for (i, txn, ts) in commits {
        let shard = &mut staged[i];
        shard.tree.resolve_in_doubt_commit(txn, ts)?;
        shard.tree.recovered_to = Some(shard.tree.recovered_to.map_or(ts, |r| r.max(ts)));
    }
    Ok(())
}

/// A replication replica's crash-consistent reopen, produced by
/// [`TsbTree::open_durable_replica`]: the tree at the cut fence, and
/// everything the apply overlay needs to resume the stream.
pub(crate) struct ReplicaRecovery {
    /// The recovered tree, serving-ready at the cut fence.
    pub(crate) tree: TsbTree,
    /// LSN of the cut fence record — the applied watermark at reopen.
    pub(crate) applied_lsn: Lsn,
    /// LSN of the newest record in the local log (≥ `applied_lsn`): the
    /// resume cursor for the subscription to the primary.
    pub(crate) last_lsn: Lsn,
    /// Records after the cut fence, in LSN order — shipped but not yet
    /// fenced; they re-seed the apply overlay's staging area.
    pub(crate) tail: Vec<WalRecord>,
    /// The cut fence's metadata, seeding the metadata-elision chain for
    /// subsequently shipped commits.
    pub(crate) cut_state: FenceState,
}

impl TsbTree {
    /// Opens (or creates) a durable tree at directory `dir` and resolves
    /// its prepares against its own log — the single-log front door behind
    /// `TsbOptions::durable(dir)`.
    pub(crate) fn open_dir(dir: &Path, cfg: TsbConfig) -> TsbResult<TsbTree> {
        let mut staged = [Self::open_durable_staged(
            dir,
            cfg,
            Arc::new(LogicalClock::new()),
        )?];
        resolve(&mut staged)?;
        let [staged] = staged;
        staged.finish()
    }

    /// Opens (or creates) a durable tree at directory `dir`, holding the
    /// magnetic store (`current.pages`), the WORM store (`history.worm`),
    /// and the redo log (`redo.wal`), up to — but not including — the
    /// resolution of in-doubt prepares and the recovery tail (see
    /// [`StagedRecovery`]). `clock` is advanced to (never reset below) the
    /// recovered clock value, so sharing one clock across shards re-derives
    /// the global clock as the max across all of them.
    ///
    /// * A directory with a fence runs crash-consistent recovery (see the
    ///   [module docs](self)) — the same path whether the last session shut
    ///   down cleanly (the log's tail is a checkpoint; replay is empty) or
    ///   died mid-write.
    /// * A directory where *nothing* was ever durably committed (a fresh
    ///   directory, or a crash inside the very first create before its
    ///   checkpoint fence) is recreated; no acknowledged state can be lost
    ///   because none ever existed. A directory that holds *real store
    ///   data* but no usable log — a pre-WAL database, or a lost/deleted
    ///   `redo.wal` — is a hard error instead: recreating it would destroy
    ///   data this method cannot prove disposable.
    pub(crate) fn open_durable_staged(
        dir: &Path,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<StagedRecovery> {
        let (stores, wal, scan) = open_stores(dir, &cfg)?;
        if scan.records.iter().any(|(_, r)| is_fence(r)) {
            let (tree, cut, _) = Self::redo(stores, wal, scan, cfg, clock, RedoPolicy::Primary)?;
            // In-doubt = a surviving prepare whose transaction is still
            // unstamped in the replayed tree. A prepare whose transaction
            // was later committed (a commit record at or before the cut
            // stamped it) or aborted leaves no uncommitted versions.
            let mut in_doubt = cut.prepares;
            if !in_doubt.is_empty() {
                let unstamped = tree.collect_uncommitted_txns()?;
                in_doubt.retain(|p| unstamped.contains(&p.txn));
            }
            return Ok(StagedRecovery {
                tree,
                in_doubt,
                decisions: cut.decisions,
                needs_finish: true,
            });
        }
        // No fence: nothing was ever durably committed through this log.
        // Starting fresh is safe when the stores hold no data of their own,
        // or when every byte in them provably came from an unfinished first
        // create: a non-empty, fence-less log can only be the first
        // create's page images (every completed create or mutation appends
        // a fence, and a torn tail that ate *every* fence must lie at or
        // before the first one).
        let stores_empty =
            stores.magnetic.allocated_pages() == 0 && stores.worm.device_bytes() == 0;
        let (stores, wal) = match (scan.records.is_empty(), stores_empty) {
            (true, true) => (stores, wal),
            (false, _) => {
                drop((stores, wal));
                remove_stores(dir)?;
                let (stores, wal, _) = open_stores(dir, &cfg)?;
                (stores, wal)
            }
            // Real store data, empty log: a pre-WAL database or a lost
            // redo.wal. Refuse rather than guess.
            (true, false) => {
                return Err(TsbError::corruption(format!(
                    "directory {} holds store data but its write-ahead log has no usable \
                     fence; refusing to recreate (use TsbTree::open for a non-durable \
                     reopen, or restore the missing redo.wal)",
                    dir.display()
                )))
            }
        };
        let tree = Self::create_with(stores.magnetic, stores.worm, cfg, Some(wal), clock)?;
        Ok(StagedRecovery {
            tree,
            in_doubt: Vec::new(),
            decisions: HashSet::new(),
            needs_finish: false,
        })
    }

    /// Reopens a replication replica's local state at directory `dir`, or
    /// returns `None` when the directory holds nothing usable (fresh, or a
    /// base install that never finished — the caller wipes and re-fetches
    /// the base). Recovery under [`RedoPolicy::Replica`]: the uncommitted
    /// versions at the cut stay (their transactions are still live on the
    /// primary), no record of its own is appended, and the un-fenced tail
    /// comes back for the apply overlay.
    pub(crate) fn open_durable_replica(
        dir: &Path,
        cfg: TsbConfig,
    ) -> TsbResult<Option<ReplicaRecovery>> {
        if !dir.join(WAL_FILE).exists() {
            return Ok(None);
        }
        let (stores, wal, scan) = open_stores(dir, &cfg)?;
        // A shipped log always starts at a fence (the base image's
        // checkpoint); no fence means the install never completed.
        if !scan.records.iter().any(|(_, r)| is_fence(r)) {
            return Ok(None);
        }
        let last_lsn = wal.last_lsn();
        let clock = Arc::new(LogicalClock::new());
        let (tree, cut, tail) = Self::redo(stores, wal, scan, cfg, clock, RedoPolicy::Replica)?;
        tree.finish_redo(RedoPolicy::Replica)?;
        Ok(Some(ReplicaRecovery {
            tree,
            applied_lsn: cut.lsn,
            last_lsn,
            tail,
            cut_state: cut.state,
        }))
    }

    /// Repeats history from the base through the cut [`find_cut`] chooses
    /// under `policy`, and assembles the tree at the cut (steps 1–4 of the
    /// [module docs](self)), stamping from `clock` advanced to the cut's
    /// clock. Returns the tree, the cut, and the records after it.
    fn redo(
        stores: Stores,
        wal: Wal,
        scan: WalScan,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
        policy: RedoPolicy,
    ) -> TsbResult<(TsbTree, Cut, Vec<WalRecord>)> {
        let worm_len = stores.worm.device_bytes();
        let cut = find_cut(&scan, worm_len, policy)?;
        let mut records = scan.records;
        let tail = records.split_off(cut.index + 1);
        let mut overlay = PageOverlay::default();
        for (_, record) in records.drain(cut.base.map_or(0, |b| b + 1)..) {
            // No delta base: replay never reads the (possibly torn,
            // possibly never-written) device page.
            overlay.stage(record, |_| Ok(None))?;
        }
        for (page, state) in overlay.into_pages() {
            stores.magnetic.restore(page, &state.into_bytes())?;
        }
        let (root, clock_next, next_txn) = cut.state;
        clock.advance_to(clock_next);
        let recovered_to = cut.ts.unwrap_or_else(|| clock_next.prev());
        let tree = Self::assemble(
            stores,
            cfg,
            clock,
            root,
            next_txn,
            Some(wal),
            Some(recovered_to),
        )?;
        // The WORM bytes the cut references survived, so they are as
        // stable as they will ever be.
        if let Some(d) = &tree.durability {
            d.worm_synced.store(worm_len, Ordering::Release);
        }
        tree.write_meta()?;
        Ok((tree, cut, tail.into_iter().map(|(_, r)| r).collect()))
    }

    /// The tail of redo, once any prepares are decided (steps 5–7 of the
    /// [module docs](self)).
    fn finish_redo(&self, policy: RedoPolicy) -> TsbResult<()> {
        // A primary's in-flight transactions died with the process. A
        // replica's belong to transactions still in flight on the primary,
        // which later shipped records will stamp or erase.
        if policy == RedoPolicy::Primary {
            self.purge_uncommitted()?;
        }
        self.reclaim_unreachable_pages()?;
        self.verify()?;
        // A replica's log is a pure copy of the primary's: a locally minted
        // checkpoint would collide with the primary's LSN namespace.
        if policy == RedoPolicy::Primary {
            self.flush_shared()?;
        }
        Ok(())
    }

    /// Visits every current node reachable from the root once, handing
    /// `f` its page and node (historical children live on the WORM and are
    /// skipped; uncommitted versions never migrate there). Returns the
    /// pages visited.
    fn visit_current(
        &self,
        mut f: impl FnMut(PageId, &Node) -> TsbResult<()>,
    ) -> TsbResult<HashSet<PageId>> {
        let mut seen = HashSet::new();
        let mut stack = vec![self.current_root()];
        while let Some(addr) = stack.pop() {
            let Some(page) = addr.as_page() else {
                continue;
            };
            if !seen.insert(page) {
                continue;
            }
            let node = self.read_node(addr)?;
            if let Node::Index(index) = &*node {
                stack.extend(index.entries().iter().map(|e| e.child));
            }
            f(page, &node)?;
        }
        Ok(seen)
    }

    /// The transaction ids of every surviving uncommitted version (used by
    /// staged recovery to tell in-doubt prepares from already-resolved
    /// ones).
    fn collect_uncommitted_txns(&self) -> TsbResult<HashSet<TxnId>> {
        let mut out = HashSet::new();
        self.visit_current(|_, node| {
            if let Node::Data(data) = node {
                out.extend(data.entries().iter().filter_map(|v| v.state.txn_id()));
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Stamps every surviving uncommitted version of `txn` as committed at
    /// `ts` and fences the stamping with a commit record — recovery's
    /// roll-forward of an in-doubt two-phase-commit prepare whose
    /// coordinator decided commit. Mirrors the stamping loop of
    /// `commit_txn_shared`, but driven by a tree walk (the transaction
    /// table's write set died with the process).
    fn resolve_in_doubt_commit(&self, txn: TxnId, ts: Timestamp) -> TsbResult<()> {
        self.clock.advance_to(ts.next());
        self.visit_current(|page, node| {
            let Node::Data(data) = node else {
                return Ok(());
            };
            let keys: Vec<Key> = data
                .entries()
                .iter()
                .filter(|v| v.state.txn_id() == Some(txn))
                .map(|v| v.key.clone())
                .collect();
            if keys.is_empty() {
                return Ok(());
            }
            let mut leaf = DataNode::clone(data);
            for key in keys {
                let pending = leaf.remove_uncommitted(&key, txn).ok_or_else(|| {
                    TsbError::internal(format!(
                        "in-doubt transaction {txn} lost its uncommitted version of key {key}"
                    ))
                })?;
                leaf.insert(Version {
                    key: pending.key,
                    state: TsState::Committed(ts),
                    value: pending.value,
                })?;
            }
            self.write_current(page, Node::Data(leaf))
        })?;
        self.wal_commit(ts)?;
        // Recovery has no ack pipeline; the deferred wait (if the policy
        // produced one) is settled by the checkpoint in `finish`.
        let _ = self.take_pending_durable_wait();
        Ok(())
    }

    /// Erases every uncommitted version: recovery's implicit abort of
    /// in-flight transactions.
    fn purge_uncommitted(&self) -> TsbResult<()> {
        self.visit_current(|page, node| match node {
            Node::Data(data) if data.entries().iter().any(|v| v.state.is_uncommitted()) => {
                let committed: Vec<_> = data
                    .entries()
                    .iter()
                    .filter(|v| !v.state.is_uncommitted())
                    .cloned()
                    .collect();
                let cleaned =
                    DataNode::from_entries(data.key_range.clone(), data.time_range, committed);
                self.write_current(page, Node::Data(cleaned))
            }
            _ => Ok(()),
        })?;
        Ok(())
    }

    /// Rebuilds the magnetic free list from reachability: frees every
    /// allocated page that is neither the metadata page nor reachable from
    /// the recovered root. The redo log has no record kind for page frees,
    /// so replay can only ever *allocate* ([`MagneticStore::restore`] even
    /// pulls replayed pages off the on-disk free list): a page freed since
    /// the last checkpoint would come back allocated-but-unreachable after
    /// recovery and stay leaked across every later session — which
    /// [`Self::verify`] treats as a hard error, turning a space leak into
    /// an unrecoverable store. Deriving the free list from the recovered
    /// tree closes that gap for any free site, present or future, without
    /// a `PageFree` record.
    fn reclaim_unreachable_pages(&self) -> TsbResult<()> {
        let mut reachable = self.visit_current(|_, _| Ok(()))?;
        reachable.insert(self.meta_page);
        for page in self.magnetic.allocated_page_ids() {
            if !reachable.contains(&page) {
                self.cache.discard(NodeAddr::Current(page));
                self.pool.discard(page);
                self.magnetic.free(page)?;
            }
        }
        Ok(())
    }

    // ----- replica apply ----------------------------------------------------

    /// Installs a shipped page image onto the replica's magnetic device and
    /// invalidates every cached copy. Order matters against concurrent
    /// readers: device first, then the buffer-pool frame, then the node
    /// cache — a racing fill that decoded stale bytes began before the
    /// cache discard bumped the shard stamp, so `complete_fill` refuses to
    /// install it. Caller must hold the writer lock with the structure
    /// epoch marked in flight.
    pub(crate) fn replica_install_page(&self, page: PageId, bytes: &[u8]) -> TsbResult<()> {
        self.magnetic.restore(page, bytes)?;
        self.pool.discard(page);
        self.cache.discard(NodeAddr::Current(page));
        Ok(())
    }

    /// Installs a shipped fence's metadata: the root pointer, the commit
    /// clock, and the transaction counter, mirrored onto the metadata page.
    /// Caller must hold the writer lock with the structure epoch marked in
    /// flight.
    pub(crate) fn replica_install_meta(&self, state: FenceState) -> TsbResult<()> {
        let (root, clock_next, next_txn) = state;
        *self.root.write() = root;
        self.clock.advance_to(clock_next);
        *self.txns.lock() = TxnTable::starting_at(next_txn);
        self.write_meta()
    }

    /// Flushes the replica's device stores so a primary checkpoint record
    /// can become a sound local recovery base: local restart replays from
    /// the newest checkpoint assuming the device equals that state.
    pub(crate) fn replica_sync_devices(&self) -> TsbResult<()> {
        self.pool.flush()?;
        self.magnetic.sync()?;
        self.worm.sync()?;
        if let Some(d) = &self.durability {
            d.worm_synced
                .store(self.worm.device_bytes(), Ordering::Release);
        }
        Ok(())
    }
}

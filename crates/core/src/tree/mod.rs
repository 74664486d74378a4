//! The Time-Split B-tree proper: tree handle, node I/O over the two devices,
//! and the on-disk metadata page.
//!
//! Sub-modules implement the operations:
//!
//! * [`search`](crate::tree) — point lookups (current and as-of),
//! * [`scan`](crate::tree) — range scans, snapshots, version histories,
//! * [`insert`](crate::tree) — insertion, update, logical deletion, and the
//!   split/migration machinery,
//! * `durability` — the redo log a durable tree writes as it mutates,
//! * `redo` — the one repeat-history path that reads it back: primary
//!   recovery, replica reopen, and replica apply.
//!
//! Transactions live in [`crate::txn`], secondary indexes in
//! [`crate::secondary`], statistics in [`crate::stats`], and the structural
//! verifier in [`crate::verify`].

mod durability;
pub mod history;
pub mod insert;
pub(crate) mod redo;
pub mod scan;
pub mod search;

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{LogicalClock, Timestamp, TsbConfig, TsbError, TsbResult, WalMode};
use tsb_storage::{
    BufferPool, CostModel, FaultInjector, HistAddr, IoStats, MagneticStore, PageId, PageOp,
    SpaceSnapshot, Wal, WalRecord, WormStore,
};

use crate::cache::NodeCache;
use crate::node::{DataNode, Node, NodeAddr};
use crate::txn::TxnTable;
use durability::Durability;
use redo::Stores;

const META_MAGIC: u64 = 0x5453_4254_5245_4531; // "TSBTREE1"

/// The Time-Split B-tree: a single integrated index over a multiversion
/// database whose current part lives on an erasable store and whose
/// historical part lives on a write-once store.
///
/// Reads (`get_*`, `scan_*`, snapshots, statistics, verification) take
/// `&self`; mutations (inserts, deletes, transactions) take `&mut self`.
///
/// Internally every mutation is implemented against `&self` with the tree's
/// mutable state behind locks and atomics, under the invariant that **at
/// most one mutation runs at a time**. The single-threaded API enforces
/// that invariant with `&mut self`; [`crate::ConcurrentTsb`] enforces it
/// with a writer lock and may run any number of readers concurrently (see
/// the module docs of [`crate::concurrent`]).
///
/// ```
/// use tsb_core::TsbTree;
/// use tsb_common::{Key, TsbConfig};
///
/// let mut tree = tsb_core::TsbOptions::in_memory().config(TsbConfig::default()).open_tree().unwrap();
/// let t1 = tree.insert("acct-1", b"balance=100".to_vec()).unwrap();
/// let t2 = tree.insert("acct-1", b"balance=250".to_vec()).unwrap();
/// assert_eq!(tree.get_current(&Key::from("acct-1")).unwrap().unwrap(), b"balance=250".to_vec());
/// // The old version is still reachable as of its own time (rollback database).
/// assert_eq!(tree.get_as_of(&Key::from("acct-1"), t1).unwrap().unwrap(), b"balance=100".to_vec());
/// assert!(t1 < t2);
/// ```
pub struct TsbTree {
    pub(crate) cfg: TsbConfig,
    pub(crate) magnetic: Arc<MagneticStore>,
    pub(crate) pool: BufferPool,
    pub(crate) cache: NodeCache,
    pub(crate) worm: Arc<WormStore>,
    pub(crate) stats: Arc<IoStats>,
    pub(crate) cost: CostModel,
    /// The commit clock. Normally private to this tree; a sharded engine
    /// shares one clock across every shard (`Arc`) so commit timestamps
    /// form a single global order.
    pub(crate) clock: Arc<LogicalClock>,
    /// The root pointer, behind a short-latch lock: readers copy it out at
    /// the top of each descent, the (single) writer replaces it when the
    /// root splits.
    pub(crate) root: RwLock<NodeAddr>,
    pub(crate) meta_page: PageId,
    pub(crate) txns: Mutex<TxnTable>,
    /// Current data pages that blocked a local index time split (Figure 9)
    /// and should prefer a time split at their next opportunity (§3.5).
    pub(crate) marked_for_time_split: Mutex<HashSet<PageId>>,
    /// Set when a *structural* mutation (split / migration / root growth)
    /// failed part-way through: some nodes were rewritten, others were
    /// not, and no retry signal can make the tree consistent again. All
    /// subsequent reads and writes refuse with an error instead of
    /// silently serving the torn structure. Unreachable on in-memory
    /// stores (their writes cannot fail mid-split); it exists for the
    /// file-backed I/O error paths.
    pub(crate) poisoned: std::sync::atomic::AtomicBool,
    /// Write-ahead log state; `None` for non-durable trees.
    pub(crate) durability: Option<Durability>,
    /// Set by recovery ([`redo`]): the commit timestamp of the newest
    /// mutation the recovered tree contains (the replay *cut*). `None` on
    /// trees that were not produced by recovery.
    pub(crate) recovered_to: Option<Timestamp>,
    /// Seqlock-style structure epoch for optimistic concurrent readers.
    ///
    /// Even = the tree's multi-node invariants hold; odd = the single
    /// writer is mid-way through a structural change (split, migration,
    /// root growth) and a concurrent descent may observe a torn state. The
    /// writer bumps even→odd at the first structural write of a mutation
    /// ([`TsbTree::note_structural_write`]) and odd→even when the mutation
    /// has fully installed ([`TsbTree::settle_structure`]). Content-only
    /// leaf rewrites never bump it: replacing a leaf is atomic through the
    /// decoded-node cache, and multiversion reads at a pinned past
    /// timestamp are unaffected by new versions. Readers that need a
    /// consistent multi-node view (see [`crate::ConcurrentTsb`]) sample
    /// the epoch before and after and retry on change.
    pub(crate) structure_seq: AtomicU64,
}

impl std::fmt::Debug for TsbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsbTree")
            .field("root", &self.current_root())
            .field("page_size", &self.cfg.page_size)
            .field("split_policy", &self.cfg.split_policy)
            .finish()
    }
}

impl TsbTree {
    /// A fresh tree over in-memory stores sized by `cfg`, stamping commits
    /// from `clock` (shared across shards by a sharded engine).
    pub(crate) fn new_in_memory_with_clock(
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<Self> {
        cfg.validate()?;
        let stats = Arc::new(IoStats::new());
        let magnetic = Arc::new(MagneticStore::in_memory(cfg.page_size, Arc::clone(&stats)));
        let worm = Arc::new(WormStore::in_memory(
            cfg.worm_sector_size,
            Arc::clone(&stats),
        ));
        Self::create_with(magnetic, worm, cfg, None, clock)
    }

    /// Creates a fresh tree over the provided stores. The magnetic store must
    /// be empty (use [`Self::open`] to reopen an existing tree).
    pub fn create(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
    ) -> TsbResult<Self> {
        Self::create_with(magnetic, worm, cfg, None, Arc::new(LogicalClock::new()))
    }

    /// Creates a fresh **durable** tree: every mutation is redo-logged to
    /// `wal` before it may dirty a page, and the initial state is fenced
    /// with a checkpoint, so the tree is crash-consistent from its first
    /// instant. `TsbOptions::durable(dir)` is the directory-based front
    /// door, and reopens through recovery after a crash.
    pub fn create_durable(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        wal: Wal,
        cfg: TsbConfig,
    ) -> TsbResult<Self> {
        Self::create_with(
            magnetic,
            worm,
            cfg,
            Some(wal),
            Arc::new(LogicalClock::new()),
        )
    }

    /// Creates a fresh tree over empty stores, stamping commits from
    /// `clock` (shared across shards by a sharded engine, so commit
    /// timestamps form one global order). A `wal` makes the tree durable.
    pub(crate) fn create_with(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
        wal: Option<Wal>,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<Self> {
        check_store(&magnetic, &cfg)?;
        if magnetic.allocated_pages() != 0 {
            return Err(TsbError::config(
                "TsbTree::create requires an empty magnetic store; use TsbTree::open to reopen",
            ));
        }
        magnetic.allocate()?; // the metadata page: the lowest allocated id
        let root_page = magnetic.allocate()?;
        let root = NodeAddr::Current(root_page);
        let tree = Self::assemble(Stores { magnetic, worm }, cfg, clock, root, 1, wal, None)?;
        tree.write_current(root_page, Node::Data(DataNode::initial_root()))?;
        tree.write_meta()?;
        if tree.durability.is_some() {
            // Fence the initial root + metadata so recovery always has a
            // checkpoint to replay from.
            tree.flush_shared()?;
        }
        Ok(tree)
    }

    /// Reopens an existing tree, or creates a fresh one if the magnetic
    /// store is empty. The metadata page is the lowest allocated page id.
    pub fn open(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
    ) -> TsbResult<Self> {
        check_store(&magnetic, &cfg)?;
        if magnetic.allocated_pages() == 0 {
            return Self::create(magnetic, worm, cfg);
        }
        let meta_bytes = magnetic.read(meta_page_of(&magnetic)?)?;
        let (root, clock_next, next_txn) = Self::decode_meta(&meta_bytes)?;
        let clock = Arc::new(LogicalClock::starting_at(clock_next));
        let stores = Stores { magnetic, worm };
        Self::assemble(stores, cfg, clock, root, next_txn, None, None)
    }

    /// Builds the tree handle over `stores` with the given root, commit
    /// clock, and transaction counter: the one place every constructor —
    /// create, reopen, and recovery — assembles a tree. A `wal` makes the
    /// tree durable; `recovered_to` is the replay cut of a recovered tree.
    pub(crate) fn assemble(
        stores: Stores,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
        root: NodeAddr,
        next_txn: u64,
        wal: Option<Wal>,
        recovered_to: Option<Timestamp>,
    ) -> TsbResult<Self> {
        let Stores { magnetic, worm } = stores;
        let meta_page = meta_page_of(&magnetic)?;
        let pool = BufferPool::new(Arc::clone(&magnetic), cfg.buffer_pool_pages);
        let durability = wal.map(|wal| Self::attach_wal(wal, &pool, &worm, meta_page));
        Ok(TsbTree {
            stats: Arc::clone(magnetic.stats()),
            cache: NodeCache::sharded(cfg.node_cache_entries),
            cost: CostModel::new(cfg.cost),
            cfg,
            magnetic,
            pool,
            worm,
            clock,
            root: RwLock::new(root),
            meta_page,
            txns: Mutex::new(TxnTable::starting_at(next_txn)),
            marked_for_time_split: Mutex::new(HashSet::new()),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            durability,
            recovered_to,
            structure_seq: AtomicU64::new(0),
        })
    }

    /// The tree configuration.
    pub fn config(&self) -> &TsbConfig {
        &self.cfg
    }

    /// The shared I/O statistics counters.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// The device cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Wires `injector` into every device this tree writes — the magnetic
    /// store, the WORM store, and (when durable) the WAL — so crash tests
    /// can kill a fully assembled engine at any instrumented write site.
    /// Sharded crash tests install one injector across every shard, making
    /// "crash after k of n prepares" a single armed trigger.
    pub fn set_fault_injector(&self, injector: &Arc<FaultInjector>) {
        self.magnetic.set_fault_injector(Arc::clone(injector));
        self.worm.set_fault_injector(Arc::clone(injector));
        if let Some(d) = &self.durability {
            d.wal.set_fault_injector(Arc::clone(injector));
        }
    }

    /// The current logical time (the timestamp the next commit would get).
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The root node address.
    pub fn root_addr(&self) -> NodeAddr {
        self.current_root()
    }

    /// Copies the root pointer out of its latch (a short shared latch, held
    /// only for the copy).
    pub(crate) fn current_root(&self) -> NodeAddr {
        *self.root.read()
    }

    // ----- structure epoch (single-writer seqlock) ------------------------

    /// The current structure epoch (even = stable, odd = a structural
    /// change is in flight). Readers needing a consistent multi-node view
    /// sample this before and after their descent and retry on change.
    pub(crate) fn structure_epoch(&self) -> u64 {
        self.structure_seq.load(Ordering::Acquire)
    }

    /// Marks the beginning of a structural change (first split / migration /
    /// root replacement of the current mutation). Idempotent within one
    /// mutation: only the even→odd transition stores. Must only be called
    /// by the single writer.
    pub(crate) fn note_structural_write(&self) {
        let seq = self.structure_seq.load(Ordering::Relaxed);
        if seq.is_multiple_of(2) {
            self.structure_seq.store(seq + 1, Ordering::Release);
        }
    }

    /// Marks the end of the current mutation: if a structural change was
    /// noted, the epoch settles back to even. Must only be called by the
    /// single writer.
    pub(crate) fn settle_structure(&self) {
        let seq = self.structure_seq.load(Ordering::Relaxed);
        if seq % 2 == 1 {
            self.structure_seq.store(seq + 1, Ordering::Release);
        }
    }

    /// Ends a mutation that may have performed structural writes. If the
    /// mutation `failed` while the epoch was odd — i.e. after at least one
    /// structural write landed but before the change fully installed — the
    /// tree is permanently poisoned: some nodes were rewritten and others
    /// were not, and neither the writer nor a retrying reader can
    /// reconstruct a consistent view. All subsequent operations then
    /// refuse (see [`Self::check_not_poisoned`]) instead of silently
    /// serving the torn structure.
    pub(crate) fn settle_structure_after(&self, failed: bool) {
        if failed && self.structure_seq.load(Ordering::Relaxed) % 2 == 1 {
            self.poisoned.store(true, Ordering::Release);
        }
        self.settle_structure();
    }

    /// Errors if a previous structural mutation failed part-way through.
    pub(crate) fn check_not_poisoned(&self) -> TsbResult<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(TsbError::invariant(
                "the tree is poisoned: a structural change (split/migration) failed \
                 part-way through and the on-device structure is torn",
            ));
        }
        Ok(())
    }

    /// Space currently occupied on the two devices (the paper's `SpaceM` and
    /// `SpaceO`).
    pub fn space(&self) -> SpaceSnapshot {
        SpaceSnapshot {
            magnetic_bytes: self.magnetic.device_bytes(),
            worm_bytes: self.worm.device_bytes(),
            magnetic_payload_bytes: self.magnetic.payload_bytes(),
            worm_payload_bytes: self.worm.payload_bytes(),
        }
    }

    /// The storage cost `CS = SpaceM·CM + SpaceO·CO` of the current state.
    pub fn storage_cost(&self) -> f64 {
        self.cost.storage_cost(&self.space())
    }

    /// Flushes dirty nodes, dirty pages, the metadata page, and both
    /// devices. On a durable tree this is a full **checkpoint**: once the
    /// devices are synced, a checkpoint record fences the redo log, so the
    /// next recovery replays nothing that precedes this call.
    pub fn flush(&mut self) -> TsbResult<()> {
        self.flush_shared()
    }

    /// Synonym for [`Self::flush`] under its durability name.
    pub fn checkpoint(&mut self) -> TsbResult<()> {
        self.flush_shared()
    }

    // ----- node I/O -------------------------------------------------------

    /// Usable bytes for an encoded node on a magnetic page.
    pub(crate) fn page_capacity(&self) -> usize {
        self.magnetic.capacity()
    }

    /// The size at which an insertion triggers a split.
    pub(crate) fn split_threshold(&self) -> usize {
        (self.page_capacity() as f64 * self.cfg.split_fill_threshold) as usize
    }

    /// Reads the node at `addr`, recording a logical node access. Served
    /// from the decoded-node cache when possible — a hit performs no decode
    /// and no page-image copy, just a shared handle.
    pub(crate) fn read_node(&self, addr: NodeAddr) -> TsbResult<Arc<Node>> {
        self.check_not_poisoned()?;
        match addr {
            NodeAddr::Current(_) => self.stats.record_current_node_access(),
            NodeAddr::Historical(_) => self.stats.record_historical_node_access(),
        }
        let fill_stamp = match self.cache.begin_fill(addr) {
            Ok(node) => {
                self.stats.record_node_cache_hit();
                return Ok(node);
            }
            Err(stamp) => stamp,
        };
        self.stats.record_node_cache_miss();
        let decoded = Arc::new(self.decode_node_at(addr)?);
        // Caching a clean node is pure in-memory bookkeeping (dirty entries
        // are pinned against eviction), so the read path performs no page
        // I/O beyond the decode above. The fill is stamp-validated: if the
        // writer changed this cache shard's contents while we were
        // decoding, our decode may be stale and is returned *uncached*
        // (still a legal answer for a read that began before the write
        // installed); a resident entry always wins.
        Ok(self.cache.complete_fill(addr, decoded, fill_stamp))
    }

    /// Decodes the node at `addr` from its device image (buffer pool for
    /// current pages, WORM store for historical nodes), bypassing the
    /// decoded-node cache.
    fn decode_node_at(&self, addr: NodeAddr) -> TsbResult<Node> {
        self.stats.record_node_decode();
        match addr {
            NodeAddr::Current(page) => {
                let bytes = self.pool.get(page)?;
                Node::decode(&bytes)
            }
            NodeAddr::Historical(hist) => {
                let bytes = self.worm.read(hist)?;
                Node::decode(&bytes)
            }
        }
    }

    /// Reads and decodes the node at `addr` directly from the devices. Any
    /// pending dirty state *for that address* is flushed first so its
    /// device image is the newest one (other deferred encodes stay
    /// deferred). Diagnostic surface used to check cache coherence.
    pub fn read_node_bypass(&self, addr: NodeAddr) -> TsbResult<Node> {
        self.flush_dirty_node_at(addr)?;
        self.decode_node_at(addr)
    }

    /// Reads a node expected to be a data node.
    pub(crate) fn read_data(&self, addr: NodeAddr) -> TsbResult<DataRef> {
        let node = self.read_node(addr)?;
        match &*node {
            Node::Data(_) => Ok(DataRef(node)),
            Node::Index(_) => Err(TsbError::corruption(format!(
                "expected a data node at {addr}, found an index node"
            ))),
        }
    }

    /// Installs the newest version of a current node after a **structural**
    /// rewrite (split piece, migration survivor, root growth, node
    /// initialization, wholesale repair): the redo log always receives the
    /// full page image. Content-only rewrites should use
    /// [`Self::write_current_delta`] instead.
    pub(crate) fn write_current(&self, page: PageId, node: Node) -> TsbResult<()> {
        self.write_current_inner(page, node, Vec::new())
    }

    /// Installs the newest version of a current node after a
    /// **content-only** rewrite fully described by `ops` (the logical redo
    /// deltas that turn the node's previous state into `node`). Under
    /// [`WalMode::Hybrid`], the first dirtying of the page per checkpoint
    /// interval still logs the full image (the replay base); every later
    /// call logs only `ops` — tens of bytes instead of a page. `ops` may
    /// be empty on non-durable or [`WalMode::ImagesOnly`] trees (see
    /// [`Self::logs_deltas`]).
    pub(crate) fn write_current_delta(
        &self,
        page: PageId,
        node: Node,
        ops: Vec<PageOp>,
    ) -> TsbResult<()> {
        self.write_current_inner(page, node, ops)
    }

    /// Shared write-install path. The node goes into the decoded-node
    /// cache marked dirty; the encode into its page image is deferred
    /// until the entry is evicted or the tree flushes, so a hot leaf
    /// rewritten many times between flushes encodes once.
    fn write_current_inner(&self, page: PageId, node: Node, ops: Vec<PageOp>) -> TsbResult<()> {
        let size = node.encoded_size();
        if size > self.page_capacity() {
            return Err(TsbError::internal(format!(
                "attempted to write a {}-byte node into a {}-byte page; splitting should have prevented this",
                size,
                self.page_capacity()
            )));
        }
        // WAL-before-page: the redo record(s) go into the log *before* the
        // cache may hold the node dirty. If an append fails nothing has
        // changed in memory, so the error is clean (though the tree is
        // poisoned — the log device is gone).
        //
        // First-touch rule: a page's first dirtying per checkpoint
        // interval logs its full image whatever the caller offered —
        // recovery replays deltas against in-log images only, never the
        // (possibly torn, possibly never-written) device page. After that,
        // a content-only rewrite with ops logs just the deltas; the full
        // encode this path used to pay per mutation happens only on first
        // touch and structural rewrites.
        if let Some(d) = &self.durability {
            let first_touch = d.pages.first_touch(page);
            if first_touch || ops.is_empty() || self.cfg.wal_mode == WalMode::ImagesOnly {
                let record = WalRecord::PageImage {
                    page,
                    bytes: node.encode(),
                };
                let lsn = self.wal_append(&record)?;
                d.pages.record(page, lsn);
            } else {
                // Caller contract, cross-checked in debug builds: the ops
                // must derive `node` from the page's logged state. Checked
                // only for pure content ops — there the logged state *is*
                // the cached prior node; a split survivor's ops instead
                // build on pending deltas logged mid-mutation
                // ([`Self::wal_append_ops`]), which the cache never held.
                #[cfg(debug_assertions)]
                {
                    let content_only = ops.iter().all(|op| {
                        matches!(
                            op,
                            PageOp::InsertVersion(_)
                                | PageOp::RemoveUncommitted { .. }
                                | PageOp::IndexReplaceChild { .. }
                        )
                    });
                    if content_only {
                        if let Ok(prior) = self.read_node(NodeAddr::Current(page)) {
                            let mut derived = redo::ReplayPage::Decoded(Node::clone(&prior));
                            let applied = ops.iter().try_for_each(|op| derived.apply(op));
                            if let (Ok(()), redo::ReplayPage::Decoded(derived)) = (applied, derived)
                            {
                                debug_assert_eq!(
                                    derived, node,
                                    "WAL delta contract violated for page {page}: the \
                                     logged ops do not derive the installed node from \
                                     its prior state"
                                );
                            }
                        }
                    }
                }
                for op in ops {
                    let record = WalRecord::PageDelta { page, op };
                    let lsn = self.wal_append(&record)?;
                    d.pages.record(page, lsn);
                }
            }
        }
        self.cache.insert_dirty(page, Arc::new(node));
        // Bound the dirty residency: when this page's cache shard holds
        // more deferred encodes than its capacity, write the least recently
        // written one back now (writer context, so this is race-free). The
        // victim stays resident and is marked clean only after its image is
        // in the pool — a concurrent reader therefore never sees a gap.
        //
        // Durable trees defer this to the end of the mutation
        // ([`Self::wal_commit`]): writing a victim back here could push an
        // image from the *in-flight* mutation toward the device before its
        // commit fence exists, and recovery discards un-fenced images — the
        // device would hold state replay cannot reproduce.
        if self.durability.is_none() {
            if let Some((victim_page, victim_node)) =
                self.cache.dirty_overflow_victim(NodeAddr::Current(page))
            {
                self.write_back_dirty(victim_page, &victim_node)?;
            }
        }
        Ok(())
    }

    /// Encodes and writes one dirty cached node into its page image, then
    /// confirms the write-back so the cache unpins the entry. The entry
    /// stays dirty — pinned against eviction — until its image is in the
    /// pool, so a concurrent reader can never evict-then-refill it from a
    /// stale page image mid-flush.
    fn write_back_dirty(&self, page: PageId, node: &Node) -> TsbResult<()> {
        // WAL-before-page invariant: a dirty node may only start its way to
        // the device if its image was logged when the node was installed
        // (`write_current`). The buffer pool asserts the same contract at
        // its own write-back sites via the shared WalPageTable.
        if let Some(d) = &self.durability {
            d.pages.assert_covered(page);
        }
        self.stats.record_node_encode();
        self.pool.put(page, node.encode())?;
        self.cache.mark_clean(NodeAddr::Current(page));
        Ok(())
    }

    /// Encodes every dirty cached node into its page image (ascending
    /// `PageId` order). The entries stay cached, now clean. Public so
    /// measurement harnesses can draw a line between build-phase and
    /// query-phase encode/write traffic without a full device flush.
    pub fn flush_node_cache(&self) -> TsbResult<()> {
        for (page, node) in self.cache.dirty_entries() {
            self.write_back_dirty(page, &node)?;
        }
        Ok(())
    }

    /// Encodes one address's dirty cached node into its page image, if it
    /// has one; every other deferred encode stays deferred.
    fn flush_dirty_node_at(&self, addr: NodeAddr) -> TsbResult<()> {
        match self.cache.dirty_at(addr) {
            Some((page, node)) => self.write_back_dirty(page, &node),
            None => Ok(()),
        }
    }

    /// Consolidates a node and appends it to the historical store,
    /// returning its address (§3.4: the historical node is written once, at
    /// whatever length it has). The node is retained in the decoded-node
    /// cache — freshly migrated history is the history most likely to be
    /// queried.
    pub(crate) fn append_historical(&self, node: Node) -> TsbResult<HistAddr> {
        self.stats.record_node_encode();
        let addr = self.worm.append(&node.encode())?;
        self.cache
            .insert_clean(NodeAddr::Historical(addr), Arc::new(node));
        Ok(addr)
    }

    /// Drops every cached decoded node and page frame, writing dirty state
    /// to the devices first. Subsequent reads re-read pages from the device
    /// *and* re-decode them — the fully-cold baseline.
    pub fn drop_caches(&self) -> TsbResult<()> {
        self.drop_node_cache()?;
        self.pool.flush_and_clear()
    }

    /// Drops only the decoded-node cache (after flushing its dirty state),
    /// leaving the buffer pool warm. Subsequent reads pay one `Node::decode`
    /// per access but no device I/O — exactly the engine's behaviour before
    /// the decoded-node cache existed, which makes this the baseline for
    /// measuring what the cache itself buys.
    pub fn drop_node_cache(&self) -> TsbResult<()> {
        self.flush_node_cache()?;
        self.cache.clear();
        Ok(())
    }

    /// Invalidates the decoded-node cache entry for `addr`, if any. That
    /// entry's dirty state is flushed first, so no write is lost — and
    /// *only* that entry's, so invalidating one node does not act as a
    /// full flush; the next read re-decodes the device image.
    pub fn invalidate_cached_node(&self, addr: NodeAddr) -> TsbResult<()> {
        self.flush_dirty_node_at(addr)?;
        self.cache.discard(addr);
        Ok(())
    }

    /// Walks every node reachable from the root and checks that the cached
    /// copy equals what decoding the device image produces (pending dirty
    /// nodes are flushed first). Returns the first divergence found.
    pub fn verify_cache_coherence(&self) -> TsbResult<()> {
        self.flush_node_cache()?;
        let mut visited: HashSet<NodeAddr> = HashSet::new();
        self.check_coherence(self.current_root(), &mut visited)
    }

    fn check_coherence(&self, addr: NodeAddr, visited: &mut HashSet<NodeAddr>) -> TsbResult<()> {
        if !visited.insert(addr) {
            return Ok(());
        }
        let cached = self.read_node(addr)?;
        let direct = self.decode_node_at(addr)?;
        if *cached != direct {
            return Err(TsbError::invariant(format!(
                "decoded-node cache diverges from the device image at {addr}"
            )));
        }
        if let Node::Index(index) = &*cached {
            for entry in index.entries() {
                self.check_coherence(entry.child, visited)?;
            }
        }
        Ok(())
    }

    /// Allocates a fresh current page. Under durability, anything the WAL
    /// page table knew about a recycled page is forgotten: its old image
    /// is not a redo base for its new life, so the first write of new
    /// content logs a fresh full image.
    pub(crate) fn allocate_page(&self) -> TsbResult<PageId> {
        let page = self.magnetic.allocate()?;
        if let Some(d) = &self.durability {
            d.pages.forget(page);
        }
        Ok(page)
    }

    // ----- metadata -------------------------------------------------------

    /// The metadata encoding shared by the on-device metadata page and the
    /// WAL's commit / checkpoint records (recovery trusts the latter; the
    /// page is a convenience for non-durable reopen).
    fn encode_meta_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(META_MAGIC);
        self.current_root().encode(&mut w);
        w.put_u64(self.clock.now().value());
        w.put_u64(self.txns.lock().next_id_value());
        w.into_vec()
    }

    pub(crate) fn write_meta(&self) -> TsbResult<()> {
        self.pool.put(self.meta_page, self.encode_meta_bytes())
    }

    pub(crate) fn decode_meta(bytes: &[u8]) -> TsbResult<(NodeAddr, Timestamp, u64)> {
        let mut r = ByteReader::new(bytes);
        if r.get_u64()? != META_MAGIC {
            return Err(TsbError::corruption("bad TSB-tree metadata magic"));
        }
        let root = NodeAddr::decode(&mut r)?;
        let clock_next = Timestamp(r.get_u64()?);
        let next_txn = r.get_u64()?;
        Ok((root, clock_next, next_txn))
    }

    /// Updates the root pointer and persists the metadata page. A root
    /// replacement is a structural change, so the caller (the insert path)
    /// must have noted the structure epoch as in-flight.
    pub(crate) fn set_root(&self, root: NodeAddr) -> TsbResult<()> {
        *self.root.write() = root;
        self.write_meta()
    }
}

/// Validates `cfg` and checks that `magnetic` was formatted for its page
/// size.
fn check_store(magnetic: &MagneticStore, cfg: &TsbConfig) -> TsbResult<()> {
    cfg.validate()?;
    if magnetic.page_size() != cfg.page_size {
        return Err(TsbError::config(format!(
            "magnetic store page size {} does not match config page size {}",
            magnetic.page_size(),
            cfg.page_size
        )));
    }
    Ok(())
}

/// The metadata page: the lowest allocated page id (the first page a
/// fresh tree allocates).
fn meta_page_of(magnetic: &MagneticStore) -> TsbResult<PageId> {
    magnetic
        .allocated_page_ids()
        .into_iter()
        .min()
        .ok_or_else(|| TsbError::corruption("a non-empty tree's store has no pages"))
}

/// A shared read handle to a cached data node. Dereferences to
/// [`DataNode`]; cloning the target (`DataNode::clone(&r)`) yields an owned
/// node for mutation paths.
pub(crate) struct DataRef(pub(crate) Arc<Node>);

impl Deref for DataRef {
    type Target = DataNode;
    fn deref(&self) -> &DataNode {
        match &*self.0 {
            Node::Data(n) => n,
            Node::Index(_) => unreachable!("DataRef only wraps data nodes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::redo::WAL_FILE;
    use super::*;
    use tsb_common::Key;

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "tsb-tree-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn durable_tree_recovers_unflushed_writes_from_the_wal() {
        let dir = TempDir::new("wal-recover");
        let cfg =
            TsbConfig::small_pages().with_split_policy(tsb_common::SplitPolicyKind::TimePreferring);
        let mut stamps = Vec::new();
        {
            let tree = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            assert!(tree.is_durable());
            for i in 0..120u64 {
                let ts = tree
                    .insert_shared(i % 12, format!("v{i}").into_bytes())
                    .unwrap();
                stamps.push((i % 12, ts, format!("v{i}").into_bytes()));
            }
            // No flush, no checkpoint: everything durable lives in the WAL.
            // Dropping the tree models a crash of the caches.
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        let cut = tree
            .last_durable_commit()
            .expect("recovered tree has a cut");
        assert!(cut >= stamps.last().unwrap().1, "every commit was logged");
        for (key, ts, value) in &stamps {
            assert_eq!(
                tree.get_as_of(&Key::from_u64(*key), *ts).unwrap().unwrap(),
                *value,
                "key {key} as of {ts}"
            );
        }
        tree.verify().unwrap();
    }

    #[test]
    fn durable_tree_survives_clean_checkpoint_and_reopen() {
        let dir = TempDir::new("wal-clean");
        let cfg = TsbConfig::small_pages();
        {
            let mut tree = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            for i in 0..60u64 {
                tree.insert(i, format!("x{i}").into_bytes()).unwrap();
            }
            tree.checkpoint().unwrap();
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..60u64 {
            assert_eq!(
                tree.get_current(&Key::from_u64(i)).unwrap().unwrap(),
                format!("x{i}").into_bytes()
            );
        }
        tree.verify().unwrap();
    }

    #[test]
    fn recovery_erases_in_flight_transactions() {
        let dir = TempDir::new("wal-txn");
        let cfg = TsbConfig::small_pages();
        {
            let mut tree = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            tree.insert(1u64, b"committed".to_vec()).unwrap();
            let txn = tree.begin_txn();
            tree.txn_insert(txn, 1u64, b"pending-update".to_vec())
                .unwrap();
            tree.txn_insert(txn, 99u64, b"pending-new".to_vec())
                .unwrap();
            // Crash with the transaction still open.
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        assert_eq!(
            tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
            b"committed".to_vec()
        );
        assert!(tree.get_current(&Key::from_u64(99)).unwrap().is_none());
        assert!(
            tree.pending_version(&Key::from_u64(1)).unwrap().is_none(),
            "recovery aborts in-flight transactions"
        );
        tree.verify().unwrap();
    }

    #[test]
    fn phantom_deltas_from_a_failed_mutation_never_reach_recovery() {
        // A split can log its triggering delta as a *pending* record and
        // then fail in pure planning or allocation — before any structural
        // write, so the tree is not poisoned and keeps serving. Those
        // deltas describe state the mutation rolled back; the next
        // successful fence must supersede them with a corrective full
        // image, or recovery would replay a change the caller was told
        // failed. This drives the quarantine machinery directly (the
        // failure window itself needs ENOSPC-grade faults to reach).
        let dir = TempDir::new("wal-phantom");
        let cfg = TsbConfig::small_pages();
        {
            let tree = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            tree.insert_shared(1u64, b"real".to_vec()).unwrap();
            let page = tree.root_addr().as_page().expect("root is a leaf page");
            assert!(tree.pending_ops_allowed(page), "leaf has a delta base");
            // The failed mutation: a pending delta lands in the log…
            tree.wal_append_ops(
                page,
                vec![PageOp::InsertVersion(tsb_common::Version::committed(
                    99u64,
                    Timestamp(77),
                    b"phantom".to_vec(),
                ))],
            )
            .unwrap();
            // …then the split dies without a structural write.
            tree.quarantine_pending_deltas();
            assert!(
                !tree.pending_ops_allowed(page),
                "a quarantined page loses its delta base"
            );
            // The next successful mutation fences; its corrective image
            // must win over the phantom at replay.
            tree.insert_shared(2u64, b"after".to_vec()).unwrap();
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        tree.verify().unwrap();
        assert!(
            tree.get_current(&Key::from_u64(99)).unwrap().is_none(),
            "the phantom version must not survive recovery"
        );
        assert_eq!(
            tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
            b"real".to_vec()
        );
        assert_eq!(
            tree.get_current(&Key::from_u64(2)).unwrap().unwrap(),
            b"after".to_vec()
        );
    }

    #[test]
    fn a_directory_with_nothing_durable_is_recreated() {
        let dir = TempDir::new("wal-fresh");
        let cfg = TsbConfig::small_pages();
        // Simulate a crash during the very first create: a WAL holding only
        // un-fenced page images (no commit, no checkpoint).
        {
            let stats = Arc::new(IoStats::new());
            let wal = Wal::create(dir.0.join(WAL_FILE), cfg.fsync_policy, stats).unwrap();
            wal.append(&WalRecord::PageImage {
                page: PageId(1),
                bytes: vec![1, 2, 3],
            })
            .unwrap();
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        assert!(tree.get_current(&Key::from_u64(1)).unwrap().is_none());
        tree.verify().unwrap();
    }

    #[test]
    fn create_open_round_trip() {
        let cfg = TsbConfig::small_pages();
        let stats = Arc::new(IoStats::new());
        let magnetic = Arc::new(MagneticStore::in_memory(cfg.page_size, Arc::clone(&stats)));
        let worm = Arc::new(WormStore::in_memory(
            cfg.worm_sector_size,
            Arc::clone(&stats),
        ));

        let root_before;
        {
            let mut tree =
                TsbTree::create(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
            tree.insert(1u64, b"one".to_vec()).unwrap();
            tree.insert(2u64, b"two".to_vec()).unwrap();
            root_before = tree.root_addr();
            tree.flush().unwrap();
        }
        {
            let tree =
                TsbTree::open(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
            assert_eq!(tree.root_addr(), root_before);
            assert_eq!(
                tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
                b"one".to_vec()
            );
            assert_eq!(
                tree.get_current(&Key::from_u64(2)).unwrap().unwrap(),
                b"two".to_vec()
            );
            // The clock resumes past previously issued timestamps.
            assert!(tree.now() > Timestamp(2));
        }
        // create() refuses a non-empty store.
        assert!(TsbTree::create(magnetic, worm, cfg).is_err());
    }

    #[test]
    fn create_rejects_mismatched_page_size() {
        let cfg = TsbConfig::small_pages();
        let stats = Arc::new(IoStats::new());
        let magnetic = Arc::new(MagneticStore::in_memory(4096, Arc::clone(&stats)));
        let worm = Arc::new(WormStore::in_memory(
            cfg.worm_sector_size,
            Arc::clone(&stats),
        ));
        assert!(TsbTree::create(magnetic, worm, cfg).is_err());
    }

    #[test]
    fn space_and_cost_reflect_the_stores() {
        let mut tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        for i in 0..50u64 {
            tree.insert(i, vec![b'v'; 20]).unwrap();
        }
        let space = tree.space();
        assert!(space.magnetic_bytes > 0);
        assert!(tree.storage_cost() > 0.0);
    }

    #[test]
    fn warm_descents_perform_zero_decodes() {
        let cfg = TsbConfig::small_pages().with_node_cache_entries(4096);
        let mut tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..300u64 {
            tree.insert(i % 30, format!("v{i}").into_bytes()).unwrap();
        }
        // First pass warms the cache for every current path.
        for key in 0..30u64 {
            tree.get_current(&Key::from_u64(key)).unwrap();
        }
        let before = tree.io_stats().snapshot();
        for key in 0..30u64 {
            tree.get_current(&Key::from_u64(key)).unwrap();
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert!(delta.node_cache_hits > 0, "warm reads must hit the cache");
        assert_eq!(delta.node_cache_misses, 0, "every node was already cached");
        assert_eq!(delta.node_decodes, 0, "cache hits perform no decode");
        assert!(
            delta.node_accesses_current >= 30,
            "logical accesses are still counted on hits"
        );
    }

    #[test]
    fn encode_is_deferred_until_flush() {
        // Large pages: no splits, so the root leaf absorbs every insert.
        let mut tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::default())
            .open_tree()
            .unwrap();
        let before = tree.io_stats().snapshot();
        for i in 0..20u64 {
            tree.insert(i, vec![b'x'; 16]).unwrap();
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(
            delta.node_encodes, 0,
            "20 rewrites of the hot leaf must not encode until flush"
        );
        tree.flush().unwrap();
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(delta.node_encodes, 1, "flush encodes the leaf exactly once");
    }

    #[test]
    fn a_poisoned_tree_refuses_reads_and_writes() {
        let mut tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        tree.insert(1u64, b"v".to_vec()).unwrap();
        // Simulate a structural mutation failing part-way through (only
        // reachable through file-backed I/O errors in production).
        tree.note_structural_write();
        tree.settle_structure_after(true);
        assert!(tree.get_current(&Key::from_u64(1)).is_err());
        assert!(tree.insert(2u64, b"w".to_vec()).is_err());
        // A clean failure outside a structural window does not poison.
        let tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        tree.settle_structure_after(true);
        assert!(tree.get_current(&Key::from_u64(1)).is_ok());
    }

    #[test]
    fn dirty_residency_is_bounded_without_explicit_flush() {
        // KeyOnly: no WORM migration, so every node encode in this run can
        // only come from the dirty-overflow write-back. A long unflushed
        // insert run must not let deferred encodes pile up past the cache
        // capacity — the overflow path drains them as it goes.
        let cfg = TsbConfig::small_pages()
            .with_node_cache_entries(64)
            .with_split_policy(tsb_common::SplitPolicyKind::KeyOnly);
        let mut tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        let before = tree.io_stats().snapshot();
        for i in 0..2000u64 {
            tree.insert(i, vec![b'v'; 24]).unwrap();
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(delta.worm_appends, 0, "KeyOnly must not migrate");
        assert!(
            delta.node_encodes > 0,
            "dirty overflow write-back never fired across 2000 unflushed inserts"
        );
        tree.verify().unwrap();
        tree.verify_cache_coherence().unwrap();
        // Nothing was lost to the early write-backs.
        for i in (0..2000u64).step_by(97) {
            assert!(tree.get_current(&Key::from_u64(i)).unwrap().is_some());
        }
    }

    #[test]
    fn bypass_reads_and_cache_invalidation_agree_with_the_cache() {
        let cfg = TsbConfig::small_pages();
        let mut tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..300u64 {
            tree.insert(i % 25, format!("value-{i}").into_bytes())
                .unwrap();
        }
        tree.verify_cache_coherence().unwrap();

        // A bypass read of the root decodes the same node the cache holds.
        let via_cache = tree.read_node(tree.root_addr()).unwrap();
        let via_device = tree.read_node_bypass(tree.root_addr()).unwrap();
        assert_eq!(*via_cache, via_device);

        // Invalidation forces a re-decode, which still agrees.
        tree.invalidate_cached_node(tree.root_addr()).unwrap();
        let before = tree.io_stats().snapshot();
        let reread = tree.read_node(tree.root_addr()).unwrap();
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(delta.node_cache_misses, 1);
        assert_eq!(*reread, via_device);

        // Dropping every cache cold-starts reads without losing anything.
        tree.drop_caches().unwrap();
        let before = tree.io_stats().snapshot();
        for key in 0..25u64 {
            assert!(tree.get_current(&Key::from_u64(key)).unwrap().is_some());
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert!(delta.node_decodes > 0, "cold reads decode again");
        tree.verify_cache_coherence().unwrap();
    }

    #[test]
    fn persistence_survives_deferred_encodes() {
        let cfg = TsbConfig::small_pages();
        let stats = Arc::new(IoStats::new());
        let magnetic = Arc::new(MagneticStore::in_memory(cfg.page_size, Arc::clone(&stats)));
        let worm = Arc::new(WormStore::in_memory(
            cfg.worm_sector_size,
            Arc::clone(&stats),
        ));
        {
            let mut tree =
                TsbTree::create(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
            for i in 0..200u64 {
                tree.insert(i % 20, format!("gen-{i}").into_bytes())
                    .unwrap();
            }
            tree.flush().unwrap();
        }
        // A reopened tree (fresh, empty caches) sees every write.
        let tree = TsbTree::open(magnetic, worm, cfg).unwrap();
        for key in 0..20u64 {
            let got = tree.get_current(&Key::from_u64(key)).unwrap().unwrap();
            assert_eq!(got, format!("gen-{}", 180 + key).into_bytes());
        }
        tree.verify().unwrap();
    }
}

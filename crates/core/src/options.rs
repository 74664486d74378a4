//! [`TsbOptions`] — the one front door for opening an engine.
//!
//! One builder chain names each decision — backing, configuration, shard
//! count, engine flavour — once, instead of a constructor per
//! combination:
//!
//! ```no_run
//! use tsb_common::{FsyncPolicy, WalMode};
//! use tsb_core::TsbOptions;
//!
//! // A durable, 4-way sharded engine with per-commit fsync.
//! let db = TsbOptions::durable("/var/lib/tsb")
//!     .fsync(FsyncPolicy::Always)
//!     .wal_mode(WalMode::Hybrid)
//!     .shards(4)
//!     .open()?;
//! # let _ = db; Ok::<(), tsb_core::TsbError>(())
//! ```
//!
//! Terminal methods pick the engine flavour:
//!
//! * [`TsbOptions::open`] — a [`ShardedTsb`] (the most general primary;
//!   one shard is the common case and costs nothing extra).
//! * [`TsbOptions::open_concurrent`] — a [`ConcurrentTsb`] when a
//!   concrete single-log engine is wanted (e.g. to serve replication).
//! * [`TsbOptions::open_tree`] — a bare single-threaded [`TsbTree`].
//! * [`TsbOptions::open_replica`] — a [`ReplicaEngine`] awaiting (or
//!   recovering) a shipped log at the directory.

use std::path::PathBuf;
use std::sync::Arc;

use tsb_common::{FsyncPolicy, LogicalClock, TsbConfig, TsbError, TsbResult, WalMode};

use crate::concurrent::ConcurrentTsb;
use crate::replica::ReplicaEngine;
use crate::sharded::ShardedTsb;
use crate::tree::TsbTree;

/// Builder for every way of opening an engine; see the module docs.
#[derive(Clone, Debug)]
pub struct TsbOptions {
    dir: Option<PathBuf>,
    cfg: TsbConfig,
    shards: usize,
}

impl TsbOptions {
    /// Starts options for an in-memory (non-durable) engine.
    pub fn in_memory() -> TsbOptions {
        TsbOptions {
            dir: None,
            cfg: TsbConfig::default(),
            shards: 1,
        }
    }

    /// Starts options for a durable engine rooted at `dir` (created on
    /// first open, recovered on reopen).
    pub fn durable(dir: impl Into<PathBuf>) -> TsbOptions {
        TsbOptions {
            dir: Some(dir.into()),
            cfg: TsbConfig::default(),
            shards: 1,
        }
    }

    /// Replaces the whole configuration (for knobs without a dedicated
    /// builder method, e.g. split policies).
    pub fn config(mut self, cfg: TsbConfig) -> TsbOptions {
        self.cfg = cfg;
        self
    }

    /// Sets the commit fsync policy (durable engines only; ignored
    /// in memory).
    pub fn fsync(mut self, policy: FsyncPolicy) -> TsbOptions {
        self.cfg = self.cfg.with_fsync_policy(policy);
        self
    }

    /// Sets the redo-log mode (full images vs. first-touch images +
    /// deltas).
    pub fn wal_mode(mut self, mode: WalMode) -> TsbOptions {
        self.cfg = self.cfg.with_wal_mode(mode);
        self
    }

    /// Swaps in the small-page test configuration (tiny nodes so splits
    /// happen early), preserving any fsync/WAL-mode choices already made.
    pub fn small_pages(mut self) -> TsbOptions {
        self.cfg = TsbConfig::small_pages()
            .with_fsync_policy(self.cfg.fsync_policy)
            .with_wal_mode(self.cfg.wal_mode);
        self
    }

    /// Sets the shard count for [`Self::open`] (default 1). The
    /// single-engine terminals refuse counts above 1.
    pub fn shards(mut self, shards: usize) -> TsbOptions {
        self.shards = shards;
        self
    }

    fn require_single(&self, what: &str) -> TsbResult<()> {
        if self.shards != 1 {
            return Err(TsbError::config(format!(
                "{what} is a single-shard engine but {} shards were requested \
                 (use .open() for a sharded engine)",
                self.shards
            )));
        }
        Ok(())
    }

    /// Opens a [`ShardedTsb`] primary with these options (one shard
    /// unless [`Self::shards`] said otherwise).
    pub fn open(self) -> TsbResult<ShardedTsb> {
        match &self.dir {
            Some(dir) => ShardedTsb::open_dir(dir, self.shards, self.cfg),
            None => {
                // `shards` independent engines stamping from one clock.
                crate::sharded::check_shard_count(self.shards)?;
                let clock = Arc::new(LogicalClock::new());
                let engines = (0..self.shards)
                    .map(|_| {
                        TsbTree::new_in_memory_with_clock(self.cfg.clone(), Arc::clone(&clock))
                            .map(ConcurrentTsb::from_tree)
                    })
                    .collect::<TsbResult<Vec<_>>>()?;
                Ok(ShardedTsb::from_shards(engines, clock))
            }
        }
    }

    /// Opens a [`ConcurrentTsb`] primary (single log; required for
    /// serving replication).
    pub fn open_concurrent(self) -> TsbResult<ConcurrentTsb> {
        self.require_single("ConcurrentTsb")?;
        Ok(ConcurrentTsb::from_tree(self.open_tree()?))
    }

    /// Opens a bare single-threaded [`TsbTree`].
    pub fn open_tree(self) -> TsbResult<TsbTree> {
        self.require_single("TsbTree")?;
        match &self.dir {
            Some(dir) => TsbTree::open_dir(dir, self.cfg),
            None => TsbTree::new_in_memory_with_clock(self.cfg, Arc::new(LogicalClock::new())),
        }
    }

    /// Opens a [`ReplicaEngine`] at the directory: recovers a local log
    /// copy if one is usable, else starts empty awaiting a base image
    /// from a primary. Durable only (a replica *is* its local log copy).
    pub fn open_replica(self) -> TsbResult<ReplicaEngine> {
        self.require_single("ReplicaEngine")?;
        let Some(dir) = self.dir else {
            return Err(TsbError::config(
                "a replica needs a directory: use TsbOptions::durable(dir)",
            ));
        };
        ReplicaEngine::open(dir, self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::Key;

    #[test]
    fn builder_opens_each_flavour() {
        let tree = TsbOptions::in_memory().small_pages().open_tree().unwrap();
        assert_eq!(tree.config().page_size, TsbConfig::small_pages().page_size);

        let db = TsbOptions::in_memory().open_concurrent().unwrap();
        db.insert(Key::from_u64(1), b"x".to_vec()).unwrap();

        let sharded = TsbOptions::in_memory().shards(4).open().unwrap();
        assert_eq!(sharded.shard_count(), 4);

        assert!(TsbOptions::in_memory().shards(2).open_concurrent().is_err());
        assert!(TsbOptions::in_memory().open_replica().is_err());
    }

    #[test]
    fn small_pages_preserves_durability_knobs() {
        let opts = TsbOptions::in_memory()
            .fsync(FsyncPolicy::Os)
            .wal_mode(WalMode::ImagesOnly)
            .small_pages();
        assert_eq!(opts.cfg.fsync_policy, FsyncPolicy::Os);
        assert_eq!(opts.cfg.wal_mode, WalMode::ImagesOnly);
        assert_eq!(opts.cfg.page_size, TsbConfig::small_pages().page_size);
    }
}

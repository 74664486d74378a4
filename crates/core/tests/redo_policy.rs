//! The differences between a primary's and a replica's recovery, pinned:
//!
//! * a fence referencing WORM history past the device cuts a primary's
//!   replay before it, but is corruption on a replica (whose apply
//!   protocol syncs history before logging the fence);
//! * two-phase-commit records are refused by a replica, both on reopen and
//!   in streaming apply;
//! * a page delta that precedes its page's image in one log generation is
//!   corruption for primary recovery (replay never reads the device).
//!
//! Each test hand-appends records to a real log on disk and reopens.

use std::path::Path;
use std::sync::Arc;

use tsb_common::{FsyncPolicy, Key, Timestamp, TsbConfig, TsbError, Version};
use tsb_core::{ConcurrentTsb, ReplicaEngine, ReplicationSource, ShippedBatch, TsbOptions};
use tsb_storage::{IoStats, PageId, PageOp, Wal, WalRecord, DEFAULT_BATCH_BYTES};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("tsb-redo-{tag}-{}", std::process::id()));
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

fn cfg() -> TsbConfig {
    TsbConfig::small_pages().with_fsync_policy(FsyncPolicy::Always)
}

/// Appends `records` to the redo log in `dir` and syncs them.
fn append(dir: &Path, records: &[WalRecord]) {
    let (wal, _) = Wal::open(
        dir.join("redo.wal"),
        FsyncPolicy::Always,
        Arc::new(IoStats::new()),
    )
    .unwrap();
    for record in records {
        wal.append(record).unwrap();
    }
    wal.sync().unwrap();
}

/// A delta writing `ghost` to `page` at `ts`, fenced by a commit whose
/// history (`worm_len`) lies far past the WORM device in `dir`.
fn torn_commit(dir: &Path, page: PageId, ts: Timestamp) -> [WalRecord; 2] {
    let worm_bytes = std::fs::metadata(dir.join("history.worm")).unwrap().len();
    [
        WalRecord::PageDelta {
            page,
            op: PageOp::InsertVersion(Version::committed(999u64, ts, b"ghost".to_vec())),
        },
        WalRecord::Commit {
            ts: ts.value(),
            worm_len: worm_bytes + (1 << 20),
            meta: Vec::new(),
        },
    ]
}

/// A durable primary with a few commits, a replica caught up with it, and
/// the primary's root page (the same page id on both).
fn caught_up(tag: &str) -> (TempDir, TempDir, ConcurrentTsb, ReplicaEngine, PageId) {
    let pdir = TempDir::new(&format!("{tag}-primary"));
    let rdir = TempDir::new(&format!("{tag}-replica"));
    let root = {
        let mut tree = TsbOptions::durable(&pdir.0)
            .config(cfg())
            .open_tree()
            .unwrap();
        for i in 0..5u64 {
            tree.insert(i, b"v".to_vec()).unwrap();
        }
        tree.root_addr().as_page().unwrap()
    };
    let primary = TsbOptions::durable(&pdir.0)
        .config(cfg())
        .open_concurrent()
        .unwrap();
    primary.insert(Key::from_u64(5), b"v".to_vec()).unwrap();
    let source = ReplicationSource::new(&primary).unwrap();
    let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
    replica.install_base(&source.base().unwrap()).unwrap();
    loop {
        let batch = source
            .poll(
                replica.resume_lsn().unwrap(),
                replica.worm_have(),
                DEFAULT_BATCH_BYTES,
            )
            .unwrap();
        if batch.records.is_empty() {
            break;
        }
        replica.apply_batch(&batch).unwrap();
    }
    (pdir, rdir, primary, replica, root)
}

/// The two kinds of two-phase-commit record a replica must refuse.
fn two_phase_records(ts: Timestamp) -> [WalRecord; 2] {
    [
        WalRecord::Prepare {
            ts: ts.value(),
            worm_len: 0,
            meta: Vec::new(),
            txn: 1,
            coordinator: 0,
            participants: vec![0, 1],
        },
        WalRecord::Decision {
            ts: ts.value(),
            participants: vec![0, 1],
        },
    ]
}

#[test]
fn torn_history_cuts_primary_replay_before_the_fence() {
    let dir = TempDir::new("torn-primary");
    let (root, last) = {
        let mut tree = TsbOptions::durable(&dir.0)
            .config(cfg())
            .open_tree()
            .unwrap();
        let mut last = Timestamp(0);
        for i in 0..5u64 {
            last = tree.insert(i, b"v".to_vec()).unwrap();
        }
        (tree.root_addr().as_page().unwrap(), last)
        // Dropped without a checkpoint: the log holds the commits.
    };
    append(&dir.0, &torn_commit(&dir.0, root, last.next()));

    let tree = TsbOptions::durable(&dir.0)
        .config(cfg())
        .open_tree()
        .unwrap();
    assert_eq!(
        tree.last_durable_commit(),
        Some(last),
        "the cut lands on the last fence whose history survived"
    );
    assert_eq!(tree.get_current(&Key::from_u64(999)).unwrap(), None);
    assert_eq!(
        tree.get_current(&Key::from_u64(4)).unwrap(),
        Some(b"v".to_vec())
    );
    tree.verify().unwrap();
}

#[test]
fn torn_history_is_corruption_on_replica_reopen() {
    let (_pdir, rdir, primary, replica, root) = caught_up("torn-replica");
    drop(replica);
    append(
        &rdir.0,
        &torn_commit(&rdir.0, root, primary.last_installed().next()),
    );
    match ReplicaEngine::open(&rdir.0, cfg()) {
        Err(TsbError::Corruption(_)) => {}
        Err(other) => panic!("expected corruption, got {other}"),
        Ok(_) => panic!("a replica fence past its WORM device must not reopen"),
    }
}

#[test]
fn replica_reopen_refuses_two_phase_records() {
    for (i, record) in two_phase_records(Timestamp(1_000)).into_iter().enumerate() {
        let (_pdir, rdir, _primary, replica, _) = caught_up(&format!("2pc-reopen-{i}"));
        drop(replica);
        append(&rdir.0, &[record]);
        match ReplicaEngine::open(&rdir.0, cfg()) {
            Err(TsbError::Config(_)) => {}
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(_) => panic!("a replica log with two-phase records must not reopen"),
        }
    }
}

#[test]
fn replica_apply_refuses_two_phase_records() {
    for (i, record) in two_phase_records(Timestamp(1_000)).into_iter().enumerate() {
        let (_pdir, _rdir, _primary, replica, _) = caught_up(&format!("2pc-apply-{i}"));
        let lsn = replica.resume_lsn().unwrap() + 1;
        let batch = ShippedBatch {
            needs_rebase: false,
            durable_lsn: lsn,
            worm_start: replica.worm_have(),
            worm: Vec::new(),
            records: vec![record.encode_body(lsn)],
        };
        match replica.apply_batch(&batch) {
            Err(TsbError::Config(_)) => {}
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(()) => panic!("a replica must not apply a two-phase record"),
        }
    }
}

#[test]
fn delta_before_its_image_is_corruption_for_primary_recovery() {
    let dir = TempDir::new("delta-first");
    let (root, next) = {
        let mut tree = TsbOptions::durable(&dir.0)
            .config(cfg())
            .open_tree()
            .unwrap();
        for i in 0..5u64 {
            tree.insert(i, b"v".to_vec()).unwrap();
        }
        // The checkpoint starts a log generation with no page images.
        tree.checkpoint().unwrap();
        (tree.root_addr().as_page().unwrap(), tree.now())
    };
    append(
        &dir.0,
        &[
            WalRecord::PageDelta {
                page: root,
                op: PageOp::InsertVersion(Version::committed(999u64, next, b"x".to_vec())),
            },
            WalRecord::Commit {
                ts: next.value(),
                worm_len: 0,
                meta: Vec::new(),
            },
        ],
    );
    match TsbOptions::durable(&dir.0).config(cfg()).open_tree() {
        Err(TsbError::Corruption(_)) => {}
        Err(other) => panic!("expected corruption, got {other}"),
        Ok(_) => panic!("a delta without its image must not replay"),
    }
}

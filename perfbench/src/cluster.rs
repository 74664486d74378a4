//! The served deployment: `tsb-server` child processes (a primary and a
//! WAL-shipping replica) started the way an operator starts them, and the
//! in-process preload that builds the primary's data directory.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tsb_client::TsbClient;
use tsb_common::{FsyncPolicy, TsbConfig};
use tsb_core::{EngineHandle, TsbOptions};

use crate::gate::Gate;
use crate::Error;

/// One `tsb-server` child. Dropping it SIGKILLs and reaps the process.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// Its data directory.
    pub dir: PathBuf,
}

impl Server {
    /// Starts `bin` on `dir` with `--fsync always` plus `extra`, and
    /// waits for its `listening on` banner.
    pub fn spawn(bin: &Path, dir: &Path, extra: &[&str]) -> Result<Server, Error> {
        std::fs::create_dir_all(dir)?;
        let mut child = Command::new(bin)
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--fsync", "always"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let banner = BufReader::new(stdout).lines().next();
        let addr = banner
            .and_then(Result::ok)
            .and_then(|b| b.rsplit(' ').next().and_then(|a| a.parse().ok()));
        match addr {
            Some(addr) => Ok(Server {
                child,
                addr,
                dir: dir.to_path_buf(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err("tsb-server printed no listening banner".into())
            }
        }
    }

    /// Peak resident memory of the process so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILL: no flush, no checkpoint, no drop handlers.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The configuration the preload opens with: `tsb-server`'s defaults,
/// but a buffer pool and node cache large enough that loading does not
/// evict, and no per-commit fsync. The directory is checkpointed before
/// it is served, so the served engine starts from a durable image.
fn preload_config() -> TsbConfig {
    TsbConfig {
        buffer_pool_pages: 1 << 14,
        node_cache_entries: 1 << 14,
        ..TsbConfig::default()
    }
    .with_fsync_policy(FsyncPolicy::Os)
}

/// Writes `writes` into a fresh engine at `dir` through [`EngineHandle`],
/// checkpoints and closes it, and records every write in `gate`.
pub fn preload(dir: &Path, writes: &[(u64, Vec<u8>)], gate: &mut Gate) -> Result<(), Error> {
    let db = TsbOptions::durable(dir)
        .config(preload_config())
        .open_concurrent()?;
    let mut acks = Vec::with_capacity(writes.len());
    for (key, value) in writes {
        let (ts, _) = EngineHandle::insert_deferred(&db, crate::gen::key_of(*key), value.clone())?;
        acks.push((*key, value.clone(), ts.0));
    }
    EngineHandle::checkpoint(&db)?;
    drop(db);
    gate.record(acks);
    Ok(())
}

/// Waits until the replica at `addr` serves reads and has applied
/// everything the primary had durable when it was asked.
pub fn await_replica(addr: SocketAddr, limit: Duration) -> Result<(), Error> {
    let start = Instant::now();
    let mut client = TsbClient::connect(addr)?;
    loop {
        let status = client.replica_status()?;
        if status.serving && status.source_durable_lsn > 0 && status.lag_records == 0 {
            return Ok(());
        }
        if start.elapsed() > limit {
            return Err(format!("replica not caught up after {limit:?}: {status:?}").into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `(file name, bytes)` of each file directly under `dir`.
pub fn file_sizes(dir: &Path) -> Vec<(String, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            meta.is_file()
                .then(|| (e.file_name().to_string_lossy().into_owned(), meta.len()))
        })
        .collect()
}

/// Copies the files directly under `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), Error> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for (name, _) in file_sizes(from) {
        std::fs::copy(from.join(&name), to.join(&name))?;
    }
    Ok(())
}

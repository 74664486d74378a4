//! The result: metrics with units, host facts, and the JSON lines.

use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics in emission order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Facts about the host a result was measured on, so results can be
/// normalised across machines.
#[derive(Clone, Debug)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// Median latency of one small-file fsync on the work directory's
    /// filesystem, µs.
    pub fsync_floor_us: f64,
    /// Filesystem type of the work directory.
    pub filesystem: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl Host {
    /// Probes the host. The fsync probe runs in the process's temp
    /// directory, which `run.py` points into the work directory.
    pub fn probe(work: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fsync_floor_us: tsb_bench::experiments::durability::fsync_floor(33).as_secs_f64() * 1e6,
            filesystem: filesystem_of(work),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The facts as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"fsync_floor_us\": {}, \"filesystem\": \"{}\", \"profile\": \"{}\"}}",
            self.nproc,
            num(self.fsync_floor_us),
            self.filesystem,
            self.profile
        )
    }
}

/// The type of the mounted filesystem holding `path` (longest matching
/// mount point in `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

//! The three workloads: data shape, offered rates and phase split.
//!
//! Every workload runs the same phases (see `e2e`), so every end-to-end
//! metric is measured on every workload, in this order:
//!
//! * a **read phase** — `get` / `get_as_of` / `history` / 16-key `range`
//!   reads in equal shares, closed-loop on one connection (one request
//!   outstanding), with no writes running; on the primary, or on the
//!   replica for `replica_mix`;
//! * a **write phase** — open-loop puts (and 4-key transactions on
//!   `ingest`) on the primary at a fixed rate, timed from their due
//!   times, while a second thread watches the replica for each
//!   acknowledged put;
//! * a **closed phase** — a fixed number of ops of the workload's own mix
//!   on two connections with a fixed pipeline depth, for throughput.
//!
//! What differs is the data shape (tree larger than every cache, deep
//! history, or a hot set that fits), where reads are served, and which
//! phase gets most of the measured time.
//!
//! How the rates and shares were set. The figures come from ten runs per
//! workload at `--seconds 25` (seeds 101–110) on a 2-vCPU x86-64 VM with
//! ext4 and a 60–140 µs fsync floor:
//!
//! | workload    | put p50 | one session's put capacity | closed ops/s |
//! |-------------|---------|----------------------------|--------------|
//! | ingest      | 182 µs  | 5.5k/s                     | 8.4k         |
//! | asof_reads  | 209 µs  | 4.8k/s                     | 19k          |
//! | replica_mix | 168 µs  | 6.0k/s                     | 20k          |
//!
//! * `write_rate` is about a tenth of one session's put capacity
//!   (1 / put p50): the write phase has one writer with one request
//!   outstanding, so its latency is a put's service time with little
//!   queueing behind the writer's own previous put. One writer never
//!   overlaps commits; group commit and the writer lock are loaded by the
//!   closed phase (eight writes in flight), whose `ops_s` is bounded.
//! * The phase that carries the workload's purpose gets the largest
//!   share of `--seconds`: writes on `ingest`, reads on `asof_reads`,
//!   and writes (which feed the replica-visibility samples) on
//!   `replica_mix`.
//! * `closed_ops` fills the rest: at the closed throughput above it takes
//!   the 17–25% of `--seconds` the two shares leave.
//! * Every phase still gives each of its op kinds at least
//!   [`MIN_SAMPLES`] per run at `--seconds 25`.
//!
//! Seeds: runs default to seed 1. Seed 42 is held out: no rate, share or
//! size here was tuned on it, so a claimed gain can be confirmed on it.

/// The op kinds with their own latency samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Durable single-key put.
    Put,
    /// 4-key transaction (begin, 4 writes, commit).
    Txn,
    /// Current-state point read.
    Get,
    /// As-of point read at a past timestamp.
    AsOf,
    /// Version history of one key over a bounded window.
    History,
    /// 16-key range scan as of a past timestamp.
    Scan,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::Put,
        Kind::Txn,
        Kind::Get,
        Kind::AsOf,
        Kind::History,
        Kind::Scan,
    ];

    /// The kinds the read phase draws from.
    pub const READS: [Kind; 4] = [Kind::Get, Kind::AsOf, Kind::History, Kind::Scan];

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Put => "put",
            Kind::Txn => "txn",
            Kind::Get => "get",
            Kind::AsOf => "asof",
            Kind::History => "history",
            Kind::Scan => "scan",
        }
    }
}

/// Keys per range scan.
pub const SCAN_KEYS: u64 = 16;

/// Keys written by one transaction.
pub const TXN_KEYS: usize = 4;

/// Value size of every write, in bytes.
pub const VALUE_BYTES: usize = 48;

/// Every op kind a phase issues gets at least this many samples per run,
/// so a p99 over the run has at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Connections (and generator threads) of the closed phase.
pub const CLOSED_CONNS: usize = 2;

/// Requests each closed-phase connection keeps in flight.
pub const CLOSED_DEPTH: usize = 4;

/// How keys are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keys {
    /// Uniform over the key space.
    Uniform,
    /// Zipfian with skew θ = 0.99 (hot keys are the low indices).
    Zipf,
}

/// What the closed phase issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClosedMix {
    /// Puts, with one op in `txn_every` a 4-key transaction, on both
    /// connections.
    Writes,
    /// The four read kinds in equal shares on both connections.
    Reads,
    /// Puts on the primary on one connection, `get`s on the replica on
    /// the other.
    ReplicaMix,
}

/// One workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Key space size.
    pub keys: u64,
    /// Versions written before the first measured op.
    pub preload_versions: u64,
    /// Whether preload picks each version's key at random (else it walks
    /// the key space round-robin, so every key gets the same count).
    pub preload_random: bool,
    /// Key distribution of every phase.
    pub dist: Keys,
    /// Share of `--seconds` given to the write phase.
    pub write_share: f64,
    /// Offered write rate of the write phase, ops/s: about a tenth of one
    /// session's put capacity (see the module docs).
    pub write_rate: f64,
    /// One write in this many is a 4-key transaction (0 = none).
    pub txn_every: u64,
    /// Share of `--seconds` given to the read phase.
    pub read_share: f64,
    /// Whether the read phase reads from the replica (else the primary).
    pub reads_on_replica: bool,
    /// The closed phase's mix.
    pub closed: ClosedMix,
    /// Ops the closed phases issue per run (about a quarter of
    /// `--seconds` at the throughput this host reaches).
    pub closed_ops: u64,
    /// Fewest samples each op kind of an open-loop phase gets per run.
    pub min_samples: usize,
}

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().find(|s| s.name == name).cloned()
    }

    /// Shrinks the data and rates for the smoke test.
    pub fn tiny(mut self) -> Spec {
        self.keys = (self.keys / 20).max(64);
        self.preload_versions = (self.preload_versions / 20).max(128);
        self.write_rate /= 4.0;
        self.min_samples = 50;
        self.closed_ops /= 50;
        self
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 3] = [
    // The write path on a tree larger than every cache: WAL, group
    // commit, the writer lock, time splits to WORM and buffer write-back.
    Spec {
        name: "ingest",
        keys: 20_000,
        preload_versions: 100_000,
        preload_random: true,
        dist: Keys::Uniform,
        write_share: 0.45,
        write_rate: 600.0,
        txn_every: 20,
        read_share: 0.3,
        reads_on_replica: false,
        closed: ClosedMix::Writes,
        closed_ops: 50_000,
        min_samples: MIN_SAMPLES,
    },
    // The read path through history with the working set larger than the
    // node cache: descent, node decode, WORM reads, large replies.
    Spec {
        name: "asof_reads",
        keys: 20_000,
        preload_versions: 200_000,
        preload_random: false,
        dist: Keys::Uniform,
        write_share: 0.35,
        write_rate: 500.0,
        txn_every: 0,
        read_share: 0.45,
        reads_on_replica: false,
        closed: ClosedMix::Reads,
        closed_ops: 80_000,
        min_samples: MIN_SAMPLES,
    },
    // Writes beside replica reads on a hot set that fits the caches: the
    // writer lock, reader descent, replica apply and the ship cadence.
    // Reads are served by the replica.
    Spec {
        name: "replica_mix",
        keys: 2_000,
        preload_versions: 4_000,
        preload_random: false,
        dist: Keys::Zipf,
        write_share: 0.5,
        write_rate: 600.0,
        txn_every: 0,
        read_share: 0.25,
        reads_on_replica: true,
        closed: ClosedMix::ReplicaMix,
        closed_ops: 100_000,
        min_samples: MIN_SAMPLES,
    },
];

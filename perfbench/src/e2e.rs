//! The untraced run: set-up, the three measured phases, then SIGKILL,
//! reopen and read-back. Every end-to-end metric comes from here.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tsb_client::TsbClient;
use tsb_common::{FsyncPolicy, KeyRange, TimeRange, Timestamp, TsState};
use tsb_core::{ConcurrentTsb, TsbOptions};

use crate::cluster::{self, Server};
use crate::drive::{self, Outcome};
use crate::gate::{Ack, Gate, Wrong};
use crate::gen::{self, key_of, seq_of, Gen, Op};
use crate::report::Metrics;
use crate::spec::{ClosedMix, Kind, Spec, CLOSED_CONNS, CLOSED_DEPTH};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::Error;

/// What one benchmark invocation works with.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The workload.
    pub spec: Spec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds, split between the phases.
    pub seconds: f64,
    /// The `tsb-server` binary.
    pub server_bin: PathBuf,
    /// Work directory: data directories, results and spans.
    pub work: PathBuf,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A served primary with one replica, and the oracle of what it holds.
pub struct Deployment {
    /// The primary `tsb-server`.
    pub primary: Server,
    /// The replica `tsb-server --replica-of <primary>`.
    pub replica: Server,
    /// Everything acknowledged so far.
    pub gate: Gate,
}

/// Builds a deployment under `work/<tag>`: in-process preload through
/// `EngineHandle`, serve the directory, bootstrap the replica, and issue
/// the first op. Returns it with the seconds that took.
pub fn deploy(
    ctx: &Ctx,
    tag: &str,
    preload: &[(u64, Vec<u8>)],
) -> Result<(Deployment, f64), Error> {
    let root = ctx.work.join(tag);
    let _ = std::fs::remove_dir_all(&root);
    let start = Instant::now();
    let mut gate = Gate::default();
    cluster::preload(&root.join("primary"), preload, &mut gate)?;
    let primary = Server::spawn(&ctx.server_bin, &root.join("primary"), &[])?;
    let source = primary.addr.to_string();
    let replica = Server::spawn(
        &ctx.server_bin,
        &root.join("replica"),
        &["--replica-of", &source],
    )?;
    cluster::await_replica(replica.addr, Duration::from_secs(60))?;
    TsbClient::connect(primary.addr)?.ping()?;
    let secs = start.elapsed().as_secs_f64();
    Ok((
        Deployment {
            primary,
            replica,
            gate,
        },
        secs,
    ))
}

/// Deploys [`SETUP_REPS`] times and keeps the last deployment; returns it
/// with the median set-up time.
pub fn deploy_repeated(ctx: &Ctx) -> Result<(Deployment, f64), Error> {
    let preload = gen::preload(&ctx.spec, ctx.seed);
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let (dep, secs) = deploy(ctx, "setup", &preload)?;
        times.push(secs);
        drop(dep);
    }
    let (dep, secs) = deploy(ctx, "setup", &preload)?;
    times.push(secs);
    Ok((dep, median(&times)))
}

/// Removes the data directories a run leaves under the work directory
/// (results and spans stay).
pub fn clean(work: &Path) {
    for dir in ["setup", "traced"] {
        let _ = std::fs::remove_dir_all(work.join(dir));
    }
}

/// Samples and counts gathered by the phases.
#[derive(Default)]
pub struct Tally {
    /// Latency per op kind: from the due time for open-loop writes, from
    /// the send for closed-loop reads.
    pub lat: BTreeMap<Kind, Samples>,
    /// Primary ack → value readable on the replica.
    pub visible: Samples,
    /// How late the open-loop generator sent each op.
    pub late: Samples,
    /// Ops issued and measured.
    pub attempted: u64,
    /// Ops the server failed or refused.
    pub failed: u64,
    /// Closed-phase completed ops per second.
    pub ops_s: f64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        for (k, s) in other.lat {
            self.lat.entry(k).or_default().extend(s);
        }
        self.visible.extend(other.visible);
        self.late.extend(other.late);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts a failed op and says why on stderr.
    fn fail(&mut self, op: &Op, out: Outcome) {
        self.failed += 1;
        if let Outcome::Failed(why) = out {
            eprintln!("perfbench: {op:?} failed: {why}");
        }
    }

    /// Samples of `kind` (empty if none).
    pub fn samples(&self, kind: Kind) -> Samples {
        self.lat.get(&kind).cloned().unwrap_or_default()
    }
}

/// Sequence numbers of the writes each generator stream makes start at
/// `SEQ_BLOCK * stream`, so values stay unique across phases, rounds and
/// threads.
pub const SEQ_BLOCK: u64 = 1 << 32;

/// Measurement rounds per run: each phase runs `ROUNDS` times for
/// `1 / ROUNDS` of its time (or ops), and every end-to-end figure is the
/// median of its per-round values, so a noise burst on the host spoils
/// one round, not the result.
pub const ROUNDS: usize = 5;

/// The generator stream of `phase` in `round` (phases number their
/// streams below 16).
fn stream(round: usize, phase: u64) -> u64 {
    round as u64 * 16 + phase
}

/// Runs the read rounds, then the write rounds, then the closed rounds on
/// `dep`; returns each round's tally. Reads go first so they meet the
/// checkpointed preload, not the dirty pages (and the eviction fsyncs) a
/// write phase leaves; closed phases go last so their backlog — dirty
/// pages, records the replica has yet to apply — lands in no open-loop
/// measurement.
pub fn measure(ctx: &Ctx, dep: &mut Deployment) -> Result<Vec<Tally>, Error> {
    let readers = if ctx.spec.reads_on_replica {
        dep.replica.addr
    } else {
        dep.primary.addr
    };
    let mut rounds: Vec<Tally> = (0..ROUNDS).map(|_| Tally::default()).collect();
    for (round, tally) in rounds.iter_mut().enumerate() {
        read_phase(ctx, round, &dep.gate, readers, tally)?;
    }
    for (round, tally) in rounds.iter_mut().enumerate() {
        write_phase(ctx, round, dep, tally)?;
    }
    for (round, tally) in rounds.iter_mut().enumerate() {
        closed_phase(ctx, round, dep, tally, None)?;
    }
    Ok(rounds)
}

/// Median over `rounds` of `f`.
pub fn per_round(rounds: &[Tally], f: impl Fn(&Tally) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// All rounds' samples and counts in one tally (`ops_s` is the median).
pub fn total(rounds: Vec<Tally>) -> Tally {
    let ops_s = per_round(&rounds, |t| t.ops_s);
    let mut all = Tally::default();
    for t in rounds {
        all.merge(t);
    }
    all.ops_s = ops_s;
    all
}

/// One more closed phase (as round `round`), with spans around every
/// send and receive when given a trace epoch; returns its throughput and
/// the spans.
pub fn closed_phase_once(
    ctx: &Ctx,
    round: usize,
    dep: &mut Deployment,
    trace: Option<Instant>,
) -> Result<(f64, Option<Tracer>), Error> {
    let mut tally = Tally::default();
    let tracer = closed_phase(ctx, round, dep, &mut tally, trace)?;
    Ok((tally.ops_s, tracer))
}

/// Open-loop writes on the primary at `spec.write_rate`; a watcher on the
/// replica times when each acknowledged put becomes readable there.
fn write_phase(
    ctx: &Ctx,
    round: usize,
    dep: &mut Deployment,
    tally: &mut Tally,
) -> Result<(), Error> {
    let spec = &ctx.spec;
    let secs = ctx.seconds * spec.write_share / ROUNDS as f64;
    // 21/20: on `ingest` one write in 20 is a transaction, not a put.
    let n = ((spec.write_rate * secs) as usize).max(spec.min_samples.div_ceil(ROUNDS) * 21 / 20);
    let mut gen = Gen::new(
        spec,
        ctx.seed,
        stream(round, 1),
        SEQ_BLOCK * stream(round, 1),
    );
    let ops: Vec<Op> = (0..n as u64)
        .map(|i| gen.write(i, spec.txn_every))
        .collect();
    let interval = Duration::from_secs_f64(1.0 / spec.write_rate);
    let phase_ts = dep.gate.last_ts;

    let pending: Mutex<VecDeque<(u64, Vec<u8>, Instant)>> = Mutex::new(VecDeque::new());
    let done = AtomicBool::new(false);
    let (primary, replica) = (dep.primary.addr, dep.replica.addr);
    let (writer, watcher) = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch(replica, &pending, &done));
        let writer = (|| -> Result<(Tally, Vec<Ack>), Error> {
            let mut client = TsbClient::connect(primary)?;
            let mut t = Tally::default();
            let mut acks = Vec::with_capacity(n * 2);
            let start = Instant::now() + Duration::from_millis(1);
            for (i, op) in ops.iter().enumerate() {
                let due = start + interval * i as u32;
                t.late.push(drive::wait_until(due));
                t.attempted += 1;
                let out = drive::run(&mut client, op)?;
                let finished = Instant::now();
                match out {
                    Outcome::Acked(a) => {
                        t.lat.entry(op.kind()).or_default().push(finished - due);
                        if let Op::Put { key, value } = op {
                            pending
                                .lock()
                                .expect("no thread panics holding the pending queue")
                                .push_back((*key, value.clone(), finished));
                        }
                        acks.extend(a);
                    }
                    other => t.fail(op, other),
                }
            }
            Ok((t, acks))
        })();
        done.store(true, Ordering::Release);
        (writer, watcher.join().expect("watcher thread"))
    });
    let (t, acks) = writer?;
    let w = watcher?;
    tally.merge(t);
    tally.merge(w.tally);
    // A put that failed may still have committed; its value is legal.
    let mut unacked: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
    let acked: std::collections::HashSet<&Vec<u8>> = acks.iter().map(|a| &a.1).collect();
    for op in &ops {
        if let Op::Put { key, value } = op {
            if !acked.contains(value) {
                unacked.entry(*key).or_default().push(value.clone());
            }
        }
    }
    dep.gate.record(acks);
    for (key, value) in &w.seen {
        dep.gate
            .check_concurrent_get(*key, value, phase_ts, &unacked)?;
    }
    Ok(())
}

/// What the replica watcher saw.
struct Watched {
    tally: Tally,
    seen: Vec<(u64, Option<Vec<u8>>)>,
}

/// Pause between visibility polls of a put not yet seen on the replica.
const POLL_PAUSE: Duration = Duration::from_micros(200);

/// Polls the replica for the oldest acknowledged put not yet seen there,
/// and times from its ack until the replica shows it (or a later write of
/// the same key).
fn watch(
    replica: std::net::SocketAddr,
    pending: &Mutex<VecDeque<(u64, Vec<u8>, Instant)>>,
    done: &AtomicBool,
) -> Result<Watched, Error> {
    let mut client = TsbClient::connect(replica)?;
    let mut out = Watched {
        tally: Tally::default(),
        seen: Vec::new(),
    };
    let mut drained_at: Option<Instant> = None;
    loop {
        let finished = done.load(Ordering::Acquire);
        let front = pending
            .lock()
            .expect("no thread panics holding the pending queue")
            .front()
            .cloned();
        match front {
            Some((key, value, acked)) => {
                let got = client.get(key_of(key))?;
                let visible = got.as_ref().is_some_and(|g| {
                    *g == value || seq_of(g).zip(seq_of(&value)).is_some_and(|(a, b)| a > b)
                });
                out.seen.push((key, got));
                if visible {
                    out.tally.visible.push(acked.elapsed());
                    pending
                        .lock()
                        .expect("no thread panics holding the pending queue")
                        .pop_front();
                    continue;
                }
            }
            None if finished => return Ok(out),
            None => {}
        }
        if finished {
            let since = *drained_at.get_or_insert_with(Instant::now);
            if since.elapsed() > Duration::from_secs(30) {
                return Err(
                    Wrong("acknowledged puts never became visible on the replica".into()).into(),
                );
            }
        }
        drive::wait_until(Instant::now() + POLL_PAUSE);
    }
}

/// Closed-loop reads, one request outstanding, no writes running: the
/// four read kinds in turn until the phase's time is up and each kind has
/// its share of samples. Every answer is checked exactly.
fn read_phase(
    ctx: &Ctx,
    round: usize,
    gate: &Gate,
    addr: std::net::SocketAddr,
    tally: &mut Tally,
) -> Result<(), Error> {
    let spec = &ctx.spec;
    let deadline =
        Instant::now() + Duration::from_secs_f64(ctx.seconds * spec.read_share / ROUNDS as f64);
    let min_ops = spec.min_samples.div_ceil(ROUNDS) * Kind::READS.len();
    let mut gen = Gen::new(spec, ctx.seed, stream(round, 3), 0);
    let mut client = TsbClient::connect(addr)?;
    let mut i = 0;
    while i < min_ops || Instant::now() < deadline {
        let op = gen.read_mix(&Kind::READS, i, gate.first_ts, gate.last_ts);
        i += 1;
        tally.attempted += 1;
        let start = Instant::now();
        match drive::run(&mut client, &op)? {
            Outcome::Read(reply) => {
                tally
                    .lat
                    .entry(op.kind())
                    .or_default()
                    .push(start.elapsed());
                gate.check(&op, &reply)?;
            }
            other => tally.fail(&op, other),
        }
    }
    Ok(())
}

/// The workload's own mix, closed-loop, `CLOSED_CONNS` connections of
/// `CLOSED_DEPTH` requests in flight each, a fixed number of ops per
/// round (so the data the run leaves behind does not depend on how fast
/// the host was); spans every send and receive when given a trace epoch.
fn closed_phase(
    ctx: &Ctx,
    round: usize,
    dep: &mut Deployment,
    tally: &mut Tally,
    trace: Option<Instant>,
) -> Result<Option<Tracer>, Error> {
    let spec = &ctx.spec;
    let per_conn = (spec.closed_ops / (ROUNDS * CLOSED_CONNS) as u64).max(1);
    let gate = &dep.gate;
    let phase_ts = gate.last_ts;
    let (primary, replica) = (dep.primary.addr, dep.replica.addr);
    let start = Instant::now();
    type ConnOut = (
        u64,
        Vec<Ack>,
        Vec<(u64, Option<Vec<u8>>)>,
        Vec<(u64, Vec<u8>)>,
        Option<Tracer>,
    );
    let results: Vec<Result<ConnOut, Error>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLOSED_CONNS)
            .map(|conn| {
                s.spawn(move || -> Result<ConnOut, Error> {
                    let sid = stream(round, 10 + conn as u64);
                    let writes = match spec.closed {
                        ClosedMix::Writes => true,
                        ClosedMix::Reads => false,
                        ClosedMix::ReplicaMix => conn == 0,
                    };
                    let mut gen = Gen::new(spec, ctx.seed, sid, SEQ_BLOCK * sid);
                    if writes {
                        gen = gen.partition(CLOSED_CONNS as u64, conn as u64);
                    }
                    let addr = if writes || spec.closed == ClosedMix::Reads {
                        primary
                    } else {
                        replica
                    };
                    let mut client = TsbClient::connect(addr)?;
                    let (mut failed, mut acks, mut seen, mut sent) =
                        (0, Vec::new(), Vec::new(), Vec::new());
                    let mut i = 0u64;
                    let (t0, t1) = (gate.first_ts, gate.last_ts);
                    let mut tracer = trace.map(Tracer::new);
                    drive::pipelined(
                        &mut client,
                        CLOSED_DEPTH,
                        per_conn,
                        tracer.as_mut(),
                        || {
                            i += 1;
                            if writes {
                                let op = gen.write(i, spec.txn_every);
                                if let Op::Put { key, value } = &op {
                                    sent.push((*key, value.clone()));
                                }
                                op
                            } else if spec.closed == ClosedMix::Reads {
                                gen.read_mix(&Kind::READS, i as usize, t0, t1)
                            } else {
                                Op::Get { key: gen.key() }
                            }
                        },
                        |op, out| {
                            match out {
                                Outcome::Acked(a) => acks.extend(a),
                                Outcome::Failed(why) => {
                                    failed += 1;
                                    eprintln!("perfbench: {op:?} failed: {why}");
                                }
                                Outcome::Read(reply) => match (op, &reply) {
                                    (
                                        Op::Get { key },
                                        tsb_server::protocol::Reply::Value { value },
                                    ) if !writes && spec.closed == ClosedMix::ReplicaMix => {
                                        seen.push((*key, value.clone()))
                                    }
                                    _ => gate.check(op, &reply)?,
                                },
                            }
                            Ok(())
                        },
                    )?;
                    Ok((failed, acks, seen, sent, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (mut ok, mut all_acks, mut all_seen, mut all_sent) =
        (0, Vec::new(), Vec::new(), Vec::new());
    let mut merged = trace.map(Tracer::new);
    for r in results {
        let (failed, a, s, w, t) = r?;
        if let (Some(m), Some(t)) = (merged.as_mut(), t) {
            m.absorb(t);
        }
        ok += per_conn - failed;
        tally.attempted += per_conn;
        tally.failed += failed;
        all_acks.extend(a);
        all_seen.extend(s);
        all_sent.extend(w);
    }
    tally.ops_s = ok as f64 / elapsed;
    let acked: std::collections::HashSet<Vec<u8>> = all_acks.iter().map(|a| a.1.clone()).collect();
    let mut unacked: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
    for (key, value) in all_sent {
        if !acked.contains(&value) {
            unacked.entry(key).or_default().push(value);
        }
    }
    dep.gate.record(all_acks);
    for (key, value) in &all_seen {
        dep.gate
            .check_concurrent_get(*key, value, phase_ts, &unacked)?;
    }
    Ok(merged)
}

/// The end-to-end figures `BENCHMARK.json` bounds (with `setup_s`): those
/// whose spread across runs stayed within the bounds on a 2-vCPU host.
/// The traced run reports the other figures of [`figures`] unbounded, as
/// `e2e.<name>` (`reopen_s` as `recovery.open_s`).
pub const GATED: [&str; 7] = [
    "ops_s",
    "get_p50_us",
    "asof_p50_us",
    "history_p50_us",
    "scan_p50_us",
    "space_amp",
    "rss_mb",
];

/// Every end-to-end figure but `setup_s`, each the median of its
/// per-round values where it has them.
pub fn figures(rounds: &[Tally], crash: &Crash, user_bytes: u64) -> Metrics {
    let mut m = Metrics::default();
    let q = |kind: Kind, q: f64| per_round(rounds, |t| t.samples(kind).quantile_us(q));
    m.add("ops_s", per_round(rounds, |t| t.ops_s), "ops/s");
    m.add("put_p50_us", q(Kind::Put, 0.5), "us");
    m.add("put_p99_us", q(Kind::Put, 0.99), "us");
    m.add("get_p50_us", q(Kind::Get, 0.5), "us");
    m.add("get_p99_us", q(Kind::Get, 0.99), "us");
    m.add("asof_p50_us", q(Kind::AsOf, 0.5), "us");
    m.add("asof_p99_us", q(Kind::AsOf, 0.99), "us");
    m.add("history_p50_us", q(Kind::History, 0.5), "us");
    m.add("history_p99_us", q(Kind::History, 0.99), "us");
    m.add("scan_p50_us", q(Kind::Scan, 0.5), "us");
    m.add(
        "visible_p99_ms",
        per_round(rounds, |t| t.visible.quantile_us(0.99)) / 1e3,
        "ms",
    );
    m.add("reopen_s", crash.reopen_s, "s");
    m.add(
        "space_amp",
        crash.dir_bytes as f64 / user_bytes.max(1) as f64,
        "ratio",
    );
    m.add("rss_mb", crash.rss_mb, "MiB");
    m
}

/// What the crash step measured.
pub struct Crash {
    /// Peak resident memory of the primary, MiB.
    pub rss_mb: f64,
    /// Data-directory bytes at the end of the window.
    pub dir_bytes: u64,
    /// Per-file bytes at the end of the window.
    pub files: Vec<(String, u64)>,
    /// Median seconds to reopen a copy of the killed directory.
    pub reopen_s: f64,
}

/// Reopens of the killed directory; `reopen_s` is their median.
pub const REOPEN_REPS: usize = 7;

/// SIGKILLs both servers, reopens copies of the primary's directory, and
/// checks that every acknowledged write is there.
pub fn crash_and_reopen(ctx: &Ctx, dep: &mut Deployment) -> Result<Crash, Error> {
    let rss_mb = dep.primary.peak_rss_mb();
    dep.primary.kill();
    dep.replica.kill();
    let dir = dep.primary.dir.clone();
    let files = cluster::file_sizes(&dir);
    let dir_bytes = files.iter().map(|(_, n)| n).sum();
    let mut times = Vec::with_capacity(REOPEN_REPS);
    for rep in 0..REOPEN_REPS {
        let copy = dir.with_file_name(format!("reopen{rep}"));
        cluster::copy_dir(&dir, &copy)?;
        let start = Instant::now();
        let db = reopen(&copy)?;
        times.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            verify(&db, &dep.gate, ctx.spec.keys)?;
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&copy);
    }
    Ok(Crash {
        rss_mb,
        dir_bytes,
        files,
        reopen_s: median(&times),
    })
}

/// Opens a killed primary's directory the way `tsb-server` does.
pub fn reopen(dir: &Path) -> Result<ConcurrentTsb, Error> {
    Ok(TsbOptions::durable(dir)
        .fsync(FsyncPolicy::Always)
        .open_concurrent()?)
}

/// Versions per key read back as of their own commit timestamps.
const AS_OF_CHECKS: usize = 16;

/// Reads back every acknowledged write: each key's current value and its
/// whole history, which holds every acknowledged version at its commit
/// timestamp; as-of reads at up to `AS_OF_CHECKS` acknowledged commit
/// timestamps of every 8th key; and ranges.
pub fn verify(db: &ConcurrentTsb, gate: &Gate, keys: u64) -> Result<(), Error> {
    let o = &gate.oracle;
    let mismatch = |what: String| -> Error { Wrong(format!("after reopen: {what}")).into() };
    for (checked, key) in o.keys().enumerate() {
        let want = o.get_current(key);
        if db.get_current(key)? != want {
            return Err(mismatch(format!("current value of {key:?}")));
        }
        let index = key.as_u64().ok_or("a key the benchmark did not write")?;
        let versions = gate.versions_between(index, 0, u64::MAX);
        let got = db.history_between(key, TimeRange::full())?;
        let want_hist: Vec<(Timestamp, &Vec<u8>)> =
            versions.iter().map(|(t, v)| (Timestamp(*t), v)).collect();
        let got_hist: Vec<(Timestamp, &Vec<u8>)> = got
            .iter()
            .filter_map(|v| match (&v.state, &v.value) {
                (TsState::Committed(t), Some(val)) => Some((*t, val)),
                _ => None,
            })
            .collect();
        if got_hist != want_hist {
            return Err(mismatch(format!("history of {key:?}")));
        }
        if !checked.is_multiple_of(8) {
            continue;
        }
        let step = versions.len().div_ceil(AS_OF_CHECKS).max(1);
        for (ts, value) in versions.iter().step_by(step) {
            if db.get_as_of(key, Timestamp(*ts))?.as_ref() != Some(value) {
                return Err(mismatch(format!("{key:?} as of {ts:?}")));
            }
        }
    }
    let ts = Timestamp((gate.first_ts + gate.last_ts) / 2);
    for lo in (0..keys).step_by(997) {
        let range = KeyRange::bounded(key_of(lo), key_of(lo + 16));
        if db.scan_as_of(&range, ts)? != o.scan_as_of(&range, ts) {
            return Err(mismatch(format!("range from {lo} as of {ts:?}")));
        }
    }
    Ok(())
}

//! The traced run: per-layer metrics, never end-to-end ones.
//!
//! One seeded op stream is replayed three ways, with spans around every
//! call the benchmark makes into a layer:
//!
//! 1. over the wire, through `tsb_client::TsbClient`, against the served
//!    primary (`client.*` spans);
//! 2. directly through `tsb_core::EngineHandle` on an identically
//!    preloaded in-process engine (`engine.*` spans), while the main
//!    thread ships its log to an in-process replica with
//!    `ReplicationSource::poll` and `ReplicaEngine::apply_batch`, the way
//!    the replica runner does;
//! 3. through the protocol codec, `encode_request` / `parse_request` /
//!    `encode_reply` / `parse_reply`, on the same ops and the engine's
//!    replies (`protocol.*` spans).
//!
//! The engine's own `io_snapshot()` counters give the tree, cache,
//! buffer, WORM and WAL ratios. The untraced rounds then run as in an
//! untraced run: they give the generator figures and the end-to-end
//! figures too noisy to bound (`e2e.*`). Closed phases alternately
//! untraced and traced give the tracing overhead; the crash step gives
//! space and recovery figures.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tsb_client::TsbClient;
use tsb_common::Timestamp;
use tsb_core::{ConcurrentTsb, EngineHandle, ReplicaEngine, ReplicationSource, TsbOptions};
use tsb_server::protocol::{encode_reply, encode_request, parse_reply, parse_request, Reply};

use crate::cluster;
use crate::drive::{self, Outcome};
use crate::e2e::{self, Ctx};
use crate::gate::{Ack, Gate, Wrong};
use crate::gen::{key_of, scan_range, window, Gen, Op};
use crate::report::{Host, Metrics};
use crate::spec::{Kind, Spec};
use crate::stats::{median, quantile, ratio};
use crate::trace::{self, Tracer};
use crate::Error;

/// Untraced/traced closed-phase pairs that measure the tracing overhead.
const OVERHEAD_PAIRS: usize = 3;

/// Generator stream of the replay (far above the rounds' streams).
const REPLAY_STREAM: u64 = 1 << 20;

/// Replay threads (and connections) of the wire and engine replays.
const REPLAY_THREADS: usize = 2;

/// Pause of the replication loop when caught up (the replica runner's).
const IDLE_POLL: Duration = Duration::from_millis(2);

/// Most bytes one replication poll asks for (the server's cap).
const POLL_BYTES: usize = 1 << 20;

/// The replayed stream: every third op a write (keys partitioned by the
/// replay thread that will issue it), the others cycling through the four
/// read kinds at timestamps within the preload.
pub fn replay_stream(spec: &Spec, seed: u64, gate: &Gate, ops: usize) -> Vec<Op> {
    let mut gens: Vec<Gen> = (0..REPLAY_THREADS as u64)
        .map(|th| {
            let sid = REPLAY_STREAM + th;
            Gen::new(spec, seed, sid, e2e::SEQ_BLOCK * sid).partition(REPLAY_THREADS as u64, th)
        })
        .collect();
    (0..ops)
        .map(|i| {
            let g = &mut gens[i % REPLAY_THREADS];
            if i % 3 == 0 {
                g.write((i / 3) as u64, spec.txn_every)
            } else {
                g.read(Kind::READS[i % 4], gate.first_ts, gate.last_ts)
            }
        })
        .collect()
}

/// Every value the stream writes, by key: legal answers of a `get` that
/// races the replay's own writes.
fn written(stream: &[Op]) -> HashMap<u64, Vec<Vec<u8>>> {
    let mut out: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
    for op in stream {
        match op {
            Op::Put { key, value } => out.entry(*key).or_default().push(value.clone()),
            Op::Txn { writes } => {
                for (k, v) in writes {
                    out.entry(*k).or_default().push(v.clone());
                }
            }
            _ => {}
        }
    }
    out
}

/// Checks a replayed read: exactly, or for a current read, against every
/// value the replay may have written by then.
fn check_read(
    gate: &Gate,
    op: &Op,
    reply: &Reply,
    phase_ts: u64,
    in_flight: &HashMap<u64, Vec<Vec<u8>>>,
) -> Result<(), Wrong> {
    match (op, reply) {
        (Op::Get { key }, Reply::Value { value }) => {
            gate.check_concurrent_get(*key, value, phase_ts, in_flight)
        }
        _ => gate.check(op, reply),
    }
}

fn client_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Put => "client.put",
        Kind::Txn => "client.txn",
        Kind::Get => "client.get",
        Kind::AsOf => "client.get_as_of",
        Kind::History => "client.history",
        Kind::Scan => "client.range",
    }
}

/// Replay 1: the stream over the wire, two connections.
fn wire_replay(
    stream: &[Op],
    addr: SocketAddr,
    gate: &Gate,
    epoch: Instant,
) -> Result<(Tracer, Vec<Ack>), Error> {
    let phase_ts = gate.last_ts;
    let in_flight = written(stream);
    let results: Vec<Result<(Tracer, Vec<Ack>), Error>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..REPLAY_THREADS)
            .map(|th| {
                let in_flight = &in_flight;
                s.spawn(move || -> Result<(Tracer, Vec<Ack>), Error> {
                    let mut client = TsbClient::connect(addr)?;
                    let mut tr = Tracer::new(epoch);
                    let mut acks = Vec::new();
                    for (req, op) in stream.iter().enumerate().skip(th).step_by(REPLAY_THREADS) {
                        let root = tr.begin("op", None, req as u64);
                        let out =
                            tr.span(client_span(op.kind()), Some(root), req as u64, || {
                                drive::run(&mut client, op)
                            })?;
                        tr.end(root);
                        match out {
                            Outcome::Acked(a) => acks.extend(a),
                            Outcome::Read(reply) => {
                                check_read(gate, op, &reply, phase_ts, in_flight)?
                            }
                            Outcome::Failed(why) => {
                                return Err(format!("replayed {op:?} failed: {why}").into())
                            }
                        }
                    }
                    Ok((tr, acks))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wire replay thread"))
            .collect()
    });
    let mut tracer = Tracer::new(epoch);
    let mut acks = Vec::new();
    for r in results {
        let (t, a) = r?;
        tracer.absorb(t);
        acks.extend(a);
    }
    Ok((tracer, acks))
}

/// One op through `EngineHandle`, with a span per call; returns the reply
/// the server would have sent and the acknowledged writes.
fn engine_op(
    db: &ConcurrentTsb,
    op: &Op,
    tr: &mut Tracer,
    root: usize,
    req: u64,
) -> Result<(Reply, Vec<Ack>), Error> {
    let p = Some(root);
    let durable = |tr: &mut Tracer, lsn| -> Result<(), Error> {
        if let Some(lsn) = lsn {
            tr.span("engine.wait_durable", p, req, || {
                EngineHandle::wait_durable(db, lsn)
            })?;
        }
        Ok(())
    };
    Ok(match op {
        Op::Put { key, value } => {
            let (ts, lsn) = tr.span("engine.insert_deferred", p, req, || {
                EngineHandle::insert_deferred(db, key_of(*key), value.clone())
            })?;
            durable(tr, lsn)?;
            (Reply::Committed { ts }, vec![(*key, value.clone(), ts.0)])
        }
        Op::Txn { writes } => {
            let (ts, lsn) = tr.span("engine.txn", p, req, || {
                let txn = EngineHandle::begin_txn(db)?;
                for (k, v) in writes {
                    EngineHandle::txn_insert(db, txn, key_of(*k), v.clone())?;
                }
                EngineHandle::commit_txn_deferred(db, txn)
            })?;
            durable(tr, lsn)?;
            let acks = writes.iter().map(|(k, v)| (*k, v.clone(), ts.0)).collect();
            (Reply::Committed { ts }, acks)
        }
        Op::Get { key } => {
            let value = tr.span("engine.get_current", p, req, || {
                EngineHandle::get_current(db, &key_of(*key))
            })?;
            (Reply::Value { value }, Vec::new())
        }
        Op::AsOf { key, ts } => {
            let value = tr.span("engine.get_as_of", p, req, || {
                EngineHandle::get_as_of(db, &key_of(*key), Timestamp(*ts))
            })?;
            (Reply::Value { value }, Vec::new())
        }
        Op::History { key, lo, hi } => {
            let versions = tr.span("engine.history_between", p, req, || {
                EngineHandle::history_between(db, &key_of(*key), window(*lo, *hi))
            })?;
            (Reply::Versions { versions }, Vec::new())
        }
        Op::Scan { lo, ts } => {
            let rows = tr.span("engine.scan_as_of", p, req, || {
                EngineHandle::scan_as_of(db, &scan_range(*lo), Timestamp(*ts))
            })?;
            (Reply::Rows { rows }, Vec::new())
        }
    })
}

/// What the replication loop measured.
#[derive(Default)]
struct Shipping {
    records: u64,
    batches: u64,
    lag_max: u64,
    apply_ns: u64,
    /// Durations of the polls that returned records (an idle poll, made
    /// while caught up, is left out).
    poll_ns: Vec<u64>,
}

/// Replay 2: the stream through `EngineHandle` on two threads, while this
/// thread ships the log to `replica`. Returns the spans, the replies by
/// stream index, the acknowledged writes and the shipping figures.
type EngineReplay = (Tracer, Vec<Option<Reply>>, Vec<Ack>, Shipping);

fn engine_replay(
    stream: &[Op],
    db: &ConcurrentTsb,
    gate: &Gate,
    source: &ReplicationSource,
    replica: &ReplicaEngine,
    epoch: Instant,
) -> Result<EngineReplay, Error> {
    let phase_ts = gate.last_ts;
    let in_flight = written(stream);
    type Out = (Tracer, Vec<(usize, Reply)>, Vec<Ack>);
    let (results, shipping) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..REPLAY_THREADS)
            .map(|th| {
                let in_flight = &in_flight;
                s.spawn(move || -> Result<Out, Error> {
                    let mut tr = Tracer::new(epoch);
                    let (mut replies, mut acks) = (Vec::new(), Vec::new());
                    for (req, op) in stream.iter().enumerate().skip(th).step_by(REPLAY_THREADS) {
                        let root = tr.begin("op", None, req as u64);
                        let (reply, a) = engine_op(db, op, &mut tr, root, req as u64)?;
                        tr.end(root);
                        if a.is_empty() {
                            check_read(gate, op, &reply, phase_ts, in_flight)?;
                        }
                        acks.extend(a);
                        replies.push((req, reply));
                    }
                    Ok((tr, replies, acks))
                })
            })
            .collect();
        let mut shipping_tr = Tracer::new(epoch);
        let shipping = ship(source, replica, &handles, &mut shipping_tr);
        let results: Vec<Result<Out, Error>> = handles
            .into_iter()
            .map(|h| h.join().expect("engine replay thread"))
            .collect();
        (results, shipping.map(|s| (s, shipping_tr)))
    });
    let (shipping, shipping_tr) = shipping?;
    let mut tracer = shipping_tr;
    let mut replies: Vec<Option<Reply>> = vec![None; stream.len()];
    let mut acks = Vec::new();
    for r in results {
        let (t, rs, a) = r?;
        tracer.absorb(t);
        for (i, reply) in rs {
            replies[i] = Some(reply);
        }
        acks.extend(a);
    }
    Ok((tracer, replies, acks, shipping))
}

/// The replica runner's loop, in-process: poll the source from the
/// replica's cursor, apply, pause when caught up; stop once the replay
/// threads have finished and everything durable has been applied.
fn ship<T>(
    source: &ReplicationSource,
    replica: &ReplicaEngine,
    replayers: &[std::thread::ScopedJoinHandle<'_, T>],
    tr: &mut Tracer,
) -> Result<Shipping, Error> {
    let mut out = Shipping::default();
    loop {
        let finished = replayers.iter().all(|h| h.is_finished());
        let lag = source
            .durable_lsn()
            .saturating_sub(replica.status().applied_lsn);
        out.lag_max = out.lag_max.max(lag);
        let from = replica.resume_lsn().ok_or("replica has no resume cursor")?;
        let poll = tr.begin("replication.poll", None, 0);
        let batch = source.poll(from, replica.worm_have(), POLL_BYTES)?;
        tr.end(poll);
        if batch.needs_rebase {
            return Err("the replica fell behind a checkpoint".into());
        }
        let n = batch.records.len() as u64;
        let id = tr.begin("replica.apply_batch", None, 0);
        replica.apply_batch(&batch)?;
        tr.end(id);
        if n > 0 {
            let (p, s) = (&tr.spans[poll], &tr.spans[id]);
            out.poll_ns.push(p.end - p.start);
            out.apply_ns += s.end - s.start;
            out.records += n;
            out.batches += 1;
        } else if finished {
            return Ok(out);
        } else {
            std::thread::sleep(IDLE_POLL);
        }
    }
}

/// Replay 3: the stream's requests and the engine's replies through the
/// codec. Returns the spans and the frame bytes. Transactions (several
/// requests each) are left out.
fn codec_replay(
    stream: &[Op],
    replies: &[Option<Reply>],
    epoch: Instant,
) -> Result<(Tracer, u64, u64), Error> {
    let mut tr = Tracer::new(epoch);
    let (mut bytes, mut ops) = (0u64, 0u64);
    for (i, (op, reply)) in stream.iter().zip(replies).enumerate() {
        let Some(reply) = reply.as_ref().filter(|_| op.kind() != Kind::Txn) else {
            continue;
        };
        let id = i as u64;
        let root = tr.begin("op", None, id);
        let request = op.request();
        let frame = tr.span("protocol.encode_request", Some(root), id, || {
            encode_request(id, &request)
        });
        let parsed = tr.span("protocol.parse_request", Some(root), id, || {
            parse_request(&frame[8..])
        })?;
        let rframe = tr.span("protocol.encode_reply", Some(root), id, || {
            encode_reply(id, reply)
        });
        let rparsed = tr.span("protocol.parse_reply", Some(root), id, || {
            parse_reply(&rframe[8..])
        })?;
        tr.end(root);
        if parsed != (id, request) || rparsed != (id, reply.clone()) {
            return Err(Wrong(format!("codec round trip changed {op:?}")).into());
        }
        bytes += (frame.len() + rframe.len()) as u64;
        ops += 1;
    }
    Ok((tr, bytes, ops))
}

/// p50 (µs) of the durations of spans named `name`.
fn p50_us(tr: &Tracer, name: &str) -> f64 {
    quantile(&tr.durations(name), 0.5) as f64 / 1e3
}

/// p50 (µs) of the root `op` spans of `kind` ops.
fn op_p50_us(tr: &Tracer, stream: &[Op], kind: Kind) -> f64 {
    let d: Vec<u64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "op" && stream[s.req as usize].kind() == kind)
        .map(|s| s.end - s.start)
        .collect();
    quantile(&d, 0.5) as f64 / 1e3
}

/// Total self time (µs) of the spans whose names start with `prefix`,
/// per replayed op.
fn self_us_per_op(spans: &[trace::Span], prefix: &str, ops: usize) -> f64 {
    let total: u64 = trace::self_time_by_name(spans)
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, (ns, _))| ns)
        .sum();
    ratio(total as f64 / 1e3, ops as f64)
}

/// Runs the traced replays and returns the per-layer metrics with the
/// attempted and failed op counts.
pub fn run(ctx: &Ctx, host: &Host) -> Result<(Metrics, u64, u64), Error> {
    let spec = &ctx.spec;
    let epoch = Instant::now();
    let preload = crate::gen::preload(spec, ctx.seed);
    let (mut dep, _) = e2e::deploy(ctx, "traced", &preload)?;
    let root = ctx.work.join("traced");

    // An identically preloaded in-process engine and an empty replica.
    let engine_dir = root.join("engine");
    let mut egate = Gate::default();
    cluster::preload(&engine_dir, &preload, &mut egate)?;
    let db = e2e::reopen(&engine_dir)?;
    let replica = TsbOptions::durable(root.join("engine-replica")).open_replica()?;
    let source = ReplicationSource::new(&db)?;

    // Each read kind gets about half the samples a run's phases give it.
    let ops = 3 * spec.min_samples;
    let stream = replay_stream(spec, ctx.seed, &dep.gate, ops);
    let writes = stream.iter().filter(|op| op.is_write()).count();

    // 1. Wire.
    let (wire, wire_acks) = wire_replay(&stream, dep.primary.addr, &dep.gate, epoch)?;
    dep.gate.record(wire_acks);

    // 2. Engine, with the replica base and log shipping alongside.
    let mut base_tr = Tracer::new(epoch);
    let base_span = base_tr.begin("replica.base", None, 0);
    let base = base_tr.span("replication.base", Some(base_span), 0, || source.base())?;
    base_tr.span("replica.install_base", Some(base_span), 0, || {
        replica.install_base(&base)
    })?;
    base_tr.end(base_span);
    let before = EngineHandle::io_snapshot(&db);
    let (engine, replies, engine_acks, shipping) =
        engine_replay(&stream, &db, &egate, &source, &replica, epoch)?;
    let io = EngineHandle::io_snapshot(&db).delta_since(&before);
    egate.record(engine_acks);
    for key in written(&stream).keys() {
        if replica.get_current(&key_of(*key))? != EngineHandle::get_current(&db, &key_of(*key))? {
            return Err(Wrong(format!("replica disagrees with its primary on key {key}")).into());
        }
    }

    // 3. Codec.
    let (codec, frame_bytes, codec_ops) = codec_replay(&stream, &replies, epoch)?;

    // The untraced rounds (generator figures), then the tracing overhead:
    // closed phases alternately untraced and traced.
    let rounds = e2e::measure(ctx, &mut dep)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut closed = Tracer::new(epoch);
    for pair in 0..OVERHEAD_PAIRS {
        let round = e2e::ROUNDS + 2 * pair;
        untraced.push(e2e::closed_phase_once(ctx, round, &mut dep, None)?.0);
        let (ops_s, spans) = e2e::closed_phase_once(ctx, round + 1, &mut dep, Some(epoch))?;
        traced.push(ops_s);
        closed.absorb(spans.expect("traced closed phase"));
    }
    let (untraced_ops_s, traced_ops_s) = (median(&untraced), median(&traced));
    let crash = e2e::crash_and_reopen(ctx, &mut dep)?;
    let unbounded: Vec<_> = e2e::figures(&rounds, &crash, dep.gate.user_bytes)
        .0
        .into_iter()
        .filter(|f| !e2e::GATED.contains(&f.name.as_str()) && f.name != "reopen_s")
        .collect();
    let tally = e2e::total(rounds);

    let n = stream.len() as f64;
    let w = writes as f64;
    let mut m = Metrics::default();
    // client + server wire: served p50 minus EngineHandle p50, same stream.
    for kind in [Kind::Put, Kind::Get, Kind::AsOf] {
        let served = p50_us(&wire, client_span(kind));
        let direct = op_p50_us(&engine, &stream, kind);
        m.add(
            format!("wire.{}_overhead_us", kind.name()),
            served - direct,
            "us",
        );
    }
    let encode = [
        codec.durations("protocol.encode_request"),
        codec.durations("protocol.encode_reply"),
    ]
    .concat();
    let parse = [
        codec.durations("protocol.parse_request"),
        codec.durations("protocol.parse_reply"),
    ]
    .concat();
    m.add("protocol.encode_ns", quantile(&encode, 0.5) as f64, "ns");
    m.add("protocol.parse_ns", quantile(&parse, 0.5) as f64, "ns");
    m.add(
        "protocol.bytes_per_op",
        ratio(frame_bytes as f64, codec_ops as f64),
        "B",
    );

    m.add(
        "concurrent.lock_wait_us_per_op",
        io.writer_lock_wait_nanos as f64 / 1e3 / n,
        "us",
    );
    m.add(
        "concurrent.lock_waits_per_op",
        io.writer_lock_waits as f64 / n,
        "count",
    );

    m.add(
        "engine.insert_us",
        p50_us(&engine, "engine.insert_deferred"),
        "us",
    );
    m.add("engine.get_us", p50_us(&engine, "engine.get_current"), "us");
    m.add("engine.asof_us", p50_us(&engine, "engine.get_as_of"), "us");
    m.add(
        "engine.history_us",
        p50_us(&engine, "engine.history_between"),
        "us",
    );
    m.add("engine.scan_us", p50_us(&engine, "engine.scan_as_of"), "us");
    m.add(
        "tree.current_nodes_per_op",
        io.node_accesses_current as f64 / n,
        "count",
    );
    m.add(
        "tree.historical_nodes_per_op",
        io.node_accesses_historical as f64 / n,
        "count",
    );

    m.add(
        "cache.node_hit_ratio",
        ratio(
            io.node_cache_hits as f64,
            (io.node_cache_hits + io.node_cache_misses) as f64,
        ),
        "ratio",
    );
    m.add("cache.decodes_per_op", io.node_decodes as f64 / n, "count");
    m.add("cache.encodes_per_op", io.node_encodes as f64 / n, "count");

    m.add(
        "buffer.hit_ratio",
        ratio(
            io.cache_hits as f64,
            (io.cache_hits + io.cache_misses) as f64,
        ),
        "ratio",
    );
    m.add(
        "magnetic.reads_per_op",
        io.magnetic_reads as f64 / n,
        "count",
    );
    m.add(
        "magnetic.writes_per_op",
        io.magnetic_writes as f64 / n,
        "count",
    );

    m.add("worm.appends_per_op", io.worm_appends as f64 / n, "count");
    m.add("worm.reads_per_op", io.worm_reads as f64 / n, "count");

    let waits = engine.durations("engine.wait_durable");
    m.add(
        "engine.durable_wait_us_p50",
        quantile(&waits, 0.5) as f64 / 1e3,
        "us",
    );
    m.add(
        "engine.durable_wait_us_p99",
        quantile(&waits, 0.99) as f64 / 1e3,
        "us",
    );
    m.add(
        "wal.syncs_per_commit",
        ratio(io.wal_syncs as f64, io.wal_commits as f64),
        "ratio",
    );
    m.add(
        "wal.commits_per_fsync",
        ratio(io.wal_commits as f64, io.wal_syncs as f64),
        "ratio",
    );
    m.add(
        "wal.group_commit_wait_us_per_op",
        ratio(io.group_commit_wait_nanos as f64 / 1e3, w),
        "us",
    );
    m.add(
        "wal.bytes_per_op",
        ratio(io.wal_bytes_appended as f64, w),
        "B",
    );
    m.add("wal.fsync_floor_us", host.fsync_floor_us, "us");

    let file = |name: &str| {
        crash
            .files
            .iter()
            .find(|(f, _)| f == name)
            .map_or(0, |(_, b)| *b) as f64
    };
    let user = dep.gate.user_bytes.max(1) as f64;
    m.add("space.wal_per_user_byte", file("redo.wal") / user, "ratio");
    m.add(
        "space.magnetic_per_user_byte",
        file("current.pages") / user,
        "ratio",
    );
    m.add(
        "space.worm_per_user_byte",
        file("history.worm") / user,
        "ratio",
    );
    m.add("recovery.wal_bytes_replayed", file("redo.wal"), "B");
    m.add("recovery.open_s", crash.reopen_s, "s");

    m.add(
        "replication.poll_us",
        quantile(&shipping.poll_ns, 0.5) as f64 / 1e3,
        "us",
    );
    m.add(
        "replication.records_per_batch",
        ratio(shipping.records as f64, shipping.batches as f64),
        "count",
    );
    m.add(
        "replica.apply_us_per_record",
        ratio(shipping.apply_ns as f64 / 1e3, shipping.records as f64),
        "us",
    );
    m.add("replica.lag_records_max", shipping.lag_max as f64, "count");
    m.add(
        "replica.base_s",
        quantile(&base_tr.durations("replica.base"), 0.5) as f64 / 1e9,
        "s",
    );

    m.add("gen.late_p99_us", tally.late.quantile_us(0.99), "us");
    // Transactions run on `ingest` only; the untraced run prints their
    // count.
    for kind in Kind::ALL.into_iter().filter(|k| *k != Kind::Txn) {
        m.add(
            format!("gen.samples_{}", kind.name()),
            tally.samples(kind).len() as f64,
            "count",
        );
    }
    m.add("gen.samples_visible", tally.visible.len() as f64, "count");

    // Self time per layer, per replayed op.
    m.add(
        "self.client_us",
        self_us_per_op(&wire.spans, "client.", ops),
        "us",
    );
    m.add(
        "self.engine_us",
        self_us_per_op(&engine.spans, "engine.", ops),
        "us",
    );
    m.add(
        "self.codec_us",
        self_us_per_op(&codec.spans, "protocol.", ops),
        "us",
    );
    m.add(
        "self.replication_us",
        self_us_per_op(&engine.spans, "replication.", ops),
        "us",
    );
    m.add(
        "self.replica_us",
        self_us_per_op(&engine.spans, "replica.", ops),
        "us",
    );
    m.add(
        "self.bench_us",
        self_us_per_op(&engine.spans, "op", ops),
        "us",
    );

    m.add("trace.ops_s_untraced", untraced_ops_s, "ops/s");
    m.add("trace.ops_s_traced", traced_ops_s, "ops/s");
    m.add(
        "trace.overhead_pct",
        ratio(untraced_ops_s - traced_ops_s, untraced_ops_s) * 100.0,
        "%",
    );
    m.add("host.nproc", host.nproc as f64, "count");
    // End-to-end figures too noisy to bound, from the untraced rounds.
    for f in unbounded {
        m.add(format!("e2e.{}", f.name), f.value, f.unit);
    }

    let mut spans = Tracer::new(epoch);
    for t in [wire, engine, codec, base_tr, closed] {
        spans.absorb(t);
    }
    let span_file = ctx
        .work
        .join(format!("spans-{}-seed{}.tsv", spec.name, ctx.seed));
    trace::write(&span_file, &spans.spans)?;
    println!(
        "spans: {} written to {}",
        spans.spans.len(),
        span_file.display()
    );
    Ok((m, tally.attempted + 2 * ops as u64, tally.failed))
}

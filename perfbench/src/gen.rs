//! Seeded generation of everything the program receives: preload writes,
//! and the ops of each phase. The same seed gives the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsb_common::{Key, KeyRange, TimeRange, Timestamp};
use tsb_server::protocol::Request;
use tsb_workload::distributions::KeySampler;
use tsb_workload::KeyDistribution;

use crate::spec::{Keys, Kind, Spec, SCAN_KEYS, TXN_KEYS, VALUE_BYTES};

/// One generated operation. Keys are indices into the key space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Durable put.
    Put { key: u64, value: Vec<u8> },
    /// 4-key transaction.
    Txn { writes: Vec<(u64, Vec<u8>)> },
    /// Current-state read.
    Get { key: u64 },
    /// As-of read.
    AsOf { key: u64, ts: u64 },
    /// History of `key` over `[lo, hi)`.
    History { key: u64, lo: u64, hi: u64 },
    /// `SCAN_KEYS` keys from `lo`, as of `ts`.
    Scan { lo: u64, ts: u64 },
}

impl Op {
    /// The op's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Put { .. } => Kind::Put,
            Op::Txn { .. } => Kind::Txn,
            Op::Get { .. } => Kind::Get,
            Op::AsOf { .. } => Kind::AsOf,
            Op::History { .. } => Kind::History,
            Op::Scan { .. } => Kind::Scan,
        }
    }

    /// The single wire request of every kind but `Txn` (which is a
    /// sequence of requests; see `drive::txn`).
    pub fn request(&self) -> Request {
        match self {
            Op::Put { key, value } => Request::Put {
                key: key_of(*key),
                value: value.clone(),
            },
            Op::Get { key } => Request::Get { key: key_of(*key) },
            Op::AsOf { key, ts } => Request::GetAsOf {
                key: key_of(*key),
                as_of: Timestamp(*ts),
            },
            Op::History { key, lo, hi } => Request::History {
                key: key_of(*key),
                window: window(*lo, *hi),
            },
            Op::Scan { lo, ts } => Request::Range {
                range: scan_range(*lo),
                as_of: Some(Timestamp(*ts)),
            },
            Op::Txn { .. } => unreachable!("a transaction is several requests"),
        }
    }

    /// Whether the op writes.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Put { .. } | Op::Txn { .. })
    }
}

/// The engine key of key index `k`.
pub fn key_of(k: u64) -> Key {
    Key::from_u64(k)
}

/// The history window `[lo, hi)`.
pub fn window(lo: u64, hi: u64) -> TimeRange {
    TimeRange::bounded(Timestamp(lo), Timestamp(hi))
}

/// The scan range starting at key index `lo`.
pub fn scan_range(lo: u64) -> KeyRange {
    KeyRange::bounded(key_of(lo), key_of(lo + SCAN_KEYS))
}

/// The value of the `seq`-th write of a run: unique per write, and it
/// names its key and sequence number so a replica answer can be traced to
/// the write that produced it.
pub fn value(seed: u64, key: u64, seq: u64) -> Vec<u8> {
    let mut v = format!("{key:010}.{seq:012}.{seed:016x}").into_bytes();
    v.resize(VALUE_BYTES, b'.');
    v
}

/// The sequence number a [`value`] carries.
pub fn seq_of(value: &[u8]) -> Option<u64> {
    std::str::from_utf8(value.get(11..23)?).ok()?.parse().ok()
}

/// Seeded op source for one phase.
pub struct Gen {
    rng: StdRng,
    sampler: KeySampler,
    keys: u64,
    seed: u64,
    /// Sequence number of the next write.
    next_seq: u64,
    /// `(parts, part)`: draw only keys `k` with `k % parts == part`, so
    /// concurrent writers never touch the same key.
    part: (u64, u64),
}

impl Gen {
    /// A generator for `spec` whose stream is fixed by `(seed, stream)`;
    /// writes are numbered from `first_seq`.
    pub fn new(spec: &Spec, seed: u64, stream: u64, first_seq: u64) -> Gen {
        let dist = match spec.dist {
            Keys::Uniform => KeyDistribution::Uniform,
            Keys::Zipf => KeyDistribution::Zipfian { theta: 0.99 },
        };
        Gen {
            rng: StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            sampler: KeySampler::new(dist, spec.keys),
            keys: spec.keys,
            seed,
            next_seq: first_seq,
            part: (1, 0),
        }
    }

    /// Restricts drawn keys to residue `part` modulo `parts`.
    pub fn partition(mut self, parts: u64, part: u64) -> Gen {
        self.part = (parts, part);
        self
    }

    /// A key drawn from the workload's distribution (within the
    /// partition, if any).
    pub fn key(&mut self) -> u64 {
        let (parts, part) = self.part;
        let k = self.sampler.sample(&mut self.rng) / parts * parts + part;
        if k >= self.keys {
            k - parts
        } else {
            k
        }
    }

    fn next_value(&mut self, key: u64) -> Vec<u8> {
        let v = value(self.seed, key, self.next_seq);
        self.next_seq += 1;
        v
    }

    /// A put of a freshly drawn key.
    pub fn put(&mut self) -> Op {
        let key = self.key();
        let value = self.next_value(key);
        Op::Put { key, value }
    }

    /// A transaction writing `TXN_KEYS` distinct keys.
    pub fn txn(&mut self) -> Op {
        let mut keys: Vec<u64> = Vec::with_capacity(TXN_KEYS);
        while keys.len() < TXN_KEYS.min(self.keys as usize) {
            let k = self.key();
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let writes = keys.into_iter().map(|k| (k, self.next_value(k))).collect();
        Op::Txn { writes }
    }

    /// The `i`-th write of a phase where one write in `txn_every` is a
    /// transaction.
    pub fn write(&mut self, i: u64, txn_every: u64) -> Op {
        if txn_every > 0 && i % txn_every == txn_every - 1 {
            self.txn()
        } else {
            self.put()
        }
    }

    /// A read of `kind` over committed timestamps `[t0, t1]`.
    pub fn read(&mut self, kind: Kind, t0: u64, t1: u64) -> Op {
        let t1 = t1.max(t0 + 1);
        match kind {
            Kind::Get => Op::Get { key: self.key() },
            Kind::AsOf => Op::AsOf {
                key: self.key(),
                ts: self.rng.gen_range(t0..t1),
            },
            Kind::History => {
                // A random quarter of the time span.
                let span = ((t1 - t0) / 4).max(1);
                let lo = self.rng.gen_range(t0..(t1 - span).max(t0 + 1));
                Op::History {
                    key: self.key(),
                    lo,
                    hi: lo + span,
                }
            }
            Kind::Scan => Op::Scan {
                lo: self.key().min(self.keys.saturating_sub(SCAN_KEYS)),
                ts: self.rng.gen_range(t0..t1),
            },
            Kind::Put | Kind::Txn => unreachable!("not a read kind"),
        }
    }

    /// The `i`-th op of a read phase cycling through `kinds`.
    pub fn read_mix(&mut self, kinds: &[Kind], i: usize, t0: u64, t1: u64) -> Op {
        self.read(kinds[i % kinds.len()], t0, t1)
    }
}

/// The preload writes of `spec` under `seed`, as `(key, value)` in order.
pub fn preload(spec: &Spec, seed: u64) -> Vec<(u64, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0000);
    (0..spec.preload_versions)
        .map(|seq| {
            let key = if spec.preload_random {
                rng.gen_range(0..spec.keys)
            } else {
                seq % spec.keys
            };
            (key, value(seed, key, seq))
        })
        .collect()
}

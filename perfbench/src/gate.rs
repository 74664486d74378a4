//! The correctness gate: every answer is checked against a
//! [`tsb_workload::Oracle`] holding the generated inputs at their
//! acknowledged commit timestamps. A wrong answer is a [`Wrong`] error,
//! which fails the run; it is never counted as a completed op.

use std::collections::{HashMap, HashSet};
use std::fmt;

use tsb_common::{Timestamp, TsState, Version};
use tsb_server::protocol::Reply;
use tsb_workload::Oracle;

use crate::gen::{key_of, scan_range, seq_of, Op};

/// A wrong answer, described for the error report.
#[derive(Debug)]
pub struct Wrong(pub String);

impl fmt::Display for Wrong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wrong answer: {}", self.0)
    }
}

impl std::error::Error for Wrong {}

/// The oracle plus the commit-timestamp span reads draw from.
#[derive(Default)]
pub struct Gate {
    /// Every acknowledged write at its commit timestamp.
    pub oracle: Oracle,
    /// Oldest acknowledged commit timestamp.
    pub first_ts: u64,
    /// Newest acknowledged commit timestamp.
    pub last_ts: u64,
    /// Key + value bytes of every acknowledged write.
    pub user_bytes: u64,
    /// Every acknowledged value (values are unique per write).
    values: HashSet<Vec<u8>>,
    /// Each key's `(commit ts, value)` in commit order, for history
    /// checks without copying the oracle's version lists.
    history: HashMap<u64, Vec<(u64, Vec<u8>)>>,
}

/// An acknowledged write: what was written and the commit timestamp the
/// ack carried.
pub type Ack = (u64, Vec<u8>, u64);

impl Gate {
    /// Records acknowledged writes. They may come from several
    /// connections; the oracle needs each key's versions in commit order.
    pub fn record(&mut self, mut acks: Vec<Ack>) {
        acks.sort_by_key(|a| a.2);
        for (key, value, ts) in acks {
            if self.first_ts == 0 || ts < self.first_ts {
                self.first_ts = ts;
            }
            self.last_ts = self.last_ts.max(ts);
            self.user_bytes += 8 + value.len() as u64;
            self.values.insert(value.clone());
            self.history
                .entry(key)
                .or_default()
                .push((ts, value.clone()));
            self.oracle.put(key_of(key), Timestamp(ts), value);
        }
    }

    /// Checks the reply to a read `op` issued while no write ran.
    pub fn check(&self, op: &Op, reply: &Reply) -> Result<(), Wrong> {
        let o = &self.oracle;
        let ok = match (op, reply) {
            (Op::Get { key }, Reply::Value { value }) => *value == o.get_current(&key_of(*key)),
            (Op::AsOf { key, ts }, Reply::Value { value }) => {
                *value == o.get_as_of(&key_of(*key), Timestamp(*ts))
            }
            (Op::History { key, lo, hi }, Reply::Versions { versions }) => {
                self.history_matches(*key, *lo, *hi, versions)
            }
            (Op::Scan { lo, ts }, Reply::Rows { rows }) => {
                *rows == o.scan_as_of(&scan_range(*lo), Timestamp(*ts))
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(Wrong(format!("{op:?} answered {reply:?}")))
        }
    }

    /// Checks a current-state read served while writes ran elsewhere (on
    /// a replica, or on the primary beside a writer): the value must be
    /// one some write of that key produced — preloaded, acknowledged, or
    /// `in_flight` when the phase ended — and absent only if the key had
    /// no value when the phase began at `phase_ts`.
    pub fn check_concurrent_get(
        &self,
        key: u64,
        value: &Option<Vec<u8>>,
        phase_ts: u64,
        in_flight: &HashMap<u64, Vec<Vec<u8>>>,
    ) -> Result<(), Wrong> {
        let Some(v) = value else {
            return match self.oracle.get_as_of(&key_of(key), Timestamp(phase_ts)) {
                None => Ok(()),
                Some(_) => Err(Wrong(format!("key {key} read as absent"))),
            };
        };
        // A value names its key, so membership in the set of
        // acknowledged values pins the key too.
        let own_key = seq_of(v).is_some() && v.starts_with(format!("{key:010}.").as_bytes());
        let known = own_key && self.values.contains(v)
            || in_flight.get(&key).is_some_and(|vs| vs.contains(v));
        if known {
            Ok(())
        } else {
            Err(Wrong(format!(
                "key {key} read as {:?}, which no write produced",
                String::from_utf8_lossy(v)
            )))
        }
    }
}

impl Gate {
    /// The acknowledged versions of `key` committed in `[lo, hi)`.
    pub fn versions_between(&self, key: u64, lo: u64, hi: u64) -> &[(u64, Vec<u8>)] {
        let Some(all) = self.history.get(&key) else {
            return &[];
        };
        let from = all.partition_point(|(t, _)| *t < lo);
        let to = all.partition_point(|(t, _)| *t < hi);
        &all[from..to]
    }

    fn history_matches(&self, key: u64, lo: u64, hi: u64, got: &[Version]) -> bool {
        let want = self.versions_between(key, lo, hi);
        want.len() == got.len()
            && want.iter().zip(got).all(|((t, v), g)| {
                g.key == key_of(key)
                    && g.state == TsState::Committed(Timestamp(*t))
                    && g.value.as_ref() == Some(v)
            })
    }
}

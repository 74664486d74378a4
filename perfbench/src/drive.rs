//! Issuing generated ops over a [`TsbClient`]: one op at a time for the
//! open-loop phases, or with a fixed pipeline depth for the closed phase.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tsb_client::TsbClient;
use tsb_server::protocol::Reply;

use crate::gate::Ack;
use crate::gen::{key_of, Op};
use crate::trace::Tracer;
use crate::Error;

/// What a completed op produced.
pub enum Outcome {
    /// A read's reply, to be checked.
    Read(Reply),
    /// A write's acknowledged versions.
    Acked(Vec<Ack>),
    /// The server refused or failed the op (counted, never checked).
    Failed(String),
}

/// Interprets a single-request op's reply.
pub fn outcome(op: &Op, reply: Reply) -> Outcome {
    match (op, reply) {
        (_, Reply::Error { code, message }) => Outcome::Failed(format!("code {code}: {message}")),
        (Op::Put { key, value }, Reply::Committed { ts }) => {
            Outcome::Acked(vec![(*key, value.clone(), ts.0)])
        }
        (Op::Put { .. }, other) => Outcome::Failed(format!("put answered {other:?}")),
        (_, reply) => Outcome::Read(reply),
    }
}

/// Runs `op` to completion on `client`. Transport errors are errors; a
/// server-side refusal is [`Outcome::Failed`] (for a transaction, any
/// error is).
pub fn run(client: &mut TsbClient, op: &Op) -> Result<Outcome, Error> {
    match op {
        Op::Txn { writes } => Ok(txn(client, writes)),
        _ => {
            let id = client.send(&op.request())?;
            Ok(outcome(op, client.wait_for(id)?))
        }
    }
}

fn txn(client: &mut TsbClient, writes: &[(u64, Vec<u8>)]) -> Outcome {
    let result = (|| {
        let txn = client.txn_begin()?;
        for (key, value) in writes {
            client.txn_write(txn, key_of(*key), Some(value.clone()))?;
        }
        client.txn_commit(txn)
    })();
    match result {
        Ok(ts) => Outcome::Acked(writes.iter().map(|(k, v)| (*k, v.clone(), ts.0)).collect()),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Waits until `due` without sleeping: the thread yields while it waits,
/// so neither its CPU nor a server thread woken onto that CPU pays the
/// slow wake-up of an idle virtual CPU. Returns how late the caller is
/// past `due`.
pub fn wait_until(due: Instant) -> Duration {
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        std::thread::yield_now();
    }
}

/// Closed loop with `depth` requests in flight until `ops` ops have
/// completed: `next` yields ops, `done` receives each op with its
/// outcome. A transaction drains the pipeline and runs on its own. With a
/// tracer, every send and receive gets a span.
pub fn pipelined(
    client: &mut TsbClient,
    depth: usize,
    ops: u64,
    mut tracer: Option<&mut Tracer>,
    mut next: impl FnMut() -> Op,
    mut done: impl FnMut(&Op, Outcome) -> Result<(), Error>,
) -> Result<(), Error> {
    let mut inflight: HashMap<u64, Op> = HashMap::with_capacity(depth);
    let mut issued = 0u64;
    loop {
        while inflight.len() < depth && issued < ops {
            let op = next();
            issued += 1;
            if let Op::Txn { .. } = op {
                drain(client, &mut inflight, &mut done)?;
                let out = run(client, &op)?;
                done(&op, out)?;
                continue;
            }
            let request = op.request();
            let id = match tracer.as_deref_mut() {
                Some(tr) => tr.span("client.send", None, issued, || client.send(&request)),
                None => client.send(&request),
            }?;
            inflight.insert(id, op);
        }
        if inflight.is_empty() {
            return Ok(());
        }
        let (id, reply) = match tracer.as_deref_mut() {
            Some(tr) => tr.span("client.recv_any", None, issued, || client.recv_any()),
            None => client.recv_any(),
        }?;
        let op = inflight.remove(&id).ok_or("reply to an unknown request")?;
        done(&op, outcome(&op, reply))?;
    }
}

fn drain(
    client: &mut TsbClient,
    inflight: &mut HashMap<u64, Op>,
    done: &mut impl FnMut(&Op, Outcome) -> Result<(), Error>,
) -> Result<(), Error> {
    while !inflight.is_empty() {
        let (id, reply) = client.recv_any()?;
        let op = inflight.remove(&id).ok_or("reply to an unknown request")?;
        done(&op, outcome(&op, reply))?;
    }
    Ok(())
}

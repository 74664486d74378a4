//! Tiny-size smoke test of the benchmark: every metric `BENCHMARK.json`
//! names is emitted with its unit on every workload, traced and untraced,
//! and is non-zero unless the tiny size leaves its layer idle; and the
//! oracle gate and the read-back after a reopen reject a deliberately
//! corrupted expected value.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::e2e;
use perfbench::gate::{Ack, Gate, Wrong};
use perfbench::gen::{key_of, value, Op};
use tsb_common::Timestamp;
use tsb_core::TsbOptions;
use tsb_server::protocol::Reply;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The JSON objects of the array under `key` (flat objects only).
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
    body.split('}')
        .filter_map(|o| o.find('{').map(|i| &o[i + 1..]))
        .collect()
}

/// The string value of `field` in a flat JSON object.
fn field<'a>(object: &'a str, field: &str) -> &'a str {
    let at = object.find(&format!("\"{field}\"")).expect("field present");
    let rest = &object[at + field.len() + 2..];
    let open = rest.find('"').unwrap() + 1;
    let close = open + rest[open..].find('"').unwrap();
    &rest[open..close]
}

fn metrics(section: &str) -> Vec<(String, String)> {
    objects(&benchmark_json(), section)
        .into_iter()
        .map(|o| (field(o, "name").to_string(), field(o, "unit").to_string()))
        .collect()
}

fn run(workload: &str, trace: u8, work: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .arg("--server-bin")
        .arg(env!("CARGO_BIN_EXE_tsb-server"))
        .arg("--work")
        .arg(work)
        .env("TMPDIR", work)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// Per-layer counts that depend on the data outgrowing the caches, on
/// writes filling a node, or on the two replay threads' writes meeting at
/// the writer lock. The tiny data fits every cache, and the tiny replays
/// split no node and may never contend, so these may read 0 here. At full
/// size the cache, buffer and magnetic counts read 0 on `replica_mix`,
/// whose hot set fits, and on `asof_reads` `worm.appends_per_op` and
/// `magnetic.writes_per_op` read 0 when the replay's writes split no node
/// and write back no page. Every other emitted figure must be non-zero.
const SIZE_DEPENDENT: [&str; 9] = [
    "concurrent.lock_wait_us_per_op",
    "concurrent.lock_waits_per_op",
    "cache.decodes_per_op",
    "cache.encodes_per_op",
    "buffer.hit_ratio",
    "magnetic.reads_per_op",
    "magnetic.writes_per_op",
    "worm.appends_per_op",
    "worm.reads_per_op",
];

/// The value of metric `name` in a result line.
fn value_of(line: &str, name: &str) -> f64 {
    let entry = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&entry).unwrap() + entry.len()..];
    rest[..rest.find(',').unwrap()].parse().unwrap()
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let json = benchmark_json();
    let workloads: Vec<String> = objects(&json, "workloads")
        .into_iter()
        .map(|o| field(o, "name").to_string())
        .collect();
    assert_eq!(workloads, ["ingest", "asof_reads", "replica_mix"]);
    for workload in &workloads {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let line = run(workload, trace, &work_dir(&format!("{workload}-{trace}")));
            assert!(line.starts_with("{\"correct\": true,"), "{line}");
            let wanted = metrics(section);
            for (name, unit) in &wanted {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
                let unit_field = format!("\"unit\": \"{unit}\"}}");
                let rest = &line[at + entry.len()..];
                assert!(
                    rest[..rest.find('}').unwrap() + 1].ends_with(&unit_field),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            assert_eq!(
                line.matches("\"unit\"").count(),
                wanted.len(),
                "{workload}: metrics beyond those BENCHMARK.json names"
            );
            for (name, _) in &wanted {
                assert!(
                    value_of(&line, name) != 0.0 || SIZE_DEPENDENT.contains(&name.as_str()),
                    "{workload}: {name} is 0 in {line}"
                );
            }
        }
    }
}

#[test]
fn oracle_gate_rejects_a_corrupted_expected_value() {
    let mut gate = Gate::default();
    let (v1, v2) = (value(7, 1, 0), value(7, 1, 1));
    gate.record(vec![(1, v1.clone(), 10), (1, v2.clone(), 20)]);
    let get = Op::Get { key: 1 };
    let asof = Op::AsOf { key: 1, ts: 15 };
    let answer = |v: &Vec<u8>| Reply::Value {
        value: Some(v.clone()),
    };
    gate.check(&get, &answer(&v2))
        .expect("true answer accepted");
    gate.check(&asof, &answer(&v1))
        .expect("true as-of answer accepted");
    assert!(
        gate.check(&asof, &answer(&v2)).is_err(),
        "stale answer accepted"
    );

    // Corrupt the expected value: the true answer must now be rejected.
    let corrupt = value(7, 1, 99);
    gate.oracle.put(key_of(1), Timestamp(30), corrupt);
    assert!(gate.check(&get, &answer(&v2)).is_err());
}

#[test]
fn read_back_after_reopen_rejects_a_corrupted_expected_value() {
    let db = TsbOptions::in_memory().open_concurrent().unwrap();
    let mut acks = Vec::new();
    for seq in 0..3 * 64u64 {
        let key = seq % 64;
        let v = value(7, key, seq);
        let ts = db.insert(key_of(key), v.clone()).unwrap();
        acks.push((key, v, ts.0));
    }
    let gate_of = |acks: Vec<Ack>| {
        let mut gate = Gate::default();
        gate.record(acks);
        gate
    };
    let mut gate = gate_of(acks.clone());
    e2e::verify(&db, &gate, 64).expect("every write read back");

    gate.oracle
        .put(key_of(5), Timestamp(gate.last_ts + 1), value(7, 5, 999));
    let err = e2e::verify(&db, &gate, 64).expect_err("corruption detected");
    assert!(err.downcast_ref::<Wrong>().is_some(), "{err}");

    // The oldest version of key 13 (not one of the keys whose as-of reads
    // are sampled), expected with a value the engine never stored.
    let oldest = acks.iter_mut().find(|a| a.0 == 13).unwrap();
    oldest.1 = value(7, 13, 999);
    let err = e2e::verify(&db, &gate_of(acks), 64).expect_err("lost older version detected");
    assert!(err.to_string().contains("history of"), "{err}");
}

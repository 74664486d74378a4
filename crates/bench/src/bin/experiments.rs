//! The experiment harness CLI.
//!
//! ```text
//! cargo run -p tsb-bench --release --bin experiments             # all experiments, full scale
//! cargo run -p tsb-bench --release --bin experiments -- e3 e7    # selected experiments
//! cargo run -p tsb-bench --bin experiments -- --scale small all  # quick smoke run
//! ```

use tsb_bench::experiments::{run_all, run_experiment, ALL_EXPERIMENTS};
use tsb_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut requested: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().map(String::as_str) {
                Some("small") => scale = Scale::Small,
                Some("full") => scale = Scale::Full,
                Some("tiny") => scale = Scale::Tiny,
                other => {
                    eprintln!("unknown scale {other:?}; expected small|full|tiny");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => requested.push(other.to_string()),
        }
    }

    println!("TSB-tree experiment harness (Lomet & Salzberg, SIGMOD 1989)");
    println!("scale: {scale:?}");

    let tables = if requested.is_empty() || requested.iter().any(|r| r == "all") {
        run_all(scale)
    } else {
        let mut tables = Vec::new();
        for id in &requested {
            match run_experiment(id, scale) {
                Some(mut t) => tables.append(&mut t),
                None => {
                    eprintln!("unknown experiment '{id}'; known: {ALL_EXPERIMENTS:?} (or 'all')");
                    std::process::exit(2);
                }
            }
        }
        tables
    };
    for table in tables {
        println!("{table}");
    }
    println!("\nThe served engine's end-to-end benchmark is perfbench/ (see BENCHMARK.json).");
}

fn print_usage() {
    println!("usage: experiments [--scale small|full|tiny] [e1 e2 ... | all]");
    println!("experiments: {ALL_EXPERIMENTS:?}");
}

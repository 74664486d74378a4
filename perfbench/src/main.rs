//! Command line of the benchmark; see the crate docs.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::e2e::{self, Ctx};
use perfbench::gate::Wrong;
use perfbench::report::{result_line, Host, Metrics};
use perfbench::spec::{Kind, Spec};
use perfbench::{traced, Error};

struct Args {
    ctx: Ctx,
    trace: bool,
}

fn parse() -> Result<Args, Error> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut tiny) = (1u64, 10.0f64, false, false);
    let (mut server_bin, mut work) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse()?,
            "--seconds" => seconds = value()?.parse()?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        ctx: Ctx {
            spec: if tiny { spec.tiny() } else { spec },
            seed,
            seconds,
            server_bin: server_bin.ok_or("--server-bin is required")?,
            work: work.ok_or("--work is required")?,
        },
        trace,
    })
}

/// The untraced run: prints every end-to-end figure and returns the
/// bounded ones.
fn end_to_end(ctx: &Ctx) -> Result<(Metrics, u64, u64), Error> {
    let (mut dep, setup_s) = e2e::deploy_repeated(ctx)?;
    let rounds = e2e::measure(ctx, &mut dep)?;
    let crash = e2e::crash_and_reopen(ctx, &mut dep)?;
    let all = e2e::figures(&rounds, &crash, dep.gate.user_bytes);
    println!("{:<36} {:>14.4} s", "setup_s", setup_s);
    for f in &all.0 {
        let gated = if e2e::GATED.contains(&f.name.as_str()) {
            ""
        } else {
            "  (not bounded)"
        };
        println!("{:<36} {:>14.4} {}{gated}", f.name, f.value, f.unit);
    }
    let mut m = Metrics::default();
    m.add("setup_s", setup_s, "s");
    m.0.extend(
        all.0
            .into_iter()
            .filter(|f| e2e::GATED.contains(&f.name.as_str())),
    );
    let tally = e2e::total(rounds);
    let mut counts: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!("{}={}", k.name(), tally.samples(*k).len()))
        .collect();
    counts.push(format!("visible={}", tally.visible.len()));
    println!("samples: {}", counts.join(" "));
    println!(
        "generator: late p99 {:.1} us; failed {} of {} attempted",
        tally.late.quantile_us(0.99),
        tally.failed,
        tally.attempted
    );
    Ok((m, tally.attempted, tally.failed))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let started = Instant::now();
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let host = Host::probe(&ctx.work);
    let outcome = if args.trace {
        traced::run(ctx, &host)
    } else {
        end_to_end(ctx)
    };
    e2e::clean(&ctx.work);
    match outcome {
        Ok((metrics, attempted, failed)) => {
            if args.trace {
                for m in &metrics.0 {
                    println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
                }
            }
            println!(
                "host: {} workload={} seed={} trace={} wall_s={:.1}",
                host.json(),
                ctx.spec.name,
                ctx.seed,
                u8::from(args.trace),
                started.elapsed().as_secs_f64()
            );
            let line = result_line(true, attempted, failed, &metrics);
            let file = ctx.work.join(format!(
                "result-{}-seed{}-trace{}.json",
                ctx.spec.name,
                ctx.seed,
                u8::from(args.trace)
            ));
            let _ = std::fs::write(
                &file,
                format!("{{\"host\": {}, \"result\": {line}}}\n", host.json()),
            );
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) if e.downcast_ref::<Wrong>().is_some() => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, 1, 0, &Metrics::default()));
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

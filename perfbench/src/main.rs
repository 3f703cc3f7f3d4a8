//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <file>]`
//!
//! Prints a human-readable table, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when any op failed or disagreed with the model.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cfs::ClusterConfig;
use perfbench::report::{self, ratio, Metric};
use perfbench::workload::{Workload, LF_PRELOAD_BYTES};
use perfbench::{peak_rss_mib, probe, run_round, stream_seed, trace, Round};

/// A run stops starting rounds once this much wall time has passed, so it
/// ends well inside its time limit whatever the machine.
const WALL_BUDGET_S: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) = (None, 1, 10.0, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!("  {:<36} {:>14.3} {}", x.name, x.value, x.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let config = ClusterConfig::default();
    let cache_bytes = config.read_cache_capacity_blocks as u64 * config.packet_size;
    println!(
        "perfbench {} seed {} trace {}: closed loop, 1 thread, {} mount(s), {} ops per window, \
         kvwal sync_on_append = {}, read cache {} MiB{}",
        w.name(),
        args.seed,
        args.trace as u8,
        if w == Workload::MetaChurn { 2 } else { 1 },
        w.window_ops(),
        cfs_kvwal::LsmOptions::default().sync_on_append,
        cache_bytes >> 20,
        if w == Workload::LargeFiles {
            format!(", working set {} MiB", LF_PRELOAD_BYTES >> 20)
        } else {
            String::new()
        },
    );

    // Round k runs op stream k of the seed, so a run pools several
    // streams and no single stream's tail decides its p99. A traced run
    // alternates untraced and traced rounds, each pair on one stream, so
    // both throughputs come from the same ops on equal clusters.
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured_s = 0.0;
    let mut peak_rss = 0.0;
    let min_rounds = 2;
    loop {
        let (traced, stream) = if args.trace {
            (rounds.len() % 2 == 1, rounds.len() / 2)
        } else {
            (false, rounds.len())
        };
        let seed = stream_seed(args.seed, stream as u64);
        let round = match run_round(w, seed, w.window_ops(), traced) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: round failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        measured_s += round.window_ns as f64 / 1e9;
        println!(
            "  round {} ({}): setup {:.3} s, window {:.3} s, {} ops, {} failed",
            rounds.len(),
            if traced { "traced" } else { "untraced" },
            round.setup_ns as f64 / 1e9,
            round.window_ns as f64 / 1e9,
            round.attempted,
            round.failed
        );
        for e in &round.errors {
            println!("    error: {e}");
        }
        rounds.push(round);
        if rounds.len() == 1 {
            // Later rounds inherit the allocator's fragmentation from
            // earlier ones, so the process peak would grow with the round
            // count, which depends on machine speed; the first round's
            // peak does not.
            peak_rss = peak_rss_mib();
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / rounds.len() as f64;
        if rounds.len() >= min_rounds
            && (measured_s >= args.seconds || elapsed + per_round > WALL_BUDGET_S)
        {
            break;
        }
    }

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let e2e = report::end_to_end(&untraced, peak_rss);
    let mut correct = failed == 0;

    print_table("end to end (untraced rounds):", &e2e.metrics);
    print_table("  not gated:", &e2e.extra);
    for (name, t) in [
        ("op", e2e.all),
        ("read", e2e.read),
        ("write", e2e.write),
        ("reclaim", e2e.reclaim),
    ] {
        if t.samples == 0 {
            continue;
        }
        println!(
            "  {name:<5} samples {:>6}, beyond p99 {:>4}{}",
            t.samples,
            t.beyond_p99,
            if t.beyond_p99 < 10 {
                " (fewer than 10)"
            } else {
                ""
            }
        );
    }

    let metrics = if args.trace {
        let log_len = traced.iter().map(|r| r.meta_log_len).max().unwrap_or(0);
        let probes = match probe::run(log_len) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: probe failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let untraced_ops = e2e
            .metrics
            .iter()
            .find(|x| x.name == "ops_per_s")
            .map_or(0.0, |x| x.value);
        let (metrics, spans) =
            report::per_layer(&traced, untraced_ops, config.replica_count as f64, &probes);
        print_table("per layer (traced rounds):", &metrics);
        // The root spans must cover the op latencies measured around them
        // (`window_ns`), less only the recorder's own bookkeeping.
        let timed_ns: u64 = traced.iter().map(|r| r.window_ns).sum();
        let traced_ops: u64 = traced.iter().map(|r| r.attempted).sum();
        let outside_ns = timed_ns.saturating_sub(spans.op_wall_ns);
        let covered = spans.op_wall_ns <= timed_ns && outside_ns <= timed_ns / 100;
        println!(
            "  scan probe over {} entries; root spans {:.1} ms of {:.1} ms timed op latency \
             ({:.2} us/op outside spans); negative self spans {}",
            probes.scan_entries,
            spans.op_wall_ns as f64 / 1e6,
            timed_ns as f64 / 1e6,
            ratio(outside_ns as f64 / 1e3, traced_ops as f64),
            spans.negative_self
        );
        for (name, &(ns, n)) in &spans.by_name {
            println!(
                "    {name:<18} calls {n:>7}  self {:>10.1} ms",
                ns as f64 / 1e6
            );
        }
        if spans.negative_self > 0 || !covered {
            println!("  span check failed");
            correct = false;
        }
        // A traced round replays its untraced twin's ops: every count
        // must repeat exactly.
        for pair in rounds.chunks_exact(2) {
            let (a, b) = (
                report::determinism_key(&pair[0]),
                report::determinism_key(&pair[1]),
            );
            if a != b {
                println!("  traced round disagrees with its twin on counts: {a:?} vs {b:?}");
                correct = false;
            }
        }
        if let Some(path) = &args.spans {
            let per_round: Vec<(usize, &[trace::SpanRec])> = rounds
                .iter()
                .enumerate()
                .filter(|(_, r)| r.traced)
                .map(|(i, r)| (i, r.spans.as_slice()))
                .collect();
            if let Err(e) = trace::write_spans(path, &per_round) {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
            println!("  spans written to {}", path.display());
        }
        metrics
    } else {
        e2e.metrics.clone()
    };

    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

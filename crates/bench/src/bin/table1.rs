//! Reproduces **Table 1** of the paper: partitioned vs monolithic
//! computation of the Complete Sequential Flexibility on six latch-split
//! circuits.
//!
//! ```text
//! cargo run --release -p langeq-bench --bin table1 \
//!     [-- --timeout SECS] [--node-limit N] [--jobs N]
//! ```
//!
//! Prints the measured table in the paper's layout, followed by a
//! paper-vs-measured markdown comparison (pasteable into EXPERIMENTS.md).
//!
//! The sequential harness checks every solved partitioned CSF with both of
//! the paper's checks (`X_P ⊆ X` and `F∘X ⊆ S`) and reports the verdict in
//! the `Verified` column.
//!
//! `--jobs N` (N > 1) drives the table through `langeq-core`'s batch
//! engine, one solve per worker thread — faster wall clock for shape
//! checks, but cells share the machine, so keep the sequential default for
//! publication-grade timings. The batch engine keeps counters, not
//! solutions, so its rows show `-` under `Verified`.

use std::time::Duration;

use langeq_bench::{
    format_comparison, format_table1, run_table1, run_table1_suite, HarnessOptions,
};

fn main() {
    let mut opts = HarnessOptions::default();
    let mut jobs = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--timeout" => {
                let secs: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--timeout needs seconds");
                opts.time_limit = Duration::from_secs(secs);
            }
            "--node-limit" => {
                opts.node_limit = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--node-limit needs a count");
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs needs a count");
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: table1 [--timeout SECS] [--node-limit N] [--jobs N]");
                eprintln!("(rows run with --jobs N > 1 are not verified and show `-`)");
                std::process::exit(2);
            }
        }
    }

    println!("Table 1 reproduction — partitioned vs monolithic CSF computation");
    println!(
        "(limits: {}s wall clock, {} live BDD nodes{})",
        opts.time_limit.as_secs(),
        opts.node_limit,
        if jobs > 1 {
            "; batch engine, rows not verified"
        } else {
            "; verifying X_P ⊆ X and F∘X ⊆ S"
        }
    );
    println!();
    let rows = if jobs > 1 {
        run_table1_suite(&opts, jobs)
    } else {
        run_table1(&opts)
    };
    println!("{}", format_table1(&rows));
    println!("Paper-reported vs measured (markdown):");
    println!();
    println!("{}", format_comparison(&rows));
}

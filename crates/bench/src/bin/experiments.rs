//! Render the paper's experiment tables from one sweep.
//!
//! ```text
//! cargo run --release -p minpsid-bench --bin experiments -- fig2_baseline_loss --preset small
//! ```
//!
//! With no table name every table is rendered. Tables go to stdout in the
//! order given, or with `--out DIR` each to `DIR/<table>.txt`. A usage
//! error (an unknown table, kernel, flag or value) exits 2.
use minpsid_bench::{parse_args, usage, Sweep};

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        std::process::exit(2)
    });
    let fail = |what: String| -> ! {
        eprintln!("error: {what}");
        std::process::exit(1)
    };
    if let Some(path) = &args.trace_out {
        minpsid_trace::init_file(path)
            .unwrap_or_else(|e| fail(format!("cannot open trace file `{path}`: {e}")));
    }
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(format!("cannot create `{dir}`: {e}")));
    }
    let mut sweep = Sweep::new(args.preset, args.seed, args.bench.clone());
    for (name, render) in &args.tables {
        eprintln!("[experiments] {name}");
        let mut text = String::new();
        render(&mut sweep, &mut text).expect("writing to a String cannot fail");
        match &args.out {
            Some(dir) => {
                let path = format!("{dir}/{name}.txt");
                std::fs::write(&path, text)
                    .unwrap_or_else(|e| fail(format!("writing `{path}`: {e}")));
            }
            None => print!("{text}"),
        }
    }
    eprintln!("{}", sweep.memo_report());
    if let Err(e) = minpsid_trace::shutdown() {
        eprintln!("warning: writing trace log: {e}");
    }
}

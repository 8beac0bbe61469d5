//! The paper's Fig. 5, live: constructing the *indexed weighted-CFG list*
//! for a Pathfinder fragment under two inputs, and the Eq. 3 fitness score
//! that drives the GA input search.
//!
//! ```text
//! cargo run --release --example weighted_cfg
//! ```

use minpsid_repro::faultsim::CampaignConfig;
use minpsid_repro::interp::{ProgInput, Scalar, Stream};
use minpsid_repro::minpsid::{fitness_score, profile_input};

fn main() {
    // the Fig. 5 code shape: a guarded accumulation over a grid row
    let source = r#"
        fn main() {
            let cols = arg_i(0);
            let best = data_i(0, 0);
            for c = 1 to cols {
                let v = data_i(0, c);
                if v < best {
                    best = v;
                }
            }
            out_i(best);
        }
    "#;
    let module = minpsid_repro::minic::compile(source, "fig5").expect("compiles");

    // print the static CFG
    println!("static CFG (shared by all inputs):");
    for (fid, func) in module.iter_funcs() {
        let cfg = minpsid_repro::ir::Cfg::build(func);
        for (bid, block) in func.iter_blocks() {
            let succs: Vec<String> = cfg
                .succs(bid)
                .iter()
                .map(|s| format!("BB{}", s.0))
                .collect();
            println!(
                "  fn{} BB{} ({}) -> [{}]",
                fid.0,
                bid.0,
                block.name.as_deref().unwrap_or("?"),
                succs.join(", ")
            );
        }
    }

    let campaign = CampaignConfig::default();
    let run = |cols: i64, grid: Vec<i64>| {
        let input = ProgInput::new(vec![Scalar::I(cols)], vec![Stream::I(grid)]);
        profile_input(&module, &input, &campaign).unwrap()
    };

    // input A: short row, descending values (the `if` fires every time)
    let a = run(4, vec![9, 7, 5, 3]);
    // input B: long row, ascending values (the `if` never fires)
    let b = run(10, (1..=10).collect());

    let la = a.indexed_cfg_list();
    let lb = b.indexed_cfg_list();
    println!("\nindexed weighted-CFG lists (per-block dynamic entry counts):");
    println!("  input A (4 cols, descending): {la:?}");
    println!("  input B (10 cols, ascending): {lb:?}");

    let history = vec![la.clone()];
    println!(
        "\nfitness of B against history {{A}} (Eq. 3): {:.3}",
        fitness_score(&lb, &history)
    );
    println!(
        "fitness of A against history {{A}}:        {:.3}",
        fitness_score(&la, &history)
    );
    println!("\n(a higher score means a more novel execution shape — the GA keeps B)");
}

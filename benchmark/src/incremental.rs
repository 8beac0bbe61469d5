//! `incremental_edit`: publish once, edit one function, re-run.
//!
//! Set-up is the **write** path: a cold `run_minpsid_journaled` with an
//! `ArtifactStore` on three kernels seals outcome tables, WAL snapshots
//! and golden runs. A pass is the **read** path: on a pristine copy of
//! the sealed directory, open the journal through the edited module's
//! section map and re-run the pipeline on the module with one function
//! edited — verify-on-load, table lookup, partial re-execution.

use crate::pipeline::{
    cached_pass, call_seconds, check_pass, load_kernels, minpsid_config, pass_injections,
    timed_call, Call, Kernel, Mix,
};
use crate::probes::Persistence;
use crate::report::Ledger;
use crate::staged::staged_minpsid;
use crate::{Budget, Run, Scale, StagedTotals};
use minpsid::{
    minpsid_config_fingerprint, module_fingerprint, module_section_map, run_minpsid_journaled,
    GoldenCache, MinpsidConfig,
};
use minpsid_faultsim::CampaignJournal;
use minpsid_ir::{BinOp, InstKind, Module};
use minpsid_store::ArtifactStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `(kernel, function to edit)`, in suite order.
const EDITS: [(&str, &str); 3] = [
    ("xsbench", "resonance"),
    ("hpccg", "init"),
    ("fft", "condition"),
];

/// Swap the operands of the first commutative `Add`/`Mul` of `fname`: the
/// function's fingerprint (and its callers') changes, its behaviour does
/// not. The same edit as `edit_one_function` in
/// `crates/bench/benches/fi_checkpoint_throughput.rs`.
pub fn edit_one_function(module: &Module, fname: &str) -> Module {
    let mut m = module.clone();
    let fid = m
        .func_by_name(fname)
        .unwrap_or_else(|| panic!("no function `{fname}` to edit"));
    for inst in &mut m.funcs[fid.index()].insts {
        if let InstKind::Bin {
            op: BinOp::Add | BinOp::Mul,
            lhs,
            rhs,
        } = &mut inst.kind
        {
            if lhs != rhs {
                std::mem::swap(lhs, rhs);
                return m;
            }
        }
    }
    panic!("no commutative binop to edit in `{fname}`");
}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// The store, the store-backed golden cache and the journal of `dir`,
/// opened for `module` the way the CLI opens them.
fn open_layers(
    dir: &Path,
    module: &Module,
    cfg: &MinpsidConfig,
) -> Result<(GoldenCache, CampaignJournal), String> {
    let store = Arc::new(ArtifactStore::open(&dir.join("store")).map_err(|e| e.to_string())?);
    let cache = GoldenCache::with_store(0, store.clone());
    let journal = CampaignJournal::open_with_sections(
        &dir.join("journal"),
        module_fingerprint(module),
        minpsid_config_fingerprint(cfg),
        &module_section_map(module),
        Some(store),
    )
    .map_err(|e| e.to_string())?;
    Ok((cache, journal))
}

fn journaled_call(k: &Kernel, cfg: &MinpsidConfig, dir: &Path) -> Call {
    timed_call(|| {
        let (cache, journal) = open_layers(dir, &k.module, cfg)?;
        run_minpsid_journaled(&k.module, k.model.as_ref(), cfg, &cache, &journal)
            .map_err(|e| e.to_string())
    })
}

/// What set-up leaves behind: the kernels as edited, the directory the
/// cold runs of the originals sealed, and those runs to be checked.
struct Sealed {
    originals: Vec<Kernel>,
    edited: Vec<Kernel>,
    root: PathBuf,
    cold: Vec<Call>,
}

impl Sealed {
    /// Every cold sealing run is a pipeline call, checked like any other.
    fn check_cold(&self, ledger: &mut Ledger) {
        let mut digests = vec![None; self.originals.len()];
        check_pass(&self.originals, &self.cold, &mut digests, ledger);
    }
}

/// Compile the kernels, edit one function of each, and seal a cold run of
/// each original module under `root/<kernel>`.
fn setup(cfg: &MinpsidConfig, root: PathBuf) -> Sealed {
    let names: Vec<&str> = EDITS.iter().map(|e| e.0).collect();
    let originals = load_kernels(&names);
    let mut edited = load_kernels(&names);
    for (k, (_, function)) in edited.iter_mut().zip(EDITS) {
        k.module = edit_one_function(&k.module, function);
    }
    let cold = originals
        .iter()
        .map(|k| journaled_call(k, cfg, &root.join(k.name)))
        .collect();
    Sealed {
        originals,
        edited,
        root,
        cold,
    }
}

pub fn run(
    seed: u64,
    scale: &Scale,
    budget: &Budget,
    scratch: &Path,
    run: &mut Run,
) -> std::io::Result<()> {
    let cfg = minpsid_config(Mix::Preset, seed, scale);

    let (setup_s, sealed) = scale.repeat_setup(
        |rep| setup(&cfg, scratch.join(format!("sealed{rep}"))),
        |old| {
            old.check_cold(&mut run.ledger);
            let _ = std::fs::remove_dir_all(old.root);
        },
    );
    sealed.check_cold(&mut run.ledger);
    run.e2e.set("setup_s", setup_s);
    let kernels = &sealed.edited;

    let mut digests = vec![None; kernels.len()];
    let mut passes = Vec::new();
    let mut injections = 0;
    let mut first_pass = Vec::new();
    let started = Instant::now();
    while budget.another_pass(started, &passes) {
        let dir = scratch.join("pass");
        copy_dir(&sealed.root, &dir)?;
        let calls: Vec<Call> = kernels
            .iter()
            .map(|k| journaled_call(k, &cfg, &dir.join(k.name)))
            .collect();
        passes.push(call_seconds(&calls));
        injections = pass_injections(&calls);
        check_pass(kernels, &calls, &mut digests, &mut run.ledger);
        std::fs::remove_dir_all(&dir)?;
        if first_pass.is_empty() {
            first_pass = calls;
        }
    }
    run.set_wall(&passes, injections);

    if run.tracer.enabled() {
        crate::set_pass_timings(&first_pass, kernels, &mut run.layers);
        let from_ns = run.tracer.now_ns();
        let dir = scratch.join("traced");
        run.tracer
            .time("bench.copy_sealed", "", || copy_dir(&sealed.root, &dir))?;
        let mut totals = StagedTotals::default();
        let mut persistence = Persistence::default();
        let mut staged_s = 0.0;
        for (k, digest) in kernels.iter().zip(&digests) {
            let kdir = dir.join(k.name);
            let t = Instant::now();
            let tracer = &mut run.tracer;
            tracer.enter("bench.staged_call", k.name);
            let opened = tracer.time("journal.open", k.name, || {
                open_layers(&kdir, &k.module, &cfg)
            });
            let staged = opened.and_then(|(cache, journal)| {
                let s = staged_minpsid(tracer, k, &cfg, &cache, Some(&journal))?;
                let (served, appended) = journal.usage();
                run.layers.add("journal.served", served as f64);
                run.layers.add("journal.appended", appended as f64);
                Ok((s, cache))
            });
            tracer.exit();
            staged_s += t.elapsed().as_secs_f64();
            match staged {
                Ok((s, cache)) => totals.record(k, Ok(s), *digest, &cache, run),
                Err(e) => run
                    .ledger
                    .record(Some(format!("{}: staged replay: {e}", k.name))),
            }
            let (journal, store) = (kdir.join("journal"), kdir.join("store"));
            let probe_dir = scratch.join("probe");
            persistence.probe(k.name, &journal, &store, &probe_dir, &mut run.tracer)?;
        }
        totals.finish(&run.tracer, &mut run.layers);
        persistence.report(&mut run.layers);
        let refs: Vec<&Kernel> = kernels.iter().collect();
        crate::probes::interp_layers(&refs, &cfg.campaign, &mut run.tracer, &mut run.layers);
        crate::set_trace_quality(run, from_ns, staged_s, passes[0].iter().sum());
    }

    // the repo's stated invariant: an incremental re-run of the edited
    // module equals a from-scratch run of it (not the unedited module's)
    let from_scratch = cached_pass(kernels, &cfg);
    check_pass(kernels, &from_scratch, &mut digests, &mut run.ledger);
    Ok(())
}

//! Layer probes of the traced run: single public functions of one crate,
//! timed alone on the workload's own kernels and artifacts, each under a
//! top-level `probe.*` span. They price the layers the staged replay can
//! only see from outside (`Interp::new` inside a GA evaluation, a WAL
//! append inside a campaign).

use crate::pipeline::Kernel;
use crate::report::Metrics;
use crate::spans::Tracer;
use minpsid::{fitness_score, module_section_map};
use minpsid_faultsim::CampaignConfig;
use minpsid_interp::wire::{decode_checkpoints, encode_checkpoints};
use minpsid_interp::{auto_interval, CheckpointConfig, ExecConfig, Interp};
use minpsid_ir::section_fingerprints;
use minpsid_journal::wal::{open_wal, read_wal};
use minpsid_store::ArtifactStore;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-9)
}

/// Front end and interpreter, on each kernel's reference input: `minic`
/// compile, section fingerprints, `Interp::new` (decode), the profiled
/// (legacy) loop, the clean (decoded) loop, checkpoint capture, and the
/// checkpoint wire codec.
pub fn interp_layers(
    kernels: &[&Kernel],
    cfg: &CampaignConfig,
    tracer: &mut Tracer,
    layers: &mut Metrics,
) {
    let (mut profiled_steps, mut profiled_s) = (0u64, 0.0);
    let (mut clean_steps, mut clean_s) = (0u64, 0.0);
    let (mut wire_bytes, mut encode_s, mut decode_s) = (0u64, 0.0, 0.0);
    for k in kernels {
        tracer.enter("probe.layers", k.name);
        let (s, module) = secs(|| minic::compile(k.source, k.name).expect("suite kernels compile"));
        layers.add("minic.compile_s", s);
        layers.add("minic.ir_insts", module.num_insts() as f64);

        let (s, sections) = secs(|| {
            black_box(section_fingerprints(&k.module));
            module_section_map(&k.module)
        });
        layers.add("ir.fingerprint_s", s);
        layers.add("ir.sections", sections.len() as f64);

        let profiled = ExecConfig {
            profile: true,
            ..cfg.exec.clone()
        };
        let clean = ExecConfig {
            profile: false,
            ..cfg.exec.clone()
        };
        let (s, interp) = secs(|| Interp::new(&k.module, profiled));
        layers.add("interp.decode_s", s);

        let (s, r) = secs(|| interp.run(&k.ref_input));
        profiled_steps += r.steps;
        profiled_s += s;
        let interp = Interp::new(&k.module, clean);
        let (s, r) = secs(|| interp.run(&k.ref_input));
        clean_steps += r.steps;
        clean_s += s;

        let ck = CheckpointConfig {
            interval: auto_interval(r.steps, cfg.max_checkpoints),
            mem_budget_bytes: cfg.checkpoint_mem_budget,
            mode: cfg.snapshot_mode,
            keyframe_every: cfg.keyframe_every,
        };
        let (s, (_, store)) = secs(|| interp.run_with_checkpoint_store(&k.ref_input, ck));
        layers.add("interp.capture_s", s);
        layers.add("interp.snapshots", store.len() as f64);
        layers.add("interp.snapshot_bytes", store.total_bytes() as f64);

        let (s, bytes) = secs(|| encode_checkpoints(&store));
        encode_s += s;
        wire_bytes += bytes.len() as u64;
        let (s, decoded) = secs(|| decode_checkpoints(&bytes));
        decode_s += s;
        assert_eq!(
            decoded.expect("own encoding decodes").len(),
            store.len(),
            "{}: checkpoint wire round trip lost snapshots",
            k.name
        );
        tracer.exit();
    }
    layers.set(
        "interp.profiled_steps_per_s",
        profiled_steps as f64 / profiled_s.max(1e-9),
    );
    layers.set(
        "interp.clean_steps_per_s",
        clean_steps as f64 / clean_s.max(1e-9),
    );
    layers.set("interp.wire_encode_mb_s", mb_per_s(wire_bytes, encode_s));
    layers.set("interp.wire_decode_mb_s", mb_per_s(wire_bytes, decode_s));
}

/// `fitness_score` as the GA called it: once per evaluated candidate,
/// against the history the staged replay ended with.
pub fn fitness(
    label: &'static str,
    history: &[Vec<u64>],
    evals: u64,
    tracer: &mut Tracer,
    layers: &mut Metrics,
) {
    let Some((candidate, rest)) = history.split_last() else {
        return;
    };
    let s = tracer.time("probe.fitness", label, || {
        secs(|| {
            for _ in 0..evals {
                black_box(fitness_score(black_box(candidate), black_box(rest)));
            }
        })
        .0
    });
    layers.add("core.fitness_s", s);
}

/// Journal and store costs, summed over the kernels probed.
#[derive(Debug, Default)]
pub struct Persistence {
    wal_bytes: u64,
    recover_s: f64,
    appended: u64,
    append_s: f64,
    sync_s: f64,
    objects: u64,
    store_bytes: u64,
    load_s: f64,
    publish_s: f64,
}

impl Persistence {
    /// Probe what one incremental pass left on disk: WAL recovery
    /// (`read_wal`), `WalWriter::append_batch` + `sync` of the same
    /// records into a fresh log, verify-on-load of every store object,
    /// and publishing those bytes into a fresh store under `scratch`.
    pub fn probe(
        &mut self,
        label: &'static str,
        journal_dir: &Path,
        store_dir: &Path,
        scratch: &Path,
        tracer: &mut Tracer,
    ) -> std::io::Result<()> {
        tracer.enter("probe.persistence", label);
        let out = self.probe_inner(label, journal_dir, store_dir, scratch);
        tracer.exit();
        out
    }

    fn probe_inner(
        &mut self,
        label: &str,
        journal_dir: &Path,
        store_dir: &Path,
        scratch: &Path,
    ) -> std::io::Result<()> {
        let wal = journal_dir.join("campaign.wal");
        self.wal_bytes += std::fs::metadata(&wal)?.len();
        let (s, recovery) = secs(|| read_wal(&wal));
        let recovery = recovery?;
        self.recover_s += s;

        std::fs::create_dir_all(scratch)?;
        let (mut writer, _) = open_wal(&scratch.join(format!("{label}.wal")))?;
        // one sync at the end, so append and sync are priced apart
        writer.set_fsync_every(0);
        let (s, r) = secs(|| writer.append_batch(&recovery.records));
        r?;
        self.append_s += s;
        self.appended += recovery.records.len() as u64;
        let (s, r) = secs(|| writer.sync());
        r?;
        self.sync_s += s;

        let store = ArtifactStore::open(store_dir)?;
        let entries = store.ls()?;
        let fresh = ArtifactStore::open(&scratch.join(format!("{label}.store")))?;
        for e in &entries {
            let (s, loaded) = secs(|| store.load("probe", &e.digest));
            let loaded = loaded.map_err(|e| std::io::Error::other(e.to_string()))?;
            self.load_s += s;
            self.store_bytes += loaded.len() as u64;
            let (s, r) = secs(|| fresh.publish("probe", &loaded));
            r?;
            self.publish_s += s;
        }
        self.objects += entries.len() as u64;
        Ok(())
    }

    pub fn report(&self, layers: &mut Metrics) {
        layers.set("journal.wal_bytes", self.wal_bytes as f64);
        layers.set(
            "journal.recover_mb_s",
            mb_per_s(self.wal_bytes, self.recover_s),
        );
        layers.set(
            "journal.append_us",
            self.append_s * 1e6 / self.appended.max(1) as f64,
        );
        layers.set("journal.sync_ms", self.sync_s * 1e3);
        layers.set("store.objects", self.objects as f64);
        layers.set("store.bytes", self.store_bytes as f64);
        layers.set("store.load_mb_s", mb_per_s(self.store_bytes, self.load_s));
        layers.set(
            "store.publish_mb_s",
            mb_per_s(self.store_bytes, self.publish_s),
        );
    }
}

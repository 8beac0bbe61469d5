//! Golden-output regression fixtures: each benchmark's reference-input
//! output stream is locked by an FNV-1a hash, the random input its
//! generator draws from seed 42 by its fingerprint, and the IR module the
//! front end emits by `module_fingerprint`. Any change to a kernel, a
//! generator (or the random stream under it), the front end, or the
//! interpreter that alters observable behaviour trips these — and so does a
//! front-end change that keeps every output but moves one instruction, name
//! or block, which would move section fingerprints and with them every
//! per-section fault stream. Deliberate changes update the constants.

use minpsid::module_fingerprint;
use minpsid_interp::{ExecConfig, Interp, OutputItem};
use minpsid_workloads::benchmarks::fft;
use minpsid_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the output stream's bit patterns.
fn output_hash(items: &[OutputItem]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for item in items {
        match item {
            OutputItem::I(v) => {
                eat(b"i");
                eat(&v.to_le_bytes());
            }
            OutputItem::F(v) => {
                eat(b"f");
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// The fingerprint of the input the benchmark's generator draws first
/// from `StdRng::seed_from_u64(42)`.
fn seed_42_input(b: &Benchmark) -> u64 {
    let params = b.model.random(&mut StdRng::seed_from_u64(42));
    b.model.materialize(&params).fingerprint()
}

/// `(benchmark, reference-output FNV-1a, output length, seed-42 random
/// input fingerprint, compiled module's fingerprint)` — regenerate with the
/// ignored `print_golden_hashes` test below.
const GOLDEN: &[(&str, u64, usize, u64, u64)] = &[
    (
        "xsbench",
        0x79208f5a7edfc6fe,
        2,
        0x009390c1408fa4c7,
        0xb61b0cceafaa675e,
    ),
    (
        "hpccg",
        0x005e14318fe903be,
        161,
        0x2a038e0c6cb503ef,
        0xc7901b7de351ac24,
    ),
    (
        "fft",
        0xb1fe13cb8640a753,
        128,
        0x5a9282a13db5bc33,
        0xeba7b8c52241a01e,
    ),
    (
        "knn",
        0x9fa0ac4ca7fc9112,
        8,
        0x5a791b72928c6fe3,
        0x357fea477ec6dcf4,
    ),
    (
        "pathfinder",
        0x4293d2202443de26,
        41,
        0x99bd16ecaae6ae50,
        0x1fa10b1627d02dd0,
    ),
    (
        "backprop",
        0x2ebd3c042603d595,
        3,
        0x1a475f06505dc2fe,
        0x9faed194ebfd528a,
    ),
    (
        "bfs",
        0x4fee091ad4b49bc8,
        203,
        0x7607918844bc132e,
        0x041cf381b86c688b,
    ),
    (
        "particlefilter",
        0x7ab36af244f52f4e,
        8,
        0x7dc4f7698815340e,
        0xb39433aafac2afa1,
    ),
    (
        "kmeans",
        0x7d3f4b9a7c610532,
        8,
        0x46cfaf7be395263c,
        0x439581809f411e6c,
    ),
    (
        "lu",
        0xc8846a87dcdd206e,
        17,
        0x8e75382c2a7b9cd9,
        0xa579ab84276b2e6a,
    ),
    (
        "needle",
        0xe49ed370615b677d,
        34,
        0xcfe437f3a2ddd17f,
        0x1b28537b96564cab,
    ),
];

#[test]
fn reference_outputs_match_locked_hashes() {
    for &(name, expected_hash, expected_len, ..) in GOLDEN {
        let b = minpsid_workloads::by_name(name).unwrap();
        let m = b.compile();
        let input = b.model.materialize(&b.model.reference());
        let r = Interp::new(&m, ExecConfig::default()).run(&input);
        assert!(r.exited(), "{name}: {:?}", r.termination);
        assert_eq!(r.output.len(), expected_len, "{name}: output length");
        assert_eq!(
            output_hash(&r.output.items),
            expected_hash,
            "{name}: golden output changed — update GOLDEN if intentional"
        );
    }
}

#[test]
fn seed_42_random_inputs_match_locked_fingerprints() {
    for &(name, _, _, expected, _) in GOLDEN {
        let b = minpsid_workloads::by_name(name).unwrap();
        assert_eq!(
            seed_42_input(&b),
            expected,
            "{name}: the seed-42 random input changed — update GOLDEN if intentional"
        );
    }
}

/// `module_fingerprint` of `fft::MT_SOURCE` compiled as `fft-mt` (the
/// multi-threaded FFT of §VIII-B, outside the suite).
const MT_MODULE_FINGERPRINT: u64 = 0x642323cd99c1c354;

#[test]
fn compiled_modules_match_locked_fingerprints() {
    for &(name, .., expected) in GOLDEN {
        let b = minpsid_workloads::by_name(name).unwrap();
        assert_eq!(
            module_fingerprint(&b.compile()),
            expected,
            "{name}: the front end's module changed — update GOLDEN if intentional"
        );
    }
    assert_eq!(
        module_fingerprint(&fft::mt_benchmark(2).compile()),
        MT_MODULE_FINGERPRINT,
        "fft-mt: the front end's module changed — update MT_MODULE_FINGERPRINT if intentional"
    );
}

#[test]
fn golden_table_covers_the_whole_suite() {
    let suite: Vec<&str> = minpsid_workloads::suite().iter().map(|b| b.name).collect();
    let locked: Vec<&str> = GOLDEN.iter().map(|(n, ..)| *n).collect();
    assert_eq!(suite, locked, "GOLDEN must track the suite");
}

/// `cargo test -p minpsid-workloads --test golden_outputs -- --ignored --nocapture`
#[test]
#[ignore = "generator for the GOLDEN table"]
fn print_golden_hashes() {
    for b in minpsid_workloads::suite() {
        let m = b.compile();
        let input = b.model.materialize(&b.model.reference());
        let r = Interp::new(&m, ExecConfig::default()).run(&input);
        println!(
            "    (\"{}\", {:#018x}, {}, {:#018x}, {:#018x}),",
            b.name,
            output_hash(&r.output.items),
            r.output.len(),
            seed_42_input(&b),
            module_fingerprint(&m)
        );
    }
    println!(
        "const MT_MODULE_FINGERPRINT: u64 = {:#018x};",
        module_fingerprint(&fft::mt_benchmark(2).compile())
    );
}

//! Every hashed config key pinned away from the defaults. The keys name
//! golden runs in users' stores (`config_fingerprint`), MINPSID and `fi`
//! journals (`minpsid_config_fingerprint`, `fi_journal_key`) and sealed
//! section tables (`table_sig`): a key that moves at any value, default
//! or not, makes every store miss, every journal refuse to resume or
//! every table re-run. Each row is the default config with one field
//! changed (every variant of each enum); the columns are those five keys.

use minpsid::{
    config_fingerprint, minpsid_config_fingerprint, FitnessKind, MinpsidConfig, SearchStrategy,
};
use minpsid_faultsim::{
    fi_journal_key, table_sig, CampaignKind, CheckpointPolicy, GoldenRun, SnapshotMode,
};
use minpsid_interp::{Output, Profile};

type Edit = fn(&mut MinpsidConfig);

/// `[config_fingerprint, minpsid_config_fingerprint, table_sig(Program),
/// table_sig(PerInst), fi_journal_key]`, measured before the keys stopped
/// hashing `Debug` text.
#[rustfmt::skip]
const ROWS: &[(&str, Edit, [u64; 5])] = &[
    ("default", |_| {}, [0x814f_9cdf_444e_6d48, 0xfe0b_06b5_c2a3_ca67, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("protection_level", |c| c.protection_level = 0.25, [0x814f_9cdf_444e_6d48, 0x6744_d32e_6c97_822d, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("campaign.injections", |c| c.campaign.injections = 7, [0x814f_9cdf_444e_6d48, 0x4534_e721_c96f_1ee3, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0xd2cb_c8cd_3f13_09db]),
    ("campaign.per_inst_injections", |c| c.campaign.per_inst_injections = 3, [0x814f_9cdf_444e_6d48, 0x1304_84e8_4fd8_3839, 0xb1f3_7283_f227_a948, 0x5e19_14c8_7779_8ab0, 0x89fc_e046_7eee_df40]),
    ("campaign.seed", |c| c.campaign.seed = 9, [0x814f_9cdf_444e_6d48, 0x0d3c_4a48_cd26_5660, 0x465c_8413_e699_3231, 0xc23d_7bd3_e996_c74c, 0x89fc_e046_7ea8_df40]),
    ("campaign.threads", |c| c.campaign.threads = 13, [0x814f_9cdf_444e_6d48, 0xfe0b_06b5_c2a3_ca67, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("campaign.hang_multiplier", |c| c.campaign.hang_multiplier = 4, [0x814f_9cdf_444e_6d48, 0x8d63_257d_58ec_92c8, 0x4e3f_163f_5760_ad4a, 0xd422_7c98_f085_9853, 0x89fc_e046_7eee_df40]),
    ("exec.step_limit", |c| c.campaign.exec.step_limit = 1000, [0x719e_e0c9_a516_645d, 0x0c3f_59ef_06fe_e63e, 0x5a49_2b02_2b6d_e37d, 0x0da0_bc30_75f6_1972, 0x792d_9c50_9fb6_d655]),
    ("exec.mem_limit", |c| c.campaign.exec.mem_limit = 4096, [0xab2e_50e0_eb65_9178, 0x3158_a2e3_90f5_d7bf, 0x7ba6_bf7c_290e_7fbc, 0x0dbd_c9cb_3a13_09f9, 0xa39d_2c79_d1c5_2370]),
    ("exec.call_depth_limit", |c| c.campaign.exec.call_depth_limit = 64, [0x2559_a6f8_006b_e9a8, 0x4683_7950_8ffb_e6d7, 0x1020_1fe9_c9ae_d846, 0x12b4_ba1d_71fd_3c81, 0x2dea_da61_3acb_5ba0]),
    ("exec.output_limit", |c| c.campaign.exec.output_limit = 100, [0x5de6_bb73_d708_d21a, 0xce30_76ac_da23_8c09, 0x3982_84f9_3236_c2de, 0x4715_97b4_2302_4aeb, 0x5555_c7ea_eda8_6012]),
    ("exec.profile", |c| c.campaign.exec.profile = true, [0x3017_948e_8509_2a51, 0xe4ce_0d60_09d2_ceb2, 0x0985_509c_7beb_183d, 0x5383_ffaa_9238_760e, 0x38a4_e817_bfa9_9859]),
    ("exec.trace", |c| c.campaign.exec.trace = true, [0xa789_87a8_1dfe_7075, 0xd3de_1cfa_9b0e_5c36, 0xfc38_1f06_6ade_22c5, 0xce66_9673_9c18_7a4a, 0xaf3a_fb31_275e_c27d]),
    ("campaign.checkpoints=Every", |c| c.campaign.checkpoints = CheckpointPolicy::Every(37), [0x4e5e_dfe8_350c_85b5, 0xddb2_9e64_d44a_aa14, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x46ed_a371_0fac_37bd]),
    ("campaign.checkpoints=Disabled", |c| c.campaign.checkpoints = CheckpointPolicy::Disabled, [0x25db_3806_95db_a7c9, 0xda2f_c827_2b93_97ea, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x2d68_449f_af7b_15c1]),
    ("campaign.max_checkpoints", |c| c.campaign.max_checkpoints = 9, [0x7436_1fe6_fd36_bbb5, 0xe779_7940_89ef_61e2, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x7c85_637f_c796_09bd]),
    ("campaign.checkpoint_mem_budget", |c| c.campaign.checkpoint_mem_budget = 1 << 20, [0x82b8_cb14_636d_3d4a, 0x8596_4061_5dde_87f1, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x8a0b_b78d_59cd_8f42]),
    ("campaign.snapshot_mode=Full", |c| c.campaign.snapshot_mode = SnapshotMode::Full, [0x972f_8b79_2639_e173, 0x2ab1_0c04_e4a0_4f06, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x9f9c_f7e0_1c99_537b]),
    ("campaign.keyframe_every", |c| c.campaign.keyframe_every = 4, [0x86c9_3a90_b279_722d, 0x2113_a881_cb04_cbbe, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x8e7a_4609_88d9_c025]),
    ("ga.population", |c| c.ga.population = 6, [0x814f_9cdf_444e_6d48, 0xb114_0de7_f475_5bfc, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("ga.fitness=NormalizedEuclidean", |c| c.ga.fitness = FitnessKind::NormalizedEuclidean, [0x814f_9cdf_444e_6d48, 0x842e_cd7b_21d2_bf74, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("ga.patience", |c| c.ga.patience = 5, [0x814f_9cdf_444e_6d48, 0x52bf_8bee_f92f_3678, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("ga.max_generations", |c| c.ga.max_generations = 3, [0x814f_9cdf_444e_6d48, 0xc496_91da_29ce_40d0, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("ga.seed", |c| c.ga.seed = 77, [0x814f_9cdf_444e_6d48, 0x16cf_e7f8_8d0b_7ff1, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("incubative.low_quantile", |c| c.incubative.low_quantile = 1e-7, [0x814f_9cdf_444e_6d48, 0x1cdb_f669_56ab_0c30, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("incubative.low_mass", |c| c.incubative.low_mass = 0.5, [0x814f_9cdf_444e_6d48, 0x1ae8_965a_0882_289d, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("incubative.high_quantile", |c| c.incubative.high_quantile = 0.75, [0x814f_9cdf_444e_6d48, 0x6047_f41f_44fa_8ece, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("max_inputs", |c| c.max_inputs = 4, [0x814f_9cdf_444e_6d48, 0x1d31_e829_56f3_8cca, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("stagnation_patience", |c| c.stagnation_patience = 1, [0x814f_9cdf_444e_6d48, 0xe2d2_a1ac_d4cc_3d09, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("strategy=Random", |c| c.strategy = SearchStrategy::Random, [0x814f_9cdf_444e_6d48, 0xcbea_398c_d93d_9c6d, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("strategy=Annealing", |c| c.strategy = SearchStrategy::Annealing, [0x814f_9cdf_444e_6d48, 0x3cda_7947_4245_44a1, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("use_dp", |c| c.use_dp = true, [0x814f_9cdf_444e_6d48, 0x70b3_74ba_d4bf_2430, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("deadline_secs", |c| c.deadline_secs = Some(2.5), [0x814f_9cdf_444e_6d48, 0xfe0b_06b5_c2a3_ca67, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
    ("incremental", |c| c.incremental = false, [0x814f_9cdf_444e_6d48, 0xfe0b_06b5_c2a3_ca67, 0xb1f3_7283_f227_a948, 0x2ba4_1b94_0834_f5f5, 0x89fc_e046_7eee_df40]),
];

/// The five keys of one config, against a fixed golden context.
fn keys(c: &MinpsidConfig) -> [u64; 5] {
    let mut output = Output::default();
    output.push_i(42);
    output.push_f(-1.5);
    let golden = GoldenRun {
        output,
        profile: Profile::for_module(&minpsid_ir::Module::new("t")),
        steps: 1000,
        checkpoints: Default::default(),
    };
    let sig = |kind| table_sig(kind, &c.campaign, &golden, &[5, 6], 11);
    [
        config_fingerprint(&c.campaign),
        minpsid_config_fingerprint(c),
        sig(CampaignKind::Program),
        sig(CampaignKind::PerInst),
        fi_journal_key(&c.campaign),
    ]
}

#[test]
fn every_config_key_is_pinned_away_from_the_defaults() {
    for &(name, edit, want) in ROWS {
        let mut c = MinpsidConfig::default();
        edit(&mut c);
        assert_eq!(keys(&c), want, "{name}: a key moved");
    }
}

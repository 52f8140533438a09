//! Golden bits for the genetic-search configs the registry ships: the
//! GQA-RM search config of each paper operator (QuantAwareAverage fitness
//! for GELU / HSWISH / EXP, lambda-aware plain grid for DIV / RSQRT), one
//! 3-island run and one 16-entry run.
//!
//! The values were captured from the engine that scored every individual
//! directly, before the fitness memo existed. Any change to the search
//! (scoring, RNG draws, selection, migration, FXP conversion) that alters
//! a single bit of an artifact fails here, with `simd` and `parallel` on
//! or off.

use gqa_funcs::{Fnv1a, NonLinearOp};
use gqa_genetic::{GeneticSearch, SearchConfig, SearchResult};
use gqa_registry::{LutSpec, Method};

/// One pinned search: its config and the expected bits of the result.
struct Golden {
    name: &'static str,
    config: fn() -> SearchConfig,
    best_mse: u64,
    breakpoints: &'static [u64],
    history_fold: u64,
    lut_fold: u64,
}

const SEED: u64 = 7;

/// The registry's GQA-RM search config at a tenth of the paper budget
/// (50 generations).
fn shipped(op: NonLinearOp, entries: usize) -> SearchConfig {
    LutSpec::new(Method::GqaRm, op, entries, SEED)
        .with_budget(0.1)
        .search_config()
}

/// FNV-1a over the raw bits of every value.
fn fold(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.eat_f64(v);
    }
    h.finish()
}

/// Fold of the compiled artifact: breakpoints, slopes and intercepts of
/// the FXP-rounded pwl.
fn lut_fold(r: &SearchResult) -> u64 {
    let pwl = r.pwl();
    fold(
        pwl.breakpoints()
            .iter()
            .chain(pwl.slopes())
            .chain(pwl.intercepts())
            .copied(),
    )
}

const GOLDENS: &[Golden] = &[
    Golden {
        name: "gelu",
        config: || shipped(NonLinearOp::Gelu, 8),
        best_mse: 0x3f1f_9ef9_b5d2_fe60,
        breakpoints: &[
            0xc008_0000_0000_0000,
            0xc003_0000_0000_0000,
            0xbff0_0000_0000_0000,
            0xbfc0_0000_0000_0000,
            0x3fe8_0000_0000_0000,
            0x4000_0000_0000_0000,
            0x400a_0000_0000_0000,
        ],
        history_fold: 0x44ff_ae9d_10fe_7363,
        lut_fold: 0xe0fc_8ab9_7a27_b03e,
    },
    Golden {
        name: "hswish",
        config: || shipped(NonLinearOp::Hswish, 8),
        best_mse: 0x3f30_c800_a830_91e6,
        breakpoints: &[
            0xc008_0000_0000_0000,
            0xc000_0000_0000_0000,
            0xbff3_0000_0000_0000,
            0xbfc0_0000_0000_0000,
            0x3fec_0000_0000_0000,
            0x3ffc_0000_0000_0000,
            0x4008_0000_0000_0000,
        ],
        history_fold: 0xd58e_1e1d_0620_e125,
        lut_fold: 0x30e6_badb_980f_6179,
    },
    Golden {
        name: "exp",
        config: || shipped(NonLinearOp::Exp, 8),
        best_mse: 0x3f2b_2bef_e501_5d57,
        breakpoints: &[
            0xc01f_4000_0000_0000,
            0xc01a_d90e_e19b_a5ff,
            0xc018_0000_0000_0000,
            0xc010_0000_0000_0000,
            0xbffd_8000_0000_0000,
            0xbff0_0000_0000_0000,
            0xbfdc_0000_0000_0000,
        ],
        history_fold: 0xf61c_9099_46ed_3a4f,
        lut_fold: 0x178e_9a68_bf7f_fcea,
    },
    Golden {
        name: "div",
        config: || shipped(NonLinearOp::Div, 8),
        best_mse: 0x3f16_e35a_62bc_a785,
        breakpoints: &[
            0x3fe7_22e3_30e7_954a,
            0x3fed_8069_f9b7_2d3c,
            0x3ff4_868b_e67b_59d5,
            0x3ffe_bfb4_a177_8b5b,
            0x4003_38c8_2356_4a82,
            0x4005_4a60_4cec_8210,
            0x400f_e078_a7b4_37df,
        ],
        history_fold: 0xa35c_1ccd_1369_7b7d,
        lut_fold: 0x8cb2_88f4_82c3_2d4e,
    },
    Golden {
        name: "rsqrt",
        config: || shipped(NonLinearOp::Rsqrt, 8),
        best_mse: 0x3f20_fe56_b72d_f289,
        breakpoints: &[
            0x3fd6_99b1_8bad_212e,
            0x3fe0_7114_a4f3_d3ee,
            0x3fec_82d6_950f_6494,
            0x3ff5_d974_a740_4c79,
            0x4004_868b_c021_f911,
            0x4005_cf5b_bceb_32df,
            0x400d_a2e5_9e5d_1da4,
        ],
        history_fold: 0x9d6f_4865_287f_dcaa,
        lut_fold: 0xea96_60f9_a8d8_b7c3,
    },
    Golden {
        name: "hswish_3_islands",
        config: || {
            shipped(NonLinearOp::Hswish, 8)
                .with_islands(3)
                .with_migration_interval(10)
        },
        best_mse: 0x3f2c_1f96_ec05_f723,
        breakpoints: &[
            0xc008_0000_0000_0000,
            0xc000_0000_0000_0000,
            0xbff3_0000_0000_0000,
            0xbfc0_0000_0000_0000,
            0x3fec_0000_0000_0000,
            0x3ffe_0000_0000_0000,
            0x4007_c000_0000_0000,
        ],
        history_fold: 0x14be_2109_d318_ea99,
        lut_fold: 0x5d1a_ce51_ba8b_c380,
    },
    Golden {
        name: "gelu_16_entries",
        config: || shipped(NonLinearOp::Gelu, 16),
        best_mse: 0x3f0a_692d_5273_2672,
        breakpoints: &[
            0xc009_0000_0000_0000,
            0xc000_0000_0000_0000,
            0xc000_0000_0000_0000,
            0xc000_0000_0000_0000,
            0xbff4_0000_0000_0000,
            0xbff3_d36b_c2c9_0d20,
            0xbfd7_5eb4_fe34_b320,
            0xbfcc_0000_0000_0000,
            0xbfb0_0000_0000_0000,
            0x3fe0_0000_0000_0000,
            0x3fef_0000_0000_0000,
            0x3ff4_0000_0000_0000,
            0x4000_0000_0000_0000,
            0x400a_0000_0000_0000,
            0x400e_0000_0000_0000,
        ],
        history_fold: 0x9af8_fa8f_4a07_81a1,
        lut_fold: 0xe6e7_d462_4cf5_c7eb,
    },
];

#[test]
fn shipped_search_configs_reproduce_golden_bits() {
    let mut failures = Vec::new();
    for g in GOLDENS {
        let r = GeneticSearch::new((g.config)()).run();
        let got_bps: Vec<u64> = r.breakpoints().iter().map(|b| b.to_bits()).collect();
        let got = (
            r.best_mse().to_bits(),
            got_bps.as_slice(),
            fold(r.history().iter().copied()),
            lut_fold(&r),
        );
        if got != (g.best_mse, g.breakpoints, g.history_fold, g.lut_fold) {
            let bps: Vec<String> = got_bps.iter().map(|b| format!("0x{b:016x}")).collect();
            failures.push(format!(
                "{}: best_mse: 0x{:016x}, breakpoints: &[{}], history_fold: 0x{:016x}, \
                 lut_fold: 0x{:016x}",
                g.name,
                got.0,
                bps.join(", "),
                got.2,
                got.3
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "search results diverged from the golden bits:\n{}",
        failures.join("\n")
    );
}

#[test]
fn goldens_cover_the_shipped_fitness_modes() {
    use gqa_genetic::FitnessMode;
    let modes: Vec<FitnessMode> = GOLDENS.iter().map(|g| (g.config)().fitness).collect();
    assert!(modes.contains(&FitnessMode::QuantAwareAverage));
    assert!(modes.contains(&FitnessMode::PlainGrid));
    assert!(GOLDENS.iter().any(|g| (g.config)().islands == 3));
    assert!(GOLDENS.iter().any(|g| (g.config)().num_breakpoints == 15));
}

//! The method ↔ LUT vocabulary of the model harness.
//!
//! LUTs are built through the serving engine: plan the operator with a
//! `gqa_serve::OperatorPlan`, resolve it through a
//! `gqa_serve::EngineBuilder`-owned registry (or
//! `LutRegistry::get_or_build`), and read artifacts back with
//! `Engine::artifact`. This module re-exports the [`Method`] /
//! [`LutBuildError`] types those paths speak.

pub use gqa_registry::{LutBuildError, Method};

#[cfg(test)]
mod tests {
    use super::*;
    use gqa_funcs::NonLinearOp;
    use gqa_registry::LutRegistry;
    use gqa_serve::OpPlan;

    #[test]
    fn labels() {
        assert_eq!(Method::NnLut.label(), "NN-LUT");
        assert_eq!(Method::GqaRm.to_string(), "GQA-LUT w/ RM");
        assert_eq!(Method::ALL.len(), 3);
    }

    #[test]
    fn planned_builds_produce_the_requested_entry_count() {
        for (method, op, entries, budget) in [
            (Method::GqaNoRm, NonLinearOp::Div, 8, 0.1),
            (Method::GqaRm, NonLinearOp::Gelu, 16, 0.08),
        ] {
            let spec = OpPlan::new(method)
                .with_entries(entries)
                .with_seed(1)
                .with_budget(budget)
                .spec(op);
            let lut = LutRegistry::global().get_or_build(&spec).unwrap();
            assert_eq!(lut.pwl().num_entries(), entries, "{method:?}/{op}");
        }
    }
}

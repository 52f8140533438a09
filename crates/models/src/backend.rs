//! The pwl-LUT backend: routes the paper's five operators through INT8
//! LUTs inside a live model.
//!
//! [`PwlBackend`] is a fixed bundle of datapaths built from pre-made
//! LUTs; the serving surface is `gqa_serve`'s `Engine`/`Session`
//! (per-operator hot-swap cells, an operator plan, sharded persistence).
//! [`PwlBackend::from_luts`] routes through the same `gqa_serve`
//! datapath construction, so both spellings are bit-compatible.

use gqa_funcs::{BatchEval, NonLinearOp};
use gqa_fxp::PowerOfTwoScale;
use gqa_pwl::{IntLutInstance, MultiRangeLut, QuantAwareLut};
use gqa_serve::{build_datapath, OpDatapath};
use gqa_tensor::{ExactBackend, UnaryBackend, UnaryKind};

pub use gqa_serve::CalibrationRecorder;

/// Which operators are LUT-replaced (the "Replacement" column of Tables
/// 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaceSet {
    /// Replace GELU.
    pub gelu: bool,
    /// Replace HSWISH.
    pub hswish: bool,
    /// Replace EXP (Softmax kernel).
    pub exp: bool,
    /// Replace DIV (reciprocal normalizers).
    pub div: bool,
    /// Replace RSQRT (LayerNorm kernel).
    pub rsqrt: bool,
}

impl ReplaceSet {
    /// Nothing replaced (the "None" row).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Everything replaced (the "Altogether" row).
    #[must_use]
    pub fn all() -> Self {
        Self {
            gelu: true,
            hswish: true,
            exp: true,
            div: true,
            rsqrt: true,
        }
    }

    /// Replace a single operator.
    #[must_use]
    pub fn only(op: NonLinearOp) -> Self {
        let mut s = Self::default();
        match op {
            NonLinearOp::Gelu => s.gelu = true,
            NonLinearOp::Hswish => s.hswish = true,
            NonLinearOp::Exp => s.exp = true,
            NonLinearOp::Div => s.div = true,
            NonLinearOp::Rsqrt => s.rsqrt = true,
            other => panic!("{other} is not a Table 4/5 replacement target"),
        }
        s
    }

    /// Whether any operator is replaced.
    #[must_use]
    pub fn any(&self) -> bool {
        self.gelu || self.hswish || self.exp || self.div || self.rsqrt
    }

    /// The serving-engine spelling of this replacement set: every
    /// replaced operator planned with `base` (Table 4/5 row order), ready
    /// for `EngineBuilder::new(replace.to_plan(…)).build()`.
    #[must_use]
    pub fn to_plan(self, base: gqa_serve::OpPlan) -> gqa_serve::OperatorPlan {
        let mut plan = gqa_serve::OperatorPlan::new();
        for (on, op) in [
            (self.exp, NonLinearOp::Exp),
            (self.gelu, NonLinearOp::Gelu),
            (self.hswish, NonLinearOp::Hswish),
            (self.div, NonLinearOp::Div),
            (self.rsqrt, NonLinearOp::Rsqrt),
        ] {
            if on {
                plan.set(op, base);
            }
        }
        plan
    }

    /// Human-readable row label as in Tables 4 and 5.
    #[must_use]
    pub fn label(&self) -> String {
        if !self.any() {
            return "None".to_owned();
        }
        if *self == Self::all() {
            return "Altogether".to_owned();
        }
        let mut parts = Vec::new();
        if self.exp {
            parts.push("EXP");
        }
        if self.gelu {
            parts.push("GELU");
        }
        if self.hswish {
            parts.push("HSWISH");
        }
        if self.div {
            parts.push("DIV");
        }
        if self.rsqrt {
            parts.push("RSQRT");
        }
        format!("{} only", parts.join("+"))
    }
}

/// A [`UnaryBackend`] that evaluates the replaced operators through their
/// INT8 pwl LUT datapaths and everything else exactly.
pub struct PwlBackend {
    gelu: Option<IntLutInstance>,
    hswish: Option<IntLutInstance>,
    exp: Option<IntLutInstance>,
    recip: Option<MultiRangeLut>,
    rsqrt: Option<MultiRangeLut>,
}

impl std::fmt::Debug for PwlBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PwlBackend")
            .field("gelu", &self.gelu.is_some())
            .field("hswish", &self.hswish.is_some())
            .field("exp", &self.exp.is_some())
            .field("recip", &self.recip.is_some())
            .field("rsqrt", &self.rsqrt.is_some())
            .finish()
    }
}

impl PwlBackend {
    /// Builds directly from pre-made LUTs (used by tests to avoid repeated
    /// searches). Routes through the same `gqa_serve` datapath
    /// construction as the engine, at the historical INT8 defaults.
    #[must_use]
    pub fn from_luts(
        gelu: Option<(QuantAwareLut, PowerOfTwoScale)>,
        hswish: Option<(QuantAwareLut, PowerOfTwoScale)>,
        exp: Option<(QuantAwareLut, PowerOfTwoScale)>,
        recip: Option<QuantAwareLut>,
        rsqrt: Option<QuantAwareLut>,
    ) -> Self {
        let scaled = |lut_scale: (QuantAwareLut, PowerOfTwoScale), op| match build_datapath(
            &lut_scale.0,
            op,
            8,
            lut_scale.1,
        ) {
            OpDatapath::Scaled(inst) => inst,
            OpDatapath::Wide(_) => unreachable!("{op} is scale-dependent"),
        };
        let wide = |lut: QuantAwareLut, op| {
            // The wide-range datapath ignores the input scale.
            match build_datapath(&lut, op, 8, PowerOfTwoScale::new(-4)) {
                OpDatapath::Wide(unit) => unit,
                OpDatapath::Scaled(_) => unreachable!("{op} is wide-range"),
            }
        };
        Self {
            gelu: gelu.map(|g| scaled(g, NonLinearOp::Gelu)),
            hswish: hswish.map(|h| scaled(h, NonLinearOp::Hswish)),
            exp: exp.map(|e| scaled(e, NonLinearOp::Exp)),
            recip: recip.map(|l| wide(l, NonLinearOp::Div)),
            rsqrt: rsqrt.map(|l| wide(l, NonLinearOp::Rsqrt)),
        }
    }
}

impl PwlBackend {
    /// The LUT datapath for `kind`, if that operator is replaced.
    fn lut_for(&self, kind: UnaryKind) -> Option<&dyn BatchEval> {
        match kind {
            UnaryKind::Gelu => self.gelu.as_ref().map(|l| l as &dyn BatchEval),
            UnaryKind::Hswish => self.hswish.as_ref().map(|l| l as &dyn BatchEval),
            UnaryKind::Exp => self.exp.as_ref().map(|l| l as &dyn BatchEval),
            UnaryKind::Recip => self.recip.as_ref().map(|l| l as &dyn BatchEval),
            UnaryKind::Rsqrt => self.rsqrt.as_ref().map(|l| l as &dyn BatchEval),
            _ => None,
        }
    }
}

impl UnaryBackend for PwlBackend {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        match self.lut_for(kind) {
            Some(lut) => lut.eval_scalar(x),
            None => kind.exact(x),
        }
    }

    /// Per-tensor batched non-linearities: replaced operators sweep the
    /// whole buffer through the INT8 LUT's batch kernel (quantize → entry
    /// select → integer FMA, with scale constants hoisted); everything
    /// else goes through the exact batched kernel.
    fn eval_many(&self, kind: UnaryKind, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "batch length mismatch");
        match self.lut_for(kind) {
            Some(lut) => lut.eval_batch(xs, out),
            None => ExactBackend.eval_many(kind, xs, out),
        }
    }

    /// The `f32` tensor path: replaced operators run the LUT datapaths'
    /// native `f32` batch kernels (quantization still selects codes
    /// through exact `f64` widening, so outputs are bit-identical to the
    /// staged path — the model tables stop round-tripping whole tensors
    /// through `f64` without changing a single activation bit); everything
    /// else goes to the exact backend's `f32` kernel.
    fn eval_many_f32(&self, kind: UnaryKind, xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len(), "batch length mismatch");
        let handled = match kind {
            UnaryKind::Gelu => self.gelu.as_ref().map(|l| l.eval_batch_f32(xs, out)),
            UnaryKind::Hswish => self.hswish.as_ref().map(|l| l.eval_batch_f32(xs, out)),
            UnaryKind::Exp => self.exp.as_ref().map(|l| l.eval_batch_f32(xs, out)),
            UnaryKind::Recip => self.recip.as_ref().map(|l| l.eval_batch_f32(xs, out)),
            UnaryKind::Rsqrt => self.rsqrt.as_ref().map(|l| l.eval_batch_f32(xs, out)),
            _ => None,
        };
        if handled.is_none() {
            ExactBackend.eval_many_f32(kind, xs, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::luts::Method;
    use gqa_registry::LutRegistry;
    use gqa_serve::OpPlan;

    /// Resolve an artifact the engine way (plan entry → owned registry).
    fn quick_lut(method: Method, op: NonLinearOp, seed: u64) -> QuantAwareLut {
        let plan = OpPlan::new(method).with_seed(seed).with_budget(0.1);
        (*LutRegistry::global().get_or_build(&plan.spec(op)).unwrap()).clone()
    }

    #[test]
    fn replace_set_labels() {
        assert_eq!(ReplaceSet::none().label(), "None");
        assert_eq!(ReplaceSet::all().label(), "Altogether");
        assert_eq!(ReplaceSet::only(NonLinearOp::Exp).label(), "EXP only");
        assert_eq!(ReplaceSet::only(NonLinearOp::Div).label(), "DIV only");
    }

    #[test]
    fn backend_falls_back_to_exact() {
        let be = PwlBackend::from_luts(None, None, None, None, None);
        assert_eq!(be.eval(UnaryKind::Gelu, 0.0), 0.0);
        assert_eq!(be.eval(UnaryKind::Recip, 2.0), 0.5);
        assert_eq!(be.eval(UnaryKind::Relu, -3.0), 0.0);
    }

    #[test]
    fn pwl_backend_tracks_exact_within_tolerance() {
        let lut = quick_lut(Method::GqaRm, NonLinearOp::Gelu, 5);
        let be = PwlBackend::from_luts(
            Some((lut, PowerOfTwoScale::new(-5))),
            None,
            None,
            None,
            None,
        );
        for i in -40..=40 {
            let x = i as f64 * 0.1;
            let err = (be.eval(UnaryKind::Gelu, x) - UnaryKind::Gelu.exact(x)).abs();
            assert!(err < 0.1, "x={x} err={err}");
        }
    }

    #[test]
    fn div_rsqrt_through_multirange() {
        let recip = quick_lut(Method::GqaNoRm, NonLinearOp::Div, 6);
        let rsqrt = quick_lut(Method::GqaNoRm, NonLinearOp::Rsqrt, 6);
        let be = PwlBackend::from_luts(None, None, None, Some(recip), Some(rsqrt));
        for &x in &[0.7, 1.5, 3.0, 10.0, 50.0] {
            assert!(
                (be.eval(UnaryKind::Recip, x) - 1.0 / x).abs() < 0.15,
                "recip {x}"
            );
            assert!(
                (be.eval(UnaryKind::Rsqrt, x) - 1.0 / x.sqrt()).abs() < 0.2,
                "rsqrt {x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a Table 4/5 replacement target")]
    fn only_rejects_non_paper_ops() {
        let _ = ReplaceSet::only(NonLinearOp::Tanh);
    }
}

//! The served models, the engines they run on, and the timing backend.
//!
//! The benchmark owns each model's `ModelForward` implementation, so it
//! can stamp the forward's start and end as a span (traced runs only)
//! and run the very same graph on the exact backend as a reference.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gqa_funcs::NonLinearOp;
use gqa_models::TinyDecoder;
use gqa_models::{CalibrationRecorder, DecoderConfig, ReplaceSet, SegConfig, SegformerLite};
use gqa_registry::{LutRegistry, Method};
use gqa_serve::{Engine, EngineBuilder, OpPlan, OperatorPlan};
use gqa_served::{DecodeState, ModelDecode, ModelForward, ModelSpec};
use gqa_tensor::{
    BufferPool, EvalMode, ExactBackend, Graph, KvCache, NodeId, ParamStore, Tensor, UnaryBackend,
    UnaryKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// Width of the MLP model's rows.
pub const MLP_DIM: usize = 64;
/// SegformerLite input row: one 3×32×64 image.
pub const SEG_SHAPE: [usize; 3] = [3, 32, 64];
/// Decode session capacity: a 32-token prompt plus 95 generation steps.
pub const DECODE_MAX_LEN: usize = 128;
/// Parameter seed of the served SegformerLite and TinyDecoder.
const PARAM_SEED: u64 = 7;

/// An engine serving `plan` from a fresh (cold) registry.
///
/// # Errors
///
/// Propagates engine build failures.
pub fn engine_with(plan: OperatorPlan, registry: Arc<LutRegistry>) -> Result<Engine, String> {
    EngineBuilder::new(plan)
        .with_registry(registry)
        .build()
        .map_err(|e| format!("engine build: {e}"))
}

/// The shipped default LUT plan for one operator: GQA-LUT with rounding
/// mutation, 8 entries, the full paper budget.
#[must_use]
pub fn default_op_plan() -> OpPlan {
    OpPlan::new(Method::GqaRm)
}

/// An engine LUT-serving GELU only (the MLP and decoder models).
///
/// # Errors
///
/// Propagates engine build failures.
pub fn gelu_engine(registry: Arc<LutRegistry>) -> Result<Engine, String> {
    engine_with(
        OperatorPlan::new().with(NonLinearOp::Gelu, default_op_plan()),
        registry,
    )
}

/// Times `body` as a span named `name` when the tracer is on, attaching
/// it to the ambient parent set by the replay thread.
fn stamped<T>(tracer: &Tracer, name: &'static str, body: impl FnOnce() -> T) -> T {
    if !tracer.enabled() {
        return body();
    }
    let (parent, request) = tracer.ambient();
    let id = tracer.next_id();
    let start = tracer.now();
    let out = body();
    tracer.record(id, name, start, parent, request);
    out
}

/// One 64-wide transformer-block-shaped unit of work: matmul against a
/// fixed weight, LUT-served GELU, row softmax.
pub struct Mlp {
    weight: Vec<f32>,
    tracer: Arc<Tracer>,
}

impl Mlp {
    /// The model with its fixed weight.
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> Self {
        let weight = (0..MLP_DIM * MLP_DIM)
            .map(|i| ((i as f32) * 0.37).sin() * 0.5)
            .collect();
        Self { weight, tracer }
    }

    /// The model's graph.
    pub fn build(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let w = g.input(Tensor::from_vec(self.weight.clone(), &[MLP_DIM, MLP_DIM]));
        let h = g.matmul(x, w);
        let u = g.unary(h, UnaryKind::Gelu);
        g.softmax_rows(u)
    }
}

impl ModelForward for Mlp {
    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        stamped(&self.tracer, "model.forward", || self.build(g, x))
    }
}

/// The served SegformerLite (benchmark configuration).
pub struct Seg {
    model: SegformerLite,
    ps: ParamStore,
    tracer: Arc<Tracer>,
}

impl Seg {
    /// The model with its fixed parameters.
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> Self {
        let mut ps = ParamStore::new();
        let model = SegformerLite::new(&mut ps, SegConfig::benchmark(), PARAM_SEED);
        Self { model, ps, tracer }
    }

    /// The model's graph.
    pub fn build(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        self.model.forward(g, &self.ps, x)
    }

    /// The all-five-ops LUT plan, calibrated on `images` (each
    /// `[3, 32, 64]`) run through the exact model.
    #[must_use]
    pub fn calibrated_plan(&self, images: &[Tensor]) -> OperatorPlan {
        let calib = CalibrationRecorder::new();
        for img in images {
            let mut g = Graph::new(&calib);
            let x = g.input(batch_of(std::slice::from_ref(img)));
            let _ = self.build(&mut g, x);
        }
        ReplaceSet::all()
            .to_plan(default_op_plan())
            .calibrated(&calib)
    }
}

impl ModelForward for Seg {
    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        stamped(&self.tracer, "model.forward", || self.build(g, x))
    }
}

/// The served TinyDecoder (benchmark configuration): rows are token
/// ids; the decode entry point runs KV-cached steps.
pub struct Dec {
    model: TinyDecoder,
    ps: ParamStore,
    tracer: Arc<Tracer>,
}

impl Dec {
    /// The model with its fixed parameters.
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> Self {
        let mut ps = ParamStore::new();
        let model = TinyDecoder::new(&mut ps, DecoderConfig::benchmark(), PARAM_SEED);
        Self { model, ps, tracer }
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.model.config().vocab
    }

    /// Logits of the full causal forward over `tokens`, `(len, vocab)`.
    pub fn forward_logits(&self, g: &mut Graph<'_>, tokens: &[usize]) -> NodeId {
        self.model.forward_logits(g, &self.ps, tokens)
    }

    /// One KV-cached step.
    pub fn step_logits(&self, g: &mut Graph<'_>, token: usize, caches: &mut [KvCache]) -> NodeId {
        self.model.step_logits(g, &self.ps, token, caches)
    }

    /// Fresh per-layer caches.
    pub fn new_caches(&self, max_len: usize, pool: &mut BufferPool) -> Vec<KvCache> {
        self.model.new_caches(max_len, pool)
    }
}

impl ModelForward for Dec {
    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let (rows, vocab) = (g.value(x).shape[0], self.vocab());
        let tokens: Vec<usize> = g.value(x).data.iter().map(|&t| t as usize).collect();
        let mut out = Vec::with_capacity(rows * vocab);
        for tok in tokens {
            let logits = self.forward_logits(g, &[tok]);
            out.extend_from_slice(&g.value(logits).data);
        }
        g.input(Tensor::from_vec(out, &[rows, vocab]))
    }

    fn decode(&self) -> Option<&dyn ModelDecode> {
        Some(self)
    }
}

impl ModelDecode for Dec {
    fn new_state(&self) -> DecodeState {
        let mut pool = BufferPool::new();
        Box::new(self.new_caches(DECODE_MAX_LEN, &mut pool))
    }

    fn step(&self, g: &mut Graph<'_>, input: &Tensor, state: &mut DecodeState) -> Tensor {
        let caches = state
            .downcast_mut::<Vec<KvCache>>()
            .expect("decode state is the layer KV caches");
        stamped(&self.tracer, "model.decode_step", || {
            let logits = self.step_logits(g, input.data[0] as usize, caches);
            g.value(logits).clone()
        })
    }
}

/// Builds a `ModelSpec` sharing `model`.
pub fn spec_of<M: ModelForward + 'static>(
    name: &str,
    row_shape: &[usize],
    model: Arc<M>,
) -> ModelSpec {
    struct Shared<M>(Arc<M>);
    impl<M: ModelForward> ModelForward for Shared<M> {
        fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
            self.0.forward(g, x)
        }
        fn decode(&self) -> Option<&dyn ModelDecode> {
            self.0.decode()
        }
    }
    ModelSpec::from_model(name, row_shape, Shared(model))
}

/// Stacks equal-shape rows into one `[rows, ...]` tensor.
#[must_use]
pub fn batch_of(rows: &[Tensor]) -> Tensor {
    let mut shape = vec![rows.len()];
    shape.extend_from_slice(&rows[0].shape);
    let data = rows.iter().flat_map(|r| r.data.iter().copied()).collect();
    Tensor::from_vec(data, &shape)
}

/// Runs `build` on the exact FP32 backend: the reference the LUT-served
/// outputs are scored against.
pub fn exact_forward(
    input: &Tensor,
    build: impl FnOnce(&mut Graph<'_>, NodeId) -> NodeId,
) -> Tensor {
    let mut g = Graph::with_mode(&ExactBackend, EvalMode::Inference, BufferPool::new());
    let x = g.input(batch_of(std::slice::from_ref(input)));
    let y = build(&mut g, x);
    g.value(y).clone()
}

/// Mean squared difference of two equal-length slices.
#[must_use]
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Whether two tensors are bit-for-bit identical.
#[must_use]
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape == b.shape
        && a.data.len() == b.data.len()
        && a.data
            .iter()
            .zip(&b.data)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a hash of a tensor's shape and bits: lets the run keep a
/// fingerprint of large sampled outputs instead of the outputs.
#[must_use]
pub fn bits_hash(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for &d in &t.shape {
        eat(d as u64);
    }
    for v in &t.data {
        eat(u64::from(v.to_bits()));
    }
    h
}

/// Seeded random images for calibration and probes.
#[must_use]
pub fn random_images(seed: u64, count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len: usize = SEG_SHAPE.iter().product();
    (0..count)
        .map(|_| {
            Tensor::from_vec(
                (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                &SEG_SHAPE,
            )
        })
        .collect()
}

/// The paper operators in report order with their metric suffix and the
/// tensor-level kind that serves them.
pub const OPS: [(NonLinearOp, &str, UnaryKind); 5] = [
    (NonLinearOp::Gelu, "gelu", UnaryKind::Gelu),
    (NonLinearOp::Hswish, "hswish", UnaryKind::Hswish),
    (NonLinearOp::Exp, "exp", UnaryKind::Exp),
    (NonLinearOp::Div, "div", UnaryKind::Recip),
    (NonLinearOp::Rsqrt, "rsqrt", UnaryKind::Rsqrt),
];

fn kind_slot(kind: UnaryKind) -> usize {
    match kind {
        UnaryKind::Relu => 0,
        UnaryKind::Gelu => 1,
        UnaryKind::Hswish => 2,
        UnaryKind::Exp => 3,
        UnaryKind::Recip => 4,
        UnaryKind::Rsqrt => 5,
        UnaryKind::Sigmoid => 6,
        UnaryKind::Tanh => 7,
    }
}

/// A `UnaryBackend` wrapper that forwards every call unchanged (so the
/// bits are the wrapped backend's) and accumulates time and element
/// counts per operator kind.
pub struct TimingBackend<'a> {
    inner: &'a dyn UnaryBackend,
    ns: [AtomicU64; 8],
    elems: [AtomicU64; 8],
}

impl<'a> TimingBackend<'a> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: &'a dyn UnaryBackend) -> Self {
        Self {
            inner,
            ns: Default::default(),
            elems: Default::default(),
        }
    }

    /// `(nanoseconds, elements)` spent in `kind` so far.
    #[must_use]
    pub fn totals(&self, kind: UnaryKind) -> (u64, u64) {
        let i = kind_slot(kind);
        (
            self.ns[i].load(Ordering::Relaxed),
            self.elems[i].load(Ordering::Relaxed),
        )
    }

    /// Nanoseconds spent in every kind so far.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    fn add(&self, kind: UnaryKind, t: Instant, n: usize) {
        let i = kind_slot(kind);
        self.ns[i].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.elems[i].fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl UnaryBackend for TimingBackend<'_> {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        let t = Instant::now();
        let y = self.inner.eval(kind, x);
        self.add(kind, t, 1);
        y
    }

    fn eval_many(&self, kind: UnaryKind, xs: &[f64], out: &mut [f64]) {
        let t = Instant::now();
        self.inner.eval_many(kind, xs, out);
        self.add(kind, t, xs.len());
    }

    fn eval_many_f32(&self, kind: UnaryKind, xs: &[f32], out: &mut [f32]) {
        let t = Instant::now();
        self.inner.eval_many_f32(kind, xs, out);
        self.add(kind, t, xs.len());
    }
}

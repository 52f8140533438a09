//! Fixed per-layer probes of a traced run.
//!
//! Each probe times calls into one layer's public functions on inputs
//! generated from the run's seed, the same way on every workload, so a
//! layer's number is comparable across runs and workloads. The stream
//! metrics (socket, served) are measured by the workloads themselves.

use std::sync::Arc;
use std::time::Instant;

use gqa_genetic::{FitnessEvaluator, GeneticSearch};
use gqa_registry::LutRegistry;
use gqa_served::dispatch_batch;
use gqa_tensor::{BufferPool, EvalMode, Graph, Tensor, UnaryBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::models::{
    batch_of, default_op_plan, engine_with, gelu_engine, random_images, spec_of, Dec, Mlp, Seg,
    TimingBackend, DECODE_MAX_LEN, MLP_DIM, OPS,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// SegformerLite's token-linear matmul shapes `(m, k, n)` at batch 1
/// (stage-1 128 tokens × 16 channels, stage-2 32 tokens × 32 channels,
/// the decode head and the classifier).
const SEG_MATMULS: [(usize, usize, usize); 10] = [
    (128, 16, 16),
    (128, 16, 32),
    (128, 32, 16),
    (32, 32, 32),
    (32, 32, 64),
    (32, 64, 32),
    (128, 16, 16),
    (32, 32, 16),
    (128, 32, 16),
    (128, 16, 19),
];

/// Median wall time (ns) of `body` over `iters` calls after one warm-up.
fn median_ns(iters: usize, mut body: impl FnMut()) -> f64 {
    body();
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Runs every fixed probe and reports its metrics.
///
/// # Errors
///
/// Engine build or LUT compile failures, as text.
pub fn run(rep: &mut Report, seed: u64) -> Result<(), String> {
    let registry = Arc::new(LutRegistry::new());
    registry_probe(rep, &registry)?;
    segformer_probe(rep, &registry, seed)?;
    mlp_probe(rep, &registry, seed)?;
    decode_probe(rep, &registry, seed)?;
    matmul_probe(rep, seed);
    genetic_probe(rep, seed);
    Ok(())
}

/// Cold compile of every paper operator through a fresh registry at
/// the shipped plan; a second engine build then hits all of them.
fn registry_probe(rep: &mut Report, registry: &LutRegistry) -> Result<(), String> {
    for (op, name, _) in OPS {
        let t = Instant::now();
        registry
            .get_or_build(&default_op_plan().spec(op))
            .map_err(|e| format!("compile {op}: {e}"))?;
        rep.metric(
            &format!("registry.build_ms.{name}"),
            t.elapsed().as_secs_f64() * 1e3,
            "ms",
            "cold get_or_build",
        );
    }
    Ok(())
}

/// SegformerLite forwards on an inference graph over the engine
/// session with a recycled pool, at batch 1 and 8; the LUT share of a
/// forward through a timing backend; per-element LUT sweep cost.
fn segformer_probe(rep: &mut Report, registry: &Arc<LutRegistry>, seed: u64) -> Result<(), String> {
    let seg = Seg::new(Arc::new(Tracer::new()));
    let images = random_images(seed ^ 0x5e6, 8);
    let engine = engine_with(seg.calibrated_plan(&images[..4]), Arc::clone(registry))?;
    let stats = registry.stats();
    rep.metric("registry.builds", stats.builds as f64, "count", "");
    rep.metric(
        "registry.hits",
        stats.hits as f64,
        "count",
        "the calibrated segformer engine built from the warm registry",
    );
    let session = engine.session();
    for (rows, name, iters) in [(1usize, "b1", 40usize), (8, "b8", 8)] {
        let x = batch_of(&images[..rows]);
        let mut pool = BufferPool::new();
        let ns = median_ns(iters, || {
            let mut g = Graph::with_mode(&session, EvalMode::Inference, std::mem::take(&mut pool));
            let xi = g.input(x.clone());
            let y = seg.build(&mut g, xi);
            std::hint::black_box(g.value(y).data[0]);
            pool = g.recycle();
        });
        rep.metric(&format!("forward.segformer_us.{name}"), ns / 1e3, "us", "");
    }

    // LUT share: time inside the non-linear sweeps over the forward.
    const FORWARDS: usize = 20;
    let timing = TimingBackend::new(&session);
    let x = batch_of(&images[..1]);
    let mut pool = BufferPool::new();
    let t = Instant::now();
    for _ in 0..FORWARDS {
        let mut g = Graph::with_mode(&timing, EvalMode::Inference, std::mem::take(&mut pool));
        let xi = g.input(x.clone());
        let y = seg.build(&mut g, xi);
        std::hint::black_box(g.value(y).data[0]);
        pool = g.recycle();
    }
    let forward_ns = t.elapsed().as_nanos() as f64;
    let mut lut_ns = 0u64;
    for (_, name, kind) in OPS {
        let (ns, elems) = timing.totals(kind);
        lut_ns += ns;
        if name != "hswish" {
            rep.metric(
                &format!("lut.elems.{name}"),
                (elems / FORWARDS as u64) as f64,
                "count",
                "per batch-1 segformer forward",
            );
        }
    }
    rep.metric(
        "lut.share",
        lut_ns as f64 / forward_ns,
        "ratio",
        &format!(
            "LUT sweep time over batch-1 segformer forward time ({} of {} ns per forward, all kinds {})",
            lut_ns / FORWARDS as u64,
            forward_ns as u64 / FORWARDS as u64,
            timing.total_ns() / FORWARDS as u64
        ),
    );

    // Per-element sweep cost of each operator's served datapath.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x117);
    for (op, name, kind) in OPS {
        let (lo, hi) = op.default_range();
        let xs: Vec<f32> = (0..4096)
            .map(|_| rng.gen_range(lo as f32..hi as f32))
            .collect();
        let mut out = vec![0.0f32; xs.len()];
        let ns = median_ns(200, || session.eval_many_f32(kind, &xs, &mut out));
        rep.metric(
            &format!("lut.eval_ns.{name}"),
            ns / xs.len() as f64,
            "ns/elem",
            "4096-element sweep over the operator's range",
        );
    }
    Ok(())
}

/// One batch-of-one MLP request through `dispatch_batch`.
fn mlp_probe(rep: &mut Report, registry: &Arc<LutRegistry>, seed: u64) -> Result<(), String> {
    let engine = gelu_engine(Arc::clone(registry))?;
    let session = engine.session();
    let spec = spec_of(
        "mlp",
        &[MLP_DIM],
        Arc::new(Mlp::new(Arc::new(Tracer::new()))),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x31f);
    let input = Tensor::from_vec(
        (0..MLP_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        &[MLP_DIM],
    );
    let mut pool = BufferPool::new();
    let ns = median_ns(400, || {
        std::hint::black_box(dispatch_batch(
            &session,
            &spec,
            std::slice::from_ref(&input),
            &mut pool,
        ));
    });
    rep.metric("forward.mlp_us", ns / 1e3, "us", "dispatch_batch, batch 1");
    Ok(())
}

/// TinyDecoder prefill of a 32-token prompt and one cached step at a
/// 64-token prefix.
fn decode_probe(rep: &mut Report, registry: &Arc<LutRegistry>, seed: u64) -> Result<(), String> {
    const PROMPT: usize = 32;
    const PREFIX: usize = 64;
    let engine = gelu_engine(Arc::clone(registry))?;
    let session = engine.session();
    let dec = Dec::new(Arc::new(Tracer::new()));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdec);
    let tokens: Vec<usize> = (0..PREFIX).map(|_| rng.gen_range(0..dec.vocab())).collect();

    let prefill = median_ns(10, || {
        let mut pool = BufferPool::new();
        let mut caches = dec.new_caches(DECODE_MAX_LEN, &mut pool);
        for &tok in &tokens[..PROMPT] {
            let mut g = Graph::with_mode(&session, EvalMode::Inference, pool);
            let y = dec.step_logits(&mut g, tok, &mut caches);
            std::hint::black_box(g.value(y).data[0]);
            pool = g.recycle();
        }
    });
    rep.metric(
        "decode.prefill_us",
        prefill / 1e3,
        "us",
        "32-token prompt into fresh caches",
    );

    let mut pool = BufferPool::new();
    let mut caches = dec.new_caches(DECODE_MAX_LEN, &mut pool);
    for &tok in &tokens {
        let mut g = Graph::with_mode(&session, EvalMode::Inference, pool);
        let _ = dec.step_logits(&mut g, tok, &mut caches);
        pool = g.recycle();
    }
    let step = median_ns(300, || {
        let mut g = Graph::with_mode(&session, EvalMode::Inference, std::mem::take(&mut pool));
        let y = dec.step_logits(&mut g, tokens[0], &mut caches);
        std::hint::black_box(g.value(y).data[0]);
        pool = g.recycle();
        for cache in &mut caches {
            cache.truncate(PREFIX);
        }
    });
    rep.metric(
        "decode.step_us",
        step / 1e3,
        "us",
        "one cached step at prefix 64",
    );
    Ok(())
}

/// `matmul_acc_f32` over SegformerLite's shapes.
fn matmul_probe(rep: &mut Report, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a7);
    let mut operands: Vec<[Vec<f32>; 3]> = SEG_MATMULS
        .iter()
        .map(|&(m, k, n)| {
            let a = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let b = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            [a, b, vec![0.0f32; m * n]]
        })
        .collect();
    let flops: usize = SEG_MATMULS.iter().map(|&(m, k, n)| 2 * m * k * n).sum();
    // Each product reads A and B once and reads and writes C once.
    let bytes: usize = SEG_MATMULS
        .iter()
        .map(|&(m, k, n)| 4 * (m * k + k * n + 2 * m * n))
        .sum();
    let ns = median_ns(300, || {
        for ([a, b, c], &(m, k, n)) in operands.iter_mut().zip(&SEG_MATMULS) {
            gqa_simd::matmul_acc_f32(a, b, c, m, k, n);
        }
    });
    rep.metric(
        "simd.matmul_gflops",
        flops as f64 / ns,
        "GFLOP/s",
        &format!("path={}", gqa_simd::matmul_path()),
    );
    rep.metric(
        "simd.matmul_flops",
        flops as f64,
        "count",
        "2mkn over the shape set",
    );
    rep.metric(
        "simd.matmul_bytes",
        bytes as f64,
        "count",
        "A, B read; C read and written",
    );
}

/// One GA generation (`IslandRun::step`) and one quantization-aware
/// fitness evaluation (`FitnessEvaluator::fitness_fxp`) for GELU.
fn genetic_probe(rep: &mut Report, seed: u64) {
    let spec = default_op_plan()
        .with_seed(seed)
        .spec(gqa_funcs::NonLinearOp::Gelu);
    let cfg = spec.search_config();
    let mut run = GeneticSearch::new(cfg.clone()).into_run();
    let gen_ns = median_ns(40, || {
        std::hint::black_box(run.step());
    });
    rep.metric(
        "genetic.generation_us",
        gen_ns / 1e3,
        "us",
        "IslandRun::step, GELU",
    );

    let op = cfg.op;
    let ev = FitnessEvaluator::new(
        Arc::new(move |x| op.eval(x)),
        cfg.range,
        cfg.grid_step,
        cfg.segment_fit,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf17);
    let (lo, hi) = cfg.range;
    let candidates: Vec<Vec<f64>> = (0..64)
        .map(|_| {
            let mut bp: Vec<f64> = (0..cfg.num_breakpoints)
                .map(|_| rng.gen_range(lo..hi))
                .collect();
            bp.sort_by(f64::total_cmp);
            bp
        })
        .collect();
    let mut i = 0;
    let fit_ns = median_ns(400, || {
        std::hint::black_box(ev.fitness_fxp(&candidates[i % candidates.len()], cfg.lambda));
        i += 1;
    });
    rep.metric(
        "genetic.fitness_us",
        fit_ns / 1e3,
        "us",
        "FitnessEvaluator::fitness_fxp",
    );
}

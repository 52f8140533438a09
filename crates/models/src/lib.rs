//! # gqa-models — Transformer models with pluggable non-linear backends
//!
//! The model-level evaluation substrate for Tables 4 and 5:
//!
//! * [`SegformerLite`] — a scaled-down Segformer-B0: hierarchical encoder
//!   with overlap patch embeds, self-attention (Softmax = EXP + DIV),
//!   Mix-FFN (depthwise conv + GELU), LayerNorm (RSQRT), and an all-MLP
//!   decode head. Operator inventory identical to the paper's vanilla
//!   Transformer: **EXP, GELU, DIV, RSQRT**.
//! * [`EfficientVitLite`] — a scaled-down EfficientViT-B0: conv stem,
//!   MBConv blocks, ReLU linear attention (softmax-free, DIV-normalized),
//!   HSWISH activations. Operator inventory: **HSWISH, DIV**.
//! * [`TinyDecoder`] — a small autoregressive decoder stack with a
//!   KV-cached incremental path ([`DecoderLayer::step`]) bit-identical to
//!   the full-prefix forward, plus a greedy-decode driver. The serving
//!   crate's `DecodeSession` and the `decode/*` benches run on it.
//! * [`PwlBackend`] — the legacy fixed bundle of INT8 pwl LUT datapaths.
//!   New code serves models through `gqa_serve`: plan the operators with
//!   an `OperatorPlan`, build an `Engine`, and hand its cloneable
//!   `Session` (also a `UnaryBackend`) to the graph — the engine adds
//!   per-operator hot swapping, owned registries, and sharded
//!   persistence on top of the same bit-identical datapaths.
//! * [`FinetuneHarness`] — the Table 4/5 protocol: FP pre-train →
//!   INT8 (LSQ-PoT weight fake-quant) baseline → per-replacement
//!   fine-tuning → mIoU on the SynthScapes validation split.
//!
//! ## Example: forward a batch through SegformerLite
//!
//! ```
//! use gqa_models::{SegformerLite, SegConfig};
//! use gqa_tensor::{Graph, ParamStore, ExactBackend, Tensor};
//!
//! let mut ps = ParamStore::new();
//! let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 1);
//! let backend = ExactBackend;
//! let mut g = Graph::new(&backend);
//! let x = g.input(Tensor::zeros(&[1, 3, 32, 64]));
//! let logits = model.forward(&mut g, &ps, x);
//! assert_eq!(g.value(logits).shape, vec![1, 19, 32, 64]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod decoder;
mod efficientvit;
pub mod luts;
mod segformer;
mod train;

pub use backend::{CalibrationRecorder, PwlBackend, ReplaceSet};
pub use decoder::{argmax, DecoderConfig, DecoderLayer, TinyDecoder};
pub use efficientvit::{EffVitConfig, EfficientVitLite};
pub use gqa_registry::HotSwapBackend;
pub use luts::{LutBuildError, Method};
pub use segformer::{SegConfig, SegformerLite};
pub use train::{
    argmax_nchw, quantize_weights_pot, FinetuneHarness, FinetuneOutcome, SegModel, TrainConfig,
};

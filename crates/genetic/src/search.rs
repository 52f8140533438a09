//! Algorithm 1: the genetic piece-wise linear approximation search, run as
//! a multi-deme island model.
//!
//! The search is organized as `islands` independent populations (demes),
//! each with its own deterministic RNG stream derived from the config
//! seed. Every [`SearchConfig::migration_interval`] generations the best
//! individual of island `i` migrates into island `i + 1 mod N` (ring
//! topology), which keeps demes loosely coupled while letting good
//! breakpoint sets spread. With `islands = 1` (the default) the whole
//! machinery degenerates to the paper's single-population Algorithm 1 and
//! is **bit-exact** with it: island 0's RNG stream *is* the config seed.
//!
//! Scoring goes through an exact fitness memo, one per run and shared by
//! every island: it maps an individual's breakpoint bit patterns
//! (`f64::to_bits` of each breakpoint) to its score. Most of a
//! generation's individuals were already scored earlier in the run
//! (tournament clones, the elite, crossovers between identical parents,
//! Rounding Mutations that land on an existing FXP value), so only the
//! generation's distinct misses are evaluated, once each. The memo is
//! invisible in the results because scoring is a pure function of those
//! bits and the memo draws no RNG: scores, `history()` and the final
//! artifact are bit-identical to scoring every individual directly. That
//! purity is why a [`GeneticSearch::with_function`] target must be a pure
//! function of `x`. The memo has no eviction; it holds at most
//! `population × (generations + 1) × islands` entries.
//!
//! When a generation's distinct misses are numerous enough to amortize a
//! channel round trip, they are offloaded to a persistent worker pool
//! (under the `parallel` feature) that is spawned at most once per run.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gqa_funcs::BatchEval;
use gqa_fxp::IntRange;
use gqa_pwl::{eval, Pwl, QuantAwareLut};

use crate::config::{FitnessMode, MutationKind, SearchConfig};
use crate::fitness::FitnessEvaluator;
use crate::mutation::{gaussian_mutation, rounding_mutation};
use crate::selection::tournament_select;

#[cfg(feature = "parallel")]
use crate::pool::ScoringPool;

/// The genetic search engine (Algorithm 1, island-model generalization).
///
/// Deterministic given the configured `(seed, islands)`. See the crate
/// docs for an end-to-end example.
pub struct GeneticSearch {
    config: SearchConfig,
    scorer: Arc<Scorer>,
}

/// The pure fitness context shared by every worker: evaluator, fitness
/// mode, and the precomputed §4.1 grids. Immutable after construction, so
/// it can be handed to scoring workers as an `Arc`.
pub(crate) struct Scorer {
    fitness: FitnessMode,
    lambda: u32,
    lambda_aware: bool,
    evaluator: FitnessEvaluator,
    // Per-scale dequantized grids for QuantAwareAverage fitness, hoisted
    // out of the scoring loop: the codes and reference values depend only
    // on (scale, range, clip), never on the individual being scored.
    qaa_grids: Vec<DequantGrid>,
}

/// One precomputed §4.1 evaluation grid: the clip-surviving INT8 codes at
/// one scale plus the reference `f(q·S)` values.
struct DequantGrid {
    scale: gqa_fxp::PowerOfTwoScale,
    qs: Vec<i64>,
    ys: Vec<f64>,
}

impl Scorer {
    /// Scores one individual per the configured fitness mode.
    pub(crate) fn score(&self, breakpoints: &[f64]) -> f64 {
        match self.fitness {
            FitnessMode::PlainGrid => {
                if self.lambda_aware {
                    self.evaluator.fitness_fxp(breakpoints, self.lambda).1
                } else {
                    self.evaluator.fitness(breakpoints).1
                }
            }
            FitnessMode::QuantAwareAverage => {
                let pwl = self.evaluator.derive_pwl(breakpoints);
                let lut = match QuantAwareLut::new(pwl, self.lambda) {
                    Ok(l) => l,
                    Err(_) => return f64::INFINITY,
                };
                let range = IntRange::signed(8);
                // INT8 has at most 256 codes, so the output buffer lives
                // on the stack: scoring one individual allocates only the
                // per-scale LUT instantiation.
                let mut out = [0.0f64; 256];
                let total: f64 = self
                    .qaa_grids
                    .iter()
                    .map(|grid| {
                        if grid.qs.is_empty() {
                            // Every code clipped: defined as 0, matching
                            // eval::mse_dequantized_lut.
                            return 0.0;
                        }
                        let inst = lut.instantiate(grid.scale, range);
                        let out = &mut out[..grid.qs.len()];
                        inst.eval_dequantized_batch(&grid.qs, out);
                        let mut acc = 0.0f64;
                        for (&a, &r) in out.iter().zip(&grid.ys) {
                            let d = a - r;
                            acc += d * d;
                        }
                        acc / grid.qs.len() as f64
                    })
                    .sum();
                total / self.qaa_grids.len() as f64
            }
        }
    }

    /// Grid size of the underlying evaluator (work-size heuristic input;
    /// consulted by the parallel scoring pool only).
    #[cfg_attr(not(feature = "parallel"), allow(dead_code))]
    pub(crate) fn data_size(&self) -> usize {
        self.evaluator.data_size()
    }
}

impl std::fmt::Debug for GeneticSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneticSearch")
            .field("config", &self.config)
            .field("evaluator", &self.scorer.evaluator)
            .finish()
    }
}

/// The deterministic per-island RNG stream: island 0 *is* the config seed
/// (single-island runs are bit-exact with the pre-island engine); higher
/// islands get decorrelated streams through a splitmix64 finalizer.
fn island_seed(seed: u64, island: usize) -> u64 {
    if island == 0 {
        return seed;
    }
    let mut z = seed ^ (island as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl GeneticSearch {
    /// Builds a search for the configured operator's reference function.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SearchConfig::validate`].
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        let op = config.op;
        Self::with_function(config, Arc::new(move |x| op.eval(x)))
    }

    /// Builds a search over a custom target function (the `op` field of the
    /// config is then only used for labeling). This is how downstream users
    /// approximate functions outside the paper's set.
    ///
    /// `function` must be a pure function of `x`: the run memoizes each
    /// individual's score by its breakpoint bits, so a target whose value
    /// drifts between calls would see stale scores.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SearchConfig::validate`].
    #[must_use]
    pub fn with_function(
        config: SearchConfig,
        function: Arc<dyn Fn(f64) -> f64 + Send + Sync>,
    ) -> Self {
        config.validate();
        let evaluator = FitnessEvaluator::new(
            Arc::clone(&function),
            config.range,
            config.grid_step,
            config.segment_fit,
        );
        let qaa_grids = if config.fitness == FitnessMode::QuantAwareAverage {
            let range = IntRange::signed(8);
            let (lo, hi) = config.range;
            eval::paper_scale_sweep()
                .into_iter()
                .map(|scale| {
                    let s = scale.to_f64();
                    let (qs, xs): (Vec<i64>, Vec<f64>) = range
                        .iter()
                        .map(|q| (q, q as f64 * s))
                        .filter(|&(_, x)| x >= lo && x <= hi)
                        .unzip();
                    let mut ys = vec![0.0; xs.len()];
                    gqa_funcs::FnEval(|x| function(x)).eval_batch(&xs, &mut ys);
                    DequantGrid { scale, qs, ys }
                })
                .collect()
        } else {
            Vec::new()
        };
        let scorer = Arc::new(Scorer {
            fitness: config.fitness,
            lambda: config.lambda,
            lambda_aware: config.lambda_aware,
            evaluator,
            qaa_grids,
        });
        Self { config, scorer }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Test-only access to the shared scorer (used by the pool tests, so
    /// it is dead code in a serial test build).
    #[cfg(test)]
    #[cfg_attr(not(feature = "parallel"), allow(dead_code))]
    pub(crate) fn scorer_for_tests(&self) -> &Arc<Scorer> {
        &self.scorer
    }

    /// Converts the search into a resumable run: populations initialized,
    /// zero generations executed. Drive it with [`IslandRun::step`] (one
    /// generation across all islands) and close with [`IslandRun::finish`].
    #[must_use]
    pub fn into_run(self) -> IslandRun {
        IslandRun::new(self.config, self.scorer)
    }

    /// Runs the full T-generation evolution and returns the best LUT.
    #[must_use]
    pub fn run(self) -> SearchResult {
        let mut run = self.into_run();
        while !run.is_done() {
            run.step();
        }
        run.finish()
    }
}

/// Least distinct-miss work (individuals × grid points) worth sharding
/// across the scoring pool: below it the channel round trip costs more
/// than it saves. A fresh paper-config population (N_p = 50 × 800-point
/// grid) qualifies; the handful of misses of a later generation does not.
#[cfg(feature = "parallel")]
const SHARD_MIN_WORK: usize = 20_000;

/// One deme: an independent population with its own RNG stream.
struct Island {
    population: Vec<Vec<f64>>,
    rng: StdRng,
    /// Best individual of the most recently scored generation (used for
    /// migration; refreshed every [`IslandRun::step`]).
    best: Vec<f64>,
    best_fitness: f64,
}

/// A resumable island-model evolution: populations, per-island RNG
/// streams, the fitness memo and the persistent scoring pool live here
/// between generations.
///
/// Obtained from [`GeneticSearch::into_run`]; callers that do not need
/// generation-level control use [`GeneticSearch::run`].
pub struct IslandRun {
    config: SearchConfig,
    scorer: Arc<Scorer>,
    islands: Vec<Island>,
    generation: usize,
    history: Vec<f64>,
    /// Exact fitness memo: breakpoint bit patterns → score, shared by
    /// every island (they share one `Scorer`).
    memo: HashMap<Box<[u64]>, f64>,
    #[cfg(feature = "parallel")]
    pool: Option<ScoringPool>,
    /// Least distinct-miss work (individuals × grid points) that is
    /// sharded across the pool; [`SHARD_MIN_WORK`] outside tests.
    #[cfg(feature = "parallel")]
    shard_min_work: usize,
    /// Test-only audit: when set, `score_island` checks every score
    /// against direct scoring and counts the individuals checked.
    #[cfg(test)]
    audited: Option<usize>,
    /// Scratch buffer reused across generations for fitness values.
    scores: Vec<f64>,
}

impl std::fmt::Debug for IslandRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IslandRun")
            .field("islands", &self.islands.len())
            .field("generation", &self.generation)
            .field("of", &self.config.generations)
            .finish()
    }
}

impl IslandRun {
    fn new(config: SearchConfig, scorer: Arc<Scorer>) -> Self {
        let (rn, rp) = config.range;
        let islands = (0..config.islands)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(island_seed(config.seed, i));
                // Line 1: random FP32 breakpoint population.
                let population: Vec<Vec<f64>> = (0..config.population)
                    .map(|_| {
                        let mut p: Vec<f64> = (0..config.num_breakpoints)
                            .map(|_| rng.gen_range(rn..rp))
                            .collect();
                        p.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                        p
                    })
                    .collect();
                Island {
                    population,
                    rng,
                    best: Vec::new(),
                    best_fitness: f64::INFINITY,
                }
            })
            .collect();
        let history = Vec::with_capacity(config.generations);
        Self {
            config,
            scorer,
            islands,
            generation: 0,
            history,
            memo: HashMap::new(),
            #[cfg(feature = "parallel")]
            pool: None,
            #[cfg(feature = "parallel")]
            shard_min_work: SHARD_MIN_WORK,
            #[cfg(test)]
            audited: None,
            scores: Vec::new(),
        }
    }

    /// Generations executed so far.
    #[must_use]
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Whether the configured generation budget is exhausted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.generation >= self.config.generations
    }

    /// Best plain-grid fitness per executed generation (global best across
    /// islands; monotone-ish descent trace).
    #[must_use]
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Best fitness seen in the most recent generation, if any.
    #[must_use]
    pub fn best_fitness(&self) -> Option<f64> {
        self.history.last().copied()
    }

    /// Executes one generation on every island (lines 2–19 of Algorithm 1
    /// per deme), then ring-migrates elites when the interval elapses.
    /// Returns the generation's global best fitness.
    pub fn step(&mut self) -> f64 {
        let cfg = self.config.clone();
        let mut generation_best = f64::INFINITY;

        for idx in 0..self.islands.len() {
            // Lines 9–16: stochastic crossover and mutation, in place.
            {
                let island = &mut self.islands[idx];
                let population = &mut island.population;
                let rng = &mut island.rng;
                for i in 0..population.len() {
                    let rand_c: f64 = rng.gen_range(0.0..1.0);
                    let rand_m: f64 = rng.gen_range(0.0..1.0);
                    if rand_c < cfg.crossover_prob && population.len() > 1 {
                        // Line 11: random partner j ≠ i.
                        let j = loop {
                            let j = rng.gen_range(0..population.len());
                            if j != i {
                                break j;
                            }
                        };
                        // Line 12: swap a random contiguous segment.
                        let nb = cfg.num_breakpoints;
                        let a = rng.gen_range(0..nb);
                        let b = rng.gen_range(a..nb) + 1;
                        // Split-borrow the two individuals.
                        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                        let (left, right) = population.split_at_mut(hi);
                        let (pi, pj) = (&mut left[lo], &mut right[0]);
                        for t in a..b {
                            std::mem::swap(&mut pi[t], &mut pj[t]);
                        }
                        pi.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
                        pj.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
                    }
                    if rand_m < cfg.mutation_prob {
                        // Line 15: M(P_i, θ_r).
                        match cfg.mutation {
                            MutationKind::Gaussian { std } => {
                                gaussian_mutation(&mut population[i], std, cfg.range, rng);
                            }
                            MutationKind::Rounding => {
                                rounding_mutation(
                                    &mut population[i],
                                    cfg.rounding_step_prob,
                                    cfg.mutate_range,
                                    rng,
                                );
                            }
                        }
                    }
                }
            }

            // Lines 3–8 + 18: fitness, then 3-size tournament selection
            // onto the next generation (with optional elitism).
            self.score_island(idx);
            let island = &mut self.islands[idx];
            let fitness_now = &self.scores;
            let best_idx = fitness_now
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite fitness"))
                .map(|(i, _)| i)
                .expect("non-empty population");
            island.best = island.population[best_idx].clone();
            island.best_fitness = fitness_now[best_idx];
            generation_best = generation_best.min(island.best_fitness);

            let mut next: Vec<Vec<f64>> = Vec::with_capacity(cfg.population);
            if cfg.elitism {
                next.push(island.population[best_idx].clone());
            }
            while next.len() < cfg.population {
                let w = tournament_select(fitness_now, cfg.tournament, &mut island.rng);
                next.push(island.population[w].clone());
            }
            island.population = next;
        }

        self.history.push(generation_best);
        self.generation += 1;

        // Elite migration on the ring (deterministic, draws no RNG): the
        // immigrant replaces the last tournament-selected slot, never the
        // elitism slot at index 0.
        if self.islands.len() > 1
            && self
                .generation
                .is_multiple_of(self.config.migration_interval)
        {
            let migrants: Vec<Vec<f64>> = self.islands.iter().map(|is| is.best.clone()).collect();
            let n = self.islands.len();
            for (i, migrant) in migrants.into_iter().enumerate() {
                let dest = &mut self.islands[(i + 1) % n];
                let last = dest.population.len() - 1;
                dest.population[last] = migrant;
            }
        }

        generation_best
    }

    /// Scores island `idx`'s population into `self.scores` (ordered by
    /// individual index). Every individual is looked up in the memo first;
    /// the distinct misses are scored once each and the memo learns them.
    /// The result is identical to scoring every individual directly.
    fn score_island(&mut self, idx: usize) {
        let population = &self.islands[idx].population;
        self.scores.clear();
        self.scores.resize(population.len(), 0.0);
        let mut key: Vec<u64> = Vec::with_capacity(self.config.num_breakpoints);
        // Distinct misses of this generation, and (individual, miss) pairs
        // to fill in once they are scored.
        let mut fresh: HashMap<Box<[u64]>, usize> = HashMap::new();
        let mut misses: Vec<Vec<f64>> = Vec::new();
        let mut deferred: Vec<(usize, usize)> = Vec::new();
        for (i, p) in population.iter().enumerate() {
            key.clear();
            key.extend(p.iter().map(|b| b.to_bits()));
            if let Some(&score) = self.memo.get(key.as_slice()) {
                self.scores[i] = score;
                continue;
            }
            let m = match fresh.get(key.as_slice()) {
                Some(&m) => m,
                None => {
                    fresh.insert(key.as_slice().into(), misses.len());
                    misses.push(p.clone());
                    misses.len() - 1
                }
            };
            deferred.push((i, m));
        }
        let scored = self.score_distinct(misses);
        for (i, m) in deferred {
            self.scores[i] = scored[m];
        }
        self.memo
            .extend(fresh.into_iter().map(|(bits, m)| (bits, scored[m])));

        #[cfg(test)]
        if let Some(checked) = &mut self.audited {
            for (p, &s) in self.islands[idx].population.iter().zip(&self.scores) {
                assert_eq!(s.to_bits(), self.scorer.score(p).to_bits(), "{p:?}");
                *checked += 1;
            }
        }
    }

    /// Scores distinct individuals, in order. With the `parallel` feature
    /// and enough work the persistent pool shards them across workers;
    /// results are written back by index, so the output is identical to
    /// the serial sweep.
    fn score_distinct(&mut self, individuals: Vec<Vec<f64>>) -> Vec<f64> {
        #[cfg(feature = "parallel")]
        {
            let n = individuals.len();
            let work = n * self.scorer.data_size();
            let avail = std::thread::available_parallelism().map_or(1, usize::from);
            let threads = avail.min(n / 8).min(8);
            if threads > 1 && work >= self.shard_min_work {
                let pool = self
                    .pool
                    .get_or_insert_with(|| ScoringPool::spawn(avail.min(8)));
                let mut out = vec![0.0; n];
                pool.score_into(&self.scorer, &Arc::new(individuals), threads, &mut out);
                return out;
            }
        }
        individuals.iter().map(|p| self.scorer.score(p)).collect()
    }

    /// Line 20: scores the final populations and returns the global best
    /// individual as the finished FXP artifact.
    #[must_use]
    pub fn finish(mut self) -> SearchResult {
        let mut best: Option<(f64, Vec<f64>)> = None;
        for idx in 0..self.islands.len() {
            self.score_island(idx);
            let (best_idx, fit) = self
                .scores
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fitness"))
                .expect("non-empty population");
            let better = match &best {
                Some((f, _)) => fit < *f,
                None => true,
            };
            if better {
                best = Some((fit, self.islands[idx].population[best_idx].clone()));
            }
        }
        let (_, best_breakpoints) = best.expect("at least one island");

        // Lines 21–22: derive K*, B* and round to FXP λ.
        let pwl = self.scorer.evaluator.derive_pwl(&best_breakpoints);
        let lut = QuantAwareLut::new(pwl, self.config.lambda).expect("valid pwl");
        let best_mse = self.scorer.evaluator.mse(lut.pwl());

        SearchResult {
            config: self.config,
            lut,
            best_breakpoints,
            best_mse,
            history: self.history,
        }
    }
}

/// The outcome of a genetic search: the FXP LUT plus provenance.
#[derive(Debug, Clone)]
pub struct SearchResult {
    config: SearchConfig,
    lut: QuantAwareLut,
    best_breakpoints: Vec<f64>,
    best_mse: f64,
    history: Vec<f64>,
}

impl SearchResult {
    /// The quantization-aware LUT (FXP slopes/intercepts, FP breakpoints).
    #[must_use]
    pub fn lut(&self) -> &QuantAwareLut {
        &self.lut
    }

    /// The FXP-rounded pwl.
    #[must_use]
    pub fn pwl(&self) -> &Pwl {
        self.lut.pwl()
    }

    /// The winning breakpoint set `P*` (before FXP parameter rounding).
    #[must_use]
    pub fn breakpoints(&self) -> &[f64] {
        &self.best_breakpoints
    }

    /// Grid MSE of the final FXP-rounded pwl (Algorithm 1's objective,
    /// evaluated on the returned artifact).
    #[must_use]
    pub fn best_mse(&self) -> f64 {
        self.best_mse
    }

    /// Best plain-grid fitness per generation (monotone-ish descent trace).
    #[must_use]
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// The configuration that produced this result.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqa_funcs::NonLinearOp;

    fn quick(op: NonLinearOp) -> SearchConfig {
        SearchConfig::for_op(op)
            .with_generations(60)
            .with_population(24)
            .with_seed(7)
    }

    #[test]
    fn deterministic_under_seed() {
        let a = GeneticSearch::new(quick(NonLinearOp::Gelu)).run();
        let b = GeneticSearch::new(quick(NonLinearOp::Gelu)).run();
        assert_eq!(a.breakpoints(), b.breakpoints());
        assert_eq!(a.best_mse(), b.best_mse());
        let c = GeneticSearch::new(quick(NonLinearOp::Gelu).with_seed(8)).run();
        assert_ne!(a.breakpoints(), c.breakpoints());
    }

    #[test]
    fn beats_uniform_breakpoints() {
        let cfg = quick(NonLinearOp::Gelu)
            .with_generations(200)
            .with_population(50);
        let ev = FitnessEvaluator::new(
            Arc::new(|x| NonLinearOp::Gelu.eval(x)),
            cfg.range,
            cfg.grid_step,
            cfg.segment_fit,
        );
        let uniform: Vec<f64> = (1..=7).map(|i| -4.0 + i as f64).collect();
        let (_, uniform_mse) = ev.fitness(&uniform);
        let result = GeneticSearch::new(cfg).run();
        // Compare pre-FXP fitness with pre-FXP fitness (the FXP-rounded
        // artifact carries an additional λ-grid noise floor that the
        // dequantized-grid evaluation of §4.1, not this plain grid, washes
        // out in the tails).
        let (_, ga_mse) = ev.fitness(result.breakpoints());
        assert!(
            ga_mse < uniform_mse,
            "GA {ga_mse} should beat uniform {uniform_mse}"
        );
    }

    #[test]
    fn history_has_one_entry_per_generation() {
        let r = GeneticSearch::new(quick(NonLinearOp::Exp)).run();
        assert_eq!(r.history().len(), 60);
        // Fitness generally improves from start to end.
        assert!(r.history().last().unwrap() <= r.history().first().unwrap());
    }

    #[test]
    fn breakpoints_stay_in_range() {
        for &op in NonLinearOp::PAPER_OPS.iter() {
            let r = GeneticSearch::new(quick(op)).run();
            let (rn, rp) = r.config().range;
            for &p in r.pwl().breakpoints() {
                assert!((rn..=rp).contains(&p), "{op}: {p} outside [{rn}, {rp}]");
            }
        }
    }

    #[test]
    fn sixteen_entry_beats_eight_entry() {
        let r8 = GeneticSearch::new(quick(NonLinearOp::Gelu)).run();
        let r16 = GeneticSearch::new(quick(NonLinearOp::Gelu).with_entries_16()).run();
        assert_eq!(r16.pwl().num_entries(), 16);
        assert!(r16.best_mse() <= r8.best_mse() * 1.2);
    }

    #[test]
    fn rm_breakpoints_tend_to_fxp_grid() {
        // With RM, most winning breakpoints should sit on coarse
        // power-of-two fractions.
        let r = GeneticSearch::new(quick(NonLinearOp::Gelu).with_generations(120)).run();
        let on_grid = r
            .breakpoints()
            .iter()
            .filter(|&&p| {
                let s = p * 64.0; // 6 fractional bits, the finest RM grid
                (s - s.round()).abs() < 1e-9
            })
            .count();
        assert!(
            on_grid >= r.breakpoints().len() / 2,
            "only {on_grid}/{} on the RM grid",
            r.breakpoints().len()
        );
    }

    #[test]
    fn custom_function_search() {
        let cfg = quick(NonLinearOp::Sigmoid); // label only
        let r = GeneticSearch::with_function(cfg, Arc::new(|x: f64| x.abs())).run();
        // |x| is exactly representable with a breakpoint near 0.
        assert!(r.best_mse() < 1e-3, "mse = {}", r.best_mse());
    }

    #[test]
    fn quant_aware_fitness_runs() {
        let cfg = quick(NonLinearOp::Gelu)
            .with_generations(15)
            .with_fitness(FitnessMode::QuantAwareAverage);
        let r = GeneticSearch::new(cfg).run();
        assert!(r.best_mse().is_finite());
    }

    #[test]
    fn stepwise_run_matches_one_shot() {
        let one_shot = GeneticSearch::new(quick(NonLinearOp::Gelu)).run();
        let mut run = GeneticSearch::new(quick(NonLinearOp::Gelu)).into_run();
        let mut steps = 0;
        while !run.is_done() {
            run.step();
            steps += 1;
        }
        assert_eq!(steps, 60);
        let resumed = run.finish();
        assert_eq!(one_shot.breakpoints(), resumed.breakpoints());
        assert_eq!(one_shot.best_mse(), resumed.best_mse());
        assert_eq!(one_shot.history(), resumed.history());
    }

    #[test]
    fn island_streams_are_decorrelated() {
        assert_eq!(island_seed(42, 0), 42);
        assert_ne!(island_seed(42, 1), island_seed(42, 2));
        assert_ne!(island_seed(42, 1), island_seed(43, 1));
    }

    #[test]
    fn multi_island_runs_and_is_deterministic() {
        let cfg = || {
            quick(NonLinearOp::Gelu)
                .with_generations(40)
                .with_islands(3)
                .with_migration_interval(10)
        };
        let a = GeneticSearch::new(cfg()).run();
        let b = GeneticSearch::new(cfg()).run();
        assert_eq!(a.breakpoints(), b.breakpoints());
        assert_eq!(a.best_mse().to_bits(), b.best_mse().to_bits());
        assert_eq!(a.history(), b.history());
    }

    /// Steps `cfg` to completion with the memo audit on, so every
    /// generation's score vector is checked bit for bit against direct
    /// `Scorer::score` of each individual. The first five individuals of
    /// island 0 start as clones. `pooled` lowers the sharding threshold to
    /// zero (the pool scores every generation with at least 16 distinct
    /// misses) or raises it out of reach (every score is serial).
    fn audited_run(cfg: SearchConfig, pooled: bool) -> SearchResult {
        let (islands, pop, gens) = (cfg.islands, cfg.population, cfg.generations);
        let mut run = GeneticSearch::new(cfg).into_run();
        let first = run.islands[0].population[0].clone();
        run.islands[0].population[1..5].fill(first);
        run.audited = Some(0);
        #[cfg(feature = "parallel")]
        {
            run.shard_min_work = if pooled { 0 } else { usize::MAX };
        }
        while !run.is_done() {
            run.step();
        }
        let checked = run.audited.expect("audit on");
        assert_eq!(checked, islands * pop * gens);
        assert!(
            run.memo.len() < checked,
            "the memo must absorb repeats: {} entries for {checked} scores",
            run.memo.len()
        );
        #[cfg(feature = "parallel")]
        {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            assert_eq!(run.pool.is_some(), pooled && cores > 1);
        }
        #[cfg(not(feature = "parallel"))]
        let _ = pooled;
        run.finish()
    }

    #[test]
    fn memo_scores_match_direct_scoring() {
        // Quantization-aware fitness under RM (mostly memo hits), Gaussian
        // mutation (many fresh individuals per generation, so the pool
        // path runs often), and three islands sharing one memo.
        let base = |op| quick(op).with_generations(36).with_population(40);
        for cfg in [
            base(NonLinearOp::Gelu).with_fitness(FitnessMode::QuantAwareAverage),
            base(NonLinearOp::Gelu).without_rounding_mutation(),
            base(NonLinearOp::Div)
                .with_islands(3)
                .with_migration_interval(5),
        ] {
            let serial = audited_run(cfg.clone(), false);
            let pooled = audited_run(cfg, true);
            assert_eq!(serial.best_mse().to_bits(), pooled.best_mse().to_bits());
            assert_eq!(serial.breakpoints(), pooled.breakpoints());
            assert_eq!(serial.history(), pooled.history());
        }
    }

    #[test]
    fn more_islands_never_hurt_much() {
        // The global best over 3 islands is at least as good as the worst
        // single run would suggest; mainly this guards the plumbing (the
        // best individual must actually be selected across demes).
        let single = GeneticSearch::new(quick(NonLinearOp::Gelu)).run();
        let multi = GeneticSearch::new(quick(NonLinearOp::Gelu).with_islands(3)).run();
        assert!(multi.best_mse() <= single.best_mse() * 2.0);
    }
}

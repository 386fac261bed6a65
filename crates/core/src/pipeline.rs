//! The merge pipeline: a schedule/prepare/commit restructuring of the
//! paper reference driver ([`crate::pass::run_fmsa`]), and the driver
//! every [`crate::optimize`] call runs.
//!
//! The reference driver interleaves cheap bookkeeping with the two
//! expensive per-attempt steps (sequence alignment and merge code
//! generation), leaving every core but one idle. This driver splits each
//! worklist *generation* into three stages (see `docs/pipeline.md` for
//! the architecture sketch):
//!
//! 1. **Schedule** (parallel): pop the worklist's live subjects, query the
//!    [`crate::search::CandidateSearch`] index for each one's top
//!    candidates — concurrently over the generation's subjects, against
//!    a shared read-only index — snapshot the per-function mutation
//!    generation of every pair, and pre-fill the [`LinearizationCache`]
//!    with each function's linearization and the class ids of its
//!    entries (misses linearized and keyed on the worker pool, keys
//!    interned sequentially).
//! 2. **Prepare** (parallel, multi-threaded runs only): for every
//!    distinct `(subject, candidate)` pair, a worker aligns the two
//!    functions' class ids (under the [`fmsa_align::AlignmentBudget`] of
//!    [`Config::budget`]) and computes the pre-codegen profitability gate
//!    ([`crate::profitability::optimistic_delta`]). Workers only read the
//!    main module; nothing they produce is trusted without re-validation.
//! 3. **Commit** (sequential): subjects are visited in the exact order
//!    the reference driver would visit them. Each prepared attempt is
//!    re-validated — if either function mutated since it was scheduled,
//!    or an earlier commit dirtied the candidate index, the stale part is
//!    recomputed inline. Every merged body is built here, inline, by
//!    [`crate::merge::merge_pair_aligned`] behind a fault boundary; exact
//!    profitability ([`crate::profitability::evaluate_indexed`]) and the
//!    §III-A commit follow, feeding accepted merges back into the search
//!    index, the linearization cache, the call-site index, and the next
//!    generation's worklist.
//!
//! Every alignment of this driver, in prepare and in commit, compares
//! `u32` class ids with `==`: ids are equal exactly when the §III-D
//! relation ([`crate::equivalence::EquivCtx`]) holds, so the alignments
//! are the reference driver's, but the relation is evaluated once per
//! instruction instead of once per DP cell. The reference driver keeps
//! the predicate, so every pipeline-vs-reference bit-identity test also
//! cross-checks the ids.
//!
//! Merged bodies are built once, at the attempt that decides them, as in
//! the paper's driver. Building them ahead of time on the prepare workers
//! (in scratch modules, transplanted at commit) was measured on a 2-core
//! host and never paid for itself; `docs/pipeline.md` has the numbers.
//!
//! Because the commit stage replays the reference driver's decision
//! procedure exactly — same candidate order, same greedy
//! first-profitable rule, same profitability values — the optimized
//! module is **bit-identical to the reference pass at any thread
//! count** (as long as the alignment budget never triggers, which the
//! default budget guarantees at paper scale). Parallelism only moves
//! *where* alignments are computed; staleness is handled by
//! re-validation, never by accepting a prepared result blindly.
//!
//! The oracle mode explores every candidate of every subject and commits
//! the global best per subject; its upper-bound claim depends on
//! evaluating against the exact module state, so [`run_fmsa_pipeline`]
//! delegates oracle runs to the reference driver.

use crate::callsites::CallSiteIndex;
use crate::config::Config;
use crate::faults::FaultSite;
use crate::fingerprint::Fingerprint;
use crate::linearize::{LinearizationCache, Linearized};
use crate::merge::{merge_pair_aligned, AlignAlgo, MergeInfo};
use crate::pass::{run_fmsa, seed_pass, FmsaStats, SeededPass};
use crate::profitability::{evaluate_indexed, optimistic_delta, ProfitReport};
use crate::quarantine::{panic_message, QuarantineStage};
use crate::ranking::Candidate;
use crate::search::CandidateSearch;
use crate::telemetry::{trace, DecisionOutcome, DecisionRecord};
use crate::thunks::{commit_merge_partitioned, CommitResult, Disposition};
use fmsa_align::{align_with_plan, Alignment};
use fmsa_ir::{FuncId, Module};
use fmsa_target::CostModel;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Telemetry of one pipeline run (reported by the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Worker threads used by the prepare stage.
    pub threads: usize,
    /// Schedule/prepare/commit generations executed.
    pub generations: usize,
    /// Attempts aligned ahead of commit by the prepare stage.
    pub prepared: usize,
    /// Prepared alignments consumed unchanged by the commit stage.
    pub reused: usize,
    /// Attempts of a multi-threaded run that the commit stage aligned
    /// inline: the prepared alignment was stale (a function mutated
    /// since scheduling, or a failed commit resynchronized the caches),
    /// or there was no prepared entry at all — the candidate first
    /// appeared in a re-query after the generation's first commit, or
    /// the pair's prepare worker panicked.
    pub recomputed: usize,
    /// Attempts skipped by the sound pre-codegen profitability gate.
    pub gate_skipped: usize,
    /// Attempts abandoned by the alignment budget's length cap.
    pub budget_skipped: usize,
    /// Always zero: the pipeline builds no merged body ahead of commit.
    /// Kept only because the repository benchmark reads it.
    pub spec_built: usize,
    /// Always zero, like [`PipelineStats::spec_built`] and for the same
    /// reason.
    pub spec_committed: usize,
    /// Wall-clock of the schedule stage — the sum of
    /// [`PipelineStats::schedule_query`] and
    /// [`PipelineStats::schedule_prefill`], kept as the stage total.
    pub schedule: Duration,
    /// Of [`PipelineStats::schedule`], the candidate-query phase: one
    /// index query per subject, run concurrently over the generation's
    /// subjects against the shared read-only index.
    pub schedule_query: Duration,
    /// Of [`PipelineStats::schedule`], the linearization-cache pre-fill
    /// (misses computed on the worker pool, inserted sequentially).
    pub schedule_prefill: Duration,
    /// Summed per-task compute time inside the schedule stage's parallel
    /// phases. `schedule_cpu / schedule` is the stage's effective
    /// parallelism; at one thread the two are equal minus loop overhead.
    pub schedule_cpu: Duration,
    /// Wall-clock of the parallel prepare stage (alignment and Δ gate).
    pub prepare: Duration,
    /// Summed per-task compute time inside the prepare stage (the CPU
    /// time behind the [`PipelineStats::prepare`] wall).
    pub prepare_cpu: Duration,
    /// Wall-clock of the sequential commit stage.
    pub commit: Duration,
    /// Of [`PipelineStats::commit`], time spent producing merged bodies
    /// (codegen, verification and profitability).
    pub commit_codegen: Duration,
    /// Always zero, like [`PipelineStats::spec_built`] and for the same
    /// reason.
    pub transplant: Duration,
    /// Of [`PipelineStats::commit`], the call-graph update (call-site
    /// rewriting + thunking) — executed as a partitioned rewrite on the
    /// worker pool ([`crate::thunks::commit_merge_partitioned`]).
    pub rewrite: Duration,
    /// Pairs quarantined because sequence alignment panicked.
    pub quarantined_align: usize,
    /// Pairs quarantined because merge codegen panicked.
    pub quarantined_codegen: usize,
    /// Pairs quarantined because the verifier rejected the merged body.
    pub quarantined_verify: usize,
    /// Panics caught at any fault boundary (worker waves and the commit
    /// stage). Unlike the quarantine counters this is thread-dependent:
    /// a pair whose fault fires both in a prepare worker and in the
    /// commit stage's inline retry is caught twice at `threads > 1` and
    /// once at `threads == 1`.
    pub panics_caught: usize,
    /// Differential mismatches attributed to this run by an external
    /// driver (the fuzz farm); the pipeline itself never sets it.
    pub mismatches: usize,
    /// Commit-stage barriers: partitioned call-graph updates, each one a
    /// detach/pool-scope handoff. Every profitable merge commits at once
    /// through its own, so this equals the number of commits.
    pub commit_barriers: usize,
}

impl PipelineStats {
    /// Total pairs quarantined, across all stages.
    pub fn quarantined(&self) -> usize {
        self.quarantined_align + self.quarantined_codegen + self.quarantined_verify
    }

    /// Folds another run's stats into this one — how streamed-corpus
    /// drivers (`experiments scale`) aggregate per-chunk pipeline runs
    /// into corpus totals. Counters and timers add; `threads` keeps the
    /// maximum seen.
    pub fn accumulate(&mut self, other: &PipelineStats) {
        self.threads = self.threads.max(other.threads);
        self.generations += other.generations;
        self.prepared += other.prepared;
        self.reused += other.reused;
        self.recomputed += other.recomputed;
        self.gate_skipped += other.gate_skipped;
        self.budget_skipped += other.budget_skipped;
        self.schedule += other.schedule;
        self.schedule_query += other.schedule_query;
        self.schedule_prefill += other.schedule_prefill;
        self.schedule_cpu += other.schedule_cpu;
        self.prepare += other.prepare;
        self.prepare_cpu += other.prepare_cpu;
        self.commit += other.commit;
        self.commit_codegen += other.commit_codegen;
        self.rewrite += other.rewrite;
        self.quarantined_align += other.quarantined_align;
        self.quarantined_codegen += other.quarantined_codegen;
        self.quarantined_verify += other.quarantined_verify;
        self.panics_caught += other.panics_caught;
        self.mismatches += other.mismatches;
        self.commit_barriers += other.commit_barriers;
    }

    /// The canonical `(name, value)` serialization of every counter and
    /// stage timer — the single source behind `fmsa_opt --stats`,
    /// `experiments ... --json`, and the daemon's registry gauges, so a
    /// counter added here can never drift out of any of them.
    pub fn fields(&self) -> Vec<(&'static str, StatValue)> {
        use StatValue::{Count, Secs};
        vec![
            ("threads", Count(self.threads as u64)),
            ("generations", Count(self.generations as u64)),
            ("prepared", Count(self.prepared as u64)),
            ("reused", Count(self.reused as u64)),
            ("recomputed", Count(self.recomputed as u64)),
            ("gate_skipped", Count(self.gate_skipped as u64)),
            ("budget_skipped", Count(self.budget_skipped as u64)),
            ("schedule_s", Secs(self.schedule.as_secs_f64())),
            ("schedule_query_s", Secs(self.schedule_query.as_secs_f64())),
            ("schedule_prefill_s", Secs(self.schedule_prefill.as_secs_f64())),
            ("schedule_cpu_s", Secs(self.schedule_cpu.as_secs_f64())),
            ("prepare_s", Secs(self.prepare.as_secs_f64())),
            ("prepare_cpu_s", Secs(self.prepare_cpu.as_secs_f64())),
            ("commit_s", Secs(self.commit.as_secs_f64())),
            ("commit_codegen_s", Secs(self.commit_codegen.as_secs_f64())),
            ("rewrite_s", Secs(self.rewrite.as_secs_f64())),
            ("commit_barriers", Count(self.commit_barriers as u64)),
            ("quarantined", Count(self.quarantined() as u64)),
            ("quarantined_align", Count(self.quarantined_align as u64)),
            ("quarantined_codegen", Count(self.quarantined_codegen as u64)),
            ("quarantined_verify", Count(self.quarantined_verify as u64)),
            ("panics_caught", Count(self.panics_caught as u64)),
        ]
    }
}

/// One value of [`PipelineStats::fields`].
#[derive(Debug, Clone, Copy)]
pub enum StatValue {
    /// An event count (serialized as an integer).
    Count(u64),
    /// A wall/CPU duration in seconds.
    Secs(f64),
}

/// One attempt aligned and gated by the prepare stage.
struct Prepared {
    /// `None` when the alignment budget skipped the pair.
    alignment: Option<Alignment>,
    /// Whether the optimistic-Δ gate left the pair in play.
    promising: bool,
    /// Mutation generations of `(f1, f2)` at schedule time.
    gens: (u64, u64),
    /// Global invalidation epoch at schedule time (bumped when a failed
    /// commit leaves the module in a state the per-function generations
    /// cannot describe).
    epoch: u64,
}

/// Prepared attempts of one generation, keyed by `(subject, candidate)`.
type PreparedMap = HashMap<(FuncId, FuncId), Prepared>;

/// Aligns one pair's class ids under the configuration's alignment
/// budget. Equal ids are exactly the §III-D equivalent entries, so this
/// is the alignment the reference driver computes with the predicate.
/// Returns `None` when the budget refuses the pair.
fn align_budgeted(ids1: &[u32], ids2: &[u32], cfg: &Config) -> Option<Alignment> {
    align_with_plan(
        ids1,
        ids2,
        |a, b| a == b,
        &cfg.merge.scoring,
        cfg.budget.plan(ids1.len(), ids2.len()),
        cfg.merge.algorithm == AlignAlgo::Hirschberg,
    )
}

/// Aligns one pair and applies the sound optimistic-Δ gate: the
/// alignment (`None` when the budget refused it) and whether the pair is
/// still worth generating code for.
fn align_and_gate(
    module: &Module,
    cm: &CostModel,
    f1: FuncId,
    f2: FuncId,
    lin1: &Linearized,
    lin2: &Linearized,
    cfg: &Config,
) -> (Option<Alignment>, bool) {
    let alignment = align_budgeted(lin1.ids(), lin2.ids(), cfg);
    let (seq1, seq2) = (lin1.entries(), lin2.entries());
    let promising = alignment
        .as_ref()
        .is_some_and(|al| optimistic_delta(module, cm, f1, f2, seq1, seq2, al) > 0);
    (alignment, promising)
}

/// Runs the FMSA optimization over `module` with the merge pipeline.
/// Produces a module bit-identical to [`run_fmsa`] for any
/// [`Config::threads`] (see the module docs for why), in substantially
/// less wall-clock: alignments are computed ahead of commit on a worker
/// pool, functions are linearized once per generation instead of once
/// per attempt, and profitability queries hit an incremental call-site
/// index instead of rescanning the module.
///
/// Oracle runs ([`Config::oracle`]) delegate to the reference driver.
pub fn run_fmsa_pipeline(module: &mut Module, cfg: &Config) -> FmsaStats {
    if cfg.oracle {
        return run_fmsa(module, cfg);
    }
    let _pass_span = trace::span("fmsa", "pass");
    let mut driver = Driver::new(module, cfg);
    while !driver.worklist.is_empty() {
        driver.generation(module);
    }
    driver.finish(module)
}

/// The pipeline's state across generations: the seeded pass (index,
/// fingerprints, worklist, live set), the caches that let the commit
/// stage re-validate prepared attempts, and the run statistics.
struct Driver<'c> {
    cfg: &'c Config,
    cm: CostModel,
    threads: usize,
    pool: rayon::ThreadPool,
    fingerprints: HashMap<FuncId, Fingerprint>,
    index: Box<dyn CandidateSearch>,
    worklist: VecDeque<FuncId>,
    live: HashSet<FuncId>,
    lin_cache: LinearizationCache,
    call_sites: CallSiteIndex,
    /// Per-function mutation generations: a prepared attempt is reused
    /// only while both of its functions still have the generation they
    /// had at schedule time.
    gens: HashMap<FuncId, u64>,
    /// Global invalidation epoch, bumped by [`Driver::resync`].
    epoch: u64,
    /// Set by the first commit of a generation: from then on the index
    /// may answer differently than it did at schedule time, so candidate
    /// lists are re-queried (exactly what the reference driver would see
    /// at this point of the worklist).
    dirty: bool,
    stats: FmsaStats,
    pstats: PipelineStats,
}

impl<'c> Driver<'c> {
    fn new(module: &mut Module, cfg: &'c Config) -> Driver<'c> {
        let threads = cfg.resolved_threads();
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool");
        let cm = CostModel::new(cfg.arch);
        let mut stats = FmsaStats { size_before: cm.module_size(module), ..FmsaStats::default() };
        // Seed fingerprints and the candidate-search index with the exact
        // same helper as the reference driver (part of the bit-identity
        // guarantee).
        let SeededPass { fingerprints, index, worklist, live } =
            seed_pass(module, cfg, &mut stats.timers, (threads > 1).then_some(&pool));
        Driver {
            cfg,
            cm,
            threads,
            pool,
            fingerprints,
            index,
            worklist,
            live,
            lin_cache: LinearizationCache::new(),
            call_sites: CallSiteIndex::build(module),
            gens: HashMap::new(),
            epoch: 0,
            dirty: false,
            stats,
            pstats: PipelineStats { threads, ..PipelineStats::default() },
        }
    }

    /// The worker pool, or `None` at one thread: single-threaded runs
    /// execute every parallel phase inline, with no pool handoff.
    fn pool(&self) -> Option<&rayon::ThreadPool> {
        (self.threads > 1).then_some(&self.pool)
    }

    fn gen_of(&self, f: FuncId) -> u64 {
        self.gens.get(&f).copied().unwrap_or(0)
    }

    fn finish(mut self, module: &Module) -> FmsaStats {
        self.stats.size_after = self.cm.module_size(module);
        self.stats.pipeline = Some(self.pstats);
        self.stats
    }

    /// One schedule → prepare → commit generation over the front of the
    /// worklist.
    fn generation(&mut self, module: &mut Module) {
        self.pstats.generations += 1;
        let _gen_span = trace::span_with("fmsa", "generation", || {
            vec![("gen", self.pstats.generations.to_string())]
        });
        let live = &self.live;
        let subjects: Vec<FuncId> =
            self.worklist.drain(..).filter(|&f| live.contains(&f) && module.is_live(f)).collect();
        if subjects.is_empty() {
            return;
        }
        let scheduled = self.schedule(&subjects);
        let prepared =
            if self.threads > 1 { self.prepare(module, &scheduled) } else { PreparedMap::new() };
        self.commit(module, scheduled, &prepared);
    }

    /// Queries every subject's top candidates against the read-only index.
    fn schedule(&mut self, subjects: &[FuncId]) -> Vec<(FuncId, Vec<Candidate>)> {
        let _sched_span = trace::span("fmsa", "schedule");
        let t0 = Instant::now();
        // Queries only read the index and the fingerprint map
        // (`CandidateSearch` is `Send + Sync` for exactly this), and
        // `par_map` returns results in input order, so parallel
        // scheduling is candidate-for-candidate identical to the serial
        // loop. At one thread `par_map` runs inline.
        let (index, fps, cfg) = (self.index.as_ref(), &self.fingerprints, self.cfg);
        let query_cpu = AtomicU64::new(0);
        let scheduled = self.pool.par_map(subjects, |_, &f| {
            let _s = trace::span("fmsa", "query");
            let t = Instant::now();
            let cands = index.candidates(f, &fps[&f], fps, cfg.threshold, cfg.min_similarity);
            query_cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            (f, cands)
        });
        self.pstats.schedule_cpu += Duration::from_nanos(query_cpu.into_inner());
        let dt = t0.elapsed();
        self.stats.timers.ranking += dt;
        self.pstats.schedule += dt;
        self.pstats.schedule_query += dt;
        scheduled
    }

    /// The parallel prepare stage (multi-threaded runs only): aligns and
    /// gates every scheduled pair.
    fn prepare(&mut self, module: &Module, scheduled: &[(FuncId, Vec<Candidate>)]) -> PreparedMap {
        let _prep_span = trace::span("fmsa", "prepare");
        let (cfg, cm, faults) = (self.cfg, &self.cm, self.cfg.faults);
        let mut jobs: Vec<(FuncId, FuncId)> = Vec::new();
        let mut seen: HashSet<(FuncId, FuncId)> = HashSet::new();
        for (f1, cands) in scheduled {
            for c in cands {
                if seen.insert((*f1, c.func)) {
                    jobs.push((*f1, c.func));
                }
            }
        }
        let t0 = Instant::now();
        let lin_funcs: Vec<FuncId> = jobs.iter().flat_map(|&(f1, f2)| [f1, f2]).collect();
        self.pstats.schedule_cpu += self.lin_cache.prefill(module, &lin_funcs, &self.pool);
        let dt = t0.elapsed();
        self.stats.timers.linearization += dt;
        self.pstats.schedule += dt;
        self.pstats.schedule_prefill += dt;
        let t0 = Instant::now();
        let cache = &self.lin_cache;
        // Fault boundary: a panicking align worker must not take the
        // scope down (the stand-in pool rethrows at join). A panicked
        // pair simply stays out of `prepared`; the commit stage's inline
        // retry is the authoritative attempt, so the quarantine decision
        // is made there, identically at every thread count.
        let align_cpu = AtomicU64::new(0);
        let results = self.pool.par_map(&jobs, |_, &(f1, f2)| {
            let _s = trace::span("fmsa", "align");
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                let seq1 = cache.cached(f1).expect("pre-filled");
                let seq2 = cache.cached(f2).expect("pre-filled");
                let (n1, n2) = (&module.func(f1).name, &module.func(f2).name);
                if faults.fires(FaultSite::Align, n1, n2) {
                    panic!("injected fault: align {n1} {n2}");
                }
                align_and_gate(module, cm, f1, f2, &seq1, &seq2, cfg)
            }))
            .ok();
            align_cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            r
        });
        self.stats.timers.alignment += t0.elapsed();
        self.pstats.prepare += t0.elapsed();
        self.pstats.prepare_cpu += Duration::from_nanos(align_cpu.into_inner());
        let mut prepared = PreparedMap::new();
        for ((f1, f2), result) in jobs.into_iter().zip(results) {
            let Some((alignment, promising)) = result else {
                self.pstats.panics_caught += 1;
                continue;
            };
            self.pstats.prepared += 1;
            let gens = (self.gen_of(f1), self.gen_of(f2));
            prepared.insert((f1, f2), Prepared { alignment, promising, gens, epoch: self.epoch });
        }
        prepared
    }

    /// The sequential commit stage: visits the generation's subjects in
    /// worklist order and runs the greedy exploration over each one's
    /// candidates.
    fn commit(
        &mut self,
        module: &mut Module,
        scheduled: Vec<(FuncId, Vec<Candidate>)>,
        prepared: &PreparedMap,
    ) {
        let _commit_span = trace::span("fmsa", "commit");
        let t_commit = Instant::now();
        self.dirty = false;
        for (f1, scheduled_cands) in scheduled {
            if !self.live.contains(&f1) || !module.is_live(f1) {
                continue;
            }
            let cands = if self.dirty {
                let t0 = Instant::now();
                let c = self.index.candidates(
                    f1,
                    &self.fingerprints[&f1],
                    &self.fingerprints,
                    self.cfg.threshold,
                    self.cfg.min_similarity,
                );
                self.stats.timers.ranking += t0.elapsed();
                c
            } else {
                scheduled_cands
            };
            for (pos, cand) in cands.iter().enumerate() {
                if self.attempt(module, f1, pos, cand, prepared) {
                    break; // greedy: first profitable candidate wins
                }
            }
        }
        self.pstats.commit += t_commit.elapsed();
    }

    /// Attempts to merge subject `f1` with its `pos`-th candidate,
    /// replaying the reference driver's decision exactly. Returns `true`
    /// when exploration of `f1` ends here: a profitable merge was found
    /// (and committed, or abandoned on a failed commit as the reference
    /// driver does).
    fn attempt(
        &mut self,
        module: &mut Module,
        f1: FuncId,
        pos: usize,
        cand: &Candidate,
        prepared: &PreparedMap,
    ) -> bool {
        let (f2, cfg, faults) = (cand.func, self.cfg, self.cfg.faults);
        self.stats.attempted += 1;
        let t0 = Instant::now();
        let seq1 = self.lin_cache.get(module, f1);
        let seq2 = self.lin_cache.get(module, f2);
        self.stats.timers.linearization += t0.elapsed();
        let gens_now = (self.gen_of(f1), self.gen_of(f2));
        // Names key the fault plan and the quarantine log: they are
        // stable across thread counts, unlike ids-at-commit.
        let n1 = module.func(f1).name.clone();
        let n2 = module.func(f2).name.clone();
        let _att_span = trace::span_with("fmsa", "merge_attempt", || {
            vec![("subject", n1.clone()), ("candidate", n2.clone())]
        });
        // Decision-log state for this attempt: every exit path below
        // resolves it to exactly one outcome.
        let rec = |align_score: Option<i64>, delta: Option<i64>, outcome: DecisionOutcome| {
            DecisionRecord {
                subject: n1.clone(),
                candidate: n2.clone(),
                similarity: cand.similarity,
                rank: (pos + 1) as u32,
                align_score,
                delta,
                outcome,
            }
        };
        let (alignment, promising) = match prepared.get(&(f1, f2)) {
            Some(p) if p.gens == gens_now && p.epoch == self.epoch => {
                self.pstats.reused += 1;
                (p.alignment.clone(), p.promising)
            }
            _ => {
                if self.threads > 1 {
                    self.pstats.recomputed += 1;
                }
                let t0 = Instant::now();
                // Fault boundary: this inline recompute is the
                // authoritative alignment (it also runs for pairs whose
                // prepare worker panicked), so a panic here quarantines
                // the pair — deterministically, since nothing on this
                // path depends on thread count.
                let recomputed = catch_unwind(AssertUnwindSafe(|| {
                    if faults.fires(FaultSite::Align, &n1, &n2) {
                        panic!("injected fault: align {n1} {n2}");
                    }
                    align_and_gate(module, &self.cm, f1, f2, &seq1, &seq2, cfg)
                }));
                self.stats.timers.alignment += t0.elapsed();
                match recomputed {
                    Ok(r) => r,
                    Err(payload) => {
                        self.pstats.panics_caught += 1;
                        let reason = panic_message(payload.as_ref());
                        self.quarantine(QuarantineStage::Align, &n1, &n2, reason);
                        self.stats.decisions.push(rec(None, None, DecisionOutcome::Quarantined));
                        return false;
                    }
                }
            }
        };
        let align_score = alignment.as_ref().map(|al| al.score);
        let Some(alignment) = alignment else {
            self.pstats.budget_skipped += 1;
            self.stats.decisions.push(rec(None, None, DecisionOutcome::BudgetSkipped));
            return false;
        };
        if !promising {
            // Sound gate: the optimistic Δ bound proves the real Δ would
            // be ≤ 0, so the reference driver would have generated and
            // discarded this merge. Skip codegen.
            self.pstats.gate_skipped += 1;
            self.stats.decisions.push(rec(align_score, None, DecisionOutcome::GateSkipped));
            return false;
        }
        let t0 = Instant::now();
        // `outcome`: a merged function present in the module plus its
        // profitability, or `Err` with the attempt's final record when
        // it is over (codegen failure or a quarantined pair).
        let outcome: Result<(MergeInfo, ProfitReport), DecisionRecord> = 'attempt: {
            // Inline codegen, behind a fault boundary: this path runs
            // identically at every thread count, so its panics (and
            // verifier rejections of its output) decide quarantine.
            let arena_mark = module.func_arena_len();
            let built = catch_unwind(AssertUnwindSafe(|| {
                if faults.fires(FaultSite::Codegen, &n1, &n2) {
                    panic!("injected fault: codegen {n1} {n2}");
                }
                merge_pair_aligned(
                    module,
                    f1,
                    f2,
                    seq1.entries().to_vec(),
                    seq2.entries().to_vec(),
                    alignment,
                    &cfg.merge,
                )
            }));
            let info = match built {
                Ok(Ok(info)) => info,
                Ok(Err(_)) => break 'attempt Err(rec(align_score, None, DecisionOutcome::Failed)),
                Err(payload) => {
                    // A panic mid-codegen can leave partially built
                    // functions behind; sweep everything created since
                    // the snapshot.
                    for idx in arena_mark..module.func_arena_len() {
                        let id = FuncId::from_index(idx);
                        if module.is_live(id) {
                            module.remove_function(id);
                        }
                    }
                    self.pstats.panics_caught += 1;
                    let reason = panic_message(payload.as_ref());
                    self.quarantine(QuarantineStage::Codegen, &n1, &n2, reason);
                    break 'attempt Err(rec(align_score, None, DecisionOutcome::Quarantined));
                }
            };
            // Never commit an unverified merged body: a rejection here is
            // a real bug in codegen (or an injected verifier fault), so
            // the pair is quarantined.
            let errs = fmsa_ir::verify_function(module, info.merged);
            let verify_inject = faults.fires(FaultSite::Verify, &n1, &n2);
            if verify_inject || !errs.is_empty() {
                let reason = if verify_inject {
                    format!("injected fault: verify {n1} {n2}")
                } else {
                    errs[0].to_string()
                };
                module.remove_function(info.merged);
                self.quarantine(QuarantineStage::Verify, &n1, &n2, reason);
                break 'attempt Err(rec(align_score, None, DecisionOutcome::Quarantined));
            }
            let report = evaluate_indexed(module, &self.cm, &info, &self.call_sites);
            Ok((info, report))
        };
        self.stats.timers.codegen += t0.elapsed();
        self.pstats.commit_codegen += t0.elapsed();
        match outcome {
            Ok((info, report)) if report.is_profitable() => {
                let merged = rec(align_score, Some(report.delta), DecisionOutcome::Merged);
                self.accept(module, f1, info, pos + 1, merged);
                true
            }
            Ok((info, report)) => {
                module.remove_function(info.merged);
                let unprofitable = DecisionOutcome::Unprofitable;
                self.stats.decisions.push(rec(align_score, Some(report.delta), unprofitable));
                false
            }
            Err(record) => {
                self.stats.decisions.push(record);
                false
            }
        }
    }

    /// Quarantines the pair `(n1, n2)` at `stage`, counting it once.
    fn quarantine(&mut self, stage: QuarantineStage, n1: &str, n2: &str, reason: String) {
        if self.stats.quarantine.push(stage, n1, n2, reason, self.cfg.faults.seed) {
            match stage {
                QuarantineStage::Align => self.pstats.quarantined_align += 1,
                QuarantineStage::Codegen => self.pstats.quarantined_codegen += 1,
                QuarantineStage::Verify => self.pstats.quarantined_verify += 1,
                // Only external drivers (the fuzz farm) report mismatches.
                QuarantineStage::Mismatch => {}
            }
        }
    }

    /// Commits the profitable, verified merge of `f1` with `info.f2` and
    /// books it: counters, the decision record `rec`, the search index,
    /// fingerprints and liveness, the call-site index and mutation
    /// generations, and the worklist (feedback loop). `rank` is the
    /// winning candidate's 1-based position.
    fn accept(
        &mut self,
        module: &mut Module,
        f1: FuncId,
        info: MergeInfo,
        rank: usize,
        mut rec: DecisionRecord,
    ) {
        let f2 = info.f2;
        let t0 = Instant::now();
        // Call-graph update through the partitioned rewrite: callers
        // come from the incremental call-site index, disjoint caller
        // partitions rewrite on the worker pool.
        self.pstats.commit_barriers += 1;
        let committed = commit_merge_partitioned(module, &info, &self.call_sites, self.pool());
        self.stats.timers.update_calls += t0.elapsed();
        self.pstats.rewrite += t0.elapsed();
        let Ok(CommitResult { first, second, touched }) = committed else {
            // Should not happen (guarded by tests). Mirror the reference
            // driver: drop the merge and abandon this subject. A failed
            // commit may have partially rewritten call sites, a state the
            // per-function generations cannot describe, so resynchronize.
            module.remove_function(info.merged);
            rec.outcome = DecisionOutcome::Failed;
            self.stats.decisions.push(rec);
            self.resync(module);
            return;
        };
        self.stats.merges += 1;
        self.stats.rank_positions.push(rank);
        self.stats.decisions.push(rec);
        // Retire the originals from the merge pool and the caches.
        for (func, disposition) in [(f1, first), (f2, second)] {
            self.live.remove(&func);
            self.fingerprints.remove(&func);
            self.index.remove(func);
            self.lin_cache.invalidate(func);
            match disposition {
                Disposition::Deleted => {
                    self.stats.deleted += 1;
                    self.call_sites.remove(func);
                    self.gens.remove(&func);
                }
                Disposition::Thunk => {
                    self.stats.thunks += 1;
                    self.call_sites.refresh(module, func);
                    *self.gens.entry(func).or_insert(0) += 1;
                }
            }
        }
        // Rewritten callers get new generations and fresh call-site
        // entries.
        for &g in &touched {
            self.lin_cache.invalidate(g);
            *self.gens.entry(g).or_insert(0) += 1;
            if module.is_live(g) {
                self.call_sites.refresh(module, g);
            } else {
                self.call_sites.remove(g);
            }
        }
        self.call_sites.refresh(module, info.merged);
        // Feedback loop: rewritten callers re-enter the index with fresh
        // fingerprints, the merged function joins the next generation's
        // worklist.
        let t0 = Instant::now();
        for g in touched {
            if self.live.contains(&g) && module.is_live(g) {
                let fp = Fingerprint::of(module, g);
                self.index.insert(g, &fp);
                self.fingerprints.insert(g, fp);
            }
        }
        let merged_fp = Fingerprint::of(module, info.merged);
        self.index.insert(info.merged, &merged_fp);
        self.fingerprints.insert(info.merged, merged_fp);
        self.stats.timers.fingerprinting += t0.elapsed();
        self.live.insert(info.merged);
        self.worklist.push_back(info.merged);
        self.dirty = true;
    }

    /// Rebuilds the caches from the module and invalidates every prepared
    /// attempt — after a failed commit, which may leave the module in a
    /// state the per-function generations cannot describe.
    fn resync(&mut self, module: &Module) {
        self.call_sites = CallSiteIndex::build(module);
        self.lin_cache = LinearizationCache::new();
        self.epoch += 1;
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::printer::print_module;
    use fmsa_ir::{FuncBuilder, Value};

    fn clone_family(m: &mut Module, count: usize, body_len: usize) -> Vec<FuncId> {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let mut out = Vec::new();
        for k in 0..count {
            let f = m.create_function(format!("fam{k}"), fn_ty);
            let mut b = FuncBuilder::new(m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for j in 0..body_len {
                v = b.add(v, b.const_i32(j as i32));
                v = b.mul(v, Value::Param(1));
            }
            v = b.xor(v, b.const_i32(k as i32 + 100));
            b.ret(Some(v));
            out.push(f);
        }
        out
    }

    fn t5() -> Config {
        Config::new().threshold(5)
    }

    fn assert_matches_sequential(cfg: &Config) {
        let mut m1 = Module::new("m");
        clone_family(&mut m1, 6, 12);
        let seq = run_fmsa(&mut m1, cfg);
        let mut m2 = Module::new("m");
        clone_family(&mut m2, 6, 12);
        let par = run_fmsa_pipeline(&mut m2, cfg);
        assert_eq!(print_module(&m1), print_module(&m2), "module text must be bit-identical");
        assert_eq!(seq.merges, par.merges);
        assert_eq!(seq.attempted, par.attempted);
        assert_eq!(seq.rank_positions, par.rank_positions);
        assert_eq!(seq.size_after, par.size_after);
        assert_eq!((seq.deleted, seq.thunks), (par.deleted, par.thunks));
    }

    #[test]
    fn single_thread_matches_sequential() {
        assert_matches_sequential(&t5());
    }

    #[test]
    fn multi_thread_matches_sequential() {
        for threads in [2, 4, 8] {
            assert_matches_sequential(&t5().parallel(threads));
        }
    }

    #[test]
    fn lsh_pipeline_matches_lsh_sequential() {
        assert_matches_sequential(&t5().search(crate::SearchStrategy::lsh()).parallel(4));
    }

    #[test]
    fn oracle_delegates_to_sequential() {
        let mut m1 = Module::new("m");
        clone_family(&mut m1, 5, 10);
        let seq = run_fmsa(&mut m1, &Config::new().oracle(true));
        let mut m2 = Module::new("m");
        clone_family(&mut m2, 5, 10);
        let par = run_fmsa_pipeline(&mut m2, &Config::new().oracle(true).parallel(4));
        assert_eq!(print_module(&m1), print_module(&m2));
        assert!(par.pipeline.is_none(), "oracle runs report sequential stats");
        assert_eq!(seq.merges, par.merges);
    }

    #[test]
    fn pipeline_reports_telemetry() {
        let mut m = Module::new("m");
        clone_family(&mut m, 6, 12);
        let stats = run_fmsa_pipeline(&mut m, &t5().parallel(4));
        let p = stats.pipeline.expect("pipeline stats");
        assert_eq!(p.threads, 4);
        assert!(p.generations >= 1);
        assert!(p.prepared > 0);
        assert!(p.reused > 0);
        assert!(p.rewrite > Duration::ZERO, "commits must book rewrite time: {p:?}");
        assert!(p.rewrite <= p.commit, "{p:?}");
        assert_eq!(p.commit_barriers, stats.merges, "one barrier per commit: {p:?}");
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn schedule_timers_split_query_and_prefill() {
        let mut m = Module::new("m");
        clone_family(&mut m, 8, 12);
        let stats = run_fmsa_pipeline(&mut m, &t5().parallel(4));
        let p = stats.pipeline.expect("pipeline stats");
        assert_eq!(p.schedule, p.schedule_query + p.schedule_prefill, "{p:?}");
        assert!(p.schedule_query > Duration::ZERO, "{p:?}");
        // Multi-thread runs pre-fill the cache and book CPU time for
        // the parallel phases.
        assert!(p.schedule_prefill > Duration::ZERO, "{p:?}");
        assert!(p.schedule_cpu > Duration::ZERO, "{p:?}");
        assert!(p.prepare_cpu > Duration::ZERO, "{p:?}");
    }

    #[test]
    fn injected_faults_quarantine_deterministically() {
        use crate::faults::{FaultPlan, FaultSite};
        crate::faults::silence_injected_panics();
        // High rate so the small family reliably faults somewhere.
        let plan = FaultPlan::new(0xFA17, 400_000, &FaultSite::ALL);
        let mut baseline = None;
        for threads in [1usize, 2, 4] {
            let mut m = Module::new("m");
            clone_family(&mut m, 6, 12);
            let stats = run_fmsa_pipeline(&mut m, &t5().parallel(threads).faults(plan));
            assert!(fmsa_ir::verify_module(&m).is_empty(), "faulted run stays valid");
            let p = stats.pipeline.expect("pipeline stats");
            assert_eq!(
                p.quarantined_align + p.quarantined_codegen + p.quarantined_verify,
                p.quarantined()
            );
            assert_eq!(stats.quarantine.len(), p.quarantined(), "log and counters agree");
            let snapshot = (print_module(&m), stats.quarantine.summary(), stats.merges);
            match &baseline {
                None => baseline = Some(snapshot),
                Some(b) => assert_eq!(b, &snapshot, "thread count {threads} diverged"),
            }
        }
        let (_, summary, _) = baseline.expect("ran");
        assert!(!summary.is_empty(), "this plan must quarantine something");
    }

    #[test]
    fn budget_skip_abandons_pairs() {
        use fmsa_align::{AlignmentBudget, BudgetFallback};
        let mut m = Module::new("m");
        clone_family(&mut m, 4, 12);
        let cfg = t5().parallel(2).budget(AlignmentBudget {
            full_matrix_cells: usize::MAX,
            fallback: BudgetFallback::Skip,
            max_len: 4, // every family member is longer than this
        });
        let stats = run_fmsa_pipeline(&mut m, &cfg);
        assert_eq!(stats.merges, 0);
        assert!(stats.pipeline.expect("stats").budget_skipped > 0);
    }
}

//! Seeded random trace generators for tests and benchmarks.
//!
//! [`GenConfig`] describes a family of synthetic multithreaded executions:
//! a main thread forks `threads - 1` workers, each worker performs a random
//! mix of guarded and unguarded variable accesses plus volatile traffic, and
//! the main thread joins everyone. The per-variable *lock discipline*
//! probability controls raciness: at `1.0` every access to `x` holds
//! `lock_of(x)` and the trace is race-free by construction; lower values
//! leave some accesses unguarded, producing real races.
//!
//! Interleaving is produced by a seeded scheduler that only picks enabled
//! actions, so generated traces always satisfy [`Trace::validate`].
//!
//! # Examples
//!
//! ```
//! use pacer_trace::gen::GenConfig;
//! use pacer_trace::HbOracle;
//!
//! let racy = GenConfig::small(42).with_lock_discipline(0.5).generate();
//! racy.validate().expect("generated traces are well-formed");
//!
//! let clean = GenConfig::small(42).race_free().generate();
//! assert!(HbOracle::analyze(&clean).is_race_free());
//! ```

use pacer_clock::ThreadId;
use pacer_prng::Rng;

use crate::{Action, LockId, SiteId, Trace, VarId, VolatileId};

/// How generated accesses get their [`SiteId`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteMode {
    /// Every dynamic access gets a fresh site (useful when a test must
    /// identify races exactly by site pair).
    UniquePerEvent,
    /// Each variable has this many static sites, shared across its dynamic
    /// accesses (models real programs, where distinct races are few).
    PerVar(u32),
}

/// Configuration for the random trace generator. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Total threads, including the main thread `t0`. Must be ≥ 1.
    pub threads: usize,
    /// Number of data variables.
    pub vars: usize,
    /// Number of locks; variable `x` is guarded by lock `x mod locks`.
    pub locks: usize,
    /// Number of volatile variables (0 disables volatile traffic).
    pub volatiles: usize,
    /// Operations per worker thread (each op is one access, possibly
    /// wrapped in an acquire/release pair, or one volatile access).
    pub ops_per_thread: usize,
    /// Probability that an access to `x` holds `lock_of(x)`.
    pub lock_discipline: f64,
    /// Probability that an access is a write (vs. a read).
    pub write_fraction: f64,
    /// Probability that an op is a volatile access instead of a data access.
    pub volatile_prob: f64,
    /// Site assignment policy.
    pub site_mode: SiteMode,
    /// RNG seed; equal configs with equal seeds generate equal traces.
    pub seed: u64,
}

impl GenConfig {
    /// A small config suitable for unit and property tests.
    pub fn small(seed: u64) -> Self {
        GenConfig {
            threads: 4,
            vars: 8,
            locks: 2,
            volatiles: 1,
            ops_per_thread: 25,
            lock_discipline: 0.8,
            write_fraction: 0.4,
            volatile_prob: 0.05,
            site_mode: SiteMode::UniquePerEvent,
            seed,
        }
    }

    /// Sets the lock-discipline probability.
    pub fn with_lock_discipline(mut self, p: f64) -> Self {
        self.lock_discipline = p;
        self
    }

    /// Sets the number of threads (including main).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets operations per worker thread.
    pub fn with_ops_per_thread(mut self, ops: usize) -> Self {
        self.ops_per_thread = ops;
        self
    }

    /// Sets the site assignment policy.
    pub fn with_site_mode(mut self, mode: SiteMode) -> Self {
        self.site_mode = mode;
        self
    }

    /// Full lock discipline: the generated trace is race-free by
    /// construction.
    pub fn race_free(mut self) -> Self {
        self.lock_discipline = 1.0;
        self
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, or `locks == 0` while `lock_discipline >
    /// 0`, or `volatiles == 0` while `volatile_prob > 0`.
    pub fn generate(&self) -> Trace {
        assert!(self.threads >= 1, "need at least the main thread");
        assert!(
            self.locks > 0 || self.lock_discipline == 0.0,
            "lock discipline requires locks"
        );
        assert!(
            self.volatiles > 0 || self.volatile_prob == 0.0,
            "volatile traffic requires volatiles"
        );

        let mut rng = Rng::seed_from_u64(self.seed);
        let mut next_site = 0u32;
        let mut site_for = |x: VarId, rng: &mut Rng| -> SiteId {
            match self.site_mode {
                SiteMode::UniquePerEvent => {
                    let s = SiteId::new(next_site);
                    next_site += 1;
                    s
                }
                SiteMode::PerVar(k) => SiteId::new(x.raw() * k + rng.gen_range(0..k.max(1))),
            }
        };

        // Build each worker's action script.
        let mut scripts: Vec<Vec<Action>> = Vec::with_capacity(self.threads);
        scripts.push(Vec::new()); // main thread acts via fork/join only
        for ti in 1..self.threads {
            let t = ThreadId::new(ti as u32);
            let mut script = Vec::with_capacity(self.ops_per_thread * 3);
            for _ in 0..self.ops_per_thread {
                if self.volatiles > 0 && rng.gen_bool(self.volatile_prob) {
                    let v = VolatileId::new(rng.gen_range(0..self.volatiles as u32));
                    if rng.gen_bool(0.5) {
                        script.push(Action::VolRead { t, v });
                    } else {
                        script.push(Action::VolWrite { t, v });
                    }
                    continue;
                }
                let x = VarId::new(rng.gen_range(0..self.vars.max(1) as u32));
                let site = site_for(x, &mut rng);
                let access = if rng.gen_bool(self.write_fraction) {
                    Action::Write { t, x, site }
                } else {
                    Action::Read { t, x, site }
                };
                if self.lock_discipline > 0.0 && rng.gen_bool(self.lock_discipline) {
                    let m = LockId::new(x.raw() % self.locks as u32);
                    script.push(Action::Acquire { t, m });
                    script.push(access);
                    script.push(Action::Release { t, m });
                } else {
                    script.push(access);
                }
            }
            scripts.push(script);
        }

        let mut trace = Trace::new();
        let main = ThreadId::new(0);
        for ti in 1..self.threads {
            trace.push(Action::Fork {
                t: main,
                u: ThreadId::new(ti as u32),
            });
        }

        // Scheduler: repeatedly pick a random thread whose next action is
        // enabled (an acquire of a free lock, or anything else).
        let mut cursors = vec![0usize; self.threads];
        let mut held: std::collections::HashMap<LockId, ThreadId> =
            std::collections::HashMap::new();
        let mut live: Vec<usize> = (1..self.threads)
            .filter(|&ti| !scripts[ti].is_empty())
            .collect();
        while !live.is_empty() {
            rng.shuffle(&mut live);
            let mut progressed = false;
            for pos in 0..live.len() {
                let ti = live[pos];
                let action = scripts[ti][cursors[ti]];
                let enabled = match action {
                    Action::Acquire { m, .. } => !held.contains_key(&m),
                    _ => true,
                };
                if !enabled {
                    continue;
                }
                match action {
                    Action::Acquire { t, m } => {
                        held.insert(m, t);
                    }
                    Action::Release { m, .. } => {
                        held.remove(&m);
                    }
                    _ => {}
                }
                trace.push(action);
                cursors[ti] += 1;
                if cursors[ti] == scripts[ti].len() {
                    live.remove(pos);
                }
                progressed = true;
                break;
            }
            debug_assert!(progressed, "scheduler wedged: all heads blocked");
            if !progressed {
                break;
            }
        }

        for ti in 1..self.threads {
            trace.push(Action::Join {
                t: main,
                u: ThreadId::new(ti as u32),
            });
        }
        trace
    }
}

/// Overlays random global sampling periods onto `trace`, inserting
/// `sbegin`/`send` markers so that, in expectation, a fraction `rate` of
/// actions falls inside sampling periods, with mean period length
/// `avg_period` actions.
///
/// This models PACER's global sampling controller at trace granularity (the
/// runtime crate instead toggles at simulated GC boundaries, §4).
///
/// # Panics
///
/// Panics unless `0 ≤ rate ≤ 1` and `avg_period ≥ 1`.
pub fn insert_sampling_periods(trace: &Trace, rate: f64, avg_period: usize, seed: u64) -> Trace {
    let mut out = Trace::new();
    for action in ResampleSampling::new(trace.iter().copied(), rate, avg_period, seed) {
        out.push(action);
    }
    out
}

/// The push-mode core of [`ResampleSampling`]: fed one action at a time,
/// it drops existing `sbegin`/`send` markers and overlays fresh random
/// sampling periods.
///
/// It draws exactly one coin flip per non-marker action, so a consumer
/// pushing a stream through it (the `pacer serve` ingest) and one pulling
/// the same stream through [`ResampleSampling`] see identical actions.
///
/// # Panics
///
/// `new` panics unless `0 ≤ rate ≤ 1` and `avg_period ≥ 1`.
#[derive(Debug)]
pub struct Resampler {
    rng: Rng,
    rate: f64,
    p_on: f64,
    p_off: f64,
    sampling: bool,
}

impl Resampler {
    /// An overlay at the given `rate` with mean period length
    /// `avg_period` actions, seeded by `seed`.
    pub fn new(rate: f64, avg_period: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        assert!(avg_period >= 1, "avg_period must be at least 1");
        let p_off = 1.0 / avg_period as f64;
        let p_on = if rate >= 1.0 {
            1.0
        } else {
            (p_off * rate / (1.0 - rate)).min(1.0)
        };
        Resampler {
            rng: Rng::seed_from_u64(seed),
            rate,
            p_on,
            p_off,
            sampling: false,
        }
    }

    /// The actions `action` becomes, in order: a fresh marker when a
    /// period starts or ends just before it, then `action` itself — or
    /// nothing at all for an input marker, which is dropped.
    #[inline]
    pub fn push(&mut self, action: Action) -> [Option<Action>; 2] {
        if action.is_sampling_marker() {
            return [None, None];
        }
        let flip = if self.sampling {
            self.rng.gen_bool(self.p_off) && self.rate < 1.0
        } else {
            self.rng.gen_bool(self.p_on)
        };
        if !flip {
            return [None, Some(action)];
        }
        self.sampling = !self.sampling;
        let marker = if self.sampling {
            Action::SampleBegin
        } else {
            Action::SampleEnd
        };
        [Some(marker), Some(action)]
    }

    /// The `send` that closes a period still open at the end of the
    /// stream, once; `None` when no period is open.
    pub fn finish(&mut self) -> Option<Action> {
        std::mem::take(&mut self.sampling).then_some(Action::SampleEnd)
    }
}

/// Streaming form of [`insert_sampling_periods`]: a [`Resampler`] pulled
/// over an action iterator.
///
/// Emits at most one extra marker per input action plus a closing `send`, and
/// buffers at most one action, so it composes with the incremental binary
/// [`TraceReader`](crate::TraceReader) without materialising the whole trace
/// (`pacer replay --resample` uses exactly that pairing). For equal seeds the
/// output is action-for-action identical to [`insert_sampling_periods`] on
/// the materialised trace.
///
/// # Panics
///
/// `new` panics unless `0 ≤ rate ≤ 1` and `avg_period ≥ 1`.
#[derive(Debug)]
pub struct ResampleSampling<I> {
    inner: I,
    core: Resampler,
    /// Action held back while its preceding marker is yielded.
    pending: Option<Action>,
}

impl<I: Iterator<Item = Action>> ResampleSampling<I> {
    /// Wraps `inner`, overlaying sampling periods at the given `rate` with
    /// mean period length `avg_period` actions, seeded by `seed`.
    pub fn new(inner: I, rate: f64, avg_period: usize, seed: u64) -> Self {
        ResampleSampling {
            inner,
            core: Resampler::new(rate, avg_period, seed),
            pending: None,
        }
    }
}

impl<I: Iterator<Item = Action>> Iterator for ResampleSampling<I> {
    type Item = Action;

    fn next(&mut self) -> Option<Action> {
        if let Some(held) = self.pending.take() {
            return Some(held);
        }
        loop {
            let Some(action) = self.inner.next() else {
                return self.core.finish();
            };
            match self.core.push(action) {
                [Some(marker), held] => {
                    self.pending = held;
                    return Some(marker);
                }
                [None, Some(action)] => return Some(action),
                [None, None] => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HbOracle;

    #[test]
    fn generated_traces_are_well_formed() {
        for seed in 0..20 {
            let trace = GenConfig::small(seed).generate();
            trace
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}: invalid trace: {e}\n{}", trace.to_text()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GenConfig::small(7).generate();
        let b = GenConfig::small(7).generate();
        assert_eq!(a, b);
        let c = GenConfig::small(8).generate();
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn full_discipline_is_race_free() {
        for seed in 0..10 {
            let trace = GenConfig::small(seed).race_free().generate();
            assert!(
                HbOracle::analyze(&trace).is_race_free(),
                "seed {seed} produced a race under full lock discipline"
            );
        }
    }

    #[test]
    fn low_discipline_produces_races() {
        let mut any = false;
        for seed in 0..10 {
            let trace = GenConfig::small(seed).with_lock_discipline(0.0).generate();
            any |= !HbOracle::analyze(&trace).is_race_free();
        }
        assert!(any, "unguarded traces should race");
    }

    #[test]
    fn op_counts_match_config() {
        let cfg = GenConfig {
            volatile_prob: 0.0,
            lock_discipline: 0.0,
            ..GenConfig::small(1)
        };
        let trace = cfg.generate();
        let stats = trace.stats();
        assert_eq!(
            stats.accesses() as usize,
            (cfg.threads - 1) * cfg.ops_per_thread
        );
        assert_eq!(stats.forks as usize, cfg.threads - 1);
        assert_eq!(stats.joins as usize, cfg.threads - 1);
    }

    #[test]
    fn single_thread_config_generates_only_main() {
        let cfg = GenConfig {
            threads: 1,
            ..GenConfig::small(0)
        };
        let trace = cfg.generate();
        assert!(trace.is_empty());
    }

    #[test]
    fn sampling_overlay_hits_requested_rate() {
        let trace = GenConfig::small(3).with_ops_per_thread(2000).generate();
        let sampled = insert_sampling_periods(&trace, 0.10, 50, 9);
        sampled.validate().unwrap();
        let mask = sampled.sampling_mask();
        let non_marker: Vec<_> = sampled
            .iter()
            .zip(&mask)
            .filter(|(a, _)| !a.is_sampling_marker())
            .collect();
        let inside = non_marker.iter().filter(|(_, &m)| m).count();
        let rate = inside as f64 / non_marker.len() as f64;
        assert!(
            (0.05..0.20).contains(&rate),
            "effective rate {rate} too far from 0.10"
        );
    }

    #[test]
    fn sampling_overlay_full_rate_covers_everything() {
        let trace = GenConfig::small(3).generate();
        let sampled = insert_sampling_periods(&trace, 1.0, 10, 0);
        let mask = sampled.sampling_mask();
        let uncovered = sampled
            .iter()
            .zip(&mask)
            .filter(|(a, &m)| !a.is_sampling_marker() && !m)
            .count();
        assert_eq!(uncovered, 0);
    }

    #[test]
    fn streaming_resampler_matches_materialised_overlay() {
        let trace = GenConfig::small(7).with_ops_per_thread(500).generate();
        let pre_sampled = insert_sampling_periods(&trace, 0.25, 20, 1);
        // Resampling a trace that already carries markers strips them first,
        // so the streamed output over the marked trace equals the batch
        // overlay of the unmarked one.
        let streamed: Vec<Action> =
            ResampleSampling::new(pre_sampled.iter().copied(), 0.10, 50, 9).collect();
        let batch = insert_sampling_periods(&trace, 0.10, 50, 9);
        assert_eq!(streamed, batch.actions());
        let mut rebuilt = Trace::new();
        for a in streamed {
            rebuilt.push(a);
        }
        rebuilt.validate().unwrap();
    }

    #[test]
    fn per_var_site_mode_limits_distinct_sites() {
        let cfg = GenConfig::small(5).with_site_mode(SiteMode::PerVar(2));
        let trace = cfg.generate();
        let mut sites: Vec<u32> = trace
            .iter()
            .filter_map(|a| a.access().map(|(_, _, s)| s.raw()))
            .collect();
        sites.sort();
        sites.dedup();
        assert!(sites.len() <= cfg.vars * 2);
    }
}

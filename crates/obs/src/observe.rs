//! Observing a detector without touching its hot path.

use pacer_trace::{AccessKind, Action, Detector, RaceReport};

use crate::event::Event;
use crate::hist::HistKind;
use crate::registry::Registry;
use crate::space::{SpaceBreakdown, SpaceRecord};
use crate::stats::PacerStats;

/// A detector the observability layer knows how to measure.
///
/// Implemented by every detector in the suite (PACER, FASTTRACK, GENERIC,
/// LITERACE). The two hooks are *pull*-based — the
/// [`Observed`] wrapper calls them around actions and at GC boundaries —
/// so implementing this trait adds **zero** cost to a detector that is not
/// wrapped.
pub trait ObservableDetector: Detector {
    /// The current live-metadata breakdown (Fig. 7's space accounting).
    fn space_breakdown(&self) -> SpaceBreakdown;

    /// The detector's operation counters, for detectors that keep
    /// [`PacerStats`] (PACER variants). Others return `None`.
    fn pacer_stats(&self) -> Option<PacerStats> {
        None
    }

    /// The resource governor changed the effective sampling rate (in
    /// millionths) at a GC boundary. Detectors whose sampling is driven by
    /// the runtime's GC sampler (PACER variants) need no action — the
    /// runtime retargets the sampler for them — so the default is a no-op.
    /// Detectors that sample internally (LITERACE) scale their own
    /// admission decisions here.
    fn on_rate_change(&mut self, _rate_millionths: u32) {}

    /// The thread whose vector-clock entry overflowed during this run, if
    /// any. Detectors record the first overflow stickily (clocks saturate
    /// instead of panicking); the harness converts a post-run `Some` into a
    /// quarantinable trial error.
    fn clock_overflow(&self) -> Option<pacer_clock::ThreadId> {
        None
    }
}

/// Wraps an [`ObservableDetector`], reporting into a [`Registry`] by
/// diffing the detector's observable state around each action.
///
/// With a disabled registry the per-action overhead is one branch and a
/// delegated call; the wrapped detector itself is never modified, so
/// benchmarks running the bare detector are unaffected entirely.
///
/// Emitted events: [`Event::PeriodBegin`]/[`Event::PeriodEnd`] at sampling
/// markers (with the period's sync-op count fed into the
/// [`HistKind::PeriodSyncOps`] histogram), [`Event::Race`] for each new
/// race report, and [`Event::CopyPromotion`] for each clone-on-write the
/// action triggered. [`record_space`](Self::record_space) — called from
/// the runtime's GC probe — adds [`Event::Gc`] and a [`SpaceRecord`].
///
/// # Examples
///
/// ```
/// use pacer_obs::{ObservableDetector, Observed, Registry, RegistryConfig, SpaceBreakdown};
/// use pacer_trace::{Action, Detector, RaceReport};
///
/// /// A detector that never reports anything.
/// #[derive(Default)]
/// struct Quiet;
/// impl Detector for Quiet {
///     fn name(&self) -> String { "quiet".into() }
///     fn on_action(&mut self, _: &Action) {}
///     fn races(&self) -> &[RaceReport] { &[] }
/// }
/// impl ObservableDetector for Quiet {
///     fn space_breakdown(&self) -> SpaceBreakdown { SpaceBreakdown::default() }
/// }
///
/// let mut obs = Observed::new(Quiet, Registry::enabled(RegistryConfig::default()));
/// obs.on_action(&Action::SampleBegin);
/// obs.on_action(&Action::SampleEnd);
/// let (_, registry) = obs.finish();
/// assert_eq!(registry.metrics().events_recorded, 2);
/// ```
#[derive(Clone, Debug)]
pub struct Observed<D> {
    inner: D,
    registry: Registry,
    period_index: u64,
    period_start_sync_ops: u64,
}

impl<D: ObservableDetector> Observed<D> {
    /// Wraps `inner`, reporting into `registry`.
    pub fn new(inner: D, registry: Registry) -> Self {
        Observed {
            inner,
            registry,
            period_index: 0,
            period_start_sync_ops: 0,
        }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The wrapped detector, mutably (e.g. to deliver governor signals).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// The registry (e.g. to record run-level counters).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Takes a space sample of the wrapped detector's current metadata —
    /// the runtime's full-GC probe calls this.
    pub fn record_space(&mut self, steps: u64, heap_bytes: u64) {
        if !self.registry.is_enabled() {
            return;
        }
        let breakdown = self.inner.space_breakdown();
        self.registry.record_space(SpaceRecord {
            steps,
            heap_bytes,
            breakdown,
        });
    }

    /// Finishes observation: stamps the detector's final counters and race
    /// total into the registry and returns both parts.
    pub fn finish(mut self) -> (D, Registry) {
        if self.registry.is_enabled() {
            let stats = self.inner.pacer_stats().unwrap_or_default();
            self.registry.add_detector_stats(stats);
            self.registry.add_races(self.inner.races().len() as u64);
        }
        (self.inner, self.registry)
    }

    fn emit_action_events(
        &mut self,
        action: &Action,
        races_before: usize,
        stats_before: Option<PacerStats>,
    ) {
        let stats_after = self.inner.pacer_stats();
        match action {
            Action::SampleBegin => {
                let index = self.period_index;
                self.registry.event(|| Event::PeriodBegin { index });
                self.period_start_sync_ops = stats_after.map_or(0, |s| s.sampled_sync_ops);
            }
            Action::SampleEnd => {
                let index = self.period_index;
                let sync_ops = stats_after
                    .map_or(0, |s| s.sampled_sync_ops)
                    .saturating_sub(self.period_start_sync_ops);
                self.registry.event(|| Event::PeriodEnd { index, sync_ops });
                self.registry.record_hist(HistKind::PeriodSyncOps, sync_ops);
                self.period_index += 1;
            }
            _ => {}
        }
        let races = self.inner.races();
        for r in &races[races_before..] {
            let ev = race_event(r);
            self.registry.event(|| ev);
        }
        if let (Some(before), Some(after)) = (stats_before, stats_after) {
            let tid = action.thread().map(|t| t.raw());
            for _ in before.cow_clones..after.cow_clones {
                self.registry.event(|| Event::CopyPromotion { tid });
            }
        }
    }
}

fn race_event(r: &RaceReport) -> Event {
    Event::Race {
        var: r.x.raw(),
        first_tid: r.first.tid.raw(),
        first_site: r.first.site.raw(),
        first_write: r.first.kind == AccessKind::Write,
        second_tid: r.second.tid.raw(),
        second_site: r.second.site.raw(),
        second_write: r.second.kind == AccessKind::Write,
    }
}

impl<D: ObservableDetector> Detector for Observed<D> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_action(&mut self, action: &Action) {
        if !self.registry.is_enabled() {
            // Disabled path: one branch, then straight to the detector.
            self.inner.on_action(action);
            return;
        }
        let races_before = self.inner.races().len();
        let stats_before = self.inner.pacer_stats();
        self.inner.on_action(action);
        self.emit_action_events(action, races_before, stats_before);
    }

    fn races(&self) -> &[RaceReport] {
        self.inner.races()
    }
}

impl<D: ObservableDetector> ObservableDetector for Observed<D> {
    fn space_breakdown(&self) -> SpaceBreakdown {
        self.inner.space_breakdown()
    }

    fn pacer_stats(&self) -> Option<PacerStats> {
        self.inner.pacer_stats()
    }

    fn on_rate_change(&mut self, rate_millionths: u32) {
        self.inner.on_rate_change(rate_millionths);
    }

    fn clock_overflow(&self) -> Option<pacer_clock::ThreadId> {
        self.inner.clock_overflow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use pacer_trace::{Access, SiteId, VarId};

    /// A scripted detector: reports one race on its third action, counts a
    /// cow clone on every sync action.
    #[derive(Default)]
    struct Scripted {
        actions: usize,
        races: Vec<RaceReport>,
        stats: PacerStats,
    }

    impl Detector for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn on_action(&mut self, action: &Action) {
            self.actions += 1;
            match action {
                Action::SampleBegin => self.stats.sample_periods += 1,
                Action::Acquire { .. } => {
                    self.stats.sampled_sync_ops += 1;
                    self.stats.cow_clones += 1;
                }
                _ => {}
            }
            if self.actions == 3 {
                let a = Access {
                    tid: pacer_clock::ThreadId::new(0),
                    kind: AccessKind::Write,
                    site: SiteId::new(1),
                };
                self.races.push(RaceReport {
                    x: VarId::new(7),
                    first: a,
                    second: Access {
                        tid: pacer_clock::ThreadId::new(1),
                        kind: AccessKind::Read,
                        site: SiteId::new(2),
                    },
                });
            }
        }
        fn races(&self) -> &[RaceReport] {
            &self.races
        }
    }

    impl ObservableDetector for Scripted {
        fn space_breakdown(&self) -> SpaceBreakdown {
            SpaceBreakdown {
                clock_words_owned: self.actions as u64,
                ..SpaceBreakdown::default()
            }
        }
        fn pacer_stats(&self) -> Option<PacerStats> {
            Some(self.stats)
        }
    }

    fn acq() -> Action {
        Action::Acquire {
            t: pacer_clock::ThreadId::new(1),
            m: pacer_trace::LockId::new(0),
        }
    }

    #[test]
    fn periods_races_and_promotions_are_traced() {
        let mut obs = Observed::new(
            Scripted::default(),
            Registry::enabled(RegistryConfig::default()),
        );
        obs.on_action(&Action::SampleBegin);
        obs.on_action(&acq());
        obs.on_action(&acq()); // third action → race + cow clone
        obs.on_action(&Action::SampleEnd);
        obs.record_space(40, 96);
        let (det, registry) = obs.finish();
        assert_eq!(det.races().len(), 1);

        let jsonl = registry.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines.len(),
            6,
            "begin, 2 promotions, race, end, gc: {jsonl}"
        );
        assert!(lines[0].contains("period_begin"));
        assert!(lines[1].contains("\"ev\":\"copy_promotion\",\"tid\":1"));
        assert!(lines[2].contains("\"ev\":\"race\",\"var\":7"));
        assert!(lines[3].contains("\"ev\":\"copy_promotion\""));
        assert!(lines[4].contains("\"sync_ops\":2"));
        assert!(lines[5].contains("\"ev\":\"gc\""));

        let m = registry.metrics();
        assert_eq!(m.races_reported, 1);
        assert_eq!(m.detector.cow_clones, 2);
        assert_eq!(m.hist(HistKind::PeriodSyncOps).sum, 2);
        assert_eq!(m.space.len(), 1);
        assert_eq!(m.space[0].steps, 40);
    }

    #[test]
    fn disabled_wrapper_only_delegates() {
        let mut obs = Observed::new(Scripted::default(), Registry::disabled());
        obs.on_action(&Action::SampleBegin);
        obs.on_action(&acq());
        obs.on_action(&acq());
        obs.record_space(1, 2);
        let (det, registry) = obs.finish();
        assert_eq!(det.races().len(), 1, "detector still saw everything");
        assert_eq!(registry.metrics(), crate::Metrics::default());
    }
}

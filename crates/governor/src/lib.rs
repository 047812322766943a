//! Deterministic resource governor for sampling-based race detection.
//!
//! PACER's detection cost is proportional to the sampling rate `r` (paper
//! §3–§4), which makes `r` a natural control knob when a trial approaches a
//! resource budget: instead of aborting, the runtime can *step the rate down*
//! at the next GC boundary and keep running degraded, escalating to a clean
//! cooperative cancellation only when even the floor rate still breaches the
//! budget.
//!
//! This crate is the pure control-loop half of that story. It is entirely
//! integer-based — rates are expressed in **millionths** (`30_000` = 3%) and
//! budget comparisons use integer ratios — so governor decisions are
//! bit-for-bit reproducible across platforms and at any `--jobs N`. The
//! runtime half (polling budgets at GC boundaries and applying directives)
//! lives in `pacer-runtime`; this crate has no dependencies.
//!
//! Two budget kinds are understood:
//!
//! - **Memory** ([`BudgetKind::Mem`]): bytes of detector metadata (and, when
//!   a fault plan arms an injected heap budget, simulated heap bytes) versus
//!   a hard limit.
//! - **Deadline** ([`BudgetKind::Deadline`]): executed VM steps versus an
//!   event-count deadline — a deterministic stand-in for a wall-clock
//!   watchdog.
//!
//! The policy, evaluated once per GC boundary via [`Governor::on_boundary`]:
//!
//! 1. *Pressure* (usage ≥ 75% of the limit) steps the rate one rung down the
//!    configured ladder and arms a hysteresis cooldown.
//! 2. *Breach* (usage > limit) while already at the ladder floor cancels the
//!    trial cooperatively ([`Directive::Cancel`]); a breach above the floor
//!    just keeps stepping down.
//! 3. *Clear* (usage ≤ 50% of the limit on every armed budget) steps back up
//!    one rung, but only after `cooldown` consecutive clear boundaries — the
//!    hysteresis that prevents rate flapping around a threshold.
//!
//! Memory pressure takes priority over deadline pressure when both fire at
//! the same boundary.

/// One million, the fixed-point denominator for sampling rates.
pub const MILLION: u32 = 1_000_000;

/// Convert a floating-point sampling rate in `[0, 1]` to integer millionths.
pub fn millionths_from_rate(rate: f64) -> u32 {
    assert!(
        (0.0..=1.0).contains(&rate),
        "sampling rate must be in [0, 1], got {rate}"
    );
    (rate * f64::from(MILLION)).round() as u32
}

/// Convert integer millionths back to a floating-point rate in `[0, 1]`.
pub fn rate_from_millionths(millionths: u32) -> f64 {
    assert!(
        millionths <= MILLION,
        "rate of {millionths} millionths > 1.0"
    );
    f64::from(millionths) / f64::from(MILLION)
}

/// Which budget a governor decision was made against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BudgetKind {
    /// Detector-metadata (and injected heap) byte budget.
    Mem,
    /// Event-count deadline (deterministic watchdog).
    Deadline,
}

impl BudgetKind {
    /// Stable lowercase name used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::Mem => "mem",
            BudgetKind::Deadline => "deadline",
        }
    }
}

/// What the runtime should do at this GC boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Keep running at the current rate.
    None,
    /// Lower the sampling rate to `to` millionths before the next window.
    StepDown { to: u32 },
    /// Raise the sampling rate to `to` millionths before the next window.
    StepUp { to: u32 },
    /// Stop the trial cleanly: the floor rate still breaches `kind`.
    Cancel { kind: BudgetKind },
}

/// A governor decision worth reporting, in boundary order.
///
/// Notes are replayed into the observability registry after the run so that
/// `rate_stepped` / `budget_breach` trace events are journaled with the trial
/// and stay byte-identical under checkpoint/resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernorNote {
    /// The sampling rate moved one rung (`up` = toward the starting rate).
    RateStepped {
        steps: u64,
        from: u32,
        to: u32,
        up: bool,
    },
    /// Usage exceeded the hard limit for `kind`.
    BudgetBreach {
        steps: u64,
        kind: BudgetKind,
        usage: u64,
        limit: u64,
    },
    /// The trial was cancelled cooperatively at the ladder floor.
    Cancelled { steps: u64, kind: BudgetKind },
}

/// Static governor configuration for one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// Hard limit on detector metadata bytes; `None` leaves memory ungoverned.
    pub mem_budget_bytes: Option<u64>,
    /// Hard limit on executed VM steps; `None` leaves the deadline ungoverned.
    pub deadline_events: Option<u64>,
    /// Descending sampling rates in millionths; `ladder[0]` is the starting
    /// rate, the last entry is the floor. Must be non-empty and strictly
    /// descending.
    pub ladder: Vec<u32>,
    /// Consecutive clear boundaries required before stepping back up.
    pub cooldown: u32,
}

/// Default hysteresis dwell: clear boundaries required before a step-up.
pub const DEFAULT_COOLDOWN: u32 = 4;

impl GovernorConfig {
    /// A governor over the default ladder for `rate` (r, r/2, r/4, r/8) with
    /// no budgets armed; callers set `mem_budget_bytes` / `deadline_events`.
    pub fn for_rate(rate: f64) -> Self {
        GovernorConfig {
            mem_budget_bytes: None,
            deadline_events: None,
            ladder: default_ladder(millionths_from_rate(rate)),
            cooldown: DEFAULT_COOLDOWN,
        }
    }

    /// True when at least one budget is set; an unarmed governor is never
    /// constructed by the runtime (a single `Option` branch skips it).
    pub fn armed(&self) -> bool {
        self.mem_budget_bytes.is_some() || self.deadline_events.is_some()
    }

    /// Validate the ladder shape; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.ladder.is_empty() {
            return Err("governor ladder must not be empty".to_string());
        }
        for w in self.ladder.windows(2) {
            if w[1] >= w[0] {
                return Err(format!(
                    "governor ladder must be strictly descending, got {} then {}",
                    w[0], w[1]
                ));
            }
        }
        if *self.ladder.last().unwrap() == 0 {
            return Err("governor ladder floor must be a nonzero rate".to_string());
        }
        if self.ladder[0] > MILLION {
            return Err(format!("ladder start {} millionths > 1.0", self.ladder[0]));
        }
        Ok(())
    }
}

/// The default four-rung ladder: r, r/2, r/4, r/8 (zero rungs dropped).
pub fn default_ladder(start_millionths: u32) -> Vec<u32> {
    let mut ladder = Vec::with_capacity(4);
    let mut rung = start_millionths;
    for _ in 0..4 {
        if rung == 0 {
            break;
        }
        if ladder.last() != Some(&rung) {
            ladder.push(rung);
        }
        rung /= 2;
    }
    if ladder.is_empty() {
        // A zero starting rate has nothing to govern; keep a single rung so
        // the ladder is well-formed (validate() still rejects a zero floor,
        // so armed configs must start above zero).
        ladder.push(start_millionths);
    }
    ladder
}

/// Parse a comma-separated rate ladder spec (e.g. `"0.03,0.01,0.003"`) into
/// strictly descending millionths.
pub fn parse_ladder(spec: &str) -> Result<Vec<u32>, String> {
    let mut ladder = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let rate: f64 = part
            .parse()
            .map_err(|_| format!("bad ladder rate '{part}'"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("ladder rate {rate} out of [0, 1]"));
        }
        ladder.push(millionths_from_rate(rate));
    }
    if ladder.is_empty() {
        return Err("empty rate ladder".to_string());
    }
    for w in ladder.windows(2) {
        if w[1] >= w[0] {
            return Err(format!(
                "ladder must be strictly descending, got {} then {} (millionths)",
                w[0], w[1]
            ));
        }
    }
    if *ladder.last().unwrap() == 0 {
        return Err("ladder floor must be nonzero".to_string());
    }
    Ok(ladder)
}

/// End-of-trial roll-up of governor activity, carried on the run outcome.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GovernorSummary {
    /// Rate steps taken toward the floor.
    pub steps_down: u64,
    /// Rate steps taken back toward the starting rate.
    pub steps_up: u64,
    /// Hard-limit breaches observed (including the cancelling one).
    pub breaches: u64,
    /// Set when the trial was cancelled cooperatively at the floor.
    pub cancelled: Option<BudgetKind>,
    /// Rate in effect when the trial ended, in millionths.
    pub final_rate_millionths: u32,
    /// Decision log in boundary order, for trace-event replay.
    pub notes: Vec<GovernorNote>,
}

impl GovernorSummary {
    /// True when the governor changed the rate or cancelled the trial —
    /// i.e. the trial ran *degraded* rather than at its configured rate.
    pub fn degraded(&self) -> bool {
        self.steps_down > 0 || self.cancelled.is_some()
    }
}

/// Pressure classification of one `(usage, limit)` pair, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Pressure {
    /// usage ≤ limit/2: eligible for a step back up.
    Clear,
    /// Between the clear and pressure thresholds: hold the current rung.
    Neutral,
    /// usage ≥ 3·limit/4: step down at this boundary.
    High,
    /// usage > limit: cancel if already at the floor.
    Breach,
}

fn classify(usage: u64, limit: u64) -> Pressure {
    // Integer thresholds, overflow-safe via u128 widening: breach when
    // usage > limit, pressure at 75% (usage·4 ≥ limit·3), clear at 50%
    // (usage·2 ≤ limit).
    if usage > limit {
        Pressure::Breach
    } else if u128::from(usage) * 4 >= u128::from(limit) * 3 {
        Pressure::High
    } else if u128::from(usage) * 2 <= u128::from(limit) {
        Pressure::Clear
    } else {
        Pressure::Neutral
    }
}

/// The per-trial governor state machine.
#[derive(Debug, Clone)]
pub struct Governor {
    cfg: GovernorConfig,
    /// Index of the current rung in `cfg.ladder`.
    rung: usize,
    /// Clear boundaries still required before the next step-up.
    cooldown_left: u32,
    cancelled: Option<BudgetKind>,
    summary: GovernorSummary,
}

impl Governor {
    /// Build a governor; panics on a malformed ladder (callers validate CLI
    /// input with [`GovernorConfig::validate`] first).
    pub fn new(cfg: GovernorConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid governor config: {e}");
        }
        let start = cfg.ladder[0];
        let summary = GovernorSummary {
            final_rate_millionths: start,
            ..GovernorSummary::default()
        };
        Governor {
            cfg,
            rung: 0,
            cooldown_left: 0,
            cancelled: None,
            summary,
        }
    }

    /// Current sampling rate in millionths.
    pub fn rate_millionths(&self) -> u32 {
        self.cfg.ladder[self.rung]
    }

    /// The governed configuration.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// True once a [`Directive::Cancel`] has been issued.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.is_some()
    }

    /// Evaluate budgets at a GC boundary. `mem` / `deadline` carry the
    /// `(usage, limit)` pair for each armed budget (`None` = unarmed).
    /// `steps` is the VM step count, recorded in notes for trace replay.
    pub fn on_boundary(
        &mut self,
        steps: u64,
        mem: Option<(u64, u64)>,
        deadline: Option<(u64, u64)>,
    ) -> Directive {
        if self.cancelled.is_some() {
            return Directive::None;
        }
        // Memory outranks deadline when both fire at the same boundary.
        let ranked = [(BudgetKind::Mem, mem), (BudgetKind::Deadline, deadline)];
        let mut worst = Pressure::Clear;
        let mut worst_kind = None;
        let mut worst_pair = (0u64, 0u64);
        for (kind, pair) in ranked {
            let Some((usage, limit)) = pair else { continue };
            let p = classify(usage, limit);
            if worst_kind.is_none() || p > worst {
                worst = p;
                worst_kind = Some(kind);
                worst_pair = (usage, limit);
            }
        }
        let Some(kind) = worst_kind else {
            return Directive::None; // nothing armed
        };
        let (usage, limit) = worst_pair;
        match worst {
            Pressure::Breach => {
                self.summary.breaches += 1;
                self.summary.notes.push(GovernorNote::BudgetBreach {
                    steps,
                    kind,
                    usage,
                    limit,
                });
                if self.rung + 1 == self.cfg.ladder.len() {
                    self.cancelled = Some(kind);
                    self.summary.cancelled = Some(kind);
                    self.summary
                        .notes
                        .push(GovernorNote::Cancelled { steps, kind });
                    Directive::Cancel { kind }
                } else {
                    self.step_down(steps)
                }
            }
            Pressure::High => {
                if self.rung + 1 == self.cfg.ladder.len() {
                    // Already at the floor and not breaching: hold.
                    Directive::None
                } else {
                    self.step_down(steps)
                }
            }
            Pressure::Neutral => Directive::None,
            Pressure::Clear => {
                if self.rung == 0 {
                    return Directive::None;
                }
                if self.cooldown_left > 0 {
                    self.cooldown_left -= 1;
                    return Directive::None;
                }
                let from = self.cfg.ladder[self.rung];
                self.rung -= 1;
                let to = self.cfg.ladder[self.rung];
                self.cooldown_left = self.cfg.cooldown;
                self.summary.steps_up += 1;
                self.summary.final_rate_millionths = to;
                self.summary.notes.push(GovernorNote::RateStepped {
                    steps,
                    from,
                    to,
                    up: true,
                });
                Directive::StepUp { to }
            }
        }
    }

    fn step_down(&mut self, steps: u64) -> Directive {
        let from = self.cfg.ladder[self.rung];
        self.rung += 1;
        let to = self.cfg.ladder[self.rung];
        self.cooldown_left = self.cfg.cooldown;
        self.summary.steps_down += 1;
        self.summary.final_rate_millionths = to;
        self.summary.notes.push(GovernorNote::RateStepped {
            steps,
            from,
            to,
            up: false,
        });
        Directive::StepDown { to }
    }

    /// Consume the governor and return the end-of-trial summary.
    pub fn into_summary(self) -> GovernorSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mem: Option<u64>, deadline: Option<u64>) -> GovernorConfig {
        GovernorConfig {
            mem_budget_bytes: mem,
            deadline_events: deadline,
            ladder: vec![30_000, 15_000, 7_500],
            cooldown: 2,
        }
    }

    #[test]
    fn millionths_round_trip() {
        assert_eq!(millionths_from_rate(0.03), 30_000);
        assert_eq!(millionths_from_rate(0.0), 0);
        assert_eq!(millionths_from_rate(1.0), MILLION);
        assert!((rate_from_millionths(30_000) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn default_ladder_halves_and_drops_zero() {
        assert_eq!(default_ladder(30_000), vec![30_000, 15_000, 7_500, 3_750]);
        assert_eq!(default_ladder(4), vec![4, 2, 1]);
        assert_eq!(default_ladder(1), vec![1]);
        assert_eq!(default_ladder(0), vec![0]);
    }

    #[test]
    fn parse_ladder_accepts_descending_rates() {
        assert_eq!(
            parse_ladder("0.03,0.01,0.003").unwrap(),
            vec![30_000, 10_000, 3_000]
        );
        assert!(parse_ladder("").is_err());
        assert!(parse_ladder("0.01,0.03").is_err());
        assert!(parse_ladder("0.01,0").is_err());
        assert!(parse_ladder("nope").is_err());
    }

    #[test]
    fn validate_rejects_malformed_ladders() {
        let mut c = cfg(Some(1000), None);
        assert!(c.validate().is_ok());
        c.ladder = vec![];
        assert!(c.validate().is_err());
        c.ladder = vec![10, 10];
        assert!(c.validate().is_err());
        c.ladder = vec![10, 0];
        assert!(c.validate().is_err());
    }

    #[test]
    fn pressure_steps_down_then_cancels_at_floor() {
        let mut g = Governor::new(cfg(Some(1000), None));
        // 75% of budget: step down twice to the floor.
        assert_eq!(
            g.on_boundary(10, Some((750, 1000)), None),
            Directive::StepDown { to: 15_000 }
        );
        assert_eq!(
            g.on_boundary(20, Some((800, 1000)), None),
            Directive::StepDown { to: 7_500 }
        );
        // Still under the limit at the floor: hold.
        assert_eq!(g.on_boundary(30, Some((900, 1000)), None), Directive::None);
        // Breach at the floor: cancel.
        assert_eq!(
            g.on_boundary(40, Some((1001, 1000)), None),
            Directive::Cancel {
                kind: BudgetKind::Mem
            }
        );
        assert!(g.is_cancelled());
        let s = g.into_summary();
        assert_eq!(s.steps_down, 2);
        assert_eq!(s.breaches, 1);
        assert_eq!(s.cancelled, Some(BudgetKind::Mem));
        assert_eq!(s.final_rate_millionths, 7_500);
        assert!(s.degraded());
    }

    #[test]
    fn breach_above_floor_steps_down_instead_of_cancelling() {
        let mut g = Governor::new(cfg(Some(100), None));
        assert_eq!(
            g.on_boundary(1, Some((150, 100)), None),
            Directive::StepDown { to: 15_000 }
        );
        assert!(!g.is_cancelled());
        let s = g.into_summary();
        assert_eq!(s.breaches, 1);
        assert_eq!(s.steps_down, 1);
    }

    #[test]
    fn hysteresis_requires_consecutive_clear_boundaries() {
        let mut g = Governor::new(cfg(Some(1000), None));
        assert_eq!(
            g.on_boundary(1, Some((800, 1000)), None),
            Directive::StepDown { to: 15_000 }
        );
        // cooldown = 2: two clear boundaries burn the dwell, third steps up.
        assert_eq!(g.on_boundary(2, Some((100, 1000)), None), Directive::None);
        assert_eq!(g.on_boundary(3, Some((100, 1000)), None), Directive::None);
        assert_eq!(
            g.on_boundary(4, Some((100, 1000)), None),
            Directive::StepUp { to: 30_000 }
        );
        // Back at the top: clear boundaries are a no-op.
        assert_eq!(g.on_boundary(5, Some((0, 1000)), None), Directive::None);
        let s = g.into_summary();
        assert_eq!(s.steps_down, 1);
        assert_eq!(s.steps_up, 1);
        assert_eq!(s.final_rate_millionths, 30_000);
        assert!(s.degraded());
    }

    #[test]
    fn neutral_band_holds_rate_and_preserves_cooldown() {
        let mut g = Governor::new(cfg(Some(1000), None));
        assert_eq!(
            g.on_boundary(1, Some((760, 1000)), None),
            Directive::StepDown { to: 15_000 }
        );
        // 60% is between clear (50%) and pressure (75%): hold, keep cooldown.
        assert_eq!(g.on_boundary(2, Some((600, 1000)), None), Directive::None);
        assert_eq!(g.on_boundary(3, Some((500, 1000)), None), Directive::None);
        assert_eq!(g.on_boundary(4, Some((500, 1000)), None), Directive::None);
        assert_eq!(
            g.on_boundary(5, Some((500, 1000)), None),
            Directive::StepUp { to: 30_000 }
        );
    }

    #[test]
    fn mem_outranks_deadline_on_simultaneous_breach() {
        let mut g = Governor::new(GovernorConfig {
            mem_budget_bytes: Some(100),
            deadline_events: Some(100),
            ladder: vec![30_000],
            cooldown: 0,
        });
        assert_eq!(
            g.on_boundary(1, Some((200, 100)), Some((200, 100))),
            Directive::Cancel {
                kind: BudgetKind::Mem
            }
        );
    }

    #[test]
    fn deadline_alone_governs_when_mem_unarmed() {
        let mut g = Governor::new(cfg(None, Some(1000)));
        assert_eq!(
            g.on_boundary(750, None, Some((750, 1000))),
            Directive::StepDown { to: 15_000 }
        );
        assert_eq!(
            g.on_boundary(800, None, Some((800, 1000))),
            Directive::StepDown { to: 7_500 }
        );
        assert_eq!(
            g.on_boundary(1100, None, Some((1100, 1000))),
            Directive::Cancel {
                kind: BudgetKind::Deadline
            }
        );
    }

    #[test]
    fn cancelled_governor_ignores_further_boundaries() {
        let mut g = Governor::new(GovernorConfig {
            mem_budget_bytes: Some(10),
            deadline_events: None,
            ladder: vec![30_000],
            cooldown: 0,
        });
        assert_eq!(
            g.on_boundary(1, Some((20, 10)), None),
            Directive::Cancel {
                kind: BudgetKind::Mem
            }
        );
        assert_eq!(g.on_boundary(2, Some((20, 10)), None), Directive::None);
        assert_eq!(g.into_summary().breaches, 1);
    }

    #[test]
    fn nothing_armed_is_a_no_op() {
        let mut g = Governor::new(cfg(None, None));
        assert!(!g.config().armed());
        assert_eq!(g.on_boundary(1, None, None), Directive::None);
        let s = g.into_summary();
        assert!(!s.degraded());
        assert_eq!(s.final_rate_millionths, 30_000);
    }

    #[test]
    fn notes_record_every_decision_in_order() {
        let mut g = Governor::new(GovernorConfig {
            mem_budget_bytes: Some(100),
            deadline_events: None,
            ladder: vec![20_000, 10_000],
            cooldown: 0,
        });
        g.on_boundary(5, Some((80, 100)), None);
        g.on_boundary(9, Some((120, 100)), None);
        let s = g.into_summary();
        assert_eq!(
            s.notes,
            vec![
                GovernorNote::RateStepped {
                    steps: 5,
                    from: 20_000,
                    to: 10_000,
                    up: false
                },
                GovernorNote::BudgetBreach {
                    steps: 9,
                    kind: BudgetKind::Mem,
                    usage: 120,
                    limit: 100
                },
                GovernorNote::Cancelled {
                    steps: 9,
                    kind: BudgetKind::Mem
                },
            ]
        );
    }
}

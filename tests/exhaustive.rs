//! Small-scope exhaustive verification: for tiny two-thread programs we
//! enumerate EVERY interleaving and EVERY placement of one sampling
//! period, and check PACER's precision and guarantee against the oracle on
//! each resulting trace. Property tests sample the space; this covers it.
//! Three skeletons hand a joined thread's clock slot to a later fork, which
//! random traces never do: they fork every thread up front.

use pacer_clock::ThreadId;
use pacer_core::PacerDetector;
use pacer_fasttrack::FastTrackDetector;
use pacer_trace::{report_multiset, Action, Detector, HbOracle, LockId, SiteId, Trace, VarId};

fn t(i: u32) -> ThreadId {
    ThreadId::new(i)
}

fn m(i: u32) -> LockId {
    LockId::new(i)
}

fn x(i: u32) -> VarId {
    VarId::new(i)
}

/// All order-preserving merges of two scripts.
fn interleavings(a: &[Action], b: &[Action]) -> Vec<Vec<Action>> {
    fn go(a: &[Action], b: &[Action], prefix: &mut Vec<Action>, out: &mut Vec<Vec<Action>>) {
        match (a.split_first(), b.split_first()) {
            (None, None) => out.push(prefix.clone()),
            (Some((ha, ta)), None) => {
                prefix.push(*ha);
                go(ta, b, prefix, out);
                prefix.pop();
            }
            (None, Some((hb, tb))) => {
                prefix.push(*hb);
                go(a, tb, prefix, out);
                prefix.pop();
            }
            (Some((ha, ta)), Some((hb, tb))) => {
                prefix.push(*ha);
                go(ta, b, prefix, out);
                prefix.pop();
                prefix.push(*hb);
                go(a, tb, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    go(a, b, &mut Vec::new(), &mut out);
    out
}

/// Wraps a body with the fork/join skeleton and inserts one sampling
/// period covering body positions `[start, end)`.
fn build(body: &[Action], start: usize, end: usize) -> Option<Trace> {
    let pre = [
        Action::Fork { t: t(0), u: t(1) },
        Action::Fork { t: t(0), u: t(2) },
    ];
    let post = [
        Action::Join { t: t(0), u: t(1) },
        Action::Join { t: t(0), u: t(2) },
    ];
    build_with(&pre, body, &post, start, end)
}

/// Puts a body between `pre` and `post` and inserts one sampling period
/// covering body positions `[start, end)`; `None` if the result is not a
/// valid trace.
fn build_with(
    pre: &[Action],
    body: &[Action],
    post: &[Action],
    start: usize,
    end: usize,
) -> Option<Trace> {
    let mut trace: Trace = pre.iter().copied().collect();
    for (i, a) in body.iter().enumerate() {
        if i == start {
            trace.push(Action::SampleBegin);
        }
        if i == end {
            trace.push(Action::SampleEnd);
        }
        trace.push(*a);
    }
    if end == body.len() {
        if start == body.len() {
            trace.push(Action::SampleBegin);
        }
        trace.push(Action::SampleEnd);
    }
    trace.extend(post.iter().copied());
    trace.validate().ok()?;
    Some(trace)
}

/// Checks PACER's precision and guarantee on `trace`, and returns the
/// detector after the run.
fn check_trace(trace: &Trace) -> PacerDetector {
    let oracle = HbOracle::analyze(trace);
    let mut pacer = PacerDetector::new();
    for a in trace {
        pacer.on_action(a);
        pacer.assert_invariants();
    }

    // Precision: every report is a true race.
    let truth: std::collections::HashSet<_> = oracle.distinct_races().into_iter().collect();
    for r in pacer.races() {
        assert!(
            truth.contains(&r.distinct_key()),
            "false positive {r} in\n{}",
            trace.to_text()
        );
    }

    // Guarantee: every sampled guaranteed race is reported (epoch groups).
    let norm = |g1, g2| if g1 <= g2 { (g1, g2) } else { (g2, g1) };
    let reported: std::collections::HashSet<_> = pacer
        .races()
        .iter()
        .filter_map(|r| {
            Some(norm(
                oracle.epoch_group_of_site(r.first.site)?,
                oracle.epoch_group_of_site(r.second.site)?,
            ))
        })
        .collect();
    for race in oracle.sampled_guaranteed_races(trace) {
        let key = norm(
            oracle.epoch_group(race.first),
            oracle.epoch_group(race.second),
        );
        assert!(
            reported.contains(&key),
            "guaranteed race {race:?} unreported in\n{}",
            trace.to_text()
        );
    }
    pacer
}

fn exhaustive_over(a: &[Action], b: &[Action]) -> usize {
    let mut traces = 0;
    for body in interleavings(a, b) {
        let n = body.len();
        for start in 0..=n {
            for end in start..=n {
                if let Some(trace) = build(&body, start, end) {
                    check_trace(&trace);
                    traces += 1;
                }
            }
        }
    }
    traces
}

#[test]
fn exhaustive_guarded_and_unguarded_writes() {
    // t1 writes x under m then y bare; t2 reads x under m then writes y.
    let a = [
        Action::Acquire { t: t(1), m: m(0) },
        Action::Write {
            t: t(1),
            x: x(0),
            site: SiteId::new(1),
        },
        Action::Release { t: t(1), m: m(0) },
        Action::Write {
            t: t(1),
            x: x(1),
            site: SiteId::new(2),
        },
    ];
    let b = [
        Action::Acquire { t: t(2), m: m(0) },
        Action::Read {
            t: t(2),
            x: x(0),
            site: SiteId::new(3),
        },
        Action::Release { t: t(2), m: m(0) },
        Action::Write {
            t: t(2),
            x: x(1),
            site: SiteId::new(4),
        },
    ];
    // Of C(8,4) = 70 merges, those acquiring m while held are invalid and
    // filtered; every remaining (interleaving × period placement) pair is
    // checked.
    let covered = exhaustive_over(&a, &b);
    assert!(covered >= 400, "covered {covered} traces");
}

#[test]
fn exhaustive_write_write_and_read_chains() {
    // Unguarded conflicting traffic: w-w, w-r, r-w combinations.
    let a = [
        Action::Write {
            t: t(1),
            x: x(0),
            site: SiteId::new(1),
        },
        Action::Read {
            t: t(1),
            x: x(1),
            site: SiteId::new(2),
        },
        Action::Write {
            t: t(1),
            x: x(0),
            site: SiteId::new(3),
        },
    ];
    let b = [
        Action::Read {
            t: t(2),
            x: x(0),
            site: SiteId::new(4),
        },
        Action::Write {
            t: t(2),
            x: x(1),
            site: SiteId::new(5),
        },
        Action::Read {
            t: t(2),
            x: x(0),
            site: SiteId::new(6),
        },
    ];
    let covered = exhaustive_over(&a, &b);
    assert!(covered > 500, "covered {covered} traces");
}

fn access(ti: u32, site: u32, write: bool) -> Action {
    let (t, x, site) = (t(ti), x(0), SiteId::new(site));
    if write {
        Action::Write { t, x, site }
    } else {
        Action::Read { t, x, site }
    }
}

fn acq(ti: u32) -> Action {
    Action::Acquire { t: t(ti), m: m(0) }
}

fn rel(ti: u32) -> Action {
    Action::Release { t: t(ti), m: m(0) }
}

const FORK3: Action = Action::Fork {
    t: ThreadId::new(0),
    u: ThreadId::new(3),
};

/// t1's script, `join t0 t1`, `fork t0 t3`, then t3's script: t3 always
/// takes t1's clock slot.
fn handover(t1: [Action; 3], t3: [Action; 3]) -> Vec<Action> {
    let mut a = t1.to_vec();
    a.extend([Action::Join { t: t(0), u: t(1) }, FORK3]);
    a.extend(t3);
    a
}

/// Checks every interleaving of `a` and t2's script `b` between the forks
/// of t2 and t1 and the joins of t2 and t3, with every sampling-period
/// placement: `check_trace`, race-report multisets equal to the run
/// without slot reuse, and three clock slots. Returns the number of valid
/// traces and the number for which `hit` holds.
fn exhaustive_reuse(
    a: &[Action],
    b: &[Action],
    hit: impl Fn(&Trace, &PacerDetector) -> bool,
) -> (usize, usize) {
    let pre = [
        Action::Fork { t: t(0), u: t(2) },
        Action::Fork { t: t(0), u: t(1) },
    ];
    let post = [
        Action::Join { t: t(0), u: t(2) },
        Action::Join { t: t(0), u: t(3) },
    ];
    let (mut covered, mut hits) = (0, 0);
    for body in interleavings(a, b) {
        let n = body.len();
        for start in 0..=n {
            for end in start..=n {
                let Some(trace) = build_with(&pre, &body, &post, start, end) else {
                    continue;
                };
                let reuse = check_trace(&trace);
                let mut plain = PacerDetector::new().with_thread_reuse(false);
                plain.run(&trace);
                let text = trace.to_text();
                assert_eq!(
                    report_multiset(reuse.races()),
                    report_multiset(plain.races()),
                    "{text}"
                );
                assert_eq!(reuse.clock_slots(), 3, "t3 takes t1's slot in\n{text}");
                hits += usize::from(hit(&trace, &reuse));
                covered += 1;
            }
        }
    }
    (covered, hits)
}

/// Where `a` stands in `trace`.
fn pos(trace: &Trace, a: Action) -> Option<usize> {
    trace.iter().position(|&b| b == a)
}

#[test]
fn exhaustive_slot_reuse_names_program_threads() {
    // Each script has one access of x and one pair on m; t2's write races
    // with t1's write unless t2's pair comes after t1's, and with t3's read
    // unless t3's pair comes first.
    let a = handover(
        [access(1, 1, true), acq(1), rel(1)],
        [access(3, 3, false), acq(3), rel(3)],
    );
    let b = [acq(2), rel(2), access(2, 2, true)];
    // A race on t1's write reported once t3 holds its slot.
    let (covered, renamed) = exhaustive_reuse(&a, &b, |trace, d| {
        pos(trace, access(2, 2, true)) > pos(trace, FORK3)
            && d.races().iter().any(|r| r.first.tid == t(1))
    });
    assert!(covered >= 5_000, "covered {covered} traces");
    assert!(
        renamed >= 200,
        "{renamed} traces name t1 after t3 took its slot"
    );
}

#[test]
fn exhaustive_slot_reuse_keeps_earlier_occupants_reads() {
    // t1 and t2 read x, and t2 later writes it; t3 reads x in t1's slot
    // in between. t3's read must neither replace nor discard t1's entry.
    let a = handover(
        [access(1, 1, false), acq(1), rel(1)],
        [access(3, 3, false), acq(3), rel(3)],
    );
    let b = [access(2, 2, false), acq(2), rel(2), access(2, 4, true)];
    // t1's read reported against t2's write after t3's read.
    let (covered, kept) = exhaustive_reuse(&a, &b, |trace, d| {
        pos(trace, access(3, 3, false)) < pos(trace, access(2, 4, true))
            && d.races().iter().any(|r| r.first.tid == t(1))
    });
    assert!(covered >= 20_000, "covered {covered} traces");
    assert!(kept >= 100, "{kept} traces keep t1's read past t3's");
}

#[test]
fn exhaustive_slot_reuse_second_join() {
    // t2 also joins t1, before or after t3 takes t1's slot; t2's write is
    // then ordered after t1's, and races with t3's unless t3's pair is
    // ordered before t2's.
    let join21 = Action::Join { t: t(2), u: t(1) };
    let a = handover(
        [access(1, 1, true), acq(1), rel(1)],
        [access(3, 3, true), acq(3), rel(3)],
    );
    let b = [acq(2), rel(2), join21, access(2, 2, true)];
    // A race with t3 after t2 joined t1's saved final clock.
    let (covered, saved) = exhaustive_reuse(&a, &b, |trace, d| {
        pos(trace, join21) > pos(trace, FORK3) && d.races().iter().any(|r| r.first.tid == t(3))
    });
    assert!(covered >= 15_000, "covered {covered} traces");
    assert!(saved >= 4_000, "{saved} traces join a saved final clock");
}

#[test]
fn exhaustive_full_sampling_equals_fasttrack() {
    // Over every interleaving, a whole-trace sampling period makes PACER
    // and FASTTRACK agree exactly.
    let a = [
        Action::Write {
            t: t(1),
            x: x(0),
            site: SiteId::new(1),
        },
        Action::Acquire { t: t(1), m: m(0) },
        Action::Write {
            t: t(1),
            x: x(1),
            site: SiteId::new(2),
        },
        Action::Release { t: t(1), m: m(0) },
    ];
    let b = [
        Action::Acquire { t: t(2), m: m(0) },
        Action::Read {
            t: t(2),
            x: x(1),
            site: SiteId::new(3),
        },
        Action::Release { t: t(2), m: m(0) },
        Action::Read {
            t: t(2),
            x: x(0),
            site: SiteId::new(4),
        },
    ];
    for body in interleavings(&a, &b) {
        let mut with_markers = Trace::new();
        let mut bare = Trace::new();
        for pre in [
            Action::Fork { t: t(0), u: t(1) },
            Action::Fork { t: t(0), u: t(2) },
        ] {
            with_markers.push(pre);
            bare.push(pre);
        }
        with_markers.push(Action::SampleBegin);
        for action in &body {
            with_markers.push(*action);
            bare.push(*action);
        }
        let mut pacer = PacerDetector::new();
        pacer.run(&with_markers);
        let mut ft = FastTrackDetector::new();
        ft.run(&bare);
        let key = |races: &[pacer_trace::RaceReport]| {
            let mut v: Vec<_> = races
                .iter()
                .map(|r| (r.x, r.first.site, r.second.site))
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(pacer.races()), key(ft.races()), "{}", bare.to_text());
    }
}

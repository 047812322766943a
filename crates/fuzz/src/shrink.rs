//! Delta-debugging minimization of failing programs.
//!
//! The shrinker greedily applies the smallest-first sequence of structural
//! edits that keeps the caller's predicate failing: drop whole functions
//! and declarations, delete statement chunks (ddmin-style sizes 8, 4, 2
//! and 1) from every body, including bodies nested inside
//! `if`/`while`/`sync`, and flatten compound statements into their
//! contents. After every accepted edit it restarts, so the result is a
//! local minimum: no single remaining edit preserves the failure.
//!
//! Edits that break the program (say, deleting a `spawn` while its `join`
//! remains) are harmless: the predicate is expected to reject programs
//! that no longer compile, so such candidates are simply not taken.
//!
//! Everything is deterministic — candidate order is a pure function of the
//! program — so a shrink of the same failure always lands on the same
//! reproducer.

use pacer_lang::ast::{Function, Program, Stmt};

use crate::oracle::{check_program, OracleConfig};

/// How hard the shrinker worked, for fuzzing reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate programs tested against the predicate.
    pub attempts: u64,
    /// Candidates accepted (each strictly smaller than its predecessor).
    pub successes: u64,
}

/// A path to one (possibly nested) statement body inside a function:
/// each step selects a statement index and a branch within it
/// (0 = `then`/`sync`/`while` body, 1 = `else`).
type BodyPath = Vec<(usize, u8)>;

/// Minimizes `program` while `still_fails` keeps returning `true`.
///
/// The caller guarantees `still_fails(program)` holds on entry; the
/// predicate must treat non-compiling candidates as *not* failing.
pub fn shrink(
    program: &Program,
    mut still_fails: impl FnMut(&Program) -> bool,
) -> (Program, ShrinkStats) {
    let mut best = program.clone();
    let mut stats = ShrinkStats::default();
    let mut progress = true;
    while progress {
        progress = false;
        for candidate in candidates(&best) {
            stats.attempts += 1;
            if still_fails(&candidate) {
                stats.successes += 1;
                best = candidate;
                progress = true;
                break;
            }
        }
    }
    (best, stats)
}

/// Minimizes a program that fails the differential oracle, using "compiles
/// and still produces at least one oracle violation" as the predicate.
pub fn shrink_failure(
    program: &Program,
    base_seed: u64,
    cfg: &OracleConfig,
) -> (Program, ShrinkStats) {
    shrink(program, |p| {
        pacer_lang::compile(p).is_ok() && !check_program(p, base_seed, cfg).violations.is_empty()
    })
}

/// Total number of `Stmt` nodes in the program, nested ones included.
pub fn stmt_count(program: &Program) -> usize {
    fn count(body: &[Stmt]) -> usize {
        body.iter()
            .map(|s| {
                1 + match s {
                    Stmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => count(then_branch) + count(else_branch),
                    Stmt::While { body, .. } | Stmt::Sync { body, .. } => count(body),
                    _ => 0,
                }
            })
            .sum()
    }
    program.functions.iter().map(|f| count(&f.body)).sum()
}

/// All single-edit reductions of `program`, coarsest first.
fn candidates(program: &Program) -> Vec<Program> {
    let mut out = Vec::new();

    // Whole functions (main must stay: it is the entry point).
    for i in 0..program.functions.len() {
        if program.functions[i].name != "main" {
            let mut c = program.clone();
            c.functions.remove(i);
            out.push(c);
        }
    }
    // Declarations. Unused ones are free wins; used ones fail to compile
    // and are rejected by the predicate.
    for i in 0..program.shareds.len() {
        let mut c = program.clone();
        c.shareds.remove(i);
        out.push(c);
    }
    for i in 0..program.locks.len() {
        let mut c = program.clone();
        c.locks.remove(i);
        out.push(c);
    }
    for i in 0..program.volatiles.len() {
        let mut c = program.clone();
        c.volatiles.remove(i);
        out.push(c);
    }

    for (fi, f) in program.functions.iter().enumerate() {
        for path in body_paths(f) {
            let len = subbody(&f.body, &path).map_or(0, <[Stmt]>::len);
            // ddmin-style chunk deletion, large chunks first.
            for &size in &[8usize, 4, 2, 1] {
                if size > len || (size > 1 && size == len && path.is_empty()) {
                    // Never propose emptying `main` wholesale; single-stmt
                    // deletions can still get there if the failure allows.
                    continue;
                }
                let mut start = 0;
                while start + size <= len {
                    out.push(edit_body(program, fi, &path, |body| {
                        body.drain(start..start + size);
                    }));
                    start += size;
                }
            }
            // Structure flattening: replace a compound statement with its
            // contents (and separately, drop an `else` branch).
            for i in 0..len {
                match &subbody(&f.body, &path).unwrap()[i] {
                    Stmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        let inner = then_branch.clone();
                        out.push(edit_body(program, fi, &path, |body| {
                            body.splice(i..=i, inner);
                        }));
                        if !else_branch.is_empty() {
                            out.push(edit_body(program, fi, &path, |body| {
                                if let Stmt::If { else_branch, .. } = &mut body[i] {
                                    else_branch.clear();
                                }
                            }));
                        }
                    }
                    Stmt::While { body: inner, .. } | Stmt::Sync { body: inner, .. } => {
                        let inner = inner.clone();
                        out.push(edit_body(program, fi, &path, |body| {
                            body.splice(i..=i, inner);
                        }));
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Clones the program and applies `edit` to the body at (`func`, `path`).
fn edit_body(
    program: &Program,
    func: usize,
    path: &BodyPath,
    edit: impl FnOnce(&mut Vec<Stmt>),
) -> Program {
    let mut c = program.clone();
    let body = subbody_mut(&mut c.functions[func].body, path)
        .expect("paths are derived from this very program");
    edit(body);
    c
}

/// Every body in `f`, outermost first: the function body itself plus the
/// bodies of all (transitively) nested compound statements.
fn body_paths(f: &Function) -> Vec<BodyPath> {
    fn walk(body: &[Stmt], prefix: &BodyPath, out: &mut Vec<BodyPath>) {
        for (i, s) in body.iter().enumerate() {
            let mut descend = |branch: u8, inner: &[Stmt]| {
                let mut path = prefix.clone();
                path.push((i, branch));
                out.push(path.clone());
                walk(inner, &path, out);
            };
            match s {
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    descend(0, then_branch);
                    if !else_branch.is_empty() {
                        descend(1, else_branch);
                    }
                }
                Stmt::While { body, .. } | Stmt::Sync { body, .. } => descend(0, body),
                _ => {}
            }
        }
    }
    let mut out = vec![Vec::new()];
    walk(&f.body, &Vec::new(), &mut out);
    out
}

fn subbody<'a>(body: &'a [Stmt], path: &[(usize, u8)]) -> Option<&'a [Stmt]> {
    let Some(&(i, branch)) = path.first() else {
        return Some(body);
    };
    let inner = match body.get(i)? {
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            if branch == 0 {
                then_branch
            } else {
                else_branch
            }
        }
        Stmt::While { body, .. } | Stmt::Sync { body, .. } => body,
        _ => return None,
    };
    subbody(inner, &path[1..])
}

fn subbody_mut<'a>(body: &'a mut Vec<Stmt>, path: &[(usize, u8)]) -> Option<&'a mut Vec<Stmt>> {
    let Some(&(i, branch)) = path.first() else {
        return Some(body);
    };
    let inner = match body.get_mut(i)? {
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            if branch == 0 {
                then_branch
            } else {
                else_branch
            }
        }
        Stmt::While { body, .. } | Stmt::Sync { body, .. } => body,
        _ => return None,
    };
    subbody_mut(inner, &path[1..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::oracle::Fault;

    /// A generated program that races under the oracle's schedules.
    fn racy_program(cfg: &OracleConfig) -> (Program, u64) {
        for seed in 0..40 {
            let p = generate(seed, &GenConfig::default());
            if check_program(&p, seed, cfg).truth_races > 0 {
                return (p, seed);
            }
        }
        panic!("no racy program in 40 seeds");
    }

    #[test]
    fn injected_fault_shrinks_to_a_tiny_program() {
        let cfg = OracleConfig {
            schedule_seeds: 2,
            fault: Some(Fault::PhantomRace),
            ..OracleConfig::default()
        };
        let (program, seed) = racy_program(&cfg);
        assert!(
            stmt_count(&program) > 12,
            "generated program should start out non-trivial"
        );
        let (small, stats) = shrink_failure(&program, seed, &cfg);
        assert!(
            !check_program(&small, seed, &cfg).violations.is_empty(),
            "shrinking must preserve the failure"
        );
        assert!(
            stmt_count(&small) <= 12,
            "expected ≤ 12 statements, got {} in:\n{}",
            stmt_count(&small),
            pacer_lang::print(&small)
        );
        assert!(stats.successes > 0, "shrinker made no progress");
    }

    #[test]
    fn shrinking_is_deterministic() {
        let cfg = OracleConfig {
            schedule_seeds: 1,
            fault: Some(Fault::PhantomRace),
            ..OracleConfig::default()
        };
        let (program, seed) = racy_program(&cfg);
        let (a, sa) = shrink_failure(&program, seed, &cfg);
        let (b, sb) = shrink_failure(&program, seed, &cfg);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn stmt_count_sees_nested_statements() {
        let p = pacer_lang::parse(
            "shared s;\nlock m;\nfn main() {\n  if (1) { s = 1; s = 2; } else { s = 3; }\n  sync m { s = 4; }\n}\n",
        )
        .unwrap();
        // if + 3 assigns + sync + 1 assign = 6.
        assert_eq!(stmt_count(&p), 6);
    }

    #[test]
    fn shrink_keeps_programs_compiling() {
        let cfg = OracleConfig {
            schedule_seeds: 1,
            fault: Some(Fault::PhantomRace),
            ..OracleConfig::default()
        };
        let (program, seed) = racy_program(&cfg);
        let (small, _) = shrink_failure(&program, seed, &cfg);
        assert!(pacer_lang::compile(&small).is_ok());
    }
}

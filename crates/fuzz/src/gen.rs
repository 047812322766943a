//! Seeded grammar-based generation of well-formed concurrent programs.
//!
//! Every program this module emits is *safe by construction*:
//!
//! * **No deadlocks.** Nested `sync` blocks only ever acquire locks with a
//!   strictly larger index than the enclosing block (a total lock order),
//!   and `wait`/`notify` appear only inside the guarded-handoff template
//!   below, which cannot lose a wakeup.
//! * **Termination.** Loops are bounded counter loops, and the product of
//!   nested trip counts is capped, so the VM's step budget is never a
//!   concern.
//! * **No runtime type errors.** Thread handles are only joined, object
//!   references are only dereferenced via `.f`/`.g`, integer expressions
//!   avoid `/` and `%` (the only trapping operators), and the VM wraps
//!   array indices.
//!
//! The guarded handoff template (Java's canonical monitor idiom):
//!
//! ```text
//! fn waiter() { sync hm { while (hflag == 0) { wait hm; } } }
//! fn main()  { ... sync hm { hflag = 1; notifyall hm; } ... }
//! ```
//!
//! If the waiter checks first, `main` cannot set the flag until the waiter
//! releases the monitor inside `wait`; if `main` sets the flag first, the
//! waiter sees it and never waits. The handoff flag and monitor are
//! reserved names, excluded from the random access pool, so no generated
//! statement can reset the flag.

use pacer_lang::ast::{BinOp, Expr, Function, LValue, Program, SharedDecl, Stmt, UnOp};
use pacer_prng::Rng;

/// Tunable shape knobs for generated programs. All maxima are inclusive.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Worker threads spawned by `main` (at least 1).
    pub max_threads: u32,
    /// Locks available to random `sync` blocks.
    pub max_locks: u32,
    /// Volatile variables.
    pub max_volatiles: u32,
    /// Shared scalar variables (at least 1).
    pub max_shared_scalars: u32,
    /// Shared arrays.
    pub max_shared_arrays: u32,
    /// Length of each shared array (at least 2 when present).
    pub max_array_len: u32,
    /// Random statement budget per worker body.
    pub max_stmts: u32,
    /// Maximum block-nesting depth of generated `sync`/`if`/`while`.
    pub max_depth: u32,
    /// Trip count of one counter loop; nested products are capped at 16.
    pub max_loop_iters: u32,
    /// Allow the guarded wait/notify handoff template.
    pub wait_notify: bool,
    /// Allow an object created in `main` to escape into workers (field
    /// races + the escape-analysis instrumentation path).
    pub escaping_objects: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_threads: 3,
            max_locks: 2,
            max_volatiles: 1,
            max_shared_scalars: 3,
            max_shared_arrays: 1,
            max_array_len: 4,
            max_stmts: 10,
            max_depth: 2,
            max_loop_iters: 4,
            wait_notify: true,
            escaping_objects: true,
        }
    }
}

/// Names reserved for the guarded handoff; the random pools never use
/// them, so nothing can interfere with the template's protocol.
const HANDOFF_LOCK: &str = "hm";
const HANDOFF_FLAG: &str = "hflag";

/// Draws one well-formed program from `cfg`'s grammar, fully determined
/// by `seed`.
pub fn generate(seed: u64, cfg: &GenConfig) -> Program {
    Gen::new(seed, cfg).program()
}

struct Gen<'a> {
    rng: Rng,
    cfg: &'a GenConfig,
    n_threads: u32,
    n_locks: u32,
    n_volatiles: u32,
    n_scalars: u32,
    arrays: Vec<(String, u32)>,
    handoff: bool,
    escaping: bool,
    /// Fresh-name counters for locals, loop counters, and objects.
    next_local: u32,
    next_loop: u32,
    next_obj: u32,
}

/// Lexical scope carried down the statement grammar.
#[derive(Clone, Default)]
struct Scope {
    /// Integer-typed names readable here (params, `let` locals, loop
    /// counters).
    ints: Vec<String>,
    /// Object-typed names readable here (the escaping param, `new obj`
    /// locals).
    objs: Vec<String>,
    /// Nested `sync` may only use lock indices above this (total order).
    min_lock: u32,
    /// Current block depth.
    depth: u32,
    /// Product of enclosing loop trip counts.
    iter_mult: u32,
}

impl<'a> Gen<'a> {
    fn new(seed: u64, cfg: &'a GenConfig) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let n_threads = 1 + rng.gen_range(0..cfg.max_threads.max(1));
        let n_locks = rng.gen_range(0..=cfg.max_locks);
        let n_volatiles = rng.gen_range(0..=cfg.max_volatiles);
        let n_scalars = 1 + rng.gen_range(0..cfg.max_shared_scalars.max(1));
        let n_arrays = rng.gen_range(0..=cfg.max_shared_arrays);
        let arrays = (0..n_arrays)
            .map(|i| {
                (
                    format!("a{i}"),
                    2 + rng.gen_range(0..cfg.max_array_len.max(2) - 1),
                )
            })
            .collect();
        let handoff = cfg.wait_notify && rng.gen_bool(0.5);
        let escaping = cfg.escaping_objects && rng.gen_bool(0.5);
        Gen {
            rng,
            cfg,
            n_threads,
            n_locks,
            n_volatiles,
            n_scalars,
            arrays,
            handoff,
            escaping,
            next_local: 0,
            next_loop: 0,
            next_obj: 0,
        }
    }

    fn program(&mut self) -> Program {
        let mut shareds: Vec<SharedDecl> = (0..self.n_scalars)
            .map(|i| SharedDecl {
                name: format!("s{i}"),
                len: None,
            })
            .collect();
        for (name, len) in &self.arrays {
            shareds.push(SharedDecl {
                name: name.clone(),
                len: Some(*len),
            });
        }
        let mut locks: Vec<String> = (0..self.n_locks).map(|i| format!("m{i}")).collect();
        if self.handoff {
            shareds.push(SharedDecl {
                name: HANDOFF_FLAG.into(),
                len: None,
            });
            locks.push(HANDOFF_LOCK.into());
        }
        let volatiles = (0..self.n_volatiles).map(|i| format!("v{i}")).collect();

        let mut functions: Vec<Function> = (0..self.n_threads).map(|k| self.worker(k)).collect();
        functions.push(self.main_fn());

        Program {
            shareds,
            locks,
            volatiles,
            functions,
        }
    }

    fn worker(&mut self, k: u32) -> Function {
        let mut params = vec!["id".to_string()];
        if self.escaping {
            params.push("p".to_string());
        }
        let mut scope = Scope {
            ints: vec!["id".into()],
            objs: if self.escaping {
                vec!["p".into()]
            } else {
                vec![]
            },
            ..Scope::default()
        };
        let mut body = Vec::new();
        // Workers other than the last may wait; the designation is drawn
        // before the random body so the handoff shape is seed-stable.
        if self.handoff && k + 1 < self.n_threads && self.rng.gen_bool(0.5) {
            body.push(self.waiter_template());
        }
        let budget = 1 + self.rng.gen_range(0..self.cfg.max_stmts.max(1));
        self.stmts(budget, &mut scope, &mut body);
        Function {
            name: format!("worker{k}"),
            params,
            body,
        }
    }

    /// `sync hm { while (hflag == 0) { wait hm; } }`
    fn waiter_template(&mut self) -> Stmt {
        Stmt::Sync {
            lock: HANDOFF_LOCK.into(),
            body: vec![Stmt::While {
                cond: Expr::Binary(
                    BinOp::Eq,
                    Box::new(Expr::Name(HANDOFF_FLAG.into())),
                    Box::new(Expr::Int(0)),
                ),
                body: vec![Stmt::Wait {
                    lock: HANDOFF_LOCK.into(),
                }],
            }],
        }
    }

    /// `sync hm { hflag = 1; notifyall hm; }`
    fn notifier_template(&self) -> Stmt {
        Stmt::Sync {
            lock: HANDOFF_LOCK.into(),
            body: vec![
                Stmt::Assign {
                    target: LValue::Name(HANDOFF_FLAG.into()),
                    value: Expr::Int(1),
                },
                Stmt::Notify {
                    lock: HANDOFF_LOCK.into(),
                    all: true,
                },
            ],
        }
    }

    fn main_fn(&mut self) -> Function {
        let mut body = Vec::new();
        let mut scope = Scope::default();
        if self.escaping {
            body.push(Stmt::Let {
                name: "eo".into(),
                init: Expr::New,
            });
            body.push(Stmt::Assign {
                target: LValue::Field("eo".into(), "f".into()),
                value: Expr::Int(0),
            });
            scope.objs.push("eo".into());
        }
        for k in 0..self.n_threads {
            body.push(self.spawn(format!("t{k}"), k));
        }
        if self.handoff {
            body.push(self.notifier_template());
        }
        // Main races with its workers too, sometimes.
        if self.rng.gen_bool(0.5) {
            let budget = 1 + self.rng.gen_range(0..3u32);
            scope.ints.push("dummy".into());
            body.push(Stmt::Let {
                name: "dummy".into(),
                init: Expr::Int(1),
            });
            self.stmts(budget, &mut scope, &mut body);
        }
        // Sometimes `worker0` runs twice: `t0` is joined early and a
        // fresh handle re-runs it, so a detector that reuses clock slots
        // hands the second run the first one's slot. The draw must stay
        // `main`'s last: every earlier draw, and so every program that
        // skips the re-run, then stays what its seed always produced.
        let mut handles: Vec<String> = (0..self.n_threads).map(|k| format!("t{k}")).collect();
        if self.rng.gen_bool(0.5) {
            let rerun = format!("t{}", self.n_threads);
            body.push(Stmt::Join {
                thread: Expr::Name(handles.remove(0)),
            });
            body.push(self.spawn(rerun.clone(), 0));
            handles.push(rerun);
        }
        for handle in handles {
            body.push(Stmt::Join {
                thread: Expr::Name(handle),
            });
        }
        Function {
            name: "main".into(),
            params: vec![],
            body,
        }
    }

    /// `let <handle> = spawn worker<k>(k[, eo]);`
    fn spawn(&self, handle: String, k: u32) -> Stmt {
        let mut args = vec![Expr::Int(i64::from(k))];
        if self.escaping {
            args.push(Expr::Name("eo".into()));
        }
        Stmt::Let {
            name: handle,
            init: Expr::Spawn {
                func: format!("worker{k}"),
                args,
            },
        }
    }

    /// Appends `budget` random statements to `out` under `scope`.
    fn stmts(&mut self, budget: u32, scope: &mut Scope, out: &mut Vec<Stmt>) {
        let locals_before = (scope.ints.len(), scope.objs.len());
        for _ in 0..budget {
            let stmt = self.stmt(scope);
            out.push(stmt);
        }
        // Names declared in this block go out of scope with it.
        scope.ints.truncate(locals_before.0);
        scope.objs.truncate(locals_before.1);
    }

    fn stmt(&mut self, scope: &mut Scope) -> Stmt {
        let can_nest = scope.depth < self.cfg.max_depth;
        let can_loop = can_nest && scope.iter_mult * self.cfg.max_loop_iters.max(1) <= 16;
        let can_sync = can_nest && scope.min_lock < self.lock_pool_len();
        loop {
            match self.rng.gen_range(0..10u32) {
                // Shared scalar write.
                0 | 1 => {
                    let value = self.int_expr(scope, 2);
                    return Stmt::Assign {
                        target: LValue::Name(self.scalar()),
                        value,
                    };
                }
                // Local declaration.
                2 => {
                    let init = self.int_expr(scope, 2);
                    let name = format!("l{}", self.next_local);
                    self.next_local += 1;
                    scope.ints.push(name.clone());
                    return Stmt::Let { name, init };
                }
                // Array element write.
                3 if !self.arrays.is_empty() => {
                    let (name, _) = self.array();
                    let index = Box::new(self.int_expr(scope, 1));
                    let value = self.int_expr(scope, 2);
                    return Stmt::Assign {
                        target: LValue::Index(name, index),
                        value,
                    };
                }
                // Volatile write (a synchronization edge).
                4 if self.n_volatiles > 0 => {
                    let value = self.int_expr(scope, 1);
                    return Stmt::Assign {
                        target: LValue::Name(self.volatile()),
                        value,
                    };
                }
                // Guarded block; nested syncs respect the lock order.
                5 if can_sync => {
                    let lock_idx = self.rng.gen_range(scope.min_lock..self.lock_pool_len());
                    let mut inner = Scope {
                        min_lock: lock_idx + 1,
                        depth: scope.depth + 1,
                        ..scope.clone()
                    };
                    let mut body = Vec::new();
                    let budget = 1 + self.rng.gen_range(0..3u32);
                    self.stmts(budget, &mut inner, &mut body);
                    return Stmt::Sync {
                        lock: self.lock_name(lock_idx),
                        body,
                    };
                }
                // Branch on data (schedule-dependent divergence is fine:
                // the schedule is fixed by the seed, not by the detector).
                6 if can_nest => {
                    let cond = self.int_expr(scope, 2);
                    let mut inner = Scope {
                        depth: scope.depth + 1,
                        ..scope.clone()
                    };
                    let mut then_branch = Vec::new();
                    let n = 1 + self.rng.gen_range(0..2u32);
                    self.stmts(n, &mut inner, &mut then_branch);
                    let mut else_branch = Vec::new();
                    if self.rng.gen_bool(0.4) {
                        let mut inner = Scope {
                            depth: scope.depth + 1,
                            ..scope.clone()
                        };
                        self.stmts(1, &mut inner, &mut else_branch);
                    }
                    return Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                    };
                }
                // Bounded counter loop. Emitted via a wrapper statement so
                // one grammar draw stays one `Stmt`: the counter is
                // declared by an `if (1)` prelude around let + while.
                7 if can_loop => {
                    let iters = 1 + self.rng.gen_range(0..self.cfg.max_loop_iters.max(1));
                    let counter = format!("i{}", self.next_loop);
                    self.next_loop += 1;
                    let mut inner = Scope {
                        depth: scope.depth + 1,
                        iter_mult: scope.iter_mult.max(1) * iters,
                        ..scope.clone()
                    };
                    inner.ints.push(counter.clone());
                    let mut body = Vec::new();
                    let n = 1 + self.rng.gen_range(0..3u32);
                    self.stmts(n, &mut inner, &mut body);
                    body.push(Stmt::Assign {
                        target: LValue::Name(counter.clone()),
                        value: Expr::Binary(
                            BinOp::Add,
                            Box::new(Expr::Name(counter.clone())),
                            Box::new(Expr::Int(1)),
                        ),
                    });
                    return Stmt::If {
                        cond: Expr::Int(1),
                        then_branch: vec![
                            Stmt::Let {
                                name: counter.clone(),
                                init: Expr::Int(0),
                            },
                            Stmt::While {
                                cond: Expr::Binary(
                                    BinOp::Lt,
                                    Box::new(Expr::Name(counter)),
                                    Box::new(Expr::Int(i64::from(iters))),
                                ),
                                body,
                            },
                        ],
                        else_branch: vec![],
                    };
                }
                // Thread-local object: the escape-analysis elision path.
                8 => {
                    let name = format!("o{}", self.next_obj);
                    self.next_obj += 1;
                    scope.objs.push(name.clone());
                    return Stmt::Let {
                        name,
                        init: Expr::New,
                    };
                }
                // Field write on an object in scope (escaping `p`/`eo`
                // races; `o*` locals exercise elision).
                9 if !scope.objs.is_empty() => {
                    let obj = self.pick(&scope.objs);
                    let field = if self.rng.gen_bool(0.5) { "f" } else { "g" };
                    let value = self.int_expr(scope, 1);
                    return Stmt::Assign {
                        target: LValue::Field(obj, field.into()),
                        value,
                    };
                }
                _ => {}
            }
        }
    }

    fn int_expr(&mut self, scope: &Scope, depth: u32) -> Expr {
        if depth == 0 {
            return self.int_leaf(scope);
        }
        match self.rng.gen_range(0..8u32) {
            0 | 1 => self.int_leaf(scope),
            2 => {
                let op = if self.rng.gen_bool(0.5) {
                    UnOp::Neg
                } else {
                    UnOp::Not
                };
                let inner = self.int_expr(scope, depth - 1);
                match (op, inner) {
                    // The parser folds negated literals into `Expr::Int`,
                    // so do the same here to keep round trips exact.
                    (UnOp::Neg, Expr::Int(v)) => Expr::Int(v.wrapping_neg()),
                    (op, inner) => Expr::Unary(op, Box::new(inner)),
                }
            }
            _ => {
                // `/` and `%` are excluded: the only trapping operators.
                const OPS: [BinOp; 11] = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ];
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                Expr::Binary(
                    op,
                    Box::new(self.int_expr(scope, depth - 1)),
                    Box::new(self.int_expr(scope, depth - 1)),
                )
            }
        }
    }

    fn int_leaf(&mut self, scope: &Scope) -> Expr {
        loop {
            match self.rng.gen_range(0..6u32) {
                0 => return Expr::Int(i64::from(self.rng.gen_range(0..8u32))),
                1 if !scope.ints.is_empty() => {
                    return Expr::Name(self.pick(&scope.ints));
                }
                2 => return Expr::Name(self.scalar()),
                3 if !self.arrays.is_empty() => {
                    let (name, len) = self.array();
                    let idx = self.rng.gen_range(0..len);
                    return Expr::Index(name, Box::new(Expr::Int(i64::from(idx))));
                }
                4 if self.n_volatiles > 0 => return Expr::Name(self.volatile()),
                5 if !scope.objs.is_empty() => {
                    let obj = self.pick(&scope.objs);
                    let field = if self.rng.gen_bool(0.5) { "f" } else { "g" };
                    return Expr::Field(obj, field.into());
                }
                _ => {}
            }
        }
    }

    /// Random-pool locks plus, when the handoff is active, the handoff
    /// monitor as the highest-ordered lock (safe to `sync`, never waited
    /// on outside the template).
    fn lock_pool_len(&self) -> u32 {
        self.n_locks + u32::from(self.handoff)
    }

    fn lock_name(&self, idx: u32) -> String {
        if idx < self.n_locks {
            format!("m{idx}")
        } else {
            HANDOFF_LOCK.into()
        }
    }

    fn scalar(&mut self) -> String {
        format!("s{}", self.rng.gen_range(0..self.n_scalars))
    }

    fn volatile(&mut self) -> String {
        format!("v{}", self.rng.gen_range(0..self.n_volatiles))
    }

    fn array(&mut self) -> (String, u32) {
        let i = self.rng.gen_range(0..self.arrays.len());
        self.arrays[i].clone()
    }

    fn pick(&mut self, pool: &[String]) -> String {
        pool[self.rng.gen_range(0..pool.len())].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacer_lang::{compile, parse, print};

    #[test]
    fn generated_programs_compile_and_round_trip() {
        let cfg = GenConfig::default();
        for seed in 0..300 {
            let p = generate(seed, &cfg);
            let compiled = compile(&p);
            assert!(
                compiled.is_ok(),
                "seed {seed}: {:?}\n{}",
                compiled.err(),
                print(&p)
            );
            let text = print(&p);
            let reparsed = parse(&text).expect("printer output parses");
            assert_eq!(reparsed, p, "seed {seed}: print/parse round trip");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in [0, 7, 99] {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
        }
    }

    #[test]
    fn knobs_change_the_population() {
        let small = GenConfig {
            max_threads: 1,
            max_locks: 0,
            max_volatiles: 0,
            max_shared_arrays: 0,
            wait_notify: false,
            escaping_objects: false,
            ..GenConfig::default()
        };
        for seed in 0..50 {
            let p = generate(seed, &small);
            assert_eq!(p.functions.len(), 2, "one worker + main");
            assert!(p.locks.is_empty());
            assert!(p.volatiles.is_empty());
            assert!(p.shareds.iter().all(|s| s.len.is_none()));
        }
    }

    #[test]
    fn reruns_let_pacer_reuse_clock_slots() {
        use pacer_core::PacerDetector;
        use pacer_runtime::{Vm, VmConfig};

        let cfg = GenConfig::default();
        let slots = |compiled: &pacer_lang::ir::CompiledProgram, reuse| {
            let mut pacer = PacerDetector::new().with_thread_reuse(reuse);
            let vm = VmConfig::new(7).with_sampling_rate(1.0);
            Vm::run(compiled, &mut pacer, &vm).expect("generated programs run");
            pacer.clock_slots()
        };
        let reused = (0..200)
            .filter(|&seed| {
                let compiled = compile(&generate(seed, &cfg)).unwrap();
                slots(&compiled, true) < slots(&compiled, false)
            })
            .count();
        assert!(reused >= 60, "only {reused} of 200 programs reuse a slot");
    }

    #[test]
    fn handoff_template_appears_and_terminates() {
        let cfg = GenConfig {
            max_threads: 3,
            wait_notify: true,
            ..GenConfig::default()
        };
        let mut saw_wait = false;
        for seed in 0..200 {
            let p = generate(seed, &cfg);
            if print(&p).contains("wait hm") {
                saw_wait = true;
                break;
            }
        }
        assert!(saw_wait, "handoff template should appear in the population");
    }
}

//! Property-based tests over the whole pipeline.

use oolong::corpus::{extend_source, generate_source, GenConfig};
use oolong::interp::{included_locations, ExecConfig, Interp, Loc, RngOracle, Value};
use oolong::logic::{Atom, Formula, Term};
use oolong::prover::{prove, Budget, Outcome};
use oolong::sema::Scope;
use oolong::syntax::{parse_expr, parse_program, pretty, Expr};
use proptest::prelude::*;

// ----------------------------------------------------------- expression AST

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::ident("x")),
        Just(Expr::ident("y")),
        Just(Expr::Const(
            oolong::syntax::Const::Null,
            oolong::syntax::Span::DUMMY
        )),
        (0i64..100)
            .prop_map(|n| Expr::Const(oolong::syntax::Const::Int(n), oolong::syntax::Span::DUMMY)),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::select(e, "f")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary {
                op: oolong::syntax::BinOp::Add,
                lhs: Box::new(a),
                rhs: Box::new(b),
                span: oolong::syntax::Span::DUMMY,
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary {
                op: oolong::syntax::BinOp::Eq,
                lhs: Box::new(a),
                rhs: Box::new(b),
                span: oolong::syntax::Span::DUMMY,
            }),
            inner.prop_map(|e| Expr::Unary {
                op: oolong::syntax::UnaryOp::Neg,
                operand: Box::new(e),
                span: oolong::syntax::Span::DUMMY,
            }),
        ]
    })
}

proptest! {
    /// Pretty-printing an expression and reparsing yields the same
    /// canonical print (print ∘ parse ∘ print = print).
    #[test]
    fn expr_print_parse_roundtrip(e in arb_expr()) {
        let printed = pretty::print_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|d| panic!("reparse of `{printed}` failed: {d}"));
        prop_assert_eq!(pretty::print_expr(&reparsed), printed);
    }
}

// -------------------------------------------------------- generated programs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated programs are well-formed and round-trip through the
    /// pretty-printer.
    #[test]
    fn generated_programs_roundtrip(seed in 0u64..5_000) {
        let source = generate_source(seed, &GenConfig::default());
        let program = parse_program(&source).expect("generated source parses");
        Scope::analyze(&program).expect("generated source analyses");
        let printed = pretty::print_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|d| panic!("reparse failed: {d}\n{printed}"));
        prop_assert_eq!(pretty::print_program(&reparsed), printed);
    }

    /// Extension sources are strict supersets that still analyse.
    #[test]
    fn extensions_analyse(seed in 0u64..2_000) {
        let base = generate_source(seed, &GenConfig::default());
        let ext = extend_source(&base, seed ^ 0xabcd, &GenConfig::default());
        prop_assert!(ext.starts_with(&base));
        let program = parse_program(&ext).expect("extension parses");
        Scope::analyze(&program).expect("extension analyses");
    }

    /// The interpreter is deterministic for a fixed seed.
    #[test]
    fn interpreter_is_deterministic(seed in 0u64..1_000, run_seed in 0u64..50) {
        let source = generate_source(seed, &GenConfig::default());
        let program = parse_program(&source).expect("parses");
        let scope = Scope::analyze(&program).expect("analyses");
        let Some((_, info)) = scope.impls().next() else { return Ok(()) };
        let name = scope.proc_info(info.proc).name.clone();
        let run = |s| {
            let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(s));
            interp.run_proc_fresh(&name)
        };
        prop_assert_eq!(run(run_seed), run(run_seed));
    }
}

// ------------------------------------------------ prover stats invariants

/// The verification conditions of a generated cyclic-rep program (the
/// prover telemetry's stress shape: rep-inclusion axioms that can
/// instantiate forever).
fn cyclic_vcs(seed: u64) -> Vec<(Vec<Formula>, Formula)> {
    use oolong::datagroups::{CheckOptions, Checker};
    let source = oolong::corpus::generate_cyclic_source(seed);
    let program = parse_program(&source).expect("cyclic source parses");
    let checker = Checker::new(&program, CheckOptions::default()).expect("analyses");
    let impls: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
    impls
        .into_iter()
        .map(|id| {
            let vc = checker.vc(id).expect("vc generates");
            (vc.hypotheses.to_vec(), vc.goal)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Prover stats are a pure function of (VC, budget): two runs of the
    /// same obligation agree on *every* counter, including the per-axiom
    /// profile. This is the contract that lets the engine cache stats and
    /// replay them from the event log on warm runs.
    #[test]
    fn prover_stats_are_deterministic(seed in 0u64..500) {
        let budget = Budget::tiny();
        for (hyps, goal) in cyclic_vcs(seed) {
            let first = prove(&hyps, &goal, &budget);
            let second = prove(&hyps, &goal, &budget);
            prop_assert_eq!(first.outcome, second.outcome);
            // `Stats` is `Eq`: this compares the scalar counters, the
            // exhausted dimension, and the full per-quantifier profile.
            prop_assert_eq!(first.stats, second.stats);
        }
    }

    /// Instantiation counts are monotone in the instantiation budget: the
    /// search is deterministic and a budget check only ever *cuts off* the
    /// search, so a run with a smaller `max_instances` performs a prefix
    /// of the work of a run with a larger one.
    #[test]
    fn instantiation_counts_are_monotone_in_budget(
        seed in 0u64..500,
        small in 4usize..40,
        extra in 1usize..200,
    ) {
        let mut lean = Budget::tiny();
        lean.max_instances = small;
        let mut roomy = lean.clone();
        roomy.max_instances = small + extra;
        for (hyps, goal) in cyclic_vcs(seed) {
            let starved = prove(&hyps, &goal, &lean);
            let fed = prove(&hyps, &goal, &roomy);
            prop_assert!(
                starved.stats.instances <= fed.stats.instances,
                "instances fell from {} to {} when max_instances grew {} -> {}",
                starved.stats.instances, fed.stats.instances,
                lean.max_instances, roomy.max_instances
            );
        }
    }
}

// ------------------------------------------- congruence closure vs naive

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The E-graph's congruence closure agrees with a naive fixpoint: for
    /// random equations over a small term universe, both decide the same
    /// equalities.
    #[test]
    fn egraph_matches_naive_congruence_closure(
        eqs in proptest::collection::vec((0usize..12, 0usize..12), 1..6)
    ) {
        use oolong::prover::EGraph;
        // Universe: constants a, b, c and one level of f-applications.
        let consts = ["a", "b", "c"];
        let mut universe: Vec<Term> = consts.iter().map(|c| Term::var(*c)).collect();
        for c in consts {
            universe.push(Term::uninterp("f", vec![Term::var(c)]));
        }
        for c in consts {
            universe.push(Term::uninterp(
                "f",
                vec![Term::uninterp("f", vec![Term::var(c)])],
            ));
        }
        let n = universe.len();

        // E-graph side.
        let mut eg = EGraph::new();
        let ids: Vec<_> = universe.iter().map(|t| eg.intern(t).unwrap()).collect();
        for &(i, j) in &eqs {
            eg.merge(ids[i % n], ids[j % n]).unwrap();
        }

        // Naive side: union-find + congruence fixpoint over the universe.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        };
        for &(i, j) in &eqs {
            union(&mut parent, i % n, j % n);
        }
        // Congruence: f(s) ~ f(t) when s ~ t, across ALL application pairs
        // (including cross-level, e.g. a ~ f(a) forces f(a) ~ f(f(a))).
        // Universe layout: 0..3 consts, 3..6 f(consts), 6..9 f(f(consts));
        // the argument of the application at index i is arg[i].
        let arg: Vec<usize> = vec![usize::MAX, usize::MAX, usize::MAX, 0, 1, 2, 3, 4, 5];
        loop {
            let mut changed = false;
            for i in 3..n {
                for j in 3..n {
                    if find(&mut parent, arg[i]) == find(&mut parent, arg[j])
                        && find(&mut parent, i) != find(&mut parent, j)
                    {
                        union(&mut parent, i, j);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    eg.same_class(ids[i], ids[j]),
                    find(&mut parent, i) == find(&mut parent, j),
                    "disagreement on {} ~ {} under {:?}",
                    universe[i], universe[j], eqs
                );
            }
        }
    }
}

// ------------------------------------------------ ground prover validity

/// A ground formula over variables `a`, `b` and constants `0`, `1`, `2`,
/// built from equalities and connectives.
#[derive(Debug, Clone)]
enum GF {
    Eq(u8, u8), // indices into the term universe
    Not(Box<GF>),
    And(Box<GF>, Box<GF>),
    Or(Box<GF>, Box<GF>),
}

/// Term universe: 0 => var a, 1 => var b, 2..=4 => constants 0, 1, 2.
fn gf_term(i: u8) -> Term {
    match i {
        0 => Term::var("a"),
        1 => Term::var("b"),
        n => Term::int(i64::from(n) - 2),
    }
}

fn gf_to_formula(f: &GF) -> Formula {
    match f {
        GF::Eq(i, j) => Formula::eq(gf_term(*i), gf_term(*j)),
        GF::Not(p) => Formula::not(gf_to_formula(p)),
        GF::And(p, q) => Formula::and(vec![gf_to_formula(p), gf_to_formula(q)]),
        GF::Or(p, q) => Formula::or(vec![gf_to_formula(p), gf_to_formula(q)]),
    }
}

/// Evaluates under an assignment of `a`, `b` to domain values; constants
/// map to themselves. Domain {0..4} suffices for the finite model property
/// of equality logic with two variables and three distinguished constants.
fn gf_eval(f: &GF, a: i64, b: i64) -> bool {
    fn value(i: u8, a: i64, b: i64) -> i64 {
        match i {
            0 => a,
            1 => b,
            n => i64::from(n) - 2,
        }
    }
    match f {
        GF::Eq(i, j) => value(*i, a, b) == value(*j, a, b),
        GF::Not(p) => !gf_eval(p, a, b),
        GF::And(p, q) => gf_eval(p, a, b) && gf_eval(q, a, b),
        GF::Or(p, q) => gf_eval(p, a, b) || gf_eval(q, a, b),
    }
}

fn arb_gf() -> impl Strategy<Value = GF> {
    let leaf = (0u8..5, 0u8..5).prop_map(|(i, j)| GF::Eq(i, j));
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|p| GF::Not(Box::new(p))),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| GF::And(Box::new(p), Box::new(q))),
            (inner.clone(), inner).prop_map(|(p, q)| GF::Or(Box::new(p), Box::new(q))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On ground equality formulas the prover is a decision procedure:
    /// `Proved` exactly when the formula is valid (checked by brute force
    /// over a sufficiently large finite domain).
    #[test]
    fn prover_decides_ground_equality_formulas(gf in arb_gf()) {
        let formula = gf_to_formula(&gf);
        let valid = (0i64..5).all(|a| (0i64..5).all(|b| gf_eval(&gf, a, b)));
        let proof = prove(&[], &formula, &Budget::default());
        if valid {
            prop_assert_eq!(proof.outcome, Outcome::Proved, "valid but not proved: {}", formula);
        } else {
            prop_assert_eq!(proof.outcome, Outcome::NotProved, "invalid but {:?}: {}", proof.outcome, formula);
        }
    }
}

// -------------------------------------------------- inclusion denotation

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The concrete inclusion denotation agrees with the axiomatised `≽`
    /// on random *restriction-respecting* stores (pivot links form an
    /// acyclic chain with unique values, as pivot uniqueness guarantees):
    /// the prover, given a ground description of the store's pivots,
    /// proves exactly the `Inc` facts the fixpoint computes.
    #[test]
    fn denotation_agrees_with_axioms(link01 in any::<bool>(), link12 in any::<bool>()) {
        let links: Vec<(usize, usize)> = [(0, 1, link01), (1, 2, link12)]
            .into_iter()
            .filter(|&(_, _, on)| on)
            .map(|(a, b, _)| (a, b))
            .collect();
        // Scope: stack of vectors, pivot vec: contents →vec elems.
        let program = parse_program(
            "group contents
             group elems
             field cnt in elems
             field vec in contents maps elems into contents",
        ).expect("parses");
        let checker = oolong::datagroups::Checker::new(&program, Default::default()).expect("analyses");
        let scope = checker.scope();
        let vec_attr = scope.attr("vec").unwrap();
        let contents = scope.attr("contents").unwrap();

        // Build the store: 3 objects, pivot links per `links`.
        let mut store = oolong::interp::Store::new();
        let objs: Vec<_> = (0..3).map(|_| store.alloc()).collect();
        for &(from, to) in &links {
            store.write(Loc { obj: objs[from], attr: vec_attr }, Value::Obj(objs[to]));
        }

        // Ground description of the store for the prover.
        let mut hyps: Vec<Formula> = checker.background().iter().map(|a| a.formula.clone()).collect();
        let obj_term = |o: oolong::interp::ObjId| Term::var(format!("o{}", o.0));
        for (i, &oi) in objs.iter().enumerate() {
            // Distinct objects, all alive, none null.
            hyps.push(Formula::neq(obj_term(oi), Term::null()));
            for &oj in &objs[i + 1..] {
                hyps.push(Formula::neq(obj_term(oi), obj_term(oj)));
            }
            let pivot_val = store.read(Loc { obj: oi, attr: vec_attr });
            let val_term = match pivot_val {
                Value::Obj(o) => obj_term(o),
                _ => Term::null(),
            };
            hyps.push(Formula::eq(
                Term::select(Term::store(), obj_term(oi), Term::attr("vec")),
                val_term,
            ));
        }

        // Check agreement for the contents group of object 0.
        let root = Loc { obj: objs[0], attr: contents };
        let denoted = included_locations(scope, &store, root);
        for (_, info) in scope.attrs() {
            let _ = info;
        }
        for &target in &objs {
            for attr_name in ["contents", "elems", "cnt", "vec"] {
                let attr_id = scope.attr(attr_name).unwrap();
                let loc = Loc { obj: target, attr: attr_id };
                let goal = Formula::Atom(Atom::Inc {
                    store: Term::store(),
                    obj: obj_term(objs[0]),
                    attr: Term::attr("contents"),
                    obj2: obj_term(target),
                    attr2: Term::attr(attr_name),
                });
                let proof = prove(&hyps, &goal, &Budget::default());
                if denoted.contains(&loc) {
                    prop_assert_eq!(
                        proof.outcome, Outcome::Proved,
                        "denotation says {:?} ∈ contents closure but prover disagrees (links {:?})",
                        (target, attr_name), links
                    );
                } else {
                    // The axioms must not prove inclusions the concrete
                    // fixpoint rejects.
                    prop_assert_ne!(
                        proof.outcome, Outcome::Proved,
                        "prover claims {:?} included but the denotation rejects it (links {:?})",
                        (target, attr_name), links
                    );
                }
            }
        }
    }
}

// ------------------------------------------- e-graph trail round-tripping

/// Applies a random op sequence (interning applications, sums, seven-ary
/// applications and fresh integer literals, merging, disequating) to the
/// E-graph. Stops at the first [`Conflict`] — the
/// trail must restore even a contradictory E-graph, so conflicted
/// prefixes stay in the sample population.
fn apply_trail_ops(
    eg: &mut oolong::prover::EGraph,
    pool: &mut Vec<Term>,
    ids: &mut Vec<oolong::prover::NodeId>,
    ops: &[(u64, usize, usize)],
) {
    for &(kind, i, j) in ops {
        let n = pool.len();
        match kind % 7 {
            0 => {
                let t = Term::uninterp("f", vec![pool[i % n]]);
                let Ok(id) = eg.intern(&t) else { return };
                pool.push(t);
                ids.push(id);
            }
            1 => {
                let t = Term::uninterp("g", vec![pool[i % n], pool[j % n]]);
                let Ok(id) = eg.intern(&t) else { return };
                pool.push(t);
                ids.push(id);
            }
            2 => {
                // Sums engage the eager arithmetic evaluator.
                let t = Term::add(pool[i % n], pool[j % n]);
                let Ok(id) = eg.intern(&t) else { return };
                pool.push(t);
                ids.push(id);
            }
            3 => {
                if eg.merge(ids[i % ids.len()], ids[j % ids.len()]).is_err() {
                    return;
                }
            }
            4 => {
                // Seven arguments: wider than a node keeps inline, so the
                // children and the signature take the spilled path.
                let args = (0..7).map(|k| pool[(i + k * (j + 1)) % n]).collect();
                let t = Term::uninterp("h", args);
                let Ok(id) = eg.intern(&t) else { return };
                pool.push(t);
                ids.push(id);
            }
            5 => {
                // A literal outside the base universe gets a fresh
                // graph-local key, which the pop must leave harmless.
                let t = Term::int(100 + (i * 32 + j) as i64);
                let Ok(id) = eg.intern(&t) else { return };
                pool.push(t);
                ids.push(id);
            }
            _ => {
                if eg
                    .assert_diseq(ids[i % ids.len()], ids[j % ids.len()])
                    .is_err()
                {
                    return;
                }
            }
        }
    }
}

/// Base universe: free constants and small integers, pre-interned so
/// merges can hit both uninterpreted and evaluated classes.
fn trail_base(eg: &mut oolong::prover::EGraph) -> (Vec<Term>, Vec<oolong::prover::NodeId>) {
    let pool: Vec<Term> = vec![
        Term::var("a"),
        Term::var("b"),
        Term::var("c"),
        Term::int(0),
        Term::int(1),
        Term::int(2),
        Term::null(),
    ];
    let ids = pool.iter().map(|t| eg.intern(t).unwrap()).collect();
    (pool, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `push`/`pop` round-trips the full E-graph state: whatever happens
    /// between the checkpoint and the pop — new nodes, merges with
    /// congruence repair, arithmetic evaluation, disequations, even a
    /// conflict — the canonical state rendering afterwards is identical
    /// to the one before.
    #[test]
    fn egraph_push_pop_roundtrips(
        setup in proptest::collection::vec((0u64..255, 0usize..32, 0usize..32), 0..12),
        branch in proptest::collection::vec((0u64..255, 0usize..32, 0usize..32), 1..16),
    ) {
        use oolong::prover::EGraph;
        let mut eg = EGraph::new();
        let (mut pool, mut ids) = trail_base(&mut eg);
        apply_trail_ops(&mut eg, &mut pool, &mut ids, &setup);
        let before = eg.debug_state();
        let merges_before = eg.merge_count();
        let mark = eg.push();
        apply_trail_ops(&mut eg, &mut pool, &mut ids, &branch);
        eg.pop(mark);
        prop_assert_eq!(eg.debug_state(), before, "ops {:?} then {:?}", setup, branch);
        prop_assert_eq!(eg.merge_count(), merges_before);
    }

    /// Nested checkpoints unwind LIFO at arbitrary depths: popping any
    /// suffix of the mark stack restores exactly the state that was
    /// captured when the corresponding mark was taken.
    #[test]
    fn egraph_nested_push_pop_roundtrips(
        segments in proptest::collection::vec(
            proptest::collection::vec((0u64..255, 0usize..32, 0usize..32), 1..8),
            1..5,
        ),
        keep in 0usize..5,
    ) {
        use oolong::prover::EGraph;
        let mut eg = EGraph::new();
        let (mut pool, mut ids) = trail_base(&mut eg);
        let mut marks = Vec::new();
        let mut snapshots = Vec::new();
        for seg in &segments {
            snapshots.push(eg.debug_state());
            marks.push(eg.push());
            apply_trail_ops(&mut eg, &mut pool, &mut ids, seg);
        }
        // Pop back to a random retained depth, checking each level.
        let keep = keep % (marks.len() + 1);
        while marks.len() > keep {
            let mark = marks.pop().unwrap();
            let expected = snapshots.pop().unwrap();
            eg.pop(mark);
            prop_assert_eq!(
                eg.debug_state(), expected,
                "level {} of {:?}", marks.len(), segments
            );
        }
    }
}

// ------------------------------------------------------ hash-consed terms

use oolong::logic::{Cst, TermNode};

fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        Just(Term::var("x")),
        Just(Term::var("y")),
        Just(Term::store()),
        Just(Term::store0()),
        Just(Term::null()),
        Just(Term::attr("f")),
        Just(Term::attr("grp")),
        (0i64..50).prop_map(Term::int),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Term::succ),
            inner.clone().prop_map(Term::neg),
            inner.clone().prop_map(Term::new_obj),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::sub(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::mul(a, b)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(s, x, a)| Term::select(s, x, a)),
            (inner.clone(), inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(s, x, a, v)| Term::update(s, x, a, v)),
            proptest::collection::vec(inner, 1..3).prop_map(|args| Term::uninterp("fn1", args)),
        ]
    })
}

/// Rebuilds `t` bottom-up through the public constructors, exactly as a
/// second independent construction of the same structural term would.
fn rebuild(t: Term) -> Term {
    match t.node() {
        TermNode::Var(v) => Term::var(*v),
        TermNode::Const(c) => Term::lit(*c),
        TermNode::App(f, args) => Term::app(*f, args.iter().map(|a| rebuild(*a)).collect()),
    }
}

/// A minimal recursive-descent parser for the `Display` rendering of
/// [`Term`] (the crate has no term parser; this one exists only to state
/// the round-trip property). Handles exactly the forms `arb_term`
/// produces: identifiers, integers, `null`, `#attr`, `t⁺`, `(a op b)`,
/// `head(args)` calls, and the store forms `s(x·a)` / `s(x·a := v)`.
fn parse_term(text: &str) -> Term {
    struct P {
        chars: Vec<char>,
        pos: usize,
    }
    impl P {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }
        fn skip_ws(&mut self) {
            while self.peek() == Some(' ') {
                self.pos += 1;
            }
        }
        fn eat(&mut self, c: char) -> bool {
            self.skip_ws();
            if self.peek() == Some(c) {
                self.pos += 1;
                true
            } else {
                false
            }
        }
        fn expect(&mut self, c: char) {
            assert!(self.eat(c), "expected `{c}` at {}", self.pos);
        }
        fn ident(&mut self) -> String {
            self.skip_ws();
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '$' || c == '!')
            {
                self.pos += 1;
            }
            assert!(self.pos > start, "expected identifier at {start}");
            self.chars[start..self.pos].iter().collect()
        }
        fn term(&mut self) -> Term {
            let mut t = self.primary();
            loop {
                self.skip_ws();
                if self.eat('⁺') {
                    t = Term::succ(t);
                } else if self.peek() == Some('(') {
                    // A parenthesized group after a *composite* term is
                    // always a select/update postfix (calls are consumed
                    // inside `primary`, where the head is a bare name).
                    t = self.store_postfix(t);
                } else {
                    return t;
                }
            }
        }
        /// Parses `(x·a)` or `(x·a := v)` after the head store term.
        fn store_postfix(&mut self, head: Term) -> Term {
            self.expect('(');
            let obj = self.term();
            self.expect('·');
            let attr = self.term();
            self.skip_ws();
            if self.eat(')') {
                Term::select(head, obj, attr)
            } else {
                self.expect(':');
                self.expect('=');
                let value = self.term();
                self.expect(')');
                Term::update(head, obj, attr, value)
            }
        }
        fn primary(&mut self) -> Term {
            self.skip_ws();
            match self.peek().expect("unexpected end of term") {
                '(' => {
                    self.expect('(');
                    let a = self.term();
                    self.skip_ws();
                    let op = self.chars[self.pos];
                    self.pos += 1;
                    let b = self.term();
                    self.expect(')');
                    match op {
                        '+' => Term::add(a, b),
                        '-' => Term::sub(a, b),
                        '*' => Term::mul(a, b),
                        other => panic!("unknown operator `{other}`"),
                    }
                }
                '#' => {
                    self.expect('#');
                    Term::attr(self.ident().as_str())
                }
                c if c.is_ascii_digit() => {
                    let mut n = 0i64;
                    while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        n = n * 10 + (self.chars[self.pos] as i64 - '0' as i64);
                        self.pos += 1;
                    }
                    Term::int(n)
                }
                _ => {
                    let name = self.ident();
                    match name.as_str() {
                        "null" => return Term::null(),
                        "true" => return Term::lit(Cst::Bool(true)),
                        "false" => return Term::lit(Cst::Bool(false)),
                        _ => {}
                    }
                    self.skip_ws();
                    if self.peek() != Some('(') {
                        return Term::var(name.as_str());
                    }
                    // Either a call `f(a, b)` or a select/update whose
                    // head is the variable `name`: disambiguated by the
                    // separator after the first argument.
                    self.expect('(');
                    let first = self.term();
                    self.skip_ws();
                    if self.peek() == Some('·') {
                        self.expect('·');
                        let attr = self.term();
                        self.skip_ws();
                        let head = Term::var(name.as_str());
                        if self.eat(')') {
                            return Term::select(head, first, attr);
                        }
                        self.expect(':');
                        self.expect('=');
                        let value = self.term();
                        self.expect(')');
                        return Term::update(head, first, attr, value);
                    }
                    let mut args = vec![first];
                    while self.eat(',') {
                        args.push(self.term());
                    }
                    self.expect(')');
                    match name.as_str() {
                        "neg" => Term::neg(args.remove(0)),
                        "new" => Term::new_obj(args.remove(0)),
                        _ => Term::uninterp(name.as_str(), args),
                    }
                }
            }
        }
    }
    let mut p = P {
        chars: text.chars().collect(),
        pos: 0,
    };
    let t = p.term();
    p.skip_ws();
    assert_eq!(p.pos, p.chars.len(), "trailing input in `{text}`");
    t
}

proptest! {
    /// Interning is canonical: constructing the same structural term a
    /// second time yields the *same arena id*, so structural equality and
    /// id equality coincide.
    #[test]
    fn hash_consing_is_canonical(t in arb_term()) {
        let again = rebuild(t);
        prop_assert_eq!(t.id(), again.id());
        prop_assert_eq!(t, again);
    }

    /// The content digest (what fingerprints hash) is a function of
    /// structure alone: independently rebuilt terms hash identically.
    #[test]
    fn term_digest_is_structural(t in arb_term()) {
        use oolong::logic::stable_hash128;
        prop_assert_eq!(stable_hash128(&t), stable_hash128(&rebuild(t)));
    }

    /// Display round-trip: parsing a term's rendering re-interns the very
    /// same arena node.
    #[test]
    fn term_display_roundtrip(t in arb_term()) {
        let printed = t.to_string();
        let reparsed = parse_term(&printed);
        prop_assert_eq!(t.id(), reparsed.id(), "`{}` reparsed as `{}`", printed, reparsed);
    }
}

/// The interner-boundary gate: raw-string construction of interned
/// payloads must funnel through `Symbol::intern` (via the `Into<Symbol>`
/// constructors). Scans crate sources for `FnSym::Uninterp(`/`Cst::Attr(`
/// applied to string expressions outside the two modules that own the
/// representation.
#[test]
fn interned_payloads_are_not_built_from_raw_strings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut offenders = Vec::new();
    let mut stack = vec![root];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable source tree") {
            let path = entry.expect("dirent").path();
            if path.is_dir() {
                // Vendored dev-dependency stubs don't touch the logic.
                if path.ends_with("crates/proptest") || path.ends_with("crates/rand") {
                    continue;
                }
                stack.push(path);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                continue;
            }
            let rel = path.strip_prefix(path.ancestors().nth(4).unwrap()).unwrap();
            let rel = rel.to_string_lossy().replace('\\', "/");
            // The representation owners may mention the raw constructors.
            if rel.ends_with("logic/src/term.rs") || rel.ends_with("logic/src/intern.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            for (lineno, line) in text.lines().enumerate() {
                for needle in ["FnSym::Uninterp(", "Cst::Attr("] {
                    let Some(at) = line.find(needle) else {
                        continue;
                    };
                    let tail = &line[at + needle.len()..];
                    // Only the constructor's argument span matters; text
                    // past the closing paren belongs to the surrounding
                    // expression (e.g. a match arm destructuring the
                    // variant).
                    let span = tail.split(')').next().unwrap_or(tail);
                    // Symbol-typed payloads (bindings, `*name`, `sym`,
                    // `Symbol::intern(..)`) are fine; string-expression
                    // payloads are the violation.
                    let raw = span.trim_start().starts_with('"')
                        || span.contains(".to_string()")
                        || span.contains("String::from")
                        || span.contains("format!")
                        || span.contains(".into()");
                    if raw {
                        offenders.push(format!("{rel}:{}: {}", lineno + 1, line.trim()));
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "raw-string construction of interned payloads outside the interner:\n{}",
        offenders.join("\n")
    );
}

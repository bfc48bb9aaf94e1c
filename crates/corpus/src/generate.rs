//! Random well-formed oolong program generation, for property tests and
//! scaling benchmarks.
//!
//! Generated programs always pass `Scope::analyze` (this is asserted by
//! tests). Two knobs shape the population:
//!
//! * `respect_restrictions` — comply with pivot uniqueness syntactically
//!   (no pivot reads into variables, no copying of formals, pivots
//!   assigned only `new()`/`null`);
//! * `licensed_writes_only` — bias field writes toward locations the
//!   enclosing procedure's modifies list licenses, producing a population
//!   where the checker has something to verify rather than reject.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Shape parameters for generated programs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of data groups.
    pub groups: usize,
    /// Number of object fields.
    pub fields: usize,
    /// Probability that a field is declared as a pivot.
    pub pivot_fraction: f64,
    /// Number of procedures.
    pub procs: usize,
    /// Number of implementations (over random procedures).
    pub impls: usize,
    /// Approximate commands per implementation body.
    pub body_len: usize,
    /// Comply with the pivot uniqueness restriction.
    pub respect_restrictions: bool,
    /// Only write fields the procedure's modifies list licenses.
    pub licensed_writes_only: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            groups: 3,
            fields: 5,
            pivot_fraction: 0.25,
            procs: 4,
            impls: 3,
            body_len: 5,
            respect_restrictions: true,
            licensed_writes_only: true,
        }
    }
}

struct Gen {
    rng: StdRng,
    cfg: GenConfig,
    group_names: Vec<String>,
    /// (name, enclosing groups (direct), is_pivot)
    fields: Vec<(String, Vec<usize>, bool)>,
    /// (name, param count, modifies: (param, attr name))
    #[allow(clippy::type_complexity)]
    procs: Vec<(String, usize, Vec<(usize, String)>)>,
    /// For licensed writes: per group index, the transitively included
    /// field names.
    group_fields: Vec<Vec<String>>,
}

/// Generates the source text of a random well-formed program.
pub fn generate_source(seed: u64, cfg: &GenConfig) -> String {
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed),
        cfg: cfg.clone(),
        group_names: Vec::new(),
        fields: Vec::new(),
        procs: Vec::new(),
        group_fields: Vec::new(),
    };
    gen.run()
}

/// Generates source text for an *extension* of a base program produced by
/// [`generate_source`]: the base text followed by additional declarations
/// (new groups, fields — possibly pivots — procedures, and
/// implementations). The result is a strict superset scope, as needed by
/// the scope-monotonicity experiment (E7).
pub fn extend_source(base: &str, seed: u64, cfg: &GenConfig) -> String {
    let mut ext_cfg = cfg.clone();
    ext_cfg.groups = (cfg.groups / 2).max(1);
    ext_cfg.fields = (cfg.fields / 2).max(1);
    ext_cfg.procs = (cfg.procs / 2).max(1);
    ext_cfg.impls = (cfg.impls / 2).max(1);
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(17)),
        cfg: ext_cfg,
        group_names: Vec::new(),
        fields: Vec::new(),
        procs: Vec::new(),
        group_fields: Vec::new(),
    };
    // Re-derive the base declarations so extension clauses can reference
    // them; names are deterministic, so reparse from the base text.
    gen.absorb_base(base);
    let ext = gen.run_extension();
    format!("{base}\n{ext}")
}

/// Generates the source text of a random program whose rep inclusions form
/// a *cycle* — the shape of the paper's §5 third example (`field next in g
/// maps g into g`), where an object's representation includes the
/// representation of another object of the same shape, transitively
/// through an unbounded heap chain.
///
/// These programs are correct (every write and call is licensed by the
/// modifies clause through the cyclic pivot, exactly as in §5), but their
/// rep-inclusion axioms admit endless instantiation chains: a starved
/// prover budget must yield `Unknown` — never a refutation — and the
/// divergence attribution should rank a rep-inclusion axiom among the
/// culprits. The differential soundness suite is the consumer.
///
/// The seed varies the cycle length (1–3 groups) and benign body
/// decoration; every generated program parses and analyses (asserted by
/// tests).
pub fn generate_cyclic_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let cycle = rng.gen_range(1..=3usize);
    let mut out = String::new();
    for i in 0..cycle {
        let _ = writeln!(out, "group g{i}");
    }
    for i in 0..cycle {
        // `n{i}` closes the cycle: the rep of the next shape's group is
        // part of this one's, and after the last link, back to the first.
        let next = (i + 1) % cycle;
        let _ = writeln!(out, "field v{i} in g{i}");
        let _ = writeln!(out, "field n{i} in g{i} maps g{next} into g{i}");
    }
    for i in 0..cycle {
        let _ = writeln!(out, "proc touch{i}(t) modifies t.g{i}");
    }
    for i in 0..cycle {
        let next = (i + 1) % cycle;
        let _ = writeln!(out, "impl touch{i}(t) {{");
        let _ = writeln!(out, "  assume t != null ;");
        if rng.gen_bool(0.5) {
            let _ = writeln!(out, "  skip ;");
        }
        let bump = rng.gen_range(1..=3);
        let _ = writeln!(out, "  t.v{i} := t.v{i} + {bump} ;");
        if rng.gen_bool(0.3) {
            let _ = writeln!(out, "  t.v{i} := 0 - t.v{i} ;");
        }
        let _ = writeln!(out, "  if t.n{i} != null then");
        let _ = writeln!(out, "    touch{next}(t.n{i})");
        let _ = writeln!(out, "  end");
        out.push_str("}\n");
    }
    out
}

/// Generates the source text of a *branch-heavy* program: a single
/// implementation whose body is a chain of `depth` guarded choices, each
/// bumping a field by one of two distinct amounts, followed by an assert
/// that holds on every path.
///
/// `wlp` turns each choice into a conjunction of both arms, so the negated
/// verification condition is a disjunction tree with `2^depth` leaves —
/// the prover must case-split through all of them, making these programs
/// the stress population for backtracking search (E15) and the golden
/// ledger. The seed varies the bump amounts
/// and benign decoration; the branch structure depends only on `depth`.
pub fn generate_branchy_source(seed: u64, depth: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let _ = writeln!(out, "group g");
    let _ = writeln!(out, "field v in g");
    let _ = writeln!(out, "field w in g");
    let _ = writeln!(out, "proc branchy(t) modifies t.g");
    let _ = writeln!(out, "impl branchy(t) {{");
    let _ = writeln!(out, "  assume t != null ;");
    let _ = writeln!(out, "  t.v := 0 ;");
    for _ in 0..depth {
        // Both bumps are positive, so the running sum is nonzero on
        // every one of the 2^depth paths and the final assert closes.
        let a = rng.gen_range(1..=3);
        let b = rng.gen_range(4..=6);
        let _ = writeln!(out, "  {{ t.v := t.v + {a} [] t.v := t.v + {b} }} ;");
    }
    if rng.gen_bool(0.5) {
        let _ = writeln!(out, "  skip ;");
    }
    let _ = writeln!(out, "  assert t.v != 0");
    out.push_str("}\n");
    out
}

/// Generates the source text of a correct program exercising *object
/// invariants*: a declared invariant over a guarded field, and an
/// implementation that re-establishes it before every exit (plus,
/// sometimes, a caller whose call boundaries must observe it).
///
/// Every generated program verifies: the only write to the constrained
/// field restores the declared value, every other command touches an
/// unconstrained sibling, and all writes are licensed by `modifies t.g`.
/// The seed varies the invariant's constant, benign body decoration, and
/// whether the call-boundary obligation appears at all.
pub fn generate_invariant_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x94d0_49bb).wrapping_add(7));
    let bound = rng.gen_range(0..3);
    let mut out = String::new();
    let _ = writeln!(out, "group g");
    let _ = writeln!(out, "field v in g");
    let _ = writeln!(out, "field c in g");
    let _ = writeln!(out, "invariant this.c = {bound}");
    let _ = writeln!(out, "proc keep(t) modifies t.g");
    let with_caller = rng.gen_bool(0.5);
    if with_caller {
        let _ = writeln!(out, "proc relay(t) modifies t.g");
    }
    let _ = writeln!(out, "impl keep(t) {{");
    let _ = writeln!(out, "  assume t != null ;");
    for _ in 0..rng.gen_range(1..=3usize) {
        let bump = rng.gen_range(1..=4);
        let _ = writeln!(out, "  t.v := t.v + {bump} ;");
    }
    if rng.gen_bool(0.5) {
        let _ = writeln!(out, "  skip ;");
    }
    let _ = writeln!(out, "  t.c := {bound}");
    out.push_str("}\n");
    if with_caller {
        // The call boundary inside `relay` carries its own
        // invariant-preserved obligation, discharged from the entry
        // hypothesis (nothing is written before the call).
        let _ = writeln!(out, "impl relay(t) {{");
        let _ = writeln!(out, "  assume t != null ;");
        let _ = writeln!(out, "  keep(t)");
        out.push_str("}\n");
    }
    out
}

/// Generates the source text of a correct program exercising *read
/// effects*: a procedure declaring `reads t.g` whose every heap
/// dereference stays inside the declared frame (an ungrouped sibling
/// field is declared but never read).
///
/// Every generated program verifies — the read licenses discharge through
/// the `read-frame-inc-reflexive` background axiom — so the population
/// stresses exactly the goal-directed activation path the reads machinery
/// added. The seed varies the body's read/write mix and decoration.
pub fn generate_read_effect_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491).wrapping_add(11));
    let mut out = String::new();
    let _ = writeln!(out, "group g");
    let _ = writeln!(out, "field v in g");
    let _ = writeln!(out, "field w in g");
    let _ = writeln!(out, "field u");
    let _ = writeln!(out, "proc sum(t) modifies t.g reads t.g");
    let _ = writeln!(out, "impl sum(t) {{");
    let _ = writeln!(out, "  assume t != null ;");
    for _ in 0..rng.gen_range(1..=3usize) {
        if rng.gen_bool(0.5) {
            let _ = writeln!(out, "  t.v := t.v + t.w ;");
        } else {
            let bump = rng.gen_range(1..=4);
            let _ = writeln!(out, "  t.w := t.w + {bump} ;");
        }
    }
    if rng.gen_bool(0.5) {
        let _ = writeln!(out, "  skip ;");
    }
    let _ = writeln!(out, "  t.v := t.v + t.w");
    out.push_str("}\n");
    out
}

/// One seeded effect-discipline bug kind, for diagnosis-accuracy tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// A write to a field whose `in` clause was forgotten (it belongs to
    /// no group, so the procedure's group license never covers it):
    /// refuted as a modifies violation at the write.
    ForgottenIn,
    /// A call whose callee's modifies entry the caller's downward closure
    /// does not cover: refuted as a modifies violation at the call.
    MissingClosureMember,
    /// A copy of a pivot value into a sibling field: rejected by the
    /// syntactic pivot-uniqueness restriction at the copy.
    StrayPivotWrite,
    /// A heap read of an ungrouped field inside a procedure declaring
    /// `reads t.g`: refuted as a reads violation at the dereference.
    UncoveredRead,
    /// A licensed write that leaves a declared object invariant false at
    /// exit: refuted as an invariant-preservation failure, blamed on the
    /// invariant declaration.
    BrokenInvariant,
}

impl SeededBug {
    /// Every bug kind, in the order `seed % 5` selects them.
    pub const ALL: [SeededBug; 5] = [
        SeededBug::ForgottenIn,
        SeededBug::MissingClosureMember,
        SeededBug::StrayPivotWrite,
        SeededBug::UncoveredRead,
        SeededBug::BrokenInvariant,
    ];

    /// The obligation-kind string a correct diagnosis must report.
    pub fn expected_kind(self) -> &'static str {
        match self {
            SeededBug::ForgottenIn | SeededBug::MissingClosureMember => "modifies-violation",
            SeededBug::StrayPivotWrite => "pivot-uniqueness",
            SeededBug::UncoveredRead => "reads-violation",
            SeededBug::BrokenInvariant => "invariant-preserved",
        }
    }
}

/// A generated program carrying exactly one seeded violation, with the
/// ground-truth blame location recorded: the injected command for most
/// bug kinds, the invariant *declaration* for [`SeededBug::BrokenInvariant`]
/// (invariant diagnoses anchor where the broken property is stated).
#[derive(Debug, Clone)]
pub struct SeededViolation {
    /// The program text.
    pub source: String,
    /// Name of the (single) implemented procedure containing the bug.
    pub proc_name: String,
    /// Which bug was injected.
    pub bug: SeededBug,
    /// Byte offset of the ground-truth blame span within `source`.
    pub start: u32,
    /// Byte offset one past the ground-truth blame span.
    pub end: u32,
}

impl SeededViolation {
    /// The ground-truth blame span's text.
    pub fn snippet(&self) -> &str {
        &self.source[self.start as usize..self.end as usize]
    }
}

/// Generates a program with one seeded violation; the bug kind cycles
/// with `seed % 5` and the surrounding (licensed, correct) decoy commands
/// vary with the seed.
pub fn generate_seeded_violation_source(seed: u64) -> SeededViolation {
    generate_seeded_violation_with(seed, SeededBug::ALL[(seed as usize) % SeededBug::ALL.len()])
}

/// Generates a program with one seeded violation of a chosen kind.
///
/// The backbone is always correct: field `a` lives in group `g`, the
/// implemented procedure is licensed to modify `t.g`, and every decoy
/// command writes `t.a`. The injection is the only ill-behaved command,
/// so the diagnosis must blame exactly the recorded span.
pub fn generate_seeded_violation_with(seed: u64, bug: SeededBug) -> SeededViolation {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5851_f42d).wrapping_add(1));
    let mut out = String::new();
    let (mut start, mut end) = (0u32, 0u32);
    let _ = writeln!(out, "group g");
    let _ = writeln!(out, "field a in g");
    // The forgotten `in` clause: `b` belongs to no group, so the license
    // `modifies t.g` never covers it (and `reads t.g` never covers a
    // read of it).
    let _ = writeln!(out, "field b");
    let _ = writeln!(out, "field p in g maps g into g");
    if bug == SeededBug::BrokenInvariant {
        // A grouped field the invariant constrains: the injected write to
        // it is *licensed*, so the only failing obligation is the
        // invariant's preservation. The declaration is the ground truth.
        let _ = writeln!(out, "field c in g");
        start = out.len() as u32;
        let _ = write!(out, "invariant this.c = 0");
        end = out.len() as u32;
        out.push('\n');
    }
    let _ = writeln!(out, "proc helper(u) modifies u.b");
    if bug == SeededBug::UncoveredRead {
        // The declared read frame the injected dereference escapes.
        let _ = writeln!(out, "proc seeded(t) modifies t.g reads t.g");
    } else {
        let _ = writeln!(out, "proc seeded(t) modifies t.g");
    }
    let _ = writeln!(out, "impl seeded(t) {{");

    let mut cmds: Vec<(String, bool)> = Vec::new();
    for _ in 0..rng.gen_range(0..3usize) {
        cmds.push((format!("t.a := {}", rng.gen_range(0..9)), false));
    }
    if bug == SeededBug::StrayPivotWrite {
        // Seed the pivot so the stray copy duplicates a real object at
        // run time (making the violation dynamically confirmable).
        cmds.push(("t.p := new()".to_string(), false));
    }
    let injected = match bug {
        SeededBug::ForgottenIn => format!("t.b := {}", rng.gen_range(0..9)),
        SeededBug::MissingClosureMember => "helper(t)".to_string(),
        SeededBug::StrayPivotWrite => "t.a := t.p".to_string(),
        // The write is licensed (`a` is in `g`); the *read* of the
        // ungrouped `b` escapes the declared `reads t.g` frame.
        SeededBug::UncoveredRead => "t.a := t.b".to_string(),
        // Licensed write (`c` is in `g`) that falsifies `this.c = 0`.
        SeededBug::BrokenInvariant => "t.c := 1".to_string(),
    };
    cmds.push((injected, true));
    // Trailing decoys stay away from `a` for the pivot bug: overwriting
    // `t.a` would erase the duplicated pivot value before the end-of-run
    // uniqueness audit, making the violation dynamically unconfirmable.
    if bug != SeededBug::StrayPivotWrite {
        for _ in 0..rng.gen_range(0..2usize) {
            cmds.push((format!("t.a := {}", rng.gen_range(0..9)), false));
        }
    }

    // For the invariant bug the blame span was already recorded at the
    // declaration; every other kind is blamed at the injected command.
    let blame_cmd = bug != SeededBug::BrokenInvariant;
    for (i, (cmd, is_bug)) in cmds.iter().enumerate() {
        out.push_str("  ");
        if *is_bug && blame_cmd {
            start = out.len() as u32;
        }
        out.push_str(cmd);
        if *is_bug && blame_cmd {
            end = out.len() as u32;
        }
        if i + 1 < cmds.len() {
            out.push_str(" ;");
        }
        out.push('\n');
    }
    out.push_str("}\n");
    SeededViolation {
        source: out,
        proc_name: "seeded".to_string(),
        bug,
        start,
        end,
    }
}

impl Gen {
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.gen_range(0..items.len())]
    }

    fn run(&mut self) -> String {
        let mut out = String::new();
        self.gen_groups(&mut out, "g");
        self.gen_fields(&mut out, "f");
        self.compute_group_fields();
        self.gen_procs(&mut out, "p");
        let impl_count = self.cfg.impls;
        for i in 0..impl_count {
            self.gen_impl(&mut out, i);
        }
        out
    }

    fn run_extension(&mut self) -> String {
        let mut out = String::new();
        self.gen_groups(&mut out, "xg");
        self.gen_fields(&mut out, "xf");
        self.compute_group_fields();
        self.gen_procs(&mut out, "xp");
        let impl_count = self.cfg.impls;
        for i in 0..impl_count {
            self.gen_impl(&mut out, i);
        }
        out
    }

    /// Reconstructs the declaration tables from a previously generated
    /// base program (names and clauses are parsed back).
    fn absorb_base(&mut self, base: &str) {
        let program = oolong_syntax::parse_program(base).expect("base text parses");
        for g in program.groups() {
            self.group_names.push(g.name.text.clone());
        }
        for f in program.fields() {
            let includes = f
                .includes
                .iter()
                .filter_map(|i| self.group_names.iter().position(|g| g == &i.text))
                .collect();
            self.fields
                .push((f.name.text.clone(), includes, f.is_pivot()));
        }
        for p in program.procs() {
            let modifies = p
                .modifies
                .iter()
                .filter_map(|e| {
                    let (root, path) = e.as_designator_chain()?;
                    let param = p.params.iter().position(|q| q.text == root.text)?;
                    Some((param, path.last()?.text.clone()))
                })
                .collect();
            self.procs
                .push((p.name.text.clone(), p.params.len(), modifies));
        }
    }

    fn gen_groups(&mut self, out: &mut String, prefix: &str) {
        let start = self.group_names.len();
        for i in 0..self.cfg.groups {
            let name = format!("{prefix}{i}");
            let _ = write!(out, "group {name}");
            // `in` edges only to earlier groups: acyclic by construction.
            if !self.group_names.is_empty() && self.rng.gen_bool(0.4) {
                let target = self.pick(&self.group_names.clone()).clone();
                let _ = write!(out, " in {target}");
            }
            out.push('\n');
            self.group_names.push(name);
            let _ = start;
        }
    }

    fn gen_fields(&mut self, out: &mut String, prefix: &str) {
        for i in 0..self.cfg.fields {
            let name = format!("{prefix}{i}");
            let _ = write!(out, "field {name}");
            let mut includes = Vec::new();
            if !self.group_names.is_empty() && self.rng.gen_bool(0.7) {
                let gi = self.rng.gen_range(0..self.group_names.len());
                let _ = write!(out, " in {}", self.group_names[gi]);
                includes.push(gi);
            }
            let mut pivot = false;
            if !self.group_names.is_empty()
                && self.rng.gen_bool(self.cfg.pivot_fraction)
                && (!self.fields.is_empty() || !self.group_names.is_empty())
            {
                // maps <attr> into <group>.
                let mapped = if !self.fields.is_empty() && self.rng.gen_bool(0.5) {
                    self.fields[self.rng.gen_range(0..self.fields.len())]
                        .0
                        .clone()
                } else {
                    self.pick(&self.group_names.clone()).clone()
                };
                let into = self.pick(&self.group_names.clone()).clone();
                let _ = write!(out, " maps {mapped} into {into}");
                pivot = true;
            }
            out.push('\n');
            self.fields.push((name, includes, pivot));
        }
    }

    /// For each group, the field names transitively included in it.
    fn compute_group_fields(&mut self) {
        // Group-to-group edges are only recoverable from names during
        // generation; approximate with the direct field memberships, which
        // is all licensed-write biasing needs.
        self.group_fields = vec![Vec::new(); self.group_names.len()];
        for (name, includes, _) in &self.fields {
            for &g in includes {
                self.group_fields[g].push(name.clone());
            }
        }
    }

    fn gen_procs(&mut self, out: &mut String, prefix: &str) {
        for i in 0..self.cfg.procs {
            let name = format!("{prefix}{i}");
            let params = self.rng.gen_range(1..=2);
            let param_names: Vec<String> = (0..params).map(|j| format!("t{j}")).collect();
            let _ = write!(out, "proc {name}({})", param_names.join(", "));
            let mut modifies = Vec::new();
            let entries = self.rng.gen_range(0..=2);
            let mut attrs: Vec<String> = self.group_names.clone();
            attrs.extend(self.fields.iter().map(|(n, _, _)| n.clone()));
            if !attrs.is_empty() {
                for _ in 0..entries {
                    let param = self.rng.gen_range(0..params);
                    let attr = self.pick(&attrs).clone();
                    modifies.push((param, attr));
                }
            }
            if !modifies.is_empty() {
                let rendered: Vec<String> =
                    modifies.iter().map(|(p, a)| format!("t{p}.{a}")).collect();
                let _ = write!(out, " modifies {}", rendered.join(", "));
            }
            out.push('\n');
            self.procs.push((name, params, modifies));
        }
    }

    fn gen_impl(&mut self, out: &mut String, salt: usize) {
        if self.procs.is_empty() {
            return;
        }
        let pi = self.rng.gen_range(0..self.procs.len());
        let (name, params, modifies) = self.procs[pi].clone();
        let param_names: Vec<String> = (0..params).map(|j| format!("t{j}")).collect();
        let _ = writeln!(out, "impl {name}({}) {{", param_names.join(", "));
        // Two locals: `fresh` is allocated once and never overwritten (so
        // it stays provably fresh — freely modifiable and safely passable
        // at licensed callee positions); `scratch` absorbs reads.
        let fresh_local = format!("v{salt}f");
        let scratch = format!("v{salt}s");
        let _ = writeln!(out, "  var {fresh_local}, {scratch} in");
        let body = self.gen_body(&param_names, &fresh_local, &scratch, &modifies);
        let _ = writeln!(out, "    {body}");
        let _ = writeln!(out, "  end");
        out.push_str("}\n");
    }

    /// The fields this procedure may write on a given parameter, derived
    /// from its modifies list (directly licensed fields plus members of
    /// licensed groups).
    fn licensed_fields(&self, modifies: &[(usize, String)], param: usize) -> Vec<String> {
        let mut fields = Vec::new();
        for (p, attr) in modifies {
            if *p != param {
                continue;
            }
            if self.fields.iter().any(|(n, _, _)| n == attr) {
                fields.push(attr.clone());
            }
            if let Some(g) = self.group_names.iter().position(|g| g == attr) {
                fields.extend(self.group_fields[g].iter().cloned());
            }
        }
        fields
    }

    fn gen_body(
        &mut self,
        params: &[String],
        fresh_local: &str,
        scratch: &str,
        modifies: &[(usize, String)],
    ) -> String {
        let mut cmds = Vec::new();
        cmds.push(format!("{fresh_local} := new()"));
        cmds.push(format!("{scratch} := new()"));
        for _ in 0..self.cfg.body_len {
            cmds.push(self.gen_cmd(params, fresh_local, scratch, modifies));
        }
        cmds.join(" ;\n    ")
    }

    fn gen_cmd(
        &mut self,
        params: &[String],
        fresh_local: &str,
        scratch: &str,
        modifies: &[(usize, String)],
    ) -> String {
        let local = scratch;
        let non_pivot_fields: Vec<String> = self
            .fields
            .iter()
            .filter(|(_, _, pivot)| !pivot)
            .map(|(n, _, _)| n.clone())
            .collect();
        match self.rng.gen_range(0..10) {
            0 => "skip".to_string(),
            1 => format!("assert {local} != null"),
            2 => {
                let p = self.pick(params).clone();
                format!("assume {p} != null")
            }
            3..=5 => {
                // A field write.
                let param_idx = self.rng.gen_range(0..params.len());
                let target_fields = if self.cfg.licensed_writes_only {
                    self.licensed_fields(modifies, param_idx)
                } else {
                    let mut all: Vec<String> =
                        self.fields.iter().map(|(n, _, _)| n.clone()).collect();
                    all.sort();
                    all
                };
                if target_fields.is_empty() {
                    // Fall back to writing the fresh local, always allowed.
                    if non_pivot_fields.is_empty() {
                        return "skip".to_string();
                    }
                    let f = self.pick(&non_pivot_fields).clone();
                    return format!("{fresh_local}.{f} := 1");
                }
                let f = self.pick(&target_fields).clone();
                let is_pivot = self.fields.iter().any(|(n, _, p)| n == &f && *p);
                let target = format!("{}.{f}", params[param_idx]);
                if is_pivot {
                    if self.rng.gen_bool(0.5) {
                        format!("{target} := new()")
                    } else {
                        format!("{target} := null")
                    }
                } else {
                    let value = match self.rng.gen_range(0..3) {
                        0 => "null".to_string(),
                        1 => self.rng.gen_range(0..5i32).to_string(),
                        _ => local.to_string(),
                    };
                    if self.cfg.respect_restrictions {
                        format!("{target} := {value}")
                    } else {
                        // Occasionally break pivot uniqueness: copy a formal.
                        if self.rng.gen_bool(0.3) {
                            format!("{target} := {}", self.pick(params).clone())
                        } else {
                            format!("{target} := {value}")
                        }
                    }
                }
            }
            6 | 7 => {
                // A call. At positions the callee's modifies list names,
                // pass the provably-fresh local when biasing toward
                // verifiable programs (fresh objects are freely
                // modifiable); elsewhere anything goes.
                if self.procs.is_empty() {
                    return "skip".to_string();
                }
                let (callee, arity, callee_mods) = self.pick(&self.procs.clone()).clone();
                let args: Vec<String> = (0..arity)
                    .map(|pos| {
                        let licensed_pos = callee_mods.iter().any(|(p, _)| *p == pos);
                        if licensed_pos && self.cfg.licensed_writes_only {
                            fresh_local.to_string()
                        } else {
                            match self.rng.gen_range(0..3) {
                                0 => "null".to_string(),
                                1 => self.pick(params).clone(),
                                _ => local.to_string(),
                            }
                        }
                    })
                    .collect();
                format!("{callee}({})", args.join(", "))
            }
            8 => {
                // A guarded choice of two simple commands.
                format!("{{ skip [] assert {local} != null }}")
            }
            _ => {
                // A read into the local (non-pivot only under restrictions).
                if non_pivot_fields.is_empty() {
                    return "skip".to_string();
                }
                let f = self.pick(&non_pivot_fields).clone();
                let p = self.pick(params).clone();
                if self.cfg.respect_restrictions {
                    format!("assume {p} != null ; {local} := {p}.{f}")
                } else {
                    format!("assume {p} != null ; {local} := {p}")
                }
            }
        }
    }
}

/// Shape parameters for [`generate_unannotated_source`].
#[derive(Debug, Clone)]
pub struct UnannotatedConfig {
    /// Number of data groups declared.
    pub groups: usize,
    /// Number of object fields declared.
    pub fields: usize,
    /// Number of procedures (each with an implementation).
    pub procs: usize,
    /// Keep the `in` clauses in the stripped source (only `modifies`
    /// lists are erased). With the group structure intact, ground-truth
    /// frames stay at the data-group level and exercise group lifting;
    /// without it, ground truth is the concrete field footprint.
    pub keep_includes: bool,
}

impl Default for UnannotatedConfig {
    fn default() -> Self {
        UnannotatedConfig {
            groups: 3,
            fields: 6,
            procs: 5,
            keep_includes: false,
        }
    }
}

/// The erased ground-truth frame of one generated procedure: modifies
/// entries as `(parameter index, attribute path)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthFrame {
    /// Procedure name.
    pub proc: String,
    /// Ground-truth modifies entries, sorted.
    pub entries: Vec<(usize, Vec<String>)>,
}

/// A generated program with its annotations stripped and the erased
/// ground truth recorded — the inference-accuracy workload.
#[derive(Debug, Clone)]
pub struct UnannotatedProgram {
    /// Stable unit name, `unannotated-<seed>`.
    pub name: String,
    /// The stripped source (no `modifies` clauses; no `in` clauses unless
    /// `keep_includes`).
    pub source: String,
    /// The fully annotated original (verifies as generated).
    pub annotated: String,
    /// Erased ground-truth frames, one per procedure, in name order.
    pub truth: Vec<TruthFrame>,
    /// Erased `(field, group)` memberships (empty with `keep_includes`).
    pub erased_includes: Vec<(String, String)>,
}

/// Generates an annotated program whose bodies exercise exactly their
/// declared frames, then erases the annotations and records them as
/// ground truth.
///
/// Construction guarantees the annotated program verifies: every direct
/// write is licensed by the procedure's own entry, every call passes
/// formals whose frames are unions of the callees' (the call graph is a
/// DAG resolved bottom-up), and there are no pivots, so the alias
/// restrictions are vacuous. A procedure whose per-parameter footprint
/// covers *all* member fields of a group is annotated with the group
/// entry (the smallest covering group); leftover fields stay field-level
/// entries — mirroring the minimality the inference subsystem aims for.
pub fn generate_unannotated_source(seed: u64, cfg: &UnannotatedConfig) -> UnannotatedProgram {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xA11F));
    let groups: Vec<String> = (0..cfg.groups.max(1)).map(|i| format!("g{i}")).collect();
    let fields: Vec<String> = (0..cfg.fields.max(2)).map(|i| format!("f{i}")).collect();
    // Each field joins at most one group; some stay ungrouped so field-level
    // entries appear in the ground truth too.
    let membership: Vec<Option<usize>> = (0..fields.len())
        .map(|_| {
            if rng.gen_bool(0.7) {
                Some(rng.gen_range(0..groups.len()))
            } else {
                None
            }
        })
        .collect();
    let members_of = |g: usize| -> Vec<usize> {
        membership
            .iter()
            .enumerate()
            .filter(|(_, m)| **m == Some(g))
            .map(|(f, _)| f)
            .collect()
    };

    // Plan procedures: params, direct writes per param, calls to earlier
    // procedures (a DAG, so footprints resolve bottom-up in one pass).
    struct Plan {
        params: usize,
        /// field indices directly written per param, with allocation flag
        direct: Vec<Vec<(usize, bool)>>,
        /// (callee index, caller-param per callee-param)
        calls: Vec<(usize, Vec<usize>)>,
        /// resolved footprint: field indices per param
        footprint: Vec<std::collections::BTreeSet<usize>>,
        /// fresh-local noise: field index written through a fresh local
        noise: Option<usize>,
    }
    let nprocs = cfg.procs.max(1);
    let mut plans: Vec<Plan> = Vec::with_capacity(nprocs);
    for i in 0..nprocs {
        let params = 1 + rng.gen_range(0..2usize);
        let mut direct: Vec<Vec<(usize, bool)>> = vec![Vec::new(); params];
        for d in direct.iter_mut() {
            if rng.gen_bool(0.5) {
                // Group-complete intent: write every member field of a
                // non-empty group, making the group the smallest cover.
                let g = rng.gen_range(0..groups.len());
                let members = members_of(g);
                if !members.is_empty() {
                    for f in members {
                        d.push((f, rng.gen_bool(0.25)));
                    }
                    continue;
                }
            }
            for _ in 0..1 + rng.gen_range(0..2usize) {
                d.push((rng.gen_range(0..fields.len()), rng.gen_bool(0.25)));
            }
        }
        let mut calls = Vec::new();
        if i > 0 && rng.gen_bool(0.6) {
            let callee = rng.gen_range(0..i);
            // Callee parameters get *distinct* caller parameters: passing
            // the same object twice aliases the callee's per-parameter
            // frames, and the checker (rightly) refuses to prove the
            // resulting owner-exclusion obligations. A callee with more
            // parameters than the caller has is simply not called.
            if plans[callee].params <= params {
                let mut avail: Vec<usize> = (0..params).collect();
                let mapping: Vec<usize> = (0..plans[callee].params)
                    .map(|_| avail.remove(rng.gen_range(0..avail.len())))
                    .collect();
                calls.push((callee, mapping));
            }
        }
        let mut footprint: Vec<std::collections::BTreeSet<usize>> = direct
            .iter()
            .map(|d| d.iter().map(|&(f, _)| f).collect())
            .collect();
        for (callee, mapping) in &calls {
            for (callee_param, &caller_param) in mapping.iter().enumerate() {
                let extra: Vec<usize> = plans[*callee].footprint[callee_param]
                    .iter()
                    .copied()
                    .collect();
                footprint[caller_param].extend(extra);
            }
        }
        let noise = if rng.gen_bool(0.4) {
            Some(rng.gen_range(0..fields.len()))
        } else {
            None
        };
        plans.push(Plan {
            params,
            direct,
            calls,
            footprint,
            noise,
        });
    }

    // Annotated modifies entries: lift complete member sets to the group
    // (largest groups first), keep the rest field-level.
    let entries_for = |footprint: &[std::collections::BTreeSet<usize>]| {
        let mut entries: Vec<(usize, Vec<String>)> = Vec::new();
        for (param, written) in footprint.iter().enumerate() {
            let mut remaining = written.clone();
            let mut lifts: Vec<(usize, Vec<usize>)> = (0..groups.len())
                .map(|g| (g, members_of(g)))
                .filter(|(_, m)| !m.is_empty())
                .collect();
            lifts.sort_by_key(|(g, m)| (usize::MAX - m.len(), *g));
            for (g, members) in lifts {
                if members.iter().all(|f| remaining.contains(f)) {
                    for f in &members {
                        remaining.remove(f);
                    }
                    entries.push((param, vec![groups[g].clone()]));
                }
            }
            for f in remaining {
                entries.push((param, vec![fields[f].clone()]));
            }
        }
        entries.sort();
        entries
    };
    // A group entry licenses everything below it, but owner exclusion at
    // a call transfers pointwise by entry *identity*: the obligation for
    // a callee entry is a conjunct of the caller's assumed exclusion only
    // when the caller's own list carries that entry verbatim. So a caller
    // keeps its callees' entries alongside the lifted groups (the DAG is
    // resolved bottom-up, callees first).
    let mut all_entries: Vec<Vec<(usize, Vec<String>)>> = Vec::with_capacity(plans.len());
    for plan in &plans {
        let mut entries = entries_for(&plan.footprint);
        for (callee, mapping) in &plan.calls {
            for (callee_param, path) in &all_entries[*callee] {
                let e = (mapping[*callee_param], path.clone());
                if !entries.contains(&e) {
                    entries.push(e);
                }
            }
        }
        entries.sort();
        all_entries.push(entries);
    }

    // Render both versions.
    let render = |strip: bool| -> String {
        let mut out = String::new();
        for g in &groups {
            let _ = writeln!(out, "group {g}");
        }
        for (f, m) in fields.iter().zip(&membership) {
            match m {
                Some(g) if !strip || cfg.keep_includes => {
                    let _ = writeln!(out, "field {f} in {}", groups[*g]);
                }
                _ => {
                    let _ = writeln!(out, "field {f}");
                }
            }
        }
        for (i, plan) in plans.iter().enumerate() {
            let params: Vec<String> = (0..plan.params).map(|k| format!("t{k}")).collect();
            let mut decl = format!("proc p{i}({})", params.join(", "));
            if !strip {
                let rendered: Vec<String> = all_entries[i]
                    .iter()
                    .map(|(param, path)| format!("{}.{}", params[*param], path.join(".")))
                    .collect();
                if !rendered.is_empty() {
                    let _ = write!(decl, " modifies {}", rendered.join(", "));
                }
            }
            let _ = writeln!(out, "{decl}");
            let mut cmds: Vec<String> = Vec::new();
            // Calls first: a call's license obligations are discharged in
            // the initial heap. Emitting them after field updates makes the
            // prover re-derive every license under the accumulated heap
            // stores, which blows up case splits exponentially in the
            // number of preceding writes.
            for (callee, mapping) in &plan.calls {
                let args: Vec<String> = mapping.iter().map(|&p| format!("t{p}")).collect();
                cmds.push(format!("p{callee}({})", args.join(", ")));
            }
            for (param, writes) in plan.direct.iter().enumerate() {
                for &(f, alloc) in writes {
                    if alloc {
                        cmds.push(format!("t{param}.{} := new()", fields[f]));
                    } else {
                        cmds.push(format!("t{param}.{} := {}", fields[f], f % 7));
                    }
                }
            }
            // Fresh-local noise: writes through a provably fresh local need
            // no license and must not leak into the inferred frame.
            if let Some(f) = plan.noise {
                cmds.push(format!(
                    "var v{i} in v{i} := new() ; v{i}.{} := 1 end",
                    fields[f]
                ));
            }
            let _ = writeln!(out, "impl p{i}({}) {{", params.join(", "));
            let _ = writeln!(out, "  {}", cmds.join(" ;\n  "));
            let _ = writeln!(out, "}}");
        }
        out
    };
    let annotated = render(false);
    let source = render(true);

    // Ground truth: against the *stripped* scope. With includes erased the
    // group entries have no members to cover, so truth is the concrete
    // field footprint; with includes kept the lifted entries are exact.
    let truth: Vec<TruthFrame> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let entries = if cfg.keep_includes {
                all_entries[i].clone()
            } else {
                let mut es: Vec<(usize, Vec<String>)> = plan
                    .footprint
                    .iter()
                    .enumerate()
                    .flat_map(|(param, ws)| {
                        let fields = &fields;
                        ws.iter().map(move |&f| (param, vec![fields[f].clone()]))
                    })
                    .collect();
                es.sort();
                es
            };
            TruthFrame {
                proc: format!("p{i}"),
                entries,
            }
        })
        .collect();
    let erased_includes = if cfg.keep_includes {
        Vec::new()
    } else {
        fields
            .iter()
            .zip(&membership)
            .filter_map(|(f, m)| m.map(|g| (f.clone(), groups[g].clone())))
            .collect()
    };

    UnannotatedProgram {
        name: format!("unannotated-{seed}"),
        source,
        annotated,
        truth,
        erased_includes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_sema::Scope;
    use oolong_syntax::parse_program;

    #[test]
    fn generated_programs_are_well_formed() {
        for seed in 0..50 {
            let src = generate_source(seed, &GenConfig::default());
            let program = parse_program(&src)
                .unwrap_or_else(|e| panic!("seed {seed} fails to parse: {e}\n{src}"));
            Scope::analyze(&program)
                .unwrap_or_else(|e| panic!("seed {seed} fails analysis: {e}\n{src}"));
        }
    }

    #[test]
    fn unrestricted_programs_are_still_well_formed() {
        let cfg = GenConfig {
            respect_restrictions: false,
            licensed_writes_only: false,
            ..GenConfig::default()
        };
        for seed in 0..30 {
            let src = generate_source(seed, &cfg);
            let program = parse_program(&src).expect("parses");
            Scope::analyze(&program)
                .unwrap_or_else(|e| panic!("seed {seed} fails analysis: {e}\n{src}"));
        }
    }

    #[test]
    fn extensions_are_supersets_and_well_formed() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let base = generate_source(seed, &cfg);
            let ext = extend_source(&base, seed + 1, &cfg);
            assert!(ext.starts_with(&base));
            let program = parse_program(&ext)
                .unwrap_or_else(|e| panic!("seed {seed} extension fails to parse: {e}\n{ext}"));
            Scope::analyze(&program)
                .unwrap_or_else(|e| panic!("seed {seed} extension fails analysis: {e}\n{ext}"));
        }
    }

    #[test]
    fn cyclic_programs_are_well_formed() {
        for seed in 0..20 {
            let src = generate_cyclic_source(seed);
            let program = parse_program(&src)
                .unwrap_or_else(|e| panic!("seed {seed} fails to parse: {e}\n{src}"));
            Scope::analyze(&program)
                .unwrap_or_else(|e| panic!("seed {seed} fails analysis: {e}\n{src}"));
            assert!(src.contains("maps"), "the pivot cycle is present");
        }
    }

    #[test]
    fn cyclic_generation_is_deterministic() {
        assert_eq!(generate_cyclic_source(3), generate_cyclic_source(3));
    }

    #[test]
    fn branchy_programs_are_well_formed() {
        for seed in 0..10 {
            let depth = 1 + (seed as usize % 6);
            let src = generate_branchy_source(seed, depth);
            let program = parse_program(&src)
                .unwrap_or_else(|e| panic!("seed {seed} fails to parse: {e}\n{src}"));
            Scope::analyze(&program)
                .unwrap_or_else(|e| panic!("seed {seed} fails analysis: {e}\n{src}"));
            assert_eq!(src.matches("[]").count(), depth);
        }
    }

    #[test]
    fn branchy_generation_is_deterministic() {
        assert_eq!(generate_branchy_source(5, 4), generate_branchy_source(5, 4));
    }

    #[test]
    fn seeded_violations_are_well_formed_with_accurate_spans() {
        for seed in 0..30 {
            let v = generate_seeded_violation_source(seed);
            let program = parse_program(&v.source)
                .unwrap_or_else(|e| panic!("seed {seed} fails to parse: {e}\n{}", v.source));
            Scope::analyze(&program)
                .unwrap_or_else(|e| panic!("seed {seed} fails analysis: {e}\n{}", v.source));
            assert!(v.start < v.end, "seed {seed} recorded an empty span");
            let expected = match v.bug {
                SeededBug::ForgottenIn => "t.b :=",
                SeededBug::MissingClosureMember => "helper(t)",
                SeededBug::StrayPivotWrite => "t.a := t.p",
                SeededBug::UncoveredRead => "t.a := t.b",
                SeededBug::BrokenInvariant => "invariant this.c = 0",
            };
            assert!(
                v.snippet().starts_with(expected),
                "seed {seed}: snippet {:?} does not start with {expected:?}",
                v.snippet()
            );
        }
    }

    #[test]
    fn seeded_violation_covers_every_bug_kind() {
        for (i, bug) in SeededBug::ALL.iter().enumerate() {
            let v = generate_seeded_violation_source(i as u64);
            assert_eq!(v.bug, *bug);
        }
    }

    #[test]
    fn invariant_programs_are_well_formed() {
        for seed in 0..20 {
            let src = generate_invariant_source(seed);
            let program = parse_program(&src)
                .unwrap_or_else(|e| panic!("seed {seed} fails to parse: {e}\n{src}"));
            Scope::analyze(&program)
                .unwrap_or_else(|e| panic!("seed {seed} fails analysis: {e}\n{src}"));
            assert!(src.contains("invariant this.c ="));
        }
        assert_eq!(generate_invariant_source(4), generate_invariant_source(4));
    }

    #[test]
    fn read_effect_programs_are_well_formed() {
        for seed in 0..20 {
            let src = generate_read_effect_source(seed);
            let program = parse_program(&src)
                .unwrap_or_else(|e| panic!("seed {seed} fails to parse: {e}\n{src}"));
            Scope::analyze(&program)
                .unwrap_or_else(|e| panic!("seed {seed} fails analysis: {e}\n{src}"));
            assert!(src.contains("reads t.g"));
        }
        assert_eq!(
            generate_read_effect_source(4),
            generate_read_effect_source(4)
        );
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = generate_seeded_violation_source(9);
        let b = generate_seeded_violation_source(9);
        assert_eq!(a.source, b.source);
        assert_eq!((a.start, a.end), (b.start, b.end));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        assert_eq!(generate_source(7, &cfg), generate_source(7, &cfg));
        assert_ne!(generate_source(7, &cfg), generate_source(8, &cfg));
    }

    #[test]
    fn size_scales_with_config() {
        let small = generate_source(1, &GenConfig::default());
        let big = generate_source(
            1,
            &GenConfig {
                groups: 10,
                fields: 20,
                procs: 12,
                impls: 10,
                body_len: 12,
                ..GenConfig::default()
            },
        );
        assert!(big.len() > small.len() * 2);
    }
}

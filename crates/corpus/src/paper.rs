//! The paper's example programs, as an executable corpus.
//!
//! Sources are written in the ASCII concrete syntax of `oolong-syntax`.
//! Section references are to the PLDI 2002 paper.

/// A corpus entry: a named oolong program with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusProgram {
    /// Short identifier, e.g. `"section30_q"`.
    pub name: &'static str,
    /// Where in the paper the program comes from.
    pub section: &'static str,
    /// The oolong source text.
    pub source: &'static str,
}

/// §3.0 — the interface scope for procedure `q`: stacks and vectors with
/// *no* pivot declaration in scope. A modular checker in this scope should
/// verify `impl q` (the call `push(st, 3)` cannot affect `v.cnt`).
pub const SECTION30_Q: CorpusProgram = CorpusProgram {
    name: "section30_q",
    section: "3.0",
    source: "group contents
field cnt
field obj
proc push(st, o) modifies st.contents
proc m(st, r) modifies r.obj
proc q()
impl q() {
  var st, result, v, n in
    st := new() ;
    result := new() ;
    m(st, result) ;
    v := result.obj ;
    n := v.cnt ;
    push(st, 3) ;
    assert n = v.cnt
  end
}",
};

/// §3.0 — the private stack implementation: the pivot `vec` with the rep
/// inclusion `contents →vec cnt`, and the implementation of `m` that leaks
/// the pivot value (`r.obj := st.vec`). Pivot uniqueness must reject
/// `impl m`; with the restriction in force `impl q` stays verifiable even
/// in this larger scope (scope monotonicity).
pub const SECTION30_FULL: CorpusProgram = CorpusProgram {
    name: "section30_full",
    section: "3.0",
    source: "group contents
field cnt
field obj
proc push(st, o) modifies st.contents
proc m(st, r) modifies r.obj
proc q()
impl q() {
  var st, result, v, n in
    st := new() ;
    result := new() ;
    m(st, result) ;
    v := result.obj ;
    n := v.cnt ;
    push(st, 3) ;
    assert n = v.cnt
  end
}
field vec maps cnt into contents
impl m(st, r) { r.obj := st.vec }",
};

/// §3.1 — the implementation of `w`, which reads `v.cnt` around a
/// `push(st, 3)`. Owner exclusion (assumed on entry) makes it verifiable;
/// without owner exclusion it is unverifiable once the pivot is in scope
/// (the possibility `v = st.vec`).
pub const SECTION31_W: CorpusProgram = CorpusProgram {
    name: "section31_w",
    section: "3.1",
    source: "group contents
field cnt
proc push(st, o) modifies st.contents
proc w(st, v) modifies st.contents
impl w(st, v) {
  var n in
    n := v.cnt ;
    push(st, 3) ;
    assert n = v.cnt
  end
}",
};

/// §3.1 — the bad call site `w(st, st.vec)` from inside the private stack
/// implementation. Owner exclusion must reject the implementation of
/// `bad_caller` at the call.
pub const SECTION31_BAD_CALL: CorpusProgram = CorpusProgram {
    name: "section31_bad_call",
    section: "3.1",
    source: "group contents
field cnt
proc push(st, o) modifies st.contents
proc w(st, v) modifies st.contents
impl w(st, v) {
  var n in
    n := v.cnt ;
    push(st, 3) ;
    assert n = v.cnt
  end
}
field vec in contents maps cnt into contents
proc bad_caller(st) modifies st.contents
impl bad_caller(st) {
  st.vec := new() ;
  w(st, st.vec)
}",
};

/// §5, first example — chained designators in the modifies list:
/// `proc p(t) modifies t.c.d.g` calling `q(t.c.d)` and asserting `t.f`
/// unchanged.
pub const EXAMPLE1: CorpusProgram = CorpusProgram {
    name: "example1",
    section: "5 (first example)",
    source: "field c
field d
field f
group g
proc p(t) modifies t.c.d.g
proc q(u) modifies u.g
impl p(t) {
  assume t != null ;
  var y in
    y := t.f ;
    q(t.c.d) ;
    assert y = t.f
  end
}",
};

/// §5, second example — the swinging-pivots shape: `twice` calls `once`
/// twice under the same license.
pub const EXAMPLE2: CorpusProgram = CorpusProgram {
    name: "example2",
    section: "5 (second example)",
    source: "group g
proc once(t) modifies t.g
proc twice(t) modifies t.g
impl twice(t) {
  once(t) ;
  once(t)
}",
};

/// §5, third example — linked lists with the *cyclic* rep inclusion
/// `g →next g`. The paper reports its hand proof is simple but Simplify's
/// matching loops; our prover's fuel accounting measures the same
/// phenomenon.
pub const EXAMPLE3: CorpusProgram = CorpusProgram {
    name: "example3",
    section: "5 (third example)",
    source: "group g
field value in g
field next in g maps g into g
proc updateAll(t) modifies t.g
impl updateAll(t) {
  assume t != null ;
  t.value := t.value + 1 ;
  if t.next != null then
    updateAll(t.next)
  end
}",
};

/// §2 — the rational-number library sketch: `normalize` may change the
/// abstract `value`, whose representation (`num`, `den`) is private.
pub const RATIONAL: CorpusProgram = CorpusProgram {
    name: "rational",
    section: "2",
    source: "group value
proc normalize(r) modifies r.value
field num in value
field den in value
impl normalize(r) {
  assume r != null ;
  if r.den < 0 then
    r.num := 0 - r.num ;
    r.den := 0 - r.den
  end
}",
};

/// A complete stack-over-vector module of our own, in the paper's style:
/// the vector substrate (`cnt` in `elems`), the stack with its pivot
/// `vec`, and `push` implemented by delegating to the vector. Exercises
/// pivot allocation, delegation through a pivot, and owner exclusion at a
/// legal call (the callee `vgrow` has no license on the stack).
pub const STACK_MODULE: CorpusProgram = CorpusProgram {
    name: "stack_module",
    section: "2-3 (running example, completed)",
    source: "group elems
field cnt in elems
proc vinit(v) modifies v.elems
impl vinit(v) { assume v != null ; v.cnt := 0 }
proc vgrow(v) modifies v.elems
impl vgrow(v) { assume v != null ; v.cnt := v.cnt + 1 }
group contents
field vec in contents maps elems into contents
proc sinit(s) modifies s.contents
impl sinit(s) {
  assume s != null ;
  s.vec := new() ;
  vinit(s.vec)
}
proc push(s, o) modifies s.contents
impl push(s, o) {
  assume s != null && s.vec != null ;
  vgrow(s.vec)
}",
};

/// The stack-over-vector system expressed with the `module` extension:
/// interface and implementation modules with explicit imports, mirroring
/// how the paper describes scopes arising ("the scope of an implementation
/// module M would typically be the set of declarations in M and in the
/// interface modules that M transitively imports").
pub const MODULAR_STACK: CorpusProgram = CorpusProgram {
    name: "modular_stack",
    section: "4 (scopes from modules; module syntax is our extension)",
    source: "module vector_interface {
  group elems
  field cnt in elems
  proc vinit(v) modifies v.elems
  proc vgrow(v) modifies v.elems
}
module vector_impl imports vector_interface {
  impl vinit(v) { assume v != null ; v.cnt := 0 }
  impl vgrow(v) { assume v != null ; v.cnt := v.cnt + 1 }
}
module stack_interface {
  group contents
  proc sinit(s) modifies s.contents
  proc push(s, o) modifies s.contents
}
module stack_impl imports stack_interface, vector_interface {
  field vec in contents maps elems into contents
  impl sinit(s) {
    assume s != null ;
    s.vec := new() ;
    vinit(s.vec)
  }
  impl push(s, o) {
    assume s != null && s.vec != null ;
    vgrow(s.vec)
  }
}",
};

/// §6 future work, implemented: **array dependencies**. A table object is
/// implemented in terms of an array of bucket objects: the elem-pivot
/// declaration `field buckets in state maps elem bucketstate into state`
/// includes every slot of the buckets array, and the `bucketstate` of
/// every element, in the table's `state` group.
pub const ARRAY_TABLE: CorpusProgram = CorpusProgram {
    name: "array_table",
    section: "6 (future work: array dependencies; our extension)",
    source: "group state
group bucketstate
field count in bucketstate
field buckets in state maps elem bucketstate into state
proc binc(b) modifies b.bucketstate
impl binc(b) {
  assume b != null ;
  if b.count = null then
    b.count := 1
  else
    b.count := b.count + 1
  end
}
proc tinit(t) modifies t.state
impl tinit(t) {
  assume t != null ;
  t.buckets := new() ;
  t.buckets[0] := new() ;
  t.buckets[1] := new()
}
proc touch(t, i) modifies t.state
impl touch(t, i) {
  assume t != null && i >= 0 && t.buckets != null && t.buckets[i] != null ;
  binc(t.buckets[i])
}
proc touch_direct(t, i) modifies t.state
impl touch_direct(t, i) {
  assume t != null && i >= 0 && t.buckets != null && t.buckets[i] != null ;
  t.buckets[i].count := 1
}
proc observer(t, x) modifies t.state
impl observer(t, x) {
  assume t != null && x != null ;
  var n in
    n := x.count ;
    touch(t, 0) ;
    assert n = x.count
  end
}",
};

/// Capstone program combining both extensions: an *event registry* whose
/// interface and implementation are explicit modules, and whose state is
/// an array of listener records (an elem-pivot). Exercises modules,
/// arrays, delegation through interfaces, and element-frame reasoning in
/// one system.
pub const REGISTRY: CorpusProgram = CorpusProgram {
    name: "registry",
    section: "extensions combined (modules + array dependencies)",
    source: "module listener_interface {
  group lstate
  field fired in lstate
  proc notify(l) modifies l.lstate
}
module listener_impl imports listener_interface {
  impl notify(l) { assume l != null ; l.fired := 1 }
}
module registry_interface imports listener_interface {
  group rstate
  proc rinit(r) modifies r.rstate
  proc subscribe(r, i) modifies r.rstate
  proc fire_first(r) modifies r.rstate
}
module registry_impl imports registry_interface {
  field listeners in rstate maps elem lstate into rstate
  impl rinit(r) {
    assume r != null ;
    r.listeners := new()
  }
  impl subscribe(r, i) {
    assume r != null && i >= 0 && r.listeners != null ;
    r.listeners[i] := new()
  }
  impl fire_first(r) {
    assume r != null && r.listeners != null && r.listeners[0] != null ;
    r.listeners[0].fired := 1
  }
}",
};

/// All paper-derived corpus programs.
pub fn all() -> Vec<CorpusProgram> {
    vec![
        SECTION30_Q,
        SECTION30_FULL,
        SECTION31_W,
        SECTION31_BAD_CALL,
        EXAMPLE1,
        EXAMPLE2,
        EXAMPLE3,
        RATIONAL,
        STACK_MODULE,
        MODULAR_STACK,
        ARRAY_TABLE,
        REGISTRY,
    ]
}

/// Looks up a corpus program by name.
pub fn by_name(name: &str) -> Option<CorpusProgram> {
    all().into_iter().find(|p| p.name == name)
}

/// The source text a unit name stands for, as the CLI, the serve daemon
/// and frame inference all read it: `corpus:NAME` is the corpus program
/// NAME, and any other name is a file path.
pub fn load_source(spec: &str) -> Result<String, String> {
    match spec.strip_prefix("corpus:") {
        Some(name) => by_name(name)
            .map(|p| p.source.to_string())
            .ok_or_else(|| format!("no corpus program named `{name}` (try `oolong corpus`)")),
        None => std::fs::read_to_string(spec).map_err(|e| format!("cannot read `{spec}`: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_sema::Scope;
    use oolong_syntax::parse_program;

    #[test]
    fn every_corpus_program_parses_and_analyses() {
        for p in all() {
            let program = parse_program(p.source)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", p.name));
            Scope::analyze(&program).unwrap_or_else(|e| panic!("{} fails analysis: {e}", p.name));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|p| p.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("example1").unwrap().section, "5 (first example)");
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn section30_full_extends_section30_q() {
        assert!(SECTION30_FULL.source.starts_with(SECTION30_Q.source));
    }
}

//! Phase 1: static may-write analysis over guarded-command bodies.
//!
//! The analysis collects, for every implemented procedure, the set of heap
//! locations its body may write — expressed as *frame entries*: designator
//! paths `param.a₁.….aₙ` rooted at a formal parameter. Direct field and
//! slot writes contribute entries immediately; calls propagate the callee's
//! (declared or inferred-so-far) frame through the actual arguments, to
//! fixpoint across the call graph. Concrete locations are then lifted to
//! the smallest covering data groups, and everything not already covered
//! by the declared `modifies` list becomes a proposal.
//!
//! The static model deliberately mirrors the prover's inclusion axioms
//! (local inclusion closure, rep-inclusion chains, elementwise slot
//! chains) but is *not* required to be complete: phase 2 re-checks the
//! proposals through the engine and repairs anything this phase missed.

use std::collections::{BTreeMap, BTreeSet};

use oolong_sema::{AttrKind, Scope};
use oolong_syntax::ast::{Cmd, Decl, Expr, FieldDecl, ProcDecl, Program};
use oolong_syntax::Span;

/// One proposed (or declared) modifies-list entry: a designator path
/// rooted at formal parameter `param`, as attribute names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameEntry {
    /// Index of the formal parameter the designator is rooted at.
    pub param: usize,
    /// Attribute path (names), non-empty.
    pub path: Vec<String>,
}

impl FrameEntry {
    /// Renders the entry against a parameter name list, e.g. `t.c.g`.
    pub fn render(&self, params: &[String]) -> String {
        let root = params
            .get(self.param)
            .map(String::as_str)
            .unwrap_or("<param>");
        let mut out = String::from(root);
        for a in &self.path {
            out.push('.');
            out.push_str(a);
        }
        out
    }
}

/// Longest designator path kept during propagation before attempting a
/// rep-inclusion collapse (guards recursive call graphs like the paper's
/// §5 cyclic example, whose concrete footprints are unbounded).
const MAX_PATH: usize = 4;

/// The group structure of a scope in name-keyed form, with an optional
/// overlay of *proposed* `in` memberships not yet in the source.
pub struct GroupGraph {
    /// attr name → direct enclosing groups (`in` clauses + overlay).
    includes: BTreeMap<String, BTreeSet<String>>,
    /// field name → `maps` clauses as (mapped, into-groups, elementwise).
    maps: BTreeMap<String, Vec<(String, Vec<String>, bool)>>,
    /// attr name → kind.
    kinds: BTreeMap<String, AttrKind>,
}

impl GroupGraph {
    /// Builds the graph from an analyzed scope.
    pub fn from_scope(scope: &Scope) -> GroupGraph {
        let mut includes: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut maps: BTreeMap<String, Vec<(String, Vec<String>, bool)>> = BTreeMap::new();
        let mut kinds = BTreeMap::new();
        for (id, info) in scope.attrs() {
            kinds.insert(info.name.clone(), info.kind);
            let encl = includes.entry(info.name.clone()).or_default();
            for &g in scope.enclosing_groups(id) {
                encl.insert(scope.attr_info(g).name.clone());
            }
            if !info.maps.is_empty() {
                let clauses = info
                    .maps
                    .iter()
                    .map(|c| {
                        (
                            scope.attr_info(c.mapped).name.clone(),
                            c.into
                                .iter()
                                .map(|&i| scope.attr_info(i).name.clone())
                                .collect(),
                            c.elementwise,
                        )
                    })
                    .collect();
                maps.insert(info.name.clone(), clauses);
            }
        }
        GroupGraph {
            includes,
            maps,
            kinds,
        }
    }

    /// Whether `name` is a declared group.
    pub fn is_group(&self, name: &str) -> bool {
        self.kinds.get(name) == Some(&AttrKind::Group)
    }

    /// Whether `name` is a declared field.
    pub fn is_field(&self, name: &str) -> bool {
        self.kinds.get(name) == Some(&AttrKind::Field)
    }

    /// The reflexive-transitive upward closure of `a` under local
    /// inclusion: every attribute `b` with `o.a ≼ o.b`.
    pub fn up_closure(&self, a: &str) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut work = vec![a.to_string()];
        while let Some(x) = work.pop() {
            if !seen.insert(x.clone()) {
                continue;
            }
            if let Some(encl) = self.includes.get(&x) {
                work.extend(encl.iter().cloned());
            }
        }
        seen
    }

    /// The transitive member *fields* of group `g` (fields whose upward
    /// closure reaches `g`).
    pub fn member_fields(&self, g: &str) -> BTreeSet<String> {
        self.kinds
            .iter()
            .filter(|(name, kind)| **kind == AttrKind::Field && self.up_closure(name).contains(g))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Whether a modifies entry licensing attribute `a` of some object `o`
    /// covers the location reached from `o` by `path`: `loc(o, path) ≼
    /// o.a`. Single-attribute paths use the local-inclusion closure;
    /// longer paths must chain through a (non-elementwise) rep inclusion
    /// on the leading pivot field.
    pub fn covers(&self, a: &str, path: &[String]) -> bool {
        match path {
            [] => false,
            [f] => self.up_closure(f).contains(a),
            [p, rest @ ..] => {
                self.maps
                    .get(p)
                    .into_iter()
                    .flatten()
                    .any(|(mapped, into, elementwise)| {
                        !elementwise
                            && self.covers(mapped, rest)
                            && into.iter().any(|i| self.up_closure(i).contains(a))
                    })
            }
        }
    }

    /// Whether the entry with path `entry` covers the write path `write`
    /// (both rooted at the same parameter).
    pub fn entry_covers(&self, entry: &[String], write: &[String]) -> bool {
        let n = entry.len();
        if n == 0 || write.len() < n {
            return false;
        }
        if entry[..n - 1] != write[..n - 1] {
            return false;
        }
        self.covers(&entry[n - 1], &write[n - 1..])
    }

    /// Whether any entry in `frame` covers `e`.
    pub fn frame_covers(&self, frame: &BTreeSet<FrameEntry>, e: &FrameEntry) -> bool {
        frame
            .iter()
            .any(|d| d.param == e.param && self.entry_covers(&d.path, &e.path))
    }

    /// Collapses an over-long path through rep inclusions: replaces the
    /// suffix `p.rest` by the into-group of a clause `p maps m into g`
    /// whose mapped attribute covers `rest`. Returns `None` when no
    /// collapse applies.
    fn collapse(&self, path: &[String]) -> Option<Vec<String>> {
        for k in 0..path.len() - 1 {
            let p = &path[k];
            let rest = &path[k + 1..];
            for (mapped, into, elementwise) in self.maps.get(p).into_iter().flatten() {
                if !elementwise && self.covers(mapped, rest) {
                    if let Some(i) = into.first() {
                        let mut out = path[..k].to_vec();
                        out.push(i.clone());
                        return Some(out);
                    }
                }
            }
        }
        None
    }

    /// Bounds a propagated path to [`MAX_PATH`] by collapsing through rep
    /// inclusions; `None` when the path cannot be bounded (the entry is
    /// dropped and reported, and phase 2 is the backstop).
    fn bound(&self, mut path: Vec<String>) -> Option<Vec<String>> {
        while path.len() > MAX_PATH {
            path = self.collapse(&path)?;
        }
        Some(path)
    }
}

/// A designator path segment: an attribute selection or an array-slot
/// index (the concrete index is irrelevant to licensing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seg {
    /// `.a`
    Attr(String),
    /// `[i]`
    Slot,
}

/// Peels a designator expression into its root identifier and segments.
fn designator(expr: &Expr) -> Option<(String, Vec<Seg>)> {
    match expr {
        Expr::Id(x) => Some((x.text.clone(), Vec::new())),
        Expr::Select { base, attr, .. } => {
            let (root, mut segs) = designator(base)?;
            segs.push(Seg::Attr(attr.text.clone()));
            Some((root, segs))
        }
        Expr::Index { base, .. } => {
            let (root, mut segs) = designator(base)?;
            segs.push(Seg::Slot);
            Some((root, segs))
        }
        _ => None,
    }
}

/// The root of a write or argument designator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Root {
    /// Formal parameter by index.
    Param(usize),
    /// Local variable by slot id (see [`BodyEvents::locals`]).
    Local(usize),
}

/// An argument position of a recorded call.
#[derive(Debug, Clone)]
pub enum Arg {
    /// A designator rooted at a formal or local.
    Obj(Root, Vec<Seg>),
    /// Anything else (constants, operators): carries no license demand.
    Other,
}

/// One licensing-relevant event of a body.
#[derive(Debug, Clone)]
pub enum Event {
    /// A field, slot, or allocation write through a designator.
    Write {
        /// Root of the written designator.
        root: Root,
        /// Segments from the root to the written location.
        segs: Vec<Seg>,
        /// Span of the assignment command.
        span: Span,
    },
    /// A procedure call (license demands depend on the callee's frame).
    Call {
        /// Callee name.
        callee: String,
        /// Arguments, normalized.
        args: Vec<Arg>,
        /// Span of the call command.
        span: Span,
    },
}

impl Event {
    /// The source span of the originating command.
    pub fn span(&self) -> Span {
        match self {
            Event::Write { span, .. } | Event::Call { span, .. } => *span,
        }
    }
}

/// A local variable slot with its (flow-insensitive) assignment summary.
#[derive(Debug, Clone)]
pub struct LocalSlot {
    /// Assigned by a plain `x := E` somewhere in the body.
    plain: bool,
    /// Assigned by `x := new()` somewhere in the body.
    newed: bool,
}

impl LocalSlot {
    /// A local is *fresh* when its only assignments are allocations: every
    /// object it can denote at a write is unallocated in the pre-store, so
    /// writes through it need no license. Never-assigned locals have
    /// arbitrary initial values and are not fresh.
    pub fn is_fresh(&self) -> bool {
        self.newed && !self.plain
    }
}

/// One heap dereference the body performs (a `select` or slot read in
/// any expression position the translation licenses).
#[derive(Debug, Clone)]
pub struct ReadEvent {
    /// Root of the dereferenced designator.
    pub root: Root,
    /// Segments from the root to the read location (last segment is the
    /// read itself; nested dereferences appear as their own events).
    pub segs: Vec<Seg>,
    /// Span of the dereference expression.
    pub span: Span,
    /// Whether the dereference occurs in a call-argument position. The
    /// static may-read phase skips these — under the permissive call
    /// model an argument dereference is attributable to either side of
    /// the call, so phase 1 leaves them to the prover, whose refuted
    /// read licenses the repair phase translates back (this is the
    /// deliberate incompleteness that makes phase 2 load-bearing).
    pub in_call: bool,
}

/// The licensing-relevant events of one implementation body.
pub struct BodyEvents {
    /// Events in syntactic order.
    pub events: Vec<Event>,
    /// Heap dereferences in syntactic order (innermost first within one
    /// expression, mirroring the translation's license order).
    pub reads: Vec<ReadEvent>,
    /// Local slots indexed by [`Root::Local`].
    pub locals: Vec<LocalSlot>,
    /// Formal parameters that are reassigned by the body (writes through
    /// them are not attributable to the caller's argument object).
    pub reassigned_params: BTreeSet<usize>,
}

/// Collects the events of `body` for a procedure with formals `params`.
pub fn collect_events(params: &[String], body: &Cmd) -> BodyEvents {
    struct Collector<'a> {
        params: &'a [String],
        env: Vec<(String, usize)>,
        out: BodyEvents,
    }
    impl Collector<'_> {
        fn resolve(&self, name: &str) -> Option<Root> {
            if let Some(&(_, slot)) = self.env.iter().rev().find(|(n, _)| n == name) {
                return Some(Root::Local(slot));
            }
            self.params.iter().position(|p| p == name).map(Root::Param)
        }

        fn assign(&mut self, lhs: &Expr, newed: bool, span: Span) {
            if let Expr::Id(x) = lhs {
                match self.resolve(&x.text) {
                    Some(Root::Local(slot)) => {
                        if newed {
                            self.out.locals[slot].newed = true;
                        } else {
                            self.out.locals[slot].plain = true;
                        }
                    }
                    Some(Root::Param(i)) if !newed => {
                        self.out.reassigned_params.insert(i);
                    }
                    Some(Root::Param(_)) | None => {}
                }
                return;
            }
            if let Some((root, segs)) = designator(lhs) {
                if let Some(root) = self.resolve(&root) {
                    self.out.events.push(Event::Write { root, segs, span });
                }
            }
        }

        /// Records every dereference `expr` performs (innermost first,
        /// matching the translation's license order).
        fn scan_reads(&mut self, expr: &Expr, in_call: bool) {
            match expr {
                Expr::Select { base, .. } => {
                    self.scan_reads(base, in_call);
                    self.push_read(expr, in_call);
                }
                Expr::Index { base, index, .. } => {
                    self.scan_reads(base, in_call);
                    self.scan_reads(index, in_call);
                    self.push_read(expr, in_call);
                }
                Expr::Binary { lhs, rhs, .. } => {
                    self.scan_reads(lhs, in_call);
                    self.scan_reads(rhs, in_call);
                }
                Expr::Unary { operand, .. } => self.scan_reads(operand, in_call),
                Expr::Const(..) | Expr::Id(_) => {}
            }
        }

        fn push_read(&mut self, expr: &Expr, in_call: bool) {
            let Some((root, segs)) = designator(expr) else {
                return;
            };
            let Some(root) = self.resolve(&root) else {
                return;
            };
            self.out.reads.push(ReadEvent {
                root,
                segs,
                span: expr.span(),
                in_call,
            });
        }

        /// Scans the dereferences of a write's left-hand side: the target
        /// location itself is written, not read, but reaching it reads
        /// every intermediate designator (and any slot index).
        fn scan_lhs_reads(&mut self, lhs: &Expr) {
            match lhs {
                Expr::Select { base, .. } => self.scan_reads(base, false),
                Expr::Index { base, index, .. } => {
                    self.scan_reads(base, false);
                    self.scan_reads(index, false);
                }
                _ => {}
            }
        }

        fn walk(&mut self, cmd: &Cmd) {
            match cmd {
                Cmd::Assert(e, _) | Cmd::Assume(e, _) => self.scan_reads(e, false),
                Cmd::Skip(_) => {}
                Cmd::Var(x, body, _) => {
                    let slot = self.out.locals.len();
                    self.out.locals.push(LocalSlot {
                        plain: false,
                        newed: false,
                    });
                    self.env.push((x.text.clone(), slot));
                    self.walk(body);
                    self.env.pop();
                }
                Cmd::Seq(a, b) | Cmd::Choice(a, b) => {
                    self.walk(a);
                    self.walk(b);
                }
                Cmd::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    // Desugaring turns the guard into `assume` commands,
                    // so its dereferences are licensed like any other.
                    self.scan_reads(cond, false);
                    self.walk(then_branch);
                    self.walk(else_branch);
                }
                Cmd::Assign { lhs, rhs, span } => {
                    self.scan_lhs_reads(lhs);
                    self.scan_reads(rhs, false);
                    self.assign(lhs, false, *span);
                }
                Cmd::AssignNew { lhs, span } => {
                    self.scan_lhs_reads(lhs);
                    self.assign(lhs, true, *span);
                }
                Cmd::Call { proc, args, span } => {
                    for a in args {
                        self.scan_reads(a, true);
                    }
                    let args = args
                        .iter()
                        .map(|a| match designator(a) {
                            Some((root, segs)) => match self.resolve(&root) {
                                Some(root) => Arg::Obj(root, segs),
                                None => Arg::Other,
                            },
                            None => Arg::Other,
                        })
                        .collect();
                    self.out.events.push(Event::Call {
                        callee: proc.text.clone(),
                        args,
                        span: *span,
                    });
                }
            }
        }
    }
    let mut c = Collector {
        params,
        env: Vec::new(),
        out: BodyEvents {
            events: Vec::new(),
            reads: Vec::new(),
            locals: Vec::new(),
            reassigned_params: BTreeSet::new(),
        },
    };
    c.walk(body);
    c.out
}

/// Resolution of one event against the group structure.
pub enum Resolution {
    /// The event demands these frame entries (one per licensed location).
    Entries(Vec<FrameEntry>),
    /// The event is licensed by freshness and demands nothing.
    Fresh,
    /// The demand cannot be expressed as a modifies entry rooted at a
    /// formal (write through a non-fresh local or reassigned formal, or a
    /// slot chain with no elementwise rep inclusion).
    Unexpressible(String),
}

/// Lifts a segment path (possibly containing slots) to a pure attribute
/// path licensing the same location. Slot and element accesses are lifted
/// through the elementwise rep inclusions of the array field; a path
/// without a suitable `maps elem` clause is inexpressible.
fn lift_segs(graph: &GroupGraph, segs: &[Seg]) -> Option<Vec<String>> {
    let slot_at = segs.iter().position(|s| matches!(s, Seg::Slot));
    let Some(j) = slot_at else {
        return Some(
            segs.iter()
                .map(|s| match s {
                    Seg::Attr(a) => a.clone(),
                    Seg::Slot => unreachable!("no slots in this branch"),
                })
                .collect(),
        );
    };
    if j == 0 {
        // A slot of a bare parameter: no field declaration carries the
        // elementwise inclusion, so there is nothing to license through.
        return None;
    }
    let Seg::Attr(arr) = &segs[j - 1] else {
        return None;
    };
    let rest = lift_segs(graph, &segs[j + 1..])?;
    for (mapped, into, elementwise) in graph.maps.get(arr).into_iter().flatten() {
        if *elementwise && (rest.is_empty() || graph.covers(mapped, &rest)) {
            if let Some(i) = into.first() {
                let mut path: Vec<String> = segs[..j - 1]
                    .iter()
                    .map(|s| match s {
                        Seg::Attr(a) => a.clone(),
                        Seg::Slot => unreachable!("j is the first slot"),
                    })
                    .collect();
                path.push(i.clone());
                return Some(path);
            }
        }
    }
    None
}

/// Resolves a designator demand (root + segments + extra callee path) to
/// frame entries, handling freshness and slot lifting.
fn resolve_demand(
    graph: &GroupGraph,
    body: &BodyEvents,
    root: Root,
    segs: &[Seg],
    callee_path: &[String],
    what: &str,
) -> Resolution {
    match root {
        Root::Local(slot) => {
            if body.locals[slot].is_fresh() {
                Resolution::Fresh
            } else {
                Resolution::Unexpressible(format!(
                    "{what} through a local that is not provably fresh"
                ))
            }
        }
        Root::Param(i) => {
            if body.reassigned_params.contains(&i) {
                return Resolution::Unexpressible(format!(
                    "{what} through a reassigned formal parameter"
                ));
            }
            let mut all: Vec<Seg> = segs.to_vec();
            all.extend(callee_path.iter().cloned().map(Seg::Attr));
            match lift_segs(graph, &all).and_then(|p| graph.bound(p)) {
                Some(path) if !path.is_empty() => {
                    Resolution::Entries(vec![FrameEntry { param: i, path }])
                }
                Some(_) => Resolution::Unexpressible(format!(
                    "{what} targets a bare parameter and licenses nothing"
                )),
                None => Resolution::Unexpressible(format!(
                    "{what} has no covering data-group path (missing `maps elem` clause \
                     or unboundable recursion)"
                )),
            }
        }
    }
}

/// The needed frame entries of one event, given the callee frames known so
/// far. Returns the demanded entries plus any inexpressibility notes.
pub fn event_demands(
    graph: &GroupGraph,
    body: &BodyEvents,
    event: &Event,
    frames: &BTreeMap<String, BTreeSet<FrameEntry>>,
) -> (Vec<FrameEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut notes = Vec::new();
    match event {
        Event::Write { root, segs, .. } => {
            match resolve_demand(graph, body, *root, segs, &[], "write") {
                Resolution::Entries(es) => entries.extend(es),
                Resolution::Fresh => {}
                Resolution::Unexpressible(n) => notes.push(n),
            }
        }
        Event::Call { callee, args, .. } => {
            let Some(callee_frame) = frames.get(callee) else {
                return (entries, notes);
            };
            for entry in callee_frame {
                if let Some(Arg::Obj(root, segs)) = args.get(entry.param) {
                    match resolve_demand(
                        graph,
                        body,
                        *root,
                        segs,
                        &entry.path,
                        &format!("call to `{callee}`"),
                    ) {
                        Resolution::Entries(es) => entries.extend(es),
                        Resolution::Fresh => {}
                        Resolution::Unexpressible(n) => notes.push(n),
                    }
                }
            }
        }
    }
    (entries, notes)
}

/// The `reads` entries one dereference demands, plus any
/// inexpressibility notes — the read-side analogue of [`event_demands`].
pub fn read_demands(
    graph: &GroupGraph,
    body: &BodyEvents,
    read: &ReadEvent,
) -> (Vec<FrameEntry>, Vec<String>) {
    match resolve_demand(graph, body, read.root, &read.segs, &[], "read") {
        Resolution::Entries(es) => (es, Vec::new()),
        Resolution::Fresh => (Vec::new(), Vec::new()),
        Resolution::Unexpressible(n) => (Vec::new(), vec![n]),
    }
}

/// Per-procedure result of the static phase.
pub struct ProcFrames {
    /// Declared modifies entries (name form).
    pub declared: BTreeSet<FrameEntry>,
    /// Entries the body demands beyond `declared`, after fixpoint.
    pub inferred: BTreeSet<FrameEntry>,
    /// Formal parameter names (for rendering).
    pub params: Vec<String>,
}

/// Result of the static may-write fixpoint.
pub struct StaticAnalysis {
    /// Frames per procedure name (implemented procedures get `inferred`
    /// entries; interface-only procedures carry just their declaration).
    pub procs: BTreeMap<String, ProcFrames>,
    /// Inexpressible demands encountered (phase 2 is the backstop).
    pub notes: Vec<String>,
}

/// Declared modifies entries of `proc` in name form.
pub fn declared_entries(scope: &Scope, proc: oolong_sema::ProcId) -> BTreeSet<FrameEntry> {
    scope
        .proc_info(proc)
        .modifies
        .iter()
        .map(|t| FrameEntry {
            param: t.param,
            path: t
                .path
                .iter()
                .map(|&a| scope.attr_info(a).name.clone())
                .collect(),
        })
        .collect()
}

/// Runs the may-write fixpoint over every implementation in `scope`.
pub fn static_frames(scope: &Scope, graph: &GroupGraph) -> StaticAnalysis {
    let mut procs: BTreeMap<String, ProcFrames> = BTreeMap::new();
    for (id, info) in scope.procs() {
        procs.insert(
            info.name.clone(),
            ProcFrames {
                declared: declared_entries(scope, id),
                inferred: BTreeSet::new(),
                params: info.params.clone(),
            },
        );
    }
    // Pre-collect events per implementation.
    let impls: Vec<(String, BodyEvents)> = scope
        .impls()
        .map(|(_, info)| {
            let pinfo = scope.proc_info(info.proc);
            (
                pinfo.name.clone(),
                collect_events(&pinfo.params, &info.body),
            )
        })
        .collect();
    let mut notes: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        // Effective frames snapshot for callee lookup.
        let frames: BTreeMap<String, BTreeSet<FrameEntry>> = procs
            .iter()
            .map(|(name, f)| {
                (
                    name.clone(),
                    f.declared.union(&f.inferred).cloned().collect(),
                )
            })
            .collect();
        for (proc_name, body) in &impls {
            for event in &body.events {
                let (demands, ns) = event_demands(graph, body, event, &frames);
                for n in ns {
                    notes.insert(format!("{proc_name}: {n}"));
                }
                let pf = procs.get_mut(proc_name).expect("impl has a proc decl");
                for e in demands {
                    let effective: BTreeSet<FrameEntry> =
                        pf.declared.union(&pf.inferred).cloned().collect();
                    if !graph.frame_covers(&effective, &e) {
                        pf.inferred.insert(e);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    StaticAnalysis {
        procs,
        notes: notes.into_iter().collect(),
    }
}

/// Per-procedure result of the static may-read phase.
pub struct ProcReads {
    /// Declared `reads` entries in name form; `None` when the declaration
    /// carries no `reads` clause (reads unconstrained, no obligations).
    pub declared: Option<BTreeSet<FrameEntry>>,
    /// Entries the body's (non-call-argument) dereferences demand.
    pub demanded: BTreeSet<FrameEntry>,
    /// Formal parameter names (for rendering).
    pub params: Vec<String>,
}

/// Result of the static may-read analysis.
pub struct ReadAnalysis {
    /// Read frames per *implemented* procedure name.
    pub procs: BTreeMap<String, ProcReads>,
    /// Inexpressible read demands (phase 2 is the backstop).
    pub notes: Vec<String>,
}

/// Declared `reads` entries of `proc` in name form (`None` = no clause).
pub fn declared_read_entries(
    scope: &Scope,
    proc: oolong_sema::ProcId,
) -> Option<BTreeSet<FrameEntry>> {
    scope.proc_info(proc).reads.as_ref().map(|reads| {
        reads
            .iter()
            .map(|t| FrameEntry {
                param: t.param,
                path: t
                    .path
                    .iter()
                    .map(|&a| scope.attr_info(a).name.clone())
                    .collect(),
            })
            .collect()
    })
}

/// Runs the static may-read analysis over every implementation in `scope`.
///
/// Unlike the may-write fixpoint there is no propagation through calls:
/// the static reads model is *permissive* at call sites (a callee's
/// dereferences are its own concern, checked against its own clause), so
/// one pass over the direct dereferences of each body suffices.
/// Call-argument dereferences are deliberately skipped here (see
/// [`ReadEvent::in_call`]) — the prover licenses them at the call site,
/// and the repair phase translates any refutation back to an entry.
pub fn static_read_frames(scope: &Scope, graph: &GroupGraph) -> ReadAnalysis {
    let mut procs: BTreeMap<String, ProcReads> = BTreeMap::new();
    let mut notes: BTreeSet<String> = BTreeSet::new();
    for (_, info) in scope.impls() {
        let pinfo = scope.proc_info(info.proc);
        let body = collect_events(&pinfo.params, &info.body);
        let entry = procs
            .entry(pinfo.name.clone())
            .or_insert_with(|| ProcReads {
                declared: declared_read_entries(scope, info.proc),
                demanded: BTreeSet::new(),
                params: pinfo.params.clone(),
            });
        for read in &body.reads {
            if read.in_call {
                continue;
            }
            match resolve_demand(graph, &body, read.root, &read.segs, &[], "read") {
                Resolution::Entries(es) => entry.demanded.extend(es),
                Resolution::Fresh => {}
                Resolution::Unexpressible(n) => {
                    notes.insert(format!("{}: {n}", pinfo.name));
                }
            }
        }
    }
    ReadAnalysis {
        procs,
        notes: notes.into_iter().collect(),
    }
}

/// Canonicalizes a proc's inferred entries: absorbs entries covered by the
/// declared frame or by other kept entries, then lifts complete member
/// sets of written fields to their covering group.
///
/// `rigid` entries are call-inherited: owner exclusion at a call transfers
/// pointwise by entry *identity*, so a callee's entry must survive in the
/// caller's list verbatim — a covering group licenses the writes but does
/// not entail the callee entry's exclusion obligation. Rigid entries are
/// kept unless the declaration already carries them literally, and are
/// never absorbed or consumed by group lifting.
pub fn canonicalize(
    graph: &GroupGraph,
    declared: &BTreeSet<FrameEntry>,
    inferred: &BTreeSet<FrameEntry>,
    rigid: &BTreeSet<FrameEntry>,
) -> BTreeSet<FrameEntry> {
    // Coverage-power order: group-licensing entries first, then shorter
    // paths, then lexicographic — so `t.g` absorbs `t.f` in one pass.
    let mut entries: Vec<&FrameEntry> = inferred.iter().collect();
    entries.sort_by_key(|e| {
        let last = e.path.last().map(String::as_str).unwrap_or("");
        (!graph.is_group(last), e.path.len(), e.param, e.path.clone())
    });
    let mut kept: BTreeSet<FrameEntry> = rigid.difference(declared).cloned().collect();
    for e in entries {
        let mut cover: BTreeSet<FrameEntry> = declared.clone();
        cover.extend(kept.iter().cloned());
        if !graph.frame_covers(&cover, e) {
            kept.insert(e.clone());
        }
    }
    // Group lifting: per parameter, replace a complete set of written
    // member fields by the group itself (largest groups first).
    let params: BTreeSet<usize> = kept.iter().map(|e| e.param).collect();
    for param in params {
        let written: BTreeSet<String> = kept
            .iter()
            .filter(|e| e.param == param && e.path.len() == 1 && graph.is_field(&e.path[0]))
            .map(|e| e.path[0].clone())
            .collect();
        if written.is_empty() {
            continue;
        }
        let mut groups: Vec<(String, BTreeSet<String>)> = graph
            .kinds
            .iter()
            .filter(|(_, k)| **k == AttrKind::Group)
            .map(|(g, _)| (g.clone(), graph.member_fields(g)))
            .filter(|(_, members)| !members.is_empty())
            .collect();
        groups.sort_by_key(|(g, members)| (usize::MAX - members.len(), g.clone()));
        let mut remaining = written;
        for (g, members) in groups {
            if members.is_subset(&remaining) {
                for f in &members {
                    let e = FrameEntry {
                        param,
                        path: vec![f.clone()],
                    };
                    if !rigid.contains(&e) {
                        kept.remove(&e);
                    }
                }
                remaining = remaining.difference(&members).cloned().collect();
                kept.insert(FrameEntry {
                    param,
                    path: vec![g.clone()],
                });
            }
        }
    }
    // Final absorb pass (lifted groups may now cover longer entries).
    let snapshot: Vec<FrameEntry> = kept.iter().cloned().collect();
    for e in snapshot {
        if rigid.contains(&e) {
            continue;
        }
        let mut cover: BTreeSet<FrameEntry> = declared.clone();
        cover.extend(kept.iter().filter(|k| **k != e).cloned());
        if graph.frame_covers(&cover, &e) {
            kept.remove(&e);
        }
    }
    kept
}

/// The final per-procedure frames: the canonicalized inferred entries with
/// call-inherited callee entries kept verbatim, resolved bottom-up over
/// the call graph to a fixpoint.
///
/// A caller's list must carry each callee entry literally (see
/// [`canonicalize`] on rigidity), and the callee's *final* list is itself
/// canonical — so the rigid sets depend on the callees' results. The loop
/// re-derives every procedure's canonical frame from the current snapshot
/// until nothing changes; on a call DAG this settles in depth-many rounds,
/// and the round cap makes pathological (recursive) inputs terminate with
/// the repair phase as backstop.
pub fn final_frames(
    scope: &Scope,
    graph: &GroupGraph,
    analysis: &StaticAnalysis,
) -> BTreeMap<String, BTreeSet<FrameEntry>> {
    let impls: Vec<(String, BodyEvents)> = scope
        .impls()
        .map(|(_, info)| {
            let pinfo = scope.proc_info(info.proc);
            (
                pinfo.name.clone(),
                collect_events(&pinfo.params, &info.body),
            )
        })
        .collect();
    let mut canon: BTreeMap<String, BTreeSet<FrameEntry>> = analysis
        .procs
        .iter()
        .map(|(name, f)| {
            (
                name.clone(),
                canonicalize(graph, &f.declared, &f.inferred, &BTreeSet::new()),
            )
        })
        .collect();
    for _ in 0..=impls.len() {
        let mut changed = false;
        for (proc_name, body) in &impls {
            let frames = &analysis.procs[proc_name];
            let mut rigid: BTreeSet<FrameEntry> = BTreeSet::new();
            for event in &body.events {
                let Event::Call { callee, args, .. } = event else {
                    continue;
                };
                let Some(callee_frames) = analysis.procs.get(callee) else {
                    continue;
                };
                let final_callee: BTreeSet<FrameEntry> = callee_frames
                    .declared
                    .union(&canon[callee])
                    .cloned()
                    .collect();
                // Only a bare-parameter argument makes the substituted
                // callee entry a literal caller-list path: that is the
                // pointwise-transfer case rigidity exists for. Arguments
                // reached through pivots resolve to a *bounding* entry
                // whose exclusion obligation is discharged from the
                // ground rep-inclusion facts instead, and absorbing it
                // stays correct.
                for entry in &final_callee {
                    if let Some(Arg::Obj(Root::Param(i), segs)) = args.get(entry.param) {
                        if segs.is_empty() && !body.reassigned_params.contains(i) {
                            rigid.insert(FrameEntry {
                                param: *i,
                                path: entry.path.clone(),
                            });
                        }
                    }
                }
            }
            let next = canonicalize(graph, &frames.declared, &frames.inferred, &rigid);
            if canon[proc_name] != next {
                canon.insert(proc_name.clone(), next);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    canon
}

/// Collects every `proc` declaration of a program, recursing into modules.
pub fn all_proc_decls(program: &Program) -> Vec<&ProcDecl> {
    fn go<'a>(decls: &'a [Decl], out: &mut Vec<&'a ProcDecl>) {
        for d in decls {
            match d {
                Decl::Proc(p) => out.push(p),
                Decl::Module(m) => go(&m.decls, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    go(&program.decls, &mut out);
    out
}

/// Collects every `field` declaration of a program, recursing into modules.
pub fn all_field_decls(program: &Program) -> Vec<&FieldDecl> {
    fn go<'a>(decls: &'a [Decl], out: &mut Vec<&'a FieldDecl>) {
        for d in decls {
            match d {
                Decl::Field(f) => out.push(f),
                Decl::Module(m) => go(&m.decls, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    go(&program.decls, &mut out);
    out
}

/// Collects the names of every implemented procedure, recursing into
/// modules.
pub fn implemented_procs(program: &Program) -> BTreeSet<String> {
    fn go(decls: &[Decl], out: &mut BTreeSet<String>) {
        for d in decls {
            match d {
                Decl::Impl(i) => {
                    out.insert(i.name.text.clone());
                }
                Decl::Module(m) => go(&m.decls, out),
                _ => {}
            }
        }
    }
    let mut out = BTreeSet::new();
    go(&program.decls, &mut out);
    out
}

//! Congruence-closure E-graph with interpreted constants.
//!
//! The E-graph stores ground terms of the object-store logic hash-consed
//! into numbered nodes, maintains equivalence classes under a union-find,
//! and closes them under congruence. Interpreted constants (integers,
//! booleans, `null`, attribute constants) carry semantic values: merging
//! two classes with different values is a contradiction, which is how the
//! prover refutes, e.g., `#cnt = #vec` or `true = false`. Arithmetic
//! applications and integer comparisons are evaluated eagerly whenever all
//! arguments have known integer values.
//!
//! Atoms are represented as boolean-valued nodes (predicate applications)
//! that are merged with the distinguished `true`/`false` nodes when
//! asserted; equality atoms act directly on the union-find.

use oolong_logic::{Atom, Cst, FnSym, Symbol, Term, TermNode};
use std::collections::HashMap;
use std::fmt;

/// Dense node identifier.
pub type NodeId = u32;

/// Sentinel for "term not yet interned" in the term memo.
const NO_NODE: NodeId = u32::MAX;
/// Term-memo page size (terms are hash-consed globally, so the memo is a
/// sparse paged map from arena id to node id).
const MEMO_PAGE: usize = 1024;
type MemoPage = [NodeId; MEMO_PAGE];

/// Function and predicate symbols of E-graph nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sym {
    /// A free variable / constant leaf.
    Var(Symbol),
    /// An interpreted constant leaf.
    Lit(Cst),
    /// `select(S, X, A)`.
    Select,
    /// `update(S, X, A, V)`.
    Update,
    /// `new(S)`.
    New,
    /// `succ(S)` — `S⁺`.
    Succ,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer negation.
    Neg,
    /// Uninterpreted function (Skolem functions).
    Uninterp(Symbol),
    /// Predicate `alive(S, X)`.
    PAlive,
    /// Predicate `A ⊒ B`.
    PLocalInc,
    /// Predicate `A →F B`.
    PRepInc,
    /// Predicate `S ⊨ X·A ≽ Y·B`.
    PInc,
    /// Predicate `a < b`.
    PLt,
    /// Predicate `a ≤ b`.
    PLe,
    /// Predicate `isObj(t)`.
    PIsObj,
    /// Predicate `isInt(t)`.
    PIsInt,
    /// Predicate `A ⇉F B` (elementwise rep inclusion).
    PRepIncElem,
}

impl Sym {
    /// The E-graph symbol of a logic-level function symbol.
    pub fn from_fn(f: &FnSym) -> Sym {
        match f {
            FnSym::Select => Sym::Select,
            FnSym::Update => Sym::Update,
            FnSym::New => Sym::New,
            FnSym::Succ => Sym::Succ,
            FnSym::Add => Sym::Add,
            FnSym::Sub => Sym::Sub,
            FnSym::Mul => Sym::Mul,
            FnSym::Neg => Sym::Neg,
            FnSym::Uninterp(name) => Sym::Uninterp(*name),
        }
    }
}

/// A hash-consed node: a symbol applied to child classes.
#[derive(Debug, Clone)]
pub struct Node {
    /// The head symbol.
    pub sym: Sym,
    /// Children as originally constructed (not canonicalized).
    pub children: Vec<NodeId>,
}

#[derive(Debug, Clone, Default)]
struct ClassData {
    /// Semantic value, if the class contains an interpreted constant.
    value: Option<Cst>,
    /// Matching generation: 0 for terms of the original problem, `n + 1`
    /// for terms first created while asserting a generation-`n` quantifier
    /// instance. The minimum over merged classes (a cheap way to reach a
    /// term keeps it cheap).
    gen: u32,
    /// Member node ids.
    nodes: Vec<NodeId>,
    /// Nodes that have a member of this class as a child.
    parents: Vec<NodeId>,
    /// Node ids this class is asserted disequal to (canonicalize on use).
    diseqs: Vec<NodeId>,
}

/// A contradiction discovered while asserting facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict(pub String);

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conflict: {}", self.0)
    }
}

impl std::error::Error for Conflict {}

/// One recorded inverse of a primitive E-graph mutation, kept on the undo
/// trail while at least one [`EGraph::push`] checkpoint is active. Popping
/// a checkpoint replays these in LIFO order, which restores the exact
/// pre-checkpoint state: every entry's undo is computed against the state
/// the graph is in once all *later* entries have already been unwound.
#[derive(Debug, Clone)]
enum Undo {
    /// The most recently created node (always `nodes.len() - 1` at undo
    /// time): remove it and every index entry `add` installed for it.
    NewNode,
    /// `small`'s class was absorbed into `big`'s: detach it again.
    Union {
        small: NodeId,
        big: NodeId,
        /// The absorbed class, moved out of the class map intact.
        small_data: ClassData,
        /// `big`'s generation before taking the minimum.
        big_gen: u32,
        /// Whether `big` took its value from `small`.
        value_taken: bool,
        /// Lengths of `big`'s member lists before the merge appended
        /// `small`'s (truncating restores them — appends only).
        big_nodes_len: usize,
        big_parents_len: usize,
        big_diseqs_len: usize,
    },
    /// Congruence repair installed a re-canonicalized signature for `node`.
    SigInsert { node: NodeId },
    /// A disequality was pushed onto roots `a` and `b`.
    Diseq { a: NodeId, b: NodeId },
    /// A term→node memo entry was installed inside a frame. Frame-local
    /// entries must be cleared on pop: the mapped node may itself be
    /// undone, or may only coincide with the term under merges that the
    /// pop unwinds (a signature hit through a frame-local union).
    MemoInsert { term: u32 },
}

/// A checkpoint returned by [`EGraph::push`] and consumed by
/// [`EGraph::pop`]. Checkpoints must be popped in LIFO order.
#[derive(Debug, Clone, Copy)]
pub struct EgMark {
    trail_len: usize,
    merges: u64,
    current_gen: u32,
}

/// The E-graph.
#[derive(Debug, Clone)]
pub struct EGraph {
    nodes: Vec<Node>,
    parent: Vec<NodeId>,
    /// Class data of each root, indexed by node id (dense: node ids are
    /// allocation-ordered); `None` for nodes absorbed into another class.
    classes: Vec<Option<ClassData>>,
    /// Canonical signature (sym, canonical children) → node.
    ///
    /// This map, `by_sym` and the touch stamps are keyed by [`Sym`], whose
    /// literals and names come from the checked program, so they keep the
    /// standard keyed hasher rather than the prover's unkeyed one.
    sig_table: HashMap<(Sym, Vec<NodeId>), NodeId>,
    /// Hash-consed term arena id → node, paged and sparse. Turns repeat
    /// interning of a term (the prover re-asserts shared hypotheses and
    /// instantiations constantly) into one array load instead of a
    /// recursive walk with a hash per node.
    term_memo: Vec<Option<Box<MemoPage>>>,
    /// All nodes by symbol, for pattern matching.
    by_sym: HashMap<Sym, Vec<NodeId>>,
    /// Distinguished boolean leaves.
    true_id: NodeId,
    false_id: NodeId,
    /// Count of merges currently in effect. Restored by [`EGraph::pop`].
    merges: u64,
    /// Generation assigned to newly created classes (see `ClassData::gen`).
    current_gen: u32,
    /// Undo entries recorded since the oldest active checkpoint.
    trail: Vec<Undo>,
    /// Number of active checkpoints; mutations record onto the trail only
    /// when this is non-zero (top-level asserts need no undo).
    frames: usize,
    /// Monotonic count of merges ever performed, across pops.
    merges_performed: u64,
    /// Checkpoints popped (telemetry).
    pops: u64,
    /// Merges unwound by pops (telemetry).
    undone_merges: u64,
    /// High-water mark of trail length (telemetry).
    trail_high_water: usize,
    /// Per-symbol stamp of the last mutation that could change what a
    /// trigger mentioning that symbol matches (see [`EGraph::touch_stamp`]).
    /// Monotonic across pops: undoing a mutation *re*-stamps its symbols,
    /// so staleness checks stay conservative in both directions.
    touch: HashMap<Sym, u64>,
    /// Like `touch`, but stamped only by *structural* mutations — class
    /// unions and node removals/restorations — never by plain node
    /// creation. A trigger whose symbols pass this weaker check kept every
    /// match it had; only matches anchored at nodes appended since can be
    /// new, so a cached match set extends by scanning the bucket suffix.
    touch_struct: HashMap<Sym, u64>,
    /// Clock issuing touch stamps.
    touch_clock: u64,
}

impl Default for EGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl EGraph {
    /// Creates an E-graph containing only `true` and `false`.
    pub fn new() -> Self {
        let mut eg = EGraph {
            nodes: Vec::new(),
            parent: Vec::new(),
            classes: Vec::new(),
            sig_table: HashMap::new(),
            term_memo: Vec::new(),
            by_sym: HashMap::new(),
            true_id: 0,
            false_id: 0,
            merges: 0,
            current_gen: 0,
            trail: Vec::new(),
            frames: 0,
            merges_performed: 0,
            pops: 0,
            undone_merges: 0,
            trail_high_water: 0,
            touch: HashMap::new(),
            touch_struct: HashMap::new(),
            touch_clock: 0,
        };
        eg.true_id = eg
            .add(Sym::Lit(Cst::Bool(true)), vec![])
            .expect("no conflict on init");
        eg.false_id = eg
            .add(Sym::Lit(Cst::Bool(false)), vec![])
            .expect("no conflict on init");
        eg
    }

    /// The node representing `true`.
    pub fn true_id(&self) -> NodeId {
        self.true_id
    }

    /// The node representing `false`.
    pub fn false_id(&self) -> NodeId {
        self.false_id
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of class merges currently in effect. Unlike
    /// [`EGraph::merges_performed`] this is rolled back by [`EGraph::pop`],
    /// so it describes the *state*, not the work done.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Total merges ever performed, including ones later unwound by
    /// [`EGraph::pop`] — the work counter for statistics.
    pub fn merges_performed(&self) -> u64 {
        self.merges_performed
    }

    /// Checkpoints unwound so far (telemetry).
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Merges unwound by [`EGraph::pop`] so far (telemetry).
    pub fn undone_merges(&self) -> u64 {
        self.undone_merges
    }

    /// High-water mark of the undo trail's length (telemetry).
    pub fn trail_high_water(&self) -> usize {
        self.trail_high_water
    }

    /// Rebases the trail high-water mark to the current trail length, so a
    /// long-lived E-graph (a shared scope context) can report the trail
    /// depth of each proof individually instead of the lifetime maximum.
    pub fn reset_trail_high_water(&mut self) {
        self.trail_high_water = self.trail.len();
    }

    // ------------------------------------------------------------ touch stamps

    /// The current value of the matching-relevance clock. A full trigger
    /// match performed now stays valid while
    /// [`EGraph::syms_unchanged_since`] holds for the trigger's symbols.
    pub fn touch_stamp(&self) -> u64 {
        self.touch_clock
    }

    /// Whether no mutation since `stamp` could have changed what a trigger
    /// mentioning exactly `syms` matches. Sound over-approximation: node
    /// creation/removal stamps the node's symbol, and a class union stamps
    /// the symbols of the absorbed class's members and parents (any pair
    /// of terms made newly equal has one side in the absorbed class, so
    /// every equality a match could newly exploit — bound-hole agreement,
    /// ground-argument identity, member descent — stamps a symbol the
    /// trigger mentions).
    pub fn syms_unchanged_since(&self, syms: &[Sym], stamp: u64) -> bool {
        syms.iter()
            .all(|s| self.touch.get(s).is_none_or(|&t| t <= stamp))
    }

    /// Whether no *union or node removal* since `stamp` touched `syms`.
    /// Weaker than [`EGraph::syms_unchanged_since`]: node creation is
    /// allowed, so matches present at `stamp` are still present (with the
    /// same canonical dedup keys) and any new match involves an appended
    /// node.
    pub fn syms_struct_unchanged_since(&self, syms: &[Sym], stamp: u64) -> bool {
        syms.iter()
            .all(|s| self.touch_struct.get(s).is_none_or(|&t| t <= stamp))
    }

    fn bump_add_sym(&mut self, sym: Sym) {
        self.touch.insert(sym, self.touch_clock);
    }

    fn bump_sym(&mut self, sym: Sym) {
        self.touch.insert(sym, self.touch_clock);
        self.touch_struct.insert(sym, self.touch_clock);
    }

    /// Stamps every symbol whose match sets a union of `absorbed` into
    /// another class can affect: the absorbed members' own symbols and the
    /// head symbols of their parent nodes.
    fn bump_class_syms(&mut self, absorbed: &ClassData) {
        for i in 0..absorbed.nodes.len() {
            self.bump_sym(self.nodes[absorbed.nodes[i] as usize].sym);
        }
        for i in 0..absorbed.parents.len() {
            self.bump_sym(self.nodes[absorbed.parents[i] as usize].sym);
        }
    }

    // ------------------------------------------------------------ backtracking

    /// Opens a checkpoint: mutations from here on are recorded on the undo
    /// trail, and [`EGraph::pop`] with the returned mark restores the
    /// current state exactly, in time proportional to the work done since.
    /// Checkpoints nest and must be popped in LIFO order.
    pub fn push(&mut self) -> EgMark {
        self.frames += 1;
        EgMark {
            trail_len: self.trail.len(),
            merges: self.merges,
            current_gen: self.current_gen,
        }
    }

    /// Unwinds all mutations made since the matching [`EGraph::push`].
    pub fn pop(&mut self, mark: EgMark) {
        debug_assert!(self.frames > 0, "pop without a matching push");
        debug_assert!(mark.trail_len <= self.trail.len(), "pops out of order");
        self.pops += 1;
        while self.trail.len() > mark.trail_len {
            let entry = self.trail.pop().expect("length checked");
            self.undo(entry);
        }
        self.frames -= 1;
        self.merges = mark.merges;
        self.current_gen = mark.current_gen;
    }

    fn record(&mut self, entry: Undo) {
        if self.frames > 0 {
            self.trail.push(entry);
            self.trail_high_water = self.trail_high_water.max(self.trail.len());
        }
    }

    fn undo(&mut self, entry: Undo) {
        match entry {
            Undo::NewNode => {
                let id = (self.nodes.len() - 1) as NodeId;
                let node = self.nodes.pop().expect("node to undo");
                self.touch_clock += 1;
                self.bump_sym(node.sym);
                self.parent.pop();
                self.classes.pop();
                // Merges recorded after this node's creation are already
                // unwound, so the children canonicalize to the same
                // representatives as when `add` built the signature.
                let canon: Vec<NodeId> = node.children.iter().map(|&c| self.find(c)).collect();
                let removed = self.sig_table.remove(&(node.sym, canon));
                debug_assert_eq!(removed, Some(id));
                if let Some(ids) = self.by_sym.get_mut(&node.sym) {
                    ids.pop();
                    if ids.is_empty() {
                        self.by_sym.remove(&node.sym);
                    }
                }
                // `add` pushed one parent entry per child occurrence
                // (duplicates included).
                for &c in &node.children {
                    let root = self.find(c);
                    self.class_mut(root).parents.pop();
                }
            }
            Undo::Union {
                small,
                big,
                small_data,
                big_gen,
                value_taken,
                big_nodes_len,
                big_parents_len,
                big_diseqs_len,
            } => {
                let big_data = self.class_mut(big);
                let gen_restored = big_data.gen != big_gen;
                big_data.nodes.truncate(big_nodes_len);
                big_data.parents.truncate(big_parents_len);
                big_data.diseqs.truncate(big_diseqs_len);
                big_data.gen = big_gen;
                if value_taken {
                    big_data.value = None;
                }
                self.parent[small as usize] = small;
                self.touch_clock += 1;
                self.bump_class_syms(&small_data);
                if gen_restored {
                    let n = self.class(big).parents.len();
                    for i in 0..n {
                        let sym = self.nodes[self.class(big).parents[i] as usize].sym;
                        self.bump_sym(sym);
                    }
                }
                self.classes[small as usize] = Some(small_data);
                self.undone_merges += 1;
            }
            Undo::SigInsert { node } => {
                // The union this repair belongs to is still applied (its
                // Union entry is older on the trail), so recomputing the
                // canonical signature reproduces the inserted key.
                let n = &self.nodes[node as usize];
                let key = (
                    n.sym,
                    n.children.iter().map(|&c| self.find(c)).collect::<Vec<_>>(),
                );
                let removed = self.sig_table.remove(&key);
                debug_assert_eq!(removed, Some(node));
            }
            Undo::Diseq { a, b } => {
                self.class_mut(a).diseqs.pop();
                self.class_mut(b).diseqs.pop();
            }
            Undo::MemoInsert { term } => {
                self.term_memo[term as usize / MEMO_PAGE]
                    .as_mut()
                    .expect("memo page exists")[term as usize % MEMO_PAGE] = NO_NODE;
            }
        }
    }

    fn memo_get(&self, term: Term) -> Option<NodeId> {
        let idx = term.id() as usize;
        match self.term_memo.get(idx / MEMO_PAGE)? {
            Some(page) => match page[idx % MEMO_PAGE] {
                NO_NODE => None,
                id => Some(id),
            },
            None => None,
        }
    }

    fn memo_insert(&mut self, term: Term, id: NodeId) {
        let idx = term.id() as usize;
        let page_idx = idx / MEMO_PAGE;
        if self.term_memo.len() <= page_idx {
            self.term_memo.resize(page_idx + 1, None);
        }
        let page = self.term_memo[page_idx].get_or_insert_with(|| Box::new([NO_NODE; MEMO_PAGE]));
        page[idx % MEMO_PAGE] = id;
        self.record(Undo::MemoInsert { term: term.id() });
    }

    /// The data of the class rooted at `root`.
    fn class(&self, root: NodeId) -> &ClassData {
        self.classes[root as usize]
            .as_ref()
            .expect("class root has data")
    }

    fn class_mut(&mut self, root: NodeId) -> &mut ClassData {
        self.classes[root as usize]
            .as_mut()
            .expect("class root has data")
    }

    /// Sets the generation stamped onto classes created from now on.
    pub fn set_generation(&mut self, gen: u32) {
        self.current_gen = gen;
    }

    /// The matching generation of a class (see `set_generation`).
    pub fn class_gen(&self, id: NodeId) -> u32 {
        self.class(self.find(id)).gen
    }

    /// The node record for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Canonical representative of `id`'s class.
    pub fn find(&self, id: NodeId) -> NodeId {
        // Without path compression (keeps &self); the trees stay shallow
        // because merge always attaches the smaller class.
        let mut x = id;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Whether two nodes are known equal.
    pub fn same_class(&self, a: NodeId, b: NodeId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Whether two nodes are known disequal (by disequality assertion or
    /// distinct interpreted values).
    pub fn known_disequal(&self, a: NodeId, b: NodeId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        if let (Some(va), Some(vb)) = (self.class_value(ra), self.class_value(rb)) {
            if va != vb {
                return true;
            }
        }
        self.class(ra).diseqs.iter().any(|&d| self.find(d) == rb)
    }

    /// The interpreted value of a class, if any.
    pub fn class_value(&self, id: NodeId) -> Option<&Cst> {
        self.class(self.find(id)).value.as_ref()
    }

    /// Member nodes of `id`'s class.
    pub fn class_nodes(&self, id: NodeId) -> &[NodeId] {
        &self.class(self.find(id)).nodes
    }

    /// The node of a leaf term — a free constant or an interpreted
    /// literal — if the graph has one.
    ///
    /// A leaf's signature is its symbol alone, so the graph holds at most
    /// one node per leaf term. Any term interned through
    /// [`EGraph::intern`] is found by one load from the term memo. The
    /// leaves created directly by `add` — `true` and `false` in
    /// [`EGraph::new`], and literals that arithmetic evaluation produces —
    /// carry no memo entry until interned, so a memo miss falls back to
    /// the symbol bucket.
    pub fn leaf_node(&self, term: Term) -> Option<NodeId> {
        if let Some(id) = self.memo_get(term) {
            return Some(id);
        }
        let sym = match term.node() {
            TermNode::Var(v) => Sym::Var(*v),
            TermNode::Const(c) => Sym::Lit(*c),
            TermNode::App(..) => return None,
        };
        self.nodes_with_sym(&sym).first().copied()
    }

    /// All nodes with the given head symbol (across all classes).
    pub fn nodes_with_sym(&self, sym: &Sym) -> &[NodeId] {
        self.by_sym.get(sym).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All symbols present in the graph (used by the matcher for
    /// wildcard-ish passes and by statistics).
    pub fn symbols(&self) -> impl Iterator<Item = &Sym> {
        self.by_sym.keys()
    }

    // ------------------------------------------------------------ interning

    /// Interns a ground term, returning its node.
    ///
    /// # Errors
    ///
    /// Returns [`Conflict`] if eager evaluation of the new node contradicts
    /// existing facts (possible via congruence with evaluated arithmetic).
    pub fn intern(&mut self, term: &Term) -> Result<NodeId, Conflict> {
        if let Some(hit) = self.memo_get(*term) {
            return Ok(hit);
        }
        let id = match term.node() {
            TermNode::Var(v) => self.add(Sym::Var(*v), vec![])?,
            TermNode::Const(c) => self.add(Sym::Lit(*c), vec![])?,
            TermNode::App(f, args) => {
                let mut children = Vec::with_capacity(args.len());
                for a in args {
                    children.push(self.intern(a)?);
                }
                self.add(Sym::from_fn(f), children)?
            }
        };
        self.memo_insert(*term, id);
        Ok(id)
    }

    /// Interns an atom as a boolean-valued node.
    ///
    /// Equality atoms have no node representation; this returns `None` for
    /// them (callers handle equality through [`EGraph::merge`] /
    /// [`EGraph::assert_diseq`]).
    ///
    /// # Errors
    ///
    /// Returns [`Conflict`] if interning triggers an evaluation conflict.
    pub fn intern_atom(&mut self, atom: &Atom) -> Result<Option<NodeId>, Conflict> {
        let id = match atom {
            Atom::Eq(..) => return Ok(None),
            Atom::Alive(s, x) => {
                let s = self.intern(s)?;
                let x = self.intern(x)?;
                self.add(Sym::PAlive, vec![s, x])?
            }
            Atom::LocalInc(a, b) => {
                let a = self.intern(a)?;
                let b = self.intern(b)?;
                self.add(Sym::PLocalInc, vec![a, b])?
            }
            Atom::RepInc {
                group,
                pivot,
                mapped,
            } => {
                let g = self.intern(group)?;
                let f = self.intern(pivot)?;
                let m = self.intern(mapped)?;
                self.add(Sym::PRepInc, vec![g, f, m])?
            }
            Atom::Inc {
                store,
                obj,
                attr,
                obj2,
                attr2,
            } => {
                let s = self.intern(store)?;
                let x = self.intern(obj)?;
                let a = self.intern(attr)?;
                let y = self.intern(obj2)?;
                let b = self.intern(attr2)?;
                self.add(Sym::PInc, vec![s, x, a, y, b])?
            }
            Atom::Lt(a, b) => {
                let a = self.intern(a)?;
                let b = self.intern(b)?;
                self.add(Sym::PLt, vec![a, b])?
            }
            Atom::Le(a, b) => {
                let a = self.intern(a)?;
                let b = self.intern(b)?;
                self.add(Sym::PLe, vec![a, b])?
            }
            Atom::IsObj(t) => {
                let t = self.intern(t)?;
                self.add(Sym::PIsObj, vec![t])?
            }
            Atom::IsInt(t) => {
                let t = self.intern(t)?;
                self.add(Sym::PIsInt, vec![t])?
            }
            Atom::RepIncElem {
                group,
                pivot,
                mapped,
            } => {
                let g = self.intern(group)?;
                let f = self.intern(pivot)?;
                let m = self.intern(mapped)?;
                self.add(Sym::PRepIncElem, vec![g, f, m])?
            }
            Atom::BoolTerm(t) => self.intern(t)?,
        };
        Ok(Some(id))
    }

    fn add(&mut self, sym: Sym, children: Vec<NodeId>) -> Result<NodeId, Conflict> {
        let canon: Vec<NodeId> = children.iter().map(|&c| self.find(c)).collect();
        let key = (sym, canon);
        if let Some(&existing) = self.sig_table.get(&key) {
            return Ok(existing);
        }
        let id = self.nodes.len() as NodeId;
        for &c in &children {
            let root = self.find(c);
            self.class_mut(root).parents.push(id);
        }
        self.nodes.push(Node { sym, children });
        self.parent.push(id);
        let mut data = ClassData {
            gen: self.current_gen,
            ..ClassData::default()
        };
        // Interpreted constants are always generation 0: reaching `3` via a
        // deep instantiation does not make `3` expensive.
        if let Sym::Lit(c) = &sym {
            data.value = Some(*c);
            data.gen = 0;
        }
        data.nodes.push(id);
        debug_assert_eq!(self.classes.len(), id as usize);
        self.classes.push(Some(data));
        self.sig_table.insert(key, id);
        self.by_sym.entry(sym).or_default().push(id);
        self.touch_clock += 1;
        self.bump_add_sym(sym);
        self.record(Undo::NewNode);
        self.try_eval(id)?;
        Ok(id)
    }

    // -------------------------------------------------------------- merging

    /// Asserts `a = b`, closing under congruence.
    ///
    /// # Errors
    ///
    /// Returns [`Conflict`] on contradiction (distinct interpreted values,
    /// violated disequality, or `true = false`).
    pub fn merge(&mut self, a: NodeId, b: NodeId) -> Result<(), Conflict> {
        let mut queue = vec![(a, b)];
        while let Some((a, b)) = queue.pop() {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                continue;
            }
            // Conflict checks.
            let va = self.class(ra).value;
            let vb = self.class(rb).value;
            if let (Some(x), Some(y)) = (&va, &vb) {
                if x != y {
                    return Err(Conflict(format!(
                        "cannot identify distinct constants {x} and {y}"
                    )));
                }
            }
            if self.class(ra).diseqs.iter().any(|&d| self.find(d) == rb)
                || self.class(rb).diseqs.iter().any(|&d| self.find(d) == ra)
            {
                return Err(Conflict(
                    "merge violates an asserted disequality".to_string(),
                ));
            }

            // Union: attach the smaller class under the larger.
            let (big, small) = if self.class(ra).nodes.len() >= self.class(rb).nodes.len() {
                (ra, rb)
            } else {
                (rb, ra)
            };
            self.merges += 1;
            self.merges_performed += 1;
            self.parent[small as usize] = big;
            let small_data = self.classes[small as usize]
                .take()
                .expect("small class exists");
            self.touch_clock += 1;
            self.bump_class_syms(&small_data);
            // A generation drop on the surviving class re-prices bindings
            // bound to it, which only its parents' triggers can observe.
            if small_data.gen < self.class(big).gen {
                let n = self.class(big).parents.len();
                for i in 0..n {
                    let sym = self.nodes[self.class(big).parents[i] as usize].sym;
                    self.bump_sym(sym);
                }
            }
            let big_parents_len;
            let small_parent_count = small_data.parents.len();
            {
                let big_data = self.class_mut(big);
                let big_gen = big_data.gen;
                let big_nodes_len = big_data.nodes.len();
                let big_diseqs_len = big_data.diseqs.len();
                big_parents_len = big_data.parents.len();
                let value_taken = big_data.value.is_none() && small_data.value.is_some();
                if big_data.value.is_none() {
                    big_data.value = small_data.value;
                }
                big_data.gen = big_data.gen.min(small_data.gen);
                big_data.nodes.extend_from_slice(&small_data.nodes);
                big_data.diseqs.extend_from_slice(&small_data.diseqs);
                big_data.parents.extend_from_slice(&small_data.parents);
                let entry = Undo::Union {
                    small,
                    big,
                    small_data,
                    big_gen,
                    value_taken,
                    big_nodes_len,
                    big_parents_len,
                    big_diseqs_len,
                };
                self.record(entry);
            }

            // Congruence repair: re-canonicalize signatures of parents of
            // the merged class. They sit at the tail of `big`'s parent
            // list (indices stay valid: the list only grows from here).
            for k in 0..small_parent_count {
                let p = self.class(big).parents[big_parents_len + k];
                let node = &self.nodes[p as usize];
                let key = (
                    node.sym,
                    node.children
                        .iter()
                        .map(|&c| self.find(c))
                        .collect::<Vec<_>>(),
                );
                match self.sig_table.get(&key) {
                    Some(&other) if self.find(other) != self.find(p) => {
                        queue.push((other, p));
                    }
                    Some(_) => {}
                    None => {
                        self.sig_table.insert(key, p);
                        self.record(Undo::SigInsert { node: p });
                    }
                }
                self.try_eval_queued(p, &mut queue)?;
            }
            // New value may enable evaluating parents of the big class too.
            // (Evaluation only ever adds leaves, so the list is stable.)
            for i in 0..self.class(big).parents.len() {
                let p = self.class(big).parents[i];
                self.try_eval_queued(p, &mut queue)?;
            }
        }
        Ok(())
    }

    /// Asserts `a ≠ b`.
    ///
    /// # Errors
    ///
    /// Returns [`Conflict`] if `a` and `b` are already known equal.
    pub fn assert_diseq(&mut self, a: NodeId, b: NodeId) -> Result<(), Conflict> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Err(Conflict("disequality between equal terms".to_string()));
        }
        self.class_mut(ra).diseqs.push(rb);
        self.class_mut(rb).diseqs.push(ra);
        self.record(Undo::Diseq { a: ra, b: rb });
        Ok(())
    }

    /// Evaluates arithmetic and comparisons when all children have integer
    /// values; merges the node with the resulting constant.
    fn try_eval(&mut self, id: NodeId) -> Result<(), Conflict> {
        let mut queue = Vec::new();
        self.try_eval_queued(id, &mut queue)?;
        for (a, b) in queue {
            self.merge(a, b)?;
        }
        Ok(())
    }

    fn try_eval_queued(
        &mut self,
        id: NodeId,
        queue: &mut Vec<(NodeId, NodeId)>,
    ) -> Result<(), Conflict> {
        let node = &self.nodes[id as usize];
        let sym = node.sym;
        let first = node.children.first().copied();
        let second = node.children.get(1).copied();
        let int_of = |eg: &EGraph, c: Option<NodeId>| -> Option<i64> {
            match eg.class_value(c?) {
                Some(Cst::Int(n)) => Some(*n),
                _ => None,
            }
        };
        let binary =
            |eg: &EGraph| -> Option<(i64, i64)> { Some((int_of(eg, first)?, int_of(eg, second)?)) };
        let result: Option<Cst> = match sym {
            Sym::Add => binary(self)
                .and_then(|(a, b)| a.checked_add(b))
                .map(Cst::Int),
            Sym::Sub => binary(self)
                .and_then(|(a, b)| a.checked_sub(b))
                .map(Cst::Int),
            Sym::Mul => binary(self)
                .and_then(|(a, b)| a.checked_mul(b))
                .map(Cst::Int),
            Sym::Neg => int_of(self, first).and_then(i64::checked_neg).map(Cst::Int),
            Sym::PLt => binary(self).map(|(a, b)| Cst::Bool(a < b)),
            Sym::PLe => binary(self).map(|(a, b)| Cst::Bool(a <= b)),
            // Interpreted constants are never object references.
            Sym::PIsObj => first
                .and_then(|c| self.class_value(c))
                .map(|_| Cst::Bool(false)),
            // Integers satisfy isInt; other interpreted constants do not.
            Sym::PIsInt => first
                .and_then(|c| self.class_value(c))
                .map(|c| Cst::Bool(matches!(c, Cst::Int(_)))),
            _ => return Ok(()),
        };
        if let Some(value) = result {
            let lit = self.add(Sym::Lit(value), vec![])?;
            if !self.same_class(id, lit) {
                queue.push((id, lit));
            }
        }
        Ok(())
    }

    // -------------------------------------------------------------- queries

    /// A canonical rendering of the complete logical state (nodes,
    /// union-find, class data, signature table, symbol index, merge count,
    /// generation). Two E-graphs with equal `debug_state` are
    /// indistinguishable to every query; push/pop round-trip tests compare
    /// these. Telemetry counters (pops, performed merges, high-water
    /// marks) are deliberately excluded — they describe work, not state.
    pub fn debug_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "merges={} gen={}", self.merges, self.current_gen);
        for (id, node) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "node {id}: {:?}{:?} -> {}",
                node.sym,
                node.children,
                self.find(id as NodeId)
            );
        }
        let classes = self.classes.iter().enumerate();
        for (id, data) in classes.filter_map(|(id, c)| Some((id, c.as_ref()?))) {
            let _ = writeln!(
                out,
                "class {id}: value={:?} gen={} nodes={:?} parents={:?} diseqs={:?}",
                data.value, data.gen, data.nodes, data.parents, data.diseqs
            );
        }
        let mut sigs: Vec<String> = self
            .sig_table
            .iter()
            .map(|((sym, children), id)| format!("sig {sym:?}{children:?} -> {id}"))
            .collect();
        sigs.sort();
        for s in sigs {
            let _ = writeln!(out, "{s}");
        }
        let mut syms: Vec<String> = self
            .by_sym
            .iter()
            .map(|(sym, ids)| format!("sym {sym:?}: {ids:?}"))
            .collect();
        syms.sort();
        for s in syms {
            let _ = writeln!(out, "{s}");
        }
        out
    }

    /// Truth value of an interned boolean node, if determined.
    pub fn bool_value(&self, id: NodeId) -> Option<bool> {
        match self.class_value(id) {
            Some(Cst::Bool(b)) => Some(*b),
            _ => {
                if self.same_class(id, self.true_id) {
                    Some(true)
                } else if self.same_class(id, self.false_id)
                    || self.known_disequal(id, self.true_id)
                {
                    // Boolean-valued predicates are two-valued, so ≠ true
                    // determines false (and ≠ false below determines true).
                    Some(false)
                } else if self.known_disequal(id, self.false_id) {
                    Some(true)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_logic::Term as T;

    #[test]
    fn congruence_closure_basic() {
        // a = b implies f(a) = f(b).
        let mut eg = EGraph::new();
        let fa = eg.intern(&T::uninterp("f", vec![T::var("a")])).unwrap();
        let fb = eg.intern(&T::uninterp("f", vec![T::var("b")])).unwrap();
        assert!(!eg.same_class(fa, fb));
        let a = eg.intern(&T::var("a")).unwrap();
        let b = eg.intern(&T::var("b")).unwrap();
        eg.merge(a, b).unwrap();
        assert!(eg.same_class(fa, fb));
    }

    #[test]
    fn congruence_is_transitive_and_nested() {
        // a = b, b = c implies g(f(a)) = g(f(c)).
        let mut eg = EGraph::new();
        let gfa = eg
            .intern(&T::uninterp("g", vec![T::uninterp("f", vec![T::var("a")])]))
            .unwrap();
        let gfc = eg
            .intern(&T::uninterp("g", vec![T::uninterp("f", vec![T::var("c")])]))
            .unwrap();
        let a = eg.intern(&T::var("a")).unwrap();
        let b = eg.intern(&T::var("b")).unwrap();
        let c = eg.intern(&T::var("c")).unwrap();
        eg.merge(a, b).unwrap();
        eg.merge(b, c).unwrap();
        assert!(eg.same_class(gfa, gfc));
    }

    #[test]
    fn distinct_constants_conflict() {
        let mut eg = EGraph::new();
        let one = eg.intern(&T::int(1)).unwrap();
        let two = eg.intern(&T::int(2)).unwrap();
        assert!(eg.known_disequal(one, two));
        assert!(eg.merge(one, two).is_err());
    }

    #[test]
    fn attr_constants_are_distinct() {
        let mut eg = EGraph::new();
        let cnt = eg.intern(&T::attr("cnt")).unwrap();
        let vec = eg.intern(&T::attr("vec")).unwrap();
        let null = eg.intern(&T::null()).unwrap();
        assert!(eg.known_disequal(cnt, vec));
        assert!(eg.known_disequal(cnt, null));
        assert!(eg.merge(cnt, vec).is_err());
    }

    #[test]
    fn diseq_then_merge_conflicts() {
        let mut eg = EGraph::new();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        eg.assert_diseq(x, y).unwrap();
        assert!(eg.known_disequal(x, y));
        assert!(eg.merge(x, y).is_err());
    }

    #[test]
    fn diseq_propagates_through_congruence() {
        // x = y, f(x) ≠ f(y) is contradictory.
        let mut eg = EGraph::new();
        let fx = eg.intern(&T::uninterp("f", vec![T::var("x")])).unwrap();
        let fy = eg.intern(&T::uninterp("f", vec![T::var("y")])).unwrap();
        eg.assert_diseq(fx, fy).unwrap();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        assert!(eg.merge(x, y).is_err());
    }

    #[test]
    fn arithmetic_evaluates() {
        let mut eg = EGraph::new();
        let sum = eg.intern(&T::add(T::int(2), T::int(3))).unwrap();
        let five = eg.intern(&T::int(5)).unwrap();
        assert!(eg.same_class(sum, five));
    }

    #[test]
    fn arithmetic_evaluates_after_merge() {
        // x = 2 makes x + 3 equal 5.
        let mut eg = EGraph::new();
        let sum = eg.intern(&T::add(T::var("x"), T::int(3))).unwrap();
        let five = eg.intern(&T::int(5)).unwrap();
        assert!(!eg.same_class(sum, five));
        let x = eg.intern(&T::var("x")).unwrap();
        let two = eg.intern(&T::int(2)).unwrap();
        eg.merge(x, two).unwrap();
        assert!(eg.same_class(sum, five));
    }

    #[test]
    fn comparison_predicates_evaluate() {
        let mut eg = EGraph::new();
        let lt = eg
            .intern_atom(&Atom::Lt(T::int(1), T::int(2)))
            .unwrap()
            .unwrap();
        assert_eq!(eg.bool_value(lt), Some(true));
        let le = eg
            .intern_atom(&Atom::Le(T::int(3), T::int(2)))
            .unwrap()
            .unwrap();
        assert_eq!(eg.bool_value(le), Some(false));
    }

    #[test]
    fn predicate_nodes_share_by_congruence() {
        // alive(s, x) = alive(s, y) once x = y.
        let mut eg = EGraph::new();
        let p1 = eg
            .intern_atom(&Atom::Alive(T::var("s"), T::var("x")))
            .unwrap()
            .unwrap();
        let p2 = eg
            .intern_atom(&Atom::Alive(T::var("s"), T::var("y")))
            .unwrap()
            .unwrap();
        let t = eg.true_id();
        eg.merge(p1, t).unwrap();
        assert_eq!(eg.bool_value(p2), None);
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        eg.merge(x, y).unwrap();
        assert_eq!(eg.bool_value(p2), Some(true));
    }

    #[test]
    fn hash_consing_deduplicates() {
        let mut eg = EGraph::new();
        let t1 = eg
            .intern(&T::select(T::store(), T::var("t"), T::attr("f")))
            .unwrap();
        let t2 = eg
            .intern(&T::select(T::store(), T::var("t"), T::attr("f")))
            .unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn true_false_disequal() {
        let eg = EGraph::new();
        assert!(eg.known_disequal(eg.true_id(), eg.false_id()));
    }

    #[test]
    fn nodes_with_sym_indexes_all() {
        let mut eg = EGraph::new();
        eg.intern(&T::select(T::store(), T::var("a"), T::attr("f")))
            .unwrap();
        eg.intern(&T::select(T::store(), T::var("b"), T::attr("f")))
            .unwrap();
        assert_eq!(eg.nodes_with_sym(&Sym::Select).len(), 2);
    }

    /// The bucket scan [`EGraph::leaf_node`] replaces in the matcher: is
    /// the node of `term`'s leaf symbol in the class of `class`?
    fn bucket_in_class(eg: &EGraph, term: Term, class: NodeId) -> bool {
        let sym = match term.node() {
            TermNode::Var(v) => Sym::Var(*v),
            TermNode::Const(c) => Sym::Lit(*c),
            TermNode::App(..) => unreachable!("not a leaf"),
        };
        eg.nodes_with_sym(&sym)
            .iter()
            .any(|&leaf| eg.find(leaf) == eg.find(class))
    }

    fn memo_in_class(eg: &EGraph, term: Term, class: NodeId) -> bool {
        eg.leaf_node(term)
            .is_some_and(|leaf| eg.find(leaf) == eg.find(class))
    }

    fn lookups_agree(eg: &EGraph, term: Term, class: NodeId, expected: bool) {
        assert_eq!(
            bucket_in_class(eg, term, class),
            expected,
            "bucket: {term:?}"
        );
        assert_eq!(memo_in_class(eg, term, class), expected, "memo: {term:?}");
    }

    #[test]
    fn memo_leaf_lookup_agrees_with_the_bucket_scan() {
        let mut eg = EGraph::new();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        // An absent constant.
        assert_eq!(eg.leaf_node(T::var("absent")), None);
        lookups_agree(&eg, T::var("absent"), x, false);
        // Present, in another class.
        lookups_agree(&eg, T::var("y"), x, false);
        // Present, in this class.
        eg.merge(x, y).unwrap();
        lookups_agree(&eg, T::var("y"), x, true);
        // `true` and `false`, which `EGraph::new` makes with `add` and so
        // without memo entries.
        let (t, f) = (T::lit(Cst::Bool(true)), T::lit(Cst::Bool(false)));
        assert_eq!(eg.leaf_node(t), Some(eg.true_id()));
        assert_eq!(eg.leaf_node(f), Some(eg.false_id()));
        lookups_agree(&eg, t, eg.true_id(), true);
        lookups_agree(&eg, f, eg.true_id(), false);
        // A literal that arithmetic evaluation made with `add`.
        let sum = eg.intern(&T::add(T::var("u"), T::int(3))).unwrap();
        let u = eg.intern(&T::var("u")).unwrap();
        let two = eg.intern(&T::int(2)).unwrap();
        eg.merge(u, two).unwrap();
        lookups_agree(&eg, T::int(5), sum, true);
        // A leaf created inside a frame and undone by its pop.
        let mark = eg.push();
        let w = eg.intern(&T::var("w")).unwrap();
        lookups_agree(&eg, T::var("w"), w, true);
        eg.pop(mark);
        assert_eq!(eg.leaf_node(T::var("w")), None);
        lookups_agree(&eg, T::var("w"), x, false);
        let w = eg.intern(&T::var("w")).unwrap();
        lookups_agree(&eg, T::var("w"), w, true);
        lookups_agree(&eg, T::var("w"), x, false);
    }

    #[test]
    fn clone_preserves_state_for_backtracking() {
        let mut eg = EGraph::new();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        let snapshot = eg.clone();
        eg.merge(x, y).unwrap();
        assert!(eg.same_class(x, y));
        assert!(!snapshot.same_class(x, y));
    }

    #[test]
    fn push_pop_undoes_a_merge() {
        let mut eg = EGraph::new();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        let before = eg.debug_state();
        let mark = eg.push();
        eg.merge(x, y).unwrap();
        assert!(eg.same_class(x, y));
        eg.pop(mark);
        assert!(!eg.same_class(x, y));
        assert_eq!(eg.debug_state(), before);
        assert_eq!(eg.pops(), 1);
        assert_eq!(eg.undone_merges(), 1);
    }

    #[test]
    fn push_pop_undoes_node_creation_and_congruence() {
        // Merging a = b repairs f(a)/f(b) signatures and interning new
        // terms inside the frame must disappear on pop.
        let mut eg = EGraph::new();
        let fa = eg.intern(&T::uninterp("f", vec![T::var("a")])).unwrap();
        let fb = eg.intern(&T::uninterp("f", vec![T::var("b")])).unwrap();
        let before = eg.debug_state();
        let nodes_before = eg.node_count();
        let mark = eg.push();
        let a = eg.intern(&T::var("a")).unwrap();
        let b = eg.intern(&T::var("b")).unwrap();
        eg.merge(a, b).unwrap();
        assert!(eg.same_class(fa, fb));
        eg.intern(&T::uninterp("g", vec![T::uninterp("f", vec![T::var("a")])]))
            .unwrap();
        eg.pop(mark);
        assert_eq!(eg.node_count(), nodes_before);
        assert!(!eg.same_class(fa, fb));
        assert_eq!(eg.debug_state(), before);
        // The graph is fully usable after the pop: re-assert and re-check.
        let a = eg.intern(&T::var("a")).unwrap();
        let b = eg.intern(&T::var("b")).unwrap();
        eg.merge(a, b).unwrap();
        assert!(eg.same_class(fa, fb));
    }

    #[test]
    fn push_pop_undoes_diseqs_and_arithmetic() {
        let mut eg = EGraph::new();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        let sum = eg.intern(&T::add(T::var("x"), T::int(3))).unwrap();
        let before = eg.debug_state();
        let mark = eg.push();
        eg.assert_diseq(x, y).unwrap();
        let two = eg.intern(&T::int(2)).unwrap();
        eg.merge(x, two).unwrap();
        let five = eg.intern(&T::int(5)).unwrap();
        assert!(eg.same_class(sum, five));
        eg.pop(mark);
        assert!(!eg.known_disequal(x, y));
        assert_eq!(eg.debug_state(), before);
    }

    #[test]
    fn nested_push_pop_unwinds_in_lifo_order() {
        let mut eg = EGraph::new();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        let z = eg.intern(&T::var("z")).unwrap();
        let outer_state = eg.debug_state();
        let outer = eg.push();
        eg.merge(x, y).unwrap();
        let inner_state = eg.debug_state();
        let inner = eg.push();
        eg.merge(y, z).unwrap();
        assert!(eg.same_class(x, z));
        eg.pop(inner);
        assert_eq!(eg.debug_state(), inner_state);
        assert!(eg.same_class(x, y));
        assert!(!eg.same_class(x, z));
        eg.pop(outer);
        assert_eq!(eg.debug_state(), outer_state);
        assert!(!eg.same_class(x, y));
    }

    #[test]
    fn pop_restores_merge_count_but_not_performed() {
        let mut eg = EGraph::new();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        let count = eg.merge_count();
        let mark = eg.push();
        eg.merge(x, y).unwrap();
        let performed = eg.merges_performed();
        eg.pop(mark);
        assert_eq!(eg.merge_count(), count);
        assert_eq!(eg.merges_performed(), performed);
        assert!(performed > count);
    }

    #[test]
    fn pop_after_conflict_restores_state() {
        // A merge that fails mid-way (after some queued unions applied)
        // leaves partial state; popping the frame must clear all of it.
        let mut eg = EGraph::new();
        let fx = eg.intern(&T::uninterp("f", vec![T::var("x")])).unwrap();
        let fy = eg.intern(&T::uninterp("f", vec![T::var("y")])).unwrap();
        let one = eg.intern(&T::int(1)).unwrap();
        let two = eg.intern(&T::int(2)).unwrap();
        eg.merge(fx, one).unwrap();
        eg.merge(fy, two).unwrap();
        let before = eg.debug_state();
        let mark = eg.push();
        let x = eg.intern(&T::var("x")).unwrap();
        let y = eg.intern(&T::var("y")).unwrap();
        // x = y forces f(x) = f(y), i.e. 1 = 2: conflict.
        assert!(eg.merge(x, y).is_err());
        eg.pop(mark);
        assert_eq!(eg.debug_state(), before);
    }
}

//! Per-quantifier telemetry, kept as counters and rendered where it is
//! read.
//!
//! A proof reports one row per structurally distinct quantifier its
//! search registered ([`Stats::per_quant`](crate::Stats::per_quant)).
//! Most rows belong to the scope context's background, and a proof's
//! frame leaves most of them as the base left them. A [`QuantTable`] is
//! therefore an overlay:
//!
//! * the context's base rows — descriptions (kind, trigger text,
//!   variables), counters and binding chains — behind one `Arc` that the
//!   context and every proof from it share;
//! * the proof's own rows: the base rows its frame touched (full
//!   counters, not increments) and the rows of quantifiers it registered
//!   itself.
//!
//! Binding chains are held as interned [`Term`] handles. Trigger text is
//! rendered once, when a quantifier is registered; chain text is rendered
//! only when a row is printed ([`QuantRow::chain`]): JSON, CLI text,
//! divergence reports. A table decoded from a cache entry holds the
//! entry's rendered rows ([`QuantTable::from_rendered`]) and compares
//! equal to the table it was rendered from.

use crate::triggers::{classify_quant, QuantKind};
use oolong_logic::transform::Nnf;
use oolong_logic::{Symbol, Term, Trigger};
use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

/// How many recent instantiation bindings each quantifier retains.
const CHAIN_LEN: usize = 3;

/// The fixed description of a telemetry row.
#[derive(Debug)]
pub(crate) struct QuantDesc {
    kind: QuantKind,
    /// Rendered trigger set (empty when the quantifier was inert).
    trigger: String,
    /// The bound variables, which name a chain's bindings. Empty for a
    /// row decoded from its rendered form.
    vars: Box<[Symbol]>,
}

impl QuantDesc {
    /// The description of `∀vars {triggers} :: body`.
    pub(crate) fn new(vars: &[Symbol], triggers: &[Trigger], body: &Nnf) -> QuantDesc {
        QuantDesc {
            kind: classify_quant(triggers, body),
            trigger: triggers
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" "),
            vars: vars.into(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.trigger.capacity() + self.vars.len() * size_of::<Symbol>()
    }
}

/// The most recent instantiation bindings of a row, oldest first.
#[derive(Debug, Clone)]
enum Chain {
    /// Bound terms, one slice per instance, named by the row's variables.
    Terms([Option<Arc<[Term]>>; CHAIN_LEN]),
    /// Already rendered `v := t` lists (a row decoded from a cache entry).
    Text(Box<[String]>),
}

/// The chain of a quantifier that was never instantiated.
static NO_CHAIN: Chain = Chain::Terms([None, None, None]);

impl Chain {
    /// Heap bytes of this chain that `base`, the chain it was copied
    /// from, does not already hold.
    fn heap_bytes_over(&self, base: &Chain) -> usize {
        match self {
            // An `Arc<[T]>` allocation holds two counts and the slice.
            Chain::Terms(recent) => recent
                .iter()
                .flatten()
                .filter(|terms| {
                    !matches!(base, Chain::Terms(held)
                        if held.iter().flatten().any(|h| Arc::ptr_eq(h, terms)))
                })
                .map(|terms| 2 * size_of::<usize>() + terms.len() * size_of::<Term>())
                .sum(),
            Chain::Text(lines) => {
                lines.len() * size_of::<String>()
                    + lines.iter().map(String::capacity).sum::<usize>()
            }
        }
    }

    /// Records an instantiation's terms, dropping the oldest once
    /// [`CHAIN_LEN`] are held.
    fn push(&mut self, terms: Arc<[Term]>) {
        let Chain::Terms(recent) = self else {
            unreachable!("only rows of a running search record bindings");
        };
        match recent.iter().position(Option::is_none) {
            Some(free) => recent[free] = Some(terms),
            None => {
                recent.rotate_left(1);
                recent[CHAIN_LEN - 1] = Some(terms);
            }
        }
    }
}

/// The counters of one telemetry row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) matches: u64,
    pub(crate) instances: u64,
    pub(crate) presat_instances: u64,
    pub(crate) goal_instances: u64,
    pub(crate) deferred: u64,
}

/// The counters of a quantifier that did no work.
static ZERO: Counters = Counters {
    matches: 0,
    instances: 0,
    presat_instances: 0,
    goal_instances: 0,
    deferred: 0,
};

/// A context's base rows: a description, counters and a chain per id.
#[derive(Debug, Default)]
struct QuantBase {
    descs: Box<[QuantDesc]>,
    counts: Box<[Counters]>,
    chains: Box<[Chain]>,
}

/// Rows that differ from the base (or, past the base, from a row that
/// did no work), sorted by id.
type Sparse<T> = Box<[(u32, T)]>;

/// The entry of `id` in `rows`, if it has one.
fn lookup<T>(rows: &[(u32, T)], id: usize) -> Option<&T> {
    rows.binary_search_by_key(&id, |(own, _)| *own as usize)
        .ok()
        .map(|at| &rows[at].1)
}

/// A proof's own rows over its context's base. Counters and chains are
/// kept apart: most rows a proof touches only gain matches, and their
/// chains stay the base's.
#[derive(Debug, Default)]
struct OwnRows {
    /// Descriptions of the ids past the base, in id order.
    descs: Box<[QuantDesc]>,
    counts: Sparse<Counters>,
    chains: Sparse<Chain>,
}

/// Per-quantifier telemetry of one proof: one row per stable quantifier
/// id, as an overlay of the proof's own rows (those its frame changed, and
/// those of quantifiers it registered) on its context's base rows, which
/// the context and every proof from it share. Chains are held as term
/// handles and rendered by [`QuantRow::chain`].
///
/// Cloning copies two pointers. Equality compares row content —
/// descriptions, counters and rendered chains — never pointer identity,
/// so tables from independently built contexts, and a table decoded from
/// a cache entry, compare equal to the table of a fresh proof.
#[derive(Clone, Default)]
pub struct QuantTable {
    base: Arc<QuantBase>,
    own: Arc<OwnRows>,
}

impl QuantTable {
    /// Number of rows (stable ids `0..len`).
    pub fn len(&self) -> usize {
        self.base.descs.len() + self.own.descs.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row of stable id `id`, if the search registered it.
    pub fn get(&self, id: usize) -> Option<QuantRow<'_>> {
        (id < self.len()).then(|| {
            let counts = lookup(&self.own.counts, id).unwrap_or_else(|| self.base_counts(id));
            let chain = lookup(&self.own.chains, id).unwrap_or_else(|| self.base_chain(id));
            self.row(id, counts, chain)
        })
    }

    /// Every row, ordered by stable id.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = QuantRow<'_>> + '_ {
        let mut counts = self.own.counts.iter().peekable();
        let mut chains = self.own.chains.iter().peekable();
        (0..self.len()).map(move |id| {
            let count = counts.next_if(|(own, _)| *own as usize == id);
            let chain = chains.next_if(|(own, _)| *own as usize == id);
            self.row(
                id,
                count.map_or_else(|| self.base_counts(id), |(_, c)| c),
                chain.map_or_else(|| self.base_chain(id), |(_, c)| c),
            )
        })
    }

    /// Heap bytes this table holds for itself: its own rows and what they
    /// point to (nothing, when it has none). The base rows, and the chain
    /// terms a proof's rows still share with them, are not counted: the
    /// context and every proof from it share them ([`Self::shared_base`]).
    pub fn heap_bytes(&self) -> usize {
        let own = &self.own;
        if own.descs.is_empty() && own.counts.is_empty() && own.chains.is_empty() {
            return 0;
        }
        2 * size_of::<usize>()
            + size_of::<OwnRows>()
            + own.descs.len() * size_of::<QuantDesc>()
            + own.descs.iter().map(QuantDesc::heap_bytes).sum::<usize>()
            + own.counts.len() * size_of::<(u32, Counters)>()
            + own.chains.len() * size_of::<(u32, Chain)>()
            + own
                .chains
                .iter()
                .map(|(id, chain)| chain.heap_bytes_over(self.base_chain(*id as usize)))
                .sum::<usize>()
    }

    /// The context's base rows this table shares: an identity (the base's
    /// address, which no other base takes while this table holds it) and
    /// the heap bytes the base holds, its chain terms included. `None`
    /// when the base has no rows, as in a table decoded from a cache
    /// entry. A holder of many tables counts each distinct base once.
    pub fn shared_base(&self) -> Option<(usize, usize)> {
        let base = &*self.base;
        if base.descs.is_empty() {
            return None;
        }
        let bytes = 2 * size_of::<usize>()
            + size_of::<QuantBase>()
            + base.descs.len() * size_of::<QuantDesc>()
            + base.descs.iter().map(QuantDesc::heap_bytes).sum::<usize>()
            + base.counts.len() * size_of::<Counters>()
            + base.chains.len() * size_of::<Chain>()
            + base
                .chains
                .iter()
                .map(|chain| chain.heap_bytes_over(&NO_CHAIN))
                .sum::<usize>();
        Some((Arc::as_ptr(&self.base) as usize, bytes))
    }

    /// A table of rendered rows, as a cache entry stores them. `None`
    /// unless the rows are numbered `0..n` in order.
    pub fn from_rendered(rows: impl IntoIterator<Item = QuantProfile>) -> Option<QuantTable> {
        let (mut descs, mut counts, mut chains) = (Vec::new(), Vec::new(), Vec::new());
        for (index, row) in rows.into_iter().enumerate() {
            if row.id != index {
                return None;
            }
            let id = u32::try_from(index).ok()?;
            descs.push(QuantDesc {
                kind: row.kind,
                trigger: row.trigger,
                vars: Box::default(),
            });
            let count = Counters {
                matches: row.matches,
                instances: row.instances,
                presat_instances: row.presat_instances,
                goal_instances: row.goal_instances,
                deferred: row.deferred,
            };
            if count != ZERO {
                counts.push((id, count));
            }
            if !row.chain.is_empty() {
                chains.push((id, Chain::Text(row.chain.into())));
            }
        }
        Some(QuantTable {
            base: Arc::default(),
            own: Arc::new(OwnRows {
                descs: descs.into(),
                counts: counts.into(),
                chains: chains.into(),
            }),
        })
    }

    fn base_counts(&self, id: usize) -> &Counters {
        self.base.counts.get(id).unwrap_or(&ZERO)
    }

    fn base_chain(&self, id: usize) -> &Chain {
        self.base.chains.get(id).unwrap_or(&NO_CHAIN)
    }

    fn desc(&self, id: usize) -> &QuantDesc {
        let base = &self.base.descs;
        base.get(id)
            .unwrap_or_else(|| &self.own.descs[id - base.len()])
    }

    fn row<'a>(&'a self, id: usize, counts: &Counters, chain: &'a Chain) -> QuantRow<'a> {
        let desc = self.desc(id);
        QuantRow {
            id,
            kind: desc.kind,
            trigger: &desc.trigger,
            matches: counts.matches,
            instances: counts.instances,
            presat_instances: counts.presat_instances,
            goal_instances: counts.goal_instances,
            deferred: counts.deferred,
            vars: &desc.vars,
            chain,
        }
    }
}

impl PartialEq for QuantTable {
    fn eq(&self, other: &QuantTable) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for QuantTable {}

impl fmt::Debug for QuantTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One row of a [`QuantTable`], borrowed: the counters by value, the
/// description and binding chain by reference.
#[derive(Clone, Copy)]
pub struct QuantRow<'a> {
    /// Stable structural id of the quantifier.
    pub id: usize,
    /// Vocabulary classification (rep inclusion / inclusion / store / other).
    pub kind: QuantKind,
    /// Rendered trigger set (empty when the quantifier was inert).
    pub trigger: &'a str,
    /// Trigger-match bindings found (before dedup and generation checks).
    pub matches: u64,
    /// Instantiations actually asserted.
    pub instances: u64,
    /// Instantiations asserted during background pre-saturation (context
    /// construction, before any obligation's goal exists). Zero for
    /// [`prove`](crate::prove), whose context has an empty background.
    pub presat_instances: u64,
    /// Instantiations asserted inside an obligation's frame, after the
    /// goal terms were asserted. `presat_instances + goal_instances ==
    /// instances` always.
    pub goal_instances: u64,
    /// Instantiations deferred by the matching-generation limit.
    pub deferred: u64,
    vars: &'a [Symbol],
    chain: &'a Chain,
}

impl QuantRow<'_> {
    /// Total matching pressure: performed plus deferred instantiations —
    /// the sort key for divergence attribution.
    pub fn pressure(&self) -> u64 {
        self.instances + self.deferred
    }

    /// The most recent instantiation bindings (at most three), oldest
    /// first, each rendered as a `v := t` list: a representative term
    /// chain for loop diagnosis.
    pub fn chain(&self) -> Vec<String> {
        match self.chain {
            Chain::Terms(recent) => recent
                .iter()
                .map_while(Option::as_deref)
                .map(|terms| {
                    self.vars
                        .iter()
                        .zip(terms)
                        .map(|(v, t)| format!("{v} := {t}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .collect(),
            Chain::Text(lines) => lines.to_vec(),
        }
    }

    /// The row rendered into an owned [`QuantProfile`].
    pub fn to_profile(&self) -> QuantProfile {
        QuantProfile {
            id: self.id,
            kind: self.kind,
            trigger: self.trigger.to_string(),
            matches: self.matches,
            instances: self.instances,
            presat_instances: self.presat_instances,
            goal_instances: self.goal_instances,
            deferred: self.deferred,
            chain: self.chain(),
        }
    }

    fn counters(&self) -> [u64; 5] {
        [
            self.matches,
            self.instances,
            self.presat_instances,
            self.goal_instances,
            self.deferred,
        ]
    }
}

impl PartialEq for QuantRow<'_> {
    fn eq(&self, other: &QuantRow<'_>) -> bool {
        self.id == other.id
            && self.kind == other.kind
            && self.trigger == other.trigger
            && self.counters() == other.counters()
            && self.chain() == other.chain()
    }
}

impl Eq for QuantRow<'_> {}

impl fmt::Debug for QuantRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_profile().fmt(f)
    }
}

impl fmt::Display for QuantRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "q{} [{}] {}: {} instances ({} presat + {} goal), {} matches",
            self.id,
            self.kind,
            if self.trigger.is_empty() {
                "(no trigger)"
            } else {
                self.trigger
            },
            self.instances,
            self.presat_instances,
            self.goal_instances,
            self.matches,
        )?;
        if self.deferred > 0 {
            write!(f, ", {} deferred", self.deferred)?;
        }
        Ok(())
    }
}

/// One telemetry row rendered: the form a cache entry stores, and what
/// [`QuantTable::from_rendered`] reads back. Proofs keep rows as
/// [`QuantRow`]s of a [`QuantTable`] and render them only at the output
/// edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantProfile {
    /// Stable structural id of the quantifier.
    pub id: usize,
    /// Vocabulary classification.
    pub kind: QuantKind,
    /// Rendered trigger set (empty when the quantifier was inert).
    pub trigger: String,
    /// Trigger-match bindings found.
    pub matches: u64,
    /// Instantiations actually asserted.
    pub instances: u64,
    /// Instantiations asserted during background pre-saturation.
    pub presat_instances: u64,
    /// Instantiations asserted inside an obligation's frame.
    pub goal_instances: u64,
    /// Instantiations deferred by the matching-generation limit.
    pub deferred: u64,
    /// The rendered binding chain, oldest first.
    pub chain: Vec<String>,
}

/// The telemetry a search accumulates: the proof's own rows over its
/// context's base, each base row's counters or chain copied into the
/// proof's rows the first time the search changes them.
pub(crate) struct QuantAcc {
    base: Arc<QuantBase>,
    descs: Vec<QuantDesc>,
    counts: CowRows<Counters>,
    chains: CowRows<Chain>,
}

/// Copy-on-write rows of one kind over a base.
struct CowRows<T> {
    /// Per id, the index of its entry in `rows`, or [`UNTOUCHED`].
    slots: Vec<u32>,
    rows: Vec<(u32, T)>,
}

/// A [`CowRows`] slot whose row still reads from the base.
const UNTOUCHED: u32 = u32::MAX;

impl<T> CowRows<T> {
    fn new(len: usize) -> CowRows<T> {
        CowRows {
            slots: vec![UNTOUCHED; len],
            rows: Vec::new(),
        }
    }

    /// The row of `id`, initialized by `base` on first touch.
    fn get_mut(&mut self, id: usize, base: impl FnOnce() -> T) -> &mut T {
        let mut slot = self.slots[id];
        if slot == UNTOUCHED {
            let fits = "quantifier ids fit in u32";
            slot = u32::try_from(self.rows.len()).expect(fits);
            self.slots[id] = slot;
            self.rows.push((u32::try_from(id).expect(fits), base()));
        }
        &mut self.rows[slot as usize].1
    }

    fn finish(mut self) -> Sparse<T> {
        self.rows.sort_unstable_by_key(|(id, _)| *id);
        self.rows.into()
    }

    /// Every row, dense, with `fill` where none was touched.
    fn dense(self, fill: &T) -> Box<[T]>
    where
        T: Clone,
    {
        let mut dense = vec![fill.clone(); self.slots.len()];
        for (id, row) in self.rows {
            dense[id as usize] = row;
        }
        dense.into()
    }
}

impl QuantAcc {
    /// An accumulator over no base (a context's own construction).
    pub(crate) fn new() -> QuantAcc {
        QuantAcc::over(&QuantTable::default())
    }

    /// An accumulator over the base rows of `base`, a context's table
    /// (see [`QuantAcc::into_base`]).
    pub(crate) fn over(base: &QuantTable) -> QuantAcc {
        debug_assert!(base.own.descs.is_empty() && base.own.counts.is_empty());
        QuantAcc {
            base: Arc::clone(&base.base),
            descs: Vec::new(),
            counts: CowRows::new(base.len()),
            chains: CowRows::new(base.len()),
        }
    }

    /// Number of ids registered so far.
    pub(crate) fn len(&self) -> usize {
        self.counts.slots.len()
    }

    /// Adds the row of the next id.
    pub(crate) fn push(&mut self, desc: QuantDesc) {
        self.descs.push(desc);
        self.counts.slots.push(UNTOUCHED);
        self.chains.slots.push(UNTOUCHED);
    }

    /// The counters of row `id`.
    pub(crate) fn counters_mut(&mut self, id: usize) -> &mut Counters {
        let base = &self.base;
        self.counts
            .get_mut(id, || base.counts.get(id).copied().unwrap_or_default())
    }

    /// Records an instantiation of quantifier `id` with `terms` in its
    /// chain.
    pub(crate) fn push_recent(&mut self, id: usize, terms: Arc<[Term]>) {
        let base = &self.base;
        self.chains
            .get_mut(id, || base.chains.get(id).unwrap_or(&NO_CHAIN).clone())
            .push(terms);
    }

    /// The proof's table: its own rows over the base.
    pub(crate) fn finish(self) -> QuantTable {
        QuantTable {
            base: self.base,
            own: Arc::new(OwnRows {
                descs: self.descs.into(),
                counts: self.counts.finish(),
                chains: self.chains.finish(),
            }),
        }
    }

    /// A context's table: every row accumulated while it was built, as
    /// base rows for its proofs to share.
    pub(crate) fn into_base(self) -> QuantTable {
        debug_assert!(self.base.descs.is_empty());
        QuantTable {
            base: Arc::new(QuantBase {
                descs: self.descs.into(),
                counts: self.counts.dense(&ZERO),
                chains: self.chains.dense(&NO_CHAIN),
            }),
            own: Arc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, ScopeContext};
    use oolong_logic::{Formula as F, Pattern, Term as T};

    /// `∀X {p(X)} :: q(X) = 1`, with `p` and `q` unary.
    fn implication(p: &str, q: &str) -> F {
        let app = |f: &str| T::uninterp(f, vec![T::var("X")]);
        let trig = Trigger(vec![Pattern::Term(app(p))]);
        F::forall(vec!["X".into()], vec![trig], F::eq(app(q), T::int(1)))
    }

    /// `p(name) = 1`.
    fn fact(p: &str, name: &str) -> F {
        F::eq(T::uninterp(p, vec![T::var(name)]), T::int(1))
    }

    fn background() -> Vec<F> {
        vec![
            implication("p", "q"),
            implication("r", "s"),
            fact("p", "a"),
            fact("r", "b"),
        ]
    }

    #[test]
    fn tables_from_separately_built_contexts_compare_by_content() {
        let hyps = [fact("p", "c")];
        let goal = fact("q", "c");
        let mut one = ScopeContext::new(&background(), &[], &Budget::default());
        let mut two = ScopeContext::new(&background(), &[], &Budget::default());
        let a = one.prove(&hyps, &goal).stats.per_quant;
        let b = two.prove(&hyps, &goal).stats.per_quant;
        assert!(!Arc::ptr_eq(&a.base, &b.base));
        assert_eq!(a, b);
        // The rendered rows read back compare equal to both.
        let rendered: Vec<QuantProfile> = a.iter().map(|q| q.to_profile()).collect();
        let decoded = QuantTable::from_rendered(rendered.clone()).expect("ids in order");
        assert_eq!(decoded, b);
        assert_eq!(b, decoded);
        assert_eq!(format!("{decoded:?}"), format!("{a:?}"));
        // One counter, one chain or one trigger apart is unequal.
        let edits: [fn(&mut QuantProfile); 3] = [
            |q| q.matches += 1,
            |q| q.chain.push("X := z".to_string()),
            |q| q.trigger.push(' '),
        ];
        for edit in edits {
            let mut rows = rendered.clone();
            edit(&mut rows[0]);
            assert_ne!(QuantTable::from_rendered(rows), Some(a.clone()));
        }
        // Rows numbered out of order are no table.
        let mut rows = rendered;
        rows.swap(0, 1);
        assert_eq!(QuantTable::from_rendered(rows), None);
    }

    #[test]
    fn a_proof_keeps_only_the_rows_its_frame_changed() {
        let mut ctx = ScopeContext::new(&background(), &[], &Budget::default());
        let proof = ctx.prove(&[fact("p", "c")], &fact("q", "c"));
        let other = ctx.prove(&[], &fact("q", "a"));
        assert!(proof.is_proved() && other.is_proved());
        let table = &proof.stats.per_quant;
        assert!(Arc::ptr_eq(&table.base, &other.stats.per_quant.base));
        let base = QuantTable {
            base: Arc::clone(&table.base),
            own: Arc::default(),
        };
        assert_eq!((base.len(), base.heap_bytes()), (2, 0));
        // Only `p → q` was instantiated in the frame, so only its chain
        // is the proof's own; its last binding is the goal's constant.
        assert_eq!(table.own.chains.len(), 1);
        let row = table.get(0).expect("p → q");
        assert_eq!((row.presat_instances, row.goal_instances), (1, 1));
        let chain = row.chain();
        assert_eq!(chain.len(), 2);
        assert!(
            chain[0].ends_with(" := a") && chain[1].ends_with(" := c"),
            "{chain:?}"
        );
        let (now, then) = (table.get(1).expect("r → s"), base.get(1).expect("r → s"));
        assert_eq!(now.instances, then.instances);
        assert_eq!(now.chain(), then.chain());
        assert!(table.heap_bytes() > 0);
    }
}

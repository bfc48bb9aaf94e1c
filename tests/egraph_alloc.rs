//! Heap allocations of the E-graph's lookups that hit.
//!
//! Once warm, an operation that finds everything already present must not
//! touch the heap: re-interning a term or an atom whose signature exists,
//! a merge of two classes that are already one, and a checkpoint with
//! nothing in it. A counting global allocator keeps a per-thread count,
//! so the tests of this binary can run in parallel without disturbing
//! each other's figures.

use oolong::logic::{Atom, Term};
use oolong::prover::EGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread's locals are dropped.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local cell, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `op` once to warm the graph's buffers, then returns how many
/// allocations a second run makes on this thread.
fn allocations_once_warm(eg: &mut EGraph, mut op: impl FnMut(&mut EGraph)) -> u64 {
    op(eg);
    let before = ALLOCATIONS.with(Cell::get);
    op(eg);
    ALLOCATIONS.with(Cell::get) - before
}

fn f(args: Vec<Term>) -> Term {
    Term::uninterp("f", args)
}

/// Seven arguments: wider than a node keeps inline.
fn wide(first: &str) -> Term {
    let mut args = vec![Term::var(first)];
    args.extend((0..6).map(|i| Term::var(format!("c{i}").as_str())));
    Term::uninterp("wide", args)
}

#[test]
fn reinterning_an_existing_term_does_not_allocate() {
    let mut eg = EGraph::new();
    let select = Term::select(Term::store(), Term::var("x"), Term::attr("val"));
    eg.intern(&select).unwrap();
    assert_eq!(
        allocations_once_warm(&mut eg, |eg| {
            eg.intern(&select).unwrap();
        }),
        0,
        "term memo hit"
    );
    // `f(b)` and `wide(b, ..)` are new terms whose signatures already
    // exist once `a = b`: interning them probes the signature table. The
    // frame's pop clears their memo entries, so every run probes again.
    for (at_a, at_b) in [
        (f(vec![Term::var("a")]), f(vec![Term::var("b")])),
        (wide("a"), wide("b")),
    ] {
        let node = eg.intern(&at_a).unwrap();
        let a = eg.intern(&Term::var("a")).unwrap();
        let b = eg.intern(&Term::var("b")).unwrap();
        eg.merge(a, b).unwrap();
        let allocations = allocations_once_warm(&mut eg, |eg| {
            let mark = eg.push();
            assert_eq!(eg.intern(&at_b).unwrap(), node);
            eg.pop(mark);
        });
        assert_eq!(allocations, 0, "signature hit for {at_b}");
    }
}

#[test]
fn reinterning_an_existing_atom_does_not_allocate() {
    let mut eg = EGraph::new();
    let (s, x, y) = (Term::store(), Term::var("x"), Term::var("y"));
    let atoms = [
        Atom::Alive(s, x),
        Atom::Lt(x, Term::add(y, Term::int(1))),
        Atom::Inc {
            store: s,
            obj: x,
            attr: Term::attr("g"),
            obj2: y,
            attr2: Term::attr("h"),
        },
    ];
    for atom in &atoms {
        let node = eg.intern_atom(atom).unwrap();
        let allocations = allocations_once_warm(&mut eg, |eg| {
            assert_eq!(eg.intern_atom(atom).unwrap(), node);
        });
        assert_eq!(allocations, 0, "{atom:?}");
    }
}

#[test]
fn merging_equal_classes_does_not_allocate() {
    let mut eg = EGraph::new();
    let fx = eg.intern(&f(vec![Term::var("x")])).unwrap();
    let fy = eg.intern(&f(vec![Term::var("y")])).unwrap();
    let x = eg.intern(&Term::var("x")).unwrap();
    let y = eg.intern(&Term::var("y")).unwrap();
    eg.merge(x, y).unwrap();
    assert!(eg.same_class(fx, fy));
    for (a, b) in [(x, y), (fy, fx), (x, x)] {
        let allocations = allocations_once_warm(&mut eg, |eg| eg.merge(a, b).unwrap());
        assert_eq!(allocations, 0, "merge({a}, {b})");
    }
}

#[test]
fn an_empty_checkpoint_does_not_allocate() {
    let mut eg = EGraph::new();
    eg.intern(&f(vec![Term::var("x")])).unwrap();
    let allocations = allocations_once_warm(&mut eg, |eg| {
        let outer = eg.push();
        let inner = eg.push();
        eg.pop(inner);
        eg.pop(outer);
    });
    assert_eq!(allocations, 0);
}

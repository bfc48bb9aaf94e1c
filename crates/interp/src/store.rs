//! Runtime values and the object store (the operational counterpart of the
//! semantic model in Section 4.0).

use oolong_sema::AttrId;
use std::collections::HashMap;
use std::fmt;

/// A runtime object identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A runtime value of the untyped language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// The null reference.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// An object reference.
    Obj(ObjId),
}

impl Value {
    /// The object id, if this is an object reference.
    pub fn as_obj(&self) -> Option<ObjId> {
        match self {
            Value::Obj(o) => Some(*o),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Obj(o) => write!(f, "{o}"),
        }
    }
}

/// A location `X·A`: attribute `A` of object `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc {
    /// The object.
    pub obj: ObjId,
    /// The attribute.
    pub attr: AttrId,
}

/// The object store: a map from locations to values plus the allocation
/// frontier. Every object nominally possesses every attribute; attributes
/// never written read as [`Value::Null`].
#[derive(Debug, Clone, Default)]
pub struct Store {
    fields: HashMap<Loc, Value>,
    /// Array slots (the array-dependencies extension): integer-keyed
    /// locations, disjoint from attribute locations.
    slots: HashMap<(ObjId, i64), Value>,
    next: u32,
}

impl Store {
    /// Creates an empty store with no allocated objects.
    pub fn new() -> Store {
        Store::default()
    }

    /// Allocates a fresh object (the operational `new(S)` / `S⁺`).
    pub fn alloc(&mut self) -> ObjId {
        let id = ObjId(self.next);
        self.next += 1;
        id
    }

    /// Whether `obj` has been allocated.
    pub fn is_alive(&self, obj: ObjId) -> bool {
        obj.0 < self.next
    }

    /// The allocation frontier: objects with id below this are alive.
    pub fn frontier(&self) -> u32 {
        self.next
    }

    /// Reads a location (default [`Value::Null`]).
    pub fn read(&self, loc: Loc) -> Value {
        self.fields.get(&loc).copied().unwrap_or(Value::Null)
    }

    /// Writes a location.
    pub fn write(&mut self, loc: Loc, value: Value) {
        self.fields.insert(loc, value);
    }

    /// Iterates over all explicitly written locations and their values.
    pub fn locations(&self) -> impl Iterator<Item = (Loc, Value)> + '_ {
        self.fields.iter().map(|(&l, &v)| (l, v))
    }

    /// All currently allocated objects.
    pub fn objects(&self) -> impl Iterator<Item = ObjId> {
        (0..self.next).map(ObjId)
    }

    /// Number of allocated objects.
    pub fn object_count(&self) -> usize {
        self.next as usize
    }

    /// Reads an array slot (default [`Value::Null`]).
    pub fn read_slot(&self, obj: ObjId, index: i64) -> Value {
        self.slots
            .get(&(obj, index))
            .copied()
            .unwrap_or(Value::Null)
    }

    /// Writes an array slot.
    pub fn write_slot(&mut self, obj: ObjId, index: i64, value: Value) {
        self.slots.insert((obj, index), value);
    }

    /// Iterates over all explicitly written slots and their values.
    pub fn slots(&self) -> impl Iterator<Item = ((ObjId, i64), Value)> + '_ {
        self.slots.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_monotonic() {
        let mut s = Store::new();
        let a = s.alloc();
        let b = s.alloc();
        assert_ne!(a, b);
        assert!(s.is_alive(a));
        assert!(s.is_alive(b));
        assert!(!s.is_alive(ObjId(99)));
        assert_eq!(s.object_count(), 2);
    }

    #[test]
    fn unwritten_locations_read_null() {
        let mut s = Store::new();
        let o = s.alloc();
        let loc = Loc {
            obj: o,
            attr: oolong_sema::AttrId(0),
        };
        assert_eq!(s.read(loc), Value::Null);
        s.write(loc, Value::Int(7));
        assert_eq!(s.read(loc), Value::Int(7));
    }

    #[test]
    fn frontier_snapshots_aliveness() {
        let mut s = Store::new();
        let _a = s.alloc();
        let snapshot = s.frontier();
        let b = s.alloc();
        assert!(b.0 >= snapshot, "objects at or past the snapshot are fresh");
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Obj(ObjId(3)).to_string(), "o3");
        assert_eq!(Value::Null.to_string(), "null");
    }
}

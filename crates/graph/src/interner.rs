//! Two-way string dictionary.
//!
//! Every entity name, attribute value, edge label and type name is interned
//! once; the rest of the system works with `u32` ids. Lookup by name is
//! O(1) via a hash map over the interned storage.

use std::collections::HashMap;

/// A string interner mapping `&str` ↔ dense `u32` indexes.
///
/// Indexes are assigned in insertion order starting at 0 and never change,
/// which lets callers use them directly as slice offsets.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<Box<str>>,
    index: HashMap<Box<str>, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with capacity for `n` strings.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            strings: Vec::with_capacity(n),
            index: HashMap::with_capacity(n),
        }
    }

    /// Interns `s`, returning its index (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = u32::try_from(self.strings.len()).expect("interner exhausted u32 index space");
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.index.insert(boxed, i);
        i
    }

    /// Index of `s` if it was interned before.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` was never issued by this interner.
    pub fn resolve(&self, index: u32) -> &str {
        &self.strings[index as usize]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Approximate resident heap bytes: string payloads (stored twice —
    /// once in the vector, once as the hash-map key), the `Box<str>` fat
    /// pointers, and a conservative per-entry hash-map cost.
    pub fn approx_bytes(&self) -> usize {
        let payload: usize = self.strings.iter().map(|s| s.len()).sum();
        2 * payload + self.strings.capacity() * 16 + self.index.capacity() * 32
    }

    /// Iterates over `(index, string)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Angela Merkel");
        let b = i.intern("Angela Merkel");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn indexes_are_dense_in_insertion_order() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("c"), 2);
        assert_eq!(i.intern("b"), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let idx = i.intern("Barack Obama");
        assert_eq!(i.resolve(idx), "Barack Obama");
        assert_eq!(i.get("Barack Obama"), Some(idx));
        assert_eq!(i.get("nobody"), None);
    }

    #[test]
    fn empty_string_is_internable() {
        let mut i = Interner::new();
        let idx = i.intern("");
        assert_eq!(i.resolve(idx), "");
    }

    #[test]
    fn iter_yields_all_pairs() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let pairs: Vec<_> = i.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn unicode_names_survive() {
        let mut i = Interner::new();
        let idx = i.intern("François Hollande");
        assert_eq!(i.resolve(idx), "François Hollande");
    }
}

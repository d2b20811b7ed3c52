//! Global string interner.
//!
//! Constants, relation names, and variable names are interned once into a
//! process-wide table and referred to by a compact [`Symbol`] id everywhere
//! else. This keeps [`crate::value::Value`] `Copy` (two words) so tuples are
//! flat arrays of ids, and makes equality/hashing of values integer-cheap,
//! which matters in the chase's inner homomorphism loops.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned string.
///
/// Two `Symbol`s are equal iff the strings they intern are equal. The id is
/// stable for the lifetime of the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Intern `s`, returning its symbol.
    pub fn intern(s: &str) -> Symbol {
        interner().intern(s)
    }

    /// The string this symbol interns.
    pub fn as_str(&self) -> String {
        interner().resolve(*self)
    }

    /// Raw id, for use as a dense index where helpful.
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Symbol::index`]: rebuild a symbol from its raw id.
    ///
    /// The id must have come from `index()` on a symbol interned in this
    /// process — resolving a fabricated id panics. This is what lets the
    /// columnar storage unpack a [`crate::value::ValueId`] back into a
    /// value with pure bit arithmetic.
    pub fn from_index(ix: usize) -> Symbol {
        Symbol(u32::try_from(ix).expect("symbol index out of range"))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

/// Bytes of a key stored inside the map slot itself.
const INLINE_KEY: usize = 22;

/// A string as the interner's map stores it: a short one inline in the
/// slot, so a lookup that finds its slot compares bytes without following
/// a pointer to the heap; a longer one boxed. Hashes and compares as the
/// `str` it holds, so the map is probed with plain `&str`s.
enum Key {
    Inline(u8, [u8; INLINE_KEY]),
    Boxed(Box<str>),
}

impl Key {
    fn new(s: &str) -> Key {
        match u8::try_from(s.len()) {
            Ok(len) if s.len() <= INLINE_KEY => {
                let mut bytes = [0; INLINE_KEY];
                bytes[..s.len()].copy_from_slice(s.as_bytes());
                Key::Inline(len, bytes)
            }
            _ => Key::Boxed(s.into()),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Key::Inline(len, bytes) => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("keys are copied from a str"),
            Key::Boxed(s) => s,
        }
    }
}

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Key {}

struct Interner {
    map: RwLock<HashMap<Key, u32>>,
    strings: RwLock<Vec<String>>,
}

impl Interner {
    fn intern(&self, s: &str) -> Symbol {
        // Lock poisoning cannot leave the table inconsistent (push + insert
        // happen under the same write lock), so a poisoned lock is recovered.
        let read = self
            .map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&id) = read.get(s) {
            return Symbol(id);
        }
        drop(read);
        let mut map = self
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Re-check: another thread may have interned between lock drops.
        if let Some(&id) = map.get(s) {
            return Symbol(id);
        }
        let mut strings = self
            .strings
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let id = u32::try_from(strings.len()).expect("interner overflow");
        strings.push(s.to_owned());
        map.insert(Key::new(s), id);
        Symbol(id)
    }

    fn resolve(&self, sym: Symbol) -> String {
        self.strings
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[sym.0 as usize]
            .clone()
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        map: RwLock::new(HashMap::new()),
        strings: RwLock::new(Vec::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("alpha");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "alpha");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::intern("x1");
        let b = Symbol::intern("x2");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "x1");
        assert_eq!(b.as_str(), "x2");
    }

    #[test]
    fn inline_and_boxed_keys_intern_alike() {
        let texts = [
            String::new(),
            "é".repeat(11),
            "x".repeat(super::INLINE_KEY),
            "x".repeat(super::INLINE_KEY + 1),
            "a, b".to_owned(),
        ];
        let syms: Vec<Symbol> = texts.iter().map(|t| Symbol::intern(t)).collect();
        for (t, s) in texts.iter().zip(&syms) {
            assert_eq!(s.as_str(), *t);
            assert_eq!(Symbol::intern(t), *s);
        }
        let mut distinct = syms.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), syms.len());
    }

    #[test]
    fn display_matches_interned_string() {
        let a = Symbol::intern("E");
        assert_eq!(format!("{a}"), "E");
        assert_eq!(format!("{a:?}"), "E");
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "hello".into();
        let b: Symbol = String::from("hello").into();
        assert_eq!(a, b);
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|j| Symbol::intern(&format!("t{}", (i + j) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for syms in &all {
            for s in syms {
                let name = s.as_str();
                assert_eq!(Symbol::intern(&name), *s);
            }
        }
    }
}

//! Interned identifiers.
//!
//! Every variable, record label, class name, and extent name in the calculus
//! is a [`Symbol`]: a small copyable handle into a global string interner.
//! Interning makes substitution, free-variable analysis, and normalization
//! cheap (symbol comparison is an integer comparison) — important because the
//! normalizer rewrites terms to a fixpoint.
//!
//! The interner also hands out *fresh* symbols (`Symbol::fresh`), which the
//! normalizer uses for capture-avoiding variable renaming (the paper's rules
//! 5 and 6 "may require some variable renaming to avoid name conflicts").

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, hash, and compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// The writer's side: name → id, and the fresh-name counter. Only
/// [`Symbol::new`] and [`Symbol::fresh`] take its lock.
struct Interner {
    table: HashMap<&'static str, u32>,
    fresh_counter: u64,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner { table: HashMap::new(), fresh_counter: 0 }))
}

/// The reader's side: id → name, append-only and read without a lock.
/// Chunk `c` holds `FIRST_CHUNK << c` names, so the ids start at
/// `FIRST_CHUNK * (2^c - 1)` and 28 chunks cover every `u32` id. A chunk
/// is allocated by the first name that lands in it, and each name is set
/// once, under the interner's lock, before its id is handed out.
const FIRST_CHUNK: usize = 32;
static NAMES: [OnceLock<Box<[OnceLock<&'static str>]>>; 28] = [const { OnceLock::new() }; 28];

/// The chunk holding `id`, and its index there.
fn locate(id: u32) -> (usize, usize) {
    let n = id as usize + FIRST_CHUNK;
    let top = usize::BITS - 1 - n.leading_zeros();
    let chunk = (top - FIRST_CHUNK.trailing_zeros()) as usize;
    (chunk, n - (1 << top))
}

impl Symbol {
    /// Intern `name` and return its symbol. Idempotent.
    pub fn new(name: &str) -> Symbol {
        let mut i = interner().lock().expect("no interner write panics midway");
        if let Some(&id) = i.table.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(i.table.len()).expect("interner overflow");
        // Leaking is fine: symbols live for the whole process and the set of
        // distinct names in any workload is small and bounded.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let (chunk, at) = locate(id);
        let slots = NAMES[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        slots[at].set(leaked).expect("each id is named once");
        i.table.insert(leaked, id);
        Symbol(id)
    }

    /// A fresh symbol guaranteed distinct from every symbol produced so far,
    /// based on `hint` for readability (e.g. `x` becomes `x%3`).
    ///
    /// `%` cannot appear in parsed identifiers, so fresh names can never
    /// collide with source-level names.
    pub fn fresh(hint: &str) -> Symbol {
        let n = {
            let mut i = interner().lock().expect("no interner write panics midway");
            i.fresh_counter += 1;
            i.fresh_counter
        };
        let base = hint.split('%').next().unwrap_or(hint);
        Symbol::new(&format!("{base}%{n}"))
    }

    /// The interned string. Lock-free: the name was published before the
    /// symbol existed.
    pub fn as_str(&self) -> &'static str {
        let (chunk, at) = locate(self.0);
        NAMES[chunk]
            .get()
            .and_then(|slots| slots[at].get())
            .expect("a symbol's name is set before its id is handed out")
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
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("hello");
        let b = Symbol::new("hello");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::new("a"), Symbol::new("b"));
    }

    #[test]
    fn fresh_symbols_are_unique() {
        let a = Symbol::fresh("x");
        let b = Symbol::fresh("x");
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("x%"));
    }

    #[test]
    fn fresh_from_fresh_does_not_stack_suffixes() {
        let a = Symbol::fresh("v");
        let b = Symbol::fresh(a.as_str());
        // `v%1` refreshed gives `v%k`, not `v%1%k`.
        assert_eq!(b.as_str().matches('%').count(), 1);
    }

    #[test]
    fn chunks_tile_the_id_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(95), (1, 63));
        assert_eq!(locate(96), (2, 0));
        assert_eq!(locate(u32::MAX - 31), (27, 0));
        assert_eq!(locate(u32::MAX), (27, 31));
    }

    #[test]
    fn names_read_back_while_other_threads_intern() {
        // Every thread interns its own names and a shared set, reading
        // back each id as soon as it has it — and the other threads' ids
        // once all are done — while the chunk table grows underneath.
        let threads = 4;
        let per_thread = 300;
        let start = std::sync::Barrier::new(threads);
        let interned: Vec<Vec<(Symbol, String)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        (0..per_thread)
                            .map(|j| {
                                let name = if j % 3 == 0 {
                                    format!("shared_{j}")
                                } else {
                                    format!("thread_{t}_{j}")
                                };
                                let sym = Symbol::new(&name);
                                assert_eq!(sym.as_str(), name);
                                (sym, name)
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("interning thread")).collect()
        });
        for (sym, name) in interned.iter().flatten() {
            assert_eq!(sym.as_str(), name);
            assert_eq!(Symbol::new(name), *sym);
        }
        // Shared names got one id whichever thread interned them first.
        assert_eq!(interned[0][0].0, interned[threads - 1][0].0);
    }

    #[test]
    fn display_matches_name() {
        let s = Symbol::new("city");
        assert_eq!(format!("{s}"), "city");
        assert_eq!(format!("{s:?}"), "city");
    }
}

//! The packed-key hash table under hash join and hash aggregation.
//!
//! Key columns are normalised to fixed-width `u64` words — integer-backed
//! types as their `i64` image, floats by bit pattern (the engine's float
//! equality is IEEE total order, so `-0.0` and `0.0` are different keys
//! and a NaN equals itself), strings by an id interned in this table — and
//! stored row-major with trailing NULL-mask words, so hashing and equality
//! never look at a `Value` and a key costs no allocation of its own.
//! Lookup runs a batch at a time through a power-of-two bucket array and a
//! chain array, both `u32` entry indices.
//!
//! Entries are the *distinct* keys, numbered densely in order of first
//! appearance: hash aggregation uses the entry index as the group id, the
//! hash join hangs its build rows off it.

use std::sync::Arc;

use cstore_common::{Bitmap, DataType, Error, FxHashMap, Result};
use cstore_storage::encode::Dictionary;

use crate::vector::{null_bitmap, StrVector, Vector};

/// Returned for a row that has no entry: its key holds a NULL and NULLs do
/// not take part, or the lookup did not find it. Also ends a chain.
pub(crate) const NO_KEY: u32 = u32::MAX;

/// A dictionary code whose string has not been looked up yet.
const UNRESOLVED: u32 = u32::MAX - 1;

/// The three physical shapes a key column can take (see [`Vector`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KeyKind {
    I64,
    F64,
    Str,
}

impl KeyKind {
    pub(crate) fn of(ty: DataType) -> KeyKind {
        match ty {
            DataType::Float64 => KeyKind::F64,
            DataType::Utf8 => KeyKind::Str,
            _ => KeyKind::I64,
        }
    }
}

/// Strings numbered densely in order of first appearance. A dictionary
/// code from a compressed segment and an owned string from a delta row get
/// the same id when the strings are equal.
#[derive(Default)]
pub(crate) struct StrInterner {
    ids: FxHashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
    /// Heap bytes attributed to the interned strings.
    bytes: usize,
    /// Code → id for the dictionary seen last: every batch of a row group
    /// carries the same one, so each distinct string is hashed once.
    dict_ids: Option<(Arc<Dictionary>, Vec<u32>)>,
}

impl StrInterner {
    pub(crate) fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }

    fn id_of(&mut self, s: &Arc<str>, insert: bool) -> u32 {
        if let Some(&id) = self.ids.get(s.as_ref()) {
            return id;
        }
        if !insert {
            return NO_KEY;
        }
        // Ids stay below the two sentinels; memory runs out long before.
        assert!(self.strings.len() < UNRESOLVED as usize, "interner full");
        let id = self.strings.len() as u32;
        self.ids.insert(s.clone(), id);
        self.strings.push(s.clone());
        // Map slot + list slot + the string itself.
        self.bytes += s.len() + 56;
        id
    }

    /// Hand `put` the id of every non-NULL row. With `insert` unset an
    /// unseen string is not added and its row gets [`NO_KEY`].
    pub(crate) fn resolve(
        &mut self,
        strings: &StrVector,
        nulls: Option<&Bitmap>,
        insert: bool,
        mut put: impl FnMut(usize, u32),
    ) {
        let is_null = |i: usize| nulls.is_some_and(|n| n.get(i));
        match strings {
            StrVector::Owned(v) => {
                for (i, s) in v.iter().enumerate() {
                    if !is_null(i) {
                        put(i, self.id_of(s, insert));
                    }
                }
            }
            StrVector::Dict { codes, dict } => {
                let mut map = match self.dict_ids.take() {
                    Some((d, map)) if Arc::ptr_eq(&d, dict) => map,
                    _ => vec![UNRESOLVED; dict.len()],
                };
                for (i, &code) in codes.iter().enumerate() {
                    if is_null(i) {
                        continue;
                    }
                    let mut id = map[code as usize];
                    if id == UNRESOLVED || (insert && id == NO_KEY) {
                        id = self.id_of(dict.str_at(code), insert);
                        map[code as usize] = id;
                    }
                    put(i, id);
                }
                self.dict_ids = Some((dict.clone(), map));
            }
        }
    }

    /// Each id's position among the strings in sorted order.
    fn ranks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.strings.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.strings[a as usize].cmp(&self.strings[b as usize]));
        let mut ranks = vec![0u32; order.len()];
        for (rank, &id) in order.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        ranks
    }

    /// The strings as a sorted dictionary, and each id's code in it.
    /// (Vector dictionaries must be sorted: same-dictionary comparisons
    /// compare codes.)
    pub(crate) fn into_dictionary(self) -> (Arc<Dictionary>, Vec<u32>) {
        let code_of = self.ranks();
        let mut sorted = self.strings;
        sorted.sort_unstable();
        (Arc::new(Dictionary::Str(sorted)), code_of)
    }
}

/// How a lookup treats a key it has not seen, and NULLs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Insert unseen keys; a NULL is a key value like any other
    /// (`GROUP BY`: all NULLs form one group).
    Group,
    /// Insert unseen keys; a key holding a NULL gets no entry.
    InsertNonNull,
    /// Insert nothing; a key holding a NULL finds nothing.
    Find,
}

/// The distinct keys seen so far, addressable by hash.
pub(crate) struct KeyTable {
    kinds: Vec<KeyKind>,
    interners: Vec<StrInterner>,
    /// Words per key: one per column, then one NULL-mask bit per column.
    width: usize,
    /// Entry `e` is `words[e * width..][..width]`.
    words: Vec<u64>,
    /// Kept to re-bucket the entries when the table grows.
    hashes: Vec<u64>,
    /// Head entry of each bucket's chain; the length is a power of two.
    buckets: Vec<u32>,
    /// Next entry in the same bucket.
    next: Vec<u32>,
    batch_words: Vec<u64>,
    batch_hashes: Vec<u64>,
}

impl KeyTable {
    pub(crate) fn new(kinds: Vec<KeyKind>) -> KeyTable {
        assert!(!kinds.is_empty(), "a key has at least one column");
        let width = kinds.len() + kinds.len().div_ceil(64);
        KeyTable {
            interners: kinds.iter().map(|_| StrInterner::default()).collect(),
            kinds,
            width,
            words: Vec::new(),
            hashes: Vec::new(),
            buckets: Vec::new(),
            next: Vec::new(),
            batch_words: Vec::new(),
            batch_hashes: Vec::new(),
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Heap bytes held for the keys (scratch space excluded).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.len() * (self.width * 8 + 8 + 4)
            + self.buckets.len() * 4
            + self.interners.iter().map(|i| i.bytes).sum::<usize>()
    }

    /// The entry of every row's key, new keys inserted; NULL is a key.
    pub(crate) fn group_ids(&mut self, keys: &[&Vector], out: &mut Vec<u32>) -> Result<()> {
        self.resolve(keys, Mode::Group, out)
    }

    /// The entry of every row's key, new keys inserted; [`NO_KEY`] for a
    /// key that holds a NULL.
    pub(crate) fn insert_non_null(&mut self, keys: &[&Vector], out: &mut Vec<u32>) -> Result<()> {
        self.resolve(keys, Mode::InsertNonNull, out)
    }

    /// The entry of every row's key; [`NO_KEY`] for a key that holds a
    /// NULL or was never inserted.
    pub(crate) fn find(&mut self, keys: &[&Vector], out: &mut Vec<u32>) -> Result<()> {
        self.resolve(keys, Mode::Find, out)
    }

    fn resolve(&mut self, keys: &[&Vector], mode: Mode, out: &mut Vec<u32>) -> Result<()> {
        if keys.len() != self.kinds.len() {
            return Err(Error::Execution("key column count mismatch".into()));
        }
        let n = keys.first().map_or(0, |v| v.len());
        self.normalise(keys, n, mode != Mode::Find)?;
        self.batch_hashes.clear();
        self.batch_hashes.resize(n, 0);
        for v in keys {
            v.hash_into(&mut self.batch_hashes);
        }
        if mode != Mode::Find {
            self.reserve(n)?;
        }
        out.clear();
        if self.buckets.is_empty() {
            // Find in a table nothing was ever inserted into.
            out.resize(n, NO_KEY);
            return Ok(());
        }
        out.reserve(n);
        let (w, n_cols) = (self.width, self.kinds.len());
        let bucket_mask = self.buckets.len() - 1;
        for (key, &h) in self.batch_words.chunks_exact(w).zip(&self.batch_hashes) {
            if mode != Mode::Group && key[n_cols..].iter().any(|&m| m != 0) {
                out.push(NO_KEY);
                continue;
            }
            let b = h as usize & bucket_mask;
            let mut e = self.buckets[b];
            while e != NO_KEY {
                let at = e as usize;
                if self.words[at * w..(at + 1) * w].iter().eq(key) {
                    break;
                }
                e = self.next[at];
            }
            if e == NO_KEY && mode != Mode::Find {
                e = self.hashes.len() as u32;
                self.words.extend_from_slice(key);
                self.hashes.push(h);
                self.next.push(self.buckets[b]);
                self.buckets[b] = e;
            }
            out.push(e);
        }
        Ok(())
    }

    /// Fill `batch_words` with the normalised keys of `n` rows.
    fn normalise(&mut self, keys: &[&Vector], n: usize, insert: bool) -> Result<()> {
        let (w, n_cols) = (self.width, self.kinds.len());
        let words = &mut self.batch_words;
        words.clear();
        words.resize(n * w, 0);
        for (c, v) in keys.iter().enumerate() {
            if v.len() != n {
                return Err(Error::Execution("ragged key columns".into()));
            }
            match (self.kinds[c], v) {
                (KeyKind::I64, Vector::I64 { values, .. }) => {
                    for (i, &x) in values.iter().enumerate() {
                        words[i * w + c] = x as u64;
                    }
                }
                (KeyKind::F64, Vector::F64 { values, .. }) => {
                    for (i, &x) in values.iter().enumerate() {
                        words[i * w + c] = x.to_bits();
                    }
                }
                (KeyKind::Str, Vector::Str { strings, nulls }) => {
                    let mask = (n_cols + c / 64, 1u64 << (c % 64));
                    self.interners[c].resolve(strings, nulls.as_ref(), insert, |i, id| {
                        if id == NO_KEY {
                            // Never interned, so equal to no entry: fold
                            // it into the NULL mask, which finds nothing.
                            words[i * w + mask.0] |= mask.1;
                        } else {
                            words[i * w + c] = id as u64;
                        }
                    });
                }
                (kind, _) => {
                    return Err(Error::Type(format!(
                        "key column {c} is not the {kind:?} vector its type promises"
                    )))
                }
            }
            if let Some(nulls) = v.nulls() {
                for i in nulls.iter_ones() {
                    words[i * w + c] = 0;
                    words[i * w + n_cols + c / 64] |= 1u64 << (c % 64);
                }
            }
        }
        Ok(())
    }

    /// Make room for `extra` more entries without growing mid-batch.
    fn reserve(&mut self, extra: usize) -> Result<()> {
        let need = self.len() + extra;
        if need >= UNRESOLVED as usize {
            return Err(Error::ResourceExhausted(
                "hash table key count exceeds u32".into(),
            ));
        }
        if need <= self.buckets.len() {
            return Ok(());
        }
        let n_buckets = need.next_power_of_two().max(1024);
        self.buckets.clear();
        self.buckets.resize(n_buckets, NO_KEY);
        for (e, &h) in self.hashes.iter().enumerate() {
            let b = h as usize & (n_buckets - 1);
            self.next[e] = self.buckets[b];
            self.buckets[b] = e as u32;
        }
        Ok(())
    }

    fn is_null(&self, entry: u32, col: usize) -> bool {
        let mask = self.words[entry as usize * self.width + self.kinds.len() + col / 64];
        mask >> (col % 64) & 1 == 1
    }

    fn word(&self, entry: u32, col: usize) -> u64 {
        self.words[entry as usize * self.width + col]
    }

    /// Every entry, ascending by key in SQL order: column by column, NULL
    /// first, floats by total order, strings by bytes.
    pub(crate) fn sorted_entries(&self) -> Vec<u32> {
        // Re-encode each key so that comparing it word by word as unsigned
        // integers gives that order: per column a 0/1 "is not NULL" word,
        // then the value with its order made unsigned.
        const SIGN: u64 = 1 << 63;
        let n_cols = self.kinds.len();
        let ranks: Vec<Vec<u32>> = self.interners.iter().map(StrInterner::ranks).collect();
        let sort_width = 2 * n_cols;
        let mut sort_keys = vec![0u64; self.len() * sort_width];
        for (key, out) in self
            .words
            .chunks_exact(self.width)
            .zip(sort_keys.chunks_exact_mut(sort_width))
        {
            for (c, kind) in self.kinds.iter().enumerate() {
                if key[n_cols + c / 64] >> (c % 64) & 1 == 1 {
                    continue;
                }
                out[2 * c] = 1;
                out[2 * c + 1] = match kind {
                    KeyKind::I64 => key[c] ^ SIGN,
                    // The total order on floats: negative values reverse.
                    KeyKind::F64 if key[c] & SIGN != 0 => !key[c],
                    KeyKind::F64 => key[c] ^ SIGN,
                    KeyKind::Str => ranks[c][key[c] as usize] as u64,
                };
            }
        }
        let sort_key = |e: u32| &sort_keys[e as usize * sort_width..][..sort_width];
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| sort_key(a).cmp(sort_key(b)));
        order
    }

    /// Key column `col` of `entries`, as a vector.
    pub(crate) fn key_column(&self, col: usize, entries: &[u32]) -> Vector {
        let nulls = null_bitmap(entries.len(), |i| self.is_null(entries[i], col));
        let words = entries.iter().map(|&e| self.word(e, col));
        match self.kinds[col] {
            KeyKind::I64 => Vector::I64 {
                values: words.map(|x| x as i64).collect(),
                nulls,
            },
            KeyKind::F64 => Vector::F64 {
                values: words.map(f64::from_bits).collect(),
                nulls,
            },
            KeyKind::Str => {
                let s = self.interners[col].strings();
                // A NULL key's word is 0, which names no string when the
                // column held nothing but NULLs.
                let empty: Arc<str> = Arc::from("");
                Vector::Str {
                    strings: StrVector::Owned(
                        words
                            .map(|x| s.get(x as usize).unwrap_or(&empty).clone())
                            .collect(),
                    ),
                    nulls,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstore_common::Value;

    fn ints(vals: &[Option<i64>]) -> Vector {
        let vals: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int64))
            .collect();
        Vector::from_values(DataType::Int64, &vals).unwrap()
    }

    #[test]
    fn entries_number_distinct_keys_in_order_of_first_appearance() {
        let mut t = KeyTable::new(vec![KeyKind::I64]);
        let mut ids = Vec::new();
        t.group_ids(&[&ints(&[Some(7), Some(3), Some(7), None, None])], &mut ids)
            .unwrap();
        assert_eq!(ids, vec![0, 1, 0, 2, 2], "NULLs form one group");
        t.group_ids(&[&ints(&[Some(3), Some(9)])], &mut ids)
            .unwrap();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(t.len(), 4);
        // NULL first, then ascending.
        assert_eq!(t.sorted_entries(), vec![2, 1, 0, 3]);
    }

    #[test]
    fn join_modes_leave_nulls_and_strangers_out() {
        let mut t = KeyTable::new(vec![KeyKind::I64, KeyKind::I64]);
        let mut ids = Vec::new();
        let (a, b) = (
            ints(&[Some(1), Some(1), None]),
            ints(&[Some(2), None, Some(2)]),
        );
        t.insert_non_null(&[&a, &b], &mut ids).unwrap();
        assert_eq!(ids, vec![0, NO_KEY, NO_KEY]);
        let (a, b) = (
            ints(&[Some(1), Some(2), Some(1)]),
            ints(&[Some(2), Some(1), None]),
        );
        t.find(&[&a, &b], &mut ids).unwrap();
        assert_eq!(ids, vec![0, NO_KEY, NO_KEY]);
        assert_eq!(t.len(), 1, "find inserts nothing");
    }

    #[test]
    fn dictionary_codes_and_owned_strings_share_ids() {
        let dict = Arc::new(Dictionary::build_str(["pear", "fig"].into_iter()));
        let coded = Vector::Str {
            strings: StrVector::Dict {
                codes: vec![1, 0, 1],
                dict,
            },
            nulls: None,
        };
        let owned = Vector::from_values(
            DataType::Utf8,
            &[Value::str("fig"), Value::str("kiwi"), Value::str("pear")],
        )
        .unwrap();
        let mut t = KeyTable::new(vec![KeyKind::Str]);
        let mut ids = Vec::new();
        t.group_ids(&[&coded], &mut ids).unwrap();
        assert_eq!(ids, vec![0, 1, 0]);
        t.find(&[&owned], &mut ids).unwrap();
        assert_eq!(ids, vec![1, NO_KEY, 0]);
        let sorted = t.sorted_entries();
        let Vector::Str { strings, .. } = t.key_column(0, &sorted) else {
            panic!("string key column expected");
        };
        assert_eq!(strings.get(0).as_ref(), "fig");
        assert_eq!(strings.get(1).as_ref(), "pear");
    }

    #[test]
    fn floats_are_keyed_by_bits() {
        let v = Vector::F64 {
            values: vec![0.0, -0.0, f64::NAN, f64::NAN, 0.0],
            nulls: None,
        };
        let mut t = KeyTable::new(vec![KeyKind::F64]);
        let mut ids = Vec::new();
        t.group_ids(&[&v], &mut ids).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 2, 0]);
        // Total order: -0.0 < 0.0 < NaN.
        assert_eq!(t.sorted_entries(), vec![1, 0, 2]);
    }

    #[test]
    fn growth_keeps_every_key_findable() {
        let mut t = KeyTable::new(vec![KeyKind::I64]);
        let mut ids = Vec::new();
        for chunk in 0..20i64 {
            let v = ints(&(0..900).map(|i| Some(chunk * 900 + i)).collect::<Vec<_>>());
            t.insert_non_null(&[&v], &mut ids).unwrap();
        }
        assert_eq!(t.len(), 18_000);
        let v = ints(&[Some(0), Some(17_999), Some(18_000)]);
        t.find(&[&v], &mut ids).unwrap();
        assert_eq!(ids, vec![0, 17_999, NO_KEY]);
    }

    #[test]
    fn a_vector_of_the_wrong_shape_is_a_type_error() {
        let mut t = KeyTable::new(vec![KeyKind::Str]);
        let err = t
            .group_ids(&[&ints(&[Some(1)])], &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.code(), "TYPE", "{err}");
    }
}

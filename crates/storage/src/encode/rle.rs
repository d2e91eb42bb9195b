//! Run-length encoding of code sequences.
//!
//! Runs are stored as parallel arrays of run values and cumulative *run
//! ends*; the cumulative form gives O(log r) random access by binary search
//! and O(1) run iteration for scans.

use cstore_common::convert::usize_from_u32;

/// A run-length-encoded sequence of `u64` codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RleVec {
    /// Code of each run.
    values: Vec<u64>,
    /// Exclusive cumulative end index of each run; last element == len.
    run_ends: Vec<u32>,
}

impl RleVec {
    /// Encode `codes` (empty input produces an empty RleVec).
    pub fn from_codes(codes: &[u64]) -> Self {
        let mut values = Vec::new();
        let mut run_ends = Vec::new();
        let mut i = 0;
        while i < codes.len() {
            let v = codes[i];
            let mut j = i + 1;
            while j < codes.len() && codes[j] == v {
                j += 1;
            }
            values.push(v);
            // Row groups cap out far below u32::MAX rows, so cumulative
            // run ends always fit; saturate rather than truncate if a
            // caller ever violates that.
            run_ends.push(u32::try_from(j).unwrap_or(u32::MAX));
            i = j;
        }
        RleVec { values, run_ends }
    }

    /// Number of logical elements.
    pub fn len(&self) -> usize {
        self.run_ends.last().map_or(0, |&e| usize_from_u32(e))
    }

    pub fn is_empty(&self) -> bool {
        self.run_ends.is_empty()
    }

    /// Number of runs.
    pub fn n_runs(&self) -> usize {
        self.values.len()
    }

    /// Random access to one code (O(log runs)).
    pub fn get(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.len());
        let run = self.run_ends.partition_point(|&e| usize_from_u32(e) <= idx);
        self.values[run]
    }

    /// The codes at ascending `positions`, found with one forward pass
    /// over the runs rather than a binary search per position.
    pub fn gather(&self, positions: &[u32]) -> Vec<u64> {
        debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]));
        let mut run = 0;
        positions
            .iter()
            .map(|&p| {
                while self.run_ends[run] <= p {
                    run += 1;
                }
                self.values[run]
            })
            .collect()
    }

    /// Iterate `(code, start, end)` triples over all runs.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        self.values
            .iter()
            .zip(self.run_ends.iter())
            .scan(0usize, |start, (&v, &end)| {
                let s = *start;
                *start = usize_from_u32(end);
                Some((v, s, usize_from_u32(end)))
            })
    }

    /// Decode every code into `out` (appended).
    pub fn decode_into(&self, out: &mut Vec<u64>) {
        out.reserve(self.len());
        for (v, s, e) in self.iter_runs() {
            out.extend(std::iter::repeat_n(v, e - s));
        }
    }

    /// Payload size in bytes (values + run ends).
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * 8 + self.run_ends.len() * 4
    }

    /// Byte size RLE would take for `n_runs` runs — used by the encoder to
    /// pick RLE vs bit packing.
    pub fn estimate_bytes(n_runs: usize) -> usize {
        n_runs * 12
    }

    /// Count runs in `codes` without building the encoding.
    pub fn count_runs(codes: &[u64]) -> usize {
        if codes.is_empty() {
            return 0;
        }
        1 + codes.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Serialization accessors.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
    pub fn run_ends(&self) -> &[u32] {
        &self.run_ends
    }

    /// Rebuild from serialized parts.
    pub fn from_raw(values: Vec<u64>, run_ends: Vec<u32>) -> Self {
        assert_eq!(values.len(), run_ends.len());
        debug_assert!(
            run_ends.windows(2).all(|w| w[0] < w[1]),
            "run ends not increasing"
        );
        RleVec { values, run_ends }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let codes = vec![5, 5, 5, 1, 1, 9, 9, 9, 9, 0];
        let r = RleVec::from_codes(&codes);
        assert_eq!(r.n_runs(), 4);
        assert_eq!(r.len(), 10);
        let mut out = Vec::new();
        r.decode_into(&mut out);
        assert_eq!(out, codes);
    }

    #[test]
    fn random_access() {
        let codes = vec![7, 7, 3, 3, 3, 3, 8];
        let r = RleVec::from_codes(&codes);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(r.get(i), c, "get({i})");
        }
    }

    #[test]
    fn empty() {
        let r = RleVec::from_codes(&[]);
        assert_eq!(r.len(), 0);
        assert_eq!(r.n_runs(), 0);
        let mut out = Vec::new();
        r.decode_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn iter_runs_covers_everything() {
        let codes = vec![1, 1, 2, 3, 3, 3];
        let r = RleVec::from_codes(&codes);
        let runs: Vec<_> = r.iter_runs().collect();
        assert_eq!(runs, vec![(1, 0, 2), (2, 2, 3), (3, 3, 6)]);
    }

    #[test]
    fn count_runs_matches() {
        let codes = vec![1, 1, 2, 3, 3, 3, 1];
        assert_eq!(RleVec::count_runs(&codes), 4);
        assert_eq!(RleVec::from_codes(&codes).n_runs(), 4);
        assert_eq!(RleVec::count_runs(&[]), 0);
        assert_eq!(RleVec::count_runs(&[9]), 1);
    }

    #[test]
    fn raw_roundtrip() {
        let codes = vec![4, 4, 4, 2, 2];
        let r = RleVec::from_codes(&codes);
        let s = RleVec::from_raw(r.values().to_vec(), r.run_ends().to_vec());
        assert_eq!(r, s);
    }
}

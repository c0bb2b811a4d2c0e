//! Fixed-word u64 bitset palette sets.
//!
//! Lemma 5.1's crossing merge picks each crossing edge's color as a
//! *mex* — the smallest color below a limit absent from a used set of
//! at most O(Δ) colors — over a base set per B-vertex extended per
//! decision. [`PaletteSet`] packs the marks into u64 words — 64 colors
//! per word, the mex found by `trailing_zeros` on the first non-full
//! word's complement — and keeps a fixed inline array for palettes up to
//! [`INLINE_COLORS`] colors, spilling to a reusable heap buffer only
//! above that, so the common path performs no allocation at all. The
//! same set serves Linial's point-0 screen as a reused one-bit-per-agent
//! mark. (The color reductions need no set: their deciders OR neighbor
//! bits into one 64-color window word at a time, see
//! [`crate::reduction`].)
//!
//! The reduction unit tests pin kernel ≡ an allocating `Vec<bool>` scan
//! over random used-sets.

use decolor_graph::num;

/// Words kept inline (no heap traffic): 64 × 64 = 4096 colors, far above
/// the 2Δ − 1 / Δ + 1 limits the reduction loops pass at harness scale.
const INLINE_WORDS: usize = 64;

/// Largest palette limit served entirely from the inline words.
// lint: allow(cast, "INLINE_WORDS = 64 is lossless in u64") lint: allow(arith, "64 * 64 = 4096, a compile-time constant")
pub const INLINE_COLORS: u64 = 64 * (INLINE_WORDS as u64);

/// A set of colors in `0..limit`, packed one bit per color.
///
/// Reuse one instance across decisions: [`PaletteSet::reset`] re-arms it
/// for a (possibly different) limit by zeroing only the words in use.
///
/// ```rust
/// use decolor_core::bitset::PaletteSet;
/// let mut set = PaletteSet::new();
/// set.reset(5);
/// set.insert(0);
/// set.insert(1);
/// set.insert(3);
/// set.insert(9); // ≥ limit: ignored
/// assert_eq!(set.mex(), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct PaletteSet {
    inline: [u64; INLINE_WORDS],
    spill: Vec<u64>,
    /// Exclusive color bound currently armed; colors ≥ `limit` are
    /// ignored by [`PaletteSet::insert`].
    limit: u64,
    /// Words backing `0..limit` (in whichever buffer is active).
    words_in_use: usize,
}

impl Default for PaletteSet {
    fn default() -> Self {
        PaletteSet::new()
    }
}

impl PaletteSet {
    /// An empty set armed for `limit = 0` (every insert ignored,
    /// `mex() == None`).
    pub fn new() -> Self {
        PaletteSet {
            inline: [0u64; INLINE_WORDS],
            spill: Vec::new(),
            limit: 0,
            words_in_use: 0,
        }
    }

    /// Re-arms the set for colors `0..limit`, clearing previous marks.
    /// Inline (allocation-free) up to [`INLINE_COLORS`]; above that the
    /// spill buffer is grown once and reused.
    pub fn reset(&mut self, limit: u64) {
        self.limit = limit;
        let words = num::to_usize(limit.div_ceil(64)).unwrap_or(usize::MAX);
        self.words_in_use = words;
        if words <= INLINE_WORDS {
            self.inline[..words].fill(0);
        } else {
            if self.spill.len() < words {
                self.spill.resize(words, 0);
            }
            self.spill[..words].fill(0);
        }
    }

    /// Makes this set a copy of `other` (same limit, same marks), copying
    /// only the words in use — the cheap way to extend a shared base set
    /// with per-decision marks.
    pub(crate) fn copy_from(&mut self, other: &PaletteSet) {
        self.limit = other.limit;
        self.words_in_use = other.words_in_use;
        let src = other.words();
        if self.words_in_use <= INLINE_WORDS {
            self.inline[..src.len()].copy_from_slice(src);
        } else {
            if self.spill.len() < src.len() {
                self.spill.resize(src.len(), 0);
            }
            self.spill[..src.len()].copy_from_slice(src);
        }
    }

    /// The limit this set is currently armed for.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Active word storage.
    #[inline]
    fn words(&self) -> &[u64] {
        if self.words_in_use <= INLINE_WORDS {
            &self.inline[..self.words_in_use]
        } else {
            &self.spill[..self.words_in_use]
        }
    }

    /// Marks color `c` as used; colors ≥ the armed limit are ignored
    /// (they can never be the mex below it).
    #[inline]
    pub fn insert(&mut self, c: u64) {
        if c < self.limit {
            // lint: allow(cast, "c < limit, whose word count fit usize in reset")
            let idx = (c >> 6) as usize;
            let words = if self.words_in_use <= INLINE_WORDS {
                &mut self.inline[..]
            } else {
                &mut self.spill[..]
            };
            words[idx] |= 1u64 << (c & 63);
        }
    }

    /// Whether color `c` is marked (always `false` for `c ≥ limit`).
    pub fn contains(&self, c: u64) -> bool {
        if c >= self.limit {
            return false;
        }
        // lint: allow(cast, "c < limit, whose word count fit usize in reset")
        let idx = (c >> 6) as usize;
        self.words()[idx] & (1u64 << (c & 63)) != 0
    }

    /// Smallest color `< limit` not inserted since the last reset, or
    /// `None` if all of `0..limit` are marked.
    #[inline]
    pub fn mex(&self) -> Option<u64> {
        for (i, &w) in self.words().iter().enumerate() {
            let free = !w;
            if free != 0 {
                let c = (num::to_u64(i) << 6) | u64::from(free.trailing_zeros());
                // The last word may cover bits ≥ limit that no insert
                // ever marks; a "free" bit there is not a real color.
                return if c < self.limit { Some(c) } else { None };
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_mex_is_zero() {
        let mut s = PaletteSet::new();
        s.reset(7);
        assert_eq!(s.mex(), Some(0));
    }

    #[test]
    fn zero_limit_has_no_mex() {
        let mut s = PaletteSet::new();
        s.reset(0);
        s.insert(0);
        assert_eq!(s.mex(), None);
        assert!(!s.contains(0));
    }

    #[test]
    fn full_prefix_saturates() {
        let mut s = PaletteSet::new();
        s.reset(3);
        for c in 0..3 {
            s.insert(c);
        }
        assert_eq!(s.mex(), None);
    }

    #[test]
    fn ignores_out_of_range_inserts() {
        let mut s = PaletteSet::new();
        s.reset(4);
        s.insert(0);
        s.insert(4); // ignored
        s.insert(1 << 40); // ignored
        assert_eq!(s.mex(), Some(1));
    }

    #[test]
    fn word_boundaries() {
        let mut s = PaletteSet::new();
        s.reset(130);
        for c in 0..128 {
            s.insert(c);
        }
        assert_eq!(s.mex(), Some(128));
        s.insert(128);
        assert_eq!(s.mex(), Some(129));
        s.insert(129);
        assert_eq!(s.mex(), None);
    }

    #[test]
    fn reset_clears_and_rearms_smaller_and_larger() {
        let mut s = PaletteSet::new();
        s.reset(100);
        for c in 0..100 {
            s.insert(c);
        }
        assert_eq!(s.mex(), None);
        s.reset(65);
        assert_eq!(s.mex(), Some(0), "reset must clear previous marks");
        s.reset(200);
        assert_eq!(s.mex(), Some(0));
    }

    #[test]
    fn spill_path_beyond_inline_words() {
        let mut s = PaletteSet::new();
        let limit = INLINE_COLORS + 100;
        s.reset(limit);
        for c in 0..limit {
            s.insert(c);
        }
        assert_eq!(s.mex(), None);
        s.reset(limit);
        for c in 0..limit {
            if c != INLINE_COLORS + 3 {
                s.insert(c);
            }
        }
        assert_eq!(s.mex(), Some(INLINE_COLORS + 3));
        // Shrinking back to the inline path still works after a spill.
        s.reset(10);
        s.insert(0);
        assert_eq!(s.mex(), Some(1));
    }

    #[test]
    fn copy_from_carries_limit_and_marks() {
        let mut base = PaletteSet::new();
        base.reset(70);
        base.insert(0);
        base.insert(65);
        let mut s = PaletteSet::new();
        s.reset(3);
        s.insert(1);
        s.copy_from(&base);
        assert_eq!(s.limit(), 70);
        assert!(s.contains(0) && s.contains(65) && !s.contains(1));
        assert_eq!(s.mex(), Some(1));
        // The copy is independent of its source, also past the inline words.
        let mut big = PaletteSet::new();
        big.reset(INLINE_COLORS + 10);
        big.insert(INLINE_COLORS + 1);
        s.copy_from(&big);
        s.insert(0);
        assert!(s.contains(INLINE_COLORS + 1));
        assert_eq!(big.mex(), Some(0));
        assert_eq!(s.mex(), Some(1));
    }

    #[test]
    fn contains_tracks_inserts() {
        let mut s = PaletteSet::new();
        s.reset(70);
        s.insert(69);
        assert!(s.contains(69));
        assert!(!s.contains(68));
        assert!(!s.contains(70));
    }
}

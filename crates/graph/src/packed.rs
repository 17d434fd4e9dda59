//! Per-vertex `u32` tables stored in the bytes their largest value needs.
//!
//! 2PS-L keeps a few `O(|V|)` arrays beside the replica bits: the degree
//! table and the vertex→cluster map. Their values are usually far below
//! `u32::MAX` — a web graph's largest degree fits one byte, a cluster id
//! below |V| = 300 000 three — so a fixed 4 B per vertex mostly holds
//! zeros. [`PackedU32s`] stores each value little-endian in `w` =
//! ⌈bits(max)/8⌉ bytes (1 ≤ `w` ≤ 4) and reads it back as one unaligned
//! 4-byte load masked to `w` bytes: no branch on the width, and 3 pad bytes
//! after the last value keep that load inside the buffer, so the index
//! check is the only bounds check. A store is the same 4-byte word with the
//! low `w` bytes replaced.

/// Pad bytes after the last value: a 4-byte load at the last index ends
/// exactly at the buffer's end when `w` = 1.
const PAD: usize = 3;

/// A fixed-length array of `u32`s, each in the same `w` ∈ 1..=4 bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedU32s {
    /// `width·len + PAD` bytes: value `i` in bytes `width·i..width·(i+1)`,
    /// then `PAD` zero bytes.
    bytes: Vec<u8>,
    len: usize,
    width: usize,
    /// The low `width` bytes set: a read's mask, and the largest value the
    /// width holds.
    mask: u32,
}

impl PackedU32s {
    /// Bytes per value that hold every value up to `max` (at least 1).
    pub fn width_for(max: u32) -> usize {
        (u32::BITS - max.leading_zeros()).div_ceil(8).max(1) as usize
    }

    /// The largest value `width` bytes hold: all of them set.
    fn all_ones(width: usize) -> u32 {
        u32::MAX >> (32 - 8 * width)
    }

    /// `values` in the width their largest value needs.
    pub fn from_values(values: &[u32]) -> PackedU32s {
        let max = values.iter().copied().max().unwrap_or(0);
        PackedU32s::with_width(values.iter().copied(), values.len(), Self::width_for(max))
    }

    /// The `len` values of `values` in `width` bytes each.
    ///
    /// # Panics
    /// Panics if `width` is not in 1..=4, if `values` yields other than
    /// `len` values, or if a value does not fit `width` bytes.
    pub fn with_width(values: impl IntoIterator<Item = u32>, len: usize, width: usize) -> Self {
        assert!((1..=4).contains(&width), "width {width} is not 1..=4 bytes");
        let mask = Self::all_ones(width);
        let mut bytes = vec![0u8; width * len + PAD];
        let mut values = values.into_iter();
        for at in (0..len).map(|i| width * i) {
            let v = values.next().expect("fewer values than the length");
            assert!(v <= mask, "{v} does not fit {width} bytes");
            // A whole word: its zero high bytes land in the next value's
            // slot, which the next store fills.
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        assert!(values.next().is_none(), "more values than the length");
        PackedU32s {
            bytes,
            len,
            width,
            mask,
        }
    }

    /// `len` zeros in `width` bytes each: zeroed memory, which the OS
    /// backs only once a value is written.
    ///
    /// # Panics
    /// Panics if `width` is not in 1..=4.
    pub fn zeroed(len: usize, width: usize) -> Self {
        assert!((1..=4).contains(&width), "width {width} is not 1..=4 bytes");
        PackedU32s {
            bytes: vec![0; width * len + PAD],
            len,
            width,
            mask: Self::all_ones(width),
        }
    }

    /// Value `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        assert!(
            i < self.len,
            "index {i} out of range for {} values",
            self.len
        );
        // SAFETY: `bytes` holds `width·len + PAD` bytes and `width ≥ 1`, so
        // the word at `width·i` ends by `width·(len − 1) + 4 ≤ bytes.len()`.
        // One index check instead of the slice's two (start overflow and
        // end): this read sits on the clustering pass's hot path.
        let word =
            unsafe { (self.bytes.as_ptr().add(i * self.width) as *const u32).read_unaligned() };
        u32::from_le(word) & self.mask
    }

    /// Set value `i` to `v`.
    ///
    /// # Panics
    /// Panics if `i >= len` or `v` does not fit the width (it would spill
    /// into the next value).
    #[inline]
    pub fn set(&mut self, i: usize, v: u32) {
        assert!(v <= self.mask, "{v} does not fit {} bytes", self.width);
        assert!(
            i < self.len,
            "index {i} out of range for {} values",
            self.len
        );
        // SAFETY: the word at `width·i` lies in `bytes`, as in `get`.
        unsafe {
            let word = self.bytes.as_mut_ptr().add(i * self.width) as *mut u32;
            word.write_unaligned(u32::to_le(
                u32::from_le(word.read_unaligned()) & !self.mask | v,
            ));
        }
    }

    /// Replace every value `v` by `f(v)`, in index order.
    ///
    /// One 4-byte store per value, as [`set`](Self::set), but its bytes past
    /// the value come from the next value's load, issued before the store:
    /// a loop of `set`s would load each value from a word the previous
    /// store only half covered, which stalls store-to-load forwarding.
    ///
    /// # Panics
    /// Panics if an `f(v)` does not fit the width.
    pub fn map_in_place(&mut self, mut f: impl FnMut(u32) -> u32) {
        let Some(last) = self.len.checked_sub(1) else {
            return;
        };
        let width = self.width;
        let word = |bytes: &[u8], at: usize| -> u32 {
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
        };
        let mut next = word(&self.bytes, 0);
        for i in 0..last {
            let v = f(next & self.mask);
            assert!(v <= self.mask, "{v} does not fit {width} bytes");
            next = word(&self.bytes, width * (i + 1));
            let merged = (u64::from(next) << (8 * width)) as u32 | v;
            self.bytes[width * i..width * i + 4].copy_from_slice(&merged.to_le_bytes());
        }
        let v = f(next & self.mask);
        self.set(last, v);
    }

    /// Grow to `len` values, the new ones 0 (no-op if the table is that
    /// long already). Amortised `O(1)` per value, as `Vec::resize`: the pad
    /// bytes are zero, so the new values start where they are.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.bytes.resize(self.width * len + PAD, 0);
            self.len = len;
        }
    }

    /// Give back the capacity [`grow`](PackedU32s::grow) left beyond the
    /// values and their pad.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }

    /// Store every value in `width` bytes instead. Narrowing works in place
    /// and gives the freed bytes back; widening copies.
    ///
    /// # Panics
    /// Panics if `width` is not in 1..=4 or a value does not fit it.
    pub fn rewiden(&mut self, width: usize) {
        let mask = Self::all_ones(width);
        if width > self.width {
            *self = Self::with_width(self.iter(), self.len, width);
        } else if width < self.width {
            // Value `i` moves down to `width·i`: never past a value not yet read.
            for i in 0..self.len {
                let v = self.get(i);
                assert!(v <= mask, "{v} does not fit {width} bytes");
                self.bytes[width * i..width * (i + 1)].copy_from_slice(&v.to_le_bytes()[..width]);
            }
            self.bytes.truncate(width * self.len);
            self.bytes.extend_from_slice(&[0; PAD]);
            self.bytes.shrink_to_fit();
            (self.width, self.mask) = (width, mask);
        }
    }

    /// Every value, in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest value the table's width holds.
    #[inline]
    pub fn max_value(&self) -> u32 {
        self.mask
    }

    /// Bytes per value.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Heap bytes of the table, pad included.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDARIES: [u32; 8] = [
        0,
        255,
        256,
        65_535,
        65_536,
        (1 << 24) - 1,
        1 << 24,
        u32::MAX,
    ];

    #[test]
    fn width_follows_the_largest_value() {
        let widths: Vec<usize> = BOUNDARIES
            .iter()
            .map(|&v| PackedU32s::width_for(v))
            .collect();
        assert_eq!(widths, [1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn round_trips_every_boundary_at_every_width_that_holds_it() {
        for width in 1..=4 {
            let fits: Vec<u32> = BOUNDARIES
                .iter()
                .copied()
                .filter(|&v| PackedU32s::width_for(v) <= width)
                .collect();
            // Each boundary at the first, a middle and the last index.
            let mut values = fits.clone();
            values.extend(fits.iter().rev());
            let packed = PackedU32s::with_width(values.iter().copied(), values.len(), width);
            assert_eq!(packed.len(), values.len());
            assert_eq!(packed.heap_bytes(), width * values.len() + PAD);
            assert_eq!(packed.iter().collect::<Vec<_>>(), values, "width {width}");
            let last = values.len() - 1;
            assert_eq!(packed.get(last), values[last], "last index, width {width}");
        }
    }

    #[test]
    fn from_values_picks_the_narrowest_width() {
        for (i, &max) in BOUNDARIES.iter().enumerate() {
            let values = [0, max / 2, max, 1];
            let packed = PackedU32s::from_values(&values);
            let width = PackedU32s::width_for(max);
            assert_eq!(packed.heap_bytes(), width * values.len() + PAD, "max {max}");
            assert_eq!(packed.iter().collect::<Vec<_>>(), values, "case {i}");
        }
        // A saturated degree needs the full four bytes.
        assert_eq!(PackedU32s::from_values(&[u32::MAX]).get(0), u32::MAX);
    }

    #[test]
    fn the_last_index_reads_only_its_own_bytes() {
        // One value per width, all bits set: the load past it reads pad.
        for width in 1..=4 {
            let max = PackedU32s::all_ones(width);
            let packed = PackedU32s::with_width([max], 1, width);
            assert_eq!(packed.get(0), max);
            assert_eq!(packed.max_value(), max);
        }
    }

    #[test]
    fn all_ones_of_the_width_round_trips_as_a_sentinel() {
        // A table's all-ones value is distinct from every value below it.
        for width in 1..=4usize {
            let all_ones = PackedU32s::all_ones(width);
            let values = [all_ones, 0, all_ones - 1, all_ones];
            let packed = PackedU32s::with_width(values, values.len(), width);
            assert_eq!(packed.max_value(), all_ones);
            let ones: Vec<bool> = packed.iter().map(|v| v == packed.max_value()).collect();
            assert_eq!(ones, [true, false, false, true], "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reading_past_the_end_panics() {
        PackedU32s::from_values(&[1, 2, 3]).get(3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_value_wider_than_the_width_is_refused() {
        PackedU32s::with_width([256], 1, 1);
    }

    #[test]
    fn set_touches_only_its_own_value_at_every_width() {
        for width in 1..=4 {
            let max = PackedU32s::all_ones(width);
            let mut packed = PackedU32s::with_width([max; 5], 5, width);
            packed.set(0, 0);
            packed.set(2, 1);
            packed.set(4, max - 1);
            assert_eq!(
                packed.iter().collect::<Vec<_>>(),
                [0, max, 1, max, max - 1],
                "width {width}"
            );
        }
    }

    #[test]
    fn map_in_place_maps_every_value_at_every_width() {
        for width in 1..=4 {
            let max = PackedU32s::all_ones(width);
            let values: Vec<u32> = (0..300).map(|i| (i * 37) & max).collect();
            let mut packed = PackedU32s::with_width(values.iter().copied(), 300, width);
            packed.map_in_place(|v| max - v);
            let want: Vec<u32> = values.iter().map(|v| max - v).collect();
            assert_eq!(packed.iter().collect::<Vec<_>>(), want, "width {width}");
        }
        let mut one = PackedU32s::from_values(&[5]);
        one.map_in_place(|v| v + 1);
        assert_eq!(one.get(0), 6);
        PackedU32s::from_values(&[]).map_in_place(|_| unreachable!());
    }

    #[test]
    fn grow_appends_zeros_and_keeps_the_pad() {
        let mut packed = PackedU32s::from_values(&[1, 300]);
        packed.set(1, 65_535);
        packed.grow(5);
        packed.grow(3); // never shrinks
        assert_eq!(packed.iter().collect::<Vec<_>>(), [1, 65_535, 0, 0, 0]);
        assert_eq!(packed.heap_bytes(), 2 * 5 + PAD);
        packed.set(4, 65_535);
        assert_eq!(packed.get(4), 65_535);
    }

    /// Re-widening keeps every value, both ways, at every pair of widths
    /// that holds them.
    #[test]
    fn rewiden_keeps_every_value() {
        for from in 1..=4 {
            for to in 1..=4 {
                let values = [0, 200, PackedU32s::all_ones(from.min(to)), 5];
                let mut packed = PackedU32s::with_width(values, 4, from);
                packed.rewiden(to);
                assert_eq!(packed.iter().collect::<Vec<_>>(), values, "{from} → {to}");
                assert_eq!(packed.width(), to);
                assert_eq!(packed.max_value(), PackedU32s::all_ones(to));
                assert_eq!(packed.heap_bytes(), 4 * to + PAD);
            }
        }
    }

    #[test]
    fn zeroed_reads_zero_at_every_width() {
        for width in 1..=4 {
            let packed = PackedU32s::zeroed(300, width);
            assert_eq!(packed.heap_bytes(), width * 300 + PAD);
            assert!(packed.iter().all(|v| v == 0), "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn narrowing_below_a_value_is_refused() {
        PackedU32s::from_values(&[300, 1]).rewiden(1);
    }

    #[test]
    fn empty_table() {
        let packed = PackedU32s::from_values(&[]);
        assert!(packed.is_empty());
        assert_eq!(packed.heap_bytes(), PAD);
        assert_eq!(packed.iter().count(), 0);
    }
}

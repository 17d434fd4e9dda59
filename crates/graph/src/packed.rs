//! Per-vertex `u32` tables stored in the bytes their largest value needs.
//!
//! 2PS-L keeps a few `O(|V|)` arrays beside the replica bits: the degree
//! table and phase 2's vertex→cluster map. Their values are usually far
//! below `u32::MAX` — a web graph's largest degree fits one byte, a few
//! thousand clusters two — so a fixed 4 B per vertex mostly holds zeros.
//! [`PackedU32s`] stores each value little-endian in `w` = ⌈bits(max)/8⌉
//! bytes (1 ≤ `w` ≤ 4) and reads it back as one unaligned 4-byte load
//! masked to `w` bytes: no branch on the width, and 3 pad bytes after the
//! last value keep that load inside the buffer.

/// Pad bytes after the last value: a 4-byte load at the last index ends
/// exactly at the buffer's end when `w` = 1.
const PAD: usize = 3;

/// A fixed-length array of `u32`s, each in the same `w` ∈ 1..=4 bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedU32s {
    /// `width·len + PAD` bytes: value `i` in bytes `width·i..width·(i+1)`.
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
    pub fn all_ones(width: usize) -> u32 {
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
        for slot in bytes[..width * len].chunks_exact_mut(width) {
            let v = values.next().expect("fewer values than the length");
            assert!(v <= mask, "{v} does not fit {width} bytes");
            slot.copy_from_slice(&v.to_le_bytes()[..width]);
        }
        assert!(values.next().is_none(), "more values than the length");
        PackedU32s {
            bytes,
            len,
            width,
            mask,
        }
    }

    /// Value `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`: with exactly 3 pad bytes after the last
    /// value, the 4-byte slice fits the buffer precisely for `i < len`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        let at = i * self.width;
        let word: [u8; 4] = self.bytes[at..at + 4].try_into().expect("4 bytes");
        u32::from_le_bytes(word) & self.mask
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

    /// The largest value the table's width holds ([`PackedU32s::all_ones`]).
    pub fn max_value(&self) -> u32 {
        self.mask
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
    fn empty_table() {
        let packed = PackedU32s::from_values(&[]);
        assert!(packed.is_empty());
        assert_eq!(packed.heap_bytes(), PAD);
        assert_eq!(packed.iter().count(), 0);
    }
}

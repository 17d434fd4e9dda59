//! Frame and primitive codecs of the distributed protocol.
//!
//! Everything on the wire is a **frame**: a little-endian `u32` byte length
//! followed by that many payload bytes. The first payload byte is the
//! message tag (see [`crate::protocol`]); the rest is the message body,
//! built from the fixed-width primitives here. There is no compression, no
//! optional fields and no versioned schema evolution — the [`Hello`]
//! handshake pins an exact protocol version instead, which keeps the codec
//! auditable and the corrupt-input behaviour easy to test: every decode
//! error is an `InvalidData`/`UnexpectedEof` `io::Error`, never a panic.
//!
//! [`Hello`]: crate::protocol::Message::Hello

use std::io::{self, Read, Write};

/// Hard upper bound on one frame's payload (a degree table for 256M
/// vertices). A length prefix beyond this is treated as stream corruption
/// rather than an allocation request.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// An `InvalidData` error with `msg`.
pub fn corrupt<E: Into<Box<dyn std::error::Error + Send + Sync>>>(msg: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    if frame.len() > MAX_FRAME_LEN {
        return Err(corrupt(format!(
            "refusing to send a {} byte frame (cap {MAX_FRAME_LEN})",
            frame.len()
        )));
    }
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)
}

/// The most a frame's buffer grows ahead of the bytes that have arrived,
/// until that many have.
const FRAME_READ_STEP: usize = 1 << 20;

/// Read one length-prefixed frame, rejecting lengths beyond
/// [`MAX_FRAME_LEN`] and mapping short reads to `UnexpectedEof`.
///
/// The length prefix is a claim, not an allocation request: the buffer
/// grows in steps no larger than what has already been received (at least
/// 1 MiB, `FRAME_READ_STEP`), so a 4-byte header commits at most 1 MiB and a
/// complete frame ends in a buffer of exactly its length.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(corrupt(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN} (corrupt stream?)"
        )));
    }
    let mut buf = Vec::new();
    while buf.len() < len {
        let step = (len - buf.len()).min(buf.len().max(FRAME_READ_STEP));
        buf.reserve_exact(step);
        let got = r.by_ref().take(step as u64).read_to_end(&mut buf)?;
        if got < step {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("truncated frame: promised {len} bytes"),
            ));
        }
    }
    Ok(buf)
}

/// Bounds-checked cursor over a received frame body.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(corrupt(format!(
                "message truncated: need {n} more bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Little-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-counted vector of `u32`s.
    pub fn vec_u32(&mut self) -> io::Result<Vec<u32>> {
        let n = self.u32()? as usize;
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or_else(|| corrupt("u32 vec overflow"))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// A `u32`-counted vector of `u64`s.
    pub fn vec_u64(&mut self) -> io::Result<Vec<u64>> {
        let n = self.u32()? as usize;
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or_else(|| corrupt("u64 vec overflow"))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// A `u32`-counted UTF-8 string.
    pub fn string(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not valid UTF-8"))
    }

    /// The unconsumed tail (for nested codecs that track their own length).
    pub fn tail(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// Replace the cursor's view (after a nested codec consumed a prefix).
    pub fn set_tail(&mut self, rest: &'a [u8]) {
        self.buf = rest;
    }

    /// Error unless every byte was consumed — trailing garbage means the
    /// sender and receiver disagree on the schema.
    pub fn expect_empty(&self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{} trailing bytes after message body",
                self.buf.len()
            )))
        }
    }
}

/// Append helpers mirroring [`Reader`].
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`-counted vector of `u32`s.
pub fn put_vec_u32(out: &mut Vec<u8>, v: &[u32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u32(out, x);
    }
}

/// Append a `u32`-counted vector of `u64`s.
pub fn put_vec_u64(out: &mut Vec<u8>, v: &[u64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x);
    }
}

/// Append a `u32`-counted UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cap on the decoded length of one [`put_word_runs`] sequence (2^24 words
/// = 128 MiB of packed bits). Replication chunks are far smaller (the
/// chunking targets [`crate::protocol::REPL_CHUNK_WORDS`] words, and a
/// single vertex row `⌈k/64⌉` can only exceed that for k in the millions);
/// a count beyond this cap is treated as stream corruption rather than an
/// allocation request — zero runs compress, so a tiny frame could
/// otherwise demand an enormous buffer.
pub const MAX_RUN_WORDS: usize = 1 << 24;

/// Append a `u64`-word sequence with **zero-word-run encoding**: a `u32`
/// total count, then greedy groups of `u32 zeros`, `u32 literals`,
/// `literals × u64`. Replication-matrix rows are mostly zero on sparse
/// graphs, so the run groups collapse the bulk of a chunk to a few bytes;
/// the encoding is canonical (maximal runs), so equal word sequences
/// encode to equal bytes.
pub fn put_word_runs(out: &mut Vec<u8>, words: &[u64]) {
    put_u32(out, words.len() as u32);
    let mut i = 0;
    while i < words.len() {
        let zeros_start = i;
        while i < words.len() && words[i] == 0 {
            i += 1;
        }
        let lit_start = i;
        while i < words.len() && words[i] != 0 {
            i += 1;
        }
        put_u32(out, (lit_start - zeros_start) as u32);
        put_u32(out, (i - lit_start) as u32);
        for &w in &words[lit_start..i] {
            put_u64(out, w);
        }
    }
}

impl<'a> Reader<'a> {
    /// Inverse of [`put_word_runs`]. Rejects counts beyond
    /// [`MAX_RUN_WORDS`], groups that overflow the declared count, empty
    /// groups (no progress), and truncation.
    pub fn word_runs(&mut self) -> io::Result<Vec<u64>> {
        let total = self.u32()? as usize;
        if total > MAX_RUN_WORDS {
            return Err(corrupt(format!(
                "word-run sequence of {total} words exceeds cap {MAX_RUN_WORDS}"
            )));
        }
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            let zeros = self.u32()? as usize;
            let lits = self.u32()? as usize;
            if zeros == 0 && lits == 0 {
                return Err(corrupt("empty word-run group"));
            }
            let new_len = out
                .len()
                .checked_add(zeros)
                .and_then(|n| n.checked_add(lits))
                .filter(|&n| n <= total)
                .ok_or_else(|| corrupt("word-run group overflows the declared count"))?;
            out.resize(out.len() + zeros, 0u64);
            for _ in 0..lits {
                out.push(self.u64()?);
            }
            debug_assert_eq!(out.len(), new_len);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "stream exhausted");
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(b"only ten b");
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("promised 100"));
    }

    #[test]
    fn primitive_roundtrips() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, 1.05);
        put_vec_u32(&mut out, &[1, 2, 3]);
        put_vec_u64(&mut out, &[9, 10]);
        put_string(&mut out, "2PS-L×4");
        let mut r = Reader::new(&out);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 1.05);
        assert_eq!(r.vec_u32().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.vec_u64().unwrap(), vec![9, 10]);
        assert_eq!(r.string().unwrap(), "2PS-L×4");
        r.expect_empty().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let mut out = Vec::new();
        put_u32(&mut out, 1);
        let mut r = Reader::new(&out);
        assert!(r.u64().is_err(), "u64 from 4 bytes");
        let mut out = Vec::new();
        put_vec_u32(&mut out, &[1, 2]);
        let mut r = Reader::new(&out[..6]);
        assert!(r.vec_u32().is_err(), "vec cut mid-element");
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert!(r.expect_empty().is_err());
    }

    #[test]
    fn word_runs_roundtrip_all_shapes() {
        for words in [
            vec![],
            vec![0u64; 7],
            vec![1, 2, 3],
            vec![0, 0, 5, 0, 6, 7, 0, 0, 0],
            vec![u64::MAX; 3],
            vec![0, 1, 0, 1, 0],
        ] {
            let mut out = Vec::new();
            put_word_runs(&mut out, &words);
            let mut r = Reader::new(&out);
            assert_eq!(r.word_runs().unwrap(), words, "{words:?}");
            r.expect_empty().unwrap();
            // Canonical: re-encoding the decoded words is byte-stable.
            let mut again = Vec::new();
            put_word_runs(&mut again, &words);
            assert_eq!(again, out);
        }
    }

    #[test]
    fn word_runs_compress_zero_heavy_sequences() {
        let mut sparse = vec![0u64; 100_000];
        sparse[40_000] = 7;
        let mut out = Vec::new();
        put_word_runs(&mut out, &sparse);
        assert!(
            out.len() < 64,
            "sparse sequence should collapse: {} bytes",
            out.len()
        );
        let mut r = Reader::new(&out);
        assert_eq!(r.word_runs().unwrap(), sparse);
    }

    #[test]
    fn word_runs_reject_corruption() {
        // Count beyond the cap.
        let mut out = Vec::new();
        put_u32(&mut out, (MAX_RUN_WORDS + 1) as u32);
        assert!(Reader::new(&out).word_runs().is_err());
        // Empty group: no progress.
        let mut out = Vec::new();
        put_u32(&mut out, 4);
        put_u32(&mut out, 0);
        put_u32(&mut out, 0);
        assert!(Reader::new(&out).word_runs().is_err());
        // Group overflowing the declared count.
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        put_u32(&mut out, 5);
        put_u32(&mut out, 0);
        assert!(Reader::new(&out).word_runs().is_err());
        // Truncated literals.
        let mut out = Vec::new();
        put_word_runs(&mut out, &[1, 2, 3]);
        assert!(Reader::new(&out[..out.len() - 1]).word_runs().is_err());
    }

    #[test]
    fn invalid_utf8_string_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Reader::new(&out).string().is_err());
    }
}

//! TPSBEL2 format coverage: round-trip properties, corrupt/truncated error
//! paths, and v1↔v2 converter golden tests against the documented layout.

use proptest::prelude::*;
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::stream::{for_each_edge, EdgeStream};
use tps_graph::types::Edge;
use tps_io::v2::{
    fnv1a32, write_varint, CHUNK_HEADER_LEN, HEADER_LEN_V2, MAGIC_V2, TRAILER_LEN, TRAILER_MAGIC,
};
use tps_io::{
    convert_v1_to_v2, convert_v2_to_v1, open_edge_stream, open_ranged, write_v2_edge_list,
    RangedFile, ReaderBackend,
};

fn tmp(tag: &str, ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tps-fmt2-{tag}-{}.{ext}", std::process::id()))
}

fn collect(stream: &mut dyn EdgeStream) -> Vec<Edge> {
    let mut v = Vec::new();
    for_each_edge(stream, |e| v.push(e)).unwrap();
    v
}

/// The edges of one pass, read one at a time.
fn one_by_one(stream: &mut dyn EdgeStream) -> Vec<Edge> {
    stream.reset().unwrap();
    std::iter::from_fn(|| stream.next_edge().unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary edge lists survive write-v2 → stream with identical order,
    /// for arbitrary (small, adversarial) chunk sizes, across two passes, on
    /// every backend.
    #[test]
    fn v2_round_trip_preserves_order(
        pairs in proptest::collection::vec((0u32..100_000, 0u32..100_000), 1..400),
        chunk in 1u32..70,
    ) {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let path = tmp("prop", "bel2");
        write_v2_edge_list(&path, 100_000, edges.iter().copied(), chunk).unwrap();
        for backend in ReaderBackend::ALL {
            let mut f = open_edge_stream(&path, backend).unwrap();
            prop_assert_eq!(f.len_hint(), Some(edges.len() as u64));
            let pass1 = collect(&mut *f);
            let pass2 = collect(&mut *f);
            prop_assert_eq!(&pass1, &edges);
            prop_assert_eq!(&pass2, &edges);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A range retained packed — in the bytes the header's |V| needs, for
    /// arbitrary edges and any valid |V| (≤ 2³²) above their largest id —
    /// reads back as the input: the first pass, the retained passes and a
    /// fresh open of the retained range, in runs and per edge.
    #[test]
    fn retained_passes_equal_the_input_at_any_vertex_count(
        pairs in proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32), 1..300),
        shift in 0u32..33,
        slack in 0u64..1_000,
        chunk in 1u32..70,
    ) {
        // Shifting the ids down gives every packed width a turn.
        let edges: Vec<Edge> = pairs
            .into_iter()
            .map(|(s, d)| Edge::new((s >> shift) as u32, (d >> shift) as u32))
            .collect();
        let max_id = edges.iter().map(|e| e.src.max(e.dst)).max().unwrap();
        // A header |V| past 2^32 is refused at open: ids are u32.
        let num_vertices = (u64::from(max_id) + 1 + slack).min(1 << 32);
        let n = edges.len() as u64;
        let path = tmp("prop-retained", "bel2");
        write_v2_edge_list(&path, num_vertices, edges.iter().copied(), chunk).unwrap();
        let source = open_ranged(&path).unwrap();
        let mut first = source.open_range(0, n).unwrap();
        prop_assert_eq!(&collect(&mut *first), &edges);
        prop_assert_eq!(&one_by_one(&mut *first), &edges);
        prop_assert_eq!(&collect(&mut *first), &edges);
        let mut fresh = source.open_range(0, n).unwrap();
        prop_assert_eq!(&one_by_one(&mut *fresh), &edges);
        prop_assert_eq!(&collect(&mut *fresh), &edges);
        std::fs::remove_file(&path).ok();
    }

    /// v1 -> v2 -> v1 is byte-identical for arbitrary graphs.
    #[test]
    fn converter_round_trip_is_lossless(
        pairs in proptest::collection::vec((0u32..5_000, 0u32..5_000), 0..200),
    ) {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let v1 = tmp("conv-v1", "bel");
        let v2 = tmp("conv-v2", "bel2");
        let back = tmp("conv-back", "bel");
        write_binary_edge_list(&v1, 5_000, edges.iter().copied()).unwrap();
        // Empty edge lists must round-trip too (zero chunks).
        convert_v1_to_v2(&v1, &v2, 16).unwrap();
        convert_v2_to_v1(&v2, &back).unwrap();
        let a = std::fs::read(&v1).unwrap();
        let b = std::fs::read(&back).unwrap();
        for p in [&v1, &v2, &back] { std::fs::remove_file(p).ok(); }
        prop_assert_eq!(a, b);
    }

    /// The bulk (branchless) payload encoder is pinned bit-identical to a
    /// per-varint reference at the *file* level: every chunk payload of a
    /// written file equals `write_varint`-encoding its edges, for
    /// arbitrary edges (all varint widths) and adversarial chunk sizes.
    #[test]
    fn written_chunk_payloads_match_scalar_varint_encoding(
        pairs in proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32), 1..300),
        chunk in 1u32..70,
    ) {
        let edges: Vec<Edge> = pairs
            .into_iter()
            .map(|(s, d)| Edge::new(s as u32, d as u32))
            .collect();
        let path = tmp("bulkenc", "bel2");
        write_v2_edge_list(&path, 0, edges.iter().copied(), chunk).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Walk the chunk sequence per the documented layout and compare
        // each payload against the scalar reference encoding.
        let mut off = HEADER_LEN_V2 as usize;
        for ch in edges.chunks(chunk as usize) {
            let count = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as usize;
            prop_assert_eq!(count as usize, ch.len());
            let payload = &bytes[off + CHUNK_HEADER_LEN as usize..][..len];
            let mut want = Vec::new();
            for e in ch {
                write_varint(&mut want, e.src);
                write_varint(&mut want, e.dst);
            }
            prop_assert_eq!(payload, &want[..], "bulk-encoded payload diverges");
            let sum = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap());
            prop_assert_eq!(sum, fnv1a32(payload));
            off += CHUNK_HEADER_LEN as usize + len;
        }
    }

    /// Flipping any payload byte must surface the canonical checksum error,
    /// naming the file, through the one file cursor.
    #[test]
    fn corrupt_payload_byte_reports_checksum_mismatch(
        pairs in proptest::collection::vec((0u32..100_000, 0u32..100_000), 8..120),
        chunk in 4u32..40,
        victim_raw in 0usize..1 << 20,
        xor in 1u64..256,
    ) {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let path = tmp("crcflip", "bel2");
        write_v2_edge_list(&path, 100_000, edges.iter().copied(), chunk).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte of the first chunk's payload (headers and the
        // index have their own consistency errors; the payload is the
        // checksum's domain).
        let payload0 = u32::from_le_bytes(
            bytes[HEADER_LEN_V2 as usize + 4..HEADER_LEN_V2 as usize + 8].try_into().unwrap(),
        ) as usize;
        let start = (HEADER_LEN_V2 + CHUNK_HEADER_LEN) as usize;
        bytes[start + victim_raw % payload0] ^= xor as u8;
        std::fs::write(&path, &bytes).unwrap();

        let n = edges.len() as u64;
        let want = format!("{}: chunk checksum mismatch (corrupt payload)", path.display());
        let source = RangedFile::read(&path).unwrap();
        let err = for_each_edge(&mut source.open_range(0, n).unwrap(), |_| {})
            .expect_err("corrupt payload must fail");
        prop_assert_eq!(err.to_string(), want.as_str());
        std::fs::remove_file(&path).ok();
    }
}

/// The exact on-disk bytes of a tiny v2 file, assembled independently from
/// the documented layout — a golden test for the writer.
#[test]
fn v2_writer_matches_documented_layout() {
    let path = tmp("golden", "bel2");
    let edges = [Edge::new(1, 2), Edge::new(300, 4), Edge::new(5, 6)];
    write_v2_edge_list(&path, 301, edges.iter().copied(), 2).unwrap();
    let got = std::fs::read(&path).unwrap();

    let mut want = Vec::new();
    // Header.
    want.extend_from_slice(&MAGIC_V2);
    want.extend_from_slice(&301u64.to_le_bytes()); // num_vertices
    want.extend_from_slice(&3u64.to_le_bytes()); // num_edges (patched)
    want.extend_from_slice(&2u32.to_le_bytes()); // edges_per_chunk
    want.extend_from_slice(&0u32.to_le_bytes()); // flags

    // Chunk 0: (1,2),(300,4) -> varints 01 02 | AC 02 04 (300 = 0xAC,0x02).
    let payload0: &[u8] = &[0x01, 0x02, 0xAC, 0x02, 0x04];
    want.extend_from_slice(&2u32.to_le_bytes());
    want.extend_from_slice(&(payload0.len() as u32).to_le_bytes());
    want.extend_from_slice(&fnv1a32(payload0).to_le_bytes());
    want.extend_from_slice(payload0);
    // Chunk 1: (5,6).
    let payload1: &[u8] = &[0x05, 0x06];
    want.extend_from_slice(&1u32.to_le_bytes());
    want.extend_from_slice(&(payload1.len() as u32).to_le_bytes());
    want.extend_from_slice(&fnv1a32(payload1).to_le_bytes());
    want.extend_from_slice(payload1);
    // Index: one entry per chunk {offset u64, count u32, payload_len u32}.
    let chunk0_off = HEADER_LEN_V2;
    let chunk1_off = chunk0_off + CHUNK_HEADER_LEN + payload0.len() as u64;
    let index_off = chunk1_off + CHUNK_HEADER_LEN + payload1.len() as u64;
    want.extend_from_slice(&chunk0_off.to_le_bytes());
    want.extend_from_slice(&2u32.to_le_bytes());
    want.extend_from_slice(&(payload0.len() as u32).to_le_bytes());
    want.extend_from_slice(&chunk1_off.to_le_bytes());
    want.extend_from_slice(&1u32.to_le_bytes());
    want.extend_from_slice(&(payload1.len() as u32).to_le_bytes());
    // Trailer.
    want.extend_from_slice(&index_off.to_le_bytes());
    want.extend_from_slice(&2u64.to_le_bytes());
    want.extend_from_slice(&TRAILER_MAGIC);

    assert_eq!(got, want, "writer bytes diverge from the documented layout");
    std::fs::remove_file(&path).ok();
}

/// Golden numbers for the converter on a fixed graph: edge/vertex counts
/// survive, size shrinks, order is preserved.
#[test]
fn converter_golden_counts_and_sizes() {
    let v1 = tmp("goldconv-v1", "bel");
    let v2 = tmp("goldconv-v2", "bel2");
    let edges: Vec<Edge> = (0..10_000u32)
        .map(|i| Edge::new(i % 128, (i * 13) % 512))
        .collect();
    write_binary_edge_list(&v1, 512, edges.iter().copied()).unwrap();

    let info = convert_v1_to_v2(&v1, &v2, 1 << 12).unwrap();
    assert_eq!(info.num_vertices, 512);
    assert_eq!(info.num_edges, 10_000);

    let v1_bytes = std::fs::metadata(&v1).unwrap().len();
    let v2_bytes = std::fs::metadata(&v2).unwrap().len();
    assert_eq!(v1_bytes, 24 + 10_000 * 8);
    // All ids < 512 -> at most 2-byte varints, so v2 is at most half of v1
    // even with chunk/index overhead.
    assert!(v2_bytes * 2 < v1_bytes, "v2 {v2_bytes} vs v1 {v1_bytes}");

    let mut f = open_edge_stream(&v2, ReaderBackend::Buffered).unwrap();
    assert_eq!(collect(&mut *f), edges);
    std::fs::remove_file(&v1).ok();
    std::fs::remove_file(&v2).ok();
}

#[test]
fn corrupt_chunk_header_is_detected() {
    let path = tmp("corrupt-header", "bel2");
    let edges: Vec<Edge> = (0..500u32).map(|i| Edge::new(i, i + 1)).collect();
    write_v2_edge_list(&path, 512, edges.iter().copied(), 100).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Corrupt the first chunk's edge_count field (disagrees with the index).
    let off = HEADER_LEN_V2 as usize;
    bytes[off] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    for backend in ReaderBackend::ALL {
        let mut f = open_edge_stream(&path, backend).unwrap();
        let err = for_each_edge(&mut *f, |_| {}).expect_err("corrupt header must fail");
        assert!(err.to_string().contains("disagrees"), "{backend:?}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_chunk_is_detected() {
    let path = tmp("truncated", "bel2");
    let edges: Vec<Edge> = (0..500u32).map(|i| Edge::new(i, i + 1)).collect();
    write_v2_edge_list(&path, 512, edges.iter().copied(), 100).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Cut the file mid-chunk: the missing trailer is caught at open.
    std::fs::write(&path, &bytes[..HEADER_LEN_V2 as usize + 40]).unwrap();
    for backend in ReaderBackend::ALL {
        assert!(open_edge_stream(&path, backend).is_err(), "{backend:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_trailer_magic_is_detected() {
    let path = tmp("trailer", "bel2");
    write_v2_edge_list(&path, 16, (0..10u32).map(|i| Edge::new(i, i + 1)), 4).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 0xFF; // last byte of TRAILER_MAGIC
    std::fs::write(&path, &bytes).unwrap();
    let err = open_edge_stream(&path, ReaderBackend::Buffered)
        .err()
        .expect("bad trailer must fail");
    assert!(err.to_string().contains("trailer"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn index_inconsistent_with_header_is_detected() {
    let path = tmp("lyingindex", "bel2");
    write_v2_edge_list(&path, 16, (0..10u32).map(|i| Edge::new(i, i + 1)), 4).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Lie about the total edge count in the fixed header; the index sum
    // check at open must notice.
    bytes[16..24].copy_from_slice(&999u64.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = open_edge_stream(&path, ReaderBackend::Buffered)
        .err()
        .expect("lying header must fail");
    assert!(err.to_string().contains("promises"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// Checksum trailer coverage: TRAILER_LEN is part of the public contract.
#[test]
fn layout_constants_are_stable() {
    assert_eq!(HEADER_LEN_V2, 32);
    assert_eq!(CHUNK_HEADER_LEN, 12);
    assert_eq!(TRAILER_LEN, 24);
    assert_eq!(&MAGIC_V2, b"TPSBEL2\0");
    assert_eq!(&TRAILER_MAGIC, b"TPS2IDX\0");
}

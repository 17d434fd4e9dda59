//! `wire::read_frame` against a lying length prefix, measured with the
//! counting allocator. A binary of its own, with a single test: the
//! allocator's peak is process-wide, and nothing else may allocate while it
//! is read.

use std::io::{self, Cursor};

use tps_dist::protocol::{Message, RUN_BATCH_EDGES};
use tps_dist::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use tps_graph::types::Edge;
use tps_metrics::alloc::{measure_peak, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_frame_buffer_grows_with_the_bytes_received_not_the_bytes_promised() {
    // A header promising the largest frame the protocol allows, then ten
    // bytes, then the peer hangs up.
    let mut bytes = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(b"only ten b");
    let (result, peak) = measure_peak(|| read_frame(&mut Cursor::new(&bytes)));
    let err = result.unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    let promised = format!("truncated frame: promised {MAX_FRAME_LEN} bytes");
    assert!(err.to_string().contains(&promised), "{err}");
    assert!(peak < 2 << 20, "{peak} bytes allocated for a 10-byte body");

    // Complete frames arrive whole, in a buffer with no slack, the reader
    // left at the next frame: a full `Run` batch as the emit path ships
    // them (one step), and a degree table several steps long.
    let run = Message::Run {
        shard: 3,
        epoch: 1,
        batch: (0..RUN_BATCH_EDGES as u32)
            .map(|i| (Edge::new(i, i + 1), i % 7))
            .collect(),
    };
    let degrees = Message::Degrees {
        shard: 0,
        epoch: 0,
        degrees: (0..1_500_000).collect(),
    };
    let bodies = [run.encode(), degrees.encode()];
    assert!(bodies[0].len() < 1 << 20 && bodies[1].len() > 5 << 20);
    let mut framed = Vec::new();
    for body in &bodies {
        write_frame(&mut framed, body).unwrap();
    }
    let mut r = Cursor::new(&framed);
    for body in &bodies {
        let (frame, peak) = measure_peak(|| read_frame(&mut r).unwrap());
        assert_eq!(&frame, body);
        assert_eq!(frame.capacity(), body.len());
        assert!(
            peak <= 2 * body.len().max(1 << 20),
            "{peak} B for {}",
            body.len()
        );
    }
    assert_eq!(r.position() as usize, framed.len());
    match Message::decode(&bodies[0]).unwrap() {
        Message::Run { batch, .. } => assert_eq!(batch[8191], (Edge::new(8191, 8192), 1)),
        other => panic!("decoded {}", Message::tag_name(other.tag())),
    }
}

//! Edge-stream throughput: in-memory vs binary file vs device-model wrapped.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tps_graph::datasets::Dataset;
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::stream::for_each_edge;
use tps_storage::{DeviceModel, DeviceStream};

fn bench_streams(c: &mut Criterion) {
    let graph = Dataset::Ok.generate_scaled(0.1);
    let dir = std::env::temp_dir().join(format!("tps-bench-streams-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.bel");
    write_binary_edge_list(&path, graph.num_vertices(), graph.edges().iter().copied()).unwrap();

    let mut group = c.benchmark_group("stream_throughput");
    group.sample_size(20);
    group.throughput(Throughput::Elements(graph.num_edges()));
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            let mut s = graph.stream();
            let mut n = 0u64;
            for_each_edge(&mut s, |e| n += e.src as u64).unwrap();
            black_box(n)
        })
    });
    group.bench_function("binary_file", |b| {
        b.iter(|| {
            let mut s = tps_io::open_edge_stream(&path, tps_io::ReaderBackend::Buffered).unwrap();
            let mut n = 0u64;
            for_each_edge(&mut s, |e| n += e.src as u64).unwrap();
            black_box(n)
        })
    });
    group.bench_function("device_model_wrapped", |b| {
        b.iter(|| {
            let mut s = DeviceStream::new(graph.stream(), DeviceModel::ssd());
            let mut n = 0u64;
            for_each_edge(&mut s, |e| n += e.src as u64).unwrap();
            black_box((n, s.account().bytes))
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_streams);
criterion_main!(benches);

//! Criterion bench: CRC-32 throughput (DESIGN.md §20). Each row runs on a
//! 16 MiB buffer, about one halo message set or one snapshot shard of the
//! q = 1 two-rank run, so GB/s = 16.8 MB / (time per iter).

use criterion::{criterion_group, criterion_main, Criterion};
use gw_comm::crc::crc32;
use gw_comm::CrcBuf;

const BYTES: usize = 16 << 20;

fn bench_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let bytes: Vec<u8> = (0..BYTES).map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8).collect();
    group.bench_function("crc32-16MiB", |b| b.iter(|| crc32(&bytes)));
    // Serializing f64 blocks into a message and checksumming them in one
    // pass, as the halo sends and shard writes do.
    let words: Vec<f64> = (0..BYTES / 8).map(|i| i as f64 * 1e-3).collect();
    group.bench_function("crcbuf-put-f64s-16MiB", |b| {
        b.iter(|| {
            let mut buf = CrcBuf::with_capacity(BYTES);
            for block in words.chunks(343) {
                buf.put_f64s(block);
            }
            buf.crc()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_checksum);
criterion_main!(benches);

//! Criterion microbenchmarks of the tick's hot paths: wire encoding with
//! and without writer reuse, and the spatial-hash grid the interest phase
//! runs, with the literal quadratic scan as the comparison baseline.
//!
//! The grid numbers quantify the host-CPU win of [`rtfdemo::AoiGrid`];
//! the *virtual* cost charged to the scalability model stays quadratic
//! (see `DESIGN.md`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rtf_core::entity::{Rect, UserId, Vec2};
use rtf_core::event::Packet;
use rtf_core::wire::{Wire, WireWriter};
use rtfdemo::{compute_aoi, AoiGrid, CommandBatch, World};

fn state_update_packet() -> Packet {
    Packet::StateUpdate {
        user: UserId(7),
        tick: 1_234,
        payload: CommandBatch::movement(1.0, 0.5)
            .with_attack(UserId(9), 10)
            .to_bytes(),
    }
}

fn bench_wire_roundtrip(c: &mut Criterion) {
    let pkt = state_update_packet();
    let encoded = pkt.to_bytes();
    let mut group = c.benchmark_group("hotpath/wire");
    group.bench_function("encode_fresh", |b| b.iter(|| black_box(&pkt).to_bytes()));
    group.bench_function("encode_reused_writer", |b| {
        let mut w = WireWriter::with_capacity(256);
        b.iter(|| {
            w.clear();
            black_box(&pkt).encode(&mut w);
            w.copy_frame()
        })
    });
    group.bench_function("roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(&pkt).to_bytes();
            Packet::from_bytes(&bytes).unwrap()
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| Packet::from_bytes(black_box(&encoded)).unwrap())
    });
    group.finish();
}

/// Density-constant arena (as in the `scale` bench): the visible-set
/// size stays roughly flat while the population grows, which is exactly
/// the regime where the quadratic scan falls behind.
fn dense_world(n: u64) -> (World, Vec<(UserId, Vec2)>) {
    let side = 1000.0 * ((n.max(300) as f32) / 300.0).sqrt();
    let world = World {
        bounds: Rect::square(side),
        ..World::default()
    };
    let avatars: Vec<(UserId, Vec2)> = (0..n)
        .map(|i| (UserId(i), world.spawn_point(UserId(i))))
        .collect();
    (world, avatars)
}

fn bench_aoi(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/aoi");
    for n in [64u64, 512, 4096] {
        let (world, avatars) = dense_world(n);
        // The oracle: one observer's literal scan.
        group.bench_with_input(BenchmarkId::new("quadratic_baseline", n), &n, |b, _| {
            let (observer, pos) = avatars[0];
            b.iter(|| compute_aoi(&world, observer, black_box(&pos), avatars.iter().copied()))
        });
        // What a server tick runs: one rebuild serves every observer, so
        // a full tick is one rebuild + n queries, against n literal scans.
        group.bench_with_input(BenchmarkId::new("grid_query", n), &n, |b, _| {
            let mut grid = AoiGrid::default();
            grid.rebuild(&world, &avatars);
            let (observer, pos) = avatars[0];
            b.iter(|| grid.query(&world, observer, black_box(&pos), avatars.len() - 1))
        });
        group.bench_with_input(BenchmarkId::new("grid_rebuild", n), &n, |b, _| {
            let mut grid = AoiGrid::default();
            b.iter(|| grid.rebuild(&world, black_box(&avatars)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wire_roundtrip, bench_aoi);
criterion_main!(benches);

//! Criterion microbenchmarks for the sequence-alignment kernels — the
//! component that dominates FMSA's compile time (paper Fig. 13).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fmsa_align::{hirschberg, needleman_wunsch, ScoringScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_seq(seed: u64, len: usize, alphabet: u8) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
}

fn bench_alignment(c: &mut Criterion) {
    let scheme = ScoringScheme::default();
    let mut group = c.benchmark_group("alignment");
    for &len in &[64usize, 256, 1024] {
        let a = random_seq(1, len, 12);
        let b = random_seq(2, len, 12);
        group.bench_with_input(BenchmarkId::new("needleman-wunsch", len), &len, |bch, _| {
            bch.iter(|| needleman_wunsch(&a, &b, |x, y| x == y, &scheme));
        });
        group.bench_with_input(BenchmarkId::new("hirschberg", len), &len, |bch, _| {
            bch.iter(|| hirschberg(&a, &b, |x, y| x == y, &scheme));
        });
    }
    group.finish();
}

fn bench_alignment_similar_inputs(c: &mut Criterion) {
    // Near-identical sequences — the common case for ranked candidates.
    let scheme = ScoringScheme::default();
    let a = random_seq(3, 512, 12);
    let mut b = a.clone();
    for k in (0..b.len()).step_by(17) {
        b[k] = b[k].wrapping_add(1);
    }
    c.bench_function("alignment/nw-near-identical-512", |bch| {
        bch.iter(|| needleman_wunsch(&a, &b, |x, y| x == y, &scheme));
    });
}

criterion_group!(benches, bench_alignment, bench_alignment_similar_inputs);
criterion_main!(benches);

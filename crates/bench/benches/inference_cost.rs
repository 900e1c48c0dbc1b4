//! Microbenchmark: PIC inference cost (§5.2.2) — graph assembly plus one
//! forward pass, and the forward pass alone. Also reports graphs/sec for the
//! pre-optimization (naive kernels, per-call allocation) forward against the
//! tiled session-based forward, and, over the distinct schedule overlays of
//! one CTI, times the session forward of each applied graph against the
//! delta forward off one base pass and prints the share of hidden-state rows
//! the delta recomputes.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_corpus::StiFuzzer;
use snowcat_graph::{CtGraph, CtGraphBuilder, ScheduleOverlay};
use snowcat_kernel::{generate, GenConfig};
use snowcat_nn::{PicConfig, PicModel, PicSession};
use snowcat_vm::propose_hints;
use std::collections::HashSet;
use std::time::Instant;

fn bench_inference(c: &mut Criterion) {
    let kernel = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&kernel);
    let mut fz = StiFuzzer::new(&kernel, 1);
    fz.seed_each_syscall();
    fz.push_random(10);
    let corpus = fz.into_corpus();
    let a = &corpus[corpus.len() - 1];
    let b = &corpus[corpus.len() - 2];
    let builder = CtGraphBuilder::new(&kernel, &cfg);
    let base = builder.build_base(&a.seq, &b.seq);
    let model = PicModel::new(PicConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
    let graph = builder.with_schedule(&base, &a.seq, &b.seq, &hints);

    c.bench_function("pic_forward_naive", |bch| {
        bch.iter(|| snowcat_bench::naive_forward(&model, &graph))
    });

    c.bench_function("pic_forward_only", |bch| bch.iter(|| model.forward(&graph)));

    let mut session = PicSession::new();
    let mut probs = Vec::new();
    c.bench_function("pic_forward_session", |bch| {
        bch.iter(|| {
            model.forward_into(&graph, &mut session, &mut probs);
            probs.len()
        })
    });

    // The distinct overlays among one CTI's 1,600 proposals (MLPCT's
    // inference cap), scored both ways.
    let mut overlay_rng = ChaCha8Rng::seed_from_u64(5);
    let mut seen = HashSet::new();
    let overlays: Vec<ScheduleOverlay> = (0..1600)
        .filter_map(|_| {
            let hints = propose_hints(&mut overlay_rng, a.seq.steps, b.seq.steps);
            let overlay = builder.schedule_overlay(&base, &a.seq, &b.seq, &hints);
            seen.insert(overlay.edges().to_vec()).then_some(overlay)
        })
        .collect();
    let applied: Vec<CtGraph> = overlays.iter().map(|o| o.apply(&base)).collect();
    c.bench_function("pic_forward_session_cti", |bch| {
        bch.iter(|| {
            for g in &applied {
                model.forward_into(g, &mut session, &mut probs);
            }
        })
    });
    let mut delta_session = PicSession::new();
    let mut delta_cti = || {
        model.forward_base(&base, &mut delta_session);
        let mut rows = 0;
        for o in &overlays {
            model.forward_overlay(&base, o, &mut delta_session);
            rows += delta_session.recomputed_rows();
        }
        rows
    };
    c.bench_function("pic_forward_delta", |bch| bch.iter(&mut delta_cti));
    let rows = delta_cti();
    let full_rows = overlays.len() * (model.cfg.layers + 1) * base.num_verts();
    println!(
        "{} distinct overlays of a {}-vertex CTI: the delta recomputes {rows} of {full_rows} \
         hidden-state rows ({:.0}%)",
        overlays.len(),
        base.num_verts(),
        100.0 * rows as f64 / full_rows as f64
    );

    c.bench_function("pic_inference_with_graph_assembly", |bch| {
        bch.iter(|| {
            let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
            let g = builder.with_schedule(&base, &a.seq, &b.seq, &hints);
            model.forward(&g)
        })
    });

    // Before/after throughput summary: graphs/sec of the pre-optimization
    // forward vs the session-based forward on the same graph.
    let throughput = |mut f: Box<dyn FnMut() + '_>| {
        f();
        let t0 = Instant::now();
        let mut iters = 0u64;
        while iters < 30 || t0.elapsed().as_millis() < 1500 {
            f();
            iters += 1;
        }
        iters as f64 / t0.elapsed().as_secs_f64()
    };
    let naive = throughput(Box::new(|| {
        std::hint::black_box(snowcat_bench::naive_forward(&model, &graph));
    }));
    let tiled = throughput(Box::new(|| {
        model.forward_into(&graph, &mut session, &mut probs);
        std::hint::black_box(&probs);
    }));
    println!(
        "graphs/sec: naive {naive:.0} -> session {tiled:.0} ({:.2}x end-to-end)",
        tiled / naive
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_inference
}
criterion_main!(benches);

//! `topk-batch`: offline recommend-for-all through
//! `TopKIndex::query_batch_stats`, in slices of 256 queries over a fixed
//! list of users.  No batcher, no cache, no training in the measured part.
//!
//! Main op: one 256-query `query_batch_stats` call.  Side op: one pass
//! over the whole user list.

use crate::catalog::{self, Catalog, K};
use crate::report::{median, quantile, Report};
use crate::{repeat_setup, Ctx, Outcome};
use cumf_linalg::topk::DEFAULT_ITEM_BLOCK;
use cumf_serve::{PruneStats, Query, ScoreKind, TopKIndex};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const LIST_USERS: usize = 4096;
const SLICE: usize = 256;
const RECALL_SAMPLE: usize = 64;

struct Setup {
    catalog: Catalog,
    index: TopKIndex,
    build_s: f64,
}

/// Figures of one measured phase.
#[derive(Default)]
struct Passes {
    pass_ms: Vec<f64>,
    slice_ms: Vec<f64>,
    stats: PruneStats,
    queries: u64,
}

fn run_passes(
    ctx: &Ctx,
    index: &TopKIndex,
    queries: &[Query],
    seconds: f64,
    traced: bool,
) -> (Passes, Vec<Vec<(u32, f32)>>) {
    let tracer = &ctx.tracer;
    let mut out = Passes::default();
    let mut first = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let parent = if traced {
            tracer.start("pass", None, None)
        } else {
            None
        };
        let parent_id = parent.as_ref().map(|o| o.id);
        let mut results = Vec::with_capacity(queries.len());
        for slice in queries.chunks(SLICE) {
            let s0 = Instant::now();
            let span = if traced {
                tracer.start("query_batch_stats", parent_id, None)
            } else {
                None
            };
            let (r, stats) = index.query_batch_stats(std::hint::black_box(slice));
            tracer.finish(span);
            out.slice_ms.push(s0.elapsed().as_secs_f64() * 1e3);
            out.stats.merge(&stats);
            out.queries += slice.len() as u64;
            results.extend(r);
        }
        tracer.finish(parent);
        out.pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if first.is_empty() {
            first = results;
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (out, first)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Outcome {
    let (s, setup_s) = repeat_setup(ctx, || {
        let catalog = Catalog::build(ctx.seed);
        let (snap, build_s) = catalog.snapshot();
        let index = TopKIndex::new(Arc::new(snap), DEFAULT_ITEM_BLOCK, ScoreKind::Dot);
        Setup {
            catalog,
            index,
            build_s,
        }
    });
    s.catalog.stamp(report);
    report.stamp_num("list_users", LIST_USERS as f64);
    report.stamp_num("slice", SLICE as f64);
    report.stamp_num("item_block", DEFAULT_ITEM_BLOCK as f64);
    report.figure("serve.snapshot.build_s", s.build_s, "s");

    // The fixed user list: distinct users drawn from the seed.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xBA7C);
    let mut users: Vec<u32> = (0..catalog::USERS).collect();
    for i in 0..LIST_USERS {
        let j = rng.random_range(i..users.len());
        users.swap(i, j);
    }
    users.truncate(LIST_USERS);
    let queries: Vec<Query> = users
        .iter()
        .map(|&u| Query {
            user: u,
            k: K,
            exclude: s.catalog.seen(u).to_vec(),
        })
        .collect();

    let untraced_seconds = if ctx.traced() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (passes, first) = run_passes(ctx, &s.index, &queries, untraced_seconds, false);
    let mut layers = BTreeMap::new();
    if ctx.traced() {
        let (traced, _) = run_passes(ctx, &s.index, &queries, ctx.seconds / 2.0, true);
        let spans = ctx.tracer.spans();
        let calls = crate::trace::durations_ms(&spans, "query_batch_stats");
        let call_s: f64 = calls.iter().sum::<f64>() * 1e-3;
        let st = &traced.stats;
        let visited = (st.blocks_scored + st.blocks_pruned + st.blocks_terminated) as f64;
        let q = traced.queries as f64;
        layers.insert("serve.topk.call_p50_ms", median(&calls));
        layers.insert("serve.topk.call_p99_ms", quantile(&calls, 0.99));
        layers.insert(
            "serve.topk.blocks_scored_per_query",
            st.blocks_scored as f64 / q,
        );
        layers.insert(
            "serve.topk.pruned_block_rate",
            st.blocks_pruned as f64 / visited,
        );
        layers.insert("serve.topk.bytes_per_query", st.bytes_scanned as f64 / q);
        layers.insert("linalg.scan_gbps", st.bytes_scanned as f64 / call_s * 1e-9);
        layers.insert("data.generate_s", s.catalog.generate_s);
        layers.insert("core.als.fit_s", s.catalog.fit_s);
        layers.insert("serve.snapshot.build_s", s.build_s);
        let untraced = median(&passes.slice_ms);
        layers.insert("trace.untraced_main_p50_ms", untraced);
        layers.insert(
            "trace.overhead_frac",
            median(&traced.slice_ms) / untraced - 1.0,
        );
    }

    // Correctness: every list is k items outside the exclusions, and a
    // fixed sample agrees with the brute-force scorer.
    let bad = queries
        .iter()
        .zip(&first)
        .filter(|(q, r)| !catalog::response_ok(r, K, &q.exclude))
        .count();
    report.gate(bad == 0, || {
        format!("{bad} result lists were short or held excluded items")
    });
    let snap = s.index.snapshot();
    let theta = snap.item_factors_matrix();
    let (mut hits, mut near_ties, mut misses) = (0, 0, 0);
    for i in (0..queries.len()).step_by(queries.len() / RECALL_SAMPLE) {
        let q = &queries[i];
        let user = snap.user_vector(q.user).expect("listed user exists");
        let expect = catalog::brute_top_k(user, &theta, K, &q.exclude);
        let a = catalog::agreement(&first[i], &expect, user, &theta);
        hits += a.hits;
        near_ties += a.near_ties;
        misses += a.misses;
    }
    let checked = (hits + near_ties + misses) as f64;
    report.gate(misses == 0, || {
        format!("{misses} served items are not in the exact top-{K}")
    });
    report.figure("recall_at_10", hits as f64 / checked, "fraction");
    report.figure("recall_near_tie_mismatches", near_ties as f64, "count");
    let total_s: f64 = passes.slice_ms.iter().sum::<f64>() * 1e-3;
    report.figure("batch_recs_per_s", passes.queries as f64 / total_s, "1/s");
    report.figure(
        "serve.topk.bytes_per_query",
        passes.stats.bytes_scanned as f64 / passes.queries as f64,
        "bytes",
    );
    report.phase("slices", passes.slice_ms.len() as u64, 0);
    report.phase("recall_sample", RECALL_SAMPLE as u64, 0);

    Outcome {
        setup_s,
        main_ms: passes.slice_ms,
        side_ms: passes.pass_ms,
        layers,
    }
}

//! Micro-benchmarks of the flattened tick-path machinery: span-arena list
//! churn vs the old `Vec<Vec<…>>` layout, the branchless monotone-bits
//! expansion heap, the shared multi-k expansion, GMA's within-sequence
//! evaluation (the merge), `apply_batch`'s coalescing, and the shard side
//! of an engine↔shard exchange.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rnn_core::anchor::AnchorSet;
use rnn_core::counters::OpCounters;
use rnn_core::state::NetworkState;
use rnn_core::tree::TreePool;
use rnn_core::types::{ObjectEvent, QueryEvent, RootPos, UpdateBatch, UpdateEvent};
use rnn_core::{ContinuousMonitor, Gma};
use rnn_engine::{BatchKind, DeltaBatch, ShardTickState};
use rnn_roadnet::{
    generators, DijkstraEngine, EdgeId, NetPoint, NodeId, ObjectId, QueryId, RoadNetworkBuilder,
    SpanArena,
};
use std::sync::Arc;

fn tickpath(c: &mut Criterion) {
    let net = generators::san_francisco_like(2_000, 7);
    let mut group = c.benchmark_group("tickpath");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));

    // Steady-state list churn: arena spans vs per-edge Vecs.
    let slots = 1_000usize;
    group.bench_function("arena_churn", |b| {
        let mut arena: SpanArena<(ObjectId, f64)> = SpanArena::new(slots);
        let mut i = 0u32;
        b.iter(|| {
            for _ in 0..64 {
                let s = (i as usize * 37) % slots;
                arena.push(s, (ObjectId(i), 0.5));
                if arena.len_of(s) > 4 {
                    arena.swap_remove(s, 0);
                }
                i = i.wrapping_add(1);
            }
            arena.alloc_events()
        })
    });

    group.bench_function("vecvec_churn", |b| {
        let mut lists: Vec<Vec<(ObjectId, f64)>> = vec![Vec::new(); slots];
        let mut i = 0u32;
        b.iter(|| {
            for _ in 0..64 {
                let s = (i as usize * 37) % slots;
                lists[s].push((ObjectId(i), 0.5));
                if lists[s].len() > 4 {
                    lists[s].swap_remove(0);
                }
                i = i.wrapping_add(1);
            }
            lists.len()
        })
    });

    // Tree surgery in the arena-of-trees: cut a deep subtree and re-grow
    // it, all through the pool's free list — the per-tick IMA maintenance
    // pattern — against the pre-pool hash-map-of-Vec layout doing the
    // same cut/re-grow.
    group.bench_function("tree_surgery", |b| {
        let mut pool = TreePool::new();
        let mut tree = pool.new_tree();
        pool.insert(&mut tree, NodeId(0), 0.0, None);
        for i in 1..256u32 {
            pool.insert(
                &mut tree,
                NodeId(i),
                f64::from(i),
                Some((NodeId(i - 1), EdgeId(i - 1))),
            );
        }
        b.iter(|| {
            // Cut the outer half of the path, then re-expand it: every
            // re-insert pops the free list.
            let cut = pool.remove_subtree(&mut tree, NodeId(128));
            for i in 128..256u32 {
                pool.insert(
                    &mut tree,
                    NodeId(i),
                    f64::from(i),
                    Some((NodeId(i - 1), EdgeId(i - 1))),
                );
            }
            cut + tree.len()
        })
    });

    // The same pre-pool layout also serves as the correctness oracle in
    // tests/properties.rs (`tree_pool_model::RefTree`, over std HashMap);
    // this copy deliberately keeps the production FxHashMap so the timing
    // comparison is against what the monitors actually used to run.
    group.bench_function("tree_surgery_hashmap", |b| {
        use rnn_roadnet::FxHashMap;
        struct Rec {
            #[allow(dead_code)]
            parent: Option<(u32, u32)>,
            children: Vec<(u32, u32)>,
        }
        let mut nodes: FxHashMap<u32, Rec> = FxHashMap::default();
        nodes.insert(
            0,
            Rec {
                parent: None,
                children: Vec::new(),
            },
        );
        for i in 1..256u32 {
            nodes.get_mut(&(i - 1)).unwrap().children.push((i, i - 1));
            nodes.insert(
                i,
                Rec {
                    parent: Some((i - 1, i - 1)),
                    children: Vec::new(),
                },
            );
        }
        b.iter(|| {
            // Same cut + re-grow on the old layout: per-node map removals
            // and a fresh `Vec` per re-inserted node.
            let mut stack = vec![128u32];
            if let Some(p) = nodes.get_mut(&127) {
                p.children.retain(|&(c, _)| c != 128);
            }
            let mut cut = 0usize;
            while let Some(cur) = stack.pop() {
                if let Some(rec) = nodes.remove(&cur) {
                    cut += 1;
                    stack.extend(rec.children.iter().map(|&(c, _)| c));
                }
            }
            for i in 128..256u32 {
                nodes.get_mut(&(i - 1)).unwrap().children.push((i, i - 1));
                nodes.insert(
                    i,
                    Rec {
                        parent: Some((i - 1, i - 1)),
                        children: Vec::new(),
                    },
                );
            }
            cut + nodes.len()
        })
    });

    // Branchless heap: one bounded expansion per iteration, reusing the
    // engine (the hot configuration of every monitor).
    let weights = rnn_roadnet::EdgeWeights::from_base(&net);
    group.bench_function("expansion_reuse", |b| {
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let r = 8.0 * net.avg_base_weight();
        let mut s = 0u32;
        b.iter(|| {
            let src = NodeId(s % net.num_nodes() as u32);
            s = s.wrapping_add(17);
            eng.sssp(&net, &weights, src, Some(r)).len()
        })
    });

    // Shared multi-k expansion: five co-rooted anchors re-rooted together.
    group.bench_function("co_rooted_tick", |b| {
        let net = Arc::new(generators::san_francisco_like(500, 3));
        let mut state = NetworkState::new(&net);
        for e in net.edge_ids() {
            state.objects.insert(ObjectId(e.0), NetPoint::new(e, 0.5));
        }
        let mut set = AnchorSet::new(net.clone());
        let mut cnt = OpCounters::default();
        let p = RootPos::Point(NetPoint::new(EdgeId(0), 0.5));
        let keys: Vec<_> = (0..5)
            .map(|i| set.add(&state, p, 1 + i % 4, &mut cnt))
            .collect();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let to = RootPos::Point(NetPoint::new(EdgeId(if flip { 40 } else { 0 }), 0.5));
            let moves: Vec<_> = keys.iter().map(|&k| (k, to)).collect();
            set.tick(&state, &[], &[], &moves).shared_expansions
        })
    });

    // GMA's within-sequence evaluation: 32 queries on one 33-edge sequence
    // between two intersections, each nudged along its edge every
    // iteration — 32 re-evaluations (walk, sort, merge with both endpoint
    // NN sets, influence rewrite) and no active-node work. Sparse: the
    // walk finds fewer than k objects and reads deep into the endpoint
    // sets; dense: the walk stops after an edge or two.
    for (density, per_edge) in [("sparse", 1usize), ("dense", 20)] {
        for k in [10usize, 50] {
            group.bench_function(format!("gma_eval/{density}/k{k}"), |b| {
                let mut nb = RoadNetworkBuilder::new();
                let path: Vec<_> = (0..34).map(|i| nb.add_node(f64::from(i), 0.0)).collect();
                for (hub, x) in [(path[0], -1.0), (path[33], 34.0)] {
                    for y in [-1.0, 1.0] {
                        let leaf = nb.add_node(x, y);
                        nb.add_edge_euclidean(hub, leaf);
                    }
                }
                let first = nb.add_edge_euclidean(path[0], path[1]);
                for i in 1..33 {
                    nb.add_edge_euclidean(path[i], path[i + 1]);
                }
                let net = Arc::new(nb.build().expect("connected"));
                let mut gma = Gma::new(net.clone());
                let mut id = 0u32;
                for e in net.edge_ids() {
                    for j in 0..per_edge.max(if e.0 < first.0 { 30 } else { 0 }) {
                        let frac = (j as f64 + 0.5) / 30.0_f64.max(per_edge as f64);
                        gma.apply(UpdateEvent::insert_object(
                            ObjectId(id),
                            NetPoint::new(e, frac),
                        ));
                        id += 1;
                    }
                }
                for q in 0..32u32 {
                    gma.apply(UpdateEvent::install_query(
                        QueryId(q),
                        k,
                        NetPoint::new(EdgeId(first.0 + q), 0.4),
                    ));
                }
                let mut flip = false;
                b.iter(|| {
                    flip = !flip;
                    let frac = if flip { 0.6 } else { 0.4 };
                    let batch = UpdateBatch {
                        queries: (0..32u32)
                            .map(|q| QueryEvent::Move {
                                id: QueryId(q),
                                to: NetPoint::new(EdgeId(first.0 + q), frac),
                            })
                            .collect(),
                        ..Default::default()
                    };
                    gma.tick(&batch).counters.reevaluations
                })
            });
        }
    }

    // §4.5 preprocessing: 10K object moves per batch, every tenth id moved
    // a second time later in the same batch, over 50K resident objects.
    group.bench_function("apply_batch/10k_moves", |b| {
        let edges = net.num_edges() as u32;
        let mut state = NetworkState::new(&net);
        for i in 0..50_000u32 {
            state
                .objects
                .insert(ObjectId(i), NetPoint::new(EdgeId(i % edges), 0.5));
        }
        let batch_to = |shift: u32, frac: f64| {
            let to = |i: u32| NetPoint::new(EdgeId((i * 7 + shift) % edges), frac);
            let mut batch = UpdateBatch::default();
            for i in 0..9_000u32 {
                batch.objects.push(ObjectEvent::Move {
                    id: ObjectId(i * 5),
                    to: to(i),
                });
            }
            for i in 0..1_000u32 {
                batch.objects.push(ObjectEvent::Move {
                    id: ObjectId(i * 50),
                    to: to(i + 1),
                });
            }
            batch
        };
        let batches = [batch_to(1, 0.25), batch_to(2, 0.75)];
        let mut flip = 0;
        b.iter(|| {
            flip ^= 1;
            state.apply_batch(&batches[flip]).objects.len()
        })
    });

    group.finish();
}

/// The shard side of an exchange — `ShardTickState::run_tick` over a real
/// `Gma` serving 5K queries (Table 2's Q): what an exchange costs must
/// follow what it ships, not how many queries the shard serves. Each case
/// asserts it ships what its name says.
fn shard_exchange(c: &mut Criterion) {
    const QUERIES: u32 = 5_000;
    let net = Arc::new(generators::san_francisco_like(2_000, 7));
    let edges = net.num_edges() as u32;
    let delta = |objects: Vec<ObjectEvent>, queries: Vec<QueryEvent>| DeltaBatch {
        objects,
        queries,
        shared_edges: Arc::new(Vec::new()),
        kind: BatchKind::Tick,
    };
    let populated = |per_edge: u32| {
        let mut gma = Gma::new(net.clone());
        for i in 0..edges * per_edge {
            let at = NetPoint::new(EdgeId(i % edges), (f64::from(i / edges) + 0.5) / 8.0);
            gma.apply(UpdateEvent::insert_object(ObjectId(i), at));
        }
        gma
    };
    let install = |q: u32, k: usize| QueryEvent::Install {
        id: QueryId(q),
        k,
        at: NetPoint::new(EdgeId(q * 7 % edges), 0.45),
    };
    let serving = |k: usize, per_edge: u32| {
        let (mut gma, mut shard) = (populated(per_edge), ShardTickState::new());
        let all = (0..QUERIES).map(|q| install(q, k)).collect();
        let out = shard.run_tick(&mut gma, delta(vec![], all), false);
        assert_eq!(out.snapshots.len(), QUERIES as usize);
        (gma, shard)
    };
    let mut group = c.benchmark_group("shard_exchange");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));

    // 5K single-install exchanges — 5K `apply(Install)` calls, as a shard
    // sees them: each ships the one query it installed.
    group.bench_function("install_5k", |b| {
        b.iter_batched(
            || (populated(1), ShardTickState::new()),
            |(mut gma, mut shard)| {
                for q in 0..QUERIES {
                    let out = shard.run_tick(&mut gma, delta(vec![], vec![install(q, 10)]), false);
                    assert_eq!(out.snapshots.len(), 1);
                }
                gma.query_ids().len()
            },
            BatchSize::LargeInput,
        )
    });

    // One query of 5K nudged along its edge: one snapshot ships.
    group.bench_function("one_changed_of_5k", |b| {
        let (mut gma, mut shard) = serving(10, 1);
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let to = NetPoint::new(EdgeId(0), if flip { 0.55 } else { 0.45 });
            let nudge = vec![QueryEvent::Move { id: QueryId(0), to }];
            let out = shard.run_tick(&mut gma, delta(vec![], nudge), false);
            assert_eq!(out.snapshots.len(), 1);
            out.snapshots.len()
        })
    });

    // Every query nudged at k = 50 (Table 2's k, what a paper-scale tick
    // looks like to a shard): all 5K ship, 50 neighbours each, copied once.
    group.bench_function("all_changed_k50", |b| {
        let (mut gma, mut shard) = serving(50, 4);
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let frac = if flip { 0.55 } else { 0.45 };
            let nudges = (0..QUERIES)
                .map(|q| QueryEvent::Move {
                    id: QueryId(q),
                    to: NetPoint::new(EdgeId(q * 7 % edges), frac),
                })
                .collect();
            let out = shard.run_tick(&mut gma, delta(vec![], nudges), false);
            assert_eq!(out.snapshots.len(), QUERIES as usize);
            assert!(out.snapshots.iter().all(|s| s.result.len() == 50));
            out.snapshots.len()
        })
    });

    group.finish();
}

criterion_group!(benches, tickpath, shard_exchange);
criterion_main!(benches);

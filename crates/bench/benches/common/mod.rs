//! Shared helper for the per-figure Criterion benches: steady-state tick
//! benchmarking of each algorithm at each point of a figure's sweep.

use criterion::{BenchmarkId, Criterion};
use rnn_bench::figure_by_name;
use rnn_bench::runner::make_monitor;
use rnn_workload::Scenario;

/// Benches every `(point, algorithm)` cell of `figure` at the given scale:
/// the measured unit is *one timestamp* of steady-state maintenance (the
/// paper's y-axis).
pub fn bench_figure(c: &mut Criterion, figure: &str, scale: f64) {
    let fig = figure_by_name(figure).expect("known figure");
    let mut group = c.benchmark_group(figure);
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    for (label, params) in (fig.points)(scale, 42) {
        let net = params.build_network();
        for &stack in fig.stacks {
            let mut scenario = Scenario::new(net.clone(), params.scenario_config());
            let mut monitor = make_monitor(stack, net.clone(), &params);
            scenario.install_into(monitor.as_mut());
            // A couple of warm-up ticks so trees/lists reach steady state.
            for _ in 0..2 {
                let b = scenario.tick();
                monitor.tick(&b);
            }
            group.bench_with_input(BenchmarkId::new(stack.name(), &label), &(), |b, _| {
                b.iter(|| {
                    let batch = scenario.tick();
                    monitor.tick(&batch)
                })
            });
        }
    }
    group.finish();
}

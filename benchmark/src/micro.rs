//! The cost of one call into each layer, measured on the workload's own
//! types once the timed passes are over.

use crate::adapter::{self, Config, Pool, Workload};
use crate::host;
use crate::metrics::Readings;
use crate::stats::{median, summarize};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Batches each per-operation cost is the median of.
const BATCHES: usize = 5;

/// Median over batches of the nanoseconds one `op` takes, `iters` calls
/// to a batch.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                op(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// What the micro measurements need of the workload under test.
pub struct Subject<'a, W: Workload> {
    pub workload: &'a W,
    pub config: Config,
    pub inputs: usize,
    pub seed: u64,
    pub workers: usize,
    /// A state the workload actually reaches.
    pub final_state: &'a W::State,
}

pub fn measure<W: Workload>(s: &Subject<'_, W>, out: &mut Readings) {
    workload_ops(s, out);
    rng_planner_snapshot(s, out);
    pool(s, out);
    channel(out);
    fault(s, out);
    telemetry(out);
}

fn workload_ops<W: Workload>(s: &Subject<'_, W>, out: &mut Readings) {
    let twin = adapter::state_clone::<W>(s.final_state);
    out.set(
        "workloads.states_match_ns",
        ns_per_op(2_000, |_| {
            black_box(adapter::states_match(
                s.workload,
                black_box(s.final_state),
                &twin,
            ));
        }),
    );
    out.set(
        "workloads.state_clone_ns",
        ns_per_op(2_000, |_| {
            black_box(adapter::state_clone::<W>(black_box(s.final_state)));
        }),
    );
}

fn rng_planner_snapshot<W: Workload>(s: &Subject<'_, W>, out: &mut Readings) {
    out.set(
        "rng.derive_ns",
        ns_per_op(20_000, |i| {
            black_box(adapter::rng_derive(black_box(s.seed), i));
        }),
    );
    let mut rng = adapter::rng_derive(s.seed, 0);
    out.set(
        "rng.unit_ns",
        ns_per_op(200_000, |_| {
            black_box(adapter::rng_unit(&mut rng));
        }),
    );
    out.set(
        "planner.plan_balanced_ns",
        ns_per_op(5_000, |_| {
            black_box(adapter::plan_balanced(black_box(s.inputs), s.config.chunks));
        }),
    );
    let mut cow = adapter::cow_new(adapter::state_bytes(s.workload));
    out.set(
        "snapshot.cow_fork_ns",
        ns_per_op(20_000, |_| {
            black_box(adapter::cow_fork(&mut cow));
        }),
    );
    out.set(
        "snapshot.cow_make_mut_ns",
        ns_per_op(2_000, |_| {
            // The fork shares the payload, so this write materializes it.
            let fork = adapter::cow_fork(&mut cow);
            adapter::cow_make_mut(&mut cow)[0] ^= 1;
            black_box(fork);
        }),
    );
}

/// Long enough for an idle worker to park on the pool's condvar.
const PARK: Duration = Duration::from_micros(60);

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn pool<W: Workload>(s: &Subject<'_, W>, out: &mut Readings) {
    let constructions: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            drop(black_box(adapter::pool_new(s.workers)));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("pool.new_drop_us", median(&constructions));

    let pool = crate::harness::pinned_pool(s.workers);
    const EMPTY_TASKS: usize = 20_000;
    let floods: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            adapter::pool_scope(&pool, |scope| {
                for _ in 0..EMPTY_TASKS {
                    scope.spawn(|| {});
                }
            });
            t.elapsed().as_nanos() as f64 / EMPTY_TASKS as f64
        })
        .collect();
    out.set("pool.empty_task_ns", median(&floods));

    // One task into an idle pool: stamped before `spawn`, and first thing
    // in the task.
    let epoch = Instant::now();
    let mut wake = Vec::with_capacity(2_000);
    let mut roundtrip = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        std::thread::sleep(PARK);
        let started = AtomicU64::new(0);
        let before = now_ns(epoch);
        adapter::pool_scope(&pool, |scope| {
            scope.spawn(|| started.store(now_ns(epoch), Ordering::Relaxed));
        });
        roundtrip.push((now_ns(epoch) - before) as f64);
        wake.push(started.load(Ordering::Relaxed).saturating_sub(before) as f64);
    }
    let wake = summarize(&wake);
    out.set("pool.spawn_to_start_ns_p50", wake.median);
    debug_assert_eq!(wake.tail_percentile, 99.0);
    out.set("pool.spawn_to_start_ns_p99", wake.tail);
    out.set("pool.scope_roundtrip_ns", median(&roundtrip));

    out.set(
        "pool.urgent_overtake_ns_p50",
        urgent_overtake(&pool, s.workers, epoch),
    );

    let list = adapter::state_free_list::<W::State>(4);
    out.set(
        "pool.state_recycle_ns",
        ns_per_op(2_000, |_| {
            adapter::state_copy_and_recycle(&list, black_box(s.final_state));
        }),
    );
}

/// `spawn_urgent` to start, with 1 000 normal tasks queued ahead of it.
/// Every worker is held on a gate while the queue fills, so the urgent
/// task is always spawned behind the full backlog; the clock runs from
/// just before `spawn_urgent`, and the gate opens right after.
fn urgent_overtake(pool: &Pool, workers: usize, epoch: Instant) -> f64 {
    const BACKLOG: usize = 1_000;
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let gate = AtomicBool::new(false);
            let started = AtomicU64::new(0);
            let before = adapter::pool_scope(pool, |scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while !gate.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                    });
                }
                for _ in 0..BACKLOG {
                    scope.spawn(|| {});
                }
                let before = now_ns(epoch);
                scope.spawn_urgent(|| started.store(now_ns(epoch), Ordering::Relaxed));
                gate.store(true, Ordering::Release);
                before
            });
            started.load(Ordering::Relaxed).saturating_sub(before) as f64
        })
        .collect();
    median(&samples)
}

fn channel(out: &mut Readings) {
    out.set(
        "channel.create_ns",
        ns_per_op(20_000, |_| {
            black_box(adapter::channel::<u64>(1));
        }),
    );
    let (tx, rx) = adapter::channel::<u64>(1);
    out.set(
        "channel.same_thread_ns",
        ns_per_op(20_000, |i| {
            adapter::channel_send(&tx, i as u64);
            black_box(adapter::channel_recv(&rx));
        }),
    );

    // Two threads, two channels: a round trip is two hops. The other
    // thread sits on the second core, as a worker reporting to the
    // coordinator does.
    const ROUND_TRIPS: usize = 5_000;
    let (ping_tx, ping_rx) = adapter::channel::<u64>(1);
    let (pong_tx, pong_rx) = adapter::channel::<u64>(1);
    let hop = std::thread::scope(|scope| {
        let before = host::thread_ids();
        scope.spawn(move || {
            while let Some(v) = adapter::channel_recv(&ping_rx) {
                adapter::channel_send(&pong_tx, v);
            }
        });
        host::pin_new_threads(&before, 1);
        let hop = ns_per_op(ROUND_TRIPS, |i| {
            adapter::channel_send(&ping_tx, i as u64);
            black_box(adapter::channel_recv(&pong_rx));
        }) / 2.0;
        drop(ping_tx);
        hop
    });
    out.set("channel.hop_ns", hop);
}

/// Injections in the plan the fault metrics are measured on (the
/// `recovery-path` plan's size).
pub const FAULT_INJECTIONS: usize = 24;

fn fault<W: Workload>(s: &Subject<'_, W>, out: &mut Readings) {
    out.set(
        "fault.plan_seeded_us",
        ns_per_op(200, |i| {
            let plan =
                adapter::fault_plan(s.seed ^ i as u64, FAULT_INJECTIONS, &s.config, s.inputs);
            black_box(plan);
        }) / 1e3,
    );
    let plan = adapter::fault_plan(s.seed, FAULT_INJECTIONS, &s.config, s.inputs);
    out.set(
        "fault.fires_miss_ns",
        ns_per_op(20_000, |_| {
            black_box(adapter::fault_fires_miss(black_box(&plan)));
        }),
    );
}

fn telemetry(out: &mut Readings) {
    let sink = adapter::counting_sink(4);
    out.set(
        "telemetry.counter_add_ns",
        ns_per_op(200_000, |_| adapter::sink_counter_add(&sink)),
    );
    out.set(
        "telemetry.snapshot_us",
        ns_per_op(2_000, |_| {
            black_box(adapter::sink_snapshot(&sink));
        }) / 1e3,
    );

    const RECORDS: usize = 10_000;
    let profiler = adapter::profiler_new(RECORDS);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..RECORDS {
                adapter::profiler_record(&profiler, i, i as u64);
            }
            let ns = t.elapsed().as_nanos() as f64 / RECORDS as f64;
            assert_eq!(adapter::profiler_reset(&profiler), RECORDS);
            ns
        })
        .collect();
    out.set("telemetry.span_record_ns", median(&batches));

    let events = adapter::event_sink();
    out.set(
        "telemetry.event_ns",
        ns_per_op(5_000, |i| adapter::sink_event(&events, i)),
    );
}

//! Allocation counts of the particle-filter and streamcluster kernels and
//! of the point-stream generator, with no clock in them.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel in this binary cannot pollute each other's counts.
//! The counts repeat exactly from run to run: they pin that a filter step
//! allocates per generation, not per particle, that a center set
//! allocates per set, not per center, and that a point batch is one
//! buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stats_core::rng::StatsRng;
use stats_core::runtime::sequential::run_sequential;
use stats_workloads::facedet_and_track::FaceDetAndTrack;
use stats_workloads::particle::ParticleCloud;
use stats_workloads::streamcluster::{Centers, StreamCluster};
use stats_workloads::suite::Workload;
use stats_workloads::synth::PointStreamConfig;

// stats-analyzer: allow(ND004): allocation counter of this test binary's allocator, not workload state.
thread_local! {
    // stats-analyzer: allow(ND004): test instrumentation, see above.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on
/// the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: the slot is gone while the thread's locals are being
    // destroyed, and allocations then go uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell`, whose access never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of one three-layer filter step on a warmed-up cloud.
fn step_allocations(n: usize, dims: usize) -> u64 {
    let mut cloud = ParticleCloud::fresh(n, dims, 3);
    let mut rng = StatsRng::from_seed_value(5);
    let observation = vec![0.2; dims];
    cloud.step(&observation, 0.05, 0.1, 3, &mut rng);
    allocations_in(|| {
        cloud.step(&observation, 0.05, 0.1, 3, &mut rng);
    })
}

#[test]
fn filter_step_allocations_do_not_grow_with_the_particle_count() {
    for dims in [2, 16] {
        let small = step_allocations(64, dims);
        let large = step_allocations(1024, dims);
        assert!(small > 0, "dims {dims}: the counter saw nothing");
        assert_eq!(small, large, "dims {dims}: 64 vs 1024 particles");
    }
}

#[test]
fn facedet_and_track_allocates_at_most_16_times_per_input() {
    let w = FaceDetAndTrack::paper();
    let inputs = w.generate_inputs(300, 1);
    let allocations = allocations_in(|| {
        run_sequential(&w, &inputs, 1);
    });
    let per_input = allocations as f64 / inputs.len() as f64;
    assert!(per_input <= 16.0, "{per_input:.1} allocations per input");
}

#[test]
fn streamcluster_allocates_at_most_4_times_per_input() {
    let w = StreamCluster::paper();
    let inputs = w.generate_inputs(300, 1);
    let allocations = allocations_in(|| {
        run_sequential(&w, &inputs, 1);
    });
    let per_input = allocations as f64 / inputs.len() as f64;
    assert!(per_input <= 4.0, "{per_input:.1} allocations per input");
}

#[test]
fn cloning_14_centers_allocates_at_most_3_times() {
    let centers = Centers::from_rows((0..14).map(|i| (vec![f64::from(i); 8], 1.0)));
    assert_eq!(centers.len(), 14);
    let allocations = allocations_in(|| {
        std::hint::black_box(centers.clone());
    });
    assert!(allocations <= 3, "{allocations} allocations");
}

#[test]
fn a_point_stream_allocates_once_per_batch() {
    let cfg = PointStreamConfig::cluster_stream();
    for n in [1, 64] {
        let allocations = allocations_in(|| {
            std::hint::black_box(cfg.generate(n, 1));
        });
        // One coordinate buffer per batch, the batch vector, the centers.
        assert!(
            allocations <= n as u64 + 2,
            "{n} batches: {allocations} allocations"
        );
    }
}

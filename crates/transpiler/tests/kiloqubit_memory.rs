//! Peak-heap ceiling on kiloqubit routing.
//!
//! Routes GHZ-625 on `devices/grid_625.json` and GHZ-1000 on
//! `devices/hypercube_1024.json` under a byte-counting global allocator and
//! bounds the router's peak heap growth. The allocator is process-wide, so
//! this check lives in its own test binary.

use snailqc_devices::DeviceSpec;
use snailqc_topology::CouplingGraph;
use snailqc_transpiler::{route_with_cache, LayoutStrategy, RouterConfig, RoutingCache};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Ceiling on the router's peak heap growth on the ≥625-qubit cells. The
/// legacy routing state alone — a `Vec<Vec<usize>>` hop matrix plus a dense
/// `f64` scoring matrix, both 1024×1024 — needed ≥ 16.8 MB before any trial
/// state; the compact lazy `u16` rows keep the whole route comfortably
/// under this bound, so a regression back to eagerly materialized all-pairs
/// `f64` matrices fails. 8 MiB sits below even a single legacy 1024×1024
/// `usize` matrix (8.4 MB) while leaving headroom over the ~4.9 MB peak
/// measured at 1000 qubits.
const KILOQUBIT_ROUTE_PEAK_CEILING_BYTES: usize = 8 << 20;

/// Live/peak byte-counting wrapper around the system allocator. Tracking is
/// off except inside [`peak_alloc_during`].
struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
// Signed: frees of memory allocated before a tracking window began push the
// net-live count below zero inside the window, which must not wrap.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && TRACKING.load(Ordering::Relaxed) {
            let size = layout.size() as isize;
            let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if TRACKING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && TRACKING.load(Ordering::Relaxed) {
            let delta = new_size as isize - layout.size() as isize;
            let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak net heap growth (bytes above the level at entry) while running `f`.
fn peak_alloc_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    TRACKING.store(true, Ordering::SeqCst);
    let value = f();
    TRACKING.store(false, Ordering::SeqCst);
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    (peak.max(0) as usize, value)
}

fn shipped_device(file: &str) -> CouplingGraph {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../devices/").to_string() + file;
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    DeviceSpec::parse(&text)
        .and_then(|spec| spec.build_graph())
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn kiloqubit_routes_stay_under_the_peak_heap_ceiling() {
    for (file, qubits) in [("grid_625.json", 625), ("hypercube_1024.json", 1000)] {
        let graph = shipped_device(file);
        let circuit = snailqc_workloads::ghz(qubits);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        // The routing cache is built inside the window: a cold route pays
        // for its own distance state, exactly as a first transpile does.
        let (peak, routed) = peak_alloc_during(|| {
            route_with_cache(
                &circuit,
                &graph,
                &layout,
                &RouterConfig::default(),
                &RoutingCache::new(),
            )
        });
        assert!(
            routed.swap_count > 0,
            "{file}: kiloqubit routes insert SWAPs"
        );
        assert!(
            peak <= KILOQUBIT_ROUTE_PEAK_CEILING_BYTES,
            "{file} {qubits}q peaked at {peak} heap bytes \
             (ceiling {KILOQUBIT_ROUTE_PEAK_CEILING_BYTES}); the router's \
             distance state is no longer compact",
        );
        println!("{file} {qubits}q: peak {peak} bytes");
    }
}

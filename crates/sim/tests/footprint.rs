//! Replica state stays sized to its readers.
//!
//! The §V-A replication campaign ends with 300 bots on two replicas after
//! 1 200 ticks (30 levels of 15 settle and 25 sample ticks). A cluster in
//! that state must fit a live-heap budget, and a server's tick log must
//! hold no more than the records the controller and the campaigns read.
//! This file is its own test binary because it installs a global
//! allocator that counts live bytes.

use roia_sim::{Cluster, ClusterConfig, MeasureConfig};
use rtf_core::{MetricsLog, TickRecord, RETAINED_TICKS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct LiveBytes;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain atomic and touches no
// allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Live heap a two-replica cluster may hold at the campaign's end state.
/// It measures 1.03 MiB (1 083 496 B), of which the bus's stock of frames
/// holds the frames of about one round of state updates for the next
/// round to reuse; the message path before it freed them between ticks
/// (then it measured 1 026 320 B, with the SLO windows' 64-bit counts).
/// With 1 024 records per server, every histogram's 1 920 buckets
/// allocated and four link slots per client row it measured 1.82 MiB
/// (1 912 404 B).
const CAMPAIGN_BUDGET_BYTES: usize = 1_160 * 1024;

/// Live heap bytes allocated since the reading `before`.
fn live_since(before: usize) -> usize {
    LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(before)
}

/// One test, so no other test thread allocates while it reads the counter.
#[test]
fn replica_state_fits_its_budget() {
    let record = campaign_cluster_fits_its_budget();
    a_tick_log_holds_at_most_its_retained_records(record);
}

/// Returns a server's latest record, as a template for the log check.
fn campaign_cluster_fits_its_budget() -> TickRecord {
    let campaign = MeasureConfig::default();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut cluster = Cluster::new(
        ClusterConfig {
            seed: campaign.seed,
            cost_noise: campaign.noise,
            npcs: campaign.npcs,
            ..ClusterConfig::default()
        },
        2,
    );
    let mut level = campaign.step;
    while level <= campaign.max_users {
        while cluster.user_count() < level {
            cluster.add_user();
        }
        cluster.run(campaign.settle_ticks + campaign.sample_ticks);
        level += campaign.step;
    }
    let live = live_since(before);
    assert_eq!(cluster.user_count(), 300);
    assert_eq!(cluster.server_count(), 2);
    assert_eq!(
        cluster.server_metrics(0).window(usize::MAX).count(),
        RETAINED_TICKS
    );
    assert!(
        live <= CAMPAIGN_BUDGET_BYTES,
        "campaign cluster holds {live} B live, budget {CAMPAIGN_BUDGET_BYTES} B"
    );
    *cluster
        .server_metrics(0)
        .latest()
        .expect("a server that ticked has a record")
}

fn a_tick_log_holds_at_most_its_retained_records(record: TickRecord) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut log = MetricsLog::new();
    for tick in 0..1_200 {
        log.push(TickRecord { tick, ..record });
    }
    let live = live_since(before);
    assert_eq!(log.window(usize::MAX).count(), RETAINED_TICKS);
    assert!(
        live <= 64 * std::mem::size_of::<TickRecord>(),
        "a tick log holds {live} B"
    );
}

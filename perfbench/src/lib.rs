//! Wall-clock benchmark of the in-process CFS stack.
//!
//! A round builds a fresh default cluster, sets up one workload (mounts +
//! preload), then drives a fixed window of ops through the public
//! `Client` API from one thread, closed loop: one op outstanding. Per-op
//! cost grows with what the cluster has written so far, so every round
//! starts from the same state and runs the same op count; a run repeats
//! rounds, each with its own op stream, until it has measured long
//! enough. See `README.md`.

pub mod probe;
pub mod report;
pub mod rng;
pub mod trace;
pub mod workload;

use std::time::Instant;

use cfs::{ClusterBuilder, ClusterConfig, MetricsSnapshot};

use trace::SpanRec;
use workload::{Class, Footprint, Workload};

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    /// Cluster build, volume, mounts and preload.
    pub setup_ns: u64,
    /// Sum of op latencies in the window.
    pub window_ns: u64,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub reclaim_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub errors: Vec<String>,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub footprint: Footprint,
    /// Metric events over the window.
    pub counts: MetricsSnapshot,
    /// `store.live_bytes` after the window.
    pub store_live_bytes: i64,
    /// Highest raft log index any meta partition reached.
    pub meta_log_len: u64,
    /// Raft wire messages over the window (traced rounds only).
    pub wire_msgs: u64,
    pub spans: Vec<SpanRec>,
}

impl Round {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }
}

/// Run one round of `window_ops` ops of `workload` on a fresh cluster.
/// `Err` means the round could not run at all (set-up failed).
pub fn run_round(
    workload: Workload,
    seed: u64,
    window_ops: usize,
    traced: bool,
) -> Result<Round, String> {
    let mut round = Round {
        traced,
        ..Round::default()
    };
    let t = Instant::now();
    let cluster = ClusterBuilder::new()
        .build()
        .map_err(|e| format!("cluster build: {e}"))?;
    let mut load = workload.setup(&cluster, seed)?;
    round.setup_ns = t.elapsed().as_nanos() as u64;

    let wire = traced.then(|| trace::instrument(&cluster));
    if traced {
        trace::start();
    }
    let before = cluster.metrics_snapshot();
    for i in 0..window_ops as u64 {
        let out = load.step(i);
        round.attempted += 1;
        round.window_ns += out.ns;
        round.bytes_read += out.bytes_read;
        round.bytes_written += out.bytes_written;
        match out.class {
            Class::Read => round.read_ns.push(out.ns),
            Class::Write => round.write_ns.push(out.ns),
            Class::Reclaim => round.reclaim_ns.push(out.ns),
        }
        if let Some(e) = out.error {
            round.fail(format!("op {i}: {e}"));
        }
    }
    let after = cluster.metrics_snapshot();
    if traced {
        round.spans = trace::finish();
    }
    round.counts = after.diff(&before);
    round.wire_msgs = wire.map_or(0, |w| w.get());
    round.store_live_bytes = after.gauge("store.live_bytes").map_or(0, |g| g.value);
    round.meta_log_len = cluster
        .meta_nodes()
        .iter()
        .flat_map(|n| {
            n.partition_ids()
                .into_iter()
                .filter_map(|p| n.raft_indices(p).map(|(_, _, last)| last))
        })
        .max()
        .unwrap_or(0);

    // Output checks after the window: the volume must be consistent.
    if let Err(e) = load.quiesce() {
        round.fail(format!("quiesce: {e}"));
    }
    match load.client().fsck(false) {
        Ok(r) if r.orphans_found == 0 && r.dangling_dentries == 0 => {}
        Ok(r) => round.fail(format!(
            "fsck: {} orphans, {} dangling dentries",
            r.orphans_found, r.dangling_dentries
        )),
        Err(e) => round.fail(format!("fsck: {e}")),
    }
    round.footprint = load.footprint();
    // Every byte unlinked in the window was reclaimed in it: punched out
    // of each replica's extent store.
    let unlinked = round.footprint.unlinked_bytes;
    let punched = round.counts.counter("store.bytes_punched");
    let want = unlinked * ClusterConfig::default().replica_count as u64;
    if punched != want {
        round.fail(format!(
            "punched {punched} store bytes for {unlinked} unlinked user bytes, want {want}"
        ));
    }
    let threads = after.counter_sum("fabric.threads");
    if threads != 0 {
        round.fail(format!("fabrics spawned {threads} threads"));
    }

    // Fabric services hold their nodes and data nodes hold the fabric:
    // break the cycle so the round's memory is returned.
    drop(load);
    let fabrics = cluster.fabrics();
    for n in cluster.meta_nodes() {
        fabrics.meta.deregister(n.id());
    }
    for n in cluster.data_nodes() {
        fabrics.data.deregister(n.id());
    }
    for m in cluster.masters() {
        fabrics.master.deregister(m.id());
    }
    cluster.hub().set_delivery_schedule(None);
    Ok(round)
}

/// The seed of a run's `k`-th op stream.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    rng::Rng::new(seed).next_u64().wrapping_add(k)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

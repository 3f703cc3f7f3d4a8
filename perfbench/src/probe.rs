//! Layer probes: the storage layers' public functions called directly,
//! outside any cluster, at the sizes the workload reached.

use std::sync::Arc;
use std::time::Instant;

use cfs_kvwal::cf::cf_prefix;
use cfs_kvwal::{LsmEngine, LsmOptions, TypedCf, WriteBatch};
use cfs_store::{ExtentStore, StorePersist};
use cfs_types::testutil::TempDir;

use crate::rng::Rng;

/// Same key and value shape as a raft log row: `(group, index) ->
/// (term, command)`.
struct ProbeLogCf;
impl TypedCf for ProbeLogCf {
    const NAME: &'static str = "probe_log";
    type Key = (u64, u64);
    type Value = (u64, Vec<u8>);
}

/// Bytes of one probe log entry's command (a meta create's order of size).
const ENTRY_BYTES: usize = 160;
const SCAN_REPEATS: usize = 15;
const STORE_APPENDS: usize = 64;
const STORE_READS: usize = 2000;

/// Median probe timings, microseconds.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `LsmEngine::write` of a one-entry batch.
    pub write_batch_us: f64,
    /// `LsmEngine::scan_prefix_raw` over `scan_entries` stored entries.
    pub scan_prefix_us: f64,
    pub scan_entries: u64,
    /// `ExtentStore::append` of 128 KiB.
    pub append_128k_us: f64,
    /// `ExtentStore::read` of 4 KiB.
    pub read_4k_us: f64,
}

fn median_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1_000.0
}

fn timed_ns(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Run every probe; `log_entries` is the stored-log size to scan.
pub fn run(log_entries: u64) -> Result<Probes, String> {
    let dir = TempDir::new("perfbench-probe").map_err(|e| e.to_string())?;
    let e = |e: cfs_types::CfsError| e.to_string();

    // kvwal: fill one group's log entry by entry (each write is the batch
    // a raft append makes), then scan the group's prefix.
    let engine =
        Arc::new(LsmEngine::open(&dir.path().join("kv"), LsmOptions::default()).map_err(e)?);
    let mut rng = Rng::new(42);
    let group = 7u64;
    let mut writes = Vec::with_capacity(log_entries as usize);
    for index in 1..=log_entries.max(1) {
        let mut batch = WriteBatch::new();
        batch.put::<ProbeLogCf>(&(group, index), &(1, rng.bytes(ENTRY_BYTES)));
        let mut r = Ok(());
        writes.push(timed_ns(|| r = engine.write(batch)));
        r.map_err(e)?;
    }
    let mut prefix = cf_prefix::<ProbeLogCf>();
    prefix.extend_from_slice(&group.to_be_bytes());
    let mut scans = Vec::with_capacity(SCAN_REPEATS);
    for _ in 0..SCAN_REPEATS {
        let mut n = 0;
        scans.push(timed_ns(|| {
            n = std::hint::black_box(engine.scan_prefix_raw(&prefix)).len()
        }));
        if n as u64 != log_entries.max(1) {
            return Err(format!("scan_prefix_raw saw {n} of {log_entries} entries"));
        }
    }

    // store: a persistent extent store like a data node's, on its own
    // engine.
    let engine =
        Arc::new(LsmEngine::open(&dir.path().join("store"), LsmOptions::default()).map_err(e)?);
    let persist = Arc::new(StorePersist::new(engine, 1));
    let mut store = ExtentStore::new_persistent(128 << 20, 0, persist).map_err(e)?;
    let extent = store.create_extent().map_err(e)?;
    let chunk = rng.bytes(128 * 1024);
    let mut appends = Vec::with_capacity(STORE_APPENDS);
    for k in 0..STORE_APPENDS as u64 {
        let mut r = Ok(0);
        appends.push(timed_ns(|| {
            r = store.append(extent, k * chunk.len() as u64, &chunk)
        }));
        r.map_err(e)?;
    }
    let blocks = STORE_APPENDS * chunk.len() / 4096;
    let mut reads = Vec::with_capacity(STORE_READS);
    for _ in 0..STORE_READS {
        let off = (rng.below(blocks) * 4096) as u64;
        let mut r = Ok(Vec::new());
        reads.push(timed_ns(|| r = store.read(extent, off, 4096)));
        let got = r.map_err(e)?;
        let at = (off as usize) % chunk.len();
        if got != chunk[at..at + 4096] {
            return Err(format!("store read at {off} returned other bytes"));
        }
    }

    Ok(Probes {
        write_batch_us: median_us(writes),
        scan_prefix_us: median_us(scans),
        scan_entries: log_entries.max(1),
        append_128k_us: median_us(appends),
        read_4k_us: median_us(reads),
    })
}

//! Turning rounds into named metrics: the end-to-end set from untraced
//! rounds, the per-layer set from traced ones.

use std::collections::BTreeMap;

use crate::probe::Probes;
use crate::trace::SpanRec;
use crate::Round;

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of sorted samples, and how many samples lie
/// beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    if sorted.is_empty() {
        return (0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency summary of one op class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tail {
    pub samples: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub beyond_p99: usize,
}

pub fn tail(samples: impl Iterator<Item = u64>) -> Tail {
    let mut v: Vec<u64> = samples.collect();
    v.sort_unstable();
    let (p50, _) = percentile(&v, 0.50);
    let (p99, beyond) = percentile(&v, 0.99);
    Tail {
        samples: v.len(),
        p50_us: p50 as f64 / 1e3,
        p99_us: p99 as f64 / 1e3,
        beyond_p99: beyond,
    }
}

fn ops_per_s(rounds: &[&Round]) -> f64 {
    let ops: u64 = rounds.iter().map(|r| r.attempted).sum();
    let ns: u64 = rounds.iter().map(|r| r.window_ns).sum();
    ratio(ops as f64, ns as f64 / 1e9)
}

/// The end-to-end view of a run's untraced rounds.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    /// Printed with the table but not gated. `read_p99_us`: reads take
    /// 10-300 us, and on a shared VM about 1% of them are stretched by
    /// host preemption, so their p99 lands on those stalls and swings
    /// between runs. The rest are zero or undefined on meta_churn, which
    /// moves no user bytes, reclaims nothing in its window and (when
    /// correct) has no errors.
    pub extra: Vec<Metric>,
    /// User ops: `all` is `read` and `write` together.
    pub all: Tail,
    pub read: Tail,
    pub write: Tail,
    /// Reclaim passes, kept out of the op classes.
    pub reclaim: Tail,
}

fn all_ns(r: &Round) -> impl Iterator<Item = u64> + '_ {
    r.read_ns.iter().chain(&r.write_ns).copied()
}

/// Throughput and medians are medians over rounds, so a burst of
/// machine noise that slows one round moves them little; each p99 pools
/// every round's samples, since one round alone has too few beyond it.
pub fn end_to_end(rounds: &[&Round], peak_rss_mib: f64) -> EndToEnd {
    let all = tail(rounds.iter().flat_map(|r| all_ns(r)));
    let read = tail(rounds.iter().flat_map(|r| r.read_ns.iter().copied()));
    let write = tail(rounds.iter().flat_map(|r| r.write_ns.iter().copied()));
    let reclaim = tail(rounds.iter().flat_map(|r| r.reclaim_ns.iter().copied()));
    let per_round = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(|r| f(r)).collect());
    let setup_s = per_round(&|r| r.setup_ns as f64 / 1e9);
    let ops_per_s = per_round(&|r| ops_per_s(&[r]));
    let op_p50 = per_round(&|r| tail(all_ns(r)).p50_us);
    let read_p50 = per_round(&|r| tail(r.read_ns.iter().copied()).p50_us);
    let write_p50 = per_round(&|r| tail(r.write_ns.iter().copied()).p50_us);
    let window_s: f64 = rounds.iter().map(|r| r.window_ns as f64 / 1e9).sum();
    let moved: u64 = rounds.iter().map(|r| r.bytes_read + r.bytes_written).sum();
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let stored = per_round(&|r| {
        ratio(
            r.store_live_bytes as f64,
            r.footprint.live_user_bytes as f64,
        )
    });
    EndToEnd {
        metrics: vec![
            m("setup_s", setup_s, "s"),
            m("ops_per_s", ops_per_s, "1/s"),
            m("op_p50_us", op_p50, "us"),
            m("op_p99_us", all.p99_us, "us"),
            m("read_p50_us", read_p50, "us"),
            m("write_p50_us", write_p50, "us"),
            m("write_p99_us", write.p99_us, "us"),
            m("peak_rss_mib", peak_rss_mib, "MiB"),
        ],
        extra: vec![
            m("read_p99_us", read.p99_us, "us"),
            m(
                "mib_per_s",
                ratio(moved as f64 / (1 << 20) as f64, window_s),
                "MiB/s",
            ),
            m(
                "error_ratio",
                ratio(failed as f64, attempted as f64),
                "ratio",
            ),
            m("bytes_stored_per_user_byte", stored, "ratio"),
            m("reclaim_p50_us", reclaim.p50_us, "us"),
        ],
        all,
        read,
        write,
        reclaim,
    }
}

/// Self time and call count per span name, over some rounds.
#[derive(Debug, Default)]
pub struct SpanTotals {
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Wall time of the root (op) spans. The self times of all spans add
    /// up to it by construction, since each span's duration is taken off
    /// its parent's self time.
    pub op_wall_ns: u64,
    pub negative_self: usize,
}

impl SpanTotals {
    pub fn add(&mut self, spans: &[SpanRec]) {
        for s in spans {
            let self_ns = s.self_ns();
            if self_ns < 0 {
                self.negative_self += 1;
            }
            if s.parent.is_none() {
                self.op_wall_ns += s.dur_ns();
            }
            let key = if s.parent.is_none() { "client" } else { s.name };
            let e = self.by_name.entry(key).or_default();
            e.0 += self_ns.max(0) as u64;
            e.1 += 1;
        }
    }

    /// `(self µs summed, calls)` for a span name (`client` = op roots).
    pub fn get(&self, name: &str) -> (f64, f64) {
        self.by_name
            .get(name)
            .map_or((0.0, 0.0), |&(ns, n)| (ns as f64 / 1e3, n as f64))
    }
}

/// Counts that must repeat exactly between two runs of one seed.
pub fn determinism_key(r: &Round) -> Vec<(&'static str, u64)> {
    let c = &r.counts;
    vec![
        ("raft.proposals", c.counter("raft.proposals")),
        ("net.calls", c.counter_sum("net.calls{")),
        ("kvwal.wal_appends", c.counter("kvwal.wal_appends")),
        ("store.bytes_written", c.counter("store.bytes_written")),
        ("store.bytes_punched", c.counter("store.bytes_punched")),
        ("ops", r.attempted),
    ]
}

/// The per-layer view of a run's traced rounds.
pub fn per_layer(
    traced: &[&Round],
    untraced_ops_per_s: f64,
    replica_count: f64,
    probes: &Probes,
) -> (Vec<Metric>, SpanTotals) {
    let mut spans = SpanTotals::default();
    let mut counts = cfs::MetricsSnapshot::default();
    for r in traced {
        spans.add(&r.spans);
        for (k, v) in &r.counts.counters {
            *counts.counters.entry(k.clone()).or_default() += v;
        }
    }
    let c = |name: &str| counts.counter(name) as f64;
    let sum = |prefix: &str| counts.counter_sum(prefix) as f64;
    let ops: f64 = traced.iter().map(|r| r.attempted as f64).sum();
    let writes: f64 = traced.iter().map(|r| r.write_ns.len() as f64).sum();
    let user_written: f64 = traced.iter().map(|r| r.bytes_written as f64).sum();
    let unlinked: f64 = traced
        .iter()
        .map(|r| r.footprint.unlinked_bytes as f64)
        .sum();
    let wire: f64 = traced.iter().map(|r| r.wire_msgs as f64).sum();
    let stored = median(
        traced
            .iter()
            .map(|r| {
                ratio(
                    r.store_live_bytes as f64,
                    r.footprint.live_user_bytes as f64,
                )
            })
            .collect(),
    );
    let per_op = |x: f64| ratio(x, ops);
    let per_kop = |x: f64| ratio(1e3 * x, ops);
    let self_per_call = |name: &str| {
        let (us, n) = spans.get(name);
        ratio(us, n)
    };
    let calls_per_op = |name: &str| per_op(spans.get(name).1);
    let metrics = vec![
        m("client.self_us_per_op", per_op(spans.get("client").0), "us"),
        m(
            "client.lookup_cache.hit_ratio",
            ratio(
                c("client.lookup_cache.hit"),
                c("client.lookup_cache.hit") + c("client.lookup_cache.miss"),
            ),
            "ratio",
        ),
        m(
            "client.readcache.hit_ratio",
            ratio(
                c("client.readcache.hit"),
                c("client.readcache.hit") + c("client.readcache.miss"),
            ),
            "ratio",
        ),
        m(
            "client.meta_syncs_per_op",
            per_op(c("client.meta_syncs")),
            "1/op",
        ),
        m("client.retries_per_op", per_op(c("client.retries")), "1/op"),
        m(
            "net.meta.calls_per_op",
            per_op(sum("net.calls{fabric=meta,")),
            "1/op",
        ),
        m(
            "net.data.calls_per_op",
            per_op(sum("net.calls{fabric=data,")),
            "1/op",
        ),
        m(
            "net.master.calls_per_op",
            per_op(sum("net.calls{fabric=master,")),
            "1/op",
        ),
        m(
            "meta.write.self_us_per_call",
            self_per_call("meta.write"),
            "us",
        ),
        m(
            "meta.write.calls_per_op",
            calls_per_op("meta.write"),
            "1/op",
        ),
        m(
            "meta.read.self_us_per_call",
            self_per_call("meta.read"),
            "us",
        ),
        m("meta.read.calls_per_op", calls_per_op("meta.read"), "1/op"),
        m(
            "meta.lease_read_ratio",
            ratio(
                c("meta.lease_reads"),
                c("meta.lease_reads") + c("meta.quorum_reads"),
            ),
            "ratio",
        ),
        m("raft.proposals_per_op", per_op(c("raft.proposals")), "1/op"),
        // `raft.batch.entries` counts at apply time on every replica.
        m(
            "raft.entries_per_commit",
            ratio(
                c("raft.batch.entries"),
                c("raft.batch.commits") * replica_count,
            ),
            "ratio",
        ),
        m("raft.wire_msgs_per_op", per_op(wire), "1/op"),
        m(
            "raft.snapshots_per_kop",
            per_kop(c("meta.snapshots_taken") + c("raft.snapshot_installs_received")),
            "1/kop",
        ),
        m(
            "kvwal.wal_appends_per_op",
            per_op(c("kvwal.wal_appends")),
            "1/op",
        ),
        m(
            "kvwal.flushes_per_kop",
            per_kop(c("kvwal.flushes")),
            "1/kop",
        ),
        m(
            "kvwal.compactions_per_kop",
            per_kop(c("kvwal.compactions")),
            "1/kop",
        ),
        m(
            "data.append.self_us_per_call",
            self_per_call("data.append"),
            "us",
        ),
        m(
            "data.overwrite.self_us_per_call",
            self_per_call("data.overwrite"),
            "us",
        ),
        m(
            "data.write_small.self_us_per_call",
            self_per_call("data.write_small"),
            "us",
        ),
        m(
            "data.read.self_us_per_call",
            self_per_call("data.read"),
            "us",
        ),
        m(
            "data.chain_forwards_per_write",
            ratio(c("data.chain_forwards"), writes),
            "1/op",
        ),
        m(
            "store.bytes_written_per_user_byte",
            ratio(
                c("store.bytes_written") + c("store.bytes_overwritten"),
                user_written,
            ),
            "ratio",
        ),
        m(
            "store.punched_per_unlinked_byte",
            ratio(c("store.bytes_punched"), unlinked),
            "ratio",
        ),
        m("store.bytes_stored_per_user_byte", stored, "ratio"),
        m(
            "master.handle_us_per_op",
            per_op(spans.get("master.handle").0),
            "us",
        ),
        m("kvwal.write_batch_us", probes.write_batch_us, "us"),
        m("kvwal.scan_prefix_us", probes.scan_prefix_us, "us"),
        m("store.append_128k_us", probes.append_128k_us, "us"),
        m("store.read_4k_us", probes.read_4k_us, "us"),
        m("trace.ops_per_s_traced", ops_per_s(traced), "1/s"),
        m("trace.ops_per_s_untraced", untraced_ops_per_s, "1/s"),
    ];
    (metrics, spans)
}

/// Format a number for JSON (no NaN or infinity).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), (990, 10));
        assert_eq!(percentile(&v, 0.50), (500, 500));
        assert_eq!(percentile(&[], 0.5), (0, 0));
        assert_eq!(percentile(&[5], 0.99), (5, 0));
    }

    #[test]
    fn json_line_shape() {
        let line = result_json(true, 3, 0, &[m("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(num(f64::NAN), "0");
    }
}

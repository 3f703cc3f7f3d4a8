//! Per-layer timing from outside the program.
//!
//! Spans are recorded by the benchmark itself, around calls into each
//! layer's public entry points: the client op as the root span, and
//! every node handler the fabrics dispatch. The fabrics run handlers on
//! the calling thread (`fabric.threads == 0`), so one thread-local span
//! stack sees every nested call — a chain forward inside a data handler
//! becomes a child span, and its time is subtracted from the parent's
//! self time.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cfs::{Cluster, DataRequest, DeliverySchedule, MetaRequest, NodeId};
use cfs_master::MasterRequest;

/// One timed call. `parent` indexes the same round's span list.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Window op the span belongs to.
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the children's; negative would mean overlapping
    /// children, which a single-threaded stack cannot produce.
    pub fn self_ns(&self) -> i64 {
        self.dur_ns() as i64 - self.child_ns as i64
    }
}

struct Recorder {
    epoch: Instant,
    op: u64,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
}

/// Stop recording and hand back every span.
pub fn finish() -> Vec<SpanRec> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Run `f` as op `id`'s root span (a plain call when not recording).
pub fn op<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = id;
        }
    });
    span(name, f)
}

/// Run `f` inside a span named `name` (a plain call when not recording).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let idx = rec.spans.len() as u32;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(SpanRec {
            name,
            op: rec.op,
            parent: rec.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        rec.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard
                .as_mut()
                .expect("recorder stays installed inside a span");
            let end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.stack.pop();
            let s = &mut rec.spans[idx as usize];
            s.end_ns = end_ns;
            let dur = s.dur_ns();
            if let Some(p) = s.parent {
                rec.spans[p as usize].child_ns += dur;
            }
        });
    }
    out
}

fn meta_span(req: &MetaRequest) -> &'static str {
    match req {
        MetaRequest::Read { .. } => "meta.read",
        MetaRequest::Write { .. }
        | MetaRequest::WriteAsync { .. }
        | MetaRequest::Barrier { .. } => "meta.write",
        _ => "meta.other",
    }
}

fn data_span(req: &DataRequest) -> &'static str {
    match req {
        DataRequest::Append { .. } => "data.append",
        DataRequest::Overwrite { .. } => "data.overwrite",
        DataRequest::WriteSmall { .. } | DataRequest::WriteSmallBatch { .. } => "data.write_small",
        DataRequest::Read { .. } => "data.read",
        _ => "data.other",
    }
}

/// Counts raft wire messages as the hub delivers them; defers none.
#[derive(Debug, Default)]
pub struct WireCounter(AtomicU64);

impl WireCounter {
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl DeliverySchedule for WireCounter {
    fn defer_rounds(&self, _seq: u64, _from: NodeId, _to: NodeId) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed);
        0
    }
}

/// Re-register every node's fabric service through a span, and count
/// raft wire messages. Returns the wire counter.
pub fn instrument(cluster: &Cluster) -> Arc<WireCounter> {
    let fabrics = cluster.fabrics();
    for n in cluster.meta_nodes() {
        let n = n.clone();
        fabrics.meta.register(
            n.id(),
            Arc::new(move |_from: NodeId, req: MetaRequest| {
                span(meta_span(&req), || n.handle(req))
            }),
        );
    }
    for n in cluster.data_nodes() {
        let n = n.clone();
        fabrics.data.register(
            n.id(),
            Arc::new(move |_from: NodeId, req: DataRequest| {
                span(data_span(&req), || n.handle(req))
            }),
        );
    }
    for m in cluster.masters() {
        let m = m.clone();
        fabrics.master.register(
            m.id(),
            Arc::new(move |_from: NodeId, req: MasterRequest| {
                span("master.handle", || m.handle(req))
            }),
        );
    }
    let wire = Arc::new(WireCounter::default());
    cluster.hub().set_delivery_schedule(Some(wire.clone()));
    wire
}

/// Write spans as JSON lines: one object per span, `round` naming the
/// traced round it came from.
pub fn write_spans(path: &Path, rounds: &[(usize, &[SpanRec])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (round, spans) in rounds {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"round\":{round},\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_subtract_children() {
        start();
        op("client.op", 7, || {
            span("data.append", || {
                span("data.append", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 7 && s.self_ns() >= 0));
        assert_eq!(spans[0].child_ns, spans[1].dur_ns());
        let total: i64 = spans.iter().map(SpanRec::self_ns).sum();
        assert_eq!(total, spans[0].dur_ns() as i64);
    }

    #[test]
    fn not_recording_is_a_plain_call() {
        assert_eq!(span("x", || 5), 5);
        assert!(finish().is_empty());
    }
}

//! Count determinism: two traced rounds of one seed must repeat every
//! per-layer count exactly — raft proposals, net calls, kvwal appends
//! and store bytes — since only wall time may differ between them.

use perfbench::report::determinism_key;
use perfbench::run_round;
use perfbench::workload::Workload;

fn assert_repeats(w: Workload, window_ops: usize) {
    let a = run_round(w, 11, window_ops, true).expect("round runs");
    let b = run_round(w, 11, window_ops, true).expect("round runs");
    assert_eq!(a.failed, 0, "{}: {:?}", w.name(), a.errors);
    assert_eq!(b.failed, 0, "{}: {:?}", w.name(), b.errors);
    assert_eq!(determinism_key(&a), determinism_key(&b), "{}", w.name());
    assert_eq!(a.wire_msgs, b.wire_msgs, "{}: raft wire messages", w.name());
    assert!(
        a.wire_msgs > 0 && !a.spans.is_empty(),
        "{}: traced",
        w.name()
    );
    assert!(a.spans.iter().all(|s| s.self_ns() >= 0), "{}", w.name());
}

#[test]
fn meta_churn_counts_repeat() {
    assert_repeats(Workload::MetaChurn, 120);
}

#[test]
fn small_files_counts_repeat() {
    assert_repeats(Workload::SmallFiles, Workload::SmallFiles.window_ops() / 3);
}

#[test]
fn large_files_counts_repeat() {
    assert_repeats(Workload::LargeFiles, 30);
}

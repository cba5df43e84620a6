//! Span assembly and self-time subtraction.

use eum_e2e_bench::spans::{
    assemble, names, self_times, unexplained_share, write_jsonl, ClientStamp, ServerStamp, Span,
};

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        request: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)),  // overlaps a by 10
        span("c", 35, 38, Some(0)),  // inside both
        span("d", 90, 130, Some(0)), // sticks out of the parent by 30
        span("a.1", 12, 20, Some(1)),
    ];
    let own = self_times(&spans);
    // Children cover [10,60) and [90,100): 60 of the root's 100.
    assert_eq!(own[0], 40);
    assert_eq!(own[1], 30 - 8);
    assert_eq!(own[2], 30);
    assert_eq!(own[4], 40);
    assert!((unexplained_share(&spans) - 0.4).abs() < 1e-12);
}

#[test]
fn self_time_of_a_fully_covered_span_is_zero_not_negative() {
    let spans = vec![
        span("root", 10, 20, None),
        span("a", 0, 15, Some(0)),
        span("b", 12, 40, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 0);
}

#[test]
fn assemble_joins_by_id_and_time_and_leaves_strangers_unexplained() {
    let client = |request, id, due, send, recv| ClientStamp {
        request,
        id,
        due_ns: due,
        send_start_ns: send,
        send_end_ns: send + 2,
        recv_ns: recv,
        done_ns: recv + 1,
    };
    let server = |id, recv| ServerStamp {
        id,
        recv_ns: recv,
        serve_start_ns: recv + 3,
        serve_end_ns: recv + 8,
        flush_start_ns: recv + 9,
        flush_end_ns: recv + 12,
    };
    // Id 7 is used twice (the 16-bit id wrapped); time tells them apart.
    let clients = [
        client(7, 7, 100, 105, 140),
        client(65_543, 7, 1_000, 1_001, 1_050),
        client(9, 9, 2_000, 2_001, 2_030), // no server stamp at all
    ];
    let servers = [server(7, 1_010), server(7, 112)];
    let mut tree = Vec::new();
    let joined = assemble("op", &clients, &servers, |_| None, &mut tree);
    assert_eq!(joined, 2);

    let roots: Vec<usize> = (0..tree.len())
        .filter(|&i| tree[i].parent.is_none())
        .collect();
    assert_eq!(roots.len(), 3);
    let children_of =
        |r: usize| -> Vec<&Span> { tree.iter().filter(|s| s.parent == Some(r)).collect() };
    let first = children_of(roots[0]);
    let serve = first.iter().find(|s| s.name == names::SERVE).unwrap();
    assert_eq!((serve.start_ns, serve.end_ns), (115, 120));
    let wait = first.iter().find(|s| s.name == names::RECV_WAIT).unwrap();
    assert_eq!((wait.start_ns, wait.end_ns), (107, 112));
    let second = children_of(roots[1]);
    let serve = second.iter().find(|s| s.name == names::SERVE).unwrap();
    assert_eq!(serve.start_ns, 1_013);
    // The flush is a child of the reply wait, not of the root.
    let reply = tree
        .iter()
        .position(|s| s.name == names::REPLY_WAIT)
        .unwrap();
    assert!(tree
        .iter()
        .any(|s| s.name == names::FLUSH && s.parent == Some(reply)));
    // The stranger keeps only what the client itself stamped.
    assert!(children_of(roots[2])
        .iter()
        .all(|s| s.name.starts_with("gen.")));

    // Joined operations are explained edge to edge; the stranger's wait
    // (2003 → 2030 of a 31-ns root) is not.
    let own = self_times(&tree);
    assert_eq!(own[roots[0]], 0);
    assert_eq!(own[roots[1]], 0);
    assert_eq!(own[roots[2]], 27);

    let mut out = Vec::new();
    write_jsonl(&tree, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), tree.len());
    for line in text.lines() {
        let v = eum_e2e_bench::json::parse(line).unwrap();
        for key in ["name", "start_ns", "end_ns", "parent", "request"] {
            assert!(v.get(key).is_some(), "{key} missing in {line}");
        }
    }
}

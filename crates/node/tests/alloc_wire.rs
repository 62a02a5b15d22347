//! Allocation wall for the wire: what one event line costs the heap, from
//! `parse_event` through `NodeRuntime::handle`.
//!
//! The codec reads an event line into an `Event` without a JSON tree and
//! writes every output line into the one buffer it returns. So a duplicate
//! `deliver` — the common event of a flood, each node sees a transaction
//! once per neighbour — must not touch the heap at all, and a first receipt
//! must request one buffer per emitted line plus what the protocol core
//! itself asks for, nothing from the codec.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's requests. CI runs this wall in release
//! mode, the build `fnp-node` ships in.

use fnp_gossip::FloodMessage;
use fnp_netsim::NodeId;
use fnp_node::wire::parse_event;
use fnp_node::NodeRuntime;
use fnp_proto::Effect;
use std::mem::size_of;

/// Heap requests of the measuring thread: how many, and for how many bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Requests {
    calls: u64,
    bytes: u64,
}

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// What `work` requested from the heap on this thread.
fn requested(work: impl FnOnce()) -> Requests {
    let heap = counting_alloc::measure(work);
    Requests {
        calls: heap.calls,
        bytes: heap.requested,
    }
}

const NEIGHBORS: usize = 8;

/// Node 0 of a 9-node overlay, every other node its neighbour, initialised
/// over the wire.
fn node() -> NodeRuntime {
    let mut runtime = NodeRuntime::new();
    let init = r#"{"type":"init","node":0,"node_count":9,"neighbors":[1,2,3,4,5,6,7,8],"seed":1}"#;
    runtime
        .handle(parse_event(init).unwrap(), &mut Vec::new())
        .unwrap();
    runtime
}

const DELIVER: &str = r#"{"type":"deliver","at":12,"from":3,"message":{"tx_id":281474976710655}}"#;

#[test]
fn a_duplicate_deliver_costs_no_heap_from_parse_to_handle() {
    let mut runtime = node();
    let mut out = Vec::with_capacity(16);
    runtime
        .handle(parse_event(DELIVER).unwrap(), &mut out)
        .unwrap();
    assert_eq!(out.len(), NEIGHBORS, "delivered + one send per other peer");
    out.clear();

    let again = r#"{"type":"deliver","at":13,"from":5,"message":{"tx_id":281474976710655}}"#;
    let tick = r#"{"type":"tick","at":14,"tag":2,"note":"unknown fields are skipped in place"}"#;
    let cost = requested(|| {
        for line in [again, tick] {
            runtime
                .handle(parse_event(line).unwrap(), &mut out)
                .unwrap();
        }
    });
    assert!(
        out.is_empty(),
        "a pruned duplicate and a stray tick print nothing"
    );
    assert_eq!(cost, Requests::default());
}

#[test]
fn a_first_receipt_requests_one_buffer_per_line_and_the_cores_own() {
    let mut runtime = node();
    let mut out = Vec::with_capacity(16);
    let cost = requested(|| {
        runtime
            .handle(parse_event(DELIVER).unwrap(), &mut out)
            .unwrap();
    });
    assert_eq!(out.len(), NEIGHBORS);
    assert_eq!(out[0], r#"{"type":"delivered","at":12}"#);
    assert_eq!(
        out[1],
        r#"{"type":"send","to":1,"message":{"tx_id":281474976710655}}"#
    );

    // The flood core's share, fixed: its mailbox grows from empty to the
    // four-effect minimum at its first push, and its `Broadcast` effect
    // owns the list of the one excluded peer.
    let core = Requests {
        calls: 2,
        bytes: (4 * size_of::<Effect<FloodMessage>>() + size_of::<NodeId>()) as u64,
    };
    let lines = Requests {
        calls: out.len() as u64,
        bytes: out.iter().map(|line| line.capacity() as u64).sum(),
    };
    assert_eq!(
        cost,
        Requests {
            calls: core.calls + lines.calls,
            bytes: core.bytes + lines.bytes,
        },
        "core {core:?} + lines {lines:?}"
    );
}

#[test]
fn init_requests_only_its_reply_line() {
    // The node's environment, its hot lanes included, lives inline in the
    // runtime: past the event's own neighbour list, `init` asks the heap
    // for nothing but the `init_ok` line.
    let init = r#"{"type":"init","node":0,"node_count":9,"neighbors":[1,2,3,4,5,6,7,8],"seed":1}"#;
    let event = parse_event(init).unwrap();
    let mut runtime = NodeRuntime::new();
    let mut out = Vec::with_capacity(16);
    let cost = requested(|| {
        runtime.handle(event, &mut out).unwrap();
    });
    assert_eq!(out, [r#"{"type":"init_ok","node":0}"#]);
    assert_eq!(
        cost,
        Requests {
            calls: 1,
            bytes: out[0].capacity() as u64,
        }
    );
}

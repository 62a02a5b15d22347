//! End-to-end smoke test: five `fnp-node` processes flood a ring.
//!
//! The test is the harness the crate docs describe: it spawns one real
//! `fnp-node` process per overlay node (no framework, plain
//! `std::process`), plays router with a FIFO one-tick link latency, and
//! routes every `send` line from one child's stdout into a `deliver` line
//! on the target child's stdin. The broadcast must reach all five nodes
//! (full coverage), every process must acknowledge `shutdown` with a
//! `done` line, and every process must exit with status 0.

use fnp_bench::json::Json;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

const N: usize = 5;

struct NodeProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl NodeProc {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fnp-node"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fnp-node");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Self {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("write to fnp-node stdin");
    }

    fn read_line(&mut self) -> Json {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .expect("read fnp-node stdout");
        assert!(n > 0, "fnp-node closed stdout unexpectedly");
        Json::parse(line.trim_end()).expect("fnp-node emitted invalid JSON")
    }
}

fn kind(line: &Json) -> String {
    line.get("type").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn five_node_ring_flood_reaches_everyone() {
    let mut nodes: Vec<NodeProc> = (0..N).map(|_| NodeProc::spawn()).collect();

    // Init: ring topology, neighbours (i±1) mod N.
    for (index, node) in nodes.iter_mut().enumerate() {
        let (left, right) = ((index + N - 1) % N, (index + 1) % N);
        node.send(&format!(
            r#"{{"type":"init","node":{index},"node_count":{N},"neighbors":[{left},{right}],"seed":{index}}}"#
        ));
        let ack = node.read_line();
        assert_eq!(kind(&ack), "init_ok");
        assert_eq!(ack.get("node").and_then(Json::as_u64), Some(index as u64));
    }

    // The router: a FIFO queue of in-flight messages with one tick of link
    // latency. Flood-and-prune responds to a *first* receipt with exactly
    // `delivered` + one `send` per non-excluded neighbour, and to a
    // duplicate with silence, so the harness knows how many lines to
    // expect for every event it injects.
    let mut in_flight: VecDeque<(u64, usize, usize, u64)> = VecDeque::new(); // (at, to, from, tx)
    let mut seen = [false; N];
    let mut delivered_at: Vec<Option<u64>> = vec![None; N];

    // Kick off the broadcast at node 0.
    nodes[0].send(r#"{"type":"start","at":0,"tx_id":42}"#);
    seen[0] = true;
    let mut expect = 3; // delivered + 2 sends
    let mut current = (0usize, 0u64); // (node, event time)
    loop {
        for _ in 0..expect {
            let line = nodes[current.0].read_line();
            match kind(&line).as_str() {
                "delivered" => {
                    assert_eq!(delivered_at[current.0], None, "double delivery");
                    delivered_at[current.0] = line.get("at").and_then(Json::as_u64);
                }
                "send" => {
                    let to = line.get("to").and_then(Json::as_u64).unwrap() as usize;
                    let tx = line
                        .get("message")
                        .and_then(|m| m.get("tx_id"))
                        .and_then(Json::as_u64)
                        .unwrap();
                    in_flight.push_back((current.1 + 1, to, current.0, tx));
                }
                other => panic!("unexpected output line type {other:?}"),
            }
        }
        let Some((at, to, from, tx)) = in_flight.pop_front() else {
            break;
        };
        nodes[to].send(&format!(
            r#"{{"type":"deliver","at":{at},"from":{from},"message":{{"tx_id":{tx}}}}}"#
        ));
        expect = if seen[to] { 0 } else { 2 }; // delivered + 1 send, or silence
        seen[to] = true;
        current = (to, at);
    }

    // Full coverage, with first deliveries in ring order (1 tick per hop).
    assert!(delivered_at.iter().all(Option::is_some), "{delivered_at:?}");
    assert_eq!(delivered_at[0], Some(0));
    assert_eq!(delivered_at[1], Some(1));
    assert_eq!(delivered_at[4], Some(1));
    assert_eq!(delivered_at[2], Some(2));
    assert_eq!(delivered_at[3], Some(2));

    // Clean shutdown: every node acknowledges and exits 0.
    for (index, node) in nodes.iter_mut().enumerate() {
        node.send(r#"{"type":"shutdown"}"#);
        let done = node.read_line();
        assert_eq!(kind(&done), "done");
        assert_eq!(done.get("node").and_then(Json::as_u64), Some(index as u64));
        assert_eq!(done.get("delivered"), Some(&Json::Bool(true)));
        let status = node.child.wait().expect("wait for fnp-node");
        assert!(status.success(), "node {index} exited with {status}");
    }
}

#[test]
fn killing_a_node_mid_broadcast_leaves_survivors_consistent() {
    // Churn soak: the same five-process ring, but one process is killed
    // mid-broadcast. The router drops every in-flight line addressed to
    // the dead node (a closed pipe loses its traffic) and keeps exact
    // accounting: every `send` a survivor emits is either routed to a live
    // node or dropped on the dead one, nothing disappears and nothing is
    // duplicated. The ring 0–1–2–3–4–0 minus node 2 is still connected, so
    // the broadcast must reach every survivor, and every survivor must
    // still shut down cleanly with exit status 0.
    const DEAD: usize = 2;
    let mut nodes: Vec<NodeProc> = (0..N).map(|_| NodeProc::spawn()).collect();

    for (index, node) in nodes.iter_mut().enumerate() {
        let (left, right) = ((index + N - 1) % N, (index + 1) % N);
        node.send(&format!(
            r#"{{"type":"init","node":{index},"node_count":{N},"neighbors":[{left},{right}],"seed":{index}}}"#
        ));
        let ack = node.read_line();
        assert_eq!(kind(&ack), "init_ok");
    }

    let mut in_flight: VecDeque<(u64, usize, usize, u64)> = VecDeque::new(); // (at, to, from, tx)
    let mut seen = [false; N];
    let mut delivered_at: Vec<Option<u64>> = vec![None; N];
    let mut sends_emitted = 0usize;
    let mut routed = 0usize;
    let mut dropped = 0usize;

    nodes[0].send(r#"{"type":"start","at":0,"tx_id":42}"#);
    seen[0] = true;
    let mut expect = 3; // delivered + 2 sends
    let mut current = (0usize, 0u64); // (node, event time)
    let mut killed = false;
    loop {
        for _ in 0..expect {
            let line = nodes[current.0].read_line();
            match kind(&line).as_str() {
                "delivered" => {
                    assert_eq!(delivered_at[current.0], None, "double delivery");
                    delivered_at[current.0] = line.get("at").and_then(Json::as_u64);
                }
                "send" => {
                    let to = line.get("to").and_then(Json::as_u64).unwrap() as usize;
                    let tx = line
                        .get("message")
                        .and_then(|m| m.get("tx_id"))
                        .and_then(Json::as_u64)
                        .unwrap();
                    sends_emitted += 1;
                    in_flight.push_back((current.1 + 1, to, current.0, tx));
                }
                other => panic!("unexpected output line type {other:?}"),
            }
        }
        // Kill mid-broadcast: the origin's sends are in flight but nothing
        // has been delivered to the victim yet.
        if !killed {
            killed = true;
            nodes[DEAD].child.kill().expect("kill fnp-node");
            let status = nodes[DEAD].child.wait().expect("wait for killed fnp-node");
            assert!(!status.success(), "a killed node must not exit cleanly");
        }
        let Some((at, to, from, tx)) = in_flight.pop_front() else {
            break;
        };
        if to == DEAD {
            // The pipe is gone; the line is dropped, not rerouted.
            dropped += 1;
            expect = 0;
            continue;
        }
        nodes[to].send(&format!(
            r#"{{"type":"deliver","at":{at},"from":{from},"message":{{"tx_id":{tx}}}}}"#
        ));
        routed += 1;
        expect = if seen[to] { 0 } else { 2 }; // delivered + 1 send, or silence
        seen[to] = true;
        current = (to, at);
    }

    // Every survivor delivered; the dead node never did.
    for (index, at) in delivered_at.iter().enumerate() {
        if index == DEAD {
            assert_eq!(*at, None, "the killed node cannot deliver");
        } else {
            assert!(at.is_some(), "survivor {index} never delivered");
        }
    }
    // With node 2 dead the wave goes 0 → {1, 4}, then 4 → 3.
    assert_eq!(delivered_at[0], Some(0));
    assert_eq!(delivered_at[1], Some(1));
    assert_eq!(delivered_at[4], Some(1));
    assert_eq!(delivered_at[3], Some(2));

    // Line accounting balances: every emitted send was either routed to a
    // live node or dropped on the dead one. Both of the dead node's ring
    // neighbours (1 and 3) tried to reach it exactly once.
    assert_eq!(sends_emitted, routed + dropped);
    assert_eq!(
        dropped, 2,
        "both neighbours of the dead node send into the gap"
    );
    assert!(
        in_flight.is_empty(),
        "no in-flight lines may survive the loop"
    );

    // Survivors still shut down cleanly: `done` is the very next line on
    // each survivor's stdout (no stray output buffered behind it) and the
    // exit status is 0.
    for (index, node) in nodes.iter_mut().enumerate() {
        if index == DEAD {
            continue;
        }
        node.send(r#"{"type":"shutdown"}"#);
        let done = node.read_line();
        assert_eq!(kind(&done), "done");
        assert_eq!(done.get("node").and_then(Json::as_u64), Some(index as u64));
        assert_eq!(done.get("delivered"), Some(&Json::Bool(true)));
        let status = node.child.wait().expect("wait for fnp-node");
        assert!(status.success(), "survivor {index} exited with {status}");
    }
}

#[test]
fn malformed_input_fails_loudly() {
    let mut node = NodeProc::spawn();
    node.send("this is not json");
    let status = node.child.wait().expect("wait for fnp-node");
    assert!(!status.success(), "malformed input must not exit 0");
}

/// Feeds `lines` to a fresh `fnp-node`, closes its stdin and collects what
/// it did: exit code, stdout, stderr.
fn run_to_exit(lines: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fnp-node"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fnp-node");
    let mut stdin = child.stdin.take().unwrap();
    for line in lines {
        // The node may already have exited on an earlier line.
        let _ = writeln!(stdin, "{line}");
    }
    drop(stdin);
    let output = child.wait_with_output().expect("wait for fnp-node");
    (
        output.status.code(),
        String::from_utf8(output.stdout).unwrap(),
        String::from_utf8(output.stderr).unwrap(),
    )
}

#[test]
fn a_node_id_beyond_u32_is_a_wire_error_not_a_panic() {
    const INIT: &str = r#"{"type":"init","node":0,"node_count":2,"neighbors":[1],"seed":0}"#;
    for (lines, field) in [
        (
            vec![
                INIT,
                r#"{"type":"deliver","at":0,"from":4294967296,"message":{"tx_id":1}}"#,
            ],
            "\"from\"",
        ),
        (
            vec![r#"{"type":"init","node":4294967296,"node_count":2,"neighbors":[1],"seed":0}"#],
            "\"node\"",
        ),
        (
            vec![r#"{"type":"init","node":0,"node_count":2,"neighbors":[1,4294967296],"seed":0}"#],
            "\"neighbors\"",
        ),
    ] {
        let (code, _, stderr) = run_to_exit(&lines);
        assert_eq!(code, Some(1), "{lines:?}: {stderr}");
        assert!(
            stderr.starts_with("fnp-node: invalid wire line: "),
            "{stderr}"
        );
        assert!(stderr.contains(field), "{stderr} should name {field}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn an_inconsistent_init_is_rejected_before_init_ok() {
    for (init, field) in [
        (
            r#"{"type":"init","node":2,"node_count":2,"neighbors":[1],"seed":0}"#,
            "\"node\"",
        ),
        (
            r#"{"type":"init","node":0,"node_count":2,"neighbors":[1,2],"seed":0}"#,
            "\"neighbors\"",
        ),
        (
            r#"{"type":"init","node":0,"node_count":2,"neighbors":[0,1],"seed":0}"#,
            "\"neighbors\"",
        ),
    ] {
        let (code, stdout, stderr) = run_to_exit(&[init, r#"{"type":"start","at":0,"tx_id":1}"#]);
        assert_eq!(code, Some(1), "{init}: {stderr}");
        assert_eq!(
            stdout, "",
            "{init}: nothing may be printed, least of all init_ok"
        );
        assert!(stderr.contains(field), "{stderr} should name {field}");
    }
}

#[test]
fn blank_lines_are_skipped_and_eof_is_a_clean_exit() {
    let (code, stdout, stderr) = run_to_exit(&[
        "",
        r#"{"type":"init","node":0,"node_count":2,"neighbors":[1],"seed":0}"#,
        "   ",
        r#"{"type":"start","at":0,"tx_id":7}"#,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        "{\"type\":\"init_ok\",\"node\":0}\n{\"type\":\"delivered\",\"at\":0}\n{\"type\":\"send\",\"to\":1,\"message\":{\"tx_id\":7}}\n"
    );
}

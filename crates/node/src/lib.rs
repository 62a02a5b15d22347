//! # fnp-node — a real-transport driver for the sans-IO protocol cores
//!
//! The simulator is one way to drive a [`fnp_proto::ProtocolCore`]; this
//! crate is another. The `fnp-node` binary owns exactly one overlay node
//! and speaks line-delimited JSON on stdin/stdout (the Maelstrom /
//! "glomers" shape): a harness — a test, a shell script, a process-per-node
//! deployment — routes `send` lines from one node's stdout into `deliver`
//! lines on another node's stdin, and the very same flood-and-prune core
//! that the paper's experiments exercise under [`fnp_netsim::Simulator`]
//! serves the traffic.
//!
//! ## Wire protocol
//!
//! One JSON object per line. Events **in** (stdin):
//!
//! | line | meaning |
//! |------|---------|
//! | `{"type":"init","node":0,"node_count":5,"neighbors":[1,4],"seed":7}` | identity + topology; must come first |
//! | `{"type":"start","at":0,"tx_id":1}` | originate a broadcast of `tx_id` |
//! | `{"type":"deliver","at":3,"from":1,"message":{"tx_id":1}}` | a peer's message arrives |
//! | `{"type":"tick","at":9,"tag":2}` | a previously requested timer fires |
//! | `{"type":"shutdown"}` | finish: report and exit cleanly |
//!
//! Events **out** (stdout):
//!
//! | line | meaning |
//! |------|---------|
//! | `{"type":"init_ok","node":0}` | init acknowledged |
//! | `{"type":"send","to":1,"message":{"tx_id":1}}` | deliver this to peer 1 |
//! | `{"type":"delivered","at":3}` | the payload reached the application |
//! | `{"type":"timer","at":12,"tag":2}` | please send `tick` at time 12 |
//! | `{"type":"counter","name":"x","amount":1}` | a metrics increment |
//! | `{"type":"done","node":0,"delivered":true}` | shutdown acknowledged |
//!
//! The codec is strict, and `crates/node/tests/wire_oracle.rs` pins how:
//!
//! * A line must be one JSON document; anything after it but whitespace is
//!   an error, and so is nesting deeper than 128.
//! * An event must carry every field in its row above with the type shown:
//!   integers are non-negative, without fraction or exponent, at most
//!   `u64::MAX`. A missing or mistyped field is a [`WireError`] quoting the
//!   field; so is an unknown `"type"`.
//! * **Unknown fields are ignored, but must be valid JSON** — including the
//!   fields of other event types (`"neighbors"` on a `tick`).
//! * **Of a repeated key the first occurrence counts**, at the top level
//!   and inside `"message"`; keys compare after escapes are decoded.
//! * **Node ids** — `node`, `from`, every item of `neighbors` — are at most
//!   `u32::MAX`; a larger one is an error quoting the field.
//! * **`init` must be consistent**: `node` and every neighbour below
//!   `node_count`, and the node not its own neighbour. It is rejected
//!   before `init_ok` is printed, and nothing else is accepted before it.
//!
//! A violation is fatal: the message goes to stderr and the process exits
//! with status 1.
//!
//! Time is event time, exactly as in the simulator: the node's clock only
//! advances to the `at` stamp of the inputs the harness feeds it, so a
//! trace replayed through `fnp-node` sees the same clock the simulator saw.
//! `Broadcast` effects are expanded driver-side into per-neighbour `send`
//! lines in neighbour order (the simulator's deterministic order), skipping
//! the excluded peers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod runtime;
pub mod wire;

pub use runtime::NodeRuntime;
pub use wire::{Event, WireError};

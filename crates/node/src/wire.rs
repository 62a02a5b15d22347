//! Parsing and printing of the line-delimited JSON wire format.
//!
//! The codec is deliberately strict: every event line must carry the exact
//! fields the protocol needs, and anything malformed is a [`WireError`]
//! naming the offending field rather than a silent default. Output lines
//! are compact (single-line) JSON so the framing survives any
//! line-buffered pipe.
//!
//! Neither direction builds a JSON tree. [`parse_event`] makes one pass
//! over the line with the pull lexer of [`fnp_bench::json`], noting the
//! handful of fields the protocol knows into fixed cells and holding
//! everything else to the grammar as it skips it; a `deliver` or `tick`
//! line parses without touching the heap. The `*_line` writers format
//! straight into the one buffer they return.

use fnp_bench::json::{write_escaped, ParseError, Reader, Value};
use fnp_gossip::FloodMessage;
use fnp_netsim::{NodeId, SimTime};
use std::fmt::{self, Write as _};

/// One event arriving on stdin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Identity and topology; must be the first event.
    Init {
        /// This node's identifier.
        node: NodeId,
        /// Number of nodes in the overlay.
        node_count: usize,
        /// This node's neighbours.
        neighbors: Vec<NodeId>,
        /// Seed of the node-local RNG.
        seed: u64,
    },
    /// Originate a broadcast of `tx_id` at event time `at`.
    Start {
        /// Event timestamp.
        at: SimTime,
        /// The transaction to broadcast.
        tx_id: u64,
    },
    /// A peer's message arrives at event time `at`.
    Deliver {
        /// Event timestamp.
        at: SimTime,
        /// Sending peer.
        from: NodeId,
        /// The flooded message.
        message: FloodMessage,
    },
    /// A previously requested timer fires at event time `at`.
    Tick {
        /// Event timestamp.
        at: SimTime,
        /// The tag passed to `SetTimer`.
        tag: u64,
    },
    /// Finish up: acknowledge with `done` and exit.
    Shutdown,
}

/// A malformed wire line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the line.
    pub message: String,
}

impl WireError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid wire line: {}", self.message)
    }
}

impl std::error::Error for WireError {}

impl From<ParseError> for WireError {
    fn from(error: ParseError) -> Self {
        Self::new(error.to_string())
    }
}

/// What a line said about one integer field. The first occurrence of a key
/// decides, as in a [`Json::get`](fnp_bench::json::Json::get) lookup.
#[derive(Clone, Copy, Default)]
enum Cell {
    #[default]
    Absent,
    Int(u64),
    /// Present, but not a non-negative integer.
    Other,
}

impl Cell {
    /// Reads the field's value off `reader`, keeping it unless an earlier
    /// occurrence of the key already decided.
    fn note(&mut self, reader: &mut Reader<'_>) -> Result<(), ParseError> {
        let value = reader.value()?;
        reader.skip_rest(&value)?;
        if matches!(self, Cell::Absent) {
            *self = value.as_u64().map_or(Cell::Other, Cell::Int);
        }
        Ok(())
    }

    fn u64(self, key: &str) -> Result<u64, WireError> {
        match self {
            Cell::Int(value) => Ok(value),
            _ => Err(WireError::new(format!(
                "missing or non-integer field {key:?}"
            ))),
        }
    }

    fn node(self, key: &str) -> Result<NodeId, WireError> {
        node_id(self.u64(key)?).ok_or_else(|| WireError::new(format!("field {key:?} {ID_RANGE}")))
    }
}

const ID_RANGE: &str = "exceeds the node id range (0..=4294967295)";
const NO_NEIGHBORS: &str = "missing or non-array field \"neighbors\"";

fn node_id(index: u64) -> Option<NodeId> {
    u32::try_from(index)
        .ok()
        .map(|index| NodeId::new(index as usize))
}

/// The first `neighbors` field of a line: its items if it is an array of
/// node ids, else what `init` will say is wrong with it.
fn read_neighbors(reader: &mut Reader<'_>) -> Result<Result<Vec<NodeId>, WireError>, ParseError> {
    let value = reader.value()?;
    if value != Value::Arr {
        reader.skip_rest(&value)?;
        return Ok(Err(WireError::new(NO_NEIGHBORS)));
    }
    let mut neighbors = Ok(Vec::new());
    while reader.more(b']')? {
        let item = reader.value()?;
        reader.skip_rest(&item)?;
        if let Ok(ids) = &mut neighbors {
            match item.as_u64().map(node_id) {
                Some(Some(id)) => ids.push(id),
                Some(None) => {
                    neighbors = Err(WireError::new(format!("item of \"neighbors\" {ID_RANGE}")));
                }
                None => neighbors = Err(WireError::new("non-integer item in \"neighbors\"")),
            }
        }
    }
    Ok(neighbors)
}

/// The first `message` field of a line: the cell of its `tx_id` (absent
/// when the message is not an object).
fn read_message(reader: &mut Reader<'_>) -> Result<Cell, ParseError> {
    let mut tx_id = Cell::Absent;
    let value = reader.value()?;
    if value != Value::Obj {
        reader.skip_rest(&value)?;
        return Ok(tx_id);
    }
    while reader.more(b'}')? {
        if reader.key()? == "tx_id" {
            tx_id.note(reader)?;
        } else {
            reader.skip_value()?;
        }
    }
    Ok(tx_id)
}

/// Parses one stdin line into an [`Event`].
///
/// Fields the event type does not use are ignored once they have passed as
/// JSON; of a repeated key the first occurrence counts.
///
/// # Errors
///
/// Returns a [`WireError`] for malformed JSON, unknown event types, missing
/// or mistyped fields and node ids beyond `u32::MAX`.
pub fn parse_event(line: &str) -> Result<Event, WireError> {
    let mut reader = Reader::new(line);
    // `None`: not seen yet. `Some(None)`: seen, not a string.
    let mut kind = None;
    let mut neighbors = None;
    let mut message = None;
    let (mut node, mut node_count, mut seed) = (Cell::Absent, Cell::Absent, Cell::Absent);
    let (mut at, mut tx_id, mut from, mut tag) =
        (Cell::Absent, Cell::Absent, Cell::Absent, Cell::Absent);

    let top = reader.value()?;
    if top == Value::Obj {
        while reader.more(b'}')? {
            match &*reader.key()? {
                "type" if kind.is_none() => {
                    let value = reader.value()?;
                    reader.skip_rest(&value)?;
                    kind = Some(match value {
                        Value::Str(kind) => Some(kind),
                        _ => None,
                    });
                }
                "neighbors" if neighbors.is_none() => {
                    neighbors = Some(read_neighbors(&mut reader)?)
                }
                "message" if message.is_none() => message = Some(read_message(&mut reader)?),
                "node" => node.note(&mut reader)?,
                "node_count" => node_count.note(&mut reader)?,
                "seed" => seed.note(&mut reader)?,
                "at" => at.note(&mut reader)?,
                "tx_id" => tx_id.note(&mut reader)?,
                "from" => from.note(&mut reader)?,
                "tag" => tag.note(&mut reader)?,
                _ => reader.skip_value()?,
            }
        }
    } else {
        reader.skip_rest(&top)?;
    }
    reader.finish()?;

    let kind = kind
        .flatten()
        .ok_or_else(|| WireError::new("missing \"type\""))?;
    match &*kind {
        "init" => {
            let neighbors = neighbors.unwrap_or_else(|| Err(WireError::new(NO_NEIGHBORS)))?;
            Ok(Event::Init {
                node: node.node("node")?,
                node_count: node_count.u64("node_count")? as usize,
                neighbors,
                seed: seed.u64("seed")?,
            })
        }
        "start" => Ok(Event::Start {
            at: at.u64("at")?,
            tx_id: tx_id.u64("tx_id")?,
        }),
        "deliver" => {
            let message = message.ok_or_else(|| WireError::new("missing field \"message\""))?;
            Ok(Event::Deliver {
                at: at.u64("at")?,
                from: from.node("from")?,
                message: FloodMessage {
                    tx_id: message.u64("tx_id")?,
                },
            })
        }
        "tick" => Ok(Event::Tick {
            at: at.u64("at")?,
            tag: tag.u64("tag")?,
        }),
        "shutdown" => Ok(Event::Shutdown),
        other => Err(WireError::new(format!("unknown \"type\" {other:?}"))),
    }
}

/// Returns what `write` writes into a buffer of `capacity` bytes: the
/// length of the longest line of its kind, so one allocation carries any.
fn write_line(capacity: usize, write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::with_capacity(capacity);
    write(&mut out).expect("writing to a String cannot fail");
    out
}

/// Digits of `u64::MAX`.
const U64_DIGITS: usize = 20;
/// Digits of the largest node id, `u32::MAX`.
const ID_DIGITS: usize = 10;

/// The `init_ok` acknowledgement line.
pub fn init_ok_line(node: NodeId) -> String {
    write_line(26 + ID_DIGITS, |out| {
        write!(out, r#"{{"type":"init_ok","node":{}}}"#, node.index())
    })
}

/// A `send` output line.
pub fn send_line(to: NodeId, message: &FloodMessage) -> String {
    write_line(42 + ID_DIGITS + U64_DIGITS, |out| {
        write!(
            out,
            r#"{{"type":"send","to":{},"message":{{"tx_id":{}}}}}"#,
            to.index(),
            message.tx_id
        )
    })
}

/// A `delivered` output line.
pub fn delivered_line(at: SimTime) -> String {
    write_line(26 + U64_DIGITS, |out| {
        write!(out, r#"{{"type":"delivered","at":{at}}}"#)
    })
}

/// A `timer` request line (`at` is the absolute fire time).
pub fn timer_line(at: SimTime, tag: u64) -> String {
    write_line(29 + 2 * U64_DIGITS, |out| {
        write!(out, r#"{{"type":"timer","at":{at},"tag":{tag}}}"#)
    })
}

/// A `counter` metrics line.
pub fn counter_line(name: &str, amount: u64) -> String {
    // Exact for a name without escapes; one that has some grows the buffer.
    write_line(38 + name.len() + U64_DIGITS, |out| {
        out.push_str(r#"{"type":"counter","name":"#);
        write_escaped(out, name);
        write!(out, r#","amount":{amount}}}"#)
    })
}

/// The `done` shutdown acknowledgement line.
pub fn done_line(node: NodeId, delivered: bool) -> String {
    write_line(41 + ID_DIGITS, |out| {
        write!(
            out,
            r#"{{"type":"done","node":{},"delivered":{delivered}}}"#,
            node.index()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_bench::json::Json;

    #[test]
    fn parses_every_event_type() {
        assert_eq!(
            parse_event(r#"{"type":"init","node":2,"node_count":5,"neighbors":[1,3],"seed":7}"#)
                .unwrap(),
            Event::Init {
                node: NodeId::new(2),
                node_count: 5,
                neighbors: vec![NodeId::new(1), NodeId::new(3)],
                seed: 7,
            }
        );
        assert_eq!(
            parse_event(r#"{"type":"start","at":0,"tx_id":9}"#).unwrap(),
            Event::Start { at: 0, tx_id: 9 }
        );
        assert_eq!(
            parse_event(r#"{"type":"deliver","at":4,"from":1,"message":{"tx_id":9}}"#).unwrap(),
            Event::Deliver {
                at: 4,
                from: NodeId::new(1),
                message: FloodMessage { tx_id: 9 },
            }
        );
        assert_eq!(
            parse_event(r#"{"type":"tick","at":8,"tag":1}"#).unwrap(),
            Event::Tick { at: 8, tag: 1 }
        );
        assert_eq!(
            parse_event(r#"{"type":"shutdown"}"#).unwrap(),
            Event::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "not json",
            r#"{"no_type":1}"#,
            r#"{"type":"warp"}"#,
            r#"{"type":"start","at":0}"#,
            r#"{"type":"start","at":"soon","tx_id":1}"#,
            r#"{"type":"deliver","at":0,"from":1}"#,
            r#"{"type":"init","node":0,"node_count":2,"neighbors":1,"seed":0}"#,
            r#"{"type":"init","node":0,"node_count":2,"neighbors":["x"],"seed":0}"#,
        ] {
            let err = parse_event(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} should fail");
        }
    }

    #[test]
    fn output_lines_are_single_line_json() {
        for line in [
            init_ok_line(NodeId::new(3)),
            send_line(NodeId::new(1), &FloodMessage { tx_id: 2 }),
            delivered_line(5),
            timer_line(9, 1),
            counter_line("flood-dups", 1),
            done_line(NodeId::new(0), true),
        ] {
            assert!(!line.contains('\n'));
            Json::parse(&line).unwrap();
        }
        assert_eq!(
            send_line(NodeId::new(1), &FloodMessage { tx_id: 2 }),
            r#"{"type":"send","to":1,"message":{"tx_id":2}}"#
        );
    }

    #[test]
    fn ids_beyond_u32_are_errors_naming_the_field() {
        for (bad, field) in [
            (
                r#"{"type":"deliver","at":0,"from":4294967296,"message":{"tx_id":1}}"#,
                "\"from\"",
            ),
            (
                r#"{"type":"init","node":4294967296,"node_count":2,"neighbors":[],"seed":0}"#,
                "\"node\"",
            ),
            (
                r#"{"type":"init","node":0,"node_count":2,"neighbors":[1,4294967296],"seed":0}"#,
                "\"neighbors\"",
            ),
        ] {
            let err = parse_event(bad).unwrap_err();
            assert!(err.message.contains(field), "{err}");
            assert!(err.message.contains("node id range"), "{err}");
        }
        assert!(parse_event(
            r#"{"type":"deliver","at":0,"from":4294967295,"message":{"tx_id":1}}"#
        )
        .is_ok());
    }

    #[test]
    fn the_longest_line_of_each_kind_fills_its_buffer_exactly() {
        let (node, big) = (NodeId::new(u32::MAX as usize), u64::MAX);
        for line in [
            init_ok_line(node),
            send_line(node, &FloodMessage { tx_id: big }),
            delivered_line(big),
            timer_line(big, big),
            counter_line("flood-dups", big),
            done_line(node, false),
        ] {
            assert_eq!(line.len(), line.capacity(), "{line}");
        }
    }
}

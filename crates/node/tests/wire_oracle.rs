//! Differential oracle for the wire codec.
//!
//! `fnp_node::wire` reads event lines and writes output lines without a
//! JSON tree. The reference kept here is the obvious tree version of both
//! directions — `Json::parse` the line and look the fields up; build a
//! `Json::obj` and print it — and the codec must agree with it: the same
//! accept/reject decision, equal [`Event`]s, equal error text, and output
//! lines equal byte for byte. (The repo's reference-model idiom:
//! `mempool_model.rs`, `csr_reference.rs`, `receipt_oracle.rs`.)
//!
//! The event side runs over seed lines chosen to disagree if the two ever
//! could — reordered and repeated keys, junk nested under unknown keys,
//! whitespace, escaped keys and values, integers at the 19/20-digit edge and
//! at the node-id edge — and over 120 000 seeded delete / insert / replace /
//! truncate mutations of them.

use fnp_bench::json::Json;
use fnp_gossip::FloodMessage;
use fnp_netsim::NodeId;
use fnp_node::wire::{
    counter_line, delivered_line, done_line, init_ok_line, parse_event, send_line, timer_line,
};
use fnp_node::Event;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// The tree-based `parse_event`: what the line means, and what to say when
/// it means nothing.
fn reference(line: &str) -> Result<Event, String> {
    fn u64_of(value: &Json, key: &str) -> Result<u64, String> {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))
    }
    fn node_of(index: u64, what: &str) -> Result<NodeId, String> {
        u32::try_from(index)
            .map(|index| NodeId::new(index as usize))
            .map_err(|_| format!("{what} exceeds the node id range (0..=4294967295)"))
    }
    let value = Json::parse(line).map_err(|error| error.to_string())?;
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing \"type\"")?;
    match kind {
        "init" => {
            let neighbors = value
                .get("neighbors")
                .and_then(Json::as_array)
                .ok_or("missing or non-array field \"neighbors\"")?
                .iter()
                .map(|item| {
                    let index = item.as_u64().ok_or("non-integer item in \"neighbors\"")?;
                    node_of(index, "item of \"neighbors\"")
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Event::Init {
                node: node_of(u64_of(&value, "node")?, "field \"node\"")?,
                node_count: u64_of(&value, "node_count")? as usize,
                neighbors,
                seed: u64_of(&value, "seed")?,
            })
        }
        "start" => Ok(Event::Start {
            at: u64_of(&value, "at")?,
            tx_id: u64_of(&value, "tx_id")?,
        }),
        "deliver" => {
            let message = value.get("message").ok_or("missing field \"message\"")?;
            Ok(Event::Deliver {
                at: u64_of(&value, "at")?,
                from: node_of(u64_of(&value, "from")?, "field \"from\"")?,
                message: FloodMessage {
                    tx_id: u64_of(message, "tx_id")?,
                },
            })
        }
        "tick" => Ok(Event::Tick {
            at: u64_of(&value, "at")?,
            tag: u64_of(&value, "tag")?,
        }),
        "shutdown" => Ok(Event::Shutdown),
        other => Err(format!("unknown \"type\" {other:?}")),
    }
}

/// The protocol's field names: an error about a line that is JSON must
/// quote the one it is about.
const FIELDS: [&str; 10] = [
    "\"type\"",
    "\"node\"",
    "\"node_count\"",
    "\"neighbors\"",
    "\"seed\"",
    "\"at\"",
    "\"tx_id\"",
    "\"from\"",
    "\"message\"",
    "\"tag\"",
];

/// Holds the codec to the reference on one line; returns whether the line
/// was accepted.
fn check(line: &str) -> Result<bool, String> {
    let typed = parse_event(line).map_err(|error| error.message);
    let tree = reference(line);
    if typed != tree {
        return Err(format!(
            "{line:?}\n  codec:     {typed:?}\n  reference: {tree:?}"
        ));
    }
    if let Err(message) = &typed {
        let names_a_field = FIELDS.iter().any(|field| message.contains(field));
        if message.is_empty() || (Json::parse(line).is_ok() && !names_a_field) {
            return Err(format!("{line:?}: error {message:?} names no field"));
        }
    }
    Ok(typed.is_ok())
}

/// Lines the mutations start from. The first five are the crate docs'
/// examples; the rest are where a typed reader and a tree could part ways.
const SEEDS: [&str; 24] = [
    r#"{"type":"init","node":0,"node_count":5,"neighbors":[1,4],"seed":7}"#,
    r#"{"type":"start","at":0,"tx_id":1}"#,
    r#"{"type":"deliver","at":3,"from":1,"message":{"tx_id":1}}"#,
    r#"{"type":"tick","at":9,"tag":2}"#,
    r#"{"type":"shutdown"}"#,
    // Reordered: the type last, the message first.
    r#"{"message":{"tx_id":77},"from":3,"at":12,"type":"deliver"}"#,
    r#"{"seed":1,"neighbors":[],"node_count":1,"node":0,"type":"init"}"#,
    // Repeated keys: the first occurrence counts, whatever the later say.
    r#"{"type":"tick","type":"start","at":1,"at":"x","tag":2,"tag":3}"#,
    r#"{"type":"deliver","at":0,"from":1,"message":{"tx_id":5,"tx_id":"x"},"message":7}"#,
    r#"{"type":"start","at":"soon","at":4,"tx_id":1}"#,
    r#"{"type":"init","node":0,"node_count":3,"neighbors":[1],"neighbors":"x","seed":0}"#,
    // Unknown fields carry anything, as long as it is JSON.
    r#"{"type":"tick","junk":{"a":[1,2.5e3,{"b":null}],"c":"d"},"at":8,"tag":1,"x":[[],{}]}"#,
    r#"{"type":"deliver","at":1,"from":2,"message":{"meta":[true,false],"tx_id":9,"z":-1.5}}"#,
    // Fields of another event type are unknown fields here.
    r#"{"type":"shutdown","neighbors":["x",{}],"message":[1],"at":-3}"#,
    // Whitespace wherever JSON allows it.
    " {\t\"type\" : \"start\" ,\r\n \"at\" : 0 , \"tx_id\" : 1 } ",
    r#"{ "type" : "init" , "node" : 1 , "node_count" : 4 , "neighbors" : [ 0 , 2 ] , "seed" : 3 }"#,
    // Escapes in keys and values decode before they are compared.
    r#"{"ty\u0070e":"st\u0061rt","at":2,"tx_id":3,"n\"ote":"a\\b\n😀ü"}"#,
    r#"{"type":"start ","at":2,"tx_id":3}"#,
    // The integer edges: 19 digits, 20 digits within and beyond u64, -0.
    r#"{"type":"start","at":9999999999999999999,"tx_id":18446744073709551615}"#,
    r#"{"type":"start","at":18446744073709551616,"tx_id":1}"#,
    r#"{"type":"tick","at":-0,"tag":1000000000000000000}"#,
    r#"{"type":"tick","at":1.0,"tag":1e3}"#,
    // The node-id edge.
    r#"{"type":"deliver","at":0,"from":4294967295,"message":{"tx_id":1}}"#,
    r#"{"type":"init","node":4294967296,"node_count":2,"neighbors":[4294967295,4294967296],"seed":0}"#,
];

#[test]
fn seed_lines_parse_like_the_reference() {
    let accepted = SEEDS
        .iter()
        .filter(|line| check(line).unwrap_or_else(|why| panic!("{why}")))
        .count();
    // Rejected on purpose: the first `at` a string, the type with a
    // trailing space, `at` = 2⁶⁴, `at` = 1.0, and the ids beyond u32.
    assert_eq!(accepted, SEEDS.len() - 5);
    assert_eq!(
        parse_event(SEEDS[7]),
        Ok(Event::Tick { at: 1, tag: 2 }),
        "first occurrence of every repeated key"
    );
    assert_eq!(
        parse_event(SEEDS[16]),
        Ok(Event::Start { at: 2, tx_id: 3 }),
        "escaped keys and values"
    );
}

/// What an insertion or replacement draws from: JSON's structure, digits,
/// the letters of the literals and of `\u`, a multi-byte character and a
/// control character.
const ALPHABET: [char; 36] = [
    '{', '}', '[', ']', ':', ',', '"', '\\', ' ', '\t', '-', '+', '.', 'e', 'E', 'u', '0', '1',
    '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'n', 't', 'd', 'f', 'l', 's', 'x', 'ü', '\u{1}',
];

/// Applies `(kind, where, what)` edits to `seed`, character-wise: delete,
/// insert, replace, or (half as often: it rarely leaves JSON) truncate at
/// the position `where` scales to.
fn mutate(seed: &str, edits: &[(u8, usize, usize)]) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for &(kind, position, letter) in edits {
        let at = position % (chars.len() + 1);
        match kind {
            0 | 1 if at < chars.len() => drop(chars.remove(at)),
            2 | 3 => chars.insert(at, ALPHABET[letter]),
            4 | 5 if at < chars.len() => chars[at] = ALPHABET[letter],
            6 => chars.truncate(at),
            _ => {}
        }
    }
    chars.into_iter().collect()
}

const MUTATIONS: u32 = 120_000;
static ACCEPTED: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(MUTATIONS))]

    // No `#[test]`: run by the wrapper below, which also reads the tally.
    fn a_mutated_line_parses_like_the_reference(
        seed in 0..SEEDS.len(),
        edits in proptest::collection::vec((0u8..7, 0usize..1024, 0..ALPHABET.len()), 1..3),
    ) {
        match check(&mutate(SEEDS[seed], &edits)) {
            Ok(accepted) => drop(ACCEPTED.fetch_add(u32::from(accepted), Ordering::Relaxed)),
            Err(why) => prop_assert!(false, "{}", why),
        }
    }
}

#[test]
fn mutated_lines_parse_like_the_reference() {
    a_mutated_line_parses_like_the_reference();
    // An oracle that only ever sees rejections (or only acceptances) would
    // compare nothing: both outcomes must be common.
    let accepted = ACCEPTED.load(Ordering::Relaxed);
    assert!(
        (MUTATIONS / 20..MUTATIONS * 19 / 20).contains(&accepted),
        "{accepted} of {MUTATIONS} mutated lines accepted"
    );
}

/// The tree-built form of every output line.
fn reference_lines(
    node: NodeId,
    message: &FloodMessage,
    at: u64,
    tag: u64,
    name: &str,
    delivered: bool,
) -> [String; 6] {
    [
        Json::obj([
            ("type", Json::from("init_ok")),
            ("node", Json::from(node.index())),
        ]),
        Json::obj([
            ("type", Json::from("send")),
            ("to", Json::from(node.index())),
            ("message", Json::obj([("tx_id", Json::from(message.tx_id))])),
        ]),
        Json::obj([("type", Json::from("delivered")), ("at", Json::from(at))]),
        Json::obj([
            ("type", Json::from("timer")),
            ("at", Json::from(at)),
            ("tag", Json::from(tag)),
        ]),
        Json::obj([
            ("type", Json::from("counter")),
            ("name", Json::from(name)),
            ("amount", Json::from(tag)),
        ]),
        Json::obj([
            ("type", Json::from("done")),
            ("node", Json::from(node.index())),
            ("delivered", Json::from(delivered)),
        ]),
    ]
    .map(|line| line.to_compact_string())
}

fn written_lines(
    node: NodeId,
    message: &FloodMessage,
    at: u64,
    tag: u64,
    name: &str,
    delivered: bool,
) -> [String; 6] {
    [
        init_ok_line(node),
        send_line(node, message),
        delivered_line(at),
        timer_line(at, tag),
        counter_line(name, tag),
        done_line(node, delivered),
    ]
}

const NAMES: [&str; 5] = [
    "flood-dups",
    "",
    "quote\" backslash\\ bell\u{7} newline\n tab\t",
    "\u{1f}\u{20}ü\u{1f600}",
    "\\\\\"\"",
];

#[test]
fn output_lines_at_the_edges_equal_the_printed_tree() {
    for node in [0, 1, 1_999, u32::MAX as usize] {
        for value in [0, 1, 9, 10, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            for name in NAMES {
                let node = NodeId::new(node);
                let message = FloodMessage { tx_id: value };
                let at = u64::MAX - value;
                assert_eq!(
                    written_lines(node, &message, at, value, name, value % 2 == 0),
                    reference_lines(node, &message, at, value, name, value % 2 == 0),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn output_lines_equal_the_printed_tree(
        ids in (0..=u32::MAX as usize, any::<u64>()),
        times in (any::<u64>(), any::<u64>()),
        name in 0..NAMES.len(),
        delivered in any::<bool>(),
    ) {
        let (node, message) = (NodeId::new(ids.0), FloodMessage { tx_id: ids.1 });
        let written = written_lines(node, &message, times.0, times.1, NAMES[name], delivered);
        let printed = reference_lines(node, &message, times.0, times.1, NAMES[name], delivered);
        prop_assert_eq!(&written, &printed);
        for line in &written {
            prop_assert!(!line.contains('\n'));
        }
    }
}

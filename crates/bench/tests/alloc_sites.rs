//! Where a `steady_mix`-shaped unit's heap bytes come from, by allocation
//! site: a report, not a wall, so it is `#[ignore]`d. Run it as
//!
//! ```console
//! CARGO_PROFILE_RELEASE_DEBUG=1 cargo test --release -p fnp-bench --test alloc_sites -- --ignored --nocapture
//! ```
//!
//! (the debug information lets each frame, inlined ones included, name its
//! source line). The unit is the repo benchmark's `steady_mix` allocation
//! unit: `steady_state_with` on one worker at n = 300, 12 miners, one run,
//! rates 2 and 8 per second, a 6 s horizon and base seed `0xA11`, counted
//! after an identical warm-up unit. Bytes are counted as the benchmark
//! counts them — every `alloc`'s size and every `realloc`'s new size — and
//! divided by the transactions injected.
//!
//! This binary's global allocator keys each request the measuring thread
//! makes by the return addresses on its stack (glibc's `backtrace(3)`) and
//! captures a `std::backtrace::Backtrace` for each distinct stack. After
//! the unit, each stack resolves to its *site*: the innermost frame in the
//! workspace's own source outside this file. The report lists the sites,
//! then sums them into the groups of [`GROUPS`].

use fnp_bench::{steady_state_with, TrialRunner};
use fnp_netsim::SECOND;
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ffi::{c_int, c_void};

extern "C" {
    /// glibc's `backtrace(3)`: writes up to `size` return addresses of the
    /// calling thread's stack to `buffer` and returns how many it wrote.
    fn backtrace(buffer: *mut *mut c_void, size: c_int) -> c_int;
}

/// Return addresses a stack is keyed by: enough to pass the allocator's
/// own frames, the container code and the protocol core that called it.
const DEPTH: usize = 64;

/// One distinct stack: the bytes requested under it, and the backtrace
/// taken the first time, resolved only when the report is printed.
struct Stack {
    bytes: u64,
    trace: Backtrace,
}

thread_local! {
    /// Whether this thread is measuring.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Whether this thread is inside the recorder, whose own requests
    /// (the key, the map, the backtrace) are passed through uncounted.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
    static STACKS: RefCell<HashMap<Vec<usize>, Stack>> = RefCell::new(HashMap::new());
}

/// Charges `bytes` to the calling thread's current stack, if it measures.
fn record(bytes: usize) {
    if !ARMED.with(Cell::get) || INSIDE.with(|inside| inside.replace(true)) {
        return;
    }
    let mut frames = [std::ptr::null_mut::<c_void>(); DEPTH];
    // SAFETY: `frames` has room for `DEPTH` addresses.
    let depth = unsafe { backtrace(frames.as_mut_ptr(), DEPTH as c_int) };
    let key: Vec<usize> = frames[..usize::try_from(depth).unwrap_or(0)]
        .iter()
        .map(|&frame| frame as usize)
        .collect();
    STACKS.with(|stacks| {
        let mut stacks = stacks.borrow_mut();
        let stack = stacks.entry(key).or_insert_with(|| Stack {
            bytes: 0,
            trace: Backtrace::force_capture(),
        });
        stack.bytes += bytes as u64;
    });
    INSIDE.with(|inside| inside.set(false));
}

/// The system allocator, with the measuring thread's requests charged to
/// their stacks.
struct SiteAllocator;

// SAFETY: every operation is forwarded verbatim to the system allocator;
// the only addition is the bookkeeping in `record`, whose own requests
// re-enter here flagged and are forwarded uncounted.
unsafe impl GlobalAlloc for SiteAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded under the caller's own `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (which delegates to
        // `System`) with the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: forwarded under the caller's own `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: SiteAllocator = SiteAllocator;

/// A frame of a resolved backtrace: its function and, with debug
/// information, its source location.
struct Frame {
    function: String,
    location: Option<String>,
}

/// The frames of `trace`, innermost first, read from its `Display` form:
/// a numbered line per frame (`  3: path::to::function`), each followed
/// by its `at file:line:column` lines.
fn frames(trace: &Backtrace) -> Vec<Frame> {
    let text = trace.to_string();
    let mut frames: Vec<Frame> = Vec::new();
    for line in text.lines().map(str::trim) {
        if let Some(at) = line.strip_prefix("at ") {
            if let Some(frame) = frames.last_mut() {
                frame.location.get_or_insert_with(|| at.to_owned());
            }
        } else if let Some((_, function)) = line.split_once(": ") {
            frames.push(Frame {
                function: function.to_owned(),
                location: None,
            });
        }
    }
    frames
}

/// The workspace-relative `file:line` of a frame's `file:line:column`
/// location, if the file lies in the workspace. The compiler names this
/// package's own files relative to it (`./src/…`), other packages' from
/// the workspace root (`…/crates/…`).
fn workspace_line(location: &str) -> Option<String> {
    let (file_line, _column) = location.rsplit_once(':')?;
    if let Some(own) = file_line.strip_prefix("./") {
        return Some(format!("crates/bench/{own}"));
    }
    let start = file_line.find("crates/")?;
    Some(file_line[start..].to_owned())
}

/// The site a stack resolves to: the innermost frame in the workspace's
/// source outside this file, as `function (file:line)`.
fn site(trace: &Backtrace) -> String {
    for frame in frames(trace) {
        let Some(line) = frame.location.as_deref().and_then(workspace_line) else {
            continue;
        };
        if !line.starts_with("crates/bench/tests/alloc_sites.rs") {
            return format!("{} ({line})", strip_hash(&frame.function));
        }
    }
    "(no workspace frame)".to_owned()
}

/// `function` without the trailing `::h0123…` symbol hash.
fn strip_hash(function: &str) -> &str {
    match function.rsplit_once("::h") {
        Some((path, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            path
        }
        _ => function,
    }
}

/// The groups the report sums sites into: a label and the part of a
/// site's text that puts it there. A site lands in the first group that
/// matches; the rest are "other".
const GROUPS: &[(&str, &str)] = &[
    ("time wheel", "netsim/src/wheel.rs"),
    ("instance rows", "SteadySession<C>::admit"),
    ("effect mailboxes", "Mailbox<M>::push"),
    ("infection-tree child lists", "InfectionTree::adopt"),
    (
        "latency log and transaction records",
        "SteadySession<C>::new",
    ),
    ("fig6 latency copy", "steady_state_with ("),
    ("broadcast exclusion lists", "Mailbox<M>::broadcast"),
];

#[test]
#[ignore = "a report: run with --ignored --nocapture, in release with debug information"]
fn steady_mix_bytes_by_allocation_site() {
    let unit = || {
        let rows = steady_state_with(
            &TrialRunner::new(1),
            300,
            12,
            1,
            &[2.0, 8.0],
            6 * SECOND,
            0xA11,
        );
        rows.iter().map(|row| row.injected).sum::<usize>()
    };
    // Resolve one backtrace before measuring, so the resolver's own
    // set-up is not charged, and warm the unit.
    let _ = frames(&Backtrace::force_capture());
    unit();
    ARMED.with(|armed| armed.set(true));
    let ops = unit();
    ARMED.with(|armed| armed.set(false));

    let stacks = STACKS.with(|stacks| std::mem::take(&mut *stacks.borrow_mut()));
    let mut sites: HashMap<String, u64> = HashMap::new();
    for stack in stacks.into_values() {
        *sites.entry(site(&stack.trace)).or_default() += stack.bytes;
    }
    let total: u64 = sites.values().sum();
    let per_op = |bytes: u64| bytes as f64 / ops as f64;
    let mut sites: Vec<(String, u64)> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    println!(
        "{ops} transactions, {total} B requested, {:.0} B/op\n",
        per_op(total)
    );
    println!("{:>10}  site", "B/op");
    for (site, bytes) in &sites {
        println!("{:>10.0}  {site}", per_op(*bytes));
    }
    let mut groups = vec![0u64; GROUPS.len() + 1];
    for (site, bytes) in &sites {
        let group = GROUPS
            .iter()
            .position(|(_, part)| site.contains(part))
            .unwrap_or(GROUPS.len());
        groups[group] += bytes;
    }
    println!("\n{:>10}  group", "B/op");
    let labels = GROUPS.iter().map(|(label, _)| *label).chain(["other"]);
    for (label, bytes) in labels.zip(groups) {
        println!("{:>10.0}  {label}", per_op(bytes));
    }
    assert!(ops > 0 && total > 0, "the unit injected and allocated");
}

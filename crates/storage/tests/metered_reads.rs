//! No uncharged read: every public read path of the storage relations
//! charges `IoStats`, so the paper's cost tables count every block a
//! query touches. Three documented accessors are exempt by name
//! (assertions and post-run extraction), and every other public method
//! is classified as construction, a write or metadata. A public method
//! added to one of these types fails `every_public_method_is_classified`
//! until it is placed in one of the lists.

use atis_graph::{CostModel, Grid};
use atis_storage::{
    EdgeRelation, HeapFile, IoStats, MultiRelation, NodeRelation, NodeStatus, NodeTuple,
    TempRelation,
};
use std::collections::BTreeSet;

/// The documented uncharged accessors.
const EXEMPT: &[(&str, &str)] = &[
    ("NodeRelation", "peek"),
    ("NodeRelation", "predecessors"),
    ("TempRelation", "peek"),
];

/// Public methods that read no tuple: constructors, writes (each charged
/// by its own rule) and in-memory metadata.
const NOT_READS: &[(&str, &[&str])] = &[
    (
        "HeapFile",
        &[
            "create",
            "create_segmented",
            "segment_count",
            "segment_blocks",
            "attach_buffer",
            "attach_faults",
            "len",
            "is_empty",
            "block_count",
            "append",
            "flush",
            "update_slot",
            "rewrite",
            "clear",
        ],
    ),
    (
        "EdgeRelation",
        &[
            "load",
            "load_segmented",
            "heap",
            "attach_buffer",
            "attach_faults",
            "tuple_count",
            "block_count",
            "average_degree",
            "shared_with",
            "update_cost",
        ],
    ),
    (
        "NodeRelation",
        &[
            "load",
            "load_segmented",
            "attach_buffer",
            "attach_faults",
            "tuple_count",
            "block_count",
            "isam_levels",
            "replace",
            "rewrite",
        ],
    ),
    (
        "TempRelation",
        &[
            "create",
            "attach_buffer",
            "attach_faults",
            "append",
            "delete",
            "replace",
            "clear",
        ],
    ),
    (
        "MultiRelation",
        &[
            "create",
            "attach_buffer",
            "attach_faults",
            "len",
            "is_empty",
            "block_count",
            "append",
            "delete_slot",
            "eliminate_duplicates",
            "clear",
        ],
    ),
];

/// One relation of each type, loaded from a small grid, with no buffer
/// pool attached (a pool hit is free by design, so it would hide a
/// missing charge).
struct Fixtures {
    heap: HeapFile<NodeTuple>,
    edges: EdgeRelation,
    nodes: NodeRelation,
    temp: TempRelation<NodeTuple>,
    multi: MultiRelation<NodeTuple>,
}

fn fixtures() -> Fixtures {
    let grid = Grid::new(6, CostModel::Uniform, 0).unwrap();
    let mut io = IoStats::new();
    let mut heap = HeapFile::create(&mut io);
    heap.append(&NodeTuple::unreached(0.0, 0.0));
    heap.flush(&mut io).unwrap();
    let edges = EdgeRelation::load(grid.graph(), &mut io).unwrap();
    let mut nodes = NodeRelation::load(grid.graph(), edges.block_count(), 3, &mut io).unwrap();
    nodes
        .replace(0, &mut io, |t| t.status = NodeStatus::Open)
        .unwrap();
    let mut temp = TempRelation::create(3, &mut io);
    temp.append(7, &NodeTuple::unreached(1.0, 1.0), &mut io)
        .unwrap();
    let mut multi = MultiRelation::create(3, &mut io);
    multi
        .append(7, &NodeTuple::unreached(1.0, 1.0), &mut io)
        .unwrap();
    Fixtures {
        heap,
        edges,
        nodes,
        temp,
        multi,
    }
}

/// A public read path: `(type, method, one call of it)`.
type Read<'a> = (&'static str, &'static str, Box<dyn Fn(&mut IoStats) + 'a>);

fn read<'a>(ty: &'static str, method: &'static str, call: impl Fn(&mut IoStats) + 'a) -> Read<'a> {
    (ty, method, Box::new(call))
}

/// Every public method that reads tuples, each called once.
/// `TempRelation`'s keyless reads (`scan`, `select_min`) are its
/// `MultiRelation`'s, reached through `Deref`.
fn reads(f: &Fixtures) -> Vec<Read<'_>> {
    let score = |_: u32, t: &NodeTuple| f64::from(t.path_cost);
    vec![
        read("HeapFile", "read_slot", |io| {
            f.heap.read_slot(0, io).unwrap();
        }),
        read("HeapFile", "scan", |io| f.heap.scan(io, |_, _| {}).unwrap()),
        read("HeapFile", "scan_range", |io| {
            f.heap.scan_range(0, 1, io, |_, _| {}).unwrap();
        }),
        read("EdgeRelation", "fetch_adjacency", |io| {
            f.edges.fetch_adjacency(0, io).unwrap();
        }),
        read("EdgeRelation", "scan", |io| {
            f.edges.scan(io, |_| {}).unwrap()
        }),
        read("EdgeRelation", "charge_scan", |io| {
            f.edges.charge_scan(io).unwrap()
        }),
        read("EdgeRelation", "charge_probe", |io| {
            f.edges.charge_probe(0, io).unwrap();
        }),
        read("NodeRelation", "get", |io| {
            f.nodes.get(0, io).unwrap();
        }),
        read("NodeRelation", "scan", |io| {
            f.nodes.scan(io, |_, _| {}).unwrap()
        }),
        read("NodeRelation", "select_min_open", move |io| {
            f.nodes.select_min_open(io, score).unwrap();
        }),
        read("NodeRelation", "count_status", |io| {
            f.nodes.count_status(NodeStatus::Open, io).unwrap();
        }),
        read("NodeRelation", "fetch_status", |io| {
            f.nodes.fetch_status(NodeStatus::Open, io).unwrap();
        }),
        read("TempRelation", "get", |io| {
            f.temp.get(7, io).unwrap();
        }),
        read("TempRelation", "contains", |io| {
            f.temp.contains(7, io).unwrap();
        }),
        read("MultiRelation", "scan", |io| {
            f.multi.scan(io, |_, _, _| {}).unwrap();
        }),
        read("MultiRelation", "select_min", move |io| {
            f.multi.select_min(io, score).unwrap();
        }),
    ]
}

#[test]
fn every_public_read_charges_io() {
    let f = fixtures();
    for (ty, method, read) in reads(&f) {
        let mut io = IoStats::new();
        read(&mut io);
        assert!(
            io.block_reads > 0,
            "{ty}::{method} read without charging IoStats"
        );
    }
}

/// `(type, method)` for every `pub fn` of an impl block in `src`, up to
/// its test module.
fn public_methods(src: &str) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    let mut ty = String::new();
    for line in src.lines().take_while(|l| !l.starts_with("#[cfg(test)]")) {
        if line.starts_with("impl") {
            // The implemented type is the last word before `{`, minus generics.
            let word = line.split_whitespace().rev().nth(1).unwrap_or_default();
            ty = word.split('<').next().unwrap_or_default().to_string();
        } else if let Some(rest) = line.strip_prefix("    pub fn ") {
            let name = rest
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next();
            out.insert((ty.clone(), name.unwrap_or_default().to_string()));
        }
    }
    out
}

#[test]
fn every_public_method_is_classified() {
    let sources = [
        include_str!("../src/heapfile.rs"),
        include_str!("../src/relations.rs"),
        include_str!("../src/temp.rs"),
    ];
    let f = fixtures();
    let mut classified = BTreeSet::new();
    let mut add = |ty: &str, method: &str| {
        assert!(
            classified.insert((ty.to_string(), method.to_string())),
            "{ty}::{method} is classified twice"
        );
    };
    reads(&f).iter().for_each(|(ty, method, _)| add(ty, method));
    EXEMPT.iter().for_each(|(ty, method)| add(ty, method));
    for (ty, methods) in NOT_READS {
        methods.iter().for_each(|method| add(ty, method));
    }
    let types: BTreeSet<&str> = NOT_READS.iter().map(|(ty, _)| *ty).collect();
    let declared: BTreeSet<(String, String)> = sources
        .iter()
        .flat_map(|src| public_methods(src))
        .filter(|(ty, _)| types.contains(ty.as_str()))
        .collect();
    let unclassified: Vec<_> = declared.difference(&classified).collect();
    let stale: Vec<_> = classified.difference(&declared).collect();
    assert!(
        unclassified.is_empty() && stale.is_empty(),
        "every public method must be a charged read, a documented exemption, or a non-read; \
         unclassified: {unclassified:?}, listed but not declared: {stale:?}"
    );
}

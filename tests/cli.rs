//! End-to-end tests of the `atis` command-line binary: export a map,
//! inspect it, plan routes (by id and by coordinate), compare algorithms,
//! plan a trip, and generate alternatives — all through the real process
//! boundary.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn atis(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_atis"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The exported map every test reads. Exported once per test binary:
/// tests run on parallel threads, and a second export into the same file
/// would let another test read it half-written.
fn temp_map() -> PathBuf {
    static MAP: OnceLock<PathBuf> = OnceLock::new();
    MAP.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("atis_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let map = dir.join("map.txt");
        let out = atis(&[
            "export-map",
            "grid",
            "10",
            "7",
            "variance",
            map.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        map
    })
    .clone()
}

#[test]
fn export_and_info() {
    let map = temp_map();
    let out = atis(&["info", map.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("nodes:          100"), "{text}");
    assert!(text.contains("directed edges: 360"), "{text}");
}

#[test]
fn route_by_id_and_by_coordinate_agree() {
    let map = temp_map();
    let by_id = atis(&["route", map.to_str().unwrap(), "0", "99"]);
    assert!(by_id.status.success(), "{}", stderr(&by_id));
    // Node 0 is at (0,0); node 99 at (9,9).
    let by_coord = atis(&["route", map.to_str().unwrap(), "0.1,0.0", "8.9,9.1"]);
    assert!(by_coord.status.success(), "{}", stderr(&by_coord));
    let (a, b) = (stdout(&by_id), stdout(&by_coord));
    let cost_line = |s: &str| s.lines().next().unwrap_or_default().to_string();
    assert_eq!(
        cost_line(&a),
        cost_line(&b),
        "id and coordinate addressing must agree"
    );
    assert!(a.contains("Directions:"));
    assert!(a.contains("arrived"));
}

#[test]
fn compare_lists_all_three_algorithms() {
    let map = temp_map();
    let out = atis(&["compare", map.to_str().unwrap(), "0", "99"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for name in ["Iterative", "A* (version 3)", "Dijkstra"] {
        assert!(text.contains(name), "missing {name} in {text}");
    }
}

#[test]
fn trip_and_alternatives() {
    let map = temp_map();
    let out = atis(&["trip", map.to_str().unwrap(), "0", "9", "99"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("leg 2"), "{}", stdout(&out));

    let out = atis(&["alternatives", map.to_str().unwrap(), "0", "99", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("option 1"));
    assert!(
        text.lines().count() >= 2,
        "expected several options: {text}"
    );
}

#[test]
fn route_writes_svg() {
    let map = temp_map();
    let svg = map.with_file_name("route.svg");
    let out = atis(&[
        "route",
        map.to_str().unwrap(),
        "0",
        "55",
        "--svg",
        svg.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let content = std::fs::read_to_string(&svg).unwrap();
    assert!(content.starts_with("<svg"));
    assert!(content.contains("<polyline"));
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let map = temp_map();
    // Unknown node.
    let out = atis(&["route", map.to_str().unwrap(), "0", "100000"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("outside the map"));
    // Unknown command.
    let out = atis(&["frobnicate"]);
    assert!(!out.status.success());
    // Missing file.
    let out = atis(&["info", "/nonexistent/map.txt"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));
    // Bad algorithm name.
    let out = atis(&[
        "route",
        map.to_str().unwrap(),
        "0",
        "9",
        "--algorithm",
        "bfs",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown algorithm"));
}

#[test]
fn usage_on_no_arguments() {
    let out = atis(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

//! Command-line driver that regenerates every table and figure of the
//! paper.
//!
//! ```text
//! experiments all             # everything, in paper order (markdown)
//! experiments table4b         # one artifact
//! experiments fig5 fig9       # several artifacts
//! experiments all --out DIR   # also write DIR/experiments.md + figure8.svg
//! experiments --list          # artifact ids
//! ```

use atis_bench::{Driver, DRIVERS};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, desc, _) in DRIVERS {
            println!("{id:12} {desc}");
        }
        return;
    }
    // Optional output directory.
    let mut out_dir: Option<std::path::PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        if pos + 1 >= args.len() {
            eprintln!("--out needs a directory");
            std::process::exit(2);
        }
        out_dir = Some(std::path::PathBuf::from(args.remove(pos + 1)));
        args.remove(pos);
    }
    let selected: Vec<&Driver> = if args.is_empty() || args.iter().any(|a| a == "all") {
        DRIVERS.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match DRIVERS.iter().find(|(id, _, _)| id == a) {
                Some(d) => sel.push(d),
                None => {
                    eprintln!("unknown experiment '{a}' (use --list)");
                    std::process::exit(2);
                }
            }
        }
        sel
    };
    let mut document = String::new();
    document.push_str("# ATIS path-computation experiments (ICDE'93 reproduction)\n\n");
    document.push_str(&format!(
        "Deterministic seed {}; execution time = simulated I/O in Table 4A units.\n\n",
        atis_bench::PAPER_SEED
    ));
    for (id, _, driver) in selected {
        document.push_str(&driver(id).to_string());
    }
    print!("{document}");
    if let Some(dir) = out_dir {
        // Figure 8 as a vector image, beside the document.
        let m = atis_graph::Minneapolis::paper();
        let options = atis_core::SvgOptions::default();
        let svg = atis_core::render_svg(m.graph(), None, m.landmarks(), &options);
        let (md, svg_path) = (dir.join("experiments.md"), dir.join("figure8.svg"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&md, &document))
            .and_then(|()| std::fs::write(&svg_path, svg));
        if let Err(e) = written {
            eprintln!("cannot write to {}: {e}", dir.display());
            std::process::exit(1);
        }
        eprintln!("wrote {} and {}", md.display(), svg_path.display());
    }
}

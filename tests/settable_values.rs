//! The public surface: how many public fields the configuration structs
//! expose, and how many `pub` items each library crate declares. Every
//! field is a value some caller could set, so each one has to earn its
//! place (a paper constant, a value some caller sets to something other
//! than its default, or a knob an experiment sweeps); the rest are
//! constants in the module that uses them. Every `pub` item likewise needs
//! a caller outside its module. These tests pin both counts, per struct or
//! crate and in total, so adding or removing either shows up here as a
//! diff.

/// One [`STRUCTS`] row: the struct, its source under `crates/`, and the
/// number of public fields it is pinned at.
macro_rules! row {
    ($name:literal, $path:literal, $fields:literal) => {
        ($name, include_str!(concat!("../crates/", $path)), $fields)
    };
}

/// `(struct, source, public fields)` for every configuration struct.
const STRUCTS: &[(&str, &str, usize)] = &[
    row!("CalibratorConfig", "autocal/src/calibrator.rs", 2),
    row!("RegistryConfig", "autocal/src/registry.rs", 2),
    row!("BandwidthParams", "core/src/bandwidth.rs", 3),
    row!("ModelParams", "core/src/params.rs", 9),
    row!("PlannerConfig", "core/src/planner.rs", 2),
    row!("FlightConfig", "obs/src/flight.rs", 2),
    row!("SloSpec", "obs/src/slo.rs", 6),
    row!("ControllerConfig", "rms/src/controller.rs", 2),
    row!("DegradedConfig", "rms/src/degraded.rs", 3),
    row!("ModelDrivenConfig", "rms/src/policy/model_driven.rs", 2),
    row!("ServerConfig", "rtf/src/server.rs", 2),
    row!("ClusterConfig", "sim/src/cluster.rs", 11),
    row!("MeasureConfig", "sim/src/measure.rs", 7),
    row!("MultiZoneConfig", "sim/src/multizone.rs", 4),
    row!("ManagedSessionConfig", "sim/src/session.rs", 12),
    row!("SessionConfig", "transport/src/session.rs", 4),
    row!("TcpConfig", "transport/src/tcp.rs", 3),
];

/// Settable values across all of [`STRUCTS`].
const TOTAL: usize = 76;

/// The names of `name`'s `pub <field>:` lines in `source`. Panics when the
/// struct is not declared there.
fn public_fields<'a>(name: &str, source: &'a str) -> Vec<&'a str> {
    let header = format!("pub struct {name} {{");
    let body = source
        .split_once(&header)
        .unwrap_or_else(|| panic!("no `{header}` in its source file"))
        .1;
    body.lines()
        .take_while(|line| *line != "}")
        .filter_map(|line| {
            let (field, _) = line.trim_start().strip_prefix("pub ")?.split_once(':')?;
            field
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
                .then_some(field)
        })
        .collect()
}

#[test]
fn settable_values_are_pinned_per_struct_and_in_total() {
    let counted: Vec<(&str, usize)> = STRUCTS
        .iter()
        .map(|&(name, source, _)| (name, public_fields(name, source).len()))
        .collect();
    for &(name, source, _) in STRUCTS {
        println!("{name:>22}: {}", public_fields(name, source).join(", "));
    }
    let pinned: Vec<(&str, usize)> = STRUCTS.iter().map(|&(n, _, c)| (n, c)).collect();
    assert_eq!(counted, pinned);
    let total: usize = counted.iter().map(|&(_, c)| c).sum();
    println!("settable values: {total} across {} structs", STRUCTS.len());
    assert_eq!(total, TOTAL);
}

/// `(crate directory, pub items)` for every library crate but the custom
/// linter and the frozen performance ledger.
const CRATES: &[(&str, usize)] = &[
    ("autocal", 34),
    ("core", 92),
    ("demo", 66),
    ("fit", 14),
    ("net", 31),
    ("obs", 113),
    ("rms", 76),
    ("rng", 9),
    ("rtf", 149),
    ("sim", 146),
    ("transport", 87),
];

/// `pub` items across all of [`CRATES`].
const PUB_ITEMS: usize = 817;

/// Items declared with a bare `pub` (not `pub(crate)`) in `source`, before
/// its first `#[cfg(test)]` line. [`items_after_tests`] keeps that line the
/// start of the file's test modules.
fn pub_items(source: &str) -> usize {
    const KINDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
    ];
    source
        .lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter(|line| {
            line.trim_start()
                .strip_prefix("pub ")
                .and_then(|rest| rest.split_whitespace().next())
                .is_some_and(|kind| KINDS.contains(&kind))
        })
        .count()
}

/// Top-level lines of `source` from its first `#[cfg(test)]` on that are
/// not part of a `#[cfg(test)]` module: anything but blank lines, comments,
/// closing braces, indented lines, `#[cfg(test)]` and the `mod` line right
/// after it. Non-empty means a non-test item sits below a test module,
/// where [`pub_items`] would not count it.
fn items_after_tests(source: &str) -> Vec<&str> {
    let mut previous = "";
    let mut stray = Vec::new();
    for line in source
        .lines()
        .skip_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
    {
        let test_module = previous.starts_with("#[cfg(test)]")
            && (line.starts_with("mod ") || line.starts_with("pub(crate) mod "));
        let inside = line.is_empty()
            || line.starts_with([' ', '}'])
            || line.starts_with("//")
            || line.starts_with("#[cfg(test)]");
        if !(test_module || inside) {
            stray.push(line);
        }
        previous = line;
    }
    stray
}

/// The `.rs` files under `dir`, recursively, in path order.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn pub_items_are_pinned_per_crate_and_in_total() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let counted: Vec<(&str, usize)> = CRATES
        .iter()
        .map(|&(name, _)| {
            let mut files = Vec::new();
            rust_files(&crates.join(name).join("src"), &mut files);
            let items = files
                .iter()
                .map(|file| {
                    let source = std::fs::read_to_string(file).expect("readable source");
                    let stray = items_after_tests(&source);
                    assert!(
                        stray.is_empty(),
                        "{}: non-test lines after the first #[cfg(test)]: {stray:?}",
                        file.display()
                    );
                    pub_items(&source)
                })
                .sum();
            println!("{name:>10}: {items} pub items in {} files", files.len());
            (name, items)
        })
        .collect();
    assert_eq!(counted, CRATES);
    let total: usize = counted.iter().map(|&(_, items)| items).sum();
    println!("pub items: {total} across {} crates", CRATES.len());
    assert_eq!(total, PUB_ITEMS);
}

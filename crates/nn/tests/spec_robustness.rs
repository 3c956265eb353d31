//! Robustness net over the `.ahg` graph-spec parser: hostile text maps to
//! a typed [`GraphSpecError`], never a panic, and whatever is accepted
//! re-serializes to a parse fixed point. Every input goes through
//! [`GraphSpec::parse`] (which runs [`GraphSpec::validate`]) and never
//! through `build_graph`, so a huge declared value is checked without
//! being allocated.
//!
//! The corpus is every checked-in `specs/*.ahg`: each of its truncations,
//! random byte mutations, numeric fields swapped for edge values, and
//! lines dropped or repeated, plus byte soup and token soup.

use std::path::Path;

use advhunter_nn::spec::{GraphSpec, GraphSpecError};
use proptest::collection;
use proptest::prelude::*;

/// Every checked-in spec, as (file name, text).
fn corpus() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("specs directory")
        .map(|entry| entry.expect("spec entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "ahg"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("spec is UTF-8 text");
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                text,
            )
        })
        .collect();
    specs.sort();
    assert!(
        specs.len() >= 4,
        "expected the checked-in specs under {dir:?}"
    );
    specs
}

/// Parses `text` and, when it is accepted, checks that its canonical form
/// parses back to the same canonical form. Returns the outcome.
fn parse_to_fixed_point(text: &str) -> Result<GraphSpec, GraphSpecError> {
    let spec = GraphSpec::parse(text)?;
    let canonical = spec.to_canonical_string();
    let again = GraphSpec::parse(&canonical)
        .unwrap_or_else(|e| panic!("canonical form of an accepted spec fails: {e}\n{canonical}"));
    assert_eq!(
        again.to_canonical_string(),
        canonical,
        "canonical form is not a fixed point; input:\n{text}"
    );
    assert_eq!(again.digest(), spec.digest());
    Ok(spec)
}

/// Values a numeric field should never crash on: zero, the caps'
/// neighbours, integer-width edges, one past `u64::MAX`, negatives and
/// non-finite floats. A `train` rate must reject every one that is not a
/// finite number above zero.
const EDGE_VALUES: [&str; 14] = [
    "0",
    "1",
    "65536",
    "65537",
    "67108865",
    "4294967296",
    "9223372036854775807",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e39",
    "NaN",
    "inf",
    "",
];

/// Tokens of the format, for soup that reaches past the tokenizer.
const TOKENS: [&str; 28] = [
    "ahg",
    "1",
    "name",
    "model",
    "dataset",
    "cifar10-like",
    "input",
    "classes",
    "target-class",
    "sizes",
    "train",
    "node",
    "conv2d",
    "dwconv2d",
    "linear",
    "relu",
    "silu",
    "batchnorm",
    "maxpool",
    "avgpool",
    "gap",
    "flatten",
    "add",
    "concat",
    "scale",
    "3",
    "0",
    "#",
];

#[test]
fn the_checked_in_specs_are_fixed_points() {
    for (name, text) in corpus() {
        parse_to_fixed_point(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn every_truncation_fails_typed_or_parses_to_a_fixed_point() {
    for (_, text) in corpus() {
        for cut in 0..text.len() {
            let _ = parse_to_fixed_point(&text[..cut]);
        }
    }
}

#[test]
fn every_numeric_field_survives_edge_values() {
    for (_, text) in corpus() {
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for (t, token) in tokens.iter().enumerate() {
                if !token.starts_with(|c: char| c.is_ascii_digit()) {
                    continue;
                }
                for edge in EDGE_VALUES {
                    let mut mutated = tokens.clone();
                    mutated[t] = edge;
                    let mut doc: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
                    doc[i] = mutated.join(" ");
                    let outcome = parse_to_fixed_point(&doc.join("\n"));
                    // `train <epochs> <batch> <learning rate> <lr decay>`:
                    // both rates must be finite and above zero.
                    if tokens[0] == "train" && t >= 3 {
                        match edge.parse::<f32>() {
                            Ok(v) if v.is_finite() && v > 0.0 => {}
                            Ok(_) => assert!(
                                matches!(outcome, Err(GraphSpecError::BadLearningRate { .. })),
                                "train rate {edge} gave {outcome:?}"
                            ),
                            Err(_) => assert!(outcome.is_err(), "train rate {edge:?}"),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dropped_and_repeated_lines_fail_typed_or_parse_to_a_fixed_point() {
    for (_, text) in corpus() {
        let lines: Vec<&str> = text.lines().collect();
        for i in 0..lines.len() {
            let mut dropped = lines.clone();
            dropped.remove(i);
            let _ = parse_to_fixed_point(&dropped.join("\n"));
            let mut repeated = lines.clone();
            repeated.insert(i, lines[i]);
            let _ = parse_to_fixed_point(&repeated.join("\n"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (read the way `load_spec` would accept them, as
    /// text) fail typed or parse to a fixed point.
    #[test]
    fn byte_soup_never_panics(bytes in collection::vec(any::<u8>(), 0..512usize)) {
        let _ = parse_to_fixed_point(&String::from_utf8_lossy(&bytes));
    }

    /// Lines of random format tokens and numbers get past the tokenizer
    /// into the directive and node rules.
    #[test]
    fn token_soup_never_panics(
        picks in collection::vec(0usize..TOKENS.len() + EDGE_VALUES.len() + 1, 0..96usize),
    ) {
        let mut text = String::from("ahg 1\n");
        for pick in picks {
            match pick {
                p if p < TOKENS.len() => text.push_str(TOKENS[p]),
                p if p < TOKENS.len() + EDGE_VALUES.len() => {
                    text.push_str(EDGE_VALUES[p - TOKENS.len()]);
                }
                _ => text.push('\n'),
            }
            text.push(' ');
        }
        let _ = parse_to_fixed_point(&text);
    }

    /// A checked-in spec with a few bytes overwritten fails typed or
    /// parses to a fixed point. Each edit's low byte is the new byte, the
    /// rest its position.
    #[test]
    fn mutated_specs_never_panic(
        which in any::<usize>(),
        edits in collection::vec(any::<u64>(), 1..4usize),
    ) {
        let specs = corpus();
        let mut bytes = specs[which % specs.len()].1.clone().into_bytes();
        for edit in edits {
            let pos = (edit >> 8) as usize % bytes.len();
            bytes[pos] = edit as u8;
        }
        let _ = parse_to_fixed_point(&String::from_utf8_lossy(&bytes));
    }
}

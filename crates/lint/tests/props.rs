//! Property tests for the lint lexer and rule pipeline (ISSUE satellite):
//! the analyzer is the thing that judges every other crate, so it must
//! never panic — not on byte soup, not on unterminated literals, not on
//! adversarially nested comments — and every token it emits must point
//! back at the exact source characters it was lexed from (the rules
//! render `file:line:col` findings from those spans).

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use roia_lint::lexer::{lex, TokKind};
use roia_lint::{rules_for, scan_source, RuleId};

/// Rust-ish source fragments: enough structure to reach every lexer arm
/// (raw strings, lifetimes, nested comments, numeric suffixes, allow
/// annotations) while random composition produces the torn, half-formed
/// inputs a text editor mid-keystroke would feed a file watcher.
fn fragment() -> BoxedStrategy<String> {
    prop_oneof![
        Just("fn f<'a>(x: &'a mut u8) -> u8 { *x }".to_string()),
        Just("let s = r#\"raw \" with quote\"#;".to_string()),
        Just("let b = b\"bytes\"; let c = b'x';".to_string()),
        Just("/* outer /* nested */ tail */".to_string()),
        Just("// lint: allow(nondet, \"because\")".to_string()),
        Just("let n = 1.5e-3f64 + 0x_1f + 2e6;".to_string()),
        Just("let m: HashMap<u32, Instant> = HashMap::new();".to_string()),
        Just("\"unterminated".to_string()),
        Just("r###\"deep raw\"###".to_string()),
        Just("'l: loop { break 'l; }".to_string()),
        Just("/*".to_string()),
        Just("r#".to_string()),
        Just("b'".to_string()),
        Just("0.".to_string()),
        Just("..".to_string()),
        Just("::<>".to_string()),
        Just("\n".to_string()),
        Just(" ".to_string()),
    ]
    .boxed()
}

/// Arbitrary bytes forced through lossy UTF-8: genuine soup, including
/// replacement characters, stray quotes and half escape sequences.
fn byte_soup() -> BoxedStrategy<String> {
    vec(any::<u8>(), 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
        .boxed()
}

/// Checks every token's `(line, col)` span points at exactly its text in
/// `src`. The lexer builds token text by copying source characters in
/// order, so the text must reappear verbatim at the recorded position.
fn assert_spans_round_trip(src: &str) -> Result<(), TestCaseError> {
    let lexed = lex(src);
    let lines: Vec<Vec<char>> = src.split('\n').map(|l| l.chars().collect()).collect();
    for t in &lexed.tokens {
        let row = (t.line as usize).checked_sub(1);
        let col = (t.col as usize).checked_sub(1);
        let (Some(row), Some(col)) = (row, col) else {
            return Err(TestCaseError::Fail(
                format!(
                    "token {:?} has zero-based span {}:{}",
                    t.text, t.line, t.col
                )
                .into(),
            ));
        };
        prop_assert!(
            row < lines.len(),
            "token {:?} claims line {} of {}",
            t.text,
            t.line,
            lines.len()
        );
        // Re-read the token's characters from the span, crossing line
        // boundaries for multi-line literals (raw strings).
        let mut at_row = row;
        let mut at_col = col;
        for expect in t.text.chars() {
            let actual = match lines.get(at_row).and_then(|l| l.get(at_col)) {
                Some(&c) => Some(c),
                // Past end-of-line: the next source char is '\n'.
                None if at_row + 1 < lines.len() && at_col == lines[at_row].len() => Some('\n'),
                None => None,
            };
            prop_assert_eq!(
                actual,
                Some(expect),
                "token {:?} at {}:{} diverges from source",
                &t.text,
                t.line,
                t.col
            );
            if actual == Some('\n') {
                at_row += 1;
                at_col = 0;
            } else {
                at_col += 1;
            }
        }
    }
    Ok(())
}

/// Runs the full rule pipeline over `src` as if it were a scoped file:
/// lexing, allow-annotation parsing and every token rule. The property is
/// simply "no panic, sane findings".
fn scan_everything(src: &str) -> Result<(), TestCaseError> {
    let mut rules = rules_for("crates/sim/src/soup.rs");
    rules.push(RuleId::M1);
    let findings = scan_source("crates/sim/src/soup.rs", src, &rules);
    for f in &findings {
        prop_assert!(f.line >= 1, "finding with zero line: {}", f.render());
    }
    Ok(())
}

proptest! {
    /// Raw byte soup: lexing must not panic and spans must round-trip.
    #[test]
    fn lexer_survives_byte_soup(src in byte_soup()) {
        assert_spans_round_trip(&src)?;
    }

    /// Structured fragments glued together: half-formed Rust is the lexer's
    /// worst case (prefixes like `r#`, `b'`, `/*` decide between arms).
    #[test]
    fn lexer_survives_fragment_salad(parts in vec(fragment(), 0..24)) {
        let src = parts.concat();
        assert_spans_round_trip(&src)?;
    }

    /// Lexing is a pure function: same input, same tokens and comments.
    #[test]
    fn lexing_is_deterministic(parts in vec(fragment(), 0..16)) {
        let src = parts.concat();
        let a = lex(&src);
        let b = lex(&src);
        prop_assert_eq!(format!("{:?}", a.tokens), format!("{:?}", b.tokens));
        prop_assert_eq!(format!("{:?}", a.comments), format!("{:?}", b.comments));
    }

    /// Arbitrarily deep comment nesting collapses to one comment and never
    /// swallows the code after the matched close.
    #[test]
    fn nested_block_comments_balance(depth in 1usize..24) {
        let mut src = String::new();
        for _ in 0..depth {
            src.push_str("/* x ");
        }
        for _ in 0..depth {
            src.push_str(" y */");
        }
        src.push_str(" sentinel");
        let lexed = lex(&src);
        prop_assert_eq!(lexed.comments.len(), 1, "nesting depth {}", depth);
        prop_assert!(lexed.tokens.iter().any(|t| t.is_ident("sentinel")));
        assert_spans_round_trip(&src)?;
    }

    /// Raw strings with any hash depth swallow embedded quotes and smaller
    /// terminators; the sentinel after the real terminator still lexes.
    #[test]
    fn raw_strings_swallow_lesser_terminators(
        hashes in 1usize..8,
        body_bytes in vec(any::<u8>(), 0..32),
    ) {
        const ALPHABET: &[u8] = b"abcz\" # ";
        let body: String = body_bytes
            .iter()
            .map(|b| ALPHABET[*b as usize % ALPHABET.len()] as char)
            .collect();
        let guard = "#".repeat(hashes);
        // Strip any accidental real terminator from the body.
        let terminator = format!("\"{guard}");
        let body = body.replace(&terminator, "");
        let src = format!("let s = r{guard}\"{body}\"{guard}; sentinel");
        let lexed = lex(&src);
        prop_assert_eq!(
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
        prop_assert!(lexed.tokens.iter().any(|t| t.is_ident("sentinel")));
        assert_spans_round_trip(&src)?;
    }

    /// Lifetimes never lex as char literals regardless of the identifier,
    /// and an adjacent real char literal still does.
    #[test]
    fn lifetimes_are_not_char_literals(name_bytes in vec(any::<u8>(), 1..12)) {
        const ALPHABET: &[u8] = b"abcxyz_059";
        let name: String = std::iter::once('l')
            .chain(
                name_bytes
                    .iter()
                    .map(|b| ALPHABET[*b as usize % ALPHABET.len()] as char),
            )
            .collect();
        let src = format!("fn f<'{name}>(x: &'{name} u8) {{ let c = 'q'; }}");
        let lexed = lex(&src);
        prop_assert_eq!(
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2,
            "lifetime '{}' mislexed", name
        );
        prop_assert_eq!(
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            1
        );
    }

    /// The whole rule pipeline — lexer, allow parser, token rules — never
    /// panics on byte soup and never reports a line 0.
    #[test]
    fn rule_pipeline_survives_byte_soup(src in byte_soup()) {
        scan_everything(&src)?;
    }

    /// Same, over fragment salad (which, unlike soup, actually trips rules
    /// and allow annotations).
    #[test]
    fn rule_pipeline_survives_fragment_salad(parts in vec(fragment(), 0..24)) {
        scan_everything(&parts.concat())?;
    }

    /// The semantic model builder and concurrency analysis never panic on
    /// torn input either (they walk the same token stream).
    #[test]
    fn semantic_analysis_survives_fragment_salad(parts in vec(fragment(), 0..24)) {
        let files = vec![("crates/sim/src/soup.rs".to_string(), parts.concat())];
        let ws = roia_lint::model::build(&files);
        let analysis = roia_lint::conc::analyze(&ws);
        for f in &analysis.findings {
            prop_assert!(f.line >= 1, "finding with zero line: {}", f.render());
        }
    }
}

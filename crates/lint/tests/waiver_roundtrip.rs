//! Property tests for the waiver pragma grammar: `render` is the exact
//! inverse of `parse` over arbitrary rules/reasons/scopes (including quote
//! and backslash escapes), and reason-less pragmas are always rejected.

use dvs_lint::waiver::{parse, render, Waiver, WaiverError, WaiverScope};
use proptest::prelude::*;

/// Waivable rule short names (the catalog minus the two meta rules).
const RULE_NAMES: &[&str] = &[
    "wall-clock",
    "entropy",
    "hash-iter",
    "hot-alloc-transitive",
    "panic",
    "index",
    "discard",
    "unsafe-code",
];

/// Reason alphabet. Deliberately includes `"` and `\` (the two escaped
/// characters), pragma metacharacters (`(`, `)`, `,`, `=`), and spaces.
const REASON_CHARS: &[char] = &[
    'a', 'b', 'k', 'z', 'A', 'Z', '0', '9', ' ', '-', '_', '.', ',', ':', ';', '(', ')', '"', '\\',
    '\'', '/', '!', '?', '=', '<', '>',
];

/// Reasons are index vectors mapped through the alphabet (the vendored
/// proptest stub has no string strategies). A leading letter guarantees the
/// reason is never all-whitespace, which `parse` rejects by design.
fn reason_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..REASON_CHARS.len(), 0..48).prop_map(|ixs| {
        let mut s = String::from("r");
        s.extend(ixs.iter().map(|&i| REASON_CHARS[i]));
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_inverts_render(
        rule_ix in 0usize..RULE_NAMES.len(),
        file_scope in any::<bool>(),
        reason in reason_strategy(),
    ) {
        let w = Waiver {
            rule: RULE_NAMES[rule_ix].to_string(),
            reason,
            scope: if file_scope { WaiverScope::File } else { WaiverScope::Line },
        };
        // A pragma comment body is " dvs-lint: …" (text after `//`).
        let body = format!(" {}", render(&w));
        let back = parse(&body);
        prop_assert_eq!(back, Ok(Some(w)));
    }

    #[test]
    fn reasonless_pragmas_never_parse(
        rule_ix in 0usize..RULE_NAMES.len(),
        file_scope in any::<bool>(),
    ) {
        let verb = if file_scope { "allow-file" } else { "allow" };
        let body = format!(" dvs-lint: {verb}({})", RULE_NAMES[rule_ix]);
        prop_assert_eq!(parse(&body), Err(WaiverError::MissingReason));
    }

    #[test]
    fn whitespace_only_reasons_never_parse(
        rule_ix in 0usize..RULE_NAMES.len(),
        spaces in 0usize..6,
    ) {
        let body = format!(
            " dvs-lint: allow({}, reason = \"{}\")",
            RULE_NAMES[rule_ix],
            " ".repeat(spaces)
        );
        prop_assert_eq!(parse(&body), Err(WaiverError::EmptyReason));
    }
}

//! The golden comparison the dvs-lint integration tests share: a drifted
//! report fails with its first differing lines, not both whole reports.

/// How many differing lines a mismatch lists.
const SHOWN_LINES: usize = 3;

/// Panics unless `actual` equals `golden` byte for byte, listing the first
/// lines where they differ, numbered from 1, golden text beside actual,
/// after `what` and the regeneration hint `regen`. Splitting on `\n` keeps
/// a missing final newline visible as a line.
pub fn assert_golden(what: &str, golden: &str, actual: &str, regen: &str) {
    if golden == actual {
        return;
    }
    let golden: Vec<&str> = golden.split('\n').collect();
    let actual: Vec<&str> = actual.split('\n').collect();
    let show = |line: Option<&&str>| line.map_or("(end of file)".to_string(), |l| format!("`{l}`"));
    let mut diff = String::new();
    for i in (0..golden.len().max(actual.len()))
        .filter(|&i| golden.get(i) != actual.get(i))
        .take(SHOWN_LINES)
    {
        diff.push_str(&format!(
            "line {}:\n  golden {}\n  actual {}\n",
            i + 1,
            show(golden.get(i)),
            show(actual.get(i))
        ));
    }
    panic!(
        "{what} drifted from its golden:\n{diff}if the rule change is intentional, regenerate \
         with `{regen}` and review the diff"
    );
}

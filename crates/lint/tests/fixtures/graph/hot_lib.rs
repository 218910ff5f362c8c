//! The fixture dispatch loop. Allocation-free itself; its helper was
//! extracted into `util.rs`, which no manifest entry names.

/// Hot entry: pumps `n` items through the extracted helper.
pub fn pump(n: usize) -> usize {
    let mut acc = 0;
    for i in 0..n {
        acc += helper(i);
    }
    acc
}

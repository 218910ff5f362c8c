//! The helper the hot entry calls from another file: a scan of `lib.rs`
//! alone sees nothing, yet every `pump` call allocates here.

/// Builds a scratch buffer per call — an allocation outside the entry's file.
pub fn helper(i: usize) -> usize {
    let mut scratch = Vec::new();
    scratch.push(i);
    scratch.len()
}

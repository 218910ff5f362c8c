//! Compact binary trace I/O: the `.dvst` container.
//!
//! JSON traces cost ~28 bytes per frame and a full parse-and-allocate on
//! every load — fine for 75 scenarios, not for fleet-scale replay or long
//! captures. This module stores the same frames in ~5.5 bytes each and
//! decodes them with plain integer arithmetic, streaming block by block
//! into caller-provided buffers.
//!
//! # On-disk format (version 1)
//!
//! All integers are little-endian; `varint` is LEB128 (7 data bits per
//! byte, high bit continues). The container is a header, a sequence of
//! self-contained frame blocks, and a trailer:
//!
//! ```text
//! header   magic "DVST" | version u16 | rate_hz u32 | backend u8
//!          | name_len u16 | name bytes | fnv1a u64 of all prior bytes
//! block    frame_count u32 (> 0) | payload_len u32 | payload
//!          | fnv1a u64 of payload
//! trailer  0u32 | total_frames u64 | fnv1a u64 of the total's 8 bytes
//! ```
//!
//! Each block holds up to [`BLOCK_FRAMES`] frames and decodes with no
//! context from other blocks (self-describing, no internal pointers — the
//! layout an mmap reader could index, though this reader uses buffered
//! incremental reads because the workspace forbids `unsafe`). A block's
//! payload stores its `ui` then `rs` nanosecond values as one field group
//! each:
//!
//! ```text
//! group    reference varint | width u8
//!          | if width == 0: exception_count varint
//!            | exceptions: (index varint, zigzag varint) ...
//!          | if width > 0: canonical-Huffman length table, one nibble per
//!            symbol over 2^min(4,width) top-bits symbols plus one escape
//!            symbol (two nibbles per byte, zero-padded)
//!          | main bitstream, MSB-first, byte-aligned at the end: per value
//!            either the Huffman code of its top min(4,width) bits followed
//!            by its width - min(4,width) low bits raw, or the escape code
//!            alone
//!          | if any value escaped: a spill group holding the escaped
//!            values whole, in index order — same layout minus the escape
//!            symbol (its outliers fall back to exception patches)
//! ```
//!
//! Every value is a zigzag-coded delta from the group's reference (the
//! midrange of the group). The encoder picks the packed `width` that
//! minimises the group's encoded size. The workloads here are bimodal —
//! a lognormal bulk of short frames plus Pareto-tailed long-frame spikes —
//! so deltas wider than the chosen width (the spikes) emit only a Huffman
//! escape code in the main stream and *spill* into a nested group with its
//! own midrange reference, where they again pack tightly instead of
//! costing whole varints. In-range deltas split into raw low bits (they
//! are nanosecond noise, incompressible) plus a top nibble whose
//! distribution is sharply peaked and Huffman-codes well below 4 bits per
//! value. Wrapping arithmetic makes the mapping a bijection on `u64`, so
//! any trace — including `u64::MAX` durations — round-trips exactly.
//!
//! Compatibility policy: readers accept exactly [`FORMAT_VERSION`]; any
//! layout change bumps the version and older files fail with
//! [`TraceError::Version`], never a silent misparse. Corruption (torn
//! block, flipped bit) fails the per-block checksum as
//! [`TraceError::Corrupt`].

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use dvs_sim::SimDuration;

use crate::trace::{Backend, FrameCost, FrameTrace, TraceError};

/// Magic bytes opening every binary trace.
pub const MAGIC: [u8; 4] = *b"DVST";

/// The container format version this build writes and accepts.
pub const FORMAT_VERSION: u16 = 1;

/// Maximum frames per checksummed block.
pub const BLOCK_FRAMES: usize = 1024;

/// Maximum frames per field group — one `ui` and one `rs` group per block,
/// so the Huffman table amortises over the whole block. Kept at or below
/// 1024 so canonical code lengths stay within a nibble (a Huffman tree over
/// 16 symbols and ≤ 1024 counts never exceeds depth 14).
pub const MINI_FRAMES: usize = BLOCK_FRAMES;

/// Top bits of each in-range delta that go through the Huffman coder; the
/// remaining low bits are raw (they are nanosecond noise, incompressible).
const TOP_BITS: u32 = 4;

/// Largest Huffman alphabet: `2^TOP_BITS` top-bits symbols plus the escape
/// symbol a top-level group uses to mark spilled values.
const MAX_SYMS: usize = (1 << TOP_BITS) + 1;

/// File extension for binary traces.
pub const BINARY_EXT: &str = "dvst";

/// Hard ceiling on a block's payload length: the worst case is every value
/// stored at full width plus a patched exception, far below this bound.
/// Anything larger is a corrupt or adversarial length field.
const MAX_PAYLOAD: usize = BLOCK_FRAMES * 2 * 24 + 4096;

/// Label used in errors for in-memory (non-file) encode/decode.
const MEMORY_LABEL: &str = "<memory>";

// ---- primitives ------------------------------------------------------------

/// Container checksums use the workspace's single FNV-1a implementation
/// (`dvs_sim::fnv1a`, the byte-slice sibling of `stable_seed`), so trace
/// seals and checkpoint fingerprints can never drift apart.
use dvs_sim::fnv1a;

/// Zigzag-codes a wrapping delta so small signed differences become small
/// unsigned values. A bijection on `u64`.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    ((z >> 1) as i64 ^ -((z & 1) as i64)) as u64
}

/// Bits needed to represent `v` (0 for 0).
fn bit_width(v: u64) -> u32 {
    64 - v.leading_zeros()
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

// ---- error helpers ---------------------------------------------------------

fn io_err(label: &str, op: &'static str, e: &io::Error) -> TraceError {
    // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: formats context once on failure")
    TraceError::Io { path: label.to_string(), op, detail: e.to_string() }
}

fn format_err(label: &str, detail: String) -> TraceError {
    // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: formats context once on failure")
    TraceError::Format { path: label.to_string(), detail }
}

fn corrupt_err(label: &str, detail: String) -> TraceError {
    // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: formats context once on failure")
    TraceError::Corrupt { path: label.to_string(), detail }
}

// ---- byte cursor -----------------------------------------------------------

/// A bounds-checked reader over a byte slice; every overrun is a typed
/// format error instead of a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    label: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], label: &'a str) -> Self {
        Cursor { buf, pos: 0, label }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: truncated payload")
            format_err(self.label, format!("payload truncated at byte {}", self.pos))
        })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 63 && b > 1 {
                return Err(format_err(
                    self.label,
                    // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: overlong varint")
                    format!("varint overflow at byte {}", self.pos),
                ));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---- bit-level IO ----------------------------------------------------------

/// MSB-first bit appender over a byte vector.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter { out, acc: 0, nbits: 0 }
    }

    /// Appends the low `n` (≤ 32) bits of `v`, most significant first.
    fn push_raw(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 32 && (n == 64 || v >> n == 0));
        self.acc = (self.acc << n) | v;
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Appends the low `n` (≤ 64) bits of `v`, most significant first.
    fn push_bits(&mut self, v: u64, n: u32) {
        if n > 32 {
            self.push_raw(v >> 32, n - 32);
            self.push_raw(v & 0xffff_ffff, 32);
        } else if n > 0 {
            self.push_raw(v & ((1u64 << n) - 1), n);
        }
    }

    /// Pads the final partial byte with zero bits and writes it.
    fn finish(mut self) {
        if self.nbits > 0 {
            self.out.push(((self.acc << (8 - self.nbits)) & 0xff) as u8);
        }
        self.nbits = 0;
    }
}

/// MSB-first bit reader over a cursor's remaining bytes; consumed bits are
/// settled back onto the cursor (rounded up to whole bytes) on `finish`.
struct BitReader<'a> {
    buf: &'a [u8],
    byte: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, byte: 0, acc: 0, nbits: 0 }
    }

    fn fill(&mut self) {
        while self.nbits <= 56 && self.byte < self.buf.len() {
            self.acc |= (self.buf[self.byte] as u64) << (56 - self.nbits);
            self.byte += 1;
            self.nbits += 8;
        }
    }

    /// Takes `n` (≤ 64) bits, most significant first. Reads wider than the
    /// accumulator guarantees (57 bits after a refill) split in two.
    fn take_bits(&mut self, n: u32, label: &str) -> Result<u64, TraceError> {
        if n > 32 {
            let high = self.take(n - 32, label)?;
            let low = self.take(32, label)?;
            Ok((high << 32) | low)
        } else {
            self.take(n, label)
        }
    }

    /// Takes `n` (≤ 32) bits, most significant first.
    fn take(&mut self, n: u32, label: &str) -> Result<u64, TraceError> {
        if n == 0 {
            return Ok(0);
        }
        if self.nbits < n {
            self.fill();
            if self.nbits < n {
                return Err(format_err(label, String::from("bitstream truncated")));
            }
        }
        let v = self.acc >> (64 - n);
        self.acc <<= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Whole bytes consumed so far (partial trailing bits round up).
    fn bytes_consumed(&self) -> usize {
        self.byte - (self.nbits / 8) as usize
    }

    /// The next 8 bits without consuming them; past the end of the stream
    /// the tail is zero-padded (a following [`BitReader::skip`] or
    /// [`BitReader::take`] still reports truncation).
    fn peek8(&mut self) -> u8 {
        if self.nbits < 8 {
            self.fill();
        }
        (self.acc >> 56) as u8
    }

    /// Consumes `n` (≤ 32) already-peeked bits.
    fn skip(&mut self, n: u32, label: &str) -> Result<(), TraceError> {
        if self.nbits < n {
            return Err(format_err(label, String::from("bitstream truncated")));
        }
        self.acc <<= n;
        self.nbits -= n;
        Ok(())
    }
}

// ---- canonical Huffman over top-bits symbols --------------------------------

/// Code lengths for up to [`MAX_SYMS`] symbols by plain Huffman merging;
/// symbol sets ride along as a bit mask so no allocation is needed.
/// Lengths stay ≤ 14 for ≤ 1024 total counts (Fibonacci bound), which
/// fits the on-disk nibble. A lone present symbol gets length 1.
fn huffman_lengths(hist: &[u32]) -> [u8; MAX_SYMS] {
    debug_assert!(hist.len() <= MAX_SYMS);
    let mut lengths = [0u8; MAX_SYMS];
    let mut weights = [0u64; MAX_SYMS];
    let mut masks = [0u32; MAX_SYMS];
    let mut n = 0usize;
    for (sym, &c) in hist.iter().enumerate() {
        if c > 0 {
            weights[n] = c as u64;
            masks[n] = 1 << sym;
            n += 1;
        }
    }
    if n == 1 {
        lengths[masks[0].trailing_zeros() as usize] = 1;
        return lengths;
    }
    while n > 1 {
        // Find the two lightest nodes (stable on index for determinism).
        let mut a = 0;
        for i in 1..n {
            if weights[i] < weights[a] {
                a = i;
            }
        }
        let mut b = usize::MAX;
        for i in 0..n {
            if i != a && (b == usize::MAX || weights[i] < weights[b]) {
                b = i;
            }
        }
        let merged_mask = masks[a] | masks[b];
        let mut m = merged_mask;
        while m != 0 {
            let sym = m.trailing_zeros() as usize;
            lengths[sym] += 1;
            m &= m - 1;
        }
        weights[a] += weights[b];
        masks[a] = merged_mask;
        n -= 1;
        weights.swap(b, n);
        masks.swap(b, n);
    }
    lengths
}

/// Canonical code assignment: symbols ordered by (length, symbol value).
fn canonical_codes(lengths: &[u8]) -> [u16; MAX_SYMS] {
    let mut cnt = [0u16; 16];
    for &l in lengths {
        cnt[l as usize] += 1;
    }
    cnt[0] = 0;
    let mut next = [0u16; 16];
    let mut code = 0u16;
    for len in 1..16 {
        code = (code + cnt[len - 1]) << 1;
        next[len] = code;
    }
    let mut codes = [0u16; MAX_SYMS];
    for (sym, &l) in lengths.iter().enumerate() {
        if l > 0 {
            codes[sym] = next[l as usize];
            next[l as usize] += 1;
        }
    }
    codes
}

/// Canonical decode tables: per-length symbol counts and the symbols in
/// canonical order. Rejects over-subscribed length sets (invalid trees).
fn canonical_tables(
    lengths: &[u8],
    label: &str,
) -> Result<([u16; 16], [u8; MAX_SYMS]), TraceError> {
    let mut cnt = [0u16; 16];
    for &l in lengths {
        cnt[l as usize] += 1;
    }
    let mut kraft = 0u32;
    for (len, &c) in cnt.iter().enumerate().skip(1) {
        kraft += (c as u32) << (15 - len);
    }
    if kraft > 1 << 15 {
        return Err(format_err(label, String::from("over-subscribed huffman table")));
    }
    let mut syms = [0u8; MAX_SYMS];
    let mut i = 0usize;
    for len in 1..16u8 {
        for (sym, &l) in lengths.iter().enumerate() {
            if l == len {
                syms[i] = sym as u8;
                i += 1;
            }
        }
    }
    Ok((cnt, syms))
}

/// Reads one canonical symbol, MSB-first, bit by bit (codes are short — the
/// distribution is peaked — so this is typically two or three iterations).
fn decode_symbol(
    reader: &mut BitReader<'_>,
    cnt: &[u16; 16],
    syms: &[u8; MAX_SYMS],
    label: &str,
) -> Result<u8, TraceError> {
    let mut code = 0u32;
    let mut first = 0u32;
    let mut index = 0usize;
    for &c in cnt.iter().skip(1) {
        code = (code << 1) | reader.take(1, label)? as u32;
        let n = c as u32;
        if code.wrapping_sub(first) < n {
            return Ok(syms[index + (code - first) as usize]);
        }
        index += n as usize;
        first = (first + n) << 1;
    }
    Err(format_err(label, String::from("invalid huffman code")))
}

/// Table-driven canonical decoder: codes up to 8 bits — in practice all of
/// them, the symbol distribution is peaked — resolve with one 256-entry
/// lookup on the next byte; longer codes fall back to [`decode_symbol`].
struct SymbolDecoder {
    cnt: [u16; 16],
    syms: [u8; MAX_SYMS],
    lut_sym: [u8; 256],
    lut_len: [u8; 256],
}

impl SymbolDecoder {
    fn new(lengths: &[u8], label: &str) -> Result<Self, TraceError> {
        let (cnt, syms) = canonical_tables(lengths, label)?;
        let codes = canonical_codes(lengths);
        let mut lut_sym = [0u8; 256];
        let mut lut_len = [0u8; 256];
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 && l <= 8 {
                let base = (codes[sym] as usize) << (8 - l);
                for entry in base..base + (1usize << (8 - l)) {
                    lut_sym[entry] = sym as u8;
                    lut_len[entry] = l;
                }
            }
        }
        Ok(SymbolDecoder { cnt, syms, lut_sym, lut_len })
    }

    #[inline]
    fn decode(&self, reader: &mut BitReader<'_>, label: &str) -> Result<u8, TraceError> {
        let peek = reader.peek8() as usize;
        let len = self.lut_len[peek];
        if len > 0 {
            reader.skip(len as u32, label)?;
            Ok(self.lut_sym[peek])
        } else {
            decode_symbol(reader, &self.cnt, &self.syms, label)
        }
    }
}

// ---- block field groups ------------------------------------------------

/// The serialized Huffman table size for `symbols` entries: one nibble
/// each, two per byte, zero-padded.
fn table_bytes(symbols: usize) -> usize {
    symbols.div_ceil(2)
}

/// Writes a `symbols`-entry nibble length table.
fn write_table(out: &mut Vec<u8>, lengths: &[u8], symbols: usize) {
    for pair in 0..table_bytes(symbols) {
        let lo = lengths[2 * pair];
        let hi = if 2 * pair + 1 < symbols { lengths[2 * pair + 1] } else { 0 };
        out.push(lo | (hi << 4));
    }
}

/// Reads a `symbols`-entry nibble length table, rejecting nonzero padding.
fn read_table(cur: &mut Cursor<'_>, symbols: usize) -> Result<[u8; MAX_SYMS], TraceError> {
    let mut lengths = [0u8; MAX_SYMS];
    let table = cur.take(table_bytes(symbols))?;
    for (pair, &b) in table.iter().enumerate() {
        lengths[2 * pair] = b & 0x0f;
        if 2 * pair + 1 < symbols {
            lengths[2 * pair + 1] = b >> 4;
        } else if b >> 4 != 0 {
            return Err(format_err(cur.label, String::from("huffman table padding not zero")));
        }
    }
    Ok(lengths)
}

/// The median of `values`, via a quickselect on `scratch` (left cleared).
/// Used as the group reference: it centres the lognormal *bulk*, so bulk
/// residuals stay σ-sized while spike residuals grow huge and escape —
/// unlike a midrange reference, which an outlier drags halfway up, making
/// every bulk value pay for the spike's magnitude in low bits.
fn median(values: &[u64], scratch: &mut Vec<u64>) -> u64 {
    scratch.clear();
    scratch.extend_from_slice(values);
    let mid = (scratch.len() - 1) / 2;
    let (_, &mut reference, _) = scratch.select_nth_unstable(mid);
    reference
}

/// Chooses the packed width minimising a spill group's exact encoded size:
/// per in-range value a Huffman code for its top [`TOP_BITS`] bits plus
/// raw low bits, per overflowing value an `(index, zigzag)` varint patch,
/// plus the length-table bytes.
fn spill_width(zigzags: &[u64]) -> u32 {
    let max_bits = zigzags.iter().map(|&z| bit_width(z)).max().unwrap_or(0);
    let mut best_w = max_bits;
    let mut best_cost = usize::MAX;
    for w in 0..=max_bits {
        let k = w.min(TOP_BITS);
        let low = w - k;
        let mut hist = [0u32; MAX_SYMS];
        let mut bits = 0usize;
        let mut cost = if w > 0 { table_bytes(1 << k) } else { 0 };
        for (i, &z) in zigzags.iter().enumerate() {
            if bit_width(z) > w {
                cost += varint_len(i as u64) + varint_len(z);
            } else {
                hist[(z >> low) as usize] += 1;
                bits += low as usize;
            }
        }
        if w > 0 {
            let lengths = huffman_lengths(&hist[..1 << k]);
            for (sym, &c) in hist[..1 << k].iter().enumerate() {
                bits += c as usize * lengths[sym] as usize;
            }
        }
        cost += bits.div_ceil(8);
        if cost < best_cost {
            best_cost = cost;
            best_w = w;
        }
    }
    best_w
}

/// Encodes a spill group (up to [`MINI_FRAMES`] values) into `out`: the
/// group layout without an escape symbol — values wider than the packed
/// width are carried whole as `(index, zigzag)` varint exception patches.
fn encode_spill(values: &[u64], scratch: &mut Vec<u64>, out: &mut Vec<u8>) {
    debug_assert!(!values.is_empty() && values.len() <= MINI_FRAMES);
    let reference = median(values, scratch);
    scratch.clear();
    scratch.extend(values.iter().map(|&v| zigzag(v.wrapping_sub(reference))));
    let width = spill_width(scratch);
    push_varint(out, reference);
    out.push(width as u8);

    let k = width.min(TOP_BITS);
    let low = width - k;
    let mut hist = [0u32; MAX_SYMS];
    for &z in scratch.iter() {
        if bit_width(z) <= width {
            hist[(z >> low) as usize] += 1;
        }
    }
    let lengths = huffman_lengths(&hist[..1 << k]);
    if width > 0 {
        write_table(out, &lengths, 1 << k);
    }

    let exceptions = scratch.iter().filter(|&&z| bit_width(z) > width).count();
    push_varint(out, exceptions as u64);
    for (i, &z) in scratch.iter().enumerate() {
        if bit_width(z) > width {
            push_varint(out, i as u64);
            push_varint(out, z);
        }
    }

    if width > 0 {
        let codes = canonical_codes(&lengths);
        let mut writer = BitWriter::new(out);
        let low_mask = if low == 0 { 0 } else { (1u64 << low) - 1 };
        for &z in scratch.iter() {
            if bit_width(z) <= width {
                let sym = (z >> low) as usize;
                writer.push_bits(codes[sym] as u64, lengths[sym] as u32);
                writer.push_bits(z & low_mask, low);
            }
        }
        writer.finish();
    }
}

/// Decodes a spill group of `count` values into `values[..count]`.
fn decode_spill(cur: &mut Cursor<'_>, count: usize, values: &mut [u64]) -> Result<(), TraceError> {
    debug_assert!(count <= MINI_FRAMES && count <= values.len());
    let reference = cur.varint()?;
    let width = cur.u8()? as u32;
    if width > 64 {
        // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: invalid width byte")
        return Err(format_err(cur.label, format!("packed width {width} exceeds 64 bits")));
    }
    let k = width.min(TOP_BITS);
    let low = width - k;
    let lengths = if width > 0 { read_table(cur, 1 << k)? } else { [0u8; MAX_SYMS] };

    let exceptions = cur.varint()? as usize;
    if exceptions > count {
        return Err(format_err(
            cur.label,
            // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: invalid exception count")
            format!("{exceptions} exception patches for {count} values"),
        ));
    }
    let mut patched = [0u64; MINI_FRAMES.div_ceil(64)];
    for _ in 0..exceptions {
        let index = cur.varint()? as usize;
        if index >= count {
            // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: exception index out of range")
            return Err(format_err(cur.label, format!("exception index {index} out of range")));
        }
        if patched[index / 64] & (1 << (index % 64)) != 0 {
            // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: duplicate exception index")
            return Err(format_err(cur.label, format!("duplicate exception index {index}")));
        }
        patched[index / 64] |= 1 << (index % 64);
        values[index] = cur.varint()?;
    }

    if width > 0 {
        let decoder = SymbolDecoder::new(&lengths[..1 << k], cur.label)?;
        let mut reader = BitReader::new(&cur.buf[cur.pos..]);
        for (index, slot) in values.iter_mut().enumerate().take(count) {
            if patched[index / 64] & (1 << (index % 64)) != 0 {
                continue;
            }
            let sym = decoder.decode(&mut reader, cur.label)? as u64;
            *slot = (sym << low) | reader.take_bits(low, cur.label)?;
        }
        let consumed = reader.bytes_consumed();
        cur.take(consumed)?;
    } else {
        for (index, slot) in values.iter_mut().enumerate().take(count) {
            if patched[index / 64] & (1 << (index % 64)) == 0 {
                *slot = 0;
            }
        }
    }

    for slot in values.iter_mut().take(count) {
        *slot = reference.wrapping_add(unzigzag(*slot));
    }
    Ok(())
}

/// Chooses the packed width minimising a top-level group's encoded size.
/// In-range values cost a Huffman code plus raw low bits; escaped values
/// cost the escape code in the main stream plus a modelled share of the
/// spill group that will hold them (its own reference clusters the spikes,
/// so the model charges their spread, not their magnitude).
fn best_width(values: &[u64], zigzags: &[u64]) -> u32 {
    let max_bits = zigzags.iter().map(|&z| bit_width(z)).max().unwrap_or(0);
    // Width 0 baseline: every nonzero delta becomes an exception patch.
    let mut best_w = 0u32;
    let mut best_cost: usize = zigzags
        .iter()
        .enumerate()
        .filter(|&(_, &z)| z != 0)
        .map(|(i, &z)| varint_len(i as u64) + varint_len(z))
        .sum();
    for w in 1..=max_bits {
        let k = w.min(TOP_BITS);
        let low = w - k;
        let esc = 1usize << k;
        let mut hist = [0u32; MAX_SYMS];
        let mut bits = 0usize;
        let (mut esc_min, mut esc_max) = (u64::MAX, 0u64);
        let mut escapes = 0usize;
        for (&v, &z) in values.iter().zip(zigzags) {
            if bit_width(z) > w {
                hist[esc] += 1;
                escapes += 1;
                esc_min = esc_min.min(v);
                esc_max = esc_max.max(v);
            } else {
                hist[(z >> low) as usize] += 1;
                bits += low as usize;
            }
        }
        let lengths = huffman_lengths(&hist[..=esc]);
        for (sym, &c) in hist[..=esc].iter().enumerate() {
            bits += c as usize * lengths[sym] as usize;
        }
        let mut cost = table_bytes(esc + 1) + bits.div_ceil(8);
        if escapes > 0 {
            // Spill model: header + table overhead, then per value its low
            // bits beyond the spill's own top-bits coder plus ~3 code bits.
            let spread = bit_width(esc_max - esc_min);
            let spill_low = spread.saturating_sub(TOP_BITS) as usize;
            cost += 12 + (escapes * (spill_low + 3)).div_ceil(8);
        }
        if cost < best_cost {
            best_cost = cost;
            best_w = w;
        }
    }
    best_w
}

/// Encodes one field group (up to [`MINI_FRAMES`] values) into `out`.
fn encode_group(values: &[u64], scratch: &mut Vec<u64>, spill: &mut Vec<u64>, out: &mut Vec<u8>) {
    debug_assert!(!values.is_empty() && values.len() <= MINI_FRAMES);
    let reference = median(values, scratch);
    scratch.clear();
    scratch.extend(values.iter().map(|&v| zigzag(v.wrapping_sub(reference))));
    let width = best_width(values, scratch);
    push_varint(out, reference);
    out.push(width as u8);

    if width == 0 {
        let exceptions = scratch.iter().filter(|&&z| z != 0).count();
        push_varint(out, exceptions as u64);
        for (i, &z) in scratch.iter().enumerate() {
            if z != 0 {
                push_varint(out, i as u64);
                push_varint(out, z);
            }
        }
        return;
    }

    let k = width.min(TOP_BITS);
    let low = width - k;
    let esc = 1usize << k;
    let mut hist = [0u32; MAX_SYMS];
    spill.clear();
    for (&v, &z) in values.iter().zip(scratch.iter()) {
        if bit_width(z) > width {
            hist[esc] += 1;
            spill.push(v);
        } else {
            hist[(z >> low) as usize] += 1;
        }
    }
    let lengths = huffman_lengths(&hist[..=esc]);
    write_table(out, &lengths, esc + 1);

    let codes = canonical_codes(&lengths);
    let mut writer = BitWriter::new(out);
    let low_mask = if low == 0 { 0 } else { (1u64 << low) - 1 };
    for &z in scratch.iter() {
        if bit_width(z) > width {
            writer.push_bits(codes[esc] as u64, lengths[esc] as u32);
        } else {
            let sym = (z >> low) as usize;
            writer.push_bits(codes[sym] as u64, lengths[sym] as u32);
            writer.push_bits(z & low_mask, low);
        }
    }
    writer.finish();

    if !spill.is_empty() {
        encode_spill(spill, scratch, out);
    }
}

/// Decodes one field group of `count` values into `values[..count]`.
fn decode_group(cur: &mut Cursor<'_>, count: usize, values: &mut [u64]) -> Result<(), TraceError> {
    debug_assert!(count <= MINI_FRAMES && count <= values.len());
    let reference = cur.varint()?;
    let width = cur.u8()? as u32;
    if width > 64 {
        // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: invalid width byte")
        return Err(format_err(cur.label, format!("packed width {width} exceeds 64 bits")));
    }

    if width == 0 {
        let exceptions = cur.varint()? as usize;
        if exceptions > count {
            return Err(format_err(
                cur.label,
                // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: invalid exception count")
                format!("{exceptions} exception patches for {count} values"),
            ));
        }
        let mut patched = [0u64; MINI_FRAMES.div_ceil(64)];
        for _ in 0..exceptions {
            let index = cur.varint()? as usize;
            if index >= count {
                // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: exception index out of range")
                return Err(format_err(cur.label, format!("exception index {index} out of range")));
            }
            if patched[index / 64] & (1 << (index % 64)) != 0 {
                // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: duplicate exception index")
                return Err(format_err(cur.label, format!("duplicate exception index {index}")));
            }
            patched[index / 64] |= 1 << (index % 64);
            values[index] = cur.varint()?;
        }
        for (index, slot) in values.iter_mut().enumerate().take(count) {
            if patched[index / 64] & (1 << (index % 64)) == 0 {
                *slot = 0;
            }
            *slot = reference.wrapping_add(unzigzag(*slot));
        }
        return Ok(());
    }

    let k = width.min(TOP_BITS);
    let low = width - k;
    let esc = 1usize << k;
    let lengths = read_table(cur, esc + 1)?;
    let decoder = SymbolDecoder::new(&lengths[..=esc], cur.label)?;

    let mut escaped = [0u16; MINI_FRAMES];
    let mut escapes = 0usize;
    let mut reader = BitReader::new(&cur.buf[cur.pos..]);
    for (index, slot) in values.iter_mut().enumerate().take(count) {
        let sym = decoder.decode(&mut reader, cur.label)? as usize;
        if sym == esc {
            escaped[escapes] = index as u16;
            escapes += 1;
        } else {
            let z = ((sym as u64) << low) | reader.take_bits(low, cur.label)?;
            *slot = reference.wrapping_add(unzigzag(z));
        }
    }
    let consumed = reader.bytes_consumed();
    cur.take(consumed)?;

    if escapes > 0 {
        let mut spilled = [0u64; MINI_FRAMES];
        decode_spill(cur, escapes, &mut spilled)?;
        for (slot, &index) in spilled.iter().zip(escaped.iter()).take(escapes) {
            values[index as usize] = *slot;
        }
    }
    Ok(())
}

/// Encodes one block of frames (ui/rs value slices) into `payload`.
fn encode_block(
    ui: &[u64],
    rs: &[u64],
    scratch: &mut Vec<u64>,
    spill: &mut Vec<u64>,
    payload: &mut Vec<u8>,
) {
    debug_assert_eq!(ui.len(), rs.len());
    payload.clear();
    let mut start = 0usize;
    while start < ui.len() {
        let end = (start + MINI_FRAMES).min(ui.len());
        encode_group(&ui[start..end], scratch, spill, payload);
        encode_group(&rs[start..end], scratch, spill, payload);
        start = end;
    }
}

/// Decodes a block payload of `count` frames, appending to `out`.
fn decode_block(
    payload: &[u8],
    count: usize,
    label: &str,
    out: &mut Vec<FrameCost>,
) -> Result<(), TraceError> {
    let mut cur = Cursor::new(payload, label);
    let mut ui = [0u64; MINI_FRAMES];
    let mut rs = [0u64; MINI_FRAMES];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(MINI_FRAMES);
        decode_group(&mut cur, take, &mut ui)?;
        decode_group(&mut cur, take, &mut rs)?;
        for i in 0..take {
            out.push(FrameCost::new(
                SimDuration::from_nanos(ui[i]),
                SimDuration::from_nanos(rs[i]),
            ));
        }
        remaining -= take;
    }
    if !cur.done() {
        return Err(format_err(
            label,
            // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: trailing payload bytes")
            format!("{} trailing bytes after {count} frames", payload.len() - cur.pos),
        ));
    }
    Ok(())
}

// ---- streaming writer ------------------------------------------------------

/// Streams a trace into any [`Write`] sink in `.dvst` format, block by
/// block: frames buffer into fixed-capacity staging arrays and flush as a
/// checksummed block every [`BLOCK_FRAMES`] pushes — no intermediate
/// `String`, no per-frame allocation.
///
/// # Examples
///
/// ```
/// use dvs_sim::SimDuration;
/// use dvs_workload::{codec::TraceWriter, Backend, FrameCost, FrameTrace};
///
/// let mut sink = Vec::new();
/// let mut w = TraceWriter::new(&mut sink, "demo", 60, Backend::Gles)?;
/// w.push(FrameCost::new(SimDuration::from_millis(2), SimDuration::from_millis(5)))?;
/// w.finish()?;
/// let back = FrameTrace::from_binary(&sink)?;
/// assert_eq!(back.len(), 1);
/// # Ok::<(), dvs_workload::TraceError>(())
/// ```
pub struct TraceWriter<W: Write> {
    sink: W,
    label: String,
    ui: Vec<u64>,
    rs: Vec<u64>,
    scratch: Vec<u64>,
    spill: Vec<u64>,
    payload: Vec<u8>,
    frame: Vec<u8>,
    total: u64,
    finished: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a binary trace on `sink`, writing the container header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the sink rejects the header, and
    /// [`TraceError::Format`] for a name longer than `u16::MAX` bytes.
    pub fn new(sink: W, name: &str, rate_hz: u32, backend: Backend) -> Result<Self, TraceError> {
        Self::with_label(sink, name, rate_hz, backend, MEMORY_LABEL)
    }

    /// [`TraceWriter::new`] with an explicit label (normally the file path)
    /// for error context.
    pub fn with_label(
        sink: W,
        name: &str,
        rate_hz: u32,
        backend: Backend,
        label: &str,
    ) -> Result<Self, TraceError> {
        if name.len() > u16::MAX as usize {
            return Err(format_err(
                label,
                format!("trace name is {} bytes (max 65535)", name.len()),
            ));
        }
        let mut writer = TraceWriter {
            sink,
            label: label.to_string(),
            ui: Vec::with_capacity(BLOCK_FRAMES),
            rs: Vec::with_capacity(BLOCK_FRAMES),
            scratch: Vec::with_capacity(MINI_FRAMES),
            spill: Vec::with_capacity(MINI_FRAMES),
            payload: Vec::with_capacity(MAX_PAYLOAD / 4),
            frame: Vec::with_capacity(64),
            total: 0,
            finished: false,
        };
        writer.frame.extend_from_slice(&MAGIC);
        writer.frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        writer.frame.extend_from_slice(&rate_hz.to_le_bytes());
        writer.frame.push(backend_code(backend));
        writer.frame.extend_from_slice(&(name.len() as u16).to_le_bytes());
        writer.frame.extend_from_slice(name.as_bytes());
        let crc = fnv1a(&writer.frame);
        writer.frame.extend_from_slice(&crc.to_le_bytes());
        writer.write_frame("write header")?;
        Ok(writer)
    }

    /// Appends one frame, flushing a block when the staging buffer fills.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if flushing a full block fails.
    pub fn push(&mut self, cost: FrameCost) -> Result<(), TraceError> {
        self.ui.push(cost.ui.as_nanos());
        self.rs.push(cost.rs.as_nanos());
        if self.ui.len() == BLOCK_FRAMES {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Flushes any partial block and writes the trailer, returning the sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on sink failure.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if !self.ui.is_empty() {
            self.flush_block()?;
        }
        self.frame.clear();
        self.frame.extend_from_slice(&0u32.to_le_bytes());
        self.frame.extend_from_slice(&self.total.to_le_bytes());
        let crc = fnv1a(&self.total.to_le_bytes());
        self.frame.extend_from_slice(&crc.to_le_bytes());
        self.write_frame("write trailer")?;
        if let Err(e) = self.sink.flush() {
            return Err(io_err(&self.label, "flush", &e));
        }
        self.finished = true;
        Ok(self.sink)
    }

    /// Frames pushed so far.
    pub fn frames_written(&self) -> u64 {
        self.total + self.ui.len() as u64
    }

    fn flush_block(&mut self) -> Result<(), TraceError> {
        encode_block(&self.ui, &self.rs, &mut self.scratch, &mut self.spill, &mut self.payload);
        self.frame.clear();
        self.frame.extend_from_slice(&(self.ui.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(&self.payload);
        self.frame.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        self.total += self.ui.len() as u64;
        self.ui.clear();
        self.rs.clear();
        self.write_frame("write block")
    }

    fn write_frame(&mut self, op: &'static str) -> Result<(), TraceError> {
        match self.sink.write_all(&self.frame) {
            Ok(()) => {
                self.frame.clear();
                Ok(())
            }
            Err(e) => Err(io_err(&self.label, op, &e)),
        }
    }
}

fn backend_code(backend: Backend) -> u8 {
    match backend {
        Backend::Gles => 0,
        Backend::Vulkan => 1,
    }
}

// ---- streaming reader ------------------------------------------------------

/// Streams a `.dvst` trace out of any [`Read`] source block by block,
/// appending decoded frames into a caller-provided `Vec<FrameCost>` so
/// arenas and caches reuse their buffers.
///
/// # Examples
///
/// ```
/// use dvs_workload::{codec::TraceReader, CostProfile, ScenarioSpec};
///
/// let trace = ScenarioSpec::new("probe", 60, 300, CostProfile::smooth()).generate();
/// let bytes = trace.to_binary()?;
/// let mut reader = TraceReader::new(bytes.as_slice())?;
/// assert_eq!(reader.rate_hz(), 60);
/// let mut frames = Vec::new();
/// while reader.read_block_into(&mut frames)? > 0 {}
/// assert_eq!(frames, trace.frames);
/// # Ok::<(), dvs_workload::TraceError>(())
/// ```
pub struct TraceReader<R: Read> {
    src: R,
    label: String,
    name: String,
    rate_hz: u32,
    backend: Backend,
    payload: Vec<u8>,
    total_read: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a binary trace on `src`, reading and validating the header.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on read failure, [`TraceError::Format`] on a
    /// malformed header, [`TraceError::Version`] on an unsupported version,
    /// [`TraceError::Corrupt`] on a header checksum mismatch.
    pub fn new(src: R) -> Result<Self, TraceError> {
        Self::with_label(src, MEMORY_LABEL)
    }

    /// [`TraceReader::new`] with an explicit label (normally the file path)
    /// for error context.
    pub fn with_label(mut src: R, label: &str) -> Result<Self, TraceError> {
        let mut head = Vec::with_capacity(64);
        read_exact_into(&mut src, &mut head, 13, label, "read header")?;
        if head[..4] != MAGIC {
            return Err(format_err(label, String::from("not a DVST binary trace (bad magic)")));
        }
        let version = u16::from_le_bytes([head[4], head[5]]);
        if version != FORMAT_VERSION {
            return Err(TraceError::Version {
                path: label.to_string(),
                got: version,
                supported: FORMAT_VERSION,
            });
        }
        let rate_hz = u32::from_le_bytes([head[6], head[7], head[8], head[9]]);
        let backend = match head[10] {
            0 => Backend::Gles,
            1 => Backend::Vulkan,
            other => return Err(format_err(label, format!("unknown backend tag {other}"))),
        };
        let name_len = u16::from_le_bytes([head[11], head[12]]) as usize;
        read_exact_into(&mut src, &mut head, name_len + 8, label, "read header name")?;
        let crc_at = head.len() - 8;
        let stored = read_u64_le(&head[crc_at..]);
        if fnv1a(&head[..crc_at]) != stored {
            return Err(corrupt_err(label, String::from("header checksum mismatch")));
        }
        let name = match std::str::from_utf8(&head[13..13 + name_len]) {
            Ok(s) => s.to_string(),
            Err(_) => return Err(format_err(label, String::from("trace name is not UTF-8"))),
        };
        Ok(TraceReader {
            src,
            label: label.to_string(),
            name,
            rate_hz,
            backend,
            payload: Vec::with_capacity(MAX_PAYLOAD / 4),
            total_read: 0,
            done: false,
        })
    }

    /// The trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The refresh rate from the header.
    pub fn rate_hz(&self) -> u32 {
        self.rate_hz
    }

    /// The backend tag from the header.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Frames decoded so far.
    pub fn frames_read(&self) -> u64 {
        self.total_read
    }

    /// Reads the next block, appending its frames to `out`; returns the
    /// number appended, or 0 once the (validated) trailer is reached.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on read failure, [`TraceError::Corrupt`] on a
    /// checksum or frame-count mismatch, [`TraceError::Format`] on a
    /// malformed block.
    pub fn read_block_into(&mut self, out: &mut Vec<FrameCost>) -> Result<usize, TraceError> {
        if self.done {
            return Ok(0);
        }
        let mut word = [0u8; 4];
        if let Err(e) = self.src.read_exact(&mut word) {
            return Err(io_err(&self.label, "read block header", &e));
        }
        let count = u32::from_le_bytes(word) as usize;
        if count == 0 {
            return self.read_trailer();
        }
        if count > BLOCK_FRAMES {
            return Err(format_err(
                &self.label,
                // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: oversized block")
                format!("block claims {count} frames (max {BLOCK_FRAMES})"),
            ));
        }
        if let Err(e) = self.src.read_exact(&mut word) {
            return Err(io_err(&self.label, "read block length", &e));
        }
        let payload_len = u32::from_le_bytes(word) as usize;
        if payload_len > MAX_PAYLOAD {
            // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: oversized payload length")
            return Err(format_err(&self.label, format!("block payload of {payload_len} bytes")));
        }
        self.payload.clear();
        read_exact_into(
            &mut self.src,
            &mut self.payload,
            payload_len + 8,
            &self.label,
            "read block",
        )?;
        let stored = read_u64_le(&self.payload[payload_len..]);
        if fnv1a(&self.payload[..payload_len]) != stored {
            return Err(corrupt_err(&self.label, String::from("block checksum mismatch")));
        }
        out.reserve(count);
        decode_block(&self.payload[..payload_len], count, &self.label, out)?;
        self.total_read += count as u64;
        Ok(count)
    }

    /// Drains every remaining block into `out`, returning total frames
    /// appended; the trailer is validated.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::read_block_into`].
    pub fn read_to_end_into(&mut self, out: &mut Vec<FrameCost>) -> Result<u64, TraceError> {
        let mut appended = 0u64;
        loop {
            let n = self.read_block_into(out)?;
            if n == 0 {
                return Ok(appended);
            }
            appended += n as u64;
        }
    }

    fn read_trailer(&mut self) -> Result<usize, TraceError> {
        let mut tail = [0u8; 16];
        if let Err(e) = self.src.read_exact(&mut tail) {
            return Err(io_err(&self.label, "read trailer", &e));
        }
        let total = read_u64_le(&tail[..8]);
        let stored = read_u64_le(&tail[8..]);
        if fnv1a(&tail[..8]) != stored {
            return Err(corrupt_err(&self.label, String::from("trailer checksum mismatch")));
        }
        if total != self.total_read {
            return Err(corrupt_err(
                &self.label,
                // dvs-lint: allow(hot-alloc-transitive, reason = "cold error path: frame-count mismatch")
                format!("trailer counts {total} frames, decoded {}", self.total_read),
            ));
        }
        self.done = true;
        Ok(0)
    }
}

fn read_u64_le(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// Reads exactly `n` more bytes onto the end of `buf`.
fn read_exact_into<R: Read>(
    src: &mut R,
    buf: &mut Vec<u8>,
    n: usize,
    label: &str,
    op: &'static str,
) -> Result<(), TraceError> {
    let start = buf.len();
    buf.resize(start + n, 0);
    match src.read_exact(&mut buf[start..]) {
        Ok(()) => Ok(()),
        Err(e) => Err(io_err(label, op, &e)),
    }
}

// ---- FrameTrace convenience ------------------------------------------------

impl FrameTrace {
    /// Encodes the whole trace to `.dvst` bytes in memory.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for a name longer than `u16::MAX`
    /// bytes (in-memory sinks cannot fail I/O).
    pub fn to_binary(&self) -> Result<Vec<u8>, TraceError> {
        let sink = Vec::with_capacity(64 + self.frames.len() * 6);
        let mut writer = TraceWriter::new(sink, &self.name, self.rate_hz, self.backend)?;
        for &cost in &self.frames {
            writer.push(cost)?;
        }
        writer.finish()
    }

    /// Decodes a `.dvst` byte buffer into a new trace.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::read_block_into`].
    pub fn from_binary(bytes: &[u8]) -> Result<Self, TraceError> {
        Self::read_binary(bytes, MEMORY_LABEL)
    }

    /// Decodes a `.dvst` stream into a new trace, using `label` for error
    /// context.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::read_block_into`].
    pub fn read_binary<R: Read>(src: R, label: &str) -> Result<Self, TraceError> {
        let mut reader = TraceReader::with_label(src, label)?;
        let mut frames = Vec::new();
        reader.read_to_end_into(&mut frames)?;
        let TraceReader { name, rate_hz, backend, .. } = reader;
        Ok(FrameTrace { name, rate_hz, backend, frames })
    }

    /// Writes the trace as `.dvst` to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failure.
    pub fn save_binary(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let path = path.as_ref();
        let label = &path.display().to_string();
        let file = match fs::File::create(path) {
            Ok(f) => f,
            Err(e) => return Err(io_err(label, "create", &e)),
        };
        let sink = io::BufWriter::new(file);
        let mut writer =
            TraceWriter::with_label(sink, &self.name, self.rate_hz, self.backend, label)?;
        for &cost in &self.frames {
            writer.push(cost)?;
        }
        writer.finish()?;
        Ok(())
    }

    /// Reads a `.dvst` trace from `path`.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::read_block_into`].
    pub fn load_binary(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let label = &path.display().to_string();
        let file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) => return Err(io_err(label, "open", &e)),
        };
        Self::read_binary(io::BufReader::new(file), label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CostProfile, ScenarioSpec};

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    fn round_trip(trace: &FrameTrace) {
        let bytes = trace.to_binary().unwrap();
        let back = FrameTrace::from_binary(&bytes).unwrap();
        assert_eq!(&back, trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        round_trip(&FrameTrace::new("empty", 120));
    }

    #[test]
    fn single_frame_round_trips() {
        let mut t = FrameTrace::new("one", 60).with_backend(Backend::Vulkan);
        t.push(FrameCost::new(ns(2_000_000), ns(5_000_000)));
        round_trip(&t);
    }

    #[test]
    fn extreme_durations_round_trip() {
        let mut t = FrameTrace::new("extremes", 60);
        for (ui, rs) in
            [(0, 0), (u64::MAX, 0), (0, u64::MAX), (u64::MAX, u64::MAX), (1, u64::MAX - 1)]
        {
            t.push(FrameCost::new(ns(ui), ns(rs)));
        }
        round_trip(&t);
    }

    #[test]
    fn generated_scenario_round_trips_across_block_boundaries() {
        // 2500 frames: two full 1024-frame blocks plus a partial one.
        let t = ScenarioSpec::new("codec probe", 120, 2500, CostProfile::clustered(3.0)).generate();
        assert!(t.len() > 2 * BLOCK_FRAMES);
        round_trip(&t);
    }

    #[test]
    fn streaming_reader_matches_bulk_decode() {
        let t = ScenarioSpec::new("stream probe", 60, 1500, CostProfile::scattered(2.0)).generate();
        let bytes = t.to_binary().unwrap();
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.name(), "stream probe");
        assert_eq!(reader.rate_hz(), 60);
        assert_eq!(reader.backend(), Backend::Gles);
        let mut frames = Vec::new();
        let mut blocks = 0;
        while reader.read_block_into(&mut frames).unwrap() > 0 {
            blocks += 1;
        }
        assert_eq!(blocks, 2, "1500 frames span two blocks");
        assert_eq!(frames, t.frames);
        assert_eq!(reader.frames_read(), 1500);
        // Reading past the trailer stays at end-of-trace.
        assert_eq!(reader.read_block_into(&mut frames).unwrap(), 0);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let t = ScenarioSpec::new("size probe", 60, 4000, CostProfile::scattered(2.0)).generate();
        let json = t.to_json().unwrap().len();
        let binary = t.to_binary().unwrap().len();
        assert!(
            (binary as f64) < (json as f64) / 4.0,
            "binary {binary} bytes vs json {json} bytes"
        );
    }

    #[test]
    fn truncated_block_is_io_error() {
        let t = ScenarioSpec::new("trunc", 60, 600, CostProfile::smooth()).generate();
        let bytes = t.to_binary().unwrap();
        let err = FrameTrace::from_binary(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }), "{err}");
    }

    #[test]
    fn flipped_payload_bit_is_corrupt_error() {
        let t = ScenarioSpec::new("flip", 60, 600, CostProfile::smooth()).generate();
        let mut bytes = t.to_binary().unwrap();
        // Flip a bit inside the first block's payload (past the header).
        let header_len = 13 + "flip".len() + 8;
        bytes[header_len + 12] ^= 0x10;
        let err = FrameTrace::from_binary(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn wrong_version_is_version_error() {
        let t = FrameTrace::new("ver", 60);
        let mut bytes = t.to_binary().unwrap();
        bytes[4] = 9; // version low byte
                      // Re-seal the header checksum so only the version disagrees.
        let crc_at = 13 + "ver".len();
        let crc = fnv1a(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 8].copy_from_slice(&crc.to_le_bytes());
        let err = FrameTrace::from_binary(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::Version { got: 9, supported: FORMAT_VERSION, .. }));
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn bad_magic_is_format_error() {
        let err = FrameTrace::from_binary(b"JSON{everything else}").unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn tampered_trailer_count_is_corrupt_error() {
        let t = ScenarioSpec::new("tail", 60, 100, CostProfile::smooth()).generate();
        let mut bytes = t.to_binary().unwrap();
        let n = bytes.len();
        // Rewrite the trailer's total (and its checksum) to lie about count.
        let wrong = 99u64;
        bytes[n - 16..n - 8].copy_from_slice(&wrong.to_le_bytes());
        bytes[n - 8..].copy_from_slice(&fnv1a(&wrong.to_le_bytes()).to_le_bytes());
        let err = FrameTrace::from_binary(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { .. }));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let t = ScenarioSpec::new("file probe", 60, 300, CostProfile::scattered(1.0)).generate();
        let dir = std::env::temp_dir().join("dvs_codec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dvst");
        t.save_binary(&path).unwrap();
        let back = FrameTrace::load_binary(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
        let err = FrameTrace::load_binary(&path).unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }));
        assert!(err.to_string().contains("t.dvst"), "error names the path: {err}");
    }

    #[test]
    fn zigzag_is_a_bijection_at_the_edges() {
        for v in [0u64, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn constant_values_pack_to_zero_width() {
        let mut t = FrameTrace::new("flat", 60);
        for _ in 0..MINI_FRAMES {
            t.push(FrameCost::new(ns(2_000_000), ns(5_000_000)));
        }
        let bytes = t.to_binary().unwrap();
        // Header + block header + 2 tiny field groups + trailer: far below
        // one byte per frame.
        assert!(bytes.len() < 80, "constant trace encodes to {} bytes", bytes.len());
        round_trip(&t);
    }
}

// Fixture for the serve-index rule.

fn violating(buf: &[u8]) -> u8 {
    buf[0] // line 4: fires serve-index
}

fn justified(buf: &[u8; 12]) -> u8 {
    // lint: allow(serve-index) — the array type fixes the length at 12
    buf[11]
}

fn clean(buf: &[u8]) -> u8 {
    buf.first().copied().unwrap_or(0)
}

fn not_indexing(out: &mut [u8]) -> [u8; 2] {
    // An array literal after `=` is not an index expression.
    let pair: [u8; 2] = [1, 2];
    // Nor is a slice type after `mut`, a pattern after `let`, or a
    // literal after `in`.
    let [hi, lo] = pair;
    for (slot, byte) in out.iter_mut().zip(pair) {
        *slot = byte;
    }
    for word in [hi, lo] {
        let _ = word;
    }
    pair
}

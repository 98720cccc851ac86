// psdp-audit: allow(U1, reason = "entry point for downstream embedders; no in-tree caller by design")
pub fn embedder_entry() -> u32 {
    42
}

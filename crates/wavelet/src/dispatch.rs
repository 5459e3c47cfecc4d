//! Which kernel paths this build runs, for bench notes.
//!
//! Every wavelet and sample kernel has exactly one implementation: a safe
//! scalar slice loop shaped so that LLVM vectorizes it (DESIGN.md §18).
//! Nothing selects between paths, at build time or at runtime.

/// Fixed description of the kernel paths compiled into this build.
pub fn description() -> &'static str {
    "scalar"
}

#[cfg(test)]
mod tests {
    #[test]
    fn description_names_the_scalar_path() {
        assert_eq!(super::description(), "scalar");
    }
}

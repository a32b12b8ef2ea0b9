//! Address arithmetic helpers shared by every memory component.

/// Cache line size in bytes, used throughout the hierarchy.
pub const LINE_BYTES: u64 = 64;

/// Page size in bytes for TLB purposes (SPARC-V9 base page: 8 KB).
pub const PAGE_BYTES: u64 = 8 * 1024;

/// Returns the line-aligned address containing `addr`.
///
/// # Examples
///
/// ```
/// assert_eq!(s64v_mem::addr::line_of(0x1234), 0x1200);
/// ```
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Returns the line *number* (address divided by the line size).
pub fn line_number(addr: u64) -> u64 {
    addr / LINE_BYTES
}

/// Returns the page number containing `addr`.
pub fn page_of(addr: u64) -> u64 {
    addr / PAGE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_number(128), 2);
    }

    #[test]
    fn page_numbers() {
        assert_eq!(page_of(0), 0);
        assert_eq!(page_of(8 * 1024), 1);
        assert_eq!(page_of(8 * 1024 - 1), 0);
    }
}

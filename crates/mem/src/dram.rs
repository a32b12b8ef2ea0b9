//! Main-memory timing.
//!
//! A small number of memory banks each behave as a serially reusable
//! resource with a fixed access latency; requests to a busy bank queue.
//! This gives the model memory-side queuing (visible under the TPC-C
//! 16-processor load) without a full DRAM protocol.

/// Main memory: fixed access latency across a few independent banks.
#[derive(Debug, Clone)]
pub struct Dram {
    latency: u32,
    banks: Vec<u64>, // next-free cycle per bank
}

impl Dram {
    /// Creates a memory with `banks` independent banks and a fixed
    /// per-access `latency` (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(latency: u32, banks: u32) -> Self {
        assert!(banks > 0, "memory needs at least one bank");
        Dram {
            latency,
            banks: vec![0; banks as usize],
        }
    }

    fn bank_of(&self, line_addr: u64) -> usize {
        ((line_addr / crate::addr::LINE_BYTES) % self.banks.len() as u64) as usize
    }

    /// Starts an access to `line_addr` at `start`; returns the cycle the
    /// data is available at the memory pins.
    pub fn access(&mut self, start: u64, line_addr: u64) -> u64 {
        let bank = self.bank_of(line_addr);
        let begin = start.max(self.banks[bank]);
        let done = begin + self.latency as u64;
        self.banks[bank] = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LINE_BYTES;

    #[test]
    fn fixed_latency_when_idle() {
        let mut d = Dram::new(200, 4);
        assert_eq!(d.access(10, 0), 210);
    }

    #[test]
    fn same_bank_queues() {
        let mut d = Dram::new(100, 4);
        let first = d.access(0, 0);
        let second = d.access(0, 4 * LINE_BYTES); // maps to bank 0 again
        assert_eq!(first, 100);
        assert_eq!(second, 200);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(100, 4);
        let a = d.access(0, 0);
        let b = d.access(0, LINE_BYTES); // bank 1
        assert_eq!(a, 100);
        assert_eq!(b, 100);
    }
}

//! The data-side address model.
//!
//! Memory instructions draw their effective addresses from a set of
//! weighted [`Region`]s:
//!
//! * [`RegionKind::Uniform`] — uniform random accesses within the region;
//!   the region's size against the cache capacities sets its miss ratios
//!   (small = L1-resident locals, medium = L2-resident state, huge =
//!   memory-bound cold data),
//! * [`RegionKind::Stream`] — strided sequential walks (several
//!   round-robin cursors), the "chain access pattern" the paper's L2
//!   hardware prefetcher was designed for (§4.3.5).
//!
//! All randomness comes from the caller's seeded RNG, so address streams
//! are reproducible.

use rand::rngs::StdRng;
use rand::Rng;

/// Access pattern within a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegionKind {
    /// Uniform random addresses over the whole region.
    Uniform,
    /// Strided streams: `cursors` independent walkers advance by `stride`
    /// bytes per access, wrapping at the region end.
    Stream {
        /// Bytes between consecutive accesses of one cursor.
        stride: u64,
        /// Number of concurrently advancing cursors.
        cursors: u32,
    },
}

/// One weighted address region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Base virtual address.
    pub base: u64,
    /// Region size in bytes.
    pub bytes: u64,
    /// Selection weight relative to the other regions.
    pub weight: f64,
    /// Access pattern.
    pub kind: RegionKind,
    /// Shared across CPUs in SMP trace sets (private regions are offset
    /// per core; shared regions keep their base — see [`crate::smp`]).
    pub shared: bool,
}

impl Region {
    /// A uniform region.
    pub fn uniform(base: u64, bytes: u64, weight: f64) -> Self {
        Region {
            base,
            bytes,
            weight,
            kind: RegionKind::Uniform,
            shared: false,
        }
    }

    /// A uniform region shared between all CPUs of an SMP trace set
    /// (lock words, index roots, hot rows).
    pub fn shared_uniform(base: u64, bytes: u64, weight: f64) -> Self {
        Region {
            base,
            bytes,
            weight,
            kind: RegionKind::Uniform,
            shared: true,
        }
    }

    /// A strided stream region.
    pub fn stream(base: u64, bytes: u64, weight: f64, stride: u64, cursors: u32) -> Self {
        Region {
            base,
            bytes,
            weight,
            kind: RegionKind::Stream { stride, cursors },
            shared: false,
        }
    }
}

/// The full data-side specification of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSpec {
    /// Address regions; weights are normalized at sampling time.
    pub regions: Vec<Region>,
}

impl DataSpec {
    /// Creates a spec from regions.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty or total weight is non-positive.
    pub fn new(regions: Vec<Region>) -> Self {
        assert!(!regions.is_empty(), "need at least one region");
        let total: f64 = regions.iter().map(|r| r.weight).sum();
        assert!(total > 0.0, "regions need positive total weight");
        DataSpec { regions }
    }

    /// Instantiates the runtime address generator.
    pub fn generator(&self) -> AddressGen {
        AddressGen {
            total_weight: self.regions.iter().map(|r| r.weight).sum(),
            regions: self.regions.clone(),
            cursors: self
                .regions
                .iter()
                .map(|r| match r.kind {
                    RegionKind::Stream { cursors, .. } => {
                        // Spread the cursors across the region, skewed off
                        // page-color alignment (evenly spaced cursors in a
                        // power-of-two region would otherwise walk the same
                        // cache sets in lockstep — real arrays are not that
                        // aligned either).
                        (0..cursors as u64)
                            .map(|i| {
                                (i * (r.bytes / cursors.max(1) as u64) + i * 9 * 1024)
                                    % r.bytes.max(1)
                            })
                            .collect()
                    }
                    RegionKind::Uniform => Vec::new(),
                })
                .collect(),
            next_cursor: vec![0; self.regions.len()],
        }
    }
}

/// Stateful address generator instantiated from a [`DataSpec`].
#[derive(Debug, Clone)]
pub struct AddressGen {
    regions: Vec<Region>,
    /// Σ region weights, summed once in region order.
    total_weight: f64,
    cursors: Vec<Vec<u64>>,  // per region, per cursor: current offset
    next_cursor: Vec<usize>, // per region: always below its cursor count
}

impl AddressGen {
    /// Produces the next data address (8-byte aligned).
    pub fn next_addr(&mut self, rng: &mut StdRng) -> u64 {
        let mut x = rng.gen_range(0.0..self.total_weight);
        let mut idx = self.regions.len() - 1;
        for (i, r) in self.regions.iter().enumerate() {
            if x < r.weight {
                idx = i;
                break;
            }
            x -= r.weight;
        }
        self.addr_in(idx, rng)
    }

    fn addr_in(&mut self, idx: usize, rng: &mut StdRng) -> u64 {
        let region = self.regions[idx];
        match region.kind {
            RegionKind::Uniform => {
                let off = rng.gen_range(0..region.bytes.max(8) / 8) * 8;
                region.base + off
            }
            RegionKind::Stream { stride, .. } => {
                let cursors = &mut self.cursors[idx];
                if cursors.is_empty() {
                    return region.base;
                }
                let c = self.next_cursor[idx];
                self.next_cursor[idx] = if c + 1 == cursors.len() { 0 } else { c + 1 };
                let off = cursors[c];
                // An offset stays below `wrap` and the stride is at most
                // `wrap`, so one subtraction is the whole remainder.
                let wrap = region.bytes.max(stride);
                let next = off + stride;
                cursors[c] = if next >= wrap { next - wrap } else { next };
                region.base + (off & !7)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_addresses_stay_in_region() {
        let spec = DataSpec::new(vec![Region::uniform(0x1000, 4096, 1.0)]);
        let mut g = spec.generator();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let a = g.next_addr(&mut rng);
            assert!((0x1000..0x1000 + 4096).contains(&a));
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn stream_advances_by_stride() {
        let spec = DataSpec::new(vec![Region::stream(0x10_000, 1 << 20, 1.0, 64, 1)]);
        let mut g = spec.generator();
        let mut rng = StdRng::seed_from_u64(3);
        let a0 = g.next_addr(&mut rng);
        let a1 = g.next_addr(&mut rng);
        let a2 = g.next_addr(&mut rng);
        assert_eq!(a1 - a0, 64);
        assert_eq!(a2 - a1, 64);
    }

    #[test]
    fn multiple_cursors_interleave() {
        let spec = DataSpec::new(vec![Region::stream(0, 1 << 20, 1.0, 8, 2)]);
        let mut g = spec.generator();
        let mut rng = StdRng::seed_from_u64(3);
        let a0 = g.next_addr(&mut rng);
        let a1 = g.next_addr(&mut rng);
        let a2 = g.next_addr(&mut rng);
        assert_ne!(a1, a0 + 8, "second access comes from the other cursor");
        assert_eq!(a2, a0 + 8, "cursor 0 resumes where it left off");
    }

    #[test]
    fn stream_wraps_at_region_end() {
        let spec = DataSpec::new(vec![Region::stream(0x100, 128, 1.0, 64, 1)]);
        let mut g = spec.generator();
        let mut rng = StdRng::seed_from_u64(3);
        let addrs: Vec<u64> = (0..4).map(|_| g.next_addr(&mut rng)).collect();
        assert_eq!(addrs, vec![0x100, 0x140, 0x100, 0x140]);
    }

    #[test]
    fn weights_select_regions() {
        let spec = DataSpec::new(vec![
            Region::uniform(0, 4096, 0.9),
            Region::uniform(1 << 30, 4096, 0.1),
        ]);
        let mut g = spec.generator();
        let mut rng = StdRng::seed_from_u64(3);
        let mut high = 0;
        for _ in 0..10_000 {
            if g.next_addr(&mut rng) >= 1 << 30 {
                high += 1;
            }
        }
        assert!((800..1200).contains(&high), "got {high} high-region picks");
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_spec_rejected() {
        let _ = DataSpec::new(vec![]);
    }
}

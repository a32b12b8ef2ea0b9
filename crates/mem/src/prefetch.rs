//! Hardware prefetching into the L2 cache (§3.4).
//!
//! "The hardware prefetch provides data in L2 cache for expected fetch
//! requests in the near future. The prefetch is triggered by a L1 cache
//! miss that is demanded by a memory request in a workload."
//!
//! We model a stream/stride engine: it watches the line addresses of L1
//! demand misses, detects constant-stride chains (the paper notes the
//! algorithm "fits the chain access pattern of memory addresses" that FP
//! programs exhibit), and once a stream is confirmed, requests `degree`
//! lines ahead into the L2.

use crate::addr::{line_number, LINE_BYTES};

/// Maximum distance (in lines) between consecutive misses that can still
/// belong to the same stream.
const MAX_STRIDE_LINES: i64 = 32;

#[derive(Debug, Clone, Copy)]
struct Stream {
    last_line: i64,
    stride: i64,
    confidence: u8,
    last_used: u64,
}

/// A stride-detecting prefetch engine.
///
/// # Examples
///
/// ```
/// use s64v_mem::prefetch::StridePrefetcher;
///
/// let mut pf = StridePrefetcher::new(8, 2);
/// assert!(pf.on_demand_miss(0x0000).is_empty());  // first touch
/// assert!(pf.on_demand_miss(0x0040).is_empty());  // stride candidate
/// let req = pf.on_demand_miss(0x0080);            // stream confirmed
/// assert_eq!(req, vec![0x00c0, 0x0100]);
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    streams: Vec<Stream>,
    capacity: usize,
    degree: u32,
    clock: u64,
}

impl StridePrefetcher {
    /// Creates an engine tracking up to `streams` concurrent streams and
    /// prefetching `degree` lines ahead.
    ///
    /// # Panics
    ///
    /// Panics if `streams` or `degree` is zero.
    pub fn new(streams: usize, degree: u32) -> Self {
        assert!(streams > 0, "need at least one stream entry");
        assert!(degree > 0, "prefetch degree must be positive");
        StridePrefetcher {
            streams: Vec::new(),
            capacity: streams,
            degree,
            clock: 0,
        }
    }

    /// Observes an L1 *demand* miss and returns the line-aligned addresses
    /// the engine wants prefetched into the L2 (possibly empty).
    pub fn on_demand_miss(&mut self, addr: u64) -> Vec<u64> {
        self.clock += 1;
        let line = line_number(addr) as i64;

        // Find the stream this miss extends.
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            let delta = line - s.last_line;
            if delta == 0 {
                return Vec::new(); // repeat miss on the in-flight line
            }
            if delta.abs() <= MAX_STRIDE_LINES {
                best = Some(i);
                if delta == s.stride {
                    break; // exact continuation wins outright
                }
            }
        }

        match best {
            Some(i) => {
                let s = &mut self.streams[i];
                let delta = line - s.last_line;
                if delta == s.stride {
                    s.confidence = s.confidence.saturating_add(1);
                } else {
                    s.stride = delta;
                    s.confidence = 1;
                }
                s.last_line = line;
                s.last_used = self.clock;
                if s.confidence >= 2 {
                    let stride = s.stride;
                    (1..=self.degree as i64)
                        .filter_map(|k| {
                            let target = line + stride * k;
                            (target >= 0).then(|| target as u64 * LINE_BYTES)
                        })
                        .collect()
                } else {
                    Vec::new()
                }
            }
            None => {
                if self.streams.len() >= self.capacity {
                    let lru = self
                        .streams
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    self.streams.swap_remove(lru);
                }
                self.streams.push(Stream {
                    last_line: line,
                    stride: 1,
                    confidence: 0,
                    last_used: self.clock,
                });
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_stream_is_confirmed_on_third_miss() {
        let mut pf = StridePrefetcher::new(4, 2);
        assert!(pf.on_demand_miss(0).is_empty());
        assert!(pf.on_demand_miss(64).is_empty());
        assert_eq!(pf.on_demand_miss(128), vec![192, 256]);
        // Continues to prefetch ahead.
        assert_eq!(pf.on_demand_miss(192), vec![256, 320]);
    }

    #[test]
    fn large_strides_are_followed() {
        let mut pf = StridePrefetcher::new(4, 1);
        let stride = 4 * LINE_BYTES;
        pf.on_demand_miss(0);
        pf.on_demand_miss(stride);
        let req = pf.on_demand_miss(2 * stride);
        assert_eq!(req, vec![3 * stride]);
    }

    #[test]
    fn negative_strides_are_followed() {
        let mut pf = StridePrefetcher::new(4, 1);
        pf.on_demand_miss(10 * LINE_BYTES);
        pf.on_demand_miss(9 * LINE_BYTES);
        let req = pf.on_demand_miss(8 * LINE_BYTES);
        assert_eq!(req, vec![7 * LINE_BYTES]);
    }

    #[test]
    fn random_misses_do_not_trigger() {
        let mut pf = StridePrefetcher::new(4, 2);
        // Jumps far beyond MAX_STRIDE_LINES each time.
        assert!(pf.on_demand_miss(0).is_empty());
        assert!(pf.on_demand_miss(1 << 20).is_empty());
        assert!(pf.on_demand_miss(2 << 20).is_empty());
        assert!(pf.on_demand_miss(5 << 20).is_empty());
    }

    #[test]
    fn stream_table_capacity_is_bounded() {
        let mut pf = StridePrefetcher::new(2, 1);
        for i in 0..10 {
            pf.on_demand_miss(i << 22);
        }
        assert!(pf.streams.len() <= 2);
    }

    #[test]
    fn repeat_miss_is_ignored() {
        let mut pf = StridePrefetcher::new(2, 1);
        pf.on_demand_miss(0x1000);
        assert!(pf.on_demand_miss(0x1000).is_empty());
        assert!(
            pf.on_demand_miss(0x1020).is_empty(),
            "same line, no stream step"
        );
    }

    #[test]
    fn interleaved_streams_are_tracked_independently() {
        let mut pf = StridePrefetcher::new(4, 1);
        let a = 0u64;
        let b = 1u64 << 24;
        pf.on_demand_miss(a);
        pf.on_demand_miss(b);
        pf.on_demand_miss(a + 64);
        pf.on_demand_miss(b + 64);
        assert_eq!(pf.on_demand_miss(a + 128), vec![a + 192]);
        assert_eq!(pf.on_demand_miss(b + 128), vec![b + 192]);
    }
}

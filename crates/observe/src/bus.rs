//! The one memory-side record an observed run keeps: bus transfers.
//!
//! The paper sized the system from bus occupancy (§2.1), and the
//! Perfetto trace draws one slice per transfer on its bus's track. While
//! a traced run logs, the memory system pushes a [`BusTransfer`] per
//! granted request after the grant is decided, so logging cannot change
//! simulation results.

/// Which bus granted a [`BusTransfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusId {
    /// The shared backplane bus.
    Backplane,
    /// A per-board local bus (hierarchical topologies only).
    Board(u8),
}

/// One granted bus request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTransfer {
    /// Which bus.
    pub bus: BusId,
    /// Cycle the request was made.
    pub requested_at: u64,
    /// Line transfer (`true`) or address-only command (`false`).
    pub line_transfer: bool,
    /// Cycle the transaction gained the bus.
    pub granted_at: u64,
    /// Cycle the bus phase released.
    pub done_at: u64,
}

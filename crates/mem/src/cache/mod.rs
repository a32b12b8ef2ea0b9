//! Set-associative cache structures.
//!
//! The SPARC64 V caches are non-blocking (§3.2): a miss allocates a miss
//! buffer ([`MshrFile`]) while subsequent accesses continue. The L1 operand
//! cache is additionally organized as eight 4-byte banks so two requests
//! per cycle can proceed when they do not conflict.

pub mod banked;
pub mod core;
pub mod mshr;
/// The per-set model [`Cache`] used to be built from, kept as the
/// reference its flat arrays are tested against.
#[cfg(test)]
mod set;

pub use self::core::{Cache, Eviction};
pub use banked::{bank_of, BankSelector};
pub use mshr::MshrFile;

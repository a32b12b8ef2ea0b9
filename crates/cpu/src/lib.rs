//! Cycle-level model of the SPARC64 V out-of-order core.
//!
//! This crate implements the processor half of the paper's performance
//! model (§3): a 4-issue out-of-order superscalar with a 64-entry
//! instruction window, 32+32 renaming registers, split reservation
//! stations (RSE/RSF/RSA/RSBR), two integer units, two FP multiply-add
//! units, two address generators, *speculative dispatch* with cancel-and-
//! replay on L1 misses, full *data forwarding*, non-blocking dual operand
//! access through a 16-entry load queue and 10-entry store queue, and a
//! 16K-entry 4-way branch history table.
//!
//! The model is trace driven and cycle stepped: [`Core::try_step`] advances one
//! cycle, pulling instructions from a [`s64v_trace::TraceStream`] and
//! issuing memory requests into a [`s64v_mem::MemorySystem`]. Every design
//! alternative studied in the paper's Figures 8–18 is a [`CoreConfig`]
//! knob.

pub mod bpred;
pub mod config;
pub mod core;
pub mod error;
pub mod lsq;
pub mod profile;
pub mod rename;
pub mod rob;
pub mod rs;
pub mod slotmask;
pub mod stats;
pub mod timeline;
pub mod wheel;

pub use crate::core::{warm_record, Core};
pub use bpred::{Bht, BhtConfig};
pub use config::{CoreConfig, RsScheme};
pub use error::{CoreError, CoreFault, HeadInstr, PipelineSnapshot, RsOccupancy};
pub use stats::CoreStats;
pub use timeline::{InstrTimeline, PipelineTrace};

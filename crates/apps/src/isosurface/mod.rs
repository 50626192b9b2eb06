//! Isosurface rendering's dataset. The programs are
//! [`crate::dialect::ZBUF_SRC`] (z-buffer) and
//! [`crate::dialect::APIX_SRC`] (active pixels).

pub mod dataset;

pub use dataset::ScalarGrid;

/// Standard isovalue used across experiments.
pub const ISOVALUE: f32 = 0.85;

//! # cgp-apps — the four data-driven applications
//!
//! The paper's evaluation applications (Section 6.1), each written once,
//! in the paper's dialect ([`dialect`]): isosurface rendering with
//! **z-buffer** and **active-pixel** accumulation, **k-nearest
//! neighbors** and the **virtual microscope**. `cgp-compiler` turns each
//! program into a filter plan; every run is compared with what the
//! sequential interpreter prints.
//!
//! The other modules generate the deterministic synthetic datasets the
//! programs read: [`isosurface::ScalarGrid`], [`knn::generate_points`]
//! and [`vmscope::Slide`] (see DESIGN.md for the substitutions).

pub mod dialect;
pub mod isosurface;
pub mod knn;
pub mod vmscope;

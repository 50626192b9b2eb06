//! # cgp-lang — dialect frontend
//!
//! The Java-like dialect of the paper *"Compiler Support for Exploiting
//! Coarse-Grained Pipelined Parallelism"* (Du, Ferreira, Agrawal — SC 2003),
//! Section 3. The dialect exposes both data parallelism and pipelined
//! parallelism to the compiler through four constructs:
//!
//! - **`RectDomain<1>`** — a rectilinear collection of coordinates;
//! - **`foreach (i in dom)`** — an iteration-order-independent loop;
//! - **`implements Reducinterface`** — marks a class whose instances are
//!   reduction variables (updated only by associative+commutative
//!   operations inside `foreach`, merged with `reduce`);
//! - **`PipelinedLoop (pkt in dom; num_packets)`** — processes the domain
//!   as a sequence of independent packets, the unit of pipelined execution.
//!
//! This crate provides lexing ([`lexer`]), parsing ([`parser`]), type
//! checking ([`types`]), a pretty-printer ([`pretty`]) and a tree-walking
//! interpreter ([`interp`]) that defines the sequential semantics every
//! pipelined execution must reproduce.
//!
//! ```
//! use cgp_lang::{parser::parse, types::check, interp::{Interp, HostEnv}};
//!
//! let src = r#"
//!     class A { void main() {
//!         RectDomain<1> d = [1 : 10];
//!         int sum = 0;
//!         foreach (i in d) { sum += i; }
//!         print(sum);
//!     } }
//! "#;
//! let typed = check(parse(src).unwrap()).unwrap();
//! let mut interp = Interp::new(&typed, HostEnv::new());
//! interp.run_main().unwrap();
//! assert_eq!(interp.output, vec!["55"]);
//! ```

pub mod ast;
pub mod bytecode;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod symbols;
pub mod token;
pub mod types;
pub mod value;

pub use ast::{Program, Type};
pub use error::Diagnostic;
pub use interp::{split_domain, HostEnv, Interp};
pub use parser::parse;
pub use types::{check, TypedProgram};
pub use value::{ArrayVal, Value};

/// Parse and type-check in one step.
pub fn frontend(src: &str) -> Result<TypedProgram, Diagnostic> {
    check(parse(src)?)
}

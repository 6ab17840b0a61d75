#![warn(missing_docs)]

//! **spl** — a from-scratch Rust reproduction of
//! *“SPL: A Language and Compiler for DSP Algorithms”* (Xiong, Johnson,
//! Johnson, Padua; PLDI 2001).
//!
//! SPL is a domain-specific language whose programs are matrix formulas:
//!
//! ```text
//! (define F4 (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2)))
//! #subname fft16
//! (compose (tensor F4 (I 4)) (T 16 4) (tensor (I 4) F4) (L 16 4))
//! ```
//!
//! The compiler translates such formulas into Fortran or C subroutines
//! computing `y = M x`, via template-driven code generation, loop
//! unrolling, compile-time intrinsic evaluation, complex→real type
//! transformation, and a value-numbering optimizer. Around it sit the
//! SPIRAL-style components the paper's evaluation uses: a formula
//! generator, a dynamic-programming search engine, an execution substrate
//! (native via the host C compiler, or a portable register VM), and an
//! FFTW-like baseline library.
//!
//! This umbrella crate re-exports every component:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`frontend`] | `spl-frontend` | lexer, parser, AST, directives |
//! | [`formula`] | `spl-formula` | formula algebra + dense-matrix oracle |
//! | [`icode`] | `spl-icode` | the four-tuple IR and its interpreter |
//! | [`templates`] | `spl-templates` | the template mechanism (Section 3.2) |
//! | [`compiler`] | `spl-compiler` | the five-phase SPL compiler |
//! | [`vm`] | `spl-vm` | portable register VM for compiled code |
//! | [`native`] | `spl-native` | generated C through the host compiler |
//! | [`generator`] | `spl-generator` | FFT/WHT/DCT breakdown rules |
//! | [`search`] | `spl-search` | DP search with k-best plans |
//! | [`serve`] | `spl-serve` | fault-tolerant transform-serving daemon |
//! | [`resilience`] | `spl-resilience` | sandboxing, timeouts, sealed files |
//! | [`fuzz`] | `spl-fuzz` | differential formula fuzzing + shrinking |
//! | [`minifft`] | `spl-minifft` | the FFTW-like baseline |
//! | [`numeric`] | `spl-numeric` | complex numbers, references, metrics |
//! | [`telemetry`] | `spl-telemetry` | phase spans, counters, run reports |
//!
//! # Quick start
//!
//! ```
//! use spl::compiler::Compiler;
//!
//! let mut compiler = Compiler::new();
//! let units = compiler
//!     .compile_source("#subname fft4\n(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))")
//!     .unwrap();
//! println!("{}", units[0].emit()); // Fortran for the 4-point FFT
//! # assert!(units[0].emit().contains("subroutine fft4"));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

pub use spl_compiler as compiler;
pub use spl_formula as formula;
pub use spl_frontend as frontend;
pub use spl_fuzz as fuzz;
pub use spl_generator as generator;
pub use spl_icode as icode;
pub use spl_minifft as minifft;
pub use spl_native as native;
pub use spl_numeric as numeric;
pub use spl_resilience as resilience;
pub use spl_search as search;
pub use spl_serve as serve;
pub use spl_telemetry as telemetry;
pub use spl_templates as templates;
pub use spl_vm as vm;

#![warn(missing_docs)]

//! Execution engine for compiled SPL programs.
//!
//! The paper evaluates SPL by compiling the generated Fortran with the
//! platform compiler and timing it on SPARC/MIPS/Pentium hardware. This
//! reproduction substitutes a compact register VM: the *optimized i-code*
//! (real-typed, post type-transformation) is lowered to a flat operation
//! array over `f64` storage and executed directly. Operation count,
//! operation order, loop structure, and memory-access pattern are exactly
//! those of the emitted Fortran/C, so relative performance between
//! formulas — which is what the paper's experiments compare — is
//! preserved (see DESIGN.md, substitution 1).
//!
//! There is one engine and one oracle. [`lower`] first builds the flat
//! op array, which the *reference executor* runs op by op — the checked
//! baseline every differential test compares against — then tries to
//! *resolve* it into the fused, strength-reduced engine (see
//! [`resolved`]): peephole fusion produces multiply–add, negate-folded,
//! and butterfly macro-ops, and every operand becomes a place in one
//! unified arena: the cell itself where no loop moves it (all of
//! straight-line code), a precomputed cursor advanced by constant
//! strides at loop latches where one does. [`VmProgram::run`] and [`VmProgram::run_profiled`] are that
//! engine's single executor with and without a profiling probe; `run`
//! falls back to the reference executor only for the programs the
//! resolver declines.
//!
//! # Examples
//!
//! ```
//! use spl_compiler::Compiler;
//! use spl_vm::{lower, VmState};
//! use spl_numeric::Complex;
//!
//! let mut c = Compiler::new();
//! let unit = c.compile_formula_str("(F 2)").unwrap();
//! let vm = lower(&unit.program).unwrap();
//! let mut state = VmState::new(&vm);
//! let x = [1.0, 0.0, 2.0, 0.0]; // (1+0i, 2+0i) interleaved
//! let mut y = [0.0; 4];
//! vm.run(&x, &mut y, &mut state);
//! assert_eq!(y, [3.0, 0.0, -1.0, 0.0]);
//! # let _ = Complex::ZERO;
//! ```

pub mod convert;
pub mod profile;
pub mod program;
pub mod resolved;
pub mod simd;
pub mod timer;

pub use profile::{LoopBlock, NodeCost, VmProfile};
pub use program::{lower, VmError, VmProgram, VmState};
pub use resolved::ResolveStats;
pub use timer::{describe_policy, measure, measure_with_reps, Measurement};

#![warn(missing_docs)]

//! The SPL template mechanism (paper Section 3.2).
//!
//! Every SPL operation is *defined by a template*: a pattern over formulas,
//! an optional C-style condition, and an i-code body. The compiler knows
//! the meaning of a formula only through the template it matches; built-in
//! operators are themselves templates, written in SPL template syntax in a
//! [startup file](builtin::STARTUP_SPL) read before the user program, and
//! later definitions override earlier ones (matching runs in reverse
//! definition order).
//!
//! This crate implements:
//!
//! * the pattern matcher ([`table`]) — integer pattern variables
//!   (`n_`, lowercase) and formula pattern variables (`A_`, uppercase),
//!   and condition evaluation with `X_.in_size` / `X_.out_size`
//!   properties;
//! * shape inference ([`shape`]) — through the formula algebra when the
//!   operator is known, falling back to template-body analysis for
//!   user-defined operators;
//! * template expansion ([`expand`]) — recursive instantiation of i-code
//!   bodies, threading the six implicit parameters `$in, $out,
//!   $in_offset, $out_offset, $in_stride, $out_stride` through
//!   sub-formula calls; `compose` is expanded natively, folding the
//!   stride permutations and twiddle diagonals of a chain into the
//!   tensor stage beside them (the paper's composite templates).
//!
//! # Examples
//!
//! ```
//! use spl_templates::{TemplateTable, expand::{expand_formula, ExpandOptions}};
//! use spl_frontend::parser::parse_formula;
//! use spl_numeric::Complex;
//!
//! let table = TemplateTable::builtin();
//! let sexp = parse_formula("(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))").unwrap();
//! let prog = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
//! let x: Vec<Complex> = (1..=4).map(|v| Complex::real(v as f64)).collect();
//! let y = spl_icode::interp::run(&prog, &x).unwrap();
//! let want = spl_numeric::reference::dft(&x);
//! assert!(y.iter().zip(&want).all(|(a, b)| a.approx_eq(*b, 1e-12)));
//! ```

pub mod builtin;
mod compose;
pub mod expand;
pub mod shape;
pub mod table;

pub use expand::{
    expand_formula, expand_formula_with_stats, ExpandError, ExpandOptions, ExpandStats,
    DEFAULT_EXPAND_DEPTH, DEFAULT_EXPAND_STEPS,
};
pub use table::{Bindings, TemplateTable};

/// The marker head used internally to tag `define`d sub-formulas captured
/// under `#unroll on`; the expander unrolls every loop generated inside
/// such a subtree.
pub const UNROLL_MARKER: &str = "unroll!";

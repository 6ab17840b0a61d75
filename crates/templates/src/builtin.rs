//! The built-in startup file.
//!
//! The paper's compiler reads the templates for all pre-defined operations
//! from a startup file before the user program (Section 3.2); user
//! templates defined later override these because matching runs in
//! reverse definition order. The same holds here: the startup file below
//! is written in SPL template syntax and parsed through the ordinary front
//! end, so it also serves as a living test of the template grammar.

use spl_frontend::ast::{Item, TemplateDef};
use spl_frontend::parse_program;

/// The startup file, in SPL source form.
///
/// Order matters: `(F 2)` appears *after* `(F n_)` so that the butterfly
/// overrides the O(n²) definition for 2-point transforms.
pub const STARTUP_SPL: &str = r#"
; ---------------------------------------------------------------------
; SPL startup file: templates for the pre-defined parameterized matrices
; and matrix operations (paper Section 2.2 / 3.2).
;
; Every template runs with six implicit parameters:
;   $in $out $in_offset $out_offset $in_stride $out_stride
; ---------------------------------------------------------------------

; (I n) -- identity: a plain copy loop.
(template (I n_) [n_>=1]
  (do $i0 = 0,n_-1
        $out($i0) = $in($i0)
   end))

; (F n) -- the DFT by definition (the paper's example template).
(template (F n_) [n_>=1]
  (do $i0 = 0,n_-1
        $out($i0) = 0
        do $i1 = 0,n_-1
             $r0 = $i0 * $i1
             $f0 = W(n_ $r0) * $in($i1)
             $out($i0) = $out($i0) + $f0
        end
   end))

; (F 2) -- the butterfly, overriding the general definition.
(template (F 2)
  ( $f0 = $in(0) + $in(1)
    $f1 = $in(0) - $in(1)
    $out(0) = $f0
    $out(1) = $f1 ))

; (L n s) -- stride permutation L^n_s: out[i*(n/s)+j] = in[j*s+i].
(template (L n_ s_) [n_%s_==0 && s_>=1]
  (do $i0 = 0,s_-1
        do $i1 = 0,n_/s_-1
             $out($i0*(n_/s_)+$i1) = $in($i1*s_+$i0)
        end
   end))

; (T n s) -- twiddle matrix T^n_s: out[i*s+j] = W(n, i*j) * in[i*s+j].
(template (T n_ s_) [n_%s_==0 && s_>=1]
  (do $i0 = 0,n_/s_-1
        do $i1 = 0,s_-1
             $r0 = $i0 * $i1
             $f0 = W(n_ $r0)
             $out($i0*s_+$i1) = $f0 * $in($i0*s_+$i1)
        end
   end))

; (J n) -- index reversal (extension; used by the DCT breakdown rules).
(template (J n_) [n_>=1]
  (do $i0 = 0,n_-1
        $out(n_-1-$i0) = $in($i0)
   end))

; (compose A ... Z) has no template: the expander applies the factors
; right to left through two alternating temporaries, after folding the
; L and T factors of the chain into the tensor stage beside them. A user
; template matching a compose still overrides that.

; (tensor (I m) A) -- block repetition over contiguous sub-vectors.
(template (tensor (I m_) A_) [m_>=1]
  (do $i0 = 0,m_-1
        A_( $in, $out, $i0*A_.in_size, $i0*A_.out_size, 1, 1 )
   end))

; (tensor A (I m)) -- the same transformation on strided sub-vectors.
(template (tensor A_ (I m_)) [m_>=1]
  (do $i0 = 0,m_-1
        A_( $in, $out, $i0, $i0, m_, m_ )
   end))

; (direct-sum A B) -- block diagonal: A on the head, B on the tail.
(template (direct-sum A_ B_)
  ( A_( $in, $out, 0, 0, 1, 1 )
    B_( $in, $out, A_.in_size, A_.out_size, 1, 1 )))
"#;

/// Parses the startup file into its template definitions.
///
/// # Panics
///
/// Panics if the embedded startup file is malformed (covered by tests, so
/// this is a build-time invariant).
pub fn startup_templates() -> Vec<TemplateDef> {
    let prog = parse_program(STARTUP_SPL).expect("startup file must parse");
    prog.items
        .into_iter()
        .filter_map(|item| match item {
            Item::Template(t) => Some(t),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_file_parses() {
        let ts = startup_templates();
        assert_eq!(ts.len(), 9);
    }

    #[test]
    fn startup_order_puts_f2_after_fn() {
        let ts = startup_templates();
        let fn_pos = ts
            .iter()
            .position(|t| t.pattern.to_string() == "(F n_)")
            .unwrap();
        let f2_pos = ts
            .iter()
            .position(|t| t.pattern.to_string() == "(F 2)")
            .unwrap();
        assert!(f2_pos > fn_pos, "the butterfly must override");
    }

    #[test]
    fn every_builtin_has_a_body() {
        for t in startup_templates() {
            assert!(!t.body.is_empty(), "{} has an empty body", t.pattern);
        }
    }
}

//! Shape inference for S-expression formulas.
//!
//! For the operators of Section 2 the shape follows from the algebra. For
//! *user-defined* operators (new templates), the paper says the compiler
//! infers the input and output sizes from the template body; we do the
//! same by interval analysis of the `$in`/`$out` subscripts over the
//! loop ranges.

use spl_frontend::ast::{TBinOp, TExpr, TUnOp, TemplateStmt};
use spl_frontend::sexp::Sexp;

use crate::expand::ExpandError;
use crate::table::{static_eval, Bindings, TemplateTable};
use crate::UNROLL_MARKER;

/// Computes `(out_size, in_size)` — rows × columns — of a formula.
///
/// # Errors
///
/// Fails for malformed formulas, shape-inconsistent compositions, or
/// operators with no matching template.
pub fn shape_of(sexp: &Sexp, table: &TemplateTable) -> Result<(usize, usize), ExpandError> {
    shape_of_depth(sexp, table, 0)
}

/// Recursion cap for shape inference. The expander's tensor rewrite can
/// deepen trees beyond what the parser accepted, so this sits well above
/// the parser's nesting limit.
const SHAPE_DEPTH_LIMIT: usize = 2_000;

fn shape_of_depth(
    sexp: &Sexp,
    table: &TemplateTable,
    depth: usize,
) -> Result<(usize, usize), ExpandError> {
    if depth > SHAPE_DEPTH_LIMIT {
        return Err(ExpandError::LimitExceeded(format!(
            "shape inference recursion depth exceeds {SHAPE_DEPTH_LIMIT}"
        )));
    }
    let err = |msg: String| Err(ExpandError::Invalid(msg));
    let items = match sexp {
        Sexp::List(items) => items,
        other => return err(format!("{other} is not a formula")),
    };
    let head = match items.first() {
        Some(Sexp::Symbol(s)) => s.as_str(),
        _ => return err(format!("{sexp} has no operator")),
    };
    let int_at = |k: usize| -> Result<usize, ExpandError> {
        items
            .get(k)
            .and_then(Sexp::as_int)
            .filter(|&v| v > 0)
            .map(|v| v as usize)
            .ok_or_else(|| {
                ExpandError::Invalid(format!("{sexp}: expected positive integer parameter"))
            })
    };
    match head {
        _ if head == UNROLL_MARKER => {
            let inner = items
                .get(1)
                .ok_or_else(|| ExpandError::Shape("empty unroll! marker".into()))?;
            shape_of_depth(inner, table, depth + 1)
        }
        "I" | "F" | "J" => {
            let n = int_at(1)?;
            Ok((n, n))
        }
        "L" | "T" => {
            let n = int_at(1)?;
            let s = int_at(2)?;
            if n % s != 0 {
                return err(format!("{sexp}: second parameter must divide the first"));
            }
            Ok((n, n))
        }
        "diagonal" | "permutation" => {
            let n = items
                .get(1)
                .and_then(Sexp::as_list)
                .map(<[Sexp]>::len)
                .filter(|&n| n > 0)
                .ok_or_else(|| ExpandError::Invalid(format!("{sexp}: expected an element list")))?;
            Ok((n, n))
        }
        "matrix" => {
            let rows = items.len() - 1;
            let cols = items
                .get(1)
                .and_then(Sexp::as_list)
                .map(<[Sexp]>::len)
                .ok_or_else(|| ExpandError::Invalid(format!("{sexp}: expected rows")))?;
            if rows == 0 || cols == 0 {
                return err(format!("{sexp}: empty matrix"));
            }
            for row in &items[1..] {
                if row.as_list().map(<[Sexp]>::len) != Some(cols) {
                    return err(format!("{sexp}: matrix rows have unequal lengths"));
                }
            }
            Ok((rows, cols))
        }
        "compose" => {
            let parts = &items[1..];
            if parts.is_empty() {
                return err("empty compose".into());
            }
            let shapes = parts
                .iter()
                .map(|p| shape_of_depth(p, table, depth + 1))
                .collect::<Result<Vec<_>, _>>()?;
            for w in shapes.windows(2) {
                if w[0].1 != w[1].0 {
                    return err(format!(
                        "compose shape mismatch: {}x{} then {}x{} in {sexp}",
                        w[0].0, w[0].1, w[1].0, w[1].1
                    ));
                }
            }
            Ok((shapes[0].0, shapes[shapes.len() - 1].1))
        }
        "tensor" => {
            let parts = &items[1..];
            if parts.is_empty() {
                return err("empty tensor".into());
            }
            let mut rows = 1usize;
            let mut cols = 1usize;
            for p in parts {
                let (r, c) = shape_of_depth(p, table, depth + 1)?;
                rows = rows.checked_mul(r).ok_or_else(|| {
                    ExpandError::Overflow(format!("tensor rows overflow in {sexp}"))
                })?;
                cols = cols.checked_mul(c).ok_or_else(|| {
                    ExpandError::Overflow(format!("tensor cols overflow in {sexp}"))
                })?;
            }
            Ok((rows, cols))
        }
        "direct-sum" => {
            let parts = &items[1..];
            if parts.is_empty() {
                return err("empty direct-sum".into());
            }
            let mut rows = 0usize;
            let mut cols = 0usize;
            for p in parts {
                let (r, c) = shape_of_depth(p, table, depth + 1)?;
                rows = rows.checked_add(r).ok_or_else(|| {
                    ExpandError::Overflow(format!("direct-sum rows overflow in {sexp}"))
                })?;
                cols = cols.checked_add(c).ok_or_else(|| {
                    ExpandError::Overflow(format!("direct-sum cols overflow in {sexp}"))
                })?;
            }
            Ok((rows, cols))
        }
        _ => infer_from_template(sexp, table),
    }
}

/// Infers the shape of a user-defined operator from its template body: the
/// largest `$in` subscript reachable gives the input size, the largest
/// `$out` subscript the output size.
fn infer_from_template(sexp: &Sexp, table: &TemplateTable) -> Result<(usize, usize), ExpandError> {
    let (def, bindings) = table
        .find(sexp)?
        .ok_or_else(|| ExpandError::NoMatch(format!("no template matches {sexp}")))?;
    let mut loops: Vec<(String, i64, i64)> = Vec::new();
    let mut max_in: i64 = -1;
    let mut max_out: i64 = -1;
    // Fortran semantics: a zero-trip loop's body contributes nothing.
    let mut skip_depth = 0usize;
    for stmt in &def.body {
        if skip_depth > 0 {
            match stmt {
                TemplateStmt::Do { .. } => skip_depth += 1,
                TemplateStmt::End => skip_depth -= 1,
                _ => {}
            }
            continue;
        }
        match stmt {
            TemplateStmt::Do { var, lo, hi } => {
                let lo = static_eval(lo, &bindings, table)?;
                let hi = static_eval(hi, &bindings, table)?;
                if hi < lo {
                    skip_depth = 1;
                    continue;
                }
                loops.push((var.clone(), lo, hi));
            }
            TemplateStmt::End => {
                loops.pop();
            }
            TemplateStmt::Assign { lhs, rhs } => {
                if let spl_frontend::ast::TLval::VecElem(name, idx) = lhs {
                    if name == "out" {
                        let (_, hi) = range_of(idx, &loops, &bindings, table)?;
                        max_out = max_out.max(hi);
                    }
                }
                scan_expr(rhs, &loops, &bindings, table, &mut max_in)?;
            }
            TemplateStmt::Call { var, args } => {
                let sub = bindings.formulas.get(var).ok_or_else(|| {
                    ExpandError::Invalid(format!("unbound formula variable {var}"))
                })?;
                let (sub_rows, sub_cols) = shape_of(sub, table)?;
                // args: in, out, in_off, out_off, in_stride, out_stride
                let stride = |k: usize| -> Result<i64, ExpandError> {
                    static_eval(&args[k], &bindings, table)
                };
                if matches!(&args[0], TExpr::Var(v) if v == "in") {
                    let (_, off_hi) = range_of(&args[2], &loops, &bindings, table)?;
                    // With a negative stride the first element is the
                    // largest subscript; cover both endpoints.
                    let reach = stride(4)? * (sub_cols as i64 - 1);
                    max_in = max_in.max(off_hi + reach.max(0));
                }
                if matches!(&args[1], TExpr::Var(v) if v == "out") {
                    let (_, off_hi) = range_of(&args[3], &loops, &bindings, table)?;
                    let reach = stride(5)? * (sub_rows as i64 - 1);
                    max_out = max_out.max(off_hi + reach.max(0));
                }
            }
        }
    }
    if max_in < 0 || max_out < 0 {
        return Err(ExpandError::Invalid(format!(
            "cannot infer sizes of {sexp}: template touches no $in/$out elements"
        )));
    }
    Ok((max_out as usize + 1, max_in as usize + 1))
}

fn scan_expr(
    e: &TExpr,
    loops: &[(String, i64, i64)],
    b: &Bindings,
    table: &TemplateTable,
    max_in: &mut i64,
) -> Result<(), ExpandError> {
    match e {
        TExpr::VecElem(name, idx) => {
            if name == "in" {
                let (_, hi) = range_of(idx, loops, b, table)?;
                *max_in = (*max_in).max(hi);
            }
            Ok(())
        }
        TExpr::Un(_, a) => scan_expr(a, loops, b, table, max_in),
        TExpr::Bin(_, x, y) => {
            scan_expr(x, loops, b, table, max_in)?;
            scan_expr(y, loops, b, table, max_in)
        }
        TExpr::Intrinsic(_, args) => args
            .iter()
            .try_for_each(|a| scan_expr(a, loops, b, table, max_in)),
        _ => Ok(()),
    }
}

/// Interval analysis of a template expression over the current loop
/// ranges.
fn range_of(
    e: &TExpr,
    loops: &[(String, i64, i64)],
    b: &Bindings,
    table: &TemplateTable,
) -> Result<(i64, i64), ExpandError> {
    match e {
        TExpr::Int(v) => Ok((*v, *v)),
        TExpr::PatVar(_) | TExpr::Prop(_, _) => {
            let v = static_eval(e, b, table)?;
            Ok((v, v))
        }
        TExpr::Var(name) => {
            for (ln, lo, hi) in loops.iter().rev() {
                if ln == name {
                    return Ok((*lo, *hi));
                }
            }
            Err(ExpandError::Invalid(format!(
                "${name} is not a loop variable in scope (size inference)"
            )))
        }
        TExpr::Un(TUnOp::Neg, a) => {
            let (lo, hi) = range_of(a, loops, b, table)?;
            Ok((-hi, -lo))
        }
        TExpr::Bin(op, x, y) => {
            let (xl, xh) = range_of(x, loops, b, table)?;
            let (yl, yh) = range_of(y, loops, b, table)?;
            match op {
                TBinOp::Add => Ok((xl + yl, xh + yh)),
                TBinOp::Sub => Ok((xl - yh, xh - yl)),
                TBinOp::Mul => {
                    let prod = |a: i64, bb: i64| {
                        a.checked_mul(bb).ok_or_else(|| {
                            ExpandError::Overflow(
                                "subscript range overflow (size inference)".into(),
                            )
                        })
                    };
                    let cands = [prod(xl, yl)?, prod(xl, yh)?, prod(xh, yl)?, prod(xh, yh)?];
                    Ok((*cands.iter().min().unwrap(), *cands.iter().max().unwrap()))
                }
                TBinOp::Div | TBinOp::Mod => {
                    if xl == xh && yl == yh && yl != 0 {
                        let v = if *op == TBinOp::Div { xl / yl } else { xl % yl };
                        Ok((v, v))
                    } else {
                        Err(ExpandError::Invalid(
                            "non-constant division in subscript (size inference)".into(),
                        ))
                    }
                }
            }
        }
        other => Err(ExpandError::Invalid(format!(
            "cannot bound expression {other} (size inference)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_frontend::parser::{parse_formula, parse_program};

    fn table_with(src: &str) -> TemplateTable {
        let mut table = TemplateTable::new();
        for item in parse_program(src).unwrap().items {
            if let spl_frontend::Item::Template(t) = item {
                table.add(t);
            }
        }
        table
    }

    #[test]
    fn shapes_of_known_operators() {
        let t = TemplateTable::new();
        let f = parse_formula("(compose (tensor (F 2) (I 4)) (T 8 4) (L 8 2))").unwrap();
        assert_eq!(shape_of(&f, &t).unwrap(), (8, 8));
        let ds = parse_formula("(direct-sum (F 2) (I 3))").unwrap();
        assert_eq!(shape_of(&ds, &t).unwrap(), (5, 5));
        let m = parse_formula("(matrix (1 2 3) (4 5 6))").unwrap();
        assert_eq!(shape_of(&m, &t).unwrap(), (2, 3));
    }

    #[test]
    fn mismatched_compose_rejected() {
        let t = TemplateTable::new();
        let f = parse_formula("(compose (F 2) (F 3))").unwrap();
        assert!(shape_of(&f, &t).is_err());
    }

    #[test]
    fn infers_user_defined_leaf_operator() {
        // A "half" operator reading 2n inputs and writing n outputs.
        let table = table_with(
            "(template (half n_) (do $i0 = 0,n_-1 $out($i0) = $in(2*$i0) + $in(2*$i0+1) end))",
        );
        let f = parse_formula("(half 4)").unwrap();
        assert_eq!(shape_of(&f, &table).unwrap(), (4, 8));
    }

    #[test]
    fn infers_through_calls() {
        // A "twice" operator applying A_ to two halves of a double-size
        // input.
        let table = table_with(
            "(template (twice A_)
               ( A_($in, $out, 0, 0, 1, 1)
                 A_($in, $out, A_.in_size, A_.out_size, 1, 1) ))",
        );
        let f = parse_formula("(twice (F 4))").unwrap();
        assert_eq!(shape_of(&f, &table).unwrap(), (8, 8));
    }

    #[test]
    fn unknown_operator_without_template_fails() {
        let t = TemplateTable::new();
        let f = parse_formula("(frobnicate 4)").unwrap();
        assert!(shape_of(&f, &t).is_err());
    }

    #[test]
    fn unroll_marker_is_transparent() {
        let t = TemplateTable::new();
        // The marker is internal (inserted by define-resolution), never
        // written in SPL source, so build it programmatically.
        let f = Sexp::List(vec![
            Sexp::sym(crate::UNROLL_MARKER),
            parse_formula("(F 4)").unwrap(),
        ]);
        assert_eq!(shape_of(&f, &t).unwrap(), (4, 4));
    }
}

//! The template table, pattern matcher, and condition evaluator.

use std::collections::HashMap;

use spl_frontend::ast::{CmpOp, CondExpr, SizeProp, TBinOp, TExpr, TUnOp, TemplateDef};
use spl_frontend::sexp::Sexp;

use crate::expand::ExpandError;
use crate::shape::shape_of;

/// Pattern-variable bindings produced by a successful match.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    /// Integer pattern variables (lowercase, e.g. `n_`).
    pub ints: HashMap<String, i64>,
    /// Formula pattern variables (uppercase, e.g. `A_`), bound to the
    /// matched sub-formula.
    pub formulas: HashMap<String, Sexp>,
}

/// An ordered collection of templates; matching runs newest-first so that
/// later definitions override earlier ones (paper Section 3.2).
#[derive(Debug, Clone, Default)]
pub struct TemplateTable {
    templates: Vec<TemplateDef>,
    /// How many of the oldest templates came from the startup file.
    builtin: usize,
}

impl TemplateTable {
    /// An empty table (no built-ins). Most callers want
    /// [`TemplateTable::builtin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The table pre-loaded with the startup file's built-in templates.
    ///
    /// # Panics
    ///
    /// Panics if the embedded startup file fails to parse — a build-time
    /// invariant covered by tests.
    pub fn builtin() -> Self {
        let mut t = Self::new();
        for def in crate::builtin::startup_templates() {
            t.add(def);
        }
        t.builtin = t.templates.len();
        t
    }

    /// Whether `def` (as returned by [`find`](Self::find) on this table)
    /// is one of the startup file's templates rather than a user's.
    pub fn is_builtin(&self, def: &TemplateDef) -> bool {
        self.templates[..self.builtin]
            .as_ptr_range()
            .contains(&std::ptr::from_ref(def))
    }

    /// Appends a template; it takes precedence over all earlier ones.
    pub fn add(&mut self, def: TemplateDef) {
        self.templates.push(def);
    }

    /// The number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Finds the first (newest) template whose pattern matches `subject`
    /// and whose condition holds.
    ///
    /// A template whose condition cannot be evaluated (e.g. it needs the
    /// size of a shapeless sub-formula) is treated as non-matching and
    /// the search continues with older templates — overriding templates
    /// with narrower conditions must not break formulas the original
    /// template still handles. The first such error is reported only if
    /// *no* template matches in the end.
    ///
    /// # Errors
    ///
    /// Returns the recorded condition-evaluation error when every
    /// matching template was rejected because of one.
    pub fn find(&self, subject: &Sexp) -> Result<Option<(&TemplateDef, Bindings)>, ExpandError> {
        let mut first_err: Option<ExpandError> = None;
        for def in self.templates.iter().rev() {
            let mut b = Bindings::default();
            if match_pattern(&def.pattern, subject, &mut b) {
                let ok = match &def.condition {
                    Some(c) => match eval_cond(c, &b, self) {
                        Ok(v) => v,
                        Err(e) => {
                            first_err.get_or_insert(e);
                            false
                        }
                    },
                    None => true,
                };
                if ok {
                    return Ok(Some((def, b)));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }
}

/// Matches `pattern` against `subject`, extending `b`.
///
/// Rules (paper Section 3.2): symbols ending in `_` are pattern variables;
/// a lowercase first letter matches any integer constant, an uppercase
/// first letter matches any formula (a parenthesized form — pattern
/// variables cannot match undefined bare symbols). Repeated variables must
/// match equal values.
pub fn match_pattern(pattern: &Sexp, subject: &Sexp, b: &mut Bindings) -> bool {
    match pattern {
        Sexp::Symbol(s) if s.ends_with('_') && s.len() > 1 => {
            let first = s.chars().next().unwrap();
            if first.is_ascii_lowercase() {
                match subject.as_int() {
                    Some(v) => match b.ints.get(s) {
                        Some(&prev) => prev == v,
                        None => {
                            b.ints.insert(s.clone(), v);
                            true
                        }
                    },
                    None => false,
                }
            } else if first.is_ascii_uppercase() {
                if !matches!(subject, Sexp::List(_)) {
                    return false;
                }
                match b.formulas.get(s) {
                    Some(prev) => prev == subject,
                    None => {
                        b.formulas.insert(s.clone(), subject.clone());
                        true
                    }
                }
            } else {
                false
            }
        }
        Sexp::Symbol(s) => matches!(subject, Sexp::Symbol(t) if t == s),
        Sexp::Int(v) => subject.as_int() == Some(*v),
        Sexp::Scalar(_) => pattern == subject,
        Sexp::List(ps) => match subject {
            Sexp::List(ss) if ss.len() == ps.len() => {
                ps.iter().zip(ss).all(|(p, s)| match_pattern(p, s, b))
            }
            _ => false,
        },
    }
}

/// Statically evaluates a template expression to an integer, in a context
/// with no loop variables (conditions, loop bounds, constant parameters).
///
/// # Errors
///
/// Fails for expressions that are not compile-time integers (register
/// reads, vector elements, floats, intrinsics).
pub fn static_eval(e: &TExpr, b: &Bindings, table: &TemplateTable) -> Result<i64, ExpandError> {
    match e {
        TExpr::Int(v) => Ok(*v),
        TExpr::PatVar(name) => b.ints.get(name).copied().ok_or_else(|| {
            ExpandError::Invalid(format!("unbound integer pattern variable {name}"))
        }),
        TExpr::Prop(name, prop) => {
            let f = b.formulas.get(name).ok_or_else(|| {
                ExpandError::Invalid(format!("unbound formula pattern variable {name}"))
            })?;
            let (rows, cols) = shape_of(f, table)?;
            Ok(match prop {
                SizeProp::InSize => cols as i64,
                SizeProp::OutSize => rows as i64,
            })
        }
        TExpr::Un(TUnOp::Neg, inner) => Ok(-static_eval(inner, b, table)?),
        TExpr::Bin(op, x, y) => {
            let x = static_eval(x, b, table)?;
            let y = static_eval(y, b, table)?;
            Ok(match op {
                TBinOp::Add => x + y,
                TBinOp::Sub => x - y,
                TBinOp::Mul => x * y,
                TBinOp::Div => {
                    if y == 0 {
                        return Err(ExpandError::Invalid("division by zero in template".into()));
                    }
                    x / y
                }
                TBinOp::Mod => {
                    if y == 0 {
                        return Err(ExpandError::Invalid("modulo by zero in template".into()));
                    }
                    x % y
                }
            })
        }
        other => Err(ExpandError::Invalid(format!(
            "expression {other} is not a compile-time integer"
        ))),
    }
}

/// Evaluates a template condition under the bindings.
///
/// # Errors
///
/// Propagates [`static_eval`] failures.
pub fn eval_cond(c: &CondExpr, b: &Bindings, table: &TemplateTable) -> Result<bool, ExpandError> {
    Ok(match c {
        CondExpr::Cmp(op, x, y) => {
            let x = static_eval(x, b, table)?;
            let y = static_eval(y, b, table)?;
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        CondExpr::And(a, c2) => eval_cond(a, b, table)? && eval_cond(c2, b, table)?,
        CondExpr::Or(a, c2) => eval_cond(a, b, table)? || eval_cond(c2, b, table)?,
        CondExpr::Not(a) => !eval_cond(a, b, table)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_frontend::parser::parse_formula;

    fn pat(src: &str) -> Sexp {
        parse_formula(src).unwrap()
    }

    #[test]
    fn int_var_matches_integers_only() {
        let mut b = Bindings::default();
        assert!(match_pattern(&pat("(I n_)"), &pat("(I 4)"), &mut b));
        assert_eq!(b.ints["n_"], 4);
        let mut b = Bindings::default();
        assert!(!match_pattern(&pat("(I n_)"), &pat("(I m)"), &mut b));
    }

    #[test]
    fn formula_var_matches_lists_only() {
        let mut b = Bindings::default();
        assert!(match_pattern(
            &pat("(compose X_ Y_)"),
            &pat("(compose (F 2) (I 3))"),
            &mut b
        ));
        assert_eq!(b.formulas["X_"], pat("(F 2)"));
        // Cannot match an undefined bare symbol (paper Section 3.2).
        let mut b = Bindings::default();
        assert!(!match_pattern(
            &pat("(compose X_ Y_)"),
            &pat("(compose A (I 3))"),
            &mut b
        ));
        // Cannot match an integer.
        let mut b = Bindings::default();
        assert!(!match_pattern(&pat("(foo X_)"), &pat("(foo 3)"), &mut b));
    }

    #[test]
    fn nested_pattern() {
        let mut b = Bindings::default();
        assert!(match_pattern(
            &pat("(tensor (I m_) A_)"),
            &pat("(tensor (I 8) (F 2))"),
            &mut b
        ));
        assert_eq!(b.ints["m_"], 8);
        assert_eq!(b.formulas["A_"], pat("(F 2)"));
    }

    #[test]
    fn repeated_variable_must_agree() {
        let mut b = Bindings::default();
        assert!(match_pattern(
            &pat("(foo n_ n_)"),
            &pat("(foo 3 3)"),
            &mut b
        ));
        let mut b = Bindings::default();
        assert!(!match_pattern(
            &pat("(foo n_ n_)"),
            &pat("(foo 3 4)"),
            &mut b
        ));
    }

    #[test]
    fn literal_integers_in_patterns() {
        let mut b = Bindings::default();
        assert!(match_pattern(&pat("(F 2)"), &pat("(F 2)"), &mut b));
        assert!(!match_pattern(&pat("(F 2)"), &pat("(F 4)"), &mut b));
    }

    #[test]
    fn newest_template_wins() {
        use spl_frontend::parser::parse_program;
        let src = "\
(template (F n_) ($f0 = 0))
(template (F 2) ($f1 = 1))
";
        let prog = parse_program(src).unwrap();
        let mut table = TemplateTable::new();
        for item in prog.items {
            if let spl_frontend::Item::Template(t) = item {
                table.add(t);
            }
        }
        let (def, _) = table.find(&pat("(F 2)")).unwrap().unwrap();
        assert_eq!(def.pattern.to_string(), "(F 2)");
        let (def, b) = table.find(&pat("(F 8)")).unwrap().unwrap();
        assert_eq!(def.pattern.to_string(), "(F n_)");
        assert_eq!(b.ints["n_"], 8);
    }

    #[test]
    fn condition_filters_matches() {
        use spl_frontend::parser::parse_program;
        let src = "(template (L m_ n_) [m_==2*n_] ($f0 = 0))";
        let prog = parse_program(src).unwrap();
        let mut table = TemplateTable::new();
        for item in prog.items {
            if let spl_frontend::Item::Template(t) = item {
                table.add(t);
            }
        }
        // The paper's example: matches (L 4 2) but not (L 4 1).
        assert!(table.find(&pat("(L 4 2)")).unwrap().is_some());
        assert!(table.find(&pat("(L 4 1)")).unwrap().is_none());
    }

    #[test]
    fn condition_with_size_properties() {
        use spl_frontend::parser::parse_program;
        let src = "(template (compose A_ B_) [A_.in_size == B_.out_size] ($f0 = 0))";
        let prog = parse_program(src).unwrap();
        let mut table = TemplateTable::builtin();
        for item in prog.items {
            if let spl_frontend::Item::Template(t) = item {
                table.add(t);
            }
        }
        assert!(table.find(&pat("(compose (F 2) (F 2))")).unwrap().is_some());
    }

    #[test]
    fn condition_errors_fall_through_to_older_templates() {
        use spl_frontend::parser::parse_program;
        // An override whose condition needs the shape of a formula the
        // shape engine cannot size must not break the built-in (F n_).
        let src = "(template (F X_) [X_.in_size==2] ($f0 = 0))";
        let prog = parse_program(src).unwrap();
        let mut table = TemplateTable::builtin();
        for item in prog.items {
            if let spl_frontend::Item::Template(t) = item {
                table.add(t);
            }
        }
        // (F 4): the override's pattern matches nothing here (4 is an
        // int, X_ wants a formula), so the builtin applies normally.
        let (def, _) = table.find(&pat("(F 4)")).unwrap().unwrap();
        assert_eq!(def.pattern.to_string(), "(F n_)");
    }

    #[test]
    fn static_eval_arithmetic() {
        let mut b = Bindings::default();
        b.ints.insert("n_".into(), 6);
        let t = TemplateTable::new();
        let e = TExpr::Bin(
            TBinOp::Sub,
            Box::new(TExpr::Bin(
                TBinOp::Div,
                Box::new(TExpr::PatVar("n_".into())),
                Box::new(TExpr::Int(2)),
            )),
            Box::new(TExpr::Int(1)),
        );
        assert_eq!(static_eval(&e, &b, &t).unwrap(), 2);
    }

    #[test]
    fn static_eval_rejects_runtime_values() {
        let b = Bindings::default();
        let t = TemplateTable::new();
        assert!(static_eval(&TExpr::Var("f0".into()), &b, &t).is_err());
    }
}

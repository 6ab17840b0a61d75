//! FFT breakdown rules and factorization-tree enumeration.

use spl_formula::{formula_to_sexp, Formula};
use spl_frontend::sexp::Sexp;

/// Which identity splits a node (paper Equations 5, 7, 8, 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Eq. 5 (decimation in time):
    /// `F_rs = (F_r ⊗ I_s) T^{rs}_s (I_r ⊗ F_s) L^{rs}_r`.
    CooleyTukey,
    /// Eq. 7 (decimation in frequency):
    /// `F_rs = L^{rs}_s (I_r ⊗ F_s) T^{rs}_s (F_r ⊗ I_s)`.
    DecimationInFrequency,
    /// Eq. 8 (parallel form — every compute stage is `I ⊗ F`):
    /// `F_rs = L^{rs}_r (I_s ⊗ F_r) L^{rs}_s T^{rs}_s (I_r ⊗ F_s) L^{rs}_r`.
    Parallel,
    /// Eq. 9 (vector form — every compute stage is `F ⊗ I`):
    /// `F_rs = (F_r ⊗ I_s) T^{rs}_s L^{rs}_r (F_s ⊗ I_r)`.
    Vector,
}

/// All four rules, for sweeps.
pub const ALL_RULES: [Rule; 4] = [
    Rule::CooleyTukey,
    Rule::DecimationInFrequency,
    Rule::Parallel,
    Rule::Vector,
];

/// A binary factorization tree for `F_n`.
///
/// A [`FftTree::Leaf`] denotes `F_n` computed by definition (for `n = 2`,
/// the butterfly). A node splits `n = r·s` by one of the [`Rule`]s, with
/// subtrees for `F_r` and `F_s`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FftTree {
    /// `F_n` by definition.
    Leaf(usize),
    /// A split `n = left.size() * right.size()`.
    Node {
        /// The breakdown rule.
        rule: Rule,
        /// The `F_r` subtree.
        left: Box<FftTree>,
        /// The `F_s` subtree.
        right: Box<FftTree>,
    },
}

impl FftTree {
    /// A leaf of the given size.
    pub fn leaf(n: usize) -> FftTree {
        FftTree::Leaf(n)
    }

    /// A split node.
    pub fn node(rule: Rule, left: FftTree, right: FftTree) -> FftTree {
        FftTree::Node {
            rule,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// The transform size this tree computes.
    pub fn size(&self) -> usize {
        match self {
            FftTree::Leaf(n) => *n,
            FftTree::Node { left, right, .. } => left.size() * right.size(),
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            FftTree::Leaf(_) => 1,
            FftTree::Node { left, right, .. } => left.leaf_count() + right.leaf_count(),
        }
    }

    /// Elaborates the tree into a typed formula.
    pub fn to_formula(&self) -> Formula {
        match self {
            FftTree::Leaf(n) => Formula::f(*n),
            FftTree::Node { rule, left, right } => {
                let r = left.size();
                let s = right.size();
                let n = r * s;
                let fr = left.to_formula();
                let fs = right.to_formula();
                let t_s = Formula::twiddle(n, s).expect("s divides n");
                let l = |stride: usize| Formula::stride(n, stride).expect("divides n");
                match rule {
                    Rule::CooleyTukey => Formula::compose(vec![
                        Formula::tensor(vec![fr, Formula::identity(s)]),
                        t_s,
                        Formula::tensor(vec![Formula::identity(r), fs]),
                        l(r),
                    ]),
                    Rule::DecimationInFrequency => Formula::compose(vec![
                        l(s),
                        Formula::tensor(vec![Formula::identity(r), fs]),
                        t_s,
                        Formula::tensor(vec![fr, Formula::identity(s)]),
                    ]),
                    Rule::Parallel => Formula::compose(vec![
                        l(r),
                        Formula::tensor(vec![Formula::identity(s), fr]),
                        l(s),
                        t_s,
                        Formula::tensor(vec![Formula::identity(r), fs]),
                        l(r),
                    ]),
                    Rule::Vector => Formula::compose(vec![
                        Formula::tensor(vec![fr, Formula::identity(s)]),
                        t_s,
                        l(r),
                        Formula::tensor(vec![fs, Formula::identity(r)]),
                    ]),
                }
            }
        }
    }

    /// Elaborates the tree into an S-expression for the compiler.
    pub fn to_sexp(&self) -> Sexp {
        formula_to_sexp(&self.to_formula())
    }

    /// A compact description of the tree shape, e.g. `((2x2)x2)`.
    pub fn describe(&self) -> String {
        match self {
            FftTree::Leaf(n) => n.to_string(),
            FftTree::Node { left, right, .. } => {
                format!("({}x{})", left.describe(), right.describe())
            }
        }
    }
}

/// The right-most factor-sequence instance of the general rule (Eq. 10):
/// `F_{n₁·…·n_t}` split as `n₁ × (n₂ × (…))` with the given rule at every
/// level. With all factors 2 this is the iterative radix-2 FFT; with two
/// factors it is plain Cooley–Tukey.
///
/// # Panics
///
/// Panics if `factors` is empty or contains a factor below 2.
pub fn ct_sequence(factors: &[usize], rule: Rule) -> FftTree {
    assert!(!factors.is_empty(), "ct_sequence: empty factor list");
    assert!(
        factors.iter().all(|&f| f >= 2),
        "ct_sequence: factors must be at least 2"
    );
    let mut it = factors.iter().rev();
    let mut tree = FftTree::leaf(*it.next().unwrap());
    for &f in it {
        tree = FftTree::node(rule, FftTree::leaf(f), tree);
    }
    tree
}

/// Enumerates *all* binary Cooley–Tukey factorization trees of `F_{2^k}`
/// over the given rule, with the naive-definition leaf admitted at every
/// size (the space the paper's Figure 2 draws its 45 formulas from).
///
/// The count follows `C(1) = 1`, `C(k) = 1 + Σ_{i=1}^{k-1} C(i)·C(k-i)`:
/// 1, 2, 5, 15, 51, ...
pub fn enumerate_trees(k: u32, rule: Rule) -> Vec<FftTree> {
    fn rec(k: u32, rule: Rule, memo: &mut Vec<Option<Vec<FftTree>>>) -> Vec<FftTree> {
        if let Some(v) = &memo[k as usize] {
            return v.clone();
        }
        let mut out = vec![FftTree::leaf(1 << k)];
        for i in 1..k {
            for l in rec(i, rule, memo) {
                for r in rec(k - i, rule, memo) {
                    out.push(FftTree::node(rule, l.clone(), r));
                }
            }
        }
        memo[k as usize] = Some(out.clone());
        out
    }
    assert!(k >= 1, "enumerate_trees: k must be at least 1");
    let mut memo = vec![None; k as usize + 1];
    rec(k, rule, &mut memo)
}

/// An error parsing a tree spec (see [`FftTree::from_spec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad tree spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl FftTree {
    /// A compact textual spec that round-trips through
    /// [`FftTree::from_spec`] — the basis of the search's "wisdom" files
    /// (FFTW lets users save plans and reuse them in later sessions;
    /// paper Section 4.2).
    ///
    /// Grammar: a leaf is its size; a node is `(R left right)` with `R`
    /// one of `ct`, `dif`, `par`, `vec`.
    pub fn to_spec(&self) -> String {
        match self {
            FftTree::Leaf(n) => n.to_string(),
            FftTree::Node { rule, left, right } => {
                let r = match rule {
                    Rule::CooleyTukey => "ct",
                    Rule::DecimationInFrequency => "dif",
                    Rule::Parallel => "par",
                    Rule::Vector => "vec",
                };
                format!("({r} {} {})", left.to_spec(), right.to_spec())
            }
        }
    }

    /// Parses a spec produced by [`FftTree::to_spec`].
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed input.
    pub fn from_spec(s: &str) -> Result<FftTree, SpecError> {
        let tokens: Vec<String> = s
            .replace('(', " ( ")
            .replace(')', " ) ")
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let mut pos = 0;
        let tree = parse_spec(&tokens, &mut pos)?;
        if pos != tokens.len() {
            return Err(SpecError(format!("trailing input in {s:?}")));
        }
        Ok(tree)
    }
}

fn parse_spec(tokens: &[String], pos: &mut usize) -> Result<FftTree, SpecError> {
    let tok = tokens
        .get(*pos)
        .ok_or_else(|| SpecError("unexpected end".into()))?;
    if tok == "(" {
        *pos += 1;
        let rule = match tokens.get(*pos).map(String::as_str) {
            Some("ct") => Rule::CooleyTukey,
            Some("dif") => Rule::DecimationInFrequency,
            Some("par") => Rule::Parallel,
            Some("vec") => Rule::Vector,
            other => return Err(SpecError(format!("unknown rule {other:?}"))),
        };
        *pos += 1;
        let left = parse_spec(tokens, pos)?;
        let right = parse_spec(tokens, pos)?;
        match tokens.get(*pos).map(String::as_str) {
            Some(")") => {
                *pos += 1;
                Ok(FftTree::node(rule, left, right))
            }
            other => Err(SpecError(format!("expected ')', got {other:?}"))),
        }
    } else {
        let n: usize = tok
            .parse()
            .map_err(|_| SpecError(format!("expected a size, got {tok:?}")))?;
        if n < 2 {
            return Err(SpecError(format!("leaf size {n} below 2")));
        }
        *pos += 1;
        Ok(FftTree::leaf(n))
    }
}

/// The candidate `(r, s)` splits for a *right-most* factorization of
/// `F_n` (the restriction the paper applies for large sizes: when
/// `n = r·s`, only the second factor may be factored further), with the
/// left factor bounded by `max_leaf`.
pub fn rightmost_splits(n: usize, max_leaf: usize) -> Vec<(usize, usize)> {
    (2..=max_leaf.min(n / 2))
        .filter(|r| n.is_multiple_of(*r))
        .map(|r| (r, n / r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_formula::dense::to_dense;
    use spl_numeric::Complex;

    fn check_is_dft(tree: &FftTree) {
        let n = tree.size();
        let lhs = to_dense(&tree.to_formula()).unwrap();
        let rhs = to_dense(&Formula::f(n)).unwrap();
        assert!(
            lhs.max_diff(&rhs) < 1e-10,
            "{} (size {n}) is not the DFT",
            tree.describe()
        );
    }

    #[test]
    fn paper_f4_tree() {
        let t = FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2));
        check_is_dft(&t);
    }

    #[test]
    fn all_rules_are_correct_factorizations() {
        for rule in ALL_RULES {
            for (r, s) in [(2usize, 2usize), (2, 4), (4, 2), (2, 8)] {
                let t = FftTree::node(rule, FftTree::leaf(r), FftTree::leaf(s));
                check_is_dft(&t);
            }
        }
    }

    #[test]
    fn nested_mixed_rules() {
        let f4 = FftTree::node(Rule::Vector, FftTree::leaf(2), FftTree::leaf(2));
        let f8 = FftTree::node(Rule::DecimationInFrequency, f4.clone(), FftTree::leaf(2));
        let f16 = FftTree::node(Rule::Parallel, FftTree::leaf(2), f8);
        check_is_dft(&f16);
        assert_eq!(f16.size(), 16);
        assert_eq!(f16.leaf_count(), 4);
    }

    #[test]
    fn ct_sequence_matches_dft() {
        for factors in [vec![2usize, 2, 2], vec![2, 4], vec![4, 2], vec![2, 2, 2, 2]] {
            let t = ct_sequence(&factors, Rule::CooleyTukey);
            assert_eq!(t.size(), factors.iter().product::<usize>());
            check_is_dft(&t);
        }
    }

    #[test]
    fn enumeration_counts() {
        assert_eq!(enumerate_trees(1, Rule::CooleyTukey).len(), 1);
        assert_eq!(enumerate_trees(2, Rule::CooleyTukey).len(), 2);
        assert_eq!(enumerate_trees(3, Rule::CooleyTukey).len(), 5);
        assert_eq!(enumerate_trees(4, Rule::CooleyTukey).len(), 15);
        assert_eq!(enumerate_trees(5, Rule::CooleyTukey).len(), 51);
    }

    #[test]
    fn enumerated_trees_are_distinct_and_correct() {
        let trees = enumerate_trees(4, Rule::CooleyTukey);
        for t in &trees {
            assert_eq!(t.size(), 16);
            check_is_dft(t);
        }
        let shapes: std::collections::HashSet<String> =
            trees.iter().map(FftTree::describe).collect();
        assert_eq!(shapes.len(), trees.len(), "trees must be distinct");
    }

    #[test]
    fn to_sexp_prints_paper_formula() {
        let t = FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2));
        assert_eq!(
            t.to_sexp().to_string(),
            "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))"
        );
    }

    #[test]
    fn spec_round_trips() {
        let trees = [
            FftTree::leaf(8),
            ct_sequence(&[2, 4, 8], Rule::CooleyTukey),
            FftTree::node(
                Rule::Parallel,
                FftTree::node(Rule::Vector, FftTree::leaf(2), FftTree::leaf(4)),
                FftTree::node(
                    Rule::DecimationInFrequency,
                    FftTree::leaf(2),
                    FftTree::leaf(2),
                ),
            ),
        ];
        for t in trees {
            let spec = t.to_spec();
            let back = FftTree::from_spec(&spec).unwrap();
            assert_eq!(back, t, "{spec}");
        }
    }

    #[test]
    fn bad_specs_rejected() {
        for s in ["", "(ct 2", "(xx 2 2)", "(ct 2 2) 3", "1", "(ct 2 2 2)"] {
            assert!(FftTree::from_spec(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn fft_2d_matches_row_column_reference() {
        use spl_numeric::reference;
        let rows = ct_sequence(&[2, 2], Rule::CooleyTukey);
        let cols = ct_sequence(&[2, 4], Rule::CooleyTukey);
        // The row–column algorithm is the tensor product F_rows ⊗ F_cols,
        // each factor computed by its own factorization tree.
        let f = Formula::tensor(vec![rows.to_formula(), cols.to_formula()]);
        assert_eq!((f.rows(), f.cols()), (32, 32));
        // Row-major 4x8 grid.
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.21).sin(), (i as f64 * 0.43).cos()))
            .collect();
        let got = spl_formula::dense::apply(&f, &x).unwrap();
        // Reference: DFT each row, then DFT each column.
        let (m, n) = (4usize, 8usize);
        let mut mid = vec![Complex::ZERO; 32];
        for r in 0..m {
            let row = reference::dft(&x[r * n..(r + 1) * n]);
            mid[r * n..(r + 1) * n].copy_from_slice(&row);
        }
        let mut want = vec![Complex::ZERO; 32];
        for c in 0..n {
            let col: Vec<Complex> = (0..m).map(|r| mid[r * n + c]).collect();
            let out = reference::dft(&col);
            for (r, v) in out.into_iter().enumerate() {
                want[r * n + c] = v;
            }
        }
        for (a, b) in got.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-11), "{a} vs {b}");
        }
    }

    #[test]
    fn rightmost_splits_cover_divisors() {
        assert_eq!(
            rightmost_splits(128, 64),
            vec![(2, 64), (4, 32), (8, 16), (16, 8), (32, 4), (64, 2)]
        );
        assert_eq!(rightmost_splits(4, 64), vec![(2, 2)]);
        assert_eq!(rightmost_splits(12, 3), vec![(2, 6), (3, 4)]);
    }

    #[test]
    fn apply_tree_gives_dft_result() {
        let t = ct_sequence(&[2, 2, 2, 2], Rule::CooleyTukey);
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let y = spl_formula::dense::apply(&t.to_formula(), &x).unwrap();
        let want = spl_numeric::reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-11));
        }
    }

    #[test]
    #[should_panic(expected = "factors must be at least 2")]
    fn bad_factor_panics() {
        ct_sequence(&[2, 1], Rule::CooleyTukey);
    }
}

//! The analytic cost model behind [`PlanMode::Estimate`].
//!
//! FFTW's estimate mode ranks plans without running them; ours charges
//! floating-point work plus penalties for strided access (which grows
//! with the left radix, punishing cache-hostile column passes) and for
//! recursion overhead. The constants are deliberately crude — the paper's
//! Figure 4 shows `FFTW estimate` losing to measured plans, and that gap
//! is exactly what a crude model reproduces.
//!
//! [`PlanMode::Estimate`]: crate::planner::PlanMode::Estimate

use crate::planner::PlanNode;

/// Flops charged per `n log2 n` point of a codelet.
const FLOP: f64 = 5.0;
/// Fixed overhead per codelet invocation.
const CODELET_OVERHEAD: f64 = 8.0;
/// Twiddle-multiply cost per point of a split.
const TWIDDLE: f64 = 6.0;
/// Strided-access penalty per point per `log2(radix)`.
const STRIDE: f64 = 0.75;

/// Modeled cost (arbitrary units, comparable across candidates of the
/// same size) of executing a plan node once.
pub fn node_cost(node: &PlanNode) -> f64 {
    match node {
        PlanNode::Leaf(c) => codelet_cost(c.n()),
        PlanNode::Split { r, s, child, .. } => {
            let n = (r * s) as f64;
            let child_cost = node_cost(child);
            // r recursions over the child + s column transforms of size
            // r + twiddle multiplies + strided-access penalty.
            (*r as f64) * child_cost
                + (*s as f64) * codelet_cost(*r)
                + TWIDDLE * n
                + stride_penalty(*r) * n
        }
    }
}

/// Modeled codelet cost: ~`FLOP · n log2 n` with a small constant
/// overhead per invocation.
pub fn codelet_cost(n: usize) -> f64 {
    let nf = n as f64;
    FLOP * nf * nf.log2() + CODELET_OVERHEAD
}

/// Extra cost per point for gathering a column at stride `r`.
fn stride_penalty(r: usize) -> f64 {
    STRIDE * (r as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::Codelet;
    use crate::planner::PlanMode;

    #[test]
    fn codelet_cost_grows() {
        assert!(codelet_cost(4) < codelet_cost(8));
        assert!(codelet_cost(32) < codelet_cost(64));
    }

    #[test]
    fn leaf_cheaper_than_needless_split_at_codelet_sizes() {
        // For n = 64 a direct codelet must beat a (2, 32) split.
        let leaf = PlanNode::Leaf(Codelet::new(64));
        let split = PlanNode::Split {
            r: 2,
            s: 32,
            codelet: Codelet::new(2),
            twiddles: vec![0.0; 128],
            child: std::rc::Rc::new(PlanNode::Leaf(Codelet::new(32))),
        };
        assert!(node_cost(&leaf) < node_cost(&split));
    }

    #[test]
    fn estimate_planner_picks_codelets_at_small_sizes() {
        for n in [16usize, 32, 64] {
            let plan = crate::planner::Plan::new(n, PlanMode::Estimate);
            assert_eq!(plan.describe(), n.to_string(), "n={n}");
        }
    }
}

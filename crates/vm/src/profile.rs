//! Profiled-execution reports for the resolved engine.
//!
//! [`crate::VmProgram::run_profiled`] executes a resolved program
//! through the executor `run` uses, compiled over a probe that records
//! instead of one that does nothing, and returns a [`VmProfile`]:
//! dynamic per-op-class counts, flop counts, fused-macro-op
//! utilization, per-loop-block iteration and wall-time figures, and —
//! when the program carries formula-node provenance — per-node self
//! time, ops, and flops. The op classes are the discriminants of the
//! engine's float kinds (`resolved::Arith`), the four integer ops, and
//! the float kinds again for their lane-wide form.
//!
//! Node attribution uses *telescoping* timestamps: the clock is read
//! only when execution crosses from one formula node to another, and
//! each interval is credited in full to exactly one node. Self times
//! therefore sum exactly to [`VmProfile::total_ns`] by construction.

use spl_icode::ProvNode;
use spl_telemetry::json::Json;
use spl_telemetry::Telemetry;

/// Number of dynamic op classes the profiler distinguishes.
pub const N_OP_CLASSES: usize = 24;

/// First slot of the vector (lane-wide) op classes; `v<name>` at
/// `VEC_CLASS_BASE + k` is the lane-wide counterpart of the scalar
/// class at slot `k`.
pub const VEC_CLASS_BASE: usize = 14;

/// Op-class slot names, indexing [`VmProfile::op_counts`].
pub const OP_CLASS_NAMES: [&str; N_OP_CLASSES] = [
    "add",
    "sub",
    "mul",
    "div",
    "copy",
    "neg",
    "muladd",
    "mulsub",
    "negmuladd",
    "butterfly",
    "r_to_cell",
    "loop_to_cell",
    "int_bin",
    "int_un",
    "vadd",
    "vsub",
    "vmul",
    "vdiv",
    "vcopy",
    "vneg",
    "vmuladd",
    "vmulsub",
    "vnegmuladd",
    "vbutterfly",
];

/// Floating-point operations contributed by one counted execution of
/// each op class (a fused multiply–add counts 2, a butterfly 2, a
/// copy 0). Vector classes are counted *per lane* — one count per
/// iteration covered — so their per-count flop weights equal the
/// scalar ones and run totals match scalar execution exactly.
pub const OP_CLASS_FLOPS: [u64; N_OP_CLASSES] = [
    1, 1, 1, 1, 0, 1, 2, 2, 2, 2, 0, 0, 0, 0, // scalar
    1, 1, 1, 1, 0, 1, 2, 2, 2, 2, // vector (per lane)
];

/// Slots of the fused macro-op classes (muladd family + butterfly).
const FUSED_CLASSES: std::ops::Range<usize> = 6..10;
/// Slots of all float-arithmetic classes (scalar + fused).
const FLOAT_CLASSES: std::ops::Range<usize> = 0..10;
/// Slots of the lane-wide op classes.
const VEC_CLASSES: std::ops::Range<usize> = VEC_CLASS_BASE..N_OP_CLASSES;
/// Slots of the lane-wide fused classes (vmuladd family +
/// vbutterfly).
const VEC_FUSED_CLASSES: std::ops::Range<usize> = VEC_CLASS_BASE + 6..VEC_CLASS_BASE + 10;

/// Cost attributed to one formula node (self figures only; see
/// [`VmProfile::inclusive_ns`] for subtree rollups).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCost {
    /// The formula fragment this node was expanded from.
    pub label: String,
    /// Parent node id (`None` at the formula root).
    pub parent: Option<u32>,
    /// Wall time spent in ops attributed to this node, excluding
    /// descendants.
    pub self_ns: u128,
    /// Floating-point operations executed under this node.
    pub flops: u64,
    /// Resolved ops executed under this node.
    pub ops: u64,
}

/// Dynamic figures for one loop block of the resolved program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBlock {
    /// Resolved-node index of the loop header.
    pub node: u32,
    /// Nesting depth (0 = outermost).
    pub depth: u32,
    /// Times the header was reached.
    pub entries: u64,
    /// Total body executions across all entries.
    pub iterations: u64,
    /// Inclusive wall time across all entries (contains inner loops).
    pub wall_ns: u128,
}

/// A profiled-execution report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmProfile {
    /// Total instrumented wall time: the telescoped interval from the
    /// first op to the last (node self times sum to exactly this).
    pub total_ns: u128,
    /// Time not attributable to any formula node (programs without
    /// provenance put everything here).
    pub unattributed_ns: u128,
    /// Dynamic execution count per op class, indexed like
    /// [`OP_CLASS_NAMES`].
    pub op_counts: [u64; N_OP_CLASSES],
    /// Per-formula-node costs, indexed by provenance id.
    pub nodes: Vec<NodeCost>,
    /// Per-loop-block figures, outermost first in program order.
    pub loops: Vec<LoopBlock>,
}

impl VmProfile {
    /// Total floating-point operations executed.
    pub fn flops(&self) -> u64 {
        self.op_counts
            .iter()
            .zip(OP_CLASS_FLOPS)
            .map(|(&c, w)| c * w)
            .sum()
    }

    /// Dynamic float-arithmetic macro-ops executed (fused ops count
    /// once each; vector classes count one per lane, i.e. per covered
    /// iteration, so this total is width-independent).
    pub fn float_ops(&self) -> u64 {
        self.op_counts[FLOAT_CLASSES].iter().sum::<u64>()
            + self.op_counts[VEC_CLASSES].iter().sum::<u64>()
    }

    /// Dynamic fused macro-ops executed (multiply–add family and
    /// butterflies, scalar and lane-wide).
    pub fn fused_ops(&self) -> u64 {
        self.op_counts[FUSED_CLASSES].iter().sum::<u64>()
            + self.op_counts[VEC_FUSED_CLASSES].iter().sum::<u64>()
    }

    /// Dynamic lane-ops executed through vector plans (one per
    /// iteration each lane-wide macro-op covered).
    pub fn vector_lane_ops(&self) -> u64 {
        self.op_counts[VEC_CLASSES].iter().sum()
    }

    /// Fraction of executed float macro-ops that ran lane-wide, in
    /// `0.0..=1.0` (0 when no float ops ran).
    pub fn vector_utilization(&self) -> f64 {
        let total = self.float_ops();
        if total == 0 {
            0.0
        } else {
            self.vector_lane_ops() as f64 / total as f64
        }
    }

    /// Fraction of executed float macro-ops that are fused, in
    /// `0.0..=1.0` (0 when no float ops ran).
    pub fn fused_utilization(&self) -> f64 {
        let total = self.float_ops();
        if total == 0 {
            0.0
        } else {
            self.fused_ops() as f64 / total as f64
        }
    }

    /// Wall time attributed to formula nodes (total minus
    /// unattributed).
    pub fn attributed_ns(&self) -> u128 {
        self.total_ns - self.unattributed_ns
    }

    /// Inclusive per-node wall time: each node's self time plus all
    /// its descendants', indexed by provenance id. Children always
    /// have larger ids than their parents (expansion order), so one
    /// reverse sweep suffices.
    pub fn inclusive_ns(&self) -> Vec<u128> {
        let mut incl: Vec<u128> = self.nodes.iter().map(|n| n.self_ns).collect();
        for id in (0..self.nodes.len()).rev() {
            if let Some(p) = self.nodes[id].parent {
                incl[p as usize] += incl[id];
            }
        }
        incl
    }

    /// Records summary figures into a telemetry sink under `prof.*`.
    pub fn record(&self, tel: &mut Telemetry) {
        tel.add("prof.ops", self.op_counts.iter().sum::<u64>());
        tel.add("prof.float_ops", self.float_ops());
        tel.add("prof.fused_ops", self.fused_ops());
        tel.add("prof.vec_lane_ops", self.vector_lane_ops());
        tel.add("prof.flops", self.flops());
        tel.add(
            "prof.wall_ns",
            u64::try_from(self.total_ns).unwrap_or(u64::MAX),
        );
        tel.add(
            "prof.unattributed_ns",
            u64::try_from(self.unattributed_ns).unwrap_or(u64::MAX),
        );
        tel.add("prof.nodes", self.nodes.len() as u64);
        tel.add("prof.loops", self.loops.len() as u64);
        tel.set_metric("prof.fused_utilization", self.fused_utilization());
        tel.set_metric("prof.vec_utilization", self.vector_utilization());
    }

    /// The full report as JSON.
    pub fn to_json(&self) -> Json {
        let incl = self.inclusive_ns();
        let op_counts = Json::Obj(
            OP_CLASS_NAMES
                .iter()
                .zip(self.op_counts)
                .filter(|&(_, c)| c > 0)
                .map(|(&n, c)| (n.to_string(), Json::Num(c as f64)))
                .collect(),
        );
        let nodes = Json::Arr(
            self.nodes
                .iter()
                .enumerate()
                .map(|(id, n)| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("label", Json::Str(n.label.clone())),
                        (
                            "parent",
                            n.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_ns", Json::Num(n.self_ns as f64)),
                        ("incl_ns", Json::Num(incl[id] as f64)),
                        ("flops", Json::Num(n.flops as f64)),
                        ("ops", Json::Num(n.ops as f64)),
                    ])
                })
                .collect(),
        );
        let loops = Json::Arr(
            self.loops
                .iter()
                .map(|l| {
                    Json::obj(vec![
                        ("node", Json::Num(l.node as f64)),
                        ("depth", Json::Num(l.depth as f64)),
                        ("entries", Json::Num(l.entries as f64)),
                        ("iterations", Json::Num(l.iterations as f64)),
                        ("wall_ns", Json::Num(l.wall_ns as f64)),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("total_ns", Json::Num(self.total_ns as f64)),
            ("unattributed_ns", Json::Num(self.unattributed_ns as f64)),
            ("flops", Json::Num(self.flops() as f64)),
            ("float_ops", Json::Num(self.float_ops() as f64)),
            ("fused_ops", Json::Num(self.fused_ops() as f64)),
            ("fused_utilization", Json::Num(self.fused_utilization())),
            ("vec_lane_ops", Json::Num(self.vector_lane_ops() as f64)),
            ("vec_utilization", Json::Num(self.vector_utilization())),
            ("op_counts", op_counts),
            ("nodes", nodes),
            ("loops", loops),
        ])
    }
}

/// Builds the node-cost table from raw per-id accumulators and the
/// provenance node table (crate-internal; called by the profiling
/// probe).
pub(crate) fn build_nodes(
    prov_nodes: &[ProvNode],
    self_ns: &[u128],
    flops: &[u64],
    ops: &[u64],
) -> Vec<NodeCost> {
    prov_nodes
        .iter()
        .enumerate()
        .map(|(id, pn)| NodeCost {
            label: pn.label.clone(),
            parent: (pn.parent != ProvNode::ROOT).then_some(pn.parent),
            self_ns: self_ns.get(id).copied().unwrap_or(0),
            flops: flops.get(id).copied().unwrap_or(0),
            ops: ops.get(id).copied().unwrap_or(0),
        })
        .collect()
}

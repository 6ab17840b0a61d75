//! The resolved execution engine: peephole fusion + loop strength
//! reduction over the flat VM program.
//!
//! [`resolve`] lowers a [`VmProgram`]'s op list one stage further than
//! [`crate::lower`]:
//!
//! 1. **Fusion** (peephole, in source order): negate folding
//!    (`t = -s; d = x ± t` becomes a single add/sub), multiply–add
//!    fusion (`t = a·b; d = t ± c` or `d = c − t` becomes one
//!    macro-op), and butterfly pairing (`d1 = a + b; d2 = a − b`
//!    becomes one macro-op that reads each operand once). Every
//!    rewrite preserves the exact sequence of f64 roundings — a
//!    multiply–add is two roundings, never a hardware FMA — so fused
//!    execution is bit-identical to the reference executor.
//! 2. **Addressing decided at resolve time**: every operand is a place
//!    in one unified `f64` arena holding the `$f` registers, constant
//!    tables, immediates, input, output, and temporaries. An op none of
//!    whose operands an enclosing loop moves — all of straight-line
//!    code, and the `$f` interior of a leaf inside a loop — carries the
//!    arena *cells* themselves ([`RNode::Cell`]). Only an op with an
//!    operand some loop steps goes through *cursors*
//!    ([`RNode::Cursor`]): indices into a cursor file that is
//!    initialized once per run (with all loop-invariant address
//!    components folded in) and advanced by precomputed per-loop
//!    strides at each loop latch (loop strength reduction). Either way
//!    the hot path never evaluates an affine subscript and never
//!    dispatches on operand kind: the node's own tag is the form.
//! 3. **Block-structured loops**: counted loops run as native `for`
//!    loops over their body range — trip handling lives outside the
//!    op dispatch entirely, and a loop's parameters live in a side
//!    table ([`LoopNode`]) so that a node is 24 bytes.
//!
//! Programs the resolver cannot prove safe (subscripts referencing
//! out-of-scope loop variables, address ranges that leave their
//! region, arithmetic overflow in stride precomputation) stay
//! unresolved; [`VmProgram::run`] then falls back to the checked
//! reference executor, preserving the old observable behavior.
//!
//! 4. **Vector plans**: the resolver alone decides which loops run
//!    lane-wide. At the end of every innermost loop of at least two
//!    trips it tries to prove, over the resolved nodes, that the
//!    iterations never communicate:
//!    * the body is float ops only — no integer op, spill or nested
//!      loop, so it reads neither `$r` registers nor loop variables;
//!    * every `$f` cell it writes is written before any read
//!      (iteration-private, at most [`MAX_LANE_CELLS`] of them), and
//!      every cell it only reads is a loop-invariant broadcast — a
//!      cell read first and written later is loop-carried;
//!    * every write moves with the loop (stride ≥ 1), and no two
//!      accesses of one region meet one iteration apart. Accesses with
//!      one stride and the same outer terms meet at an exact iteration
//!      distance (`out[2i]` and `out[2i + 1]` never meet; `out[i + 32]`
//!      over 8 trips never does either); any other pair must have
//!      disjoint address ranges over the whole loop nest.
//!
//!    A proved loop gets a [`VecPlan`] — the loop body as lane-wide
//!    macro-ops, and the widest chunk its alias distance allows: the
//!    largest power of two no greater than the nearest iteration
//!    distance at which two of its accesses meet, capped at
//!    [`MAX_VEC_WIDTH`]. A loop that fails (accesses one iteration
//!    apart have no such width) is *demoted*: it runs scalar and counts
//!    in `vm.vec.demoted`. Execution runs a
//!    planned loop down the *width ladder* of the host's backend
//!    ([`crate::simd`]): as many 8-wide chunks as fit, then 4-wide,
//!    then 2-wide, each rung no wider than the plan, and the scalar
//!    body for the last iteration left (and for all of them when the
//!    fallback is forced). So a 2-trip loop and every remainder of two
//!    or more run lane-wide. Vector execution performs the exact same
//!    IEEE-754 operations as scalar execution, so it stays
//!    bit-identical to the reference executor.
//! 5. **Pairing**: last, one linear pass ([`pair_cells`]) over every run
//!    of cell-form nodes joins each op with a later one of the same kind
//!    (or its sub|add twin) into one [`RNode::Pair`] — the real and
//!    imaginary halves of complex arithmetic, mostly — when the later op
//!    can move up beside it: a 64-point block goes from 769 nodes to
//!    438. Both lanes are the scalar op's own expression, so pairing
//!    halves the dispatches and changes no bit.
//!
//! One vocabulary, one executor: the ten float kinds are the [`Arith`]
//! enum, and a float op at every level — out of fusion, over cells or
//! cursors, lane-wide — is the same [`FloatOp`] with a different
//! operand type.
//! The node walk, the chunk executor and the two dispatches on the
//! kind are generic over a [`Probe`]: `run` instantiates them with
//! [`NoProbe`] (hooks that compile to nothing), `run_profiled` with
//! [`ProfBuf`], so a profile is by construction a profile of the code
//! that serves, SIMD lanes included.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;

use spl_icode::{BinOp, ProvNode};
use spl_telemetry::Telemetry;

use crate::profile::{
    build_nodes, LoopBlock, VmProfile, N_OP_CLASSES, OP_CLASS_FLOPS, VEC_CLASS_BASE,
};
use crate::program::{Addr, Dst, ISrc, Op, Src, VmProgram, VmState};
use crate::simd::{self, Lanes, LANE_WIDTHS, MAX_VEC_WIDTH};

/// Counters from fusion and loop strength reduction, reported through
/// `spl-telemetry` as `vm.fuse.*` / `vm.lsr.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// `mul`+`add`/`sub` pairs fused into multiply–add macro-ops.
    pub fused_muladd: u64,
    /// Negations folded into a following add/sub.
    pub fused_negfold: u64,
    /// `(a+b, a−b)` pairs fused into butterfly macro-ops.
    pub fused_butterfly: u64,
    /// Address cursors materialized: one per distinct stepped operand
    /// per loop context, plus one per fixed cell that a cursor-form op
    /// or a vector plan names beside a stepped one. Zero for
    /// straight-line code.
    pub cursors: u64,
    /// Float nodes whose operands are arena cells (static count).
    pub cell_ops: u64,
    /// Float nodes whose operands go through cursors (static count).
    pub cursor_ops: u64,
    /// Per-loop stride increments registered on loop latches.
    pub strength_reduced_steps: u64,
    /// Affine subscript terms hoisted out of per-access evaluation.
    pub hoisted_terms: u64,
    /// Innermost loops of at least two trips the resolver proved lane-safe
    /// and planned for lane-wide execution.
    pub vec_loops: u64,
    /// Innermost loops of at least two trips left scalar because their
    /// lane safety could not be proved. Outer and zero- or one-trip loops
    /// are never offered, so they count in neither.
    pub vec_demoted: u64,
    /// Lane-wide macro-ops across all vector plans (static count).
    pub vec_ops: u64,
    /// Pair nodes: two cell-form ops run as one node (static count;
    /// `cell_ops − pair_nodes` is the number of cell-form nodes).
    pub pair_nodes: u64,
}

impl ResolveStats {
    /// Records the counters into a telemetry sink.
    pub fn record(&self, tel: &mut Telemetry) {
        tel.add("vm.fuse.muladd", self.fused_muladd);
        tel.add("vm.fuse.negfold", self.fused_negfold);
        tel.add("vm.fuse.butterfly", self.fused_butterfly);
        tel.add("vm.lsr.cursors", self.cursors);
        tel.add("vm.ops.cell", self.cell_ops);
        tel.add("vm.ops.cursor", self.cursor_ops);
        tel.add("vm.ops.pair", self.pair_nodes);
        tel.add("vm.lsr.steps", self.strength_reduced_steps);
        tel.add("vm.lsr.hoisted_terms", self.hoisted_terms);
        tel.add("vm.vec.loops", self.vec_loops);
        tel.add("vm.vec.demoted", self.vec_demoted);
        tel.add("vm.vec.ops", self.vec_ops);
    }
}

/// Why a program stayed on the reference executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported(pub(crate) &'static str);

// ---------------------------------------------------------------------------
// The op vocabulary.
// ---------------------------------------------------------------------------

/// The float operation kinds. The discriminant is the kind's profile
/// class — its slot in [`crate::profile::OP_CLASS_NAMES`] — and
/// [`VEC_CLASS_BASE`] + discriminant is the class of its lane-wide
/// form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    Copy,
    Neg,
    /// `d = a·b + c` (two roundings).
    MulAdd,
    /// `d = a·b − c`.
    MulSub,
    /// `d = c − a·b`.
    NegMulAdd,
    /// `d1 = a + b; d2 = a − b` with one read of each operand.
    Butterfly,
}

impl Arith {
    /// `(destinations, sources)` the kind takes; at least one of each.
    const fn arity(self) -> (usize, usize) {
        match self {
            Arith::Add | Arith::Sub | Arith::Mul | Arith::Div => (1, 2),
            Arith::Copy | Arith::Neg => (1, 1),
            Arith::MulAdd | Arith::MulSub | Arith::NegMulAdd => (1, 3),
            Arith::Butterfly => (2, 2),
        }
    }
}

/// One float op over destinations `D` and sources `S`: `&Dst`/`&Src`
/// out of fusion, arena cells or cursor indices (`u32`) in the two float
/// forms of [`RNode`], [`VOperand`]s in a [`VecPlan`]. Slots past the
/// kind's arity hold copies of slot 0 and are never read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FloatOp<D, S> {
    kind: Arith,
    d: [D; 2],
    s: [S; 3],
}

/// One operand of a [`FloatOp`], as [`FloatOp::map`] hands it out.
enum Operand<D, S> {
    Src(S),
    Dst(D),
}

impl<D: Copy, S: Copy> FloatOp<D, S> {
    /// Builds an op from exactly the operands its kind takes.
    fn new(kind: Arith, d: &[D], s: &[S]) -> Self {
        debug_assert_eq!((d.len(), s.len()), kind.arity());
        let mut op = FloatOp {
            kind,
            d: [d[0]; 2],
            s: [s[0]; 3],
        };
        op.d[..d.len()].copy_from_slice(d);
        op.s[..s.len()].copy_from_slice(s);
        op
    }

    fn dsts(&self) -> &[D] {
        &self.d[..self.kind.arity().0]
    }

    fn srcs(&self) -> &[S] {
        &self.s[..self.kind.arity().1]
    }

    /// The same op over operands `f` makes of this one's. `f` sees the
    /// sources first, then the destinations, each in slot order, and
    /// never a padded slot: a visit may allocate a cursor or emit a
    /// spill node that must precede the op.
    fn map<T: Copy, E>(
        &self,
        mut f: impl FnMut(Operand<D, S>) -> Result<T, E>,
    ) -> Result<FloatOp<T, T>, E> {
        let mut s = [f(Operand::Src(self.s[0]))?; 3];
        for (to, &from) in s.iter_mut().zip(self.srcs()).skip(1) {
            *to = f(Operand::Src(from))?;
        }
        let mut d = [f(Operand::Dst(self.d[0]))?; 2];
        for (to, &from) in d.iter_mut().zip(self.dsts()).skip(1) {
            *to = f(Operand::Dst(from))?;
        }
        Ok(FloatOp {
            kind: self.kind,
            d,
            s,
        })
    }
}

/// An integer operand of an [`IntOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RI {
    Const(i64),
    R(u32),
    Loop(u32),
}

/// The rare ops of unoptimized code: `$r` arithmetic, and spills of
/// integer state into a scratch cell a float op then reads.
#[derive(Debug, Clone, PartialEq)]
enum IntOp {
    /// Spills `r[r_idx] as f64` into the scratch cell `d`.
    RToCell {
        d: u32,
        r_idx: u32,
    },
    /// Spills `loop[slot] as f64` into the scratch cell `d`.
    LoopToCell {
        d: u32,
        slot: u32,
    },
    Bin {
        op: BinOp,
        dst: u32,
        a: RI,
        b: RI,
    },
    Un {
        neg: bool,
        dst: u32,
        a: RI,
    },
}

impl IntOp {
    /// Profile class: the slots between the scalar and the lane-wide
    /// float classes.
    fn class(&self) -> usize {
        match self {
            IntOp::RToCell { .. } => 10,
            IntOp::LoopToCell { .. } => 11,
            IntOp::Bin { .. } => 12,
            IntOp::Un { .. } => 13,
        }
    }
}

/// A node of the block-structured program, 24 bytes: a 64-point
/// straight-line block is 438 of them (769 ops), streamed once per call.
///
/// The two float forms are one [`FloatOp<u32, u32>`] each, spelled out
/// field by field so that the node's tag shares a word with the kind
/// (wrapping the struct would cost a fourth word); [`RNode::float`] and
/// [`RNode::as_float`] convert. Which form an op takes is decided by
/// [`Builder::push_float`], and `exec`'s dispatch on the node is the only
/// place it is looked at — no operand carries a tag.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RNode {
    /// A float op over arena cells: no enclosing loop moves any of its
    /// operands, so each one *is* its cell.
    Cell {
        kind: Arith,
        d: [u32; 2],
        s: [u32; 3],
    },
    /// A float op over cursors: at least one operand is stepped by an
    /// enclosing loop, and every operand is read through the cursor
    /// file, which holds the current arena cell of each.
    Cursor {
        kind: Arith,
        d: [u32; 2],
        s: [u32; 3],
    },
    /// Two cell-form ops of one run, as [`pair_cells`] paired them: lane
    /// 0 over the cells `c`, lane 1 over `c[i] + off[i]`. The operands
    /// are the destinations, then the sources, of the lanes' kind (at
    /// most four); slots past them hold copies of slot 0.
    Pair {
        kind: Twin,
        c: [u32; 4],
        off: [i8; 4],
    },
    /// The integer op [`ResolvedProgram::ints`]`[k]`.
    Int(u32),
    /// The counted loop [`ResolvedProgram::loops`]`[k]`; its body is
    /// `nodes[self + 1 .. end]`.
    Loop(u32),
}

/// How the operands of a float node name their arena cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    Cell,
    Cursor,
}

impl RNode {
    fn float(form: Form, op: FloatOp<u32, u32>) -> RNode {
        let FloatOp { kind, d, s } = op;
        match form {
            Form::Cell => RNode::Cell { kind, d, s },
            Form::Cursor => RNode::Cursor { kind, d, s },
        }
    }

    /// The form and op of a float node; `None` for the other three.
    fn as_float(&self) -> Option<(Form, FloatOp<u32, u32>)> {
        match *self {
            RNode::Cell { kind, d, s } => Some((Form::Cell, FloatOp { kind, d, s })),
            RNode::Cursor { kind, d, s } => Some((Form::Cursor, FloatOp { kind, d, s })),
            RNode::Pair { .. } | RNode::Int(_) | RNode::Loop(_) => None,
        }
    }
}

/// What the two lanes of a pair node compute: one kind in both (the
/// first ten, named as in [`Arith`]), or a sub-like kind in lane 0
/// beside its add-like twin in lane 1 — the real and imaginary halves of
/// a complex product or sum. Flat, so that [`exec_pair`] dispatches on
/// it with one jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Twin {
    Add,
    Sub,
    Mul,
    Div,
    Copy,
    Neg,
    MulAdd,
    MulSub,
    NegMulAdd,
    Butterfly,
    SubAdd,
    MulSubMulAdd,
    NegMulAddMulAdd,
}

impl Twin {
    /// The kinds of lanes 0 and 1.
    fn lanes(self) -> [Arith; 2] {
        let same = |k| [k, k];
        match self {
            Twin::Add => same(Arith::Add),
            Twin::Sub => same(Arith::Sub),
            Twin::Mul => same(Arith::Mul),
            Twin::Div => same(Arith::Div),
            Twin::Copy => same(Arith::Copy),
            Twin::Neg => same(Arith::Neg),
            Twin::MulAdd => same(Arith::MulAdd),
            Twin::MulSub => same(Arith::MulSub),
            Twin::NegMulAdd => same(Arith::NegMulAdd),
            Twin::Butterfly => same(Arith::Butterfly),
            Twin::SubAdd => [Arith::Sub, Arith::Add],
            Twin::MulSubMulAdd => [Arith::MulSub, Arith::MulAdd],
            Twin::NegMulAddMulAdd => [Arith::NegMulAdd, Arith::MulAdd],
        }
    }

    /// The twin of an op of kind `first` and a later one of kind `later`,
    /// and whether the later op takes lane 0; `None` when they do not
    /// pair.
    fn of(first: Arith, later: Arith) -> Option<(Twin, bool)> {
        let twin = |l0, l1| match (l0, l1) {
            (Arith::Add, Arith::Add) => Some(Twin::Add),
            (Arith::Sub, Arith::Sub) => Some(Twin::Sub),
            (Arith::Mul, Arith::Mul) => Some(Twin::Mul),
            (Arith::Div, Arith::Div) => Some(Twin::Div),
            (Arith::Copy, Arith::Copy) => Some(Twin::Copy),
            (Arith::Neg, Arith::Neg) => Some(Twin::Neg),
            (Arith::MulAdd, Arith::MulAdd) => Some(Twin::MulAdd),
            (Arith::MulSub, Arith::MulSub) => Some(Twin::MulSub),
            (Arith::NegMulAdd, Arith::NegMulAdd) => Some(Twin::NegMulAdd),
            (Arith::Butterfly, Arith::Butterfly) => Some(Twin::Butterfly),
            (Arith::Sub, Arith::Add) => Some(Twin::SubAdd),
            (Arith::MulSub, Arith::MulAdd) => Some(Twin::MulSubMulAdd),
            (Arith::NegMulAdd, Arith::MulAdd) => Some(Twin::NegMulAddMulAdd),
            _ => None,
        };
        match twin(first, later) {
            Some(t) => Some((t, false)),
            None => twin(later, first).map(|t| (t, true)),
        }
    }
}

/// The parameters of one counted loop, out of line: a loop header is
/// met once per entry, a float node once per execution.
#[derive(Debug, Clone, PartialEq)]
struct LoopNode {
    /// Trip count (0 for a zero-trip loop: body skipped).
    trips: u64,
    /// Loop-variable slot (maintained only when the program reads
    /// loop variables as values).
    var: u32,
    /// Initial loop-variable value.
    lo: i64,
    /// Index one past the last body node.
    end: u32,
    /// Range into [`ResolvedProgram::steps`]: the cursor strides
    /// applied at this loop's latch.
    steps: (u32, u32),
    /// Index into [`ResolvedProgram::vec_plans`] when the resolver
    /// verified this loop for lane-wide execution.
    vec: Option<u32>,
}

/// Upper bound on `$f` registers promoted to lane registers per
/// vector plan (past it the hint is demoted). The fully unrolled
/// 64-point leaf body promotes 592 cells, of which at most 145 are live
/// at once, so the cap sits well above that.
const MAX_LANE_CELLS: usize = 2048;

/// Room for one lane register of any backend, aligned for the widest
/// (64 bytes: 8 × f64): the element of the lane buffer a [`VmState`]
/// keeps for its program's vector plans.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct LaneSlot([f64; MAX_VEC_WIDTH]);

impl LaneSlot {
    pub(crate) const ZERO: LaneSlot = LaneSlot([0.0; MAX_VEC_WIDTH]);
}

/// Where the lanes of a lane-wide operand live.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VOperand {
    /// Lane `l` is `arena[cur[c] + l·s]`. A source with `s == 0`
    /// broadcasts a loop-invariant cell (constant, read-only `$f`
    /// register, or invariant subscript); destinations always have
    /// `s ≥ 1`.
    Mem { c: u32, s: i64 },
    /// An iteration-private `$f` register promoted to a lane register.
    Lane(u16),
}

/// A verified lane-wide execution plan for one counted loop: the body
/// re-expressed over [`VOperand`]s, executed op-major over chunks of
/// `W ≤ width` consecutive iterations. Additive — the scalar body nodes
/// stay in place for remainder iterations and the forced-scalar
/// fallback.
#[derive(Debug, Clone, PartialEq, Default)]
struct VecPlan {
    ops: Vec<FloatOp<VOperand, VOperand>>,
    /// The widest chunk the loop's alias distance allows: 2, 4 or
    /// [`MAX_VEC_WIDTH`]. No two iterations a chunk this wide holds
    /// touch one address.
    width: usize,
    /// Formula-node provenance per vector op (parallel to `ops`, or
    /// empty when the program carries none).
    prov: Vec<u32>,
    /// The `$f` cells promoted to lane registers, indexed by
    /// lane-register id; lane `W−1` is written back to the arena after
    /// the chunks so trailing scalar code observes the value the last
    /// iteration left.
    lane_cells: Vec<u32>,
}

/// A fully resolved, fused, block-structured program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResolvedProgram {
    nodes: Vec<RNode>,
    /// The integer ops, indexed by [`RNode::Int`].
    ints: Vec<IntOp>,
    /// The loops, indexed by [`RNode::Loop`].
    loops: Vec<LoopNode>,
    /// Formula-node provenance per resolved node (parallel to `nodes`,
    /// or empty when the program carries none). Read only through a
    /// [`Probe`].
    node_prov: Vec<u32>,
    /// Flat `(cursor, delta)` stride table, sliced per loop.
    steps: Vec<(u32, i64)>,
    /// Per-cursor initial arena index (copied into the state at the
    /// start of every run; empty for a program no loop steps).
    init_cursors: Vec<i64>,
    /// `(cell, value)` pairs preset in a fresh arena: constant tables
    /// and immediates.
    arena_init: Vec<(u32, f64)>,
    arena_len: usize,
    in_off: usize,
    n_in: usize,
    out_off: usize,
    n_out: usize,
    /// Whether loop-variable values are observable (via `LoopF` /
    /// integer ops); if not, latches skip maintaining them.
    track_loops: bool,
    /// Minimum `$r` / loop-variable state sizes this program touches;
    /// checked once per run so the hot loop cannot be handed an
    /// undersized state.
    need_r: usize,
    need_loop: usize,
    /// Verified lane-wide plans, indexed by [`LoopNode::vec`].
    vec_plans: Vec<VecPlan>,
    /// Identifies the program to the states built for it; see
    /// [`ResolvedProgram::tag`].
    tag: u64,
    stats: ResolveStats,
}

/// What the executor reports while it runs. [`NoProbe`] makes every
/// hook an empty inline function, so the instantiation `run` uses
/// carries no trace of them; [`ProfBuf`] builds a [`VmProfile`].
/// `prov` is the formula node the reported code was expanded from
/// (`u32::MAX`: none).
trait Probe {
    /// A scalar node of profile class `class` is about to execute.
    fn op(&mut self, prov: u32, class: usize);
    /// A lane-wide op is about to execute `w` iterations at once.
    fn vec_op(&mut self, prov: u32, kind: Arith, w: usize);
    /// A loop header was reached.
    fn loop_enter(&mut self, prov: u32);
    /// The innermost open loop, headed by node `node`, ran all `trips`
    /// iterations.
    fn loop_exit(&mut self, node: usize, trips: u64);
}

/// The probe of an unprofiled run.
struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn op(&mut self, _: u32, _: usize) {}
    #[inline(always)]
    fn vec_op(&mut self, _: u32, _: Arith, _: usize) {}
    #[inline(always)]
    fn loop_enter(&mut self, _: u32) {}
    #[inline(always)]
    fn loop_exit(&mut self, _: usize, _: u64) {}
}

impl ResolvedProgram {
    pub(crate) fn stats(&self) -> &ResolveStats {
        &self.stats
    }

    /// Builds a fresh arena with tables and immediates preset.
    pub(crate) fn fresh_arena(&self) -> Vec<f64> {
        let mut arena = vec![0.0; self.arena_len];
        for &(cell, v) in &self.arena_init {
            arena[cell as usize] = v;
        }
        arena
    }

    pub(crate) fn init_cursors(&self) -> &[i64] {
        &self.init_cursors
    }

    /// What a [`VmState`] records of the program it was built for: a
    /// hash of the node, cursor and arena counts and of the preset
    /// constants. A state that carries the same tag has an arena of
    /// this program's shape holding this program's constants; lengths
    /// alone cannot tell, since straight-line programs all have zero
    /// cursors and a bigger arena would pass for a smaller one.
    pub(crate) fn tag(&self) -> u64 {
        self.tag
    }

    /// Lane registers of the largest vector plan: what a state's lane
    /// buffer must hold.
    pub(crate) fn max_lane_cells(&self) -> usize {
        let cells = self.vec_plans.iter().map(|p| p.lane_cells.len());
        cells.max().unwrap_or(0)
    }

    /// Executes the resolved program. State contract matches the
    /// reference executor: temporaries and `$f` registers persist
    /// across calls (inside the arena), input and output are copied
    /// through the arena windows each call.
    pub(crate) fn run(&self, x: &[f64], y: &mut [f64], st: &mut VmState) {
        self.run_with(x, y, st, || NoProbe);
    }

    /// [`ResolvedProgram::run`] — the same code, instantiated over
    /// [`ProfBuf`] — returning the collected [`VmProfile`]; see
    /// [`crate::VmProgram::run_profiled`].
    pub(crate) fn run_profiled(
        &self,
        x: &[f64],
        y: &mut [f64],
        st: &mut VmState,
        prov_nodes: &[ProvNode],
    ) -> VmProfile {
        let n_ids = if self.node_prov.is_empty() {
            0
        } else {
            prov_nodes.len()
        };
        self.run_with(x, y, st, || ProfBuf::new(n_ids))
            .finish(prov_nodes)
    }

    /// One run under the probe `start` makes — once the state is
    /// loaded, so that a probe with a clock starts it at the first op,
    /// not at the input copy.
    ///
    /// The unchecked indexing of the executor (`get!`/`put!`,
    /// `ld!`/`st!`) rests on four facts, each a `debug_assert!` at the
    /// access itself, so a debug build is a bounds-checked run:
    ///
    /// 1. the checks below — `st` was built for this program (its tag),
    ///    `st.cur` has exactly this program's cursor count, the arena
    ///    exactly `arena_len` cells, and the integer state (which stays
    ///    bounds-checked: it is cold) covers every `$r` and loop slot
    ///    the program names;
    /// 2. a *cell* operand is below `arena_len` by construction:
    ///    `Builder::cell`, which checks that, is the only maker of the
    ///    cells a node can carry, and nothing moves one afterwards (a
    ///    pair node's lane-1 cell, `c + off`, is its second op's cell
    ///    exactly: `pair_node` stores the difference only when it fits);
    /// 3. a *cursor* operand is an index below the pinned cursor
    ///    count, and `Builder::mem` rejects any operand whose reachable
    ///    address box leaves its region — exact, since counted loops
    ///    reach every bound combination — while the fixed cells given a
    ///    cursor are in range by fact 2's check, so every cursor
    ///    *value* at a dereference is a cell of the arena;
    /// 4. at every width `W` of the ladder (8, 4, 2), lane `l` of a
    ///    lane-wide operand is the address scalar iteration `t + l`
    ///    dereferences through the same cursor, and a `W`-wide chunk
    ///    runs only with `W` full iterations left — so all `W` lanes are
    ///    cells of the arena (`lanes_in_bounds`). A load may also read
    ///    the cells between two lanes (the AVX-512 stride-2 load: one
    ///    full vector and one masked one), a store writes its lanes
    ///    only; masked-off cells are neither read nor faulted on, so no
    ///    access leaves the span of its `W` lanes.
    fn run_with<P: Probe>(
        &self,
        x: &[f64],
        y: &mut [f64],
        st: &mut VmState,
        start: impl FnOnce() -> P,
    ) -> P {
        assert_eq!(st.arena.len(), self.arena_len, "arena state mismatch");
        assert!(st.r.len() >= self.need_r, "register state mismatch");
        assert!(st.loops.len() >= self.need_loop, "loop state mismatch");
        assert_eq!(
            st.cur.len(),
            self.init_cursors.len(),
            "cursor state mismatch"
        );
        assert_eq!(st.tag, self.tag, "state was built for another program");
        if !self.init_cursors.is_empty() {
            st.cur.copy_from_slice(&self.init_cursors);
        }
        st.arena[self.in_off..self.in_off + self.n_in].copy_from_slice(x);
        // The reference executor lets accumulations read back the
        // caller's output buffer, so copy it in as well.
        st.arena[self.out_off..self.out_off + self.n_out].copy_from_slice(y);
        let mut probe = start();
        self.exec(
            0..self.nodes.len(),
            &mut st.arena,
            &mut st.cur,
            &mut st.r,
            &mut st.loops,
            &mut st.lanes,
            &mut probe,
        );
        y.copy_from_slice(&st.arena[self.out_off..self.out_off + self.n_out]);
        probe
    }

    #[inline(always)]
    fn prov(&self, node: usize) -> u32 {
        self.node_prov.get(node).copied().unwrap_or(u32::MAX)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec<P: Probe>(
        &self,
        nodes: Range<usize>,
        arena: &mut [f64],
        cur: &mut [i64],
        r: &mut [i64],
        loops: &mut [i64],
        lanes: &mut [LaneSlot],
        probe: &mut P,
    ) {
        // The walk is one pointer; a node's index is wanted by probes
        // and loop headers only.
        let mut rest = self.nodes[nodes.clone()].iter();
        let at = |rest: &std::slice::Iter<RNode>| nodes.end - rest.len();
        while let Some(node) = rest.as_slice().first() {
            match node {
                // A maximal run of float nodes of one form, in a loop
                // that knows nothing of the other kinds: straight-line
                // code is one such run, of single and pair nodes.
                RNode::Cell { .. } | RNode::Pair { .. } => loop {
                    match rest.as_slice().first() {
                        Some(RNode::Cell { kind, d, s }) => {
                            probe.op(self.prov(at(&rest)), *kind as usize);
                            exec_float::<true>(*kind, d, s, arena, cur);
                        }
                        Some(RNode::Pair { kind, c, off }) => {
                            let prov = self.prov(at(&rest));
                            for lane in kind.lanes() {
                                probe.op(prov, lane as usize);
                            }
                            exec_pair(*kind, c, off, arena);
                        }
                        _ => break,
                    }
                    rest.next();
                },
                RNode::Cursor { .. } => {
                    while let Some(RNode::Cursor { kind, d, s }) = rest.as_slice().first() {
                        probe.op(self.prov(at(&rest)), *kind as usize);
                        exec_float::<false>(*kind, d, s, arena, cur);
                        rest.next();
                    }
                }
                RNode::Int(k) => {
                    let op = &self.ints[*k as usize];
                    probe.op(self.prov(at(&rest)), op.class());
                    exec_int(op, arena, r, loops);
                    rest.next();
                }
                RNode::Loop(k) => {
                    let lp = &self.loops[*k as usize];
                    self.exec_loop(at(&rest), lp, arena, cur, r, loops, lanes, probe);
                    rest = self.nodes[lp.end as usize..nodes.end].iter();
                }
            }
        }
    }

    /// Runs the loop `lp`, headed by node `head`: lane-wide chunks
    /// first, the scalar body for whatever they leave. Kept out of
    /// line so that `exec`, which straight-line code never leaves,
    /// carries none of this frame.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn exec_loop<P: Probe>(
        &self,
        head: usize,
        lp: &LoopNode,
        arena: &mut [f64],
        cur: &mut [i64],
        r: &mut [i64],
        loops: &mut [i64],
        lanes: &mut [LaneSlot],
        probe: &mut P,
    ) {
        probe.loop_enter(self.prov(head));
        let body = head + 1..lp.end as usize;
        let stp = &self.steps[lp.steps.0 as usize..lp.steps.1 as usize];
        let done = match lp.vec {
            Some(p) => {
                let plan = &self.vec_plans[p as usize];
                run_chunks(plan, lp.trips, stp, arena, cur, lanes, probe)
            }
            None => 0,
        };
        for t in done..lp.trips {
            if self.track_loops {
                // Mirror the reference executor exactly: the variable
                // is set only when the body runs and is left at `hi`
                // (not `hi+1`) afterwards.
                loops[lp.var as usize] = lp.lo + t as i64;
            }
            self.exec(body.clone(), arena, cur, r, loops, lanes, probe);
            for &(k, d) in stp {
                cur[k as usize] += d;
            }
        }
        if self.track_loops && done == lp.trips && lp.trips > 0 {
            // No scalar remainder ran; leave the variable where the
            // scalar loop would. (Plan verification guarantees the body
            // itself never reads it.)
            loops[lp.var as usize] = lp.lo + (lp.trips - 1) as i64;
        }
        probe.loop_exit(head, lp.trips);
    }
}

/// Executes one float op, its operands arena cells (`CELLS`) or
/// cursors. Sound by facts 1–3 on [`ResolvedProgram::run_with`].
#[inline(always)]
fn exec_float<const CELLS: bool>(
    kind: Arith,
    d: &[u32; 2],
    s: &[u32; 3],
    arena: &mut [f64],
    cur: &[i64],
) {
    macro_rules! cell {
        ($k:expr) => {{
            let k = *$k as usize;
            if CELLS {
                debug_assert!(k < arena.len(), "cell {k} of {}", arena.len());
                k
            } else {
                debug_assert!(k < cur.len(), "cursor {k} of {}", cur.len());
                // SAFETY: fact 3 — cursor indices are below the pinned
                // cursor count.
                let at = unsafe { *cur.get_unchecked(k) };
                debug_assert!(
                    at >= 0 && (at as usize) < arena.len(),
                    "cursor {k} at cell {at} of {}",
                    arena.len()
                );
                at as usize
            }
        }};
    }
    macro_rules! get {
        ($k:expr) => {{
            let at = cell!($k);
            // SAFETY: fact 2 (a cell operand is below `arena_len`) or
            // fact 3 (a cursor's value is an arena cell).
            unsafe { *arena.get_unchecked(at) }
        }};
    }
    macro_rules! put {
        ($k:expr, $v:expr) => {{
            let v = $v;
            let at = cell!($k);
            // SAFETY: as in `get!`.
            unsafe { *arena.get_unchecked_mut(at) = v }
        }};
    }
    // Sources bound by reference: an arm loads only what it reads.
    let [d, d2] = d;
    let [a, b, c] = s;
    match kind {
        Arith::Add => put!(d, get!(a) + get!(b)),
        Arith::Sub => put!(d, get!(a) - get!(b)),
        Arith::Mul => put!(d, get!(a) * get!(b)),
        Arith::Div => put!(d, get!(a) / get!(b)),
        Arith::Copy => put!(d, get!(a)),
        Arith::Neg => put!(d, -get!(a)),
        Arith::MulAdd => put!(d, get!(a) * get!(b) + get!(c)),
        Arith::MulSub => put!(d, get!(a) * get!(b) - get!(c)),
        Arith::NegMulAdd => put!(d, get!(c) - get!(a) * get!(b)),
        Arith::Butterfly => {
            let av = get!(a);
            let bv = get!(b);
            put!(d, av + bv);
            put!(d2, av - bv);
        }
    }
}

/// Executes one pair node: lane 0 over the cells `cells`, lane 1 over
/// `cells[i] + off[i]`. Both lanes read their sources before either
/// writes — [`pair_cells`] moved lane 1 only where that is the program
/// order's answer — and each lane is its scalar op's expression over its
/// operands in [`exec_float`]'s order. Sound by fact 2 on
/// [`ResolvedProgram::run_with`]: each lane's cells are those of a
/// cell-form op.
#[inline(always)]
fn exec_pair(kind: Twin, cells: &[u32; 4], off: &[i8; 4], arena: &mut [f64]) {
    macro_rules! cell {
        (0, $i:literal) => {
            cells[$i] as usize
        };
        (1, $i:literal) => {
            cells[$i].wrapping_add_signed(i32::from(off[$i])) as usize
        };
    }
    macro_rules! get {
        ($lane:tt, $i:literal) => {{
            let k = cell!($lane, $i);
            debug_assert!(k < arena.len(), "cell {k} of {}", arena.len());
            // SAFETY: fact 2 — the cell of a cell-form op.
            unsafe { *arena.get_unchecked(k) }
        }};
    }
    macro_rules! put {
        ($lane:tt, $i:literal, $v:expr) => {{
            let v = $v;
            let k = cell!($lane, $i);
            debug_assert!(k < arena.len(), "cell {k} of {}", arena.len());
            // SAFETY: as in `get!`.
            unsafe { *arena.get_unchecked_mut(k) = v }
        }};
    }
    // `d = e` in each lane: operand 0 is the destination, each name
    // binds the lane's operand at its index.
    macro_rules! lanes {
        ($($x:ident = $i:literal),+ => $e0:expr, $e1:expr) => {{
            let v0 = {
                $(let $x = get!(0, $i);)+
                $e0
            };
            let v1 = {
                $(let $x = get!(1, $i);)+
                $e1
            };
            put!(0, 0, v0);
            put!(1, 0, v1);
        }};
    }
    match kind {
        Twin::Add => lanes!(a = 1, b = 2 => a + b, a + b),
        Twin::Sub => lanes!(a = 1, b = 2 => a - b, a - b),
        Twin::Mul => lanes!(a = 1, b = 2 => a * b, a * b),
        Twin::Div => lanes!(a = 1, b = 2 => a / b, a / b),
        Twin::Copy => lanes!(a = 1 => a, a),
        Twin::Neg => lanes!(a = 1 => -a, -a),
        Twin::MulAdd => lanes!(a = 1, b = 2, c = 3 => a * b + c, a * b + c),
        Twin::MulSub => lanes!(a = 1, b = 2, c = 3 => a * b - c, a * b - c),
        Twin::NegMulAdd => lanes!(a = 1, b = 2, c = 3 => c - a * b, c - a * b),
        Twin::Butterfly => {
            // Operands `d1, d2, a, b`; four distinct destinations.
            let (a0, b0) = (get!(0, 2), get!(0, 3));
            let (a1, b1) = (get!(1, 2), get!(1, 3));
            put!(0, 0, a0 + b0);
            put!(0, 1, a0 - b0);
            put!(1, 0, a1 + b1);
            put!(1, 1, a1 - b1);
        }
        Twin::SubAdd => lanes!(a = 1, b = 2 => a - b, a + b),
        Twin::MulSubMulAdd => lanes!(a = 1, b = 2, c = 3 => a * b - c, a * b + c),
        Twin::NegMulAddMulAdd => lanes!(a = 1, b = 2, c = 3 => c - a * b, a * b + c),
    }
}

/// Executes one integer or spill op. Bounds-checked throughout: these
/// run in unoptimized code only, and their `$r`/loop indices come from
/// the lowered program rather than the resolver.
fn exec_int(op: &IntOp, arena: &mut [f64], r: &mut [i64], loops: &[i64]) {
    let ri = |s: &RI, r: &[i64]| match s {
        RI::Const(c) => *c,
        RI::R(k) => r[*k as usize],
        RI::Loop(k) => loops[*k as usize],
    };
    match op {
        IntOp::RToCell { d, r_idx } => {
            arena[*d as usize] = r[*r_idx as usize] as f64;
        }
        IntOp::LoopToCell { d, slot } => {
            arena[*d as usize] = loops[*slot as usize] as f64;
        }
        IntOp::Bin { op, dst, a, b } => {
            let (av, bv) = (ri(a, r), ri(b, r));
            r[*dst as usize] = match op {
                BinOp::Add => av + bv,
                BinOp::Sub => av - bv,
                BinOp::Mul => av * bv,
                BinOp::Div => av / bv,
            };
        }
        IntOp::Un { neg, dst, a } => {
            let av = ri(a, r);
            r[*dst as usize] = if *neg { -av } else { av };
        }
    }
}

// ---------------------------------------------------------------------------
// Lane-wide (vector) plan execution.
// ---------------------------------------------------------------------------

/// Runs the first iterations of a planned loop lane-wide, down the
/// width ladder of the active backend — each rung no wider than the
/// plan runs as many chunks as fit in what the rungs above it left —
/// and returns how many iterations were covered. That leaves the
/// scalar body one iteration at most (all of them when no backend is
/// active or the fallback is forced).
fn run_chunks<P: Probe>(
    plan: &VecPlan,
    trips: u64,
    stp: &[(u32, i64)],
    arena: &mut [f64],
    cur: &mut [i64],
    lanes: &mut [LaneSlot],
    probe: &mut P,
) -> u64 {
    match simd::active() {
        simd::Backend::Scalar => 0,
        #[cfg(target_arch = "x86_64")]
        simd::Backend::Sse2 => {
            chunks_generic::<simd::Sse2, P>(plan, trips, stp, arena, cur, lanes, probe)
        }
        #[cfg(target_arch = "x86_64")]
        simd::Backend::Avx => {
            // SAFETY: `Backend::Avx` is only reported when runtime
            // detection confirmed AVX support.
            unsafe { chunks_avx(plan, trips, stp, arena, cur, lanes, probe) }
        }
        #[cfg(target_arch = "x86_64")]
        simd::Backend::Avx512 => {
            // SAFETY: `Backend::Avx512` is only reported when runtime
            // detection confirmed AVX-512F support.
            unsafe { chunks_avx512(plan, trips, stp, arena, cur, lanes, probe) }
        }
        #[cfg(target_arch = "aarch64")]
        simd::Backend::Neon => {
            chunks_generic::<simd::Neon, P>(plan, trips, stp, arena, cur, lanes, probe)
        }
    }
}

/// AVX entry point: the `target_feature` frame into which the generic
/// chunk executor (and the AVX intrinsics inside it) inlines; the
/// ladder 4 → 2.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn chunks_avx<P: Probe>(
    plan: &VecPlan,
    trips: u64,
    stp: &[(u32, i64)],
    arena: &mut [f64],
    cur: &mut [i64],
    lanes: &mut [LaneSlot],
    probe: &mut P,
) -> u64 {
    let done = chunks_generic::<simd::Avx, P>(plan, trips, stp, arena, cur, lanes, probe);
    done + chunks_generic::<simd::Sse2, P>(plan, trips - done, stp, arena, cur, lanes, probe)
}

/// AVX-512 entry point, as [`chunks_avx`]: the ladder 8 → 4 → 2.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn chunks_avx512<P: Probe>(
    plan: &VecPlan,
    trips: u64,
    stp: &[(u32, i64)],
    arena: &mut [f64],
    cur: &mut [i64],
    lanes: &mut [LaneSlot],
    probe: &mut P,
) -> u64 {
    let done = chunks_generic::<simd::Avx512, P>(plan, trips, stp, arena, cur, lanes, probe);
    // SAFETY: AVX-512F implies AVX.
    done + unsafe { chunks_avx(plan, trips - done, stp, arena, cur, lanes, probe) }
}

/// Executes one rung of the ladder: `trips / W` full chunks op-major,
/// none when `W` is wider than the plan allows. Each lane-wide op runs
/// `W` consecutive iterations at once, then the latch strides advance
/// by `W` steps, so the cursors are left at the first iteration the
/// next rung runs. Plan verification guarantees op-major order is
/// observably identical to iteration order (no loop-carried values,
/// no memory conflicts at an iteration distance below the plan's
/// width), and every lane performs the exact scalar IEEE-754 op — so
/// the result is bit-identical to scalar execution.
#[inline(always)]
fn chunks_generic<L: Lanes, P: Probe>(
    plan: &VecPlan,
    trips: u64,
    stp: &[(u32, i64)],
    arena: &mut [f64],
    cur: &mut [i64],
    lanes: &mut [LaneSlot],
    probe: &mut P,
) -> u64 {
    let w = L::W as u64;
    let chunks = trips / w;
    if chunks == 0 || L::W > plan.width {
        return 0;
    }
    // The state's lane buffer, as this rung's registers. Whatever an
    // earlier loop or rung left there is never seen: a lane register is
    // written before it is read in every iteration.
    let lanes = &mut lanes[..plan.lane_cells.len()];
    assert!(
        size_of::<L::V>() <= size_of::<LaneSlot>() && align_of::<L::V>() <= align_of::<LaneSlot>()
    );
    // SAFETY: by the assertion the buffer is aligned for `L::V` and at
    // least `lanes.len()` of them long; it is initialized `f64`s, and
    // every bit pattern is a vector of `f64`s.
    let lanes: &mut [L::V] =
        unsafe { std::slice::from_raw_parts_mut(lanes.as_mut_ptr().cast(), lanes.len()) };
    for _ in 0..chunks {
        for (j, op) in plan.ops.iter().enumerate() {
            probe.vec_op(plan.prov.get(j).copied().unwrap_or(u32::MAX), op.kind, L::W);
            // SAFETY: fact 4 on `ResolvedProgram::run_with` — `chunks`
            // counts only full chunks, so every lane address is one
            // the scalar iterations of this chunk dereference.
            unsafe { exec_vec_op::<L>(op, lanes, arena, cur) };
        }
        for &(k, d) in stp {
            cur[k as usize] += d * w as i64;
        }
    }
    // Lane registers are iteration-private (written before read every
    // iteration), so only the last iteration's value — lane W−1 of the
    // last chunk — is observable after the loop; write it back for
    // trailing scalar code. Narrower rungs and the scalar remainder, if
    // any run, overwrite it.
    for (k, &cell) in plan.lane_cells.iter().enumerate() {
        arena[cell as usize] = L::lane(lanes[k], L::W - 1);
    }
    chunks * w
}

/// `true` when the `w` lanes at `base + l·s` all lie inside an arena
/// of `len` cells, whichever way `s` points — and with them every cell
/// between the first lane and the last, which is all a lane-wide load
/// or store may touch.
fn lanes_in_bounds(base: i64, s: i64, w: usize, len: usize) -> bool {
    let last = base + (w as i64 - 1) * s;
    base.min(last) >= 0 && (base.max(last) as usize) < len
}

/// Executes one lane-wide op.
///
/// # Safety
///
/// `W` full iterations of the planned loop must remain (fact 4 on
/// [`ResolvedProgram::run_with`]); lane-register ids index `lanes` by
/// plan construction.
#[inline(always)]
unsafe fn exec_vec_op<L: Lanes>(
    op: &FloatOp<VOperand, VOperand>,
    lanes: &mut [L::V],
    arena: &mut [f64],
    cur: &[i64],
) {
    macro_rules! base {
        ($c:expr, $s:expr) => {{
            debug_assert!((*$c as usize) < cur.len());
            let base = *cur.get_unchecked(*$c as usize);
            debug_assert!(
                lanes_in_bounds(base, *$s, L::W, arena.len()),
                "{} lanes from cell {base} by {} in {}",
                L::W,
                $s,
                arena.len()
            );
            base as isize
        }};
    }
    macro_rules! ld {
        ($s:expr) => {
            match $s {
                VOperand::Mem { c, s } => L::load(arena.as_ptr().offset(base!(c, s)), *s),
                VOperand::Lane(k) => {
                    debug_assert!((*k as usize) < lanes.len());
                    *lanes.get_unchecked(*k as usize)
                }
            }
        };
    }
    macro_rules! st {
        ($d:expr, $v:expr) => {{
            let v = $v;
            match $d {
                VOperand::Mem { c, s } => L::store(arena.as_mut_ptr().offset(base!(c, s)), *s, v),
                VOperand::Lane(k) => {
                    debug_assert!((*k as usize) < lanes.len());
                    *lanes.get_unchecked_mut(*k as usize) = v
                }
            }
        }};
    }
    // By reference — copying the operand arrays out (80 bytes per
    // lane-op) measurably slows the width-4 loop.
    let [d, d2] = &op.d;
    let [a, b, c] = &op.s;
    match op.kind {
        Arith::Add => st!(d, L::add(ld!(a), ld!(b))),
        Arith::Sub => st!(d, L::sub(ld!(a), ld!(b))),
        Arith::Mul => st!(d, L::mul(ld!(a), ld!(b))),
        Arith::Div => st!(d, L::div(ld!(a), ld!(b))),
        Arith::Copy => st!(d, ld!(a)),
        Arith::Neg => st!(d, L::neg(ld!(a))),
        Arith::MulAdd => st!(d, L::add(L::mul(ld!(a), ld!(b)), ld!(c))),
        Arith::MulSub => st!(d, L::sub(L::mul(ld!(a), ld!(b)), ld!(c))),
        Arith::NegMulAdd => st!(d, L::sub(ld!(c), L::mul(ld!(a), ld!(b)))),
        Arith::Butterfly => {
            let av = ld!(a);
            let bv = ld!(b);
            st!(d, L::add(av, bv));
            st!(d2, L::sub(av, bv));
        }
    }
}

/// The [`Probe`] of a profiled run: accumulates a [`VmProfile`].
struct ProfBuf {
    op_counts: [u64; N_OP_CLASSES],
    lane_ops_by_width: [u64; LANE_WIDTHS.len()],
    /// Per-provenance-id self time / flops / op counts (empty when
    /// the program carries no provenance).
    node_ns: Vec<u128>,
    node_flops: Vec<u64>,
    node_ops: Vec<u64>,
    unattributed_ns: u128,
    /// Provenance id currently on the clock (`u32::MAX` = none).
    cur_attr: u32,
    /// Timestamp of the last attribution transition.
    last: Instant,
    start: Instant,
    /// Entry times of the loops currently open, outermost first.
    open: Vec<Instant>,
    /// Loop-header node index → (depth, entries, iterations, wall_ns).
    loops: HashMap<usize, (u32, u64, u64, u128)>,
}

impl ProfBuf {
    fn new(n_ids: usize) -> ProfBuf {
        let now = Instant::now();
        ProfBuf {
            op_counts: [0; N_OP_CLASSES],
            lane_ops_by_width: [0; LANE_WIDTHS.len()],
            node_ns: vec![0; n_ids],
            node_flops: vec![0; n_ids],
            node_ops: vec![0; n_ids],
            unattributed_ns: 0,
            cur_attr: u32::MAX,
            last: now,
            start: now,
            open: Vec::new(),
            loops: HashMap::new(),
        }
    }

    /// Telescoping attribution: the clock is read only when execution
    /// crosses from one formula node to another, and the interval
    /// since the previous read is credited in full to the node just
    /// left — so self times sum exactly to the total by construction.
    fn attribute(&mut self, p: u32) {
        if p != self.cur_attr {
            self.flush();
            self.cur_attr = p;
        }
    }

    /// Credits the open interval to the current node and restarts it.
    fn flush(&mut self) {
        let now = Instant::now();
        let dt = (now - self.last).as_nanos();
        match self.node_ns.get_mut(self.cur_attr as usize) {
            Some(slot) => *slot += dt,
            None => self.unattributed_ns += dt,
        }
        self.last = now;
    }

    /// Counts `n` executions of `class` against the current node.
    fn count(&mut self, class: usize, n: u64) {
        self.op_counts[class] += n;
        let id = self.cur_attr as usize;
        if id < self.node_ops.len() {
            self.node_ops[id] += n;
            self.node_flops[id] += n * OP_CLASS_FLOPS[class];
        }
    }

    fn finish(mut self, prov_nodes: &[ProvNode]) -> VmProfile {
        self.flush();
        let total_ns = (self.last - self.start).as_nanos();
        let nodes = if self.node_ns.is_empty() {
            Vec::new()
        } else {
            build_nodes(prov_nodes, &self.node_ns, &self.node_flops, &self.node_ops)
        };
        let mut loop_list: Vec<LoopBlock> = self
            .loops
            .iter()
            .map(
                |(&node, &(depth, entries, iterations, wall_ns))| LoopBlock {
                    node: node as u32,
                    depth,
                    entries,
                    iterations,
                    wall_ns,
                },
            )
            .collect();
        loop_list.sort_by_key(|l| l.node);
        VmProfile {
            total_ns,
            unattributed_ns: self.unattributed_ns,
            op_counts: self.op_counts,
            lane_ops_by_width: self.lane_ops_by_width,
            nodes,
            loops: loop_list,
        }
    }
}

impl Probe for ProfBuf {
    fn op(&mut self, prov: u32, class: usize) {
        self.attribute(prov);
        self.count(class, 1);
    }

    /// Lane-wide classes count *lanes* (one per covered iteration), so
    /// totals across a run equal the scalar run's op and flop totals —
    /// only the class binning moves. The same lanes are binned by the
    /// rung that ran them.
    fn vec_op(&mut self, prov: u32, kind: Arith, w: usize) {
        self.attribute(prov);
        self.count(VEC_CLASS_BASE + kind as usize, w as u64);
        let rung = LANE_WIDTHS.iter().position(|&r| r == w);
        self.lane_ops_by_width[rung.expect("a lane-wide op runs at a width of the ladder")] +=
            w as u64;
    }

    fn loop_enter(&mut self, prov: u32) {
        self.attribute(prov);
        self.open.push(Instant::now());
    }

    fn loop_exit(&mut self, node: usize, trips: u64) {
        let t0 = self.open.pop().expect("loop_exit pairs with loop_enter");
        let wall_ns = t0.elapsed().as_nanos();
        let depth = self.open.len() as u32;
        let e = self.loops.entry(node).or_insert((depth, 0, 0, 0));
        e.1 += 1;
        e.2 += trips;
        e.3 += wall_ns;
    }
}

// ---------------------------------------------------------------------------
// Fusion: flat Op stream → fused op stream.
// ---------------------------------------------------------------------------

/// An op after peephole fusion, still at the symbolic operand level:
/// float ops in the shared vocabulary over the lowered program's own
/// operands, everything else — loop structure and integer bookkeeping
/// — passed through.
#[derive(Debug, Clone, Copy)]
enum FOp<'a> {
    Float(FloatOp<&'a Dst, &'a Src>),
    Pass(&'a Op),
}

/// Counts reads of each `$f` register across the whole program.
fn count_f_reads(code: &[Op]) -> HashMap<u32, usize> {
    let mut reads: HashMap<u32, usize> = HashMap::new();
    let mut see = |s: &Src| {
        if let Src::F(k) = s {
            *reads.entry(*k).or_insert(0) += 1;
        }
    };
    for op in code {
        match op {
            Op::Bin { a, b, .. } => {
                see(a);
                see(b);
            }
            Op::Un { a, .. } => see(a),
            _ => {}
        }
    }
    reads
}

/// Two addresses in the same region that provably never collide: same
/// affine terms, different constant base.
fn disjoint(x: &Addr, y: &Addr) -> bool {
    x.terms == y.terms && x.base != y.base
}

/// `true` when a write through `d` can never change the value read
/// through `s` (conservative: same-region addresses must be provably
/// disjoint).
fn alias_free(d: &Dst, s: &Src) -> bool {
    match (d, s) {
        (Dst::F(k), Src::F(j)) => k != j,
        (Dst::Out(da), Src::Out(sa)) => disjoint(da, sa),
        (Dst::Temp(da), Src::Temp(sa)) => disjoint(da, sa),
        _ => true,
    }
}

/// Destinations that may refer to the same storage (conservative).
fn dsts_alias(x: &Dst, y: &Dst) -> bool {
    match (x, y) {
        (Dst::F(a), Dst::F(b)) => a == b,
        (Dst::Out(a), Dst::Out(b)) => !disjoint(a, b),
        (Dst::Temp(a), Dst::Temp(b)) => !disjoint(a, b),
        _ => false,
    }
}

fn writes_of<'f, 'a>(f: &'f FOp<'a>) -> &'f [&'a Dst] {
    match f {
        FOp::Float(op) => op.dsts(),
        FOp::Pass(_) => &[],
    }
}

fn reads_of<'f, 'a>(f: &'f FOp<'a>) -> &'f [&'a Src] {
    match f {
        FOp::Float(op) => op.srcs(),
        FOp::Pass(_) => &[],
    }
}

/// Ops fusion never crosses: loop structure and integer bookkeeping
/// (whose register/loop-variable effects the float alias model does
/// not track).
fn is_barrier(f: &FOp) -> bool {
    matches!(f, FOp::Pass(_))
}

/// `true` when the op at `p` can be moved to the end of `out` (fused
/// into the op about to be emitted): its writes must commute with
/// every read and write after it, and its reads with every write.
/// Register-as-float reads are safe to move because `$r` and loop
/// variables only change at barrier ops, which bound the window.
fn can_pull(out: &[FOp], p: usize) -> bool {
    let (pw, pr) = (writes_of(&out[p]), reads_of(&out[p]));
    out[p + 1..].iter().all(|m| {
        let (mw, mr) = (writes_of(m), reads_of(m));
        pw.iter()
            .all(|w| mr.iter().all(|s| alias_free(w, s)) && mw.iter().all(|x| !dsts_alias(w, x)))
            && pr.iter().all(|r| mw.iter().all(|w| alias_free(w, r)))
    })
}

/// How far back (in already-emitted ops) fusion looks for a producer.
/// Generated complex arithmetic interleaves the real and imaginary
/// halves, so a multiply and its consuming add sit up to four ops
/// apart; eight gives headroom for unrolled leaves.
const FUSE_WINDOW: usize = 8;

/// Candidate producer positions in `out`, nearest first, bounded by
/// the window and never crossing a barrier.
fn window_positions<'o>(out: &'o [FOp<'o>]) -> impl Iterator<Item = usize> + 'o {
    (0..out.len())
        .rev()
        .take(FUSE_WINDOW)
        .take_while(|&q| !is_barrier(&out[q]))
}

/// The peephole fusion pass: one forward sweep that, at each emitted
/// add/sub, tries to pull a matching producer out of the recent
/// window — a negation to fold, an add to pair into a butterfly, or a
/// multiply to fuse into a multiply–add. Every rewrite preserves the
/// exact f64 rounding sequence of the unfused program.
///
/// `prov` is per-input-op formula-node provenance (empty or parallel
/// to `code`); the returned second vector carries it over per fused
/// op, a fused macro-op inheriting its *consumer's* node.
fn fuse<'a>(code: &'a [Op], prov: &[u32], stats: &mut ResolveStats) -> (Vec<FOp<'a>>, Vec<u32>) {
    let reads = count_f_reads(code);
    let single = |k: &u32| reads.get(k).copied().unwrap_or(0) == 1;
    let has_prov = prov.len() == code.len();
    let mut out: Vec<FOp> = Vec::with_capacity(code.len());
    let mut provs: Vec<u32> = Vec::with_capacity(if has_prov { code.len() } else { 0 });

    for (pc, op) in code.iter().enumerate() {
        let cur_prov = if has_prov { prov[pc] } else { 0 };
        let mut cur = match op {
            Op::Bin { op, dst, a, b } => {
                let kind = match op {
                    BinOp::Add => Arith::Add,
                    BinOp::Sub => Arith::Sub,
                    BinOp::Mul => Arith::Mul,
                    BinOp::Div => Arith::Div,
                };
                FloatOp::new(kind, &[dst], &[a, b])
            }
            Op::Un { neg, dst, a } => {
                FloatOp::new(if *neg { Arith::Neg } else { Arith::Copy }, &[dst], &[a])
            }
            _ => {
                out.push(FOp::Pass(op));
                provs.push(cur_prov);
                continue;
            }
        };

        // Negate folding: t = −s; …; d = x ± t → d = x ∓ s (the
        // remaining case (−s) − y has no single-op equivalent). The
        // rewrite feeds the butterfly/muladd attempts below.
        if let Arith::Add | Arith::Sub = cur.kind {
            let [a, b, _] = cur.s;
            let mut folded = None;
            for q in window_positions(&out) {
                let FOp::Float(FloatOp {
                    kind: Arith::Neg,
                    d: [Dst::F(k), _],
                    s: [s, ..],
                }) = &out[q]
                else {
                    continue;
                };
                if !single(k) || !can_pull(&out, q) {
                    continue;
                }
                let repl = match (cur.kind, a, b) {
                    // x + (−s) = x − s
                    (Arith::Add, x, Src::F(j)) if j == k => Some((Arith::Sub, x)),
                    // (−s) + y = y − s
                    (Arith::Add, Src::F(j), y) if j == k => Some((Arith::Sub, y)),
                    // x − (−s) = x + s
                    (Arith::Sub, x, Src::F(j)) if j == k => Some((Arith::Add, x)),
                    _ => None,
                };
                if let Some((kind, other)) = repl {
                    folded = Some((q, FloatOp::new(kind, &[cur.d[0]], &[other, *s])));
                    break;
                }
            }
            if let Some((q, repl)) = folded {
                out.remove(q);
                provs.remove(q);
                stats.fused_negfold += 1;
                cur = repl;
            }
        }

        // Butterfly: d1 = a + b; …; d2 = a − b over structurally
        // identical operands. The pulled add must not have clobbered
        // an operand the sub re-reads.
        if cur.kind == Arith::Sub {
            let [a, b, _] = cur.s;
            let hit = window_positions(&out).find(|&q| {
                matches!(
                    &out[q],
                    FOp::Float(FloatOp { kind: Arith::Add, d: [d1, _], s: [a2, b2, _] })
                        if *a2 == a && *b2 == b && alias_free(d1, a) && alias_free(d1, b)
                ) && can_pull(&out, q)
            });
            if let Some(q) = hit {
                let FOp::Float(add) = out.remove(q) else {
                    unreachable!("window candidate was an add");
                };
                provs.remove(q);
                out.push(FOp::Float(FloatOp::new(
                    Arith::Butterfly,
                    &[add.d[0], cur.d[0]],
                    &[a, b],
                )));
                provs.push(cur_prov);
                stats.fused_butterfly += 1;
                continue;
            }
        }

        // Multiply–add: t = a·b; …; d = t ± c or d = c − t, where t
        // is an `$f` register with exactly one reader.
        if let Arith::Add | Arith::Sub = cur.kind {
            let [a, b, _] = cur.s;
            let mut hit = None;
            for q in window_positions(&out) {
                if let FOp::Float(FloatOp {
                    kind: Arith::Mul,
                    d: [Dst::F(k), _],
                    ..
                }) = &out[q]
                {
                    if !single(k) || !can_pull(&out, q) {
                        continue;
                    }
                    if matches!(a, Src::F(j) if j == k) {
                        hit = Some((q, true));
                        break;
                    }
                    if matches!(b, Src::F(j) if j == k) {
                        hit = Some((q, false));
                        break;
                    }
                }
            }
            if let Some((q, t_is_left)) = hit {
                let FOp::Float(mul) = out.remove(q) else {
                    unreachable!("window candidate was a mul");
                };
                provs.remove(q);
                let kind = match (cur.kind, t_is_left) {
                    // t + c and c + t
                    (Arith::Add, _) => Arith::MulAdd,
                    // t − c
                    (_, true) => Arith::MulSub,
                    // c − t
                    (_, false) => Arith::NegMulAdd,
                };
                let c = if t_is_left { b } else { a };
                out.push(FOp::Float(FloatOp::new(
                    kind,
                    &[cur.d[0]],
                    &[mul.s[0], mul.s[1], c],
                )));
                provs.push(cur_prov);
                stats.fused_muladd += 1;
                continue;
            }
        }

        out.push(FOp::Float(cur));
        provs.push(cur_prov);
    }
    debug_assert_eq!(out.len(), provs.len());
    (out, if has_prov { provs } else { Vec::new() })
}

// ---------------------------------------------------------------------------
// Resolution: fused ops → cursors, strides, and block structure.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Region {
    In,
    Out,
    Temp,
    Table,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CursorKey {
    /// A cursor that stays on one arena cell: a fixed cell named beside
    /// a stepped operand.
    Fixed(u32),
    /// A strided memory operand: region, base, affine terms, and the
    /// innermost enclosing loop (node index; `usize::MAX` at top
    /// level). Identical operands in the same loop context share one
    /// cursor and one set of strides.
    Mem(Region, i64, Vec<(i64, u32)>, usize),
}

/// What a cursor points at — kept parallel to the cursor table for
/// vector-plan verification.
#[derive(Debug, Clone, PartialEq)]
enum CursorMeta {
    /// A fixed cell outside the four regions: `$f` register, immediate,
    /// or scratch spill. These never alias the strided regions
    /// (disjoint arena layout).
    Fixed,
    /// An operand in a region: the region and its region-relative
    /// affine terms (`(coefficient, loop-variable slot)`; none for a
    /// fixed cell of the region).
    Mem {
        region: Region,
        terms: Vec<(i64, u32)>,
    },
}

/// Where a resolved operand lives, before the form of its op is known.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// An arena cell no enclosing loop moves the operand off; made by
    /// [`Builder::cell`] only, so it is a cell of the arena.
    Cell(u32),
    /// A cursor some enclosing latch steps.
    Cursor(u32),
}

struct Frame {
    node_idx: usize,
    /// Index of the loop in [`Builder::loops`].
    loop_idx: usize,
    var: u32,
    lo: i64,
    hi: i64,
    trips: u64,
    steps: Vec<(u32, i64)>,
}

struct Builder {
    nodes: Vec<RNode>,
    ints: Vec<IntOp>,
    loops: Vec<LoopNode>,
    /// Formula-node provenance per resolved node, parallel to `nodes`
    /// (unused and left empty when the program carries none).
    node_prov: Vec<u32>,
    /// Provenance id of the fused op currently being resolved (spill
    /// nodes emitted for its operands inherit it).
    cur_prov: u32,
    has_prov: bool,
    steps: Vec<(u32, i64)>,
    init: Vec<i64>,
    arena_len: usize,
    arena_init: Vec<(u32, f64)>,
    cursor_map: HashMap<CursorKey, u32>,
    const_map: HashMap<u64, u32>,
    /// Per-cursor classification, parallel to `init`.
    cursor_meta: Vec<CursorMeta>,
    vec_plans: Vec<VecPlan>,
    frames: Vec<Frame>,
    track_loops: bool,
    /// `$r` registers / loop slots the program names so far (highest
    /// index + 1).
    need_r: usize,
    need_loop: usize,
    // Region offsets and lengths. The arena is laid out `$f` registers,
    // tables, input, output, temporaries, then immediates and scratch.
    f_off: usize,
    table_off: usize,
    in_off: usize,
    out_off: usize,
    temp_off: usize,
    n_in: usize,
    n_out: usize,
    temp_len: usize,
    n_tab: usize,
    stats: ResolveStats,
}

impl Builder {
    fn new(prog: &VmProgram, stats: ResolveStats) -> Builder {
        let f_off = 0;
        let table_off = f_off + prog.n_f;
        let in_off = table_off + prog.tables.len();
        let out_off = in_off + prog.n_in;
        let temp_off = out_off + prog.n_out;
        let arena_len = temp_off + prog.temp_len;
        let arena_init = prog
            .tables
            .iter()
            .enumerate()
            .map(|(i, &v)| ((table_off + i) as u32, v))
            .collect();
        Builder {
            nodes: Vec::new(),
            ints: Vec::new(),
            loops: Vec::new(),
            node_prov: Vec::new(),
            cur_prov: 0,
            has_prov: false,
            steps: Vec::new(),
            init: Vec::new(),
            arena_len,
            arena_init,
            cursor_map: HashMap::new(),
            const_map: HashMap::new(),
            cursor_meta: Vec::new(),
            vec_plans: Vec::new(),
            frames: Vec::new(),
            track_loops: false,
            need_r: 0,
            need_loop: 0,
            f_off,
            table_off,
            in_off,
            out_off,
            temp_off,
            n_in: prog.n_in,
            n_out: prog.n_out,
            temp_len: prog.temp_len,
            n_tab: prog.tables.len(),
            stats,
        }
    }

    /// Appends a node, mirroring the current op's provenance into the
    /// parallel `node_prov` table.
    fn push_node(&mut self, n: RNode) {
        self.nodes.push(n);
        if self.has_prov {
            self.node_prov.push(self.cur_prov);
        }
    }

    fn push_int(&mut self, op: IntOp) -> Result<(), Unsupported> {
        let k = u32::try_from(self.ints.len()).map_err(|_| Unsupported("program too large"))?;
        self.ints.push(op);
        self.push_node(RNode::Int(k));
        Ok(())
    }

    /// Appends a float op in the form its operands need: over cells
    /// when every one of them stays put, over cursors as soon as one is
    /// stepped — the fixed cells beside it then get a cursor each.
    fn push_float(&mut self, op: FloatOp<Place, Place>) -> Result<(), Unsupported> {
        let stepped = |p: &Place| matches!(p, Place::Cursor(_));
        let form = if op.d.iter().chain(&op.s).any(stepped) {
            self.stats.cursor_ops += 1;
            Form::Cursor
        } else {
            self.stats.cell_ops += 1;
            Form::Cell
        };
        let op = op.map(|o| {
            let (Operand::Src(place) | Operand::Dst(place)) = o;
            match (place, form) {
                (Place::Cursor(c), _) | (Place::Cell(c), Form::Cell) => Ok(c),
                (Place::Cell(cell), Form::Cursor) => self.cursor_at(cell),
            }
        })?;
        self.push_node(RNode::float(form, op));
        Ok(())
    }

    /// `cell` as nodes and cursors store it: fact 2 on
    /// [`ResolvedProgram::run_with`] is this check (the arena only
    /// grows from here on).
    fn cell(&self, cell: usize) -> Result<u32, Unsupported> {
        if cell >= self.arena_len {
            return Err(Unsupported("operand outside the arena"));
        }
        u32::try_from(cell).map_err(|_| Unsupported("arena overflow"))
    }

    /// The region `cell` lies in; `None` for `$f` registers, immediates
    /// and scratch.
    fn region_of(&self, cell: u32) -> Option<Region> {
        let cell = cell as usize;
        if cell < self.table_off || cell >= self.temp_off + self.temp_len {
            None
        } else if cell < self.in_off {
            Some(Region::Table)
        } else if cell < self.out_off {
            Some(Region::In)
        } else if cell < self.temp_off {
            Some(Region::Out)
        } else {
            Some(Region::Temp)
        }
    }

    fn new_cursor(&mut self, init: i64, meta: CursorMeta) -> Result<u32, Unsupported> {
        let id = u32::try_from(self.init.len()).map_err(|_| Unsupported("cursor overflow"))?;
        self.init.push(init);
        self.cursor_meta.push(meta);
        Ok(id)
    }

    /// A cursor permanently pointing at one arena cell, for a fixed
    /// operand of a cursor-form op or a broadcast of a vector plan.
    fn cursor_at(&mut self, cell: u32) -> Result<u32, Unsupported> {
        if let Some(&c) = self.cursor_map.get(&CursorKey::Fixed(cell)) {
            return Ok(c);
        }
        let meta = match self.region_of(cell) {
            Some(region) => CursorMeta::Mem {
                region,
                terms: Vec::new(),
            },
            None => CursorMeta::Fixed,
        };
        let c = self.new_cursor(i64::from(cell), meta)?;
        self.cursor_map.insert(CursorKey::Fixed(cell), c);
        Ok(c)
    }

    /// Forgets the cursors from id `first` on: those a declined vector
    /// plan made for operands no node names.
    fn drop_cursors_from(&mut self, first: usize) {
        if first < self.init.len() {
            self.init.truncate(first);
            self.cursor_meta.truncate(first);
            self.cursor_map.retain(|_, c| (*c as usize) < first);
        }
    }

    /// A fresh tail cell (immediates, scratch spills).
    fn alloc_cell(&mut self) -> Result<u32, Unsupported> {
        self.arena_len += 1;
        self.cell(self.arena_len - 1)
    }

    fn const_cell(&mut self, v: f64) -> Result<u32, Unsupported> {
        if let Some(&c) = self.const_map.get(&v.to_bits()) {
            return Ok(c);
        }
        let c = self.alloc_cell()?;
        self.const_map.insert(v.to_bits(), c);
        self.arena_init.push((c, v));
        Ok(c)
    }

    fn f_cell(&self, k: u32) -> Result<u32, Unsupported> {
        let cell = self.f_off + k as usize;
        if cell >= self.table_off {
            return Err(Unsupported("$f register outside the register file"));
        }
        self.cell(cell)
    }

    /// Resolves a memory operand: folds loop-invariant components into
    /// its initial address and bounds-checks the reachable address box
    /// against the region. An address no enclosing loop moves is that
    /// cell; any other gets a cursor (deduplicated per loop context)
    /// with latch strides registered on the enclosing loops.
    fn mem(&mut self, region: Region, addr: &Addr) -> Result<Place, Unsupported> {
        let (region_off, region_len) = match region {
            Region::In => (self.in_off, self.n_in),
            Region::Out => (self.out_off, self.n_out),
            Region::Temp => (self.temp_off, self.temp_len),
            Region::Table => (self.table_off, self.n_tab),
        };
        // Per-frame coefficient (0 when the frame's variable does not
        // appear); every term must be bound by an enclosing frame.
        let mut coeffs = vec![0i64; self.frames.len()];
        for &(c, slot) in &addr.terms {
            // Innermost binding wins, matching the executor's view of
            // the current variable value.
            let j = self
                .frames
                .iter()
                .rposition(|f| f.var == slot)
                .ok_or(Unsupported(
                    "subscript references an out-of-scope loop variable",
                ))?;
            coeffs[j] = coeffs[j]
                .checked_add(c)
                .ok_or(Unsupported("address overflow"))?;
        }
        // An op under a zero-trip loop can never execute: its operands
        // are not bounds-checked, so none of them is promoted to a cell.
        let reachable = self.frames.iter().all(|f| f.trips > 0);
        let fixed = reachable && coeffs.iter().all(|&c| c == 0);
        let ctx = self.frames.last().map(|f| f.node_idx).unwrap_or(usize::MAX);
        let key = CursorKey::Mem(region, addr.base, addr.terms.clone(), ctx);
        if !fixed {
            if let Some(&c) = self.cursor_map.get(&key) {
                return Ok(Place::Cursor(c));
            }
        }
        if reachable {
            let mut min = addr.base as i128;
            let mut max = addr.base as i128;
            for (j, &c) in coeffs.iter().enumerate() {
                let a = c as i128 * self.frames[j].lo as i128;
                let b = c as i128 * self.frames[j].hi as i128;
                min += a.min(b);
                max += a.max(b);
            }
            if min < 0 || max >= region_len as i128 {
                return Err(Unsupported("address range leaves its region"));
            }
        }
        self.stats.hoisted_terms += addr.terms.len() as u64;
        if fixed {
            return self.cell(region_off + addr.base as usize).map(Place::Cell);
        }
        // Initial value: base + region offset + Σ coeff·lo.
        let mut init = (region_off as i64)
            .checked_add(addr.base)
            .ok_or(Unsupported("address overflow"))?;
        for (j, &c) in coeffs.iter().enumerate() {
            let t = c
                .checked_mul(self.frames[j].lo)
                .ok_or(Unsupported("address overflow"))?;
            init = init.checked_add(t).ok_or(Unsupported("address overflow"))?;
        }
        let cursor = self.new_cursor(
            init,
            CursorMeta::Mem {
                region,
                terms: addr.terms.clone(),
            },
        )?;
        // Latch strides: S_j = coeff_j − coeff_{j+1}·trips_{j+1}
        // (frames are outer→inner; the innermost stride is its raw
        // coefficient).
        for j in 0..self.frames.len() {
            let inner = if j + 1 < self.frames.len() {
                let t = i64::try_from(self.frames[j + 1].trips)
                    .map_err(|_| Unsupported("trip-count overflow"))?;
                coeffs[j + 1]
                    .checked_mul(t)
                    .ok_or(Unsupported("address overflow"))?
            } else {
                0
            };
            let s = coeffs[j]
                .checked_sub(inner)
                .ok_or(Unsupported("address overflow"))?;
            if s != 0 {
                self.frames[j].steps.push((cursor, s));
                self.stats.strength_reduced_steps += 1;
            }
        }
        self.cursor_map.insert(key, cursor);
        Ok(Place::Cursor(cursor))
    }

    fn use_r(&mut self, k: u32) {
        self.need_r = self.need_r.max(k as usize + 1);
    }

    fn use_loop(&mut self, slot: u32) {
        self.need_loop = self.need_loop.max(slot as usize + 1);
    }

    /// Resolves a source operand, emitting spill ops for the rare
    /// register-as-float reads.
    fn src(&mut self, s: &Src) -> Result<Place, Unsupported> {
        match s {
            Src::In(a) => self.mem(Region::In, a),
            Src::Out(a) => self.mem(Region::Out, a),
            Src::Temp(a) => self.mem(Region::Temp, a),
            Src::Table(a) => self.mem(Region::Table, a),
            Src::F(k) => self.f_cell(*k).map(Place::Cell),
            Src::Const(v) => self.const_cell(*v).map(Place::Cell),
            Src::RF(k) => {
                self.use_r(*k);
                let d = self.alloc_cell()?;
                self.push_int(IntOp::RToCell { d, r_idx: *k })?;
                Ok(Place::Cell(d))
            }
            Src::LoopF(k) => {
                self.track_loops = true;
                self.use_loop(*k);
                let d = self.alloc_cell()?;
                self.push_int(IntOp::LoopToCell { d, slot: *k })?;
                Ok(Place::Cell(d))
            }
        }
    }

    fn dst(&mut self, d: &Dst) -> Result<Place, Unsupported> {
        match d {
            Dst::Out(a) => self.mem(Region::Out, a),
            Dst::Temp(a) => self.mem(Region::Temp, a),
            Dst::F(k) => self.f_cell(*k).map(Place::Cell),
        }
    }

    fn ri(&mut self, s: &ISrc) -> RI {
        match s {
            ISrc::Const(c) => RI::Const(*c),
            ISrc::R(k) => {
                self.use_r(*k);
                RI::R(*k)
            }
            ISrc::Loop(k) => {
                self.track_loops = true;
                self.use_loop(*k);
                RI::Loop(*k)
            }
        }
    }

    /// Attempts to build a lane-wide plan for the innermost loop of two
    /// or more trips whose body is `self.nodes[frame.node_idx + 1..]`.
    /// Returns `None` — the loop runs scalar — unless lane safety is
    /// provable from the resolved nodes alone, by the conditions of the
    /// module doc's item 4. The width bound holds because two iterations
    /// that far apart never share a chunk that wide, and distance-0
    /// conflicts keep op order per lane.
    ///
    /// A lane-wide operand in memory is read through a cursor, so the
    /// fixed cells the body broadcasts get one each here.
    fn vec_plan(&mut self, frame: &Frame) -> Option<VecPlan> {
        let trips = frame.trips;
        let first = frame.node_idx + 1;
        let stride = |terms: &[(i64, u32)]| -> i64 {
            terms
                .iter()
                .filter(|&&(_, slot)| slot == frame.var)
                .map(|&(c, _)| c)
                .sum()
        };
        let outer = |terms: &[(i64, u32)]| -> Vec<(i64, u32)> {
            terms
                .iter()
                .copied()
                .filter(|&(_, slot)| slot != frame.var)
                .collect()
        };
        struct MemUse {
            cursor: u32,
            region: Region,
            s: i64,
            outer: Vec<(i64, u32)>,
            write: bool,
        }
        /// What an operand of either node form names.
        enum Named {
            /// A `$f` register, immediate or scratch cell.
            Fixed(u32),
            /// A cursor over one of the regions.
            Mem(u32),
        }
        // Re-express the body over lane-wide operands, classifying
        // each fixed cell's role as it is met (sources before
        // destinations within an op) and collecting the region
        // accesses. A role, once given, is final: a broadcast cell
        // written later is loop-carried and demotes the loop.
        let mut lane_of: HashMap<u32, u16> = HashMap::new();
        let mut lane_cells: Vec<u32> = Vec::new();
        let mut broadcast: HashSet<u32> = HashSet::new();
        let mut mems: Vec<MemUse> = Vec::new();
        let mut ops = Vec::with_capacity(self.nodes.len() - first);
        for i in first..self.nodes.len() {
            // A nested loop, `$r` arithmetic or a spill ends it here.
            let (form, op) = self.nodes[i].as_float()?;
            let lane_wide = op.map(|o| {
                let (k, write) = match o {
                    Operand::Src(k) => (k, false),
                    Operand::Dst(k) => (k, true),
                };
                let named = match form {
                    Form::Cursor => match self.cursor_meta[k as usize] {
                        CursorMeta::Fixed => Named::Fixed(self.init[k as usize] as u32),
                        CursorMeta::Mem { .. } => Named::Mem(k),
                    },
                    Form::Cell => match self.region_of(k) {
                        None => Named::Fixed(k),
                        Some(_) => Named::Mem(self.cursor_at(k).map_err(drop)?),
                    },
                };
                match named {
                    Named::Mem(c) => {
                        let CursorMeta::Mem { region, terms } = &self.cursor_meta[c as usize]
                        else {
                            unreachable!("a region cell's cursor is classified by its region");
                        };
                        let s = stride(terms);
                        if write && s < 1 {
                            return Err(()); // stationary or backward write
                        }
                        mems.push(MemUse {
                            cursor: c,
                            region: *region,
                            s,
                            outer: outer(terms),
                            write,
                        });
                        Ok(VOperand::Mem { c, s })
                    }
                    Named::Fixed(cell) => {
                        if let Some(&k) = lane_of.get(&cell) {
                            return Ok(VOperand::Lane(k));
                        }
                        if !write {
                            broadcast.insert(cell);
                            let c = self.cursor_at(cell).map_err(drop)?;
                            return Ok(VOperand::Mem { c, s: 0 });
                        }
                        // First write: a lane register, unless the cell
                        // was read before it (loop-carried).
                        if broadcast.contains(&cell) || lane_cells.len() >= MAX_LANE_CELLS {
                            return Err(());
                        }
                        let k = lane_cells.len() as u16;
                        lane_of.insert(cell, k);
                        lane_cells.push(cell);
                        Ok(VOperand::Lane(k))
                    }
                }
            });
            ops.push(lane_wide.ok()?);
        }
        // The full address interval an access can take across the open
        // loop nest: cursor init values already include every var's
        // `lo` term, so each outer var adds `coeff·(var − lo)` over
        // `0 ‥ hi − lo` and the hinted var adds `s·t` over
        // `0 ‥ trips − 1`. `None` when an outer term's loop is not on
        // the frame stack (not provably boundable).
        let range_of = |m: &MemUse| -> Option<(i128, i128)> {
            let base = self.init[m.cursor as usize] as i128;
            let inner = m.s as i128 * (trips as i128 - 1);
            let (mut lo, mut hi) = (base + inner.min(0), base + inner.max(0));
            for &(c, slot) in &m.outer {
                let f = self.frames.iter().find(|f| f.var == slot)?;
                let span = c as i128 * (f.hi as i128 - f.lo as i128);
                lo += span.min(0);
                hi += span.max(0);
            }
            Some((lo, hi))
        };
        // Alias verification: each strided write against every other
        // same-region access. When both subscripts share their outer
        // terms and stride, the address delta is invariant under the
        // outer loops and an exact iteration-distance test applies;
        // otherwise fall back to whole-range disjointness — regions
        // pack several temp buffers into one arena, and accesses to
        // different buffers have overlapping-looking strides but
        // disjoint intervals. `nearest` is the smallest iteration
        // distance (within the trip range) at which two accesses meet.
        let mut nearest = u64::MAX;
        for w in mems.iter().filter(|m| m.write) {
            for x in &mems {
                if x.cursor == w.cursor || x.region != w.region {
                    continue;
                }
                if x.outer != w.outer || (x.s != w.s && x.s != 0) {
                    let (Some((wl, wh)), Some((xl, xh))) = (range_of(w), range_of(x)) else {
                        return None;
                    };
                    if wh < xl || xh < wl {
                        continue; // provably disjoint buffers
                    }
                    return None;
                }
                let db = self.init[x.cursor as usize] - self.init[w.cursor as usize];
                if x.s == w.s {
                    if db % w.s == 0 {
                        let delta = (db / w.s).unsigned_abs();
                        if delta >= 1 && delta < trips {
                            nearest = nearest.min(delta);
                        }
                    }
                } else {
                    // x.s == 0: strided write vs loop-invariant read —
                    // any collision in the trip range breaks broadcast.
                    if db % w.s == 0 {
                        let t = db / w.s;
                        if t >= 0 && (t as u64) < trips {
                            return None;
                        }
                    }
                }
            }
        }
        // Accesses that meet one iteration apart allow no width.
        let width = LANE_WIDTHS.into_iter().find(|&w| w as u64 <= nearest)?;
        let prov = if self.has_prov {
            self.node_prov[first..].to_vec()
        } else {
            Vec::new()
        };
        Some(VecPlan {
            ops,
            width,
            prov,
            lane_cells,
        })
    }
}

// ---------------------------------------------------------------------------
// Pairing: runs of cell-form nodes → pair nodes.
// ---------------------------------------------------------------------------

/// The pair node running `l0` in lane 0 and `l1` in lane 1, `twin`
/// their kinds; `None` when a lane-1 cell is not within an `i8` of its
/// lane-0 cell, or a butterfly would write one cell twice.
fn pair_node(twin: Twin, l0: &FloatOp<u32, u32>, l1: &FloatOp<u32, u32>) -> Option<RNode> {
    debug_assert_eq!(twin.lanes(), [l0.kind, l1.kind]);
    if twin == Twin::Butterfly && (l0.d[0] == l0.d[1] || l1.d[0] == l1.d[1]) {
        return None;
    }
    let (nd, ns) = l0.kind.arity();
    let operand = |op: &FloatOp<u32, u32>, k: usize| if k < nd { op.d[k] } else { op.s[k - nd] };
    let (mut c, mut off) = ([0; 4], [0; 4]);
    for k in 0..4 {
        // Past the arity, slot 0 again.
        let k_op = if k < nd + ns { k } else { 0 };
        let (x, y) = (operand(l0, k_op), operand(l1, k_op));
        c[k] = x;
        off[k] = i8::try_from(i64::from(y) - i64::from(x)).ok()?;
    }
    Some(RNode::Pair { kind: twin, c, off })
}

/// The pairing pass: `nodes` with each cell-form op that finds a partner
/// no more than [`FUSE_WINDOW`] nodes further down its run fused with it
/// into one [`RNode::Pair`]. A run of cell-form nodes ends at any other
/// node and at every loop's end, so no op leaves its loop body. The
/// partner is the first later op of a kind [`Twin::of`] pairs with it,
/// of the same formula node when the program carries provenance, that
/// can move up over the first op and over every op still between them,
/// and whose cells fit the node ([`pair_node`]). Moving up is legal when
/// the partner reads no cell those ops write and writes no cell they
/// read or write; operands are cells, so the test is exact. Loop
/// ends and the provenance table (`prov`, parallel to `nodes` or empty)
/// are remapped to the new indices. Each pair is one node fewer: the
/// pass compacts `nodes` in place, never writing past the node it
/// reads.
fn pair_cells(nodes: &mut Vec<RNode>, prov: &mut Vec<u32>, loops: &mut [LoopNode]) {
    let n = nodes.len();
    let mut run_ends = vec![false; n + 1];
    for lp in loops.iter() {
        run_ends[lp.end as usize] = true;
    }
    let cell_op = |nodes: &[RNode], k: usize| match nodes[k] {
        RNode::Cell { kind, d, s } => Some(FloatOp { kind, d, s }),
        _ => None,
    };
    let mut taken = vec![false; n];
    let mut new_at = vec![0; n + 1];
    let mut out = 0;
    for i in 0..n {
        new_at[i] = out;
        if taken[i] {
            continue;
        }
        let mut node = nodes[i];
        if let Some(first) = cell_op(nodes, i) {
            for j in i + 1..n.min(i + 1 + FUSE_WINDOW) {
                let Some(later) = cell_op(nodes, j).filter(|_| !run_ends[j]) else {
                    break;
                };
                if taken[j] || (!prov.is_empty() && prov[j] != prov[i]) {
                    continue;
                }
                let Some((twin, swap)) = Twin::of(first.kind, later.kind) else {
                    continue;
                };
                // The ops the partner moves over: the first op and every
                // untaken op between them.
                let clash = |m: FloatOp<u32, u32>| {
                    let (mw, mr) = (m.dsts(), m.srcs());
                    later.srcs().iter().any(|s| mw.contains(s))
                        || later
                            .dsts()
                            .iter()
                            .any(|d| mw.contains(d) || mr.contains(d))
                };
                if (i..j).any(|k| !taken[k] && cell_op(nodes, k).is_some_and(clash)) {
                    continue;
                }
                let (l0, l1) = if swap {
                    (&later, &first)
                } else {
                    (&first, &later)
                };
                if let Some(pair) = pair_node(twin, l0, l1) {
                    node = pair;
                    taken[j] = true;
                    break;
                }
            }
        }
        nodes[out] = node;
        if !prov.is_empty() {
            prov[out] = prov[i];
        }
        out += 1;
    }
    nodes.truncate(out);
    prov.truncate(out);
    new_at[n] = out;
    for lp in loops.iter_mut() {
        // No more nodes precede the end than before: it still fits.
        lp.end = new_at[lp.end as usize] as u32;
    }
}

/// Resolves a lowered program into the fused, block-structured engine,
/// or reports why it must stay on the reference executor.
pub(crate) fn resolve(prog: &VmProgram) -> Result<ResolvedProgram, Unsupported> {
    let mut stats = ResolveStats::default();
    let (fused, fprov) = fuse(prog.code(), prog.prov(), &mut stats);

    // Fusion shifts indices, so the original `end_pc` links are void;
    // re-match loop starts to their `hi` bound over the fused stream.
    let mut hi_at: HashMap<usize, i64> = HashMap::new();
    {
        let mut stack = Vec::new();
        for (idx, fop) in fused.iter().enumerate() {
            match fop {
                FOp::Pass(Op::LoopStart { .. }) => stack.push(idx),
                FOp::Pass(Op::LoopEnd { hi, .. }) => {
                    let start = stack.pop().ok_or(Unsupported("malformed loop structure"))?;
                    hi_at.insert(start, *hi);
                }
                _ => {}
            }
        }
        if !stack.is_empty() {
            return Err(Unsupported("malformed loop structure"));
        }
    }

    let mut b = Builder::new(prog, stats);
    b.has_prov = !fprov.is_empty();
    for (idx, fop) in fused.iter().enumerate() {
        if b.has_prov {
            b.cur_prov = fprov[idx];
        }
        match fop {
            FOp::Float(op) => {
                let op = op.map(|o| match o {
                    Operand::Src(s) => b.src(s),
                    Operand::Dst(d) => b.dst(d),
                })?;
                b.push_float(op)?;
            }
            FOp::Pass(Op::LoopStart { var, lo, .. }) => {
                if b.frames.iter().any(|f| f.var == *var) {
                    // Shadowed loop variables would need scoped
                    // cursor contexts; fall back instead.
                    return Err(Unsupported("nested loops share a variable slot"));
                }
                let hi = *hi_at
                    .get(&idx)
                    .ok_or(Unsupported("malformed loop structure"))?;
                let trips = if *lo > hi {
                    0
                } else {
                    u64::try_from(hi as i128 - *lo as i128 + 1)
                        .map_err(|_| Unsupported("trip-count overflow"))?
                };
                b.use_loop(*var);
                b.frames.push(Frame {
                    node_idx: b.nodes.len(),
                    loop_idx: b.loops.len(),
                    var: *var,
                    lo: *lo,
                    hi,
                    trips,
                    steps: Vec::new(),
                });
                let k =
                    u32::try_from(b.loops.len()).map_err(|_| Unsupported("program too large"))?;
                // `end`, `steps` and `vec` are known at the loop's end.
                b.loops.push(LoopNode {
                    trips,
                    var: *var,
                    lo: *lo,
                    end: 0,
                    steps: (0, 0),
                    vec: None,
                });
                b.push_node(RNode::Loop(k));
            }
            FOp::Pass(Op::LoopEnd { .. }) => {
                let frame = b
                    .frames
                    .pop()
                    .ok_or(Unsupported("malformed loop structure"))?;
                // No loop was opened inside this one: it is innermost.
                let innermost = frame.loop_idx + 1 == b.loops.len();
                let vec = if innermost && frame.trips >= 2 {
                    let cursors = b.init.len();
                    match b.vec_plan(&frame) {
                        Some(plan) => {
                            b.stats.vec_loops += 1;
                            b.stats.vec_ops += plan.ops.len() as u64;
                            let id = u32::try_from(b.vec_plans.len())
                                .map_err(|_| Unsupported("program too large"))?;
                            b.vec_plans.push(plan);
                            Some(id)
                        }
                        None => {
                            b.drop_cursors_from(cursors);
                            b.stats.vec_demoted += 1;
                            None
                        }
                    }
                } else {
                    None
                };
                let s0 = u32::try_from(b.steps.len()).map_err(|_| Unsupported("step overflow"))?;
                b.steps.extend_from_slice(&frame.steps);
                let s1 = u32::try_from(b.steps.len()).map_err(|_| Unsupported("step overflow"))?;
                let end =
                    u32::try_from(b.nodes.len()).map_err(|_| Unsupported("program too large"))?;
                let lp = &mut b.loops[frame.loop_idx];
                (lp.end, lp.steps, lp.vec) = (end, (s0, s1), vec);
            }
            FOp::Pass(Op::IntBin { op, dst, a, b: rhs }) => {
                let a = b.ri(a);
                let rhs = b.ri(rhs);
                b.use_r(*dst);
                b.push_int(IntOp::Bin {
                    op: *op,
                    dst: *dst,
                    a,
                    b: rhs,
                })?;
            }
            FOp::Pass(Op::IntUn { neg, dst, a }) => {
                let a = b.ri(a);
                b.use_r(*dst);
                b.push_int(IntOp::Un {
                    neg: *neg,
                    dst: *dst,
                    a,
                })?;
            }
            FOp::Pass(Op::Bin { .. } | Op::Un { .. }) => {
                unreachable!("fusion puts every float op in the shared vocabulary")
            }
        }
    }
    if !b.frames.is_empty() {
        return Err(Unsupported("malformed loop structure"));
    }
    let mut stats = b.stats;
    stats.cursors = b.init.len() as u64;
    if !b.has_prov || b.node_prov.len() != b.nodes.len() {
        b.node_prov.clear();
    }
    let singles = b.nodes.len();
    pair_cells(&mut b.nodes, &mut b.node_prov, &mut b.loops);
    stats.pair_nodes = (singles - b.nodes.len()) as u64;
    // The state tag, FNV-1a over words (a 2^16 plan presets ~10^5
    // table cells): the program's shape, then its constants.
    let shape = [b.nodes.len(), b.init.len(), b.arena_len].map(|n| n as u64);
    let constants = b.arena_init.iter();
    let tag = shape
        .into_iter()
        .chain(constants.flat_map(|&(cell, v)| [u64::from(cell), v.to_bits()]))
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, word| {
            (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        });
    Ok(ResolvedProgram {
        node_prov: b.node_prov,
        nodes: b.nodes,
        ints: b.ints,
        loops: b.loops,
        steps: b.steps,
        init_cursors: b.init,
        arena_init: b.arena_init,
        arena_len: b.arena_len,
        in_off: b.in_off,
        n_in: b.n_in,
        out_off: b.out_off,
        n_out: b.n_out,
        track_loops: b.track_loops,
        need_r: b.need_r,
        need_loop: b.need_loop,
        vec_plans: b.vec_plans,
        tag,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::OP_CLASS_NAMES;
    use crate::program::lower;
    use spl_compiler::{Compiler, CompilerOptions};
    use spl_generator::fft::FftTree;

    /// `src` as the benchmark compiles its plans: leaves of up to 64
    /// points unrolled.
    fn compile(src: &str) -> VmProgram {
        let mut c = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(64),
            ..Default::default()
        });
        lower(&c.compile_formula_str(src).unwrap().program).unwrap()
    }

    /// The plans of `benchmark/plans.wisdom` up to `max` points, by size.
    fn plans(max: usize) -> Vec<(usize, VmProgram)> {
        include_str!("../../../benchmark/plans.wisdom")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split_once(':').expect("size: spec"))
            .map(|(n, spec)| (n.trim().parse().unwrap(), spec.trim()))
            .filter(|&(n, _)| n <= max)
            .map(|(n, spec)| {
                let tree = FftTree::from_spec(spec).unwrap();
                (n, compile(&tree.to_sexp().to_string()))
            })
            .collect()
    }

    /// The ops of a cell-form node in lane order: one for a single node,
    /// two for a pair, none for any other node.
    fn ops_of(node: &RNode) -> Vec<FloatOp<u32, u32>> {
        match *node {
            RNode::Cell { kind, d, s } => vec![FloatOp { kind, d, s }],
            RNode::Pair { kind, c, off } => {
                let lane1: Vec<u32> = c
                    .iter()
                    .zip(off)
                    .map(|(&x, o)| x.wrapping_add_signed(i32::from(o)))
                    .collect();
                kind.lanes()
                    .into_iter()
                    .zip([&c[..], &lane1[..]])
                    .map(|(k, cells)| {
                        let (nd, ns) = k.arity();
                        FloatOp::new(k, &cells[..nd], &cells[nd..nd + ns])
                    })
                    .collect()
            }
            RNode::Cursor { .. } | RNode::Int(_) | RNode::Loop(_) => Vec::new(),
        }
    }

    #[test]
    fn a_node_is_three_words() {
        assert!(std::mem::size_of::<RNode>() <= 24);
        // ... because the tag shares a word with the kind; the op alone
        // is as large.
        assert_eq!(std::mem::size_of::<FloatOp<u32, u32>>(), 24);
    }

    #[test]
    fn straight_line_code_has_no_cursor() {
        let small = plans(64);
        assert_eq!(small.len(), 6);
        for (n, vm) in small {
            let rp = resolve(&vm).unwrap();
            assert!(rp.loops.is_empty() && rp.ints.is_empty(), "n={n}");
            assert!(
                rp.nodes
                    .iter()
                    .all(|n| matches!(n, RNode::Cell { .. } | RNode::Pair { .. })),
                "n={n}"
            );
            assert_eq!(rp.stats.cursors, 0, "n={n}");
            assert_eq!(
                (rp.stats.cell_ops, rp.stats.cursor_ops),
                (rp.nodes.len() as u64 + rp.stats.pair_nodes, 0),
                "n={n}"
            );
            assert!(rp.init_cursors.is_empty(), "n={n}");
            assert!(VmState::new(&vm).cur.is_empty(), "n={n}");
        }
    }

    /// Marks, per loop, every cell a cursor its latch steps stands on
    /// at the start of one of its iterations.
    fn sweep(rp: &ResolvedProgram, nodes: Range<usize>, cur: &mut [i64], swept: &mut [Vec<bool>]) {
        let mut i = nodes.start;
        while i < nodes.end {
            let RNode::Loop(k) = rp.nodes[i] else {
                i += 1;
                continue;
            };
            let lp = &rp.loops[k as usize];
            let stp = &rp.steps[lp.steps.0 as usize..lp.steps.1 as usize];
            for _ in 0..lp.trips {
                for &(c, _) in stp {
                    swept[k as usize][cur[c as usize] as usize] = true;
                }
                sweep(rp, i + 1..lp.end as usize, cur, swept);
                for &(c, d) in stp {
                    cur[c as usize] += d;
                }
            }
            i = lp.end as usize;
        }
    }

    /// Walks the built program: inside a loop body, no cell-form op may
    /// name a cell that a cursor stepped by an enclosing latch sweeps —
    /// generated loops sweep what they index and keep the rest in `$f`
    /// registers, so such an op would be one whose stepped operand the
    /// builder froze at its first cell. Returns the cell-form ops met
    /// inside loops.
    fn cell_ops_keep_off_swept_cells(vm: &VmProgram, label: &str) -> usize {
        let rp = resolve(vm).unwrap();
        let mut swept = vec![vec![false; rp.arena_len]; rp.loops.len()];
        let all = 0..rp.nodes.len();
        sweep(&rp, all.clone(), &mut rp.init_cursors.clone(), &mut swept);
        let mut open: Vec<u32> = Vec::new();
        let mut in_loops = 0;
        for i in all {
            open.retain(|&k| (i as u32) < rp.loops[k as usize].end);
            match rp.nodes[i] {
                RNode::Loop(k) => open.push(k),
                RNode::Cell { .. } | RNode::Pair { .. } if !open.is_empty() => {
                    let ops = ops_of(&rp.nodes[i]);
                    in_loops += ops.len();
                    for &cell in ops.iter().flat_map(|op| op.dsts().iter().chain(op.srcs())) {
                        assert!((cell as usize) < rp.arena_len, "{label}: node {i}");
                        for &k in &open {
                            assert!(
                                !swept[k as usize][cell as usize],
                                "{label}: node {i} names cell {cell}, which loop {k} sweeps"
                            );
                        }
                    }
                }
                _ => {}
            }
        }
        in_loops
    }

    #[test]
    fn no_cell_form_op_names_a_cell_its_loops_sweep() {
        for (n, vm) in plans(1 << 16) {
            let in_loops = cell_ops_keep_off_swept_cells(&vm, &format!("plan {n}"));
            // The `$f` interior of a leaf in a loop is cell-form.
            assert_eq!(in_loops > 0, n > 64, "plan {n}");
        }
        // Loops all the way down, two deep: the inner body's operands
        // that only the outer loop moves must still be cursors.
        let mut c = Compiler::new();
        let src = "(compose (tensor (F 2) (I 8)) (T 16 8) (tensor (I 2) (F 8)) (L 16 2))";
        let vm = lower(&c.compile_formula_str(src).unwrap().program).unwrap();
        cell_ops_keep_off_swept_cells(&vm, src);
    }

    /// Per lane: a pair node counts as two ops, each in its lane's class.
    #[test]
    fn a_straight_line_profile_counts_each_node_in_its_class() {
        let (_, vm) = plans(64).pop().unwrap();
        let rp = resolve(&vm).unwrap();
        assert!(rp.stats.pair_nodes > 0);
        let mut want = [0u64; N_OP_CLASSES];
        for node in &rp.nodes {
            let ops = ops_of(node);
            assert!(!ops.is_empty(), "straight-line code is float ops");
            for op in ops {
                want[op.kind as usize] += 1;
            }
        }
        let x: Vec<f64> = (0..vm.n_in).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; vm.n_out];
        let prof = vm
            .run_profiled(&x, &mut y, &mut VmState::new(&vm))
            .expect("resolved");
        assert_eq!(prof.op_counts, want);
        assert!(want[Arith::MulAdd as usize] > 0 && want[Arith::Butterfly as usize] > 0);
        assert_eq!(prof.op_counts.iter().sum::<u64>(), rp.stats.cell_ops);
    }

    /// Every kind, in discriminant order, with the `(dsts, srcs)` and
    /// flop count the profile tables are laid out for.
    const KINDS: [(Arith, (usize, usize), u64); 10] = [
        (Arith::Add, (1, 2), 1),
        (Arith::Sub, (1, 2), 1),
        (Arith::Mul, (1, 2), 1),
        (Arith::Div, (1, 2), 1),
        (Arith::Copy, (1, 1), 0),
        (Arith::Neg, (1, 1), 1),
        (Arith::MulAdd, (1, 3), 2),
        (Arith::MulSub, (1, 3), 2),
        (Arith::NegMulAdd, (1, 3), 2),
        (Arith::Butterfly, (2, 2), 2),
    ];

    #[test]
    fn arith_discriminants_index_the_profile_tables() {
        for (slot, (kind, (nd, ns), flops)) in KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, slot, "{kind:?}");
            let name = format!("{kind:?}").to_lowercase();
            assert_eq!(OP_CLASS_NAMES[slot], name);
            assert_eq!(OP_CLASS_NAMES[VEC_CLASS_BASE + slot], format!("v{name}"));
            assert_eq!(OP_CLASS_FLOPS[slot], flops, "{name}");
            assert_eq!(OP_CLASS_FLOPS[VEC_CLASS_BASE + slot], flops, "v{name}");
            let op = FloatOp::new(kind, &[7u8, 8][..nd], &[1u8, 2, 3][..ns]);
            assert_eq!((op.dsts().len(), op.srcs().len()), (nd, ns), "{name}");
        }
        // The lane-wide classes fill the table to its end, and the four
        // integer classes sit between the two float blocks.
        assert_eq!(VEC_CLASS_BASE + KINDS.len(), N_OP_CLASSES);
        let spill = IntOp::RToCell { d: 0, r_idx: 0 };
        assert_eq!(spill.class(), KINDS.len());
        let un = IntOp::Un {
            neg: false,
            dst: 0,
            a: RI::Const(0),
        };
        assert_eq!(un.class(), VEC_CLASS_BASE - 1);
    }

    #[test]
    fn map_visits_sources_then_destinations_and_no_padding() {
        for (kind, (nd, ns), _) in KINDS {
            let op = FloatOp::new(kind, &[10u8, 11][..nd], &[1u8, 2, 3][..ns]);
            let mut seen = Vec::new();
            let mapped = op
                .map(|o| {
                    let v = match o {
                        Operand::Src(s) => s,
                        Operand::Dst(d) => d,
                    };
                    seen.push(v);
                    Ok::<_, ()>(u32::from(v) * 2)
                })
                .unwrap();
            let want: Vec<u8> = [1, 2, 3][..ns]
                .iter()
                .chain(&[10, 11][..nd])
                .copied()
                .collect();
            assert_eq!(seen, want, "{kind:?}");
            assert_eq!(mapped.kind, kind);
            assert_eq!(mapped.srcs(), &[2u32, 4, 6][..ns]);
            assert_eq!(mapped.dsts(), &[20u32, 22][..nd]);
        }
        // The first failure stops the walk: nothing after it is visited.
        let op = FloatOp::new(Arith::MulAdd, &[9u8], &[1u8, 2, 3]);
        let mut visits = 0;
        let r = op.map(|_| {
            visits += 1;
            if visits == 2 {
                Err("second")
            } else {
                Ok(0u32)
            }
        });
        assert_eq!((r, visits), (Err("second"), 2));
    }

    /// The i-code element `kind[c + k·i]`, `i` the loop variable.
    fn elem(kind: spl_icode::VecKind, c: i64, k: i64) -> spl_icode::Place {
        spl_icode::Place::Vec(spl_icode::VecRef {
            kind,
            idx: spl_icode::Affine {
                c,
                terms: vec![(k, spl_icode::LoopVar(0))],
            },
        })
    }

    /// `d = a op b`.
    fn bin(
        op: BinOp,
        d: spl_icode::Place,
        a: spl_icode::Place,
        b: spl_icode::Value,
    ) -> spl_icode::Instr {
        spl_icode::Instr::Bin {
            op,
            dst: d,
            a: spl_icode::Value::Place(a),
            b,
        }
    }

    /// `body` as one loop over `i < trips`, over `n_f` registers,
    /// lowered.
    fn one_loop(
        trips: i64,
        (n_in, n_out): (usize, usize),
        n_f: u32,
        body: Vec<spl_icode::Instr>,
    ) -> VmProgram {
        let mut instrs = vec![spl_icode::Instr::DoStart {
            var: spl_icode::LoopVar(0),
            lo: 0,
            hi: trips - 1,
            unroll: false,
        }];
        instrs.extend(body);
        instrs.push(spl_icode::Instr::DoEnd);
        lower(&spl_icode::IProgram {
            instrs,
            n_in,
            n_out,
            n_f,
            n_loop: 1,
            complex: false,
            ..spl_icode::IProgram::empty()
        })
        .unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `vm` on `x` from the output `y0`: the detected backend's `run`
    /// (and its profile), the forced-scalar run and `run_reference`
    /// must write the same bits.
    fn agree_bitwise(vm: &VmProgram, x: &[f64], y0: &[f64], label: &str) -> VmProfile {
        let run = |forced: bool| {
            simd::set_force_scalar(forced);
            let mut y = y0.to_vec();
            vm.run(x, &mut y, &mut VmState::new(vm));
            simd::set_force_scalar(false);
            y
        };
        let (y_vec, y_sca) = (run(false), run(true));
        let mut y_prof = y0.to_vec();
        let prof = vm
            .run_profiled(x, &mut y_prof, &mut VmState::new(vm))
            .expect("resolved");
        let mut y_ref = y0.to_vec();
        vm.run_reference(x, &mut y_ref, &mut VmState::new(vm));
        assert_eq!(bits(&y_vec), bits(&y_ref), "{label}: run vs reference");
        assert_eq!(bits(&y_sca), bits(&y_ref), "{label}: forced scalar");
        assert_eq!(bits(&y_prof), bits(&y_ref), "{label}: run_profiled");
        prof
    }

    #[test]
    fn every_rung_the_host_has_runs_bitwise() {
        use spl_icode::{Place::F, Value, VecKind::*};
        let _g = simd::override_lock();
        simd::set_force_scalar(false);
        let mut ran = [0u64; LANE_WIDTHS.len()];
        for trips in 1..=19 {
            // Stride 1, 2 and 6 loads, a broadcast, stride-2 stores to
            // the odd cells before the even ones (a store that wrote
            // between its lanes would be caught) and a stride-1 store.
            let half = Value::Const(spl_numeric::Complex::real(0.5));
            let vm = one_loop(
                trips,
                (6 * trips as usize, 3 * trips as usize),
                2,
                vec![
                    bin(BinOp::Mul, F(0), elem(In, 0, 2), half),
                    bin(
                        BinOp::Sub,
                        F(1),
                        elem(In, 1, 6),
                        Value::Place(elem(In, 0, 1)),
                    ),
                    bin(BinOp::Sub, elem(Out, 1, 2), F(0), Value::Place(F(1))),
                    bin(BinOp::Add, elem(Out, 0, 2), F(0), Value::Place(F(1))),
                    bin(
                        BinOp::Mul,
                        elem(Out, 2 * trips, 1),
                        elem(In, 1, 2),
                        Value::Place(F(1)),
                    ),
                ],
            );
            let stats = *vm.resolve_stats().expect("resolved");
            assert_eq!(stats.vec_loops, u64::from(trips >= 2), "trips {trips}");
            let x: Vec<f64> = (0..vm.n_in).map(|i| (i as f64 * 0.77).sin()).collect();
            let y0 = vec![3.0; vm.n_out];
            let prof = agree_bitwise(&vm, &x, &y0, &format!("trips {trips}"));
            // Every iteration of a planned loop but the last odd one is
            // lane-wide: five lane-ops each.
            let lane_wide = if trips >= 2 { trips - trips % 2 } else { 0 };
            let want = if simd::width() == 0 { 0 } else { 5 * lane_wide };
            assert_eq!(prof.vector_lane_ops(), want as u64, "trips {trips}");
            for (r, n) in ran.iter_mut().zip(prof.lane_ops_by_width) {
                *r += n;
            }
        }
        // What ran, for the log of a run with `--nocapture`.
        let by_width: Vec<String> = LANE_WIDTHS
            .iter()
            .zip(&ran)
            .map(|(w, n)| format!("{w}-wide {n}"))
            .collect();
        eprintln!(
            "backend {}: lane-ops {}",
            simd::backend_name(),
            by_width.join(", ")
        );
        for (&w, &n) in LANE_WIDTHS.iter().zip(&ran) {
            let on_host = w <= simd::width();
            assert_eq!(n > 0, on_host, "{w}-wide rung: {n} lane-ops");
        }
    }

    #[test]
    fn innermost_loops_are_planned_only_when_lane_safe() {
        use spl_icode::{Instr, LoopVar, Place::F, UnOp, Value, VecKind::*};
        let _g = simd::override_lock();
        simd::set_force_scalar(false);
        let k = |v: f64| Value::Const(spl_numeric::Complex::real(v));
        let copy = |d, a| Instr::Un {
            op: UnOp::Copy,
            dst: d,
            a,
        };
        // `out[4j + i] = in[4j + i]` in `do j { do i { … } }`: the inner
        // loop is offered, the outer one never is.
        let nested = {
            let at = |kind| {
                let mut a = spl_icode::Affine::constant(0);
                a.add_term(4, LoopVar(0));
                a.add_term(1, LoopVar(1));
                spl_icode::Place::Vec(spl_icode::VecRef { kind, idx: a })
            };
            let header = |v| Instr::DoStart {
                var: LoopVar(v),
                lo: 0,
                hi: 3,
                unroll: false,
            };
            lower(&spl_icode::IProgram {
                instrs: vec![
                    header(0),
                    header(1),
                    copy(at(Out), Value::Place(at(In))),
                    Instr::DoEnd,
                    Instr::DoEnd,
                ],
                n_in: 16,
                n_out: 16,
                n_loop: 2,
                complex: false,
                ..spl_icode::IProgram::empty()
            })
            .unwrap()
        };
        // (case, program, loops planned, loops demoted)
        let cases = [
            (
                "unit stride",
                one_loop(
                    8,
                    (8, 8),
                    0,
                    vec![copy(elem(Out, 0, 1), Value::Place(elem(In, 0, 1)))],
                ),
                1,
                0,
            ),
            (
                "interleaved stride 2, offset 1",
                one_loop(
                    8,
                    (16, 16),
                    0,
                    vec![
                        bin(
                            BinOp::Add,
                            elem(Out, 0, 2),
                            elem(In, 0, 2),
                            Value::Place(elem(In, 1, 2)),
                        ),
                        bin(
                            BinOp::Sub,
                            elem(Out, 1, 2),
                            elem(In, 0, 2),
                            Value::Place(elem(In, 1, 2)),
                        ),
                    ],
                ),
                1,
                0,
            ),
            (
                "loop-carried accumulator",
                one_loop(
                    8,
                    (8, 8),
                    1,
                    vec![
                        bin(BinOp::Add, F(0), F(0), Value::Place(elem(In, 0, 1))),
                        copy(elem(Out, 0, 1), Value::Place(F(0))),
                    ],
                ),
                0,
                1,
            ),
            (
                "iteration-private register",
                one_loop(
                    8,
                    (8, 8),
                    1,
                    vec![
                        bin(BinOp::Mul, F(0), elem(In, 0, 1), k(2.0)),
                        bin(BinOp::Add, elem(Out, 0, 1), F(0), k(1.0)),
                    ],
                ),
                1,
                0,
            ),
            (
                "stationary write",
                one_loop(
                    8,
                    (8, 8),
                    0,
                    vec![copy(elem(Out, 0, 0), Value::Place(elem(In, 0, 1)))],
                ),
                0,
                1,
            ),
            (
                "alias one iteration apart",
                one_loop(
                    8,
                    (8, 9),
                    0,
                    vec![bin(BinOp::Add, elem(Out, 1, 1), elem(Out, 0, 1), k(1.0))],
                ),
                0,
                1,
            ),
            (
                "same-iteration alias",
                one_loop(
                    8,
                    (8, 8),
                    0,
                    vec![
                        bin(BinOp::Mul, elem(Out, 0, 1), elem(In, 0, 1), k(2.0)),
                        bin(BinOp::Add, elem(Out, 0, 1), elem(Out, 0, 1), k(1.0)),
                    ],
                ),
                1,
                0,
            ),
            (
                "alias beyond the trip range",
                one_loop(
                    8,
                    (8, 40),
                    0,
                    vec![copy(elem(Out, 0, 1), Value::Place(elem(Out, 32, 1)))],
                ),
                1,
                0,
            ),
            (
                "single trip",
                one_loop(
                    1,
                    (8, 8),
                    0,
                    vec![copy(elem(Out, 0, 1), Value::Place(elem(In, 0, 1)))],
                ),
                0,
                0,
            ),
            (
                "loop-index read",
                one_loop(
                    8,
                    (8, 8),
                    0,
                    vec![copy(elem(Out, 0, 1), Value::LoopIdx(LoopVar(0)))],
                ),
                0,
                1,
            ),
            ("outer loop", nested, 1, 0),
        ];
        for (label, vm, planned, demoted) in cases {
            let stats = *vm.resolve_stats().expect("resolved");
            assert_eq!(
                (stats.vec_loops, stats.vec_demoted),
                (planned, demoted),
                "{label}: {stats:?}"
            );
            let x: Vec<f64> = (0..vm.n_in).map(|i| (i as f64 * 0.61).cos()).collect();
            let y0: Vec<f64> = (0..vm.n_out).map(|i| i as f64 - 0.5).collect();
            agree_bitwise(&vm, &x, &y0, label);
        }
    }

    #[test]
    fn a_declined_plan_leaves_no_cursor_behind() {
        use spl_icode::{Place::F, Value, VecKind::*};
        // `$f0 = $f0 + in[0]` over `i < 8`: cell-form code, so no node
        // needs a cursor. The plan attempt makes two (the broadcasts of
        // `$f0` and `in[0]`) before `$f0`'s write declines it.
        let vm = one_loop(
            8,
            (1, 1),
            1,
            vec![bin(BinOp::Add, F(0), F(0), Value::Place(elem(In, 0, 0)))],
        );
        let stats = resolve(&vm).unwrap().stats;
        assert_eq!((stats.vec_demoted, stats.cursors), (1, 0), "{stats:?}");
    }

    #[test]
    fn a_loop_is_planned_at_the_widest_width_its_alias_distance_allows() {
        use spl_icode::{Value, VecKind::*};
        let _g = simd::override_lock();
        simd::set_force_scalar(false);
        let trips = 20;
        for d in 1..=trips + 1 {
            // `out[i + d] = out[i] + in[i]`: iteration `i + d` reads
            // what iteration `i` wrote.
            let vm = one_loop(
                trips,
                (trips as usize, (trips + d) as usize),
                0,
                vec![bin(
                    BinOp::Add,
                    elem(Out, d, 1),
                    elem(Out, 0, 1),
                    Value::Place(elem(In, 0, 1)),
                )],
            );
            let want = match d {
                1 => None,
                2..=3 => Some(2),
                4..=7 => Some(4),
                _ => Some(8),
            };
            let rp = resolve(&vm).unwrap();
            let got = rp.vec_plans.first().map(|p| p.width);
            assert_eq!(got, want, "distance {d}");
            assert_eq!(
                rp.stats.vec_demoted,
                u64::from(want.is_none()),
                "distance {d}"
            );
            let x: Vec<f64> = (0..vm.n_in).map(|i| 1.0 / (i as f64 + 3.0)).collect();
            let y0: Vec<f64> = (0..vm.n_out).map(|i| i as f64 + 0.25).collect();
            agree_bitwise(&vm, &x, &y0, &format!("distance {d}"));
        }
    }

    #[test]
    fn stride_two_lanes_stop_at_the_arena_end() {
        use spl_icode::{Value, VecKind::*};
        let _g = simd::override_lock();
        simd::set_force_scalar(false);
        for trips in 2..=19 {
            // `out[2i + 1] = out[2i + 1] * in[i]`: no temporaries and no
            // immediates, so the output is the arena's last region and
            // an even trip count's last chunk ends on its last cell.
            let vm = one_loop(
                trips,
                (trips as usize, 2 * trips as usize),
                0,
                vec![bin(
                    BinOp::Mul,
                    elem(Out, 1, 2),
                    elem(Out, 1, 2),
                    Value::Place(elem(In, 0, 1)),
                )],
            );
            let rp = resolve(&vm).unwrap();
            assert_eq!(rp.arena_len, rp.out_off + rp.n_out, "trips {trips}");
            assert_eq!(rp.stats.vec_loops, 1, "trips {trips}");
            let x: Vec<f64> = (0..vm.n_in).map(|i| i as f64 - 2.5).collect();
            let y0: Vec<f64> = (0..vm.n_out).map(|i| (i as f64).sqrt()).collect();
            agree_bitwise(&vm, &x, &y0, &format!("trips {trips}"));
        }
    }

    // -----------------------------------------------------------------
    // Pairing legality. Each program is straight-line over `$f`
    // registers, which are arena cells `0..n_f`, eight input and eight
    // output words; each is held to `run_reference`'s bits.
    // -----------------------------------------------------------------

    use spl_icode::Place as P;

    /// `in[i]` (a source) or `out[i]` at a constant subscript.
    fn io(kind: spl_icode::VecKind, i: i64) -> P {
        P::Vec(spl_icode::VecRef {
            kind,
            idx: spl_icode::Affine::constant(i),
        })
    }

    fn x(i: i64) -> P {
        io(spl_icode::VecKind::In, i)
    }

    /// `d = a op b`.
    fn op(o: BinOp, d: P, a: P, b: P) -> spl_icode::Instr {
        bin(o, d, a, spl_icode::Value::Place(b))
    }

    /// `d = −a` (`neg`) or `d = a`.
    fn un(neg: bool, d: P, a: P) -> spl_icode::Instr {
        spl_icode::Instr::Un {
            op: if neg {
                spl_icode::UnOp::Neg
            } else {
                spl_icode::UnOp::Copy
            },
            dst: d,
            a: spl_icode::Value::Place(a),
        }
    }

    /// `body` over `n_f` registers, then `out[k] = $f<k>` for each
    /// register in `outs`, lowered.
    fn straight(n_f: u32, mut body: Vec<spl_icode::Instr>, outs: &[u32]) -> VmProgram {
        for (i, &k) in outs.iter().enumerate() {
            body.push(un(false, io(spl_icode::VecKind::Out, i as i64), P::F(k)));
        }
        lower(&spl_icode::IProgram {
            instrs: body,
            n_in: 8,
            n_out: 8,
            n_f,
            complex: false,
            ..spl_icode::IProgram::empty()
        })
        .unwrap()
    }

    /// The ops, in lane order, of the first node that writes cell `d`.
    fn node_writing(rp: &ResolvedProgram, d: u32) -> Vec<FloatOp<u32, u32>> {
        rp.nodes
            .iter()
            .map(ops_of)
            .find(|ops| ops.iter().any(|op| op.dsts().contains(&d)))
            .expect("a node writes the cell")
    }

    /// Resolves `vm`, holds its three executors to one answer on inputs
    /// `xs`, and returns how many ops the node writing `$f<k>` holds.
    fn lanes_writing(vm: &VmProgram, k: u32, xs: &[f64], label: &str) -> usize {
        agree_bitwise(vm, xs, &[0.0; 8], label);
        node_writing(&resolve(vm).unwrap(), k).len()
    }

    const XS: [f64; 8] = [1.5, -2.25, 3.0, 0.375, -7.0, 11.0, 0.1, 2.0];

    #[test]
    fn a_partner_that_reads_the_first_destination_stays_unpaired() {
        let _g = simd::override_lock();
        let add = BinOp::Add;
        // `$f1 = $f0 + in2` reads what the first op writes.
        let raw = vec![
            op(add, P::F(0), x(0), x(1)),
            op(add, P::F(1), P::F(0), x(2)),
        ];
        assert_eq!(lanes_writing(&straight(2, raw, &[0, 1]), 0, &XS, "raw"), 1);
        // Independent, the same two adds are one node.
        let free = vec![op(add, P::F(0), x(0), x(1)), op(add, P::F(1), x(3), x(2))];
        assert_eq!(
            lanes_writing(&straight(2, free, &[0, 1]), 0, &XS, "free"),
            2
        );
    }

    #[test]
    fn a_partner_is_refused_on_raw_war_and_waw_with_a_node_it_moves_over() {
        let _g = simd::override_lock();
        let (add, div) = (BinOp::Add, BinOp::Div);
        let first = || op(add, P::F(0), x(0), x(1));
        let init = un(false, P::F(3), x(6));
        let cases = [
            // The moved-over division writes what the partner reads.
            (
                "raw",
                vec![
                    first(),
                    op(div, P::F(2), x(2), x(3)),
                    op(add, P::F(1), P::F(2), x(4)),
                ],
                1,
            ),
            // ... reads what the partner writes.
            (
                "war",
                vec![
                    init.clone(),
                    first(),
                    op(div, P::F(2), x(2), P::F(3)),
                    op(add, P::F(3), x(4), x(5)),
                ],
                1,
            ),
            // ... writes what the partner writes.
            (
                "waw",
                vec![
                    first(),
                    op(div, P::F(1), x(2), x(3)),
                    op(add, P::F(1), x(4), x(5)),
                ],
                1,
            ),
            // The first op reads what the partner writes.
            (
                "war first",
                vec![
                    init,
                    op(add, P::F(0), P::F(3), x(1)),
                    op(add, P::F(3), x(4), x(5)),
                ],
                1,
            ),
            // None of them: the partner moves up over the division.
            (
                "free",
                vec![
                    first(),
                    op(div, P::F(2), x(2), x(3)),
                    op(add, P::F(1), x(4), x(5)),
                ],
                2,
            ),
        ];
        for (label, body, lanes) in cases {
            let vm = straight(4, body, &[0, 1, 2, 3]);
            assert_eq!(lanes_writing(&vm, 0, &XS, label), lanes, "{label}");
        }
    }

    #[test]
    fn two_lanes_that_write_one_cell_are_refused() {
        let _g = simd::override_lock();
        let add = BinOp::Add;
        let body = vec![op(add, P::F(0), x(0), x(1)), op(add, P::F(0), x(2), x(3))];
        let vm = straight(1, body, &[0]);
        let rp = resolve(&vm).unwrap();
        assert_eq!(rp.stats.pair_nodes, 0);
        assert_eq!(lanes_writing(&vm, 0, &XS, "waw"), 1);
    }

    #[test]
    fn butterfly_pairs_have_four_distinct_destinations() {
        let _g = simd::override_lock();
        let (add, sub) = (BinOp::Add, BinOp::Sub);
        let fly = |d1, d2, a, b| vec![op(add, P::F(d1), x(a), x(b)), op(sub, P::F(d2), x(a), x(b))];
        let cases = [
            ("distinct", [fly(0, 1, 0, 1), fly(2, 3, 2, 3)].concat(), 2),
            // A butterfly that writes its one cell twice stays alone.
            ("one cell", [fly(0, 0, 0, 1), fly(2, 3, 2, 3)].concat(), 1),
            // Two butterflies that share a destination.
            ("shared", [fly(0, 1, 0, 1), fly(1, 3, 2, 3)].concat(), 1),
        ];
        for (label, body, lanes) in cases {
            let vm = straight(4, body, &[0, 1, 2, 3]);
            let rp = resolve(&vm).unwrap();
            assert_eq!(rp.stats.fused_butterfly, 2, "{label}");
            assert_eq!(lanes_writing(&vm, 0, &XS, label), lanes, "{label}");
        }
        // The plans' butterfly pairs, all of them.
        let mut seen = 0;
        for (n, vm) in plans(64) {
            for node in &resolve(&vm).unwrap().nodes {
                let ops = ops_of(node);
                if let [l0, l1] = &ops[..] {
                    if l0.kind == Arith::Butterfly {
                        let d: HashSet<u32> = l0.dsts().iter().chain(l1.dsts()).copied().collect();
                        assert_eq!(d.len(), 4, "n={n}: {node:?}");
                        seen += 1;
                    }
                }
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn mixed_pairs_put_the_sub_like_op_in_lane_0_in_either_order() {
        let _g = simd::override_lock();
        let (add, sub, mul) = (BinOp::Add, BinOp::Sub, BinOp::Mul);
        // `$f<d>` as the kind `k` over fresh inputs, through `$f<t>` for
        // the multiply–add kinds.
        let make = |k: Arith, d: u32, t: u32, i: i64| -> Vec<spl_icode::Instr> {
            let prod = op(mul, P::F(t), x(i), x(i + 1));
            match k {
                Arith::Sub => vec![op(sub, P::F(d), x(i), x(i + 1))],
                Arith::Add => vec![op(add, P::F(d), x(i), x(i + 1))],
                Arith::MulSub => vec![prod, op(sub, P::F(d), P::F(t), x(i + 2))],
                Arith::MulAdd => vec![prod, op(add, P::F(d), P::F(t), x(i + 2))],
                Arith::NegMulAdd => vec![prod, op(sub, P::F(d), x(i + 2), P::F(t))],
                _ => unreachable!(),
            }
        };
        let combos = [
            (Arith::Sub, Arith::Add, Twin::SubAdd),
            (Arith::MulSub, Arith::MulAdd, Twin::MulSubMulAdd),
            (Arith::NegMulAdd, Arith::MulAdd, Twin::NegMulAddMulAdd),
        ];
        for (sub_like, add_like, twin) in combos {
            // `$f0` sub-like, `$f1` add-like; either one first.
            for sub_first in [true, false] {
                let (s, a) = (make(sub_like, 0, 2, 0), make(add_like, 1, 3, 4));
                let body = if sub_first { [s, a] } else { [a, s] }.concat();
                let vm = straight(4, body, &[0, 1]);
                let label = format!("{twin:?}, sub-like first: {sub_first}");
                agree_bitwise(&vm, &XS, &[0.0; 8], &label);
                let rp = resolve(&vm).unwrap();
                let node = rp
                    .nodes
                    .iter()
                    .find(|n| matches!(n, RNode::Pair { kind, .. } if *kind == twin));
                let ops = ops_of(node.unwrap_or_else(|| panic!("{label}: no pair")));
                assert_eq!([ops[0].kind, ops[1].kind], [sub_like, add_like], "{label}");
                assert_eq!([ops[0].d[0], ops[1].d[0]], [0, 1], "{label}");
            }
        }
    }

    #[test]
    fn a_lane_one_cell_outside_the_i8_range_stays_unpaired() {
        let _g = simd::override_lock();
        let add = BinOp::Add;
        // The first op writes `$f<a>`, the later one `$f<b>`: lane 1's
        // destination is `b − a` cells from lane 0's.
        for (a, b, lanes) in [
            (0, 127, 2),
            (0, 128, 1),
            (128, 0, 2),
            (129, 0, 1),
            (0, 200, 1),
        ] {
            let body = vec![op(add, P::F(a), x(0), x(1)), op(add, P::F(b), x(2), x(3))];
            let vm = straight(256, body, &[a, b]);
            let label = format!("$f{a}, $f{b}");
            assert_eq!(lanes_writing(&vm, a, &XS, &label), lanes, "{label}");
        }
    }

    #[test]
    fn negative_zero_nan_and_infinities_run_through_neg_and_sub_pairs() {
        let _g = simd::override_lock();
        let sub = BinOp::Sub;
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let xs = [
            -0.0,
            0.0,
            nan,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -nan,
            f64::INFINITY,
            -0.0,
        ];
        let body = vec![
            un(true, P::F(0), x(0)),
            un(true, P::F(1), x(2)),
            un(true, P::F(2), x(3)),
            un(true, P::F(3), x(5)),
            op(sub, P::F(4), x(0), x(1)),
            op(sub, P::F(5), x(1), x(7)),
            op(sub, P::F(6), x(3), x(6)),
            op(sub, P::F(7), x(4), x(2)),
        ];
        let vm = straight(8, body, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let rp = resolve(&vm).unwrap();
        for k in 0..8 {
            assert_eq!(node_writing(&rp, k).len(), 2, "$f{k}");
        }
        agree_bitwise(&vm, &xs, &[0.0; 8], "signed zeros, NaN, infinities");
        let mut y = [0.0; 8];
        vm.run(&xs, &mut y, &mut VmState::new(&vm));
        assert_eq!(y[0].to_bits(), 0.0f64.to_bits(), "−(−0) is +0");
        assert_eq!(y[4].to_bits(), (-0.0f64).to_bits(), "−0 − 0 is −0");
        assert!(y[1].is_nan() && y[6].is_nan() && y[7].is_nan());
        assert_eq!(y[2], f64::NEG_INFINITY);
    }

    #[test]
    fn straight_line_plans_resolve_to_six_tenths_of_their_float_ops() {
        for (n, vm) in plans(64) {
            let rp = resolve(&vm).unwrap();
            let ops = rp.stats.cell_ops;
            assert!(
                10 * rp.nodes.len() as u64 <= 6 * ops,
                "n={n}: {} nodes for {ops} float ops",
                rp.nodes.len()
            );
        }
    }
}

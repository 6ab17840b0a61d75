//! Straight-line C on complex pairs (`re` at an even index, `im` after
//! it): each run's value graph, seeded with its stores `a[2k]`, `a[2k+1]`,
//! gives every pair of values one 2-lane statement — a vector op, `l - r`
//! beside `l + r` blended by `__builtin_shufflevector`, a sign-mask xor, a
//! shuffle, a load of adjacent elements or a literal — and falls back to
//! scalar statements, lane extracts and `(spl_v2d){a, b}` builds. Each
//! lane performs its scalar statement's IEEE operation (`+` and `*` may
//! trade operands), so the C computes the VM's answer bit for bit.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use spl_icode::{BinOp, IProgram, Instr, Place, UnOp, Value, VecKind};

use crate::codegen::{bin_sym, write_array, EmitStats};
use Node::{Bin, Elem, Lit, Minus};
use Recipe::{Lanes, Load, Neg, Op, Pending, Shuffle};

/// The instructions `range` printed as `text`, what it counts, and the
/// `$f` registers it assigns for the code after it.
#[derive(Default)]
pub(crate) struct PackedRun {
    pub range: Range<usize>,
    pub text: String,
    pub stats: EmitStats,
    pub live_out: Vec<u32>,
}

/// The arithmetic `prog.instrs[range]` on pairs; `None` when it reads an
/// array it writes, reads a `$f` it did not assign, touches integer
/// registers, or pairs no more than falls back. `read_until[k]`: one past
/// the last read of `$f` `k`; `names`: the unit's next temporary number.
pub(crate) fn pack(
    prog: &IProgram,
    range: Range<usize>,
    read_until: &[usize],
    names: &mut u32,
) -> Option<PackedRun> {
    Packer::new(&prog.instrs[range.clone()], read_until, range.end)?.print(range, names)
}

/// `NONE`: no node or item, or an item not printed yet; `OPEN`: an item
/// whose operands are being printed.
const NONE: u32 = u32::MAX;
const OPEN: u32 = u32::MAX - 1;

/// The item index's hasher, one multiply per word, for keys the packer
/// numbers itself: with SipHash the lookups were most of `emit`'s time.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..word.len()].copy_from_slice(word);
            self.0 = (self.0 ^ u64::from_le_bytes(w)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A value of a run, numbered in program order: operands come first.
#[derive(Clone, Copy)]
enum Node {
    Elem(VecKind, i64),
    Lit(f64),
    Minus(u32),
    Bin(BinOp, u32, u32),
}

/// How an item is computed. An item is two nodes, a vector; or one node
/// and `NONE`, a scalar.
#[derive(Clone, Copy, PartialEq)]
enum Recipe {
    Pending,
    /// Adjacent elements of one array; a scalar: one element.
    Load(VecKind, i64),
    /// A build of two scalar items (a fallback unless literals); a literal.
    Lanes(u32, u32),
    /// `l op0 r` on lane 0 beside `l op1 r` on lane 1.
    Op(BinOp, BinOp, u32, u32),
    /// `p` with the sign of lane 0, lane 1 or both (mask 1, 2, 3) flipped.
    Neg(u8, u32),
    /// Lanes `i`, `j` of vector `p`; a scalar: lane `i` of it.
    Shuffle(u32, u8, u8),
}

#[derive(Default)]
struct Packer {
    nodes: Vec<Node>,
    /// What the run leaves and its item: an element `(Some(array), index)`
    /// (a pair's first stands for both), or a live-out `$f` `(None, k)`.
    roots: Vec<(Option<VecKind>, i64, u32)>,
    items: Vec<([u32; 2], Recipe)>,
    index: HashMap<[u32; 2], u32, BuildHasherDefault<Mix>>,
    /// Per node, the first vector that computes it, and the lane.
    home: Vec<(u32, u8)>,
    /// Per item, the number in its name once printed.
    name: Vec<u32>,
}

impl Packer {
    /// The graph of `run`, which ends at instruction `end`, and the items
    /// it needs; `None` when the run must stay scalar.
    fn new(run: &[Instr], read_until: &[usize], end: usize) -> Option<Packer> {
        let mut p = Packer::default();
        let (mut leaves, mut store_at, mut stores) = (HashMap::new(), HashMap::new(), Vec::new());
        let (mut regs, mut read) = (vec![NONE; read_until.len()], Vec::new());
        for ins in run {
            let mut operand = |v: &Value, p: &mut Packer| -> Option<u32> {
                let (key, node) = match v {
                    Value::Place(Place::F(k)) => {
                        return Some(regs[*k as usize]).filter(|&n| n != NONE)
                    }
                    Value::Place(Place::Vec(r)) => {
                        let i = r.idx.as_const()?;
                        if !read.contains(&r.kind) {
                            read.push(r.kind);
                        }
                        ((Some(r.kind), i), Elem(r.kind, i))
                    }
                    // As the VM reads it: an `Int` is a double too.
                    _ => {
                        let c = v.as_const().filter(|c| c.is_real())?.re;
                        ((None, c.to_bits() as i64), Lit(c))
                    }
                };
                Some(*leaves.entry(key).or_insert_with(|| p.push(node)))
            };
            let value = match ins {
                Instr::Bin { op, a, b, .. } => {
                    let (a, b) = (operand(a, &mut p)?, operand(b, &mut p)?);
                    p.push(Bin(*op, a, b))
                }
                Instr::Un { op, a, .. } => match (op, operand(a, &mut p)?) {
                    (UnOp::Neg, a) => p.push(Minus(a)),
                    (UnOp::Copy, a) => a,
                },
                Instr::DoStart { .. } | Instr::DoEnd => return None,
            };
            match ins.dst()? {
                Place::F(k) => regs[*k as usize] = value,
                Place::Vec(r) => {
                    let key = (r.kind, r.idx.as_const()?);
                    let s = *store_at.entry(key).or_insert(stores.len());
                    stores.extend((s == stores.len()).then_some((key.0, key.1, value)));
                    stores[s].2 = value;
                }
                Place::R(_) => return None,
            }
        }
        if stores.iter().any(|s| read.contains(&s.0)) {
            return None;
        }
        // Per store, the value stored beside it in a pair `a[2k]`,
        // `a[2k+1]` (`OPEN`: it is that `a[2k+1]`).
        let mut other = vec![NONE; stores.len()];
        for (s, &(kind, idx, _)) in stores.iter().enumerate() {
            if let (0, Some(&t)) = (idx % 2, store_at.get(&(kind, idx + 1))) {
                (other[s], other[t]) = (stores[t].2, OPEN);
            }
        }
        for (s, &(kind, idx, value)) in stores.iter().enumerate().filter(|s| other[s.0] != OPEN) {
            let item = p.intern([value, other[s]]);
            p.roots.push((Some(kind), idx, item));
        }
        let live = |&(k, n): &(usize, u32)| n != NONE && read_until[k] > end;
        for (k, n) in regs.into_iter().enumerate().filter(live) {
            let item = p.intern([n, NONE]);
            p.roots.push((None, k as i64, item));
        }
        // Pairs of two nodes first, breadth first from the stores; then
        // the scalars and the splats, which may read those pairs' lanes.
        p.home = vec![(NONE, 0); p.nodes.len()];
        for late in [false, true] {
            let mut i = 0;
            while i < p.items.len() {
                // Every item costs a statement: more than a few per node
                // and the walk is going nowhere useful.
                if i > 4 * p.nodes.len() + 16 {
                    return None;
                }
                let ([a, b], recipe) = p.items[i];
                if recipe == Pending && (b == NONE || a == b) == late {
                    p.items[i].1 = p.decide(a, b);
                }
                i += 1;
            }
            for (i, &([a, b], recipe)) in p.items.iter().enumerate().rev() {
                if !late && b != NONE && matches!(recipe, Load(..) | Op(..) | Neg(3, _)) {
                    (p.home[a as usize], p.home[b as usize]) = ((i as u32, 0), (i as u32, 1));
                }
            }
        }
        Some(p)
    }

    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    fn intern(&mut self, lanes: [u32; 2]) -> u32 {
        let next = self.items.len() as u32;
        let i = *self.index.entry(lanes).or_insert(next);
        self.items.extend((i == next).then_some((lanes, Pending)));
        i
    }

    fn decide(&mut self, a: u32, b: u32) -> Recipe {
        let (na, (h, lane)) = (self.nodes[a as usize], self.home[a as usize]);
        if b == NONE || a == b {
            // A scalar, or one node on both lanes: a leaf, a lane of the
            // node's home, else computed from scalars.
            return match (na, b) {
                (Elem(k, i), NONE) => Load(k, i),
                (Lit(_), NONE) => Lanes(NONE, NONE),
                _ if h != NONE => Shuffle(h, lane, lane),
                (Bin(op, x, y), NONE) => Op(op, op, self.intern([x, NONE]), self.intern([y, NONE])),
                (Minus(x), NONE) => Neg(1, self.intern([x, NONE])),
                _ => Lanes(self.intern([a, NONE]), self.intern([a, NONE])),
            };
        }
        let mirror = self.index.get(&[b, a]).copied();
        // Only a decided mirror that is no shuffle: two pending mirrors
        // must not become each other's.
        let made = mirror.filter(|&q| !matches!(self.items[q as usize].1, Pending | Shuffle(..)));
        let add_sub = [BinOp::Add, BinOp::Sub];
        match (na, self.nodes[b as usize]) {
            (Lit(_), Lit(_)) => Lanes(self.intern([a, NONE]), self.intern([b, NONE])),
            (Elem(k, i), Elem(l, j)) if k == l && j == i + 1 => Load(k, i),
            (Elem(k, i), Elem(l, j)) if k == l && i == j + 1 => Shuffle(self.intern([b, a]), 1, 0),
            _ if made.is_some() => Shuffle(made.expect("a made mirror"), 1, 0),
            (Bin(oa, a0, a1), Bin(ob, b0, b1))
                if oa == ob || add_sub.contains(&oa) && add_sub.contains(&ob) =>
            {
                let ([l, r], score) = self.orient(oa, ob, [a0, a1], [b0, b1]);
                // Operands that pack better lane-swapped: the mirror's shuffle.
                if mirror.is_none() && self.orient(ob, oa, [b0, b1], [a0, a1]).1 > score {
                    return Shuffle(self.intern([b, a]), 1, 0);
                }
                Op(oa, ob, self.intern(l), self.intern(r))
            }
            (Minus(a0), Minus(b0)) => Neg(3, self.intern([a0, b0])),
            (Minus(a0), _) => Neg(1, self.intern([a0, b])),
            (_, Minus(b0)) => Neg(2, self.intern([a, b0])),
            _ => Lanes(self.intern([a, NONE]), self.intern([b, NONE])),
        }
    }

    /// The operand pairs `[left, right]` of lane ops `oa` over `a` beside
    /// `ob` over `b` that pack best, and their score: as written, or with
    /// a commutative lane's operands swapped when that scores higher. A
    /// pair scores 2 made or one load or literal away, 1 if its mirror is.
    fn orient(&self, oa: BinOp, ob: BinOp, a: [u32; 2], b: [u32; 2]) -> ([[u32; 2]; 2], u32) {
        let commutes = |op| matches!(op, BinOp::Add | BinOp::Mul);
        let plain = [[a[0], b[0]], [a[1], b[1]]];
        let swapped = match (commutes(oa), commutes(ob)) {
            (_, true) => [[a[0], b[1]], [a[1], b[0]]],
            (true, _) => [[a[1], b[0]], [a[0], b[1]]],
            _ => plain,
        };
        let made = |x, y| u32::from(self.index.contains_key(&[x, y]));
        let score = |o: [[u32; 2]; 2]| -> u32 {
            let pair = |[x, y]: [u32; 2]| match (self.nodes[x as usize], self.nodes[y as usize]) {
                (Lit(_), Lit(_)) => 2,
                (Elem(k, i), Elem(l, j)) if k == l && j == i + 1 => 2,
                _ => (2 * made(x, y)).max(made(y, x)),
            };
            pair(o[0]) + pair(o[1])
        };
        // `max_by_key` keeps the last of equal scores: as written.
        let best = [swapped, plain].into_iter().max_by_key(|&o| score(o));
        best.map(|o| (o, score(o))).expect("two orders")
    }

    /// Prints the roots in program order, each after what it reads, depth
    /// first on an explicit stack. `None` when the run is better left
    /// scalar, or (defensively) when items read each other in a circle.
    fn print(mut self, range: Range<usize>, names: &mut u32) -> Option<PackedRun> {
        self.name = vec![NONE; self.items.len()];
        let mut run = PackedRun::default();
        (run.range, run.text) = (range, String::with_capacity(40 * self.nodes.len()));
        for r in 0..self.roots.len() {
            let (kind, idx, root) = self.roots[r];
            let mut stack = vec![(root, false)];
            while let Some((i, expanded)) = stack.pop() {
                if expanded {
                    self.name[i as usize] = *names;
                    *names += u32::from(self.statement(i, &mut run));
                } else if self.name[i as usize] == NONE {
                    self.name[i as usize] = OPEN;
                    stack.push((i, true));
                    let deps = match self.items[i as usize].1 {
                        Op(_, _, l, r) | Lanes(l, r) => [l, r],
                        Neg(_, c) | Shuffle(c, ..) => [c, NONE],
                        Load(..) | Pending => [NONE, NONE],
                    };
                    // Reversed, so that a left operand prints first.
                    for d in deps.into_iter().rev().filter(|&d| d != NONE) {
                        match self.name[d as usize] {
                            OPEN => return None,
                            NONE => stack.push((d, false)),
                            _ => {}
                        }
                    }
                }
            }
            let (t, paired) = (&mut run.text, self.items[root as usize].0[1] != NONE);
            if let Some(kind) = kind {
                t.push_str(if paired { "  *(spl_v2du *)&" } else { "  " });
                write_array(t, kind);
                let _ = write!(t, "[{idx}] = ");
            } else {
                let _ = write!(t, "  f{idx} = ");
                run.live_out.push(idx as u32);
            }
            self.value(root, t);
            t.push_str(";\n");
            run.stats.count(!paired);
        }
        (run.stats.paired_stmts > run.stats.scalar_stmts).then_some(run)
    }

    /// Prints the statement of item `i` and counts it; `false` for a
    /// scalar leaf or lane, which is printed where it is read.
    fn statement(&self, i: u32, run: &mut PackedRun) -> bool {
        let ([a, b], recipe) = self.items[i as usize];
        let scalar = b == NONE;
        if scalar && !matches!(recipe, Op(..) | Neg(..)) {
            return false;
        }
        let (t, v) = (&mut run.text, |j: u32| self.name[j as usize]);
        let kind = if scalar { "double s" } else { "spl_v2d v" };
        let _ = write!(t, "  {kind}{} = ", v(i));
        let _ = match recipe {
            Op(op, _, l, r) if scalar => {
                self.value(l, t);
                let _ = write!(t, " {} ", bin_sym(op));
                self.value(r, t);
                Ok(())
            }
            Neg(_, c) if scalar => {
                t.push_str("-(");
                self.value(c, t);
                write!(t, ")")
            }
            Lanes(l, r) => {
                t.push_str("(spl_v2d){");
                self.value(l, t);
                t.push_str(", ");
                self.value(r, t);
                write!(t, "}}")
            }
            Load(kind, idx) => {
                t.push_str("*(const spl_v2du *)&");
                write_array(t, kind);
                write!(t, "[{idx}]")
            }
            Op(op0, op1, l, r) if op0 == op1 => write!(t, "v{} {} v{}", v(l), bin_sym(op0), v(r)),
            Op(op0, op1, l, r) => {
                let half = |op| format!("v{} {} v{}", v(l), bin_sym(op), v(r));
                let (x, y) = (half(op0), half(op1));
                write!(t, "__builtin_shufflevector({x}, {y}, 0, 3)")
            }
            Neg(mask, c) => {
                let m = ["", "SPL_SIGN, 0", "0, SPL_SIGN", "SPL_SIGN, SPL_SIGN"][mask as usize];
                write!(t, "(spl_v2d)((spl_v2l)v{} ^ (spl_v2l){{{m}}})", v(c))
            }
            Shuffle(c, j, k) => write!(t, "__builtin_shufflevector(v{0}, v{0}, {j}, {k})", v(c)),
            Pending => unreachable!("every item is decided before printing"),
        };
        t.push_str(";\n");
        let lit = |n: u32| matches!(self.nodes[n as usize], Lit(_));
        run.stats
            .count(scalar || matches!(recipe, Lanes(..)) && !(lit(a) && lit(b)));
        true
    }

    /// Appends what reads item `i`: a vector's name, or a scalar's
    /// element, literal, lane or name.
    fn value(&self, i: u32, t: &mut String) {
        let ([a, b], recipe) = self.items[i as usize];
        let _ = match (recipe, self.nodes[a as usize]) {
            _ if b != NONE => write!(t, "v{}", self.name[i as usize]),
            (Load(kind, idx), _) => {
                write_array(t, kind);
                write!(t, "[{idx}]")
            }
            (Lanes(..), Lit(c)) => write!(t, "{c:?}"),
            (Shuffle(h, lane, _), _) => write!(t, "v{}[{lane}]", self.name[h as usize]),
            _ => write!(t, "s{}", self.name[i as usize]),
        };
    }
}

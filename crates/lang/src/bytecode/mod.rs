//! Register bytecode for filter bodies, typed where the program is.
//!
//! The tree-walking interpreter ([`crate::interp::Interp`]) spends most of a
//! filter's per-packet budget in dispatch: every variable read hashes up to
//! three `HashMap`s, every expression node re-matches its `ExprKind`, and
//! every value round-trips through `Rc<RefCell<..>>` clones. This module
//! lowers a `TypedProgram` statement slice once, at plan-build time, into a
//! compact register program that the [`vm::Vm`] then executes per packet.
//!
//! * **Three register files.** A frame holds a boxed [`Value`] file and two
//!   unboxed files, `f64` and `i64` (booleans are `0`/`1` in the `i64`
//!   file). The dialect is statically typed, so the lowering carries every
//!   slot's and every expression's static type through its single walk and
//!   gives each a [`Repr`]: `int`, `double` and `boolean` values live
//!   unboxed, everything else (objects, arrays, domains, null) boxed. A
//!   value whose tag the lowering cannot prove — a ternary mixing `int`
//!   and `double`, a name declared with two types — stays boxed and runs
//!   the generic ops, which are the interpreter's evaluation verbatim.
//! * **Slots that the lowering proves bound are operands.** Every name
//!   gets a register. A flow-sensitive pass tracks which slots are
//!   definitely bound (declared, a parameter, a loop variable) or
//!   memoized (a global no code can assign, read once through
//!   [`Op::ReadSlot`]); typed ops then name those registers directly, so
//!   `double dx = px[i] - qx;` is an element load and a subtraction.
//!   Other names take [`Op::ReadSlot`]/[`Op::AssignSlot`], whose fallback
//!   probes the interpreter's chain (local → `this` field → global) with
//!   the category pre-resolved at lower time ([`SlotKind`]).
//! * **Where values are boxed.** Only where they leave typed code: writing
//!   slots back to the caller's `vars`, stores into `Value` containers
//!   (array elements, object fields, globals), arguments of generic calls
//!   and builtins (`print`), and returns to an external caller. Values
//!   entering typed code from outside — seeded `vars`, globals, array
//!   elements, object fields — are unboxed against their static type, and
//!   a tag that disagrees raises a diagnostic naming the value.
//! * **Fused ops.** `foreach` is a two-op loop with the cursor in `i64`
//!   registers; comparisons fuse with the branch that tests them;
//!   `double[]`/`int[]` element loads and stores, object fields (`cubes[c].v0`
//!   is one op) and `lo()`/`hi()`/`size()`/`length()` borrow their array,
//!   object or domain from its register or from a field of `this` without
//!   cloning the `Rc`.
//! * **Shape caches** — object field reads and writes, `this`-field
//!   fallbacks and object method calls resolve through a one-entry
//!   per-op [`ShapeCache`] keyed by the object's [`Shape`] id: a hit is
//!   one compare and one index, with no string hashed or allocated.
//! * **`this` is a register.** Every frame keeps its receiver in a `Value`
//!   register ([`CodeBlock::this`]); a field of `this` named by a bare
//!   identifier is the operand [`Base::This`], which names that register
//!   and the field.
//! * **Leaf calls are inlined.** A method whose own lowering makes no
//!   call, uses no slot fallback, runs no `PipelinedLoop` and has at most
//!   256 ops is a leaf. Every resolved call of a leaf, in slices and in
//!   method bodies, becomes an [`Op::Guard`], moves of the arguments into
//!   the callee's parameter registers, and the callee's ops in a register
//!   window above the caller's, its `this` renamed to the call's receiver
//!   register (for a receiver-less call, to the caller's own). The guard
//!   makes the test the call's typed path makes and ticks the fuel clock
//!   once, as the call would; on a miss it falls through to the original
//!   call op, so null receivers and dynamic dispatch keep their
//!   diagnostics. Other calls run in pooled frames: arguments are
//!   converted at the call site into the callee's typed parameter
//!   registers, and a typed result comes back unboxed.
//!
//! Semantics are bit-for-bit those of `Interp::exec_stmts_with_vars`,
//! including evaluation order, implicit int→double widening, wrapping
//! integer arithmetic, integer comparisons through `f64`, and every
//! diagnostic (message *and* span). The interpreter stays in the tree as
//! the differential oracle — see `crates/lang/tests/vm_differential.rs`.
//!
//! Everything produced by lowering is plain data (`String`s, scalars,
//! `Arc`-shared immutable shapes, and the caches' relaxed atomics): a
//! [`ProgramCode`] is `Send + Sync` and can be shared across filter threads
//! inside an `Arc`, which `Value` (being `Rc`-based) cannot.

pub mod lower;
pub mod vm;

use crate::ast::{AssignOp, BinOp, Type};
use crate::span::Span;
use crate::value::{ObjectVal, Shape, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Register index inside one [`CodeBlock`] frame. One numbering serves the
/// three files: register `r` of the `f64` file and register `r` of the
/// `Value` file are different cells.
pub type Reg = u16;

/// Which register file holds a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repr {
    /// `int`, unboxed in the `i64` file.
    I,
    /// `double`, unboxed in the `f64` file.
    F,
    /// `boolean`, `0`/`1` in the `i64` file.
    B,
    /// Anything else, or a scalar whose tag is not proved: a boxed [`Value`].
    V,
}

impl Repr {
    /// The representation of a value of declared type `ty`.
    pub fn of(ty: &Type) -> Repr {
        match ty {
            Type::Int => Repr::I,
            Type::Double => Repr::F,
            Type::Bool => Repr::B,
            _ => Repr::V,
        }
    }

    /// The type name an unboxing diagnostic quotes.
    pub fn type_name(self) -> &'static str {
        match self {
            Repr::I => "int",
            Repr::F => "double",
            Repr::B => "boolean",
            Repr::V => "value",
        }
    }
}

/// A pooled constant or per-type default value. Unlike [`Value`] this is
/// plain data (no `Rc`), so lowered programs are `Send + Sync`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstVal {
    Int(i64),
    Double(f64),
    Bool(bool),
    Null,
    /// Default for `RectDomain<1>`: the empty domain.
    Domain(i64, i64),
    /// What an inlined `void` method leaves in its call's result register.
    Void,
}

impl ConstVal {
    pub fn to_value(self) -> Value {
        match self {
            ConstVal::Int(v) => Value::Int(v),
            ConstVal::Double(v) => Value::Double(v),
            ConstVal::Bool(v) => Value::Bool(v),
            ConstVal::Null => Value::Null,
            ConstVal::Domain(lo, hi) => Value::Domain(lo, hi),
            ConstVal::Void => Value::Void,
        }
    }

    /// The default value for a declared type — mirrors
    /// `Interp::default_value`.
    pub fn default_for(ty: &Type) -> ConstVal {
        match ty {
            Type::Int => ConstVal::Int(0),
            Type::Double => ConstVal::Double(0.0),
            Type::Bool => ConstVal::Bool(false),
            Type::RectDomain(_) => ConstVal::Domain(0, -1),
            _ => ConstVal::Null,
        }
    }

    /// Pool-identity comparison: doubles compare by bits so `0.0` and
    /// `-0.0` (and NaN payloads) are not conflated by the dedup.
    fn same(&self, other: &ConstVal) -> bool {
        match (self, other) {
            (ConstVal::Double(a), ConstVal::Double(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

/// Where an unbound slot's name statically resolves, pre-computed at lower
/// time so the fallback path can skip probes that provably miss. The probe
/// *order* (local → `this` field → global) is fixed by the interpreter; the
/// kind only elides impossible steps: a name that is a declared field of the
/// lowering class can never be a global hit before the field, and a name
/// that is not a field can never hit `this`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Not statically classifiable — run the full fallback chain.
    Dynamic,
    /// A declared field of the lowering class.
    ThisField,
    /// Not a field of the lowering class — skip the `this` probe.
    Global,
}

/// The domain and array intrinsics ([`Op::Intrinsic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastMeth {
    DomLo,
    DomHi,
    DomSize,
    ArrLen,
}

impl FastMeth {
    pub fn from_name(name: &str) -> Option<FastMeth> {
        Some(match name {
            "lo" => FastMeth::DomLo,
            "hi" => FastMeth::DomHi,
            "size" => FastMeth::DomSize,
            "length" => FastMeth::ArrLen,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            FastMeth::DomLo => "lo",
            FastMeth::DomHi => "hi",
            FastMeth::DomSize => "size",
            FastMeth::ArrLen => "length",
        }
    }
}

/// Builtin functions, resolved at lower time from the call name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinFn {
    Sqrt,
    Floor,
    Ceil,
    Exp,
    Log,
    Abs,
    Min,
    Max,
    Pow,
    ToInt,
    ToDouble,
    Print,
}

impl BuiltinFn {
    pub fn from_name(name: &str) -> Option<BuiltinFn> {
        Some(match name {
            "sqrt" => BuiltinFn::Sqrt,
            "floor" => BuiltinFn::Floor,
            "ceil" => BuiltinFn::Ceil,
            "exp" => BuiltinFn::Exp,
            "log" => BuiltinFn::Log,
            "abs" => BuiltinFn::Abs,
            "min" => BuiltinFn::Min,
            "max" => BuiltinFn::Max,
            "pow" => BuiltinFn::Pow,
            "toInt" => BuiltinFn::ToInt,
            "toDouble" => BuiltinFn::ToDouble,
            "print" => BuiltinFn::Print,
            _ => return None,
        })
    }
}

/// A comparison, negations included: `!(a < b)` is not `a >= b` once NaN
/// is involved, so a branch that jumps when a test fails keeps the test
/// and its polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    NotLt,
    NotLe,
    NotGt,
    NotGe,
}

impl Cmp {
    pub fn of(op: BinOp) -> Option<Cmp> {
        Some(match op {
            BinOp::Lt => Cmp::Lt,
            BinOp::Le => Cmp::Le,
            BinOp::Gt => Cmp::Gt,
            BinOp::Ge => Cmp::Ge,
            BinOp::Eq => Cmp::Eq,
            BinOp::Ne => Cmp::Ne,
            _ => return None,
        })
    }

    /// The test that holds exactly when `self` does not.
    pub fn negate(self) -> Cmp {
        match self {
            Cmp::Lt => Cmp::NotLt,
            Cmp::Le => Cmp::NotLe,
            Cmp::Gt => Cmp::NotGt,
            Cmp::Ge => Cmp::NotGe,
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::NotLt => Cmp::Lt,
            Cmp::NotLe => Cmp::Le,
            Cmp::NotGt => Cmp::Gt,
            Cmp::NotGe => Cmp::Ge,
        }
    }

    /// Compare as the interpreter does: every numeric comparison, `int`
    /// against `int` included, goes through `f64`.
    #[inline]
    // The negated forms are the point: they hold for NaN operands.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn holds(self, a: f64, b: f64) -> bool {
        match self {
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::NotLt => !(a < b),
            Cmp::NotLe => !(a <= b),
            Cmp::NotGt => !(a > b),
            Cmp::NotGe => !(a >= b),
        }
    }
}

/// Where an array, object or domain operand lives: a `Value` register, or
/// the field of `this` named by a bare identifier in a method body —
/// `This(recv, name)`, with the receiver in `Value` register `recv` — read
/// through the op's shape cache with the interpreter's fallback to a
/// global (and its "unknown variable" diagnostic at the name's span,
/// [`CodeBlock::name_span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    Reg(Reg),
    This(Reg, u16),
}

/// Sentinel for "not resolved at lower time" in [`Op::CallStatic`] /
/// [`Op::CallMethod`] / [`Op::New`]; the VM raises the interpreter's
/// diagnostic when executed.
pub const UNRESOLVED: u32 = u32::MAX;

/// One bytecode instruction. `dst`/`src`/`l`/`r` registers index the file
/// their op names (`…F` the `f64` file, `…I` and `…B` the `i64` file, a
/// [`Repr`] field the file it picks, the rest the `Value` file); `slot`s
/// are named slots; `name`/`k` index the block's [`CodeBlock::names`] /
/// [`CodeBlock::consts`] pools; jump targets are op indices. Ops that meet
/// objects resolve the name through their entry in [`CodeBlock::caches`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    // -- slots ----------------------------------------------------------
    /// `regs[dst] = consts[k]` (boxed).
    Const {
        dst: Reg,
        k: u16,
    },
    /// Read a slot into `dst` (its repr's file). Unbound, it runs the
    /// interpreter's fallback chain; with `dst == slot` on a memoizable
    /// global it caches the value, after which the slot is an operand.
    ReadSlot {
        dst: Reg,
        slot: Reg,
    },
    /// Mark a slot bound; its value is already in its register.
    Bind {
        slot: Reg,
    },
    /// Bind a slot to a pooled default (`VarDecl` without init).
    BindDefault {
        slot: Reg,
        k: u16,
    },
    /// `slot op= src` on a slot the lowering cannot prove bound; `src` is
    /// in the slot's repr. Bound, it combines in place; else it writes
    /// through the fallback chain with the interpreter's widening.
    AssignSlot {
        slot: Reg,
        src: Reg,
        mode: AssignOp,
    },
    /// `regs[dst] = regs[this]`, the frame's receiver; raises "`this`
    /// outside an instance method" when there is none.
    LoadThis {
        dst: Reg,
        this: Reg,
    },
    /// A field of an object into `dst` (file by `repr`).
    LoadField {
        dst: Reg,
        base: Base,
        name: u16,
        repr: Repr,
    },
    /// `base.field op= src`, `src` in `repr`'s file, widened and combined
    /// against the old value as the interpreter does.
    StoreField {
        base: Base,
        name: u16,
        src: Reg,
        mode: AssignOp,
        repr: Repr,
    },
    /// `dst = base[idx]` (bounds-checked; `idx` in the `i64` file).
    LoadElem {
        dst: Reg,
        base: Base,
        idx: Reg,
        repr: Repr,
    },
    /// `base[idx] op= src`, `src` in `repr`'s file.
    StoreElem {
        base: Base,
        idx: Reg,
        src: Reg,
        mode: AssignOp,
        repr: Repr,
    },
    /// `dst = arr[idx].field` — an object array's element field, one op.
    LoadElemField {
        dst: Reg,
        arr: Reg,
        idx: Reg,
        name: u16,
        repr: Repr,
    },
    /// Raise "PipelinedLoop over non-domain value" unless a `Domain`.
    CheckDomainPipe {
        src: Reg,
    },
    /// `dst = src` between `Value` registers (clones).
    MoveV {
        dst: Reg,
        src: Reg,
    },
    // -- generic (boxed) arithmetic and branches -------------------------
    Neg {
        dst: Reg,
        src: Reg,
    },
    Not {
        dst: Reg,
        src: Reg,
    },
    /// Non-logical binary op on boxed operands (the interpreter's
    /// evaluation); `And`/`Or` lower to branches.
    Bin {
        op: BinOp,
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    /// Unconditional jump; a backward one is a loop back-edge and ticks
    /// the fuel counter.
    Jump {
        to: u32,
    },
    /// Branch if true; raises "expected a boolean" on non-`Bool`.
    BranchTrue {
        cond: Reg,
        to: u32,
    },
    /// Branch if false; raises "expected a boolean" on non-`Bool`.
    BranchFalse {
        cond: Reg,
        to: u32,
    },
    // -- loops ----------------------------------------------------------
    /// Fused `foreach` header: reads the domain, jumps to `end` when empty,
    /// otherwise seeds the cursor (`i[cur]`, bound `i[cur + 1]`) and binds
    /// the `int` loop variable.
    ForeachBegin {
        dom: Reg,
        var: Reg,
        cur: Reg,
        end: u32,
    },
    /// Fused `foreach` back-edge: advance the cursor, rebind the loop
    /// variable, jump to `body` while in range.
    ForeachNext {
        var: Reg,
        cur: Reg,
        body: u32,
    },
    /// `PipelinedLoop` header: validates `num_packets` (`i[n]`), clamps it
    /// to the domain size in place, and binds the first packet.
    PipeBegin {
        dom: Reg,
        n: Reg,
        var: Reg,
        p: Reg,
        end: u32,
    },
    /// `PipelinedLoop` back-edge: bind packet `p+1` and jump to `body`.
    PipeNext {
        dom: Reg,
        n: Reg,
        var: Reg,
        p: Reg,
        body: u32,
    },
    // -- calls and allocation -------------------------------------------
    /// Call a method of the lowering class (`recv == None` in the AST),
    /// pre-resolved to a method id (or [`UNRESOLVED`]). Arguments sit in
    /// `argb..argb + argc`, each in its parameter's repr; the result lands
    /// in `dst` in the method's return repr.
    CallStatic {
        dst: Reg,
        mi: u32,
        name: u16,
        argb: Reg,
        argc: u8,
    },
    /// Call on an object receiver, dispatched on its runtime class. `mi`
    /// is the method the receiver's static class resolves to, whose
    /// signature placed the arguments; [`UNRESOLVED`] means boxed
    /// arguments and the interpreter's dynamic dispatch, domain and array
    /// intrinsics included.
    CallMethod {
        dst: Reg,
        recv: Reg,
        name: u16,
        mi: u32,
        argb: Reg,
        argc: u8,
    },
    /// An inlined call of method `mi`: ticks the fuel clock as the call
    /// does, then jumps to the inlined body at `hit` when the call would
    /// take its typed path — always for a receiver-less call (`recv ==
    /// None`), else when `Value` register `recv` holds an object whose
    /// class resolves to `mi` through this op's shape cache. A miss
    /// neither ticks nor jumps: it falls through to the original call op.
    Guard {
        recv: Option<Reg>,
        mi: u32,
        hit: u32,
    },
    /// A builtin on boxed arguments (`print`, or operands of unproved tag).
    CallBuiltin {
        dst: Reg,
        f: BuiltinFn,
        argb: Reg,
        argc: u8,
    },
    /// `new C()` with the class id pre-resolved (or [`UNRESOLVED`]).
    New {
        dst: Reg,
        ci: u32,
        name: u16,
    },
    /// `new T[len]`; `k` pools the element default.
    NewArray {
        dst: Reg,
        len: Reg,
        k: u16,
    },
    /// `[lo : hi]` domain literal from two `i64` registers.
    NewDomain {
        dst: Reg,
        lo: Reg,
        hi: Reg,
    },
    /// Method return with a value in `repr`'s file.
    Ret {
        src: Reg,
        repr: Repr,
    },
    /// Method return without a value.
    RetVoid,
    /// Stop a statement slice normally (`return` at any depth of a slice).
    Halt,
    /// `break`/`continue` escaped a statement slice: raise the
    /// interpreter's diagnostic at the enclosing top-level statement.
    FailEscape,
    // -- typed ----------------------------------------------------------
    AddF {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    SubF {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    MulF {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    DivF {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    RemF {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    /// Wrapping `i64` arithmetic; `/` and `%` by zero raise the
    /// interpreter's diagnostics.
    AddI {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    SubI {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    MulI {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    DivI {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    RemI {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    NegF {
        dst: Reg,
        src: Reg,
    },
    NegI {
        dst: Reg,
        src: Reg,
    },
    NotB {
        dst: Reg,
        src: Reg,
    },
    /// `int` → `double` widening.
    IToF {
        dst: Reg,
        src: Reg,
    },
    /// `dst` (boolean) = `l cmp r` on `f64` operands.
    CmpF {
        cmp: Cmp,
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    /// `dst` (boolean) = `l cmp r` on `i64` operands, compared as `f64`.
    CmpI {
        cmp: Cmp,
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    /// Jump to `to` when `l cmp r` (`f64` operands).
    BrF {
        cmp: Cmp,
        l: Reg,
        r: Reg,
        to: u32,
    },
    /// Jump to `to` when `l cmp r` (`i64` operands, compared as `f64`).
    BrI {
        cmp: Cmp,
        l: Reg,
        r: Reg,
        to: u32,
    },
    /// Jump to `to` when boolean `cond` equals `when`.
    BranchB {
        cond: Reg,
        when: bool,
        to: u32,
    },
    MoveF {
        dst: Reg,
        src: Reg,
    },
    MoveI {
        dst: Reg,
        src: Reg,
    },
    /// `dst op= src` on a bound `double` slot: the interpreter's combine.
    CombineF {
        dst: Reg,
        src: Reg,
        mode: AssignOp,
    },
    /// `dst op= src` on a bound `int` slot (wrapping).
    CombineI {
        dst: Reg,
        src: Reg,
        mode: AssignOp,
    },
    /// Box `src` (in `repr`'s file) into `Value` register `dst`.
    Box {
        dst: Reg,
        src: Reg,
        repr: Repr,
    },
    /// Unbox `Value` register `src` into `dst` (`repr`'s file): an `int`
    /// or `boolean` must carry its tag ("expected an int" / "expected a
    /// boolean"); a `double` also takes an `int`, widened.
    Unbox {
        dst: Reg,
        src: Reg,
        repr: Repr,
    },
    /// `lo()`/`hi()`/`size()` of a domain, `length()` of an array, into
    /// an `i64` register.
    Intrinsic {
        dst: Reg,
        base: Base,
        fast: FastMeth,
    },
    /// `sqrt`, `floor`, `ceil`, `exp`, `log` or `abs` of a `double`.
    Math1F {
        dst: Reg,
        src: Reg,
        f: BuiltinFn,
    },
    MinF {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    MaxF {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    MinI {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    MaxI {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    PowF {
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    /// `toInt` of a `double` (saturating `as`).
    FToI {
        dst: Reg,
        src: Reg,
    },
    /// `abs` of an `int` (wrapping).
    AbsI {
        dst: Reg,
        src: Reg,
    },
}

/// Bits of a [`ShapeCache`] word that hold the resolved index; the shape
/// id takes the rest.
const CACHE_INDEX_BITS: u32 = 24;
const CACHE_INDEX_MASK: u64 = (1 << CACHE_INDEX_BITS) - 1;

/// One-entry inline caches, one per op of a [`CodeBlock`], keyed by
/// [`Shape`] id: the last shape an op's object had and what it resolved
/// to there (a field slot, a method id, or "no such field"). A hit costs
/// one compare; a miss rescans and refills.
///
/// Each entry is a single word (`id << 24 | index`), so a reader on
/// another filter thread sees either a whole stale pair or a whole fresh
/// one, never one shape's id with another's index. Every pair ever stored
/// stays true, because shapes are immutable and their ids never reused,
/// so `Relaxed` suffices: the word publishes no other data. Shapes whose
/// id or index does not fit are simply never cached.
pub struct ShapeCache(Box<[AtomicU64]>);

impl ShapeCache {
    fn new(len: usize) -> ShapeCache {
        ShapeCache((0..len).map(|_| AtomicU64::new(0)).collect())
    }

    /// What op `pc` resolves to on `shape`: the cached index on a hit,
    /// else `scan`'s answer, which refills the entry.
    #[inline]
    pub fn resolve(
        &self,
        pc: usize,
        shape: &Shape,
        scan: impl FnOnce() -> Option<usize>,
    ) -> Option<usize> {
        let entry = &self.0[pc];
        let word = entry.load(Ordering::Relaxed);
        if word >> CACHE_INDEX_BITS == shape.id() {
            let i = word & CACHE_INDEX_MASK;
            return (i != CACHE_INDEX_MASK).then_some(i as usize);
        }
        let found = scan();
        // `CACHE_INDEX_MASK` itself records "not found".
        let index = match found {
            None => Some(CACHE_INDEX_MASK),
            Some(i) => u64::try_from(i).ok().filter(|i| *i < CACHE_INDEX_MASK),
        };
        let id_fits = shape.id() < 1 << (64 - CACHE_INDEX_BITS);
        if let Some(index) = index.filter(|_| id_fits) {
            entry.store(shape.id() << CACHE_INDEX_BITS | index, Ordering::Relaxed);
        }
        found
    }
}

/// A cloned block starts cold: cache entries are hints, not state.
impl Clone for ShapeCache {
    fn clone(&self) -> Self {
        ShapeCache::new(self.0.len())
    }
}

impl std::fmt::Debug for ShapeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShapeCache({} entries)", self.0.len())
    }
}

/// One lowered frame: a statement slice or a method body.
#[derive(Debug, Clone)]
pub struct CodeBlock {
    /// The class whose scope the code runs in (receiver-less call
    /// resolution, `this` instantiation for slices).
    pub class: String,
    pub ops: Vec<Op>,
    /// Source span per op, parallel to `ops` (diagnostic parity).
    pub spans: Vec<Span>,
    /// The span of the identifier a [`Base::This`] operand reads, per op
    /// that has one (sorted by op index): the interpreter reports an
    /// unknown name there, not at the enclosing expression.
    pub name_spans: Vec<(u32, Span)>,
    /// The `Value` register that holds the frame's receiver (`Void` when
    /// it has none).
    pub this: Reg,
    pub consts: Vec<ConstVal>,
    /// Identifier pool: field/method/class names referenced by ops.
    pub names: Vec<String>,
    /// Name id per named slot; slots `0..slot_names.len()` are named,
    /// higher registers are constants and temporaries.
    pub slot_names: Vec<u16>,
    /// Lower-time fallback classification per named slot.
    pub slot_kinds: Vec<SlotKind>,
    /// The register file each named slot lives in.
    pub slot_repr: Vec<Repr>,
    /// Slots whose fallback read may be memoized in the frame: names that
    /// are no field of the class and are never assigned — neither in this
    /// block nor in any method body (the only code that can run *inside*
    /// this frame's lifetime). The VM caches the first lookup in the slot
    /// so hot loops stop re-hashing extern names; write-back skips these.
    pub cacheable: Vec<bool>,
    /// Constant registers a frame starts with, per unboxed file.
    pub f_consts: Vec<(Reg, f64)>,
    pub i_consts: Vec<(Reg, i64)>,
    /// Frame size (named slots + constants + temporaries), every file.
    pub n_regs: u16,
    /// Per-op shape caches for field slots, `this`-field fallbacks and
    /// object method dispatch, parallel to `ops`.
    pub caches: ShapeCache,
}

impl CodeBlock {
    pub fn slot_count(&self) -> usize {
        self.slot_names.len()
    }

    pub fn name(&self, id: u16) -> &str {
        &self.names[id as usize]
    }

    /// The identifier span recorded for op `pc`, else the op's own.
    pub fn name_span(&self, pc: usize) -> Span {
        match self
            .name_spans
            .binary_search_by_key(&(pc as u32), |(at, _)| *at)
        {
            Ok(k) => self.name_spans[k].1,
            Err(_) => self.spans[pc],
        }
    }
}

/// A method's calling convention: parameter and return representations
/// and the declared return type (the caller's static type of the result).
#[derive(Debug, Clone)]
pub struct Sig {
    pub params: Vec<Repr>,
    /// `None` for `void`.
    pub ret: Option<Repr>,
    pub ret_ty: Type,
}

/// A lowered method: its frame plus the call-boundary metadata the VM
/// needs (arity check, the declaration span the interpreter uses for
/// arity diagnostics).
#[derive(Debug, Clone)]
pub struct MethodCode {
    pub code: CodeBlock,
    pub decl_span: Span,
    pub class: String,
    pub name: String,
}

/// Instantiation recipe for a class: its shape (fields in declaration
/// order) and each field's pooled default.
#[derive(Debug, Clone)]
pub struct ClassCode {
    pub shape: Arc<Shape>,
    pub defaults: Vec<ConstVal>,
}

impl ClassCode {
    pub fn new(name: &str, fields: Vec<(String, ConstVal)>) -> ClassCode {
        let (names, defaults) = fields.into_iter().unzip();
        ClassCode {
            shape: Shape::new(name, names),
            defaults,
        }
    }

    pub fn instantiate(&self) -> ObjectVal {
        let slots = self.defaults.iter().map(|d| Some(d.to_value())).collect();
        ObjectVal::new(Arc::clone(&self.shape), slots)
    }
}

/// Every method of every class of a program, lowered once. Slices lowered
/// via [`ProgramCode::lower_slice`] resolve their calls against this. Plain
/// data throughout: safe to share across filter threads in an `Arc`.
#[derive(Debug, Clone, Default)]
pub struct ProgramCode {
    pub methods: Vec<MethodCode>,
    /// Signature per method, parallel to `methods`.
    pub sigs: Vec<Sig>,
    pub classes: Vec<ClassCode>,
    /// class name → method name → index into `methods`.
    pub methods_by_class: HashMap<String, HashMap<String, u32>>,
    /// class name → index into `classes`.
    pub class_map: HashMap<String, u32>,
    /// Names assigned as plain variables anywhere in a method body. A
    /// slot fallback-assignment can land on a global at runtime, and
    /// methods are the only code that can run during another frame's
    /// lifetime — so globals outside this set are safe to memoize.
    pub assigned_names: std::collections::HashSet<String>,
}

impl ProgramCode {
    pub fn method_id(&self, class: &str, method: &str) -> Option<u32> {
        self.methods_by_class.get(class)?.get(method).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowered_artifacts_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProgramCode>();
        assert_send_sync::<CodeBlock>();
        assert_send_sync::<MethodCode>();
    }

    #[test]
    fn const_defaults_mirror_interpreter() {
        assert!(ConstVal::default_for(&Type::Int)
            .to_value()
            .deep_eq(&Value::Int(0)));
        assert!(ConstVal::default_for(&Type::Double)
            .to_value()
            .deep_eq(&Value::Double(0.0)));
        assert!(ConstVal::default_for(&Type::Bool)
            .to_value()
            .deep_eq(&Value::Bool(false)));
        assert!(ConstVal::default_for(&Type::RectDomain(1))
            .to_value()
            .deep_eq(&Value::Domain(0, -1)));
        assert!(ConstVal::default_for(&Type::Class("X".into()))
            .to_value()
            .deep_eq(&Value::Null));
    }

    #[test]
    fn shape_cache_hits_only_the_shape_it_was_filled_for() {
        let cache = ShapeCache::new(1);
        let (a, b) = (Shape::new("P", vec![]), Shape::new("P", vec![]));
        let unreachable = || -> Option<usize> { panic!("expected a hit") };
        assert_eq!(cache.resolve(0, &a, || Some(3)), Some(3));
        assert_eq!(cache.resolve(0, &a, unreachable), Some(3));
        assert_eq!(cache.resolve(0, &b, || None), None, "another shape misses");
        assert_eq!(cache.resolve(0, &b, unreachable), None, "absence is cached");
        assert_eq!(cache.resolve(0, &a, || Some(3)), Some(3), "refilled for a");
        assert_eq!(
            cache.clone().resolve(0, &a, || Some(5)),
            Some(5),
            "clones start cold"
        );
    }

    #[test]
    fn const_pool_identity_keeps_signed_zero_distinct() {
        assert!(!ConstVal::Double(0.0).same(&ConstVal::Double(-0.0)));
        assert!(ConstVal::Double(1.5).same(&ConstVal::Double(1.5)));
        assert!(ConstVal::Int(3).same(&ConstVal::Int(3)));
        assert!(!ConstVal::Int(3).same(&ConstVal::Double(3.0)));
    }

    #[test]
    fn negated_comparisons_hold_exactly_when_the_test_fails() {
        let all = [
            Cmp::Lt,
            Cmp::Le,
            Cmp::Gt,
            Cmp::Ge,
            Cmp::Eq,
            Cmp::Ne,
            Cmp::NotLt,
            Cmp::NotLe,
            Cmp::NotGt,
            Cmp::NotGe,
        ];
        let vals = [f64::NAN, -0.0, 0.0, 1.0, f64::INFINITY];
        for c in all {
            assert_eq!(c.negate().negate(), c);
            for a in vals {
                for b in vals {
                    assert_eq!(c.negate().holds(a, b), !c.holds(a, b), "{c:?} {a} {b}");
                }
            }
        }
        // NaN makes `!(a < b)` and `a >= b` differ.
        assert!(Cmp::NotLt.holds(f64::NAN, 1.0) && !Cmp::Ge.holds(f64::NAN, 1.0));
    }
}

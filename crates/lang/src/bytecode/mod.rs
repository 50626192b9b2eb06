//! Register bytecode for filter bodies (ROADMAP item 4).
//!
//! The tree-walking interpreter ([`crate::interp::Interp`]) spends most of a
//! filter's per-packet budget in dispatch: every variable read hashes up to
//! three `HashMap`s, every expression node re-matches its `ExprKind`, and
//! every value round-trips through `Rc<RefCell<..>>` clones. This module
//! lowers a `TypedProgram` statement slice once, at plan-build time, into a
//! compact register program that the [`vm::Vm`] then executes per packet:
//!
//! * **Slot-indexed locals** — every name the slice can touch is assigned a
//!   register at lower time. Reads and writes of live locals are array
//!   indexing, never a `HashMap` probe. Names that turn out not to be locals
//!   at run time (fields of `this`, extern globals) take a fallback path
//!   whose probe order matches the interpreter's lookup exactly
//!   (local → `this` field → global), with the category pre-resolved at
//!   lower time where it is statically known ([`SlotKind`]).
//! * **Constant pool** — literals and per-type default values are
//!   materialized once per block ([`ConstVal`]), not per evaluation.
//! * **Fused fast-path ops** — the patterns the figures actually execute:
//!   `foreach` over a rectilinear section is a two-op loop
//!   ([`Op::ForeachBegin`]/[`Op::ForeachNext`]) with the cursor in a
//!   register; reduction accumulates (`x += e`, `a[i] += e`) are single
//!   read-modify-write ops carrying their [`AssignOp`] mode; packed f64/i64
//!   array loads and stores are one bounds-checked op each
//!   ([`Op::LoadIndex`]/[`Op::StoreIndex`]); domain/array method calls
//!   (`d.lo()`, `a.length()`) dispatch through a pre-resolved [`FastMeth`]
//!   instead of a string compare.
//! * **Shape caches** — object field reads and writes, `this`-field
//!   fallbacks and object method calls resolve through a one-entry
//!   per-op [`ShapeCache`] keyed by the object's [`Shape`] id: a hit is
//!   one compare and one index, with no string hashed or allocated.
//!
//! Semantics are bit-for-bit those of `Interp::exec_stmts_with_vars`,
//! including evaluation order, implicit int→double widening, wrapping
//! integer arithmetic, and every diagnostic (message *and* span). The
//! interpreter stays in the tree as the differential oracle — see
//! `crates/lang/tests/vm_differential.rs`.
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

/// Register index inside one [`CodeBlock`] frame.
pub type Reg = u16;

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
}

impl ConstVal {
    pub fn to_value(self) -> Value {
        match self {
            ConstVal::Int(v) => Value::Int(v),
            ConstVal::Double(v) => Value::Double(v),
            ConstVal::Bool(v) => Value::Bool(v),
            ConstVal::Null => Value::Null,
            ConstVal::Domain(lo, hi) => Value::Domain(lo, hi),
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

/// Pre-resolved receiver method for [`Op::CallMethod`]: the domain/array
/// intrinsics are dispatched without a string compare on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastMeth {
    None,
    DomLo,
    DomHi,
    DomSize,
    ArrLen,
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

/// Sentinel for "not resolved at lower time" in [`Op::CallStatic`] /
/// [`Op::New`]; the VM raises the interpreter's diagnostic when executed.
pub const UNRESOLVED: u32 = u32::MAX;

/// One bytecode instruction. Registers index the frame's `regs` array;
/// `name`/`k` index the block's [`CodeBlock::names`] / [`CodeBlock::consts`]
/// pools; jump targets are op indices. Ops that meet objects resolve the
/// name through their entry in [`CodeBlock::caches`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `regs[dst] = consts[k]`
    Const {
        dst: Reg,
        k: u16,
    },
    /// Read a named slot with the interpreter's fallback chain when the
    /// slot is not live (local → `this` field → global → error).
    ReadSlot {
        dst: Reg,
        slot: Reg,
    },
    /// Bind a named slot unconditionally (`VarDecl` with initializer).
    BindSlot {
        slot: Reg,
        src: Reg,
    },
    /// Bind a named slot to a pooled default (`VarDecl` without init).
    BindDefault {
        slot: Reg,
        k: u16,
    },
    /// Implicit int→double widening at declaration/call boundaries.
    CoerceDouble {
        reg: Reg,
    },
    /// Fused read-modify-write on a named slot (`x = e`, `x += e`,
    /// `x -= e`), with the interpreter's widening-then-combine rule and
    /// write fallback chain.
    AssignSlot {
        slot: Reg,
        src: Reg,
        mode: AssignOp,
    },
    /// `regs[dst] = this`
    LoadThis {
        dst: Reg,
    },
    /// `regs[dst] = base.field`
    LoadField {
        dst: Reg,
        base: Reg,
        name: u16,
    },
    /// Fused `base.field op= src`.
    StoreField {
        base: Reg,
        name: u16,
        src: Reg,
        mode: AssignOp,
    },
    /// Packed array load: `regs[dst] = base[idx]` (bounds-checked).
    LoadIndex {
        dst: Reg,
        base: Reg,
        idx: Reg,
    },
    /// Packed array store / reduction accumulate: `base[idx] op= src`.
    StoreIndex {
        base: Reg,
        idx: Reg,
        src: Reg,
        mode: AssignOp,
    },
    /// Raise "expected an int" unless the register holds an `Int`.
    CheckInt {
        src: Reg,
    },
    /// Raise "expected a boolean" unless the register holds a `Bool`.
    CheckBool {
        src: Reg,
    },
    /// Raise "PipelinedLoop over non-domain value" unless a `Domain`.
    CheckDomainPipe {
        src: Reg,
    },
    Neg {
        dst: Reg,
        src: Reg,
    },
    Not {
        dst: Reg,
        src: Reg,
    },
    /// Non-logical binary op (arith/comparison); `And`/`Or` lower to
    /// branches for short-circuit evaluation.
    Bin {
        op: BinOp,
        dst: Reg,
        l: Reg,
        r: Reg,
    },
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
    /// Fused `foreach` header: checks the domain, jumps to `end` when
    /// empty, otherwise seeds the cursor and loop variable.
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
        dom: Reg,
        body: u32,
    },
    /// `PipelinedLoop` header: validates `num_packets`, clamps it to the
    /// domain size (in place, in `n`), and binds the first packet.
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
    /// Call a method of the lowering class (`recv == None` in the AST),
    /// pre-resolved to a method id (or [`UNRESOLVED`]).
    CallStatic {
        dst: Reg,
        mi: u32,
        name: u16,
        argb: Reg,
        argc: u8,
    },
    /// Call with an explicit receiver: domain/array intrinsics via
    /// `fast`, objects via dynamic dispatch on the runtime class.
    CallMethod {
        dst: Reg,
        recv: Reg,
        name: u16,
        fast: FastMeth,
        argb: Reg,
        argc: u8,
    },
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
    /// `[lo : hi]` domain literal from two int registers.
    NewDomain {
        dst: Reg,
        lo: Reg,
        hi: Reg,
    },
    /// Method return with a value.
    Ret {
        src: Reg,
    },
    /// Method return without a value (also `break`/`continue` escaping a
    /// method body, which the interpreter folds to `Void`).
    RetVoid,
    /// Stop a statement slice normally (`return` at any depth of a slice).
    Halt,
    /// `break`/`continue` escaped a statement slice: raise the
    /// interpreter's diagnostic at the enclosing top-level statement.
    FailEscape,
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
    pub consts: Vec<ConstVal>,
    /// Identifier pool: field/method/class names referenced by ops.
    pub names: Vec<String>,
    /// Name id per named slot; slots `0..slot_names.len()` are named,
    /// higher registers are temporaries.
    pub slot_names: Vec<u16>,
    /// Lower-time fallback classification per named slot.
    pub slot_kinds: Vec<SlotKind>,
    /// Slots whose fallback read may be memoized in the frame: global-kind
    /// slots that are never assigned — neither in this block nor in any
    /// method body (the only code that can run *inside* this frame's
    /// lifetime). The VM caches the first global lookup in the slot so hot
    /// loops stop re-hashing extern names; write-back skips these.
    pub cacheable: Vec<bool>,
    /// Total frame size (named slots + temporaries).
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
}

/// A lowered method: its frame plus the call-boundary metadata the VM
/// needs (arity check, return coercion, the declaration span the
/// interpreter uses for arity diagnostics).
#[derive(Debug, Clone)]
pub struct MethodCode {
    pub code: CodeBlock,
    pub params: u16,
    /// Return type is `double`: coerce an `Int` return value.
    pub coerce_ret: bool,
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
    pub classes: Vec<ClassCode>,
    /// class name → method name → index into `methods`.
    pub methods_by_class: HashMap<String, HashMap<String, u32>>,
    /// class name → index into `classes`.
    pub class_map: HashMap<String, u32>,
    /// Names assigned (via [`Op::AssignSlot`]) anywhere in a method body.
    /// A slot fallback-assignment can land on a global at runtime, and
    /// methods are the only code that can run during another frame's
    /// lifetime — so globals outside this set are safe to memoize.
    pub assigned_names: std::collections::HashSet<String>,
}

impl ProgramCode {
    pub fn method_id(&self, class: &str, method: &str) -> Option<u32> {
        self.methods_by_class.get(class)?.get(method).copied()
    }

    pub fn class_id(&self, class: &str) -> Option<u32> {
        self.class_map.get(class).copied()
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
}

//! Packing of communicated values (Section 5, Figure 4).
//!
//! For each boundary chosen as a filter cut, the fields crossing it are
//! sorted by the first downstream filter that consumes them:
//!
//! - fields first used by the **immediately next** filter are packed
//!   *instance-wise* (array-of-structs):
//!   `<count, t1.x, t1.y, …, tcount.x, tcount.y>`;
//! - fields first used by **later** filters are packed *field-wise*
//!   (struct-of-arrays, each field contiguous with an offset), sorted by
//!   the order in which they are first read:
//!   `<count, offset1, t1.x, …, tcount.x, t1.y, …, tcount.y>`.
//!
//! Instance-wise packing puts values the next filter touches together in
//! memory; field-wise packing lets a filter forward an untouched field with
//! one contiguous copy instead of re-gathering it.
//!
//! This module computes layouts *and* implements the byte-level
//! pack/unpack over interpreter [`Value`]s used by Path-A execution,
//! including compaction at filtering (`CondFilter`) cuts: upstream packs
//! only passing elements plus the passing-index list, downstream scatters
//! them back.

use crate::error::{CompileError, CompileResult};
use crate::normalize::NormalizedPipeline;
use crate::place::{Place, Sectioning};
use cgp_lang::ast::Type;
use cgp_lang::value::{ArrayVal, ObjectVal, Shape, Value};
use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// One packed field: the place and the filter (pipeline-unit index) that
/// first consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct PackEntry {
    pub place: Place,
    pub first_consumer: usize,
    /// Scalar element type of the packed values.
    pub elem: ScalarKind,
}

/// Scalar wire types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    I64,
    F64,
    Bool,
    /// A 1-D RectDomain value (two i64s).
    Domain,
}

impl ScalarKind {
    pub(crate) fn byte_len(self) -> usize {
        match self {
            ScalarKind::I64 | ScalarKind::F64 => 8,
            ScalarKind::Bool => 1,
            ScalarKind::Domain => 16,
        }
    }
}

/// A buffer layout for one filter cut.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackLayout {
    /// Entries packed instance-wise (interleaved per element).
    pub instance_wise: Vec<PackEntry>,
    /// Entries packed field-wise (contiguous per field), in first-read
    /// order.
    pub field_wise: Vec<PackEntry>,
    /// `Some(cond_id)` when this cut is a filtering boundary: sectioned
    /// entries carry only passing elements plus the passing-index list.
    pub filtered: Option<usize>,
}

impl PackLayout {
    pub fn entries(&self) -> impl Iterator<Item = &PackEntry> {
        self.instance_wise.iter().chain(self.field_wise.iter())
    }

    pub fn is_empty(&self) -> bool {
        self.instance_wise.is_empty() && self.field_wise.is_empty()
    }
}

/// Compute the layout for a cut whose ReqComm is `set`, given the Cons sets
/// of the downstream filters in pipeline order (`downstream[0]` is the
/// filter immediately after the cut; its pipeline index is
/// `first_unit_after`).
pub fn compute_layout(
    np: &NormalizedPipeline,
    set: &crate::place::PlaceSet,
    downstream_cons: &[crate::place::PlaceSet],
    first_unit_after: usize,
    filtered: Option<usize>,
) -> CompileResult<PackLayout> {
    let mut entries: Vec<PackEntry> = Vec::new();
    for p in set.sorted() {
        let first = downstream_cons
            .iter()
            .position(|cons| cons.iter().any(|q| touches(q, p)))
            .map(|k| first_unit_after + k)
            // Unconsumed leftovers (conservative analysis) go last.
            .unwrap_or(first_unit_after + downstream_cons.len());
        entries.push(PackEntry {
            place: (*p).clone(),
            first_consumer: first,
            elem: scalar_kind(np, p)?,
        });
    }
    let mut layout = PackLayout {
        filtered,
        ..Default::default()
    };
    for e in entries {
        if e.first_consumer == first_unit_after {
            layout.instance_wise.push(e);
        } else {
            layout.field_wise.push(e);
        }
    }
    // Field-wise: sorted by the order in which they are first read.
    layout.field_wise.sort_by(|a, b| {
        a.first_consumer
            .cmp(&b.first_consumer)
            .then(a.place.cmp(&b.place))
    });
    Ok(layout)
}

/// Do two places refer to overlapping storage (same root, one field path a
/// prefix of the other)?
fn touches(a: &Place, b: &Place) -> bool {
    a.root == b.root && (a.fields.starts_with(&b.fields) || b.fields.starts_with(&a.fields))
}

/// The scalar wire type a place's packed values have.
fn scalar_kind(np: &NormalizedPipeline, p: &Place) -> CompileResult<ScalarKind> {
    let mut ty = np
        .typed
        .symbols
        .scope(&np.class, "main")
        .and_then(|sc| sc.get(&p.root).cloned())
        .or_else(|| np.typed.symbols.externs.get(&p.root).cloned())
        .ok_or_else(|| CompileError::new(format!("unknown root `{}` in pack layout", p.root)))?;
    if !matches!(p.sect, Sectioning::NotIndexed) {
        let Type::Array(el) = ty else {
            return Err(CompileError::new(format!(
                "sectioned non-array `{}` in pack layout",
                p.root
            )));
        };
        ty = *el;
    }
    for f in &p.fields {
        let Type::Class(c) = &ty else {
            return Err(CompileError::new(format!(
                "field path on non-class in pack layout: {p}"
            )));
        };
        ty = np
            .typed
            .program
            .class(c)
            .and_then(|cd| cd.field(f))
            .map(|fd| fd.ty.clone())
            .ok_or_else(|| CompileError::new(format!("unknown field `{f}` of `{c}`")))?;
    }
    match ty {
        Type::Int => Ok(ScalarKind::I64),
        Type::Double => Ok(ScalarKind::F64),
        Type::Bool => Ok(ScalarKind::Bool),
        Type::RectDomain(1) => Ok(ScalarKind::Domain),
        other => Err(CompileError::new(format!(
            "cannot pack value of type `{other}` (place {p}); decompose at a different boundary"
        ))),
    }
}

// ---------------------------------------------------------------------------
// runtime pack / unpack over interpreter values

/// Concrete environment used to evaluate symbolic section bounds, plus the
/// receive arrays [`unpack`] reuses across the packets of one receiving
/// unit.
#[derive(Debug, Clone)]
pub struct RuntimeEnv {
    /// The pipelined loop's packet variable. `<pkt_var>.lo` and
    /// `<pkt_var>.hi` resolve to the packet being packed or unpacked (the
    /// `pkt` argument of [`pack`], the header read by [`unpack`]).
    pub pkt_var: String,
    pub symbols: HashMap<String, i64>,
    recv: RefCell<ReceiveArrays>,
}

impl RuntimeEnv {
    /// An environment binding only the packet variable's name.
    pub fn new(pkt_var: &str) -> Self {
        RuntimeEnv {
            pkt_var: pkt_var.to_string(),
            symbols: HashMap::new(),
            recv: RefCell::default(),
        }
    }

    /// [`RuntimeEnv::new`] with `<pkt_var>.lo`/`.hi` also recorded in
    /// `symbols` (pack and unpack still take the bounds from their packet).
    pub fn for_packet(pkt_var: &str, lo: i64, hi: i64) -> Self {
        RuntimeEnv::new(pkt_var)
            .with(format!("{pkt_var}.lo"), lo)
            .with(format!("{pkt_var}.hi"), hi)
    }

    pub fn with(mut self, name: impl Into<String>, v: i64) -> Self {
        self.symbols.insert(name.into(), v);
        self
    }

    /// Symbol `s` while packet `pkt` is in flight.
    fn lookup(&self, s: &str, pkt: (i64, i64)) -> Option<i64> {
        match s.strip_prefix(self.pkt_var.as_str()) {
            Some(".lo") => Some(pkt.0),
            Some(".hi") => Some(pkt.1),
            _ => self.symbols.get(s).copied(),
        }
    }
}

type SharedArray = Rc<RefCell<ArrayVal>>;

/// The arrays one receiving unit's last packet was unpacked into, one per
/// sectioned root. They are boxed, with a `Null` in every slot the packet
/// did not carry, so a plan that reads a slot it was not shipped fails
/// instead of reading a default or an earlier packet's value. The next
/// packet reuses a root's array only when the filter kept no reference to
/// it; it then resets just the slots from the previous section's lower
/// bound to the end (everything below is already `Null`) and resizes to
/// this packet's length, so unpacking costs O(packet) rather than O(top
/// index).
///
/// It also keeps the field paths of the last layout it unpacked, so the
/// objects every packet rebuilds share one shape per received root.
#[derive(Default)]
struct ReceiveArrays {
    slots: Vec<RecvSlot>,
    paths: Option<(PackLayout, Rc<[FieldPath]>)>,
}

struct RecvSlot {
    root: String,
    array: SharedArray,
    /// Every slot below this index is `Null`.
    written_from: usize,
}

/// An environment's clone starts without receive arrays: they are never
/// shared between environments.
impl Clone for ReceiveArrays {
    fn clone(&self) -> Self {
        ReceiveArrays::default()
    }
}

impl std::fmt::Debug for ReceiveArrays {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.slots.iter().map(|s| (&s.root, s.array.borrow().len())))
            .finish()
    }
}

impl ReceiveArrays {
    /// The array `root` is unpacked into for this packet, `alloc_len`
    /// slots long, whose writes start at slot `lowest`: the previous
    /// packet's array when no one else holds it, else fresh storage.
    fn take(&mut self, root: &str, alloc_len: usize, lowest: usize) -> SharedArray {
        let fresh = || Rc::new(RefCell::new(ArrayVal::Boxed(vec![Value::Null; alloc_len])));
        let Some(slot) = self.slots.iter_mut().find(|s| s.root == root) else {
            self.slots.push(RecvSlot {
                root: root.to_string(),
                array: fresh(),
                written_from: lowest,
            });
            return Rc::clone(&self.slots.last().expect("just pushed").array);
        };
        match Rc::get_mut(&mut slot.array).map(RefCell::get_mut) {
            Some(ArrayVal::Boxed(a)) => {
                a.truncate(alloc_len);
                let from = slot.written_from.min(a.len());
                a[from..].fill(Value::Null);
                a.resize(alloc_len, Value::Null);
            }
            // The filter retained last packet's array: leave it alone.
            _ => slot.array = fresh(),
        }
        slot.written_from = lowest;
        Rc::clone(&slot.array)
    }

    /// The field paths of `layout`'s entries, made once per layout.
    fn paths(&mut self, layout: &PackLayout) -> Rc<[FieldPath]> {
        match &self.paths {
            Some((l, paths)) if l == layout => Rc::clone(paths),
            _ => {
                let paths: Rc<[FieldPath]> = field_paths(layout).into();
                self.paths = Some((layout.clone(), Rc::clone(&paths)));
                paths
            }
        }
    }

    /// A second entry of the same root in this packet writes from `lowest`.
    fn extend_written(&mut self, root: &str, lowest: usize) {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.root == root) {
            slot.written_from = slot.written_from.min(lowest);
        }
    }
}

/// The slots a sectioned entry covers in one packet.
struct Run {
    /// The section's lower bound.
    lo: i64,
    /// The element indices the wire carries, in wire order.
    ix: Vec<i64>,
}

/// Class of the objects unpack rebuilds from field paths.
const PACKED_CLASS: &str = "__packed";

/// The shape and slot of each step of a place's field path, root first.
type FieldPath = Vec<(Arc<Shape>, usize)>;

/// The field path of every entry of `layout` (instance-wise, then
/// field-wise). Entries with the same root and path prefix share that
/// step's shape, whose names are the fields those entries reach next, in
/// entry order: one shape per received object root. Fields that did not
/// cross have no slot, so reading one fails as a missing field.
fn field_paths(layout: &PackLayout) -> Vec<FieldPath> {
    let places: Vec<&Place> = layout.entries().map(|e| &e.place).collect();
    // (a place reaching the step, the step's depth, its shape)
    let mut shapes: Vec<(&Place, usize, Arc<Shape>)> = Vec::new();
    let mut paths = Vec::with_capacity(places.len());
    for &p in &places {
        let mut path = FieldPath::new();
        for (k, field) in p.fields.iter().enumerate() {
            let at_step = |q: &Place| {
                q.root == p.root && q.fields.len() > k && q.fields[..k] == p.fields[..k]
            };
            let shape = match shapes.iter().find(|(q, j, _)| *j == k && at_step(q)) {
                Some((_, _, s)) => Arc::clone(s),
                None => {
                    let mut names: Vec<String> = Vec::new();
                    for q in places.iter().filter(|q| at_step(q)) {
                        if !names.contains(&q.fields[k]) {
                            names.push(q.fields[k].clone());
                        }
                    }
                    let s = Shape::new(PACKED_CLASS, names);
                    shapes.push((p, k, Arc::clone(&s)));
                    s
                }
            };
            let slot = shape
                .slot_of(field)
                .expect("the step's names include this path's field");
            path.push((shape, slot));
        }
        paths.push(path);
    }
    paths
}

/// Bind the array `run` unpacks into under `root`: the one an earlier
/// entry of this packet bound for the same root, else one taken from the
/// receive arrays, long enough for the run's top index and at least one
/// slot per packet point.
fn bind_array(
    vars: &mut HashMap<String, Value>,
    recv: &mut ReceiveArrays,
    root: &str,
    run: &Run,
    packet_len: usize,
) -> CompileResult<SharedArray> {
    // The receiving filter may touch the whole section, not only the
    // slots the wire fills.
    let lowest = run.ix.iter().copied().fold(run.lo, i64::min).max(0) as usize;
    match vars.get(root) {
        Some(Value::Array(a)) => {
            recv.extend_written(root, lowest);
            Ok(Rc::clone(a))
        }
        Some(_) => Err(CompileError::new(format!("`{root}` is not an array"))),
        None => {
            let top = run.ix.iter().copied().max().map_or(0, |m| m.max(-1) + 1);
            let a = recv.take(root, (top as usize).max(packet_len), lowest);
            vars.insert(root.to_string(), Value::Array(Rc::clone(&a)));
            Ok(a)
        }
    }
}

/// Concrete index range (lo, hi, stride) selected by a place's section for
/// packet `pkt`.
fn concrete_range(
    p: &Place,
    env: &RuntimeEnv,
    pkt: (i64, i64),
    value_len: usize,
) -> CompileResult<(i64, i64, i64)> {
    match &p.sect {
        Sectioning::NotIndexed => Ok((0, 0, 1)),
        Sectioning::All => Ok((0, value_len as i64 - 1, 1)),
        Sectioning::Range(sec) => {
            let f = |s: &str| env.lookup(s, pkt);
            let lo = sec.lo.eval(&f).ok_or_else(|| {
                CompileError::new(format!("cannot evaluate section lower bound of {p}"))
            })?;
            let hi = sec.hi.eval(&f).ok_or_else(|| {
                CompileError::new(format!("cannot evaluate section upper bound of {p}"))
            })?;
            Ok((lo, hi, sec.stride.max(1)))
        }
    }
}

/// The concrete element indices of a section (dense or strided).
fn section_indices(lo: i64, hi: i64, stride: i64) -> Vec<i64> {
    if hi < lo {
        return Vec::new();
    }
    (lo..=hi).step_by(stride.max(1) as usize).collect()
}

/// Does a section map each packet point to exactly one element (so a
/// filtering cut can ship only the passing ones)? Never a whole-array
/// section, whose length is the array's.
fn per_point(p: &Place, (slo, shi, stride): (i64, i64, i64), pkt: (i64, i64)) -> bool {
    !matches!(p.sect, Sectioning::All) && stride == 1 && shi - slo == pkt.1 - pkt.0
}

/// Indices of the whole-array (`[*]`) entries among `entries`.
fn whole_arrays(entries: &[PackEntry]) -> impl Iterator<Item = usize> + '_ {
    entries
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.place.sect, Sectioning::All))
        .map(|(k, _)| k)
}

/// A whole-array length read off the wire, bounded by the bytes left
/// (every element takes at least one) before anything is sized by it.
fn wire_len(n: i64, left: usize) -> CompileResult<usize> {
    usize::try_from(n)
        .ok()
        .filter(|n| *n <= left)
        .ok_or_else(|| CompileError::new(format!("section length {n} exceeds the packet")))
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Scratch size (in 8-byte words) for chunked LE conversion of value
/// runs: converted on the stack, appended as whole byte slices.
const RUN_CHUNK: usize = 64;

/// Pack a sectioned entry's whole run of elements.
///
/// Fast path — a plain array root (no field path) with an 8-byte scalar
/// kind: the array is borrowed **once** for the run, a dense one's
/// elements are its words, and the words are LE-converted through a stack
/// scratch buffer, appended chunk-at-a-time (no per-element `Value` clone,
/// hash lookup, or 8-byte push). Anything else falls back to the general
/// per-element select.
fn pack_run(
    out: &mut Vec<u8>,
    kind: ScalarKind,
    vars: &HashMap<String, Value>,
    p: &Place,
    ix: &[i64],
) -> CompileResult<()> {
    if let (true, Some(Value::Array(a))) = (p.fields.is_empty(), vars.get(&p.root)) {
        let out_of_range =
            |i: i64| CompileError::new(format!("pack index {i} out of range for `{}`", p.root));
        match (&*a.borrow(), kind) {
            (ArrayVal::F64(a), ScalarKind::F64) => {
                return extend_words(out, ix, |i| {
                    a.get(i as usize)
                        .map(|x| x.to_bits())
                        .ok_or_else(|| out_of_range(i))
                })
            }
            (ArrayVal::I64(a), ScalarKind::I64) => {
                return extend_words(out, ix, |i| {
                    a.get(i as usize)
                        .map(|x| *x as u64)
                        .ok_or_else(|| out_of_range(i))
                })
            }
            (ArrayVal::Boxed(a), ScalarKind::F64 | ScalarKind::I64) => {
                return extend_words(out, ix, |i| {
                    let v = a.get(i as usize).ok_or_else(|| out_of_range(i))?;
                    match (kind, v) {
                        (ScalarKind::I64, Value::Int(x)) => Ok(*x as u64),
                        (ScalarKind::F64, Value::Double(x)) => Ok(x.to_bits()),
                        (ScalarKind::F64, Value::Int(x)) => Ok((*x as f64).to_bits()),
                        (k, other) => Err(CompileError::new(format!(
                            "cannot pack value `{other}` as {k:?}"
                        ))),
                    }
                })
            }
            _ => {}
        }
    }
    for &i in ix {
        push_scalar(out, kind, &select(vars, p, Some(i))?)?;
    }
    Ok(())
}

/// Append `word(i)` for each index of `ix` as LE bytes, converted through
/// a stack scratch buffer and appended chunk-at-a-time.
fn extend_words(
    out: &mut Vec<u8>,
    ix: &[i64],
    mut word: impl FnMut(i64) -> CompileResult<u64>,
) -> CompileResult<()> {
    let mut scratch = [0u8; RUN_CHUNK * 8];
    let mut filled = 0usize;
    for &i in ix {
        scratch[filled * 8..filled * 8 + 8].copy_from_slice(&word(i)?.to_le_bytes());
        filled += 1;
        if filled == RUN_CHUNK {
            out.extend_from_slice(&scratch);
            filled = 0;
        }
    }
    if filled > 0 {
        out.extend_from_slice(&scratch[..filled * 8]);
    }
    Ok(())
}

/// Does an entry travel as plain 8-byte words into its root's own slots
/// (no field path), so it can be scattered straight into the array?
fn is_plain_word(e: &PackEntry) -> bool {
    e.place.fields.is_empty() && matches!(e.elem, ScalarKind::F64 | ScalarKind::I64)
}

/// The value of one 8-byte wire word of `kind`.
fn word_value(kind: ScalarKind, word: &[u8]) -> Value {
    let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
    match kind {
        ScalarKind::F64 => Value::Double(f64::from_bits(word)),
        _ => Value::Int(word as i64),
    }
}

/// Write one 8-byte wire word into slot `i` of an unpacked array, in
/// whichever storage the array has.
fn put_word(a: &mut ArrayVal, i: i64, kind: ScalarKind, word: &[u8]) -> CompileResult<()> {
    let i = slot_index(a.len(), i)?;
    match (a, word_value(kind, word)) {
        (ArrayVal::Boxed(a), v) => a[i] = v,
        (ArrayVal::F64(a), Value::Double(x)) => a[i] = x,
        (ArrayVal::I64(a), Value::Int(x)) => a[i] = x,
        (a, v) => a.set(i, v).map_err(CompileError::new)?,
    }
    Ok(())
}

/// `i` as a slot of an array `len` long, or the unpack range error.
fn slot_index(len: usize, i: i64) -> CompileResult<usize> {
    usize::try_from(i)
        .ok()
        .filter(|i| *i < len)
        .ok_or_else(|| CompileError::new(format!("unpack index {i} out of range")))
}

/// Unpack a sectioned entry's whole run of elements (inverse of
/// [`pack_run`]) into the array bound for its root: for a plain array
/// root with an 8-byte scalar kind the wire run is taken as one slice
/// (one bounds check) and scattered under a single `borrow_mut`;
/// otherwise falls back to per-element store through the entry's field
/// path.
fn unpack_run(
    a: &SharedArray,
    e: &PackEntry,
    path: &[(Arc<Shape>, usize)],
    ix: &[i64],
    buf: &[u8],
    pos: &mut usize,
) -> CompileResult<()> {
    if is_plain_word(e) {
        let end = *pos + ix.len() * 8;
        let run = buf
            .get(*pos..end)
            .ok_or_else(|| CompileError::new("buffer underrun (run)"))?;
        *pos = end;
        let mut a = a.borrow_mut();
        let words = ix.iter().zip(run.chunks_exact(8));
        match &mut *a {
            // Receive arrays, the common case: one storage match per run.
            ArrayVal::Boxed(slots) => {
                for (&i, word) in words {
                    let i = slot_index(slots.len(), i)?;
                    slots[i] = word_value(e.elem, word);
                }
            }
            dense => {
                for (&i, word) in words {
                    put_word(dense, i, e.elem, word)?;
                }
            }
        }
        return Ok(());
    }
    for &i in ix {
        let v = read_scalar(buf, pos, e.elem)?;
        store_elem(a, i, path, v)?;
    }
    Ok(())
}

fn read_word<'b>(buf: &'b [u8], pos: &mut usize) -> CompileResult<&'b [u8]> {
    let end = *pos + 8;
    let b = buf
        .get(*pos..end)
        .ok_or_else(|| CompileError::new("buffer underrun (i64)"))?;
    *pos = end;
    Ok(b)
}

fn read_i64(buf: &[u8], pos: &mut usize) -> CompileResult<i64> {
    Ok(i64::from_le_bytes(
        read_word(buf, pos)?.try_into().expect("8-byte slice"),
    ))
}

fn push_scalar(out: &mut Vec<u8>, kind: ScalarKind, v: &Value) -> CompileResult<()> {
    match (kind, v) {
        (ScalarKind::I64, Value::Int(x)) => push_i64(out, *x),
        (ScalarKind::F64, Value::Double(x)) => push_i64(out, x.to_bits() as i64),
        (ScalarKind::F64, Value::Int(x)) => push_i64(out, (*x as f64).to_bits() as i64),
        (ScalarKind::Bool, Value::Bool(x)) => out.push(*x as u8),
        (ScalarKind::Domain, Value::Domain(lo, hi)) => {
            push_i64(out, *lo);
            push_i64(out, *hi);
        }
        // Unwritten slots of expanded arrays keep their default; Null can
        // only appear for object defaults, which scalar places never select.
        (k, other) => {
            return Err(CompileError::new(format!(
                "cannot pack value `{other}` as {k:?}"
            )))
        }
    }
    Ok(())
}

fn read_scalar(buf: &[u8], pos: &mut usize, kind: ScalarKind) -> CompileResult<Value> {
    Ok(match kind {
        ScalarKind::I64 => Value::Int(read_i64(buf, pos)?),
        ScalarKind::F64 => Value::Double(f64::from_bits(read_i64(buf, pos)? as u64)),
        ScalarKind::Bool => {
            let b = *buf
                .get(*pos)
                .ok_or_else(|| CompileError::new("buffer underrun (bool)"))?;
            *pos += 1;
            Value::Bool(b != 0)
        }
        ScalarKind::Domain => {
            let lo = read_i64(buf, pos)?;
            let hi = read_i64(buf, pos)?;
            Value::Domain(lo, hi)
        }
    })
}

/// Extract the scalar a place selects at element index `idx` from `vars`.
fn select(vars: &HashMap<String, Value>, p: &Place, idx: Option<i64>) -> CompileResult<Value> {
    let root = vars
        .get(&p.root)
        .ok_or_else(|| CompileError::new(format!("missing variable `{}` while packing", p.root)))?;
    let mut cur = match (idx, root) {
        (None, v) => v.clone(),
        (Some(i), Value::Array(a)) => a.borrow().get(i as usize).ok_or_else(|| {
            CompileError::new(format!("pack index {i} out of range for `{}`", p.root))
        })?,
        (Some(_), other) => {
            return Err(CompileError::new(format!(
                "sectioned place `{p}` but `{}` is `{other}`",
                p.root
            )))
        }
    };
    for f in &p.fields {
        let Value::Object(o) = &cur else {
            // default-constructed slot never touched upstream: substitute
            // the field type's default (numeric zero)
            return Ok(Value::Double(0.0));
        };
        let next =
            o.borrow().get(f).cloned().ok_or_else(|| {
                CompileError::new(format!("missing field `{f}` while packing {p}"))
            })?;
        cur = next;
    }
    Ok(cur)
}

/// Store a not-indexed place's scalar into `vars`, through `path` (the
/// place's field path) when it has one. The receiving filter starts from
/// an empty frame, so the path's objects are made here.
fn store(
    vars: &mut HashMap<String, Value>,
    p: &Place,
    path: &[(Arc<Shape>, usize)],
    v: Value,
) -> CompileResult<()> {
    if !vars.contains_key(&p.root) {
        vars.insert(p.root.clone(), Value::Null);
    }
    put_path(vars.get_mut(&p.root).expect("bound above"), path, v)
}

/// Store element `i` of a sectioned place into its bound array `a`,
/// through `path` when the place has a field path (only boxed storage
/// holds objects).
fn store_elem(
    a: &SharedArray,
    i: i64,
    path: &[(Arc<Shape>, usize)],
    v: Value,
) -> CompileResult<()> {
    let mut a = a.borrow_mut();
    let i = slot_index(a.len(), i)?;
    match &mut *a {
        ArrayVal::Boxed(a) => put_path(&mut a[i], path, v),
        dense if path.is_empty() => dense.set(i, v).map_err(CompileError::new),
        dense => Err(CompileError::new(format!(
            "cannot unpack a field into a `{}`",
            dense.type_name()
        ))),
    }
}

/// Write `v` into `slot` through `path`: each step's object is the one
/// already there or a new one of the step's shape.
fn put_path(slot: &mut Value, path: &[(Arc<Shape>, usize)], v: Value) -> CompileResult<()> {
    let Some(((shape, _), _)) = path.split_first() else {
        *slot = v;
        return Ok(());
    };
    let mut cur = object_in(slot, shape);
    for (k, (shape, i)) in path.iter().enumerate() {
        let next = {
            let mut o = cur.borrow_mut();
            // An object this layout did not build keeps its own shape.
            let i = if o.shape().id() == shape.id() {
                *i
            } else {
                let f = &shape.names()[*i];
                o.shape().slot_of(f).ok_or_else(|| {
                    CompileError::new(format!("cannot unpack field `{f}` into `{}`", o.class()))
                })?
            };
            let field = o.slot_mut(i);
            let Some((next_shape, _)) = path.get(k + 1) else {
                *field = Some(v);
                return Ok(());
            };
            object_in(field.get_or_insert(Value::Null), next_shape)
        };
        cur = next;
    }
    unreachable!("the last step returns")
}

/// The object `slot` holds, made there with `shape` when it holds none.
fn object_in(slot: &mut Value, shape: &Arc<Shape>) -> Rc<RefCell<ObjectVal>> {
    if !matches!(slot, Value::Object(_)) {
        let absent = vec![None; shape.names().len()];
        *slot = Value::Object(Rc::new(RefCell::new(ObjectVal::new(
            Arc::clone(shape),
            absent,
        ))));
    }
    let Value::Object(o) = slot else {
        unreachable!("made above")
    };
    Rc::clone(o)
}

/// Pack the layout's values from `vars` into a byte buffer.
///
/// Header: `pkt.lo`, `pkt.hi` (i64 each). If the layout is filtered, the
/// passing-index list (count + absolute indices) follows; sectioned entries
/// then carry `selection.len()` elements each instead of their full range.
pub fn pack(
    layout: &PackLayout,
    vars: &HashMap<String, Value>,
    env: &RuntimeEnv,
    pkt: (i64, i64),
    selection: Option<&[i64]>,
) -> CompileResult<Vec<u8>> {
    if layout.filtered.is_some() && selection.is_none() {
        return Err(CompileError::new(
            "filtered layout requires a selection list",
        ));
    }

    // The element index list for a sectioned entry.
    let indices_for = |p: &Place| -> CompileResult<Option<Vec<i64>>> {
        if matches!(p.sect, Sectioning::NotIndexed) {
            return Ok(None);
        }
        let root_len = vars
            .get(&p.root)
            .and_then(|v| match v {
                Value::Array(a) => Some(a.borrow().len()),
                _ => None,
            })
            .unwrap_or(0);
        let (slo, shi, stride) = concrete_range(p, env, pkt, root_len)?;
        // Selection compaction applies only to sections that map each
        // domain point to exactly one element (dense, packet-sized); other
        // shapes (strided, multi-element-per-point, the whole array)
        // travel in full.
        let per_point = per_point(p, (slo, shi, stride), pkt);
        if let (Some(sel), Some(_), true) = (selection, layout.filtered, per_point) {
            // Selection indices are absolute domain points; the section's
            // lower bound is aligned with the packet's first point, so the
            // array slot for point `i` is `section_lo + (i − pkt.lo)`
            // (identity for absolute dense arrays, rebasing for expanded
            // ones).
            return Ok(Some(sel.iter().map(|i| slo + (i - pkt.0)).collect()));
        }
        Ok(Some(section_indices(slo, shi, stride)))
    };

    // Resolve every entry's index list first, so the output buffer can be
    // reserved at its exact final size — one allocation, zero growth.
    let mut inst_indices: Vec<Option<Vec<i64>>> = Vec::new();
    for e in &layout.instance_wise {
        inst_indices.push(indices_for(&e.place)?);
    }
    let mut fw_indices: Vec<Option<Vec<i64>>> = Vec::new();
    for e in &layout.field_wise {
        fw_indices.push(indices_for(&e.place)?);
    }
    let entry_bytes = |e: &PackEntry, ix: &Option<Vec<i64>>| -> usize {
        match ix {
            None => e.elem.byte_len(),
            Some(v) => v.len() * e.elem.byte_len(),
        }
    };
    let total: usize = 16
        + selection
            .filter(|_| layout.filtered.is_some())
            .map_or(0, |s| 8 + 8 * s.len())
        + 8
        + 8 * whole_arrays(&layout.instance_wise).count()
        + layout
            .instance_wise
            .iter()
            .zip(&inst_indices)
            .map(|(e, ix)| entry_bytes(e, ix))
            .sum::<usize>()
        + layout
            .field_wise
            .iter()
            .zip(&fw_indices)
            .map(|(e, ix)| 8 + entry_bytes(e, ix))
            .sum::<usize>();

    let mut out = Vec::with_capacity(total);
    push_i64(&mut out, pkt.0);
    push_i64(&mut out, pkt.1);
    if layout.filtered.is_some() {
        let sel = selection.expect("checked above");
        push_i64(&mut out, sel.len() as i64);
        for i in sel {
            push_i64(&mut out, *i);
        }
    }

    // Instance-wise: interleave entries element-by-element. A single
    // sectioned entry degenerates to one contiguous run — take the bulk
    // path; genuine interleaves (the A3 instance-wise trade-off) go
    // per-position.
    let count = inst_indices
        .iter()
        .filter_map(|ix| ix.as_ref().map(|v| v.len()))
        .max()
        .unwrap_or(0);
    push_i64(&mut out, count as i64);
    // A whole-array section's length is the sender's array's: the
    // receiver reads it here, not from its packet.
    for k in whole_arrays(&layout.instance_wise) {
        push_i64(
            &mut out,
            inst_indices[k].as_ref().map_or(0, Vec::len) as i64,
        );
    }
    if let [e] = &layout.instance_wise[..] {
        match &inst_indices[0] {
            None => push_scalar(&mut out, e.elem, &select(vars, &e.place, None)?)?,
            Some(ix) => pack_run(&mut out, e.elem, vars, &e.place, ix)?,
        }
    } else {
        for pos in 0..count.max(1) {
            for (e, ix) in layout.instance_wise.iter().zip(&inst_indices) {
                match ix {
                    None => {
                        if pos == 0 {
                            push_scalar(&mut out, e.elem, &select(vars, &e.place, None)?)?;
                        }
                    }
                    Some(ix) => {
                        if let Some(i) = ix.get(pos) {
                            push_scalar(&mut out, e.elem, &select(vars, &e.place, Some(*i))?)?;
                        }
                    }
                }
            }
            if count == 0 {
                break;
            }
        }
    }

    // Field-wise: each entry contiguous, preceded by its own count — the
    // shape the bulk run path is built for.
    for (e, ix) in layout.field_wise.iter().zip(&fw_indices) {
        match ix {
            None => {
                push_i64(&mut out, -1); // scalar marker
                push_scalar(&mut out, e.elem, &select(vars, &e.place, None)?)?;
            }
            Some(ix) => {
                push_i64(&mut out, ix.len() as i64);
                pack_run(&mut out, e.elem, vars, &e.place, ix)?;
            }
        }
    }
    debug_assert_eq!(out.len(), total, "pack size precomputation must be exact");
    Ok(out)
}

/// Result of unpacking a buffer.
#[derive(Debug)]
pub struct Unpacked {
    pub pkt: (i64, i64),
    /// Passing indices (absolute) when the layout was filtered.
    pub selection: Option<Vec<i64>>,
    /// Variable bindings reconstructed from the payload.
    pub vars: HashMap<String, Value>,
}

/// Unpack genuinely interleaved instance-wise entries position by
/// position. A plain 8-byte entry scatters straight into its array,
/// borrowed once for the whole packet (one borrow per distinct array);
/// scalars and field paths go through [`store`] and [`store_elem`]. A
/// root's element type makes all of its entries plain words or none, so
/// `store_elem` never writes a borrowed array.
#[allow(clippy::too_many_arguments)]
fn unpack_interleaved(
    vars: &mut HashMap<String, Value>,
    entries: &[PackEntry],
    paths: &[FieldPath],
    runs: &[Option<Run>],
    arrays: &[Option<SharedArray>],
    count: usize,
    buf: &[u8],
    pos: &mut usize,
) -> CompileResult<()> {
    let mut distinct: Vec<SharedArray> = Vec::new();
    let mut target: Vec<Option<usize>> = Vec::with_capacity(entries.len());
    for (e, a) in entries.iter().zip(arrays) {
        target.push(match a {
            Some(a) if is_plain_word(e) => {
                Some(match distinct.iter().position(|b| Rc::ptr_eq(a, b)) {
                    Some(t) => t,
                    None => {
                        distinct.push(Rc::clone(a));
                        distinct.len() - 1
                    }
                })
            }
            _ => None,
        });
    }
    let mut slots: Vec<RefMut<ArrayVal>> = distinct.iter().map(|a| a.borrow_mut()).collect();
    for p in 0..count.max(1) {
        for (k, e) in entries.iter().enumerate() {
            let Some(run) = &runs[k] else {
                if p == 0 {
                    let v = read_scalar(buf, pos, e.elem)?;
                    store(vars, &e.place, &paths[k], v)?;
                }
                continue;
            };
            let Some(&i) = run.ix.get(p) else {
                continue;
            };
            match (target[k], &arrays[k]) {
                (Some(t), _) => put_word(&mut slots[t], i, e.elem, read_word(buf, pos)?)?,
                (None, Some(a)) => {
                    let v = read_scalar(buf, pos, e.elem)?;
                    store_elem(a, i, &paths[k], v)?;
                }
                (None, None) => unreachable!("a non-empty run has a bound array"),
            }
        }
        if count == 0 {
            break;
        }
    }
    Ok(())
}

/// Unpack a buffer produced by [`pack`] with the same layout.
///
/// Sectioned roots land in `env`'s receive arrays, so a unit that unpacks
/// each packet through the same env pays O(packet) per packet, not
/// O(top index): an array is reused only when no binding from the last
/// packet is still alive.
pub fn unpack(layout: &PackLayout, env: &RuntimeEnv, buf: &[u8]) -> CompileResult<Unpacked> {
    let mut pos = 0usize;
    let lo = read_i64(buf, &mut pos)?;
    let hi = read_i64(buf, &mut pos)?;

    let selection = if layout.filtered.is_some() {
        let n = read_i64(buf, &mut pos)?;
        let mut sel = Vec::with_capacity(n as usize);
        for _ in 0..n {
            sel.push(read_i64(buf, &mut pos)?);
        }
        Some(sel)
    } else {
        None
    };

    let mut vars: HashMap<String, Value> = HashMap::new();
    let recv = &mut *env.recv.borrow_mut();
    let paths = recv.paths(layout);
    let (inst_paths, fw_paths) = paths.split_at(layout.instance_wise.len());
    let packet_len = (hi - lo + 1).max(0) as usize;

    // The slots a sectioned entry covers, with the packet symbols taken
    // from the header; a whole-array section is `wire_len` long.
    let run_for = |p: &Place, wire_len: usize| -> CompileResult<Option<Run>> {
        if matches!(p.sect, Sectioning::NotIndexed) {
            return Ok(None);
        }
        let range = concrete_range(p, env, (lo, hi), wire_len)?;
        let (slo, shi, stride) = range;
        let ix = match (&selection, per_point(p, range, (lo, hi))) {
            (Some(sel), true) => sel.iter().map(|i| slo + (i - lo)).collect(),
            _ => section_indices(slo, shi, stride),
        };
        Ok(Some(Run { lo: slo, ix }))
    };

    let count = read_i64(buf, &mut pos)? as usize;
    let mut whole_len = vec![0usize; layout.instance_wise.len()];
    for k in whole_arrays(&layout.instance_wise) {
        whole_len[k] = wire_len(read_i64(buf, &mut pos)?, buf.len() - pos)?;
    }
    let mut runs: Vec<Option<Run>> = Vec::with_capacity(layout.instance_wise.len());
    let mut arrays: Vec<Option<SharedArray>> = Vec::with_capacity(layout.instance_wise.len());
    for (e, wire_len) in layout.instance_wise.iter().zip(&whole_len) {
        let run = run_for(&e.place, *wire_len)?;
        arrays.push(match &run {
            Some(r) if !r.ix.is_empty() => {
                Some(bind_array(&mut vars, recv, &e.place.root, r, packet_len)?)
            }
            // Nothing crossed: leave the binding absent.
            _ => None,
        });
        runs.push(run);
    }
    // A single sectioned instance-wise entry is one contiguous run on the
    // wire — scatter it in bulk; genuine interleaves go per-position.
    let single_run = matches!(
        (&layout.instance_wise[..], &runs[..]),
        ([_], [Some(run)]) if run.ix.len() == count
    );
    if single_run {
        if let (Some(a), Some(run)) = (&arrays[0], &runs[0]) {
            unpack_run(
                a,
                &layout.instance_wise[0],
                &inst_paths[0],
                &run.ix,
                buf,
                &mut pos,
            )?;
        }
    } else {
        unpack_interleaved(
            &mut vars,
            &layout.instance_wise,
            inst_paths,
            &runs,
            &arrays,
            count,
            buf,
            &mut pos,
        )?;
    }

    for (e, path) in layout.field_wise.iter().zip(fw_paths) {
        let n = read_i64(buf, &mut pos)?;
        if n < 0 {
            let v = read_scalar(buf, &mut pos, e.elem)?;
            store(&mut vars, &e.place, path, v)?;
            continue;
        }
        let whole = match e.place.sect {
            Sectioning::All => wire_len(n, buf.len() - pos)?,
            _ => 0,
        };
        let run = run_for(&e.place, whole)?
            .ok_or_else(|| CompileError::new("sectioned payload for scalar place"))?;
        if run.ix.len() != n as usize {
            return Err(CompileError::new(format!(
                "count mismatch unpacking {}: wire {} vs layout {}",
                e.place,
                n,
                run.ix.len()
            )));
        }
        if !run.ix.is_empty() {
            let a = bind_array(&mut vars, recv, &e.place.root, &run, packet_len)?;
            unpack_run(&a, e, path, &run.ix, buf, &mut pos)?;
        }
    }

    Ok(Unpacked {
        pkt: (lo, hi),
        selection,
        vars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{Section, SymExpr};

    fn dense_place(root: &str, lo: i64, hi: i64) -> Place {
        Place::sliced(root, Section::dense(SymExpr::konst(lo), SymExpr::konst(hi)))
    }

    fn entry(place: Place, first: usize, elem: ScalarKind) -> PackEntry {
        PackEntry {
            place,
            first_consumer: first,
            elem,
        }
    }

    /// A whole array (`xs[*]`) travels at its sender's length, longer
    /// than the packet, interleaved or field-wise, and a corrupt length on
    /// the wire is refused before anything is sized by it.
    #[test]
    fn whole_arrays_travel_at_their_own_length() {
        let xs = || Value::array(ArrayVal::F64((0..10).map(|i| i as f64 * 0.5).collect()));
        let ys = Value::array(ArrayVal::I64(vec![0, 1]));
        let vars: HashMap<String, Value> =
            [("xs".to_string(), xs()), ("ys".to_string(), ys)].into();
        let env = RuntimeEnv::for_packet("pkt", 0, 1);
        for (first, with_ys) in [(1, false), (1, true), (2, false)] {
            let mut entries = vec![entry(Place::whole_array("xs"), first, ScalarKind::F64)];
            if with_ys {
                entries.push(entry(dense_place("ys", 0, 1), first, ScalarKind::I64));
            }
            let layout = if first == 1 {
                PackLayout {
                    instance_wise: entries,
                    ..Default::default()
                }
            } else {
                PackLayout {
                    field_wise: entries,
                    ..Default::default()
                }
            };
            let buf = pack(&layout, &vars, &env, (0, 1), None).unwrap();
            let un = unpack(&layout, &env, &buf).unwrap();
            assert!(un.vars["xs"].deep_eq(&xs()), "first consumer {first}");
            // After the header and the interleave count: the whole
            // array's length word, or its field-wise count.
            let at = 24;
            let mut bad = buf.clone();
            bad[at..at + 8].copy_from_slice(&i64::MAX.to_le_bytes());
            let err = unpack(&layout, &RuntimeEnv::for_packet("pkt", 0, 1), &bad).unwrap_err();
            assert!(err.to_string().contains("exceeds the packet"), "{err}");
        }
    }

    /// A receive array holds `Null` wherever the current packet shipped
    /// nothing — not a default `0.0`, not the previous packet's value —
    /// so a plan that reads a slot it was not sent fails on both engines.
    #[test]
    fn receive_array_holes_stay_loud() {
        use cgp_lang::bytecode::{vm::Vm, ProgramCode};
        use cgp_lang::interp::{HostEnv, Interp};
        let packet = Section::dense(SymExpr::sym("pkt.lo"), SymExpr::sym("pkt.hi"));
        let layout = PackLayout {
            instance_wise: vec![entry(Place::sliced("xs", packet), 1, ScalarKind::F64)],
            ..Default::default()
        };
        let xs = Value::array(ArrayVal::F64((0..8).map(|i| 10.0 + i as f64).collect()));
        let vars = HashMap::from([("xs".to_string(), xs)]);
        let env = RuntimeEnv::new("pkt");
        let first = pack(&layout, &vars, &env, (0, 3), None).unwrap();
        let second = pack(&layout, &vars, &env, (4, 7), None).unwrap();
        // The first packet's bindings are gone, so the second reuses its
        // array.
        drop(unpack(&layout, &env, &first).unwrap());
        let un = unpack(&layout, &env, &second).unwrap();
        let Value::Array(a) = &un.vars["xs"] else {
            panic!("xs not an array");
        };
        {
            let a = a.borrow();
            assert_eq!(a.type_name(), "array", "receive arrays stay boxed");
            for i in 0..4 {
                assert!(matches!(a.get(i), Some(Value::Null)), "slot {i}: {a:?}");
            }
            for i in 4..8 {
                let shipped = Value::Double(10.0 + i as f64);
                assert!(a.get(i).unwrap().deep_eq(&shipped), "slot {i}");
            }
        }
        let tp = cgp_lang::frontend(
            "extern double[] xs; class A { void main() { print(xs[5]); print(xs[1] * 2.0); } }",
        )
        .unwrap();
        let stmts = &tp.program.main().unwrap().1.body.stmts;
        let mut it = Interp::new(&tp, HostEnv::new());
        let interp = it.exec_stmts_with_vars("A", stmts, &mut un.vars.clone());
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, "A", stmts);
        let mut vm = Vm::new(&prog, HostEnv::new());
        let bytecode = vm.exec_slice(&slice, &mut un.vars.clone());
        assert!(
            interp.is_err() && bytecode.is_err(),
            "{interp:?} {bytecode:?}"
        );
        assert_eq!(it.output, ["15"]);
        assert_eq!(vm.output, ["15"]);
    }

    #[test]
    fn roundtrip_instance_wise() {
        let layout = PackLayout {
            instance_wise: vec![
                entry(dense_place("xs", 0, 3), 1, ScalarKind::F64),
                entry(dense_place("ys", 0, 3), 1, ScalarKind::I64),
            ],
            ..Default::default()
        };
        let mut vars = HashMap::new();
        vars.insert(
            "xs".to_string(),
            Value::array(ArrayVal::F64((0..4).map(|i| i as f64 * 1.5).collect())),
        );
        vars.insert(
            "ys".to_string(),
            Value::array(ArrayVal::Boxed((0..4).map(Value::Int).collect())),
        );
        let env = RuntimeEnv::for_packet("pkt", 0, 3);
        let buf = pack(&layout, &vars, &env, (0, 3), None).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert_eq!(un.pkt, (0, 3));
        let xs = &un.vars["xs"];
        let ys = &un.vars["ys"];
        assert!(xs.deep_eq(&vars["xs"]));
        assert!(ys.deep_eq(&vars["ys"]));
    }

    #[test]
    fn roundtrip_scalars_and_domains() {
        let layout = PackLayout {
            field_wise: vec![
                entry(Place::var("count"), 2, ScalarKind::I64),
                entry(Place::var("flag"), 2, ScalarKind::Bool),
                entry(Place::var("dom"), 3, ScalarKind::Domain),
            ],
            ..Default::default()
        };
        let mut vars = HashMap::new();
        vars.insert("count".to_string(), Value::Int(42));
        vars.insert("flag".to_string(), Value::Bool(true));
        vars.insert("dom".to_string(), Value::Domain(5, 9));
        let env = RuntimeEnv::for_packet("pkt", 0, 0);
        let buf = pack(&layout, &vars, &env, (0, 0), None).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert!(un.vars["count"].deep_eq(&Value::Int(42)));
        assert!(un.vars["flag"].deep_eq(&Value::Bool(true)));
        assert!(un.vars["dom"].deep_eq(&Value::Domain(5, 9)));
    }

    #[test]
    fn roundtrip_object_fields() {
        // tri[0..2].x packed as a field of objects.
        let mut p = dense_place("tri", 0, 2);
        p.fields.push("x".to_string());
        let layout = PackLayout {
            instance_wise: vec![entry(p, 1, ScalarKind::F64)],
            ..Default::default()
        };
        let mk_obj = |x: f64| {
            let mut f = HashMap::new();
            f.insert("x".to_string(), Value::Double(x));
            f.insert("y".to_string(), Value::Double(-x));
            Value::new_object("Tri", f)
        };
        let mut vars = HashMap::new();
        vars.insert(
            "tri".to_string(),
            Value::array(ArrayVal::Boxed(vec![mk_obj(1.0), mk_obj(2.0), mk_obj(3.0)])),
        );
        let env = RuntimeEnv::for_packet("pkt", 0, 2);
        let buf = pack(&layout, &vars, &env, (0, 2), None).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        // Only x made it across.
        if let Value::Array(a) = &un.vars["tri"] {
            for (i, v) in a.borrow().iter().enumerate() {
                let Value::Object(o) = v else {
                    panic!("not an object")
                };
                assert!(o
                    .borrow()
                    .get("x")
                    .unwrap()
                    .deep_eq(&Value::Double((i + 1) as f64)));
                assert!(o.borrow().get("y").is_none());
            }
        } else {
            panic!("tri not an array");
        }
    }

    #[test]
    fn unpacked_objects_share_one_shape_per_root_per_layout() {
        // tri[0..2].x interleaved with tri[0..2].p.q, tri[0..2].y
        // field-wise: every rebuilt `tri` element holds exactly the
        // crossed fields, through one shape reused by every packet.
        let field = |path: &[&str], first| {
            let mut p = dense_place("tri", 0, 2);
            p.fields.extend(path.iter().map(|f| f.to_string()));
            entry(p, first, ScalarKind::F64)
        };
        let layout = PackLayout {
            instance_wise: vec![field(&["x"], 1), field(&["p", "q"], 1)],
            field_wise: vec![field(&["y"], 2)],
            ..Default::default()
        };
        let tri = |x: f64| {
            let inner = Value::new_object("In", HashMap::from([("q".into(), Value::Double(-x))]));
            let f = HashMap::from([
                ("x".to_string(), Value::Double(x)),
                ("y".to_string(), Value::Double(2.0 * x)),
                ("z".to_string(), Value::Double(0.0)),
                ("p".to_string(), inner),
            ]);
            Value::new_object("Tri", f)
        };
        let vars = HashMap::from([(
            "tri".to_string(),
            Value::array(ArrayVal::Boxed(vec![tri(1.0), tri(2.0), tri(3.0)])),
        )]);
        let env = RuntimeEnv::for_packet("pkt", 0, 2);
        let buf = pack(&layout, &vars, &env, (0, 2), None).unwrap();
        let mut shapes = Vec::new();
        for _ in 0..2 {
            let un = unpack(&layout, &env, &buf).unwrap();
            let Value::Array(a) = &un.vars["tri"] else {
                panic!("tri not an array");
            };
            for (i, v) in a.borrow().iter().enumerate() {
                let Value::Object(o) = v else {
                    panic!("not an object")
                };
                let o = o.borrow();
                let x = (i + 1) as f64;
                assert!(o.get("x").unwrap().deep_eq(&Value::Double(x)));
                assert!(o.get("y").unwrap().deep_eq(&Value::Double(2.0 * x)));
                assert!(o.get("z").is_none(), "z never crossed");
                let Some(Value::Object(inner)) = o.get("p") else {
                    panic!("p not rebuilt");
                };
                assert!(inner.borrow().get("q").unwrap().deep_eq(&Value::Double(-x)));
                assert_eq!(o.shape().names(), ["x", "p", "y"]);
                shapes.push(Arc::clone(o.shape()));
            }
        }
        assert!(
            shapes.iter().all(|s| Arc::ptr_eq(s, &shapes[0])),
            "one shape per root per layout"
        );
    }

    #[test]
    fn filtered_layout_compacts_and_scatters() {
        // Packet [10, 17]; rebased array vs__x of len 8; selection keeps
        // absolute indices 11, 13, 16.
        let p = dense_place_sym("v__x");
        let layout = PackLayout {
            instance_wise: vec![entry(p, 1, ScalarKind::F64)],
            filtered: Some(0),
            ..Default::default()
        };
        let mut vars = HashMap::new();
        vars.insert(
            "v__x".to_string(),
            Value::array(ArrayVal::F64((0..8).map(|i| i as f64).collect())),
        );
        let env = RuntimeEnv::for_packet("pkt", 10, 17);
        let sel = vec![11i64, 13, 16];
        let buf = pack(&layout, &vars, &env, (10, 17), Some(&sel)).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert_eq!(un.selection.as_deref(), Some(&sel[..]));
        if let Value::Array(a) = &un.vars["v__x"] {
            let a = a.borrow();
            assert_eq!(a.len(), 8);
            assert!(a.get(1).unwrap().deep_eq(&Value::Double(1.0)));
            assert!(a.get(3).unwrap().deep_eq(&Value::Double(3.0)));
            assert!(a.get(6).unwrap().deep_eq(&Value::Double(6.0)));
            assert!(matches!(a.get(0), Some(Value::Null))); // untouched slot
        } else {
            panic!("not an array");
        }
        // Volume check: only 3 elements crossed.
        let dense_buf = {
            let layout = PackLayout {
                instance_wise: vec![entry(dense_place_sym("v__x"), 1, ScalarKind::F64)],
                ..Default::default()
            };
            pack(&layout, &vars, &env, (10, 17), None).unwrap()
        };
        assert!(buf.len() < dense_buf.len());
    }

    /// Place with section [0 : pkt.hi - pkt.lo] (rebased expanded array).
    fn dense_place_sym(root: &str) -> Place {
        Place::sliced(
            root,
            Section::dense(
                SymExpr::konst(0),
                SymExpr::sym("pkt.hi").sub(&SymExpr::sym("pkt.lo")),
            ),
        )
    }

    #[test]
    fn layout_rule_instance_vs_field_wise() {
        // Set with three places; consumers: filter 1 uses a and b, filter 2
        // uses c. a,b → instance-wise; c → field-wise.
        use crate::place::PlaceSet;
        let a = dense_place("a", 0, 7);
        let b = dense_place("b", 0, 7);
        let c = dense_place("c", 0, 7);
        let set: PlaceSet = [a.clone(), b.clone(), c.clone()].into_iter().collect();

        let mut cons1 = PlaceSet::new();
        cons1.insert(a.clone());
        cons1.insert(b.clone());
        let mut cons2 = PlaceSet::new();
        cons2.insert(c.clone());

        // A minimal NormalizedPipeline for scalar_kind resolution.
        let np = tiny_np();
        let layout = compute_layout(&np, &set, &[cons1, cons2], 1, None).unwrap();
        let inst: Vec<&str> = layout
            .instance_wise
            .iter()
            .map(|e| e.place.root.as_str())
            .collect();
        let fw: Vec<&str> = layout
            .field_wise
            .iter()
            .map(|e| e.place.root.as_str())
            .collect();
        assert_eq!(inst, vec!["a", "b"]);
        assert_eq!(fw, vec!["c"]);
        assert_eq!(layout.field_wise[0].first_consumer, 2);
    }

    #[test]
    fn layout_sorts_field_wise_by_first_read() {
        use crate::place::PlaceSet;
        let a = dense_place("a", 0, 7);
        let c = dense_place("c", 0, 7);
        let set: PlaceSet = [a.clone(), c.clone()].into_iter().collect();
        let empty = PlaceSet::new();
        let mut cons2 = PlaceSet::new();
        cons2.insert(c.clone());
        let mut cons3 = PlaceSet::new();
        cons3.insert(a.clone());
        let np = tiny_np();
        // consumers: filter1 none, filter2 uses c, filter3 uses a.
        let layout = compute_layout(&np, &set, &[empty, cons2, cons3], 1, None).unwrap();
        assert!(layout.instance_wise.is_empty());
        let fw: Vec<&str> = layout
            .field_wise
            .iter()
            .map(|e| e.place.root.as_str())
            .collect();
        assert_eq!(fw, vec!["c", "a"], "sorted by first reader");
    }

    fn tiny_np() -> NormalizedPipeline {
        let src = r#"
            extern int n;
            extern double[] a;
            extern double[] b;
            extern double[] c;
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class Main { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    foreach (i in pkt) { acc.add(a[i] + b[i] + c[i]); }
                }
                print(acc.t);
            } }
        "#;
        crate::normalize::normalize(&cgp_lang::frontend(src).unwrap()).unwrap()
    }
}

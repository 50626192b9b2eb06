//! A small self-describing codec for interpreter [`Value`]s.
//!
//! Used by the threaded executor's finalization protocol: each filter's
//! reduction-variable state must travel downstream as bytes at end-of-work.
//! (Per-packet data uses the compiler's typed [`cgp_compiler::packing`]
//! layouts instead — this codec is only for whole-object state transfer.)

use cgp_lang::value::{ArrayVal, ObjectVal, Shape, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Encoding error (decode side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_VOID: u8 = 4;
const TAG_NULL: u8 = 5;
const TAG_DOMAIN: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;
/// Non-empty `f64` array (dense, or boxed with only doubles): count + one
/// contiguous run of LE bit patterns. Decodes to dense storage.
const TAG_ARRAY_F64: u8 = 9;
/// Non-empty `i64` array (dense, or boxed with only ints): count + one
/// contiguous run of LE values. Decodes to dense storage.
const TAG_ARRAY_I64: u8 = 10;

/// Scratch size (in 8-byte words) for chunked LE conversion: large enough
/// that the per-chunk `extend_from_slice` amortizes to nothing, small
/// enough to stay in cache and on the stack.
const RUN_CHUNK: usize = 64;

/// Append a run of `u64` LE words in chunks: each chunk is converted on
/// the stack, then copied into `out` as one byte slice — no per-element
/// `Vec` growth or push (safe on any endianness).
fn extend_u64_run(out: &mut Vec<u8>, words: impl Iterator<Item = u64>) {
    let mut scratch = [0u8; RUN_CHUNK * 8];
    let mut filled = 0usize;
    for w in words {
        scratch[filled * 8..filled * 8 + 8].copy_from_slice(&w.to_le_bytes());
        filled += 1;
        if filled == RUN_CHUNK {
            out.extend_from_slice(&scratch);
            filled = 0;
        }
    }
    if filled > 0 {
        out.extend_from_slice(&scratch[..filled * 8]);
    }
}

/// How an array travels: one bulk run under `TAG_ARRAY_F64` or
/// `TAG_ARRAY_I64`, or element by element under `TAG_ARRAY`.
enum Layout<'a> {
    Run(u8),
    Tagged(&'a [Value]),
}

/// A non-empty dense array is its run; a boxed one is a run when every
/// element has the first one's numeric tag. Empty arrays are `TAG_ARRAY`
/// whatever their storage.
fn layout(a: &ArrayVal) -> Layout<'_> {
    match a {
        ArrayVal::F64(xs) if !xs.is_empty() => Layout::Run(TAG_ARRAY_F64),
        ArrayVal::I64(xs) if !xs.is_empty() => Layout::Run(TAG_ARRAY_I64),
        ArrayVal::F64(_) | ArrayVal::I64(_) => Layout::Tagged(&[]),
        ArrayVal::Boxed(xs) => match xs.first() {
            Some(Value::Double(_)) if xs.iter().all(|v| matches!(v, Value::Double(_))) => {
                Layout::Run(TAG_ARRAY_F64)
            }
            Some(Value::Int(_)) if xs.iter().all(|v| matches!(v, Value::Int(_))) => {
                Layout::Run(TAG_ARRAY_I64)
            }
            _ => Layout::Tagged(xs),
        },
    }
}

/// Exact size in bytes of `v`'s encoding (so encoders reserve once).
fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Double(_) => 9,
        Value::Bool(_) => 2,
        Value::Void | Value::Null => 1,
        Value::Domain(_, _) => 17,
        Value::Array(a) => {
            let a = a.borrow();
            match layout(&a) {
                Layout::Run(_) => 9 + 8 * a.len(),
                Layout::Tagged(xs) => 9 + xs.iter().map(encoded_len).sum::<usize>(),
            }
        }
        Value::Object(o) => {
            let o = o.borrow();
            let fields: usize = o.fields().map(|(k, v)| 4 + k.len() + encoded_len(v)).sum();
            1 + 4 + o.class().len() + 8 + fields
        }
    }
}

/// Append the encoding of `v` to `out`. Numeric arrays travel as one
/// contiguous LE run (`TAG_ARRAY_F64`/`TAG_ARRAY_I64`) instead of
/// per-element tagged encodings — the common reduction-state shape is a
/// large numeric array, and a dense one is copied straight out of its
/// storage.
fn encode_value_inner(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(x) => {
            out.push(TAG_INT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Double(x) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Bool(x) => {
            out.push(TAG_BOOL);
            out.push(*x as u8);
        }
        Value::Void => out.push(TAG_VOID),
        Value::Null => out.push(TAG_NULL),
        Value::Domain(lo, hi) => {
            out.push(TAG_DOMAIN);
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        Value::Array(a) => {
            let a = a.borrow();
            let layout = layout(&a);
            out.push(match layout {
                Layout::Run(tag) => tag,
                Layout::Tagged(_) => TAG_ARRAY,
            });
            out.extend_from_slice(&(a.len() as u64).to_le_bytes());
            match (&*a, layout) {
                (_, Layout::Tagged(xs)) => {
                    for e in xs {
                        encode_value_inner(e, out);
                    }
                }
                (ArrayVal::F64(xs), _) => extend_u64_run(out, xs.iter().map(|x| x.to_bits())),
                (ArrayVal::I64(xs), _) => extend_u64_run(out, xs.iter().map(|x| *x as u64)),
                (ArrayVal::Boxed(xs), _) => extend_u64_run(
                    out,
                    xs.iter().map(|v| match v {
                        Value::Double(x) => x.to_bits(),
                        Value::Int(x) => *x as u64,
                        _ => unreachable!("a run holds only its tag's numbers"),
                    }),
                ),
            }
        }
        Value::Object(o) => {
            out.push(TAG_OBJECT);
            let o = o.borrow();
            encode_str(o.class(), out);
            // Present fields sorted by name: deterministic, and the same
            // bytes whatever the shape's slot order.
            out.extend_from_slice(&(o.field_count() as u64).to_le_bytes());
            for (k, v) in o.fields() {
                encode_str(k, out);
                encode_value_inner(v, out);
            }
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode a named map of values (a filter's reduction state). The output
/// vector is reserved exactly once at its final size.
pub fn encode_state(state: &HashMap<String, Value>) -> Vec<u8> {
    let mut keys: Vec<&String> = state.keys().collect();
    keys.sort();
    let total: usize = 8 + keys
        .iter()
        .map(|k| 4 + k.len() + encoded_len(&state[*k]))
        .sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    for k in keys {
        encode_str(k, &mut out);
        encode_value_inner(&state[k], &mut out);
    }
    debug_assert_eq!(out.len(), total, "encoded_len must be exact");
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// One shape per distinct (class, field names) in this input. Local
    /// to one decode: the input is untrusted, so nothing it names may
    /// outlive the call.
    shapes: HashMap<(&'a str, Vec<&'a str>), Arc<Shape>>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            shapes: HashMap::new(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CodecError("malformed input: length overflows".into()))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| CodecError("unexpected end of input".into()))?;
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Validate a declared element/key count against the bytes actually left
    /// in the buffer *before* any allocation sized from it. Each element of
    /// the container needs at least `min_bytes_each` bytes of encoding, so a
    /// count exceeding `remaining / min_bytes_each` cannot possibly decode —
    /// reject it as malformed instead of letting `with_capacity` reserve
    /// attacker-chosen amounts of memory.
    fn check_count(&self, n: usize, min_bytes_each: usize) -> Result<(), CodecError> {
        let need = n.checked_mul(min_bytes_each);
        match need {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(CodecError(format!(
                "malformed input: declared count {n} needs >= {} bytes but only {} remain",
                n.saturating_mul(min_bytes_each),
                self.remaining()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A bulk run's count and words: one bounds check for the whole run,
    /// then LE conversion straight off the slice.
    fn run(&mut self) -> Result<impl Iterator<Item = u64> + 'a, CodecError> {
        let n = self.u64()? as usize;
        self.check_count(n, 8)?;
        let run = self.take(n * 8)?;
        Ok(run
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        std::str::from_utf8(b).map_err(|e| CodecError(e.to_string()))
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            TAG_INT => Ok(Value::Int(self.i64()?)),
            TAG_DOUBLE => Ok(Value::Double(f64::from_bits(self.u64()?))),
            TAG_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            TAG_VOID => Ok(Value::Void),
            TAG_NULL => Ok(Value::Null),
            TAG_DOMAIN => Ok(Value::Domain(self.i64()?, self.i64()?)),
            TAG_ARRAY => {
                let n = self.u64()? as usize;
                // Every element takes at least one tag byte.
                self.check_count(n, 1)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(self.value()?);
                }
                Ok(Value::array(ArrayVal::Boxed(v)))
            }
            TAG_ARRAY_F64 => {
                let words = self.run()?.map(f64::from_bits);
                Ok(Value::array(ArrayVal::F64(words.collect())))
            }
            TAG_ARRAY_I64 => {
                let words = self.run()?.map(|w| w as i64);
                Ok(Value::array(ArrayVal::I64(words.collect())))
            }
            TAG_OBJECT => {
                let class = self.str()?;
                let n = self.u64()? as usize;
                // Each entry needs a 4-byte key length plus a 1-byte value tag.
                self.check_count(n, 5)?;
                let mut fields: Vec<(&'a str, Value)> = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = self.str()?;
                    fields.push((k, self.value()?));
                }
                // One slot per name, in name order; a repeated name keeps
                // its last value (`dedup_by` hands the later entry first).
                fields.sort_by(|a, b| a.0.cmp(b.0));
                fields.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        std::mem::swap(&mut later.1, &mut kept.1);
                    }
                    same
                });
                let (names, slots): (Vec<&'a str>, Vec<Option<Value>>) =
                    fields.into_iter().map(|(k, v)| (k, Some(v))).unzip();
                let shape =
                    self.shapes
                        .entry((class, names))
                        .or_insert_with_key(|(class, names)| {
                            Shape::new(*class, names.iter().map(|n| n.to_string()).collect())
                        });
                Ok(Value::Object(Rc::new(RefCell::new(ObjectVal::new(
                    Arc::clone(shape),
                    slots,
                )))))
            }
            t => Err(CodecError(format!("unknown tag {t}"))),
        }
    }
}

/// Decode a state map produced by [`encode_state`].
pub fn decode_state(buf: &[u8]) -> Result<HashMap<String, Value>, CodecError> {
    let mut r = Reader::new(buf);
    let n = r.u64()? as usize;
    // Each entry needs a 4-byte key length plus a 1-byte value tag.
    r.check_count(n, 5)?;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = r.str()?.to_string();
        out.insert(k, r.value()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_obs::SmallRng;

    /// `v`'s encoding, reserved at its exact size.
    fn encode_value(v: &Value, out: &mut Vec<u8>) {
        out.reserve(encoded_len(v));
        encode_value_inner(v, out);
    }

    fn decode_value(buf: &[u8]) -> Result<Value, CodecError> {
        Reader::new(buf).value()
    }

    fn roundtrip(v: Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let back = decode_value(&buf).unwrap();
        assert!(v.deep_eq(&back), "{v} vs {back}");
        back
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::Int(-42));
        roundtrip(Value::Double(std::f64::consts::PI));
        roundtrip(Value::Bool(true));
        roundtrip(Value::Void);
        roundtrip(Value::Null);
        roundtrip(Value::Domain(3, 99));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let arr = Value::new_array(3, Value::Double(1.5));
        let mut fields = HashMap::new();
        fields.insert("xs".to_string(), arr);
        fields.insert("n".to_string(), Value::Int(7));
        let obj = Value::new_object("Acc", fields);
        let outer = array(vec![obj, Value::Null]);
        roundtrip(outer);
    }

    #[test]
    fn state_map_roundtrip() {
        let mut st = HashMap::new();
        st.insert("acc".to_string(), Value::new_object("A", HashMap::new()));
        st.insert("count".to_string(), Value::Int(10));
        let buf = encode_state(&st);
        let back = decode_state(&buf).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back["count"].deep_eq(&Value::Int(10)));
    }

    #[test]
    fn homogeneous_arrays_use_bulk_tags_and_roundtrip() {
        // f64 run (larger than one conversion chunk, exercising the
        // chunked copy).
        let xs = array((0..1000).map(|i| Value::Double(i as f64 * 0.5)).collect());
        let mut buf = Vec::new();
        encode_value(&xs, &mut buf);
        assert_eq!(buf[0], TAG_ARRAY_F64);
        assert_eq!(buf.len(), encoded_len(&xs));
        assert_eq!(
            buf.len(),
            9 + 8 * 1000,
            "count + raw run, no per-element tags"
        );
        assert!(decode_value(&buf).unwrap().deep_eq(&xs));

        // i64 run.
        let ys = array((-500..500).map(Value::Int).collect());
        let mut buf = Vec::new();
        encode_value(&ys, &mut buf);
        assert_eq!(buf[0], TAG_ARRAY_I64);
        assert!(decode_value(&buf).unwrap().deep_eq(&ys));

        // Mixed arrays keep the generic element-wise encoding.
        let mixed = array(vec![Value::Int(1), Value::Double(2.0)]);
        let mut buf = Vec::new();
        encode_value(&mixed, &mut buf);
        assert_eq!(buf[0], TAG_ARRAY);
        assert_eq!(buf.len(), encoded_len(&mixed));
        assert!(decode_value(&buf).unwrap().deep_eq(&mixed));
    }

    #[test]
    fn bulk_run_preserves_exotic_doubles() {
        let xs = Value::array(ArrayVal::F64(vec![
            f64::NAN,
            f64::INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
        ]));
        let mut buf = Vec::new();
        encode_value(&xs, &mut buf);
        let Value::Array(back) = decode_value(&buf).unwrap() else {
            panic!("not an array");
        };
        let ArrayVal::F64(back) = &*back.borrow() else {
            panic!("not dense");
        };
        assert_eq!(back.len(), 4);
        assert!(back[0].is_nan());
        assert_eq!(back[1], f64::INFINITY);
        assert!(back[2] == 0.0 && back[2].is_sign_negative());
        assert_eq!(back[3], f64::MIN_POSITIVE);
    }

    #[test]
    fn truncated_bulk_run_errors() {
        let xs = Value::array(ArrayVal::F64((0..10).map(|i| i as f64).collect()));
        let mut buf = Vec::new();
        encode_value(&xs, &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(decode_value(&buf).is_err());
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(5), &mut buf);
        buf.truncate(buf.len() - 1);
        assert!(decode_value(&buf).is_err());
    }

    /// Build a header-only frame: `tag` followed by a u64 count, no payload.
    fn count_frame(tag: u8, n: u64) -> Vec<u8> {
        let mut buf = vec![tag];
        buf.extend_from_slice(&n.to_le_bytes());
        buf
    }

    #[test]
    fn oversized_count_prefix_is_rejected_before_allocating() {
        // A hostile frame declaring billions of elements with (almost) no
        // payload must be rejected up front — decoding it must neither
        // reserve gigabytes nor loop over the phantom elements.
        for tag in [TAG_ARRAY, TAG_ARRAY_F64, TAG_ARRAY_I64] {
            for n in [u64::MAX, u64::MAX / 8, 1 << 40, 1 << 21] {
                let err = decode_value(&count_frame(tag, n)).unwrap_err();
                assert!(err.0.contains("malformed"), "tag={tag} n={n}: {err}");
            }
        }
        // Object field count, after an empty class name.
        let mut buf = vec![TAG_OBJECT];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_value(&buf).unwrap_err().0.contains("malformed"));
        // State-map entry count.
        let buf = u64::MAX.to_le_bytes().to_vec();
        assert!(decode_state(&buf).unwrap_err().0.contains("malformed"));
    }

    #[test]
    fn count_times_width_overflow_does_not_wrap() {
        // n * 8 would wrap to a small number in release builds without the
        // checked multiply; the declared count must still be rejected.
        let n = (u64::MAX / 8) + 1; // n * 8 wraps to 8 on u64
        let mut buf = count_frame(TAG_ARRAY_F64, n);
        buf.extend_from_slice(&[0u8; 16]);
        assert!(decode_value(&buf).is_err());
    }

    #[test]
    fn truncated_prefix_fuzz_every_length() {
        // Every proper prefix of a valid nested encoding must fail cleanly
        // (no panic, no bogus success).
        let mut fields = HashMap::new();
        fields.insert(
            "xs".to_string(),
            Value::array(ArrayVal::F64((0..16).map(|i| i as f64).collect())),
        );
        fields.insert("n".to_string(), Value::Int(7));
        let v = array(vec![
            Value::new_object("Acc", fields),
            Value::Domain(1, 9),
            Value::Bool(true),
        ]);
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        assert!(decode_value(&buf).is_ok());
        for cut in 0..buf.len() {
            assert!(decode_value(&buf[..cut]).is_err(), "prefix len {cut}");
        }
    }

    #[test]
    fn corrupted_count_bytes_never_panic() {
        // Flip each byte of a valid encoding to 0xff one at a time; decoding
        // may succeed or fail but must never panic or over-allocate.
        let mut st = HashMap::new();
        st.insert(
            "a".to_string(),
            Value::array(ArrayVal::I64((0..8).collect())),
        );
        let buf = encode_state(&st);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] = 0xff;
            let _ = decode_state(&bad);
        }
    }

    fn array(v: Vec<Value>) -> Value {
        Value::array(ArrayVal::Boxed(v))
    }

    /// A dense array and a boxed one with the same elements travel as the
    /// same bytes — empty ones included, which stay `TAG_ARRAY` — and the
    /// bulk tags come back dense.
    #[test]
    fn dense_and_boxed_arrays_encode_alike_and_runs_decode_dense() {
        let doubles = vec![1.5, -0.0, f64::NAN, 1.0e300];
        let ints = vec![i64::MIN, -1, 0, 7];
        let cases = [
            (
                Value::array(ArrayVal::F64(doubles.clone())),
                array(doubles.iter().map(|x| Value::Double(*x)).collect()),
                TAG_ARRAY_F64,
            ),
            (
                Value::array(ArrayVal::I64(ints.clone())),
                array(ints.iter().map(|x| Value::Int(*x)).collect()),
                TAG_ARRAY_I64,
            ),
            (
                Value::array(ArrayVal::F64(vec![])),
                array(vec![]),
                TAG_ARRAY,
            ),
            (
                Value::array(ArrayVal::I64(vec![])),
                array(vec![]),
                TAG_ARRAY,
            ),
        ];
        for (dense, boxed, tag) in cases {
            assert!(dense.deep_eq(&boxed) && boxed.deep_eq(&dense));
            let (mut d, mut b) = (Vec::new(), Vec::new());
            encode_value(&dense, &mut d);
            encode_value(&boxed, &mut b);
            assert_eq!(d, b, "{dense}");
            assert_eq!(d[0], tag);
            assert_eq!(d.len(), encoded_len(&dense));
            let state = |v: &Value| encode_state(&HashMap::from([("a".to_string(), v.clone())]));
            assert_eq!(state(&dense), state(&boxed));
            let back = decode_value(&d).unwrap();
            assert!(back.deep_eq(&dense));
            let Value::Array(back) = back else {
                panic!("not an array");
            };
            let want = match tag {
                TAG_ARRAY_F64 => "double[]",
                TAG_ARRAY_I64 => "int[]",
                _ => "array",
            };
            assert_eq!(back.borrow().type_name(), want, "{dense}");
        }
    }

    fn object(shape: &Arc<Shape>, slots: Vec<Option<Value>>) -> Value {
        Value::Object(Rc::new(RefCell::new(ObjectVal::new(
            Arc::clone(shape),
            slots,
        ))))
    }

    /// The bytes `encode_state` wrote for this state before objects had
    /// shapes (fields in a `HashMap`, encoded sorted by name).
    const GOLDEN_STATE: &str = concat!(
        "03000000000000000500000063656c6c73070300000000000000080400000043756265020000",
        "000000000002000000637802000000000000f03f02000000637a020000000000000040050602",
        "000000000000000900000000000000010000006e010700000000000000020000007a62080400",
        "00005a427566030000000000000005000000636f6c6f7209030000000000000000000000000000",
        "00000000000000ec3f9a9999999999d93f050000006465707468090300000000000000ea8ca0",
        "39593e2946000000000000e03f000000000000d0bf0400000073697a65010300000000000000",
    );

    #[test]
    fn encode_state_bytes_match_the_pre_shape_golden() {
        // Slots in declaration order, and a `Cube` with nine absent
        // slots: the wire still carries present fields sorted by name.
        let zbuf = Shape::new("ZBuf", vec!["depth".into(), "color".into(), "size".into()]);
        let cube_names = [
            "v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "cx", "cy", "cz",
        ];
        let cube = Shape::new("Cube", cube_names.iter().map(|n| n.to_string()).collect());
        let mut cube_slots = vec![None; cube_names.len()];
        cube_slots[8] = Some(Value::Double(1.0));
        cube_slots[10] = Some(Value::Double(2.0));
        let doubles = |v: &[f64]| array(v.iter().map(|x| Value::Double(*x)).collect());
        let st = HashMap::from([
            (
                "zb".to_string(),
                object(
                    &zbuf,
                    vec![
                        Some(doubles(&[1.0e30, 0.5, -0.25])),
                        Some(doubles(&[0.0, 0.875, 0.4])),
                        Some(Value::Int(3)),
                    ],
                ),
            ),
            ("n".to_string(), Value::Int(7)),
            (
                "cells".to_string(),
                array(vec![
                    object(&cube, cube_slots),
                    Value::Null,
                    Value::Domain(2, 9),
                ]),
            ),
        ]);
        let hex: String = encode_state(&st)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN_STATE);
    }

    #[test]
    fn decoded_objects_share_one_shape_per_class_and_names() {
        let cube = Shape::new("Cube", vec!["cy".into(), "cx".into()]);
        let c = |x: f64| object(&cube, vec![Some(Value::Double(-x)), Some(Value::Double(x))]);
        let other = Value::new_object("Cube", HashMap::from([("cx".into(), Value::Int(1))]));
        let st = HashMap::from([(
            "cells".to_string(),
            array(vec![c(1.0), c(2.0), other, c(3.0)]),
        )]);
        let buf = encode_state(&st);
        let shapes = |st: &HashMap<String, Value>| -> Vec<Arc<Shape>> {
            let Value::Array(a) = &st["cells"] else {
                panic!("cells is an array")
            };
            let a = a.borrow();
            a.iter()
                .map(|v| match v {
                    Value::Object(o) => Arc::clone(o.borrow().shape()),
                    other => panic!("not an object: {other}"),
                })
                .collect()
        };
        let first = shapes(&decode_state(&buf).unwrap());
        assert!(Arc::ptr_eq(&first[0], &first[1]) && Arc::ptr_eq(&first[0], &first[3]));
        assert!(
            !Arc::ptr_eq(&first[0], &first[2]),
            "other names, other shape"
        );
        assert_eq!(
            first[0].names(),
            ["cx", "cy"],
            "decoded slots in name order"
        );
        let second = shapes(&decode_state(&buf).unwrap());
        assert!(
            !Arc::ptr_eq(&first[0], &second[0]),
            "no table outlives a call"
        );
    }

    #[test]
    fn repeated_field_names_keep_the_last_value() {
        let mut buf = vec![TAG_OBJECT];
        encode_str("P", &mut buf);
        buf.extend_from_slice(&3u64.to_le_bytes());
        for (k, v) in [("b", 1), ("a", 2), ("b", 3)] {
            encode_str(k, &mut buf);
            encode_value(&Value::Int(v), &mut buf);
        }
        let Value::Object(o) = decode_value(&buf).unwrap() else {
            panic!("not an object");
        };
        let o = o.borrow();
        assert_eq!(o.field_count(), 2);
        assert_eq!(o.get("b").and_then(Value::as_i64), Some(3));
        assert_eq!(o.get("a").and_then(Value::as_i64), Some(2));
    }

    /// Seeded states over every tag, with boxed and dense numeric arrays,
    /// and objects of a few classes whose shapes repeat, list fields in
    /// any order, and leave slots absent.
    struct StateGen {
        rng: SmallRng,
        shapes: Vec<Arc<Shape>>,
    }

    impl StateGen {
        fn new(seed: u64) -> Self {
            StateGen {
                rng: SmallRng::seed_from_u64(seed),
                shapes: Vec::new(),
            }
        }

        fn shape(&mut self) -> Arc<Shape> {
            if !self.shapes.is_empty() && self.rng.gen_bool(0.5) {
                let i = self.rng.gen_range(0, self.shapes.len());
                return Arc::clone(&self.shapes[i]);
            }
            let class = ["Acc", "Cube", "ZBuf"][self.rng.gen_range(0, 3)];
            let mut pool = ["a", "b", "cx", "depth", "n", "v0"];
            self.rng.shuffle(&mut pool);
            let k = self.rng.gen_range(0, pool.len() + 1);
            let shape = Shape::new(class, pool[..k].iter().map(|n| n.to_string()).collect());
            self.shapes.push(Arc::clone(&shape));
            shape
        }

        fn value(&mut self, depth: usize) -> Value {
            match self.rng.gen_range(0, if depth == 0 { 6 } else { 10 }) {
                0 => Value::Int(self.rng.next_u64() as i64),
                1 => Value::Double(f64::from_bits(self.rng.next_u64())),
                2 => Value::Bool(self.rng.gen_bool(0.5)),
                3 => Value::Null,
                4 => Value::Void,
                5 => Value::Domain(
                    self.rng.gen_range(0, 9) as i64 - 4,
                    self.rng.gen_range(0, 9) as i64 - 4,
                ),
                6 => {
                    let n = self.rng.gen_range(0, 5);
                    match self.rng.gen_range(0, 3) {
                        0 => array((0..n).map(|i| Value::Double(i as f64 * 0.5)).collect()),
                        1 => Value::array(ArrayVal::F64(
                            (0..n)
                                .map(|_| f64::from_bits(self.rng.next_u64()))
                                .collect(),
                        )),
                        _ => Value::array(ArrayVal::I64(
                            (0..n).map(|_| self.rng.next_u64() as i64).collect(),
                        )),
                    }
                }
                7 => array(
                    (0..self.rng.gen_range(0, 4))
                        .map(|_| self.value(depth - 1))
                        .collect(),
                ),
                _ => {
                    let shape = self.shape();
                    let slots = (0..shape.names().len())
                        .map(|_| (!self.rng.gen_bool(0.2)).then(|| self.value(depth - 1)))
                        .collect();
                    object(&shape, slots)
                }
            }
        }

        fn state(&mut self) -> HashMap<String, Value> {
            (0..self.rng.gen_range(0, 5))
                .map(|_| {
                    let key = ["acc", "zb", "n", "cells", "x"][self.rng.gen_range(0, 5)];
                    (key.to_string(), self.value(3))
                })
                .collect()
        }
    }

    fn states_equal(a: &HashMap<String, Value>, b: &HashMap<String, Value>) -> bool {
        a.len() == b.len()
            && a.iter()
                .all(|(k, v)| b.get(k).is_some_and(|w| v.deep_eq(w)))
    }

    /// What decodes is canonical: re-encoding it and decoding again gives
    /// the same state and the same bytes. Returns whether `buf` decoded.
    fn assert_canonical(buf: &[u8]) -> bool {
        let Ok(st) = decode_state(buf) else {
            return false;
        };
        let again = encode_state(&st);
        let back = decode_state(&again).expect("re-encoded state decodes");
        assert!(states_equal(&st, &back), "{buf:02x?}");
        assert_eq!(encode_state(&back), again, "{buf:02x?}");
        true
    }

    #[test]
    fn generated_states_roundtrip() {
        let mut g = StateGen::new(0xC0DE_C001);
        for case in 0..400 {
            let st = g.state();
            let buf = encode_state(&st);
            let back = decode_state(&buf).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert!(states_equal(&st, &back), "case {case}");
            assert_eq!(encode_state(&back), buf, "case {case}");
        }
    }

    #[test]
    fn generated_state_prefixes_fail() {
        let mut g = StateGen::new(0xC0DE_C002);
        for case in 0..150 {
            let buf = encode_state(&g.state());
            for cut in 0..buf.len() {
                assert!(decode_state(&buf[..cut]).is_err(), "case {case} cut {cut}");
            }
        }
    }

    #[test]
    fn random_and_mutated_states_decode_canonically_or_not_at_all() {
        let mut g = StateGen::new(0xC0DE_C003);
        let (mut random_ok, mut mutated_ok) = (0, 0);
        for _ in 0..2000 {
            let len = g.rng.gen_range(0, 64);
            let mut bytes: Vec<u8> = (0..len).map(|_| g.rng.next_u64() as u8).collect();
            // A small entry count and a known tag after a one-byte key
            // get the decoder past its first checks most of the time.
            if len >= 14 {
                bytes[..8].copy_from_slice(&1u64.to_le_bytes());
                bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
                bytes[13] = g.rng.gen_range(0, 12) as u8;
            }
            random_ok += usize::from(assert_canonical(&bytes));
        }
        for _ in 0..2000 {
            let mut bytes = encode_state(&g.state());
            if bytes.is_empty() {
                continue;
            }
            let i = g.rng.gen_range(0, bytes.len());
            bytes[i] = g.rng.next_u64() as u8;
            mutated_ok += usize::from(assert_canonical(&bytes));
        }
        assert!(
            random_ok >= 100 && mutated_ok >= 200,
            "too few inputs decoded to test anything: {random_ok} random, {mutated_ok} mutated"
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut f1 = HashMap::new();
        f1.insert("b".to_string(), Value::Int(1));
        f1.insert("a".to_string(), Value::Int(2));
        let o = Value::new_object("C", f1);
        let mut b1 = Vec::new();
        encode_value(&o, &mut b1);
        let mut b2 = Vec::new();
        encode_value(&o, &mut b2);
        assert_eq!(b1, b2);
    }
}

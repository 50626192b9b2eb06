//! Runtime values for the dialect interpreter.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A runtime value. Arrays and objects have reference semantics (shared
/// mutable), matching Java; everything else is a copied scalar.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Double(f64),
    Bool(bool),
    Void,
    /// Inclusive 1-D rectdomain `[lo, hi]`. `lo > hi` encodes an empty
    /// domain.
    Domain(i64, i64),
    Array(Rc<RefCell<ArrayVal>>),
    Object(Rc<RefCell<ObjectVal>>),
    Null,
}

/// An array's elements, stored by kind: `double[]` and `int[]` dense,
/// everything else (objects, booleans, nested arrays, and arrays whose
/// slots may be `Null`) boxed. The elements are the semantics: reads box
/// an element, writes unbox it, and [`Value::deep_eq`] and `Display` see
/// two arrays with equal elements as equal whatever their storage. An
/// array's storage never changes kind.
#[derive(Debug, Clone)]
pub enum ArrayVal {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Boxed(Vec<Value>),
}

impl ArrayVal {
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ArrayVal::F64(a) => a.len(),
            ArrayVal::I64(a) => a.len(),
            ArrayVal::Boxed(a) => a.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`, boxed.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Value> {
        match self {
            ArrayVal::F64(a) => a.get(i).map(|x| Value::Double(*x)),
            ArrayVal::I64(a) => a.get(i).map(|x| Value::Int(*x)),
            ArrayVal::Boxed(a) => a.get(i).cloned(),
        }
    }

    /// Store `v` as element `i` (in range), unboxed into dense storage
    /// with the interpreter's widening: an `int` stored into a `double[]`
    /// becomes a `double`. `Err` says what dense storage cannot hold.
    #[inline]
    pub fn set(&mut self, i: usize, v: Value) -> Result<(), String> {
        match (self, v) {
            (ArrayVal::F64(a), Value::Double(x)) => a[i] = x,
            (ArrayVal::F64(a), Value::Int(x)) => a[i] = x as f64,
            (ArrayVal::I64(a), Value::Int(x)) => a[i] = x,
            (ArrayVal::Boxed(a), v) => a[i] = v,
            (dense, v) => return Err(dense.cannot_hold(i, &v)),
        }
        Ok(())
    }

    #[cold]
    fn cannot_hold(&self, i: usize, v: &Value) -> String {
        format!("`{}` element {i} cannot hold `{v}`", self.type_name())
    }

    /// The elements in order, boxed.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("in range"))
    }

    /// `double[]`, `int[]`, or `array` for boxed storage.
    pub fn type_name(&self) -> &'static str {
        match self {
            ArrayVal::F64(_) => "double[]",
            ArrayVal::I64(_) => "int[]",
            ArrayVal::Boxed(_) => "array",
        }
    }

    fn deep_eq(&self, other: &ArrayVal) -> bool {
        match (self, other) {
            (ArrayVal::F64(a), ArrayVal::F64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_f64(*x, *y))
            }
            (ArrayVal::I64(a), ArrayVal::I64(b)) => a == b,
            _ => {
                self.len() == other.len()
                    && self.iter().zip(other.iter()).all(|(x, y)| x.deep_eq(&y))
            }
        }
    }
}

/// `deep_eq` on doubles: bitwise, except that any NaN equals any NaN.
fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Source of [`Shape`] ids: process-wide, starting at 1, never reused.
static NEXT_SHAPE_ID: AtomicU64 = AtomicU64::new(1);

/// An object layout: its class and its ordered field names. Every object
/// built through one shape shares it behind an `Arc`, so objects own
/// neither a class name nor key strings. The id is unique for the life
/// of the process, so a cache keyed by it can never mistake a new shape
/// for a dropped one that happened to live at the same address.
#[derive(Debug)]
pub struct Shape {
    id: u64,
    class: String,
    names: Vec<String>,
    /// Slot indices in field-name order (`Display` and the state codec).
    by_name: Vec<usize>,
}

impl Shape {
    /// A new shape with a fresh id. `names` must be distinct.
    pub fn new(class: impl Into<String>, names: Vec<String>) -> Arc<Shape> {
        debug_assert!(
            names
                .iter()
                .enumerate()
                .all(|(i, n)| !names[..i].contains(n)),
            "repeated field name in shape"
        );
        let mut by_name: Vec<usize> = (0..names.len()).collect();
        by_name.sort_by(|a, b| names[*a].cmp(&names[*b]));
        Arc::new(Shape {
            id: NEXT_SHAPE_ID.fetch_add(1, Ordering::Relaxed),
            class: class.into(),
            names,
            by_name,
        })
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn class(&self) -> &str {
        &self.class
    }

    /// Field names in slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The slot of field `name`, by a scan of the names.
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

/// Heap object: a shape plus one slot per field. A slot may be absent —
/// an object unpacked from a packet holds only the fields that crossed —
/// and reading an absent field fails like reading an undeclared one.
#[derive(Debug, Clone)]
pub struct ObjectVal {
    shape: Arc<Shape>,
    slots: Vec<Option<Value>>,
}

impl ObjectVal {
    /// An object of `shape` with one value (or `None`) per field.
    pub fn new(shape: Arc<Shape>, slots: Vec<Option<Value>>) -> ObjectVal {
        assert_eq!(
            slots.len(),
            shape.names.len(),
            "one slot per field of `{}`",
            shape.class
        );
        ObjectVal { shape, slots }
    }

    pub fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    pub fn class(&self) -> &str {
        &self.shape.class
    }

    /// The value in slot `i`, if present.
    pub fn slot(&self, i: usize) -> Option<&Value> {
        self.slots.get(i)?.as_ref()
    }

    /// Slot `i` itself, present or not (out of range panics: slots come
    /// from this object's shape).
    pub fn slot_mut(&mut self, i: usize) -> &mut Option<Value> {
        &mut self.slots[i]
    }

    /// Field `name`, if the shape has it and the slot is present.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.slot(self.shape.slot_of(name)?)
    }

    /// Field `name` for in-place update, if present.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        let i = self.shape.slot_of(name)?;
        self.slots[i].as_mut()
    }

    /// Present fields in name order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.shape
            .by_name
            .iter()
            .filter_map(|&i| Some((self.shape.names[i].as_str(), self.slots[i].as_ref()?)))
    }

    /// Number of present fields.
    pub fn field_count(&self) -> usize {
        self.slots.iter().filter(|v| v.is_some()).count()
    }
}

impl Value {
    /// An array of `len` copies of `fill`, dense when `fill` is a
    /// `double` or an `int` (the defaults of `new double[n]` and
    /// `new int[n]`).
    pub fn new_array(len: usize, fill: Value) -> Value {
        Value::array(match fill {
            Value::Double(x) => ArrayVal::F64(vec![x; len]),
            Value::Int(x) => ArrayVal::I64(vec![x; len]),
            fill => ArrayVal::Boxed(vec![fill; len]),
        })
    }

    /// A new array holding `elems`.
    pub fn array(elems: ArrayVal) -> Value {
        Value::Array(Rc::new(RefCell::new(elems)))
    }

    /// An object of a fresh shape holding `fields` (names in sorted
    /// order). A convenience for tests and one-off objects: code that
    /// builds many objects of one class shares one [`Shape`] instead.
    pub fn new_object(class: impl Into<String>, fields: HashMap<String, Value>) -> Value {
        let mut fields: Vec<(String, Value)> = fields.into_iter().collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        let (names, slots): (Vec<String>, Vec<Option<Value>>) =
            fields.into_iter().map(|(n, v)| (n, Some(v))).unzip();
        Value::Object(Rc::new(RefCell::new(ObjectVal::new(
            Shape::new(class, names),
            slots,
        ))))
    }

    /// Numeric value as f64 (int widens); None for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Number of points in a domain value.
    pub fn domain_size(&self) -> Option<i64> {
        match self {
            Value::Domain(lo, hi) => Some((hi - lo + 1).max(0)),
            _ => None,
        }
    }

    /// Structural equality used by tests: deep for arrays/objects, bitwise
    /// for doubles except that any NaN equals any NaN (Rust leaves the
    /// sign and payload of an arithmetic NaN unspecified, and no dialect
    /// operation can observe them). Objects compare by class and present
    /// fields, whatever their shapes' slot order.
    pub fn deep_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => same_f64(*a, *b),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Void, Value::Void) | (Value::Null, Value::Null) => true,
            (Value::Domain(a1, a2), Value::Domain(b1, b2)) => a1 == b1 && a2 == b2,
            (Value::Array(a), Value::Array(b)) => a.borrow().deep_eq(&b.borrow()),
            (Value::Object(a), Value::Object(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.class() == b.class()
                    && a.field_count() == b.field_count()
                    && a.fields()
                        .all(|(k, v)| b.get(k).is_some_and(|w| v.deep_eq(w)))
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Void => write!(f, "void"),
            Value::Null => write!(f, "null"),
            Value::Domain(lo, hi) => write!(f, "[{lo} : {hi}]"),
            Value::Array(a) => {
                let a = a.borrow();
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    if i >= 8 {
                        write!(f, "... ({} elems)", a.len())?;
                        break;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Object(o) => {
                let o = o.borrow();
                write!(f, "{}{{", o.class())?;
                for (i, (k, v)) in o.fields().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), None);
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Double(3.0).as_i64(), None);
    }

    #[test]
    fn domain_size_handles_empty() {
        assert_eq!(Value::Domain(0, 9).domain_size(), Some(10));
        assert_eq!(Value::Domain(5, 4).domain_size(), Some(0));
    }

    #[test]
    fn arrays_share_storage() {
        let a = Value::new_array(3, Value::Int(0));
        let b = a.clone();
        if let Value::Array(arr) = &a {
            arr.borrow_mut().set(0, Value::Int(7)).unwrap();
        }
        if let Value::Array(arr) = &b {
            assert_eq!(arr.borrow().get(0).and_then(|v| v.as_i64()), Some(7));
        }
    }

    #[test]
    fn new_arrays_of_doubles_and_ints_are_dense() {
        let storage = |v: &Value| match v {
            Value::Array(a) => a.borrow().type_name(),
            _ => unreachable!(),
        };
        assert_eq!(
            storage(&Value::new_array(2, Value::Double(0.0))),
            "double[]"
        );
        assert_eq!(storage(&Value::new_array(2, Value::Int(0))), "int[]");
        assert_eq!(storage(&Value::new_array(2, Value::Bool(false))), "array");
        assert_eq!(storage(&Value::new_array(2, Value::Null)), "array");
    }

    #[test]
    fn dense_stores_widen_ints_and_name_what_they_cannot_hold() {
        let mut d = ArrayVal::F64(vec![0.5; 2]);
        d.set(1, Value::Int(3)).unwrap();
        assert!(d.get(1).unwrap().deep_eq(&Value::Double(3.0)), "int widens");
        assert_eq!(
            d.set(0, Value::Bool(true)),
            Err("`double[]` element 0 cannot hold `true`".into())
        );
        let mut n = ArrayVal::I64(vec![0; 2]);
        assert_eq!(
            n.set(1, Value::Double(1.5)),
            Err("`int[]` element 1 cannot hold `1.5`".into())
        );
        let mut b = ArrayVal::Boxed(vec![Value::Null; 2]);
        b.set(0, Value::Bool(true)).unwrap();
        assert!(b.get(0).unwrap().deep_eq(&Value::Bool(true)));
        assert_eq!(b.get(2).map(|_| ()), None, "out of range reads nothing");
    }

    #[test]
    fn dense_and_boxed_arrays_with_equal_elements_are_equal_and_print_alike() {
        let dense = Value::array(ArrayVal::F64(vec![1.5, f64::NAN, -0.0]));
        let boxed = Value::array(ArrayVal::Boxed(vec![
            Value::Double(1.5),
            Value::Double(-f64::NAN),
            Value::Double(-0.0),
        ]));
        assert!(dense.deep_eq(&boxed) && boxed.deep_eq(&dense));
        assert_eq!(dense.to_string(), boxed.to_string());
        let ints = Value::array(ArrayVal::I64((0..12).collect()));
        let boxed_ints = Value::array(ArrayVal::Boxed((0..12).map(Value::Int).collect()));
        assert!(ints.deep_eq(&boxed_ints));
        assert_eq!(ints.to_string(), boxed_ints.to_string());
        assert_eq!(ints.to_string(), "[0, 1, 2, 3, 4, 5, 6, 7, ... (12 elems)]");
        // Elements, not storage: an int and a double never compare equal.
        let widened = Value::array(ArrayVal::F64(vec![1.0]));
        assert!(!widened.deep_eq(&Value::array(ArrayVal::I64(vec![1]))));
        let zero = Value::array(ArrayVal::F64(vec![0.0]));
        assert!(!zero.deep_eq(&Value::array(ArrayVal::F64(vec![-0.0]))));
        assert!(Value::array(ArrayVal::F64(vec![])).deep_eq(&Value::array(ArrayVal::Boxed(vec![]))));
    }

    #[test]
    fn deep_eq_arrays_and_objects() {
        let a = Value::new_array(2, Value::Int(1));
        let b = Value::new_array(2, Value::Int(1));
        assert!(a.deep_eq(&b));
        let mut f1 = HashMap::new();
        f1.insert("x".to_string(), Value::Double(1.0));
        let o1 = Value::new_object("P", f1.clone());
        let o2 = Value::new_object("P", f1);
        assert!(o1.deep_eq(&o2));
        assert!(!o1.deep_eq(&a));
    }

    #[test]
    fn deep_eq_equates_nans_of_either_sign_but_not_signed_zeros() {
        let nan = Value::Double(f64::NAN);
        let neg_nan = Value::Double(-f64::NAN);
        assert!(nan.deep_eq(&neg_nan) && neg_nan.deep_eq(&nan));
        assert!(!nan.deep_eq(&Value::Double(1.0)));
        let (zero, neg_zero) = (Value::Double(0.0), Value::Double(-0.0));
        assert!(!zero.deep_eq(&neg_zero) && !neg_zero.deep_eq(&zero));
        assert!(zero.deep_eq(&Value::Double(0.0)));
    }

    #[test]
    fn deep_eq_ignores_slot_order_but_not_absent_slots() {
        let xy = Shape::new("P", vec!["x".into(), "y".into()]);
        let yx = Shape::new("P", vec!["y".into(), "x".into()]);
        let obj = |shape: &Arc<Shape>, slots: Vec<Option<Value>>| {
            Value::Object(Rc::new(RefCell::new(ObjectVal::new(
                Arc::clone(shape),
                slots,
            ))))
        };
        let a = obj(&xy, vec![Some(Value::Int(1)), Some(Value::Int(2))]);
        let b = obj(&yx, vec![Some(Value::Int(2)), Some(Value::Int(1))]);
        assert!(a.deep_eq(&b) && b.deep_eq(&a));
        assert_eq!(a.to_string(), "P{x: 1, y: 2}");
        assert_eq!(b.to_string(), "P{x: 1, y: 2}", "display sorts by name");
        let partial = obj(&yx, vec![None, Some(Value::Int(1))]);
        assert!(!a.deep_eq(&partial) && !partial.deep_eq(&a));
        assert_eq!(partial.to_string(), "P{x: 1}");
        let Value::Object(p) = &partial else {
            unreachable!()
        };
        assert!(
            p.borrow().get("y").is_none(),
            "absent slot reads as missing"
        );
        assert_eq!(p.borrow().get("x").and_then(Value::as_i64), Some(1));
        let q = Shape::new("Q", vec!["x".into(), "y".into()]);
        let other_class = obj(&q, vec![Some(Value::Int(1)), Some(Value::Int(2))]);
        assert!(!a.deep_eq(&other_class));
    }

    #[test]
    fn shape_ids_are_never_reused() {
        let first = Shape::new("P", vec![]).id();
        let second = Shape::new("P", vec![]).id();
        assert!(
            second > first,
            "a dropped shape's id is not handed out again"
        );
    }

    #[test]
    fn display_truncates_long_arrays() {
        let a = Value::new_array(100, Value::Int(0));
        let s = a.to_string();
        assert!(s.contains("100 elems"));
    }
}

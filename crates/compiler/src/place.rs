//! Value locations ("places") and rectilinear sections with symbolic bounds.
//!
//! The paper's Gen/Cons/ReqComm sets hold *values*: scalars, fields of
//! objects, and rectilinear sections of collections whose bounds may only be
//! known symbolically (Section 4.2, "we use rectilinear sections, whose
//! bounds may only be available symbolically. We also keep track of fields
//! of classes and handle nested classes").
//!
//! A [`Place`] is `root [section]? (.field)*`, e.g.:
//!
//! - `count` — a scalar local;
//! - `grid[8*pkt.lo : 8*pkt.hi+7]` — a section of an input array;
//! - `tri[pkt].x` — field `x` of every element of collection `tri` indexed
//!   over the current packet;
//! - `zbuf.depth` — a (whole-array) field of an object.

use std::collections::BTreeMap;
use std::fmt;

/// A symbolic integer expression: constants, named symbols (e.g. `pkt.lo`,
/// `n`), and affine combinations. Kept in a normal form
/// `c0 + Σ c_i * sym_i`; non-affine combinations degrade to [`SymExpr`]
/// trees with an `Opaque` marker.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymExpr {
    /// Constant term.
    pub konst: i64,
    /// Coefficients per symbol, sorted by name; zero coefficients removed.
    pub terms: Vec<(String, i64)>,
    /// True if the expression also involves non-affine parts we dropped;
    /// such expressions compare conservatively (never provably equal or
    /// ordered) and evaluate to `None`.
    pub opaque: bool,
}

impl SymExpr {
    pub fn konst(v: i64) -> Self {
        SymExpr {
            konst: v,
            terms: Vec::new(),
            opaque: false,
        }
    }

    pub fn sym(name: impl Into<String>) -> Self {
        SymExpr {
            konst: 0,
            terms: vec![(name.into(), 1)],
            opaque: false,
        }
    }

    /// A fully opaque expression (unknown value).
    pub fn unknown() -> Self {
        SymExpr {
            konst: 0,
            terms: Vec::new(),
            opaque: true,
        }
    }

    pub fn is_const(&self) -> Option<i64> {
        if self.terms.is_empty() && !self.opaque {
            Some(self.konst)
        } else {
            None
        }
    }

    fn normalize(mut self) -> Self {
        self.terms.retain(|(_, c)| *c != 0);
        self.terms.sort();
        self
    }

    pub fn add(&self, other: &SymExpr) -> SymExpr {
        let mut map: BTreeMap<String, i64> = BTreeMap::new();
        for (s, c) in self.terms.iter().chain(&other.terms) {
            *map.entry(s.clone()).or_insert(0) += *c;
        }
        SymExpr {
            konst: self.konst.wrapping_add(other.konst),
            terms: map.into_iter().collect(),
            opaque: self.opaque || other.opaque,
        }
        .normalize()
    }

    pub fn sub(&self, other: &SymExpr) -> SymExpr {
        self.add(&other.scale(-1))
    }

    pub fn scale(&self, k: i64) -> SymExpr {
        SymExpr {
            konst: self.konst.wrapping_mul(k),
            terms: self.terms.iter().map(|(s, c)| (s.clone(), c * k)).collect(),
            opaque: self.opaque,
        }
        .normalize()
    }

    /// Product; affine only if one side is constant, otherwise opaque.
    pub fn mul(&self, other: &SymExpr) -> SymExpr {
        if let Some(k) = self.is_const() {
            other.scale(k)
        } else if let Some(k) = other.is_const() {
            self.scale(k)
        } else {
            SymExpr::unknown()
        }
    }

    /// Evaluate with concrete symbol bindings. `None` if opaque or a symbol
    /// is unbound.
    pub fn eval(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        if self.opaque {
            return None;
        }
        let mut v = self.konst;
        for (s, c) in &self.terms {
            v += c * env(s)?;
        }
        Some(v)
    }

    /// Substitute `sym := replacement` (used for actual/formal renaming and
    /// for instantiating packet bounds).
    pub fn subst(&self, sym: &str, replacement: &SymExpr) -> SymExpr {
        let mut out = SymExpr {
            konst: self.konst,
            terms: Vec::new(),
            opaque: self.opaque,
        };
        for (s, c) in &self.terms {
            if s == sym {
                out = out.add(&replacement.scale(*c));
            } else {
                out = out.add(&SymExpr {
                    konst: 0,
                    terms: vec![(s.clone(), *c)],
                    opaque: false,
                });
            }
        }
        out.normalize()
    }

    /// `Some(d)` if `self - other` is the constant `d` (provable distance).
    pub fn const_diff(&self, other: &SymExpr) -> Option<i64> {
        self.sub(other).is_const()
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.opaque {
            return write!(f, "?");
        }
        let mut first = true;
        if self.konst != 0 || self.terms.is_empty() {
            write!(f, "{}", self.konst)?;
            first = false;
        }
        for (s, c) in &self.terms {
            if *c < 0 {
                write!(f, "{}{}", if first { "-" } else { " - " }, fmt_term(-c, s))?;
            } else {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "{}", fmt_term(*c, s))?;
            }
            first = false;
        }
        Ok(())
    }
}

fn fmt_term(c: i64, s: &str) -> String {
    if c == 1 {
        s.to_string()
    } else {
        format!("{c}*{s}")
    }
}

/// An inclusive rectilinear section `[lo : hi : stride]` of a 1-D
/// collection. `stride == 1` for dense sections.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Section {
    pub lo: SymExpr,
    pub hi: SymExpr,
    pub stride: i64,
}

impl Section {
    pub fn dense(lo: SymExpr, hi: SymExpr) -> Self {
        Section { lo, hi, stride: 1 }
    }

    /// Number of elements, if computable with `env`.
    pub fn len(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        let lo = self.lo.eval(env)?;
        let hi = self.hi.eval(env)?;
        if hi < lo {
            return Some(0);
        }
        Some((hi - lo) / self.stride + 1)
    }

    /// Does `self` provably cover `other` (every index of `other` lies in
    /// `self`)? Conservative: `false` when unprovable.
    pub fn covers(&self, other: &Section) -> bool {
        if self.stride != 1 {
            // Strided cover only if structurally identical.
            return self == other;
        }
        let lo_ok = matches!(other.lo.const_diff(&self.lo), Some(d) if d >= 0);
        let hi_ok = matches!(self.hi.const_diff(&other.hi), Some(d) if d >= 0);
        lo_ok && hi_ok
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stride == 1 {
            write!(f, "[{} : {}]", self.lo, self.hi)
        } else {
            write!(f, "[{} : {} : {}]", self.lo, self.hi, self.stride)
        }
    }
}

/// How a place selects within its root collection.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sectioning {
    /// The root is a scalar / object (not indexed).
    NotIndexed,
    /// The whole collection.
    All,
    /// A rectilinear slice.
    Range(Section),
}

impl Sectioning {
    /// Does `self` cover `other` as an index set?
    pub fn covers(&self, other: &Sectioning) -> bool {
        match (self, other) {
            (Sectioning::NotIndexed, Sectioning::NotIndexed) => true,
            (Sectioning::All, _) => !matches!(other, Sectioning::NotIndexed),
            (Sectioning::Range(a), Sectioning::Range(b)) => a.covers(b),
            _ => false,
        }
    }
}

/// A value location: `root [section]? (.field)*`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Place {
    pub root: String,
    pub sect: Sectioning,
    /// Field path applied to the (element) value, outermost first.
    pub fields: Vec<String>,
}

impl Place {
    pub fn var(name: impl Into<String>) -> Self {
        Place {
            root: name.into(),
            sect: Sectioning::NotIndexed,
            fields: Vec::new(),
        }
    }

    pub fn field(mut self, f: impl Into<String>) -> Self {
        self.fields.push(f.into());
        self
    }

    pub fn whole_array(name: impl Into<String>) -> Self {
        Place {
            root: name.into(),
            sect: Sectioning::All,
            fields: Vec::new(),
        }
    }

    pub fn sliced(name: impl Into<String>, sect: Section) -> Self {
        Place {
            root: name.into(),
            sect: Sectioning::Range(sect),
            fields: Vec::new(),
        }
    }

    /// Does a definition of `self` definitely overwrite all of `other`?
    /// (Used when subtracting must-defs from Cons/ReqComm.) A def of the
    /// whole object (`fields` a prefix of other's) covers deeper fields.
    pub fn covers(&self, other: &Place) -> bool {
        self.root == other.root
            && other.fields.starts_with(&self.fields)
            && self.sect.covers(&other.sect)
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)?;
        match &self.sect {
            Sectioning::NotIndexed => {}
            Sectioning::All => write!(f, "[*]")?,
            Sectioning::Range(s) => write!(f, "{s}")?,
        }
        for fl in &self.fields {
            write!(f, ".{fl}")?;
        }
        Ok(())
    }
}

/// A set of places with the conservative operations the analysis needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlaceSet {
    places: Vec<Place>,
}

impl PlaceSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    pub fn len(&self) -> usize {
        self.places.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Place> {
        self.places.iter()
    }

    pub fn contains(&self, p: &Place) -> bool {
        self.places.contains(p)
    }

    /// Is `p` covered by some member (i.e. adding it would be redundant)?
    pub fn covers_place(&self, p: &Place) -> bool {
        self.places.iter().any(|q| q.covers(p))
    }

    /// Insert, dropping places already covered and any member the new place
    /// covers.
    pub fn insert(&mut self, p: Place) {
        if self.covers_place(&p) {
            return;
        }
        self.places.retain(|q| !p.covers(q));
        self.places.push(p);
    }

    pub fn extend(&mut self, other: &PlaceSet) {
        for p in other.iter() {
            self.insert(p.clone());
        }
    }

    /// Remove every member that `killer` definitely covers (must-def kill).
    pub fn kill(&mut self, killer: &Place) {
        self.places.retain(|q| !killer.covers(q));
    }

    /// `self -= other` where `other` is a set of must-defs.
    pub fn kill_all(&mut self, other: &PlaceSet) {
        for k in other.iter() {
            self.kill(k);
        }
    }

    /// Deterministic sorted view (for display, tests, layout generation).
    pub fn sorted(&self) -> Vec<&Place> {
        let mut v: Vec<&Place> = self.places.iter().collect();
        v.sort();
        v
    }
}

impl FromIterator<Place> for PlaceSet {
    fn from_iter<T: IntoIterator<Item = Place>>(iter: T) -> Self {
        let mut s = PlaceSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl fmt::Display for PlaceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.sorted().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of<'a>(pairs: &'a [(&'a str, i64)]) -> impl Fn(&str) -> Option<i64> + 'a {
        move |s: &str| pairs.iter().find(|(k, _)| *k == s).map(|(_, v)| *v)
    }

    #[test]
    fn symexpr_arithmetic() {
        let a = SymExpr::sym("x").scale(2).add(&SymExpr::konst(3)); // 2x+3
        let b = SymExpr::sym("x").add(&SymExpr::sym("y")); // x+y
        let s = a.add(&b); // 3x+y+3
        assert_eq!(s.eval(&env_of(&[("x", 2), ("y", 5)])), Some(14));
        let d = a.sub(&SymExpr::sym("x").scale(2)); // 3
        assert_eq!(d.is_const(), Some(3));
    }

    #[test]
    fn symexpr_mul_affine_only() {
        let x = SymExpr::sym("x");
        assert_eq!(
            x.mul(&SymExpr::konst(4)).eval(&env_of(&[("x", 3)])),
            Some(12)
        );
        assert!(x.mul(&x).opaque);
    }

    #[test]
    fn symexpr_subst() {
        // 2*i + 1 with i := pkt.lo + 3  →  2*pkt.lo + 7
        let e = SymExpr::sym("i").scale(2).add(&SymExpr::konst(1));
        let r = e.subst("i", &SymExpr::sym("pkt.lo").add(&SymExpr::konst(3)));
        assert_eq!(r.eval(&env_of(&[("pkt.lo", 10)])), Some(27));
    }

    #[test]
    fn symexpr_display() {
        let e = SymExpr::sym("n").scale(2).sub(&SymExpr::konst(1));
        assert_eq!(e.to_string(), "-1 + 2*n");
        assert_eq!(SymExpr::konst(0).to_string(), "0");
        assert_eq!(SymExpr::unknown().to_string(), "?");
    }

    #[test]
    fn section_len_and_cover() {
        let s = Section::dense(
            SymExpr::sym("lo"),
            SymExpr::sym("lo").add(&SymExpr::konst(9)),
        );
        assert_eq!(s.len(&env_of(&[("lo", 5)])), Some(10));
        let inner = Section::dense(
            SymExpr::sym("lo").add(&SymExpr::konst(2)),
            SymExpr::sym("lo").add(&SymExpr::konst(7)),
        );
        assert!(s.covers(&inner));
        assert!(!inner.covers(&s));
        // Different symbols → unprovable → not covered.
        let other = Section::dense(SymExpr::sym("a"), SymExpr::sym("b"));
        assert!(!s.covers(&other));
    }

    #[test]
    fn strided_section_covers_only_identical() {
        let s = Section {
            lo: SymExpr::konst(0),
            hi: SymExpr::konst(10),
            stride: 2,
        };
        assert!(s.covers(&s.clone()));
        let dense = Section::dense(SymExpr::konst(0), SymExpr::konst(10));
        assert!(!s.covers(&dense), "strided does not cover dense");
        assert!(dense.covers(&s), "dense covers the strided subset");
        assert!(dense.covers(&Section::dense(SymExpr::konst(2), SymExpr::konst(8))));
    }

    #[test]
    fn place_cover_semantics() {
        let whole = Place::var("t"); // whole object t
        let fld = Place::var("t").field("x");
        assert!(whole.covers(&fld));
        assert!(!fld.covers(&whole));

        let arr_all = Place::whole_array("xs");
        let arr_part = Place::sliced("xs", Section::dense(SymExpr::konst(0), SymExpr::konst(4)));
        assert!(arr_all.covers(&arr_part));
        assert!(!arr_part.covers(&arr_all));
        // scalar root never covers indexed use of same name
        assert!(!Place::var("xs").covers(&arr_part));
    }

    #[test]
    fn placeset_insert_dedups_by_cover() {
        let mut s = PlaceSet::new();
        s.insert(Place::var("t").field("x"));
        s.insert(Place::var("t")); // covers t.x → replaces it
        assert_eq!(s.len(), 1);
        s.insert(Place::var("t").field("y")); // already covered
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn placeset_kill() {
        let mut s = PlaceSet::new();
        s.insert(Place::var("a"));
        s.insert(Place::var("b").field("x"));
        s.kill(&Place::var("b"));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&Place::var("a")));
    }

    #[test]
    fn placeset_display_sorted() {
        let mut s = PlaceSet::new();
        s.insert(Place::var("z"));
        s.insert(Place::var("a"));
        assert_eq!(s.to_string(), "{a, z}");
    }
}

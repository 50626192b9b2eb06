//! Property-style tests for the compiler's core data structures: the place
//! lattice, symbolic expressions, and the pack/unpack round trip. Cases
//! come from a seeded PRNG (the build is offline, so no proptest);
//! failures reproduce deterministically from the printed parameters.

use cgp_compiler::packing::{
    pack, unpack, PackEntry, PackLayout, RuntimeEnv, ScalarKind, Unpacked,
};
use cgp_compiler::place::{Place, PlaceSet, Section, Sectioning, SymExpr};
use cgp_lang::{ArrayVal, Value};
use cgp_obs::SmallRng;
use std::collections::HashMap;

// ---- SymExpr algebra -------------------------------------------------------

fn random_sym(rng: &mut SmallRng, depth: usize) -> SymExpr {
    if depth == 0 || rng.gen_bool(0.35) {
        if rng.gen_bool(0.5) {
            SymExpr::konst(rng.gen_range(0, 200) as i64 - 100)
        } else {
            SymExpr::sym(["x", "y", "pkt.lo"][rng.gen_range(0, 3)])
        }
    } else {
        match rng.gen_range(0, 3) {
            0 => random_sym(rng, depth - 1).add(&random_sym(rng, depth - 1)),
            1 => random_sym(rng, depth - 1).sub(&random_sym(rng, depth - 1)),
            _ => random_sym(rng, depth - 1).scale(rng.gen_range(0, 10) as i64 - 5),
        }
    }
}

fn env(x: i64, y: i64, p: i64) -> impl Fn(&str) -> Option<i64> {
    move |s: &str| match s {
        "x" => Some(x),
        "y" => Some(y),
        "pkt.lo" => Some(p),
        _ => None,
    }
}

#[test]
fn symexpr_add_commutes() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0001);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let b = random_sym(&mut rng, 3);
        let x = rng.gen_range(0, 100) as i64 - 50;
        let y = rng.gen_range(0, 100) as i64 - 50;
        let e = env(x, y, 7);
        assert_eq!(a.add(&b).eval(&e), b.add(&a).eval(&e), "{a} + {b}");
    }
}

#[test]
fn symexpr_add_associates() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0002);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let b = random_sym(&mut rng, 3);
        let c = random_sym(&mut rng, 3);
        let e = env(3, -4, 11);
        assert_eq!(
            a.add(&b).add(&c).eval(&e),
            a.add(&b.add(&c)).eval(&e),
            "{a}, {b}, {c}"
        );
    }
}

#[test]
fn symexpr_sub_is_add_neg() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0003);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let b = random_sym(&mut rng, 3);
        let e = env(-2, 9, 0);
        assert_eq!(
            a.sub(&b).eval(&e),
            a.add(&b.scale(-1)).eval(&e),
            "{a} - {b}"
        );
    }
}

#[test]
fn symexpr_eval_matches_semantics() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0004);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let x = rng.gen_range(0, 40) as i64 - 20;
        let y = rng.gen_range(0, 40) as i64 - 20;
        // Evaluate via substitution of constants, then is_const.
        let e = env(x, y, 5);
        let direct = a.eval(&e);
        let substituted = a
            .subst("x", &SymExpr::konst(x))
            .subst("y", &SymExpr::konst(y))
            .subst("pkt.lo", &SymExpr::konst(5));
        assert_eq!(direct, substituted.is_const(), "{a} at x={x} y={y}");
    }
}

#[test]
fn symexpr_const_diff_sound() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0005);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let d = rng.gen_range(0, 100) as i64 - 50;
        let shifted = a.add(&SymExpr::konst(d));
        assert_eq!(shifted.const_diff(&a), Some(d), "{a} + {d}");
    }
}

// ---- place lattice ---------------------------------------------------------

fn random_place(rng: &mut SmallRng) -> Place {
    let root = ["a", "b", "t"][rng.gen_range(0, 3)];
    let sect = match rng.gen_range(0, 3) {
        0 => Sectioning::NotIndexed,
        1 => Sectioning::All,
        _ => {
            let lo = rng.gen_range(0, 50) as i64;
            let len = rng.gen_range(0, 50) as i64;
            Sectioning::Range(Section::dense(SymExpr::konst(lo), SymExpr::konst(lo + len)))
        }
    };
    let n_fields = rng.gen_range(0, 3);
    let fields = (0..n_fields)
        .map(|_| ["x", "y"][rng.gen_range(0, 2)].to_string())
        .collect();
    Place {
        root: root.to_string(),
        sect,
        fields,
    }
}

fn random_places(rng: &mut SmallRng, max: usize) -> Vec<Place> {
    let n = rng.gen_range(0, max + 1);
    (0..n).map(|_| random_place(rng)).collect()
}

#[test]
fn covers_is_reflexive() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0006);
    for _case in 0..300 {
        let p = random_place(&mut rng);
        assert!(p.covers(&p), "{p}");
    }
}

#[test]
fn covers_is_transitive() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0007);
    for _case in 0..2000 {
        let a = random_place(&mut rng);
        let b = random_place(&mut rng);
        let c = random_place(&mut rng);
        if a.covers(&b) && b.covers(&c) {
            assert!(a.covers(&c), "{a} ⊇ {b} ⊇ {c}");
        }
    }
}

#[test]
fn insert_is_idempotent() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0008);
    for _case in 0..300 {
        let ps = random_places(&mut rng, 8);
        let p = random_place(&mut rng);
        let mut s1: PlaceSet = ps.iter().cloned().collect();
        s1.insert(p.clone());
        let mut s2 = s1.clone();
        s2.insert(p.clone());
        assert_eq!(s1.sorted(), s2.sorted(), "inserting {p}");
    }
}

#[test]
fn insert_preserves_coverage() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0009);
    for _case in 0..300 {
        let ps = random_places(&mut rng, 8);
        let p = random_place(&mut rng);
        let mut set: PlaceSet = ps.iter().cloned().collect();
        // everything previously covered stays covered after any insert
        set.insert(p.clone());
        for q in &ps {
            assert!(set.covers_place(q), "{q} lost after inserting {p}");
        }
        assert!(set.covers_place(&p));
    }
}

#[test]
fn kill_removes_only_covered() {
    let mut rng = SmallRng::seed_from_u64(0xC0_000A);
    for _case in 0..300 {
        let ps = random_places(&mut rng, 8);
        let k = random_place(&mut rng);
        let set: PlaceSet = ps.iter().cloned().collect();
        let mut killed = set.clone();
        killed.kill(&k);
        for q in set.sorted() {
            if k.covers(q) {
                assert!(!killed.contains(q));
            } else {
                assert!(killed.contains(q), "{q} wrongly killed by {k}");
            }
        }
    }
}

// ---- pack / unpack round trip ----------------------------------------------

#[derive(Debug, Clone)]
struct WireCase {
    scalars: Vec<(String, i64)>,
    array_len: usize,
    doubles: Vec<f64>,
}

fn random_wire(rng: &mut SmallRng) -> WireCase {
    let n_ints = rng.gen_range(0, 4);
    let scalars = (0..n_ints)
        .map(|i| (format!("s{i}"), rng.gen_range(0, 2000) as i64 - 1000))
        .collect();
    let len = rng.gen_range(1, 64);
    let doubles = (0..len)
        .map(|_| (rng.gen_f64() - 0.5) * 2e6)
        .collect::<Vec<f64>>();
    WireCase {
        scalars,
        array_len: len,
        doubles,
    }
}

#[test]
fn pack_unpack_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC0_000B);
    for case_no in 0..200 {
        let case = random_wire(&mut rng);
        let field_wise = rng.gen_bool(0.5);

        let n = case.array_len as i64;
        let arr_place = Place::sliced(
            "xs",
            Section::dense(SymExpr::konst(0), SymExpr::konst(n - 1)),
        );
        let mut entries = vec![PackEntry {
            place: arr_place,
            first_consumer: 1,
            elem: ScalarKind::F64,
        }];
        for (name, _) in &case.scalars {
            entries.push(PackEntry {
                place: Place::var(name.clone()),
                first_consumer: 2,
                elem: ScalarKind::I64,
            });
        }
        let layout = if field_wise {
            PackLayout {
                field_wise: entries,
                ..Default::default()
            }
        } else {
            PackLayout {
                instance_wise: entries,
                ..Default::default()
            }
        };

        let mut vars: HashMap<String, Value> = HashMap::new();
        vars.insert(
            "xs".into(),
            Value::array(ArrayVal::F64(case.doubles.clone())),
        );
        for (name, v) in &case.scalars {
            vars.insert(name.clone(), Value::Int(*v));
        }

        let env = RuntimeEnv::for_packet("pkt", 0, n - 1);
        let buf = pack(&layout, &vars, &env, (0, n - 1), None).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert_eq!(un.pkt, (0, n - 1), "case {case_no}");
        assert!(un.vars["xs"].deep_eq(&vars["xs"]), "case {case_no}");
        for (name, _) in &case.scalars {
            assert!(un.vars[name].deep_eq(&vars[name]), "case {case_no}: {name}");
        }
    }
}

#[test]
fn filtered_pack_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC0_000C);
    for case_no in 0..200 {
        let len = rng.gen_range(1, 64);
        let mask: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
        let lo = rng.gen_range(0, 1000) as i64;

        let n = len as i64;
        let place = Place::sliced(
            "v",
            Section::dense(
                SymExpr::konst(0),
                SymExpr::sym("pkt.hi").sub(&SymExpr::sym("pkt.lo")),
            ),
        );
        let layout = PackLayout {
            instance_wise: vec![PackEntry {
                place,
                first_consumer: 1,
                elem: ScalarKind::F64,
            }],
            filtered: Some(0),
            ..Default::default()
        };
        let vars: HashMap<String, Value> = [(
            "v".to_string(),
            Value::array(ArrayVal::F64((0..len).map(|i| i as f64 * 1.25).collect())),
        )]
        .into_iter()
        .collect();
        let env = RuntimeEnv::for_packet("pkt", lo, lo + n - 1);
        let selection: Vec<i64> = (0..len)
            .filter(|i| mask[*i])
            .map(|i| lo + i as i64)
            .collect();
        let buf = pack(&layout, &vars, &env, (lo, lo + n - 1), Some(&selection)).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert_eq!(
            un.selection.as_deref(),
            Some(&selection[..]),
            "case {case_no}"
        );
        if selection.is_empty() {
            // Nothing crossed: the binding is absent (the receiving filter
            // re-allocates packet-local arrays it needs).
            assert!(!un.vars.contains_key("v"), "case {case_no}");
        } else {
            let Value::Array(arr) = &un.vars["v"] else {
                panic!("not array")
            };
            let arr = arr.borrow();
            for (i, _) in mask[..len].iter().enumerate().filter(|(_, m)| **m) {
                assert!(
                    arr.get(i).unwrap().deep_eq(&Value::Double(i as f64 * 1.25)),
                    "case {case_no}"
                );
            }
        }
        // volume proportional to selection
        assert!(
            buf.len() <= 16 + 8 + 8 * selection.len() + 8 * (selection.len() + 1) + 8,
            "case {case_no}"
        );
    }
}

// ---- receive-array reuse ---------------------------------------------------

/// `[pkt.lo : pkt.hi]` (absolute) or `[0 : pkt.hi - pkt.lo]` (rebased).
fn packet_section(rebased: bool) -> Section {
    let (lo, hi) = (SymExpr::sym("pkt.lo"), SymExpr::sym("pkt.hi"));
    if rebased {
        Section::dense(SymExpr::konst(0), hi.sub(&lo))
    } else {
        Section::dense(lo, hi)
    }
}

/// The receive-side entries a reuse case can draw from: two absolute
/// plain roots, a rebased one, two field paths of one object array, and a
/// scalar.
fn reuse_entries() -> Vec<(PackEntry, bool)> {
    let sliced = |root: &str, rebased: bool, field: Option<&str>, elem| {
        let mut place = Place::sliced(root, packet_section(rebased));
        place.fields.extend(field.map(str::to_string));
        (
            PackEntry {
                place,
                first_consumer: 1,
                elem,
            },
            rebased,
        )
    };
    vec![
        sliced("a", false, None, ScalarKind::F64),
        sliced("b", false, None, ScalarKind::I64),
        sliced("v", true, None, ScalarKind::F64),
        sliced("t", false, Some("x"), ScalarKind::F64),
        sliced("t", false, Some("y"), ScalarKind::F64),
        (
            PackEntry {
                place: Place::var("s"),
                first_consumer: 1,
                elem: ScalarKind::I64,
            },
            false,
        ),
    ]
}

/// Upstream bindings for packet `(lo, hi)` over a domain of `n` points:
/// absolute arrays span the domain, the rebased one only the packet, and
/// every value is a function of its domain point.
fn reuse_source(n: i64, (lo, hi): (i64, i64)) -> HashMap<String, Value> {
    let arr = |vals: Vec<Value>| Value::array(ArrayVal::Boxed(vals));
    let obj = |i: i64| {
        let f = [
            ("x".to_string(), Value::Double(i as f64 + 0.5)),
            ("y".to_string(), Value::Double(-(i as f64))),
        ];
        Value::new_object("T", f.into_iter().collect())
    };
    [
        (
            "a",
            Value::array(ArrayVal::F64((0..n).map(|i| i as f64 * 1.5).collect())),
        ),
        (
            "b",
            Value::array(ArrayVal::I64((0..n).map(|i| i * 7 - 3).collect())),
        ),
        (
            "v",
            arr((lo..=hi).map(|i| Value::Double(i as f64 / 4.0)).collect()),
        ),
        ("t", arr((0..n).map(obj).collect())),
        ("s", Value::Int(lo * 31 + hi)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Unpacking a packet sequence through one environment (reusing its
/// receive arrays) gives exactly what a fresh environment per packet
/// gives — same bindings, same array lengths, `Null` everywhere outside
/// the slots this packet covers — for ascending, descending and shuffled
/// packet orders; absolute and rebased sections; single runs,
/// interleaves, field-wise runs and field paths; and filtered cuts with
/// empty, full and random selections.
#[test]
fn receive_array_reuse_matches_fresh_unpack() {
    let mut rng = SmallRng::seed_from_u64(0xC0_000D);
    for case_no in 0..120 {
        let n = rng.gen_range(16, 257) as i64;
        let k = rng.gen_range(1, 17);
        let mut packets = cgp_lang::interp::split_domain(0, n - 1, k);
        match rng.gen_range(0, 3) {
            0 => {}
            1 => packets.reverse(),
            _ => rng.shuffle(&mut packets),
        }
        let filtered = rng.gen_bool(0.4);
        let mut layout = PackLayout {
            filtered: filtered.then_some(0),
            ..Default::default()
        };
        let mut rebased_roots = Vec::new();
        for (e, rebased) in reuse_entries() {
            if !rng.gen_bool(0.6) {
                continue;
            }
            if rebased {
                rebased_roots.push(e.place.root.clone());
            }
            if rng.gen_bool(0.5) {
                layout.instance_wise.push(e);
            } else {
                layout.field_wise.push(e);
            }
        }
        let reused = RuntimeEnv::for_packet("pkt", 0, 0);
        for (pno, &(lo, hi)) in packets.iter().enumerate() {
            let selection: Vec<i64> = match rng.gen_range(0, 3) {
                0 => Vec::new(),
                1 => (lo..=hi).collect(),
                _ => (lo..=hi).filter(|_| rng.gen_bool(0.5)).collect(),
            };
            let sel = filtered.then_some(&selection[..]);
            let env = RuntimeEnv::for_packet("pkt", lo, hi);
            let buf = pack(&layout, &reuse_source(n, (lo, hi)), &env, (lo, hi), sel).unwrap();
            let got = unpack(&layout, &reused, &buf).unwrap();
            let want = unpack(&layout, &env, &buf).unwrap();
            let ctx = format!("case {case_no} packet {pno} [{lo}, {hi}] layout {layout:?}");

            let mut keys: Vec<&String> = got.vars.keys().collect();
            keys.sort();
            let mut want_keys: Vec<&String> = want.vars.keys().collect();
            want_keys.sort();
            assert_eq!(keys, want_keys, "{ctx}");
            for (name, w) in &want.vars {
                let g = &got.vars[name];
                assert!(g.deep_eq(w), "{ctx}: `{name}` differs");
                let (Value::Array(g), Value::Array(w)) = (g, w) else {
                    continue;
                };
                assert_eq!(g.borrow().len(), w.borrow().len(), "{ctx}: `{name}` length");
                // Slots this packet covers, rebased for rebased roots.
                let base = if rebased_roots.contains(name) { lo } else { 0 };
                let covered: Vec<i64> = match sel {
                    Some(s) => s.to_vec(),
                    None => (lo..=hi).collect(),
                };
                for (slot, v) in g.borrow().iter().enumerate() {
                    if !covered.contains(&(slot as i64 + base)) {
                        assert!(
                            matches!(v, Value::Null),
                            "{ctx}: `{name}[{slot}]` outside the section is {v}"
                        );
                    }
                }
            }
        }
    }
}

/// A filter that keeps a received array keeps it intact: the next packet
/// unpacks into fresh storage. Once the reference is dropped, the array is
/// reused again.
#[test]
fn retained_receive_array_is_never_reused() {
    let layout = PackLayout {
        instance_wise: reuse_entries()
            .into_iter()
            .take(2)
            .map(|(e, _)| e)
            .collect(),
        ..Default::default()
    };
    let n = 96;
    let packets = cgp_lang::interp::split_domain(0, n - 1, 6);
    let env = RuntimeEnv::for_packet("pkt", 0, 0);
    let unpack_packet = |(lo, hi): (i64, i64)| {
        let src = RuntimeEnv::for_packet("pkt", lo, hi);
        let buf = pack(&layout, &reuse_source(n, (lo, hi)), &src, (lo, hi), None).unwrap();
        unpack(&layout, &env, &buf).unwrap()
    };
    let storage = |un: &Unpacked, root: &str| match &un.vars[root] {
        Value::Array(a) => std::rc::Rc::as_ptr(a),
        other => panic!("`{root}` is not an array: {other}"),
    };

    // Nothing retained: packet 1 lands in packet 0's storage.
    let un = unpack_packet(packets[0]);
    let (a0, b0) = (storage(&un, "a"), storage(&un, "b"));
    drop(un);
    let un = unpack_packet(packets[1]);
    assert_eq!((storage(&un, "a"), storage(&un, "b")), (a0, b0));

    // The filter keeps `a`: packet 2 gets fresh storage for it (and still
    // reuses `b`), and the kept array is left as packet 1 delivered it.
    let kept = un.vars["a"].clone();
    drop(un);
    let Value::Array(kept_arr) = &kept else {
        unreachable!()
    };
    let snapshot = Value::array(kept_arr.borrow().clone());
    let un = unpack_packet(packets[2]);
    let a2 = storage(&un, "a");
    assert_ne!(a2, a0, "retained array was reused");
    assert_eq!(storage(&un, "b"), b0);
    assert!(kept.deep_eq(&snapshot), "retained array was modified");
    drop(un);

    // Once the fresh array is dropped again, reuse resumes from it.
    let un = unpack_packet(packets[3]);
    assert_eq!(storage(&un, "a"), a2);
    assert!(kept.deep_eq(&snapshot), "retained array was modified");
}

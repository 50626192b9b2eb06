//! Ablation A3: instance-wise vs field-wise packing cost (Section 5 /
//! Figure 4) over a packet of object fields.

use cgp_compiler::packing::{pack, unpack, PackEntry, PackLayout, RuntimeEnv, ScalarKind};
use cgp_compiler::place::{Place, Section, SymExpr};
use cgp_lang::{ArrayVal, Value};
use cgp_obs::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;

fn entry(root: &str, field: &str, n: i64, first: usize) -> PackEntry {
    let mut place = Place::sliced(
        root,
        Section::dense(SymExpr::konst(0), SymExpr::konst(n - 1)),
    );
    place.fields.push(field.to_string());
    PackEntry {
        place,
        first_consumer: first,
        elem: ScalarKind::F64,
    }
}

fn vars(n: usize) -> HashMap<String, Value> {
    let mk_obj = |x: f64| {
        let mut f = HashMap::new();
        f.insert("x".to_string(), Value::Double(x));
        f.insert("y".to_string(), Value::Double(-x));
        Value::new_object("T", f)
    };
    let arr = Value::array(ArrayVal::Boxed((0..n).map(|i| mk_obj(i as f64)).collect()));
    let mut v = HashMap::new();
    v.insert("t".to_string(), arr);
    v
}

fn bench_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("packing");
    for &n in &[256usize, 4096] {
        let env = RuntimeEnv::for_packet("pkt", 0, n as i64 - 1);
        let instance = PackLayout {
            instance_wise: vec![entry("t", "x", n as i64, 1), entry("t", "y", n as i64, 1)],
            ..Default::default()
        };
        let field = PackLayout {
            field_wise: vec![entry("t", "x", n as i64, 1), entry("t", "y", n as i64, 2)],
            ..Default::default()
        };
        let v = vars(n);
        for (name, layout) in [("instance_wise", &instance), ("field_wise", &field)] {
            group.bench_with_input(
                BenchmarkId::new(format!("pack_{name}"), n),
                &(layout, &v, &env),
                |b, (layout, v, env)| {
                    b.iter(|| pack(layout, v, env, (0, n as i64 - 1), None).unwrap())
                },
            );
            let buf = pack(layout, &v, &env, (0, n as i64 - 1), None).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("unpack_{name}"), n),
                &(layout, &buf, &env),
                |b, (layout, buf, env)| b.iter(|| unpack(layout, env, buf).unwrap()),
            );
        }
    }
    group.finish();
}

/// A receiving unit's whole input: three absolutely indexed f64 roots
/// (`x[pkt.lo : pkt.hi]`, …) packed instance-wise, 128 packets over 100k
/// points, all unpacked through one environment as the runtime does.
fn bench_packet_sequence(c: &mut Criterion) {
    const POINTS: i64 = 100_000;
    const PACKETS: usize = 128;
    let roots = ["x", "y", "z"];
    let layout = PackLayout {
        instance_wise: roots
            .iter()
            .map(|r| PackEntry {
                place: Place::sliced(
                    *r,
                    Section::dense(SymExpr::sym("pkt.lo"), SymExpr::sym("pkt.hi")),
                ),
                first_consumer: 1,
                elem: ScalarKind::F64,
            })
            .collect(),
        ..Default::default()
    };
    let vars: HashMap<String, Value> = roots
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let vals = (0..POINTS).map(|i| (i * 3 + k as i64) as f64);
            (r.to_string(), Value::array(ArrayVal::F64(vals.collect())))
        })
        .collect();
    let bufs: Vec<Vec<u8>> = cgp_lang::interp::split_domain(0, POINTS - 1, PACKETS)
        .into_iter()
        .map(|pkt| {
            let env = RuntimeEnv::for_packet("pkt", pkt.0, pkt.1);
            pack(&layout, &vars, &env, pkt, None).unwrap()
        })
        .collect();
    let env = RuntimeEnv::new("pkt");
    let mut group = c.benchmark_group("packing");
    group.bench_with_input(
        BenchmarkId::new("unpack_sequence_absolute", PACKETS),
        &(&layout, &bufs, &env),
        |b, (layout, bufs, env)| {
            b.iter(|| {
                for buf in bufs.iter() {
                    std::hint::black_box(unpack(layout, env, buf).unwrap());
                }
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_packing, bench_packet_sequence);
criterion_main!(benches);

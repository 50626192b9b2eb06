//! Differential property suite: the register VM against the tree-walking
//! interpreter on randomly generated typed programs.
//!
//! Every case demands *observational identity* — same print output, same
//! variable map (deep equality), same globals, and on failure the same
//! diagnostic with the same span. Programs come from the seeded generator
//! in `common/`, so failures reproduce from the printed seed.

mod common;

use cgp_lang::bytecode::{vm::Vm, Op, ProgramCode};
use cgp_lang::interp::{HostEnv, Interp};
use cgp_lang::{frontend, Value};
use common::{dense_host, object_host, ProgramGen};
use std::collections::HashMap;

/// Run `main`'s body as a statement slice through both engines, each
/// against its own `host()`, and assert they are observationally
/// identical, Ok or Err — host objects they mutate included.
fn assert_engines_agree(src: &str, host: impl Fn() -> HostEnv, ctx: &str) {
    let tp = match frontend(src) {
        Ok(tp) => tp,
        Err(e) => panic!("{ctx}: generated program failed frontend: {e:?}\n{src}"),
    };
    let (class, method) = tp.program.main().expect("main");
    let (cname, stmts) = (class.name.clone(), method.body.stmts.clone());

    let mut it = Interp::new(&tp, host());
    let mut ivars = HashMap::new();
    let ires = it.exec_stmts_with_vars(&cname, &stmts, &mut ivars);

    let prog = ProgramCode::lower(&tp);
    let slice = prog.lower_slice(&tp, &cname, &stmts);
    let mut vm = Vm::new(&prog, host());
    let mut vvars = HashMap::new();
    let vres = vm.exec_slice(&slice, &mut vvars);

    match (&ires, &vres) {
        (Ok(()), Ok(())) => {}
        (Err(ie), Err(ve)) => {
            assert_eq!(ie, ve, "{ctx}: diagnostics diverged\n{src}");
        }
        _ => panic!(
            "{ctx}: one engine failed, the other succeeded \
             (interp: {ires:?}, vm: {vres:?})\n{src}"
        ),
    }
    assert_eq!(it.output, vm.output, "{ctx}: output diverged\n{src}");
    assert_eq!(
        ivars.len(),
        vvars.len(),
        "{ctx}: vars keys diverged: {:?} vs {:?}\n{src}",
        ivars.keys().collect::<Vec<_>>(),
        vvars.keys().collect::<Vec<_>>()
    );
    for (k, v) in &ivars {
        let w = vvars
            .get(k)
            .unwrap_or_else(|| panic!("{ctx}: vm missing var {k}\n{src}"));
        assert!(v.deep_eq(w), "{ctx}: var {k}: {v} vs {w}\n{src}");
    }
    assert_eq!(
        it.globals.len(),
        vm.globals.len(),
        "{ctx}: globals diverged"
    );
    for (k, v) in &it.globals {
        assert!(
            v.deep_eq(&vm.globals[k]),
            "{ctx}: global {k} diverged\n{src}"
        );
    }
}

#[test]
fn random_programs_agree() {
    let mut errored = 0;
    for seed in 0..120u64 {
        let mut g = ProgramGen::new(0xD1FF_0000 + seed);
        let src = g.program(10);
        let host = HostEnv::new().bind("n", Value::Int((seed as i64 % 13) - 2));
        // Count error-path coverage so a generator drift that stops
        // producing runtime failures gets noticed.
        if frontend(&src)
            .ok()
            .map(|tp| {
                let (c, m) = tp.program.main().unwrap();
                let (cn, st) = (c.name.clone(), m.body.stmts.clone());
                let mut it = Interp::new(&tp, HostEnv::new().bind("n", Value::Int(1)));
                it.exec_stmts_with_vars(&cn, &st, &mut HashMap::new())
                    .is_err()
            })
            .unwrap_or(false)
        {
            errored += 1;
        }
        assert_engines_agree(&src, || host.clone(), &format!("seed {seed}"));
    }
    assert!(
        errored >= 3,
        "generator stopped producing runtime-error cases ({errored}/120) — \
         the diagnostic differential is no longer exercised"
    );
}

#[test]
fn random_typed_programs_agree() {
    // Typed arrays with widening stores, integers at ±2^53 and i64::MIN,
    // `/` and `%` by -1, -0.0 and NaN in compares and min/max, and typed
    // calls: the shapes where unboxed registers could drift from the
    // interpreter's tagged values.
    let mut errored = 0;
    for seed in 0..150u64 {
        let mut g = ProgramGen::new(0x7E_0000 + seed);
        let src = g.typed_program(10);
        let host = HostEnv::new().bind("n", Value::Int((seed as i64 % 9) - 3));
        let tp = frontend(&src).unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{src}"));
        let (c, m) = tp.program.main().unwrap();
        let mut it = Interp::new(&tp, host.clone());
        if it
            .exec_stmts_with_vars(&c.name, &m.body.stmts, &mut HashMap::new())
            .is_err()
        {
            errored += 1;
        }
        assert_engines_agree(&src, || host.clone(), &format!("typed seed {seed}"));
    }
    assert!(
        (5..140).contains(&errored),
        "generator drifted: {errored} of 150 typed programs fail at run time"
    );
}

#[test]
fn random_dense_programs_agree() {
    // Dense host arrays, `this`-field arrays read, written and
    // compound-assigned by bare name inside methods, arrays aliased
    // through a second local and an object field, and int stores and
    // `+=` into `double[]`s: every element op over dense storage, on both
    // engines, host arrays' final contents included.
    let (mut clean, mut errored) = (0, 0);
    for seed in 0..150u64 {
        let mut g = ProgramGen::new(0xDE_0000 + seed);
        let src = g.dense_program(8);
        let n = (seed as i64 % 9) - 3;
        assert_engines_agree(&src, || dense_host(n), &format!("dense seed {seed}"));
        let tp = frontend(&src).unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{src}"));
        let (c, m) = tp.program.main().unwrap();
        let mut it = Interp::new(&tp, dense_host(n));
        match it.exec_stmts_with_vars(&c.name, &m.body.stmts, &mut HashMap::new()) {
            Ok(()) => clean += 1,
            Err(_) => errored += 1,
        }
    }
    assert!(
        clean >= 20 && errored >= 5,
        "generator drifted: {clean} clean runs, {errored} runtime failures of 150"
    );
}

#[test]
fn random_pipelined_programs_agree_across_packet_splits() {
    for seed in 0..40u64 {
        let mut g = ProgramGen::new(0xD1FF_8000 + seed);
        let src = g.pipelined_program(6);
        // Random domain size and random packet count: the lowered
        // PipeBegin/PipeNext pair must reproduce split_domain exactly.
        let n = g.rng.gen_range(0, 100) as i64;
        let np = g.rng.gen_range(1, 40) as i64;
        let host = HostEnv::new()
            .bind("n", Value::Int(n))
            .bind("num_packets", Value::Int(np));
        assert_engines_agree(&src, || host.clone(), &format!("seed {seed} n={n} np={np}"));
    }
}

#[test]
fn random_object_programs_agree() {
    // Objects of one class reach the same ops through different shapes:
    // `new P()` in declaration order, host-built `ps` elements in other
    // orders, one of them without `c`. `P`'s leaf methods are inlined
    // behind guards that a null `pn` misses. The clean runs, the
    // missing-field diagnostics and the null calls' must all match.
    let (mut clean, mut missing, mut null_calls) = (0, 0, 0);
    for seed in 0..150u64 {
        let mut g = ProgramGen::new(0x0B1E_0000 + seed);
        let src = g.object_program(8);
        let n = (seed as i64 % 7) - 1;
        assert_engines_agree(&src, || object_host(n), &format!("seed {seed}"));
        let tp = frontend(&src).expect("frontend");
        let (c, m) = tp.program.main().expect("main");
        let mut it = Interp::new(&tp, object_host(n));
        match it.exec_stmts_with_vars(&c.name, &m.body.stmts, &mut HashMap::new()) {
            Ok(()) => clean += 1,
            Err(e) if e.message.starts_with("no field") => missing += 1,
            Err(e) if e.message.ends_with("on value `null`") => null_calls += 1,
            Err(_) => {}
        }
    }
    assert!(
        clean >= 20 && missing >= 5 && null_calls >= 3,
        "generator drifted: {clean} clean runs, {missing} missing-field and \
         {null_calls} null-receiver diagnostics of 150"
    );
    // Which of `P`'s methods a call inlines: every leaf, and neither the
    // recursive `depth` nor `big`, whose body is over the budget.
    let tp = frontend(&ProgramGen::new(0).object_program(0)).expect("frontend");
    let prog = ProgramCode::lower(&tp);
    let pass = prog.method_id("P", "pass").expect("pass");
    let inlined: Vec<&str> = prog.methods[pass as usize]
        .code
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Guard { mi, .. } => Some(prog.methods[*mi as usize].name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(inlined, ["weigh", "geta"]);
    let leaf = |m: &str| {
        let src = format!("class B {{ void main() {{ P p = new P(); p.{m}; }} }}");
        let tp =
            frontend(&format!("{}{src}", ProgramGen::new(0).object_program(0))).expect("frontend");
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(
            &tp,
            "B",
            &tp.program.method("B", "main").unwrap().body.stmts,
        );
        let name = &m[..m.find('(').unwrap()];
        let id = prog.method_id("P", name).expect("a P method");
        slice
            .ops
            .iter()
            .any(|op| matches!(op, Op::Guard { mi, .. } if *mi == id))
    };
    for (call, inlines) in [
        ("first(1)", true),
        ("pos()", true),
        ("me()", true),
        ("pair()", true),
        ("take(1, 1.0, true, p, p.pair())", true),
        ("weigh(p, 1.0)", true),
        ("mix(1.0)", true),
        ("bump(1)", true),
        ("pass(1.0)", false),
        ("depth(2)", false),
        ("big(1.0)", false),
    ] {
        assert_eq!(leaf(call), inlines, "{call}");
    }
}

#[test]
fn packet_count_never_changes_vm_output() {
    // Random reduction programs that run cleanly must give the same
    // VM answer under every packetization, matching the interpreter at
    // each. Erroring programs are skipped (the diagnostic differential
    // is covered above); demand at least one clean program.
    let mut clean = 0;
    for seed in 0..20u64 {
        let mut g = ProgramGen::new(0xD1FF_4000 + seed);
        let src = g.pipelined_program(5);
        let run_vm = |np: i64| -> Result<Vec<String>, ()> {
            let tp = frontend(&src).expect("frontend");
            let (class, method) = tp.program.main().expect("main");
            let (cname, stmts) = (class.name.clone(), method.body.stmts.clone());
            let host = HostEnv::new()
                .bind("n", Value::Int(57))
                .bind("num_packets", Value::Int(np));
            assert_engines_agree(&src, || host.clone(), &format!("seed {seed} np={np}"));
            let prog = ProgramCode::lower(&tp);
            let slice = prog.lower_slice(&tp, &cname, &stmts);
            let mut vm = Vm::new(&prog, host);
            vm.exec_slice(&slice, &mut HashMap::new()).map_err(|_| ())?;
            Ok(vm.output)
        };
        let Ok(reference) = run_vm(1) else { continue };
        clean += 1;
        for np in [2i64, 3, 7, 16, 97] {
            assert_eq!(
                run_vm(np).expect("np changes whether the program errors"),
                reference,
                "seed {seed}: np={np} changed the result"
            );
        }
    }
    assert!(
        clean >= 1,
        "no cleanly-running pipelined program in 20 seeds"
    );
}

#[test]
fn call_method_agrees_with_interpreter() {
    // A reduction-style merge entry (the runtime's `reduce` call), a
    // value-returning method with int→double coercions on both sides of
    // the boundary, and the two call diagnostics: an unknown method and
    // an arity mismatch.
    let src = r#"
        class Acc implements Reducinterface {
            double total;
            int merges;
            void reduce(Acc other) { total = total + other.total; merges = merges + 1; }
            double scaled(double f) { return total * f + merges; }
            int whole() { return 2; }
        }
        class A { void main() { } }
    "#;
    let tp = frontend(src).expect("frontend");
    let prog = ProgramCode::lower(&tp);
    let acc = |total: f64| {
        let mut fields = HashMap::new();
        fields.insert("total".to_string(), Value::Double(total));
        fields.insert("merges".to_string(), Value::Int(0));
        Value::new_object("Acc", fields)
    };
    let obj = |v: &Value| match v {
        Value::Object(o) => o.clone(),
        other => panic!("not an object: {other}"),
    };
    let cases: Vec<(&str, Vec<Value>)> = vec![
        ("reduce", vec![acc(2.5)]),
        ("scaled", vec![Value::Int(3)]),
        ("whole", vec![]),
        ("missing", vec![]),
        ("scaled", vec![]),
    ];
    for (method, args) in cases {
        let (it_this, vm_this) = (acc(1.0), acc(1.0));
        let mut it = Interp::new(&tp, HostEnv::new());
        let ires = it.call_method("Acc", method, Some(obj(&it_this)), args.clone());
        let mut vm = Vm::new(&prog, HostEnv::new());
        let vres = vm.call_method("Acc", method, Some(obj(&vm_this)), args);
        match (&ires, &vres) {
            (Ok(a), Ok(b)) => assert!(a.deep_eq(b), "{method}: returned {a} vs {b}"),
            (Err(ie), Err(ve)) => assert_eq!(ie, ve, "{method}: diagnostics diverged"),
            _ => panic!("{method}: engines disagree: interp {ires:?}, vm {vres:?}"),
        }
        assert!(
            it_this.deep_eq(&vm_this),
            "{method}: receiver state diverged: {it_this} vs {vm_this}"
        );
    }
    let mut vm = Vm::new(&prog, HostEnv::new());
    let err = vm
        .call_method("Nope", "reduce", None, vec![])
        .expect_err("unknown class");
    assert!(
        err.to_string().contains("unknown method `Nope::reduce`"),
        "{err}"
    );
}

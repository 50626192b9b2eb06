//! Threaded (DataCutter-backed) executions of compiled plans must
//! reproduce the sequential interpreter for every pipeline width — the
//! transparent-copy reduction merge included.

use cgp_core::apps::dialect::*;
use cgp_core::apps::isosurface::ScalarGrid;
use cgp_core::apps::knn::generate_points;
use cgp_core::apps::vmscope::Slide;
use cgp_core::datacutter::FaultPlan;
use cgp_core::lang::{frontend, interp::Interp, HostEnv};
use cgp_core::{
    compile, run_plan_sequential, run_plan_threaded_stats, CompileOptions, Decomposition,
    ExecOptions, FilterEngine, HostBuilder, Objective, PipelineEnv,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn oracle(src: &str, host: &HostEnv) -> Vec<String> {
    let tp = frontend(src).unwrap();
    let mut it = Interp::new(&tp, host.clone());
    it.run_main().unwrap();
    it.output
}

/// Every monotone assignment of `n` tasks to `m` units with the first
/// task (the data source) on unit 0.
fn monotone_plans(n: usize, m: usize) -> Vec<Vec<usize>> {
    let mut plans = vec![vec![0]];
    for _ in 1..n {
        plans = plans
            .into_iter()
            .flat_map(|p| {
                let last = *p.last().expect("non-empty");
                (last..m).map(move |u| {
                    let mut q = p.clone();
                    q.push(u);
                    q
                })
            })
            .collect();
    }
    plans
}

/// The in-process sweep beside the conformance matrix
/// (`crates/bench/tests/conformance.rs`): every app under every
/// monotone 3-unit decomposition, run sequentially and threaded at widths
/// [1,1,1] and [2,2,1], must print exactly what `Interp::run_main` prints.
/// Each app's compiler-chosen plan also runs at the wider [4,4,1] and
/// [1,4,1]. Every mismatch is collected, so a failure lists each row.
#[test]
fn every_decomposition_matches_the_oracle() {
    let mut failures = Vec::new();
    let mut runs = 0;
    let mut plan_counts = Vec::new();
    for app in demo_apps() {
        let expect = app.oracle();
        let chosen = compile(app.src, &app.opts).unwrap();
        let plans = monotone_plans(chosen.problem.n_tasks(), 3);
        plan_counts.push(plans.len());
        let mut rows: Vec<(Vec<usize>, Option<[usize; 3]>)> = Vec::new();
        for unit_of in plans {
            rows.push((unit_of.clone(), None));
            rows.push((unit_of.clone(), Some([1, 1, 1])));
            rows.push((unit_of, Some([2, 2, 1])));
        }
        for widths in [[4, 4, 1], [1, 4, 1]] {
            rows.push((chosen.plan.decomposition.unit_of.clone(), Some(widths)));
        }
        for (unit_of, widths) in rows {
            let forced = Decomposition {
                unit_of: unit_of.clone(),
                cost: f64::NAN,
            };
            let plan = compile(app.src, &app.opts.clone().with_decomposition(forced))
                .unwrap()
                .plan;
            let out = match widths {
                None => run_plan_sequential(&plan, &(app.host)()).map_err(|e| e.to_string()),
                Some(w) => run_plan_threaded_stats(
                    Arc::new(plan),
                    Arc::clone(&app.host),
                    Some(&w),
                    &ExecOptions::default(),
                )
                .map(|(out, _)| out)
                .map_err(|e| e.to_string()),
            };
            runs += 1;
            let run = match widths {
                None => "sequential".to_string(),
                Some(w) => format!("threaded {w:?}"),
            };
            match out {
                Ok(out) if out == expect => {}
                Ok(out) => failures.push(format!(
                    "{} unit_of={unit_of:?} {run}: {out:?} != {expect:?}",
                    app.name
                )),
                Err(e) => failures.push(format!("{} unit_of={unit_of:?} {run}: {e}", app.name)),
            }
        }
    }
    assert_eq!(plan_counts, [15, 15, 10, 6], "plans per app");
    assert!(
        failures.is_empty(),
        "{} of {runs} runs differ from the oracle:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A `fail` or `panic` injected at packet 1 of `f2[0]` or `f3[0]`, on
/// each app's demo pick and on a plan whose last two units run atoms, at
/// widths [1,1,1] and [2,2,1]. With recovery on, the copy restarts once
/// and the output is the oracle's; with recovery off, the run fails with
/// an error naming the faulted copy and the fault. Every mismatch is
/// collected, so a failure lists each cell.
/// `compile` checks a forced placement before it reports on or builds
/// it: each shape the DP can never pick fails with the rule it breaks
/// and the `unit_of`, instead of panicking in the report or compiling a
/// plan that prints a wrong answer (`[0,2,1,2]` printed `0`).
#[test]
fn forced_decompositions_the_dp_cannot_pick_are_rejected_by_rule() {
    let knn = &demo_apps()[2];
    assert_eq!(compile(knn.src, &knn.opts).unwrap().problem.n_tasks(), 4);
    let cases: [(&[usize], &str); 5] = [
        (&[0, 1, 1, 1, 1], "has 5 entries for 4 tasks"),
        (&[0, 1, 1], "has 3 entries for 4 tasks"),
        (&[0, 1, 2, 3], "names unit 3 of a 3-unit pipeline"),
        (&[1, 1, 1, 1], "puts task 0, the virtual source, off unit 0"),
        (&[0, 2, 1, 2], "moves task 2 back to unit 1 after unit 2"),
    ];
    for (unit_of, rule) in cases {
        let forced = Decomposition {
            unit_of: unit_of.to_vec(),
            cost: f64::NAN,
        };
        let err = compile(knn.src, &knn.opts.clone().with_decomposition(forced))
            .err()
            .unwrap_or_else(|| panic!("{unit_of:?} compiled"))
            .to_string();
        assert!(
            err.contains(rule) && err.contains(&format!("{unit_of:?}")),
            "{unit_of:?}: {err}"
        );
    }
}

#[test]
fn injected_faults_restart_to_the_oracle_or_fail_by_name() {
    let mut failures = Vec::new();
    let mut cells = 0;
    for app in demo_apps() {
        let expect = app.oracle();
        let cut: &[usize] = match app.name {
            "zbuf" | "apix" => &[0, 0, 0, 1, 2],
            "knn" => &[0, 0, 1, 2],
            _ => &[0, 1, 2],
        };
        let forced = app.opts.clone().with_decomposition(Decomposition {
            unit_of: cut.to_vec(),
            cost: f64::NAN,
        });
        let plans = [
            compile(app.src, &app.opts).unwrap().plan,
            compile(app.src, &forced).unwrap().plan,
        ];
        for plan in plans {
            let plan = Arc::new(plan);
            let unit_of = &plan.decomposition.unit_of;
            for widths in [[1, 1, 1], [2, 2, 1]] {
                for (action, fault) in [
                    ("fail", "injected failure at packet 1"),
                    ("panic", "injected panic"),
                ] {
                    for site in ["f2[0]", "f3[0]"] {
                        for recover in [true, false] {
                            let exec = ExecOptions {
                                faults: FaultPlan::parse(&format!("{site}@1:{action}")).unwrap(),
                                recover,
                                ..Default::default()
                            };
                            let run = run_plan_threaded_stats(
                                Arc::clone(&plan),
                                Arc::clone(&app.host),
                                Some(&widths),
                                &exec,
                            );
                            cells += 1;
                            let cell = format!(
                                "{} unit_of={unit_of:?} {widths:?} {site}@1:{action} recover={recover}",
                                app.name
                            );
                            match (recover, run) {
                                (true, Ok((out, stats))) => {
                                    if out != expect {
                                        failures.push(format!("{cell}: {out:?} != {expect:?}"));
                                    } else if stats.recoveries() != 1 {
                                        failures.push(format!(
                                            "{cell}: {} restarts, want 1",
                                            stats.recoveries()
                                        ));
                                    }
                                }
                                (true, Err(e)) => failures.push(format!("{cell}: {e}")),
                                (false, Ok((out, _))) => {
                                    failures.push(format!("{cell}: Ok {out:?}, want an error"))
                                }
                                (false, Err(e)) => {
                                    let msg = e.to_string();
                                    if !msg.contains(&format!("`{site}`")) || !msg.contains(fault) {
                                        failures.push(format!(
                                            "{cell}: `{msg}` does not name {site} and `{fault}`"
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cells, 128);
    assert!(
        failures.is_empty(),
        "{} of {cells} cells failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn zbuf_threaded_all_widths() {
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e7, 1e-5), 96)
        .with_symbol("ncubes", 512)
        .with_symbol("screen", 16);
    let c = compile(ZBUF_SRC, &opts).unwrap();
    let host = || iso_host_env(&ScalarGrid::synthetic(9, 9, 9, 13), 0.7, 16, 8);
    let expect = oracle(ZBUF_SRC, &host());
    for widths in [[1usize, 1, 1], [2, 2, 1], [4, 4, 1], [1, 4, 1]] {
        let out = run_plan_threaded_stats(
            Arc::new(c.plan.clone()),
            Arc::new(host),
            Some(&widths),
            &ExecOptions::default(),
        )
        .unwrap()
        .0;
        assert_eq!(out, expect, "widths {widths:?}");
    }
}

#[test]
fn knn_threaded_all_widths() {
    let pts = generate_points(600, 21);
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 100)
        .with_symbol("npoints", 600)
        .with_symbol("k", 9);
    let c = compile(KNN_SRC, &opts).unwrap();
    let host = move || knn_host_env(&generate_points(600, 21), [0.4, 0.1, 0.9], 9, 6);
    let expect = oracle(KNN_SRC, &knn_host_env(&pts, [0.4, 0.1, 0.9], 9, 6));
    for widths in [[1usize, 1, 1], [2, 2, 1], [4, 4, 1]] {
        let out = run_plan_threaded_stats(
            Arc::new(c.plan.clone()),
            Arc::new(host),
            Some(&widths),
            &ExecOptions::default(),
        )
        .unwrap()
        .0;
        assert_eq!(out, expect, "widths {widths:?}");
    }
}

#[test]
fn vmscope_threaded_all_widths() {
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 10)
        .with_symbol("height", 40)
        .with_symbol("width", 40)
        .with_symbol("subsample", 2);
    let c = compile(VMSCOPE_SRC, &opts).unwrap();
    let host = || vmscope_host_env(&Slide::synthetic(40, 40, 5), 2, 4);
    let expect = oracle(VMSCOPE_SRC, &host());
    for widths in [[1usize, 1, 1], [2, 2, 1], [4, 4, 1]] {
        let out = run_plan_threaded_stats(
            Arc::new(c.plan.clone()),
            Arc::new(host),
            Some(&widths),
            &ExecOptions::default(),
        )
        .unwrap()
        .0;
        assert_eq!(out, expect, "widths {widths:?}");
    }
}

#[test]
fn threaded_runs_are_repeatable() {
    // Transparent copies introduce scheduling nondeterminism; results must
    // not depend on it (associative/commutative reductions).
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e7, 1e-5), 96)
        .with_symbol("ncubes", 343)
        .with_symbol("screen", 12);
    let c = compile(ZBUF_SRC, &opts).unwrap();
    let host = || iso_host_env(&ScalarGrid::synthetic(8, 8, 8, 2), 0.65, 12, 7);
    let plan = Arc::new(c.plan);
    let mut outputs = Vec::new();
    for _ in 0..5 {
        outputs.push(
            run_plan_threaded_stats(
                Arc::clone(&plan),
                Arc::new(host),
                Some(&[2, 3, 1]),
                &ExecOptions::default(),
            )
            .unwrap()
            .0,
        );
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}

#[test]
fn wider_interior_stage_only() {
    // Width on the middle stage alone must also preserve results (buffers
    // race to different copies; merge at finalize reorders).
    let pts = generate_points(300, 8);
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 50)
        .with_symbol("npoints", 300)
        .with_symbol("k", 4);
    let c = compile(KNN_SRC, &opts).unwrap();
    let host = move || knn_host_env(&generate_points(300, 8), [0.6, 0.6, 0.1], 4, 6);
    let expect = oracle(KNN_SRC, &knn_host_env(&pts, [0.6, 0.6, 0.1], 4, 6));
    for w2 in [1usize, 2, 4] {
        let out = run_plan_threaded_stats(
            Arc::new(c.plan.clone()),
            Arc::new(host),
            Some(&[1, w2, 1]),
            &ExecOptions::default(),
        )
        .unwrap()
        .0;
        assert_eq!(out, expect, "interior width {w2}");
    }
}

#[test]
fn copied_view_stage_is_rejected() {
    let opts = CompileOptions::new(PipelineEnv::uniform(2, 1e8, 1e6, 1e-5), 50)
        .with_symbol("npoints", 300)
        .with_symbol("k", 4);
    let c = compile(KNN_SRC, &opts).unwrap();
    let host = || knn_host_env(&generate_points(300, 8), [0.6, 0.6, 0.1], 4, 6);
    let err = run_plan_threaded_stats(
        Arc::new(c.plan),
        Arc::new(host),
        Some(&[1, 2]),
        &ExecOptions::default(),
    );
    assert!(err.is_err(), "view stage width > 1 must be rejected");
}

/// `app`'s options with the steady-state DP in the same-host env, the
/// objective and env `perfbench`'s decomposed workloads plan with.
fn dp_opts(app: &DemoApp) -> CompileOptions {
    let mut opts = app.opts.clone();
    opts.pipeline = PipelineEnv::same_host(3, FilterEngine::Vm.power());
    opts.with_objective(Objective::SteadyState { n_packets: 4 })
}

/// `app` compiled under `unit_of`: the DP's own pick when `dp` (which
/// must be `unit_of`), else forced.
fn plan_of(app: &DemoApp, unit_of: &[usize], dp: bool) -> cgp_core::FilterPlan {
    let opts = dp_opts(app);
    let opts = if dp {
        opts
    } else {
        opts.with_decomposition(Decomposition {
            unit_of: unit_of.to_vec(),
            cost: f64::NAN,
        })
    };
    let plan = compile(app.src, &opts).unwrap().plan;
    assert_eq!(plan.decomposition.unit_of, unit_of, "{}", app.name);
    plan
}

/// Per unit: the reduction roots it holds, its prologue slice and
/// whether its copies build the host environment.
type Unit = (&'static [&'static str], &'static [&'static str], bool);

#[test]
fn each_unit_holds_starts_and_builds_only_what_its_code_reads() {
    const ZB: [&str; 3] = [
        "RectDomain<1> all = [0 : (ncubes - 1)];",
        "ZBuf zb = new ZBuf();",
        "zb.setup(screen);",
    ];
    const AP: [&str; 3] = [
        "RectDomain<1> all = [0 : (ncubes - 1)];",
        "ActivePixels ap = new ActivePixels();",
        "ap.setup(4096);",
    ];
    const KN: [&str; 3] = [
        "RectDomain<1> pts = [0 : (npoints - 1)];",
        "KNearest best = new KNearest();",
        "best.setup(k);",
    ];
    const VM: [&str; 3] = [
        "RectDomain<1> rows = [0 : (height - 1)];",
        "OutImage img = new OutImage();",
        "img.setup((width / subsample), (height / subsample));",
    ];
    const NONE: Unit = (&[], &[], false);
    // (app, unit_of, the DP's pick?, units)
    let table: [(&str, &[usize], bool, [Unit; 3]); 7] = [
        (
            "zbuf",
            &[0, 0, 0, 1, 1],
            true,
            [(&[], &ZB[..1], true), (&["zb"], &ZB[1..], true), NONE],
        ),
        ("zbuf", &[0; 5], false, [(&["zb"], &ZB, true), NONE, NONE]),
        (
            "apix",
            &[0, 0, 0, 1, 1],
            true,
            [
                (&[], &AP[..1], true),
                (&["ap"], &AP[1..], true),
                (&[], &[], true),
            ],
        ),
        (
            "apix",
            &[0; 5],
            false,
            [(&["ap"], &AP, true), NONE, (&[], &[], true)],
        ),
        (
            "knn",
            &[0, 0, 0, 1],
            true,
            [(&[], &KN[..1], true), (&["best"], &KN[1..], true), NONE],
        ),
        ("knn", &[0; 4], false, [(&["best"], &KN, true), NONE, NONE]),
        (
            "vmscope",
            &[0; 3],
            true,
            [(&["img"], &VM, true), NONE, NONE],
        ),
    ];
    let apps = demo_apps();
    for (name, unit_of, dp, units) in table {
        let app = apps.iter().find(|a| a.name == name).expect("a demo app");
        let plan = plan_of(app, unit_of, dp);
        let got: Vec<(Vec<&str>, Vec<String>, bool)> = plan
            .filters
            .iter()
            .map(|f| {
                let slice = f.prologue.iter().map(|&i| {
                    cgp_lang::pretty::stmts_to_string(&plan.np.prologue[i..=i])
                        .trim()
                        .to_string()
                });
                let holds = f.holds.iter().map(String::as_str).collect();
                (holds, slice.collect(), f.needs_host)
            })
            .collect();
        let want: Vec<(Vec<&str>, Vec<String>, bool)> = units
            .iter()
            .map(|(holds, slice, host)| {
                let slice = slice.iter().map(|s| s.to_string()).collect();
                (holds.to_vec(), slice, *host)
            })
            .collect();
        assert_eq!(got, want, "{name} {unit_of:?}\n{}", plan.describe());
    }
}

#[test]
fn only_units_that_read_an_extern_build_the_host_env() {
    for app in demo_apps() {
        let (dp, all_c0) = match app.name {
            "zbuf" => (vec![0, 0, 0, 1, 1], vec![0; 5]),
            "knn" => (vec![0, 0, 0, 1], vec![0; 4]),
            _ => continue,
        };
        let expect = app.oracle();
        for (unit_of, is_dp, builds) in [(dp, true, 2), (all_c0, false, 1)] {
            let plan = plan_of(&app, &unit_of, is_dp);
            let count = Arc::new(AtomicUsize::new(0));
            let counting: HostBuilder = {
                let (count, inner) = (Arc::clone(&count), Arc::clone(&app.host));
                Arc::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                    inner()
                })
            };
            let (out, _) =
                run_plan_threaded_stats(Arc::new(plan), counting, None, &ExecOptions::default())
                    .unwrap();
            assert_eq!(out, expect, "{} {unit_of:?}", app.name);
            assert_eq!(
                count.load(Ordering::SeqCst),
                builds,
                "{} {unit_of:?}: host builds",
                app.name
            );
        }
    }
}

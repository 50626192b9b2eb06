//! Shared test utilities: a seeded random *typed-program* generator.
//!
//! The generator emits source text from a type-directed grammar, so every
//! program passes the checker by construction while still exercising the
//! runtime's interesting territory: integer division/remainder by zero,
//! empty `foreach` domains, unbound externs, `break`/`continue`, method
//! calls and reduction objects, int→double widening, objects whose
//! fields live in different slot orders (host-built vs `new`), and (in
//! [`ProgramGen::typed_program`]) `double[]`/`int[]` locals, integers
//! near ±2^53 and `i64::MIN`, division by `-1`, `-0.0` and NaN, and
//! methods whose `double` parameters and results meet ints, and (in
//! [`ProgramGen::dense_program`]) dense host arrays, arrays in fields of
//! `this` and arrays reached through aliases. Failures reproduce
//! deterministically from the seed.

use cgp_lang::value::{ObjectVal, Shape};
use cgp_lang::{ArrayVal, HostEnv, Value};
use cgp_obs::SmallRng;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

#[derive(Clone, Copy, PartialEq)]
pub enum Ty {
    Int,
    Double,
    Bool,
}

pub struct ProgramGen {
    pub rng: SmallRng,
    /// Locals in scope: name, type.
    scope: Vec<(String, Ty)>,
    /// Fresh-name counter.
    next: usize,
    /// Nesting depth of generated loops (gates `break`/`continue`).
    loop_depth: usize,
    /// Whether an `acc` reduction object is in scope (pipelined bodies).
    pub with_acc: bool,
    /// `P`-typed locals in scope ([`ProgramGen::object_program`]).
    objects: Vec<String>,
    /// Typed-array locals, edge values and typed calls in scope
    /// ([`ProgramGen::typed_program`]).
    typed: bool,
    /// The `double[]` and `int[]` expressions typed statements index.
    darrays: Vec<&'static str>,
    iarrays: Vec<&'static str>,
    /// Whether `main`'s `Buf b` is in scope ([`ProgramGen::dense_program`]).
    with_buf: bool,
}

impl ProgramGen {
    pub fn new(seed: u64) -> Self {
        ProgramGen {
            rng: SmallRng::seed_from_u64(seed),
            scope: Vec::new(),
            next: 0,
            loop_depth: 0,
            with_acc: false,
            objects: Vec::new(),
            typed: false,
            darrays: vec!["da"],
            iarrays: vec!["ia"],
            with_buf: false,
        }
    }

    /// One of the `double[]` (or `int[]`) expressions in scope, drawing
    /// only when there is a choice.
    fn array(&mut self, doubles: bool) -> &'static str {
        let names = if doubles {
            &self.darrays
        } else {
            &self.iarrays
        };
        if names.len() == 1 {
            return names[0];
        }
        names[self.rng.gen_range(0, names.len())]
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("{prefix}{}", self.next)
    }

    fn var_of(&mut self, ty: Ty) -> Option<String> {
        let names: Vec<&String> = self
            .scope
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(n, _)| n)
            .collect();
        if names.is_empty() {
            None
        } else {
            Some(names[self.rng.gen_range(0, names.len())].clone())
        }
    }

    /// Assignment targets: declared locals only (`v*`). Loop counters and
    /// `while` guards are read-only so every generated loop terminates.
    fn assignable_of(&mut self, ty: Ty) -> Option<String> {
        let names: Vec<&String> = self
            .scope
            .iter()
            .filter(|(n, t)| *t == ty && n.starts_with('v'))
            .map(|(n, _)| n)
            .collect();
        if names.is_empty() {
            None
        } else {
            Some(names[self.rng.gen_range(0, names.len())].clone())
        }
    }

    /// A well-typed int expression. Division and remainder are generated
    /// on purpose: a zero denominator is a *runtime* diagnostic both
    /// engines must raise identically.
    pub fn int_expr(&mut self, depth: usize) -> String {
        if self.typed && self.rng.gen_bool(0.25) {
            return match self.rng.gen_range(0, 7) {
                // One double apart at 2^53: compares go through f64.
                0 => [
                    "9007199254740992",
                    "9007199254740993",
                    "(0 - 9007199254740993)",
                ][self.rng.gen_range(0, 3)]
                .to_string(),
                1 => "(0 - 9223372036854775807 - 1)".to_string(),
                2 => format!("({} / (0 - 1))", self.int_expr(depth.saturating_sub(1))),
                3 => format!("({} % (0 - 1))", self.int_expr(depth.saturating_sub(1))),
                4 => {
                    let a = self.array(false);
                    format!("{a}[{}]", self.index())
                }
                5 => format!(
                    "pick({}, {})",
                    self.int_expr(depth.saturating_sub(1)),
                    self.int_expr(0)
                ),
                _ => format!("toInt({})", self.double_expr(0)),
            };
        }
        if !self.objects.is_empty() && self.rng.gen_bool(0.15) {
            let o = self.object();
            return match self.rng.gen_range(0, 3) {
                0 => format!("{o}.a"),
                1 => format!("{o}.c"),
                _ => format!("{o}.geta()"),
            };
        }
        if depth == 0 || self.rng.gen_bool(0.35) {
            return match self.rng.gen_range(0, 3) {
                0 => format!("{}", self.rng.gen_range(0, 30)),
                1 => self
                    .var_of(Ty::Int)
                    .unwrap_or_else(|| format!("{}", self.rng.gen_range(0, 30))),
                _ => "n".to_string(),
            };
        }
        match self.rng.gen_range(0, 8) {
            0 => format!(
                "({} + {})",
                self.int_expr(depth - 1),
                self.int_expr(depth - 1)
            ),
            1 => format!(
                "({} - {})",
                self.int_expr(depth - 1),
                self.int_expr(depth - 1)
            ),
            2 => format!(
                "({} * {})",
                self.int_expr(depth - 1),
                self.int_expr(depth - 1)
            ),
            3 => format!(
                "({} / {})",
                self.int_expr(depth - 1),
                self.int_expr(depth - 1)
            ),
            4 => format!(
                "({} % {})",
                self.int_expr(depth - 1),
                self.int_expr(depth - 1)
            ),
            5 => format!("toInt({})", self.double_expr(depth - 1)),
            6 => format!(
                "min({}, {})",
                self.int_expr(depth - 1),
                self.int_expr(depth - 1)
            ),
            _ => format!("abs({})", self.int_expr(depth - 1)),
        }
    }

    pub fn double_expr(&mut self, depth: usize) -> String {
        if self.typed && self.rng.gen_bool(0.25) {
            return match self.rng.gen_range(0, 7) {
                0 => "-0.0".to_string(),
                1 => "(0.0 / 0.0)".to_string(),
                2 => {
                    let a = self.array(true);
                    format!("{a}[{}]", self.index())
                }
                // Double parameters called with ints, double results
                // returned from ints.
                3 => format!("half({})", self.int_expr(depth.saturating_sub(1))),
                4 => format!("whole({})", self.int_expr(depth.saturating_sub(1))),
                5 => format!("min({}, -0.0)", self.double_expr(depth.saturating_sub(1))),
                _ => format!(
                    "max((0.0 / 0.0), {})",
                    self.double_expr(depth.saturating_sub(1))
                ),
            };
        }
        if !self.objects.is_empty() && self.rng.gen_bool(0.15) {
            let o = self.object();
            return match self.rng.gen_range(0, 3) {
                0 => format!("{o}.b"),
                1 => format!("{o}.d"),
                _ => format!("{o}.mix({})", self.double_expr(0)),
            };
        }
        if depth == 0 || self.rng.gen_bool(0.35) {
            return match self.rng.gen_range(0, 3) {
                0 => format!("{}.{}", self.rng.gen_range(0, 9), self.rng.gen_range(0, 10)),
                1 => self.var_of(Ty::Double).unwrap_or_else(|| "0.5".to_string()),
                _ => format!("toDouble({})", self.int_expr(0)),
            };
        }
        match self.rng.gen_range(0, 6) {
            0 => format!(
                "({} + {})",
                self.double_expr(depth - 1),
                self.double_expr(depth - 1)
            ),
            1 => format!(
                "({} - {})",
                self.double_expr(depth - 1),
                self.double_expr(depth - 1)
            ),
            2 => format!(
                "({} * {})",
                self.double_expr(depth - 1),
                self.double_expr(depth - 1)
            ),
            // Mixed int/double arithmetic exercises widening.
            3 => format!(
                "({} + {})",
                self.int_expr(depth - 1),
                self.double_expr(depth - 1)
            ),
            4 => format!("sqrt(abs({}))", self.double_expr(depth - 1)),
            _ => format!(
                "max({}, {})",
                self.double_expr(depth - 1),
                self.double_expr(depth - 1)
            ),
        }
    }

    pub fn bool_expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.gen_bool(0.3) {
            return match self.rng.gen_range(0, 3) {
                0 => "true".to_string(),
                1 => "false".to_string(),
                _ => self.var_of(Ty::Bool).unwrap_or_else(|| "true".to_string()),
            };
        }
        match self.rng.gen_range(0, 5) {
            0 => {
                let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0, 6)];
                format!(
                    "({} {op} {})",
                    self.int_expr(depth - 1),
                    self.int_expr(depth - 1)
                )
            }
            1 => {
                let op = ["<", ">", "=="][self.rng.gen_range(0, 3)];
                format!(
                    "({} {op} {})",
                    self.double_expr(depth - 1),
                    self.double_expr(depth - 1)
                )
            }
            2 => format!(
                "({} && {})",
                self.bool_expr(depth - 1),
                self.bool_expr(depth - 1)
            ),
            3 => format!(
                "({} || {})",
                self.bool_expr(depth - 1),
                self.bool_expr(depth - 1)
            ),
            _ => format!("!{}", self.bool_expr(depth - 1)),
        }
    }

    fn expr_of(&mut self, ty: Ty, depth: usize) -> String {
        match ty {
            Ty::Int => self.int_expr(depth),
            Ty::Double => self.double_expr(depth),
            Ty::Bool => self.bool_expr(depth),
        }
    }

    /// Emit `budget` random statements into `out`. Loops are bounded by
    /// construction so every generated program terminates.
    pub fn stmts(&mut self, out: &mut String, budget: usize) {
        let base = self.scope.len();
        for _ in 0..budget {
            self.stmt(out, budget / 2);
        }
        self.scope.truncate(base);
    }

    /// An index into the typed-array locals: usually in range, sometimes
    /// not (the bounds diagnostic must match too).
    fn index(&mut self) -> String {
        // In a `Buf` method, the in-range parameter `k` indexes the
        // fields by bare name, which the VM reads through `this`.
        if self.scope.iter().any(|(n, _)| n == "k") && self.rng.gen_bool(0.4) {
            return "k".to_string();
        }
        if self.rng.gen_bool(0.9) {
            format!("(abs({}) % 4)", self.int_expr(0))
        } else {
            self.int_expr(1)
        }
    }

    fn stmt(&mut self, out: &mut String, inner_budget: usize) {
        if self.with_buf && self.rng.gen_bool(0.15) {
            let k = self.index();
            let _ = if self.rng.gen_bool(0.5) {
                let (x, m) = (self.double_expr(1), self.int_expr(1));
                writeln!(out, "b.put({k}, {x}, {m});")
            } else {
                writeln!(out, "print(b.get({k}, 0.5, 1));")
            };
            return;
        }
        if self.typed && self.rng.gen_bool(0.2) {
            let i = self.index();
            let op = ["=", "+=", "-="][self.rng.gen_range(0, 3)];
            let _ = if self.rng.gen_bool(0.5) {
                // Int right-hand sides widen into the double array.
                let rhs = if self.rng.gen_bool(0.5) {
                    self.int_expr(2)
                } else {
                    self.double_expr(2)
                };
                let a = self.array(true);
                writeln!(out, "{a}[{i}] {op} {rhs};")
            } else {
                let rhs = self.int_expr(2);
                let a = self.array(false);
                writeln!(out, "{a}[{i}] {op} {rhs};")
            };
            return;
        }
        match self.rng.gen_range(0, 10) {
            0 | 1 => {
                let ty = [Ty::Int, Ty::Double, Ty::Bool][self.rng.gen_range(0, 3)];
                let name = self.fresh("v");
                let kw = match ty {
                    Ty::Int => "int",
                    Ty::Double => "double",
                    Ty::Bool => "boolean",
                };
                let init = self.expr_of(ty, 2);
                let _ = writeln!(out, "{kw} {name} = {init};");
                self.scope.push((name, ty));
            }
            2 | 3 => {
                let ty = [Ty::Int, Ty::Double][self.rng.gen_range(0, 2)];
                if let Some(name) = self.assignable_of(ty) {
                    let op = ["=", "+=", "-="][self.rng.gen_range(0, 3)];
                    let rhs = self.expr_of(ty, 2);
                    let _ = writeln!(out, "{name} {op} {rhs};");
                } else {
                    let v = self.int_expr(2);
                    let _ = writeln!(out, "print({v});");
                }
            }
            4 => {
                let c = self.bool_expr(2);
                let _ = writeln!(out, "if ({c}) {{");
                self.stmts(out, 1 + inner_budget / 2);
                if self.rng.gen_bool(0.5) {
                    let _ = writeln!(out, "}} else {{");
                    self.stmts(out, 1 + inner_budget / 2);
                }
                let _ = writeln!(out, "}}");
            }
            5 => {
                let i = self.fresh("i");
                let hi = self.rng.gen_range(0, 6);
                let _ = writeln!(out, "for (int {i} = 0; {i} < {hi}; {i} += 1) {{");
                self.scope.push((i, Ty::Int));
                self.loop_depth += 1;
                self.stmts(out, 1 + inner_budget / 2);
                // `break` only: `continue` semantics around the step
                // clause are covered by the bounded-while form below.
                self.maybe_jump(out, false);
                self.loop_depth -= 1;
                self.scope.pop();
                let _ = writeln!(out, "}}");
            }
            6 => {
                // Possibly-empty domains are the point: an empty foreach
                // must leave its loop variable unbound in both engines.
                let d = self.fresh("d");
                let i = self.fresh("i");
                let lo = self.rng.gen_range(0, 6) as i64 - 2;
                let hi = self.rng.gen_range(0, 6) as i64 - 2;
                let _ = writeln!(out, "RectDomain<1> {d} = [{lo} : {hi}];");
                let _ = writeln!(out, "foreach ({i} in {d}) {{");
                self.scope.push((i, Ty::Int));
                self.loop_depth += 1;
                self.stmts(out, 1 + inner_budget / 2);
                self.loop_depth -= 1;
                self.scope.pop();
                let _ = writeln!(out, "}}");
            }
            7 => {
                // Decrement-first while: terminates even with `continue`.
                let w = self.fresh("w");
                let n0 = self.rng.gen_range(0, 5);
                let _ = writeln!(out, "int {w} = {n0};");
                self.scope.push((w.clone(), Ty::Int));
                let _ = writeln!(out, "while ({w} > 0) {{");
                let _ = writeln!(out, "{w} -= 1;");
                self.loop_depth += 1;
                self.stmts(out, 1 + inner_budget / 2);
                self.maybe_jump(out, true);
                self.loop_depth -= 1;
                let _ = writeln!(out, "}}");
            }
            8 if self.with_acc => {
                let x = self.double_expr(2);
                let _ = writeln!(out, "acc.add({x});");
            }
            8 | 9 if !self.objects.is_empty() => self.object_stmt(out),
            _ => {
                let ty = [Ty::Int, Ty::Double, Ty::Bool][self.rng.gen_range(0, 3)];
                let e = self.expr_of(ty, 2);
                let _ = writeln!(out, "print({e});");
            }
        }
    }

    fn maybe_jump(&mut self, out: &mut String, allow_continue: bool) {
        if self.loop_depth > 0 && self.rng.gen_bool(0.15) {
            let kw = if allow_continue && self.rng.gen_bool(0.5) {
                "continue"
            } else {
                "break"
            };
            let c = self.bool_expr(1);
            let _ = writeln!(out, "if ({c}) {{ {kw}; }}");
        }
    }

    /// A full straight-line program: random main body over extern `n`
    /// (host-bound) and extern `u` (sometimes read while unbound — the
    /// runtime unknown-variable diagnostic).
    pub fn program(&mut self, budget: usize) -> String {
        let mut body = String::new();
        self.stmts(&mut body, budget);
        if self.rng.gen_bool(0.08) {
            body.push_str("print(u);\n");
        }
        format!("extern int n;\nextern int u;\nclass A {{ void main() {{\n{body}}} }}\n")
    }

    /// A straight-line program over `double[]`/`int[]` locals and typed
    /// methods, with the edge values of typed arithmetic in reach.
    #[allow(dead_code)] // not every test binary generates typed programs
    pub fn typed_program(&mut self, budget: usize) -> String {
        self.typed = true;
        let mut body = String::new();
        self.stmts(&mut body, budget);
        self.typed = false;
        format!(
            concat!(
                "extern int n;\n",
                "class A {{\n",
                "    double half(double x) {{ return x / 2; }}\n",
                "    double whole(int k) {{ return k; }}\n",
                "    int pick(int a, int b) {{ if (a < b) {{ return a; }} return b; }}\n",
                "    void main() {{\n",
                "        double[] da = new double[4];\n",
                "        int[] ia = new int[4];\n",
                "{body}",
                "        print(da[0] + da[1] + da[2] + da[3]);\n",
                "        print(ia[0] + ia[1] + ia[2] + ia[3]);\n",
                "    }}\n",
                "}}\n"
            ),
            body = body
        )
    }

    /// A program over dense arrays: `double[]`/`int[]` locals `da`/`ia`,
    /// their aliases `db`/`ib` and `h.d`/`h.k` (an object's fields), and
    /// the host's dense externs `hd`/`hk` ([`dense_host`]); `main` calls
    /// methods of a `Buf` whose generated bodies read, write and
    /// compound-assign its own array fields `xs`/`ks` by bare name (so
    /// through `this`), with an in-range parameter index most of the time.
    #[allow(dead_code)] // not every test binary generates dense programs
    pub fn dense_program(&mut self, budget: usize) -> String {
        self.typed = true;
        self.darrays = vec!["xs", "xs", "hd"];
        self.iarrays = vec!["ks", "ks", "hk"];
        self.scope = vec![
            ("k".to_string(), Ty::Int),
            ("x".to_string(), Ty::Double),
            ("m".to_string(), Ty::Int),
        ];
        let mut put = String::new();
        self.stmts(&mut put, budget / 2);
        let mut get = String::new();
        self.stmts(&mut get, budget / 3);
        self.scope.clear();
        self.darrays = vec!["da", "db", "h.d", "hd"];
        self.iarrays = vec!["ia", "ib", "h.k", "hk"];
        self.with_buf = true;
        let mut body = String::new();
        self.stmts(&mut body, budget);
        self.with_buf = false;
        self.darrays = vec!["da"];
        self.iarrays = vec!["ia"];
        self.typed = false;
        format!(
            concat!(
                "extern int n;\n",
                "extern double[] hd;\n",
                "extern int[] hk;\n",
                "class H {{ double[] d; int[] k; }}\n",
                "class Buf {{\n",
                "    double[] xs;\n",
                "    int[] ks;\n",
                "{helpers}",
                "    void setup(int s) {{ xs = new double[s]; ks = new int[s]; }}\n",
                "    void put(int k, double x, int m) {{\n{put}",
                "        xs[k] += x;\n",
                "        ks[k] -= m;\n",
                "    }}\n",
                "    double get(int k, double x, int m) {{\n{get}",
                "        return xs[k] + toDouble(ks[k]);\n",
                "    }}\n",
                "    double sum() {{\n",
                "        double s = 0.0;\n",
                "        for (int i = 0; i < xs.length(); i += 1) {{ s += xs[i]; s += ks[i]; }}\n",
                "        return s;\n",
                "    }}\n",
                "}}\n",
                "class A {{\n",
                "{helpers}",
                "    void main() {{\n",
                "        double[] da = new double[4];\n",
                "        int[] ia = new int[4];\n",
                "        double[] db = da;\n",
                "        int[] ib = ia;\n",
                "        H h = new H();\n",
                "        h.d = da;\n",
                "        h.k = hk;\n",
                "        Buf b = new Buf();\n",
                "        b.setup(4);\n",
                "{body}",
                "        print(da[0] + da[1] + da[2] + da[3]);\n",
                "        print(ia[0] + ia[1] + ia[2] + ia[3]);\n",
                "        print(hd[0] + hd[1] + hd[2] + hd[3]);\n",
                "        print(hk[0] + hk[1] + hk[2] + hk[3]);\n",
                "        print(b.sum());\n",
                "    }}\n",
                "}}\n"
            ),
            helpers = concat!(
                "    double half(double x) { return x / 2; }\n",
                "    double whole(int k) { return k; }\n",
                "    int pick(int a, int b) { if (a < b) { return a; } return b; }\n",
            ),
            put = put,
            get = get,
            body = body
        )
    }

    /// A pipelined reduction program with a random per-element body; the
    /// packet variable, element variable and an `acc` object are in scope.
    pub fn pipelined_program(&mut self, budget: usize) -> String {
        let mut body = String::new();
        self.scope.push(("i".to_string(), Ty::Int));
        self.with_acc = true;
        self.loop_depth += 1;
        self.stmts(&mut body, budget);
        self.loop_depth -= 1;
        self.with_acc = false;
        self.scope.pop();
        format!(
            concat!(
                "extern int n;\n",
                "runtime_define int num_packets;\n",
                "class Acc implements Reducinterface {{\n",
                "    double total;\n",
                "    void reduce(Acc o) {{ total = total + o.total; }}\n",
                "    void add(double x) {{ total = total + x; }}\n",
                "}}\n",
                "class A {{ void main() {{\n",
                "    RectDomain<1> all = [0 : n - 1];\n",
                "    Acc acc = new Acc();\n",
                "    PipelinedLoop (pkt in all; num_packets) {{\n",
                "        foreach (i in pkt) {{\n",
                "            acc.add(toDouble(i));\n",
                "{body}",
                "        }}\n",
                "    }}\n",
                "    print(acc.total);\n",
                "}} }}\n"
            ),
            body = body
        )
    }

    /// A `P`-typed local in scope.
    fn object(&mut self) -> String {
        self.objects[self.rng.gen_range(0, self.objects.len())].clone()
    }

    /// An index into the host's `ps`: mostly a complete object, sometimes
    /// the one the host left `c` out of.
    fn host_index(&mut self) -> usize {
        if self.rng.gen_bool(0.3) {
            2
        } else {
            self.rng.gen_range(0, 2)
        }
    }

    /// A statement over objects: field writes and compound assignments
    /// through an explicit receiver, method calls, rebinding a local to a
    /// host-built or fresh object, and a loop over the host array.
    fn object_stmt(&mut self, out: &mut String) {
        let o = self.object();
        match self.rng.gen_range(0, 9) {
            7 | 8 => self.method_stmt(out),
            0 | 1 => {
                let (f, rhs) = if self.rng.gen_bool(0.5) {
                    (["a", "c"][self.rng.gen_range(0, 2)], self.int_expr(1))
                } else {
                    (["b", "d"][self.rng.gen_range(0, 2)], self.double_expr(1))
                };
                let op = ["=", "+=", "-="][self.rng.gen_range(0, 3)];
                let _ = writeln!(out, "{o}.{f} {op} {rhs};");
            }
            2 => {
                let k = self.int_expr(1);
                let _ = writeln!(out, "{o}.bump({k});");
            }
            3 => {
                let k = self.host_index();
                let _ = writeln!(out, "{o} = ps[{k}];");
            }
            4 => {
                let _ = writeln!(out, "{o} = new P();");
            }
            5 => {
                let i = self.fresh("i");
                let f = ["a", "b", "c", "d"][self.rng.gen_range(0, 4)];
                let _ = writeln!(
                    out,
                    "for (int {i} = 0; {i} < 2; {i} += 1) {{ ps[{i}].bump({i}); print(ps[{i}].{f} + {o}.{f}); }}"
                );
            }
            _ => {
                let k = self.host_index();
                let f = ["a", "b", "c", "d"][self.rng.gen_range(0, 4)];
                let _ = writeln!(out, "print(ps[{k}].{f});");
            }
        }
    }

    /// A statement that calls one of `P`'s methods for its result: leaves
    /// the VM inlines (`int`, `double`, `boolean`, object and array
    /// results, parameters of every repr, `this` returned and passed on,
    /// a `return` inside a peeled loop), a method whose receiver-less
    /// calls are inlined with its own `this`, a recursive method and one
    /// over the inlining budget, which stay calls, a call on `ps[2]`,
    /// whose missing `c` sends the inlined body to the global `c`, and a
    /// call on a null receiver, which must raise the call's diagnostic.
    fn method_stmt(&mut self, out: &mut String) {
        let (o, q) = (self.object(), self.object());
        let k = self.int_expr(1);
        let x = self.double_expr(1);
        let _ = match self.rng.gen_range(0, 11) {
            0 => writeln!(out, "print({o}.first({k}));"),
            1 => writeln!(out, "print({o}.pos());"),
            2 => writeln!(out, "{o} = {q}.me();"),
            3 => {
                let w = self.fresh("w");
                writeln!(out, "double[] {w} = {o}.pair();\nprint({w}[0] - {w}[1]);")
            }
            4 => {
                let f = self.bool_expr(1);
                writeln!(out, "print({o}.take({k}, {x}, {f}, {q}, {q}.pair()));")
            }
            5 => writeln!(out, "print({o}.pass({x}));"),
            6 => {
                let depth = self.rng.gen_range(0, 4);
                writeln!(out, "print({o}.depth({depth}) + {o}.big({x}));")
            }
            7 => writeln!(out, "print(ps[2].weigh({o}, {x}));"),
            8 => writeln!(out, "ps[2].bump({k});"),
            9 => {
                let i = self.host_index();
                writeln!(out, "print({o}.me().geta() + ps[{i}].me().c);")
            }
            _ => {
                let call = ["pn.geta()", "pn.mix(1.5)", "pn.pass(0.5)"][self.rng.gen_range(0, 3)];
                writeln!(out, "print({call});")
            }
        };
    }

    /// A program over objects of a class `P` with four fields, whose
    /// methods read, write and compound-assign them through `this` both
    /// implicitly and explicitly. `main` holds `P` locals bound to `new P()`
    /// and to elements of the host's `ps` ([`object_host`]), whose slot
    /// orders differ from the declaration, so one op meets several shapes,
    /// and a null `pn`. [`ProgramGen::method_stmt`] calls the rest of `P`'s
    /// methods; `big`'s body is over the inlining budget.
    #[allow(dead_code)] // not every test binary generates objects
    pub fn object_program(&mut self, budget: usize) -> String {
        let mut body = String::from("P pn;\n");
        for (k, init) in ["new P()", "ps[0]", "ps[1]"].iter().enumerate() {
            let name = format!("o{k}");
            let _ = writeln!(body, "P {name} = {init};");
            self.objects.push(name);
        }
        self.stmts(&mut body, budget);
        self.objects.clear();
        format!(
            concat!(
                "extern int n;\n",
                "extern int c;\n",
                "extern P[] ps;\n",
                "class P {{\n",
                "    int a; double b; int c; double d;\n",
                "    int geta() {{ return a; }}\n",
                "    void bump(int k) {{ a += k; c = c - k; this.b += toDouble(k); }}\n",
                "    double mix(double x) {{ this.d = d * 0.5 + x; return b + d + toDouble(c); }}\n",
                "    int first(int lim) {{\n",
                "        for (int i = 0; i < 4; i += 1) {{ int t = a + i; if (t > lim) {{ return t; }} }}\n",
                "        return c;\n",
                "    }}\n",
                "    boolean pos() {{ return b > d; }}\n",
                "    P me() {{ return this; }}\n",
                "    double[] pair() {{ double[] r = new double[2]; r[0] = b; r[1] = d; return r; }}\n",
                "    double take(int i, double x, boolean f, P q, double[] w) {{\n",
                "        if (f) {{ return x + toDouble(i) + q.b; }}\n",
                "        return w[1] - x;\n",
                "    }}\n",
                "    double weigh(P q, double w) {{ return q.b * w + toDouble(c); }}\n",
                "    double pass(double w) {{ return weigh(this, w) + toDouble(geta()); }}\n",
                "    int depth(int k) {{ if (k <= 0) {{ return a; }} return depth(k - 1) + 1; }}\n",
                "    double big(double x) {{ double s = x; {big} return s; }}\n",
                "}}\n",
                "class A {{ void main() {{\n",
                "{body}",
                "}} }}\n"
            ),
            big = "s += d * 1.5; ".repeat(90),
            body = body
        )
    }
}

/// The host side of [`ProgramGen::dense_program`]: `n` and the dense
/// externs `hd` and `hk`, four elements each, bound as `knn_host_env`
/// and `vmscope_host_env` bind numeric arrays. A fresh call builds fresh
/// arrays, so each engine can mutate its own.
#[allow(dead_code)]
pub fn dense_host(n: i64) -> HostEnv {
    HostEnv::new()
        .bind("n", Value::Int(n))
        .bind(
            "hd",
            Value::array(ArrayVal::F64(vec![0.5, -1.25, 3.0, 2.0])),
        )
        .bind("hk", Value::array(ArrayVal::I64(vec![3, -7, 11, 0])))
}

/// The host side of [`ProgramGen::object_program`]: `n`, the global `c`
/// and three `P` objects, each built through its own shape in a field
/// order that differs from `P`'s declaration; the third leaves `c` out
/// (its methods reach the global). A fresh call builds fresh objects, so
/// each engine can mutate its own.
#[allow(dead_code)]
pub fn object_host(n: i64) -> HostEnv {
    let obj = |names: &[&str], vals: &[f64]| {
        let shape = Shape::new("P", names.iter().map(|n| n.to_string()).collect());
        let slots = names
            .iter()
            .zip(vals)
            .map(|(n, v)| {
                Some(match *n {
                    "a" | "c" => Value::Int(*v as i64),
                    _ => Value::Double(*v),
                })
            })
            .collect();
        Value::Object(Rc::new(RefCell::new(ObjectVal::new(shape, slots))))
    };
    let ps = vec![
        obj(&["d", "c", "b", "a"], &[0.25, 7.0, 1.5, 3.0]),
        obj(&["b", "d", "a", "c"], &[-2.5, 4.0, 11.0, -6.0]),
        obj(&["d", "b", "a"], &[8.5, 0.75, 5.0]),
    ];
    HostEnv::new()
        .bind("n", Value::Int(n))
        .bind("c", Value::Int(-4))
        .bind("ps", Value::array(ArrayVal::Boxed(ps)))
}

//! Abstract syntax tree for the dialect.
//!
//! The surface language is a small Java-like dialect in the style the paper
//! describes (Section 3): classes with fields and methods, a
//! `Reducinterface` marker for reduction classes, 1-D `RectDomain`s,
//! order-independent `foreach` loops, and the `PipelinedLoop` construct that
//! iterates over packets of a domain.
//!
//! Every statement carries a unique [`NodeId`] assigned at parse time;
//! compiler passes (boundary identification, loop fission, Gen/Cons) refer
//! to statements by id.

use crate::span::Span;
use std::fmt;

/// Unique id of a statement node, assigned by the parser (or by passes that
/// synthesize statements, via [`NodeIdGen`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Monotonic generator for fresh [`NodeId`]s.
#[derive(Debug, Default, Clone)]
pub struct NodeIdGen {
    next: u32,
}

impl NodeIdGen {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start above an existing program's maximum id (used by rewriting
    /// passes such as loop fission so fresh ids never collide).
    pub fn above(program: &Program) -> Self {
        let mut max = 0;
        program.visit_stmts(&mut |s| max = max.max(s.id.0));
        NodeIdGen { next: max + 1 }
    }

    pub fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }
}

/// Static types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Int,
    Double,
    Bool,
    Void,
    /// A user class by name.
    Class(String),
    /// A 1-D array of elements.
    Array(Box<Type>),
    /// A rectilinear domain; the paper (and our apps) use dimension 1.
    RectDomain(u8),
}

impl Type {
    pub fn array_of(elem: Type) -> Type {
        Type::Array(Box::new(elem))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Double => write!(f, "double"),
            Type::Bool => write!(f, "boolean"),
            Type::Void => write!(f, "void"),
            Type::Class(name) => write!(f, "{name}"),
            Type::Array(elem) => write!(f, "{elem}[]"),
            Type::RectDomain(d) => write!(f, "RectDomain<{d}>"),
        }
    }
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub externs: Vec<ExternDecl>,
    pub classes: Vec<ClassDecl>,
}

impl Program {
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Find a method `class::method`.
    pub fn method(&self, class: &str, method: &str) -> Option<&MethodDecl> {
        self.class(class)?.methods.iter().find(|m| m.name == method)
    }

    /// The designated entry point: the unique method named `main` among all
    /// classes (the paper's examples hold the pipelined loop there).
    pub fn main(&self) -> Option<(&ClassDecl, &MethodDecl)> {
        self.classes
            .iter()
            .find_map(|c| c.methods.iter().find(|m| m.name == "main").map(|m| (c, m)))
    }

    /// Visit every statement in the program, depth-first.
    pub fn visit_stmts(&self, f: &mut impl FnMut(&Stmt)) {
        for c in &self.classes {
            for m in &c.methods {
                m.body.visit(f);
            }
        }
    }
}

/// `extern T name;` — a value supplied by the host environment, or
/// `runtime_define int name;` — a tunable chosen at run time (the paper's
/// `runtime_define num_packets`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDecl {
    pub name: String,
    pub ty: Type,
    pub runtime_define: bool,
    pub span: Span,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    pub name: String,
    /// True if the class declares `implements Reducinterface`: its instances
    /// are reduction variables and may only be updated inside `foreach` by
    /// associative+commutative operations.
    pub is_reduction: bool,
    pub fields: Vec<FieldDecl>,
    pub methods: Vec<MethodDecl>,
    pub span: Span,
}

impl ClassDecl {
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A field of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

/// A method of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    pub name: String,
    pub ret: Type,
    pub params: Vec<Param>,
    pub body: Block,
    pub span: Span,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: String,
    pub ty: Type,
}

/// A `{ ... }` statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

impl Block {
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }

    /// Visit this block's statements and all nested statements, depth-first.
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        for s in &self.stmts {
            s.visit(f);
        }
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
}

/// A statement with its id and span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub id: NodeId,
    pub span: Span,
    pub kind: StmtKind,
}

impl Stmt {
    pub fn new(id: NodeId, span: Span, kind: StmtKind) -> Self {
        Stmt { id, span, kind }
    }

    /// Visit this statement and all nested statements, depth-first.
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                then_blk.visit(f);
                if let Some(e) = else_blk {
                    e.visit(f);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::Foreach { body, .. }
            | StmtKind::Pipelined { body, .. } => body.visit(f),
            StmtKind::For {
                init, step, body, ..
            } => {
                if let Some(i) = init {
                    i.visit(f);
                }
                if let Some(s) = step {
                    s.visit(f);
                }
                body.visit(f);
            }
            StmtKind::Block(b) => b.visit(f),
            _ => {}
        }
    }
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `T name = init;`
    VarDecl {
        name: String,
        ty: Type,
        init: Option<Expr>,
    },
    /// `lhs op rhs;`
    Assign {
        target: LValue,
        op: AssignOp,
        value: Expr,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    /// `while (cond) { .. }` — must be wholly inside one filter.
    While {
        cond: Expr,
        body: Block,
    },
    /// `for (init; cond; step) { .. }` — must be wholly inside one filter.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Block,
    },
    /// `foreach (var in domain) { .. }` — iteration order does not affect
    /// the result; updates to reduction variables allowed.
    Foreach {
        var: String,
        domain: Expr,
        body: Block,
    },
    /// `PipelinedLoop (var in domain; num_packets) { .. }` — the domain is
    /// split into `num_packets` packets, each processed independently apart
    /// from reduction-variable updates. `var` is bound to the sub-domain
    /// (packet) on each iteration.
    Pipelined {
        var: String,
        domain: Expr,
        num_packets: Expr,
        body: Block,
    },
    /// `return e?;`
    Return(Option<Expr>),
    /// A call (or other expression) in statement position.
    Expr(Expr),
    /// Nested `{ .. }`.
    Block(Block),
    Break,
    Continue,
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// `x`
    Var(String),
    /// `base.field`
    Field(Box<Expr>, String),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// Is this an arithmetic operator (yields the operand numeric type)?
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// Is this a comparison operator (yields bool from numerics)?
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Is this a logical operator (bool × bool → bool)?
    pub fn is_logic(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// An expression with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub span: Span,
    pub kind: ExprKind,
}

impl Expr {
    pub fn new(span: Span, kind: ExprKind) -> Self {
        Expr { span, kind }
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    DoubleLit(f64),
    BoolLit(bool),
    Null,
    /// A variable, parameter, extern, or field of the enclosing class.
    Var(String),
    This,
    /// `base.field`
    Field(Box<Expr>, String),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Method or builtin call. `recv == None` means a call to a method of
    /// the enclosing class or a builtin (`sqrt`, `min`, ...).
    Call {
        recv: Option<Box<Expr>>,
        method: String,
        args: Vec<Expr>,
    },
    /// `new C()`
    New(String),
    /// `new T[len]`
    NewArray(Type, Box<Expr>),
    /// `[lo : hi]` — a 1-D rectdomain literal (inclusive bounds, as in
    /// Titanium).
    DomainLit(Box<Expr>, Box<Expr>),
}

/// Names of builtin free functions understood by the type checker,
/// interpreter and cost model.
pub(crate) const BUILTINS: &[&str] = &[
    "sqrt", "abs", "min", "max", "floor", "ceil", "pow", "exp", "log", "toInt", "toDouble", "print",
];

/// True if `name` is a builtin free function.
pub fn is_builtin(name: &str) -> bool {
    BUILTINS.contains(&name)
}

/// Builtin methods on `RectDomain` values: `d.lo()`, `d.hi()`, `d.size()`.
pub const DOMAIN_METHODS: &[&str] = &["lo", "hi", "size"];

/// Builtin method on arrays: `a.length()`.
pub const ARRAY_METHODS: &[&str] = &["length"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_gen_is_monotonic() {
        let mut g = NodeIdGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert!(b > a);
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::array_of(Type::Double).to_string(), "double[]");
        assert_eq!(Type::RectDomain(1).to_string(), "RectDomain<1>");
        assert_eq!(Type::Class("ZBuffer".into()).to_string(), "ZBuffer");
    }

    #[test]
    fn binop_classification_is_partition() {
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or] {
            let n = [op.is_arith(), op.is_cmp(), op.is_logic()]
                .iter()
                .filter(|b| **b)
                .count();
            assert_eq!(n, 1, "{op} must be in exactly one class");
        }
    }

    #[test]
    fn builtins_contains_core_math() {
        assert!(is_builtin("sqrt"));
        assert!(is_builtin("min"));
        assert!(!is_builtin("frobnicate"));
    }
}

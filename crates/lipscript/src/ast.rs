//! Abstract syntax tree.

use crate::error::Span;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Nil,
    /// Variable reference.
    Var(String),
    /// List literal.
    List(Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Function or builtin call.
    Call(String, Vec<Expr>),
    /// Indexing: `xs[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `try call`: the call's value, or the error value of a system call
    /// the kernel refused. The parser only makes one around a call of a
    /// builtin that asks the host; around anything else it is the
    /// expression itself.
    Try(Box<Expr>),
}

/// An expression with its position.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The node.
    pub kind: ExprKind,
    /// Source position.
    pub span: Span,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let name = expr;`
    Let(String, Expr),
    /// `name = expr;`
    Assign(String, Expr),
    /// `name[index] = expr;`
    IndexAssign(String, Expr, Expr),
    /// `if (cond) { .. } else { .. }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) { .. }`
    While(Expr, Vec<Stmt>),
    /// `for x in expr { .. }`
    For(String, Expr, Vec<Stmt>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return expr?;`
    Return(Option<Expr>),
    /// Expression statement.
    Expr(Expr),
}

/// A statement with its position.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The node.
    pub kind: StmtKind,
    /// Source position.
    pub span: Span,
}

/// A top-level function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Position of the `fn` keyword.
    pub span: Span,
}

/// A parsed program: function table plus top-level statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Named functions.
    pub functions: Vec<FnDef>,
    /// Statements executed when the program runs.
    pub top: Vec<Stmt>,
}

impl Program {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&FnDef> {
        self.functions.iter().find(|f| f.name == name)
    }
}

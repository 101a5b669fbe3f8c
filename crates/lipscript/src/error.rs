//! Error types with source positions.

use core::fmt;

/// A position in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Why a running program was terminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeErrorKind {
    /// Type mismatch (message names the operation and the value kinds).
    Type(String),
    /// Reference to an unknown variable or function.
    Undefined(String),
    /// The fuel budget was exhausted (§6 resource accounting).
    OutOfFuel,
    /// The memory budget was exhausted.
    OutOfMemory,
    /// The call-depth cap was exceeded.
    DepthExceeded,
    /// A builtin was called with the wrong number of arguments.
    BadArity(String),
    /// List or string index out of range.
    IndexOutOfBounds(i64, usize),
    /// Integer division or modulo by zero.
    DivisionByZero,
    /// A system call failed (message from the kernel).
    Host(String),
    /// `break`/`continue` outside a loop.
    BadControlFlow,
}

/// A runtime error with the position of the failing node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// What went wrong.
    pub kind: RuntimeErrorKind,
    /// Where.
    pub span: Span,
}

impl RuntimeError {
    /// Creates an error at a span.
    pub fn new(kind: RuntimeErrorKind, span: Span) -> Self {
        RuntimeError { kind, span }
    }
}

impl RuntimeError {
    /// The bare message, without the `at line:col` suffix.
    pub fn message(&self) -> String {
        match &self.kind {
            RuntimeErrorKind::Type(m) => format!("type error: {m}"),
            RuntimeErrorKind::Undefined(n) => format!("undefined name `{n}`"),
            RuntimeErrorKind::OutOfFuel => "out of fuel".to_string(),
            RuntimeErrorKind::OutOfMemory => "out of memory".to_string(),
            RuntimeErrorKind::DepthExceeded => "call depth exceeded".to_string(),
            RuntimeErrorKind::BadArity(m) => format!("bad arity: {m}"),
            RuntimeErrorKind::IndexOutOfBounds(i, n) => {
                format!("index {i} out of bounds (len {n})")
            }
            RuntimeErrorKind::DivisionByZero => "division by zero".to_string(),
            RuntimeErrorKind::Host(m) => format!("syscall failed: {m}"),
            RuntimeErrorKind::BadControlFlow => {
                "break/continue outside a loop".to_string()
            }
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.message(), self.span)
    }
}

impl std::error::Error for RuntimeError {}

/// Any failure of a LipScript program: scanning, parsing or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LipError {
    /// Invalid token.
    Lex { message: String, span: Span },
    /// Syntax error.
    Parse { message: String, span: Span },
    /// Execution error.
    Runtime(RuntimeError),
}

impl fmt::Display for LipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LipError::Lex { message, span } => write!(f, "lex error: {message} at {span}"),
            LipError::Parse { message, span } => write!(f, "parse error: {message} at {span}"),
            LipError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl LipError {
    /// The position of the failure.
    pub fn span(&self) -> Span {
        match self {
            LipError::Lex { span, .. } | LipError::Parse { span, .. } => *span,
            LipError::Runtime(e) => e.span,
        }
    }

    /// The bare message, without the `at line:col` suffix.
    pub fn message(&self) -> String {
        match self {
            LipError::Lex { message, .. } => format!("lex error: {message}"),
            LipError::Parse { message, .. } => format!("parse error: {message}"),
            LipError::Runtime(e) => format!("runtime error: {}", e.message()),
        }
    }

    /// Renders as `file:line:col: message` — the compiler-style format used
    /// by `lip_vet` and the SYMR SUBMIT error payload (which `lip_run`
    /// prints).
    pub fn render(&self, file: &str) -> String {
        format!("{file}:{}: {}", self.span(), self.message())
    }
}

impl std::error::Error for LipError {}

impl From<RuntimeError> for LipError {
    fn from(e: RuntimeError) -> Self {
        LipError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = RuntimeError::new(
            RuntimeErrorKind::Undefined("x".into()),
            Span { line: 3, col: 7 },
        );
        assert_eq!(e.to_string(), "undefined name `x` at 3:7");
        let l = LipError::Parse {
            message: "expected `;`".into(),
            span: Span { line: 1, col: 2 },
        };
        assert!(l.to_string().contains("expected `;` at 1:2"));
    }
}

//! Runtime values.

use core::fmt;

use symphony::SysError;
use symphony_model::DistRef;

/// A LipScript runtime value.
///
/// Values have *copy semantics*: assignment and argument passing clone.
/// This keeps the sandbox simple (no aliasing, `Send` across spawned
/// threads) at the cost of O(n) list copies, which the memory meter charges.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// List.
    List(Vec<Value>),
    /// A next-token distribution: an element of a `pred` reply, built
    /// when a builtin reads it, or a builtin's result.
    Dist(DistRef),
    /// A KV file handle.
    Handle(u64),
    /// A thread handle returned by `spawn`.
    Thread(u64),
    /// A failed system call, as a `try` made it a value: the kernel's
    /// error.
    Err(SysError),
    /// Absent value.
    Nil,
}

/// The name of an error's kind, as `err_kind` gives it: the KVFS error's
/// for a failed KV operation (`NoGpuMemory`, `NotFound`, ...), the
/// system call error's otherwise (`NotFound`, `Fault`, `Timeout`, ...).
pub fn err_kind(e: &SysError) -> String {
    let name = match e {
        SysError::Kv(kv) => format!("{kv:?}"),
        other => format!("{other:?}"),
    };
    // A variant with a payload debug-prints it in parentheses.
    name.split('(').next().unwrap_or_default().to_string()
}

impl Value {
    /// The value's type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Dist(_) => "dist",
            Value::Handle(_) => "kv_handle",
            Value::Thread(_) => "thread",
            Value::Err(_) => "error",
            Value::Nil => "nil",
        }
    }

    /// Truthiness: `false`, `0`, `0.0`, `""`, `[]`, `nil` and an error are
    /// false.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Nil | Value::Err(_) => false,
            Value::Dist(_) | Value::Handle(_) | Value::Thread(_) => true,
        }
    }

    /// Approximate heap footprint in abstract cells (memory metering).
    pub fn cells(&self) -> u64 {
        match self {
            Value::Str(s) => 1 + s.len() as u64 / 8,
            Value::List(l) => 1 + l.iter().map(Value::cells).sum::<u64>(),
            Value::Dist(d) => 1 + d.entries_len() as u64,
            _ => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "{s:?}")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, "]")
            }
            Value::Dist(d) => write!(f, "<dist argmax={}>", d.get().argmax()),
            Value::Handle(h) => write!(f, "<kv:{h}>"),
            Value::Thread(t) => write!(f, "<thread:{t}>"),
            Value::Err(e) => write!(f, "<err:{}>", err_kind(e)),
            Value::Nil => write!(f, "nil"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::List(vec![]).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Handle(0).truthy());
        assert!(!Value::Err(SysError::Timeout).truthy());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("a".into())]).to_string(),
            "[1, \"a\"]"
        );
        assert_eq!(Value::Nil.to_string(), "nil");
        let full = SysError::Kv(symphony::KvError::NoGpuMemory);
        assert_eq!(Value::Err(full).to_string(), "<err:NoGpuMemory>");
        assert_eq!(
            Value::Err(SysError::Fault("tool")).to_string(),
            "<err:Fault>"
        );
        assert_eq!(Value::Err(SysError::NotFound).to_string(), "<err:NotFound>");
    }

    #[test]
    fn cells_scale_with_size() {
        let small = Value::Int(1).cells();
        let big = Value::List(vec![Value::Int(1); 100]).cells();
        assert!(big > small * 50);
        let s = Value::Str("x".repeat(800)).cells();
        assert!(s >= 100);
    }
}

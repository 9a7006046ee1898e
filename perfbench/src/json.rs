//! Minimal JSON values for the result lines (no serde offline).

use std::fmt;

#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Int(i64),
    Str(String),
    Bool(bool),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

pub fn obj<K: Into<String>>(pairs: Vec<(K, J)>) -> J {
    J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn s(v: impl Into<String>) -> J {
    J::Str(v.into())
}

fn escape(f: &mut fmt::Formatter<'_>, v: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in v.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Rust prints the shortest round-tripping decimal: every digit
            // of the measurement, never an exponent.
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => f.write_str("null"),
            J::Int(i) => write!(f, "{i}"),
            J::Str(v) => escape(f, v),
            J::Bool(b) => write!(f, "{b}"),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

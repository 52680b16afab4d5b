//! Attribute values stored at nodes of the TROPIC data model.
//!
//! The data model is semi-structured (paper §2.2): every node carries a map
//! of named attributes whose values are drawn from the [`Value`] enum below.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A dynamically-typed attribute value.
///
/// `Value` deliberately mirrors the JSON data model so that logical-layer
/// state can be written into the coordination store verbatim.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A string-keyed map of values.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Returns the contained boolean, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the contained integer, if this is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the contained float; integers are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the contained string slice, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the contained list, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained map, if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns `true` if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name for the value's runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    /// Approximate in-memory footprint in bytes, used by the memory-footprint
    /// experiment (§6.1) to track how the data model grows with resources.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) => 16,
            Value::Str(s) => 24 + s.len(),
            Value::List(v) => 24 + v.iter().map(Value::approx_size).sum::<usize>(),
            Value::Map(m) => {
                24 + m
                    .iter()
                    .map(|(k, v)| 24 + k.len() + v.approx_size())
                    .sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(v) => {
                write!(f, "[")?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(42i64).as_int(), Some(42));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from(7i64).as_float(), Some(7.0));
        assert_eq!(Value::from("xen").as_str(), Some("xen"));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn accessors_reject_wrong_type() {
        assert_eq!(Value::from("x").as_int(), None);
        assert_eq!(Value::from(1i64).as_str(), None);
        assert_eq!(Value::Null.as_bool(), None);
        assert_eq!(Value::from(1i64).as_list(), None);
        assert_eq!(Value::from(1i64).as_map(), None);
    }

    #[test]
    fn list_conversion() {
        let v: Value = vec![1i64, 2, 3].into();
        assert_eq!(v.as_list().unwrap().len(), 3);
        assert_eq!(v.as_list().unwrap()[1], Value::Int(2));
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::from(1i64).type_name(), "int");
        assert_eq!(Value::from("s").type_name(), "str");
        assert_eq!(Value::List(vec![]).type_name(), "list");
        assert_eq!(Value::Map(BTreeMap::new()).type_name(), "map");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(3i64).to_string(), "3");
        assert_eq!(Value::from("a").to_string(), "\"a\"");
        let v: Value = vec![1i64, 2].into();
        assert_eq!(v.to_string(), "[1, 2]");
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(1));
        assert_eq!(Value::Map(m).to_string(), "{k: 1}");
    }

    #[test]
    fn serde_roundtrip() {
        let v: Value = vec![Value::from(1i64), Value::from("two"), Value::Bool(false)].into();
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = Value::from("a").approx_size();
        let big = Value::from("a".repeat(100)).approx_size();
        assert!(big > small + 90);
    }
}

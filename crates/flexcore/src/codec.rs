//! The one read-back codec behind every file this crate saves: the
//! checkpoint ([`Snapshot`](crate::Snapshot)) and the elision table
//! ([`ElisionTable`](crate::ElisionTable)).
//!
//! Each saved type is described once, as a list of `"key": field`
//! pairs ([`codec_object!`]) or of positional fields
//! ([`codec_array!`]); that one list both writes the JSON and reads it
//! back, so the two directions cannot drift apart. Decoding is strict:
//! a missing key, a wrong JSON type, a wrong array length or an integer
//! out of its field's range is an error naming the field, never a
//! silent truncation.

use serde::Value;

/// A value the crate writes to JSON and reads back.
pub(crate) trait Codec: Sized {
    /// The JSON tree for `self`.
    fn enc(&self) -> Value;

    /// Reads a value written by [`Codec::enc`]; `what` names it in
    /// errors.
    fn dec(v: &Value, what: &str) -> Result<Self, String>;
}

/// Key `key` of the object `v` (named `what` in errors).
pub(crate) fn field<'a>(v: &'a Value, what: &str, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("`{what}` has no field `{key}`"))
}

/// The elements of the array `v` (named `what` in errors).
pub(crate) fn items<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], String> {
    v.as_array().ok_or_else(|| format!("`{what}` is not an array"))
}

/// Parses `json` as a `T` whose `format` field must be `format`. The
/// version is checked before anything else is decoded, so a file from
/// another format version is refused as such.
pub(crate) fn from_json<T: Codec>(json: &str, what: &str, format: u32) -> Result<T, String> {
    let v = serde::from_str(json).map_err(|e| format!("invalid {what} JSON: {e}"))?;
    let found = u32::dec(field(&v, what, "format")?, "format")?;
    if found != format {
        return Err(format!("unsupported {what} format {found} (this build reads {format})"));
    }
    T::dec(&v, what)
}

macro_rules! codec_uint {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn enc(&self) -> Value {
                Value::U64(*self as u64)
            }

            fn dec(v: &Value, what: &str) -> Result<Self, String> {
                let n = v.as_u64().ok_or_else(|| format!("`{what}` is not an integer"))?;
                <$t>::try_from(n)
                    .map_err(|_| format!("`{what}` = {n} does not fit in {}", stringify!($t)))
            }
        }
    )*};
}
codec_uint!(u8, u16, u32, u64, usize);

impl Codec for bool {
    fn enc(&self) -> Value {
        Value::Bool(*self)
    }

    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{what}` is not a boolean")),
        }
    }
}

impl Codec for String {
    fn enc(&self) -> Value {
        Value::Str(self.clone())
    }

    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        v.as_str().map(str::to_string).ok_or_else(|| format!("`{what}` is not a string"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self) -> Value {
        Value::Array(self.iter().map(Codec::enc).collect())
    }

    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        items(v, what)?.iter().map(|item| T::dec(item, what)).collect()
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn enc(&self) -> Value {
        Value::Array(self.iter().map(Codec::enc).collect())
    }

    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        Vec::dec(v, what)?
            .try_into()
            .map_err(|got: Vec<T>| format!("`{what}` has {} entries, not {N}", got.len()))
    }
}

/// `None` is `null`.
impl<T: Codec> Codec for Option<T> {
    fn enc(&self) -> Value {
        self.as_ref().map_or(Value::Null, Codec::enc)
    }

    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            _ => T::dec(v, what).map(Some),
        }
    }
}

/// A pair is a 2-array.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn enc(&self) -> Value {
        Value::Array(vec![self.0.enc(), self.1.enc()])
    }

    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        match items(v, what)? {
            [a, b] => Ok((A::dec(a, what)?, B::dec(b, what)?)),
            other => Err(format!("`{what}` has {} entries, not 2", other.len())),
        }
    }
}

/// Describes a struct saved as a JSON object: each `"key": field` pair
/// in the order the object lists them.
macro_rules! codec_object {
    ($ty:ident { $($key:literal: $field:ident),* $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn enc(&self) -> serde::Value {
                serde::Value::object()
                    $(.raw($key, $crate::codec::Codec::enc(&self.$field)))*
                    .build()
            }

            fn dec(v: &serde::Value, what: &str) -> Result<Self, String> {
                Ok($ty {
                    $($field: $crate::codec::Codec::dec(
                        $crate::codec::field(v, what, $key)?,
                        $key,
                    )?),*
                })
            }
        }
    };
}

/// Describes a struct saved as a JSON array of its fields, in the
/// listed order.
macro_rules! codec_array {
    ($ty:ident [$($field:ident),* $(,)?]) => {
        impl $crate::codec::Codec for $ty {
            fn enc(&self) -> serde::Value {
                serde::Value::Array(vec![$($crate::codec::Codec::enc(&self.$field)),*])
            }

            fn dec(v: &serde::Value, what: &str) -> Result<Self, String> {
                let [$($field),*] = $crate::codec::items(v, what)? else {
                    let names = [$(stringify!($field)),*];
                    return Err(format!("`{what}` needs exactly {} entries", names.len()));
                };
                Ok($ty { $($field: $crate::codec::Codec::dec($field, stringify!($field))?),* })
            }
        }
    };
}

pub(crate) use {codec_array, codec_object};

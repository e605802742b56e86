//! Typed local storage for array segments, with NumPy-style dtype
//! promotion (`bool < i64 < f64`). ODIN inherits NumPy's dtype machinery
//! in the paper; this module is its equivalent for the three numeric
//! kinds the reproduction supports.

use comm::{Comm, CommError, Cursor, Wire};
use dmap::{CommPlan, Run};

use crate::protocol::{BinOp, UnaryOp};

/// Element type of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// Booleans (comparison results).
    Bool,
    /// 64-bit signed integers.
    I64,
    /// 64-bit floats.
    F64,
}

impl DType {
    /// NumPy-style promotion: the smallest dtype containing both.
    pub fn promote(self, other: DType) -> DType {
        use DType::*;
        match (self, other) {
            (F64, _) | (_, F64) => F64,
            (I64, _) | (_, I64) => I64,
            (Bool, Bool) => Bool,
        }
    }
}

/// A contiguous typed buffer: one worker's segment of a distributed array.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    /// Boolean storage.
    Bool(Vec<bool>),
    /// Integer storage.
    I64(Vec<i64>),
    /// Float storage.
    F64(Vec<f64>),
}

impl Buffer {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Buffer::Bool(v) => v.len(),
            Buffer::I64(v) => v.len(),
            Buffer::F64(v) => v.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffer's dtype.
    pub fn dtype(&self) -> DType {
        match self {
            Buffer::Bool(_) => DType::Bool,
            Buffer::I64(_) => DType::I64,
            Buffer::F64(_) => DType::F64,
        }
    }

    /// Zero-filled buffer of `dtype`.
    pub fn zeros(dtype: DType, n: usize) -> Buffer {
        match dtype {
            DType::Bool => Buffer::Bool(vec![false; n]),
            DType::I64 => Buffer::I64(vec![0; n]),
            DType::F64 => Buffer::F64(vec![0.0; n]),
        }
    }

    /// Element at `i` widened to `f64` (bools as 0/1).
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            Buffer::Bool(v) => f64::from(u8::from(v[i])),
            Buffer::I64(v) => v[i] as f64,
            Buffer::F64(v) => v[i],
        }
    }

    /// Element at `i` as `i64` (floats truncated).
    pub fn get_i64(&self, i: usize) -> i64 {
        match self {
            Buffer::Bool(v) => i64::from(v[i]),
            Buffer::I64(v) => v[i],
            Buffer::F64(v) => v[i] as i64,
        }
    }

    /// Convert to `dtype`, copying.
    pub fn astype(&self, dtype: DType) -> Buffer {
        if self.dtype() == dtype {
            return self.clone();
        }
        let n = self.len();
        match dtype {
            DType::F64 => Buffer::F64((0..n).map(|i| self.get_f64(i)).collect()),
            DType::I64 => Buffer::I64((0..n).map(|i| self.get_i64(i)).collect()),
            DType::Bool => Buffer::Bool((0..n).map(|i| self.get_f64(i) != 0.0).collect()),
        }
    }

    /// Borrow as `f64` slice (panics if not F64).
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Buffer::F64(v) => v,
            other => panic!("expected f64 buffer, found {:?}", other.dtype()),
        }
    }

    /// Mutably borrow as `f64` slice (panics if not F64).
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        match self {
            Buffer::F64(v) => v,
            other => panic!("expected f64 buffer, found {:?}", other.dtype()),
        }
    }

    /// Borrow as `i64` slice (panics if not I64).
    pub fn as_i64(&self) -> &[i64] {
        match self {
            Buffer::I64(v) => v,
            other => panic!("expected i64 buffer, found {:?}", other.dtype()),
        }
    }

    /// The elements selected by `runs`, in order; run indices are in units
    /// of `width` elements (see [`dmap::runs`]).
    pub fn gather_runs(&self, runs: &[Run], width: usize) -> Buffer {
        match self {
            Buffer::Bool(v) => Buffer::Bool(dmap::gather_runs(v, runs, width)),
            Buffer::I64(v) => Buffer::I64(dmap::gather_runs(v, runs, width)),
            Buffer::F64(v) => Buffer::F64(dmap::gather_runs(v, runs, width)),
        }
    }

    /// Copy the elements `src_runs` selects in `src` onto the positions
    /// `dst_runs` selects here, in order (panics on a dtype mismatch).
    pub fn copy_runs(&mut self, dst_runs: &[Run], src: &Buffer, src_runs: &[Run], width: usize) {
        match (self, src) {
            (Buffer::Bool(d), Buffer::Bool(s)) => dmap::copy_runs(d, dst_runs, s, src_runs, width),
            (Buffer::I64(d), Buffer::I64(s)) => dmap::copy_runs(d, dst_runs, s, src_runs, width),
            (Buffer::F64(d), Buffer::F64(s)) => dmap::copy_runs(d, dst_runs, s, src_runs, width),
            (d, s) => panic!("copy of {:?} into {:?}", s.dtype(), d.dtype()),
        }
    }

    /// The inverse of [`Self::gather_runs`]: write all of `src`, front to
    /// back, to the positions `runs` selects.
    pub fn scatter_runs(&mut self, runs: &[Run], width: usize, src: &Buffer) {
        let whole = Run {
            start: 0,
            step: 1,
            n: dmap::runs::run_len(runs),
        };
        assert_eq!(src.len(), whole.n * width, "scatter length mismatch");
        self.copy_runs(runs, src, &[whole], width);
    }

    /// Fill this buffer from `src` (same dtype) along `plan`. Collective
    /// over `comm`: [`CommPlan::execute`] on the typed lanes.
    pub(crate) fn route_from(&mut self, comm: &Comm, plan: &CommPlan, src: &Buffer) {
        match (self, src) {
            (Buffer::Bool(d), Buffer::Bool(s)) => plan.execute(comm, s, d),
            (Buffer::I64(d), Buffer::I64(s)) => plan.execute(comm, s, d),
            (Buffer::F64(d), Buffer::F64(s)) => plan.execute(comm, s, d),
            (d, s) => panic!("route of {:?} into {:?}", s.dtype(), d.dtype()),
        }
    }

    /// Concatenate buffers of the same dtype.
    pub fn concat(pieces: Vec<Buffer>) -> Buffer {
        let dtype = pieces.first().map(|b| b.dtype()).unwrap_or(DType::F64);
        let mut out = Buffer::zeros(dtype, 0);
        for p in pieces {
            assert_eq!(p.dtype(), dtype, "concat dtype mismatch");
            match (&mut out, p) {
                (Buffer::Bool(o), Buffer::Bool(v)) => o.extend(v),
                (Buffer::I64(o), Buffer::I64(v)) => o.extend(v),
                (Buffer::F64(o), Buffer::F64(v)) => o.extend(v),
                _ => unreachable!(),
            }
        }
        out
    }
}

/// The result dtype of a unary op applied to `d`.
pub fn unary_result_dtype(op: UnaryOp, d: DType) -> DType {
    use UnaryOp::*;
    match op {
        Neg | Abs if d == DType::Bool => DType::I64,
        Neg | Abs => d,
        Not => DType::Bool,
        // transcendental ufuncs always produce floats, as in NumPy
        Sin | Cos | Tan | Exp | Log | Sqrt | Floor | Ceil => DType::F64,
    }
}

/// The dtype a broadcast scalar takes in a binary op: integral values
/// exactly representable in f64's 53-bit mantissa are `I64`, everything
/// else (fractions, `±1e20`, NaN, ±inf) is `F64`. The master records
/// results by this rule and the kernel it launches computes by it.
pub(crate) fn scalar_dtype(v: f64) -> DType {
    if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        DType::I64
    } else {
        DType::F64
    }
}

/// The result dtype of a binary op on `(a, b)`.
pub fn binary_result_dtype(op: BinOp, a: DType, b: DType) -> DType {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Max | Min | Mod => {
            let p = a.promote(b);
            if p == DType::Bool {
                DType::I64
            } else {
                p
            }
        }
        Div | Pow | Hypot | Atan2 => DType::F64,
        Eq | Ne | Lt | Le | Gt | Ge | And | Or => DType::Bool,
    }
}

impl Wire for DType {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            DType::Bool => 0,
            DType::I64 => 1,
            DType::F64 => 2,
        });
    }
    fn wire_size(&self) -> usize {
        1
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match u8::decode(cur)? {
            0 => Ok(DType::Bool),
            1 => Ok(DType::I64),
            2 => Ok(DType::F64),
            b => Err(CommError::Decode(format!("bad dtype byte {b}"))),
        }
    }
}

impl Wire for Buffer {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.dtype().encode(buf);
        match self {
            Buffer::Bool(v) => v.encode(buf),
            Buffer::I64(v) => v.encode(buf),
            Buffer::F64(v) => v.encode(buf),
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match DType::decode(cur)? {
            DType::Bool => Ok(Buffer::Bool(Vec::decode(cur)?)),
            DType::I64 => Ok(Buffer::I64(Vec::decode(cur)?)),
            DType::F64 => Ok(Buffer::F64(Vec::decode(cur)?)),
        }
    }
    fn wire_size(&self) -> usize {
        // dtype byte + length prefix + fixed-width elements (bools are
        // one byte each on the wire).
        let elem = match self {
            Buffer::Bool(_) => 1,
            Buffer::I64(_) | Buffer::F64(_) => 8,
        };
        1 + 8 + self.len() * elem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_ladder() {
        assert_eq!(DType::Bool.promote(DType::Bool), DType::Bool);
        assert_eq!(DType::Bool.promote(DType::I64), DType::I64);
        assert_eq!(DType::I64.promote(DType::F64), DType::F64);
        assert_eq!(DType::F64.promote(DType::Bool), DType::F64);
    }

    #[test]
    fn astype_conversions() {
        let f = Buffer::F64(vec![0.0, 1.7, -2.3]);
        assert_eq!(f.astype(DType::I64), Buffer::I64(vec![0, 1, -2]));
        assert_eq!(f.astype(DType::Bool), Buffer::Bool(vec![false, true, true]));
        let b = Buffer::Bool(vec![true, false]);
        assert_eq!(b.astype(DType::F64), Buffer::F64(vec![1.0, 0.0]));
    }

    #[test]
    fn wire_roundtrip() {
        for buf in [
            Buffer::F64(vec![1.5, -2.5]),
            Buffer::I64(vec![7, -9]),
            Buffer::Bool(vec![true, false, true]),
        ] {
            let bytes = comm::encode_to_vec(&buf);
            assert_eq!(buf.wire_size(), bytes.len());
            let back: Buffer = comm::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, buf);
        }
    }

    #[test]
    fn gather_scatter_runs_and_concat() {
        let a = Buffer::I64(vec![10, 20, 30, 40, 50]);
        let runs = [
            Run {
                start: 0,
                step: 2,
                n: 3,
            },
            Run {
                start: 1,
                step: 1,
                n: 1,
            },
        ];
        let g = a.gather_runs(&runs, 1);
        assert_eq!(g, Buffer::I64(vec![10, 30, 50, 20]));
        let mut back = Buffer::zeros(DType::I64, 5);
        back.scatter_runs(&runs, 1, &g);
        assert_eq!(back, Buffer::I64(vec![10, 20, 30, 0, 50]));
        let c = Buffer::concat(vec![g, Buffer::I64(vec![99])]);
        assert_eq!(c, Buffer::I64(vec![10, 30, 50, 20, 99]));
    }
}

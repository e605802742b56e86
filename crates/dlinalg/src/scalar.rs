//! Scalar abstraction: the `Scalar` template parameter of Tpetra.
//!
//! The paper (§II-C) highlights that second-generation Trilinos templates
//! vectors on arbitrary scalar types ("whether real, complex, integer, or
//! potentially more exotic"); this module provides the same degree of
//! genericity, including a self-contained [`Complex64`] type that stands in
//! for the Komplex package.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use comm::{CommError, Cursor, Wire};

/// Field scalar usable in distributed vectors and matrices.
pub trait Scalar:
    Copy
    + PartialEq
    + Debug
    + Send
    + Sync
    + 'static
    + Wire
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The associated real type (`Self` for real scalars).
    type Real: RealScalar;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Inject a real double (lossy for `f32`).
    fn from_f64(x: f64) -> Self;
    /// Complex conjugate (identity for reals).
    fn conj(self) -> Self;
    /// Modulus |x|.
    fn abs(self) -> Self::Real;
    /// Squared modulus |x|².
    fn abs_sq(self) -> Self::Real;
    /// Real part.
    fn re(self) -> Self::Real;
    /// Lift a real value into this scalar type.
    fn from_real(r: Self::Real) -> Self;
}

/// Real scalars additionally order and take square roots, which norms need.
pub trait RealScalar: Scalar<Real = Self> + PartialOrd {
    /// Square root.
    fn sqrt(self) -> Self;
    /// Convert to `f64` for reporting.
    fn to_f64(self) -> f64;
}

macro_rules! real_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            type Real = $t;
            fn zero() -> Self {
                0.0
            }
            fn one() -> Self {
                1.0
            }
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            fn conj(self) -> Self {
                self
            }
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            fn abs_sq(self) -> Self {
                self * self
            }
            fn re(self) -> Self {
                self
            }
            fn from_real(r: Self) -> Self {
                r
            }
        }
        impl RealScalar for $t {
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    };
}

real_scalar!(f32);
real_scalar!(f64);

/// A double-precision complex number. Implemented here (rather than pulled
/// from a crate) so the workspace stays within the approved offline
/// dependency set; covers the role of Trilinos' Komplex package.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Construct from parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };
}

impl Add for Complex64 {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Complex64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        Complex64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Self;
    fn div(self, o: Self) -> Self {
        // Smith's algorithm for numerical robustness.
        if o.re.abs() >= o.im.abs() {
            let r = o.im / o.re;
            let d = o.re + o.im * r;
            Complex64::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = o.re / o.im;
            let d = o.re * r + o.im;
            Complex64::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for Complex64 {
    type Output = Self;
    fn neg(self) -> Self {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}

impl Wire for Complex64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.re.encode(buf);
        self.im.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok(Complex64::new(f64::decode(cur)?, f64::decode(cur)?))
    }
    fn wire_size(&self) -> usize {
        16
    }
}

impl Scalar for Complex64 {
    type Real = f64;
    fn zero() -> Self {
        Complex64::new(0.0, 0.0)
    }
    fn one() -> Self {
        Complex64::new(1.0, 0.0)
    }
    fn from_f64(x: f64) -> Self {
        Complex64::new(x, 0.0)
    }
    fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }
    fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
    fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
    fn re(self) -> f64 {
        self.re
    }
    fn from_real(r: f64) -> Self {
        Complex64::new(r, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_scalar_basics() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!(2.0f64.conj(), 2.0);
        assert_eq!((-3.0f64).abs(), 3.0);
        assert_eq!(3.0f64.abs_sq(), 9.0);
        assert_eq!(<f32 as Scalar>::from_f64(1.5), 1.5f32);
        assert_eq!(RealScalar::sqrt(9.0f64), 3.0);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
        // (a * b) / b == a
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < 1e-14);
        assert!((q.im - a.im).abs() < 1e-14);
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn complex_division_is_robust_to_extreme_magnitudes() {
        let a = Complex64::new(1e200, 1e200);
        let b = Complex64::new(2e200, 0.0);
        let q = a / b;
        assert!((q.re - 0.5).abs() < 1e-14);
        assert!((q.im - 0.5).abs() < 1e-14);
        // Divisor dominated by its imaginary part.
        let q2 = Complex64::new(0.0, 1.0) / Complex64::new(1e-30, 1e5);
        assert!(q2.re.is_finite() && q2.im.is_finite());
    }

    #[test]
    fn complex_conj_abs() {
        let a = Complex64::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex64::new(3.0, -4.0));
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.abs_sq(), 25.0);
        assert_eq!(a.re(), 3.0);
        assert_eq!(Complex64::from_real(2.0), Complex64::new(2.0, 0.0));
    }

    #[test]
    fn complex_wire_roundtrip() {
        let a = Complex64::new(-1.25, 7.5);
        let bytes = comm::encode_to_vec(&a);
        assert_eq!(bytes.len(), 16);
        assert_eq!(a.wire_size(), 16);
        let back: Complex64 = comm::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn compound_assignment() {
        let mut a = Complex64::new(1.0, 1.0);
        a += Complex64::new(1.0, 0.0);
        a -= Complex64::new(0.0, 1.0);
        a *= Complex64::new(2.0, 0.0);
        assert_eq!(a, Complex64::new(4.0, 0.0));
    }
}

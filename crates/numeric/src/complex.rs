//! A minimal double-precision complex number.
//!
//! We implement this from scratch (rather than pulling in `num-complex`)
//! because the SPL compiler needs exact, predictable semantics for its
//! compile-time constant folding, and because the dependency policy of this
//! reproduction keeps third-party crates to a minimum.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use spl_numeric::Complex;
/// let i = Complex::i();
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex::new(0.0, 0.0);

    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex::new(1.0, 0.0);

    /// The imaginary unit, `0 + 1i`.
    pub const fn i() -> Self {
        Complex::new(0.0, 1.0)
    }

    /// Creates a purely real complex number.
    pub const fn real(re: f64) -> Self {
        Complex::new(re, 0.0)
    }

    /// Creates a complex number from polar coordinates.
    ///
    /// ```
    /// use spl_numeric::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::PI);
    /// assert!((z.re + 2.0).abs() < 1e-15);
    /// ```
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// The complex conjugate.
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// The modulus (absolute value).
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared modulus, cheaper than [`Complex::norm`].
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The argument (phase angle) in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Does not panic; dividing by zero yields non-finite components, as
    /// with `f64`.
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Returns `true` if the imaginary part is exactly zero.
    pub fn is_real(self) -> bool {
        self.im == 0.0
    }

    /// Returns `true` if both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality within an absolute tolerance on each component.
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division by multiplying with the reciprocal is intentional.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im == 0.0 {
            write!(f, "{}", self.re)
        } else if self.im < 0.0 {
            write!(f, "{}{}i", self.re, self.im)
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        assert_eq!(a + b, Complex::new(4.0, -2.0));
        assert_eq!(a - b, Complex::new(-2.0, 6.0));
    }

    #[test]
    fn mul_matches_definition() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        // (1+2i)(3-4i) = 3 - 4i + 6i + 8 = 11 + 2i
        assert_eq!(a * b, Complex::new(11.0, 2.0));
    }

    #[test]
    fn div_inverts_mul() {
        let a = Complex::new(1.5, -2.25);
        let b = Complex::new(0.5, 3.0);
        let q = (a * b) / b;
        assert!(q.approx_eq(a, 1e-12));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::i() * Complex::i(), Complex::real(-1.0));
    }

    #[test]
    fn mul_i_is_rotation() {
        let z = Complex::new(3.0, 4.0);
        // (a+bi) * i = -b + ai, and * -i = b - ai: a swap and a negation.
        assert_eq!(z * Complex::i(), Complex::new(-4.0, 3.0));
        assert_eq!(z * -Complex::i(), Complex::new(4.0, -3.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.norm() - 2.0).abs() < 1e-14);
        assert!((z.arg() - 0.7).abs() < 1e-14);
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Complex::real(2.0).to_string(), "2");
        assert_eq!(Complex::new(1.0, 1.0).to_string(), "1+1i");
        assert_eq!(Complex::new(1.0, -1.0).to_string(), "1-1i");
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex::new(1.0, 1.0);
        z += Complex::new(1.0, 0.0);
        z -= Complex::new(0.0, 1.0);
        z *= Complex::new(2.0, 0.0);
        assert_eq!(z, Complex::new(4.0, 0.0));
    }

    #[test]
    fn recip_of_one_is_one() {
        assert!(Complex::ONE.recip().approx_eq(Complex::ONE, 0.0));
    }
}

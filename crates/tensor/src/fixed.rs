//! Q8.8 16-bit fixed-point arithmetic.
//!
//! The EVA² warp engine is a 16-bit fixed-point datapath: its bilinear
//! interpolator "computes wide intermediate values and then shifts the final
//! result back to a 16-bit fixed-point representation" (§III-B of the paper).
//! [`Fixed`] models that datapath bit-accurately so the software warp engine
//! in `eva2-core` reproduces the hardware's rounding behaviour, and tests can
//! bound the quantization error against the `f32` reference path.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Number of fractional bits in the Q8.8 representation.
pub const FRAC_BITS: u32 = 8;

/// The fixed-point scale factor (`2^FRAC_BITS`).
pub const SCALE: i32 = 1 << FRAC_BITS;

/// A Q8.8 signed fixed-point value stored in 16 bits.
///
/// Addition and subtraction saturate at the 16-bit boundaries, matching
/// hardware adders with saturation logic. Multiplication widens to 32 bits
/// internally and shifts back, exactly like the warp engine's weighting units
/// (Fig 11).
///
/// # Example
///
/// ```
/// use eva2_tensor::Fixed;
///
/// let a = Fixed::from_f32(1.5);
/// let b = Fixed::from_f32(0.25);
/// assert_eq!((a * b).to_f32(), 0.375);
/// assert_eq!((a + b).to_f32(), 1.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed(i16);

impl Fixed {
    /// The zero value.
    pub const ZERO: Fixed = Fixed(0);
    /// The value 1.0.
    pub const ONE: Fixed = Fixed(SCALE as i16);
    /// Largest representable value (≈ 127.996).
    pub const MAX: Fixed = Fixed(i16::MAX);
    /// Smallest representable value (−128.0).
    pub const MIN: Fixed = Fixed(i16::MIN);

    /// Converts from `f32`, rounding to nearest and saturating.
    pub fn from_f32(v: f32) -> Self {
        let scaled = (v * SCALE as f32).round();
        Fixed(scaled.clamp(i16::MIN as f32, i16::MAX as f32) as i16)
    }

    /// Converts back to `f32` (exact).
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / SCALE as f32
    }

    /// Constructs from the raw 16-bit pattern.
    pub const fn from_bits(bits: i16) -> Self {
        Fixed(bits)
    }

    /// The raw 16-bit pattern.
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Self) -> Self {
        Fixed(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Fixed(self.0.saturating_sub(rhs.0))
    }

    /// Fixed-point multiply: widen to 32 bits, multiply, shift back with
    /// truncation toward negative infinity (an arithmetic right shift),
    /// saturate to 16 bits.
    ///
    /// Truncation (not rounding) matches the single `>>` barrel shifter at
    /// the output of the interpolator datapath in Fig 11.
    pub fn wrapping_mul_shift(self, rhs: Self) -> Self {
        let wide = (self.0 as i32) * (rhs.0 as i32);
        let shifted = wide >> FRAC_BITS;
        Fixed(shifted.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }

    /// Absolute value, saturating at `Fixed::MAX` for `Fixed::MIN`.
    pub fn abs(self) -> Self {
        if self.0 == i16::MIN {
            Fixed::MAX
        } else {
            Fixed(self.0.abs())
        }
    }

    /// `true` when the value is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Fixed {
    type Output = Fixed;

    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl Sub for Fixed {
    type Output = Fixed;

    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl Mul for Fixed {
    type Output = Fixed;

    fn mul(self, rhs: Self) -> Self {
        self.wrapping_mul_shift(rhs)
    }
}

impl Neg for Fixed {
    type Output = Fixed;

    fn neg(self) -> Self {
        Fixed(self.0.saturating_neg())
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.to_f32())
    }
}

impl From<Fixed> for f32 {
    fn from(v: Fixed) -> f32 {
        v.to_f32()
    }
}

/// Quantizes an `f32` through the Q8.8 grid (round-trip conversion).
///
/// Handy for preparing float reference data that should agree exactly with
/// the fixed-point datapath.
pub fn quantize(v: f32) -> f32 {
    Fixed::from_f32(v).to_f32()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact_on_grid() {
        for raw in [-32768i32, -256, -1, 0, 1, 255, 256, 32767] {
            let f = Fixed::from_bits(raw as i16);
            assert_eq!(Fixed::from_f32(f.to_f32()), f);
        }
    }

    #[test]
    fn conversion_saturates() {
        assert_eq!(Fixed::from_f32(1e6), Fixed::MAX);
        assert_eq!(Fixed::from_f32(-1e6), Fixed::MIN);
    }

    #[test]
    fn addition_saturates() {
        assert_eq!(Fixed::MAX + Fixed::ONE, Fixed::MAX);
        assert_eq!(Fixed::MIN - Fixed::ONE, Fixed::MIN);
    }

    #[test]
    fn multiplication_truncates() {
        // 0.00390625 * 0.5 = 0.001953125, which truncates to 0 in Q8.8.
        let tiny = Fixed::from_bits(1);
        let half = Fixed::from_f32(0.5);
        assert_eq!(tiny * half, Fixed::ZERO);
        // Negative values truncate toward negative infinity (arithmetic shift).
        let neg_tiny = Fixed::from_bits(-1);
        assert_eq!(neg_tiny * half, Fixed::from_bits(-1));
    }

    #[test]
    fn one_is_multiplicative_identity() {
        for raw in [-3000i16, -1, 0, 1, 77, 3000] {
            let v = Fixed::from_bits(raw);
            assert_eq!(v * Fixed::ONE, v);
        }
    }

    #[test]
    fn abs_handles_min() {
        assert_eq!(Fixed::MIN.abs(), Fixed::MAX);
        assert_eq!(Fixed::from_f32(-2.0).abs(), Fixed::from_f32(2.0));
    }

    #[test]
    fn neg_is_saturating() {
        assert_eq!(-Fixed::MIN, Fixed::MAX);
        assert_eq!((-Fixed::ONE).to_f32(), -1.0);
    }

    #[test]
    fn quantize_is_idempotent() {
        for v in [-3.7f32, -0.001, 0.0, 0.4999, 12.75] {
            let q = quantize(v);
            assert_eq!(quantize(q), q);
            assert!((q - v).abs() <= 0.5 / SCALE as f32 + f32::EPSILON);
        }
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Fixed::from_f32(1.5).to_string(), "1.5000");
    }
}

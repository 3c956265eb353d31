use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use crate::{Shape, ShapeError};

/// A contiguous, row-major dense tensor of `f32` values.
///
/// `Tensor` is the single value type that flows through the whole AdvHunter
/// stack: images, layer activations, weights, and gradients. It deliberately
/// has no views or broadcasting beyond what the CNN kernels need.
///
/// # Example
///
/// ```
/// use advhunter_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from raw data interpreted under `dims`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not match the element
    /// count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, ShapeError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(ShapeError::new(dims, data.len()));
        }
        Ok(Self { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the data under a new shape with the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.len(),
            "cannot reshape {} elements into {shape}",
            self.len()
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.rank(),
            "index rank {} does not match tensor rank {}",
            index.len(),
            self.shape.rank()
        );
        let strides = self.shape.strides();
        let mut off = 0;
        for (axis, (&i, &s)) in index.iter().zip(strides.iter()).enumerate() {
            assert!(
                i < self.shape.dim(axis),
                "index {i} out of bounds for axis {axis} of size {}",
                self.shape.dim(axis)
            );
            off += i * s;
        }
        off
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other, "zip");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (ties resolve to the first).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Euclidean (L2) norm of all elements.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute value (L∞ norm).
    pub fn linf_norm(&self) -> f32 {
        self.data.iter().map(|&x| x.abs()).fold(0.0, f32::max)
    }

    /// Clamps every element into `[lo, hi]` in place.
    pub fn clamp_inplace(&mut self, lo: f32, hi: f32) {
        for x in &mut self.data {
            *x = x.clamp(lo, hi);
        }
    }

    /// Adds `scale * other` into `self` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        self.assert_same_shape(other, "add_scaled");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_inplace(&mut self, scale: f32) {
        for x in &mut self.data {
            *x *= scale;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Extracts image `n` from an NCHW batch as a CHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or `n` is out of range.
    pub fn image(&self, n: usize) -> Tensor {
        let (batch, c, h, w) = self.shape.as_nchw();
        assert!(n < batch, "image index {n} out of range for batch {batch}");
        let stride = c * h * w;
        Tensor {
            shape: Shape::new(&[c, h, w]),
            data: self.data[n * stride..(n + 1) * stride].to_vec(),
        }
    }

    /// Stacks CHW tensors into an NCHW batch.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or the shapes are not all equal.
    pub fn stack(images: &[Tensor]) -> Tensor {
        assert!(!images.is_empty(), "cannot stack zero tensors");
        let first = images[0].shape().clone();
        let mut dims = vec![images.len()];
        dims.extend_from_slice(first.dims());
        let mut data = Vec::with_capacity(first.len() * images.len());
        for img in images {
            assert_eq!(
                img.shape(),
                &first,
                "all stacked tensors must share one shape"
            );
            data.extend_from_slice(img.data());
        }
        Tensor {
            shape: Shape::new(&dims),
            data,
        }
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op} requires equal shapes: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().copied().take(8).collect();
        write!(
            f,
            "Tensor {{ shape: {}, data: {preview:?}{} }}",
            self.shape,
            if self.data.len() > 8 { ", ..." } else { "" }
        )
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<&Tensor> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b)
    }
}

impl Div<&Tensor> for &Tensor {
    type Output = Tensor;

    fn div(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a / b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.add_scaled(rhs, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_as_documented() {
        assert!(Tensor::zeros(&[2, 2]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
        let eye = Tensor::eye(3);
        assert_eq!(eye.at(&[1, 1]), 1.0);
        assert_eq!(eye.at(&[0, 2]), 0.0);
        assert_eq!(eye.sum(), 3.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2]).is_ok());
        let err = Tensor::from_vec(vec![1.0, 2.0], &[3]).unwrap_err();
        assert_eq!(err.expected(), 3);
        assert_eq!(err.actual(), 2);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.data()[5], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_rejects_out_of_bounds() {
        Tensor::zeros(&[2, 3]).at(&[0, 3]);
    }

    #[test]
    fn reductions_match_hand_computation() {
        let t = Tensor::from_slice(&[1.0, -4.0, 2.5]);
        assert_eq!(t.sum(), -0.5);
        assert!((t.mean() - (-0.5 / 3.0)).abs() < 1e-7);
        assert_eq!(t.max(), 2.5);
        assert_eq!(t.min(), -4.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.linf_norm(), 4.0);
        assert!((t.l2_norm() - (1.0f32 + 16.0 + 6.25).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn elementwise_operators() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).data(), &[4.0, 7.0]);
        assert_eq!((&b - &a).data(), &[2.0, 3.0]);
        assert_eq!((&a * &b).data(), &[3.0, 10.0]);
        assert_eq!((&b / &a).data(), &[3.0, 2.5]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn clamp_restricts_range() {
        let mut t = Tensor::from_slice(&[-2.0, 0.5, 3.0]);
        t.clamp_inplace(0.0, 1.0);
        assert_eq!(t.data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn stack_and_image_round_trip() {
        let a = Tensor::full(&[1, 2, 2], 1.0);
        let b = Tensor::full(&[1, 2, 2], 2.0);
        let batch = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(batch.shape().dims(), &[2, 1, 2, 2]);
        assert_eq!(batch.image(0), a);
        assert_eq!(batch.image(1), b);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let m = t.reshape(&[2, 2]);
        assert_eq!(m.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_bad_count() {
        Tensor::from_slice(&[1.0]).reshape(&[2]);
    }
}

//! Labeled image collections and train/val/test splits.

use advhunter_tensor::Tensor;

/// A labeled set of CHW images.
///
/// # Example
///
/// ```
/// use advhunter_data::Dataset;
/// use advhunter_tensor::Tensor;
///
/// let ds = Dataset::new(
///     "toy",
///     vec![Tensor::zeros(&[1, 2, 2]), Tensor::ones(&[1, 2, 2])],
///     vec![0, 1],
///     2,
/// );
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.indices_of_class(1), vec![1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    images: Vec<Tensor>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `images` and `labels` differ in length, a label is out of
    /// range, or images disagree on shape.
    pub fn new(name: &str, images: Vec<Tensor>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.len(), labels.len(), "one label per image");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        if let Some(first) = images.first() {
            assert!(
                images.iter().all(|i| i.shape() == first.shape()),
                "all images must share one shape"
            );
        }
        Self {
            name: name.to_string(),
            images,
            labels,
            num_classes,
        }
    }

    /// Dataset name (e.g. `"cifar10-like"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// CHW dimensions of each image.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn dims(&self) -> &[usize] {
        self.images
            .first()
            .expect("dims of empty dataset")
            .shape()
            .dims()
    }

    /// The images.
    pub fn images(&self) -> &[Tensor] {
        &self.images
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Image `i` and its label.
    pub fn item(&self, i: usize) -> (&Tensor, usize) {
        (&self.images[i], self.labels[i])
    }

    /// Indices of every image of class `c`.
    pub fn indices_of_class(&self, c: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == c).then_some(i))
            .collect()
    }

    /// Images of class `c` (borrowed).
    pub fn images_of_class(&self, c: usize) -> Vec<&Tensor> {
        self.indices_of_class(c)
            .into_iter()
            .map(|i| &self.images[i])
            .collect()
    }
}

/// Images per class in each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitSizes {
    /// Training images per class.
    pub train: usize,
    /// Clean validation images per class (the defender's `M` budget pool).
    pub val: usize,
    /// Held-out test images per class.
    pub test: usize,
}

impl Default for SplitSizes {
    fn default() -> Self {
        Self {
            train: 150,
            val: 80,
            test: 60,
        }
    }
}

/// A train/val/test split of one synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitDataset {
    /// Training split.
    pub train: Dataset,
    /// Validation split (clean images the defender may use).
    pub val: Dataset,
    /// Test split.
    pub test: Dataset,
}

impl SplitDataset {
    /// The per-class [`SplitSizes`] this split was generated from.
    ///
    /// Scenario splits are class-balanced (every generator produces the
    /// same count per class), so the sizes are recoverable as
    /// `len / num_classes` — useful for re-deriving the pipeline
    /// configuration that addresses an existing split's artifacts.
    pub fn sizes_per_class(&self) -> SplitSizes {
        let per_class = |d: &Dataset| {
            if d.num_classes() == 0 {
                0
            } else {
                d.len() / d.num_classes()
            }
        };
        SplitSizes {
            train: per_class(&self.train),
            val: per_class(&self.val),
            test: per_class(&self.test),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_per_class: usize, classes: usize) -> Dataset {
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for c in 0..classes {
            for i in 0..n_per_class {
                images.push(Tensor::full(&[1, 2, 2], (c * 100 + i) as f32));
                labels.push(c);
            }
        }
        Dataset::new("toy", images, labels, classes)
    }

    #[test]
    fn class_indexing_finds_all_members() {
        let ds = toy(3, 4);
        for c in 0..4 {
            assert_eq!(ds.indices_of_class(c).len(), 3);
            assert!(ds.indices_of_class(c).iter().all(|&i| ds.labels()[i] == c));
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        Dataset::new("bad", vec![Tensor::zeros(&[1, 1, 1])], vec![5], 2);
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn rejects_ragged_images() {
        Dataset::new(
            "bad",
            vec![Tensor::zeros(&[1, 1, 1]), Tensor::zeros(&[1, 2, 2])],
            vec![0, 0],
            1,
        );
    }
}

//! Ready-made dataset families matching the paper's three scenarios.
//!
//! [`DatasetFamily`] is the slug-addressed form graph specs use: a `.ahg`
//! file names a family (`dataset cifar10-like`) and supplies its own
//! dimensions, class count, and seed; the family contributes the noise /
//! jitter / prototype character of the distribution plus human-readable
//! class names. The three original helpers are thin wrappers over the
//! family table with the canonical scenario geometry.

use advhunter_runtime::Parallelism;

use crate::synth::{generate, SynthConfig};
use crate::{SplitDataset, SplitSizes};

/// A synthetic dataset family, addressed by the slug that appears in
/// `.ahg` graph specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetFamily {
    /// FashionMNIST stand-in (grayscale apparel, soft shape masks).
    FashionMnist,
    /// CIFAR-10 stand-in (noisy color photos, no shape masks).
    Cifar10,
    /// GTSRB stand-in (high-contrast traffic-sign shape masks).
    Gtsrb,
}

impl DatasetFamily {
    /// Every family, in scenario order.
    pub const ALL: [DatasetFamily; 3] = [Self::FashionMnist, Self::Cifar10, Self::Gtsrb];

    /// The slug used in `.ahg` specs.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Self::FashionMnist => "fashionmnist-like",
            Self::Cifar10 => "cifar10-like",
            Self::Gtsrb => "gtsrb-like",
        }
    }

    /// Resolves a spec slug.
    #[must_use]
    pub fn from_slug(slug: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.slug() == slug)
    }

    /// Human-readable family name.
    #[must_use]
    pub fn display_name(self) -> &'static str {
        match self {
            Self::FashionMnist => "FashionMNIST-like",
            Self::Cifar10 => "CIFAR10-like",
            Self::Gtsrb => "GTSRB-like",
        }
    }

    /// The family's generator configuration for the given geometry. The
    /// noise / jitter / prototype knobs are fixed per family (they define
    /// it); dimensions, class count, and seed come from the spec.
    #[must_use]
    pub fn synth_config(self, dims: [usize; 3], num_classes: usize, seed: u64) -> SynthConfig {
        match self {
            Self::FashionMnist => SynthConfig {
                name: self.slug().into(),
                dims,
                num_classes,
                prototypes_per_class: 3,
                noise: 0.22,
                jitter: 4,
                seed,
                shape_strength: 0.4,
                class_confusion: 0.08,
            },
            Self::Cifar10 => SynthConfig {
                name: self.slug().into(),
                dims,
                num_classes,
                prototypes_per_class: 3,
                noise: 0.28,
                jitter: 5,
                seed,
                shape_strength: 0.0,
                class_confusion: 0.12,
            },
            Self::Gtsrb => SynthConfig {
                name: self.slug().into(),
                dims,
                num_classes,
                prototypes_per_class: 2,
                noise: 0.15,
                jitter: 3,
                seed,
                shape_strength: 0.6,
                class_confusion: 0.05,
            },
        }
    }

    /// Generates train/val/test splits with the family's character at the
    /// given geometry — the data half of running a graph spec end to end.
    /// Renders on the environment's default [`Parallelism`]; the split is
    /// the same at any worker count.
    #[must_use]
    pub fn generate(
        self,
        dims: [usize; 3],
        num_classes: usize,
        seed: u64,
        sizes: &SplitSizes,
    ) -> SplitDataset {
        self.generate_with(dims, num_classes, seed, sizes, &Parallelism::default())
    }

    /// [`generate`](Self::generate) rendering on `parallelism`.
    #[must_use]
    pub fn generate_with(
        self,
        dims: [usize; 3],
        num_classes: usize,
        seed: u64,
        sizes: &SplitSizes,
        parallelism: &Parallelism,
    ) -> SplitDataset {
        generate(
            &self.synth_config(dims, num_classes, seed),
            sizes,
            parallelism,
        )
    }

    /// Human-readable class names for an `n`-class instance of the family
    /// (from the real datasets the synthetic ones stand in for; classes
    /// past the named table get a generic name).
    #[must_use]
    pub fn class_names(self, n: usize) -> Vec<String> {
        match self {
            Self::FashionMnist => named_or(
                &[
                    "t-shirt",
                    "trouser",
                    "pullover",
                    "dress",
                    "coat",
                    "sandal",
                    "shirt",
                    "sneaker",
                    "bag",
                    "ankle boot",
                ],
                n,
            ),
            Self::Cifar10 => named_or(
                &[
                    "airplane",
                    "automobile",
                    "bird",
                    "cat",
                    "deer",
                    "dog",
                    "frog",
                    "horse",
                    "ship",
                    "truck",
                ],
                n,
            ),
            Self::Gtsrb => {
                let named = [
                    (0, "speed limit (20km/h)"),
                    (1, "speed limit (30km/h)"),
                    (2, "speed limit (50km/h)"),
                    (3, "speed limit (60km/h)"),
                    (4, "speed limit (70km/h)"),
                    (5, "speed limit (80km/h)"),
                    (7, "speed limit (100km/h)"),
                    (8, "speed limit (120km/h)"),
                    (9, "no passing"),
                    (11, "right-of-way"),
                    (12, "priority road"),
                    (13, "yield"),
                    (14, "stop"),
                    (17, "no entry"),
                    (18, "general caution"),
                    (25, "road work"),
                    (33, "turn right ahead"),
                    (34, "turn left ahead"),
                    (35, "ahead only"),
                    (40, "roundabout mandatory"),
                ];
                (0..n)
                    .map(|i| {
                        named
                            .iter()
                            .find(|(idx, _)| *idx == i)
                            .map(|(_, name)| (*name).to_string())
                            .unwrap_or_else(|| format!("sign class {i}"))
                    })
                    .collect()
            }
        }
    }
}

fn named_or(names: &[&str], n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            names
                .get(i)
                .map(|s| (*s).to_string())
                .unwrap_or_else(|| format!("class {i}"))
        })
        .collect()
}

/// FashionMNIST stand-in: 1×28×28 grayscale, 10 classes (scenario S1).
///
/// Noise and jitter are tuned so micro CNNs land near the paper's clean
/// accuracy (92.3 % on the real dataset), not at a trivial 100 %.
pub fn fashion_mnist_like(seed: u64, sizes: &SplitSizes) -> SplitDataset {
    DatasetFamily::FashionMnist.generate([1, 28, 28], 10, seed, sizes)
}

/// CIFAR-10 stand-in: 3×32×32 color, 10 classes (scenario S2).
///
/// The hardest of the three (matching the real datasets' ordering): heavy
/// pixel noise and jitter keep clean accuracy near the paper's 88.6 %.
pub fn cifar10_like(seed: u64, sizes: &SplitSizes) -> SplitDataset {
    DatasetFamily::Cifar10.generate([3, 32, 32], 10, seed, sizes)
}

/// GTSRB stand-in: 3×32×32 color, 43 classes with traffic-sign-style shape
/// masks (scenario S3). Signs are high-contrast, so moderate noise keeps
/// accuracy near the paper's 96.7 %.
pub fn gtsrb_like(seed: u64, sizes: &SplitSizes) -> SplitDataset {
    DatasetFamily::Gtsrb.generate([3, 32, 32], 43, seed, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_shapes_match_the_paper() {
        let sizes = SplitSizes {
            train: 1,
            val: 1,
            test: 1,
        };
        let s1 = fashion_mnist_like(0, &sizes);
        assert_eq!(s1.train.dims(), &[1, 28, 28]);
        assert_eq!(s1.train.num_classes(), 10);

        let s2 = cifar10_like(0, &sizes);
        assert_eq!(s2.train.dims(), &[3, 32, 32]);
        assert_eq!(s2.train.num_classes(), 10);

        let s3 = gtsrb_like(0, &sizes);
        assert_eq!(s3.train.dims(), &[3, 32, 32]);
        assert_eq!(s3.train.num_classes(), 43);
    }

    #[test]
    fn scenario_names_distinguish_splits() {
        let sizes = SplitSizes {
            train: 1,
            val: 1,
            test: 1,
        };
        let s = cifar10_like(0, &sizes);
        assert!(s.train.name().contains("train"));
        assert!(s.val.name().contains("val"));
        assert!(s.test.name().contains("test"));
    }
}

//! The procedural image generator.

use advhunter_runtime::{parallel_for_each_mut_with, Parallelism};
use advhunter_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Dataset, SplitDataset, SplitSizes};

/// Configuration of one synthetic dataset family.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Dataset name.
    pub name: String,
    /// CHW image dimensions.
    pub dims: [usize; 3],
    /// Number of classes.
    pub num_classes: usize,
    /// Prototypes per class (≥ 2 gives intra-class multimodality).
    pub prototypes_per_class: usize,
    /// Pixel noise standard deviation.
    pub noise: f32,
    /// Maximum spatial jitter in pixels.
    pub jitter: usize,
    /// Master seed: fixes classes, prototypes, and image instances.
    pub seed: u64,
    /// Strength of the traffic-sign-style shape mask (0 disables).
    pub shape_strength: f32,
    /// Probability that an image blends in a neighboring class's prototype,
    /// creating genuinely ambiguous images that cap achievable accuracy
    /// (the synthetic analogue of the real datasets' hard examples).
    pub class_confusion: f32,
}

/// One class prototype: a parametric pattern combining an oriented grating,
/// a few Gaussian blobs, and an optional centered shape mask.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPrototype {
    grating_freq: f32,
    grating_theta: f32,
    grating_phase: f32,
    grating_amp: [f32; 3],
    blobs: Vec<Blob>,
    shape: ShapeMask,
    base: [f32; 3],
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Blob {
    cx: f32,
    cy: f32,
    sigma: f32,
    amp: [f32; 3],
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ShapeMask {
    None,
    Disk { r: f32 },
    Triangle { r: f32 },
    Square { r: f32 },
}

impl ClassPrototype {
    /// Draws a prototype for class `class` / prototype slot `proto` under
    /// the master seed of `cfg`.
    pub fn derive(cfg: &SynthConfig, class: usize, proto: usize) -> Self {
        // A dedicated RNG per (class, prototype) keeps prototypes stable no
        // matter how many images are generated.
        let mut rng = StdRng::seed_from_u64(
            cfg.seed ^ (class as u64).wrapping_mul(0x9E37_79B9) ^ ((proto as u64) << 40),
        );
        let n_blobs = rng.gen_range(2..=4);
        let blobs = (0..n_blobs)
            .map(|_| Blob {
                cx: rng.gen_range(0.2..0.8),
                cy: rng.gen_range(0.2..0.8),
                sigma: rng.gen_range(0.06..0.2),
                amp: [
                    rng.gen_range(-0.9..0.9),
                    rng.gen_range(-0.9..0.9),
                    rng.gen_range(-0.9..0.9),
                ],
            })
            .collect();
        let shape = if cfg.shape_strength > 0.0 {
            match class % 3 {
                0 => ShapeMask::Disk {
                    r: rng.gen_range(0.28..0.38),
                },
                1 => ShapeMask::Triangle {
                    r: rng.gen_range(0.3..0.42),
                },
                _ => ShapeMask::Square {
                    r: rng.gen_range(0.25..0.36),
                },
            }
        } else {
            ShapeMask::None
        };
        Self {
            grating_freq: rng.gen_range(1.0..5.0),
            grating_theta: rng.gen_range(0.0..std::f32::consts::PI),
            grating_phase: rng.gen_range(0.0..std::f32::consts::TAU),
            grating_amp: [
                rng.gen_range(0.1..0.5),
                rng.gen_range(0.1..0.5),
                rng.gen_range(0.1..0.5),
            ],
            blobs,
            shape,
            base: [
                rng.gen_range(0.3..0.7),
                rng.gen_range(0.3..0.7),
                rng.gen_range(0.3..0.7),
            ],
        }
    }

    /// Renders one image instance with the given jitter offset, per-instance
    /// amplitude scale, and pixel noise.
    pub fn render(
        &self,
        cfg: &SynthConfig,
        dx: f32,
        dy: f32,
        scale: f32,
        rng: &mut impl Rng,
    ) -> Tensor {
        let mut img = Tensor::zeros(&cfg.dims);
        self.render_into(cfg, (dx, dy, scale), img.data_mut(), || {
            let (u1, u2) = noise_uniforms(rng);
            box_muller(u1, u2)
        });
        img
    }

    /// [`render`](Self::render) into `data` (every pixel is assigned), with
    /// the pixel noise drawn from `noise`, one standard normal per pixel in
    /// channel, row, column order.
    fn render_into(
        &self,
        cfg: &SynthConfig,
        (dx, dy, scale): (f32, f32, f32),
        data: &mut [f32],
        mut noise: impl FnMut() -> f32,
    ) {
        let [c, h, w] = cfg.dims;
        let (st, ct) = self.grating_theta.sin_cos();
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let u = x as f32 / w as f32 - 0.5 + dx;
                    let v = y as f32 / h as f32 - 0.5 + dy;
                    // Oriented grating.
                    let t = (u * ct + v * st) * self.grating_freq * std::f32::consts::TAU
                        + self.grating_phase;
                    let mut val = self.base[ch % 3] + scale * self.grating_amp[ch % 3] * t.sin();
                    // Gaussian blobs.
                    for b in &self.blobs {
                        let du = u + 0.5 - b.cx;
                        let dv = v + 0.5 - b.cy;
                        let g = (-(du * du + dv * dv) / (2.0 * b.sigma * b.sigma)).exp();
                        val += scale * b.amp[ch % 3] * g;
                    }
                    // Shape mask (traffic-sign-style silhouette).
                    let inside = match self.shape {
                        ShapeMask::None => 0.0,
                        ShapeMask::Disk { r } => {
                            if u * u + v * v < r * r {
                                1.0
                            } else {
                                -0.4
                            }
                        }
                        ShapeMask::Triangle { r } => {
                            // Upward triangle: inside when below the two edges.
                            if v > -r && v < r && u.abs() < (r - v) * 0.6 {
                                1.0
                            } else {
                                -0.4
                            }
                        }
                        ShapeMask::Square { r } => {
                            if u.abs() < r && v.abs() < r {
                                1.0
                            } else {
                                -0.4
                            }
                        }
                    };
                    val += cfg.shape_strength * inside * (0.4 + 0.2 * (ch % 3) as f32);
                    // Pixel noise.
                    val += cfg.noise * noise();
                    data[(ch * h + y) * w + x] = val.clamp(0.0, 1.0);
                }
            }
        }
    }
}

/// Images whose draws are taken before the crew renders them together: a
/// bounded buffer of noise uniforms, however large the split.
const RENDER_BATCH: usize = 32;

/// Every random draw of one image, taken from the split's single RNG stream
/// in the order rendering used to consume them, so that the pixels can then
/// be rendered on any thread. The image buffers are allocated by the
/// caller, so the split's memory stays in the calling thread's allocator
/// arena whichever thread renders it.
#[derive(Debug, Default)]
struct ImageDraw {
    class: usize,
    proto: usize,
    dx: f32,
    dy: f32,
    scale: f32,
    /// `(u1, u2)` per pixel for the prototype's noise.
    noise: Vec<f32>,
    /// A hard example's blended `(class, prototype)`, with its own noise
    /// and a buffer to render it into.
    blend: Option<(usize, usize)>,
    blend_noise: Vec<f32>,
    blend_image: Vec<f32>,
    /// The rendered image, taken by the caller once the batch is done.
    image: Option<Tensor>,
}

impl ImageDraw {
    /// Draws one image of `class`: prototype, jitter, scale, per-pixel
    /// noise, then the class-confusion draws and the blend's noise.
    fn draw(&mut self, cfg: &SynthConfig, class: usize, rng: &mut StdRng) {
        let pixels = cfg.dims.iter().product::<usize>();
        let draw_noise = |buf: &mut Vec<f32>, rng: &mut StdRng| {
            buf.clear();
            for _ in 0..pixels {
                let (u1, u2) = noise_uniforms(rng);
                buf.extend([u1, u2]);
            }
        };
        self.class = class;
        self.proto = rng.gen_range(0..cfg.prototypes_per_class);
        let jit = cfg.jitter as f32 / cfg.dims[2] as f32;
        self.dx = rng.gen_range(-jit..=jit);
        self.dy = rng.gen_range(-jit..=jit);
        self.scale = rng.gen_range(0.9..1.1);
        draw_noise(&mut self.noise, rng);
        self.blend = None;
        if cfg.class_confusion > 0.0 && rng.gen::<f32>() < cfg.class_confusion {
            // Hard example: blend with a neighboring class.
            let other_class = (class + 1 + rng.gen_range(0..cfg.num_classes - 1)) % cfg.num_classes;
            self.blend = Some((other_class, rng.gen_range(0..cfg.prototypes_per_class)));
            draw_noise(&mut self.blend_noise, rng);
            self.blend_image.resize(pixels, 0.0);
        }
        self.image = Some(Tensor::zeros(&cfg.dims));
    }

    fn render(&mut self, cfg: &SynthConfig, prototypes: &[Vec<ClassPrototype>]) {
        let jitter = (self.dx, self.dy, self.scale);
        let render = |(class, proto): (usize, usize), noise: &[f32], out: &mut [f32]| {
            let mut pairs = noise.chunks_exact(2);
            prototypes[class][proto].render_into(cfg, jitter, out, || {
                let pair = pairs.next().expect("one noise pair per pixel");
                box_muller(pair[0], pair[1])
            });
        };
        let img = self.image.as_mut().expect("drawn before rendering");
        render((self.class, self.proto), &self.noise, img.data_mut());
        if let Some(other) = self.blend {
            render(other, &self.blend_noise, &mut self.blend_image);
            img.scale_inplace(0.72);
            for (a, &b) in img.data_mut().iter_mut().zip(&self.blend_image) {
                *a += 0.28 * b;
            }
        }
    }
}

/// Generates the full train/val/test split for a configuration.
///
/// Every image is drawn independently: pick a prototype of its class, jitter
/// it, scale it, add noise. Splits are disjoint by construction because each
/// image is a fresh sample.
///
/// One RNG stream makes every draw, in a fixed order; batches of drawn
/// images then render over `parallelism`. Rendering is a pure function of
/// an image's draws, so the split is bit-for-bit the same at any worker
/// count.
pub(crate) fn generate(
    cfg: &SynthConfig,
    sizes: &SplitSizes,
    parallelism: &Parallelism,
) -> SplitDataset {
    let prototypes: Vec<Vec<ClassPrototype>> = (0..cfg.num_classes)
        .map(|class| {
            (0..cfg.prototypes_per_class)
                .map(|p| ClassPrototype::derive(cfg, class, p))
                .collect()
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut draws: Vec<ImageDraw> = Vec::new();
    let mut make_split = |per_class: usize, tag: &str| {
        let labels: Vec<usize> = (0..cfg.num_classes)
            .flat_map(|class| std::iter::repeat_n(class, per_class))
            .collect();
        let mut images = Vec::with_capacity(labels.len());
        for batch in labels.chunks(RENDER_BATCH) {
            draws.resize_with(batch.len(), ImageDraw::default);
            for (draw, &class) in draws.iter_mut().zip(batch) {
                draw.draw(cfg, class, &mut rng);
            }
            parallel_for_each_mut_with(
                parallelism,
                &mut draws,
                || (),
                |(), _, draw| draw.render(cfg, &prototypes),
            );
            images.extend(draws.iter_mut().map(|d| d.image.take().expect("rendered")));
        }
        Dataset::new(
            &format!("{}-{tag}", cfg.name),
            images,
            labels,
            cfg.num_classes,
        )
    };
    SplitDataset {
        train: make_split(sizes.train, "train"),
        val: make_split(sizes.val, "val"),
        test: make_split(sizes.test, "test"),
    }
}

/// The two uniforms of one Box–Muller normal, in draw order.
fn noise_uniforms(rng: &mut impl Rng) -> (f32, f32) {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

fn box_muller(u1: f32, u2: f32) -> f32 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SynthConfig {
        SynthConfig {
            name: "test".into(),
            dims: [3, 16, 16],
            num_classes: 4,
            prototypes_per_class: 2,
            noise: 0.05,
            jitter: 2,
            seed: 11,
            shape_strength: 0.0,
            class_confusion: 0.0,
        }
    }

    #[test]
    fn images_are_in_unit_range() {
        let split = generate(
            &cfg(),
            &SplitSizes {
                train: 3,
                val: 2,
                test: 2,
            },
            &Parallelism::sequential(),
        );
        for img in split.train.images() {
            assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn split_sizes_are_respected() {
        let split = generate(
            &cfg(),
            &SplitSizes {
                train: 5,
                val: 3,
                test: 2,
            },
            &Parallelism::sequential(),
        );
        assert_eq!(split.train.len(), 20);
        assert_eq!(split.val.len(), 12);
        assert_eq!(split.test.len(), 8);
        assert_eq!(split.train.dims(), &[3, 16, 16]);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(
            &cfg(),
            &SplitSizes {
                train: 2,
                val: 1,
                test: 1,
            },
            &Parallelism::sequential(),
        );
        let b = generate(
            &cfg(),
            &SplitSizes {
                train: 2,
                val: 1,
                test: 1,
            },
            &Parallelism::sequential(),
        );
        assert_eq!(a.train, b.train);
        assert_eq!(a.val, b.val);
    }

    #[test]
    fn different_seeds_differ() {
        let mut c2 = cfg();
        c2.seed = 12;
        let a = generate(
            &cfg(),
            &SplitSizes {
                train: 2,
                val: 1,
                test: 1,
            },
            &Parallelism::sequential(),
        );
        let b = generate(
            &c2,
            &SplitSizes {
                train: 2,
                val: 1,
                test: 1,
            },
            &Parallelism::sequential(),
        );
        assert_ne!(a.train, b.train);
    }

    #[test]
    fn classes_are_statistically_distinct() {
        // Mean image of one class should be far from the mean image of
        // another relative to the within-class spread.
        let split = generate(
            &cfg(),
            &SplitSizes {
                train: 20,
                val: 1,
                test: 1,
            },
            &Parallelism::sequential(),
        );
        let mean_of = |c: usize| {
            let imgs = split.train.images_of_class(c);
            let mut acc = Tensor::zeros(split.train.dims());
            for img in &imgs {
                acc.add_scaled(img, 1.0 / imgs.len() as f32);
            }
            acc
        };
        let m0 = mean_of(0);
        let m1 = mean_of(1);
        let between = (&m0 - &m1).l2_norm();
        assert!(between > 0.5, "class means too close: {between}");
    }

    /// FNV-1a over a split's pixels (f32 bits) and labels.
    fn split_digest(d: &Dataset) -> u64 {
        let pixels = d.images().iter().flat_map(|i| i.data().iter());
        let bytes = pixels
            .flat_map(|v| v.to_bits().to_le_bytes())
            .chain(d.labels().iter().flat_map(|&l| (l as u64).to_le_bytes()));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn family_splits_are_pinned_at_any_thread_count() {
        // Captured while every image was rendered inline, drawing its noise
        // from the split's RNG pixel by pixel. Three images per class for
        // train, two for val, one for test; gtsrb-like (43 classes) spans
        // several render batches and has shape masks and hard examples.
        use crate::DatasetFamily;
        let expected = [
            (
                DatasetFamily::FashionMnist,
                [1, 28, 28],
                10,
                101,
                [
                    0x6d3d_0369_b0ef_e122,
                    0xf671_9ab8_e74e_620f,
                    0xebd0_7fdd_7feb_480e,
                ],
            ),
            (
                DatasetFamily::Cifar10,
                [3, 32, 32],
                10,
                102,
                [
                    0x8766_3897_ce4d_5bc9,
                    0xddca_ba4b_7f2a_10e5,
                    0xdf77_50f9_4359_2bf3,
                ],
            ),
            (
                DatasetFamily::Gtsrb,
                [3, 32, 32],
                43,
                103,
                [
                    0x028b_863e_884b_8708,
                    0xc39d_cdbe_4df1_e8e2,
                    0x624b_57cd_1959_1b50,
                ],
            ),
        ];
        let sizes = SplitSizes {
            train: 3,
            val: 2,
            test: 1,
        };
        for (family, dims, classes, seed, want) in expected {
            for threads in [1, 2, 4] {
                let split =
                    family.generate_with(dims, classes, seed, &sizes, &Parallelism::new(threads));
                let got = [&split.train, &split.val, &split.test].map(split_digest);
                assert_eq!(got, want, "{family:?} drifted at {threads} threads");
            }
        }
    }

    #[test]
    fn prototypes_within_class_differ() {
        let c = cfg();
        let p0 = ClassPrototype::derive(&c, 0, 0);
        let p1 = ClassPrototype::derive(&c, 0, 1);
        assert_ne!(p0, p1);
    }

    #[test]
    fn shape_masks_produce_different_silhouettes() {
        let mut c = cfg();
        c.shape_strength = 0.8;
        let mut rng = StdRng::seed_from_u64(0);
        let disk = ClassPrototype::derive(&c, 0, 0).render(&c, 0.0, 0.0, 1.0, &mut rng);
        let tri = ClassPrototype::derive(&c, 1, 0).render(&c, 0.0, 0.0, 1.0, &mut rng);
        assert!((&disk - &tri).l2_norm() > 1.0);
    }
}

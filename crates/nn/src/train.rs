//! Optimizers and the batched training loop.

use advhunter_runtime::Parallelism;
use advhunter_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::argmax_rows;
use crate::shard::with_shards;
use crate::{Graph, Mode, ParamGrad};

/// Adam optimizer state (Kingma & Ba) over a fixed parameter list.
///
/// # Example
///
/// ```
/// use advhunter_nn::train::Adam;
/// let opt = Adam::new(1e-3);
/// assert_eq!(opt.learning_rate(), 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an optimizer with the given learning rate and standard
    /// moment decay rates (0.9 / 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (e.g. for a decay schedule).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update: `params[i] -= lr * m̂ / (sqrt(v̂) + eps)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length or any pair of
    /// tensors differs in shape from the first call.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len(), "one gradient per parameter");
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().dims()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().dims()))
                .collect();
        }
        assert_eq!(self.m.len(), params.len(), "parameter list changed size");
        let step = self.next_step();
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            step.update(p.data_mut(), g.data(), m.data_mut(), v.data_mut());
        }
    }

    /// Counts one more step and returns what it applies to every
    /// parameter: [`Adam::step`] over this optimizer's moments, or
    /// [`crate::train::fit`]'s crew tasks over moments kept per parameter
    /// block.
    pub(crate) fn next_step(&mut self) -> AdamStep {
        self.t += 1;
        AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
        }
    }
}

/// The constants of one Adam step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// The bias corrections `1 - β₁ᵗ` and `1 - β₂ᵗ`.
    b1t: f32,
    b2t: f32,
}

impl AdamStep {
    /// Updates the parameters `p` with their gradient `g` and first and
    /// second moments `m` and `v`, element by element: every element's
    /// update reads only its own four values, so any cut of a tensor into
    /// blocks updates it to the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the four slices differ in length.
    pub(crate) fn update(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        assert!(
            g.len() == p.len() && m.len() == p.len() && v.len() == p.len(),
            "one gradient and two moments per parameter"
        );
        for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let mhat = *m / self.b1t;
            let vhat = *v / self.b2t;
            *p -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Multiplied into the learning rate after each epoch.
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 32,
            learning_rate: 2e-3,
            lr_decay: 0.7,
        }
    }
}

/// Per-epoch progress numbers returned by [`fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub mean_loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f32,
}

/// Trains `graph` on `(images, labels)` with Adam and cross-entropy.
///
/// Images are single CHW tensors; batching, shuffling, running-statistic
/// updates, and learning-rate decay are handled internally. Returns per-epoch
/// statistics.
///
/// One crew of `parallelism` runs the whole training, with image shards,
/// one per crew member, allocated once for `config.batch_size` images and
/// kept with their buffers from one step to the next (a ragged last batch
/// runs in a prefix of them). Per-image ops run on the shards side by
/// side; batch-norm statistics, the loss and the parameter gradients read
/// every shard in image order and reduce in the order of the one-batch
/// kernels, so the trained weights are bit-for-bit the same at every
/// worker count. No gradient with respect to the images is computed.
/// Each Adam update runs on the crew too, element for element the update
/// of [`Adam::step`]: each linear layer's weight is kept in blocks of rows
/// with their packed panels
/// ([`KernelVariant::TRAINING`](advhunter_tensor::ops::KernelVariant::TRAINING)),
/// one task updating and repacking each block, and one task updates each
/// other node's parameters (repacking a convolution's panels).
///
/// # Panics
///
/// Panics if `images` and `labels` differ in length or are empty.
pub fn fit(
    graph: &mut Graph,
    images: &[Tensor],
    labels: &[usize],
    config: &TrainConfig,
    parallelism: &Parallelism,
    rng: &mut impl Rng,
) -> Vec<EpochStats> {
    assert_eq!(images.len(), labels.len(), "one label per image");
    assert!(!images.is_empty(), "training set is empty");
    let mut opt = Adam::new(config.learning_rate);
    let mut order: Vec<usize> = (0..images.len()).collect();
    let capacity = config.batch_size.min(images.len());
    with_shards(
        graph,
        images,
        (Mode::Train, capacity),
        parallelism,
        |shards| {
            shards.hold_weights();
            let mut history = Vec::with_capacity(config.epochs);
            for epoch in 0..config.epochs {
                order.shuffle(rng);
                let mut total_loss = 0.0f64;
                let mut correct = 0usize;
                let mut batches = 0usize;
                for chunk in order.chunks(config.batch_size) {
                    let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                    let (loss, right) = shards.train_step(chunk, &batch_labels);
                    total_loss += loss as f64;
                    correct += right;
                    batches += 1;
                    shards.optimize(opt.next_step());
                }
                opt.set_learning_rate(opt.learning_rate() * config.lr_decay);
                history.push(EpochStats {
                    epoch,
                    mean_loss: (total_loss / batches.max(1) as f64) as f32,
                    accuracy: correct as f32 / images.len() as f32,
                });
            }
            shards.store_weights();
            history
        },
    )
}

/// The step [`fit`] takes on one batch, without the optimizer update: the
/// mean cross-entropy loss of `images` against `labels` and every node's
/// parameter gradient (`None` for parameter-free nodes), with the
/// batch-norm running statistics moved toward the batch's.
///
/// The images are one batch, run on image shards over `parallelism`; the
/// result is bit-for-bit the same at every worker count.
///
/// # Panics
///
/// Panics if `images` and `labels` differ in length or are empty.
pub fn step(
    graph: &mut Graph,
    images: &[Tensor],
    labels: &[usize],
    parallelism: &Parallelism,
) -> (f32, Vec<Option<ParamGrad>>) {
    assert_eq!(images.len(), labels.len(), "one label per image");
    assert!(!images.is_empty(), "training batch is empty");
    let batch: Vec<usize> = (0..images.len()).collect();
    let mode = (Mode::Train, images.len());
    with_shards(graph, images, mode, parallelism, |shards| {
        shards.hold_weights();
        let (loss, _) = shards.train_step(&batch, labels);
        let grads = shards.param_grads();
        shards.store_weights();
        (loss, grads)
    })
}

/// Images per forward pass of [`logits`]. An evaluation shard keeps every
/// node's output for each of its images, so the batch bounds the memory of
/// an evaluation; the logits of an image do not depend on it.
const EVAL_BATCH: usize = 16;

/// Eval-mode logits of `images`, one row per image, computed in
/// mini-batches.
///
/// The weights are packed once and every batch runs through the packed
/// kernels on image shards, one per member of a crew of `parallelism`
/// opened for the call (see [`fit`]). The rows are bit-for-bit those of
/// [`Graph::logits`] at any worker count.
pub fn logits(graph: &Graph, images: &[Tensor], parallelism: &Parallelism) -> Tensor {
    let order: Vec<usize> = (0..images.len()).collect();
    let mode = (Mode::Eval, EVAL_BATCH.min(images.len()));
    let rows: Vec<f32> = with_shards(graph, images, mode, parallelism, |shards| {
        let chunks = order.chunks(EVAL_BATCH);
        chunks
            .flat_map(|chunk| shards.logits(chunk).into_vec())
            .collect()
    });
    let classes = rows.len() / images.len().max(1);
    Tensor::from_vec(rows, &[images.len(), classes]).expect("one row per image")
}

/// Classification accuracy of `graph` on `(images, labels)`: the share of
/// rows of [`logits`] whose prediction matches the label, the accuracy of
/// [`Graph::predict`] at any worker count.
///
/// # Panics
///
/// Panics if `images` and `labels` differ in length.
pub fn evaluate(
    graph: &Graph,
    images: &[Tensor],
    labels: &[usize],
    parallelism: &Parallelism,
) -> f32 {
    assert_eq!(images.len(), labels.len(), "one label per image");
    if images.is_empty() {
        return 0.0;
    }
    let correct = argmax_rows(&logits(graph, images, parallelism))
        .zip(labels)
        .filter(|(pred, label)| pred == *label)
        .count();
    correct as f32 / images.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use advhunter_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two trivially separable classes: bright vs dark images.
    fn toy_problem(rng: &mut StdRng, n: usize) -> (Vec<Tensor>, Vec<usize>) {
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let mean = if label == 0 { -1.0 } else { 1.0 };
            images.push(init::normal(rng, &[1, 6, 6], mean, 0.3));
            labels.push(label);
        }
        (images, labels)
    }

    fn toy_model(rng: &mut StdRng) -> Graph {
        let mut b = GraphBuilder::new(&[1, 6, 6]);
        let input = b.input();
        let c = b.conv2d("c", input, 4, 3, 1, 1, rng);
        let r = b.relu("r", c);
        let g = b.global_avgpool("g", r);
        b.linear("fc", g, 2, rng);
        b.build()
    }

    #[test]
    fn fit_reaches_high_accuracy_on_separable_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let (images, labels) = toy_problem(&mut rng, 120);
        let mut model = toy_model(&mut rng);
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 16,
            learning_rate: 5e-3,
            lr_decay: 0.8,
        };
        let hist = fit(
            &mut model,
            &images,
            &labels,
            &cfg,
            &Parallelism::new(2),
            &mut rng,
        );
        assert!(hist.last().unwrap().accuracy > 0.95, "history: {hist:?}");
        assert!(
            hist.last().unwrap().mean_loss < hist.first().unwrap().mean_loss,
            "loss decreased"
        );
        let test_acc = evaluate(&model, &images, &labels, &Parallelism::new(2));
        assert!(test_acc > 0.95, "eval accuracy {test_acc}");
    }

    /// `evaluate` runs the packed kernels on shards; its accuracy is that
    /// of the reference `Graph::predict` at any worker count, over full
    /// batches and a ragged last one (the logits themselves are pinned by
    /// `tests/training_gradients.rs`).
    #[test]
    fn evaluate_matches_the_reference_forward_pass() {
        let mut rng = StdRng::seed_from_u64(3);
        let (images, _) = toy_problem(&mut rng, 70);
        let labels: Vec<usize> = (0..70).map(|i| (i / 3) % 2).collect();
        let model = toy_model(&mut rng);
        let mut correct = 0;
        for (imgs, lbls) in images.chunks(EVAL_BATCH).zip(labels.chunks(EVAL_BATCH)) {
            let preds = model.predict(&Tensor::stack(imgs));
            correct += preds.iter().zip(lbls).filter(|(p, l)| p == l).count();
        }
        let want = correct as f32 / images.len() as f32;
        for threads in [1, 2, 3] {
            let par = Parallelism::new(threads);
            assert_eq!(evaluate(&model, &images, &labels, &par), want);
        }
    }

    #[test]
    fn adam_moves_parameters_against_gradient() {
        let mut p = Tensor::from_slice(&[1.0, -1.0]);
        let g = Tensor::from_slice(&[1.0, -1.0]);
        let mut opt = Adam::new(0.1);
        let before = p.clone();
        opt.step(&mut [&mut p], &[&g]);
        assert!(p.data()[0] < before.data()[0]);
        assert!(p.data()[1] > before.data()[1]);
    }

    #[test]
    fn adam_step_size_is_bounded_by_lr() {
        let mut p = Tensor::from_slice(&[0.0]);
        let g = Tensor::from_slice(&[1000.0]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p], &[&g]);
        // Adam normalizes by sqrt(v̂): the first step is ≈ lr regardless of
        // gradient magnitude.
        assert!(p.data()[0].abs() <= 0.011, "step {}", p.data()[0]);
    }

    #[test]
    fn evaluate_empty_set_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = toy_model(&mut rng);
        assert_eq!(evaluate(&model, &[], &[], &Parallelism::sequential()), 0.0);
    }

    #[test]
    #[should_panic(expected = "one label per image")]
    fn fit_rejects_mismatched_lengths() {
        let mut rng = StdRng::seed_from_u64(2);
        let (images, _) = toy_problem(&mut rng, 4);
        let mut model = toy_model(&mut rng);
        fit(
            &mut model,
            &images,
            &[0],
            &TrainConfig::default(),
            &Parallelism::sequential(),
            &mut rng,
        );
    }
}

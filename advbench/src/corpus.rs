//! The request corpus: the scenario's clean test images interleaved 1:1
//! with the successful untargeted FGSM examples crafted from them — the
//! mix a deployed detector screens when some clients attack.

use advhunter::{derive_seed, FingerprintBuilder, PipelineArtifacts};
use advhunter_attacks::{attack_dataset, AdversarialExample, Attack, AttackGoal};
use advhunter_tensor::Tensor;
use advhunter_wire::MonitorRequest;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The repository's standard attack strength (the CLI's `--eps` default).
const FGSM_EPSILON: f32 = 0.5;

pub struct Item {
    pub image: Tensor,
    pub adversarial: bool,
}

pub struct Corpus {
    pub items: Vec<Item>,
    /// Content digest of the ordered items (hex).
    pub digest: String,
    /// A seed-independent slice for the traced per-layer probes: the first
    /// clean images and the first adversarial examples, interleaved, so
    /// counts measured on it repeat exactly across seeds.
    pub probe: Vec<Item>,
}

/// Clean and adversarial items interleaved 1:1, leftovers appended.
fn interleave(clean: Vec<Tensor>, adversarial: Vec<Tensor>) -> Vec<Item> {
    let mut items = Vec::with_capacity(clean.len() + adversarial.len());
    let mut adv = adversarial.into_iter();
    for image in clean {
        items.push(Item {
            image,
            adversarial: false,
        });
        if let Some(image) = adv.next() {
            items.push(Item {
                image,
                adversarial: true,
            });
        }
    }
    items.extend(adv.map(|image| Item {
        image,
        adversarial: true,
    }));
    items
}

impl Corpus {
    /// Builds the corpus for `seed`, which picks the order of the clean and
    /// the adversarial images and seeds the attack's RNG. `probe_len`
    /// bounds the probe slice.
    pub fn build(art: &PipelineArtifacts, seed: u64, probe_len: usize) -> Corpus {
        let test = &art.split.test;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
        let report = attack_dataset(
            &art.model,
            test,
            &Attack::fgsm(FGSM_EPSILON),
            AttackGoal::Untargeted,
            None,
            &mut rng,
        );
        let adversarial: Vec<Tensor> = report
            .examples
            .into_iter()
            .map(|AdversarialExample { image, .. }| image)
            .collect();
        let probe = interleave(
            test.images().iter().take(probe_len / 2).cloned().collect(),
            adversarial.iter().take(probe_len / 2).cloned().collect(),
        );
        let mut order = StdRng::seed_from_u64(derive_seed(seed, 2));
        let mut clean = test.images().to_vec();
        let mut adv = adversarial;
        clean.shuffle(&mut order);
        adv.shuffle(&mut order);
        let items = interleave(clean, adv);
        let mut digest = FingerprintBuilder::new("advbench.corpus.v1");
        for item in &items {
            digest.push_u64(u64::from(item.adversarial));
            for &x in item.image.data() {
                digest.push_f32(x);
            }
        }
        Corpus {
            items,
            digest: digest.finish().to_string(),
            probe,
        }
    }

    /// The item request `seq` carries (the corpus cycles).
    pub fn item(&self, seq: u64) -> &Item {
        &self.items[(seq % self.items.len() as u64) as usize]
    }

    /// The wire request for sequence number `seq`, correlated by `seq`.
    pub fn request(&self, seq: u64) -> MonitorRequest {
        MonitorRequest::new(self.item(seq).image.clone()).request_id(seq)
    }

    pub fn adversarial_count(&self) -> usize {
        self.items.iter().filter(|i| i.adversarial).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaves_one_to_one_and_appends_leftovers() {
        let t = |v: f32| Tensor::full(&[1], v);
        let items = interleave(vec![t(0.0), t(1.0), t(2.0)], vec![t(10.0)]);
        let flags: Vec<bool> = items.iter().map(|i| i.adversarial).collect();
        assert_eq!(flags, [false, true, false, false]);
        let items = interleave(vec![t(0.0)], vec![t(10.0), t(11.0)]);
        let flags: Vec<bool> = items.iter().map(|i| i.adversarial).collect();
        assert_eq!(flags, [false, true, true]);
    }
}

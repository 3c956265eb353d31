//! Matrix weights decoded from `AHW1` bytes straight into panels.
//!
//! A serving boot never builds a row-major copy of a `Conv2d` or `Linear`
//! weight: `weights_from_bytes_with` packs each one from the payload bytes
//! into the panels of the variant it is asked for. These properties pin
//! that decode to the two-step path it replaced, bit for bit: decode the
//! row-major tensor, then `PackedWeights::pack_tensor` it. They cover
//! every variant and tail panels (row counts that no panel height
//! divides, such as a 10-class head under eight-row panels), and check
//! that a model holding panels re-encodes to the bytes it came from and
//! runs the same forward pass.

use std::sync::Arc;

use advhunter_nn::io::{weights_from_bytes, weights_from_bytes_with, weights_to_bytes};
use advhunter_nn::{Graph, GraphBuilder, MatKernels, MatWeight, Mode, Op, WeightInit, ZeroWeights};
use advhunter_tensor::ops::{KernelVariant, PackedWeights};
use advhunter_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

fn panel_bits(packed: &PackedWeights) -> Vec<u32> {
    bits(&packed.clone().into_buffer())
}

/// A conv → batch norm → SiLU → conv → pool → two linear layers model,
/// the last with `classes` outputs.
fn model(init: &mut impl WeightInit, c: usize, mid: usize, hidden: usize, classes: usize) -> Graph {
    let mut b = GraphBuilder::new(&[c, 6, 6]);
    let input = b.input();
    let c1 = b.conv2d("c1", input, mid, 3, 1, 1, &mut *init);
    let bn = b.batchnorm("bn", c1);
    let s = b.silu("s", bn);
    let c2 = b.conv2d("c2", s, mid + 1, 1, 1, 0, &mut *init);
    let p = b.maxpool("p", c2, 2, 2);
    let f = b.flatten("f", p);
    let h = b.linear("h", f, hidden, &mut *init);
    let r = b.relu("r", h);
    b.linear("fc", r, classes, init);
    b.build()
}

/// Each matrix node's weight, in node order.
fn matrix_weights(g: &Graph) -> Vec<&MatWeight> {
    g.nodes()
        .iter()
        .filter_map(|n| match &n.op {
            Op::Conv2d(l) => Some(&l.weight),
            Op::Linear(l) => Some(&l.weight),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Panels packed from little-endian bytes equal `pack` of the decoded
    /// floats for every variant and geometry, tails included, and unpack
    /// to exactly those floats.
    #[test]
    fn panels_packed_from_bytes_equal_packed_floats(
        rows in 1usize..27, k in 1usize..40, seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = init::uniform(&mut rng, &[rows, k], -1.0, 1.0);
        let bytes: Vec<u8> = w.data().iter().flat_map(|v| v.to_le_bytes()).collect();
        for variant in KernelVariant::ALL {
            // A reused buffer's old contents never reach the panels.
            let stale = vec![f32::NAN; rows * k];
            let from_bytes = PackedWeights::pack_le_bytes_in(stale, &bytes, rows, k, variant);
            let from_floats = PackedWeights::pack_tensor(&w, variant);
            prop_assert_eq!(panel_bits(&from_bytes), panel_bits(&from_floats), "{:?}", variant);
            prop_assert_eq!(bits(&from_bytes.unpack()), bits(w.data()), "{:?}", variant);
        }
    }

    /// A whole model decoded into panels (see [`check_decode_into_panels`]),
    /// once with a 10-class head: two eight-row panels, the second with
    /// two live rows.
    #[test]
    fn models_decoded_into_panels_match_the_row_major_decode(
        c in 1usize..4,
        mid in 1usize..12,
        hidden in 1usize..20,
        classes in 1usize..14,
        seed in any::<u64>()
    ) {
        check_decode_into_panels(c, mid, hidden, 10, seed);
        check_decode_into_panels(c, mid, hidden, classes, seed);
    }
}

/// Decodes a random model into the panels of every variant: each matrix
/// weight's panels are `pack_tensor` of the row-major decode, the model
/// re-encodes to the bytes it was decoded from and equals the row-major
/// model, and its forward pass through kernels sharing those panels is
/// the reference pass of the row-major model, bit for bit.
fn check_decode_into_panels(c: usize, mid: usize, hidden: usize, classes: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let trained = model(&mut rng, c, mid, hidden, classes);
    let bytes = weights_to_bytes(&trained);
    let mut row_major = model(&mut ZeroWeights, c, mid, hidden, classes);
    weights_from_bytes(&mut row_major, &bytes).unwrap();
    assert_eq!(row_major, trained);
    let x = init::uniform(&mut rng, &[2, c, 6, 6], -1.0, 1.0);
    let mut reference = row_major.workspace(2);
    row_major.forward_with(&x, Mode::Eval, &mut reference);

    for variant in KernelVariant::ALL {
        let mut packed = model(&mut ZeroWeights, c, mid, hidden, classes);
        weights_from_bytes_with(&mut packed, &bytes, &mut |_| Some(variant)).unwrap();
        for (p, r) in matrix_weights(&packed)
            .into_iter()
            .zip(matrix_weights(&row_major))
        {
            let panels = p.panels().expect("decoded into panels");
            let expected = PackedWeights::pack_tensor(&r.tensor(), variant);
            assert_eq!(panel_bits(panels), panel_bits(&expected), "{variant:?}");
        }
        assert_eq!(weights_to_bytes(&packed), bytes, "{variant:?}");
        assert_eq!(packed, row_major);

        let kernels = MatKernels::pack_with(&packed, &mut |_| variant);
        for (kernel, weight) in kernels.iter().zip(matrix_weights(&packed)) {
            let shared = weight.panels().expect("decoded into panels");
            assert!(Arc::ptr_eq(&kernel.packed, shared), "{variant:?}");
        }
        let mut ws = packed.workspace(2);
        packed.forward_with_kernels(&x, Mode::Eval, &mut ws, &kernels);
        assert_eq!(bits(ws.output().data()), bits(reference.output().data()));
    }
}

/// A variant other than the held panels' is packed afresh from their
/// unpacked floats, and a reference pass over a panel-holding model reads
/// the same matrix.
#[test]
fn other_variants_and_the_reference_pass_unpack_the_panels() {
    let mut rng = StdRng::seed_from_u64(5);
    let trained = model(&mut rng, 2, 5, 9, 10);
    let bytes = weights_to_bytes(&trained);
    let mut packed = model(&mut ZeroWeights, 2, 5, 9, 10);
    weights_from_bytes_with(&mut packed, &bytes, &mut |_| Some(KernelVariant::Mr8Nr8)).unwrap();

    let kernels = MatKernels::pack_with(&packed, &mut |_| KernelVariant::Mr6Nr8);
    for (kernel, weight) in kernels.iter().zip(matrix_weights(&trained)) {
        let expected = PackedWeights::pack_tensor(&weight.tensor(), KernelVariant::Mr6Nr8);
        assert_eq!(panel_bits(&kernel.packed), panel_bits(&expected));
    }

    let x: Tensor = init::uniform(&mut rng, &[3, 2, 6, 6], -1.0, 1.0);
    assert_eq!(
        bits(packed.forward(&x, Mode::Eval).output().data()),
        bits(trained.forward(&x, Mode::Eval).output().data())
    );
}

//! The backward pass computes only the gradients its caller reads, and what
//! it does compute is bitwise what the full pass computes:
//!
//! - an eval-mode `backward` returns the train-mode input gradient and
//!   leaves `Dense`/`Conv2d` parameter gradients untouched;
//! - `backward_params` accumulates the parameter gradients `backward` does;
//! - `train_batch` (which skips the network-input gradient) and
//!   `train_batch_with_input_grad` (which computes it) train identically;
//! - every layer consumes its forward cache.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simpadv_nn::{
    Classifier, Conv2d, Dense, Flatten, Layer, MaxPool2d, Mode, Relu, Reshape, Sequential, Sgd,
};
use simpadv_tensor::Tensor;

const SIDE: usize = 28;
const PIXELS: usize = SIDE * SIDE;

/// The layout of `ModelSpec::default_mlp()`: 784-128-10.
fn default_mlp(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Box::new(Dense::new(PIXELS, 128, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(128, 10, &mut rng)),
    ])
}

/// The layout of `ModelSpec::small_cnn()`: two 3×3 conv/relu/maxpool
/// stages (8 and 16 channels) and a dense head, on flat 784-pixel rows.
fn small_cnn(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Box::new(Reshape::new(&[1, SIDE, SIDE])),
        Box::new(Conv2d::new(1, 8, 3, 1, 1, SIDE, SIDE, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Conv2d::new(8, 16, 3, 1, 1, SIDE / 2, SIDE / 2, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Dense::new((SIDE / 4) * (SIDE / 4) * 16, 10, &mut rng)),
    ])
}

fn dense(seed: u64) -> Box<dyn Layer> {
    Box::new(Dense::new(13, 7, &mut StdRng::seed_from_u64(seed)))
}

fn conv(seed: u64) -> Box<dyn Layer> {
    Box::new(Conv2d::new(2, 3, 3, 1, 1, 6, 6, &mut StdRng::seed_from_u64(seed)))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    layer.params().iter().map(|p| bits(p.grad)).collect()
}

fn weight_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    layer.params().iter().map(|p| bits(p.value)).collect()
}

fn uniform(seed: u64, shape: &[usize]) -> Tensor {
    Tensor::rand_uniform(&mut StdRng::seed_from_u64(seed), shape, -1.0, 1.0)
}

/// A batch and an output gradient for `layer`, with the layer's parameter
/// gradients already holding a non-zero train-mode accumulation.
fn primed(layer: &mut dyn Layer, input_shape: &[usize], seed: u64) -> (Tensor, Tensor) {
    let x = uniform(seed, input_shape);
    let y = layer.forward(&x, Mode::Train);
    let g = uniform(seed + 1, y.shape());
    let _ = layer.backward(&g);
    assert!(layer.params().iter().any(|p| p.grad.norm_linf() > 0.0));
    (x, g)
}

#[test]
fn eval_backward_matches_train_input_grad_and_leaves_param_grads() {
    for (make, shape) in [
        (dense as fn(u64) -> Box<dyn Layer>, vec![5, 13]),
        (conv as fn(u64) -> Box<dyn Layer>, vec![4, 2, 6, 6]),
    ] {
        let mut train = make(3);
        let mut eval = make(3);
        let (x, g) = primed(train.as_mut(), &shape, 11);
        let _ = primed(eval.as_mut(), &shape, 11);
        let before = grad_bits(eval.as_mut());

        let _ = train.forward(&x, Mode::Train);
        let gx_train = train.backward(&g);
        let _ = eval.forward(&x, Mode::Eval);
        let gx_eval = eval.backward(&g);

        assert_eq!(bits(&gx_eval), bits(&gx_train), "{}: input gradients differ", eval.name());
        assert_eq!(
            grad_bits(eval.as_mut()),
            before,
            "{}: eval backward touched grads",
            eval.name()
        );
        assert_ne!(
            grad_bits(train.as_mut()),
            before,
            "{}: train backward accumulates",
            train.name()
        );
    }
}

#[test]
fn backward_params_accumulates_what_backward_does() {
    let cases: [(Box<dyn Layer>, Vec<usize>); 4] = [
        (dense(5), vec![5, 13]),
        (conv(5), vec![4, 2, 6, 6]),
        (Box::new(default_mlp(5)), vec![6, PIXELS]),
        (Box::new(small_cnn(5)), vec![3, PIXELS]),
    ];
    for (layer, shape) in cases {
        let mut full = layer.clone_box();
        let mut params_only = layer;
        let (x, g) = primed(full.as_mut(), &shape, 21);
        let _ = primed(params_only.as_mut(), &shape, 21);
        assert_eq!(grad_bits(params_only.as_mut()), grad_bits(full.as_mut()));

        // a second pass accumulates on top of the first, in either mode
        for mode in [Mode::Train, Mode::Eval] {
            let _ = full.forward(&x, mode);
            let _ = params_only.forward(&x, mode);
            let _ = full.backward(&g);
            params_only.backward_params(&g);
            let name = params_only.name();
            assert_eq!(grad_bits(params_only.as_mut()), grad_bits(full.as_mut()), "{name}");
        }
    }
}

#[test]
fn train_batch_skipping_the_input_grad_trains_bitwise_identically() {
    for (net, rows) in [(default_mlp(9), 16), (small_cnn(9), 4)] {
        let mut skip = Classifier::new(net.clone(), 10);
        let mut full = Classifier::new(net, 10);
        let mut opt_skip = Sgd::new(0.05).with_momentum(0.9);
        let mut opt_full = Sgd::new(0.05).with_momentum(0.9);
        for step in 0..4 {
            let x = uniform(100 + step, &[rows, PIXELS]).abs();
            let y: Vec<usize> = (0..rows).map(|i| (i + step as usize) % 10).collect();
            let loss_skip = skip.train_batch(&x, &y, &mut opt_skip);
            let (loss_full, grad_x) = full.train_batch_with_input_grad(&x, &y, &mut opt_full);
            assert_eq!(loss_skip.to_bits(), loss_full.to_bits(), "step {step}");
            assert_eq!(grad_x.shape(), x.shape());
            assert_eq!(
                weight_bits(skip.network_mut()),
                weight_bits(full.network_mut()),
                "step {step}"
            );
        }
    }
}

#[test]
fn a_second_backward_without_forward_panics() {
    let mut rng = StdRng::seed_from_u64(0);
    let layers: Vec<(Box<dyn Layer>, Vec<usize>, Mode)> = vec![
        (dense(0), vec![2, 13], Mode::Eval),
        (dense(0), vec![2, 13], Mode::Train),
        (conv(0), vec![2, 2, 6, 6], Mode::Eval),
        (conv(0), vec![2, 2, 6, 6], Mode::Train),
        (Box::new(MaxPool2d::new(2, 2)), vec![1, 1, 4, 4], Mode::Eval),
        (Box::new(Relu::new()), vec![2, 3], Mode::Eval),
        (Box::new(Flatten::new()), vec![2, 3, 2], Mode::Eval),
        (Box::new(Reshape::new(&[3, 2])), vec![2, 6], Mode::Eval),
        (Box::new(Sequential::new(vec![dense(1), Box::new(Relu::new())])), vec![2, 13], Mode::Eval),
    ];
    for (mut layer, shape, mode) in layers {
        let x = Tensor::rand_uniform(&mut rng, &shape, -1.0, 1.0);
        let y = layer.forward(&x, mode);
        let g = Tensor::ones(y.shape());
        let _ = layer.backward(&g);
        let name = layer.name();
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| layer.backward(&g)));
        let payload = second.err().unwrap_or_else(|| panic!("{name}: second backward returned"));
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("before forward"), "{name}: panicked with {msg:?}");
    }
}

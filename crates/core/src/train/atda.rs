//! ATDA — Adversarial Training with Domain Adaptation (Song et al., 2018),
//! the SOTA Single-Adv comparator of the paper's Table I.

use super::{run_epochs, CheckpointSession, Trainer, TrainerAux};
use crate::config::TrainConfig;
use crate::report::TrainReport;
use simpadv_attacks::{Attack, Fgsm};
use simpadv_data::Dataset;
use simpadv_nn::{Classifier, SoftmaxCrossEntropy};
use simpadv_resilience::PersistError;
use simpadv_tensor::Tensor;

/// ATDA treats clean and (single-step) adversarial examples as two domains
/// and regularizes the logit space so the domains align:
///
/// * **UDA-MMD**: L1 alignment of the domain means of the logits;
/// * **UDA-CORAL**: Frobenius alignment of the domain covariances;
/// * **SDA**: both domains are pulled toward shared per-class logit
///   centers (maintained as exponential moving averages).
///
/// The total objective is `CE(clean ∪ adv) + λ·(MMD + CORAL) + λ·SDA`, all
/// gradients derived analytically and verified against finite differences
/// in this module's tests.
///
/// Faithfulness note (documented in `DESIGN.md`): as in the original, the
/// adaptation terms act on the logit representation; our centers update
/// with a fixed momentum rather than the paper's margin formulation — the
/// same alignment pressure with one fewer hyper-parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct AtdaTrainer {
    epsilon: f32,
    lambda: f32,
    center_momentum: f32,
}

impl AtdaTrainer {
    /// Creates ATDA with budget `epsilon` and the conventional
    /// regularization weight λ = 1/3.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite.
    pub fn new(epsilon: f32) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "invalid epsilon {epsilon}");
        AtdaTrainer { epsilon, lambda: 1.0 / 3.0, center_momentum: 0.1 }
    }

    /// Overrides the domain-adaptation weight λ.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative.
    pub fn with_lambda(mut self, lambda: f32) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        self.lambda = lambda;
        self
    }

    /// The regularization weight λ.
    pub fn lambda(&self) -> f32 {
        self.lambda
    }
}

impl Trainer for AtdaTrainer {
    fn train_resumable(
        &mut self,
        clf: &mut Classifier,
        data: &Dataset,
        config: &TrainConfig,
        session: &mut CheckpointSession,
    ) -> Result<TrainReport, PersistError> {
        let mut attack = Fgsm::new(self.epsilon);
        let ce = SoftmaxCrossEntropy::new();
        let classes = data.num_classes();
        // centers live in logit space: [classes, logit_dim == classes];
        // they are EMAs carried across epochs, hence checkpointable aux.
        let aux = TrainerAux::Atda { centers: Tensor::zeros(&[classes, classes.max(1)]) };
        let (lambda, center_momentum) = (self.lambda, self.center_momentum);
        run_epochs(
            &self.id(),
            clf,
            data,
            config,
            session,
            aux,
            move |clf, opt, aux, _epoch, _idx, x, y| {
                let TrainerAux::Atda { centers } = aux else {
                    unreachable!("atda trainer always runs with Atda aux state")
                };
                let n = x.shape()[0];
                // 1. single-step adversarial domain
                let adv = attack.perturb(clf, x, y);
                // 2. one forward over both domains
                let combined = Tensor::concat_rows(&[x, &adv]);
                let mut labels = y.to_vec();
                labels.extend_from_slice(y);
                let logits = clf.forward_train(&combined);
                let z_clean = logits.rows(0..n);
                let z_adv = logits.rows(n..2 * n);
                // 3. composite loss gradient in logit space
                let (ce_loss, ce_grad) = ce.forward(&logits, &labels);
                let (da_loss, g_clean, g_adv) =
                    domain_adaptation_grad(&z_clean, &z_adv, centers, y);
                let mut grad = ce_grad;
                let da_grad = Tensor::concat_rows(&[&g_clean, &g_adv]).mul_scalar(lambda);
                grad.add_assign(&da_grad);
                // 4. backprop the combined gradient and step
                clf.step_from_logit_grad(&grad, opt);
                // 5. update class centers from the clean domain (no gradient)
                update_centers(centers, &z_clean, y, center_momentum);
                ce_loss + lambda * da_loss
            },
        )
    }

    fn id(&self) -> String {
        "atda".to_string()
    }
}

/// Computes the domain-adaptation loss and its gradients with respect to
/// the clean and adversarial logits (centers are treated as constants).
///
/// Returns `(loss, dL/dz_clean, dL/dz_adv)`.
///
/// # Panics
///
/// Panics when the clean and adversarial logit shapes disagree.
pub(crate) fn domain_adaptation_grad(
    z_clean: &Tensor,
    z_adv: &Tensor,
    centers: &Tensor,
    y: &[usize],
) -> (f32, Tensor, Tensor) {
    let (n, c) = (z_clean.shape()[0], z_clean.shape()[1]);
    assert_eq!(z_adv.shape(), &[n, c], "domain shapes must match");
    let nf = n as f32;
    let cf = c as f32;

    let mut g_clean = Tensor::zeros(&[n, c]);
    let mut g_adv = Tensor::zeros(&[n, c]);
    let mut loss = 0.0f32;

    // --- UDA-MMD: (1/c) Σ_j |mu_c[j] - mu_a[j]| -------------------------
    let mu_c = z_clean.mean_axis(0);
    let mu_a = z_adv.mean_axis(0);
    let diff = mu_c.sub(&mu_a);
    loss += diff.abs().sum() / cf;
    let sign = diff.sign();
    for i in 0..n {
        for j in 0..c {
            let s = sign.as_slice()[j] / (cf * nf);
            g_clean.as_mut_slice()[i * c + j] += s;
            g_adv.as_mut_slice()[i * c + j] -= s;
        }
    }

    // --- UDA-CORAL: (1/c²) ||C_c - C_a||_F² -----------------------------
    let zc_bar = z_clean.sub(&mu_c); // rows centered
    let za_bar = z_adv.sub(&mu_a);
    let cov_c = zc_bar.matmul_tn(&zc_bar).mul_scalar(1.0 / nf);
    let cov_a = za_bar.matmul_tn(&za_bar).mul_scalar(1.0 / nf);
    let d = cov_c.sub(&cov_a);
    loss += d.powi(2).sum() / (cf * cf);
    // dL/dZ̄_c = (4/(c²n)) Z̄_c D;  dL/dZ_c = P dL/dZ̄_c with P = I - 11ᵀ/n
    let scale = 4.0 / (cf * cf * nf);
    let gc_bar = zc_bar.matmul(&d).mul_scalar(scale);
    let ga_bar = za_bar.matmul(&d).mul_scalar(-scale);
    g_clean.add_assign(&center_rows(&gc_bar));
    g_adv.add_assign(&center_rows(&ga_bar));

    // --- SDA: (1/(2nc)) Σ_i ‖z_i - ctr_{y_i}‖² over both domains --------
    let sda_scale = 1.0 / (2.0 * nf * cf);
    for (domain, (z, g)) in [(0, (z_clean, &mut g_clean)), (1, (z_adv, &mut g_adv))] {
        let _ = domain;
        for (i, &label) in y.iter().enumerate() {
            for j in 0..c {
                let delta = z.as_slice()[i * c + j] - centers.as_slice()[label * c + j];
                loss += sda_scale * delta * delta;
                g.as_mut_slice()[i * c + j] += 2.0 * sda_scale * delta;
            }
        }
    }

    (loss, g_clean, g_adv)
}

/// Subtracts the column mean from every row (the adjoint of row-centering).
fn center_rows(g: &Tensor) -> Tensor {
    g.sub(&g.mean_axis(0))
}

/// Exponential-moving-average update of per-class logit centers.
pub(crate) fn update_centers(centers: &mut Tensor, z: &Tensor, y: &[usize], momentum: f32) {
    let c = centers.shape()[1];
    let classes = centers.shape()[0];
    let mut sums = vec![0.0f32; classes * c];
    let mut counts = vec![0usize; classes];
    for (i, &label) in y.iter().enumerate() {
        counts[label] += 1;
        for j in 0..c {
            sums[label * c + j] += z.as_slice()[i * c + j];
        }
    }
    for label in 0..classes {
        if counts[label] == 0 {
            continue;
        }
        for j in 0..c {
            let batch_mean = sums[label * c + j] / counts[label] as f32;
            let idx = label * c + j;
            centers.as_mut_slice()[idx] =
                (1.0 - momentum) * centers.as_slice()[idx] + momentum * batch_mean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_accuracy;
    use crate::model::ModelSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simpadv_attacks::Bim;
    use simpadv_data::{SynthConfig, SynthDataset};
    use simpadv_nn::{accuracy, GradientModel};

    #[test]
    fn da_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 5;
        let c = 4;
        let z_c = Tensor::rand_uniform(&mut rng, &[n, c], -1.0, 1.0);
        let z_a = Tensor::rand_uniform(&mut rng, &[n, c], -1.0, 1.0);
        let centers = Tensor::rand_uniform(&mut rng, &[c, c], -0.5, 0.5);
        let y: Vec<usize> = (0..n).map(|i| i % c).collect();
        let (_, g_c, g_a) = domain_adaptation_grad(&z_c, &z_a, &centers, &y);
        let h = 1e-3f32;
        let loss_of = |zc: &Tensor, za: &Tensor| domain_adaptation_grad(zc, za, &centers, &y).0;
        for i in 0..(n * c) {
            let mut zp = z_c.clone();
            zp.as_mut_slice()[i] += h;
            let mut zm = z_c.clone();
            zm.as_mut_slice()[i] -= h;
            let num = (loss_of(&zp, &z_a) - loss_of(&zm, &z_a)) / (2.0 * h);
            let ana = g_c.as_slice()[i];
            assert!(
                (num - ana).abs() < 5e-3 * 1.0f32.max(num.abs()),
                "clean grad[{i}]: numeric {num} vs analytic {ana}"
            );
            let mut zp = z_a.clone();
            zp.as_mut_slice()[i] += h;
            let mut zm = z_a.clone();
            zm.as_mut_slice()[i] -= h;
            let num = (loss_of(&z_c, &zp) - loss_of(&z_c, &zm)) / (2.0 * h);
            let ana = g_a.as_slice()[i];
            assert!(
                (num - ana).abs() < 5e-3 * 1.0f32.max(num.abs()),
                "adv grad[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn da_loss_zero_for_identical_domains_at_centers() {
        // both domains equal and sitting exactly on their class centers
        let c = 3;
        let mut centers = Tensor::zeros(&[c, c]);
        centers.set(&[0, 0], 1.0);
        let z = Tensor::from_vec(vec![1.0, 0.0, 0.0], &[1, c]);
        let (loss, g_c, g_a) = domain_adaptation_grad(&z, &z, &centers, &[0]);
        assert!(loss.abs() < 1e-9);
        assert!(g_c.norm_linf() < 1e-6);
        assert!(g_a.norm_linf() < 1e-6);
    }

    #[test]
    fn da_loss_detects_mean_shift() {
        let c = 2;
        let z_c = Tensor::zeros(&[4, c]);
        let z_a = Tensor::full(&[4, c], 1.0);
        let centers = Tensor::zeros(&[c, c]);
        let (loss, _, _) = domain_adaptation_grad(&z_c, &z_a, &centers, &[0, 1, 0, 1]);
        assert!(loss > 0.5, "shifted domains must register: {loss}");
    }

    #[test]
    fn centers_track_class_means() {
        let mut centers = Tensor::zeros(&[2, 2]);
        let z = Tensor::from_vec(vec![1.0, 0.0, 3.0, 0.0, 0.0, 2.0], &[3, 2]);
        update_centers(&mut centers, &z, &[0, 0, 1], 1.0); // momentum 1: jump to batch mean
        assert!((centers.at(&[0, 0]) - 2.0).abs() < 1e-6);
        assert!((centers.at(&[1, 1]) - 2.0).abs() < 1e-6);
        // class with no examples stays put
        update_centers(&mut centers, &z.rows(0..2), &[0, 0], 1.0);
        assert!((centers.at(&[1, 1]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn atda_resists_bim_better_than_vanilla() {
        let train = SynthDataset::Mnist.generate(&SynthConfig::new(400, 1));
        let test = SynthDataset::Mnist.generate(&SynthConfig::new(200, 2));
        let config = TrainConfig::new(40, 0).with_lr_decay(0.95);
        let eps = 0.3;

        let mut vanilla_clf = ModelSpec::default_mlp().build(0);
        super::super::VanillaTrainer::new().train(&mut vanilla_clf, &train, &config);
        let mut atda_clf = ModelSpec::default_mlp().build(0);
        AtdaTrainer::new(eps).train(&mut atda_clf, &train, &config);

        let mut atk_a = Bim::new(eps, 10);
        let mut atk_b = Bim::new(eps, 10);
        let acc_vanilla = evaluate_accuracy(&mut vanilla_clf, &test, &mut atk_a);
        let acc_atda = evaluate_accuracy(&mut atda_clf, &test, &mut atk_b);
        assert!(
            acc_atda > acc_vanilla + 0.1,
            "atda ({acc_atda}) should beat vanilla ({acc_vanilla}) under BIM(10)"
        );
    }

    #[test]
    fn keeps_clean_accuracy() {
        let train = SynthDataset::Mnist.generate(&SynthConfig::new(400, 1));
        let mut clf = ModelSpec::default_mlp().build(0);
        AtdaTrainer::new(0.3).train(&mut clf, &train, &TrainConfig::new(15, 0).with_lr_decay(0.95));
        let acc = accuracy(&clf.logits(train.images()), train.labels());
        assert!(acc > 0.85, "clean train accuracy {acc}");
    }

    #[test]
    fn lambda_accessor_and_override() {
        let t = AtdaTrainer::new(0.2).with_lambda(0.5);
        assert_eq!(t.lambda(), 0.5);
        assert_eq!(t.id(), "atda");
    }
}

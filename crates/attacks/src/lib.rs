//! # simpadv-attacks
//!
//! White-box l∞ adversarial attacks against [`simpadv_nn::GradientModel`]s,
//! for the `simpadv` reproduction of *"Using Intuition from Empirical
//! Properties to Simplify Adversarial Training Defense"* (Liu et al., 2019).
//!
//! Implemented attacks:
//!
//! * [`Fgsm`] — the fast gradient sign method (Goodfellow et al., 2015);
//! * [`Bim`] — the basic iterative method (Kurakin et al., 2016), the
//!   attack the paper evaluates with; exposes **intermediate iterates**
//!   ([`Bim::iterates`]) because Section III of the paper studies exactly
//!   those;
//! * [`Pgd`] — projected gradient descent with a random start (Madry et
//!   al., 2017), a strictly stronger evaluation attack;
//! * [`Mim`] — the momentum iterative method (Dong et al., 2018);
//! * [`RandomNoise`] — a gradient-free baseline that calibrates how much of
//!   an attack's effect is just noise;
//! * [`LeastLikelyFgsm`] — Kurakin's targeted single-step variant, immune
//!   to label leaking (extension);
//! * [`FgmL2`] / [`PgdL2`] — l2-geometry attacks (extension);
//! * [`MarginPgd`] — PGD on the Carlini–Wagner margin loss (extension).
//!
//! Every attack guarantees the returned examples stay within its norm
//! ball — `‖x_adv − x‖∞ ≤ ε` for the l∞ attacks, `‖x_adv − x‖₂ ≤ ε` for
//! [`FgmL2`]/[`PgdL2`] — **and** inside the valid pixel box `[0, 1]`;
//! the property tests in this crate verify both for every attack.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use simpadv_attacks::{Attack, Fgsm};
//! use simpadv_nn::{Classifier, Dense, Sequential};
//! use simpadv_tensor::Tensor;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Sequential::new(vec![Box::new(Dense::new(4, 2, &mut rng))]);
//! let mut clf = Classifier::new(net, 2);
//! let x = Tensor::rand_uniform(&mut rng, &[3, 4], 0.0, 1.0);
//! let mut fgsm = Fgsm::new(0.1);
//! let x_adv = fgsm.perturb(&mut clf, &x, &[0, 1, 0]);
//! assert!(x_adv.sub(&x).norm_linf() <= 0.1 + 1e-6);
//! ```

// R1: every sanctioned panic site carries an item-level `#[expect]` (DESIGN.md §8).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod attack;
mod bim;
mod fgsm;
mod l2;
mod margin;
mod mim;
mod noise;
pub mod parallel;
mod pgd;
mod projection;
mod targeted;

pub use attack::Attack;
pub use bim::Bim;
pub use fgsm::Fgsm;
pub use l2::{l2_distance, project_ball_l2, row_l2_norms, FgmL2, PgdL2};
pub use margin::MarginPgd;
pub use mim::Mim;
pub use noise::RandomNoise;
pub use pgd::Pgd;
pub use projection::{
    linf_distance, project_ball, project_ball_bytes, signed_step, signed_step_bytes,
};
pub use targeted::LeastLikelyFgsm;

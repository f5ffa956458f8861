//! Model persistence: JSON state dictionaries.
//!
//! A state dictionary is the flat `name -> tensor` map produced by
//! [`crate::Layer::state`]. JSON keeps checkpoints human-auditable, which
//! matters more than compactness at this project's model sizes (tens of
//! thousands of parameters).

use serde::{Deserialize, Serialize};
use simpadv_resilience::PersistError;
use simpadv_tensor::Tensor;
use std::io::{Read, Write};

/// A serializable snapshot of a network's tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDict {
    /// Named tensors in layer order.
    pub entries: Vec<(String, Tensor)>,
}

impl StateDict {
    /// Captures the state of a layer (usually a
    /// [`crate::Sequential`]).
    pub fn capture(layer: &dyn crate::Layer) -> Self {
        StateDict { entries: layer.state() }
    }

    /// Restores this state into a layer (usually a [`crate::Sequential`]).
    ///
    /// The dictionary must hold exactly the entries the layer's
    /// [`crate::Layer::state`] lists, by name, each with the layer's shape;
    /// otherwise the layer is left untouched.
    ///
    /// # Errors
    ///
    /// [`PersistError::StateMismatch`] naming the first entry that is
    /// missing, extra, repeated, or of the wrong shape.
    pub fn restore(&self, layer: &mut dyn crate::Layer) -> Result<(), PersistError> {
        let expected = layer.state();
        let mismatch = |name: &str, detail: String| PersistError::StateMismatch {
            name: name.to_string(),
            detail,
        };
        for (i, (name, tensor)) in self.entries.iter().enumerate() {
            let Some((_, want)) = expected.iter().find(|(k, _)| k == name) else {
                return Err(mismatch(name, "is not in the model".into()));
            };
            if self.entries[..i].iter().any(|(k, _)| k == name) {
                return Err(mismatch(name, "appears twice".into()));
            }
            if tensor.shape() != want.shape() {
                return Err(mismatch(
                    name,
                    format!("has shape {:?}, the model expects {:?}", tensor.shape(), want.shape()),
                ));
            }
        }
        if let Some((name, _)) =
            expected.iter().find(|(k, _)| !self.entries.iter().any(|(e, _)| e == k))
        {
            return Err(mismatch(name, "is missing".into()));
        }
        layer.load_state(&self.entries);
        Ok(())
    }

    /// Rejects dictionaries containing NaN or infinite values.
    ///
    /// Persisting a diverged model would poison every later resume, and
    /// JSON renders non-finite floats as `null` (unreadable on load), so
    /// both the save and the restore path call this.
    ///
    /// # Errors
    ///
    /// [`PersistError::NonFinite`] naming the first offending entry.
    pub fn validate_finite(&self) -> Result<(), PersistError> {
        for (name, tensor) in &self.entries {
            if tensor.as_slice().iter().any(|v| !v.is_finite()) {
                return Err(PersistError::NonFinite { name: name.clone() });
            }
        }
        Ok(())
    }
}

/// Writes a layer's state as JSON.
///
/// # Errors
///
/// [`PersistError::NonFinite`] when the state holds NaN/Inf,
/// [`PersistError::Encode`] on serialization failure (which for the JSON
/// backend always surfaces as an IO error from the writer).
pub fn save_state_dict_json<W: Write>(
    layer: &dyn crate::Layer,
    writer: W,
) -> Result<(), PersistError> {
    let dict = StateDict::capture(layer);
    dict.validate_finite()?;
    serde_json::to_writer(writer, &dict).map_err(|e| PersistError::Encode(e.to_string()))
}

/// Reads a JSON state dictionary and loads it into a layer.
///
/// # Errors
///
/// [`PersistError::Decode`] when the stream is not a valid dictionary,
/// [`PersistError::NonFinite`] when it parses but holds NaN/Inf,
/// [`PersistError::StateMismatch`] when it does not fit the layer (see
/// [`StateDict::restore`]).
pub fn load_state_dict_json<R: Read>(
    layer: &mut dyn crate::Layer,
    reader: R,
) -> Result<(), PersistError> {
    let dict: StateDict =
        serde_json::from_reader(reader).map_err(|e| PersistError::Decode(e.to_string()))?;
    dict.validate_finite()?;
    dict.restore(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, Relu, Reshape, Sequential};
    use crate::{Layer, Mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simpadv_tensor::Tensor;

    /// A conv-relu-dense network on flat 16-pixel rows.
    fn net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Reshape::new(&[1, 4, 4])),
            Box::new(Conv2d::new(1, 2, 3, 1, 1, 4, 4, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(32, 2, &mut rng)),
        ])
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let mut a = net(1);
        let mut buf = Vec::new();
        save_state_dict_json(&a, &mut buf).unwrap();
        let mut b = net(2);
        load_state_dict_json(&mut b, buf.as_slice()).unwrap();

        let mut rng = StdRng::seed_from_u64(9);
        let probe = Tensor::rand_uniform(&mut rng, &[5, 16], -1.0, 1.0);
        assert_eq!(a.forward(&probe, Mode::Eval), b.forward(&probe, Mode::Eval));
    }

    #[test]
    fn state_dict_capture_restore() {
        let a = net(3);
        let dict = StateDict::capture(&a);
        // conv(2) + dense(2) named tensors
        assert_eq!(dict.entries.len(), 4);
        let mut b = net(4);
        dict.restore(&mut b).unwrap();
        assert_eq!(StateDict::capture(&b), dict);
    }

    /// Restoring `dict` into a fresh `net` fails naming `name`, and leaves
    /// the target's weights as they were.
    fn assert_refused(dict: &StateDict, name: &str, detail: &str) {
        let mut target = net(8);
        let before = StateDict::capture(&target);
        match dict.restore(&mut target) {
            Err(PersistError::StateMismatch { name: n, detail: d }) => {
                assert_eq!(n, name);
                assert!(d.contains(detail), "{d}");
            }
            other => panic!("expected StateMismatch for {name}, got {other:?}"),
        }
        assert_eq!(StateDict::capture(&target), before, "a refused restore wrote weights");
    }

    #[test]
    fn restore_refuses_a_missing_entry() {
        let mut dict = StateDict::capture(&net(3));
        dict.entries.remove(2);
        assert_refused(&dict, "4.weight", "missing");
    }

    #[test]
    fn restore_refuses_an_extra_entry() {
        let mut dict = StateDict::capture(&net(3));
        dict.entries.push(("5.weight".into(), Tensor::zeros(&[2, 2])));
        assert_refused(&dict, "5.weight", "not in the model");
    }

    #[test]
    fn restore_refuses_a_repeated_entry() {
        let mut dict = StateDict::capture(&net(3));
        let first = dict.entries[0].clone();
        dict.entries.push(first);
        assert_refused(&dict, "1.weight", "twice");
    }

    #[test]
    fn restore_refuses_a_wrong_shape() {
        let mut dict = StateDict::capture(&net(3));
        dict.entries[3].1 = Tensor::zeros(&[3]);
        assert_refused(&dict, "4.bias", "shape [3], the model expects [2]");
    }

    #[test]
    fn restore_refuses_an_empty_dict() {
        assert_refused(&StateDict { entries: Vec::new() }, "1.weight", "missing");
    }

    #[test]
    fn load_refuses_a_dict_of_another_network() {
        let mut rng = StdRng::seed_from_u64(0);
        let other = Sequential::new(vec![Box::new(Dense::new(16, 2, &mut rng))]);
        let mut buf = Vec::new();
        save_state_dict_json(&other, &mut buf).unwrap();
        let res = load_state_dict_json(&mut net(5), buf.as_slice());
        assert!(matches!(res, Err(PersistError::StateMismatch { .. })), "{res:?}");
    }

    #[test]
    fn corrupt_json_is_an_error() {
        let mut n = net(5);
        let res = load_state_dict_json(&mut n, &b"not json"[..]);
        assert!(matches!(res, Err(PersistError::Decode(_))));
    }

    #[test]
    fn non_finite_state_is_rejected_on_save() {
        let mut a = net(6);
        let mut state = a.state();
        state[0].1.as_mut_slice()[0] = f32::NAN;
        a.load_state(&state);
        let res = save_state_dict_json(&a, Vec::new());
        assert!(matches!(res, Err(PersistError::NonFinite { .. })), "{res:?}");
    }

    #[test]
    fn validate_finite_names_the_offender() {
        let mut dict = StateDict::capture(&net(7));
        dict.entries[2].1.as_mut_slice()[0] = f32::INFINITY;
        let name = dict.entries[2].0.clone();
        match dict.validate_finite() {
            Err(PersistError::NonFinite { name: n }) => assert_eq!(n, name),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }
}

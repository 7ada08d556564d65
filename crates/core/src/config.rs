//! The paper's canonical configurations and search space.

use kdtune_autotune::{Config, SearchSpace, Tuner};
use kdtune_kdtree::{Algorithm, BuildParams};
use kdtune_raycast::register_space;

/// The manually crafted base configuration `C_base = (17, 10, 3, 2^12)`
/// from §V-C, "based on best practices and recommendations from
/// literature". Order: `(CI, CB, S, R)`.
pub const BASE_CONFIG: (i64, i64, i64, i64) = (17, 10, 3, 4096);

/// `C_base` as a [`Config`] for the given algorithm (the lazy algorithm
/// carries the fourth parameter `R`; the others tune `(CI, CB, S)`).
pub fn base_config(algorithm: Algorithm) -> Config {
    let (ci, cb, s, r) = BASE_CONFIG;
    match algorithm {
        Algorithm::Lazy => Config(vec![ci, cb, s, r]),
        _ => Config(vec![ci, cb, s]),
    }
}

/// `C_base` as ready-to-use [`BuildParams`].
pub fn base_build_params() -> BuildParams {
    let (ci, cb, s, r) = BASE_CONFIG;
    BuildParams::from_config(ci as f32, cb as f32, s as u32, r as u32)
}

/// The tuning search space of Table II for the given algorithm:
/// `CI ∈ [3, 101]`, `CB ∈ [0, 60]`, `S ∈ [1, 8]`, and for the lazy
/// algorithm additionally `R ∈ [16, 8192]` (powers of two) — the space
/// [`register_space`] registers on every online tuner.
pub fn tuning_space(algorithm: Algorithm) -> SearchSpace {
    let mut tuner = Tuner::new();
    register_space(&mut tuner, algorithm, false);
    tuner.space().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_matches_paper() {
        assert_eq!(base_config(Algorithm::Lazy).values(), &[17, 10, 3, 4096]);
        assert_eq!(base_config(Algorithm::InPlace).values(), &[17, 10, 3]);
        let p = base_build_params();
        assert_eq!(p.sah.ci, 17.0);
        assert_eq!(p.sah.cb, 10.0);
        assert_eq!(p.sah.ct, 10.0);
        assert_eq!(p.s, 3);
        assert_eq!(p.r, 4096);
    }

    #[test]
    fn space_dimensions_match_table_one() {
        assert_eq!(tuning_space(Algorithm::NodeLevel).dim(), 3);
        assert_eq!(tuning_space(Algorithm::Nested).dim(), 3);
        assert_eq!(tuning_space(Algorithm::InPlace).dim(), 3);
        assert_eq!(tuning_space(Algorithm::Lazy).dim(), 4);
    }

    #[test]
    fn base_config_is_valid_in_space() {
        for algo in Algorithm::ALL {
            let space = tuning_space(algo);
            let c = base_config(algo);
            assert_eq!(space.snap_values(c.values()), c, "{algo}");
        }
    }
}

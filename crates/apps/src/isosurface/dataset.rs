//! Synthetic 3-D scalar grids.
//!
//! The paper uses datasets from the ParSSim environmental simulator
//! (1.5 GB / 6 GB, 10 time-steps; one time-step — 150 MB / 600 MB — per
//! experiment). We substitute a deterministic synthetic field: a smooth
//! ramp plus Gaussian plumes, which yields a level set of controllable
//! area — isosurface extraction only cares about the field's level-set
//! geometry, so the identical code path is exercised (see DESIGN.md).

/// A dense 3-D scalar grid, x-fastest layout.
#[derive(Debug, Clone)]
pub struct ScalarGrid {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub data: Vec<f32>,
}

impl ScalarGrid {
    /// Value at grid point (x, y, z).
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> f32 {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        self.data[(z * self.ny + y) * self.nx + x]
    }

    pub fn points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of cubes (cells) along each axis and total.
    pub fn cubes(&self) -> usize {
        (self.nx - 1) * (self.ny - 1) * (self.nz - 1)
    }

    /// Bytes of raw scalar data.
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Cube index → its (cx, cy, cz) cell coordinates.
    #[inline]
    pub fn cube_coords(&self, c: usize) -> (usize, usize, usize) {
        let cx_n = self.nx - 1;
        let cy_n = self.ny - 1;
        let cx = c % cx_n;
        let cy = (c / cx_n) % cy_n;
        let cz = c / (cx_n * cy_n);
        (cx, cy, cz)
    }

    /// The 8 corner values of cube `c` in canonical order.
    #[inline]
    pub fn corners(&self, c: usize) -> [f32; 8] {
        let (x, y, z) = self.cube_coords(c);
        [
            self.at(x, y, z),
            self.at(x + 1, y, z),
            self.at(x + 1, y + 1, z),
            self.at(x, y + 1, z),
            self.at(x, y, z + 1),
            self.at(x + 1, y, z + 1),
            self.at(x + 1, y + 1, z + 1),
            self.at(x, y + 1, z + 1),
        ]
    }

    /// ParSSim-like synthetic field: smooth vertical ramp plus a few
    /// Gaussian plumes whose centers derive from `seed`.
    pub fn synthetic(nx: usize, ny: usize, nz: usize, seed: u64) -> ScalarGrid {
        assert!(nx >= 2 && ny >= 2 && nz >= 2);
        let mut data = Vec::with_capacity(nx * ny * nz);
        // Derive plume centers/widths from the seed with a splitmix step.
        let mut s = seed.wrapping_add(0x9e3779b97f4a7c15);
        let mut next = move || {
            s ^= s >> 30;
            s = s.wrapping_mul(0xbf58476d1ce4e5b9);
            s ^= s >> 27;
            s = s.wrapping_mul(0x94d049bb133111eb);
            s ^= s >> 31;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let plumes: Vec<(f32, f32, f32, f32, f32)> = (0..4)
            .map(|_| {
                (
                    next() as f32, // cx (fractional coords)
                    next() as f32,
                    next() as f32,
                    0.08 + 0.12 * next() as f32, // sigma
                    0.5 + next() as f32,         // amplitude
                )
            })
            .collect();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let fx = x as f32 / (nx - 1) as f32;
                    let fy = y as f32 / (ny - 1) as f32;
                    let fz = z as f32 / (nz - 1) as f32;
                    let mut v = fz; // ramp: isosurface near a z-plane
                    for (px, py, pz, sig, amp) in &plumes {
                        let d2 = (fx - px).powi(2) + (fy - py).powi(2) + (fz - pz).powi(2);
                        v += amp * (-d2 / (2.0 * sig * sig)).exp();
                    }
                    data.push(v);
                }
            }
        }
        ScalarGrid { nx, ny, nz, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let a = ScalarGrid::synthetic(8, 8, 8, 42);
        let b = ScalarGrid::synthetic(8, 8, 8, 42);
        assert_eq!(a.data, b.data);
        let c = ScalarGrid::synthetic(8, 8, 8, 43);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn indexing_roundtrip() {
        let g = ScalarGrid::synthetic(5, 6, 7, 1);
        assert_eq!(g.points(), 5 * 6 * 7);
        assert_eq!(g.cubes(), 4 * 5 * 6);
        for c in [0usize, 7, 19, g.cubes() - 1] {
            let (x, y, z) = g.cube_coords(c);
            assert!(x < 4 && y < 5 && z < 6);
            // corners must not panic and must match direct lookups
            let cs = g.corners(c);
            assert_eq!(cs[0], g.at(x, y, z));
            assert_eq!(cs[6], g.at(x + 1, y + 1, z + 1));
        }
    }

    #[test]
    fn ramp_crosses_mid_isovalue() {
        let g = ScalarGrid::synthetic(16, 16, 16, 7);
        // Values rise with z, so some cubes must straddle the mid value.
        let iso = 0.5f32;
        let crossing = (0..g.cubes())
            .filter(|&c| {
                let cs = g.corners(c);
                let above = cs.iter().filter(|v| **v > iso).count();
                above != 0 && above != 8
            })
            .count();
        assert!(crossing > 0);
        assert!(crossing < g.cubes());
    }
}

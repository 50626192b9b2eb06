//! Virtual microscope's dataset (Section 6.5). The program is
//! [`crate::dialect::VMSCOPE_SRC`].
//!
//! The application serves queries against digitized microscope slides: a
//! query selects a region and a subsampling factor; the server extracts
//! the region, subsamples it, and assembles the output image. The paper's
//! slides are proprietary; we use a deterministic synthetic RGB image —
//! clipping and subsampling are content-independent (see DESIGN.md).

/// A synthetic RGB slide, deterministic in (x, y).
#[derive(Debug, Clone)]
pub struct Slide {
    pub width: usize,
    pub height: usize,
    pub data: Vec<u8>,
}

impl Slide {
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Slide {
        let mut data = Vec::with_capacity(width * height * 3);
        for y in 0..height {
            for x in 0..width {
                // Cheap deterministic texture.
                let h = (x as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add((y as u64).wrapping_mul(0xc2b2ae3d27d4eb4f))
                    .wrapping_add(seed)
                    .wrapping_mul(0xd6e8feb86659fd93);
                data.push((h >> 16) as u8);
                data.push((h >> 32) as u8);
                data.push((h >> 48) as u8);
            }
        }
        Slide {
            width,
            height,
            data,
        }
    }

    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{oracle, run_compiled, vmscope_host_env, VMSCOPE_MANUAL_SRC, VMSCOPE_SRC};
    use cgp_compiler::cost::PipelineEnv;
    use cgp_compiler::{CompileOptions, Decomposition};

    #[test]
    fn slide_is_deterministic() {
        let a = Slide::synthetic(64, 64, 9);
        let b = Slide::synthetic(64, 64, 9);
        assert_eq!(a.data, b.data);
    }

    /// [`VMSCOPE_SRC`] prints the sum of the directly subsampled pixels,
    /// in output-index order.
    #[test]
    fn output_matches_direct_subsampling() {
        let slide = Slide::synthetic(48, 32, 3);
        let f = 4;
        let sum = (0..slide.height / f)
            .flat_map(|oy| (0..slide.width / f).map(move |ox| (ox * f, oy * f)))
            .map(|(x, y)| 0.05 + slide.pixel(x, y)[0] as f64 / 260.0)
            .fold(0.0, |s, v| s + v);
        let host = vmscope_host_env(&slide, f as i64, 3);
        assert_eq!(oracle(VMSCOPE_SRC, &host), [sum.to_string()]);
    }

    /// Default, the compiler's pick and a cut after the subsampling loop,
    /// and the hand-written variant under the compiler's pick, print what
    /// the interpreter prints.
    #[test]
    fn all_versions_agree() {
        let slide = Slide::synthetic(40, 40, 5);
        for (f, packets) in [(4, 3), (2, 7)] {
            let host = vmscope_host_env(&slide, f, packets);
            let expect = oracle(VMSCOPE_SRC, &host);
            assert_eq!(oracle(VMSCOPE_MANUAL_SRC, &host), expect, "f = {f}");
            let latency = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 8)
                .with_symbol("height", 40)
                .with_symbol("width", 40)
                .with_symbol("subsample", f)
                .with_selectivity(0, 1.0 / f as f64);
            let place = |unit_of: Vec<usize>| {
                latency.clone().with_decomposition(Decomposition {
                    unit_of,
                    cost: f64::NAN,
                })
            };
            let default = place(Decomposition::default_style(3, 3).unit_of);
            let cut = place(vec![0, 0, 1]);
            // The manual variant's loop off the data host: its strided
            // `pixels` read ships the whole array (`pixels[*]`), which the
            // receiver must size from the wire.
            let manual_cut = |m: usize, unit_of: Vec<usize>| {
                CompileOptions::new(PipelineEnv::uniform(m, 1e8, 1e6, 1e-5), 8)
                    .with_symbol("height", 40)
                    .with_symbol("width", 40)
                    .with_symbol("subsample", f)
                    .with_decomposition(Decomposition {
                        unit_of,
                        cost: f64::NAN,
                    })
            };
            let manual_cuts = [
                manual_cut(2, vec![0, 1]),
                manual_cut(3, vec![0, 1]),
                manual_cut(3, vec![0, 2]),
            ];
            let mut runs = vec![
                (VMSCOPE_SRC, &default),
                (VMSCOPE_SRC, &latency),
                (VMSCOPE_SRC, &cut),
                (VMSCOPE_MANUAL_SRC, &latency),
            ];
            runs.extend(manual_cuts.iter().map(|o| (VMSCOPE_MANUAL_SRC, o)));
            for (src, opts) in runs {
                let (unit_of, out) = run_compiled(src, opts, &host);
                assert_eq!(out, expect, "f = {f}, unit_of {unit_of:?}");
            }
        }
    }
}

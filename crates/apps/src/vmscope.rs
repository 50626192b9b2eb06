//! Virtual microscope (Section 6.5).
//!
//! The application serves queries against digitized microscope slides: a
//! query selects a region and a subsampling factor; the server extracts the
//! region, subsamples it, and assembles the output image. The paper's
//! slides are proprietary; we use a deterministic synthetic RGB image —
//! the pipeline (decode chunk, clip, subsample, assemble) is
//! content-independent (see DESIGN.md).
//!
//! **The decode substrate.** Real microscope slides are stored compressed;
//! the Virtual Microscope's data services decompress each chunk before any
//! filtering can happen. We model this with delta-encoded (PNG-filter-like)
//! chunks: each packet's region rows form one prediction chain, so a data
//! node must decode the *whole chunk* — no variant can skip rows inside a
//! chunk. This is what keeps the decomposed versions' advantage at the
//! paper's modest level: subsampling slashes communication, but the decode
//! cost at the data nodes is shared by every version.
//!
//! Variants:
//!
//! - **Default** — data nodes decode and ship all region pixels; compute
//!   nodes subsample and assemble.
//! - **Decomp-Manual** — data nodes decode, then subsample *with strided
//!   loops* (touch only the pixels that survive) and ship 1/f² of the
//!   pixels.
//! - **Decomp-Comp** — same decomposition, but the compiler-generated code
//!   walks every pixel of each kept row testing `x % f == 0` — the paper
//!   reports exactly this difference making the compiler version 10–50%
//!   slower than the manual one on this low-compute application.

use crate::profile::{fnv1a, timed, AppVariant, PacketProfile};

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

    /// Raw bytes of region rows `[y0, y1)` × columns `[x0, x0+w)`.
    fn region_rows(&self, y0: usize, y1: usize, x0: usize, w: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity((y1 - y0) * w * 3);
        for y in y0..y1 {
            let i = (y * self.width + x0) * 3;
            out.extend_from_slice(&self.data[i..i + w * 3]);
        }
        out
    }
}

/// Delta-encode a byte chunk (one prediction chain across the whole chunk,
/// PNG-filter style: decoding is inherently sequential).
pub fn encode_chunk(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len());
    let mut prev = 0u8;
    for &b in raw {
        out.push(b.wrapping_sub(prev));
        prev = b;
    }
    out
}

/// Decode a delta-encoded chunk (the data-node decompression work every
/// variant pays).
pub fn decode_chunk(enc: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(enc.len());
    let mut prev = 0u8;
    for &d in enc {
        prev = prev.wrapping_add(d);
        out.push(prev);
    }
    out
}

/// A region + subsampling query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub x0: usize,
    pub y0: usize,
    pub width: usize,
    pub height: usize,
    /// Every `subsample`-th pixel along each dimension is kept.
    pub subsample: usize,
}

impl Query {
    /// Output image dimensions.
    pub fn out_dims(&self) -> (usize, usize) {
        (
            self.width.div_ceil(self.subsample),
            self.height.div_ceil(self.subsample),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmVersion {
    Default,
    DecompComp,
    DecompManual,
}

/// A runnable virtual-microscope pipeline.
pub struct VmscopePipeline {
    slide: Slide,
    query: Query,
    n_packets: usize,
    version: VmVersion,
    /// Pre-encoded storage chunks, one per packet (what the data service
    /// actually keeps on disk).
    chunks: Vec<Vec<u8>>,
    /// Assembled output image (the result viewed at the destination).
    out: Vec<u8>,
    /// Pixels the data node examined while subsampling, since the last
    /// reset ([`VmscopePipeline::data_node_pixels`]).
    examined: u64,
    label: String,
}

impl VmscopePipeline {
    pub fn new(
        slide: Slide,
        query: Query,
        n_packets: usize,
        version: VmVersion,
        label: impl Into<String>,
    ) -> VmscopePipeline {
        assert!(query.x0 + query.width <= slide.width);
        assert!(query.y0 + query.height <= slide.height);
        assert!(query.subsample >= 1);
        let n_packets = n_packets.max(1).min(query.height);
        let (ow, oh) = query.out_dims();
        let mut p = VmscopePipeline {
            slide,
            query,
            n_packets,
            version,
            chunks: Vec::new(),
            out: vec![0; ow * oh * 3],
            examined: 0,
            label: label.into(),
        };
        p.chunks = (0..n_packets)
            .map(|i| {
                let rows = p.packet_rows(i);
                let raw = p.slide.region_rows(
                    p.query.y0 + rows.start,
                    p.query.y0 + rows.end,
                    p.query.x0,
                    p.query.width,
                );
                encode_chunk(&raw)
            })
            .collect();
        p
    }

    /// Pixels the data node has examined while subsampling, over every
    /// packet run since the last reset: every pixel of a kept row for
    /// Decomp-Comp, every `f`-th for Decomp-Manual, none for Default
    /// (whose data node ships the rows whole).
    pub fn data_node_pixels(&self) -> u64 {
        self.examined
    }

    /// Row range (relative to the query region) for packet `p`.
    fn packet_rows(&self, p: usize) -> std::ops::Range<usize> {
        let rows = self.query.height;
        let np = self.n_packets;
        let base = rows / np;
        let rem = rows % np;
        let start = p * base + p.min(rem);
        let len = base + usize::from(p < rem);
        start..start + len
    }

    /// Write one kept pixel to the output image.
    #[inline]
    fn emit(&mut self, rel_x: usize, rel_y: usize, px: [u8; 3]) {
        let f = self.query.subsample;
        let (ow, _) = self.query.out_dims();
        let ox = rel_x / f;
        let oy = rel_y / f;
        let i = (oy * ow + ox) * 3;
        self.out[i..i + 3].copy_from_slice(&px);
    }
}

impl AppVariant for VmscopePipeline {
    fn name(&self) -> String {
        let v = match self.version {
            VmVersion::Default => "Default",
            VmVersion::DecompComp => "Decomp-Comp",
            VmVersion::DecompManual => "Decomp-Manual",
        };
        format!("{}/{v}", self.label)
    }

    fn packets(&self) -> usize {
        self.n_packets
    }

    fn run_packet(&mut self, p: usize) -> PacketProfile {
        let rows = self.packet_rows(p);
        let q = self.query;
        let f = q.subsample;
        let w3 = q.width * 3;
        let read0 = self.chunks[p].len() as f64;
        // Stage 0 always begins by decoding the stored chunk — the
        // prediction chain makes this sequential over every row.
        match self.version {
            VmVersion::Default => {
                // Data node: decode + ship every pixel of the region rows.
                let (raw, t0) = timed(|| decode_chunk(&self.chunks[p]));
                let bytes0 = raw.len() as f64;
                // Compute node: subsample (strided) + assemble.
                let (_, t1) = timed(|| {
                    for (j, ry) in rows.clone().enumerate() {
                        if ry % f != 0 {
                            continue;
                        }
                        let row = &raw[j * w3..(j + 1) * w3];
                        let mut rx = 0;
                        while rx < q.width {
                            let px = [row[rx * 3], row[rx * 3 + 1], row[rx * 3 + 2]];
                            self.emit(rx, ry, px);
                            rx += f;
                        }
                    }
                });
                PacketProfile::new([t0, t1, 0.0], [bytes0, 0.0]).with_read(read0)
            }
            VmVersion::DecompManual => {
                // Data node: decode, then strided subsampling; ship only
                // kept pixels (instance-wise dense packing — coordinates
                // are implicit in the counts).
                let ((kept, examined), t0) = timed(|| {
                    let raw = decode_chunk(&self.chunks[p]);
                    let mut out: Vec<u8> =
                        Vec::with_capacity((rows.len() / f + 1) * (q.width / f + 1) * 3);
                    let mut examined = 0u64;
                    let mut ry = rows.start.next_multiple_of(f);
                    while ry < rows.end {
                        let j = ry - rows.start;
                        let row = &raw[j * w3..(j + 1) * w3];
                        let mut rx = 0;
                        while rx < q.width {
                            examined += 1;
                            out.extend_from_slice(&row[rx * 3..rx * 3 + 3]);
                            rx += f;
                        }
                        ry += f;
                    }
                    (out, examined)
                });
                self.examined += examined;
                let bytes0 = kept.len() as f64 + 16.0; // payload + row header
                                                       // Compute node: assemble (positions implied by the grid).
                let (_, t1) = timed(|| {
                    let mut it = kept.chunks_exact(3);
                    let mut ry = rows.start.next_multiple_of(f);
                    while ry < rows.end {
                        let mut rx = 0;
                        while rx < q.width {
                            let px = it.next().expect("kept pixel");
                            self.emit(rx, ry, [px[0], px[1], px[2]]);
                            rx += f;
                        }
                        ry += f;
                    }
                });
                PacketProfile::new([t0, t1, 0.0], [bytes0, 0.0]).with_read(read0)
            }
            VmVersion::DecompComp => {
                // Data node: decode, then compiler-shaped subsampling. The
                // row conditional is the filtering boundary (hoisted by
                // fission), but within a kept row the generated code walks
                // *every* pixel and tests `x % f == 0` — the conditional
                // the paper contrasts with the manual stride.
                let ((kept, examined), t0) = timed(|| {
                    let raw = decode_chunk(&self.chunks[p]);
                    let mut out: Vec<u8> =
                        Vec::with_capacity((rows.len() / f + 1) * (q.width / f + 1) * 3);
                    let mut examined = 0u64;
                    for ry in rows.clone() {
                        if ry % f != 0 {
                            continue;
                        }
                        let j = ry - rows.start;
                        let row = &raw[j * w3..(j + 1) * w3];
                        for rx in 0..q.width {
                            examined += 1;
                            if rx % f == 0 {
                                out.extend_from_slice(&row[rx * 3..rx * 3 + 3]);
                            }
                        }
                    }
                    (out, examined)
                });
                self.examined += examined;
                let bytes0 = kept.len() as f64 + 16.0;
                // Compute node: assemble through the same generic path.
                let (_, t1) = timed(|| {
                    let mut it = kept.chunks_exact(3);
                    for ry in rows.clone() {
                        if ry % f != 0 {
                            continue;
                        }
                        for rx in 0..q.width {
                            if rx % f == 0 {
                                let px = it.next().expect("kept pixel");
                                self.emit(rx, ry, [px[0], px[1], px[2]]);
                            }
                        }
                    }
                });
                PacketProfile::new([t0, t1, 0.0], [bytes0, 0.0]).with_read(read0)
            }
        }
    }

    fn finalize_bytes(&self) -> [f64; 2] {
        [0.0, self.out.len() as f64]
    }

    fn result_digest(&self) -> u64 {
        fnv1a(&self.out)
    }

    fn reset(&mut self) {
        self.out.fill(0);
        self.examined = 0;
    }
}

/// The paper's "small query": a modest region at low subsampling — too few
/// packets for good load balance at width 4.
pub fn small_query() -> Query {
    Query {
        x0: 128,
        y0: 128,
        width: 256,
        height: 256,
        subsample: 2,
    }
}

/// The paper's "large query": a big region at a higher subsampling factor.
pub fn large_query() -> Query {
    Query {
        x0: 0,
        y0: 0,
        width: 1024,
        height: 1024,
        subsample: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::run_all;

    fn mk(version: VmVersion) -> VmscopePipeline {
        let slide = Slide::synthetic(512, 512, 17);
        let q = Query {
            x0: 32,
            y0: 64,
            width: 256,
            height: 192,
            subsample: 4,
        };
        VmscopePipeline::new(slide, q, 12, version, "vm-test")
    }

    #[test]
    fn encode_decode_roundtrip() {
        let raw: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        assert_eq!(decode_chunk(&encode_chunk(&raw)), raw);
        assert!(decode_chunk(&encode_chunk(&[])).is_empty());
    }

    #[test]
    fn all_versions_agree() {
        let (_, d0) = run_all(&mut mk(VmVersion::Default));
        let (_, d1) = run_all(&mut mk(VmVersion::DecompComp));
        let (_, d2) = run_all(&mut mk(VmVersion::DecompManual));
        assert_eq!(d0, d1);
        assert_eq!(d1, d2);
    }

    #[test]
    fn output_matches_direct_subsampling() {
        let mut p = mk(VmVersion::Default);
        run_all(&mut p);
        // oracle: subsample directly
        let q = p.query;
        let (ow, oh) = q.out_dims();
        let mut expect = vec![0u8; ow * oh * 3];
        for oy in 0..oh {
            for ox in 0..ow {
                let px = p
                    .slide
                    .pixel(q.x0 + ox * q.subsample, q.y0 + oy * q.subsample);
                expect[(oy * ow + ox) * 3..(oy * ow + ox) * 3 + 3].copy_from_slice(&px);
            }
        }
        assert_eq!(p.out, expect);
    }

    #[test]
    fn decomp_ships_roughly_one_over_f_squared() {
        let (pd, _) = run_all(&mut mk(VmVersion::Default));
        let (pm, _) = run_all(&mut mk(VmVersion::DecompManual));
        let bytes = |ps: &[PacketProfile]| ps.iter().map(|p| p.bytes[0]).sum::<f64>();
        // f = 4 → 16× fewer pixels.
        assert!(
            bytes(&pm) < bytes(&pd) / 10.0,
            "{} vs {}",
            bytes(&pm),
            bytes(&pd)
        );
    }

    #[test]
    fn comp_and_manual_ship_identically() {
        let (pc, _) = run_all(&mut mk(VmVersion::DecompComp));
        let (pm, _) = run_all(&mut mk(VmVersion::DecompManual));
        let b = |ps: &[PacketProfile]| ps.iter().map(|p| p.bytes[0]).sum::<f64>();
        assert_eq!(b(&pc), b(&pm));
    }

    #[test]
    fn every_version_reads_every_chunk_byte() {
        // The prediction chain forces full-chunk decode: read_bytes equal.
        let (pd, _) = run_all(&mut mk(VmVersion::Default));
        let (pm, _) = run_all(&mut mk(VmVersion::DecompManual));
        let (pc, _) = run_all(&mut mk(VmVersion::DecompComp));
        let r = |ps: &[PacketProfile]| ps.iter().map(|p| p.read_bytes).sum::<f64>();
        assert_eq!(r(&pd), r(&pm));
        assert_eq!(r(&pd), r(&pc));
        assert!(r(&pd) > 0.0);
    }

    #[test]
    fn comp_version_does_more_data_node_work() {
        // Count the pixels each data node examines instead of timing two
        // nearly equal stages: Comp walks every pixel of a kept row,
        // Manual every f-th.
        let slide = Slide::synthetic(1024, 1024, 3);
        let q = Query {
            x0: 0,
            y0: 0,
            width: 1024,
            height: 1024,
            subsample: 8,
        };
        let mut comp = VmscopePipeline::new(slide.clone(), q, 8, VmVersion::DecompComp, "big");
        let mut man = VmscopePipeline::new(slide, q, 8, VmVersion::DecompManual, "big");
        let (_, dc) = crate::profile::run_all_min(&mut comp, 2);
        let (_, dm) = crate::profile::run_all_min(&mut man, 2);
        assert_eq!(dc, dm);
        let kept_rows = 1024 / 8;
        assert_eq!(
            comp.data_node_pixels(),
            kept_rows * 1024,
            "every pixel of a kept row"
        );
        assert_eq!(
            man.data_node_pixels(),
            kept_rows * 1024 / 8,
            "every 8th pixel"
        );
    }

    #[test]
    fn queries_have_expected_output_sizes() {
        let s = small_query();
        assert_eq!(s.out_dims(), (128, 128));
        let l = large_query();
        assert_eq!(l.out_dims(), (128, 128));
    }

    #[test]
    fn packet_rows_partition_region() {
        let p = mk(VmVersion::Default);
        let mut total = 0;
        for i in 0..p.packets() {
            total += p.packet_rows(i).len();
        }
        assert_eq!(total, p.query.height);
    }

    #[test]
    fn reset_allows_remeasurement() {
        let mut p = mk(VmVersion::Default);
        let (_, d1) = run_all(&mut p);
        p.reset();
        let (_, d2) = run_all(&mut p);
        assert_eq!(d1, d2);
    }

    #[test]
    fn slide_is_deterministic() {
        let a = Slide::synthetic(64, 64, 9);
        let b = Slide::synthetic(64, 64, 9);
        assert_eq!(a.data, b.data);
    }
}

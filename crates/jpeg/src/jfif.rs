//! JFIF container: the baseline sequential encoder and decoder.
//!
//! The encoder emits SOI / APP0 / DQT / SOF0 / DHT / SOS / EOI with the
//! Annex-K tables; the decoder parses any conforming baseline stream
//! that uses the sampling layouts a DSC produces (4:4:4 or 4:2:0 with
//! 2×2 luma). Progressive JPEG, restart markers, arithmetic coding and
//! 12-bit precision are rejected as [`JpegError::Unsupported`].

use crate::bitstream::{BitReader, BitWriter};
use crate::color::{
    subsample_420, to_rgb, to_ycbcr, upsample_420, Plane, Rgb,
};
use crate::dct::{fdct_block, idct_block};
use crate::huffman::{decode_block, encode_block, HuffTable};
use crate::quant::QuantTable;
use crate::zigzag::{from_zigzag, to_zigzag, ZIGZAG};
use crate::JpegError;

/// Chroma sampling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Full-resolution chroma.
    S444,
    /// 2×2-subsampled chroma (what the camera ships).
    S420,
}

/// Encoder parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeParams {
    /// Quality 1..=100 (libjpeg scaling).
    pub quality: u8,
    /// Chroma sampling.
    pub sampling: Sampling,
}

impl Default for EncodeParams {
    fn default() -> Self {
        EncodeParams { quality: 85, sampling: Sampling::S420 }
    }
}

/// Maximum dimension accepted (JPEG's 16-bit field, minus guard).
pub const MAX_DIM: usize = 65_500;

// Marker bytes.
const SOI: u8 = 0xD8;
const EOI: u8 = 0xD9;
const APP0: u8 = 0xE0;
const DQT: u8 = 0xDB;
const SOF0: u8 = 0xC0;
const DHT: u8 = 0xC4;
const SOS: u8 = 0xDA;

fn put_marker(out: &mut Vec<u8>, m: u8) {
    out.push(0xFF);
    out.push(m);
}

fn put_segment(out: &mut Vec<u8>, m: u8, payload: &[u8]) {
    put_marker(out, m);
    let len = payload.len() + 2;
    out.push((len >> 8) as u8);
    out.push(len as u8);
    out.extend_from_slice(payload);
}

/// Extract one 8×8 block from a plane at `(bx*8, by*8)` with edge clamp.
fn extract_block(plane: &Plane, bx: usize, by: usize) -> [u8; 64] {
    let mut out = [0u8; 64];
    for y in 0..8 {
        for x in 0..8 {
            out[y * 8 + x] =
                plane.sample_clamped((bx * 8 + x) as isize, (by * 8 + y) as isize);
        }
    }
    out
}

/// Store a decoded 8×8 block into a plane (ignoring out-of-range pixels).
fn store_block(plane: &mut Plane, bx: usize, by: usize, block: &[u8; 64]) {
    for y in 0..8 {
        for x in 0..8 {
            let px = bx * 8 + x;
            let py = by * 8 + y;
            if px < plane.width && py < plane.height {
                plane.data[py * plane.width + px] = block[y * 8 + x];
            }
        }
    }
}

/// Statistics from an encode, used by the implementation cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodeStats {
    /// 8×8 blocks processed (all components).
    pub blocks: usize,
    /// Nonzero quantised coefficients entropy-coded.
    pub nonzero_coefficients: usize,
    /// Output bytes.
    pub bytes: usize,
}

/// Encode an image, also returning cost-model statistics.
///
/// # Errors
///
/// [`JpegError::BadDimensions`] / [`JpegError::BadQuality`].
pub fn encode_with_stats(
    img: &Rgb,
    params: &EncodeParams,
) -> Result<(Vec<u8>, EncodeStats), JpegError> {
    if img.width == 0 || img.height == 0 || img.width > MAX_DIM || img.height > MAX_DIM {
        return Err(JpegError::BadDimensions { width: img.width, height: img.height });
    }
    let qluma = QuantTable::luma(params.quality)?;
    let qchroma = QuantTable::chroma(params.quality)?;
    let dc_l = HuffTable::dc_luma();
    let dc_c = HuffTable::dc_chroma();
    let ac_l = HuffTable::ac_luma();
    let ac_c = HuffTable::ac_chroma();

    let ycc = to_ycbcr(img);
    let (cb, cr) = match params.sampling {
        Sampling::S444 => (ycc.cb.clone(), ycc.cr.clone()),
        Sampling::S420 => (subsample_420(&ycc.cb), subsample_420(&ycc.cr)),
    };

    let mut out = Vec::new();
    put_marker(&mut out, SOI);
    // APP0 JFIF
    put_segment(
        &mut out,
        APP0,
        &[b'J', b'F', b'I', b'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0],
    );
    // DQT: two tables, values in zigzag order
    let mut dqt = Vec::with_capacity(130);
    dqt.push(0x00);
    for &zz in &ZIGZAG {
        dqt.push(qluma.values[zz] as u8);
    }
    dqt.push(0x01);
    for &zz in &ZIGZAG {
        dqt.push(qchroma.values[zz] as u8);
    }
    put_segment(&mut out, DQT, &dqt);
    // SOF0
    let (hy, vy) = match params.sampling {
        Sampling::S444 => (1u8, 1u8),
        Sampling::S420 => (2u8, 2u8),
    };
    let sof = vec![
        8, // precision
        (img.height >> 8) as u8,
        img.height as u8,
        (img.width >> 8) as u8,
        img.width as u8,
        3, // components
        1,
        (hy << 4) | vy,
        0, // Y, quant table 0
        2,
        0x11,
        1, // Cb
        3,
        0x11,
        1, // Cr
    ];
    put_segment(&mut out, SOF0, &sof);
    // DHT: 4 tables
    let mut dht = Vec::new();
    for (class_id, t) in
        [(0x00u8, &dc_l), (0x01, &dc_c), (0x10, &ac_l), (0x11, &ac_c)]
    {
        dht.push(class_id);
        dht.extend_from_slice(&t.bits);
        dht.extend_from_slice(&t.vals);
    }
    put_segment(&mut out, DHT, &dht);
    // SOS
    put_segment(&mut out, SOS, &[3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]);

    // Entropy-coded data.
    let mut w = BitWriter::new();
    let mut stats = EncodeStats::default();
    let mut pred = [0i32; 3]; // per-component DC predictors
    let code_block = |w: &mut BitWriter,
                          stats: &mut EncodeStats,
                          pred: &mut [i32; 3],
                          plane: &Plane,
                          bx: usize,
                          by: usize,
                          comp: usize| {
        let samples = extract_block(plane, bx, by);
        let coef = fdct_block(&samples);
        let q = if comp == 0 { &qluma } else { &qchroma };
        let zz = to_zigzag(&q.quantize(&coef));
        stats.blocks += 1;
        stats.nonzero_coefficients += zz.iter().filter(|&&c| c != 0).count();
        let (dc, ac) = if comp == 0 { (&dc_l, &ac_l) } else { (&dc_c, &ac_c) };
        pred[comp] = encode_block(w, &zz, pred[comp], dc, ac);
    };

    match params.sampling {
        Sampling::S444 => {
            let bw = img.width.div_ceil(8);
            let bh = img.height.div_ceil(8);
            for by in 0..bh {
                for bx in 0..bw {
                    code_block(&mut w, &mut stats, &mut pred, &ycc.y, bx, by, 0);
                    code_block(&mut w, &mut stats, &mut pred, &cb, bx, by, 1);
                    code_block(&mut w, &mut stats, &mut pred, &cr, bx, by, 2);
                }
            }
        }
        Sampling::S420 => {
            let mw = img.width.div_ceil(16);
            let mh = img.height.div_ceil(16);
            for my in 0..mh {
                for mx in 0..mw {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            code_block(
                                &mut w,
                                &mut stats,
                                &mut pred,
                                &ycc.y,
                                mx * 2 + dx,
                                my * 2 + dy,
                                0,
                            );
                        }
                    }
                    code_block(&mut w, &mut stats, &mut pred, &cb, mx, my, 1);
                    code_block(&mut w, &mut stats, &mut pred, &cr, mx, my, 2);
                }
            }
        }
    }
    out.extend_from_slice(&w.finish());
    put_marker(&mut out, EOI);
    stats.bytes = out.len();
    Ok((out, stats))
}

/// Encode an image to JPEG bytes.
///
/// # Errors
///
/// [`JpegError::BadDimensions`] / [`JpegError::BadQuality`].
pub fn encode(img: &Rgb, params: &EncodeParams) -> Result<Vec<u8>, JpegError> {
    encode_with_stats(img, params).map(|(bytes, _)| bytes)
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Component {
    id: u8,
    h: u8,
    v: u8,
    tq: u8,
    td: u8,
    ta: u8,
}

/// Decode a baseline JPEG produced by this codec (or any conforming
/// encoder using 4:4:4 or 2×2 4:2:0 sampling and Huffman baseline).
///
/// # Errors
///
/// [`JpegError::BadStream`] on malformed data, [`JpegError::Unsupported`]
/// on non-baseline features.
pub fn decode(bytes: &[u8]) -> Result<Rgb, JpegError> {
    let bad = |m: &str| JpegError::BadStream(m.to_string());
    if bytes.len() < 4 || bytes[0] != 0xFF || bytes[1] != SOI {
        return Err(bad("missing SOI"));
    }
    let mut pos = 2usize;
    let mut qtables: [Option<QuantTable>; 4] = [None, None, None, None];
    let mut dc_tables: [Option<HuffTable>; 4] = [None, None, None, None];
    let mut ac_tables: [Option<HuffTable>; 4] = [None, None, None, None];
    let mut sof: Option<(usize, usize, Vec<Component>)> = None;
    let mut scan: Option<(Vec<Component>, usize)> = None;

    while pos + 1 < bytes.len() {
        if bytes[pos] != 0xFF {
            return Err(bad("expected marker"));
        }
        let marker = bytes[pos + 1];
        pos += 2;
        match marker {
            EOI => break,
            0xD0..=0xD7 => {
                return Err(JpegError::Unsupported("restart markers".into()));
            }
            SOI => continue,
            _ => {}
        }
        if pos + 2 > bytes.len() {
            return Err(bad("truncated segment length"));
        }
        let len = ((bytes[pos] as usize) << 8 | bytes[pos + 1] as usize)
            .checked_sub(2)
            .ok_or_else(|| bad("segment length underflow"))?;
        pos += 2;
        if pos + len > bytes.len() {
            return Err(bad("truncated segment"));
        }
        let seg = &bytes[pos..pos + len];
        match marker {
            DQT => {
                let mut p = 0usize;
                while p < seg.len() {
                    let pq = seg[p] >> 4;
                    let tq = (seg[p] & 0xF) as usize;
                    if pq != 0 {
                        return Err(JpegError::Unsupported("16-bit quant table".into()));
                    }
                    if tq > 3 || p + 65 > seg.len() {
                        return Err(bad("bad DQT"));
                    }
                    let mut values = [0u16; 64];
                    for k in 0..64 {
                        values[ZIGZAG[k]] = seg[p + 1 + k] as u16;
                    }
                    qtables[tq] = Some(QuantTable { values });
                    p += 65;
                }
            }
            DHT => {
                let mut p = 0usize;
                while p + 17 <= seg.len() {
                    let class = seg[p] >> 4;
                    let id = (seg[p] & 0xF) as usize;
                    if id > 3 {
                        return Err(bad("bad DHT id"));
                    }
                    let mut bits = [0u8; 16];
                    bits.copy_from_slice(&seg[p + 1..p + 17]);
                    let total: usize = bits.iter().map(|&b| b as usize).sum();
                    if p + 17 + total > seg.len() {
                        return Err(bad("truncated DHT"));
                    }
                    let vals = seg[p + 17..p + 17 + total].to_vec();
                    let table = HuffTable::new(bits, vals)?;
                    match class {
                        0 => dc_tables[id] = Some(table),
                        1 => ac_tables[id] = Some(table),
                        _ => return Err(bad("bad DHT class")),
                    }
                    p += 17 + total;
                }
            }
            SOF0 => {
                if seg.len() < 6 {
                    return Err(bad("short SOF0"));
                }
                if seg[0] != 8 {
                    return Err(JpegError::Unsupported("sample precision != 8".into()));
                }
                let height = (seg[1] as usize) << 8 | seg[2] as usize;
                let width = (seg[3] as usize) << 8 | seg[4] as usize;
                let ncomp = seg[5] as usize;
                if ncomp != 3 {
                    return Err(JpegError::Unsupported(format!("{ncomp} components")));
                }
                if seg.len() < 6 + ncomp * 3 {
                    return Err(bad("short SOF0 component list"));
                }
                let mut comps = Vec::new();
                for c in 0..ncomp {
                    let b = &seg[6 + c * 3..9 + c * 3];
                    if b[2] > 3 {
                        return Err(bad("bad SOF0 quant table id"));
                    }
                    comps.push(Component {
                        id: b[0],
                        h: b[1] >> 4,
                        v: b[1] & 0xF,
                        tq: b[2],
                        td: 0,
                        ta: 0,
                    });
                }
                sof = Some((width, height, comps));
            }
            // any other SOFn is beyond baseline sequential (DHT = 0xC4 is
            // already taken by its own arm above; the guard is defensive)
            0xC1..=0xCF if marker != DHT => {
                return Err(JpegError::Unsupported(format!(
                    "SOF marker 0x{marker:02X} (non-baseline)"
                )));
            }
            SOS => {
                let (_, _, comps) =
                    sof.as_ref().ok_or_else(|| bad("SOS before SOF0"))?;
                if seg.is_empty() || seg[0] as usize != comps.len() {
                    return Err(bad("SOS component count mismatch"));
                }
                if seg.len() < 1 + comps.len() * 2 {
                    return Err(bad("short SOS component list"));
                }
                let mut scan_comps = Vec::new();
                for c in 0..comps.len() {
                    let id = seg[1 + c * 2];
                    let tables = seg[2 + c * 2];
                    if tables >> 4 > 3 || tables & 0xF > 3 {
                        return Err(bad("bad SOS table id"));
                    }
                    let mut comp = *comps
                        .iter()
                        .find(|k| k.id == id)
                        .ok_or_else(|| bad("SOS references unknown component"))?;
                    comp.td = tables >> 4;
                    comp.ta = tables & 0xF;
                    scan_comps.push(comp);
                }
                scan = Some((scan_comps, pos + len));
                break; // entropy data follows
            }
            _ => {} // APPn / COM: skip
        }
        pos += len;
    }

    let (width, height, _) = sof.ok_or_else(|| bad("no SOF0"))?;
    let (comps, data_start) = scan.ok_or_else(|| bad("no SOS"))?;
    if width == 0 || height == 0 {
        return Err(JpegError::BadDimensions { width, height });
    }

    // entropy segment runs until the next marker (EOI)
    let mut data_end = data_start;
    while data_end + 1 < bytes.len() {
        if bytes[data_end] == 0xFF && bytes[data_end + 1] != 0x00 {
            break;
        }
        data_end += 1;
    }
    let entropy = &bytes[data_start..data_end];

    // sampling layout
    let (hy, vy) = (comps[0].h, comps[0].v);
    let s420 = hy == 2 && vy == 2 && comps[1].h == 1 && comps[2].h == 1;
    let s444 = hy == 1 && vy == 1 && comps[1].h == 1 && comps[2].h == 1;
    if !s420 && !s444 {
        return Err(JpegError::Unsupported(format!("sampling {hy}x{vy}")));
    }

    let (cw, ch) = if s420 {
        (width.div_ceil(2), height.div_ceil(2))
    } else {
        (width, height)
    };
    let mut yplane = Plane::filled(width, height, 0);
    let mut cbplane = Plane::filled(cw, ch, 128);
    let mut crplane = Plane::filled(cw, ch, 128);

    let table_for = |comp: &Component| -> Result<(&HuffTable, &HuffTable, &QuantTable), JpegError> {
        let dc = dc_tables[comp.td as usize]
            .as_ref()
            .ok_or_else(|| JpegError::BadStream("missing dc table".into()))?;
        let ac = ac_tables[comp.ta as usize]
            .as_ref()
            .ok_or_else(|| JpegError::BadStream("missing ac table".into()))?;
        let q = qtables[comp.tq as usize]
            .as_ref()
            .ok_or_else(|| JpegError::BadStream("missing quant table".into()))?;
        Ok((dc, ac, q))
    };

    let mut r = BitReader::new(entropy);
    let mut pred = [0i32; 3];
    let mut zz = [0i32; 64];
    let decode_one = |r: &mut BitReader<'_>,
                          pred: &mut [i32; 3],
                          zz: &mut [i32; 64],
                          comp_idx: usize,
                          comp: &Component,
                          plane: &mut Plane,
                          bx: usize,
                          by: usize|
     -> Result<(), JpegError> {
        let (dc, ac, q) = table_for(comp)?;
        pred[comp_idx] = decode_block(r, zz, pred[comp_idx], dc, ac)?;
        let coef = q.dequantize(&from_zigzag(zz));
        let samples = idct_block(&coef);
        store_block(plane, bx, by, &samples);
        Ok(())
    };

    if s444 {
        let bw = width.div_ceil(8);
        let bh = height.div_ceil(8);
        for by in 0..bh {
            for bx in 0..bw {
                decode_one(&mut r, &mut pred, &mut zz, 0, &comps[0], &mut yplane, bx, by)?;
                decode_one(&mut r, &mut pred, &mut zz, 1, &comps[1], &mut cbplane, bx, by)?;
                decode_one(&mut r, &mut pred, &mut zz, 2, &comps[2], &mut crplane, bx, by)?;
            }
        }
    } else {
        let mw = width.div_ceil(16);
        let mh = height.div_ceil(16);
        for my in 0..mh {
            for mx in 0..mw {
                for dy in 0..2 {
                    for dx in 0..2 {
                        decode_one(
                            &mut r,
                            &mut pred,
                            &mut zz,
                            0,
                            &comps[0],
                            &mut yplane,
                            mx * 2 + dx,
                            my * 2 + dy,
                        )?;
                    }
                }
                decode_one(&mut r, &mut pred, &mut zz, 1, &comps[1], &mut cbplane, mx, my)?;
                decode_one(&mut r, &mut pred, &mut zz, 2, &comps[2], &mut crplane, mx, my)?;
            }
        }
    }

    let (cb_full, cr_full) = if s420 {
        (upsample_420(&cbplane, width, height), upsample_420(&crplane, width, height))
    } else {
        (cbplane, crplane)
    };
    Ok(to_rgb(&yplane, &cb_full, &cr_full))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psnr::{psnr, test_image};

    #[test]
    fn round_trip_444_high_quality() {
        let img = test_image(40, 24, 1);
        let bytes =
            encode(&img, &EncodeParams { quality: 95, sampling: Sampling::S444 }).unwrap();
        assert_eq!(&bytes[..2], &[0xFF, 0xD8]);
        assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9]);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.width, 40);
        assert_eq!(back.height, 24);
        assert!(psnr(&img, &back) > 35.0, "psnr {}", psnr(&img, &back));
    }

    #[test]
    fn round_trip_420() {
        let img = test_image(48, 32, 2);
        let bytes =
            encode(&img, &EncodeParams { quality: 85, sampling: Sampling::S420 }).unwrap();
        let back = decode(&bytes).unwrap();
        assert!(psnr(&img, &back) > 28.0, "psnr {}", psnr(&img, &back));
    }

    #[test]
    fn odd_dimensions_round_trip() {
        let img = test_image(33, 17, 3);
        for sampling in [Sampling::S444, Sampling::S420] {
            let bytes = encode(&img, &EncodeParams { quality: 90, sampling }).unwrap();
            let back = decode(&bytes).unwrap();
            assert_eq!(back.width, 33);
            assert_eq!(back.height, 17);
            assert!(psnr(&img, &back) > 25.0);
        }
    }

    #[test]
    fn quality_monotonicity() {
        let img = test_image(64, 64, 4);
        let mut last_size = usize::MAX;
        let mut last_psnr = f64::INFINITY;
        for q in [95, 75, 50, 25, 10] {
            let bytes =
                encode(&img, &EncodeParams { quality: q, sampling: Sampling::S420 }).unwrap();
            let back = decode(&bytes).unwrap();
            let p = psnr(&img, &back);
            assert!(bytes.len() <= last_size, "q{q} grew the file");
            assert!(p <= last_psnr + 0.5, "q{q} improved psnr unexpectedly");
            last_size = bytes.len();
            last_psnr = p;
        }
    }

    #[test]
    fn flat_image_compresses_hard() {
        let mut img = Rgb::new(64, 64);
        for p in img.data.iter_mut() {
            *p = 120;
        }
        let bytes =
            encode(&img, &EncodeParams { quality: 85, sampling: Sampling::S420 }).unwrap();
        // 64×64×3 = 12 KiB raw; flat field should take well under 1 KiB
        assert!(bytes.len() < 1024, "flat image {} bytes", bytes.len());
        let back = decode(&bytes).unwrap();
        assert!(psnr(&img, &back) > 45.0);
    }

    #[test]
    fn bad_inputs_rejected() {
        let img = test_image(8, 8, 5);
        assert!(matches!(
            encode(&Rgb::new(0, 8), &EncodeParams::default()),
            Err(JpegError::BadDimensions { .. })
        ));
        assert!(matches!(
            encode(&img, &EncodeParams { quality: 0, sampling: Sampling::S444 }),
            Err(JpegError::BadQuality(0))
        ));
    }

    #[test]
    fn decoder_rejects_garbage_and_truncation() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0xFF, 0xD8]).is_err());
        assert!(decode(b"not a jpeg at all").is_err());
        let img = test_image(16, 16, 6);
        let bytes = encode(&img, &EncodeParams::default()).unwrap();
        // truncate in the middle of entropy data
        let cut = &bytes[..bytes.len() / 2];
        assert!(decode(cut).is_err());
        // corrupt the SOF0 marker into progressive (SOF2)
        let mut prog = bytes.clone();
        for i in 0..prog.len() - 1 {
            if prog[i] == 0xFF && prog[i + 1] == 0xC0 {
                prog[i + 1] = 0xC2;
                break;
            }
        }
        assert!(matches!(decode(&prog), Err(JpegError::Unsupported(_))));
    }

    #[test]
    fn out_of_range_table_selector_is_a_typed_error() {
        // byte 601 is the Cb component's SOS table selector, 0x11: the
        // flip selects DC table 7 of 4, which once indexed out of bounds
        let mut bytes = encode(&test_image(24, 16, 28), &EncodeParams::default()).unwrap();
        bytes[601] ^= 0x6F;
        assert!(matches!(decode(&bytes), Err(JpegError::BadStream(_))));
    }

    #[test]
    fn stats_are_plausible() {
        let img = test_image(32, 32, 7);
        let (bytes, stats) =
            encode_with_stats(&img, &EncodeParams { quality: 85, sampling: Sampling::S420 })
                .unwrap();
        // 32×32 → 2×2 MCUs of 6 blocks
        assert_eq!(stats.blocks, 4 * 6);
        assert_eq!(stats.bytes, bytes.len());
        assert!(stats.nonzero_coefficients > 0);
        let (_, stats444) =
            encode_with_stats(&img, &EncodeParams { quality: 85, sampling: Sampling::S444 })
                .unwrap();
        assert_eq!(stats444.blocks, 16 * 3);
    }
}

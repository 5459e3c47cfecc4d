//! JP2 container (JPEG2000 Part 1, Annex I): the box-structured file
//! format that normally wraps a raw codestream (`.jp2` vs `.j2c`).
//!
//! Implements the minimal mandatory box set — JPEG2000 signature, file
//! type, JP2 header (image header + colour specification), and the
//! contiguous-codestream box — which is what every common `.jp2` file
//! carries.

use crate::codestream;
use crate::CodecError;

const BOX_SIGNATURE: &[u8; 4] = b"jP\x20\x20";
const BOX_FTYP: &[u8; 4] = b"ftyp";
const BOX_JP2H: &[u8; 4] = b"jp2h";
const BOX_IHDR: &[u8; 4] = b"ihdr";
const BOX_COLR: &[u8; 4] = b"colr";
const BOX_JP2C: &[u8; 4] = b"jp2c";
const SIGNATURE_PAYLOAD: [u8; 4] = [0x0D, 0x0A, 0x87, 0x0A];

fn push_box(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(&((payload.len() + 8) as u32).to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(payload);
}

/// Wrap a raw codestream in a JP2 container. The image geometry is read
/// from the codestream's own main header, so the boxes always agree with
/// the payload.
pub fn wrap(codestream_bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let parsed = codestream::parse(codestream_bytes)?;
    let hdr = &parsed.header;
    let mut out = Vec::with_capacity(codestream_bytes.len() + 96);

    push_box(&mut out, BOX_SIGNATURE, &SIGNATURE_PAYLOAD);

    let mut ftyp = Vec::new();
    ftyp.extend_from_slice(b"jp2\x20"); // brand
    ftyp.extend_from_slice(&0u32.to_be_bytes()); // minor version
    ftyp.extend_from_slice(b"jp2\x20"); // compatibility list
    push_box(&mut out, BOX_FTYP, &ftyp);

    let mut jp2h = Vec::new();
    let mut ihdr = Vec::new();
    ihdr.extend_from_slice(&(hdr.height as u32).to_be_bytes());
    ihdr.extend_from_slice(&(hdr.width as u32).to_be_bytes());
    ihdr.extend_from_slice(&(hdr.comps as u16).to_be_bytes());
    ihdr.push(hdr.depth - 1); // BPC: depth-1, unsigned
    ihdr.push(7); // compression type: JPEG2000
    ihdr.push(0); // colourspace unknown = false
    ihdr.push(0); // no IPR
    push_box(&mut jp2h, BOX_IHDR, &ihdr);
    let mut colr = Vec::new();
    colr.push(1); // method: enumerated
    colr.push(0); // precedence
    colr.push(0); // approximation
    let enum_cs: u32 = if hdr.comps == 3 { 16 } else { 17 }; // sRGB / greyscale
    colr.extend_from_slice(&enum_cs.to_be_bytes());
    push_box(&mut jp2h, BOX_COLR, &colr);
    push_box(&mut out, BOX_JP2H, &jp2h);

    push_box(&mut out, BOX_JP2C, codestream_bytes);
    Ok(out)
}

/// Extract the contiguous codestream from a JP2 container.
pub fn unwrap(data: &[u8]) -> Result<&[u8], CodecError> {
    let mut p = 0usize;
    let mut saw_signature = false;
    while p + 8 <= data.len() {
        let len = u32::from_be_bytes([data[p], data[p + 1], data[p + 2], data[p + 3]]) as usize;
        let kind = &data[p + 4..p + 8];
        // XLBox (64-bit length) and to-end-of-file boxes.
        let (payload_start, box_len) = match len {
            0 => (p + 8, data.len() - p),
            1 => {
                if p + 16 > data.len() {
                    return Err(CodecError::Codestream("truncated XLBox".into()));
                }
                let l = u64::from_be_bytes(data[p + 8..p + 16].try_into().unwrap());
                (p + 16, usize::try_from(l).unwrap_or(usize::MAX))
            }
            l if l >= 8 => (p + 8, l),
            _ => return Err(CodecError::Codestream("bad box length".into())),
        };
        // A box ends past its own header (or the walk would not advance)
        // and within the file.
        let end = match p.checked_add(box_len) {
            Some(end) if (payload_start..=data.len()).contains(&end) => end,
            _ => return Err(CodecError::Codestream("box overruns file".into())),
        };
        if p == 0 {
            if kind != BOX_SIGNATURE || data[payload_start..end] != SIGNATURE_PAYLOAD {
                return Err(CodecError::Codestream("not a JP2 file".into()));
            }
            saw_signature = true;
        }
        if kind == BOX_JP2C {
            if !saw_signature {
                return Err(CodecError::Codestream("jp2c before signature".into()));
            }
            return Ok(&data[payload_start..end]);
        }
        p = end;
    }
    Err(CodecError::Codestream(
        "no contiguous codestream box".into(),
    ))
}

/// True if `data` looks like a JP2 container (vs. a raw codestream, which
/// begins with the SOC marker FF4F).
pub fn is_jp2(data: &[u8]) -> bool {
    data.len() >= 12 && &data[4..8] == BOX_SIGNATURE && data[8..12] == SIGNATURE_PAYLOAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncoderParams;
    use imgio::synth;

    #[test]
    fn wrap_unwrap_roundtrip() {
        let im = synth::natural_rgb(48, 32, 3);
        let cs = crate::encode(&im, &EncoderParams::lossless()).unwrap();
        let jp2 = wrap(&cs).unwrap();
        assert!(is_jp2(&jp2));
        assert!(!is_jp2(&cs));
        assert_eq!(unwrap(&jp2).unwrap(), &cs[..]);
        assert_eq!(crate::decode(unwrap(&jp2).unwrap()).unwrap(), im);
    }

    #[test]
    fn box_structure_is_canonical() {
        let im = synth::natural(16, 16, 1);
        let cs = crate::encode(
            &im,
            &EncoderParams {
                levels: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let jp2 = wrap(&cs).unwrap();
        // Signature box is exactly the fixed 12 bytes.
        assert_eq!(
            &jp2[..12],
            &[0, 0, 0, 12, b'j', b'P', 0x20, 0x20, 0x0D, 0x0A, 0x87, 0x0A]
        );
        // ftyp follows with brand jp2.
        assert_eq!(&jp2[16..20], b"ftyp");
        assert_eq!(&jp2[20..24], b"jp2\x20");
        // ihdr geometry matches.
        let ihdr_pos = jp2.windows(4).position(|w| w == b"ihdr").unwrap();
        let h = u32::from_be_bytes(jp2[ihdr_pos + 4..ihdr_pos + 8].try_into().unwrap());
        let w = u32::from_be_bytes(jp2[ihdr_pos + 8..ihdr_pos + 12].try_into().unwrap());
        assert_eq!((w, h), (16, 16));
    }

    #[test]
    fn grayscale_gets_grey_colourspace() {
        let im = synth::natural(8, 8, 2);
        let cs = crate::encode(
            &im,
            &EncoderParams {
                levels: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let jp2 = wrap(&cs).unwrap();
        let colr_pos = jp2.windows(4).position(|w| w == b"colr").unwrap();
        let cs_val = u32::from_be_bytes(jp2[colr_pos + 7..colr_pos + 11].try_into().unwrap());
        assert_eq!(cs_val, 17);
    }

    #[test]
    fn rejects_garbage() {
        assert!(unwrap(b"definitely not a jp2 file").is_err());
        assert!(unwrap(&[]).is_err());
        let im = synth::natural(8, 8, 1);
        let cs = crate::encode(
            &im,
            &EncoderParams {
                levels: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mut jp2 = wrap(&cs).unwrap();
        jp2.truncate(jp2.len() - 10);
        assert!(unwrap(&jp2).is_err());
    }

    #[test]
    fn rejects_xlbox_lengths_that_stall_or_overflow_the_walk() {
        let mut sig = Vec::new();
        push_box(&mut sig, BOX_SIGNATURE, &SIGNATURE_PAYLOAD);
        let xl_box = |kind: &[u8; 4], xl: u64| {
            let mut f = sig.clone();
            f.extend_from_slice(&1u32.to_be_bytes());
            f.extend_from_slice(kind);
            f.extend_from_slice(&xl.to_be_bytes());
            f
        };
        for kind in [b"free", BOX_JP2C] {
            for xl in [0u64, 1, 8, 15, u64::MAX - 11, u64::MAX] {
                let mut f = xl_box(kind, xl);
                f.extend_from_slice(&[0xFF, 0x4F]);
                assert!(unwrap(&f).is_err(), "{kind:?} XLBox length {xl}");
            }
        }
        // A well-formed (here empty) XLBox is walked past.
        let mut f = xl_box(b"free", 16);
        push_box(&mut f, BOX_JP2C, &[0xFF, 0x4F]);
        assert_eq!(unwrap(&f).unwrap(), &[0xFF, 0x4F]);
    }

    #[test]
    fn wrapped_stream_keeps_its_main_header() {
        let im = synth::natural(24, 24, 5);
        let cs = crate::encode(
            &im,
            &EncoderParams {
                levels: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let jp2 = wrap(&cs).unwrap();
        let (h1, _) = codestream::read_header(&cs).unwrap();
        let (h2, _) = codestream::read_header(unwrap(&jp2).unwrap()).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(h1.width, 24);
    }
}

//! Helpers shared by the integration tests that pin whole-flow results.

use camsoc::flow::flow::FlowResult;
use camsoc::netlist::codec::{Codec, Encoder};

/// FNV-1a over a flow's sign-off products: the encoded pre-layout
/// timing, sign-off timing, two-corner sign-off, equivalence report and
/// ATPG result, then the timing-ECO count, both STA evaluation counters
/// and the GDSII bytes.
pub fn flow_digest(r: &FlowResult) -> u64 {
    let mut e = Encoder::new();
    r.pre_layout_timing.encode(&mut e);
    r.signoff_timing.encode(&mut e);
    r.corner_signoff.encode(&mut e);
    r.equivalence.encode(&mut e);
    r.atpg.encode(&mut e);
    e.put_usize(r.timing_ecos);
    e.put_usize(r.sta_incremental_evals);
    e.put_usize(r.sta_full_evals);
    e.put_bytes(&r.gds);
    e.into_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

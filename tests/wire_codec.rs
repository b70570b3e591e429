//! Property tests of the `otrepaird` wire codec (`serve::protocol`):
//! archives and repaired columns cross the wire bit-exactly, truncated
//! or arbitrary payloads decode to errors without panicking, and one bad
//! value anywhere in an archive is refused as `BadPayload`.

use proptest::collection::vec;
use proptest::prelude::*;

use ot_fair_repair::data::ColumnarDataset;
use ot_fair_repair::serve::protocol::{Request, Response, PROTOCOL_VERSION};
use ot_fair_repair::serve::{
    AuditRecord, AuditStratum, DriftReport, DriftStratum, ErrorCode, PlanInfo, PlanKind, ServerInfo,
};

/// Any finite `f64`, with `-0.0`, subnormals and `±f64::MAX` drawn often.
fn finite_f64() -> impl Strategy<Value = f64> {
    (0u8..8, 0..=u64::MAX).prop_map(|(pick, bits)| match pick {
        0 => -0.0,
        1 => f64::MAX,
        2 => -f64::MAX,
        // Zero exponent field: a subnormal (or a signed zero).
        3 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
        // Clearing the top exponent bit rules out NaN and ±∞.
        _ => f64::from_bits(bits & !(1 << 62)),
    })
}

/// Archives of dimension 1–5 with 0–300 rows.
fn arb_archive() -> impl Strategy<Value = ColumnarDataset> {
    (1usize..=5, 0usize..=300).prop_flat_map(|(dim, rows)| {
        (
            vec(finite_f64(), dim * rows),
            vec(0u8..2, rows),
            vec(0u8..2, rows),
        )
            .prop_map(move |(flat, s, u)| {
                let columns = (0..dim)
                    .map(|k| flat[k * rows..(k + 1) * rows].to_vec())
                    .collect();
                ColumnarDataset::from_columns(columns, s, u).unwrap()
            })
    })
}

fn bits(columns: &[Vec<f64>]) -> Vec<Vec<u64>> {
    columns
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn repair_request(archive: &ColumnarDataset, seed: u64) -> Request {
    Request::Repair {
        name: "plan-a".into(),
        version: 3,
        seed,
        archive: archive.clone(),
    }
}

/// Bytes before the archive's label columns in a `repair_request`
/// payload: name str16, version, seed, dim, rows.
const REPAIR_HEADER: usize = 2 + "plan-a".len() + 4 + 8 + 4 + 4;

/// Every message whose payload has no open-ended trailing field (so any
/// strict prefix of it is truncated), as encoded frames.
fn fixed_layout_frames(archive: &ColumnarDataset, seed: u64) -> Vec<(bool, u8, Vec<u8>)> {
    let requests = [
        repair_request(archive, seed),
        Request::EvictPlan {
            name: "n".into(),
            version: 1,
        },
        Request::Watch {
            name: "census".into(),
            threshold: 0.5,
            trips: 2,
            check_every: 256,
            min_rows: 512,
        },
        Request::DriftStatus { name: "c".into() },
        Request::Audit { name: "c".into() },
    ];
    let responses = [
        Response::Repaired {
            out_of_range: seed,
            columns: archive.feature_columns().to_vec(),
        },
        Response::PlanList(vec![PlanInfo {
            name: "a".into(),
            version: 1,
            kind: PlanKind::Scalar,
            dim: 2,
            n_q: 50,
        }]),
        Response::Info(ServerInfo {
            protocol_version: PROTOCOL_VERSION,
            plans: 2,
            requests: 100,
            rows_repaired: 12_345,
            shards: 4,
            threads: 8,
            accepted: 17,
            rejected_overload: 3,
            deadline_kills: 2,
            panics_caught: 1,
            max_conns: 256,
            watches: 1,
            swaps: 4,
        }),
        Response::Watching { version: 7 },
        Response::DriftReport(DriftReport {
            version: 7,
            rows_seen: 4096,
            checks: 16,
            consecutive: 1,
            tripped: false,
            swaps: 2,
            strata: vec![DriftStratum {
                u: 1,
                k: 0,
                divergence: [0.125, 0.75],
            }],
        }),
        Response::AuditRecords(vec![AuditRecord {
            version: 8,
            parent: 7,
            rows_observed: 4096,
            trigger_divergence: 1.5,
            strata: vec![AuditStratum {
                u: 1,
                k: 0,
                e_before: 2.25,
                e_after: 0.0625,
            }],
        }]),
    ];
    let requests = requests.iter().map(|r| (true, r.encode()));
    let responses = responses.iter().map(|r| (false, r.encode()));
    requests
        .chain(responses)
        .map(|(is_req, (t, p))| (is_req, t, p))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Archives survive a `Repair` request, and repaired columns a
    /// `Repaired` response, bit for bit.
    #[test]
    fn repair_frames_round_trip_bit_exactly(archive in arb_archive(), seed in 0..=u64::MAX) {
        let (t, p) = repair_request(&archive, seed).encode();
        let Ok(Request::Repair { archive: back, seed: back_seed, .. }) = Request::decode(t, &p)
        else {
            return Err(TestCaseError::fail("Repair request did not decode"));
        };
        prop_assert_eq!(back_seed, seed);
        prop_assert_eq!(bits(back.feature_columns()), bits(archive.feature_columns()));
        prop_assert_eq!(back.s(), archive.s());
        prop_assert_eq!(back.u(), archive.u());

        let (t, p) = Response::Repaired {
            out_of_range: seed,
            columns: archive.feature_columns().to_vec(),
        }
        .encode();
        let Ok(Response::Repaired { out_of_range, columns }) = Response::decode(t, &p) else {
            return Err(TestCaseError::fail("Repaired response did not decode"));
        };
        prop_assert_eq!(out_of_range, seed);
        prop_assert_eq!(bits(&columns), bits(archive.feature_columns()));
    }

    /// (b) Every strict prefix of a valid payload is an error.
    #[test]
    fn strict_prefixes_are_errors(archive in arb_archive(), seed in 0..=u64::MAX) {
        for (is_request, t, p) in fixed_layout_frames(&archive, seed) {
            for cut in 0..p.len() {
                let failed = if is_request {
                    Request::decode(t, &p[..cut]).is_err()
                } else {
                    Response::decode(t, &p[..cut]).is_err()
                };
                prop_assert!(failed, "type 0x{:02x}: {}-byte prefix of {} decoded", t, cut, p.len());
            }
        }
    }

    /// (b) Arbitrary bytes under every message-type byte never panic; a
    /// payload that does decode re-encodes to a fixed point. Half the
    /// cases start from a valid frame with a few bytes overwritten, so
    /// the decoders get past their first field.
    #[test]
    fn arbitrary_payloads_never_panic(
        archive in arb_archive(),
        noise in vec(0u8..=255, 0..96),
        edits in vec((0..=u64::MAX, 0u8..=255), 0..4),
    ) {
        let mut payloads = vec![noise];
        for (_, _, mut p) in fixed_layout_frames(&archive, 1) {
            for &(at, byte) in &edits {
                if !p.is_empty() {
                    let i = (at % p.len() as u64) as usize;
                    p[i] = byte;
                }
            }
            payloads.push(p);
        }
        for p in &payloads {
            for t in 0..=u8::MAX {
                if let Ok(req) = Request::decode(t, p) {
                    let (t2, p2) = req.encode();
                    let again = Request::decode(t2, &p2).map(|r| r.encode());
                    prop_assert_eq!(again.ok(), Some((t2, p2)));
                }
                if let Ok(resp) = Response::decode(t, p) {
                    let (t2, p2) = resp.encode();
                    let again = Response::decode(t2, &p2).map(|r| r.encode());
                    prop_assert_eq!(again.ok(), Some((t2, p2)));
                }
            }
        }
    }

    /// (c) One NaN or ±∞ feature, or one label of 2, anywhere in an
    /// archive makes the whole request `BadPayload`.
    #[test]
    fn one_bad_value_anywhere_is_bad_payload(
        archive in arb_archive().prop_filter("needs a row", |a| !a.is_empty()),
        at in 0..=u64::MAX,
        bad in 0usize..5,
    ) {
        let (t, mut p) = repair_request(&archive, 7).encode();
        let (dim, rows) = (archive.dim(), archive.len());
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::from_bits(0xFFF0_0000_0000_0001)];
        if let Some(v) = poison.get(bad) {
            let cell = (at % (dim * rows) as u64) as usize;
            let i = REPAIR_HEADER + 2 * rows + 8 * cell;
            p[i..i + 8].copy_from_slice(&v.to_bits().to_be_bytes());
        } else {
            p[REPAIR_HEADER + (at % (2 * rows) as u64) as usize] = 2;
        }
        let err = Request::decode(t, &p).unwrap_err();
        prop_assert_eq!(err.code(), ErrorCode::BadPayload);
    }
}

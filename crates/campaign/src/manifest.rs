//! The campaign progress manifest: a [`redsim_util::framed`] log whose
//! header names the campaign and whose records are shard results.
//!
//! ```text
//! {"kind":"header","version":2,"fingerprint":"00ab…","shards":28}
//! {"crc":"9f3c21d07a5e448b","rec":{"kind":"shard","id":0,…}}
//! {"crc":"04d1fe2b93c07a66","rec":{"kind":"shard","id":3,…}}
//! ```
//!
//! Framing, the torn-tail rule, appending and compaction live in
//! [`redsim_util::framed`]; this module owns the header and what a
//! shard record means.

use std::collections::BTreeMap;

use redsim_util::framed::{self, ReplayError};
use redsim_util::Json;

use crate::CampaignError;

/// Manifest format version. Bumped to 2 when record frames gained
/// per-record checksums; a version-1 manifest fails the header match
/// and is reported as a mismatch, never half-parsed.
pub const MANIFEST_VERSION: u64 = 2;

/// The manifest header line for a campaign.
#[must_use]
pub fn header_line(fingerprint: u64, shards: usize) -> String {
    Json::obj()
        .field("kind", "header")
        .field("version", MANIFEST_VERSION)
        .field("fingerprint", format!("{fingerprint:016x}").as_str())
        .field("shards", shards)
        .to_string()
}

/// Parses a progress manifest back into `id → verbatim payload line`
/// ([`framed::replay`]: a torn last record's shard simply re-runs).
/// Duplicate ids keep the last record, so a shard recorded again after
/// a torn first attempt settles on the complete record.
///
/// # Errors
///
/// [`CampaignError::Mismatch`] when the header belongs to a different
/// campaign or a record's id is out of range;
/// [`CampaignError::Corrupt`] on a damaged interior record.
pub fn parse_manifest(
    text: &str,
    expect_header: &str,
    shards: usize,
) -> Result<BTreeMap<usize, String>, CampaignError> {
    let mut done = BTreeMap::new();
    // An out-of-range id is a mismatch wherever it sits, so the
    // callback notes it before reporting the record as a defect.
    let mut out_of_range = None;
    let replayed = framed::replay(text, expect_header, |payload| {
        let j = Json::parse(payload).map_err(|e| format!("payload is not valid JSON: {e}"))?;
        if j.get("kind").and_then(Json::as_str) != Some("shard") {
            // A checksummed non-shard record is a format extension,
            // not damage; skip it either way.
            return Ok(());
        }
        let id = j
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("shard record has no id")? as usize;
        if id >= shards {
            out_of_range = Some(id);
            return Err(format!("record id {id} out of range"));
        }
        done.insert(id, payload.to_owned());
        Ok(())
    });
    if let Some(id) = out_of_range {
        return Err(CampaignError::Mismatch(format!(
            "record id {id} out of range for {shards} shards"
        )));
    }
    replayed.map_err(|e| match e {
        ReplayError::Header(h) => CampaignError::Mismatch(format!(
            "header {h:?} does not match this campaign (expected {expect_header:?})"
        )),
        ReplayError::Corrupt { line, detail } => CampaignError::Corrupt { line, detail },
    })?;
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_util::framed::frame_record;

    const REC0: &str = r#"{"kind":"shard","id":0,"scenario":0,"rep":0,"label":"l","ok":true}"#;
    const REC2: &str =
        r#"{"kind":"shard","id":2,"scenario":0,"rep":0,"label":"l","ok":false,"error":"x"}"#;

    #[test]
    fn torn_tail_is_tolerated_but_interior_damage_is_typed() {
        let header = header_line(0xabcd, 4);
        let good = frame_record(REC2);
        let torn = &frame_record(REC0)[..25];

        // Torn last line: skipped, the good record survives.
        let text = format!("{header}\n{good}\n{torn}");
        let done = parse_manifest(&text, &header, 4).expect("parses");
        assert_eq!(done.len(), 1);
        assert_eq!(done[&2], REC2);

        // The same damage on an interior line names line 2 (1-based).
        let text = format!("{header}\n{torn}\n{good}\n");
        match parse_manifest(&text, &header, 4) {
            Err(CampaignError::Corrupt { line, detail }) => {
                assert_eq!(line, 2);
                assert!(!detail.is_empty());
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // A bit-flip in an interior payload is equally fatal.
        let flipped = frame_record(REC0).replace("\"ok\":true", "\"ok\":felse");
        let text = format!("{header}\n{flipped}\n{good}\n");
        assert!(matches!(
            parse_manifest(&text, &header, 4),
            Err(CampaignError::Corrupt { line: 2, .. })
        ));
    }

    #[test]
    fn foreign_headers_and_out_of_range_ids_are_mismatches() {
        let header = header_line(0xabcd, 4);
        let text = format!("{header}\n{}\n", frame_record(REC2));
        let foreign = header_line(0x1234, 4);
        assert!(matches!(
            parse_manifest(&text, &foreign, 4),
            Err(CampaignError::Mismatch(_))
        ));
        assert!(matches!(
            parse_manifest(&text, &header_line(0xabcd, 2), 2),
            Err(CampaignError::Mismatch(_))
        ));
    }

    #[test]
    fn duplicate_ids_keep_the_last_record() {
        let header = header_line(1, 4);
        let first = r#"{"kind":"shard","id":1,"ok":false,"error":"first"}"#;
        let second = r#"{"kind":"shard","id":1,"ok":true}"#;
        let text = format!(
            "{header}\n{}\n{}\n",
            frame_record(first),
            frame_record(second)
        );
        let done = parse_manifest(&text, &header, 4).expect("parses");
        assert_eq!(done[&1], second);
    }

    #[test]
    fn version_1_manifests_are_rejected_at_the_header() {
        let v1 = r#"{"kind":"header","fingerprint":"000000000000abcd","shards":4}"#;
        let header = header_line(0xabcd, 4);
        assert!(matches!(
            parse_manifest(&format!("{v1}\n"), &header, 4),
            Err(CampaignError::Mismatch(_))
        ));
    }
}

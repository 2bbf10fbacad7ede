//! The on-disk layer: certificates persisted as hand-rolled JSON.
//!
//! Every entry carries a checksum over its canonical payload; entries whose
//! checksum does not match (tampered, truncated, or written by a different
//! format version) are *ignored, never trusted* — a corrupted store file
//! degrades to a cold cache, it cannot inject wrong verdicts. Saving is
//! deterministic (entries sorted by key, deterministic writer), so
//! save → load → save round-trips bit-identically.

use crate::entry::{Entry, StoredCertificate, StoredStep, StoredSubstitution};
use crate::hash::hash_bytes_seeded;
use crate::json::Json;
use crate::key::ObligationKey;
use crate::store::CertStore;
use cmc_kripke::{Alphabet, State, System};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Format marker and version written to every store file.
///
/// Version history:
/// * **1** — verdicts and step certificates.
/// * **2** — adds the optional `"abstractions"` certificate field
///   recording refinement substitutions. Certificates without
///   substitutions serialise exactly as in version 1 (the field is only
///   emitted when non-empty), so version-1 files load unchanged and
///   substitution-free stores round-trip bit-identically with v1 readers'
///   checksums.
const FORMAT: &str = "cmc-store";
const VERSION: u64 = 2;

/// Versions this reader accepts.
const ACCEPTED_VERSIONS: [u64; 2] = [1, 2];

/// Checksum domain seed ("cmc-sum1").
const SEED_CHECKSUM: u64 = 0x636D_632D_7375_6D31;

/// A certificate store file on disk.
#[derive(Debug, Clone)]
pub struct DiskStore {
    path: PathBuf,
}

impl DiskStore {
    /// Handle to the store file at `path` (need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        DiskStore { path: path.into() }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Persist every resident entry of `store`.
    ///
    /// The write is atomic: the document is written to a temporary
    /// sibling file and renamed into place, so a crash mid-write leaves
    /// either the previous store file or the new one — never a torn,
    /// checksum-failing hybrid.
    pub fn save(&self, store: &CertStore) -> io::Result<()> {
        let entries: Vec<Json> = store
            .snapshot()
            .into_iter()
            .map(|(key, entry)| entry_to_json(key, &entry))
            .collect();
        let doc = Json::Obj(vec![
            ("format".to_string(), Json::Str(FORMAT.to_string())),
            ("version".to_string(), Json::int(VERSION)),
            ("entries".to_string(), Json::Arr(entries)),
        ]);
        write_atomic(&self.path, doc.to_pretty().as_bytes())
    }

    /// Load entries into `store`, skipping (and counting) any entry that
    /// fails hash verification or does not parse. Returns the number of
    /// entries accepted. A missing file is an empty store; a file that is
    /// not valid JSON, or not a store file, counts one rejection and loads
    /// nothing — in no case does corrupt input panic or inject entries.
    pub fn load_into(&self, store: &CertStore) -> io::Result<usize> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let doc = match Json::parse(&text) {
            Ok(doc) => doc,
            Err(_) => {
                store.count_disk_reject();
                return Ok(0);
            }
        };
        let header_ok = doc.get("format").and_then(Json::as_str) == Some(FORMAT)
            && doc
                .get("version")
                .and_then(Json::as_num)
                .is_some_and(|v| ACCEPTED_VERSIONS.iter().any(|&a| v == a as f64));
        if !header_ok {
            store.count_disk_reject();
            return Ok(0);
        }
        let Some(items) = doc.get("entries").and_then(Json::as_arr) else {
            store.count_disk_reject();
            return Ok(0);
        };
        let mut accepted = 0usize;
        for item in items {
            match entry_from_json(item) {
                Some((key, entry)) => {
                    store.install_from_disk(key, entry);
                    accepted += 1;
                }
                None => store.count_disk_reject(),
            }
        }
        Ok(accepted)
    }
}

/// Write `bytes` to `path` atomically: write a temporary sibling, then
/// rename it into place. Readers see either the old file or the new one.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |out| out.write_all(bytes))
}

/// [`write_atomic`] for a document produced piece by piece: `write`
/// streams it into a buffered writer on the temporary sibling.
pub(crate) fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    let tmp = path.with_file_name(format!(".tmp-{}-{file_name}", std::process::id()));
    let written = std::fs::File::create(&tmp).and_then(|file| {
        let mut out = io::BufWriter::new(file);
        write(&mut out)?;
        out.flush()
    });
    match written.and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Canonical checksum payload: key, verdict, and the compact certificate
/// rendering, with an unambiguous separator.
fn checksum(key: ObligationKey, verdict: bool, certificate: &Json) -> String {
    let payload = format!(
        "{}\u{1F}{}\u{1F}{}",
        key.to_hex(),
        verdict,
        certificate.to_compact()
    );
    format!(
        "{:016x}",
        hash_bytes_seeded(SEED_CHECKSUM, payload.as_bytes())
    )
}

pub(crate) fn entry_to_json(key: ObligationKey, entry: &Entry) -> Json {
    let certificate = match &entry.certificate {
        Some(cert) => cert_to_json(cert),
        None => Json::Null,
    };
    let sum = checksum(key, entry.verdict, &certificate);
    Json::Obj(vec![
        ("key".to_string(), Json::Str(key.to_hex())),
        ("verdict".to_string(), Json::Bool(entry.verdict)),
        ("certificate".to_string(), certificate),
        ("checksum".to_string(), Json::Str(sum)),
    ])
}

pub(crate) fn entry_from_json(item: &Json) -> Option<(ObligationKey, Entry)> {
    let key = ObligationKey::from_hex(item.get("key")?.as_str()?)?;
    let verdict = item.get("verdict")?.as_bool()?;
    let certificate_json = item.get("certificate")?;
    let sum = item.get("checksum")?.as_str()?;
    if sum != checksum(key, verdict, certificate_json) {
        return None;
    }
    let certificate = match certificate_json {
        Json::Null => None,
        cert => Some(cert_from_json(cert)?),
    };
    Some((
        key,
        Entry {
            verdict,
            certificate,
        },
    ))
}

fn cert_to_json(cert: &StoredCertificate) -> Json {
    let steps: Vec<Json> = cert
        .steps
        .iter()
        .map(|step| {
            Json::Obj(vec![
                (
                    "description".to_string(),
                    Json::Str(step.description.clone()),
                ),
                ("ok".to_string(), Json::Bool(step.ok)),
                ("compositional".to_string(), Json::Bool(step.compositional)),
                (
                    "backend".to_string(),
                    match &step.backend {
                        Some(b) => Json::Str(b.clone()),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("goal".to_string(), Json::Str(cert.goal.clone())),
        ("valid".to_string(), Json::Bool(cert.valid)),
        ("steps".to_string(), Json::Arr(steps)),
    ];
    // Only emitted when present: substitution-free certificates keep their
    // exact version-1 rendering (and therefore their checksums).
    if !cert.abstractions.is_empty() {
        fields.push((
            "abstractions".to_string(),
            Json::Arr(cert.abstractions.iter().map(substitution_to_json).collect()),
        ));
    }
    Json::Obj(fields)
}

fn cert_from_json(json: &Json) -> Option<StoredCertificate> {
    let goal = json.get("goal")?.as_str()?.to_string();
    let valid = json.get("valid")?.as_bool()?;
    let mut steps = Vec::new();
    for step in json.get("steps")?.as_arr()? {
        steps.push(StoredStep {
            description: step.get("description")?.as_str()?.to_string(),
            ok: step.get("ok")?.as_bool()?,
            compositional: step.get("compositional")?.as_bool()?,
            backend: step
                .get("backend")
                .and_then(Json::as_str)
                .map(str::to_string),
        });
    }
    let mut abstractions = Vec::new();
    if let Some(subs) = json.get("abstractions").and_then(Json::as_arr) {
        for sub in subs {
            abstractions.push(substitution_from_json(sub)?);
        }
    }
    Some(StoredCertificate {
        goal,
        valid,
        steps,
        abstractions,
    })
}

/// Faithful JSON form of a system: proposition names in alphabet order
/// and the proper transitions as `"s>t"` hex pairs over that bit order.
/// Deliberately *not* canonicalised — a loaded system must compare equal
/// to the saved one (keys canonicalise separately). States are hex
/// *strings*, never numbers: JSON numbers are `f64` and states are `u128`.
fn system_to_json(system: &System) -> Json {
    Json::Obj(vec![
        (
            "props".to_string(),
            Json::Arr(
                system
                    .alphabet()
                    .names()
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
        (
            "trans".to_string(),
            Json::Arr(
                system
                    .proper_transitions()
                    .map(|(s, t)| Json::Str(format!("{:x}>{:x}", s.0, t.0)))
                    .collect(),
            ),
        ),
    ])
}

fn system_from_json(json: &Json) -> Option<System> {
    let mut names = Vec::new();
    for p in json.get("props")?.as_arr()? {
        names.push(p.as_str()?.to_string());
    }
    let mut system = System::new(Alphabet::new(names));
    for pair in json.get("trans")?.as_arr()? {
        let text = pair.as_str()?;
        let (s, t) = text.split_once('>')?;
        let s = u128::from_str_radix(s, 16).ok()?;
        let t = u128::from_str_radix(t, 16).ok()?;
        let width = system.alphabet().len();
        let mask = if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        if s & !mask != 0 || t & !mask != 0 {
            return None;
        }
        if s != t {
            system.add_transition(State(s), State(t));
        }
    }
    Some(system)
}

fn substitution_to_json(sub: &StoredSubstitution) -> Json {
    Json::Obj(vec![
        ("component".to_string(), Json::Str(sub.component.clone())),
        (
            "abstraction_key".to_string(),
            Json::Str(sub.abstraction_key.clone()),
        ),
        ("concrete".to_string(), system_to_json(&sub.concrete)),
        ("abstraction".to_string(), system_to_json(&sub.abstraction)),
        (
            "rest".to_string(),
            Json::Arr(sub.rest.iter().map(system_to_json).collect()),
        ),
        ("init".to_string(), Json::Str(sub.init.clone())),
        (
            "fairness".to_string(),
            Json::Arr(sub.fairness.iter().map(|g| Json::Str(g.clone())).collect()),
        ),
        ("formula".to_string(), Json::Str(sub.formula.clone())),
    ])
}

fn substitution_from_json(json: &Json) -> Option<StoredSubstitution> {
    let mut rest = Vec::new();
    for sys in json.get("rest")?.as_arr()? {
        rest.push(system_from_json(sys)?);
    }
    let mut fairness = Vec::new();
    for g in json.get("fairness")?.as_arr()? {
        fairness.push(g.as_str()?.to_string());
    }
    Some(StoredSubstitution {
        component: json.get("component")?.as_str()?.to_string(),
        abstraction_key: json.get("abstraction_key")?.as_str()?.to_string(),
        concrete: system_from_json(json.get("concrete")?)?,
        abstraction: system_from_json(json.get("abstraction")?)?,
        rest,
        init: json.get("init")?.as_str()?.to_string(),
        fairness,
        formula: json.get("formula")?.as_str()?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> CertStore {
        let store = CertStore::new();
        store.insert(ObligationKey(42), Entry::verdict(true));
        store.insert(
            ObligationKey(7),
            Entry::with_certificate(
                false,
                StoredCertificate {
                    goal: "ring(3) ⊨ AG ¬(t0 ∧ t1)".to_string(),
                    steps: vec![
                        StoredStep {
                            description: "component station0 ⊨ inv".to_string(),
                            ok: true,
                            compositional: true,
                            backend: Some("explicit".to_string()),
                        },
                        StoredStep {
                            description: "monolithic fallback".to_string(),
                            ok: false,
                            compositional: false,
                            backend: None,
                        },
                    ],
                    valid: false,
                    abstractions: vec![],
                },
            ),
        );
        store
    }

    fn toggler(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m.add_transition_named(&[name], &[]);
        m
    }

    fn substituted_store() -> CertStore {
        let mut concrete = System::new(Alphabet::new(["x", "scratch"]));
        concrete.add_transition_named(&[], &["scratch"]);
        concrete.add_transition_named(&["scratch"], &["x"]);
        let abstraction = {
            let mut m = System::new(Alphabet::new(["x"]));
            m.add_transition_named(&[], &["x"]);
            m
        };
        let store = CertStore::new();
        store.insert(
            ObligationKey(9),
            Entry::with_certificate(
                true,
                StoredCertificate {
                    goal: "system ⊨ AG x via abstraction".to_string(),
                    steps: vec![StoredStep {
                        description: "server ⊑ idealised server".to_string(),
                        ok: true,
                        compositional: true,
                        backend: Some("explicit".to_string()),
                    }],
                    valid: true,
                    abstractions: vec![StoredSubstitution {
                        component: "server".to_string(),
                        abstraction_key: ObligationKey::system(&abstraction).to_hex(),
                        concrete,
                        abstraction,
                        rest: vec![toggler("y")],
                        init: "!x".to_string(),
                        fairness: vec!["x | !x".to_string()],
                        formula: "AG (x -> AX x)".to_string(),
                    }],
                },
            ),
        );
        store
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cmc-store-test-{}-{name}.json", std::process::id()));
        p
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let path = tmp("roundtrip");
        let store = sample_store();
        let disk = DiskStore::new(&path);
        disk.save(&store).unwrap();
        let bytes1 = std::fs::read(&path).unwrap();

        let reloaded = CertStore::new();
        assert_eq!(disk.load_into(&reloaded).unwrap(), 2);
        assert_eq!(reloaded.snapshot(), store.snapshot());
        assert_eq!(reloaded.stats().disk_loads, 2);
        assert_eq!(reloaded.stats().disk_rejects, 0);

        disk.save(&reloaded).unwrap();
        let bytes2 = std::fs::read(&path).unwrap();
        assert_eq!(bytes1, bytes2, "save → load → save must be bit-identical");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        let disk = DiskStore::new(tmp("missing-never-created"));
        let store = CertStore::new();
        assert_eq!(disk.load_into(&store).unwrap(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn tampered_verdict_is_rejected() {
        let path = tmp("tamper");
        let disk = DiskStore::new(&path);
        disk.save(&sample_store()).unwrap();
        // Flip the stored verdict of the certificate-free entry.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"verdict\": true", "\"verdict\": false", 1);
        assert_ne!(text, tampered, "test setup: nothing replaced");
        std::fs::write(&path, tampered).unwrap();

        let store = CertStore::new();
        let accepted = disk.load_into(&store).unwrap();
        assert_eq!(accepted, 1, "only the untouched entry survives");
        assert_eq!(store.stats().disk_rejects, 1);
        assert!(store.lookup(&ObligationKey(42)).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_file_loads_nothing_without_panicking() {
        let path = tmp("garbage");
        std::fs::write(&path, "not json {{{").unwrap();
        let store = CertStore::new();
        assert_eq!(DiskStore::new(&path).load_into(&store).unwrap(), 0);
        assert!(store.is_empty());
        assert_eq!(store.stats().disk_rejects, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn substituted_certificate_round_trips() {
        let path = tmp("substituted");
        let store = substituted_store();
        let disk = DiskStore::new(&path);
        disk.save(&store).unwrap();
        let bytes1 = std::fs::read(&path).unwrap();

        let reloaded = CertStore::new();
        assert_eq!(disk.load_into(&reloaded).unwrap(), 1);
        assert_eq!(reloaded.snapshot(), store.snapshot());

        disk.save(&reloaded).unwrap();
        let bytes2 = std::fs::read(&path).unwrap();
        assert_eq!(bytes1, bytes2, "save → load → save must be bit-identical");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn substitution_free_certificates_keep_the_version1_shape() {
        let path = tmp("v1-shape");
        DiskStore::new(&path).save(&sample_store()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("abstractions"),
            "the v2 field must only appear when non-empty"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version1_files_still_load() {
        // A v1 file is exactly a v2 file without substitutions and with the
        // old version header; entry checksums are over the same payloads.
        let path = tmp("v1-compat");
        let disk = DiskStore::new(&path);
        disk.save(&sample_store()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v1 = text.replacen("\"version\": 2", "\"version\": 1", 1);
        assert_ne!(text, v1, "test setup: header not rewritten");
        std::fs::write(&path, v1).unwrap();

        let store = CertStore::new();
        assert_eq!(disk.load_into(&store).unwrap(), 2);
        assert_eq!(store.stats().disk_rejects, 0);
        assert_eq!(store.snapshot(), sample_store().snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_rejected_wholesale() {
        let path = tmp("v3");
        let disk = DiskStore::new(&path);
        disk.save(&sample_store()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"version\": 2", "\"version\": 3", 1)).unwrap();
        let store = CertStore::new();
        assert_eq!(disk.load_into(&store).unwrap(), 0);
        assert_eq!(store.stats().disk_rejects, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_abstraction_is_rejected() {
        let path = tmp("tamper-abs");
        let disk = DiskStore::new(&path);
        disk.save(&substituted_store()).unwrap();
        // Rewrite the recorded abstract transition 0 -> 1 ("0>1") to point
        // somewhere else: the checksum must catch the swap.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"0>1\"", "\"1>0\"", 1);
        assert_ne!(text, tampered, "test setup: nothing replaced");
        std::fs::write(&path, tampered).unwrap();

        let store = CertStore::new();
        assert_eq!(disk.load_into(&store).unwrap(), 0);
        assert_eq!(store.stats().disk_rejects, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_format_header_is_rejected() {
        let path = tmp("header");
        std::fs::write(&path, "{\"format\":\"other\",\"version\":1,\"entries\":[]}").unwrap();
        let store = CertStore::new();
        assert_eq!(DiskStore::new(&path).load_into(&store).unwrap(), 0);
        assert_eq!(store.stats().disk_rejects, 1);
        std::fs::remove_file(&path).ok();
    }
}

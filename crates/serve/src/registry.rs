//! The plan registry: named, versioned repair plans held hot in memory.
//!
//! `otrepaird` serves repairs against plans loaded from their JSON
//! artifacts (the same files `otrepair design --out` writes). Each
//! entry is keyed `name@version`; versions are **immutable** — loading
//! a second plan under an occupied key is a
//! [`RegistryError::VersionCollision`], never a silent replace, so a
//! client that pinned `adult@3` can trust the bytes it gets back
//! forever. Replacement is explicit: evict, then load.
//!
//! Plans pass the same structural validation the offline CLI applies
//! ([`RegisteredPlan::from_json`]: the artifact's own kind, read by
//! [`artifact_kind`], picks [`RepairPlan::from_json`] or
//! [`JointRepairPlan::from_json`], which recompile derived alias tables
//! and reject malformed artifacts) before they become visible to any
//! client.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::sync::Mutex;

use otr_core::{JointRepairPlan, RepairError, RepairPlan};
use otr_data::ColumnarDataset;

use crate::protocol::{ErrorCode, PlanInfo, PlanKind};

/// Maximum registry-name length in bytes.
pub const MAX_NAME_LEN: usize = 64;

/// A registry failure, mapped onto wire [`ErrorCode`]s by
/// [`RegistryError::code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The name violates `[A-Za-z0-9._-]{1,64}`.
    InvalidName(String),
    /// Plans are loaded at explicit versions ≥ 1 (`0` is the "latest"
    /// selector on lookups, never a storable version).
    InvalidVersion,
    /// The JSON artifact failed structural validation.
    Invalid(String),
    /// `name@version` is already registered.
    VersionCollision { name: String, version: u32 },
    /// No plan under `name@version`.
    NotFound { name: String, version: u32 },
    /// A registry-directory file could not be read.
    Io(String),
}

impl RegistryError {
    /// The wire error code this failure reports as.
    pub fn code(&self) -> ErrorCode {
        match self {
            Self::VersionCollision { .. } => ErrorCode::VersionCollision,
            Self::NotFound { .. } => ErrorCode::UnknownPlan,
            _ => ErrorCode::PlanInvalid,
        }
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidName(name) => write!(
                f,
                "invalid plan name {name:?}: need 1..={MAX_NAME_LEN} bytes of [A-Za-z0-9._-]"
            ),
            Self::InvalidVersion => write!(f, "plan versions start at 1 (0 selects the latest)"),
            Self::Invalid(msg) => write!(f, "plan failed validation: {msg}"),
            Self::VersionCollision { name, version } => write!(
                f,
                "{name}@{version} is already registered (versions are immutable; evict first)"
            ),
            Self::NotFound { name, version } => {
                if *version == 0 {
                    write!(f, "no plan named {name}")
                } else {
                    write!(f, "no plan {name}@{version}")
                }
            }
            Self::Io(msg) => write!(f, "registry directory: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The kind of plan artifact `json` holds: joint artifacts carry a
/// `strata` key, which the scalar schema (`features`) never does. The
/// one place the kind is decided; the plans directory, `otrepair apply`
/// and `otrepair client load` all read it here.
pub fn artifact_kind(json: &str) -> PlanKind {
    if json.contains("\"strata\"") {
        PlanKind::Joint
    } else {
        PlanKind::Scalar
    }
}

/// A validated, execution-ready plan of either kind.
#[derive(Debug)]
pub enum RegisteredPlan {
    Scalar(RepairPlan),
    Joint(JointRepairPlan),
}

impl RegisteredPlan {
    /// Load a plan artifact through the validating loader of the kind
    /// [`artifact_kind`] reads from it.
    ///
    /// # Errors
    /// That loader's error: malformed JSON, or an artifact that fails its
    /// kind's validation.
    pub fn from_json(json: &str) -> Result<Self, RepairError> {
        Ok(match artifact_kind(json) {
            PlanKind::Scalar => Self::Scalar(RepairPlan::from_json(json)?),
            PlanKind::Joint => Self::Joint(JointRepairPlan::from_json(json)?),
        })
    }

    /// Set the worker threads the plan repairs with (`0` = auto);
    /// execution policy only, never the repaired bytes.
    pub fn set_threads(&mut self, threads: usize) {
        match self {
            Self::Scalar(p) => p.config.threads = threads,
            Self::Joint(p) => p.set_threads(threads),
        }
    }

    /// Which kind this entry holds.
    pub fn kind(&self) -> PlanKind {
        match self {
            Self::Scalar(_) => PlanKind::Scalar,
            Self::Joint(_) => PlanKind::Joint,
        }
    }

    /// Feature dimension the plan repairs.
    pub fn dim(&self) -> usize {
        match self {
            Self::Scalar(p) => p.dim,
            Self::Joint(p) => p.dims(),
        }
    }

    /// Support resolution `nQ` (per dimension for joint plans).
    pub fn n_q(&self) -> usize {
        match self {
            Self::Scalar(p) => p.config.n_q,
            Self::Joint(p) => p.n_q(),
        }
    }

    /// Repair `shard` as if its rows sat at absolute archive indices
    /// `row_offset ..`, returning the repaired feature columns and the
    /// out-of-range count (0 for joint plans, which do not track it).
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_shard(
        &self,
        shard: &ColumnarDataset,
        seed: u64,
        row_offset: u64,
    ) -> Result<(Vec<Vec<f64>>, u64), String> {
        let mut columns: Vec<Vec<f64>> = (0..shard.dim()).map(|_| vec![0.0; shard.len()]).collect();
        let oob = self.repair_into(shard, 0..shard.len(), seed, row_offset, &mut columns)?;
        Ok((columns, oob))
    }

    /// Repair rows `rows` of `archive` straight into `out` (one slice
    /// per feature, each `rows.len()` long), row `i` of `archive` drawing
    /// the stream of absolute row `row_offset + i` — what the server runs
    /// per shard, writing into disjoint row ranges of one response
    /// buffer. Both plan kinds read `archive` in place through their
    /// in-place kernel ([`RepairPlan::repair_columnar_into`],
    /// [`JointRepairPlan::repair_columnar_into`]). Returns the
    /// out-of-range count (0 for joint plans, which do not track it).
    /// `out` must hold `archive.dim()` columns of `rows.len()` values.
    ///
    /// # Errors
    /// Rejects dimension mismatches and row ranges past the archive.
    pub fn repair_into<C: AsMut<[f64]>>(
        &self,
        archive: &ColumnarDataset,
        rows: Range<usize>,
        seed: u64,
        row_offset: u64,
        out: &mut [C],
    ) -> Result<u64, String> {
        match self {
            Self::Scalar(plan) => plan.repair_columnar_into(archive, rows, seed, row_offset, out),
            Self::Joint(plan) => plan
                .repair_columnar_into(archive, rows, seed, row_offset, out)
                .map(|()| 0),
        }
        .map_err(|e| e.to_string())
    }

    /// Serialize back to the same JSON artifact schema the offline CLI
    /// writes, so a hot-swapped version persisted to the plans
    /// directory round-trips through [`PlanRegistry::load_dir`].
    ///
    /// # Errors
    /// Serialization failures only.
    pub fn to_json(&self) -> Result<String, String> {
        match self {
            Self::Scalar(plan) => plan.to_json().map_err(|e| e.to_string()),
            Self::Joint(plan) => plan.to_json().map_err(|e| e.to_string()),
        }
    }
}

/// Thread-safe map of `name@version` → validated plan.
#[derive(Debug)]
pub struct PlanRegistry {
    /// `BTreeMap` so listings come out name-then-version ordered and
    /// "latest version of `name`" is the last key of the name's range.
    plans: Mutex<BTreeMap<(String, u32), Arc<RegisteredPlan>>>,
    /// Worker threads each *plan* runs with. The server parallelizes
    /// across shards, so it registers plans with `threads = 1` to keep
    /// the two levels from multiplying; standalone users may want auto.
    plan_threads: usize,
    /// Columnar batch-rows policy applied to loaded scalar plans
    /// (`None` = the kernel's default; see `RepairConfig::batch_rows`).
    batch_rows: Option<usize>,
}

impl PlanRegistry {
    /// An empty registry whose loaded plans run `plan_threads` threads
    /// and `batch_rows`-row columnar batches (execution policy only —
    /// never affects repaired bytes).
    pub fn new(plan_threads: usize, batch_rows: Option<usize>) -> Self {
        Self {
            plans: Mutex::new(BTreeMap::new()),
            plan_threads,
            batch_rows,
        }
    }

    /// Lock the plan map, recovering from poisoning. The map is only
    /// mutated by `BTreeMap::insert`/`remove`, which either complete or
    /// leave the map untouched — a panic mid-critical-section cannot
    /// leave a half-written entry — so the registry outlives a poisoned
    /// request (the server isolates such panics per connection and must
    /// keep serving everyone else).
    fn plans(&self) -> std::sync::MutexGuard<'_, BTreeMap<(String, u32), Arc<RegisteredPlan>>> {
        self.plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enforce the registry name grammar: 1–64 bytes of
    /// `[A-Za-z0-9._-]` (safe in file names, URLs, and logs).
    ///
    /// # Errors
    /// [`RegistryError::InvalidName`] otherwise.
    pub fn validate_name(name: &str) -> Result<(), RegistryError> {
        let ok = !name.is_empty()
            && name.len() <= MAX_NAME_LEN
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
        if ok {
            Ok(())
        } else {
            Err(RegistryError::InvalidName(name.into()))
        }
    }

    /// Validate `json` as a plan of `kind` and register it under
    /// `name@version`, returning its listing entry. `kind` is what the
    /// request declares; an artifact of the other kind is refused before
    /// it is parsed.
    ///
    /// # Errors
    /// Bad name/version, a declared kind the artifact disagrees with,
    /// artifacts that fail structural validation, and version
    /// collisions; on any error the registry is unchanged.
    pub fn load(
        &self,
        name: &str,
        version: u32,
        kind: PlanKind,
        json: &str,
    ) -> Result<PlanInfo, RegistryError> {
        // Name and version first: a bad key is reported before the
        // artifact is parsed.
        Self::validate_name(name)?;
        if version == 0 {
            return Err(RegistryError::InvalidVersion);
        }
        let artifact = artifact_kind(json);
        if artifact != kind {
            return Err(RegistryError::Invalid(format!(
                "declared a {kind} plan, but the artifact is a {artifact} plan"
            )));
        }
        let mut plan =
            RegisteredPlan::from_json(json).map_err(|e| RegistryError::Invalid(e.to_string()))?;
        plan.set_threads(self.plan_threads);
        if let RegisteredPlan::Scalar(plan) = &mut plan {
            plan.config.batch_rows = self.batch_rows;
        }
        self.register(name, version, Arc::new(plan))
    }

    /// Fetch `name@version`; `version = 0` selects the highest loaded
    /// version of `name`.
    ///
    /// # Errors
    /// [`RegistryError::NotFound`] when absent.
    pub fn get(&self, name: &str, version: u32) -> Result<Arc<RegisteredPlan>, RegistryError> {
        let plans = self.plans();
        let found = if version == 0 {
            plans
                .range((name.to_string(), 1)..=(name.to_string(), u32::MAX))
                .next_back()
                .map(|(_, plan)| plan)
        } else {
            plans.get(&(name.to_string(), version))
        };
        found.cloned().ok_or_else(|| RegistryError::NotFound {
            name: name.into(),
            version,
        })
    }

    /// Fetch the highest loaded version of `name` together with its
    /// version number — what a drift watch re-designs from and what a
    /// hot swap increments past.
    ///
    /// # Errors
    /// [`RegistryError::NotFound`] when no version of `name` is loaded.
    pub fn latest(&self, name: &str) -> Result<(u32, Arc<RegisteredPlan>), RegistryError> {
        self.plans()
            .range((name.to_string(), 1)..=(name.to_string(), u32::MAX))
            .next_back()
            .map(|((_, version), plan)| (*version, plan.clone()))
            .ok_or_else(|| RegistryError::NotFound {
                name: name.into(),
                version: 0,
            })
    }

    /// Register an already-validated in-memory plan under
    /// `name@version`: the tail of [`Self::load`], and the hot-swap path,
    /// where the plan was just designed in-process rather than parsed
    /// from JSON.
    ///
    /// # Errors
    /// Bad name/version and version collisions; on error the registry
    /// is unchanged and `plan` is dropped.
    pub fn register(
        &self,
        name: &str,
        version: u32,
        plan: Arc<RegisteredPlan>,
    ) -> Result<PlanInfo, RegistryError> {
        Self::validate_name(name)?;
        if version == 0 {
            return Err(RegistryError::InvalidVersion);
        }
        let info = PlanInfo {
            name: name.into(),
            version,
            kind: plan.kind(),
            dim: plan.dim(),
            n_q: plan.n_q(),
        };
        let mut plans = self.plans();
        let key = (name.to_string(), version);
        if plans.contains_key(&key) {
            return Err(RegistryError::VersionCollision {
                name: name.into(),
                version,
            });
        }
        plans.insert(key, plan);
        Ok(info)
    }

    /// All registered plans, ordered by name then version.
    pub fn list(&self) -> Vec<PlanInfo> {
        self.plans()
            .iter()
            .map(|((name, version), plan)| PlanInfo {
                name: name.clone(),
                version: *version,
                kind: plan.kind(),
                dim: plan.dim(),
                n_q: plan.n_q(),
            })
            .collect()
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.plans().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove `name@version` (exact; eviction never guesses "latest").
    /// In-flight repairs holding the [`Arc`] finish unaffected.
    ///
    /// # Errors
    /// [`RegistryError::NotFound`] when absent.
    pub fn evict(&self, name: &str, version: u32) -> Result<(), RegistryError> {
        if version == 0 {
            return Err(RegistryError::InvalidVersion);
        }
        self.plans()
            .remove(&(name.to_string(), version))
            .map(|_| ())
            .ok_or_else(|| RegistryError::NotFound {
                name: name.into(),
                version,
            })
    }

    /// Preload every `*.json` artifact in `dir`. File names map to
    /// registry keys: `census.json` loads as `census@1`,
    /// `census@3.json` as `census@3`. The plan kind is the artifact's
    /// own ([`artifact_kind`]). Returns the loaded entries in
    /// directory-sorted order.
    ///
    /// # Errors
    /// Unreadable directory/files, unparsable stems, artifacts that fail
    /// their kind's validation (the error names the file and that
    /// kind's reason), and collisions. Entries loaded before the failing
    /// file stay registered.
    pub fn load_dir(&self, dir: &Path) -> Result<Vec<PlanInfo>, RegistryError> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| RegistryError::Io(format!("{}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        let mut loaded = Vec::with_capacity(files.len());
        for path in files {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| RegistryError::Io(format!("{}: non-UTF-8 name", path.display())))?;
            let (name, version) = match stem.split_once('@') {
                None => (stem, 1),
                Some((name, v)) => {
                    let version: u32 = v.parse().map_err(|_| {
                        RegistryError::Invalid(format!(
                            "{}: version {v:?} in file name is not a u32",
                            path.display()
                        ))
                    })?;
                    (name, version)
                }
            };
            let json = std::fs::read_to_string(&path)
                .map_err(|e| RegistryError::Io(format!("{}: {e}", path.display())))?;
            let kind = artifact_kind(&json);
            let info = self.load(name, version, kind, &json).map_err(|e| {
                let reason = match e {
                    RegistryError::Invalid(msg) => msg,
                    other => other.to_string(),
                };
                RegistryError::Invalid(format!("{}: {reason}", path.display()))
            })?;
            loaded.push(info);
        }
        Ok(loaded)
    }
}

/// Persist a plan artifact into the registry directory under the
/// `name@version.json` naming [`PlanRegistry::load_dir`] reads back,
/// via tmp-file + atomic rename (the dotted `.tmp` name fails the
/// `.json` extension filter, so a crashed write is never loaded).
///
/// Version 1 lands on a bare `name.json` when the operator already
/// seeded one (that file *is* `name@1` to `load_dir`; writing a
/// sibling `name@1.json` would collide on restart).
///
/// # Errors
/// Filesystem failures, as [`RegistryError::Io`].
pub fn persist_plan(
    dir: &Path,
    name: &str,
    version: u32,
    json: &str,
) -> Result<std::path::PathBuf, RegistryError> {
    PlanRegistry::validate_name(name)?;
    if version == 0 {
        return Err(RegistryError::InvalidVersion);
    }
    let bare = dir.join(format!("{name}.json"));
    let dest = if version == 1 && bare.exists() {
        bare
    } else {
        dir.join(format!("{name}@{version}.json"))
    };
    let tmp = dir.join(format!(".{name}@{version}.json.tmp"));
    let io = |e: std::io::Error, p: &Path| RegistryError::Io(format!("{}: {e}", p.display()));
    std::fs::write(&tmp, json).map_err(|e| io(e, &tmp))?;
    std::fs::rename(&tmp, &dest).map_err(|e| io(e, &dest))?;
    Ok(dest)
}

/// Best-effort removal of a persisted plan artifact (both the
/// versioned name and, for version 1, the bare `name.json` alias).
/// Used on evict so a restart does not resurrect the plan; failures
/// are ignored because the in-memory eviction already succeeded.
pub fn unpersist_plan(dir: &Path, name: &str, version: u32) {
    let _ = std::fs::remove_file(dir.join(format!("{name}@{version}.json")));
    if version == 1 {
        let _ = std::fs::remove_file(dir.join(format!("{name}.json")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_core::{RepairConfig, RepairPlanner};
    use otr_data::SimulationSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scalar_plan_json() -> String {
        let mut rng = StdRng::seed_from_u64(41);
        let research = SimulationSpec::paper_defaults()
            .sample_dataset(300, &mut rng)
            .unwrap();
        RepairPlanner::new(RepairConfig::with_n_q(16))
            .design(&research)
            .unwrap()
            .to_json()
            .unwrap()
    }

    #[test]
    fn name_grammar() {
        for good in ["a", "adult-2024", "census.v2_final", &"x".repeat(64)] {
            assert!(PlanRegistry::validate_name(good).is_ok(), "{good:?}");
        }
        for bad in ["", "a b", "sp√©cial", "a/b", &"x".repeat(65)] {
            assert!(PlanRegistry::validate_name(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn load_get_list_evict_lifecycle() {
        let reg = PlanRegistry::new(1, None);
        let json = scalar_plan_json();
        let info = reg.load("census", 1, PlanKind::Scalar, &json).unwrap();
        assert_eq!((info.kind, info.dim, info.n_q), (PlanKind::Scalar, 2, 16));
        reg.load("census", 3, PlanKind::Scalar, &json).unwrap();

        // Explicit and latest (0) lookups.
        assert!(reg.get("census", 1).is_ok());
        assert!(reg.get("census", 3).is_ok());
        assert!(reg.get("census", 0).is_ok());
        assert!(matches!(
            reg.get("census", 2),
            Err(RegistryError::NotFound { .. })
        ));
        assert!(reg.get("nope", 0).is_err());

        let listed = reg.list();
        assert_eq!(
            listed
                .iter()
                .map(|p| (p.name.as_str(), p.version))
                .collect::<Vec<_>>(),
            vec![("census", 1), ("census", 3)]
        );

        reg.evict("census", 3).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(matches!(
            reg.evict("census", 3),
            Err(RegistryError::NotFound { .. })
        ));
    }

    #[test]
    fn versions_are_immutable() {
        let reg = PlanRegistry::new(1, None);
        let json = scalar_plan_json();
        reg.load("p", 2, PlanKind::Scalar, &json).unwrap();
        let err = reg.load("p", 2, PlanKind::Scalar, &json).unwrap_err();
        assert!(matches!(err, RegistryError::VersionCollision { .. }));
        assert_eq!(err.code(), ErrorCode::VersionCollision);
        // Evict-then-load is the sanctioned replacement path.
        reg.evict("p", 2).unwrap();
        reg.load("p", 2, PlanKind::Scalar, &json).unwrap();
    }

    #[test]
    fn version_zero_latest_tracks_the_registry() {
        let reg = PlanRegistry::new(1, None);
        let json = scalar_plan_json();
        for v in [5, 1, 9] {
            reg.load("p", v, PlanKind::Scalar, &json).unwrap();
        }
        // Latest is the max loaded version, independent of load order...
        assert_eq!(reg.list().last().unwrap().version, 9);
        reg.evict("p", 9).unwrap();
        // ...and follows evictions.
        let latest = reg.get("p", 0).unwrap();
        assert_eq!(latest.n_q(), 16);
        assert_eq!(reg.list().last().unwrap().version, 5);
    }

    #[test]
    fn malformed_and_misdeclared_artifacts_rejected() {
        let reg = PlanRegistry::new(1, None);
        for bad in ["", "not json", "{\"dim\": 2}", "[1, 2, 3]"] {
            let err = reg.load("p", 1, PlanKind::Scalar, bad).unwrap_err();
            assert!(matches!(err, RegistryError::Invalid(_)), "{bad:?}: {err}");
            assert_eq!(err.code(), ErrorCode::PlanInvalid);
        }
        // A valid scalar artifact declared as joint is still invalid, and
        // the error names both kinds rather than a field the other
        // kind's schema misses.
        let json = scalar_plan_json();
        let err = reg.load("p", 1, PlanKind::Joint, &json).unwrap_err();
        assert_eq!(err.code(), ErrorCode::PlanInvalid);
        let msg = err.to_string();
        assert!(
            msg.contains("declared a joint plan") && msg.contains("a scalar plan"),
            "{msg}"
        );
        // Version 0 is a selector, not a loadable version.
        assert!(matches!(
            reg.load("p", 0, PlanKind::Scalar, &json),
            Err(RegistryError::InvalidVersion)
        ));
        assert!(reg.is_empty(), "failed loads must not register anything");
    }

    #[test]
    fn latest_and_register_drive_the_hot_swap_path() {
        let reg = PlanRegistry::new(1, None);
        assert!(matches!(
            reg.latest("census"),
            Err(RegistryError::NotFound { .. })
        ));
        let json = scalar_plan_json();
        reg.load("census", 1, PlanKind::Scalar, &json).unwrap();
        let (v, plan) = reg.latest("census").unwrap();
        assert_eq!(v, 1);

        // Re-registering the same Arc as the next version succeeds and
        // becomes the new latest; colliding versions are rejected.
        let info = reg.register("census", 2, plan.clone()).unwrap();
        assert_eq!((info.version, info.kind), (2, PlanKind::Scalar));
        assert_eq!(reg.latest("census").unwrap().0, 2);
        assert!(matches!(
            reg.register("census", 2, plan.clone()),
            Err(RegistryError::VersionCollision { .. })
        ));
        assert!(reg.register("census", 0, plan.clone()).is_err());
        assert!(reg.register("bad name", 3, plan).is_err());
    }

    #[test]
    fn persisted_artifacts_round_trip_through_load_dir() {
        let dir = std::env::temp_dir().join(format!("otr_persist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let json = scalar_plan_json();

        // Fresh directory: version 1 gets the versioned name.
        let p1 = persist_plan(&dir, "census", 1, &json).unwrap();
        assert_eq!(p1.file_name().unwrap(), "census@1.json");
        let p2 = persist_plan(&dir, "census", 2, &json).unwrap();
        assert_eq!(p2.file_name().unwrap(), "census@2.json");
        let reg = PlanRegistry::new(1, None);
        let loaded = reg.load_dir(&dir).unwrap();
        assert_eq!(
            loaded.iter().map(|p| p.version).collect::<Vec<_>>(),
            vec![1, 2]
        );

        // Serialized registry plans re-persist through to_json.
        let (_, plan) = reg.latest("census").unwrap();
        let rejson = plan.to_json().unwrap();
        persist_plan(&dir, "census", 3, &rejson).unwrap();
        assert!(PlanRegistry::new(1, None).load_dir(&dir).is_ok());

        // Operator-seeded bare name.json: persisting version 1 lands on
        // it instead of creating a colliding sibling.
        let dir2 = dir.join("seeded");
        std::fs::create_dir_all(&dir2).unwrap();
        std::fs::write(dir2.join("census.json"), "stale").unwrap();
        let p = persist_plan(&dir2, "census", 1, &json).unwrap();
        assert_eq!(p.file_name().unwrap(), "census.json");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), json);
        PlanRegistry::new(1, None).load_dir(&dir2).unwrap();

        // No stray tmp files survive, and unpersist clears both names.
        assert!(!std::fs::read_dir(&dir).unwrap().any(|e| e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        unpersist_plan(&dir2, "census", 1);
        assert!(!dir2.join("census.json").exists());
        for v in 1..=3 {
            unpersist_plan(&dir, "census", v);
        }
        assert!(PlanRegistry::new(1, None)
            .load_dir(&dir)
            .unwrap()
            .is_empty());

        assert!(persist_plan(&dir, "census", 0, &json).is_err());
        assert!(persist_plan(&dir, "bad name", 1, &json).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_maps_file_names_to_versions() {
        let dir = std::env::temp_dir().join(format!("otr_registry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let json = scalar_plan_json();
        std::fs::write(dir.join("census.json"), &json).unwrap();
        std::fs::write(dir.join("census@4.json"), &json).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let reg = PlanRegistry::new(1, None);
        let loaded = reg.load_dir(&dir).unwrap();
        assert_eq!(
            loaded
                .iter()
                .map(|p| (p.name.as_str(), p.version))
                .collect::<Vec<_>>(),
            vec![("census", 1), ("census", 4)]
        );

        // A malformed artifact fails the preload loudly.
        std::fs::write(dir.join("broken@2.json"), "{oops").unwrap();
        let reg2 = PlanRegistry::new(1, None);
        assert!(matches!(
            reg2.load_dir(&dir),
            Err(RegistryError::Invalid(_))
        ));
        // An unparsable version suffix too.
        std::fs::remove_file(dir.join("broken@2.json")).unwrap();
        std::fs::write(dir.join("census@nine.json"), &json).unwrap();
        assert!(PlanRegistry::new(1, None).load_dir(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

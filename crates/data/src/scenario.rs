//! Scenario assembly: turns generated entities into the `(D, H, ground
//! truth)` triple of one experiment, following the paper's construction
//! protocol (§7.1.1–§7.1.2).
//!
//! Two assembly paths share one deterministic skeleton:
//!
//! * [`Scenario::build`] — the original all-in-RAM path: every hidden
//!   entity is materialized, then loaded into an in-memory [`HiddenDb`].
//! * [`Scenario::build_with_store`] — the out-of-core path: the long-tail
//!   ("rest") entities are spilled to a store blob as they stream out of
//!   the generator, and hidden records are then yielded one at a time, in
//!   the same shuffled order, straight into the disk-backed [`HiddenDb`]
//!   builder. Peak memory holds the local pool, the shuffle permutations,
//!   and the ground-truth id maps — never the full hidden record set.
//!
//! Both paths draw from identical RNG streams (`Vec::shuffle` consumes
//! draws as a function of length only, so shuffling index vectors
//! reproduces the exact entity permutation), which makes their scenarios —
//! and every crawl digest downstream — byte-identical.

use crate::businesses::BusinessGen;
use crate::errors::{inject_errors, perturb_record};
use crate::publications::PublicationGen;
use crate::EntityId;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use smartcrawl_hidden::record::{read_cells, write_cells};
use smartcrawl_hidden::{ExternalId, HiddenDb, HiddenDbBuilder, HiddenRecord, Ranking, SearchMode};
use smartcrawl_store::{expect_store, BlobReader, BlobWriter, Locator, StoreRuntime};
use smartcrawl_text::Record;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One generated real-world entity, before it is split into local and
/// hidden representations.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Ground-truth identity.
    pub id: EntityId,
    /// Indexed attributes.
    pub fields: Vec<String>,
    /// Enrichment attributes (only the hidden side carries them).
    pub payload: Vec<String>,
    /// Hidden-database ranking signal (year, review count, …).
    pub rank_signal: f64,
    /// Whether the entity belongs to the subpopulation `D` is drawn from.
    pub community: bool,
}

/// Which synthetic universe to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// DBLP-like publications (title, venue, authors; ranked by year).
    Publications,
    /// Yelp-like Arizona businesses (name, city; ranked by review count).
    Businesses,
}

/// Experiment parameters — mirrors the paper's Table 3.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Universe flavour.
    pub domain: Domain,
    /// `|H|` (Table 3 default: 100 000).
    pub hidden_size: usize,
    /// `|D|`, including the `ΔD` part (default: 10 000).
    pub local_size: usize,
    /// `|ΔD| = |D − H|`: local records withheld from `H` (default: 0).
    pub delta_d: usize,
    /// Top-`k` result limit (default: 100).
    pub k: usize,
    /// Fraction of local records perturbed (Table 3 `error%`, default 0).
    pub error_pct: f64,
    /// Fraction of matchable *hidden* copies textually drifted (models the
    /// stale-snapshot effect of the Yelp experiment; default 0).
    pub drift_pct: f64,
    /// Search semantics of the hidden interface.
    pub mode: SearchMode,
    /// Hidden ranking function (opaque to the crawler).
    pub ranking: Ranking,
    /// Master seed; every derived random choice flows from it.
    pub seed: u64,
    /// Restrict local-pool publications to recent years (2010–2018), so a
    /// year-descending ranking correlates with `D`-membership — the ω > 1
    /// regime of §5.3. Publications domain only.
    pub recent_local: bool,
}

impl ScenarioConfig {
    /// The paper's Table 3 defaults: |H| = 100 000, |D| = 10 000, k = 100,
    /// ΔD = 0, error% = 0, conjunctive DBLP-style engine ranked by year.
    pub fn paper_default() -> Self {
        Self {
            domain: Domain::Publications,
            hidden_size: 100_000,
            local_size: 10_000,
            delta_d: 0,
            k: 100,
            error_pct: 0.0,
            drift_pct: 0.0,
            mode: SearchMode::Conjunctive,
            ranking: Ranking::SignalDesc,
            seed: 42,
            recent_local: false,
        }
    }

    /// The Yelp-style setup of §7.1.2: a stale 3 000-record snapshot of
    /// Arizona businesses matched against Yelp's *live* hidden database —
    /// larger than the snapshot (listings added since the dump) — through
    /// a k = 50 non-conjunctive interface, with textual drift and closures
    /// standing in for the years between snapshot and crawl. |H| is sized
    /// so that the snapshot stays a meaningful fraction of the hidden
    /// database (the regime where the paper's query sharing pays off on
    /// Yelp).
    pub fn yelp_like() -> Self {
        Self {
            domain: Domain::Businesses,
            hidden_size: 60_000,
            local_size: 3_000,
            delta_d: 150,
            k: 50,
            error_pct: 0.0,
            drift_pct: 0.30,
            mode: SearchMode::Disjunctive,
            ranking: Ranking::SignalDesc,
            seed: 42,
            recent_local: false,
        }
    }

    /// A small configuration for unit tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        Self {
            domain: Domain::Publications,
            hidden_size: 500,
            local_size: 80,
            delta_d: 8,
            k: 10,
            error_pct: 0.0,
            drift_pct: 0.0,
            mode: SearchMode::Conjunctive,
            ranking: Ranking::SignalDesc,
            seed,
            recent_local: false,
        }
    }

    /// `|D ∩ H|` under this configuration.
    pub fn matchable(&self) -> usize {
        self.local_size - self.delta_d
    }
}

/// Evaluation-only knowledge: which entity each record refers to.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    local_entities: Vec<EntityId>,
    external_entity: HashMap<u64, EntityId>,
    hidden_entities: HashSet<EntityId>,
    community_entities: HashSet<EntityId>,
}

impl GroundTruth {
    /// The entity behind local record `i`.
    pub fn local_entity(&self, i: usize) -> EntityId {
        self.local_entities[i]
    }

    /// Number of local records.
    pub fn num_local(&self) -> usize {
        self.local_entities.len()
    }

    /// The entity behind a hidden record, by its external id.
    pub fn entity_of_external(&self, ext: ExternalId) -> Option<EntityId> {
        self.external_entity.get(&ext.0).copied()
    }

    /// Whether local record `i` has a matching hidden record
    /// (`d ∈ D ∩ H`).
    pub fn local_has_match(&self, i: usize) -> bool {
        self.hidden_entities.contains(&self.local_entities[i])
    }

    /// `|D ∩ H|`: how many local records can possibly be covered.
    pub fn matchable_count(&self) -> usize {
        (0..self.local_entities.len())
            .filter(|&i| self.local_has_match(i))
            .count()
    }

    /// Whether an entity belongs to the community subpopulation `D` was
    /// drawn from (used to score row-population crawls).
    pub fn is_community(&self, e: EntityId) -> bool {
        self.community_entities.contains(&e)
    }

    /// Number of community entities present in the hidden database.
    pub fn hidden_community_count(&self) -> usize {
        self.hidden_entities
            .iter()
            .filter(|e| self.community_entities.contains(e))
            .count()
    }
}

/// A fully assembled experiment world.
#[derive(Debug)]
pub struct Scenario {
    /// The local database `D` (records only — the crawler indexes them).
    pub local: Vec<Record>,
    /// The hidden database `H`, reachable through its search interface.
    pub hidden: HiddenDb,
    /// Evaluation-only entity mapping.
    pub truth: GroundTruth,
    /// The configuration that produced this scenario.
    pub config: ScenarioConfig,
}

/// The domain's entity generator, positioned after the local pool so the
/// long-tail entities come off it one at a time (`universe(n)` is exactly
/// `n` sequential `entity()` calls, so streaming draws the identical RNG
/// sequence).
#[derive(Debug)]
enum RestGen {
    Publications(PublicationGen),
    Businesses(BusinessGen),
}

impl RestGen {
    fn next(&mut self) -> Entity {
        match self {
            RestGen::Publications(g) => g.entity(None),
            RestGen::Businesses(g) => g.entity(),
        }
    }
}

/// Step 1 of the construction protocol: the local pool, eagerly (it is
/// `|D|`-sized, not `|H|`-sized), plus the generator ready to stream the
/// remaining `|H| − |D ∩ H|` universe entities.
struct WorldSeed {
    local_pool: Vec<Entity>,
    gen: RestGen,
    rng: StdRng,
    matchable: usize,
    rest_size: usize,
}

impl WorldSeed {
    fn generate(config: &ScenarioConfig) -> Self {
        assert!(config.delta_d <= config.local_size, "ΔD cannot exceed |D|");
        let matchable = config.matchable();
        assert!(matchable <= config.hidden_size, "|D ∩ H| cannot exceed |H|");
        let rng = StdRng::seed_from_u64(config.seed ^ 0xD5EE_B00C);
        let rest_size = config.hidden_size - matchable;
        let (local_pool, gen) = match config.domain {
            Domain::Publications => {
                let mut g = PublicationGen::new(config.seed.wrapping_add(1));
                let local = if config.recent_local {
                    g.community_recent(config.local_size)
                } else {
                    g.community(config.local_size)
                };
                (local, RestGen::Publications(g))
            }
            Domain::Businesses => {
                let mut g = BusinessGen::new(config.seed.wrapping_add(1));
                (g.universe(config.local_size), RestGen::Businesses(g))
            }
        };
        Self {
            local_pool,
            gen,
            rng,
            matchable,
            rest_size,
        }
    }
}

/// Steps 2–3 of the construction protocol as index-space plans: which
/// local records enter `H`, which matchable copies drift, and the global
/// shuffle placing every hidden entity at its external id.
struct HiddenPlan {
    /// Local shuffle; the first `matchable` entries enter `H`.
    order: Vec<usize>,
    /// `perm[ext]` = pre-shuffle slot of the record with external id
    /// `ext`; slots `< matchable` are local copies, the rest are
    /// long-tail entities (slot − matchable indexes the generator
    /// stream).
    perm: Vec<u32>,
    /// Drifted field replacements, keyed by pre-shuffle slot.
    drifted: HashMap<u32, Vec<String>>,
}

impl HiddenPlan {
    fn draw(config: &ScenarioConfig, local_pool: &[Entity], rng: &mut StdRng) -> Self {
        let matchable = config.matchable();
        // 2. Choose which local records are matchable (go into H): shuffle
        //    indices, first `matchable` make the cut; the rest are ΔD.
        let mut order: Vec<usize> = (0..config.local_size).collect();
        order.shuffle(rng);

        // 3a. Textual drift on matchable hidden copies, from its own RNG
        //     stream so drift_pct does not perturb the shuffles.
        let mut drifted: HashMap<u32, Vec<String>> = HashMap::new();
        if config.drift_pct > 0.0 {
            let drift_n = ((matchable as f64) * config.drift_pct).round() as usize;
            let mut drift_rng = StdRng::seed_from_u64(config.seed.wrapping_add(2));
            let chosen =
                rand::seq::index::sample(&mut drift_rng, matchable, drift_n.min(matchable));
            for i in chosen.iter() {
                let mut rec = Record::new(local_pool[order[i]].fields.clone());
                if perturb_record(&mut rec, &mut drift_rng).is_some() {
                    drifted.insert(i as u32, rec.fields().to_vec());
                }
            }
        }

        // 3b. The hidden shuffle, over slots instead of materialized
        //     entities: shuffling draws from the RNG as a function of
        //     length only, so this consumes the exact draws the entity
        //     shuffle used to and lands every record at the same external
        //     id.
        let mut perm: Vec<u32> = (0..config.hidden_size as u32).collect();
        perm.shuffle(rng);

        Self {
            order,
            perm,
            drifted,
        }
    }

    /// The hidden record with external id `ext`. `fetch_rest` resolves a
    /// long-tail index to its `(fields, payload, rank_signal)`.
    fn record_at(
        &self,
        ext: usize,
        matchable: usize,
        local_pool: &[Entity],
        fetch_rest: &mut impl FnMut(usize) -> (Vec<String>, Vec<String>, f64),
    ) -> HiddenRecord {
        let slot = self.perm[ext] as usize;
        if slot < matchable {
            let e = &local_pool[self.order[slot]];
            let fields = self
                .drifted
                .get(&(slot as u32))
                .cloned()
                .unwrap_or_else(|| e.fields.clone());
            HiddenRecord::new(
                ext as u64,
                Record::new(fields),
                e.payload.clone(),
                e.rank_signal,
            )
        } else {
            let (fields, payload, rank_signal) = fetch_rest(slot - matchable);
            HiddenRecord::new(ext as u64, Record::new(fields), payload, rank_signal)
        }
    }

    /// The ground-truth entity behind external id `ext`.
    fn entity_at(
        &self,
        ext: usize,
        matchable: usize,
        local_pool: &[Entity],
        rest_ids: &[EntityId],
    ) -> EntityId {
        let slot = self.perm[ext] as usize;
        if slot < matchable {
            local_pool[self.order[slot]].id
        } else {
            rest_ids[slot - matchable]
        }
    }
}

/// Step 5: local records — every local-pool entity, shuffled, with error
/// injection applied after the split so hidden copies stay clean (errors
/// live only in D, as in the paper).
fn finish_local(
    config: &ScenarioConfig,
    local_pool: &[Entity],
    rng: &mut StdRng,
) -> (Vec<Record>, Vec<EntityId>) {
    let mut local_order: Vec<usize> = (0..config.local_size).collect();
    local_order.shuffle(rng);
    let mut local: Vec<Record> = Vec::with_capacity(config.local_size);
    let mut local_entities: Vec<EntityId> = Vec::with_capacity(config.local_size);
    for &i in &local_order {
        local.push(Record::new(local_pool[i].fields.clone()));
        local_entities.push(local_pool[i].id);
    }
    if config.error_pct > 0.0 {
        inject_errors(&mut local, config.error_pct, config.seed.wrapping_add(3));
    }
    (local, local_entities)
}

/// Assembles the evaluation-only ground truth from the id-level plan.
fn ground_truth(
    config: &ScenarioConfig,
    plan: &HiddenPlan,
    local_pool: &[Entity],
    rest_ids: &[EntityId],
    local_entities: Vec<EntityId>,
    community_entities: HashSet<EntityId>,
) -> GroundTruth {
    let matchable = config.matchable();
    let mut external_entity = HashMap::with_capacity(config.hidden_size);
    let mut hidden_entities = HashSet::with_capacity(config.hidden_size);
    for ext in 0..config.hidden_size {
        let id = plan.entity_at(ext, matchable, local_pool, rest_ids);
        external_entity.insert(ext as u64, id);
        hidden_entities.insert(id);
    }
    GroundTruth {
        local_entities,
        external_entity,
        hidden_entities,
        community_entities,
    }
}

/// Serializes one long-tail entity's record payload for the spill blob
/// (the entity id travels in RAM — it is ground truth, not record data).
fn encode_rest_entity(e: &Entity, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&e.rank_signal.to_bits().to_le_bytes());
    write_cells(out, &e.fields);
    write_cells(out, &e.payload);
}

fn decode_rest_entity(buf: &[u8]) -> Option<(Vec<String>, Vec<String>, f64)> {
    let bits = buf.get(0..8)?.try_into().ok().map(u64::from_le_bytes)?;
    let mut pos = 8usize;
    let fields = read_cells(buf, &mut pos)?;
    let payload = read_cells(buf, &mut pos)?;
    (pos == buf.len()).then(|| (fields, payload, f64::from_bits(bits)))
}

impl Scenario {
    /// Builds a scenario deterministically from its configuration, with
    /// the hidden database entirely in RAM.
    ///
    /// # Panics
    /// Panics if `delta_d > local_size` or `matchable > hidden_size`.
    pub fn build(config: ScenarioConfig) -> Self {
        let mut world = WorldSeed::generate(&config);
        let plan = HiddenPlan::draw(&config, &world.local_pool, &mut world.rng);
        let matchable = world.matchable;

        // Materialize the long tail and collect community flags (the
        // community set is the local pool plus flagged universe entities).
        let rest: Vec<Entity> = (0..world.rest_size).map(|_| world.gen.next()).collect();
        let mut community_entities: HashSet<EntityId> = HashSet::new();
        for e in world.local_pool.iter().chain(&rest) {
            if e.community {
                community_entities.insert(e.id);
            }
        }
        let rest_ids: Vec<EntityId> = rest.iter().map(|e| e.id).collect();

        // 4. Build the hidden database; external ids are positions in the
        //    shuffled order — opaque with respect to entity identity.
        let mut fetch = |j: usize| {
            let e = &rest[j];
            (e.fields.clone(), e.payload.clone(), e.rank_signal)
        };
        let records: Vec<HiddenRecord> = (0..config.hidden_size)
            .map(|ext| plan.record_at(ext, matchable, &world.local_pool, &mut fetch))
            .collect();
        let hidden = HiddenDbBuilder::new()
            .k(config.k)
            .ranking(config.ranking)
            .mode(config.mode)
            .records(records)
            .build();

        let (local, local_entities) = finish_local(&config, &world.local_pool, &mut world.rng);
        let truth = ground_truth(
            &config,
            &plan,
            &world.local_pool,
            &rest_ids,
            local_entities,
            community_entities,
        );
        Scenario {
            local,
            hidden,
            truth,
            config,
        }
    }

    /// Builds the same scenario as [`Scenario::build`] — byte-identical
    /// local database, ground truth, and query answers — but out-of-core:
    /// long-tail entities are spilled to a store blob as the generator
    /// emits them, and hidden records stream one at a time into the
    /// disk-backed [`HiddenDb`] living on `runtime`. The full hidden
    /// record set never exists in RAM.
    ///
    /// # Panics
    /// Panics if `delta_d > local_size` or `matchable > hidden_size`, and
    /// on spill-read failure after the spill file validated (the same
    /// fatal-by-design policy as every query-time store read).
    pub fn build_with_store(
        config: ScenarioConfig,
        runtime: Arc<StoreRuntime>,
    ) -> smartcrawl_store::Result<Self> {
        let mut world = WorldSeed::generate(&config);
        let plan = HiddenPlan::draw(&config, &world.local_pool, &mut world.rng);
        let matchable = world.matchable;

        // Stream the long tail straight to disk; only ids, community
        // flags, and blob locators stay in RAM.
        let rest_path = runtime.file_path("scenario-rest");
        let mut writer = BlobWriter::create(&rest_path, runtime.config().page_size)?;
        let mut rest_locs: Vec<Locator> = Vec::with_capacity(world.rest_size);
        let mut rest_ids: Vec<EntityId> = Vec::with_capacity(world.rest_size);
        let mut community_entities: HashSet<EntityId> = HashSet::new();
        for e in &world.local_pool {
            if e.community {
                community_entities.insert(e.id);
            }
        }
        let mut buf = Vec::new();
        for _ in 0..world.rest_size {
            let e = world.gen.next();
            if e.community {
                community_entities.insert(e.id);
            }
            rest_ids.push(e.id);
            encode_rest_entity(&e, &mut buf);
            rest_locs.push(writer.append(&buf)?);
        }
        writer.finish()?;

        let reader = BlobReader::open(&rest_path, runtime.pool())?;
        let mut scratch = Vec::new();
        // The spill was just written and validated on open; a failed read
        // below is the store vanishing mid-build — fatal by design, like
        // every query-time read (the streaming iterator has no error
        // channel).
        let mut fetch = |j: usize| {
            expect_store(
                reader.read(rest_locs[j], &mut scratch),
                "scenario rest spill read",
            );
            expect_store(
                decode_rest_entity(&scratch).ok_or_else(|| smartcrawl_store::StoreError::Corrupt {
                    path: rest_path.clone(),
                    detail: "undecodable spilled entity".to_string(),
                }),
                "scenario rest spill decode",
            )
        };
        let records = (0..config.hidden_size)
            .map(|ext| plan.record_at(ext, matchable, &world.local_pool, &mut fetch));
        let hidden = HiddenDbBuilder::new()
            .k(config.k)
            .ranking(config.ranking)
            .mode(config.mode)
            .build_streaming(records, Arc::clone(&runtime))?;
        drop(rest_locs);
        std::fs::remove_file(&rest_path)?;

        let (local, local_entities) = finish_local(&config, &world.local_pool, &mut world.rng);
        let truth = ground_truth(
            &config,
            &plan,
            &world.local_pool,
            &rest_ids,
            local_entities,
            community_entities,
        );
        Ok(Scenario {
            local,
            hidden,
            truth,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_store::StoreConfig;

    #[test]
    fn sizes_match_config() {
        let s = Scenario::build(ScenarioConfig::tiny(1));
        assert_eq!(s.local.len(), 80);
        assert_eq!(s.hidden.len(), 500);
        assert_eq!(s.truth.num_local(), 80);
    }

    #[test]
    fn delta_d_accounting_is_exact() {
        let s = Scenario::build(ScenarioConfig::tiny(2));
        assert_eq!(s.truth.matchable_count(), 80 - 8);
    }

    #[test]
    fn zero_delta_d_means_full_coverage() {
        let mut cfg = ScenarioConfig::tiny(3);
        cfg.delta_d = 0;
        let s = Scenario::build(cfg);
        assert_eq!(s.truth.matchable_count(), 80);
    }

    #[test]
    fn matchable_locals_have_identical_hidden_text_without_drift() {
        let s = Scenario::build(ScenarioConfig::tiny(4));
        // Find each matchable local's hidden twin by entity and compare.
        let mut by_entity: HashMap<EntityId, Vec<String>> = HashMap::new();
        for r in s.hidden.iter() {
            let e = s.truth.entity_of_external(r.external_id).unwrap();
            by_entity.insert(e, r.fields.to_vec());
        }
        for i in 0..s.truth.num_local() {
            if s.truth.local_has_match(i) {
                let e = s.truth.local_entity(i);
                assert_eq!(by_entity[&e], s.local[i].fields().to_vec());
            }
        }
    }

    #[test]
    fn drift_changes_some_hidden_copies() {
        let mut cfg = ScenarioConfig::tiny(5);
        cfg.drift_pct = 0.5;
        let s = Scenario::build(cfg);
        let mut by_entity: HashMap<EntityId, Vec<String>> = HashMap::new();
        for r in s.hidden.iter() {
            let e = s.truth.entity_of_external(r.external_id).unwrap();
            by_entity.insert(e, r.fields.to_vec());
        }
        let mut drifted = 0;
        for i in 0..s.truth.num_local() {
            if s.truth.local_has_match(i) {
                let e = s.truth.local_entity(i);
                if by_entity[&e] != s.local[i].fields().to_vec() {
                    drifted += 1;
                }
            }
        }
        assert!(drifted >= 20, "expected ~36 drifted records, saw {drifted}");
    }

    #[test]
    fn error_injection_touches_local_side_only() {
        let mut cfg = ScenarioConfig::tiny(6);
        cfg.error_pct = 1.0;
        cfg.delta_d = 0;
        let s = Scenario::build(cfg.clone());
        let mut clean_cfg = cfg;
        clean_cfg.error_pct = 0.0;
        let clean = Scenario::build(clean_cfg);
        // Hidden sides identical; local sides differ.
        let dirty_hidden: Vec<_> = s.hidden.iter().map(|r| r.fields.to_vec()).collect();
        let clean_hidden: Vec<_> = clean.hidden.iter().map(|r| r.fields.to_vec()).collect();
        assert_eq!(dirty_hidden, clean_hidden);
        let differing = s
            .local
            .iter()
            .zip(&clean.local)
            .filter(|(a, b)| a != b)
            .count();
        assert!(differing > 70, "only {differing} locals perturbed");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Scenario::build(ScenarioConfig::tiny(7));
        let b = Scenario::build(ScenarioConfig::tiny(7));
        assert_eq!(a.local, b.local);
        assert_eq!(a.hidden.len(), b.hidden.len());
    }

    #[test]
    fn yelp_like_config_is_well_formed() {
        let cfg = ScenarioConfig::yelp_like();
        assert_eq!(cfg.k, 50);
        assert_eq!(cfg.mode, SearchMode::Disjunctive);
        assert!(cfg.matchable() <= cfg.hidden_size);
    }

    #[test]
    #[should_panic(expected = "ΔD cannot exceed |D|")]
    fn oversized_delta_d_rejected() {
        let mut cfg = ScenarioConfig::tiny(8);
        cfg.delta_d = cfg.local_size + 1;
        Scenario::build(cfg);
    }

    #[test]
    fn community_flags_flow_into_ground_truth() {
        let s = Scenario::build(ScenarioConfig::tiny(12));
        // Every local entity is drawn from the community subpopulation.
        for i in 0..s.truth.num_local() {
            assert!(s.truth.is_community(s.truth.local_entity(i)));
        }
        // The hidden database mixes community and long-tail entities.
        let community = s.truth.hidden_community_count();
        assert!(community >= s.truth.matchable_count());
        assert!(community < s.hidden.len(), "long-tail entities must exist");
    }

    #[test]
    fn business_domain_builds() {
        let mut cfg = ScenarioConfig::tiny(9);
        cfg.domain = Domain::Businesses;
        cfg.mode = SearchMode::Disjunctive;
        let s = Scenario::build(cfg);
        assert_eq!(s.local.len(), 80);
        assert_eq!(s.hidden.mode(), SearchMode::Disjunctive);
    }

    fn tiny_runtime() -> Arc<StoreRuntime> {
        StoreRuntime::create(StoreConfig {
            page_size: 512,
            cache_pages: 32,
            dir: None,
        })
        .expect("store runtime")
    }

    fn assert_worlds_identical(ram: &Scenario, disk: &Scenario) {
        assert_eq!(ram.local, disk.local, "local database differs");
        assert_eq!(ram.hidden.len(), disk.hidden.len());
        let ram_records: Vec<_> = ram.hidden.iter().collect();
        let disk_records: Vec<_> = disk.hidden.iter().collect();
        assert_eq!(ram_records, disk_records, "hidden record stream differs");
        for ext in 0..ram.hidden.len() as u64 {
            assert_eq!(
                ram.truth.entity_of_external(ExternalId(ext)),
                disk.truth.entity_of_external(ExternalId(ext)),
                "ground truth differs at {ext}"
            );
        }
        assert_eq!(ram.truth.matchable_count(), disk.truth.matchable_count());
        assert_eq!(
            ram.truth.hidden_community_count(),
            disk.truth.hidden_community_count()
        );
    }

    #[test]
    fn streamed_store_scenario_is_byte_identical() {
        let ram = Scenario::build(ScenarioConfig::tiny(21));
        let disk =
            Scenario::build_with_store(ScenarioConfig::tiny(21), tiny_runtime()).expect("stream");
        assert_worlds_identical(&ram, &disk);
        assert!(disk.hidden.store_report().is_some());
    }

    #[test]
    fn streamed_store_scenario_matches_with_drift_and_errors() {
        let mut cfg = ScenarioConfig::tiny(22);
        cfg.drift_pct = 0.4;
        cfg.error_pct = 0.5;
        cfg.domain = Domain::Businesses;
        cfg.mode = SearchMode::Disjunctive;
        let ram = Scenario::build(cfg.clone());
        let disk = Scenario::build_with_store(cfg, tiny_runtime()).expect("stream");
        assert_worlds_identical(&ram, &disk);
        // Spot-check the interface answers line up too.
        for q in [
            vec!["grill".to_string()],
            vec!["phoenix".to_string(), "cafe".to_string()],
        ] {
            assert_eq!(ram.hidden.search(&q), disk.hidden.search(&q), "query {q:?}");
        }
    }
}

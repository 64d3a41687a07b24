//! Seeded workload inputs. Everything the program receives is generated
//! here from the workload seed: campaign spec documents and the serve
//! request stream. The program sees only the generated JSON text.

use belenos::env::parse_sampling;
use belenos::{Analysis, CampaignSpec, SimOptions, WorkloadSet};
use belenos_uarch::ModelKind;
use belenos_workloads::{by_id, gem5_set, ScenarioSpec};

/// Mesh resolution of every `fe-cold` scenario (`r`×`r`×`r` elements).
const FE_COLD_RESOLUTION: usize = 6;
/// Op budget of each `fe-cold` simulation (prefix mode).
const FE_COLD_MAX_OPS: usize = 20_000;
/// Op budget of each `sweep-warm` simulation (prefix mode).
const SWEEP_WARM_MAX_OPS: usize = 100_000;
/// Op budget of each fresh `serve-mixed` request (sampling on).
const SERVE_FRESH_MAX_OPS: usize = 100_000;
/// The assumed `serve-mixed` traffic mix. The repository records no
/// production traffic, so the mix is chosen, not measured: one request
/// in every `SERVE_BLOCK` is fresh, and one fresh request in every
/// `SERVE_LARGE_EVERY` is large. With three repeats (~60 ms) per fresh
/// request (~0.6 s), the median operation is a repeat and the 90th
/// percentile a small fresh one, so `op_p50_ms` follows the serve/HTTP
/// path and `op_p90_ms` the small-FE, store-write, sampled path. The
/// classes are also timed apart, so a change in one is not hidden by
/// the mix.
const SERVE_BLOCK: usize = 4;
const SERVE_LARGE_EVERY: usize = 12;
/// Requests in which the mix repeats exactly: twelve fresh, one large.
pub const SERVE_ROUND: usize = SERVE_BLOCK * SERVE_LARGE_EVERY;
/// gem5-set presets small fresh scenarios derive from: a sampled
/// request takes about half a second.
const SERVE_SMALL_PRESETS: [&str; 5] = ["ar", "co", "ma", "rj", "tu"];
/// The family and core model of large fresh requests. Sampled mode
/// expands and warms the whole `dm` trace: a request takes about 3 s
/// and the process peaks near 2 GiB. The core model is fixed to the one whose sampled run
/// costs least (3 s against 5 s for o3), and the mesh keeps the
/// catalog's node numbering (each request is still fresh: it has its own
/// id): `dm`'s cost moves by 2x with the numbering (2.7-5.8 s over eight
/// shuffle seeds), and with four or five large requests a run, drawn
/// models and numberings moved the metrics by 20% between seeds.
const SERVE_LARGE: (&str, ModelKind) = ("dm", ModelKind::Analytic);

/// SplitMix64: a small, well-mixed generator whose whole state is the
/// seed, so a seed names its stream exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A mesh shuffle seed: scenario documents are JSON, so it must stay
    /// within 2^53.
    pub fn shuffle_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

/// Draws `0..n` in a shuffled order, reshuffling once all are drawn, so
/// every value comes up equally often over a stream.
struct Deck {
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            n,
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            for i in (1..self.n).rev() {
                self.left.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        self.left.pop().expect("a refilled deck is not empty")
    }
}

/// The `fe-cold` campaign: `mesh_scaling` over the gem5 set at
/// [`FE_COLD_RESOLUTION`], each scenario's node numbering shuffled with a
/// seed drawn from the workload seed.
pub fn fe_cold_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let base: Vec<ScenarioSpec> = gem5_set()
        .into_iter()
        .map(|mut s| {
            s.mesh.shuffle_seed = Some(rng.shuffle_seed());
            s
        })
        .collect();
    CampaignSpec::new("fe-cold")
        .with_workloads(WorkloadSet::MeshSweep {
            base,
            resolutions: vec![FE_COLD_RESOLUTION],
        })
        .with_options(SimOptions::new(FE_COLD_MAX_OPS))
        .with_analysis(Analysis::MeshScaling)
        .to_json()
}

/// The `sweep-warm` campaign: the five sensitivity sweeps over the gem5
/// set at preset meshes. It takes no seed: its inputs are the presets.
pub fn sweep_warm_spec() -> String {
    CampaignSpec::new("sweep-warm")
        .with_workloads(WorkloadSet::Gem5)
        .with_options(SimOptions::new(SWEEP_WARM_MAX_OPS))
        .with_analysis(Analysis::Frequency)
        .with_analysis(Analysis::CacheSweep)
        .with_analysis(Analysis::Width)
        .with_analysis(Analysis::Lsq)
        .with_analysis(Analysis::Branch)
        .to_json()
}

/// What a request of the serve stream is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A spec sent before: a result-cache hit, or a join of the job in
    /// flight.
    Repeat,
    /// First sending of a small spec.
    Fresh,
    /// First sending of a large spec.
    Large,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Repeat => "repeat",
            Class::Fresh => "fresh",
            Class::Large => "large",
        }
    }
}

/// One request of the serve stream: which distinct spec it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub spec: usize,
    pub class: Class,
}

/// The `serve-mixed` request stream: distinct campaign documents and the
/// order they are sent in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStream {
    pub specs: Vec<String>,
    pub requests: Vec<Request>,
}

/// Generates `len` requests in blocks of [`SERVE_BLOCK`]: one fresh
/// request at a drawn position in each block (the first request of the
/// stream is fresh), the others repeats of uniformly drawn earlier
/// specs. Every [`SERVE_LARGE_EVERY`]th fresh spec is large. Small specs
/// cycle through every (family, core model) pair in a drawn order, so
/// every seed sends the same mix.
pub fn serve_stream(seed: u64, len: usize) -> ServeStream {
    let mut rng = Rng::new(seed);
    let mut small = Deck::new(SERVE_SMALL_PRESETS.len() * MODELS.len());
    let mut specs = Vec::new();
    let mut requests = Vec::with_capacity(len);
    let mut fresh_at = 0;
    for i in 0..len {
        if i % SERVE_BLOCK == 0 && i > 0 {
            fresh_at = i + rng.below(SERVE_BLOCK as u64) as usize;
        }
        if i == fresh_at {
            let n = specs.len();
            let class = if n % SERVE_LARGE_EVERY == SERVE_LARGE_EVERY - 1 {
                Class::Large
            } else {
                Class::Fresh
            };
            specs.push(fresh_spec(&mut rng, &mut small, class, n));
            requests.push(Request { spec: n, class });
        } else {
            requests.push(Request {
                spec: rng.below(specs.len() as u64) as usize,
                class: Class::Repeat,
            });
        }
    }
    ServeStream { specs, requests }
}

const MODELS: [ModelKind; 3] = [ModelKind::O3, ModelKind::InOrder, ModelKind::Analytic];

/// An off-catalog campaign: one gem5-set family, one of the three core
/// models, sampled simulation. Small specs draw their (family, model)
/// pair from `small` and a node shuffle from `rng`.
fn fresh_spec(rng: &mut Rng, small: &mut Deck, class: Class, n: usize) -> String {
    let (id, model) = match class {
        Class::Large => SERVE_LARGE,
        _ => {
            let pair = small.draw(rng);
            let models = MODELS.len();
            (SERVE_SMALL_PRESETS[pair / models], MODELS[pair % models])
        }
    };
    let mut scenario = by_id(id).expect("fresh presets are in the catalog");
    scenario.id = format!("{id}-f{n}");
    if class != Class::Large {
        scenario.mesh.shuffle_seed = Some(rng.shuffle_seed());
    }
    let sampling = parse_sampling("on").expect("`on` is a valid sampling setting");
    CampaignSpec::new(format!("serve-f{n}"))
        .with_workloads(WorkloadSet::Scenarios(vec![scenario]))
        .with_options(
            SimOptions::new(SERVE_FRESH_MAX_OPS)
                .with_sampling(sampling)
                .with_model(model),
        )
        .with_analysis(Analysis::Topdown)
        .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(fe_cold_spec(7), fe_cold_spec(7));
        assert_eq!(serve_stream(7, 200), serve_stream(7, 200));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(fe_cold_spec(7), fe_cold_spec(8));
        let (a, b) = (serve_stream(7, 200), serve_stream(8, 200));
        assert_ne!(a.specs, b.specs);
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn generated_specs_are_valid_campaigns() {
        for text in [fe_cold_spec(1), sweep_warm_spec()]
            .into_iter()
            .chain(serve_stream(1, 50).specs)
        {
            CampaignSpec::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        }
    }

    #[test]
    fn serve_stream_mixes_fresh_and_repeat_requests() {
        let stream = serve_stream(3, 20 * SERVE_ROUND);
        assert_ne!(stream.requests[0].class, Class::Repeat);
        for block in stream.requests.chunks(SERVE_BLOCK) {
            let fresh = block.iter().filter(|r| r.class != Class::Repeat);
            assert_eq!(fresh.count(), 1, "{block:?}");
        }
        assert_eq!(stream.specs.len(), 20 * SERVE_ROUND / SERVE_BLOCK);
        for (i, r) in stream.requests.iter().enumerate() {
            let first = stream.requests.iter().position(|q| q.spec == r.spec);
            assert_eq!(r.class != Class::Repeat, first == Some(i), "request {i}");
        }
        for round in stream.requests.chunks(SERVE_ROUND) {
            let large = round.iter().filter(|r| r.class == Class::Large);
            assert_eq!(large.count(), 1, "{round:?}");
        }
        for r in stream.requests.iter().filter(|r| r.class == Class::Large) {
            let spec = CampaignSpec::parse(&stream.specs[r.spec]).expect("valid spec");
            let ids: Vec<String> = scenarios(&spec).into_iter().map(|s| s.id).collect();
            assert_eq!(ids.len(), 1, "{ids:?}");
            assert!(ids[0].starts_with("dm-"), "{ids:?}");
        }
    }

    fn scenarios(spec: &CampaignSpec) -> Vec<ScenarioSpec> {
        match &spec.workloads {
            WorkloadSet::Scenarios(s) => s.clone(),
            other => panic!("fresh specs list their scenarios: {other:?}"),
        }
    }
}

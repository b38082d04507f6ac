//! The application registry: one constructor table for every workload.
//!
//! The paper's methodology is "one configuration, many measured variants"; the registry
//! is what lets one *spec* name any workload.  Each entry is an [`AppBuilder`] trait
//! object bundling the three constructors an experiment needs — the [`ServerApp`], a
//! seeded [`RequestFactory`] builder, and the [`CostModel`] used by simulated runs —
//! plus the workload's cluster layout (how instances are built for `shards ×
//! replication`) and its natural fan-out policy.  New workloads plug in through
//! [`Registry::register`] without touching the experiment machinery or the `bench`
//! binaries.

use crate::Scale;
use std::sync::Arc;
use tailbench_core::app::{CostModel, RequestFactory, ServerApp};
use tailbench_core::config::FanoutPolicy;
use tailbench_simarch::SystemModel;

/// The eight applications of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// xapian (online search).
    Xapian,
    /// masstree (key-value store).
    Masstree,
    /// moses (machine translation).
    Moses,
    /// sphinx (speech recognition).
    Sphinx,
    /// img-dnn (image recognition).
    ImgDnn,
    /// specjbb (business middleware).
    SpecJbb,
    /// silo (in-memory OLTP).
    Silo,
    /// shore (on-disk OLTP).
    Shore,
}

impl AppId {
    /// All applications in the paper's Table I order.
    pub const ALL: [AppId; 8] = [
        AppId::Xapian,
        AppId::Masstree,
        AppId::Moses,
        AppId::Sphinx,
        AppId::ImgDnn,
        AppId::SpecJbb,
        AppId::Silo,
        AppId::Shore,
    ];

    /// The application's name as used in reports and experiment specs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppId::Xapian => "xapian",
            AppId::Masstree => "masstree",
            AppId::Moses => "moses",
            AppId::Sphinx => "sphinx",
            AppId::ImgDnn => "img-dnn",
            AppId::SpecJbb => "specjbb",
            AppId::Silo => "silo",
            AppId::Shore => "shore",
        }
    }

    /// Parses a name (as printed by [`AppId::name`]).
    #[must_use]
    pub fn parse(name: &str) -> Option<AppId> {
        AppId::ALL.iter().copied().find(|a| a.name() == name)
    }
}

/// A constructed application together with a way to build request factories for it.
pub struct BenchApp {
    /// The application's registry name.
    pub name: String,
    /// The server side.
    pub app: Arc<dyn ServerApp>,
    pub(crate) factory_builder: Box<dyn Fn(u64) -> Box<dyn RequestFactory> + Send + Sync>,
}

impl BenchApp {
    /// Builds a request factory seeded for one run.
    #[must_use]
    pub fn factory(&self, seed: u64) -> Box<dyn RequestFactory> {
        (self.factory_builder)(seed)
    }
}

/// A constructed cluster: `shards * replication` server instances in shard-major order
/// (the layout `ClusterConfig` expects) plus a request-factory builder.
pub struct ClusterApp {
    /// The application's registry name.
    pub name: String,
    /// One server application per cluster instance, shard-major.
    pub instances: Vec<Arc<dyn ServerApp>>,
    pub(crate) factory_builder: Box<dyn Fn(u64) -> Box<dyn RequestFactory> + Send + Sync>,
}

impl ClusterApp {
    /// Builds a request factory seeded for one run.
    #[must_use]
    pub fn factory(&self, seed: u64) -> Box<dyn RequestFactory> {
        (self.factory_builder)(seed)
    }
}

/// One registry entry: the constructor set for a workload.
///
/// The default methods give a workload sensible cluster behavior for free: replicas
/// and shards are independent full copies of the single-server build, the cost model
/// is the suite's analytic [`SystemModel`], and fan-out is broadcast.  Workloads with
/// real partitioning (xapian's document-partitioned leaves) or structured keys
/// (masstree's hashed YCSB keys, the OLTP warehouse partitions) override them.
pub trait AppBuilder: Send + Sync {
    /// The registry name experiment specs refer to.
    fn name(&self) -> &str;

    /// Builds the single-server application at the given scale.
    fn build(&self, scale: Scale) -> BenchApp;

    /// Builds a cluster of `shards * replication` instances in shard-major order.
    ///
    /// The default builds one full copy of the single-server application per *shard*
    /// and shares that copy's `Arc` across the shard's replicas — replicas serve the
    /// same data by definition, so building them separately would only multiply
    /// construction time and memory.  Workloads that can really partition their data
    /// (like xapian's document-partitioned leaves) should override this.
    fn build_cluster(&self, shards: usize, replication: usize, scale: Scale) -> ClusterApp {
        full_copy_cluster(self, shards, replication, scale)
    }

    /// The cost model simulated runs of this workload use.
    fn cost_model(&self) -> Box<dyn CostModel> {
        Box::new(SystemModel::default())
    }

    /// The workload's natural cluster fan-out policy (used when a spec's topology says
    /// `"fanout": "auto"`).
    fn default_fanout(&self) -> FanoutPolicy {
        FanoutPolicy::Broadcast
    }
}

/// The constructor table: registry name → [`AppBuilder`].
pub struct Registry {
    builders: Vec<Box<dyn AppBuilder>>,
}

impl Registry {
    /// An empty registry (useful for fully custom experiment setups and tests).
    #[must_use]
    pub fn empty() -> Registry {
        Registry {
            builders: Vec::new(),
        }
    }

    /// The built-in registry holding the eight TailBench applications.
    #[must_use]
    pub fn builtin() -> Registry {
        let mut registry = Registry::empty();
        for id in AppId::ALL {
            registry.register(Box::new(SuiteApp(id)));
        }
        registry
    }

    /// Registers a builder; a builder with the same name is replaced, so tests and
    /// downstream users can shadow the built-ins.
    pub fn register(&mut self, builder: Box<dyn AppBuilder>) {
        self.builders.retain(|b| b.name() != builder.name());
        self.builders.push(builder);
    }

    /// Looks up a builder by registry name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&dyn AppBuilder> {
        self.builders
            .iter()
            .find(|b| b.name() == name)
            .map(AsRef::as_ref)
    }

    /// The registered names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.builders.iter().map(|b| b.name()).collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::builtin()
    }
}

/// The shared cluster layout behind [`AppBuilder::build_cluster`]'s default: one full
/// copy of the single-server build per shard, its `Arc` shared across the shard's
/// replicas.
fn full_copy_cluster<B: AppBuilder + ?Sized>(
    builder: &B,
    shards: usize,
    replication: usize,
    scale: Scale,
) -> ClusterApp {
    let shards = shards.max(1);
    let replication = replication.max(1);
    let mut instances = Vec::with_capacity(shards * replication);
    let mut factory_builder = None;
    for _ in 0..shards {
        let built = builder.build(scale);
        for _ in 0..replication {
            instances.push(Arc::clone(&built.app));
        }
        factory_builder.get_or_insert(built.factory_builder);
    }
    ClusterApp {
        name: builder.name().to_string(),
        instances,
        factory_builder: factory_builder.expect("at least one shard"),
    }
}

/// The built-in builder for one suite application.
struct SuiteApp(AppId);

impl AppBuilder for SuiteApp {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn build(&self, scale: Scale) -> BenchApp {
        build_app(self.0, scale)
    }

    fn build_cluster(&self, shards: usize, replication: usize, scale: Scale) -> ClusterApp {
        match self.0 {
            // xapian really partitions: each shard indexes a slice of one shared
            // corpus (global doc ids), its replicas share that leaf's `Arc`.
            AppId::Xapian => build_xapian_cluster(shards, replication, scale),
            _ => full_copy_cluster(self, shards, replication, scale),
        }
    }

    fn default_fanout(&self) -> FanoutPolicy {
        match self.0 {
            AppId::Masstree => FanoutPolicy::ycsb(),
            AppId::Silo | AppId::Shore => FanoutPolicy::tpcc(),
            _ => FanoutPolicy::Broadcast,
        }
    }
}

/// Builds one application at the given scale.
#[must_use]
pub fn build_app(id: AppId, scale: Scale) -> BenchApp {
    use tailbench_imgdnn::{ImageRequestFactory, ImgDnnApp};
    use tailbench_jbb::{Company, JbbRequestFactory, SpecJbbApp};
    use tailbench_kvstore::{MasstreeApp, YcsbRequestFactory};
    use tailbench_oltp::{OltpApp, TpccRequestFactory};
    use tailbench_search::{SearchRequestFactory, XapianApp};
    use tailbench_speech::{SpeechRequestFactory, SphinxApp};
    use tailbench_translate::{ModelConfig, MosesApp, TranslateRequestFactory};
    use tailbench_workloads::text::{CorpusConfig, SyntheticCorpus};
    use tailbench_workloads::tpcc::TpccConfig;
    use tailbench_workloads::ycsb::YcsbConfig;

    let name = id.name().to_string();
    match id {
        AppId::Xapian => {
            let corpus_config = match scale {
                Scale::Quick | Scale::Smoke => CorpusConfig {
                    documents: 3_000,
                    vocabulary: 10_000,
                    ..CorpusConfig::default()
                },
                Scale::Full => CorpusConfig::default(),
            };
            let corpus = SyntheticCorpus::generate(corpus_config);
            let app = Arc::new(XapianApp::from_corpus(&corpus));
            BenchApp {
                name,
                app,
                factory_builder: Box::new(move |seed| {
                    Box::new(SearchRequestFactory::new(&corpus, seed))
                }),
            }
        }
        AppId::Masstree => {
            let config = match scale {
                Scale::Quick | Scale::Smoke => YcsbConfig {
                    records: 100_000,
                    ..YcsbConfig::default()
                },
                Scale::Full => YcsbConfig::default(),
            };
            let app = Arc::new(MasstreeApp::new(&config));
            BenchApp {
                name,
                app,
                factory_builder: Box::new(move |seed| {
                    Box::new(YcsbRequestFactory::new(&config, seed))
                }),
            }
        }
        AppId::Moses => {
            let model = match scale {
                Scale::Quick | Scale::Smoke => ModelConfig {
                    source_vocab: 3_000,
                    target_vocab: 3_000,
                    ..ModelConfig::default()
                },
                Scale::Full => ModelConfig::default(),
            };
            let app = Arc::new(MosesApp::new(
                model.clone(),
                tailbench_translate::DecoderConfig {
                    beam_width: match scale {
                        Scale::Quick | Scale::Smoke => 12,
                        Scale::Full => 40,
                    },
                    ..tailbench_translate::DecoderConfig::default()
                },
            ));
            BenchApp {
                name,
                app,
                factory_builder: Box::new(move |seed| {
                    Box::new(TranslateRequestFactory::new(&model, seed))
                }),
            }
        }
        AppId::Sphinx => {
            let vocabulary = match scale {
                Scale::Quick | Scale::Smoke => 60,
                Scale::Full => tailbench_speech::DEFAULT_VOCABULARY,
            };
            let app = Arc::new(SphinxApp::new(vocabulary));
            BenchApp {
                name,
                app,
                factory_builder: Box::new(move |seed| {
                    Box::new(SpeechRequestFactory::new(vocabulary, seed))
                }),
            }
        }
        AppId::ImgDnn => {
            let app = match scale {
                Scale::Quick | Scale::Smoke => Arc::new(ImgDnnApp::small()),
                Scale::Full => Arc::new(ImgDnnApp::standard()),
            };
            BenchApp {
                name,
                app,
                factory_builder: Box::new(|seed| Box::new(ImageRequestFactory::new(seed))),
            }
        }
        AppId::SpecJbb => {
            let company = match scale {
                Scale::Quick | Scale::Smoke => Company::new(1, 300, 2_000, 0x1BB),
                Scale::Full => Company::standard(),
            };
            let app = Arc::new(SpecJbbApp::new(company));
            let app_for_factory = Arc::clone(&app);
            BenchApp {
                name,
                app: app_for_factory,
                factory_builder: Box::new(move |seed| {
                    Box::new(JbbRequestFactory::new(app.company(), seed))
                }),
            }
        }
        AppId::Silo => {
            let config = match scale {
                Scale::Quick | Scale::Smoke => TpccConfig {
                    warehouses: 1,
                    items: 10_000,
                    customers_per_district: 300,
                    remote_line_fraction: 0.01,
                },
                Scale::Full => TpccConfig::silo(),
            };
            let app = Arc::new(OltpApp::silo(config.clone()));
            BenchApp {
                name,
                app,
                factory_builder: Box::new(move |seed| {
                    Box::new(TpccRequestFactory::new(&config, seed))
                }),
            }
        }
        AppId::Shore => {
            let config = match scale {
                Scale::Quick | Scale::Smoke => TpccConfig {
                    warehouses: 2,
                    items: 5_000,
                    customers_per_district: 200,
                    remote_line_fraction: 0.01,
                },
                Scale::Full => TpccConfig::shore(),
            };
            let pool_pages = match scale {
                Scale::Quick | Scale::Smoke => 512,
                Scale::Full => 8_192,
            };
            let app = Arc::new(OltpApp::shore(config.clone(), pool_pages));
            BenchApp {
                name,
                app,
                factory_builder: Box::new(move |seed| {
                    Box::new(TpccRequestFactory::new(&config, seed))
                }),
            }
        }
    }
}

/// Builds a replicated xapian search cluster over one shared corpus: leaves in
/// shard-major order, one immutable leaf index per document partition, its `Arc`
/// shared by the shard's replicas.
fn build_xapian_cluster(shards: usize, replication: usize, scale: Scale) -> ClusterApp {
    use tailbench_search::{SearchRequestFactory, XapianApp};
    use tailbench_workloads::text::{CorpusConfig, SyntheticCorpus};

    let corpus_config = match scale {
        Scale::Quick | Scale::Smoke => CorpusConfig {
            documents: 3_000,
            vocabulary: 10_000,
            ..CorpusConfig::default()
        },
        Scale::Full => CorpusConfig::default(),
    };
    let corpus = SyntheticCorpus::generate(corpus_config);
    let shards = shards.max(1);
    let instances = (0..shards)
        .flat_map(|s| {
            let leaf: Arc<dyn ServerApp> = Arc::new(XapianApp::leaf(&corpus, s, shards));
            std::iter::repeat_n(leaf, replication.max(1))
        })
        .collect();
    ClusterApp {
        name: "xapian".to_string(),
        instances,
        factory_builder: Box::new(move |seed| Box::new(SearchRequestFactory::new(&corpus, seed))),
    }
}

/// A web-search partition-aggregate cluster: one xapian leaf per shard over a shared
/// corpus, plus a query-factory builder.  Kept for the `bench` crate's historical API;
/// new code should go through [`Registry`] + `ExperimentSpec` topologies.
pub struct SearchCluster {
    /// One leaf application per shard (document-partitioned, global doc ids).
    pub leaves: Vec<Arc<dyn ServerApp>>,
    factory_builder: Box<dyn Fn(u64) -> Box<dyn RequestFactory> + Send + Sync>,
}

impl SearchCluster {
    /// Builds a query factory seeded for one run.
    #[must_use]
    pub fn factory(&self, seed: u64) -> Box<dyn RequestFactory> {
        (self.factory_builder)(seed)
    }
}

/// Builds `shards` xapian leaf nodes over one shared corpus at the given scale.
#[must_use]
pub fn build_search_cluster(shards: usize, scale: Scale) -> SearchCluster {
    build_replicated_search_cluster(shards, 1, scale)
}

/// Builds a replicated search cluster: `shards * replication` xapian leaves in
/// shard-major order (a shard's replicas share one leaf over its document
/// partition), the layout `ClusterConfig::with_replication` expects.
#[must_use]
pub fn build_replicated_search_cluster(
    shards: usize,
    replication: usize,
    scale: Scale,
) -> SearchCluster {
    let cluster = build_xapian_cluster(shards, replication, scale);
    SearchCluster {
        leaves: cluster.instances,
        factory_builder: cluster.factory_builder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_ids_round_trip_through_names() {
        for id in AppId::ALL {
            assert_eq!(AppId::parse(id.name()), Some(id));
        }
        assert_eq!(AppId::parse("nope"), None);
    }

    #[test]
    fn builtin_registry_holds_all_eight_apps() {
        let registry = Registry::builtin();
        assert_eq!(registry.names().len(), 8);
        for id in AppId::ALL {
            let builder = registry.get(id.name()).expect("registered");
            assert_eq!(builder.name(), id.name());
        }
        assert!(registry.get("unknown").is_none());
    }

    #[test]
    fn registration_replaces_by_name() {
        struct Custom;
        impl AppBuilder for Custom {
            fn name(&self) -> &str {
                "masstree"
            }
            fn build(&self, _scale: Scale) -> BenchApp {
                BenchApp {
                    name: "masstree".into(),
                    app: Arc::new(tailbench_core::app::EchoApp::default()),
                    factory_builder: Box::new(|_| Box::new(|| vec![0u8])),
                }
            }
        }
        let mut registry = Registry::builtin();
        registry.register(Box::new(Custom));
        assert_eq!(registry.names().len(), 8);
        let built = registry.get("masstree").unwrap().build(Scale::Smoke);
        assert_eq!(built.app.name(), "echo");
    }

    #[test]
    fn default_fanouts_match_the_wire_formats() {
        let registry = Registry::builtin();
        assert!(matches!(
            registry.get("masstree").unwrap().default_fanout(),
            FanoutPolicy::HashKey { offset: 1, len: 8 }
        ));
        assert!(matches!(
            registry.get("silo").unwrap().default_fanout(),
            FanoutPolicy::Partition { offset: 1, len: 4 }
        ));
        assert!(matches!(
            registry.get("xapian").unwrap().default_fanout(),
            FanoutPolicy::Broadcast
        ));
    }

    #[test]
    fn default_cluster_layout_shares_replica_data() {
        let registry = Registry::builtin();
        let cluster = registry
            .get("masstree")
            .unwrap()
            .build_cluster(2, 2, Scale::Smoke);
        assert_eq!(cluster.instances.len(), 4);
        // Replicas of a shard are the same Arc (same data), shards are distinct.
        assert!(Arc::ptr_eq(&cluster.instances[0], &cluster.instances[1]));
        assert!(!Arc::ptr_eq(&cluster.instances[0], &cluster.instances[2]));
        // xapian partitions instead of copying, with the same sharing.
        let cluster = registry
            .get("xapian")
            .unwrap()
            .build_cluster(2, 2, Scale::Smoke);
        assert_eq!(cluster.instances.len(), 4);
        assert!(Arc::ptr_eq(&cluster.instances[0], &cluster.instances[1]));
        assert!(Arc::ptr_eq(&cluster.instances[2], &cluster.instances[3]));
        assert!(!Arc::ptr_eq(&cluster.instances[0], &cluster.instances[2]));
    }
}

// Helpers shared by the example binaries (mgps_cli, metaprox_server).
//
// Header-only on purpose: every examples/*.cpp is auto-globbed into its
// own binary by CMake, so a shared .cc would need build-system surgery.
//
// The dataset construction, engine options and per-class model
// training/persistence here are THE definitions of "the same index" and
// "the same model" that the server smoke check relies on: mgps_cli
// (offline + query) and metaprox_server both call these with the same
// (kind, num, seed, class) arguments — and share saved model artifacts
// through LoadOrTrainClassModel — so their models are identical and, by
// the batched determinism contract, their result bytes are too.
#ifndef METAPROX_EXAMPLES_EXAMPLE_COMMON_H_
#define METAPROX_EXAMPLES_EXAMPLE_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/citation.h"
#include "datagen/facebook.h"
#include "datagen/linkedin.h"
#include "eval/splits.h"
#include "learning/model_io.h"
#include "util/rng.h"

namespace metaprox::examples {

/// Regenerates one of the synthetic benchmark datasets. Exits(2) on an
/// unknown kind (CLI usage error).
inline datagen::Dataset MakeDataset(const std::string& kind, uint32_t num,
                                    uint64_t seed) {
  if (kind == "facebook") {
    datagen::FacebookConfig cfg;
    cfg.num_users = num;
    return datagen::GenerateFacebook(cfg, seed);
  }
  if (kind == "linkedin") {
    datagen::LinkedInConfig cfg;
    cfg.num_users = num;
    return datagen::GenerateLinkedIn(cfg, seed);
  }
  if (kind == "citation") {
    datagen::CitationConfig cfg;
    cfg.num_papers = num;
    return datagen::GenerateCitation(cfg, seed);
  }
  std::fprintf(stderr, "unknown dataset kind: %s\n", kind.c_str());
  std::exit(2);
}

/// The engine options every example binary uses for these datasets.
inline EngineOptions MakeEngineOptions(const datagen::Dataset& ds,
                                       unsigned num_threads) {
  EngineOptions options;
  options.miner.anchor_type = ds.user_type;
  options.miner.min_support = 4;
  options.miner.max_nodes = 4;
  options.num_threads = num_threads;
  return options;
}

/// Trains the per-class model exactly the way `mgps_cli query` always has:
/// split seeded from (dataset seed + 1), 20% test split, 300 sampled
/// examples, 300 training iterations. Deterministic in (dataset, class),
/// which is what lets a separately started server reproduce the CLI's
/// model bit for bit.
inline MgpModel TrainClassModel(SearchEngine& engine,
                                const datagen::Dataset& ds,
                                const GroundTruth& gt, uint64_t seed) {
  util::Rng rng(seed + 1);
  QuerySplit split = SplitQueries(gt, 0.2, rng);
  auto pool = ds.graph.NodesOfType(ds.user_type);
  std::vector<NodeId> pool_vec(pool.begin(), pool.end());
  auto examples = SampleExamples(gt, split.train, pool_vec, 300, rng);
  TrainOptions train;
  train.max_iterations = 300;
  return engine.Train(examples, train);
}

/// THE load-or-train-and-save path shared by mgps_cli and metaprox_server:
/// if `model_path` holds a saved model, load it (weight count checked
/// against the engine's index); if the file is absent, train exactly as
/// TrainClassModel always has and persist the result there. With an empty
/// `model_path`, plain training (no persistence).
///
/// Because SaveModel/LoadModel round-trip weights bit-for-bit (%.17g), a
/// CLI run that trains-and-saves and a server that later loads the
/// artifact hold the SAME model — the cross-binary byte-identity the
/// smoke checks rely on, now without retraining in every process.
inline util::StatusOr<MgpModel> LoadOrTrainClassModel(
    SearchEngine& engine, const datagen::Dataset& ds, const GroundTruth& gt,
    uint64_t seed, const std::string& model_path,
    util::ArtifactFormat save_format = util::ArtifactFormat::kText) {
  if (!model_path.empty()) {
    // Loads autodetect the on-disk format; save_format only shapes what a
    // train-and-save writes.
    auto loaded = LoadModel(model_path, engine.index().num_metagraphs());
    if (loaded.ok()) {
      std::fprintf(stderr, "loaded '%s' model from %s\n",
                   gt.class_name().c_str(), model_path.c_str());
      return loaded;
    }
    // NotFound = "artifact not built yet" -> train below. Anything else
    // (corrupt file, wrong index) must surface, not silently retrain.
    if (loaded.status().code() != util::StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  MgpModel model = TrainClassModel(engine, ds, gt, seed);
  if (!model_path.empty()) {
    auto saved = SaveModel(model, model_path, save_format);
    if (!saved.ok()) return saved;
    std::fprintf(stderr, "trained '%s' model and saved it to %s\n",
                 gt.class_name().c_str(), model_path.c_str());
  }
  return model;
}

}  // namespace metaprox::examples

#endif  // METAPROX_EXAMPLES_EXAMPLE_COMMON_H_

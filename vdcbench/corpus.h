#ifndef VDCBENCH_CORPUS_H_
#define VDCBENCH_CORPUS_H_

// Seeded inputs: the catalog corpus every workload starts from, and the
// arrival schedules and key distributions that drive the workloads. The
// same seed always yields the same inputs.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "catalog/batch.h"
#include "catalog/client.h"

namespace vdcbench {

struct CorpusSpec {
  size_t base_datasets = 72000;  // annotated "ds-<bucket>-<n>" datasets
  size_t derivations = 8000;     // "dv-<i>": one base input -> "out-<i>"
  uint32_t buckets = 32;         // name-prefix buckets (~2250 names each)
  size_t chains = 128;           // provenance chains for lineage walks
  size_t chain_depth = 16;       // derivations per chain
  uint32_t shards = 4;

  size_t total_datasets() const {
    return base_datasets + derivations + chains * (chain_depth + 1);
  }
  size_t total_derivations() const {
    return derivations + chains * chain_depth;
  }
};

inline constexpr char kTransformation[] = "xf-bench";
inline constexpr uint32_t kTiers = 8;
inline constexpr uint32_t kOwners = 64;
inline constexpr uint32_t kRuns = 500;

std::string BucketPrefix(uint32_t bucket);
std::string TierName(uint32_t tier);
std::string OwnerName(uint32_t owner);
std::string ChainDataset(size_t chain, size_t depth);
std::string ChainDerivation(size_t chain, size_t depth);

/// A derivation of the benchmark transformation reading `input` and
/// writing `output`.
vdg::Derivation MakeDerivation(std::string name, std::string input,
                               std::string output);

struct Corpus {
  CorpusSpec spec;
  /// The whole corpus as ApplyBatch batches, in load order.
  std::vector<std::vector<vdg::CatalogMutation>> batches;
  std::vector<std::string> base_names;
  /// Input dataset of each "dv-<i>" derivation.
  std::vector<std::string> derivation_inputs;
};

Corpus MakeCorpus(const CorpusSpec& spec, uint64_t seed);

/// Applies every corpus batch through `client`; fails on any op error.
vdg::Status LoadCorpus(vdg::CatalogClient* client, const Corpus& corpus);

/// A well-mixed 64-bit seed for stream `stream` of run seed `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Uniform double in [0, 1) from the engine's raw output (portable
/// across standard libraries, unlike std:: distributions).
double UnitDraw(std::mt19937_64& rng);

/// Arrival offsets in seconds of a Poisson process at `rate` per second
/// over [0, duration).
std::vector<double> PoissonArrivals(uint64_t seed, double rate,
                                    double duration);

/// Zipf(s) over [0, n): rank r is drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace vdcbench

#endif  // VDCBENCH_CORPUS_H_

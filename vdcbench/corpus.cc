#include "corpus.h"

#include <algorithm>
#include <cmath>

#include "schema/derivation.h"
#include "schema/transformation.h"

namespace vdcbench {

namespace {

constexpr size_t kBatchSize = 2048;

vdg::Transformation BenchTransformation() {
  vdg::Transformation xf(kTransformation, vdg::Transformation::Kind::kSimple);
  vdg::FormalArg out;
  out.name = "out";
  out.direction = vdg::ArgDirection::kOut;
  (void)xf.AddArg(std::move(out));
  vdg::FormalArg in;
  in.name = "in";
  in.direction = vdg::ArgDirection::kIn;
  (void)xf.AddArg(std::move(in));
  xf.set_executable("/usr/bin/vdcbench-step");
  return xf;
}

vdg::Dataset MakeDataset(std::string name, int64_t size) {
  vdg::Dataset ds;
  ds.descriptor = vdg::DatasetDescriptor::File("/vdcbench/" + name);
  ds.name = std::move(name);
  ds.size_bytes = size;
  return ds;
}

}  // namespace

std::string BucketPrefix(uint32_t bucket) {
  static const char kHex[] = "0123456789abcdef";
  std::string prefix = "ds-";
  prefix.push_back(kHex[(bucket >> 4) & 0xf]);
  prefix.push_back(kHex[bucket & 0xf]);
  prefix.push_back('-');
  return prefix;
}

std::string TierName(uint32_t tier) {
  std::string name = "tier";
  name += std::to_string(tier);
  return name;
}

std::string OwnerName(uint32_t owner) {
  std::string name = "u";
  name += std::to_string(owner);
  return name;
}

std::string ChainDataset(size_t chain, size_t depth) {
  return "ch-" + std::to_string(chain) + "-" + std::to_string(depth);
}

std::string ChainDerivation(size_t chain, size_t depth) {
  return "chdv-" + std::to_string(chain) + "-" + std::to_string(depth);
}

vdg::Derivation MakeDerivation(std::string name, std::string input,
                               std::string output) {
  vdg::Derivation dv(std::move(name), kTransformation);
  (void)dv.AddArg(vdg::ActualArg::DatasetRef("out", std::move(output),
                                             vdg::ArgDirection::kOut));
  (void)dv.AddArg(vdg::ActualArg::DatasetRef("in", std::move(input),
                                             vdg::ArgDirection::kIn));
  return dv;
}

Corpus MakeCorpus(const CorpusSpec& spec, uint64_t seed) {
  Corpus corpus;
  corpus.spec = spec;
  std::mt19937_64 rng(SubSeed(seed, 1));
  std::vector<vdg::CatalogMutation> batch;
  auto push = [&](vdg::CatalogMutation mutation) {
    batch.push_back(std::move(mutation));
    if (batch.size() == kBatchSize) {
      corpus.batches.push_back(std::move(batch));
      batch.clear();
    }
  };

  push(vdg::CatalogMutation::DefineTransformation(BenchTransformation()));
  corpus.base_names.reserve(spec.base_datasets);
  for (size_t n = 0; n < spec.base_datasets; ++n) {
    const uint32_t bucket = static_cast<uint32_t>(n % spec.buckets);
    vdg::Dataset ds = MakeDataset(BucketPrefix(bucket) + std::to_string(n),
                                  int64_t{1} << (20 + rng() % 8));
    ds.annotations.Set("bin", static_cast<int64_t>(bucket));
    ds.annotations.Set("tier", TierName(static_cast<uint32_t>(rng() % kTiers)));
    ds.annotations.Set("owner",
                       OwnerName(static_cast<uint32_t>(rng() % kOwners)));
    ds.annotations.Set("run", static_cast<int64_t>(rng() % kRuns));
    corpus.base_names.push_back(ds.name);
    push(vdg::CatalogMutation::DefineDataset(std::move(ds)));
  }
  corpus.derivation_inputs.reserve(spec.derivations);
  for (size_t i = 0; i < spec.derivations; ++i) {
    const std::string& input = corpus.base_names[rng() % spec.base_datasets];
    corpus.derivation_inputs.push_back(input);
    push(vdg::CatalogMutation::DefineDerivation(MakeDerivation(
        "dv-" + std::to_string(i), input, "out-" + std::to_string(i))));
  }
  for (size_t c = 0; c < spec.chains; ++c) {
    push(vdg::CatalogMutation::DefineDataset(
        MakeDataset(ChainDataset(c, 0), int64_t{1} << 24)));
    for (size_t d = 1; d <= spec.chain_depth; ++d) {
      push(vdg::CatalogMutation::DefineDerivation(
          MakeDerivation(ChainDerivation(c, d), ChainDataset(c, d - 1),
                         ChainDataset(c, d))));
    }
  }
  if (!batch.empty()) corpus.batches.push_back(std::move(batch));
  return corpus;
}

vdg::Status LoadCorpus(vdg::CatalogClient* client, const Corpus& corpus) {
  for (const auto& batch : corpus.batches) {
    VDG_ASSIGN_OR_RETURN(vdg::BatchResult result, client->ApplyBatch(batch));
    if (!result.first_error.ok()) return result.first_error;
  }
  return vdg::Status::OK();
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over the pair.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double UnitDraw(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate,
                                    double duration) {
  std::vector<double> arrivals;
  if (rate <= 0 || duration <= 0) return arrivals;
  arrivals.reserve(static_cast<size_t>(rate * duration * 1.1) + 16);
  std::mt19937_64 rng(seed);
  double t = 0;
  for (;;) {
    t += -std::log1p(-UnitDraw(rng)) / rate;
    if (t >= duration) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(std::mt19937_64& rng) const {
  const double u = UnitDraw(rng);
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace vdcbench

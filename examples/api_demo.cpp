// The public `bprom::api` surface in one self-checking walkthrough:
//
//   1. fit + publish "market@v1" through api::AuditEngine::fit,
//   2. refresh the fit and roll the bare name over to "market@v2",
//   3. audit a small marketplace asynchronously against the bare name
//      (resolves to @v2) — an async batched audit with futures,
//   4. audit the same batch against the pinned "market@v1": superseded
//      versions keep serving exactly as before the rollover,
//   5. simulate a fresh process: a second engine over the same store
//      directory cold-loads both versions from disk and re-audits both
//      batches (sync and async swapped) — every verdict, query count and
//      resolved version must match the first engine's bit for bit,
//   6. exit nonzero on any non-OK Status or any mismatch — the CI gate.
//
// Run under BPROM_THREADS=1 and 8: output (timing stripped) is identical.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/experiment.hpp"
#include "data/ops.hpp"

namespace {

using namespace bprom;

/// The detector fit_detector() would build, expressed as a FitRequest: the
/// same D_S / D_T splits from the same seed, so the façade path is
/// comparable to the historical one.
struct FitInputs {
  nn::LabeledData reserved;
  nn::LabeledData dt_train;

  static FitInputs make(const data::Dataset& source,
                        const data::Dataset& target, std::uint64_t seed) {
    util::Rng rng(seed ^ 0xDE7EC7ULL);
    FitInputs in;
    in.reserved = data::sample_fraction(source.test, 0.10, rng);
    const std::size_t prompt_n =
        std::min<std::size_t>(256, target.train.size());
    in.dt_train = data::subset(
        target.train,
        rng.sample_without_replacement(target.train.size(), prompt_n));
    return in;
  }
};

bool same_verdict(const core::Verdict& a, const core::Verdict& b) {
  return a.score == b.score && a.backdoored == b.backdoored &&
         a.prompted_accuracy == b.prompted_accuracy && a.queries == b.queries;
}

}  // namespace

int main() {
  const auto scale = core::ExperimentScale::current();
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 1);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 2);
  const auto arch = nn::ArchKind::kResNet18Mini;

  std::printf("== api_demo: fit -> publish -> rollover -> async audit -> "
              "reload ==\n");

  // A small marketplace: clean and backdoored vendor uploads.
  std::vector<core::TrainedSuspicious> marketplace;
  marketplace.push_back(core::train_clean_model(src, arch, 800, scale));
  marketplace.push_back(core::train_clean_model(src, arch, 801, scale));
  for (auto kind :
       {attacks::AttackKind::kBadNets, attacks::AttackKind::kWaNet}) {
    marketplace.push_back(core::train_backdoored_model(
        src, attacks::AttackConfig::defaults(kind, 1), arch, 900 + (int)kind,
        scale));
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bprom_api_demo").string();
  std::filesystem::remove_all(dir);  // versions are per-run; start clean

  api::AuditEngine engine({.store_dir = dir});
  if (!engine.status().ok()) {
    std::printf("FAIL: engine: %s\n", engine.status().to_string().c_str());
    return 1;
  }

  // --- 1+2: fit v1, refresh into v2 — all through the façade. -----------
  for (std::uint64_t seed : {7ULL, 8ULL}) {
    const auto inputs = FitInputs::make(src, tgt, seed);
    api::FitRequest fit;
    fit.name = "market";
    fit.source_classes = src.profile.classes;
    fit.reserved_clean = &inputs.reserved;
    fit.target_train = &inputs.dt_train;
    fit.target_test = &tgt.test;
    fit.config = core::default_bprom_config(scale, arch, seed);
    auto info = engine.fit(fit);
    if (!info.ok()) {
      std::printf("FAIL: fit: %s\n", info.status().to_string().c_str());
      return 1;
    }
    std::printf("published %s (K_S=%zu, q=%zu)\n",
                info.value().versioned_name().c_str(),
                info.value().source_classes, info.value().query_samples);
  }
  if (const auto rolled = engine.info("market");
      !rolled.ok() || rolled.value().version != 2) {
    std::printf("FAIL: bare name did not roll over to v2\n");
    return 1;
  }

  // --- 3+4: async audit on the bare name, sync audit pinned to @v1. -----
  const auto audit_via = [&](api::AuditEngine& auditor,
                             const std::string& detector_ref, bool async) {
    std::vector<nn::BlackBoxAdapter> boxes;
    boxes.reserve(marketplace.size());
    for (auto& listing : marketplace) boxes.emplace_back(*listing.model);
    std::vector<api::AuditRequest> batch(marketplace.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].model_id = "listing-" + std::to_string(i);
      batch[i].detector = detector_ref;
      batch[i].model = &boxes[i];
    }
    return async ? auditor.audit_async(std::move(batch)).get()
                 : auditor.audit(batch);
  };
  const auto via_v2 = audit_via(engine, "market", /*async=*/true);
  const auto via_v1 = audit_via(engine, "market@v1", /*async=*/false);

  // --- 5: a "fresh process" cold-loads both versions from disk. ---------
  // Its store cache starts empty, so both resolves read the containers the
  // first engine published; each batch takes the other audit path.
  api::AuditEngine fresh({.store_dir = dir});
  if (!fresh.status().ok()) {
    std::printf("FAIL: fresh engine: %s\n", fresh.status().to_string().c_str());
    return 1;
  }
  const auto reloaded_v2 = audit_via(fresh, "market", /*async=*/false);
  const auto reloaded_v1 = audit_via(fresh, "market@v1", /*async=*/true);

  std::printf("\n%-10s %-10s %-10s %-8s %-7s %-6s %s\n", "id", "detector",
              "score", "verdict", "queries", "match", "time");
  bool all_ok = true;
  const auto check = [&](const std::vector<api::AuditResponse>& got,
                         const std::vector<api::AuditResponse>& reloaded,
                         const char* expect_version) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      const bool ok = got[i].status.ok() && reloaded[i].status.ok() &&
                      got[i].detector_version == expect_version &&
                      reloaded[i].detector_version == expect_version &&
                      same_verdict(got[i].verdict, reloaded[i].verdict);
      all_ok = all_ok && ok;
      std::printf("%-10s %-10s %-10.6f %-8s %-7zu %-6s %.1fms\n",
                  got[i].model_id.c_str(), got[i].detector_version.c_str(),
                  got[i].verdict.score,
                  got[i].verdict.backdoored ? "BACKDOOR" : "clean",
                  got[i].verdict.queries, ok ? "yes" : "NO",
                  got[i].seconds * 1e3);
    }
  };
  check(via_v2, reloaded_v2, "market@v2");
  check(via_v1, reloaded_v1, "market@v1");

  const auto stats = engine.stats();
  std::printf("\nengine stats: %llu requests, %llu verdicts, %llu queries, "
              "%llu rollover(s)\n",
              (unsigned long long)stats.requests,
              (unsigned long long)stats.verdicts,
              (unsigned long long)stats.queries,
              (unsigned long long)stats.rollovers);
  std::printf("Ground truth: listings 0-1 clean; 2-3 backdoored.\n");
  if (!all_ok) {
    std::printf("FAIL: a response failed or the reloaded engine diverged\n");
    return 1;
  }
  std::printf("OK: fit->publish->rollover->async audit verdicts survive a "
              "cold reload bit-for-bit\n");
  return 0;
}

//===- FaultInjector.cpp --------------------------------------------------===//

#include "harden/FaultInjector.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>

using namespace npral;

const std::vector<std::string> &FaultInjector::allSites() {
  static const std::vector<std::string> Sites = {"parse", "analysis", "cache",
                                                 "alloc"};
  return Sites;
}

ErrorOr<FaultInjector> FaultInjector::parse(const std::string &Spec) {
  auto err = [&](const std::string &Why) {
    return Status::error(StatusCode::ParseError,
                         "invalid fault-injection spec '" + Spec + "': " + Why);
  };

  size_t At = Spec.find('@');
  if (At == std::string::npos)
    return err("expected <sites>@<rate>#<seed>");
  size_t Hash = Spec.find('#', At);
  if (Hash == std::string::npos)
    return err("expected #<seed> after the rate");

  FaultInjector FI;

  // Sites.
  std::string SiteList = Spec.substr(0, At);
  size_t Pos = 0;
  while (Pos <= SiteList.size()) {
    size_t Comma = SiteList.find(',', Pos);
    std::string Site = SiteList.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Site == "all") {
      FI.Sites = allSites();
    } else if (std::find(allSites().begin(), allSites().end(), Site) !=
               allSites().end()) {
      if (std::find(FI.Sites.begin(), FI.Sites.end(), Site) == FI.Sites.end())
        FI.Sites.push_back(Site);
    } else {
      return err("unknown site '" + Site + "'");
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }

  // Rate.
  std::string RateStr = Spec.substr(At + 1, Hash - At - 1);
  char *End = nullptr;
  long Rate = std::strtol(RateStr.c_str(), &End, 10);
  if (RateStr.empty() || *End != '\0' || Rate < 0 || Rate > 100)
    return err("rate must be an integer in [0, 100]");
  FI.Rate = static_cast<int>(Rate);

  // Seed.
  std::string SeedStr = Spec.substr(Hash + 1);
  unsigned long long Seed = std::strtoull(SeedStr.c_str(), &End, 10);
  if (SeedStr.empty() || *End != '\0')
    return err("seed must be an unsigned integer");
  FI.Seed = Seed;

  return FI;
}

FaultInjector FaultInjector::fromEnv() {
  const char *Spec = std::getenv("NPRAL_FAULT_INJECT");
  if (!Spec || !*Spec)
    return FaultInjector();
  ErrorOr<FaultInjector> FI = parse(Spec);
  if (!FI)
    reportFatalError(FI.status().str());
  return FI.take();
}

bool FaultInjector::shouldFail(std::string_view Site,
                               std::string_view Item) const {
  if (!enabled())
    return false;
  if (std::find(Sites.begin(), Sites.end(), Site) == Sites.end())
    return false;
  uint64_t Hash = fnv1aCombine(FNV1aOffsetBasis, Seed);
  Hash = fnv1aAppend(Hash, Site);
  Hash = fnv1aAppend(Hash, Item);
  return Hash % 100 < static_cast<uint64_t>(Rate);
}

Status FaultInjector::check(std::string_view Site,
                            std::string_view Item) const {
  if (!shouldFail(Site, Item))
    return Status::success();
  return Status::error(StatusCode::FaultInjected,
                       "injected fault at site '" + std::string(Site) +
                           "' for '" + std::string(Item) + "'");
}
